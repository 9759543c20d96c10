//! Multi-feed ingest: tail several CSV feeds, route lines to shards.
//!
//! Every routed line gets a **sequence number** that is a pure function
//! of feed content: line number `c` of feed `f` (counting only routed
//! lines — headers and blanks are consumed here) gets
//! `seq = c * n_feeds + f`. Seqs are what make the topology
//! deterministic end to end: shards skip already-committed lines on
//! replay by comparing `c` against their per-feed cursors, and the merge
//! stage orders alarms across shards by the seq of the line that raised
//! them, so the alarm sink does not depend on shard count or on how
//! polls interleaved the feeds.
//!
//! The seq construction also yields an exact ingest **watermark**: with
//! `routed[f]` lines routed from feed `f`, every seq below
//! `min_f(routed[f] * n_feeds + f)` has been assigned, and the seq at
//! that bound has not — the merge stage never emits an alarm a
//! slower feed could still undercut (see [`crate::merge`] for the idle
//! flush that handles permanently shorter feeds).
//!
//! Header and blank lines are consumed at this layer rather than routed:
//! they carry no drive id, so no shard owns them, and a shard's byte
//! offsets are non-contiguous anyway. A header at byte zero of a
//! generation is the expected file header; one appearing mid-stream
//! marks a copy-truncate rotation, reported (like tailer-detected
//! shrinkage) in [`PollOutcome::rotations`].

use crate::router::ShardRouter;
use crate::tailer::{FeedTailer, LineText, TailEvent};
use hdd_json::{usize_field, write_number, Cursor, Decoded};
use hdd_smart::csv::is_header_line;
use std::path::PathBuf;

/// One feed line routed to its owning shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedLine {
    /// Global order key: `line_index * n_feeds + feed_index`.
    pub seq: u64,
    /// The line's text (no terminator): a view of the chunk its feed
    /// poll decoded, shared with the other lines of that poll.
    pub text: LineText,
    /// Feed offset just past this line.
    pub end_offset: u64,
    /// Rotation generation the offset belongs to.
    pub generation: u64,
}

/// A resumable position in one feed: the next routed-line index plus the
/// byte position it corresponds to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedCursor {
    /// Index of the next routed line of this feed (its seq is
    /// `next_line * n_feeds + feed_index`).
    pub next_line: u64,
    /// Byte offset tailing resumes at.
    pub offset: u64,
    /// Rotation generation the offset belongs to.
    pub generation: u64,
}

impl FeedCursor {
    /// Total order matching feed progress: later positions compare
    /// greater. `next_line` is monotone across rotations, so it leads.
    #[must_use]
    pub fn position_key(&self) -> (u64, u64, u64) {
        (self.next_line, self.generation, self.offset)
    }
}

impl FeedCursor {
    /// Append the cursor as a shard snapshot holds it:
    /// `{"next_line":…,"offset":…,"generation":…}`.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"next_line\":");
        write_number(self.next_line as f64, out);
        out.push_str(",\"offset\":");
        write_number(self.offset as f64, out);
        out.push_str(",\"generation\":");
        write_number(self.generation as f64, out);
        out.push('}');
    }

    /// Read a cursor [`FeedCursor::write_json`] wrote.
    pub(crate) fn read_json(cursor: &mut Cursor<'_>) -> Decoded<Self> {
        let (mut next_line, mut offset, mut generation) = (None, None, None);
        cursor.object(|key, c| {
            match key {
                "next_line" if next_line.is_none() => next_line = Some(c.number()?),
                "offset" if offset.is_none() => offset = Some(c.number()?),
                "generation" if generation.is_none() => generation = Some(c.number()?),
                _ => c.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            Ok(FeedCursor {
                next_line: usize_field(next_line, "next_line")? as u64,
                offset: usize_field(offset, "offset")? as u64,
                generation: usize_field(generation, "generation")? as u64,
            })
        })())
    }
}

/// What one ingest poll produced.
#[derive(Debug, Default)]
pub struct PollOutcome {
    /// Routed lines grouped by owning shard (`routed[k]` → shard `k`),
    /// in routing order.
    pub routed: Vec<Vec<RoutedLine>>,
    /// Data lines routed this poll (headers and blanks excluded).
    pub lines_read: usize,
    /// Rotations observed this poll (file shrinkage + mid-stream
    /// headers).
    pub rotations: usize,
    /// Feeds whose poll failed, with the error; the other feeds still
    /// made progress and the failed ones retry next poll.
    pub errors: Vec<(usize, std::io::Error)>,
}

/// Tails `n_feeds` append-only CSV feeds and routes complete lines to
/// their owning shards; see the module docs.
#[derive(Debug)]
pub struct MultiFeedIngest {
    feeds: Vec<Feed>,
    router: ShardRouter,
}

/// One tailed feed and its routing position.
#[derive(Debug)]
struct Feed {
    tailer: FeedTailer,
    /// Index of the next routed line.
    routed: u64,
    /// Byte position just past the last consumed line, used to tell a
    /// file-start header from a mid-stream (rotation) header.
    pos: u64,
}

impl Feed {
    /// Read up to `max_lines` lines of feed `f` (of `n_feeds`) and route
    /// its data lines into `out`. Returns whether the feed filled the
    /// request, i.e. may have more lines right now.
    fn poll(
        &mut self,
        f: usize,
        n_feeds: u64,
        max_lines: usize,
        router: ShardRouter,
        out: &mut PollOutcome,
    ) -> std::io::Result<bool> {
        let events = self.tailer.poll(max_lines)?;
        let mut lines = 0;
        for event in events {
            let TailEvent::Line { text, end_offset } = event else {
                // The file shrank: a rotation.
                out.rotations += 1;
                self.pos = 0;
                continue;
            };
            lines += 1;
            let line_start = std::mem::replace(&mut self.pos, end_offset);
            if text.trim().is_empty() {
                continue;
            }
            if is_header_line(&text) {
                // Expected at a generation's start; a header mid-stream
                // marks a copy-truncate rotation.
                if line_start != 0 {
                    out.rotations += 1;
                }
                continue;
            }
            let seq = self.routed * n_feeds + f as u64;
            self.routed += 1;
            out.lines_read += 1;
            let shard = router.shard_of_line(&text);
            #[expect(
                clippy::indexing_slicing,
                reason = "shard_of_line() reduces the hash modulo n_shards; out.routed is sized to n_shards"
            )]
            out.routed[shard].push(RoutedLine {
                seq,
                text,
                end_offset,
                generation: self.tailer.generation(),
            });
        }
        Ok(lines == max_lines)
    }
}

impl MultiFeedIngest {
    /// Tail `paths` from the beginning.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty.
    #[must_use]
    pub fn new(paths: &[PathBuf], router: ShardRouter) -> Self {
        let cursors = vec![FeedCursor::default(); paths.len()];
        MultiFeedIngest::resume(paths, router, &cursors)
    }

    /// Tail `paths` from per-feed cursors (one per path, typically the
    /// minimum over shard checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty or `cursors` has a different length.
    #[must_use]
    pub fn resume(paths: &[PathBuf], router: ShardRouter, cursors: &[FeedCursor]) -> Self {
        assert!(!paths.is_empty(), "at least one feed is required");
        assert_eq!(paths.len(), cursors.len(), "one cursor per feed");
        MultiFeedIngest {
            feeds: paths
                .iter()
                .zip(cursors)
                .map(|(p, c)| Feed {
                    tailer: FeedTailer::resume(p, c.offset, c.generation),
                    routed: c.next_line,
                    pos: c.offset,
                })
                .collect(),
            router,
        }
    }

    /// How many feeds are being tailed.
    #[must_use]
    pub fn n_feeds(&self) -> usize {
        self.feeds.len()
    }

    /// The current per-feed positions — the snapshot shards adopt once
    /// their queue drains.
    #[must_use]
    pub fn cursors(&self) -> Vec<FeedCursor> {
        self.feeds
            .iter()
            .map(|feed| FeedCursor {
                next_line: feed.routed,
                offset: feed.tailer.offset(),
                generation: feed.tailer.generation(),
            })
            .collect()
    }

    /// The exact assignment frontier: every seq below it has been
    /// routed, the seq at it has not.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        let n = self.feeds.len() as u64;
        self.feeds
            .iter()
            .enumerate()
            .map(|(f, feed)| feed.routed * n + f as u64)
            .min()
            .unwrap_or(0)
    }

    /// Route at most `budget` data lines in total (callers pass the
    /// minimum free shard-queue capacity, so no shard can overflow no
    /// matter how routing lands), split evenly across the feeds.
    ///
    /// Each round offers every feed still open an equal share of what is
    /// left of the budget (the first `left % open` feeds one line more).
    /// A feed that reads fewer lines than its share — it reached the end
    /// of its file, or failed — closes for this poll, and the next round
    /// hands its unused share to the others. Polling feeds evenly keeps
    /// the merge watermark, which the slowest feed sets, within one poll
    /// of the fastest feed, so shards hold back few alarms and row
    /// events. Seqs depend on feed content alone, never on the split.
    pub fn poll(&mut self, budget: usize) -> PollOutcome {
        let n_feeds = self.feeds.len() as u64;
        let mut out = PollOutcome {
            routed: (0..self.router.n_shards()).map(|_| Vec::new()).collect(),
            ..PollOutcome::default()
        };
        let mut open = vec![true; self.feeds.len()];
        loop {
            let left = budget - out.lines_read;
            let n_open = open.iter().filter(|&&o| o).count();
            if left == 0 || n_open == 0 {
                return out;
            }
            let (share, extra) = (left / n_open, left % n_open);
            let feeds = self.feeds.iter_mut().zip(&mut open).enumerate();
            for (i, (f, (feed, is_open))) in feeds.filter(|(_, (_, o))| **o).enumerate() {
                let quota = share + usize::from(i < extra);
                if quota == 0 {
                    continue;
                }
                match feed.poll(f, n_feeds, quota, self.router, &mut out) {
                    Ok(filled) => *is_open = filled,
                    Err(e) => {
                        out.errors.push((f, e));
                        *is_open = false;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdd-serve-ingest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(tag);
        fs::remove_file(&path).ok();
        path
    }

    fn header() -> String {
        let mut buf = Vec::new();
        hdd_smart::csv::write_header(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn seqs_interleave_feeds_deterministically() {
        let a = scratch("interleave-a.csv");
        let b = scratch("interleave-b.csv");
        fs::write(&a, "1,x\n2,x\n3,x\n").unwrap();
        fs::write(&b, "4,y\n5,y\n").unwrap();
        let mut ingest = MultiFeedIngest::new(&[a.clone(), b.clone()], ShardRouter::new(1));
        let out = ingest.poll(64);
        assert!(out.errors.is_empty());
        assert_eq!(out.lines_read, 5);
        let seqs: Vec<(u64, String)> = out.routed[0]
            .iter()
            .map(|l| (l.seq, l.text.to_string()))
            .collect();
        // Feed 0 line c → seq 2c; feed 1 line c → seq 2c+1.
        assert_eq!(
            seqs,
            vec![
                (0, "1,x".to_string()),
                (2, "2,x".to_string()),
                (4, "3,x".to_string()),
                (1, "4,y".to_string()),
                (3, "5,y".to_string()),
            ]
        );
        // Watermark: feed 1 routed 2 lines, so seq 2*2+1 = 5 is the
        // first unassigned seq on the slower feed.
        assert_eq!(ingest.watermark(), 5);
    }

    #[test]
    fn headers_and_blanks_are_consumed_not_routed() {
        let a = scratch("headers.csv");
        fs::write(&a, format!("{}7,z\n\n8,z\n", header())).unwrap();
        let mut ingest = MultiFeedIngest::new(std::slice::from_ref(&a), ShardRouter::new(1));
        let out = ingest.poll(64);
        assert_eq!(out.lines_read, 2);
        assert_eq!(out.rotations, 0, "the file-start header is expected");
        let texts: Vec<&str> = out.routed[0].iter().map(|l| l.text.as_str()).collect();
        assert_eq!(texts, vec!["7,z", "8,z"]);
    }

    #[test]
    fn mid_stream_header_counts_as_rotation() {
        let a = scratch("midheader.csv");
        fs::write(&a, format!("{h}9,z\n{h}10,z\n", h = header())).unwrap();
        let mut ingest = MultiFeedIngest::new(std::slice::from_ref(&a), ShardRouter::new(1));
        let out = ingest.poll(64);
        assert_eq!(out.rotations, 1);
        assert_eq!(out.lines_read, 2);
    }

    #[test]
    fn resume_from_cursor_skips_consumed_prefix() {
        let a = scratch("resume.csv");
        fs::write(&a, "1,x\n2,x\n3,x\n").unwrap();
        let mut first = MultiFeedIngest::new(std::slice::from_ref(&a), ShardRouter::new(1));
        let out = first.poll(2);
        assert_eq!(out.lines_read, 2);
        let cursors = first.cursors();
        assert_eq!(cursors[0].next_line, 2);

        let mut resumed =
            MultiFeedIngest::resume(std::slice::from_ref(&a), ShardRouter::new(1), &cursors);
        let out = resumed.poll(64);
        assert_eq!(out.lines_read, 1);
        assert_eq!(out.routed[0][0].seq, 2);
        assert_eq!(out.routed[0][0].text.as_str(), "3,x");
    }

    #[test]
    fn budget_caps_total_lines_across_feeds() {
        let a = scratch("budget-a.csv");
        let b = scratch("budget-b.csv");
        fs::write(&a, "1,x\n2,x\n3,x\n").unwrap();
        fs::write(&b, "4,y\n5,y\n").unwrap();
        let mut ingest = MultiFeedIngest::new(&[a.clone(), b.clone()], ShardRouter::new(2));
        let out = ingest.poll(3);
        assert_eq!(out.lines_read, 3);
        let total: usize = out.routed.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        // The rest arrives on the next poll.
        let out = ingest.poll(64);
        assert_eq!(out.lines_read, 2);
    }

    /// `(seq, text)` of every routed line, in seq order.
    fn by_seq(out: &PollOutcome) -> Vec<(u64, String)> {
        let mut lines: Vec<(u64, String)> = out
            .routed
            .iter()
            .flatten()
            .map(|l| (l.seq, l.text.to_string()))
            .collect();
        lines.sort_unstable();
        lines
    }

    fn feed_body(tag: &str, n: usize) -> String {
        (0..n).map(|i| format!("{i},{tag}\n")).collect()
    }

    #[test]
    fn the_budget_is_split_evenly_across_feeds() {
        let a = scratch("even-a.csv");
        let b = scratch("even-b.csv");
        fs::write(&a, feed_body("a", 10)).unwrap();
        fs::write(&b, feed_body("b", 10)).unwrap();
        let mut ingest = MultiFeedIngest::new(&[a, b], ShardRouter::new(2));
        let out = ingest.poll(6);
        assert_eq!(out.lines_read, 6);
        let seqs: Vec<u64> = by_seq(&out).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "three lines from each feed");
        assert_eq!(ingest.watermark(), 6);
        // An odd budget gives the first open feed the extra line.
        let out = ingest.poll(3);
        let seqs: Vec<u64> = by_seq(&out).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8]);
    }

    #[test]
    fn a_short_feed_hands_its_share_to_the_others() {
        let a = scratch("short-a.csv");
        let b = scratch("short-b.csv");
        let c = scratch("short-c.csv");
        fs::write(&a, format!("{}{}", header(), feed_body("a", 2))).unwrap();
        fs::write(&b, feed_body("b", 20)).unwrap();
        fs::write(&c, feed_body("c", 20)).unwrap();
        let mut ingest = MultiFeedIngest::new(&[a, b, c], ShardRouter::new(1));
        let out = ingest.poll(14);
        assert_eq!(out.lines_read, 14);
        let per_feed = |f: u64| by_seq(&out).iter().filter(|(s, _)| s % 3 == f).count();
        // Shares 5, 5, 4; feed a routes 2 and closes, and its 3 unused
        // lines go out as 2 and 1 in the next round.
        assert_eq!((per_feed(0), per_feed(1), per_feed(2)), (2, 7, 5));
        // Feed a is done, so the whole next budget goes to b and c.
        let out = ingest.poll(10);
        let per_feed = |f: u64| by_seq(&out).iter().filter(|(s, _)| s % 3 == f).count();
        assert_eq!((per_feed(0), per_feed(1), per_feed(2)), (0, 5, 5));
    }

    #[test]
    fn any_budget_sequence_routes_the_same_seqs_within_budget() {
        let paths = [
            scratch("split-a.csv"),
            scratch("split-b.csv"),
            scratch("split-c.csv"),
        ];
        // Unequal feeds with headers and blank lines mixed in.
        fs::write(&paths[0], format!("{}{}", header(), feed_body("a", 37))).unwrap();
        fs::write(&paths[1], feed_body("b", 5) + "\n\n" + &feed_body("bb", 40)).unwrap();
        fs::write(&paths[2], feed_body("c", 11)).unwrap();
        let whole = by_seq(&MultiFeedIngest::new(&paths, ShardRouter::new(2)).poll(1000));
        assert_eq!(whole.len(), 37 + 45 + 11);
        for budgets in [&[1usize, 2, 3][..], &[7, 1, 64], &[4, 5, 6, 2], &[100]] {
            let mut ingest = MultiFeedIngest::new(&paths, ShardRouter::new(2));
            let mut got = Vec::new();
            for &budget in budgets.iter().cycle() {
                let out = ingest.poll(budget);
                assert!(out.lines_read <= budget, "{budgets:?}");
                assert_eq!(
                    out.routed.iter().map(Vec::len).sum::<usize>(),
                    out.lines_read
                );
                if out.lines_read == 0 {
                    break;
                }
                got.extend(by_seq(&out));
            }
            got.sort_unstable();
            assert_eq!(got, whole, "budgets {budgets:?}");
        }
    }

    #[test]
    fn missing_feed_is_no_data_not_an_error() {
        let missing = scratch("never-written.csv");
        let mut ingest = MultiFeedIngest::new(&[missing], ShardRouter::new(1));
        let out = ingest.poll(16);
        assert!(out.errors.is_empty());
        assert_eq!(out.lines_read, 0);
    }

    #[test]
    fn cursor_codec_round_trips() {
        let c = FeedCursor {
            next_line: 7,
            offset: 123,
            generation: 2,
        };
        let mut text = String::new();
        c.write_json(&mut text);
        assert_eq!(text, "{\"next_line\":7,\"offset\":123,\"generation\":2}");
        let back = FeedCursor::read_json(&mut hdd_json::Cursor::new(&text));
        assert_eq!(back.unwrap().unwrap(), c);
        assert!(c.position_key() > FeedCursor::default().position_key());
    }
}
