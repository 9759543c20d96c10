//! Incremental tailing of an append-only CSV feed.
//!
//! The feed is a plain file that a collector appends SMART rows to. The
//! tailer remembers a byte offset and, on every poll, reads only the
//! *complete* lines appended since — a partial trailing line (an append
//! caught mid-write) is left in the file untouched and picked up once
//! its newline arrives, so an in-flight write is never misread as a
//! corrupt row.
//!
//! A poll reads 64 KiB at a time into one buffer the tailer keeps, and
//! stops once it has its line budget or reaches the end of the file.
//! [`MAX_LINE_BYTES`] bytes with no newline are cut off as one line, at
//! any budget.
//!
//! Each line is decoded on its own (lossily: undecodable bytes become
//! U+FFFD) and appended to the poll's text; at the end of the poll that
//! text becomes one shared chunk, and every line is a [`LineText`] view
//! of its range. So a line costs one copy out of the read buffer and no
//! allocation of its own; the poll copies its text into the chunk in
//! one piece. Decoding line by line matters: a cut can split a
//! multibyte character, which a decoder of the whole buffer would keep
//! whole.
//!
//! Rotation is detected by shrinkage: when the file is suddenly shorter
//! than the saved offset, a rotation event is emitted, the generation
//! counter bumps and reading restarts at byte zero. (A rotation that
//! leaves the file *longer* than the offset is indistinguishable from an
//! append at this layer; the engine additionally treats a mid-stream
//! header line as a rotation marker, which covers the common
//! copy-truncate pattern that rewrites the header.)

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

/// The longest line the tailer waits for: `MAX_LINE_BYTES` bytes with no
/// newline among them are cut off and emitted as one line (which will
/// quarantine as a parse failure), so a garbage flood cannot stall the
/// tailer. The cut does not depend on the poll's line budget.
pub const MAX_LINE_BYTES: u64 = 4096;

/// Bytes read from the feed per `read` call, into a buffer the tailer
/// keeps between polls. A poll reads chunks until it has its lines or
/// reaches the end of the file, so its I/O and memory follow the lines
/// it returns, not its budget.
const READ_CHUNK_BYTES: usize = 64 * 1024;

// A cut line must fit in the buffer next to a fresh read.
const _: () = assert!(MAX_LINE_BYTES as usize <= READ_CHUNK_BYTES);

/// One line's text: a range of the chunk that holds the text of every
/// line one poll of one feed took. Views share their chunk, which is
/// freed with the last of them; it derefs to `str`.
#[derive(Clone)]
pub struct LineText {
    chunk: Arc<str>,
    start: usize,
    end: usize,
}

impl LineText {
    /// The text as a `str`.
    #[must_use]
    pub fn as_str(&self) -> &str {
        self.chunk.get(self.start..self.end).unwrap_or_default()
    }

    /// The chunk this view is a range of.
    #[cfg(test)]
    pub(crate) fn chunk(&self) -> &Arc<str> {
        &self.chunk
    }
}

impl Deref for LineText {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// A view of its own chunk holding `text`.
impl From<&str> for LineText {
    fn from(text: &str) -> Self {
        LineText {
            chunk: Arc::from(text),
            start: 0,
            end: text.len(),
        }
    }
}

impl PartialEq for LineText {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for LineText {}

impl fmt::Debug for LineText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// What a poll observed, in feed order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailEvent {
    /// One complete line (newline stripped, CR tolerated), ending at
    /// byte `end_offset` of the current feed generation.
    Line {
        /// The line's text without its terminator.
        text: LineText,
        /// Feed offset just past this line's newline.
        end_offset: u64,
    },
    /// The feed shrank under us: it was rotated or truncated. Reading
    /// restarts at byte zero of the new generation.
    Rotation,
}

/// The feed cursor: path, byte offset, rotation generation.
#[derive(Debug, Clone)]
pub struct FeedTailer {
    path: PathBuf,
    offset: u64,
    generation: u64,
    /// Read buffer, allocated on the first poll and reused by every
    /// later one. It holds no state between polls: each poll re-reads
    /// from `offset`, so a partial trailing line stays in the file.
    buf: Vec<u8>,
    /// Per line taken this poll: where its text ends in the poll's
    /// decoded text, and the feed offset just past it.
    ends: Vec<(usize, u64)>,
    /// How long the last poll's decoded text was: the capacity the next
    /// one starts with, so it rarely grows.
    text_len: usize,
}

impl FeedTailer {
    /// Tail `path` from the beginning.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FeedTailer::resume(path, 0, 0)
    }

    /// Tail `path` from a checkpointed position.
    #[must_use]
    pub fn resume(path: impl Into<PathBuf>, offset: u64, generation: u64) -> Self {
        FeedTailer {
            path: path.into(),
            offset,
            generation,
            buf: Vec::new(),
            ends: Vec::new(),
            text_len: 0,
        }
    }

    /// Byte offset of the next unread byte.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// How many rotations have been observed.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Read up to `max_lines` complete lines appended since the last
    /// poll. A feed file that does not exist yet is simply "no data";
    /// every other I/O failure propagates (the serve loop retries with
    /// backoff). A failure after some lines were taken ends the poll
    /// early instead: those lines are returned, and the failure shows at
    /// the next poll, before anything is consumed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than a missing feed file.
    pub fn poll(&mut self, max_lines: usize) -> io::Result<Vec<TailEvent>> {
        if max_lines == 0 {
            return Ok(Vec::new());
        }
        let mut file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        self.poll_from(&mut file, len, max_lines)
    }

    /// [`FeedTailer::poll`] on an open feed `len` bytes long. The offset
    /// and generation move only with the events they belong to, so the
    /// events taken before an I/O error are returned, not dropped.
    fn poll_from<R: Read + Seek>(
        &mut self,
        feed: &mut R,
        len: u64,
        max_lines: usize,
    ) -> io::Result<Vec<TailEvent>> {
        let mut events = Vec::new();
        if len < self.offset {
            self.offset = 0;
            self.generation += 1;
            events.push(TailEvent::Rotation);
        }
        // A fresh buffer, not one kept between polls: keeping it measured
        // a higher peak RSS (OPTIMIZATION_LOG entry 17).
        let mut text = String::with_capacity(self.text_len);
        self.ends.clear();
        match self.take_lines(feed, max_lines, &mut text) {
            Err(e) if events.is_empty() && self.ends.is_empty() => return Err(e),
            _ if self.ends.is_empty() => return Ok(events),
            _ => {}
        }
        self.text_len = text.len();
        let chunk: Arc<str> = Arc::from(text);
        let mut start = 0;
        events.extend(self.ends.iter().map(|&(end, end_offset)| {
            let text = LineText {
                chunk: Arc::clone(&chunk),
                start: std::mem::replace(&mut start, end),
                end,
            };
            TailEvent::Line { text, end_offset }
        }));
        Ok(events)
    }

    /// Take up to `max_lines` lines from the offset on: append each
    /// one's text to `text` and its ends to `ends`, moving the offset
    /// past each line as it is taken.
    fn take_lines<R: Read + Seek>(
        &mut self,
        feed: &mut R,
        max_lines: usize,
        text: &mut String,
    ) -> io::Result<()> {
        feed.seek(SeekFrom::Start(self.offset))?;
        self.buf.resize(READ_CHUNK_BYTES, 0);

        // buf[lo..hi] is read but not yet consumed.
        let (mut lo, mut hi) = (0usize, 0usize);
        let mut eof = false;
        while self.ends.len() < max_lines {
            let pending = self.buf.get(lo..hi).unwrap_or_default();
            let Some((line_len, consumed)) = split_line(pending) else {
                if eof {
                    break;
                }
                // Keep the unconsumed tail (shorter than a line) and read
                // the next chunk after it.
                self.buf.copy_within(lo..hi, 0);
                (hi, lo) = (hi - lo, 0);
                let n = read_some(feed, self.buf.get_mut(hi..).unwrap_or_default())?;
                hi += n;
                eof = n == 0;
                continue;
            };
            let line = pending.get(..line_len).unwrap_or_default();
            // A newline-terminated line tolerates CRLF; a cut one is kept
            // as read.
            let line = if consumed > line_len {
                line.strip_suffix(b"\r").unwrap_or(line)
            } else {
                line
            };
            self.offset += consumed as u64;
            // Lossy is fine: undecodable bytes become U+FFFD
            // deterministically and the row quarantines as a parse
            // failure, exactly like the batch reader. A valid line is
            // borrowed, not copied, until it is appended to `text`.
            text.push_str(&String::from_utf8_lossy(line));
            self.ends.push((text.len(), self.offset));
            lo += consumed;
        }
        Ok(())
    }
}

/// The next line in `pending`: `(line length, bytes consumed)`. A line
/// ends at its newline (consumed with it) or is cut at
/// [`MAX_LINE_BYTES`]; `None` means the line is still incomplete.
fn split_line(pending: &[u8]) -> Option<(usize, usize)> {
    let max_line = MAX_LINE_BYTES as usize;
    match pending.iter().take(max_line).position(|&b| b == b'\n') {
        Some(len) => Some((len, len + 1)),
        None if pending.len() >= max_line => Some((max_line, max_line)),
        None => None,
    }
}

/// One `read` into `buf`, retried on `Interrupted`; 0 means end of file.
fn read_some(feed: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match feed.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hdd-serve-tailer-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::remove_file(&path).ok();
        path
    }

    fn lines(events: &[TailEvent]) -> Vec<&str> {
        events
            .iter()
            .filter_map(|e| match e {
                TailEvent::Line { text, .. } => Some(text.as_str()),
                TailEvent::Rotation => None,
            })
            .collect()
    }

    #[test]
    fn missing_feed_is_no_data() {
        let mut t = FeedTailer::new(scratch("missing.csv"));
        assert!(t.poll(16).unwrap().is_empty());
        assert_eq!(t.offset(), 0);
    }

    #[test]
    fn partial_trailing_line_waits_for_its_newline() {
        let path = scratch("partial.csv");
        fs::write(&path, "header\n1,0,,5,1,2").unwrap();
        let mut t = FeedTailer::new(&path);
        let events = t.poll(16).unwrap();
        assert_eq!(lines(&events), vec!["header"]);
        let resting = t.offset();

        // Complete the line plus one more; both arrive, offsets advance.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, ",3\n2,0,,6,9\n").unwrap();
        drop(f);
        let events = t.poll(16).unwrap();
        assert_eq!(lines(&events), vec!["1,0,,5,1,2,3", "2,0,,6,9"]);
        assert!(t.offset() > resting);
        assert!(t.poll(16).unwrap().is_empty(), "nothing left");
    }

    #[test]
    fn max_lines_bounds_each_poll() {
        let path = scratch("bounded.csv");
        fs::write(&path, "a\nb\nc\nd\n").unwrap();
        let mut t = FeedTailer::new(&path);
        assert_eq!(lines(&t.poll(3).unwrap()), vec!["a", "b", "c"]);
        assert_eq!(lines(&t.poll(3).unwrap()), vec!["d"]);
    }

    #[test]
    fn shrinkage_is_a_rotation() {
        let path = scratch("rotate.csv");
        fs::write(&path, "header\n1,old\n2,old\n").unwrap();
        let mut t = FeedTailer::new(&path);
        assert_eq!(t.poll(16).unwrap().len(), 3);
        assert_eq!(t.generation(), 0);

        fs::write(&path, "header\n1,new\n").unwrap();
        let events = t.poll(16).unwrap();
        assert_eq!(events[0], TailEvent::Rotation);
        assert_eq!(lines(&events), vec!["header", "1,new"]);
        assert_eq!(t.generation(), 1);
    }

    #[test]
    fn crlf_is_stripped() {
        let path = scratch("crlf.csv");
        fs::write(&path, "a\r\nb\r\n").unwrap();
        let mut t = FeedTailer::new(&path);
        assert_eq!(lines(&t.poll(16).unwrap()), vec!["a", "b"]);
    }

    #[test]
    fn overlong_line_cannot_stall_the_tailer() {
        let path = scratch("overlong.csv");
        let garbage = "x".repeat(2 * MAX_LINE_BYTES as usize);
        fs::write(&path, &garbage).unwrap();
        let mut t = FeedTailer::new(&path);
        let first = t.poll(1).unwrap();
        assert_eq!(first.len(), 1, "budget-filling junk is consumed");
        let second = t.poll(1).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(t.offset(), garbage.len() as u64);
    }

    /// Every line of `t`, polling `max_lines` at a time to the end.
    fn drain(t: &mut FeedTailer, max_lines: usize) -> Vec<TailEvent> {
        let mut all = Vec::new();
        loop {
            let events = t.poll(max_lines).unwrap();
            assert!(events.len() <= max_lines);
            if events.is_empty() {
                return all;
            }
            all.extend(events);
        }
    }

    #[test]
    fn a_line_straddling_a_chunk_boundary_arrives_whole() {
        let path = scratch("straddle.csv");
        // 100-byte lines: line 655 spans bytes 65_500..65_600, across
        // the first chunk's end.
        let body: String = (0..1500).map(|i| format!("{i:099}\n")).collect();
        fs::write(&path, &body).unwrap();
        for max_lines in [1, 7, 1024, 4096] {
            let mut t = FeedTailer::new(&path);
            let events = drain(&mut t, max_lines);
            let expected: Vec<String> = (0..1500).map(|i| format!("{i:099}")).collect();
            assert_eq!(lines(&events), expected, "max_lines {max_lines}");
            if let Some(TailEvent::Line { end_offset, .. }) = events.get(655) {
                assert_eq!(*end_offset, 65_600);
            }
            assert_eq!(t.offset(), body.len() as u64);
        }
    }

    #[test]
    fn a_partial_trailing_line_stays_unread_across_chunks_and_polls() {
        let path = scratch("partial-long.csv");
        let whole: String = (0..2000).map(|i| format!("{i:049}\n")).collect();
        fs::write(&path, format!("{whole}9,partial")).unwrap();
        let mut t = FeedTailer::new(&path);
        let events = drain(&mut t, 300);
        assert_eq!(events.len(), 2000, "more than one chunk of whole lines");
        assert_eq!(t.offset(), whole.len() as u64, "the partial line is unread");
        assert!(
            t.poll(300).unwrap().is_empty(),
            "still waiting for its newline"
        );

        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, ",done").unwrap();
        drop(f);
        assert_eq!(lines(&t.poll(300).unwrap()), vec!["9,partial,done"]);
    }

    #[test]
    fn an_overlong_line_is_cut_the_same_way_at_any_budget() {
        let path = scratch("cut.csv");
        let long = "y".repeat(10 * 1024);
        fs::write(&path, format!("a\n{long}\nb\n")).unwrap();
        let cut = MAX_LINE_BYTES as usize;
        let expected = vec![
            "a",
            &long[..cut],
            &long[cut..2 * cut],
            &long[2 * cut..],
            "b",
        ];
        let one = drain(&mut FeedTailer::new(&path), 1);
        let many = drain(&mut FeedTailer::new(&path), 1024);
        assert_eq!(lines(&many), expected);
        assert_eq!(one, many, "lines and offsets match at max_lines 1 and 1024");
    }

    #[test]
    fn lines_up_to_the_cut_arrive_whole() {
        let path = scratch("at-the-cut.csv");
        let max = MAX_LINE_BYTES as usize;
        let short = "s".repeat(max - 1);
        let exact = "e".repeat(max);
        fs::write(&path, format!("{short}\n{exact}\nz\n")).unwrap();
        for max_lines in [1, 2, 1024] {
            let events = drain(&mut FeedTailer::new(&path), max_lines);
            // A line of exactly MAX_LINE_BYTES is cut before its newline,
            // which then ends an empty line: the text is still whole.
            assert_eq!(
                lines(&events),
                vec![short.as_str(), exact.as_str(), "", "z"],
                "max_lines {max_lines}"
            );
        }
    }

    #[test]
    fn undecodable_bytes_decode_lossily_even_across_chunks() {
        let path = scratch("lossy.csv");
        // 655 padding lines of 100 bytes, then a line whose two-byte 'é'
        // sits at bytes 65_535..65_537, across the first chunk's end,
        // then a line of invalid bytes.
        let pad = "p".repeat(99);
        let split = format!("{}é,1", "x".repeat(READ_CHUNK_BYTES - 1 - 65_500));
        let mut body = format!("{pad}\n").repeat(655) + &split + "\n";
        assert_eq!(
            &body.as_bytes()[READ_CHUNK_BYTES - 1..][..2],
            "é".as_bytes()
        );
        body.push_str("q,2\n");
        let mut bytes = body.into_bytes();
        bytes.extend_from_slice(b"\xff\xfe,3\n");
        fs::write(&path, &bytes).unwrap();
        let events = drain(&mut FeedTailer::new(&path), 1024);
        let got = lines(&events);
        assert_eq!(got.len(), 658);
        assert_eq!(got[655..], [split.as_str(), "q,2", "\u{fffd}\u{fffd},3"]);
    }

    #[test]
    fn each_line_decodes_on_its_own_across_a_cut() {
        let path = scratch("lossy-cut.csv");
        let max = MAX_LINE_BYTES as usize;
        // The cut at MAX_LINE_BYTES falls inside the two-byte 'é', and a
        // line ends in an invalid byte just before its CRLF.
        let mut cut = "x".repeat(max - 1).into_bytes();
        cut.extend_from_slice("é,tail".as_bytes());
        let raw: Vec<&[u8]> = vec![
            b"ok,1",
            &cut[..max],
            &cut[max..],
            b"bad\xff",
            "é,2".as_bytes(),
            b"\xfe",
        ];
        let body = [
            &b"ok,1\n"[..],
            &cut,
            b"\nbad\xff\r\n",
            "é,2\r\n".as_bytes(),
            b"\xfe\n",
        ]
        .concat();
        fs::write(&path, &body).unwrap();
        let expected: Vec<String> = raw
            .iter()
            .map(|line| String::from_utf8_lossy(line).into_owned())
            .collect();
        assert_eq!(expected[1], format!("{}\u{fffd}", "x".repeat(max - 1)));
        assert_eq!(expected[2], "\u{fffd},tail");
        assert_eq!(expected[3], "bad\u{fffd}");
        for max_lines in [1, 2, 1024] {
            let events = drain(&mut FeedTailer::new(&path), max_lines);
            assert_eq!(lines(&events), expected, "max_lines {max_lines}");
        }
    }

    /// A feed whose reads stop short of byte `fail_at` and fail there.
    struct FailingFeed {
        data: io::Cursor<Vec<u8>>,
        fail_at: u64,
    }

    impl Read for FailingFeed {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let room = self.fail_at.saturating_sub(self.data.position());
            if room == 0 {
                return Err(io::Error::other("injected read fault"));
            }
            let n = buf.len().min(usize::try_from(room).unwrap_or(usize::MAX));
            self.data.read(&mut buf[..n])
        }
    }

    impl Seek for FailingFeed {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.data.seek(pos)
        }
    }

    #[test]
    fn a_read_error_mid_poll_loses_no_line() {
        let body: Vec<u8> = (0..1500)
            .flat_map(|i| format!("{i:099}\n").into_bytes())
            .collect();
        let len = body.len() as u64;
        let feed = |fail_at| FailingFeed {
            data: io::Cursor::new(body.clone()),
            fail_at,
        };
        let mut t = FeedTailer::new(scratch("unused.csv"));

        // The first read fails: nothing is consumed and the error shows.
        assert!(t.poll_from(&mut feed(0), len, 1024).is_err());
        assert_eq!(t.offset(), 0);

        // The refill after the first chunk fails: the 655 whole lines of
        // that chunk are returned and the offset stops after them.
        let first = t.poll_from(&mut feed(65_536), len, 1024).unwrap();
        assert_eq!(first.len(), 655);
        assert_eq!(t.offset(), 65_500);

        // The next poll on the same fault fails before consuming anything.
        assert!(t.poll_from(&mut feed(65_536), len, 1024).is_err());
        assert_eq!(t.offset(), 65_500);

        // Once the fault clears, the rest arrives: every line exactly once.
        let mut all = first;
        loop {
            let events = t.poll_from(&mut feed(u64::MAX), len, 1024).unwrap();
            if events.is_empty() {
                break;
            }
            all.extend(events);
        }
        let expected: Vec<String> = (0..1500).map(|i| format!("{i:099}")).collect();
        assert_eq!(lines(&all), expected);
        assert_eq!(t.offset(), len);
    }

    #[test]
    fn undecodable_bytes_become_a_deterministic_line() {
        let path = scratch("nonutf8.csv");
        fs::write(&path, b"ok\n\xff\xfe,1\n").unwrap();
        let mut t = FeedTailer::new(&path);
        let events = t.poll(16).unwrap();
        assert_eq!(events.len(), 2);
        let run_again = FeedTailer::new(&path).poll(16).unwrap();
        assert_eq!(events, run_again, "lossy decoding is deterministic");
    }
}
