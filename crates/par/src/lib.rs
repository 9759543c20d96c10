//! Deterministic fork-join parallelism on scoped threads.
//!
//! Training and evaluation decompose into independent units — features of
//! a split search, trees of a forest, drives of a test population — whose
//! per-unit work is pure. This crate runs those units across a bounded
//! number of scoped worker threads and **always merges results in
//! submission order**, so the output of every parallel call is
//! bit-identical to the serial loop it replaces.
//!
//! Every combinator splits its input into at most `n_threads` contiguous
//! chunks of `ceil(n / n_threads)` items and hands them to one private
//! fan-out loop. That loop catches a panic in any chunk, spawns scoped
//! threads only when there is more than one chunk, and reports the
//! earliest failing chunk. With one thread there is one chunk, run
//! inline: `threads = 1` *is* the serial loop, not an emulation of it.
//!
//! # Thread-count resolution
//!
//! Library code never takes a thread count: it asks for
//! [`ThreadPool::global`], which picks the pool from, in order:
//!
//! 1. the pool installed on the calling thread by [`ThreadPool::install`]
//!    (every spawned worker runs under an installed serial pool),
//! 2. the process-wide override set by [`configure_threads`] (what a
//!    `--threads` CLI flag plumbs through),
//! 3. the `HDDPRED_THREADS` environment variable (ignored unless it
//!    parses to an integer ≥ 1),
//! 4. [`hardware_threads`].
//!
//! Every count is clamped to 64: fork-join gains flatten well before
//! that, and a runaway environment value must not fork-bomb.
//!
//! # No nesting
//!
//! Each spawned worker runs its chunk with [`ThreadPool::serial`]
//! installed, so a fan-out nested inside a worker is one chunk run inline
//! on that worker: an outer fan-out of `n` threads never has more than
//! `n` workers live, however deep the calls nest. A call that yields one
//! chunk spawns nothing and runs on the caller with the caller's pool, so
//! work wrapped in a one-item fan-out (for panic containment) still
//! parallelises inside.
//!
//! # Example
//!
//! ```
//! use hdd_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.parallel_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // submission order
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
#[expect(
    clippy::disallowed_types,
    reason = "CancelToken tick-budget deadlines: bounds when work commits, never what commits"
)]
use std::time::Instant;

/// Why a fallible combinator returned without a full result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A closure panicked. The panic was caught in its worker, every
    /// other chunk still ran, and the earliest panicking chunk (in
    /// submission order, whatever the thread timing) is reported.
    Panic {
        /// Index of the chunk, in submission order, whose closure panicked.
        chunk: usize,
        /// The panic message when the payload was a string (the common
        /// case); `"<non-string panic payload>"` otherwise.
        message: String,
    },
    /// [`CancelToken::check`] found the token cancelled.
    Cancelled,
    /// [`CancelToken::check`] found the token's deadline passed.
    DeadlineExceeded,
}

impl ParError {
    fn panic(chunk: usize, payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        ParError::Panic { chunk, message }
    }
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Panic { chunk, message } => {
                write!(f, "worker panicked in chunk {chunk}: {message}")
            }
            ParError::Cancelled => write!(f, "cancelled"),
            ParError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for ParError {}

/// A cooperative cancellation handle: cloneable, checkable, optionally
/// carrying a wall-clock deadline.
///
/// Nothing is pre-empted: the holder checks the token between units of
/// work, so a caller that needs a tick budget honoured should keep its
/// units small (the serve topology checks it before each sub-batch).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "CancelToken tick-budget deadlines: bounds when work commits, never what commits"
)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "CancelToken tick-budget deadlines: bounds when work commits, never what commits"
)]
impl CancelToken {
    /// A token that never expires on its own; only
    /// [`CancelToken::cancel`] trips it.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that reports [`ParError::DeadlineExceeded`] once `budget`
    /// has passed from now.
    #[must_use]
    pub fn with_budget(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Trip the token: every clone observes the cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Check for an interrupt: explicit cancellation wins over the
    /// deadline when both apply.
    ///
    /// # Errors
    ///
    /// Returns [`ParError::Cancelled`] when the token is tripped and
    /// [`ParError::DeadlineExceeded`] when it has expired.
    pub fn check(&self) -> Result<(), ParError> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(ParError::Cancelled);
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => Err(ParError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Hard cap on worker counts.
const MAX_THREADS: usize = 64;

/// Process-wide thread-count override; `0` means "not set".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default thread count (what a `--threads` CLI
/// flag plumbs through). Takes precedence over `HDDPRED_THREADS` and
/// hardware detection.
///
/// # Panics
///
/// Panics if `n` is zero — callers validate user input first and report
/// their own error (the CLI rejects `--threads 0` before calling this).
pub fn configure_threads(n: usize) {
    assert!(n >= 1, "thread count must be at least 1");
    CONFIGURED.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// Number of hardware threads, clamped to `[1, 64]`.
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// [`configure_threads`] > `HDDPRED_THREADS` > hardware; always ≥ 1. A
/// bad environment value is ignored, not an error: it must not take the
/// pipeline down.
fn resolve_threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => std::env::var("HDDPRED_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .map_or_else(hardware_threads, |n| n.min(MAX_THREADS)),
        n => n,
    }
}

thread_local! {
    /// The pool [`ThreadPool::install`] set on this thread, if any.
    static INSTALLED: Cell<Option<ThreadPool>> = const { Cell::new(None) };
}

/// Run `run` over `chunks`, in parallel when there is more than one, and
/// concatenate the per-chunk results in submission order.
///
/// A panic in a chunk is caught, every worker is joined before the
/// merge, and the earliest failing chunk's error wins, so the same input
/// always yields the same result or the same error. On failure no
/// partial results are returned. Spawned workers run under the serial
/// pool; a single chunk runs inline under the caller's.
fn fan_out<C, R, F>(chunks: impl ExactSizeIterator<Item = C>, run: F) -> Result<Vec<R>, ParError>
where
    C: Send,
    R: Send,
    F: Fn(C) -> Vec<R> + Sync,
{
    let attempt = |(chunk, part): (usize, C)| {
        std::panic::catch_unwind(AssertUnwindSafe(|| run(part)))
            .map_err(|p| ParError::panic(chunk, &*p))
    };
    let mut chunks = chunks.enumerate();
    if chunks.len() <= 1 {
        return chunks.next().map_or(Ok(Vec::new()), attempt);
    }
    let attempt = &attempt;
    let results: Vec<Result<Vec<R>, ParError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|(chunk, part)| {
                let worker = move || ThreadPool::serial().install(|| attempt((chunk, part)));
                (chunk, scope.spawn(worker))
            })
            .collect();
        handles
            .into_iter()
            .map(|(chunk, h)| {
                h.join()
                    .unwrap_or_else(|p| Err(ParError::panic(chunk, &*p)))
            })
            .collect()
    });
    let mut out = Vec::new();
    for part in results {
        out.append(&mut part?);
    }
    Ok(out)
}

/// Unwrap an infallible combinator's result, re-raising a contained
/// panic on the submitting thread (every worker has been joined).
fn reraise<R>(result: Result<Vec<R>, ParError>) -> Vec<R> {
    match result {
        Ok(out) => out,
        #[expect(
            clippy::panic,
            reason = "re-raises a worker panic already contained by the fan-out; the try_ combinators are the no-panic API"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// A scoped fork-join pool: a worker count plus the discipline that every
/// parallel call joins all of its workers before returning and merges
/// their results in submission order.
///
/// The pool is trivially copyable — workers are scoped threads spawned
/// per call, so no state outlives a call and non-`'static` borrows (the
/// training matrix, the dataset) flow into workers without `Arc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    n_threads: usize,
}

impl ThreadPool {
    /// A pool with exactly `n_threads` workers (clamped to 64).
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is zero.
    #[must_use]
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads >= 1, "thread count must be at least 1");
        ThreadPool {
            n_threads: n_threads.min(MAX_THREADS),
        }
    }

    /// The single-threaded pool: every combinator runs the plain serial
    /// loop, spawning nothing.
    #[must_use]
    pub fn serial() -> Self {
        ThreadPool { n_threads: 1 }
    }

    /// The pool this thread should fan out on: the one
    /// [`ThreadPool::install`]ed here if any (serial inside a worker),
    /// else the process-wide configuration (override / environment /
    /// hardware).
    #[must_use]
    pub fn global() -> Self {
        INSTALLED.with(Cell::get).unwrap_or_else(|| ThreadPool {
            n_threads: resolve_threads(),
        })
    }

    /// Run `f` with `self` as this thread's [`ThreadPool::global`], then
    /// restore the previous pool, also when `f` unwinds.
    ///
    /// ```
    /// use hdd_par::ThreadPool;
    ///
    /// let n = ThreadPool::new(3).install(|| ThreadPool::global().n_threads());
    /// assert_eq!(n, 3);
    /// ```
    pub fn install<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<ThreadPool>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|cell| cell.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|cell| cell.replace(Some(self))));
        f()
    }

    /// Worker count.
    #[must_use]
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Items per chunk for `n` items: an even split across workers.
    fn chunk_len(&self, n: usize) -> usize {
        n.div_ceil(self.n_threads).max(1)
    }

    /// `0..n` cut into [`ThreadPool::chunk_len`]-sized ranges.
    fn ranges(&self, n: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
        let len = self.chunk_len(n);
        (0..n)
            .step_by(len)
            .map(move |start| start..(start + len).min(n))
    }

    /// Map `f` over `items`, returning results in item order — identical
    /// to `items.iter().map(f).collect()` whenever `f` is a pure function
    /// of its item.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` on the submitting thread (all workers
    /// are joined first — no deadlock, no abandoned chunks). Use
    /// [`ThreadPool::try_parallel_map`] to receive it as a typed error
    /// instead.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        reraise(self.try_parallel_map(items, f))
    }

    /// [`ThreadPool::parallel_map`] with panic containment.
    ///
    /// # Errors
    ///
    /// Returns [`ParError::Panic`] when `f` panicked on any item.
    pub fn try_parallel_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, ParError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let chunks = items.chunks(self.chunk_len(items.len()));
        fan_out(chunks, |part| part.iter().map(&f).collect())
    }

    /// Map `f` over the index range `0..n`, returning results in index
    /// order — the fan-out shape of per-feature work.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` on the submitting thread.
    pub fn parallel_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        reraise(fan_out(self.ranges(n), |range| range.map(&f).collect()))
    }

    /// Split `items` into at most `n_threads` contiguous chunks, apply
    /// `f` to each whole chunk, and return the per-chunk results in chunk
    /// order — the reduce-friendly shape (per-chunk accumulators merged
    /// by the caller in a fixed order keep floating-point sums stable
    /// for a given thread count). With one worker this is a single
    /// `f(items)` call; with no items, `f` is never called.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` on the submitting thread.
    pub fn parallel_for_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let chunks = items.chunks(self.chunk_len(items.len()));
        reraise(fan_out(chunks, |part| vec![f(part)]))
    }

    /// Apply `f(index, item)` to every item through an **exclusive**
    /// reference, returning results in submission order — the fan-out
    /// shape of stateful workers that each own a disjoint slice of state
    /// (the serve topology's engine shards).
    ///
    /// The items are split with `chunks_mut`, so no two workers alias. A
    /// panic is contained like [`ThreadPool::try_parallel_map`].
    /// Mutations made by `f` before a panic are kept, so a caller must
    /// treat the items as torn after an error (the serve topology is
    /// dropped and reopened from its checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`ParError::Panic`] when `f` panicked on any item.
    pub fn try_parallel_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Result<Vec<R>, ParError>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let len = self.chunk_len(items.len());
        let chunks = items.chunks_mut(len).enumerate();
        fan_out(chunks, |(c, part)| {
            let base = c * len;
            part.iter_mut()
                .enumerate()
                .map(|(i, t)| f(base + i, t))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_of(err: ParError) -> (usize, String) {
        match err {
            ParError::Panic { chunk, message } => (chunk, message),
            other => panic!("expected Panic, got {other}"),
        }
    }

    #[test]
    fn map_preserves_submission_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.parallel_map(&items, |&x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn map_range_matches_serial() {
        let expect: Vec<usize> = (0..57).map(|i| i * i).collect();
        for threads in [1, 4, 7] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.parallel_map_range(57, |i| i * i), expect);
        }
    }

    #[test]
    fn chunk_results_arrive_in_chunk_order() {
        let items: Vec<u32> = (0..100).collect();
        let pool = ThreadPool::new(4);
        let sums = pool.parallel_for_chunks(&items, |part| part.iter().sum::<u32>());
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<u32>(), items.iter().sum::<u32>());
        // Chunks are contiguous and ordered: first chunk holds 0..25.
        assert_eq!(sums[0], (0..25).sum::<u32>());
    }

    #[test]
    fn chunk_boundaries_are_an_even_split() {
        let items: Vec<u8> = vec![0; 100];
        let lens = |threads| ThreadPool::new(threads).parallel_for_chunks(&items, <[u8]>::len);
        assert_eq!(lens(1), vec![100]);
        assert_eq!(lens(3), vec![34, 34, 32]);
        assert_eq!(
            lens(8),
            vec![13; 7].into_iter().chain([9]).collect::<Vec<_>>()
        );
        assert_eq!(lens(64), vec![2; 50], "ceil(100/64) = 2 items per chunk");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ThreadPool::new(8);
        assert_eq!(pool.parallel_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(pool.parallel_map(&[7u8], |&x| x + 1), vec![8]);
        assert_eq!(
            pool.parallel_for_chunks(&[] as &[u8], |c| c.len()),
            Vec::<usize>::new()
        );
        assert_eq!(pool.parallel_map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(
            pool.try_parallel_map_mut(&mut [] as &mut [u8], |_, &mut x| x),
            Ok(Vec::new())
        );
    }

    #[test]
    fn serial_pool_never_forks() {
        // Observable via thread ids: every call runs on this thread.
        let here = std::thread::current().id();
        let pool = ThreadPool::serial();
        let ids = pool.parallel_map(&[1, 2, 3], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == here));
        let ids = pool.parallel_map_range(3, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == here));
        let ids = pool
            .try_parallel_map_mut(&mut [1, 2, 3], |_, _| std::thread::current().id())
            .unwrap();
        assert!(ids.iter().all(|&id| id == here));
    }

    #[test]
    fn parallel_pool_runs_off_thread() {
        let here = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let ids = ThreadPool::new(4).parallel_map(&items, |_| std::thread::current().id());
        assert!(ids.iter().any(|&id| id != here));
    }

    #[test]
    fn resolution_precedence() {
        assert!(ThreadPool::global().n_threads() >= 1);
        configure_threads(2);
        assert_eq!(ThreadPool::global().n_threads(), 2);
        configure_threads(10_000);
        assert_eq!(ThreadPool::global().n_threads(), MAX_THREADS);
        configure_threads(1);
    }

    #[test]
    fn nested_fan_outs_run_inline_on_their_worker() {
        let outer: Vec<u32> = (0..8).collect();
        let inner: Vec<u32> = (0..16).collect();
        let here = std::thread::current().id();
        let seen = ThreadPool::new(4).parallel_map(&outer, |_| {
            let worker = std::thread::current().id();
            let ids = ThreadPool::global().parallel_map(&inner, |_| std::thread::current().id());
            (worker, ids)
        });
        for (worker, ids) in seen {
            assert_ne!(worker, here, "the outer call forks");
            assert!(
                ids.iter().all(|&id| id == worker),
                "inner items ran off the worker"
            );
        }
    }

    #[test]
    fn install_restores_the_previous_pool() {
        ThreadPool::new(3).install(|| {
            let inner = ThreadPool::new(5).install(|| ThreadPool::global().n_threads());
            assert_eq!(inner, 5);
            assert_eq!(ThreadPool::global().n_threads(), 3, "after return");
            let caught = std::panic::catch_unwind(|| {
                ThreadPool::new(7).install(|| panic!("inside install"));
            });
            assert!(caught.is_err());
            assert_eq!(ThreadPool::global().n_threads(), 3, "after a panic");
        });
    }

    #[test]
    fn a_one_chunk_call_keeps_the_installed_pool() {
        let here = std::thread::current().id();
        let seen = ThreadPool::new(4).install(|| {
            ThreadPool::global().parallel_map(&[()], |()| {
                (
                    std::thread::current().id(),
                    ThreadPool::global().n_threads(),
                )
            })
        });
        assert_eq!(seen, vec![(here, 4)]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn pool_constructors() {
        assert_eq!(ThreadPool::serial().n_threads(), 1);
        assert_eq!(ThreadPool::new(2).n_threads(), 2);
        assert!(ThreadPool::global().n_threads() >= 1);
        assert_eq!(ThreadPool::new(1_000_000).n_threads(), MAX_THREADS);
        assert!((1..=MAX_THREADS).contains(&hardware_threads()));
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let err = pool
                .try_parallel_map(&items, |&x| {
                    assert!(x != 63, "injected failure on 63");
                    x * 2
                })
                .unwrap_err();
            assert!(err.to_string().contains("worker panicked"), "{err}");
            let (chunk, message) = panic_of(err);
            assert!(message.contains("injected failure"), "{message}");
            assert_eq!(chunk, if threads == 1 { 0 } else { 2 });
        }
    }

    #[test]
    fn pool_survives_a_panicking_call() {
        // No poisoned state: the same pool value works fine right after
        // a call whose closure panicked.
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..64).collect();
        let _ = pool.try_parallel_map(&items, |_| -> u32 { panic!("boom") });
        assert_eq!(
            pool.parallel_map(&items, |&x| x + 1),
            (1..65).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn first_panicking_chunk_wins_deterministically() {
        // Chunks 1 and 3 both panic; the reported chunk must always be
        // the earliest in submission order, regardless of thread timing.
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..8).collect();
        for _ in 0..20 {
            let err = pool
                .try_parallel_map(&items, |&i| {
                    if i == 3 || i == 7 {
                        panic!("unit {i} failed");
                    }
                    i
                })
                .unwrap_err();
            let (chunk, message) = panic_of(err);
            assert_eq!(chunk, 1);
            assert!(message.contains("unit 3"), "{message}");
        }
    }

    #[test]
    fn non_string_payload_is_reported_as_such() {
        let err = ThreadPool::serial()
            .try_parallel_map(&[1], |_| -> u8 { std::panic::panic_any(42u32) })
            .unwrap_err();
        assert_eq!(panic_of(err), (0, "<non-string panic payload>".to_string()));
    }

    #[test]
    #[should_panic(expected = "worker panicked in chunk 3")]
    fn infallible_map_reraises_on_submitting_thread() {
        let items: Vec<u32> = (0..64).collect();
        let _ = ThreadPool::new(4).parallel_map(&items, |&x| -> u32 {
            assert!(x < 50, "kaboom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "chunk holding 80 dies")]
    fn chunked_panic_is_reraised_too() {
        let items: Vec<u32> = (0..100).collect();
        let _ = ThreadPool::new(4).parallel_for_chunks(&items, |part| {
            assert!(!part.contains(&80), "chunk holding 80 dies");
            part.len()
        });
    }

    #[test]
    fn fresh_token_lets_work_through() {
        assert_eq!(CancelToken::new().check(), Ok(()));
    }

    #[test]
    fn cancelled_token_stops_the_call() {
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(token.check(), Err(ParError::Cancelled));
    }

    #[test]
    fn expired_deadline_is_a_typed_error() {
        let token = CancelToken::with_budget(Duration::ZERO);
        assert_eq!(token.check(), Err(ParError::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_does_not_interrupt() {
        let token = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(token.check().is_ok());
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let token = CancelToken::with_budget(Duration::ZERO);
        token.cancel();
        assert_eq!(token.check(), Err(ParError::Cancelled));
    }

    #[test]
    fn clones_observe_cancellation() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert_eq!(clone.check(), Err(ParError::Cancelled));
    }

    #[test]
    fn par_error_display() {
        assert_eq!(ParError::Cancelled.to_string(), "cancelled");
        assert_eq!(ParError::DeadlineExceeded.to_string(), "deadline exceeded");
        let p = ParError::Panic {
            chunk: 2,
            message: "boom".to_string(),
        };
        assert_eq!(p.to_string(), "worker panicked in chunk 2: boom");
    }

    #[test]
    fn map_mut_mutates_in_place_and_matches_serial() {
        let mut parallel_items: Vec<u64> = (0..97).collect();
        let mut serial_items = parallel_items.clone();
        let step = |i: usize, v: &mut u64| {
            *v = v.wrapping_mul(31).wrapping_add(i as u64);
            *v % 7
        };
        let got = ThreadPool::new(4)
            .try_parallel_map_mut(&mut parallel_items, step)
            .unwrap();
        let want = ThreadPool::serial()
            .try_parallel_map_mut(&mut serial_items, step)
            .unwrap();
        assert_eq!(got, want, "results must be submission-ordered");
        assert_eq!(parallel_items, serial_items, "mutations must agree");
    }

    #[test]
    fn map_mut_panic_is_contained_and_earliest_wins() {
        let mut items: Vec<u32> = (0..16).collect();
        let err = ThreadPool::new(4)
            .try_parallel_map_mut(&mut items, |_, v| {
                assert!(*v != 6 && *v != 13, "unit {v} dies");
                *v += 100;
                *v
            })
            .unwrap_err();
        let (chunk, message) = panic_of(err);
        assert_eq!(chunk, 1);
        assert!(message.contains("unit 6"), "{message}");
        // Chunks without a panicking unit still ran to completion.
        assert_eq!(items[0], 100);
        assert_eq!(items[11], 111);
    }
}
