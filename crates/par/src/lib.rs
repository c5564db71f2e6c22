//! # slicer-par
//!
//! A deterministic fixed-worker fan-out for the Slicer reproduction: the
//! one sanctioned way to use OS threads in protocol code.
//!
//! Every other crate in the workspace is forbidden from touching
//! `std::thread` by the `det.thread` lint rule, because ad-hoc threading
//! breaks the repo's core invariant — same-seed runs must produce
//! byte-identical protocol and telemetry transcripts. This crate is
//! allowlisted *by construction* in `slicer-lint` because its API cannot
//! express a nondeterministic result:
//!
//! * **Ordered join.** [`Pool::par_map`] and [`Pool::par_chunks`] return
//!   results in submission order regardless of completion order. Workers
//!   pull task indexes from a shared atomic counter (steal-free: a task is
//!   executed exactly once, by whichever worker pulls it) and tag each
//!   result with its index; the caller reassembles by index.
//! * **Caller-thread telemetry.** All `par.*` counters and spans are
//!   emitted from the submitting thread, before and after the fan-out.
//!   Workers never touch the telemetry handle, so sink transcripts carry
//!   the same events in the same order at any pool size.
//! * **Pure tasks.** The task closure only gets `&T` and returns an owned
//!   `R`; with a deterministic closure the merged output is a pure
//!   function of the input slice, independent of scheduling.
//!
//! The worker count comes from [`Pool::configured`] (the `SLICER_THREADS`
//! environment variable, else available parallelism capped at 8) or an
//! explicit [`Pool::new`] — determinism tests run the same seed at pool
//! sizes 1, 2 and 8 and require byte-identical transcripts.
//!
//! # Examples
//!
//! ```
//! use slicer_par::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use slicer_telemetry::TelemetryHandle;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fan-outs below this size run inline on the caller thread: spawning OS
/// threads costs more than the work saved.
const INLINE_THRESHOLD: usize = 4;

/// A deterministic fixed-worker thread pool with ordered join.
///
/// Cheap to construct (workers are scoped per call, not persistent), so
/// protocol actors hold one per instance and clone-free sharing is not
/// needed.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
    telemetry: TelemetryHandle,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::configured()
    }
}

impl Pool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// A single-worker pool: every `par_map` runs inline on the caller
    /// thread.
    pub fn single() -> Self {
        Pool::new(1)
    }

    /// The worker count the environment asks for: `SLICER_THREADS` when
    /// set to a positive integer, otherwise the machine's available
    /// parallelism capped at 8.
    ///
    /// Read per call (no caching), so tests can vary the variable.
    pub fn configured() -> Self {
        Pool::new(configured_workers())
    }

    /// Installs a telemetry context; `par.*` counters and the `par.map`
    /// span are recorded through it **from the caller thread only**, so
    /// transcripts are identical at any worker count. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry context, for callers that record their own
    /// spans around work they fan out over this pool.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The fixed worker count of this pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every element and returns the results in submission
    /// order, regardless of which worker finished which task first.
    ///
    /// Emits one `par.map` span (attribute `tasks`) plus the `par.maps`
    /// and `par.tasks` counters — all from the calling thread, so the
    /// telemetry transcript does not depend on the worker count.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut span = self.telemetry.span("par.map");
        span.attr("tasks", items.len());
        self.telemetry.count("par.maps", 1);
        self.telemetry.count("par.tasks", items.len() as u64);
        self.run(items, f)
    }

    /// [`Pool::par_map`] over contiguous chunks of `chunk` elements: `f`
    /// maps each chunk to a vector, and the per-chunk outputs are
    /// concatenated in chunk order.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn par_chunks<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> Vec<R> + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let chunks: Vec<&[T]> = items.chunks(chunk).collect();
        let mut span = self.telemetry.span("par.map");
        span.attr("tasks", chunks.len());
        self.telemetry.count("par.maps", 1);
        self.telemetry.count("par.tasks", chunks.len() as u64);
        self.run(&chunks, |c| f(c)).into_iter().flatten().collect()
    }

    /// The telemetry-silent fan-out shared by the public entry points:
    /// ordered join, no events. Exposed for callers (like the recursive
    /// root-factor tree) that fan out repeatedly under one already-open
    /// span and must not flood the transcript.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 || items.len() < INLINE_THRESHOLD {
            return items.iter().map(f).collect();
        }

        // Steal-free work pulling: each worker repeatedly claims the next
        // unclaimed index. Assignment of tasks to workers is scheduling-
        // dependent, but every result is tagged with its submission index,
        // so the merged output is not.
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            got.push((i, f(item)));
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });

        // Ordered join: place each tagged result at its submission index.
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for part in parts {
            for (i, r) in part {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every submitted index yields exactly one result"))
            .collect()
    }
}

/// The worker count [`Pool::configured`] resolves to.
pub fn configured_workers() -> usize {
    if let Ok(v) = std::env::var("SLICER_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_telemetry::{LogicalClock, MemorySink};
    use std::sync::Arc;

    #[test]
    fn results_are_in_submission_order() {
        let pool = Pool::new(8);
        let items: Vec<u64> = (0..1000).collect();
        // Uneven task costs so completion order differs from submission
        // order: the join must still be ordered.
        let out = pool.par_map(&items, |&x| {
            let mut acc = x;
            for _ in 0..(x % 97) * 50 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        assert_eq!(out.len(), items.len());
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, items[i]);
        }
    }

    #[test]
    fn every_pool_size_agrees() {
        let items: Vec<u64> = (0..257).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = Pool::new(workers);
            assert_eq!(
                pool.par_map(&items, |&x| x * x + 1),
                reference,
                "pool size {workers}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = Pool::new(4);
        assert!(pool.par_map(&[] as &[u8], |&b| b).is_empty());
        assert_eq!(pool.par_map(&[7u8], |&b| b + 1), vec![8]);
    }

    #[test]
    fn par_chunks_concatenates_in_chunk_order() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..103).collect();
        let out = pool.par_chunks(&items, 10, |c| c.iter().map(|&x| x * 2).collect());
        let want: Vec<u32> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        Pool::new(2).par_chunks(&[1u8], 0, |c| c.to_vec());
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert_eq!(Pool::single().workers(), 1);
    }

    #[test]
    fn telemetry_transcript_is_worker_count_independent() {
        let transcript = |workers: usize| {
            let sink = Arc::new(MemorySink::new());
            let handle =
                TelemetryHandle::with(Arc::new(LogicalClock::default()), sink.clone() as _);
            let mut pool = Pool::new(workers);
            pool.set_telemetry(handle);
            let items: Vec<u64> = (0..100).collect();
            let out = pool.par_map(&items, |&x| x + 1);
            assert_eq!(out[99], 100);
            sink.transcript()
        };
        let t1 = transcript(1);
        assert_eq!(t1, transcript(2));
        assert_eq!(t1, transcript(8));
        assert!(t1.contains("\"name\":\"par.map\""));
        assert!(t1.contains("\"tasks\":100"));
    }

    #[test]
    fn run_is_telemetry_silent() {
        let sink = Arc::new(MemorySink::new());
        let handle = TelemetryHandle::with(Arc::new(LogicalClock::default()), sink.clone() as _);
        let mut pool = Pool::new(4);
        pool.set_telemetry(handle);
        let items: Vec<u64> = (0..64).collect();
        let out = pool.run(&items, |&x| x);
        assert_eq!(out, items);
        assert!(sink.is_empty(), "run() must not emit events");
    }
}
