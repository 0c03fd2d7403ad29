//! Deterministic row-sharding for batch passes, and the fork-join that
//! splits one training chunk between two threads.
//!
//! Batched dataset traversals split the rows into **fixed-size chunks**
//! (independent of how many threads run) and reduce the per-chunk results
//! in chunk-index order. Because each chunk is processed sequentially and
//! the reduction order is fixed, the result is bit-identical no matter how
//! many threads execute the chunks — seeds and test thresholds do not move
//! when the thread count changes.
//!
//! **Fan-out** ([`map_indexed_scoped`], and [`map_chunks`] over the chunk
//! grid) spawns its threads with `std::thread::scope` on every call. Its
//! callers are the store's ingest waves and network batches of more than
//! one chunk, where each job parses a megabyte or scores a whole
//! 1,024-row chunk, so a spawn of some tens of microseconds is small
//! against the job, and the scope gives the borrow guarantee for free.
//!
//! **Fork-join** ([`Split`]) is where a spawn per call would not pay. The
//! training objective walks the chunks one after another and splits each
//! phase of a chunk's evaluation into two halves, so that every ordered
//! sum keeps its order (see `CrossEntropyObjective`'s docs) and the bits
//! stay the sequential ones. An evaluation over a paper-scale training set
//! (1000 tuples, one chunk) takes about 60 µs and BFGS makes hundreds per
//! fit, so a training run spawns one scoped helper for all of them
//! ([`Split::serve`]); the helper spins on a one-request slot between
//! halves, a hand-off of well under a microsecond, and is joined when the
//! run ends.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Rows per chunk. Must stay constant across thread counts (it defines the
/// reduction grouping, and therefore the floating-point result).
pub(crate) const CHUNK_ROWS: usize = 1024;

/// Number of chunks a dataset of `rows` rows splits into.
pub(crate) fn n_chunks(rows: usize) -> usize {
    rows.div_ceil(CHUNK_ROWS)
}

/// Row range of chunk `c`.
pub(crate) fn chunk_range(c: usize, rows: usize) -> Range<usize> {
    let start = c * CHUNK_ROWS;
    start..rows.min(start + CHUNK_ROWS)
}

/// The auto thread count: the hardware's available parallelism, capped
/// at 8. A fan-out runs on at most this many threads, the caller
/// included; below 2, a [`Split`] spawns no helper and runs both halves
/// inline.
///
/// Detected once per process. `available_parallelism` reads cgroup files
/// on Linux, tens of microseconds per call, and [`resolve_threads`] is
/// called on every batch.
fn auto_threads() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)
    })
}

/// Resolves a requested thread count (`0` = auto) against the hardware and
/// the number of chunks available. A result of `1` means "run inline on
/// the caller's thread"; anything larger is how many threads, the caller
/// included, a fan-out runs on. Auto mode uses the available parallelism
/// capped at 8, detected once per process, so resolving is cheap.
///
/// Public so fan-out clients (the store's parallel ingest) can size their
/// waves of jobs by the thread count they will actually get.
pub fn resolve_threads(requested: usize, chunks: usize) -> usize {
    let t = if requested == 0 {
        auto_threads()
    } else {
        requested
    };
    t.clamp(1, chunks.max(1))
}

thread_local! {
    /// Per-thread cache of reusable f64 buffers (see [`with_scratch`]).
    static SCRATCH: std::cell::RefCell<Vec<Vec<f64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with `sizes.len()` zeroed `f64` buffers borrowed from a
/// thread-local cache, so chunk jobs reuse scratch across the chunks a
/// thread runs instead of heap-allocating per chunk — on fan-out threads
/// and on the inline single-threaded path alike.
pub(crate) fn with_scratch<R>(sizes: &[usize], f: impl FnOnce(&mut [Vec<f64>]) -> R) -> R {
    let mut bufs: Vec<Vec<f64>> = SCRATCH.with(|c| {
        let mut cache = c.borrow_mut();
        sizes
            .iter()
            .map(|&s| {
                let mut b = cache.pop().unwrap_or_default();
                b.clear();
                b.resize(s, 0.0);
                b
            })
            .collect()
    });
    let result = f(&mut bufs);
    SCRATCH.with(|c| {
        let mut cache = c.borrow_mut();
        // Bounded cache: a few chunk-sized buffers per thread, no more.
        for b in bufs {
            if cache.len() < 8 {
                cache.push(b);
            }
        }
    });
    result
}

thread_local! {
    /// Location of the most recent panic on this thread, recorded by the
    /// hook below. Read by [`map_indexed_scoped`] right after it catches a
    /// job's unwind, so the re-raised panic can name the original
    /// file:line instead of the collection point.
    static LAST_PANIC_LOCATION: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

static LOCATION_HOOK: std::sync::Once = std::sync::Once::new();

/// Installs (once, process-wide) a panic hook that records the panic
/// location in a thread-local before delegating to the previous hook.
/// Captured fan-out job panics read it back; panics elsewhere are
/// unaffected.
fn install_location_hook() {
    LOCATION_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let loc = info.location().map(|l| l.to_string());
            LAST_PANIC_LOCATION.with(|slot| *slot.borrow_mut() = loc);
            prev(info);
        }));
    });
}

/// Renders a caught panic payload back into the original message: the two
/// payload types `panic!` produces (`&str` and `String`), with a fallback
/// for exotic `panic_any` payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Maps `work` over the fixed row chunks of a dataset and returns the
/// per-chunk results **in chunk order** regardless of which thread
/// computed which chunk — [`map_indexed_scoped`] over the chunk grid.
///
/// `threads` is a requested thread count (`0` = auto, see
/// [`resolve_threads`]); with one thread (or one chunk) everything runs
/// inline on the caller's thread.
pub(crate) fn map_chunks<'env, T, F>(rows: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send + 'env,
    F: Fn(usize, Range<usize>) -> T + Send + Sync + 'env,
{
    map_indexed_scoped(n_chunks(rows), threads, move |c| {
        work(c, chunk_range(c, rows))
    })
}

/// Maps `work` over the job indices `0..jobs` and returns the results
/// **in index order** regardless of which thread computed which job.
/// `work` may borrow the caller's locals (a `nr_tabular::DatasetView`, a
/// model reference) directly. The primitive behind `map_chunks`; the
/// store's parallel ingest submits its parse and dictionary jobs through
/// it directly.
///
/// `threads` is a requested thread count (`0` = auto, see
/// [`resolve_threads`]). With one resolved thread (or one job) everything
/// runs inline on the caller's thread. Otherwise the caller and up to
/// `threads − 1` scoped threads take job indices from one shared counter;
/// if a spawn fails, the threads that did start do the work. A panicking
/// job re-raises deterministically (lowest index first) at the collection
/// point, after every other job has finished.
pub fn map_indexed_scoped<'env, T, F>(jobs: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send + 'env,
    F: Fn(usize) -> T + Send + Sync + 'env,
{
    let threads = resolve_threads(threads, jobs);
    if threads <= 1 {
        return (0..jobs).map(work).collect();
    }

    install_location_hook();
    let next = AtomicUsize::new(0);
    // Runs jobs until the counter passes the last one. Each job catches
    // its own unwind, so its panic payload (and the location the hook
    // recorded) travel back to the caller and the other jobs still run.
    let take_jobs = || {
        let mut done = Vec::new();
        loop {
            let j = next.fetch_add(1, Ordering::Relaxed);
            if j >= jobs {
                return done;
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(j)))
                .map_err(|payload| {
                    let msg = panic_message(payload.as_ref());
                    match LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take()) {
                        Some(loc) => format!("{msg}, at {loc}"),
                        None => msg,
                    }
                });
            done.push((j, result));
        }
    };
    let mut results: Vec<(usize, Result<T, String>)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map_while(|k| {
                std::thread::Builder::new()
                    .name(format!("nr-nn-fan-out-{k}"))
                    .spawn_scoped(scope, take_jobs)
                    .ok()
            })
            .collect();
        let mut results = take_jobs();
        for helper in helpers {
            results.extend(helper.join().expect("fan-out jobs catch their own panics"));
        }
        results
    });
    results.sort_unstable_by_key(|&(j, _)| j);
    // Re-raise the first (lowest-index, so deterministic) job panic with
    // its original message and location.
    results
        .into_iter()
        .map(|(j, r)| r.unwrap_or_else(|msg| panic!("fan-out job {j} panicked: {msg}")))
        .collect()
}

/// The name of a [`Split`]'s helper thread.
const HELPER_NAME: &str = "nr-nn-split";

/// The states of a [`Split`]'s slot word; request `k` posted is `POSTED + k`.
const OFF: u8 = 0; // no helper: `join` runs both halves on the caller
const IDLE: u8 = 1; // the helper spins, nothing posted
const RUNNING: u8 = 2; // the helper runs the posted half
const DONE: u8 = 3; // the half returned; its caller collects the result
const POSTED: u8 = 4;

/// A two-party fork-join whose second party is one helper thread, alive
/// only while [`Split::serve`] runs.
///
/// A half is a request, a small number that the helper hands to the
/// function it serves with, so nothing of a caller's frame crosses
/// threads: the two parties share only what that function can reach.
///
/// `slot` orders the hand-off. The caller's post (Release) publishes its
/// writes to the helper's `POSTED → RUNNING` exchange (Acquire); the
/// helper's `DONE` store (Release) publishes the half's writes to the
/// caller's `DONE` load (Acquire). The slot has a cache line of its own,
/// so the helper's spin reads nothing else the caller writes.
#[repr(align(128))]
pub(crate) struct Split<T> {
    slot: AtomicU8,
    /// The result of the helper's last half, or its panic.
    result: Mutex<Option<std::thread::Result<T>>>,
}

/// One step of a wait: a spin, or, after `1 << 12` spins, a yield, so
/// that on an oversubscribed host the waiter lets whoever it waits for
/// run.
fn snooze(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins > 1 << 12 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

impl<T: Send> Split<T> {
    pub(crate) fn new() -> Self {
        Split {
            slot: AtomicU8::new(OFF),
            result: Mutex::new(None),
        }
    }

    /// Runs `f` while one scoped helper thread runs `half(k)` for each
    /// request `k` that [`Split::join`] posts, then stops the helper and
    /// joins it, also when `f` panics. On a single-core host, if the spawn
    /// fails, or while another `serve` holds the split, `f` runs with no
    /// helper of its own.
    pub(crate) fn serve<R>(&self, half: impl Fn(u8) -> T + Sync, f: impl FnOnce() -> R) -> R {
        if auto_threads() < 2
            || self
                .slot
                .compare_exchange(OFF, IDLE, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return f();
        }
        std::thread::scope(|scope| {
            let Ok(helper) = std::thread::Builder::new()
                .name(HELPER_NAME.to_string())
                .spawn_scoped(scope, || self.help(&half))
            else {
                self.stop();
                return f();
            };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            self.stop();
            helper
                .join()
                .expect("the helper catches its halves' panics");
            r.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        })
    }

    /// Turns the helper away, once no half is in flight.
    fn stop(&self) {
        let mut spins = 0;
        while self
            .slot
            .compare_exchange(IDLE, OFF, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            snooze(&mut spins);
        }
    }

    /// The helper's body: runs posted halves until the slot reads `OFF`.
    fn help(&self, half: &impl Fn(u8) -> T) {
        let mut spins = 0;
        loop {
            match self.slot.load(Ordering::Acquire) {
                OFF => return,
                posted @ POSTED.. => {
                    if self
                        .slot
                        .compare_exchange(posted, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            half(posted - POSTED)
                        }));
                        *self.result.lock().expect(RESULT_LOCK) = Some(r);
                        self.slot.store(DONE, Ordering::Release);
                    }
                    spins = 0;
                }
                _ => snooze(&mut spins),
            }
        }
    }

    /// Runs `a` on the caller and `half(b)`, request `b`, on the helper,
    /// and returns both results: `half` must be the function the helper
    /// serves with, since the caller runs it itself when there is no helper
    /// (outside [`Split::serve`], or while another caller holds the slot)
    /// and when the helper has not picked `b` up by the time `a` returns.
    /// So the caller never waits for a helper that is not running its half.
    ///
    /// A panic in either half re-raises here with its own payload, after
    /// the other half has returned (`a`'s panic wins if both panic); the
    /// helper keeps serving.
    pub(crate) fn join<RA>(
        &self,
        a: impl FnOnce() -> RA,
        b: u8,
        half: impl FnOnce(u8) -> T,
    ) -> (RA, T) {
        let posted = POSTED + b;
        if self
            .slot
            .compare_exchange(IDLE, posted, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            return (a(), half(b));
        }
        let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));
        let rb = if self
            .slot
            .compare_exchange(posted, IDLE, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            None
        } else {
            let mut spins = 0;
            while self.slot.load(Ordering::Acquire) != DONE {
                snooze(&mut spins);
            }
            let r = self.result.lock().expect(RESULT_LOCK).take();
            self.slot.store(IDLE, Ordering::Release);
            Some(r.expect("the helper stores its half's result"))
        };
        let ra = ra.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        let rb = match rb {
            None => half(b),
            Some(r) => r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
        };
        (ra, rb)
    }
}

/// Nothing panics while holding a [`Split`]'s result.
const RESULT_LOCK: &str = "no panic while holding the split's result";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_rows_exactly() {
        for &rows in &[0usize, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 5000] {
            let chunks = n_chunks(rows);
            let mut covered = 0;
            for c in 0..chunks {
                let r = chunk_range(c, rows);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, rows);
        }
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(4, 2), 2);
        assert_eq!(resolve_threads(1, 100), 1);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(3, 0), 1);
    }

    #[test]
    fn auto_threads_are_the_capped_parallelism() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto_threads(), cores.clamp(1, 8));
        assert_eq!(resolve_threads(0, usize::MAX), auto_threads());
        assert_eq!(resolve_threads(0, 1), 1);
    }

    #[test]
    fn results_come_back_in_chunk_order() {
        let rows = CHUNK_ROWS * 5 + 17;
        for threads in [1, 2, 8] {
            let got = map_chunks(rows, threads, |c, range| (c, range.len()));
            let indices: Vec<usize> = got.iter().map(|&(c, _)| c).collect();
            assert_eq!(indices, (0..n_chunks(rows)).collect::<Vec<_>>());
            let total: usize = got.iter().map(|&(_, len)| len).sum();
            assert_eq!(total, rows);
        }
    }

    #[test]
    fn indexed_results_come_back_in_order() {
        for threads in [1, 2, 8] {
            let got = map_indexed_scoped(23, threads, |j| j * j);
            assert_eq!(got, (0..23).map(|j| j * j).collect::<Vec<_>>());
        }
        assert_eq!(map_indexed_scoped(0, 4, |j| j), Vec::<usize>::new());
        assert_eq!(map_indexed_scoped(1, 4, |j| j), vec![0]);
    }

    #[test]
    fn repeated_fan_outs_join_their_threads() {
        // Many fan-out calls in a row must not accumulate threads: each
        // call joins its scoped threads before it returns.
        for _ in 0..20 {
            let got = map_chunks(CHUNK_ROWS * 3, 4, |c, _| c);
            assert_eq!(got, vec![0, 1, 2]);
        }
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        // Far more jobs than threads: the threads take turns on them.
        let got = map_chunks(CHUNK_ROWS * (threads * 4), 8, |c, _| c);
        assert_eq!(got.len(), threads * 4);
    }

    #[test]
    fn fan_out_job_panic_reports_its_own_message() {
        // A panicking job must surface its original message (and job
        // index) at the collection point.
        let err = std::panic::catch_unwind(|| {
            map_indexed_scoped(8, 4, |j| {
                if j == 5 {
                    panic!("job five exploded deliberately");
                }
                j
            })
        })
        .expect_err("the job's panic must propagate to the caller");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("job five exploded deliberately"),
            "original message lost: {msg}"
        );
        assert!(msg.contains("fan-out job 5"), "job index lost: {msg}");
        assert!(msg.contains("par.rs"), "panic location lost: {msg}");
        // Later calls still work after a panicking job.
        assert_eq!(map_indexed_scoped(3, 4, |j| j), vec![0, 1, 2]);
    }

    #[test]
    fn earliest_job_panic_wins_deterministically() {
        for _ in 0..5 {
            let err = std::panic::catch_unwind(|| {
                map_indexed_scoped(8, 4, |j| {
                    if j >= 4 {
                        panic!("job {j} failed");
                    }
                    j
                })
            })
            .expect_err("must propagate");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("fan-out job 4") && msg.contains("job 4 failed"),
                "expected the lowest-index panic, got: {msg}"
            );
        }
    }

    #[test]
    fn scoped_jobs_borrow_the_callers_frame() {
        // The whole point of `map_indexed_scoped`: non-'static captures.
        let data: Vec<u64> = (0..10_000).collect();
        let slice = &data[..];
        for threads in [1, 2, 8] {
            let sums = map_indexed_scoped(7, threads, |j| {
                slice[j * 1000..(j + 1) * 1000].iter().sum::<u64>()
            });
            let want: Vec<u64> = (0..7)
                .map(|j| slice[j * 1000..(j + 1) * 1000].iter().sum())
                .collect();
            assert_eq!(sums, want);
        }
    }

    #[test]
    fn scoped_panic_still_waits_for_the_other_jobs() {
        // A panicking scoped job must re-raise only after every sibling
        // finished touching the borrowed frame.
        let data = vec![1u32; 64];
        let err = std::panic::catch_unwind(|| {
            let slice = &data[..];
            map_indexed_scoped(8, 4, |j| {
                if j == 2 {
                    panic!("scoped job two exploded");
                }
                slice.iter().sum::<u32>()
            })
        })
        .expect_err("the scoped panic must propagate");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("scoped job two exploded"), "{msg}");
        assert!(msg.contains("fan-out job 2"), "{msg}");
        // Later calls still work, inline and fanned out.
        assert_eq!(map_indexed_scoped(3, 4, |j| j), vec![0, 1, 2]);
    }

    #[test]
    fn a_split_runs_its_second_half_on_the_helper_only_while_served() {
        let here = std::thread::current().id();
        let data: Vec<u64> = (0..10_000).collect();
        let started = std::sync::atomic::AtomicBool::new(false);
        // The helper's half borrows the frame: request `k` sums a tenth.
        let half = |k: u8| {
            started.store(true, Ordering::SeqCst);
            let k = usize::from(k);
            let sum = data[k * 1000..(k + 1) * 1000].iter().sum::<u64>();
            (sum, std::thread::current().id())
        };
        let want = |k: usize| data[k * 1000..(k + 1) * 1000].iter().sum::<u64>();
        let split = Split::new();
        // No helper: both halves run on the caller.
        assert_eq!(split.join(|| 1, 3, half), (1, (want(3), here)));
        let split_ran = split.serve(half, || {
            // `a` waits (up to a bound) for `b` to start, so `b` runs on
            // the helper unless the caller took it back. Retried, since
            // the host may delay the helper.
            (0..20u8).any(|k| {
                started.store(false, Ordering::SeqCst);
                let b = k % 10;
                let (a, (sum, thread)) = split.join(
                    || {
                        let t = std::time::Instant::now();
                        while !started.load(Ordering::SeqCst)
                            && t.elapsed() < std::time::Duration::from_millis(200)
                        {
                            std::thread::yield_now();
                        }
                        k
                    },
                    b,
                    half,
                );
                assert_eq!((a, sum), (k, want(usize::from(b))));
                thread != here
            })
        });
        if auto_threads() >= 2 {
            assert!(split_ran, "every second half ran on the caller");
        }
        // Stopped: the caller runs both halves again, also after `f`
        // panicked.
        assert_eq!(split.join(|| 2, 4, half), (2, (want(4), here)));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            split.serve(half, || panic!("the served run exploded"))
        }))
        .expect_err("the run's panic must propagate");
        assert_eq!(panic_message(err.as_ref()), "the served run exploded");
        assert_eq!(split.join(|| 5, 6, half), (5, (want(6), here)));
    }

    #[test]
    fn concurrent_callers_do_not_cross_wires() {
        // Four threads fan out at once; each must get exactly its own
        // chunk results.
        let handles: Vec<_> = (0..4)
            .map(|k| {
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let got = map_chunks(CHUNK_ROWS * 4, 4, move |c, _| (k, c));
                        assert_eq!(got, (0..4).map(|c| (k, c)).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
