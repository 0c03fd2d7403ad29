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
//! **Fork-join** ([`join`]) is the one place where a spawn would not pay.
//! The training objective walks the chunks one after another and splits
//! each phase of a chunk's evaluation into two halves, one on the caller
//! and one on a *session* thread, so that every ordered sum keeps its
//! order (see `CrossEntropyObjective`'s docs) and the bits stay the
//! sequential ones. An evaluation over a paper-scale training set (1000
//! tuples, one chunk) takes about 100 µs and BFGS makes hundreds per fit,
//! so the session spins on a one-job slot between halves, a hand-off of
//! well under a microsecond, and parks once training stops joining.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

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
/// included; below 2, [`join`] has no session and runs both halves inline.
///
/// Detected once per process. `available_parallelism` reads cgroup files
/// on Linux, tens of microseconds per call, and [`resolve_threads`] is
/// called on every batch.
fn pool_size() -> usize {
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
        pool_size()
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
        .map(|(j, r)| r.unwrap_or_else(|msg| panic!("worker-pool job {j} panicked: {msg}")))
        .collect()
}

/// A second half of [`join`], lifetime-erased to sit in the session slot.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pretends [`join`]'s second half outlives the caller's frame so it can
/// sit in the `'static` session slot.
///
/// # Safety contract
///
/// The caller must not return or unwind past the borrowed data until the
/// erased closure has run **and dropped its captures**. [`join`] upholds
/// this by running its first closure under `catch_unwind` and then either
/// taking the erased half back out of the session slot (running or
/// dropping it itself) or waiting for the session thread's `DONE`, which
/// the session stores only after the half has returned.
// The workspace denies `unsafe_code`; this lifetime erasure is the one
// exception in the crate, kept to a single expression behind the wait
// contract above.
#[allow(unsafe_code)]
fn erase_job_lifetime<'env>(
    job: Box<dyn FnOnce() + Send + 'env>,
) -> Box<dyn FnOnce() + Send + 'static> {
    // SAFETY: only the lifetime bound changes; Box<dyn FnOnce> has the
    // same layout for any lifetime, and the wait contract above keeps the
    // borrows alive until the job is done with them.
    unsafe { std::mem::transmute(job) }
}

/// How long the session thread spins with nothing to do before it parks.
/// Longer than the optimizer's work between two objective evaluations: in
/// `mine`'s fits on a 2-core host ≈4.5% of the gaps exceed 50 µs (BFGS
/// updates over the ≈360 parameters of the first training, a retrain's
/// set-up) and a few in 31,000 exceed 1 ms. A join that finds the session
/// parked wakes it and runs its first half's phase alone meanwhile. Short
/// enough that a process which stopped training stops spinning soon
/// after.
const SESSION_IDLE: Duration = Duration::from_millis(1);

/// The states of the session's one-job slot.
const FREE: u8 = 0; // no half in flight; the session spins
const CLAIMED: u8 = 1; // one caller owns the slot (posting or taking back)
const POSTED: u8 = 2; // a second half waits in the slot
const RUNNING: u8 = 3; // the session thread runs the posted half
const DONE: u8 = 4; // the half returned; its caller collects it
const PARKED: u8 = 5; // no half in flight; the session is parked

/// The fork-join's helper: one thread serves the second halves of [`join`]
/// calls from a one-job slot it spins on.
///
/// `slot` orders the hand-off. The caller's `POSTED` store (Release)
/// publishes the half, and everything the caller wrote before it, to the
/// session's `POSTED → RUNNING` exchange (Acquire); the session's `DONE`
/// store (Release) publishes the half's writes to the caller's `DONE` load
/// (Acquire); every `FREE` store (Release) pairs with the next claim's
/// exchange (Acquire), through the session's `FREE → PARKED` exchange when
/// it parks in between (a read-modify-write continues the release
/// sequence). The slot word is also how a caller learns that it must
/// unpark the session, so a join on a busy session touches no other
/// shared line.
struct Session {
    slot: AtomicU8,
    half: Mutex<Option<Job>>,
}

/// `half` is locked only by whoever `slot` says owns it, and nothing
/// panics while holding it.
const SLOT_LOCK: &str = "no panic while holding the session slot";

static SESSION: Session = Session {
    slot: AtomicU8::new(FREE),
    half: Mutex::new(None),
};

/// The session thread, spawned by the first [`join`] of a process with 2
/// or more cores. `None` on a single-core host or if the spawn failed:
/// then every join runs both halves inline.
fn session_thread() -> Option<&'static Thread> {
    static THREAD: OnceLock<Option<Thread>> = OnceLock::new();
    THREAD
        .get_or_init(|| {
            if pool_size() < 2 {
                return None;
            }
            std::thread::Builder::new()
                .name("nr-nn-join".to_string())
                .spawn(serve_session)
                .ok()
                .map(|handle| handle.thread().clone())
        })
        .as_ref()
}

/// The session thread's body: serves posted halves, and parks once the
/// slot has been free for [`SESSION_IDLE`] until a join wakes it. A half
/// posted while the session wakes is taken back by its caller if the
/// caller's own half finishes first.
fn serve_session() {
    let s = &SESSION;
    let mut idle_from: Option<Instant> = None;
    let mut spins = 0u32;
    loop {
        match s.slot.load(Ordering::Acquire) {
            POSTED => {
                if s.slot
                    .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    let half = s.half.lock().expect(SLOT_LOCK).take();
                    // The half catches its own unwind (see `join`).
                    half.expect("a posted half is in the slot")();
                    s.slot.store(DONE, Ordering::Release);
                }
                idle_from = None;
            }
            FREE => {
                spins = spins.wrapping_add(1);
                if spins % 64 == 0 {
                    let since = *idle_from.get_or_insert_with(Instant::now);
                    if since.elapsed() >= SESSION_IDLE
                        && s.slot
                            .compare_exchange(FREE, PARKED, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        // Only a join moves the slot off `PARKED`, and it
                        // unparks this thread after doing so.
                        while s.slot.load(Ordering::Acquire) == PARKED {
                            std::thread::park();
                        }
                        idle_from = None;
                    }
                }
            }
            _ => idle_from = None,
        }
        std::hint::spin_loop();
    }
}

/// Runs `a` and `b`, possibly in parallel, and returns both results: a
/// two-party fork-join in the shape of rayon's `join`. Both closures may
/// borrow the caller's frame.
///
/// `a` runs on the caller's thread while `b` waits in the slot of the
/// *session* thread, which runs it if it picks it up first. The first
/// join of a process spawns the session: a thread that serves later
/// halves from its spin slot and parks once the slot has been free for
/// about a millisecond; a join that finds it parked unparks it. The
/// caller never waits for a session that has not picked `b` up: if `a`
/// finishes first and `b` is still in the slot (the session still
/// starting or waking), the caller takes `b` back and runs it itself. If
/// another join holds the slot (a concurrent caller, or a join nested in
/// a half), on a single-core host, and if the session could not be
/// spawned, both closures run inline.
///
/// A hand-off through the slot costs well under a microsecond, against
/// the tens of microseconds of spawning a thread, which is what makes
/// halving one objective evaluation of ≈100 µs pay. Which thread runs a
/// half never changes what it computes.
///
/// A panic in either closure re-raises here with its own payload, after
/// the other closure has finished with the caller's frame (`a`'s panic
/// wins if both panic); the session keeps working.
pub(crate) fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let s = &SESSION;
    let Some(session) = session_thread() else {
        return (a(), b());
    };
    let parked = match s
        .slot
        .compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
    {
        Ok(_) => false,
        Err(PARKED)
            if s.slot
                .compare_exchange(PARKED, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok() =>
        {
            true
        }
        Err(_) => return (a(), b()),
    };

    let result: Mutex<Option<std::thread::Result<RB>>> = Mutex::new(None);
    let half: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(b));
        *result.lock().expect("no panic while holding the result") = Some(r);
    });
    // The wait contract of `erase_job_lifetime`: past this point the
    // caller returns (or unwinds) only after taking `half` back or seeing
    // the session finish it, and `a` runs under `catch_unwind`.
    *s.half.lock().expect(SLOT_LOCK) = Some(erase_job_lifetime(half));
    s.slot.store(POSTED, Ordering::Release);
    if parked {
        session.unpark();
    }
    let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));
    if s.slot
        .compare_exchange(POSTED, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
    {
        let half = s.half.lock().expect(SLOT_LOCK).take();
        s.slot.store(FREE, Ordering::Release);
        let half = half.expect("the caller's half is in the slot");
        if ra.is_ok() {
            half();
        }
    } else {
        let mut spins = 0u32;
        while s.slot.load(Ordering::Acquire) != DONE {
            spins = spins.wrapping_add(1);
            if spins % 4096 == 0 {
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
        s.slot.store(FREE, Ordering::Release);
    }
    let ra = ra.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let rb = result
        .into_inner()
        .expect("no panic while holding the result")
        .expect("the second half ran")
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    (ra, rb)
}

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
    fn auto_threads_are_the_pool_size() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pool_size(), cores.clamp(1, 8));
        assert_eq!(resolve_threads(0, usize::MAX), pool_size());
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
    fn pool_is_reused_across_calls() {
        // Many fan-out calls in a row must not accumulate threads: each
        // call joins its scoped threads before it returns.
        for _ in 0..20 {
            let got = map_chunks(CHUNK_ROWS * 3, 4, |c, _| c);
            assert_eq!(got, vec![0, 1, 2]);
        }
        let pool_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        // Far more jobs than threads: the threads take turns on them.
        let got = map_chunks(CHUNK_ROWS * (pool_threads * 4), 8, |c, _| c);
        assert_eq!(got.len(), pool_threads * 4);
    }

    #[test]
    fn pooled_job_panic_reports_its_own_message() {
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
        .expect_err("the pooled panic must propagate to the caller");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("job five exploded deliberately"),
            "original message lost: {msg}"
        );
        assert!(msg.contains("worker-pool job 5"), "job index lost: {msg}");
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
                msg.contains("worker-pool job 4") && msg.contains("job 4 failed"),
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
        assert!(msg.contains("worker-pool job 2"), "{msg}");
        // Later calls still work, inline and fanned out.
        assert_eq!(map_indexed_scoped(3, 4, |j| j), vec![0, 1, 2]);
    }

    #[test]
    fn join_returns_both_results_and_borrows_the_frame() {
        let data: Vec<u64> = (0..10_000).collect();
        let (low, high) = data.split_at(4_000);
        for _ in 0..200 {
            let got = join(|| low.iter().sum::<u64>(), || high.iter().sum::<u64>());
            assert_eq!(got, (low.iter().sum(), high.iter().sum()));
        }
    }

    #[test]
    fn join_panic_reraises_its_message_and_leaves_the_pool_working() {
        for round in 0..5 {
            let err = std::panic::catch_unwind(|| {
                join(|| 1, || -> usize { panic!("second half {round} exploded") })
            })
            .expect_err("the second half's panic must propagate");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains(&format!("second half {round} exploded")),
                "{msg}"
            );
            let err = std::panic::catch_unwind(|| {
                join(|| -> usize { panic!("first half {round} exploded") }, || 2)
            })
            .expect_err("the first half's panic must propagate");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains(&format!("first half {round} exploded")),
                "{msg}"
            );
            // The session and the fan-out survive.
            assert_eq!(join(|| 1, || 2), (1, 2));
            assert_eq!(map_indexed_scoped(3, 4, |j| j), vec![0, 1, 2]);
        }
    }

    #[test]
    fn a_parked_session_wakes_for_the_next_join() {
        if pool_size() < 2 {
            return; // a single-core host has no session
        }
        // Spawns the session, if no other test has.
        assert_eq!(join(|| 1, || 2), (1, 2));
        // `a` waits (up to a bound) for `b` to start, so `b` runs on
        // another thread unless the session never picks it up. Only joins
        // made after the slot read `PARKED` count as tries: concurrent
        // tests' joins may keep the session from parking for a while, so
        // the loop waits for `PARKED` under a deadline. Retried, since
        // the host may delay the session's wake-up, and since a
        // concurrent test's join may claim the parked slot first.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut tries = 0;
        while tries < 20 && Instant::now() < deadline {
            std::thread::sleep(SESSION_IDLE);
            if SESSION.slot.load(Ordering::Acquire) != PARKED {
                continue;
            }
            tries += 1;
            let started = std::sync::atomic::AtomicBool::new(false);
            let (caller, helper) = join(
                || {
                    let t = Instant::now();
                    while !started.load(Ordering::SeqCst)
                        && t.elapsed() < Duration::from_millis(200)
                    {
                        std::thread::yield_now();
                    }
                    std::thread::current().id()
                },
                || {
                    started.store(true, Ordering::SeqCst);
                    std::thread::current().id()
                },
            );
            if caller != helper {
                return;
            }
        }
        assert!(
            tries > 0,
            "the session never parked in 30 s: the wake path was not tried"
        );
        panic!(
            "every second half of {tries} tries ran on the caller: the parked session never woke"
        );
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
