//! Deterministic row-sharding for batch passes on a shared worker pool.
//!
//! Batched dataset traversals split the rows into **fixed-size chunks**
//! (independent of how many worker threads run) and reduce the per-chunk
//! results in chunk-index order. Because each chunk is processed
//! sequentially and the reduction order is fixed, the result is
//! bit-identical no matter how many threads execute the chunks — seeds and
//! test thresholds do not move when the thread count changes.
//!
//! The chunk size is deliberately large enough that the paper-scale
//! training sets (1000 tuples) fit in a single chunk: single-chunk
//! evaluation is exactly the pre-batch sequential order.
//!
//! Chunks execute on **one lazily-initialized, process-wide worker pool**
//! instead of `thread::scope` workers spawned per call: BFGS training
//! evaluates the objective hundreds of times per fit and pruning retrains
//! repeatedly, so per-call thread spawning was measurable overhead. Jobs
//! are closures that borrow the caller's frame (the encoded dataset, the
//! weights) like `std::thread::scope`; [`map_indexed_scoped`] waits for
//! every job before it returns. Each caller collects its own results over
//! a private channel, so concurrent callers interleave safely on the same
//! pool.

use std::ops::Range;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

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

/// Resolves a requested thread count (`0` = auto) against the hardware and
/// the number of chunks available. A result of `1` means "run inline on
/// the caller's thread"; anything larger means "submit to the shared pool".
///
/// Public so pool clients (the serving engine's chunk-parallel scorer)
/// can pre-resolve and skip per-chunk buffer setup entirely when the
/// answer is "inline anyway" — e.g. auto mode on a single-core host.
pub fn resolve_threads(requested: usize, chunks: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
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
/// thread-local cache, so chunk jobs reuse scratch across chunks and
/// across calls instead of heap-allocating per chunk — on pool workers and
/// on the inline single-threaded path alike.
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

/// A unit of work shipped to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Location of the most recent panic on this thread, recorded by the
    /// hook below. Read by the job wrapper in [`map_indexed_scoped`] right
    /// after it catches an unwind, so the re-raised panic can name the
    /// original file:line instead of the collection point.
    static LAST_PANIC_LOCATION: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

static LOCATION_HOOK: std::sync::Once = std::sync::Once::new();

/// Installs (once, process-wide) a panic hook that records the panic
/// location in a thread-local before delegating to the previous hook.
/// Captured pool-job panics read it back; panics elsewhere are unaffected.
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

struct Pool {
    sender: Sender<Job>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide worker pool, spawned on first use. Worker count is
/// fixed at `min(available_parallelism, 8)`; determinism never depends on
/// it (see module docs).
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for k in 0..workers {
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("nr-nn-pool-{k}"))
                .spawn(move || loop {
                    // Hold the lock only while receiving, not while working.
                    let job = receiver.lock().unwrap().recv();
                    match job {
                        // A panicking job must not kill the worker. Jobs
                        // submitted via `map_indexed_scoped` catch their own
                        // unwinds and ship the payload back to the caller;
                        // this outer catch is only the backstop for panics
                        // outside that wrapper (e.g. a poisoned result
                        // channel).
                        Ok(job) => {
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        Err(_) => break, // pool sender dropped: process exit
                    }
                })
                .expect("spawn pool worker");
        }
        Pool { sender }
    })
}

/// Maps `work` over the fixed row chunks of a dataset and returns the
/// per-chunk results **in chunk order** regardless of which pool thread
/// computed which chunk — [`map_indexed_scoped`] over the chunk grid.
///
/// `threads` is the resolved worker count (see [`resolve_threads`]); with
/// one worker (or one chunk) everything runs inline on the caller's
/// thread — the single-threaded path never touches the pool.
pub(crate) fn map_chunks<'env, T, F>(rows: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send + 'env,
    F: Fn(usize, Range<usize>) -> T + Send + Sync + 'env,
{
    map_indexed_scoped(n_chunks(rows), threads, move |c| {
        work(c, chunk_range(c, rows))
    })
}

/// Counts outstanding scoped jobs. [`WaitGroup::wait`] blocks until every
/// job registered with [`WaitGroup::add`] has called [`WaitGroup::done`] —
/// and jobs call `done` only *after* dropping their captured closure state,
/// which is the whole point (see [`map_indexed_scoped`]).
struct WaitGroup {
    pending: Mutex<usize>,
    all_done: Condvar,
}

impl WaitGroup {
    fn new() -> Self {
        WaitGroup {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
        }
    }

    fn add(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn done(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending != 0 {
            pending = self.all_done.wait(pending).unwrap();
        }
    }
}

/// Waits for the scoped jobs on drop, so the borrow-validity guarantee
/// holds on the unwind path (a panic re-raised at the collection point)
/// exactly as on the normal return path.
struct WaitOnDrop<'a>(&'a WaitGroup);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Everything a scoped job touches that may borrow from the caller's
/// frame. [`run_scoped_payload`] consumes it by value, so by the time the
/// job signals its [`WaitGroup`] these are guaranteed dropped.
struct ScopedPayload<T, F> {
    work: Arc<F>,
    tx: Sender<(usize, Result<T, String>)>,
    j: usize,
}

fn run_scoped_payload<T, F>(payload: ScopedPayload<T, F>)
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    let ScopedPayload { work, tx, j } = payload;
    // Catch the job's own unwind so the panic payload (and the location
    // the hook recorded) travel back to the caller instead of dying on
    // the pool thread.
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(j))).map_err(|payload| {
            let msg = panic_message(payload.as_ref());
            match LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take()) {
                Some(loc) => format!("{msg}, at {loc}"),
                None => msg,
            }
        });
    // The caller may have bailed (panic elsewhere); a closed channel is
    // fine.
    let _ = tx.send((j, result));
    // `work` and `tx` drop here — strictly before the job's wait-group
    // signal in `map_indexed_scoped`'s wrapper.
}

/// Pretends a scoped job outlives the caller's frame so it can ride the
/// `'static` pool queue.
///
/// # Safety contract
///
/// The caller must not return or unwind past the borrowed data until the
/// erased closure has run **and dropped its captures**.
/// [`map_indexed_scoped`] upholds this with a [`WaitGroup`] that every
/// submitted job signals only after consuming its [`ScopedPayload`], plus
/// a [`WaitOnDrop`] guard covering the unwind path; pool workers always
/// run every queued job (the queue outlives the process's last caller),
/// so the signal cannot be skipped.
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

/// Maps `work` over the job indices `0..jobs` on the shared worker pool
/// and returns the results **in index order** regardless of which pool
/// thread computed which job. `work` may borrow the caller's locals (a
/// [`nr_tabular::DatasetView`], a model reference) directly, like
/// `std::thread::scope`, but on the process-wide pool instead of freshly
/// spawned threads. The primitive behind [`map_chunks`]; multi-candidate
/// evaluations (pruning's parallel accuracy gates) and the serving
/// engine's sharded scoring submit their jobs through it directly.
///
/// `threads` is a requested worker count (`0` = auto: available
/// parallelism capped at the pool size). With one resolved worker (or one
/// job) everything runs inline on the caller's thread. A panicking job
/// re-raises deterministically (lowest index first) at the collection
/// point, after every other submitted job has finished.
pub fn map_indexed_scoped<'env, T, F>(jobs: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send + 'env,
    F: Fn(usize) -> T + Send + Sync + 'env,
{
    if jobs == 0 {
        return Vec::new();
    }
    if resolve_threads(threads, jobs) <= 1 || jobs == 1 {
        return (0..jobs).map(work).collect();
    }

    install_location_hook();
    let work = Arc::new(work);
    let wg = Arc::new(WaitGroup::new());
    // Declared before `tx`/`rx` so it drops after them: by the time the
    // guard waits, the results channel is closed and only capture drops
    // remain outstanding.
    let _jobs_finished = WaitOnDrop(&wg);
    let (tx, rx) = channel::<(usize, Result<T, String>)>();
    for j in 0..jobs {
        let payload = ScopedPayload {
            work: Arc::clone(&work),
            tx: tx.clone(),
            j,
        };
        let done = Arc::clone(&wg);
        // Registered before submission, one by one, so the guard waits for
        // exactly the jobs that were actually queued even if this loop
        // unwinds midway.
        wg.add();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            run_scoped_payload(payload);
            // Signals strictly after the payload (the only captures that
            // may borrow the caller's frame) has been consumed and
            // dropped; `done` itself is a 'static Arc.
            done.done();
        });
        pool()
            .sender
            .send(erase_job_lifetime(job))
            .expect("worker pool alive for the process lifetime");
    }
    drop(tx);
    let mut results: Vec<(usize, Result<T, String>)> = rx.iter().collect();
    assert_eq!(
        results.len(),
        jobs,
        "worker pool dropped {} of {jobs} job results",
        jobs - results.len()
    );
    results.sort_unstable_by_key(|&(j, _)| j);
    // Re-raise the first (lowest-index, so deterministic) job panic with
    // its original message and location.
    results
        .into_iter()
        .map(|(j, r)| r.unwrap_or_else(|msg| panic!("worker-pool job {j} panicked: {msg}")))
        .collect()
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
        // Many pooled calls must not accumulate threads: every call after
        // the first reuses the same workers (this is the regression guard
        // for the per-call `thread::scope` spawning this pool replaced).
        for _ in 0..20 {
            let got = map_chunks(CHUNK_ROWS * 3, 4, |c, _| c);
            assert_eq!(got, vec![0, 1, 2]);
        }
        let pool_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        // Indirect check: submitting far more jobs than workers completes.
        let got = map_chunks(CHUNK_ROWS * (pool_threads * 4), 8, |c, _| c);
        assert_eq!(got.len(), pool_threads * 4);
    }

    #[test]
    fn pooled_job_panic_reports_its_own_message() {
        // A panicking job must surface its original message (and job
        // index) at the collection point, not an opaque results-length
        // assert.
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
        // The pool survives a panicking job: later calls still work.
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
        // finished touching the borrowed frame (the guard's unwind path).
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
        // The pool and the scoped path both survive.
        assert_eq!(map_indexed_scoped(3, 4, |j| j), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_callers_do_not_cross_wires() {
        // Two threads hammer the shared pool simultaneously; each must get
        // exactly its own chunk results.
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
