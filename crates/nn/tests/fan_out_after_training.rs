//! What a training run leaves behind: no thread of its own. The helper
//! that splits a run's objective evaluations is joined when the run ends,
//! and a fan-out of two jobs made after training still runs them on two
//! threads. A test binary of its own, so no other test trains meanwhile;
//! its two tests take turns on one lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nr_encode::EncodedDataset;
use nr_nn::{map_indexed_scoped, resolve_threads, CrossEntropyObjective, Mlp, Penalty, Trainer};

/// Keeps this binary's tests from training at the same time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// 600 rows (one chunk) where the class is input 0, input 3 a bias.
fn training_set() -> EncodedDataset {
    let rows = 600;
    let mut x = vec![0.0; rows * 4];
    let mut targets = Vec::with_capacity(rows);
    for (i, row) in x.chunks_exact_mut(4).enumerate() {
        row[0] = (i % 2) as f64;
        row[1] = (i / 2 % 2) as f64;
        row[2] = (i / 3 % 2) as f64;
        row[3] = 1.0;
        targets.push(i % 2);
    }
    EncodedDataset::from_parts(x, 4, targets, 2)
}

#[test]
fn a_two_job_fan_out_runs_on_two_threads_after_training() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if resolve_threads(0, 2) < 2 {
        return; // a single-core host runs every fan-out inline
    }
    let data = training_set();
    let mut net = Mlp::random(4, 3, 2, 9);
    let report = Trainer::default().train(&mut net, &data);
    assert!(report.accuracy > 0.9, "{report:?}");

    // Each job waits (up to a bound) for the other to start: two distinct
    // threads run them unless the caller ends up running both. Retried,
    // since the host may delay a thread's start.
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(5));
        let started = AtomicUsize::new(0);
        let workers = map_indexed_scoped(2, 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let t = Instant::now();
            while started.load(Ordering::SeqCst) < 2 && t.elapsed() < Duration::from_millis(200) {
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        if workers[0] != workers[1] {
            return;
        }
    }
    panic!("both jobs ran on one thread every time: the fan-out never got a second thread");
}

/// This process's threads named like the objective's helper (Linux only).
fn helper_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "nr-nn-split")
        .count()
}

#[test]
fn training_leaves_no_helper_thread_behind() {
    if !cfg!(target_os = "linux") {
        return; // the count reads /proc/self/task
    }
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let data = training_set();
    let net = Mlp::random(4, 3, 2, 9);
    // A run has its helper while it runs (on two or more cores) ...
    let objective = CrossEntropyObjective::new(&net, &data, Penalty::default());
    let during = objective.run(|_| helper_threads());
    assert_eq!(during, usize::from(resolve_threads(0, 2) >= 2));
    assert_eq!(helper_threads(), 0, "the run's helper outlived it");
    // ... and `Trainer::train` joins its run's helper before it returns.
    for seed in 0..3 {
        let mut net = Mlp::random(4, 3, 2, seed);
        Trainer::default().train(&mut net, &data);
        assert_eq!(helper_threads(), 0, "training {seed} left its helper");
    }
}
