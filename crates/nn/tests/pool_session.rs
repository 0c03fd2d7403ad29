//! The fork-join's session worker goes back to the pool: once training
//! stops joining, the pool's workers are all free for queued jobs again.
//! A test binary of its own, so no other test keeps the session busy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nr_encode::EncodedDataset;
use nr_nn::{map_indexed_scoped, resolve_threads, Mlp, Trainer};

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
fn the_session_worker_returns_to_the_pool_after_training() {
    if resolve_threads(0, 2) < 2 {
        return; // a single-core host never splits, so there is no session
    }
    let data = training_set();
    let mut net = Mlp::random(4, 3, 2, 9);
    let report = Trainer::default().train(&mut net, &data);
    assert!(report.accuracy > 0.9, "{report:?}");

    // Each job waits (up to a bound) for the other to start: two distinct
    // workers run them unless one worker is still held by a session.
    // Retried, since the host may delay a worker's wake-up.
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
    panic!("both jobs ran on one worker every time: the session never left its worker");
}
