//! Ingest scoreboard: streaming CSV → columnar `Dataset` →
//! `Encoder::encode_dataset`, the out-of-core spill ingest (with a
//! single-thread parse-only arm that separates parsing from sealing), and
//! the cost of segment checksums.
//!
//! Peak allocation is tracked by a counting global allocator: the
//! out-of-core run asserts its bounded-heap bar with it, so the bench run
//! itself enforces the bar; timings land in `BENCH_ingest.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nr_bench::bench_dataset;
use nr_encode::Encoder;
use nr_tabular::read_csv_streaming;

/// Bytes currently allocated / high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapped with live/peak byte counters.
struct CountingAlloc;

// The workspace denies `unsafe_code`; a measuring `GlobalAlloc` cannot be
// written without it, so this bench binary carves out the narrowest
// possible allowance: two delegating calls into `System`.
#[allow(unsafe_code)]
mod counting_impl {
    use super::*;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            unsafe { System.dealloc(p, layout) }
        }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result plus the peak bytes allocated *above*
/// the live baseline at entry.
fn peak_above_baseline<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (out, peak.saturating_sub(baseline))
}

fn ingest(c: &mut Criterion) {
    let rows = if criterion::quick_mode() {
        10_000
    } else {
        100_000
    };
    // One CSV artifact shared by every contender, generated up front.
    let ds = bench_dataset(rows);
    let mut csv = Vec::new();
    nr_tabular::write_csv(&ds, &mut csv).expect("write csv");
    let schema = ds.schema().clone();
    let class_names = ds.class_names().to_vec();
    let enc = Encoder::agrawal();
    drop(ds);

    let mut group = c.benchmark_group(format!("ingest-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("streaming-csv", |b| {
        b.iter(|| {
            read_csv_streaming(schema.clone(), class_names.clone(), &csv[..])
                .expect("parse")
                .len()
        });
    });
    group.bench_function("streaming-csv-then-encode", |b| {
        b.iter(|| {
            let ds =
                read_csv_streaming(schema.clone(), class_names.clone(), &csv[..]).expect("parse");
            enc.encode_dataset(&ds).rows()
        });
    });
    group.finish();

    // Peak allocation of one columnar load, measured outside the timing
    // loops: one typed buffer per column plus the label vector.
    let (columnar, peak) = peak_above_baseline(|| {
        read_csv_streaming(schema.clone(), class_names.clone(), &csv[..]).expect("parse")
    });
    assert_eq!(columnar.len(), rows);
    eprintln!(
        "  peak allocation loading {rows} rows: columnar {:.1} MiB",
        peak as f64 / (1024.0 * 1024.0),
    );
}

/// Parses the rows of the Agrawal CSV `data` on the calling thread, on
/// the store's chunk grid (line-aligned [`nr_store::INGEST_CHUNK_BYTES`]
/// blocks), dropping each block's columns; returns the row count.
fn parse_blocks(data: &[u8]) -> usize {
    let schema = nr_datagen::agrawal_schema();
    let classes = nr_datagen::class_names();
    let body_start = data
        .iter()
        .position(|&b| b == b'\n')
        .map_or(data.len(), |p| p + 1);
    let body = &data[body_start..];
    let mut rows = 0;
    let mut start = 0;
    while start < body.len() {
        let target = (start + nr_store::INGEST_CHUNK_BYTES).min(body.len());
        let end = body[target..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(body.len(), |p| target + p + 1);
        let (_, labels, _) = nr_tabular::parse_csv_block(&schema, &classes, &body[start..end], 2)
            .expect("parse block");
        rows += labels.len();
        start = end;
    }
    rows
}

/// Out-of-core scoreboard: streaming CSV generation → mmap-backed
/// parallel ingest into spill segments → encode → score, with the
/// counting allocator asserting the whole pipeline's peak heap stays far
/// below the data size. Quick mode shrinks the workload to a smoke run;
/// the full run drives **10 million rows** (several hundred MiB of CSV)
/// and arms the bounded-heap bar.
fn out_of_core(c: &mut Criterion) {
    use nr_datagen::{agrawal_schema, class_names, Function, Generator};
    use nr_rules::Predictor;
    use nr_store::{ingest_csv_file, StoreConfig};

    let quick = criterion::quick_mode();
    let rows: usize = if quick { 50_000 } else { 10_000_000 };
    let seg_rows = if quick { 8_192 } else { 64 * 1024 };
    // Thread scaling reads differently on every host: record the core
    // count next to the timings.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    criterion::record_metric("host.cores", cores as f64, "count");
    let dir = std::env::temp_dir().join(format!("nr-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let csv_path = dir.join("out-of-core.csv");
    let gen = Generator::new(42).with_perturbation(0.05);
    {
        // The generator streams; the CSV never exists in memory.
        let file = std::fs::File::create(&csv_path).expect("create csv");
        let mut out = std::io::BufWriter::new(file);
        gen.write_csv_streaming(Function::F2, rows, &mut out)
            .expect("stream csv");
    }
    let csv_bytes = std::fs::metadata(&csv_path).expect("csv metadata").len() as usize;

    let mut group = c.benchmark_group(format!("out-of-core-ingest-{rows}-rows"));
    group.sample_size(if quick { 3 } else { 2 });
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("serial-streaming-reader", |b| {
        // The pre-store baseline: parse serially into one in-RAM dataset.
        b.iter(|| {
            let file = std::fs::File::open(&csv_path).expect("open csv");
            read_csv_streaming(
                agrawal_schema(),
                class_names(),
                std::io::BufReader::new(file),
            )
            .expect("parse")
            .len()
        });
    });
    group.bench_function("parse-blocks-1t", |b| {
        // Parsing alone, single-threaded: the store's chunk grid over the
        // mapped file, each chunk parsed and dropped. Set against the
        // spill-ingest arms, it separates parse cost from sealing.
        let map = nr_store::MappedFile::open(&csv_path).expect("map csv");
        b.iter(|| {
            let parsed = parse_blocks(map.bytes());
            assert_eq!(parsed, rows);
            parsed
        });
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("mmap-spill-ingest-{threads}t"), |b| {
            b.iter(|| {
                ingest_csv_file(
                    agrawal_schema(),
                    class_names(),
                    &csv_path,
                    StoreConfig::spilling(seg_rows, dir.join("spill")).with_threads(threads),
                )
                .expect("ingest")
                .rows()
            });
        });
    }
    group.finish();

    // End-to-end bounded-heap run: ingest the whole file into mmap spill
    // segments, fit an encoder across every segment view, and score every
    // row segment-at-a-time through a compiled model — while the counting
    // allocator watches the high-water mark. The model itself trains on a
    // small in-RAM sample up front (training 10M rows is not the claim;
    // scoring them out-of-core is).
    let sample = gen.dataset(Function::F2, 1_000);
    let model = neurorule::NeuroRule::default()
        .with_encoder(Encoder::agrawal())
        .with_seed(3)
        .fit(&sample)
        .expect("sample model fits");
    let compiled = model.compile();
    drop(sample);
    let ((n_rows, n_scored, n_spill), peak) = peak_above_baseline(|| {
        let store = ingest_csv_file(
            agrawal_schema(),
            class_names(),
            &csv_path,
            StoreConfig::spilling(seg_rows, dir.join("spill")).with_threads(4),
        )
        .expect("ingest");
        let enc = Encoder::fit_views(store.views(), 5).expect("fit encoder over segments");
        let mut scored = 0usize;
        let mut encoded_rows = 0usize;
        for view in store.views() {
            // Encode batch fill and compiled scoring, one segment at a
            // time: only one segment's encoded batch is ever live.
            encoded_rows += enc.encode_view(&view).rows();
            scored += compiled.predict_batch(&view).len();
        }
        assert_eq!(encoded_rows, store.rows());
        (store.rows(), scored, store.n_spill_files())
    });
    assert_eq!(n_rows, rows);
    assert_eq!(n_scored, rows);
    assert!(n_spill > 0, "out-of-core run must actually spill");
    eprintln!(
        "  out-of-core ingest+encode+score of {rows} rows ({:.1} MiB csv): peak heap {:.1} MiB ({:.1}% of data)",
        csv_bytes as f64 / (1024.0 * 1024.0),
        peak as f64 / (1024.0 * 1024.0),
        100.0 * peak as f64 / csv_bytes as f64,
    );
    if !quick {
        // The tentpole's acceptance bar: the whole pipeline must hold its
        // peak heap well below the data size (quick mode's file is too
        // small for fixed overheads to make the ratio meaningful).
        assert!(
            peak * 4 < csv_bytes,
            "peak heap {peak} bytes must stay under a quarter of the {csv_bytes}-byte dataset"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove bench scratch dir");
}

/// Integrity-cost scoreboard: spill ingest (every segment seal re-reads
/// the file and verifies its header, region and whole-file CRCs) against
/// one bare [`nr_store::crc32`] pass over the same spilled segment bytes —
/// the verification work by itself. The durability acceptance bar is that
/// verification costs **< 10% of ingest throughput**; the full run
/// enforces it here (quick mode's file is too small for the ratio to be
/// meaningful — fixed costs dominate), and both timings land in
/// `BENCH_ingest.json`.
fn checksum_cost(c: &mut Criterion) {
    use nr_datagen::{agrawal_schema, class_names, Function, Generator};
    use nr_store::{crc32, ingest_csv_file, MappedFile, StoreConfig};

    let quick = criterion::quick_mode();
    let rows: usize = if quick { 50_000 } else { 2_000_000 };
    let seg_rows = if quick { 8_192 } else { 64 * 1024 };
    let dir = std::env::temp_dir().join(format!("nr-bench-crc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let csv_path = dir.join("checksum-cost.csv");
    {
        let file = std::fs::File::create(&csv_path).expect("create csv");
        let mut out = std::io::BufWriter::new(file);
        Generator::new(42)
            .with_perturbation(0.05)
            .write_csv_streaming(Function::F2, rows, &mut out)
            .expect("stream csv");
    }
    let spill = dir.join("spill");
    let ingest = || {
        ingest_csv_file(
            agrawal_schema(),
            class_names(),
            &csv_path,
            StoreConfig::spilling(seg_rows, &spill).with_threads(4),
        )
        .expect("ingest")
    };
    // The spilled segments, mapped while the store that owns them is alive
    // (non-durable spill files are unlinked with it; a mapping keeps its
    // file readable) — the same page-cache reads the loader verifies.
    let segments: Vec<MappedFile> = {
        let store = ingest();
        let maps: Vec<MappedFile> = std::fs::read_dir(&spill)
            .expect("list spill dir")
            .map(|e| MappedFile::open(&e.expect("spill entry").path()).expect("map segment"))
            .collect();
        assert_eq!(maps.len(), store.n_spill_files());
        maps
    };
    let checksum_all = || segments.iter().fold(0u32, |acc, m| acc ^ crc32(m.bytes()));

    let mut group = c.benchmark_group(format!("ingest-checksum-cost-{rows}-rows"));
    group.sample_size(if quick { 3 } else { 2 });
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("spill-ingest-verified", |b| b.iter(|| ingest().rows()));
    group.bench_function("crc32-over-segments", |b| b.iter(checksum_all));
    group.finish();

    // The acceptance assertion, on its own best-of-3 timings (criterion's
    // numbers go to the scoreboard; the bar is enforced here). The
    // overhead is the checksum share over the rest of the ingest.
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            })
            .min()
            .expect("three timed runs")
    };
    let verified = best(&|| assert_eq!(ingest().rows(), rows));
    let checksum = best(&|| {
        std::hint::black_box(checksum_all());
    });
    let overhead = checksum.as_secs_f64() / verified.saturating_sub(checksum).as_secs_f64();
    eprintln!(
        "  segment verification cost over {rows} rows: verified ingest {:.2}s, crc32 alone {:.3}s \
         ({:+.1}% throughput)",
        verified.as_secs_f64(),
        checksum.as_secs_f64(),
        overhead * 100.0,
    );
    if !quick {
        assert!(
            overhead < 0.10,
            "checksummed ingest must cost < 10% throughput \
             (verified ingest {verified:?}, crc32 alone {checksum:?})"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove bench scratch dir");
}

criterion_group!(benches, ingest, out_of_core, checksum_cost);
criterion_main!(benches);
