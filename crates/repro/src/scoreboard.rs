//! In-process scoreboards behind two `EXPERIMENTS.md` sections — serving
//! throughput (rules vs network, and the rule engines) and out-of-core
//! ingest — and the four performance bars they carry:
//!
//! * compiled rules score ≥ 2× faster than interpreted ones (best of 5,
//!   100k rows);
//! * verifying segment checksums costs < 10% of a spill ingest (best of
//!   3, 2M rows);
//! * out-of-core ingest → `Encoder::fit_views` → per-segment encode and
//!   compiled score holds peak heap under ¼ of the CSV (10M rows), as
//!   counted by this binary's global allocator;
//! * the out-of-core run actually spills.
//!
//! The first three arm only at [`FULL`] size: at [`QUICK`] size fixed
//! costs dominate the ratios, so they are printed, not asserted. The
//! spill assertion holds at every size. `repro experiments` runs `FULL`,
//! `repro --quick` runs `QUICK`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use neurorule::Model;
use nr_datagen::{agrawal_schema, class_names, Function};
use nr_encode::Encoder;
use nr_rules::Predictor;
use nr_serve::ServeMode;
use nr_store::{crc32, ingest_csv_file, MappedFile, SegmentedDataset, StoreConfig};

use crate::common::{generator, paper_pipeline};

/// Workload sizes of one scoreboard run.
pub struct Size {
    /// Rows per serving batch.
    serving_rows: usize,
    /// Rows of the out-of-core CSV.
    ooc_rows: usize,
    /// Rows of the checksum-cost CSV.
    checksum_rows: usize,
    /// Rows per spill segment.
    seg_rows: usize,
    /// Timed passes per ingest contender.
    ingest_runs: usize,
    /// Whether the speedup, heap and checksum bars are asserted.
    armed: bool,
}

/// `repro experiments`: the sizes the bars are set for.
pub const FULL: Size = Size {
    serving_rows: 100_000,
    ooc_rows: 10_000_000,
    checksum_rows: 2_000_000,
    seg_rows: 64 * 1024,
    ingest_runs: 2,
    armed: true,
};

/// `repro --quick`: a smoke run of every contender, ratio bars unarmed.
pub const QUICK: Size = Size {
    serving_rows: 10_000,
    ooc_rows: 50_000,
    checksum_rows: 50_000,
    seg_rows: 8_192,
    ingest_runs: 3,
    armed: false,
};

/// Timed runs per serving contender.
const SERVING_RUNS: usize = 10;

/// Wall times of `n` runs of `f` after one untimed warm-up run, fastest
/// first: `[0]` is the best run, `[n / 2]` the median.
fn runs<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<Duration> {
    std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort();
    times
}

/// One contender's median wall time over a batch or pass of `rows` rows.
pub struct Timing {
    pub label: &'static str,
    pub median: Duration,
    pub rows: usize,
}

impl Timing {
    fn median_of<T>(label: &'static str, rows: usize, n: usize, f: impl FnMut() -> T) -> Timing {
        Timing {
            label,
            median: runs(n, f)[n / 2],
            rows,
        }
    }

    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.median.as_secs_f64()
    }
}

/// A markdown table of timings, rows/sec in millions to `digits` places.
fn table(contender: &str, per: &str, timings: &[Timing], digits: usize) -> String {
    let mut out = format!("| {contender} | median / {per} | rows/sec |\n|---|---|---|\n");
    for t in timings {
        out.push_str(&format!(
            "| {} | {:.2} ms | {:.digits$}M |\n",
            t.label,
            t.median.as_secs_f64() * 1e3,
            t.rows_per_sec() / 1e6,
        ));
    }
    out
}

/// One bar's reading against its threshold.
pub struct Bar {
    name: &'static str,
    reading: String,
    pub holds: bool,
    armed: bool,
}

impl Bar {
    fn new(name: &'static str, reading: String, holds: bool) -> Bar {
        Bar {
            name,
            reading,
            holds,
            armed: false,
        }
    }

    /// Logs the reading; at an armed size a missed bar panics.
    fn enforce(mut self, armed: bool) -> Bar {
        self.armed = armed;
        eprintln!("bar: {}", self.line());
        assert!(!armed || self.holds, "bar missed: {}", self.line());
        self
    }

    fn line(&self) -> String {
        let verdict = match (self.holds, self.armed) {
            (true, true) => "holds",
            (false, true) => "MISSED",
            (true, false) => "holds (unarmed at this size)",
            (false, false) => "missed (unarmed at this size)",
        };
        format!("{}: {} — {verdict}", self.name, self.reading)
    }
}

/// Compiled rule scoring at least 2× the interpreted per-row path.
fn speedup_bar(compiled: Duration, interpreted: Duration) -> Bar {
    let speedup = interpreted.as_secs_f64() / compiled.as_secs_f64();
    Bar::new(
        "compiled rules ≥ 2× interpreted (best of 5, armed at 100k rows)",
        format!("{speedup:.1}×"),
        speedup >= 2.0,
    )
}

/// The out-of-core pass's peak heap under a quarter of the CSV size.
fn heap_bar(peak: usize, csv_bytes: usize) -> Bar {
    const MIB: f64 = 1024.0 * 1024.0;
    Bar::new(
        "out-of-core peak heap < ¼ of the CSV (armed at 10M rows)",
        format!(
            "{:.1} MiB, {:.1}% of the {:.0} MiB CSV",
            peak as f64 / MIB,
            100.0 * peak as f64 / csv_bytes as f64,
            csv_bytes as f64 / MIB,
        ),
        peak * 4 < csv_bytes,
    )
}

/// Checksum verification under 10% of the rest of a verified ingest.
fn checksum_bar(verified: Duration, checksum: Duration) -> Bar {
    let overhead = checksum.as_secs_f64() / verified.saturating_sub(checksum).as_secs_f64();
    Bar::new(
        "checksum verification < 10% of ingest (best of 3, armed at 2M rows)",
        format!(
            "{:.1}% (verified ingest {verified:.2?}, crc32 alone {checksum:.2?})",
            100.0 * overhead
        ),
        overhead < 0.10,
    )
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The full-size serving fixture: the paper's pipeline fitted on 500
/// Function-2 tuples.
pub fn fixture() -> Model {
    paper_pipeline(12345)
        .fit(&generator().dataset(Function::F2, 500))
        .expect("serving fixture fits")
}

/// The serving scoreboard: `model` applied to one batch of generated
/// tuples by every serving surface.
pub struct Serving {
    rows: usize,
    /// Compiled rules, interpreted rules, network batch, hybrid.
    pub engines: Vec<Timing>,
    speedup: Bar,
}

/// Times every serving surface of `model` and checks the speedup bar.
pub fn serving(model: &Model, size: &Size) -> Serving {
    let rows = size.serving_rows;
    let test = generator().dataset(Function::F2, rows);
    let view = test.view();
    let serve = model.compile();
    let hybrid = serve.clone().with_mode(ServeMode::Hybrid);
    let compiled = || serve.rules().predict_batch(&view).len();
    let interpreted = || {
        (0..rows)
            .map(|i| model.ruleset.predict_row(&test, i))
            .sum::<usize>()
    };
    let median = |label, f: &dyn Fn() -> usize| Timing::median_of(label, rows, SERVING_RUNS, f);
    let engines = vec![
        median("compiled rules (`nr-serve`)", &compiled),
        median("interpreted rules (`RuleSet::predict_row`)", &interpreted),
        median("network batch (interval indices, set bits)", &|| {
            serve.network().predict_batch(&view).len()
        }),
        median("hybrid (rules, network fallback)", &|| {
            hybrid.predict_batch(&view).len()
        }),
    ];
    let speedup = speedup_bar(runs(5, compiled)[0], runs(5, interpreted)[0]).enforce(size.armed);
    Serving {
        rows,
        engines,
        speedup,
    }
}

impl Serving {
    pub fn markdown(&self) -> String {
        let [compiled, interpreted, network, _] = &self.engines[..] else {
            unreachable!("four serving engines")
        };
        format!(
            "Measured in-process (median of {SERVING_RUNS} runs, batches of {} rows; \
             host: {} cores).\n\n{}\n\
             Compiled rules apply the model **{:.0}× faster** than the network\n\
             path on the same batch — the paper's \"rules are cheap to apply to\n\
             large databases\" claim (§1), measured. The compiled engine is {:.1}× the\n\
             interpreted per-row rule path.\n\n\
             Bar: {}.\n",
            self.rows,
            host_cores(),
            table("engine", "batch", &self.engines, 1),
            network.median.as_secs_f64() / compiled.median.as_secs_f64(),
            interpreted.median.as_secs_f64() / compiled.median.as_secs_f64(),
            self.speedup.line(),
        )
    }
}

/// Bytes currently allocated, and their high-water mark since the last
/// reset by [`peak_above_baseline`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live/peak byte counters.
struct CountingAlloc;

// The workspace denies `unsafe_code`; a measuring `GlobalAlloc` cannot be
// written without it, so this binary carves out the narrowest possible
// allowance: two delegating calls into `System`.
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

/// Streams `rows` generated Function-2 tuples to a CSV at `path`; the CSV
/// never exists in memory. Returns its size in bytes.
fn write_csv(path: &Path, rows: usize) -> usize {
    let file = std::fs::File::create(path).expect("create csv");
    let mut out = std::io::BufWriter::new(file);
    generator()
        .write_csv_streaming(Function::F2, rows, &mut out)
        .expect("stream csv");
    drop(out);
    std::fs::metadata(path).expect("csv metadata").len() as usize
}

/// Ingests the CSV at `csv` into spill segments of `seg_rows` rows under
/// `spill` on `threads` workers.
fn spill_ingest(csv: &Path, seg_rows: usize, spill: &Path, threads: usize) -> SegmentedDataset {
    let config = StoreConfig::spilling(seg_rows, spill).with_threads(threads);
    ingest_csv_file(agrawal_schema(), class_names(), csv, config).expect("ingest")
}

/// Parses the rows of the Agrawal CSV `data` on the calling thread, on
/// the store's chunk grid (line-aligned [`nr_store::INGEST_CHUNK_BYTES`]
/// blocks), dropping each block's columns; returns the row count.
fn parse_blocks(data: &[u8]) -> usize {
    let (schema, classes) = (agrawal_schema(), class_names());
    let body = &data[data
        .iter()
        .position(|&b| b == b'\n')
        .map_or(data.len(), |p| p + 1)..];
    let (mut rows, mut start) = (0, 0);
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

/// The out-of-core ingest scoreboard and its bars.
pub struct Ingest {
    rows: usize,
    csv_bytes: usize,
    runs: usize,
    /// Serial reader, parse-only on one thread, spill ingest at 1/2/4.
    pub contenders: Vec<Timing>,
    heap: Bar,
    checksum: Bar,
    pub spill: Bar,
}

/// Times the ingest contenders over one generated CSV, runs the bounded
/// heap pass (scoring with `model`) and the checksum-cost pass, and
/// checks their bars. Scratch files live in the temp dir.
pub fn ingest(model: &Model, size: &Size) -> Ingest {
    let dir = std::env::temp_dir().join(format!("nr-repro-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (rows, seg_rows) = (size.ooc_rows, size.seg_rows);
    let csv = dir.join("out-of-core.csv");
    let csv_bytes = write_csv(&csv, rows);
    let spill_dir = dir.join("spill");
    let median = |label, f: &dyn Fn() -> usize| Timing::median_of(label, rows, size.ingest_runs, f);

    let map = MappedFile::open(&csv).expect("map csv");
    let mut contenders = vec![
        median("serial streaming reader (in-RAM `Dataset`)", &|| {
            let file = std::io::BufReader::new(std::fs::File::open(&csv).expect("open csv"));
            nr_tabular::read_csv_streaming(agrawal_schema(), class_names(), file)
                .expect("parse")
                .len()
        }),
        median("parse only, 1 thread (no sealing)", &|| {
            let parsed = parse_blocks(map.bytes());
            assert_eq!(parsed, rows);
            parsed
        }),
    ];
    drop(map);
    for (threads, label) in [
        (1, "mmap spill ingest, 1 thread"),
        (2, "mmap spill ingest, 2 threads"),
        (4, "mmap spill ingest, 4 threads"),
    ] {
        contenders.push(median(label, &|| {
            spill_ingest(&csv, seg_rows, &spill_dir, threads).rows()
        }));
    }

    // Ingest the whole file into spill segments, fit an encoder across the
    // segment views, and encode and score every row one segment at a time
    // (only one segment's encoded batch is ever live), while the counting
    // allocator watches the high-water mark. The model was trained on a
    // small in-RAM sample: scoring the rows out-of-core is the claim.
    let compiled = model.compile();
    let ((n_scored, n_spill), peak) = peak_above_baseline(|| {
        let store = spill_ingest(&csv, seg_rows, &spill_dir, 4);
        let enc = Encoder::fit_views(store.views(), 5).expect("fit encoder over segments");
        let mut scored = 0;
        for view in store.views() {
            assert_eq!(enc.encode_view(&view).rows(), view.len());
            scored += compiled.predict_batch(&view).len();
        }
        (scored, store.n_spill_files())
    });
    assert_eq!(n_scored, rows);
    std::fs::remove_file(&csv).expect("remove csv");
    let spill = Bar::new(
        "the out-of-core run spills",
        format!("{n_spill} spill files"),
        n_spill > 0,
    )
    .enforce(true);
    let heap = heap_bar(peak, csv_bytes).enforce(size.armed);
    let checksum = checksum_cost(&dir, size).enforce(size.armed);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    Ingest {
        rows,
        csv_bytes,
        runs: size.ingest_runs,
        contenders,
        heap,
        checksum,
        spill,
    }
}

/// Best of three verified spill ingests (every segment seal re-reads its
/// file and checks the header, region and whole-file CRCs) against best
/// of three bare [`crc32`] passes over the same spilled segment bytes —
/// the verification work by itself.
fn checksum_cost(dir: &Path, size: &Size) -> Bar {
    let rows = size.checksum_rows;
    let csv = dir.join("checksum-cost.csv");
    write_csv(&csv, rows);
    let spill_dir = dir.join("checksum-spill");
    let ingest = || spill_ingest(&csv, size.seg_rows, &spill_dir, 4);
    // Mapped while the store that owns them is alive (non-durable spill
    // files are unlinked with it; a mapping keeps its file readable).
    let segments: Vec<MappedFile> = {
        let store = ingest();
        let maps: Vec<MappedFile> = std::fs::read_dir(&spill_dir)
            .expect("list spill dir")
            .map(|e| MappedFile::open(&e.expect("spill entry").path()).expect("map segment"))
            .collect();
        assert_eq!(maps.len(), store.n_spill_files());
        maps
    };
    let verified = runs(3, || assert_eq!(ingest().rows(), rows))[0];
    let checksum = runs(3, || {
        segments.iter().fold(0, |acc, m| acc ^ crc32(m.bytes()))
    })[0];
    checksum_bar(verified, checksum)
}

impl Ingest {
    pub fn markdown(&self) -> String {
        format!(
            "Measured in-process (median of {} passes over {} rows, a {:.0} MiB CSV;\n\
             host: {} cores). The mmap rows parse the same CSV into spill-file\n\
             segments through `nr_store::ingest_csv_file` — output pinned\n\
             bit-identical to the serial reader at every thread count; parsing\n\
             runs on the worker pool while one sealer thread appends, spills and\n\
             verifies, so even one worker overlaps the two. The parse-only row is\n\
             the same chunk grid parsed on one thread with no sealing at all.\n\n{}\n\
             The end-to-end out-of-core pass — ingest → encoder fit over segment\n\
             views → encode and compiled scoring, one mapped segment at a time —\n\
             runs under a counting allocator. Bars:\n\n- {}\n- {}\n- {} (asserted at every size)\n",
            self.runs,
            self.rows,
            self.csv_bytes as f64 / (1024.0 * 1024.0),
            host_cores(),
            table("contender", "pass", &self.contenders, 2),
            self.heap.line(),
            self.checksum.line(),
            self.spill.line(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn quick_model() -> &'static Model {
        static MODEL: OnceLock<Model> = OnceLock::new();
        MODEL.get_or_init(|| crate::smoke::fit().0)
    }

    fn assert_rendered(timings: &[Timing], markdown: &str) {
        for t in timings {
            let rate = t.rows_per_sec();
            assert!(rate.is_finite() && rate > 0.0, "{}: {rate} rows/s", t.label);
            assert!(
                markdown.contains(t.label),
                "{} missing from the table",
                t.label
            );
        }
    }

    #[test]
    fn quick_serving_renders_all_four_engine_rows() {
        let serving = serving(quick_model(), &QUICK);
        assert_eq!(serving.engines.len(), 4);
        let markdown = serving.markdown();
        assert_rendered(&serving.engines, &markdown);
    }

    #[test]
    fn quick_ingest_renders_all_five_contenders_and_spills() {
        let ingest = ingest(quick_model(), &QUICK);
        assert_eq!(ingest.contenders.len(), 5);
        assert_rendered(&ingest.contenders, &ingest.markdown());
        assert!(ingest.spill.holds);
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn speedup_bar_is_2x() {
        assert!(speedup_bar(ms(100), ms(200)).holds);
        assert!(!speedup_bar(ms(100), Duration::from_micros(199_900)).holds);
    }

    #[test]
    fn heap_bar_is_a_quarter_of_the_csv() {
        assert!(heap_bar(249, 1000).holds);
        assert!(!heap_bar(250, 1000).holds);
    }

    #[test]
    fn checksum_bar_is_10_percent() {
        assert!(checksum_bar(ms(1100), Duration::from_micros(99_900)).holds);
        assert!(!checksum_bar(ms(1100), ms(100)).holds);
    }
}
