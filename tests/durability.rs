//! Crash-safety and corruption contract, end to end: every persisted
//! artifact (NRSEG02 segments, store journals, model-registry bundles)
//! either loads exactly what was written or fails with a clean typed
//! error — never a panic, never silently wrong data — and every
//! interrupted commit recovers to the last committed state.
//!
//! Three layers under test:
//!
//! * **files** — exhaustive bit-flip and truncation sweeps over segment,
//!   journal, and registry files (several thousand injected corruptions;
//!   the acceptance floor is 500);
//! * **ingest** — simulated kills at every seal crash point and around
//!   every segment-boundary row count, then resume: the recovered store
//!   must be bit-identical (per-segment file CRCs) to an uninterrupted
//!   run;
//! * **daemon** — a restart onto a registry whose newest bundle is
//!   corrupt boots the previous good version and serves correct answers,
//!   and `POST /model/rollback` steps back a live daemon.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nr_daemon::fixture::serving_fixture;
use nr_daemon::{Client, Daemon, DaemonConfig, HealthResponse, RollbackResponse, StatsResponse};
use nr_datagen::{agrawal_schema, class_names, Function, Generator};
use nr_serve::{registry::QUARANTINE_DIR, ModelRegistry, PredictResponse, SwapResponse};
use nr_store::fault::{arm_crash, disarm_crash, is_simulated_kill, CrashPoint, DiskFaultInjector};
use nr_store::{
    ingest_csv_file, ingest_csv_file_resumable, load_segment, segment_file_crc, write_segment,
    Manifest, SegmentedDataset, StoreConfig, StoreError,
};
use nr_tabular::read_csv_streaming;
use proptest::prelude::*;

/// A unique scratch directory under the system temp dir; tests write
/// nowhere else.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nr-durability-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Serializes the tests that arm the store's process-global crash point.
static CRASH_LOCK: Mutex<()> = Mutex::new(());

/// A small, cheap-to-serialize model for registry-file sweeps (the
/// daemon tests use the full lattice fixture; the per-case proptests
/// don't need its bulk). Built once.
fn small_model() -> &'static nr_serve::ServeModel {
    static MODEL: std::sync::OnceLock<nr_serve::ServeModel> = std::sync::OnceLock::new();
    MODEL.get_or_init(|| {
        let encoder = nr_encode::Encoder::agrawal();
        let net = nr_nn::Mlp::random(encoder.n_inputs(), 4, 2, 13);
        let rules = nr_rules::RuleSet::new(Vec::new(), 0, vec!["A".into(), "B".into()]);
        nr_serve::ServeModel::new(&rules, encoder, net, nr_serve::ServeMode::Network)
    })
}

/// Agrawal CSV bytes for `n` tuples.
fn csv_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    Generator::new(seed)
        .with_perturbation(0.05)
        .write_csv_streaming(Function::F2, n, &mut bytes)
        .expect("write csv to memory");
    bytes
}

/// The store's own loader must answer every corruption of a segment file
/// with `StoreError::Corrupt` — checked for every byte (one flipped bit
/// each) and a sweep of truncation lengths. This single test injects
/// thousands of corruptions, well past the 500 floor, and asserts none
/// of them panics (the loader runs behind a panic barrier so a panic is
/// reported as the failure it is, not an abort).
#[test]
fn every_segment_corruption_is_a_clean_typed_error() {
    let dir = scratch_dir("seg-sweep");
    let bytes = csv_bytes(48, 11);
    let ds = read_csv_streaming(agrawal_schema(), class_names(), &bytes[..]).unwrap();
    let clean_path = dir.join("clean.nrseg");
    write_segment(&ds, &clean_path).unwrap();
    let clean = std::fs::read(&clean_path).unwrap();

    let injector = DiskFaultInjector::new();
    let victim = dir.join("victim.nrseg");
    let mut outcomes = (0u64, 0u64); // (rejected, survived-identical)
    for offset in 0..clean.len() {
        std::fs::write(&victim, &clean).unwrap();
        injector
            .flip_bit(&victim, offset as u64, (offset % 8) as u8)
            .unwrap();
        match checked_load(&victim) {
            LoadOutcome::Corrupt => outcomes.0 += 1,
            LoadOutcome::Panicked => panic!("bit flip at byte {offset} made the loader panic"),
            LoadOutcome::Loaded(loaded) => {
                // A load that still succeeds must mean the flip did not
                // survive to the checked bytes — impossible here, since
                // every byte of the file is covered by a checksum.
                panic!("bit flip at byte {offset} loaded anyway ({} rows)", loaded);
            }
        }
    }
    // Truncations, including cutting inside the header and to zero.
    for keep in (0..clean.len() as u64).step_by(41) {
        std::fs::write(&victim, &clean).unwrap();
        injector.truncate(&victim, keep).unwrap();
        match checked_load(&victim) {
            LoadOutcome::Corrupt => outcomes.0 += 1,
            LoadOutcome::Panicked => panic!("truncation to {keep} bytes made the loader panic"),
            LoadOutcome::Loaded(_) => panic!("truncation to {keep} bytes loaded anyway"),
        }
    }
    assert!(
        injector.injected() >= 500,
        "sweep must inject at least 500 corruptions, got {}",
        injector.injected()
    );
    assert_eq!(outcomes.0, injector.injected(), "every corruption rejected");
    std::fs::remove_dir_all(&dir).unwrap();
}

enum LoadOutcome {
    Corrupt,
    Loaded(usize),
    Panicked,
}

/// Loads a segment behind a panic barrier, classifying the outcome.
fn checked_load(path: &Path) -> LoadOutcome {
    let path = path.to_path_buf();
    match std::panic::catch_unwind(move || load_segment(&agrawal_schema(), &class_names(), &path)) {
        Err(_) => LoadOutcome::Panicked,
        Ok(Err(StoreError::Corrupt { .. })) => LoadOutcome::Corrupt,
        Ok(Err(e)) => panic!("expected StoreError::Corrupt, got {e}"),
        Ok(Ok(ds)) => LoadOutcome::Loaded(ds.len()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random multi-bit corruption of a segment file (several flips per
    /// case, anywhere in the file) — still always `Corrupt`, never a
    /// panic or a wrong load.
    #[test]
    fn random_multibit_segment_corruption_always_rejects(
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..6),
        seed in 0u64..64,
    ) {
        let dir = scratch_dir("seg-prop");
        let bytes = csv_bytes(24, seed);
        let ds = read_csv_streaming(agrawal_schema(), class_names(), &bytes[..]).unwrap();
        let path = dir.join("seg.nrseg");
        write_segment(&ds, &path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let mut touched = false;
        for (offset, bit) in flips {
            let offset = offset as u64 % len;
            nr_store::fault::flip_bit(&path, offset, bit).unwrap();
            touched = true;
        }
        prop_assert!(touched);
        match checked_load(&path) {
            LoadOutcome::Corrupt => {}
            // An even number of flips landing on the same bit restores
            // the clean file; accept a load only if it is bit-identical.
            LoadOutcome::Loaded(rows) => prop_assert_eq!(rows, ds.len()),
            LoadOutcome::Panicked => prop_assert!(false, "loader panicked"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Random corruption of a store journal: `Manifest::load` answers
    /// `Corrupt` (or, for an even self-cancelling flip set, the original
    /// journal) — never a panic.
    #[test]
    fn random_journal_corruption_always_rejects(
        offset in 0usize..4096,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir("journal-prop");
        let store_dir = dir.join("store");
        let bytes = csv_bytes(20, 3);
        let src = dir.join("rows.csv");
        std::fs::write(&src, &bytes).unwrap();
        ingest_csv_file_resumable(
            agrawal_schema(),
            class_names(),
            &src,
            StoreConfig::spilling(8, &store_dir),
        )
        .unwrap();
        let mpath = Manifest::path_in(&store_dir);
        let len = std::fs::metadata(&mpath).unwrap().len();
        nr_store::fault::flip_bit(&mpath, offset as u64 % len, bit).unwrap();
        let outcome = std::panic::catch_unwind(|| Manifest::load(&store_dir));
        match outcome {
            Err(_) => prop_assert!(false, "Manifest::load panicked"),
            Ok(Err(StoreError::Corrupt { .. })) => {}
            Ok(Err(e)) => prop_assert!(false, "expected Corrupt, got {}", e),
            Ok(Ok(_)) => prop_assert!(false, "flipped journal loaded anyway"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Random corruption of a registry journal: opening the registry
    /// never panics and never errors — it quarantines the journal and
    /// rebuilds from the (still valid) bundle files.
    #[test]
    fn corrupt_registry_journal_rebuilds_without_panic(
        offset in 0usize..65536,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir("registry-prop");
        let mut registry = ModelRegistry::open(&dir, 4).unwrap();
        registry.commit(small_model()).unwrap();
        let jpath = dir.join(nr_serve::registry::REGISTRY_FILE);
        let len = std::fs::metadata(&jpath).unwrap().len();
        nr_store::fault::flip_bit(&jpath, offset as u64 % len, bit).unwrap();
        let outcome = std::panic::catch_unwind(|| {
            let mut reopened = ModelRegistry::open(&dir, 4)?;
            reopened.latest_good().map(|m| m.map(|(v, _)| v))
        });
        match outcome {
            Err(_) => prop_assert!(false, "registry open panicked"),
            Ok(Err(e)) => prop_assert!(false, "registry open failed: {}", e),
            // Rebuilt from the bundle, which is still intact.
            Ok(Ok(v)) => prop_assert_eq!(v, Some(1)),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Kills the ingest at every crash point and at row counts bracketing
/// every segment boundary, then resumes: the recovered store must be
/// bit-identical — same per-segment file CRCs — to an uninterrupted
/// ingest of the same source. This is the "crash mid-ingest recovers to
/// the last committed segment" contract, end to end.
#[test]
fn kill_mid_ingest_resumes_bit_identical() {
    let _guard = CRASH_LOCK.lock().unwrap();
    let seg_rows = 16usize;
    let cases: Vec<(usize, CrashPoint, usize)> = [1usize, 15, 16, 17, 53]
        .into_iter()
        .flat_map(|n| {
            [
                CrashPoint::MidSegmentWrite,
                CrashPoint::BeforeRename,
                CrashPoint::AfterRename,
            ]
            .into_iter()
            .map(move |p| (n, p, 0usize))
        })
        .chain([
            (53, CrashPoint::MidSegmentWrite, 1),
            (53, CrashPoint::AfterRename, 2),
        ])
        .collect();
    for (n, point, after_seals) in cases {
        let dir = scratch_dir("kill-resume");
        let src = dir.join("rows.csv");
        std::fs::write(&src, csv_bytes(n, 29)).unwrap();

        // Uninterrupted reference ingest of the same bytes.
        let ref_dir = dir.join("reference");
        let reference = ingest_csv_file(
            agrawal_schema(),
            class_names(),
            &src,
            StoreConfig::spilling(seg_rows, &ref_dir).with_durable(true),
        )
        .unwrap();

        let store_dir = dir.join("store");
        let config = StoreConfig::spilling(seg_rows, &store_dir);
        arm_crash(point, after_seals);
        let killed =
            ingest_csv_file_resumable(agrawal_schema(), class_names(), &src, config.clone());
        disarm_crash();
        match killed {
            Err(StoreError::Io(e)) if is_simulated_kill(&e) => {}
            other => panic!(
                "n={n} {point:?} after {after_seals}: expected the simulated kill, got {:?}",
                other.map(|r| r.store.rows())
            ),
        }

        let resumed =
            ingest_csv_file_resumable(agrawal_schema(), class_names(), &src, config.clone())
                .unwrap_or_else(|e| panic!("n={n} {point:?} after {after_seals}: resume: {e}"));
        assert_eq!(resumed.store.rows(), n, "n={n} {point:?}: row count");
        // A published-but-unjournaled segment (AfterRename) must have
        // been quarantined, not silently adopted.
        if point == CrashPoint::AfterRename {
            assert!(resumed.quarantined >= 1, "n={n}: stray segment quarantined");
        }
        // Bit-identity, file by file.
        assert_eq!(resumed.store.n_segments(), reference.n_segments(), "n={n}");
        for i in 0..reference.n_segments() {
            let file = format!("seg-{i:06}.nrseg");
            assert_eq!(
                segment_file_crc(&store_dir.join(&file)).unwrap(),
                segment_file_crc(&ref_dir.join(&file)).unwrap(),
                "n={n} {point:?} after {after_seals}: segment {file} differs from \
                 the uninterrupted ingest"
            );
        }
        // And the recovered directory reopens cold.
        drop(resumed);
        let reopened = SegmentedDataset::open(&store_dir).unwrap();
        assert_eq!(reopened.rows(), n);
        drop(reopened);
        drop(reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A daemon restarted onto a registry whose *newest* bundle is corrupt
/// must boot the previous good version, answer `/predict` correctly,
/// and surface the quarantine in `/healthz` and `/stats`.
#[test]
fn daemon_reboots_into_last_good_model_after_corrupt_bundle() {
    let root = scratch_dir("daemon-reboot");
    let fx = serving_fixture(8);
    let config = || DaemonConfig {
        registry: Some(root.clone()),
        ..DaemonConfig::default()
    };

    // First life: boot (commits model A as v1), deploy model B (v2).
    let daemon = Daemon::start(config(), vec![("default".into(), fx.model_a.clone())]).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let (status, body) = client
        .request("PUT", "/model", &fx.model_b.to_json().unwrap())
        .unwrap();
    assert_eq!(status, 200, "deploy B: {body}");
    assert_eq!(
        serde_json::from_str::<SwapResponse>(&body).unwrap().version,
        2
    );
    let (status, body) = client.request("POST", "/predict", &fx.rows[0]).unwrap();
    assert_eq!(status, 200);
    let b: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(b.class, 1 - fx.expected_a[0], "model B serves");
    drop(client);
    daemon.shutdown();

    // Corrupt the newest committed bundle on disk.
    let v2 = root.join("default").join(nr_serve::bundle_file_name(2));
    assert!(v2.is_file(), "v2 bundle committed at {}", v2.display());
    nr_store::fault::flip_bit(&v2, 120, 3).unwrap();

    // Second life: the corrupt v2 is quarantined, v1 (model A) boots.
    let daemon = Daemon::start(config(), vec![("default".into(), fx.model_a.clone())]).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    for (i, row) in fx.rows.iter().enumerate() {
        let (status, body) = client.request("POST", "/predict", row).unwrap();
        assert_eq!(status, 200, "predict after reboot: {body}");
        let p: PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(p.class, fx.expected_a[i], "row {i}: model A answers");
    }
    let (status, body) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let health: HealthResponse = serde_json::from_str(&body).unwrap();
    assert!(health.ok);
    assert_eq!(health.registry.len(), 1);
    assert_eq!(health.registry[0].current_version, 1, "booted v1");
    assert!(health.registry[0].quarantined >= 1, "quarantine surfaced");
    let (status, body) = client.request("GET", "/stats", "").unwrap();
    assert_eq!(status, 200);
    let stats: StatsResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(stats.registries.len(), 1);
    assert_eq!(stats.registries[0].current_version, 1);
    assert!(
        root.join("default").join(QUARANTINE_DIR).is_dir(),
        "corrupt bundle parked on disk"
    );
    drop(client);
    daemon.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Live rollback: deploy a new version over HTTP, roll it back over
/// HTTP, and confirm both the serving answers and the durable pointer
/// (a subsequent restart boots the rolled-back version).
#[test]
fn rollback_endpoint_steps_back_durably() {
    let root = scratch_dir("daemon-rollback");
    let fx = serving_fixture(4);
    let config = || DaemonConfig {
        registry: Some(root.clone()),
        ..DaemonConfig::default()
    };

    let daemon = Daemon::start(config(), vec![("default".into(), fx.model_a.clone())]).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let (status, _) = client
        .request("PUT", "/model", &fx.model_b.to_json().unwrap())
        .unwrap();
    assert_eq!(status, 200);
    let (_, body) = client.request("POST", "/predict", &fx.rows[0]).unwrap();
    let before: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(before.class, 1 - fx.expected_a[0]);

    let (status, body) = client.request("POST", "/model/rollback", "").unwrap();
    assert_eq!(status, 200, "rollback: {body}");
    let rolled: RollbackResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(rolled.registry_version, 1, "back to the first commit");
    let (_, body) = client.request("POST", "/predict", &fx.rows[0]).unwrap();
    let after: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(after.class, fx.expected_a[0], "model A serves again");

    // Rolling back past the first version is refused cleanly.
    let (status, _) = client.request("POST", "/model/rollback", "").unwrap();
    assert_eq!(status, 409, "nothing earlier to roll back to");
    drop(client);
    daemon.shutdown();

    // The pointer is durable: a restart boots the rolled-back version.
    let daemon = Daemon::start(config(), vec![("default".into(), fx.model_b.clone())]).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let (_, body) = client.request("POST", "/predict", &fx.rows[0]).unwrap();
    let booted: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(
        booted.class, fx.expected_a[0],
        "restart honors the rollback, ignoring the passed-in fallback"
    );
    drop(client);
    daemon.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A daemon without a registry refuses rollback with a clean 409 and
/// keeps its bare `/healthz` body (probes pin the exact string).
#[test]
fn rollback_without_registry_is_a_clean_409() {
    let fx = serving_fixture(1);
    let daemon = Daemon::start(
        DaemonConfig::default(),
        vec![("default".into(), fx.model_a.clone())],
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let (status, _) = client.request("POST", "/model/rollback", "").unwrap();
    assert_eq!(status, 409);
    let (status, body) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"ok":true}"#));
    drop(client);
    daemon.shutdown();
}

/// The retired unchecksummed v1 format is gone: a file carrying the
/// `NRSEG01` magic is plain corruption, whether it is the bare magic or a
/// full segment body behind it.
#[test]
fn legacy_nrseg01_magic_is_corrupt() {
    let dir = scratch_dir("legacy");
    let bytes = csv_bytes(12, 5);
    let ds = read_csv_streaming(agrawal_schema(), class_names(), &bytes[..]).unwrap();
    let path = dir.join("legacy.nrseg");
    write_segment(&ds, &path).unwrap();
    let mut full = std::fs::read(&path).unwrap();
    full[..8].copy_from_slice(b"NRSEG01\n");
    for file in [&b"NRSEG01\n"[..], &full[..]] {
        std::fs::write(&path, file).unwrap();
        match load_segment(&agrawal_schema(), &class_names(), &path) {
            Err(StoreError::Corrupt { section, .. }) => {
                assert!(section.contains("magic"), "names the magic: {section}")
            }
            other => panic!(
                "a v1 magic must be Corrupt, got {:?}",
                other.map(|d| d.len())
            ),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
