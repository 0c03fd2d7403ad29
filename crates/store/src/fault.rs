//! Disk-fault injection: the corruption and crash primitives behind the
//! durability test suite and the daemon's chaos harness.
//!
//! Two kinds of fault live here:
//!
//! * **Byte-level corruptors** ([`flip_bit`], [`truncate`],
//!   [`zero_range`], [`torn_rename`]) — deterministic mutations of files
//!   already on disk, used to prove every load path answers corruption
//!   with a clean `Err` (never a panic, hang, or silently-wrong data).
//! * **Crash points** ([`arm_crash`]) — process-global failpoints inside
//!   the store's segment-seal path that simulate `kill -9` at the
//!   protocol's interesting instants: mid-segment-write (a torn temp
//!   file), before the publishing rename (a complete temp file), and
//!   after the rename but before the manifest commit (an unlisted
//!   segment). When a crash point fires, the seal path deliberately
//!   **skips its own cleanup** — that is the point: a real kill runs no
//!   destructors — and returns a [`StoreError::Io`](crate::StoreError::Io) of kind
//!   [`std::io::ErrorKind::Interrupted`] tagged `simulated kill`.
//!
//! Crash points are global state; tests that arm them must serialize
//! (take a shared lock) and disarm on the way out. [`DiskFaultInjector`]
//! wraps the corruptors with counters so harnesses can report how many
//! faults they actually injected.

use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where in the seal protocol a simulated kill strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Mid-write of the segment temp file: the temp is truncated to half
    /// its bytes and left behind, as a torn write would.
    MidSegmentWrite,
    /// The temp file is complete (and fsynced, in durable mode) but the
    /// publishing rename never happens.
    BeforeRename,
    /// The segment file is published but the manifest commit recording it
    /// never happens — the classic "crash between the two writes".
    AfterRename,
}

struct ArmedCrash {
    point: CrashPoint,
    /// Seals to let through before firing.
    remaining: usize,
}

static ARMED: Mutex<Option<ArmedCrash>> = Mutex::new(None);

/// Arms a one-shot crash at `point`, letting `after_seals` seals complete
/// first. Tests must hold their own lock around arm → operation → disarm;
/// the store is process-global.
pub fn arm_crash(point: CrashPoint, after_seals: usize) {
    *ARMED.lock().unwrap() = Some(ArmedCrash {
        point,
        remaining: after_seals,
    });
}

/// Disarms any armed crash point.
pub fn disarm_crash() {
    *ARMED.lock().unwrap() = None;
}

/// Called by the seal path at each crash point. Returns `true` when the
/// armed crash fires here (and consumes it).
pub(crate) fn crash_fires(point: CrashPoint) -> bool {
    let mut armed = ARMED.lock().unwrap();
    match armed.as_mut() {
        Some(a) if a.point == point => {
            if a.remaining == 0 {
                *armed = None;
                true
            } else {
                // Only the firing point's own passage counts down, so
                // "after N seals" means N completed seals of this kind.
                a.remaining -= 1;
                false
            }
        }
        _ => false,
    }
}

/// The error a fired crash point surfaces: `Interrupted`, tagged so tests
/// can tell a simulated kill from a genuine I/O failure.
pub fn simulated_kill() -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        "simulated kill (fault injection)",
    )
}

/// True when `e` is the simulated-kill error.
pub fn is_simulated_kill(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Interrupted && e.to_string().contains("simulated kill")
}

/// Flips one bit of the byte at `offset` in the file at `path`.
pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte)?;
    byte[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&byte)
}

/// Truncates the file at `path` to `keep` bytes.
pub fn truncate(path: &Path, keep: u64) -> io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(keep)
}

/// Zeroes `len` bytes starting at `offset` (simulates a lost sector).
pub fn zero_range(path: &Path, offset: u64, len: usize) -> io::Result<()> {
    let mut f = OpenOptions::new().write(true).open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&vec![0u8; len])
}

/// Simulates a torn rename: the destination receives only the first
/// `keep` bytes of the source, and the source vanishes — the on-disk
/// outcome of a non-atomic replace cut short.
pub fn torn_rename(src: &Path, dst: &Path, keep: u64) -> io::Result<()> {
    let mut data = Vec::new();
    OpenOptions::new()
        .read(true)
        .open(src)?
        .read_to_end(&mut data)?;
    data.truncate(usize::try_from(keep).unwrap_or(data.len()));
    std::fs::write(dst, &data)?;
    std::fs::remove_file(src)
}

/// A counting wrapper over the corruptors, so chaos harnesses can report
/// how many disk faults they injected alongside the daemon's
/// delay/panic counters.
#[derive(Debug, Default)]
pub struct DiskFaultInjector {
    injected: AtomicU64,
}

impl DiskFaultInjector {
    /// A fresh injector with zeroed counters.
    pub fn new() -> DiskFaultInjector {
        DiskFaultInjector::default()
    }

    /// Total faults injected through this injector.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Counting [`flip_bit`].
    pub fn flip_bit(&self, path: &Path, offset: u64, bit: u8) -> io::Result<()> {
        flip_bit(path, offset, bit)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counting [`truncate`].
    pub fn truncate(&self, path: &Path, keep: u64) -> io::Result<()> {
        truncate(path, keep)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counting [`zero_range`].
    pub fn zero_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<()> {
        zero_range(path, offset, len)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counting [`torn_rename`].
    pub fn torn_rename(&self, src: &Path, dst: &Path, keep: u64) -> io::Result<()> {
        torn_rename(src, dst, keep)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("nr-fault-{}-{tag}-{n}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn corruptors_do_what_they_say() {
        let path = temp_file("corrupt", &[0u8; 16]);
        flip_bit(&path, 3, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[3], 4);
        truncate(&path, 5).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 5);
        let dst = temp_file("torn-dst", b"");
        torn_rename(&path, &dst, 2).unwrap();
        assert!(!path.exists());
        assert_eq!(std::fs::read(&dst).unwrap().len(), 2);
        std::fs::remove_file(&dst).unwrap();
    }

    #[test]
    fn crash_points_count_down_and_fire_once() {
        // Serialized implicitly: this is the only in-crate test touching
        // the global, and the integration suite uses its own lock.
        arm_crash(CrashPoint::BeforeRename, 2);
        assert!(!crash_fires(CrashPoint::MidSegmentWrite), "wrong point");
        assert!(!crash_fires(CrashPoint::BeforeRename), "first pass");
        assert!(!crash_fires(CrashPoint::BeforeRename), "second pass");
        assert!(crash_fires(CrashPoint::BeforeRename), "fires third");
        assert!(!crash_fires(CrashPoint::BeforeRename), "one-shot");
        disarm_crash();
        assert!(is_simulated_kill(&simulated_kill()));
    }
}
