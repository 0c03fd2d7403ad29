//! Out-of-core segmented columnar store for the NeuroRule pipeline.
//!
//! The paper's framing is data mining *on large databases*; the in-RAM
//! [`nr_tabular::Dataset`] caps that at available memory and its serial
//! CSV reader was the measured ingest bottleneck. This crate adds the
//! data layer that lifts both limits without rewriting any consumer:
//!
//! * **Segments** ([`SegmentedDataset`]) — fixed-size immutable column
//!   slabs, each an ordinary [`nr_tabular::Dataset`], living either in
//!   anonymous RAM or in memory-mapped spill files ([`MappedFile`],
//!   `segfile`). Mapped segments expose their columns as zero-copy
//!   [`nr_tabular::Buf`] windows, so tree split search, encode batch
//!   fill, rule sweeps, and serving all work segment-at-a-time through
//!   the [`nr_tabular::DatasetView`] surface they already speak — while
//!   the kernel pages column data in and out on demand, bounding peak
//!   heap far below total data size.
//! * **Parallel CSV ingest** ([`ingest_csv_bytes`] /
//!   [`ingest_csv_file`]) — the input splits at line boundaries on a
//!   fixed byte grid, chunks parse concurrently on the shared `nr-nn`
//!   worker pool, and results append in chunk order: bit-identical to
//!   [`nr_tabular::read_csv_streaming`] at any thread count.
//! * **Dictionary encoding** ([`ingest_csv_bytes_with_dict`]) — nominal
//!   categories discovered from the data and coded by descending
//!   frequency, so encoded width (and the network input layer) tracks
//!   observed cardinality instead of declared domains.

#![deny(missing_docs)]

mod crc;
mod dict;
pub mod fault;
mod ingest;
pub mod manifest;
mod mmap;
mod segfile;
mod store;

pub use crc::{crc32, Crc32};
pub use dict::{ingest_csv_bytes_with_dict, ingest_csv_file_with_dict, DictIngest, Dictionary};
pub use ingest::{
    ingest_csv_bytes, ingest_csv_file, ingest_csv_file_resumable, ResumedIngest, INGEST_CHUNK_BYTES,
};
pub use manifest::{Manifest, SegmentEntry, SourceStamp};
pub use mmap::{MappedFile, Pod, TypedRegion};
pub use segfile::{load_segment, segment_file_crc, write_segment, SegmentMeta};
pub use store::{RecoveryReport, SegmentWriter, SegmentedDataset, SpillMode, StoreConfig};

/// Errors produced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// Parsing or dataset-validation failure.
    Tabular(nr_tabular::TabularError),
    /// Spill-file or mapping I/O failure.
    Io(std::io::Error),
    /// A persisted file failed integrity verification: bad magic,
    /// truncation, a checksum mismatch, or a journal that disagrees with
    /// the files on disk. `section` names what exactly failed.
    Corrupt {
        /// The offending file.
        path: std::path::PathBuf,
        /// Which part of the file failed, human-readable.
        section: String,
    },
}

impl From<nr_tabular::TabularError> for StoreError {
    fn from(e: nr_tabular::TabularError) -> Self {
        StoreError::Tabular(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Tabular(e) => write!(f, "store: {e}"),
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Corrupt { path, section } => {
                write!(f, "corrupt store file {}: {section}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Tabular(e) => Some(e),
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}
