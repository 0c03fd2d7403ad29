//! Column storage that is either owned or borrowed from a shared source.
//!
//! The columnar [`crate::Dataset`] historically owned every buffer as a
//! `Vec`. Out-of-core segments (the `nr-store` crate) need the same
//! dataset — and therefore the same [`crate::DatasetView`] surface every
//! consumer crate already speaks — over buffers that live in a
//! memory-mapped spill file instead of the heap. [`Buf`] is that seam: a
//! typed buffer that is either an owned `Vec<T>` or a zero-copy window
//! into an `Arc`-shared [`SliceSource`] (e.g. one column region of a
//! mapped segment file).
//!
//! Reads go through `Deref<Target = [T]>`, so every existing column scan
//! compiles unchanged. Mutation (`push`, `extend`, `split_off`, ...) is
//! copy-on-write: mutating a shared buffer first materializes it as an
//! owned `Vec` — immutable mapped segments are never written through, and
//! the ordinary in-RAM construction paths (`push`, `append_columns`) pay
//! nothing because they start owned.

use std::ops::Deref;
use std::sync::Arc;

use serde::ser::SerializeSeq;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A typed read-only slice provider backing a [`Buf::Shared`] buffer.
///
/// Implementors hand out a stable slice for as long as they live (the
/// `Arc` in [`Buf::Shared`] keeps them alive as long as any buffer view
/// does). The canonical implementor is `nr-store`'s mapped segment
/// region; tests use plain `Vec` wrappers.
pub trait SliceSource<T>: Send + Sync + std::fmt::Debug {
    /// The full backing slice.
    fn slice(&self) -> &[T];
}

/// A `Vec` is the trivial slice source (used by tests and by callers that
/// want shared ownership without a mapping).
impl<T: Send + Sync + std::fmt::Debug> SliceSource<T> for Vec<T> {
    fn slice(&self) -> &[T] {
        self
    }
}

/// An owned-or-shared typed buffer. See the module docs.
pub enum Buf<T> {
    /// The ordinary heap-owned buffer (every mutating path stays here).
    Owned(Vec<T>),
    /// A window `[offset, offset + len)` into a shared source — e.g. one
    /// column of a memory-mapped segment file.
    Shared {
        /// The backing source, shared with every sibling column of the
        /// same segment.
        source: Arc<dyn SliceSource<T>>,
        /// Start of this buffer's window in [`SliceSource::slice`].
        offset: usize,
        /// Length of the window.
        len: usize,
    },
}

impl<T> Buf<T> {
    /// An empty owned buffer.
    pub fn new() -> Self {
        Buf::Owned(Vec::new())
    }

    /// An owned buffer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Buf::Owned(Vec::with_capacity(n))
    }

    /// Wraps a window of a shared source without copying. Panics when the
    /// window is out of the source's bounds.
    pub fn shared(source: Arc<dyn SliceSource<T>>, offset: usize, len: usize) -> Self {
        assert!(
            offset
                .checked_add(len)
                .is_some_and(|end| end <= source.slice().len()),
            "shared buffer window [{offset}, {offset}+{len}) out of source bounds {}",
            source.slice().len()
        );
        Buf::Shared {
            source,
            offset,
            len,
        }
    }

    /// The buffer contents as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Buf::Owned(v) => v,
            Buf::Shared {
                source,
                offset,
                len,
            } => &source.slice()[*offset..offset + len],
        }
    }

    /// True when this buffer borrows a shared source (i.e. reads are
    /// zero-copy out of a mapped or otherwise shared region).
    pub fn is_shared(&self) -> bool {
        matches!(self, Buf::Shared { .. })
    }
}

impl<T: Clone> Buf<T> {
    /// The owned `Vec`, materializing a shared buffer on first mutation
    /// (copy-on-write). Owned buffers return themselves untouched.
    fn make_mut(&mut self) -> &mut Vec<T> {
        if let Buf::Shared { .. } = self {
            *self = Buf::Owned(self.as_slice().to_vec());
        }
        match self {
            Buf::Owned(v) => v,
            Buf::Shared { .. } => unreachable!("materialized above"),
        }
    }

    /// Appends one value (copy-on-write for shared buffers).
    pub fn push(&mut self, value: T) {
        self.make_mut().push(value);
    }

    /// Appends every value of an iterator (copy-on-write for shared
    /// buffers).
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, values: I) {
        self.make_mut().extend(values);
    }

    /// Reserves capacity for `additional` more values (copy-on-write for
    /// shared buffers).
    pub fn reserve(&mut self, additional: usize) {
        self.make_mut().reserve(additional);
    }

    /// Moves `[at, len)` into a new owned buffer and keeps `[0, at)` in
    /// place (copy-on-write for shared buffers). Panics when `at > len`.
    pub fn split_off(&mut self, at: usize) -> Buf<T> {
        Buf::Owned(self.make_mut().split_off(at))
    }

    /// Drops the spare capacity of an owned buffer (shared buffers own no
    /// capacity).
    pub fn shrink_to_fit(&mut self) {
        if let Buf::Owned(v) = self {
            v.shrink_to_fit();
        }
    }

    /// The contents as an owned `Vec` — moves out of owned buffers,
    /// copies out of shared ones.
    fn into_vec(self) -> Vec<T> {
        match self {
            Buf::Owned(v) => v,
            Buf::Shared { .. } => self.as_slice().to_vec(),
        }
    }
}

impl<T: Clone> IntoIterator for Buf<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<T> Deref for Buf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Default for Buf<T> {
    fn default() -> Self {
        Buf::new()
    }
}

impl<T> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Self {
        Buf::Owned(v)
    }
}

impl<T: Clone> Clone for Buf<T> {
    fn clone(&self) -> Self {
        match self {
            Buf::Owned(v) => Buf::Owned(v.clone()),
            // Cloning a shared buffer clones the handle, not the data —
            // a cloned mapped dataset stays zero-copy.
            Buf::Shared {
                source,
                offset,
                len,
            } => Buf::Shared {
                source: Arc::clone(source),
                offset: *offset,
                len: *len,
            },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Buf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Content debug (not provenance): a mapped dataset prints like an
        // owned one, which is what test-failure diffs want.
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Equality is by contents — an mmap-backed buffer equals its in-RAM
/// twin, which is exactly what the spill equivalence tests assert.
impl<T: PartialEq> PartialEq for Buf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Serialize> Serialize for Buf<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // As a plain sequence, indistinguishable from Vec<T> on the wire:
        // pre-Buf JSON artifacts load unchanged, and a mapped dataset
        // round-trips to an owned one.
        let slice = self.as_slice();
        let mut seq = serializer.serialize_seq(Some(slice.len()))?;
        for v in slice {
            seq.serialize_element(v)?;
        }
        seq.end()
    }
}

impl<'de, T> Deserialize<'de> for Buf<T>
where
    Vec<T>: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(Buf::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip_and_mutation() {
        let mut b: Buf<f64> = vec![1.0, 2.0].into();
        assert_eq!(&b[..], &[1.0, 2.0]);
        b.push(3.0);
        assert_eq!(b.len(), 3);
        assert!(!b.is_shared());
    }

    #[test]
    fn shared_reads_without_copying_and_cow_on_write() {
        let source: Arc<dyn SliceSource<u32>> = Arc::new(vec![10u32, 11, 12, 13]);
        let mut b = Buf::shared(Arc::clone(&source), 1, 2);
        assert!(b.is_shared());
        assert_eq!(&b[..], &[11, 12]);
        // Mutation detaches: the source is untouched.
        b.push(99);
        assert!(!b.is_shared());
        assert_eq!(&b[..], &[11, 12, 99]);
        assert_eq!(source.slice(), &[10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "out of source bounds")]
    fn shared_window_bounds_are_checked() {
        let source: Arc<dyn SliceSource<u32>> = Arc::new(vec![1u32, 2]);
        let _ = Buf::shared(source, 1, 2);
    }

    #[test]
    fn equality_is_by_contents() {
        let owned: Buf<f64> = vec![1.0, 2.0].into();
        let shared = Buf::shared(Arc::new(vec![0.0, 1.0, 2.0]), 1, 2);
        assert_eq!(owned, shared);
        assert_ne!(owned, Buf::from(vec![1.0]));
    }

    #[test]
    fn clone_of_shared_is_still_shared() {
        let b = Buf::shared(Arc::new(vec![5u32; 4]), 0, 4);
        let c = b.clone();
        assert!(c.is_shared());
        assert_eq!(b, c);
    }

    #[test]
    fn serde_roundtrips_to_owned() {
        let shared: Buf<f64> = Buf::shared(Arc::new(vec![1.5, -2.0]), 0, 2);
        let json = serde_json::to_string(&shared).unwrap();
        assert_eq!(json, "[1.5,-2.0]");
        let back: Buf<f64> = serde_json::from_str(&json).unwrap();
        assert!(!back.is_shared());
        assert_eq!(back, shared);
    }
}
