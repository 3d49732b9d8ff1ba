//! Offline stand-in for the `bytes` crate.
//!
//! The container this workspace builds in has no crates.io access, so the
//! workspace vendors the *minimal* API surface it actually uses: cheaply
//! clonable immutable [`Bytes`], a growable [`BytesMut`] builder, and the
//! little-endian [`BufMut`] putters. Semantics match the real crate for
//! this subset; swapping the real dependency back in is a one-line change
//! in the workspace manifest.

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
///
/// Clones share one allocation (`Arc<Vec<u8>>`), so passing payloads
/// between simulated initiators, fabrics and targets never copies data —
/// the zero-copy property the NVMe-oPF queues rely on. The `Vec` backing
/// (rather than `Arc<[u8]>`) makes `From<Vec<u8>>` and
/// [`BytesMut::freeze`] true moves, matching the real crate: a payload is
/// allocated exactly once, where it is built. A handle is a view
/// `start..end` of that allocation, so [`Bytes::slice`] shares it too.
/// Equality, ordering and hashing go by the viewed bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: u32,
    end: u32,
}

const _: () = assert!(std::mem::size_of::<Bytes>() == 16);

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static slice (copies here, unlike the real crate — fine for
    /// the small headers this workspace uses it on).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Copy a slice into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copy out to a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// A view of `self[range]` sharing this allocation.
    ///
    /// # Panics
    /// When the range is reversed or runs past `self.len()`.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end, "range start {start} > range end {end}");
        assert!(
            end <= self.len(),
            "range end {end} out of bounds: {}",
            self.len()
        );
        // Both fit: `end <= self.len() <= u32::MAX`.
        Bytes {
            data: self.data.clone(),
            start: self.start + start as u32,
            end: self.start + end as u32,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "..{} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    /// A move, not a copy: the Vec's allocation becomes the shared
    /// payload buffer.
    ///
    /// # Panics
    /// When `v` is longer than `u32::MAX` bytes.
    fn from(v: Vec<u8>) -> Bytes {
        let end = u32::try_from(v.len()).expect("a Bytes holds at most u32::MAX bytes");
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Write primitives, as used by the PDU and HDF5 encoders.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_sharing() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(0xAB);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xDEADBEEF);
        b.put_slice(&[1, 2, 3]);
        assert_eq!(b.len(), 10);
        let frozen = b.freeze();
        assert_eq!(&frozen[..3], &[0xAB, 0x34, 0x12]);
        let clone = frozen.clone();
        assert_eq!(clone, frozen);
        assert_eq!(clone.to_vec(), frozen.to_vec());
    }

    #[test]
    fn from_vec_and_slice() {
        let v = vec![9u8; 4096];
        let b = Bytes::from(v.clone());
        assert_eq!(b.len(), 4096);
        assert_eq!(b, v);
        assert_eq!(Bytes::copy_from_slice(&v), b);
        assert_eq!(b.slice(1..3).to_vec(), vec![9u8, 9]);
    }

    #[test]
    fn slices_are_views_of_one_allocation() {
        let b = Bytes::from((0..=255u8).collect::<Vec<_>>());
        let s = b.slice(16..128);
        assert_eq!(s.len(), 112);
        assert_eq!(s[0], 16);
        assert_eq!(s.as_ptr(), b[16..].as_ptr(), "slice copied");
        let ss = s.slice(8..=9);
        assert_eq!(&ss[..], &[24, 25]);
        assert_eq!(ss.as_ptr(), b[24..].as_ptr(), "slice of a slice copied");
        assert!(s.slice(112..).is_empty());
        assert_eq!(s.slice(..), s);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_view_panics() {
        // In range of the allocation, past the end of the view.
        let b = Bytes::from(vec![0u8; 64]).slice(0..32);
        let _ = b.slice(30..40);
    }

    #[test]
    #[should_panic(expected = "range start")]
    fn reversed_slice_panics() {
        let (from, to) = (10, 5);
        let _ = Bytes::from(vec![0u8; 64]).slice(from..to);
    }

    #[test]
    fn equality_hash_and_order_go_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let whole = Bytes::from(vec![1u8, 2, 3, 1, 2, 3, 4]);
        let (a, b) = (whole.slice(0..3), whole.slice(3..6));
        let fresh = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&fresh));
        assert!(
            whole.slice(3..7) > a,
            "a longer view with the same prefix sorts after"
        );
        assert_ne!(whole.slice(0..2), a);
        assert_eq!(Bytes::new(), whole.slice(7..));
    }
}
