//! Byte-accurate sparse namespaces.
//!
//! The testbed SSDs are terabyte-scale; the model keeps a sparse map of
//! written 4K blocks so capacity is honoured without allocating it.
//! Unwritten blocks read back as zeros, as on a freshly formatted
//! namespace. Carrying real bytes end-to-end lets integration tests (and
//! the mini-HDF5 layer) verify data integrity through the whole simulated
//! stack, not just timing.

use crate::spec::BLOCK_SIZE;
use simkit::FxHashMap;

/// A logical-block namespace backed by a sparse block map.
#[derive(Debug)]
pub struct Namespace {
    nsid: u32,
    capacity_blocks: u64,
    blocks: FxHashMap<u64, Box<[u8; BLOCK_SIZE]>>,
}

/// Errors from namespace I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NsError {
    /// Access beyond the namespace capacity.
    OutOfRange {
        /// First out-of-range LBA.
        lba: u64,
    },
    /// Buffer length not a whole number of blocks.
    BadLength {
        /// Offending length in bytes.
        len: usize,
    },
}

impl Namespace {
    /// Create a namespace with the given identifier and capacity.
    pub fn new(nsid: u32, capacity_blocks: u64) -> Self {
        Namespace {
            nsid,
            capacity_blocks,
            blocks: FxHashMap::default(),
        }
    }

    /// Namespace identifier.
    pub fn nsid(&self) -> u32 {
        self.nsid
    }

    /// Capacity in logical blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Number of blocks that have been written (sparse occupancy).
    pub fn written_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn check(&self, slba: u64, nblocks: u64) -> Result<(), NsError> {
        let end = slba
            .checked_add(nblocks)
            .ok_or(NsError::OutOfRange { lba: u64::MAX })?;
        if end > self.capacity_blocks {
            return Err(NsError::OutOfRange {
                lba: self.capacity_blocks,
            });
        }
        Ok(())
    }

    /// Write `data` (a whole number of blocks) starting at `slba`.
    pub fn write(&mut self, slba: u64, data: &[u8]) -> Result<(), NsError> {
        if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
            return Err(NsError::BadLength { len: data.len() });
        }
        let nblocks = (data.len() / BLOCK_SIZE) as u64;
        self.check(slba, nblocks)?;
        for (i, chunk) in data.chunks_exact(BLOCK_SIZE).enumerate() {
            let lba = slba + i as u64;
            let block = self
                .blocks
                .entry(lba)
                .or_insert_with(|| Box::new([0u8; BLOCK_SIZE]));
            block.copy_from_slice(chunk);
        }
        Ok(())
    }

    /// Read `nblocks` blocks starting at `slba`.
    pub fn read(&self, slba: u64, nblocks: u64) -> Result<Vec<u8>, NsError> {
        if nblocks == 0 {
            return Err(NsError::BadLength { len: 0 });
        }
        self.check(slba, nblocks)?;
        let mut out = vec![0u8; nblocks as usize * BLOCK_SIZE];
        for i in 0..nblocks {
            if let Some(block) = self.blocks.get(&(slba + i)) {
                let off = i as usize * BLOCK_SIZE;
                out[off..off + BLOCK_SIZE].copy_from_slice(&block[..]);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut ns = Namespace::new(1, 1024);
        let data: Vec<u8> = (0..BLOCK_SIZE * 2).map(|i| (i % 251) as u8).collect();
        ns.write(10, &data).unwrap();
        assert_eq!(ns.read(10, 2).unwrap(), data);
        assert_eq!(ns.written_blocks(), 2);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let ns = Namespace::new(1, 8);
        let out = ns.read(0, 8).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_overlap_preserves_neighbors() {
        let mut ns = Namespace::new(1, 16);
        ns.write(0, &vec![0xAA; BLOCK_SIZE * 3]).unwrap();
        ns.write(1, &vec![0xBB; BLOCK_SIZE]).unwrap();
        assert!(ns.read(0, 1).unwrap().iter().all(|&b| b == 0xAA));
        assert!(ns.read(1, 1).unwrap().iter().all(|&b| b == 0xBB));
        assert!(ns.read(2, 1).unwrap().iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn capacity_enforced() {
        let mut ns = Namespace::new(1, 4);
        assert_eq!(
            ns.write(3, &vec![0; BLOCK_SIZE * 2]),
            Err(NsError::OutOfRange { lba: 4 })
        );
        assert_eq!(ns.read(4, 1), Err(NsError::OutOfRange { lba: 4 }));
        // Edge: exactly at the end is fine.
        ns.write(3, &vec![1; BLOCK_SIZE]).unwrap();
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut ns = Namespace::new(1, 4);
        assert_eq!(ns.write(0, &[1, 2, 3]), Err(NsError::BadLength { len: 3 }));
        assert_eq!(ns.write(0, &[]), Err(NsError::BadLength { len: 0 }));
        assert_eq!(ns.read(0, 0), Err(NsError::BadLength { len: 0 }));
    }

    #[test]
    fn lba_overflow_guarded() {
        let mut ns = Namespace::new(1, u64::MAX);
        let r = ns.write(u64::MAX - 1, &vec![0; BLOCK_SIZE * 3]);
        assert!(matches!(r, Err(NsError::OutOfRange { .. })));
    }

    proptest::proptest! {
        /// Random write sequences: last-writer-wins per block, verified
        /// against a BTreeMap model.
        #[test]
        fn last_writer_wins(writes in proptest::collection::vec(
            (0u64..64, 1u64..4, proptest::prelude::any::<u8>()), 1..40)) {
            let mut ns = Namespace::new(1, 128);
            let mut model: std::collections::BTreeMap<u64, u8> = Default::default();
            for (slba, nblocks, fill) in writes {
                let data = vec![fill; nblocks as usize * BLOCK_SIZE];
                ns.write(slba, &data).unwrap();
                for lba in slba..slba + nblocks {
                    model.insert(lba, fill);
                }
            }
            for (&lba, &fill) in &model {
                let got = ns.read(lba, 1).unwrap();
                proptest::prop_assert!(got.iter().all(|&b| b == fill));
            }
        }
    }
}
