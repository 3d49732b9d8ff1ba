//! The miniature hierarchical file format.
//!
//! A deliberately small cousin of the HDF5 disk format: a superblock
//! addressing a root group, group objects holding name→object tables,
//! and dataset objects with contiguous 1-D data layout. All metadata
//! blocks carry magics and checksums and are encoded/decoded at byte
//! level, so files survive a round trip through the simulated NVMe-oF
//! stack and can be verified independently.

use crate::store::SyncStore;
use nvme::BLOCK_SIZE;

/// Format errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum H5Error {
    /// Wrong magic or version.
    BadMagic,
    /// Structural damage (bad checksum, truncated table...).
    Corrupt(String),
    /// Path lookup failed.
    NotFound(String),
    /// Name already exists in the group.
    Exists(String),
    /// Group table is full.
    GroupFull,
    /// Store I/O error.
    Io(String),
    /// Object too large for the format/store.
    TooLarge,
}

impl std::fmt::Display for H5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for H5Error {}

/// Kind of a named object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectKind {
    /// A group (directory of objects).
    Group,
    /// A 1-D dataset.
    Dataset,
}

/// Element type of a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Dtype {
    /// Unsigned bytes.
    U8 = 0,
    /// 32-bit floats (h5bench particles).
    F32 = 1,
    /// 64-bit floats.
    F64 = 2,
    /// 64-bit signed integers.
    I64 = 3,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            Dtype::U8 => 1,
            Dtype::F32 => 4,
            Dtype::F64 => 8,
            Dtype::I64 => 8,
        }
    }

    fn from_u8(v: u8) -> Option<Dtype> {
        match v {
            0 => Some(Dtype::U8),
            1 => Some(Dtype::F32),
            2 => Some(Dtype::F64),
            3 => Some(Dtype::I64),
            _ => None,
        }
    }
}

const SB_MAGIC: &[u8; 8] = b"MINIH5\r\n";
const GRP_MAGIC: &[u8; 4] = b"GRP1";
const DSE_MAGIC: &[u8; 4] = b"DSE1";
const VERSION: u16 = 1;
const MAX_NAME: usize = 63;

fn checksum(data: &[u8]) -> u32 {
    // Fletcher-ish running sum; enough to catch torn metadata blocks.
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for &byte in data {
        a = a.wrapping_add(u32::from(byte));
        b = b.wrapping_add(a);
    }
    (b << 16) | (a & 0xFFFF)
}

fn seal(block: &mut [u8]) {
    let c = checksum(&block[..BLOCK_SIZE - 4]);
    block[BLOCK_SIZE - 4..].copy_from_slice(&c.to_le_bytes());
}

/// The little-endian integer in `b[off..off + N]`; a block too short
/// to hold it is corrupt.
fn le<const N: usize>(b: &[u8], off: usize) -> Result<[u8; N], H5Error> {
    let bytes = b.get(off..off + N).and_then(|s| s.try_into().ok());
    bytes.ok_or_else(|| H5Error::Corrupt("truncated block".into()))
}

fn verify(block: &[u8]) -> Result<(), H5Error> {
    let stored = u32::from_le_bytes(le(block, BLOCK_SIZE - 4)?);
    if checksum(&block[..BLOCK_SIZE - 4]) != stored {
        return Err(H5Error::Corrupt("checksum mismatch".into()));
    }
    Ok(())
}

#[derive(Clone, Debug)]
struct Superblock {
    root: u64,
    alloc_ptr: u64,
}

impl Superblock {
    fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[..8].copy_from_slice(SB_MAGIC);
        b[8..10].copy_from_slice(&VERSION.to_le_bytes());
        b[16..24].copy_from_slice(&self.root.to_le_bytes());
        b[24..32].copy_from_slice(&self.alloc_ptr.to_le_bytes());
        seal(&mut b);
        b
    }

    fn decode(b: &[u8]) -> Result<Superblock, H5Error> {
        if &b[..8] != SB_MAGIC {
            return Err(H5Error::BadMagic);
        }
        if u16::from_le_bytes([b[8], b[9]]) != VERSION {
            return Err(H5Error::BadMagic);
        }
        verify(b)?;
        Ok(Superblock {
            root: u64::from_le_bytes(le(b, 16)?),
            alloc_ptr: u64::from_le_bytes(le(b, 24)?),
        })
    }
}

#[derive(Clone, Debug)]
struct GroupEntry {
    name: String,
    kind: ObjectKind,
    addr: u64,
}

#[derive(Clone, Debug, Default)]
struct Group {
    entries: Vec<GroupEntry>,
}

impl Group {
    fn encode(&self) -> Result<Vec<u8>, H5Error> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[..4].copy_from_slice(GRP_MAGIC);
        b[4..8].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        let mut off = 8;
        for e in &self.entries {
            let name = e.name.as_bytes();
            let need = 1 + name.len() + 1 + 8;
            if off + need > BLOCK_SIZE - 4 {
                return Err(H5Error::GroupFull);
            }
            b[off] = name.len() as u8;
            off += 1;
            b[off..off + name.len()].copy_from_slice(name);
            off += name.len();
            b[off] = match e.kind {
                ObjectKind::Group => 0,
                ObjectKind::Dataset => 1,
            };
            off += 1;
            b[off..off + 8].copy_from_slice(&e.addr.to_le_bytes());
            off += 8;
        }
        seal(&mut b);
        Ok(b)
    }

    fn decode(b: &[u8]) -> Result<Group, H5Error> {
        if &b[..4] != GRP_MAGIC {
            return Err(H5Error::Corrupt("not a group block".into()));
        }
        verify(b)?;
        let count = u32::from_le_bytes(le(b, 4)?) as usize;
        let mut entries = Vec::with_capacity(count);
        let mut off = 8;
        for _ in 0..count {
            let nlen = b[off] as usize;
            off += 1;
            if nlen > MAX_NAME || off + nlen + 9 > BLOCK_SIZE {
                return Err(H5Error::Corrupt("bad entry".into()));
            }
            let name = String::from_utf8(b[off..off + nlen].to_vec())
                .map_err(|_| H5Error::Corrupt("bad name".into()))?;
            off += nlen;
            let kind = match b[off] {
                0 => ObjectKind::Group,
                1 => ObjectKind::Dataset,
                _ => return Err(H5Error::Corrupt("bad kind".into())),
            };
            off += 1;
            let addr = u64::from_le_bytes(le(b, off)?);
            off += 8;
            entries.push(GroupEntry { name, kind, addr });
        }
        Ok(Group { entries })
    }
}

/// A small key/value attribute attached to a dataset (HDF5 attributes:
/// units, timestamps, provenance...). Stored inline in the dataset's
/// header block; both sides are length-limited so a header always fits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (≤ 63 bytes).
    pub name: String,
    /// Attribute value (≤ 255 bytes, uninterpreted).
    pub value: Vec<u8>,
}

/// Dataset header contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Element type.
    pub dtype: Dtype,
    /// Number of elements (1-D).
    pub len: u64,
    /// First data block.
    pub data_lba: u64,
    /// Payload size in bytes.
    pub data_bytes: u64,
    /// Inline attributes.
    pub attrs: Vec<Attribute>,
}

impl DatasetInfo {
    fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[..4].copy_from_slice(DSE_MAGIC);
        b[4] = self.dtype as u8;
        b[5] = 1; // ndims
        b[6] = self.attrs.len() as u8;
        b[8..16].copy_from_slice(&self.len.to_le_bytes());
        b[16..24].copy_from_slice(&self.data_lba.to_le_bytes());
        b[24..32].copy_from_slice(&self.data_bytes.to_le_bytes());
        let mut off = 32;
        for a in &self.attrs {
            debug_assert!(a.name.len() <= MAX_NAME && a.value.len() <= 255);
            b[off] = a.name.len() as u8;
            off += 1;
            b[off..off + a.name.len()].copy_from_slice(a.name.as_bytes());
            off += a.name.len();
            b[off] = a.value.len() as u8;
            off += 1;
            b[off..off + a.value.len()].copy_from_slice(&a.value);
            off += a.value.len();
        }
        seal(&mut b);
        b
    }

    fn decode(b: &[u8]) -> Result<DatasetInfo, H5Error> {
        if &b[..4] != DSE_MAGIC {
            return Err(H5Error::Corrupt("not a dataset block".into()));
        }
        verify(b)?;
        let dtype = Dtype::from_u8(b[4]).ok_or(H5Error::Corrupt("bad dtype".into()))?;
        let n_attrs = b[6] as usize;
        let mut attrs = Vec::with_capacity(n_attrs);
        let mut off = 32;
        for _ in 0..n_attrs {
            let nlen = b[off] as usize;
            off += 1;
            if nlen > MAX_NAME || off + nlen + 1 > BLOCK_SIZE - 4 {
                return Err(H5Error::Corrupt("bad attribute name".into()));
            }
            let name = String::from_utf8(b[off..off + nlen].to_vec())
                .map_err(|_| H5Error::Corrupt("bad attribute name".into()))?;
            off += nlen;
            let vlen = b[off] as usize;
            off += 1;
            if off + vlen > BLOCK_SIZE - 4 {
                return Err(H5Error::Corrupt("bad attribute value".into()));
            }
            let value = b[off..off + vlen].to_vec();
            off += vlen;
            attrs.push(Attribute { name, value });
        }
        Ok(DatasetInfo {
            dtype,
            len: u64::from_le_bytes(le(b, 8)?),
            data_lba: u64::from_le_bytes(le(b, 16)?),
            data_bytes: u64::from_le_bytes(le(b, 24)?),
            attrs,
        })
    }

    /// Number of 4K blocks the data occupies.
    pub fn data_blocks(&self) -> u64 {
        self.data_bytes.div_ceil(BLOCK_SIZE as u64)
    }
}

/// One pending metadata block write produced by a [`DatasetPlan`].
#[derive(Clone, Debug)]
pub struct MetaWrite {
    /// Target block address.
    pub lba: u64,
    /// Full block image.
    pub block: Vec<u8>,
}

/// The write plan for a new dataset: the metadata block images (issued
/// as latency-sensitive I/O by the VOL) plus the reserved data extent
/// (issued as throughput-critical I/O).
#[derive(Clone, Debug)]
pub struct DatasetPlan {
    /// Metadata writes, in required order.
    pub meta: Vec<MetaWrite>,
    /// First data block.
    pub data_lba: u64,
    /// Number of data blocks reserved.
    pub data_blocks: u64,
}

/// A hierarchical file over a [`SyncStore`].
pub struct H5File<S: SyncStore> {
    store: S,
    sb: Superblock,
}

impl<S: SyncStore> H5File<S> {
    /// Format the store with an empty file (superblock + empty root).
    pub fn create(mut store: S) -> Result<Self, H5Error> {
        let sb = Superblock {
            root: 1,
            alloc_ptr: 2,
        };
        let root = Group::default();
        store.write_block(1, &root.encode()?).map_err(H5Error::Io)?;
        store.write_block(0, &sb.encode()).map_err(H5Error::Io)?;
        Ok(H5File { store, sb })
    }

    /// Open an existing file.
    pub fn open(store: S) -> Result<Self, H5Error> {
        let mut b = vec![0u8; BLOCK_SIZE];
        store.read_block(0, &mut b).map_err(H5Error::Io)?;
        let sb = Superblock::decode(&b)?;
        Ok(H5File { store, sb })
    }

    /// Consume the file and return the store.
    pub fn into_store(self) -> S {
        self.store
    }

    fn alloc(&mut self, blocks: u64) -> Result<u64, H5Error> {
        let lba = self.sb.alloc_ptr;
        let end = lba.checked_add(blocks).ok_or(H5Error::TooLarge)?;
        if end > self.store.capacity_blocks() {
            return Err(H5Error::TooLarge);
        }
        self.sb.alloc_ptr = end;
        Ok(lba)
    }

    fn read_group(&self, lba: u64) -> Result<Group, H5Error> {
        let mut b = vec![0u8; BLOCK_SIZE];
        self.store.read_block(lba, &mut b).map_err(H5Error::Io)?;
        Group::decode(&b)
    }

    /// Walk a path like `/a/b` to the containing group of its final
    /// component; returns (group lba, group, final name).
    fn walk<'p>(&self, path: &'p str) -> Result<(u64, Group, &'p str), H5Error> {
        let path = path.strip_prefix('/').unwrap_or(path);
        if path.is_empty() {
            return Err(H5Error::NotFound("empty path".into()));
        }
        let mut lba = self.sb.root;
        let mut group = self.read_group(lba)?;
        let mut parts = path.split('/').peekable();
        loop {
            let Some(part) = parts.next() else {
                return Err(H5Error::NotFound(path.into()));
            };
            if parts.peek().is_none() {
                return Ok((lba, group, part));
            }
            let entry = group
                .entries
                .iter()
                .find(|e| e.name == part)
                .ok_or_else(|| H5Error::NotFound(part.into()))?;
            if entry.kind != ObjectKind::Group {
                return Err(H5Error::NotFound(format!("{part} is not a group")));
            }
            lba = entry.addr;
            group = self.read_group(lba)?;
        }
    }

    /// Create a sub-group at `path` (parents must exist).
    pub fn create_group(&mut self, path: &str) -> Result<(), H5Error> {
        let (glba, mut group, name) = self.walk(path)?;
        self.check_new(&group, name)?;
        let new_lba = self.alloc(1)?;
        self.store
            .write_block(new_lba, &Group::default().encode()?)
            .map_err(H5Error::Io)?;
        group.entries.push(GroupEntry {
            name: name.into(),
            kind: ObjectKind::Group,
            addr: new_lba,
        });
        self.store
            .write_block(glba, &group.encode()?)
            .map_err(H5Error::Io)?;
        self.sync_sb()
    }

    fn check_new(&self, group: &Group, name: &str) -> Result<(), H5Error> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(H5Error::Corrupt(format!("bad name {name:?}")));
        }
        if group.entries.iter().any(|e| e.name == name) {
            return Err(H5Error::Exists(name.into()));
        }
        Ok(())
    }

    fn sync_sb(&mut self) -> Result<(), H5Error> {
        self.store
            .write_block(0, &self.sb.encode())
            .map_err(H5Error::Io)
    }

    /// Plan a new dataset: allocate its header + data extent, update the
    /// parent group and superblock *locally*, and return the metadata
    /// block images for the VOL to transmit. The data extent is reserved
    /// but not written.
    pub fn plan_dataset(
        &mut self,
        path: &str,
        dtype: Dtype,
        len: u64,
    ) -> Result<DatasetPlan, H5Error> {
        let (glba, mut group, name) = self.walk(path)?;
        self.check_new(&group, name)?;
        let data_bytes = len
            .checked_mul(dtype.size() as u64)
            .ok_or(H5Error::TooLarge)?;
        let data_blocks = data_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
        let hdr_lba = self.alloc(1)?;
        let data_lba = self.alloc(data_blocks)?;
        let info = DatasetInfo {
            dtype,
            len,
            data_lba,
            data_bytes,
            attrs: Vec::new(),
        };
        group.entries.push(GroupEntry {
            name: name.into(),
            kind: ObjectKind::Dataset,
            addr: hdr_lba,
        });
        let meta = vec![
            MetaWrite {
                lba: hdr_lba,
                block: info.encode(),
            },
            MetaWrite {
                lba: glba,
                block: group.encode()?,
            },
            MetaWrite {
                lba: 0,
                block: self.sb.encode(),
            },
        ];
        // Apply locally so subsequent plans see the updated structure.
        for w in &meta {
            self.store
                .write_block(w.lba, &w.block)
                .map_err(H5Error::Io)?;
        }
        Ok(DatasetPlan {
            meta,
            data_lba,
            data_blocks,
        })
    }

    /// Create a dataset and write its data synchronously (the local,
    /// non-fabric path).
    pub fn create_dataset(
        &mut self,
        path: &str,
        dtype: Dtype,
        data: &[u8],
    ) -> Result<DatasetInfo, H5Error> {
        if !data.len().is_multiple_of(dtype.size()) {
            return Err(H5Error::Corrupt(
                "data not a whole number of elements".into(),
            ));
        }
        let len = (data.len() / dtype.size()) as u64;
        let plan = self.plan_dataset(path, dtype, len)?;
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (i, chunk) in data.chunks(BLOCK_SIZE).enumerate() {
            buf[..chunk.len()].copy_from_slice(chunk);
            buf[chunk.len()..].fill(0);
            self.store
                .write_block(plan.data_lba + i as u64, &buf)
                .map_err(H5Error::Io)?;
        }
        self.dataset_info(path)
    }

    /// Look up a dataset's header.
    pub fn dataset_info(&self, path: &str) -> Result<DatasetInfo, H5Error> {
        let (_, group, name) = self.walk(path)?;
        let entry = group
            .entries
            .iter()
            .find(|e| e.name == name && e.kind == ObjectKind::Dataset)
            .ok_or_else(|| H5Error::NotFound(name.into()))?;
        let mut b = vec![0u8; BLOCK_SIZE];
        self.store
            .read_block(entry.addr, &mut b)
            .map_err(H5Error::Io)?;
        DatasetInfo::decode(&b)
    }

    /// Attach (or replace) an attribute on a dataset. Returns the
    /// updated header block write (also applied locally), so a VOL can
    /// ship it as a latency-sensitive metadata update.
    pub fn set_attr(&mut self, path: &str, name: &str, value: &[u8]) -> Result<MetaWrite, H5Error> {
        if name.is_empty() || name.len() > MAX_NAME || value.len() > 255 {
            return Err(H5Error::Corrupt("attribute too large".into()));
        }
        let (_, group, dname) = self.walk(path)?;
        let entry = group
            .entries
            .iter()
            .find(|e| e.name == dname && e.kind == ObjectKind::Dataset)
            .ok_or_else(|| H5Error::NotFound(dname.into()))?;
        let mut b = vec![0u8; BLOCK_SIZE];
        self.store
            .read_block(entry.addr, &mut b)
            .map_err(H5Error::Io)?;
        let mut info = DatasetInfo::decode(&b)?;
        match info.attrs.iter_mut().find(|a| a.name == name) {
            Some(a) => a.value = value.to_vec(),
            None => info.attrs.push(Attribute {
                name: name.into(),
                value: value.to_vec(),
            }),
        }
        // Header capacity check: attributes must fit beside the fixed
        // fields and the checksum.
        let attr_bytes: usize = info
            .attrs
            .iter()
            .map(|a| 2 + a.name.len() + a.value.len())
            .sum();
        if 32 + attr_bytes > BLOCK_SIZE - 4 || info.attrs.len() > 255 {
            return Err(H5Error::TooLarge);
        }
        let block = info.encode();
        self.store
            .write_block(entry.addr, &block)
            .map_err(H5Error::Io)?;
        Ok(MetaWrite {
            lba: entry.addr,
            block,
        })
    }

    /// Read one attribute of a dataset.
    pub fn get_attr(&self, path: &str, name: &str) -> Result<Vec<u8>, H5Error> {
        let info = self.dataset_info(path)?;
        info.attrs
            .into_iter()
            .find(|a| a.name == name)
            .map(|a| a.value)
            .ok_or_else(|| H5Error::NotFound(name.into()))
    }

    /// Read a dataset's raw bytes.
    pub fn read_dataset(&self, path: &str) -> Result<Vec<u8>, H5Error> {
        let info = self.dataset_info(path)?;
        let mut out = Vec::with_capacity(info.data_bytes as usize);
        let mut buf = vec![0u8; BLOCK_SIZE];
        for i in 0..info.data_blocks() {
            self.store
                .read_block(info.data_lba + i, &mut buf)
                .map_err(H5Error::Io)?;
            let remaining = info.data_bytes as usize - out.len();
            out.extend_from_slice(&buf[..remaining.min(BLOCK_SIZE)]);
        }
        Ok(out)
    }

    /// List a group's entries as (name, kind) pairs. Use `/` for root.
    pub fn list(&self, path: &str) -> Result<Vec<(String, ObjectKind)>, H5Error> {
        let group = if path == "/" || path.is_empty() {
            self.read_group(self.sb.root)?
        } else {
            let (_, parent, name) = self.walk(path)?;
            let entry = parent
                .entries
                .iter()
                .find(|e| e.name == name && e.kind == ObjectKind::Group)
                .ok_or_else(|| H5Error::NotFound(name.into()))?;
            self.read_group(entry.addr)?
        };
        Ok(group
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.kind))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn f32s(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| (i as f32 * 0.5).to_le_bytes())
            .collect()
    }

    #[test]
    fn create_open_empty() {
        let f = H5File::create(MemStore::new(64)).unwrap();
        let store = f.into_store();
        let f = H5File::open(store).unwrap();
        assert!(f.list("/").unwrap().is_empty());
    }

    #[test]
    fn open_garbage_fails() {
        let store = MemStore::new(4);
        let err = match H5File::open(store) {
            Err(e) => e,
            Ok(_) => panic!("garbage opened"),
        };
        assert_eq!(err, H5Error::BadMagic);
    }

    #[test]
    fn dataset_roundtrip() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        let data = f32s(3000); // 12000 bytes -> 3 blocks
        let info = f.create_dataset("/particles", Dtype::F32, &data).unwrap();
        assert_eq!(info.len, 3000);
        assert_eq!(info.data_blocks(), 3);
        assert_eq!(f.read_dataset("/particles").unwrap(), data);
        assert_eq!(
            f.list("/").unwrap(),
            vec![("particles".to_string(), ObjectKind::Dataset)]
        );
    }

    #[test]
    fn survives_reopen() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        let data = f32s(100);
        f.create_dataset("/ts0", Dtype::F32, &data).unwrap();
        f.create_dataset("/ts1", Dtype::F32, &data).unwrap();
        let f = H5File::open(f.into_store()).unwrap();
        assert_eq!(f.read_dataset("/ts1").unwrap(), data);
        assert_eq!(f.list("/").unwrap().len(), 2);
    }

    #[test]
    fn nested_groups() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        f.create_group("/run").unwrap();
        f.create_group("/run/step0").unwrap();
        let data = f32s(10);
        f.create_dataset("/run/step0/x", Dtype::F32, &data).unwrap();
        assert_eq!(f.read_dataset("/run/step0/x").unwrap(), data);
        assert_eq!(
            f.list("/run").unwrap(),
            vec![("step0".to_string(), ObjectKind::Group)]
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        f.create_dataset("/x", Dtype::U8, &[1]).unwrap();
        assert_eq!(
            f.create_dataset("/x", Dtype::U8, &[2]).unwrap_err(),
            H5Error::Exists("x".into())
        );
    }

    #[test]
    fn missing_paths_error() {
        let f = H5File::create(MemStore::new(64)).unwrap();
        assert!(matches!(f.read_dataset("/nope"), Err(H5Error::NotFound(_))));
        assert!(matches!(
            f.read_dataset("/a/b/c"),
            Err(H5Error::NotFound(_))
        ));
    }

    #[test]
    fn capacity_exhaustion() {
        let mut f = H5File::create(MemStore::new(4)).unwrap();
        // 4 blocks total: sb + root leaves 2; a 3-block dataset cannot fit.
        let data = vec![0u8; BLOCK_SIZE * 3];
        assert_eq!(
            f.create_dataset("/big", Dtype::U8, &data).unwrap_err(),
            H5Error::TooLarge
        );
    }

    #[test]
    fn plan_matches_apply() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        let plan = f.plan_dataset("/d", Dtype::F32, 2048).unwrap();
        assert_eq!(plan.data_blocks, 2); // 8192 bytes
        assert_eq!(plan.meta.len(), 3);
        // The plan was applied locally: dataset is visible with zeroed
        // (unwritten) data.
        let info = f.dataset_info("/d").unwrap();
        assert_eq!(info.data_lba, plan.data_lba);
        assert_eq!(f.read_dataset("/d").unwrap(), vec![0u8; 8192]);
    }

    #[test]
    fn corruption_detected() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        f.create_dataset("/x", Dtype::U8, &[7; 10]).unwrap();
        let mut store = f.into_store();
        // Flip a byte in the root group block.
        let mut b = vec![0u8; BLOCK_SIZE];
        store.read_block(1, &mut b).unwrap();
        b[100] ^= 0xFF;
        store.write_block(1, &b).unwrap();
        let f = H5File::open(store).unwrap();
        assert!(matches!(f.list("/"), Err(H5Error::Corrupt(_))));
    }

    #[test]
    fn non_whole_elements_rejected() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        assert!(matches!(
            f.create_dataset("/x", Dtype::F32, &[1, 2, 3]),
            Err(H5Error::Corrupt(_))
        ));
    }

    #[test]
    fn attributes_roundtrip_and_persist() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        f.create_dataset("/d", Dtype::F32, &f32s(10)).unwrap();
        f.set_attr("/d", "units", b"m/s").unwrap();
        f.set_attr("/d", "timestep", &42u64.to_le_bytes()).unwrap();
        // Replace an existing attribute.
        f.set_attr("/d", "units", b"km/h").unwrap();
        assert_eq!(f.get_attr("/d", "units").unwrap(), b"km/h");
        assert_eq!(f.get_attr("/d", "timestep").unwrap(), 42u64.to_le_bytes());
        // Survives reopen.
        let f = H5File::open(f.into_store()).unwrap();
        assert_eq!(f.get_attr("/d", "units").unwrap(), b"km/h");
        let info = f.dataset_info("/d").unwrap();
        assert_eq!(info.attrs.len(), 2);
        // Data untouched by attribute updates.
        assert_eq!(f.read_dataset("/d").unwrap(), f32s(10));
    }

    #[test]
    fn attribute_limits_enforced() {
        let mut f = H5File::create(MemStore::new(64)).unwrap();
        f.create_dataset("/d", Dtype::U8, &[1]).unwrap();
        assert!(f.set_attr("/d", "", b"x").is_err());
        assert!(f.set_attr("/d", "big", &[0u8; 256]).is_err());
        assert!(matches!(
            f.get_attr("/d", "missing"),
            Err(H5Error::NotFound(_))
        ));
        assert!(matches!(
            f.set_attr("/nope", "a", b"b"),
            Err(H5Error::NotFound(_))
        ));
        // Fill until the header block overflows: each attr ~260 bytes,
        // ~15 fit in 4060 usable bytes.
        let mut overflowed = false;
        for i in 0..40 {
            if f.set_attr("/d", &format!("attr{i}"), &[7u8; 250]).is_err() {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "header capacity must be enforced");
    }

    proptest::proptest! {
        /// Arbitrary dataset contents round trip exactly.
        #[test]
        fn roundtrip_any(data in proptest::collection::vec(
            proptest::prelude::any::<u8>(), 0..20_000)) {
            let mut f = H5File::create(MemStore::new(64)).unwrap();
            if data.is_empty() {
                // Zero-length datasets still get a block reserved.
                let info = f.create_dataset("/d", Dtype::U8, &data);
                proptest::prop_assert!(info.is_ok());
                proptest::prop_assert_eq!(f.read_dataset("/d").unwrap(), data);
            } else {
                f.create_dataset("/d", Dtype::U8, &data).unwrap();
                proptest::prop_assert_eq!(f.read_dataset("/d").unwrap(), data);
            }
        }
    }
}
