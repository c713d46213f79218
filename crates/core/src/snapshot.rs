//! Serving snapshots: immutable, mmap-friendly model artifacts.
//!
//! A checkpoint (PLXCKPT3) optimizes for *resuming training*: it
//! inlines every tensor behind variable-length names, carries optimizer
//! slots, and is fully deserialized on load. A serving snapshot
//! optimizes for *loading fast and reading in place*: weights only, and
//! the weight bytes are never parsed — the loader mmaps the file and
//! hands out [`TensorView`]s borrowing the mapped pages directly.
//!
//! Format v1 (`PLXSNAP1`), all integers little-endian:
//!
//! ```text
//! magic    8 B   "PLXSNAP1"
//! crc32    4 B   IEEE CRC32 over the index block only
//! index_len 4 B  byte length of the index block
//! index:         step u64, var_count u64, then per variable:
//!                name_len u64, name bytes, rank u64, dims u64 * rank,
//!                data_offset u64 (absolute), data_len u64 (bytes)
//! data:          raw f32 little-endian tensor blocks at the declared
//!                offsets, each aligned to DATA_ALIGN
//! ```
//!
//! The CRC covers only the index: validating a snapshot therefore
//! touches a few hundred bytes, never the weight pages — those are
//! faulted in lazily by the first forward pass that reads them. What
//! protects the weights is the *range validation*: every declared
//! `[data_offset, data_offset + data_len)` must sit inside the file
//! past the index, be 4-byte aligned, match the declared shape's volume
//! exactly, and overlap no other variable's range. A corrupt or
//! truncated artifact fails closed at [`Snapshot::open`] instead of
//! serving garbage rows.
//!
//! Saves are atomic (temp file + rename, like checkpoints), so a
//! serving process re-opening the path mid-publish sees either the old
//! or the new snapshot, never a torn one — the mechanism behind the
//! online-serving staleness bound.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

use parallax_comm::crc32;
use parallax_dataflow::{Graph, VarStore};
use parallax_tensor::{Shape, TensorView};

use crate::{CoreError, Result};

const MAGIC: &[u8; 8] = b"PLXSNAP1";

/// Alignment of every tensor data block, generous enough for any SIMD
/// load the kernels may issue over a mapped view (a cache line).
pub const DATA_ALIGN: usize = 64;

// The data section stores raw f32 bytes and the loader reinterprets
// the mapped pages in place; both sides assume a little-endian host.
#[cfg(not(target_endian = "little"))]
compile_error!("PLXSNAP1 zero-copy snapshots require a little-endian target");

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Config(format!("snapshot I/O: {e}"))
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Config(format!("snapshot corrupt: {}", msg.into()))
}

fn align_up(offset: usize, align: usize) -> usize {
    offset.div_ceil(align) * align
}

/// One variable's entry in a snapshot index.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Variable name (as declared in the training graph).
    pub name: String,
    /// Dense shape.
    pub shape: Shape,
    /// Absolute byte offset of the value block in the file.
    pub offset: usize,
    /// Byte length of the value block (`4 * shape.volume()`).
    pub len: usize,
}

/// Writes a weights-only serving snapshot of `store` (named per
/// `graph`) taken after `step` completed training iterations,
/// atomically (temp file + rename).
pub fn save(graph: &Graph, store: &VarStore, step: u64, path: &Path) -> Result<()> {
    let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "snapshot.save");
    // Index size is fixed by names/shapes alone, so data offsets are
    // known before serializing.
    let mut index_len = 8 + 8;
    for var in graph.var_ids() {
        let def = graph.var_def(var)?;
        index_len += 8 + def.name.len() + 8 + 8 * def.shape.dims().len() + 8 + 8;
    }
    let mut index = Vec::with_capacity(index_len);
    index.extend_from_slice(&step.to_le_bytes());
    index.extend_from_slice(&(graph.variables().len() as u64).to_le_bytes());
    let data_start = 16 + index_len;
    let mut cursor = align_up(data_start, DATA_ALIGN);
    let mut blocks = Vec::with_capacity(graph.variables().len());
    for var in graph.var_ids() {
        let def = graph.var_def(var)?;
        let value = store.get(var)?;
        if value.shape() != &def.shape {
            return Err(CoreError::Config(format!(
                "snapshot variable '{}' has shape {}, graph expects {}",
                def.name,
                value.shape(),
                def.shape
            )));
        }
        let len = value.len() * 4;
        index.extend_from_slice(&(def.name.len() as u64).to_le_bytes());
        index.extend_from_slice(def.name.as_bytes());
        let dims = def.shape.dims();
        index.extend_from_slice(&(dims.len() as u64).to_le_bytes());
        for &d in dims {
            index.extend_from_slice(&(d as u64).to_le_bytes());
        }
        index.extend_from_slice(&(cursor as u64).to_le_bytes());
        index.extend_from_slice(&(len as u64).to_le_bytes());
        blocks.push((cursor, value));
        cursor = align_up(cursor + len, DATA_ALIGN);
    }
    debug_assert_eq!(index.len(), index_len);

    let total = blocks
        .last()
        .map(|&(off, v)| off + v.len() * 4)
        .unwrap_or(data_start);
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    out.extend_from_slice(&(index_len as u32).to_le_bytes());
    out.extend_from_slice(&index);
    for (offset, value) in blocks {
        out.resize(offset, 0);
        for &x in value.data() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    // Distinct temp extension from checkpoints, so a checkpoint and a
    // snapshot sharing a file stem in one directory never race on the
    // same temp name.
    let tmp = path.with_extension("snap-tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(&out).map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)?;
    parallax_trace::counter("snapshot.published").add(1);
    Ok(())
}

/// The bytes behind an open snapshot: a private read-only mapping on
/// unix, an owned (4-byte-aligned) buffer elsewhere or when mapping
/// fails.
enum Backing {
    #[cfg(unix)]
    Mmap {
        ptr: *mut u8,
        len: usize,
    },
    Owned {
        buf: Vec<u32>,
        len: usize,
    },
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: ptr/len describe a live PROT_READ MAP_PRIVATE
            // mapping held until Drop; no writer exists.
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            // SAFETY: reinterprets the owned u32 buffer as bytes; `len`
            // never exceeds `buf.len() * 4` (see `read_owned`).
            Backing::Owned { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len)
            },
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len } = *self {
            // SAFETY: exactly the region returned by mmap in
            // `map_file`, unmapped once (Drop runs once).
            unsafe {
                sys::munmap(ptr.cast(), len);
            }
        }
    }
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for the
// lifetime of the value, so moving it across threads is sound.
unsafe impl Send for Backing {}
// SAFETY: as above — concurrent readers of an immutable private
// mapping (or of the owned buffer) never race.
unsafe impl Sync for Backing {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x2;

    // std already links libc on unix; declaring the two calls we need
    // avoids a vendored libc crate for one mmap.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

#[cfg(unix)]
fn map_file(file: &std::fs::File, len: usize) -> Option<Backing> {
    use std::os::unix::io::AsRawFd;
    // Miri cannot interpret the raw mmap extern call; fall back to the
    // owned-buffer backing so the snapshot suite runs under `cargo
    // miri test` (the CI unsafe-memory job).
    if cfg!(miri) {
        return None;
    }
    // SAFETY: mmap with a null hint allocates fresh address space; the
    // fd is open and `len` matches the file length probed by the
    // caller. Failure is reported via the sentinel return, checked
    // below before the pointer is ever used.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr.is_null() || ptr as usize == usize::MAX {
        return None;
    }
    Some(Backing::Mmap {
        ptr: ptr.cast(),
        len,
    })
}

fn read_owned(file: &mut std::fs::File, len: usize) -> Result<Backing> {
    use std::io::Read as _;
    // A u32 buffer keeps the fallback 4-byte aligned like the mapping.
    let mut buf = vec![0u32; len.div_ceil(4)];
    // SAFETY: the buffer holds `len.div_ceil(4) * 4 >= len` bytes, and
    // any byte pattern is a valid u32.
    let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
    file.read_exact(dst).map_err(io_err)?;
    Ok(Backing::Owned { buf, len })
}

/// An open, validated serving snapshot. Variables are exposed as
/// [`TensorView`]s borrowing the mapped file bytes — no weight bytes
/// are copied or deserialized until a forward pass reads them.
pub struct Snapshot {
    backing: Backing,
    step: u64,
    entries: Vec<SnapshotEntry>,
    by_name: HashMap<String, usize>,
    // Owned `Shape`s views borrow from (entry order).
    shapes: Vec<Shape>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("step", &self.step)
            .field("variables", &self.entries.len())
            .field("bytes", &self.backing.bytes().len())
            .finish()
    }
}

impl Snapshot {
    /// Opens and validates a snapshot, mmap-ing the artifact read-only
    /// (falling back to an aligned owned buffer if mapping fails).
    ///
    /// Validation is fail-closed: bad magic, an index CRC mismatch, a
    /// declared byte range that is misaligned, overlaps another
    /// variable's range, disagrees with its shape's volume, or runs
    /// past EOF all reject the artifact.
    pub fn open(path: &Path) -> Result<Snapshot> {
        let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "snapshot.load");
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len();
        let file_len =
            usize::try_from(file_len).map_err(|_| corrupt("file larger than the address space"))?;
        if file_len < 16 {
            return Err(corrupt("shorter than the fixed header"));
        }
        #[cfg(unix)]
        let backing = match map_file(&file, file_len) {
            Some(b) => b,
            None => read_owned(&mut file, file_len)?,
        };
        #[cfg(not(unix))]
        let backing = read_owned(&mut file, file_len)?;

        let bytes = backing.bytes();
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a PLXSNAP1 snapshot)"));
        }
        let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let index_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let data_start = 16usize
            .checked_add(index_len)
            .filter(|&end| end <= file_len)
            .ok_or_else(|| corrupt("index runs past EOF"))?;
        let index = &bytes[16..data_start];
        let actual_crc = crc32(index);
        if stored_crc != actual_crc {
            return Err(corrupt(format!(
                "index CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }

        let mut cursor = 0usize;
        let take = |cursor: &mut usize, n: usize| -> Result<&[u8]> {
            if *cursor + n > index.len() {
                return Err(corrupt("index truncated"));
            }
            let slice = &index[*cursor..*cursor + n];
            *cursor += n;
            Ok(slice)
        };
        let read_u64 = |cursor: &mut usize| -> Result<u64> {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(take(cursor, 8)?);
            Ok(u64::from_le_bytes(buf))
        };

        let step = read_u64(&mut cursor)?;
        let count = read_u64(&mut cursor)? as usize;
        let mut entries = Vec::with_capacity(count);
        let mut by_name = HashMap::with_capacity(count);
        for _ in 0..count {
            let name_len = read_u64(&mut cursor)? as usize;
            let name = String::from_utf8(take(&mut cursor, name_len)?.to_vec())
                .map_err(|_| corrupt("variable name is not UTF-8"))?;
            let rank = read_u64(&mut cursor)? as usize;
            if rank > 16 {
                return Err(corrupt(format!("variable '{name}' has rank {rank}")));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(read_u64(&mut cursor)? as usize);
            }
            let shape = Shape::new(dims);
            let offset = read_u64(&mut cursor)? as usize;
            let len = read_u64(&mut cursor)? as usize;

            let volume_bytes = shape
                .dims()
                .iter()
                .try_fold(4usize, |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| corrupt(format!("variable '{name}' shape overflows")))?;
            if len != volume_bytes {
                return Err(corrupt(format!(
                    "variable '{name}' declares {len} bytes but shape {shape} needs {volume_bytes}"
                )));
            }
            if !offset.is_multiple_of(4) {
                return Err(corrupt(format!(
                    "variable '{name}' data offset {offset} is not 4-byte aligned"
                )));
            }
            if offset < data_start {
                return Err(corrupt(format!(
                    "variable '{name}' data range starts inside the index"
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("variable '{name}' byte range overflows")))?;
            if end > file_len {
                return Err(corrupt(format!(
                    "variable '{name}' byte range [{offset}, {end}) runs past EOF ({file_len})"
                )));
            }
            if by_name.insert(name.clone(), entries.len()).is_some() {
                return Err(corrupt(format!("duplicate variable '{name}'")));
            }
            entries.push(SnapshotEntry {
                name,
                shape,
                offset,
                len,
            });
        }
        if cursor != index.len() {
            return Err(corrupt("trailing bytes after the index"));
        }
        // No two declared ranges may overlap: sort by offset, check
        // each ends before the next begins.
        let mut ranges: Vec<(usize, usize, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.offset, e.len, i))
            .collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            let (off_a, len_a, a) = pair[0];
            let (off_b, _, b) = pair[1];
            if off_a + len_a > off_b {
                return Err(corrupt(format!(
                    "variables '{}' and '{}' declare overlapping byte ranges",
                    entries[a].name, entries[b].name
                )));
            }
        }

        let shapes = entries.iter().map(|e| e.shape.clone()).collect();
        Ok(Snapshot {
            backing,
            step,
            entries,
            by_name,
            shapes,
        })
    }

    /// Reads only the step of the snapshot at `path` — the cheap "is
    /// there a newer snapshot?" probe the serving engine runs at batch
    /// boundaries. Validates the magic but nothing else; a refresh that
    /// decides to reload goes through full [`Snapshot::open`]
    /// validation.
    pub fn peek_step(path: &Path) -> Result<u64> {
        use std::io::Read as _;
        let mut head = [0u8; 24];
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        file.read_exact(&mut head).map_err(io_err)?;
        if &head[..8] != MAGIC {
            return Err(corrupt("bad magic (not a PLXSNAP1 snapshot)"));
        }
        Ok(u64::from_le_bytes(
            head[16..24].try_into().expect("8 bytes"),
        ))
    }

    /// Completed training iterations when the snapshot was taken.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The validated index entries, in file order.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Index of the entry named `name`, if present.
    pub fn entry_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// A zero-copy view of entry `idx`: shape plus the mapped bytes
    /// reinterpreted in place as `f32`s.
    pub fn view_at(&self, idx: usize) -> Result<TensorView<'_>> {
        let entry = self
            .entries
            .get(idx)
            .ok_or_else(|| CoreError::Config(format!("snapshot has no entry {idx}")))?;
        let raw = &self.backing.bytes()[entry.offset..entry.offset + entry.len];
        // SAFETY: any bit pattern is a valid f32, so reinterpreting
        // immutable bytes is sound. Alignment was validated at open
        // (offset % 4 == 0 over a page-aligned mapping / u32-aligned
        // buffer), so the reinterpret cannot produce head/tail
        // remainders — and a corrupt index fails the check below.
        let (head, floats, tail) = unsafe { raw.align_to::<f32>() };
        if !head.is_empty() || !tail.is_empty() {
            return Err(corrupt(format!(
                "variable '{}' bytes are not f32-aligned",
                entry.name
            )));
        }
        Ok(TensorView::new(&self.shapes[idx], floats)?)
    }

    /// A zero-copy view of the variable named `name`.
    pub fn view(&self, name: &str) -> Result<TensorView<'_>> {
        let idx = self
            .entry_index(name)
            .ok_or_else(|| CoreError::Config(format!("snapshot has no variable '{name}'")))?;
        self.view_at(idx)
    }

    /// The address range of the backing bytes, for tests asserting
    /// views borrow the mapping rather than copies.
    pub fn backing_range(&self) -> std::ops::Range<usize> {
        let bytes = self.backing.bytes();
        let start = bytes.as_ptr() as usize;
        start..start + bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_dataflow::graph::Init;
    use parallax_dataflow::VariableDef;
    use parallax_tensor::DetRng;

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.1)))
            .unwrap();
        g.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
        g
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parallax_snap_test_{}_{name}", std::process::id()));
        p
    }

    /// Patches entry `var` of a valid snapshot file: rewrites its
    /// (offset, len) index fields and recomputes the CRC, so range
    /// validation — not the checksum — is what must catch the lie.
    fn forge_range(bytes: &mut [u8], graph: &Graph, var: usize, offset: u64, len: u64) {
        let mut pos = 16 + 8 + 8;
        for (i, def) in graph.variables().iter().enumerate() {
            pos += 8 + def.name.len() + 8 + 8 * def.shape.dims().len();
            if i == var {
                bytes[pos..pos + 8].copy_from_slice(&offset.to_le_bytes());
                bytes[pos + 8..pos + 16].copy_from_slice(&len.to_le_bytes());
                break;
            }
            pos += 16;
        }
        let index_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[16..16 + index_len]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn roundtrip_is_bitwise_and_zero_copy() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("roundtrip");
        save(&g, &store, 17, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.step(), 17);
        assert_eq!(Snapshot::peek_step(&path).unwrap(), 17);
        let range = snap.backing_range();
        for var in g.var_ids() {
            let def = g.var_def(var).unwrap();
            let view = snap.view(&def.name).unwrap();
            assert_eq!(view.shape(), &def.shape);
            // Bitwise equal to the stored value...
            assert_eq!(view.data(), store.get(var).unwrap().data());
            // ...and borrowed straight from the mapping, not a copy.
            let ptr = view.data().as_ptr() as usize;
            assert!(range.contains(&ptr), "view must point into the mapped file");
            // Aligned for SIMD loads.
            assert_eq!(ptr % 4, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Pins the stored index checksum (and with it the index layout) of
    /// a known snapshot: the index holds only names, shapes and offsets,
    /// so the value is independent of the weights.
    #[test]
    fn index_checksum_matches_golden() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("golden");
        save(&g, &store, 17, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!(field(12), 0x9d, "index length");
        assert_eq!(field(8), 0x16eb_72b4, "index CRC");
        assert_eq!(bytes.len(), 460);
    }

    #[test]
    fn empty_graph_snapshot_roundtrips() {
        let g = Graph::new();
        let store = VarStore::init(&g, &mut DetRng::seed(1));
        let path = temp_path("empty");
        save(&g, &store, 0, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.entries().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation_bad_magic_and_bit_flips() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("corrupt");
        save(&g, &store, 1, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncated inside the index.
        std::fs::write(&path, &bytes[..40]).unwrap();
        assert!(Snapshot::open(&path).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(Snapshot::open(&path).is_err());
        assert!(Snapshot::peek_step(&path).is_err());
        // A flipped index bit: caught by the CRC.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        match Snapshot::open(&path) {
            Err(CoreError::Config(msg)) => {
                assert!(msg.contains("CRC"), "expected CRC error, got: {msg}")
            }
            other => panic!("index bit flip must fail the CRC, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_range_past_eof() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("eof");
        save(&g, &store, 1, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let total = bytes.len() as u64;
        // Keep len == 4 * volume (so the volume check passes) but push
        // the block past the end of the file.
        forge_range(&mut bytes, &g, 2, (total - 8) & !3, 3 * 4);
        std::fs::write(&path, &bytes).unwrap();
        match Snapshot::open(&path) {
            Err(CoreError::Config(msg)) => {
                assert!(msg.contains("EOF"), "expected EOF error, got: {msg}")
            }
            other => panic!("range past EOF must fail closed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_overlapping_ranges() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("overlap");
        save(&g, &store, 1, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Point 'w' (12 floats) into the middle of 'emb' (40 floats).
        let snap = Snapshot::open(&path).unwrap();
        let emb_off = snap.entries()[0].offset as u64;
        drop(snap);
        forge_range(&mut bytes, &g, 1, emb_off + 4, 12 * 4);
        std::fs::write(&path, &bytes).unwrap();
        match Snapshot::open(&path) {
            Err(CoreError::Config(msg)) => assert!(
                msg.contains("overlap"),
                "expected overlap error, got: {msg}"
            ),
            other => panic!("overlapping ranges must fail closed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_misaligned_and_wrong_length_ranges() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("misalign");
        save(&g, &store, 1, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let good_off = Snapshot::open(&path).unwrap().entries()[2].offset as u64;

        // Misaligned offset.
        let mut forged = bytes.clone();
        forge_range(&mut forged, &g, 2, good_off + 2, 3 * 4);
        std::fs::write(&path, &forged).unwrap();
        match Snapshot::open(&path) {
            Err(CoreError::Config(msg)) => assert!(msg.contains("aligned"), "got: {msg}"),
            other => panic!("misaligned range must fail closed, got {other:?}"),
        }
        // Length disagreeing with the declared shape.
        let mut forged = bytes.clone();
        forge_range(&mut forged, &g, 2, good_off, 2 * 4);
        std::fs::write(&path, &forged).unwrap();
        match Snapshot::open(&path) {
            Err(CoreError::Config(msg)) => assert!(msg.contains("needs"), "got: {msg}"),
            other => panic!("length/shape mismatch must fail closed, got {other:?}"),
        }
        // Range pointing into the index region.
        let mut forged = bytes;
        forge_range(&mut forged, &g, 2, 16, 3 * 4);
        std::fs::write(&path, &forged).unwrap();
        match Snapshot::open(&path) {
            Err(CoreError::Config(msg)) => assert!(msg.contains("index"), "got: {msg}"),
            other => panic!("range inside the index must fail closed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_publish_replaces_older_snapshot() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("republish");
        save(&g, &store, 2, &path).unwrap();
        let mut newer = store.clone();
        let var = g.find_variable("b").unwrap();
        newer
            .set(var, parallax_tensor::Tensor::full([3], 9.0))
            .unwrap();
        save(&g, &newer, 4, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.step(), 4);
        assert_eq!(snap.view("b").unwrap().data(), &[9.0, 9.0, 9.0]);
        std::fs::remove_file(&path).ok();
    }
}
