//! The tensor file: the one on-disk format for named f32 tensors.
//!
//! Serving snapshots, training checkpoints ([`crate::checkpoint`]) and
//! the role artifacts of multi-process runs are all files in this
//! layout. It is built for *loading fast and reading in place*: the
//! loader mmaps the file and hands out [`TensorView`]s borrowing the
//! mapped pages directly, so opening a snapshot parses no weight bytes.
//!
//! Format `PLXSNAP2`, all integers little-endian:
//!
//! ```text
//! magic    8 B   "PLXSNAP2"
//! crc32    4 B   IEEE CRC32 over the index block only
//! index_len 4 B  byte length of the index block
//! index:         step u64, word_count u64, words u64 * word_count,
//!                entry_count u64, then per entry:
//!                name_len u64, name bytes, tag_len u64, tag bytes,
//!                rank u64, dims u64 * rank, data_offset u64 (absolute),
//!                data_len u64 (bytes), data_crc32 u32
//! data:          raw f32 little-endian tensor blocks at the declared
//!                offsets, each aligned to DATA_ALIGN
//! ```
//!
//! `step` sits at a fixed offset, so [`Snapshot::peek_step`] reads it
//! without parsing. The words carry non-tensor state: a checkpoint's
//! cursors, a role artifact's scalars and traffic counters. A tag marks
//! an entry that is not a model variable, such as the optimizer slot
//! (`velocity`, `accum`) of the variable it is named after; name
//! lookups ([`Snapshot::entry_index`], [`Snapshot::view`]) see only
//! untagged entries, so serving never sees slots.
//!
//! [`Snapshot::open`] validates structure only, touching a few hundred
//! bytes and never the weight pages, which the first forward pass
//! faults in lazily. It checks the index CRC, every declared count
//! against the index bytes left before allocating for it, and every
//! declared data range: inside the file past the index, 4-byte aligned,
//! exactly the shape's volume, overlapping no other range. A corrupt or
//! truncated file fails closed there instead of serving garbage rows.
//! Block CRCs are checked by [`Snapshot::tensor_at`], the copying read
//! behind checkpoint restore and role artifacts, not by serving's
//! in-place [`Snapshot::view_at`]. [`write`], the one writer, is atomic
//! (temp file + rename): a server re-opening the path mid-publish sees
//! the old or the new file, never a torn one.

use std::collections::HashMap;
use std::path::Path;

use parallax_comm::crc32;
use parallax_dataflow::{Graph, VarStore};
use parallax_tensor::{Shape, Tensor, TensorView};

use crate::{CoreError, Result};

const MAGIC: &[u8; 8] = b"PLXSNAP2";

/// Magic, index CRC and index length.
const HEADER: usize = 16;

/// The smallest index entry: empty name and tag, rank 0.
const MIN_ENTRY: usize = 8 + 8 + 8 + 8 + 8 + 4;

/// Alignment of every tensor data block, generous enough for any SIMD
/// load the kernels may issue over a mapped view (a cache line).
pub const DATA_ALIGN: usize = 64;

// The data section stores raw f32 bytes and the loader reinterprets
// the mapped pages in place; both sides assume a little-endian host.
#[cfg(not(target_endian = "little"))]
compile_error!("PLXSNAP2 zero-copy tensor files require a little-endian target");

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Config(format!("tensor file I/O: {e}"))
}

fn corrupt(msg: impl std::fmt::Display) -> CoreError {
    CoreError::Config(format!("tensor file corrupt: {msg}"))
}

fn align_up(offset: usize, align: usize) -> usize {
    offset.div_ceil(align) * align
}

/// One entry of a tensor file's index.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Entry name: the variable name as declared in the training graph.
    pub name: String,
    /// Empty for a model variable; otherwise what the entry holds (an
    /// optimizer slot such as `velocity`, or a role-artifact field).
    pub tag: String,
    /// Dense shape.
    pub shape: Shape,
    /// Absolute byte offset of the value block in the file.
    pub offset: usize,
    /// Byte length of the value block (`4 * shape.volume()`).
    pub len: usize,
    /// CRC-32 of the value block, checked by [`Snapshot::tensor_at`].
    pub crc: u32,
}

/// The untagged `(name, "", value)` entries of every variable of
/// `store`, named per `graph`, each checked against its declared shape.
pub(crate) fn graph_entries<'a>(
    graph: &'a Graph,
    store: &'a VarStore,
) -> Result<Vec<(&'a str, &'a str, &'a Tensor)>> {
    graph
        .var_ids()
        .map(|var| {
            let def = graph.var_def(var)?;
            let value = store.get(var)?;
            if value.shape() != &def.shape {
                return Err(CoreError::Config(format!(
                    "variable '{}' has shape {}, graph expects {}",
                    def.name,
                    value.shape(),
                    def.shape
                )));
            }
            Ok((def.name.as_str(), "", value))
        })
        .collect()
}

/// Writes a tensor file: `step`, the header `words`, and one entry per
/// `(name, tag, value)`. Atomic: the bytes go to a sibling temp file
/// (`path` plus `.tmp`) that is then renamed over `path`.
pub fn write(
    path: &Path,
    step: u64,
    words: &[u64],
    entries: &[(&str, &str, &Tensor)],
) -> Result<()> {
    fn put(buf: &mut Vec<u8>, x: u64) {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    // Sized for the data plus an index that rarely needs a page.
    let data_bytes: usize = entries.iter().map(|e| 4 * e.2.len() + DATA_ALIGN).sum();
    let mut out = Vec::with_capacity(4096 + data_bytes);
    out.resize(HEADER, 0);
    put(&mut out, step);
    put(&mut out, words.len() as u64);
    for &w in words {
        put(&mut out, w);
    }
    put(&mut out, entries.len() as u64);
    // Each entry's data offset, length and CRC are patched in once the
    // index length fixes where its block lands.
    let mut patches = Vec::with_capacity(entries.len());
    for (name, tag, value) in entries {
        for text in [name, tag] {
            put(&mut out, text.len() as u64);
            out.extend_from_slice(text.as_bytes());
        }
        let dims = value.shape().dims();
        put(&mut out, dims.len() as u64);
        for &d in dims {
            put(&mut out, d as u64);
        }
        patches.push(out.len());
        out.resize(out.len() + 8 + 8 + 4, 0);
    }
    let index_len = out.len() - HEADER;
    let index_len_u32 = u32::try_from(index_len)
        .map_err(|_| CoreError::Config(format!("tensor file index of {index_len} B over 4 GiB")))?;
    for ((_, _, value), at) in entries.iter().zip(patches) {
        out.resize(align_up(out.len(), DATA_ALIGN), 0);
        let offset = out.len();
        for &x in value.data() {
            out.extend_from_slice(&x.to_le_bytes());
        }
        let (len, crc) = (out.len() - offset, crc32(&out[offset..]));
        out[at..at + 8].copy_from_slice(&(offset as u64).to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&(len as u64).to_le_bytes());
        out[at + 16..at + 20].copy_from_slice(&crc.to_le_bytes());
    }
    let index_crc = crc32(&out[HEADER..HEADER + index_len]);
    out[..8].copy_from_slice(MAGIC);
    out[8..12].copy_from_slice(&index_crc.to_le_bytes());
    out[12..HEADER].copy_from_slice(&index_len_u32.to_le_bytes());

    // A crash mid-write must not destroy the previous file. The temp
    // name extends the whole file name, so files sharing a stem in one
    // directory (`run.ckpt`, `run.snap`) never share a temp file.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, &out).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)
}

/// Writes a weights-only serving snapshot of `store` (named per
/// `graph`) taken after `step` completed training iterations,
/// atomically.
pub fn save(graph: &Graph, store: &VarStore, step: u64, path: &Path) -> Result<()> {
    let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "snapshot.save");
    write(path, step, &[], &graph_entries(graph, store)?)?;
    parallax_trace::counter("snapshot.published").add(1);
    Ok(())
}

/// Bounds-checked little-endian reads over an index block.
struct IndexReader<'a> {
    rest: &'a [u8],
}

impl<'a> IndexReader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(corrupt("index truncated"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64> {
        let raw = self.bytes(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize> {
        let x = self.u64()?;
        usize::try_from(x).map_err(|_| corrupt(format!("value {x} exceeds the address space")))
    }

    /// Reads the count of a list whose items take at least `item_bytes`
    /// each, rejecting one the index bytes left cannot hold before
    /// anything is allocated for it.
    fn count(&mut self, item_bytes: usize, what: impl std::fmt::Display) -> Result<usize> {
        let n = self.u64()?;
        let left = self.rest.len();
        if n > (left / item_bytes) as u64 {
            return Err(corrupt(format!(
                "{what} {n} exceeds the {left} index bytes left"
            )));
        }
        Ok(n as usize)
    }

    fn text(&mut self, what: &str) -> Result<String> {
        let len = self.count(1, format_args!("{what} length"))?;
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| corrupt(format!("{what} is not UTF-8")))
    }
}

/// The header and index of a tensor file, validated against the
/// file's `bytes`: the one parser of the format.
fn parse(bytes: &[u8]) -> Result<(u64, Vec<u64>, Vec<SnapshotEntry>)> {
    let file_len = bytes.len();
    if file_len < HEADER {
        return Err(corrupt("shorter than the fixed header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic (not a PLXSNAP2 tensor file)"));
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let index_len = u32::from_le_bytes(bytes[12..HEADER].try_into().expect("4 bytes")) as usize;
    let data_start = HEADER
        .checked_add(index_len)
        .filter(|&end| end <= file_len)
        .ok_or_else(|| corrupt("index runs past EOF"))?;
    let index = &bytes[HEADER..data_start];
    let actual_crc = crc32(index);
    if stored_crc != actual_crc {
        return Err(corrupt(format!(
            "index CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }

    let mut r = IndexReader { rest: index };
    let step = r.u64()?;
    let word_count = r.count(8, "word count")?;
    let words = (0..word_count)
        .map(|_| r.u64())
        .collect::<Result<Vec<_>>>()?;
    let entry_count = r.count(MIN_ENTRY, "entry count")?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let name = r.text("name")?;
        let tag = r.text("tag")?;
        let rank = r.count(8, "rank")?;
        let dims = (0..rank).map(|_| r.usize()).collect::<Result<Vec<_>>>()?;
        let shape = Shape::new(dims);
        let offset = r.usize()?;
        let len = r.usize()?;
        let crc = u32::from_le_bytes(r.bytes(4)?.try_into().expect("4 bytes"));

        let volume_bytes = shape
            .dims()
            .iter()
            .try_fold(4usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| corrupt(format!("entry '{name}' shape overflows")))?;
        if len != volume_bytes {
            return Err(corrupt(format!(
                "entry '{name}' declares {len} bytes but shape {shape} needs {volume_bytes}"
            )));
        }
        if !offset.is_multiple_of(4) {
            return Err(corrupt(format!(
                "entry '{name}' data offset {offset} is not 4-byte aligned"
            )));
        }
        if offset < data_start {
            return Err(corrupt(format!(
                "entry '{name}' data range starts inside the index"
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(format!("entry '{name}' byte range overflows")))?;
        if end > file_len {
            return Err(corrupt(format!(
                "entry '{name}' byte range [{offset}, {end}) runs past EOF ({file_len})"
            )));
        }
        entries.push(SnapshotEntry {
            name,
            tag,
            shape,
            offset,
            len,
            crc,
        });
    }
    if !r.rest.is_empty() {
        return Err(corrupt("trailing bytes after the index"));
    }
    let mut keys: Vec<(&str, &str)> = entries.iter().map(|e| (&*e.name, &*e.tag)).collect();
    keys.sort_unstable();
    if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(corrupt(format!("duplicate entry '{}'", pair[0].0)));
    }
    // No two declared ranges may overlap: sort by offset, check each
    // ends before the next begins.
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
                "entries '{}' and '{}' declare overlapping byte ranges",
                entries[a].name, entries[b].name
            )));
        }
    }
    Ok((step, words, entries))
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
    // owned-buffer backing so the snapshot and checkpoint suites run
    // under `cargo miri test` (the CI unsafe-memory job).
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

/// An open, validated tensor file. Entries are exposed as
/// [`TensorView`]s borrowing the mapped file bytes — no weight bytes
/// are copied or deserialized until a forward pass reads them.
pub struct Snapshot {
    backing: Backing,
    step: u64,
    words: Vec<u64>,
    entries: Vec<SnapshotEntry>,
    /// Untagged entries only.
    by_name: HashMap<String, usize>,
    // Owned `Shape`s views borrow from (entry order).
    shapes: Vec<Shape>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("step", &self.step)
            .field("words", &self.words.len())
            .field("entries", &self.entries.len())
            .field("bytes", &self.backing.bytes().len())
            .finish()
    }
}

impl Snapshot {
    /// Opens and validates a tensor file, mmap-ing it read-only
    /// (falling back to an aligned owned buffer if mapping fails).
    ///
    /// Validation is fail-closed and structural: bad magic, an index
    /// CRC mismatch, a count the index cannot hold, or a declared byte
    /// range that is misaligned, overlaps another entry's range,
    /// disagrees with its shape's volume, or runs past EOF all reject
    /// the file. Block CRCs are left to [`Snapshot::tensor_at`].
    pub fn open(path: &Path) -> Result<Snapshot> {
        let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "snapshot.load");
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len();
        let file_len =
            usize::try_from(file_len).map_err(|_| corrupt("file larger than the address space"))?;
        #[cfg(unix)]
        let backing = match map_file(&file, file_len) {
            Some(b) => b,
            None => read_owned(&mut file, file_len)?,
        };
        #[cfg(not(unix))]
        let backing = read_owned(&mut file, file_len)?;

        let (step, words, entries) = parse(backing.bytes())?;
        let by_name = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.tag.is_empty())
            .map(|(i, e)| (e.name.clone(), i))
            .collect();
        let shapes = entries.iter().map(|e| e.shape.clone()).collect();
        Ok(Snapshot {
            backing,
            step,
            words,
            entries,
            by_name,
            shapes,
        })
    }

    /// Reads only the step of the tensor file at `path` — the cheap "is
    /// there a newer snapshot?" probe the serving engine runs at batch
    /// boundaries. Validates the magic but nothing else; a refresh that
    /// decides to reload goes through full [`Snapshot::open`]
    /// validation.
    pub fn peek_step(path: &Path) -> Result<u64> {
        use std::io::Read as _;
        let mut head = [0u8; HEADER + 8];
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        file.read_exact(&mut head).map_err(io_err)?;
        if &head[..8] != MAGIC {
            return Err(corrupt("bad magic (not a PLXSNAP2 tensor file)"));
        }
        Ok(u64::from_le_bytes(
            head[HEADER..].try_into().expect("8 bytes"),
        ))
    }

    /// Completed training iterations when the file was written.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The header words (non-tensor state), in file order.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The validated index entries, in file order.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Index of the untagged entry named `name`, if present.
    pub fn entry_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// A zero-copy view of entry `idx`: shape plus the mapped bytes
    /// reinterpreted in place as `f32`s. The block CRC is not checked.
    pub fn view_at(&self, idx: usize) -> Result<TensorView<'_>> {
        let entry = self
            .entries
            .get(idx)
            .ok_or_else(|| CoreError::Config(format!("tensor file has no entry {idx}")))?;
        let raw = &self.backing.bytes()[entry.offset..entry.offset + entry.len];
        // SAFETY: any bit pattern is a valid f32, so reinterpreting
        // immutable bytes is sound. Alignment was validated at open
        // (offset % 4 == 0 over a page-aligned mapping / u32-aligned
        // buffer), so the reinterpret cannot produce head/tail
        // remainders — and a corrupt index fails the check below.
        let (head, floats, tail) = unsafe { raw.align_to::<f32>() };
        if !head.is_empty() || !tail.is_empty() {
            return Err(corrupt(format!(
                "entry '{}' bytes are not f32-aligned",
                entry.name
            )));
        }
        Ok(TensorView::new(&self.shapes[idx], floats)?)
    }

    /// A zero-copy view of the untagged entry (variable) named `name`.
    pub fn view(&self, name: &str) -> Result<TensorView<'_>> {
        let idx = self
            .entry_index(name)
            .ok_or_else(|| CoreError::Config(format!("snapshot has no variable '{name}'")))?;
        self.view_at(idx)
    }

    /// An owned copy of entry `idx`, made only after its block matches
    /// the CRC-32 stored in the index.
    pub fn tensor_at(&self, idx: usize) -> Result<Tensor> {
        let view = self.view_at(idx)?;
        let entry = &self.entries[idx];
        let actual = crc32(&self.backing.bytes()[entry.offset..entry.offset + entry.len]);
        if actual != entry.crc {
            return Err(corrupt(format!(
                "entry '{}' data CRC mismatch: stored {:#010x}, computed {actual:#010x}",
                entry.name, entry.crc
            )));
        }
        Ok(view.to_tensor())
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
    use crate::checkpoint::{self, SlotMap, TrainState};
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

    /// A snapshot of `graph()` and a checkpoint of it with cursors and
    /// one slot: both kinds of file the reader must keep fail-closed.
    /// In both, entries 0..3 are `emb`, `w`, `b`.
    fn files(tag: &str) -> [Vec<u8>; 2] {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path(tag);
        save(&g, &store, 1, &path).unwrap();
        let snapshot = std::fs::read(&path).unwrap();
        let mut slots = SlotMap::new();
        slots.insert(("w".into(), "velocity".into()), Tensor::full([4, 3], 0.5));
        let state = TrainState {
            step: 1,
            cursors: vec![1, 1],
        };
        checkpoint::save(&g, &store, &state, &slots, &path).unwrap();
        let ckpt = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        [snapshot, ckpt]
    }

    /// Byte positions, in a valid file, of the word count, the entry
    /// count, and per entry its name length, tag length, rank and data
    /// offset fields.
    fn fields(bytes: &[u8]) -> (usize, usize, Vec<[usize; 4]>) {
        let at = |p: usize| u64::from_le_bytes(bytes[p..p + 8].try_into().unwrap()) as usize;
        let words = HEADER + 8;
        let count = words + 8 + 8 * at(words);
        let mut pos = count + 8;
        let mut entries = Vec::new();
        for _ in 0..at(count) {
            let name = pos;
            let tag = name + 8 + at(name);
            let rank = tag + 8 + at(tag);
            let offset = rank + 8 + 8 * at(rank);
            entries.push([name, tag, rank, offset]);
            pos = offset + 8 + 8 + 4;
        }
        (words, count, entries)
    }

    /// Overwrites index bytes at `pos` and recomputes the index CRC, so
    /// validation — not the checksum — is what must catch the lie.
    fn forge(bytes: &mut [u8], pos: usize, value: &[u8]) {
        bytes[pos..pos + value.len()].copy_from_slice(value);
        let index_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[HEADER..HEADER + index_len]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    }

    /// Rewrites entry `k`'s (offset, len) index fields.
    fn forge_range(bytes: &mut [u8], k: usize, offset: u64, len: u64) {
        let pos = fields(bytes).2[k][3];
        forge(bytes, pos, &offset.to_le_bytes());
        forge(bytes, pos + 8, &len.to_le_bytes());
    }

    /// Asserts `bytes` fail closed both as a snapshot and as a
    /// checkpoint, with an error mentioning `want`.
    fn assert_rejected(bytes: &[u8], want: &str) {
        let path = temp_path(&format!("rejected_{}", want.replace(' ', "_")));
        std::fs::write(&path, bytes).unwrap();
        let errors = [
            Snapshot::open(&path).err(),
            checkpoint::load(&graph(), &path).err(),
        ];
        std::fs::remove_file(&path).ok();
        for err in errors {
            match err {
                Some(CoreError::Config(msg)) => {
                    assert!(msg.contains(want), "expected '{want}', got: {msg}")
                }
                other => panic!("forged file must fail closed with '{want}', got {other:?}"),
            }
        }
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

    /// Every declared count is checked against the index bytes left
    /// before anything is allocated for it (a forged 2^58 once panicked
    /// with "capacity overflow" or aborted the process).
    #[test]
    fn rejects_forged_counts() {
        let [_, ckpt] = files("counts");
        let (words, count, entries) = fields(&ckpt);
        // The slot entry: the one with a tag.
        let [name, tag, rank, _] = entries[3];
        for (pos, what) in [
            (words, "word count"),
            (count, "entry count"),
            (name, "name length"),
            (tag, "tag length"),
            (rank, "rank"),
        ] {
            let mut forged = ckpt.clone();
            forge(&mut forged, pos, &(1u64 << 58).to_le_bytes());
            assert_rejected(&forged, what);
        }
    }

    #[test]
    fn rejects_duplicate_entries() {
        for mut bytes in files("duplicate") {
            // Rename 'b' to 'w', a name entry 1 already has.
            let name = fields(&bytes).2[2][0] + 8;
            forge(&mut bytes, name, b"w");
            assert_rejected(&bytes, "duplicate entry 'w'");
        }
    }

    #[test]
    fn rejects_range_past_eof() {
        for bytes in files("eof") {
            let mut forged = bytes.clone();
            // Keep len == 4 * volume (so the volume check passes) but
            // push the block past the end of the file.
            forge_range(&mut forged, 2, (bytes.len() as u64 - 8) & !3, 3 * 4);
            assert_rejected(&forged, "EOF");
        }
    }

    #[test]
    fn rejects_overlapping_ranges() {
        for bytes in files("overlap") {
            // Point 'w' (12 floats) into the middle of 'emb' (40 floats).
            let emb_pos = fields(&bytes).2[0][3];
            let emb_off = u64::from_le_bytes(bytes[emb_pos..emb_pos + 8].try_into().unwrap());
            let mut forged = bytes.clone();
            forge_range(&mut forged, 1, emb_off + 4, 12 * 4);
            assert_rejected(&forged, "overlap");
        }
    }

    #[test]
    fn rejects_misaligned_and_wrong_length_ranges() {
        for bytes in files("misalign") {
            let pos = fields(&bytes).2[2][3];
            let good_off = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            // Misaligned offset.
            let mut forged = bytes.clone();
            forge_range(&mut forged, 2, good_off + 2, 3 * 4);
            assert_rejected(&forged, "aligned");
            // Length disagreeing with the declared shape.
            let mut forged = bytes.clone();
            forge_range(&mut forged, 2, good_off, 2 * 4);
            assert_rejected(&forged, "needs");
            // Range pointing into the index region.
            let mut forged = bytes.clone();
            forge_range(&mut forged, 2, HEADER as u64, 3 * 4);
            assert_rejected(&forged, "index");
        }
    }

    #[test]
    fn atomic_publish_replaces_older_snapshot() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("republish.snap");
        save(&g, &store, 2, &path).unwrap();
        let mut newer = store.clone();
        let var = g.find_variable("b").unwrap();
        newer.set(var, Tensor::full([3], 9.0)).unwrap();
        save(&g, &newer, 4, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.step(), 4);
        assert_eq!(snap.view("b").unwrap().data(), &[9.0, 9.0, 9.0]);
        // The temp file was renamed away, and its name kept the
        // extension.
        assert!(!temp_path("republish.snap.tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
