//! Model checkpointing.
//!
//! The paper's `ParallaxConfig` includes "a file path to save trained
//! variables". This module implements that: a dependency-free binary
//! format with integrity checks on load, plus the training state
//! (step counter, data-shard cursors) the runner needs to resume after a
//! failure.
//!
//! Format v3 (`PLXCKPT3`): magic, CRC32 (IEEE, little-endian, over the
//! entire payload that follows), then the payload — step `u64`, cursor
//! count `u64`, cursors (`u64` each), variable count `u64`, per
//! variable its name, shape and little-endian `f32` data, then an
//! optimizer-slot section: entry count `u64` and per entry the variable
//! name, slot name (e.g. `velocity`, `accum`), shape and `f32` data.
//! Format v2 (`PLXCKPT2`) lacked the slot section; v1 (`PLXCKPT1`)
//! additionally lacked the CRC and training state. [`load`] /
//! [`load_with_state`] / [`load_full`] read all three (older formats
//! yield a default state and/or empty slots). Saves are atomic: written
//! to a temp file in the same directory, then renamed.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read as _, Write as _};
use std::path::Path;

use parallax_comm::crc32;
use parallax_dataflow::{Graph, VarStore};
use parallax_tensor::{Shape, Tensor};

use crate::{CoreError, Result};

const MAGIC_V1: &[u8; 8] = b"PLXCKPT1";
const MAGIC_V2: &[u8; 8] = b"PLXCKPT2";
const MAGIC_V3: &[u8; 8] = b"PLXCKPT3";

/// Optimizer slot variables keyed by `(variable name, slot name)`.
///
/// A `BTreeMap` so serialization order — and therefore the bytes on
/// disk — is deterministic regardless of how the map was assembled.
pub type SlotMap = BTreeMap<(String, String), Tensor>;

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Config(format!("checkpoint I/O: {e}"))
}

/// Training progress saved alongside the variables, so a resumed run
/// replays from exactly where the checkpoint was cut.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainState {
    /// Number of completed iterations (the resumed run starts here).
    pub step: u64,
    /// Per-worker data-shard cursors: how many batches each worker has
    /// consumed. With deterministic feeds these are redundant with
    /// `step`, but real input pipelines are stateful, so they are
    /// first-class in the format.
    pub cursors: Vec<u64>,
}

fn write_name(payload: &mut Vec<u8>, name: &str) {
    payload.extend_from_slice(&(name.len() as u64).to_le_bytes());
    payload.extend_from_slice(name.as_bytes());
}

fn write_tensor(payload: &mut Vec<u8>, value: &Tensor) {
    let dims = value.shape().dims();
    payload.extend_from_slice(&(dims.len() as u64).to_le_bytes());
    for &d in dims {
        payload.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &x in value.data() {
        payload.extend_from_slice(&x.to_le_bytes());
    }
}

/// Saves every variable of `store` (named per `graph`) plus `state` to
/// `path`, atomically (temp file + rename). Equivalent to [`save_full`]
/// with no optimizer slots.
pub fn save_with_state(
    graph: &Graph,
    store: &VarStore,
    state: &TrainState,
    path: &Path,
) -> Result<()> {
    save_full(graph, store, state, &SlotMap::new(), path)
}

/// Saves every variable of `store` (named per `graph`), the training
/// `state` and the optimizer `slots` to `path`, atomically (temp file +
/// rename). Always writes format v3.
pub fn save_full(
    graph: &Graph,
    store: &VarStore,
    state: &TrainState,
    slots: &SlotMap,
    path: &Path,
) -> Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&state.step.to_le_bytes());
    payload.extend_from_slice(&(state.cursors.len() as u64).to_le_bytes());
    for &c in &state.cursors {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    payload.extend_from_slice(&(graph.variables().len() as u64).to_le_bytes());
    for var in graph.var_ids() {
        let def = graph.var_def(var)?;
        let value = store.get(var)?;
        write_name(&mut payload, &def.name);
        write_tensor(&mut payload, value);
    }
    payload.extend_from_slice(&(slots.len() as u64).to_le_bytes());
    for ((var_name, slot_name), value) in slots {
        write_name(&mut payload, var_name);
        write_name(&mut payload, slot_name);
        write_tensor(&mut payload, value);
    }
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(MAGIC_V3);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);

    // Atomic save: a crash mid-write must not destroy the previous
    // checkpoint, so write a sibling temp file and rename over.
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(&out).map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)?;
    Ok(())
}

/// Saves every variable of `store` (named per `graph`) to `path` with a
/// default (step 0) training state.
pub fn save(graph: &Graph, store: &VarStore, path: &Path) -> Result<()> {
    save_with_state(graph, store, &TrainState::default(), path)
}

/// Loads a checkpoint into a [`VarStore`] laid out for `graph`,
/// discarding the training state.
pub fn load(graph: &Graph, path: &Path) -> Result<VarStore> {
    load_with_state(graph, path).map(|(store, _)| store)
}

/// Loads a checkpoint into a [`VarStore`] laid out for `graph`,
/// returning the saved [`TrainState`] and discarding optimizer slots.
pub fn load_with_state(graph: &Graph, path: &Path) -> Result<(VarStore, TrainState)> {
    load_full(graph, path).map(|(store, state, _)| (store, state))
}

/// Loads a checkpoint (v3, v2 or legacy v1) into a [`VarStore`] laid
/// out for `graph`, returning the saved [`TrainState`] (default for v1
/// files) and optimizer [`SlotMap`] (empty for v1/v2 files).
///
/// Variables are matched *by name*, so the checkpoint survives graph
/// edits that only reorder declarations; CRC mismatches (v2+), shape
/// mismatches and missing variables are errors. Slot entries naming a
/// variable the graph no longer has are silently dropped — the model
/// still loads, the stale state does not.
pub fn load_full(graph: &Graph, path: &Path) -> Result<(VarStore, TrainState, SlotMap)> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .map_err(io_err)?
        .read_to_end(&mut bytes)
        .map_err(io_err)?;
    if bytes.len() < 8 {
        return Err(CoreError::Config("checkpoint truncated".into()));
    }
    let magic: &[u8] = &bytes[..8];
    let has_slots = magic == MAGIC_V3;
    let (payload, versioned) = if magic == MAGIC_V2 || magic == MAGIC_V3 {
        if bytes.len() < 12 {
            return Err(CoreError::Config("checkpoint truncated".into()));
        }
        let stored = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let payload = &bytes[12..];
        let actual = crc32(payload);
        if stored != actual {
            return Err(CoreError::Config(format!(
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        (payload, true)
    } else if magic == MAGIC_V1 {
        (&bytes[8..], false)
    } else {
        return Err(CoreError::Config(
            "not a parallax checkpoint (bad magic)".into(),
        ));
    };

    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Result<&[u8]> {
        if *cursor + n > payload.len() {
            return Err(CoreError::Config("checkpoint truncated".into()));
        }
        let slice = &payload[*cursor..*cursor + n];
        *cursor += n;
        Ok(slice)
    };
    let read_u64 = |cursor: &mut usize| -> Result<u64> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(take(cursor, 8)?);
        Ok(u64::from_le_bytes(buf))
    };

    let state = if versioned {
        let step = read_u64(&mut cursor)?;
        let n = read_u64(&mut cursor)? as usize;
        let mut cursors = Vec::with_capacity(n);
        for _ in 0..n {
            cursors.push(read_u64(&mut cursor)?);
        }
        TrainState { step, cursors }
    } else {
        TrainState::default()
    };

    let read_name = |cursor: &mut usize| -> Result<String> {
        let len = read_u64(cursor)? as usize;
        String::from_utf8(take(cursor, len)?.to_vec())
            .map_err(|_| CoreError::Config("checkpoint name is not UTF-8".into()))
    };
    let read_tensor = |cursor: &mut usize| -> Result<Tensor> {
        let rank = read_u64(cursor)? as usize;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u64(cursor)? as usize);
        }
        let shape = Shape::new(dims);
        let volume = shape.volume();
        let raw = take(cursor, volume * 4)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Tensor::new(shape, data)?)
    };

    let count = read_u64(&mut cursor)? as usize;
    let mut by_name: HashMap<String, Tensor> = HashMap::with_capacity(count);
    for _ in 0..count {
        let name = read_name(&mut cursor)?;
        let tensor = read_tensor(&mut cursor)?;
        by_name.insert(name, tensor);
    }
    let mut slots = SlotMap::new();
    if has_slots {
        let n = read_u64(&mut cursor)? as usize;
        for _ in 0..n {
            let var_name = read_name(&mut cursor)?;
            let slot_name = read_name(&mut cursor)?;
            let tensor = read_tensor(&mut cursor)?;
            if graph.find_variable(&var_name).is_some() {
                slots.insert((var_name, slot_name), tensor);
            }
        }
    }
    if cursor != payload.len() {
        return Err(CoreError::Config("trailing bytes after checkpoint".into()));
    }

    let mut values = Vec::with_capacity(graph.variables().len());
    for var in graph.var_ids() {
        let def = graph.var_def(var)?;
        let tensor = by_name.remove(&def.name).ok_or_else(|| {
            CoreError::Config(format!("checkpoint missing variable '{}'", def.name))
        })?;
        if tensor.shape() != &def.shape {
            return Err(CoreError::Config(format!(
                "checkpoint variable '{}' has shape {}, graph expects {}",
                def.name,
                tensor.shape(),
                def.shape
            )));
        }
        values.push(tensor);
    }
    Ok((VarStore::from_values(values), state, slots))
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
        p.push(format!("parallax_ckpt_test_{}_{name}", std::process::id()));
        p
    }

    /// Writes the legacy v1 layout (no CRC, no train state) for the
    /// compatibility test.
    fn save_v1(graph: &Graph, store: &VarStore, path: &std::path::Path) {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_V1);
        out.extend_from_slice(&(graph.variables().len() as u64).to_le_bytes());
        for var in graph.var_ids() {
            let def = graph.var_def(var).unwrap();
            let value = store.get(var).unwrap();
            let name = def.name.as_bytes();
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name);
            let dims = value.shape().dims();
            out.extend_from_slice(&(dims.len() as u64).to_le_bytes());
            for &d in dims {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for &x in value.data() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("roundtrip");
        save(&g, &store, &path).unwrap();
        let loaded = load(&g, &path).unwrap();
        assert_eq!(store.max_divergence(&loaded), 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_state_roundtrips() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let state = TrainState {
            step: 17,
            cursors: vec![4, 5, 4, 4],
        };
        let path = temp_path("state");
        save_with_state(&g, &store, &state, &path).unwrap();
        let (loaded, got) = load_with_state(&g, &path).unwrap();
        assert_eq!(got, state);
        assert_eq!(store.max_divergence(&loaded), 0.0);
        std::fs::remove_file(&path).ok();
    }

    /// Writes the legacy v2 layout (no slot section) for the
    /// compatibility test.
    fn save_v2(graph: &Graph, store: &VarStore, state: &TrainState, path: &std::path::Path) {
        let mut payload = Vec::new();
        payload.extend_from_slice(&state.step.to_le_bytes());
        payload.extend_from_slice(&(state.cursors.len() as u64).to_le_bytes());
        for &c in &state.cursors {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        payload.extend_from_slice(&(graph.variables().len() as u64).to_le_bytes());
        for var in graph.var_ids() {
            let def = graph.var_def(var).unwrap();
            write_name(&mut payload, &def.name);
            write_tensor(&mut payload, store.get(var).unwrap());
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_V2);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn optimizer_slots_roundtrip() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let mut slots = SlotMap::new();
        slots.insert(
            ("w".into(), "velocity".into()),
            Tensor::new([4, 3], (0..12).map(|i| i as f32 * 0.25).collect::<Vec<_>>()).unwrap(),
        );
        slots.insert(
            ("emb".into(), "velocity".into()),
            Tensor::new([10, 4], vec![0.5; 40]).unwrap(),
        );
        let state = TrainState {
            step: 9,
            cursors: vec![3, 3, 3],
        };
        let path = temp_path("slots");
        save_full(&g, &store, &state, &slots, &path).unwrap();
        let (loaded, got_state, got_slots) = load_full(&g, &path).unwrap();
        assert_eq!(store.max_divergence(&loaded), 0.0);
        assert_eq!(got_state, state);
        assert_eq!(got_slots, slots);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slot_for_removed_variable_is_dropped_not_fatal() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let mut slots = SlotMap::new();
        slots.insert(
            ("ghost".into(), "accum".into()),
            Tensor::new([2], vec![1.0, 2.0]).unwrap(),
        );
        let path = temp_path("ghost_slot");
        save_full(&g, &store, &TrainState::default(), &slots, &path).unwrap();
        let (_, _, got) = load_full(&g, &path).unwrap();
        assert!(got.is_empty(), "stale slot must be dropped, got {got:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v2_files_load_with_empty_slots() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(5));
        let state = TrainState {
            step: 4,
            cursors: vec![2, 2],
        };
        let path = temp_path("v2compat");
        save_v2(&g, &store, &state, &path);
        let (loaded, got_state, slots) = load_full(&g, &path).unwrap();
        assert_eq!(store.max_divergence(&loaded), 0.0);
        assert_eq!(got_state, state);
        assert!(slots.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(9));
        let path = temp_path("v1compat");
        save_v1(&g, &store, &path);
        let (loaded, state) = load_with_state(&g, &path).unwrap();
        assert_eq!(store.max_divergence(&loaded), 0.0);
        assert_eq!(state, TrainState::default());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_matches_by_name_not_order() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("reorder");
        save(&g, &store, &path).unwrap();
        // A graph with the same variables declared in a different order.
        let mut g2 = Graph::new();
        g2.variable(VariableDef::new("b", [3], Init::Zeros))
            .unwrap();
        g2.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.1)))
            .unwrap();
        g2.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        let loaded = load(&g2, &path).unwrap();
        let b = g2.find_variable("b").unwrap();
        assert_eq!(loaded.get(b).unwrap().shape().dims(), &[3]);
        let emb2 = loaded
            .get(g2.find_variable("emb").unwrap())
            .unwrap()
            .clone();
        let emb1 = store.get(g.find_variable("emb").unwrap()).unwrap();
        assert_eq!(&emb2, emb1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corruption_and_mismatches() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("corrupt");
        save(&g, &store, &path).unwrap();
        // Truncated file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(load(&g, &path).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(load(&g, &path).is_err());
        // A single flipped payload bit: caught by the CRC.
        let mut flipped = bytes.clone();
        let mid = 12 + (flipped.len() - 12) / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        match load(&g, &path) {
            Err(CoreError::Config(msg)) => {
                assert!(msg.contains("CRC"), "expected CRC error, got: {msg}")
            }
            other => panic!("bit flip must fail the CRC, got {other:?}"),
        }
        // Shape mismatch against a different graph.
        std::fs::write(&path, &bytes).unwrap();
        let mut g3 = Graph::new();
        g3.variable(VariableDef::new("emb", [10, 5], Init::Zeros))
            .unwrap();
        g3.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        g3.variable(VariableDef::new("b", [3], Init::Zeros))
            .unwrap();
        assert!(load(&g3, &path).is_err());
        // Missing variable.
        let mut g4 = graph();
        g4.variable(VariableDef::new("extra", [2], Init::Zeros))
            .unwrap();
        assert!(load(&g4, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Pins the PLXCKPT3 bytes (magic, CRC, state, variables, slots)
    /// of a small checkpoint whose values do not depend on the RNG, so
    /// a codec or checksum change that would orphan saved checkpoints
    /// fails here.
    #[test]
    fn v3_bytes_match_golden() {
        let mut g = Graph::new();
        g.variable(VariableDef::new("w", [2, 2], Init::Zeros))
            .unwrap();
        g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
        let store = VarStore::init(&g, &mut DetRng::seed(1));
        let state = TrainState {
            step: 5,
            cursors: vec![1, 2],
        };
        let mut slots = SlotMap::new();
        slots.insert(
            ("w".into(), "velocity".into()),
            Tensor::new([2, 2], vec![0.5, -1.0, 2.0, 0.25]).unwrap(),
        );
        let path =
            std::env::temp_dir().join(format!("parallax_ckpt_golden_{}.ckpt", std::process::id()));
        save_full(&g, &store, &state, &slots, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "504c58434b505433844ab4be050000000000000002000000000000000100000000000000\
             020000000000000002000000000000000100000000000000770200000000000000020000\
             000000000002000000000000000000000000000000000000000000000001000000000000\
             006201000000000000000300000000000000000000000000000000000000010000000000\
             0000010000000000000077080000000000000076656c6f63697479020000000000000002\
             0000000000000002000000000000000000003f000080bf000000400000803e"
        );
    }

    #[test]
    fn partitioned_sparse_var_roundtrips_across_partition_counts() {
        use parallax_ps::plan::RowPartition;
        // Save a sparse (row-partitioned) variable's stitched value
        // under P = 3 partitions, restore and re-shard under P' = 2:
        // the stitch path must make partitioning invisible to the file.
        let mut g = Graph::new();
        g.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.5)))
            .unwrap();
        let store = VarStore::init(&g, &mut DetRng::seed(11));
        let var = g.find_variable("emb").unwrap();
        let full = store.get(var).unwrap().clone();

        // Shard under P = 3 (as PS servers would hold it), stitch, save.
        let p3 = RowPartition::even(10, 3).unwrap();
        let shards3: Vec<Tensor> = (0..3)
            .map(|p| {
                let r = p3.range(p);
                full.slice_rows(r.start, r.end).unwrap()
            })
            .collect();
        let stitched = p3.stitch(&shards3).unwrap();
        assert_eq!(stitched, full);
        let path = temp_path("repartition");
        save(&g, &VarStore::from_values(vec![stitched]), &path).unwrap();

        // Restore and re-shard under P' = 2.
        let loaded = load(&g, &path).unwrap();
        let restored = loaded.get(var).unwrap();
        let p2 = RowPartition::even(10, 2).unwrap();
        let shards2: Vec<Tensor> = (0..2)
            .map(|p| {
                let r = p2.range(p);
                restored.slice_rows(r.start, r.end).unwrap()
            })
            .collect();
        let rebuilt = p2.stitch(&shards2).unwrap();
        assert_eq!(rebuilt, full, "P=3 save -> P'=2 restore must be exact");
        std::fs::remove_file(&path).ok();
    }
}
