//! Model checkpointing.
//!
//! The paper's `ParallaxConfig` includes "a file path to save trained
//! variables". This module implements that, plus the training state
//! (step counter, data-shard cursors) and optimizer slots the runner
//! needs to resume after a failure.
//!
//! A checkpoint is a tensor file ([`crate::snapshot`]): the variables
//! as untagged entries (so a serving engine can open it like any
//! snapshot), each optimizer slot as an entry named after its variable
//! and tagged with the slot name (`velocity`, `accum`), the step as the
//! file's step and the per-worker cursors as its header words. [`load`]
//! opens it with [`Snapshot::open`]'s fail-closed validation and copies
//! each tensor out after checking its block CRC. Saves are atomic.

use std::collections::BTreeMap;
use std::path::Path;

use parallax_dataflow::{Graph, VarStore};
use parallax_tensor::Tensor;

use crate::snapshot::{self, Snapshot};
use crate::{CoreError, Result};

/// Optimizer slot variables keyed by `(variable name, slot name)`.
///
/// A `BTreeMap` so serialization order — and therefore the bytes on
/// disk — is deterministic regardless of how the map was assembled.
pub type SlotMap = BTreeMap<(String, String), Tensor>;

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

/// Saves every variable of `store` (named per `graph`), the training
/// `state` and the optimizer `slots` to `path`, atomically.
pub fn save(
    graph: &Graph,
    store: &VarStore,
    state: &TrainState,
    slots: &SlotMap,
    path: &Path,
) -> Result<()> {
    let mut entries = snapshot::graph_entries(graph, store)?;
    entries.extend(
        slots
            .iter()
            .map(|((var, slot), value)| (var.as_str(), slot.as_str(), value)),
    );
    snapshot::write(path, state.step, &state.cursors, &entries)
}

/// Loads a checkpoint into a [`VarStore`] laid out for `graph`,
/// returning the saved [`TrainState`] and optimizer [`SlotMap`].
///
/// Variables are matched *by name*, so the checkpoint survives graph
/// edits that only reorder declarations; CRC mismatches, shape
/// mismatches and missing variables are errors. Slot entries naming a
/// variable the graph no longer has are silently dropped — the model
/// still loads, the stale state does not.
pub fn load(graph: &Graph, path: &Path) -> Result<(VarStore, TrainState, SlotMap)> {
    let file = Snapshot::open(path)?;
    let mut values = Vec::with_capacity(graph.variables().len());
    for var in graph.var_ids() {
        let def = graph.var_def(var)?;
        let idx = file.entry_index(&def.name).ok_or_else(|| {
            CoreError::Config(format!("checkpoint missing variable '{}'", def.name))
        })?;
        let shape = &file.entries()[idx].shape;
        if shape != &def.shape {
            return Err(CoreError::Config(format!(
                "checkpoint variable '{}' has shape {shape}, graph expects {}",
                def.name, def.shape
            )));
        }
        values.push(file.tensor_at(idx)?);
    }
    let mut slots = SlotMap::new();
    for (idx, entry) in file.entries().iter().enumerate() {
        if !entry.tag.is_empty() && graph.find_variable(&entry.name).is_some() {
            slots.insert(
                (entry.name.clone(), entry.tag.clone()),
                file.tensor_at(idx)?,
            );
        }
    }
    let state = TrainState {
        step: file.step(),
        cursors: file.words().to_vec(),
    };
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

    /// Saves `store` with no training state and no slots.
    fn save_weights(g: &Graph, store: &VarStore, path: &Path) {
        save(g, store, &TrainState::default(), &SlotMap::new(), path).unwrap();
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("roundtrip");
        save_weights(&g, &store, &path);
        let (loaded, _, _) = load(&g, &path).unwrap();
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
        save(&g, &store, &state, &SlotMap::new(), &path).unwrap();
        let (loaded, got, _) = load(&g, &path).unwrap();
        assert_eq!(got, state);
        assert_eq!(store.max_divergence(&loaded), 0.0);
        std::fs::remove_file(&path).ok();
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
        save(&g, &store, &state, &slots, &path).unwrap();
        let (loaded, got_state, got_slots) = load(&g, &path).unwrap();
        assert_eq!(store.max_divergence(&loaded), 0.0);
        assert_eq!(got_state, state);
        assert_eq!(got_slots, slots);
        // Served as a snapshot, name lookups find the variables, never
        // the slots stored under the same names.
        let snap = Snapshot::open(&path).unwrap();
        let w = g.find_variable("w").unwrap();
        assert_eq!(snap.view("w").unwrap().data(), store.get(w).unwrap().data());
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
        save(&g, &store, &TrainState::default(), &slots, &path).unwrap();
        let (_, _, got) = load(&g, &path).unwrap();
        assert!(got.is_empty(), "stale slot must be dropped, got {got:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_matches_by_name_not_order() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("reorder");
        save_weights(&g, &store, &path);
        // A graph with the same variables declared in a different order.
        let mut g2 = Graph::new();
        g2.variable(VariableDef::new("b", [3], Init::Zeros))
            .unwrap();
        g2.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.1)))
            .unwrap();
        g2.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        let (loaded, _, _) = load(&g2, &path).unwrap();
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
        save_weights(&g, &store, &path);
        // Truncated file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(load(&g, &path).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(load(&g, &path).is_err());
        // A single flipped bit in the last data block: caught by that
        // block's CRC, named after its variable.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        match load(&g, &path) {
            Err(CoreError::Config(msg)) => assert!(
                msg.contains("CRC") && msg.contains("'b'"),
                "expected a CRC error naming 'b', got: {msg}"
            ),
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

    /// Pins the bytes of a small checkpoint — header, index with state
    /// words and one slot entry, stored index and block CRCs, aligned
    /// data — whose values do not depend on the RNG, so a format or
    /// checksum change that would orphan saved files fails here.
    #[test]
    fn container_bytes_match_golden() {
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
        let path = temp_path("golden.ckpt");
        save(&g, &store, &state, &slots, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "504c58534e415032ebcb82acdf0000000500000000000000020000000000000001000000\
             000000000200000000000000030000000000000001000000000000007700000000000000\
             000200000000000000020000000000000002000000000000000001000000000000100000\
             0000000000554bbbec010000000000000062000000000000000001000000000000000300\
             00000000000040010000000000000c000000000000006fc6d57b01000000000000007708\
             0000000000000076656c6f63697479020000000000000002000000000000000200000000\
             00000080010000000000001000000000000000aba87b1f00000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000000000000000\
             0000000000000000000000000000000000000000000000000000003f000080bf00000040\
             0000803e"
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
        save_weights(&g, &VarStore::from_values(vec![stitched]), &path);

        // Restore and re-shard under P' = 2.
        let (loaded, _, _) = load(&g, &path).unwrap();
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
