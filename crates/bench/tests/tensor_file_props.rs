//! Fail-closed property test of the one tensor file reader, over each
//! kind of file written in it: a checkpoint with state words and
//! optimizer slots, a serving snapshot, and a `repro dist` role
//! artifact. Truncations, header and index bit flips, and random
//! buffers must each come back as a typed error: never a panic, never
//! an allocation sized by a forged count. A bit flipped inside a data
//! block must fail the CRC-checked reads (checkpoint restore, artifact
//! read) with an error naming the entry, while `Snapshot::open` still
//! succeeds, because serving validates structure only.

use std::path::{Path, PathBuf};

use parallax_bench::dist::RoleArtifact;
use parallax_core::checkpoint::{self, SlotMap, TrainState};
use parallax_core::runner::TrafficReport;
use parallax_core::snapshot::{self, Snapshot};
use parallax_dataflow::graph::Init;
use parallax_dataflow::{Graph, VarStore, VariableDef};
use parallax_net::Role;
use parallax_tensor::{DetRng, Tensor};

const KINDS: [&str; 3] = ["checkpoint", "snapshot", "artifact"];

fn graph() -> Graph {
    let mut g = Graph::new();
    g.variable(VariableDef::new("emb", [6, 4], Init::Normal(0.1)))
        .unwrap();
    g.variable(VariableDef::new("w", [4, 3], Init::Glorot))
        .unwrap();
    g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
    g
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("parallax_tensor_file_{}_{tag}", std::process::id()))
}

/// Writes a file of `kind` to `path` and returns its bytes.
fn build(kind: &str, path: &Path) -> Vec<u8> {
    let g = graph();
    let store = VarStore::init(&g, &mut DetRng::seed(4));
    match kind {
        "checkpoint" => {
            let mut slots = SlotMap::new();
            slots.insert(("w".into(), "velocity".into()), Tensor::full([4, 3], 0.25));
            slots.insert(("emb".into(), "velocity".into()), Tensor::full([6, 4], 0.5));
            let state = TrainState {
                step: 3,
                cursors: vec![3, 3],
            };
            checkpoint::save(&g, &store, &state, &slots, path).unwrap();
        }
        "snapshot" => snapshot::save(&g, &store, 3, path).unwrap(),
        _ => RoleArtifact {
            role: Role::Chief,
            start_iter: 1,
            span_bytes: 4096,
            losses: vec![2.5, 2.25],
            norms: vec![0.75],
            compute_secs: 0.125,
            store: Some(
                store
                    .held()
                    .map(|(var, t)| (var.index() as u64, t.clone()))
                    .collect(),
            ),
            shards: vec![((0, 1), Tensor::full([3, 4], 1.5))],
            traffic: TrafficReport::default(),
        }
        .write(path)
        .unwrap(),
    }
    std::fs::read(path).unwrap()
}

/// Reads the file at `path` as `kind`; `Ok` means it was accepted.
fn decode(kind: &str, path: &Path) -> Result<(), String> {
    let typed = |r: parallax_core::Result<()>| r.map_err(|e| e.to_string());
    match kind {
        "checkpoint" => typed(checkpoint::load(&graph(), path).map(drop)),
        "snapshot" => typed(Snapshot::open(path).map(drop)),
        _ => RoleArtifact::read(path).map(drop),
    }
}

#[test]
fn damaged_files_fail_closed() {
    let path = temp("damaged");
    let mut rng = DetRng::seed(0x5eed);
    for kind in KINDS {
        let bytes = build(kind, &path);
        decode(kind, &path).unwrap_or_else(|e| panic!("{kind}: intact file rejected: {e}"));
        let reject = |buf: &[u8], case: &str| {
            std::fs::write(&path, buf).unwrap();
            assert!(decode(kind, &path).is_err(), "{kind}: {case} was accepted");
        };
        for len in 0..bytes.len() {
            reject(&bytes[..len], &format!("truncation to {len} B"));
        }
        let index_end = 16 + u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        for bit in 0..index_end * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            reject(&flipped, &format!("bit flip {bit}"));
        }
        for i in 0..256 {
            let len = rng.below(2 * bytes.len());
            let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            reject(&noise, &format!("random buffer {i}"));
            let behind_magic = [&bytes[..8], &noise[..]].concat();
            reject(
                &behind_magic,
                &format!("random buffer {i} behind the magic"),
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn data_block_bit_flip_fails_checked_reads_only() {
    let path = temp("block_flip");
    for kind in KINDS {
        let mut bytes = build(kind, &path);
        let first = Snapshot::open(&path).unwrap().entries()[0].clone();
        bytes[first.offset + first.len / 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // The serving contract: open checks structure, not weight pages.
        let snap = Snapshot::open(&path)
            .unwrap_or_else(|e| panic!("{kind}: open must not read data blocks: {e}"));
        assert!(snap.view_at(0).is_ok());
        if kind == "snapshot" {
            continue;
        }
        let err = decode(kind, &path).expect_err("a flipped data bit must fail the block CRC");
        let name = format!("'{}'", first.name);
        assert!(
            err.contains("CRC") && err.contains(&name),
            "{kind}: expected a CRC error naming {name}, got: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}
