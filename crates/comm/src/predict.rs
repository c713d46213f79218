//! Static traffic prediction: charge a communication schedule into a
//! ledger *without running anything*.
//!
//! The plan verifier (`parallax-core::plancheck`) statically computes,
//! per traffic class, the bytes a distributed plan will move in one
//! iteration, and cross-checks them against what the live
//! [`crate::traffic::TrafficStats`] accounting would record — a
//! compile-time analogue of the runtime conservation crosscheck. The
//! messages it charges are the events of the session machine
//! ([`crate::protocheck::SessionSpec`]); this module supplies the rest:
//!
//! * [`StaticLedger`] — accounting identical to a live router's
//!   [`TrafficStats`] (it *is* one, fed by hand), keyed by the same
//!   rank→machine mapping and tag→class convention, so a predicted
//!   snapshot is comparable to a measured one with `==`;
//! * per-hop sizing of the ring collectives in [`crate::collectives`]:
//!   which chunk or contribution a ring position sends at each hop.
//!   Unit tests pin both against the real collectives' measured
//!   traffic.

use std::sync::Arc;

use crate::collectives::chunk_range;
use crate::topology::Topology;
use crate::traffic::{TrafficClass, TrafficSnapshot, TrafficStats};
use crate::wire::WireFormat;
use crate::Result;

/// A traffic ledger charged by static prediction instead of live sends.
///
/// Internally this wraps the very same [`TrafficStats`] accumulator the
/// transport layer charges, so intra/inter splitting, link accounting
/// and message counting are *identical by construction* — the predictor
/// can only diverge from a measurement by charging the wrong schedule,
/// never by accounting the right schedule differently.
#[derive(Debug, Clone)]
pub struct StaticLedger {
    topo: Topology,
    stats: Arc<TrafficStats>,
}

impl StaticLedger {
    /// An empty ledger over a cluster topology (the same rank→machine
    /// mapping the live router uses).
    pub fn new(topo: Topology) -> Self {
        let stats = TrafficStats::new(topo.num_machines());
        StaticLedger { topo, stats }
    }

    /// The topology the ledger charges against.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Charges one message from rank `src` to rank `dst` under `tag`,
    /// exactly as `Endpoint::send` would: bytes go to the class named by
    /// the tag's namespace and are split intra/inter by the machines
    /// hosting the two ranks.
    pub fn charge(&self, src: usize, dst: usize, tag: u64, bytes: u64) -> Result<()> {
        let src_machine = self.topo.machine_of(src)?;
        let dst_machine = self.topo.machine_of(dst)?;
        self.stats
            .record_class(src_machine, dst_machine, bytes, TrafficClass::from_tag(tag));
        Ok(())
    }

    /// Snapshot of one traffic class (comparable to a live
    /// `TrafficStats::class_snapshot` with `==`).
    pub fn class_snapshot(&self, class: TrafficClass) -> TrafficSnapshot {
        self.stats.class_snapshot(class)
    }

    /// Snapshot summed over all classes.
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.stats.snapshot()
    }
}

/// Bytes the rank at ring position `pos` of `n` sends at hop `hop`
/// (`0..2(n-1)`) of a ring AllReduce of a bucket of buffers of lengths
/// `lens` under `wire`. Reduce-scatter hop `s` sends chunk
/// `(pos - s) mod n` and allgather hop `s` chunk `(pos + 1 - s) mod n`:
/// the rotation `collectives::ring_allreduce` performs, whose hop message
/// for chunk `c` carries each buffer's own chunk `c`.
pub fn ring_allreduce_hop_bytes(
    lens: &[usize],
    n: usize,
    pos: usize,
    hop: usize,
    wire: WireFormat,
) -> u64 {
    debug_assert!(hop < 2 * (n - 1), "hop {hop} outside a ring of {n}");
    let chunk = if hop < n - 1 {
        pos + n - hop
    } else {
        pos + 2 * n - hop
    };
    let elems: usize = lens
        .iter()
        .map(|&len| chunk_range(len, n, chunk % n).len())
        .sum();
    wire.scalar_bytes() * elems as u64
}

/// The ring position whose contribution the rank at position `pos` of
/// `n` forwards at hop `hop` (`0..n-1`) of a ring AllGatherv:
/// `(pos - hop) mod n`, its own at hop 0.
pub fn allgatherv_hop_source(n: usize, pos: usize, hop: usize) -> usize {
    (pos + n - hop) % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allgatherv_slices_parts_wire, gather_slices_to, ring_allreduce};
    use crate::transport::{Endpoint, Payload, Router};
    use parallax_tensor::{IndexedSlices, Tensor};

    /// Runs `f` on every endpoint concurrently and returns the router's
    /// traffic accumulator.
    fn run_all(topo: Topology, f: impl Fn(&mut Endpoint, &[usize]) + Sync) -> Arc<TrafficStats> {
        let n = topo.num_workers();
        let ranks: Vec<usize> = (0..n).collect();
        let (eps, traffic) = Router::build(topo);
        std::thread::scope(|s| {
            for mut ep in eps {
                let ranks = &ranks;
                let f = &f;
                s.spawn(move || f(&mut ep, ranks));
            }
        });
        traffic
    }

    #[test]
    fn ledger_charges_like_an_endpoint() {
        let topo = Topology::new(vec![2, 1]).unwrap();
        let ledger = StaticLedger::new(topo.clone());
        // rank 0 -> rank 2 crosses machines; rank 0 -> rank 1 stays local.
        let req = crate::tag::request_tag(0);
        ledger.charge(0, 2, req, 100).unwrap();
        ledger.charge(0, 1, req, 40).unwrap();
        let ps = ledger.class_snapshot(TrafficClass::Ps);
        assert_eq!(ps.out_bytes, vec![100, 0]);
        assert_eq!(ps.in_bytes, vec![0, 100]);
        assert_eq!(ps.intra_bytes_per_machine, vec![40, 0]);
        assert_eq!(ps.inter_messages, 1);
        assert_eq!(ps.intra_messages, 1);
        // Wrong class stays empty; unknown ranks error instead of panic.
        assert_eq!(ledger.class_snapshot(TrafficClass::Nccl).inter_messages, 0);
        assert!(ledger.charge(9, 0, 0, 1).is_err());
    }

    /// Charges a ring AllReduce of a bucket over ranks `0..n` hop by hop.
    fn charge_ring(ledger: &StaticLedger, n: usize, tag: u64, lens: &[usize], wire: WireFormat) {
        for pos in 0..n {
            for hop in 0..2 * (n - 1) {
                let bytes = ring_allreduce_hop_bytes(lens, n, pos, hop, wire);
                ledger.charge(pos, (pos + 1) % n, tag, bytes).unwrap();
            }
        }
    }

    /// Charges a ring AllGatherv over ranks `0..n` hop by hop.
    fn charge_allgatherv(ledger: &StaticLedger, n: usize, tag: u64, contrib: &[u64]) {
        for pos in 0..n {
            for hop in 0..n - 1 {
                let bytes = contrib[allgatherv_hop_source(n, pos, hop)];
                ledger.charge(pos, (pos + 1) % n, tag, bytes).unwrap();
            }
        }
    }

    #[test]
    fn ring_allreduce_hops_match_execution_exactly() {
        // Mixed topologies and lengths (incl. not divisible by n, and a
        // multi-GPU machine so intra-machine hops show up).
        for (gpus, len) in [
            (vec![1, 1, 1, 1], 8usize),
            (vec![1, 1, 1], 7),
            (vec![2, 1], 10),
            (vec![2, 2, 1], 13),
            (vec![3], 5),
        ] {
            let topo = Topology::new(gpus).unwrap();
            let tag = 0x1000_0000_0000_0000u64;
            let measured = run_all(topo.clone(), |ep, ranks| {
                let mut data = vec![1.0f32; len];
                ring_allreduce(ep, ranks, tag, &mut [&mut data[..]]).unwrap();
            });
            let ledger = StaticLedger::new(topo.clone());
            charge_ring(&ledger, topo.num_workers(), tag, &[len], WireFormat::F32);
            assert_eq!(
                ledger.class_snapshot(TrafficClass::Nccl),
                measured.class_snapshot(TrafficClass::Nccl),
                "gpus={:?} len={len}",
                topo.gpus_per_machine()
            );
        }
    }

    #[test]
    fn wire_ring_allreduce_hops_match_execution_exactly() {
        use crate::collectives::ring_allreduce_wire;
        // Single buffers and fused buckets (empty and sub-ring-sized
        // buffers included): one message per hop however many buffers
        // ride the ring, sized from every buffer's own chunk.
        for wire in [WireFormat::F32, WireFormat::F16, WireFormat::Bf16] {
            for (gpus, lens) in [
                (vec![1, 1, 1, 1], vec![8usize]),
                (vec![2, 1], vec![10]),
                (vec![2, 2, 1], vec![13]),
                (vec![1, 1, 1, 1], vec![8, 0, 3, 37]),
                (vec![2, 1], vec![10, 1, 7]),
                (vec![2, 2, 1], vec![13, 4, 0, 6, 29]),
            ] {
                let topo = Topology::new(gpus).unwrap();
                let tag = 0x1000_0000_0000_0000u64;
                let measured = run_all(topo.clone(), |ep, ranks| {
                    let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&l| vec![1.0; l]).collect();
                    let mut views: Vec<&mut [f32]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
                    ring_allreduce_wire(ep, ranks, tag, &mut views, wire).unwrap();
                });
                let ledger = StaticLedger::new(topo.clone());
                let n = topo.num_workers();
                charge_ring(&ledger, n, tag, &lens, wire);
                let (predicted, measured) = (
                    ledger.class_snapshot(TrafficClass::Nccl),
                    measured.class_snapshot(TrafficClass::Nccl),
                );
                let what = format!(
                    "wire={wire:?} gpus={:?} lens={lens:?}",
                    topo.gpus_per_machine()
                );
                assert_eq!(predicted, measured, "{what}");
                assert_eq!(
                    measured.inter_messages + measured.intra_messages,
                    (n * 2 * (n - 1)) as u64,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn wire_allgatherv_slices_hops_match_execution_exactly() {
        use crate::wire::slices_wire_bytes;
        for wire in [WireFormat::F32, WireFormat::F16] {
            for gpus in [vec![1, 1, 1], vec![2, 2]] {
                let topo = Topology::new(gpus).unwrap();
                let tag = 0x3000_0000_0000_0000u64;
                let cols = 3usize;
                let nnz = |rank: usize| rank + 1;
                let build = |r: usize| {
                    IndexedSlices::new(
                        (0..nnz(r)).map(|i| i * 50).collect(),
                        Tensor::full([nnz(r), cols], r as f32),
                        1000,
                    )
                    .unwrap()
                };
                let measured = run_all(topo.clone(), |ep, ranks| {
                    allgatherv_slices_parts_wire(ep, ranks, tag, build(ep.rank()), wire).unwrap();
                });
                let ledger = StaticLedger::new(topo.clone());
                let n = topo.num_workers();
                let contrib: Vec<u64> =
                    (0..n).map(|r| slices_wire_bytes(&build(r), wire)).collect();
                charge_allgatherv(&ledger, n, tag, &contrib);
                assert_eq!(
                    ledger.class_snapshot(TrafficClass::Mpi),
                    measured.class_snapshot(TrafficClass::Mpi),
                    "wire={wire:?} gpus={:?}",
                    topo.gpus_per_machine()
                );
            }
        }
    }

    #[test]
    fn allgatherv_slices_hops_match_execution_exactly() {
        for gpus in [vec![1, 1, 1], vec![2, 2], vec![2, 1, 1]] {
            let topo = Topology::new(gpus).unwrap();
            let tag = 0x3000_0000_0000_0000u64;
            let cols = 3usize;
            let nnz = |rank: usize| rank + 1;
            let measured = run_all(topo.clone(), |ep, ranks| {
                let r = ep.rank();
                let local = IndexedSlices::new(
                    (0..nnz(r)).collect(),
                    Tensor::full([nnz(r), cols], r as f32),
                    16,
                )
                .unwrap();
                allgatherv_slices_parts_wire(ep, ranks, tag, local, WireFormat::F32).unwrap();
            });
            let ledger = StaticLedger::new(topo.clone());
            let n = topo.num_workers();
            // IndexedSlices payload bytes: 4 per value + 8 per index.
            let contrib: Vec<u64> = (0..n)
                .map(|r| (4 * nnz(r) * cols + 8 * nnz(r)) as u64)
                .collect();
            charge_allgatherv(&ledger, n, tag, &contrib);
            assert_eq!(
                ledger.class_snapshot(TrafficClass::Mpi),
                measured.class_snapshot(TrafficClass::Mpi),
                "gpus={:?}",
                topo.gpus_per_machine()
            );
        }
    }

    #[test]
    fn gather_sends_one_buffer_per_non_root() {
        let topo = Topology::new(vec![2, 2]).unwrap();
        let tag = 0x2000_0000_0000_0000u64;
        let measured = run_all(topo.clone(), |ep, ranks| {
            // Machine-local gathers to each machine's first rank, the
            // shape local aggregation uses.
            let machine_ranks: Vec<usize> = if ep.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            let root = machine_ranks[0];
            if ranks.contains(&ep.rank()) {
                let slices =
                    IndexedSlices::new(vec![ep.rank()], Tensor::full([1, 2], 1.0), 8).unwrap();
                gather_slices_to(ep, &machine_ranks, tag, root, slices).unwrap();
            }
        });
        let ledger = StaticLedger::new(topo);
        for (root, peer) in [(0usize, 1usize), (2, 3)] {
            // One [1, 2] slice: 8 value bytes + 8 index bytes.
            ledger.charge(peer, root, tag, 16).unwrap();
        }
        assert_eq!(
            ledger.class_snapshot(TrafficClass::LocalAgg),
            measured.class_snapshot(TrafficClass::LocalAgg)
        );
    }

    #[test]
    fn payload_byte_sizes_are_what_prediction_assumes() {
        // The predictor hardcodes the wire sizes of the payload kinds it
        // models; pin them against the transport's byte_size.
        assert_eq!(Payload::Floats(Arc::new(vec![0.0; 7])).byte_size(), 28);
        let slices = IndexedSlices::new(vec![0, 2], Tensor::zeros([2, 3]), 4).unwrap();
        assert_eq!(
            Payload::Slices(Arc::new(slices)).byte_size(),
            2 * 3 * 4 + 2 * 8
        );
        assert_eq!(
            Payload::Tensor(Arc::new(Tensor::zeros([5]))).byte_size(),
            20
        );
        assert_eq!(Payload::Ids(vec![1, 2, 3]).byte_size(), 24);
        assert_eq!(Payload::Control(0).byte_size(), 8);
        assert_eq!(
            Payload::Packet {
                header: 0,
                body: Box::new(Payload::Control(0)),
            }
            .byte_size(),
            16
        );
    }
}
