//! Byte-accurate network traffic accounting.
//!
//! Every message routed between workers on different machines is charged
//! here. The per-machine in/out counters are the measured counterpart of
//! the closed-form expressions in Table 3 of the paper, and the network
//! half of the iteration-time simulation reads them directly.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::tag::{self, TagClass};

/// Traffic class of a message, derived from its tag's namespace (see
/// [`crate::tag`]): collectives, local aggregation, and Parameter Server
/// RPC are accounted separately so the iteration-time simulation can
/// apply per-transport efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Untagged / miscellaneous traffic.
    Default = 0,
    /// NCCL-style ring collectives (AllReduce).
    Nccl = 1,
    /// Intra-machine local aggregation.
    LocalAgg = 2,
    /// MPI-style collectives (AllGatherv).
    Mpi = 3,
    /// Parameter Server RPC (pulls, pushes, notifications).
    Ps = 4,
}

impl TrafficClass {
    /// Number of distinct classes.
    pub const COUNT: usize = 5;

    /// All classes in index order.
    pub fn all() -> [TrafficClass; TrafficClass::COUNT] {
        [
            TrafficClass::Default,
            TrafficClass::Nccl,
            TrafficClass::LocalAgg,
            TrafficClass::Mpi,
            TrafficClass::Ps,
        ]
    }

    /// Classifies a message by its tag's namespace.
    pub fn from_tag(tag: u64) -> Self {
        match tag::classify(tag) {
            TagClass::Collective { .. } => TrafficClass::Nccl,
            TagClass::LocalAgg { .. } => TrafficClass::LocalAgg,
            TagClass::Gatherv { .. } => TrafficClass::Mpi,
            TagClass::Request { .. } | TagClass::Response { .. } => TrafficClass::Ps,
            TagClass::Unknown => TrafficClass::Default,
        }
    }
}

/// An immutable snapshot of accumulated traffic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    /// Bytes sent from each machine onto the network.
    pub out_bytes: Vec<u64>,
    /// Bytes received by each machine from the network.
    pub in_bytes: Vec<u64>,
    /// Bytes per directed inter-machine link.
    pub link_bytes: HashMap<(usize, usize), u64>,
    /// Bytes that stayed within each machine (PCIe/NVLink, not network).
    pub intra_bytes_per_machine: Vec<u64>,
    /// Count of inter-machine messages (for latency modelling).
    pub inter_messages: u64,
    /// Count of intra-machine messages.
    pub intra_messages: u64,
}

impl TrafficSnapshot {
    /// Total bytes crossing the network (sum over machines of out-bytes).
    pub fn total_network_bytes(&self) -> u64 {
        self.out_bytes.iter().sum()
    }

    /// Total intra-machine bytes.
    pub fn intra_bytes(&self) -> u64 {
        self.intra_bytes_per_machine.iter().sum()
    }

    /// Subtracts an earlier snapshot, yielding the traffic of the window
    /// between the two (used to attribute traffic to protocol phases).
    ///
    /// Subtraction saturates at zero: if the counters were `reset()`
    /// between the two snapshots, the "earlier" snapshot can exceed the
    /// later one, and a wrapped difference would be nonsense.
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| x.saturating_sub(*y)).collect()
        };
        let mut link_bytes = self.link_bytes.clone();
        for (k, v) in &earlier.link_bytes {
            if let Some(slot) = link_bytes.get_mut(k) {
                *slot = slot.saturating_sub(*v);
            }
        }
        TrafficSnapshot {
            out_bytes: sub(&self.out_bytes, &earlier.out_bytes),
            in_bytes: sub(&self.in_bytes, &earlier.in_bytes),
            link_bytes,
            intra_bytes_per_machine: sub(
                &self.intra_bytes_per_machine,
                &earlier.intra_bytes_per_machine,
            ),
            inter_messages: self.inter_messages.saturating_sub(earlier.inter_messages),
            intra_messages: self.intra_messages.saturating_sub(earlier.intra_messages),
        }
    }

    /// Accumulates another snapshot into this one.
    pub fn add_assign(&mut self, other: &TrafficSnapshot) {
        for (a, b) in self.out_bytes.iter_mut().zip(&other.out_bytes) {
            *a += b;
        }
        for (a, b) in self.in_bytes.iter_mut().zip(&other.in_bytes) {
            *a += b;
        }
        for (a, b) in self
            .intra_bytes_per_machine
            .iter_mut()
            .zip(&other.intra_bytes_per_machine)
        {
            *a += b;
        }
        for (k, v) in &other.link_bytes {
            *self.link_bytes.entry(*k).or_insert(0) += v;
        }
        self.inter_messages += other.inter_messages;
        self.intra_messages += other.intra_messages;
    }

    /// Per-machine `in + out` loads.
    pub fn machine_loads(&self) -> Vec<u64> {
        self.out_bytes
            .iter()
            .zip(&self.in_bytes)
            .map(|(o, i)| o + i)
            .collect()
    }

    /// # Examples
    ///
    /// ```
    /// use parallax_comm::TrafficStats;
    /// let stats = TrafficStats::new(3);
    /// stats.record(0, 1, 300); // Machine 0 serves two peers:
    /// stats.record(0, 2, 300); // it is the hot PS server.
    /// assert!(stats.snapshot().imbalance() > 1.4);
    /// ```
    /// The imbalance ratio `max load / mean load` (1.0 = perfectly even);
    /// quantifies the PS asymmetry the paper identifies as the root cause
    /// of its underperformance on dense variables.
    pub fn imbalance(&self) -> f64 {
        let loads = self.machine_loads();
        if loads.is_empty() {
            return 1.0;
        }
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    by_class: Vec<TrafficSnapshot>,
}

/// Thread-safe traffic accumulator shared by all endpoints of a router.
#[derive(Debug)]
pub struct TrafficStats {
    inner: Mutex<Inner>,
    machines: usize,
}

impl TrafficStats {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn empty_snapshot(machines: usize) -> TrafficSnapshot {
        TrafficSnapshot {
            out_bytes: vec![0; machines],
            in_bytes: vec![0; machines],
            intra_bytes_per_machine: vec![0; machines],
            ..TrafficSnapshot::default()
        }
    }

    /// Creates an accumulator for `machines` machines.
    pub fn new(machines: usize) -> Arc<Self> {
        let by_class = (0..TrafficClass::COUNT)
            .map(|_| Self::empty_snapshot(machines))
            .collect();
        Arc::new(TrafficStats {
            inner: Mutex::new(Inner { by_class }),
            machines,
        })
    }

    /// Records a message of `bytes` from `src_machine` to `dst_machine`
    /// under the default class.
    pub fn record(&self, src_machine: usize, dst_machine: usize, bytes: u64) {
        self.record_class(src_machine, dst_machine, bytes, TrafficClass::Default);
    }

    /// Records a message under an explicit traffic class.
    pub fn record_class(
        &self,
        src_machine: usize,
        dst_machine: usize,
        bytes: u64,
        class: TrafficClass,
    ) {
        let mut inner = self.lock();
        let snap = &mut inner.by_class[class as usize];
        if src_machine == dst_machine {
            snap.intra_bytes_per_machine[src_machine] += bytes;
            snap.intra_messages += 1;
        } else {
            snap.out_bytes[src_machine] += bytes;
            snap.in_bytes[dst_machine] += bytes;
            *snap
                .link_bytes
                .entry((src_machine, dst_machine))
                .or_insert(0) += bytes;
            snap.inter_messages += 1;
        }
    }

    /// Takes a snapshot of accumulated traffic, summed over all classes.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let inner = self.lock();
        let mut total = Self::empty_snapshot(self.machines);
        for snap in &inner.by_class {
            total.add_assign(snap);
        }
        total
    }

    /// Takes a snapshot of one traffic class.
    pub fn class_snapshot(&self, class: TrafficClass) -> TrafficSnapshot {
        self.lock().by_class[class as usize].clone()
    }

    /// Resets all counters (used between measurement windows, e.g. to
    /// discard warm-up iterations).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.by_class = (0..TrafficClass::COUNT)
            .map(|_| Self::empty_snapshot(self.machines))
            .collect();
    }

    /// Number of machines being tracked.
    pub fn num_machines(&self) -> usize {
        self.machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_by_locality() {
        let stats = TrafficStats::new(2);
        stats.record(0, 1, 100);
        stats.record(1, 0, 50);
        stats.record(0, 0, 999);
        let s = stats.snapshot();
        assert_eq!(s.out_bytes, vec![100, 50]);
        assert_eq!(s.in_bytes, vec![50, 100]);
        assert_eq!(s.intra_bytes(), 999);
        assert_eq!(s.inter_messages, 2);
        assert_eq!(s.intra_messages, 1);
        assert_eq!(s.total_network_bytes(), 150);
        assert_eq!(s.link_bytes[&(0, 1)], 100);
    }

    #[test]
    fn machine_loads_and_imbalance() {
        let stats = TrafficStats::new(3);
        // Machine 0 is the hot PS server: sends 200 to each other machine.
        stats.record(0, 1, 200);
        stats.record(0, 2, 200);
        stats.record(1, 0, 10);
        let s = stats.snapshot();
        assert_eq!(s.machine_loads(), vec![410, 210, 200]);
        assert!(s.imbalance() > 1.4, "hot machine shows up as imbalance");
    }

    #[test]
    fn reset_clears() {
        let stats = TrafficStats::new(2);
        stats.record(0, 1, 7);
        stats.reset();
        let s = stats.snapshot();
        assert_eq!(s.total_network_bytes(), 0);
        assert_eq!(s.out_bytes.len(), 2);
    }

    #[test]
    fn classes_are_separated_and_summed() {
        let stats = TrafficStats::new(2);
        stats.record_class(0, 1, 100, TrafficClass::Nccl);
        stats.record_class(0, 1, 50, TrafficClass::Ps);
        assert_eq!(stats.class_snapshot(TrafficClass::Nccl).out_bytes[0], 100);
        assert_eq!(stats.class_snapshot(TrafficClass::Ps).out_bytes[0], 50);
        assert_eq!(stats.class_snapshot(TrafficClass::Mpi).out_bytes[0], 0);
        assert_eq!(stats.snapshot().out_bytes[0], 150);
    }

    #[test]
    fn class_from_tag_nibbles() {
        assert_eq!(
            TrafficClass::from_tag(0x1000_0000_0000_0000),
            TrafficClass::Nccl
        );
        assert_eq!(
            TrafficClass::from_tag(0x2000_0000_0000_0001),
            TrafficClass::LocalAgg
        );
        assert_eq!(
            TrafficClass::from_tag(0x3000_0000_0000_0000),
            TrafficClass::Mpi
        );
        assert_eq!(
            TrafficClass::from_tag(0x4000_0000_0000_0000),
            TrafficClass::Ps
        );
        // `response_tag(PullDense, 0, 0, 0xabc)`.
        assert_eq!(
            TrafficClass::from_tag(0x8400_0000_0000_0abc),
            TrafficClass::Ps
        );
        // The response bit with kind bits naming no request kind: no
        // constructor produces it, so it is no PS traffic.
        assert_eq!(
            TrafficClass::from_tag(0x8000_0000_0000_0abc),
            TrafficClass::Default
        );
        // Response tags for request kinds >= 4 carry the kind bits into
        // the top nibble: 0x8... | (kind << 58) reads back as 0x9....
        assert_eq!(
            TrafficClass::from_tag(0x9800_0000_0000_0abc),
            TrafficClass::Ps
        );
        // Kind 8 (FetchShard) responses: 0x8... | (8 << 58) == 0xA....
        assert_eq!(
            TrafficClass::from_tag(0xA000_0000_0000_0ABC),
            TrafficClass::Ps
        );
        assert_eq!(TrafficClass::from_tag(7), TrafficClass::Default);
    }

    #[test]
    fn since_computes_window_delta() {
        let stats = TrafficStats::new(2);
        stats.record(0, 1, 100);
        let before = stats.snapshot();
        stats.record(0, 1, 40);
        stats.record(1, 1, 8);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.out_bytes, vec![40, 0]);
        assert_eq!(delta.link_bytes[&(0, 1)], 40);
        assert_eq!(delta.intra_bytes(), 8);
        assert_eq!(delta.inter_messages, 1);
    }

    #[test]
    fn since_saturates_across_reset() {
        let stats = TrafficStats::new(2);
        stats.record(0, 1, 100);
        stats.record(1, 1, 50);
        let before = stats.snapshot();
        stats.reset();
        stats.record(0, 1, 30);
        // The reset made counters go backwards; the delta must clamp to
        // zero rather than wrap around.
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.out_bytes, vec![0, 0]);
        assert_eq!(delta.in_bytes, vec![0, 0]);
        assert_eq!(delta.link_bytes[&(0, 1)], 0);
        assert_eq!(delta.intra_bytes(), 0);
        assert_eq!(delta.inter_messages, 0);
        assert_eq!(delta.intra_messages, 0);
    }

    #[test]
    fn imbalance_single_machine_and_zero_loads() {
        // One machine: max == mean, perfectly balanced by definition.
        let stats = TrafficStats::new(1);
        stats.record(0, 0, 123); // intra only — zero network load
        assert_eq!(stats.snapshot().imbalance(), 1.0);
        // All-zero loads (no traffic at all): defined as 1.0, not NaN.
        let idle = TrafficStats::new(4);
        assert_eq!(idle.snapshot().imbalance(), 1.0);
        // Degenerate empty snapshot.
        assert_eq!(TrafficSnapshot::default().imbalance(), 1.0);
    }

    #[test]
    fn class_snapshots_sum_to_unclassified_snapshot() {
        let stats = TrafficStats::new(3);
        stats.record_class(0, 1, 100, TrafficClass::Nccl);
        stats.record_class(1, 2, 75, TrafficClass::Ps);
        stats.record_class(2, 0, 33, TrafficClass::Mpi);
        stats.record_class(0, 0, 12, TrafficClass::LocalAgg);
        stats.record(1, 0, 9);
        let mut summed = TrafficSnapshot {
            out_bytes: vec![0; 3],
            in_bytes: vec![0; 3],
            intra_bytes_per_machine: vec![0; 3],
            ..TrafficSnapshot::default()
        };
        for class in TrafficClass::all() {
            summed.add_assign(&stats.class_snapshot(class));
        }
        assert_eq!(summed, stats.snapshot());
        assert_eq!(summed.total_network_bytes(), 217);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let stats = TrafficStats::new(2);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let stats = &stats;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        stats.record(0, 1, 1);
                    }
                });
            }
        });
        assert_eq!(stats.snapshot().out_bytes[0], 8000);
    }
}
