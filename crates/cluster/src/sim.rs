//! Iteration-time simulation.
//!
//! Combines (a) per-machine GPU compute time, (b) per-machine server CPU
//! time (sparse aggregation/update), and (c) per-phase network time
//! derived from traffic — measured via `parallax-comm` in executed mode,
//! or produced by the analytic transfer formulas at paper scale — into a
//! per-iteration wall-clock estimate. The slowest machine gates the
//! synchronous iteration, which is exactly the asymmetry argument of
//! Section 3.1: a PS machine hosting a hot dense variable stalls everyone.

use parallax_comm::TrafficSnapshot;

use crate::hardware::{ClusterModel, Transport};

/// One communication phase of an iteration (e.g. "ring AllReduce over
/// NCCL", "sparse pulls over gRPC"). Phases execute sequentially; overlap
/// with compute is modelled by [`ClusterModel::comm_overlap`].
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Transport used by this phase.
    pub transport: Transport,
    /// Bytes each machine sends onto the network in this phase.
    pub out_bytes: Vec<f64>,
    /// Bytes each machine receives from the network in this phase.
    pub in_bytes: Vec<f64>,
    /// Intra-machine bytes moved per machine in this phase.
    pub intra_bytes: Vec<f64>,
    /// Sequential inter-machine messages on the critical path of each
    /// machine in this phase (drives latency cost).
    pub messages: Vec<f64>,
}

impl Phase {
    /// Builds a phase from a measured traffic snapshot.
    ///
    /// Message counts are global in the snapshot, so they are attributed
    /// evenly across machines.
    pub fn from_snapshot(transport: Transport, snap: &TrafficSnapshot) -> Self {
        let machines = snap.out_bytes.len().max(1);
        let msgs = snap.inter_messages as f64 / machines as f64;
        Phase {
            transport,
            out_bytes: snap.out_bytes.iter().map(|&b| b as f64).collect(),
            in_bytes: snap.in_bytes.iter().map(|&b| b as f64).collect(),
            intra_bytes: snap
                .intra_bytes_per_machine
                .iter()
                .map(|&b| b as f64)
                .collect(),
            messages: vec![msgs; snap.out_bytes.len()],
        }
    }

    /// A phase with uniform per-machine loads (analytic mode helper).
    pub fn uniform(
        transport: Transport,
        machines: usize,
        out_bytes: f64,
        in_bytes: f64,
        messages: f64,
    ) -> Self {
        Phase {
            transport,
            out_bytes: vec![out_bytes; machines],
            in_bytes: vec![in_bytes; machines],
            intra_bytes: vec![0.0; machines],
            messages: vec![messages; machines],
        }
    }

    /// Seconds machine `m` spends communicating in this phase. Links are
    /// full duplex: send and receive streams progress concurrently, so the
    /// slower direction gates. The machine's network slowdown factor
    /// divides its bandwidth and multiplies its per-message latency.
    pub fn machine_time(&self, model: &ClusterModel, m: usize) -> f64 {
        let scale = model.network_scale(m);
        let bw = model.net.effective_bandwidth(self.transport) / scale;
        let out = self.out_bytes.get(m).copied().unwrap_or(0.0);
        let inb = self.in_bytes.get(m).copied().unwrap_or(0.0);
        let intra = self.intra_bytes.get(m).copied().unwrap_or(0.0);
        let msgs = self.messages.get(m).copied().unwrap_or(0.0);
        out.max(inb) / bw
            + intra * scale / model.net.effective_intra_bandwidth(self.transport)
            + msgs * model.net.latency(self.transport) * scale
    }
}

/// FIFO queueing model for the Parameter Server, replacing the flat
/// `server_cpu` service-time-only term. Per server machine, requests
/// arrive in two waves — *early* requests (pulls, issued while workers
/// start their forward pass) at iteration start, and *late* requests
/// (gradient pushes) when each worker machine finishes compute — and
/// are served FIFO by a single server loop at the machine's measured
/// mean service time. The replay ([`crate::des::fifo_replay`]) yields
/// both when the server finishes (feeding the machine's iteration time)
/// and its idle-gap total, which predicts the measured `ps.wait_ns`
/// histogram mean.
#[derive(Debug, Clone, PartialEq)]
pub struct PsQueueModel {
    /// Requests per iteration arriving at iteration start, per server
    /// machine (pulls and control traffic).
    pub early_requests: Vec<f64>,
    /// Requests per iteration arriving when worker machines finish
    /// compute, per server machine (gradient pushes).
    pub late_requests: Vec<f64>,
    /// Mean service seconds per request, per server machine.
    pub mean_service: Vec<f64>,
}

impl PsQueueModel {
    fn get(v: &[f64], m: usize) -> f64 {
        v.get(m).copied().unwrap_or(0.0).max(0.0)
    }

    /// Builds the per-server request list for one iteration and replays
    /// it. `compute_ready[w]` is when worker machine `w` finishes
    /// compute (already scaled for stragglers); early requests arrive
    /// at t=0, late requests at their sender's compute-ready time,
    /// attributed round-robin across worker machines.
    pub fn replay(&self, m: usize, compute_ready: &[f64]) -> crate::des::QueueStats {
        let senders = compute_ready.len().max(1);
        let early = Self::get(&self.early_requests, m).round() as usize;
        let late = Self::get(&self.late_requests, m).round() as usize;
        let service = Self::get(&self.mean_service, m);
        let mut requests = Vec::with_capacity(early + late);
        for _ in 0..early {
            requests.push((0.0, service));
        }
        for i in 0..late {
            let w = i % senders;
            let ready = compute_ready.get(w).copied().unwrap_or(0.0);
            requests.push((ready, service));
        }
        crate::des::fifo_replay(&mut requests)
    }
}

/// Per-iteration timing inputs and the combination rule.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSim {
    /// Hardware model.
    pub model: ClusterModel,
    /// GPU compute seconds per machine (max over that machine's workers),
    /// at *nominal* machine speed; per-machine compute slowdown factors
    /// from [`ClusterModel::scales`] are applied at evaluation time.
    pub compute: Vec<f64>,
    /// Server CPU seconds per machine (sparse aggregation/update work).
    pub server_cpu: Vec<f64>,
    /// Communication phases of the iteration.
    pub phases: Vec<Phase>,
    /// Optional FIFO queueing model for the Parameter Server. When set,
    /// each machine's time is also gated by when its server drains its
    /// request queue; calibrated profiles use this *instead of*
    /// `server_cpu` (service time lives in the queue model).
    pub ps_queue: Option<PsQueueModel>,
}

impl IterationSim {
    /// A simulator with no load for `machines` machines.
    pub fn new(model: ClusterModel, machines: usize) -> Self {
        IterationSim {
            model,
            compute: vec![0.0; machines],
            server_cpu: vec![0.0; machines],
            phases: Vec::new(),
            ps_queue: None,
        }
    }

    /// Per-machine compute time with the machine's slowdown applied —
    /// when each worker machine is ready to push gradients.
    pub fn scaled_compute(&self) -> Vec<f64> {
        self.compute
            .iter()
            .enumerate()
            .map(|(m, &c)| c * self.model.compute_scale(m))
            .collect()
    }

    /// Per-server queue replay outcomes (empty when no queue model is
    /// attached).
    pub fn queue_stats(&self) -> Vec<crate::des::QueueStats> {
        let Some(queue) = &self.ps_queue else {
            return Vec::new();
        };
        let ready = self.scaled_compute();
        (0..self.compute.len())
            .map(|m| queue.replay(m, &ready))
            .collect()
    }

    /// Predicted mean PS wait (server idle gap per request, seconds)
    /// across all servers; `None` without a queue model or requests.
    /// Comparable to the measured `ps.wait_ns` histogram mean.
    pub fn predicted_mean_ps_wait(&self) -> Option<f64> {
        let stats = self.queue_stats();
        let requests: usize = stats.iter().map(|s| s.requests).sum();
        if requests == 0 {
            return None;
        }
        let wait: f64 = stats.iter().map(|s| s.total_wait).sum();
        Some(wait / requests as f64)
    }

    /// Predicted p99 PS wait (seconds): the largest idle gap across
    /// every server's queue replay. The replay models one representative
    /// iteration with tens of requests per server, so the tail quantile
    /// and the maximum coincide; comparable (loosely — see the bench
    /// crate's `P99_BAND`) to the measured `ps.wait_ns` histogram's p99
    /// bucket upper bound. `None` without a queue model or requests.
    pub fn predicted_p99_ps_wait(&self) -> Option<f64> {
        let stats = self.queue_stats();
        if stats.iter().map(|s| s.requests).sum::<usize>() == 0 {
            return None;
        }
        Some(stats.iter().map(|s| s.max_wait).fold(0.0, f64::max))
    }

    /// Per-machine iteration time.
    pub fn machine_times(&self) -> Vec<f64> {
        let machines = self.compute.len();
        let queue_stats = self.queue_stats();
        (0..machines)
            .map(|m| {
                let cs = self.model.compute_scale(m);
                let comm: f64 = self
                    .phases
                    .iter()
                    .map(|p| p.machine_time(&self.model, m))
                    .sum();
                let exposed_comm = comm * (1.0 - self.model.comm_overlap);
                let worker = (self.compute[m] + self.server_cpu.get(m).copied().unwrap_or(0.0))
                    * cs
                    + exposed_comm;
                // With a queue model, the machine is also busy until its
                // server drains the iteration's request queue.
                let server_done = queue_stats.get(m).map(|s| s.done).unwrap_or(0.0);
                worker.max(server_done)
            })
            .collect()
    }

    /// Max/median ratio of per-machine iteration times: the modelled
    /// straggler penalty (1.0 for a homogeneous, symmetric cluster).
    /// Median is the upper median, matching the straggler report.
    pub fn straggler_ratio(&self) -> f64 {
        Self::max_over_median(&self.machine_times())
    }

    /// Max/median ratio of per-machine *compute* times (slowdowns
    /// applied, communication excluded) — the modelled counterpart of
    /// the trace exporter's compute-skew statistic, which measures
    /// un-gated busy time because synchronous barriers equalize the
    /// full iteration spans.
    pub fn compute_skew_ratio(&self) -> f64 {
        Self::max_over_median(&self.scaled_compute())
    }

    fn max_over_median(times: &[f64]) -> f64 {
        if times.is_empty() {
            return 1.0;
        }
        let max = times.iter().copied().fold(0.0, f64::max);
        let mut sorted = times.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = sorted[sorted.len() / 2];
        if median <= 0.0 {
            1.0
        } else {
            max / median
        }
    }

    /// Wall-clock seconds for one synchronous iteration: the slowest
    /// machine gates everyone.
    pub fn iteration_time(&self) -> f64 {
        self.machine_times().into_iter().fold(0.0, f64::max)
    }

    /// Throughput in samples/second given the global batch per iteration.
    pub fn throughput(&self, global_batch: f64) -> f64 {
        let t = self.iteration_time();
        if t <= 0.0 {
            0.0
        } else {
            global_batch / t
        }
    }

    /// The *modelled* timeline as trace records, one lane per machine
    /// ([`parallax_trace::SIM_LANE`]): compute, then server CPU, then each
    /// communication phase laid out sequentially from `start_ns`, scaled
    /// by the exposed-communication factor. Inject these into the tracer
    /// (`parallax_trace::inject`) alongside a measured run and the
    /// simulated and measured timelines diff directly in one Chrome
    /// trace.
    pub fn trace_records(&self, iter: u64, start_ns: u64) -> Vec<parallax_trace::SpanRecord> {
        use parallax_trace::{FlowPoint, SpanCat, SpanRecord, SIM_LANE};
        let ns = |secs: f64| (secs.max(0.0) * 1e9) as u64;
        let exposed = 1.0 - self.model.comm_overlap;
        let queue_stats = self.queue_stats();
        let mut records = Vec::new();
        for m in 0..self.compute.len() {
            let cs = self.model.compute_scale(m);
            let mut cursor = start_ns;
            let mut emit = |name: &'static str, dur_ns: u64, bytes: u64| {
                if dur_ns == 0 {
                    return;
                }
                records.push(SpanRecord {
                    cat: SpanCat::Sim,
                    name,
                    machine: m as u32,
                    lane: SIM_LANE,
                    start_ns: cursor,
                    dur_ns,
                    iter,
                    bytes,
                    flow: FlowPoint::None,
                });
                cursor += dur_ns;
            };
            emit("sim.compute", ns(self.compute[m] * cs), 0);
            emit(
                "sim.server_cpu",
                ns(self.server_cpu.get(m).copied().unwrap_or(0.0) * cs),
                0,
            );
            for phase in &self.phases {
                let name = match phase.transport {
                    Transport::Nccl => "sim.comm.nccl",
                    Transport::Mpi => "sim.comm.mpi",
                    Transport::Grpc => "sim.comm.grpc",
                    Transport::GrpcSparse => "sim.comm.grpc_sparse",
                };
                let bytes = phase.out_bytes.get(m).copied().unwrap_or(0.0) as u64;
                emit(
                    name,
                    ns(phase.machine_time(&self.model, m) * exposed),
                    bytes,
                );
            }
            if let Some(stats) = queue_stats.get(m) {
                emit("sim.ps.wait", ns(stats.total_wait), 0);
                emit("sim.ps.serve", ns(stats.total_busy), 0);
            }
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::ClusterModel;

    fn model() -> ClusterModel {
        let mut m = ClusterModel::paper_testbed();
        m.comm_overlap = 0.0;
        m
    }

    #[test]
    fn slowest_machine_gates() {
        let mut sim = IterationSim::new(model(), 3);
        sim.compute = vec![0.1, 0.5, 0.2];
        assert!((sim.iteration_time() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hot_machine_phase_dominates() {
        // PS-style asymmetry: machine 0 moves N-1 times the bytes.
        let m = model();
        let bw = m.net.effective_bandwidth(Transport::Grpc);
        let mut sim = IterationSim::new(m, 4);
        let hot = 3.0 * 1e9;
        sim.phases.push(Phase {
            transport: Transport::Grpc,
            out_bytes: vec![hot, 1e9, 1e9, 1e9],
            in_bytes: vec![hot, 1e9, 1e9, 1e9],
            intra_bytes: vec![0.0; 4],
            messages: vec![0.0; 4],
        });
        assert!((sim.iteration_time() - hot / bw).abs() < 1e-9);
    }

    #[test]
    fn full_duplex_takes_max_direction() {
        let m = model();
        let mut sim = IterationSim::new(m.clone(), 1);
        sim.phases.push(Phase {
            transport: Transport::Nccl,
            out_bytes: vec![2e9],
            in_bytes: vec![1e9],
            intra_bytes: vec![0.0],
            messages: vec![0.0],
        });
        let expected = 2e9 / m.net.effective_bandwidth(Transport::Nccl);
        assert!((sim.iteration_time() - expected).abs() < 1e-9);
    }

    #[test]
    fn overlap_hides_communication() {
        let mut with_overlap = model();
        with_overlap.comm_overlap = 0.5;
        let mut sim = IterationSim::new(with_overlap, 1);
        sim.compute = vec![1.0];
        sim.phases
            .push(Phase::uniform(Transport::Nccl, 1, 1e10, 1e10, 0.0));
        let t = sim.iteration_time();
        let mut sim0 = sim.clone();
        sim0.model.comm_overlap = 0.0;
        assert!(t < sim0.iteration_time());
        assert!(t > 1.0, "compute is never hidden");
    }

    #[test]
    fn latency_counts_messages() {
        let m = model();
        let mut sim = IterationSim::new(m.clone(), 2);
        sim.phases.push(Phase {
            transport: Transport::Grpc,
            out_bytes: vec![0.0; 2],
            in_bytes: vec![0.0; 2],
            intra_bytes: vec![0.0; 2],
            messages: vec![100.0, 0.0],
        });
        assert!((sim.iteration_time() - 100.0 * m.net.latency(Transport::Grpc)).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_batch_over_time() {
        let mut sim = IterationSim::new(model(), 1);
        sim.compute = vec![0.5];
        assert!((sim.throughput(128.0) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn trace_records_lay_out_sequentially_per_machine() {
        use parallax_trace::{SpanCat, SIM_LANE};
        let mut sim = IterationSim::new(model(), 2);
        sim.compute = vec![0.001, 0.002];
        sim.server_cpu = vec![0.0005, 0.0];
        sim.phases
            .push(Phase::uniform(Transport::Nccl, 2, 1e6, 1e6, 0.0));
        let records = sim.trace_records(3, 1000);
        assert!(!records.is_empty());
        assert!(records
            .iter()
            .all(|r| r.cat == SpanCat::Sim && r.lane == SIM_LANE && r.iter == 3));
        // Per machine, spans start at start_ns and are contiguous.
        for m in 0..2u32 {
            let spans: Vec<_> = records.iter().filter(|r| r.machine == m).collect();
            let mut cursor = 1000u64;
            for s in &spans {
                assert_eq!(s.start_ns, cursor);
                cursor += s.dur_ns;
            }
        }
        // machine 0 has a server_cpu span; machine 1 (zero time) does not.
        assert!(records
            .iter()
            .any(|r| r.machine == 0 && r.name == "sim.server_cpu"));
        assert!(!records
            .iter()
            .any(|r| r.machine == 1 && r.name == "sim.server_cpu"));
        // Comm spans carry the phase's out-bytes.
        assert!(records
            .iter()
            .any(|r| r.name == "sim.comm.nccl" && r.bytes == 1_000_000));
        // Total modelled span time per machine matches machine_times().
        for (m, time) in sim.machine_times().iter().enumerate() {
            let total: u64 = records
                .iter()
                .filter(|r| r.machine == m as u32)
                .map(|r| r.dur_ns)
                .sum();
            assert!((total as f64 / 1e9 - time).abs() < 1e-6);
        }
    }

    #[test]
    fn compute_straggler_scales_machine_time() {
        let mut sim = IterationSim::new(model().with_straggler(1, 3.0), 3);
        sim.compute = vec![0.1; 3];
        let times = sim.machine_times();
        assert!((times[1] - 0.3).abs() < 1e-12);
        assert!((times[0] - 0.1).abs() < 1e-12);
        assert!((sim.straggler_ratio() - 3.0).abs() < 1e-12);
        assert!((sim.compute_skew_ratio() - 3.0).abs() < 1e-12);
        // Homogeneous cluster: exactly 1.0 (identical floats).
        let mut hom = IterationSim::new(model(), 3);
        hom.compute = vec![0.1; 3];
        assert_eq!(hom.straggler_ratio(), 1.0);
    }

    #[test]
    fn network_straggler_scales_phase_time() {
        let m = model();
        let base = {
            let mut sim = IterationSim::new(m.clone(), 2);
            sim.phases
                .push(Phase::uniform(Transport::Grpc, 2, 1e9, 1e9, 10.0));
            sim.machine_times()
        };
        let mut slow_model = m;
        slow_model.scales = slow_model.scales.with_network_slowdown(0, 2.0);
        let mut sim = IterationSim::new(slow_model, 2);
        sim.phases
            .push(Phase::uniform(Transport::Grpc, 2, 1e9, 1e9, 10.0));
        let times = sim.machine_times();
        assert!((times[0] / base[0] - 2.0).abs() < 1e-9);
        assert!((times[1] - base[1]).abs() < 1e-12);
    }

    #[test]
    fn queue_model_gates_on_server_drain() {
        // 2 machines, no pulls, 4 pushes to server 0 arriving when the
        // workers finish compute at t=0.1; service 0.05 each.
        let mut sim = IterationSim::new(model(), 2);
        sim.compute = vec![0.1, 0.1];
        sim.ps_queue = Some(PsQueueModel {
            early_requests: vec![0.0, 0.0],
            late_requests: vec![4.0, 0.0],
            mean_service: vec![0.05, 0.0],
        });
        let times = sim.machine_times();
        // Server 0 drains at 0.1 + 4*0.05 = 0.3; machine 1 is pure worker.
        assert!((times[0] - 0.3).abs() < 1e-9, "{times:?}");
        assert!((times[1] - 0.1).abs() < 1e-12);
        // Idle gap before the first push: 0.1s over 4 requests.
        let wait = sim.predicted_mean_ps_wait().unwrap();
        assert!((wait - 0.1 / 4.0).abs() < 1e-9);
        // The p99 prediction is the largest single gap — here the one
        // 0.1s idle window before the push burst.
        let p99 = sim.predicted_p99_ps_wait().unwrap();
        assert!((p99 - 0.1).abs() < 1e-9);
        sim.ps_queue = None;
        assert!(sim.predicted_p99_ps_wait().is_none());
    }

    #[test]
    fn queue_wait_grows_with_straggler() {
        // One slow worker machine delays its pushes, stretching the
        // server's idle window.
        let make = |factor: f64| {
            let mut sim = IterationSim::new(model().with_straggler(1, factor), 2);
            sim.compute = vec![0.1, 0.1];
            sim.ps_queue = Some(PsQueueModel {
                early_requests: vec![2.0, 0.0],
                late_requests: vec![4.0, 0.0],
                mean_service: vec![0.001, 0.0],
            });
            sim.predicted_mean_ps_wait().unwrap()
        };
        let base = make(1.0);
        let slow = make(3.0);
        assert!(
            slow > base,
            "wait must grow with the straggler: {base} vs {slow}"
        );
    }

    #[test]
    fn queue_replay_counts_and_spans() {
        let mut sim = IterationSim::new(model(), 2);
        sim.compute = vec![0.01, 0.01];
        sim.ps_queue = Some(PsQueueModel {
            early_requests: vec![3.0, 1.0],
            late_requests: vec![2.0, 0.0],
            mean_service: vec![0.002, 0.001],
        });
        let stats = sim.queue_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].requests, 5);
        assert_eq!(stats[1].requests, 1);
        // The modelled timeline carries queue spans.
        let records = sim.trace_records(0, 0);
        assert!(records.iter().any(|r| r.name == "sim.ps.wait"));
        assert!(records.iter().any(|r| r.name == "sim.ps.serve"));
        // Without a queue model there are no such spans.
        sim.ps_queue = None;
        assert!(sim.predicted_mean_ps_wait().is_none());
        let records = sim.trace_records(0, 0);
        assert!(!records.iter().any(|r| r.name == "sim.ps.wait"));
    }

    #[test]
    fn phase_from_snapshot_carries_bytes() {
        let stats = parallax_comm::TrafficStats::new(2);
        stats.record(0, 1, 1000);
        stats.record(0, 0, 500);
        let phase = Phase::from_snapshot(Transport::Nccl, &stats.snapshot());
        assert_eq!(phase.out_bytes, vec![1000.0, 0.0]);
        assert_eq!(phase.in_bytes, vec![0.0, 1000.0]);
        assert_eq!(phase.intra_bytes, vec![500.0, 0.0]);
    }
}
