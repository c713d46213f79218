//! Hardware models: GPU, CPU and network timing parameters.
//!
//! Defaults are calibrated to the paper's testbed — 8 machines, each with
//! two 18-core Xeon E5-2695s and 6 TITAN Xp GPUs, connected by 100 Gbps
//! InfiniBand (Section 6.1) — so that simulated throughput lands in the
//! same regime as the published numbers. Absolute constants are
//! calibration, not measurement; what the reproduction preserves
//! mechanically is the *structure* of the costs (who moves how many bytes
//! over which transport, and how sparse-op cost depends on partitioning).

/// Transport used by a communication phase; each has its own efficiency
/// and per-message overhead, reflecting NCCL's advantage over OpenMPI
/// (Section 6.1: NCCL for AllReduce, OpenMPI for AllGatherv) and the
/// gRPC-based PS runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// NCCL ring collectives (GPU-direct).
    Nccl,
    /// OpenMPI collectives (AllGatherv; no NCCL support).
    Mpi,
    /// The Parameter Server RPC path for dense tensors (near-raw-bytes
    /// serialization).
    Grpc,
    /// The Parameter Server RPC path for sparse `IndexedSlices`
    /// (per-row index/value handling makes it far slower).
    GrpcSparse,
}

/// GPU compute model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Sustained f32 throughput during training (FLOP/s). TITAN Xp peaks
    /// at 12.1 TFLOP/s; sustained training throughput is far lower.
    pub flops: f64,
}

impl GpuModel {
    /// TITAN Xp, calibrated.
    pub fn titan_xp() -> Self {
        GpuModel { flops: 1.9e12 }
    }

    /// Seconds to execute `flops` floating-point operations.
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / self.flops
    }
}

/// CPU model for server-side sparse-gradient work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Elements/second a single aggregation lane sustains when iterating
    /// nonzero indices one by one (Section 3.2's serial cost).
    pub sparse_agg_rate: f64,
    /// Elements/second for vectorized dense gradient summation.
    pub dense_agg_rate: f64,
    /// Fixed per-partition, per-iteration management cost in seconds
    /// (stitching partial results, separate-array bookkeeping).
    pub per_partition_cost: f64,
    /// Maximum useful parallel lanes for partitioned sparse ops (cores
    /// available to a server process).
    pub max_parallelism: usize,
    /// Largest variable shard a server can host without "memory
    /// exceptions" (Table 5's Min constraint): the TF-era runtime caps
    /// single tensors well below RAM via its serialization buffers.
    pub max_shard_bytes: f64,
}

impl CpuModel {
    /// Dual Xeon E5-2695 v4 (2 x 18 cores), calibrated.
    pub fn xeon_e5_2695() -> Self {
        CpuModel {
            sparse_agg_rate: 6.0e7,
            dense_agg_rate: 2.0e9,
            per_partition_cost: 1.2e-3,
            max_parallelism: 36,
            max_shard_bytes: 0.45e9,
        }
    }
}

/// Network model.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Inter-machine link bandwidth, bytes/second, full duplex.
    pub inter_bandwidth: f64,
    /// Intra-machine (PCIe) bandwidth, bytes/second.
    pub intra_bandwidth: f64,
    /// Per-message latency per transport, seconds.
    pub latency_nccl: f64,
    /// Per-message latency for MPI.
    pub latency_mpi: f64,
    /// Per-message latency for the PS RPC path.
    pub latency_grpc: f64,
    /// Bandwidth efficiency per transport (fraction of line rate
    /// achieved for large transfers).
    pub eff_nccl: f64,
    /// MPI efficiency.
    pub eff_mpi: f64,
    /// PS RPC efficiency for dense tensors.
    pub eff_grpc: f64,
    /// PS RPC efficiency for sparse slices.
    pub eff_grpc_sparse: f64,
}

impl NetworkModel {
    /// 100 Gbps InfiniBand (ConnectX-4), calibrated.
    pub fn infiniband_100g() -> Self {
        NetworkModel {
            inter_bandwidth: 12.5e9,
            // NCCL pipelines PCIe and network stages; the intra hops are
            // mostly hidden, modelled as a high effective rate.
            intra_bandwidth: 40.0e9,
            latency_nccl: 3.0e-6,
            latency_mpi: 5.0e-5,
            latency_grpc: 5.0e-5,
            eff_nccl: 0.85,
            // OpenMPI AllGatherv (no NCCL support, host-staged copies,
            // no GPUDirect) sustains a small fraction of line rate --
            // the root cause of Horovod's poor sparse-model numbers.
            eff_mpi: 0.04,
            // Dense tensors over the TF gRPC path serialize as raw byte
            // blobs; sparse IndexedSlices pay per-row protobuf handling.
            eff_grpc: 0.50,
            eff_grpc_sparse: 0.05,
        }
    }

    /// Effective inter-machine bandwidth for a transport, bytes/second.
    pub fn effective_bandwidth(&self, transport: Transport) -> f64 {
        let eff = match transport {
            Transport::Nccl => self.eff_nccl,
            Transport::Mpi => self.eff_mpi,
            Transport::Grpc => self.eff_grpc,
            Transport::GrpcSparse => self.eff_grpc_sparse,
        };
        self.inter_bandwidth * eff
    }

    /// Per-message latency for a transport, seconds.
    pub fn latency(&self, transport: Transport) -> f64 {
        match transport {
            Transport::Nccl => self.latency_nccl,
            Transport::Mpi => self.latency_mpi,
            Transport::Grpc | Transport::GrpcSparse => self.latency_grpc,
        }
    }

    /// Effective intra-machine bandwidth for a transport: NCCL moves
    /// device-to-device over P2P; MPI stages through host buffers; the
    /// PS paths copy through the server process.
    pub fn effective_intra_bandwidth(&self, transport: Transport) -> f64 {
        let eff = match transport {
            Transport::Nccl => 1.0,
            Transport::Mpi => 0.10,
            Transport::Grpc => 0.50,
            Transport::GrpcSparse => 0.25,
        };
        self.intra_bandwidth * eff
    }
}

/// Per-machine heterogeneity knobs: slowdown factors relative to the
/// nominal hardware models. An empty vector means every machine runs at
/// nominal speed; entries beyond the vector's length default to 1.0, so
/// `MachineScales::default()` is a homogeneous cluster.
///
/// Factors are *slowdowns*: 2.0 means the machine computes at half the
/// nominal rate (compute time doubles) or its links carry half the
/// nominal bandwidth (transfer time and latency double). Factors below
/// 1.0 model a faster-than-nominal machine; non-positive or non-finite
/// entries are treated as 1.0.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MachineScales {
    /// Compute slowdown per machine (GPU and server CPU work).
    pub compute: Vec<f64>,
    /// Network slowdown per machine (divides link bandwidth, multiplies
    /// per-message latency on that machine's links).
    pub network: Vec<f64>,
}

impl MachineScales {
    /// Homogeneous cluster (all factors 1.0).
    pub fn homogeneous() -> Self {
        MachineScales::default()
    }

    fn sanitize(raw: Option<f64>) -> f64 {
        match raw {
            Some(f) if f.is_finite() && f > 0.0 => f,
            _ => 1.0,
        }
    }

    /// Compute slowdown factor of machine `m` (1.0 when unset).
    pub fn compute_scale(&self, m: usize) -> f64 {
        Self::sanitize(self.compute.get(m).copied())
    }

    /// Network slowdown factor of machine `m` (1.0 when unset).
    pub fn network_scale(&self, m: usize) -> f64 {
        Self::sanitize(self.network.get(m).copied())
    }

    /// Sets machine `m`'s compute slowdown, growing the vector with 1.0
    /// as needed. Builder-style.
    pub fn with_compute_slowdown(mut self, m: usize, factor: f64) -> Self {
        if self.compute.len() <= m {
            self.compute.resize(m + 1, 1.0);
        }
        self.compute[m] = factor;
        self
    }

    /// Sets machine `m`'s network slowdown, growing the vector with 1.0
    /// as needed. Builder-style.
    pub fn with_network_slowdown(mut self, m: usize, factor: f64) -> Self {
        if self.network.len() <= m {
            self.network.resize(m + 1, 1.0);
        }
        self.network[m] = factor;
        self
    }
}

/// The full cluster hardware model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterModel {
    /// GPU model.
    pub gpu: GpuModel,
    /// CPU model.
    pub cpu: CpuModel,
    /// Network model.
    pub net: NetworkModel,
    /// Fraction of communication hidden behind backprop compute
    /// (layer-wise overlap: pushes/pulls for different layers are
    /// "scattered along the timeline", Section 3.1).
    pub comm_overlap: f64,
    /// Per-machine slowdown factors (straggler modelling).
    pub scales: MachineScales,
}

impl ClusterModel {
    /// The paper's testbed.
    pub fn paper_testbed() -> Self {
        ClusterModel {
            gpu: GpuModel::titan_xp(),
            cpu: CpuModel::xeon_e5_2695(),
            net: NetworkModel::infiniband_100g(),
            comm_overlap: 0.30,
            scales: MachineScales::homogeneous(),
        }
    }

    /// Compute slowdown factor of machine `m`.
    pub fn compute_scale(&self, m: usize) -> f64 {
        self.scales.compute_scale(m)
    }

    /// Network slowdown factor of machine `m`.
    pub fn network_scale(&self, m: usize) -> f64 {
        self.scales.network_scale(m)
    }

    /// Returns the model with machine `m`'s compute slowed by `factor`.
    /// Builder-style straggler injection for the simulator.
    pub fn with_straggler(mut self, m: usize, factor: f64) -> Self {
        self.scales = self.scales.with_compute_slowdown(m, factor);
        self
    }
}

impl Default for ClusterModel {
    fn default() -> Self {
        ClusterModel::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_compute_time_scales_linearly() {
        let gpu = GpuModel::titan_xp();
        let t1 = gpu.compute_time(1e12);
        let t2 = gpu.compute_time(2e12);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transport_ordering_nccl_fastest_sparse_grpc_slowest_class() {
        let net = NetworkModel::infiniband_100g();
        assert!(
            net.effective_bandwidth(Transport::Nccl) > net.effective_bandwidth(Transport::Grpc)
        );
        assert!(
            net.effective_bandwidth(Transport::Grpc)
                > net.effective_bandwidth(Transport::GrpcSparse)
        );
        assert!(
            net.effective_bandwidth(Transport::GrpcSparse)
                > net.effective_bandwidth(Transport::Mpi)
        );
        assert!(net.latency(Transport::Grpc) > net.latency(Transport::Nccl));
    }

    #[test]
    fn nccl_bandwidth_is_85_percent_of_line_rate() {
        let net = NetworkModel::infiniband_100g();
        let line_rate = 12_500_000_000.0;
        let eff = net.effective_bandwidth(Transport::Nccl);
        assert!((eff / line_rate - 0.85).abs() < 1e-9, "{eff}");
    }

    #[test]
    fn default_is_paper_testbed() {
        assert_eq!(ClusterModel::default(), ClusterModel::paper_testbed());
    }

    #[test]
    fn scales_default_to_nominal() {
        let s = MachineScales::homogeneous();
        assert_eq!(s.compute_scale(0), 1.0);
        assert_eq!(s.network_scale(7), 1.0);
        let model = ClusterModel::paper_testbed();
        assert_eq!(model.compute_scale(3), 1.0);
    }

    #[test]
    fn with_straggler_slows_one_machine() {
        let model = ClusterModel::paper_testbed().with_straggler(2, 3.0);
        assert_eq!(model.compute_scale(2), 3.0);
        assert_eq!(model.compute_scale(0), 1.0);
        assert_eq!(model.compute_scale(5), 1.0);
    }

    #[test]
    fn invalid_scales_are_nominal() {
        let s = MachineScales {
            compute: vec![0.0, -2.0, f64::NAN, f64::INFINITY],
            network: vec![],
        };
        for m in 0..4 {
            assert_eq!(s.compute_scale(m), 1.0);
        }
    }

    #[test]
    fn network_slowdown_builder() {
        let s = MachineScales::homogeneous()
            .with_network_slowdown(1, 2.0)
            .with_compute_slowdown(0, 1.5);
        assert_eq!(s.network_scale(1), 2.0);
        assert_eq!(s.network_scale(0), 1.0);
        assert_eq!(s.compute_scale(0), 1.5);
    }
}
