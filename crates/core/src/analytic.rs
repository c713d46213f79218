//! Paper-scale analytic throughput engine.
//!
//! The executed mode trains real (scaled-down) models; the evaluation
//! tables, however, are about 800K-vocabulary embeddings on 48 GPUs.
//! This module drives *paper-scale workload descriptions* through the
//! very same transfer formulas ([`crate::transfer`]), server cost model
//! (`parallax-cluster`) and iteration-time simulation to produce
//! throughput for every table and figure. Absolute words/sec depend on
//! the calibrated hardware constants; the comparisons (who wins, by
//! what factor, where the crossover falls) are structural.

use parallax_cluster::{ClusterModel, IterationSim, Phase, SparseOpCost, Transport};

use crate::config::ArchChoice;
use crate::transfer;

/// A variable at paper scale.
#[derive(Debug, Clone, PartialEq)]
pub struct VarSpec {
    /// Name (diagnostics).
    pub name: String,
    /// Total element count.
    pub elements: f64,
    /// Row width (embedding dimension; `elements` for 1-D dense).
    pub cols: f64,
    /// Per-worker access ratio (distinct rows / total rows).
    pub alpha: f64,
    /// Raw gradient rows a worker pushes per iteration (batch entries,
    /// duplicates included); 0 for dense variables.
    pub raw_rows: f64,
    /// Whether the gradient is sparse.
    pub sparse: bool,
}

impl VarSpec {
    /// A dense variable.
    pub fn dense(name: impl Into<String>, elements: f64) -> Self {
        VarSpec {
            name: name.into(),
            elements,
            cols: elements,
            alpha: 1.0,
            raw_rows: 0.0,
            sparse: false,
        }
    }

    /// A sparse (embedding-like) variable: `alpha` is the distinct-row
    /// access ratio, `raw_rows` the per-worker gradient entries before
    /// coalescing (>= alpha * rows).
    pub fn sparse(
        name: impl Into<String>,
        rows: f64,
        cols: f64,
        alpha: f64,
        raw_rows: f64,
    ) -> Self {
        VarSpec {
            name: name.into(),
            elements: rows * cols,
            cols,
            alpha,
            raw_rows: raw_rows.max(alpha * rows),
            sparse: true,
        }
    }

    /// The raw push fraction `raw_rows / rows`.
    pub fn raw_frac(&self) -> f64 {
        if self.rows() > 0.0 {
            (self.raw_rows / self.rows()).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Bytes when dense.
    pub fn bytes(&self) -> f64 {
        self.elements * 4.0
    }

    /// Row count.
    pub fn rows(&self) -> f64 {
        if self.cols > 0.0 {
            self.elements / self.cols
        } else {
            0.0
        }
    }
}

/// A paper-scale workload: the model's variables plus its compute and
/// batching characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Model name.
    pub name: String,
    /// Variables.
    pub vars: Vec<VarSpec>,
    /// Forward FLOPs per sample unit (image or word).
    pub forward_flops_per_unit: f64,
    /// Sample units processed per GPU per iteration (batch, or
    /// batch x sequence length for word models).
    pub units_per_gpu: f64,
    /// Unit name for reporting ("images" / "words").
    pub unit: &'static str,
}

impl WorkloadSpec {
    /// Total dense elements.
    pub fn dense_elements(&self) -> f64 {
        self.vars
            .iter()
            .filter(|v| !v.sparse)
            .map(|v| v.elements)
            .sum()
    }

    /// Total sparse elements.
    pub fn sparse_elements(&self) -> f64 {
        self.vars
            .iter()
            .filter(|v| v.sparse)
            .map(|v| v.elements)
            .sum()
    }

    /// Element-weighted `alpha_model` (Table 1).
    pub fn alpha_model(&self) -> f64 {
        let total: f64 = self.vars.iter().map(|v| v.elements).sum();
        if total == 0.0 {
            return 1.0;
        }
        self.vars.iter().map(|v| v.alpha * v.elements).sum::<f64>() / total
    }
}

/// Architecture setup for an analytic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchSetup {
    /// Architecture choice.
    pub arch: ArchChoice,
    /// Per-machine local aggregation for PS variables.
    pub local_aggregation: bool,
    /// Balanced (vs round-robin) dense placement.
    pub balanced_placement: bool,
    /// Sparse variables with `alpha` at or above this go to AllReduce
    /// under `Hybrid`.
    pub alpha_dense_threshold: f64,
}

impl ArchSetup {
    /// Parallax: hybrid + local aggregation + balanced placement.
    pub fn parallax() -> Self {
        ArchSetup {
            arch: ArchChoice::Hybrid,
            local_aggregation: true,
            balanced_placement: true,
            alpha_dense_threshold: 0.95,
        }
    }

    /// TF-PS: naive Parameter Server.
    pub fn tf_ps() -> Self {
        ArchSetup {
            arch: ArchChoice::PsOnly,
            local_aggregation: false,
            balanced_placement: false,
            alpha_dense_threshold: 2.0,
        }
    }

    /// Parallax's optimized PS (Table 4's OptPS).
    pub fn opt_ps() -> Self {
        ArchSetup {
            arch: ArchChoice::PsOnly,
            local_aggregation: true,
            balanced_placement: true,
            alpha_dense_threshold: 2.0,
        }
    }

    /// Horovod: pure collectives.
    pub fn horovod() -> Self {
        ArchSetup {
            arch: ArchChoice::ArOnly,
            local_aggregation: false,
            balanced_placement: true,
            alpha_dense_threshold: 2.0,
        }
    }
}

/// The outcome of an analytic throughput evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Simulated iteration time, seconds.
    pub iteration_time: f64,
    /// Sample units per second across the cluster.
    pub throughput: f64,
    /// GPU compute seconds per iteration.
    pub compute_time: f64,
    /// Worst-machine server CPU seconds per iteration.
    pub server_cpu_time: f64,
    /// Exposed (non-overlapped) communication seconds of the worst
    /// machine.
    pub comm_time: f64,
}

/// Where each variable is synchronized under a setup.
fn routed_ps(spec: &VarSpec, setup: &ArchSetup) -> bool {
    match setup.arch {
        ArchChoice::ArOnly => false,
        ArchChoice::PsOnly => true,
        ArchChoice::Hybrid => spec.sparse && spec.alpha < setup.alpha_dense_threshold,
    }
}

/// Computes simulated throughput for a workload on `machines x gpus`
/// with `partitions` sparse partitions.
pub fn throughput(
    workload: &WorkloadSpec,
    cluster: &ClusterModel,
    machines: usize,
    gpus: usize,
    setup: &ArchSetup,
    partitions: usize,
) -> ThroughputReport {
    let n = machines as f64;
    let g = gpus as f64;
    let workers = n * g;
    let p = partitions.max(1) as f64;

    // GPU compute: all GPUs work in parallel on their own batch.
    let compute = cluster
        .gpu
        .compute_time(3.0 * workload.forward_flops_per_unit * workload.units_per_gpu);

    // A single GPU trains locally: no servers, no partitions, no
    // synchronization of any kind (the paper's 1-GPU baselines that
    // Figure 9 normalizes against).
    if machines * gpus <= 1 {
        return ThroughputReport {
            iteration_time: compute,
            throughput: workload.units_per_gpu / compute,
            compute_time: compute,
            server_cpu_time: 0.0,
            comm_time: 0.0,
        };
    }

    // Accumulate per-machine traffic by transport.
    let mut nccl = transfer::VarTraffic::default();
    let mut mpi = transfer::VarTraffic::default();
    let mut grpc_sym = transfer::VarTraffic::default(); // Dense PS symmetric share.
    let mut grpc_sparse = transfer::VarTraffic::default(); // Sparse PS load.
                                                           // Dense PS placement: host loads per machine (asymmetric).
    let mut dense_host_loads: Vec<(f64, transfer::VarTraffic, transfer::VarTraffic)> = Vec::new();
    let mut server_cpu = 0.0f64;

    for var in &workload.vars {
        let w = var.bytes();
        if routed_ps(var, setup) {
            if var.sparse {
                let t = transfer::ps_sparse_traffic(
                    w,
                    var.alpha,
                    var.raw_frac(),
                    n,
                    g,
                    p,
                    setup.local_aggregation,
                );
                grpc_sym.add(t.pull);
                grpc_sparse.add(t.push);
                // Server CPU: aggregation + update of pushed rows, spread
                // across machines, parallel across hosted partitions.
                // Naive pushes carry raw rows; local aggregation pushes
                // the machine-coalesced set.
                let pushed_rows = if setup.local_aggregation {
                    transfer::alpha_machine(var.alpha, g) * var.rows()
                } else {
                    workers * var.raw_rows / n
                };
                let cost = SparseOpCost {
                    pushed_rows,
                    cols: var.cols,
                };
                let hosted_parts = (p / n).max(1.0) as usize;
                server_cpu += cost.time(&cluster.cpu, hosted_parts);
            } else {
                dense_host_loads.push((
                    w,
                    // (host load, other load) computed below per placement.
                    transfer::VarTraffic::default(),
                    transfer::VarTraffic::default(),
                ));
                // Local aggregation is sparse-only (dense PS pushes are
                // always per-worker so the server replays the ring fold
                // order), so dense traffic never takes the machine
                // pre-sum discount.
                let (host, other) = transfer::ps_dense_traffic(w, n, g, false);
                let slot = dense_host_loads.last_mut().expect("just pushed");
                slot.1 = host;
                slot.2 = other;
                // Dense aggregation on the server: pushers x elements.
                server_cpu += workers * var.elements / cluster.cpu.dense_agg_rate / n;
            }
        } else if var.sparse && setup.arch == ArchChoice::ArOnly {
            // Horovod: raw sparse gradients travel as AllGatherv over MPI.
            mpi.add(transfer::ar_sparse_traffic(w, var.raw_frac(), n, g));
        } else {
            // Dense variables — and sparse variables the hybrid rule
            // promoted to dense (alpha ~ 1) — ride the NCCL ring.
            nccl.add(transfer::ar_dense_traffic(w, n, g));
        }
    }

    // Place dense PS variables on machines and compute the per-machine
    // gRPC loads (the hot-server asymmetry for naive placement).
    let mut grpc_out = vec![grpc_sym.out; machines];
    let mut grpc_in = vec![grpc_sym.inb; machines];
    let mut grpc_msgs = vec![grpc_sym.msgs; machines];
    let mut grpc_dense_intra = vec![0.0f64; machines];
    if !dense_host_loads.is_empty() {
        let owners = assign_dense(&dense_host_loads, machines, setup.balanced_placement);
        for (i, (_, host, other)) in dense_host_loads.iter().enumerate() {
            for (m, (out, inb)) in grpc_out.iter_mut().zip(grpc_in.iter_mut()).enumerate() {
                let load = if owners[i] == m { host } else { other };
                *out += load.out;
                *inb += load.inb;
                grpc_dense_intra[m] += load.intra;
                grpc_msgs[m] += load.msgs;
            }
        }
    }

    let mut sim = IterationSim::new(cluster.clone(), machines);
    sim.compute = vec![compute; machines];
    sim.server_cpu = vec![server_cpu; machines];
    if nccl.out > 0.0 || nccl.inb > 0.0 || nccl.intra > 0.0 {
        let mut phase = Phase::uniform(Transport::Nccl, machines, nccl.out, nccl.inb, nccl.msgs);
        phase.intra_bytes = vec![nccl.intra; machines];
        sim.phases.push(phase);
    }
    if mpi.out > 0.0 || mpi.inb > 0.0 || mpi.intra > 0.0 {
        let mut phase = Phase::uniform(Transport::Mpi, machines, mpi.out, mpi.inb, mpi.msgs);
        phase.intra_bytes = vec![mpi.intra; machines];
        sim.phases.push(phase);
    }
    let grpc_intra: Vec<f64> = grpc_dense_intra
        .iter()
        .map(|d| d + grpc_sym.intra)
        .collect();
    if grpc_out.iter().any(|&b| b > 0.0)
        || grpc_in.iter().any(|&b| b > 0.0)
        || grpc_intra.iter().any(|&b| b > 0.0)
    {
        sim.phases.push(Phase {
            transport: Transport::Grpc,
            out_bytes: grpc_out,
            in_bytes: grpc_in,
            intra_bytes: grpc_intra,
            messages: grpc_msgs,
        });
    }
    if grpc_sparse.out > 0.0 || grpc_sparse.inb > 0.0 || grpc_sparse.intra > 0.0 {
        let mut phase = Phase::uniform(
            Transport::GrpcSparse,
            machines,
            grpc_sparse.out,
            grpc_sparse.inb,
            grpc_sparse.msgs,
        );
        phase.intra_bytes = vec![grpc_sparse.intra; machines];
        sim.phases.push(phase);
    }

    let iteration_time = sim.iteration_time();
    let comm_time = iteration_time - compute - server_cpu;
    ThroughputReport {
        iteration_time,
        throughput: workers * workload.units_per_gpu / iteration_time,
        compute_time: compute,
        server_cpu_time: server_cpu,
        comm_time,
    }
}

/// Assigns dense PS variables (by index into `loads`) to machines.
fn assign_dense(
    loads: &[(f64, transfer::VarTraffic, transfer::VarTraffic)],
    machines: usize,
    balanced: bool,
) -> Vec<usize> {
    let mut owners = vec![0usize; loads.len()];
    if balanced {
        let mut budget = vec![0.0f64; machines];
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.sort_by(|&a, &b| {
            loads[b]
                .0
                .partial_cmp(&loads[a].0)
                .expect("finite sizes")
                .then(a.cmp(&b))
        });
        for i in order {
            let target = budget
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
                .map(|(m, _)| m)
                .expect("machines > 0");
            owners[i] = target;
            budget[target] += loads[i].0;
        }
    } else {
        for (i, owner) in owners.iter_mut().enumerate() {
            *owner = i % machines;
        }
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stylized LM: tiny dense core, enormous sparse embeddings.
    fn lm_like() -> WorkloadSpec {
        WorkloadSpec {
            name: "lm-like".into(),
            vars: vec![
                VarSpec::dense("lstm", 9.4e6),
                VarSpec::sparse("emb_in", 793_470.0, 512.0, 0.003, 2560.0),
                VarSpec::sparse("emb_out", 793_470.0, 512.0, 0.013, 11_800.0),
            ],
            forward_flops_per_unit: 5.5e7,
            units_per_gpu: 2560.0,
            unit: "words",
        }
    }

    /// A stylized ResNet: all dense.
    fn resnet_like() -> WorkloadSpec {
        WorkloadSpec {
            name: "resnet-like".into(),
            vars: vec![VarSpec::dense("convs", 23.8e6)],
            forward_flops_per_unit: 3.9e9,
            units_per_gpu: 64.0,
            unit: "images",
        }
    }

    #[test]
    fn sparse_model_ps_beats_ar() {
        let cluster = ClusterModel::paper_testbed();
        let lm = lm_like();
        let ps = throughput(&lm, &cluster, 8, 6, &ArchSetup::tf_ps(), 128);
        let ar = throughput(&lm, &cluster, 8, 6, &ArchSetup::horovod(), 128);
        assert!(
            ps.throughput > 1.5 * ar.throughput,
            "PS {} vs AR {}",
            ps.throughput,
            ar.throughput
        );
    }

    #[test]
    fn dense_model_ar_beats_ps() {
        let cluster = ClusterModel::paper_testbed();
        let rn = resnet_like();
        let ps = throughput(&rn, &cluster, 8, 6, &ArchSetup::tf_ps(), 1);
        let ar = throughput(&rn, &cluster, 8, 6, &ArchSetup::horovod(), 1);
        assert!(
            ar.throughput > ps.throughput,
            "AR {} vs PS {}",
            ar.throughput,
            ps.throughput
        );
    }

    #[test]
    fn hybrid_beats_both_pure_architectures_on_sparse_models() {
        let cluster = ClusterModel::paper_testbed();
        let lm = lm_like();
        let hybrid = throughput(&lm, &cluster, 8, 6, &ArchSetup::parallax(), 128);
        let ps = throughput(&lm, &cluster, 8, 6, &ArchSetup::tf_ps(), 128);
        let ar = throughput(&lm, &cluster, 8, 6, &ArchSetup::horovod(), 128);
        assert!(hybrid.throughput > ps.throughput);
        assert!(hybrid.throughput > ar.throughput);
    }

    #[test]
    fn hybrid_matches_ar_on_dense_models() {
        let cluster = ClusterModel::paper_testbed();
        let rn = resnet_like();
        let hybrid = throughput(&rn, &cluster, 8, 6, &ArchSetup::parallax(), 1);
        let ar = throughput(&rn, &cluster, 8, 6, &ArchSetup::horovod(), 1);
        let ratio = hybrid.throughput / ar.throughput;
        assert!((0.99..=1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn partition_count_has_convex_effect() {
        let cluster = ClusterModel::paper_testbed();
        let lm = lm_like();
        let t = |p: usize| throughput(&lm, &cluster, 8, 6, &ArchSetup::tf_ps(), p).throughput;
        let t8 = t(8);
        let t128 = t(128);
        let t4096 = t(4096);
        assert!(t128 > t8, "partitioning helps: {t128} vs {t8}");
        assert!(t128 > t4096, "too many partitions hurt: {t128} vs {t4096}");
    }

    #[test]
    fn throughput_grows_with_machines() {
        let cluster = ClusterModel::paper_testbed();
        let lm = lm_like();
        let t1 = throughput(&lm, &cluster, 1, 6, &ArchSetup::parallax(), 64);
        let t8 = throughput(&lm, &cluster, 8, 6, &ArchSetup::parallax(), 64);
        assert!(t8.throughput > 2.0 * t1.throughput);
    }

    #[test]
    fn alpha_model_weighted() {
        let lm = lm_like();
        let am = lm.alpha_model();
        assert!(am > 0.008 && am < 0.05, "alpha_model {am}");
        assert!(lm.sparse_elements() > 100.0 * lm.dense_elements() / 2.0);
    }

    #[test]
    fn local_aggregation_improves_ps() {
        let cluster = ClusterModel::paper_testbed();
        let lm = lm_like();
        let naive = throughput(&lm, &cluster, 8, 6, &ArchSetup::tf_ps(), 128);
        let opt = throughput(&lm, &cluster, 8, 6, &ArchSetup::opt_ps(), 128);
        assert!(opt.throughput > naive.throughput);
    }
}
