//! Network-transfer analysis (Table 3) and its multi-GPU generalization.
//!
//! The closed forms in [`table3_one_var`] / [`table3_m_vars`] are the
//! paper's exact expressions (one worker per machine, Figure 2). The
//! `*_traffic` functions generalize them to `G` workers per machine —
//! what the real system (and our executed mode) actually moves — and
//! are the inputs to the analytic throughput engine.
//!
//! Conventions: `w` is a variable's dense byte size, `alpha` the
//! per-worker access ratio, `n` machines, `g` GPUs per machine,
//! `W = n * g` total workers. Loads are *per machine per iteration*.

/// Variable kind for the closed forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// All elements accessed each iteration.
    Dense,
    /// An `alpha` fraction of rows accessed each iteration.
    Sparse,
}

/// Synchronization architecture for the closed forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// Parameter Server.
    Ps,
    /// AllReduce / AllGatherv collectives.
    Ar,
}

/// # Examples
///
/// ```
/// use parallax_core::transfer::{table3_one_var, Arch, VarKind};
/// // A sparse variable costs the same under PS and AR for one machine...
/// let ps = table3_one_var(VarKind::Sparse, Arch::Ps, 4e6, 0.01, 8.0);
/// let ar = table3_one_var(VarKind::Sparse, Arch::Ar, 4e6, 0.01, 8.0);
/// assert_eq!(ps, ar);
/// // ...while a dense variable's PS host moves ~N/2 times AR's load.
/// let ps = table3_one_var(VarKind::Dense, Arch::Ps, 4e6, 1.0, 8.0);
/// let ar = table3_one_var(VarKind::Dense, Arch::Ar, 4e6, 1.0, 8.0);
/// assert!(ps / ar > 3.9);
/// ```
/// Table 3, "One Variable" column: bytes per machine per iteration for a
/// single variable (for PS, the load of the machine hosting it).
pub fn table3_one_var(kind: VarKind, arch: Arch, w: f64, alpha: f64, n: f64) -> f64 {
    match (kind, arch) {
        (VarKind::Dense, Arch::Ps) => 2.0 * w * (n - 1.0),
        (VarKind::Dense, Arch::Ar) => 4.0 * w * (n - 1.0) / n,
        (VarKind::Sparse, Arch::Ps) => 2.0 * alpha * w * (n - 1.0),
        (VarKind::Sparse, Arch::Ar) => 2.0 * alpha * w * (n - 1.0),
    }
}

/// Table 3, "m Variables" column: bytes per machine per iteration for
/// `m` equally sized variables distributed evenly across servers.
pub fn table3_m_vars(kind: VarKind, arch: Arch, w: f64, alpha: f64, n: f64, m: f64) -> f64 {
    match (kind, arch) {
        (VarKind::Dense, Arch::Ps) => 4.0 * w * m * (n - 1.0) / n,
        (VarKind::Dense, Arch::Ar) => 4.0 * w * m * (n - 1.0) / n,
        (VarKind::Sparse, Arch::Ps) => 4.0 * alpha * w * m * (n - 1.0) / n,
        (VarKind::Sparse, Arch::Ar) => 2.0 * alpha * w * m * (n - 1.0),
    }
}

/// Per-machine traffic contribution of one variable: bytes out, bytes
/// in, and inter-machine messages on the machine's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VarTraffic {
    /// Bytes the machine sends onto the network.
    pub out: f64,
    /// Bytes the machine receives from the network.
    pub inb: f64,
    /// Bytes moved within the machine (PCIe hops between local GPUs and
    /// between local workers and the local server).
    pub intra: f64,
    /// Inter-machine messages charged to the machine.
    pub msgs: f64,
}

impl VarTraffic {
    /// Adds another contribution.
    pub fn add(&mut self, other: VarTraffic) {
        self.out += other.out;
        self.inb += other.inb;
        self.intra += other.intra;
        self.msgs += other.msgs;
    }

    /// Scales the contribution (e.g. by a variable count).
    pub fn scaled(self, k: f64) -> VarTraffic {
        VarTraffic {
            out: self.out * k,
            inb: self.inb * k,
            intra: self.intra * k,
            msgs: self.msgs * k,
        }
    }
}

/// The machine-level access ratio: the union of `g` workers' row sets,
/// under an independent-draws approximation — what a local chief
/// actually pushes after coalescing (Section 4.3's local aggregation).
pub fn alpha_machine(alpha: f64, g: f64) -> f64 {
    (1.0 - (1.0 - alpha).powf(g)).clamp(0.0, 1.0)
}

/// Ring AllReduce of one dense variable over `n*g` workers laid out
/// machine-major: each machine's boundary is crossed once per direction
/// per step, moving `w/W` bytes, for `2(W-1)` steps.
pub fn ar_dense_traffic(w: f64, n: f64, g: f64) -> VarTraffic {
    let workers = n * g;
    if workers <= 1.0 {
        return VarTraffic::default();
    }
    // Per step each worker forwards w/W; within a machine g-1 of the g
    // ring hops are intra-node, one crosses the boundary.
    let per_step = w / workers;
    let steps = 2.0 * (workers - 1.0);
    let bytes = if n > 1.0 { steps * per_step } else { 0.0 };
    let intra = steps * per_step * (g - 1.0);
    VarTraffic {
        out: bytes,
        inb: bytes,
        intra,
        msgs: if n > 1.0 { steps } else { 0.0 },
    }
}

/// Ring AllGatherv of one sparse variable's gradient. Gradients are
/// concatenated, not deduplicated, so each worker's contribution is its
/// *raw* row count (`raw_frac * w` bytes, `raw_frac = raw_rows / rows`),
/// and it circulates past every other worker: `(W-1)` parts cross each
/// machine boundary.
pub fn ar_sparse_traffic(w: f64, raw_frac: f64, n: f64, g: f64) -> VarTraffic {
    let workers = n * g;
    if workers <= 1.0 {
        return VarTraffic::default();
    }
    let steps = workers - 1.0;
    let part = raw_frac * w;
    let bytes = if n > 1.0 { steps * part } else { 0.0 };
    let intra = steps * part * (g - 1.0);
    VarTraffic {
        out: bytes,
        inb: bytes,
        intra,
        msgs: if n > 1.0 { steps } else { 0.0 },
    }
}

/// PS traffic for one dense variable: `(host, other)` loads for the
/// machine hosting it and for each machine that does not.
pub fn ps_dense_traffic(w: f64, n: f64, g: f64, local_agg: bool) -> (VarTraffic, VarTraffic) {
    // Local workers exchange with their colocated server over PCIe.
    let local_intra = g * w * 2.0;
    if n <= 1.0 {
        let host = VarTraffic {
            intra: local_intra,
            ..VarTraffic::default()
        };
        return (host, VarTraffic::default());
    }
    let remote_workers = (n - 1.0) * g;
    // Pull responses to every remote worker.
    let host_out = w * remote_workers;
    // Pushes: every remote worker, or one local chief per remote machine.
    let push_senders = if local_agg { n - 1.0 } else { remote_workers };
    let host_in = w * push_senders;
    // Messages model the server's per-request handling: the hosting
    // machine's server processes one pull request and one update-done
    // notification per worker plus one push per pusher, all through one
    // RPC endpoint.
    let workers = n * g;
    let host_msgs = 2.0 * workers + (if local_agg { n } else { workers });
    let host = VarTraffic {
        out: host_out,
        inb: host_in,
        intra: local_intra,
        msgs: host_msgs,
    };
    // A non-hosting machine: its g workers each pull and push (or its
    // chief pushes once), plus local aggregation traffic within it.
    let other_push = if local_agg { 1.0 } else { g };
    let other = VarTraffic {
        out: w * other_push,
        inb: w * g,
        intra: if local_agg { (g - 1.0) * w } else { 0.0 },
        msgs: 3.0,
    };
    (host, other)
}

/// Combined pull-side and push-side traffic for one sparse PS variable.
///
/// The two sides ride different fast paths in practice: pull responses
/// are plain row-block tensors (cheap serialization), while pushes carry
/// `IndexedSlices` whose per-row index handling is the slow path — the
/// iteration-by-index cost the paper attributes to sparse aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PsSparseTraffic {
    /// Pull requests/responses plus update notifications.
    pub pull: VarTraffic,
    /// Gradient pushes.
    pub push: VarTraffic,
}

impl PsSparseTraffic {
    /// Total bytes out + in across both sides.
    pub fn total_bytes(&self) -> f64 {
        self.pull.out + self.pull.inb + self.push.out + self.push.inb
    }
}

/// PS traffic for one sparse variable partitioned into `p` parts spread
/// evenly over all `n` machines. Hosting is symmetric, so one load
/// applies to every machine.
///
/// Pulls move `alpha * w` bytes per worker (servers gather only the
/// distinct rows a worker needs). Pushes move `raw_frac * w` bytes per
/// worker — the gradient's raw batch rows, duplicates included — unless
/// local aggregation coalesces each machine's pushes first, shrinking
/// them to the machine-level distinct set (`alpha_machine * w`).
pub fn ps_sparse_traffic(
    w: f64,
    alpha: f64,
    raw_frac: f64,
    n: f64,
    g: f64,
    p: f64,
    local_agg: bool,
) -> PsSparseTraffic {
    let a_m = alpha_machine(alpha, g);
    let push_frac = raw_frac.max(alpha);
    let workers = n * g;
    let hosted = (p / n.max(1.0)).max(1.0);
    let pushers = if local_agg { n } else { workers };
    if n <= 1.0 {
        return PsSparseTraffic {
            pull: VarTraffic {
                intra: g * alpha * w,
                msgs: hosted * 2.0 * workers,
                ..VarTraffic::default()
            },
            push: VarTraffic {
                intra: g * push_frac * w,
                msgs: hosted * pushers,
                ..VarTraffic::default()
            },
        };
    }
    let remote_workers = (n - 1.0) * g;
    // Pull side: this machine hosts 1/n of the rows and serves each
    // remote worker's alpha share; its own g workers pull the remote
    // (n-1)/n share. Every worker requests every partition, and each
    // shard notifies every worker when its update lands — the message
    // load that grows with P (Eq. 1's th2 latency half).
    let pull = VarTraffic {
        out: alpha * w * remote_workers / n,
        inb: g * alpha * w * (n - 1.0) / n,
        intra: g * alpha * w / n,
        msgs: hosted * 2.0 * workers,
    };
    // Push side: raw gradients inbound from remote pushers, this
    // machine's (aggregated or raw) gradients outbound.
    let (push_in, push_out) = if local_agg {
        (a_m * w * (n - 1.0) / n, a_m * w * (n - 1.0) / n)
    } else {
        (
            push_frac * w * remote_workers / n,
            g * push_frac * w * (n - 1.0) / n,
        )
    };
    let push_intra = g * push_frac * w / n
        + if local_agg {
            (g - 1.0) * push_frac * w
        } else {
            0.0
        };
    let push = VarTraffic {
        out: push_out,
        inb: push_in,
        intra: push_intra,
        msgs: hosted * pushers,
    };
    PsSparseTraffic { pull, push }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: f64 = 8.0;
    const W: f64 = 4.0e6; // 1M-element variable.

    #[test]
    fn table3_matches_paper_rows() {
        let a = 0.01;
        assert_eq!(
            table3_one_var(VarKind::Dense, Arch::Ps, W, a, N),
            2.0 * W * 7.0
        );
        assert_eq!(
            table3_one_var(VarKind::Dense, Arch::Ar, W, a, N),
            4.0 * W * 7.0 / 8.0
        );
        assert_eq!(
            table3_one_var(VarKind::Sparse, Arch::Ps, W, a, N),
            2.0 * a * W * 7.0
        );
        assert_eq!(
            table3_one_var(VarKind::Sparse, Arch::Ps, W, a, N),
            table3_one_var(VarKind::Sparse, Arch::Ar, W, a, N),
        );
        let m = 16.0;
        assert_eq!(
            table3_m_vars(VarKind::Dense, Arch::Ps, W, a, N, m),
            table3_m_vars(VarKind::Dense, Arch::Ar, W, a, N, m),
        );
        // Sparse m vars: AR costs N/2 times more than PS.
        let ps = table3_m_vars(VarKind::Sparse, Arch::Ps, W, a, N, m);
        let ar = table3_m_vars(VarKind::Sparse, Arch::Ar, W, a, N, m);
        assert!((ar / ps - N / 2.0).abs() < 1e-9);
    }

    #[test]
    fn ps_dense_is_asymmetric_ar_is_not() {
        let (host, other) = ps_dense_traffic(W, N, 1.0, false);
        assert!(
            host.out > other.out * (N - 2.0),
            "hot server: {host:?} vs {other:?}"
        );
        let ar = ar_dense_traffic(W, N, 1.0);
        // AR per-machine load is strictly smaller than the PS host's.
        assert!(ar.out + ar.inb < host.out + host.inb);
    }

    #[test]
    fn g1_reduces_to_table3() {
        // One worker per machine: generalized formulas equal Table 3.
        let (host, _) = ps_dense_traffic(W, N, 1.0, false);
        assert!(
            (host.out + host.inb - table3_one_var(VarKind::Dense, Arch::Ps, W, 1.0, N)).abs()
                < 1e-6
        );
        let ar = ar_dense_traffic(W, N, 1.0);
        // 2 w (W-1)/W out + same in ~ 4 w (N-1)/N with W == N.
        assert!(
            (ar.out + ar.inb - table3_one_var(VarKind::Dense, Arch::Ar, W, 1.0, N)).abs() < 1e-6
        );
        let a = 0.05;
        let ars = ar_sparse_traffic(W, a, N, 1.0);
        assert!(
            (ars.out + ars.inb - table3_one_var(VarKind::Sparse, Arch::Ar, W, a, N)).abs() < 1e-6
        );
        let pss = ps_sparse_traffic(W, a, a, N, 1.0, N, false);
        // Summed over the symmetric machines this equals the m-vars form
        // with m = 1: 4 alpha w (N-1)/N per machine.
        assert!(
            (pss.total_bytes() - table3_m_vars(VarKind::Sparse, Arch::Ps, W, a, N, 1.0)).abs()
                < 1e-6
        );
    }

    #[test]
    fn sparse_ar_scales_with_total_workers_not_machines() {
        let a = 0.01;
        let small = ar_sparse_traffic(W, a, 2.0, 6.0);
        let large = ar_sparse_traffic(W, a, 8.0, 6.0);
        // 11 parts vs 47 parts cross each machine boundary.
        assert!((large.out / small.out - 47.0 / 11.0).abs() < 1e-9);
        // A sparse variable moves fewer bytes through the PS than
        // through AllGatherv on the same cluster (the hybrid rule).
        let ps = ps_sparse_traffic(W, a, a, 8.0, 6.0, 8.0, false);
        assert!(ps.total_bytes() < large.out + large.inb);
    }

    #[test]
    fn local_aggregation_cuts_push_traffic() {
        let a = 0.02;
        let raw = 0.03; // Duplicates inflate raw pushes above alpha.
        let without = ps_sparse_traffic(W, a, raw, N, 6.0, 64.0, false);
        let with = ps_sparse_traffic(W, a, raw, N, 6.0, 64.0, true);
        assert!(with.push.inb < without.push.inb);
        assert!(with.push.out < without.push.out);
        // Pull traffic (per-worker) is unchanged.
        assert!((with.pull.out - without.pull.out).abs() < 1e-9);
    }

    #[test]
    fn alpha_machine_unions_workers() {
        assert!((alpha_machine(0.0, 6.0) - 0.0).abs() < 1e-12);
        assert!((alpha_machine(1.0, 6.0) - 1.0).abs() < 1e-12);
        let a = alpha_machine(0.1, 6.0);
        assert!(a > 0.1 && a < 0.6, "union in ({a})");
    }

    #[test]
    fn partition_count_changes_rpc_load_not_bytes() {
        let a = 0.02;
        let p64 = ps_sparse_traffic(W, a, a, N, 6.0, 64.0, false);
        let p256 = ps_sparse_traffic(W, a, a, N, 6.0, 256.0, false);
        assert!((p256.total_bytes() - p64.total_bytes()).abs() < 1e-6);
        assert!(
            (p256.pull.msgs / p64.pull.msgs - 4.0).abs() < 1e-9,
            "requests scale with P"
        );
    }

    #[test]
    fn single_machine_moves_only_intra_bytes() {
        let ar = ar_dense_traffic(W, 1.0, 6.0);
        assert_eq!(ar.out, 0.0);
        assert!(ar.intra > 0.0, "intra-machine ring still moves bytes");
        let ps = ps_sparse_traffic(W, 0.1, 0.15, 1.0, 6.0, 8.0, true);
        assert_eq!(ps.pull.out, 0.0);
        assert!(ps.pull.intra + ps.push.intra > 0.0);
        let (h, o) = ps_dense_traffic(W, 1.0, 6.0, false);
        assert_eq!(h.out, 0.0);
        assert!(h.intra > 0.0);
        assert_eq!(o, VarTraffic::default());
    }

    #[test]
    fn intra_bytes_vanish_with_one_gpu_per_machine() {
        assert_eq!(ar_dense_traffic(W, 4.0, 1.0).intra, 0.0);
        assert_eq!(ar_sparse_traffic(W, 0.1, 4.0, 1.0).intra, 0.0);
    }

    #[test]
    fn raw_pushes_exceed_distinct_pulls() {
        // Duplicated batch rows inflate pushes relative to pulls; local
        // aggregation collapses them back to the machine-distinct set.
        let alpha = 0.01;
        let raw = 0.05;
        let naive = ps_sparse_traffic(W, alpha, raw, N, 6.0, 8.0, false);
        let dedup = ps_sparse_traffic(W, alpha, alpha, N, 6.0, 8.0, false);
        assert!(naive.push.inb > dedup.push.inb);
        assert!(naive.push.out > dedup.push.out);
    }
}
