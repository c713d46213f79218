//! Per-layer attribution of traced training steps.
//!
//! The runner opens `phase.forward`, `phase.backward` and
//! `phase.exchange` spans (with `phase.apply` nested in the exchange)
//! inside every iteration; the ops, collectives and PS client calls open
//! child spans of those. The benchmark measures each chief step from
//! outside, as the interval between two successive feed calls, and
//! splits it into
//!
//! ```text
//! step = forward + backward + exchange + apply + unattributed
//! ```
//!
//! where `exchange` excludes the nested applies and `unattributed` is
//! the rest of the interval: the feed itself, loop and span overhead,
//! and anything no span covers. Spans are inclusive, so PS and
//! collective child time lands in the phase that waited for it and the
//! split closes on the step time by construction; the check that it
//! does (and that `unattributed` is not negative) guards the span
//! nesting the split relies on.

use std::collections::BTreeMap;
use std::ops::Range;

use parallax_trace::export::self_durations;
use parallax_trace::{SpanCat, TraceDump, SIM_LANE};

/// Which trace lanes (transport ranks) play which role.
#[derive(Debug, Clone)]
pub struct Tracks {
    /// The chief worker's rank.
    pub chief: u32,
    /// Every worker's rank, chief included.
    pub workers: Vec<u32>,
    /// Every PS server's rank (empty without servers).
    pub servers: Vec<u32>,
}

/// Op self-time buckets reported as `tensor.*`.
pub const OP_BUCKETS: [&str; 5] = ["matmul", "lstm", "softmax_xent", "gather", "other"];

/// The `OP_BUCKETS` index of a compute span name (forward ops and their
/// gradient ops carry the same name).
pub fn op_bucket(name: &str) -> usize {
    match name {
        "MatMul" | "MatMulBT" => 0,
        "LstmCellFused" => 1,
        "SoftmaxXent" => 2,
        "Gather" | "Gather(sparse)" => 3,
        _ => 4,
    }
}

/// Sums over the traced steps of one or more training chunks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainLayers {
    /// Chief steps covered.
    pub steps: u64,
    /// Chief step time (feed-to-feed intervals).
    pub step_ns: u64,
    /// Chief time inside the feed closure.
    pub feed_ns: u64,
    /// `phase.forward` on the chief.
    pub forward_ns: u64,
    /// `phase.backward` on the chief.
    pub backward_ns: u64,
    /// `phase.exchange` on the chief, nested applies included.
    pub exchange_ns: u64,
    /// `phase.apply` on the chief.
    pub apply_ns: u64,
    /// Chief op self time per [`OP_BUCKETS`] entry.
    pub ops_ns: [u64; 5],
    /// Top-level `allreduce` spans on the chief.
    pub allreduce_ns: u64,
    /// Number of those spans.
    pub allreduce_calls: u64,
    /// `ps.pull_sparse` + `ps.pull_dense` on the chief.
    pub pull_ns: u64,
    /// `ps.push` on the chief.
    pub push_ns: u64,
    /// `ps.await_update` on the chief.
    pub await_ns: u64,
    /// `ps.serve.*` spans over all servers.
    pub server_busy_ns: u64,
    /// `ps.wait` spans over all servers.
    pub server_idle_ns: u64,
    /// `ps.apply` spans over all servers.
    pub server_apply_ns: u64,
    /// Per step, the busiest worker's forward+backward time, summed.
    pub skew_max_ns: u64,
    /// Per step, the least busy worker's forward+backward time, summed.
    pub skew_min_ns: u64,
    /// Span records the tracer dropped.
    pub dropped: u64,
}

impl TrainLayers {
    /// Folds one traced chunk's dump. Only `iters` count: the
    /// iterations whose chief step interval was measured, `step_ns` in
    /// total.
    pub fn absorb(&mut self, dump: &TraceDump, tracks: &Tracks, iters: Range<u64>, step_ns: u64) {
        self.steps += iters.end - iters.start;
        self.step_ns += step_ns;
        self.dropped += dump.dropped;
        let selfs = self_durations(&dump.records);
        let mut compute: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        for (r, &self_ns) in dump.records.iter().zip(&selfs) {
            if r.lane == SIM_LANE || !iters.contains(&r.iter) {
                continue;
            }
            if tracks.servers.contains(&r.lane) {
                match r.name {
                    "ps.wait" => self.server_idle_ns += r.dur_ns,
                    "ps.apply" => self.server_apply_ns += r.dur_ns,
                    n if n.starts_with("ps.serve.") => self.server_busy_ns += r.dur_ns,
                    _ => {}
                }
                continue;
            }
            if !tracks.workers.contains(&r.lane) {
                continue;
            }
            if matches!(r.name, "phase.forward" | "phase.backward") {
                *compute.entry((r.iter, r.lane)).or_default() += r.dur_ns;
            }
            if r.lane != tracks.chief {
                continue;
            }
            match (r.cat, r.name) {
                (SpanCat::Compute, name) => self.ops_ns[op_bucket(name)] += self_ns,
                (SpanCat::Phase, "phase.forward") => self.forward_ns += r.dur_ns,
                (SpanCat::Phase, "phase.backward") => self.backward_ns += r.dur_ns,
                (SpanCat::Phase, "phase.exchange") => self.exchange_ns += r.dur_ns,
                (SpanCat::Phase, "phase.apply") => self.apply_ns += r.dur_ns,
                (SpanCat::Collective, "allreduce") => {
                    self.allreduce_ns += r.dur_ns;
                    self.allreduce_calls += 1;
                }
                (SpanCat::Ps, "ps.pull_sparse" | "ps.pull_dense") => self.pull_ns += r.dur_ns,
                (SpanCat::Ps, "ps.push") => self.push_ns += r.dur_ns,
                (SpanCat::Ps, "ps.await_update") => self.await_ns += r.dur_ns,
                _ => {}
            }
        }
        let mut per_step: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for ((iter, _), ns) in compute {
            per_step.entry(iter).or_default().push(ns);
        }
        for busy in per_step.values() {
            self.skew_max_ns += busy.iter().copied().max().unwrap_or(0);
            self.skew_min_ns += busy.iter().copied().min().unwrap_or(0);
        }
    }

    /// Chief step time no phase span covers: the step minus forward,
    /// backward and the exchange (applies included). Negative means the
    /// phase spans overran the measured step, which breaks attribution.
    pub fn unattributed_ns(&self) -> i64 {
        self.step_ns as i64 - (self.forward_ns + self.backward_ns + self.exchange_ns) as i64
    }

    /// Every way the attribution can fail to close, one line each.
    pub fn attribution_problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.steps == 0 {
            out.push("no traced steps to attribute".to_string());
        }
        if self.dropped > 0 {
            out.push(format!("tracer dropped {} span records", self.dropped));
        }
        if self.apply_ns > self.exchange_ns {
            out.push(format!(
                "apply spans ({} ns) exceed the exchange spans that contain them ({} ns)",
                self.apply_ns, self.exchange_ns
            ));
        }
        if self.unattributed_ns() < 0 {
            out.push(format!(
                "phase spans ({} ns) exceed the measured chief step time ({} ns)",
                self.forward_ns + self.backward_ns + self.exchange_ns,
                self.step_ns
            ));
        }
        out
    }
}
