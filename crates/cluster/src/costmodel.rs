//! Compute-side cost models.
//!
//! [`SparseOpCost`] is the mechanical origin of the paper's Eq. 1
//! (`iter_time = th0 + th1/P + th2*P`): aggregation/update work for a
//! sparse variable is serial per partition but parallel across
//! partitions (the `th1/P` term), while every partition adds fixed
//! stitching/bookkeeping overhead (the `th2*P` term). Parallax's
//! partition search *fits* Eq. 1 to sampled iteration times; this module
//! is the underlying physics those samples come from.
//!
//! [`CalibrationProfile`] closes the loop the other way: instead of
//! static testbed constants, it distills a measured trace dump
//! (per-machine compute phases, PS serve and apply spans, the
//! `ps.wait_ns` histogram) into the inputs of a calibrated
//! [`IterationSim`](crate::IterationSim) — the basis of the
//! sim-vs-measured conformance suite.

use std::collections::BTreeMap;

use parallax_trace::export::COMPUTE_PHASE_SPANS;
use parallax_trace::json::{self, Value};
use parallax_trace::{SpanCat, TraceDump, SIM_LANE, UNTRACKED_MACHINE};

use crate::hardware::CpuModel;
use crate::sim::{IterationSim, PsQueueModel};

/// Server-side cost of aggregating and applying sparse gradients for one
/// variable, as a function of its partition count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseOpCost {
    /// Total rows pushed to the variable per iteration (across workers,
    /// after local aggregation if enabled).
    pub pushed_rows: f64,
    /// Row width (embedding dimension).
    pub cols: f64,
}

impl SparseOpCost {
    /// Seconds of server CPU time per iteration at `partitions` partitions.
    ///
    /// The serial aggregation work `rows * cols / rate` is divided across
    /// `min(partitions, max_parallelism)` lanes; each partition adds
    /// `per_partition_cost` of stitching overhead. The result is convex in
    /// `partitions` with a minimum at roughly
    /// `sqrt(serial_work / per_partition_cost)` (when under the
    /// parallelism cap).
    pub fn time(&self, cpu: &CpuModel, partitions: usize) -> f64 {
        let p = partitions.max(1);
        let lanes = p.min(cpu.max_parallelism.max(1)) as f64;
        let serial = self.pushed_rows * self.cols / cpu.sparse_agg_rate;
        serial / lanes + p as f64 * cpu.per_partition_cost
    }

    /// The partition count minimizing [`SparseOpCost::time`] by direct
    /// scan (used by tests and the brute-force baseline of Table 5).
    pub fn best_partitions(&self, cpu: &CpuModel, max: usize) -> usize {
        (1..=max.max(1))
            .min_by(|&a, &b| {
                self.time(cpu, a)
                    .partial_cmp(&self.time(cpu, b))
                    .expect("cost is finite")
            })
            .expect("non-empty range")
    }
}

/// A measured calibration profile distilled from a trace dump: the
/// per-machine timings a calibrated simulation starts from, replacing
/// the static testbed constants.
///
/// All times are seconds *per iteration* unless noted. Per-machine
/// vectors are indexed by machine id and sized to `machines`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationProfile {
    /// Number of machines the profile covers.
    pub machines: usize,
    /// Iterations the source run executed (normalization divisor).
    pub iterations: u64,
    /// Per-machine compute time: busiest worker lane's forward +
    /// backward (+ injected straggler delay) phase time per iteration.
    pub compute_per_iter: Vec<f64>,
    /// Per-machine server busy time (sum of `ps.serve.*` span durations)
    /// per iteration.
    pub server_busy_per_iter: Vec<f64>,
    /// Per-machine optimizer-apply time (sum of `ps.apply` span
    /// durations, a subset of the serve busy time) per iteration. Apply
    /// work depends only on gradient sizes, not on compute skew, so a
    /// calibrated straggler prediction carries it over unchanged.
    pub apply_per_iter: Vec<f64>,
    /// Per-machine *early* PS requests per iteration (pulls and control
    /// traffic, issued while workers compute).
    pub early_requests_per_iter: Vec<f64>,
    /// Per-machine *late* PS requests per iteration (gradient pushes,
    /// issued when a worker machine finishes compute).
    pub late_requests_per_iter: Vec<f64>,
    /// Per-machine mean service seconds per request.
    pub service_mean_s: Vec<f64>,
    /// Measured mean server idle gap per request (seconds), from the
    /// `ps.wait_ns` histogram — the ground truth a calibrated sim's
    /// `predicted_mean_ps_wait` is checked against.
    pub wait_mean_s: f64,
}

impl CalibrationProfile {
    /// Distills a profile from a measured dump. `machines` sizes the
    /// per-machine vectors; `iterations` normalizes totals to
    /// per-iteration figures (clamped to at least 1).
    pub fn from_dump(dump: &TraceDump, machines: usize, iterations: u64) -> Self {
        let iters = iterations.max(1) as f64;
        let secs = |ns: f64| ns / 1e9;

        // Busiest-lane compute phase time per machine.
        let mut lane_busy: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut server_busy = vec![0.0f64; machines];
        let mut apply_busy = vec![0.0f64; machines];
        let mut early = vec![0.0f64; machines];
        let mut late = vec![0.0f64; machines];
        let mut serve_count = vec![0.0f64; machines];
        let mut wait_sum_ns = 0.0f64;
        let mut wait_count = 0.0f64;
        for r in &dump.records {
            if r.lane == SIM_LANE || r.machine == UNTRACKED_MACHINE {
                continue;
            }
            let m = r.machine as usize;
            match r.cat {
                SpanCat::Phase if COMPUTE_PHASE_SPANS.contains(&r.name) => {
                    *lane_busy.entry((r.machine, r.lane)).or_default() += r.dur_ns;
                }
                SpanCat::Ps if r.name.starts_with("ps.serve.") && m < machines => {
                    server_busy[m] += secs(r.dur_ns as f64);
                    serve_count[m] += 1.0;
                    if r.name.starts_with("ps.serve.push") {
                        late[m] += 1.0;
                    } else {
                        early[m] += 1.0;
                    }
                }
                SpanCat::Ps if r.name == "ps.apply" && m < machines => {
                    apply_busy[m] += secs(r.dur_ns as f64);
                }
                SpanCat::Ps if r.name == "ps.wait" => {
                    wait_sum_ns += r.dur_ns as f64;
                    wait_count += 1.0;
                }
                _ => {}
            }
        }
        let mut compute = vec![0.0f64; machines];
        for ((m, _lane), busy) in lane_busy {
            let m = m as usize;
            if m < machines {
                compute[m] = compute[m].max(secs(busy as f64) / iters);
            }
        }
        for b in &mut server_busy {
            *b /= iters;
        }
        for b in &mut apply_busy {
            *b /= iters;
        }
        let service_mean: Vec<f64> = server_busy
            .iter()
            .zip(&serve_count)
            .map(|(&busy, &count)| {
                if count > 0.0 {
                    busy * iters / count
                } else {
                    0.0
                }
            })
            .collect();
        for v in [&mut early, &mut late] {
            for e in v.iter_mut() {
                *e /= iters;
            }
        }

        // Prefer the `ps.wait_ns` histogram (covers every recv gap,
        // including spans lost to ring overflow); fall back to the
        // `ps.wait` spans.
        let wait_hist = dump.histograms.iter().find(|(n, _)| n == "ps.wait_ns");
        let wait_mean_s = match wait_hist {
            Some((_, h)) if h.count > 0 => secs(h.mean()),
            _ if wait_count > 0.0 => secs(wait_sum_ns / wait_count),
            _ => 0.0,
        };

        CalibrationProfile {
            machines,
            iterations: iterations.max(1),
            compute_per_iter: compute,
            server_busy_per_iter: server_busy,
            apply_per_iter: apply_busy,
            early_requests_per_iter: early,
            late_requests_per_iter: late,
            service_mean_s: service_mean,
            wait_mean_s,
        }
    }

    /// A copy whose per-machine compute is levelled to the cross-machine
    /// median. When the profiled run was *nominally* homogeneous, the
    /// per-machine differences it measured are scheduler noise, not
    /// hardware; a prediction that multiplies them by a straggler factor
    /// amplifies that noise linearly in the factor. Levelling first makes
    /// the heterogeneity in a derived scenario come entirely from the
    /// model's machine scales.
    pub fn homogenized(&self) -> CalibrationProfile {
        let mut out = self.clone();
        if !out.compute_per_iter.is_empty() {
            let mut sorted = out.compute_per_iter.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted[sorted.len() / 2];
            out.compute_per_iter = vec![median; out.compute_per_iter.len()];
        }
        out
    }

    /// The FIFO queueing model this profile implies.
    pub fn queue_model(&self) -> PsQueueModel {
        PsQueueModel {
            early_requests: self.early_requests_per_iter.clone(),
            late_requests: self.late_requests_per_iter.clone(),
            mean_service: self.service_mean_s.clone(),
        }
    }

    /// Replaces a simulator's compute and server inputs with this
    /// profile's measured figures: per-machine compute from the phase
    /// spans, and the PS modelled as a FIFO queue (so `server_cpu` is
    /// zeroed — service time lives in the queue replay). The
    /// simulator's hardware model, phases, and slowdown scales are left
    /// untouched, so a straggler scenario can be evaluated against a
    /// homogeneous baseline profile.
    pub fn apply(&self, sim: &mut IterationSim) {
        sim.compute = self.compute_per_iter.clone();
        sim.server_cpu = vec![0.0; self.machines];
        sim.ps_queue = Some(self.queue_model());
    }

    /// Serializes the profile as JSON (`parallax-calibration-v1`) —
    /// what `repro trace` writes next to its trace dump and `repro plan
    /// --calibrate` reads back.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let arr = |v: &[f64]| -> String {
            let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
            format!("[{}]", items.join(","))
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"parallax-calibration-v1\",\"machines\":{},\"iterations\":{}",
            self.machines, self.iterations
        );
        for (key, v) in [
            ("compute_per_iter", &self.compute_per_iter),
            ("server_busy_per_iter", &self.server_busy_per_iter),
            ("apply_per_iter", &self.apply_per_iter),
            ("early_requests_per_iter", &self.early_requests_per_iter),
            ("late_requests_per_iter", &self.late_requests_per_iter),
            ("service_mean_s", &self.service_mean_s),
        ] {
            let _ = write!(out, ",\"{key}\":{}", arr(v));
        }
        let _ = write!(out, ",\"wait_mean_s\":{}}}", self.wait_mean_s);
        out
    }

    /// Parses a profile serialized by [`CalibrationProfile::to_json`].
    /// Every per-machine vector must have exactly `machines` entries,
    /// every figure must be finite and non-negative, and `machines` and
    /// `iterations` must be unsigned integers.
    pub fn from_json(text: &str) -> crate::Result<Self> {
        let bad = |what: &str| crate::SpecError::Invalid(format!("calibration JSON: {what}"));
        let doc = json::parse(text).map_err(|e| bad(&format!("invalid value: {e}")))?;
        if doc.get("schema").and_then(Value::as_str) != Some("parallax-calibration-v1") {
            return Err(bad("missing schema parallax-calibration-v1"));
        }
        let invalid = |key: &str, v: &Value| match v {
            Value::Number(text) => bad(&format!("{key} has invalid value {text}")),
            _ => bad(&format!("{key} has invalid value: not a number")),
        };
        let field = |key: &str| doc.get(key).ok_or_else(|| bad(&format!("missing {key}")));
        let figure = |key: &str, v: &Value| match v.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(invalid(key, v)),
        };
        let count = |key: &str| {
            let v = field(key)?;
            v.as_u64().ok_or_else(|| invalid(key, v))
        };
        let machines = count("machines")?;
        let machines = usize::try_from(machines)
            .map_err(|_| bad(&format!("machines has invalid value {machines}")))?;
        let iterations = count("iterations")?;
        let vec_field = |key: &str| -> crate::Result<Vec<f64>> {
            let items = field(key)?
                .as_array()
                .ok_or_else(|| bad(&format!("{key} is not an array")))?;
            if items.len() != machines {
                return Err(bad(&format!(
                    "{key} has {} entries, expected {machines}",
                    items.len()
                )));
            }
            items.iter().map(|v| figure(key, v)).collect()
        };
        let wait_mean_s = match doc.get("wait_mean_s") {
            Some(v) => figure("wait_mean_s", v)?,
            None => 0.0,
        };
        Ok(CalibrationProfile {
            machines,
            iterations: iterations.max(1),
            compute_per_iter: vec_field("compute_per_iter")?,
            server_busy_per_iter: vec_field("server_busy_per_iter")?,
            apply_per_iter: vec_field("apply_per_iter")?,
            early_requests_per_iter: vec_field("early_requests_per_iter")?,
            late_requests_per_iter: vec_field("late_requests_per_iter")?,
            service_mean_s: vec_field("service_mean_s")?,
            wait_mean_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_trace::HistogramSnapshot;

    fn cpu() -> CpuModel {
        CpuModel {
            sparse_agg_rate: 1e6,
            dense_agg_rate: 1e9,
            per_partition_cost: 1e-4,
            max_parallelism: 1024,
            max_shard_bytes: 1e9,
        }
    }

    #[test]
    fn cost_is_convex_with_interior_minimum() {
        let cost = SparseOpCost {
            pushed_rows: 1000.0,
            cols: 100.0,
        };
        let cpu = cpu();
        // serial = 0.1s; optimum ~ sqrt(0.1 / 1e-4) ~ 31.
        let best = cost.best_partitions(&cpu, 512);
        assert!((16..=64).contains(&best), "best {best}");
        assert!(cost.time(&cpu, 1) > cost.time(&cpu, best));
        assert!(cost.time(&cpu, 512) > cost.time(&cpu, best));
    }

    #[test]
    fn parallelism_cap_flattens_gains() {
        let cost = SparseOpCost {
            pushed_rows: 1e6,
            cols: 100.0,
        };
        let capped = CpuModel {
            max_parallelism: 8,
            ..cpu()
        };
        // Beyond 8 partitions, only overhead grows.
        let t8 = cost.time(&capped, 8);
        let t64 = cost.time(&capped, 64);
        assert!(t64 > t8);
        assert!((t64 - t8 - 56.0 * 1e-4).abs() < 1e-9);
    }

    #[test]
    fn more_rows_push_the_optimum_higher() {
        let cpu = cpu();
        let small = SparseOpCost {
            pushed_rows: 100.0,
            cols: 10.0,
        };
        let large = SparseOpCost {
            pushed_rows: 100_000.0,
            cols: 10.0,
        };
        assert!(large.best_partitions(&cpu, 1024) > small.best_partitions(&cpu, 1024));
    }

    #[test]
    fn zero_partitions_treated_as_one() {
        let cost = SparseOpCost {
            pushed_rows: 10.0,
            cols: 10.0,
        };
        assert_eq!(cost.time(&cpu(), 0), cost.time(&cpu(), 1));
    }

    fn span(
        cat: SpanCat,
        name: &'static str,
        machine: u32,
        lane: u32,
        start_ns: u64,
        dur_ns: u64,
    ) -> parallax_trace::SpanRecord {
        parallax_trace::SpanRecord {
            cat,
            name,
            machine,
            lane,
            start_ns,
            dur_ns,
            iter: 0,
            bytes: 0,
            flow: parallax_trace::FlowPoint::None,
        }
    }

    #[test]
    fn calibration_profile_distills_dump() {
        let mut dump = TraceDump::default();
        // 2 iterations, 2 machines. Machine 1's lane 1 is the busiest.
        // Each iteration is offset by 1s.
        for i in 0..2u64 {
            let t = i * 1_000_000_000;
            dump.records
                .push(span(SpanCat::Phase, "phase.forward", 0, 0, t, 100_000_000));
            dump.records.push(span(
                SpanCat::Phase,
                "phase.backward",
                0,
                0,
                t + 100_000_000,
                200_000_000,
            ));
            dump.records
                .push(span(SpanCat::Phase, "phase.forward", 1, 1, t, 150_000_000));
            dump.records.push(span(
                SpanCat::Phase,
                "phase.straggle",
                1,
                1,
                t + 150_000_000,
                450_000_000,
            ));
            dump.records
                .push(span(SpanCat::Phase, "phase.forward", 1, 2, t, 10_000_000));
            // Server on machine 0: 2 pulls + 2 pushes per iteration.
            for k in 0..2u64 {
                dump.records.push(span(
                    SpanCat::Ps,
                    "ps.serve.pull_sparse",
                    0,
                    9,
                    t + k * 10_000_000,
                    1_000_000,
                ));
                dump.records.push(span(
                    SpanCat::Ps,
                    "ps.serve.push_sparse",
                    0,
                    9,
                    t + k * 10_000_000 + 5_000_000,
                    3_000_000,
                ));
            }
            dump.records.push(span(
                SpanCat::Ps,
                "ps.wait",
                0,
                9,
                t + 100_000_000,
                40_000_000,
            ));
            // An op span nested inside machine 0's forward phase: only
            // phase spans count as compute, so it adds nothing.
            dump.records.push(span(
                SpanCat::Compute,
                "MatMul",
                0,
                0,
                t + 10_000_000,
                50_000_000,
            ));
        }
        // Sim-lane and untracked records are ignored.
        dump.records
            .push(span(SpanCat::Phase, "phase.forward", 0, SIM_LANE, 0, 999));
        dump.records.push(span(
            SpanCat::Ps,
            "ps.serve.push_dense",
            UNTRACKED_MACHINE,
            0,
            0,
            999,
        ));

        let cal = CalibrationProfile::from_dump(&dump, 2, 2);
        assert!((cal.compute_per_iter[0] - 0.3).abs() < 1e-9);
        assert!((cal.compute_per_iter[1] - 0.6).abs() < 1e-9, "busiest lane");
        assert!((cal.server_busy_per_iter[0] - 0.008).abs() < 1e-12);
        assert_eq!(cal.server_busy_per_iter[1], 0.0);
        assert!((cal.early_requests_per_iter[0] - 2.0).abs() < 1e-12);
        assert!((cal.late_requests_per_iter[0] - 2.0).abs() < 1e-12);
        assert!((cal.service_mean_s[0] - 0.002).abs() < 1e-12);
        // No histogram in the dump: wait mean falls back to the spans.
        assert!((cal.wait_mean_s - 0.04).abs() < 1e-12);

        // Applying to a sim wires the queue model in.
        let mut sim = IterationSim::new(crate::ClusterModel::paper_testbed(), 2);
        cal.apply(&mut sim);
        assert_eq!(sim.compute, cal.compute_per_iter);
        assert_eq!(sim.server_cpu, vec![0.0; 2]);
        assert!(sim.ps_queue.is_some());
        assert!(sim.predicted_mean_ps_wait().is_some());
    }

    #[test]
    fn calibration_json_round_trips() {
        let cal = CalibrationProfile {
            machines: 2,
            iterations: 3,
            compute_per_iter: vec![0.3, 0.6],
            server_busy_per_iter: vec![0.008, 0.0],
            apply_per_iter: vec![0.001, 0.0],
            early_requests_per_iter: vec![2.0, 0.0],
            late_requests_per_iter: vec![2.0, 0.0],
            service_mean_s: vec![0.002, 0.0],
            wait_mean_s: 0.04,
        };
        let text = cal.to_json();
        assert!(text.contains("parallax-calibration-v1"));
        let back = CalibrationProfile::from_json(&text).unwrap();
        assert_eq!(back.machines, cal.machines);
        assert_eq!(back.iterations, cal.iterations);
        assert_eq!(back.compute_per_iter, cal.compute_per_iter);
        assert_eq!(back.server_busy_per_iter, cal.server_busy_per_iter);
        assert_eq!(back.apply_per_iter, cal.apply_per_iter);
        assert_eq!(back.early_requests_per_iter, cal.early_requests_per_iter);
        assert_eq!(back.late_requests_per_iter, cal.late_requests_per_iter);
        assert_eq!(back.service_mean_s, cal.service_mean_s);
        assert_eq!(back.wait_mean_s, cal.wait_mean_s);
        // Both profiles drive the sim identically.
        let mut a = IterationSim::new(crate::ClusterModel::paper_testbed(), 2);
        let mut b = IterationSim::new(crate::ClusterModel::paper_testbed(), 2);
        cal.apply(&mut a);
        back.apply(&mut b);
        assert_eq!(a.compute, b.compute);
        assert_eq!(a.iteration_time(), b.iteration_time());
    }

    #[test]
    fn calibration_json_rejects_malformed_input() {
        // Wrong/missing schema.
        assert!(CalibrationProfile::from_json("{}").is_err());
        assert!(CalibrationProfile::from_json("{\"schema\":\"other\"}").is_err());
        // Array length disagrees with machines.
        let text = "{\"schema\":\"parallax-calibration-v1\",\"machines\":2,\
                    \"iterations\":1,\"compute_per_iter\":[0.1],\
                    \"server_busy_per_iter\":[0,0],\"apply_per_iter\":[0,0],\
                    \"early_requests_per_iter\":[0,0],\"late_requests_per_iter\":[0,0],\
                    \"service_mean_s\":[0,0],\"wait_mean_s\":0}";
        let err = CalibrationProfile::from_json(text).unwrap_err();
        assert!(err.to_string().contains("compute_per_iter"));
    }

    #[test]
    fn calibration_json_rejects_negative_and_non_finite_figures() {
        let good = CalibrationProfile {
            machines: 2,
            iterations: 1,
            compute_per_iter: vec![0.3, 0.6],
            server_busy_per_iter: vec![0.0; 2],
            apply_per_iter: vec![0.0; 2],
            early_requests_per_iter: vec![0.0; 2],
            late_requests_per_iter: vec![0.0; 2],
            service_mean_s: vec![0.0; 2],
            wait_mean_s: 0.04,
        }
        .to_json();
        assert!(CalibrationProfile::from_json(&good).is_ok());
        for (from, to) in [
            ("\"compute_per_iter\":[0.3,", "\"compute_per_iter\":[-.3,"),
            ("\"compute_per_iter\":[0.3,", "\"compute_per_iter\":[NaN,"),
            ("\"compute_per_iter\":[0.3,", "\"compute_per_iter\":[inf,"),
            ("\"wait_mean_s\":0.04", "\"wait_mean_s\":-0.04"),
            ("\"wait_mean_s\":0.04", "\"wait_mean_s\":1e999"),
            ("\"iterations\":1", "\"iterations\":-1"),
            ("\"machines\":2", "\"machines\":-2"),
            ("\"machines\":2", "\"machines\":2.5"),
            ("\"iterations\":1", "\"iterations\":4.9"),
            ("\"iterations\":1", "\"iterations\":1e300"),
        ] {
            let text = good.replacen(from, to, 1);
            assert_ne!(text, good, "{to} must edit the profile");
            match CalibrationProfile::from_json(&text) {
                Err(crate::SpecError::Invalid(msg)) => assert!(msg.contains("invalid value")),
                other => panic!("{to}: expected SpecError::Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn calibration_prefers_wait_histogram() {
        let mut dump = TraceDump::default();
        dump.records
            .push(span(SpanCat::Ps, "ps.wait", 0, 9, 0, 40_000_000));
        dump.histograms.push((
            "ps.wait_ns".to_string(),
            HistogramSnapshot {
                count: 4,
                sum: 100_000_000,
                buckets: vec![],
            },
        ));
        let cal = CalibrationProfile::from_dump(&dump, 1, 1);
        assert!((cal.wait_mean_s - 0.025).abs() < 1e-12);
    }
}
