//! Exporters for [`TraceDump`]: Chrome-trace JSON, per-iteration
//! breakdown tables, straggler reports, and a machine-readable summary.
//!
//! All JSON is emitted by hand (the workspace carries no serde), with
//! strings escaped by [`json::escape`]; tests read it back with
//! [`json::parse`] to show `chrome://tracing` / Perfetto will load it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;
use crate::tracer::{FlowPoint, SpanCat, SpanRecord, TraceDump, SIM_LANE, UNTRACKED_MACHINE};

/// Name of the per-iteration phase span the runner opens around each
/// training iteration; the straggler report keys off it.
pub const ITERATION_SPAN: &str = "iteration";

/// Phase spans that make up a machine's *un-gated* busy time. In
/// synchronous mode the `iteration` spans of all machines end together
/// at the barrier, so straggler skew must be read off the compute
/// phases (plus any injected straggler delay) instead.
pub const COMPUTE_PHASE_SPANS: [&str; 3] = ["phase.forward", "phase.backward", "phase.straggle"];

// ----------------------------------------------------------------- helpers

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Exclusive (self) duration per record: duration minus the duration of
/// direct children, reconstructed per `(machine, lane)` track from span
/// intervals. Returned vector is indexed like `records`.
pub fn self_durations(records: &[SpanRecord]) -> Vec<u64> {
    let mut selfs: Vec<u64> = records.iter().map(|r| r.dur_ns).collect();
    let mut tracks: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        tracks.entry((r.machine, r.lane)).or_default().push(i);
    }
    for idxs in tracks.values_mut() {
        // Parents sort before children: earlier start first, and at
        // equal start the longer (enclosing) span first.
        idxs.sort_by(|&a, &b| {
            records[a]
                .start_ns
                .cmp(&records[b].start_ns)
                .then(records[b].dur_ns.cmp(&records[a].dur_ns))
        });
        let end = |i: usize| records[i].start_ns + records[i].dur_ns;
        let mut stack: Vec<usize> = Vec::new();
        for &i in idxs.iter() {
            while let Some(&top) = stack.last() {
                if end(top) <= records[i].start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                selfs[top] = selfs[top].saturating_sub(records[i].dur_ns);
            }
            stack.push(i);
        }
    }
    selfs
}

// ------------------------------------------------------------ chrome trace

/// Renders the dump in the Chrome trace event format (JSON object
/// form), loadable in `chrome://tracing` and Perfetto. Each machine
/// becomes a process (`pid`), each worker/server lane a thread (`tid`);
/// modelled (simulated) spans sit on a dedicated `sim (modelled)` lane
/// of the same process.
pub fn chrome_trace(dump: &TraceDump) -> String {
    let mut out = String::with_capacity(dump.records.len() * 128 + 1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&ev);
    };

    // Metadata: process names for every machine, thread names for every
    // known lane (registered threads + any sim lanes present).
    let mut machines: Vec<u32> = dump.records.iter().map(|r| r.machine).collect();
    machines.sort_unstable();
    machines.dedup();
    for m in &machines {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{m},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"machine{m}\"}}}}"
            ),
        );
    }
    let mut named: Vec<(u32, u32, String)> = dump
        .threads
        .iter()
        .map(|t| (t.machine, t.lane, t.label.clone()))
        .collect();
    let mut sim_lanes: Vec<u32> = dump
        .records
        .iter()
        .filter(|r| r.lane == SIM_LANE)
        .map(|r| r.machine)
        .collect();
    sim_lanes.sort_unstable();
    sim_lanes.dedup();
    for m in sim_lanes {
        named.push((m, SIM_LANE, "sim (modelled)".to_string()));
    }
    named.sort();
    named.dedup();
    for (machine, lane, label) in &named {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{machine},\"tid\":{lane},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                json::escape(label)
            ),
        );
    }

    // Complete ("X") events, sorted for stable output.
    let mut order: Vec<usize> = (0..dump.records.len()).collect();
    order.sort_by_key(|&i| {
        let r = &dump.records[i];
        (r.machine, r.lane, r.start_ns, std::cmp::Reverse(r.dur_ns))
    });
    for i in order {
        let r = &dump.records[i];
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"cat\":\"{}\",\
                 \"args\":{{\"iter\":{},\"bytes\":{}}}}}",
                r.machine,
                r.lane,
                us(r.start_ns),
                us(r.dur_ns),
                json::escape(r.name),
                r.cat.as_str(),
                r.iter,
                r.bytes
            ),
        );
        // Flow events bind to the enclosing slice on their pid/tid at
        // `ts`; emitting them at the slice midpoint keeps the binding
        // unambiguous even with zero-length neighbours.
        let mid = us(r.start_ns + r.dur_ns / 2);
        match r.flow {
            FlowPoint::None => {}
            FlowPoint::Start(id) => push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\
                     \"id\":{id},\"name\":\"ps.flow\",\"cat\":\"flow\"}}",
                    r.machine, r.lane, mid
                ),
            ),
            FlowPoint::Finish(id) => push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\
                     \"id\":{id},\"name\":\"ps.flow\",\"cat\":\"flow\"}}",
                    r.machine, r.lane, mid
                ),
            ),
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

// ------------------------------------------------------------- flow checker

/// Validates flow pairing in a dump: every flow id must appear on
/// exactly one [`FlowPoint::Start`] span and exactly one
/// [`FlowPoint::Finish`] span. Returns the number of matched pairs.
pub fn check_flows(dump: &TraceDump) -> Result<usize, String> {
    let mut pairs: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in &dump.records {
        match r.flow {
            FlowPoint::None => {}
            FlowPoint::Start(id) => pairs.entry(id).or_default().0 += 1,
            FlowPoint::Finish(id) => pairs.entry(id).or_default().1 += 1,
        }
    }
    for (id, (starts, finishes)) in &pairs {
        if *starts != 1 || *finishes != 1 {
            return Err(format!(
                "flow {id:#x}: {starts} start(s), {finishes} finish(es); want exactly 1 of each"
            ));
        }
    }
    Ok(pairs.len())
}

// -------------------------------------------------------- breakdown table

/// Plain-text per-iteration breakdown: for each iteration, the *self*
/// time of every phase span (exclusive of nested phases, so `exchange`
/// excludes the `apply` time nested inside it), summed over all threads
/// and maxed over machines; followed by per-category totals and the top
/// compute ops by self time.
pub fn breakdown_table(dump: &TraceDump) -> String {
    let selfs = self_durations(&dump.records);
    let ms = |ns: u64| ns as f64 / 1e6;

    // (iter, phase name) -> (self total ns, per-machine self ns)
    type PhaseAcc = BTreeMap<(u64, &'static str), (u64, BTreeMap<u32, u64>)>;
    let mut phases: PhaseAcc = BTreeMap::new();
    let mut cats: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new(); // count,self,bytes
    let mut ops: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new(); // count,self
    for (i, r) in dump.records.iter().enumerate() {
        let c = cats.entry(r.cat.as_str()).or_default();
        c.0 += 1;
        c.1 += selfs[i];
        c.2 += r.bytes;
        match r.cat {
            SpanCat::Phase => {
                let e = phases.entry((r.iter, r.name)).or_default();
                e.0 += selfs[i];
                *e.1.entry(r.machine).or_default() += selfs[i];
            }
            SpanCat::Compute => {
                let e = ops.entry(r.name).or_default();
                e.0 += 1;
                e.1 += selfs[i];
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "per-iteration phase breakdown (self time)");
    let _ = writeln!(
        out,
        "{:>5}  {:<16} {:>14} {:>16}",
        "iter", "phase", "self-total(ms)", "max-machine(ms)"
    );
    for ((iter, name), (total, per_machine)) in &phases {
        let max_machine = per_machine.values().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>5}  {:<16} {:>14.3} {:>16.3}",
            iter,
            name,
            ms(*total),
            ms(max_machine)
        );
    }

    let _ = writeln!(out, "\nby category (self time)");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>14} {:>14}",
        "category", "spans", "self-total(ms)", "bytes"
    );
    for (cat, (count, self_ns, bytes)) in &cats {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>14.3} {:>14}",
            cat,
            count,
            ms(*self_ns),
            bytes
        );
    }

    if !ops.is_empty() {
        let mut top: Vec<(&'static str, (u64, u64))> = ops.into_iter().collect();
        top.sort_by_key(|(_, (_, s))| std::cmp::Reverse(*s));
        let _ = writeln!(out, "\ntop compute ops (self time)");
        let _ = writeln!(out, "{:<20} {:>8} {:>14}", "op", "spans", "self-total(ms)");
        for (name, (count, self_ns)) in top.into_iter().take(8) {
            let _ = writeln!(out, "{:<20} {:>8} {:>14.3}", name, count, ms(self_ns));
        }
    }
    out
}

// -------------------------------------------------------- straggler report

/// Per-iteration straggler statistics derived from `iteration` phase
/// spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterStat {
    /// Iteration number.
    pub iter: u64,
    /// Slowest machine's iteration time (ns). The straggler bound.
    pub max_ns: u64,
    /// Median machine iteration time (ns).
    pub median_ns: u64,
    /// Machine id of the straggler.
    pub slowest_machine: u32,
}

/// Computes per-iteration max/median machine times from the measured
/// `iteration` phase spans (per machine, the longest worker lane's span
/// counts as that machine's time).
pub fn straggler_stats(dump: &TraceDump) -> Vec<IterStat> {
    let mut per_iter: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
    for r in &dump.records {
        if r.cat == SpanCat::Phase && r.name == ITERATION_SPAN && r.lane != SIM_LANE {
            let m = per_iter.entry(r.iter).or_default();
            let e = m.entry(r.machine).or_default();
            *e = (*e).max(r.dur_ns);
        }
    }
    per_iter
        .into_iter()
        .map(|(iter, machines)| {
            let (&slowest_machine, &max_ns) = machines
                .iter()
                .max_by_key(|(_, &d)| d)
                .expect("non-empty by construction");
            let mut durs: Vec<u64> = machines.values().copied().collect();
            durs.sort_unstable();
            let median_ns = durs[durs.len() / 2];
            IterStat {
                iter,
                max_ns,
                median_ns,
                slowest_machine,
            }
        })
        .collect()
}

/// Computes per-iteration max/median machine *busy* (compute-phase)
/// times from the spans in [`COMPUTE_PHASE_SPANS`]. Per machine, each
/// worker lane's phase durations are summed and the busiest lane counts
/// as that machine's time. Unlike [`straggler_stats`] this is not gated
/// by the synchronization barrier, so an injected straggler shows up
/// here even when every `iteration` span ends at the same barrier.
pub fn compute_skew_stats(dump: &TraceDump) -> Vec<IterStat> {
    let mut per_iter: BTreeMap<u64, BTreeMap<u32, BTreeMap<u32, u64>>> = BTreeMap::new();
    for r in &dump.records {
        if r.cat == SpanCat::Phase
            && COMPUTE_PHASE_SPANS.contains(&r.name)
            && r.lane != SIM_LANE
            && r.machine != UNTRACKED_MACHINE
        {
            *per_iter
                .entry(r.iter)
                .or_default()
                .entry(r.machine)
                .or_default()
                .entry(r.lane)
                .or_default() += r.dur_ns;
        }
    }
    per_iter
        .into_iter()
        .map(|(iter, machines)| {
            let busy: BTreeMap<u32, u64> = machines
                .into_iter()
                .map(|(m, lanes)| (m, lanes.values().copied().max().unwrap_or(0)))
                .collect();
            let (&slowest_machine, &max_ns) = busy
                .iter()
                .max_by_key(|(_, &d)| d)
                .expect("non-empty by construction");
            let mut durs: Vec<u64> = busy.values().copied().collect();
            durs.sort_unstable();
            let median_ns = durs[durs.len() / 2];
            IterStat {
                iter,
                max_ns,
                median_ns,
                slowest_machine,
            }
        })
        .collect()
}

/// Upper median of the per-iteration max/median ratios (1.0 when
/// empty). Where a ratio of totals lets one stalled iteration dominate
/// the whole run, this discards such spikes — on time-shared
/// hosts a multi-millisecond scheduler stall in a single iteration is
/// the dominant measurement artifact, so conformance checks compare
/// against this figure.
pub fn median_ratio(stats: &[IterStat]) -> f64 {
    if stats.is_empty() {
        return 1.0;
    }
    let mut ratios: Vec<f64> = stats
        .iter()
        .map(|s| s.max_ns as f64 / s.median_ns.max(1) as f64)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2]
}

fn stat_table(out: &mut String, stats: &[IterStat]) {
    let _ = writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>8} {:>10}",
        "iter", "max(ms)", "median(ms)", "ratio", "straggler"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut sum_max = 0u64;
    let mut sum_med = 0u64;
    for s in stats {
        sum_max += s.max_ns;
        sum_med += s.median_ns;
        let ratio = s.max_ns as f64 / s.median_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "{:>5} {:>12.3} {:>12.3} {:>8.3} {:>10}",
            s.iter,
            ms(s.max_ns),
            ms(s.median_ns),
            ratio,
            format!("machine{}", s.slowest_machine)
        );
    }
    let n = stats.len() as f64;
    let _ = writeln!(
        out,
        "mean max {:.3} ms, mean median {:.3} ms, mean straggler ratio {:.3}",
        ms(sum_max) / n,
        ms(sum_med) / n,
        sum_max as f64 / sum_med.max(1) as f64
    );
}

/// Plain-text straggler report: per-iteration max vs. median machine
/// time plus an aggregate slowdown ratio. Two sections: barrier-gated
/// `iteration` spans (equalized by synchronous exchanges) and un-gated
/// compute-phase busy time (where injected stragglers are visible).
pub fn straggler_report(dump: &TraceDump) -> String {
    let stats = straggler_stats(dump);
    let mut out = String::new();
    let _ = writeln!(out, "straggler report (per-iteration machine times)");
    if stats.is_empty() {
        let _ = writeln!(out, "  no `{ITERATION_SPAN}` phase spans recorded");
        return out;
    }
    stat_table(&mut out, &stats);
    let compute = compute_skew_stats(dump);
    if !compute.is_empty() {
        let _ = writeln!(
            out,
            "\ncompute-skew report (un-gated per-machine busy time)"
        );
        stat_table(&mut out, &compute);
    }
    if let Some((_, h)) = dump
        .histograms
        .iter()
        .find(|(n, _)| n == "ps.wait_ns")
        .filter(|(_, h)| h.count > 0)
    {
        let ms = |ns: f64| ns / 1e6;
        let _ = writeln!(
            out,
            "\nps wait (server idle gap per request, power-of-two buckets)"
        );
        let _ = writeln!(
            out,
            "  n={}, mean {:.3} ms, p50 <= {:.3} ms, p99 <= {:.3} ms",
            h.count,
            ms(h.mean()),
            ms(h.quantile_upper_bound(0.5) as f64),
            ms(h.quantile_upper_bound(0.99) as f64),
        );
    }
    out
}

// ------------------------------------------------------------ summary json

/// Machine-readable summary of the dump (span totals per category,
/// counters, histogram digests, straggler stats). Valid JSON.
pub fn summary_json(dump: &TraceDump) -> String {
    let selfs = self_durations(&dump.records);
    let mut out = String::new();
    out.push_str("{\"schema\":\"parallax-trace-summary-v1\"");

    out.push_str(",\"spans\":{");
    let mut first = true;
    for cat in SpanCat::all() {
        let (mut count, mut total_ns, mut self_ns, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for (i, r) in dump.records.iter().enumerate() {
            if r.cat == cat {
                count += 1;
                total_ns += r.dur_ns;
                self_ns += selfs[i];
                bytes += r.bytes;
            }
        }
        if count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{count},\"total_ns\":{total_ns},\
             \"self_ns\":{self_ns},\"bytes\":{bytes}}}",
            cat.as_str()
        );
    }
    out.push('}');

    let _ = write!(
        out,
        ",\"total_span_bytes\":{},\"unattributed_net_bytes\":{},\"dropped\":{}",
        dump.total_span_bytes(),
        dump.unattributed_net_bytes,
        dump.dropped
    );

    out.push_str(",\"counters\":{");
    for (i, (name, v)) in dump.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", json::escape(name));
    }
    out.push('}');

    out.push_str(",\"histograms\":{");
    for (i, (name, h)) in dump.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\
             \"p50_ub\":{},\"p99_ub\":{}}}",
            json::escape(name),
            h.count,
            h.sum,
            h.mean(),
            h.quantile_upper_bound(0.5),
            h.quantile_upper_bound(0.99)
        );
    }
    out.push('}');

    out.push_str(",\"stragglers\":[");
    for (i, s) in straggler_stats(dump).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"iter\":{},\"max_ns\":{},\"median_ns\":{},\"slowest_machine\":{}}}",
            s.iter, s.max_ns, s.median_ns, s.slowest_machine
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{ThreadInfo, UNTRACKED_MACHINE};

    #[allow(clippy::too_many_arguments)]
    fn rec(
        cat: SpanCat,
        name: &'static str,
        machine: u32,
        lane: u32,
        start: u64,
        dur: u64,
        iter: u64,
        bytes: u64,
    ) -> SpanRecord {
        SpanRecord {
            cat,
            name,
            machine,
            lane,
            start_ns: start,
            dur_ns: dur,
            iter,
            bytes,
            flow: FlowPoint::None,
        }
    }

    fn sample_dump() -> TraceDump {
        TraceDump {
            records: vec![
                rec(SpanCat::Phase, "iteration", 0, 1, 0, 1000, 0, 0),
                rec(SpanCat::Phase, "phase.forward", 0, 1, 0, 300, 0, 0),
                rec(SpanCat::Compute, "MatMul", 0, 1, 10, 200, 0, 0),
                rec(SpanCat::Phase, "phase.exchange", 0, 1, 600, 400, 0, 0),
                rec(SpanCat::Phase, "phase.apply", 0, 1, 800, 100, 0, 0),
                rec(SpanCat::Collective, "allreduce", 0, 1, 610, 150, 0, 512),
                rec(SpanCat::Phase, "iteration", 1, 1, 0, 1600, 0, 0),
                rec(SpanCat::Sim, "sim.compute", 0, SIM_LANE, 0, 900, 0, 0),
            ],
            threads: vec![ThreadInfo {
                machine: 0,
                lane: 1,
                label: "worker0".to_string(),
            }],
            counters: vec![("c\"x".to_string(), 3)],
            histograms: vec![],
            unattributed_net_bytes: 4,
            dropped: 0,
        }
    }

    #[test]
    fn self_durations_subtract_direct_children() {
        let d = sample_dump();
        let selfs = self_durations(&d.records);
        // iteration(1000) minus forward(300)+exchange(400) = 300.
        assert_eq!(selfs[0], 300);
        // forward(300) minus MatMul(200) = 100.
        assert_eq!(selfs[1], 100);
        // exchange(400) minus apply(100)+allreduce(150) = 150.
        assert_eq!(selfs[3], 150);
        // Leaves keep their full duration.
        assert_eq!(selfs[2], 200);
        assert_eq!(selfs[4], 100);
        // Other tracks unaffected.
        assert_eq!(selfs[6], 1600);
        assert_eq!(selfs[7], 900);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_rows() {
        let json = chrome_trace(&sample_dump());
        json::parse(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"machine0\""));
        assert!(json.contains("\"name\":\"machine1\""));
        assert!(json.contains("\"name\":\"worker0\""));
        assert!(json.contains("sim (modelled)"));
        assert!(json.contains("\"cat\":\"collective\""));
        assert!(json.contains("\"bytes\":512"));
    }

    #[test]
    fn summary_json_is_valid_and_cross_checks_bytes() {
        let d = sample_dump();
        let json = summary_json(&d);
        json::parse(&json).expect("summary must be valid JSON");
        assert!(json.contains("\"total_span_bytes\":516"));
        assert!(json.contains("\"c\\\"x\":3"));
    }

    #[test]
    fn breakdown_table_lists_phases() {
        let table = breakdown_table(&sample_dump());
        assert!(table.contains("phase.forward"));
        assert!(table.contains("phase.exchange"));
        assert!(table.contains("MatMul"));
    }

    #[test]
    fn straggler_stats_pick_slowest_machine() {
        let stats = straggler_stats(&sample_dump());
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].max_ns, 1600);
        assert_eq!(stats[0].slowest_machine, 1);
        assert_eq!(stats[0].median_ns, 1600); // median of [1000, 1600] -> upper
        let report = straggler_report(&sample_dump());
        assert!(report.contains("machine1"));
    }

    #[test]
    fn straggler_ignores_untracked_and_sim() {
        let mut d = sample_dump();
        d.records.push(rec(
            SpanCat::Phase,
            "iteration",
            UNTRACKED_MACHINE,
            SIM_LANE,
            0,
            9999,
            0,
            0,
        ));
        let stats = straggler_stats(&d);
        assert_eq!(stats[0].max_ns, 1600);
    }

    #[test]
    fn compute_skew_sees_straggler_behind_barrier() {
        // Both machines' `iteration` spans end at the barrier (equal
        // durations), but machine 1's backward phase is 3x longer.
        let mut d = TraceDump::default();
        for m in 0..2u32 {
            d.records
                .push(rec(SpanCat::Phase, "iteration", m, 0, 0, 1000, 0, 0));
            d.records
                .push(rec(SpanCat::Phase, "phase.forward", m, 0, 0, 100, 0, 0));
            let bwd = if m == 1 { 600 } else { 200 };
            d.records
                .push(rec(SpanCat::Phase, "phase.backward", m, 0, 100, bwd, 0, 0));
        }
        let gated = straggler_stats(&d);
        assert_eq!(gated[0].max_ns, 1000);
        assert_eq!(gated[0].median_ns, 1000);
        let skew = compute_skew_stats(&d);
        assert_eq!(skew.len(), 1);
        assert_eq!(skew[0].max_ns, 700);
        assert_eq!(skew[0].median_ns, 700); // upper median of [300, 700]
        assert_eq!(skew[0].slowest_machine, 1);
        let report = straggler_report(&d);
        assert!(report.contains("compute-skew report"));
    }

    #[test]
    fn straggler_report_exports_ps_wait_p99() {
        let mut d = sample_dump();
        assert!(!straggler_report(&d).contains("ps wait"));
        // 9 zero-gap serves and one ~1ms gap: the p99 bound lands at the
        // top of the 2^20 ns bucket (1.049 ms).
        let mut buckets = vec![0u64; 21];
        buckets[0] = 9;
        buckets[20] = 1;
        d.histograms.push((
            "ps.wait_ns".to_string(),
            crate::HistogramSnapshot {
                count: 10,
                sum: 1_000_000,
                buckets,
            },
        ));
        let report = straggler_report(&d);
        assert!(report.contains("ps wait"), "{report}");
        assert!(report.contains("p99 <= 1.049 ms"), "{report}");
    }

    #[test]
    fn compute_skew_takes_busiest_lane_per_machine() {
        let mut d = TraceDump::default();
        // Machine 0: two parallel workers, lane 1 busier.
        d.records
            .push(rec(SpanCat::Phase, "phase.forward", 0, 0, 0, 100, 0, 0));
        d.records
            .push(rec(SpanCat::Phase, "phase.forward", 0, 1, 0, 250, 0, 0));
        d.records
            .push(rec(SpanCat::Phase, "phase.straggle", 0, 1, 250, 50, 0, 0));
        d.records
            .push(rec(SpanCat::Phase, "phase.forward", 1, 0, 0, 150, 0, 0));
        let skew = compute_skew_stats(&d);
        assert_eq!(skew[0].max_ns, 300);
        assert_eq!(skew[0].slowest_machine, 0);
    }

    #[test]
    fn flows_pair_and_export() {
        let mut d = sample_dump();
        let mut start = rec(SpanCat::Ps, "ps.push_req", 0, 1, 100, 50, 0, 0);
        start.flow = FlowPoint::Start(0xabc);
        let mut finish = rec(SpanCat::Ps, "ps.serve.push_dense", 1, 9, 140, 30, 0, 0);
        finish.flow = FlowPoint::Finish(0xabc);
        d.records.push(start);
        d.records.push(finish);
        assert_eq!(check_flows(&d), Ok(1));
        let json = chrome_trace(&d);
        json::parse(&json).expect("chrome trace with flows must be valid JSON");
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""));
        assert!(json.contains(&format!("\"id\":{}", 0xabc)));
    }

    #[test]
    fn check_flows_rejects_unpaired() {
        let mut d = TraceDump::default();
        let mut orphan = rec(SpanCat::Ps, "ps.push_req", 0, 1, 0, 10, 0, 0);
        orphan.flow = FlowPoint::Start(7);
        d.records.push(orphan.clone());
        assert!(check_flows(&d).is_err());
        // A duplicate start is also rejected.
        let mut finish = orphan.clone();
        finish.flow = FlowPoint::Finish(7);
        d.records.push(finish);
        assert_eq!(check_flows(&d), Ok(1));
        d.records.push(orphan);
        assert!(check_flows(&d).is_err());
    }
}
