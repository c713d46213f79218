//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [table1|..|table6|fig7|fig8|fig9|ablations|traffic|kernels|all]
//! repro check [--model lm|nmt]
//! repro plan [--model lm|nmt] [--calibrate TRACE.cal.json]
//! repro trace [--model lm|nmt] [--iters N]
//! repro trace-overhead
//! repro straggler [--model lm|nmt] [--machines N] [--iters N] [--factors 1,2,3]
//! repro chaos [--scenarios name,name,...]
//! repro compress
//! repro serve-bench [--model lm|nmt]
//! repro dist --role chief|worker|server --index N --spec CLUSTER.json
//! repro dist --launch --spec CLUSTER.json
//! repro dist-check
//! ```
//!
//! `check` runs the static plan verifier (graph passes, distributed-plan
//! passes, traffic prediction) against a model preset, cross-validates
//! the prediction on one executed iteration, and exits nonzero if any
//! pass reports an error. It is excluded from `all` (it is a
//! verification gate, not a paper figure).
//!
//! `plan` runs the deterministic placement-strategy search: scores the
//! five fixed strategies plus a greedy per-variable search, prints the
//! decision table, writes `PLAN_<model>.json`, and exits nonzero if the
//! searched plan is predicted slower than any fixed strategy.
//! `--calibrate` refines the timing model with a `repro trace` profile.
//! Excluded from `all` (a gate, like `check`).
//!
//! `kernels` measures the blocked/pooled compute kernels against the
//! scalar reference kernels and writes `BENCH_kernels.json`.
//!
//! `trace` executes a short traced run and writes
//! `TRACE_<model>.chrome.json` (open in chrome://tracing or Perfetto)
//! plus a `TRACE_<model>.json` summary; `trace-overhead` measures the
//! disabled tracer's cost on the kernel path and writes
//! `BENCH_trace_overhead.json`. Both are excluded from `all` (they are
//! observability artifacts, not paper figures).
//!
//! `straggler` runs the sim-vs-measured conformance suite: a calibrated
//! `IterationSim` must predict the compute-skew ratio and mean PS wait
//! of runs with real injected slowdowns within documented bands; exits
//! nonzero on any band violation. Excluded from `all` (a gate, like
//! `check`).
//!
//! `chaos` sweeps deterministic fault plans (kills, drops, delays,
//! duplicates, stalls) over short checkpointed lm runs and exits nonzero
//! if any scenario hangs, fails to recover, diverges from the unfaulted
//! reference, or breaks the exact trace/traffic byte crosscheck.
//! Excluded from `all` (a gate, like `check`).
//!
//! `compress` measures the wire codecs (f16/bf16 dense payloads on
//! executed runs, delta+varint sparse indices), writes
//! `BENCH_compression.json`, and exits nonzero if any byte-reduction or
//! predicted-vs-measured byte gate fails. Excluded from `all` (a gate,
//! like `check`).
//!
//! `serve-bench` trains a tiny model with snapshot publishing, times
//! the zero-copy snapshot load, checks served outputs bitwise against
//! a training-graph forward pass, measures serving QPS and p50/p99
//! latency, and writes `BENCH_serving.json`; exits nonzero if the
//! load-time or bitwise gate fails. Excluded from `all` (a gate, like
//! `check`).
//!
//! `dist` runs one role of a multi-process socket cluster described by
//! a `CLUSTER.json` spec (normally spawned by the launcher, one process
//! per role over `parallax-net`'s TCP mesh); `dist --launch` spawns the
//! whole fleet locally and prints the merged run. `dist-check` is the
//! equivalence gate: for both presets it runs the same seed and plan
//! in-process and over sockets and exits nonzero unless losses and
//! final weights are bitwise identical and per-class traffic is
//! byte-identical (predicted == traced == measured). Excluded from
//! `all` (a gate, like `check`).

use parallax_bench::experiments::{self, Framework};
use parallax_bench::report::{fmt_speedup, fmt_throughput, render_table};

/// Subcommands `repro` accepts; anything else prints usage and exits 2.
const KNOWN: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig7",
    "fig8",
    "fig9",
    "ablations",
    "traffic",
    "kernels",
    "check",
    "plan",
    "protocheck",
    "trace",
    "trace-overhead",
    "straggler",
    "chaos",
    "compress",
    "serve-bench",
    "dist",
    "dist-check",
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if !KNOWN.contains(&which.as_str()) {
        eprintln!("repro: unknown subcommand `{which}`");
        eprintln!("usage: repro [{}]", KNOWN.join("|"));
        eprintln!("       repro check [--model lm|nmt]");
        eprintln!("       repro plan [--model lm|nmt] [--calibrate TRACE.cal.json]");
        eprintln!("       repro protocheck [--model lm|nmt]");
        eprintln!("       repro trace [--model lm|nmt] [--iters N]");
        eprintln!("       repro trace-overhead");
        eprintln!(
            "       repro straggler [--model lm|nmt] [--machines N] [--iters N] [--factors 1,2,3]"
        );
        eprintln!("       repro chaos [--scenarios name,name,...]");
        eprintln!("       repro compress");
        eprintln!("       repro serve-bench [--model lm|nmt]");
        eprintln!("       repro dist --role chief|worker|server --index N --spec CLUSTER.json");
        eprintln!("       repro dist --launch --spec CLUSTER.json");
        eprintln!("       repro dist-check");
        std::process::exit(2);
    }
    let all = which == "all";
    if all || which == "table1" {
        table1();
    }
    if all || which == "table2" {
        table2();
    }
    if all || which == "table3" {
        table3();
    }
    if all || which == "table4" {
        table4();
    }
    if all || which == "table5" {
        table5();
    }
    if all || which == "table6" {
        table6();
    }
    if all || which == "fig7" {
        fig7();
    }
    if all || which == "fig8" {
        fig8();
    }
    if all || which == "fig9" {
        fig9();
    }
    if all || which == "ablations" {
        ablations();
    }
    if all || which == "traffic" {
        traffic();
    }
    if all || which == "kernels" {
        parallax_bench::kernels::run("BENCH_kernels.json").expect("write BENCH_kernels.json");
    }
    let model = || flag_value("--model").unwrap_or_else(|| "lm".to_string());
    if which == "check" {
        finish("check", parallax_bench::check::run(&model()));
    }
    if which == "plan" {
        let calibrate = flag_value("--calibrate");
        finish(
            "plan",
            parallax_bench::plan::run(&model(), calibrate.as_deref(), ""),
        );
    }
    if which == "protocheck" {
        finish("protocheck", parallax_bench::protocheck::run(&model()));
    }
    if which == "trace" {
        let iters: usize = flag_value("--iters")
            .and_then(|s| s.parse().ok())
            .unwrap_or(6);
        finish(
            "trace",
            parallax_bench::trace::run(&model(), iters, "").map(|report| (report, true)),
        );
    }
    if which == "trace-overhead" {
        parallax_bench::trace::run_overhead("BENCH_trace_overhead.json")
            .expect("write BENCH_trace_overhead.json");
    }
    if which == "straggler" {
        let machines: usize = flag_value("--machines")
            .and_then(|s| s.parse().ok())
            .unwrap_or(parallax_bench::straggler::MACHINES);
        let iters: usize = flag_value("--iters")
            .and_then(|s| s.parse().ok())
            .unwrap_or(3);
        let factors: Vec<f64> = flag_value("--factors")
            .unwrap_or_else(|| "1,2,3".to_string())
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        finish(
            "straggler",
            parallax_bench::straggler::run(&model(), machines, &factors, iters),
        );
    }
    if which == "compress" {
        finish(
            "compress",
            parallax_bench::compress::run("BENCH_compression.json"),
        );
    }
    if which == "serve-bench" {
        let model = flag_value("--model");
        finish(
            "serve-bench",
            parallax_bench::serve::run(model.as_deref(), "BENCH_serving.json"),
        );
    }
    if which == "chaos" {
        let only: Vec<String> = flag_value("--scenarios")
            .unwrap_or_default()
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        finish("chaos", parallax_bench::chaos::run(&only));
    }
    if which == "dist" {
        dist();
    }
    if which == "dist-check" {
        let exe = std::env::current_exe().expect("current_exe");
        finish("dist-check", Ok(parallax_bench::dist::run(&exe)));
    }
}

/// Prints a gate's report and exits nonzero when the gate failed, or
/// prints why it could not run (an unknown preset, say) and exits 1.
fn finish(gate: &str, result: Result<(String, bool), String>) {
    match result {
        Ok((report, ok)) => {
            print!("{report}");
            if !ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("repro {gate}: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro dist`: one role of a socket cluster (or, with `--launch`,
/// the whole local fleet).
fn dist() {
    let usage = || {
        eprintln!("usage: repro dist --role chief|worker|server --index N --spec CLUSTER.json");
        eprintln!("       repro dist --launch --spec CLUSTER.json");
        std::process::exit(2);
    };
    let spec_path = match flag_value("--spec") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            eprintln!("repro dist: --spec CLUSTER.json is required");
            usage();
            unreachable!()
        }
    };
    if std::env::args().any(|a| a == "--launch") {
        let text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
            eprintln!("repro dist: read {}: {e}", spec_path.display());
            std::process::exit(1);
        });
        let mut spec = parallax_net::ClusterSpec::from_json(&text).unwrap_or_else(|e| {
            eprintln!("repro dist: {e}");
            std::process::exit(1);
        });
        let exe = std::env::current_exe().expect("current_exe");
        match parallax_bench::dist::launch(
            &exe,
            &mut spec,
            parallax_bench::dist::GENERATION_DEADLINE,
        ) {
            Ok(merged) => {
                println!(
                    "dist: {} iterations over {} process(es), {} generation(s)",
                    merged.losses.len(),
                    spec.num_endpoints(),
                    merged.failed_roles.len() + 1
                );
                println!(
                    "dist: final loss {:.6}, network traffic {} B (traced {} B)",
                    merged.losses.last().copied().unwrap_or(0.0),
                    merged.traffic.total_network_bytes(),
                    merged.traced_span_bytes
                );
            }
            Err(e) => {
                eprintln!("repro dist: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let role_name = match flag_value("--role") {
        Some(r) => r,
        None => {
            eprintln!("repro dist: --role is required (or pass --launch)");
            usage();
            unreachable!()
        }
    };
    let index: usize = flag_value("--index")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let role = match parallax_net::Role::parse(&role_name, index) {
        Some(role) => role,
        None => {
            eprintln!("repro dist: unknown role `{role_name}` (known: chief, worker, server)");
            usage();
            unreachable!()
        }
    };
    if let Err(e) = parallax_bench::dist::role_main(&spec_path, role) {
        eprintln!("repro dist [{role}]: {}", e.message);
        std::process::exit(e.code);
    }
}

/// The value following `name` in the argument list, if any.
fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn traffic() {
    println!("== Measured per-link traffic (bytes/iter, executed LM on 4 machines) ==");
    for (fw, matrix, imbalance) in experiments::traffic_matrices() {
        println!("{} (imbalance {imbalance:.2}):", fw.name());
        for (src, row) in matrix.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|b| format!("{b:>7}")).collect();
            println!("  m{src} -> [{}]", cells.join(" "));
        }
    }
    println!();
}

fn ablations() {
    let rows: Vec<Vec<String>> = experiments::ablations()
        .into_iter()
        .map(|r| vec![r.label, fmt_throughput(r.lm), fmt_throughput(r.nmt)])
        .collect();
    print!(
        "{}",
        render_table(
            "Ablation: Parallax optimizations removed one at a time (words/sec, 48 GPUs)",
            &["configuration", "LM", "NMT"],
            &rows,
        )
    );
    let sweep: Vec<Vec<String>> = experiments::alpha_threshold_sweep()
        .into_iter()
        .map(|(t, tput)| vec![format!("{t:.2}"), fmt_throughput(tput)])
        .collect();
    print!(
        "{}",
        render_table(
            "Ablation: hybrid alpha threshold on an alpha~0.9 workload",
            &["threshold", "throughput"],
            &sweep,
        )
    );
    println!();
}

fn table1() {
    let rows: Vec<Vec<String>> = experiments::table1()
        .into_iter()
        .map(|r| {
            vec![
                r.model,
                format!("{:.1}M", r.dense / 1e6),
                format!("{:.1}M", r.sparse.max(0.0) / 1e6),
                format!("{:.2}", r.alpha_model),
                fmt_throughput(r.ps),
                fmt_throughput(r.ar),
                r.unit.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 1: model sizes, alpha_model, PS vs AR throughput (48 GPUs)",
            &["model", "dense", "sparse", "alpha", "PS", "AR", "unit"],
            &rows,
        )
    );
    println!(
        "paper: ResNet-50 5.8k/7.6k, Inception-v3 3.8k/5.9k, LM 98.9k/45.5k, NMT 102k/68.3k\n"
    );
}

fn table2() {
    let data = experiments::table2();
    let partitions: Vec<String> = data[0].1.iter().map(|(p, _)| p.to_string()).collect();
    let mut header = vec!["model".to_string()];
    header.extend(partitions);
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|(model, series)| {
            let mut row = vec![model];
            row.extend(series.into_iter().map(|(_, t)| fmt_throughput(t)));
            row
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 2: PS throughput (words/sec) vs sparse partition count",
            &header_refs,
            &rows,
        )
    );
    println!("paper LM:  50.5k 78.6k 96.5k 96.1k 98.9k 93.2k");
    println!("paper NMT: 90.7k 97.0k 96.5k 101.6k 98.5k 100.0k\n");
}

fn table3() {
    let rows: Vec<Vec<String>> = experiments::table3()
        .into_iter()
        .map(|r| {
            vec![
                r.kind.to_string(),
                r.arch.to_string(),
                r.one_var.to_string(),
                r.m_vars.to_string(),
                format!("{:.1}MB", r.example_bytes / 1e6),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 3: per-machine network transfer (w=4MB, alpha=0.01, N=8)",
            &["type", "arch", "one variable", "m variables", "example"],
            &rows,
        )
    );
    let measured: Vec<Vec<String>> = experiments::table3_measured()
        .into_iter()
        .map(|(label, formula, measured)| {
            vec![
                label,
                format!("{formula:.0}"),
                format!("{measured:.0}"),
                format!("{:.3}", measured / formula),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 3 check: measured bytes from executed runs vs formulas",
            &["case", "formula B/iter", "measured B/iter", "ratio"],
            &measured,
        )
    );
    println!("(ratios slightly above 1.0 reflect request headers/ids the formulas neglect)\n");
}

fn table4() {
    let rows: Vec<Vec<String>> = experiments::table4()
        .into_iter()
        .map(|(model, ar, naive, opt, hyb)| {
            vec![
                model,
                fmt_throughput(ar),
                fmt_throughput(naive),
                fmt_throughput(opt),
                fmt_throughput(hyb),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 4: architecture ablation, words/sec (48 GPUs)",
            &["model", "AR", "NaivePS", "OptPS", "HYB"],
            &rows,
        )
    );
    println!("paper LM:  45.5k 98.9k 250k 274k");
    println!("paper NMT: 68.3k 102k 116k 204k\n");
}

fn table5() {
    let rows: Vec<Vec<String>> = experiments::table5()
        .into_iter()
        .map(|r| {
            vec![
                r.model,
                fmt_throughput(r.parallax),
                fmt_throughput(r.min),
                fmt_throughput(r.optimal),
                format!("P={}", r.parallax_p),
                format!("{} vs {}", r.parallax_runs, r.brute_runs),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 5: partitioning methods, words/sec (48 GPUs)",
            &[
                "model",
                "Parallax",
                "Min",
                "Optimal",
                "chosen",
                "runs (search vs brute)"
            ],
            &rows,
        )
    );
    println!("paper LM:  274k 96.5k 260.3k; NMT: 204k 124.1k 208k\n");
}

fn table6() {
    let rows: Vec<Vec<String>> = experiments::table6()
        .into_iter()
        .map(|r| {
            vec![
                r.length.to_string(),
                format!("{:.2}", r.alpha_model),
                fmt_throughput(r.parallax),
                fmt_throughput(r.tf_ps),
                fmt_speedup(r.speedup()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Table 6: throughput vs sparsity degree (constructed LM, 48 GPUs)",
            &["length", "alpha", "Parallax", "TF-PS", "speedup"],
            &rows,
        )
    );
    println!("paper speedups: 2.04x 2.33x 2.43x 2.89x 3.02x 3.03x 3.42x\n");
}

fn fig7() {
    println!("== Figure 7: convergence (executed at reduced scale) ==");
    for result in experiments::fig7(60) {
        let start = result.curve.first().copied().unwrap_or(0.0);
        let end = result.curve.last().copied().unwrap_or(0.0);
        println!(
            "{}: {} {:.3} -> {:.3} over {} iterations{}",
            result.model,
            result.metric,
            start,
            end,
            result.curve.len(),
            result
                .final_bleu
                .map(|b| format!(", final greedy BLEU {b:.3}"))
                .unwrap_or_default(),
        );
        for fw in [Framework::Parallax, Framework::TfPs, Framework::Horovod] {
            if let Some(t) = result.time_to_target(fw) {
                println!(
                    "  time to target ({}) = {:.1}s at paper scale",
                    fw.name(),
                    t
                );
            }
        }
        if let (Some(p), Some(t), Some(h)) = (
            result.time_to_target(Framework::Parallax),
            result.time_to_target(Framework::TfPs),
            result.time_to_target(Framework::Horovod),
        ) {
            println!(
                "  speedup vs TF-PS {:.2}x, vs Horovod {:.2}x (paper LM: 2.6x / 5.9x)",
                t / p,
                h / p
            );
        }
    }
    println!();
}

fn fig8() {
    let data = experiments::fig8();
    for model in ["ResNet-50", "Inception-v3", "LM", "NMT"] {
        let mut rows = Vec::new();
        for machines in [1usize, 2, 4, 8] {
            let mut row = vec![format!("{machines} machines")];
            for fw in [Framework::TfPs, Framework::Horovod, Framework::Parallax] {
                let t = data
                    .iter()
                    .find(|(m, n, f, _)| m == model && *n == machines && *f == fw)
                    .map(|&(_, _, _, t)| t)
                    .unwrap_or(0.0);
                row.push(fmt_throughput(t));
            }
            rows.push(row);
        }
        print!(
            "{}",
            render_table(
                &format!("Figure 8: {model} throughput vs machines (6 GPUs each)"),
                &["scale", "TF-PS", "Horovod", "Parallax"],
                &rows,
            )
        );
    }
    println!(
        "paper at 8 machines: ResNet 5.8k/7.6k/7.6k, LM 98.9k/45.5k/274k, NMT 102k/68.3k/204k\n"
    );
}

fn fig9() {
    let data = experiments::fig9();
    for model in ["ResNet-50", "Inception-v3", "LM", "NMT"] {
        let mut rows = Vec::new();
        for gpus in [6usize, 12, 24, 48] {
            let mut row = vec![format!("{gpus} GPUs")];
            for fw in [Framework::Parallax, Framework::TfPs, Framework::Horovod] {
                let n = data
                    .iter()
                    .find(|(m, g, f, _)| m == model && *g == gpus && *f == fw)
                    .map(|&(_, _, _, n)| n)
                    .unwrap_or(0.0);
                row.push(format!("{n:.1}"));
            }
            rows.push(row);
        }
        print!(
            "{}",
            render_table(
                &format!("Figure 9: {model} normalized throughput (vs 1 GPU)"),
                &["scale", "Parallax", "TF-PS", "Horovod"],
                &rows,
            )
        );
    }
    // Scaling efficiency = normalized throughput / GPU count; the paper's
    // introduction quotes 19.0% (NMT) and 7.0% (LM) for TensorFlow at 48.
    for model in ["LM", "NMT"] {
        for fw in [Framework::Parallax, Framework::TfPs] {
            if let Some(&(_, _, _, n)) = data
                .iter()
                .find(|(m, g, f, _)| m == model && *g == 48 && *f == fw)
            {
                println!(
                    "scaling efficiency at 48 GPUs, {model} / {}: {:.1}%",
                    fw.name(),
                    n / 48.0 * 100.0
                );
            }
        }
    }
    println!("paper at 48 GPUs (Parallax): ResNet 39.8, Inception 43.6, LM 9.4, NMT 18.4");
    println!("paper at 48 GPUs (TF-PS):    30.4, 28.6, 3.4, 9.1");
    println!("paper at 48 GPUs (Horovod):  39.8, 44.4, 1.6, 6.1\n");
}
