//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <lm-ps|lm-ps-tcp|dense-ar|lm-serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output carries a provenance line and, last, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! readable table of everything measured goes to standard error.

use std::process::ExitCode;

use perfbench::{complete, Budget, Metric, Outcome, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <lm-ps|lm-ps-tcp|dense-ar|lm-serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Debug builds install the protocol validator on every endpoint and
    // run unoptimised kernels: a different program from the one users run.
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure an unoptimised build; use --release");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_rev\": {}, \"rustc\": {}, \"profile\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_rev()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
    );

    let mut outcome = perfbench::run(
        args.workload,
        args.seed,
        Budget {
            seconds: args.seconds,
            trace: args.trace,
        },
    );
    let mut end_to_end = complete(&END_TO_END, &outcome.end_to_end);
    let mut per_layer = complete(&PER_LAYER, &outcome.per_layer);
    for m in end_to_end.iter_mut().chain(per_layer.iter_mut()) {
        if !m.value.is_finite() {
            outcome.problem(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }

    eprintln!(
        "{} (seed {}, nproc {nproc})",
        args.workload.name(),
        args.seed
    );
    let shown = if args.trace {
        end_to_end.iter().chain(&per_layer).collect::<Vec<_>>()
    } else {
        end_to_end.iter().collect()
    };
    for m in shown {
        eprintln!("  {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    for p in &outcome.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    let metrics = if args.trace { &per_layer } else { &end_to_end };
    println!("{}", result_line(&outcome, metrics));
    ExitCode::SUCCESS
}
