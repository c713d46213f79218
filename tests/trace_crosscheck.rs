//! The tracer's byte accounting against the traffic accountant's, over
//! a full hybrid run: every inter-machine send recorded by
//! `TrafficStats` must also be visible in span byte attributions, so
//! `TraceDump::total_span_bytes()` equals the run report's
//! `total_network_bytes()` exactly.
//!
//! This test lives in its own binary: the tracer is process-global, and
//! sharing it with unrelated concurrent tests would mix their spans
//! into this dump.

use parallax_repro::core::sparsity::estimate_profile;
use parallax_repro::core::{get_runner, ParallaxConfig};
use parallax_repro::models::data::ZipfCorpus;
use parallax_repro::models::lm::{LmConfig, LmModel};
use parallax_repro::tensor::DetRng;
use parallax_repro::trace::{self, export, SpanCat, TraceConfig};

const MACHINES: usize = 2;
const GPUS: usize = 2;
const WORKERS: usize = MACHINES * GPUS;

#[test]
fn hybrid_run_span_bytes_match_traffic_accountant() {
    trace::configure(TraceConfig::on());
    trace::reset();

    let model = LmModel::build(LmConfig::tiny()).unwrap();
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = {
        let feed = model.feed(&corpus, &mut DetRng::seed(42));
        estimate_profile(&model.built.graph, &[feed], 1).unwrap()
    };
    // The default config is the full hybrid: dense variables over the
    // AllReduce ring, sparse ones over PS with local aggregation and
    // chief-triggered updates — every transport class gets exercised.
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![GPUS; MACHINES],
        ParallaxConfig::default(),
        profile,
    )
    .unwrap();
    let m = &model;
    let c = &corpus;
    let report = runner
        .run(3, move |w, i| {
            m.sharded_feed(c, WORKERS, w, &mut DetRng::seed(70 + i as u64))
        })
        .unwrap();

    trace::disable();
    let dump = trace::drain();

    // The cross-check itself: one byte total, two accountants.
    assert!(report.traffic.total_network_bytes() > 0, "run moved bytes");
    assert_eq!(
        dump.total_span_bytes(),
        report.traffic.total_network_bytes(),
        "span-attributed bytes diverged from the traffic accountant \
         (unattributed spill: {})",
        dump.unattributed_net_bytes,
    );

    // The run produced a full timeline: compute ops, collective steps,
    // PS requests, and the runner's phase markers, on every machine.
    for cat in [
        SpanCat::Compute,
        SpanCat::Collective,
        SpanCat::Ps,
        SpanCat::Phase,
    ] {
        assert!(
            dump.records.iter().any(|r| r.cat == cat),
            "no {cat:?} spans recorded"
        );
    }
    for machine in 0..MACHINES as u32 {
        assert!(
            dump.records.iter().any(|r| r.machine == machine),
            "machine {machine} recorded no spans"
        );
    }
    let stats = export::straggler_stats(&dump);
    assert_eq!(stats.len(), 3, "one straggler row per iteration");
    assert!(stats.iter().all(|s| s.max_ns >= s.median_ns));

    // And the exporters accept it.
    trace::json::parse(&export::chrome_trace(&dump)).unwrap();
    trace::json::parse(&export::summary_json(&dump)).unwrap();
}
