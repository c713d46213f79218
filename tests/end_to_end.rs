//! Cross-crate integration tests through the umbrella crate: full models
//! from `parallax-models`, transformed and executed by `parallax-core`
//! over the `parallax-ps`/`parallax-comm` substrates.

use parallax_repro::cluster::ClusterModel;
use parallax_repro::core::sparsity::estimate_profile;
use parallax_repro::core::{get_runner, Exchange, ParallaxConfig};
use parallax_repro::dataflow::Session;
use parallax_repro::models::data::{ImageDataset, ZipfCorpus};
use parallax_repro::models::lm::{LmConfig, LmModel};
use parallax_repro::models::metrics;
use parallax_repro::models::nmt::{NmtConfig, NmtModel};
use parallax_repro::models::resnet;
use parallax_repro::tensor::DetRng;

const MACHINES: usize = 2;
const GPUS: usize = 2;
const WORKERS: usize = MACHINES * GPUS;

/// All three frameworks run the same synchronous SGD, so training the
/// same LM under each must produce identical losses and final models.
#[test]
fn frameworks_are_semantically_identical_on_lm() {
    let model = LmModel::build(LmConfig::tiny()).unwrap();
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = {
        let feed = model.feed(&corpus, &mut DetRng::seed(42));
        estimate_profile(&model.built.graph, &[feed], 1).unwrap()
    };

    let mut finals = Vec::new();
    let mut losses = Vec::new();
    for config in [
        ParallaxConfig::default(),
        ParallaxConfig::tf_ps_baseline(),
        ParallaxConfig::horovod_baseline(),
        ParallaxConfig::opt_ps(),
    ] {
        let runner = get_runner(
            model.built.graph.clone(),
            model.built.loss,
            vec![GPUS; MACHINES],
            ParallaxConfig {
                learning_rate: 0.3,
                seed: 9,
                ..config
            },
            profile.clone(),
        )
        .unwrap();
        let m = &model;
        let c = &corpus;
        let report = runner
            .run(5, move |w, i| {
                m.sharded_feed(c, WORKERS, w, &mut DetRng::seed(70 + i as u64))
            })
            .unwrap();
        finals.push(report.final_store(&model.built.graph).unwrap());
        losses.push(report.losses.clone());
    }
    for i in 1..finals.len() {
        let div = finals[0].max_divergence(&finals[i]);
        assert!(div < 1e-4, "framework {i} final model diverged by {div}");
        for (a, b) in losses[0].iter().zip(&losses[i]) {
            assert!((a - b).abs() < 1e-4, "loss curves diverged: {a} vs {b}");
        }
    }
}

#[test]
fn lm_perplexity_improves_and_model_is_reusable() {
    let model = LmModel::build(LmConfig::tiny()).unwrap();
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let fixed = model.feed(&corpus, &mut DetRng::seed(5));
    let profile = estimate_profile(&model.built.graph, std::slice::from_ref(&fixed), 1).unwrap();
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![GPUS; MACHINES],
        ParallaxConfig {
            learning_rate: 0.8,
            seed: 2,
            ..ParallaxConfig::default()
        },
        profile,
    )
    .unwrap();
    // Train every worker on the same fixed batch so the objective is
    // stationary and perplexity must fall.
    let m = &model;
    let c = &corpus;
    let report = runner
        .run(25, move |_w, _iter| {
            // Every worker trains on the same fixed batch.
            m.feed(c, &mut DetRng::seed(5))
        })
        .unwrap();
    let first = metrics::perplexity(report.losses[0]);
    let last = metrics::perplexity(*report.losses.last().unwrap());
    assert!(last < first * 0.8, "perplexity {first} -> {last}");

    // The returned model evaluates identically through a local session.
    let mut store = report.final_store(&model.built.graph).unwrap();
    let acts = Session::new(&model.built.graph)
        .forward(&fixed, &mut store)
        .unwrap();
    let eval_loss = acts.scalar(model.built.loss).unwrap();
    assert!(eval_loss.is_finite());
}

#[test]
fn nmt_hybrid_plan_splits_variables_correctly() {
    let model = NmtModel::build(NmtConfig::tiny()).unwrap();
    let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
    let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
    let profile = {
        let feed = model.feed(&src, &tgt, &mut DetRng::seed(42));
        estimate_profile(&model.built.graph, &[feed], 1).unwrap()
    };
    let runner = get_runner(
        model.built.graph.clone(),
        model.built.loss,
        vec![GPUS; MACHINES],
        ParallaxConfig::default(),
        profile,
    )
    .unwrap();
    let plan = runner.plan();
    // Exactly the two embeddings are PS-hosted; everything else rides
    // AllReduce.
    let ps = plan.ps_vars();
    assert_eq!(ps.len(), 2);
    assert!(ps.contains(&model.emb_enc));
    assert!(ps.contains(&model.emb_dec));
    assert_eq!(
        plan.ar_vars().len(),
        model.built.graph.variables().len() - 2,
    );
    // And the hybrid uses no AllGatherv: every AllReduce variable rides
    // the ring.
    let graph = &model.built.graph;
    assert!(plan
        .ar_vars()
        .into_iter()
        .all(|v| plan.exchange(graph, runner.config(), v) == Exchange::Ring));
}

#[test]
fn sparse_model_hybrid_moves_fewer_bytes_than_tf_ps() {
    // The headline mechanism: on a sparse model the hybrid architecture
    // (with local aggregation) moves fewer network bytes per iteration
    // than the naive PS.
    let model = LmModel::build(LmConfig::tiny()).unwrap();
    let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
    let profile = {
        let feed = model.feed(&corpus, &mut DetRng::seed(42));
        estimate_profile(&model.built.graph, &[feed], 1).unwrap()
    };
    let run = |config: ParallaxConfig| {
        let runner = get_runner(
            model.built.graph.clone(),
            model.built.loss,
            vec![GPUS; MACHINES],
            ParallaxConfig { seed: 3, ..config },
            profile.clone(),
        )
        .unwrap();
        let m = &model;
        let c = &corpus;
        runner
            .run(4, move |w, i| {
                m.sharded_feed(c, WORKERS, w, &mut DetRng::seed(i as u64))
            })
            .unwrap()
    };
    let hybrid = run(ParallaxConfig::default());
    let tf_ps = run(ParallaxConfig::tf_ps_baseline());
    assert!(
        hybrid.traffic.total_network_bytes() < tf_ps.traffic.total_network_bytes(),
        "hybrid {} vs tf-ps {}",
        hybrid.traffic.total_network_bytes(),
        tf_ps.traffic.total_network_bytes(),
    );
}

#[test]
fn dense_model_simulated_time_prefers_allreduce() {
    // Executed traffic + the cluster model reproduce the dense-model
    // story: Horovod's ring beats the PS for ResNet-like models.
    let config = resnet::ResNetConfig::tiny();
    let model = resnet::build(config).unwrap();
    let ds = ImageDataset::new(config.features, config.classes);
    let profile = {
        let feed = ds.feed(4, &mut DetRng::seed(1));
        estimate_profile(&model.graph, &[feed], 1).unwrap()
    };
    let cluster = ClusterModel::paper_testbed();
    let mut times = Vec::new();
    for config_fw in [
        ParallaxConfig::horovod_baseline(),
        ParallaxConfig::tf_ps_baseline(),
    ] {
        let runner = get_runner(
            model.graph.clone(),
            model.loss,
            vec![GPUS; MACHINES],
            ParallaxConfig {
                seed: 4,
                ..config_fw
            },
            profile.clone(),
        )
        .unwrap();
        let ds_ref = &ds;
        let report = runner
            .run(4, move |w, i| {
                ds_ref.feed(4, &mut DetRng::seed((w * 100 + i) as u64))
            })
            .unwrap();
        // Identical compute for both; only communication differs.
        times.push(report.simulated_iteration_time(&cluster, MACHINES, 0.01, 0.0));
    }
    assert!(
        times[0] < times[1],
        "AllReduce {} should beat PS {} on a dense model",
        times[0],
        times[1],
    );
}
