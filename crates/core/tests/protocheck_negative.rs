//! Negative-path coverage for the protocol session checker: every
//! seeded protocol defect must surface as its documented `C...`
//! diagnostic code — never as a panic, and never silently.
//!
//! Defects are seeded into otherwise-valid derived sessions using the
//! `#[doc(hidden)]` tamper accessors on
//! [`parallax_comm::protocheck::SessionSpec`], mirroring the plan
//! tamper constructors exercised by `plancheck_negative.rs`.

use parallax_comm::protocheck::{MsgEvent, Phase, SessionSpec, WireKind};
use parallax_comm::tag::{ReqKind, MAX_VARS};
use parallax_core::sparsity::{profile_from_parts, SparsityProfile};
use parallax_core::transform::{transform, DistributedPlan};
use parallax_core::{check_fault_plan, check_session, derive_session, ParallaxConfig};
use parallax_dataflow::graph::{Init, Op, PhKind};
use parallax_dataflow::verify::DiagCode;
use parallax_dataflow::{Graph, NodeId, VariableDef};
use parallax_fault::{FaultAction, FaultPlan};
use parallax_ps::PsTopology;

const MACHINES: usize = 2;
const GPUS: usize = 2;

fn model() -> (Graph, NodeId, SparsityProfile) {
    let mut g = Graph::new();
    let emb = g
        .variable(VariableDef::new("emb", [12, 4], Init::Glorot))
        .unwrap();
    let w = g
        .variable(VariableDef::new("w", [4, 2], Init::Glorot))
        .unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let gathered = g.add(Op::Gather { table: emb, ids }).unwrap();
    let wn = g.add(Op::Variable(w)).unwrap();
    let h = g.add(Op::MatMul(gathered, wn)).unwrap();
    let loss = g.add(Op::MeanAll(h)).unwrap();
    let profile = profile_from_parts(vec![(emb, true, 0.25, 12, 48), (w, false, 1.0, 4, 8)]);
    (g, loss, profile)
}

/// A hybrid session with checkpointing enabled, so every phase —
/// including the boundary publish — has events to tamper with.
fn session() -> (
    Graph,
    ParallaxConfig,
    PsTopology,
    DistributedPlan,
    SessionSpec,
) {
    let (g, _loss, profile) = model();
    let config = ParallaxConfig {
        checkpoint_path: Some(std::path::PathBuf::from("/tmp/protocheck-neg.ckpt")),
        checkpoint_interval: 2,
        ..ParallaxConfig::default()
    };
    let topo = PsTopology::uniform(MACHINES, GPUS).unwrap();
    let plan = transform(&g, &profile, &config, MACHINES, MACHINES * GPUS, 2).unwrap();
    let spec = derive_session(&g, &config, &topo, &plan).unwrap();
    (g, config, topo, plan, spec)
}

fn find_event(spec: &SessionSpec, kind: WireKind) -> usize {
    spec.events()
        .iter()
        .position(|e| e.kind == kind)
        .unwrap_or_else(|| panic!("derived session has no {kind:?} event"))
}

#[test]
fn untampered_session_is_clean() {
    let (g, config, topo, plan, spec) = session();
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn skewed_multiplicity_is_c001() {
    let (g, config, topo, plan, mut spec) = session();
    // The sender fires twice per iteration; the receiver still counts
    // one message into its barrier.
    let idx = find_event(&spec, WireKind::Request(ReqKind::PushSparse));
    spec.events_mut()[idx].sends = 2;
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C001), "{}", report.render());
}

#[test]
fn missing_request_kind_is_c001() {
    let (g, config, topo, plan, mut spec) = session();
    // Drop every chief trigger: the servers still gate the update on a
    // ChiefUpdate that never arrives.
    spec.events_mut()
        .retain(|e| e.kind != WireKind::Request(ReqKind::ChiefUpdate));
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C001), "{}", report.render());
}

#[test]
fn mispaired_fetch_shard_reply_is_c002() {
    let (g, config, topo, plan, mut spec) = session();
    // Re-address the FetchShard reply to a non-chief worker: the chief
    // blocks forever on a response that went elsewhere.
    let req = find_event(&spec, WireKind::Request(ReqKind::FetchShard));
    let resp = find_event(&spec, WireKind::Response(ReqKind::FetchShard));
    let wrong = *spec
        .workers
        .iter()
        .find(|&&w| w != spec.chief)
        .expect("more than one worker");
    assert_eq!(spec.events()[resp].reply_of, Some(req));
    spec.events_mut()[resp].to = wrong;
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C002), "{}", report.render());
}

#[test]
fn truncated_fetch_shard_reply_is_c002() {
    let (g, config, topo, plan, mut spec) = session();
    // A FetchShard reply carries value + optimizer state (two messages
    // under one tag); modeling one starves the checkpoint stitcher.
    let resp = find_event(&spec, WireKind::Response(ReqKind::FetchShard));
    spec.events_mut()[resp].tag_uses = 1;
    spec.events_mut()[resp].sends = 1;
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C002), "{}", report.render());
}

#[test]
fn partial_update_notification_is_c002() {
    let (g, config, topo, plan, mut spec) = session();
    // Drop one worker's UpdateDone: that worker blocks forever in
    // await_update_done while the rest proceed.
    let idx = find_event(&spec, WireKind::Response(ReqKind::UpdateDone));
    spec.events_mut().remove(idx);
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C002), "{}", report.render());
}

#[test]
fn duplicated_event_identity_is_c003() {
    let (g, config, topo, plan, mut spec) = session();
    // Two distinct events sharing one wire identity: messages of one
    // phase would be accepted as the other.
    let idx = find_event(&spec, WireKind::Request(ReqKind::PullSparse));
    let mut leak = spec.events()[idx].clone();
    leak.phase = Phase::TraceRead;
    leak.label = "leaked cross-phase clone".into();
    spec.events_mut().push(leak);
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C003), "{}", report.render());
}

#[test]
fn wait_for_cycle_is_c004() {
    let (g, config, topo, plan, mut spec) = session();
    // First event waits on the last, which (transitively) waits on the
    // first: a distributed deadlock in the making.
    let last = spec.events().len() - 1;
    spec.events_mut()[0].deps.push(last);
    spec.events_mut()[last].deps.push(0);
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C004), "{}", report.render());
}

#[test]
fn unguarded_non_idempotent_kind_is_c005() {
    let (g, config, topo, plan, mut spec) = session();
    spec.tamper_unguard(ReqKind::PushSparse);
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C005), "{}", report.render());
}

#[test]
fn disabled_pull_guard_is_c005() {
    let (g, config, topo, plan, mut spec) = session();
    spec.tamper_disable_pull_guard();
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C005), "{}", report.render());
}

#[test]
fn duplicate_fault_on_reused_tag_is_c005() {
    let (_g, _config, _topo, _plan, spec) = session();
    // Ring collective steps reuse one tag 2(N-1) times: a duplicated
    // message merges into the FIFO stream undetected.
    let ring = &spec.events()[find_event(&spec, WireKind::Collective)];
    let faults = FaultPlan::new().with(FaultAction::DuplicateMessage {
        from: ring.from,
        to: ring.to,
        nth: 0,
    });
    let report = check_fault_plan(&spec, &faults);
    assert!(report.has_code(DiagCode::C005), "{}", report.render());
}

#[test]
fn lossy_fault_plan_with_disarmed_deadline_is_c006() {
    let (_g, _config, _topo, _plan, mut spec) = session();
    spec.tamper_disarm_deadline();
    let faults = FaultPlan::new().with(FaultAction::KillServer {
        machine: 0,
        at_step: 1,
    });
    let report = check_fault_plan(&spec, &faults);
    assert!(report.has_code(DiagCode::C006), "{}", report.render());
}

#[test]
fn out_of_phase_snapshot_publish_is_c007() {
    let (g, config, topo, plan, mut spec) = session();
    // Strip the boundary gate from a FetchShard: servers would see an
    // unplanned message in every non-boundary iteration's barrier.
    let req = find_event(&spec, WireKind::Request(ReqKind::FetchShard));
    spec.events_mut()[req].boundary_only = false;
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C007), "{}", report.render());
}

#[test]
fn non_chief_publisher_is_c007() {
    let (g, config, topo, plan, mut spec) = session();
    let req = find_event(&spec, WireKind::Request(ReqKind::FetchShard));
    let wrong = *spec
        .workers
        .iter()
        .find(|&&w| w != spec.chief)
        .expect("more than one worker");
    spec.events_mut()[req].from = wrong;
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C007), "{}", report.render());
}

#[test]
fn malformed_event_is_c008() {
    let (g, config, topo, plan, mut spec) = session();
    let e = MsgEvent {
        phase: Phase::Push,
        from: 0,
        to: 0, // self-loop
        kind: WireKind::Request(ReqKind::PushSparse),
        var: MAX_VARS + 1, // beyond header capacity
        part: 0,
        sends: 0, // zero multiplicity
        tag_uses: 1,
        boundary_only: false,
        reply_of: Some(usize::MAX), // dangling reference
        deps: vec![usize::MAX],
        label: "malformed".into(),
    };
    spec.events_mut().push(e);
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_code(DiagCode::C008), "{}", report.render());
}

#[test]
fn every_tampered_report_renders_without_panicking() {
    let (g, config, topo, plan, mut spec) = session();
    let last = spec.events().len() - 1;
    spec.events_mut()[0].deps.push(last);
    spec.events_mut()[last].deps.push(0);
    spec.events_mut()[0].sends += 3;
    spec.tamper_disarm_deadline();
    spec.tamper_disable_pull_guard();
    spec.tamper_unguard(ReqKind::ChiefUpdate);
    let report = check_session(&g, &config, &topo, &plan, &spec);
    assert!(report.has_errors());
    let rendered = report.render();
    assert!(rendered.contains('C'), "{rendered}");
}
