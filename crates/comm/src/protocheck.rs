//! Typed per-link session machine for the training wire protocol.
//!
//! The parameter-server protocol and the collective schedules are
//! correct today by *convention*: the PS client packs headers, the
//! runner picks tags, and every send has a hand-written receive
//! somewhere else that must agree on link, tag and multiplicity. This
//! module lifts that convention into data: a [`SessionSpec`] describes,
//! for one steady-state iteration of a verified plan, **who may send
//! what to whom** — one [`MsgEvent`] per (link, message identity) with
//! its phase, its per-iteration multiplicity as the sender's program
//! fixes it, its reply obligation, and the events it must wait for.
//!
//! Three consumers:
//!
//! * the static checker (`parallax_core::protocheck`) walks the spec
//!   and proves send/recv pairing against the servers' own barrier
//!   quotas, reply-obligation discharge, absence of cross-phase tag
//!   collisions, deadlock freedom and dedup safety (`C001`–`C008`
//!   diagnostics);
//! * the traffic predictor (`parallax_core::plancheck`) sizes each
//!   event's messages from an iteration's feeds and charges them into a
//!   [`crate::StaticLedger`];
//! * the [`SessionValidator`] — compiled from the same spec — is
//!   installed on every [`crate::Endpoint`] in debug builds (and under
//!   `repro protocheck` / `repro check`), and rejects any routed
//!   message whose (link, namespace, kind, variable, partition) the
//!   machine does not allow, turning protocol drift into a typed
//!   [`CommError::Protocol`] instead of a hang on the receiving side.
//!
//! The validator is deliberately **stateless**: it checks membership of
//! each message in the allowed set (plus the boundary-iteration gate),
//! not sequencing. Sequencing is the static checker's job; statelessness
//! is what guarantees zero false positives under fault injection —
//! duplicated, delayed or replayed-after-recovery messages carry the
//! same identity as their originals and stay accepted.
//!
//! Tags are built and decoded by [`crate::tag`], the codec every
//! producer shares.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::error::CommError;
use crate::tag::{self, ReqKind, TagClass};

/// The identity of a session-machine message, independent of iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireKind {
    /// Ring-AllReduce step (dense or densified gradient).
    Collective,
    /// Ring-AllGatherv step (sparse gradient slices).
    Gatherv,
    /// Intra-machine reduce/gather leg toward the local chief.
    LocalAgg,
    /// A worker→server request of the given kind.
    Request(ReqKind),
    /// A server→worker response/notification of the given kind.
    Response(ReqKind),
}

impl WireKind {
    /// The request kind when this is a request whose server-side effect
    /// is not idempotent (applying the message twice corrupts state
    /// unless deduplicated).
    pub fn non_idempotent_request(self) -> Option<ReqKind> {
        match self {
            WireKind::Request(
                k @ (ReqKind::PushDense
                | ReqKind::PushSparse
                | ReqKind::ChiefUpdate
                | ReqKind::ReadAgg
                | ReqKind::FetchShard),
            ) => Some(k),
            _ => None,
        }
    }
}

/// The iteration phase an event belongs to, in worker program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Forward-pass parameter pulls.
    Pull,
    /// Collective gradient exchange (AllReduce / AllGatherv).
    Exchange,
    /// Intra-machine local aggregation toward the machine chief.
    LocalAgg,
    /// Gradient pushes to parameter servers.
    Push,
    /// The chief's update trigger.
    Trigger,
    /// Server→worker update-applied notifications.
    Notify,
    /// Post-update aggregated-gradient reads (tracing).
    TraceRead,
    /// Checkpoint/snapshot shard fetches at boundary iterations.
    Publish,
}

/// One edge of the session machine: a message identity on one link,
/// with its per-iteration multiplicity and obligations.
#[derive(Debug, Clone)]
pub struct MsgEvent {
    /// Which phase of the iteration the message belongs to.
    pub phase: Phase,
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Message identity (namespace + kind).
    pub kind: WireKind,
    /// Target variable index.
    pub var: usize,
    /// Target partition index (0 where not applicable).
    pub part: usize,
    /// Messages per iteration, derived from the **sender's** program
    /// (client choreography / ring algebra).
    pub sends: u64,
    /// How many of those messages share one tag *value* (ring steps
    /// reuse one tag `2(N-1)` times; a FetchShard reply is two messages
    /// FIFO-ordered under one tag). `1` for everything else — any other
    /// identity collision is cross-phase leakage.
    pub tag_uses: u64,
    /// True when the event only fires at checkpoint-boundary iterations
    /// (`(iter + 1) % checkpoint_interval == 0`).
    pub boundary_only: bool,
    /// For responses/notifications: index of the request event this
    /// discharges.
    pub reply_of: Option<usize>,
    /// Events that must complete before this one's first message can be
    /// sent (worker program order and server reply obligations); edges
    /// of the wait-for graph.
    pub deps: Vec<usize>,
    /// Human-readable description for diagnostics.
    pub label: String,
}

impl MsgEvent {
    /// The event's wire identity modulo iteration: what the runtime
    /// validator keys on.
    pub fn identity(&self) -> (usize, usize, WireKind, usize, usize) {
        (self.from, self.to, self.kind, self.var, self.part)
    }
}

/// A complete per-iteration session machine for one verified plan.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Total rank count (workers + servers).
    pub ranks: usize,
    /// The chief worker's rank.
    pub chief: usize,
    /// Worker ranks in ring order.
    pub workers: Vec<usize>,
    /// Server ranks.
    pub servers: Vec<usize>,
    /// Synchronous training (the machine models one barriered
    /// iteration; async runs skip triggers/notifications).
    pub sync: bool,
    /// Effective checkpoint/snapshot interval (0 = no boundary events).
    pub checkpoint_interval: usize,
    /// True when blocking receives arm a failure-detection deadline, so
    /// dropped messages surface as typed errors instead of hangs.
    pub deadline_armed: bool,
    /// True when the server enforces its exact per-iteration pull quota
    /// (a duplicated pull then surfaces as a typed iteration-mismatch
    /// error rather than silently skewing the barrier).
    pub pull_exact_count: bool,
    /// Request kinds covered by the server's at-most-once dedup guard.
    pub dedup_guarded: Vec<ReqKind>,
    /// The session events.
    pub events: Vec<MsgEvent>,
}

impl SessionSpec {
    /// Events in the spec.
    pub fn events(&self) -> &[MsgEvent] {
        &self.events
    }

    /// Mutable event access for negative-path tests: tampering with the
    /// spec must be *possible* so the checker's detection of every
    /// defect class stays testable (mirrors the plancheck tamper
    /// constructors).
    #[doc(hidden)]
    pub fn events_mut(&mut self) -> &mut Vec<MsgEvent> {
        &mut self.events
    }

    /// Disarms the receive-deadline flag (negative-path tests).
    #[doc(hidden)]
    pub fn tamper_disarm_deadline(&mut self) {
        self.deadline_armed = false;
    }

    /// Disables the exact pull-count guard (negative-path tests).
    #[doc(hidden)]
    pub fn tamper_disable_pull_guard(&mut self) {
        self.pull_exact_count = false;
    }

    /// Removes a request kind from the dedup guard (negative-path
    /// tests).
    #[doc(hidden)]
    pub fn tamper_unguard(&mut self, kind: ReqKind) {
        self.dedup_guarded.retain(|&k| k != kind);
    }
}

impl fmt::Display for SessionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session machine: {} ranks ({} workers, {} servers), chief {}, {} events, \
             interval {}",
            self.ranks,
            self.workers.len(),
            self.servers.len(),
            self.chief,
            self.events.len(),
            self.checkpoint_interval
        )?;
        for (i, e) in self.events.iter().enumerate() {
            writeln!(
                f,
                "  [{i:3}] {:?} {} -> {} {:?} var {} part {} x{}{}{}",
                e.phase,
                e.from,
                e.to,
                e.kind,
                e.var,
                e.part,
                e.sends,
                if e.boundary_only { " (boundary)" } else { "" },
                if e.reply_of.is_some() { " (reply)" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// Identity key of the runtime allowed-set, as [`MsgEvent::identity`]
/// returns it: `(from, to, kind, var, part)`.
type Identity = (usize, usize, WireKind, usize, usize);

/// Compiled, stateless runtime assertion of a [`SessionSpec`]: accepts
/// exactly the messages some event allows, with boundary-only events
/// gated on the tag's iteration. Cheap enough for debug-build installs
/// (two hash probes per send) and shared by all endpoints via `Arc`.
#[derive(Debug)]
pub struct SessionValidator {
    ranks: usize,
    interval: usize,
    steady: HashSet<Identity>,
    boundary: HashSet<Identity>,
}

impl SessionValidator {
    /// Compiles the allowed-set from a spec.
    pub fn from_spec(spec: &SessionSpec) -> Arc<Self> {
        let mut steady = HashSet::new();
        let mut boundary = HashSet::new();
        for e in &spec.events {
            if e.boundary_only {
                boundary.insert(e.identity());
            } else {
                steady.insert(e.identity());
            }
        }
        Arc::new(SessionValidator {
            ranks: spec.ranks,
            interval: spec.checkpoint_interval,
            steady,
            boundary,
        })
    }

    fn reject(&self, from: usize, to: usize, tag: u64, reason: String) -> CommError {
        CommError::Protocol {
            from,
            to,
            tag,
            reason,
        }
    }

    /// Validates one routed message. `header` is the packed request
    /// header for `Payload::Packet` sends (requests are disambiguated
    /// by header, not tag), `None` otherwise.
    pub fn check(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        header: Option<u64>,
    ) -> Result<(), CommError> {
        if from >= self.ranks || to >= self.ranks {
            return Err(self.reject(
                from,
                to,
                tag,
                format!("rank outside the session's {} ranks", self.ranks),
            ));
        }
        let (kind, var, part, iter) = match tag::classify(tag) {
            TagClass::Collective { var, iter } => (WireKind::Collective, var, 0, iter),
            TagClass::Gatherv { var, iter } => (WireKind::Gatherv, var, 0, iter),
            TagClass::LocalAgg { var, iter } => (WireKind::LocalAgg, var, 0, iter),
            TagClass::Response {
                kind,
                var,
                part,
                iter,
            } => (WireKind::Response(kind), var, part, iter),
            TagClass::Request { iter } => {
                let Some(h) = header else {
                    return Err(self.reject(
                        from,
                        to,
                        tag,
                        "request-tagged message without a packet header".into(),
                    ));
                };
                let Some((kind, hvar, hpart, hiter)) = tag::unpack(h) else {
                    return Err(self.reject(
                        from,
                        to,
                        tag,
                        format!("request header {h:#x} carries unknown kind"),
                    ));
                };
                if hiter != iter {
                    return Err(self.reject(
                        from,
                        to,
                        tag,
                        format!(
                            "request header iteration {hiter} disagrees with tag iteration \
                             {iter} (cross-phase leak)"
                        ),
                    ));
                }
                (WireKind::Request(kind), hvar, hpart, iter)
            }
            TagClass::Unknown => {
                return Err(self.reject(from, to, tag, "tag in no known namespace".into()));
            }
        };
        let key = (from, to, kind, var, part);
        if self.steady.contains(&key) {
            return Ok(());
        }
        if self.boundary.contains(&key) {
            if self.interval > 0 && (iter + 1) % self.interval as u64 == 0 {
                return Ok(());
            }
            return Err(self.reject(
                from,
                to,
                tag,
                format!(
                    "{kind:?} for var {var} part {part} is boundary-only (interval {}), but \
                     iteration {iter} is not a checkpoint boundary",
                    self.interval
                ),
            ));
        }
        Err(self.reject(
            from,
            to,
            tag,
            format!("session machine has no event {from} -> {to} {kind:?} var {var} part {part}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SessionSpec {
        SessionSpec {
            ranks: 3,
            chief: 0,
            workers: vec![0, 1],
            servers: vec![2],
            sync: true,
            checkpoint_interval: 2,
            deadline_armed: true,
            pull_exact_count: true,
            dedup_guarded: vec![
                ReqKind::PushDense,
                ReqKind::PushSparse,
                ReqKind::ChiefUpdate,
                ReqKind::ReadAgg,
                ReqKind::FetchShard,
            ],
            events: vec![
                MsgEvent {
                    phase: Phase::Push,
                    from: 0,
                    to: 2,
                    kind: WireKind::Request(ReqKind::PushDense),
                    var: 1,
                    part: 0,
                    sends: 1,
                    tag_uses: 1,
                    boundary_only: false,
                    reply_of: None,
                    deps: vec![],
                    label: "push".into(),
                },
                MsgEvent {
                    phase: Phase::Publish,
                    from: 0,
                    to: 2,
                    kind: WireKind::Request(ReqKind::FetchShard),
                    var: 1,
                    part: 0,
                    sends: 1,
                    tag_uses: 1,
                    boundary_only: true,
                    reply_of: None,
                    deps: vec![],
                    label: "fetch".into(),
                },
            ],
        }
    }

    #[test]
    fn validator_accepts_spec_messages_and_rejects_drift() {
        let spec = tiny_spec();
        let v = SessionValidator::from_spec(&spec);
        let req = tag::request_tag(0);
        // Allowed: the push event, any iteration, any number of times
        // (duplicates carry the same identity — no false positives).
        for _ in 0..3 {
            v.check(0, 2, req, Some(tag::pack(ReqKind::PushDense, 1, 0, 0)))
                .unwrap();
        }
        // Drift: a push of an unplanned variable.
        let err = v
            .check(0, 2, req, Some(tag::pack(ReqKind::PushDense, 2, 0, 0)))
            .unwrap_err();
        assert!(matches!(err, CommError::Protocol { .. }), "{err}");
        // Drift: an unplanned sender.
        assert!(v
            .check(1, 2, req, Some(tag::pack(ReqKind::PushDense, 1, 0, 0)))
            .is_err());
        // Drift: header/tag iteration mismatch.
        assert!(v
            .check(0, 2, req, Some(tag::pack(ReqKind::PushDense, 1, 0, 1)))
            .is_err());
        // A request without a header cannot be validated.
        assert!(v.check(0, 2, req, None).is_err());
    }

    #[test]
    fn boundary_events_are_gated_on_the_interval() {
        let spec = tiny_spec();
        let v = SessionValidator::from_spec(&spec);
        // interval = 2: iterations 1, 3, ... are boundaries.
        let at = |iter: u64| {
            let header = tag::pack(ReqKind::FetchShard, 1, 0, iter);
            v.check(0, 2, tag::request_tag(iter), Some(header))
        };
        at(1).unwrap();
        let err = at(0).unwrap_err();
        assert!(err.to_string().contains("boundary"), "{err}");
    }

    #[test]
    fn out_of_range_ranks_are_rejected() {
        let spec = tiny_spec();
        let v = SessionValidator::from_spec(&spec);
        assert!(v.check(7, 2, tag::request_tag(0), None).is_err());
        assert!(v.check(0, 9, tag::request_tag(0), None).is_err());
    }
}
