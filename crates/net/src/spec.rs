//! Static cluster specs (`CLUSTER.json`) and process roles.
//!
//! A spec names a *test topology*: which preset to train, how many
//! machines and GPUs, one `host:port` listen address per transport
//! rank, and the run knobs that must agree across every process for
//! the derived plan (and therefore the protocol) to be identical —
//! seed, iteration count, wire format, fault plan, checkpoint cadence.
//! Every process parses the same file and derives the same
//! deterministic plan; the spec never carries the plan itself.
//!
//! The format is one flat JSON object, written by the launcher and
//! read by `repro dist` roles through the workspace's strict reader
//! ([`parallax_trace::json`]), so every process decodes the same file
//! the same way. Decoding fails closed: malformed JSON (trailing
//! bytes, duplicate keys, bad escapes) and a field of the wrong type
//! are [`NetError::Spec`] errors, and counts, the seed and the
//! deadline parse exactly as unsigned integers and ports as `u16`, so
//! a fraction, sign, exponent or out-of-range value is rejected, never
//! silently truncated.

use parallax_trace::json::{self, Value};

use crate::error::{NetError, Result};

/// Schema tag; bump on incompatible changes.
pub const SCHEMA: &str = "parallax-cluster-v1";

/// Which process a `repro dist` invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The chief worker (global worker 0): trains, triggers server
    /// updates, and is the only role that publishes checkpoints and
    /// serving snapshots.
    Chief,
    /// A non-chief training worker; `index` is the global worker
    /// position (1-based positions are workers after the chief, so
    /// `index >= 1`).
    Worker {
        /// Global worker position (0 is the chief; use [`Role::Chief`]).
        index: usize,
    },
    /// The parameter-server shard on `machine`.
    Server {
        /// Machine index hosting the shard.
        machine: usize,
    },
}

impl Role {
    /// Parses a `--role` value plus its `--index` argument. Returns
    /// `None` for unknown role names (the CLI exits 2 with usage, the
    /// same contract as unknown subcommands).
    pub fn parse(role: &str, index: usize) -> Option<Role> {
        match role {
            "chief" => Some(Role::Chief),
            "worker" => Some(if index == 0 {
                Role::Chief
            } else {
                Role::Worker { index }
            }),
            "server" => Some(Role::Server { machine: index }),
            _ => None,
        }
    }

    /// The role's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Role::Chief => "chief",
            Role::Worker { .. } => "worker",
            Role::Server { .. } => "server",
        }
    }

    /// The role's `--index` argument (worker position or machine).
    pub fn index(&self) -> usize {
        match *self {
            Role::Chief => 0,
            Role::Worker { index } => index,
            Role::Server { machine } => machine,
        }
    }

    /// True for the chief (the only artifact-publishing role).
    pub fn is_chief(&self) -> bool {
        matches!(self, Role::Chief)
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.name(), self.index())
    }
}

/// A static cluster description: everything a `repro dist` process
/// needs to join the mesh and run its role deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Model preset (`"lm"` or `"nmt"`).
    pub preset: String,
    /// Machine count.
    pub machines: usize,
    /// Training GPUs (worker ranks) per machine; each machine
    /// additionally hosts one server rank, matching the PS topology.
    pub gpus_per_machine: usize,
    /// Training iterations.
    pub iterations: usize,
    /// Config seed (initialization + replica consistency).
    pub seed: u64,
    /// Wire format name (`"f32"`, `"f16"`, `"bf16"`).
    pub wire_format: String,
    /// Listen host for every rank (test topologies are single-host).
    pub host: String,
    /// One listen port per transport rank, in rank order.
    pub ports: Vec<u16>,
    /// Directory for per-role artifacts, the fired-fault log, and (when
    /// checkpointing) the chief's checkpoint file.
    pub artifact_dir: String,
    /// Receive deadline in milliseconds; `0` keeps the transport
    /// default.
    pub recv_deadline_ms: u64,
    /// Fault plan, encoded by `FaultPlan::to_spec` (empty = none).
    pub fault_spec: String,
    /// Chief checkpoint file name inside `artifact_dir` (empty = no
    /// checkpointing). Non-chief roles read it for recovery but never
    /// write it.
    pub checkpoint: String,
    /// Chief serving-snapshot file name inside `artifact_dir`
    /// (empty = none).
    pub snapshot: String,
    /// Iterations between checkpoints (when `checkpoint`/`snapshot`
    /// set).
    pub checkpoint_interval: usize,
    /// How many failed process generations the launcher may respawn
    /// (recovery requires `checkpoint`).
    pub max_recoveries: usize,
    /// Install the runtime session validator in release builds too.
    pub validate_protocol: bool,
}

impl ClusterSpec {
    /// Total transport ranks: per machine, its workers then its server.
    ///
    /// # Panics
    ///
    /// If the count overflows `usize`; [`ClusterSpec::validate`]
    /// rejects such specs.
    pub fn num_endpoints(&self) -> usize {
        self.checked_endpoints()
            .expect("endpoint count overflows usize; validate() rejects this spec")
    }

    fn checked_endpoints(&self) -> Option<usize> {
        self.gpus_per_machine
            .checked_add(1)?
            .checked_mul(self.machines)
    }

    /// All rank addresses in rank order.
    pub fn addrs(&self) -> Vec<String> {
        self.ports
            .iter()
            .map(|p| format!("{}:{}", self.host, p))
            .collect()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(NetError::Spec(msg));
        if self.preset.is_empty() {
            return bad("preset is empty".into());
        }
        if self.machines == 0 || self.gpus_per_machine == 0 {
            return bad("machines and gpus_per_machine must be >= 1".into());
        }
        if self.iterations == 0 {
            return bad("iterations must be >= 1".into());
        }
        let Some(endpoints) = self.checked_endpoints() else {
            return bad(format!(
                "{} machines x ({} GPUs + 1 server) overflows the rank count",
                self.machines, self.gpus_per_machine
            ));
        };
        // Empty ports mean "launcher assigns fresh ones"; anything else
        // must cover every rank.
        if !self.ports.is_empty() && self.ports.len() != endpoints {
            return bad(format!(
                "{} ports for {endpoints} endpoints",
                self.ports.len()
            ));
        }
        if self.artifact_dir.is_empty() {
            return bad("artifact_dir is empty".into());
        }
        Ok(())
    }

    /// Serializes the spec (flat JSON, one object).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":\"{SCHEMA}\"");
        for (key, val) in [
            ("preset", &self.preset),
            ("wire_format", &self.wire_format),
            ("host", &self.host),
            ("artifact_dir", &self.artifact_dir),
            ("fault_spec", &self.fault_spec),
            ("checkpoint", &self.checkpoint),
            ("snapshot", &self.snapshot),
        ] {
            let _ = write!(out, ",\"{key}\":\"{}\"", json::escape(val));
        }
        for (key, val) in [
            ("machines", self.machines as u64),
            ("gpus_per_machine", self.gpus_per_machine as u64),
            ("iterations", self.iterations as u64),
            ("seed", self.seed),
            ("recv_deadline_ms", self.recv_deadline_ms),
            ("checkpoint_interval", self.checkpoint_interval as u64),
            ("max_recoveries", self.max_recoveries as u64),
            ("validate_protocol", self.validate_protocol as u64),
        ] {
            let _ = write!(out, ",\"{key}\":{val}");
        }
        let ports: Vec<String> = self.ports.iter().map(|p| p.to_string()).collect();
        let _ = write!(out, ",\"ports\":[{}]}}", ports.join(","));
        out
    }

    /// Parses a [`ClusterSpec::to_json`] document and validates it.
    /// String fields may be missing (empty; `host` then defaults to
    /// `127.0.0.1`, and [`ClusterSpec::validate`] rejects an empty
    /// `preset`), as may `max_recoveries` (1).
    /// `validate_protocol` takes a JSON boolean as well as the 0/1
    /// number `to_json` writes, since hand-written specs naturally use
    /// `true`/`false`.
    pub fn from_json(text: &str) -> Result<ClusterSpec> {
        let doc = json::parse(text).map_err(|e| NetError::Spec(format!("invalid JSON: {e}")))?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(NetError::Spec(format!("missing schema {SCHEMA}")));
        }
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| NetError::Spec(format!("missing {key}")))
        };
        let num = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| NetError::Spec(format!("{key} is not an unsigned integer")))
        };
        let count = |key: &str| -> Result<usize> {
            usize::try_from(num(key)?).map_err(|_| NetError::Spec(format!("{key} out of range")))
        };
        let string = |key: &str| {
            doc.get(key)
                .map_or(Some(""), Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| NetError::Spec(format!("{key} is not a string")))
        };
        let mut ports = Vec::new();
        for p in field("ports")?
            .as_array()
            .ok_or_else(|| NetError::Spec("ports is not an array".into()))?
        {
            match p.as_u64().and_then(|p| u16::try_from(p).ok()) {
                Some(port) if port != 0 => ports.push(port),
                _ => return Err(NetError::Spec("ports must be integers in 1..=65535".into())),
            }
        }
        let flag = field("validate_protocol")?;
        let spec = ClusterSpec {
            preset: string("preset")?,
            machines: count("machines")?,
            gpus_per_machine: count("gpus_per_machine")?,
            iterations: count("iterations")?,
            seed: num("seed")?,
            wire_format: string("wire_format")?,
            host: match string("host")? {
                h if h.is_empty() => "127.0.0.1".to_string(),
                h => h,
            },
            ports,
            artifact_dir: string("artifact_dir")?,
            recv_deadline_ms: num("recv_deadline_ms")?,
            fault_spec: string("fault_spec")?,
            checkpoint: string("checkpoint")?,
            snapshot: string("snapshot")?,
            checkpoint_interval: count("checkpoint_interval")?,
            max_recoveries: match doc.get("max_recoveries") {
                Some(_) => count("max_recoveries")?,
                None => 1,
            },
            validate_protocol: flag
                .as_bool()
                .or_else(|| flag.as_u64().map(|v| v != 0))
                .ok_or_else(|| NetError::Spec("malformed validate_protocol".into()))?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec {
            preset: "lm".into(),
            machines: 1,
            gpus_per_machine: 2,
            iterations: 4,
            seed: 42,
            wire_format: "f32".into(),
            host: "127.0.0.1".into(),
            ports: vec![7101, 7102, 7103],
            artifact_dir: "/tmp/parallax dist \"quoted\"".into(),
            recv_deadline_ms: 5000,
            fault_spec: "drop:0:2:0;kill-worker:1:3".into(),
            checkpoint: "run.ckpt".into(),
            snapshot: String::new(),
            checkpoint_interval: 2,
            max_recoveries: 3,
            validate_protocol: true,
        }
    }

    #[test]
    fn spec_roundtrips_including_escaped_strings() {
        let s = spec();
        let back = ClusterSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn spec_validation_rejects_port_mismatch() {
        let mut s = spec();
        s.ports.pop();
        assert!(matches!(
            ClusterSpec::from_json(&s.to_json()),
            Err(NetError::Spec(_))
        ));
        // Empty ports are a valid launcher input (fresh ones are
        // assigned per generation).
        s.ports.clear();
        assert_eq!(ClusterSpec::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn spec_accepts_hand_written_json() {
        let text = r#"{
            "schema": "parallax-cluster-v1",
            "preset": "lm",
            "machines": 1, "gpus_per_machine": 2,
            "iterations": 4, "seed": 7,
            "wire_format": "f32", "host": "127.0.0.1", "ports": [],
            "artifact_dir": "/tmp/demo", "recv_deadline_ms": 10000,
            "fault_spec": "", "checkpoint": "", "snapshot": "",
            "checkpoint_interval": 0, "max_recoveries": 0,
            "validate_protocol": true
        }"#;
        let s = ClusterSpec::from_json(text).unwrap();
        assert_eq!(s.preset, "lm");
        assert!(s.validate_protocol);
        assert!(s.ports.is_empty());
        assert_eq!(s.max_recoveries, 0);
    }

    #[test]
    fn integer_fields_parse_exactly_or_fail_closed() {
        // A seed above 2^53 survives the round trip bit for bit.
        let mut s = spec();
        s.seed = (1 << 53) + 1;
        assert_eq!(ClusterSpec::from_json(&s.to_json()).unwrap(), s);
        let good = spec().to_json();
        for (from, to) in [
            ("\"iterations\":4", "\"iterations\":4.9"),
            ("\"seed\":42", "\"seed\":-7"),
            ("\"seed\":42", "\"seed\":+42"),
            ("\"machines\":1", "\"machines\":1e300"),
            ("\"gpus_per_machine\":2", "\"gpus_per_machine\":1e300"),
            (
                "\"recv_deadline_ms\":5000",
                "\"recv_deadline_ms\":18446744073709551616",
            ),
            ("\"max_recoveries\":3", "\"max_recoveries\":3.5"),
            ("\"validate_protocol\":1", "\"validate_protocol\":0.5"),
            ("7101,", "70000,"),
            ("7101,", "-1,"),
            ("7101,", "7101.5,"),
            ("7101,", "0,"),
        ] {
            let text = good.replacen(from, to, 1);
            assert_ne!(text, good, "{to} must edit the spec");
            assert!(
                matches!(ClusterSpec::from_json(&text), Err(NetError::Spec(_))),
                "{to} must be rejected"
            );
        }
    }

    #[test]
    fn rank_count_overflow_is_a_spec_error() {
        // With ports listed, validate compares them to the rank count.
        let mut s = spec();
        s.gpus_per_machine = usize::MAX;
        assert!(matches!(s.validate(), Err(NetError::Spec(_))));
        assert!(matches!(
            ClusterSpec::from_json(&s.to_json()),
            Err(NetError::Spec(_))
        ));
        // Without ports the count must still fit, or a later
        // `num_endpoints` would overflow.
        let mut s = spec();
        s.ports.clear();
        s.machines = usize::MAX;
        assert!(matches!(
            ClusterSpec::from_json(&s.to_json()),
            Err(NetError::Spec(_))
        ));
    }

    #[test]
    fn whitespace_before_colon_is_accepted() {
        let text = spec().to_json().replace("\":", "\" : ");
        assert!(text.contains("\"seed\" : 42"));
        assert_eq!(ClusterSpec::from_json(&text).unwrap(), spec());
    }

    #[test]
    fn role_parsing() {
        assert_eq!(Role::parse("chief", 0), Some(Role::Chief));
        assert_eq!(Role::parse("worker", 0), Some(Role::Chief));
        assert_eq!(Role::parse("worker", 2), Some(Role::Worker { index: 2 }));
        assert_eq!(Role::parse("server", 1), Some(Role::Server { machine: 1 }));
        assert_eq!(Role::parse("observer", 0), None);
        assert!(Role::Chief.is_chief());
        assert!(!Role::Server { machine: 0 }.is_chief());
        assert_eq!(Role::Worker { index: 3 }.to_string(), "worker:3");
    }

    #[test]
    fn addresses_follow_rank_order() {
        let s = spec();
        assert_eq!(s.num_endpoints(), 3);
        assert_eq!(s.addrs().len(), 3);
        assert_eq!(s.addrs()[1], "127.0.0.1:7102");
    }
}
