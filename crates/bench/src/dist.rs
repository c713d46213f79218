//! `repro dist`: multi-process socket execution of the training job.
//!
//! One OS process per role (`chief` / `worker` / `server`), connected
//! by `parallax-net`'s TCP mesh. Every process parses the same
//! `CLUSTER.json` spec, derives the same deterministic plan, and calls
//! [`Runner::run_role`] — the *same* function the in-process runner
//! calls once per thread — over an endpoint whose transport happens to
//! cross a process boundary. Everything above the transport seam
//! (tag matching, traffic accounting, fault injection, protocol
//! validation) is shared, which is what makes the two modes
//! bitwise-equivalent.
//!
//! Each role writes an artifact, a tensor file (losses, traffic by
//! class, traced span bytes, chief replica / server shards), into the
//! spec's `artifact_dir`; the launcher merges them with the exact
//! folds the in-process attempt uses ([`mean_worker_losses`],
//! [`Runner::stitch_final_model`], `TrafficReport::merge_from`).
//!
//! Recovery model: the launcher respawns the *whole fleet* with fresh
//! ports when a generation fails (a fault-injected kill, a timeout
//! from a dropped message). Each process independently loads the
//! chief's checkpoint at startup, so every role resumes from the same
//! step; a write-ahead fired-fault log keeps one-shot faults from
//! re-firing after respawn. Artifacts only exist for the successful
//! generation, so the traced-vs-measured byte crosscheck stays exact.
//!
//! `repro dist-check` is the equivalence gate: same seed and plan,
//! in-process vs sockets, asserting bitwise-identical losses and final
//! weights and byte-identical per-class traffic (static prediction ==
//! traced spans == measured ledger) for both presets.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use parallax_comm::{CommError, Endpoint, PeerHealth, TrafficSnapshot, TrafficStats, WireFormat};
use parallax_core::plancheck::predict_iteration_traffic;
use parallax_core::runner::TrafficReport;
use parallax_core::snapshot::{self, Snapshot};
use parallax_core::{
    mean_worker_losses, ParallaxConfig, RestorePoint, RoleAssignment, RoleOutput, Runner,
};
use parallax_dataflow::{Feed, VarId, VarStore};
use parallax_fault::{FaultInjector, FaultPlan};
use parallax_net::{
    free_local_ports, ClusterSpec, Fleet, FleetOutcome, Role, TcpConfig, TcpTransport,
};
use parallax_tensor::Tensor;
use parallax_trace::TraceConfig;

use crate::job::{Job, PROFILE_SEED};

/// Wall budget for one process generation of a test topology. Mesh
/// establishment plus a handful of tiny-preset iterations finishes in
/// seconds; the margin covers loaded CI machines.
pub const GENERATION_DEADLINE: Duration = Duration::from_secs(150);

/// The file name a fired-fault write-ahead log uses inside
/// `artifact_dir` (shared by every role, appended before a fault's
/// verdict is returned, so a SIGKILL cannot lose the record).
pub const FAULT_LOG: &str = "fault_fired.log";

/// Exit status of a role process whose run ended in
/// [`CommError::PeerTimeout`]: a peer stayed silent, or stopped reading,
/// past the endpoint's deadline. Every other failure exits 1.
pub const EXIT_PEER_TIMEOUT: i32 = 3;

/// Why a role process failed, and the exit status that reports it to
/// the launcher.
#[derive(Debug)]
pub struct RoleFailure {
    /// [`EXIT_PEER_TIMEOUT`] or 1.
    pub code: i32,
    /// The error, for stderr.
    pub message: String,
}

impl From<String> for RoleFailure {
    fn from(message: String) -> Self {
        RoleFailure { code: 1, message }
    }
}

/// The config a spec describes: seed, wire format, fault plan,
/// persistence files, receive deadline, recovery budget and validator
/// switch over the defaults.
fn spec_config(spec: &ClusterSpec) -> Result<ParallaxConfig, String> {
    let wire_format = if spec.wire_format.is_empty() {
        WireFormat::F32
    } else {
        WireFormat::parse(&spec.wire_format)
            .ok_or_else(|| format!("unknown wire format '{}'", spec.wire_format))?
    };
    let fault_plan = if spec.fault_spec.is_empty() {
        FaultPlan::new()
    } else {
        FaultPlan::parse_spec(&spec.fault_spec).map_err(|e| e.to_string())?
    };
    let artifact_dir = PathBuf::from(&spec.artifact_dir);
    let file_path = |name: &str| {
        if name.is_empty() {
            None
        } else {
            Some(artifact_dir.join(name))
        }
    };
    let checkpoint_path = file_path(&spec.checkpoint);
    let snapshot_path = file_path(&spec.snapshot);
    let persists = checkpoint_path.is_some() || snapshot_path.is_some();
    Ok(ParallaxConfig {
        seed: spec.seed,
        wire_format,
        fault_plan,
        checkpoint_path,
        snapshot_path,
        checkpoint_interval: if persists {
            spec.checkpoint_interval
        } else {
            0
        },
        recv_deadline: (spec.recv_deadline_ms > 0)
            .then(|| Duration::from_millis(spec.recv_deadline_ms)),
        max_recoveries: spec.max_recoveries,
        validate_protocol: spec.validate_protocol,
        ..ParallaxConfig::default()
    })
}

/// The job a spec names and its configured [`Runner`] (plan verified at
/// construction). Every process builds these from the same spec and,
/// planning being deterministic, derives the identical plan.
pub fn build(spec: &ClusterSpec) -> Result<(Job, Runner), String> {
    let config = spec_config(spec)?;
    let job = Job::new(&spec.preset)?;
    let runner = job
        .runner(
            vec![spec.gpus_per_machine; spec.machines],
            config,
            PROFILE_SEED,
        )
        .map_err(|e| e.to_string())?;
    Ok((job, runner))
}

/// Worker `w`'s mini-batch for iteration `i` on `runner`'s topology:
/// the deterministic feed both execution modes share.
pub fn feed(job: &Job, runner: &Runner, w: usize, i: usize) -> Feed {
    job.feed(runner.topology().num_workers(), w, job.feed_seed(i))
}

// ---------------------------------------------------------------------------
// Role artifacts: the per-process half of a run report, merged by the
// launcher. Tensor files (`parallax_core::snapshot`): scalars and
// traffic counters as header words, series and weights as entries.
// ---------------------------------------------------------------------------

/// What one role process writes on success.
pub struct RoleArtifact {
    /// The role that produced this artifact.
    pub role: Role,
    /// The iteration this generation resumed from (0 = fresh start).
    pub start_iter: usize,
    /// `TraceDump::total_span_bytes()` of the process's traced run.
    pub span_bytes: u64,
    /// Worker per-iteration losses for `start_iter..iterations`.
    pub losses: Vec<f32>,
    /// Chief per-iteration gradient norms (under `trace_gradients`).
    pub norms: Vec<f32>,
    /// Worker forward+backward seconds.
    pub compute_secs: f64,
    /// Chief replica values `(var index, value)`: the AllReduce
    /// variables a worker holds (chief only).
    pub store: Option<Vec<(u64, Tensor)>>,
    /// Server shard values `((var index, partition), value)`.
    pub shards: Vec<((u64, u64), Tensor)>,
    /// The process's measured traffic by class (sender-side only, so
    /// per-process snapshots merge disjointly).
    pub traffic: TrafficReport,
}

/// The artifact file name for `role` inside an artifact directory.
pub fn artifact_name(role: Role) -> String {
    match role {
        Role::Chief => "artifact_worker0.bin".into(),
        Role::Worker { index } => format!("artifact_worker{index}.bin"),
        Role::Server { machine } => format!("artifact_server{machine}.bin"),
    }
}

/// Appends `s` to `words`: machine count, the three per-machine byte
/// vectors, link count and sorted `(from, to, bytes)` links, then the
/// two message counts.
fn put_traffic(words: &mut Vec<u64>, s: &TrafficSnapshot) {
    words.push(s.out_bytes.len() as u64);
    for per_machine in [&s.out_bytes, &s.in_bytes, &s.intra_bytes_per_machine] {
        words.extend(per_machine);
    }
    let mut links: Vec<[u64; 3]> = s
        .link_bytes
        .iter()
        .map(|(&(a, b), &v)| [a as u64, b as u64, v])
        .collect();
    links.sort_unstable();
    words.push(links.len() as u64);
    words.extend(links.concat());
    words.extend([s.inter_messages, s.intra_messages]);
}

/// Splits the next `n` header words off `words`; artifacts come from
/// sibling processes, but one cut short must fail cleanly.
fn next_words<'a>(words: &mut &'a [u64], n: u64) -> Result<&'a [u64], String> {
    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n <= words.len())
        .ok_or_else(|| format!("artifact needs {n} more header words, has {}", words.len()))?;
    let (head, rest) = words.split_at(n);
    *words = rest;
    Ok(head)
}

/// Reads back one [`put_traffic`] record.
fn next_traffic(words: &mut &[u64]) -> Result<TrafficSnapshot, String> {
    let machines = next_words(words, 1)?[0];
    let out_bytes = next_words(words, machines)?.to_vec();
    let in_bytes = next_words(words, machines)?.to_vec();
    let intra_bytes_per_machine = next_words(words, machines)?.to_vec();
    let links = next_words(words, 1)?[0];
    let link_bytes = next_words(words, links.saturating_mul(3))?
        .chunks_exact(3)
        .map(|l| ((l[0] as usize, l[1] as usize), l[2]))
        .collect();
    let [inter_messages, intra_messages] = next_words(words, 2)?.try_into().expect("two words");
    Ok(TrafficSnapshot {
        out_bytes,
        in_bytes,
        link_bytes,
        intra_bytes_per_machine,
        inter_messages,
        intra_messages,
    })
}

impl RoleArtifact {
    /// Writes the artifact atomically as a tensor file: role, resume
    /// point, span bytes, compute seconds, store and shard keys and
    /// traffic as header words; losses and norms as untagged entries,
    /// the replica store and the shards as entries tagged `store` and
    /// `shard`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let store = self.store.as_deref().unwrap_or_default();
        let mut words = vec![
            u64::from(matches!(self.role, Role::Server { .. })),
            self.role.index() as u64,
            self.start_iter as u64,
            self.span_bytes,
            self.compute_secs.to_bits(),
            u64::from(self.store.is_some()),
            store.len() as u64,
            self.shards.len() as u64,
        ];
        words.extend(store.iter().map(|&(var, _)| var));
        words.extend(self.shards.iter().flat_map(|&((var, part), _)| [var, part]));
        let t = &self.traffic;
        for class in [&t.nccl, &t.mpi, &t.ps, &t.local_agg, &t.other] {
            put_traffic(&mut words, class);
        }
        let series = |xs: &[f32]| Tensor::new([xs.len()], xs.to_vec()).map_err(|e| e.to_string());
        let (losses, norms) = (series(&self.losses)?, series(&self.norms)?);
        let tagged: Vec<(&str, &Tensor)> = store
            .iter()
            .map(|(_, t)| ("store", t))
            .chain(self.shards.iter().map(|(_, t)| ("shard", t)))
            .collect();
        let names: Vec<String> = (0..tagged.len()).map(|i| i.to_string()).collect();
        let mut entries = vec![("losses", "", &losses), ("norms", "", &norms)];
        entries.extend(
            names
                .iter()
                .zip(tagged)
                .map(|(name, (tag, t))| (name.as_str(), tag, t)),
        );
        snapshot::write(path, 0, &words, &entries).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Reads an artifact file, checking its structure and every block
    /// CRC.
    pub fn read(path: &Path) -> Result<RoleArtifact, String> {
        let at = |e: parallax_core::CoreError| format!("{}: {e}", path.display());
        let file = Snapshot::open(path).map_err(at)?;
        let mut words = file.words();
        let [kind, index, start_iter, span_bytes, secs, has_store, n_store, n_shards]: [u64; 8] =
            next_words(&mut words, 8)?.try_into().expect("eight words");
        let index = index as usize;
        let role = match kind {
            0 if index == 0 => Role::Chief,
            0 => Role::Worker { index },
            1 => Role::Server { machine: index },
            other => return Err(format!("bad artifact role kind {other}")),
        };
        let store_keys = next_words(&mut words, n_store)?;
        let keys = next_words(&mut words, n_shards.saturating_mul(2))?;
        let traffic = TrafficReport {
            nccl: next_traffic(&mut words)?,
            mpi: next_traffic(&mut words)?,
            ps: next_traffic(&mut words)?,
            local_agg: next_traffic(&mut words)?,
            other: next_traffic(&mut words)?,
        };
        if !words.is_empty() {
            return Err(format!("{} trailing artifact header words", words.len()));
        }
        let series = |name: &str| -> Result<Vec<f32>, String> {
            let idx = file
                .entry_index(name)
                .ok_or_else(|| format!("artifact has no '{name}' entry"))?;
            Ok(file.tensor_at(idx).map_err(at)?.into_data())
        };
        let tagged = |tag: &str| -> Result<Vec<Tensor>, String> {
            (0..file.entries().len())
                .filter(|&i| file.entries()[i].tag == tag)
                .map(|i| file.tensor_at(i).map_err(at))
                .collect()
        };
        let store = tagged("store")?;
        let shards = tagged("shard")?;
        if store.len() as u64 != n_store {
            return Err(format!(
                "artifact declares {n_store} store entries, holds {}",
                store.len()
            ));
        }
        if shards.len() as u64 != n_shards {
            return Err(format!(
                "artifact declares {n_shards} shards, holds {}",
                shards.len()
            ));
        }
        Ok(RoleArtifact {
            role,
            start_iter: start_iter as usize,
            span_bytes,
            losses: series("losses")?,
            norms: series("norms")?,
            compute_secs: f64::from_bits(secs),
            store: (has_store != 0).then(|| store_keys.iter().copied().zip(store).collect()),
            shards: keys
                .chunks_exact(2)
                .map(|k| (k[0], k[1]))
                .zip(shards)
                .collect(),
            traffic,
        })
    }
}

// ---------------------------------------------------------------------------
// Role processes
// ---------------------------------------------------------------------------

/// Runs one role of a spec's job to completion: join the TCP mesh,
/// execute [`Runner::run_role`] with tracing live, write the role
/// artifact. This is the body of `repro dist --role ... --spec ...`.
pub fn role_main(spec_path: &Path, role: Role) -> Result<(), RoleFailure> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("read {}: {e}", spec_path.display()))?;
    let spec = ClusterSpec::from_json(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    if spec.ports.len() != spec.num_endpoints() {
        return Err(format!(
            "spec lists {} port(s) for {} endpoints; role processes need \
             the launcher-assigned ports (run `repro dist --launch`)",
            spec.ports.len(),
            spec.num_endpoints()
        )
        .into());
    }
    let (job, runner) = build(&spec)?;
    let topo = runner.topology();

    // Satellite: non-chief roles keep persistence paths (the protocol
    // depends on every role deriving the same checkpoint interval) but
    // never publish — surfaced as a typed warning, not a silent race.
    for warning in runner
        .config()
        .role_warnings(role.is_chief(), &role.to_string())
    {
        eprintln!("[parallax-net] warning: {warning}");
    }

    let (assignment, rank) = match role {
        Role::Chief => (RoleAssignment::Worker { index: 0 }, topo.worker_ranks()[0]),
        Role::Worker { index } => {
            let rank = *topo.worker_ranks().get(index).ok_or_else(|| {
                format!(
                    "worker index {index} outside {} workers",
                    topo.num_workers()
                )
            })?;
            (RoleAssignment::Worker { index }, rank)
        }
        Role::Server { machine } => {
            if machine >= topo.num_machines() {
                return Err(format!(
                    "server machine {machine} outside {} machines",
                    topo.num_machines()
                )
                .into());
            }
            (
                RoleAssignment::Server { machine },
                topo.server_rank(machine),
            )
        }
    };

    let artifact_dir = PathBuf::from(&spec.artifact_dir);

    // Resume point: every process independently loads the chief's
    // latest checkpoint (if one exists), so the whole fleet agrees on
    // `start_iter` — the multi-process analog of `Runner::run`'s
    // recovery loop threading one RestorePoint to every thread.
    let mut start_iter = 0usize;
    let mut restore: Option<RestorePoint> = None;
    if !spec.checkpoint.is_empty() {
        let ckpt = artifact_dir.join(&spec.checkpoint);
        if ckpt.exists() {
            let (rp, step) = RestorePoint::load(job.graph(), &ckpt).map_err(|e| e.to_string())?;
            eprintln!("[parallax-net] {role}: resuming from checkpoint at step {step}");
            start_iter = step as usize;
            restore = Some(rp);
        }
    }

    // One-shot fault semantics across respawns: fired events are logged
    // write-ahead (flushed before the verdict returns) and precleared
    // on the next generation, matching the in-process runner's single
    // shared injector.
    let injector = Arc::new(
        FaultInjector::new_logged(
            runner.config().fault_plan.clone(),
            &artifact_dir.join(FAULT_LOG),
        )
        .map_err(|e| e.to_string())?,
    );

    let health = Arc::new(PeerHealth::default());
    let tcp = TcpTransport::connect_mesh(&TcpConfig::new(rank, spec.addrs()), Arc::clone(&health))
        .map_err(|e| format!("{role}: mesh: {e}"))?;
    let traffic = TrafficStats::new(topo.num_machines());
    let mut endpoint = Endpoint::from_transport(
        topo.comm().clone(),
        rank,
        Box::new(tcp),
        Arc::clone(&traffic),
        health,
        Some(Arc::clone(&injector)),
    )
    .map_err(|e| e.to_string())?;
    runner
        .arm_endpoints(std::slice::from_mut(&mut endpoint))
        .map_err(|e| e.to_string())?;

    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let result = runner.run_role(
        assignment,
        endpoint,
        spec.iterations,
        start_iter,
        restore.as_ref(),
        &injector,
        &|w, i| feed(&job, &runner, w, i),
    );
    parallax_trace::disable();
    let dump = parallax_trace::drain();
    let output = result.map_err(|e| RoleFailure {
        code: match e.comm() {
            Some(CommError::PeerTimeout { .. }) => EXIT_PEER_TIMEOUT,
            _ => 1,
        },
        message: format!("{role}: {e}"),
    })?;

    let chief_rank = topo.worker_ranks()[0];
    let artifact = match output {
        RoleOutput::Worker {
            losses,
            norms,
            compute_secs,
            store,
        } => RoleArtifact {
            role,
            start_iter,
            span_bytes: dump.total_span_bytes(),
            losses,
            norms,
            compute_secs,
            store: (rank == chief_rank).then(|| {
                store
                    .held()
                    .map(|(var, t)| (var.index() as u64, t.clone()))
                    .collect()
            }),
            shards: Vec::new(),
            traffic: TrafficReport::from_stats(&traffic),
        },
        RoleOutput::Server { shards } => RoleArtifact {
            role,
            start_iter,
            span_bytes: dump.total_span_bytes(),
            losses: Vec::new(),
            norms: Vec::new(),
            compute_secs: 0.0,
            store: None,
            shards: shards
                .into_iter()
                .map(|((var, part), t)| ((var.index() as u64, part as u64), t))
                .collect(),
            traffic: TrafficReport::from_stats(&traffic),
        },
    };
    Ok(artifact.write(&artifact_dir.join(artifact_name(role)))?)
}

// ---------------------------------------------------------------------------
// Chief-side launcher
// ---------------------------------------------------------------------------

/// A merged multi-process run: the socket-mode [`RunReport`] analog,
/// assembled from role artifacts with the in-process folds.
///
/// [`RunReport`]: parallax_core::RunReport
pub struct MergedRun {
    /// Mean training loss per iteration; zeros before the successful
    /// generation's resume point (matching in-process recovery).
    pub losses: Vec<f32>,
    /// Chief per-iteration gradient norms.
    pub grad_norms: Vec<f32>,
    /// Merged per-class traffic of the successful generation.
    pub traffic: TrafficReport,
    /// Max worker compute seconds per executed iteration.
    pub host_compute_per_iter: f64,
    /// Final values of every variable, by variable index.
    pub final_model: HashMap<usize, Tensor>,
    /// Sum of every process's traced span bytes (must equal the merged
    /// ledger's `total_network_bytes`, asserted at merge time).
    pub traced_span_bytes: u64,
    /// For each lost generation, the role whose nonzero exit ended it
    /// and its exit code (the launcher then killed the rest, wedged
    /// processes included). `failed_roles.len() + 1` generations ran.
    pub failed_roles: Vec<(String, Option<i32>)>,
}

/// Every role of a spec, chief first, in stable launch order.
pub fn roles_of(spec: &ClusterSpec) -> Vec<Role> {
    let workers = spec.machines * spec.gpus_per_machine;
    let mut roles = vec![Role::Chief];
    roles.extend((1..workers).map(|index| Role::Worker { index }));
    roles.extend((0..spec.machines).map(|machine| Role::Server { machine }));
    roles
}

/// Spawns the fleet for `spec` (one `repro dist` process per role),
/// respawning whole generations from the chief's checkpoint on failure
/// up to `spec.max_recoveries` times, and merges the surviving
/// generation's artifacts. Fresh ports are allocated per generation
/// (sidestepping TIME_WAIT), and the spec file is rewritten so every
/// process of a generation sees the same addresses.
pub fn launch(
    program: &Path,
    spec: &mut ClusterSpec,
    deadline: Duration,
) -> Result<MergedRun, String> {
    let artifact_dir = PathBuf::from(&spec.artifact_dir);
    std::fs::create_dir_all(&artifact_dir)
        .map_err(|e| format!("create {}: {e}", artifact_dir.display()))?;
    let (job, runner) = build(spec)?;
    let roles = roles_of(spec);
    let mut failed_roles = Vec::new();
    loop {
        let generation = failed_roles.len();
        spec.ports =
            free_local_ports(spec.num_endpoints()).map_err(|e| format!("port alloc: {e}"))?;
        let spec_path = artifact_dir.join("CLUSTER.json");
        std::fs::write(&spec_path, spec.to_json())
            .map_err(|e| format!("write {}: {e}", spec_path.display()))?;
        // Stale artifacts from a failed generation would carry the
        // wrong resume point; every generation starts clean.
        for role in &roles {
            let _ = std::fs::remove_file(artifact_dir.join(artifact_name(*role)));
        }
        let cmds: Vec<(String, Command)> = roles
            .iter()
            .map(|role| {
                let mut cmd = Command::new(program);
                cmd.arg("dist")
                    .arg("--role")
                    .arg(role.name())
                    .arg("--index")
                    .arg(role.index().to_string())
                    .arg("--spec")
                    .arg(&spec_path);
                (role.to_string(), cmd)
            })
            .collect();
        let mut fleet = Fleet::spawn(cmds).map_err(|e| format!("spawn fleet: {e}"))?;
        match fleet.wait_all(deadline) {
            FleetOutcome::AllOk => return merge(&job, &runner, spec, failed_roles),
            FleetOutcome::Failed { label, code } => {
                if spec.checkpoint.is_empty() || generation >= spec.max_recoveries {
                    return Err(format!(
                        "generation {generation}: {label} exited with code {code:?} \
                         (recovery budget exhausted or no checkpoint configured)"
                    ));
                }
                eprintln!(
                    "[parallax-net] generation {generation}: {label} exited with code \
                     {code:?}; respawning fleet from latest checkpoint"
                );
                failed_roles.push((label, code));
            }
            FleetOutcome::DeadlineExpired { still_running } => {
                return Err(format!(
                    "generation {generation}: deadline {deadline:?} expired with \
                     [{}] still running",
                    still_running.join(", ")
                ));
            }
        }
    }
}

/// Reads every role artifact of the successful generation and folds
/// them exactly the way `run_attempt`'s thread scope does.
fn merge(
    job: &Job,
    runner: &Runner,
    spec: &ClusterSpec,
    failed_roles: Vec<(String, Option<i32>)>,
) -> Result<MergedRun, String> {
    let artifact_dir = PathBuf::from(&spec.artifact_dir);
    let artifacts: Vec<RoleArtifact> = roles_of(spec)
        .into_iter()
        .map(|role| RoleArtifact::read(&artifact_dir.join(artifact_name(role))))
        .collect::<Result<_, _>>()?;

    let start_iter = artifacts[0].start_iter;
    if artifacts.iter().any(|a| a.start_iter != start_iter) {
        return Err("artifacts disagree on the resume iteration".into());
    }

    let workers = spec.machines * spec.gpus_per_machine;
    let per_worker: Vec<Vec<f32>> = artifacts[..workers]
        .iter()
        .map(|a| a.losses.clone())
        .collect();
    let mean = mean_worker_losses(&per_worker);
    let mut losses = vec![0.0f32; spec.iterations];
    for (slot, &l) in losses[start_iter..].iter_mut().zip(&mean) {
        *slot = l;
    }

    let chief_values = artifacts[0]
        .store
        .clone()
        .ok_or("chief artifact carries no replica store")?;
    let mut chief = VarStore::empty(job.graph().variables().len());
    for (var, value) in chief_values {
        chief
            .set(VarId::from_index(var as usize), value)
            .map_err(|e| format!("chief artifact: {e}"))?;
    }
    let shard_values: Vec<((VarId, usize), Tensor)> = artifacts
        .iter()
        .flat_map(|a| {
            a.shards.iter().map(|((var, part), t)| {
                (
                    (VarId::from_index(*var as usize), *part as usize),
                    t.clone(),
                )
            })
        })
        .collect();
    let final_model = runner
        .stitch_final_model(&chief, shard_values)
        .map_err(|e| e.to_string())?;

    let mut traffic = TrafficReport::default();
    let mut traced_span_bytes = 0u64;
    for a in &artifacts {
        traffic.merge_from(&a.traffic);
        traced_span_bytes += a.span_bytes;
    }
    // Cross-process half of the byte crosscheck: sender-attributed
    // trace spans must account for every measured network byte.
    let measured = traffic.total_network_bytes();
    if traced_span_bytes != measured {
        return Err(format!(
            "traced span bytes {traced_span_bytes} != measured network bytes {measured}"
        ));
    }

    let attempt_iters = (spec.iterations - start_iter).max(1);
    let host_compute_per_iter = artifacts[..workers]
        .iter()
        .map(|a| a.compute_secs)
        .fold(0.0, f64::max)
        / attempt_iters as f64;

    Ok(MergedRun {
        losses,
        grad_norms: artifacts[0].norms.clone(),
        traffic,
        host_compute_per_iter,
        final_model,
        traced_span_bytes,
        failed_roles,
    })
}

// ---------------------------------------------------------------------------
// The dist-check equivalence gate
// ---------------------------------------------------------------------------

/// A fresh per-process temp artifact directory.
fn temp_artifact_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parallax_dist_{}_{tag}", std::process::id()));
    p
}

/// A no-fault test spec for one preset.
fn check_spec(preset: &str, machines: usize, gpus: usize, wire: &str) -> ClusterSpec {
    ClusterSpec {
        preset: preset.into(),
        machines,
        gpus_per_machine: gpus,
        iterations: 2,
        seed: 7,
        wire_format: wire.into(),
        host: "127.0.0.1".into(),
        ports: Vec::new(),
        artifact_dir: temp_artifact_dir(preset).display().to_string(),
        recv_deadline_ms: 20_000,
        fault_spec: String::new(),
        checkpoint: String::new(),
        snapshot: String::new(),
        checkpoint_interval: 0,
        max_recoveries: 0,
        validate_protocol: true,
    }
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One preset's equivalence check: in-process run vs socket run from
/// the identical spec, plus the static per-iteration prediction.
fn check_preset(out: &mut String, program: &Path, mut spec: ClusterSpec) -> Result<bool, String> {
    let label = format!(
        "{} on {} machine(s) x {} GPU(s), wire {}",
        spec.preset,
        spec.machines,
        spec.gpus_per_machine,
        if spec.wire_format.is_empty() {
            "f32"
        } else {
            &spec.wire_format
        }
    );
    let _ = writeln!(out, "-- dist-check: {label} --");

    // In-process reference from the very same spec-derived job.
    let (job, runner) = build(&spec)?;
    let reference = runner
        .run(spec.iterations, |w, i| feed(&job, &runner, w, i))
        .map_err(|e| e.to_string())?;

    // Static prediction, summed per iteration (feeds are
    // iteration-dependent, so each iteration is predicted on its own
    // feeds and the per-class ledgers accumulate).
    let workers = runner.topology().num_workers();
    let mut predicted = TrafficReport::default();
    for i in 0..spec.iterations {
        let feeds: Vec<Feed> = (0..workers).map(|w| feed(&job, &runner, w, i)).collect();
        let (p, conservation) = predict_iteration_traffic(
            job.graph(),
            job.loss(),
            runner.plan(),
            runner.topology(),
            runner.config(),
            &feeds,
        )
        .map_err(|e| e.to_string())?;
        if conservation.has_errors() {
            return Err(format!(
                "iteration {i} byte conservation failed:\n{}",
                conservation.render()
            ));
        }
        predicted.merge_from(&p);
    }

    // The socket run.
    let merged = launch(program, &mut spec, GENERATION_DEADLINE)?;
    let _ = std::fs::remove_dir_all(&spec.artifact_dir);

    let mut ok = true;
    let losses_eq = bitwise_eq(&reference.losses, &merged.losses);
    let _ = writeln!(
        out,
        "losses: {} iterations, bitwise {}",
        merged.losses.len(),
        if losses_eq { "EQUAL" } else { "DIFFER" }
    );
    ok &= losses_eq;

    let mut weights_eq = reference.final_model.len() == merged.final_model.len();
    for (var, t) in &reference.final_model {
        match merged.final_model.get(var) {
            Some(m) => weights_eq &= bitwise_eq(t.data(), m.data()),
            None => weights_eq = false,
        }
    }
    let _ = writeln!(
        out,
        "final model: {} variables, bitwise {}",
        reference.final_model.len(),
        if weights_eq { "EQUAL" } else { "DIFFER" }
    );
    ok &= weights_eq;

    let classes = [
        ("nccl", &reference.traffic.nccl, &merged.traffic.nccl),
        ("mpi", &reference.traffic.mpi, &merged.traffic.mpi),
        ("ps", &reference.traffic.ps, &merged.traffic.ps),
        (
            "local_agg",
            &reference.traffic.local_agg,
            &merged.traffic.local_agg,
        ),
        ("other", &reference.traffic.other, &merged.traffic.other),
    ];
    for (name, r, m) in classes {
        let eq = r == m;
        let _ = writeln!(
            out,
            "traffic[{name}]: in-process {} B / sockets {} B, per-link {}",
            r.total_network_bytes() + r.intra_bytes(),
            m.total_network_bytes() + m.intra_bytes(),
            if eq { "EQUAL" } else { "DIFFER" }
        );
        ok &= eq;
    }

    let pred_classes = [
        ("nccl", &predicted.nccl, &merged.traffic.nccl),
        ("mpi", &predicted.mpi, &merged.traffic.mpi),
        ("ps", &predicted.ps, &merged.traffic.ps),
        ("local_agg", &predicted.local_agg, &merged.traffic.local_agg),
        ("other", &predicted.other, &merged.traffic.other),
    ];
    let pred_eq = pred_classes.iter().all(|(_, p, m)| p == m);
    let _ = writeln!(
        out,
        "static prediction: {} B predicted == {} B measured: {}",
        predicted.total_network_bytes(),
        merged.traffic.total_network_bytes(),
        if pred_eq { "EQUAL" } else { "DIFFER" }
    );
    ok &= pred_eq;

    let _ = writeln!(
        out,
        "traced spans: {} B == measured {} B (asserted at merge)",
        merged.traced_span_bytes,
        merged.traffic.total_network_bytes()
    );
    let _ = writeln!(out, "{label}: {}\n", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// The `repro dist-check` gate: for both presets, launch a local
/// process topology and assert the equivalence guarantee — same seed
/// and plan, bitwise-identical losses and final weights, byte-identical
/// per-class traffic (predicted == traced == measured) between the
/// in-process and socket modes. `program` is the `repro` binary to
/// spawn role processes from (normally `current_exe`).
pub fn run(program: &Path) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(out, "== Distributed equivalence: in-process vs sockets ==");
    let mut all_ok = true;
    // Both presets run on two machines, so ring hops and PS requests
    // cross a (modelled) machine boundary between processes and the
    // network-byte equalities below compare nonzero ledgers.
    for spec in [
        // lm exercises the sparse-PS path and sends its dense AllReduce
        // chunks as f16 words over the sockets.
        check_spec("lm", 2, 1, "f16"),
        check_spec("nmt", 2, 1, "f32"),
    ] {
        match check_preset(&mut out, program, spec) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                let _ = writeln!(out, "dist-check error: {e}");
                all_ok = false;
            }
        }
    }
    let _ = writeln!(out, "dist-check: {}", if all_ok { "PASS" } else { "FAIL" });
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> RoleArtifact {
        let snap = |seed: u64| TrafficSnapshot {
            out_bytes: vec![seed, seed + 1],
            in_bytes: vec![seed + 2, seed + 3],
            link_bytes: HashMap::from([((0, 1), seed + 4)]),
            intra_bytes_per_machine: vec![seed + 5, seed + 6],
            inter_messages: seed + 7,
            intra_messages: seed + 8,
        };
        RoleArtifact {
            role: Role::Worker { index: 3 },
            start_iter: 2,
            span_bytes: 99,
            losses: vec![1.5, -0.25],
            norms: vec![0.5],
            compute_secs: 1.25,
            store: Some(vec![
                (0, Tensor::zeros([2, 2])),
                (2, Tensor::full([3], 7.0)),
            ]),
            shards: vec![((4, 1), Tensor::full([2], -1.0))],
            traffic: TrafficReport {
                nccl: snap(10),
                mpi: snap(20),
                ps: snap(30),
                local_agg: snap(40),
                other: snap(50),
            },
        }
    }

    fn temp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "parallax_artifact_{}_{tag}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn artifact_roundtrips() {
        let a = artifact();
        let path = temp_file("roundtrip");
        a.write(&path).unwrap();
        let b = RoleArtifact::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(b.role, Role::Worker { index: 3 });
        assert_eq!(b.start_iter, 2);
        assert_eq!(b.span_bytes, 99);
        assert_eq!(b.losses, a.losses);
        assert_eq!(b.norms, a.norms);
        assert_eq!(b.compute_secs, a.compute_secs);
        let store = b.store.unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store[0].0, 0);
        assert_eq!(store[0].1.shape().dims(), &[2, 2]);
        assert_eq!(store[1].0, 2);
        assert_eq!(store[1].1.data(), &[7.0, 7.0, 7.0]);
        assert_eq!(b.shards.len(), 1);
        assert_eq!(b.shards[0].0, (4, 1));
        let classes =
            |t: &TrafficReport| [&t.nccl, &t.mpi, &t.ps, &t.local_agg, &t.other].map(Clone::clone);
        assert_eq!(classes(&b.traffic), classes(&a.traffic));
    }

    #[test]
    fn truncated_artifact_fails_cleanly() {
        let path = temp_file("truncated");
        artifact().write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 5, 9, 20, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(RoleArtifact::read(&path).is_err(), "cut {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roles_cover_every_rank_chief_first() {
        let spec = check_spec("lm", 2, 2, "f32");
        let roles = roles_of(&spec);
        assert_eq!(roles.len(), spec.num_endpoints() - 2 + 2);
        assert_eq!(roles[0], Role::Chief);
        assert!(matches!(roles[4], Role::Server { machine: 0 }));
    }

    #[test]
    fn dist_job_builds_for_both_presets() {
        for (preset, machines, gpus) in [("lm", 1, 2), ("nmt", 2, 1)] {
            let spec = check_spec(preset, machines, gpus, "f32");
            let (job, runner) = build(&spec).unwrap_or_else(|e| panic!("{preset}: {e}"));
            assert_eq!(job.name(), preset);
            assert_eq!(runner.topology().num_workers(), machines * gpus);
        }
    }

    #[test]
    fn unknown_preset_and_wire_are_typed_errors() {
        let mut spec = check_spec("tabular", 1, 1, "f32");
        let Err(e) = build(&spec) else {
            panic!("bogus preset accepted")
        };
        assert!(e.contains("unknown preset"));
        spec.preset = "lm".into();
        spec.wire_format = "f8".into();
        let Err(e) = build(&spec) else {
            panic!("bogus wire format accepted")
        };
        assert!(e.contains("unknown wire format"));
    }
}
