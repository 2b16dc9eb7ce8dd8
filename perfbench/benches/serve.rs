//! The serve workloads: `qdn-served` in its own process, driven over a
//! Unix socket by one closed-loop client (the next slot's `Submit` goes
//! out only after the previous `TickOk`), as the slot-clock caller the
//! daemon is built for.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qdn_core::types::Decision;
use qdn_graph::NodeId;
use qdn_net::dynamics::{DynamicsConfig, ResourceDynamics};
use qdn_net::workload::{Workload, WorkloadConfig};
use qdn_net::{CapacitySnapshot, QdnNetwork, SdPair};
use qdn_serve::frame::{read_frame, write_frame};
use qdn_serve::proto::{Advisory, Request, Response};
use qdn_serve::shard::{shard_of, slot_rng};
use qdn_serve::{Client, Daemon, ServeConfig, SubmitOutcome};
use rand::{RngExt, SeedableRng};

use crate::calib::Calibration;
use crate::measure::{
    self, audit, cpus, digest_of, peak_rss_mb, pin_threads, quantile, secs, thread_cpu_ns,
    thread_cpu_seconds, Digest,
};
use crate::step::{probe_alloc, Step, StepCounters};
use crate::trace::{Reconciliation, Tracer, SLOT};
use crate::{Metrics, Outcome, Quality, Windows};

/// The daemon's capacity stream id in `slot_rng` (`DYNAMICS_STREAM` in
/// `crates/serve/src/daemon.rs`). A drift shows as an audit or digest
/// failure.
const DYNAMICS_STREAM: u64 = 1 << 40;
/// Request stream id, as the repository's load generator uses.
const WORKLOAD_STREAM: u64 = 2 << 40;
/// Outage-advisory stream id.
const ADVISORY_STREAM: u64 = 3 << 40;

/// Untimed slots after the handshake, part of set-up.
pub const WARMUP: u64 = 100;
/// Slots the timed phase runs at least; quality metrics cover exactly
/// these slots, so they do not depend on the program's speed.
const QUALITY_SLOTS: u64 = 4000;
/// Timed slots in the decision digest (after the warm-up) and the fewest
/// the traced run rebuilds: p99 then has ≥ 10 samples beyond it.
const DIGEST_SLOTS: u64 = 1000;
/// Throughput is measured per window of the timed phase; the reported
/// rate is the interquartile mean of the windows, so a burst of
/// interference from other processes moves it less than a mean would.
const WINDOW_S: f64 = 1.0;
/// Calibration kernel runs after each throughput window and start-up,
/// left out of the windows.
const CALIBRATION_PER_WINDOW: usize = 4;
/// Daemon start-ups per run; `setup_s` is their median. `SETUP_BEFORE` of
/// them come before the timed phase, the first and the last of those on
/// the run's own request stream (their decisions must agree, and the last
/// goes on to the timed phase); the rest come after it. All but those two
/// warm up on a stream of their own drawn from the seed, so the median
/// neither rests on one stream's first slots nor on one moment of a shared
/// runner.
const SETUP_REPS: usize = 9;
const SETUP_BEFORE: usize = 5;
/// Churn schedule period: each epoch holds one unplanned node cut and one
/// planned maintenance window. The shape is the repository's serve smoke
/// test (`scripts/ci-gate.sh`): a 64-slot run with `qdn-serve-load
/// --kill-node`, which cuts one node over the middle third of the run.
const EPOCH: u64 = 64;
/// The unplanned node cut of each epoch: its middle third,
/// `[EPOCH / 3, 2 * EPOCH / 3)`, as `qdn-serve-load --kill-node` places it.
const CUT: std::ops::Range<u64> = EPOCH / 3..2 * EPOCH / 3;
/// The planned maintenance window of each epoch: four slots over two
/// nodes, the window of the `Maintenance` dynamics example in
/// `MIGRATION.md` (`{"start": 8, "end": 12, "nodes": [3, 4]}`). It is
/// advised at the epoch's first slot, as `qdn-serve-load` advises every
/// window before it drives, so the daemon prewarms its repair.
const MAINTENANCE: std::ops::Range<u64> = 8..12;
/// Epochs per churn round: the schedule cuts every node once per round
/// and maintains every node twice per round, in an order drawn from the
/// seed, so runs of different seeds see the same mix of outages.
const ROUND: u64 = 20;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shards: u32,
    pub churn: bool,
}

impl Spec {
    /// Slots after which the workload's outage schedule repeats its mix.
    fn period(&self) -> u64 {
        if self.churn {
            ROUND * EPOCH
        } else {
            1
        }
    }
}

pub const PERSISTENT: Spec = Spec {
    name: "serve-persistent",
    shards: 2,
    churn: false,
};

pub const CHURN: Spec = Spec {
    name: "serve-churn",
    shards: 1,
    churn: true,
};

/// The daemon configuration: `ServeConfig::paper_default()` (the paper's
/// OSCAR defaults, C = 5000) with the workload's shard count. The network
/// is the paper's 20-node Waxman topology at the daemon's default seed,
/// the same on every run; the workload seed drives the requests, the link
/// churn and the advisories. The link churn rates are those of the
/// daemon's churn test (`restart_warm_is_bit_identical` in
/// `crates/serve/tests/daemon.rs`).
pub fn config(spec: Spec, seed: u64) -> ServeConfig {
    let mut config = ServeConfig::paper_default();
    config.shards = spec.shards;
    config.threads = 1;
    if spec.churn {
        config.dynamics = DynamicsConfig::Churn {
            failure_rate: 0.3,
            mttr: 3.0,
            seed: seed ^ 0xc4e1,
            base: Box::new(DynamicsConfig::Static),
        };
    }
    config
}

fn epoch_plan(seed: u64, epoch: u64, nodes: u32) -> [(u64, Advisory); 2] {
    // Fisher-Yates over the node ids, one permutation per round of
    // `ROUND` epochs.
    let mut order: Vec<u32> = (0..nodes).collect();
    let mut rng = slot_rng(seed, epoch / ROUND, ADVISORY_STREAM);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let n = order.len();
    let k = (epoch % ROUND) as usize;
    let cut = order[k % n];
    let mut maintained = vec![order[(k + n / 2) % n], order[(k + n / 2 + 1) % n]];
    maintained.sort_unstable();
    let base = epoch * EPOCH;
    [
        (
            base,
            Advisory {
                start: base + MAINTENANCE.start,
                end: base + MAINTENANCE.end,
                nodes: maintained,
                planned: true,
            },
        ),
        (
            base + CUT.start,
            Advisory {
                start: base + CUT.start,
                end: base + CUT.end,
                nodes: vec![cut],
                planned: false,
            },
        ),
    ]
}

/// The client-side picture of the daemon's environment: the network, the
/// slot capacities (dynamics stream plus dark overlay) and darkness.
pub struct Model {
    pub network: QdnNetwork,
    spec: Spec,
    seed: u64,
    daemon_seed: u64,
    dynamics: Box<dyn ResourceDynamics>,
    next: u64,
    workload: Box<dyn Workload>,
}

impl Model {
    pub fn new(spec: Spec, seed: u64) -> Result<Model, String> {
        let config = config(spec, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let network = config
            .network
            .build(&mut rng)
            .map_err(|e| format!("network build failed: {e:?}"))?;
        Ok(Model {
            network,
            spec,
            seed,
            daemon_seed: config.seed,
            dynamics: config.dynamics.build(),
            next: 0,
            workload: WorkloadConfig::Persistent {
                pairs_per_slot: 10,
                keep_probability: 0.8,
            }
            .build(),
        })
    }

    fn nodes(&self) -> u32 {
        self.network.node_count() as u32
    }

    /// Advisories the client sends before slot `t`'s `Submit`: per epoch,
    /// a maintenance window advised at the epoch's first slot, before it
    /// opens (so the daemon prewarms its repair), and an unplanned node cut
    /// advised at its first dark slot (already open, so no prewarm).
    pub fn advisories_at(&self, t: u64) -> Vec<Advisory> {
        if !self.spec.churn {
            return Vec::new();
        }
        epoch_plan(self.seed, t / EPOCH, self.nodes())
            .into_iter()
            .filter(|(send, _)| *send == t)
            .map(|(_, a)| a)
            .collect()
    }

    /// Slot `t`'s requests; call once per slot, in slot order.
    pub fn requests(&mut self, t: u64) -> Vec<SdPair> {
        let mut rng = slot_rng(self.seed, t, WORKLOAD_STREAM);
        self.workload.requests(t, &self.network, &mut rng)
    }

    /// Nodes dark at slot `t`, ascending. Every window lies inside its
    /// epoch, so only the current epoch's plan can cover `t`.
    pub fn dark(&self, t: u64) -> Vec<u32> {
        if !self.spec.churn {
            return Vec::new();
        }
        let mut dark: Vec<u32> = epoch_plan(self.seed, t / EPOCH, self.nodes())
            .iter()
            .filter(|(_, a)| a.covers(t))
            .flat_map(|(_, a)| a.nodes.iter().copied())
            .collect();
        dark.sort_unstable();
        dark.dedup();
        dark
    }

    /// Slot `t`'s capacities as the daemon sees them; call once per slot,
    /// in slot order.
    pub fn snapshot(&mut self, t: u64) -> CapacitySnapshot {
        assert_eq!(t, self.next, "capacity snapshots are drawn in slot order");
        self.next += 1;
        let mut rng = slot_rng(self.daemon_seed, t, DYNAMICS_STREAM);
        let snapshot = self.dynamics.snapshot(t, &self.network, &mut rng);
        let dark = self.dark(t);
        if dark.is_empty() {
            return snapshot;
        }
        let graph = self.network.graph();
        let is_dark = |v: NodeId| dark.binary_search(&v.0).is_ok();
        let qubits = graph
            .node_ids()
            .map(|v| if is_dark(v) { 0 } else { snapshot.qubits(v) })
            .collect();
        let channels = graph
            .edges()
            .map(|(e, u, v)| {
                if is_dark(u) || is_dark(v) {
                    0
                } else {
                    snapshot.channels(e)
                }
            })
            .collect();
        CapacitySnapshot::clamped(&self.network, qubits, channels)
    }

    /// Edges an advised window will kill, when the daemon prewarms it:
    /// only for windows not yet open at the next slot `t`.
    pub fn prewarm_edges(&self, advisory: &Advisory, t: u64) -> Option<Vec<qdn_graph::EdgeId>> {
        if advisory.start <= t {
            return None;
        }
        let mut edges: Vec<_> = advisory
            .nodes
            .iter()
            .flat_map(|&n| self.network.graph().neighbors(NodeId(n)).map(|(_, e)| e))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Some(edges)
    }
}

/// A batch touching a dark node is refused whole; the client drops the
/// dark pairs and resubmits the rest. Returns (queued pairs, refused).
fn split_dark(requests: &[SdPair], dark: &[u32]) -> (Vec<SdPair>, u64) {
    let touches = |p: &SdPair| {
        dark.binary_search(&p.source().0).is_ok() || dark.binary_search(&p.destination().0).is_ok()
    };
    if !requests.iter().any(touches) {
        return (requests.to_vec(), 0);
    }
    let kept: Vec<SdPair> = requests.iter().filter(|p| !touches(p)).copied().collect();
    let refused = (requests.len() - kept.len()) as u64;
    (kept, refused)
}

/// Per-slot record of one run of the decision stream.
#[derive(Default)]
struct Log {
    decisions: Vec<Decision>,
    costs: Vec<u64>,
    submitted: Vec<u64>,
    refused: Vec<u64>,
    tick_ms: Vec<f64>,
    /// The daemon's CPU time on the tick's critical path, ms: its main
    /// thread's plus the busiest shard thread's.
    tick_cpu_ms: Vec<f64>,
    ops: u64,
}

/// A `qdn-served` process and the one connection to it.
struct Proc {
    child: Child,
    client: Client<UnixStream>,
    /// Thread ids of the daemon's main thread and of its shard threads,
    /// in shard order.
    threads: Vec<String>,
}

impl Proc {
    fn spawn(config_path: &Path, socket: &Path, shards: u32) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
        let bin = exe.with_file_name("qdn-served");
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(&bin)
            .arg("--socket")
            .arg(socket)
            .arg("--config")
            .arg(config_path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) => {
                    let exited = child.try_wait().map_err(|e| format!("wait daemon: {e}"))?;
                    if exited.is_some() || Instant::now() > deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!(
                            "daemon never accepted on {}: {e}",
                            socket.display()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        let mut proc = Proc {
            child,
            client: Client::new(stream),
            threads: Vec::new(),
        };
        proc.client.hello().map_err(|e| format!("hello: {e}"))?;
        // Each shard thread gets a CPU of its own, as the shard count is
        // chosen for, rather than whichever the kernel's wake-up placement
        // gives it for the run: two shards that land on one CPU for a
        // while decide one after the other. A new thread names itself once
        // it runs, so a shard thread can still be nameless when Hello is
        // answered: retry until all are found.
        let pid = proc.pid();
        loop {
            let pinned = pin_threads(&pid, "qdn-shard-")?;
            if pinned.len() == shards as usize {
                proc.threads = std::iter::once(pid).chain(pinned).collect();
                break;
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "found {} of {shards} shard threads to pin",
                    pinned.len()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(proc)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU nanoseconds of the main thread and of each shard thread.
    fn thread_cpu_ns(&self) -> Result<Vec<u64>, String> {
        let pid = self.pid();
        self.threads
            .iter()
            .map(|tid| thread_cpu_ns(&pid, tid))
            .collect()
    }

    /// Asks the daemon to stop and waits for a clean exit.
    fn shutdown(&mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One slot over the socket: advisories, the (possibly refused and
/// filtered) batch, then the timed `Tick` round trip.
fn socket_slot(proc: &mut Proc, model: &mut Model, t: u64, log: &mut Log) -> Result<(), String> {
    let client = &mut proc.client;
    for advisory in model.advisories_at(t) {
        log.ops += 1;
        client
            .advise(advisory)
            .map_err(|e| format!("advise: {e}"))?;
    }
    let requests = model.requests(t);
    let dark = model.dark(t);
    let (kept, refused) = split_dark(&requests, &dark);
    if !requests.is_empty() {
        log.ops += 1;
        match client
            .submit(&requests)
            .map_err(|e| format!("submit: {e}"))?
        {
            SubmitOutcome::Queued { .. } if refused == 0 => {}
            SubmitOutcome::Degraded { slot, dark_nodes }
                if refused > 0 && slot == t && dark_nodes == dark =>
            {
                if !kept.is_empty() {
                    log.ops += 1;
                    match client.submit(&kept).map_err(|e| format!("resubmit: {e}"))? {
                        SubmitOutcome::Queued { .. } => {}
                        other => {
                            return Err(format!("slot {t}: filtered batch refused: {other:?}"))
                        }
                    }
                }
            }
            other => {
                return Err(format!(
                    "slot {t}: submit answered {other:?}, expected dark nodes {dark:?}"
                ))
            }
        }
    }
    log.ops += 1;
    let before = proc.thread_cpu_ns()?;
    let started = Instant::now();
    let (slot, decision, cost) = proc.client.tick().map_err(|e| format!("tick: {e}"))?;
    log.tick_ms.push(started.elapsed().as_secs_f64() * 1e3);
    let after = proc.thread_cpu_ns()?;
    let spent: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    let busiest_shard = spent[1..].iter().copied().max().unwrap_or(0);
    log.tick_cpu_ms
        .push((spent[0] + busiest_shard) as f64 / 1e6);
    if slot != t {
        return Err(format!("tick answered slot {slot}, expected {t}"));
    }
    log.decisions.push(decision);
    log.costs.push(cost);
    log.submitted.push(requests.len() as u64);
    log.refused.push(refused);
    Ok(())
}

/// Replays the capacities and audits every decision of `log`, one shard's
/// part at a time; also checks each decision covers exactly the queued
/// pairs. Shards decide against the same snapshot without seeing each
/// other's allocations (`daemon.rs`, "Capacity semantics across shards"),
/// so only each part is bound by the capacities. Returns how many merged
/// decisions exceed them.
fn audit_log(spec: Spec, seed: u64, log: &Log) -> Result<u64, String> {
    let mut model = Model::new(spec, seed)?;
    let mut overcommitted = 0;
    for (t, decision) in log.decisions.iter().enumerate() {
        let snapshot = model.snapshot(t as u64);
        for shard in 0..spec.shards as usize {
            let part: Vec<_> = decision
                .assignments()
                .iter()
                .filter(|a| shard_of(a.pair, spec.shards) == shard)
                .cloned()
                .collect();
            audit(&model.network, &snapshot, &Decision::new(part, Vec::new()))
                .map_err(|v| format!("slot {t} shard {shard}: audit failed: {v}"))?;
        }
        if audit(&model.network, &snapshot, decision).is_err() {
            overcommitted += 1;
        }
        let queued = log.submitted[t] - log.refused[t];
        if decision.request_count() as u64 != queued {
            return Err(format!(
                "slot {t}: decision covers {} requests, {queued} were queued",
                decision.request_count()
            ));
        }
    }
    Ok(overcommitted)
}

fn quality(network: &QdnNetwork, log: &Log, slots: std::ops::Range<usize>) -> Quality {
    let mut q = Quality::default();
    for t in slots {
        let d = &log.decisions[t];
        q.submitted += log.submitted[t];
        q.served += d.assignments().len() as u64;
        q.success += d.success_probabilities(network).iter().sum::<f64>();
        q.cost += log.costs[t];
        q.slots += 1;
    }
    q
}

struct Files {
    config: PathBuf,
    socket: PathBuf,
}

impl Files {
    fn new(spec: Spec, seed: u64) -> Result<Files, String> {
        let dir = PathBuf::from(crate::OUT_DIR);
        let tag = format!("{}-{}", spec.name, std::process::id());
        let files = Files {
            config: dir.join(format!("{tag}.json")),
            // Relative and short: socket paths are limited to ~100 bytes.
            socket: dir.join(format!("{}.sock", std::process::id())),
        };
        let wire = serde_json::to_string(&config(spec, seed))
            .map_err(|e| format!("encode config: {e:?}"))?;
        std::fs::write(&files.config, wire)
            .map_err(|e| format!("write {}: {e}", files.config.display()))?;
        Ok(files)
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.config);
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Drives `slots` slots from a fresh daemon, untimed except per tick.
fn socket_run(spec: Spec, seed: u64, files: &Files, slots: u64) -> Result<Log, String> {
    let mut proc = Proc::spawn(&files.config, &files.socket, spec.shards)?;
    let mut model = Model::new(spec, seed)?;
    let mut log = Log {
        ops: 1,
        ..Log::default()
    };
    for t in 0..slots {
        socket_slot(&mut proc, &mut model, t, &mut log)?;
    }
    log.ops += 1;
    proc.shutdown()?;
    Ok(log)
}

/// Workload seed of start-up `rep` of a run with seed `seed`.
fn setup_seed(seed: u64, rep: usize) -> u64 {
    if rep == 0 || rep + 1 == SETUP_BEFORE {
        seed
    } else {
        slot_rng(seed, rep as u64, ADVISORY_STREAM).random()
    }
}

/// A daemon started and warmed up on the request stream of `seed`.
struct Started {
    files: Files,
    proc: Proc,
    model: Model,
    log: Log,
    /// CPU seconds the daemon spent from its spawn through the warm-up.
    cpu_s: f64,
}

fn start_up(spec: Spec, seed: u64) -> Result<Started, String> {
    let files = Files::new(spec, seed)?;
    let mut model = Model::new(spec, seed)?;
    let mut proc = Proc::spawn(&files.config, &files.socket, spec.shards)?;
    let mut log = Log {
        ops: 1,
        ..Log::default()
    };
    for t in 0..WARMUP {
        socket_slot(&mut proc, &mut model, t, &mut log)?;
    }
    // The daemon has answered the last warm-up tick and waits: its CPU
    // time now covers exactly start-up and warm-up.
    let cpu_s = thread_cpu_seconds(&proc.pid())?;
    Ok(Started {
        files,
        proc,
        model,
        log,
        cpu_s,
    })
}

/// The end-to-end run: daemon start-ups with warm-up (those on the run's
/// own seed must decide alike), the closed loop for `seconds`, then the
/// remaining start-ups.
pub fn end_to_end(spec: Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    // The shard threads are pinned to the first `shards` CPUs: their speed
    // is the runner's speed for this workload.
    let cpus = cpus()?;
    let mut calibration = Calibration::new(cpus[..(spec.shards as usize).min(cpus.len())].to_vec());
    let mut warm_digest: Option<Digest> = None;
    let mut kept = None;
    for rep in 0..SETUP_BEFORE {
        let rep_seed = setup_seed(seed, rep);
        let mut started = start_up(spec, rep_seed)?;
        setup.push(started.cpu_s);
        calibration.sample(CALIBRATION_PER_WINDOW)?;
        if rep_seed == seed {
            let digest = digest_of(&started.log.decisions);
            if *warm_digest.get_or_insert(digest) != digest {
                return Err(format!(
                    "start-up {rep}: warm-up decisions differ from start-up 0"
                ));
            }
        }
        if rep + 1 < SETUP_BEFORE {
            started.proc.shutdown()?;
        } else {
            kept = Some(started);
        }
    }
    let Started {
        files: _files,
        mut proc,
        mut model,
        mut log,
        ..
    } = kept.expect("at least one start-up");

    let pid = proc.pid();
    let mut windows = Windows::new(thread_cpu_seconds(&pid)?);
    let mut t = WARMUP;
    // The timed phase ends on a schedule boundary, so every run measures
    // whole rounds of the churn schedule, whose slots cost more or less
    // as the node cut moves across the network.
    while t - WARMUP < QUALITY_SLOTS || secs(windows.started) < seconds || t % spec.period() != 0 {
        socket_slot(&mut proc, &mut model, t, &mut log)?;
        let decided = log.decisions[t as usize].request_count() as u64;
        if windows.record(decided, WINDOW_S, || thread_cpu_seconds(&pid))? {
            calibration.sample(CALIBRATION_PER_WINDOW)?;
            windows.restart(thread_cpu_seconds(&pid)?);
        }
        t += 1;
    }
    // The last, partial window is dropped: its rates would rest on a
    // fraction of a second and a few CPU clock ticks.
    let rss = peak_rss_mb(&pid)?;
    log.ops += 1;
    proc.shutdown()?;
    for rep in SETUP_BEFORE..SETUP_REPS {
        let mut started = start_up(spec, setup_seed(seed, rep))?;
        setup.push(started.cpu_s);
        started.proc.shutdown()?;
        calibration.sample(CALIBRATION_PER_WINDOW)?;
    }

    let overcommitted = audit_log(spec, seed, &log)?;
    eprintln!(
        "{}: {overcommitted} of {} merged decisions exceed the slot capacities across shards",
        spec.name,
        log.decisions.len()
    );
    let timed = WARMUP as usize..log.decisions.len();
    let config = config(spec, seed);
    let window = WARMUP as usize..(WARMUP + QUALITY_SLOTS) as usize;
    Ok(Outcome {
        metrics: Metrics {
            setup_s: measure::median(&setup),
            setup_samples: setup,
            slot_ms: log.tick_cpu_ms[timed.clone()].to_vec(),
            windows,
            peak_rss_mb: rss,
            quality: quality(&model.network, &log, window),
            slot_budget: config.oscar.total_budget / config.oscar.horizon as f64,
            ops: log.ops,
            calibration,
            slot_note: format!(
                ": the daemon's CPU time on each Tick's critical path (main thread + busiest \
                 shard); Tick round trip as the client sees it: p50 {:.3} ms, p99 {:.3} ms",
                quantile(&log.tick_ms[timed.clone()], 0.5),
                quantile(&log.tick_ms[timed.clone()], 0.99)
            ),
        },
        digest: digest_of(&log.decisions[..(WARMUP + DIGEST_SLOTS) as usize]),
        digest_slots: WARMUP + DIGEST_SLOTS,
    })
}

/// The daemon's tick rebuilt in-process from public calls: slot inputs,
/// the shard split, and each shard's step in turn, with what it measured.
struct Rebuild {
    config: ServeConfig,
    model: Model,
    steps: Vec<Step>,
    tracer: Tracer,
    traced: bool,
    decisions: Vec<Decision>,
    slot_us: Vec<f64>,
    counters: Vec<StepCounters>,
    select_us: Vec<f64>,
    skew: Vec<f64>,
    backlog: Vec<f64>,
    alloc: Vec<(f64, u64)>,
}

impl Rebuild {
    fn new(spec: Spec, seed: u64, traced: bool) -> Result<Rebuild, String> {
        let config = config(spec, seed);
        let steps = (0..config.shards)
            .map(|_| Step::new(&config.oscar, config.shards))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rebuild {
            config,
            model: Model::new(spec, seed)?,
            steps,
            tracer: Tracer::new(false),
            traced,
            decisions: Vec::new(),
            slot_us: Vec::new(),
            counters: Vec::new(),
            select_us: Vec::new(),
            skew: Vec::new(),
            backlog: Vec::new(),
            alloc: Vec::new(),
        })
    }

    /// Decides the next slot.
    fn slot(&mut self) {
        let t = self.decisions.len() as u64;
        let shards = self.config.shards;
        let model = &mut self.model;
        // Warm-up slots are decided but not traced, as they are not timed
        // in the end-to-end run.
        let tracer = &mut self.tracer;
        tracer.set_on(self.traced && t >= WARMUP);
        for advisory in model.advisories_at(t) {
            if let Some(edges) = model.prewarm_edges(&advisory, t) {
                for step in &mut self.steps {
                    step.prewarm(&model.network, &edges);
                }
            }
        }
        let requests = model.requests(t);
        let (queued, _) = split_dark(&requests, &model.dark(t));
        tracer.set_slot(t);
        let slot_started = Instant::now();
        let root = tracer.begin(SLOT);

        let span = tracer.begin("daemon.inputs");
        let snapshot = model.snapshot(t);
        let mut per_shard: Vec<Vec<SdPair>> = vec![Vec::new(); shards as usize];
        for &pair in &queued {
            per_shard[shard_of(pair, shards)].push(pair);
        }
        tracer.end(span);

        let mut assignments = Vec::new();
        let mut unserved = Vec::new();
        let mut slot_counters = StepCounters::default();
        let mut shard_us = Vec::new();
        let mut shard_decisions = Vec::new();
        for (i, step) in self.steps.iter_mut().enumerate() {
            let span = tracer.begin("shard");
            let mut rng = slot_rng(self.config.seed, t, i as u64);
            let (decision, counters) =
                step.decide(&model.network, &snapshot, &per_shard[i], &mut rng, tracer);
            tracer.end(span);
            shard_us.push(tracer.micros(span).unwrap_or(0.0));
            self.select_us.push(counters.select_us);
            slot_counters.add(&counters);
            assignments.extend_from_slice(decision.assignments());
            unserved.extend_from_slice(decision.unserved());
            shard_decisions.push((counters.price, decision));
        }
        let span = tracer.begin("daemon.merge");
        let decision = Decision::new(assignments, unserved);
        tracer.end(span);
        tracer.end(root);
        self.slot_us
            .push(slot_started.elapsed().as_secs_f64() * 1e6);

        if tracer.is_on() {
            let max = shard_us.iter().copied().fold(0.0, f64::max);
            self.skew
                .push(max / measure::mean(&shard_us).max(f64::MIN_POSITIVE));
            for (price, d) in &shard_decisions {
                let span = tracer.begin("alloc.probe");
                let probe = probe_alloc(&model.network, &snapshot, &self.config.oscar, *price, d);
                tracer.end(span);
                self.alloc.extend(probe);
            }
        }
        self.counters.push(slot_counters);
        self.backlog
            .push(self.steps.iter().map(Step::queue_value).sum());
        self.decisions.push(decision);
    }
}

/// What the in-process daemon measured: `Daemon::handle(Tick)` and the
/// codec of each slot's messages.
struct InProcess {
    decisions: Vec<Decision>,
    handle_tick_us: Vec<f64>,
    codec_us: Vec<f64>,
    frame_bytes: Vec<f64>,
}

/// JSON encode + `write_frame` + `read_frame` + JSON decode of one message;
/// returns the decoded copy and the frame size.
fn codec<T: serde::Serialize + serde::Deserialize>(
    message: &T,
    buf: &mut Vec<u8>,
) -> Result<(T, usize), String> {
    buf.clear();
    let wire = serde_json::to_string(message).map_err(|e| format!("encode: {e:?}"))?;
    write_frame(buf, wire.as_bytes()).map_err(|e| format!("frame: {e}"))?;
    let mut reader = &buf[..];
    let payload = read_frame(&mut reader).map_err(|e| format!("unframe: {e}"))?;
    let text = String::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
    let back = serde_json::from_str(&text).map_err(|e| format!("decode: {e:?}"))?;
    Ok((back, buf.len()))
}

fn in_process(spec: Spec, seed: u64, slots: u64) -> Result<InProcess, String> {
    let mut daemon = Daemon::new(config(spec, seed))?;
    let mut model = Model::new(spec, seed)?;
    let mut out = InProcess {
        decisions: Vec::new(),
        handle_tick_us: Vec::new(),
        codec_us: Vec::new(),
        frame_bytes: Vec::new(),
    };
    let mut buf = Vec::new();
    for t in 0..slots {
        for advisory in model.advisories_at(t) {
            match daemon.handle(Request::Advise { advisory }) {
                Response::AdviseOk { .. } => {}
                other => return Err(format!("slot {t}: advise answered {other:?}")),
            }
        }
        let requests = model.requests(t);
        let (queued, refused) = split_dark(&requests, &model.dark(t));
        let mut codec_us = 0.0;
        let mut bytes = 0usize;
        let mut submit = |pairs: &[SdPair], daemon: &mut Daemon| -> Result<Response, String> {
            let request = Request::Submit {
                pairs: pairs
                    .iter()
                    .map(|p| (p.source().0, p.destination().0))
                    .collect(),
            };
            let started = Instant::now();
            let (request, n) = codec(&request, &mut buf)?;
            codec_us += started.elapsed().as_secs_f64() * 1e6;
            bytes += n;
            Ok(daemon.handle(request))
        };
        if !requests.is_empty() {
            match submit(&requests, &mut daemon)? {
                Response::SubmitOk { .. } if refused == 0 => {}
                Response::Degraded { .. } if refused > 0 => {
                    if !queued.is_empty() {
                        match submit(&queued, &mut daemon)? {
                            Response::SubmitOk { .. } => {}
                            other => return Err(format!("slot {t}: resubmit answered {other:?}")),
                        }
                    }
                }
                other => return Err(format!("slot {t}: submit answered {other:?}")),
            }
        }
        let started = Instant::now();
        let (tick, n) = codec(&Request::Tick, &mut buf)?;
        codec_us += started.elapsed().as_secs_f64() * 1e6;
        bytes += n;
        let started = Instant::now();
        let response = daemon.handle(tick);
        out.handle_tick_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let (response, n) = codec(&response, &mut buf)?;
        codec_us += started.elapsed().as_secs_f64() * 1e6;
        bytes += n;
        match response {
            Response::TickOk { slot, decision, .. } if slot == t => out.decisions.push(decision),
            other => return Err(format!("slot {t}: tick answered {other:?}")),
        }
        out.codec_us.push(codec_us);
        out.frame_bytes.push(bytes as f64);
    }
    Ok(out)
}

/// First slot at which two decision streams differ, if any.
fn first_mismatch(a: &[Decision], b: &[Decision]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    (0..a.len()).find(|&t| {
        let (mut x, mut y) = (Digest::new(), Digest::new());
        x.push(t as u64, &a[t]);
        y.push(t as u64, &b[t]);
        x != y
    })
}

/// The traced run: the rebuilt step traced and untraced for half of
/// `seconds`, then the same slots through the in-process daemon and over
/// the socket. All four decision streams must be byte-identical.
pub fn traced(spec: Spec, seed: u64, seconds: f64) -> Result<crate::Traced, String> {
    // The traced and untraced rebuilds run in lock-step, alternating which
    // goes first, so both see the same machine conditions and the
    // difference between them is the tracing overhead.
    let mut traced = Rebuild::new(spec, seed, true)?;
    let mut plain = Rebuild::new(spec, seed, false)?;
    let started = Instant::now();
    while traced.decisions.len() < (WARMUP + DIGEST_SLOTS) as usize || secs(started) < seconds / 2.0
    {
        if traced.decisions.len().is_multiple_of(2) {
            traced.slot();
            plain.slot();
        } else {
            plain.slot();
            traced.slot();
        }
    }
    let n = traced.decisions.len() as u64;
    let daemon = in_process(spec, seed, n)?;
    let files = Files::new(spec, seed)?;
    let socket = socket_run(spec, seed, &files, n)?;
    let overcommitted = audit_log(spec, seed, &socket)?;
    for (name, stream) in [
        ("untraced rebuild", &plain.decisions),
        ("in-process daemon", &daemon.decisions),
        ("socket daemon", &socket.decisions),
    ] {
        if let Some(t) = first_mismatch(&traced.decisions, stream) {
            return Err(format!(
                "traced rebuild and {name} decide slot {t} differently"
            ));
        }
    }

    let timed = WARMUP as usize..n as usize;
    let rec = Reconciliation::of(&[&traced.tracer]);
    let mut total = StepCounters::default();
    for c in &traced.counters[timed.clone()] {
        total.add(c);
    }
    let slots = (n - WARMUP) as f64;
    let sync: Vec<f64> = traced.counters[timed.clone()]
        .iter()
        .map(|c| c.sync_us)
        .collect();
    let shard_steps = spec.shards as usize;
    let select: Vec<f64> = traced.select_us[WARMUP as usize * shard_steps..].to_vec();
    let traced_p50 = quantile(&traced.slot_us[timed.clone()], 0.5);
    let plain_p50 = quantile(&plain.slot_us[timed.clone()], 0.5);
    let alloc_us: Vec<f64> = traced.alloc.iter().map(|a| a.0).collect();
    let alloc_vars: Vec<f64> = traced.alloc.iter().map(|a| a.1 as f64).collect();

    let mut m = crate::LayerMetrics::default();
    m.set(
        "serve.handle_tick_us_p50",
        quantile(&daemon.handle_tick_us[timed.clone()], 0.5),
    );
    m.set(
        "serve.handle_tick_us_p99",
        quantile(&daemon.handle_tick_us[timed.clone()], 0.99),
    );
    m.set(
        "serve.codec_us_per_slot",
        measure::mean(&daemon.codec_us[timed.clone()]),
    );
    m.set(
        "serve.tick_frame_bytes",
        measure::mean(&daemon.frame_bytes[timed.clone()]),
    );
    m.set("serve.shard_skew_p99", quantile(&traced.skew, 0.99));
    m.set("serve.overcommit_share", overcommitted as f64 / n as f64);
    m.set("routes.sync_us_p50", quantile(&sync, 0.5));
    m.set("routes.sync_us_p99", quantile(&sync, 0.99));
    crate::set_route_metrics(&mut m, &traced.counters[timed.clone()]);
    let degraded = socket.refused[timed.clone()]
        .iter()
        .filter(|&&r| r > 0)
        .count();
    m.set("serve.degraded_slot_share", degraded as f64 / slots);
    crate::set_eval_metrics(&mut m, &total, slots, &select);
    m.set("alloc.final_solve_us_p50", quantile(&alloc_us, 0.5));
    m.set("alloc.instance_vars_p50", quantile(&alloc_vars, 0.5));
    m.set(
        "queue.backlog_mean",
        measure::mean(&traced.backlog[timed.clone()]),
    );
    m.na("sim.decide_share");
    m.na("sim.env_us_per_slot");
    m.na("sim.decide_wall_to_cpu");
    m.na("pool.fanout_efficiency");
    m.na("pool.tasks_stolen");
    crate::set_trace_metrics(&mut m, &rec, traced_p50, plain_p50);
    Ok(crate::Traced {
        metrics: m,
        table: rec.table(&["alloc.probe"]),
        tracers: vec![("rebuild".to_string(), traced.tracer)],
        digest: digest_of(&traced.decisions[..(WARMUP + DIGEST_SLOTS) as usize]),
        digest_slots: WARMUP + DIGEST_SLOTS,
        attempted: socket.ops,
    })
}
