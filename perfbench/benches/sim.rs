//! The sim-paper workload: the paper's own evaluation, in-process.
//! `qdn_sim::trial::run_trials` runs OSCAR at the paper's defaults on the
//! paper network with `Uniform{1,5}` requests and Markov occupancy, trials
//! of 200 slots fanned out on the pool at width 2. A wrapper policy times
//! each `RoutingPolicy::decide` and audits its decision.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use qdn_core::policy::RoutingPolicy;
use qdn_core::types::{Decision, SlotState};
use qdn_core::{OscarConfig, OscarPolicy};
use qdn_net::dynamics::{DynamicsConfig, ResourceDynamics};
use qdn_net::workload::{Workload, WorkloadConfig};
use qdn_net::{NetworkConfig, QdnNetwork};
use qdn_sim::trial::{run_trials, TrialConfig, TrialSetup};
use qdn_sim::SimConfig;
use rand::SeedableRng;

use crate::calib::Calibration;
use crate::measure::{
    self, audit, peak_rss_mb, quantile, secs, this_thread_cpu_s, thread_cpu_seconds, Digest,
};
use crate::step::{probe_alloc, Step, StepCounters};
use crate::trace::{Reconciliation, Tracer, SLOT};
use crate::{LayerMetrics, Metrics, Outcome, Quality, Traced, Windows};

pub const NAME: &str = "sim-paper";
/// Trials per `run_trials` call (a round): `TrialConfig::paper_default()`'s
/// five, the paper's trials per data point.
const TRIALS: usize = 5;
/// Trial fan-out width: the runner's two CPUs. The thread that calls
/// `run_trials` also runs trials while it waits (the pool's help-first
/// scope), so up to three trials run at once on two CPUs, as for every
/// caller of `run_trials`. Throughput includes that time slicing; slot
/// latency, the deciding thread's CPU time, leaves it out, as it measures
/// the scheduler rather than the decision.
const WIDTH: usize = 2;
/// Trial set-ups timed before the first round and after each quality
/// round; `setup_s` is their median. Spread over the run, they sample a
/// shared runner at many moments instead of in one fraction of a second.
const SETUP_PER_ROUND: usize = 3;
/// Calibration kernel runs after each round, left out of its window.
const CALIBRATION_PER_ROUND: usize = 4;
/// Rounds the timed phase runs at least: 50 trials, the paper's 5 per
/// data point ten times over, each on a fresh network. Quality metrics
/// cover exactly these, so they do not depend on the program's speed.
const QUALITY_ROUNDS: usize = 10;
/// Rounds in the decision digest, and the fewest the traced run runs.
const DIGEST_ROUNDS: usize = 2;

/// Trial seeds of round `round`: disjoint across rounds and seeds.
fn base_seed(seed: u64, round: u64) -> u64 {
    (seed << 20).wrapping_add(round * TRIALS as u64)
}

fn trial_config(seed: u64, round: u64, threads: usize) -> TrialConfig {
    TrialConfig {
        trials: TRIALS,
        base_seed: base_seed(seed, round),
        threads,
        sim: SimConfig::paper_default(),
    }
}

type Environment = (QdnNetwork, Box<dyn Workload>, Box<dyn ResourceDynamics>);

/// A trial's network, request generator and occupancy process.
fn environment(trial_seed: u64) -> Environment {
    let mut rng = rand::rngs::StdRng::seed_from_u64(trial_seed);
    let network = NetworkConfig::paper_default()
        .build(&mut rng)
        .expect("the paper network builds for every seed");
    let workload = WorkloadConfig::paper_default().build();
    let dynamics = DynamicsConfig::Markov {
        p_busy: 0.2,
        p_free: 0.5,
        busy_fraction: 0.5,
    }
    .build();
    (network, workload, dynamics)
}

/// Everything one trial's wrapper recorded.
#[derive(Default)]
struct TrialLog {
    digest: Option<Digest>,
    decide_us: Vec<f64>,
    /// The deciding thread's CPU time per `decide`, µs.
    decide_cpu_us: Vec<f64>,
    quality: Quality,
    audit: Option<String>,
    busy_s: f64,
    tracer: Option<Tracer>,
    counters: Vec<StepCounters>,
    select_us: Vec<f64>,
    backlog: Vec<f64>,
    alloc: Vec<(f64, u64)>,
}

type Sink = Arc<Mutex<Vec<Option<TrialLog>>>>;

enum Inner {
    Oscar(OscarPolicy),
    Traced {
        step: Step,
        oscar: OscarConfig,
        tracer: Tracer,
    },
}

/// The policy under test behind a timing and auditing wrapper. Its log
/// goes to the sink when the trial drops it.
struct Measured {
    inner: Inner,
    index: usize,
    sink: Sink,
    started: Instant,
    log: TrialLog,
}

impl std::fmt::Debug for Measured {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Measured")
            .field("index", &self.index)
            .finish()
    }
}

impl RoutingPolicy for Measured {
    fn name(&self) -> String {
        "OSCAR".into()
    }

    fn decide(
        &mut self,
        network: &QdnNetwork,
        slot: &SlotState,
        rng: &mut dyn rand::Rng,
    ) -> Decision {
        let started = Instant::now();
        let decision = match &mut self.inner {
            Inner::Oscar(policy) => {
                let cpu = this_thread_cpu_s();
                let decision = policy.decide(network, slot, rng);
                self.log
                    .decide_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                self.log
                    .decide_cpu_us
                    .push((this_thread_cpu_s() - cpu) * 1e6);
                decision
            }
            Inner::Traced {
                step,
                oscar,
                tracer,
            } => {
                tracer.set_slot(slot.t());
                let root = tracer.begin(SLOT);
                let (decision, counters) =
                    step.decide(network, slot.snapshot(), slot.requests(), rng, tracer);
                tracer.end(root);
                self.log
                    .decide_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                let span = tracer.begin("alloc.probe");
                let probe = probe_alloc(network, slot.snapshot(), oscar, counters.price, &decision);
                tracer.end(span);
                self.log.alloc.extend(probe);
                self.log.select_us.push(counters.select_us);
                self.log.counters.push(counters);
                self.log.backlog.push(step.queue_value());
                decision
            }
        };
        if self.log.audit.is_none() {
            if let Err(v) = audit(network, slot.snapshot(), &decision) {
                self.log.audit = Some(format!("trial {} slot {}: {v}", self.index, slot.t()));
            }
        }
        let q = &mut self.log.quality;
        q.submitted += slot.requests().len() as u64;
        q.served += decision.assignments().len() as u64;
        q.success += decision.success_probabilities(network).iter().sum::<f64>();
        q.cost += decision.total_cost();
        q.slots += 1;
        self.log
            .digest
            .get_or_insert_with(Digest::new)
            .push(slot.t(), &decision);
        decision
    }

    fn reset(&mut self) {
        match &mut self.inner {
            Inner::Oscar(policy) => policy.reset(),
            Inner::Traced { step, oscar, .. } => {
                *step = Step::new(oscar, 1).expect("config checked when the trial was built");
            }
        }
    }
}

impl Drop for Measured {
    fn drop(&mut self) {
        self.log.busy_s = secs(self.started);
        if let Inner::Traced { tracer, .. } = &mut self.inner {
            self.log.tracer = Some(std::mem::replace(tracer, Tracer::new(false)));
        }
        let log = std::mem::take(&mut self.log);
        if let Ok(mut sink) = self.sink.lock() {
            sink[self.index] = Some(log);
        }
    }
}

struct Round {
    logs: Vec<TrialLog>,
    wall_s: f64,
}

impl Round {
    fn slots(&self) -> u64 {
        self.logs.iter().map(|l| l.quality.slots).sum()
    }

    fn digests(&self) -> Vec<Option<Digest>> {
        self.logs.iter().map(|l| l.digest).collect()
    }
}

fn run_round(seed: u64, round: u64, threads: usize, traced: bool) -> Result<Round, String> {
    let config = trial_config(seed, round, threads);
    let oscar = OscarConfig::paper_default();
    if traced {
        Step::new(&oscar, 1)?;
    }
    let sink: Sink = Arc::new(Mutex::new((0..TRIALS).map(|_| None).collect()));
    let started = Instant::now();
    run_trials(&config, |trial_seed| {
        let begun = Instant::now();
        let index = trial_seed.wrapping_sub(config.base_seed) as usize;
        let (network, workload, dynamics) = environment(trial_seed);
        let inner = if traced {
            Inner::Traced {
                step: Step::new(&oscar, 1).expect("checked before the fan-out"),
                oscar: oscar.clone(),
                tracer: Tracer::new(true),
            }
        } else {
            Inner::Oscar(OscarPolicy::new(oscar.clone()))
        };
        TrialSetup {
            network,
            workload,
            dynamics,
            policy: Box::new(Measured {
                inner,
                index,
                sink: Arc::clone(&sink),
                started: begun,
                log: TrialLog::default(),
            }),
        }
    });
    let wall_s = secs(started);
    let mut logs = Vec::new();
    for (i, log) in sink
        .lock()
        .map_err(|_| "a trial panicked holding the log sink".to_string())?
        .iter_mut()
        .enumerate()
    {
        let log = log.take().ok_or_else(|| format!("trial {i} left no log"))?;
        if let Some(violation) = &log.audit {
            return Err(format!("audit failed: {violation}"));
        }
        logs.push(log);
    }
    Ok(Round { logs, wall_s })
}

/// One digest over the rounds' per-trial decision digests, in order.
fn rounds_digest(rounds: &[Round]) -> Digest {
    let mut d = Digest::new();
    let trials = rounds.iter().flat_map(Round::digests);
    for (i, digest) in trials.enumerate() {
        d.push_word(i as u64, digest.map_or(0, |x| x.value()));
    }
    d
}

/// CPU seconds the calling thread spends building the quality rounds'
/// trials (network, workload, dynamics, policy).
fn time_setup(seed: u64, oscar: &OscarConfig) -> f64 {
    let started = this_thread_cpu_s();
    let built: Vec<(Environment, OscarPolicy)> = (0..QUALITY_ROUNDS)
        .flat_map(|round| {
            let base = base_seed(seed, round as u64);
            (0..TRIALS).map(move |i| qdn_sim::trial::trial_seed(base, i))
        })
        .map(|trial_seed| (environment(trial_seed), OscarPolicy::new(oscar.clone())))
        .collect();
    let elapsed = this_thread_cpu_s() - started;
    std::hint::black_box(built);
    elapsed
}

/// The end-to-end run: rounds of trials for `seconds` with the trial
/// set-up timed between them, then round 0 again at width 1, whose
/// decisions must match width 2.
pub fn end_to_end(seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Start the pool outside every timed phase.
    threadpool::global_with(WIDTH);
    let oscar = OscarConfig::paper_default();
    let mut setup = vec![time_setup(seed, &oscar)];
    // The trials run on every CPU.
    let mut calibration = Calibration::new(measure::cpus()?);
    calibration.sample(CALIBRATION_PER_ROUND)?;

    // One throughput window per round; set-up between rounds is left out.
    let mut windows = Windows::new(thread_cpu_seconds("self")?);
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < QUALITY_ROUNDS || secs(windows.started) < seconds {
        let round = run_round(seed, rounds.len() as u64, WIDTH, false)?;
        let decided = round.logs.iter().map(|l| l.quality.submitted).sum();
        windows.record(decided, 0.0, || thread_cpu_seconds("self"))?;
        rounds.push(round);
        if rounds.len() <= QUALITY_ROUNDS {
            for _ in 0..SETUP_PER_ROUND {
                setup.push(time_setup(seed, &oscar));
            }
        }
        calibration.sample(CALIBRATION_PER_ROUND)?;
        windows.restart(thread_cpu_seconds("self")?);
    }
    let rss = peak_rss_mb("self")?;

    let serial = run_round(seed, 0, 1, false)?;
    if serial.digests() != rounds[0].digests() {
        return Err("round 0 decides differently at fan-out width 1 and 2".into());
    }

    let slot_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.logs.iter())
        .flat_map(|l| l.decide_cpu_us.iter().map(|us| us / 1e3))
        .collect();
    let wall_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.logs.iter())
        .flat_map(|l| l.decide_us.iter().map(|us| us / 1e3))
        .collect();
    let slot_note = format!(
        ": the deciding thread's CPU time per decide; wall time p50 {:.3} ms, p99 {:.3} ms",
        quantile(&wall_ms, 0.5),
        quantile(&wall_ms, 0.99)
    );
    let mut quality = Quality::default();
    for log in rounds[..QUALITY_ROUNDS].iter().flat_map(|r| r.logs.iter()) {
        quality.add(&log.quality);
    }
    Ok(Outcome {
        metrics: Metrics {
            setup_s: measure::median(&setup),
            setup_samples: setup,
            slot_ms,
            windows,
            peak_rss_mb: rss,
            quality,
            slot_budget: oscar.total_budget / oscar.horizon as f64,
            ops: rounds.iter().map(Round::slots).sum(),
            calibration,
            slot_note,
        },
        digest: rounds_digest(&rounds[..DIGEST_ROUNDS]),
        digest_slots: rounds[..DIGEST_ROUNDS].iter().map(Round::slots).sum(),
    })
}

/// The traced run: rounds with the rebuilt, traced step alternate with
/// the same rounds through the program's policy for half of `seconds`;
/// the two must decide identically.
pub fn traced(seed: u64, seconds: f64) -> Result<Traced, String> {
    let pool = threadpool::global_with(WIDTH);
    // Traced and untraced rounds alternate (and alternate which goes
    // first), so both see the same machine conditions.
    let started = Instant::now();
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let mut stolen = 0;
    while traced.len() < DIGEST_ROUNDS || secs(started) < seconds / 2.0 {
        let round = traced.len() as u64;
        let mut run_plain = || -> Result<Round, String> {
            let before = pool.stats().stolen;
            let r = run_round(seed, round, WIDTH, false)?;
            stolen += pool.stats().stolen - before;
            Ok(r)
        };
        if round.is_multiple_of(2) {
            traced.push(run_round(seed, round, WIDTH, true)?);
            plain.push(run_plain()?);
        } else {
            plain.push(run_plain()?);
            traced.push(run_round(seed, round, WIDTH, true)?);
        }
    }
    for (r, (a, b)) in traced.iter().zip(&plain).enumerate() {
        if a.digests() != b.digests() {
            return Err(format!(
                "round {r}: traced step and OscarPolicy decide differently"
            ));
        }
    }

    let traced_logs: Vec<&TrialLog> = traced.iter().flat_map(|r| r.logs.iter()).collect();
    let plain_logs: Vec<&TrialLog> = plain.iter().flat_map(|r| r.logs.iter()).collect();
    let tracers: Vec<&Tracer> = traced_logs
        .iter()
        .filter_map(|l| l.tracer.as_ref())
        .collect();
    let rec = Reconciliation::of(&tracers);
    let mut total = StepCounters::default();
    for c in traced_logs.iter().flat_map(|l| l.counters.iter()) {
        total.add(c);
    }
    let slots = traced_logs.iter().map(|l| l.quality.slots).sum::<u64>() as f64;
    let sync: Vec<f64> = traced_logs
        .iter()
        .flat_map(|l| l.counters.iter().map(|c| c.sync_us))
        .collect();
    let select: Vec<f64> = traced_logs
        .iter()
        .flat_map(|l| l.select_us.iter().copied())
        .collect();
    let alloc_us: Vec<f64> = traced_logs
        .iter()
        .flat_map(|l| l.alloc.iter().map(|a| a.0))
        .collect();
    let alloc_vars: Vec<f64> = traced_logs
        .iter()
        .flat_map(|l| l.alloc.iter().map(|a| a.1 as f64))
        .collect();
    let backlog: Vec<f64> = traced_logs
        .iter()
        .flat_map(|l| l.backlog.iter().copied())
        .collect();
    let decide = |logs: &[&TrialLog]| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.decide_us.iter().copied())
            .collect()
    };
    let plain_decide: f64 = decide(&plain_logs).iter().sum::<f64>() / 1e6;
    let plain_busy: f64 = plain_logs.iter().map(|l| l.busy_s).sum();
    let plain_wall: f64 = plain.iter().map(|r| r.wall_s).sum();

    let mut m = LayerMetrics::default();
    m.na("serve.handle_tick_us_p50");
    m.na("serve.handle_tick_us_p99");
    m.na("serve.codec_us_per_slot");
    m.na("serve.tick_frame_bytes");
    m.na("serve.shard_skew_p99");
    m.na("serve.overcommit_share");
    m.na("serve.degraded_slot_share");
    for name in [
        "self.daemon_inputs_us",
        "self.shard_us",
        "self.daemon_merge_us",
    ] {
        m.na(name);
    }
    m.set("routes.sync_us_p50", quantile(&sync, 0.5));
    m.set("routes.sync_us_p99", quantile(&sync, 0.99));
    let counters: Vec<StepCounters> = traced_logs
        .iter()
        .flat_map(|l| l.counters.iter().copied())
        .collect();
    crate::set_route_metrics(&mut m, &counters);
    crate::set_eval_metrics(&mut m, &total, slots, &select);
    m.set("alloc.final_solve_us_p50", quantile(&alloc_us, 0.5));
    m.set("alloc.instance_vars_p50", quantile(&alloc_vars, 0.5));
    m.set("queue.backlog_mean", measure::mean(&backlog));
    m.set(
        "sim.decide_share",
        plain_decide / plain_busy.max(f64::MIN_POSITIVE),
    );
    m.set(
        "sim.env_us_per_slot",
        1e6 * (plain_busy - plain_decide) / slots,
    );
    let plain_decide_cpu: f64 = plain_logs
        .iter()
        .flat_map(|l| l.decide_cpu_us.iter())
        .sum::<f64>()
        / 1e6;
    m.set(
        "sim.decide_wall_to_cpu",
        plain_decide / plain_decide_cpu.max(f64::MIN_POSITIVE),
    );
    m.set(
        "pool.fanout_efficiency",
        plain_busy / (plain_wall * WIDTH as f64).max(f64::MIN_POSITIVE),
    );
    m.set("pool.tasks_stolen", stolen as f64 / plain.len() as f64);
    crate::set_trace_metrics(
        &mut m,
        &rec,
        quantile(&decide(&traced_logs), 0.5),
        quantile(&decide(&plain_logs), 0.5),
    );
    let digest = rounds_digest(&plain[..DIGEST_ROUNDS]);
    let digest_slots = plain[..DIGEST_ROUNDS].iter().map(Round::slots).sum();
    let tracers = traced
        .into_iter()
        .enumerate()
        .flat_map(|(r, round)| {
            round
                .logs
                .into_iter()
                .enumerate()
                .filter_map(move |(i, l)| l.tracer.map(|t| (format!("round{r}-trial{i}"), t)))
        })
        .collect();
    Ok(Traced {
        metrics: m,
        table: rec.table(&["alloc.probe"]),
        tracers,
        digest,
        digest_slots,
        attempted: slots as u64,
    })
}
