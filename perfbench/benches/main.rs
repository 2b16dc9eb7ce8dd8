//! `perfbench` — end-to-end and per-layer benchmark of the OSCAR
//! controller. Normally started by `perfbench/run.py`, which builds it,
//! adds runner metadata and checks decision digests across runs:
//!
//! ```text
//! perfbench --workload serve-persistent|serve-churn|sim-paper
//!           --seed N --seconds S --trace 0|1 [--spans FILE]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! it runs the traced rebuild of the slot step and prints every per-layer
//! metric plus the self-time reconciliation table. The last line of
//! standard output is the JSON result; any failed check exits non-zero.

mod calib;
mod measure;
mod serve;
mod sim;
mod step;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{quantile, Digest};
use step::StepCounters;
use trace::{Reconciliation, Tracer};

/// Scratch directory (relative to the checkout) for sockets, daemon
/// configs and span dumps.
pub const OUT_DIR: &str = ".bench_out";

/// Per-layer metrics and their units, in report order (as listed in
/// `BENCHMARK.json`).
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.handle_tick_us_p50", "us"),
    ("serve.handle_tick_us_p99", "us"),
    ("serve.codec_us_per_slot", "us"),
    ("serve.tick_frame_bytes", "bytes"),
    ("serve.shard_skew_p99", "ratio"),
    ("serve.overcommit_share", "ratio"),
    ("serve.degraded_slot_share", "ratio"),
    ("routes.sync_us_p50", "us"),
    ("routes.sync_us_p99", "us"),
    ("routes.yen_runs_per_slot", "count"),
    ("routes.pairs_recomputed_per_slot", "count"),
    ("routes.repair_slot_share", "ratio"),
    ("routes.prewarm_hits", "1/slot"),
    ("routes.prewarm_slot_share", "ratio"),
    ("session.regions_flushed_per_slot", "count"),
    ("session.memo_retained_ratio", "ratio"),
    ("eval.evaluations_per_slot", "count"),
    ("eval.memo_hit_ratio", "ratio"),
    ("eval.components_solved_per_slot", "count"),
    ("select.us_p50", "us"),
    ("select.us_p99", "us"),
    ("select.us_per_component_solved", "us"),
    ("alloc.final_solve_us_p50", "us"),
    ("alloc.instance_vars_p50", "count"),
    ("queue.backlog_mean", "qubits"),
    ("sim.decide_share", "ratio"),
    ("sim.env_us_per_slot", "us"),
    ("sim.decide_wall_to_cpu", "ratio"),
    ("pool.fanout_efficiency", "ratio"),
    ("pool.tasks_stolen", "1/round"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("self.daemon_inputs_us", "us"),
    ("self.shard_us", "us"),
    ("self.ctx_us", "us"),
    ("self.routes_sync_us", "us"),
    ("self.routes_warm_us", "us"),
    ("self.select_us", "us"),
    ("self.eval_new_in_us", "us"),
    ("self.gibbs_sample_us", "us"),
    ("self.eval_retire_us", "us"),
    ("self.session_record_us", "us"),
    ("self.queue_us", "us"),
    ("self.daemon_merge_us", "us"),
];

/// Spans whose self time is reported as `self.<name>_us` per traced slot.
const SELF_SPANS: &[&str] = &[
    "daemon.inputs",
    "shard",
    "ctx",
    "routes.sync",
    "routes.warm",
    "select",
    "eval.new_in",
    "gibbs.sample",
    "eval.retire",
    "session.record",
    "queue",
    "daemon.merge",
];

/// End-to-end metrics printed in the report but left out of the result.
/// `error_fraction` is always 0 (any error fails the run), and a result
/// metric must never be 0. `decisions_per_s` is wall-clock throughput of a
/// closed loop across two processes: on a shared 2-vCPU runner it follows
/// how often the host deschedules a virtual CPU (steal time, up to 23 % of
/// a 30 s run, moved it by 60 % between runs of the same code), so no bound
/// a regression check can use holds for it. `decisions_per_cpu_s` carries
/// the throughput in the result.
const UNGATED: &[&str] = &["error_fraction", "decisions_per_s"];

/// Consecutive slots per p99 window: 10 samples lie beyond each window's
/// p99. In sim-paper a window is one round of trials.
const P99_WINDOW: usize = 1000;

/// The p99 of each consecutive `P99_WINDOW`-slot window. `slot_p99_ms` is
/// their interquartile mean: a burst of interference from other tenants
/// that stalls a few windows' slowest slots moves it far less than a p99
/// over the whole phase or a plain mean, and, unlike a median, it follows
/// the mix of harder and easier windows (in sim-paper, rounds on harder
/// and easier networks) smoothly instead of jumping between them.
fn window_p99s(slot_ms: &[f64]) -> Vec<f64> {
    slot_ms
        .chunks_exact(P99_WINDOW)
        .map(|w| quantile(w, 0.99))
        .collect()
}

/// The paper's objective and constraint over a fixed window of slots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub submitted: u64,
    pub served: u64,
    /// Sum of analytic EC success probabilities (0 for unserved).
    pub success: f64,
    pub cost: u64,
    pub slots: u64,
}

impl Quality {
    pub fn add(&mut self, o: &Quality) {
        self.submitted += o.submitted;
        self.served += o.served;
        self.success += o.success;
        self.cost += o.cost;
        self.slots += o.slots;
    }
}

/// Throughput of the timed phase, window by window: requests decided
/// (served + unserved), wall seconds and program CPU seconds.
pub struct Windows {
    pub started: std::time::Instant,
    window_start: std::time::Instant,
    cpu_start: f64,
    decided: u64,
    /// (decided, wall s, CPU s) per closed window.
    pub closed: Vec<(u64, f64, f64)>,
}

impl Windows {
    pub fn new(cpu: f64) -> Self {
        let now = std::time::Instant::now();
        Windows {
            started: now,
            window_start: now,
            cpu_start: cpu,
            decided: 0,
            closed: Vec::new(),
        }
    }

    /// Adds one unit of work; closes the window once it is `seconds` long,
    /// reading the program's CPU time through `cpu`. Returns whether it
    /// closed the window.
    pub fn record(
        &mut self,
        decided: u64,
        seconds: f64,
        cpu: impl FnOnce() -> Result<f64, String>,
    ) -> Result<bool, String> {
        self.decided += decided;
        if measure::secs(self.window_start) >= seconds {
            self.close(cpu()?);
            return Ok(true);
        }
        Ok(false)
    }

    /// Starts the next window afresh at CPU time `cpu`, leaving out what
    /// ran since the last window closed.
    pub fn restart(&mut self, cpu: f64) {
        self.window_start = std::time::Instant::now();
        self.cpu_start = cpu;
    }

    /// Closes the open window (if it holds any work) at CPU time `cpu`.
    fn close(&mut self, cpu: f64) {
        if self.decided > 0 {
            let wall = measure::secs(self.window_start);
            self.closed.push((self.decided, wall, cpu - self.cpu_start));
        }
        self.window_start = std::time::Instant::now();
        self.cpu_start = cpu;
        self.decided = 0;
    }

    fn totals(&self) -> (u64, f64, f64) {
        self.closed
            .iter()
            .fold((0, 0.0, 0.0), |a, w| (a.0 + w.0, a.1 + w.1, a.2 + w.2))
    }

    /// Interquartile mean over windows of decisions per wall second.
    fn per_s(&self) -> f64 {
        let rates: Vec<f64> = self.closed.iter().map(|w| w.0 as f64 / w.1).collect();
        measure::interquartile_mean(&rates)
    }

    /// Interquartile mean over windows of decisions per CPU second.
    fn per_cpu_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .closed
            .iter()
            .map(|w| w.0 as f64 / w.2.max(f64::MIN_POSITIVE))
            .collect();
        measure::interquartile_mean(&rates)
    }
}

/// What an end-to-end run measured.
pub struct Metrics {
    pub setup_s: f64,
    pub setup_samples: Vec<f64>,
    pub slot_ms: Vec<f64>,
    pub windows: Windows,
    pub peak_rss_mb: f64,
    pub quality: Quality,
    /// `C / T`: the per-slot budget the paper's constraint allows.
    pub slot_budget: f64,
    /// Kernel runs timed between measurements: the runner's speed.
    pub calibration: calib::Calibration,
    /// What the slot latency samples are, for the report.
    pub slot_note: String,
    /// Operations sent (serve: protocol requests; sim: decide calls). Any
    /// error, error answer or lost reply fails the run, so a result
    /// always has error fraction 0.
    pub ops: u64,
}

pub struct Outcome {
    pub metrics: Metrics,
    pub digest: Digest,
    pub digest_slots: u64,
}

/// Per-layer values by name; names not applicable to a workload are
/// reported as 0 and listed as n/a.
#[derive(Default)]
pub struct LayerMetrics {
    values: Vec<(&'static str, f64)>,
    na: Vec<&'static str>,
}

impl LayerMetrics {
    fn known(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(n, _)| *n)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    /// Records a value, unless the name was already marked n/a.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = Self::known(name);
        if !self.na.contains(&name) {
            self.values.push((name, value));
        }
    }

    pub fn na(&mut self, name: &str) {
        let name = Self::known(name);
        self.values.push((name, 0.0));
        self.na.push(name);
    }
}

pub struct Traced {
    pub metrics: LayerMetrics,
    pub table: String,
    pub tracers: Vec<(String, Tracer)>,
    pub digest: Digest,
    pub digest_slots: u64,
    pub attempted: u64,
}

/// Candidate-route metrics from per-slot step counters (one per slot):
/// repair and prewarm work per slot and the share of slots that did any.
pub fn set_route_metrics(m: &mut LayerMetrics, slots: &[StepCounters]) {
    let n = slots.len().max(1) as f64;
    let per_slot = |f: fn(&StepCounters) -> u64| slots.iter().map(f).sum::<u64>() as f64 / n;
    let share = |f: fn(&StepCounters) -> u64| slots.iter().filter(|c| f(c) > 0).count() as f64 / n;
    m.set("routes.yen_runs_per_slot", per_slot(|c| c.yen_runs));
    m.set(
        "routes.pairs_recomputed_per_slot",
        per_slot(|c| c.pairs_recomputed),
    );
    m.set("routes.repair_slot_share", share(|c| c.pairs_recomputed));
    m.set("routes.prewarm_hits", per_slot(|c| c.prewarm_hits));
    m.set("routes.prewarm_slot_share", share(|c| c.prewarm_hits));
}

/// Session, evaluator and selection metrics from summed step counters;
/// `select` holds one selection time (µs) per step.
pub fn set_eval_metrics(m: &mut LayerMetrics, c: &StepCounters, slots: f64, select: &[f64]) {
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    m.set(
        "session.regions_flushed_per_slot",
        c.regions_flushed as f64 / slots,
    );
    m.set(
        "session.memo_retained_ratio",
        ratio(c.memo_retained, c.memo_flushed),
    );
    m.set("eval.evaluations_per_slot", c.evaluations as f64 / slots);
    m.set(
        "eval.memo_hit_ratio",
        ratio(c.memo_hits, c.components_solved),
    );
    m.set(
        "eval.components_solved_per_slot",
        c.components_solved as f64 / slots,
    );
    m.set("select.us_p50", quantile(select, 0.5));
    m.set("select.us_p99", quantile(select, 0.99));
    m.set(
        "select.us_per_component_solved",
        select.iter().sum::<f64>() / c.components_solved.max(1) as f64,
    );
}

/// Trace accounting: unattributed share, tracing overhead (traced vs
/// untraced slot p50 of the same calls) and per-layer self times.
pub fn set_trace_metrics(m: &mut LayerMetrics, rec: &Reconciliation, traced: f64, plain: f64) {
    m.set("trace.unattributed_share", rec.unattributed_share());
    m.set(
        "trace.overhead",
        traced / plain.max(f64::MIN_POSITIVE) - 1.0,
    );
    for span in SELF_SPANS {
        let name = format!("self.{}_us", span.replace('.', "_"));
        m.set(&name, rec.self_us_per_slot(span));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--spans" => args.spans = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
    );
}

fn digest_line(workload: &str, seed: u64, digest: Digest, slots: u64) -> String {
    format!(
        "{{\"digest\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"slots\":{slots},\"value\":\"{}\"}}}}",
        digest.hex()
    )
}

fn end_to_end(args: &Args) -> Result<(), String> {
    let outcome = match args.workload.as_str() {
        "serve-persistent" => serve::end_to_end(serve::PERSISTENT, args.seed, args.seconds)?,
        "serve-churn" => serve::end_to_end(serve::CHURN, args.seed, args.seconds)?,
        sim::NAME => sim::end_to_end(args.seed, args.seconds)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let m = &outcome.metrics;
    let q = &m.quality;
    let n = m.slot_ms.len();
    let (decided, elapsed, cpu) = m.windows.totals();
    let w = m.windows.closed.len();
    let p99s = window_p99s(&m.slot_ms);
    // Timing metrics as measured, then at the reference speed.
    let speed = m.calibration.speed();
    let raw = [
        ("setup_s", m.setup_s),
        ("slot_p50_ms", quantile(&m.slot_ms, 0.5)),
        ("slot_p99_ms", measure::interquartile_mean(&p99s)),
        ("decisions_per_s", m.windows.per_s()),
        ("decisions_per_cpu_s", m.windows.per_cpu_s()),
    ];
    let at_reference = |i: usize| {
        if raw[i].0.starts_with("decisions") {
            raw[i].1 / speed
        } else {
            raw[i].1 * speed
        }
    };
    let rows: [(&str, f64, &str, String); 10] = [
        (
            "setup_s",
            at_reference(0),
            "s",
            format!("median of {} start-ups: {:?}", m.setup_samples.len(), m.setup_samples),
        ),
        (
            "slot_p50_ms",
            at_reference(1),
            "ms",
            format!("n={n} slots{}", m.slot_note),
        ),
        (
            "slot_p99_ms",
            at_reference(2),
            "ms",
            format!(
                "interquartile mean over {} windows of {P99_WINDOW} slots, {} beyond each: {:.2?}; whole phase {:.3}",
                p99s.len(),
                P99_WINDOW / 100,
                p99s,
                quantile(&m.slot_ms, 0.99)
            ),
        ),
        (
            "decisions_per_s",
            at_reference(3),
            "1/s",
            format!(
                "interquartile mean of {w} windows; {decided} decisions in {elapsed:.3} s; \
                 wall clock, printed but not in the result: see UNGATED"
            ),
        ),
        (
            "decisions_per_cpu_s",
            at_reference(4),
            "1/s",
            format!("interquartile mean of {w} windows; {cpu:.3} CPU-s"),
        ),
        ("peak_rss_mb", m.peak_rss_mb, "MB", "VmHWM".into()),
        (
            "success_rate",
            q.success / q.submitted.max(1) as f64,
            "ratio",
            format!("{} requests over {} slots", q.submitted, q.slots),
        ),
        (
            "budget_ratio",
            q.cost as f64 / (q.slots as f64 * m.slot_budget),
            "ratio",
            format!(
                "{} qubits over {} slots at C/T={}",
                q.cost, q.slots, m.slot_budget
            ),
        ),
        (
            "served_fraction",
            q.served as f64 / q.submitted.max(1) as f64,
            "ratio",
            format!("{} of {}", q.served, q.submitted),
        ),
        (
            "error_fraction",
            0.0,
            "ratio",
            format!("0 of {} operations; reported as failed/attempted", m.ops),
        ),
    ];
    eprintln!(
        "{} seed {} — end to end; runner speed {speed:.4} of the reference \
         (calibration kernel medians {:.4?} ms on CPUs {:?}, {} runs; reference {} ms)",
        args.workload,
        args.seed,
        m.calibration.median_ms(),
        m.calibration.cpus(),
        m.calibration.count(),
        calib::REFERENCE_MS
    );
    for (name, value) in &raw {
        eprintln!("  as measured: {name:<20} {value:>14.6}");
    }
    let mut json = String::from("{");
    for (name, value, unit, note) in &rows {
        eprintln!("  {name:<20} {value:>14.6} {unit:<6} ({note})");
        if !UNGATED.contains(name) {
            json_metric(&mut json, name, *value, unit);
        }
    }
    json.push('}');
    println!(
        "{}",
        digest_line(
            &args.workload,
            args.seed,
            outcome.digest,
            outcome.digest_slots
        )
    );
    let raw_json: Vec<String> = raw.iter().map(|(k, v)| format!("\"{k}\":{v:?}")).collect();
    println!(
        "{{\"calibration\":{{\"median_ms\":{:?},\"cpus\":{:?},\"runs\":{},\"speed\":{speed:?}}},\"as_measured\":{{{}}}}}",
        m.calibration.median_ms(),
        m.calibration.cpus(),
        m.calibration.count(),
        raw_json.join(",")
    );
    println!(
        "{{\"samples\":{{\"slot\":{n},\"setup\":{}}}}}",
        m.setup_samples.len()
    );
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{json}}}",
        m.ops
    );
    Ok(())
}

fn traced(args: &Args) -> Result<(), String> {
    let traced = match args.workload.as_str() {
        "serve-persistent" => serve::traced(serve::PERSISTENT, args.seed, args.seconds)?,
        "serve-churn" => serve::traced(serve::CHURN, args.seed, args.seconds)?,
        sim::NAME => sim::traced(args.seed, args.seconds)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let Some(path) = &args.spans {
        let lanes: Vec<(&str, &Tracer)> = traced
            .tracers
            .iter()
            .map(|(l, t)| (l.as_str(), t))
            .collect();
        trace::write_spans(path, &lanes)?;
    }
    eprintln!(
        "{} seed {} — per layer (traced rebuild)",
        args.workload, args.seed
    );
    eprint!("{}", traced.table);
    let mut json = String::from("{");
    for (name, unit) in PER_LAYER {
        let value = traced
            .metrics
            .values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        if traced.metrics.na.contains(name) {
            eprintln!("  {name:<34} {:>14} {unit}", "n/a");
        } else {
            eprintln!("  {name:<34} {value:>14.4} {unit}");
        }
        json_metric(&mut json, name, value, unit);
    }
    json.push('}');
    println!(
        "{}",
        digest_line(
            &args.workload,
            args.seed,
            traced.digest,
            traced.digest_slots
        )
    );
    let na: Vec<String> = traced
        .metrics
        .na
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    println!("{{\"not_applicable\":[{}]}}", na.join(","));
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{json}}}",
        traced.attempted
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
