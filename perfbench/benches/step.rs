//! The per-slot OSCAR step rebuilt from public calls, with a span around
//! each layer: queue-priced context → candidate-route repair and warm-up
//! (path computation) → Gibbs route selection over the session-backed
//! evaluator (resource allocation) → virtual-queue update.
//!
//! It mirrors `qdn_core::engine::decide` behind `OscarPolicy::decide` and
//! a daemon shard's `Decide`, for the paper's configuration (Gibbs
//! selector with one chain, no fidelity target). The benchmark compares
//! its decisions byte for byte with the program's; a drift between this
//! copy and the engine shows as a digest mismatch and fails the run.

use qdn_core::allocation::AllocationMethod;
use qdn_core::lyapunov::VirtualQueue;
use qdn_core::problem::{PerSlotContext, ProfileEvaluation};
use qdn_core::profile_eval::{ProfileEvaluator, SelectorSession};
use qdn_core::route_selection::{gibbs, Candidates, GibbsConfig, RouteSelector, Selection};
use qdn_core::types::{Decision, RouteAssignment};
use qdn_core::OscarConfig;
use qdn_graph::{EdgeId, Path};
use qdn_net::routes::CandidateRoutes;
use qdn_net::{CapacitySnapshot, QdnNetwork, SdPair};

use crate::trace::Tracer;

/// Layer counters of one slot step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCounters {
    pub yen_runs: u64,
    pub pairs_recomputed: u64,
    pub prewarm_hits: u64,
    pub regions_flushed: u64,
    pub memo_retained: u64,
    pub memo_flushed: u64,
    pub evaluations: u64,
    pub memo_hits: u64,
    pub components_solved: u64,
    /// µs spent in selection (evaluator build + sampling + retire +
    /// record), when traced.
    pub select_us: f64,
    /// µs in candidate repair, when traced.
    pub sync_us: f64,
    /// The virtual-queue price the slot was decided under.
    pub price: f64,
}

impl StepCounters {
    pub fn add(&mut self, o: &StepCounters) {
        self.yen_runs += o.yen_runs;
        self.pairs_recomputed += o.pairs_recomputed;
        self.prewarm_hits += o.prewarm_hits;
        self.regions_flushed += o.regions_flushed;
        self.memo_retained += o.memo_retained;
        self.memo_flushed += o.memo_flushed;
        self.evaluations += o.evaluations;
        self.memo_hits += o.memo_hits;
        self.components_solved += o.components_solved;
        self.select_us += o.select_us;
        self.sync_us += o.sync_us;
    }
}

/// One shard's (or one OSCAR policy's) slot-spanning state.
#[derive(Debug)]
pub struct Step {
    v: f64,
    gibbs: GibbsConfig,
    allocation: AllocationMethod,
    routes: CandidateRoutes,
    session: SelectorSession,
    queue: VirtualQueue,
}

impl Step {
    /// State for a policy owning `1 / shares` of the budget.
    pub fn new(oscar: &OscarConfig, shares: u32) -> Result<Step, String> {
        let RouteSelector::Gibbs(gibbs) = oscar.selector else {
            return Err(format!(
                "rebuilt step covers the Gibbs selector only, config has {}",
                oscar.selector.label()
            ));
        };
        if gibbs.restarts > 1 || oscar.fidelity_target.is_some() {
            return Err("rebuilt step covers one Gibbs chain without a fidelity target".into());
        }
        Ok(Step {
            v: oscar.v,
            gibbs,
            allocation: oscar.allocation,
            routes: CandidateRoutes::new(oscar.route_limits),
            session: SelectorSession::new(),
            queue: VirtualQueue::new(
                oscar.q0,
                oscar.total_budget / f64::from(shares.max(1)),
                oscar.horizon,
            ),
        })
    }

    pub fn queue_value(&self) -> f64 {
        self.queue.value()
    }

    /// What an advised, not yet open outage window makes a daemon shard
    /// do: precompute candidate repair for the edges it will kill.
    pub fn prewarm(&mut self, network: &QdnNetwork, edges: &[EdgeId]) -> usize {
        self.routes.prewarm_dead_edges(network, edges)
    }

    /// Decides one slot.
    pub fn decide(
        &mut self,
        network: &QdnNetwork,
        snapshot: &CapacitySnapshot,
        requests: &[SdPair],
        rng: &mut dyn rand::Rng,
        tracer: &mut Tracer,
    ) -> (Decision, StepCounters) {
        let mut counters = StepCounters {
            price: self.queue.value(),
            ..StepCounters::default()
        };

        let span = tracer.begin("ctx");
        let ctx = PerSlotContext::oscar(network, snapshot, self.v, self.queue.value());
        tracer.end(span);

        let span = tracer.begin("routes.sync");
        let churn = self.routes.sync_dead_edges(network, snapshot);
        counters.yen_runs = churn.yen_runs as u64;
        counters.pairs_recomputed = churn.recomputed as u64;
        counters.prewarm_hits = churn.prewarm_hits as u64;
        tracer.end(span);
        counters.sync_us = tracer.micros(span).unwrap_or(0.0);

        let span = tracer.begin("routes.warm");
        for &pair in requests {
            self.routes.routes(network, pair);
        }
        tracer.end(span);

        let routes_cache = &self.routes;
        let mut unserved: Vec<SdPair> = Vec::new();
        let mut served: Vec<(SdPair, &[Path])> = Vec::new();
        for &pair in requests {
            let routes = routes_cache
                .cached(pair)
                .expect("cache warmed for every requested pair above");
            if routes.is_empty() {
                unserved.push(pair);
            } else {
                served.push((pair, routes));
            }
        }

        // Infeasible slots drop the pair whose shortest route is longest
        // and select again, as the engine does.
        let decision = loop {
            let cands: Vec<Candidates<'_>> = served
                .iter()
                .map(|&(pair, routes)| Candidates { pair, routes })
                .collect();
            let span = tracer.begin("select");
            let selection = select(
                &mut self.session,
                &ctx,
                &cands,
                &self.allocation,
                &self.gibbs,
                rng,
                tracer,
                &mut counters,
            );
            tracer.end(span);
            counters.select_us += tracer.micros(span).unwrap_or(0.0);
            match selection {
                Some(Selection {
                    indices,
                    evaluation,
                }) => {
                    let assignments = served
                        .iter()
                        .zip(&indices)
                        .zip(evaluation.allocations)
                        .map(|((&(pair, routes), &i), alloc)| {
                            RouteAssignment::new(pair, routes[i].clone(), alloc)
                        })
                        .collect();
                    break Decision::new(assignments, unserved);
                }
                None => {
                    if served.is_empty() {
                        break Decision::new(Vec::new(), unserved);
                    }
                    let victim = served
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, (_, routes))| routes[0].hops())
                        .map(|(i, _)| i)
                        .expect("served is non-empty");
                    let (pair, _) = served.remove(victim);
                    unserved.push(pair);
                }
            }
        };

        let span = tracer.begin("queue");
        self.queue.update(decision.total_cost());
        tracer.end(span);
        (decision, counters)
    }
}

/// One cold solve of a decided slot's final allocation problem: builds
/// the instance of the selected profile under the slot's price and times
/// `AllocationMethod::allocate` on it. Returns (µs, instance variables),
/// or `None` for a slot that served nothing.
pub fn probe_alloc(
    network: &QdnNetwork,
    snapshot: &CapacitySnapshot,
    oscar: &OscarConfig,
    price: f64,
    decision: &Decision,
) -> Option<(f64, u64)> {
    if decision.assignments().is_empty() {
        return None;
    }
    let ctx = PerSlotContext::oscar(network, snapshot, oscar.v, price);
    let profile: Vec<(SdPair, &Path)> = decision
        .assignments()
        .iter()
        .map(|a| (a.pair, &a.route))
        .collect();
    let instance = ctx.build_instance(&profile).ok()?;
    let started = std::time::Instant::now();
    let solved = oscar.allocation.allocate(std::hint::black_box(&instance));
    let us = started.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(solved);
    Some((us, instance.num_vars() as u64))
}

/// `RouteSelector::select_in` for a one-chain Gibbs selector, with spans
/// around the evaluator build, the sampling, the retire and the record.
#[allow(clippy::too_many_arguments)]
fn select(
    session: &mut SelectorSession,
    ctx: &PerSlotContext<'_>,
    cands: &[Candidates<'_>],
    allocation: &AllocationMethod,
    config: &GibbsConfig,
    rng: &mut dyn rand::Rng,
    tracer: &mut Tracer,
    counters: &mut StepCounters,
) -> Option<Selection> {
    if cands.is_empty() {
        let span = tracer.begin("session.record");
        session.record_selection(&[], &[]);
        tracer.end(span);
        return Some(Selection {
            indices: Vec::new(),
            evaluation: ProfileEvaluation {
                allocations: Vec::new(),
                objective: 0.0,
            },
        });
    }
    let seed = config
        .evaluator
        .warm_profile_seed
        .then(|| session.seed_indices(cands))
        .flatten();

    let span = tracer.begin("eval.new_in");
    let mut evaluator = ProfileEvaluator::new_in(session, ctx, cands, allocation, config.evaluator);
    tracer.end(span);

    let span = tracer.begin("gibbs.sample");
    let selection = gibbs::sample_seeded(&mut evaluator, cands, config, rng, seed.as_deref());
    tracer.end(span);

    let stats = evaluator.stats();
    counters.evaluations += stats.evaluations;
    counters.memo_hits += stats.memo_hits;
    counters.components_solved += stats.components_solved;
    counters.regions_flushed += stats.regions_flushed;
    counters.memo_retained += stats.memo_entries_retained;
    counters.memo_flushed += stats.memo_entries_flushed;

    let span = tracer.begin("eval.retire");
    evaluator.retire(session);
    tracer.end(span);

    let span = tracer.begin("session.record");
    match &selection {
        Some(s) => session.record_selection(cands, &s.indices),
        None => session.record_selection(&[], &[]),
    }
    tracer.end(span);
    selection
}
