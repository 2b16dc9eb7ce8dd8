//! Acceptance test for the accelerated dual method: on paper-scale
//! instances — the joint coupling component 10 random SD pairs form on
//! the 20-node Waxman topology — `solve_relaxed` must certify the strict
//! `gap_tolerance = 1e-4` *without* exhausting the iteration budget,
//! where a projected-subgradient iteration burns all 600 iterations and
//! returns `converged: false`.

use qdn::core::problem::PerSlotContext;
use qdn::core::route_selection::{profile_of, Candidates};
use qdn::graph::Path;
use qdn::net::routes::{CandidateRoutes, RouteLimits};
use qdn::net::workload::random_sd_pair;
use qdn::net::{CapacitySnapshot, NetworkConfig, QdnNetwork, SdPair};
use qdn::solve::relaxed::{solve_relaxed, RelaxedOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_candidates(net: &QdnNetwork, n_pairs: usize, seed: u64) -> Vec<(SdPair, Vec<Path>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
    let mut out: Vec<(SdPair, Vec<Path>)> = Vec::new();
    while out.len() < n_pairs {
        let pair = random_sd_pair(&mut rng, net);
        if out.iter().any(|(p, _)| *p == pair) {
            continue;
        }
        let routes = cr.routes(net, pair).to_vec();
        if routes.is_empty() {
            continue;
        }
        out.push((pair, routes));
    }
    out
}

#[test]
fn accelerated_certifies_strict_gap_at_paper_scale() {
    // Same construction as the `dual_solver_paper20` bench rows.
    let mut rng = StdRng::seed_from_u64(3);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
    let owned = paper_candidates(&net, 10, 11);
    let cands: Vec<Candidates> = owned
        .iter()
        .map(|(pair, routes)| Candidates {
            pair: *pair,
            routes,
        })
        .collect();

    for profile_idx in 0..2usize {
        let indices: Vec<usize> = cands
            .iter()
            .map(|c| profile_idx.min(c.routes.len() - 1))
            .collect();
        let inst = ctx.build_instance(&profile_of(&cands, &indices)).unwrap();

        let accel = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
        assert!(
            accel.converged,
            "profile {profile_idx}: relative gap {} after {} iterations",
            accel.relative_gap(),
            accel.iterations
        );
        assert!(
            accel.iterations < 600,
            "profile {profile_idx}: exhausted the budget ({} iterations)",
            accel.iterations
        );
        assert!(accel.relative_gap() <= 1e-4 + 1e-12);
        assert!(inst.is_feasible_real(&accel.x, 1e-6));
    }
}

/// Iteration-count guard for the FISTA step-size seed. The corpus is the
/// two joint paper-scale instances above at queue prices
/// κ ∈ {10, 100, 1000}; iteration counts are deterministic.
///
/// Totals: 153 with the constant `L = 1` start (per instance 38, 41,
/// 32, 40, 1, 1) and 89 = 0.58× with the curvature seed (30, 30, 15,
/// 12, 1, 1). At κ = 1000 both instances are feasible at λ = 0 and
/// certify in one iteration; at κ = 10 the curvature at the optimum sits
/// far below its λ = 0 value, so a seed taken at λ = 0 gains least
/// there.
#[test]
fn curvature_seed_cuts_iterations_on_paper_corpus() {
    const CONSTANT_START_TOTAL: usize = 153;
    let mut rng = StdRng::seed_from_u64(3);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let owned = paper_candidates(&net, 10, 11);
    let cands: Vec<Candidates> = owned
        .iter()
        .map(|(pair, routes)| Candidates {
            pair: *pair,
            routes,
        })
        .collect();
    let mut total = 0;
    for kappa in [10.0, 100.0, 1000.0] {
        let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, kappa);
        for profile_idx in 0..2usize {
            let indices: Vec<usize> = cands
                .iter()
                .map(|c| profile_idx.min(c.routes.len() - 1))
                .collect();
            let inst = ctx.build_instance(&profile_of(&cands, &indices)).unwrap();
            let s = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
            assert!(s.converged, "κ {kappa} profile {profile_idx}");
            total += s.iterations;
        }
    }
    assert!(
        total * 10 <= CONSTANT_START_TOTAL * 7,
        "{total} iterations, more than 0.7 × {CONSTANT_START_TOTAL}"
    );
}
