//! Daemon ≡ policy: a daemon shard decides a slot with the same OSCAR
//! step as `OscarPolicy`, so an in-process daemon driven slot by slot
//! must reproduce, byte for byte, what stand-alone policies decide when
//! each is fed its shard's request slice and the shard's per-slot RNG
//! stream (`slot_rng(seed, t, shard)`).

use qdn_core::{Decision, OscarPolicy};
use qdn_net::workload::{PersistentWorkload, Workload};
use qdn_net::{CapacitySnapshot, SdPair};
use qdn_serve::daemon::Daemon;
use qdn_serve::proto::{Request, Response};
use qdn_serve::shard::{shard_of, slot_rng};
use qdn_serve::ServeConfig;
use rand::SeedableRng;

/// Slots driven through both sides: the paper's horizon.
const SLOTS: u64 = 200;

/// Drives a `shards`-shard daemon and one `total_budget / shards`
/// policy per shard over the same persistent request stream and checks
/// that every tick's decision, every shard's queue value and spend, and
/// the final warm engine state agree exactly.
fn daemon_matches_policies(shards: u32) {
    let config = ServeConfig {
        shards,
        threads: 1,
        ..ServeConfig::paper_default()
    };
    let mut daemon = Daemon::new(config.clone()).unwrap();
    // The daemon's world is a pure function of its configuration: the
    // same draw rebuilds the network it decides on.
    let network = config
        .network
        .build(&mut rand::rngs::StdRng::seed_from_u64(config.seed))
        .unwrap();
    let mut policies: Vec<OscarPolicy> = (0..shards)
        .map(|_| {
            OscarPolicy::new(
                config
                    .oscar
                    .clone()
                    .with_budget(config.oscar.total_budget / f64::from(shards)),
            )
        })
        .collect();
    // Static dynamics: every slot sees the installed capacities.
    let snapshot = CapacitySnapshot::full(&network);

    let mut workload = PersistentWorkload::paper_scale();
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(23);
    for t in 0..SLOTS {
        let requests = workload.requests(t, &network, &mut env_rng);
        let pairs: Vec<(u32, u32)> = requests
            .iter()
            .map(|p| (p.source().0, p.destination().0))
            .collect();
        assert!(matches!(
            daemon.handle(Request::Submit { pairs }),
            Response::SubmitOk { .. }
        ));
        let Response::TickOk {
            slot,
            decision,
            cost,
        } = daemon.handle(Request::Tick)
        else {
            panic!("tick {t} failed");
        };
        assert_eq!(slot, t);

        let mut per_shard: Vec<Vec<SdPair>> = vec![Vec::new(); shards as usize];
        for &pair in &requests {
            per_shard[shard_of(pair, shards)].push(pair);
        }
        let mut assignments = Vec::new();
        let mut unserved = Vec::new();
        for (index, (policy, slice)) in policies.iter_mut().zip(&per_shard).enumerate() {
            let mut rng = slot_rng(config.seed, t, index as u64);
            let d = policy.step(&network, &snapshot, slice, &mut rng);
            assignments.extend_from_slice(d.assignments());
            unserved.extend_from_slice(d.unserved());
        }
        let expected = Decision::new(assignments, unserved);
        assert_eq!(
            serde_json::to_string(&decision).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "slot {t}: daemon and policies decided differently ({shards} shards)"
        );
        assert_eq!(cost, expected.total_cost(), "slot {t}");

        let Response::StatsOk { stats } = daemon.handle(Request::Stats) else {
            panic!("stats at slot {t} failed");
        };
        let queues: Vec<u64> = policies.iter().map(|p| p.queue_value().to_bits()).collect();
        let daemon_queues: Vec<u64> = stats.queue_values.iter().map(|q| q.to_bits()).collect();
        assert_eq!(daemon_queues, queues, "slot {t}: queue values");
        let spent: u64 = policies.iter().map(OscarPolicy::spent).sum();
        assert_eq!(stats.spent, spent, "slot {t}: spend");
    }

    let Response::StatsOk { stats } = daemon.handle(Request::Stats) else {
        panic!("final stats failed");
    };
    assert!(stats.served > 0, "the run must decide something");

    // The warm state a restart would carry is the policies' own.
    let snapshot = daemon.snapshot().unwrap();
    assert_eq!(snapshot.shards.len(), policies.len());
    for (index, (shard, policy)) in snapshot.shards.iter().zip(&policies).enumerate() {
        assert_eq!(
            serde_json::to_string(&shard.engine).unwrap(),
            serde_json::to_string(&policy.engine_state().snapshot()).unwrap(),
            "shard {index}: engine state"
        );
        assert_eq!(shard.queue, policy.queue(), "shard {index}: queue");
        assert_eq!(shard.spent, policy.spent(), "shard {index}: spend");
    }
}

#[test]
fn one_shard_daemon_matches_oscar_policy() {
    daemon_matches_policies(1);
}

#[test]
fn two_shard_daemon_matches_region_split_policies() {
    daemon_matches_policies(2);
}
