//! Cross-crate properties: whole-scenario invariants under randomized
//! configurations, plus protocol-level properties that span the
//! overlay and pubsub layers. Each scenario case is a full simulated
//! run, so these properties run 16 cases each.

use std::collections::BTreeSet;

use epidemic_pubsub::gossip::Algorithm;
use epidemic_pubsub::harness::{run_scenario, ScenarioConfig};
use epidemic_pubsub::overlay::{plan_reconfiguration, Topology};
use epidemic_pubsub::pubsub::{
    flood_subscriptions, install_local_subscriptions, Dispatcher, DispatcherConfig, PatternId,
    PatternSpace,
};
use epidemic_pubsub::sim::check::{check, option_of};
use epidemic_pubsub::sim::{Rng, RngFactory, SimTime};

/// Cases per property: whole scenario runs are expensive.
const CASES: u64 = 16;

fn any_paper_algorithm(rng: &mut Rng) -> Algorithm {
    let paper = Algorithm::paper();
    paper[rng.random_range(0..paper.len())].clone()
}

/// Whatever the configuration, a run completes and reports consistent
/// numbers.
#[test]
fn scenario_invariants_hold() {
    check("scenario_invariants_hold", CASES, |rng| {
        let nodes = rng.random_range(2usize..40);
        let kind = any_paper_algorithm(rng);
        let config = ScenarioConfig {
            seed: rng.random_range(0u64..1000),
            nodes,
            link_error_rate: rng.random_range(0.0..0.3),
            buffer_size: rng.random_range(0usize..3000),
            publish_rate: 10.0,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_millis(200),
            cooldown: SimTime::from_millis(500),
            churn_interval: option_of(rng, |r| SimTime::from_millis(r.random_range(20u64..500))),
            algorithm: kind.clone(),
            ..ScenarioConfig::default()
        };
        let r = run_scenario(&config);
        assert!((0.0..=1.0).contains(&r.delivery_rate));
        assert!((0.0..=1.0).contains(&r.overall_delivery_rate));
        assert!((0.0..=1.0).contains(&r.min_bin_rate));
        assert!(r.events_retransmitted >= r.events_recovered);
        assert!(r.receivers_per_event <= nodes as f64);
        for &(_, rate) in &r.series {
            assert!((0.0..=1.0).contains(&rate));
        }
        if kind == Algorithm::no_recovery() {
            assert_eq!(r.gossip_msgs, 0);
        }
    });
}

/// Zero loss and no reconfiguration means perfect delivery, for every
/// algorithm (recovery must never *break* dispatching).
#[test]
fn lossless_delivery_is_perfect() {
    check("lossless_delivery_is_perfect", CASES, |rng| {
        let kind = any_paper_algorithm(rng);
        let config = ScenarioConfig {
            seed: rng.random_range(0u64..1000),
            nodes: rng.random_range(2usize..30),
            link_error_rate: 0.0,
            publish_rate: 10.0,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_millis(200),
            cooldown: SimTime::from_millis(500),
            algorithm: kind.clone(),
            ..ScenarioConfig::default()
        };
        let r = run_scenario(&config);
        assert!(r.delivery_rate > 0.999, "{} under {kind}", r.delivery_rate);
    });
}

/// Subscription flooding reaches exactly the dispatchers it should:
/// everyone knows every subscribed pattern, and only subscribers report
/// local matches.
#[test]
fn flooding_is_complete_and_minimal() {
    check("flooding_is_complete_and_minimal", CASES, |rng| {
        let factory = RngFactory::new(rng.random_range(0u64..1000));
        let nodes = rng.random_range(2usize..50);
        let pi_max = rng.random_range(1usize..5);
        let topo = Topology::random_tree(nodes, 4, &mut factory.stream("topology"));
        let space = PatternSpace::paper_default();
        let mut subs_rng = factory.stream("subs");
        let subs: Vec<Vec<PatternId>> = (0..nodes)
            .map(|_| space.random_subscriptions(pi_max, &mut subs_rng))
            .collect();
        let mut dispatchers: Vec<Dispatcher> = topo
            .nodes()
            .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
            .collect();
        install_local_subscriptions(&mut dispatchers, &subs);
        flood_subscriptions(&mut dispatchers, &topo);

        let subscribed_anywhere: BTreeSet<PatternId> = subs.iter().flatten().copied().collect();
        for (i, d) in dispatchers.iter().enumerate() {
            for &p in &subscribed_anywhere {
                assert!(d.table().knows(p), "node {i} missing {p}");
            }
            for &p in &subs[i] {
                assert!(d.table().has_local(p));
            }
            let locals: Vec<PatternId> = d.table().local_patterns().collect();
            assert_eq!(locals, subs[i]);
        }
    });
}

/// Any number of reconfigurations keeps the overlay a degree-bounded
/// tree.
#[test]
fn reconfigurations_preserve_tree_invariants() {
    check("reconfigurations_preserve_tree_invariants", CASES, |rng| {
        let factory = RngFactory::new(rng.random_range(0u64..1000));
        let nodes = rng.random_range(2usize..60);
        let steps = rng.random_range(1usize..40);
        let mut topo = Topology::random_tree(nodes, 4, &mut factory.stream("topology"));
        let mut stream = factory.stream("reconfig");
        for _ in 0..steps {
            if let Some(plan) = plan_reconfiguration(&topo, &mut stream) {
                topo.remove_link(plan.broken).unwrap();
                topo.add_link(plan.replacement.0, plan.replacement.1)
                    .unwrap();
            }
        }
        assert!(topo.is_tree());
        assert!(topo.nodes().all(|n| topo.degree(n) <= 4));
    });
}
