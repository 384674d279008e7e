//! Model-based test of the client layer: the same random op sequence
//! (client subscribes, unsubscribes, and event deliveries) drives the
//! flat sorted [`ClientRegistry`] and a naive per-client reference
//! model (`BTreeMap<ClientId, BTreeSet<PatternId>>`), and every
//! observable must agree op-for-op. This is the guard for the
//! aggregation layer's two claims:
//!
//! - **Covering never loses a delivery.** The set of clients the
//!   registry fans an event out to equals the clients whose own
//!   subscription set matches the event — aggregation is invisible to
//!   delivery semantics.
//! - **Refcounted retraction never strands routing state.** After any
//!   churn sequence, the aggregate filter equals the union of the
//!   per-client sets, and a dispatcher driven through
//!   `client_subscribe`/`client_unsubscribe` holds exactly the
//!   aggregate in its routing table's local interface and tells its
//!   neighbor exactly the aggregate's transitions — nothing lingers
//!   after the last client drops a pattern, and covered churn
//!   propagates nothing.

use std::collections::{BTreeMap, BTreeSet};

use eps_overlay::NodeId;
use eps_pubsub::{
    ClientId, ClientRegistry, Dispatcher, DispatcherConfig, Event, EventId, Forward, PatternId,
    PubSubMessage,
};
use eps_sim::check::{check, set_of, vec_of, CASES};
use eps_sim::Rng;

/// One randomly generated client-layer operation.
enum Op {
    Subscribe(ClientId, PatternId),
    Unsubscribe(ClientId, PatternId),
    Deliver(BTreeSet<u16>),
}

/// Subscribes, unsubscribes and deliveries in the ratio 3 : 2 : 1,
/// over 8 clients and 24 patterns.
fn op(rng: &mut Rng) -> Op {
    let client = ClientId::new(rng.random_range(0u32..8));
    let pattern = PatternId::new(rng.random_range(0u16..24));
    match rng.random_below(6) {
        0..=2 => Op::Subscribe(client, pattern),
        3..=4 => Op::Unsubscribe(client, pattern),
        _ => Op::Deliver(set_of(rng, 1..4, |r| r.random_range(0u16..24))),
    }
}

/// The reference model: each client's own subscription set, with
/// emptied clients removed. The aggregate is derived, never cached —
/// the registry's refcounting must reproduce it exactly.
#[derive(Default)]
struct Model {
    clients: BTreeMap<ClientId, BTreeSet<PatternId>>,
}

impl Model {
    /// `true` when the aggregate grew: no other client held `pattern`.
    fn subscribe(&mut self, client: ClientId, pattern: PatternId) -> bool {
        let covered = self.covers(pattern);
        self.clients.entry(client).or_default().insert(pattern) && !covered
    }

    /// `true` when the aggregate shrank: the last holder dropped it.
    fn unsubscribe(&mut self, client: ClientId, pattern: PatternId) -> bool {
        let Some(set) = self.clients.get_mut(&client) else {
            return false;
        };
        if !set.remove(&pattern) {
            return false;
        }
        if set.is_empty() {
            self.clients.remove(&client);
        }
        !self.covers(pattern)
    }

    fn covers(&self, pattern: PatternId) -> bool {
        self.clients.values().any(|set| set.contains(&pattern))
    }

    fn refcount(&self, pattern: PatternId) -> usize {
        self.clients
            .values()
            .filter(|set| set.contains(&pattern))
            .count()
    }

    fn aggregate(&self) -> Vec<PatternId> {
        let union: BTreeSet<PatternId> = self.clients.values().flatten().copied().collect();
        union.into_iter().collect()
    }

    fn len(&self) -> usize {
        self.clients.values().map(BTreeSet::len).sum()
    }

    /// Per-client delivery: every client whose own set intersects the
    /// event's patterns, exactly once, ascending.
    fn matching_clients(&self, event: &Event) -> Vec<ClientId> {
        self.clients
            .iter()
            .filter(|(_, set)| event.patterns().any(|p| set.contains(&p)))
            .map(|(&c, _)| c)
            .collect()
    }
}

fn event(patterns: &BTreeSet<u16>) -> Event {
    Event::new(
        EventId::new(NodeId::new(0), 0),
        patterns
            .iter()
            .map(|&p| (PatternId::new(p), 0))
            .collect::<Vec<_>>(),
    )
}

/// The registry and the per-client reference model agree on every
/// observable after every op: transition return values, covering,
/// refcounts, the aggregate filter, and event fan-out.
#[test]
fn registry_matches_per_client_reference_model() {
    let mut refcounted = 0;
    check(
        "registry_matches_per_client_reference_model",
        CASES,
        |rng| {
            let mut registry = ClientRegistry::new();
            let mut model = Model::default();
            for op in vec_of(rng, 1..120, op) {
                match op {
                    Op::Subscribe(client, pattern) => assert_eq!(
                        registry.subscribe(client, pattern),
                        model.subscribe(client, pattern),
                        "aggregate-grew transition disagrees"
                    ),
                    Op::Unsubscribe(client, pattern) => assert_eq!(
                        registry.unsubscribe(client, pattern),
                        model.unsubscribe(client, pattern),
                        "aggregate-shrank transition disagrees"
                    ),
                    Op::Deliver(patterns) => {
                        let ev = event(&patterns);
                        let mut out = Vec::new();
                        registry.matching_clients_into(&ev, &mut out);
                        assert_eq!(
                            out,
                            model.matching_clients(&ev),
                            "covering changed delivery semantics"
                        );
                    }
                }
                assert_eq!(registry.len(), model.len());
                let aggregate: Vec<PatternId> = registry.aggregate_patterns().collect();
                assert_eq!(aggregate, model.aggregate(), "aggregate filter drifted");
                for p in 0u16..24 {
                    let pattern = PatternId::new(p);
                    assert_eq!(registry.covers(pattern), model.covers(pattern));
                    assert_eq!(registry.refcount(pattern), model.refcount(pattern));
                }
                if registry.len() > registry.aggregate_len() {
                    refcounted += 1;
                }
            }
        },
    );
    // The op mix reaches the covered regime, not only mirrored single
    // subscriptions.
    assert!(refcounted > 0, "no op sequence ever covered a subscription");
}

/// The one message a dispatcher sends its single neighbor for an
/// aggregate transition.
fn to_neighbor(msg: PubSubMessage) -> Vec<Forward> {
    vec![Forward {
        to: NodeId::new(1),
        msg,
    }]
}

/// A dispatcher driven through the client API holds exactly the
/// aggregate in its routing table, and propagates exactly the
/// aggregate's transitions to its neighbor: unsubscribe churn retracts
/// a pattern precisely when the last client drops it, stranding
/// nothing, and covered subscribes and unsubscribes send nothing.
#[test]
fn dispatcher_routing_state_is_exactly_the_aggregate() {
    check(
        "dispatcher_routing_state_is_exactly_the_aggregate",
        CASES,
        |rng| {
            let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
            let neighbors = [NodeId::new(1)];
            let mut model = Model::default();
            for op in vec_of(rng, 1..120, op) {
                match op {
                    Op::Subscribe(client, pattern) => {
                        let forwards = node.client_subscribe(client, pattern, &neighbors);
                        let expected = if model.subscribe(client, pattern) {
                            to_neighbor(PubSubMessage::Subscribe(pattern))
                        } else {
                            vec![]
                        };
                        assert_eq!(forwards, expected, "subscribe propagation disagrees");
                    }
                    Op::Unsubscribe(client, pattern) => {
                        let forwards = node.client_unsubscribe(client, pattern, &neighbors);
                        let expected = if model.unsubscribe(client, pattern) {
                            to_neighbor(PubSubMessage::Unsubscribe(pattern))
                        } else {
                            vec![]
                        };
                        assert_eq!(forwards, expected, "unsubscribe propagation disagrees");
                    }
                    Op::Deliver(_) => {}
                }
                let local: Vec<PatternId> = node.table().local_patterns().collect();
                assert_eq!(
                    local,
                    model.aggregate(),
                    "routing state drifted from the aggregate"
                );
            }
        },
    );
}
