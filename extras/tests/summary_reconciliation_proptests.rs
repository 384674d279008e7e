//! Property-based tests of summary reconciliation: two randomly
//! diverged caches, driven through real engines in symmetric rounds,
//! checked against a `BTreeSet` set-difference reference.
//!
//! The offline twin (`crates/gossip/tests/summary_model.rs`) runs the
//! same pump over pinned seeds inside the no-network workspace; this
//! file explores the input space with proptest where the registry is
//! reachable.
//!
//! Properties:
//!
//! 1. For every steering a summary digest composes with (pattern,
//!    mux-over-source-and-pattern), two diverged caches converge to
//!    exactly their union within the predicted round bound and go
//!    quiet.
//! 2. Under eviction churn mid-reconciliation, exact equality is out
//!    of reach by design (the `has_seen` filter never refetches an
//!    evicted id), but no *unseen* deficit survives: every id live in
//!    one cache ends up seen by the other.
//! 3. Random steering is inert for summary digests — composition is
//!    safe, never a panic.

use std::collections::BTreeSet;

use eps_gossip::{
    GossipAction, GossipConfig, GossipEngine, MuxSteering, PatternSteering, RandomSteering,
    RecoveryAlgorithm, SourceSteering, SummaryDigestPolicy,
};
use eps_overlay::NodeId;
use eps_pubsub::summary::LEVEL_COUNT;
use eps_pubsub::{Dispatcher, DispatcherConfig, Event, EventId, PatternId, RangeRef};
use eps_sim::Rng;
use proptest::prelude::*;

/// Every event comes from one publisher stream, so per-(source,
/// pattern) sequence numbers stay monotonic per node.
const SOURCE: u32 = 7;

fn pattern() -> PatternId {
    PatternId::new(1)
}

/// One side of the reconciliation: a dispatcher plus its boxed
/// recovery engine, exactly the pairing the harness runs.
struct Peer {
    node: Dispatcher,
    algo: Box<dyn RecoveryAlgorithm>,
}

/// A dispatcher subscribed to the test pattern both locally and on
/// behalf of its peer, so pattern steering always has a route.
fn peer(id: u32, peer_id: u32, capacity: usize, algo: Box<dyn RecoveryAlgorithm>) -> Peer {
    let mut node = Dispatcher::new(
        NodeId::new(id),
        DispatcherConfig {
            cache_capacity: capacity,
            summary_index: true,
            ..DispatcherConfig::default()
        },
    );
    node.subscribe_local(pattern(), &[]);
    node.on_subscribe(pattern(), NodeId::new(peer_id), &[]);
    Peer { node, algo }
}

/// The engine composition under test: a summary digest (push or pull
/// deficit direction) over pattern steering, optionally behind the
/// combined-pull style mux (whose source arm has no candidates for a
/// summary digest and falls back to the pattern arm every round).
fn summary_engine(pull: bool, mux: bool) -> Box<dyn RecoveryAlgorithm> {
    let config = GossipConfig::default();
    let digest = if pull {
        SummaryDigestPolicy::pull(&config)
    } else {
        SummaryDigestPolicy::push(&config)
    };
    if mux {
        Box::new(GossipEngine::new(
            "summary-mux",
            config,
            digest,
            MuxSteering::new(SourceSteering::default(), PatternSteering),
        ))
    } else {
        Box::new(GossipEngine::new(
            "summary",
            config,
            digest,
            PatternSteering,
        ))
    }
}

/// Feeds `seqs` (ascending) as tree deliveries; what one peer receives
/// and the other does not is the divergence under reconciliation.
fn feed(node: &mut Dispatcher, seqs: impl IntoIterator<Item = u64>) {
    for seq in seqs {
        let event = Event::new(
            EventId::new(NodeId::new(SOURCE), seq),
            vec![(pattern(), seq)],
        );
        node.on_event(event, Some(NodeId::new(99)));
    }
}

/// The cache's resident id set for the test pattern, read through the
/// summary index (which the eviction path must keep in sync).
fn live_ids(node: &Dispatcher) -> BTreeSet<EventId> {
    node.cache()
        .summary_index()
        .ids_in(pattern(), RangeRef::ROOT)
        .into_iter()
        .collect()
}

/// Applies `actions` (emitted by `src`'s engine, all addressed to
/// `dst` in a two-node world) and recurses into the reactions they
/// trigger. Returns the number of reconciliation actions that flowed —
/// digest forwards are free-running and do not count, so a zero return
/// means the round found no divergence to work on.
fn apply(src: &mut Peer, dst: &mut Peer, actions: Vec<GossipAction>, rng: &mut Rng) -> usize {
    let mut work = 0;
    for action in actions {
        match action {
            GossipAction::Forward { to, msg } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                let from = src.node.id();
                let reactions = dst.algo.on_gossip(&dst.node, from, msg, &[from], rng);
                work += apply(dst, src, reactions, rng);
            }
            GossipAction::RequestDetail {
                to,
                pattern: p,
                ranges,
            } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                dst.algo.on_range_request(src.node.id(), p, &ranges);
                work += 1;
            }
            GossipAction::Request { to, ids } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                let from = src.node.id();
                let replies = dst.algo.on_request(&dst.node, from, &ids);
                work += 1 + apply(dst, src, replies, rng);
            }
            GossipAction::Reply { to, events } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                for event in events {
                    dst.node.on_recovered_event(event.clone());
                    dst.algo.on_event_received(&event);
                }
                work += 1;
            }
        }
    }
    work
}

/// The predicted convergence bound for symmetric two-node summary
/// reconciliation: each direction surfaces the root mismatch and
/// narrows it by one tree level per round (`2 * LEVEL_COUNT`), moves
/// `delta` differing ids through `digest_max`-bounded digest entries
/// (each expansion consumes entry budget, hence the `digest_max - 1`
/// denominator), and drains its refinement queue with a little slack.
fn round_bound(delta: usize, digest_max: usize) -> usize {
    2 * LEVEL_COUNT + 2 * (LEVEL_COUNT * delta / (digest_max - 1) + 1) + 10
}

/// Runs symmetric rounds (A gossips to B, then B to A) until a round
/// moves nothing and the caches agree; returns the rounds used, or
/// `None` if `max_rounds` was not enough.
fn reconcile(a: &mut Peer, b: &mut Peer, rng: &mut Rng, max_rounds: usize) -> Option<usize> {
    for round in 1..=max_rounds {
        let opening = a.algo.on_round(&a.node, &[b.node.id()], rng);
        let mut work = apply(a, b, opening, rng);
        let reply_round = b.algo.on_round(&b.node, &[a.node.id()], rng);
        work += apply(b, a, reply_round, rng);
        if work == 0 && live_ids(&a.node) == live_ids(&b.node) {
            return Some(round);
        }
    }
    None
}

/// Seqs selected by a proptest-drawn membership mask.
fn selected(mask: &[bool]) -> Vec<u64> {
    mask.iter()
        .enumerate()
        .filter(|(_, &keep)| keep)
        .map(|(seq, _)| seq as u64)
        .collect()
}

proptest! {
    /// Two diverged caches converge to exactly their union — the
    /// BTreeSet set-difference reference — within the predicted round
    /// bound, for every steering composition, in both deficit
    /// directions.
    #[test]
    fn diverged_caches_converge_to_union(
        seed in any::<u64>(),
        in_a in prop::collection::vec(any::<bool>(), 200),
        in_b in prop::collection::vec(any::<bool>(), 200),
        pull in any::<bool>(),
        mux in any::<bool>(),
    ) {
        let in_a = selected(&in_a);
        let in_b = selected(&in_b);
        let sa: BTreeSet<u64> = in_a.iter().copied().collect();
        let sb: BTreeSet<u64> = in_b.iter().copied().collect();
        let union: BTreeSet<EventId> = sa
            .union(&sb)
            .map(|&seq| EventId::new(NodeId::new(SOURCE), seq))
            .collect();
        let delta = sa.symmetric_difference(&sb).count();

        let mut a = peer(0, 1, 1500, summary_engine(pull, mux));
        let mut b = peer(1, 0, 1500, summary_engine(pull, mux));
        feed(&mut a.node, in_a);
        feed(&mut b.node, in_b);

        let bound = round_bound(delta, GossipConfig::default().digest_max);
        let mut rng = Rng::from_seed(seed);
        let rounds = reconcile(&mut a, &mut b, &mut rng, bound);
        prop_assert!(rounds.is_some(), "no convergence within {} rounds", bound);
        prop_assert_eq!(live_ids(&a.node), union.clone());
        prop_assert_eq!(live_ids(&b.node), union);
        prop_assert_eq!(
            a.node.cache().summary_index().root(pattern()),
            b.node.cache().summary_index().root(pattern())
        );
    }

    /// Eviction churn mid-reconciliation: fresh publications land on
    /// both sides of an at-capacity cache while the protocol runs.
    /// `has_seen` never refetches an evicted id, so exact equality is
    /// unreachable by design; what must hold is that no *unseen*
    /// deficit survives — every id still live on one side has been
    /// seen by the other. (Pull mode keeps re-serving already-seen
    /// surplus, which the receiver deduplicates, so quiescence is not
    /// asserted here — only coverage at the bound.)
    #[test]
    fn eviction_churn_leaves_no_unseen_deficits(
        seed in any::<u64>(),
        in_a in prop::collection::vec(any::<bool>(), 96),
        in_b in prop::collection::vec(any::<bool>(), 96),
        fresh_a in 1u64..24,
        fresh_b in 1u64..24,
        pull in any::<bool>(),
    ) {
        const CAPACITY: usize = 64;
        let mut a = peer(0, 1, CAPACITY, summary_engine(pull, false));
        let mut b = peer(1, 0, CAPACITY, summary_engine(pull, false));
        feed(&mut a.node, selected(&in_a));
        feed(&mut b.node, selected(&in_b));

        let mut rng = Rng::from_seed(seed);
        // A few rounds in, new events land on each side (fresh
        // streams, so they are pure divergence).
        reconcile(&mut a, &mut b, &mut rng, 4);
        feed(&mut a.node, 1_000..1_000 + fresh_a);
        feed(&mut b.node, 2_000..2_000 + fresh_b);

        let bound = round_bound(128, GossipConfig::default().digest_max);
        for _ in 0..bound {
            let opening = a.algo.on_round(&a.node, &[b.node.id()], &mut rng);
            apply(&mut a, &mut b, opening, &mut rng);
            let reply_round = b.algo.on_round(&b.node, &[a.node.id()], &mut rng);
            apply(&mut b, &mut a, reply_round, &mut rng);
        }

        for &id in &live_ids(&a.node) {
            prop_assert!(b.node.has_seen(id), "unseen deficit at b: {:?}", id);
        }
        for &id in &live_ids(&b.node) {
            prop_assert!(a.node.has_seen(id), "unseen deficit at a: {:?}", id);
        }
    }

    /// Summary digests are pattern-labelled only: random steering's
    /// build_any finds nothing to send, so the composition is a safe
    /// no-op for arbitrary cache contents — never a panic.
    #[test]
    fn random_steering_is_inert_for_summary(
        seed in any::<u64>(),
        events in prop::collection::vec(any::<bool>(), 50),
        pull in any::<bool>(),
    ) {
        let config = GossipConfig::default();
        let digest = if pull {
            SummaryDigestPolicy::pull(&config)
        } else {
            SummaryDigestPolicy::push(&config)
        };
        let mut a = peer(
            0,
            1,
            1500,
            Box::new(GossipEngine::new("summary-random", config, digest, RandomSteering)),
        );
        feed(&mut a.node, selected(&events));
        let mut rng = Rng::from_seed(seed);
        for _ in 0..5 {
            let actions = a.algo.on_round(&a.node, &[NodeId::new(1)], &mut rng);
            prop_assert!(actions.is_empty(), "random steering sent a summary digest");
        }
        prop_assert_eq!(a.algo.outstanding_losses(), 0);
    }
}
