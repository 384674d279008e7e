//! Properties of the publish-subscribe substrate: content model,
//! caches, loss detection, publishing, and routing over the tree.

use std::collections::{BTreeSet, HashMap, HashSet};

use eps_overlay::{NodeId, Topology};
use eps_pubsub::{
    flood_subscriptions, install_local_subscriptions, Dispatcher, DispatcherConfig, Event,
    EventCache, EventId, EventReceipt, LossDetector, PatternId, PatternSpace, PubSubMessage,
};
use eps_sim::check::{check, set_of, vec_of, CASES};
use eps_sim::RngFactory;

/// Generated event content is always sorted, distinct, non-empty,
/// bounded, and inside the universe.
#[test]
fn content_model_invariants() {
    check("content_model_invariants", CASES, |rng| {
        let universe = rng.random_range(1u16..200);
        let max_per_event = rng.random_range(1usize..6);
        let space = PatternSpace::new(universe, max_per_event);
        let mut stream = RngFactory::new(rng.next_u64()).stream("content");
        for _ in 0..50 {
            let content = space.random_content(&mut stream);
            assert!(!content.is_empty());
            assert!(content.len() <= max_per_event);
            assert!(content.windows(2).all(|w| w[0] < w[1]));
            assert!(content.iter().all(|p| p.value() < universe));
        }
    });
}

/// The FIFO cache never exceeds capacity and always retains exactly
/// the most recent distinct events.
#[test]
fn cache_retains_exactly_the_newest() {
    check("cache_retains_exactly_the_newest", CASES, |rng| {
        let capacity = rng.random_range(1usize..50);
        let count = rng.random_range(1u64..200);
        let mut cache = EventCache::new(capacity);
        for seq in 0..count {
            cache.insert(Event::new(
                EventId::new(NodeId::new(0), seq),
                vec![(PatternId::new((seq % 70) as u16), seq)],
            ));
            assert!(cache.len() <= capacity);
        }
        let first_kept = count.saturating_sub(capacity as u64);
        for seq in 0..count {
            let id = EventId::new(NodeId::new(0), seq);
            assert_eq!(cache.contains(id), seq >= first_kept, "seq {seq}");
        }
    });
}

/// The pattern-seq index agrees with the id index at all times.
#[test]
fn cache_indices_are_consistent() {
    check("cache_indices_are_consistent", CASES, |rng| {
        let capacity = rng.random_range(1usize..30);
        let seqs = vec_of(rng, 1..100, |r| r.random_range(0u64..100));
        let mut cache = EventCache::new(capacity);
        for (i, &ps) in seqs.iter().enumerate() {
            cache.insert(Event::new(
                EventId::new(NodeId::new(0), i as u64),
                vec![(PatternId::new(1), ps * 1000 + i as u64)],
            ));
        }
        for event in cache.iter() {
            let &(p, s) = &event.pattern_seqs()[0];
            let via_index = cache.get_by_pattern_seq(event.source(), p, s);
            assert_eq!(via_index.map(|e| e.id()), Some(event.id()));
        }
    });
}

/// Feeding the detector a stream with gaps reports exactly the missing
/// sequence numbers below the highest delivered one.
#[test]
fn detector_finds_exactly_the_gaps() {
    check("detector_finds_exactly_the_gaps", CASES, |rng| {
        let delivered_mask = vec_of(rng, 1..100, |r| r.random_bool(0.5));
        let mut det = LossDetector::new();
        let p = PatternId::new(5);
        let src = NodeId::new(3);
        let mut got = Vec::new();
        for (seq, &keep) in delivered_mask.iter().enumerate() {
            if keep {
                let e = Event::new(EventId::new(src, seq as u64), vec![(p, seq as u64)]);
                got.extend(det.observe(&e, |_| true).into_iter().map(|l| l.seq));
            }
        }
        let expected: Vec<u64> = match delivered_mask.iter().rposition(|&k| k) {
            None => vec![],
            Some(last) => (0..last)
                .filter(|&s| !delivered_mask[s])
                .map(|s| s as u64)
                .collect(),
        };
        got.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// Publishing assigns globally unique ids and dense per-pattern
/// sequence numbers.
#[test]
fn publish_sequences_are_dense() {
    check("publish_sequences_are_dense", CASES, |rng| {
        let contents = vec_of(rng, 1..100, |r| {
            set_of(r, 1..4, |r| r.random_range(0u16..20))
        });
        let mut d = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut per_pattern: HashMap<u16, u64> = HashMap::new();
        let mut ids = HashSet::new();
        for content in contents {
            let patterns: Vec<PatternId> = content.iter().map(|&p| PatternId::new(p)).collect();
            let (event, _) = d.publish(&patterns);
            assert!(ids.insert(event.id()), "duplicate event id");
            for &(p, seq) in event.pattern_seqs() {
                let counter = per_pattern.entry(p.value()).or_insert(0);
                assert_eq!(seq, *counter, "non-dense sequence for {p}");
                *counter += 1;
            }
        }
    });
}

/// Dispatchers of a random tree of `n` nodes (max degree 4) with the
/// given local subscriptions, flooded to every node.
fn flooded_tree(
    n: usize,
    factory: &RngFactory,
    config: DispatcherConfig,
    subs: &[Vec<PatternId>],
) -> (Topology, Vec<Dispatcher>) {
    let topo = Topology::random_tree(n, 4, &mut factory.stream("topology"));
    let mut ds: Vec<Dispatcher> = topo.nodes().map(|id| Dispatcher::new(id, config)).collect();
    install_local_subscriptions(&mut ds, subs);
    flood_subscriptions(&mut ds, &topo);
    (topo, ds)
}

/// Hand-routes a publication loss-free over the tree until no forward
/// is left, returning the dispatchers that delivered it locally.
fn route_publication(
    ds: &mut [Dispatcher],
    publisher: NodeId,
    receipt: EventReceipt,
) -> BTreeSet<usize> {
    let mut delivered = BTreeSet::new();
    if receipt.delivered {
        delivered.insert(publisher.index());
    }
    fn push(queue: &mut Vec<(NodeId, NodeId, Event)>, from: NodeId, receipt: EventReceipt) {
        for f in receipt.forwards {
            match f.msg {
                PubSubMessage::Event(e) => queue.push((f.to, from, e)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let mut queue = Vec::new();
    push(&mut queue, publisher, receipt);
    let mut hops = 0usize;
    while let Some((to, from, e)) = queue.pop() {
        hops += 1;
        assert!(hops <= 4 * ds.len(), "routing does not terminate");
        let r = ds[to.index()].on_event(e, Some(from));
        if r.delivered {
            delivered.insert(to.index());
        }
        push(&mut queue, to, r);
    }
    delivered
}

/// After flooding, routing an event from any publisher reaches exactly
/// the subscribers of its patterns (loss-free hand routing over the
/// tree).
#[test]
fn routing_reaches_exactly_the_subscribers() {
    check("routing_reaches_exactly_the_subscribers", CASES, |rng| {
        let n = rng.random_range(2usize..40);
        let factory = RngFactory::new(rng.next_u64());
        let space = PatternSpace::paper_default();
        let mut subs_rng = factory.stream("subs");
        let subs: Vec<Vec<PatternId>> = (0..n)
            .map(|_| space.random_subscriptions(2, &mut subs_rng))
            .collect();
        let (_, mut ds) = flooded_tree(n, &factory, DispatcherConfig::default(), &subs);

        let publisher = NodeId::new(rng.next_u64() as u32 % n as u32);
        let content = space.random_content(&mut factory.stream("content"));
        let expected: BTreeSet<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.iter().any(|p| content.contains(p)))
            .map(|(i, _)| i)
            .collect();
        let (event, receipt) = ds[publisher.index()].publish(&content);
        let delivered = route_publication(&mut ds, publisher, receipt);
        assert_eq!(delivered, expected, "event {} mis-routed", event.id());
    });
}

/// Route recording reconstructs the actual tree path from the
/// publisher to any receiver.
#[test]
fn recorded_routes_match_tree_paths() {
    check("recorded_routes_match_tree_paths", CASES, |rng| {
        let n = rng.random_range(2usize..40);
        let factory = RngFactory::new(rng.next_u64());
        let config = DispatcherConfig {
            record_routes: true,
            ..DispatcherConfig::default()
        };
        // Everyone subscribes to pattern 0 so the event floods the tree.
        let p = PatternId::new(0);
        let (topo, mut ds) = flooded_tree(n, &factory, config, &vec![vec![p]; n]);

        let publisher = NodeId::new(0);
        let (_, receipt) = ds[0].publish(&[p]);
        route_publication(&mut ds, publisher, receipt);
        for node in topo.nodes().skip(1) {
            let recorded = ds[node.index()]
                .routes()
                .route_from(publisher)
                .expect("event reached everyone");
            let expected = topo.path(publisher, node).unwrap();
            assert_eq!(recorded, &expected[..]);
        }
    });
}
