//! Properties of the recovery algorithms and their Lost buffer.

use std::collections::BTreeSet;

use eps_gossip::{Algorithm, GossipAction, GossipConfig, GossipMessage, LostBuffer};
use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, DispatcherConfig, Event, EventId, LossRecord, PatternId};
use eps_sim::check::{check, set_of, vec_of, CASES};
use eps_sim::{Rng, RngFactory};

fn record((source, pattern, seq): (u32, u16, u64)) -> LossRecord {
    LossRecord {
        source: NodeId::new(source),
        pattern: PatternId::new(pattern),
        seq,
    }
}

/// A (source, pattern, seq) triple from `0..sources × 0..patterns ×
/// 0..seqs`.
fn triple(rng: &mut Rng, sources: u32, patterns: u16, seqs: u64) -> (u32, u16, u64) {
    (
        rng.random_range(0..sources),
        rng.random_range(0..patterns),
        rng.random_range(0..seqs),
    )
}

/// The event that clears the loss `(source, pattern, seq)`.
fn event_for((source, pattern, seq): (u32, u16, u64)) -> Event {
    Event::new(
        EventId::new(NodeId::new(source), seq),
        vec![(PatternId::new(pattern), seq)],
    )
}

fn any_paper_algorithm(rng: &mut Rng) -> Algorithm {
    let paper = Algorithm::paper();
    paper[rng.random_range(0..paper.len())].clone()
}

/// The Lost buffer's outstanding count equals |added \ cleared|, for
/// arbitrary interleavings.
#[test]
fn lost_buffer_bookkeeping() {
    check("lost_buffer_bookkeeping", CASES, |rng| {
        let adds = vec_of(rng, 0..100, |r| triple(r, 5, 5, 10));
        let clears = vec_of(rng, 0..100, |r| triple(r, 5, 5, 10));
        let mut lost = LostBuffer::new(u32::MAX);
        let mut model = BTreeSet::new();
        for &t in &adds {
            lost.add(record(t));
            model.insert(record(t));
        }
        for &t in &clears {
            lost.clear_for_event(&event_for(t));
            model.remove(&record(t));
        }
        assert_eq!(lost.len(), model.len());
        for rec in &model {
            assert!(lost.contains(rec));
        }
    });
}

/// Selection never returns entries that were recovered, and repeated
/// selection eventually abandons everything.
#[test]
fn lost_buffer_selection_respects_attempts() {
    check("lost_buffer_selection_respects_attempts", CASES, |rng| {
        let entries = set_of(rng, 1..40, |r| triple(r, 4, 4, 20));
        let max_attempts = rng.random_range(1u32..6);
        let mut lost = LostBuffer::new(max_attempts);
        for &t in &entries {
            lost.add(record(t));
        }
        let mut total_selected = 0usize;
        // Selecting everything max_attempts times drains the buffer.
        for _ in 0..max_attempts {
            total_selected += lost.any(entries.len()).len();
        }
        assert!(lost.is_empty(), "buffer should be exhausted");
        assert_eq!(total_selected, entries.len() * max_attempts as usize);
        assert_eq!(lost.abandoned_total(), entries.len() as u64);
    });
}

/// For every algorithm: feeding losses then the matching events always
/// returns the outstanding count to zero, and a round after that, with
/// an empty cache, emits nothing.
#[test]
fn losses_reconcile_for_every_algorithm() {
    check("losses_reconcile_for_every_algorithm", CASES, |rng| {
        let kind = any_paper_algorithm(rng);
        let tuples = set_of(rng, 1..30, |r| triple(r, 4, 4, 20));
        let mut algo = kind.build(GossipConfig::default());
        let losses: Vec<LossRecord> = tuples.iter().map(|&t| record(t)).collect();
        algo.on_losses(&losses);
        if kind != Algorithm::no_recovery() && kind != Algorithm::push() {
            assert_eq!(algo.outstanding_losses(), losses.len());
        }
        for &t in &tuples {
            algo.on_event_received(&event_for(t));
        }
        assert_eq!(algo.outstanding_losses(), 0);
        let node = Dispatcher::new(NodeId::new(9), DispatcherConfig::default());
        let mut stream = RngFactory::new(rng.next_u64()).stream("gossip");
        let actions = algo.on_round(&node, &[NodeId::new(1)], &mut stream);
        assert!(actions.is_empty(), "{kind}: unexpected {actions:?}");
    });
}

/// Gossip actions never target the node itself, and replies only carry
/// events the node actually has cached.
#[test]
fn actions_are_well_formed() {
    check("actions_are_well_formed", CASES, |rng| {
        let kind = any_paper_algorithm(rng);
        let cached_seqs = set_of(rng, 0..20, |r| r.random_range(0u64..30));
        let lost_seqs = set_of(rng, 1..20, |r| r.random_range(0u64..30));
        let p = PatternId::new(1);
        let src = NodeId::new(0);
        let me = NodeId::new(2);
        let mut node = Dispatcher::new(me, DispatcherConfig::default());
        node.subscribe_local(p, &[]);
        node.on_subscribe(p, NodeId::new(3), &[]);
        for &seq in &cached_seqs {
            node.on_event(
                Event::new(EventId::new(src, seq), vec![(p, seq)]),
                Some(NodeId::new(1)),
            );
        }
        let mut algo = kind.build(GossipConfig::default());
        let losses: Vec<LossRecord> = lost_seqs.iter().map(|&s| record((0, 1, s + 100))).collect();
        algo.on_losses(&losses);
        let mut stream = RngFactory::new(rng.next_u64()).stream("gossip");
        let neighbors = [NodeId::new(1), NodeId::new(3)];
        let mut actions = algo.on_round(&node, &neighbors, &mut stream);
        // Also exercise the digest-handling path with a foreign pull
        // digest covering the cached range.
        let digest = GossipMessage::PullDigest {
            gossiper: NodeId::new(7),
            pattern: p,
            lost: (0..30).map(|s| record((0, 1, s))).collect(),
        };
        actions.extend(algo.on_gossip(&node, NodeId::new(1), digest, &neighbors, &mut stream));
        for action in &actions {
            match action {
                GossipAction::Forward { to, .. }
                | GossipAction::Request { to, .. }
                | GossipAction::RequestDetail { to, .. } => assert!(*to != me),
                GossipAction::Reply { to, events } => {
                    assert!(*to != me);
                    for e in events {
                        assert!(
                            node.cache().contains(e.id()),
                            "{kind} replied with an uncached event"
                        );
                    }
                }
            }
        }
    });
}

/// The capacity bound is an invariant, not a hint: under arbitrary
/// interleavings of adds, event-driven clears, and selections, the
/// buffer never holds more than `cap` entries, and every added record
/// is accounted for as outstanding, recovered, abandoned, or evicted.
#[test]
fn lost_buffer_never_exceeds_capacity() {
    check("lost_buffer_never_exceeds_capacity", CASES, |rng| {
        let cap = rng.random_range(1usize..12);
        let max_attempts = rng.random_range(1u32..4);
        let ops = vec_of(rng, 0..200, |r| (r.random_below(3), triple(r, 3, 3, 30)));
        let mut lost = LostBuffer::with_capacity(max_attempts, cap);
        for &(op, t) in &ops {
            match op {
                0 => lost.add(record(t)),
                1 => lost.clear_for_event(&event_for(t)),
                _ => {
                    lost.any(3);
                }
            }
            assert!(
                lost.len() <= cap,
                "len {} exceeds capacity {cap}",
                lost.len()
            );
        }
        assert_eq!(lost.capacity(), cap);
        assert_eq!(
            lost.added_total(),
            lost.len() as u64
                + lost.recovered_total()
                + lost.abandoned_total()
                + lost.evicted_total()
        );
    });
}
