//! Properties of the overlay substrate: builders, routing views, tree
//! paths, reconfiguration, and links.

use eps_overlay::{
    plan_reconfiguration, plan_reconnection, LinkSpec, LinkTable, NodeId, OverlayKind, RoutingView,
    Topology, BA_ATTACHMENTS,
};
use eps_sim::check::{check, vec_of, CASES};
use eps_sim::{Rng, RngFactory, SimTime};

/// The smallest admissible (n, max_degree) floor per builder: BA needs
/// room for `2 * BA_ATTACHMENTS` links per node, WS needs the ring
/// lattice (degree 4) plus one spare for rewiring.
fn builder_floor(kind: OverlayKind) -> (usize, usize) {
    match kind {
        OverlayKind::Tree => (1, 2),
        OverlayKind::BarabasiAlbert => (BA_ATTACHMENTS + 1, 2 * BA_ATTACHMENTS),
        OverlayKind::WattsStrogatz => (5, 5),
    }
}

fn any_kind(rng: &mut Rng) -> OverlayKind {
    OverlayKind::all()[rng.random_range(0usize..3)]
}

/// Link symmetry: every link appears in both adjacency lists.
fn assert_symmetric(topo: &Topology) {
    for link in topo.links() {
        assert!(topo.neighbors(link.a()).contains(&link.b()));
        assert!(topo.neighbors(link.b()).contains(&link.a()));
    }
}

/// Random trees are always connected, acyclic, and degree-bounded, for
/// any size, bound, and seed.
#[test]
fn random_trees_are_valid() {
    check("random_trees_are_valid", CASES, |rng| {
        let n = rng.random_range(1usize..300);
        let max_degree = rng.random_range(2usize..8);
        let mut stream = RngFactory::new(rng.next_u64()).stream("topology");
        let topo = Topology::random_tree(n, max_degree, &mut stream);
        assert_eq!(topo.len(), n);
        assert!(topo.is_tree());
        assert!(topo.nodes().all(|v| topo.degree(v) <= max_degree));
        assert_symmetric(&topo);
    });
}

/// Every builder yields a connected, degree-bounded graph with
/// symmetric adjacency, for any admissible size, bound, and seed.
#[test]
fn every_builder_is_connected_and_degree_bounded() {
    check(
        "every_builder_is_connected_and_degree_bounded",
        CASES,
        |rng| {
            let kind = any_kind(rng);
            let (n_floor, degree_floor) = builder_floor(kind);
            let n = n_floor + rng.random_range(0usize..200);
            let max_degree = degree_floor + rng.random_range(0usize..5);
            let mut stream = RngFactory::new(rng.next_u64()).stream("topology");
            let topo = Topology::build(kind, n, max_degree, &mut stream);
            assert_eq!(topo.len(), n);
            assert!(topo.is_connected());
            assert!(topo.nodes().all(|v| topo.degree(v) <= max_degree));
            if kind.is_tree() {
                assert!(topo.is_tree());
            }
            assert_symmetric(&topo);
        },
    );
}

/// Builders are pure functions of (kind, n, max_degree, seed): the same
/// inputs reproduce the identical link set and neighbor order.
#[test]
fn builders_are_seed_deterministic() {
    check("builders_are_seed_deterministic", CASES, |rng| {
        let kind = any_kind(rng);
        let (n_floor, degree_floor) = builder_floor(kind);
        let n = n_floor + rng.random_range(0usize..120);
        let seed = rng.next_u64();
        let build = || {
            let mut stream = RngFactory::new(seed).stream("topology");
            Topology::build(kind, n, degree_floor + 1, &mut stream)
        };
        let (a, b) = (build(), build());
        assert_eq!(a.link_count(), b.link_count());
        for v in a.nodes() {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    });
}

/// The routing view of a tree IS the tree: identity, same links, same
/// neighbor order. The view of a cyclic graph is a spanning tree of it
/// — every view link exists in the physical graph, and the cross
/// neighbors are exactly the physical remainder.
#[test]
fn routing_view_spans_the_graph_and_is_identity_on_trees() {
    check(
        "routing_view_spans_the_graph_and_is_identity_on_trees",
        CASES,
        |rng| {
            let kind = any_kind(rng);
            let (n_floor, degree_floor) = builder_floor(kind);
            let n = n_floor + rng.random_range(0usize..120);
            let mut stream = RngFactory::new(rng.next_u64()).stream("topology");
            let topo = Topology::build(kind, n, degree_floor + 1, &mut stream);
            let view = RoutingView::derive(&topo);
            assert!(view.tree().is_tree());
            assert_eq!(view.tree().len(), n);
            assert_eq!(view.is_identity(), topo.is_tree());
            if view.is_identity() {
                assert_eq!(view.tree().link_count(), topo.link_count());
            }
            for v in topo.nodes() {
                if view.is_identity() {
                    assert_eq!(view.neighbors(v), topo.neighbors(v));
                }
                // Every view link is physical; view + cross = physical.
                let cross = view.cross_neighbors(&topo, v);
                for &u in view.neighbors(v) {
                    assert!(topo.has_link(v, u));
                    assert!(!cross.contains(&u));
                }
                assert_eq!(view.neighbors(v).len() + cross.len(), topo.degree(v));
            }
        },
    );
}

/// Tree paths are unique, adjacent hop by hop, and symmetric.
#[test]
fn tree_paths_are_simple_and_symmetric() {
    check("tree_paths_are_simple_and_symmetric", CASES, |rng| {
        let n = rng.random_range(2usize..150);
        let mut stream = RngFactory::new(rng.next_u64()).stream("topology");
        let topo = Topology::random_tree(n, 4, &mut stream);
        let a = NodeId::new(rng.next_u64() as u32 % n as u32);
        let b = NodeId::new(rng.next_u64() as u32 % n as u32);
        let path = topo.path(a, b).expect("trees are connected");
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        for w in path.windows(2) {
            assert!(topo.has_link(w[0], w[1]));
        }
        // No repeated nodes (simple path).
        let mut dedup = path.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), path.len());
        // Symmetry.
        let mut reverse = topo.path(b, a).unwrap();
        reverse.reverse();
        assert_eq!(reverse, path);
    });
}

/// A long storm of single reconfigurations always leaves a valid tree
/// behind.
#[test]
fn reconfiguration_storm_preserves_the_tree() {
    check("reconfiguration_storm_preserves_the_tree", CASES, |rng| {
        let n = rng.random_range(2usize..100);
        let steps = rng.random_range(0usize..60);
        let factory = RngFactory::new(rng.next_u64());
        let mut topo = Topology::random_tree(n, 4, &mut factory.stream("topology"));
        let mut stream = factory.stream("reconfig");
        for _ in 0..steps {
            if let Some(plan) = plan_reconfiguration(&topo, &mut stream) {
                topo.remove_link(plan.broken).unwrap();
                topo.add_link(plan.replacement.0, plan.replacement.1)
                    .unwrap();
            }
        }
        assert!(topo.is_tree());
    });
}

/// Overlapping breaks followed by as many reconnections always
/// converge back to a tree.
#[test]
fn reconnections_heal_any_fragmentation() {
    check("reconnections_heal_any_fragmentation", CASES, |rng| {
        let n = rng.random_range(3usize..80);
        let breaks = rng.random_range(1usize..6);
        let factory = RngFactory::new(rng.next_u64());
        let mut topo = Topology::random_tree(n, 4, &mut factory.stream("topology"));
        let mut stream = factory.stream("reconfig");
        let mut broken = 0;
        for _ in 0..breaks {
            let Some(link) = topo.links().next() else {
                break;
            };
            topo.remove_link(link).unwrap();
            broken += 1;
        }
        for _ in 0..broken {
            if let Some((x, y)) = plan_reconnection(&topo, &mut stream) {
                topo.add_link(x, y).unwrap();
            }
        }
        assert!(topo.is_tree());
    });
}

/// Link transmissions never violate causality, and back-to-back sends
/// in one direction arrive in FIFO order.
#[test]
fn link_arrivals_are_causal_and_fifo() {
    check("link_arrivals_are_causal_and_fifo", CASES, |rng| {
        let sizes = vec_of(rng, 1..50, |r| r.random_range(1u64..100_000));
        let now = SimTime::from_nanos(rng.random_range(0u64..1_000_000));
        let spec = LinkSpec::ethernet_10mbps(0.0);
        let mut table = LinkTable::new();
        let mut stream = RngFactory::new(rng.next_u64()).stream("loss");
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut last_arrival = SimTime::ZERO;
        for &bits in &sizes {
            let t = table
                .transmit(&spec, a, b, bits, now, &mut stream)
                .arrival()
                .expect("lossless link");
            assert!(t >= now + spec.propagation);
            assert!(t >= last_arrival, "FIFO violated");
            last_arrival = t;
        }
        assert_eq!(table.transmitted(), sizes.len() as u64);
        assert_eq!(table.lost(), 0);
    });
}

/// Serialization delay is additive in message size.
#[test]
fn serialization_is_additive() {
    check("serialization_is_additive", CASES, |rng| {
        let x = rng.random_range(0u64..1_000_000);
        let y = rng.random_range(0u64..1_000_000);
        let spec = LinkSpec::ethernet_10mbps(0.0);
        let dx = spec.serialization_delay(x);
        let dy = spec.serialization_delay(y);
        let dxy = spec.serialization_delay(x + y);
        // Integer division may round each part down by < 1 ns.
        let sum = dx + dy;
        assert!(dxy >= sum);
        assert!(dxy.as_nanos() - sum.as_nanos() <= 2);
    });
}
