//! The orchestration decisions every runner shares, each made in one
//! place: the run state nodes borrow ([`World`]), link breakage and
//! repair, subscription churn, the send-layer message accounting
//! ([`charge_send`]), and the end-of-run harvest ([`harvest`]).
//!
//! The serial runner, the sharded runner and the socket runtime's
//! node core differ in how they order events, which RNG streams they
//! draw from, and how bytes reach a node. What a break, a repair, a
//! churn swap or a send *does* to the run state is decided here.

use eps_gossip::Envelope;
use eps_metrics::{DeliverySink, DeliveryTracker, MessageCounters};
use eps_overlay::{plan_reconnection, LinkId, NodeId, RoutingView, Topology};
use eps_pubsub::{rebuild_subscription_routes, ClientId, PatternId, PatternSpace, PubSubMessage};
use eps_sim::{Rng, SimTime};

use crate::config::ScenarioConfig;
use crate::node::{routing_stats, NodeCtx, Outgoing, SimNode};
use crate::population::{cross_targets_for, Population};
use crate::result::{assemble, ScenarioResult};
use crate::trace::ScenarioTrace;

/// Run state shared by every node of a simulated run: the overlay,
/// the content model and the subscriber index. Nodes read it while
/// they handle a call; only breaks, repairs and churn change it (in
/// the sharded runner, only at a barrier).
pub(crate) struct World {
    /// The physical overlay graph: the link model, breakage, and
    /// repair act here, and gossip partners are drawn from it.
    pub topology: Topology,
    /// The routing view: the spanning tree events and subscriptions
    /// travel on. On tree overlays the physical topology itself is
    /// used instead (`tree_overlay`), so view and graph stay one
    /// object through break/repair.
    pub view: RoutingView,
    /// `true` when the configured overlay is acyclic, i.e. the view
    /// is the physical graph itself.
    pub tree_overlay: bool,
    pub space: PatternSpace,
    /// Current client-subscriptions of each pattern (see
    /// [`NodeCtx::subscribers_of`]).
    pub subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
}

impl World {
    /// Takes the shared parts of a freshly built population; the
    /// caller keeps its nodes.
    pub fn new(config: &ScenarioConfig, population: Population) -> (World, Vec<SimNode>, u64) {
        let Population {
            topology,
            view,
            space,
            nodes,
            subscribers_of,
            setup_subscription_msgs,
            ..
        } = population;
        let world = World {
            topology,
            view,
            tree_overlay: config.overlay.is_tree(),
            space,
            subscribers_of,
        };
        (world, nodes, setup_subscription_msgs)
    }

    /// `node`'s neighbors in the routing view.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        if self.tree_overlay {
            self.topology.neighbors(node)
        } else {
            self.view.neighbors(node)
        }
    }

    /// The context lent to `node` for one call. Neighborhoods are
    /// borrowed straight from the topology and view: no per-message
    /// allocation on the delivery hot path.
    pub fn ctx<'a>(
        &'a self,
        node: NodeId,
        now: SimTime,
        gossip_rng: &'a mut Rng,
        tracker: &'a mut dyn DeliverySink,
        counters: &'a mut MessageCounters,
        trace: &'a mut Option<ScenarioTrace>,
    ) -> NodeCtx<'a> {
        NodeCtx {
            now,
            neighbors: self.neighbors(node),
            graph_neighbors: self.topology.neighbors(node),
            space: &self.space,
            subscribers_of: &self.subscribers_of,
            gossip_rng,
            tracker,
            counters,
            trace,
        }
    }

    /// Removes one uniformly drawn link of the physical graph, if the
    /// graph has any. Resetting the link's transport state is the
    /// caller's job.
    pub fn break_link(&mut self, rng: &mut Rng) -> Option<LinkId> {
        let link = rng.choose_iter(self.topology.links())?;
        self.topology.remove_link(link).expect("chosen link exists");
        Some(link)
    }

    /// Repairs the overlay after a break: reconnects the components if
    /// a link can be added, then brings routing state in line with the
    /// new graph. `hosts` is every node, in id order. Returns the added
    /// link, if any.
    pub fn repair(
        &mut self,
        rng: &mut Rng,
        hosts: &mut [&mut SimNode],
    ) -> Option<(NodeId, NodeId)> {
        let reconnected = plan_reconnection(&self.topology, rng);
        if let Some((x, y)) = reconnected {
            self.topology
                .add_link(x, y)
                .expect("reconnection endpoints have spare degree");
        }
        if self.tree_overlay {
            if reconnected.is_some() {
                // The reconfiguration protocol of [7] has completed:
                // subscription routes are consistent with the new
                // overlay.
                rebuild_subscription_routes(hosts, &self.topology);
            }
        } else {
            // Cyclic overlay: even when the graph stayed connected
            // (no replacement link — the overlay thins gradually),
            // the view may have been using the vanished link.
            // Re-derive it, rebuild routes, and recompute each node's
            // cross targets against the fresh tree/graph split.
            self.view = RoutingView::derive(&self.topology);
            rebuild_subscription_routes(hosts, self.view.tree());
            let interests: Vec<Vec<PatternId>> =
                hosts.iter().map(|h| h.subscriptions().to_vec()).collect();
            for (i, host) in hosts.iter_mut().enumerate() {
                let id = NodeId::new(i as u32);
                host.set_cross_targets(cross_targets_for(
                    id,
                    &self.topology,
                    &self.view,
                    &interests,
                ));
            }
        }
        reconnected
    }

    /// Draws one subscription swap: a random dispatcher's client
    /// trades one of its patterns (`patterns_of(node, client)`) for
    /// one it does not hold. `None` when the draw found nothing to
    /// swap.
    ///
    /// Draw order on `rng`: node, client (only with more than one
    /// client per node), the pattern to drop, the pattern to add.
    pub fn draw_churn(
        &self,
        config: &ScenarioConfig,
        rng: &mut Rng,
        patterns_of: impl FnOnce(NodeId, ClientId) -> Vec<PatternId>,
    ) -> Option<Churn> {
        let node = NodeId::new(rng.random_range(0..config.nodes as u32));
        // With one client per node the client pick is determined, so
        // no draw is consumed — the churn stream stays byte-compatible
        // with the pre-client-layer runner.
        let client = if config.clients_per_node > 1 {
            ClientId::new(rng.random_range(0..config.clients_per_node as u32))
        } else {
            ClientId::new(0)
        };
        let subs = patterns_of(node, client);
        if subs.is_empty() {
            return None;
        }
        let old = subs[rng.random_range(0..subs.len())];
        let candidates: Vec<PatternId> = self
            .space
            .patterns()
            .filter(|p| !subs.contains(p))
            .collect();
        let &new = rng.choose(&candidates)?;
        Some(Churn {
            node,
            client,
            old,
            new,
        })
    }

    /// Applies a drawn swap: the node's (un)subscriptions, the
    /// cross-link partners' copy of its interest, and the subscriber
    /// index. `hosts` is every node, in id order. Returns the messages
    /// the churning node sends.
    pub fn apply_churn(
        &mut self,
        churn: Churn,
        hosts: &mut [&mut SimNode],
        counters: &mut MessageCounters,
    ) -> Vec<Outgoing> {
        let Churn {
            node,
            client,
            old,
            new,
        } = churn;
        // (Un)subscriptions propagate on the routing view, like every
        // other piece of protocol traffic.
        let (out, aggregate_changed) =
            hosts[node.index()].apply_churn(client, old, new, self.neighbors(node));
        if aggregate_changed && !self.tree_overlay {
            // Cross-link partners keep a copy of this node's interest
            // to filter their replication; refresh it, charging one
            // subscription message per cross link for the notice. A
            // client swap absorbed by the aggregate changes nothing at
            // broker level, so no notice goes out.
            let interest = hosts[node.index()].subscriptions().to_vec();
            for chord in self.view.cross_neighbors(&self.topology, node) {
                counters.count_subscription(node);
                hosts[chord.index()].update_cross_partner(node, interest.clone());
            }
        }
        // Keep the metrics' view of intended recipients current, at
        // client granularity.
        self.subscribers_of[old.index()].retain(|&s| s != (node, client));
        self.subscribers_of[new.index()].push((node, client));
        self.subscribers_of[new.index()].sort_unstable();
        out
    }
}

/// One subscription swap: `client` at `node` drops `old` for `new`.
#[derive(Clone, Copy)]
pub(crate) struct Churn {
    pub node: NodeId,
    pub client: ClientId,
    pub old: PatternId,
    pub new: PatternId,
}

/// Charges one outgoing message to the send-layer counters and returns
/// its wire size in bits. Event copies (tree or cross link) and
/// subscriptions are counted as messages; gossip, request and reply
/// *messages* are counted by the node when it decides to send them, so
/// only their wire bits are charged here. Runners charge before
/// consulting link state: a message lost to a broken link was still
/// sent.
pub fn charge_send(
    counters: &mut MessageCounters,
    from: NodeId,
    env: &Envelope,
    payload_bits: u64,
) -> u64 {
    let bits = env.wire_bits(payload_bits);
    match env {
        Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::CrossEvent(_) => {
            counters.count_event(from)
        }
        Envelope::PubSub(_) => counters.count_subscription(from),
        Envelope::Gossip(_) => counters.count_gossip_bits(bits),
        Envelope::Request(_) | Envelope::RangeRequest { .. } => counters.count_request_bits(bits),
        Envelope::Reply(_) => counters.count_reply_bits(bits),
    }
    bits
}

/// The delivery tracker a simulated run records into. Churn makes
/// "subscribed after publish, delivered on arrival" legitimate, so a
/// churning run tolerates it instead of treating it as a bug.
pub(crate) fn run_tracker(config: &ScenarioConfig) -> DeliveryTracker {
    if config.churn_interval.is_some() {
        DeliveryTracker::new_tolerant()
    } else {
        DeliveryTracker::new()
    }
}

/// Turns a finished run into its [`ScenarioResult`]: sums the `Lost`
/// entries still outstanding and the ones evicted (charging the
/// evictions to `counters`), samples the routing state, and
/// [`assemble`]s. Every runner ends here, the socket runtime included.
pub fn harvest<'a, I>(
    config: &ScenarioConfig,
    tracker: &DeliveryTracker,
    counters: &mut MessageCounters,
    nodes: I,
    setup_subscription_msgs: u64,
    reconfigurations: u64,
    churn_events: u64,
) -> ScenarioResult
where
    I: IntoIterator<Item = &'a SimNode>,
    I::IntoIter: Clone,
{
    let nodes = nodes.into_iter();
    let outstanding: u64 = nodes.clone().map(|n| n.outstanding_losses() as u64).sum();
    counters.count_lost_evictions(nodes.clone().map(SimNode::lost_evictions).sum());
    assemble(
        config,
        tracker,
        counters,
        outstanding,
        reconfigurations,
        churn_events,
        routing_stats(nodes, setup_subscription_msgs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_gossip::GossipMessage;
    use eps_pubsub::{Event, EventId, RangeRef};
    use std::sync::Arc;

    #[test]
    fn charge_send_charges_exactly_one_class_per_envelope() {
        const PAYLOAD_BITS: u64 = 1024;
        let (from, p) = (NodeId::new(2), PatternId::new(3));
        let id = EventId::new(NodeId::new(1), 7);
        let event = Event::new(id, vec![(p, 7)]);
        // (envelope, the class it charges: 0 event and 1 subscription
        // messages, 2 gossip, 3 request and 4 reply bits)
        let cases = [
            (Envelope::PubSub(PubSubMessage::Event(event.clone())), 0),
            (Envelope::CrossEvent(event.clone()), 0),
            (Envelope::PubSub(PubSubMessage::Subscribe(p)), 1),
            (
                Envelope::Gossip(GossipMessage::PushDigest {
                    gossiper: from,
                    pattern: p,
                    ids: Arc::new(vec![id]),
                }),
                2,
            ),
            (Envelope::Request(vec![id; 3]), 3),
            (
                Envelope::RangeRequest {
                    pattern: p,
                    ranges: vec![RangeRef::ROOT],
                },
                3,
            ),
            (Envelope::Reply(vec![event.clone(), event]), 4),
        ];
        for (env, class) in cases {
            let mut c = MessageCounters::new(4);
            let bits = charge_send(&mut c, from, &env, PAYLOAD_BITS);
            assert_eq!(bits, env.wire_bits(PAYLOAD_BITS), "{env:?}");
            let charged = [
                c.event_total(),
                c.subscription_total(),
                c.gossip_wire_bits(),
                c.request_wire_bits(),
                c.reply_wire_bits(),
            ];
            let mut expected = [0; 5];
            expected[class] = if class < 2 { 1 } else { bits };
            assert_eq!(charged, expected, "{env:?}");
        }
    }
}
