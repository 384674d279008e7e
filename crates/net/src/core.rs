//! The transport-independent half of a socket-mode node: one
//! [`SimNode`] plus its timers, RNG streams, and metrics sinks, driven
//! by whoever owns the sockets.
//!
//! The epoll reactor in `reactor.rs` wraps one core per hosted node.
//! Everything that touches protocol state, RNG draws, or byte
//! accounting lives here, so the reactor decides only how bytes and
//! wakeups reach a node — never what the node does with them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use eps_gossip::codec;
use eps_gossip::{Channel, Envelope};
use eps_harness::{
    charge_send, AdaptiveGossip, NodeCtx, Outgoing, ScenarioTrace, SimNode, TraceRecord,
};
use eps_metrics::{DeliveryTracker, MessageCounters, NetCounters};
use eps_overlay::NodeId;
use eps_pubsub::{ClientId, PatternSpace, PubSubMessage};
use eps_sim::{Rng, SimTime};

/// Run-wide shared state: the stop flag and the adaptive-stop
/// progress counters the coordinator polls.
#[derive(Debug, Default)]
pub(crate) struct Shared {
    /// Set once by the coordinator (or a process node's stop timer);
    /// every worker exits its loop.
    pub stop_all: AtomicBool,
    /// Intended deliveries, summed over all publishes so far.
    pub expected: AtomicU64,
    /// Actual deliveries (first copies only, recovered or not).
    pub delivered: AtomicU64,
    /// Nodes whose publish schedule is exhausted.
    pub publishers_done: AtomicU64,
}

/// One message the core wants on the wire: the target, which channel
/// class it travels on, and the already-encoded (post-`fit`) body.
/// The transport layer frames/prefixes it and does the socket work.
pub(crate) struct Outbound {
    pub to: NodeId,
    pub channel: Channel,
    pub body: Vec<u8>,
}

/// Constructor parameters that are per-node (everything scenario-wide
/// comes from [`NodeParams`] passed alongside).
pub(crate) struct CoreSetup {
    pub node: SimNode,
    /// Routing-view neighbors (TCP tree links).
    pub neighbors: Vec<NodeId>,
    /// Physical-graph neighbors (gossip neighborhood).
    pub graph_neighbors: Vec<NodeId>,
    pub space: PatternSpace,
    pub subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
    pub gossip_rng: Rng,
    pub loss_rng: Rng,
    pub counters_width: usize,
    pub trace_capacity: usize,
}

pub(crate) struct NodeParams {
    pub payload_bits: u64,
    pub loss_rate: f64,
    pub publish_rate: f64,
    pub gossip_interval: SimTime,
    pub adaptive: Option<AdaptiveGossip>,
    pub duration: SimTime,
}

/// The protocol state of one socket-mode node. Owns no sockets;
/// returns [`Outbound`] batches for the runtime to put on the wire.
pub(crate) struct NodeCore {
    pub id: NodeId,
    node: SimNode,
    /// Routing-view neighbors: the peers this node keeps TCP tree
    /// links to, and the targets of protocol forwards.
    neighbors: Vec<NodeId>,
    /// Physical-graph neighbors: the neighborhood gossip draws
    /// partners from. Equal to `neighbors` on tree overlays; the
    /// extra members (cross links) are reached over UDP.
    graph_neighbors: Vec<NodeId>,
    space: PatternSpace,
    subscribers_of: Vec<Vec<(NodeId, ClientId)>>,

    payload_bits: u64,
    loss_rate: f64,
    publish_rate: f64,
    gossip_interval: SimTime,
    adaptive: Option<AdaptiveGossip>,
    duration: SimTime,

    gossip_rng: Rng,
    loss_rng: Rng,

    pub tracker: DeliveryTracker,
    pub counters: MessageCounters,
    pub net: NetCounters,
    pub trace: Option<ScenarioTrace>,

    /// Virtual time of the next publish tick (`None` = schedule
    /// exhausted). Mirrors the simulator: the first tick is one
    /// workload-RNG draw after zero, each tick renews iff
    /// `tick + delay < duration`, and the last scheduled tick fires
    /// even past `duration`.
    publish_vnext: Option<SimTime>,
    publish_done_reported: bool,
    gossip_vnext: SimTime,
}

impl NodeCore {
    pub(crate) fn new(setup: CoreSetup, params: NodeParams) -> NodeCore {
        let mut node = setup.node;
        let id = node.id();
        // The simulator seeds each publish process with one delay draw
        // before anything else touches the workload stream; replay
        // that exactly so the publication sequences coincide.
        let publish_vnext = if params.publish_rate > 0.0 {
            Some(node.next_publish_delay(params.publish_rate))
        } else {
            None
        };
        let mut gossip_rng = setup.gossip_rng;
        // Stagger gossip phases uniformly over one interval, as the
        // simulator does (from this node's own stream — a documented
        // sim/net divergence; see DESIGN.md).
        let gossip_vnext = params
            .gossip_interval
            .mul_f64(gossip_rng.random_range(0.0..1.0));
        NodeCore {
            id,
            node,
            neighbors: setup.neighbors,
            graph_neighbors: setup.graph_neighbors,
            space: setup.space,
            subscribers_of: setup.subscribers_of,
            payload_bits: params.payload_bits,
            loss_rate: params.loss_rate,
            publish_rate: params.publish_rate,
            gossip_interval: params.gossip_interval,
            adaptive: params.adaptive,
            duration: params.duration,
            gossip_rng,
            loss_rng: setup.loss_rng,
            tracker: DeliveryTracker::new(),
            counters: MessageCounters::new(setup.counters_width),
            net: NetCounters::default(),
            trace: Some(ScenarioTrace::new(setup.trace_capacity)),
            publish_vnext,
            publish_done_reported: false,
            gossip_vnext,
        }
    }

    /// The wrapped node actor, for end-of-run routing-state sampling.
    pub(crate) fn sim_node(&self) -> &SimNode {
        &self.node
    }

    /// Routing-view neighbors — the peers the runtime keeps TCP tree
    /// links to.
    pub(crate) fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Reports an empty publish schedule to the convergence counters;
    /// call once before the first loop iteration.
    pub(crate) fn bootstrap(&mut self, shared: &Shared) {
        if self.publish_vnext.is_none() {
            self.report_publish_done(shared);
        }
    }

    fn report_publish_done(&mut self, shared: &Shared) {
        if !self.publish_done_reported {
            self.publish_done_reported = true;
            shared.publishers_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The earliest virtual time at which a timer is due: the next
    /// publish tick (if the schedule is live) or the next gossip round.
    /// The reactor arms its timer wheel against this one helper.
    pub(crate) fn next_deadline(&self) -> SimTime {
        match self.publish_vnext {
            Some(p) => p.min(self.gossip_vnext),
            None => self.gossip_vnext,
        }
    }

    /// Handles one decoded-frame body arriving from `from`, applying
    /// receive-side loss injection on the tree/cross channels. Returns
    /// what the node wants sent in response.
    pub(crate) fn handle_body(
        &mut self,
        from: NodeId,
        body: &[u8],
        tree: bool,
        now: SimTime,
        shared: &Shared,
    ) -> Vec<Outbound> {
        let env_msg = match codec::decode(body, self.payload_bits) {
            Ok(m) => m,
            Err(_) => {
                self.net.decode_errors += 1;
                return Vec::new();
            }
        };
        // Receive-side loss injection, the net analogue of the
        // simulator's per-link error rate ε. Applied to tree traffic
        // and to cross-link event copies, which the simulator runs
        // through the same lossy link model even though this runtime
        // carries them over UDP. The out-of-band recovery channel
        // stays lossless (the paper's default configuration, and real
        // loopback UDP nearly is).
        if (tree
            && matches!(
                env_msg,
                Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::Gossip(_)
            )
            || matches!(env_msg, Envelope::CrossEvent(_)))
            && self.loss_rate > 0.0
            && self.loss_rng.random_bool(self.loss_rate)
        {
            self.net.injected_drops += 1;
            return Vec::new();
        }
        let before = self.trace_len();
        let out = self.with_ctx(now, |node, ctx| node.handle(from, env_msg, ctx));
        let delivered = self.delivers_since(before);
        if delivered > 0 {
            shared.delivered.fetch_add(delivered, Ordering::Relaxed);
        }
        self.route(out)
    }

    /// Lends the node its [`NodeCtx`] for one call.
    fn with_ctx<R>(&mut self, now: SimTime, f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R) -> R {
        let mut ctx = NodeCtx {
            now,
            neighbors: &self.neighbors,
            graph_neighbors: &self.graph_neighbors,
            space: &self.space,
            subscribers_of: &self.subscribers_of,
            gossip_rng: &mut self.gossip_rng,
            tracker: &mut self.tracker,
            counters: &mut self.counters,
            trace: &mut self.trace,
        };
        f(&mut self.node, &mut ctx)
    }

    fn trace_len(&self) -> usize {
        self.trace.as_ref().map(|t| t.len()).unwrap_or(0)
    }

    /// Deliver records appended since `before` — the increment for the
    /// adaptive-stop counter. Scans only the new tail, so the cost per
    /// message stays constant.
    fn delivers_since(&self, before: usize) -> u64 {
        self.trace
            .as_ref()
            .map(|t| {
                t.records()[before.min(t.len())..]
                    .iter()
                    .filter(|r| matches!(r, TraceRecord::Deliver { .. }))
                    .count() as u64
            })
            .unwrap_or(0)
    }

    /// Fires every timer due at virtual time `now`: at most one
    /// publish tick (renewal uses the *scheduled* time, exactly like
    /// the simulator's queue — wall-clock jitter must not change how
    /// many events a seed publishes) and as many gossip rounds as have
    /// come due. Returns the traffic they produced.
    pub(crate) fn tick_timers(&mut self, now: SimTime, shared: &Shared) -> Vec<Outbound> {
        let mut sends = Vec::new();
        if let Some(vnext) = self.publish_vnext {
            if now >= vnext {
                let expected_before = self.tracker.expected_total();
                let trace_before = self.trace_len();
                let rate = self.publish_rate;
                let (out, delay) = self.with_ctx(now, |node, ctx| node.tick_publish(rate, ctx));
                let expected = self.tracker.expected_total() - expected_before;
                if expected > 0 {
                    shared.expected.fetch_add(expected, Ordering::Relaxed);
                }
                let delivered = self.delivers_since(trace_before);
                if delivered > 0 {
                    shared.delivered.fetch_add(delivered, Ordering::Relaxed);
                }
                sends.extend(self.route(out));
                if vnext + delay < self.duration {
                    self.publish_vnext = Some(vnext + delay);
                } else {
                    self.publish_vnext = None;
                    self.report_publish_done(shared);
                }
            }
        }
        // Gossip keeps running through the drain window (unlike the
        // simulator, whose ticks stop renewing at `duration`): real
        // recovery needs rounds to finish the job. Documented as a
        // sim/net equivalence rule.
        while now >= self.gossip_vnext {
            let (interval, adaptive) = (self.gossip_interval, self.adaptive);
            let (out, next) =
                self.with_ctx(now, |node, ctx| node.tick_gossip(interval, adaptive, ctx));
            sends.extend(self.route(out));
            self.gossip_vnext += next;
        }
        sends
    }

    /// Encodes one batch of node output, charging the send-layer
    /// counters through the simulator's own [`charge_send`].
    fn route(&mut self, out: Vec<Outgoing>) -> Vec<Outbound> {
        let mut sends = Vec::with_capacity(out.len());
        for Outgoing { to, env } in out {
            // Enforce the paper's digest budget before encoding; a
            // trimmed digest is re-announced by later rounds.
            let (msg, dropped) = codec::fit(env, self.payload_bits);
            if dropped > 0 {
                self.net.digest_truncations += 1;
                self.net.route_drops += dropped;
            }
            // Charged on the post-fit envelope: the bits that actually
            // hit the wire.
            let bits = charge_send(&mut self.counters, self.id, &msg, self.payload_bits);
            let body = match codec::encode(&msg, self.payload_bits) {
                Ok(b) => b,
                Err(_) => {
                    // Unencodable after fitting — accounting bug, not
                    // a transient; surface it in the counters.
                    self.net.decode_errors += 1;
                    continue;
                }
            };
            // The cross-validation invariant: on-the-wire bytes are
            // the simulator's wire_bits, always.
            assert_eq!(
                body.len() as u64 * 8,
                bits,
                "codec framed size diverged from wire_bits"
            );
            sends.push(Outbound {
                to,
                channel: msg.channel(),
                body,
            });
        }
        sends
    }
}

/// First dial-retry wait after a failed connect.
pub(crate) const BACKOFF_START: Duration = Duration::from_millis(10);
/// Ceiling of the doubling dial-retry wait.
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Dial-retry backoff with jitter: the deterministic base doubles from
/// [`BACKOFF_START`] up to [`BACKOFF_CAP`], but each wait is scaled by
/// a uniform draw in `[0.5, 1.5)` from the node's dial stream — so
/// peers restarted together do not hammer an acceptor in lockstep.
pub(crate) fn jittered_backoff(base: Duration, dial_rng: &mut Rng) -> Duration {
    base.mul_f64(dial_rng.random_range(0.5..1.5))
}
