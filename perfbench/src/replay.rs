//! The serial scenario loop, rebuilt from the harness's public parts so
//! that every call into a layer can be wrapped in a span.
//!
//! It reproduces `eps_harness::run_scenario` for the configurations it
//! models: a fixed tree overlay with stable subscriptions. Those have
//! no link breaks, no repairs and no churn, so the loop only moves
//! envelopes, publish ticks and gossip ticks. Any other configuration
//! is refused rather than approximated.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use eps_gossip::{Channel, Envelope};
use eps_harness::{
    assemble, build_population, routing_stats, NodeCtx, Outgoing, Population, ScenarioConfig,
    ScenarioResult, SimNode,
};
use eps_metrics::{DeliverySink, DeliveryTracker, MessageCounters};
use eps_overlay::{LinkSpec, NetTransport, NodeId, Topology, Transport};
use eps_pubsub::{ClientId, EventId, PatternSpace, PubSubMessage};
use eps_sim::{Engine, Rng, RngFactory, SimTime};

use crate::procfs;
use crate::spans::{Layer, Tracer};

enum SimEvent {
    Deliver {
        from: NodeId,
        to: NodeId,
        env: Envelope,
    },
    PublishTick(NodeId),
    GossipTick(NodeId),
}

/// What one replay produced.
pub struct ReplayRun {
    pub result: ScenarioResult,
    pub tracer: Tracer,
    /// Wall time of the whole call: setup, loop and assembly.
    pub wall: Duration,
    pub rss_after_setup_kb: u64,
    pub setup_subscription_msgs: u64,
    pub calendar_peak_len: usize,
    pub transport_loss_ratio: f64,
    /// Messages returned by `SimNode::handle` on event envelopes.
    pub event_handle_outputs: u64,
    /// Gossip ticks that returned at least one message.
    pub useful_gossip_ticks: u64,
    /// Wall-clock publish-to-delivery latencies in nanoseconds: for
    /// each client delivery record (first copies and recoveries alike),
    /// the wall time between the simulator processing the publish and
    /// processing the delivery.
    pub latencies_ns: Vec<u64>,
}

/// Refuses configurations whose runner code paths the replay does not
/// rebuild: reconfiguration, churn and cyclic overlays.
pub fn check_supported(config: &ScenarioConfig) -> Result<(), String> {
    if config.reconfig_interval.is_some() {
        return Err("the replay does not model overlay reconfiguration".into());
    }
    if config.churn_interval.is_some() {
        return Err("the replay does not model subscription churn".into());
    }
    if !config.overlay.is_tree() {
        return Err("the replay models tree overlays only".into());
    }
    Ok(())
}

/// The delivery sink lent to nodes: forwards to the live tracker,
/// timing each call, and optionally records delivery latency.
struct Sink {
    tracker: DeliveryTracker,
    tracer: Tracer,
    /// Wall-clock publish instant of every event, when latency is
    /// recorded.
    published_at: Option<HashMap<EventId, Instant>>,
    latencies_ns: Vec<u64>,
}

impl Sink {
    fn record_latency(&mut self, id: EventId) {
        if let Some(at) = self.published_at.as_ref().and_then(|m| m.get(&id)) {
            self.latencies_ns.push(at.elapsed().as_nanos() as u64);
        }
    }
}

impl DeliverySink for Sink {
    fn published(&mut self, id: EventId, at: SimTime, expected_recipients: u32) {
        self.tracer.enter(Layer::Tracker);
        DeliverySink::published(&mut self.tracker, id, at, expected_recipients);
        self.tracer.exit();
        if let Some(m) = &mut self.published_at {
            m.insert(id, Instant::now());
        }
    }

    fn delivered(&mut self, id: EventId, node: NodeId, client: ClientId, now: SimTime) {
        self.tracer.enter(Layer::Tracker);
        DeliverySink::delivered(&mut self.tracker, id, node, client, now);
        self.tracer.exit();
        self.record_latency(id);
    }

    fn recovered(&mut self, id: EventId, node: NodeId, client: ClientId, now: SimTime) {
        self.tracer.enter(Layer::Tracker);
        DeliverySink::recovered(&mut self.tracker, id, node, client, now);
        self.tracer.exit();
        self.record_latency(id);
    }
}

/// Run-wide state a node borrows while it handles one call.
struct World {
    topology: Topology,
    space: PatternSpace,
    subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
    gossip_rng: Rng,
    sink: Sink,
    counters: MessageCounters,
    trace: Option<eps_harness::ScenarioTrace>,
}

impl World {
    fn ctx(&mut self, now: SimTime, node: NodeId) -> NodeCtx<'_> {
        let neighbors = self.topology.neighbors(node);
        NodeCtx {
            now,
            neighbors,
            graph_neighbors: neighbors,
            space: &self.space,
            subscribers_of: &self.subscribers_of,
            gossip_rng: &mut self.gossip_rng,
            tracker: &mut self.sink,
            counters: &mut self.counters,
            trace: &mut self.trace,
        }
    }
}

/// The calendar and the transport, with the counters the traced run
/// reports about them.
struct Wire {
    engine: Engine<SimEvent>,
    transport: NetTransport,
    peak_len: usize,
}

impl Wire {
    fn schedule_at(&mut self, tracer: &mut Tracer, at: SimTime, event: SimEvent) {
        tracer.enter(Layer::Calendar);
        self.engine.schedule_at(at, event);
        tracer.exit();
        self.peak_len = self.peak_len.max(self.engine.len());
    }

    /// Puts a node's outgoing messages on the wire exactly as the
    /// serial runner does: count, check the link, ask the transport
    /// when the message arrives, schedule the arrival.
    fn send(
        &mut self,
        world: &mut World,
        config: &ScenarioConfig,
        from: NodeId,
        out: Vec<Outgoing>,
    ) {
        let now = self.engine.now();
        for Outgoing { to, env } in out {
            let bits = env.wire_bits(config.event_payload_bits);
            let arrival = match env.channel() {
                Channel::Tree | Channel::Cross => {
                    match &env {
                        Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::CrossEvent(_) => {
                            world.counters.count_event(from)
                        }
                        Envelope::PubSub(_) => world.counters.count_subscription(from),
                        Envelope::Gossip(_) => world.counters.count_gossip_bits(bits),
                        _ => {}
                    }
                    if !world.topology.has_link(from, to) {
                        continue;
                    }
                    world.sink.tracer.enter(Layer::Transport);
                    let at = self.transport.send_link(from, to, bits, now);
                    world.sink.tracer.exit();
                    at
                }
                Channel::OutOfBand => {
                    match &env {
                        Envelope::Request(_) | Envelope::RangeRequest { .. } => {
                            world.counters.count_request_bits(bits)
                        }
                        Envelope::Reply(_) => world.counters.count_reply_bits(bits),
                        _ => {}
                    }
                    world.sink.tracer.enter(Layer::Transport);
                    let at = self.transport.send_oob(from, to, bits, now);
                    world.sink.tracer.exit();
                    at
                }
            };
            if let Some(at) = arrival {
                self.schedule_at(
                    &mut world.sink.tracer,
                    at,
                    SimEvent::Deliver { from, to, env },
                );
            }
        }
    }
}

fn handle_layer(env: &Envelope) -> Layer {
    match env {
        Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::CrossEvent(_) => Layer::HandleEvent,
        Envelope::PubSub(_) => Layer::HandleSubscription,
        Envelope::Gossip(_) => Layer::HandleDigest,
        Envelope::Request(_) | Envelope::RangeRequest { .. } => Layer::HandleRequest,
        Envelope::Reply(_) => Layer::HandleReply,
    }
}

/// Runs `config` to completion. With `tracing`, every layer call is
/// timed; with `record_latency`, every delivery's wall-clock latency
/// is kept.
pub fn run(
    config: &ScenarioConfig,
    tracing: bool,
    record_latency: bool,
) -> Result<ReplayRun, String> {
    config.validate();
    check_supported(config)?;
    let started = Instant::now();
    let mut tracer = Tracer::new(tracing);

    tracer.enter(Layer::Population);
    let Population {
        topology,
        space,
        mut nodes,
        subscribers_of,
        setup_subscription_msgs,
        ..
    } = build_population(config);
    tracer.exit();
    let rss_after_setup_kb = procfs::status_kb("VmRSS");

    let factory = RngFactory::new(config.seed);
    let mut wire = Wire {
        engine: Engine::new(),
        transport: NetTransport::new(
            LinkSpec {
                bandwidth_bps: 10_000_000,
                propagation: SimTime::from_micros(50),
                loss_rate: config.link_error_rate,
            },
            config.out_of_band,
            factory.stream("loss"),
            factory.stream("oob"),
        ),
        peak_len: 0,
    };
    let mut world = World {
        topology,
        space,
        subscribers_of,
        gossip_rng: factory.stream("gossip"),
        sink: Sink {
            tracker: DeliveryTracker::new(),
            tracer,
            published_at: record_latency.then(HashMap::new),
            latencies_ns: Vec::new(),
        },
        counters: MessageCounters::new(config.nodes),
        trace: None,
    };
    let mut event_handle_outputs = 0u64;
    let mut useful_gossip_ticks = 0u64;

    world.sink.tracer.enter(Layer::Loop);
    for node in world.topology.nodes() {
        if config.publish_rate > 0.0 {
            let delay = nodes[node.index()].next_publish_delay(config.publish_rate);
            wire.schedule_at(&mut world.sink.tracer, delay, SimEvent::PublishTick(node));
        }
        let phase = config
            .gossip_interval
            .mul_f64(world.gossip_rng.random_range(0.0..1.0));
        wire.schedule_at(&mut world.sink.tracer, phase, SimEvent::GossipTick(node));
    }

    loop {
        world.sink.tracer.enter(Layer::Calendar);
        let next = wire.engine.pop();
        world.sink.tracer.exit();
        let Some((now, event)) = next else { break };
        match event {
            SimEvent::Deliver { from, to, env } => {
                let layer = handle_layer(&env);
                world.sink.tracer.enter(layer);
                let out = nodes[to.index()].handle(from, env, &mut world.ctx(now, to));
                world.sink.tracer.exit();
                if layer == Layer::HandleEvent {
                    event_handle_outputs += out.len() as u64;
                }
                wire.send(&mut world, config, to, out);
            }
            SimEvent::PublishTick(node) => {
                if now >= config.duration {
                    continue;
                }
                world.sink.tracer.enter(Layer::TickPublish);
                let (out, delay) = nodes[node.index()]
                    .tick_publish(config.publish_rate, &mut world.ctx(now, node));
                world.sink.tracer.exit();
                wire.send(&mut world, config, node, out);
                if now + delay < config.duration {
                    wire.schedule_at(
                        &mut world.sink.tracer,
                        now + delay,
                        SimEvent::PublishTick(node),
                    );
                }
            }
            SimEvent::GossipTick(node) => {
                world.sink.tracer.enter(Layer::GossipTick);
                let (out, next) = nodes[node.index()].tick_gossip(
                    config.gossip_interval,
                    config.adaptive_gossip,
                    &mut world.ctx(now, node),
                );
                world.sink.tracer.exit();
                useful_gossip_ticks += u64::from(!out.is_empty());
                wire.send(&mut world, config, node, out);
                if now + next < config.duration {
                    wire.schedule_at(
                        &mut world.sink.tracer,
                        now + next,
                        SimEvent::GossipTick(node),
                    );
                }
            }
        }
    }

    let outstanding: u64 = nodes.iter().map(|n| n.outstanding_losses() as u64).sum();
    let evictions: u64 = nodes.iter().map(SimNode::lost_evictions).sum();
    world.counters.count_lost_evictions(evictions);
    let routing = routing_stats(&nodes, setup_subscription_msgs);
    world.sink.tracer.exit();

    world.sink.tracer.enter(Layer::Assemble);
    let result = assemble(
        config,
        &world.sink.tracker,
        &world.counters,
        outstanding,
        0,
        0,
        routing,
    );
    world.sink.tracer.exit();

    Ok(ReplayRun {
        result,
        wall: started.elapsed(),
        tracer: world.sink.tracer,
        rss_after_setup_kb,
        setup_subscription_msgs,
        calendar_peak_len: wire.peak_len,
        transport_loss_ratio: wire.transport.links().loss_ratio(),
        event_handle_outputs,
        useful_gossip_ticks,
        latencies_ns: world.sink.latencies_ns,
    })
}
