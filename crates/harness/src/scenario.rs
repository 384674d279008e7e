//! The scenario runner: orchestration only. It owns the event queue,
//! the overlay topology, the transport, and the population of
//! [`SimNode`] actors, and moves envelopes between them; everything a
//! single dispatcher knows lives inside its node.

use eps_gossip::{Channel, Envelope};
use eps_metrics::{DeliveryTracker, MessageCounters};
use eps_overlay::{LinkSpec, NetTransport, NodeId, Transport};
use eps_sim::{Engine, Rng, RngFactory, SimTime};

use crate::config::ScenarioConfig;
use crate::node::{NodeCtx, Outgoing, SimNode};
use crate::population::build_population;
use crate::result::ScenarioResult;
use crate::trace::{ScenarioTrace, TraceRecord};
use crate::world::{charge_send, harvest, run_tracker, World};

/// Runs one scenario to completion.
///
/// Deterministic: the same configuration (including seed) produces the
/// same result, bit for bit.
///
/// # Examples
///
/// ```
/// use eps_harness::{run_scenario, ScenarioConfig};
/// use eps_gossip::Algorithm;
/// use eps_sim::SimTime;
///
/// let config = ScenarioConfig {
///     nodes: 20,
///     duration: SimTime::from_secs(3),
///     warmup: SimTime::from_millis(500),
///     cooldown: SimTime::from_millis(500),
///     algorithm: Algorithm::push(),
///     ..ScenarioConfig::default()
/// };
/// let result = run_scenario(&config);
/// assert!(result.delivery_rate > 0.0 && result.delivery_rate <= 1.0);
/// ```
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioResult {
    config.validate();
    Scenario::new(config).run().0
}

/// Like [`run_scenario`], but also collects a bounded
/// [`ScenarioTrace`] of publishes, deliveries, detections, and
/// reconfigurations — for debugging and white-box tests. Tracing does
/// not perturb the simulation: the traced run is identical to the
/// untraced one.
pub fn run_scenario_traced(
    config: &ScenarioConfig,
    trace_capacity: usize,
) -> (ScenarioResult, ScenarioTrace) {
    config.validate();
    let mut scenario = Scenario::new(config);
    scenario.trace = Some(ScenarioTrace::new(trace_capacity));
    let (result, trace) = scenario.run();
    (result, trace.expect("trace was installed"))
}

enum SimEvent {
    /// An envelope arriving at `to` (already past the transport).
    Deliver {
        from: NodeId,
        to: NodeId,
        env: Envelope,
    },
    PublishTick(NodeId),
    GossipTick(NodeId),
    ChurnTick,
    Break,
    Repair,
}

/// The orchestrator. Per-node state lives in the [`SimNode`]s and the
/// shared run state in the [`World`]; the scenario keeps the queue,
/// the transport, the metrics sinks, and the run-wide RNG streams.
struct Scenario {
    config: ScenarioConfig,
    engine: Engine<SimEvent>,
    world: World,
    transport: Box<dyn Transport>,
    nodes: Vec<SimNode>,
    setup_subscription_msgs: u64,
    tracker: DeliveryTracker,
    counters: MessageCounters,
    gossip_rng: Rng,
    reconfig_rng: Rng,
    churn_rng: Rng,
    reconfigurations: u64,
    churn_events: u64,
    trace: Option<ScenarioTrace>,
}

impl Scenario {
    fn new(config: &ScenarioConfig) -> Self {
        let factory = RngFactory::new(config.seed);
        // The population (topology, subscriptions, node actors) is
        // assembled by the shared builder so the real-socket runtime
        // boots an identical one for the same seed.
        let (world, nodes, setup_subscription_msgs) = World::new(config, build_population(config));

        let transport = Box::new(NetTransport::new(
            LinkSpec::ethernet_10mbps(config.link_error_rate),
            config.out_of_band,
            factory.stream("loss"),
            factory.stream("oob"),
        ));

        Scenario {
            engine: Engine::new(),
            world,
            transport,
            nodes,
            setup_subscription_msgs,
            tracker: run_tracker(config),
            counters: MessageCounters::new(config.nodes),
            gossip_rng: factory.stream("gossip"),
            reconfig_rng: factory.stream("reconfig"),
            churn_rng: factory.stream("churn"),
            reconfigurations: 0,
            churn_events: 0,
            trace: None,
            config: config.clone(),
        }
    }

    fn record(&mut self, record: TraceRecord) {
        if let Some(trace) = &mut self.trace {
            trace.push(record);
        }
    }

    fn run(mut self) -> (ScenarioResult, Option<ScenarioTrace>) {
        // Seed the periodic processes.
        let nodes: Vec<NodeId> = self.world.topology.nodes().collect();
        for node in nodes {
            if self.config.publish_rate > 0.0 {
                let delay = self.nodes[node.index()].next_publish_delay(self.config.publish_rate);
                self.engine.schedule(delay, SimEvent::PublishTick(node));
            }
            // Stagger gossip phases uniformly over one interval.
            let phase = self
                .config
                .gossip_interval
                .mul_f64(self.gossip_rng.random_range(0.0..1.0));
            self.engine.schedule(phase, SimEvent::GossipTick(node));
        }
        if let Some(rho) = self.config.reconfig_interval {
            if rho < self.config.duration {
                self.engine.schedule(rho, SimEvent::Break);
            }
        }
        if let Some(churn) = self.config.churn_interval {
            if churn < self.config.duration {
                self.engine.schedule(churn, SimEvent::ChurnTick);
            }
        }

        // Main loop: ticks stop renewing at `duration`; afterwards the
        // queue drains so in-flight recoveries complete.
        while let Some((_, event)) = self.engine.pop() {
            self.handle(event);
        }
        let result = harvest(
            &self.config,
            &self.tracker,
            &mut self.counters,
            &self.nodes,
            self.setup_subscription_msgs,
            self.reconfigurations,
            self.churn_events,
        );
        (result, self.trace)
    }

    fn handle(&mut self, event: SimEvent) {
        let now = self.engine.now();
        match event {
            SimEvent::Deliver { from, to, env } => {
                let out = self.with_ctx(to, |node, ctx| node.handle(from, env, ctx));
                self.send(to, out);
            }
            SimEvent::PublishTick(node) => {
                // The workload ends at `duration`. Renewals are gated
                // below, but at very low publish rates a node's
                // *first* tick can be scheduled past the end — it must
                // not fire either, or the run would stretch far beyond
                // its nominal length.
                if now >= self.config.duration {
                    return;
                }
                let rate = self.config.publish_rate;
                let (out, delay) = self.with_ctx(node, |n, ctx| n.tick_publish(rate, ctx));
                self.send(node, out);
                // Renew the process.
                if now + delay < self.config.duration {
                    self.engine.schedule(delay, SimEvent::PublishTick(node));
                }
            }
            SimEvent::GossipTick(node) => {
                let (interval, adaptive) =
                    (self.config.gossip_interval, self.config.adaptive_gossip);
                let (out, next) =
                    self.with_ctx(node, |n, ctx| n.tick_gossip(interval, adaptive, ctx));
                self.send(node, out);
                if now + next < self.config.duration {
                    self.engine.schedule(next, SimEvent::GossipTick(node));
                }
            }
            SimEvent::ChurnTick => self.handle_churn(now),
            SimEvent::Break => self.handle_break(now),
            SimEvent::Repair => {
                let mut hosts: Vec<&mut SimNode> = self.nodes.iter_mut().collect();
                if let Some((a, b)) = self.world.repair(&mut self.reconfig_rng, &mut hosts) {
                    self.record(TraceRecord::LinkAdded { at: now, a, b });
                }
            }
        }
    }

    /// Lends `node` its [`NodeCtx`] for one call.
    fn with_ctx<R>(&mut self, node: NodeId, f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R) -> R {
        let mut ctx = self.world.ctx(
            node,
            self.engine.now(),
            &mut self.gossip_rng,
            &mut self.tracker,
            &mut self.counters,
            &mut self.trace,
        );
        f(&mut self.nodes[node.index()], &mut ctx)
    }

    /// Subscription churn: the (un)subscriptions propagate through the
    /// overlay as protocol messages.
    fn handle_churn(&mut self, now: SimTime) {
        if now >= self.config.duration {
            return;
        }
        let nodes = &self.nodes;
        let drawn = self
            .world
            .draw_churn(&self.config, &mut self.churn_rng, |node, client| {
                nodes[node.index()].client_patterns(client)
            });
        if let Some(churn) = drawn {
            self.churn_events += 1;
            let mut hosts: Vec<&mut SimNode> = self.nodes.iter_mut().collect();
            let out = self
                .world
                .apply_churn(churn, &mut hosts, &mut self.counters);
            self.send(churn.node, out);
        }
        if let Some(churn) = self.config.churn_interval {
            if now + churn < self.config.duration {
                self.engine.schedule(churn, SimEvent::ChurnTick);
            }
        }
    }

    fn handle_break(&mut self, now: SimTime) {
        if now >= self.config.duration {
            // The workload is over; the queue is only draining
            // in-flight recoveries. Do not disturb them.
            return;
        }
        if let Some(link) = self.world.break_link(&mut self.reconfig_rng) {
            self.transport.reset_link(link.a(), link.b());
            self.reconfigurations += 1;
            self.record(TraceRecord::LinkBroken { at: now, link });
            self.engine
                .schedule(self.config.repair_delay, SimEvent::Repair);
        }
        if let Some(rho) = self.config.reconfig_interval {
            if now + rho < self.config.duration {
                self.engine.schedule(rho, SimEvent::Break);
            }
        }
    }

    /// Puts a node's outgoing messages on the wire: charges them
    /// ([`charge_send`]), routes tree and cross-link traffic over
    /// existing overlay links only, asks the transport when (and
    /// whether) each arrives, and schedules the delivery.
    fn send(&mut self, from: NodeId, out: Vec<Outgoing>) {
        let now = self.engine.now();
        for Outgoing { to, env } in out {
            let bits = charge_send(
                &mut self.counters,
                from,
                &env,
                self.config.event_payload_bits,
            );
            let arrival = match env.channel() {
                Channel::Tree | Channel::Cross => {
                    if !self.world.topology.has_link(from, to) {
                        // Broken link, stale route or stale cross
                        // target: the message is lost.
                        continue;
                    }
                    self.transport.send_link(from, to, bits, now)
                }
                Channel::OutOfBand => self.transport.send_oob(from, to, bits, now),
            };
            if let Some(at) = arrival {
                self.engine
                    .schedule_at(at, SimEvent::Deliver { from, to, env });
            }
        }
    }
}
