//! The sharded scenario runner: one scenario's node population
//! partitioned across worker threads under a conservative time-window
//! barrier — the intra-run parallelism that takes single runs to
//! 10⁵–10⁶ dispatchers on one machine.
//!
//! # Architecture
//!
//! The population is split into contiguous node ranges, one
//! [`Shard`] per range. Each shard owns its nodes, a local
//! [`KeyedEngine`] event queue, a local transport (every directed link
//! `(from, to)` is touched only by the shard owning `from`), and
//! per-node RNG streams. A coordinator advances the run in half-open
//! windows `[m, min(m + W, g))` where `m` is the earliest pending node
//! event anywhere, `g` the next coordinator-level event (link break,
//! repair, churn), and `W` the *lookahead*: the smallest delay any
//! channel can add to a message ([`ShardTransport::min_delay`] — the
//! link propagation delay in the paper's setup). No send made inside a
//! window can arrive before the window ends, so shards execute a
//! window concurrently without ever seeing each other's in-window
//! traffic; envelopes crossing shard boundaries are exchanged at the
//! barrier.
//!
//! What a break, a repair, a churn swap, a send and the end-of-run
//! harvest *do* is decided once, in `crate::world`, for both runners;
//! this module decides only when they happen and which streams they
//! draw from.
//!
//! # Determinism
//!
//! Results are bit-identical for every shard count, by construction:
//!
//! - Same-instant events are ordered by an event-derived key
//!   (`(class, to, from, per-sender sequence)`), never by insertion
//!   order, so each node processes its events in a shard-invariant
//!   order ([`KeyedEngine`]).
//! - Every random draw comes from a per-node stream (gossip decisions,
//!   link loss, workload) or a coordinator-only stream (reconfig,
//!   churn), so no draw order depends on the partition.
//! - Metrics are journaled per shard ([`DeliveryLog`]) and replayed
//!   into one tracker in canonical sorted order after the run; message
//!   counters are absorbed in shard-id order.
//!
//! The sharded runner is a second deterministic semantics, *not* a
//! re-implementation of [`crate::run_scenario`]'s exact event
//! interleaving: the serial runner uses shared RNG streams and FIFO
//! tie-breaking, which are inherently partition-dependent, so its
//! byte-level outputs are pinned separately. Shard-count invariance of
//! this runner is pinned by the golden suite.

use std::sync::mpsc;
use std::sync::Arc;

use eps_gossip::{Channel, Envelope};
use eps_metrics::{DeliveryLog, MessageCounters};
use eps_overlay::{LinkSpec, NodeId, ShardTransport};
use eps_sim::{Engine, KeyedEngine, Rng, RngFactory, SimTime};

use crate::config::ScenarioConfig;
use crate::node::{NodeCtx, Outgoing, SimNode};
use crate::population::build_population;
use crate::result::ScenarioResult;
use crate::trace::ScenarioTrace;
use crate::world::{charge_send, harvest, run_tracker, World};

/// Runs one scenario split across `shards` worker shards.
///
/// Deterministic: the same configuration produces the same result, bit
/// for bit, **for every `shards` value** — `shards` only chooses how
/// the work is executed. The calling thread runs the first shard and
/// each further shard gets a worker thread, so a value of 1 runs the
/// windowed semantics inline without threads. `shards` is clamped to
/// the node count.
///
/// # Examples
///
/// ```
/// use eps_harness::{run_scenario_sharded, ScenarioConfig};
/// use eps_sim::SimTime;
///
/// let config = ScenarioConfig {
///     nodes: 20,
///     duration: SimTime::from_secs(3),
///     warmup: SimTime::from_millis(500),
///     cooldown: SimTime::from_millis(500),
///     ..ScenarioConfig::default()
/// };
/// let serial = run_scenario_sharded(&config, 1);
/// let split = run_scenario_sharded(&config, 2);
/// assert_eq!(serial.delivery_rate.to_bits(), split.delivery_rate.to_bits());
/// ```
pub fn run_scenario_sharded(config: &ScenarioConfig, shards: usize) -> ScenarioResult {
    run_scenario_sharded_with_stats(config, shards).0
}

/// Execution statistics of one sharded run, for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub struct ShardedRunStats {
    /// Node-level events processed, summed over shards.
    pub events_processed: u64,
    /// Barrier windows executed.
    pub windows: u64,
    /// Shards actually used (after clamping to the node count).
    pub shards: usize,
    /// Wall-clock time spent building the population and partitioning
    /// it into shards (independent of the shard count).
    pub setup_wall: std::time::Duration,
    /// Wall-clock time spent in the windowed event loop — the part a
    /// higher shard count can speed up.
    pub loop_wall: std::time::Duration,
}

/// Like [`run_scenario_sharded`], also returning execution statistics.
pub fn run_scenario_sharded_with_stats(
    config: &ScenarioConfig,
    shards: usize,
) -> (ScenarioResult, ShardedRunStats) {
    config.validate();
    assert!(shards >= 1, "need at least one shard");
    let setup_started = std::time::Instant::now();
    let shard_count = shards.min(config.nodes);

    let factory = RngFactory::new(config.seed);
    let (world, nodes, setup_subscription_msgs) = World::new(config, build_population(config));

    let link = LinkSpec::ethernet_10mbps(config.link_error_rate);

    // Partition into contiguous ranges of ⌈N/K⌉ nodes; trailing shards
    // may be smaller (or elided entirely when K does not divide N).
    let n = config.nodes;
    let per = n.div_ceil(shard_count);
    let mut shard_list: Vec<Option<Box<Shard>>> = Vec::new();
    let mut node_iter = nodes.into_iter();
    let mut base = 0usize;
    while base < n {
        let count = per.min(n - base);
        let shard_nodes: Vec<SimNode> = node_iter.by_ref().take(count).collect();
        let mut shard = Box::new(Shard::new(base as u32, shard_nodes, link, config, &factory));
        shard.seed_ticks(config, &factory);
        shard_list.push(Some(shard));
        base += count;
    }
    let lookahead = shard_list[0]
        .as_ref()
        .expect("shard present")
        .transport
        .min_delay();
    assert!(
        lookahead > SimTime::ZERO,
        "sharded runner needs a positive minimum channel delay for its lookahead window"
    );

    let mut global: Engine<GlobalEvent> = Engine::new();
    if let Some(rho) = config.reconfig_interval {
        if rho < config.duration {
            global.schedule(rho, GlobalEvent::Break);
        }
    }
    if let Some(churn) = config.churn_interval {
        if churn < config.duration {
            global.schedule(churn, GlobalEvent::ChurnTick);
        }
    }

    let mut coord = Coordinator {
        config,
        world: Arc::new(world),
        shards: shard_list,
        per,
        lookahead,
        global,
        reconfig_rng: factory.stream("reconfig"),
        churn_rng: factory.stream("churn"),
        reconfigurations: 0,
        churn_events: 0,
        windows: 0,
    };

    let setup_wall = setup_started.elapsed();
    let loop_started = std::time::Instant::now();

    // The calling thread runs shard 0's windows itself; every further
    // shard gets a worker thread (none at one shard). Per window, the
    // busy worker shards are dispatched first, so shard 0 runs
    // concurrently with them, and only they cost a channel round trip.
    let worker_count = coord.shards.len() - 1;
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = mpsc::sync_channel::<(usize, Box<Shard>)>(worker_count);
        let mut job_txs: Vec<mpsc::SyncSender<Job>> = Vec::with_capacity(worker_count);
        for i in 1..=worker_count {
            let (tx, rx) = mpsc::sync_channel::<Job>(1);
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    let Job {
                        mut shard,
                        world,
                        window_end,
                    } = job;
                    shard.run_window(&world, config, window_end);
                    // Release the shared-state handle *before*
                    // reporting back: the coordinator mutates the
                    // topology and subscriber index between windows
                    // via `Arc::get_mut`, which requires that no
                    // worker still holds a clone.
                    drop(world);
                    res_tx.send((i, shard)).expect("coordinator receives");
                }
            });
            job_txs.push(tx);
        }
        coord.run(|shards, world, config, end| {
            let mut dispatched = 0usize;
            for (i, slot) in shards.iter_mut().enumerate().skip(1) {
                let busy = slot
                    .as_ref()
                    .expect("shard home at the barrier")
                    .engine
                    .peek_time()
                    .is_some_and(|t| t < end);
                if busy {
                    let shard = slot.take().expect("shard present");
                    job_txs[i - 1]
                        .send(Job {
                            shard,
                            world: Arc::clone(world),
                            window_end: end,
                        })
                        .expect("worker alive");
                    dispatched += 1;
                }
            }
            shards[0]
                .as_mut()
                .expect("shard home at the barrier")
                .run_window(world, config, end);
            for _ in 0..dispatched {
                let (i, shard) = res_rx.recv().expect("worker replies");
                shards[i] = Some(shard);
            }
        });
        // Dropping the job senders ends the worker loops.
        drop(job_txs);
    });

    let loop_wall = loop_started.elapsed();

    let mut shards_done: Vec<Box<Shard>> = coord
        .shards
        .into_iter()
        .map(|s| s.expect("all shards home after the run"))
        .collect();
    let mut counters = MessageCounters::new(config.nodes);
    let mut events_processed = 0u64;
    let mut logs = Vec::with_capacity(shards_done.len());
    for shard in &mut shards_done {
        counters.absorb(&shard.counters);
        events_processed += shard.engine.processed_total();
        logs.push(std::mem::take(&mut shard.log));
    }
    let mut tracker = run_tracker(config);
    DeliveryLog::replay_into(logs, &mut tracker);
    let result = harvest(
        config,
        &tracker,
        &mut counters,
        shards_done.iter().flat_map(|s| s.nodes.iter()),
        setup_subscription_msgs,
        coord.reconfigurations,
        coord.churn_events,
    );
    let stats = ShardedRunStats {
        events_processed,
        windows: coord.windows,
        shards: shard_count,
        setup_wall,
        loop_wall,
    };
    (result, stats)
}

/// Total order for same-instant events, a pure function of the event:
/// `(class, destination, sender, per-sender sequence)`. Classes order
/// publish ticks before gossip ticks before deliveries; the per-sender
/// sequence makes keys unique (one monotone counter per node covers
/// its ticks and its sends).
type EvtKey = (u8, u32, u32, u64);

const CLASS_PUBLISH: u8 = 0;
const CLASS_GOSSIP: u8 = 1;
const CLASS_DELIVER: u8 = 2;

enum ShardEvent {
    Deliver {
        from: NodeId,
        to: NodeId,
        env: Envelope,
    },
    PublishTick(NodeId),
    GossipTick(NodeId),
}

/// Coordinator-level events: everything that mutates state shared
/// between shards, executed single-threaded between windows.
enum GlobalEvent {
    ChurnTick,
    Break,
    Repair,
}

/// One worker's slice of the run: a contiguous node range plus
/// everything those nodes touch on the hot path.
struct Shard {
    base: u32,
    nodes: Vec<SimNode>,
    engine: KeyedEngine<EvtKey, ShardEvent>,
    transport: ShardTransport,
    /// Per-node gossip-decision streams (`gossip-node`, one per node,
    /// local index = id − base), so decision draws are a function of
    /// the node's own event sequence only.
    gossip_rngs: Vec<Rng>,
    /// Per-node link-loss / out-of-band streams (`net-node`), drawn in
    /// the node's deterministic send order.
    net_rngs: Vec<Rng>,
    /// Per-node monotone sequence for event keys.
    send_seq: Vec<u64>,
    log: DeliveryLog,
    counters: MessageCounters,
    /// Deliveries destined for other shards, exchanged at the barrier.
    outbox: Vec<(SimTime, EvtKey, ShardEvent)>,
    /// The sharded runner does not support tracing; `NodeCtx` wants a
    /// place to look anyway.
    no_trace: Option<ScenarioTrace>,
}

impl Shard {
    fn new(
        base: u32,
        nodes: Vec<SimNode>,
        link: LinkSpec,
        config: &ScenarioConfig,
        factory: &RngFactory,
    ) -> Self {
        let count = nodes.len();
        let gossip_rngs = (0..count)
            .map(|i| factory.indexed_stream("gossip-node", base as u64 + i as u64))
            .collect();
        let net_rngs = (0..count)
            .map(|i| factory.indexed_stream("net-node", base as u64 + i as u64))
            .collect();
        Shard {
            base,
            nodes,
            engine: KeyedEngine::new(),
            transport: ShardTransport::new(link, config.out_of_band),
            gossip_rngs,
            net_rngs,
            send_seq: vec![0; count],
            log: DeliveryLog::new(),
            counters: MessageCounters::new(config.nodes),
            outbox: Vec::new(),
            no_trace: None,
        }
    }

    fn local(&self, node: NodeId) -> usize {
        node.index() - self.base as usize
    }

    fn owns(&self, node: NodeId) -> bool {
        let i = node.index();
        i >= self.base as usize && i < self.base as usize + self.nodes.len()
    }

    fn next_key(&mut self, class: u8, to: NodeId, from: NodeId) -> EvtKey {
        let seq = &mut self.send_seq[(from.index()) - self.base as usize];
        let k = *seq;
        *seq += 1;
        (class, to.index() as u32, from.index() as u32, k)
    }

    /// Schedules each node's first publish and gossip ticks. Draws
    /// come from per-node streams (the workload stream seeded by the
    /// population builder, and one `gossip-phase` stream per node), so
    /// seeding is independent of the partition.
    fn seed_ticks(&mut self, config: &ScenarioConfig, factory: &RngFactory) {
        for i in 0..self.nodes.len() {
            let id = NodeId::new(self.base + i as u32);
            if config.publish_rate > 0.0 {
                let delay = self.nodes[i].next_publish_delay(config.publish_rate);
                let key = self.next_key(CLASS_PUBLISH, id, id);
                self.engine
                    .schedule_at(delay, key, ShardEvent::PublishTick(id));
            }
            let phase = config.gossip_interval.mul_f64(
                factory
                    .indexed_stream("gossip-phase", id.index() as u64)
                    .random_range(0.0..1.0),
            );
            let key = self.next_key(CLASS_GOSSIP, id, id);
            self.engine
                .schedule_at(phase, key, ShardEvent::GossipTick(id));
        }
    }

    /// Drains this shard's queue strictly up to `window_end`. Sends
    /// made here arrive no earlier than `window_end` (conservative
    /// lookahead), so they can never need processing inside this
    /// window; cross-shard ones accumulate in the outbox.
    fn run_window(&mut self, world: &World, config: &ScenarioConfig, window_end: SimTime) {
        while let Some((t, _key, ev)) = self.engine.pop_before(window_end) {
            match ev {
                ShardEvent::Deliver { from, to, env } => {
                    let out = self.with_ctx(to, t, world, |node, ctx| node.handle(from, env, ctx));
                    self.send(to, t, out, world, config);
                }
                ShardEvent::PublishTick(node) => {
                    // The workload ends at `duration`, so a first tick
                    // scheduled past the end (possible at very low
                    // publish rates) does not fire.
                    if t >= config.duration {
                        continue;
                    }
                    let (out, delay) = self.with_ctx(node, t, world, |n, ctx| {
                        n.tick_publish(config.publish_rate, ctx)
                    });
                    self.send(node, t, out, world, config);
                    if t + delay < config.duration {
                        let key = self.next_key(CLASS_PUBLISH, node, node);
                        self.engine
                            .schedule_at(t + delay, key, ShardEvent::PublishTick(node));
                    }
                }
                ShardEvent::GossipTick(node) => {
                    let (out, next) = self.with_ctx(node, t, world, |n, ctx| {
                        n.tick_gossip(config.gossip_interval, config.adaptive_gossip, ctx)
                    });
                    self.send(node, t, out, world, config);
                    if t + next < config.duration {
                        let key = self.next_key(CLASS_GOSSIP, node, node);
                        self.engine
                            .schedule_at(t + next, key, ShardEvent::GossipTick(node));
                    }
                }
            }
        }
    }

    fn with_ctx<R>(
        &mut self,
        node: NodeId,
        now: SimTime,
        world: &World,
        f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R,
    ) -> R {
        let li = self.local(node);
        let mut ctx = world.ctx(
            node,
            now,
            &mut self.gossip_rngs[li],
            &mut self.log,
            &mut self.counters,
            &mut self.no_trace,
        );
        f(&mut self.nodes[li], &mut ctx)
    }

    /// Charges ([`charge_send`]) and transmits a node's outgoing
    /// messages, scheduling arrivals locally or into the outbox. Loss
    /// is drawn from the *sender's* stream.
    fn send(
        &mut self,
        from: NodeId,
        now: SimTime,
        out: Vec<Outgoing>,
        world: &World,
        config: &ScenarioConfig,
    ) {
        let li = self.local(from);
        for Outgoing { to, env } in out {
            let bits = charge_send(&mut self.counters, from, &env, config.event_payload_bits);
            let net_rng = &mut self.net_rngs[li];
            let arrival = match env.channel() {
                Channel::Tree | Channel::Cross => {
                    if !world.topology.has_link(from, to) {
                        // Broken link, stale route or stale cross
                        // target: the message is lost.
                        continue;
                    }
                    self.transport.send_link(from, to, bits, now, net_rng)
                }
                Channel::OutOfBand => self.transport.send_oob(from, to, bits, now, net_rng),
            };
            if let Some(at) = arrival {
                let key = self.next_key(CLASS_DELIVER, to, from);
                let ev = ShardEvent::Deliver { from, to, env };
                if self.owns(to) {
                    self.engine.schedule_at(at, key, ev);
                } else {
                    self.outbox.push((at, key, ev));
                }
            }
        }
    }
}

struct Job {
    shard: Box<Shard>,
    world: Arc<World>,
    window_end: SimTime,
}

struct Coordinator<'a> {
    config: &'a ScenarioConfig,
    world: Arc<World>,
    shards: Vec<Option<Box<Shard>>>,
    per: usize,
    lookahead: SimTime,
    global: Engine<GlobalEvent>,
    reconfig_rng: Rng,
    churn_rng: Rng,
    reconfigurations: u64,
    churn_events: u64,
    windows: u64,
}

impl Coordinator<'_> {
    fn shard_of(&self, node: NodeId) -> usize {
        node.index() / self.per
    }

    fn shard_mut(&mut self, i: usize) -> &mut Shard {
        self.shards[i].as_mut().expect("shard home at the barrier")
    }

    /// The main loop. Node windows run through `exec` (shard 0 on this
    /// thread, the rest on workers); coordinator events run here whenever
    /// the next one is not strictly after the earliest node event —
    /// so a global event at time `g` sees every node's state up to
    /// `g`, and node events at the same instant run after it.
    fn run<F>(&mut self, mut exec: F)
    where
        F: FnMut(&mut Vec<Option<Box<Shard>>>, &Arc<World>, &ScenarioConfig, SimTime),
    {
        loop {
            let m = self
                .shards
                .iter()
                .filter_map(|s| s.as_ref().expect("shard home").engine.peek_time())
                .min();
            let g = self.global.peek_time();
            match (m, g) {
                (None, None) => break,
                (Some(m), g) if g.is_none_or(|g| g > m) => {
                    let cap = m + self.lookahead;
                    let end = g.map_or(cap, |g| cap.min(g));
                    self.windows += 1;
                    exec(&mut self.shards, &self.world, self.config, end);
                    self.route_outboxes();
                }
                _ => {
                    self.run_global_event();
                    self.route_outboxes();
                }
            }
        }
    }

    /// Moves cross-shard deliveries into their destination queues, in
    /// shard-id order. Arrival times are at or past the barrier, so
    /// insertion order cannot affect execution order (the keyed queue
    /// orders by `(time, key)` alone).
    fn route_outboxes(&mut self) {
        for i in 0..self.shards.len() {
            let outbox = std::mem::take(&mut self.shard_mut(i).outbox);
            for (at, key, ev) in outbox {
                let to = match &ev {
                    ShardEvent::Deliver { to, .. } => *to,
                    _ => unreachable!("only deliveries cross shard boundaries"),
                };
                let target = self.shard_of(to);
                self.shard_mut(target).engine.schedule_at(at, key, ev);
            }
        }
    }

    fn run_global_event(&mut self) {
        let (now, event) = self.global.pop().expect("a global event is pending");
        match event {
            GlobalEvent::Break => self.handle_break(now),
            GlobalEvent::Repair => self.handle_repair(),
            GlobalEvent::ChurnTick => self.handle_churn(now),
        }
    }

    /// Exclusive access to the shared run state. Sound because global
    /// events only run between windows, when every worker has dropped
    /// its handle (workers drop before reporting their shard back) and
    /// the coordinator's own shard-0 window, which only borrows the
    /// state, has returned.
    fn world_mut(world: &mut Arc<World>) -> &mut World {
        Arc::get_mut(world).expect("no worker holds the shared state at a barrier")
    }

    fn handle_break(&mut self, now: SimTime) {
        if now >= self.config.duration {
            // The workload is over; the queues are only draining
            // in-flight recoveries. Do not disturb them.
            return;
        }
        let world = Self::world_mut(&mut self.world);
        if let Some(link) = world.break_link(&mut self.reconfig_rng) {
            let (a, b) = (link.a(), link.b());
            let sa = self.shard_of(a);
            let sb = self.shard_of(b);
            self.shard_mut(sa).transport.reset_link(a, b);
            self.shard_mut(sb).transport.reset_link(a, b);
            self.reconfigurations += 1;
            self.global
                .schedule(self.config.repair_delay, GlobalEvent::Repair);
        }
        if let Some(rho) = self.config.reconfig_interval {
            if now + rho < self.config.duration {
                self.global.schedule(rho, GlobalEvent::Break);
            }
        }
    }

    fn handle_repair(&mut self) {
        let world = Self::world_mut(&mut self.world);
        let (mut hosts, _) = barrier_hosts(&mut self.shards, 0);
        world.repair(&mut self.reconfig_rng, &mut hosts);
    }

    /// Subscription churn: the (un)subscriptions travel as protocol
    /// messages via the owning shard's transport; cross-link partners
    /// may live on any shard, which is sound at a barrier.
    fn handle_churn(&mut self, now: SimTime) {
        if now >= self.config.duration {
            return;
        }
        let (shards, per) = (&self.shards, self.per);
        let drawn = self
            .world
            .draw_churn(self.config, &mut self.churn_rng, |node, client| {
                let shard = shards[node.index() / per].as_ref().expect("shard home");
                shard.nodes[shard.local(node)].client_patterns(client)
            });
        if let Some(churn) = drawn {
            self.churn_events += 1;
            let owner = self.shard_of(churn.node);
            let world = Self::world_mut(&mut self.world);
            let (mut hosts, counters) = barrier_hosts(&mut self.shards, owner);
            let out = world.apply_churn(churn, &mut hosts, counters);
            let config = self.config;
            self.shards[owner]
                .as_mut()
                .expect("shard home at the barrier")
                .send(churn.node, now, out, &self.world, config);
        }
        if let Some(churn) = self.config.churn_interval {
            if now + churn < self.config.duration {
                self.global.schedule(churn, GlobalEvent::ChurnTick);
            }
        }
    }
}

/// Every node, in id order (shard ranges are contiguous and ordered),
/// plus the message counters of shard `owner`.
fn barrier_hosts(
    shards: &mut [Option<Box<Shard>>],
    owner: usize,
) -> (Vec<&mut SimNode>, &mut MessageCounters) {
    let mut hosts = Vec::new();
    let mut counters = None;
    for (i, slot) in shards.iter_mut().enumerate() {
        let shard = &mut **slot.as_mut().expect("shard home at the barrier");
        hosts.extend(shard.nodes.iter_mut());
        if i == owner {
            counters = Some(&mut shard.counters);
        }
    }
    (hosts, counters.expect("owner shard exists"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_gossip::Algorithm;

    fn small(algorithm: Algorithm) -> ScenarioConfig {
        ScenarioConfig {
            nodes: 22,
            duration: SimTime::from_secs(3),
            warmup: SimTime::from_millis(500),
            cooldown: SimTime::from_millis(500),
            publish_rate: 20.0,
            algorithm,
            ..ScenarioConfig::default()
        }
    }

    /// Every field, floats at full precision (`Debug` prints the
    /// shortest string that round-trips to the same bits).
    fn assert_bit_identical(a: &ScenarioResult, b: &ScenarioResult) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn shard_count_does_not_change_the_result() {
        let config = small(Algorithm::push());
        let one = run_scenario_sharded(&config, 1);
        let two = run_scenario_sharded(&config, 2);
        let five = run_scenario_sharded(&config, 5);
        assert_bit_identical(&one, &two);
        assert_bit_identical(&one, &five);
        assert!(one.delivery_rate > 0.0 && one.delivery_rate <= 1.0);
    }

    #[test]
    fn shard_invariance_holds_under_reconfiguration_and_churn() {
        let config = ScenarioConfig {
            reconfig_interval: Some(SimTime::from_millis(400)),
            churn_interval: Some(SimTime::from_millis(300)),
            link_error_rate: 0.0,
            ..small(Algorithm::push())
        };
        let one = run_scenario_sharded(&config, 1);
        let three = run_scenario_sharded(&config, 3);
        assert_bit_identical(&one, &three);
        assert!(one.reconfigurations > 0);
        assert!(one.churn_events > 0);
    }

    #[test]
    fn oversized_shard_counts_are_clamped() {
        let config = ScenarioConfig {
            nodes: 3,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_millis(200),
            cooldown: SimTime::from_millis(200),
            publish_rate: 10.0,
            ..ScenarioConfig::default()
        };
        let (result, stats) = run_scenario_sharded_with_stats(&config, 64);
        assert_eq!(stats.shards, 3);
        assert!(stats.events_processed > 0);
        assert!(stats.windows > 0);
        let (baseline, _) = run_scenario_sharded_with_stats(&config, 1);
        assert_bit_identical(&baseline, &result);
    }
}
