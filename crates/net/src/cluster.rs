//! Cluster assembly and orchestration: boots an N-node tree over
//! loopback sockets, runs the scenario's workload in wall-clock time,
//! and aggregates the per-node sinks into the simulator's
//! [`ScenarioResult`] schema plus the socket-layer [`NetCounters`].
//!
//! The population (topology, subscriptions, node actors) comes from
//! the harness's shared `build_population`, so a [`NetConfig`] with
//! the same seed as a simulator run boots the *identical* population —
//! the basis of the sim-vs-wire cross-validation tests.
//!
//! The epoll reactor (`reactor.rs`) executes that population, either
//! whole in one process ([`crate::ReactorCluster`]) or one node per
//! process ([`crate::run_process_node`]). Both modes boot through
//! [`boot_slice`] and report through [`aggregate_cores`], so the mode
//! changes where nodes run — never protocol state or accounting.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use eps_harness::{
    build_population, harvest, Population, ScenarioConfig, ScenarioResult, TraceRecord,
};
use eps_metrics::{DeliveryTracker, MessageCounters, NetCounters};
use eps_sim::{Rng, RngFactory};

use crate::core::{CoreSetup, NodeCore, NodeParams, Shared};

/// Where one node listens: its TCP (tree links) and UDP (out-of-band)
/// socket addresses.
#[derive(Clone, Copy, Debug)]
pub struct NodeAddrs {
    /// The tree-link listener.
    pub tcp: SocketAddr,
    /// The out-of-band datagram socket.
    pub udp: SocketAddr,
}

/// One real-socket run: the simulator's scenario parameters plus the
/// knobs only a socket runtime has.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The scenario: topology, workload, algorithm — identical
    /// meaning to the simulator's. `duration` is interpreted as wall
    /// time (1 virtual second = 1 wall second).
    pub scenario: ScenarioConfig,
    /// Maximum wall time to wait after the workload for outstanding
    /// recoveries to converge (the run stops earlier the moment every
    /// intended delivery has happened).
    pub drain: Duration,
    /// Bounded outbound queue, in frames per link.
    pub queue_capacity: usize,
    /// Per-node trace capacity (publish/deliver records drive both
    /// the adaptive stop and the final result assembly; an overflow
    /// is reported in [`NetRunReport::trace_dropped`]).
    pub trace_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            scenario: ScenarioConfig::default(),
            drain: Duration::from_secs(2),
            queue_capacity: 1024,
            trace_capacity: 1 << 20,
        }
    }
}

impl NetConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on the first violated constraint. Beyond the scenario's
    /// own rules, the socket runtime supports neither topological
    /// reconfiguration nor subscription churn (the overlay tree is
    /// fixed at boot).
    pub fn validate(&self) {
        self.scenario.validate();
        assert!(
            self.scenario.reconfig_interval.is_none(),
            "the socket runtime does not reconfigure the overlay"
        );
        assert!(
            self.scenario.churn_interval.is_none(),
            "the socket runtime does not churn subscriptions"
        );
        assert!(self.queue_capacity > 0, "queues need capacity");
        assert!(self.trace_capacity > 0, "traces need capacity");
    }
}

/// End-to-end delivery latency over one run: publish-to-deliver wall
/// time, sampled at every client delivery record (first copies and
/// recoveries alike). The simulator has no wall clock, so this lives
/// beside [`ScenarioResult`] rather than inside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeliveryLatency {
    /// Delivery records sampled.
    pub samples: u64,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency (nearest-rank).
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

/// What a finished cluster run reports: the simulator's result schema
/// assembled from the same code path, plus the socket-layer counters.
#[derive(Clone, Debug)]
pub struct NetRunReport {
    /// The shared summary schema (delivery rates, message counts,
    /// recovery latencies) — directly comparable to a simulator run.
    pub result: ScenarioResult,
    /// Socket-layer runtime counters, summed over nodes.
    pub net: NetCounters,
    /// Trace records that did not fit `trace_capacity` (non-zero means
    /// the result under-counts and the capacity should be raised).
    pub trace_dropped: u64,
    /// Publish-to-deliver latency percentiles (wall clock).
    pub latency: DeliveryLatency,
}

/// One booted-but-not-running node: the protocol core plus its bound
/// sockets and dial-jitter stream. Reactor workers consume these.
pub(crate) struct BootNode {
    pub core: NodeCore,
    pub listener: TcpListener,
    pub udp: UdpSocket,
    pub dial_rng: Rng,
}

/// A booted population slice: the full address registry (so every
/// peer is known before the first dial) and the cores of the nodes
/// this process hosts.
pub(crate) struct Boot {
    pub registry: Vec<NodeAddrs>,
    pub nodes: Vec<BootNode>,
    pub setup_subscription_msgs: u64,
}

/// Builds the population and binds every node's sockets on ephemeral
/// loopback ports, for a cluster hosted whole in this process.
pub(crate) fn boot_population(config: &NetConfig) -> std::io::Result<Boot> {
    config.validate();
    let mut sockets = Vec::with_capacity(config.scenario.nodes);
    let mut registry = Vec::with_capacity(config.scenario.nodes);
    for _ in 0..config.scenario.nodes {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        registry.push(NodeAddrs {
            tcp: listener.local_addr()?,
            udp: udp.local_addr()?,
        });
        sockets.push((listener, udp));
    }
    Ok(boot_slice(config, registry, 0, sockets))
}

/// Builds the population and boots nodes `base..base + sockets.len()`
/// on the given bound sockets. The one boot path of both the
/// in-process cluster (the whole population) and multi-process mode
/// (one node): every process derives the same population and the same
/// per-node RNG streams from the seed, so the cores a node starts from
/// do not depend on where it runs.
pub(crate) fn boot_slice(
    config: &NetConfig,
    registry: Vec<NodeAddrs>,
    base: usize,
    sockets: Vec<(TcpListener, UdpSocket)>,
) -> Boot {
    let scenario = &config.scenario;
    let Population {
        topology,
        view,
        space,
        nodes,
        subscriptions: _,
        client_subscriptions: _,
        subscribers_of,
        setup_subscription_msgs,
    } = build_population(scenario);

    let factory = RngFactory::new(scenario.seed);
    let boot_nodes = nodes
        .into_iter()
        .skip(base)
        .zip(sockets)
        .enumerate()
        .map(|(k, (node, (listener, udp)))| {
            let i = (base + k) as u64;
            let id = node.id();
            let core = NodeCore::new(
                CoreSetup {
                    node,
                    // TCP tree links follow the routing view; the
                    // physical neighborhood (gossip partners, cross
                    // links over UDP) is passed alongside.
                    neighbors: view.neighbors(id).to_vec(),
                    graph_neighbors: topology.neighbors(id).to_vec(),
                    space,
                    subscribers_of: subscribers_of.clone(),
                    gossip_rng: factory.indexed_stream("net-gossip", i),
                    loss_rng: factory.indexed_stream("net-loss", i),
                    counters_width: scenario.nodes,
                    trace_capacity: config.trace_capacity,
                },
                node_params(config),
            );
            BootNode {
                core,
                listener,
                udp,
                // A non-protocol stream: jittering dial retries must not
                // perturb the gossip/loss draws the crossval suite pins.
                dial_rng: factory.indexed_stream("net-dial", i),
            }
        })
        .collect();
    Boot {
        registry,
        nodes: boot_nodes,
        setup_subscription_msgs,
    }
}

/// Polls the shared progress counters until the workload has finished
/// and every intended delivery has happened, or the drain budget runs
/// out. The in-process coordinator stops through this.
pub(crate) fn wait_for_convergence(shared: &Shared, config: &NetConfig, start: Instant) {
    let n = config.scenario.nodes as u64;
    let wall = Duration::from_nanos(config.scenario.duration.as_nanos());
    let deadline = start + wall + config.drain;
    loop {
        let published_all = shared.publishers_done.load(Ordering::Relaxed) >= n;
        let converged = published_all
            && shared.delivered.load(Ordering::Relaxed) >= shared.expected.load(Ordering::Relaxed);
        if converged || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn node_params(config: &NetConfig) -> NodeParams {
    let s = &config.scenario;
    NodeParams {
        payload_bits: s.event_payload_bits,
        loss_rate: s.link_error_rate,
        publish_rate: s.publish_rate,
        gossip_interval: s.gossip_interval,
        adaptive: s.adaptive_gossip,
        duration: s.duration,
    }
}

/// Rebinding a just-freed address can race the kernel's cleanup;
/// retry briefly instead of failing the restart.
pub(crate) fn bind_with_retry<S>(
    mut bind: impl FnMut() -> std::io::Result<S>,
) -> std::io::Result<S> {
    let mut last = None;
    for _ in 0..40 {
        match bind() {
            Ok(sock) => return Ok(sock),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Merges every node's sinks into one report, through the same
/// `harvest` path the simulator uses: first all publishes (so the
/// global tracker knows every event and its intended audience), then
/// all deliveries. The in-process cluster hands every core here; a
/// multi-process node hands its own.
pub(crate) fn aggregate_cores(
    scenario: &ScenarioConfig,
    cores: &[NodeCore],
    setup_subscription_msgs: u64,
) -> NetRunReport {
    let mut tracker = DeliveryTracker::new_tolerant();
    let mut counters = MessageCounters::new(scenario.nodes);
    let mut net = NetCounters::default();
    let mut trace_dropped = 0;
    let mut published_at = HashMap::new();
    let mut latencies_ns: Vec<u64> = Vec::new();

    for core in cores {
        if let Some(trace) = &core.trace {
            trace_dropped += trace.dropped();
            for rec in trace.records() {
                if let TraceRecord::Publish {
                    at,
                    event,
                    expected,
                    ..
                } = *rec
                {
                    tracker.published(event, at, expected);
                    published_at.insert(event, at);
                }
            }
        }
    }
    for core in cores {
        if let Some(trace) = &core.trace {
            for rec in trace.records() {
                if let TraceRecord::Deliver {
                    at,
                    node,
                    client: _,
                    event,
                    recovered,
                } = *rec
                {
                    // One record per matching local client; the
                    // tracker's per-(event, node) sets keep duplicate
                    // arrivals out while each client record still
                    // counts towards the delivered total.
                    if recovered {
                        tracker.recovered(event, node, at);
                    } else {
                        tracker.delivered(event, node);
                    }
                    if let Some(&pub_at) = published_at.get(&event) {
                        latencies_ns.push(at.as_nanos().saturating_sub(pub_at.as_nanos()));
                    }
                }
            }
        }
    }
    for core in cores {
        counters.absorb(&core.counters);
        net.absorb(&core.net);
    }
    let result = harvest(
        scenario,
        &tracker,
        &mut counters,
        cores.iter().map(NodeCore::sim_node),
        setup_subscription_msgs,
        0,
        0,
    );
    NetRunReport {
        result,
        net,
        trace_dropped,
        latency: latency_percentiles(&mut latencies_ns),
    }
}

/// Nearest-rank percentiles over the publish-to-deliver samples.
fn latency_percentiles(latencies_ns: &mut [u64]) -> DeliveryLatency {
    if latencies_ns.is_empty() {
        return DeliveryLatency::default();
    }
    latencies_ns.sort_unstable();
    let at = |pct: u64| {
        let idx = ((latencies_ns.len() as u64 - 1) * pct / 100) as usize;
        Duration::from_nanos(latencies_ns[idx])
    };
    DeliveryLatency {
        samples: latencies_ns.len() as u64,
        p50: at(50),
        p99: at(99),
        max: Duration::from_nanos(*latencies_ns.last().expect("non-empty")),
    }
}
