//! Reactor-runtime integration tests over loopback sockets: small
//! clusters that boot, converge, and survive forced restarts; one
//! dispatcher per `run_process_node` call wired into a multi-process
//! cluster; and the scale case the reactor exists for: a thousand
//! dispatchers in one process on a handful of worker threads.

use std::net::{TcpListener, UdpSocket};
use std::time::Duration;

use eps_gossip::Algorithm;
use eps_harness::{run_scenario, ScenarioConfig};
use eps_net::{run_process_node, run_reactor_cluster, NetConfig, NodeAddrs, ReactorCluster};
use eps_sim::SimTime;

fn smoke_config(nodes: usize, algorithm: Algorithm, seed: u64) -> NetConfig {
    NetConfig {
        scenario: ScenarioConfig {
            seed,
            nodes,
            publish_rate: 20.0,
            link_error_rate: 0.05,
            // Dense content model so events have audiences and
            // recovery genuinely engages — see crossval.rs.
            pattern_universe: 6,
            pi_max: 2,
            duration: SimTime::from_millis(800),
            warmup: SimTime::from_millis(100),
            cooldown: SimTime::from_millis(100),
            gossip_interval: SimTime::from_millis(30),
            algorithm,
            ..ScenarioConfig::default()
        },
        drain: Duration::from_secs(3),
        ..NetConfig::default()
    }
}

#[test]
fn three_node_push_converges_under_the_reactor() {
    let report =
        run_reactor_cluster(smoke_config(3, Algorithm::push(), 11), 2).expect("reactor boots");
    assert!(report.result.events_published > 0, "workload ran");
    assert_eq!(
        report.result.overall_delivery_rate, 1.0,
        "push + out-of-band recovery must converge under the reactor; got {:?}",
        report.result
    );
    assert!(report.net.frames_sent > 0, "tree links carried traffic");
    assert!(
        report.net.frames_received > 0,
        "tree links delivered traffic"
    );
    assert!(
        report.latency.samples > 0 && report.latency.p99 >= report.latency.p50,
        "delivery latency was sampled; got {:?}",
        report.latency
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
    assert_eq!(report.trace_dropped, 0, "trace capacity sufficed");
}

#[test]
fn combined_pull_converges_under_the_reactor() {
    let report = run_reactor_cluster(smoke_config(3, Algorithm::combined_pull(), 13), 2)
        .expect("reactor boots");
    assert!(report.result.events_published > 0, "workload ran");
    // Pull detects losses by sequence gaps, so an event that ends its
    // (source, pattern) stream can never be pulled: the run-tail is
    // structurally unrecoverable, and the in-window rate is the
    // convergence claim.
    assert_eq!(
        report.result.delivery_rate, 1.0,
        "combined pull must converge inside the measurement window; got {:?}",
        report.result
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// Forced restarts under the reactor: the restart request is
/// asynchronous (the worker keeps serving its other nodes), peers'
/// dial state machines must ride out the dead listener, and the
/// protocol state must survive the socket teardown.
#[test]
fn sixteen_node_tree_survives_forced_restarts_under_the_reactor() {
    let mut config = smoke_config(16, Algorithm::push(), 17);
    config.scenario.publish_rate = 10.0;
    config.scenario.duration = SimTime::from_millis(1200);
    let mut cluster = ReactorCluster::launch(config, 3).expect("reactor boots");
    std::thread::sleep(Duration::from_millis(250));
    cluster
        .restart_node(3, Duration::from_millis(150))
        .expect("restart request reaches the worker");
    cluster
        .restart_node(9, Duration::from_millis(150))
        .expect("restart request reaches the worker");
    let report = cluster.finish();
    assert!(report.result.events_published > 0, "workload ran");
    assert!(
        report.net.connect_retries > 0,
        "restarts must exercise the dial state machines; counters: {:?}",
        report.net
    );
    assert!(
        report.result.overall_delivery_rate > 0.9,
        "recovery should repair most restart damage; got {:?}",
        report.result
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// Multi-process mode: three `run_process_node` calls (one per
/// dispatcher, here on threads instead of processes) find each other
/// through a shared registry and run the crossval scenario at N=3.
/// Each reports only its local view, so the publishes must add up to
/// the simulator's workload for the same seed.
#[test]
fn process_nodes_split_the_simulated_workload() {
    let scenario = ScenarioConfig {
        seed: 7,
        nodes: 3,
        max_degree: 3,
        publish_rate: 20.0,
        link_error_rate: 0.05,
        pattern_universe: 8,
        pi_max: 2,
        duration: SimTime::from_millis(600),
        warmup: SimTime::from_millis(100),
        cooldown: SimTime::from_millis(100),
        gossip_interval: SimTime::from_millis(30),
        algorithm: Algorithm::push(),
        ..ScenarioConfig::default()
    };
    let sim = run_scenario(&scenario);
    let config = NetConfig {
        scenario,
        drain: Duration::from_secs(1),
        ..NetConfig::default()
    };
    // Free loopback ports: bind ephemerally, record, release.
    let registry: Vec<NodeAddrs> = (0..3)
        .map(|_| {
            let tcp = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
            let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
            NodeAddrs {
                tcp: tcp.local_addr().expect("tcp addr"),
                udp: udp.local_addr().expect("udp addr"),
            }
        })
        .collect();
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|index| {
                let (config, registry) = (&config, registry.clone());
                s.spawn(move || run_process_node(config, index, registry).expect("node boots"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    });
    let published: u64 = reports.iter().map(|r| r.result.events_published).sum();
    assert_eq!(
        published, sim.events_published,
        "the processes' local publishes must add up to the simulated workload"
    );
    for (index, report) in reports.iter().enumerate() {
        assert!(report.net.frames_sent > 0, "node {index} sent tree frames");
        assert!(
            report.net.frames_received > 0,
            "node {index} received tree frames"
        );
        assert_eq!(report.net.decode_errors, 0, "node {index} never misparses");
    }
}

/// The scale acceptance: 1000 dispatchers in one process, two worker
/// threads, every tree link live, full delivery. Loss injection is off
/// so the run's byte budget stays test-sized; what this pins is the
/// fd/timer/buffer machinery at three-plus thousand descriptors.
#[test]
fn thousand_dispatchers_converge_in_one_process() {
    let config = NetConfig {
        scenario: ScenarioConfig {
            seed: 23,
            nodes: 1000,
            max_degree: 6,
            publish_rate: 2.0,
            link_error_rate: 0.0,
            pattern_universe: 1000,
            pi_max: 1,
            duration: SimTime::from_millis(600),
            warmup: SimTime::from_millis(100),
            cooldown: SimTime::from_millis(100),
            gossip_interval: SimTime::from_millis(100),
            algorithm: Algorithm::push(),
            ..ScenarioConfig::default()
        },
        drain: Duration::from_secs(20),
        ..NetConfig::default()
    };
    let report = run_reactor_cluster(config, 2).expect("reactor boots 1000 dispatchers");
    assert!(
        report.result.events_published > 100,
        "the population published a real workload; got {}",
        report.result.events_published
    );
    assert!(
        report.result.overall_delivery_rate >= 0.99,
        "a lossless 1000-node tree must deliver (recovery covers stragglers); got {:?}",
        report.result
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
    assert_eq!(report.trace_dropped, 0, "trace capacity sufficed");
}
