//! `perfbench` — one measured repetition of one benchmark workload, in
//! a fresh process so that peak memory and allocator state belong to
//! that repetition alone.
//!
//! ```text
//! perfbench <paper-lossy|scale-dense|reactor-steady> <run|trace> --seed N
//! ```
//!
//! - `run` times one call of the workload's runner and prints the
//!   end-to-end metrics. On the simulator workloads it then replays the
//!   scenario through the benchmark's own serial loop, without spans,
//!   for the wall-clock publish-to-delivery latency: how long the
//!   simulator takes to carry an event from its publication to each
//!   delivery.
//! - `trace` prints the per-layer metrics.
//!
//! Each mode prints one JSON object on one line. `run.py` starts the
//! repetitions, checks the outputs and aggregates them.

mod procfs;
mod reactor;
mod replay;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use eps_harness::{
    build_population, run_scenario, run_scenario_sharded_with_stats, ScenarioConfig, ScenarioResult,
};
use eps_overlay::{RoutingView, Topology};
use eps_sim::RngFactory;

use spans::{ratio, Layer};
use workloads::{Workload, SCALE_DENSE_SHARDS};

/// Timed `build_population` calls before a serial run; `setup_s` is
/// their median.
const SERIAL_SETUP_SAMPLES: usize = 5;

/// One output line: named numbers and strings, in insertion order.
#[derive(Default)]
pub struct Line(String);

impl Line {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.raw(key, &value)
    }

    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.raw(key, &format!("\"{escaped}\""))
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(self.0, "{sep}\"{key}\": {value}");
        self
    }

    pub fn print(&self) {
        println!("{{{}}}", self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            line.print();
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<Line, String> {
    let [workload, mode, flag, seed] = args else {
        return Err("usage: perfbench <workload> <run|trace> --seed N".into());
    };
    if flag != "--seed" {
        return Err(format!("expected --seed, got '{flag}'"));
    }
    let workload = Workload::parse(workload)?;
    let seed: u64 = seed
        .parse()
        .map_err(|e| format!("bad seed '{seed}': {e}"))?;
    match (workload, mode.as_str()) {
        (Workload::ReactorSteady, "run") => reactor::run(workload.net(seed)),
        (Workload::ReactorSteady, "trace") => reactor::trace(workload.net(seed)),
        (_, "run") => sim_run(workload, &workload.scenario(seed)),
        (_, "trace") => sim_trace(&workload.scenario(seed)),
        (_, other) => Err(format!("unknown mode '{other}' (run | trace)")),
    }
}

/// A stable digest of every field of a result, series included.
fn digest(result: &ScenarioResult) -> String {
    // FNV-1a over the Debug rendering, which prints floats exactly.
    let text = format!("{result:?}");
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Writes the checked outputs of a simulated run.
fn sim_outputs(line: &mut Line, result: &ScenarioResult) {
    line.num("delivery_rate", result.delivery_rate)
        .num("events_published", result.events_published as f64)
        .text("fingerprint", &result.csv_row().join(","))
        .text("digest", &digest(result));
}

/// One timed end-to-end repetition of a simulator workload, then the
/// latency replay.
fn sim_run(workload: Workload, config: &ScenarioConfig) -> Result<Line, String> {
    let mut line = Line::default();
    let (result, setup_s, run_s, cpu_s) = if workload == Workload::ScaleDense {
        let cpu = procfs::process_cpu_s();
        let started = Instant::now();
        let (result, stats) = run_scenario_sharded_with_stats(config, SCALE_DENSE_SHARDS);
        let run_s = started.elapsed().as_secs_f64();
        let cpu_s = procfs::process_cpu_s() - cpu;
        (result, stats.setup_wall.as_secs_f64(), run_s, cpu_s)
    } else {
        let setups: Vec<f64> = (0..SERIAL_SETUP_SAMPLES)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(build_population(config));
                started.elapsed().as_secs_f64()
            })
            .collect();
        let cpu = procfs::process_cpu_s();
        let started = Instant::now();
        let result = run_scenario(config);
        let run_s = started.elapsed().as_secs_f64();
        let cpu_s = procfs::process_cpu_s() - cpu;
        (result, median(setups), run_s, cpu_s)
    };
    line.num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("cpu_s", cpu_s)
        .num(
            "peak_rss_per_node_kb",
            procfs::status_kb("VmHWM") as f64 / config.nodes as f64,
        );
    sim_outputs(&mut line, &result);

    let mut replay = replay::run(config, false, true)?;
    if workload == Workload::PaperLossy && digest(&replay.result) != digest(&result) {
        return Err("the replay diverged from run_scenario".into());
    }
    replay.latencies_ns.sort_unstable();
    let percentile_us = |q| percentile(&replay.latencies_ns, q) as f64 / 1e3;
    line.num("latency_p50_us", percentile_us(0.50))
        .num("latency_p99_us", percentile_us(0.99))
        .num("latency_samples", replay.latencies_ns.len() as f64);
    Ok(line)
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The per-layer metrics of a simulator workload: the traced replay,
/// the untraced serial runner it must reproduce, and the sharded
/// runner at 1 and 2 shards.
fn sim_trace(config: &ScenarioConfig) -> Result<Line, String> {
    replay::check_supported(config)?;
    // Topology alone, on the stream `build_population` draws it from.
    let started = Instant::now();
    let topology = Topology::build(
        config.overlay,
        config.nodes,
        config.max_degree,
        &mut RngFactory::new(config.seed).stream("topology"),
    );
    std::hint::black_box(RoutingView::derive(&topology));
    let topology_s = started.elapsed().as_secs_f64();
    drop(topology);

    let traced = replay::run(config, true, false)?;

    let started = Instant::now();
    let untraced = run_scenario(config);
    let untraced_s = started.elapsed().as_secs_f64();
    if digest(&untraced) != digest(&traced.result) {
        return Err(format!(
            "the traced replay diverged from run_scenario:\n  replay: {:?}\n  runner: {:?}",
            traced.result, untraced
        ));
    }

    let mut sharded: Vec<(Duration, u64, u64)> = Vec::new();
    let mut sharded_digest: Option<String> = None;
    for shards in [1, 2] {
        let (result, stats) = run_scenario_sharded_with_stats(config, shards);
        let d = digest(&result);
        if sharded_digest.get_or_insert_with(|| d.clone()) != &d {
            return Err("the sharded runner's result depends on the shard count".into());
        }
        sharded.push((stats.loop_wall, stats.windows, stats.events_processed));
    }

    let t = &traced.tracer;
    let r = &traced.result;
    let traced_s = traced.wall.as_secs_f64();
    let (loop1, loop2) = (sharded[0].0.as_secs_f64(), sharded[1].0.as_secs_f64());
    let mut line = Line::default();
    line.num("harness.setup.topology_s", topology_s)
        .num("harness.setup.population_s", t.self_s(Layer::Population))
        .num(
            "pubsub.setup.flood_msgs",
            traced.setup_subscription_msgs as f64,
        )
        .num(
            "harness.setup.rss_per_node_kb",
            traced.rss_after_setup_kb as f64 / config.nodes as f64,
        )
        .num("harness.sharded.loop_s.shards1", loop1)
        .num("harness.sharded.loop_s.shards2", loop2)
        .num("harness.sharded.speedup", ratio(loop1, loop2))
        .num("harness.sharded.windows", sharded[1].1 as f64)
        .num("harness.sharded.events", sharded[1].2 as f64)
        .num("harness.driver.self_s", t.self_s(Layer::Loop))
        .num(
            "harness.ns_per_event_msg",
            ratio(untraced_s * 1e9, r.event_msgs as f64),
        )
        .num("sim.calendar.ops", t.calls(Layer::Calendar) as f64)
        .num("sim.calendar.self_s", t.self_s(Layer::Calendar))
        .num("sim.calendar.ns_per_op", t.ns_per_call(Layer::Calendar))
        .num("sim.calendar.peak_len", traced.calendar_peak_len as f64)
        .num("overlay.transport.sends", t.calls(Layer::Transport) as f64)
        .num("overlay.transport.self_s", t.self_s(Layer::Transport))
        .num("overlay.transport.loss_ratio", traced.transport_loss_ratio)
        .num(
            "pubsub.handle_event.calls",
            t.calls(Layer::HandleEvent) as f64,
        )
        .num("pubsub.handle_event.self_s", t.self_s(Layer::HandleEvent))
        .num(
            "pubsub.handle_event.ns_per_call",
            t.ns_per_call(Layer::HandleEvent),
        )
        .num(
            "pubsub.handle_event.out_per_call",
            ratio(
                traced.event_handle_outputs as f64,
                t.calls(Layer::HandleEvent) as f64,
            ),
        )
        .num(
            "pubsub.tick_publish.calls",
            t.calls(Layer::TickPublish) as f64,
        )
        .num("pubsub.tick_publish.self_s", t.self_s(Layer::TickPublish))
        .num("gossip.tick.calls", t.calls(Layer::GossipTick) as f64)
        .num("gossip.tick.self_s", t.self_s(Layer::GossipTick))
        .num("gossip.tick.ns_per_call", t.ns_per_call(Layer::GossipTick))
        .num(
            "gossip.tick.useful_ratio",
            ratio(
                traced.useful_gossip_ticks as f64,
                t.calls(Layer::GossipTick) as f64,
            ),
        )
        .num(
            "gossip.handle_digest.calls",
            t.calls(Layer::HandleDigest) as f64,
        )
        .num("gossip.handle_digest.self_s", t.self_s(Layer::HandleDigest))
        .num(
            "gossip.handle_request.calls",
            t.calls(Layer::HandleRequest) as f64,
        )
        .num(
            "gossip.handle_request.self_s",
            t.self_s(Layer::HandleRequest),
        )
        .num(
            "gossip.handle_reply.calls",
            t.calls(Layer::HandleReply) as f64,
        )
        .num("gossip.handle_reply.self_s", t.self_s(Layer::HandleReply))
        .num(
            "gossip.recovery_yield",
            ratio(r.events_recovered as f64, r.events_retransmitted as f64),
        )
        .num(
            "gossip.control_bits_per_recovered",
            ratio(r.recovery_control_bits() as f64, r.events_recovered as f64),
        )
        .num("gossip.outstanding_losses", r.outstanding_losses as f64)
        .num("gossip.lost_evictions", r.lost_evictions as f64)
        .num("metrics.tracker.self_s", t.self_s(Layer::Tracker))
        .num("metrics.assemble_s", t.self_s(Layer::Assemble))
        .num("trace.traced_s", traced_s)
        .num("trace.untraced_s", untraced_s)
        .num("trace.overhead_s", traced_s - untraced_s)
        .num("trace.coverage", ratio(t.self_sum_s(), traced_s));
    sim_outputs(&mut line, r);
    Ok(line)
}
