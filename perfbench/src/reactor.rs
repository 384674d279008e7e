//! `reactor-steady`: the epoll reactor runtime over loopback sockets,
//! driven through `ReactorCluster::launch` and `finish`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eps_net::{NetConfig, NetRunReport, ReactorCluster};

use crate::procfs::{self, ThreadSample};
use crate::spans::ratio;
use crate::workloads::REACTOR_WORKERS;
use crate::Line;

/// Name prefix of the reactor's worker threads.
const WORKER_PREFIX: &str = "eps-reactor-";
/// How often the traced run reads the worker threads' counters. The
/// last reading before a worker exits is at most this stale.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// One launch + finish, with its wall-clock phases.
struct Timed {
    report: NetRunReport,
    setup_s: f64,
    finish_s: f64,
    run_s: f64,
}

fn launch_and_finish(config: NetConfig) -> Result<Timed, String> {
    let started = Instant::now();
    let cluster = ReactorCluster::launch(config, REACTOR_WORKERS)
        .map_err(|e| format!("launching the reactor cluster: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    let finishing = Instant::now();
    let report = cluster.finish();
    Ok(Timed {
        report,
        setup_s,
        finish_s: finishing.elapsed().as_secs_f64(),
        run_s: started.elapsed().as_secs_f64(),
    })
}

/// Writes the checked outputs of a reactor run.
fn outputs(line: &mut Line, report: &NetRunReport) {
    line.num("delivery_rate", report.result.overall_delivery_rate)
        .num("events_published", report.result.events_published as f64)
        .num("decode_errors", report.net.decode_errors as f64)
        .num("queue_drops", report.net.queue_drops as f64)
        .num("trace_dropped", report.trace_dropped as f64);
}

/// One timed end-to-end repetition.
pub fn run(config: NetConfig) -> Result<Line, String> {
    let nodes = config.scenario.nodes;
    let cpu = procfs::process_cpu_s();
    let timed = launch_and_finish(config)?;
    let cpu_s = procfs::process_cpu_s() - cpu;
    let latency = timed.report.latency;
    let mut line = Line::default();
    line.num("setup_s", timed.setup_s)
        .num("run_s", timed.run_s)
        .num("cpu_s", cpu_s)
        .num(
            "peak_rss_per_node_kb",
            procfs::status_kb("VmHWM") as f64 / nodes as f64,
        )
        .num("latency_p50_us", latency.p50.as_nanos() as f64 / 1e3)
        .num("latency_p99_us", latency.p99.as_nanos() as f64 / 1e3)
        .num("latency_max_us", latency.max.as_nanos() as f64 / 1e3)
        .num("latency_samples", latency.samples as f64);
    outputs(&mut line, &timed.report);
    Ok(line)
}

/// Reads the worker threads until `stop`, keeping each one's latest
/// sample (a worker's counters vanish with it when it exits).
fn sample_workers(stop: &AtomicBool) -> HashMap<u64, ThreadSample> {
    let mut latest = HashMap::new();
    while !stop.load(Ordering::Relaxed) {
        latest.extend(procfs::threads_named(WORKER_PREFIX));
        std::thread::sleep(SAMPLE_EVERY);
    }
    latest
}

/// The per-layer metrics of the socket runtime: the same launch and
/// finish, plus per-thread `/proc` readings and the `NetCounters`.
pub fn trace(config: NetConfig) -> Result<Line, String> {
    let duration_s = config.scenario.duration.as_secs_f64();
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || sample_workers(&stop))
    };
    let (user0, sys0) = procfs::cpu_s("/proc/self/stat");
    let timed = launch_and_finish(config);
    let (user1, sys1) = procfs::cpu_s("/proc/self/stat");
    stop.store(true, Ordering::Relaxed);
    let workers = sampler.join().expect("the sampler thread does not panic");
    let timed = timed?;

    let sum = |f: fn(&ThreadSample) -> f64| workers.values().map(f).sum::<f64>();
    let worker_cpu_s = sum(|s| s.user_s + s.sys_s);
    let deliveries = timed.report.latency.samples as f64;
    let net = &timed.report.net;
    let (user, sys) = (user1 - user0, sys1 - sys0);
    let mut line = Line::default();
    line.num("net.drain_s", timed.finish_s - duration_s)
        .num("net.worker_cpu_s", worker_cpu_s)
        .num(
            "net.worker_util",
            ratio(worker_cpu_s, REACTOR_WORKERS as f64 * timed.run_s),
        )
        .num("net.cpu_sys_share", ratio(sys, user + sys))
        .num(
            "net.voluntary_ctx_switches",
            sum(|s| s.voluntary_ctx_switches as f64),
        )
        .num(
            "net.rw_syscalls_per_delivery",
            ratio(sum(|s| s.rw_syscalls as f64), deliveries),
        )
        .num(
            "net.frames_per_delivery",
            ratio(net.frames_sent as f64, deliveries),
        )
        .num(
            "net.bytes_per_delivery",
            ratio(net.bytes_sent as f64, deliveries),
        )
        .num("net.datagrams_sent", net.datagrams_sent as f64)
        .num(
            "net.gossip_msgs_per_s",
            ratio(timed.report.result.gossip_msgs as f64, timed.run_s),
        )
        .num("net.queue_drops", net.queue_drops as f64)
        .num("net.decode_errors", net.decode_errors as f64)
        .num("net.connect_retries", net.connect_retries as f64)
        .num("net.trace_dropped", timed.report.trace_dropped as f64);
    outputs(&mut line, &timed.report);
    Ok(line)
}
