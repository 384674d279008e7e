//! The benchmark's workloads: each turns the benchmark seed into the
//! configuration the program receives.

use std::time::Duration;

use eps_gossip::Algorithm;
use eps_harness::ScenarioConfig;
use eps_net::NetConfig;
use eps_sim::SimTime;

/// Virtual seconds `paper-lossy` simulates.
const PAPER_LOSSY_SECS: u64 = 10;
/// Virtual milliseconds `scale-dense` simulates: long enough for about
/// 6·10⁴ gossip ticks and two hundred publications.
const SCALE_DENSE_MS: u64 = 400;
/// Worker threads of the sharded runner on `scale-dense`.
pub const SCALE_DENSE_SHARDS: usize = 2;
/// Wall seconds `reactor-steady` publishes for.
const REACTOR_STEADY_SECS: u64 = 3;
/// Reactor worker threads on `reactor-steady`.
pub const REACTOR_WORKERS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperLossy,
    ScaleDense,
    ReactorSteady,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "paper-lossy" => Ok(Workload::PaperLossy),
            "scale-dense" => Ok(Workload::ScaleDense),
            "reactor-steady" => Ok(Workload::ReactorSteady),
            other => Err(format!(
                "unknown workload '{other}' (paper-lossy | scale-dense | reactor-steady)"
            )),
        }
    }

    /// The scenario this workload runs. For `reactor-steady` it is the
    /// scenario part of [`Workload::net`].
    pub fn scenario(self, seed: u64) -> ScenarioConfig {
        match self {
            // The paper's Figure 2 operating point: every other field
            // is the harness default (N=100, degree 4, Π=70, π_max=2,
            // 50 ev/s/node, ε=0.1, β=1500, T=30 ms).
            Workload::PaperLossy => ScenarioConfig {
                seed,
                algorithm: Algorithm::combined_pull(),
                duration: SimTime::from_secs(PAPER_LOSSY_SECS),
                ..ScenarioConfig::default()
            },
            // About 2.4 subscribers per pattern, the paper's density,
            // at 50 times its population.
            Workload::ScaleDense => {
                let duration = SimTime::from_millis(SCALE_DENSE_MS);
                ScenarioConfig {
                    seed,
                    nodes: 5_000,
                    pattern_universe: 4096,
                    pi_max: 2,
                    publish_rate: 0.1,
                    link_error_rate: 0.01,
                    algorithm: Algorithm::push(),
                    gossip_interval: SimTime::from_millis(30),
                    duration,
                    warmup: duration.mul_f64(0.125),
                    cooldown: duration.mul_f64(0.125),
                    ..ScenarioConfig::default()
                }
            }
            // `net_load`'s shape below one worker's knee: sparse
            // one-pattern subscriptions over a universe the size of
            // the population, lossless links.
            Workload::ReactorSteady => {
                let duration = SimTime::from_secs(REACTOR_STEADY_SECS);
                ScenarioConfig {
                    seed,
                    nodes: 300,
                    max_degree: 6,
                    pattern_universe: 300,
                    pi_max: 1,
                    publish_rate: 2.0,
                    link_error_rate: 0.0,
                    algorithm: Algorithm::push(),
                    gossip_interval: SimTime::from_millis(100),
                    duration,
                    warmup: duration.mul_f64(0.125),
                    cooldown: duration.mul_f64(0.125),
                    ..ScenarioConfig::default()
                }
            }
        }
    }

    /// The socket-runtime configuration of `reactor-steady`.
    pub fn net(self, seed: u64) -> NetConfig {
        NetConfig {
            scenario: self.scenario(seed),
            drain: Duration::from_secs(20),
            ..NetConfig::default()
        }
    }
}
