//! # eps-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate that replaces OMNeT++ in the
//! reproduction of *“Epidemic Algorithms for Reliable Content-Based
//! Publish-Subscribe: An Evaluation”* (Costa et al., ICDCS 2004).
//!
//! It provides exactly what the evaluation needs and nothing more:
//!
//! - [`SimTime`] — integer-nanosecond virtual time;
//! - [`KeyedEngine`] — the one calendar heap: a pending-event queue
//!   ordered by `(time, key)`. The sharded runner keys same-instant
//!   events by an event-derived key, so its execution order is
//!   shard-count-invariant;
//! - [`Engine`] — the FIFO-keyed use of that heap (the key is the
//!   scheduling sequence), so two events scheduled for the same
//!   instant fire in scheduling order; generic over the message type;
//! - [`Rng`] / [`RngFactory`] — an in-tree xoshiro256++ generator and
//!   named, independent, seed-stable random streams, so parameter
//!   sweeps do not perturb unrelated random choices (and the build
//!   needs no external crates);
//! - [`Summary`], [`RatioSeries`], [`quantile`] — the statistics
//!   helpers used to build the paper's delivery-rate and overhead
//!   figures;
//! - [`check`] — the seeded property harness every property test in
//!   the workspace runs on.
//!
//! # Examples
//!
//! A tiny two-node ping-pong simulation:
//!
//! ```
//! use eps_sim::{Engine, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Msg { Ping, Pong }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::from_millis(1), Msg::Ping);
//! let mut log = Vec::new();
//! while let Some((t, msg)) = engine.pop() {
//!     log.push((t, format!("{msg:?}")));
//!     if msg == Msg::Ping && t < SimTime::from_millis(3) {
//!         engine.schedule(SimTime::from_millis(1), Msg::Pong);
//!         engine.schedule(SimTime::from_millis(2), Msg::Ping);
//!     }
//! }
//! assert_eq!(log.len(), 3); // Ping@1ms, Pong@2ms, Ping@3ms
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
mod engine;
mod keyed;
mod rng;
mod stats;
mod time;

pub use engine::Engine;
pub use keyed::KeyedEngine;
pub use rng::{Rng, RngFactory, SampleRange, Zipf};
pub use stats::{quantile, RatioBin, RatioSeries, Summary};
pub use time::SimTime;
