//! Span recording for the traced run: each call the replay makes into
//! a layer is wrapped in a span, and a layer's self time is the time
//! its spans cover minus the time their child spans cover.

use std::time::Instant;

/// The layers the replay times, one per public entry point it calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `build_population`.
    Population,
    /// The replay's own loop: routing, counting, message moves.
    Loop,
    /// `Engine::pop` and `Engine::schedule_at`.
    Calendar,
    /// `NetTransport::send_link` and `NetTransport::send_oob`.
    Transport,
    /// `SimNode::handle` on event envelopes.
    HandleEvent,
    /// `SimNode::handle` on (un)subscriptions; none occur without churn.
    HandleSubscription,
    /// `SimNode::tick_publish`.
    TickPublish,
    /// `SimNode::tick_gossip`.
    GossipTick,
    /// `SimNode::handle` on gossip digests.
    HandleDigest,
    /// `SimNode::handle` on out-of-band and range requests.
    HandleRequest,
    /// `SimNode::handle` on out-of-band replies.
    HandleReply,
    /// `DeliveryTracker` calls made from inside the node.
    Tracker,
    /// `assemble`.
    Assemble,
}

const LAYERS: usize = 13;

/// Per-layer span totals. A disabled tracer records nothing and costs
/// one branch per call.
pub struct Tracer {
    enabled: bool,
    stack: Vec<(Layer, Instant)>,
    total_ns: [u64; LAYERS],
    child_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            stack: Vec::with_capacity(8),
            total_ns: [0; LAYERS],
            child_ns: [0; LAYERS],
            calls: [0; LAYERS],
        }
    }

    pub fn enter(&mut self, layer: Layer) {
        if self.enabled {
            self.stack.push((layer, Instant::now()));
        }
    }

    pub fn exit(&mut self) {
        if let Some((layer, start)) = self.stack.pop() {
            let ns = start.elapsed().as_nanos() as u64;
            self.total_ns[layer as usize] += ns;
            self.calls[layer as usize] += 1;
            if let Some(&(parent, _)) = self.stack.last() {
                self.child_ns[parent as usize] += ns;
            }
        }
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Span time minus the time of the spans nested directly inside.
    pub fn self_s(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        self.total_ns[i].saturating_sub(self.child_ns[i]) as f64 / 1e9
    }

    /// Mean self time per call, in nanoseconds (0 for an unused layer).
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        ratio(self.self_s(layer) * 1e9, self.calls(layer) as f64)
    }

    /// The self times of every layer, summed: the time all spans cover.
    pub fn self_sum_s(&self) -> f64 {
        (0..LAYERS)
            .map(|i| self.total_ns[i].saturating_sub(self.child_ns[i]) as f64 / 1e9)
            .sum()
    }
}

/// `num / den`, or 0 when the denominator is 0 (the layer did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
