//! Properties of the wire codec: the encode/decode pair is a
//! bijection between (fitted) envelopes and their canonical byte
//! frames, for arbitrary message contents — empty digests, max-degree
//! routes, multi-pattern events, the lot — and `decode` meets hostile
//! bytes with an error, never a panic, and never allocates more than a
//! constant multiple of its input.
//!
//! This binary installs a counting global allocator, so the allocation
//! bound is measured rather than inferred.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use eps_gossip::{codec, CodecError, Envelope, GossipMessage};
use eps_overlay::NodeId;
use eps_pubsub::summary::LEAF_LEVEL;
use eps_pubsub::{
    Event, EventId, LossRecord, PatternId, PubSubMessage, RangeDetail, RangeRef, RangeSummary,
};
use eps_sim::check::{check, vec_of, CASES};
use eps_sim::Rng;

/// Counts the bytes each thread requests while its tracking flag is
/// set; every call is forwarded to the system allocator unchanged.
struct Counting;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator may run while a thread's locals are
    // being torn down; those allocations are never tracked.
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the bytes it requested from
/// the allocator on this thread.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|n| n.set(0));
    TRACKING.with(|on| on.set(true));
    let out = f();
    TRACKING.with(|on| on.set(false));
    (out, REQUESTED.with(Cell::get))
}

/// The most `decode` may request per input byte, plus a fixed slack:
/// the largest decoded item per byte of wire is an event in a reply
/// (a 32-byte `Event` plus two shared allocations from ~9 bytes).
fn allocation_bound(len: usize) -> usize {
    64 * len + 1024
}

/// The widest overlay degree the scenarios use; route vectors are
/// generated up to this length (plus empty).
const MAX_DEGREE: usize = 16;

/// Byte-aligned payload sizes (the codec rejects anything else).
fn payload_bits(rng: &mut Rng) -> u64 {
    rng.random_range(64u64..512) * 8
}

fn event_id(rng: &mut Rng) -> EventId {
    EventId::new(
        NodeId::new(rng.random_range(0u32..64)),
        rng.random_range(0u64..100_000),
    )
}

fn loss_record(rng: &mut Rng) -> LossRecord {
    LossRecord {
        source: NodeId::new(rng.random_range(0u32..64)),
        pattern: PatternId::new(rng.random_range(0u16..70)),
        seq: rng.random_range(0u64..100_000),
    }
}

fn route(rng: &mut Rng) -> Vec<NodeId> {
    vec_of(rng, 0..MAX_DEGREE + 1, |r| {
        NodeId::new(r.random_range(0u32..64))
    })
}

fn event(rng: &mut Rng) -> Event {
    let id = event_id(rng);
    // Events carry their patterns sorted and distinct.
    let mut pattern_seqs = vec_of(rng, 1..4, |r| {
        (
            PatternId::new(r.random_range(0u16..70)),
            r.random_range(0u64..100_000),
        )
    });
    pattern_seqs.sort_unstable_by_key(|&(p, _)| p);
    pattern_seqs.dedup_by_key(|&mut (p, _)| p);
    let mut event = Event::new(id, pattern_seqs);
    for hop in route(rng) {
        event.record_hop(hop);
    }
    event
}

fn range_ref(rng: &mut Rng) -> RangeRef {
    let level = rng.random_below(u64::from(LEAF_LEVEL) + 1) as u8;
    RangeRef::new(level, rng.random_below(1 << (4 * level)) as u32)
}

fn envelope(rng: &mut Rng) -> Envelope {
    let gossiper = NodeId::new(rng.random_range(0u32..64));
    let pattern = PatternId::new(rng.random_range(0u16..70));
    match rng.random_below(12) {
        0 => Envelope::PubSub(PubSubMessage::Subscribe(pattern)),
        1 => Envelope::PubSub(PubSubMessage::Unsubscribe(pattern)),
        2 => Envelope::PubSub(PubSubMessage::Event(event(rng))),
        3 => Envelope::CrossEvent(event(rng)),
        // Digest sizes start at zero on purpose: empty digests must
        // frame and round-trip like any other body.
        4 => Envelope::Gossip(GossipMessage::PushDigest {
            gossiper,
            pattern,
            ids: Arc::new(vec_of(rng, 0..40, event_id)),
        }),
        5 => Envelope::Gossip(GossipMessage::PullDigest {
            gossiper,
            pattern,
            lost: vec_of(rng, 0..40, loss_record),
        }),
        6 => Envelope::Gossip(GossipMessage::SourcePull {
            gossiper,
            source: NodeId::new(rng.random_range(0u32..64)),
            lost: vec_of(rng, 0..40, loss_record),
            route: route(rng),
        }),
        7 => Envelope::Gossip(GossipMessage::RandomPull {
            gossiper,
            lost: vec_of(rng, 0..40, loss_record),
            ttl: rng.random_range(0u32..8),
        }),
        8 => Envelope::Request(vec_of(rng, 0..40, event_id)),
        9 => Envelope::Reply(vec_of(rng, 0..3, event)),
        10 => Envelope::Gossip(GossipMessage::SummaryDigest {
            gossiper,
            pattern,
            ranges: Arc::new(vec_of(rng, 0..20, |r| RangeSummary {
                range: range_ref(r),
                count: r.next_u64(),
                hash: r.next_u64(),
            })),
            details: Arc::new(vec_of(rng, 0..6, |r| RangeDetail {
                range: range_ref(r),
                ids: vec_of(r, 0..12, event_id),
            })),
        }),
        _ => Envelope::RangeRequest {
            pattern,
            ranges: vec_of(rng, 0..40, range_ref),
        },
    }
}

/// The digests [`codec::fit`] may trim.
fn is_trimmable(env: &Envelope) -> bool {
    matches!(
        env,
        Envelope::Gossip(
            GossipMessage::PushDigest { .. }
                | GossipMessage::PullDigest { .. }
                | GossipMessage::SourcePull { .. }
                | GossipMessage::RandomPull { .. }
        )
    )
}

/// A fitted envelope and its frame, or `None` for an oversized
/// non-digest body (fit cannot shrink an event or a reply).
fn framed(rng: &mut Rng, payload_bits: u64) -> Option<Vec<u8>> {
    let (fitted, _) = codec::fit(envelope(rng), payload_bits);
    codec::encode(&fitted, payload_bits).ok()
}

/// decode ∘ encode is the identity on every fitted envelope, and the
/// framed size is exactly the simulator's `wire_bits`.
#[test]
fn decode_inverts_encode() {
    check("decode_inverts_encode", CASES, |rng| {
        let env = envelope(rng);
        let payload_bits = payload_bits(rng);
        let (fitted, dropped) = codec::fit(env.clone(), payload_bits);
        if dropped > 0 {
            assert!(is_trimmable(&env), "only digests are trimmed");
        }
        match codec::encode(&fitted, payload_bits) {
            Ok(bytes) => {
                assert_eq!(
                    bytes.len() as u64 * 8,
                    fitted.wire_bits(payload_bits),
                    "framed size equals wire_bits"
                );
                let back = codec::decode(&bytes, payload_bits).expect("valid frame decodes");
                assert_eq!(back, fitted);
            }
            // Only non-digest bodies may stay oversized after fitting.
            Err(CodecError::Overflow { .. }) => assert!(!is_trimmable(&fitted) || dropped > 0),
            Err(other) => panic!("unexpected encode error: {other:?}"),
        }
    });
}

/// encode ∘ decode is the identity on every canonical frame: the codec
/// admits exactly one byte representation per envelope.
#[test]
fn encode_inverts_decode() {
    check("encode_inverts_decode", CASES, |rng| {
        let payload_bits = payload_bits(rng);
        let Some(bytes) = framed(rng, payload_bits) else {
            return;
        };
        let back = codec::decode(&bytes, payload_bits).expect("valid frame decodes");
        let reencoded = codec::encode(&back, payload_bits).expect("decoded envelope re-encodes");
        assert_eq!(reencoded, bytes);
    });
}

/// Truncated frames never decode successfully — and never panic.
#[test]
fn truncated_frames_are_rejected() {
    check("truncated_frames_are_rejected", CASES, |rng| {
        let payload_bits = payload_bits(rng);
        let Some(bytes) = framed(rng, payload_bits) else {
            return;
        };
        if bytes.len() > 1 {
            let truncated = &bytes[..bytes.len() - 1];
            assert!(codec::decode(truncated, payload_bits).is_err());
        }
    });
}

/// Appends `v` as a LEB128 varint, the codec's count encoding.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes a hostile or broken peer might send: pure noise, a valid
/// frame with bits flipped, a valid frame cut short, or a valid frame
/// with an oversized count spliced in at a random offset.
fn hostile_buffer(rng: &mut Rng, payload_bits: u64) -> Vec<u8> {
    let kind = rng.random_below(4);
    if kind == 0 {
        let mut noise = vec_of(rng, 0..600, |r| r.next_u64() as u8);
        // Mostly past the version byte, so the body parser is reached.
        if !noise.is_empty() && rng.random_bool(0.9) {
            noise[0] = codec::WIRE_VERSION;
        }
        return noise;
    }
    let mut bytes = loop {
        if let Some(bytes) = framed(rng, payload_bits) {
            break bytes;
        }
    };
    match kind {
        1 => {
            for _ in 0..1 + rng.random_below(8) {
                let bit = rng.random_below(bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        2 => bytes.truncate(rng.random_below(bytes.len() as u64) as usize),
        _ => {
            let at = rng.random_range(2..bytes.len());
            let mut count = Vec::new();
            // Log-uniform, so counts under `MAX_LIST` that still dwarf
            // the frame are as common as the ones past it.
            put_varint(&mut count, rng.next_u64() >> rng.random_below(57));
            let end = (at + count.len()).min(bytes.len());
            bytes.splice(at..end, count);
            if rng.random_bool(0.5) {
                bytes.truncate(at + 1 + rng.random_below(16) as usize);
            }
        }
    }
    bytes
}

/// Hostile bytes are rejected with an error, never a panic, at an
/// allocation cost proportional to their length; whatever `decode`
/// does accept is a canonical frame. Cases are cheap and defects in
/// them sparse, so this property runs sixteen times the default count.
#[test]
fn hostile_bytes_are_rejected_cheaply() {
    check("hostile_bytes_are_rejected_cheaply", 16 * CASES, |rng| {
        let payload_bits = payload_bits(rng);
        let bytes = hostile_buffer(rng, payload_bits);
        let (decoded, requested) = requested_by(|| codec::decode(&bytes, payload_bits));
        assert!(
            requested <= allocation_bound(bytes.len()),
            "decoding {} bytes requested {requested} bytes",
            bytes.len()
        );
        if let Ok(env) = decoded {
            let reencoded = codec::encode(&env, payload_bits).expect("accepted frames re-encode");
            assert_eq!(reencoded, bytes, "decode accepted a non-canonical frame");
        }
    });
}

/// A frame that claims a huge list and then ends must cost what its
/// bytes cost, not what its count claims: each of these once made
/// `decode` pre-size a multi-megabyte vector before reading an item.
#[test]
fn claimed_list_lengths_do_not_drive_allocation() {
    let max_list = [0x80, 0x80, 0x40]; // varint 2^20
    let frames: [&[&[u8]]; 4] = [
        &[&[1, 8], &max_list],        // Request
        &[&[1, 9], &max_list],        // Reply
        &[&[1, 11, 0, 0], &max_list], // SummaryDigest
        &[&[1, 12, 0], &max_list],    // RangeRequest
    ];
    for parts in frames {
        let frame = parts.concat();
        let (decoded, requested) = requested_by(|| codec::decode(&frame, 1024));
        assert_eq!(decoded, Err(CodecError::Truncated), "{frame:?}");
        assert!(
            requested <= allocation_bound(frame.len()),
            "decoding {frame:?} requested {requested} bytes"
        );
    }
}

/// A varint has one accepted encoding: a zero continuation byte (a
/// bit flip turned `0x69` into `0xe9 0x00` in the hostile-bytes
/// property) or bits past the 64th would otherwise decode to the same
/// envelope as the canonical frame.
#[test]
fn non_minimal_varints_are_rejected() {
    let mut subscribe = codec::encode(
        &Envelope::PubSub(PubSubMessage::Subscribe(PatternId::new(0x69))),
        1024,
    )
    .expect("subscribe encodes");
    assert_eq!(subscribe[2], 0x69);
    subscribe[2] = 0xe9;
    assert_eq!(subscribe[3], 0x00);
    assert_eq!(
        codec::decode(&subscribe, 1024),
        Err(CodecError::Malformed("varint is not minimal"))
    );

    // A Request count of 2^64 + 1: ten bytes whose last carries bit 64.
    let mut request = vec![1, 8];
    request.extend([0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
    request.resize(32, 0);
    assert_eq!(
        codec::decode(&request, 1024),
        Err(CodecError::Malformed("varint exceeds 64 bits"))
    );
}
