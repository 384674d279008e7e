//! Length-prefixed framing for the tree links (TCP).
//!
//! A frame is a 4-byte little-endian body length followed by the body
//! — one encoded [`eps_gossip::Envelope`]. The prefix is transport
//! plumbing, not protocol: it is *excluded* from the byte accounting,
//! exactly as the simulator's `wire_bits` excludes transport headers.
//! The body length therefore always equals `wire_bits / 8` for the
//! framed envelope, which is what the sim-vs-wire cross-validation
//! leans on.

/// Upper bound on one frame body, in bytes. Replies carry full event
/// copies and can be large, but anything beyond this is corruption
/// (or an attack), not protocol traffic — the reader fails fast
/// instead of allocating unboundedly.
pub const MAX_FRAME: usize = 16 << 20;

/// The one unrecoverable framing failure: a length prefix beyond
/// [`MAX_FRAME`]. Anything else is just "wait for more bytes".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The length the corrupt prefix claimed.
    pub claimed: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame length prefix {} exceeds MAX_FRAME {}",
            self.claimed, MAX_FRAME
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Prepends the 4-byte length prefix to an encoded body.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_FRAME`] — the codec's size
/// discipline makes that unreachable for protocol traffic.
pub fn frame(body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Incremental frame reassembly over a nonblocking byte stream. Feed
/// it whatever `read` returned; take complete bodies out as they
/// become available.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so a burst of small
    /// frames does not memmove per frame.
    pos: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, if one has fully arrived.
    ///
    /// Returns [`FrameTooLarge`] when the stream is unrecoverably
    /// corrupt (a length prefix beyond [`MAX_FRAME`]); the connection
    /// should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameTooLarge> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4-byte slice"),
        ) as usize;
        if len > MAX_FRAME {
            return Err(FrameTooLarge { claimed: len });
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_sim::check::{check, vec_of, CASES};
    use eps_sim::Rng;

    /// Feeds `stream` to a reader in chunks of `chunk(bytes left)` bytes
    /// and takes frames out after each. Returns the frames, then either
    /// the bytes left pending at the end or the first error.
    fn read_chunks(
        stream: &[u8],
        mut chunk: impl FnMut(usize) -> usize,
    ) -> (Vec<Vec<u8>>, Result<usize, FrameTooLarge>) {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let (now, later) = rest.split_at(chunk(rest.len()));
            reader.extend(now);
            rest = later;
            loop {
                match reader.next_frame() {
                    Ok(Some(body)) => frames.push(body),
                    Ok(None) => break,
                    Err(e) => return (frames, Err(e)),
                }
            }
        }
        (frames, Ok(reader.pending()))
    }

    /// Chunks of 1 to 64 bytes: single bytes are the worst
    /// fragmentation a socket can produce.
    fn random_split(stream: &[u8], rng: &mut Rng) -> (Vec<Vec<u8>>, Result<usize, FrameTooLarge>) {
        read_chunks(stream, |left| {
            1 + rng.random_below(left.min(64) as u64) as usize
        })
    }

    /// A stream of framed random bodies, with an oversized length
    /// prefix at a random frame boundary in half the cases, comes out
    /// as exactly those bodies followed by exactly that error, however
    /// the stream is split.
    #[test]
    fn frames_and_oversized_prefixes_survive_any_split() {
        check(
            "frames_and_oversized_prefixes_survive_any_split",
            CASES,
            |rng| {
                let bodies = vec_of(rng, 0..12, |r| vec_of(r, 0..300, |r| r.next_u64() as u8));
                let cut = rng.random_below(bodies.len() as u64 + 1) as usize;
                let bad = rng.random_bool(0.5).then(|| {
                    if rng.random_bool(0.25) {
                        MAX_FRAME + 1
                    } else {
                        rng.random_range(MAX_FRAME as u64 + 1..u64::from(u32::MAX) + 1) as usize
                    }
                });
                let kept = if bad.is_some() { cut } else { bodies.len() };
                let mut wire: Vec<u8> = bodies[..kept].iter().flat_map(|b| frame(b)).collect();
                if let Some(claimed) = bad {
                    wire.extend_from_slice(&(claimed as u32).to_le_bytes());
                    // Whatever follows the corrupt prefix is never read.
                    wire.extend(vec_of(rng, 0..64, |r| r.next_u64() as u8));
                }
                let (frames, end) = random_split(&wire, rng);
                assert_eq!(frames, bodies[..kept]);
                assert_eq!(
                    end,
                    bad.map_or(Ok(0), |claimed| Err(FrameTooLarge { claimed }))
                );
            },
        );
    }

    /// Noise reads the same however it is split: the same frames, then
    /// the same error or the same pending tail.
    #[test]
    fn noise_reads_the_same_under_any_split() {
        check("noise_reads_the_same_under_any_split", CASES, |rng| {
            let noise = vec_of(rng, 0..2_000, |r| {
                // Small length-prefix bytes, so some noise frames complete.
                if r.random_bool(0.5) {
                    r.random_below(4) as u8
                } else {
                    r.next_u64() as u8
                }
            });
            let whole = read_chunks(&noise, |left| left);
            assert_eq!(random_split(&noise, rng), whole);
        });
    }

    #[test]
    fn a_prefix_of_exactly_max_frame_is_accepted() {
        let mut reader = FrameReader::new();
        reader.extend(&(MAX_FRAME as u32).to_le_bytes());
        assert_eq!(reader.next_frame(), Ok(None), "waits for the body");
    }

    #[test]
    fn pending_counts_unconsumed_bytes() {
        let mut reader = FrameReader::new();
        reader.extend(&frame(&[7; 10])[..8]);
        assert!(reader.next_frame().expect("clean").is_none());
        assert_eq!(reader.pending(), 8);
    }
}
