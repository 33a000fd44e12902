//! Wire codecs: fixed-layout byte encodings for each exchange's messages.
//!
//! Codecs are hand-rolled (no serializer dependency) so that the measured
//! wire sizes track the paper's logical-bit accounting tightly:
//!
//! * `E_min` — 1 byte per message (1 logical bit);
//! * `E_basic` / `E_naive` — 1–2 bytes (2 logical bits);
//! * `E_fip` — a 6-byte header plus 2 bits per label, packed 4 per byte
//!   (`O(n² t)` bits per message, matching the communication-graph bound);
//!   the graph keeps its labels in that layout, so a frame is a copy.

use eba_core::exchange::{BasicMsg, FipMsg, MinMsg, NaiveMsg};
use eba_core::graph::CommGraph;
use eba_core::types::Value;

/// Encodes and decodes one exchange's messages to/from bytes.
///
/// Codecs must be loss-free: `decode(encode(m)) == m` for every message
/// the exchange can produce. The round engine encodes into a buffer and
/// decodes into message slots it reuses (the `_into` methods).
pub trait WireCodec<M> {
    /// Appends a message's frame to `out`.
    fn encode_into(&self, msg: &M, out: &mut Vec<u8>);

    /// Decodes a frame produced by [`WireCodec::encode_into`].
    ///
    /// # Panics
    ///
    /// May panic on malformed frames. The round engine decodes only the
    /// bytes it encoded: a carrier moves marks, never bytes.
    fn decode(&self, bytes: &[u8]) -> M;

    /// Encodes a message into a fresh frame.
    fn encode(&self, msg: &M) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(msg, &mut out);
        out
    }

    /// [`WireCodec::decode`] into `msg`, which may hold any earlier
    /// message: a codec whose messages own memory writes into it.
    fn decode_into(&self, bytes: &[u8], msg: &mut M) {
        *msg = self.decode(bytes);
    }
}

/// Codec for `E_min`: one byte carrying the decided bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinCodec;

impl WireCodec<MinMsg> for MinCodec {
    fn encode_into(&self, msg: &MinMsg, out: &mut Vec<u8>) {
        out.push(msg.0.as_bit());
    }

    fn decode(&self, bytes: &[u8]) -> MinMsg {
        assert_eq!(bytes.len(), 1, "E_min frames are exactly one byte");
        MinMsg(Value::from_bit(bytes[0]))
    }
}

/// Codec for `E_basic`: tag byte + optional value byte.
#[derive(Clone, Copy, Debug, Default)]
pub struct BasicCodec;

impl WireCodec<BasicMsg> for BasicCodec {
    fn encode_into(&self, msg: &BasicMsg, out: &mut Vec<u8>) {
        match msg {
            BasicMsg::Decide(v) => out.extend_from_slice(&[0, v.as_bit()]),
            BasicMsg::Init1 => out.push(1),
        }
    }

    fn decode(&self, bytes: &[u8]) -> BasicMsg {
        match bytes {
            [0, bit] => BasicMsg::Decide(Value::from_bit(*bit)),
            [1] => BasicMsg::Init1,
            other => panic!("malformed E_basic frame: {other:?}"),
        }
    }
}

/// Codec for `E_naive`: tag byte + optional value byte.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveCodec;

impl WireCodec<NaiveMsg> for NaiveCodec {
    fn encode_into(&self, msg: &NaiveMsg, out: &mut Vec<u8>) {
        match msg {
            NaiveMsg::Decide(v) => out.extend_from_slice(&[0, v.as_bit()]),
            NaiveMsg::ZeroExists => out.push(1),
        }
    }

    fn decode(&self, bytes: &[u8]) -> NaiveMsg {
        match bytes {
            [0, bit] => NaiveMsg::Decide(Value::from_bit(*bit)),
            [1] => NaiveMsg::ZeroExists,
            other => panic!("malformed E_naive frame: {other:?}"),
        }
    }
}

/// Codec for `E_fip`: a 6-byte header (`n: u16 LE`, `time: u32 LE`), then
/// the little-endian image of the graph's preference words and of its
/// edge words ([`CommGraph::pref_words`], [`CommGraph::edge_words`]), each
/// cut to whole label bytes — 2-bit labels, four to a byte.
#[derive(Clone, Copy, Debug, Default)]
pub struct FipCodec;

/// A frame's `(n, time)` and its label words, each section's last word
/// zero-padded; trailing bytes are ignored.
fn frame_words(bytes: &[u8]) -> (usize, u32, impl Iterator<Item = u64> + '_) {
    let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    let time = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
    let (prefs, edges) = bytes[6..].split_at(n.div_ceil(4));
    let edges = &edges[..(time as usize * n * n).div_ceil(4)];
    let words = prefs.chunks(8).chain(edges.chunks(8)).map(|chunk| {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    });
    (n, time, words)
}

impl WireCodec<FipMsg> for FipCodec {
    fn encode_into(&self, msg: &FipMsg, out: &mut Vec<u8>) {
        let g = &msg.0;
        let (n, edges) = (g.n(), g.time() as usize * g.n() * g.n());
        out.reserve(6 + 8 * (g.pref_words().len() + g.edge_words().len()));
        out.extend_from_slice(&(n as u16).to_le_bytes());
        out.extend_from_slice(&g.time().to_le_bytes());
        for (words, labels) in [(g.pref_words(), n), (g.edge_words(), edges)] {
            let end = out.len() + labels.div_ceil(4);
            for word in words {
                out.extend_from_slice(&word.to_le_bytes());
            }
            out.truncate(end);
        }
    }

    fn decode(&self, bytes: &[u8]) -> FipMsg {
        let (n, time, words) = frame_words(bytes);
        FipMsg(CommGraph::from_words(n, time, words))
    }

    fn decode_into(&self, bytes: &[u8], msg: &mut FipMsg) {
        let (n, time, words) = frame_words(bytes);
        msg.0.read_words(n, time, words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::exchange::{initial_states, step_round};
    use eba_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::hash::{BuildHasher, RandomState};

    // The label-at-a-time encoder `FipCodec` was before the graph became
    // its own wire image, with its own symbol tables: the oracle for the
    // frame bytes.

    fn edge_to_bits(l: EdgeLabel) -> u8 {
        match l {
            EdgeLabel::Unknown => 0,
            EdgeLabel::Delivered => 1,
            EdgeLabel::Dropped => 2,
        }
    }

    fn pref_to_bits(p: PrefLabel) -> u8 {
        match p {
            PrefLabel::Unknown => 0,
            PrefLabel::Known(Value::Zero) => 1,
            PrefLabel::Known(Value::One) => 2,
        }
    }

    /// Packs a stream of 2-bit symbols into bytes (low bits first).
    fn pack2(symbols: impl Iterator<Item = u8>, out: &mut Vec<u8>) {
        let mut acc = 0u8;
        let mut filled = 0u8;
        for s in symbols {
            debug_assert!(s < 4);
            acc |= s << (2 * filled);
            filled += 1;
            if filled == 4 {
                out.push(acc);
                acc = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            out.push(acc);
        }
    }

    /// Unpacks `count` 2-bit symbols from bytes.
    fn unpack2(bytes: &[u8], count: usize) -> impl Iterator<Item = u8> + '_ {
        (0..count).map(move |i| (bytes[i / 4] >> (2 * (i % 4))) & 0b11)
    }

    fn encode_label_by_label(g: &CommGraph) -> Vec<u8> {
        let agents = || AgentId::all(g.n());
        let mut out = (g.n() as u16).to_le_bytes().to_vec();
        out.extend_from_slice(&g.time().to_le_bytes());
        pack2(agents().map(|a| pref_to_bits(g.pref(a))), &mut out);
        let edges = (1..=g.time()).flat_map(|round| {
            agents().flat_map(move |from| agents().map(move |to| g.edge(round, from, to)))
        });
        pack2(edges.map(edge_to_bits), &mut out);
        out
    }

    /// Every agent's graph after each of `rounds` full-information rounds
    /// in which any message is lost with probability 0.3.
    fn lossy_graphs(n: usize, rounds: u32, rng: &mut StdRng) -> Vec<CommGraph> {
        let mut graphs: Vec<CommGraph> = (0..n)
            .map(|i| {
                CommGraph::initial(n, AgentId::new(i), Value::from_bit(rng.random_range(0..2)))
            })
            .collect();
        let mut seen = graphs.clone();
        for _ in 0..rounds {
            graphs = (0..n)
                .map(|to| {
                    let received: Vec<Option<&CommGraph>> =
                        (graphs.iter().map(|g| rng.random_bool(0.7).then_some(g))).collect();
                    let mut next = graphs[to].clone();
                    graphs[to].receive_round(AgentId::new(to), &received, &mut next);
                    next
                })
                .collect();
            seen.extend(graphs.iter().cloned());
        }
        seen
    }

    /// `(n, time)` = (3, 1): three preference labels in one byte (one
    /// padding symbol), nine edge labels in three (three padding symbols).
    fn small_frame() -> (FipMsg, Vec<u8>) {
        let graphs = lossy_graphs(3, 1, &mut StdRng::seed_from_u64(5));
        let msg = FipMsg(graphs.last().unwrap().clone());
        let frame = FipCodec.encode(&msg);
        assert_eq!(frame.len(), 6 + 1 + 3);
        (msg, frame)
    }

    #[test]
    fn min_roundtrip() {
        for v in Value::ALL {
            let m = MinMsg(v);
            assert_eq!(MinCodec.decode(&MinCodec.encode(&m)), m);
            assert_eq!(MinCodec.encode(&m).len(), 1);
        }
    }

    #[test]
    fn basic_roundtrip() {
        for m in [
            BasicMsg::Decide(Value::Zero),
            BasicMsg::Decide(Value::One),
            BasicMsg::Init1,
        ] {
            assert_eq!(BasicCodec.decode(&BasicCodec.encode(&m)), m);
        }
        assert_eq!(BasicCodec.encode(&BasicMsg::Init1).len(), 1);
    }

    #[test]
    fn naive_roundtrip() {
        for m in [
            NaiveMsg::Decide(Value::Zero),
            NaiveMsg::Decide(Value::One),
            NaiveMsg::ZeroExists,
        ] {
            assert_eq!(NaiveCodec.decode(&NaiveCodec.encode(&m)), m);
        }
    }

    #[test]
    fn pack2_unpack2_roundtrip() {
        let symbols: Vec<u8> = (0..23).map(|i| (i * 7) % 4).collect();
        let mut packed = Vec::new();
        pack2(symbols.iter().copied(), &mut packed);
        assert_eq!(packed.len(), 6); // ceil(23 / 4)
        let unpacked: Vec<u8> = unpack2(&packed, 23).collect();
        assert_eq!(unpacked, symbols);
    }

    #[test]
    fn fip_roundtrip_through_a_lossy_run() {
        // Build nontrivial graphs by running a few lossy FIP rounds.
        let params = Params::new(4, 2).unwrap();
        let ex = FipExchange::new(params);
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let (mut states, mut outgoing, mut next) = (Vec::new(), Vec::new(), Vec::new());
        initial_states(&ex, &inits, &mut states);
        for round in 0..3usize {
            // a0 and a1 drop to some receivers depending on the round,
            // for label variety.
            let dropped = |from: AgentId| {
                let i = from.index();
                let dropped = (0..4).filter(|j| i < 2 && (j + i + round).is_multiple_of(3));
                dropped.map(AgentId::new).collect()
            };
            step_round(
                &ex,
                &states,
                &[Action::Noop; 4],
                dropped,
                &mut outgoing,
                &mut next,
            );
            std::mem::swap(&mut states, &mut next);
            for s in &states {
                let msg = FipMsg(s.graph.clone());
                let rt = FipCodec.decode(&FipCodec.encode(&msg));
                assert_eq!(rt, msg, "graph roundtrip at time {}", s.time);
            }
        }
    }

    #[test]
    fn fip_frames_are_the_label_at_a_time_frames() {
        // Word-aligned label counts, straddling ones, and n > 32, where
        // the preferences span two words. Each frame is also decoded into
        // message slots and encoded into a buffer that still hold what
        // they held, as the engine's do: a longer graph at another n, the
        // last graph decoded, and a longer frame, emptied.
        let mut rng = StdRng::seed_from_u64(23);
        let stale = FipMsg(
            lossy_graphs(9, 6, &mut StdRng::seed_from_u64(31))
                .pop()
                .unwrap(),
        );
        let (mut running, mut buffer) = (stale.clone(), FipCodec.encode(&stale));
        for n in [1, 3, 4, 5, 8, 9, 33] {
            for g in lossy_graphs(n, 4, &mut rng) {
                let frame = FipCodec.encode(&FipMsg(g.clone()));
                assert_eq!(frame, encode_label_by_label(&g), "n = {n}, {g:?}");
                assert_eq!(FipCodec.decode(&frame).0, g, "n = {n}");
                let mut dirty = stale.clone();
                FipCodec.decode_into(&frame, &mut dirty);
                FipCodec.decode_into(&frame, &mut running);
                assert_eq!((&dirty.0, &running.0), (&g, &g), "n = {n}");
                buffer.clear();
                FipCodec.encode_into(&dirty, &mut buffer);
                assert_eq!(buffer, frame, "n = {n}");
            }
        }
    }

    #[test]
    fn fip_decode_clears_padding_and_ignores_trailing_bytes() {
        // Graphs are compared and interned by their words: a frame that
        // differs from the clean one only where no label lives must
        // decode to the same graph, not to a logically equal twin.
        let (msg, clean) = small_frame();
        let mut junk = clean.clone();
        junk[6] |= 0b11 << 6;
        junk[9] |= 0b10_01_11 << 2;
        junk.extend_from_slice(&[0xff; 11]);
        assert_ne!(junk[..10], clean[..]);
        let decoded = FipCodec.decode(&junk);
        assert_eq!(decoded, msg);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&decoded), hasher.hash_one(&msg));
        assert_eq!(FipCodec.encode(&decoded), clean);
    }

    #[test]
    #[should_panic(expected = "invalid edge label bits")]
    fn fip_decode_rejects_an_invalid_edge_symbol() {
        let (_, mut frame) = small_frame();
        frame[8] |= 0b11 << 4;
        FipCodec.decode(&frame);
    }

    #[test]
    #[should_panic(expected = "invalid preference label bits")]
    fn fip_decode_rejects_an_invalid_preference_symbol() {
        let (_, mut frame) = small_frame();
        frame[6] |= 0b11 << 2;
        FipCodec.decode(&frame);
    }

    #[test]
    #[should_panic]
    fn fip_decode_rejects_a_truncated_frame() {
        let (_, frame) = small_frame();
        FipCodec.decode(&frame[..frame.len() - 1]);
    }

    #[test]
    fn fip_frame_size_matches_bit_accounting() {
        // Frame bytes ≈ header + ceil(logical bits / 8), within padding.
        let params = Params::new(5, 2).unwrap();
        let ex = FipExchange::new(params);
        let s = ex.initial_state(AgentId::new(0), Value::One);
        let msg = FipMsg(s.graph.clone());
        let frame = FipCodec.encode(&msg);
        let logical_bits = ex.message_bits(&msg);
        assert!(frame.len() as u64 >= logical_bits / 8);
        assert!(frame.len() as u64 <= 6 + logical_bits.div_ceil(8) + 2);
    }
}
