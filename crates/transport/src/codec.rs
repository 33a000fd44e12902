//! Wire codecs: fixed-layout byte encodings for each exchange's messages.
//!
//! Codecs are hand-rolled (no serializer dependency) so that the measured
//! wire sizes track the paper's logical-bit accounting tightly:
//!
//! * `E_min` — 1 byte per message (1 logical bit);
//! * `E_basic` / `E_naive` — 1–2 bytes (2 logical bits);
//! * `E_fip` — a 6-byte header plus 2 bits per label, packed 4 per byte
//!   (`O(n² t)` bits per message, matching the communication-graph bound).

use eba_core::exchange::{BasicMsg, FipMsg, MinMsg, NaiveMsg};
use eba_core::graph::{CommGraph, EdgeLabel, PrefLabel};
use eba_core::types::Value;

/// Encodes and decodes one exchange's messages to/from bytes.
///
/// Codecs must be loss-free: `decode(encode(m)) == m` for every message
/// the exchange can produce.
pub trait WireCodec<M> {
    /// Encodes a message into a frame.
    fn encode(&self, msg: &M) -> Vec<u8>;

    /// Decodes a frame produced by [`WireCodec::encode`].
    ///
    /// # Panics
    ///
    /// May panic on malformed frames; the transport only feeds back frames
    /// it produced.
    fn decode(&self, bytes: &[u8]) -> M;
}

/// Codec for `E_min`: one byte carrying the decided bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinCodec;

impl WireCodec<MinMsg> for MinCodec {
    fn encode(&self, msg: &MinMsg) -> Vec<u8> {
        vec![msg.0.as_bit()]
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
    fn encode(&self, msg: &BasicMsg) -> Vec<u8> {
        match msg {
            BasicMsg::Decide(v) => vec![0, v.as_bit()],
            BasicMsg::Init1 => vec![1],
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
    fn encode(&self, msg: &NaiveMsg) -> Vec<u8> {
        match msg {
            NaiveMsg::Decide(v) => vec![0, v.as_bit()],
            NaiveMsg::ZeroExists => vec![1],
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

/// Codec for `E_fip`: communication graphs with 2-bit labels packed four
/// to a byte, after a 6-byte header (`n: u16 LE`, `time: u32 LE`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FipCodec;

const LABEL_UNKNOWN: u8 = 0;
const LABEL_DELIVERED: u8 = 1;
const LABEL_DROPPED: u8 = 2;
const PREF_UNKNOWN: u8 = 0;
const PREF_ZERO: u8 = 1;
const PREF_ONE: u8 = 2;

fn edge_to_bits(l: EdgeLabel) -> u8 {
    match l {
        EdgeLabel::Unknown => LABEL_UNKNOWN,
        EdgeLabel::Delivered => LABEL_DELIVERED,
        EdgeLabel::Dropped => LABEL_DROPPED,
    }
}

fn edge_from_bits(b: u8) -> EdgeLabel {
    match b {
        LABEL_UNKNOWN => EdgeLabel::Unknown,
        LABEL_DELIVERED => EdgeLabel::Delivered,
        LABEL_DROPPED => EdgeLabel::Dropped,
        other => panic!("invalid edge label bits {other}"),
    }
}

fn pref_to_bits(p: PrefLabel) -> u8 {
    match p {
        PrefLabel::Unknown => PREF_UNKNOWN,
        PrefLabel::Known(Value::Zero) => PREF_ZERO,
        PrefLabel::Known(Value::One) => PREF_ONE,
    }
}

fn pref_from_bits(b: u8) -> PrefLabel {
    match b {
        PREF_UNKNOWN => PrefLabel::Unknown,
        PREF_ZERO => PrefLabel::Known(Value::Zero),
        PREF_ONE => PrefLabel::Known(Value::One),
        other => panic!("invalid preference label bits {other}"),
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

impl WireCodec<FipMsg> for FipCodec {
    fn encode(&self, msg: &FipMsg) -> Vec<u8> {
        let g = &msg.0;
        let n = g.n();
        let mut out = Vec::with_capacity(8 + (n + g.edge_labels().len()) / 4 + 2);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        out.extend_from_slice(&g.time().to_le_bytes());
        pack2(g.pref_labels().iter().map(|p| pref_to_bits(*p)), &mut out);
        pack2(g.edge_labels().iter().map(|e| edge_to_bits(*e)), &mut out);
        out
    }

    fn decode(&self, bytes: &[u8]) -> FipMsg {
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let time = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        let pref_bytes = n.div_ceil(4);
        let prefs: Vec<PrefLabel> = unpack2(&bytes[6..6 + pref_bytes], n)
            .map(pref_from_bits)
            .collect();
        let edge_count = time as usize * n * n;
        let edges: Vec<EdgeLabel> = unpack2(&bytes[6 + pref_bytes..], edge_count)
            .map(edge_from_bits)
            .collect();
        FipMsg(CommGraph::from_parts(n, time, prefs, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::exchange::InformationExchange;
    use eba_core::prelude::*;

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
        let mut states: Vec<FipState> = (0..4)
            .map(|i| {
                ex.initial_state(
                    AgentId::new(i),
                    if i == 0 { Value::Zero } else { Value::One },
                )
            })
            .collect();
        for round in 0..3u32 {
            let outgoing: Vec<Vec<Option<FipMsg>>> = (0..4)
                .map(|i| ex.outgoing(AgentId::new(i), &states[i], Action::Noop))
                .collect();
            states = (0..4)
                .map(|j| {
                    let received: Vec<Option<FipMsg>> = (0..4)
                        .map(|i| {
                            // a0 and a1 drop to some receivers depending on
                            // the round, for label variety.
                            if i < 2 && (j + i + round as usize).is_multiple_of(3) {
                                None
                            } else {
                                outgoing[i][j].clone()
                            }
                        })
                        .collect();
                    ex.update(AgentId::new(j), &states[j], Action::Noop, &received)
                })
                .collect();
            for s in &states {
                let msg = FipMsg(s.graph.clone());
                let rt = FipCodec.decode(&FipCodec.encode(&msg));
                assert_eq!(rt, msg, "graph roundtrip at time {}", s.time);
            }
        }
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
