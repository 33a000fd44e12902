//! The wire channel, a [`Channel`] of `eba-core`'s one loop over a run's
//! rounds: each sender's broadcast is encoded once into the round's one
//! buffer and each recipient gets a [`Frame`] mark; the failure pattern
//! drops marks ([`apply_pattern`]); a sender's bytes are decoded once if
//! any of its marks survive, and every receiver still marked hears that
//! one message. It counts a sender's bytes once per mark, as the bytes a
//! network would carry.

use std::ops::Range;

use eba_core::exchange::Channel;
use eba_core::failures::FailurePattern;
use eba_core::types::{AgentId, AgentSet};

use crate::codec::WireCodec;

/// A mark in [`RoundFrames`]: its sender's broadcast reaches its
/// recipient. It holds no bytes, and only this crate makes one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame(pub(crate) ());

/// One round's frames, indexed `[from][to]` (`None` = no message). A
/// carrier may only drop marks: a mark on the row of a sender that sent
/// nothing panics when the round is delivered.
pub type RoundFrames = Vec<Vec<Option<Frame>>>;

/// Per-round message counters, shared by the loopback driver
/// ([`ClusterSummary`](crate::ClusterSummary)) and the multiplexed
/// service (`ServiceReport` in `eba-service`), so both report comparable
/// observability data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTraffic {
    /// Frames the agents sent in this round (dropped frames included —
    /// the sender did the work).
    pub sent: u64,
    /// Frames actually delivered in this round.
    pub delivered: u64,
}

impl RoundTraffic {
    /// Frames the failure pattern suppressed in this round.
    pub fn dropped(&self) -> u64 {
        self.sent - self.delivered
    }

    /// Accumulates another counter into this one (used when folding
    /// per-session traffic into a service-wide total).
    pub fn absorb(&mut self, other: &RoundTraffic) {
        self.sent += other.sent;
        self.delivered += other.delivered;
    }
}

/// Applies a round's drop rows (`dropped(from)`, a failure pattern's
/// for that round) to its frames, row by row (`[from][to]`), in place —
/// the one place omissions are injected into the wire: a dropped mark
/// becomes `None`, where a lossy network would lose it.
pub fn apply_pattern<R: AsMut<[Option<Frame>]>>(
    rows: impl IntoIterator<Item = R>,
    dropped: impl Fn(AgentId) -> AgentSet,
) -> RoundTraffic {
    let mut traffic = RoundTraffic::default();
    for (from, mut row) in rows.into_iter().enumerate() {
        let dropped = dropped(AgentId::new(from));
        let marked = row.as_mut().iter_mut().enumerate();
        for (to, frame) in marked.filter(|(_, f)| f.is_some()) {
            traffic.sent += 1;
            if dropped.contains(AgentId::new(to)) {
                *frame = None;
            } else {
                traffic.delivered += 1;
            }
        }
    }
    traffic
}

/// Where the wire channel reads a round's drop rows: a failure pattern,
/// or a carrier's marks, every unmarked recipient dropped.
pub(crate) trait Drops {
    fn dropped(&self, round: u32, from: AgentId) -> AgentSet;
}

impl Drops for &FailurePattern {
    fn dropped(&self, round: u32, from: AgentId) -> AgentSet {
        FailurePattern::dropped(self, round, from)
    }
}

impl Drops for RoundFrames {
    fn dropped(&self, _: u32, from: AgentId) -> AgentSet {
        let row = self[from.index()].iter().enumerate();
        row.filter(|(_, f)| f.is_none())
            .map(|(to, _)| AgentId::new(to))
            .collect()
    }
}

/// The wire channel over codec `C`, its omissions read from `drops`, and
/// the bytes (sent, delivered) and per-round frames it carried. Refilled
/// every round: the broadcasts back to back, each sender's span of them
/// and last decode, and the marks, one flat row (`from * n + to`).
pub(crate) struct WireChannel<C, M, D> {
    pub(crate) codec: C,
    pub(crate) drops: D,
    pub(crate) bytes: (u64, u64),
    pub(crate) traffic: Vec<RoundTraffic>,
    wire: Vec<u8>,
    senders: Vec<(Option<Range<usize>>, Option<M>)>,
    marks: Vec<Option<Frame>>,
}

impl<C: WireCodec<M>, M, D: Drops> WireChannel<C, M, D> {
    pub(crate) fn new(codec: C, drops: D) -> Self {
        WireChannel {
            codec,
            drops,
            bytes: (0, 0),
            traffic: Vec::new(),
            wire: Vec::new(),
            senders: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// The bytes of `from`'s broadcast in the last round, `None` if it
    /// sent nothing.
    pub(crate) fn frame(&self, from: usize) -> Option<&[u8]> {
        Some(&self.wire[self.senders.get(from)?.0.clone()?])
    }

    /// The bytes the marks carry: a sender's once per mark in its row.
    fn bytes(&self) -> u64 {
        let rows = self.marks.chunks(self.senders.len()).enumerate();
        let len = |from| self.frame(from).map_or(0, <[u8]>::len);
        let sent = rows.map(|(from, row)| len(from) * row.iter().flatten().count());
        sent.sum::<usize>() as u64
    }
}

impl<C: WireCodec<M>, M, D: Drops> Channel<M> for WireChannel<C, M, D> {
    fn carry(&mut self, round: u32, sent: &[Option<M>]) {
        // `μ` is a broadcast: each message encoded once, and a mark for
        // every recipient of a sender that sent.
        let n = sent.len();
        self.wire.clear();
        self.marks.clear();
        self.marks.reserve_exact(n * n);
        self.senders.resize_with(n, || (None, None));
        for ((span, _), msg) in self.senders.iter_mut().zip(sent) {
            *span = msg.as_ref().map(|msg| {
                let start = self.wire.len();
                self.codec.encode_into(msg, &mut self.wire);
                start..self.wire.len()
            });
            let mark = span.as_ref().map(|_| Frame(()));
            self.marks.extend(std::iter::repeat_n(mark, n));
        }
        self.bytes.0 += self.bytes();
        let dropped = |from| self.drops.dropped(round, from);
        self.traffic
            .push(apply_pattern(self.marks.chunks_mut(n), dropped));
        self.bytes.1 += self.bytes();
        // One decode per sender with a surviving mark.
        let rows = self.marks.chunks(n);
        for ((span, decoded), row) in self.senders.iter_mut().zip(rows) {
            if let (Some(span), true) = (span, row.iter().any(Option::is_some)) {
                let bytes = &self.wire[span.clone()];
                match decoded {
                    Some(msg) => self.codec.decode_into(bytes, msg),
                    slot => *slot = Some(self.codec.decode(bytes)),
                }
            }
        }
    }

    fn hear<'a>(&'a self, _: &'a [Option<M>], to: AgentId, heard: &mut [Option<&'a M>]) {
        let n = self.senders.len();
        for (from, (slot, (_, msg))) in heard.iter_mut().zip(&self.senders).enumerate() {
            *slot = self.marks[from * n + to.index()].and(msg.as_ref());
        }
    }
}
