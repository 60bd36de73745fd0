//! Codec-exact message classes for the ordering and replicated-service
//! wire messages.
//!
//! A class names the protocol layer a message belongs to: a batch-RBC
//! phase, binary agreement, checkpoint RBC or state transfer. Byte counts
//! are the message's exact `Codec` encoding, the same bytes a frame
//! carries as payload, so simulator and TCP numbers share one definition.

use bft_net::codec::Codec;
use bft_order::OrderMessage;
use bft_rbc::RbcMessage;
use bft_sim::MsgClass;
use bft_smr::SmrMessage;
use std::cell::RefCell;

/// The layer-level class of a wire message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Bracha batch RBC: the proposer's full payload.
    BatchSend,
    /// Bracha batch RBC: echo of the full payload.
    BatchEcho,
    /// Bracha batch RBC: ready carrying the full payload.
    BatchReady,
    /// Coded batch RBC: the proposer's fragment unicast.
    CodedSend,
    /// Coded batch RBC: fragment echo.
    CodedEcho,
    /// Coded batch RBC: ready on the commitment root.
    CodedReady,
    /// Binary agreement deciding one proposer's inclusion.
    Aba,
    /// Checkpoint-hash RBC.
    Ckpt,
    /// State transfer: checkpoint queries and replies, chunk requests
    /// and erasure-coded snapshot chunks.
    Xfer,
}

/// Number of [`Class`] variants (array sizes).
pub const CLASSES: usize = 9;

impl Class {
    /// Every class, in index order.
    pub const ALL: [Class; CLASSES] = [
        Class::BatchSend,
        Class::BatchEcho,
        Class::BatchReady,
        Class::CodedSend,
        Class::CodedEcho,
        Class::CodedReady,
        Class::Aba,
        Class::Ckpt,
        Class::Xfer,
    ];

    /// Array index of the class.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The simulator kind label (`"<layer>/<phase>"`).
    pub fn label(self) -> &'static str {
        match self {
            Class::BatchSend => "batch/send",
            Class::BatchEcho => "batch/echo",
            Class::BatchReady => "batch/ready",
            Class::CodedSend => "batch/coded_send",
            Class::CodedEcho => "batch/coded_echo",
            Class::CodedReady => "batch/coded_ready",
            Class::Aba => "aba",
            Class::Ckpt => "ckpt",
            Class::Xfer => "xfer",
        }
    }

    /// Whether the class belongs to batch dissemination (the `rbc` layer).
    pub fn is_batch(self) -> bool {
        self.index() <= Class::CodedReady.index()
    }
}

/// A message type the benchmark can classify.
pub trait Classed: Codec {
    /// The class of this message.
    fn class(&self) -> Class;

    /// For an agreement message: the instance `(epoch, proposer index)`
    /// and the round it belongs to.
    fn aba_round(&self) -> Option<((u64, u32), u64)>;
}

fn batch_class<P>(msg: &RbcMessage<P>) -> Class {
    match msg {
        RbcMessage::Send(_) => Class::BatchSend,
        RbcMessage::Echo(_) => Class::BatchEcho,
        RbcMessage::Ready(_) => Class::BatchReady,
        RbcMessage::CodedSend { .. } => Class::CodedSend,
        RbcMessage::CodedEcho { .. } => Class::CodedEcho,
        RbcMessage::CodedReady { .. } => Class::CodedReady,
    }
}

impl Classed for OrderMessage {
    fn class(&self) -> Class {
        match self {
            OrderMessage::Batch(m) => batch_class(&m.msg),
            OrderMessage::Aba { .. } => Class::Aba,
        }
    }

    fn aba_round(&self) -> Option<((u64, u32), u64)> {
        match self {
            OrderMessage::Aba { epoch, index, wire } => {
                Some(((*epoch, *index), wire.tag.round.get()))
            }
            OrderMessage::Batch(_) => None,
        }
    }
}

impl Classed for SmrMessage {
    fn class(&self) -> Class {
        match self {
            SmrMessage::Order(m) => m.class(),
            SmrMessage::Ckpt(_) => Class::Ckpt,
            SmrMessage::CkptQuery
            | SmrMessage::CkptInfo { .. }
            | SmrMessage::ChunkReq { .. }
            | SmrMessage::Chunk { .. } => Class::Xfer,
        }
    }

    fn aba_round(&self) -> Option<((u64, u32), u64)> {
        match self {
            SmrMessage::Order(m) => m.aba_round(),
            _ => None,
        }
    }
}

thread_local! {
    static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Exact encoded length, through a reused per-thread buffer so the
/// classifier does not allocate per message.
pub fn encoded_len<M: Codec>(msg: &M) -> usize {
    ENCODE_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        msg.encode(&mut buf);
        buf.len()
    })
}

/// The simulator classifier: class label plus exact encoded bytes.
pub fn classify<M: Classed>(msg: &M) -> MsgClass {
    MsgClass { kind: msg.class().label(), bytes: encoded_len(msg) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_indices_dense() {
        for (i, c) in Class::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut labels: Vec<&str> = Class::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CLASSES);
    }

    #[test]
    fn reused_buffer_length_matches_fresh_encoding() {
        let msg = SmrMessage::CkptInfo { epoch: 3, hash: 9 };
        assert_eq!(encoded_len(&msg), msg.to_bytes().len());
        assert_eq!(classify(&msg), MsgClass { kind: "xfer", bytes: 17 });
    }
}
