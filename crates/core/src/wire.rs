//! Binary wire codec for the protocol stack.
//!
//! The networked runtime (`qmx-runtime`) ships protocol messages between
//! processes over byte streams (TCP, Unix-domain sockets, or the in-process
//! loopback used by the deterministic tests). This module is the codec: a
//! small hand-rolled binary format — fixed-width little-endian integers,
//! one-byte enum tags, length-prefixed sequences — with **no** panics on
//! malformed input. Everything that can go wrong while decoding a frame a
//! peer (or an attacker, or a fuzzer) sent is a [`WireError`], and the
//! connection that produced it gets dropped by the runtime; nothing here may
//! take the site task down.
//!
//! The workspace has no serialization framework, so the codec is written
//! out by hand for exactly the message types the live stack sends:
//! [`HbMsg`]`<`[`Packet`]`<`[`ResMsg`]`<`[`Msg`]`>>>` and its layers, plus
//! the primitives they are built from. Each impl is a direct transcription
//! of the struct/enum definition; round-trip tests pin every variant.
//!
//! Decoding is strict: [`Wire::from_bytes`] rejects trailing bytes, length
//! prefixes are validated against the bytes actually present *before* any
//! allocation (a claimed length can never force a large allocation), and
//! unknown tags are errors.

use crate::clock::{SeqNum, Timestamp};
use crate::delay_optimal::{Body, Msg};
use crate::detector::HbMsg;
use crate::lockspace::ResMsg;
use crate::protocol::{ResourceId, SiteId};
use crate::transport::Packet;
use std::fmt;
use std::sync::Arc;

/// Decode failure. Always an error value, never a panic: wire input is
/// untrusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix claims more elements than the remaining bytes could
    /// possibly hold.
    Oversized {
        /// The type being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// [`Wire::from_bytes`] decoded a complete value but bytes were left
    /// over — the frame does not contain exactly one message.
    Trailing {
        /// Leftover byte count.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire value"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::Oversized { what, len } => {
                write!(f, "{what} length {len} exceeds the frame")
            }
            WireError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after the message")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked cursor over the bytes of one frame.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a strict boolean (`0` or `1`; anything else is a bad tag).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }

    /// Validates a sequence length prefix against the bytes left: with
    /// every element at least `min_elem_bytes` wide, a claimed `len` beyond
    /// `remaining / min_elem_bytes` cannot be satisfied, so it is rejected
    /// *before* any element is read or any buffer is sized from it.
    pub fn seq_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        let len = self.u32()? as u64;
        let fit = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if len > fit {
            return Err(WireError::Oversized { what, len });
        }
        Ok(len as usize)
    }
}

/// A value with a binary wire representation.
///
/// Implementations must uphold: `decode(encode(v)) == v` for every value,
/// and `decode` returns an error (never panics) on any byte sequence that
/// is not a valid encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader, advancing it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a buffer that must contain exactly one value.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing {
                remaining: r.remaining(),
            });
        }
        Ok(v)
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.bool()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

/// Appends `items` as a `u32` length prefix followed by each element:
/// the encoding of a `Vec<T>`.
fn encode_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for v in items {
        v.encode(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Every element encodes to at least one byte, so the length gate in
        // `seq_len` bounds the allocation by the frame size.
        let len = r.seq_len("Vec", 1)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl Wire for SiteId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SiteId(r.u32()?))
    }
}

impl Wire for ResourceId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ResourceId(r.u32()?))
    }
}

impl Wire for SeqNum {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SeqNum(r.u64()?))
    }
}

impl Wire for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.site.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Timestamp {
            seq: SeqNum::decode(r)?,
            site: SiteId::decode(r)?,
        })
    }
}

impl Wire for Body {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Body::Request { ts } => {
                out.push(0);
                ts.encode(out);
            }
            Body::Reply {
                arbiter,
                req,
                transfer,
            } => {
                out.push(1);
                arbiter.encode(out);
                req.encode(out);
                transfer.encode(out);
            }
            Body::Release {
                holder_req,
                forwarded_to,
            } => {
                out.push(2);
                holder_req.encode(out);
                forwarded_to.encode(out);
            }
            Body::Inquire {
                arbiter,
                holder_req,
                transfer,
            } => {
                out.push(3);
                arbiter.encode(out);
                holder_req.encode(out);
                transfer.encode(out);
            }
            Body::Fail { arbiter, req } => {
                out.push(4);
                arbiter.encode(out);
                req.encode(out);
            }
            Body::Yield { req } => {
                out.push(5);
                req.encode(out);
            }
            Body::Transfer {
                arbiter,
                beneficiary,
                holder_req,
            } => {
                out.push(6);
                arbiter.encode(out);
                beneficiary.encode(out);
                holder_req.encode(out);
            }
            Body::Relinquish { req } => {
                out.push(7);
                req.encode(out);
            }
            Body::Abandon { req } => {
                out.push(8);
                req.encode(out);
            }
            Body::Claim { holds } => {
                out.push(9);
                holds.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Body::Request {
                ts: Timestamp::decode(r)?,
            },
            1 => Body::Reply {
                arbiter: SiteId::decode(r)?,
                req: Timestamp::decode(r)?,
                transfer: Option::decode(r)?,
            },
            2 => Body::Release {
                holder_req: Timestamp::decode(r)?,
                forwarded_to: Option::decode(r)?,
            },
            3 => Body::Inquire {
                arbiter: SiteId::decode(r)?,
                holder_req: Timestamp::decode(r)?,
                transfer: Option::decode(r)?,
            },
            4 => Body::Fail {
                arbiter: SiteId::decode(r)?,
                req: Timestamp::decode(r)?,
            },
            5 => Body::Yield {
                req: Timestamp::decode(r)?,
            },
            6 => Body::Transfer {
                arbiter: SiteId::decode(r)?,
                beneficiary: Timestamp::decode(r)?,
                holder_req: Timestamp::decode(r)?,
            },
            7 => Body::Relinquish {
                req: Timestamp::decode(r)?,
            },
            8 => Body::Abandon {
                req: Timestamp::decode(r)?,
            },
            9 => Body::Claim {
                holds: Option::decode(r)?,
            },
            tag => return Err(WireError::BadTag { what: "Body", tag }),
        })
    }
}

impl Wire for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.clk.encode(out);
        self.body.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Msg {
            clk: SeqNum::decode(r)?,
            body: Body::decode(r)?,
        })
    }
}

impl<M: Wire> Wire for ResMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rid.encode(out);
        self.body.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ResMsg {
            rid: ResourceId::decode(r)?,
            body: M::decode(r)?,
        })
    }
}

impl<M: Wire> Wire for Packet<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Packet::Data {
                epoch,
                seq,
                ack_epoch,
                ack,
                payload,
            } => {
                out.push(0);
                epoch.encode(out);
                seq.encode(out);
                ack_epoch.encode(out);
                ack.encode(out);
                payload.encode(out);
            }
            Packet::Ack { epoch, ack } => {
                out.push(1);
                epoch.encode(out);
                ack.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Packet::Data {
                epoch: r.u64()?,
                seq: r.u64()?,
                ack_epoch: r.u64()?,
                ack: r.u64()?,
                payload: Arc::new(M::decode(r)?),
            },
            1 => Packet::Ack {
                epoch: r.u64()?,
                ack: r.u64()?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "Packet",
                    tag,
                })
            }
        })
    }
}

impl<M: Wire> Wire for HbMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HbMsg::Beat {
                alive,
                suspects_you,
            } => {
                out.push(0);
                encode_seq(alive, out);
                suspects_you.encode(out);
            }
            HbMsg::Rejoin { incarnation } => {
                out.push(1);
                incarnation.encode(out);
            }
            HbMsg::App(m) => {
                out.push(2);
                m.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => HbMsg::Beat {
                alive: Vec::<SiteId>::decode(r)?.into(),
                suspects_you: bool::decode(r)?,
            },
            1 => HbMsg::Rejoin {
                incarnation: r.u64()?,
            },
            2 => HbMsg::App(M::decode(r)?),
            tag => return Err(WireError::BadTag { what: "HbMsg", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact message type the live `ServeStack` puts on the wire.
    type StackMsg = HbMsg<Packet<ResMsg<Msg>>>;

    fn ts(seq: u64, site: u32) -> Timestamp {
        Timestamp::new(seq, SiteId(site))
    }

    fn all_bodies() -> Vec<Body> {
        vec![
            Body::Request { ts: ts(3, 1) },
            Body::Reply {
                arbiter: SiteId(2),
                req: ts(4, 0),
                transfer: None,
            },
            Body::Reply {
                arbiter: SiteId(2),
                req: ts(4, 0),
                transfer: Some(ts(9, 5)),
            },
            Body::Release {
                holder_req: ts(7, 2),
                forwarded_to: Some(ts(8, 3)),
            },
            Body::Release {
                holder_req: ts(7, 2),
                forwarded_to: None,
            },
            Body::Inquire {
                arbiter: SiteId(0),
                holder_req: ts(1, 1),
                transfer: Some(ts(2, 2)),
            },
            Body::Fail {
                arbiter: SiteId(3),
                req: ts(11, 4),
            },
            Body::Yield { req: ts(12, 0) },
            Body::Transfer {
                arbiter: SiteId(1),
                beneficiary: ts(13, 6),
                holder_req: ts(10, 7),
            },
            Body::Relinquish { req: ts(14, 8) },
            Body::Abandon { req: ts(15, 0) },
            Body::Claim { holds: None },
            Body::Claim {
                holds: Some(ts(16, 2)),
            },
        ]
    }

    #[test]
    fn every_body_variant_round_trips() {
        for body in all_bodies() {
            let msg = Msg {
                clk: SeqNum(77),
                body: body.clone(),
            };
            let bytes = msg.to_bytes();
            let back = Msg::from_bytes(&bytes).expect("round trip");
            assert_eq!(back, msg, "variant {body:?}");
        }
    }

    #[test]
    fn full_stack_message_round_trips() {
        for (i, body) in all_bodies().into_iter().enumerate() {
            let wire: StackMsg = HbMsg::App(Packet::Data {
                epoch: (7 << 32) + 1,
                seq: 42 + i as u64,
                ack_epoch: 3,
                ack: 41,
                payload: Arc::new(ResMsg {
                    rid: ResourceId(9),
                    body: Msg {
                        clk: SeqNum(100),
                        body,
                    },
                }),
            });
            let back = StackMsg::from_bytes(&wire.to_bytes()).expect("round trip");
            // HbMsg/Packet do not implement PartialEq (Arc payload); compare
            // the debug rendering, which covers every field.
            assert_eq!(format!("{back:?}"), format!("{wire:?}"));
        }
    }

    #[test]
    fn beat_rejoin_and_ack_round_trip() {
        let beat: StackMsg = HbMsg::Beat {
            alive: vec![SiteId(0), SiteId(2), SiteId(5)].into(),
            suspects_you: true,
        };
        // Exact bytes: tag, u32 length, one u32 per vouched site, echo
        // flag. Peers of every version must read the same beat.
        assert_eq!(
            beat.to_bytes(),
            [0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 1]
        );
        let rejoin: StackMsg = HbMsg::Rejoin { incarnation: 3 };
        let ack: StackMsg = HbMsg::App(Packet::Ack { epoch: 2, ack: 17 });
        for m in [beat, rejoin, ack] {
            let back = StackMsg::from_bytes(&m.to_bytes()).expect("round trip");
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
        }
    }

    #[test]
    fn truncated_input_errors_at_every_length() {
        let wire: StackMsg = HbMsg::App(Packet::Data {
            epoch: 1,
            seq: 2,
            ack_epoch: 1,
            ack: 1,
            payload: Arc::new(ResMsg {
                rid: ResourceId(3),
                body: Msg {
                    clk: SeqNum(5),
                    body: Body::Inquire {
                        arbiter: SiteId(0),
                        holder_req: ts(1, 1),
                        transfer: Some(ts(2, 2)),
                    },
                },
            }),
        });
        let bytes = wire.to_bytes();
        for cut in 0..bytes.len() {
            let err = StackMsg::from_bytes(&bytes[..cut]).expect_err("truncation detected");
            assert!(
                matches!(err, WireError::Truncated | WireError::BadTag { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = Msg {
            clk: SeqNum(1),
            body: Body::Yield { req: ts(2, 0) },
        };
        let mut bytes = msg.to_bytes();
        bytes.push(0xFF);
        assert_eq!(
            Msg::from_bytes(&bytes),
            Err(WireError::Trailing { remaining: 1 })
        );
    }

    #[test]
    fn bad_tags_are_rejected_not_panicked() {
        // First byte of a Body is its tag; 0xAB is not a variant.
        assert!(matches!(
            Body::from_bytes(&[0xAB]),
            Err(WireError::BadTag { what: "Body", .. })
        ));
        // A bool outside 0/1 is a bad tag, not a coercion.
        let mut r = Reader::new(&[7]);
        assert!(matches!(r.bool(), Err(WireError::BadTag { .. })));
    }

    #[test]
    fn hostile_length_prefix_cannot_force_allocation() {
        // A Beat whose `alive` vector claims 2^32-1 sites but provides no
        // bytes: rejected by the length gate before any allocation.
        let mut bytes = vec![0u8]; // HbMsg::Beat tag
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = <HbMsg<Packet<ResMsg<Msg>>>>::from_bytes(&bytes).expect_err("oversized");
        assert!(matches!(err, WireError::Oversized { .. }), "{err:?}");
    }

    #[test]
    fn garbage_never_panics() {
        // Deterministic byte noise (splitmix64) across a range of lengths:
        // every buffer must decode to Ok or Err, never panic, at every type
        // in the stack.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as u8
        };
        for len in 0..200usize {
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = StackMsg::from_bytes(&buf);
            let _ = Msg::from_bytes(&buf);
            let _ = <Packet<Msg>>::from_bytes(&buf);
            let _ = <ResMsg<Msg>>::from_bytes(&buf);
        }
    }
}
