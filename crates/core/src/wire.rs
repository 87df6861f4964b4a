//! Canonical versioned wire codec for [`crate::transport::WireMsg`].
//!
//! Hand-rolled, like `pqs_sim::json` (the offline build has no serde):
//! every field is little-endian fixed-width, framed as
//!
//! ```text
//! [len: u32 LE] [magic: u16 LE = 0x5051 "PQ"] [version: u8 = 1]
//! [tag: u8] [from: u32 LE] [payload…]
//! ```
//!
//! where `len` counts the bytes after the prefix. Decoding is strict:
//! short input, a bad magic/version/tag, an oversized frame or value
//! list, and trailing bytes inside a frame all return a typed
//! [`WireError`] — never a panic, never a partial message. That is the
//! property the proptest round-trip suite and the junk-datagram fuzz
//! test pin down, and what lets the UDP datapath feed raw network bytes
//! straight into [`decode_frame`].

use crate::store::Value;
use crate::transport::{Datagram, OpStatus, WireMsg};
use pqs_net::NodeId;
use std::fmt;

/// Frame magic: `"PQ"` little-endian.
pub const MAGIC: u16 = 0x5150;
/// Current wire protocol version.
pub const VERSION: u8 = 1;
/// Hard cap on the body length a frame may declare (bytes). UDP
/// datagrams in this system are far smaller; anything bigger is junk.
pub const MAX_FRAME: usize = 64 * 1024;
/// Hard cap on the number of values a [`WireMsg::LookupReply`] carries.
pub const MAX_VALUES: usize = 4096;

mod tag {
    pub const STORE: u8 = 1;
    pub const STORE_ACK: u8 = 2;
    pub const LOOKUP_REQ: u8 = 3;
    pub const LOOKUP_REPLY: u8 = 4;
    pub const PING: u8 = 5;
    pub const PONG: u8 = 6;
    pub const DRAIN_REQ: u8 = 7;
    pub const DRAIN_ACK: u8 = 8;
    pub const METRICS_REQ: u8 = 9;
    pub const METRICS_RESP: u8 = 10;
    pub const CLIENT_PUT: u8 = 11;
    pub const CLIENT_PUT_DONE: u8 = 12;
    pub const CLIENT_GET: u8 = 13;
    pub const CLIENT_GET_DONE: u8 = 14;
}

/// Typed decode failure. Malformed input maps to exactly one of these;
/// the decoder never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the declared frame (or a field) was complete.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic(u16),
    /// The frame declares a protocol version we do not speak.
    BadVersion(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// The declared body length exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// A value list declares more than [`MAX_VALUES`] entries.
    BadCount(usize),
    /// A status byte is outside the [`OpStatus`] range.
    BadStatus(u8),
    /// The payload did not consume the whole declared body.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad magic 0x{m:04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds cap"),
            WireError::BadCount(n) => write!(f, "value list of {n} entries exceeds cap"),
            WireError::BadStatus(s) => write!(f, "status byte {s} out of range"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes inside frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a datagram as one length-prefixed frame.
pub fn encode_frame(d: &Datagram) -> Vec<u8> {
    let mut body = Vec::with_capacity(32);
    body.extend_from_slice(&MAGIC.to_le_bytes());
    body.push(VERSION);
    body.push(tag_of(&d.msg));
    body.extend_from_slice(&d.from.0.to_le_bytes());
    encode_payload(&d.msg, &mut body);
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decodes one length-prefixed frame from the front of `buf`, returning
/// the datagram and the total bytes consumed (prefix included). Strict:
/// the declared body must be fully present and fully consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Datagram, usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    if buf.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    let body = &buf[4..4 + len];
    let mut r = Reader { buf: body, pos: 0 };
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    let from = NodeId(r.u32()?);
    let msg = decode_payload(tag, &mut r)?;
    if r.pos != body.len() {
        return Err(WireError::Trailing(body.len() - r.pos));
    }
    Ok((Datagram { from, msg }, 4 + len))
}

fn tag_of(msg: &WireMsg) -> u8 {
    match msg {
        WireMsg::Store { .. } => tag::STORE,
        WireMsg::StoreAck { .. } => tag::STORE_ACK,
        WireMsg::LookupReq { .. } => tag::LOOKUP_REQ,
        WireMsg::LookupReply { .. } => tag::LOOKUP_REPLY,
        WireMsg::Ping { .. } => tag::PING,
        WireMsg::Pong { .. } => tag::PONG,
        WireMsg::DrainReq => tag::DRAIN_REQ,
        WireMsg::DrainAck { .. } => tag::DRAIN_ACK,
        WireMsg::MetricsReq => tag::METRICS_REQ,
        WireMsg::MetricsResp { .. } => tag::METRICS_RESP,
        WireMsg::ClientPut { .. } => tag::CLIENT_PUT,
        WireMsg::ClientPutDone { .. } => tag::CLIENT_PUT_DONE,
        WireMsg::ClientGet { .. } => tag::CLIENT_GET,
        WireMsg::ClientGetDone { .. } => tag::CLIENT_GET_DONE,
    }
}

fn encode_payload(msg: &WireMsg, out: &mut Vec<u8>) {
    match msg {
        WireMsg::Store { op, key, value } => {
            out.extend_from_slice(&op.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        WireMsg::StoreAck { op } => out.extend_from_slice(&op.to_le_bytes()),
        WireMsg::LookupReq { op, key } => {
            out.extend_from_slice(&op.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        WireMsg::LookupReply { op, key, values } => {
            out.extend_from_slice(&op.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(values.len() as u16).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        WireMsg::Ping { nonce } | WireMsg::Pong { nonce } => {
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        WireMsg::DrainReq | WireMsg::MetricsReq => {}
        WireMsg::DrainAck { completed, refused } => {
            out.extend_from_slice(&completed.to_le_bytes());
            out.extend_from_slice(&refused.to_le_bytes());
        }
        WireMsg::MetricsResp {
            issued,
            completed,
            failed,
            refused,
            served_stores,
            served_lookups,
        } => {
            for v in [
                issued,
                completed,
                failed,
                refused,
                served_stores,
                served_lookups,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        WireMsg::ClientPut { req, key, value } => {
            out.extend_from_slice(&req.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        WireMsg::ClientPutDone { req, status } => {
            out.extend_from_slice(&req.to_le_bytes());
            out.push(status_byte(*status));
        }
        WireMsg::ClientGet { req, key } => {
            out.extend_from_slice(&req.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        WireMsg::ClientGetDone { req, status, value } => {
            out.extend_from_slice(&req.to_le_bytes());
            out.push(status_byte(*status));
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
}

fn decode_payload(t: u8, r: &mut Reader<'_>) -> Result<WireMsg, WireError> {
    Ok(match t {
        tag::STORE => WireMsg::Store {
            op: r.u64()?,
            key: r.u64()?,
            value: r.u64()?,
        },
        tag::STORE_ACK => WireMsg::StoreAck { op: r.u64()? },
        tag::LOOKUP_REQ => WireMsg::LookupReq {
            op: r.u64()?,
            key: r.u64()?,
        },
        tag::LOOKUP_REPLY => {
            let op = r.u64()?;
            let key = r.u64()?;
            let count = r.u16()? as usize;
            if count > MAX_VALUES {
                return Err(WireError::BadCount(count));
            }
            let mut values: Vec<Value> = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(r.u64()?);
            }
            WireMsg::LookupReply { op, key, values }
        }
        tag::PING => WireMsg::Ping { nonce: r.u64()? },
        tag::PONG => WireMsg::Pong { nonce: r.u64()? },
        tag::DRAIN_REQ => WireMsg::DrainReq,
        tag::DRAIN_ACK => WireMsg::DrainAck {
            completed: r.u64()?,
            refused: r.u64()?,
        },
        tag::METRICS_REQ => WireMsg::MetricsReq,
        tag::METRICS_RESP => WireMsg::MetricsResp {
            issued: r.u64()?,
            completed: r.u64()?,
            failed: r.u64()?,
            refused: r.u64()?,
            served_stores: r.u64()?,
            served_lookups: r.u64()?,
        },
        tag::CLIENT_PUT => WireMsg::ClientPut {
            req: r.u64()?,
            key: r.u64()?,
            value: r.u64()?,
        },
        tag::CLIENT_PUT_DONE => WireMsg::ClientPutDone {
            req: r.u64()?,
            status: parse_status(r.u8()?)?,
        },
        tag::CLIENT_GET => WireMsg::ClientGet {
            req: r.u64()?,
            key: r.u64()?,
        },
        tag::CLIENT_GET_DONE => WireMsg::ClientGetDone {
            req: r.u64()?,
            status: parse_status(r.u8()?)?,
            value: r.u64()?,
        },
        other => return Err(WireError::BadTag(other)),
    })
}

fn status_byte(s: OpStatus) -> u8 {
    match s {
        OpStatus::Failed => 0,
        OpStatus::Ok => 1,
        OpStatus::Refused => 2,
    }
}

fn parse_status(b: u8) -> Result<OpStatus, WireError> {
    match b {
        0 => Ok(OpStatus::Failed),
        1 => Ok(OpStatus::Ok),
        2 => Ok(OpStatus::Refused),
        other => Err(WireError::BadStatus(other)),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMsg) {
        let d = Datagram {
            from: NodeId(17),
            msg,
        };
        let bytes = encode_frame(&d);
        let (back, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(back, d);
    }

    #[test]
    fn roundtrips_every_variant() {
        roundtrip(WireMsg::Store {
            op: 1,
            key: 2,
            value: 3,
        });
        roundtrip(WireMsg::StoreAck { op: u64::MAX });
        roundtrip(WireMsg::LookupReq { op: 5, key: 6 });
        roundtrip(WireMsg::LookupReply {
            op: 7,
            key: 8,
            values: vec![],
        });
        roundtrip(WireMsg::LookupReply {
            op: 7,
            key: 8,
            values: vec![9, 10, u64::MAX],
        });
        roundtrip(WireMsg::Ping { nonce: 11 });
        roundtrip(WireMsg::Pong { nonce: 12 });
        roundtrip(WireMsg::DrainReq);
        roundtrip(WireMsg::DrainAck {
            completed: 13,
            refused: 14,
        });
        roundtrip(WireMsg::MetricsReq);
        roundtrip(WireMsg::MetricsResp {
            issued: 1,
            completed: 2,
            failed: 3,
            refused: 4,
            served_stores: 5,
            served_lookups: 6,
        });
        roundtrip(WireMsg::ClientPut {
            req: 15,
            key: 16,
            value: 17,
        });
        roundtrip(WireMsg::ClientPutDone {
            req: 18,
            status: OpStatus::Refused,
        });
        roundtrip(WireMsg::ClientGet { req: 19, key: 20 });
        roundtrip(WireMsg::ClientGetDone {
            req: 21,
            status: OpStatus::Ok,
            value: 22,
        });
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let d = Datagram {
            from: NodeId(3),
            msg: WireMsg::LookupReply {
                op: 1,
                key: 2,
                values: vec![3, 4],
            },
        };
        let bytes = encode_frame(&d);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_bad_magic_version_tag_trailing() {
        let d = Datagram {
            from: NodeId(0),
            msg: WireMsg::Ping { nonce: 1 },
        };
        let good = encode_frame(&d);

        let mut bad = good.clone();
        bad[4] ^= 0xff;
        assert!(matches!(decode_frame(&bad), Err(WireError::BadMagic(_))));

        let mut bad = good.clone();
        bad[6] = 99;
        assert_eq!(decode_frame(&bad), Err(WireError::BadVersion(99)));

        let mut bad = good.clone();
        bad[7] = 0xee;
        assert_eq!(decode_frame(&bad), Err(WireError::BadTag(0xee)));

        let mut bad = good.clone();
        bad.push(0);
        let new_len = (bad.len() - 4) as u32;
        bad[..4].copy_from_slice(&new_len.to_le_bytes());
        assert_eq!(decode_frame(&bad), Err(WireError::Trailing(1)));
    }

    #[test]
    fn rejects_oversized_and_bad_count() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert_eq!(decode_frame(&buf), Err(WireError::Oversized(MAX_FRAME + 1)));

        // A LookupReply declaring MAX_VALUES+1 entries.
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_le_bytes());
        body.push(VERSION);
        body.push(4); // LOOKUP_REPLY
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&((MAX_VALUES as u16) + 1).to_le_bytes());
        let mut framed = Vec::new();
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&body);
        assert_eq!(
            decode_frame(&framed),
            Err(WireError::BadCount(MAX_VALUES + 1))
        );
    }
}
