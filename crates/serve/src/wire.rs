//! The msnap-serve wire protocol: length-prefixed, checksummed frames
//! over [`msnap_sim::SimLink`] datagrams.
//!
//! A datagram carries one or more *frames*; each frame is
//!
//! ```text
//! [body_len: u32 LE][fnv1a(body): u64 LE][body]
//! ```
//!
//! and each body is one tagged [`Request`] or [`Response`]. Batching
//! several frames into one datagram is how the server flushes a round's
//! responses per connection. Decoding is strict and total: a malformed
//! datagram yields a typed [`WireError`], never a panic, and a frame
//! whose checksum does not match its body is rejected wholesale (the
//! link is lossy, not corrupting — a bad checksum means an encoder bug,
//! so it is surfaced, not skipped).
//!
//! Every multi-byte integer is little-endian. Strings carry a `u16`
//! length, values a `u16` length, vectors a `u32` element count; all
//! lengths are validated against the remaining body before allocation.

use msnap_sim::wire::{put_u16, put_u32, put_u64, Reader, Short};
use msnap_store::fnv1a;

/// Hard cap on one stored value; a slot is 64 bytes with 2 bytes of
/// header (see [`crate::server`]).
pub const MAX_VALUE_BYTES: usize = 62;

/// Hard cap on a tenant name on the wire.
pub const MAX_TENANT_BYTES: usize = 128;

/// Frame header bytes (length prefix + checksum).
pub const FRAME_HEADER: usize = 4 + 8;

/// Typed decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended inside a header, length field, or payload.
    Truncated,
    /// A frame's checksum does not match its body.
    BadChecksum,
    /// An unknown request/response tag.
    BadTag(u8),
    /// A length field exceeds its hard cap or the remaining body.
    BadLength,
    /// A tenant name is not valid UTF-8.
    BadString,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::BadChecksum => f.write_str("frame checksum mismatch"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadLength => f.write_str("length field out of bounds"),
            WireError::BadString => f.write_str("invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

/// Error codes a server returns in [`Response::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrCode {
    /// The session id is not live on this node (e.g. after a failover —
    /// the client should re-Hello).
    UnknownSession,
    /// The key is at or beyond the tenant's fixed capacity.
    KeyOutOfRange,
    /// The value exceeds [`MAX_VALUE_BYTES`].
    ValueTooLarge,
    /// The watch id is not live on this node.
    UnknownWatch,
    /// The request was structurally valid but unserviceable.
    BadRequest,
}

impl ErrCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrCode::UnknownSession => 1,
            ErrCode::KeyOutOfRange => 2,
            ErrCode::ValueTooLarge => 3,
            ErrCode::UnknownWatch => 4,
            ErrCode::BadRequest => 5,
        }
    }

    fn from_byte(b: u8) -> Result<ErrCode, WireError> {
        Ok(match b {
            1 => ErrCode::UnknownSession,
            2 => ErrCode::KeyOutOfRange,
            3 => ErrCode::ValueTooLarge,
            4 => ErrCode::UnknownWatch,
            5 => ErrCode::BadRequest,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens a session. `staleness` is the session's bounded-staleness
    /// budget: a read may be served by a replica at most this many
    /// epochs behind the primary (0 = replica must be fully caught up
    /// on the object read).
    Hello {
        /// Epoch staleness budget for replica-routed reads.
        staleness: u64,
    },
    /// Writes `value` at `key` of `tenant` (created on first touch).
    Put {
        /// Session id from [`Response::HelloOk`].
        session: u64,
        /// Per-session request id (dedup key for retries).
        req: u64,
        /// Tenant namespace.
        tenant: String,
        /// Key in `0..capacity`.
        key: u64,
        /// Value; one over [`MAX_VALUE_BYTES`] is refused with
        /// [`ErrCode::ValueTooLarge`].
        value: Vec<u8>,
    },
    /// Reads `key` of `tenant`.
    Get {
        /// Session id.
        session: u64,
        /// Per-session request id.
        req: u64,
        /// Tenant namespace.
        tenant: String,
        /// Key in `0..capacity`.
        key: u64,
    },
    /// Reads every live key in `[lo, hi)` of `tenant`.
    Scan {
        /// Session id.
        session: u64,
        /// Per-session request id.
        req: u64,
        /// Tenant namespace.
        tenant: String,
        /// Inclusive scan start.
        lo: u64,
        /// Exclusive scan end.
        hi: u64,
    },
    /// Subscribes to invalidation events for keys of `tenant` in
    /// `[lo, hi)`.
    Subscribe {
        /// Session id.
        session: u64,
        /// Per-session request id.
        req: u64,
        /// Tenant namespace.
        tenant: String,
        /// Inclusive watch start.
        lo: u64,
        /// Exclusive watch end.
        hi: u64,
    },
    /// Cancels a watch.
    Unsubscribe {
        /// Session id.
        session: u64,
        /// Per-session request id.
        req: u64,
        /// Watch id from [`Response::SubOk`].
        watch: u64,
    },
    /// Requests the server's counters.
    StatsReq {
        /// Session id.
        session: u64,
        /// Per-session request id.
        req: u64,
    },
    /// Acknowledges a [`Response::Notify`] bundle (cumulative per
    /// session: the bundle with this cut sequence was processed).
    NotifyAck {
        /// Session id.
        session: u64,
        /// Cut sequence of the processed bundle.
        cut_seq: u64,
    },
}

/// One invalidation event inside a [`Response::Notify`] bundle: the
/// keys of `watch`'s range whose slots changed in `epoch` of one tenant
/// stripe object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotifyEvent {
    /// The watch this event belongs to.
    pub watch: u64,
    /// Stripe index within the tenant (which sharded object changed).
    pub stripe: u64,
    /// The committed μCheckpoint epoch the changes belong to.
    pub epoch: u64,
    /// Changed-key ranges `[lo, hi)`: the keys whose slots changed (a
    /// page whose changed lines are unknown counts whole), clipped to the
    /// watch range, adjacent ranges merged.
    pub ranges: Vec<(u64, u64)>,
}

/// Server counters returned by [`Response::StatsOk`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Live sessions.
    pub sessions: u64,
    /// Live watches.
    pub watches: u64,
    /// Puts committed.
    pub puts: u64,
    /// Gets served.
    pub gets: u64,
    /// Scans served.
    pub scans: u64,
    /// Notify bundles sent (first transmissions).
    pub notify_bundles: u64,
    /// Invalidation events fanned out.
    pub notify_events: u64,
    /// Vector cuts stamped.
    pub cuts: u64,
    /// Reads served by a replica.
    pub replica_reads: u64,
    /// Reads served by the primary.
    pub primary_reads: u64,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session granted.
    HelloOk {
        /// The new session id.
        session: u64,
        /// Stripe objects per tenant on this node.
        stripes: u64,
        /// Keys per tenant.
        capacity: u64,
    },
    /// Write acknowledged: the value is durable on the primary and — on
    /// a replicated node — applied by every attached replica, so it
    /// survives failover.
    PutOk {
        /// Echoed request id.
        req: u64,
        /// The μCheckpoint epoch the write committed in.
        epoch: u64,
    },
    /// Read result.
    GetOk {
        /// Echoed request id.
        req: u64,
        /// Committed epoch of the object serving the read.
        epoch: u64,
        /// Whether a replica served it (bounded-staleness routing).
        from_replica: bool,
        /// The value, or `None` if the key is unset.
        value: Option<Vec<u8>>,
    },
    /// Scan result.
    ScanOk {
        /// Echoed request id.
        req: u64,
        /// Live `(key, value)` pairs in the scanned range, ascending.
        pairs: Vec<(u64, Vec<u8>)>,
    },
    /// Watch granted.
    SubOk {
        /// Echoed request id.
        req: u64,
        /// The new watch id.
        watch: u64,
        /// Per-stripe epochs already reflected in the subscriber's
        /// baseline: events arrive only for epochs beyond these.
        from_epochs: Vec<u64>,
    },
    /// Watch cancelled.
    UnsubOk {
        /// Echoed request id.
        req: u64,
    },
    /// Server counters.
    StatsOk {
        /// Echoed request id.
        req: u64,
        /// Counter snapshot.
        stats: WireStats,
    },
    /// A cut-aligned invalidation bundle: *all* of this session's
    /// events for vector cut `cut_seq`, across every watched tenant and
    /// shard, delivered atomically. `prev_seq` chains bundles so the
    /// client processes them in cut order (exactly once) even when the
    /// link reorders or the server retransmits.
    Notify {
        /// The vector cut this bundle is aligned to.
        cut_seq: u64,
        /// The session's previous non-empty bundle (0 = first).
        prev_seq: u64,
        /// The events, grouped per watch.
        events: Vec<NotifyEvent>,
    },
    /// Request failed.
    Err {
        /// Echoed request id (0 for Hello failures).
        req: u64,
        /// Why.
        code: ErrCode,
    },
}

// ---- encoding ----------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}
fn put_val(buf: &mut Vec<u8>, v: &[u8]) {
    put_u16(buf, v.len() as u16);
    buf.extend_from_slice(v);
}

/// Appends one framed message body to `out`.
fn frame(out: &mut Vec<u8>, body: &[u8]) {
    put_u32(out, body.len() as u32);
    put_u64(out, fnv1a(body));
    out.extend_from_slice(body);
}

fn request_body(r: &Request) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    match r {
        Request::Hello { staleness } => {
            b.push(0x01);
            put_u64(&mut b, *staleness);
        }
        Request::Put {
            session,
            req,
            tenant,
            key,
            value,
        } => {
            b.push(0x02);
            put_u64(&mut b, *session);
            put_u64(&mut b, *req);
            put_str(&mut b, tenant);
            put_u64(&mut b, *key);
            put_val(&mut b, value);
        }
        Request::Get {
            session,
            req,
            tenant,
            key,
        } => {
            b.push(0x03);
            put_u64(&mut b, *session);
            put_u64(&mut b, *req);
            put_str(&mut b, tenant);
            put_u64(&mut b, *key);
        }
        Request::Scan {
            session,
            req,
            tenant,
            lo,
            hi,
        } => {
            b.push(0x04);
            put_u64(&mut b, *session);
            put_u64(&mut b, *req);
            put_str(&mut b, tenant);
            put_u64(&mut b, *lo);
            put_u64(&mut b, *hi);
        }
        Request::Subscribe {
            session,
            req,
            tenant,
            lo,
            hi,
        } => {
            b.push(0x05);
            put_u64(&mut b, *session);
            put_u64(&mut b, *req);
            put_str(&mut b, tenant);
            put_u64(&mut b, *lo);
            put_u64(&mut b, *hi);
        }
        Request::Unsubscribe {
            session,
            req,
            watch,
        } => {
            b.push(0x06);
            put_u64(&mut b, *session);
            put_u64(&mut b, *req);
            put_u64(&mut b, *watch);
        }
        Request::StatsReq { session, req } => {
            b.push(0x07);
            put_u64(&mut b, *session);
            put_u64(&mut b, *req);
        }
        Request::NotifyAck { session, cut_seq } => {
            b.push(0x08);
            put_u64(&mut b, *session);
            put_u64(&mut b, *cut_seq);
        }
    }
    b
}

fn response_body(r: &Response) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    match r {
        Response::HelloOk {
            session,
            stripes,
            capacity,
        } => {
            b.push(0x81);
            put_u64(&mut b, *session);
            put_u64(&mut b, *stripes);
            put_u64(&mut b, *capacity);
        }
        Response::PutOk { req, epoch } => {
            b.push(0x82);
            put_u64(&mut b, *req);
            put_u64(&mut b, *epoch);
        }
        Response::GetOk {
            req,
            epoch,
            from_replica,
            value,
        } => {
            b.push(0x83);
            put_u64(&mut b, *req);
            put_u64(&mut b, *epoch);
            b.push(u8::from(*from_replica));
            match value {
                Some(v) => {
                    b.push(1);
                    put_val(&mut b, v);
                }
                None => b.push(0),
            }
        }
        Response::ScanOk { req, pairs } => {
            b.push(0x84);
            put_u64(&mut b, *req);
            put_u32(&mut b, pairs.len() as u32);
            for (k, v) in pairs {
                put_u64(&mut b, *k);
                put_val(&mut b, v);
            }
        }
        Response::SubOk {
            req,
            watch,
            from_epochs,
        } => {
            b.push(0x85);
            put_u64(&mut b, *req);
            put_u64(&mut b, *watch);
            put_u32(&mut b, from_epochs.len() as u32);
            for e in from_epochs {
                put_u64(&mut b, *e);
            }
        }
        Response::UnsubOk { req } => {
            b.push(0x86);
            put_u64(&mut b, *req);
        }
        Response::StatsOk { req, stats } => {
            b.push(0x87);
            put_u64(&mut b, *req);
            for v in [
                stats.sessions,
                stats.watches,
                stats.puts,
                stats.gets,
                stats.scans,
                stats.notify_bundles,
                stats.notify_events,
                stats.cuts,
                stats.replica_reads,
                stats.primary_reads,
            ] {
                put_u64(&mut b, v);
            }
        }
        Response::Notify {
            cut_seq,
            prev_seq,
            events,
        } => {
            b.push(0x88);
            put_u64(&mut b, *cut_seq);
            put_u64(&mut b, *prev_seq);
            put_u32(&mut b, events.len() as u32);
            for e in events {
                put_u64(&mut b, e.watch);
                put_u64(&mut b, e.stripe);
                put_u64(&mut b, e.epoch);
                put_u32(&mut b, e.ranges.len() as u32);
                for (lo, hi) in &e.ranges {
                    put_u64(&mut b, *lo);
                    put_u64(&mut b, *hi);
                }
            }
        }
        Response::Err { req, code } => {
            b.push(0x89);
            put_u64(&mut b, *req);
            b.push(code.to_byte());
        }
    }
    b
}

/// Encodes one request as a single-frame datagram.
pub fn encode_request(r: &Request) -> Vec<u8> {
    let body = request_body(r);
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    frame(&mut out, &body);
    out
}

/// Encodes one response as a single frame (standalone datagram).
pub fn encode_response(r: &Response) -> Vec<u8> {
    let body = response_body(r);
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    frame(&mut out, &body);
    out
}

/// Appends one response frame to a datagram under assembly (the
/// server's per-connection round batch).
pub fn append_response(out: &mut Vec<u8>, r: &Response) {
    frame(out, &response_body(r));
}

// ---- decoding ----------------------------------------------------------

impl From<Short> for WireError {
    fn from(_: Short) -> Self {
        WireError::Truncated
    }
}

fn read_str(r: &mut Reader) -> Result<String, WireError> {
    let n = r.u16()? as usize;
    if n > MAX_TENANT_BYTES {
        return Err(WireError::BadLength);
    }
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| WireError::BadString)
}

/// A value: a `u16` length, then that many bytes, at most `cap`.
fn read_val(r: &mut Reader, cap: usize) -> Result<Vec<u8>, WireError> {
    let n = r.u16()? as usize;
    if n > cap {
        return Err(WireError::BadLength);
    }
    Ok(r.take(n)?.to_vec())
}

/// Splits a datagram into checksum-verified frame bodies.
fn deframe(datagram: &[u8]) -> Result<Vec<&[u8]>, WireError> {
    let mut r = Reader::new(datagram);
    let mut bodies = Vec::new();
    while !r.rest().is_empty() {
        let len = r.u32()? as usize;
        let crc = r.u64()?;
        let body = r.take(len)?;
        if fnv1a(body) != crc {
            return Err(WireError::BadChecksum);
        }
        bodies.push(body);
    }
    Ok(bodies)
}

fn parse_request(body: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(body);
    let req = match r.u8()? {
        0x01 => Request::Hello {
            staleness: r.u64()?,
        },
        0x02 => Request::Put {
            session: r.u64()?,
            req: r.u64()?,
            tenant: read_str(&mut r)?,
            key: r.u64()?,
            // Bounded by the body alone: the server answers an
            // oversized value with `ErrCode::ValueTooLarge`.
            value: read_val(&mut r, usize::MAX)?,
        },
        0x03 => Request::Get {
            session: r.u64()?,
            req: r.u64()?,
            tenant: read_str(&mut r)?,
            key: r.u64()?,
        },
        0x04 => Request::Scan {
            session: r.u64()?,
            req: r.u64()?,
            tenant: read_str(&mut r)?,
            lo: r.u64()?,
            hi: r.u64()?,
        },
        0x05 => Request::Subscribe {
            session: r.u64()?,
            req: r.u64()?,
            tenant: read_str(&mut r)?,
            lo: r.u64()?,
            hi: r.u64()?,
        },
        0x06 => Request::Unsubscribe {
            session: r.u64()?,
            req: r.u64()?,
            watch: r.u64()?,
        },
        0x07 => Request::StatsReq {
            session: r.u64()?,
            req: r.u64()?,
        },
        0x08 => Request::NotifyAck {
            session: r.u64()?,
            cut_seq: r.u64()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    r.rest()
        .is_empty()
        .then_some(req)
        .ok_or(WireError::BadLength)
}

fn parse_response(body: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(body);
    let resp = match r.u8()? {
        0x81 => Response::HelloOk {
            session: r.u64()?,
            stripes: r.u64()?,
            capacity: r.u64()?,
        },
        0x82 => Response::PutOk {
            req: r.u64()?,
            epoch: r.u64()?,
        },
        0x83 => {
            let req = r.u64()?;
            let epoch = r.u64()?;
            let from_replica = r.u8()? != 0;
            let value = match r.u8()? {
                0 => None,
                1 => Some(read_val(&mut r, MAX_VALUE_BYTES)?),
                t => return Err(WireError::BadTag(t)),
            };
            Response::GetOk {
                req,
                epoch,
                from_replica,
                value,
            }
        }
        0x84 => {
            let req = r.u64()?;
            let n = r.u32()? as usize;
            // A pair is at least 10 bytes; reject counts the body
            // cannot possibly hold before allocating.
            if n > body.len() / 10 + 1 {
                return Err(WireError::BadLength);
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.u64()?, read_val(&mut r, MAX_VALUE_BYTES)?));
            }
            Response::ScanOk { req, pairs }
        }
        0x85 => {
            let req = r.u64()?;
            let watch = r.u64()?;
            let n = r.u32()? as usize;
            if n > body.len() / 8 + 1 {
                return Err(WireError::BadLength);
            }
            let mut from_epochs = Vec::with_capacity(n);
            for _ in 0..n {
                from_epochs.push(r.u64()?);
            }
            Response::SubOk {
                req,
                watch,
                from_epochs,
            }
        }
        0x86 => Response::UnsubOk { req: r.u64()? },
        0x87 => {
            let req = r.u64()?;
            let mut v = [0u64; 10];
            for slot in &mut v {
                *slot = r.u64()?;
            }
            Response::StatsOk {
                req,
                stats: WireStats {
                    sessions: v[0],
                    watches: v[1],
                    puts: v[2],
                    gets: v[3],
                    scans: v[4],
                    notify_bundles: v[5],
                    notify_events: v[6],
                    cuts: v[7],
                    replica_reads: v[8],
                    primary_reads: v[9],
                },
            }
        }
        0x88 => {
            let cut_seq = r.u64()?;
            let prev_seq = r.u64()?;
            let n = r.u32()? as usize;
            if n > body.len() / 28 + 1 {
                return Err(WireError::BadLength);
            }
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let watch = r.u64()?;
                let stripe = r.u64()?;
                let epoch = r.u64()?;
                let m = r.u32()? as usize;
                if m > body.len() / 16 + 1 {
                    return Err(WireError::BadLength);
                }
                let mut ranges = Vec::with_capacity(m);
                for _ in 0..m {
                    ranges.push((r.u64()?, r.u64()?));
                }
                events.push(NotifyEvent {
                    watch,
                    stripe,
                    epoch,
                    ranges,
                });
            }
            Response::Notify {
                cut_seq,
                prev_seq,
                events,
            }
        }
        0x89 => Response::Err {
            req: r.u64()?,
            code: ErrCode::from_byte(r.u8()?)?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    r.rest()
        .is_empty()
        .then_some(resp)
        .ok_or(WireError::BadLength)
}

/// Decodes every request frame in a datagram.
///
/// # Errors
///
/// Any [`WireError`]; a partially valid datagram is rejected whole.
pub fn decode_requests(datagram: &[u8]) -> Result<Vec<Request>, WireError> {
    deframe(datagram)?.into_iter().map(parse_request).collect()
}

/// Decodes every response frame in a datagram.
///
/// # Errors
///
/// Any [`WireError`]; a partially valid datagram is rejected whole.
pub fn decode_responses(datagram: &[u8]) -> Result<Vec<Response>, WireError> {
    deframe(datagram)?.into_iter().map(parse_response).collect()
}

/// Merges key ranges: sorts, fuses adjacent/overlapping
/// `[lo, hi)` pairs, drops empties. Both the server (building events)
/// and test oracles (building expectations) use this, so equality
/// comparisons are canonical.
pub fn merge_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|&(lo, hi)| lo < hi);
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { staleness: 3 },
            Request::Put {
                session: 7,
                req: 1,
                tenant: "acme".into(),
                key: 42,
                value: vec![1, 2, 3],
            },
            Request::Get {
                session: 7,
                req: 2,
                tenant: "acme".into(),
                key: 42,
            },
            Request::Scan {
                session: 7,
                req: 3,
                tenant: "acme".into(),
                lo: 0,
                hi: 64,
            },
            Request::Subscribe {
                session: 7,
                req: 4,
                tenant: "acme".into(),
                lo: 0,
                hi: 128,
            },
            Request::Unsubscribe {
                session: 7,
                req: 5,
                watch: 9,
            },
            Request::StatsReq { session: 7, req: 6 },
            Request::NotifyAck {
                session: 7,
                cut_seq: 11,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk {
                session: 7,
                stripes: 4,
                capacity: 1024,
            },
            Response::PutOk { req: 1, epoch: 5 },
            Response::GetOk {
                req: 2,
                epoch: 5,
                from_replica: true,
                value: Some(vec![9; 62]),
            },
            Response::GetOk {
                req: 2,
                epoch: 5,
                from_replica: false,
                value: None,
            },
            Response::ScanOk {
                req: 3,
                pairs: vec![(1, vec![1]), (2, vec![2, 2])],
            },
            Response::SubOk {
                req: 4,
                watch: 9,
                from_epochs: vec![3, 0, 7, 2],
            },
            Response::UnsubOk { req: 5 },
            Response::StatsOk {
                req: 6,
                stats: WireStats {
                    sessions: 1,
                    watches: 2,
                    puts: 3,
                    gets: 4,
                    scans: 5,
                    notify_bundles: 6,
                    notify_events: 7,
                    cuts: 8,
                    replica_reads: 9,
                    primary_reads: 10,
                },
            },
            Response::Notify {
                cut_seq: 12,
                prev_seq: 10,
                events: vec![NotifyEvent {
                    watch: 9,
                    stripe: 1,
                    epoch: 6,
                    ranges: vec![(0, 64), (128, 192)],
                }],
            },
            Response::Err {
                req: 8,
                code: ErrCode::KeyOutOfRange,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for r in sample_requests() {
            let dg = encode_request(&r);
            assert_eq!(decode_requests(&dg).unwrap(), vec![r]);
        }
    }

    #[test]
    fn responses_round_trip_including_batches() {
        let all = sample_responses();
        for r in &all {
            let dg = encode_response(r);
            assert_eq!(decode_responses(&dg).unwrap(), vec![r.clone()]);
        }
        // One datagram carrying every frame, length-prefix framed.
        let mut dg = Vec::new();
        for r in &all {
            append_response(&mut dg, r);
        }
        assert_eq!(decode_responses(&dg).unwrap(), all);
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let mut dg = encode_request(&Request::Hello { staleness: 0 });
        let last = dg.len() - 1;
        dg[last] ^= 0xFF;
        assert_eq!(decode_requests(&dg), Err(WireError::BadChecksum));
        assert_eq!(
            decode_requests(&dg[..dg.len() - 1]),
            Err(WireError::Truncated)
        );
    }

    /// Every non-empty strict prefix of a one-frame datagram is
    /// `Truncated` (the length prefix promises more), and so is every
    /// strict prefix of its body framed on its own (the body reader runs
    /// off the end) — except where a vector's declared count outruns what
    /// the prefix could hold, which is `BadLength` before any read: the
    /// `SubOk` sample's four epochs against its 21-23 byte prefixes.
    #[test]
    fn every_strict_prefix_is_truncated() {
        let requests = sample_requests()
            .iter()
            .map(request_body)
            .collect::<Vec<_>>();
        let responses = sample_responses()
            .iter()
            .map(response_body)
            .collect::<Vec<_>>();
        for body in requests.into_iter().chain(responses) {
            let tag = body[0];
            let decode = |dg: &[u8]| match tag & 0x80 {
                0 => decode_requests(dg).map(drop),
                _ => decode_responses(dg).map(drop),
            };
            let mut dg = Vec::new();
            frame(&mut dg, &body);
            assert_eq!(decode(&dg), Ok(()), "tag {tag:#04x}");
            for len in 1..dg.len() {
                let got = decode(&dg[..len]);
                assert_eq!(
                    got,
                    Err(WireError::Truncated),
                    "tag {tag:#04x} cut at {len}"
                );
            }
            for len in 0..body.len() {
                let mut short = Vec::new();
                frame(&mut short, &body[..len]);
                let want = match tag == 0x85 && (21..24).contains(&len) {
                    true => WireError::BadLength,
                    false => WireError::Truncated,
                };
                assert_eq!(
                    decode(&short),
                    Err(want),
                    "tag {tag:#04x} body cut at {len}"
                );
            }
        }
    }

    /// Decoding arbitrary bytes never panics and never fabricates a
    /// checksummed frame by chance (64-bit checksum).
    #[test]
    fn random_bytes_never_panic_the_decoder() {
        let mut rng = StdRng::seed_from_u64(0xDEC0DE);
        for len in 0..200usize {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                *b = rng.gen_range(0..=255u32) as u8;
            }
            let _ = decode_requests(&buf);
            let _ = decode_responses(&buf);
        }
        // Mutated valid frames: single-byte flips anywhere must either
        // fail the checksum or still parse to *something*, never panic.
        let dg = encode_response(&sample_responses()[8].clone());
        for i in 0..dg.len() {
            let mut m = dg.clone();
            m[i] ^= 0x40;
            let _ = decode_responses(&m);
        }
    }

    #[test]
    fn merge_ranges_canonicalizes() {
        assert_eq!(
            merge_ranges(vec![(64, 128), (0, 64), (256, 320), (300, 330), (5, 5)]),
            vec![(0, 128), (256, 330)]
        );
        assert_eq!(merge_ranges(vec![]), vec![]);
    }
}
