//! The msnap-serve wire protocol: length-prefixed, checksummed frames
//! over [`msnap_sim::SimLink`] datagrams.
//!
//! A datagram carries one or more *frames*; each frame is
//!
//! ```text
//! [body_len: varint][fnv1a(body): u64 LE][body]
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
//! Every integer in a body — ids, keys, epochs, counters, and the
//! lengths of strings, values and vectors — is an unsigned LEB128
//! varint ([`msnap_sim::wire`]), so a field costs its significant bytes:
//! a key under 128 is one byte. Each value has one accepted spelling, the
//! shortest; a padded or over-64-bit varint is [`WireError::NonCanonical`]
//! even under a valid checksum. Tags, the error code and the two flags of
//! a `GetOk` are single bytes, and a flag is 0 or 1. The frame checksum
//! is the one fixed-width field. A declared count is checked against the
//! smallest encoding of that many elements in the rest of the body
//! before anything is allocated.

use msnap_sim::wire::{put_u64, put_varint, Reader, Short, VarintError, MAX_VARINT_BYTES};
use msnap_store::fnv1a;

/// Hard cap on one stored value; a slot is 64 bytes with 2 bytes of
/// header (see [`crate::server`]).
pub const MAX_VALUE_BYTES: usize = 62;

/// Hard cap on a tenant name on the wire.
pub const MAX_TENANT_BYTES: usize = 128;

/// The most bytes a frame header takes: a varint length and the checksum.
const MAX_FRAME_HEADER: usize = MAX_VARINT_BYTES + 8;

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
    /// A varint that is not its value's shortest spelling, or is over
    /// 64 bits.
    NonCanonical,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::BadChecksum => f.write_str("frame checksum mismatch"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadLength => f.write_str("length field out of bounds"),
            WireError::BadString => f.write_str("invalid UTF-8 in string field"),
            WireError::NonCanonical => f.write_str("varint not in its shortest spelling"),
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

/// A string or value: its length, then its bytes.
fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_varint(buf, v.len() as u64);
    buf.extend_from_slice(v);
}

fn put_varints(buf: &mut Vec<u8>, vs: &[u64]) {
    for &v in vs {
        put_varint(buf, v);
    }
}

/// Appends one framed message body to `out`.
fn frame(out: &mut Vec<u8>, body: &[u8]) {
    put_varint(out, body.len() as u64);
    put_u64(out, fnv1a(body));
    out.extend_from_slice(body);
}

fn request_body(r: &Request) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    match r {
        Request::Hello { staleness } => {
            b.push(0x01);
            put_varint(&mut b, *staleness);
        }
        Request::Put {
            session,
            req,
            tenant,
            key,
            value,
        } => {
            b.push(0x02);
            put_varints(&mut b, &[*session, *req]);
            put_bytes(&mut b, tenant.as_bytes());
            put_varint(&mut b, *key);
            put_bytes(&mut b, value);
        }
        Request::Get {
            session,
            req,
            tenant,
            key,
        } => {
            b.push(0x03);
            put_varints(&mut b, &[*session, *req]);
            put_bytes(&mut b, tenant.as_bytes());
            put_varint(&mut b, *key);
        }
        Request::Scan {
            session,
            req,
            tenant,
            lo,
            hi,
        } => {
            b.push(0x04);
            put_varints(&mut b, &[*session, *req]);
            put_bytes(&mut b, tenant.as_bytes());
            put_varints(&mut b, &[*lo, *hi]);
        }
        Request::Subscribe {
            session,
            req,
            tenant,
            lo,
            hi,
        } => {
            b.push(0x05);
            put_varints(&mut b, &[*session, *req]);
            put_bytes(&mut b, tenant.as_bytes());
            put_varints(&mut b, &[*lo, *hi]);
        }
        Request::Unsubscribe {
            session,
            req,
            watch,
        } => {
            b.push(0x06);
            put_varints(&mut b, &[*session, *req, *watch]);
        }
        Request::StatsReq { session, req } => {
            b.push(0x07);
            put_varints(&mut b, &[*session, *req]);
        }
        Request::NotifyAck { session, cut_seq } => {
            b.push(0x08);
            put_varints(&mut b, &[*session, *cut_seq]);
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
            put_varints(&mut b, &[*session, *stripes, *capacity]);
        }
        Response::PutOk { req, epoch } => {
            b.push(0x82);
            put_varints(&mut b, &[*req, *epoch]);
        }
        Response::GetOk {
            req,
            epoch,
            from_replica,
            value,
        } => {
            b.push(0x83);
            put_varints(&mut b, &[*req, *epoch]);
            b.push(u8::from(*from_replica));
            match value {
                Some(v) => {
                    b.push(1);
                    put_bytes(&mut b, v);
                }
                None => b.push(0),
            }
        }
        Response::ScanOk { req, pairs } => {
            b.push(0x84);
            put_varints(&mut b, &[*req, pairs.len() as u64]);
            for (k, v) in pairs {
                put_varint(&mut b, *k);
                put_bytes(&mut b, v);
            }
        }
        Response::SubOk {
            req,
            watch,
            from_epochs,
        } => {
            b.push(0x85);
            put_varints(&mut b, &[*req, *watch, from_epochs.len() as u64]);
            put_varints(&mut b, from_epochs);
        }
        Response::UnsubOk { req } => {
            b.push(0x86);
            put_varint(&mut b, *req);
        }
        Response::StatsOk { req, stats } => {
            b.push(0x87);
            put_varints(
                &mut b,
                &[
                    *req,
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
                ],
            );
        }
        Response::Notify {
            cut_seq,
            prev_seq,
            events,
        } => {
            b.push(0x88);
            put_varints(&mut b, &[*cut_seq, *prev_seq, events.len() as u64]);
            for e in events {
                put_varints(&mut b, &[e.watch, e.stripe, e.epoch, e.ranges.len() as u64]);
                for &(lo, hi) in &e.ranges {
                    put_varints(&mut b, &[lo, hi]);
                }
            }
        }
        Response::Err { req, code } => {
            b.push(0x89);
            put_varint(&mut b, *req);
            b.push(code.to_byte());
        }
    }
    b
}

/// Encodes one request as a single-frame datagram.
pub fn encode_request(r: &Request) -> Vec<u8> {
    let body = request_body(r);
    let mut out = Vec::with_capacity(MAX_FRAME_HEADER + body.len());
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

impl From<VarintError> for WireError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Short => WireError::Truncated,
            VarintError::NonCanonical => WireError::NonCanonical,
        }
    }
}

/// `n` as a length, if it is at most `cap`.
fn bounded(n: u64, cap: usize) -> Result<usize, WireError> {
    match usize::try_from(n) {
        Ok(n) if n <= cap => Ok(n),
        _ => Err(WireError::BadLength),
    }
}

/// A length of at most `cap`.
fn read_len(r: &mut Reader, cap: usize) -> Result<usize, WireError> {
    bounded(r.varint()?, cap)
}

/// A vector's element count, refused before anything is allocated when
/// the rest of the body cannot hold that many elements of at least
/// `min` bytes each.
fn read_count(r: &mut Reader, min: usize) -> Result<usize, WireError> {
    let n = r.varint()?;
    bounded(n, r.rest().len() / min)
}

fn read_str(r: &mut Reader) -> Result<String, WireError> {
    let n = read_len(r, MAX_TENANT_BYTES)?;
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| WireError::BadString)
}

/// A value: a length of at most `cap`, then that many bytes.
fn read_val(r: &mut Reader, cap: usize) -> Result<Vec<u8>, WireError> {
    let n = read_len(r, cap)?;
    Ok(r.take(n)?.to_vec())
}

/// A flag byte: 0 or 1.
fn read_flag(r: &mut Reader) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

/// Splits a datagram into checksum-verified frame bodies.
fn deframe(datagram: &[u8]) -> Result<Vec<&[u8]>, WireError> {
    let mut r = Reader::new(datagram);
    let mut bodies = Vec::new();
    while !r.rest().is_empty() {
        // A length past `usize` runs past the datagram like any other.
        let len = usize::try_from(r.varint()?).unwrap_or(usize::MAX);
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
            staleness: r.varint()?,
        },
        0x02 => Request::Put {
            session: r.varint()?,
            req: r.varint()?,
            tenant: read_str(&mut r)?,
            key: r.varint()?,
            // Bounded by the body alone: the server answers an
            // oversized value with `ErrCode::ValueTooLarge`.
            value: read_val(&mut r, usize::MAX)?,
        },
        0x03 => Request::Get {
            session: r.varint()?,
            req: r.varint()?,
            tenant: read_str(&mut r)?,
            key: r.varint()?,
        },
        0x04 => Request::Scan {
            session: r.varint()?,
            req: r.varint()?,
            tenant: read_str(&mut r)?,
            lo: r.varint()?,
            hi: r.varint()?,
        },
        0x05 => Request::Subscribe {
            session: r.varint()?,
            req: r.varint()?,
            tenant: read_str(&mut r)?,
            lo: r.varint()?,
            hi: r.varint()?,
        },
        0x06 => Request::Unsubscribe {
            session: r.varint()?,
            req: r.varint()?,
            watch: r.varint()?,
        },
        0x07 => Request::StatsReq {
            session: r.varint()?,
            req: r.varint()?,
        },
        0x08 => Request::NotifyAck {
            session: r.varint()?,
            cut_seq: r.varint()?,
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
            session: r.varint()?,
            stripes: r.varint()?,
            capacity: r.varint()?,
        },
        0x82 => Response::PutOk {
            req: r.varint()?,
            epoch: r.varint()?,
        },
        0x83 => Response::GetOk {
            req: r.varint()?,
            epoch: r.varint()?,
            from_replica: read_flag(&mut r)?,
            value: match read_flag(&mut r)? {
                false => None,
                true => Some(read_val(&mut r, MAX_VALUE_BYTES)?),
            },
        },
        0x84 => {
            let req = r.varint()?;
            // A pair is a key and a value length: at least 2 bytes.
            let n = read_count(&mut r, 2)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.varint()?, read_val(&mut r, MAX_VALUE_BYTES)?));
            }
            Response::ScanOk { req, pairs }
        }
        0x85 => {
            let req = r.varint()?;
            let watch = r.varint()?;
            let n = read_count(&mut r, 1)?;
            let mut from_epochs = Vec::with_capacity(n);
            for _ in 0..n {
                from_epochs.push(r.varint()?);
            }
            Response::SubOk {
                req,
                watch,
                from_epochs,
            }
        }
        0x86 => Response::UnsubOk { req: r.varint()? },
        0x87 => {
            let req = r.varint()?;
            let mut v = [0u64; 10];
            for slot in &mut v {
                *slot = r.varint()?;
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
            let cut_seq = r.varint()?;
            let prev_seq = r.varint()?;
            // An event is a watch, a stripe, an epoch and a range count.
            let n = read_count(&mut r, 4)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let watch = r.varint()?;
                let stripe = r.varint()?;
                let epoch = r.varint()?;
                // A range is two bounds.
                let m = read_count(&mut r, 2)?;
                let mut ranges = Vec::with_capacity(m);
                for _ in 0..m {
                    ranges.push((r.varint()?, r.varint()?));
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
            req: r.varint()?,
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
            let mut dg = Vec::new();
            append_response(&mut dg, r);
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
    /// the rest of the prefix could hold at the count's per-element
    /// minimum, which is `BadLength` before any element is read: the
    /// `ScanOk` sample's two pairs (2 bytes each) against its 3-6 byte
    /// prefixes, the `SubOk` sample's four epochs (1 byte each) against
    /// its 4-7 byte prefixes, and the `Notify` sample's one event
    /// (4 bytes) and then its two ranges (2 bytes each) against its 4-11
    /// byte prefixes.
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
            let bad_length = match tag {
                0x84 => 3..7,
                0x85 => 4..8,
                0x88 => 4..12,
                _ => 0..0,
            };
            for len in 0..body.len() {
                let mut short = Vec::new();
                frame(&mut short, &body[..len]);
                let want = match bad_length.contains(&len) {
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

    /// Every message with every integer field, count element and length
    /// set to `v`'s extreme: `v` itself, and the empty or longest string
    /// and value.
    fn extremes(v: u64) -> (Vec<Request>, Vec<Response>) {
        let (tenant, value) = match v {
            0 => (String::new(), Vec::new()),
            _ => ("t".repeat(MAX_TENANT_BYTES), vec![0xFF; MAX_VALUE_BYTES]),
        };
        let requests = vec![
            Request::Hello { staleness: v },
            Request::Put {
                session: v,
                req: v,
                tenant: tenant.clone(),
                key: v,
                value: value.clone(),
            },
            Request::Get {
                session: v,
                req: v,
                tenant: tenant.clone(),
                key: v,
            },
            Request::Scan {
                session: v,
                req: v,
                tenant: tenant.clone(),
                lo: v,
                hi: v,
            },
            Request::Subscribe {
                session: v,
                req: v,
                tenant,
                lo: v,
                hi: v,
            },
            Request::Unsubscribe {
                session: v,
                req: v,
                watch: v,
            },
            Request::StatsReq { session: v, req: v },
            Request::NotifyAck {
                session: v,
                cut_seq: v,
            },
        ];
        let responses = vec![
            Response::HelloOk {
                session: v,
                stripes: v,
                capacity: v,
            },
            Response::PutOk { req: v, epoch: v },
            Response::GetOk {
                req: v,
                epoch: v,
                from_replica: v != 0,
                value: Some(value.clone()),
            },
            Response::ScanOk {
                req: v,
                pairs: vec![(v, value.clone()), (v, value)],
            },
            Response::SubOk {
                req: v,
                watch: v,
                from_epochs: vec![v; 3],
            },
            Response::UnsubOk { req: v },
            Response::StatsOk {
                req: v,
                stats: WireStats {
                    sessions: v,
                    watches: v,
                    puts: v,
                    gets: v,
                    scans: v,
                    notify_bundles: v,
                    notify_events: v,
                    cuts: v,
                    replica_reads: v,
                    primary_reads: v,
                },
            },
            Response::Notify {
                cut_seq: v,
                prev_seq: v,
                events: vec![
                    NotifyEvent {
                        watch: v,
                        stripe: v,
                        epoch: v,
                        ranges: vec![(v, v); 2],
                    };
                    2
                ],
            },
            Response::Err {
                req: v,
                code: ErrCode::BadRequest,
            },
        ];
        (requests, responses)
    }

    #[test]
    fn every_field_round_trips_at_zero_and_at_u64_max() {
        for v in [0, u64::MAX] {
            let (requests, responses) = extremes(v);
            for r in requests {
                let dg = encode_request(&r);
                assert_eq!(decode_requests(&dg), Ok(vec![r]));
            }
            let mut batch = Vec::new();
            for r in &responses {
                append_response(&mut batch, r);
            }
            assert_eq!(decode_responses(&batch), Ok(responses));
        }
        // A field costs its significant bytes: 1 at zero, 10 at u64::MAX.
        let put_ok = |v| response_body(&Response::PutOk { req: v, epoch: v }).len();
        assert_eq!((put_ok(0), put_ok(u64::MAX)), (1 + 2, 1 + 2 * 10));
    }

    /// Flipping any one bit of any sample datagram — header, checksum or
    /// body — is a typed error: never a panic, and never a message.
    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let (max_requests, max_responses) = extremes(u64::MAX);
        let mut datagrams: Vec<(bool, Vec<u8>)> = sample_requests()
            .iter()
            .chain(&max_requests)
            .map(|r| (false, encode_request(r)))
            .collect();
        let mut batch = Vec::new();
        for r in sample_responses().iter().chain(&max_responses) {
            let mut dg = Vec::new();
            append_response(&mut dg, r);
            append_response(&mut batch, r);
            datagrams.push((true, dg));
        }
        datagrams.push((true, batch));
        for (response, dg) in datagrams {
            for bit in 0..dg.len() * 8 {
                let mut m = dg.clone();
                m[bit / 8] ^= 1 << (bit % 8);
                let got = match response {
                    false => decode_requests(&m).map(drop),
                    true => decode_responses(&m).map(drop),
                };
                assert!(got.is_err(), "bit {bit} of {dg:x?}");
            }
        }
    }

    /// The parser itself refuses a second spelling of a value: each body
    /// below carries a valid checksum.
    #[test]
    fn a_second_spelling_under_a_valid_checksum_is_refused() {
        let framed = |body: &[u8]| {
            let mut dg = Vec::new();
            frame(&mut dg, body);
            dg
        };
        // `PutOk { req: 1, epoch: 5 }`, then with `req` padded to 2 bytes.
        assert_eq!(
            decode_responses(&framed(&[0x82, 0x01, 0x05])),
            Ok(vec![Response::PutOk { req: 1, epoch: 5 }])
        );
        assert_eq!(
            decode_responses(&framed(&[0x82, 0x81, 0x00, 0x05])),
            Err(WireError::NonCanonical)
        );
        // A padded tenant length, and a staleness over 64 bits.
        assert_eq!(
            decode_requests(&framed(&[0x03, 1, 1, 0x80, 0x00, 7])),
            Err(WireError::NonCanonical)
        );
        let mut hello = vec![0x01];
        hello.extend([0xFF; 9]);
        hello.push(0x02);
        assert_eq!(
            decode_requests(&framed(&hello)),
            Err(WireError::NonCanonical)
        );
        // A padded frame length.
        let body = [0x82, 0x01, 0x05];
        let mut dg = vec![0x80 | body.len() as u8, 0x00];
        dg.extend(fnv1a(&body).to_le_bytes());
        dg.extend(body);
        assert_eq!(decode_responses(&dg), Err(WireError::NonCanonical));
        // A flag is 0 or 1: 2 is not a second spelling of `true`.
        assert_eq!(
            decode_responses(&framed(&[0x83, 1, 5, 2, 0])),
            Err(WireError::BadTag(2))
        );
        assert_eq!(
            decode_responses(&framed(&[0x83, 1, 5, 1, 2])),
            Err(WireError::BadTag(2))
        );
    }

    /// A declared count past what the rest of the body can hold at the
    /// element's minimum size is `BadLength`. The counts below are
    /// `u64::MAX`: allocating for one first would abort the test.
    #[test]
    fn a_count_the_body_cannot_hold_is_refused_before_allocation() {
        let huge = |prefix: &[u8]| {
            let mut body = prefix.to_vec();
            put_varint(&mut body, u64::MAX);
            body.extend([0; 16]);
            let mut dg = Vec::new();
            frame(&mut dg, &body);
            decode_responses(&dg)
        };
        // ScanOk pairs, SubOk epochs, Notify events, an event's ranges.
        for prefix in [
            &[0x84, 1][..],
            &[0x85, 1, 1],
            &[0x88, 1, 0],
            &[0x88, 1, 0, 1, 1, 0, 1],
        ] {
            assert_eq!(huge(prefix), Err(WireError::BadLength), "{prefix:x?}");
        }
        // At the minimum, the count is exact: three 1-byte epochs fit in
        // three bytes, and a fourth is refused before any is read.
        let sub_ok = |n: u8| {
            let mut dg = Vec::new();
            frame(&mut dg, &[0x85, 1, 1, n, 7, 7, 7]);
            decode_responses(&dg)
        };
        assert_eq!(
            sub_ok(3),
            Ok(vec![Response::SubOk {
                req: 1,
                watch: 1,
                from_epochs: vec![7; 3]
            }])
        );
        assert_eq!(sub_ok(4), Err(WireError::BadLength));
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
