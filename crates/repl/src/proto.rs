//! The replication wire protocol: self-delimiting messages, one or
//! more to a datagram.
//!
//! Nine message kinds move between a primary and each replica. Down the
//! link (primary → replica) a delta stream travels as a `Begin` carrying
//! the [`StreamHeader`], one `Frame` per page, and an `End` carrying the
//! [`StreamTrailer`] — the `msnap-snap` piecewise framing, so every page
//! keeps its own checksum and the trailer binds the stream — and
//! `CutAnnounce` names the primary's newest epoch-vector cut. Up the link
//! travel `Hello` (a replica announcing its per-object durable state),
//! `Ack` (a stream landed durably), and `Nak` (the pieces of a ship the
//! replica is still missing: its `Begin` and/or frames by sequence
//! number — selective repeat).
//!
//! Every encoding delimits itself, so a sender may pack several
//! messages back to back into one datagram and a receiver reads them off
//! the front one at a time. Messages are self-contained and
//! idempotent to retransmit: the link may drop, reorder, or duplicate
//! datagrams freely. Decoding never panics — bytes come off a network,
//! so a malformed message decodes to an error and the receiver drops it
//! with whatever followed it in its datagram.
//!
//! Two further kinds serve self-healing repair and travel in *either*
//! direction: `RepairRequest` asks the peer for a clean copy of one page
//! (named by object, page, and the expected content digest), and
//! `RepairResponse` carries the page back. Both are idempotent — a
//! duplicate response re-verifies against the digest and lands as a
//! no-op commit.

use msnap_disk::BLOCK_SIZE;
use msnap_sim::wire::{put_u64, Reader};
use msnap_snap::{Frame, SnapError, StreamHeader, StreamTrailer};
use msnap_store::Epoch;

const TAG_HELLO: u64 = 1;
pub(crate) const TAG_BEGIN: u64 = 2;
pub(crate) const TAG_FRAME: u64 = 3;
pub(crate) const TAG_END: u64 = 4;
const TAG_ACK: u64 = 5;
const TAG_NAK: u64 = 6;
const TAG_REPAIR_REQUEST: u64 = 7;
const TAG_REPAIR_RESPONSE: u64 = 8;
const TAG_CUT_ANNOUNCE: u64 = 9;
/// An `End` the primary's timer sent on its own (see [`Msg::End::probe`]).
pub(crate) const TAG_PROBE: u64 = 10;

/// Longest object name accepted off the wire (matches the store's
/// directory limit with slack); longer claims are malformed.
const MAX_NAME: usize = 256;
/// Most per-object entries a `Hello` may carry.
const MAX_OBJECTS: usize = 4096;
/// Most retained epochs one `Hello` entry may list.
const MAX_RETAINED: usize = 4096;
/// Most per-shard epochs one `CutAnnounce` may carry.
const MAX_CUT_EPOCHS: usize = 4096;
/// Most sequence numbers one `Nak` may name (it still fits a datagram);
/// a replica missing more asks again once these have arrived.
pub(crate) const MAX_NAK_SEQS: usize = 160;

/// One object's durable state as a replica reports it: the committed
/// epoch plus every epoch the replica retains as a pinned snapshot (the
/// candidate delta/rebase bases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectStatus {
    /// Store-directory name of the object.
    pub name: String,
    /// The replica's committed epoch for the object.
    pub epoch: Epoch,
    /// Epochs the replica retains as snapshots, ascending.
    pub retained: Vec<Epoch>,
}

/// A replication datagram. See the module docs above for the wire
/// framing and loss-recovery rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Replica → primary: full durable-state announcement, sent on
    /// attach and whenever the replica needs a resync (base mismatch,
    /// failed apply).
    Hello {
        /// Per-object durable state.
        objects: Vec<ObjectStatus>,
    },
    /// Primary → replica: a delta stream starts.
    Begin {
        /// Ship identifier, unique per engine lifetime.
        ship: u64,
        /// The stream's self-describing head.
        header: StreamHeader,
    },
    /// Primary → replica: one frame of the stream — byte runs of a page
    /// (a whole page is the one-run case) or a dedup reference (the wire
    /// forms are magic-dispatched).
    Frame {
        /// Ship the frame belongs to.
        ship: u64,
        /// The checksummed frame.
        frame: Frame,
    },
    /// Primary → replica: the stream's end marker.
    End {
        /// Ship the trailer closes.
        ship: u64,
        /// The primary's timer sent this `End` alone, long after anything
        /// else of the ship: no piece is still on its way, so the answer
        /// (`Ack`, or the `Nak` for what is missing) is due at once.
        probe: bool,
        /// The trailer binding every frame.
        trailer: StreamTrailer,
    },
    /// Replica → primary: the ship landed durably at `epoch`.
    Ack {
        /// The acknowledged ship.
        ship: u64,
        /// Object the ship updated.
        object: String,
        /// The replica's committed epoch after the apply.
        epoch: Epoch,
    },
    /// Replica → primary: the ship's `End` is in hand and these pieces
    /// are not — resend exactly them (and the `End`).
    Nak {
        /// The ship with holes.
        ship: u64,
        /// The `Begin` is missing.
        begin: bool,
        /// Missing frame sequence numbers, ascending.
        missing: Vec<u64>,
    },
    /// Either direction: ask the peer for a clean copy of one page whose
    /// local media rotted (scrub quarantined it with no local source).
    RepairRequest {
        /// Store-directory name of the object.
        object: String,
        /// The corrupt page.
        page: u64,
        /// Expected content digest ([`msnap_store::digest32`]); the
        /// responder only answers if its clean copy matches.
        page_digest: u32,
    },
    /// Primary → replica: the primary's newest durable epoch-vector cut
    /// (one epoch sum per shard). A replica records the newest cut whose
    /// every component it has reached; failover promotes only at such a
    /// cut, never at a state some shard has not caught up to. Idempotent
    /// and unordered: a stale announce is ignored by sequence number.
    CutAnnounce {
        /// Cut sequence number (monotone on the primary).
        seq: u64,
        /// Per-shard epoch sums at the cut.
        epochs: Vec<Epoch>,
    },
    /// Either direction: a clean page answering a `RepairRequest`. The
    /// receiver re-verifies `data` against its own expected digest
    /// before committing, so a stale or forged response cannot land.
    RepairResponse {
        /// Store-directory name of the object.
        object: String,
        /// The repaired page.
        page: u64,
        /// Digest of `data`, echoing the request.
        page_digest: u32,
        /// The clean page, exactly [`BLOCK_SIZE`] bytes.
        data: Vec<u8>,
    },
}

fn read_name(r: &mut Reader) -> Result<String, SnapError> {
    let len = r.u64()? as usize;
    if len > MAX_NAME {
        return Err(SnapError::Malformed);
    }
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| SnapError::Malformed)
}

/// A page digest travels as a `u64` whose high half must be zero.
fn read_digest(r: &mut Reader) -> Result<u32, SnapError> {
    u32::try_from(r.u64()?).map_err(|_| SnapError::Malformed)
}

/// Reads one `msnap-snap` wire piece off the front of `r`.
fn read_piece<T, D>(r: &mut Reader, decode: D) -> Result<T, SnapError>
where
    D: Fn(&[u8]) -> Result<(T, usize), SnapError>,
{
    let (piece, used) = decode(r.rest())?;
    r.take(used)?;
    Ok(piece)
}

/// A ship message — `tag`, the ship, one `msnap-snap` wire piece —
/// encoded from borrowed parts: a ship goes out straight from its
/// stream, never through an owned [`Msg`].
pub(crate) fn ship_msg(tag: u64, ship: u64, piece: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + piece.len());
    put_u64(&mut out, tag);
    put_u64(&mut out, ship);
    out.extend_from_slice(piece);
    out
}

/// Reads the messages packed into one datagram off its front, in order.
/// Nothing behind a malformed message can be delimited, so it ends the
/// datagram — that datagram only — and counts once in `malformed`; an
/// empty datagram is malformed too.
pub(crate) fn unpack<'a>(
    datagram: &'a [u8],
    malformed: &'a mut u64,
) -> impl Iterator<Item = Msg> + 'a {
    let mut rest = Some(datagram);
    std::iter::from_fn(move || match Msg::decode(rest?) {
        Ok((msg, used)) => {
            rest = rest.map(|r| &r[used..]).filter(|r| !r.is_empty());
            Some(msg)
        }
        Err(_) => {
            *malformed += 1;
            rest = None;
            None
        }
    })
}

impl Msg {
    /// Serializes the message (self-delimiting) to a datagram of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Hello { objects } => {
                put_u64(&mut out, TAG_HELLO);
                put_u64(&mut out, objects.len() as u64);
                for o in objects {
                    put_u64(&mut out, o.name.len() as u64);
                    out.extend_from_slice(o.name.as_bytes());
                    put_u64(&mut out, o.epoch);
                    put_u64(&mut out, o.retained.len() as u64);
                    for &e in &o.retained {
                        put_u64(&mut out, e);
                    }
                }
            }
            Msg::Begin { ship, header } => return ship_msg(TAG_BEGIN, *ship, &header.encode()),
            Msg::Frame { ship, frame } => return ship_msg(TAG_FRAME, *ship, &frame.encode()),
            Msg::End {
                ship,
                probe,
                trailer,
            } => {
                let tag = if *probe { TAG_PROBE } else { TAG_END };
                return ship_msg(tag, *ship, &trailer.encode());
            }
            Msg::Ack {
                ship,
                object,
                epoch,
            } => {
                put_u64(&mut out, TAG_ACK);
                put_u64(&mut out, *ship);
                put_u64(&mut out, object.len() as u64);
                out.extend_from_slice(object.as_bytes());
                put_u64(&mut out, *epoch);
            }
            Msg::Nak {
                ship,
                begin,
                missing,
            } => {
                put_u64(&mut out, TAG_NAK);
                put_u64(&mut out, *ship);
                put_u64(&mut out, u64::from(*begin));
                put_u64(&mut out, missing.len() as u64);
                for &seq in missing {
                    put_u64(&mut out, seq);
                }
            }
            Msg::RepairRequest {
                object,
                page,
                page_digest,
            } => {
                put_u64(&mut out, TAG_REPAIR_REQUEST);
                put_u64(&mut out, object.len() as u64);
                out.extend_from_slice(object.as_bytes());
                put_u64(&mut out, *page);
                put_u64(&mut out, *page_digest as u64);
            }
            Msg::CutAnnounce { seq, epochs } => {
                put_u64(&mut out, TAG_CUT_ANNOUNCE);
                put_u64(&mut out, *seq);
                put_u64(&mut out, epochs.len() as u64);
                for &e in epochs {
                    put_u64(&mut out, e);
                }
            }
            Msg::RepairResponse {
                object,
                page,
                page_digest,
                data,
            } => {
                assert_eq!(data.len(), BLOCK_SIZE, "repair payloads are one page");
                put_u64(&mut out, TAG_REPAIR_RESPONSE);
                put_u64(&mut out, object.len() as u64);
                out.extend_from_slice(object.as_bytes());
                put_u64(&mut out, *page);
                put_u64(&mut out, *page_digest as u64);
                out.extend_from_slice(data);
            }
        }
        out
    }

    /// Parses the message at the front of `buf`, returning it and the
    /// bytes it occupied. Never panics or over-allocates on malformed
    /// input — a receiver drops what this rejects.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for structural damage (truncation, bad
    /// tag, oversized claims).
    pub fn decode(buf: &[u8]) -> Result<(Msg, usize), SnapError> {
        let mut r = Reader::new(buf);
        let tag = r.u64()?;
        let msg = match tag {
            TAG_HELLO => {
                let count = r.u64()? as usize;
                if count > MAX_OBJECTS {
                    return Err(SnapError::Malformed);
                }
                let mut objects = Vec::with_capacity(count.min(buf.len() / 24 + 1));
                for _ in 0..count {
                    let name = read_name(&mut r)?;
                    let epoch = r.u64()?;
                    let n = r.u64()? as usize;
                    if n > MAX_RETAINED {
                        return Err(SnapError::Malformed);
                    }
                    let mut retained = Vec::with_capacity(n.min(buf.len() / 8 + 1));
                    for _ in 0..n {
                        retained.push(r.u64()?);
                    }
                    objects.push(ObjectStatus {
                        name,
                        epoch,
                        retained,
                    });
                }
                Msg::Hello { objects }
            }
            TAG_BEGIN => Msg::Begin {
                ship: r.u64()?,
                header: read_piece(&mut r, StreamHeader::decode)?,
            },
            TAG_FRAME => Msg::Frame {
                ship: r.u64()?,
                frame: read_piece(&mut r, Frame::decode)?,
            },
            TAG_END | TAG_PROBE => Msg::End {
                ship: r.u64()?,
                probe: tag == TAG_PROBE,
                trailer: read_piece(&mut r, StreamTrailer::decode)?,
            },
            TAG_ACK => Msg::Ack {
                ship: r.u64()?,
                object: read_name(&mut r)?,
                epoch: r.u64()?,
            },
            TAG_NAK => {
                let ship = r.u64()?;
                let begin = r.u64()? != 0;
                let n = r.u64()? as usize;
                if n > MAX_NAK_SEQS {
                    return Err(SnapError::Malformed);
                }
                let missing = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
                Msg::Nak {
                    ship,
                    begin,
                    missing,
                }
            }
            TAG_REPAIR_REQUEST => Msg::RepairRequest {
                object: read_name(&mut r)?,
                page: r.u64()?,
                page_digest: read_digest(&mut r)?,
            },
            TAG_CUT_ANNOUNCE => {
                let seq = r.u64()?;
                let n = r.u64()? as usize;
                if n > MAX_CUT_EPOCHS {
                    return Err(SnapError::Malformed);
                }
                let mut epochs = Vec::with_capacity(n.min(buf.len() / 8 + 1));
                for _ in 0..n {
                    epochs.push(r.u64()?);
                }
                Msg::CutAnnounce { seq, epochs }
            }
            TAG_REPAIR_RESPONSE => Msg::RepairResponse {
                object: read_name(&mut r)?,
                page: r.u64()?,
                page_digest: read_digest(&mut r)?,
                data: r.take(BLOCK_SIZE)?.to_vec(),
            },
            _ => return Err(SnapError::Malformed),
        };
        Ok((msg, r.at()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The messages a datagram yields, and whether it ended malformed.
    fn unpacked(datagram: &[u8]) -> (Vec<Msg>, bool) {
        let mut malformed = 0;
        let msgs = unpack(datagram, &mut malformed).collect();
        assert!(malformed <= 1, "a datagram is malformed once");
        (msgs, malformed == 1)
    }

    #[test]
    fn every_message_kind_round_trips() {
        let msgs = vec![
            Msg::Hello {
                objects: vec![
                    ObjectStatus {
                        name: "db".into(),
                        epoch: 17,
                        retained: vec![3, 9, 17],
                    },
                    ObjectStatus {
                        name: "__msnap_manifest".into(),
                        epoch: 2,
                        retained: vec![],
                    },
                ],
            },
            Msg::Ack {
                ship: 7,
                object: "db".into(),
                epoch: 42,
            },
            Msg::Nak {
                ship: 7,
                begin: true,
                missing: vec![0, 2, 13],
            },
            Msg::Nak {
                ship: 8,
                begin: false,
                missing: vec![],
            },
            Msg::End {
                ship: 9,
                probe: true,
                trailer: StreamTrailer {
                    frames: 4,
                    stream_sum: 0xDEAD,
                },
            },
            Msg::RepairRequest {
                object: "db".into(),
                page: 77,
                page_digest: 0xAB12_CD34,
            },
            Msg::CutAnnounce {
                seq: 12,
                epochs: vec![4, 0, 9, 2],
            },
            Msg::RepairResponse {
                object: "db".into(),
                page: 77,
                page_digest: 0xAB12_CD34,
                data: vec![0x5A; BLOCK_SIZE],
            },
        ];
        let mut packed = Vec::new();
        for m in &msgs {
            let wire = m.encode();
            assert_eq!(Msg::decode(&wire).unwrap(), (m.clone(), wire.len()));
            packed.extend_from_slice(&wire);
        }
        // Every encoding delimits itself: the kinds packed back to back
        // into one datagram read off its front in order.
        assert_eq!(unpacked(&packed), (msgs, false));
    }

    /// One sample of every message kind: the whole encoding reads back
    /// as the message, and every non-empty strict prefix of it is
    /// malformed — a truncated datagram never decodes, never panics.
    #[test]
    fn every_strict_prefix_of_every_kind_is_malformed() {
        let header = StreamHeader {
            object: "db".into(),
            base_epoch: Some(4),
            target_epoch: 5,
            len_pages: 16,
            frame_count: 2,
            cut: Some(msnap_store::VectorCut {
                seq: 3,
                epochs: vec![5, 1],
            }),
        };
        let sub = msnap_snap::SubPageFrame {
            seq: 0,
            page: 3,
            page_digest: 7,
            runs: vec![(64, 128)],
            method: 0,
            raw_len: 128,
            payload: vec![0xAB; 128],
            checksum: 9,
        };
        let reference = msnap_snap::RefFrame {
            seq: 1,
            page: 4,
            digest: 5,
            checksum: 6,
        };
        let trailer = StreamTrailer {
            frames: 2,
            stream_sum: 8,
        };
        let msgs = [
            Msg::Hello {
                objects: vec![ObjectStatus {
                    name: "db".into(),
                    epoch: 17,
                    retained: vec![3, 9],
                }],
            },
            Msg::Begin { ship: 2, header },
            Msg::Frame {
                ship: 2,
                frame: Frame::Sub(sub),
            },
            Msg::Frame {
                ship: 2,
                frame: Frame::Ref(reference),
            },
            Msg::End {
                ship: 2,
                probe: false,
                trailer,
            },
            Msg::End {
                ship: 2,
                probe: true,
                trailer,
            },
            Msg::Ack {
                ship: 2,
                object: "db".into(),
                epoch: 5,
            },
            Msg::Nak {
                ship: 2,
                begin: true,
                missing: vec![1],
            },
            Msg::RepairRequest {
                object: "db".into(),
                page: 3,
                page_digest: 7,
            },
            Msg::CutAnnounce {
                seq: 3,
                epochs: vec![5, 1],
            },
            Msg::RepairResponse {
                object: "db".into(),
                page: 3,
                page_digest: 7,
                data: vec![1; BLOCK_SIZE],
            },
        ];
        for m in msgs {
            let wire = m.encode();
            assert_eq!(Msg::decode(&wire), Ok((m.clone(), wire.len())));
            for len in 1..wire.len() {
                let got = Msg::decode(&wire[..len]);
                assert_eq!(got, Err(SnapError::Malformed), "{m:?} cut at {len}");
            }
        }
    }

    #[test]
    fn malformed_repair_datagrams_are_rejected() {
        let ok = Msg::RepairResponse {
            object: "db".into(),
            page: 3,
            page_digest: 7,
            data: vec![1; BLOCK_SIZE],
        }
        .encode();
        // Truncations at every boundary, including a short payload.
        for len in [0, 8, 9, ok.len() - BLOCK_SIZE, ok.len() - 1] {
            assert!(Msg::decode(&ok[..len]).is_err());
        }
        // Trailing garbage after the page payload: the message reads off
        // the front, the tail is what is malformed.
        let mut long = ok.clone();
        long.push(0);
        let (got, malformed) = unpacked(&long);
        assert!(matches!(got[..], [Msg::RepairResponse { .. }]) && malformed);
        // A digest claim that does not fit 32 bits.
        let mut req = Vec::new();
        put_u64(&mut req, TAG_REPAIR_REQUEST);
        put_u64(&mut req, 1);
        req.push(b'x');
        put_u64(&mut req, 0); // page
        put_u64(&mut req, u64::MAX); // digest out of range
        assert!(Msg::decode(&req).is_err());
    }

    #[test]
    fn retired_full_page_frame_datagram_is_malformed() {
        // A `Frame` datagram carrying the retired full-page frame form
        // (magic, seq, page, checksum, 4 KiB image): one generation of
        // every format, so it is dropped as malformed, never staged.
        let data = vec![0x5Au8; BLOCK_SIZE];
        let mut sum = msnap_store::fnv1a(&0u64.to_le_bytes());
        sum = msnap_store::fnv1a_extend(sum, &7u64.to_le_bytes());
        let mut wire = Vec::new();
        put_u64(&mut wire, TAG_FRAME);
        put_u64(&mut wire, 1); // ship
        put_u64(&mut wire, 0x4d534e_41504446); // "MSN APDF"
        put_u64(&mut wire, 0); // seq
        put_u64(&mut wire, 7); // page
        put_u64(&mut wire, msnap_store::fnv1a_extend(sum, &data));
        wire.extend_from_slice(&data);
        assert_eq!(Msg::decode(&wire), Err(SnapError::Malformed));
    }

    fn ship_datagram() -> (Vec<Msg>, Vec<u8>) {
        let header = StreamHeader {
            object: "db".into(),
            base_epoch: Some(4),
            target_epoch: 5,
            len_pages: 16,
            frame_count: 0,
            cut: None,
        };
        let trailer = StreamTrailer {
            frames: 0,
            stream_sum: msnap_store::FNV_OFFSET,
        };
        let mut wire = ship_msg(TAG_BEGIN, 3, &header.encode());
        wire.extend(ship_msg(TAG_END, 3, &trailer.encode()));
        wire.extend(
            Msg::Nak {
                ship: 3,
                begin: false,
                missing: vec![1, 5],
            }
            .encode(),
        );
        let (msgs, malformed) = unpacked(&wire);
        assert!(!malformed);
        assert_eq!(msgs[0], Msg::Begin { ship: 3, header });
        let (ship, probe) = (3, false);
        assert_eq!(
            msgs[1],
            Msg::End {
                ship,
                probe,
                trailer
            }
        );
        (msgs, wire)
    }

    /// Packed decode: whatever is done to a datagram, the receiver gets
    /// the valid prefix, one error for the rest, no panic and no
    /// allocation beyond what the bytes hold.
    #[test]
    fn damaged_packed_datagrams_yield_the_valid_prefix() {
        let (msgs, wire) = ship_datagram();
        let bounds: Vec<usize> = msgs
            .iter()
            .scan(0, |at, m| {
                *at += m.encode().len();
                Some(*at)
            })
            .collect();
        assert_eq!(*bounds.last().unwrap(), wire.len());
        // Truncated anywhere: the messages wholly inside survive, and a
        // cut that is not a message boundary is malformed.
        for len in 0..wire.len() {
            let whole = bounds.iter().filter(|&&b| b <= len).count();
            let want = (msgs[..whole].to_vec(), !bounds.contains(&len));
            assert_eq!(unpacked(&wire[..len]), want, "cut at {len}");
        }
        // One bit flipped anywhere: everything before the damaged message
        // is intact (what follows may still frame, or not — never a panic).
        let mut state = 0x9E37_79B9u64;
        for at in 0..wire.len() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(at as u64);
            let mut bad = wire.clone();
            bad[at] ^= 1 << (state >> 61);
            let (got, _) = unpacked(&bad);
            let before = bounds.iter().filter(|&&b| b <= at).count();
            assert!(got.len() >= before && got.len() <= msgs.len());
            assert_eq!(got[..before], msgs[..before], "flip at {at}");
        }
        // Over-long: junk behind the last message costs only itself.
        for junk in [&[0u8][..], &[0xFF; 9], &TAG_NAK.to_le_bytes()] {
            let mut long = wire.clone();
            long.extend_from_slice(junk);
            assert_eq!(unpacked(&long), (msgs.clone(), true));
        }
    }

    #[test]
    fn nak_lists_are_bounded_at_decode() {
        let nak = |seqs: &[u64]| {
            let mut wire = Vec::new();
            for v in [TAG_NAK, 9, 0, seqs.len() as u64] {
                put_u64(&mut wire, v);
            }
            seqs.iter().for_each(|&s| put_u64(&mut wire, s));
            Msg::decode(&wire)
        };
        let full: Vec<u64> = (0..MAX_NAK_SEQS as u64).collect();
        assert!(nak(&full).is_ok());
        let over: Vec<u64> = (0..=MAX_NAK_SEQS as u64).collect();
        assert_eq!(nak(&over), Err(SnapError::Malformed), "over-long list");
        // A count the bytes do not hold drives no allocation past the cap.
        for lying in [[TAG_NAK, 9, 0, u64::MAX], [TAG_NAK, 9, 0, 100]] {
            let mut wire = Vec::new();
            lying.iter().for_each(|&v| put_u64(&mut wire, v));
            assert_eq!(Msg::decode(&wire), Err(SnapError::Malformed));
        }
    }

    #[test]
    fn garbage_datagrams_decode_to_errors_not_panics() {
        assert!(Msg::decode(&[]).is_err());
        assert!(Msg::decode(&[0u8; 7]).is_err());
        assert!(Msg::decode(&99u64.to_le_bytes()).is_err());
        // A Hello lying about its counts must not over-allocate.
        let mut lying = Vec::new();
        put_u64(&mut lying, TAG_HELLO);
        put_u64(&mut lying, u64::MAX);
        assert!(Msg::decode(&lying).is_err());
        // Likewise a CutAnnounce claiming an absurd epoch count, or one
        // truncated mid-vector.
        let mut lying = Vec::new();
        put_u64(&mut lying, TAG_CUT_ANNOUNCE);
        put_u64(&mut lying, 1); // seq
        put_u64(&mut lying, u64::MAX);
        assert!(Msg::decode(&lying).is_err());
        let cut = Msg::CutAnnounce {
            seq: 3,
            epochs: vec![1, 2, 3],
        }
        .encode();
        for len in 0..cut.len() {
            assert!(Msg::decode(&cut[..len]).is_err());
        }
        let ok = Msg::Ack {
            ship: 1,
            object: "x".into(),
            epoch: 5,
        }
        .encode();
        for len in 0..ok.len() {
            assert!(Msg::decode(&ok[..len]).is_err());
        }
        for stride in [1usize, 5, 11] {
            let mut bad = ok.clone();
            for i in (0..bad.len()).step_by(stride) {
                bad[i] ^= 0xA5;
            }
            let _ = Msg::decode(&bad);
        }
    }
}
