//! Snapshot shipping: checksummed, resumable delta streams between a
//! primary [`ObjectStore`] and a replica.
//!
//! The store layer retains named epoch snapshots
//! ([`ObjectStore::snapshot_create`]) and can structurally diff two
//! retained epochs in time proportional to what changed
//! ([`ObjectStore::snapshot_diff`]). This crate turns that diff into a
//! **delta stream** — a self-describing framed byte sequence — and
//! applies it on a replica as **one crash-atomic commit**:
//!
//! - [`DeltaStream::build`] reads the changed pages of a retained target
//!   snapshot (relative to a retained base, or the empty image for a
//!   full sync) and frames them: a checksummed header, one checksummed
//!   frame per page, and a trailer binding the whole stream. The wire
//!   bytes are proportional to the bytes that changed: there is one
//!   payload frame, the [`SubPageFrame`] — byte runs of a page (only its
//!   changed 64-byte lines, exactly diffed against the base; a whole
//!   page is the one-run case), their payload (compressed per frame
//!   when that pays, stored otherwise) and the patched page's digest —
//!   and a per-link [`DedupTable`] lets pages whose content was already
//!   shipped travel as ~40-byte [`RefFrame`]s.
//! - [`DeltaStream::build_live`] is the same frame assembly behind a
//!   second front door: it ships an object's **current** epoch against
//!   the epoch a replica acknowledged, taking the pages and line masks
//!   from the dirty-line record the commits in between left behind and
//!   the bytes from verified reads of the live object — no snapshot on
//!   either side of the diff. Continuous replication ships this way.
//! - [`ApplySession`] consumes frames one at a time on the replica side,
//!   validating sequence numbers and checksums as it goes. A truncated
//!   transfer resumes from [`ApplySession::next_seq`] — already-fed
//!   frames are not re-shipped.
//! - [`ApplySession::finish`] verifies the trailer, resolves every
//!   frame one way (pre-image unless the frame covers the whole page,
//!   scatter the runs, check the digest) and lands the pages through
//!   [`ObjectStore::apply_image`] at the stream's target epoch. The root-record write is the single commit point, so
//!   a crash mid-apply leaves the replica at exactly its previous epoch
//!   or exactly the target epoch — never between.
//! - [`sync_to`] is the one-call driver: incremental when the replica's
//!   epoch matches a retained base snapshot on the primary, full-sync
//!   fallback when that base is gone.
//!
//! Every wire structure also encodes and decodes **piecewise**
//! ([`StreamHeader::encode`], [`Frame::encode`],
//! [`StreamTrailer::encode`]), so a replication transport can ship each
//! frame as its own datagram over a lossy link and resume from
//! [`ApplySession::next_seq`] after drops. The decode path never
//! panics on malformed bytes — an arbitrary byte string from the
//! network produces [`SnapError::Malformed`], not a crashed replica.
//!
//! For failover, [`ApplySession::begin`] also accepts a **rebase**: if
//! the stream's base epoch does not match the replica's live epoch but
//! the replica retains a snapshot at exactly that epoch (replication
//! keeps such anchors on both ends for this),
//! the session lands through [`ObjectStore::apply_image`] with that
//! snapshot as its base, atomically abandoning the replica's divergent
//! history.
//!
//! The stream's frame checksums protect bytes **in flight**; at-rest
//! integrity on the replica is the store's own: `apply_image`
//! recomputes the Merkle-chained page digests as it commits the staged
//! pages, so a landed stream is immediately covered by the replica's
//! scrub and read-path verification with no trust carried over from
//! the wire (DESIGN.md §6g).
//!
//! # Module map
//!
//! - `codec.rs`: the wire forms — [`StreamHeader`], [`SubPageFrame`],
//!   [`RefFrame`], [`Frame`], [`StreamTrailer`] and [`DeltaStream`]'s
//!   encode / decode.
//! - `dedup.rs`: [`DedupTable`].
//! - `assemble.rs`: [`DeltaStream::build`], [`DeltaStream::build_live`]
//!   and the frame-assembly loop they share.
//! - `apply.rs`: [`ApplySession`], [`retained_at`] and [`sync_to`].
//! - `compress.rs`: the per-frame payload compressor.

#![warn(missing_docs)]

mod apply;
mod assemble;
mod codec;
mod compress;
mod dedup;

pub use apply::{retained_at, sync_to, ApplySession, SyncReport};
pub use codec::{
    DeltaStream, Frame, RefFrame, StreamHeader, StreamTrailer, SubPageFrame, WireSavings,
};
pub use dedup::DedupTable;

use codec::chain_sum;

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use msnap_disk::{Disk, BLOCK_SIZE};
use msnap_sim::wire::{put_u16, put_u32, put_u64, Reader, Short};
use msnap_sim::Vt;
use msnap_store::lines::{gather, line_runs, scatter, LINES_PER_PAGE, LINE_SIZE};
use msnap_store::{
    fnv1a, fnv1a_extend, CommitToken, Epoch, ObjectId, ObjectStore, StoreError, VectorCut,
};

/// Magic number opening a stream header.
const STREAM_MAGIC: u64 = 0x4d534e_41504532; // "MSN APE2"
/// Magic number opening each payload frame.
const SUB_FRAME_MAGIC: u64 = 0x4d534e_41505346; // "MSN APSF"
/// Magic number opening each dedup-reference frame.
const REF_FRAME_MAGIC: u64 = 0x4d534e_41505246; // "MSN APRF"
/// Magic number opening the stream trailer.
const TRAILER_MAGIC: u64 = 0x4d534e_41504454 ^ 0xFF; // distinct from records

/// Encoded header size before the object-name and cut-epoch bytes.
const HEADER_FIXED: usize = 80;
/// Streams refuse to name a cut wider than the store's shard ceiling —
/// an attacker-controlled epoch count must not drive an allocation.
const MAX_CUT_EPOCHS: u64 = msnap_store::MAX_SHARDS as u64;
/// Encoded size of a payload frame before its runs and payload.
const SUB_FIXED: usize = 52;
/// Wire size of a stored (uncompressed) whole-page payload frame — what
/// shipping a diff page-granularly costs per page, the yardstick sub-page
/// framing, dedup and compression are measured against.
pub const WHOLE_FRAME_LEN: usize = SUB_FIXED + 4 + BLOCK_SIZE;
/// Encoded size of a dedup-reference frame.
const REF_FRAME_LEN: usize = 40;
/// Encoded trailer size.
const TRAILER_LEN: usize = 32;
/// Above this many dirty lines (~50% of the page) a sub-page frame
/// stops paying for itself; ship the whole page instead.
const SUBPAGE_CUTOFF: u32 = (LINES_PER_PAGE / 2) as u32;
/// Ceiling on sub-page runs per frame (a 64-line bitmap can produce at
/// most 32 alternating runs; anything claiming more is malformed).
const MAX_SUB_RUNS: usize = LINES_PER_PAGE;
/// Default dedup-table capacity: recently-shipped page images retained
/// per stream direction (~1 MiB at 4 KiB pages).
const DEDUP_CAP: usize = 256;

/// Errors raised while building, decoding, or applying a delta stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// An error surfaced by the underlying object store.
    Store(StoreError),
    /// The stream's base epoch does not match the replica's current
    /// epoch — the delta does not apply; the caller falls back to a full
    /// sync.
    BaseMismatch {
        /// Base epoch the stream was diffed against.
        stream_base: Epoch,
        /// The replica object's current epoch.
        replica: Epoch,
    },
    /// The replica is already at (or past) the stream's target epoch.
    AlreadyCurrent,
    /// A frame arrived out of order: resumable streams must be fed in
    /// sequence.
    SequenceGap {
        /// The next sequence number the session expects.
        expected: u64,
        /// The sequence number that arrived.
        got: u64,
    },
    /// A frame's checksum does not cover its content: the frame was
    /// corrupted in flight.
    FrameCorrupt {
        /// Sequence number of the corrupt frame.
        seq: u64,
    },
    /// The trailer is missing frames or its stream checksum mismatches.
    TrailerMismatch,
    /// A sub-page or reference frame could not be resolved against the
    /// replica's base content: the patched page missed its digest, a
    /// dedup reference named a digest the receiver does not hold, or the
    /// pre-image read failed. The replica's base diverges from what the
    /// sender diffed against — the caller falls back to a full resync.
    BaseContentMismatch {
        /// Page index that failed to resolve.
        page: u64,
    },
    /// The byte stream is truncated or structurally invalid.
    Malformed,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Store(e) => write!(f, "object store: {e}"),
            SnapError::BaseMismatch {
                stream_base,
                replica,
            } => write!(
                f,
                "delta base epoch {stream_base} does not match replica epoch {replica}"
            ),
            SnapError::AlreadyCurrent => f.write_str("replica is already at the target epoch"),
            SnapError::SequenceGap { expected, got } => {
                write!(f, "frame sequence gap: expected {expected}, got {got}")
            }
            SnapError::FrameCorrupt { seq } => write!(f, "frame {seq} failed its checksum"),
            SnapError::TrailerMismatch => f.write_str("stream trailer does not bind the frames"),
            SnapError::BaseContentMismatch { page } => write!(
                f,
                "page {page} could not be resolved against the replica's base content"
            ),
            SnapError::Malformed => f.write_str("malformed delta stream"),
        }
    }
}

impl Error for SnapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for SnapError {
    fn from(e: StoreError) -> Self {
        SnapError::Store(e)
    }
}

/// Network bytes are untrusted: running out of them is structural
/// damage, not a panic.
impl From<Short> for SnapError {
    fn from(_: Short) -> Self {
        SnapError::Malformed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    /// An incompressible page: the builder ships these as stored
    /// (`method 0`) whole-page frames.
    fn noise_page(seed: u8) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(seed);
        (0..BLOCK_SIZE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    fn primary_with_two_snapshots() -> (Disk, ObjectStore, Vt, ObjectId) {
        primary_with_two_snapshots_of(page_of)
    }

    fn primary_with_two_snapshots_of(
        page_of: fn(u8) -> Vec<u8>,
    ) -> (Disk, ObjectStore, Vt, ObjectId) {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for i in 0..5u64 {
            let p = page_of(0x10 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
        for i in [1u64, 3] {
            let p = page_of(0x90 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store.snapshot_create(&mut vt, &mut disk, obj, "b").unwrap();
        (disk, store, vt, obj)
    }

    #[test]
    fn stream_round_trips_through_wire_form() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots();
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        assert_eq!(stream.frames.len(), 2);
        assert_eq!(
            stream.frames.iter().map(|f| f.page()).collect::<Vec<_>>(),
            vec![1, 3]
        );
        let wire = stream.encode();
        assert_eq!(wire.len(), stream.encoded_len());
        assert_eq!(DeltaStream::decode(&wire).unwrap(), stream);
    }

    #[test]
    fn corrupted_wire_bytes_are_rejected() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        let wire = stream.encode();

        // Header damage.
        let mut bad = wire.clone();
        bad[40] ^= 1;
        assert_eq!(DeltaStream::decode(&bad), Err(SnapError::Malformed));
        // Frame payload damage.
        let mut bad = wire.clone();
        let frame0_data = stream.header.encoded_len() + SUB_FIXED + 4;
        bad[frame0_data + 17] ^= 0x20;
        assert_eq!(
            DeltaStream::decode(&bad),
            Err(SnapError::FrameCorrupt { seq: 0 })
        );
        // Truncation.
        assert_eq!(
            DeltaStream::decode(&wire[..wire.len() - 1]),
            Err(SnapError::Malformed)
        );
    }

    #[test]
    fn apply_session_enforces_order_and_resumes() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let full = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "a", None).unwrap();

        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &full.header).unwrap();
        // Out-of-order feed is rejected and does not advance the session.
        assert_eq!(
            session.feed(full.frames[1].clone()),
            Err(SnapError::SequenceGap {
                expected: 0,
                got: 1
            })
        );
        // A corrupted frame is rejected; the retransmitted original lands.
        let Frame::Sub(sf0) = &full.frames[0] else {
            panic!("pages ship as payload frames");
        };
        assert!(sf0.covers_whole() && sf0.method == 0, "stored whole page");
        let mut torn = sf0.clone();
        torn.payload[9] ^= 1;
        assert_eq!(
            session.feed(Frame::Sub(torn)),
            Err(SnapError::FrameCorrupt { seq: 0 })
        );
        session.feed(full.frames[0].clone()).unwrap();
        assert_eq!(session.next_seq(), 1);
        // "Crash" of the transfer: a fresh session resumes from 0 — the
        // staging is in memory; durability comes only from finish().
        for f in &full.frames[1..] {
            session.feed(f.clone()).unwrap();
        }
        // Premature finish with a wrong trailer is refused.
        assert!(matches!(
            session.finish(
                &mut vt,
                &mut rdisk,
                &mut replica,
                &StreamTrailer {
                    frames: full.trailer.frames + 1,
                    stream_sum: 0
                },
                None,
            ),
            Err(SnapError::TrailerMismatch)
        ));
    }

    #[test]
    fn incompressible_page_ships_as_a_stored_whole_page_frame() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "a",
        )
        .unwrap();
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        assert_eq!(stream.frames.len(), 2);
        for f in &stream.frames {
            let Frame::Sub(sf) = f else {
                panic!("expected a payload frame, got {f:?}");
            };
            assert!(sf.covers_whole() && sf.method == 0, "{sf:?}");
            assert_eq!(f.encoded_len(), WHOLE_FRAME_LEN);
        }
        let Frame::Sub(sf0) = stream.frames[0].clone() else {
            unreachable!("checked above");
        };

        // A torn payload byte fails the frame checksum at feed.
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &stream.header).unwrap();
        let mut torn = sf0.clone();
        torn.payload[100] ^= 0x04;
        assert_eq!(
            session.feed(Frame::Sub(torn)),
            Err(SnapError::FrameCorrupt { seq: 0 })
        );

        // A frame naming the wrong patched-page digest, re-sealed and
        // re-chained so it passes every wire check, is refused at
        // resolve; nothing lands.
        let mut lying = stream.clone();
        let mut wrong = sf0.clone();
        wrong.page_digest ^= 1;
        wrong.checksum = wrong.compute_checksum();
        lying.frames[0] = Frame::Sub(wrong);
        lying.trailer.stream_sum = chain_sum(&lying.frames);
        let robj = replica.lookup("db").unwrap();
        let at = replica.epoch(robj);
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &lying.header).unwrap();
        for f in &lying.frames {
            session.feed(f.clone()).unwrap();
        }
        assert_eq!(
            session
                .finish(&mut vt, &mut rdisk, &mut replica, &lying.trailer, None)
                .unwrap_err(),
            SnapError::BaseContentMismatch { page: sf0.page }
        );
        assert_eq!(replica.epoch(robj), at);

        // The real stream lands without one pre-image read on the
        // replica — a whole page needs no base — and byte-identically.
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &stream.header).unwrap();
        for f in &stream.frames {
            session.feed(f.clone()).unwrap();
        }
        let reads = |s: msnap_store::StoreStats| s.cache_hits + s.cache_misses;
        let before = reads(replica.stats());
        let token = session
            .finish(&mut vt, &mut rdisk, &mut replica, &stream.trailer, None)
            .unwrap();
        assert_eq!(reads(replica.stats()), before, "no pre-image read");
        ObjectStore::wait(&mut vt, token);
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "b",
            &mut rdisk,
            &mut replica,
            5,
        );
    }

    #[test]
    fn retired_full_page_frame_is_malformed() {
        // One generation of every format: a well-formed frame of the
        // retired full-page kind (magic, seq, page, checksum, 4 KiB),
        // under a header and a trailer that chain it correctly, is not a
        // frame this decoder knows — alone or inside a stream.
        let (seq, page, data) = (0u64, 3u64, noise_page(1));
        let mut sum = fnv1a(&seq.to_le_bytes());
        sum = fnv1a_extend(sum, &page.to_le_bytes());
        sum = fnv1a_extend(sum, &data);
        let mut retired = Vec::new();
        for v in [0x4d534e_41504446, seq, page, sum] {
            put_u64(&mut retired, v); // magic "MSN APDF", seq, page, checksum
        }
        retired.extend_from_slice(&data);
        assert_eq!(Frame::decode(&retired), Err(SnapError::Malformed));

        let header = StreamHeader {
            object: "db".into(),
            base_epoch: None,
            target_epoch: 1,
            len_pages: page + 1,
            frame_count: 1,
            cut: None,
        };
        let trailer = StreamTrailer {
            frames: 1,
            stream_sum: fnv1a_extend(msnap_store::FNV_OFFSET, &sum.to_le_bytes()),
        };
        let wire = [header.encode(), retired, trailer.encode()].concat();
        assert_eq!(DeltaStream::decode(&wire), Err(SnapError::Malformed));
    }

    #[test]
    fn sync_to_uses_delta_when_base_is_retained_and_full_otherwise() {
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);

        // First round: replica at epoch 0, no base retained → full sync.
        let r1 = sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "a",
        )
        .unwrap();
        assert!(r1.full_sync);
        assert_eq!(r1.pages, 5);

        // Second round: replica sits exactly at snapshot "a" → delta.
        let r2 = sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "b",
        )
        .unwrap();
        assert!(!r2.full_sync);
        assert_eq!(r2.pages, 2, "only the changed pages ship");
        assert!(r2.bytes < r1.bytes);

        // Replica image now equals the target snapshot byte-for-byte.
        let robj = replica.lookup("db").unwrap();
        assert_eq!(
            replica.epoch(robj),
            store.snapshot_lookup("b").unwrap().epoch
        );
        let mut want = page_of(0);
        let mut got = page_of(0);
        for page in 0..5u64 {
            store
                .read_page_at(&mut vt, &mut disk, "b", page, &mut want)
                .unwrap();
            replica
                .read_page(&mut vt, &mut rdisk, robj, page, &mut got)
                .unwrap();
            assert_eq!(got, want, "replica page {page} diverges");
        }

        // Already-current replica refuses the round.
        assert_eq!(
            sync_to(
                &mut vt,
                &mut store,
                &mut disk,
                &mut replica,
                &mut rdisk,
                "b"
            )
            .unwrap_err(),
            SnapError::AlreadyCurrent
        );

        // Base gone (snapshot deleted on the primary): advance the
        // primary, snapshot again, delete "b" — the replica at "b" must
        // fall back to a full image for "c".
        let p = page_of(0xEE);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "c").unwrap();
        store.snapshot_delete(&mut vt, &mut disk, "b").unwrap();
        let r3 = sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "c",
        )
        .unwrap();
        assert!(r3.full_sync, "missing base epoch must fall back to full");
        assert_eq!(
            replica.epoch(robj),
            store.snapshot_lookup("c").unwrap().epoch
        );
    }

    #[test]
    fn piecewise_codec_matches_the_stream_form() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        // header ++ frames ++ trailer, each encoded alone, is the wire form.
        let mut wire = stream.header.encode();
        for f in &stream.frames {
            wire.extend_from_slice(&f.encode());
        }
        wire.extend_from_slice(&stream.trailer.encode());
        assert_eq!(wire, stream.encode());

        let (h, used) = StreamHeader::decode(&wire).unwrap();
        assert_eq!(h, stream.header);
        let (f0, fused) = Frame::decode(&wire[used..]).unwrap();
        assert_eq!(f0, stream.frames[0]);
        assert!(f0.verify());
        assert_eq!(fused, WHOLE_FRAME_LEN);
        let (t, _) = StreamTrailer::decode(&wire[used + 2 * fused..]).unwrap();
        assert_eq!(t, stream.trailer);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders() {
        // A replica faces untrusted network bytes: every decoder must
        // fail cleanly on garbage, truncations, and bit flips.
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots();
        let wire = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "b", None)
            .unwrap()
            .encode();
        for len in 0..wire.len() {
            assert!(DeltaStream::decode(&wire[..len]).is_err());
            let _ = StreamHeader::decode(&wire[..len]);
            let _ = Frame::decode(&wire[..len]);
            let _ = StreamTrailer::decode(&wire[..len]);
        }
        for stride in [1usize, 7, 13] {
            let mut bad = wire.clone();
            for i in (0..bad.len()).step_by(stride) {
                bad[i] ^= 0x5A;
            }
            assert!(DeltaStream::decode(&bad).is_err());
        }
        // A header lying about its frame count must not over-allocate
        // or panic.
        let mut lying = wire.clone();
        lying[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(DeltaStream::decode(&lying).is_err());
    }

    /// A header (with a cut), each frame kind and a trailer: the whole
    /// encoding reads back, and every non-empty strict prefix of it is
    /// malformed — never a panic, never a shorter piece.
    #[test]
    fn every_strict_prefix_of_every_piece_is_malformed() {
        fn check<T, D>(piece: &T, wire: &[u8], decode: D)
        where
            T: Clone + PartialEq + fmt::Debug,
            D: Fn(&[u8]) -> Result<(T, usize), SnapError>,
        {
            assert_eq!(decode(wire), Ok((piece.clone(), wire.len())));
            for len in 1..wire.len() {
                let got = decode(&wire[..len]).map(|_| ());
                assert_eq!(got, Err(SnapError::Malformed), "{piece:?} cut at {len}");
            }
        }
        let header = StreamHeader {
            object: "db".into(),
            base_epoch: Some(4),
            target_epoch: 5,
            len_pages: 16,
            frame_count: 2,
            cut: Some(VectorCut {
                seq: 3,
                epochs: vec![5, 1],
            }),
        };
        check(&header, &header.encode(), StreamHeader::decode);
        let sub = SubPageFrame::new(0, 3, 7, vec![(64, 128)], noise_page(3)[..128].to_vec());
        check(&sub, &sub.encode(), SubPageFrame::decode);
        let reference = RefFrame::new(1, 4, 5);
        check(&reference, &reference.encode(), RefFrame::decode);
        for frame in [Frame::Sub(sub), Frame::Ref(reference)] {
            check(&frame, &frame.encode(), Frame::decode);
        }
        let trailer = StreamTrailer {
            frames: 2,
            stream_sum: 8,
        };
        check(&trailer, &trailer.encode(), StreamTrailer::decode);
    }

    #[test]
    fn vector_cut_rides_the_stream_header() {
        // A sharded primary stamps a cut; the stream header carries it
        // through the wire byte-for-byte.
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format_sharded(&mut disk, 4);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for i in 0..3u64 {
            let p = page_of(0x40 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let cut = store.cut(&mut vt, &mut disk).unwrap();
        assert_eq!(cut.epochs.len(), 4);
        store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
        let stream = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "s", None).unwrap();
        assert_eq!(stream.header.cut.as_ref(), Some(&cut));
        let wire = stream.encode();
        assert_eq!(wire.len(), stream.encoded_len());
        let decoded = DeltaStream::decode(&wire).unwrap();
        assert_eq!(decoded, stream);
        assert_eq!(decoded.header.cut.unwrap(), cut);
        // A header claiming an absurd epoch count is malformed, not an
        // allocation.
        let mut lying = wire.clone();
        lying[64..72].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(DeltaStream::decode(&lying), Err(SnapError::Malformed));
    }

    #[test]
    fn rebase_session_abandons_divergent_replica_history() {
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        // "Replica" is an old primary: it holds snapshot "a" and then
        // diverged past it on its own.
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "a",
        )
        .unwrap();
        let robj = replica.lookup("db").unwrap();
        replica
            .snapshot_create(&mut vt, &mut rdisk, robj, "acked")
            .unwrap();
        for i in 0..6u64 {
            let p = page_of(0xC0 + i as u8);
            let t = replica
                .persist(&mut vt, &mut rdisk, robj, &[(i % 5, &p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let diverged = replica.epoch(robj);
        assert!(diverged > store.snapshot_lookup("a").unwrap().epoch);

        // New primary fences past the divergence, snapshots, and ships
        // the delta a → fence. The replica's live epoch mismatches the
        // base, but it retains "acked" at exactly the base epoch: rebase.
        let t = store
            .apply_image(&mut vt, &mut disk, obj, None, &[], diverged + 10)
            .unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "f").unwrap();
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "f", None).unwrap();
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &stream.header).unwrap();
        assert!(session.is_rebase());
        for f in &stream.frames {
            session.feed(f.clone()).unwrap();
        }
        let token = session
            .finish(&mut vt, &mut rdisk, &mut replica, &stream.trailer, None)
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        assert_eq!(replica.epoch(robj), diverged + 10);

        // Byte-for-byte the rejoined replica equals the fence snapshot;
        // the divergent writes are gone.
        let mut want = page_of(0);
        let mut got = page_of(0);
        for page in 0..5u64 {
            store
                .read_page_at(&mut vt, &mut disk, "f", page, &mut want)
                .unwrap();
            replica
                .read_page(&mut vt, &mut rdisk, robj, page, &mut got)
                .unwrap();
            assert_eq!(got, want, "rejoined page {page} diverges");
        }
    }

    /// Reads a page of the live primary image, patches `edits` into it,
    /// and persists it back — a scattered small write at store level.
    fn patch_page(
        vt: &mut Vt,
        disk: &mut Disk,
        store: &mut ObjectStore,
        obj: ObjectId,
        page: u64,
        edits: &[(usize, u8)],
    ) {
        let mut buf = page_of(0);
        store.read_page(vt, disk, obj, page, &mut buf).unwrap();
        for (at, b) in edits {
            buf[*at] = *b;
        }
        let t = store.persist(vt, disk, obj, &[(page, &buf)]).unwrap();
        ObjectStore::wait(vt, t);
    }

    fn assert_replica_matches(
        vt: &mut Vt,
        disk: &mut Disk,
        store: &mut ObjectStore,
        snap: &str,
        rdisk: &mut Disk,
        replica: &mut ObjectStore,
        pages: u64,
    ) {
        let robj = replica.lookup("db").unwrap();
        let mut want = page_of(0);
        let mut got = page_of(0);
        for page in 0..pages {
            store.read_page_at(vt, disk, snap, page, &mut want).unwrap();
            replica.read_page(vt, rdisk, robj, page, &mut got).unwrap();
            assert_eq!(got, want, "replica page {page} diverges");
        }
    }

    #[test]
    fn subpage_frames_ship_only_changed_lines_and_apply_byte_identically() {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for i in 0..8u64 {
            let p: Vec<u8> = (0..BLOCK_SIZE)
                .map(|j| (i as usize * 37 + j * 7) as u8)
                .collect();
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "a",
        )
        .unwrap();

        // Scattered small writes: a few bytes in two pages.
        patch_page(
            &mut vt,
            &mut disk,
            &mut store,
            obj,
            2,
            &[(100, 0xAA), (108, 0xAB)],
        );
        patch_page(
            &mut vt,
            &mut disk,
            &mut store,
            obj,
            5,
            &[(20 * 64, 0x01), (20 * 64 + 2, 0x02), (40 * 64 + 63, 0x03)],
        );
        store.snapshot_create(&mut vt, &mut disk, obj, "b").unwrap();

        let sub = DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        assert_eq!(sub.frames.len(), 2);
        // What the same diff costs as one stored whole page per frame.
        let full_len = sub.header.encoded_len() + sub.frames.len() * WHOLE_FRAME_LEN + TRAILER_LEN;
        // Page 2 changed one 64-byte line, page 5 two lines: every frame
        // is a partial sub-page frame and the wire shrinks by >10×.
        for f in &sub.frames {
            let Frame::Sub(sf) = f else {
                panic!("expected sub-page frames, got {f:?}");
            };
            assert!(!sf.covers_whole());
        }
        assert!(
            sub.encoded_len() * 10 < full_len,
            "sub-page stream {} vs full {full_len}",
            sub.encoded_len(),
        );
        assert_eq!(sub.wire_savings().subpage_frames, 2);

        // Wire round trip + apply lands byte-identical to the target.
        let decoded = DeltaStream::decode(&sub.encode()).unwrap();
        assert_eq!(decoded, sub);
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &decoded.header).unwrap();
        for f in &decoded.frames {
            session.feed(f.clone()).unwrap();
        }
        let token = session
            .finish(&mut vt, &mut rdisk, &mut replica, &decoded.trailer, None)
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "b",
            &mut rdisk,
            &mut replica,
            8,
        );
    }

    /// Feeds a whole stream into a fresh session and lands it.
    fn apply(
        vt: &mut Vt,
        rdisk: &mut Disk,
        replica: &mut ObjectStore,
        stream: &DeltaStream,
        dedup: Option<&mut DedupTable>,
    ) {
        let mut session = ApplySession::begin(vt, rdisk, replica, &stream.header).unwrap();
        for f in &stream.frames {
            session.feed(f.clone()).unwrap();
        }
        let token = session
            .finish(vt, rdisk, replica, &stream.trailer, dedup)
            .unwrap();
        ObjectStore::wait(vt, token);
    }

    /// The live door ships the same frames the snapshot-pair door would
    /// for the same span when the commits' record is exact — from the
    /// live object alone, leaving the catalog untouched.
    #[test]
    fn live_door_builds_the_snapshot_pair_stream_without_a_snapshot() {
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        let base = store.snapshot_lookup("b").unwrap();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "b",
        )
        .unwrap();

        // Page 1: two lines; page 3: lines unknown (zero mask, ships
        // whole); page 6: past the base image (ships whole).
        patch_page(
            &mut vt,
            &mut disk,
            &mut store,
            obj,
            1,
            &[(64, 0x77), (130, 0x78)],
        );
        patch_page(&mut vt, &mut disk, &mut store, obj, 3, &[(9, 0x79)]);
        let t = store
            .persist(&mut vt, &mut disk, obj, &[(6, &page_of(0x66))])
            .unwrap();
        ObjectStore::wait(&mut vt, t);
        let extents = BTreeMap::from([(1, 0b110), (3, 0), (6, u64::MAX)]);

        let catalog = store.snapshots();
        let live = DeltaStream::build_live(
            &mut vt,
            &mut disk,
            &mut store,
            obj,
            (base.epoch, base.len_pages),
            &extents,
            None,
        )
        .unwrap();
        assert_eq!(store.snapshots(), catalog, "nothing is pinned");
        assert_eq!(live.header.base_epoch, Some(base.epoch));
        assert_eq!(live.header.target_epoch, store.epoch(obj));
        assert_eq!(live.header.len_pages, 7);
        assert!(matches!(&live.frames[0], Frame::Sub(sf) if sf.runs == [(64, 128)]));
        assert!(matches!(&live.frames[1], Frame::Sub(sf) if sf.covers_whole()));
        assert!(matches!(&live.frames[2], Frame::Sub(sf) if sf.covers_whole()));

        store.snapshot_create(&mut vt, &mut disk, obj, "c").unwrap();
        let mut pair =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("b"), "c", None).unwrap();
        // The pair door diffs every page exactly, so it finds the one
        // line of page 3 the zero mask lost; everything else — header,
        // frames, trailer chain — is the same stream.
        assert!(matches!(&pair.frames[1], Frame::Sub(sf) if !sf.covers_whole()));
        pair.frames[1] = live.frames[1].clone();
        pair.trailer.stream_sum = chain_sum(&pair.frames);
        assert_eq!(pair, live);

        apply(&mut vt, &mut rdisk, &mut replica, &live, None);
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "c",
            &mut rdisk,
            &mut replica,
            7,
        );
    }

    /// A table serving a small object holds at most the object's pages,
    /// on both ends, in lockstep — across a growth of the object too.
    #[test]
    fn dedup_capacity_follows_the_object_on_both_ends() {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        let mut sender = DedupTable::default();
        let mut receiver = DedupTable::default();

        let mut base: Option<(Epoch, u64)> = None;
        for i in 0..64u64 {
            // A 4-page object for 48 ships, then it grows to 6 pages.
            let page = if i < 48 { i % 4 } else { i % 6 };
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(page, &noise_page(i as u8))])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
            let stream = match base {
                None => {
                    store
                        .snapshot_create(&mut vt, &mut disk, obj, "full")
                        .unwrap();
                    DeltaStream::build(
                        &mut vt,
                        &mut disk,
                        &mut store,
                        None,
                        "full",
                        Some(&mut sender),
                    )
                }
                Some(base) => DeltaStream::build_live(
                    &mut vt,
                    &mut disk,
                    &mut store,
                    obj,
                    base,
                    &BTreeMap::from([(page, 0)]),
                    Some(&mut sender),
                ),
            }
            .unwrap();
            apply(
                &mut vt,
                &mut rdisk,
                &mut replica,
                &stream,
                Some(&mut receiver),
            );
            sender.commit(); // the ack
            base = Some((stream.header.target_epoch, stream.header.len_pages));
            assert_eq!(sender.entries, receiver.entries, "ship {i}");
            assert!(sender.len() as u64 <= stream.header.len_pages, "ship {i}");
        }
        assert_eq!(base.map(|(_, len)| len), Some(6));
        assert_eq!(sender.len(), 6, "the cap grew with the object");
    }

    #[test]
    fn subpage_apply_against_diverged_base_content_is_refused() {
        // The page digest proves the receiver's base content matched the
        // sender's diff base; a diverged replica must be detected, not
        // silently patched into garbage.
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        patch_page(&mut vt, &mut disk, &mut store, obj, 1, &[(64, 0x77)]);
        store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
        let sub = DeltaStream::build(&mut vt, &mut disk, &mut store, Some("b"), "s", None).unwrap();
        assert!(matches!(&sub.frames[0], Frame::Sub(sf) if !sf.covers_whole()));

        // Corrupt the replica's base content for page 1 out-of-band by
        // re-applying different bytes at the same base epoch lineage:
        // rebuild a replica whose page 1 differs.
        let mut rdisk2 = Disk::new(DiskConfig::paper());
        let mut replica2 = ObjectStore::format(&mut rdisk2);
        let r2obj = replica2.create(&mut vt, &mut rdisk2, "db").unwrap();
        let base_epoch = sub.header.base_epoch.unwrap();
        let mut pages: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut buf = page_of(0);
        for page in 0..5u64 {
            store
                .read_page_at(&mut vt, &mut disk, "b", page, &mut buf)
                .unwrap();
            if page == 1 {
                // Diverged base content in a line the frame does not
                // patch — only the digest check can catch it.
                buf[700] ^= 0xFF;
            }
            pages.push((page, buf.clone()));
        }
        let iov: Vec<(u64, &[u8])> = pages.iter().map(|(p, d)| (*p, &d[..])).collect();
        let t = replica2
            .apply_image(&mut vt, &mut rdisk2, r2obj, None, &iov, base_epoch)
            .unwrap();
        ObjectStore::wait(&mut vt, t);

        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk2, &mut replica2, &sub.header).unwrap();
        for f in &sub.frames {
            session.feed(f.clone()).unwrap();
        }
        assert_eq!(
            session
                .finish(&mut vt, &mut rdisk2, &mut replica2, &sub.trailer, None)
                .unwrap_err(),
            SnapError::BaseContentMismatch { page: 1 }
        );
        // Nothing landed: the diverged replica stays at its base epoch.
        assert_eq!(replica2.epoch(r2obj), base_epoch);
    }

    #[test]
    fn dedup_references_ship_for_repeated_content() {
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        let mut sender = DedupTable::default();
        let mut receiver = DedupTable::default();

        // Round 1: full sync of "b", payload images staged on the
        // sender and inserted on the receiver at commit.
        let s1 = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "b", Some(&mut sender))
            .unwrap();
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &s1.header).unwrap();
        for f in &s1.frames {
            session.feed(f.clone()).unwrap();
        }
        let token = session
            .finish(
                &mut vt,
                &mut rdisk,
                &mut replica,
                &s1.trailer,
                Some(&mut receiver),
            )
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        assert!(sender.is_empty(), "nothing committed before the ack");
        sender.commit(); // the ack
        assert_eq!(sender.len(), receiver.len());

        // Round 2: rewrite page 1 with page 0's exact content — a
        // B-tree-node-shuffle-style move. Content is in both tables.
        let mut p0 = page_of(0);
        store
            .read_page_at(&mut vt, &mut disk, "b", 0, &mut p0)
            .unwrap();
        let t = store.persist(&mut vt, &mut disk, obj, &[(1, &p0)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "moved")
            .unwrap();
        let s2 = DeltaStream::build(
            &mut vt,
            &mut disk,
            &mut store,
            Some("b"),
            "moved",
            Some(&mut sender),
        )
        .unwrap();
        assert_eq!(s2.frames.len(), 1);
        assert!(
            matches!(&s2.frames[0], Frame::Ref(_)),
            "repeated content must ship as a reference, got {:?}",
            s2.frames[0]
        );
        assert!(s2.wire_savings().dedup_saved > 0);
        assert!(s2.encoded_len() < 200, "a reference stream is tiny");

        let decoded = DeltaStream::decode(&s2.encode()).unwrap();
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &decoded.header).unwrap();
        for f in &decoded.frames {
            session.feed(f.clone()).unwrap();
        }
        let token = session
            .finish(
                &mut vt,
                &mut rdisk,
                &mut replica,
                &decoded.trailer,
                Some(&mut receiver),
            )
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        sender.commit();
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "moved",
            &mut rdisk,
            &mut replica,
            5,
        );

        // A reference against a receiver that lost its table is refused
        // (full-resync fallback), never silently misapplied.
        let mut rdisk2 = Disk::new(DiskConfig::paper());
        let mut replica2 = ObjectStore::format(&mut rdisk2);
        sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica2,
            &mut rdisk2,
            "b",
        )
        .unwrap();
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk2, &mut replica2, &s2.header).unwrap();
        for f in &s2.frames {
            session.feed(f.clone()).unwrap();
        }
        assert_eq!(
            session
                .finish(&mut vt, &mut rdisk2, &mut replica2, &s2.trailer, None)
                .unwrap_err(),
            SnapError::BaseContentMismatch { page: 1 }
        );
    }

    #[test]
    fn colliding_digests_byte_verify_and_ship_payload() {
        // A truncating hasher forces collisions: different content under
        // an equal digest must never come back as a reference.
        let mut table = DedupTable::with_hasher(8, |b| b.first().copied().unwrap_or(0) as u64);
        let a = vec![1u8; BLOCK_SIZE];
        let mut b = vec![1u8; BLOCK_SIZE];
        b[BLOCK_SIZE - 1] = 9; // same digest (first byte), different bytes
        let d = table.digest(&a);
        assert_eq!(d, table.digest(&b));
        table.insert(d, a.clone());
        assert!(table.matches(d, &a));
        assert!(!table.matches(d, &b), "collision must fail byte-verify");
        // The builder consults matches(): with `b` the table says no,
        // so the page ships as payload and the table re-stages `b`.
    }

    #[test]
    fn identical_content_rewrite_ships_empty_runs() {
        // Persisting a page with byte-identical content bumps the epoch
        // and shows up in the structural diff; the exact line diff finds
        // zero changed lines and ships a frame with no payload at all.
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "b",
        )
        .unwrap();
        patch_page(&mut vt, &mut disk, &mut store, obj, 2, &[]); // no-op rewrite
        store
            .snapshot_create(&mut vt, &mut disk, obj, "same")
            .unwrap();
        let s =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("b"), "same", None).unwrap();
        assert_eq!(s.frames.len(), 1);
        let Frame::Sub(sf) = &s.frames[0] else {
            panic!("expected a sub-page frame");
        };
        assert!(sf.runs.is_empty());
        assert_eq!(sf.raw_len, 0);
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &s.header).unwrap();
        for f in &s.frames {
            session.feed(f.clone()).unwrap();
        }
        let token = session
            .finish(&mut vt, &mut rdisk, &mut replica, &s.trailer, None)
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "same",
            &mut rdisk,
            &mut replica,
            5,
        );
    }

    #[test]
    fn resumed_subpage_stream_never_reapplies_an_applied_frame() {
        // Retransmit overlap: after a resume, frames the session already
        // staged are rejected with SequenceGap and change nothing — the
        // stream still lands byte-identically, each page applied once.
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "b",
        )
        .unwrap();
        patch_page(&mut vt, &mut disk, &mut store, obj, 0, &[(7, 0x70)]);
        patch_page(&mut vt, &mut disk, &mut store, obj, 3, &[(200, 0x71)]);
        patch_page(&mut vt, &mut disk, &mut store, obj, 4, &[(4000, 0x72)]);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "tip")
            .unwrap();
        let s = DeltaStream::build(&mut vt, &mut disk, &mut store, Some("b"), "tip", None).unwrap();
        assert_eq!(s.frames.len(), 3);

        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &s.header).unwrap();
        session.feed(s.frames[0].clone()).unwrap();
        session.feed(s.frames[1].clone()).unwrap();
        // The sender resumes from an older point and replays everything:
        // already-staged frames are refused without advancing the session.
        for f in &s.frames[..2] {
            assert!(matches!(
                session.feed(f.clone()),
                Err(SnapError::SequenceGap { expected: 2, .. })
            ));
            assert_eq!(session.next_seq(), 2);
        }
        session.feed(s.frames[2].clone()).unwrap();
        let token = session
            .finish(&mut vt, &mut rdisk, &mut replica, &s.trailer, None)
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "tip",
            &mut rdisk,
            &mut replica,
            5,
        );
        // A full redelivery of the landed stream is refused up front.
        assert_eq!(
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &s.header).unwrap_err(),
            SnapError::AlreadyCurrent
        );
    }

    #[test]
    fn v1_stream_header_is_malformed() {
        // A self-consistent header under the retired version-1 magic
        // (its own checksum recomputed) is not a stream this decoder
        // knows: rejected at the header, never applied.
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots();
        let stream = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "b", None).unwrap();
        let mut wire = stream.encode();
        wire[..8].copy_from_slice(&0x4d534e_41504453u64.to_le_bytes()); // "MSN APDS"
        let head_len = stream.header.encoded_len();
        let sum = fnv1a_extend(fnv1a(&wire[0..72]), &wire[HEADER_FIXED..head_len]);
        wire[72..80].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            StreamHeader::decode(&wire).unwrap_err(),
            SnapError::Malformed
        );
        assert_eq!(DeltaStream::decode(&wire), Err(SnapError::Malformed));
    }

    #[test]
    fn subpage_wire_forms_survive_adversarial_bytes() {
        // The decoders face an untrusted network: every truncation and
        // bit-flip of a sub-page stream fails cleanly.
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        patch_page(&mut vt, &mut disk, &mut store, obj, 1, &[(130, 0x5C)]);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "s2")
            .unwrap();
        let mut dedup = DedupTable::default();
        let wire = DeltaStream::build(
            &mut vt,
            &mut disk,
            &mut store,
            Some("b"),
            "s2",
            Some(&mut dedup),
        )
        .unwrap()
        .encode();
        for len in 0..wire.len() {
            assert!(DeltaStream::decode(&wire[..len]).is_err());
            let _ = Frame::decode(&wire[..len]);
            let _ = SubPageFrame::decode(&wire[..len]);
            let _ = RefFrame::decode(&wire[..len]);
        }
        for stride in [1usize, 5, 11] {
            let mut bad = wire.clone();
            for i in (0..bad.len()).step_by(stride) {
                bad[i] ^= 0xA5;
            }
            assert!(DeltaStream::decode(&bad).is_err());
        }
    }

    #[test]
    fn delta_against_wrong_replica_epoch_reports_base_mismatch() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots();
        let delta =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        // Fresh replica (epoch 0) cannot take a delta based at "a".
        let err = ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &delta.header)
            .err()
            .unwrap();
        assert!(matches!(err, SnapError::BaseMismatch { replica: 0, .. }));
    }
}
