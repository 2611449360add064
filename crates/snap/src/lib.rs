//! Snapshot shipping: checksummed delta streams between a primary
//! [`ObjectStore`] and a replica.
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
//!   shipped travel as ~20-byte [`RefFrame`]s.
//! - [`DeltaStream::build_live`] is the same frame assembly behind a
//!   second front door: it ships an object's **current** epoch against
//!   the epoch a replica acknowledged, taking the pages and line masks
//!   from the dirty-line record the commits in between left behind and
//!   the bytes from verified reads of the live object — no snapshot on
//!   either side of the diff. Continuous replication ships this way.
//! - [`ApplySession::begin`] opens the landing from the header alone;
//!   [`ApplySession::finish`] lands a **complete** ship in one step. It
//!   runs the one stream-binding check — frames `0, 1, 2, …` in order,
//!   each covered by its checksum, as many as the header and the trailer
//!   count, chained as the trailer sums them — then resolves every frame
//!   one way (pre-image unless the frame covers the whole page, scatter
//!   the runs, check the digest) and lands the pages through
//!   [`ObjectStore::apply_image`] at the stream's target epoch. The
//!   root-record write is the single commit point, so a crash mid-apply
//!   leaves the replica at exactly its previous epoch or exactly the
//!   target epoch — never between. Frame order has one owner: whoever
//!   receives the frames (the replication engine reorders a ship's
//!   datagrams) hands them over in sequence.
//!
//! The wire structures encode and decode **piecewise**
//! ([`StreamHeader::encode`], [`Frame::encode`],
//! [`StreamTrailer::encode`]): a replication transport ships each frame
//! as its own datagram over a lossy link and asks again for the ones it
//! lacks. There is no whole-stream codec. Each piece opens with a kind
//! byte and writes every integer as a varint in its one canonical
//! spelling; checksums and digests stay full-width `u64`s, and each
//! piece's length is computed from its fields (`encoded_len`) without
//! encoding it. The decode path never panics on malformed bytes — an
//! arbitrary byte string from the network produces
//! [`SnapError::Malformed`], not a crashed replica.
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
//!   [`RefFrame`], [`Frame`], [`StreamTrailer`] — and [`DeltaStream`],
//!   the built stream.
//! - `dedup.rs`: [`DedupTable`].
//! - `assemble.rs`: [`DeltaStream::build`], [`DeltaStream::build_live`]
//!   and the frame-assembly loop they share.
//! - `apply.rs`: [`ApplySession`] and [`retained_at`].
//! - `compress.rs`: the per-frame payload compressor.

#![warn(missing_docs)]

mod apply;
mod assemble;
mod codec;
mod compress;
mod dedup;

pub use apply::{retained_at, ApplySession};
pub use codec::{
    DeltaStream, Frame, RefFrame, StreamHeader, StreamTrailer, SubPageFrame, WireSavings,
};
pub use dedup::DedupTable;

use codec::chain_sum;

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use msnap_disk::{Disk, BLOCK_SIZE};
use msnap_sim::wire::{put_u64, put_varint, varint_len, Reader, Short, VarintError};
use msnap_sim::Vt;
use msnap_store::lines::{gather, line_runs, scatter, LINES_PER_PAGE, LINE_SIZE};
use msnap_store::{fnv1a, fnv1a_extend, CommitToken, Epoch, ObjectId, ObjectStore, StoreError};

// The kind byte opening each wire piece. Any two differ in at least
// four bits, so no single flipped bit turns one piece into another, and
// none is the first byte of the magic that opened the piece before the
// wire went to varints.
/// Kind byte opening a stream header.
const STREAM_KIND: u8 = 0xC3;
/// Kind byte opening each payload frame.
const SUB_FRAME_KIND: u8 = 0xA5;
/// Kind byte opening each dedup-reference frame.
const REF_FRAME_KIND: u8 = 0x96;
/// Kind byte opening the stream trailer.
const TRAILER_KIND: u8 = 0x5A;
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

/// A varint cut short or spelled other than its one canonical way is
/// structural damage too.
impl From<VarintError> for SnapError {
    fn from(_: VarintError) -> Self {
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

    /// Opens a session for `stream` on the replica and lands the built
    /// frames and trailer.
    fn land(
        vt: &mut Vt,
        rdisk: &mut Disk,
        replica: &mut ObjectStore,
        stream: &DeltaStream,
        dedup: Option<&mut DedupTable>,
    ) -> Result<CommitToken, SnapError> {
        let session = ApplySession::begin(vt, rdisk, replica, &stream.header)?;
        let frames = stream.frames.iter();
        session.finish(vt, rdisk, replica, frames, &stream.trailer, dedup)
    }

    /// Lands `stream` and waits for its commit.
    fn apply(
        vt: &mut Vt,
        rdisk: &mut Disk,
        replica: &mut ObjectStore,
        stream: &DeltaStream,
        dedup: Option<&mut DedupTable>,
    ) {
        let token = land(vt, rdisk, replica, stream, dedup).unwrap();
        ObjectStore::wait(vt, token);
    }

    /// Ships the primary's snapshot `target` to the replica as a full
    /// image.
    fn full_sync(
        vt: &mut Vt,
        store: &mut ObjectStore,
        disk: &mut Disk,
        replica: &mut ObjectStore,
        rdisk: &mut Disk,
        target: &str,
    ) {
        let stream = DeltaStream::build(vt, disk, store, None, target, None).unwrap();
        apply(vt, rdisk, replica, &stream, None);
    }

    /// A stream as it crosses the wire: header, frames and trailer, each
    /// encoded alone, back to back.
    fn wire_of(stream: &DeltaStream) -> Vec<u8> {
        let mut wire = stream.header.encode();
        for f in &stream.frames {
            wire.extend_from_slice(&f.encode());
        }
        wire.extend_from_slice(&stream.trailer.encode());
        wire
    }

    #[test]
    fn stream_round_trips_through_wire_form() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        assert_eq!(
            stream.frames.iter().map(|f| f.page()).collect::<Vec<_>>(),
            vec![1, 3]
        );
        let wire = wire_of(&stream);
        assert_eq!(wire.len(), stream.encoded_len());

        // Each piece decodes from where the one before it ended.
        let (h, mut at) = StreamHeader::decode(&wire).unwrap();
        assert_eq!(h, stream.header);
        assert_eq!(at, stream.header.encoded_len());
        for f in &stream.frames {
            let (got, used) = Frame::decode(&wire[at..]).unwrap();
            assert_eq!(&got, f);
            assert!(got.verify());
            // Kind, seq, page, digest, checksum, four counts, the run
            // (0, 4096) and the page: 1 + 1 + 1 + 8 + 8 + 1 + 1 + 2 + 2 + 3
            // + 4096 bytes.
            assert_eq!(used, 4124);
            assert_eq!(used, SubPageFrame::stored_whole_len(f.seq(), f.page()));
            at += used;
        }
        // Kind, the frame count, the stream sum and the checksum.
        assert_eq!(
            StreamTrailer::decode(&wire[at..]).unwrap(),
            (stream.trailer, 18)
        );
    }

    #[test]
    fn corrupted_wire_bytes_are_rejected() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        let wire = wire_of(&stream);

        // Header damage: the target epoch, the varint after the kind, the
        // name's length, "db" and the base flag and base.
        let mut bad = wire.clone();
        bad[6] ^= 1;
        assert_eq!(StreamHeader::decode(&bad), Err(SnapError::Malformed));
        // Frame payload damage: the frame decodes, and its checksum no
        // longer covers it. The payload starts 28 bytes in: kind, seq,
        // page, two words, four counts and the one run.
        let mut bad = wire.clone();
        let frame0 = stream.header.encoded_len();
        assert_eq!(bad[frame0 + 28..frame0 + 28 + 32], noise_page(0x91)[..32]);
        bad[frame0 + 28 + 17] ^= 0x20;
        let (torn, _) = Frame::decode(&bad[frame0..]).unwrap();
        assert!(!torn.verify());
        // Truncation.
        let trailer = wire.len() - stream.trailer.encoded_len();
        assert_eq!(
            StreamTrailer::decode(&wire[trailer..wire.len() - 1]),
            Err(SnapError::Malformed)
        );
    }

    /// `finish` is the one check of a ship: a lying frame count, a
    /// truncated stream, a mis-summed trailer, a frame out of sequence and
    /// a corrupt frame are each refused with nothing landed, and the
    /// session stays open for the complete ship.
    #[test]
    fn finish_checks_the_whole_ship_and_keeps_the_session_open() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let full = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "a", None).unwrap();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);

        // A header lying about its frame count costs no allocation.
        let mut lying = full.header.clone();
        lying.frame_count = u64::MAX;
        let session = ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &lying).unwrap();
        let finish = |session: &ApplySession,
                      vt: &mut Vt,
                      rdisk: &mut Disk,
                      replica: &mut ObjectStore,
                      frames: &[Frame],
                      trailer: &StreamTrailer| {
            session.finish(vt, rdisk, replica, frames.iter(), trailer, None)
        };
        let (frames, trailer) = (&full.frames, &full.trailer);
        assert_eq!(
            finish(&session, &mut vt, &mut rdisk, &mut replica, frames, trailer).unwrap_err(),
            SnapError::TrailerMismatch
        );

        let session = ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &full.header).unwrap();
        let mut refuse = |frames: &[Frame], trailer: &StreamTrailer| {
            finish(&session, &mut vt, &mut rdisk, &mut replica, frames, trailer).unwrap_err()
        };
        // Truncated: the last frame is missing.
        let short = &frames[..frames.len() - 1];
        assert_eq!(refuse(short, trailer), SnapError::TrailerMismatch);
        // Mis-summed trailer.
        let mis_summed = StreamTrailer {
            stream_sum: trailer.stream_sum ^ 1,
            ..*trailer
        };
        assert_eq!(refuse(frames, &mis_summed), SnapError::TrailerMismatch);
        // A trailer counting a frame more than the stream has.
        let over = StreamTrailer {
            frames: trailer.frames + 1,
            ..*trailer
        };
        assert_eq!(refuse(frames, &over), SnapError::TrailerMismatch);
        // Out of sequence.
        let mut swapped = frames.clone();
        swapped.swap(0, 1);
        assert_eq!(refuse(&swapped, trailer), SnapError::Malformed);
        // A frame corrupted in flight.
        let Frame::Sub(sf1) = &frames[1] else {
            panic!("pages ship as payload frames");
        };
        assert!(sf1.covers_whole() && sf1.method == 0, "stored whole page");
        let mut torn = frames.clone();
        let mut bad = sf1.clone();
        bad.payload[9] ^= 1;
        torn[1] = Frame::Sub(bad);
        assert_eq!(refuse(&torn, trailer), SnapError::FrameCorrupt { seq: 1 });

        // Nothing landed; the same session lands the complete ship.
        let robj = replica.lookup("db").unwrap();
        assert_eq!(replica.epoch(robj), 0);
        let token = finish(&session, &mut vt, &mut rdisk, &mut replica, frames, trailer).unwrap();
        assert_eq!(token.epoch, full.header.target_epoch);
    }

    #[test]
    fn incompressible_page_ships_as_a_stored_whole_page_frame() {
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots_of(noise_page);
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        full_sync(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "a",
        );
        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some("a"), "b", None).unwrap();
        assert_eq!(stream.frames.len(), 2);
        for f in &stream.frames {
            let Frame::Sub(sf) = f else {
                panic!("expected a payload frame, got {f:?}");
            };
            assert!(sf.covers_whole() && sf.method == 0, "{sf:?}");
            assert_eq!(f.encoded_len(), 4124);
            assert_eq!(f.encoded_len(), f.encode().len());
        }
        let Frame::Sub(sf0) = stream.frames[0].clone() else {
            unreachable!("checked above");
        };
        let robj = replica.lookup("db").unwrap();
        let at = replica.epoch(robj);

        // A torn payload byte fails the frame checksum at finish.
        let mut torn = stream.clone();
        let mut bad = sf0.clone();
        bad.payload[100] ^= 0x04;
        torn.frames[0] = Frame::Sub(bad);
        assert_eq!(
            land(&mut vt, &mut rdisk, &mut replica, &torn, None),
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
        assert_eq!(
            land(&mut vt, &mut rdisk, &mut replica, &lying, None),
            Err(SnapError::BaseContentMismatch { page: sf0.page })
        );
        assert_eq!(replica.epoch(robj), at);

        // The real stream lands without one pre-image read on the
        // replica — a whole page needs no base — and byte-identically.
        let session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &stream.header).unwrap();
        let reads = |s: msnap_store::StoreStats| s.cache_hits + s.cache_misses;
        let before = reads(replica.stats());
        let frames = stream.frames.iter();
        let token = session
            .finish(
                &mut vt,
                &mut rdisk,
                &mut replica,
                frames,
                &stream.trailer,
                None,
            )
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
        // retired full-page kind (magic, seq, page, checksum, 4 KiB) is
        // not a frame this decoder knows.
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
    }

    /// Whether `wire` reads back piece by piece as a receiver reads it —
    /// the header, the frames it counts, the trailer — with every frame
    /// covered by its checksum.
    fn reads_back(wire: &[u8]) -> bool {
        let Ok((header, mut at)) = StreamHeader::decode(wire) else {
            return false;
        };
        for _ in 0..header.frame_count {
            match wire.get(at..).map(Frame::decode) {
                Some(Ok((f, used))) if f.verify() => at += used,
                _ => return false,
            }
        }
        wire.get(at..)
            .is_some_and(|t| StreamTrailer::decode(t).is_ok())
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders() {
        // A replica faces untrusted network bytes: every decoder must
        // fail cleanly on garbage, truncations, and bit flips.
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots();
        let wire =
            wire_of(&DeltaStream::build(&mut vt, &mut disk, &mut store, None, "b", None).unwrap());
        assert!(reads_back(&wire));
        for len in 0..wire.len() {
            assert!(!reads_back(&wire[..len]));
            let _ = StreamHeader::decode(&wire[..len]);
            let _ = Frame::decode(&wire[..len]);
            let _ = StreamTrailer::decode(&wire[..len]);
        }
        for stride in [1usize, 7, 13] {
            let mut bad = wire.clone();
            for i in (0..bad.len()).step_by(stride) {
                bad[i] ^= 0x5A;
            }
            assert!(!reads_back(&bad));
        }
        // A header lying about its frame count, sealed as if it were
        // true, must not over-allocate or panic.
        let (header, used) = StreamHeader::decode(&wire).unwrap();
        let mut lying = StreamHeader {
            frame_count: u64::MAX,
            ..header
        }
        .encode();
        lying.extend_from_slice(&wire[used..]);
        assert!(!reads_back(&lying));
    }

    /// A header, each frame kind and a trailer: the whole
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
    fn a_begin_is_the_fixed_part_and_the_object_name() {
        // The epoch-vector cut travels in the replication protocol's
        // CutAnnounce, not in every ship: a sharded primary's Begin is
        // no wider than an unsharded one's. Its fixed part is the kind,
        // the name's length, the base flag, the target epoch, the length
        // and the frame count (one byte each here) and the checksum.
        for shards in [1, 8] {
            let mut disk = Disk::new(DiskConfig::paper());
            let mut store = ObjectStore::format_sharded(&mut disk, shards);
            let mut vt = Vt::new(0);
            let obj = store.create(&mut vt, &mut disk, "db").unwrap();
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(0, &page_of(0x40))])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
            assert_eq!(store.cut(&mut vt, &mut disk).unwrap().epochs.len(), shards);
            store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
            let stream =
                DeltaStream::build(&mut vt, &mut disk, &mut store, None, "s", None).unwrap();
            let wire = stream.header.encode();
            assert!(stream.header.target_epoch < 128);
            assert_eq!(
                stream.header.encoded_len(),
                6 + 8 + "db".len(),
                "{shards} shards"
            );
            assert_eq!(wire.len(), stream.header.encoded_len());
            assert_eq!(
                StreamHeader::decode(&wire),
                Ok((stream.header.clone(), wire.len()))
            );
        }
    }

    #[test]
    fn a_header_in_the_cut_carrying_layout_is_malformed() {
        // One generation of every format: the previous header (cut_seq
        // and cut_len in an 80-byte fixed part, the cut's epochs after
        // the name, all under its checksum) is not a header this
        // decoder knows.
        let mut old = Vec::new();
        for v in [0x4d534e_41504532, 2, 1, 4, 5, 16, 2, 3, 4, 0] {
            put_u64(&mut old, v); // magic "MSN APE2", name, base, target, len, frames, cut seq/len, sum
        }
        old.extend_from_slice(b"db");
        for epoch in [5u64, 1, 7, 2] {
            put_u64(&mut old, epoch);
        }
        let sum = fnv1a_extend(fnv1a(&old[..72]), &old[80..]);
        old[72..80].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(StreamHeader::decode(&old), Err(SnapError::Malformed));
    }

    #[test]
    fn rebase_session_abandons_divergent_replica_history() {
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        // "Replica" is an old primary: it holds snapshot "a" and then
        // diverged past it on its own.
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        full_sync(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "a",
        );
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
        let session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &stream.header).unwrap();
        assert!(session.is_rebase());
        let frames = stream.frames.iter();
        let token = session
            .finish(
                &mut vt,
                &mut rdisk,
                &mut replica,
                frames,
                &stream.trailer,
                None,
            )
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
        full_sync(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "a",
        );

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
        let whole = |f: &Frame| SubPageFrame::stored_whole_len(f.seq(), f.page());
        let full_len = sub.header.encoded_len()
            + sub.frames.iter().map(whole).sum::<usize>()
            + sub.trailer.encoded_len();
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

        // The stream lands byte-identical to the target.
        apply(&mut vt, &mut rdisk, &mut replica, &sub, None);
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "b",
            &mut rdisk,
            &mut replica,
            8,
        );
        // A redelivery of the landed stream is refused up front.
        assert_eq!(
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &sub.header).unwrap_err(),
            SnapError::AlreadyCurrent
        );
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
        full_sync(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "b",
        );

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

        assert_eq!(
            land(&mut vt, &mut rdisk2, &mut replica2, &sub, None).unwrap_err(),
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
        apply(&mut vt, &mut rdisk, &mut replica, &s1, Some(&mut receiver));
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
        // A stored whole page 1 at seq 0 less its 19-byte reference.
        assert_eq!(s2.wire_savings().dedup_saved, 4124 - 19);
        assert!(s2.encoded_len() < 200, "a reference stream is tiny");

        apply(&mut vt, &mut rdisk, &mut replica, &s2, Some(&mut receiver));
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
        full_sync(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica2,
            &mut rdisk2,
            "b",
        );
        assert_eq!(
            land(&mut vt, &mut rdisk2, &mut replica2, &s2, None).unwrap_err(),
            SnapError::BaseContentMismatch { page: 1 }
        );
    }

    /// A stream built while an earlier one is still unacknowledged
    /// references the table the receiver will hold once it has landed
    /// that one: the earlier stream's own payload, and none of the
    /// committed images that payload evicts.
    #[test]
    fn a_stream_behind_a_pending_one_references_what_the_receiver_will_hold() {
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots_of(noise_page);
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        let (mut sender, mut receiver) = (DedupTable::default(), DedupTable::default());
        let s0 = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "b", Some(&mut sender))
            .unwrap();
        apply(&mut vt, &mut rdisk, &mut replica, &s0, Some(&mut receiver));
        sender.commit();
        let mut old = page_of(0);
        store
            .read_page_at(&mut vt, &mut disk, "b", 1, &mut old)
            .unwrap();

        // s1 rewrites all five pages: its payload evicts every image of
        // "b" from a five-page table.
        let fresh: Vec<Vec<u8>> = (0..5).map(|i| noise_page(0x40 + i)).collect();
        let iov: Vec<(u64, &[u8])> = (0..5).zip(fresh.iter().map(|p| &p[..])).collect();
        let t = store.persist(&mut vt, &mut disk, obj, &iov).unwrap();
        ObjectStore::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "s1")
            .unwrap();
        let s1 = DeltaStream::build(
            &mut vt,
            &mut disk,
            &mut store,
            Some("b"),
            "s1",
            Some(&mut sender),
        )
        .unwrap();

        // s2, built before s1 is acknowledged: page 0 takes s1's page 3,
        // page 2 takes "b"'s page 1, committed but evicted by s1.
        let t = store
            .persist(&mut vt, &mut disk, obj, &[(0, &fresh[3]), (2, &old)])
            .unwrap();
        ObjectStore::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "s2")
            .unwrap();
        let s2 = DeltaStream::build(
            &mut vt,
            &mut disk,
            &mut store,
            Some("s1"),
            "s2",
            Some(&mut sender),
        )
        .unwrap();
        let kinds: Vec<(u64, bool)> = s2
            .frames
            .iter()
            .map(|f| (f.page(), matches!(f, Frame::Ref(_))))
            .collect();
        assert_eq!(kinds, [(0, true), (2, false)]);

        for stream in [&s1, &s2] {
            apply(
                &mut vt,
                &mut rdisk,
                &mut replica,
                stream,
                Some(&mut receiver),
            );
            sender.commit();
        }
        assert_eq!(sender.entries, receiver.entries);
        assert_replica_matches(
            &mut vt,
            &mut disk,
            &mut store,
            "s2",
            &mut rdisk,
            &mut replica,
            5,
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
        assert!(table.holds(8, d, &a));
        assert!(!table.holds(8, d, &b), "collision must fail byte-verify");
        // The builder asks `holds`: with `b` it says no, so the page
        // ships as payload and the table re-stages `b`.
    }

    #[test]
    fn identical_content_rewrite_ships_empty_runs() {
        // Persisting a page with byte-identical content bumps the epoch
        // and shows up in the structural diff; the exact line diff finds
        // zero changed lines and ships a frame with no payload at all.
        let (mut disk, mut store, mut vt, obj) = primary_with_two_snapshots();
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        full_sync(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            "b",
        );
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
        apply(&mut vt, &mut rdisk, &mut replica, &s, None);
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
    fn v1_stream_header_is_malformed() {
        // A self-consistent header whose kind byte is the leading byte of
        // a retired magic — version 1 ("MSN APDS"), or the fixed-width
        // header ("MSN APE2") — its own checksum recomputed, is not a
        // stream this decoder knows: rejected at the header, never
        // applied. So is the whole fixed-width header, sealed its way.
        let (mut disk, mut store, mut vt, _) = primary_with_two_snapshots();
        let stream = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "b", None).unwrap();
        for magic in [0x4d534e_41504453u64, 0x4d534e_41504532] {
            let mut wire = stream.header.encode();
            wire[0] = magic as u8;
            let sealed = wire.len() - 8;
            let sum = fnv1a(&wire[..sealed]);
            wire[sealed..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                StreamHeader::decode(&wire).unwrap_err(),
                SnapError::Malformed
            );
        }
        let h = &stream.header;
        let mut fixed = Vec::new();
        for v in [0x4d534e_41504532, 2, 0, 0, h.target_epoch, h.len_pages] {
            put_u64(&mut fixed, v); // magic, name, no base, target, len
        }
        put_u64(&mut fixed, h.frame_count);
        put_u64(&mut fixed, 0);
        fixed.extend_from_slice(b"db");
        let sum = fnv1a_extend(fnv1a(&fixed[..56]), &fixed[64..]);
        fixed[56..64].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(StreamHeader::decode(&fixed), Err(SnapError::Malformed));
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
        let stream = DeltaStream::build(
            &mut vt,
            &mut disk,
            &mut store,
            Some("b"),
            "s2",
            Some(&mut dedup),
        )
        .unwrap();
        let wire = wire_of(&stream);
        assert!(reads_back(&wire));
        for len in 0..wire.len() {
            assert!(!reads_back(&wire[..len]));
            let _ = Frame::decode(&wire[..len]);
            let _ = SubPageFrame::decode(&wire[..len]);
            let _ = RefFrame::decode(&wire[..len]);
        }
        for stride in [1usize, 5, 11] {
            let mut bad = wire.clone();
            for i in (0..bad.len()).step_by(stride) {
                bad[i] ^= 0xA5;
            }
            assert!(!reads_back(&bad));
        }

        // Piece by piece — the header, each frame, a reference frame, the
        // trailer — every truncation is malformed, and every single
        // flipped bit is malformed or, in a frame, fails the frame's
        // checksum.
        let mut pieces = vec![(0, stream.header.encode())];
        pieces.extend(stream.frames.iter().map(|f| (1, f.encode())));
        pieces.push((1, RefFrame::new(1, 4, 5).encode()));
        pieces.push((2, stream.trailer.encode()));
        let sound = |kind: usize, bytes: &[u8]| match kind {
            0 => StreamHeader::decode(bytes).is_ok(),
            1 => Frame::decode(bytes).is_ok_and(|(f, _)| f.verify()),
            _ => StreamTrailer::decode(bytes).is_ok(),
        };
        for (kind, piece) in &pieces {
            assert!(sound(*kind, piece));
            for len in 0..piece.len() {
                assert!(!sound(*kind, &piece[..len]), "{kind} cut at {len}");
            }
            for bit in 0..piece.len() * 8 {
                let mut bad = piece.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(!sound(*kind, &bad), "{kind} bit {bit} flipped");
            }
            // The varint after the kind byte in a second spelling (padded
            // by a zero byte), or eleven bytes long, with a header's or
            // a trailer's checksum re-sealed over it: refused.
            assert!(piece[1] < 0x80, "a one-byte varint");
            let padded = [&[piece[0], piece[1] | 0x80, 0][..], &piece[2..]].concat();
            let over_long = [&[piece[0]][..], &[0x80; 10], &[0], &piece[2..]].concat();
            for mut bad in [padded, over_long] {
                if *kind != 1 {
                    let sealed = bad.len() - 8;
                    let sum = fnv1a(&bad[..sealed]);
                    bad[sealed..].copy_from_slice(&sum.to_le_bytes());
                }
                let decoded = match kind {
                    0 => StreamHeader::decode(&bad).map(|_| ()),
                    1 => Frame::decode(&bad).map(|_| ()),
                    _ => StreamTrailer::decode(&bad).map(|_| ()),
                };
                assert_eq!(decoded, Err(SnapError::Malformed), "{kind}: {bad:x?}");
            }
        }

        // Counts past their bounds are refused before anything is
        // allocated: more runs than a page holds, a run offset or a
        // method past 16 bits, a payload past a page.
        let sub = SubPageFrame::new(0, 3, 7, vec![(64, 128)], noise_page(3)[..128].to_vec());
        let refit = |run_count: u64, method: u64, payload: u64, off: u64| {
            let mut out = vec![SUB_FRAME_KIND, 0, 3];
            put_u64(&mut out, sub.page_digest);
            put_u64(&mut out, sub.checksum);
            for v in [run_count, method, 128, payload, off, 128] {
                put_varint(&mut out, v);
            }
            out.extend_from_slice(&sub.payload);
            SubPageFrame::decode(&out).map(|(f, _)| f)
        };
        assert_eq!(refit(1, 0, 128, 64), Ok(sub.clone()));
        for bad in [
            refit(MAX_SUB_RUNS as u64 + 1, 0, 128, 64),
            refit(u64::MAX, 0, 128, 64),
            refit(1, 1 << 16, 128, 64),
            refit(1, 0, BLOCK_SIZE as u64 + 1, 64),
            refit(1, 0, 128, 1 << 16),
        ] {
            assert_eq!(bad, Err(SnapError::Malformed));
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
