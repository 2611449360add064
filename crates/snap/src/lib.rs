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

#![warn(missing_docs)]

mod compress;

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use msnap_disk::{Disk, BLOCK_SIZE};
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

/// The self-describing head of a delta stream: which object it updates,
/// the epoch span it covers, and how many frames follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// Name of the object the stream updates (store-directory name).
    pub object: String,
    /// Epoch the delta was diffed against; `None` for a full image.
    pub base_epoch: Option<Epoch>,
    /// Epoch the replica lands at when the stream is applied.
    pub target_epoch: Epoch,
    /// Object length in pages at the target epoch.
    pub len_pages: u64,
    /// Number of page frames in the stream.
    pub frame_count: u64,
    /// The primary's newest durable epoch-vector cut at build time.
    /// Replication uses it to promote replicas only at manifest-wide
    /// consistent cuts.
    pub cut: Option<VectorCut>,
}

/// Reads a little-endian `u64` at `off`, failing with
/// [`SnapError::Malformed`] instead of panicking on short input —
/// network bytes are untrusted.
fn read_u64(buf: &[u8], off: usize) -> Result<u64, SnapError> {
    let end = off.checked_add(8).ok_or(SnapError::Malformed)?;
    let bytes = buf.get(off..end).ok_or(SnapError::Malformed)?;
    let mut v = [0u8; 8];
    v.copy_from_slice(bytes);
    Ok(u64::from_le_bytes(v))
}

fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

impl StreamHeader {
    /// Wire size of this header: the fixed part, the object name, and
    /// one `u64` per cut epoch when a cut rides along.
    pub fn encoded_len(&self) -> usize {
        HEADER_FIXED + self.object.len() + self.cut.as_ref().map_or(0, |c| c.epochs.len() * 8)
    }

    /// Serializes the header to its checksummed, self-delimiting wire
    /// form (the first piece of [`DeltaStream::encode`]). The cut, when
    /// present, is framed as `cut_seq` and `cut_len` in the fixed part
    /// (`cut_len = 0` means no cut) followed by the epoch vector after
    /// the name bytes; the checksum binds all of it.
    pub fn encode(&self) -> Vec<u8> {
        let mut head = [0u8; HEADER_FIXED];
        write_u64(&mut head, 0, STREAM_MAGIC);
        write_u64(&mut head, 8, self.object.len() as u64);
        write_u64(&mut head, 16, u64::from(self.base_epoch.is_some()));
        write_u64(&mut head, 24, self.base_epoch.unwrap_or(0));
        write_u64(&mut head, 32, self.target_epoch);
        write_u64(&mut head, 40, self.len_pages);
        write_u64(&mut head, 48, self.frame_count);
        write_u64(&mut head, 56, self.cut.as_ref().map_or(0, |c| c.seq));
        write_u64(
            &mut head,
            64,
            self.cut.as_ref().map_or(0, |c| c.epochs.len() as u64),
        );
        let mut tail = self.object.as_bytes().to_vec();
        if let Some(cut) = &self.cut {
            for e in &cut.epochs {
                tail.extend_from_slice(&e.to_le_bytes());
            }
        }
        let sum = fnv1a_extend(fnv1a(&head[0..72]), &tail);
        write_u64(&mut head, 72, sum);
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&head);
        out.extend_from_slice(&tail);
        out
    }

    /// Parses a header from the front of `bytes`, returning it and the
    /// number of bytes consumed. Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation, a bad magic, or a
    /// checksum that does not cover the bytes.
    pub fn decode(bytes: &[u8]) -> Result<(StreamHeader, usize), SnapError> {
        if read_u64(bytes, 0)? != STREAM_MAGIC {
            return Err(SnapError::Malformed);
        }
        let name_len = read_u64(bytes, 8)? as usize;
        let cut_len = read_u64(bytes, 64)?;
        if cut_len > MAX_CUT_EPOCHS {
            return Err(SnapError::Malformed);
        }
        let name_end = HEADER_FIXED
            .checked_add(name_len)
            .ok_or(SnapError::Malformed)?;
        let total = name_end
            .checked_add(cut_len as usize * 8)
            .ok_or(SnapError::Malformed)?;
        let name_bytes = bytes
            .get(HEADER_FIXED..name_end)
            .ok_or(SnapError::Malformed)?;
        let tail = bytes.get(HEADER_FIXED..total).ok_or(SnapError::Malformed)?;
        let fixed = bytes.get(0..72).ok_or(SnapError::Malformed)?;
        if fnv1a_extend(fnv1a(fixed), tail) != read_u64(bytes, 72)? {
            return Err(SnapError::Malformed);
        }
        let cut = if cut_len == 0 {
            None
        } else {
            let epochs = (0..cut_len)
                .map(|i| read_u64(bytes, name_end + i as usize * 8))
                .collect::<Result<Vec<_>, _>>()?;
            Some(VectorCut {
                seq: read_u64(bytes, 56)?,
                epochs,
            })
        };
        let header = StreamHeader {
            object: String::from_utf8(name_bytes.to_vec()).map_err(|_| SnapError::Malformed)?,
            base_epoch: (read_u64(bytes, 16)? != 0)
                .then(|| read_u64(bytes, 24))
                .transpose()?,
            target_epoch: read_u64(bytes, 32)?,
            len_pages: read_u64(bytes, 40)?,
            frame_count: read_u64(bytes, 48)?,
            cut,
        };
        Ok((header, total))
    }
}

/// The one payload frame: sorted non-overlapping byte-range runs within
/// a single page, their (optionally compressed) payload, and the digest
/// of the fully-patched page so the receiver can prove its base content
/// matched the sender's before committing. A whole page is the one-run
/// case ([`SubPageFrame::covers_whole`]).
///
/// Wire form: `magic seq page page_digest checksum` (five `u64`s),
/// then `run_count method` (two `u16`s) and `raw_len payload_len` (two
/// `u32`s), then `run_count` runs of `(offset: u16, len: u16)` bytes
/// within the page, then the payload (`method` 0 = stored raw run
/// bytes, 1 = `compress`-encoded — the incompressible bypass keeps
/// method 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubPageFrame {
    /// 0-based position in the stream.
    pub seq: u64,
    /// Page index within the object.
    pub page: u64,
    /// FNV-1a of the complete patched target page — the receiver
    /// verifies it after applying the runs to its base content.
    pub page_digest: u64,
    /// Sorted, non-overlapping `(offset, len)` byte runs within the
    /// page. A single `(0, BLOCK_SIZE)` run is a whole-page frame that
    /// needs no base read; an empty list means the page content is
    /// byte-identical to the base (epoch-only change).
    pub runs: Vec<(u16, u16)>,
    /// Payload encoding: 0 = stored, 1 = compressed.
    pub method: u16,
    /// Concatenated run bytes before compression.
    pub raw_len: u32,
    /// The payload: the concatenated run bytes, compressed when
    /// `method == 1`.
    pub payload: Vec<u8>,
    /// FNV-1a over the frame's fields (everything but the magic).
    pub checksum: u64,
}

impl SubPageFrame {
    fn compute_checksum(&self) -> u64 {
        let mut sum = fnv1a(&self.seq.to_le_bytes());
        sum = fnv1a_extend(sum, &self.page.to_le_bytes());
        sum = fnv1a_extend(sum, &self.page_digest.to_le_bytes());
        sum = fnv1a_extend(sum, &(self.runs.len() as u16).to_le_bytes());
        sum = fnv1a_extend(sum, &self.method.to_le_bytes());
        sum = fnv1a_extend(sum, &self.raw_len.to_le_bytes());
        for (off, len) in &self.runs {
            sum = fnv1a_extend(sum, &off.to_le_bytes());
            sum = fnv1a_extend(sum, &len.to_le_bytes());
        }
        fnv1a_extend(sum, &self.payload)
    }

    fn new(seq: u64, page: u64, page_digest: u64, runs: Vec<(u16, u16)>, raw: Vec<u8>) -> Self {
        let raw_len = raw.len() as u32;
        let (method, payload) = match compress::compress(&raw) {
            Some(z) => (1, z),
            None => (0, raw),
        };
        let mut frame = SubPageFrame {
            seq,
            page,
            page_digest,
            runs,
            method,
            raw_len,
            payload,
            checksum: 0,
        };
        frame.checksum = frame.compute_checksum();
        frame
    }

    /// Whether the frame rewrites the entire page (no base read needed).
    pub fn covers_whole(&self) -> bool {
        self.runs == [(0u16, BLOCK_SIZE as u16)]
    }

    /// Whether the frame's checksum covers its content and its structure
    /// is self-consistent: runs sorted, non-overlapping, inside the
    /// page, and summing to `raw_len`; the payload length matches the
    /// declared method.
    pub fn verify(&self) -> bool {
        if self.checksum != self.compute_checksum() {
            return false;
        }
        if self.runs.len() > MAX_SUB_RUNS || self.raw_len as usize > BLOCK_SIZE {
            return false;
        }
        let mut cursor = 0usize;
        let mut total = 0usize;
        for (i, (off, len)) in self.runs.iter().enumerate() {
            let (off, len) = (*off as usize, *len as usize);
            if len == 0 || (i > 0 && off < cursor) || off + len > BLOCK_SIZE {
                return false;
            }
            cursor = off + len;
            total += len;
        }
        if total != self.raw_len as usize {
            return false;
        }
        match self.method {
            0 => self.payload.len() == self.raw_len as usize,
            1 => self.payload.len() < self.raw_len as usize,
            _ => false,
        }
    }

    /// Decodes the payload and scatters the runs into `page`, which must
    /// hold the base content (or zeros for a whole-page frame). `None`
    /// if the payload does not decompress to `raw_len` bytes.
    fn resolve_into(&self, page: &mut [u8]) -> Option<()> {
        let raw = match self.method {
            0 => self.payload.clone(),
            _ => compress::decompress(&self.payload, self.raw_len as usize)?,
        };
        scatter(page, &self.runs, &raw)
    }

    /// Wire size of this frame.
    pub fn encoded_len(&self) -> usize {
        SUB_FIXED + self.runs.len() * 4 + self.payload.len()
    }

    /// Serializes the frame — one datagram's worth of stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        let mut fh = [0u8; SUB_FIXED];
        write_u64(&mut fh, 0, SUB_FRAME_MAGIC);
        write_u64(&mut fh, 8, self.seq);
        write_u64(&mut fh, 16, self.page);
        write_u64(&mut fh, 24, self.page_digest);
        write_u64(&mut fh, 32, self.checksum);
        fh[40..42].copy_from_slice(&(self.runs.len() as u16).to_le_bytes());
        fh[42..44].copy_from_slice(&self.method.to_le_bytes());
        fh[44..48].copy_from_slice(&self.raw_len.to_le_bytes());
        fh[48..52].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fh);
        for (off, len) in &self.runs {
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a frame from the front of `bytes`, returning it and the
    /// bytes consumed. Structural only — content integrity is checked by
    /// [`SubPageFrame::verify`]. Never panics or over-allocates on
    /// malformed input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation, a bad magic, or lying
    /// run/payload counts.
    pub fn decode(bytes: &[u8]) -> Result<(SubPageFrame, usize), SnapError> {
        if read_u64(bytes, 0)? != SUB_FRAME_MAGIC {
            return Err(SnapError::Malformed);
        }
        let fixed = bytes.get(..SUB_FIXED).ok_or(SnapError::Malformed)?;
        let run_count = u16::from_le_bytes([fixed[40], fixed[41]]) as usize;
        let method = u16::from_le_bytes([fixed[42], fixed[43]]);
        let raw_len = u32::from_le_bytes([fixed[44], fixed[45], fixed[46], fixed[47]]);
        let payload_len = u32::from_le_bytes([fixed[48], fixed[49], fixed[50], fixed[51]]) as usize;
        if run_count > MAX_SUB_RUNS || payload_len > BLOCK_SIZE || raw_len as usize > BLOCK_SIZE {
            return Err(SnapError::Malformed);
        }
        let runs_end = SUB_FIXED + run_count * 4;
        let total = runs_end + payload_len;
        let run_bytes = bytes.get(SUB_FIXED..runs_end).ok_or(SnapError::Malformed)?;
        let payload = bytes.get(runs_end..total).ok_or(SnapError::Malformed)?;
        let runs = run_bytes
            .chunks_exact(4)
            .map(|c| {
                (
                    u16::from_le_bytes([c[0], c[1]]),
                    u16::from_le_bytes([c[2], c[3]]),
                )
            })
            .collect();
        let frame = SubPageFrame {
            seq: read_u64(bytes, 8)?,
            page: read_u64(bytes, 16)?,
            page_digest: read_u64(bytes, 24)?,
            checksum: read_u64(bytes, 32)?,
            runs,
            method,
            raw_len,
            payload: payload.to_vec(),
        };
        Ok((frame, total))
    }
}

/// A dedup reference: "this page's content is the image whose digest
/// you already hold" — ~40 wire bytes in place of a 4 KiB payload.
/// Emitted only for digests the *sender's* table holds with
/// byte-identical content (see [`DedupTable::matches`]); sender and
/// receiver tables advance in lockstep (stage at build, commit on ack),
/// so the receiver resolves the digest to the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefFrame {
    /// 0-based position in the stream.
    pub seq: u64,
    /// Page index within the object.
    pub page: u64,
    /// Digest of the page content in the receiver's dedup table.
    pub digest: u64,
    /// FNV-1a over `seq || page || digest`.
    pub checksum: u64,
}

impl RefFrame {
    fn compute_checksum(seq: u64, page: u64, digest: u64) -> u64 {
        let mut sum = fnv1a(&seq.to_le_bytes());
        sum = fnv1a_extend(sum, &page.to_le_bytes());
        fnv1a_extend(sum, &digest.to_le_bytes())
    }

    fn new(seq: u64, page: u64, digest: u64) -> Self {
        RefFrame {
            seq,
            page,
            digest,
            checksum: Self::compute_checksum(seq, page, digest),
        }
    }

    /// Whether the frame's checksum covers its content.
    pub fn verify(&self) -> bool {
        self.checksum == Self::compute_checksum(self.seq, self.page, self.digest)
    }

    /// Wire size of one reference frame.
    pub const fn encoded_len() -> usize {
        REF_FRAME_LEN
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut fh = [0u8; REF_FRAME_LEN];
        write_u64(&mut fh, 0, REF_FRAME_MAGIC);
        write_u64(&mut fh, 8, self.seq);
        write_u64(&mut fh, 16, self.page);
        write_u64(&mut fh, 24, self.digest);
        write_u64(&mut fh, 32, self.checksum);
        fh.to_vec()
    }

    /// Parses a frame from the front of `bytes`, returning it and the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation or a bad magic.
    pub fn decode(bytes: &[u8]) -> Result<(RefFrame, usize), SnapError> {
        if read_u64(bytes, 0)? != REF_FRAME_MAGIC {
            return Err(SnapError::Malformed);
        }
        if bytes.len() < REF_FRAME_LEN {
            return Err(SnapError::Malformed);
        }
        let frame = RefFrame {
            seq: read_u64(bytes, 8)?,
            page: read_u64(bytes, 16)?,
            digest: read_u64(bytes, 24)?,
            checksum: read_u64(bytes, 32)?,
        };
        Ok((frame, REF_FRAME_LEN))
    }
}

/// One stream frame: page bytes (runs, whole page included) or a dedup
/// reference. The wire forms are distinguished by magic, so a mixed
/// stream decodes frame by frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Byte runs of one page, with the patched page's digest.
    Sub(SubPageFrame),
    /// A content-hash reference to an already-shipped page image.
    Ref(RefFrame),
}

impl Frame {
    /// The frame's 0-based position in the stream.
    pub fn seq(&self) -> u64 {
        match self {
            Frame::Sub(f) => f.seq,
            Frame::Ref(f) => f.seq,
        }
    }

    /// The page index the frame updates.
    pub fn page(&self) -> u64 {
        match self {
            Frame::Sub(f) => f.page,
            Frame::Ref(f) => f.page,
        }
    }

    /// The frame's content checksum (what the trailer chains).
    pub fn checksum(&self) -> u64 {
        match self {
            Frame::Sub(f) => f.checksum,
            Frame::Ref(f) => f.checksum,
        }
    }

    /// Whether the frame's checksum covers its content.
    pub fn verify(&self) -> bool {
        match self {
            Frame::Sub(f) => f.verify(),
            Frame::Ref(f) => f.verify(),
        }
    }

    /// Wire size of this frame.
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::Sub(f) => f.encoded_len(),
            Frame::Ref(_) => REF_FRAME_LEN,
        }
    }

    /// Serializes the frame — one datagram's worth of stream.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Sub(f) => f.encode(),
            Frame::Ref(f) => f.encode(),
        }
    }

    /// Parses whichever frame kind opens `bytes` (dispatch on magic),
    /// returning it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation or an unknown magic.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), SnapError> {
        match read_u64(bytes, 0)? {
            SUB_FRAME_MAGIC => SubPageFrame::decode(bytes).map(|(f, n)| (Frame::Sub(f), n)),
            REF_FRAME_MAGIC => RefFrame::decode(bytes).map(|(f, n)| (Frame::Ref(f), n)),
            _ => Err(SnapError::Malformed),
        }
    }
}

/// A bounded FIFO table of recently-shipped page images keyed by
/// content digest, kept in lockstep on both ends of a replication link
/// so repeated content ships as [`RefFrame`]s.
///
/// Protocol discipline (what keeps a reference always resolvable to the
/// *right* bytes):
///
/// - The sender consults only **committed** entries when emitting a
///   reference, and byte-verifies the stored image against the page it
///   is about to ship ([`DedupTable::matches`]) — a digest collision
///   ships as payload, never as a stale reference.
/// - Pages shipped as payload are **staged** at build time and
///   committed only when the receiver acknowledges the stream; the
///   receiver inserts the same images, in the same order, when it
///   commits the stream. Both tables therefore hold identical
///   digest→bytes maps at every acknowledged point.
/// - A session reset (hello / full resync) clears both sides.
#[derive(Debug, Clone)]
pub struct DedupTable {
    /// Ceiling the table was created with.
    max_cap: usize,
    /// Images retained right now: `max_cap` bounded by the object's
    /// length (see [`DedupTable::fit`]).
    cap: usize,
    hasher: fn(&[u8]) -> u64,
    /// Committed digest→image entries, oldest first.
    entries: VecDeque<(u64, Vec<u8>)>,
    /// Images shipped as payload in not-yet-acknowledged streams.
    pending: Vec<(u64, Vec<u8>)>,
}

impl Default for DedupTable {
    fn default() -> Self {
        DedupTable::new(DEDUP_CAP)
    }
}

impl DedupTable {
    /// A table retaining up to `cap` page images, digested with FNV-1a.
    pub fn new(cap: usize) -> Self {
        DedupTable::with_hasher(cap, fnv1a)
    }

    /// A table with a caller-chosen digest function — test hook for
    /// forcing collisions; production uses [`DedupTable::new`].
    pub fn with_hasher(cap: usize, hasher: fn(&[u8]) -> u64) -> Self {
        DedupTable {
            max_cap: cap.max(1),
            cap: cap.max(1),
            hasher,
            entries: VecDeque::new(),
            pending: Vec::new(),
        }
    }

    /// Digest of `bytes` under this table's hash function.
    pub fn digest(&self, bytes: &[u8]) -> u64 {
        (self.hasher)(bytes)
    }

    /// Whether a committed entry holds `digest` with content
    /// byte-identical to `bytes` — the only condition under which a
    /// sender may emit a reference. A colliding digest over different
    /// bytes returns `false`.
    pub fn matches(&self, digest: u64, bytes: &[u8]) -> bool {
        self.entries
            .iter()
            .any(|(d, img)| *d == digest && img == bytes)
    }

    /// The committed image stored under `digest`, if any (receiver-side
    /// reference resolution).
    pub fn get(&self, digest: u64) -> Option<&[u8]> {
        self.entries
            .iter()
            .rev()
            .find(|(d, _)| *d == digest)
            .map(|(_, img)| &img[..])
    }

    /// Stages an image shipped as payload in a stream that is not yet
    /// acknowledged. [`DedupTable::commit`] moves it into the table.
    pub fn stage(&mut self, digest: u64, bytes: Vec<u8>) {
        self.pending.push((digest, bytes));
    }

    /// Commits every staged image (the stream they rode was
    /// acknowledged), in staging order, evicting oldest entries beyond
    /// capacity. A re-staged digest replaces the older image.
    pub fn commit(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for (digest, bytes) in pending {
            self.insert(digest, bytes);
        }
    }

    /// Inserts one committed image directly (the receiver path: images
    /// resolved from an applied stream are committed facts).
    pub fn insert(&mut self, digest: u64, bytes: Vec<u8>) {
        self.entries.retain(|(d, _)| *d != digest);
        self.entries.push_back((digest, bytes));
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }

    /// Bounds the table by the object it serves: an object of
    /// `len_pages` pages has at most that many distinct live images
    /// worth referencing, so a small object must not pin a full-size
    /// table. Both ends call this with the stream header's
    /// [`StreamHeader::len_pages`] — the sender before staging, the
    /// receiver before inserting — so the tables stay in lockstep.
    pub fn fit(&mut self, len_pages: u64) {
        self.cap = len_pages.clamp(1, self.max_cap as u64) as usize;
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }

    /// Drops every entry, committed and staged — a session reset.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.pending.clear();
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl StreamTrailer {
    /// Wire size of the trailer.
    pub const fn encoded_len() -> usize {
        TRAILER_LEN
    }

    /// Serializes the trailer (checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut t = [0u8; TRAILER_LEN];
        write_u64(&mut t, 0, TRAILER_MAGIC);
        write_u64(&mut t, 8, self.frames);
        write_u64(&mut t, 16, self.stream_sum);
        let sum = fnv1a(&t[0..24]);
        write_u64(&mut t, 24, sum);
        t.to_vec()
    }

    /// Parses a trailer from the front of `bytes`, returning it and the
    /// bytes consumed. Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation, a bad magic, or a
    /// self-checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<(StreamTrailer, usize), SnapError> {
        if read_u64(bytes, 0)? != TRAILER_MAGIC {
            return Err(SnapError::Malformed);
        }
        let fixed = bytes.get(0..24).ok_or(SnapError::Malformed)?;
        if fnv1a(fixed) != read_u64(bytes, 24)? {
            return Err(SnapError::Malformed);
        }
        Ok((
            StreamTrailer {
                frames: read_u64(bytes, 8)?,
                stream_sum: read_u64(bytes, 16)?,
            },
            TRAILER_LEN,
        ))
    }
}

/// The stream's end marker: the frame count and a checksum chaining
/// every frame checksum, so a truncated or reordered stream cannot pass
/// as complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTrailer {
    /// Total frames the stream carries.
    pub frames: u64,
    /// FNV-1a over the concatenated frame checksums, in order.
    pub stream_sum: u64,
}

/// A complete delta stream: header, page frames, trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaStream {
    /// The stream head.
    pub header: StreamHeader,
    /// The frames, in sequence order.
    pub frames: Vec<Frame>,
    /// The end marker.
    pub trailer: StreamTrailer,
}

fn chain_sum(frames: &[Frame]) -> u64 {
    frames.iter().fold(msnap_store::FNV_OFFSET, |h, f| {
        fnv1a_extend(h, &f.checksum().to_le_bytes())
    })
}

/// Wire-efficiency summary of a built stream: what sub-page framing,
/// dedup, and compression saved relative to shipping stored whole pages
/// (the numbers `LinkMetrics` aggregates per replication link).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireSavings {
    /// Payload frames shipped ([`Frame::Sub`]: runs of a page, a whole
    /// page included) — every frame that is not a reference.
    pub subpage_frames: u64,
    /// Bytes saved by dedup references ([`WHOLE_FRAME_LEN`] minus the
    /// reference frame size, per reference).
    pub dedup_saved: u64,
    /// Bytes saved by payload compression (raw minus compressed, per
    /// compressed frame).
    pub compress_saved: u64,
}

/// Where frame assembly reads a stream's bytes and learns its changed
/// lines — the two front doors of [`DeltaStream`] building share
/// everything else.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// A retained snapshot pair: bytes from `target`, exact 64-byte-line
    /// diffs against `base`.
    Snapshots {
        base: Option<&'a str>,
        target: &'a str,
    },
    /// The object's current epoch, with the dirty-line record
    /// (page → line mask) of the commits since the base.
    Live { extents: &'a BTreeMap<u64, u64> },
}

/// What a stream lands: the object (id and directory name), the epoch
/// and length it reaches, and the `(epoch, len_pages)` it is a delta
/// against (`None`: full image).
struct Span {
    object: ObjectId,
    name: String,
    base: Option<(Epoch, u64)>,
    target_epoch: Epoch,
    len_pages: u64,
}

impl DeltaStream {
    /// Builds the stream shipping `target` (a retained snapshot on the
    /// primary) as a delta against `base` (another retained snapshot of
    /// the same object), or as a full image when `base` is `None`.
    ///
    /// The wire bytes are proportional to the bytes that actually
    /// changed: per diffed page it emits, in order of preference, a
    /// [`RefFrame`] (the content is already in the committed `dedup`
    /// table, byte-verified), a partial [`SubPageFrame`] covering only
    /// the changed 64-byte lines, or a whole-page [`SubPageFrame`]
    /// (compressed when that pays, stored otherwise).
    ///
    /// Changed lines come from an exact 64-byte-line diff against the
    /// retained `base` snapshot. Pages whose changed lines exceed ~50%
    /// of the page — or that lie outside the base image — ship whole.
    /// Pages shipped as payload are *staged* into `dedup`; the caller
    /// commits them when the stream is acknowledged
    /// ([`DedupTable::commit`]).
    ///
    /// # Errors
    ///
    /// [`SnapError::Store`] wrapping [`StoreError::SnapshotNotFound`] /
    /// [`StoreError::SnapshotMismatch`] for bad snapshot pairs.
    pub fn build(
        vt: &mut Vt,
        disk: &mut Disk,
        store: &mut ObjectStore,
        base: Option<&str>,
        target: &str,
        dedup: Option<&mut DedupTable>,
    ) -> Result<DeltaStream, SnapError> {
        let entry = store
            .snapshot_lookup(target)
            .ok_or(StoreError::SnapshotNotFound)?;
        let base_span = match base {
            None => None,
            Some(name) => {
                let b = store
                    .snapshot_lookup(name)
                    .ok_or(StoreError::SnapshotNotFound)?;
                Some((b.epoch, b.len_pages))
            }
        };
        let pages = store.snapshot_diff(vt, disk, base, target)?;
        let span = Span {
            object: entry.object,
            name: store
                .object_name(entry.object)
                .ok_or(StoreError::NotFound)?,
            base: base_span,
            target_epoch: entry.epoch,
            len_pages: entry.len_pages,
        };
        let source = Source::Snapshots { base, target };
        Self::assemble(vt, disk, store, source, span, pages, dedup)
    }

    /// Builds the stream that takes a replica from `base` — the
    /// `(epoch, len_pages)` of `object` it last acknowledged — to the
    /// object's **current** epoch, without any retained snapshot: the
    /// pages and line masks are `extents`, the dirty-line record the
    /// commits of `(base, current]` left behind
    /// (`MemSnap::subpage_extents`, which the caller must have obtained
    /// for exactly that span), and the bytes are verified reads of the
    /// live object. Frames are chosen exactly as by
    /// [`DeltaStream::build`]; with no base image to diff against, a
    /// page whose line mask is zero (lines unknown) ships whole.
    ///
    /// # Errors
    ///
    /// [`SnapError::Store`] wrapping [`StoreError::NotFound`] for an
    /// unknown object, or a failed or digest-mismatched page read.
    pub fn build_live(
        vt: &mut Vt,
        disk: &mut Disk,
        store: &mut ObjectStore,
        object: ObjectId,
        base: (Epoch, u64),
        extents: &BTreeMap<u64, u64>,
        dedup: Option<&mut DedupTable>,
    ) -> Result<DeltaStream, SnapError> {
        let span = Span {
            object,
            name: store.object_name(object).ok_or(StoreError::NotFound)?,
            base: Some(base),
            target_epoch: store.epoch(object),
            len_pages: store.len_pages(object),
        };
        let pages = extents.keys().copied().collect();
        let source = Source::Live { extents };
        Self::assemble(vt, disk, store, source, span, pages, dedup)
    }

    /// The one frame-assembly loop: reads each of `pages` from `source`,
    /// picks its frame (reference, partial, whole), stages payload
    /// images for dedup and seals the stream.
    fn assemble(
        vt: &mut Vt,
        disk: &mut Disk,
        store: &mut ObjectStore,
        source: Source<'_>,
        span: Span,
        pages: Vec<u64>,
        mut dedup: Option<&mut DedupTable>,
    ) -> Result<DeltaStream, SnapError> {
        if let Some(table) = dedup.as_deref_mut() {
            table.fit(span.len_pages);
        }
        let base_len = span.base.map_or(0, |(_, len)| len);
        let mut frames = Vec::with_capacity(pages.len());
        let mut tbuf = vec![0u8; BLOCK_SIZE];
        let mut bbuf = vec![0u8; BLOCK_SIZE];
        for (seq, page) in pages.into_iter().enumerate() {
            let seq = seq as u64;
            match source {
                Source::Snapshots { target, .. } => {
                    store.read_page_at(vt, disk, target, page, &mut tbuf)?;
                }
                Source::Live { .. } => store.read_page(vt, disk, span.object, page, &mut tbuf)?,
            }
            let digest = dedup.as_ref().map(|t| t.digest(&tbuf));
            if let (Some(table), Some(d)) = (dedup.as_ref(), digest) {
                if table.matches(d, &tbuf) {
                    // Byte-verified against the committed image — a
                    // colliding digest over different bytes ships as
                    // payload below, never as a stale reference.
                    frames.push(Frame::Ref(RefFrame::new(seq, page, d)));
                    continue;
                }
            }
            // Changed-line bitmap. Partial frames need the receiver to
            // hold the base content of this page, so they are only
            // emitted for pages inside the base image.
            let in_base = page < base_len;
            let lines: Option<u64> = match source {
                Source::Snapshots {
                    base: Some(base), ..
                } if in_base => {
                    store.read_page_at(vt, disk, base, page, &mut bbuf)?;
                    let mut bits = 0u64;
                    for line in 0..LINES_PER_PAGE {
                        let range = line * LINE_SIZE..(line + 1) * LINE_SIZE;
                        if tbuf[range.clone()] != bbuf[range] {
                            bits |= 1 << line;
                        }
                    }
                    Some(bits)
                }
                Source::Snapshots { .. } => None,
                // A zero mask on a committed page means the commits lost
                // the lines — treat as unknown.
                Source::Live { extents } => extents
                    .get(&page)
                    .copied()
                    .filter(|&bits| bits != 0 && in_base),
            };
            let (runs, raw) = match lines {
                Some(bits) if bits.count_ones() <= SUBPAGE_CUTOFF => {
                    // An exact diff of 0 lines is a provably content-
                    // identical page (epoch-only change): empty runs.
                    let runs = line_runs(bits);
                    let mut raw = Vec::with_capacity(bits.count_ones() as usize * LINE_SIZE);
                    gather(&tbuf, &runs, &mut raw);
                    (runs, raw)
                }
                _ => (vec![(0, BLOCK_SIZE as u16)], tbuf.clone()),
            };
            let frame = SubPageFrame::new(seq, page, fnv1a(&tbuf), runs, raw);
            frames.push(Frame::Sub(frame));
            if let (Some(table), Some(d)) = (dedup.as_deref_mut(), digest) {
                table.stage(d, tbuf.clone());
            }
        }
        let trailer = StreamTrailer {
            frames: frames.len() as u64,
            stream_sum: chain_sum(&frames),
        };
        Ok(DeltaStream {
            header: StreamHeader {
                object: span.name,
                base_epoch: span.base.map(|(epoch, _)| epoch),
                target_epoch: span.target_epoch,
                len_pages: span.len_pages,
                frame_count: frames.len() as u64,
                // The consumer promotes only at complete cuts.
                cut: store.last_cut().cloned(),
            },
            frames,
            trailer,
        })
    }

    /// What this stream saved relative to shipping every frame as a
    /// stored whole page ([`WHOLE_FRAME_LEN`]).
    pub fn wire_savings(&self) -> WireSavings {
        let mut s = WireSavings::default();
        for f in &self.frames {
            match f {
                Frame::Sub(sf) => {
                    s.subpage_frames += 1;
                    if sf.method == 1 {
                        s.compress_saved += sf.raw_len as u64 - sf.payload.len() as u64;
                    }
                }
                Frame::Ref(_) => {
                    s.dedup_saved += (WHOLE_FRAME_LEN - REF_FRAME_LEN) as u64;
                }
            }
        }
        s
    }

    /// Payload bytes the stream ships (the replication cost a full image
    /// is compared against).
    pub fn encoded_len(&self) -> usize {
        self.header.encoded_len()
            + self.frames.iter().map(Frame::encoded_len).sum::<usize>()
            + TRAILER_LEN
    }

    /// Serializes the stream to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.header.encode());
        for f in &self.frames {
            out.extend_from_slice(&f.encode());
        }
        out.extend_from_slice(&self.trailer.encode());
        out
    }

    /// Parses and fully validates a wire-form stream: header checksum,
    /// every frame checksum, and the trailer binding. Never panics (or
    /// over-allocates) on malformed input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for structural damage,
    /// [`SnapError::FrameCorrupt`] / [`SnapError::TrailerMismatch`] for
    /// checksum failures.
    pub fn decode(bytes: &[u8]) -> Result<DeltaStream, SnapError> {
        let (header, mut off) = StreamHeader::decode(bytes)?;
        // An attacker-controlled frame count must not drive the
        // allocation — cap the reserve by what the bytes could hold
        // (the smallest frame is a reference frame).
        let cap = (header.frame_count as usize).min(bytes.len() / REF_FRAME_LEN + 1);
        let mut frames = Vec::with_capacity(cap);
        for seq in 0..header.frame_count {
            let rest = bytes.get(off..).ok_or(SnapError::Malformed)?;
            let (frame, used) = Frame::decode(rest)?;
            if frame.seq() != seq {
                return Err(SnapError::Malformed);
            }
            if !frame.verify() {
                return Err(SnapError::FrameCorrupt { seq });
            }
            frames.push(frame);
            off += used;
        }
        let rest = bytes.get(off..).ok_or(SnapError::Malformed)?;
        let (trailer, _) = StreamTrailer::decode(rest)?;
        if trailer.frames != frames.len() as u64 || trailer.stream_sum != chain_sum(&frames) {
            return Err(SnapError::TrailerMismatch);
        }
        Ok(DeltaStream {
            header,
            frames,
            trailer,
        })
    }
}

/// Replica-side application of one delta stream: feed frames in order
/// (resuming from [`ApplySession::next_seq`] after an interruption),
/// then [`ApplySession::finish`] to land the whole stream as one
/// crash-atomic commit.
#[derive(Debug)]
pub struct ApplySession {
    object: ObjectId,
    target_epoch: Epoch,
    /// Object length at the target epoch (bounds the dedup table).
    len_pages: u64,
    expected_frames: u64,
    staged: Vec<Frame>,
    next_seq: u64,
    running_sum: u64,
    /// A retained snapshot on the replica at exactly the stream's base
    /// epoch, when the replica's *live* epoch has diverged past it: the
    /// failover rebase path: [`ObjectStore::apply_image`] over this base.
    rebase_from: Option<String>,
}

impl ApplySession {
    /// Opens an apply session against the replica for `header`.
    ///
    /// A delta stream (`base_epoch = Some`) requires the replica to sit
    /// exactly at the base epoch — **or** to retain a snapshot at
    /// exactly that epoch, in which case the session becomes a *rebase*:
    /// [`ApplySession::finish`] applies the delta on top of the retained
    /// snapshot, atomically abandoning everything the replica committed
    /// past it (how a failed primary rejoins after promotion elsewhere).
    /// A full stream applies from any epoch behind the target. The
    /// replica object is created if missing.
    ///
    /// # Errors
    ///
    /// [`SnapError::BaseMismatch`] (caller falls back to a full sync),
    /// [`SnapError::AlreadyCurrent`], or [`SnapError::Store`].
    pub fn begin(
        vt: &mut Vt,
        disk: &mut Disk,
        replica: &mut ObjectStore,
        header: &StreamHeader,
    ) -> Result<ApplySession, SnapError> {
        let object = match replica.lookup(&header.object) {
            Some(id) => id,
            None => replica.create(vt, disk, &header.object)?,
        };
        let at = replica.epoch(object);
        if at >= header.target_epoch {
            return Err(SnapError::AlreadyCurrent);
        }
        let mut rebase_from = None;
        if let Some(base) = header.base_epoch {
            if base != at {
                rebase_from = replica
                    .snapshots()
                    .into_iter()
                    .find(|s| s.object == object && s.epoch == base)
                    .map(|s| s.name);
                if rebase_from.is_none() {
                    return Err(SnapError::BaseMismatch {
                        stream_base: base,
                        replica: at,
                    });
                }
            }
        }
        Ok(ApplySession {
            object,
            target_epoch: header.target_epoch,
            len_pages: header.len_pages,
            expected_frames: header.frame_count,
            // An untrusted frame count must not drive the allocation;
            // the staging vector grows as frames actually arrive.
            staged: Vec::new(),
            next_seq: 0,
            running_sum: msnap_store::FNV_OFFSET,
            rebase_from,
        })
    }

    /// Whether this session will rebase onto a retained snapshot,
    /// abandoning the replica's divergent history at
    /// [`ApplySession::finish`].
    pub fn is_rebase(&self) -> bool {
        self.rebase_from.is_some()
    }

    /// The sequence number the session expects next — the resume point
    /// after an interrupted transfer.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Stages one frame, taking it over — the session is where a
    /// received frame lives until [`ApplySession::finish`]. Frames must
    /// arrive in sequence order and verify their checksum; a rejected
    /// frame is dropped and leaves the session unchanged, so the sender
    /// may retransmit it.
    ///
    /// # Errors
    ///
    /// [`SnapError::SequenceGap`] or [`SnapError::FrameCorrupt`].
    pub fn feed(&mut self, frame: Frame) -> Result<(), SnapError> {
        if frame.seq() != self.next_seq {
            return Err(SnapError::SequenceGap {
                expected: self.next_seq,
                got: frame.seq(),
            });
        }
        if !frame.verify() {
            return Err(SnapError::FrameCorrupt { seq: frame.seq() });
        }
        self.running_sum = fnv1a_extend(self.running_sum, &frame.checksum().to_le_bytes());
        self.staged.push(frame);
        self.next_seq += 1;
        Ok(())
    }

    /// Reads the replica's pre-image of `page` — its live content, or
    /// the retained rebase snapshot's content for a rebase session.
    fn read_preimage(
        &self,
        vt: &mut Vt,
        disk: &mut Disk,
        replica: &mut ObjectStore,
        page: u64,
        buf: &mut [u8],
    ) -> Result<(), StoreError> {
        match &self.rebase_from {
            None => replica.read_page(vt, disk, self.object, page, buf),
            Some(snap) => replica.read_page_at(vt, disk, snap, page, buf),
        }
    }

    /// Verifies the trailer against everything staged and commits the
    /// stream through [`ObjectStore::apply_image`] (over the retained
    /// base snapshot for a rebase session) — one crash-atomic root switch
    /// landing the replica exactly at the target epoch.
    ///
    /// `dedup` is the receiver-side dedup table: [`Frame::Ref`] frames
    /// resolve against it, and every page that arrived as payload is
    /// inserted into it after the commit succeeds (mirroring the
    /// sender's stage-then-commit, so both tables hold the same images
    /// at every acknowledged point). A stream built with a dedup table
    /// must be finished with one; a stream built without takes `None`.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailerMismatch`] if frames are missing or the
    /// stream checksum disagrees, [`SnapError::BaseContentMismatch`]
    /// when a frame's patched page misses its digest (the replica's
    /// base content is not what the sender diffed against) or a
    /// reference cannot be resolved — the caller falls back to a full
    /// resync — or [`SnapError::Store`] if the commit itself fails.
    /// Nothing is written in any of these cases: the replica stays at
    /// its previous epoch.
    pub fn finish(
        self,
        vt: &mut Vt,
        disk: &mut Disk,
        replica: &mut ObjectStore,
        trailer: &StreamTrailer,
        dedup: Option<&mut DedupTable>,
    ) -> Result<CommitToken, SnapError> {
        if self.next_seq != self.expected_frames
            || trailer.frames != self.expected_frames
            || trailer.stream_sum != self.running_sum
        {
            return Err(SnapError::TrailerMismatch);
        }
        // Resolve every frame to a full page image in memory before
        // touching the store: the commit below stays a single
        // crash-atomic root switch over whole pages.
        let mut resolved: Vec<(u64, Vec<u8>, bool)> = Vec::with_capacity(self.staged.len());
        for frame in &self.staged {
            let page = frame.page();
            let mismatch = SnapError::BaseContentMismatch { page };
            let (bytes, was_ref) = match frame {
                Frame::Sub(sf) => {
                    let mut pb = vec![0u8; BLOCK_SIZE];
                    if !sf.covers_whole() {
                        self.read_preimage(vt, disk, replica, page, &mut pb)
                            .map_err(|_| mismatch.clone())?;
                    }
                    sf.resolve_into(&mut pb).ok_or(mismatch.clone())?;
                    if fnv1a(&pb) != sf.page_digest {
                        return Err(mismatch);
                    }
                    (pb, false)
                }
                Frame::Ref(rf) => {
                    let img = dedup
                        .as_ref()
                        .and_then(|t| t.get(rf.digest))
                        .ok_or(mismatch)?;
                    (img.to_vec(), true)
                }
            };
            resolved.push((page, bytes, was_ref));
        }
        let iov: Vec<(u64, &[u8])> = resolved.iter().map(|(p, d, _)| (*p, &d[..])).collect();
        let base = self.rebase_from.as_deref();
        let token = replica.apply_image(vt, disk, self.object, base, &iov, self.target_epoch)?;
        // The stream landed: remember every payload image, in stream
        // order, exactly as the sender staged them.
        if let Some(table) = dedup {
            table.fit(self.len_pages);
            for (_, bytes, was_ref) in &resolved {
                if !*was_ref {
                    let d = table.digest(bytes);
                    table.insert(d, bytes.clone());
                }
            }
        }
        Ok(token)
    }
}

/// Outcome of one [`sync_to`] catch-up round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Epoch the replica landed at.
    pub target_epoch: Epoch,
    /// Pages shipped.
    pub pages: u64,
    /// Wire bytes of the stream.
    pub bytes: u64,
    /// Whether the round fell back to a full image (no usable base).
    pub full_sync: bool,
}

/// Ships the retained snapshot `target` from the primary to the replica:
/// incrementally when the primary still retains a snapshot at exactly
/// the replica's epoch (the delta base), as a full image otherwise —
/// the base-epoch-gone fallback. The stream round-trips through its
/// wire encoding, so every checksum in the framing is exercised on
/// every sync.
///
/// # Errors
///
/// [`SnapError::AlreadyCurrent`] if the replica is at or past the
/// target, or any build/decode/apply error. A failed apply leaves the
/// replica at its previous epoch; the call may simply be retried.
#[allow(clippy::too_many_arguments)]
pub fn sync_to(
    vt: &mut Vt,
    primary: &mut ObjectStore,
    primary_disk: &mut Disk,
    replica: &mut ObjectStore,
    replica_disk: &mut Disk,
    target: &str,
) -> Result<SyncReport, SnapError> {
    let entry = primary
        .snapshot_lookup(target)
        .ok_or(StoreError::SnapshotNotFound)?
        .clone();
    let object_name = primary
        .object_name(entry.object)
        .ok_or(StoreError::NotFound)?;
    let replica_epoch = replica
        .lookup(&object_name)
        .map_or(0, |id| replica.epoch(id));
    if replica_epoch >= entry.epoch {
        return Err(SnapError::AlreadyCurrent);
    }
    // A delta needs a retained base at exactly the replica's epoch; when
    // reclamation (snapshot_delete) has dropped it, fall back to full.
    let base = primary
        .snapshots()
        .into_iter()
        .find(|s| s.object == entry.object && s.epoch == replica_epoch)
        .map(|s| s.name);
    let stream = DeltaStream::build(vt, primary_disk, primary, base.as_deref(), target, None)?;
    let wire = stream.encode();
    let bytes = wire.len() as u64;
    let stream = DeltaStream::decode(&wire)?;
    let mut session = ApplySession::begin(vt, replica_disk, replica, &stream.header)?;
    for frame in stream.frames {
        session.feed(frame)?;
    }
    let token = session.finish(vt, replica_disk, replica, &stream.trailer, None)?;
    ObjectStore::wait(vt, token);
    Ok(SyncReport {
        target_epoch: token.epoch,
        pages: stream.trailer.frames,
        bytes,
        full_sync: base.is_none(),
    })
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
        let mut retired = vec![0u8; 32];
        write_u64(&mut retired, 0, 0x4d534e_41504446); // "MSN APDF"
        write_u64(&mut retired, 8, seq);
        write_u64(&mut retired, 16, page);
        write_u64(&mut retired, 24, sum);
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
        write_u64(&mut wire, 0, 0x4d534e_41504453); // "MSN APDS"
        let head_len = stream.header.encoded_len();
        let sum = fnv1a_extend(fnv1a(&wire[0..72]), &wire[HEADER_FIXED..head_len]);
        write_u64(&mut wire, 72, sum);
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
