//! The stream's wire forms — header, frames, trailer — each encoded and
//! decoded on its own; decoding never panics.

use super::*;

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
}

impl StreamHeader {
    /// Wire size of this header, from its fields' lengths.
    pub fn encoded_len(&self) -> usize {
        let base = self.base_epoch.map_or(0, varint_len);
        1 + varint_len(self.object.len() as u64)
            + self.object.len()
            + 1
            + base
            + varint_len(self.target_epoch)
            + varint_len(self.len_pages)
            + varint_len(self.frame_count)
            + 8
    }

    /// Serializes the header to its checksummed, self-delimiting wire
    /// form (the first piece of a stream on the wire): the kind byte, the
    /// name's length and bytes, a base flag (then the base), the target
    /// epoch, the length and the frame count as varints, then the
    /// checksum of every byte before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(STREAM_KIND);
        put_varint(&mut out, self.object.len() as u64);
        out.extend_from_slice(self.object.as_bytes());
        put_varint(&mut out, u64::from(self.base_epoch.is_some()));
        for v in
            self.base_epoch
                .into_iter()
                .chain([self.target_epoch, self.len_pages, self.frame_count])
        {
            put_varint(&mut out, v);
        }
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Parses a header from the front of `bytes`, returning it and the
    /// number of bytes consumed. Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation, a bad kind, a
    /// non-canonical varint, or a checksum that does not cover the bytes.
    pub fn decode(bytes: &[u8]) -> Result<(StreamHeader, usize), SnapError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != STREAM_KIND {
            return Err(SnapError::Malformed);
        }
        let name_len = bounded(r.varint()?, bytes.len())?;
        let name = r.take(name_len)?;
        let base_epoch = match r.varint()? {
            0 => None,
            1 => Some(r.varint()?),
            _ => return Err(SnapError::Malformed),
        };
        let (target_epoch, len_pages, frame_count) = (r.varint()?, r.varint()?, r.varint()?);
        if fnv1a(&bytes[..r.at()]) != r.u64()? {
            return Err(SnapError::Malformed);
        }
        let header = StreamHeader {
            object: String::from_utf8(name.to_vec()).map_err(|_| SnapError::Malformed)?,
            base_epoch,
            target_epoch,
            len_pages,
            frame_count,
        };
        Ok((header, r.at()))
    }
}

/// The one payload frame: sorted non-overlapping byte-range runs within
/// a single page, their (optionally compressed) payload, and the digest
/// of the fully-patched page so the receiver can prove its base content
/// matched the sender's before committing. A whole page is the one-run
/// case ([`SubPageFrame::covers_whole`]).
///
/// Wire form: the kind byte, `seq page` (varints), `page_digest
/// checksum` (full-width `u64`s), `run_count method raw_len
/// payload_len` (varints), then `run_count` runs of `(offset, len)`
/// bytes within the page (varints), then the payload (`method` 0 =
/// stored raw run bytes, 1 = `compress`-encoded — the incompressible
/// bypass keeps method 0).
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
    pub(super) fn compute_checksum(&self) -> u64 {
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

    pub(super) fn new(
        seq: u64,
        page: u64,
        page_digest: u64,
        runs: Vec<(u16, u16)>,
        raw: Vec<u8>,
    ) -> Self {
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
    pub(super) fn resolve_into(&self, page: &mut [u8]) -> Option<()> {
        let raw = match self.method {
            0 => self.payload.clone(),
            _ => compress::decompress(&self.payload, self.raw_len as usize)?,
        };
        scatter(page, &self.runs, &raw)
    }

    /// Wire size of this frame, from its fields' lengths.
    pub fn encoded_len(&self) -> usize {
        let runs: usize = self.runs.iter().map(|&(o, l)| run_len(o, l)).sum();
        head_len(self.seq, self.page)
            + varint_len(self.runs.len() as u64)
            + varint_len(u64::from(self.method))
            + varint_len(u64::from(self.raw_len))
            + varint_len(self.payload.len() as u64)
            + runs
            + self.payload.len()
    }

    /// Wire size of the stored (uncompressed) whole-page frame at `seq`
    /// for `page` — what shipping that page page-granularly costs, the
    /// yardstick sub-page framing, dedup and compression are measured
    /// against.
    pub fn stored_whole_len(seq: u64, page: u64) -> usize {
        let whole = BLOCK_SIZE as u64;
        // One run, method 0, and the page's length as raw and payload.
        head_len(seq, page) + 2 + 2 * varint_len(whole) + run_len(0, whole as u16) + BLOCK_SIZE
    }

    /// Serializes the frame — one datagram's worth of stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        put_head(&mut out, SUB_FRAME_KIND, self.seq, self.page);
        put_u64(&mut out, self.page_digest);
        put_u64(&mut out, self.checksum);
        for v in [
            self.runs.len() as u64,
            u64::from(self.method),
            u64::from(self.raw_len),
            self.payload.len() as u64,
        ] {
            put_varint(&mut out, v);
        }
        for &(off, len) in &self.runs {
            put_varint(&mut out, u64::from(off));
            put_varint(&mut out, u64::from(len));
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
    /// [`SnapError::Malformed`] for truncation, a bad kind, a
    /// non-canonical varint, or lying run/payload counts.
    pub fn decode(bytes: &[u8]) -> Result<(SubPageFrame, usize), SnapError> {
        let mut r = Reader::new(bytes);
        let (seq, page) = read_head(&mut r, SUB_FRAME_KIND)?;
        let (page_digest, checksum) = (r.u64()?, r.u64()?);
        let run_count = bounded(r.varint()?, MAX_SUB_RUNS)?;
        let method = read_u16(&mut r)?;
        let raw_len = bounded(r.varint()?, BLOCK_SIZE)? as u32;
        let payload_len = bounded(r.varint()?, BLOCK_SIZE)?;
        // Each run takes two bytes at least: a count the bytes cannot
        // hold allocates nothing.
        if run_count > r.rest().len() / 2 {
            return Err(SnapError::Malformed);
        }
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            runs.push((read_u16(&mut r)?, read_u16(&mut r)?));
        }
        let frame = SubPageFrame {
            seq,
            page,
            page_digest,
            checksum,
            runs,
            method,
            raw_len,
            payload: r.take(payload_len)?.to_vec(),
        };
        Ok((frame, r.at()))
    }
}

/// `v` as a count or a length, if it is at most `cap`.
fn bounded(v: u64, cap: usize) -> Result<usize, SnapError> {
    usize::try_from(v)
        .ok()
        .filter(|&n| n <= cap)
        .ok_or(SnapError::Malformed)
}

/// A varint that must fit 16 bits.
fn read_u16(r: &mut Reader) -> Result<u16, SnapError> {
    u16::try_from(r.varint()?).map_err(|_| SnapError::Malformed)
}

/// Wire size of a frame's kind byte, `seq` and `page` and its two
/// full-width words (the page digest or dedup digest, and the checksum).
fn head_len(seq: u64, page: u64) -> usize {
    1 + varint_len(seq) + varint_len(page) + 16
}

/// Wire size of one `(offset, len)` run.
fn run_len(off: u16, len: u16) -> usize {
    varint_len(u64::from(off)) + varint_len(u64::from(len))
}

/// Writes a frame's kind byte, `seq` and `page`.
fn put_head(out: &mut Vec<u8>, kind: u8, seq: u64, page: u64) {
    out.push(kind);
    put_varint(out, seq);
    put_varint(out, page);
}

/// Reads a frame's kind byte, which must be `kind`, then `seq` and `page`.
fn read_head(r: &mut Reader, kind: u8) -> Result<(u64, u64), SnapError> {
    if r.u8()? != kind {
        return Err(SnapError::Malformed);
    }
    Ok((r.varint()?, r.varint()?))
}

/// A dedup reference: "this page's content is the image whose digest
/// you already hold" — ~20 wire bytes in place of a 4 KiB payload.
/// Emitted only for digests the receiver's table will hold with
/// byte-identical content when it lands the stream (see
/// [`DedupTable`]); sender and receiver tables advance in lockstep
/// (stage at build, commit on ack), so the receiver resolves the digest
/// to the same bytes.
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

    pub(super) fn new(seq: u64, page: u64, digest: u64) -> Self {
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

    /// Wire size of this reference frame, from its fields' lengths.
    pub fn encoded_len(&self) -> usize {
        head_len(self.seq, self.page)
    }

    /// Serializes the frame: the kind byte, `seq` and `page` (varints),
    /// then the digest and the checksum (full-width `u64`s).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        put_head(&mut out, REF_FRAME_KIND, self.seq, self.page);
        put_u64(&mut out, self.digest);
        put_u64(&mut out, self.checksum);
        out
    }

    /// Parses a frame from the front of `bytes`, returning it and the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation, a bad kind or a
    /// non-canonical varint.
    pub fn decode(bytes: &[u8]) -> Result<(RefFrame, usize), SnapError> {
        let mut r = Reader::new(bytes);
        let (seq, page) = read_head(&mut r, REF_FRAME_KIND)?;
        let (digest, checksum) = (r.u64()?, r.u64()?);
        let frame = RefFrame {
            seq,
            page,
            digest,
            checksum,
        };
        Ok((frame, r.at()))
    }
}

/// One stream frame: page bytes (runs, whole page included) or a dedup
/// reference. The wire forms are distinguished by their kind byte, so a
/// mixed stream decodes frame by frame.
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
            Frame::Ref(f) => f.encoded_len(),
        }
    }

    /// Serializes the frame — one datagram's worth of stream.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Sub(f) => f.encode(),
            Frame::Ref(f) => f.encode(),
        }
    }

    /// Parses whichever frame kind opens `bytes` (dispatch on its kind
    /// byte), returning it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation or an unknown kind.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), SnapError> {
        match bytes.first() {
            Some(&SUB_FRAME_KIND) => SubPageFrame::decode(bytes).map(|(f, n)| (Frame::Sub(f), n)),
            Some(&REF_FRAME_KIND) => RefFrame::decode(bytes).map(|(f, n)| (Frame::Ref(f), n)),
            _ => Err(SnapError::Malformed),
        }
    }
}

impl StreamTrailer {
    /// Wire size of the trailer, from its fields' lengths.
    pub fn encoded_len(&self) -> usize {
        1 + varint_len(self.frames) + 16
    }

    /// Serializes the trailer: the kind byte, the frame count (a
    /// varint), the stream sum, then the checksum of every byte before
    /// it (full-width `u64`s).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(TRAILER_KIND);
        put_varint(&mut out, self.frames);
        put_u64(&mut out, self.stream_sum);
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Parses a trailer from the front of `bytes`, returning it and the
    /// bytes consumed. Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation, a bad kind, a
    /// non-canonical varint, or a self-checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<(StreamTrailer, usize), SnapError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != TRAILER_KIND {
            return Err(SnapError::Malformed);
        }
        let (frames, stream_sum) = (r.varint()?, r.u64()?);
        if fnv1a(&bytes[..r.at()]) != r.u64()? {
            return Err(SnapError::Malformed);
        }
        Ok((StreamTrailer { frames, stream_sum }, r.at()))
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

pub(super) fn chain_sum<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> u64 {
    frames.into_iter().fold(msnap_store::FNV_OFFSET, |h, f| {
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
    /// Bytes saved by dedup references (the stored whole-page frame
    /// minus the reference frame, each at its encoded length, per
    /// reference).
    pub dedup_saved: u64,
    /// Bytes saved by payload compression (raw minus compressed, per
    /// compressed frame).
    pub compress_saved: u64,
}

impl DeltaStream {
    /// What this stream saved relative to shipping every frame as a
    /// stored whole page ([`SubPageFrame::stored_whole_len`]).
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
                Frame::Ref(rf) => {
                    let whole = SubPageFrame::stored_whole_len(rf.seq, rf.page);
                    s.dedup_saved += (whole - rf.encoded_len()) as u64;
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
            + self.trailer.encoded_len()
    }
}
