//! The stream's wire forms — header, frames, trailer, whole stream —
//! each encoded and decoded on its own; decoding never panics.

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
    /// The primary's newest durable epoch-vector cut at build time.
    /// Replication uses it to promote replicas only at manifest-wide
    /// consistent cuts.
    pub cut: Option<VectorCut>,
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
        let epochs = self.cut.as_ref().map_or(&[][..], |c| &c.epochs);
        let mut out = Vec::with_capacity(self.encoded_len());
        for v in [
            STREAM_MAGIC,
            self.object.len() as u64,
            u64::from(self.base_epoch.is_some()),
            self.base_epoch.unwrap_or(0),
            self.target_epoch,
            self.len_pages,
            self.frame_count,
            self.cut.as_ref().map_or(0, |c| c.seq),
            epochs.len() as u64,
            0, // the checksum, sealed below
        ] {
            put_u64(&mut out, v);
        }
        out.extend_from_slice(self.object.as_bytes());
        epochs.iter().for_each(|&e| put_u64(&mut out, e));
        let sum = fnv1a_extend(fnv1a(&out[..72]), &out[HEADER_FIXED..]);
        out[72..HEADER_FIXED].copy_from_slice(&sum.to_le_bytes());
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
        let mut r = Reader::new(bytes);
        if r.u64()? != STREAM_MAGIC {
            return Err(SnapError::Malformed);
        }
        let name_len = r.u64()? as usize;
        let (has_base, base) = (r.u64()? != 0, r.u64()?);
        let (target_epoch, len_pages, frame_count) = (r.u64()?, r.u64()?, r.u64()?);
        let (cut_seq, cut_len) = (r.u64()?, r.u64()?);
        if cut_len > MAX_CUT_EPOCHS {
            return Err(SnapError::Malformed);
        }
        let sum = r.u64()?;
        let name = r.take(name_len)?;
        let epochs = (0..cut_len)
            .map(|_| r.u64())
            .collect::<Result<Vec<_>, _>>()?;
        if fnv1a_extend(fnv1a(&bytes[..72]), &bytes[HEADER_FIXED..r.at()]) != sum {
            return Err(SnapError::Malformed);
        }
        let header = StreamHeader {
            object: String::from_utf8(name.to_vec()).map_err(|_| SnapError::Malformed)?,
            base_epoch: has_base.then_some(base),
            target_epoch,
            len_pages,
            frame_count,
            cut: (cut_len > 0).then_some(VectorCut {
                seq: cut_seq,
                epochs,
            }),
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

    /// Wire size of this frame.
    pub fn encoded_len(&self) -> usize {
        SUB_FIXED + self.runs.len() * 4 + self.payload.len()
    }

    /// Serializes the frame — one datagram's worth of stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        for v in [
            SUB_FRAME_MAGIC,
            self.seq,
            self.page,
            self.page_digest,
            self.checksum,
        ] {
            put_u64(&mut out, v);
        }
        put_u16(&mut out, self.runs.len() as u16);
        put_u16(&mut out, self.method);
        put_u32(&mut out, self.raw_len);
        put_u32(&mut out, self.payload.len() as u32);
        for &(off, len) in &self.runs {
            put_u16(&mut out, off);
            put_u16(&mut out, len);
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
        let mut r = Reader::new(bytes);
        if r.u64()? != SUB_FRAME_MAGIC {
            return Err(SnapError::Malformed);
        }
        let (seq, page, page_digest, checksum) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let (run_count, method) = (r.u16()? as usize, r.u16()?);
        let (raw_len, payload_len) = (r.u32()?, r.u32()? as usize);
        if run_count > MAX_SUB_RUNS || payload_len > BLOCK_SIZE || raw_len as usize > BLOCK_SIZE {
            return Err(SnapError::Malformed);
        }
        let runs = (0..run_count).map(|_| Ok((r.u16()?, r.u16()?)));
        let runs = runs.collect::<Result<_, Short>>()?;
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

    /// Wire size of one reference frame.
    pub const fn encoded_len() -> usize {
        REF_FRAME_LEN
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REF_FRAME_LEN);
        for v in [
            REF_FRAME_MAGIC,
            self.seq,
            self.page,
            self.digest,
            self.checksum,
        ] {
            put_u64(&mut out, v);
        }
        out
    }

    /// Parses a frame from the front of `bytes`, returning it and the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation or a bad magic.
    pub fn decode(bytes: &[u8]) -> Result<(RefFrame, usize), SnapError> {
        let mut r = Reader::new(bytes);
        if r.u64()? != REF_FRAME_MAGIC {
            return Err(SnapError::Malformed);
        }
        let frame = RefFrame {
            seq: r.u64()?,
            page: r.u64()?,
            digest: r.u64()?,
            checksum: r.u64()?,
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
        match Reader::new(bytes).u64()? {
            SUB_FRAME_MAGIC => SubPageFrame::decode(bytes).map(|(f, n)| (Frame::Sub(f), n)),
            REF_FRAME_MAGIC => RefFrame::decode(bytes).map(|(f, n)| (Frame::Ref(f), n)),
            _ => Err(SnapError::Malformed),
        }
    }
}

impl StreamTrailer {
    /// Wire size of the trailer.
    pub const fn encoded_len() -> usize {
        TRAILER_LEN
    }

    /// Serializes the trailer (checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TRAILER_LEN);
        for v in [TRAILER_MAGIC, self.frames, self.stream_sum] {
            put_u64(&mut out, v);
        }
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Parses a trailer from the front of `bytes`, returning it and the
    /// bytes consumed. Never panics on malformed input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for truncation, a bad magic, or a
    /// self-checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<(StreamTrailer, usize), SnapError> {
        let mut r = Reader::new(bytes);
        if r.u64()? != TRAILER_MAGIC {
            return Err(SnapError::Malformed);
        }
        let (frames, stream_sum) = (r.u64()?, r.u64()?);
        if fnv1a(&bytes[..24]) != r.u64()? {
            return Err(SnapError::Malformed);
        }
        let trailer = StreamTrailer { frames, stream_sum };
        Ok((trailer, TRAILER_LEN))
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

pub(super) fn chain_sum(frames: &[Frame]) -> u64 {
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

impl DeltaStream {
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
