//! Building a stream: two front doors ([`DeltaStream::build`],
//! [`DeltaStream::build_live`]) over one frame-assembly loop.

use super::*;

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
    /// [`RefFrame`] (the content is in the `dedup` table the receiver
    /// holds when it lands the stream, byte-verified), a partial
    /// [`SubPageFrame`] covering only the changed 64-byte lines, or a
    /// whole-page [`SubPageFrame`] (compressed when that pays, stored
    /// otherwise).
    ///
    /// Changed lines come from an exact 64-byte-line diff against the
    /// retained `base` snapshot. Pages whose changed lines exceed ~50%
    /// of the page — or that lie outside the base image — ship whole.
    /// Pages shipped as payload are *staged* into `dedup`, behind the
    /// streams still pending there; the caller commits each stream when
    /// it is acknowledged ([`DedupTable::commit`]), oldest first.
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
        dedup: Option<&mut DedupTable>,
    ) -> Result<DeltaStream, SnapError> {
        let mut staged = Vec::new();
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
            if let (Some(table), Some(d)) = (dedup.as_deref(), digest) {
                if table.holds(span.len_pages, d, &tbuf) {
                    // Byte-verified against the image the receiver will
                    // hold — a colliding digest over different bytes
                    // ships as payload below, never as a stale reference.
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
            if let Some(d) = digest {
                staged.push((d, tbuf.clone()));
            }
        }
        if let Some(table) = dedup {
            table.stage(span.len_pages, staged);
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
            },
            frames,
            trailer,
        })
    }
}
