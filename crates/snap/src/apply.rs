//! Landing a stream on a replica: [`ApplySession`].

use super::*;

/// Replica-side application of one delta stream: [`ApplySession::begin`]
/// decides from the header whether (and onto what) the stream lands,
/// and [`ApplySession::finish`] checks the complete ship — its frames
/// and its trailer — and lands it as one crash-atomic commit.
#[derive(Debug)]
pub struct ApplySession {
    object: ObjectId,
    target_epoch: Epoch,
    /// Object length at the target epoch (bounds the dedup table).
    len_pages: u64,
    frame_count: u64,
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
        let rebase_from = match header.base_epoch {
            Some(base) if base != at => {
                let mismatch = SnapError::BaseMismatch {
                    stream_base: base,
                    replica: at,
                };
                Some(retained_at(replica, object, base).ok_or(mismatch)?)
            }
            _ => None,
        };
        Ok(ApplySession {
            object,
            target_epoch: header.target_epoch,
            len_pages: header.len_pages,
            frame_count: header.frame_count,
            rebase_from,
        })
    }

    /// Whether this session will rebase onto a retained snapshot,
    /// abandoning the replica's divergent history at
    /// [`ApplySession::finish`].
    pub fn is_rebase(&self) -> bool {
        self.rebase_from.is_some()
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

    /// Lands a complete ship: runs the one stream-binding check over
    /// `frames` and `trailer` — frames `0, 1, 2, …` in order, each covered
    /// by its checksum, exactly as many as the header and the trailer
    /// count, chained as the trailer sums them — then commits them
    /// through [`ObjectStore::apply_image`] (over the retained base
    /// snapshot for a rebase session): one crash-atomic root switch
    /// landing the replica exactly at the target epoch. This is the only
    /// place a received frame's checksum is checked. The session stays
    /// open, so a caller that re-receives a damaged frame finishes again.
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
    /// [`SnapError::Malformed`] for a frame out of sequence,
    /// [`SnapError::FrameCorrupt`] for the first frame its checksum does
    /// not cover, [`SnapError::TrailerMismatch`] if frames are missing
    /// or the stream checksum disagrees, [`SnapError::BaseContentMismatch`]
    /// when a frame's patched page misses its digest (the replica's
    /// base content is not what the sender diffed against) or a
    /// reference cannot be resolved — the caller falls back to a full
    /// resync — or [`SnapError::Store`] if the commit itself fails.
    /// Nothing is written in any of these cases: the replica stays at
    /// its previous epoch.
    pub fn finish<'a>(
        &self,
        vt: &mut Vt,
        disk: &mut Disk,
        replica: &mut ObjectStore,
        frames: impl Iterator<Item = &'a Frame> + Clone,
        trailer: &StreamTrailer,
        dedup: Option<&mut DedupTable>,
    ) -> Result<CommitToken, SnapError> {
        let mut count = 0;
        for frame in frames.clone() {
            if frame.seq() != count {
                return Err(SnapError::Malformed);
            }
            if !frame.verify() {
                return Err(SnapError::FrameCorrupt { seq: count });
            }
            count += 1;
        }
        if count != self.frame_count
            || trailer.frames != count
            || trailer.stream_sum != chain_sum(frames.clone())
        {
            return Err(SnapError::TrailerMismatch);
        }
        // Resolve every frame to a full page image in memory before
        // touching the store: the commit below stays a single
        // crash-atomic root switch over whole pages.
        let mut resolved: Vec<(u64, Vec<u8>, bool)> = Vec::with_capacity(count as usize);
        for frame in frames {
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
            for (_, bytes, was_ref) in resolved {
                if !was_ref {
                    let d = table.digest(&bytes);
                    table.insert(d, bytes);
                }
            }
        }
        Ok(token)
    }
}

/// The name of a snapshot `store` retains of `object` at exactly
/// `epoch`: the base a delta from `epoch` is diffed against or rebases
/// onto.
pub fn retained_at(store: &ObjectStore, object: ObjectId, epoch: Epoch) -> Option<String> {
    let mut catalog = store.snapshots().into_iter();
    let entry = catalog.find(|s| s.object == object && s.epoch == epoch);
    entry.map(|s| s.name)
}
