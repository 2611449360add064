//! Landing a stream on a replica: [`ApplySession`], and the one-call
//! [`sync_to`] driver.

use super::*;

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

/// The name of a snapshot `store` retains of `object` at exactly
/// `epoch`: the base a delta from `epoch` is diffed against or rebases
/// onto.
pub fn retained_at(store: &ObjectStore, object: ObjectId, epoch: Epoch) -> Option<String> {
    let mut catalog = store.snapshots().into_iter();
    let entry = catalog.find(|s| s.object == object && s.epoch == epoch);
    entry.map(|s| s.name)
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
    let base = retained_at(primary, entry.object, replica_epoch);
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
