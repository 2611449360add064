//! The per-link content-hash table both ends keep in lockstep, so
//! repeated content ships as [`RefFrame`]s.

use super::*;

/// A bounded FIFO table of recently-shipped page images keyed by
/// content digest, kept in lockstep on both ends of a replication link
/// so repeated content ships as [`RefFrame`]s.
///
/// Protocol discipline (what keeps a reference always resolvable to the
/// *right* bytes):
///
/// - Pages shipped as payload are **staged** at build time, one pending
///   stream at a time, and committed only when the receiver
///   acknowledges that stream; the receiver inserts the same images, in
///   the same order and behind the same [`DedupTable::fit`], when it
///   lands the stream. Both tables therefore hold identical
///   digest→bytes maps at every acknowledged point.
/// - The sender emits a reference only for an image of the table the
///   receiver will hold when it lands the new stream — the committed
///   entries with every pending stream's images inserted in stream
///   order, evictions included (`holds`) — byte-verified
///   against the page it is about to ship: a digest collision ships as
///   payload, never as a stale reference.
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
    pub(super) entries: VecDeque<(u64, Vec<u8>)>,
    /// Streams built and not yet acknowledged, oldest first: each one's
    /// length in pages and the images it shipped as payload.
    pending: VecDeque<Staged>,
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
            pending: VecDeque::new(),
        }
    }

    /// Digest of `bytes` under this table's hash function.
    pub fn digest(&self, bytes: &[u8]) -> u64 {
        (self.hasher)(bytes)
    }

    /// Whether a stream of `len_pages` pages built now may reference
    /// `bytes` under `digest`: the table the receiver will hold when it
    /// lands that stream (`view`) holds exactly that image.
    /// Only a digest the table has seen at all needs the view built.
    pub(crate) fn holds(&self, len_pages: u64, digest: u64, bytes: &[u8]) -> bool {
        let mut staged = self.pending.iter().flat_map(|(_, images)| images);
        let held = |(d, img): &(u64, Vec<u8>)| *d == digest && img == bytes;
        (self.entries.iter().any(held) || staged.any(held))
            && self
                .view(len_pages)
                .iter()
                .any(|&(d, img)| d == digest && img == bytes)
    }

    /// The images a stream of `len_pages` pages built now may reference:
    /// the table as the receiver will hold it when it lands that stream —
    /// the committed entries, then each pending stream's images in order,
    /// each behind its own fit — fitted to `len_pages`.
    fn view(&self, len_pages: u64) -> VecDeque<(u64, &[u8])> {
        let mut view: VecDeque<(u64, &[u8])> =
            self.entries.iter().map(|(d, img)| (*d, &img[..])).collect();
        for (len, images) in &self.pending {
            let cap = self.cap_for(*len);
            evict(&mut view, cap);
            for (digest, img) in images {
                push(&mut view, cap, *digest, &img[..]);
            }
        }
        evict(&mut view, self.cap_for(len_pages));
        view
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

    /// Stages the images a stream of `len_pages` pages shipped as
    /// payload, in stream order, behind every stream still pending.
    /// [`DedupTable::commit`] moves them into the table.
    pub(crate) fn stage(&mut self, len_pages: u64, images: Vec<(u64, Vec<u8>)>) {
        self.pending.push_back((len_pages, images));
    }

    /// Commits the oldest pending stream (it was acknowledged) as the
    /// receiver landed it: fitted to its length, then its images in
    /// staging order, evicting the oldest entries beyond capacity.
    pub fn commit(&mut self) {
        if let Some((len_pages, images)) = self.pending.pop_front() {
            self.fit(len_pages);
            for (digest, bytes) in images {
                self.insert(digest, bytes);
            }
        }
    }

    /// Inserts one committed image directly (the receiver path: images
    /// resolved from an applied stream are committed facts).
    pub fn insert(&mut self, digest: u64, bytes: Vec<u8>) {
        push(&mut self.entries, self.cap, digest, bytes);
    }

    /// Bounds the table by the object it serves: an object of
    /// `len_pages` pages has at most that many distinct live images
    /// worth referencing, so a small object must not pin a full-size
    /// table. Both ends call this with the stream header's
    /// [`StreamHeader::len_pages`] before inserting a stream's images —
    /// the sender when the stream is acknowledged, the receiver when it
    /// lands it — so the tables stay in lockstep.
    pub fn fit(&mut self, len_pages: u64) {
        self.cap = self.cap_for(len_pages);
        evict(&mut self.entries, self.cap);
    }

    fn cap_for(&self, len_pages: u64) -> usize {
        len_pages.clamp(1, self.max_cap as u64) as usize
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

/// One pending stream: its length in pages and its payload images.
type Staged = (u64, Vec<(u64, Vec<u8>)>);

/// Inserts `item` under `digest` at the young end of `fifo`, replacing an
/// older entry of that digest, and evicts down to `cap`.
fn push<T>(fifo: &mut VecDeque<(u64, T)>, cap: usize, digest: u64, item: T) {
    if let Some(at) = fifo.iter().position(|(d, _)| *d == digest) {
        fifo.remove(at);
    }
    fifo.push_back((digest, item));
    evict(fifo, cap);
}

/// Drops the oldest entries of `fifo` beyond `cap`.
fn evict<T>(fifo: &mut VecDeque<(u64, T)>, cap: usize) {
    while fifo.len() > cap {
        fifo.pop_front();
    }
}
