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
    pub(super) entries: VecDeque<(u64, Vec<u8>)>,
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
