//! A Clevel-style resizable persistent hash table.
//!
//! Two bucket levels live in the carve's arena. Writes always target the
//! *newest* level; once a second level exists the old one is read-only
//! and its entries are migrated cooperatively — every mutation copies a
//! few old buckets forward (only keys absent in the new level), so resize
//! cost is paid incrementally by the mutators rather than by a blocking
//! rehash thread. When the newest level itself runs out of room the
//! table escalates to a stop-the-world rebuild into a larger level (the
//! simulator's stand-in for Clevel's recursive expansion), linearized by
//! a single atomic metadata flip: until the flip the durable state is the
//! old levels, after it the new one — never a mix.
//!
//! Mutations are detectable exactly like the skiplist's: the descriptor —
//! with the inline value — is published to the writer's private log page
//! *before* the 64-byte bucket-entry write that linearizes the operation.
//! Bucket pages are shared between writers, so an entry write can be torn
//! out of (or into) a μCheckpoint by another thread's commit; recovery
//! rebuilds the table from checksum-valid entries plus descriptors using
//! the same per-key winner rule, completes any in-progress migration
//! semantically (one fresh level holds every winner), and persists the
//! result.
//!
//! Unlike [`crate::PSkipList`] operations, hash operations are atomic at
//! the call level — the skiplist is the structure that exercises sub-op
//! thread interleavings under [`msnap_sim::InterleaveSched`].

use std::collections::BTreeMap;

use memsnap::{IndexCarve, MemSnap, MsnapError, PersistFlags, RegionSel};
use msnap_sim::hash::fnv1a32;
use msnap_sim::Vt;
use msnap_vm::{AsId, PAGE_SIZE};

use crate::desc::{scan_ring, OpDesc, OpKind};
use crate::recover::RecoveryReport;
use crate::{op_id, op_parts, scramble, MAX_VALUE, NIL};

/// The carve `kind` tag of a hash table.
pub(crate) const KIND_HASH: u32 = 2;

/// Encoded bucket entry size.
const ENTRY: usize = 64;
/// Entries per bucket.
const BUCKET_ENTRIES: usize = 4;
/// Bucket footprint: 256 bytes, 16 per page.
const BUCKET_BYTES: usize = ENTRY * BUCKET_ENTRIES;
const BUCKETS_PER_PAGE: u32 = (PAGE_SIZE / BUCKET_BYTES) as u32;
/// Smallest level: one page.
const MIN_BUCKETS: u32 = BUCKETS_PER_PAGE;
/// Old buckets migrated forward per mutation.
const MIGRATE_STEP: u32 = 2;

const ENTRY_MAGIC: u32 = 0x5058_4845; // "PXHE"
const META_MAGIC: u32 = 0x5058_484D; // "PXHM"
const META_LEN: usize = 28;

/// One decoded bucket entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    key: u64,
    op: u64,
    prev_op: u64,
    tomb: bool,
    value: Vec<u8>,
}

fn entry_checksum(b: &[u8; ENTRY]) -> u32 {
    let mut payload = Vec::with_capacity(ENTRY);
    payload.extend_from_slice(&b[0..32]);
    payload.extend_from_slice(&b[36..ENTRY]);
    fnv1a32(&payload)
}

fn encode_entry(e: &Entry) -> [u8; ENTRY] {
    assert!(e.value.len() <= MAX_VALUE);
    let mut b = [0u8; ENTRY];
    b[0..4].copy_from_slice(&ENTRY_MAGIC.to_le_bytes());
    b[4] = u8::from(e.tomb);
    b[6..8].copy_from_slice(&(e.value.len() as u16).to_le_bytes());
    b[8..16].copy_from_slice(&e.key.to_le_bytes());
    b[16..24].copy_from_slice(&e.op.to_le_bytes());
    b[24..32].copy_from_slice(&e.prev_op.to_le_bytes());
    b[40..40 + e.value.len()].copy_from_slice(&e.value);
    let cs = entry_checksum(&b);
    b[32..36].copy_from_slice(&cs.to_le_bytes());
    b
}

fn decode_entry(b: &[u8]) -> Option<Entry> {
    if b.len() < ENTRY {
        return None;
    }
    let arr: [u8; ENTRY] = b[..ENTRY].try_into().unwrap();
    let word = |at: usize| u32::from_le_bytes(arr[at..at + 4].try_into().unwrap());
    if word(0) != ENTRY_MAGIC || word(32) != entry_checksum(&arr) {
        return None;
    }
    let vlen = u16::from_le_bytes(arr[6..8].try_into().unwrap()) as usize;
    if vlen > MAX_VALUE {
        return None;
    }
    Some(Entry {
        key: u64::from_le_bytes(arr[8..16].try_into().unwrap()),
        op: u64::from_le_bytes(arr[16..24].try_into().unwrap()),
        prev_op: u64::from_le_bytes(arr[24..32].try_into().unwrap()),
        tomb: arr[4] != 0,
        value: arr[40..40 + vlen].to_vec(),
    })
}

/// Volatile cache of the persistent level metadata (write-through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HashMeta {
    /// Arena page the old (read-only once `l1` exists) level starts at.
    l0_page: u32,
    l0_buckets: u32,
    /// Newest level, absent (`NIL`) unless a resize is in flight.
    l1_page: u32,
    l1_buckets: u32,
    /// Next old bucket to migrate (advisory; recovery re-completes).
    cursor: u32,
    /// Arena page bump allocator.
    next_free_page: u32,
}

impl HashMeta {
    fn encode(&self) -> [u8; META_LEN] {
        let mut b = [0u8; META_LEN];
        b[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        b[4..8].copy_from_slice(&self.l0_page.to_le_bytes());
        b[8..12].copy_from_slice(&self.l0_buckets.to_le_bytes());
        b[12..16].copy_from_slice(&self.l1_page.to_le_bytes());
        b[16..20].copy_from_slice(&self.l1_buckets.to_le_bytes());
        b[20..24].copy_from_slice(&self.cursor.to_le_bytes());
        b[24..28].copy_from_slice(&self.next_free_page.to_le_bytes());
        b
    }

    fn decode(b: &[u8; META_LEN]) -> Option<HashMeta> {
        let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        if word(0) != META_MAGIC {
            return None;
        }
        Some(HashMeta {
            l0_page: word(4),
            l0_buckets: word(8),
            l1_page: word(12),
            l1_buckets: word(16),
            cursor: word(20),
            next_free_page: word(24),
        })
    }
}

/// The resizable persistent hash table. See the module docs.
#[derive(Debug)]
pub struct PHash {
    /// The backing carve.
    pub carve: IndexCarve,
    space: AsId,
    meta: HashMeta,
    next_seq: Vec<u32>,
    live: usize,
}

impl PHash {
    /// Creates a fresh table with one minimum-size level and persists it.
    ///
    /// # Errors
    ///
    /// A wrapped carve/persist error.
    pub fn create(
        ms: &mut MemSnap,
        space: AsId,
        vt: &mut Vt,
        name: &str,
        arena_pages: u64,
        writers: u32,
    ) -> Result<Self, MsnapError> {
        let carve = ms.msnap_open_index(vt, space, name, arena_pages, writers, KIND_HASH)?;
        let meta = HashMeta {
            l0_page: 0,
            l0_buckets: MIN_BUCKETS,
            l1_page: NIL,
            l1_buckets: 0,
            cursor: 0,
            next_free_page: MIN_BUCKETS / BUCKETS_PER_PAGE,
        };
        let ph = PHash {
            carve,
            space,
            meta,
            next_seq: vec![1; writers as usize],
            live: 0,
        };
        ph.clear_level(ms, vt, meta.l0_page, meta.l0_buckets);
        ph.write_meta(ms, vt);
        ph.persist(ms, vt)?;
        Ok(ph)
    }

    /// Live (non-tombstone) keys.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Writer slots of the carve.
    pub fn writers(&self) -> u32 {
        self.carve.writers
    }

    /// Buckets in the newest (write-target) level.
    pub fn buckets(&self) -> u32 {
        if self.meta.l1_page != NIL {
            self.meta.l1_buckets
        } else {
            self.meta.l0_buckets
        }
    }

    /// Whether a cooperative migration is in flight.
    pub fn resizing(&self) -> bool {
        self.meta.l1_page != NIL
    }

    fn persist(&self, ms: &mut MemSnap, vt: &mut Vt) -> Result<(), MsnapError> {
        let thread = vt.id();
        ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(self.carve.region.md),
            PersistFlags::sync(),
        )?;
        Ok(())
    }

    fn write_meta(&self, ms: &mut MemSnap, vt: &mut Vt) {
        let thread = vt.id();
        ms.write(
            vt,
            self.space,
            thread,
            self.carve.meta_addr(),
            &self.meta.encode(),
        )
        .expect("header is mapped");
    }

    fn entry_addr(&self, level_page: u32, bucket: u32, slot: usize) -> u64 {
        let page = u64::from(level_page + bucket / BUCKETS_PER_PAGE);
        assert!(page < self.carve.arena_pages, "bucket page out of arena");
        let off = (bucket % BUCKETS_PER_PAGE) as u64 * BUCKET_BYTES as u64 + (slot * ENTRY) as u64;
        self.carve.arena_addr() + page * PAGE_SIZE as u64 + off
    }

    fn read_entry(
        &self,
        ms: &mut MemSnap,
        vt: &mut Vt,
        level_page: u32,
        bucket: u32,
        slot: usize,
    ) -> Option<Entry> {
        let mut b = [0u8; ENTRY];
        ms.read(
            vt,
            self.space,
            self.entry_addr(level_page, bucket, slot),
            &mut b,
        )
        .expect("arena is mapped");
        decode_entry(&b)
    }

    fn write_entry(
        &self,
        ms: &mut MemSnap,
        vt: &mut Vt,
        level_page: u32,
        bucket: u32,
        slot: usize,
        e: &Entry,
    ) {
        let thread = vt.id();
        ms.write(
            vt,
            self.space,
            thread,
            self.entry_addr(level_page, bucket, slot),
            &encode_entry(e),
        )
        .expect("arena is mapped");
    }

    fn clear_level(&self, ms: &mut MemSnap, vt: &mut Vt, level_page: u32, buckets: u32) {
        let thread = vt.id();
        let pages = buckets / BUCKETS_PER_PAGE;
        let zero = vec![0u8; PAGE_SIZE];
        for p in 0..pages {
            let addr = self.carve.arena_addr() + u64::from(level_page + p) * PAGE_SIZE as u64;
            ms.write(vt, self.space, thread, addr, &zero)
                .expect("arena is mapped");
        }
    }

    fn bucket_of(key: u64, buckets: u32) -> u32 {
        (scramble(key) % u64::from(buckets)) as u32
    }

    /// Finds `key` in one level: `(bucket, slot, entry)`.
    fn find_in_level(
        &self,
        ms: &mut MemSnap,
        vt: &mut Vt,
        level_page: u32,
        buckets: u32,
        key: u64,
    ) -> Option<(u32, usize, Entry)> {
        let b = Self::bucket_of(key, buckets);
        for s in 0..BUCKET_ENTRIES {
            if let Some(e) = self.read_entry(ms, vt, level_page, b, s) {
                if e.key == key {
                    return Some((b, s, e));
                }
            }
        }
        None
    }

    /// The current durable state of `key`: newest level wins.
    fn lookup(&self, ms: &mut MemSnap, vt: &mut Vt, key: u64) -> Option<Entry> {
        if self.meta.l1_page != NIL {
            if let Some((_, _, e)) =
                self.find_in_level(ms, vt, self.meta.l1_page, self.meta.l1_buckets, key)
            {
                return Some(e);
            }
        }
        self.find_in_level(ms, vt, self.meta.l0_page, self.meta.l0_buckets, key)
            .map(|(_, _, e)| e)
    }

    /// Point lookup (tombstones read as absent).
    pub fn get(&self, ms: &mut MemSnap, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        self.lookup(ms, vt, key)
            .and_then(|e| if e.tomb { None } else { Some(e.value) })
    }

    /// Upserts `key`. The entry write into the newest level linearizes;
    /// the descriptor published just before makes it detectable.
    pub fn put(&mut self, ms: &mut MemSnap, vt: &mut Vt, writer: u32, key: u64, value: &[u8]) {
        assert!(value.len() <= MAX_VALUE, "pindex values are ≤{MAX_VALUE}B");
        let prev = self.lookup(ms, vt, key);
        let was_live = matches!(&prev, Some(e) if !e.tomb);
        let prev_op = prev.map(|e| e.op).unwrap_or(0);
        let seq = self.bump_seq(writer);
        let kind = if prev_op != 0 && was_live {
            OpKind::Update
        } else {
            OpKind::Insert
        };
        self.publish(ms, vt, writer, seq, kind, key, prev_op, value);
        let e = Entry {
            key,
            op: op_id(writer, seq),
            prev_op,
            tomb: false,
            value: value.to_vec(),
        };
        self.apply(ms, vt, &e);
        if !was_live {
            self.live += 1;
        }
        self.migrate_some(ms, vt);
    }

    /// Tombstones `key`; returns whether it was live. Removing an absent
    /// key publishes nothing.
    pub fn remove(&mut self, ms: &mut MemSnap, vt: &mut Vt, writer: u32, key: u64) -> bool {
        let Some(prev) = self.lookup(ms, vt, key) else {
            return false;
        };
        if prev.tomb {
            return false;
        }
        let seq = self.bump_seq(writer);
        self.publish(ms, vt, writer, seq, OpKind::Remove, key, prev.op, &[]);
        let e = Entry {
            key,
            op: op_id(writer, seq),
            prev_op: prev.op,
            tomb: true,
            value: Vec::new(),
        };
        self.apply(ms, vt, &e);
        self.live -= 1;
        self.migrate_some(ms, vt);
        true
    }

    fn bump_seq(&mut self, writer: u32) -> u32 {
        let seq = self.next_seq[writer as usize];
        self.next_seq[writer as usize] += 1;
        seq
    }

    #[allow(clippy::too_many_arguments)]
    fn publish(
        &self,
        ms: &mut MemSnap,
        vt: &mut Vt,
        writer: u32,
        seq: u32,
        kind: OpKind,
        key: u64,
        prev_op: u64,
        value: &[u8],
    ) {
        OpDesc {
            writer,
            seq,
            kind,
            node_slot: NIL,
            key,
            prev_op,
            value: value.to_vec(),
        }
        .publish(ms, self.space, vt, &self.carve);
    }

    /// Writes `e` into the newest level, escalating to a rebuild when its
    /// bucket is full.
    fn apply(&mut self, ms: &mut MemSnap, vt: &mut Vt, e: &Entry) {
        loop {
            let (page, buckets) = if self.meta.l1_page != NIL {
                (self.meta.l1_page, self.meta.l1_buckets)
            } else {
                (self.meta.l0_page, self.meta.l0_buckets)
            };
            if let Some((b, s, _)) = self.find_in_level(ms, vt, page, buckets, e.key) {
                self.write_entry(ms, vt, page, b, s, e);
                return;
            }
            let b = Self::bucket_of(e.key, buckets);
            for s in 0..BUCKET_ENTRIES {
                if self.read_entry(ms, vt, page, b, s).is_none() {
                    self.write_entry(ms, vt, page, b, s, e);
                    return;
                }
            }
            self.grow(ms, vt);
        }
    }

    /// Migrates a few old buckets forward; retires the old level when the
    /// cursor completes.
    fn migrate_some(&mut self, ms: &mut MemSnap, vt: &mut Vt) {
        if self.meta.l1_page == NIL {
            return;
        }
        for _ in 0..MIGRATE_STEP {
            if self.meta.l1_page == NIL {
                return;
            }
            if self.meta.cursor >= self.meta.l0_buckets {
                // Old level fully forwarded: retire it.
                self.meta = HashMeta {
                    l0_page: self.meta.l1_page,
                    l0_buckets: self.meta.l1_buckets,
                    l1_page: NIL,
                    l1_buckets: 0,
                    cursor: 0,
                    next_free_page: self.meta.next_free_page,
                };
                self.write_meta(ms, vt);
                return;
            }
            let b = self.meta.cursor;
            for s in 0..BUCKET_ENTRIES {
                let Some(e) = self.read_entry(ms, vt, self.meta.l0_page, b, s) else {
                    continue;
                };
                if self
                    .find_in_level(ms, vt, self.meta.l1_page, self.meta.l1_buckets, e.key)
                    .is_none()
                {
                    // `apply` may itself grow the table; an escalated
                    // rebuild retires both levels and ends the migration.
                    self.apply(ms, vt, &e);
                    if self.meta.l1_page == NIL {
                        return;
                    }
                }
            }
            self.meta.cursor += 1;
            self.write_meta(ms, vt);
        }
    }

    /// Opens a doubled level (cooperative path) or, if one is already
    /// open, escalates to a stop-the-world rebuild big enough for every
    /// current entry. Linearized by the metadata flip.
    fn grow(&mut self, ms: &mut MemSnap, vt: &mut Vt) {
        if self.meta.l1_page == NIL {
            let buckets = self.meta.l0_buckets * 2;
            let page = self.alloc_pages(buckets / BUCKETS_PER_PAGE);
            self.clear_level(ms, vt, page, buckets);
            self.meta.l1_page = page;
            self.meta.l1_buckets = buckets;
            self.meta.cursor = 0;
            self.write_meta(ms, vt);
            return;
        }
        // Collect everything (newest level wins per key) and rebuild.
        let mut keep: BTreeMap<u64, Entry> = BTreeMap::new();
        for (page, buckets) in [
            (self.meta.l0_page, self.meta.l0_buckets),
            (self.meta.l1_page, self.meta.l1_buckets),
        ] {
            for b in 0..buckets {
                for s in 0..BUCKET_ENTRIES {
                    if let Some(e) = self.read_entry(ms, vt, page, b, s) {
                        keep.insert(e.key, e); // l1 iterated last: it wins
                    }
                }
            }
        }
        let mut buckets = self.meta.l1_buckets * 2;
        loop {
            if fits(&keep, buckets) {
                break;
            }
            buckets *= 2;
        }
        let page = self.alloc_pages(buckets / BUCKETS_PER_PAGE);
        self.clear_level(ms, vt, page, buckets);
        let stage = HashMeta {
            l0_page: page,
            l0_buckets: buckets,
            l1_page: NIL,
            l1_buckets: 0,
            cursor: 0,
            next_free_page: self.meta.next_free_page,
        };
        let mut counts = vec![0usize; buckets as usize];
        for e in keep.values() {
            let b = Self::bucket_of(e.key, buckets);
            self.write_entry_at(ms, vt, page, b, counts[b as usize], e);
            counts[b as usize] += 1;
        }
        // The flip: one atomic meta write switches the durable table.
        self.meta = stage;
        self.write_meta(ms, vt);
    }

    fn write_entry_at(
        &self,
        ms: &mut MemSnap,
        vt: &mut Vt,
        page: u32,
        bucket: u32,
        slot: usize,
        e: &Entry,
    ) {
        assert!(slot < BUCKET_ENTRIES);
        self.write_entry(ms, vt, page, bucket, slot, e);
    }

    fn alloc_pages(&mut self, pages: u32) -> u32 {
        let start = self.meta.next_free_page;
        assert!(
            u64::from(start + pages) <= self.carve.arena_pages,
            "hash arena full ({} pages)",
            self.carve.arena_pages
        );
        self.meta.next_free_page += pages;
        start
    }

    /// Reopens `name` after a crash: gathers checksum-valid entries and
    /// descriptors, resolves per-key winners, completes any in-flight
    /// migration semantically (one fresh level holds every winner,
    /// tombstones compacted away), and persists the result.
    ///
    /// # Errors
    ///
    /// Carve open/validation or persist errors.
    pub fn recover(
        ms: &mut MemSnap,
        space: AsId,
        vt: &mut Vt,
        name: &str,
    ) -> Result<(Self, RecoveryReport), MsnapError> {
        let carve = ms.msnap_open_index(vt, space, name, 0, 0, KIND_HASH)?;
        let mut report = RecoveryReport::default();
        let mut meta_buf = [0u8; META_LEN];
        ms.read(vt, space, carve.meta_addr(), &mut meta_buf)?;
        let meta = HashMeta::decode(&meta_buf).unwrap_or(HashMeta {
            l0_page: 0,
            l0_buckets: MIN_BUCKETS,
            l1_page: NIL,
            l1_buckets: 0,
            cursor: 0,
            next_free_page: MIN_BUCKETS / BUCKETS_PER_PAGE,
        });
        let mut ph = PHash {
            carve,
            space,
            meta,
            next_seq: vec![1; carve.writers as usize],
            live: 0,
        };

        // Candidates: every valid entry in both levels (newest last so it
        // shadows), plus every descriptor.
        #[derive(Clone)]
        struct Cand {
            op: u64,
            prev_op: u64,
            tomb: bool,
            value: Vec<u8>,
            durable: bool,
        }
        let mut by_key: BTreeMap<u64, Vec<Cand>> = BTreeMap::new();
        let mut levels = vec![(meta.l0_page, meta.l0_buckets)];
        if meta.l1_page != NIL {
            levels.push((meta.l1_page, meta.l1_buckets));
        }
        for &(page, buckets) in &levels {
            if u64::from(page + buckets / BUCKETS_PER_PAGE) > ph.carve.arena_pages {
                continue; // torn meta pointing past the arena
            }
            for b in 0..buckets {
                for s in 0..BUCKET_ENTRIES {
                    if let Some(e) = ph.read_entry(ms, vt, page, b, s) {
                        by_key.entry(e.key).or_default().push(Cand {
                            op: e.op,
                            prev_op: e.prev_op,
                            tomb: e.tomb,
                            value: e.value,
                            durable: true,
                        });
                    }
                }
            }
        }
        let mut next_seq = vec![1u32; ph.carve.writers as usize];
        for w in 0..ph.carve.writers {
            for d in scan_ring(ms, space, vt, &ph.carve, w) {
                next_seq[w as usize] = next_seq[w as usize].max(d.seq + 1);
                by_key.entry(d.key).or_default().push(Cand {
                    op: d.op_id(),
                    prev_op: d.prev_op,
                    tomb: d.kind == OpKind::Remove,
                    value: d.value,
                    durable: false,
                });
            }
        }

        // Winners, as in the skiplist: un-superseded, max (seq, writer).
        let mut keep: BTreeMap<u64, Entry> = BTreeMap::new();
        for (&key, cands) in &by_key {
            for c in cands.iter() {
                report.landed.insert(c.op);
                if c.prev_op != 0 {
                    report.landed.insert(c.prev_op);
                }
            }
            let superseded: std::collections::BTreeSet<u64> = cands
                .iter()
                .map(|c| c.prev_op)
                .filter(|&p| p != 0)
                .collect();
            let winner = cands
                .iter()
                .filter(|c| !superseded.contains(&c.op))
                .max_by_key(|c| {
                    let (w, s) = op_parts(c.op);
                    (s, w)
                })
                .unwrap_or_else(|| {
                    cands
                        .iter()
                        .max_by_key(|c| {
                            let (w, s) = op_parts(c.op);
                            (s, w)
                        })
                        .unwrap()
                });
            let applied = cands
                .iter()
                .any(|c| c.durable && c.op == winner.op && c.tomb == winner.tomb);
            if !applied {
                report.replayed += 1;
            }
            let shadowed = cands.iter().filter(|c| c.durable).count();
            if winner.tomb {
                // Compacted away; its durable copies are dropped.
                report.discarded += shadowed;
                continue;
            }
            report.discarded += shadowed.saturating_sub(1);
            keep.insert(
                key,
                Entry {
                    key,
                    op: winner.op,
                    prev_op: winner.prev_op,
                    tomb: false,
                    value: winner.value.clone(),
                },
            );
        }

        // Rebuild into one fresh level sized so every bucket fits, placed
        // after every page either level (or a torn grow) may have used.
        let mut buckets = meta.l0_buckets.max(meta.l1_buckets).max(MIN_BUCKETS);
        while !fits(&keep, buckets) {
            buckets *= 2;
        }
        let base = meta
            .next_free_page
            .max(meta.l0_page + meta.l0_buckets / BUCKETS_PER_PAGE)
            .max(if meta.l1_page == NIL {
                0
            } else {
                meta.l1_page + meta.l1_buckets / BUCKETS_PER_PAGE
            });
        ph.meta.next_free_page = base;
        let page = ph.alloc_pages(buckets / BUCKETS_PER_PAGE);
        ph.clear_level(ms, vt, page, buckets);
        let mut counts = vec![0usize; buckets as usize];
        for e in keep.values() {
            let b = Self::bucket_of(e.key, buckets);
            ph.write_entry_at(ms, vt, page, b, counts[b as usize], e);
            counts[b as usize] += 1;
        }
        ph.meta.l0_page = page;
        ph.meta.l0_buckets = buckets;
        ph.meta.l1_page = NIL;
        ph.meta.l1_buckets = 0;
        ph.meta.cursor = 0;
        ph.write_meta(ms, vt);

        ph.live = keep.len();
        report.live = keep.len();
        for (w, seq) in next_seq.iter().enumerate() {
            let mut floor = *seq;
            for &op in &report.landed {
                let (ow, os) = op_parts(op);
                if ow == w as u32 {
                    floor = floor.max(os + 1);
                }
            }
            ph.next_seq[w] = floor;
        }
        ph.persist(ms, vt)?;
        Ok((ph, report))
    }
}

/// Whether every key's bucket holds at most [`BUCKET_ENTRIES`] entries at
/// `buckets` buckets.
fn fits(keep: &BTreeMap<u64, Entry>, buckets: u32) -> bool {
    let mut counts = vec![0usize; buckets as usize];
    for &key in keep.keys() {
        let b = PHash::bucket_of(key, buckets) as usize;
        counts[b] += 1;
        if counts[b] > BUCKET_ENTRIES {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::{Disk, DiskConfig};

    fn fresh(arena_pages: u64) -> (MemSnap, AsId, PHash, Vt) {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let ph = PHash::create(&mut ms, space, &mut vt, "hash", arena_pages, 4).unwrap();
        (ms, space, ph, vt)
    }

    #[test]
    fn entry_codec_round_trips() {
        let e = Entry {
            key: 7,
            op: op_id(1, 3),
            prev_op: 0,
            tomb: false,
            value: b"val".to_vec(),
        };
        assert_eq!(decode_entry(&encode_entry(&e)), Some(e.clone()));
        let mut b = encode_entry(&e);
        b[41] ^= 1;
        assert_eq!(decode_entry(&b), None);
        assert_eq!(decode_entry(&[0u8; ENTRY]), None);
    }

    #[test]
    fn put_get_remove_round_trip() {
        let (mut ms, _space, mut ph, mut vt) = fresh(64);
        ph.put(&mut ms, &mut vt, 0, 1, b"one");
        ph.put(&mut ms, &mut vt, 1, 2, b"two");
        ph.put(&mut ms, &mut vt, 0, 1, b"ONE");
        assert_eq!(ph.len(), 2);
        assert_eq!(ph.get(&mut ms, &mut vt, 1), Some(b"ONE".to_vec()));
        assert!(ph.remove(&mut ms, &mut vt, 2, 1));
        assert!(!ph.remove(&mut ms, &mut vt, 2, 1));
        assert!(!ph.remove(&mut ms, &mut vt, 2, 99));
        assert_eq!(ph.get(&mut ms, &mut vt, 1), None);
        assert_eq!(ph.len(), 1);
    }

    #[test]
    fn grows_under_load_and_keeps_everything() {
        let (mut ms, _space, mut ph, mut vt) = fresh(256);
        let n = 400u64;
        for k in 0..n {
            ph.put(&mut ms, &mut vt, (k % 4) as u32, k, &k.to_le_bytes());
        }
        assert!(ph.buckets() > MIN_BUCKETS, "table resized");
        assert_eq!(ph.len(), n as usize);
        for k in 0..n {
            assert_eq!(
                ph.get(&mut ms, &mut vt, k),
                Some(k.to_le_bytes().to_vec()),
                "key {k}"
            );
        }
    }

    #[test]
    fn migration_is_cooperative() {
        let (mut ms, _space, mut ph, mut vt) = fresh(256);
        let mut k = 0u64;
        // Push until a resize opens, then observe it retire within a
        // bounded number of further operations.
        while !ph.resizing() {
            ph.put(&mut ms, &mut vt, 0, k, b"x");
            k += 1;
        }
        let mut ops = 0;
        while ph.resizing() {
            ph.put(&mut ms, &mut vt, 0, k, b"x");
            k += 1;
            ops += 1;
            assert!(ops < 10_000, "migration never finished");
        }
        for i in 0..k {
            assert_eq!(ph.get(&mut ms, &mut vt, i), Some(b"x".to_vec()), "key {i}");
        }
    }

    #[test]
    fn recovery_after_clean_shutdown() {
        let (mut ms, _space, mut ph, mut vt) = fresh(256);
        for k in 0..100u64 {
            ph.put(&mut ms, &mut vt, (k % 4) as u32, k, &k.to_le_bytes());
        }
        ph.remove(&mut ms, &mut vt, 0, 50);
        ph.persist(&mut ms, &mut vt).unwrap();
        let disk = ms.shutdown();
        let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
        let space = ms.vm_mut().create_space();
        let (mut ph, report) = PHash::recover(&mut ms, space, &mut vt, "hash").unwrap();
        assert_eq!(report.live, 99);
        assert_eq!(ph.len(), 99);
        assert_eq!(ph.get(&mut ms, &mut vt, 50), None);
        for k in 0..100u64 {
            if k == 50 {
                continue;
            }
            assert_eq!(ph.get(&mut ms, &mut vt, k), Some(k.to_le_bytes().to_vec()));
        }
        // The recovered handle keeps working and never reuses op ids.
        ph.put(&mut ms, &mut vt, 0, 50, b"back");
        assert_eq!(ph.get(&mut ms, &mut vt, 50), Some(b"back".to_vec()));
        assert_eq!(ph.len(), 100);
    }

    #[test]
    fn unpersisted_tail_is_lost_cleanly() {
        let (mut ms, _space, mut ph, mut vt) = fresh(64);
        ph.put(&mut ms, &mut vt, 0, 1, b"one");
        ph.persist(&mut ms, &mut vt).unwrap();
        ph.put(&mut ms, &mut vt, 1, 2, b"two");
        let disk = ms.crash(msnap_sim::Nanos::MAX);
        let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
        let space = ms.vm_mut().create_space();
        let (ph, report) = PHash::recover(&mut ms, space, &mut vt, "hash").unwrap();
        assert_eq!(ph.get(&mut ms, &mut vt, 1), Some(b"one".to_vec()));
        assert!(report.op_landed(0, 1));
    }
}
