//! The lock-free persistent skiplist.
//!
//! Layout, inside one [`memsnap::IndexCarve`]:
//!
//! - **Arena slots**: fixed 128-byte nodes, 32 per page. Slot 0 is the
//!   head sentinel. Slots are allocated from *writer-private chunks* of
//!   one arena page each (granted by a shared meta counter), so a node's
//!   page always belongs to its writer's dirty set and persists together
//!   with that writer's descriptor log.
//! - **Nodes are permanent once linked**: an update overwrites the value
//!   in place (CAS on the node's op id), a remove writes a tombstone
//!   flag. Tower pointers therefore never dangle, and the level-0 chain
//!   only ever grows — the property the recovery rules lean on.
//! - **Linearization**: a fresh insert linearizes at the level-0
//!   CAS splicing the node after its predecessor; updates and removes
//!   linearize at the in-place write. Tower levels above 0 are linked
//!   best-effort afterwards (bounded retries, then abandoned) — they are
//!   an accelerator, correctness lives at level 0.
//!
//! Every mutation is a steppable state machine ([`PutOp`]): descriptor
//! publish, node write, and linearizing CAS are separate atomic steps, so
//! a seeded [`msnap_sim::InterleaveSched`] can interleave concurrent
//! writers between them.

use memsnap::{IndexCarve, MemSnap, MsnapError};
use msnap_sim::hash::fnv1a32;
use msnap_sim::{Category, Nanos, Vt};
use msnap_vm::{AsId, PAGE_SIZE};

use crate::desc::{OpDesc, OpKind};
use crate::{op_id, scramble, MAX_VALUE, NIL};

/// Tower height cap (geometric p = 1/4, derived from the key hash so
/// recovery rebuilds identical towers).
pub const MAX_LEVELS: usize = 8;

/// Node slot size in bytes.
pub(crate) const SLOT: usize = 128;
/// Slots per arena page — also the writer-private chunk size.
pub(crate) const SLOTS_PER_PAGE: u32 = (PAGE_SIZE / SLOT) as u32;

pub(crate) const NODE_MAGIC: u32 = 0x5058_4E44; // "PXND"
pub(crate) const HEAD_MAGIC: u32 = 0x5058_4844; // "PXHD"
const META_MAGIC: u32 = 0x5058_534D; // "PXSM"

/// The carve `kind` tag of a skiplist.
pub(crate) const KIND_SKIPLIST: u32 = 1;

/// Head sentinel slot.
pub(crate) const HEAD_SLOT: u32 = 0;

/// Modeled cost of one CAS attempt ("in the order of a few dozen
/// cycles").
const CAS_COST: Nanos = Nanos::from_ns(30);

/// Upper-level link attempts before the tower is abandoned.
const TOWER_RETRIES: u32 = 4;

/// A decoded node slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeImg {
    pub is_head: bool,
    pub level: u8,
    pub tomb: bool,
    pub key: u64,
    pub op_id: u64,
    pub prev_op: u64,
    pub next: [u32; MAX_LEVELS],
    pub value: Vec<u8>,
}

impl NodeImg {
    pub fn head() -> Self {
        NodeImg {
            is_head: true,
            level: MAX_LEVELS as u8,
            tomb: false,
            key: 0,
            op_id: 0,
            prev_op: 0,
            next: [NIL; MAX_LEVELS],
            value: Vec::new(),
        }
    }
}

fn node_checksum(img: &NodeImg) -> u32 {
    let mut payload = Vec::with_capacity(64);
    payload.push(img.level);
    payload.push(u8::from(img.tomb));
    payload.extend_from_slice(&(img.value.len() as u16).to_le_bytes());
    payload.extend_from_slice(&img.key.to_le_bytes());
    payload.extend_from_slice(&img.op_id.to_le_bytes());
    payload.extend_from_slice(&img.prev_op.to_le_bytes());
    payload.extend_from_slice(&img.value);
    fnv1a32(&payload)
}

pub(crate) fn encode_node(img: &NodeImg) -> [u8; SLOT] {
    assert!(img.value.len() <= MAX_VALUE);
    let mut b = [0u8; SLOT];
    let magic = if img.is_head { HEAD_MAGIC } else { NODE_MAGIC };
    b[0..4].copy_from_slice(&magic.to_le_bytes());
    b[4] = img.level;
    b[5] = u8::from(img.tomb);
    b[6..8].copy_from_slice(&(img.value.len() as u16).to_le_bytes());
    b[8..16].copy_from_slice(&img.key.to_le_bytes());
    b[16..24].copy_from_slice(&img.op_id.to_le_bytes());
    b[24..32].copy_from_slice(&img.prev_op.to_le_bytes());
    b[32..36].copy_from_slice(&node_checksum(img).to_le_bytes());
    for (l, n) in img.next.iter().enumerate() {
        b[36 + l * 4..40 + l * 4].copy_from_slice(&n.to_le_bytes());
    }
    b[68..68 + img.value.len()].copy_from_slice(&img.value);
    b
}

/// Decodes a slot; `None` for empty/torn slots. Next pointers are *not*
/// covered by the checksum (they change independently via CAS) — they
/// are validated structurally by traversal and recovery.
pub(crate) fn decode_node(b: &[u8]) -> Option<NodeImg> {
    if b.len() < SLOT {
        return None;
    }
    let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let magic = word(0);
    let is_head = magic == HEAD_MAGIC;
    if !is_head && magic != NODE_MAGIC {
        return None;
    }
    let vlen = u16::from_le_bytes(b[6..8].try_into().unwrap()) as usize;
    if vlen > MAX_VALUE {
        return None;
    }
    let mut next = [NIL; MAX_LEVELS];
    for (l, n) in next.iter_mut().enumerate() {
        *n = word(36 + l * 4);
    }
    let img = NodeImg {
        is_head,
        level: b[4],
        tomb: b[5] != 0,
        key: u64::from_le_bytes(b[8..16].try_into().unwrap()),
        op_id: u64::from_le_bytes(b[16..24].try_into().unwrap()),
        prev_op: u64::from_le_bytes(b[24..32].try_into().unwrap()),
        next,
        value: b[68..68 + vlen].to_vec(),
    };
    if word(32) != node_checksum(&img) {
        return None;
    }
    if img.level == 0 || img.level > MAX_LEVELS as u8 {
        return None;
    }
    Some(img)
}

/// Deterministic tower height of a key (p = 1/4 geometric, capped).
pub(crate) fn level_for(key: u64) -> u8 {
    let h = scramble(key);
    ((h.trailing_zeros() / 2 + 1) as u8).min(MAX_LEVELS as u8)
}

/// Per-writer volatile allocation cursor into its current private chunk.
#[derive(Debug, Clone, Copy)]
struct ChunkAlloc {
    page: u32,
    used: u32,
}

/// What a [`PutOp::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation has more atomic steps to run.
    Progress,
    /// The operation linearized (or no-op'd) and is complete.
    Finished,
}

/// The lock-free persistent skiplist. See the module docs.
#[derive(Debug)]
pub struct PSkipList {
    /// The backing carve.
    pub carve: IndexCarve,
    space: AsId,
    next_seq: Vec<u32>,
    alloc: Vec<Option<ChunkAlloc>>,
    live: usize,
}

impl PSkipList {
    /// Creates a fresh skiplist: carves the region, grants chunk 0 to the
    /// head sentinel, and persists the empty structure.
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
        let carve = ms.msnap_open_index(vt, space, name, arena_pages, writers, KIND_SKIPLIST)?;
        let sk = PSkipList::attach(carve, space, writers);
        let thread = vt.id();
        let mut meta = [0u8; 8];
        meta[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        meta[4..8].copy_from_slice(&1u32.to_le_bytes()); // head chunk granted
        ms.write(vt, space, thread, carve.meta_addr(), &meta)?;
        let head = encode_node(&NodeImg::head());
        ms.write(vt, space, thread, sk.slot_addr(HEAD_SLOT), &head)?;
        ms.msnap_persist(
            vt,
            thread,
            memsnap::RegionSel::Region(carve.region.md),
            memsnap::PersistFlags::sync(),
        )?;
        Ok(sk)
    }

    /// Wraps a carve without touching storage (recovery constructs the
    /// instance after repairing the structure).
    pub(crate) fn attach(carve: IndexCarve, space: AsId, writers: u32) -> Self {
        PSkipList {
            carve,
            space,
            next_seq: vec![1; writers as usize],
            alloc: vec![None; writers as usize],
            live: 0,
        }
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

    pub(crate) fn set_live(&mut self, live: usize) {
        self.live = live;
    }

    pub(crate) fn set_next_seq(&mut self, writer: u32, seq: u32) {
        self.next_seq[writer as usize] = seq;
    }

    /// Address of an arena slot.
    pub(crate) fn slot_addr(&self, slot: u32) -> u64 {
        let page = u64::from(slot / SLOTS_PER_PAGE);
        let off = u64::from(slot % SLOTS_PER_PAGE) as usize * SLOT;
        assert!(page < self.carve.arena_pages, "slot {slot} out of arena");
        self.carve.arena_addr() + page * PAGE_SIZE as u64 + off as u64
    }

    pub(crate) fn read_node(&self, ms: &mut MemSnap, vt: &mut Vt, slot: u32) -> Option<NodeImg> {
        let mut buf = [0u8; SLOT];
        ms.read(vt, self.space, self.slot_addr(slot), &mut buf)
            .expect("arena is mapped");
        decode_node(&buf)
    }

    pub(crate) fn write_node(&self, ms: &mut MemSnap, vt: &mut Vt, slot: u32, img: &NodeImg) {
        let thread = vt.id();
        ms.write(
            vt,
            self.space,
            thread,
            self.slot_addr(slot),
            &encode_node(img),
        )
        .expect("arena is mapped");
    }

    /// Writes one next pointer of a slot (a CAS's store half).
    pub(crate) fn write_next(
        &self,
        ms: &mut MemSnap,
        vt: &mut Vt,
        slot: u32,
        level: usize,
        to: u32,
    ) {
        let thread = vt.id();
        ms.write(
            vt,
            self.space,
            thread,
            self.slot_addr(slot) + 36 + level as u64 * 4,
            &to.to_le_bytes(),
        )
        .expect("arena is mapped");
    }

    fn read_next(&self, ms: &mut MemSnap, vt: &mut Vt, slot: u32, level: usize) -> u32 {
        let mut b = [0u8; 4];
        ms.read(
            vt,
            self.space,
            self.slot_addr(slot) + 36 + level as u64 * 4,
            &mut b,
        )
        .expect("arena is mapped");
        u32::from_le_bytes(b)
    }

    pub(crate) fn chunks_granted(&self, ms: &mut MemSnap, vt: &mut Vt) -> Option<u32> {
        let mut meta = [0u8; 8];
        ms.read(vt, self.space, self.carve.meta_addr(), &mut meta)
            .expect("header is mapped");
        if u32::from_le_bytes(meta[0..4].try_into().unwrap()) != META_MAGIC {
            return None;
        }
        Some(u32::from_le_bytes(meta[4..8].try_into().unwrap()))
    }

    pub(crate) fn write_chunks_granted(&self, ms: &mut MemSnap, vt: &mut Vt, chunks: u32) {
        let thread = vt.id();
        let mut meta = [0u8; 8];
        meta[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        meta[4..8].copy_from_slice(&chunks.to_le_bytes());
        ms.write(vt, self.space, thread, self.carve.meta_addr(), &meta)
            .expect("header is mapped");
    }

    /// Allocates one slot from the writer's private chunk, granting a
    /// fresh arena page when the chunk is exhausted (a modeled
    /// fetch-and-add on the shared meta counter).
    ///
    /// # Panics
    ///
    /// Panics when the arena is full.
    fn alloc_slot(&mut self, ms: &mut MemSnap, vt: &mut Vt, writer: u32) -> u32 {
        let need_chunk = match self.alloc[writer as usize] {
            None => true,
            Some(a) => a.used >= SLOTS_PER_PAGE,
        };
        if need_chunk {
            let granted = self
                .chunks_granted(ms, vt)
                .expect("meta valid while running");
            assert!(
                u64::from(granted) < self.carve.arena_pages,
                "index arena full ({} pages)",
                self.carve.arena_pages
            );
            vt.charge(Category::Locking, CAS_COST);
            self.write_chunks_granted(ms, vt, granted + 1);
            self.alloc[writer as usize] = Some(ChunkAlloc {
                page: granted,
                used: 0,
            });
        }
        let a = self.alloc[writer as usize].as_mut().unwrap();
        let slot = a.page * SLOTS_PER_PAGE + a.used;
        a.used += 1;
        slot
    }

    /// Search: per-level predecessors/successors and the key's node, if
    /// linked. Tombstones are found like live nodes (they stay linked).
    pub(crate) fn find(&self, ms: &mut MemSnap, vt: &mut Vt, key: u64) -> FindResult {
        let mut preds = [HEAD_SLOT; MAX_LEVELS];
        let mut succs = [NIL; MAX_LEVELS];
        let mut pred = HEAD_SLOT;
        for l in (0..MAX_LEVELS).rev() {
            loop {
                let nxt = self.read_next(ms, vt, pred, l);
                if nxt == NIL {
                    succs[l] = NIL;
                    break;
                }
                match self.read_node(ms, vt, nxt) {
                    Some(n) if n.key < key => pred = nxt,
                    _ => {
                        succs[l] = nxt;
                        break;
                    }
                }
            }
            preds[l] = pred;
        }
        let found = if succs[0] != NIL {
            self.read_node(ms, vt, succs[0])
                .filter(|n| n.key == key)
                .map(|n| (succs[0], n))
        } else {
            None
        };
        FindResult {
            preds,
            succs,
            found,
        }
    }

    /// Begins a put (upsert). Drive with [`PutOp::step`], or use
    /// [`PSkipList::put`] to run it to completion.
    pub fn begin_put(&mut self, writer: u32, key: u64, value: &[u8]) -> PutOp {
        assert!(value.len() <= MAX_VALUE, "pindex values are ≤{MAX_VALUE}B");
        let seq = self.next_seq[writer as usize];
        self.next_seq[writer as usize] += 1;
        PutOp::new(writer, seq, key, value.to_vec(), false)
    }

    /// Begins a remove (tombstone). Removing an absent key is a no-op.
    pub fn begin_remove(&mut self, writer: u32, key: u64) -> PutOp {
        let seq = self.next_seq[writer as usize];
        self.next_seq[writer as usize] += 1;
        PutOp::new(writer, seq, key, Vec::new(), true)
    }

    /// Runs a put to completion (single-threaded convenience).
    pub fn put(&mut self, ms: &mut MemSnap, vt: &mut Vt, writer: u32, key: u64, value: &[u8]) {
        let mut op = self.begin_put(writer, key, value);
        while op.step(self, ms, vt) == OpOutcome::Progress {}
    }

    /// Runs a remove to completion.
    pub fn remove(&mut self, ms: &mut MemSnap, vt: &mut Vt, writer: u32, key: u64) {
        let mut op = self.begin_remove(writer, key);
        while op.step(self, ms, vt) == OpOutcome::Progress {}
    }

    /// Point lookup (tombstones read as absent).
    pub fn get(&self, ms: &mut MemSnap, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        self.find(ms, vt, key)
            .found
            .and_then(|(_, n)| if n.tomb { None } else { Some(n.value) })
    }

    /// The op id currently applied to `key`, tombstone or not (recovery
    /// audits and tests).
    pub fn op_of(&self, ms: &mut MemSnap, vt: &mut Vt, key: u64) -> Option<u64> {
        self.find(ms, vt, key).found.map(|(_, n)| n.op_id)
    }

    /// Ordered scan of up to `limit` live entries with keys ≥ `key`.
    pub fn seek(
        &self,
        ms: &mut MemSnap,
        vt: &mut Vt,
        key: u64,
        limit: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut slot = self.find(ms, vt, key).succs[0];
        while slot != NIL && out.len() < limit {
            let Some(n) = self.read_node(ms, vt, slot) else {
                break;
            };
            if !n.tomb {
                out.push((n.key, n.value.clone()));
            }
            slot = n.next[0];
        }
        out
    }

    /// Every linked entry including tombstones, with op ids — the
    /// recovery audit's ground truth.
    pub fn dump(&self, ms: &mut MemSnap, vt: &mut Vt) -> Vec<(u64, u64, bool)> {
        let mut out = Vec::new();
        let mut slot = self.read_next(ms, vt, HEAD_SLOT, 0);
        while slot != NIL {
            let n = self
                .read_node(ms, vt, slot)
                .expect("recovered chain is valid");
            out.push((n.key, n.op_id, n.tomb));
            slot = n.next[0];
        }
        out
    }
}

pub(crate) struct FindResult {
    pub preds: [u32; MAX_LEVELS],
    pub succs: [u32; MAX_LEVELS],
    pub found: Option<(u32, NodeImg)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PutState {
    Start,
    WriteNode,
    Cas,
    Link(u8),
    Apply,
    Done,
}

/// One in-flight mutation, steppable one atomic action at a time so
/// schedulers can interleave concurrent writers between steps.
#[derive(Debug)]
pub struct PutOp {
    writer: u32,
    seq: u32,
    key: u64,
    value: Vec<u8>,
    remove: bool,
    state: PutState,
    node_slot: u32,
    level: u8,
    preds: [u32; MAX_LEVELS],
    succs: [u32; MAX_LEVELS],
    target: u32,
    prev_op: u64,
    target_was_tomb: bool,
    noop: bool,
}

impl PutOp {
    fn new(writer: u32, seq: u32, key: u64, value: Vec<u8>, remove: bool) -> Self {
        PutOp {
            writer,
            seq,
            key,
            value,
            remove,
            state: PutState::Start,
            node_slot: NIL,
            level: 0,
            preds: [HEAD_SLOT; MAX_LEVELS],
            succs: [NIL; MAX_LEVELS],
            target: NIL,
            prev_op: 0,
            target_was_tomb: false,
            noop: false,
        }
    }

    /// The operation's id.
    pub fn op_id(&self) -> u64 {
        op_id(self.writer, self.seq)
    }

    /// Whether the operation completed without touching the structure
    /// (remove of an absent key).
    pub fn was_noop(&self) -> bool {
        self.noop
    }

    /// Search + descriptor publish: decides insert vs in-place form and
    /// writes the detectable descriptor for it.
    fn start(&mut self, sk: &mut PSkipList, ms: &mut MemSnap, vt: &mut Vt) -> OpOutcome {
        let f = sk.find(ms, vt, self.key);
        self.preds = f.preds;
        self.succs = f.succs;
        match f.found {
            Some((slot, img)) => {
                if self.remove && img.tomb {
                    self.noop = true;
                    self.state = PutState::Done;
                    return OpOutcome::Finished;
                }
                self.target = slot;
                self.prev_op = img.op_id;
                self.target_was_tomb = img.tomb;
                let kind = if self.remove {
                    OpKind::Remove
                } else {
                    OpKind::Update
                };
                self.descriptor(kind, slot)
                    .publish(ms, sk.space, vt, &sk.carve);
                self.state = PutState::Apply;
            }
            None => {
                if self.remove {
                    self.noop = true;
                    self.state = PutState::Done;
                    return OpOutcome::Finished;
                }
                if self.node_slot == NIL {
                    self.node_slot = sk.alloc_slot(ms, vt, self.writer);
                }
                self.prev_op = 0;
                self.descriptor(OpKind::Insert, self.node_slot)
                    .publish(ms, sk.space, vt, &sk.carve);
                self.state = PutState::WriteNode;
            }
        }
        OpOutcome::Progress
    }

    fn descriptor(&self, kind: OpKind, node_slot: u32) -> OpDesc {
        OpDesc {
            writer: self.writer,
            seq: self.seq,
            kind,
            node_slot,
            key: self.key,
            prev_op: self.prev_op,
            value: self.value.clone(),
        }
    }

    /// Runs one atomic step; call until [`OpOutcome::Finished`].
    pub fn step(&mut self, sk: &mut PSkipList, ms: &mut MemSnap, vt: &mut Vt) -> OpOutcome {
        match self.state {
            PutState::Start => self.start(sk, ms, vt),
            PutState::WriteNode => {
                self.level = level_for(self.key);
                let mut next = [NIL; MAX_LEVELS];
                next[..self.level as usize].copy_from_slice(&self.succs[..self.level as usize]);
                let img = NodeImg {
                    is_head: false,
                    level: self.level,
                    tomb: false,
                    key: self.key,
                    op_id: self.op_id(),
                    prev_op: 0,
                    next,
                    value: self.value.clone(),
                };
                sk.write_node(ms, vt, self.node_slot, &img);
                self.state = PutState::Cas;
                OpOutcome::Progress
            }
            PutState::Cas => {
                vt.charge(Category::Locking, CAS_COST);
                let cur = sk.read_next(ms, vt, self.preds[0], 0);
                if cur == self.succs[0] {
                    // Linearizing CAS: splice after pred.
                    sk.write_next(ms, vt, self.preds[0], 0, self.node_slot);
                    sk.live += 1;
                    self.state = PutState::Link(1);
                    return OpOutcome::Progress;
                }
                // Lost the race: someone changed the neighborhood. Re-find
                // and either retry the insert or convert to an in-place
                // update of the node that beat us (our pre-written node
                // becomes unlinked garbage; its descriptor is rewritten
                // below, so recovery discards it).
                self.state = PutState::Start;
                OpOutcome::Progress
            }
            PutState::Link(l) => {
                let l = l as usize;
                if l >= self.level as usize {
                    self.state = PutState::Done;
                    return OpOutcome::Finished;
                }
                let mut tries = 0;
                loop {
                    vt.charge(Category::Locking, CAS_COST);
                    let cur = sk.read_next(ms, vt, self.preds[l], l);
                    if cur == self.node_slot {
                        break; // already linked
                    }
                    if cur == self.succs[l] {
                        sk.write_next(ms, vt, self.node_slot, l, self.succs[l]);
                        sk.write_next(ms, vt, self.preds[l], l, self.node_slot);
                        break;
                    }
                    tries += 1;
                    if tries > TOWER_RETRIES {
                        // Abandon the tower: level 0 carries correctness.
                        self.state = PutState::Done;
                        return OpOutcome::Finished;
                    }
                    let f = sk.find(ms, vt, self.key);
                    self.preds = f.preds;
                    self.succs = f.succs;
                    if self.succs[l] == self.node_slot {
                        break;
                    }
                }
                self.state = PutState::Link(l as u8 + 1);
                OpOutcome::Progress
            }
            PutState::Apply => {
                vt.charge(Category::Locking, CAS_COST);
                let img = sk
                    .read_node(ms, vt, self.target)
                    .expect("linked nodes stay valid");
                if img.op_id != self.prev_op {
                    // CAS on the op id failed: someone updated first.
                    self.state = PutState::Start;
                    return OpOutcome::Progress;
                }
                let mut updated = img.clone();
                updated.tomb = self.remove;
                updated.op_id = self.op_id();
                updated.prev_op = self.prev_op;
                updated.value = self.value.clone();
                // In-place linearizing write: header fields + checksum +
                // value, inside one atomic step, never touching the next
                // pointers (bytes 36..68).
                let enc = encode_node(&updated);
                let thread = vt.id();
                let addr = sk.slot_addr(self.target);
                ms.write(vt, sk.space, thread, addr + 4, &enc[4..36])
                    .expect("arena is mapped");
                ms.write(vt, sk.space, thread, addr + 68, &enc[68..SLOT])
                    .expect("arena is mapped");
                match (self.remove, self.target_was_tomb) {
                    (true, false) => sk.live -= 1,
                    (false, true) => sk.live += 1,
                    _ => {}
                }
                self.state = PutState::Done;
                OpOutcome::Finished
            }
            PutState::Done => OpOutcome::Finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::{Disk, DiskConfig};

    fn fresh(writers: u32) -> (MemSnap, AsId, PSkipList, Vt) {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let sk = PSkipList::create(&mut ms, space, &mut vt, "sk", 64, writers).unwrap();
        (ms, space, sk, vt)
    }

    #[test]
    fn node_codec_round_trips() {
        let img = NodeImg {
            is_head: false,
            level: 3,
            tomb: false,
            key: 99,
            op_id: op_id(1, 2),
            prev_op: 0,
            next: [5, 6, 7, NIL, NIL, NIL, NIL, NIL],
            value: b"abc".to_vec(),
        };
        assert_eq!(decode_node(&encode_node(&img)), Some(img.clone()));
        let mut b = encode_node(&img);
        b[70] ^= 1; // value byte
        assert_eq!(decode_node(&b), None);
        assert_eq!(decode_node(&[0u8; SLOT]), None);
    }

    #[test]
    fn next_pointers_change_without_breaking_checksum() {
        let img = NodeImg {
            is_head: false,
            level: 1,
            tomb: false,
            key: 1,
            op_id: op_id(0, 1),
            prev_op: 0,
            next: [NIL; MAX_LEVELS],
            value: Vec::new(),
        };
        let mut b = encode_node(&img);
        b[36..40].copy_from_slice(&7u32.to_le_bytes()); // CAS next[0]
        let got = decode_node(&b).expect("still valid");
        assert_eq!(got.next[0], 7);
    }

    #[test]
    fn levels_are_deterministic_and_geometric() {
        let mut counts = [0usize; MAX_LEVELS + 1];
        for k in 0..4096u64 {
            assert_eq!(level_for(k), level_for(k));
            counts[level_for(k) as usize] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[3]);
    }

    #[test]
    fn put_get_seek_round_trip() {
        let (mut ms, _space, mut sk, mut vt) = fresh(2);
        for k in [50u64, 10, 30, 20, 40] {
            sk.put(&mut ms, &mut vt, 0, k, &k.to_le_bytes());
        }
        assert_eq!(sk.len(), 5);
        assert_eq!(
            sk.get(&mut ms, &mut vt, 30),
            Some(30u64.to_le_bytes().to_vec())
        );
        assert_eq!(sk.get(&mut ms, &mut vt, 31), None);
        let keys: Vec<u64> = sk
            .seek(&mut ms, &mut vt, 15, 3)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![20, 30, 40]);
    }

    #[test]
    fn update_is_in_place_and_remove_tombstones() {
        let (mut ms, _space, mut sk, mut vt) = fresh(2);
        sk.put(&mut ms, &mut vt, 0, 7, b"old");
        sk.put(&mut ms, &mut vt, 1, 7, b"new");
        assert_eq!(sk.len(), 1);
        assert_eq!(sk.get(&mut ms, &mut vt, 7), Some(b"new".to_vec()));
        sk.remove(&mut ms, &mut vt, 0, 7);
        assert_eq!(sk.len(), 0);
        assert_eq!(sk.get(&mut ms, &mut vt, 7), None);
        // Re-insert lands on the tombstoned node in place.
        sk.put(&mut ms, &mut vt, 1, 7, b"back");
        assert_eq!(sk.get(&mut ms, &mut vt, 7), Some(b"back".to_vec()));
        assert_eq!(sk.len(), 1);
    }

    #[test]
    fn remove_of_absent_key_is_noop() {
        let (mut ms, _space, mut sk, mut vt) = fresh(1);
        let mut op = sk.begin_remove(0, 123);
        while op.step(&mut sk, &mut ms, &mut vt) == OpOutcome::Progress {}
        assert!(op.was_noop());
        assert_eq!(sk.len(), 0);
    }

    #[test]
    fn writers_allocate_from_private_pages() {
        let (mut ms, _space, mut sk, mut vt) = fresh(2);
        sk.put(&mut ms, &mut vt, 0, 1, b"a");
        sk.put(&mut ms, &mut vt, 1, 2, b"b");
        let f1 = sk.find(&mut ms, &mut vt, 1).found.unwrap().0;
        let f2 = sk.find(&mut ms, &mut vt, 2).found.unwrap().0;
        assert_ne!(
            f1 / SLOTS_PER_PAGE,
            f2 / SLOTS_PER_PAGE,
            "each writer's nodes live on its own chunk pages"
        );
    }

    #[test]
    fn interleaved_ops_are_steppable() {
        // Two ops on neighbouring keys advanced strictly alternately: the
        // state machines tolerate arbitrary step interleavings.
        let (mut ms, _space, mut sk, mut vt0) = fresh(2);
        let mut vt1 = Vt::new(1);
        let mut a = sk.begin_put(0, 10, b"ten");
        let mut b = sk.begin_put(1, 11, b"eleven");
        let (mut da, mut db) = (false, false);
        while !da || !db {
            if !da {
                da = a.step(&mut sk, &mut ms, &mut vt0) == OpOutcome::Finished;
            }
            if !db {
                db = b.step(&mut sk, &mut ms, &mut vt1) == OpOutcome::Finished;
            }
        }
        assert_eq!(sk.get(&mut ms, &mut vt0, 10), Some(b"ten".to_vec()));
        assert_eq!(sk.get(&mut ms, &mut vt0, 11), Some(b"eleven".to_vec()));
        assert_eq!(sk.len(), 2);
    }
}
