//! The heap engine: slotted 8 KiB blocks with append-only MVCC tuples.

use std::collections::HashMap;

use msnap_sim::wire::Reader;
use msnap_sim::{Vt, VthreadId};

use crate::store::{BlockStore, PG_BLOCK};

/// Handle to a heap table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PgTable(pub u32);

const BLOCK_HDR: usize = 4; // nslots u16, free_off u16
const SLOT_HDR: usize = 12; // key u64, len u16, flags u16 (bit0 = dead)

/// A heap block's header: its slot count, and where its next tuple goes.
fn header(image: &[u8]) -> (u16, usize) {
    let mut r = Reader::new(image);
    let nslots = r.u16().unwrap_or(0);
    (nslots, usize::from(r.u16().unwrap_or(0)).max(BLOCK_HDR))
}

/// The tuple at `off` in a heap block: its key, row and dead flag, or
/// `None` if it runs past the block (which ends a scan of it).
fn tuple_at(image: &[u8], off: usize) -> Option<(u64, &[u8], bool)> {
    let mut r = Reader::new(image.get(off..)?);
    let (key, len, flags) = (r.u64().ok()?, r.u16().ok()?, r.u16().ok()?);
    Some((key, r.take(usize::from(len)).ok()?, flags & 1 != 0))
}

#[derive(Debug, Default, Clone)]
struct TableState {
    nblocks: u64,
    /// Free bytes per block.
    free: Vec<usize>,
}

/// The PostgreSQL-shaped engine: heap tables over a [`BlockStore`].
///
/// Updates follow MVCC discipline: the new tuple version is *appended*
/// (preferring the old version's block — a HOT update) and the old
/// version's header is marked dead; tuples are never modified in place.
/// This is what makes it safe for MemSnap to persist a page that carries
/// another transaction's uncommitted appends (§7.3 properties ② and ③).
pub struct PgDb {
    store: BlockStore,
    tables: Vec<TableState>,
    /// Volatile primary-key index: (table, key) → (block, tuple offset).
    index: HashMap<(u32, u64), (u64, u16)>,
}

impl std::fmt::Debug for PgDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PgDb")
            .field("tables", &self.tables.len())
            .field("rows", &self.index.len())
            .finish()
    }
}

impl PgDb {
    /// Wraps a block store configured for `ntables` tables.
    pub fn new(store: BlockStore, ntables: u32) -> Self {
        PgDb {
            store,
            tables: vec![TableState::default(); ntables as usize],
            index: HashMap::new(),
        }
    }

    /// The underlying store (IO reports, checkpoints).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Mutable access to the underlying store.
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }

    /// Consumes the engine, returning the store (crash tests).
    pub fn into_store(self) -> BlockStore {
        self.store
    }

    /// Number of live rows across all tables.
    pub fn rows(&self) -> usize {
        self.index.len()
    }

    fn read_block(&mut self, vt: &mut Vt, conn: usize, table: u32, block: u64) -> Vec<u8> {
        let mut buf = vec![0u8; PG_BLOCK];
        self.store.read(vt, conn, table, block, &mut buf);
        buf
    }

    /// Picks a block with at least `need` free bytes, preferring the last
    /// block; allocates a new one if necessary.
    fn pick_block(&mut self, table: u32, need: usize) -> u64 {
        let state = &mut self.tables[table as usize];
        if let Some(last) = state.nblocks.checked_sub(1) {
            if state.free[last as usize] >= need {
                return last;
            }
        }
        let block = state.nblocks;
        state.nblocks += 1;
        state.free.push(PG_BLOCK - BLOCK_HDR);
        block
    }

    /// Appends a tuple version into `block`'s image; returns its offset.
    fn append_tuple(image: &mut [u8], key: u64, row: &[u8]) -> u16 {
        let (nslots, free_off) = header(image);
        let need = SLOT_HDR + row.len();
        assert!(free_off + need <= PG_BLOCK, "block overflow");
        image[free_off..free_off + 8].copy_from_slice(&key.to_le_bytes());
        image[free_off + 8..free_off + 10].copy_from_slice(&(row.len() as u16).to_le_bytes());
        image[free_off + 10..free_off + 12].copy_from_slice(&0u16.to_le_bytes());
        image[free_off + 12..free_off + 12 + row.len()].copy_from_slice(row);
        image[0..2].copy_from_slice(&(nslots + 1).to_le_bytes());
        image[2..4].copy_from_slice(&((free_off + need) as u16).to_le_bytes());
        free_off as u16
    }

    /// Inserts a new row.
    ///
    /// # Panics
    ///
    /// Panics if the key already exists (use [`PgDb::update`]).
    pub fn insert(
        &mut self,
        vt: &mut Vt,
        conn: usize,
        thread: VthreadId,
        table: PgTable,
        key: u64,
        row: &[u8],
    ) {
        assert!(
            !self.index.contains_key(&(table.0, key)),
            "duplicate key {key} in table {}",
            table.0
        );
        let need = SLOT_HDR + row.len();
        let block = self.pick_block(table.0, need);
        let mut image = self.read_block(vt, conn, table.0, block);
        let off = Self::append_tuple(&mut image, key, row);
        self.store.write(vt, conn, thread, table.0, block, &image);
        self.tables[table.0 as usize].free[block as usize] -= need;
        self.index.insert((table.0, key), (block, off));
    }

    /// MVCC update: appends the new version and marks the old one dead.
    ///
    /// # Panics
    ///
    /// Panics if the key does not exist.
    pub fn update(
        &mut self,
        vt: &mut Vt,
        conn: usize,
        thread: VthreadId,
        table: PgTable,
        key: u64,
        row: &[u8],
    ) {
        let (old_block, old_off) = *self
            .index
            .get(&(table.0, key))
            .unwrap_or_else(|| panic!("update of missing key {key}"));
        let need = SLOT_HDR + row.len();

        // HOT path: the new version fits in the old version's block — one
        // dirty block.
        if self.tables[table.0 as usize].free[old_block as usize] >= need {
            let mut image = self.read_block(vt, conn, table.0, old_block);
            image[usize::from(old_off) + 10] |= 1; // dead
            let off = Self::append_tuple(&mut image, key, row);
            self.store
                .write(vt, conn, thread, table.0, old_block, &image);
            self.tables[table.0 as usize].free[old_block as usize] -= need;
            self.index.insert((table.0, key), (old_block, off));
            return;
        }

        // Cold path: new version elsewhere; two dirty blocks.
        let new_block = self.pick_block(table.0, need);
        let mut new_image = self.read_block(vt, conn, table.0, new_block);
        let off = Self::append_tuple(&mut new_image, key, row);
        self.store
            .write(vt, conn, thread, table.0, new_block, &new_image);
        self.tables[table.0 as usize].free[new_block as usize] -= need;

        let mut old_image = self.read_block(vt, conn, table.0, old_block);
        old_image[usize::from(old_off) + 10] |= 1;
        self.store
            .write(vt, conn, thread, table.0, old_block, &old_image);

        self.index.insert((table.0, key), (new_block, off));
    }

    /// Reads the live version of a row.
    pub fn read(&mut self, vt: &mut Vt, conn: usize, table: PgTable, key: u64) -> Option<Vec<u8>> {
        let (block, off) = *self.index.get(&(table.0, key))?;
        let image = self.read_block(vt, conn, table.0, block);
        Some(tuple_at(&image, usize::from(off))?.1.to_vec())
    }

    /// Durably commits the connection's transaction.
    pub fn commit(&mut self, vt: &mut Vt, conn: usize, thread: VthreadId) {
        self.store.commit(vt, conn, thread);
    }

    /// Rebuilds the volatile index by scanning every block (restore path;
    /// the last — live — version of each key wins).
    pub fn rebuild_index(&mut self, vt: &mut Vt, conn: usize) {
        self.index.clear();
        for t in 0..self.tables.len() as u32 {
            // Scan forward until an empty block.
            let mut block = 0u64;
            loop {
                let image = self.read_block(vt, conn, t, block);
                let (nslots, free_off) = header(&image);
                if nslots == 0 {
                    break;
                }
                let mut off = BLOCK_HDR;
                for _ in 0..nslots {
                    let Some((key, row, dead)) = tuple_at(&image, off) else {
                        break;
                    };
                    if !dead {
                        self.index.insert((t, key), (block, off as u16));
                    }
                    off += SLOT_HDR + row.len();
                }
                let state = &mut self.tables[t as usize];
                if state.nblocks <= block {
                    state.nblocks = block + 1;
                    state.free.resize(block as usize + 1, 0);
                }
                state.free[block as usize] = PG_BLOCK.saturating_sub(free_off);
                block += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreVariant;
    use msnap_disk::{Disk, DiskConfig};

    fn fresh(variant: StoreVariant) -> (PgDb, Vt) {
        let mut vt = Vt::new(0);
        let store = BlockStore::new(variant, Disk::new(DiskConfig::paper()), 3, 2, 512, &mut vt);
        (PgDb::new(store, 3), vt)
    }

    #[test]
    fn insert_read_update_cycle() {
        for variant in [StoreVariant::Baseline, StoreVariant::MemSnap] {
            let (mut db, mut vt) = fresh(variant);
            let t = vt.id();
            let tbl = PgTable(0);
            db.insert(&mut vt, 0, t, tbl, 1, b"v1");
            db.commit(&mut vt, 0, t);
            assert_eq!(db.read(&mut vt, 0, tbl, 1), Some(b"v1".to_vec()));
            db.update(&mut vt, 0, t, tbl, 1, b"v2-longer");
            db.commit(&mut vt, 0, t);
            assert_eq!(db.read(&mut vt, 0, tbl, 1), Some(b"v2-longer".to_vec()));
            assert_eq!(db.read(&mut vt, 0, tbl, 2), None);
        }
    }

    #[test]
    fn updates_append_versions_not_overwrite() {
        let (mut db, mut vt) = fresh(StoreVariant::MemSnap);
        let t = vt.id();
        let tbl = PgTable(0);
        db.insert(&mut vt, 0, t, tbl, 7, b"old");
        let (block, off0) = db.index[&(0, 7)];
        db.update(&mut vt, 0, t, tbl, 7, b"new");
        let (block2, off1) = db.index[&(0, 7)];
        assert_eq!(block, block2, "HOT update stays in the block");
        assert!(off1 > off0, "new version is appended");
    }

    #[test]
    fn blocks_spill_when_full() {
        let (mut db, mut vt) = fresh(StoreVariant::Baseline);
        let t = vt.id();
        let tbl = PgTable(1);
        let row = vec![9u8; 500];
        for k in 0..40u64 {
            db.insert(&mut vt, 0, t, tbl, k, &row);
        }
        db.commit(&mut vt, 0, t);
        assert!(
            db.tables[1].nblocks > 1,
            "rows spilled into multiple blocks"
        );
        for k in 0..40u64 {
            assert_eq!(db.read(&mut vt, 0, tbl, k), Some(row.clone()));
        }
    }

    #[test]
    fn memsnap_variant_survives_crash_and_index_rebuild() {
        let (mut db, mut vt) = fresh(StoreVariant::MemSnap);
        let t = vt.id();
        let tbl = PgTable(0);
        for k in 0..30u64 {
            db.insert(&mut vt, 0, t, tbl, k, &k.to_le_bytes());
        }
        db.update(&mut vt, 0, t, tbl, 5, b"updated!");
        db.commit(&mut vt, 0, t);
        let crash_at = vt.now();
        let disk = db.into_store().crash(crash_at);

        let mut vt2 = Vt::new(1);
        let store = BlockStore::restore(disk, 3, 2, &mut vt2);
        let mut db2 = PgDb::new(store, 3);
        db2.rebuild_index(&mut vt2, 0);
        assert_eq!(db2.read(&mut vt2, 0, tbl, 5), Some(b"updated!".to_vec()));
        assert_eq!(
            db2.read(&mut vt2, 0, tbl, 20),
            Some(20u64.to_le_bytes().to_vec())
        );
        assert_eq!(db2.rows(), 30);
    }

    /// Every bit flip of a heap block's used bytes rebuilds an index and
    /// reads every key without a panic: a tuple that runs past its block
    /// ends the block's scan, and a row that does not decode reads `None`.
    #[test]
    fn any_bit_flip_of_a_heap_block_rebuilds_without_a_panic() {
        let (mut db, mut vt) = fresh(StoreVariant::MemSnap);
        let t = vt.id();
        let tbl = PgTable(0);
        for k in 0..4u64 {
            db.insert(&mut vt, 0, t, tbl, k, &k.to_le_bytes());
        }
        db.update(&mut vt, 0, t, tbl, 2, b"two");
        db.commit(&mut vt, 0, t);
        let clean = db.read_block(&mut vt, 0, 0, 0);
        let used = header(&clean).1;
        for bit in 0..used * 8 {
            let mut image = clean.clone();
            image[bit / 8] ^= 1 << (bit % 8);
            db.store.write(&mut vt, 0, t, 0, 0, &image);
            db.commit(&mut vt, 0, t);
            db.rebuild_index(&mut vt, 0);
            assert!(db.rows() <= 5, "bit {bit}: {} rows", db.rows());
            for k in 0..4u64 {
                let _ = db.read(&mut vt, 0, tbl, k);
            }
        }
    }
}
