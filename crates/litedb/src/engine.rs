//! The engine: tables, transactions, the single writer lock.

use std::collections::HashMap;

use msnap_sim::{SimLock, Vt, VthreadId};

use crate::backend::{Backend, BackendStats, CommitError};
use crate::btree::{BTreeForest, CorruptPage};

/// Handle to a table (a B-tree slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(usize);

/// The LiteDB engine: a SQLite-shaped storage engine over a pluggable
/// persistence backend. See the crate docs for an example.
///
/// Concurrency follows SQLite: one writer at a time (the database write
/// lock is held from [`LiteDb::begin`] to [`LiteDb::commit`]), readers
/// are unrestricted. This is what satisfies the paper's property ③ — two
/// transactions can never dirty the same page concurrently.
pub struct LiteDb {
    backend: Box<dyn Backend>,
    tables: HashMap<String, TableId>,
    next_slot: usize,
    writer: SimLock,
    writer_thread: Option<VthreadId>,
}

impl std::fmt::Debug for LiteDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiteDb")
            .field("tables", &self.tables.len())
            .finish()
    }
}

impl LiteDb {
    /// Opens the database `backend` holds — recovery: every page is
    /// verified first — or formats a backend whose meta page (page 0)
    /// was never written.
    ///
    /// # Errors
    ///
    /// [`CorruptPage`] naming the first page that fails its checksum or
    /// does not decode as the tree says it should (a damaged meta page
    /// is page 0, never a reason to format); the database is not opened.
    pub fn open(mut backend: Box<dyn Backend>, vt: &mut Vt) -> Result<Self, CorruptPage> {
        if BTreeForest::is_blank(vt, backend.as_mut()) {
            BTreeForest::init(vt, backend.as_mut(), vt.id());
        } else {
            BTreeForest::check(vt, backend.as_mut())?;
        }
        Ok(LiteDb {
            backend,
            tables: HashMap::new(),
            next_slot: 0,
            writer: SimLock::new(),
            writer_thread: None,
        })
    }

    /// Creates table `name`, or re-attaches to it after a restore
    /// (tables must be created in the same order across runs, as with a
    /// fixed schema).
    pub fn create_table(&mut self, vt: &mut Vt, name: &str) -> TableId {
        if let Some(&id) = self.tables.get(name) {
            return id;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        if BTreeForest::tree_root(vt, self.backend.as_mut(), slot) == 0 {
            BTreeForest::create_tree(vt, self.backend.as_mut(), vt.id(), slot);
        }
        let id = TableId(slot);
        self.tables.insert(name.to_string(), id);
        id
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<TableId> {
        self.tables.get(name).copied()
    }

    /// Begins a write transaction: takes the database write lock.
    ///
    /// # Panics
    ///
    /// Panics if this thread already holds the lock.
    pub fn begin(&mut self, vt: &mut Vt, thread: VthreadId) {
        assert_ne!(self.writer_thread, Some(thread), "nested write transaction");
        self.writer.lock(vt);
        self.writer_thread = Some(thread);
    }

    /// Inserts or replaces `key` in `table`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` does not hold the write lock.
    pub fn put(&mut self, vt: &mut Vt, thread: VthreadId, table: TableId, key: u64, value: &[u8]) {
        assert_eq!(
            self.writer_thread,
            Some(thread),
            "put outside a transaction"
        );
        BTreeForest::insert(vt, self.backend.as_mut(), thread, table.0, key, value);
    }

    /// Deletes `key` from `table`; returns whether it existed.
    ///
    /// # Panics
    ///
    /// Panics if `thread` does not hold the write lock.
    pub fn delete(&mut self, vt: &mut Vt, thread: VthreadId, table: TableId, key: u64) -> bool {
        assert_eq!(
            self.writer_thread,
            Some(thread),
            "delete outside a transaction"
        );
        BTreeForest::delete(vt, self.backend.as_mut(), thread, table.0, key)
    }

    /// Point lookup (no transaction required).
    pub fn get(&mut self, vt: &mut Vt, table: TableId, key: u64) -> Option<Vec<u8>> {
        BTreeForest::get(vt, self.backend.as_mut(), table.0, key)
    }

    /// Range scan of up to `limit` entries with keys ≥ `key`.
    pub fn scan_from(
        &mut self,
        vt: &mut Vt,
        table: TableId,
        key: u64,
        limit: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        BTreeForest::scan_from(vt, self.backend.as_mut(), table.0, key, limit)
    }

    /// Commits the transaction durably and releases the write lock.
    ///
    /// # Errors
    ///
    /// [`CommitError`] when the backend cannot make the transaction
    /// durable. The transaction is aborted and the write lock released —
    /// a failed commit never wedges the database. On the MemSnap backend
    /// the device error stays sticky until acknowledged, so later commits
    /// keep reporting it.
    ///
    /// # Panics
    ///
    /// Panics if `thread` does not hold the write lock.
    pub fn commit(&mut self, vt: &mut Vt, thread: VthreadId) -> Result<(), CommitError> {
        assert_eq!(
            self.writer_thread,
            Some(thread),
            "commit outside a transaction"
        );
        let result = self.backend.commit(vt, thread);
        self.writer_thread = None;
        self.writer.unlock(vt);
        result
    }

    /// Enqueues the transaction into a cross-thread group commit and
    /// releases the write lock *immediately* — this is what lets several
    /// threads' transactions land in the same coalescing window: the next
    /// writer acquires the lock, runs its transaction, and enqueues into
    /// the same batch while the window is still open. Redeem the ticket
    /// with [`LiteDb::commit_poll`] (`None` means the backend committed
    /// durably inline, e.g. the WAL baseline).
    ///
    /// # Errors
    ///
    /// As for [`LiteDb::commit`]; the lock is released either way.
    ///
    /// # Panics
    ///
    /// Panics if `thread` does not hold the write lock.
    pub fn commit_enqueue(
        &mut self,
        vt: &mut Vt,
        thread: VthreadId,
    ) -> Result<Option<memsnap::CommitTicket>, CommitError> {
        assert_eq!(
            self.writer_thread,
            Some(thread),
            "commit outside a transaction"
        );
        let result = self.backend.commit_enqueue(vt, thread);
        self.writer_thread = None;
        self.writer.unlock(vt);
        result
    }

    /// Polls a group-commit ticket: `Ok(true)` once the transaction is
    /// durable, `Ok(false)` while its batch's window is still open.
    ///
    /// # Errors
    ///
    /// The batch's error if the combined commit failed; every transaction
    /// in the batch is aborted, and on the MemSnap backend the device
    /// error stays sticky until acknowledged.
    pub fn commit_poll(
        &mut self,
        vt: &mut Vt,
        ticket: memsnap::CommitTicket,
    ) -> Result<bool, CommitError> {
        self.backend.commit_poll(vt, ticket)
    }

    /// Persistence statistics from the backend.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Syscall latency meters from the backend.
    pub fn meters(&self) -> msnap_sim::Meters {
        self.backend.meters()
    }

    /// Resets backend metrics (warm-up).
    pub fn reset_metrics(&mut self) {
        self.backend.reset_metrics();
    }

    /// Consumes the engine and returns its backend (for crash tests).
    pub fn into_backend(self) -> Box<dyn Backend> {
        self.backend
    }

    /// Mutable access to the backend (diagnostics).
    pub fn backend_mut(&mut self) -> &mut dyn Backend {
        self.backend.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileBackend, MemSnapBackend};
    use msnap_disk::{Disk, DiskConfig};
    use msnap_fs::FsKind;
    use msnap_sim::Nanos;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn memsnap_db(vt: &mut Vt) -> LiteDb {
        let backend =
            MemSnapBackend::format_with_capacity(Disk::new(DiskConfig::paper()), "t.db", 4096, vt);
        LiteDb::open(Box::new(backend), vt).unwrap()
    }

    fn file_db(vt: &mut Vt) -> LiteDb {
        let backend = FileBackend::format(Disk::new(DiskConfig::paper()), FsKind::Ffs, "t.db", vt);
        LiteDb::open(Box::new(backend), vt).unwrap()
    }

    #[test]
    fn put_get_both_backends() {
        for mk in [memsnap_db as fn(&mut Vt) -> LiteDb, file_db] {
            let mut vt = Vt::new(0);
            let mut db = mk(&mut vt);
            let t = db.create_table(&mut vt, "kv");
            let thread = vt.id();
            db.begin(&mut vt, thread);
            db.put(&mut vt, thread, t, 1, b"one");
            db.put(&mut vt, thread, t, 2, b"two");
            db.commit(&mut vt, thread).unwrap();
            assert_eq!(db.get(&mut vt, t, 1), Some(b"one".to_vec()));
            assert_eq!(db.get(&mut vt, t, 2), Some(b"two".to_vec()));
            assert_eq!(db.get(&mut vt, t, 3), None);
        }
    }

    /// A backend that the test and each `LiteDb::open` share, so one
    /// recovered image can be damaged and reopened bit after bit.
    struct Shared(Rc<RefCell<MemSnapBackend>>);

    impl Backend for Shared {
        fn read_page(&mut self, vt: &mut Vt, page: u64, out: &mut [u8; crate::PAGE_SIZE]) {
            self.0.borrow_mut().read_page(vt, page, out);
        }
        fn write_page(
            &mut self,
            vt: &mut Vt,
            thread: VthreadId,
            page: u64,
            data: &[u8; crate::PAGE_SIZE],
        ) {
            self.0.borrow_mut().write_page(vt, thread, page, data);
        }
        fn commit(&mut self, vt: &mut Vt, thread: VthreadId) -> Result<(), CommitError> {
            self.0.borrow_mut().commit(vt, thread)
        }
        fn capacity_pages(&self) -> u64 {
            self.0.borrow().capacity_pages()
        }
        fn stats(&self) -> BackendStats {
            self.0.borrow().stats()
        }
        fn meters(&self) -> msnap_sim::Meters {
            self.0.borrow().meters()
        }
        fn reset_metrics(&mut self) {
            self.0.borrow_mut().reset_metrics();
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// A recovered database with one bit of one page flipped — each bit
    /// of the first 64 bytes and every 97th bit after, of the meta page,
    /// the root and a leaf — is refused by `LiteDb::open` as
    /// `CorruptPage` naming that page, and is not formatted over; the
    /// unflipped image opens as the model.
    #[test]
    fn flipped_bit_in_a_recovered_btree_page_is_refused_by_name() {
        use crate::btree::BTreeForest;
        use std::collections::BTreeMap;
        let mut vt = Vt::new(0);
        let mut db = memsnap_db(&mut vt);
        let t = db.create_table(&mut vt, "kv");
        let thread = vt.id();
        let mut model = BTreeMap::new();
        for k in 0..300u64 {
            let (key, value) = (k * 7919 % 1000, vec![k as u8; 40]);
            db.begin(&mut vt, thread);
            db.put(&mut vt, thread, t, key, &value);
            db.commit(&mut vt, thread).unwrap();
            model.insert(key, value);
        }
        let now = vt.now();
        let backend = db.into_backend().into_any().downcast::<MemSnapBackend>();
        let disk = backend.unwrap().crash(now);
        let mut vt = Vt::new(1);
        let shared = Rc::new(RefCell::new(MemSnapBackend::restore(disk, "t.db", &mut vt)));
        let mut backend = Shared(Rc::clone(&shared));
        let root = BTreeForest::tree_root(&mut vt, &mut backend, 0);
        assert!(root > 1, "page 1, the first root, is a leaf now");
        let thread = vt.id();
        let mut page = [0u8; crate::PAGE_SIZE];
        for p in [0, root, 1] {
            backend.read_page(&mut vt, p, &mut page);
            let clean = page;
            for bit in (0..512).chain((512..crate::PAGE_SIZE * 8).step_by(97)) {
                page[bit / 8] ^= 1 << (bit % 8);
                backend.write_page(&mut vt, thread, p, &page);
                backend.commit(&mut vt, thread).unwrap();
                let opened = LiteDb::open(Box::new(Shared(Rc::clone(&shared))), &mut vt);
                assert_eq!(
                    opened.err(),
                    Some(CorruptPage { page: p }),
                    "bit {bit} of page {p}"
                );
                page = clean;
            }
            backend.write_page(&mut vt, thread, p, &page);
            backend.commit(&mut vt, thread).unwrap();
        }
        let mut db = LiteDb::open(Box::new(backend), &mut vt).unwrap();
        let t = db.create_table(&mut vt, "kv");
        let all = db.scan_from(&mut vt, t, 0, usize::MAX);
        assert_eq!(all, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn writers_serialize_on_the_lock() {
        let mut vt0 = Vt::new(0);
        let mut db = memsnap_db(&mut vt0);
        let t = db.create_table(&mut vt0, "kv");
        let t0 = vt0.id();
        db.begin(&mut vt0, t0);
        db.put(&mut vt0, t0, t, 1, b"a");
        db.commit(&mut vt0, t0).unwrap();
        let committed_at = vt0.now();

        // A second writer starting earlier in virtual time queues behind
        // the lock.
        let mut vt1 = Vt::new(1);
        let t1 = vt1.id();
        db.begin(&mut vt1, t1);
        assert!(vt1.now() >= committed_at, "writer lock serializes");
        db.put(&mut vt1, t1, t, 2, b"b");
        db.commit(&mut vt1, t1).unwrap();
    }

    #[test]
    fn memsnap_commit_is_faster_than_wal_commit() {
        // The headline claim at transaction scale.
        let mut lat = Vec::new();
        for mk in [memsnap_db as fn(&mut Vt) -> LiteDb, file_db] {
            let mut vt = Vt::new(0);
            let mut db = mk(&mut vt);
            let t = db.create_table(&mut vt, "kv");
            let thread = vt.id();
            // Warm up.
            db.begin(&mut vt, thread);
            for k in 0..64u64 {
                db.put(&mut vt, thread, t, k, &[1u8; 128]);
            }
            db.commit(&mut vt, thread).unwrap();
            // Measure one 32-key transaction.
            let t0 = vt.now();
            db.begin(&mut vt, thread);
            for k in 100..132u64 {
                db.put(&mut vt, thread, t, k, &[2u8; 128]);
            }
            db.commit(&mut vt, thread).unwrap();
            lat.push(vt.now() - t0);
        }
        assert!(
            lat[0] < lat[1],
            "memsnap {} should beat WAL {}",
            lat[0],
            lat[1]
        );
    }

    #[test]
    fn memsnap_crash_recovers_committed_transactions() {
        let mut vt = Vt::new(0);
        let backend = MemSnapBackend::format_with_capacity(
            Disk::new(DiskConfig::paper()),
            "t.db",
            4096,
            &mut vt,
        );
        let mut db = LiteDb::open(Box::new(backend), &mut vt).unwrap();
        let t = db.create_table(&mut vt, "kv");
        let thread = vt.id();
        db.begin(&mut vt, thread);
        for k in 0..100u64 {
            db.put(&mut vt, thread, t, k, &k.to_le_bytes());
        }
        db.commit(&mut vt, thread).unwrap();
        // Uncommitted second transaction.
        db.begin(&mut vt, thread);
        db.put(&mut vt, thread, t, 555, b"uncommitted");
        let crash_at = vt.now();

        let backend = db
            .into_backend()
            .into_any()
            .downcast::<MemSnapBackend>()
            .expect("memsnap backend");
        let disk = backend.crash(crash_at);

        let mut vt2 = Vt::new(1);
        let restored = MemSnapBackend::restore(disk, "t.db", &mut vt2);
        let mut db2 = LiteDb::open(Box::new(restored), &mut vt2).unwrap();
        let t2 = db2.create_table(&mut vt2, "kv");
        for k in 0..100u64 {
            assert_eq!(db2.get(&mut vt2, t2, k), Some(k.to_le_bytes().to_vec()));
        }
        assert_eq!(db2.get(&mut vt2, t2, 555), None, "uncommitted txn lost");
    }

    #[test]
    fn scans_work_through_engine() {
        let mut vt = Vt::new(0);
        let mut db = memsnap_db(&mut vt);
        let t = db.create_table(&mut vt, "kv");
        let thread = vt.id();
        db.begin(&mut vt, thread);
        for k in (0..100u64).rev() {
            db.put(&mut vt, thread, t, k, b"v");
        }
        db.commit(&mut vt, thread).unwrap();
        let scan = db.scan_from(&mut vt, t, 90, 100);
        assert_eq!(scan.len(), 10);
        assert_eq!(scan[0].0, 90);
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn put_without_begin_panics() {
        let mut vt = Vt::new(0);
        let mut db = memsnap_db(&mut vt);
        let t = db.create_table(&mut vt, "kv");
        let thread = vt.id();
        db.put(&mut vt, thread, t, 1, b"x");
    }

    #[test]
    fn commit_latency_is_bounded_by_4k_page_model() {
        // Single-page transaction on MemSnap: end-to-end commit should be
        // tens of microseconds (Table 6's 4 KiB sync row, ~34 us), far
        // below a WAL fsync (~70 us+).
        let mut vt = Vt::new(0);
        let mut db = memsnap_db(&mut vt);
        let t = db.create_table(&mut vt, "kv");
        let thread = vt.id();
        db.begin(&mut vt, thread);
        db.put(&mut vt, thread, t, 1, &[0u8; 128]);
        db.commit(&mut vt, thread).unwrap();

        db.begin(&mut vt, thread);
        let t0 = vt.now();
        db.put(&mut vt, thread, t, 1, &[1u8; 128]);
        db.commit(&mut vt, thread).unwrap();
        let commit_us = (vt.now() - t0).as_us_f64();
        assert!(commit_us < 70.0, "memsnap 1-page commit {commit_us:.1} us");
        let _ = Nanos::ZERO;
    }
}
