//! The baseline backend: WAL mode over the file API.
//!
//! Faithful to SQLite's WAL mode as the paper describes it: "when any
//! block is dirtied through a write, the block is appended to the WAL"
//! (every `write_page` appends a frame, even for a page already appended
//! in the same transaction); a commit fsyncs the WAL; once the WAL
//! exceeds the checkpoint threshold its frames are copied into the DB
//! file with random writes and both files are fsynced.
//!
//! A frame is the page number and the page image; the top bit of the
//! page number marks a transaction's last frame, its commit frame, as
//! SQLite's WAL does. Recovery applies a transaction only once its commit
//! frame replays intact, so a log torn or damaged inside a transaction
//! recovers the transactions before it.

use std::collections::{BTreeMap, HashMap, VecDeque};

use msnap_disk::Disk;
use msnap_fs::{Fd, FileSystem, FsKind, WriteAheadLog};
use msnap_sim::wire::Reader;
use msnap_sim::{Category, Meters, Nanos, Vt, VthreadId};

use crate::backend::{Backend, BackendStats, CommitError};
use crate::PAGE_SIZE;

/// Default checkpoint threshold: 4 MiB of WAL, "as is the default"
/// (§7.1).
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 4 << 20;

/// CPU cost of a page-cache hit (userspace lookup, no syscall).
const CACHE_HIT: Nanos = Nanos::from_ns(200);

/// The flag on a frame's page number that ends its transaction.
const COMMIT_FRAME: u64 = 1 << 63;

/// The WAL-and-checkpoint baseline backend. See the module docs.
#[derive(Debug)]
pub struct FileBackend {
    fs: FileSystem,
    disk: Disk,
    db_fd: Fd,
    wal: WriteAheadLog,
    /// Latest WAL frame per page (SQLite's shared-memory WAL index).
    /// Ordered, so a checkpoint writes its frames back in page order and
    /// a crash inside it lands the same way in every process.
    wal_latest: BTreeMap<u64, Box<[u8]>>,
    /// Pages already journaled in the current transaction (SQLite appends
    /// a WAL frame on the first modification of a page per transaction).
    txn_pages: std::collections::HashSet<u64>,
    /// Bounded userspace page cache.
    cache: HashMap<u64, Box<[u8]>>,
    cache_order: VecDeque<u64>,
    cache_cap: usize,
    checkpoint_bytes: u64,
    capacity_pages: u64,
    stats: BackendStats,
}

impl FileBackend {
    /// Creates a fresh database on `disk` with file system `kind`.
    pub fn format(disk: Disk, kind: FsKind, name: &str, vt: &mut Vt) -> Self {
        let mut fs = FileSystem::new(kind);
        let db_fd = fs.create(vt, name);
        let wal = WriteAheadLog::create(vt, &mut fs, &format!("{name}-wal"));
        FileBackend {
            fs,
            disk,
            db_fd,
            wal,
            wal_latest: BTreeMap::new(),
            txn_pages: std::collections::HashSet::new(),
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            cache_cap: 2_000,
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
            capacity_pages: 1 << 20,
            stats: BackendStats::default(),
        }
    }

    /// Simulates a crash at `at` followed by recovery: the buffer cache
    /// is lost, the device rolls back incomplete writes, and the WAL is
    /// replayed up to its last intact record — each transaction whose
    /// commit frame is among them, and nothing of the one after.
    pub fn crash_and_recover(&mut self, vt: &mut Vt, at: Nanos) {
        self.disk.crash(at);
        self.fs.discard_cache(&self.disk);
        self.cache.clear();
        self.cache_order.clear();
        self.wal_latest.clear();
        let mut txn = Vec::new();
        for record in self.wal.replay(vt, &mut self.disk, &mut self.fs) {
            let mut r = Reader::new(&record.payload);
            // A record that is not one frame ends the log.
            let (Ok(word), Ok(image), []) = (r.u64(), r.take(PAGE_SIZE), r.rest()) else {
                break;
            };
            txn.push((word & !COMMIT_FRAME, Box::from(image)));
            if word & COMMIT_FRAME != 0 {
                self.wal_latest.extend(txn.drain(..));
            }
        }
    }

    /// IO statistics of the underlying device.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    fn cache_insert(&mut self, page: u64, data: Box<[u8]>) {
        if !self.cache.contains_key(&page) {
            self.cache_order.push_back(page);
            if self.cache.len() >= self.cache_cap {
                if let Some(evict) = self.cache_order.pop_front() {
                    self.cache.remove(&evict);
                }
            }
        }
        self.cache.insert(page, data);
    }

    fn checkpoint(&mut self, vt: &mut Vt) {
        // Copy every WAL frame into the DB file (random in-place writes),
        // fsync the DB, then truncate and fsync the WAL — the expensive
        // operation the paper's Table 7 attributes the fsync tail to.
        let frames: Vec<(u64, Box<[u8]>)> =
            std::mem::take(&mut self.wal_latest).into_iter().collect();
        for (page, data) in &frames {
            self.fs.write(
                vt,
                &mut self.disk,
                self.db_fd,
                page * PAGE_SIZE as u64,
                data,
            );
        }
        self.fs.fsync(vt, &mut self.disk, self.db_fd);
        self.wal.reset(vt, &mut self.fs);
        self.fs.fsync(vt, &mut self.disk, self.wal.fd());
        self.stats.checkpoints += 1;
    }
}

impl Backend for FileBackend {
    fn read_page(&mut self, vt: &mut Vt, page: u64, out: &mut [u8; PAGE_SIZE]) {
        if let Some(data) = self.cache.get(&page) {
            out.copy_from_slice(data);
            vt.charge(Category::OtherUserspace, CACHE_HIT);
            return;
        }
        // Miss: latest version is in the WAL index or the DB file.
        if let Some(data) = self.wal_latest.get(&page) {
            out.copy_from_slice(data);
            // The WAL is mapped; still a VFS read of the frame.
            self.fs
                .read(vt, &mut self.disk, self.wal.fd(), 0, &mut out[..0]);
        } else {
            self.fs
                .read(vt, &mut self.disk, self.db_fd, page * PAGE_SIZE as u64, out);
        }
        self.cache_insert(page, out.to_vec().into_boxed_slice());
    }

    fn write_page(&mut self, vt: &mut Vt, _thread: VthreadId, page: u64, data: &[u8; PAGE_SIZE]) {
        let _ = vt;
        self.cache_insert(page, data.to_vec().into_boxed_slice());
        self.wal_latest
            .insert(page, data.to_vec().into_boxed_slice());
        self.txn_pages.insert(page);
    }

    fn commit(&mut self, vt: &mut Vt, _thread: VthreadId) -> Result<(), CommitError> {
        // SQLite WAL mode: at commit the pager appends one frame per page
        // dirtied by the transaction (a 128 B value amplifies to a whole
        // page) and fsyncs the log.
        let mut pages: Vec<u64> = self.txn_pages.drain().collect();
        pages.sort_unstable();
        let last = pages.last().copied();
        for page in pages {
            let word = if Some(page) == last {
                page | COMMIT_FRAME
            } else {
                page
            };
            let mut frame = Vec::with_capacity(8 + PAGE_SIZE);
            frame.extend_from_slice(&word.to_le_bytes());
            frame.extend_from_slice(&self.wal_latest[&page]);
            self.wal.append(vt, &mut self.disk, &mut self.fs, &frame);
            self.stats.pages_persisted += 1;
        }
        self.wal.sync(vt, &mut self.disk, &mut self.fs);
        self.stats.commits += 1;
        if self.wal.len() >= self.checkpoint_bytes {
            self.checkpoint(vt);
        }
        Ok(())
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn meters(&self) -> Meters {
        self.fs.meters().clone()
    }

    fn reset_metrics(&mut self) {
        self.fs.reset_meters();
        self.stats = BackendStats::default();
        self.disk.reset_stats();
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn page_of(b: u8) -> [u8; PAGE_SIZE] {
        [b; PAGE_SIZE]
    }

    fn setup() -> (FileBackend, Vt) {
        let vt = Vt::new(0);
        let mut boot = Vt::new(9);
        let backend = FileBackend::format(
            Disk::new(DiskConfig::paper()),
            FsKind::Ffs,
            "test.db",
            &mut boot,
        );
        (backend, vt)
    }

    #[test]
    fn write_commit_read_round_trip() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        b.write_page(&mut vt, t, 5, &page_of(0xAA));
        b.commit(&mut vt, t).unwrap();
        let mut out = page_of(0);
        b.read_page(&mut vt, 5, &mut out);
        assert_eq!(out, page_of(0xAA));
    }

    /// A bit flipped in any one WAL record — its length, its checksum,
    /// its page word (the commit flag included) or its image — recovers
    /// exactly the transactions committed before that record's: never a
    /// torn one, never a panic.
    #[test]
    fn flipped_bit_in_a_wal_record_recovers_the_transactions_before_it() {
        use crate::LiteDb;
        use std::collections::BTreeMap;
        // Eight transactions of twelve puts; returns the backend, the
        // table after each transaction, and each frame's transaction.
        let build = || {
            let (backend, mut vt) = setup();
            let mut db = LiteDb::open(Box::new(backend), &mut vt).unwrap();
            let t = db.create_table(&mut vt, "kv");
            let thread = vt.id();
            let (mut model, mut models, mut txn_of) = (BTreeMap::new(), vec![vec![]], vec![]);
            for txn in 0..8u64 {
                db.begin(&mut vt, thread);
                for i in 0..12u64 {
                    let (key, value) = ((txn * 12 + i) * 37 % 500, vec![(txn + i) as u8; 90]);
                    db.put(&mut vt, thread, t, key, &value);
                    model.insert(key, value);
                }
                db.commit(&mut vt, thread).unwrap();
                let frames = db.backend_stats().pages_persisted as usize;
                txn_of.resize(frames, txn as usize);
                models.push(model.clone().into_iter().collect::<Vec<_>>());
            }
            let backend = db.into_backend().into_any().downcast::<FileBackend>();
            (*backend.unwrap(), vt, models, txn_of)
        };
        let (_, _, models, txn_of) = build();
        assert!(txn_of.len() > 2 * 8, "transactions of several frames");
        let frame = (16 + 8 + PAGE_SIZE) as u64;
        // Bits of the length and checksum words, of the page word (bit 127
        // of the frame's first 16 bytes is the commit flag), of the image.
        let bits = [
            0, 13, 40, 63, 64, 77, 100, 127, 128, 133, 190, 191, 200, 9_000, 32_900,
        ];
        for (record, &txn) in txn_of.iter().enumerate() {
            for bit in bits {
                let (mut b, mut vt, _, _) = build();
                let at = record as u64 * frame + bit / 8;
                let fd = b.wal.fd();
                let mut byte = [0u8];
                b.fs.read(&mut vt, &mut b.disk, fd, at, &mut byte);
                byte[0] ^= 1 << (bit % 8);
                b.fs.write(&mut vt, &mut b.disk, fd, at, &byte);
                b.fs.fsync(&mut vt, &mut b.disk, fd);
                let now = vt.now();
                b.crash_and_recover(&mut vt, now);
                let mut db = LiteDb::open(Box::new(b), &mut vt).unwrap();
                let t = db.create_table(&mut vt, "kv");
                let all = db.scan_from(&mut vt, t, 0, usize::MAX);
                assert_eq!(all, models[txn], "bit {bit} of record {record}");
            }
        }
    }

    #[test]
    fn committed_pages_survive_crash() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        b.write_page(&mut vt, t, 3, &page_of(1));
        b.commit(&mut vt, t).unwrap();
        b.write_page(&mut vt, t, 3, &page_of(2)); // uncommitted
        let now = vt.now();
        b.crash_and_recover(&mut vt, now);
        let mut out = page_of(0);
        b.read_page(&mut vt, 3, &mut out);
        assert_eq!(out, page_of(1), "WAL replay recovers the committed frame");
    }

    #[test]
    fn checkpoint_fires_at_threshold() {
        let (mut b, mut vt) = setup();
        b.checkpoint_bytes = 16 * PAGE_SIZE as u64;
        let t = vt.id();
        for i in 0..20u64 {
            b.write_page(&mut vt, t, i, &page_of(i as u8));
            b.commit(&mut vt, t).unwrap();
        }
        assert!(b.stats().checkpoints >= 1, "checkpoint must have fired");
        // Data survives a crash even after the WAL was truncated.
        let now = vt.now();
        b.crash_and_recover(&mut vt, now);
        let mut out = page_of(0);
        b.read_page(&mut vt, 10, &mut out);
        assert_eq!(out, page_of(10));
    }

    #[test]
    fn rewrites_in_one_txn_journal_final_image_once() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        let before = b.wal.len();
        b.write_page(&mut vt, t, 7, &page_of(1));
        b.write_page(&mut vt, t, 7, &page_of(2));
        b.commit(&mut vt, t).unwrap();
        let frames = (b.wal.len() - before) / (16 + 8 + PAGE_SIZE as u64);
        assert_eq!(frames, 1, "one frame per dirtied page per transaction");
        let mut out = page_of(0);
        b.read_page(&mut vt, 7, &mut out);
        assert_eq!(out, page_of(2));
        // The durable frame must carry the final image.
        let now = vt.now();
        b.crash_and_recover(&mut vt, now);
        b.read_page(&mut vt, 7, &mut out);
        assert_eq!(out, page_of(2));
    }

    #[test]
    fn cache_eviction_falls_back_to_files() {
        let (mut b, mut vt) = setup();
        b.cache_cap = 8;
        let t = vt.id();
        for i in 0..32u64 {
            b.write_page(&mut vt, t, i, &page_of(i as u8));
            b.commit(&mut vt, t).unwrap();
        }
        for i in 0..32u64 {
            let mut out = page_of(0);
            b.read_page(&mut vt, i, &mut out);
            assert_eq!(out, page_of(i as u8), "page {i}");
        }
    }

    #[test]
    fn meters_expose_syscall_latencies() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        b.write_page(&mut vt, t, 0, &page_of(1));
        b.commit(&mut vt, t).unwrap();
        let meters = b.meters();
        assert!(meters.get("write").is_some());
        assert!(meters.get("fsync").is_some());
    }
}
