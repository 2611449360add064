//! The baseline backend: WAL mode over the file API.
//!
//! Faithful to SQLite's WAL mode as the paper describes it: "when any
//! block is dirtied through a write, the block is appended to the WAL"
//! (every `write_page` appends a frame, even for a page already appended
//! in the same transaction); a commit fsyncs the WAL; once the WAL
//! exceeds the checkpoint threshold its frames are copied into the DB
//! file with random writes and both files are fsynced.

use std::collections::{HashMap, VecDeque};

use msnap_disk::Disk;
use msnap_fs::{Fd, FileSystem, FsKind, WriteAheadLog};
use msnap_sim::{Category, Meters, Nanos, Vt, VthreadId};

use crate::backend::{Backend, BackendStats, CommitError};
use crate::PAGE_SIZE;

/// Default checkpoint threshold: 4 MiB of WAL, "as is the default"
/// (§7.1).
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 4 << 20;

/// CPU cost of a page-cache hit (userspace lookup, no syscall).
const CACHE_HIT: Nanos = Nanos::from_ns(200);

/// The WAL-and-checkpoint baseline backend. See the module docs.
#[derive(Debug)]
pub struct FileBackend {
    fs: FileSystem,
    disk: Disk,
    db_fd: Fd,
    wal: WriteAheadLog,
    /// Latest WAL frame per page (SQLite's shared-memory WAL index).
    wal_latest: HashMap<u64, Box<[u8]>>,
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
            wal_latest: HashMap::new(),
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
    /// replayed up to its last intact record.
    pub fn crash_and_recover(&mut self, vt: &mut Vt, at: Nanos) {
        self.disk.crash(at);
        self.fs.discard_cache(&self.disk);
        self.cache.clear();
        self.cache_order.clear();
        self.wal_latest.clear();
        for record in self.wal.replay(vt, &mut self.disk, &mut self.fs) {
            let page = u64::from_le_bytes(record.payload[0..8].try_into().unwrap());
            self.wal_latest
                .insert(page, record.payload[8..].to_vec().into_boxed_slice());
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
        let frames: Vec<(u64, Box<[u8]>)> = self.wal_latest.drain().collect();
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
        for page in pages {
            let mut frame = Vec::with_capacity(8 + PAGE_SIZE);
            frame.extend_from_slice(&page.to_le_bytes());
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
