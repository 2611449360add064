//! The unmodified-RocksDB baseline: WAL + MemTable + SSTables.
//!
//! `Put` logs to the WAL and fsyncs, then inserts into a volatile skip
//! list; a full MemTable is serialized into an SSTable (sequential IO),
//! and accumulating SSTables are merged by compaction — the "additional
//! IO because of background compaction" of §2. Compaction runs inline on
//! the committing thread here, which charges its IO to the workload just
//! as RocksDB's background threads consume the same device bandwidth.

use msnap_disk::Disk;
use msnap_fs::{Fd, FileSystem, FsKind, WriteAheadLog};
use msnap_sim::wire::Reader;
use msnap_sim::{Category, Meters, Nanos, Vt};

use crate::kv::{Kv, KvStats};
use crate::skiplist::SkipIndex;

/// Serialization cost per record when building WAL/SSTable images.
const SERIALIZE_RECORD: Nanos = Nanos::from_ns(600);
/// IO-vector assembly cost per SSTable chunk.
const IO_GEN_CHUNK: Nanos = Nanos::from_ns(900);
/// SSTable write chunk size.
const CHUNK: usize = 32 * 1024;

#[derive(Debug)]
struct SsTable {
    fd: Fd,
    /// Sorted keys and their (offset, vlen) in the file.
    index: Vec<(u64, u64, u16)>,
}

impl SsTable {
    fn find(&self, key: u64) -> Option<(u64, u16)> {
        self.index
            .binary_search_by_key(&key, |&(k, _, _)| k)
            .ok()
            .map(|i| (self.index[i].1, self.index[i].2))
    }
}

/// The WAL-and-LSM baseline store. See the module docs.
#[derive(Debug)]
pub struct BaselineKv {
    disk: Disk,
    fs: FileSystem,
    wal: WriteAheadLog,
    memtable: SkipIndex<Vec<u8>>,
    memtable_bytes: u64,
    /// MemTable flush threshold (64 MiB in the paper; scaled in tests).
    flush_bytes: u64,
    /// Compact when this many SSTables accumulate.
    compact_fanin: usize,
    sstables: Vec<SsTable>,
    next_sst: u32,
    stats: KvStats,
}

impl BaselineKv {
    /// Creates a fresh store on `disk` over an FFS-flavoured file system.
    pub fn format(disk: Disk, flush_bytes: u64, vt: &mut Vt) -> Self {
        let mut fs = FileSystem::new(FsKind::Ffs);
        let wal = WriteAheadLog::create(vt, &mut fs, "kv.wal");
        BaselineKv {
            disk,
            fs,
            wal,
            memtable: SkipIndex::new(Vec::new()),
            memtable_bytes: 0,
            flush_bytes,
            compact_fanin: 4,
            sstables: Vec::new(),
            next_sst: 0,
            stats: KvStats::default(),
        }
    }

    /// Simulates a crash at `at` and recovers: SSTable indexes are
    /// rebuilt from durable file contents and the MemTable is replayed
    /// from the WAL.
    pub fn crash_and_recover(&mut self, vt: &mut Vt, at: Nanos) {
        self.disk.crash(at);
        self.fs.discard_cache(&self.disk);

        // Rebuild SSTable indexes from the (durable) files.
        for sst in &mut self.sstables {
            sst.index = read_sst_index(vt, &mut self.fs, &mut self.disk, sst.fd);
        }

        // Replay the WAL into a fresh MemTable.
        self.memtable = SkipIndex::new(Vec::new());
        self.memtable_bytes = 0;
        for record in self.wal.replay(vt, &mut self.disk, &mut self.fs) {
            // A record too short for its key ends the log, as a torn one.
            let mut r = Reader::new(&record.payload);
            let Ok(key) = r.u64() else { break };
            let value = r.rest().to_vec();
            self.memtable_bytes += 8 + value.len() as u64;
            self.memtable.insert(vt, key, value);
        }
    }

    /// The underlying device (IO statistics).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    fn log_one(&mut self, vt: &mut Vt, key: u64, value: &[u8]) {
        vt.charge(Category::Log, SERIALIZE_RECORD);
        let mut record = Vec::with_capacity(8 + value.len());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(value);
        self.wal.append(vt, &mut self.disk, &mut self.fs, &record);
    }

    fn insert_memtable(&mut self, vt: &mut Vt, key: u64, value: &[u8]) {
        self.memtable_bytes += 8 + value.len() as u64;
        self.memtable.insert(vt, key, value.to_vec());
    }

    fn maybe_flush(&mut self, vt: &mut Vt) {
        if self.memtable_bytes < self.flush_bytes {
            return;
        }
        // Serialize the MemTable, sorted, into a new SSTable file.
        let name = format!("sst-{:06}", self.next_sst);
        self.next_sst += 1;
        let fd = self.fs.create(vt, &name);
        let entries: Vec<(u64, Vec<u8>)> = self
            .memtable
            .iter_from(vt, 0)
            .map(|(k, v)| (k, v.clone()))
            .collect();
        vt.charge(Category::TxDisk, SERIALIZE_RECORD * entries.len() as u64);
        write_sst(vt, &mut self.fs, &mut self.disk, fd, &entries);
        let index = build_index(&entries);
        self.sstables.push(SsTable { fd, index });

        self.memtable = SkipIndex::new(Vec::new());
        self.memtable_bytes = 0;
        self.wal.reset(vt, &mut self.fs);
        self.stats.flushes += 1;

        if self.sstables.len() >= self.compact_fanin {
            self.compact(vt);
        }
    }

    /// Merges all SSTables into one (single-level compaction), newest
    /// version of each key winning.
    fn compact(&mut self, vt: &mut Vt) {
        let mut merged: std::collections::BTreeMap<u64, Vec<u8>> =
            std::collections::BTreeMap::new();
        let tables = std::mem::take(&mut self.sstables);
        for sst in &tables {
            // Newest tables are later in the vec, so later inserts win.
            for &(key, offset, vlen) in &sst.index {
                let mut value = vec![0u8; vlen as usize];
                self.fs.read(vt, &mut self.disk, sst.fd, offset, &mut value);
                merged.insert(key, value);
            }
        }
        let name = format!("sst-{:06}", self.next_sst);
        self.next_sst += 1;
        let fd = self.fs.create(vt, &name);
        let entries: Vec<(u64, Vec<u8>)> = merged.into_iter().collect();
        vt.charge(Category::TxDisk, SERIALIZE_RECORD * entries.len() as u64);
        write_sst(vt, &mut self.fs, &mut self.disk, fd, &entries);
        let index = build_index(&entries);
        self.sstables = vec![SsTable { fd, index }];
        self.stats.compactions += 1;
    }
}

fn build_index(entries: &[(u64, Vec<u8>)]) -> Vec<(u64, u64, u16)> {
    let mut index = Vec::with_capacity(entries.len());
    let mut offset = 8u64; // count header
    for (key, value) in entries {
        index.push((*key, offset + 10, value.len() as u16));
        offset += 10 + value.len() as u64;
    }
    index
}

fn write_sst(
    vt: &mut Vt,
    fs: &mut FileSystem,
    disk: &mut Disk,
    fd: Fd,
    entries: &[(u64, Vec<u8>)],
) {
    let mut image = Vec::with_capacity(entries.len() * 120 + 8);
    image.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (key, value) in entries {
        image.extend_from_slice(&key.to_le_bytes());
        image.extend_from_slice(&(value.len() as u16).to_le_bytes());
        image.extend_from_slice(value);
    }
    let mut offset = 0u64;
    for chunk in image.chunks(CHUNK) {
        vt.charge(Category::IoGeneration, IO_GEN_CHUNK);
        fs.write(vt, disk, fd, offset, chunk);
        offset += chunk.len() as u64;
    }
    fs.fsync(vt, disk, fd);
}

fn read_sst_index(
    vt: &mut Vt,
    fs: &mut FileSystem,
    disk: &mut Disk,
    fd: Fd,
) -> Vec<(u64, u64, u16)> {
    let mut header = [0u8; 8];
    fs.read(vt, disk, fd, 0, &mut header);
    let count = u64::from_le_bytes(header);
    let mut index = Vec::with_capacity(count as usize);
    let mut offset = 8u64;
    for _ in 0..count {
        let mut entry_header = [0u8; 10];
        fs.read(vt, disk, fd, offset, &mut entry_header);
        let mut r = Reader::new(&entry_header);
        let (Ok(key), Ok(vlen)) = (r.u64(), r.u16()) else {
            break;
        };
        index.push((key, offset + 10, vlen));
        offset += 10 + vlen as u64;
    }
    index
}

impl Kv for BaselineKv {
    fn put(&mut self, vt: &mut Vt, key: u64, value: &[u8]) -> Result<(), crate::KvError> {
        self.log_one(vt, key, value);
        self.wal.sync(vt, &mut self.disk, &mut self.fs);
        self.insert_memtable(vt, key, value);
        self.stats.commits += 1;
        self.maybe_flush(vt);
        Ok(())
    }

    fn multi_put(&mut self, vt: &mut Vt, pairs: &[(u64, Vec<u8>)]) -> Result<(), crate::KvError> {
        for (key, value) in pairs {
            self.log_one(vt, *key, value);
        }
        self.wal.sync(vt, &mut self.disk, &mut self.fs);
        for (key, value) in pairs {
            self.insert_memtable(vt, *key, value);
        }
        self.stats.commits += 1;
        self.maybe_flush(vt);
        Ok(())
    }

    fn get(&mut self, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        if let Some(v) = self.memtable.find(vt, key) {
            return Some(v.clone());
        }
        for sst in self.sstables.iter().rev() {
            vt.charge(Category::OtherUserspace, Nanos::from_ns(250)); // index probe
            if let Some((offset, vlen)) = sst.find(key) {
                let mut value = vec![0u8; vlen as usize];
                let fd = sst.fd;
                self.fs.read(vt, &mut self.disk, fd, offset, &mut value);
                return Some(value);
            }
        }
        None
    }

    fn seek(&mut self, vt: &mut Vt, key: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        // Merge the MemTable with every SSTable (newest wins).
        let mut merged: std::collections::BTreeMap<u64, Vec<u8>> =
            std::collections::BTreeMap::new();
        for sst_i in 0..self.sstables.len() {
            let probes: Vec<(u64, u64, u16)> = {
                let sst = &self.sstables[sst_i];
                let start = sst.index.partition_point(|&(k, _, _)| k < key);
                sst.index[start..start + limit.min(sst.index.len() - start)].to_vec()
            };
            let fd = self.sstables[sst_i].fd;
            for (k, offset, vlen) in probes {
                let mut value = vec![0u8; vlen as usize];
                self.fs.read(vt, &mut self.disk, fd, offset, &mut value);
                merged.insert(k, value);
            }
        }
        for (k, v) in self.memtable.iter_from(vt, key).take(limit) {
            merged.insert(k, v.clone());
        }
        merged.into_iter().take(limit).collect()
    }

    fn len(&self) -> usize {
        // Approximate: keys shadowed between levels double-count until
        // the next compaction.
        self.memtable.len() + self.sstables.iter().map(|s| s.index.len()).sum::<usize>()
    }

    fn stats(&self) -> KvStats {
        self.stats
    }

    fn meters(&self) -> Meters {
        self.fs.meters().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn fresh(flush_bytes: u64) -> (BaselineKv, Vt) {
        let mut vt = Vt::new(0);
        let kv = BaselineKv::format(Disk::new(DiskConfig::paper()), flush_bytes, &mut vt);
        (kv, vt)
    }

    #[test]
    fn put_get_round_trip() {
        let (mut kv, mut vt) = fresh(1 << 20);
        kv.put(&mut vt, 5, b"five").unwrap();
        kv.put(&mut vt, 3, b"three").unwrap();
        assert_eq!(kv.get(&mut vt, 5), Some(b"five".to_vec()));
        assert_eq!(kv.get(&mut vt, 3), Some(b"three".to_vec()));
        assert_eq!(kv.get(&mut vt, 4), None);
    }

    #[test]
    fn flush_moves_memtable_to_sstable() {
        let (mut kv, mut vt) = fresh(2_000);
        for k in 0..40u64 {
            kv.put(&mut vt, k, &[7u8; 100]).unwrap();
        }
        assert!(kv.stats().flushes >= 1);
        // Keys written before the flush are served from SSTables.
        assert_eq!(kv.get(&mut vt, 0), Some(vec![7u8; 100]));
        assert_eq!(kv.get(&mut vt, 39), Some(vec![7u8; 100]));
    }

    #[test]
    fn compaction_merges_tables() {
        let (mut kv, mut vt) = fresh(1_000);
        for k in 0..400u64 {
            kv.put(&mut vt, k % 50, &k.to_le_bytes()).unwrap(); // rewrites
        }
        assert!(kv.stats().compactions >= 1);
        // Latest version wins after compaction.
        for k in 0..50u64 {
            let got = kv.get(&mut vt, k).unwrap();
            let version = u64::from_le_bytes(got.try_into().unwrap());
            assert_eq!(version % 50, k);
            assert!(version >= 150, "key {k} has stale version {version}");
        }
    }

    #[test]
    fn crash_recovers_wal_and_sstables() {
        let (mut kv, mut vt) = fresh(2_000);
        for k in 0..30u64 {
            kv.put(&mut vt, k, &k.to_le_bytes()).unwrap();
        }
        let now = vt.now();
        kv.crash_and_recover(&mut vt, now);
        for k in 0..30u64 {
            assert_eq!(
                kv.get(&mut vt, k),
                Some(k.to_le_bytes().to_vec()),
                "key {k} lost"
            );
        }
    }

    #[test]
    fn unsynced_put_lost_on_crash() {
        let (mut kv, mut vt) = fresh(1 << 20);
        kv.put(&mut vt, 1, b"durable").unwrap();
        let after_first = vt.now();
        kv.put(&mut vt, 2, b"later").unwrap();
        kv.crash_and_recover(&mut vt, after_first);
        assert_eq!(kv.get(&mut vt, 1), Some(b"durable".to_vec()));
        assert_eq!(kv.get(&mut vt, 2), None);
    }

    #[test]
    fn seek_merges_memtable_and_sstables() {
        let (mut kv, mut vt) = fresh(1_500);
        for k in (0..60u64).step_by(2) {
            kv.put(&mut vt, k, b"even").unwrap();
        }
        // Some of these are in SSTables now; add odd keys to the
        // memtable.
        for k in (1..20u64).step_by(2) {
            kv.put(&mut vt, k, b"odd").unwrap();
        }
        let got = kv.seek(&mut vt, 5, 6);
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn wal_fsync_dominates_put_latency() {
        let (mut kv, mut vt) = fresh(1 << 30);
        let t0 = vt.now();
        kv.put(&mut vt, 1, &[0u8; 100]).unwrap();
        let lat = (vt.now() - t0).as_us_f64();
        // One record + fsync: ~70-90 us on the FFS model (vs ~35 us for
        // the MemSnap variant's single-page μCheckpoint... plus its pred).
        assert!(lat > 50.0 && lat < 200.0, "put latency {lat:.1} us");
    }
}
