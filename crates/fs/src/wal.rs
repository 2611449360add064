//! The write-ahead log the baseline databases build on the file API.
//!
//! This is the machinery MemSnap renders unnecessary: records are
//! length-prefixed and checksummed, appended to a file, made durable with
//! `fsync`, and replayed after a crash up to the first torn record.

use msnap_disk::Disk;
use msnap_sim::hash::fnv1a;
use msnap_sim::Vt;

use crate::{Fd, FileSystem};

/// One replayed WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record payload.
    pub payload: Vec<u8>,
}

/// A write-ahead log over a [`FileSystem`] file.
///
/// # Example
///
/// ```
/// use msnap_disk::{Disk, DiskConfig};
/// use msnap_fs::{FileSystem, FsKind, WriteAheadLog};
/// use msnap_sim::Vt;
///
/// let mut disk = Disk::new(DiskConfig::paper());
/// let mut fs = FileSystem::new(FsKind::Ffs);
/// let mut vt = Vt::new(0);
/// let mut wal = WriteAheadLog::create(&mut vt, &mut fs, "db.wal");
/// wal.append(&mut vt, &mut disk, &mut fs, b"put k1 v1");
/// wal.sync(&mut vt, &mut disk, &mut fs);
/// let records = wal.replay(&mut vt, &mut disk, &mut fs);
/// assert_eq!(records[0].payload, b"put k1 v1");
/// ```
#[derive(Debug)]
pub struct WriteAheadLog {
    fd: Fd,
    append_offset: u64,
}

impl WriteAheadLog {
    /// Creates (or truncates) the log file `name`.
    pub fn create(vt: &mut Vt, fs: &mut FileSystem, name: &str) -> Self {
        let fd = fs.create(vt, name);
        WriteAheadLog {
            fd,
            append_offset: 0,
        }
    }

    /// Reattaches to an existing log file (after a crash); the append
    /// offset is recovered by [`WriteAheadLog::replay`].
    pub fn attach(fs: &FileSystem, name: &str) -> Option<Self> {
        fs.open(name).map(|fd| WriteAheadLog {
            fd,
            append_offset: 0,
        })
    }

    /// The underlying file descriptor.
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// Bytes appended since the last reset (the trigger for database
    /// checkpoints).
    pub fn len(&self) -> u64 {
        self.append_offset
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.append_offset == 0
    }

    /// Appends one record (buffered; not yet durable).
    pub fn append(&mut self, vt: &mut Vt, disk: &mut Disk, fs: &mut FileSystem, payload: &[u8]) {
        let mut frame = Vec::with_capacity(16 + payload.len());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        fs.write(vt, disk, self.fd, self.append_offset, &frame);
        self.append_offset += frame.len() as u64;
    }

    /// Makes all appended records durable.
    pub fn sync(&mut self, vt: &mut Vt, disk: &mut Disk, fs: &mut FileSystem) {
        fs.fsync(vt, disk, self.fd);
    }

    /// Truncates the log (after its contents were checkpointed into the
    /// primary store).
    pub fn reset(&mut self, vt: &mut Vt, fs: &mut FileSystem) {
        fs.truncate(vt, self.fd, 0);
        self.append_offset = 0;
    }

    /// Replays intact records in order, stopping at the first torn or
    /// absent record; positions the append offset after the last intact
    /// record.
    pub fn replay(&mut self, vt: &mut Vt, disk: &mut Disk, fs: &mut FileSystem) -> Vec<WalRecord> {
        let mut records = Vec::new();
        let mut offset = 0u64;
        let size = fs.size(self.fd);
        loop {
            if offset + 16 > size {
                break;
            }
            let mut header = [0u8; 16];
            fs.read(vt, disk, self.fd, offset, &mut header);
            let len = u64::from_le_bytes(header[0..8].try_into().unwrap());
            let checksum = u64::from_le_bytes(header[8..16].try_into().unwrap());
            if len == 0 || offset + 16 + len > size {
                break;
            }
            let mut payload = vec![0u8; len as usize];
            fs.read(vt, disk, self.fd, offset + 16, &mut payload);
            if fnv1a(&payload) != checksum {
                break; // torn record: the tail is discarded
            }
            records.push(WalRecord { payload });
            offset += 16 + len;
        }
        self.append_offset = offset;
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;
    use msnap_fs::FsKind;

    use crate as msnap_fs;

    fn setup() -> (FileSystem, Disk, Vt) {
        (
            FileSystem::new(FsKind::Ffs),
            Disk::new(DiskConfig::paper()),
            Vt::new(0),
        )
    }

    #[test]
    fn append_sync_replay() {
        let (mut fs, mut disk, mut vt) = setup();
        let mut wal = WriteAheadLog::create(&mut vt, &mut fs, "wal");
        wal.append(&mut vt, &mut disk, &mut fs, b"one");
        wal.append(&mut vt, &mut disk, &mut fs, b"two");
        wal.sync(&mut vt, &mut disk, &mut fs);
        let records = wal.replay(&mut vt, &mut disk, &mut fs);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].payload, b"one");
        assert_eq!(records[1].payload, b"two");
    }

    #[test]
    fn crash_before_sync_loses_tail() {
        let (mut fs, mut disk, mut vt) = setup();
        let mut wal = WriteAheadLog::create(&mut vt, &mut fs, "wal");
        wal.append(&mut vt, &mut disk, &mut fs, b"durable");
        wal.sync(&mut vt, &mut disk, &mut fs);
        wal.append(&mut vt, &mut disk, &mut fs, b"lost");
        disk.crash(vt.now());
        fs.discard_cache(&disk);

        let mut wal = WriteAheadLog::attach(&fs, "wal").unwrap();
        let records = wal.replay(&mut vt, &mut disk, &mut fs);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"durable");
    }

    #[test]
    fn reset_truncates() {
        let (mut fs, mut disk, mut vt) = setup();
        let mut wal = WriteAheadLog::create(&mut vt, &mut fs, "wal");
        wal.append(&mut vt, &mut disk, &mut fs, b"old");
        wal.sync(&mut vt, &mut disk, &mut fs);
        wal.reset(&mut vt, &mut fs);
        assert!(wal.is_empty());
        let records = wal.replay(&mut vt, &mut disk, &mut fs);
        assert!(records.is_empty());
    }

    #[test]
    fn replay_resumes_appending_correctly() {
        let (mut fs, mut disk, mut vt) = setup();
        let mut wal = WriteAheadLog::create(&mut vt, &mut fs, "wal");
        wal.append(&mut vt, &mut disk, &mut fs, b"a");
        wal.sync(&mut vt, &mut disk, &mut fs);

        let mut wal2 = WriteAheadLog::attach(&fs, "wal").unwrap();
        wal2.replay(&mut vt, &mut disk, &mut fs);
        wal2.append(&mut vt, &mut disk, &mut fs, b"b");
        wal2.sync(&mut vt, &mut disk, &mut fs);
        let records = wal2.replay(&mut vt, &mut disk, &mut fs);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].payload, b"b");
    }

    #[test]
    fn corrupted_record_stops_replay() {
        let (mut fs, mut disk, mut vt) = setup();
        let mut wal = WriteAheadLog::create(&mut vt, &mut fs, "wal");
        wal.append(&mut vt, &mut disk, &mut fs, b"good");
        wal.append(&mut vt, &mut disk, &mut fs, b"bad!");
        // Corrupt the second record's payload in place.
        let second_payload_off = (16 + 4) + 16;
        fs.write(&mut vt, &mut disk, wal.fd(), second_payload_off, b"EVIL");
        // (same length, different checksum... actually same content length;
        // the checksum was computed over "bad!").
        wal.sync(&mut vt, &mut disk, &mut fs);
        let records = wal.replay(&mut vt, &mut disk, &mut fs);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"good");
    }
}
