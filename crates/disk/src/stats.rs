//! Device IO statistics.

use msnap_sim::{LatencyStats, Nanos};

use crate::BLOCK_SIZE;

/// Counters and latency histograms for a simulated device.
///
/// The PostgreSQL experiment (Fig. 6) reports disk write throughput and
/// IOs per second alongside transactions per second; these statistics are
/// the source for those series.
#[derive(Debug, Default, Clone)]
pub struct IoStats {
    reads: u64,
    read_submissions: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    write_latency: LatencyStats,
    read_latency: LatencyStats,
    depth_samples: u64,
    depth_sum: u64,
    max_depth: u64,
    merged_submissions: u64,
    merged_parts: u64,
}

impl IoStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_write(&mut self, bytes: usize, latency: Nanos) {
        self.writes += 1;
        self.bytes_written += bytes as u64;
        self.write_latency.record(latency);
    }

    /// One read submission of `bytes` (whole blocks) completing after
    /// `latency`.
    pub(crate) fn record_read(&mut self, bytes: usize, latency: Nanos) {
        self.reads += (bytes / BLOCK_SIZE) as u64;
        self.read_submissions += 1;
        self.bytes_read += bytes as u64;
        self.read_latency.record(latency);
    }

    pub(crate) fn record_depth(&mut self, depth: u64) {
        self.depth_samples += 1;
        self.depth_sum += depth;
        self.max_depth = self.max_depth.max(depth);
    }

    pub(crate) fn record_merged(&mut self, parts: u64) {
        self.merged_submissions += 1;
        self.merged_parts += parts;
    }

    /// Number of blocks read: a vectored read of `n` blocks counts `n`,
    /// so blocks-read-per-page ratios keep their meaning whatever the
    /// queue depth. Submissions are at [`IoStats::read_submissions`].
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of read submissions (one per vectored read, however many
    /// blocks it carries) — the read-side counterpart of
    /// [`IoStats::merged_submissions`]. `reads() / read_submissions()` is
    /// the mean read queue depth in blocks.
    pub fn read_submissions(&self) -> u64 {
        self.read_submissions
    }

    /// Number of write IOs.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// End-to-end latency distribution of write IOs.
    pub fn write_latency(&self) -> &LatencyStats {
        &self.write_latency
    }

    /// End-to-end latency distribution of read submissions: one sample
    /// per submission, submit to last block.
    pub fn read_latency(&self) -> &LatencyStats {
        &self.read_latency
    }

    /// Mean write-queue occupancy sampled at each submission (the
    /// submission itself included), i.e. the device's average inflight
    /// depth as seen by arriving writes.
    pub fn avg_queue_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Peak write-queue occupancy observed at any submission.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_depth
    }

    /// Submissions that carried more than one logical commit (group
    /// commit), as reported by the store via [`crate::Disk::note_merged`].
    pub fn merged_submissions(&self) -> u64 {
        self.merged_submissions
    }

    /// Logical commits carried by merged submissions in total.
    pub fn merged_parts(&self) -> u64 {
        self.merged_parts
    }

    /// Average device write throughput over `elapsed`, in MiB/s.
    pub fn write_mib_per_sec(&self, elapsed: Nanos) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes_written as f64 / (1024.0 * 1024.0) / secs
        }
    }

    /// Average IOs per second (read + write submissions) over `elapsed`.
    pub fn iops(&self, elapsed: Nanos) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.read_submissions + self.writes) as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = IoStats::new();
        s.record_write(4096, Nanos::from_us(17));
        s.record_write(8192, Nanos::from_us(18));
        s.record_read(4096, Nanos::from_us(17));
        assert_eq!(s.writes(), 2);
        assert_eq!(s.reads(), 1);
        s.record_read(4 * 4096, Nanos::from_us(23));
        assert_eq!(s.reads(), 5, "reads count blocks");
        assert_eq!(s.read_submissions(), 2);
        assert_eq!(s.read_latency().count(), 2, "one sample per submission");
        assert_eq!(s.bytes_written(), 12288);
        assert_eq!(s.bytes_read(), 5 * 4096);
        assert_eq!(s.write_latency().count(), 2);
    }

    #[test]
    fn queue_depth_and_merge_counters() {
        let mut s = IoStats::new();
        assert_eq!(s.avg_queue_depth(), 0.0);
        s.record_depth(1);
        s.record_depth(3);
        assert!((s.avg_queue_depth() - 2.0).abs() < 1e-9);
        assert_eq!(s.max_queue_depth(), 3);
        s.record_merged(8);
        s.record_merged(2);
        assert_eq!(s.merged_submissions(), 2);
        assert_eq!(s.merged_parts(), 10);
    }

    #[test]
    fn throughput_derivations() {
        let mut s = IoStats::new();
        s.record_write(1024 * 1024, Nanos::from_us(250));
        let mib = s.write_mib_per_sec(Nanos::from_secs(2));
        assert!((mib - 0.5).abs() < 1e-9);
        assert!((s.iops(Nanos::from_secs(2)) - 0.5).abs() < 1e-9);
        assert_eq!(s.iops(Nanos::ZERO), 0.0);
    }
}
