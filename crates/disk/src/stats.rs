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
    idle_latency: LatencyStats,
    depth_samples: u64,
    depth_sum: u64,
    max_depth: u64,
    merged_submissions: u64,
    merged_parts: u64,
    idle_bytes_read: u64,
    idle_bytes_written: u64,
    /// Channel-busy time, foreground and idle class.
    busy: [Nanos; 2],
}

impl IoStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// One write submission of `bytes`.
    pub(crate) fn record_write(&mut self, bytes: usize, idle: bool) {
        self.writes += 1;
        self.bytes_written += bytes as u64;
        self.idle_bytes_written += if idle { bytes as u64 } else { 0 };
    }

    /// A foreground write submission landed `latency` after it was
    /// submitted.
    pub(crate) fn record_write_latency(&mut self, latency: Nanos) {
        self.write_latency.record(latency);
    }

    /// One read submission of `bytes` (whole blocks).
    pub(crate) fn record_read(&mut self, bytes: usize, idle: bool) {
        self.reads += (bytes / BLOCK_SIZE) as u64;
        self.read_submissions += 1;
        self.bytes_read += bytes as u64;
        self.idle_bytes_read += if idle { bytes as u64 } else { 0 };
    }

    /// A foreground read submission landed `latency` after it was
    /// submitted.
    pub(crate) fn record_read_latency(&mut self, latency: Nanos) {
        self.read_latency.record(latency);
    }

    /// An idle-class IO, read or write, landed `latency` after it was
    /// submitted: its waits for gaps included.
    pub(crate) fn record_idle_latency(&mut self, latency: Nanos) {
        self.idle_latency.record(latency);
    }

    /// One segment held a channel for `hold`.
    pub(crate) fn record_busy(&mut self, hold: Nanos, idle: bool) {
        self.busy[usize::from(idle)] += hold;
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

    /// Of [`IoStats::bytes_read`] and [`IoStats::bytes_written`], those
    /// of the idle class: the maintenance IO no acknowledgement waits for.
    pub fn idle_bytes(&self) -> (u64, u64) {
        (self.idle_bytes_read, self.idle_bytes_written)
    }

    /// Channel-busy time summed over the channels: foreground, idle class.
    pub fn channel_busy(&self) -> (Nanos, Nanos) {
        (self.busy[0], self.busy[1])
    }

    /// End-to-end latency distribution of foreground write submissions,
    /// one sample each. Idle-class writes are in
    /// [`IoStats::idle_latency`].
    pub fn write_latency(&self) -> &LatencyStats {
        &self.write_latency
    }

    /// End-to-end latency distribution of foreground read submissions:
    /// one sample per submission, submit to last block. Idle-class reads
    /// are in [`IoStats::idle_latency`].
    pub fn read_latency(&self) -> &LatencyStats {
        &self.read_latency
    }

    /// End-to-end latency distribution of idle-class IO, reads and writes:
    /// one sample per submission, from submission until its last segment
    /// lands, so it holds the waits for foreground IO to leave a gap.
    pub fn idle_latency(&self) -> &LatencyStats {
        &self.idle_latency
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
        s.record_write(4096, false);
        s.record_write_latency(Nanos::from_us(17));
        s.record_write(8192, true);
        s.record_write_latency(Nanos::from_us(18));
        s.record_read(4096, false);
        s.record_read_latency(Nanos::from_us(17));
        assert_eq!(s.writes(), 2);
        assert_eq!(s.reads(), 1);
        s.record_read(4 * 4096, true);
        s.record_read_latency(Nanos::from_us(23));
        assert_eq!(s.idle_bytes(), (4 * 4096, 8192), "idle bytes apart");
        assert_eq!(s.reads(), 5, "reads count blocks");
        assert_eq!(s.read_submissions(), 2);
        assert_eq!(s.read_latency().count(), 2, "one sample per submission");
        assert_eq!(s.bytes_written(), 12288);
        assert_eq!(s.bytes_read(), 5 * 4096);
        assert_eq!(s.write_latency().count(), 2);
    }

    #[test]
    fn idle_latency_is_kept_apart_from_foreground_latency() {
        let mut s = IoStats::new();
        s.record_write_latency(Nanos::from_us(17));
        s.record_read_latency(Nanos::from_us(18));
        s.record_idle_latency(Nanos::from_us(900));
        s.record_idle_latency(Nanos::from_us(1_100));
        assert_eq!(s.write_latency().count(), 1);
        assert_eq!(s.read_latency().count(), 1);
        assert_eq!(s.idle_latency().count(), 2);
        assert_eq!(s.write_latency().max(), Nanos::from_us(17), "no idle wait");
        assert_eq!(s.read_latency().max(), Nanos::from_us(18), "no idle wait");
        assert_eq!(s.idle_latency().max(), Nanos::from_us(1_100));
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
        s.record_write(1024 * 1024, false);
        let mib = s.write_mib_per_sec(Nanos::from_secs(2));
        assert!((mib - 0.5).abs() < 1e-9);
        assert!((s.iops(Nanos::from_secs(2)) - 0.5).abs() < 1e-9);
        assert_eq!(s.iops(Nanos::ZERO), 0.0);
    }
}
