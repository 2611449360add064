//! Host-side measurements: what the simulator costs to run.
//!
//! The clock is **user-mode CPU time** of this process (`utime` in
//! `/proc/self/stat`), not wall time and not user+sys: the in-memory
//! device allocates hundreds of MB, and the kernel's page zeroing for
//! it lands in sys time and varies severalfold from run to run, while
//! user time repeats within a few percent. The benchmark is one OS
//! thread, so process time is that thread's time.

use std::fs;

/// `USER_HZ`: the unit of `utime`. Fixed at 100 by the Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// Slices a measured window is cut into for [`SliceClock`].
pub const SLICES: u64 = 16;

/// User-mode CPU seconds consumed by this process so far.
pub fn user_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("Linux procfs");
    parse_utime_ticks(&stat).expect("utime field") as f64 / TICKS_PER_S
}

/// Field 14 of `/proc/<pid>/stat`. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_utime_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_ascii_whitespace().nth(11)?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("Linux procfs");
    parse_vm_hwm_kb(&status).expect("VmHWM line") as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cuts a measured window into [`SLICES`] slices of equal work and
/// reads the CPU clock at each boundary. The reported speed is the
/// **median** slice's, so interference in a few slices does not move
/// it. Work is counted in `units` (operations, or rounds where the
/// operation count is not known in advance); speed is in operations.
#[derive(Debug)]
pub struct SliceClock {
    per_slice: u64,
    next_mark: u64,
    /// (CPU clock, operations done) at the start and at each boundary.
    marks: Vec<(f64, u64)>,
}

impl SliceClock {
    pub fn start(total_units: u64) -> SliceClock {
        let per_slice = (total_units / SLICES).max(1);
        SliceClock {
            per_slice,
            next_mark: per_slice,
            marks: vec![(user_cpu_s(), 0)],
        }
    }

    /// Call with the running counts of completed units and operations.
    pub fn progress(&mut self, units_done: u64, ops_done: u64) {
        while units_done >= self.next_mark && (self.marks.len() as u64) <= SLICES {
            self.marks.push((user_cpu_s(), ops_done));
            self.next_mark += self.per_slice;
        }
    }

    /// User CPU seconds from start to the last completed slice.
    pub fn cpu_s(&self) -> f64 {
        self.marks.last().expect("start mark").0 - self.marks[0].0
    }

    /// 10³ operations per user-CPU second, median over the slices.
    pub fn kops_per_cpu_s(&self) -> f64 {
        median_slice_rate(&self.marks) / 1e3
    }
}

/// Median over slices of operations per CPU second. A slice shorter
/// than one clock tick reads as zero time; it is skipped (windows are
/// sized so slices span tens of ticks, so this is rare).
fn median_slice_rate(marks: &[(f64, u64)]) -> f64 {
    let rates: Vec<f64> = marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
        .collect();
    if rates.is_empty() {
        return 0.0;
    }
    crate::stats::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utime_survives_a_hostile_command_name() {
        let stat = "42 (a b) c)) R 1 2 3 4 5 6 7 8 9 10 1234 56 0 0 20 0 1 0";
        assert_eq!(parse_utime_ticks(stat), Some(1234));
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
    }

    #[test]
    fn slice_median_ignores_an_outlier_slice() {
        // Four slices of 1000 ops: three take 1 s, one takes 10 s.
        let marks = [
            (0.0, 0),
            (1.0, 1000),
            (2.0, 2000),
            (12.0, 3000),
            (13.0, 4000),
        ];
        assert_eq!(median_slice_rate(&marks), 1000.0);
        // A zero-length slice (below clock resolution) is skipped.
        let marks = [(0.0, 0), (0.0, 1000), (1.0, 2000), (2.0, 3000)];
        assert_eq!(median_slice_rate(&marks), 1000.0);
        assert_eq!(median_slice_rate(&[(5.0, 0)]), 0.0);
    }

    #[test]
    fn slice_clock_marks_once_per_boundary() {
        let mut c = SliceClock::start(SLICES * 10);
        for done in 1..=SLICES * 10 + 7 {
            c.progress(done, done * 2);
        }
        assert_eq!(c.marks.len() as u64, SLICES + 1);
        assert!(c.cpu_s() >= 0.0);
    }

    #[test]
    fn live_procfs_reads_work() {
        assert!(user_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
