//! What a workload hands back: counts for the oracle verdict, and
//! named values for the metric catalog (`metrics.rs`).

use std::collections::BTreeMap;

use crate::host::SliceClock;
use crate::stats::Samples;

#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the benchmark attempted in the measured window.
    pub attempted: u64,
    /// Attempted operations that failed, were refused, timed out or
    /// came back with an answer the oracle rejects.
    pub failed: u64,
    /// Acknowledged writes that verification could not read back, plus
    /// corruptions the store's scrub reported. Any of these is a
    /// durability failure: the run exits non-zero.
    pub lost: u64,
    /// End-to-end metric name → (value, samples behind it).
    pub e2e: BTreeMap<&'static str, (f64, u64)>,
    /// Per-layer metric name → value.
    pub layer: BTreeMap<&'static str, f64>,
}

/// `put_tail_us` averages the slowest this share of the durable
/// writes. Probes across ten seeds: the slowest 1 % (and p99) spread
/// 8 to 9 % on `repl-wan`, where the tail is commits that lost several
/// datagrams in a row; the slowest 5 % spread 2 %, so a bound can be
/// tight enough to mean something.
const TAIL_SHARE: f64 = 0.05;

/// Times a run sets up: `setup_s` is the median, so one slow
/// allocation burst does not move it. (Set-up is where the in-memory
/// device is first touched; the kernel's share of that is large and
/// the 10 ms CPU clock splits it from user time by sampling, so single
/// set-ups of half a second read ±15 %.)
const SETUP_REPS: usize = 5;

impl Outcome {
    /// Builds the workload's warm state [`SETUP_REPS`] times (same
    /// seed, so identical states), keeps the last, and reports the
    /// median user-CPU cost as `setup_s`. Each state is dropped before
    /// the next is built, so peak memory is one state's.
    pub fn setup<S>(&mut self, mut build: impl FnMut() -> S) -> S {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut state = None;
        for _ in 0..SETUP_REPS {
            drop(state.take());
            let t0 = crate::host::user_cpu_s();
            state = Some(build());
            times.push(crate::host::user_cpu_s() - t0);
        }
        self.e2e("setup_s", crate::stats::median(&times), SETUP_REPS as u64);
        state.expect("SETUP_REPS > 0")
    }

    /// The latency metrics every workload reports the same way: `put`
    /// are the durable writes; `reads` the point reads and the range
    /// reads of the mix, `None` for a write-only workload.
    pub fn latencies(&mut self, put: &mut Samples, reads: Option<(&mut Samples, &Samples)>) {
        let n = put.len() as u64;
        self.e2e("put_mean_us", put.mean_us(), n);
        self.e2e("put_tail_us", put.tail_mean_us(TAIL_SHARE), n);
        self.layer("bench.put_p50_us", put.percentile_us(50.0));
        self.layer("bench.put_p99_us", put.percentile_us(99.0));
        let (mut sum, mut ops) = (put.sum_ns(), n);
        if let Some((get, scan)) = reads {
            self.layer("bench.get_p50_us", get.percentile_us(50.0));
            self.layer("bench.get_p99_us", get.percentile_us(99.0));
            sum += get.sum_ns() + scan.sum_ns();
            ops += (get.len() + scan.len()) as u64;
        }
        self.e2e("op_mean_us", sum / ops as f64 / 1e3, ops);
    }

    /// What the measured window cost the host.
    pub fn host(&mut self, clock: &SliceClock) {
        self.layer("bench.host_kops_per_cpu_s", clock.kops_per_cpu_s());
        self.layer("bench.host_cpu_s", clock.cpu_s());
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, samples: u64) {
        let old = self.e2e.insert(name, (value, samples));
        assert!(old.is_none(), "{name} reported twice");
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        let old = self.layer.insert(name, value);
        assert!(old.is_none(), "{name} reported twice");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.lost == 0
    }
}
