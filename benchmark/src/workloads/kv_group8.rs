//! `kv-group8`: eight writers through the group-commit coalescer.
//!
//! `PIndexKv` (the lock-free persistent skiplist), write-only: every
//! round each of 8 writers hands `multi_put_concurrent` a batch of 32
//! puts of 16-byte values. Half of a batch goes to a 64-key hot range
//! all writers share (Zipf 0.99, so they collide), half to the
//! writer's private 4 096-key tail. Closed loop; before each batch a
//! writer thinks for an exponential 50 µs (mean), which keeps the
//! writers' phases mixing. Every tail key exists before the window
//! opens, so the index keeps one size throughout.
//!
//! It drives the same core/store commit layers as `kv-mixgraph` but
//! differently — grouped instead of synchronous, contended instead of
//! read-mostly — and it is where pindex does most of the work.

use std::collections::BTreeMap;

use crate::gen::{Rng, Zipf};
use crate::host::SliceClock;
use crate::layers::{self, Counters, DiskLatency, GroupKv, Kv, Nanos, Vt, C};
use crate::report::Outcome;
use crate::stats::{ratio, Samples};
use crate::trace;

use super::lower_layers;

const WRITERS: usize = 8;
const BATCH: usize = 32;
const HOT_KEYS: usize = 64;
const HOT_THETA: f64 = 0.99;
const HOT_SHARE: f64 = 0.5;
const TAIL_KEYS: u64 = 4_096;
const TAIL_BASE: u64 = 1_000_000;
const ARENA_PAGES: u64 = 2_048;
const WARMUP_ROUNDS: u64 = 50;
const KEY_VALUE_BYTES: u64 = 8 + 16;
/// Mean of each writer's exponential think time before a batch.
const THINK_MEAN_NS: f64 = 50_000.0;

/// The oracle: for every key, the values its last round of writers
/// left behind. One writer → one value. Several writers in one round
/// race inside the index, so any of their (last) writes may stand —
/// until a read observes which, after which it must stay that one.
type Model = BTreeMap<u64, Vec<Vec<u8>>>;

struct State {
    kv: GroupKv,
    writers: Vec<Vt>,
    reader: Vt,
    rng: Rng,
    hot: Zipf,
    model: Model,
    round: u32,
}

#[derive(Default)]
struct Tally {
    batch: Samples,
    wrong: u64,
}

fn setup(seed: u64) -> State {
    let mut vt = Vt::new(1_000);
    let kv = layers::format_group_kv(ARENA_PAGES, WRITERS as u32, &mut vt);
    let mut writers: Vec<Vt> = (0..WRITERS as u32).map(Vt::new).collect();
    for w in &mut writers {
        w.wait_until(vt.now());
    }
    let mut state = State {
        kv,
        writers,
        reader: Vt::new(1_001),
        rng: Rng::new(seed),
        hot: Zipf::new(HOT_KEYS, HOT_THETA),
        model: Model::new(),
        round: 0,
    };
    // Every tail key is inserted before anything is measured, so the
    // index has its full size throughout the window (probes without
    // this showed throughput still falling a quarter across it).
    let mut warm = Tally::default();
    for fill in 0..TAIL_KEYS / BATCH as u64 {
        state.run_round(&mut warm, Some(fill));
    }
    for _ in 0..WARMUP_ROUNDS {
        state.run_round(&mut warm, None);
    }
    assert_eq!(warm.wrong, 0, "oracle mismatch during warm-up");
    state
}

impl State {
    fn frontier(&self) -> Nanos {
        self.writers.iter().map(Vt::now).max().expect("writers")
    }

    /// One batch per writer through the coalescer, then one read-back
    /// per writer checked against the oracle. A `fill` round writes
    /// the writer's tail keys `fill * BATCH ..` in order instead of the
    /// random mix.
    fn run_round(&mut self, tally: &mut Tally, fill: Option<u64>) {
        self.round += 1;
        let root = trace::begin("bench.round", self.frontier().as_ns());
        let batches: Vec<Vec<(u64, Vec<u8>)>> = (0..WRITERS)
            .map(|w| {
                (0..BATCH)
                    .map(|i| {
                        let tail = TAIL_BASE * (w as u64 + 1);
                        let key = match fill {
                            Some(f) => tail + f * BATCH as u64 + i as u64,
                            None if self.rng.f64() < HOT_SHARE => {
                                self.hot.sample(&mut self.rng) as u64
                            }
                            None => tail + self.rng.below(TAIL_KEYS),
                        };
                        let mut value = vec![0u8; 16];
                        value[0..4].copy_from_slice(&(w as u32).to_le_bytes());
                        value[4..8].copy_from_slice(&self.round.to_le_bytes());
                        value[8..12].copy_from_slice(&(i as u32).to_le_bytes());
                        value[12..16].copy_from_slice(&(key as u32).to_le_bytes());
                        (key, value)
                    })
                    .collect()
            })
            .collect();
        // Writers that restart the instant they commit lock into a
        // phase pattern that differs from seed to seed (probes: 1.6 to
        // 3.5 batches per group commit, ±20 % on throughput). A little
        // think time keeps the phases mixing, so one run averages over
        // the patterns instead of sampling one.
        for vt in &mut self.writers {
            vt.advance(Nanos::from_ns(self.rng.exp(THINK_MEAN_NS) as u64));
        }
        let starts: Vec<Nanos> = self.writers.iter().map(Vt::now).collect();
        self.kv.multi_put_concurrent(&mut self.writers, &batches);
        for (vt, start) in self.writers.iter().zip(starts) {
            tally.batch.push((vt.now() - start).as_ns());
        }

        // Model: within a writer the last write to a key wins; across
        // writers of one round, any may.
        let mut touched: Model = Model::new();
        for batch in &batches {
            let mut last: BTreeMap<u64, &Vec<u8>> = BTreeMap::new();
            for (key, value) in batch {
                last.insert(*key, value);
            }
            for (key, value) in last {
                touched.entry(key).or_default().push(value.clone());
            }
        }
        self.model.extend(touched);

        // Reads compared on the fly: the last key of each batch.
        let frontier = self.frontier();
        self.reader.wait_until(frontier);
        for batch in &batches {
            let key = batch[BATCH - 1].0;
            let got = self.kv.get(&mut self.reader, key);
            tally.wrong += u64::from(!observe(&mut self.model, key, got));
        }
        trace::end(root, self.frontier().as_ns());
    }
}

/// Checks a read against the model and pins the key to what was read.
fn observe(model: &mut Model, key: u64, got: Option<Vec<u8>>) -> bool {
    let (Some(candidates), Some(got)) = (model.get_mut(&key), got) else {
        return false;
    };
    if !candidates.contains(&got) {
        return false;
    }
    *candidates = vec![got];
    true
}

/// Measured rounds per second of `--seconds` (≈ 5.5 ms of host CPU a
/// round of 256 puts at the defining commit).
const ROUNDS_PER_SECOND: u64 = 140;

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let rounds = ROUNDS_PER_SECOND * seconds;
    let mut out = Outcome::default();
    let mut state = out.setup(|| setup(seed));

    state.kv.reset_disk_stats();
    trace::clear();
    let before = Counters::of(state.kv.memsnap());
    let start = state.frontier();
    let mut tally = Tally::default();
    let mut clock = SliceClock::start(rounds);
    let puts_per_round = (WRITERS * BATCH) as u64;
    let mut mid = start;
    for r in 0..rounds {
        state.run_round(&mut tally, None);
        clock.progress(r + 1, (r + 1) * puts_per_round);
        if r + 1 == rounds / 2 {
            mid = state.frontier();
        }
    }
    let end = state.frontier();
    let after = Counters::of(state.kv.memsnap());

    // Full verification after the drain.
    let keys: Vec<u64> = state.model.keys().copied().collect();
    for key in keys {
        let got = state.kv.get(&mut state.reader, key);
        out.lost += u64::from(!observe(&mut state.model, key, got));
    }

    let puts = rounds * puts_per_round;
    out.attempted = puts;
    out.failed = tally.wrong;
    // A "put" here is one writer's whole batch through the coalescer;
    // the read-backs are the oracle's, not part of the write-only mix.
    out.latencies(&mut tally.batch, None);
    out.e2e(
        "vt_kops",
        puts as f64 / (end - start).as_secs_f64() / 1e3,
        puts,
    );
    let write_amp = ratio(
        after.since(&before).get(C::DiskBytesWritten),
        (puts * KEY_VALUE_BYTES) as f64,
    );
    out.e2e("io_amp", write_amp, puts);
    out.layer("disk.write_amp", write_amp);
    out.host(&clock);

    let commits = after.since(&before).get(C::Commits);
    out.layer(
        "core.group_size_mean",
        ratio((rounds * WRITERS as u64) as f64, commits),
    );
    out.layer("store.group_commits", commits);
    lower_layers(
        &mut out,
        &after.since(&before),
        DiskLatency::of(state.kv.memsnap()),
        rounds * WRITERS as u64,
    );
    out.layer("pindex.batch_us_p50", tally.batch.percentile_us(50.0));
    out.layer("pindex.batch_us_p99", tally.batch.percentile_us(99.0));
    out.layer(
        "pindex.batch_host_us_p50",
        trace::durations("pindex.multi_put_concurrent")
            .1
            .percentile_us(50.0)
            / WRITERS as f64,
    );
    out.layer("pindex.live_keys", state.kv.len() as f64);
    let rate = |from: Nanos, to: Nanos| 1.0 / (to - from).as_secs_f64();
    out.layer(
        "bench.steady_drift_pct",
        (rate(mid, end) / rate(start, mid) - 1.0) * 100.0,
    );
    out
}
