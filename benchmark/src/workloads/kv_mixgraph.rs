//! `kv-mixgraph`: the paper's RocksDB case study, alone.
//!
//! `MemSnapKv` pre-filled with 50 000 keys of 64-byte values; 8 virtual
//! threads on the min-clock scheduler, each running the benchmark's
//! own mix — 80 % get · 17 % put (one synchronous μCheckpoint each) ·
//! 3 % seek of up to 16 entries — over Zipf 0.99 keys. Closed loop, no
//! think time, no network, no replicas: skipdb, core, vm, the store's
//! commit path and the disk do all the work, and serve, repl and snap
//! do none. It is the bypass workload for every optimisation above the
//! store.

use std::cell::RefCell;
use std::rc::Rc;

use crate::gen::{scatter, Rng, Zipf};
use crate::host::SliceClock;
use crate::layers::{self, Counters, DiskLatency, Kv, MixKv, Nanos, Scheduler, StepOutcome, Vt, C};
use crate::report::Outcome;
use crate::stats::{ratio, Samples};
use crate::trace;

use super::lower_layers;

const KEYS: u64 = 50_000;
const VALUE_BYTES: usize = 64;
const THREADS: u64 = 8;
const THETA: f64 = 0.99;
const GET_SHARE: f64 = 0.80;
const PUT_SHARE: f64 = 0.17;
const SEEK_MAX: u64 = 16;
const FILL_BATCH: usize = 256;
const WARMUP_OPS_PER_THREAD: u64 = 2_000;

/// The value version `version` of `key` holds: unique per write, so a
/// read names the write it saw.
fn value_of(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_BYTES];
    v[0..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    Rng::new(key ^ version.rotate_left(32)).fill(&mut v[16..]);
    v
}

struct State {
    kv: MixKv,
    /// The oracle: the version every key was last written at. Virtual
    /// threads run one whole operation at a time in host order, so
    /// that order is the linearisation and the model is exact.
    versions: Vec<u64>,
    rngs: Vec<Rng>,
    zipf: Zipf,
    /// Virtual instant every thread has reached (phases start here).
    frontier: Nanos,
}

#[derive(Default)]
struct Tally {
    put: Samples,
    get: Samples,
    seek: Samples,
    done: u64,
    wrong: u64,
    user_bytes: u64,
    halves: [Nanos; 2],
}

fn setup(seed: u64) -> State {
    let root = Rng::new(seed);
    let mut vt = Vt::new(1_000);
    let mut kv = layers::format_mix_kv(KEYS + 64, &mut vt);
    let keys: Vec<u64> = (0..KEYS).collect();
    for chunk in keys.chunks(FILL_BATCH) {
        let pairs: Vec<(u64, Vec<u8>)> = chunk.iter().map(|&k| (k, value_of(k, 0))).collect();
        kv.multi_put(&mut vt, &pairs)
            .expect("no faults are injected");
    }
    let state = State {
        kv,
        versions: vec![0; KEYS as usize],
        rngs: (0..THREADS).map(|t| root.fork(t)).collect(),
        zipf: Zipf::new(KEYS as usize, THETA),
        frontier: vt.now(),
    };
    run_phase(state, WARMUP_OPS_PER_THREAD, None).0
}

/// Runs `ops_per_thread` operations on each virtual thread and returns
/// the state with its frontier advanced, plus what was tallied (and
/// the host clock, if one was handed in to be advanced).
fn run_phase(
    state: State,
    ops_per_thread: u64,
    clock: Option<SliceClock>,
) -> (State, Tally, Option<SliceClock>) {
    let start = state.frontier;
    let shared = Rc::new(RefCell::new((state, Tally::default(), clock)));
    let mut sched = Scheduler::new();
    for t in 0..THREADS as usize {
        let shared = Rc::clone(&shared);
        let mut remaining = ops_per_thread;
        sched.spawn(move |vt: &mut Vt| {
            vt.wait_until(start);
            let (state, tally, clock) = &mut *shared.borrow_mut();
            let key = scatter(state.zipf.sample(&mut state.rngs[t]), KEYS as usize);
            let roll = state.rngs[t].f64();
            let root = trace::begin("bench.op", vt.now().as_ns());
            let t0 = vt.now();
            if roll < GET_SHARE {
                let got = state.kv.get(vt, key);
                tally.get.push((vt.now() - t0).as_ns());
                let want = value_of(key, state.versions[key as usize]);
                tally.wrong += u64::from(got.as_deref() != Some(&want[..]));
            } else if roll < GET_SHARE + PUT_SHARE {
                let version = state.versions[key as usize] + 1;
                let value = value_of(key, version);
                state
                    .kv
                    .put(vt, key, &value)
                    .expect("no faults are injected");
                tally.put.push((vt.now() - t0).as_ns());
                state.versions[key as usize] = version;
                tally.user_bytes += 8 + VALUE_BYTES as u64;
            } else {
                let limit = 1 + state.rngs[t].below(SEEK_MAX);
                let got = state.kv.seek(vt, key, limit as usize);
                tally.seek.push((vt.now() - t0).as_ns());
                // Every key is live, so the answer is the next `limit` keys.
                let hi = (key + limit).min(KEYS);
                let ok = got.len() as u64 == hi - key
                    && got.iter().zip(key..hi).all(|((k, v), want)| {
                        *k == want && *v == value_of(want, state.versions[want as usize])
                    });
                tally.wrong += u64::from(!ok);
            }
            trace::end(root, vt.now().as_ns());
            tally.done += 1;
            let half = usize::from(tally.done > ops_per_thread * THREADS / 2);
            tally.halves[half] = tally.halves[half].max(vt.now());
            if let Some(c) = clock {
                c.progress(tally.done, tally.done);
            }
            remaining -= 1;
            if remaining == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        });
    }
    let end = sched
        .run_to_completion()
        .iter()
        .map(Vt::now)
        .max()
        .expect("threads ran");
    let (mut state, tally, clock) = Rc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("the scheduler dropped its threads"))
        .into_inner();
    state.frontier = end;
    (state, tally, clock)
}

/// Measured operations per thread per second of `--seconds` (≈ 9 µs of
/// host CPU an operation at the defining commit).
const OPS_PER_THREAD_PER_SECOND: u64 = 6_000;

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let ops_per_thread = OPS_PER_THREAD_PER_SECOND * seconds;
    let mut out = Outcome::default();
    let mut state = out.setup(|| setup(seed));

    state.kv.reset_disk_stats();
    trace::clear();
    let before = Counters::of(state.kv.memsnap());
    let persists_before = layers::persist_meter(state.kv.memsnap()).0;
    let start = state.frontier;
    let total = ops_per_thread * THREADS;
    let (mut state, mut tally, clock) =
        run_phase(state, ops_per_thread, Some(SliceClock::start(total)));
    let clock = clock.expect("handed in");
    let window = state.frontier - start;
    let after = Counters::of(state.kv.memsnap());

    // Full verification after the drain: every key reads back as the
    // model says.
    let mut vt = Vt::new(1_001);
    vt.wait_until(state.frontier);
    for key in 0..KEYS {
        let want = value_of(key, state.versions[key as usize]);
        out.lost += u64::from(state.kv.get(&mut vt, key).as_deref() != Some(&want[..]));
    }

    out.attempted = total;
    out.failed = tally.wrong;
    let good = total - tally.wrong;
    out.latencies(&mut tally.put, Some((&mut tally.get, &tally.seek)));
    out.e2e("vt_kops", good as f64 / window.as_secs_f64() / 1e3, good);
    let write_amp = ratio(
        after.since(&before).get(C::DiskBytesWritten),
        tally.user_bytes as f64,
    );
    out.e2e("io_amp", write_amp, tally.put.len() as u64);
    out.layer("disk.write_amp", write_amp);
    out.host(&clock);

    let ms = state.kv.memsnap();
    let (persists, p50, p99) = layers::persist_meter(ms);
    out.layer("core.persist_us_p50", p50 as f64 / 1e3);
    out.layer("core.persist_us_p99", p99 as f64 / 1e3);
    lower_layers(
        &mut out,
        &after.since(&before),
        DiskLatency::of(ms),
        persists - persists_before,
    );
    out.layer("skipdb.put_us_p50", tally.put.percentile_us(50.0));
    out.layer("skipdb.put_us_p99", tally.put.percentile_us(99.0));
    out.layer("skipdb.get_us_p50", tally.get.percentile_us(50.0));
    out.layer("skipdb.seek_us_p50", tally.seek.percentile_us(50.0));
    out.layer(
        "skipdb.put_host_ns_p50",
        trace::durations("skipdb.put").1.percentile_us(50.0) * 1e3,
    );
    out.layer(
        "skipdb.get_host_ns_p50",
        trace::durations("skipdb.get").1.percentile_us(50.0) * 1e3,
    );
    out.layer(
        "skipdb.pages_per_key",
        ratio(state.kv.pages_used() as f64, state.kv.len() as f64),
    );
    let half = |i: usize, from: Nanos| (total / 2) as f64 / (tally.halves[i] - from).as_secs_f64();
    out.layer(
        "bench.steady_drift_pct",
        (half(1, tally.halves[0]) / half(0, start) - 1.0) * 100.0,
    );
    out
}
