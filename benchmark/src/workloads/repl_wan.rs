//! `repl-wan`: sub-page shipping over a bad link.
//!
//! A raw `MemSnap` primary with one 1 024-page region and 2 replicas
//! behind 2 ms ± 0.5 ms, 100 MB/s, 5 %-drop, 10 %-reorder links. After
//! the bootstrap settles, the primary commits synchronously and ticks
//! the engine after every commit, stalling (advance 100 µs, tick
//! again) while the engine reports `throttled`. 80 % of commits
//! rewrite one 64-byte line; 20 % rewrite a whole page — half of those
//! with another page's content (dedup), half with text-like bytes
//! (compression) — so a sub-page gain that costs full-page shipping
//! shows. A put completes when the primary has heard **both**
//! replicas acknowledge its epoch. Closed loop, one committer.
//!
//! snap and repl do nearly all the work; serve is bypassed. The run
//! ends with `promote("r0")` → restore → byte-compare against the
//! model: every acknowledged commit must be there.

use std::collections::VecDeque;

use crate::gen::Rng;
use crate::host::SliceClock;
use crate::layers::{
    Counters, DiskLatency, LinkMetrics, LinkStats, Nanos, NetConfig, RegionHandle, Repl, Snap, Vt,
    C, PAGE_SIZE,
};
use crate::report::Outcome;
use crate::stats::{ratio, Samples};
use crate::trace;

use super::{lower_layers, Persists};

const REGION: &str = "data";
const REGION_PAGES: u64 = 1_024;
const LINE: usize = 64;
const REPLICAS: [&str; 2] = ["r0", "r1"];
const LINE_SHARE: f64 = 0.80;
const STALL_STEP: Nanos = Nanos::from_us(100);
const SETTLE_LIMIT: Nanos = Nanos::from_secs(60);
const WARMUP_COMMITS: u64 = 1_500;

fn wan(seed: u64) -> NetConfig {
    NetConfig {
        seed,
        latency: Nanos::from_us(1_500),
        jitter: Nanos::from_us(1_000),
        ns_per_byte: 10,
        drop_rate: 0.05,
        reorder_rate: 0.10,
        reorder_hold: Nanos::from_ms(4),
    }
}

struct State {
    primary: Snap,
    repl: Repl,
    vt: Vt,
    region: RegionHandle,
    /// The oracle: the region's bytes as of the newest commit.
    image: Vec<u8>,
    rng: Rng,
    /// Commits not yet acknowledged by both replicas: (epoch, start).
    pending: VecDeque<(u64, Nanos)>,
    newest_epoch: u64,
}

#[derive(Default)]
struct Tally {
    put: Samples,
    persists: Persists,
    tick: Samples,
    ticks: u64,
    throttled_ticks: u64,
    lag_sum: u64,
    lag_max: u64,
    user_bytes: u64,
}

/// Compressible, text-like page content.
fn text_page(rng: &mut Rng, out: &mut [u8]) {
    const WORDS: [&[u8]; 8] = [
        b"checkpoint ",
        b"persist ",
        b"region ",
        b"epoch ",
        b"snapshot ",
        b"delta ",
        b"page ",
        b"the ",
    ];
    let mut at = 0;
    while at < out.len() {
        let w = WORDS[rng.below(WORDS.len() as u64) as usize];
        let n = w.len().min(out.len() - at);
        out[at..at + n].copy_from_slice(&w[..n]);
        at += n;
    }
}

fn setup(seed: u64) -> State {
    let root = Rng::new(seed);
    let mut vt = Vt::new(0);
    let mut primary = Snap::format_sharded(1);
    let region = primary.open(&mut vt, REGION, REGION_PAGES);
    let mut repl = Repl::new();
    for (i, name) in REPLICAS.iter().enumerate() {
        repl.add_replica(name, wan(root.fork(10 + i as u64).next_u64()));
    }
    repl.settle(&mut vt, &mut primary, SETTLE_LIMIT);
    let mut state = State {
        primary,
        repl,
        vt,
        region,
        image: vec![0u8; REGION_PAGES as usize * PAGE_SIZE],
        rng: root.fork(1),
        pending: VecDeque::new(),
        newest_epoch: 0,
    };
    let mut warm = Tally::default();
    for _ in 0..WARMUP_COMMITS {
        state.commit(&mut warm);
    }
    state
}

impl State {
    /// One write, one synchronous μCheckpoint, then the engine ticks
    /// until it stops asking the committer to stall.
    fn commit(&mut self, tally: &mut Tally) {
        let root = trace::begin("bench.commit", self.vt.now().as_ns());
        let start = self.vt.now();
        let page = self.rng.below(REGION_PAGES) as usize;
        let (offset, len) = if self.rng.f64() < LINE_SHARE {
            let line = self.rng.below((PAGE_SIZE / LINE) as u64) as usize;
            let at = page * PAGE_SIZE + line * LINE;
            self.rng.fill(&mut self.image[at..at + LINE]);
            (at, LINE)
        } else {
            let at = page * PAGE_SIZE;
            if self.rng.f64() < 0.5 {
                let from = self.rng.below(REGION_PAGES) as usize * PAGE_SIZE;
                self.image.copy_within(from..from + PAGE_SIZE, at);
            } else {
                text_page(&mut self.rng, &mut self.image[at..at + PAGE_SIZE]);
            }
            (at, PAGE_SIZE)
        };
        let va = self.region.addr + offset as u64;
        self.primary
            .write(&mut self.vt, va, &self.image[offset..offset + len]);
        self.newest_epoch = tally
            .persists
            .commit(&mut self.primary, &mut self.vt, &self.region);
        tally.user_bytes += len as u64;
        self.pending.push_back((self.newest_epoch, start));
        while self.tick(tally) {
            self.vt.advance(STALL_STEP);
        }
        trace::end(root, self.vt.now().as_ns());
    }

    /// One engine round; completes every pending put both replicas now
    /// cover. Returns whether the engine wants the committer to stall.
    fn tick(&mut self, tally: &mut Tally) -> bool {
        let t0 = self.vt.now();
        let report = self.repl.tick(&mut self.vt, &mut self.primary);
        tally.tick.push((self.vt.now() - t0).as_ns());
        tally.ticks += 1;
        tally.throttled_ticks += u64::from(report.throttled);
        let lag = REPLICAS
            .iter()
            .map(|r| self.repl.link_metrics(r).lag_epochs)
            .max()
            .expect("replicas");
        tally.lag_sum += lag;
        tally.lag_max = tally.lag_max.max(lag);
        let covered = self.newest_epoch - lag.min(self.newest_epoch);
        while self
            .pending
            .front()
            .is_some_and(|&(epoch, _)| epoch <= covered)
        {
            let (_, start) = self.pending.pop_front().expect("non-empty");
            tally.put.push((self.vt.now() - start).as_ns());
        }
        report.throttled
    }

    /// Ticks until every commit is acknowledged.
    fn drain(&mut self, tally: &mut Tally) {
        let deadline = self.vt.now() + SETTLE_LIMIT;
        while !self.pending.is_empty() && self.vt.now() < deadline {
            self.vt.advance(STALL_STEP);
            self.tick(tally);
        }
    }

    fn links(&self) -> Vec<(LinkMetrics, LinkStats, LinkStats)> {
        REPLICAS
            .iter()
            .map(|r| {
                let (down, up) = self.repl.link_net_stats(r);
                (self.repl.link_metrics(r), down, up)
            })
            .collect()
    }
}

/// Measured commits per second of `--seconds` (≈ 0.35 ms of host CPU
/// a commit, its ticks included, at the defining commit).
const COMMITS_PER_SECOND: u64 = 2_200;

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let commits = COMMITS_PER_SECOND * seconds;
    let mut out = Outcome::default();
    let mut state = out.setup(|| setup(seed));

    // Warm-up commits still in flight finish outside the window.
    state.drain(&mut Tally::default());
    state.primary.reset_disk_stats();
    trace::clear();
    let before = Counters::of(state.primary.memsnap());
    let links0 = state.links();
    let start = state.vt.now();
    let mut tally = Tally::default();
    let mut clock = SliceClock::start(commits);
    let mut mid = start;
    for c in 0..commits {
        state.commit(&mut tally);
        clock.progress(c + 1, c + 1);
        if c + 1 == commits / 2 {
            mid = state.vt.now();
        }
    }
    let end = state.vt.now();
    state.drain(&mut tally);
    let after = Counters::of(state.primary.memsnap());
    let links1 = state.links();
    let unacked = state.pending.len() as u64;
    let (_, ack_p50, ack_p99) = state.repl.ack_lag(REPLICAS[0]);
    let disk_lat = DiskLatency::of(state.primary.memsnap());

    // Failover: the promoted replica must hold every acknowledged
    // commit — all of them, after the drain — byte for byte.
    let State { repl, image, .. } = state;
    let (disk, mut vt) = repl.promote(REPLICAS[0]);
    let mut promoted = Snap::restore_promoted(&mut vt, disk);
    let region = promoted.open(&mut vt, REGION, 0);
    let mut page = vec![0u8; PAGE_SIZE];
    for p in 0..REGION_PAGES as usize {
        promoted.read(&mut vt, region.addr + (p * PAGE_SIZE) as u64, &mut page);
        out.lost += u64::from(page[..] != image[p * PAGE_SIZE..(p + 1) * PAGE_SIZE]);
    }

    out.attempted = commits;
    out.failed = unacked;
    let acked = commits - unacked;
    out.latencies(&mut tally.put, None);
    out.e2e(
        "vt_kops",
        acked as f64 / (end - start).as_secs_f64() / 1e3,
        acked,
    );
    let sum = |f: fn(&(LinkMetrics, LinkStats, LinkStats)) -> u64| -> f64 {
        (links1.iter().map(f).sum::<u64>() - links0.iter().map(f).sum::<u64>()) as f64
    };
    let user_bytes = tally.user_bytes as f64;
    // The costliest medium here is the replication down-link:
    // everything sent on it, retransmits included, per byte changed.
    let wire_amp = ratio(sum(|l| l.1.bytes_sent), user_bytes);
    out.e2e("io_amp", wire_amp, commits);
    out.layer("repl.wire_amp", wire_amp);
    out.layer(
        "disk.write_amp",
        ratio(after.since(&before).get(C::DiskBytesWritten), user_bytes),
    );
    out.host(&clock);

    let n = commits as f64;
    out.layer("repl.ack_lag_us_p50", ack_p50 as f64 / 1e3);
    out.layer("repl.ack_lag_us_p99", ack_p99 as f64 / 1e3);
    out.layer(
        "repl.lag_epochs_mean",
        ratio(tally.lag_sum as f64, tally.ticks as f64),
    );
    out.layer("repl.lag_epochs_max", tally.lag_max as f64);
    out.layer("repl.acked_ships", sum(|l| l.0.acks));
    out.layer(
        "repl.commits_per_ack",
        ratio(n * REPLICAS.len() as f64, sum(|l| l.0.acks)),
    );
    out.layer(
        "repl.throttled_tick_ratio",
        ratio(tally.throttled_ticks as f64, tally.ticks as f64),
    );
    out.layer("repl.tick_us_p50", tally.tick.percentile_us(50.0));
    out.layer(
        "repl.tick_host_us_p50",
        trace::durations("repl.tick").1.percentile_us(50.0),
    );
    out.layer(
        "repl.retransmit_frames_per_commit",
        sum(|l| l.0.retransmit_frames) / n,
    );
    let syncs = sum(|l| l.0.full_syncs) + sum(|l| l.0.delta_syncs);
    out.layer(
        "repl.full_sync_ratio",
        ratio(sum(|l| l.0.full_syncs), syncs),
    );
    out.layer(
        "repl.goodput_ratio",
        ratio(sum(|l| l.1.bytes_delivered), sum(|l| l.1.bytes_sent)),
    );
    out.layer(
        "snap.subpage_frames_per_commit",
        sum(|l| l.0.subpage_frames) / n,
    );
    out.layer(
        "snap.saved_dedup_bytes_per_commit",
        sum(|l| l.0.wire_bytes_saved_dedup) / n,
    );
    out.layer(
        "snap.saved_compress_bytes_per_commit",
        sum(|l| l.0.wire_bytes_saved_compress) / n,
    );
    let sent = sum(|l| l.1.sent + l.2.sent);
    out.layer(
        "sim.link_drop_ratio",
        ratio(sum(|l| l.1.dropped + l.2.dropped), sent),
    );
    out.layer(
        "sim.link_reorder_ratio",
        ratio(sum(|l| l.1.reordered + l.2.reordered), sent),
    );
    tally.persists.report(&mut out);
    lower_layers(&mut out, &after.since(&before), disk_lat, commits);
    let rate = |from: Nanos, to: Nanos| 1.0 / (to - from).as_secs_f64();
    out.layer(
        "bench.steady_drift_pct",
        (rate(mid, end) / rate(start, mid) - 1.0) * 100.0,
    );
    out
}
