//! `crash-recover`: reads beside writes, and the durability test.
//!
//! 8 regions of 2 048 pages (64 MiB, far beyond the store's 256-block
//! cache) on an 8-shard store, every page written once during set-up.
//! Each cycle: a burst of 256 synchronous one-line commits, with a
//! budgeted `msnap_scrub(64)` after every 4th; a power failure at a
//! seeded instant inside the burst (whatever the device had not
//! completed is discarded); `restore`; page-in of every region; every
//! write acknowledged before the failure compared with the model; then
//! scrub to one full pass. Closed loop, one committer.
//!
//! The store's read path, digest verification, cache, lazy open and
//! delta replay do the work here that no put-heavy workload touches.

use std::collections::BTreeMap;

use crate::gen::Rng;
use crate::host::SliceClock;
use crate::layers::{self, Counters, DiskLatency, Nanos, RegionHandle, Snap, Vt, C, PAGE_SIZE};
use crate::report::Outcome;
use crate::stats::{median, ratio, Samples};
use crate::trace;

use super::{lower_layers, Persists};

const REGIONS: usize = 8;
const REGION_PAGES: u64 = 2_048;
const SHARDS: usize = 8;
const LINE: usize = 64;
const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE) as u64;
const BURST: usize = 256;
const SCRUB_EVERY: usize = 4;
const SCRUB_BUDGET: u64 = 64;
const FULL_PASS_BUDGET: u64 = 1_024;
const FILL_PAGES_PER_COMMIT: u64 = 256;
/// The failure strikes after at least this share of the burst.
const CRASH_AFTER: f64 = 0.25;

type Line = [u8; LINE];
/// (region, page, line) → content. Lines never written hold the fill
/// pattern (line 0 of each page) or zeroes.
type Model = BTreeMap<(usize, u64, u64), Line>;

fn region_name(r: usize) -> String {
    format!("r{r}")
}

fn fill_line(region: usize, page: u64) -> Line {
    let mut line = [0u8; LINE];
    Rng::new((region as u64) << 32 | page).fill(&mut line);
    line
}

struct State {
    snap: Snap,
    vt: Vt,
    regions: Vec<RegionHandle>,
    model: Model,
    rng: Rng,
    /// Counter baseline of the running `MemSnap` instance.
    baseline: Counters,
    cycle: u32,
}

#[derive(Default)]
struct Tally {
    put: Samples,
    persists: Persists,
    scrub_slice: Samples,
    recover: Vec<f64>,
    counters: Counters,
    commits: u64,
    paged_in: u64,
    pagein_ns: u64,
    scrubbed: u64,
    scrub_ns: u64,
    recovery_reads: f64,
    corruptions: u64,
    lost: u64,
}

fn setup(seed: u64) -> State {
    let mut vt = Vt::new(0);
    let mut snap = Snap::format_sharded(SHARDS);
    let regions: Vec<RegionHandle> = (0..REGIONS)
        .map(|r| snap.open(&mut vt, &region_name(r), REGION_PAGES))
        .collect();
    for (r, region) in regions.iter().enumerate() {
        for page in 0..REGION_PAGES {
            let va = region.addr + page * PAGE_SIZE as u64;
            snap.write(&mut vt, va, &fill_line(r, page));
            if (page + 1) % FILL_PAGES_PER_COMMIT == 0 {
                snap.persist(&mut vt, region);
            }
        }
    }
    let baseline = Counters::of(snap.memsnap());
    let state = State {
        snap,
        vt,
        regions,
        model: Model::new(),
        rng: Rng::new(seed),
        baseline,
        cycle: 0,
    };
    // One whole cycle of warm-up, so the measured ones start from a
    // restored store like every later one does.
    state.run_cycle(&mut Tally::default())
}

impl State {
    fn va(&self, region: usize, page: u64, line: u64) -> u64 {
        self.regions[region].addr + page * PAGE_SIZE as u64 + line * LINE as u64
    }

    fn run_cycle(mut self, tally: &mut Tally) -> State {
        self.cycle += 1;
        let root = trace::begin("bench.cycle", self.vt.now().as_ns());

        // ---- burst ------------------------------------------------------
        let burst_start = self.vt.now();
        let mut writes = Vec::with_capacity(BURST);
        for i in 0..BURST {
            let t0 = self.vt.now();
            let region = self.rng.below(REGIONS as u64) as usize;
            let page = self.rng.below(REGION_PAGES);
            let line = self.rng.below(LINES_PER_PAGE);
            let mut content = [0u8; LINE];
            self.rng.fill(&mut content);
            let va = self.va(region, page, line);
            self.snap.write(&mut self.vt, va, &content);
            tally
                .persists
                .commit(&mut self.snap, &mut self.vt, &self.regions[region]);
            let acked_at = self.vt.now();
            writes.push(((region, page, line), content, acked_at));
            if (i + 1) % SCRUB_EVERY == 0 {
                let s0 = self.vt.now();
                let s = self.snap.scrub(&mut self.vt, SCRUB_BUDGET);
                tally.scrub_slice.push((self.vt.now() - s0).as_ns());
                tally.scrub_ns += (self.vt.now() - s0).as_ns();
                tally.scrubbed += s.pages_verified;
                tally.corruptions += s.corruptions_found;
            }
            // The caller's view of one durable write, scrub stalls and all.
            tally.put.push((self.vt.now() - t0).as_ns());
        }
        tally.commits += BURST as u64;
        let burst_end = self.vt.now();

        // ---- power failure ------------------------------------------------
        let share = CRASH_AFTER + (1.0 - CRASH_AFTER) * self.rng.f64();
        let at =
            burst_start + Nanos::from_ns(((burst_end - burst_start).as_ns() as f64 * share) as u64);
        let end_counters = Counters::of(self.snap.memsnap());
        tally.counters = tally.counters.plus(&end_counters.since(&self.baseline));
        self.baseline = end_counters.after_restart();
        let mut maybe: BTreeMap<(usize, u64, u64), Vec<Line>> = BTreeMap::new();
        for (slot, content, acked_at) in writes {
            if acked_at <= at {
                self.model.insert(slot, content);
            } else {
                // Not acknowledged by the failure: old or new may stand.
                maybe.entry(slot).or_default().push(content);
            }
        }
        let disk = self.snap.crash(at);

        // ---- recovery -------------------------------------------------------
        self.vt = Vt::new(self.cycle);
        self.vt.wait_until(at);
        let r0 = self.vt.now();
        self.snap = Snap::restore(&mut self.vt, disk);
        let reads0 = Counters::of(self.snap.memsnap()).get(C::DiskReads);
        let p0 = self.vt.now();
        self.regions = (0..REGIONS)
            .map(|r| self.snap.open(&mut self.vt, &region_name(r), 0))
            .collect();
        tally.pagein_ns += (self.vt.now() - p0).as_ns();
        tally.paged_in += REGIONS as u64 * REGION_PAGES;
        tally.recover.push((self.vt.now() - r0).as_ms_f64());
        tally.recovery_reads += Counters::of(self.snap.memsnap()).get(C::DiskReads) - reads0;

        // ---- verification ---------------------------------------------------
        let mut got = [0u8; LINE];
        for (&(region, page, line), want) in &self.model {
            if maybe.contains_key(&(region, page, line)) {
                continue;
            }
            let va = self.va(region, page, line);
            self.snap.read(&mut self.vt, va, &mut got);
            tally.lost += u64::from(got != *want);
        }
        for ((region, page, line), news) in maybe {
            let va = self.va(region, page, line);
            self.snap.read(&mut self.vt, va, &mut got);
            let old = self
                .model
                .get(&(region, page, line))
                .copied()
                .unwrap_or_else(|| {
                    if line == 0 {
                        fill_line(region, page)
                    } else {
                        [0u8; LINE]
                    }
                });
            tally.lost += u64::from(got != old && !news.contains(&got));
            self.model.insert((region, page, line), got);
        }

        // ---- scrub to one full pass -------------------------------------------
        let s0 = self.vt.now();
        while layers::scrub_totals(self.snap.memsnap()).passes == 0 {
            let s = self.snap.scrub(&mut self.vt, FULL_PASS_BUDGET);
            tally.scrubbed += s.pages_verified;
            tally.corruptions += s.corruptions_found;
        }
        tally.scrub_ns += (self.vt.now() - s0).as_ns();
        trace::end(root, self.vt.now().as_ns());
        self
    }
}

/// Measured cycles per 3 seconds of `--seconds` (≈ 0.29 s of host CPU
/// a cycle at the defining commit).
const CYCLES_PER_3_SECONDS: u64 = 8;

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let cycles = (CYCLES_PER_3_SECONDS * seconds).div_ceil(3);
    let mut out = Outcome::default();
    let mut state = out.setup(|| setup(seed));

    state.snap.reset_disk_stats();
    state.baseline = Counters::of(state.snap.memsnap());
    trace::clear();
    let start = state.vt.now();
    let mut tally = Tally::default();
    let mut clock = SliceClock::start(cycles);
    for c in 0..cycles {
        state = state.run_cycle(&mut tally);
        clock.progress(c + 1, tally.paged_in + tally.scrubbed);
    }
    let window = state.vt.now() - start;
    let end_counters = Counters::of(state.snap.memsnap());
    tally.counters = tally.counters.plus(&end_counters.since(&state.baseline));

    out.attempted = tally.commits;
    out.lost = tally.lost + tally.corruptions;
    let pages = tally.paged_in + tally.scrubbed;
    out.latencies(&mut tally.put, None);
    // The reads here are pages, not requests: the work this workload
    // is about is pages paged in and scrubbed per virtual second, over
    // the whole cycle (so a slower recovery lowers it).
    out.e2e("vt_kops", pages as f64 / window.as_secs_f64() / 1e3, pages);
    let write_amp = ratio(
        tally.counters.get(C::DiskBytesWritten),
        (tally.commits * LINE as u64) as f64,
    );
    out.e2e("io_amp", write_amp, tally.commits);
    out.layer("disk.write_amp", write_amp);
    out.layer("core.recover_ms", median(&tally.recover));
    out.host(&clock);

    tally.persists.report(&mut out);
    out.layer(
        "core.restore_us_mean",
        trace::durations("core.restore").0.mean_us(),
    );
    out.layer(
        "core.pagein_us_per_page",
        tally.pagein_ns as f64 / tally.paged_in as f64 / 1e3,
    );
    let (_, open_host) = trace::durations("core.msnap_open");
    out.layer(
        "core.pagein_host_ns_per_page",
        open_host.sum_ns() / tally.paged_in as f64,
    );
    lower_layers(
        &mut out,
        &tally.counters,
        DiskLatency::of(state.snap.memsnap()),
        tally.commits,
    );
    out.layer(
        "store.scrub_kpages_per_vs",
        ratio(tally.scrubbed as f64 / 1e3, tally.scrub_ns as f64 / 1e9),
    );
    let (_, scrub_host) = trace::durations("store.msnap_scrub");
    out.layer(
        "store.scrub_host_ns_per_page",
        ratio(scrub_host.sum_ns(), tally.scrubbed as f64),
    );
    out.layer(
        "store.scrub_stall_us_p99",
        tally.scrub_slice.percentile_us(99.0),
    );
    out.layer("store.corruptions_found", tally.corruptions as f64);
    out.layer(
        "disk.reads_per_recovered_page",
        tally.recovery_reads / tally.paged_in as f64,
    );
    out
}
