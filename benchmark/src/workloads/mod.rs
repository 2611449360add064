//! The six workloads. Each sets up warm state (timed as `setup_s`),
//! runs a measured window sized by `--seconds`, checks every answer
//! against its oracle, and reports named values (`report::Outcome`).

use crate::layers::{Counters, DiskLatency, RegionHandle, Snap, Vt, C};
use crate::report::Outcome;
use crate::stats::{ratio, Samples};
use crate::trace;

pub mod crash_recover;
pub mod kv_group8;
pub mod kv_mixgraph;
pub mod repl_wan;
pub mod serve;

/// Synchronous μCheckpoints on a raw `MemSnap`, timed from outside and
/// itemised by the core's own breakdown (the paper's Table 5 rows).
#[derive(Default)]
struct Persists {
    latency: Samples,
    reset_ns: u64,
    initiate_ns: u64,
    iowait_ns: u64,
}

impl Persists {
    /// Persists the calling thread's dirty pages in `region`; returns
    /// the epoch.
    fn commit(&mut self, snap: &mut Snap, vt: &mut Vt, region: &RegionHandle) -> u64 {
        let t0 = vt.now();
        let epoch = snap.persist(vt, region);
        self.latency.push((vt.now() - t0).as_ns());
        let b = snap.memsnap().last_persist_breakdown();
        self.reset_ns += b.resetting_tracking.as_ns();
        self.initiate_ns += b.initiating_writes.as_ns();
        self.iowait_ns += b.waiting_on_io.as_ns();
        epoch
    }

    fn report(&mut self, out: &mut Outcome) {
        let mean_us = |ns: u64| ratio(ns as f64 / 1e3, self.latency.len() as f64);
        out.layer("core.persist_reset_us_mean", mean_us(self.reset_ns));
        out.layer("core.persist_initiate_us_mean", mean_us(self.initiate_ns));
        out.layer("core.persist_iowait_us_mean", mean_us(self.iowait_ns));
        out.layer("core.persist_us_p50", self.latency.percentile_us(50.0));
        out.layer("core.persist_us_p99", self.latency.percentile_us(99.0));
        let host_ns_p50 = |span| trace::durations(span).1.percentile_us(50.0) * 1e3;
        out.layer(
            "core.persist_host_ns_p50",
            host_ns_p50("core.msnap_persist"),
        );
        out.layer("core.write_host_ns_p50", host_ns_p50("core.write"));
    }
}

/// The vm / store / disk metrics every workload that holds a `MemSnap`
/// derives the same way: counter deltas over the measured window
/// (`delta`), normalised by the μCheckpoints (`persists`) taken in it.
fn lower_layers(out: &mut Outcome, delta: &Counters, lat: DiskLatency, persists: u64) {
    let d = |c: C| delta.get(c);
    let persists = persists as f64;
    out.layer(
        "vm.minor_faults_per_persist",
        ratio(d(C::MinorFaults), persists),
    );
    out.layer(
        "vm.shootdowns_per_persist",
        ratio(d(C::Shootdowns), persists),
    );
    out.layer(
        "vm.pte_resets_per_persist",
        ratio(d(C::PteResets), persists),
    );
    out.layer(
        "vm.cow_faults_per_kpersist",
        ratio(d(C::CowFaults) * 1e3, persists),
    );

    let commits = d(C::Commits);
    out.layer(
        "core.pages_per_persist",
        ratio(d(C::PagesWritten), persists),
    );
    out.layer(
        "store.delta_commit_ratio",
        ratio(d(C::DeltaCommits), commits),
    );
    out.layer("store.pages_per_commit", ratio(d(C::PagesWritten), commits));
    out.layer("store.nodes_per_commit", ratio(d(C::NodesWritten), commits));
    out.layer(
        "store.objects_per_batch",
        ratio(d(C::BatchedObjects), d(C::BatchCommits)),
    );
    let hits = d(C::CacheHits);
    out.layer(
        "store.cache_hit_ratio",
        ratio(hits, hits + d(C::CacheMisses)),
    );
    out.layer("store.cache_evictions", d(C::CacheEvictions));
    out.layer("store.hydrations", d(C::Hydrations));

    let writes = d(C::DiskWrites);
    out.layer("disk.writes_per_commit", ratio(writes, commits));
    out.layer(
        "disk.bytes_per_write",
        ratio(d(C::DiskBytesWritten), writes),
    );
    out.layer(
        "disk.merged_parts_per_submission",
        ratio(d(C::DiskMergedParts), d(C::DiskMergedSubmissions)),
    );
    out.layer("disk.write_lat_us_p50", lat.write_p50_us);
    out.layer("disk.write_lat_us_p99", lat.write_p99_us);
    out.layer("disk.read_lat_us_p50", lat.read_p50_us);
    out.layer("disk.avg_queue_depth", lat.avg_queue_depth);
}
