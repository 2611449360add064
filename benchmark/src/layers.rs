//! The only file that touches the program under test.
//!
//! Every call the benchmark makes into a layer's public functions goes
//! through an adapter here, wrapped in a span (`trace.rs`) on a traced
//! run. Workloads import program types from this module only, so when
//! a later change renames or moves an entry point, re-pointing the
//! benchmark is an edit to this one file. The exact surface is listed
//! in `benchmark/README.md`.
//!
//! The benchmark owns its load: nothing here calls an in-tree driver
//! (`serve::harness::run`, `run_mixgraph`, `run_kv_group_commit`, …),
//! which a later change could retune.

use memsnap::{MemSnap, PersistFlags, RegionSel};
use msnap_disk::{Disk, DiskConfig};
use msnap_repl::{ReplConfig, ReplEngine};
use msnap_serve::{wire, ServeNode};
use msnap_sim::Meters;
use msnap_skipdb::{KvError, KvStats, MemSnapKv, PIndexKv};
use msnap_vm::AsId;

use crate::trace;

pub use memsnap::{RegionHandle, PAGE_SIZE};
pub use msnap_repl::{LinkMetrics, TickReport};
pub use msnap_serve::{NotifyEvent, Request, Response, ServeConfig, WireStats};
pub use msnap_sim::{LinkStats, Nanos, NetConfig, Scheduler, StepOutcome, Vt};
pub use msnap_skipdb::Kv;
pub use msnap_store::ScrubStats;

fn paper_disk() -> Disk {
    Disk::new(DiskConfig::paper())
}

// ---- serve ---------------------------------------------------------------

/// `ServeNode` plus the wire codec, as a client sees them.
pub struct Serve {
    node: ServeNode,
}

/// One server→client datagram, decoded.
pub struct Delivery {
    pub port: usize,
    /// Delivery instant on the client's end of the link.
    pub at: Nanos,
    pub bytes: usize,
    pub responses: Vec<Response>,
}

impl Serve {
    pub fn format(cfg: ServeConfig, ports: usize, client_net: NetConfig) -> Serve {
        Serve {
            node: ServeNode::format(cfg, ports, client_net),
        }
    }

    pub fn add_replica(&mut self, name: &str, net: NetConfig) {
        self.node
            .add_replica(name, net)
            .expect("replica names are distinct");
    }

    pub fn encode(req: &Request) -> Vec<u8> {
        let s = trace::begin("serve.encode_request", 0);
        let datagram = wire::encode_request(req);
        trace::end(s, 0);
        datagram
    }

    pub fn send(&mut self, port: usize, at: Nanos, datagram: Vec<u8>) {
        let s = trace::begin("serve.client_send", at.as_ns());
        self.node.client_send(port, at, datagram);
        trace::end(s, at.as_ns());
    }

    /// Every datagram due on any port by `now`, decoded. A datagram the
    /// codec rejects is returned with no responses (the caller counts
    /// it as a failure).
    pub fn drain(&mut self, now: Nanos) -> Vec<Delivery> {
        let mut out = Vec::new();
        let s = trace::begin("serve.client_poll", now.as_ns());
        let mut raw = Vec::new();
        for port in 0..self.node.ports() {
            while let Some((at, datagram)) = self.node.client_poll(port, now) {
                raw.push((port, at, datagram));
            }
        }
        trace::end(s, now.as_ns());
        for (port, at, datagram) in raw {
            let s = trace::begin("serve.decode_responses", at.as_ns());
            let responses = wire::decode_responses(&datagram).unwrap_or_default();
            trace::end(s, at.as_ns());
            out.push(Delivery {
                port,
                at,
                bytes: datagram.len(),
                responses,
            });
        }
        out
    }

    /// One actor round; returns how long the node was busy in it.
    pub fn step(&mut self, now: Nanos) -> Nanos {
        let s = trace::begin("serve.step", now.as_ns());
        self.node.step(now).expect("no faults are injected");
        let end = self.node.now();
        trace::end(s, end.as_ns());
        end.saturating_sub(now)
    }

    pub fn stats(&self) -> WireStats {
        self.node.stats()
    }
}

// ---- skipdb / pindex -------------------------------------------------------

/// A [`Kv`] with a span around every call: the outside-in view of the
/// `skipdb` layer.
pub struct Traced<K: Kv>(pub K);

impl<K: Kv> Kv for Traced<K> {
    fn put(&mut self, vt: &mut Vt, key: u64, value: &[u8]) -> Result<(), KvError> {
        let s = trace::begin("skipdb.put", vt.now().as_ns());
        let r = self.0.put(vt, key, value);
        trace::end(s, vt.now().as_ns());
        r
    }

    fn multi_put(&mut self, vt: &mut Vt, pairs: &[(u64, Vec<u8>)]) -> Result<(), KvError> {
        let s = trace::begin("skipdb.multi_put", vt.now().as_ns());
        let r = self.0.multi_put(vt, pairs);
        trace::end(s, vt.now().as_ns());
        r
    }

    fn get(&mut self, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        let s = trace::begin("skipdb.get", vt.now().as_ns());
        let r = self.0.get(vt, key);
        trace::end(s, vt.now().as_ns());
        r
    }

    fn seek(&mut self, vt: &mut Vt, key: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        let s = trace::begin("skipdb.seek", vt.now().as_ns());
        let r = self.0.seek(vt, key, limit);
        trace::end(s, vt.now().as_ns());
        r
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn stats(&self) -> KvStats {
        self.0.stats()
    }

    fn meters(&self) -> Meters {
        self.0.meters()
    }
}

pub type MixKv = Traced<MemSnapKv>;

pub fn format_mix_kv(capacity_pages: u64, vt: &mut Vt) -> MixKv {
    Traced(MemSnapKv::format(paper_disk(), capacity_pages, vt))
}

impl MixKv {
    pub fn pages_used(&self) -> u64 {
        self.0.pages_used()
    }

    pub fn memsnap(&self) -> &MemSnap {
        self.0.memsnap()
    }

    pub fn reset_disk_stats(&mut self) {
        self.0.memsnap_mut().reset_disk_stats();
    }
}

pub type GroupKv = Traced<PIndexKv>;

pub fn format_group_kv(arena_pages: u64, writers: u32, vt: &mut Vt) -> GroupKv {
    Traced(PIndexKv::format(paper_disk(), arena_pages, writers, vt))
}

impl GroupKv {
    /// One batch per writer through the group-commit coalescer.
    pub fn multi_put_concurrent(&mut self, vts: &mut [Vt], batches: &[Vec<(u64, Vec<u8>)>]) {
        let start = vts.iter().map(Vt::now).min().unwrap_or(Nanos::ZERO);
        let s = trace::begin("pindex.multi_put_concurrent", start.as_ns());
        self.0
            .multi_put_concurrent(vts, batches)
            .expect("no faults are injected");
        let end = vts.iter().map(Vt::now).max().unwrap_or(start);
        trace::end(s, end.as_ns());
    }

    pub fn memsnap(&self) -> &MemSnap {
        self.0.memsnap()
    }

    pub fn reset_disk_stats(&mut self) {
        self.0.memsnap_mut().reset_disk_stats();
    }
}

// ---- core (and, through its accessors, vm / store / disk) ------------------

/// A raw `MemSnap` with one address space and one mutator thread.
pub struct Snap {
    ms: MemSnap,
    space: AsId,
}

impl Snap {
    pub fn format_sharded(shards: usize) -> Snap {
        Snap::over(MemSnap::format_sharded(paper_disk(), shards))
    }

    /// Power failure at `at`: everything the device had not completed
    /// by then is discarded. Returns the device for [`Snap::restore`].
    pub fn crash(self, at: Nanos) -> Disk {
        self.ms.crash(at)
    }

    pub fn restore(vt: &mut Vt, disk: Disk) -> Snap {
        let s = trace::begin("core.restore", vt.now().as_ns());
        let ms = MemSnap::restore(vt, disk).expect("a formatted device restores");
        trace::end(s, vt.now().as_ns());
        Snap::over(ms)
    }

    pub fn restore_promoted(vt: &mut Vt, disk: Disk) -> Snap {
        let s = trace::begin("core.restore_promoted", vt.now().as_ns());
        let ms = MemSnap::restore_promoted(vt, disk).expect("a promoted device restores");
        trace::end(s, vt.now().as_ns());
        Snap::over(ms)
    }

    fn over(mut ms: MemSnap) -> Snap {
        let space = ms.vm_mut().create_space();
        Snap { ms, space }
    }

    /// Creates the region, or with `pages == 0` opens an existing one
    /// (paging its durable image back in after a restore).
    pub fn open(&mut self, vt: &mut Vt, name: &str, pages: u64) -> RegionHandle {
        let s = trace::begin("core.msnap_open", vt.now().as_ns());
        let r = self
            .ms
            .msnap_open(vt, self.space, name, pages)
            .expect("region opens");
        trace::end(s, vt.now().as_ns());
        r
    }

    pub fn write(&mut self, vt: &mut Vt, va: u64, data: &[u8]) {
        let s = trace::begin("core.write", vt.now().as_ns());
        let thread = vt.id();
        self.ms
            .write(vt, self.space, thread, va, data)
            .expect("mapped address");
        trace::end(s, vt.now().as_ns());
    }

    pub fn read(&mut self, vt: &mut Vt, va: u64, out: &mut [u8]) {
        let s = trace::begin("core.read", vt.now().as_ns());
        self.ms
            .read(vt, self.space, va, out)
            .expect("mapped address");
        trace::end(s, vt.now().as_ns());
    }

    /// One synchronous μCheckpoint of the calling thread's dirty pages
    /// in `region`; returns its epoch.
    pub fn persist(&mut self, vt: &mut Vt, region: &RegionHandle) -> u64 {
        let s = trace::begin("core.msnap_persist", vt.now().as_ns());
        let thread = vt.id();
        let epoch = self
            .ms
            .msnap_persist(
                vt,
                thread,
                RegionSel::Region(region.md),
                PersistFlags::sync(),
            )
            .expect("no faults are injected");
        trace::end(s, vt.now().as_ns());
        epoch
    }

    pub fn scrub(&mut self, vt: &mut Vt, budget: u64) -> ScrubStats {
        let s = trace::begin("store.msnap_scrub", vt.now().as_ns());
        let stats = self
            .ms
            .msnap_scrub(vt, budget)
            .expect("no faults are injected");
        trace::end(s, vt.now().as_ns());
        stats
    }

    pub fn memsnap(&self) -> &MemSnap {
        &self.ms
    }

    pub fn reset_disk_stats(&mut self) {
        self.ms.reset_disk_stats();
    }
}

// ---- repl (and, through LinkMetrics, snap) ----------------------------------

pub struct Repl {
    eng: ReplEngine,
}

impl Repl {
    pub fn new() -> Repl {
        Repl {
            eng: ReplEngine::new(ReplConfig::default()),
        }
    }

    pub fn add_replica(&mut self, name: &str, net: NetConfig) {
        self.eng
            .add_replica(name, net)
            .expect("replica names are distinct");
    }

    pub fn tick(&mut self, vt: &mut Vt, primary: &mut Snap) -> TickReport {
        let s = trace::begin("repl.tick", vt.now().as_ns());
        let report = self
            .eng
            .tick(vt, &mut primary.ms)
            .expect("no faults are injected");
        trace::end(s, vt.now().as_ns());
        report
    }

    /// Ticks until every replica is caught up; panics if `limit` of
    /// virtual time does not suffice (the links are lossy, not dead).
    pub fn settle(&mut self, vt: &mut Vt, primary: &mut Snap, limit: Nanos) {
        let s = trace::begin("repl.settle", vt.now().as_ns());
        let caught_up = self
            .eng
            .settle(vt, &mut primary.ms, limit)
            .expect("no faults are injected");
        trace::end(s, vt.now().as_ns());
        assert!(caught_up, "replicas did not catch up within {limit}");
    }

    pub fn link_metrics(&self, name: &str) -> LinkMetrics {
        *self.eng.link_metrics(name).expect("attached replica")
    }

    /// `(count, p50 ns, p99 ns)` of the link's `repl_ack_lag` meter
    /// (snapshot pinned → acknowledged), cumulative since attach.
    pub fn ack_lag(&self, name: &str) -> (u64, u64, u64) {
        meter(self.eng.link_meters(name), "repl_ack_lag")
    }

    /// `(down, up)` raw network counters of a link.
    pub fn link_net_stats(&self, name: &str) -> (LinkStats, LinkStats) {
        self.eng.link_net_stats(name).expect("attached replica")
    }

    /// Fails over to `name`; returns its device and clock.
    pub fn promote(self, name: &str) -> (Disk, Vt) {
        let s = trace::begin("repl.promote", 0);
        let p = self.eng.promote(name).expect("attached replica");
        trace::end(s, p.vt.now().as_ns());
        (p.disk, p.vt)
    }
}

// ---- counters snapshotted at window boundaries ------------------------------

/// One vm / store / disk counter of a `MemSnap`.
#[derive(Debug, Clone, Copy)]
pub enum C {
    MinorFaults,
    CowFaults,
    Shootdowns,
    PteResets,
    Commits,
    DeltaCommits,
    PagesWritten,
    NodesWritten,
    BatchCommits,
    BatchedObjects,
    CacheHits,
    CacheMisses,
    CacheEvictions,
    Hydrations,
    DiskReads,
    DiskWrites,
    DiskBytesWritten,
    DiskMergedSubmissions,
    DiskMergedParts,
}

const COUNTERS: usize = C::DiskMergedParts as usize + 1;
/// Counters from `DiskReads` on live in the device and survive a
/// crash; the ones before it restart from zero with each `MemSnap`.
const FIRST_DISK: usize = C::DiskReads as usize;

/// Every [`C`] of one `MemSnap`, read at a window boundary; per-layer
/// ratios are differences between two of these.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters([u64; COUNTERS]);

impl Counters {
    pub fn of(ms: &MemSnap) -> Counters {
        let vm = ms.vm().stats();
        let store = ms.store().stats();
        let io = ms.disk().stats();
        Counters([
            vm.minor_faults,
            vm.cow_faults,
            vm.shootdowns,
            vm.pte_resets,
            store.commits,
            store.delta_commits,
            store.pages_written,
            store.nodes_written,
            store.batch_commits,
            store.batched_objects,
            store.cache_hits,
            store.cache_misses,
            store.cache_evictions,
            store.hydrations,
            io.reads(),
            io.writes(),
            io.bytes_written(),
            io.merged_submissions(),
            io.merged_parts(),
        ])
    }

    pub fn get(&self, c: C) -> f64 {
        self.0[c as usize] as f64
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    /// The baseline for the `MemSnap` restored from this one's device
    /// after a crash: device counters carry over, the rest restart.
    pub fn after_restart(&self) -> Counters {
        Counters(std::array::from_fn(|i| {
            if i >= FIRST_DISK {
                self.0[i]
            } else {
                0
            }
        }))
    }
}

/// Disk figures that only exist as whole-history aggregates in
/// `IoStats` (a histogram and a running mean cannot be subtracted);
/// the benchmark resets device statistics at the end of warm-up so
/// they cover the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskLatency {
    pub write_p50_us: f64,
    pub write_p99_us: f64,
    pub read_p50_us: f64,
    pub avg_queue_depth: f64,
}

impl DiskLatency {
    pub fn of(ms: &MemSnap) -> DiskLatency {
        let io = ms.disk().stats();
        // An empty histogram's percentile is zero.
        DiskLatency {
            write_p50_us: io.write_latency().percentile(50.0).as_us_f64(),
            write_p99_us: io.write_latency().percentile(99.0).as_us_f64(),
            read_p50_us: io.read_latency().percentile(50.0).as_us_f64(),
            avg_queue_depth: io.avg_queue_depth(),
        }
    }
}

/// `(count, p50 ns, p99 ns)` of one of the program's own named meters;
/// zeroes if it never recorded.
fn meter(meters: Option<&Meters>, name: &str) -> (u64, u64, u64) {
    meters.and_then(|m| m.get(name)).map_or((0, 0, 0), |l| {
        (
            l.count(),
            l.percentile(50.0).as_ns(),
            l.percentile(99.0).as_ns(),
        )
    })
}

/// `(count, p50 ns, p99 ns)` of the core's own `msnap_persist` meter.
pub fn persist_meter(ms: &MemSnap) -> (u64, u64, u64) {
    meter(Some(ms.meters()), "msnap_persist")
}

pub fn scrub_totals(ms: &MemSnap) -> ScrubStats {
    ms.store().scrub_stats()
}
