//! SkipDB workload drivers: MixGraph, the §7.2 consistency torture
//! test, and KV failover.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use msnap_disk::{Disk, DiskConfig};
use msnap_repl::ReplEngine;
use msnap_sim::{CostTracker, LatencyStats, Nanos, Scheduler, StepOutcome, Vt};
use msnap_skipdb::{Kv, MemSnapKv};
use msnap_workloads::mixgraph::{MixGraph, MixOp};

use crate::replica::{replicas_match, throttled_tick};

/// MixGraph run parameters (paper: 20 M keys, 12 threads; scale down for
/// CI).
#[derive(Debug, Clone)]
pub struct MixGraphConfig {
    /// Distinct keys (the store is pre-filled with all of them).
    pub keys: u64,
    /// Requests each virtual thread executes.
    pub ops_per_thread: u64,
    /// Number of virtual threads.
    pub threads: u32,
    /// RNG seed.
    pub seed: u64,
}

/// Results of a MixGraph run.
#[derive(Debug, Clone)]
pub struct MixGraphReport {
    /// Total requests executed.
    pub ops: u64,
    /// Virtual wall-clock time (latest thread finish).
    pub wall: Nanos,
    /// Throughput in thousands of requests per virtual second.
    pub kops: f64,
    /// Per-request latency distribution.
    pub latency: LatencyStats,
    /// Merged CPU attribution across all threads (Table 1 rows).
    pub costs: CostTracker,
}

/// Pre-fills the store with every key (batched MultiPuts).
pub fn fill<K: Kv>(kv: &mut K, vt: &mut Vt, keys: u64, batch: usize) {
    for start in (0..keys).step_by(batch) {
        kv.multi_put(vt, &pairs(start..keys.min(start + batch as u64)))
            .expect("the fill workload runs without fault injection");
    }
}

/// Runs MixGraph over `cfg.threads` virtual threads sharing `kv`.
/// `start` is the instant the benchmark begins (pass the fill thread's
/// clock so requests do not race the fill phase's device backlog).
pub fn run_mixgraph<K: Kv + 'static>(
    kv: Rc<RefCell<K>>,
    cfg: &MixGraphConfig,
    start: Nanos,
) -> MixGraphReport {
    let latency = Rc::new(RefCell::new(LatencyStats::new()));
    let mut sched = Scheduler::new();
    for t in 0..cfg.threads {
        let kv = Rc::clone(&kv);
        let latency = Rc::clone(&latency);
        let mut gen = MixGraph::new(cfg.keys, cfg.seed.wrapping_add(t as u64));
        let mut remaining = cfg.ops_per_thread;
        sched.spawn(move |vt: &mut Vt| {
            vt.wait_until(start);
            let t0 = vt.now();
            // Request handling outside the storage paths (RocksDB's
            // dispatch, comparators, statistics).
            vt.charge(msnap_sim::Category::OtherUserspace, Nanos::from_ns(1_200));
            match gen.next_op() {
                MixOp::Get(key) => {
                    let _ = kv.borrow_mut().get(vt, key);
                }
                MixOp::Put(key) => {
                    kv.borrow_mut()
                        .put(vt, key, &MixOp::value_bytes(key))
                        .expect("the MixGraph workload runs without fault injection");
                }
                MixOp::Seek(key, len) => {
                    let _ = kv.borrow_mut().seek(vt, key, len);
                }
            }
            latency.borrow_mut().record(vt.now() - t0);
            remaining -= 1;
            if remaining == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        });
    }
    let threads = sched.run_to_completion();
    let end = threads
        .iter()
        .map(|vt| vt.now())
        .max()
        .unwrap_or(Nanos::ZERO);
    let wall = end.saturating_sub(start);
    let mut costs = CostTracker::new();
    for vt in &threads {
        costs.merge(vt.costs());
    }
    let ops = cfg.ops_per_thread * cfg.threads as u64;
    MixGraphReport {
        ops,
        wall,
        kops: ops as f64 / wall.as_secs_f64() / 1_000.0,
        latency: Rc::try_unwrap(latency)
            .expect("driver holds the only reference")
            .into_inner(),
        costs,
    }
}

/// Outcome of the §7.2 torture test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TortureOutcome {
    /// Increment transactions whose commit completed by the crash point.
    pub acked_txns: u64,
    /// Increments applied per transaction.
    pub increments_per_txn: u64,
    /// Sum of all counters recovered after the crash.
    pub recovered_sum: u64,
}

impl TortureOutcome {
    /// The invariant the paper verifies: the recovered counter sum equals
    /// the increments implied by acknowledged transactions.
    pub fn is_consistent(&self) -> bool {
        self.recovered_sum == self.acked_txns * self.increments_per_txn
    }
}

/// The consistency torture test of §7.2 on the MemSnap variant:
/// initialize `keys` zeroed counters, run `threads` virtual threads each
/// committing `txns_per_thread` transactions that increment
/// `keys_per_txn` random counters, crash at `crash_fraction` of the run,
/// restore, and compare the recovered sum with acknowledged work.
pub fn torture_memsnap(
    keys: u64,
    threads: u32,
    txns_per_thread: u64,
    keys_per_txn: u64,
    crash_fraction: f64,
    seed: u64,
) -> TortureOutcome {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut boot = Vt::new(u32::MAX);
    let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), keys * 4 + 64, &mut boot);
    // Initialize all counters to zero, committed before the benchmark.
    let pairs: Vec<(u64, Vec<u8>)> = (0..keys)
        .map(|k| (k, 0u64.to_le_bytes().to_vec()))
        .collect();
    for chunk in pairs.chunks(256) {
        kv.multi_put(&mut boot, chunk)
            .expect("the fill workload runs without fault injection");
    }
    let fill_done = boot.now();

    let kv = Rc::new(RefCell::new(kv));
    let commits: Rc<RefCell<Vec<Nanos>>> = Rc::new(RefCell::new(Vec::new()));
    let mut sched = Scheduler::new();
    for t in 0..threads {
        let kv = Rc::clone(&kv);
        let commits = Rc::clone(&commits);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
        let mut remaining = txns_per_thread;
        sched.spawn(move |vt: &mut Vt| {
            vt.wait_until(fill_done);
            let mut kv = kv.borrow_mut();
            let mut batch = Vec::with_capacity(keys_per_txn as usize);
            let mut picked = std::collections::HashSet::new();
            while picked.len() < keys_per_txn as usize {
                picked.insert(rng.gen_range(0..keys));
            }
            for key in picked {
                let current = kv
                    .get(vt, key)
                    .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                    .unwrap_or(0);
                batch.push((key, (current + 1).to_le_bytes().to_vec()));
            }
            kv.multi_put(vt, &batch)
                .expect("the counter workload runs without fault injection");
            commits.borrow_mut().push(vt.now());
            remaining -= 1;
            if remaining == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        });
    }
    let finished = sched.run_to_completion();
    let end = finished.iter().map(|vt| vt.now()).max().unwrap();

    // Crash somewhere inside the run (the device's rollback journal
    // reconstructs the exact durable image at that instant).
    let span = end.saturating_sub(fill_done).as_ns() as f64;
    let crash_at = fill_done + Nanos::from_ns((span * crash_fraction) as u64);
    let acked_txns = commits.borrow().iter().filter(|&&c| c <= crash_at).count() as u64;

    let kv = Rc::try_unwrap(kv)
        .expect("driver holds the only reference")
        .into_inner();
    let disk = kv.crash(crash_at);

    let mut vt2 = Vt::new(u32::MAX - 1);
    let mut restored =
        MemSnapKv::restore(disk, &mut vt2).expect("the format is durable before the fill");
    let all = restored.seek(&mut vt2, 0, keys as usize + 8);
    let recovered_sum: u64 = all
        .iter()
        .map(|(_, v)| u64::from_le_bytes(v[..8].try_into().unwrap()))
        .sum();

    TortureOutcome {
        acked_txns,
        increments_per_txn: keys_per_txn,
        recovered_sum,
    }
}

/// Parameters of the replicated-KV failover experiment
/// ([`run_replicated_kv`]).
#[derive(Debug, Clone)]
pub struct KvReplConfig {
    /// MultiPut batches committed (and replicated) before the primary is
    /// killed.
    pub batches_before_crash: u64,
    /// Batches the *promoted* primary commits afterwards, with the old
    /// primary re-attached as a replica under this load.
    pub extra_batches: u64,
    /// Keys per MultiPut batch.
    pub keys_per_batch: u64,
    /// Network model of the replication links.
    pub net: msnap_sim::NetConfig,
    /// Replication engine tuning.
    pub repl: msnap_repl::ReplConfig,
}

/// Results of one [`run_replicated_kv`] run.
#[derive(Debug, Clone)]
pub struct KvReplReport {
    /// Batches the old primary committed before it was killed (one more
    /// was committed behind the partition and must not survive failover).
    pub committed_batches: u64,
    /// Whole batches visible on the promoted primary.
    pub visible_batches: u64,
    /// Whether the promoted store is an exact batch prefix: every key of
    /// the visible batches present with the right value, no key of any
    /// later batch, and no torn batch.
    pub prefix_consistent: bool,
    /// Promotion-to-first-read latency on the promoted node's clock.
    pub failover_latency: Nanos,
    /// Full-image ships needed to re-sync the re-attached old primary.
    pub reattach_full_syncs: u64,
    /// Delta ships to the re-attached old primary.
    pub reattach_delta_syncs: u64,
    /// Whether the old primary converged byte for byte with the promoted
    /// primary (its divergent unacknowledged batch fenced away).
    pub reattach_converged: bool,
    /// Live keys on the promoted primary at the end.
    pub final_len: u64,
}

/// The MultiPut batch writing `keys` with their MixGraph values.
pub(crate) fn pairs(keys: Range<u64>) -> Vec<(u64, Vec<u8>)> {
    keys.map(|key| (key, MixOp::value_bytes(key).to_vec()))
        .collect()
}

/// One replicated MultiPut batch; throttles on the engine's lag budget.
fn replicated_batch(
    kv: &mut MemSnapKv,
    vt: &mut Vt,
    eng: &mut ReplEngine,
    batch: u64,
    keys_per_batch: u64,
) {
    kv.multi_put(
        vt,
        &pairs(batch * keys_per_batch..(batch + 1) * keys_per_batch),
    )
    .expect("the replication workload runs without fault injection");
    throttled_tick(vt, eng, kv.memsnap_mut(), |_| {});
}

/// The KV failover experiment: a [`MemSnapKv`] primary
/// replicates MultiPut batches to a standby, the primary is killed with
/// one batch committed locally but unacknowledged behind a partition,
/// and the standby is promoted. The promoted store must be an exact
/// batch prefix of the primary's history (crash-consistent failover: a
/// promoted replica equals some committed primary epoch, and the
/// partitioned batch is gone). The old primary's crashed device then
/// re-attaches as a replica and must converge with the new primary while
/// it keeps committing batches.
pub fn run_replicated_kv(cfg: &KvReplConfig) -> KvReplReport {
    let mut vt = Vt::new(0);
    let capacity = (cfg.batches_before_crash + cfg.extra_batches + 2) * cfg.keys_per_batch * 2 + 64;
    let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), capacity, &mut vt);
    let mut eng = ReplEngine::new(cfg.repl);
    eng.add_replica("standby", cfg.net)
        .expect("the engine is fresh");
    eng.settle(&mut vt, kv.memsnap_mut(), Nanos::from_secs(120))
        .expect("the replication workload runs without fault injection");

    for batch in 0..cfg.batches_before_crash {
        replicated_batch(&mut kv, &mut vt, &mut eng, batch, cfg.keys_per_batch);
    }
    eng.settle(&mut vt, kv.memsnap_mut(), Nanos::from_secs(120))
        .expect("the replication workload runs without fault injection");

    // Kill the primary mid-stream: one more batch commits locally but its
    // delta never crosses the partitioned link.
    eng.set_partitioned("standby", true)
        .expect("the standby is attached");
    replicated_batch(
        &mut kv,
        &mut vt,
        &mut eng,
        cfg.batches_before_crash,
        cfg.keys_per_batch,
    );
    let old_disk = kv.crash(vt.now());

    // Failover: promote the standby and boot a new primary from its
    // fenced device.
    let promo = eng.promote("standby").expect("the standby is attached");
    let mut vt2 = promo.vt;
    let promoted_at = vt2.now();
    let mut kv2 =
        MemSnapKv::restore(promo.disk, &mut vt2).expect("the promoted store holds the memtable");
    let probe = cfg.keys_per_batch.saturating_sub(1);
    let first_read = kv2.get(&mut vt2, probe);
    let failover_latency = vt2.now().saturating_sub(promoted_at);

    // Prefix consistency: the promoted store holds exactly the first N
    // batches for some N ≤ committed — never a torn batch, never the
    // partitioned one.
    let len = kv2.len() as u64;
    let visible_batches = len / cfg.keys_per_batch;
    let mut prefix_consistent = len.is_multiple_of(cfg.keys_per_batch)
        && visible_batches <= cfg.batches_before_crash
        && first_read.as_deref() == Some(&MixOp::value_bytes(probe)[..]);
    for key in 0..visible_batches * cfg.keys_per_batch {
        prefix_consistent &=
            kv2.get(&mut vt2, key).as_deref() == Some(&MixOp::value_bytes(key)[..]);
    }
    prefix_consistent &= kv2
        .get(&mut vt2, visible_batches * cfg.keys_per_batch)
        .is_none();

    // Re-attach the old primary's crashed device as a replica of the new
    // primary; its unacknowledged batch is divergent history the engine
    // must fence away before deltas resume.
    let mut eng2 = ReplEngine::new(cfg.repl);
    let net2 = msnap_sim::NetConfig {
        seed: cfg.net.seed.wrapping_add(1),
        ..cfg.net
    };
    eng2.attach_replica("old-primary", net2, old_disk)
        .expect("the engine is fresh");

    // The promoted primary keeps taking writes while the old one
    // re-syncs under load.
    for extra in 0..cfg.extra_batches {
        replicated_batch(
            &mut kv2,
            &mut vt2,
            &mut eng2,
            cfg.batches_before_crash + 1 + extra,
            cfg.keys_per_batch,
        );
    }
    let settled = eng2
        .settle(&mut vt2, kv2.memsnap_mut(), Nanos::from_secs(120))
        .expect("the replication workload runs without fault injection");

    // Byte-for-byte comparison of the re-attached replica against the
    // new primary's final committed image.
    let matched = replicas_match(
        &mut vt2,
        kv2.memsnap_mut(),
        &mut eng2,
        "memtable",
        &["old-primary"],
    );
    let m = eng2.link_metrics("old-primary").expect("attached");

    KvReplReport {
        committed_batches: cfg.batches_before_crash,
        visible_batches,
        prefix_consistent,
        failover_latency,
        reattach_full_syncs: m.full_syncs,
        reattach_delta_syncs: m.delta_syncs,
        reattach_converged: settled && matched,
        final_len: kv2.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_skipdb::{AuroraKv, BaselineKv};

    fn small_cfg() -> MixGraphConfig {
        MixGraphConfig {
            keys: 2_000,
            ops_per_thread: 150,
            threads: 4,
            seed: 42,
        }
    }

    #[test]
    fn mixgraph_runs_on_memsnap() {
        let mut vt = Vt::new(u32::MAX);
        let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 16_384, &mut vt);
        fill(&mut kv, &mut vt, 2_000, 256);
        let report = run_mixgraph(Rc::new(RefCell::new(kv)), &small_cfg(), vt.now());
        assert_eq!(report.ops, 600);
        assert!(report.kops > 0.0);
        assert_eq!(report.latency.count(), 600);
    }

    /// The headline Table 9 ordering: memsnap > baseline > aurora
    /// throughput.
    #[test]
    fn table9_throughput_ordering() {
        let cfg = small_cfg();

        let mut vt = Vt::new(u32::MAX);
        let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 16_384, &mut vt);
        fill(&mut kv, &mut vt, cfg.keys, 256);
        let memsnap = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());

        let mut vt = Vt::new(u32::MAX);
        let mut kv = BaselineKv::format(Disk::new(DiskConfig::paper()), 8 << 20, &mut vt);
        fill(&mut kv, &mut vt, cfg.keys, 256);
        let baseline = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());

        let mut vt = Vt::new(u32::MAX);
        let mut kv = AuroraKv::format(Disk::new(DiskConfig::paper()), 16_384, cfg.threads, &mut vt);
        fill(&mut kv, &mut vt, cfg.keys, 256);
        let aurora = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());

        assert!(
            memsnap.kops > baseline.kops,
            "memsnap {:.1} kops vs baseline {:.1} kops",
            memsnap.kops,
            baseline.kops
        );
        assert!(
            baseline.kops > aurora.kops,
            "baseline {:.1} kops vs aurora {:.1} kops",
            baseline.kops,
            aurora.kops
        );
        // Aurora's gap should be large (paper: 4x vs memsnap).
        assert!(
            memsnap.kops / aurora.kops > 2.0,
            "memsnap/aurora ratio {:.1}",
            memsnap.kops / aurora.kops
        );
    }

    #[test]
    fn torture_test_is_consistent_at_various_crash_points() {
        for crash_fraction in [0.25, 0.5, 0.9] {
            let outcome = torture_memsnap(200, 4, 10, 5, crash_fraction, 7);
            assert!(
                outcome.is_consistent(),
                "crash at {crash_fraction}: {outcome:?}"
            );
            assert!(outcome.acked_txns > 0, "crash too early to be interesting");
        }
    }
}
