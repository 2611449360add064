//! The multi-thread group-commit driver, over LiteDB or SkipDB.
//!
//! Both databases run the same step machine; each supplies only its
//! setup and its enqueue / poll / sync-commit calls.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use memsnap::{CommitTicket, MemSnap};
use msnap_disk::{Disk, DiskConfig};
use msnap_litedb::{LiteDb, TableId};
use msnap_sim::{LatencyStats, Nanos, Scheduler, StepOutcome, Vt};
use msnap_skipdb::{Kv, MemSnapKv};

use crate::litedb::{kv_table, memsnap_of, write_keys};
use crate::skipdb::pairs;

/// The database a group-commit run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupDb {
    /// LiteDB B-tree transactions on the MemSnap backend.
    LiteDb,
    /// SkipDB MultiPuts on [`MemSnapKv`].
    SkipDb,
}

impl GroupDb {
    /// The name the ledger and the tables print.
    pub fn name(self) -> &'static str {
        match self {
            GroupDb::LiteDb => "litedb",
            GroupDb::SkipDb => "skipdb",
        }
    }
}

/// Parameters of the multi-thread group-commit driver
/// ([`run_group_commit`]).
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// The database the writers share.
    pub db: GroupDb,
    /// Concurrent writer threads.
    pub threads: u32,
    /// Transactions per thread.
    pub txns_per_thread: u64,
    /// Keys written per transaction.
    pub keys_per_txn: u64,
    /// Group-commit coalescing window.
    pub window: Nanos,
    /// `true`: commit via enqueue/poll through the coalescer. `false`:
    /// each thread commits synchronously (the uncoalesced baseline the
    /// ablation compares against).
    pub coalesced: bool,
}

/// Results of one [`run_group_commit`] run.
#[derive(Debug, Clone)]
pub struct GroupCommitReport {
    /// Transactions committed durably.
    pub txns: u64,
    /// Virtual wall-clock time of the run (max over threads).
    pub wall: Nanos,
    /// Per-transaction commit latency (begin → durable).
    pub commit_latency: LatencyStats,
    /// Disk write submissions during the run.
    pub disk_writes: u64,
    /// Submissions that carried more than one transaction.
    pub merged_submissions: u64,
    /// Transactions carried by merged submissions.
    pub merged_parts: u64,
    /// Mean device write-queue occupancy at submission.
    pub avg_queue_depth: f64,
}

/// What a database supplies to the step machine.
trait Participant {
    /// Writes `keys` as one transaction and enqueues its commit.
    fn enqueue(&mut self, vt: &mut Vt, keys: Range<u64>) -> CommitTicket;
    /// Polls an enqueued commit: `true` once it is durable.
    fn poll(&mut self, vt: &mut Vt, ticket: CommitTicket) -> bool;
    /// Writes `keys` as one transaction and commits it synchronously.
    fn commit(&mut self, vt: &mut Vt, keys: Range<u64>);
    /// The MemSnap instance underneath.
    fn memsnap(&mut self) -> &mut MemSnap;
}

/// One LiteDB table on the MemSnap backend.
struct LiteTable {
    db: LiteDb,
    table: TableId,
}

impl LiteTable {
    /// Formats the database and commits the setup thread's pages (the
    /// fresh table root).
    fn setup(vt0: &mut Vt) -> LiteTable {
        let (mut db, table) = kv_table(vt0, "group.db");
        let setup = vt0.id();
        db.begin(vt0, setup);
        db.commit(vt0, setup)
            .expect("setup runs without fault injection");
        LiteTable { db, table }
    }
}

impl Participant for LiteTable {
    fn enqueue(&mut self, vt: &mut Vt, keys: Range<u64>) -> CommitTicket {
        let thread = write_keys(&mut self.db, vt, self.table, keys);
        self.db
            .commit_enqueue(vt, thread)
            .expect("driver runs without fault injection")
            .expect("memsnap backend issues tickets")
    }

    fn poll(&mut self, vt: &mut Vt, ticket: CommitTicket) -> bool {
        self.db
            .commit_poll(vt, ticket)
            .expect("driver runs without fault injection")
    }

    fn commit(&mut self, vt: &mut Vt, keys: Range<u64>) {
        let thread = write_keys(&mut self.db, vt, self.table, keys);
        self.db
            .commit(vt, thread)
            .expect("driver runs without fault injection");
    }

    fn memsnap(&mut self) -> &mut MemSnap {
        memsnap_of(&mut self.db)
    }
}

/// All threads share the skiplist region, so a coalesced batch is one
/// delta μCheckpoint carrying several MultiPuts; the eager page copy at
/// enqueue is what lets the next thread keep inserting into the same
/// region while the window is open.
impl Participant for MemSnapKv {
    fn enqueue(&mut self, vt: &mut Vt, keys: Range<u64>) -> CommitTicket {
        self.multi_put_enqueue(vt, &pairs(keys))
            .expect("driver runs without fault injection")
    }

    fn poll(&mut self, vt: &mut Vt, ticket: CommitTicket) -> bool {
        self.persist_poll(vt, ticket)
            .expect("driver runs without fault injection")
    }

    fn commit(&mut self, vt: &mut Vt, keys: Range<u64>) {
        self.multi_put(vt, &pairs(keys))
            .expect("driver runs without fault injection");
    }

    fn memsnap(&mut self) -> &mut MemSnap {
        self.memsnap_mut()
    }
}

/// Formats a [`MemSnapKv`] and commits the setup thread's pages (the
/// skiplist head).
fn skipdb_setup(vt0: &mut Vt) -> MemSnapKv {
    let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 1 << 15, vt0);
    kv.multi_put(vt0, &[])
        .expect("setup runs without fault injection");
    kv
}

/// Runs `cfg.threads` writer threads over one MemSnap-backed database,
/// committing through the cross-thread group-commit path (or the
/// uncoalesced sync path, for the ablation baseline). Thread `t` writes
/// keys `t*1_000_000 + i` so every thread's transactions are disjoint.
pub fn run_group_commit(cfg: &GroupCommitConfig) -> GroupCommitReport {
    // Dirty pages belong to their first writer: each setup persists the
    // setup thread's pages so the workers' per-thread commits start from
    // a clean slate.
    let mut vt0 = Vt::new(u32::MAX);
    let mut db: Box<dyn Participant> = match cfg.db {
        GroupDb::LiteDb => Box::new(LiteTable::setup(&mut vt0)),
        GroupDb::SkipDb => Box::new(skipdb_setup(&mut vt0)),
    };
    db.memsnap().set_coalesce_window(cfg.window);
    db.memsnap().reset_disk_stats();

    let db = Rc::new(RefCell::new(db));
    let latency = Rc::new(RefCell::new(LatencyStats::new()));
    let mut sched = Scheduler::new();
    for t in 0..cfg.threads {
        let db = Rc::clone(&db);
        let latency = Rc::clone(&latency);
        let cfg = cfg.clone();
        // One transaction phase per atomic step: write+enqueue in one
        // step, each poll in its own step, so other threads' enqueues
        // interleave into the open window. The poll that blocks until
        // durable ends its step too: running the next transaction in it
        // would carry this thread's clock past batch closes that threads
        // with earlier clocks have yet to reach.
        let mut txn = 0u64;
        let mut pending: Option<(CommitTicket, Nanos)> = None;
        sched.spawn(move |vt: &mut Vt| {
            let mut db = db.borrow_mut();
            if let Some((ticket, t0)) = pending {
                if db.poll(vt, ticket) {
                    latency.borrow_mut().record(vt.now() - t0);
                    pending = None;
                    txn += 1;
                }
                return StepOutcome::Continue;
            }
            if txn >= cfg.txns_per_thread {
                return StepOutcome::Done;
            }
            let t0 = vt.now();
            let base = t as u64 * 1_000_000 + txn * cfg.keys_per_txn;
            let keys = base..base + cfg.keys_per_txn;
            if cfg.coalesced {
                pending = Some((db.enqueue(vt, keys), t0));
            } else {
                db.commit(vt, keys);
                latency.borrow_mut().record(vt.now() - t0);
                txn += 1;
            }
            StepOutcome::Continue
        });
    }
    let vts = sched.run_to_completion();
    let wall = vts.iter().map(|vt| vt.now()).max().unwrap_or(Nanos::ZERO);

    let mut db = db.borrow_mut();
    let disk = db.memsnap().disk().stats();
    let commit_latency = latency.borrow().clone();
    GroupCommitReport {
        txns: cfg.threads as u64 * cfg.txns_per_thread,
        wall,
        commit_latency,
        disk_writes: disk.writes(),
        merged_submissions: disk.merged_submissions(),
        merged_parts: disk.merged_parts(),
        avg_queue_depth: disk.avg_queue_depth(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All threads share one region, so a shared batch is one delta
    /// commit carrying several transactions (no multi-object record),
    /// and the coalescer reports the merge to the device.
    #[test]
    fn group_commit_coalesces_multi_thread_transactions() {
        for db in [GroupDb::LiteDb, GroupDb::SkipDb] {
            let cfg = GroupCommitConfig {
                db,
                threads: 4,
                txns_per_thread: 8,
                keys_per_txn: 4,
                window: Nanos::from_us(32),
                coalesced: true,
            };
            let grouped = run_group_commit(&cfg);
            let solo = run_group_commit(&GroupCommitConfig {
                coalesced: false,
                ..cfg
            });
            assert_eq!(grouped.txns, 32, "{db:?}");
            assert_eq!(grouped.commit_latency.count(), 32, "{db:?}");
            assert!(
                grouped.merged_submissions > 0 && grouped.merged_parts > grouped.merged_submissions,
                "{db:?}: threads actually shared batches: {} merged submissions, {} parts",
                grouped.merged_submissions,
                grouped.merged_parts
            );
            assert!(
                grouped.disk_writes < solo.disk_writes,
                "{db:?}: coalesced {} IOs should beat uncoalesced {}",
                grouped.disk_writes,
                solo.disk_writes
            );
        }
    }
}
