//! The TPC-C driver (Figure 6): runs the sysbench-style mix over any
//! storage variant and reports transactions/s, disk MiB/s and IO/s.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use msnap_disk::{Disk, DiskConfig};
use msnap_sim::{Category, LatencyStats, Nanos, Scheduler, StepOutcome, Vt};
use msnap_workloads::tpcc::{Tpcc, TpccTxn, DISTRICTS_PER_WAREHOUSE, ITEMS};

use msnap_pgdb::{BlockStore, IoReport, PgDb, PgTable, StoreVariant, PG_BLOCK};

/// Table ids in the TPC-C schema.
const T_WAREHOUSE: PgTable = PgTable(0);
const T_DISTRICT: PgTable = PgTable(1);
const T_CUSTOMER: PgTable = PgTable(2);
const T_STOCK: PgTable = PgTable(3);
const T_ORDERS: PgTable = PgTable(4);
const T_ORDER_LINE: PgTable = PgTable(5);
const T_HISTORY: PgTable = PgTable(6);
/// Number of tables.
pub const NTABLES: u32 = 7;

/// Per-transaction userspace CPU outside storage (parser, planner,
/// executor, protocol — PostgreSQL is a heavyweight engine, which is why
/// Figure 6's storage-stack deltas are single-digit percentages).
const TXN_CPU: Nanos = Nanos::from_us(700);

/// TPC-C run parameters (paper: 150 warehouses, 24 connections, 2 min;
/// scaled defaults for CI).
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Warehouses.
    pub warehouses: u64,
    /// Concurrent connections (virtual threads / simulated processes).
    pub connections: usize,
    /// Virtual run duration.
    pub duration: Nanos,
    /// WAL bytes that trigger a checkpoint (file variants). The paper's
    /// testbed checkpoints regularly over a 2-minute run; scaled runs use
    /// a proportionally smaller trigger so the same number of checkpoint
    /// cycles happens.
    pub ckpt_wal_bytes: u64,
    /// Time-based checkpoint trigger (checkpoint_timeout, scaled).
    pub ckpt_interval: Nanos,
    /// RNG seed.
    pub seed: u64,
}

/// Results of one TPC-C run.
#[derive(Debug, Clone)]
pub struct TpccReport {
    /// Transactions completed.
    pub txns: u64,
    /// Transactions per virtual second.
    pub tps: f64,
    /// Virtual duration measured.
    pub wall: Nanos,
    /// Device IO summary (the lower panels of Figure 6).
    pub io: IoReport,
    /// Checkpoints performed (file variants).
    pub checkpoints: u64,
    /// Per-transaction latency.
    pub latency: LatencyStats,
}

/// Mutable benchmark state shared by the connections.
struct TpccState {
    db: PgDb,
    next_o_id: Vec<u64>,
    undelivered: Vec<VecDeque<u64>>,
    next_history: u64,
}

fn district_key(w: u64, d: u64) -> u64 {
    w * DISTRICTS_PER_WAREHOUSE + d
}

fn customer_key(w: u64, d: u64, c: u64) -> u64 {
    district_key(w, d) * 4096 + c
}

fn stock_key(w: u64, i: u64) -> u64 {
    w * ITEMS + i
}

fn row(tag: u8, len: usize) -> Vec<u8> {
    vec![tag; len]
}

/// Builds and populates a TPC-C database over `variant`.
pub fn setup(variant: StoreVariant, warehouses: u64, connections: usize, vt: &mut Vt) -> PgDb {
    let store = BlockStore::new(
        variant,
        Disk::new(DiskConfig::paper()),
        NTABLES,
        connections,
        // Capacity: stock dominates (ITEMS rows/warehouse, ~62 B each).
        (warehouses * ITEMS * 340 / PG_BLOCK as u64 + 8192).next_multiple_of(64),
        vt,
    );
    let mut db = PgDb::new(store, NTABLES);
    let t = vt.id();
    for w in 0..warehouses {
        db.insert(vt, 0, t, T_WAREHOUSE, w, &row(1, 90));
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            db.insert(vt, 0, t, T_DISTRICT, district_key(w, d), &row(2, 95));
            for c in 0..msnap_workloads::tpcc::CUSTOMERS_PER_DISTRICT {
                db.insert(vt, 0, t, T_CUSTOMER, customer_key(w, d, c), &row(3, 655));
            }
            db.commit(vt, 0, t);
        }
        for i in 0..ITEMS {
            db.insert(vt, 0, t, T_STOCK, stock_key(w, i), &row(4, 306));
            if i % 512 == 511 {
                db.commit(vt, 0, t);
            }
        }
        db.commit(vt, 0, t);
    }
    db
}

fn execute_txn(state: &mut TpccState, vt: &mut Vt, conn: usize, txn: &TpccTxn) {
    let thread = vt.id();
    vt.charge(Category::OtherUserspace, TXN_CPU);
    let db = &mut state.db;
    match txn {
        TpccTxn::NewOrder {
            warehouse: w,
            district: d,
            customer: c,
            items,
        } => {
            let dk = district_key(*w, *d);
            let _ = db.read(vt, conn, T_WAREHOUSE, *w);
            let _ = db.read(vt, conn, T_DISTRICT, dk);
            db.update(vt, conn, thread, T_DISTRICT, dk, &row(2, 95));
            let _ = db.read(vt, conn, T_CUSTOMER, customer_key(*w, *d, *c));
            let o_id = state.next_o_id[dk as usize];
            state.next_o_id[dk as usize] += 1;
            let order_key = (dk << 24) | o_id;
            db.insert(vt, conn, thread, T_ORDERS, order_key, &row(5, 48));
            for (line, item) in items.iter().enumerate() {
                let sk = stock_key(*w, *item);
                let _ = db.read(vt, conn, T_STOCK, sk);
                db.update(vt, conn, thread, T_STOCK, sk, &row(4, 306));
                db.insert(
                    vt,
                    conn,
                    thread,
                    T_ORDER_LINE,
                    (order_key << 4) | line as u64,
                    &row(6, 54),
                );
            }
            state.undelivered[dk as usize].push_back(order_key);
            db.commit(vt, conn, thread);
        }
        TpccTxn::Payment {
            warehouse: w,
            district: d,
            customer: c,
            ..
        } => {
            let dk = district_key(*w, *d);
            db.update(vt, conn, thread, T_WAREHOUSE, *w, &row(1, 90));
            db.update(vt, conn, thread, T_DISTRICT, dk, &row(2, 95));
            let ck = customer_key(*w, *d, *c);
            let _ = db.read(vt, conn, T_CUSTOMER, ck);
            db.update(vt, conn, thread, T_CUSTOMER, ck, &row(3, 655));
            let h = state.next_history;
            state.next_history += 1;
            db.insert(vt, conn, thread, T_HISTORY, h, &row(7, 46));
            db.commit(vt, conn, thread);
        }
        TpccTxn::OrderStatus {
            warehouse: w,
            district: d,
            customer: c,
        } => {
            let _ = db.read(vt, conn, T_CUSTOMER, customer_key(*w, *d, *c));
            let dk = district_key(*w, *d);
            if let Some(&order) = state.undelivered[dk as usize].back() {
                let _ = db.read(vt, conn, T_ORDERS, order);
                for line in 0..4 {
                    let _ = db.read(vt, conn, T_ORDER_LINE, (order << 4) | line);
                }
            }
        }
        TpccTxn::Delivery { warehouse: w } => {
            let mut wrote = false;
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                let dk = district_key(*w, d);
                if let Some(order) = state.undelivered[dk as usize].pop_front() {
                    db.update(vt, conn, thread, T_ORDERS, order, &row(5, 48));
                    wrote = true;
                }
            }
            if wrote {
                db.commit(vt, conn, thread);
            }
        }
        TpccTxn::StockLevel {
            warehouse: w,
            district: d,
        } => {
            let _ = db.read(vt, conn, T_DISTRICT, district_key(*w, *d));
            for i in 0..20u64 {
                let _ = db.read(vt, conn, T_STOCK, stock_key(*w, (i * 487) % ITEMS));
            }
        }
    }
}

/// Runs TPC-C over an already-populated database. `start` is the virtual
/// instant the benchmark begins — pass the setup thread's clock so the
/// connections do not race the setup phase's device backlog.
pub fn run(mut db: PgDb, cfg: &TpccConfig, start: Nanos) -> (TpccReport, PgDb) {
    db.store_mut().set_ckpt_wal_bytes(cfg.ckpt_wal_bytes);
    db.store_mut().set_ckpt_interval(cfg.ckpt_interval);
    db.store_mut().reset_io_stats();
    let warehouses = cfg.warehouses;
    let districts = (warehouses * DISTRICTS_PER_WAREHOUSE) as usize;
    let state = Rc::new(RefCell::new(TpccState {
        db,
        next_o_id: vec![0; districts],
        undelivered: vec![VecDeque::new(); districts],
        next_history: 0,
    }));
    let latency = Rc::new(RefCell::new(LatencyStats::new()));
    let txns = Rc::new(RefCell::new(0u64));

    let mut sched = Scheduler::new();
    for conn in 0..cfg.connections {
        let state = Rc::clone(&state);
        let latency = Rc::clone(&latency);
        let txns = Rc::clone(&txns);
        let mut gen = Tpcc::new(warehouses, cfg.seed.wrapping_add(conn as u64));
        let deadline = start + cfg.duration;
        sched.spawn(move |vt: &mut Vt| {
            vt.wait_until(start);
            let t0 = vt.now();
            let txn = gen.next_txn();
            execute_txn(&mut state.borrow_mut(), vt, conn, &txn);
            latency.borrow_mut().record(vt.now() - t0);
            *txns.borrow_mut() += 1;
            if vt.now() >= deadline {
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

    let state = Rc::try_unwrap(state)
        .unwrap_or_else(|_| panic!("driver holds the only reference"))
        .into_inner();
    let total = *txns.borrow();
    let report = TpccReport {
        txns: total,
        tps: total as f64 / wall.as_secs_f64(),
        wall,
        io: state.db.store().io_report(wall),
        checkpoints: state.db.store().checkpoints(),
        latency: Rc::try_unwrap(latency)
            .expect("driver holds the only reference")
            .into_inner(),
    };
    (report, state.db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            connections: 4,
            duration: Nanos::from_ms(250),
            ckpt_wal_bytes: 1 << 20,
            ckpt_interval: Nanos::from_ms(20),
            seed: 11,
        }
    }

    fn run_variant(variant: StoreVariant) -> TpccReport {
        let cfg = small_cfg();
        let mut vt = Vt::new(u32::MAX);
        let db = setup(variant, cfg.warehouses, cfg.connections, &mut vt);
        let (report, _) = run(db, &cfg, vt.now());
        report
    }

    #[test]
    fn tpcc_runs_on_all_variants() {
        for variant in [
            StoreVariant::Baseline,
            StoreVariant::FfsMmap,
            StoreVariant::FfsMmapBufdirect,
            StoreVariant::MemSnap,
        ] {
            let report = run_variant(variant);
            assert!(report.txns > 100, "{variant:?}: only {} txns", report.txns);
            assert!(report.tps > 0.0);
        }
    }

    /// Figure 6's throughput ordering: MemSnap ≥ baseline > mmap >
    /// bufdirect.
    #[test]
    fn fig6_tps_ordering() {
        let baseline = run_variant(StoreVariant::Baseline);
        let mmap = run_variant(StoreVariant::FfsMmap);
        let bufdirect = run_variant(StoreVariant::FfsMmapBufdirect);
        let memsnap = run_variant(StoreVariant::MemSnap);
        assert!(
            memsnap.tps >= baseline.tps * 0.97,
            "memsnap {:.0} vs baseline {:.0}",
            memsnap.tps,
            baseline.tps
        );
        assert!(
            baseline.tps > mmap.tps,
            "baseline {:.0} vs mmap {:.0}",
            baseline.tps,
            mmap.tps
        );
        assert!(
            mmap.tps > bufdirect.tps,
            "mmap {:.0} vs bufdirect {:.0}",
            mmap.tps,
            bufdirect.tps
        );
    }

    /// Figure 6's IO panels: MemSnap writes far fewer bytes (paper: -80%)
    /// but issues more IOs (paper: +26%).
    #[test]
    fn fig6_io_shape() {
        let baseline = run_variant(StoreVariant::Baseline);
        let memsnap = run_variant(StoreVariant::MemSnap);
        // Normalize per transaction.
        let base_bytes = baseline.io.bytes_written as f64 / baseline.txns as f64;
        let ms_bytes = memsnap.io.bytes_written as f64 / memsnap.txns as f64;
        // The paper reports -80% at full scale (30 GiB, cold blocks); at
        // CI scale blocks are hotter so the WAL sees more delta records —
        // the direction still holds clearly.
        // At CI scale blocks are hot, so the baseline's WAL dedups many
        // updates into delta records the paper's cold-block workload
        // would log as full pages; the margin here is correspondingly
        // smaller than the paper's -80%.
        assert!(
            ms_bytes < base_bytes * 0.9,
            "memsnap {ms_bytes:.0} B/txn vs baseline {base_bytes:.0} B/txn"
        );
        let base_iops = baseline.io.iops * baseline.wall.as_secs_f64() / baseline.txns as f64;
        let ms_iops = memsnap.io.iops * memsnap.wall.as_secs_f64() / memsnap.txns as f64;
        assert!(
            ms_iops > base_iops,
            "memsnap {ms_iops:.2} IO/txn vs baseline {base_iops:.2} IO/txn"
        );
    }
}
