//! A crash-safe bank ledger on the SQLite case study (§7.1).
//!
//! Money moves between accounts in transactions; the invariant (total
//! balance) must hold through an arbitrary power failure, with no WAL
//! anywhere in the stack.
//!
//! Run with: `cargo run --example sql_ledger`

use msnap_disk::{Disk, DiskConfig};
use msnap_litedb::{LiteDb, MemSnapBackend};
use msnap_sim::{Nanos, Vt};

const ACCOUNTS: u64 = 64;
const OPENING_BALANCE: u64 = 1_000;

fn balance(db: &mut LiteDb, vt: &mut Vt, table: msnap_litedb::TableId, account: u64) -> u64 {
    db.get(vt, table, account)
        .and_then(|v| {
            v.get(..8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
        })
        .unwrap_or(0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut vt = Vt::new(0);
    let backend = MemSnapBackend::format_with_capacity(
        Disk::new(DiskConfig::paper()),
        "ledger.db",
        4096,
        &mut vt,
    );
    let mut db = LiteDb::open(Box::new(backend), &mut vt).unwrap();
    let accounts = db.create_table(&mut vt, "accounts");
    let thread = vt.id();

    // Seed the ledger.
    db.begin(&mut vt, thread);
    for a in 0..ACCOUNTS {
        db.put(&mut vt, thread, accounts, a, &OPENING_BALANCE.to_le_bytes());
    }
    db.commit(&mut vt, thread)?;
    println!("opened {ACCOUNTS} accounts with {OPENING_BALANCE} each");

    // Shuffle money around; every transfer is a durable transaction.
    let mut committed_transfers = 0;
    let mut crash_at = Nanos::ZERO;
    for i in 0..200u64 {
        let from = (i * 17) % ACCOUNTS;
        let to = (i * 31 + 7) % ACCOUNTS;
        if from == to {
            continue;
        }
        let amount = 1 + i % 50;
        db.begin(&mut vt, thread);
        let from_balance = balance(&mut db, &mut vt, accounts, from);
        let to_balance = balance(&mut db, &mut vt, accounts, to);
        if from_balance >= amount {
            db.put(
                &mut vt,
                thread,
                accounts,
                from,
                &(from_balance - amount).to_le_bytes(),
            );
            db.put(
                &mut vt,
                thread,
                accounts,
                to,
                &(to_balance + amount).to_le_bytes(),
            );
        }
        db.commit(&mut vt, thread)?;
        committed_transfers += 1;
        if i == 149 {
            crash_at = vt.now(); // we'll pull the plug right here
        }
    }
    println!("committed {committed_transfers} transfers; pulling the plug mid-history...");

    // Crash at a point in the middle of the run: the device rolls back to
    // exactly what was durable at that instant.
    let backend = db
        .into_backend()
        .into_any()
        .downcast::<MemSnapBackend>()
        .map_err(|_| "the ledger runs on the MemSnap backend")?;
    let disk = backend.crash(crash_at);

    // Recover and audit.
    let mut vt2 = Vt::new(1);
    let restored = MemSnapBackend::restore(disk, "ledger.db", &mut vt2);
    let mut db2 = LiteDb::open(Box::new(restored), &mut vt2).unwrap();
    let accounts2 = db2.create_table(&mut vt2, "accounts");
    let total: u64 = (0..ACCOUNTS)
        .map(|a| balance(&mut db2, &mut vt2, accounts2, a))
        .sum();
    println!("recovered ledger total: {total}");
    assert_eq!(
        total,
        ACCOUNTS * OPENING_BALANCE,
        "money must be conserved through the crash"
    );
    println!("invariant holds: no money created or destroyed ✓");
    Ok(())
}
