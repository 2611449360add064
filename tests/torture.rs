//! The §7.2 consistency torture test at integration scale: concurrent
//! increment transactions, a crash, and the acknowledged-work invariant —
//! across several seeds and crash points.
//!
//! Paper: "Each thread creates a transaction that randomly selects 100
//! keys and increments each of their values ... We load the on-disk data
//! to a new instance and verify that the values sum up to the correct
//! amount."

use msnap_bench::skipdb::torture_memsnap;

#[test]
fn torture_many_seeds_and_crash_points() {
    for seed in [1u64, 17, 99] {
        for crash_fraction in [0.1, 0.5, 0.95] {
            let outcome = torture_memsnap(400, 8, 12, 10, crash_fraction, seed);
            assert!(
                outcome.is_consistent(),
                "seed {seed}, crash at {crash_fraction}: {outcome:?}"
            );
        }
    }
}

#[test]
fn torture_large_transactions() {
    // Wider transactions (50 keys) stress multi-page atomic commits.
    let outcome = torture_memsnap(600, 6, 8, 50, 0.6, 31);
    assert!(outcome.is_consistent(), "{outcome:?}");
    assert!(outcome.acked_txns > 0);
}

#[test]
fn torture_no_crash_preserves_everything() {
    let outcome = torture_memsnap(300, 4, 10, 10, 1.0, 7);
    assert!(outcome.is_consistent(), "{outcome:?}");
    assert_eq!(
        outcome.acked_txns, 40,
        "a crash after the run acknowledges every transaction"
    );
}
