//! The TATP telecom benchmark (§7.1, Figure 5): an 80% read / 20% write
//! transaction mix over four tables keyed by subscriber id.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One TATP transaction, in the standard mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TatpTxn {
    /// 35%: read a subscriber row.
    GetSubscriberData {
        /// Subscriber id.
        sid: u64,
    },
    /// 10%: read special facility + call forwarding.
    GetNewDestination {
        /// Subscriber id.
        sid: u64,
    },
    /// 35%: read access info.
    GetAccessData {
        /// Subscriber id.
        sid: u64,
    },
    /// 2%: update subscriber + special facility rows.
    UpdateSubscriberData {
        /// Subscriber id.
        sid: u64,
        /// New bit field value.
        bit: u8,
    },
    /// 14%: update the subscriber's location field.
    UpdateLocation {
        /// Subscriber id.
        sid: u64,
        /// New location value.
        location: u32,
    },
    /// 2%: insert a call-forwarding row.
    InsertCallForwarding {
        /// Subscriber id.
        sid: u64,
        /// Start time slot (0, 8, 16).
        start: u8,
    },
    /// 2%: delete a call-forwarding row.
    DeleteCallForwarding {
        /// Subscriber id.
        sid: u64,
        /// Start time slot.
        start: u8,
    },
}

impl TatpTxn {
    /// Whether the transaction writes (must commit durably).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            TatpTxn::UpdateSubscriberData { .. }
                | TatpTxn::UpdateLocation { .. }
                | TatpTxn::InsertCallForwarding { .. }
                | TatpTxn::DeleteCallForwarding { .. }
        )
    }

    /// The subscriber the transaction touches.
    pub fn sid(&self) -> u64 {
        match self {
            TatpTxn::GetSubscriberData { sid }
            | TatpTxn::GetNewDestination { sid }
            | TatpTxn::GetAccessData { sid }
            | TatpTxn::UpdateSubscriberData { sid, .. }
            | TatpTxn::UpdateLocation { sid, .. }
            | TatpTxn::InsertCallForwarding { sid, .. }
            | TatpTxn::DeleteCallForwarding { sid, .. } => *sid,
        }
    }
}

/// The TATP transaction generator over `subscribers` rows.
#[derive(Debug)]
pub struct Tatp {
    subscribers: u64,
    rng: StdRng,
}

impl Tatp {
    /// Creates a generator (1 K – 1 M subscribers in the paper's sweep).
    ///
    /// # Panics
    ///
    /// Panics if `subscribers == 0`.
    pub fn new(subscribers: u64, seed: u64) -> Self {
        assert!(subscribers > 0, "TATP needs subscribers");
        Tatp {
            subscribers,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of subscriber rows.
    pub fn subscribers(&self) -> u64 {
        self.subscribers
    }

    /// Generates the next transaction in the standard mix.
    pub fn next_txn(&mut self) -> TatpTxn {
        let sid = self.rng.gen_range(0..self.subscribers);
        let roll: f64 = self.rng.gen();
        if roll < 0.35 {
            TatpTxn::GetSubscriberData { sid }
        } else if roll < 0.45 {
            TatpTxn::GetNewDestination { sid }
        } else if roll < 0.80 {
            TatpTxn::GetAccessData { sid }
        } else if roll < 0.82 {
            TatpTxn::UpdateSubscriberData {
                sid,
                bit: self.rng.gen_range(0..=1),
            }
        } else if roll < 0.96 {
            TatpTxn::UpdateLocation {
                sid,
                location: self.rng.gen(),
            }
        } else if roll < 0.98 {
            TatpTxn::InsertCallForwarding {
                sid,
                start: self.rng.gen_range(0u8..3) * 8,
            }
        } else {
            TatpTxn::DeleteCallForwarding {
                sid,
                start: self.rng.gen_range(0u8..3) * 8,
            }
        }
    }
}

impl Iterator for Tatp {
    type Item = TatpTxn;

    fn next(&mut self) -> Option<TatpTxn> {
        Some(self.next_txn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_80_20() {
        let mut g = Tatp::new(100_000, 11);
        let n = 50_000;
        let writes = (0..n).filter(|_| g.next_txn().is_write()).count();
        let pct = writes as f64 / n as f64 * 100.0;
        assert!((pct - 20.0).abs() < 1.5, "write mix {pct:.1}%");
    }

    #[test]
    fn sids_stay_in_range() {
        let mut g = Tatp::new(50, 2);
        for _ in 0..1000 {
            assert!(g.next_txn().sid() < 50);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a: Vec<TatpTxn> = Tatp::new(1000, 8).take(32).collect();
        let b: Vec<TatpTxn> = Tatp::new(1000, 8).take(32).collect();
        assert_eq!(a, b);
    }
}
