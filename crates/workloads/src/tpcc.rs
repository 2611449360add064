//! A TPC-C-style OLTP mix for the PostgreSQL case study (§7.3, Figure 6):
//! sysbench-tpcc's transaction blend (~50% of transactions write), scaled
//! by warehouse count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Districts per warehouse (TPC-C constant).
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;
/// Customers per district (TPC-C: 3000; scaled here).
pub const CUSTOMERS_PER_DISTRICT: u64 = 300;
/// Items in the catalog (TPC-C: 100 000; scaled here).
pub const ITEMS: u64 = 10_000;

/// One TPC-C transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpccTxn {
    /// 45%: insert an order with 5–15 order lines; updates district and
    /// stock rows.
    NewOrder {
        /// Warehouse.
        warehouse: u64,
        /// District within the warehouse.
        district: u64,
        /// Customer placing the order.
        customer: u64,
        /// Ordered items.
        items: Vec<u64>,
    },
    /// 43%: update warehouse/district/customer balances, insert history.
    Payment {
        /// Warehouse.
        warehouse: u64,
        /// District.
        district: u64,
        /// Customer.
        customer: u64,
        /// Payment amount in cents.
        amount: u32,
    },
    /// 4%: read a customer's latest order.
    OrderStatus {
        /// Warehouse.
        warehouse: u64,
        /// District.
        district: u64,
        /// Customer.
        customer: u64,
    },
    /// 4%: deliver pending orders in every district of a warehouse.
    Delivery {
        /// Warehouse.
        warehouse: u64,
    },
    /// 4%: count low-stock items for a district.
    StockLevel {
        /// Warehouse.
        warehouse: u64,
        /// District.
        district: u64,
    },
}

/// The TPC-C transaction generator.
#[derive(Debug)]
pub struct Tpcc {
    warehouses: u64,
    rng: StdRng,
}

impl Tpcc {
    /// Creates a generator over `warehouses` warehouses (the paper uses
    /// 150; scale down for CI).
    ///
    /// # Panics
    ///
    /// Panics if `warehouses == 0`.
    pub fn new(warehouses: u64, seed: u64) -> Self {
        assert!(warehouses > 0, "TPC-C needs warehouses");
        Tpcc {
            warehouses,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of warehouses.
    pub fn warehouses(&self) -> u64 {
        self.warehouses
    }

    /// Generates the next transaction in the standard mix.
    pub fn next_txn(&mut self) -> TpccTxn {
        let warehouse = self.rng.gen_range(0..self.warehouses);
        let district = self.rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        let customer = self.rng.gen_range(0..CUSTOMERS_PER_DISTRICT);
        let roll: f64 = self.rng.gen();
        if roll < 0.45 {
            let n = self.rng.gen_range(5..=15);
            let items = (0..n).map(|_| self.rng.gen_range(0..ITEMS)).collect();
            TpccTxn::NewOrder {
                warehouse,
                district,
                customer,
                items,
            }
        } else if roll < 0.88 {
            TpccTxn::Payment {
                warehouse,
                district,
                customer,
                amount: self.rng.gen_range(100..500_000),
            }
        } else if roll < 0.92 {
            TpccTxn::OrderStatus {
                warehouse,
                district,
                customer,
            }
        } else if roll < 0.96 {
            TpccTxn::Delivery { warehouse }
        } else {
            TpccTxn::StockLevel {
                warehouse,
                district,
            }
        }
    }
}

impl Iterator for Tpcc {
    type Item = TpccTxn;

    fn next(&mut self) -> Option<TpccTxn> {
        Some(self.next_txn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_roughly_half_writes() {
        let mut g = Tpcc::new(10, 3);
        let n = 20_000;
        let writes = (0..n)
            .filter(|_| {
                matches!(
                    g.next_txn(),
                    TpccTxn::NewOrder { .. } | TpccTxn::Payment { .. } | TpccTxn::Delivery { .. }
                )
            })
            .count();
        let pct = writes as f64 / n as f64 * 100.0;
        assert!(
            (pct - 92.0).abs() < 2.0,
            "NewOrder+Payment+Delivery {pct:.1}%"
        );
    }

    #[test]
    fn new_order_has_5_to_15_lines() {
        let mut g = Tpcc::new(5, 4);
        for _ in 0..5000 {
            if let TpccTxn::NewOrder { items, .. } = g.next_txn() {
                assert!((5..=15).contains(&items.len()));
                assert!(items.iter().all(|&i| i < ITEMS));
            }
        }
    }

    #[test]
    fn ids_stay_in_range() {
        let mut g = Tpcc::new(3, 5);
        for _ in 0..2000 {
            match g.next_txn() {
                TpccTxn::NewOrder {
                    warehouse,
                    district,
                    customer,
                    ..
                }
                | TpccTxn::Payment {
                    warehouse,
                    district,
                    customer,
                    ..
                }
                | TpccTxn::OrderStatus {
                    warehouse,
                    district,
                    customer,
                } => {
                    assert!(warehouse < 3);
                    assert!(district < DISTRICTS_PER_WAREHOUSE);
                    assert!(customer < CUSTOMERS_PER_DISTRICT);
                }
                TpccTxn::Delivery { warehouse } => assert!(warehouse < 3),
                TpccTxn::StockLevel {
                    warehouse,
                    district,
                } => {
                    assert!(warehouse < 3);
                    assert!(district < DISTRICTS_PER_WAREHOUSE);
                }
            }
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a: Vec<TpccTxn> = Tpcc::new(8, 6).take(32).collect();
        let b: Vec<TpccTxn> = Tpcc::new(8, 6).take(32).collect();
        assert_eq!(a, b);
    }
}
