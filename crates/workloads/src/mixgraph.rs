//! Meta's MixGraph RocksDB workload (Cao et al., FAST '20), as used in
//! §2 and §7.2: "composed of 84% Get, 14% Put, and 3% Seek requests …
//! Keys are chosen uniformly, while writes are chosen using a generalized
//! Pareto distribution."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::BoundedPareto;

/// Value size: 100 bytes (paper: "100-byte value pairs").
pub const VALUE_SIZE: usize = 100;

/// One MixGraph request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixOp {
    /// Point lookup.
    Get(u64),
    /// Synchronous write.
    Put(u64),
    /// Range scan of `len` keys starting at the key.
    Seek(u64, usize),
}

impl MixOp {
    /// The 100-byte value for a key (deterministic).
    pub fn value_bytes(key: u64) -> [u8; VALUE_SIZE] {
        let mut v = [0u8; VALUE_SIZE];
        let bytes = key.to_le_bytes();
        for (i, b) in v.iter_mut().enumerate() {
            *b = bytes[i % 8].wrapping_add(i as u8);
        }
        v
    }
}

/// The MixGraph request generator.
#[derive(Debug)]
pub struct MixGraph {
    keys: u64,
    pareto: BoundedPareto,
    rng: StdRng,
}

impl MixGraph {
    /// Creates a generator over `keys` distinct keys (20 M in the paper;
    /// scale down for CI).
    pub fn new(keys: u64, seed: u64) -> Self {
        MixGraph {
            keys,
            pareto: BoundedPareto::new(keys),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Generates the next request.
    pub fn next_op(&mut self) -> MixOp {
        let roll: f64 = self.rng.gen();
        if roll < 0.83 {
            MixOp::Get(self.rng.gen_range(0..self.keys))
        } else if roll < 0.97 {
            MixOp::Put(self.pareto.sample(&mut self.rng))
        } else {
            let start = self.rng.gen_range(0..self.keys);
            let len = self.rng.gen_range(4..=32);
            MixOp::Seek(start, len)
        }
    }
}

impl Iterator for MixGraph {
    type Item = MixOp;

    fn next(&mut self) -> Option<MixOp> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_ratios_match_paper() {
        let mut g = MixGraph::new(1_000_000, 5);
        let n = 50_000;
        let (mut gets, mut puts, mut seeks) = (0, 0, 0);
        for _ in 0..n {
            match g.next_op() {
                MixOp::Get(_) => gets += 1,
                MixOp::Put(_) => puts += 1,
                MixOp::Seek(..) => seeks += 1,
            }
        }
        let pct = |x: i32| x as f64 / n as f64 * 100.0;
        assert!((pct(gets) - 83.0).abs() < 1.5, "gets {:.1}%", pct(gets));
        assert!((pct(puts) - 14.0).abs() < 1.5, "puts {:.1}%", pct(puts));
        assert!((pct(seeks) - 3.0).abs() < 1.0, "seeks {:.1}%", pct(seeks));
    }

    #[test]
    fn puts_are_pareto_hot() {
        let mut g = MixGraph::new(1_000_000, 6);
        let mut low = 0;
        let mut puts = 0;
        for _ in 0..100_000 {
            if let MixOp::Put(k) = g.next_op() {
                puts += 1;
                if k < 100_000 {
                    low += 1;
                }
            }
        }
        assert!(low as f64 > puts as f64 * 0.5, "hot puts: {low}/{puts}");
    }

    #[test]
    fn values_differ_per_key() {
        assert_ne!(MixOp::value_bytes(1), MixOp::value_bytes(2));
    }

    #[test]
    fn deterministic_by_seed() {
        let a: Vec<MixOp> = MixGraph::new(1000, 9).take(64).collect();
        let b: Vec<MixOp> = MixGraph::new(1000, 9).take(64).collect();
        assert_eq!(a, b);
    }
}
