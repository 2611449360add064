//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] maps write-submission indices (the 0-based sequence
//! number the [`Disk`](crate::Disk) assigns to every `writev_at` /
//! `write_block_at` call) to [`Fault`]s. Install it with
//! [`Disk::set_fault_plan`](crate::Disk::set_fault_plan); the device
//! consults the plan on every submission and injects the scheduled fault.
//! Plans are plain data — two runs of a deterministic workload with the
//! same plan observe byte-identical behaviour, which is what makes fault
//! scenarios replayable in tests.
//!
//! The fault model (DESIGN.md "Fault model & error semantics"):
//!
//! - **Torn writes** ([`Fault::Torn`]): the device acknowledges the whole
//!   submission but only a prefix of its blocks ever becomes durable. The
//!   lie is invisible until a crash — reads against the live device still
//!   see all the data (it sits in the device cache), and the returned
//!   [`WriteToken`](crate::WriteToken) completes normally. Only
//!   [`Disk::crash`](crate::Disk::crash) reveals the loss.
//! - **Silent corruption** ([`Fault::BitFlip`]): one bit of one written
//!   block is flipped on the media. No error is reported; detection is the
//!   job of checksums in the layers above.
//! - **Dropped writes** ([`Fault::Drop`]): the submission fails with
//!   [`IoError::Failed`] and no bytes are applied. `transient: true`
//!   models a retryable condition (the retry is a fresh submission with a
//!   fresh index, which the plan may or may not fault again).
//! - **Latency spikes** ([`Fault::LatencySpike`]): the submission succeeds
//!   but takes `extra` longer — exercising timeout/overlap behaviour
//!   without data loss.
//!
//! Capacity exhaustion is *not* an injected fault: it is a property of the
//! device (`DiskConfig::capacity_blocks`) and surfaces as
//! [`IoError::NoSpace`] on any write beyond the last block.

use std::collections::BTreeMap;

use msnap_sim::Nanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Error returned by a failed write submission.
///
/// Carries enough context for the caller to decide between retrying
/// (transient faults), aborting the commit, or surfacing the error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoError {
    /// The device rejected or lost the submission; nothing was written.
    Failed {
        /// First block of the failed submission.
        block: u64,
        /// Whether an immediate retry may succeed.
        transient: bool,
    },
    /// A block address lies beyond the device capacity.
    NoSpace {
        /// The offending block address.
        block: u64,
        /// The device capacity, in blocks.
        capacity_blocks: u64,
    },
}

impl IoError {
    /// Whether retrying the same submission may succeed.
    ///
    /// Capacity exhaustion is never transient; a dropped write is if the
    /// injected fault said so.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IoError::Failed {
                transient: true,
                ..
            }
        )
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Failed { block, transient } => {
                let kind = if *transient { "transient" } else { "hard" };
                write!(f, "{kind} write failure at block {block}")
            }
            IoError::NoSpace {
                block,
                capacity_blocks,
            } => {
                write!(
                    f,
                    "block {block} beyond device capacity ({capacity_blocks} blocks)"
                )
            }
        }
    }
}

impl std::error::Error for IoError {}

/// One scheduled fault, applied to a single write submission.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Acknowledge the write but make only the first `prefix_blocks`
    /// blocks durable; the tail is lost on the next crash.
    Torn {
        /// Number of leading iov entries that actually persist.
        prefix_blocks: usize,
    },
    /// Flip one bit of the `entry`-th block of the submission after it is
    /// written (silent media corruption).
    BitFlip {
        /// Index into the submission's iov (wrapped into range).
        entry: usize,
        /// Byte offset within the block (wrapped into range).
        byte: usize,
        /// Bit position within the byte (wrapped into range).
        bit: u8,
    },
    /// Fail the submission with [`IoError::Failed`]; nothing is written.
    Drop {
        /// Whether a retry (a later submission) should be allowed to
        /// succeed — reported through [`IoError::is_transient`].
        transient: bool,
    },
    /// Complete the write `extra` later than the latency model says.
    LatencySpike {
        /// Additional service time for the submission.
        extra: Nanos,
    },
}

/// Relative frequencies for randomly generated fault plans.
///
/// Each field is the per-submission probability of that fault; at most one
/// fault is chosen per submission. See [`FaultPlan::seeded`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability of a torn write.
    pub torn: f64,
    /// Probability of a silent bit flip.
    pub bit_flip: f64,
    /// Probability of a dropped write.
    pub drop: f64,
    /// Fraction of dropped writes that are transient (retryable).
    pub transient_fraction: f64,
    /// Probability of a latency spike.
    pub latency_spike: f64,
}

impl FaultProfile {
    /// A light mix of all fault kinds — a few percent per submission.
    pub fn light() -> Self {
        FaultProfile {
            torn: 0.02,
            bit_flip: 0.02,
            drop: 0.03,
            transient_fraction: 0.7,
            latency_spike: 0.03,
        }
    }
}

/// A deterministic schedule of faults, keyed by write-submission index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` for the `io`-th write submission (0-based),
    /// replacing any fault already scheduled there.
    pub fn at(mut self, io: u64, fault: Fault) -> Self {
        self.faults.insert(io, fault);
        self
    }

    /// Generates a random plan for the first `horizon` submissions.
    ///
    /// The plan is a pure function of `(seed, horizon, profile)` — the
    /// same arguments always yield the same plan, so property tests can
    /// shrink on the seed alone.
    pub fn seeded(seed: u64, horizon: u64, profile: &FaultProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for io in 0..horizon {
            let roll: f64 = rng.gen();
            let fault = if roll < profile.torn {
                // The prefix length is wrapped into range at injection
                // time, when the submission size is known.
                Some(Fault::Torn {
                    prefix_blocks: rng.gen_range(0usize..64),
                })
            } else if roll < profile.torn + profile.bit_flip {
                Some(Fault::BitFlip {
                    entry: rng.gen_range(0usize..64),
                    byte: rng.gen_range(0usize..crate::BLOCK_SIZE),
                    bit: rng.gen_range(0u8..8),
                })
            } else if roll < profile.torn + profile.bit_flip + profile.drop {
                Some(Fault::Drop {
                    transient: rng.gen_bool(profile.transient_fraction),
                })
            } else if roll < profile.torn + profile.bit_flip + profile.drop + profile.latency_spike
            {
                Some(Fault::LatencySpike {
                    extra: Nanos::from_us(rng.gen_range(10u64..500)),
                })
            } else {
                None
            };
            if let Some(f) = fault {
                plan.faults.insert(io, f);
            }
        }
        plan
    }

    /// The fault scheduled for submission `io`, if any.
    pub fn fault_for(&self, io: u64) -> Option<&Fault> {
        self.faults.get(&io)
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A fault scheduled against one block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReadFault {
    /// Fail the read with [`IoError::Failed`]; no bytes are transferred.
    Fail {
        /// Whether a retry may succeed, via [`IoError::is_transient`].
        transient: bool,
    },
    /// Silent bit rot: flip one bit of the target block *on the media*
    /// before serving the read. The read itself succeeds — corrupted
    /// bytes come back with `Ok` and the rot persists for every later
    /// read of the block. No error is reported; detection is the job of
    /// the digest layers above.
    BitRot {
        /// Byte offset within the block (wrapped into range).
        byte: usize,
        /// Bit position within the byte (wrapped into range).
        bit: u8,
    },
}

/// A deterministic schedule of *read* faults, keyed by read index.
///
/// The device numbers every block read
/// ([`Disk::try_readv_at`](crate::Disk::try_readv_at) and its one-block
/// case [`Disk::try_read_block`](crate::Disk::try_read_block)) with a
/// 0-based sequence counter, separate from the write `io_seq`: a vectored
/// read consumes one number per block, in iov order, so an index means
/// "the n-th block read" however the reads were batched. A scheduled
/// [`ReadFault::Fail`] fails the submission carrying that block with
/// [`IoError::Failed`] — no bytes are transferred and no time is charged;
/// a [`ReadFault::BitRot`] silently corrupts the media and serves the
/// rotted bytes with `Ok`. The device has no read that bypasses the plan.
///
/// Like [`FaultPlan`], read plans are plain data: the same plan against
/// the same deterministic workload injects the same faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadFaultPlan {
    faults: BTreeMap<u64, ReadFault>,
}

impl ReadFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the `read`-th block read (0-based) to fail;
    /// `transient` is reported through [`IoError::is_transient`].
    pub fn at(mut self, read: u64, transient: bool) -> Self {
        self.faults.insert(read, ReadFault::Fail { transient });
        self
    }

    /// Schedules silent bit rot on the `read`-th block read: the
    /// target block's media is corrupted in place and the read succeeds
    /// with the rotted bytes.
    pub fn rot_at(mut self, read: u64, byte: usize, bit: u8) -> Self {
        self.faults.insert(read, ReadFault::BitRot { byte, bit });
        self
    }

    /// The fault scheduled for the `read`-th block read, if any.
    pub fn fault_for(&self, read: u64) -> Option<ReadFault> {
        self.faults.get(&read).copied()
    }

    /// Number of scheduled read faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A fault injected into a completed (or failed) submission — the
/// injector's audit log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// The write-submission index the fault hit.
    pub io: u64,
    /// The fault that was applied.
    pub fault: Fault,
}

/// Runtime state of fault injection on a device: the plan plus an audit
/// log of faults actually applied.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    log: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            log: Vec::new(),
        }
    }

    /// Looks up the fault for submission `io`, recording it in the audit
    /// log if present.
    pub(crate) fn consult(&mut self, io: u64) -> Option<Fault> {
        let fault = self.plan.fault_for(io).cloned()?;
        self.log.push(InjectedFault {
            io,
            fault: fault.clone(),
        });
        Some(fault)
    }

    /// The faults applied so far, in submission order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.log
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let p = FaultProfile::light();
        let a = FaultPlan::seeded(99, 500, &p);
        let b = FaultPlan::seeded(99, 500, &p);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(100, 500, &p);
        assert_ne!(a, c, "different seeds should differ (500 rolls at ~10%)");
    }

    #[test]
    fn seeded_rates_are_roughly_honoured() {
        let p = FaultProfile::light();
        let plan = FaultPlan::seeded(7, 10_000, &p);
        let total_rate = p.torn + p.bit_flip + p.drop + p.latency_spike;
        let expected = (10_000.0 * total_rate) as usize;
        assert!(
            plan.len() > expected / 2 && plan.len() < expected * 2,
            "{} faults vs ~{expected} expected",
            plan.len()
        );
    }

    #[test]
    fn injector_logs_only_applied_faults() {
        let plan = FaultPlan::new()
            .at(3, Fault::Drop { transient: false })
            .at(5, Fault::Torn { prefix_blocks: 1 });
        let mut inj = FaultInjector::new(plan);
        assert!(inj.consult(0).is_none());
        assert!(inj.consult(3).is_some());
        assert!(inj.consult(4).is_none());
        assert!(inj.consult(5).is_some());
        let ios: Vec<u64> = inj.injected().iter().map(|f| f.io).collect();
        assert_eq!(ios, vec![3, 5]);
    }

    #[test]
    fn transient_only_profile_never_loses_data() {
        // Transient drops and latency spikes only: every fault is
        // recoverable by retrying.
        let profile = FaultProfile {
            torn: 0.0,
            bit_flip: 0.0,
            drop: 0.05,
            transient_fraction: 1.0,
            latency_spike: 0.05,
        };
        let plan = FaultPlan::seeded(1, 2_000, &profile);
        for io in 0..2_000 {
            match plan.fault_for(io) {
                None | Some(Fault::LatencySpike { .. }) | Some(Fault::Drop { transient: true }) => {
                }
                other => panic!("unexpected fault in transient-only plan: {other:?}"),
            }
        }
    }

    #[test]
    fn io_error_display_and_transience() {
        let hard = IoError::Failed {
            block: 9,
            transient: false,
        };
        let soft = IoError::Failed {
            block: 9,
            transient: true,
        };
        let full = IoError::NoSpace {
            block: 100,
            capacity_blocks: 64,
        };
        assert!(!hard.is_transient());
        assert!(soft.is_transient());
        assert!(!full.is_transient());
        assert!(hard.to_string().contains("hard"));
        assert!(soft.to_string().contains("transient"));
        assert!(full.to_string().contains("capacity"));
    }
}
