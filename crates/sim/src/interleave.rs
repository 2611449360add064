//! Seeded pseudo-random interleaving of virtual threads.
//!
//! The conservative [`Scheduler`](crate::Scheduler) always steps the thread
//! with the earliest clock, which makes timings composable but explores
//! exactly *one* interleaving per workload. Concurrency proofs need the
//! opposite: many different thread schedules, each reproducible. The
//! [`InterleaveSched`] picks the next runnable thread with a seeded
//! xorshift generator, so a single `u64` seed names a complete schedule —
//! a failing linearizability or recovery check can be replayed exactly by
//! re-running its seed.
//!
//! Virtual clocks are *not* used for scheduling here: a thread whose clock
//! is far ahead may still be stepped before one that is behind. That is
//! deliberate — the scheduler explores logical interleavings of shared
//! in-memory state (lock-free index operations), where the adversary may
//! delay any thread arbitrarily between its atomic steps. Workloads that
//! submit disk IO should keep using the conservative scheduler, whose
//! clock ordering the device model relies on.
//!
//! # Example
//!
//! ```
//! use msnap_sim::{InterleaveSched, StepOutcome, Vt};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let trace = Rc::new(RefCell::new(Vec::new()));
//! let mut sched = InterleaveSched::new(42);
//! for t in 0..3u32 {
//!     let trace = Rc::clone(&trace);
//!     let mut left = 4;
//!     sched.spawn(move |_vt: &mut Vt| {
//!         trace.borrow_mut().push(t);
//!         left -= 1;
//!         if left == 0 { StepOutcome::Done } else { StepOutcome::Continue }
//!     });
//! }
//! sched.run_to_completion();
//! assert_eq!(trace.borrow().len(), 12); // every step ran, in seed order
//! ```

use crate::{Process, StepOutcome, Vt};

/// A seeded pseudo-random interleaving scheduler. See the module docs.
pub struct InterleaveSched {
    slots: Vec<Slot>,
    state: u64,
    schedule: Vec<u32>,
}

struct Slot {
    vt: Vt,
    process: Box<dyn Process>,
    done: bool,
}

impl InterleaveSched {
    /// Creates an empty scheduler whose schedule is a pure function of
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        // Splitmix the seed so adjacent seeds give unrelated schedules,
        // and so seed 0 is usable (xorshift state must be non-zero).
        let z = crate::hash::splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        InterleaveSched {
            slots: Vec::new(),
            state: z | 1,
            schedule: Vec::new(),
        }
    }

    /// Adds a virtual thread running `process`; ids are assigned in spawn
    /// order starting at zero.
    pub fn spawn<P: Process + 'static>(&mut self, process: P) {
        let id = self.slots.len() as u32;
        self.slots.push(Slot {
            vt: Vt::new(id),
            process: Box::new(process),
            done: false,
        });
    }

    /// One xorshift64* draw.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Runs until every process reports [`StepOutcome::Done`]; returns the
    /// final per-thread states. The schedule trace is discarded — callers
    /// that need it (replaying a failing proof by seed) use
    /// [`InterleaveSched::run_traced`] instead.
    pub fn run_to_completion(mut self) -> Vec<Vt> {
        self.run();
        self.slots.into_iter().map(|s| s.vt).collect()
    }

    /// Like [`InterleaveSched::run_to_completion`], but also returns the
    /// schedule trace: the thread id stepped at each scheduling decision.
    /// Two runs with the same seed and spawn sequence produce identical
    /// traces.
    pub fn run_traced(mut self) -> (Vec<Vt>, Vec<u32>) {
        self.run();
        let schedule = std::mem::take(&mut self.schedule);
        (self.slots.into_iter().map(|s| s.vt).collect(), schedule)
    }

    fn run(&mut self) {
        loop {
            let live: Vec<usize> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done)
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                break;
            }
            let pick = live[(self.next_u64() % live.len() as u64) as usize];
            self.schedule.push(pick as u32);
            let slot = &mut self.slots[pick];
            if slot.process.step(&mut slot.vt) == StepOutcome::Done {
                slot.done = true;
            }
        }
    }
}

impl std::fmt::Debug for InterleaveSched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterleaveSched")
            .field("threads", &self.slots.len())
            .field("decisions", &self.schedule.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn trace_of(seed: u64, threads: u32, steps: u32) -> Vec<u32> {
        let mut sched = InterleaveSched::new(seed);
        for _ in 0..threads {
            let mut left = steps;
            sched.spawn(move |_vt: &mut Vt| {
                left -= 1;
                if left == 0 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            });
        }
        let (_, schedule) = sched.run_traced();
        schedule
    }

    #[test]
    fn schedule_is_deterministic_by_seed() {
        assert_eq!(trace_of(7, 4, 16), trace_of(7, 4, 16));
        assert_ne!(trace_of(7, 4, 16), trace_of(8, 4, 16));
    }

    #[test]
    fn every_thread_gets_all_its_steps() {
        let schedule = trace_of(3, 5, 9);
        assert_eq!(schedule.len(), 45);
        for t in 0..5u32 {
            assert_eq!(schedule.iter().filter(|&&x| x == t).count(), 9);
        }
    }

    #[test]
    fn done_threads_are_not_stepped_again() {
        // One long and one short thread: the short one must never appear
        // after its final step.
        let counts = Rc::new(RefCell::new([0u32; 2]));
        let mut sched = InterleaveSched::new(11);
        for (t, steps) in [(0usize, 40u32), (1, 2)] {
            let counts = Rc::clone(&counts);
            let mut left = steps;
            sched.spawn(move |_vt: &mut Vt| {
                counts.borrow_mut()[t] += 1;
                left -= 1;
                if left == 0 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            });
        }
        sched.run_to_completion();
        assert_eq!(*counts.borrow(), [40, 2]);
    }

    #[test]
    fn seeds_explore_different_interleavings() {
        // Across a handful of seeds, at least two distinct schedules
        // appear (the space has 12!/(4!)^3 ≫ 5 members).
        let traces: Vec<Vec<u32>> = (0..5).map(|s| trace_of(s, 3, 4)).collect();
        assert!(traces.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn seed_zero_is_usable() {
        let schedule = trace_of(0, 2, 3);
        assert_eq!(schedule.len(), 6);
    }
}
