//! Scheduling of virtual threads: conservative discrete-event
//! (earliest clock first) or seeded pseudo-random interleaving.

use crate::{Nanos, Vt};

/// What a [`Process`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process has more operations to run.
    Continue,
    /// The process is finished and should not be stepped again.
    Done,
}

/// A virtual-thread workload: a state machine whose [`Process::step`] runs
/// exactly one *atomic* operation (one transaction, one request).
///
/// Atomicity is what makes earliest-clock-first scheduling conservative:
/// shared state (locks, disk queues) observed during a step was fully
/// published by steps of threads with earlier clocks.
pub trait Process {
    /// Runs one operation on the virtual thread `vt`, advancing its clock.
    fn step(&mut self, vt: &mut Vt) -> StepOutcome;
}

impl<F: FnMut(&mut Vt) -> StepOutcome> Process for F {
    fn step(&mut self, vt: &mut Vt) -> StepOutcome {
        self(vt)
    }
}

/// Scheduler over a set of virtual threads, with one of two pick rules.
///
/// [`Scheduler::new`] steps the live thread with the earliest clock (the
/// lowest id on a tie): conservative discrete-event scheduling, which
/// makes timings composable and is what the device model relies on, but
/// explores exactly *one* interleaving per workload.
///
/// [`Scheduler::seeded`] picks the next live thread with a seeded
/// xorshift generator instead, ignoring clocks, so one `u64` seed names a
/// complete schedule: concurrency proofs explore many interleavings of
/// shared in-memory state (lock-free index operations), where the
/// adversary may delay any thread arbitrarily between its atomic steps,
/// and a failing linearizability or recovery check replays exactly by
/// re-running its seed. Workloads that submit disk IO keep the
/// earliest-clock rule.
///
/// # Example
///
/// ```
/// use msnap_sim::{Nanos, Scheduler, StepOutcome, Vt};
///
/// let mut sched = Scheduler::new();
/// for t in 0..4 {
///     let mut remaining = 10;
///     sched.spawn(move |vt: &mut Vt| {
///         vt.advance(Nanos::from_us(5));
///         remaining -= 1;
///         if remaining == 0 { StepOutcome::Done } else { StepOutcome::Continue }
///     });
/// }
/// let threads = sched.run_to_completion();
/// assert!(threads.iter().all(|vt| vt.now() == Nanos::from_us(50)));
/// ```
pub struct Scheduler {
    slots: Vec<Slot>,
    /// The seeded pick's xorshift state; `None` picks the earliest clock.
    xorshift: Option<u64>,
}

struct Slot {
    vt: Vt,
    process: Box<dyn Process>,
    done: bool,
}

impl Scheduler {
    /// Creates an empty earliest-clock-first scheduler.
    pub fn new() -> Self {
        Scheduler {
            slots: Vec::new(),
            xorshift: None,
        }
    }

    /// Creates an empty scheduler whose schedule is a pure function of
    /// `seed`: each step goes to a live thread drawn by a seeded
    /// xorshift64* generator.
    ///
    /// # Example
    ///
    /// ```
    /// use msnap_sim::{Scheduler, StepOutcome, Vt};
    /// use std::cell::RefCell;
    /// use std::rc::Rc;
    ///
    /// let trace = Rc::new(RefCell::new(Vec::new()));
    /// let mut sched = Scheduler::seeded(42);
    /// for t in 0..3u32 {
    ///     let trace = Rc::clone(&trace);
    ///     let mut left = 4;
    ///     sched.spawn(move |_vt: &mut Vt| {
    ///         trace.borrow_mut().push(t);
    ///         left -= 1;
    ///         if left == 0 { StepOutcome::Done } else { StepOutcome::Continue }
    ///     });
    /// }
    /// let (_, schedule) = sched.run_traced();
    /// assert_eq!(*trace.borrow(), schedule); // every step ran, in seed order
    /// ```
    pub fn seeded(seed: u64) -> Self {
        // Splitmix the seed so adjacent seeds give unrelated schedules,
        // and so seed 0 is usable (xorshift state must be non-zero).
        let z = crate::hash::splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        Scheduler {
            slots: Vec::new(),
            xorshift: Some(z | 1),
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

    /// Runs until every process reports [`StepOutcome::Done`]; returns the
    /// final per-thread states (clocks and cost trackers).
    pub fn run_to_completion(self) -> Vec<Vt> {
        self.run_until(Nanos::MAX)
    }

    /// Runs until every live thread's clock has reached `deadline` (threads
    /// stop being stepped once their clock passes it) or every process is
    /// done. Returns the final per-thread states.
    pub fn run_until(mut self, deadline: Nanos) -> Vec<Vt> {
        self.run(deadline, None);
        self.slots.into_iter().map(|s| s.vt).collect()
    }

    /// Like [`Scheduler::run_to_completion`], but also returns the
    /// schedule trace: the thread id stepped at each scheduling decision.
    /// Two runs with the same pick rule (the same seed) and spawn sequence
    /// produce identical traces.
    pub fn run_traced(mut self) -> (Vec<Vt>, Vec<u32>) {
        let mut schedule = Vec::new();
        self.run(Nanos::MAX, Some(&mut schedule));
        (self.slots.into_iter().map(|s| s.vt).collect(), schedule)
    }

    fn run(&mut self, deadline: Nanos, mut trace: Option<&mut Vec<u32>>) {
        loop {
            let live = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done && s.vt.now() < deadline)
                .map(|(i, s)| (i, s.vt.now()));
            let next = match &mut self.xorshift {
                None => live.min_by_key(|(_, now)| *now).map(|(i, _)| i),
                Some(state) => {
                    let live: Vec<usize> = live.map(|(i, _)| i).collect();
                    let n = live.len() as u64;
                    (n > 0).then(|| live[(xorshift64_star(state) % n) as usize])
                }
            };
            let Some(i) = next else { break };
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(i as u32);
            }
            let slot = &mut self.slots[i];
            if slot.process.step(&mut slot.vt) == StepOutcome::Done {
                slot.done = true;
            }
        }
    }
}

/// One xorshift64* draw from `state`.
fn xorshift64_star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimLock;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn run_until_deadline_stops_stepping() {
        let mut sched = Scheduler::new();
        sched.spawn(|vt: &mut Vt| {
            vt.advance(Nanos::from_us(10));
            StepOutcome::Continue
        });
        let threads = sched.run_until(Nanos::from_us(95));
        // Steps at 10us each; the thread crosses 95us on its 10th step.
        assert_eq!(threads[0].now(), Nanos::from_us(100));
    }

    #[test]
    fn earliest_clock_runs_first() {
        // Two threads contend on a lock; the one with the earlier clock must
        // always win, making the interleaving deterministic.
        let lock = Rc::new(RefCell::new(SimLock::new()));
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sched = Scheduler::new();
        for (t, hold_us) in [(0u32, 30u64), (1, 10)] {
            let lock = Rc::clone(&lock);
            let order = Rc::clone(&order);
            let mut steps = 2;
            sched.spawn(move |vt: &mut Vt| {
                let mut l = lock.borrow_mut();
                l.lock(vt);
                vt.advance(Nanos::from_us(hold_us));
                l.unlock(vt);
                order.borrow_mut().push((t, vt.now().as_ns()));
                steps -= 1;
                if steps == 0 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            });
        }
        sched.run_to_completion();
        let order = order.borrow();
        // Completion times are strictly increasing: the lock serializes.
        let times: Vec<u64> = order.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(*times.last().unwrap(), 80_000); // 2*(30+10)us
    }

    /// The schedule `Scheduler::seeded(seed)` gives `threads` threads of
    /// `steps` steps each.
    fn trace_of(seed: u64, threads: u32, steps: u32) -> Vec<u32> {
        let mut sched = Scheduler::seeded(seed);
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
    fn seeded_schedules_are_the_recorded_ones() {
        // Recorded from the seeded scheduler as it has always drawn
        // (splitmix seed expansion, one xorshift64* draw a step): every
        // seed a proof names keeps replaying the interleaving it did.
        let recorded: [(u64, u32, u32, &[u32]); 5] = [
            (0, 3, 4, &[1, 0, 2, 1, 2, 2, 1, 2, 0, 0, 0, 1]),
            (1, 3, 4, &[0, 1, 0, 0, 0, 2, 2, 1, 1, 2, 1, 2]),
            (
                7,
                4,
                5,
                &[0, 0, 1, 2, 2, 0, 1, 3, 0, 3, 3, 2, 3, 1, 1, 3, 1, 2, 0, 2],
            ),
            (42, 2, 6, &[0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1]),
            (
                0xDEAD_BEEF,
                5,
                3,
                &[3, 2, 2, 1, 1, 3, 0, 4, 1, 4, 0, 2, 3, 4, 0],
            ),
        ];
        for (seed, threads, steps, schedule) in recorded {
            assert_eq!(trace_of(seed, threads, steps), schedule, "seed {seed}");
        }
    }

    #[test]
    fn seeded_schedule_is_deterministic_by_seed() {
        assert_eq!(trace_of(7, 4, 16), trace_of(7, 4, 16));
        assert_ne!(trace_of(7, 4, 16), trace_of(8, 4, 16));
    }

    #[test]
    fn seeded_threads_get_all_their_steps() {
        let schedule = trace_of(3, 5, 9);
        assert_eq!(schedule.len(), 45);
        for t in 0..5u32 {
            assert_eq!(schedule.iter().filter(|&&x| x == t).count(), 9);
        }
    }

    #[test]
    fn seeded_done_threads_are_not_stepped_again() {
        // One long and one short thread: the short one must never appear
        // after its final step.
        let counts = Rc::new(RefCell::new([0u32; 2]));
        let mut sched = Scheduler::seeded(11);
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

    #[test]
    fn earliest_clock_trace_breaks_ties_by_lowest_id() {
        let mut sched = Scheduler::new();
        for _ in 0..2 {
            let mut left = 2;
            sched.spawn(move |vt: &mut Vt| {
                vt.advance(Nanos::from_us(1));
                left -= 1;
                if left == 0 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            });
        }
        let (_, schedule) = sched.run_traced();
        assert_eq!(schedule, [0, 1, 0, 1]);
    }

    #[test]
    fn per_thread_costs_survive() {
        let mut sched = Scheduler::new();
        sched.spawn(|vt: &mut Vt| {
            vt.charge(crate::Category::Syscall, Nanos::from_us(1));
            StepOutcome::Done
        });
        let threads = sched.run_to_completion();
        assert_eq!(
            threads[0].costs().get(crate::Category::Syscall),
            Nanos::from_us(1)
        );
    }
}
