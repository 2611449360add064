//! The availability-time model for shared hardware: a pool of channels.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Nanos;

/// A pool of `n` identical channels (e.g. NVMe submission queues backed by
/// independent flash channels); work is placed on the earliest-free channel.
///
/// This is what makes multiple outstanding IOs overlap: with queue depth
/// above one, MemSnap's scatter/gather writes saturate the device, which is
/// why the paper's Table 6 shows `msnap_persist` beating one-outstanding-IO
/// direct writes at large sizes.
#[derive(Debug, Clone)]
pub struct ChannelPool {
    free_at: BinaryHeap<Reverse<Nanos>>,
}

impl ChannelPool {
    /// Creates a pool of `channels` channels, all free immediately.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel pool needs at least one channel");
        ChannelPool {
            free_at: (0..channels).map(|_| Reverse(Nanos::ZERO)).collect(),
        }
    }

    /// Number of channels in the pool.
    pub fn channels(&self) -> usize {
        self.free_at.len()
    }

    /// Schedules `hold` of work starting no earlier than `submit_at` on the
    /// earliest-free channel; returns the completion instant.
    pub fn submit(&mut self, submit_at: Nanos, hold: Nanos) -> Nanos {
        // Invariant: `new` rejects zero channels and every pop below is
        // paired with a push, so the heap is never empty here; an empty
        // pool would only mean an idle channel at time zero anyway.
        let earliest = match self.free_at.pop() {
            Some(Reverse(t)) => t,
            None => Nanos::ZERO,
        };
        let start = submit_at.max(earliest);
        let done = start + hold;
        self.free_at.push(Reverse(done));
        done
    }

    /// Forgets all work past `at`: every channel is free at `at` at the
    /// latest. A power failure at `at` — what was queued or in flight
    /// never happens, so nothing submitted afterwards waits behind it.
    pub fn clamp_to(&mut self, at: Nanos) {
        self.free_at = self
            .free_at
            .drain()
            .map(|Reverse(t)| Reverse(t.min(at)))
            .collect();
    }

    /// The instant the earliest-free channel takes new work: a submission
    /// made before it queues, one made at or after it starts at once.
    pub fn free_at(&self) -> Nanos {
        self.free_at.peek().map_or(Nanos::ZERO, |Reverse(t)| *t)
    }

    /// The instant all currently queued work completes.
    pub fn drained_at(&self) -> Nanos {
        self.free_at
            .iter()
            .map(|Reverse(t)| *t)
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pool_overlaps_work() {
        let mut pool = ChannelPool::new(2);
        let d1 = pool.submit(Nanos::ZERO, Nanos::from_us(10));
        let d2 = pool.submit(Nanos::ZERO, Nanos::from_us(10));
        let d3 = pool.submit(Nanos::ZERO, Nanos::from_us(10));
        assert_eq!(d1, Nanos::from_us(10));
        assert_eq!(d2, Nanos::from_us(10));
        assert_eq!(d3, Nanos::from_us(20)); // queues behind one of the two
        assert_eq!(pool.drained_at(), Nanos::from_us(20));
    }

    #[test]
    fn clamp_forgets_queued_work_but_not_finished_work() {
        let mut pool = ChannelPool::new(2);
        pool.submit(Nanos::ZERO, Nanos::from_us(5));
        for _ in 0..4 {
            pool.submit(Nanos::from_us(10), Nanos::from_us(10));
        }
        assert_eq!(pool.drained_at(), Nanos::from_us(30));
        pool.clamp_to(Nanos::from_us(12));
        assert_eq!(pool.drained_at(), Nanos::from_us(12));
        // Both channels take new work at once, from the clamp instant.
        assert_eq!(
            pool.submit(Nanos::from_us(12), Nanos::from_us(1)),
            Nanos::from_us(13)
        );
        assert_eq!(
            pool.submit(Nanos::from_us(12), Nanos::from_us(1)),
            Nanos::from_us(13)
        );
        // A channel already idle before the clamp stays where it was.
        let mut idle = ChannelPool::new(1);
        idle.submit(Nanos::ZERO, Nanos::from_us(3));
        idle.clamp_to(Nanos::from_us(12));
        assert_eq!(idle.drained_at(), Nanos::from_us(3));
    }

    #[test]
    fn free_at_is_the_earliest_free_channel() {
        let mut pool = ChannelPool::new(2);
        assert_eq!(pool.free_at(), Nanos::ZERO, "an idle pool is free now");
        pool.submit(Nanos::ZERO, Nanos::from_us(30));
        assert_eq!(pool.free_at(), Nanos::ZERO, "one channel still idle");
        pool.submit(Nanos::ZERO, Nanos::from_us(10));
        assert_eq!(pool.free_at(), Nanos::from_us(10));
        // Work submitted before `free_at` starts at it: the peek is the
        // instant `submit` would begin service.
        assert_eq!(
            pool.submit(Nanos::from_us(4), Nanos::from_us(5)),
            Nanos::from_us(15)
        );
        assert_eq!(pool.free_at(), Nanos::from_us(15));
        pool.clamp_to(Nanos::from_us(12));
        assert_eq!(pool.free_at(), Nanos::from_us(12));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn channel_pool_rejects_zero() {
        let _ = ChannelPool::new(0);
    }
}
