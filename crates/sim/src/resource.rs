//! The availability-time model for shared hardware: a pool of channels.

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
    channels: Vec<Channel>,
}

/// One channel: the instant it takes new work, and the tag of the work it
/// took last (`None` for untagged work).
#[derive(Debug, Clone, Copy)]
struct Channel {
    free_at: Nanos,
    last: Option<u64>,
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
            channels: vec![
                Channel {
                    free_at: Nanos::ZERO,
                    last: None,
                };
                channels
            ],
        }
    }

    /// Number of channels in the pool.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Schedules `hold` of work starting no earlier than `submit_at` on the
    /// earliest-free channel; returns the completion instant.
    pub fn submit(&mut self, submit_at: Nanos, hold: Nanos) -> Nanos {
        self.place(submit_at, None, |_| hold)
    }

    /// [`ChannelPool::submit`] for work tagged `tag`: `hold` is told
    /// whether the channel's last work carried the same tag and ends
    /// exactly where this work starts — a stream the channel continues
    /// without a new setup.
    pub fn submit_tagged(
        &mut self,
        submit_at: Nanos,
        tag: u64,
        hold: impl FnOnce(bool) -> Nanos,
    ) -> Nanos {
        self.place(submit_at, Some(tag), hold)
    }

    fn place(
        &mut self,
        submit_at: Nanos,
        tag: Option<u64>,
        hold: impl FnOnce(bool) -> Nanos,
    ) -> Nanos {
        // The earliest-free channel, the lowest on a tie. `new` rejects
        // zero channels, so there is one.
        let channel = self
            .channels
            .iter_mut()
            .min_by_key(|c| c.free_at)
            .expect("a pool has a channel");
        let start = submit_at.max(channel.free_at);
        let follows = tag.is_some() && channel.last == tag && channel.free_at == start;
        let done = start + hold(follows);
        *channel = Channel {
            free_at: done,
            last: tag,
        };
        done
    }

    /// Forgets all work past `at`: every channel is free at `at` at the
    /// latest. A power failure at `at` — what was queued or in flight
    /// never happens, so nothing submitted afterwards waits behind it.
    pub fn clamp_to(&mut self, at: Nanos) {
        for channel in &mut self.channels {
            channel.free_at = channel.free_at.min(at);
        }
    }

    /// The instant the earliest-free channel takes new work: a submission
    /// made before it queues, one made at or after it starts at once.
    pub fn free_at(&self) -> Nanos {
        self.channels
            .iter()
            .map(|c| c.free_at)
            .min()
            .unwrap_or(Nanos::ZERO)
    }

    /// The instant all currently queued work completes.
    pub fn drained_at(&self) -> Nanos {
        self.channels
            .iter()
            .map(|c| c.free_at)
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
    fn tagged_work_follows_on_only_from_its_own_tag_ending_where_it_starts() {
        let mut pool = ChannelPool::new(1);
        let mut seen = Vec::new();
        let ten = Nanos::from_us(10);
        for (at, tag) in [(0, 7), (0, 7), (0, 8), (0, 8), (0, 0), (0, 8), (100, 8)] {
            let at = Nanos::from_us(at);
            if tag == 0 {
                pool.submit(at, ten);
                continue;
            }
            pool.submit_tagged(at, tag, |follows| {
                seen.push(follows);
                ten
            });
        }
        // A fresh channel; streams on; another tag; streams on; untagged
        // work came between; a gap.
        assert_eq!(seen, [false, true, false, true, false, false]);
        assert_eq!(pool.drained_at(), Nanos::from_us(110));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn channel_pool_rejects_zero() {
        let _ = ChannelPool::new(0);
    }
}
