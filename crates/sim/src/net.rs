//! A lossy, reordering, bandwidth-limited network link in virtual time.
//!
//! Replication ships epoch deltas between stores that live on different
//! "machines". This module models the wire between them as a
//! unidirectional datagram link driven entirely by the virtual clock:
//! every behavior — serialization delay, propagation latency, jitter,
//! drops, reordering, partitions — is a deterministic function of the
//! link's [`NetConfig`] (including its seed) and the virtual instants at
//! which datagrams are sent, so a replication scenario replays
//! identically for a fixed seed.
//!
//! The link is *not* a queue abstraction over wall-clock sockets: the
//! sender calls [`SimLink::send`] with its current virtual instant, the
//! receiver calls [`SimLink::poll`] with *its* current instant and sees
//! exactly the datagrams whose computed delivery instant has passed.
//!
//! # Example
//!
//! ```
//! use msnap_sim::{Nanos, NetConfig, SimLink};
//!
//! let mut link = SimLink::new(NetConfig::calm(7));
//! link.send(Nanos::ZERO, vec![1, 2, 3]);
//! assert!(link.poll(Nanos::ZERO).is_none(), "latency has not elapsed");
//! let (at, payload) = link.poll(Nanos::from_ms(10)).unwrap();
//! assert_eq!(payload, vec![1, 2, 3]);
//! assert!(at >= NetConfig::calm(7).latency);
//! ```

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Nanos;

/// Parameters of one simulated link direction.
///
/// All randomness (jitter, drops, reorder holds) is drawn from a
/// dedicated RNG seeded by `seed`, so two links with the same config are
/// statistically identical but independent, and one link replays
/// identically across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Seed for the link's private RNG.
    pub seed: u64,
    /// One-way propagation delay added to every datagram.
    pub latency: Nanos,
    /// Uniform extra delay in `[0, jitter]` drawn per datagram.
    pub jitter: Nanos,
    /// Serialization cost: the sender's interface transmits one byte
    /// every `ns_per_byte` nanoseconds, and datagrams queue behind each
    /// other on the interface (bandwidth sharing).
    pub ns_per_byte: u64,
    /// Probability a datagram is silently dropped in flight.
    pub drop_rate: f64,
    /// Probability a datagram is held back an extra [`NetConfig::reorder_hold`],
    /// letting datagrams sent after it overtake it.
    pub reorder_rate: f64,
    /// Extra delay applied to reordered datagrams.
    pub reorder_hold: Nanos,
}

impl NetConfig {
    /// A fast, reliable datacenter-style link: 50 μs one-way latency,
    /// 5 μs jitter, ~1 GB/s, no loss, no reordering.
    pub fn calm(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            latency: Nanos::from_us(50),
            jitter: Nanos::from_us(5),
            ns_per_byte: 1,
            drop_rate: 0.0,
            reorder_rate: 0.0,
            reorder_hold: Nanos::ZERO,
        }
    }

    /// A lossy WAN-style link: 2 ms latency, 500 μs jitter, ~100 MB/s,
    /// 15% loss, 10% reordering.
    pub fn lossy(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            latency: Nanos::from_ms(2),
            jitter: Nanos::from_us(500),
            ns_per_byte: 10,
            drop_rate: 0.15,
            reorder_rate: 0.10,
            reorder_hold: Nanos::from_ms(4),
        }
    }

    /// Same shape as [`NetConfig::lossy`] with an explicit loss rate,
    /// for loss-sweep experiments.
    pub fn with_loss(seed: u64, drop_rate: f64) -> NetConfig {
        NetConfig {
            drop_rate,
            ..NetConfig::lossy(seed)
        }
    }
}

/// Counters describing everything a link direction has done.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams handed to [`SimLink::send`].
    pub sent: u64,
    /// Datagrams delivered by [`SimLink::poll`].
    pub delivered: u64,
    /// Datagrams dropped in flight (loss or partition).
    pub dropped: u64,
    /// Datagrams that took the reorder-hold path.
    pub reordered: u64,
    /// Payload bytes handed to [`SimLink::send`].
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

/// One direction of a simulated network link: a deterministic, seeded
/// lossy datagram channel in virtual time. See the module docs above
/// for the fault model.
#[derive(Debug)]
pub struct SimLink {
    cfg: NetConfig,
    rng: StdRng,
    /// Tie-breaker so same-instant deliveries stay FIFO.
    seq: u64,
    /// Instant the sender's interface finishes its current backlog.
    iface_free: Nanos,
    partitioned: bool,
    /// In-flight datagrams keyed by (delivery instant, send order).
    in_flight: BTreeMap<(Nanos, u64), Vec<u8>>,
    stats: LinkStats,
}

impl SimLink {
    /// Creates an idle link.
    pub fn new(cfg: NetConfig) -> SimLink {
        SimLink {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            seq: 0,
            iface_free: Nanos::ZERO,
            partitioned: false,
            in_flight: BTreeMap::new(),
            stats: LinkStats::default(),
        }
    }

    /// Submits one datagram at the sender's instant `now`.
    ///
    /// The datagram serializes after everything already queued on the
    /// interface, then propagates. A partitioned link, and a lossy
    /// link's unlucky draws, drop it silently — datagram semantics; any
    /// reliability is the caller's protocol (acks and retransmits).
    pub fn send(&mut self, now: Nanos, payload: Vec<u8>) {
        self.stats.sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        // Serialization occupies the interface even for datagrams that
        // are later dropped: loss happens in flight, not at the NIC.
        let serialize = Nanos::from_ns(self.cfg.ns_per_byte * payload.len() as u64);
        let on_wire = self.iface_free.max(now) + serialize;
        self.iface_free = on_wire;
        if self.partitioned {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if self.cfg.jitter > Nanos::ZERO {
            Nanos::from_ns(self.rng.gen_range(0..=self.cfg.jitter.as_ns()))
        } else {
            Nanos::ZERO
        };
        if self.cfg.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.drop_rate) {
            self.stats.dropped += 1;
            return;
        }
        let mut deliver_at = on_wire + self.cfg.latency + jitter;
        if self.cfg.reorder_rate > 0.0 && self.rng.gen_bool(self.cfg.reorder_rate) {
            self.stats.reordered += 1;
            deliver_at += self.cfg.reorder_hold;
        }
        self.in_flight.insert((deliver_at, self.seq), payload);
        self.seq += 1;
    }

    /// Delivers the earliest in-flight datagram whose delivery instant
    /// has passed by the receiver's instant `now`, with that instant.
    /// Returns `None` when nothing is deliverable yet.
    pub fn poll(&mut self, now: Nanos) -> Option<(Nanos, Vec<u8>)> {
        let (&(at, _), _) = self.in_flight.first_key_value()?;
        if at > now {
            return None;
        }
        let ((at, _), payload) = self.in_flight.pop_first()?;
        self.stats.delivered += 1;
        self.stats.bytes_delivered += payload.len() as u64;
        Some((at, payload))
    }

    /// The delivery instant of the earliest in-flight datagram, if any —
    /// the instant an idle receiver should sleep until.
    pub fn next_delivery(&self) -> Option<Nanos> {
        self.in_flight.keys().next().map(|&(at, _)| at)
    }

    /// Partitions or heals the link. While partitioned every send is
    /// dropped; datagrams already in flight still arrive (they left
    /// before the cut).
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// Whether the link is currently partitioned.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }
}

/// An N-port datagram hub: one seeded [`SimLink`] per port with *fair*
/// round-robin polling, so multi-client fan-in (a server draining
/// thousands of connections) is not reimplemented per test.
///
/// Each port is an independent unidirectional link (its own RNG, its
/// own interface backlog, its own partition switch). [`SimSwitch::poll`]
/// scans the ports round-robin starting just past the last port served,
/// so a single backlogged port cannot starve the others;
/// [`SimSwitch::next_delivery`] is the minimum over all ports — the
/// instant an idle receiver should sleep until.
///
/// # Example
///
/// ```
/// use msnap_sim::{Nanos, NetConfig, SimSwitch};
///
/// let mut hub = SimSwitch::with_ports(NetConfig::calm(9), 3);
/// hub.send(0, Nanos::ZERO, vec![1]);
/// hub.send(2, Nanos::ZERO, vec![2]);
/// let mut from = Vec::new();
/// while let Some((port, _, _)) = hub.poll(Nanos::from_ms(10)) {
///     from.push(port);
/// }
/// assert_eq!(from.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SimSwitch {
    ports: Vec<SimLink>,
    /// Round-robin scan start for the next [`SimSwitch::poll`].
    cursor: usize,
}

impl SimSwitch {
    /// Creates an empty hub; add ports with [`SimSwitch::add_port`].
    pub fn new() -> SimSwitch {
        SimSwitch::default()
    }

    /// Creates a hub of `n` ports sharing `base`'s shape, each with a
    /// seed derived from `base.seed` and its port index (so ports are
    /// statistically identical but independent, and the whole hub
    /// replays identically for a fixed base seed).
    pub fn with_ports(base: NetConfig, n: usize) -> SimSwitch {
        let mut hub = SimSwitch::new();
        for i in 0..n {
            hub.add_port(NetConfig {
                seed: derive_seed(base.seed, i as u64),
                ..base
            });
        }
        hub
    }

    /// Appends a port with its own link config, returning its index.
    pub fn add_port(&mut self, cfg: NetConfig) -> usize {
        self.ports.push(SimLink::new(cfg));
        self.ports.len() - 1
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Whether the hub has no ports.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Submits one datagram on `port` at the sender's instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range (ports are created by this
    /// process; an unknown index is a caller bug, like a wild fd).
    pub fn send(&mut self, port: usize, now: Nanos, payload: Vec<u8>) {
        self.ports[port].send(now, payload);
    }

    /// Delivers one due datagram, scanning ports round-robin from just
    /// past the last port served. Returns `(port, delivery instant,
    /// payload)`, or `None` when nothing is deliverable by `now`.
    pub fn poll(&mut self, now: Nanos) -> Option<(usize, Nanos, Vec<u8>)> {
        let n = self.ports.len();
        for i in 0..n {
            let port = (self.cursor + i) % n;
            if let Some((at, payload)) = self.ports[port].poll(now) {
                self.cursor = (port + 1) % n;
                return Some((port, at, payload));
            }
        }
        None
    }

    /// The earliest delivery instant over all ports, if any datagram is
    /// in flight anywhere.
    pub fn next_delivery(&self) -> Option<Nanos> {
        self.ports.iter().filter_map(SimLink::next_delivery).min()
    }

    /// Partitions or heals one port (see [`SimLink::set_partitioned`]).
    pub fn set_partitioned(&mut self, port: usize, partitioned: bool) {
        self.ports[port].set_partitioned(partitioned);
    }

    /// Borrows one port's link (stats, partition state).
    pub fn port(&self, port: usize) -> &SimLink {
        &self.ports[port]
    }

    /// Aggregate lifetime counters over all ports.
    pub fn stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for p in &self.ports {
            let s = p.stats();
            total.sent += s.sent;
            total.delivered += s.delivered;
            total.dropped += s.dropped;
            total.reordered += s.reordered;
            total.bytes_sent += s.bytes_sent;
            total.bytes_delivered += s.bytes_delivered;
        }
        total
    }
}

/// Splitmix-style seed derivation so per-port RNG streams are
/// decorrelated from each other and from the base seed.
fn derive_seed(base: u64, salt: u64) -> u64 {
    let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(link: &mut SimLink, until: Nanos) -> Vec<(Nanos, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(d) = link.poll(until) {
            out.push(d);
        }
        out
    }

    #[test]
    fn calm_link_delivers_in_order_with_latency_and_bandwidth() {
        let cfg = NetConfig {
            jitter: Nanos::ZERO,
            ..NetConfig::calm(1)
        };
        let mut link = SimLink::new(cfg);
        link.send(Nanos::ZERO, vec![0u8; 1000]);
        link.send(Nanos::ZERO, vec![1u8; 1000]);
        let got = drain(&mut link, Nanos::from_ms(100));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1[0], 0);
        assert_eq!(got[1].1[0], 1);
        // Second datagram queues behind the first on the interface.
        assert!(got[1].0 >= got[0].0 + Nanos::from_ns(1000));
        assert!(got[0].0 >= cfg.latency + Nanos::from_ns(1000));
        assert_eq!(link.stats().delivered, 2);
        assert_eq!(link.stats().dropped, 0);
    }

    #[test]
    fn lossy_link_drops_and_reorders_deterministically() {
        let run = |seed| {
            let mut link = SimLink::new(NetConfig::lossy(seed));
            for i in 0..200u64 {
                link.send(Nanos::from_us(i * 10), i.to_le_bytes().to_vec());
            }
            let got = drain(&mut link, Nanos::from_secs(1));
            let ids: Vec<u64> = got
                .iter()
                .filter_map(|(_, p)| Some(u64::from_le_bytes(p.get(..8)?.try_into().ok()?)))
                .collect();
            assert_eq!(ids.len(), got.len(), "every payload round-trips intact");
            (ids, *link.stats())
        };
        let (ids_a, stats_a) = run(42);
        let (ids_b, stats_b) = run(42);
        assert_eq!(ids_a, ids_b, "same seed must replay identically");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 0, "15% loss over 200 sends");
        assert!(!ids_a.is_sorted(), "reorder holds must reorder something");
        let (ids_c, _) = run(43);
        assert_ne!(ids_a, ids_c, "different seeds diverge");
    }

    #[test]
    fn partition_drops_new_sends_but_delivers_in_flight() {
        let mut link = SimLink::new(NetConfig::calm(3));
        link.send(Nanos::ZERO, vec![1]);
        link.set_partitioned(true);
        link.send(Nanos::ZERO, vec![2]);
        let got = drain(&mut link, Nanos::from_ms(10));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, vec![1]);
        assert_eq!(link.stats().dropped, 1);
        link.set_partitioned(false);
        link.send(Nanos::from_ms(10), vec![3]);
        assert_eq!(drain(&mut link, Nanos::from_ms(20)).len(), 1);
    }

    #[test]
    fn switch_polling_is_fair_across_backlogged_ports() {
        let base = NetConfig {
            jitter: Nanos::ZERO,
            ..NetConfig::calm(5)
        };
        let mut hub = SimSwitch::with_ports(base, 3);
        // Ports 0 and 2 each queue four datagrams; port 1 stays idle.
        for i in 0..4u8 {
            hub.send(0, Nanos::ZERO, vec![0, i]);
            hub.send(2, Nanos::ZERO, vec![2, i]);
        }
        let mut order = Vec::new();
        while let Some((port, _, _)) = hub.poll(Nanos::from_ms(100)) {
            order.push(port);
        }
        assert_eq!(order.len(), 8);
        // Round-robin: no port is served twice before the other
        // backlogged port is served once.
        for w in order.windows(2) {
            assert_ne!(w[0], w[1], "fair polling must alternate: {order:?}");
        }
    }

    #[test]
    fn switch_next_delivery_is_the_min_over_ports() {
        let base = NetConfig {
            jitter: Nanos::ZERO,
            ..NetConfig::calm(6)
        };
        let mut hub = SimSwitch::with_ports(base, 2);
        assert_eq!(hub.next_delivery(), None);
        hub.send(1, Nanos::from_ms(5), vec![1]);
        hub.send(0, Nanos::ZERO, vec![0]);
        let first = hub.next_delivery().expect("two datagrams in flight");
        let (port, at, _) = hub.poll(Nanos::from_secs(1)).expect("deliverable");
        assert_eq!(port, 0, "the earlier send delivers first");
        assert_eq!(at, first, "next_delivery named the earliest instant");
        assert!(hub.next_delivery().expect("one left") > first);
    }

    #[test]
    fn switch_ports_are_independent_and_deterministic() {
        let run = || {
            let mut hub = SimSwitch::with_ports(NetConfig::lossy(11), 4);
            for i in 0..50u64 {
                for p in 0..4 {
                    hub.send(p, Nanos::from_us(i * 20), i.to_le_bytes().to_vec());
                }
            }
            let mut got: Vec<(usize, Nanos)> = Vec::new();
            while let Some((port, at, _)) = hub.poll(Nanos::from_secs(2)) {
                got.push((port, at));
            }
            (got, hub.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same base seed must replay identically");
        assert_eq!(sa, sb);
        assert!(sa.dropped > 0, "lossy ports drop something");
        // Derived seeds decorrelate ports: the per-port delivery counts
        // must not be identical across all four ports.
        let mut per_port = [0u64; 4];
        for (p, _) in &a {
            per_port[*p] += 1;
        }
        assert!(
            per_port.iter().any(|&c| c != per_port[0]),
            "independent loss draws per port: {per_port:?}"
        );
    }

    #[test]
    fn switch_partition_isolates_one_port() {
        let mut hub = SimSwitch::with_ports(NetConfig::calm(8), 2);
        hub.set_partitioned(0, true);
        hub.send(0, Nanos::ZERO, vec![0]);
        hub.send(1, Nanos::ZERO, vec![1]);
        let mut got = Vec::new();
        while let Some((port, _, _)) = hub.poll(Nanos::from_ms(10)) {
            got.push(port);
        }
        assert_eq!(got, vec![1], "only the healthy port delivers");
        assert_eq!(hub.port(0).stats().dropped, 1);
        assert!(hub.port(0).partitioned());
        assert!(!hub.port(1).partitioned());
    }
}
