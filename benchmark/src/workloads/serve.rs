//! `serve-open` and `serve-sat`: the whole stack behind the wire.
//!
//! One fleet, two loops. 64 connections over 8 tenants, 16 of them
//! watch subscribers; 50 % put · 48 % get · 2 % scan of 16-byte values;
//! Zipf 0.9 over tenants × Zipf 0.99 over keys; 2 replicas on calm LAN
//! links; `ServeConfig::default()`; one actor round per 100 µs of
//! virtual time.
//!
//! - **open**: a fixed 6 kops/s (virtual) of Poisson arrivals — about
//!   half of what the fleet sustains — handed to whichever connection
//!   is idle. Latency is timed from each request's *due* instant, so a
//!   stall is charged to every request that queued behind it.
//! - **sat**: closed loop, zero think time: each connection sends its
//!   next request the instant the previous one is answered.
//!
//! The client here is the benchmark's own (Hello / Subscribe / Put /
//! Get / Scan / NotifyAck, timeout-retransmit); requests leave at
//! their exact virtual instant, not at round boundaries, so latencies
//! are not quantised by the benchmark.

use std::collections::{BTreeMap, VecDeque};

use crate::gen::{scatter, Rng, Zipf};
use crate::host::SliceClock;
use crate::layers::{
    Delivery, Nanos, NetConfig, NotifyEvent, Request, Response, Serve, ServeConfig,
};
use crate::report::Outcome;
use crate::stats::{ratio, Samples};
use crate::trace;

const CONNECTIONS: usize = 64;
const TENANTS: usize = 8;
const SUBSCRIBERS: usize = 16;
const REPLICAS: usize = 2;
const VALUE_BYTES: usize = 16;
const TENANT_THETA: f64 = 0.9;
const KEY_THETA: f64 = 0.99;
const PUT_SHARE: f64 = 0.50;
const SCAN_SHARE: f64 = 0.02;
const SCAN_SPAN: u64 = 64;
/// Epochs a replica may trail the primary and still serve a session's
/// reads (the in-tree fleet's default).
const STALENESS: u64 = 4;
const QUANTUM: Nanos = Nanos::from_us(100);
/// Well past the saturated fleet's slowest answers (≈ 8 ms), so a
/// retransmit means a datagram was lost, not that the node was busy.
const REQUEST_TIMEOUT: Nanos = Nanos::from_ms(20);
const MAX_RETRIES: u32 = 6;
/// Open-loop arrival rate, in operations per round (6 kops/s virtual).
const OPEN_OPS_PER_ROUND: f64 = 0.6;
const PUT_LIMIT: Nanos = Nanos::from_us(5_000);
const GET_LIMIT: Nanos = Nanos::from_us(2_500);
const WARMUP_ROUNDS: u64 = 2_000;
/// Quiet rounds granted for in-flight work to finish after the window.
const DRAIN_ROUNDS: u64 = 2_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Loop {
    Open,
    Closed,
}

#[derive(Clone, Debug)]
enum Op {
    Hello,
    Subscribe,
    Put {
        tenant: usize,
        key: u64,
        value: Vec<u8>,
    },
    Get {
        tenant: usize,
        key: u64,
    },
    Scan {
        tenant: usize,
        lo: u64,
        hi: u64,
    },
}

struct Inflight {
    req: u64,
    op: Op,
    /// When the request was due (open loop) or sent (closed loop):
    /// latency is timed from here.
    due: Nanos,
    last_sent: Nanos,
    retries: u32,
    datagram: Vec<u8>,
    measured: bool,
}

/// A bundle received ahead of its predecessor in the cut chain.
struct HeldBundle {
    prev_seq: u64,
    events: Vec<NotifyEvent>,
}

struct Conn {
    session: u64,
    next_req: u64,
    puts: u32,
    /// The tenant this connection watches, if it is a subscriber.
    watches: Option<usize>,
    subscribed: bool,
    inflight: Option<Inflight>,
    /// When the connection last became idle (the closed loop sends
    /// its next request then).
    idle_at: Nanos,
    last_cut: u64,
    held: BTreeMap<u64, HeldBundle>,
    /// Invalidations applied in cut order: epoch → (key range, when).
    seen: BTreeMap<u64, Vec<(u64, u64, Nanos)>>,
}

struct AckedPut {
    tenant: usize,
    key: u64,
    epoch: u64,
    value: Vec<u8>,
    acked_at: Nanos,
    measured: bool,
}

struct GetSeen {
    tenant: usize,
    key: u64,
    epoch: u64,
    value: Option<Vec<u8>>,
    measured: bool,
}

/// Everything the fleet learns, in one place.
#[derive(Default)]
struct Ledger {
    acked: Vec<AckedPut>,
    gets: Vec<GetSeen>,
    /// (tenant, key, value, measured) of every scan row returned.
    scan_rows: Vec<(usize, u64, Vec<u8>, bool)>,
    put_lat: Samples,
    get_lat: Samples,
    scan_lat: Samples,
    gen_late: Samples,
    /// Key and value bytes the completed operations carried.
    user_bytes: u64,
    attempted: u64,
    completed: u64,
    failed: u64,
    slo_missed: u64,
    retransmits: u64,
    wire_bytes: u64,
    messages: u64,
}

pub struct Fleet {
    serve: Serve,
    conns: Vec<Conn>,
    capacity: u64,
    tenant_zipf: Zipf,
    key_zipf: Zipf,
    rng: Rng,
    mode: Loop,
    round: u64,
    /// Open loop: due instants still in the future, ascending.
    arrivals: VecDeque<Nanos>,
    /// Open loop: due instants waiting for an idle connection.
    backlog: VecDeque<Nanos>,
    backlog_max: usize,
    /// Closed loop: whether connections keep sending.
    issuing: bool,
    /// Operations due at or after this instant are measured.
    window_start: Nanos,
    ledger: Ledger,
}

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

impl Fleet {
    /// Formats the node, attaches the replicas, opens every session and
    /// watch, and runs the warm-up rounds.
    pub fn setup(seed: u64, mode: Loop) -> Fleet {
        let root = Rng::new(seed);
        let mut serve = Serve::format(
            ServeConfig::default(),
            CONNECTIONS,
            NetConfig::calm(root.fork(1).next_u64()),
        );
        for r in 0..REPLICAS {
            let net = NetConfig::calm(root.fork(10 + r as u64).next_u64());
            serve.add_replica(&format!("r{r}"), net);
        }
        let capacity = ServeConfig::default().capacity();
        let conns = (0..CONNECTIONS)
            .map(|port| Conn {
                session: 0,
                next_req: 1,
                puts: 0,
                watches: (port < SUBSCRIBERS).then_some(port % TENANTS),
                subscribed: false,
                inflight: None,
                idle_at: Nanos::ZERO,
                last_cut: 0,
                held: BTreeMap::new(),
                seen: BTreeMap::new(),
            })
            .collect();
        let mut fleet = Fleet {
            serve,
            conns,
            capacity,
            tenant_zipf: Zipf::new(TENANTS, TENANT_THETA),
            key_zipf: Zipf::new(capacity as usize, KEY_THETA),
            rng: root.fork(2),
            mode,
            round: 0,
            arrivals: VecDeque::new(),
            backlog: VecDeque::new(),
            backlog_max: 0,
            issuing: false,
            window_start: Nanos::MAX,
            ledger: Ledger::default(),
        };
        // Sessions and watches first, so no data op races a Subscribe.
        for c in 0..CONNECTIONS {
            fleet.issue(c, Op::Hello, Nanos::ZERO, Nanos::ZERO);
        }
        while !fleet.conns.iter().all(Conn::ready) {
            fleet.run_round();
            assert!(fleet.round < 1_000, "sessions did not open");
        }
        fleet.offer_load(WARMUP_ROUNDS);
        for _ in 0..WARMUP_ROUNDS {
            fleet.run_round();
        }
        fleet
    }

    fn now(&self) -> Nanos {
        QUANTUM * self.round
    }

    /// Turns load on for the next `rounds` rounds. The open loop draws
    /// its arrival instants up front: a Poisson process conditioned on
    /// its count is that many uniform instants, and fixing the count
    /// keeps the offered rate identical across seeds.
    fn offer_load(&mut self, rounds: u64) {
        self.issuing = true;
        if self.mode == Loop::Open {
            let start = self.now().as_ns();
            let span = (QUANTUM * rounds).as_ns();
            let n = (OPEN_OPS_PER_ROUND * rounds as f64).round() as usize;
            let mut due: Vec<u64> = (0..n).map(|_| start + self.rng.below(span)).collect();
            due.sort_unstable();
            self.arrivals.extend(due.into_iter().map(Nanos::from_ns));
        }
    }

    /// Sends `op` on connection `c` at instant `at`; latency runs from
    /// `due`.
    fn issue(&mut self, c: usize, op: Op, due: Nanos, at: Nanos) {
        let conn = &mut self.conns[c];
        let req = match op {
            Op::Hello => 0,
            _ => {
                conn.next_req += 1;
                conn.next_req - 1
            }
        };
        let session = conn.session;
        let request = match &op {
            Op::Hello => Request::Hello {
                staleness: STALENESS,
            },
            Op::Subscribe => Request::Subscribe {
                session,
                req,
                tenant: tenant_name(conn.watches.expect("a subscriber")),
                lo: 0,
                hi: self.capacity,
            },
            Op::Put { tenant, key, value } => Request::Put {
                session,
                req,
                tenant: tenant_name(*tenant),
                key: *key,
                value: value.clone(),
            },
            Op::Get { tenant, key } => Request::Get {
                session,
                req,
                tenant: tenant_name(*tenant),
                key: *key,
            },
            Op::Scan { tenant, lo, hi } => Request::Scan {
                session,
                req,
                tenant: tenant_name(*tenant),
                lo: *lo,
                hi: *hi,
            },
        };
        let datagram = Serve::encode(&request);
        let measured = due >= self.window_start;
        if measured {
            self.ledger.attempted += 1;
            self.ledger.wire_bytes += datagram.len() as u64;
            self.ledger.messages += 1;
        }
        self.serve.send(c, at, datagram.clone());
        conn.inflight = Some(Inflight {
            req,
            op,
            due,
            last_sent: at,
            retries: 0,
            datagram,
            measured,
        });
    }

    /// Draws the next data operation for connection `c`.
    fn next_op(&mut self, c: usize) -> Op {
        let tenant = self.tenant_zipf.sample(&mut self.rng);
        let key = scatter(self.key_zipf.sample(&mut self.rng), self.capacity as usize);
        let roll = self.rng.f64();
        if roll < PUT_SHARE {
            let conn = &mut self.conns[c];
            conn.puts += 1;
            // Unique per write, so a read names the write it saw.
            let mut value = vec![0u8; VALUE_BYTES];
            value[0..4].copy_from_slice(&(c as u32).to_le_bytes());
            value[4..8].copy_from_slice(&conn.puts.to_le_bytes());
            value[8..16].copy_from_slice(&key.to_le_bytes());
            Op::Put { tenant, key, value }
        } else if roll < PUT_SHARE + SCAN_SHARE {
            let lo = key.min(self.capacity - SCAN_SPAN);
            Op::Scan {
                tenant,
                lo,
                hi: lo + SCAN_SPAN,
            }
        } else {
            Op::Get { tenant, key }
        }
    }

    /// One quantum: deliver, retransmit, issue, step. Returns how long
    /// the node was busy in it.
    fn run_round(&mut self) -> Nanos {
        self.round += 1;
        let now = self.now();
        let root = trace::begin("bench.round", now.as_ns());
        for d in self.serve.drain(now) {
            self.deliver(d);
        }
        self.retransmit(now);
        match self.mode {
            Loop::Open => {
                while self.arrivals.front().is_some_and(|&due| due <= now) {
                    self.backlog.extend(self.arrivals.pop_front());
                }
                for c in 0..CONNECTIONS {
                    let Some(&due) = self.backlog.front() else {
                        break;
                    };
                    if self.conns[c].inflight.is_some() {
                        continue;
                    }
                    self.backlog.pop_front();
                    let at = due.max(self.conns[c].idle_at);
                    if due >= self.window_start {
                        self.ledger.gen_late.push((at - due).as_ns());
                    }
                    let op = self.next_op(c);
                    self.issue(c, op, due, at);
                }
                self.backlog_max = self.backlog_max.max(self.backlog.len());
            }
            Loop::Closed if self.issuing => {
                for c in 0..CONNECTIONS {
                    if self.conns[c].inflight.is_none() {
                        let at = self.conns[c].idle_at;
                        let op = self.next_op(c);
                        self.issue(c, op, at, at);
                    }
                }
            }
            Loop::Closed => {}
        }
        let busy = self.serve.step(now);
        trace::end(root, (now + busy).as_ns());
        busy
    }

    fn retransmit(&mut self, now: Nanos) {
        for (c, conn) in self.conns.iter_mut().enumerate() {
            let Some(inf) = conn.inflight.as_mut() else {
                continue;
            };
            if now.saturating_sub(inf.last_sent) < REQUEST_TIMEOUT {
                continue;
            }
            inf.retries += 1;
            if inf.retries > MAX_RETRIES {
                // Gave up: the operation failed (and missed any limit).
                if inf.measured {
                    self.ledger.failed += 1;
                    self.ledger.slo_missed += 1;
                }
                conn.inflight = None;
                conn.idle_at = now;
                continue;
            }
            inf.last_sent = now;
            if inf.measured {
                self.ledger.retransmits += 1;
                self.ledger.wire_bytes += inf.datagram.len() as u64;
            }
            self.serve.send(c, now, inf.datagram.clone());
        }
    }

    fn deliver(&mut self, d: Delivery) {
        if d.at >= self.window_start {
            self.ledger.wire_bytes += d.bytes as u64;
            self.ledger.messages += d.responses.len() as u64;
        }
        if d.responses.is_empty() {
            self.ledger.failed += 1; // a datagram the codec rejected
        }
        for resp in d.responses {
            self.on_response(d.port, d.at, resp);
        }
    }

    /// Takes the in-flight request `req` off connection `c`, if that is
    /// what it is waiting for (anything else is a stale duplicate).
    /// Counts the completion and checks the latency limit.
    fn complete(
        &mut self,
        c: usize,
        req: u64,
        at: Nanos,
        limit: Option<Nanos>,
    ) -> Option<Inflight> {
        let conn = &mut self.conns[c];
        if conn.inflight.as_ref()?.req != req {
            return None;
        }
        conn.idle_at = at;
        let inf = conn.inflight.take()?;
        if inf.measured {
            self.ledger.completed += 1;
            if limit.is_some_and(|l| at.saturating_sub(inf.due) > l) {
                self.ledger.slo_missed += 1;
            }
        }
        Some(inf)
    }

    fn on_response(&mut self, c: usize, at: Nanos, resp: Response) {
        match resp {
            Response::HelloOk { session, .. } => {
                let conn = &mut self.conns[c];
                if conn.session != 0 {
                    return;
                }
                conn.session = session;
                conn.inflight = None;
                conn.idle_at = at;
                if conn.watches.is_some() {
                    self.issue(c, Op::Subscribe, at, at);
                }
            }
            Response::SubOk { req, .. } => {
                if self.complete(c, req, at, None).is_some() {
                    self.conns[c].subscribed = true;
                }
            }
            Response::PutOk { req, epoch } => {
                let Some(inf) = self.complete(c, req, at, Some(PUT_LIMIT)) else {
                    return;
                };
                let Op::Put { tenant, key, value } = inf.op else {
                    unreachable!("PutOk answers a Put");
                };
                if inf.measured {
                    self.ledger.put_lat.push(at.saturating_sub(inf.due).as_ns());
                    self.ledger.user_bytes += 8 + value.len() as u64;
                    trace::record("serve.put", inf.due.as_ns(), at.as_ns());
                }
                self.ledger.acked.push(AckedPut {
                    tenant,
                    key,
                    epoch,
                    value,
                    acked_at: at,
                    measured: inf.measured,
                });
            }
            Response::GetOk {
                req, epoch, value, ..
            } => {
                let Some(inf) = self.complete(c, req, at, Some(GET_LIMIT)) else {
                    return;
                };
                if inf.measured {
                    self.ledger.get_lat.push(at.saturating_sub(inf.due).as_ns());
                    self.ledger.user_bytes += 8 + value.as_ref().map_or(0, Vec::len) as u64;
                    trace::record("serve.get", inf.due.as_ns(), at.as_ns());
                }
                let Op::Get { tenant, key } = inf.op else {
                    unreachable!("GetOk answers a Get");
                };
                self.ledger.gets.push(GetSeen {
                    tenant,
                    key,
                    epoch,
                    value,
                    measured: inf.measured,
                });
            }
            Response::ScanOk { req, pairs } => {
                let Some(inf) = self.complete(c, req, at, None) else {
                    return;
                };
                let Op::Scan { tenant, .. } = inf.op else {
                    unreachable!("ScanOk answers a Scan");
                };
                if inf.measured {
                    self.ledger
                        .scan_lat
                        .push(at.saturating_sub(inf.due).as_ns());
                    self.ledger.user_bytes +=
                        pairs.iter().map(|(_, v)| 8 + v.len() as u64).sum::<u64>();
                    trace::record("serve.scan", inf.due.as_ns(), at.as_ns());
                }
                for (key, value) in pairs {
                    self.ledger
                        .scan_rows
                        .push((tenant, key, value, inf.measured));
                }
            }
            Response::Notify {
                cut_seq,
                prev_seq,
                events,
            } => self.on_notify(c, at, cut_seq, prev_seq, events),
            Response::Err { req, .. } => {
                if let Some(inf) = self.complete(c, req, at, None) {
                    if inf.measured {
                        self.ledger.failed += 1;
                        self.ledger.slo_missed += 1;
                    }
                }
            }
            Response::UnsubOk { .. } | Response::StatsOk { .. } => {}
        }
    }

    /// Exactly-once, cut-ordered bundle processing: a bundle applies
    /// only when its predecessor has; early ones wait, duplicates drop.
    fn on_notify(
        &mut self,
        c: usize,
        at: Nanos,
        cut_seq: u64,
        prev_seq: u64,
        events: Vec<NotifyEvent>,
    ) {
        let conn = &mut self.conns[c];
        if cut_seq > conn.last_cut {
            conn.held
                .entry(cut_seq)
                .or_insert(HeldBundle { prev_seq, events });
        }
        while let Some(entry) = conn.held.first_entry() {
            if entry.get().prev_seq != conn.last_cut {
                break;
            }
            let (seq, bundle) = entry.remove_entry();
            conn.last_cut = seq;
            // Applied now, however early the datagram itself came.
            for e in bundle.events {
                for (lo, hi) in e.ranges {
                    conn.seen.entry(e.epoch).or_default().push((lo, hi, at));
                }
            }
        }
        let ack = Serve::encode(&Request::NotifyAck {
            session: conn.session,
            cut_seq: conn.last_cut,
        });
        if at >= self.window_start {
            self.ledger.wire_bytes += ack.len() as u64;
            self.ledger.messages += 1;
        }
        self.serve.send(c, at, ack);
    }

    /// Stops new load and runs quiet rounds until nothing is in flight.
    /// Whatever is still unanswered afterwards has failed.
    fn drain(&mut self) {
        self.issuing = false;
        for _ in 0..DRAIN_ROUNDS {
            if self.backlog.is_empty() && self.conns.iter().all(|c| c.inflight.is_none()) {
                break;
            }
            self.run_round();
        }
        let never_sent = self.backlog.drain(..).count() as u64;
        self.ledger.attempted += never_sent;
        let unanswered = self
            .conns
            .iter_mut()
            .filter_map(|c| c.inflight.take())
            .filter(|i| i.measured)
            .count() as u64;
        self.ledger.failed += never_sent + unanswered;
        self.ledger.slo_missed += never_sent + unanswered;
    }

    /// Reads every tenant's whole key range back over the wire.
    fn scan_everything(&mut self) -> Vec<(usize, u64, Vec<u8>)> {
        self.ledger.scan_rows.clear();
        let now = self.now();
        for tenant in 0..TENANTS {
            let op = Op::Scan {
                tenant,
                lo: 0,
                hi: self.capacity,
            };
            self.issue(tenant, op, now, now);
        }
        for _ in 0..DRAIN_ROUNDS {
            if self.conns.iter().all(|c| c.inflight.is_none()) {
                break;
            }
            self.run_round();
        }
        std::mem::take(&mut self.ledger.scan_rows)
            .into_iter()
            .map(|(t, k, v, _)| (t, k, v))
            .collect()
    }
}

impl Conn {
    fn ready(&self) -> bool {
        self.session != 0 && (self.watches.is_none() || self.subscribed)
    }
}

/// Acked puts per (tenant, key), as (epoch, value), for the oracle.
type History = BTreeMap<(usize, u64), Vec<(u64, Vec<u8>)>>;

/// The values a read at `epoch` may return: those of the newest puts
/// at or below it (several when one μCheckpoint carried more than one
/// write to the key — their order inside it is the server's business).
fn visible_at(history: &History, tenant: usize, key: u64, epoch: u64) -> Vec<&[u8]> {
    let Some(puts) = history.get(&(tenant, key)) else {
        return Vec::new();
    };
    let newest = puts.iter().map(|p| p.0).filter(|&e| e <= epoch).max();
    puts.iter()
        .filter(|p| Some(p.0) == newest)
        .map(|p| p.1.as_slice())
        .collect()
}

/// Measured rounds per second of `--seconds`: the windows are sized in
/// operations, not time, so every virtual metric is a pure function of
/// `(seed, seconds)`. The rates are from probes at the commit that
/// defined the benchmark, where a round costs ≈ 0.19 ms of host CPU
/// open-loop and ≈ 0.31 ms saturated.
const OPEN_ROUNDS_PER_SECOND: u64 = 4_000;
const SAT_ROUNDS_PER_SECOND: u64 = 2_400;

pub fn run_open(seed: u64, seconds: u64) -> Outcome {
    run(seed, OPEN_ROUNDS_PER_SECOND * seconds, Loop::Open)
}

pub fn run_sat(seed: u64, seconds: u64) -> Outcome {
    run(seed, SAT_ROUNDS_PER_SECOND * seconds, Loop::Closed)
}

fn run(seed: u64, rounds: u64, mode: Loop) -> Outcome {
    let mut out = Outcome::default();
    let mut fleet = out.setup(|| Fleet::setup(seed, mode));

    // ---- measured window ------------------------------------------------
    let stats0 = fleet.serve.stats();
    fleet.window_start = fleet.now();
    trace::clear();
    fleet.offer_load(rounds);
    let mut clock = SliceClock::start(rounds);
    let mut busy = Samples::default();
    let mut halves = [0u64; 2];
    for r in 0..rounds {
        let before = fleet.ledger.completed;
        busy.push(fleet.run_round().as_ns());
        halves[(r * 2 / rounds) as usize] += fleet.ledger.completed - before;
        clock.progress(r + 1, fleet.ledger.completed);
    }
    let window = fleet.now() - fleet.window_start;
    let stats1 = fleet.serve.stats();
    // Throughput is what completed inside the window; what the drain
    // finishes still counts for latency and for the oracle.
    let in_window = fleet.ledger.completed;
    fleet.drain();
    fleet.window_start = Nanos::MAX; // verification traffic is not measured

    // ---- oracle ---------------------------------------------------------
    let mut history = History::new();
    for p in &fleet.ledger.acked {
        history
            .entry((p.tenant, p.key))
            .or_default()
            .push((p.epoch, p.value.clone()));
    }
    let mut wrong = 0u64;
    for g in fleet.ledger.gets.iter().filter(|g| g.measured) {
        let want = visible_at(&history, g.tenant, g.key, g.epoch);
        let ok = match &g.value {
            None => want.is_empty(),
            Some(v) => want.contains(&v.as_slice()),
        };
        wrong += u64::from(!ok);
    }
    for (tenant, key, value, _) in fleet.ledger.scan_rows.iter().filter(|r| r.3) {
        // A scan names no epoch: its rows must at least be values that
        // were written to that key.
        let known = history
            .get(&(*tenant, *key))
            .is_some_and(|puts| puts.iter().any(|p| &p.1 == value));
        wrong += u64::from(!known);
    }
    // Watches: every acked write to a watched tenant reached each of
    // the tenant's subscribers, in an event of its epoch covering its key.
    let mut notify_lat = Samples::default();
    for p in fleet.ledger.acked.iter().filter(|p| p.measured) {
        for conn in fleet.conns.iter().filter(|c| c.watches == Some(p.tenant)) {
            let hit = conn.seen.get(&p.epoch).and_then(|ranges| {
                ranges
                    .iter()
                    .find(|&&(lo, hi, _)| lo <= p.key && p.key < hi)
            });
            match hit {
                Some(&(_, _, at)) => notify_lat.push(at.saturating_sub(p.acked_at).as_ns()),
                None => wrong += 1,
            }
        }
    }
    // Durability as the wire shows it: after the drain, every key reads
    // back as its newest acked write.
    let mut lost = 0u64;
    let rows: BTreeMap<(usize, u64), Vec<u8>> = fleet
        .scan_everything()
        .into_iter()
        .map(|(t, k, v)| ((t, k), v))
        .collect();
    for &(tenant, key) in history.keys() {
        let want = visible_at(&history, tenant, key, u64::MAX);
        let got = rows.get(&(tenant, key)).map(Vec::as_slice);
        lost += u64::from(!got.is_some_and(|v| want.contains(&v)));
    }
    lost += rows.keys().filter(|k| !history.contains_key(k)).count() as u64;

    // ---- metrics --------------------------------------------------------
    let l = &mut fleet.ledger;
    out.attempted = l.attempted;
    out.failed = l.failed + wrong;
    out.lost = lost;
    let good = in_window.saturating_sub(wrong);
    out.latencies(&mut l.put_lat, Some((&mut l.get_lat, &l.scan_lat)));
    out.e2e("vt_kops", good as f64 / window.as_secs_f64() / 1e3, good);
    // The medium a served byte costs most on is the client link:
    // every datagram either way, retransmits, notifications and their
    // acks, over the key and value bytes the operations carried.
    out.e2e(
        "io_amp",
        ratio(l.wire_bytes as f64, l.user_bytes as f64),
        l.completed,
    );
    out.host(&clock);
    out.layer("serve.notify_us_p99", notify_lat.percentile_us(99.0));
    if mode == Loop::Open {
        out.layer(
            "bench.slo_miss_ratio",
            ratio(l.slo_missed as f64, l.attempted as f64),
        );
    }

    let d = |a: u64, b: u64| (a - b) as f64;
    let cuts = d(stats1.cuts, stats0.cuts);
    let puts = d(stats1.puts, stats0.puts);
    let reads = d(stats1.replica_reads, stats0.replica_reads)
        + d(stats1.primary_reads, stats0.primary_reads);
    out.layer("serve.step_busy_us_p50", busy.percentile_us(50.0));
    out.layer("serve.step_busy_us_p99", busy.percentile_us(99.0));
    out.layer("serve.ops_per_round", l.completed as f64 / rounds as f64);
    out.layer(
        "serve.rounds_per_put_p50",
        l.put_lat.percentile_us(50.0) / QUANTUM.as_us_f64(),
    );
    out.layer("serve.rounds_per_cut", ratio(rounds as f64, cuts));
    out.layer(
        "serve.bundles_per_cut",
        ratio(d(stats1.notify_bundles, stats0.notify_bundles), cuts),
    );
    out.layer(
        "serve.events_per_put",
        ratio(d(stats1.notify_events, stats0.notify_events), puts),
    );
    out.layer(
        "serve.replica_read_share",
        ratio(d(stats1.replica_reads, stats0.replica_reads), reads),
    );
    out.layer("serve.client_retransmits", l.retransmits as f64);
    out.layer("serve.backlog_max", fleet.backlog_max as f64);
    out.layer(
        "serve.wire_bytes_per_op",
        ratio(l.wire_bytes as f64, l.completed as f64),
    );
    out.layer("serve.cuts", cuts);
    out.layer("bench.gen_late_us_p99", l.gen_late.percentile_us(99.0));
    out.layer(
        "bench.steady_drift_pct",
        (halves[1] as f64 / halves[0] as f64 - 1.0) * 100.0,
    );
    let (_, mut step_host) = trace::durations("serve.step");
    let (_, enc_host) = trace::durations("serve.encode_request");
    let (_, dec_host) = trace::durations("serve.decode_responses");
    out.layer("serve.step_host_us_p50", step_host.percentile_us(50.0));
    out.layer(
        "serve.codec_host_ns_per_msg",
        ratio(enc_host.sum_ns() + dec_host.sum_ns(), l.messages as f64),
    );
    out
}
