//! A deterministic fleet harness: N simulated clients driving one
//! [`ServeNode`] under two-level Zipfian tenant×key skew, with optional
//! mid-run failover to a replica.
//!
//! The harness is quantum-stepped in virtual time — every round each
//! client drains its downlink, retransmits timed-out requests, maybe
//! issues one operation, and then the node runs one actor round. All
//! randomness comes from seeded generators, so a `(FleetConfig,
//! RunConfig)` pair replays bit-identically.
//!
//! Besides load, the clients are *oracles*:
//!
//! - every acknowledged put is remembered, so after a failover the
//!   harness can assert that no acked write was lost;
//! - subscribers process `Notify` bundles exactly once in cut order
//!   (chained by `prev_seq`, deduplicated by `cut_seq`) and keep the
//!   processed event stream, so [`RunReport::watch_violations`] can
//!   compare it against the exact changed-key set implied by the acked
//!   puts.

use std::collections::BTreeMap;

use msnap_sim::{LatencyStats, Nanos, NetConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msnap_workloads::dist::TenantKeyZipf;

use crate::server::{key_page_range, key_stripe, ServeConfig, ServeError, ServeNode};
use crate::wire::{self, ErrCode, NotifyEvent, Request, Response};

/// Shape of the simulated client fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated connections (one switch port each).
    pub clients: usize,
    /// Tenant namespaces the fleet spreads over.
    pub tenants: usize,
    /// Zipf skew across tenants.
    pub tenant_theta: f64,
    /// Zipf skew across keys within a tenant.
    pub key_theta: f64,
    /// Fraction of operations that are puts.
    pub put_ratio: f64,
    /// Fraction of operations that are scans (the rest are gets).
    pub scan_ratio: f64,
    /// Value payload bytes (≤ [`wire::MAX_VALUE_BYTES`]).
    pub value_bytes: usize,
    /// The first `subscribers` clients subscribe to their home
    /// tenant's full key range.
    pub subscribers: usize,
    /// Per-session staleness budget for replica-routed reads (epochs).
    pub staleness: u64,
    /// Think time between a client's operations.
    pub think: Nanos,
    /// Retransmit a request after this long without a response.
    pub request_timeout: Nanos,
    /// Reconnect (fresh `Hello`) after this many retransmits of one
    /// request — how a client discovers a failover.
    pub max_retries: u32,
    /// Master seed; every client derives from it.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 32,
            tenants: 8,
            tenant_theta: 0.9,
            key_theta: 0.99,
            put_ratio: 0.5,
            scan_ratio: 0.02,
            value_bytes: 16,
            subscribers: 8,
            staleness: 4,
            think: Nanos::from_us(300),
            request_timeout: Nanos::from_ms(8),
            max_retries: 6,
            seed: 42,
        }
    }
}

/// Shape of one harness run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Node configuration.
    pub serve: ServeConfig,
    /// Client-link model (per-port seeds derive from its seed).
    pub client_net: NetConfig,
    /// Replicas attached before the run (`r0`, `r1`, …). Failover
    /// promotes `r0`.
    pub replicas: usize,
    /// Replica-link model.
    pub replica_net: NetConfig,
    /// Load rounds (one quantum each).
    pub rounds: u64,
    /// Virtual time per round.
    pub quantum: Nanos,
    /// Crash the primary and promote `r0` after this load round.
    pub failover_at: Option<u64>,
    /// Extra quiescent rounds to let retransmits, replication, and
    /// notify streams settle.
    pub drain_rounds: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            serve: ServeConfig::default(),
            client_net: NetConfig::calm(7),
            replicas: 2,
            replica_net: NetConfig::calm(77),
            rounds: 300,
            quantum: Nanos::from_us(100),
            failover_at: None,
            drain_rounds: 600,
        }
    }
}

/// What happened around the mid-run failover.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Virtual instant of the crash.
    pub at: Nanos,
    /// Name of the promoted replica.
    pub promoted: String,
    /// Acked puts at crash time.
    pub acked_before: u64,
    /// Acked puts whose value was missing from the promoted store
    /// (must be 0 with replicated acks).
    pub lost_acked_writes: u64,
    /// Subscribers that re-established a watch on the new primary.
    pub rehomed_subscribers: usize,
    /// Clients that re-established a session on the new primary.
    pub reconnected_sessions: usize,
}

/// Aggregated outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Completed operations (acked puts + answered gets + scans).
    pub ops: u64,
    /// Acked puts.
    pub puts: u64,
    /// Answered gets.
    pub gets: u64,
    /// Answered scans.
    pub scans: u64,
    /// Put round-trip latency.
    pub put_lat: LatencyStats,
    /// Get round-trip latency.
    pub get_lat: LatencyStats,
    /// Scan round-trip latency.
    pub scan_lat: LatencyStats,
    /// All-op latency before the failover (everything, when none).
    pub pre_lat: LatencyStats,
    /// All-op latency at and after the failover.
    pub post_lat: LatencyStats,
    /// Total virtual time simulated.
    pub virtual_time: Nanos,
    /// Server counters at the end.
    pub server: wire::WireStats,
    /// Reads served by replicas / by the primary.
    pub replica_reads: u64,
    /// Reads served by the primary.
    pub primary_reads: u64,
    /// Client reconnect events.
    pub reconnects: u64,
    /// Notify bundles processed by clients (exactly-once, in cut
    /// order).
    pub bundles_processed: u64,
    /// Duplicate bundle deliveries discarded by clients.
    pub dup_bundles: u64,
    /// Watch-exactness mismatches (compared only on failover-free
    /// runs; see [`verify`](fn@run)). Must be 0.
    pub watch_violations: u64,
    /// Out-of-order or regressing cut chains observed by clients.
    pub chain_violations: u64,
    /// Whether every client finished with nothing in flight (the
    /// exactness oracle requires it).
    pub drained: bool,
    /// Failover outcome, when one was injected.
    pub failover: Option<FailoverReport>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Hello,
    Subscribe,
    Put,
    Get,
    Scan,
}

struct Inflight {
    request: Request,
    kind: OpKind,
    first: Nanos,
    last: Nanos,
    retries: u32,
}

struct AckedPut {
    tenant: usize,
    key: u64,
    value: Vec<u8>,
    epoch: u64,
}

/// Exactly-once, cut-ordered subscriber state.
struct WatchState {
    tenant: usize,
    lo: u64,
    hi: u64,
    from_epochs: Vec<u64>,
    last_processed: u64,
    /// Bundles received but not yet at the head of the chain.
    pending: BTreeMap<u64, (u64, Vec<NotifyEvent>)>,
    /// Processed events: `(stripe, epoch) -> merged ranges`.
    received: BTreeMap<(u64, u64), Vec<(u64, u64)>>,
}

#[derive(PartialEq, Eq)]
enum Phase {
    Hello,
    Subscribing,
    Ready,
}

struct Client {
    id: usize,
    port: usize,
    rng: StdRng,
    phase: Phase,
    session: u64,
    next_req: u64,
    put_counter: u64,
    subscriber: bool,
    /// The tenant a subscriber watches (its hottest by construction).
    home_tenant: usize,
    watch: Option<WatchState>,
    /// Golden record of the *first* subscription, for exactness checks
    /// on failover-free runs.
    golden: Option<WatchState>,
    inflight: BTreeMap<u64, Inflight>,
    /// Put bodies carried across a reconnect, re-sent on the new
    /// session.
    retry_puts: Vec<(usize, u64, Vec<u8>)>,
    acked: Vec<AckedPut>,
    next_op_at: Nanos,
    reconnects: u64,
    bundles_processed: u64,
    dup_bundles: u64,
    chain_violations: u64,
    put_lat: LatencyStats,
    get_lat: LatencyStats,
    scan_lat: LatencyStats,
    pre_lat: LatencyStats,
    post_lat: LatencyStats,
    post_failover: bool,
}

impl Client {
    fn new(id: usize, fleet: &FleetConfig, dist: &TenantKeyZipf) -> Client {
        let mut rng = StdRng::seed_from_u64(fleet.seed ^ (id as u64).wrapping_mul(0x9E37));
        // A subscriber watches the tenant it will hit most: sample once.
        let (home_tenant, _) = dist.sample(&mut rng);
        Client {
            id,
            port: id,
            rng,
            phase: Phase::Hello,
            session: 0,
            next_req: 1,
            put_counter: 0,
            subscriber: id < fleet.subscribers,
            home_tenant,
            watch: None,
            golden: None,
            inflight: BTreeMap::new(),
            retry_puts: Vec::new(),
            acked: Vec::new(),
            next_op_at: Nanos::ZERO,
            reconnects: 0,
            bundles_processed: 0,
            dup_bundles: 0,
            chain_violations: 0,
            put_lat: LatencyStats::default(),
            get_lat: LatencyStats::default(),
            scan_lat: LatencyStats::default(),
            pre_lat: LatencyStats::default(),
            post_lat: LatencyStats::default(),
            post_failover: false,
        }
    }

    fn send(&mut self, node: &mut ServeNode, now: Nanos, request: Request, kind: OpKind) {
        let req = match &request {
            Request::Hello { .. } => 0,
            Request::Put { req, .. }
            | Request::Get { req, .. }
            | Request::Scan { req, .. }
            | Request::Subscribe { req, .. }
            | Request::Unsubscribe { req, .. }
            | Request::StatsReq { req, .. } => *req,
            Request::NotifyAck { .. } => 0,
        };
        node.client_send(self.port, now, wire::encode_request(&request));
        if !matches!(request, Request::NotifyAck { .. }) {
            self.inflight.insert(
                req,
                Inflight {
                    request,
                    kind,
                    first: now,
                    last: now,
                    retries: 0,
                },
            );
        }
    }

    fn hello(&mut self, node: &mut ServeNode, now: Nanos, staleness: u64) {
        self.inflight.clear();
        self.watch = None;
        self.session = 0;
        self.phase = Phase::Hello;
        self.send(node, now, Request::Hello { staleness }, OpKind::Hello);
    }

    fn reconnect(&mut self, node: &mut ServeNode, now: Nanos, staleness: u64) {
        // Carry unacknowledged puts into the next session: the client
        // does not give up on writes it never saw acked.
        for inflight in std::mem::take(&mut self.inflight).into_values() {
            if let Request::Put {
                tenant, key, value, ..
            } = inflight.request
            {
                let tenant_idx: usize = tenant
                    .strip_prefix('t')
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                self.retry_puts.push((tenant_idx, key, value));
            }
        }
        self.reconnects += 1;
        self.hello(node, now, staleness);
    }

    fn record(&mut self, kind: OpKind, sample: Nanos) {
        match kind {
            OpKind::Put => self.put_lat.record(sample),
            OpKind::Get => self.get_lat.record(sample),
            OpKind::Scan => self.scan_lat.record(sample),
            OpKind::Hello | OpKind::Subscribe => return,
        }
        if self.post_failover {
            self.post_lat.record(sample);
        } else {
            self.pre_lat.record(sample);
        }
    }

    fn on_response(
        &mut self,
        node: &mut ServeNode,
        now: Nanos,
        at: Nanos,
        resp: Response,
        fleet: &FleetConfig,
        capacity: u64,
    ) {
        match resp {
            Response::HelloOk { session, .. } => {
                if self.phase != Phase::Hello {
                    return; // stale duplicate
                }
                self.session = session;
                self.inflight.retain(|_, i| i.kind != OpKind::Hello);
                if self.subscriber {
                    self.phase = Phase::Subscribing;
                    let req = self.next_req;
                    self.next_req += 1;
                    self.send(
                        node,
                        now,
                        Request::Subscribe {
                            session,
                            req,
                            tenant: format!("t{}", self.home_tenant),
                            lo: 0,
                            hi: capacity,
                        },
                        OpKind::Subscribe,
                    );
                } else {
                    self.phase = Phase::Ready;
                }
            }
            Response::SubOk {
                req, from_epochs, ..
            } => {
                if self.inflight.remove(&req).is_none() {
                    return;
                }
                let state = WatchState {
                    tenant: self.home_tenant,
                    lo: 0,
                    hi: capacity,
                    from_epochs,
                    last_processed: 0,
                    pending: BTreeMap::new(),
                    received: BTreeMap::new(),
                };
                if self.golden.is_none() {
                    self.golden = Some(WatchState {
                        tenant: state.tenant,
                        lo: state.lo,
                        hi: state.hi,
                        from_epochs: state.from_epochs.clone(),
                        last_processed: 0,
                        pending: BTreeMap::new(),
                        received: BTreeMap::new(),
                    });
                }
                self.watch = Some(state);
                self.phase = Phase::Ready;
            }
            Response::PutOk { req, epoch } => {
                let Some(inflight) = self.inflight.remove(&req) else {
                    return;
                };
                self.record(OpKind::Put, at.saturating_sub(inflight.first));
                if let Request::Put {
                    tenant, key, value, ..
                } = inflight.request
                {
                    let tenant_idx: usize = tenant
                        .strip_prefix('t')
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    self.acked.push(AckedPut {
                        tenant: tenant_idx,
                        key,
                        value,
                        epoch,
                    });
                }
            }
            Response::GetOk { req, .. } => {
                if let Some(inflight) = self.inflight.remove(&req) {
                    self.record(OpKind::Get, at.saturating_sub(inflight.first));
                }
            }
            Response::ScanOk { req, .. } => {
                if let Some(inflight) = self.inflight.remove(&req) {
                    self.record(OpKind::Scan, at.saturating_sub(inflight.first));
                }
            }
            Response::UnsubOk { .. } | Response::StatsOk { .. } => {}
            Response::Notify {
                cut_seq,
                prev_seq,
                events,
            } => {
                self.on_notify(node, now, cut_seq, prev_seq, events);
            }
            Response::Err { req, code } => match code {
                ErrCode::UnknownSession => self.reconnect(node, now, fleet.staleness),
                _ => {
                    self.inflight.remove(&req);
                }
            },
        }
    }

    /// Chain-ordered exactly-once bundle processing: a bundle is
    /// applied only when its `prev_seq` matches the last applied
    /// bundle; earlier-arriving successors wait in `pending`;
    /// duplicates are acked but discarded.
    fn on_notify(
        &mut self,
        node: &mut ServeNode,
        now: Nanos,
        cut_seq: u64,
        prev_seq: u64,
        events: Vec<NotifyEvent>,
    ) {
        let session = self.session;
        let Some(w) = self.watch.as_mut() else {
            return;
        };
        if cut_seq <= w.last_processed || w.pending.contains_key(&cut_seq) {
            self.dup_bundles += 1;
        } else {
            if cut_seq < prev_seq {
                self.chain_violations += 1;
            }
            w.pending.insert(cut_seq, (prev_seq, events));
        }
        // Apply every bundle whose predecessor has been applied.
        while let Some((&seq, &(prev, _))) = w.pending.first_key_value() {
            if prev != w.last_processed {
                break;
            }
            let (_, events) = w.pending.remove(&seq).expect("just seen");
            if seq <= w.last_processed {
                self.chain_violations += 1;
            }
            w.last_processed = seq;
            self.bundles_processed += 1;
            for e in events {
                let entry = w.received.entry((e.stripe, e.epoch)).or_default();
                entry.extend(e.ranges);
                let merged = wire::merge_ranges(std::mem::take(entry));
                *entry = merged;
            }
        }
        let ack = w.last_processed;
        node.client_send(
            self.port,
            now,
            wire::encode_request(&Request::NotifyAck {
                session,
                cut_seq: ack,
            }),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        node: &mut ServeNode,
        now: Nanos,
        fleet: &FleetConfig,
        dist: &TenantKeyZipf,
        capacity: u64,
        issuing: bool,
    ) {
        // 1. Drain responses (latency measured at true delivery time).
        while let Some((at, dg)) = node.client_poll(self.port, now) {
            let Ok(resps) = wire::decode_responses(&dg) else {
                continue;
            };
            for resp in resps {
                self.on_response(node, now, at, resp, fleet, capacity);
            }
        }
        // 2. Retransmit or give up on timed-out requests.
        let mut resend: Vec<Request> = Vec::new();
        let mut must_reconnect = false;
        for inflight in self.inflight.values_mut() {
            if now.saturating_sub(inflight.last) < fleet.request_timeout {
                continue;
            }
            inflight.retries += 1;
            inflight.last = now;
            if inflight.retries > fleet.max_retries {
                must_reconnect = true;
                break;
            }
            resend.push(inflight.request.clone());
        }
        if must_reconnect {
            self.reconnect(node, now, fleet.staleness);
            return;
        }
        for request in resend {
            node.client_send(self.port, now, wire::encode_request(&request));
        }
        // A subscriber whose Subscribe was answered with a (transient)
        // error — e.g. the post-promotion snapshot catalog was briefly
        // full — has nothing in flight to retransmit: re-issue it.
        if self.phase == Phase::Subscribing
            && now >= self.next_op_at
            && !self.inflight.values().any(|i| i.kind == OpKind::Subscribe)
        {
            self.next_op_at = now + fleet.think;
            let req = self.next_req;
            self.next_req += 1;
            let session = self.session;
            self.send(
                node,
                now,
                Request::Subscribe {
                    session,
                    req,
                    tenant: format!("t{}", self.home_tenant),
                    lo: 0,
                    hi: capacity,
                },
                OpKind::Subscribe,
            );
            return;
        }
        if self.phase != Phase::Ready || now < self.next_op_at {
            return;
        }
        // 3. Issue at most one new data op, keeping one in flight.
        // Carried-over puts still flush during drain rounds (they are
        // in-flight work, not new load); only fresh ops stop.
        if self
            .inflight
            .values()
            .any(|i| matches!(i.kind, OpKind::Put | OpKind::Get | OpKind::Scan))
        {
            return;
        }
        if !issuing && self.retry_puts.is_empty() {
            return;
        }
        self.next_op_at = now + fleet.think;
        let req = self.next_req;
        self.next_req += 1;
        let session = self.session;
        if let Some((tenant_idx, key, value)) = self.retry_puts.pop() {
            self.send(
                node,
                now,
                Request::Put {
                    session,
                    req,
                    tenant: format!("t{tenant_idx}"),
                    key,
                    value,
                },
                OpKind::Put,
            );
            return;
        }
        let (tenant_idx, key) = dist.sample(&mut self.rng);
        let key = key as u64 % capacity;
        let tenant = format!("t{tenant_idx}");
        let roll: f64 = self.rng.gen();
        if roll < fleet.put_ratio {
            self.put_counter += 1;
            let mut value = vec![0u8; fleet.value_bytes.clamp(8, wire::MAX_VALUE_BYTES)];
            value[0..4].copy_from_slice(&(self.id as u32).to_le_bytes());
            value[4..8].copy_from_slice(&(self.put_counter as u32).to_le_bytes());
            self.send(
                node,
                now,
                Request::Put {
                    session,
                    req,
                    tenant,
                    key,
                    value,
                },
                OpKind::Put,
            );
        } else if roll < fleet.put_ratio + fleet.scan_ratio {
            let span = 64.min(capacity);
            let lo = key.min(capacity - span);
            self.send(
                node,
                now,
                Request::Scan {
                    session,
                    req,
                    tenant,
                    lo,
                    hi: lo + span,
                },
                OpKind::Scan,
            );
        } else {
            self.send(
                node,
                now,
                Request::Get {
                    session,
                    req,
                    tenant,
                    key,
                },
                OpKind::Get,
            );
        }
    }
}

/// Runs one fleet against one node (with optional failover) and
/// returns the aggregated report.
///
/// # Errors
///
/// Server-side [`ServeError`]s only; client-visible failures are data
/// in the report.
///
/// # Panics
///
/// Panics if the run is misconfigured (failover without replicas).
pub fn run(fleet: &FleetConfig, cfg: &RunConfig) -> Result<RunReport, ServeError> {
    assert!(
        cfg.failover_at.is_none() || cfg.replicas > 0,
        "failover needs at least one replica to promote"
    );
    let capacity = cfg.serve.capacity();
    let dist = TenantKeyZipf::new(
        fleet.tenants,
        fleet.tenant_theta,
        capacity as usize,
        fleet.key_theta,
    );
    let mut node = ServeNode::format(cfg.serve.clone(), fleet.clients, cfg.client_net);
    for r in 0..cfg.replicas {
        let net = NetConfig {
            seed: cfg.replica_net.seed.wrapping_add(1 + r as u64),
            ..cfg.replica_net
        };
        node.add_replica(&format!("r{r}"), net)?;
    }
    let mut clients: Vec<Client> = (0..fleet.clients)
        .map(|i| Client::new(i, fleet, &dist))
        .collect();
    let mut now = Nanos::ZERO;
    for c in clients.iter_mut() {
        c.hello(&mut node, now, fleet.staleness);
    }

    let mut failover: Option<FailoverReport> = None;
    let total_rounds = cfg.rounds + cfg.drain_rounds;
    for round in 0..total_rounds {
        now += cfg.quantum;
        let issuing = round < cfg.rounds;
        if cfg.failover_at == Some(round) {
            let report = do_failover(&mut node, &mut clients, fleet, cfg, &mut now)?;
            failover = Some(report);
        }
        for c in clients.iter_mut() {
            c.step(&mut node, now, fleet, &dist, capacity, issuing);
        }
        node.step(now)?;
    }

    let drained = clients.iter().all(|c| {
        c.inflight
            .values()
            .all(|i| !matches!(i.kind, OpKind::Put | OpKind::Get | OpKind::Scan))
            && c.retry_puts.is_empty()
    });
    if let Some(f) = failover.as_mut() {
        f.rehomed_subscribers = clients
            .iter()
            .filter(|c| c.subscriber && c.post_failover && c.watch.is_some())
            .count();
        f.reconnected_sessions = clients
            .iter()
            .filter(|c| c.post_failover && c.phase == Phase::Ready)
            .count();
    }
    let watch_violations = if failover.is_none() && drained {
        verify_watches(&clients, cfg.serve.stripes)
    } else {
        0
    };

    let mut report = RunReport {
        ops: 0,
        puts: 0,
        gets: 0,
        scans: 0,
        put_lat: LatencyStats::default(),
        get_lat: LatencyStats::default(),
        scan_lat: LatencyStats::default(),
        pre_lat: LatencyStats::default(),
        post_lat: LatencyStats::default(),
        virtual_time: now,
        server: node.stats(),
        replica_reads: node.stats().replica_reads,
        primary_reads: node.stats().primary_reads,
        reconnects: 0,
        bundles_processed: 0,
        dup_bundles: 0,
        watch_violations,
        chain_violations: 0,
        drained,
        failover,
    };
    for c in &clients {
        report.puts += c.put_lat.count();
        report.gets += c.get_lat.count();
        report.scans += c.scan_lat.count();
        report.put_lat.merge(&c.put_lat);
        report.get_lat.merge(&c.get_lat);
        report.scan_lat.merge(&c.scan_lat);
        report.pre_lat.merge(&c.pre_lat);
        report.post_lat.merge(&c.post_lat);
        report.reconnects += c.reconnects;
        report.bundles_processed += c.bundles_processed;
        report.dup_bundles += c.dup_bundles;
        report.chain_violations += c.chain_violations;
    }
    report.ops = report.puts + report.gets + report.scans;
    Ok(report)
}

/// Crashes the primary, promotes `r0`, verifies no acked write was
/// lost, boots the new node (re-attaching the survivors and the old
/// primary's device), and leaves the clients to discover the new reign
/// through timeouts.
fn do_failover(
    node: &mut ServeNode,
    clients: &mut [Client],
    fleet: &FleetConfig,
    cfg: &RunConfig,
    now: &mut Nanos,
) -> Result<FailoverReport, ServeError> {
    // Swap the live node out; `old` is the crashing primary.
    let placeholder = ServeNode::format(cfg.serve.clone(), 0, cfg.client_net);
    let old = std::mem::replace(node, placeholder);
    let (at, engine, old_disk) = old.crash();
    let engine = engine.expect("failover runs attach replicas");
    let mut promo = engine.promote("r0")?;
    let promoted = promo.replica.clone();
    let survivors = std::mem::take(&mut promo.survivors);

    let reattach_net = |salt: u64| NetConfig {
        seed: cfg.replica_net.seed.wrapping_add(0x1000 + salt),
        ..cfg.replica_net
    };
    let mut reattach: Vec<(String, NetConfig, msnap_disk::Disk)> = Vec::new();
    for (i, (name, disk)) in survivors.into_iter().enumerate() {
        reattach.push((name, reattach_net(i as u64), disk));
    }
    reattach.push(("old-primary".to_string(), reattach_net(99), old_disk));

    let new_client_net = NetConfig {
        seed: cfg.client_net.seed.wrapping_add(0xFA11),
        ..cfg.client_net
    };
    *node = ServeNode::from_promotion(
        promo,
        cfg.serve.clone(),
        fleet.clients,
        new_client_net,
        reattach,
    )?;
    *now = (*now).max(node.now());

    // Oracle: every acked put must still be readable on the promoted
    // store, unless a later (acked or still-unacked-but-sent) put to
    // the same key overwrote it.
    // (tenant, key) -> (newest acked epoch, candidate values at it).
    type NewestAcked = BTreeMap<(usize, u64), (u64, Vec<Vec<u8>>)>;
    let mut newest_acked: NewestAcked = BTreeMap::new();
    let mut acked_before = 0u64;
    for c in clients.iter() {
        for p in &c.acked {
            acked_before += 1;
            let entry = newest_acked
                .entry((p.tenant, p.key))
                .or_insert((p.epoch, Vec::new()));
            match p.epoch.cmp(&entry.0) {
                std::cmp::Ordering::Greater => *entry = (p.epoch, vec![p.value.clone()]),
                std::cmp::Ordering::Equal => entry.1.push(p.value.clone()),
                std::cmp::Ordering::Less => {}
            }
        }
    }
    let mut unacked: BTreeMap<(usize, u64), Vec<Vec<u8>>> = BTreeMap::new();
    for c in clients.iter() {
        for inflight in c.inflight.values() {
            if let Request::Put {
                tenant, key, value, ..
            } = &inflight.request
            {
                let tenant_idx: usize = tenant
                    .strip_prefix('t')
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                unacked
                    .entry((tenant_idx, *key))
                    .or_default()
                    .push(value.clone());
            }
        }
        for (tenant_idx, key, value) in &c.retry_puts {
            unacked
                .entry((*tenant_idx, *key))
                .or_default()
                .push(value.clone());
        }
    }
    let mut lost = 0u64;
    for ((tenant, key), (_, values)) in &newest_acked {
        let stored = node.peek(&format!("t{tenant}"), *key)?;
        let ok = match &stored {
            Some(v) => {
                values.iter().any(|w| w == v)
                    || unacked
                        .get(&(*tenant, *key))
                        .is_some_and(|cands| cands.iter().any(|w| w == v))
            }
            None => false,
        };
        if !ok {
            lost += 1;
        }
    }

    for c in clients.iter_mut() {
        c.post_failover = true;
    }
    Ok(FailoverReport {
        at,
        promoted,
        acked_before,
        lost_acked_writes: lost,
        rehomed_subscribers: 0,
        reconnected_sessions: 0,
    })
}

/// True when the union of `inner` lies inside the union of `outer`.
/// Both sides must be merged (sorted, non-overlapping, non-adjacent),
/// so each inner range is contained in the union iff some single outer
/// range contains it.
fn ranges_cover(outer: &[(u64, u64)], inner: &[(u64, u64)]) -> bool {
    inner
        .iter()
        .all(|&(lo, hi)| outer.iter().any(|&(olo, ohi)| olo <= lo && hi <= ohi))
}

/// Compares each golden watch's processed event stream against the
/// exact changed-key set implied by the fleet's acked puts: for every
/// `(stripe, epoch)` past the watch's baseline, the received ranges
/// must cover every written key's slot and never exceed the written
/// keys' page ranges — the server ships slot-precise ranges when the
/// μCheckpoint line chain proves coverage and falls back to whole
/// pages otherwise, so anything between those two bounds is exact.
/// Returns the number of mismatching `(watch, stripe, epoch)` cells.
fn verify_watches(clients: &[Client], stripes: u64) -> u64 {
    // All acked puts, fleet-wide, grouped per tenant.
    let mut puts_by_tenant: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new(); // (key, epoch)
    for c in clients {
        for p in &c.acked {
            puts_by_tenant
                .entry(p.tenant)
                .or_default()
                .push((p.key, p.epoch));
        }
    }
    let mut violations = 0u64;
    for c in clients {
        // The live watch carries the processed stream; the golden copy
        // pins the original from_epochs (failover-free runs never
        // re-subscribe, so they coincide).
        let (Some(w), Some(g)) = (c.watch.as_ref(), c.golden.as_ref()) else {
            continue;
        };
        // Per cell: the written slots (lower bound on what must be
        // reported) and the written pages (upper bound on what may be).
        let mut exp_slots: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
        let mut exp_pages: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for &(key, epoch) in puts_by_tenant.get(&g.tenant).map_or(&[][..], |v| v) {
            let stripe = key_stripe(stripes, key);
            if epoch <= *g.from_epochs.get(stripe as usize).unwrap_or(&0) {
                continue;
            }
            let clip = |lo: u64, hi: u64| {
                let lo = lo.max(g.lo);
                let hi = hi.min(g.hi);
                (lo < hi).then_some((lo, hi))
            };
            if let Some(r) = clip(key, key + 1) {
                exp_slots.entry((stripe, epoch)).or_default().push(r);
            }
            let (lo, hi) = key_page_range(key);
            if let Some(r) = clip(lo, hi) {
                exp_pages.entry((stripe, epoch)).or_default().push(r);
            }
        }
        let exp_slots: BTreeMap<(u64, u64), Vec<(u64, u64)>> = exp_slots
            .into_iter()
            .map(|(k, v)| (k, wire::merge_ranges(v)))
            .collect();
        let exp_pages: BTreeMap<(u64, u64), Vec<(u64, u64)>> = exp_pages
            .into_iter()
            .map(|(k, v)| (k, wire::merge_ranges(v)))
            .collect();
        let keys: std::collections::BTreeSet<_> =
            exp_pages.keys().chain(w.received.keys()).collect();
        for k in keys {
            let ok = match (exp_pages.get(k), w.received.get(k)) {
                // Reported ranges must bound-check both ways.
                (Some(pages), Some(recv)) => {
                    let slots = exp_slots.get(k).map_or(&[][..], |v| v);
                    ranges_cover(recv, slots) && ranges_cover(pages, recv)
                }
                // A cell with writes but no event is only legitimate
                // when every written slot clipped out of the window
                // (slot-precise events can be empty where page-granular
                // ones were not).
                (Some(_), None) => !exp_slots.contains_key(k),
                // An event for an epoch nothing was written in is
                // always spurious.
                (None, Some(_)) => false,
                (None, None) => true,
            };
            if !ok {
                violations += 1;
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_fleet_serves_and_watches_exactly() {
        let fleet = FleetConfig {
            clients: 12,
            subscribers: 4,
            tenants: 4,
            seed: 9,
            ..FleetConfig::default()
        };
        let cfg = RunConfig {
            replicas: 1,
            rounds: 150,
            ..RunConfig::default()
        };
        let report = run(&fleet, &cfg).unwrap();
        assert!(report.drained, "fleet did not drain: {report:?}");
        assert!(report.puts > 50, "puts: {}", report.puts);
        assert!(report.gets > 50, "gets: {}", report.gets);
        assert!(report.bundles_processed > 0, "no notify bundles");
        assert_eq!(report.watch_violations, 0, "watch exactness");
        assert_eq!(report.chain_violations, 0, "cut chain order");
        assert!(report.server.cuts > 0);
    }

    #[test]
    fn failover_loses_no_acked_write_and_rehomes_sessions() {
        let fleet = FleetConfig {
            clients: 10,
            subscribers: 3,
            tenants: 2,
            seed: 21,
            ..FleetConfig::default()
        };
        let cfg = RunConfig {
            // Post-promotion the store is single-shard: keep the
            // object count (tenants × stripes) inside its snapshot
            // catalog budget (the repl engine's rejoin anchors).
            serve: ServeConfig {
                stripes: 2,
                ..ServeConfig::default()
            },
            replicas: 2,
            rounds: 260,
            drain_rounds: 900,
            failover_at: Some(130),
            ..RunConfig::default()
        };
        let report = run(&fleet, &cfg).unwrap();
        let f = report.failover.as_ref().expect("failover ran");
        assert!(f.acked_before > 0, "no acked writes before the crash");
        assert_eq!(f.lost_acked_writes, 0, "acked writes lost: {f:?}");
        assert_eq!(f.rehomed_subscribers, 3, "subscribers re-homed: {f:?}");
        assert_eq!(f.reconnected_sessions, 10, "sessions re-homed: {f:?}");
        assert!(report.drained, "fleet did not drain after failover");
        assert!(report.post_lat.count() > 0, "no post-failover ops");
    }
}
