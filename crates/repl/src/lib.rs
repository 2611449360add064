//! Primary/replica replication over lossy links: continuous delta
//! shipping, lag-driven flow control, and crash-consistent failover.
//!
//! A [`ReplEngine`] sits beside a primary [`memsnap::MemSnap`] and keeps
//! any number of replicas converging on its committed epochs. Each
//! replica hangs off a pair of simulated datagram links
//! ([`msnap_sim::SimLink`]) that drop, delay, reorder, and partition
//! deterministically under a seed, so every protocol path — including
//! the ugly ones — replays bit-identically.
//!
//! # How shipping works
//!
//! Every [`ReplEngine::tick`] the engine compares each object's live
//! committed epoch against what each replica last acknowledged. A
//! lagging replica gets a **ship**: a [`msnap_snap::DeltaStream`] from
//! that epoch — on a link that has shown loss, from the newest ship in
//! flight, a window of them — to the live one, sent down the link as
//! `Begin`, `Frame`…, `End` ([`Msg`]) packed back to back into datagrams
//! of up to 1 400 bytes — a one-line ship is one datagram. The ship is
//! **commit-fed**: its pages and 64-byte line masks are the dirty-line
//! record the μCheckpoints of that span left behind
//! ([`memsnap::MemSnap::subpage_extents`]) and its bytes are verified
//! reads of the live object, so nothing is pinned, flushed or diffed,
//! and the built frames serve every retransmit.
//!
//! The replica **reassembles**: one record per ship takes its pieces in
//! whatever order they arrive and lands the ship as **one crash-atomic
//! commit** once its object stands at the ship's base (a ship of a window
//! waits for the ones before it), answering `Ack`. A hole that outlives
//! the reorder allowance earns a `Nak` naming the missing pieces, which
//! the primary resends (**selective repeat**); a silent loss is covered
//! by the primary's timer — RFC 9002's probe timeout over the link's own
//! acknowledgement lag — which sends a **tail-loss probe** the replica
//! answers at once. Each end decides in pure rules: the ship `plan`, the
//! replica's `fate` and `never`, the sender's `hear` and `resend`
//! (DESIGN.md §6e lists what each does with every kind of datagram).
//!
//! A sparse subset of ships are **anchor ships** — full images,
//! rebases, and deltas whose span crosses a multiple of half
//! `DROP_BASE_LAG` (64 epochs) — and only for those does the primary
//! pin the live epoch as a retained snapshot and the replica retain
//! the applied one: an epoch both ends hold. When a span has no
//! provable record (the chain was pruned, or a fence / repair / restore
//! commit sits in it) the ship rebases from that anchor — a snapshot
//! diff of at most `DROP_BASE_LAG` epochs — and only without one does
//! it carry the full image.
//!
//! # Flow control
//!
//! Lag is measured three ways — epochs behind, wire bytes in flight,
//! and virtual time from ship build to acknowledgement (the
//! `repl_ack_lag` meter) — and budgeted: epochs by
//! [`ReplConfig::max_lag_epochs`], bytes by `MAX_LAG_BYTES` (1 MiB; like
//! the other constants named here, private to `engine.rs`, where the
//! config fields with one value in use went). Over budget, the tick
//! reports [`TickReport::throttled`] so the ingest path stalls
//! (bounded-staleness writes), and no new ship starts until acks drain
//! the pipe. A replica lagging beyond `DROP_BASE_LAG` loses its anchor
//! and pays for a full image instead — retention on the primary stays
//! at one anchor per link and object no matter how dead a replica is.
//!
//! # Failover
//!
//! [`ReplEngine::promote`] consumes the engine: in-flight datagrams
//! land, incomplete apply sessions are discarded (their staging was
//! volatile), and the chosen replica's objects are fenced `FENCE_GAP`
//! (16) epochs forward. The invariant: **a promoted replica's store is
//! byte-identical to some committed primary epoch**, never a torn
//! intermediate. The old primary can rejoin via
//! [`ReplEngine::attach_replica`]; its `Hello` lists every epoch it
//! retains — its anchors — and the new primary diffs it forward from a
//! commonly retained one, rebasing away the divergent tail, without a
//! full image.
//!
//! # Self-healing repair
//!
//! Replication doubles as the store's last line of defense against
//! media rot. Scrub-detected corruption with no clean local copy (see
//! `ObjectStore::unrepaired_pages`) flows over the links as
//! [`Msg::RepairRequest`] / [`Msg::RepairResponse`] — **both
//! directions**: replicas scrub their own stores and request pages
//! from the primary, and the primary broadcasts its own wants to every
//! replica, rate-limited per page. Both ends run the one exchange
//! (`answer_repair` / `land_repair` in `engine.rs`): a responder
//! answers only when its copy's digest matches the request, and the
//! receiving store re-verifies against its tree's expected digest
//! before committing the healed page crash-atomically — a stale,
//! divergent, or forged payload is refused at both ends.
//!
//! # Module map
//!
//! - `proto.rs`: the wire messages ([`Msg`]) and their packing into
//!   datagrams.
//! - `engine.rs`: [`ReplEngine`] — the links, the tick and its timers,
//!   promotion, and what both ends share (the anchor rule, the repair
//!   exchange, the lag estimator). Its two halves:
//!   - `engine/ship.rs`, the sender: planning, building and sending each
//!     ship, and the snapshots ships pin;
//!   - `engine/replica.rs`, the receiver: [`ReplicaNode`] — reassembly,
//!     one pure rule for each arrival, apply, `Nak`s, repair and cuts.

#![warn(missing_docs)]

mod engine;
mod proto;

pub use engine::{
    LinkMetrics, Promotion, ReplConfig, ReplEngine, ReplError, ReplicaNode, ReplicaState,
    TickReport,
};
pub use proto::{Msg, ObjectStatus};
