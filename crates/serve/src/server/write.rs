//! The write, notify and cut actors and the replication round: one
//! group commit per touched stripe, the commit's dirty-line record as
//! watch events, events released per vector cut, and `PutOk` released
//! once every replica holds the write.

use super::*;

impl ServeNode {
    // ---- write actor ---------------------------------------------------

    /// Applies the mailbox's puts and group-commits one μCheckpoint per
    /// touched stripe. Returns the committed stripes as
    /// `(tenant, stripe index, epoch)`.
    pub(super) fn write_actor(&mut self) -> Result<Vec<(String, usize, u64)>, ServeError> {
        if self.throttled || self.write_mailbox.is_empty() {
            // Replication back-pressure: leave the mailbox queued; the
            // stall is client-visible as put latency, never data loss.
            return Ok(Vec::new());
        }
        let ops: Vec<QueuedOp> = self.write_mailbox.drain(..).collect();
        // (tenant, stripe) -> (session, req, key, value) puts, in
        // BTreeMap order for determinism.
        type StripePuts = BTreeMap<(String, usize), Vec<(u64, u64, u64, Vec<u8>)>>;
        let mut by_stripe: StripePuts = BTreeMap::new();
        for op in ops {
            let QueuedOp::Put {
                session,
                req,
                tenant,
                key,
                value,
            } = op
            else {
                continue;
            };
            if self.ensure_tenant(&tenant).is_err() {
                self.reply(
                    session,
                    req,
                    Response::Err {
                        req,
                        code: ErrCode::BadRequest,
                    },
                );
                continue;
            }
            let stripe = key_stripe(self.cfg.stripes, key);
            by_stripe
                .entry((tenant, stripe as usize))
                .or_default()
                .push((session, req, key, value));
        }
        if by_stripe.is_empty() {
            return Ok(Vec::new());
        }
        // Write the slots through the VM, then join one group commit
        // per stripe; the core coalesces same-lane stripes further.
        let mut tickets = Vec::new();
        for ((tenant, stripe), puts) in by_stripe {
            let (addr, md) = {
                let s = &self.tenants[&tenant].stripes[stripe];
                (s.addr, s.md)
            };
            let mut slot = [0u8; SLOT_BYTES as usize];
            for (_, _, key, value) in &puts {
                let va = addr + slot_offset(self.cfg.stripes, *key);
                encode_slot(&mut slot, value);
                self.ms
                    .write(&mut self.vt, self.space, self.thread, va, &slot)?;
            }
            let ticket =
                self.ms
                    .msnap_persist_grouped(&mut self.vt, self.thread, RegionSel::Region(md))?;
            tickets.push((tenant, stripe, ticket, puts));
        }
        self.ms.msnap_group_flush(&mut self.vt);
        let mut committed = Vec::with_capacity(tickets.len());
        for (tenant, stripe, ticket, puts) in tickets {
            let epoch = loop {
                if let Some(e) = self.ms.msnap_group_poll(&mut self.vt, ticket)? {
                    break e;
                }
            };
            let obj = self.tenants[&tenant].stripes[stripe].obj.clone();
            for (session, req, _, _) in puts {
                self.stats.puts += 1;
                // With replicas attached, `PutOk` waits until every one
                // has applied the write's epoch: an acknowledged write
                // survives failover by construction.
                if self.repl.is_some() {
                    self.pending_puts.push(PendingPut {
                        session,
                        req,
                        obj: obj.clone(),
                        epoch,
                    });
                } else {
                    self.reply(session, req, Response::PutOk { req, epoch });
                }
            }
            committed.push((tenant, stripe, epoch));
        }
        self.commits_since_cut += committed.len() as u64;
        Ok(committed)
    }

    // ---- notify actor --------------------------------------------------

    /// Turns each committed, watched stripe's dirty-line record into
    /// key-range invalidation events buffered on the subscribers'
    /// sessions. Push-only and IO-free: the commit already recorded
    /// which lines of which pages it changed, so nothing is diffed or
    /// scanned.
    pub(super) fn notify_actor(&mut self, committed: &[(String, usize, u64)]) {
        for (tenant, stripe, epoch) in committed {
            let t = &self.tenants[tenant];
            if t.watchers.is_empty() {
                continue;
            }
            let s = &t.stripes[*stripe];
            let idx = *stripe as u64;
            // `SLOT_BYTES` is the dirty-line granularity, so a page's
            // line runs name exactly the changed keys; a page whose lines
            // are unknown (zero bitmap) invalidates its whole range.
            const _: () = assert!(SLOT_BYTES == LINE_SIZE as u64, "a line is a key slot");
            let ranges: Vec<(u64, u64)> = match self.ms.subpage_extents(&s.obj, s.notified, *epoch)
            {
                Some(pages) => pages
                    .iter()
                    .flat_map(|(&p, &lines)| {
                        let (lo, hi) = self.page_key_range(idx, p);
                        let slot = |byte: u16| lo + u64::from(byte) / SLOT_BYTES;
                        match lines {
                            0 => vec![(lo, hi)],
                            _ => line_runs(lines)
                                .into_iter()
                                .map(|(off, len)| (slot(off), slot(off + len)))
                                .collect(),
                        }
                    })
                    .collect(),
                // The chain cannot prove `(notified, epoch]` covered (an
                // out-of-band commit, or records pruned): invalidate
                // the whole stripe rather than miss a change.
                None => {
                    self.conservative_notifies += 1;
                    (0..PAGES_PER_STRIPE)
                        .map(|p| self.page_key_range(idx, p))
                        .collect()
                }
            };
            self.tenants.get_mut(tenant).expect("exists").stripes[*stripe].notified = *epoch;
            if ranges.is_empty() {
                continue;
            }
            let ranges = wire::merge_ranges(ranges);
            let watchers = self.tenants[tenant].watchers.clone();
            for watch in watchers {
                let Some(w) = self.watches.get(&watch) else {
                    continue;
                };
                let clipped: Vec<(u64, u64)> = ranges
                    .iter()
                    .filter_map(|&(lo, hi)| {
                        let lo = lo.max(w.lo);
                        let hi = hi.min(w.hi);
                        (lo < hi).then_some((lo, hi))
                    })
                    .collect();
                if clipped.is_empty() {
                    continue;
                }
                let session = w.session;
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.pending_events.push(NotifyEvent {
                        watch,
                        stripe: *stripe as u64,
                        epoch: *epoch,
                        ranges: clipped,
                    });
                    self.stats.notify_events += 1;
                }
            }
        }
    }

    // ---- cut / notify release ------------------------------------------

    /// Stamps an epoch-vector cut when due and releases each session's
    /// buffered events as one cut-aligned bundle.
    pub(super) fn maybe_cut(&mut self, committed_this_round: bool) -> Result<(), ServeError> {
        // Age the cut timer on *every* round once something is waiting:
        // if only committing rounds counted, the final commits before a
        // quiet spell would sit buffered forever (their cut would wait
        // on a future commit that never comes).
        if committed_this_round || self.commits_since_cut > 0 {
            self.rounds_since_cut += 1;
        }
        if self.commits_since_cut == 0 || self.rounds_since_cut < CUT_EVERY {
            return Ok(());
        }
        self.rounds_since_cut = 0;
        self.commits_since_cut = 0;
        let cut = self.ms.msnap_cut(&mut self.vt)?;
        self.stats.cuts += 1;
        let now = self.vt.now();
        let mut sends: Vec<(usize, Response)> = Vec::new();
        for s in self.sessions.values_mut() {
            if s.pending_events.is_empty() {
                continue;
            }
            let events = std::mem::take(&mut s.pending_events);
            let resp = Response::Notify {
                cut_seq: cut.seq,
                prev_seq: s.last_seq,
                events,
            };
            s.last_seq = cut.seq;
            s.unacked.insert(
                cut.seq,
                UnackedBundle {
                    resp: resp.clone(),
                    last_sent: now,
                },
            );
            self.stats.notify_bundles += 1;
            sends.push((s.port, resp));
        }
        for (port, resp) in sends {
            self.push(port, &resp);
        }
        Ok(())
    }

    pub(super) fn retransmit_notifies(&mut self) {
        let now = self.vt.now();
        let mut sends: Vec<(usize, Response)> = Vec::new();
        for s in self.sessions.values_mut() {
            for bundle in s.unacked.values_mut() {
                if now.saturating_sub(bundle.last_sent) >= NOTIFY_RETRANSMIT {
                    bundle.last_sent = now;
                    sends.push((s.port, bundle.resp.clone()));
                }
            }
        }
        for (port, resp) in sends {
            self.push(port, &resp);
        }
    }

    // ---- replication round ---------------------------------------------

    pub(super) fn repl_round(&mut self) -> Result<(), ServeError> {
        let Some(engine) = self.repl.as_mut() else {
            self.throttled = false;
            self.release_puts();
            return Ok(());
        };
        let report = engine.tick(&mut self.vt, &mut self.ms)?;
        self.throttled = report.throttled;
        self.release_puts();
        Ok(())
    }

    /// Releases `PutOk`s whose epoch every replica has applied.
    fn release_puts(&mut self) {
        if self.pending_puts.is_empty() {
            return;
        }
        let ready: Vec<PendingPut> = match self.repl.as_ref() {
            None => self.pending_puts.drain(..).collect(),
            Some(engine) => {
                let names = &self.replica_names;
                let mut ready = Vec::new();
                let mut keep = Vec::new();
                for p in self.pending_puts.drain(..) {
                    let applied = names.iter().all(|n| {
                        engine
                            .replica(n)
                            .is_some_and(|r| r.epoch(&p.obj) >= p.epoch)
                    });
                    if applied {
                        ready.push(p);
                    } else {
                        keep.push(p);
                    }
                }
                self.pending_puts = keep;
                ready
            }
        };
        for p in ready {
            self.reply(
                p.session,
                p.req,
                Response::PutOk {
                    req: p.req,
                    epoch: p.epoch,
                },
            );
        }
    }
}
