//! The control actor: decodes the round's client datagrams, answers
//! session, watch and stats requests at once, queues puts and reads for
//! the later actors, and sends each port's responses as one datagram.

use super::*;

impl ServeNode {
    // ---- control actor -------------------------------------------------

    pub(super) fn drain_clients(&mut self) {
        let now = self.vt.now();
        while let Some((port, _at, datagram)) = self.uplink.poll(now) {
            let requests = match wire::decode_requests(&datagram) {
                Ok(r) => r,
                Err(_) => {
                    self.malformed += 1;
                    continue;
                }
            };
            for req in requests {
                self.route(port, req);
            }
        }
    }

    fn route(&mut self, port: usize, req: Request) {
        match req {
            Request::Hello { staleness } => {
                let id = self.next_session;
                self.next_session += 1;
                // A reconnect on the same port supersedes the port's
                // older sessions: their watches die with them.
                let stale: Vec<u64> = self
                    .sessions
                    .iter()
                    .filter(|(_, s)| s.port == port)
                    .map(|(&id, _)| id)
                    .collect();
                for sid in stale {
                    self.drop_session(sid);
                }
                self.sessions.insert(
                    id,
                    Session {
                        port,
                        staleness,
                        replies: BTreeMap::new(),
                        inflight: Vec::new(),
                        pending_events: Vec::new(),
                        last_seq: 0,
                        unacked: BTreeMap::new(),
                    },
                );
                let resp = Response::HelloOk {
                    session: id,
                    stripes: self.cfg.stripes,
                    capacity: self.cfg.capacity(),
                };
                self.push(port, &resp);
            }
            Request::Put {
                session,
                req,
                tenant,
                key,
                value,
            } => {
                if !self.admit(port, session, req) {
                    return;
                }
                if key >= self.cfg.capacity() {
                    self.reply(
                        session,
                        req,
                        Response::Err {
                            req,
                            code: ErrCode::KeyOutOfRange,
                        },
                    );
                    return;
                }
                if value.len() > MAX_VALUE_BYTES {
                    self.reply(
                        session,
                        req,
                        Response::Err {
                            req,
                            code: ErrCode::ValueTooLarge,
                        },
                    );
                    return;
                }
                let s = self.sessions.get_mut(&session).expect("checked above");
                if s.inflight.contains(&req) {
                    return; // duplicate of an accepted, still-pending put
                }
                s.inflight.push(req);
                self.write_mailbox.push_back(QueuedOp::Put {
                    session,
                    req,
                    tenant,
                    key,
                    value,
                });
            }
            Request::Get {
                session,
                req,
                tenant,
                key,
            } => {
                if !self.admit(port, session, req) {
                    return;
                }
                self.read_queue.push(QueuedOp::Get {
                    session,
                    req,
                    tenant,
                    key,
                });
            }
            Request::Scan {
                session,
                req,
                tenant,
                lo,
                hi,
            } => {
                if !self.admit(port, session, req) {
                    return;
                }
                self.read_queue.push(QueuedOp::Scan {
                    session,
                    req,
                    tenant,
                    lo,
                    hi,
                });
            }
            Request::Subscribe {
                session,
                req,
                tenant,
                lo,
                hi,
            } => {
                if !self.admit(port, session, req) {
                    return;
                }
                let resp = match self.subscribe(session, &tenant, lo, hi) {
                    Ok((watch, from_epochs)) => Response::SubOk {
                        req,
                        watch,
                        from_epochs,
                    },
                    Err(code) => Response::Err { req, code },
                };
                self.reply(session, req, resp);
            }
            Request::Unsubscribe {
                session,
                req,
                watch,
            } => {
                if !self.admit(port, session, req) {
                    return;
                }
                let resp = match self.watches.get(&watch) {
                    Some(w) if w.session == session => {
                        self.remove_watch(watch);
                        Response::UnsubOk { req }
                    }
                    _ => Response::Err {
                        req,
                        code: ErrCode::UnknownWatch,
                    },
                };
                self.reply(session, req, resp);
            }
            Request::StatsReq { session, req } => {
                if !self.admit(port, session, req) {
                    return;
                }
                let stats = self.stats();
                self.reply(session, req, Response::StatsOk { req, stats });
            }
            Request::NotifyAck { session, cut_seq } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    // Cumulative: acking cut N retires every bundle ≤ N.
                    s.unacked.retain(|&seq, _| seq > cut_seq);
                }
            }
        }
    }

    /// Whether request `req` on `session` is new work. A session that is
    /// not live is answered `UnknownSession` on the port the request
    /// arrived on; a duplicate request id has its cached response
    /// replayed.
    fn admit(&mut self, port: usize, session: u64, req: u64) -> bool {
        let Some(s) = self.sessions.get_mut(&session) else {
            let code = ErrCode::UnknownSession;
            self.push(port, &Response::Err { req, code });
            return false;
        };
        // Follow the client if it reconnected its link.
        s.port = port;
        let Some(resp) = s.replies.get(&req).cloned() else {
            return true;
        };
        self.push(port, &resp);
        false
    }

    /// Caches and sends a response on the session's port.
    pub(super) fn reply(&mut self, session: u64, req: u64, resp: Response) {
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        s.replies.insert(req, resp.clone());
        while s.replies.len() > REPLY_CACHE {
            let oldest = *s.replies.keys().next().expect("non-empty");
            s.replies.remove(&oldest);
        }
        s.inflight.retain(|&r| r != req);
        let port = s.port;
        self.push(port, &resp);
    }

    pub(super) fn push(&mut self, port: usize, resp: &Response) {
        wire::append_response(self.outbox.entry(port).or_default(), resp);
    }

    fn drop_session(&mut self, session: u64) {
        let dead: Vec<u64> = self
            .watches
            .iter()
            .filter(|(_, w)| w.session == session)
            .map(|(&id, _)| id)
            .collect();
        for w in dead {
            self.remove_watch(w);
        }
        self.sessions.remove(&session);
        self.pending_puts.retain(|p| p.session != session);
    }

    // ---- subscriptions -------------------------------------------------

    fn subscribe(
        &mut self,
        session: u64,
        tenant: &str,
        lo: u64,
        hi: u64,
    ) -> Result<(u64, Vec<u64>), ErrCode> {
        if lo >= hi || hi > self.cfg.capacity() {
            return Err(ErrCode::BadRequest);
        }
        self.ensure_tenant(tenant)
            .map_err(|_| ErrCode::BadRequest)?;
        // Start each stripe's notify cursor at its current committed
        // epoch: events start exactly past the reported from_epochs.
        let t = self.tenants.get_mut(tenant).expect("ensured above");
        let mut from_epochs = Vec::with_capacity(t.stripes.len());
        for s in &mut t.stripes {
            s.notified = self.ms.object_epoch(&s.obj).unwrap_or(0);
            from_epochs.push(s.notified);
        }
        let watch = self.next_watch;
        self.next_watch += 1;
        self.watches.insert(
            watch,
            Watch {
                session,
                tenant: tenant.to_string(),
                lo,
                hi,
            },
        );
        t.watchers.push(watch);
        Ok((watch, from_epochs))
    }

    fn remove_watch(&mut self, watch: u64) {
        let Some(w) = self.watches.remove(&watch) else {
            return;
        };
        if let Some(t) = self.tenants.get_mut(&w.tenant) {
            t.watchers.retain(|&id| id != watch);
        }
    }

    /// Creates the tenant's stripe regions on first touch.
    pub(super) fn ensure_tenant(&mut self, tenant: &str) -> Result<(), ServeError> {
        if self.tenants.contains_key(tenant) {
            return Ok(());
        }
        self.open_tenant(tenant, |_| false)
    }

    /// Opens every stripe of `tenant` in index order — a stripe whose
    /// region `exists` as it stands, any other created empty — and
    /// registers the tenant.
    pub(super) fn open_tenant(
        &mut self,
        tenant: &str,
        exists: impl Fn(u64) -> bool,
    ) -> Result<(), ServeError> {
        let mut stripes = Vec::with_capacity(self.cfg.stripes as usize);
        for idx in 0..self.cfg.stripes {
            let name = format!("t/{tenant}/{idx}");
            let pages = if exists(idx) { 0 } else { PAGES_PER_STRIPE };
            let handle = self.ms.msnap_open(&mut self.vt, self.space, &name, pages)?;
            stripes.push(Stripe {
                md: handle.md,
                addr: handle.addr,
                obj: name,
                notified: 0,
            });
        }
        let watchers = Vec::new();
        self.tenants
            .insert(tenant.to_string(), Tenant { stripes, watchers });
        Ok(())
    }

    // ---- outbox --------------------------------------------------------

    pub(super) fn flush_outbox(&mut self) {
        let now = self.vt.now();
        for (port, datagram) in std::mem::take(&mut self.outbox) {
            if !datagram.is_empty() && port < self.downlinks.len() {
                self.downlinks[port].send(now, datagram);
            }
        }
    }
}
