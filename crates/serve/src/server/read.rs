//! The read actor: a `Get` goes to a replica within the session's
//! staleness budget, everything else to the primary.

use super::*;

impl ServeNode {
    // ---- read actor ----------------------------------------------------

    pub(super) fn read_actor(&mut self) -> Result<(), ServeError> {
        let ops = std::mem::take(&mut self.read_queue);
        for op in ops {
            match op {
                Request::Get {
                    session,
                    req,
                    tenant,
                    key,
                } => {
                    let resp = self.serve_get(session, req, &tenant, key)?;
                    self.reply(session, req, resp);
                }
                Request::Scan {
                    session,
                    req,
                    tenant,
                    lo,
                    hi,
                } => {
                    let resp = self.serve_scan(req, &tenant, lo, hi)?;
                    self.stats.scans += 1;
                    self.reply(session, req, resp);
                }
                _ => unreachable!("the read queue holds gets and scans"),
            }
        }
        Ok(())
    }

    fn serve_get(
        &mut self,
        session: u64,
        req: u64,
        tenant: &str,
        key: u64,
    ) -> Result<Response, ServeError> {
        self.stats.gets += 1;
        if key >= self.cfg.capacity() {
            return Ok(Response::Err {
                req,
                code: ErrCode::KeyOutOfRange,
            });
        }
        let staleness = self.sessions.get(&session).map_or(0, |s| s.staleness);
        let Some(t) = self.tenants.get(tenant) else {
            // Unknown tenant: an empty read, not an error — tenants
            // materialize on first write.
            return Ok(Response::GetOk {
                req,
                epoch: 0,
                from_replica: false,
                value: None,
            });
        };
        let stripes = self.cfg.stripes;
        let s = &t.stripes[key_stripe(stripes, key) as usize];
        let offset = slot_offset(stripes, key);
        let page = offset / PAGE_SIZE as u64;
        let (obj, addr) = (s.obj.clone(), s.addr);
        let primary_epoch = self.ms.object_epoch(&obj).unwrap_or(0);

        // Bounded-staleness routing: try replicas (round-robin) whose
        // applied epoch for this object is within the session's budget;
        // fall back to the primary.
        if let Some(engine) = self.repl.as_mut() {
            let n = self.replica_names.len();
            for i in 0..n {
                let name = self.replica_names[(self.read_cursor + i) % n].clone();
                let fresh_enough = engine
                    .replica(&name)
                    .is_some_and(|r| r.epoch(&obj) + staleness >= primary_epoch);
                if !fresh_enough {
                    continue;
                }
                let Some(node) = engine.replica_mut(&name) else {
                    continue;
                };
                // A replica that cannot serve (e.g. mid-bootstrap) leaves
                // the read to the next one, else the primary.
                let mut buf = vec![0u8; PAGE_SIZE];
                if node.read_page(&obj, page, &mut buf).is_ok() {
                    self.read_cursor = (self.read_cursor + i + 1) % n;
                    self.stats.replica_reads += 1;
                    let at = (offset % PAGE_SIZE as u64) as usize;
                    let value = decode_slot(&buf[at..at + SLOT_BYTES as usize]);
                    let epoch = engine.replica(&name).map_or(0, |r| r.epoch(&obj));
                    return Ok(Response::GetOk {
                        req,
                        epoch,
                        from_replica: true,
                        value,
                    });
                }
            }
        }
        let mut buf = [0u8; SLOT_BYTES as usize];
        self.ms
            .read(&mut self.vt, self.space, addr + offset, &mut buf)?;
        self.stats.primary_reads += 1;
        Ok(Response::GetOk {
            req,
            epoch: primary_epoch,
            from_replica: false,
            value: decode_slot(&buf),
        })
    }

    /// Scans are always served by the primary: a multi-page scan must
    /// be read at one consistent epoch, which replicas cannot promise
    /// mid-apply.
    fn serve_scan(
        &mut self,
        req: u64,
        tenant: &str,
        lo: u64,
        hi: u64,
    ) -> Result<Response, ServeError> {
        let hi = hi.min(self.cfg.capacity());
        if lo >= hi {
            return Ok(Response::ScanOk {
                req,
                pairs: Vec::new(),
            });
        }
        let Some(t) = self.tenants.get(tenant) else {
            return Ok(Response::ScanOk {
                req,
                pairs: Vec::new(),
            });
        };
        let addrs: Vec<u64> = t.stripes.iter().map(|s| s.addr).collect();
        let mut pairs = Vec::new();
        let mut buf = [0u8; SLOT_BYTES as usize];
        let stripes = self.cfg.stripes;
        for key in lo..hi {
            let va = addrs[key_stripe(stripes, key) as usize] + slot_offset(stripes, key);
            self.ms.read(&mut self.vt, self.space, va, &mut buf)?;
            if let Some(v) = decode_slot(&buf) {
                pairs.push((key, v));
            }
        }
        Ok(Response::ScanOk { req, pairs })
    }
}
