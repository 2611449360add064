//! Outside-in spans: one around every call the benchmark makes into a
//! layer's public functions, recorded only on a traced run, kept in
//! memory and written out when the run ends.
//!
//! The benchmark is one OS thread, so the recorder is a thread-local;
//! layer adapters (`layers.rs`) call [`begin`]/[`end`] without any
//! handle being threaded through the workloads. A span opened while no
//! other is open starts a new trace (one request, commit or recovery
//! cycle); spans opened inside it are its children.

use std::cell::RefCell;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub vt_start_ns: u64,
    pub vt_end_ns: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans.
    open: Vec<usize>,
    traces: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// A span that has begun; hand it back to [`end`]. Empty when tracing
/// is off, so the untraced run pays one thread-local check per call.
#[must_use]
pub struct Open(Option<usize>);

pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            traces: 0,
        })
    });
}

pub fn begin(name: &'static str, vt_ns: u64) -> Open {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Open(None);
        };
        let (parent, trace) = match rec.open.last() {
            Some(&p) => (rec.spans[p].id, rec.spans[p].trace),
            None => {
                rec.traces += 1;
                (0, rec.traces)
            }
        };
        let idx = rec.spans.len();
        rec.spans.push(Span {
            id: idx as u64 + 1,
            parent,
            trace,
            name,
            vt_start_ns: vt_ns,
            vt_end_ns: vt_ns,
            host_start_ns: rec.t0.elapsed().as_nanos() as u64,
            host_end_ns: 0,
        });
        rec.open.push(idx);
        Open(Some(idx))
    })
}

pub fn end(open: Open, vt_ns: u64) {
    let Some(idx) = open.0 else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("a span was opened, so tracing is on");
        let top = rec.open.pop();
        assert_eq!(top, Some(idx), "spans close in LIFO order");
        let host = rec.t0.elapsed().as_nanos() as u64;
        let span = &mut rec.spans[idx];
        span.vt_end_ns = vt_ns;
        span.host_end_ns = host;
    });
}

/// Records a span whose ends the benchmark observed at different times
/// (a served request: sent in one round, answered in a later one). It
/// is a trace of its own; its host interval is the instant of
/// recording, since no single call stack covers it.
pub fn record(name: &'static str, vt_start_ns: u64, vt_end_ns: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        rec.traces += 1;
        let host = rec.t0.elapsed().as_nanos() as u64;
        let id = rec.spans.len() as u64 + 1;
        rec.spans.push(Span {
            id,
            parent: 0,
            trace: rec.traces,
            name,
            vt_start_ns,
            vt_end_ns,
            host_start_ns: host,
            host_end_ns: host,
        });
    });
}

/// Discards everything recorded so far (the warm-up boundary: spans,
/// like every other metric, cover the measured window only).
pub fn clear() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            assert!(
                rec.open.is_empty(),
                "no span may straddle the warm-up boundary"
            );
            rec.spans.clear();
        }
    });
}

pub fn span_count() -> u64 {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len() as u64))
}

/// Virtual and host durations of every closed span called `name`.
pub fn durations(name: &str) -> (Samples, Samples) {
    let mut vt = Samples::default();
    let mut host = Samples::default();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            for s in rec.spans.iter().filter(|s| s.name == name) {
                vt.push(s.vt_end_ns.saturating_sub(s.vt_start_ns));
                host.push(s.host_end_ns.saturating_sub(s.host_start_ns));
            }
        }
    });
    (vt, host)
}

/// Host nanoseconds one empty `begin`/`end` pair costs, measured now —
/// the traced run prices its own overhead with it.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let before = span_count();
    let t = Instant::now();
    for _ in 0..PAIRS {
        end(begin("bench.calibrate", 0), 0);
    }
    let cost = t.elapsed().as_nanos() as f64 / PAIRS as f64;
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans.truncate(before as usize);
        }
    });
    cost
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    RECORDER.with(|r| -> io::Result<()> {
        if let Some(rec) = r.borrow().as_ref() {
            for s in &rec.spans {
                writeln!(
                    w,
                    "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"vt_start_ns\":{},\"vt_end_ns\":{},\"host_start_ns\":{},\"host_end_ns\":{}}}",
                    s.id, s.parent, s.trace, s.name, s.vt_start_ns, s.vt_end_ns, s.host_start_ns, s.host_end_ns
                )?;
            }
        }
        Ok(())
    })?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_and_free() {
        end(begin("x", 1), 2);
        record("y", 1, 2);
        assert_eq!(span_count(), 0);
    }

    #[test]
    fn nesting_sets_parent_and_trace() {
        enable();
        let root = begin("bench.commit", 10);
        let child = begin("core.msnap_persist", 11);
        end(child, 20);
        end(root, 21);
        let other = begin("bench.commit", 30);
        end(other, 31);
        record("serve.put", 5, 9);
        let spans = RECORDER.with(|r| r.borrow().as_ref().unwrap().spans.clone());
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[0].trace), (0, 1));
        assert_eq!((spans[1].parent, spans[1].trace), (spans[0].id, 1));
        assert_eq!((spans[2].parent, spans[2].trace), (0, 2));
        assert_eq!((spans[3].parent, spans[3].trace), (0, 3));
        assert_eq!(spans[1].vt_end_ns - spans[1].vt_start_ns, 9);
        assert!(spans[1].host_end_ns >= spans[1].host_start_ns);
        let (vt, host) = durations("bench.commit");
        assert_eq!((vt.len(), host.len()), (2, 2));
        assert!(span_cost_ns() > 0.0);
        assert_eq!(span_count(), 4, "calibration leaves no spans behind");
        clear();
        assert_eq!(span_count(), 0);
    }
}
