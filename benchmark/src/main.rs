//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! msnap-benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//! msnap-benchmark selfcheck [--seed <n>] [--seconds <s>]
//! ```
//!
//! One run = one workload, one OS thread: set up warm state, measure a
//! window sized by `--seconds`, check every answer against an oracle,
//! print every metric by name, and end with one line of JSON.

mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod report;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::ResultLine;
use metrics::{Better, Clock, END_TO_END, PER_LAYER};
use report::Outcome;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    run: fn(seed: u64, seconds: u64) -> Outcome,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve-open",
        why: "open loop at half capacity through the whole stack: what a user of the service sees, puts beside gets and watches",
        run: workloads::serve::run_open,
    },
    Workload {
        name: "serve-sat",
        why: "same fleet, closed loop, no think time: capacity, where a freed shared resource moves throughput more than latency",
        run: workloads::serve::run_sat,
    },
    Workload {
        name: "kv-mixgraph",
        why: "the paper's RocksDB case study on MemSnapKv, sync uCheckpoint per put; bypasses serve, repl and snap entirely",
        run: workloads::kv_mixgraph::run,
    },
    Workload {
        name: "kv-group8",
        why: "8 contending writers through the group-commit coalescer on PIndexKv: the same commit layers used the other way",
        run: workloads::kv_group8::run,
    },
    Workload {
        name: "repl-wan",
        why: "line and whole-page commits shipped to 2 replicas over lossy WAN links: snap and repl do the work, serve is bypassed",
        run: workloads::repl_wan::run,
    },
    Workload {
        name: "crash-recover",
        why: "commit bursts, power failure, restore, page-in, verify, scrub over 64 MiB: the read path, and the durability test",
        run: workloads::crash_recover::run,
    },
];

/// `--seconds` when none is given; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: u64 = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: msnap-benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]\n\
         \x20      msnap-benchmark selfcheck [--seed <n>] [--seconds <s>]\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Args> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut seeded = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => {
                out.seed = value.parse().ok()?;
                seeded = true;
            }
            "--seconds" => out.seconds = value.parse().ok().filter(|s| (1..=60).contains(s))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    (seeded || out.workload.is_empty()).then_some(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("selfcheck") {
        return match parse(&argv[1..]) {
            Some(a) if a.workload.is_empty() => selfcheck::run(a.seed, a.seconds),
            _ => usage(),
        };
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };
    if args.workload == "all" {
        return selfcheck::run_all(args.seed, args.seconds, args.trace);
    }
    match WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => run_one(w, &args),
        None => usage(),
    }
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    println!(
        "# {} seed={} seconds={} trace={} | nproc={} | load generation and program under test share one OS thread",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
    );
    if args.trace {
        trace::enable();
    }
    let cpu0 = host::user_cpu_s();
    let mut out = (w.run)(args.seed, args.seconds);
    let cpu_s = host::user_cpu_s() - cpu0;
    out.e2e("peak_rss_mb", host::peak_rss_mb(), 1);
    out.layer(
        "bench.failed_op_ratio",
        stats::ratio((out.failed + out.lost) as f64, out.attempted as f64),
    );
    if args.trace {
        // What tracing cost, priced by the traced run itself: spans
        // recorded × the cost of an empty span, against the rest.
        let spans = trace::span_count() as f64;
        let traced_s = spans * trace::span_cost_ns() / 1e9;
        out.layer("bench.spans", spans);
        out.layer(
            "bench.trace_overhead_pct",
            traced_s / (cpu_s - traced_s).max(1e-9) * 100.0,
        );
        // Beside the sources the program was built from, wherever it
        // is run from.
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{}.trace.jsonl", w.name));
        match trace::write_jsonl(&path) {
            Ok(()) => println!("# {spans} spans written to {}", path.display()),
            Err(e) => eprintln!("# spans not written to {}: {e}", path.display()),
        }
    }

    let e2e = ResultLine {
        correct: out.correct(),
        attempted: out.attempted,
        failed: out.failed + out.lost,
        metrics: END_TO_END
            .iter()
            .map(|m| {
                let (value, _) = *out
                    .e2e
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} did not report {}", w.name, m.name));
                assert!(value != 0.0, "{} is 0 on {}", m.name, w.name);
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect(),
    };
    println!(
        "{:<14} {:>16} {:<7} {:<8} {:>9} {:>6}  what",
        "end-to-end", "value", "unit", "clock", "samples", "bound"
    );
    for (m, (_, value, _)) in END_TO_END.iter().zip(&e2e.metrics) {
        println!(
            "{:<14} {:>16.4} {:<7} {:<8} {:>9} {:>4}{:.0} %  {}",
            m.name,
            value,
            m.unit,
            if m.clock == Clock::Virtual {
                "virtual"
            } else {
                "host"
            },
            out.e2e[m.name].1,
            if m.better == Better::Lower { '+' } else { '-' },
            m.bound * 100.0,
            m.what
        );
    }
    // A per-layer metric whose layer did no work here reads 0.
    let layer = ResultLine {
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = out.layer.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect(),
        ..e2e
    };
    if let Some(stray) = out
        .layer
        .keys()
        .find(|k| PER_LAYER.iter().all(|m| m.name != **k))
    {
        panic!("{stray} is reported but not in the catalog");
    }
    // The untraced run shows only the benchmark's own checks on itself.
    println!(
        "{:<38} {:>16} {:<10} {:<6}  should move",
        "per-layer", "value", "unit", "better"
    );
    for (m, (_, value, _)) in PER_LAYER.iter().zip(&layer.metrics) {
        if args.trace || m.layer() == "bench" {
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            println!(
                "{:<38} {:>16.4} {:<10} {:<6}  {}",
                m.name, value, m.unit, better, m.moves
            );
        }
    }
    println!(
        "# attempted={} failed={} lost_or_corrupt={} verdict={}",
        out.attempted,
        out.failed,
        out.lost,
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    // `selfcheck` compares traced and untraced runs on both kinds of
    // metric; the driver reads only the last line.
    println!("#e2e {}", e2e.emit());
    println!("#layer {}", layer.emit());
    println!("{}", if args.trace { layer.emit() } else { e2e.emit() });
    if out.lost > 0 {
        eprintln!(
            "durability failure: {} acknowledged writes lost or pages corrupt",
            out.lost
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
