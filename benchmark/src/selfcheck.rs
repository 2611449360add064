//! `--workload all` and `selfcheck`: both run the single-workload
//! command as child processes, one after another, so every run keeps
//! its own peak memory and its own set-up clock.
//!
//! `selfcheck` is the benchmark judging itself by its own bounds: two
//! sets of [`RUNS_PER_SET`] runs of every workload on one seed, plus a
//! traced run. It fails if any virtual metric differs at all — between
//! runs, between sets, or between the traced run and the untraced ones
//! — or if a host metric's spread within a set, or the shift of its
//! median between the sets, exceeds the metric's bound. As in the
//! driver's own acceptance rule, `setup_s` answers only for the shift
//! of its median: it is a sub-second reading of a 10 ms clock.

use std::process::{Command, ExitCode, Stdio};

use crate::json::ResultLine;
use crate::metrics::{Better, Clock, END_TO_END};
use crate::stats::median;
use crate::WORKLOADS;

const SETS: usize = 2;
const RUNS_PER_SET: usize = 3;

fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Command {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd
}

/// Every workload in turn, output passed through.
pub fn run_all(seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let status = child(w.name, seed, seconds, trace)
            .status()
            .expect("child process starts");
        ok &= status.success();
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The ungated host-speed figure, compared for information only.
const HOST_SPEED: &str = "bench.host_kops_per_cpu_s";

struct Run {
    e2e: ResultLine,
    host_speed: f64,
}

/// Runs one workload quietly and returns what it measured.
fn measure(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let out = child(workload, seed, seconds, trace)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: exit {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let tagged = |tag: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(tag))
            .and_then(ResultLine::parse)
            .ok_or_else(|| format!("{workload}: no {tag}line"))
    };
    let e2e = tagged("#e2e ")?;
    if !e2e.correct {
        return Err(format!("{workload}: oracle verdict is INCORRECT"));
    }
    let host_speed = tagged("#layer ")?
        .metrics
        .iter()
        .find(|m| m.0 == HOST_SPEED)
        .map_or(0.0, |m| m.1);
    Ok(Run { e2e, host_speed })
}

/// How much worse `new` is than `old`, as a share of `old`.
fn worsening(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// Largest minus smallest: with three runs a set, the spread there is.
fn range(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    max - min
}

/// Checks one workload; returns what broke its own bounds.
fn check(workload: &str, seed: u64, seconds: u64) -> Result<Vec<String>, String> {
    println!(
        "== {workload} (seed {seed}, {seconds} s): {SETS} sets of {RUNS_PER_SET} runs + 1 traced"
    );
    let mut sets: Vec<Vec<Run>> = Vec::new();
    for _ in 0..SETS {
        let set: Result<Vec<Run>, String> = (0..RUNS_PER_SET)
            .map(|_| measure(workload, seed, seconds, false))
            .collect();
        sets.push(set?);
    }
    let traced = measure(workload, seed, seconds, true)?;
    let mut failures = Vec::new();
    println!(
        "{:<14} {:<8} {:>14} {:>10} {:>10} {:>10} {:>7}",
        "metric", "clock", "median", "spread A", "spread B", "A to B", "bound"
    );
    for (i, m) in END_TO_END.iter().enumerate() {
        let values = |set: &[Run]| -> Vec<f64> { set.iter().map(|r| r.e2e.metrics[i].1).collect() };
        let (a, b) = (values(&sets[0]), values(&sets[1]));
        let (ma, mb) = (median(&a), median(&b));
        let (sa, sb) = (range(&a) / ma, range(&b) / mb);
        let shift = worsening(m.better, ma, mb);
        let first = a[0].to_bits();
        let verdict = match m.clock {
            Clock::Virtual if a.iter().chain(&b).any(|v| v.to_bits() != first) => {
                "DIFFERS BETWEEN RUNS"
            }
            Clock::Virtual if traced.e2e.metrics[i].1.to_bits() != first => "DIFFERS UNDER TRACING",
            Clock::Virtual => "identical",
            Clock::Host if m.name != "setup_s" && sa.max(sb) > m.bound => "SPREAD OVER BOUND",
            Clock::Host if shift.abs() > m.bound => "SETS DISAGREE",
            Clock::Host => "within bound",
        };
        println!(
            "{:<14} {:<8} {:>14.4} {:>9.2}% {:>9.2}% {:>+9.2}% {:>6.0}%  {verdict}",
            m.name,
            if m.clock == Clock::Virtual {
                "virtual"
            } else {
                "host"
            },
            ma,
            sa * 100.0,
            sb * 100.0,
            shift * 100.0,
            m.bound * 100.0,
        );
        if verdict.starts_with(char::is_uppercase) {
            failures.push(format!("{workload}: {} {verdict}", m.name));
        }
    }
    let speeds: Vec<f64> = sets.iter().flatten().map(|r| r.host_speed).collect();
    let untraced = median(&speeds);
    println!(
        "{HOST_SPEED} (ungated): median {untraced:.3}, range {:.1} %; the traced run is {:.1} % slower",
        range(&speeds) / untraced * 100.0,
        worsening(Better::Higher, untraced, traced.host_speed) * 100.0
    );
    Ok(failures)
}

pub fn run(seed: u64, seconds: u64) -> ExitCode {
    let mut failures = Vec::new();
    for w in WORKLOADS {
        match check(w.name, seed, seconds) {
            Ok(f) => failures.extend(f),
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("selfcheck: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.1);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }
}
