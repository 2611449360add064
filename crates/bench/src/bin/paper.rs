//! Regenerates `BENCH_paper.txt`: the stdout of every `crates/bench`
//! bench whose output is a pure function of the program, so a change
//! that moves a number of any paper table or figure shows up as a diff
//! of this file.
//!
//! ```text
//! cargo run --release -p msnap-bench --bin paper
//! ```
//!
//! It runs `cargo bench -q -p msnap-bench --bench <name>` for every
//! `[[bench]]` target of `crates/bench/Cargo.toml` that is not
//! host-clock, in the manifest's order, and writes each bench's stdout
//! under a `## <name>` line. Benches that also write a root `BENCH_*`
//! ledger rewrite it whole as they run; those ledgers are deterministic
//! too, so this one command regenerates every paper-bench ledger and a
//! clean tree stays clean.

use std::process::{Command, ExitCode, Stdio};

/// The `[[bench]]` target names of `manifest`, in its order.
fn bench_targets(manifest: &str) -> Vec<&str> {
    manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|section| {
            let line = section.lines().find(|l| l.starts_with("name = "))?;
            Some(line.trim_start_matches("name = ").trim_matches('"'))
        })
        .collect()
}

/// The source of bench target `bench`.
fn bench_source(bench: &str) -> std::io::Result<String> {
    std::fs::read_to_string(format!("{}/benches/{bench}.rs", env!("CARGO_MANIFEST_DIR")))
}

/// Whether a bench prints wall-clock timings, which differ between two
/// runs of one build: exactly the criterion benches do.
fn is_host_clock(source: &str) -> bool {
    source.contains("criterion_main!(")
}

fn main() -> ExitCode {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut doc = String::new();
    for bench in bench_targets(include_str!("../../Cargo.toml")) {
        match bench_source(bench) {
            Ok(source) if is_host_clock(&source) => continue,
            Ok(_) => {}
            Err(e) => {
                eprintln!("{bench}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("paper: {bench}");
        let out = match Command::new(&cargo)
            .args(["bench", "-q", "-p", "msnap-bench", "--bench", bench])
            .current_dir(root)
            .stderr(Stdio::inherit())
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{cargo}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !out.status.success() {
            eprintln!("{bench}: cargo bench exited {}", out.status);
            return ExitCode::FAILURE;
        }
        doc.push_str(&format!("## {bench}\n"));
        doc.push_str(&String::from_utf8_lossy(&out.stdout));
        if !doc.ends_with('\n') {
            doc.push('\n');
        }
    }
    let path = format!("{root}/BENCH_paper.txt");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("{path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote BENCH_paper.txt");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run skips exactly the criterion benches, and a bench that
    /// writes a root ledger is never skipped: its ledger would go stale.
    #[test]
    fn host_clock_benches_are_the_criterion_benches_and_write_no_ledger() {
        let mut host_clock = 0;
        for bench in bench_targets(include_str!("../../Cargo.toml")) {
            let source = bench_source(bench).unwrap();
            let criterion = source.contains("use criterion::");
            assert_eq!(is_host_clock(&source), criterion, "{bench}");
            if criterion {
                host_clock += 1;
                assert!(!source.contains("BENCH_"), "{bench} writes a ledger");
            }
        }
        assert!(host_clock > 0);
    }
}
