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
//! `[[bench]]` target of `crates/bench/Cargo.toml` not in
//! [`HOST_CLOCK`], in the manifest's order, and writes each bench's
//! stdout under a `## <name>` line. Benches that also write a root
//! `BENCH_*.json` ledger rewrite it as they run; those ledgers are
//! deterministic too, so a clean tree stays clean.

use std::process::{Command, ExitCode, Stdio};

/// The benches that print wall-clock timings, which differ between two
/// runs of one build (`store` prints its `tree_clone` table and raw
/// digest rate). Every other bench joins the ledger.
const HOST_CLOCK: [&str; 4] = ["store", "micro_store", "micro_vm", "micro_skiplist"];

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

fn main() -> ExitCode {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut doc = String::new();
    let benches = bench_targets(include_str!("../../Cargo.toml"));
    for bench in benches.into_iter().filter(|b| !HOST_CLOCK.contains(b)) {
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

    /// A renamed host-clock bench would otherwise join the ledger and
    /// make its diff flaky.
    #[test]
    fn host_clock_names_are_bench_targets() {
        let targets = bench_targets(include_str!("../../Cargo.toml"));
        assert!(
            HOST_CLOCK.iter().all(|b| targets.contains(b)),
            "{targets:?}"
        );
    }
}
