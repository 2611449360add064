//! Regenerates `BENCH_judged.json`: every virtual number the judged
//! benchmark prints, per seed and workload, so a change that moves one
//! shows up as a diff of this file.
//!
//! ```text
//! cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
//! cargo run --release -p msnap-bench --bin judged [-- <msnap-benchmark binary>]
//! ```
//!
//! For each of [`SEEDS`] it runs `msnap-benchmark --workload all --seed N
//! --seconds 1` (the binary defaults to `benchmark/target/release/`) and
//! keeps, per workload, the oracle verdict, `attempted`, `failed`, every
//! end-to-end metric the benchmark marks `virtual`, and every non-zero
//! per-layer metric whose name does not say `host`. Values are copied as
//! printed, never re-formatted, so a one-ULP move is a one-line diff.
//! Host-clock numbers (`setup_s`, `peak_rss_mb`, `*host*`) stay out: they
//! differ between two runs of one build.

use std::process::{Command, ExitCode};

/// The seeds the file covers.
const SEEDS: [u64; 3] = [5, 11, 23];
/// The virtual window of each run.
const SECONDS: u64 = 1;

/// `(key, value as printed)` pairs.
type Pairs = Vec<(String, String)>;

/// One workload's run: its name, then its header fields and metrics.
struct Run {
    workload: String,
    fields: Pairs,
    metrics: Pairs,
}

/// The `(name, value)` pairs of a `#e2e` / `#layer` result line, values as
/// printed, and its header fields (`correct`, `attempted`, `failed`).
fn parse_line(line: &str) -> Option<(Pairs, Pairs)> {
    let (head, body) = line.split_once(", \"metrics\": {")?;
    let head = head.strip_prefix('{')?;
    let fields = head
        .split(", ")
        .map(|kv| {
            let (k, v) = kv.split_once(": ")?;
            Some((k.trim_matches('"').to_string(), v.to_string()))
        })
        .collect::<Option<Vec<_>>>()?;
    let body = body.strip_suffix("}}")?;
    let metrics = body
        .split("}, ")
        .filter(|e| !e.is_empty())
        .map(|entry| {
            let (name, rest) = entry.split_once(": {\"value\": ")?;
            let (value, _unit) = rest.split_once(", \"unit\": ")?;
            Some((name.trim_matches('"').to_string(), value.to_string()))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((fields, metrics))
}

/// Splits the stdout of `--workload all` into its workloads' runs.
fn parse_all(stdout: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let mut current: Option<(String, Vec<String>)> = None;
    let finish = |(workload, lines): (String, Vec<String>)| -> Result<Run, String> {
        let tagged = |tag: &str| {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(tag))
                .and_then(parse_line)
                .ok_or_else(|| format!("{workload}: no {tag}line"))
        };
        let (fields, e2e) = tagged("#e2e ")?;
        let (_, layer) = tagged("#layer ")?;
        // The human table names each end-to-end metric's clock.
        let virtual_e2e = |name: &str| {
            lines.iter().any(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.first() == Some(&name) && cols.get(3) == Some(&"virtual")
            })
        };
        let mut metrics: Pairs = e2e.into_iter().filter(|(n, _)| virtual_e2e(n)).collect();
        metrics.extend(
            layer
                .into_iter()
                .filter(|(n, v)| !n.contains("host") && v.parse::<f64>() != Ok(0.0)),
        );
        Ok(Run {
            workload,
            fields,
            metrics,
        })
    };
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some((name, _)) = rest.split_once(" seed=") {
                if let Some(done) = current.take() {
                    runs.push(finish(done)?);
                }
                current = Some((name.to_string(), Vec::new()));
                continue;
            }
        }
        if let Some((_, lines)) = current.as_mut() {
            lines.push(line.to_string());
        }
    }
    if let Some(done) = current.take() {
        runs.push(finish(done)?);
    }
    Ok(runs)
}

fn main() -> ExitCode {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let binary = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("{root}/benchmark/target/release/msnap-benchmark"));
    let mut doc =
        format!("{{\n  \"bench\": \"judged\",\n  \"seconds\": {SECONDS},\n  \"runs\": [\n");
    let mut first = true;
    for seed in SEEDS {
        let out = match Command::new(&binary)
            .args(["--workload", "all", "--seed", &seed.to_string()])
            .args(["--seconds", &SECONDS.to_string()])
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{binary}: {e} (build it first: see this file's docs)");
                return ExitCode::FAILURE;
            }
        };
        if !out.status.success() {
            eprintln!("seed {seed}: {binary} exited {}", out.status);
            return ExitCode::FAILURE;
        }
        let runs = match parse_all(&String::from_utf8_lossy(&out.stdout)) {
            Ok(runs) if !runs.is_empty() => runs,
            Ok(_) => {
                eprintln!("seed {seed}: no workload ran");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for run in runs {
            if !first {
                doc.push_str(",\n");
            }
            first = false;
            doc.push_str(&format!(
                "    {{\"seed\": {seed}, \"workload\": \"{}\"",
                run.workload
            ));
            for (k, v) in &run.fields {
                doc.push_str(&format!(", \"{k}\": {v}"));
            }
            doc.push_str(", \"metrics\": {\n");
            let metrics: Vec<String> = run
                .metrics
                .iter()
                .map(|(n, v)| format!("      \"{n}\": {v}"))
                .collect();
            doc.push_str(&metrics.join(",\n"));
            doc.push_str("\n    }}");
        }
    }
    doc.push_str("\n  ]\n}\n");
    let path = format!("{root}/BENCH_judged.json");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("{path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote BENCH_judged.json");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_virtual_numbers_as_printed_and_drops_host_ones() {
        let stdout = "\
# w seed=5 seconds=1 trace=0 | nproc=2
end-to-end     value unit clock samples bound what
put_mean_us     1.5000 us virtual 10 +5 %  x
peak_rss_mb     9.0000 MiB host 1 +8 %  y
#e2e {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"put_mean_us\": {\"value\": 1.5000000000000002, \"unit\": \"us\"}, \"peak_rss_mb\": {\"value\": 9, \"unit\": \"MiB\"}}}
#layer {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"disk.x\": {\"value\": 0.1, \"unit\": \"B\"}, \"disk.zero\": {\"value\": 0, \"unit\": \"B\"}, \"core.host_ns\": {\"value\": 3, \"unit\": \"ns\"}}}
";
        let runs = parse_all(stdout).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "w");
        assert_eq!(runs[0].fields[1], ("attempted".into(), "10".into()));
        assert_eq!(
            runs[0].metrics,
            vec![
                ("put_mean_us".into(), "1.5000000000000002".into()),
                ("disk.x".into(), "0.1".into()),
            ]
        );
    }
}
