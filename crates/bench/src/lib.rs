//! The one experiment harness, plus table formatting.
//!
//! Every table and figure of the MemSnap paper has a `harness = false`
//! bench target in this crate; `cargo bench` regenerates all of them.
//! Each harness prints the paper's reported values next to this
//! reproduction's measured values so EXPERIMENTS.md can be audited
//! directly from the output.
//!
//! The workload drivers those benches, the root integration tests and
//! the examples share live here, outside the program crates:
//!
//! - [`litedb`]: dbbench, TATP, online backup and replicated LiteDB
//!   (§7.1);
//! - [`skipdb`]: MixGraph, the §7.2 torture test and KV failover;
//! - [`group_commit`]: one multi-thread group-commit driver over LiteDB
//!   or SkipDB;
//! - [`replica`]: the flow-controlled tick and the replica byte-compare
//!   both replicated drivers share;
//! - [`tpcc`]: TPC-C over the four PgDB storage stacks (Figure 6);
//! - [`serve`]: the seeded oracle fleet driving one `ServeNode`.

#![warn(missing_docs)]

pub mod group_commit;
pub mod litedb;
pub mod replica;
pub mod serve;
pub mod skipdb;
pub mod tpcc;

/// Prints a section header.
pub fn header(title: &str, note: &str) {
    println!();
    println!("=== {title} ===");
    if !note.is_empty() {
        println!("{note}");
    }
    println!();
}

/// Prints an aligned table: `headers` then `rows`.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    println!("  {}", "-".repeat(total));
    for row in rows {
        print_row(row);
    }
}

/// Formats microseconds with sensible precision.
pub fn us(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.1}K", v / 1000.0)
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Formats a paper-vs-measured pair with the ratio.
pub fn vs(paper: f64, measured: f64) -> String {
    if paper == 0.0 {
        return format!("- / {}", us(measured));
    }
    format!(
        "{} / {} ({:+.0}%)",
        us(paper),
        us(measured),
        (measured / paper - 1.0) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_formats_ranges() {
        assert_eq!(us(3.25), "3.2");
        assert_eq!(us(250.4), "250");
        assert_eq!(us(12_500.0), "12.5K");
    }

    #[test]
    fn vs_reports_ratio() {
        assert_eq!(vs(100.0, 110.0), "100 / 110 (+10%)");
        assert!(vs(0.0, 5.0).starts_with("- /"));
    }
}
