//! Shared formatting for the benchmark harnesses.
//!
//! Every table and figure of the MemSnap paper has a `harness = false`
//! bench target in this crate; `cargo bench` regenerates all of them.
//! Each harness prints the paper's reported values next to this
//! reproduction's measured values so EXPERIMENTS.md can be audited
//! directly from the output.

#![warn(missing_docs)]

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

/// Returns the byte range of the top-level `"key": <value>` member in a
/// JSON object document (from the opening quote of the key through the
/// end of the value), or `None` when the key is absent. Scans strings
/// and nested brackets correctly; used by the bench harnesses so
/// independent targets can each own one section of a shared JSON file
/// without clobbering the others.
pub fn json_section_span(doc: &str, key: &str) -> Option<(usize, usize)> {
    let pat = format!("\"{key}\"");
    let start = doc.find(&pat)?;
    let colon = start + doc[start..].find(':')?;
    let bytes = doc.as_bytes();
    let mut i = colon + 1;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= bytes.len() {
        return None;
    }
    let end = match bytes[i] {
        open @ (b'[' | b'{') => {
            let close = if open == b'[' { b']' } else { b'}' };
            let mut depth = 0usize;
            let mut in_str = false;
            let mut esc = false;
            loop {
                let c = bytes[i];
                if in_str {
                    if esc {
                        esc = false;
                    } else if c == b'\\' {
                        esc = true;
                    } else if c == b'"' {
                        in_str = false;
                    }
                } else if c == b'"' {
                    in_str = true;
                } else if c == open {
                    depth += 1;
                } else if c == close {
                    depth -= 1;
                    if depth == 0 {
                        break i + 1;
                    }
                }
                i += 1;
                if i >= bytes.len() {
                    return None;
                }
            }
        }
        _ => {
            while i < bytes.len() && bytes[i] != b',' && bytes[i] != b'}' && bytes[i] != b'\n' {
                i += 1;
            }
            i
        }
    };
    Some((start, end))
}

/// Replaces in place (or, when absent, appends) the top-level
/// `"key": <value>` member of a JSON object document, leaving every other
/// member byte-identical and in its position — so the shared ledger does
/// not depend on which bench target ran last. `value` is the raw JSON for
/// the member's value.
pub fn splice_json_section(doc: &str, key: &str, value: &str) -> String {
    if let Some((start, end)) = json_section_span(doc, key) {
        return format!("{}\"{key}\": {value}{}", &doc[..start], &doc[end..]);
    }
    let close = doc.rfind('}').expect("document is a JSON object");
    let head = doc[..close].trim_end();
    let comma = if head.ends_with('{') { "" } else { "," };
    format!("{head}{comma}\n  \"{key}\": {value}\n}}\n")
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

    #[test]
    fn splice_inserts_and_replaces_without_touching_neighbors() {
        let doc = "{\n  \"bench\": \"store\",\n  \"open\": [\n    {\"a\": [1, 2]}\n  ]\n}\n";
        let with = splice_json_section(doc, "shard_scaling", "[{\"shards\": 1}]");
        assert!(with.contains("\"open\""));
        assert!(with.contains("\"shard_scaling\": [{\"shards\": 1}]"));
        let replaced = splice_json_section(&with, "shard_scaling", "[{\"shards\": 4}]");
        assert!(!replaced.contains("\"shards\": 1"));
        assert!(replaced.contains("\"shards\": 4"));
        assert!(replaced.contains("\"open\""));
        // Re-splicing an untouched key leaves the other sections intact.
        let reopen = splice_json_section(&replaced, "open", "[]");
        assert!(reopen.contains("\"shards\": 4"));
        assert!(reopen.contains("\"open\": []"));
    }

    #[test]
    fn resplicing_any_section_is_the_identity() {
        let sections = [
            ("open", "[\n    {\"a\": [1, 2]}\n  ]"),
            ("mid", "17"),
            ("last", "[{\"k\": \"}\"}]"),
        ];
        let doc = sections.iter().fold("{\n}\n".to_string(), |doc, (k, v)| {
            splice_json_section(&doc, k, v)
        });
        for (k, v) in sections {
            assert_eq!(splice_json_section(&doc, k, v), doc, "section {k} moved");
        }
        // A changed value lands where the old one was.
        let changed = splice_json_section(&doc, "mid", "18");
        assert_eq!(changed, doc.replace("\"mid\": 17", "\"mid\": 18"));
    }

    #[test]
    fn span_handles_strings_and_scalars() {
        let doc = "{\"a\": \"br]ace\", \"b\": 17, \"c\": [1]}";
        let (s, e) = json_section_span(doc, "a").unwrap();
        assert_eq!(&doc[s..e], "\"a\": \"br]ace\"");
        let (s, e) = json_section_span(doc, "b").unwrap();
        assert_eq!(&doc[s..e], "\"b\": 17");
        assert!(json_section_span(doc, "missing").is_none());
    }
}
