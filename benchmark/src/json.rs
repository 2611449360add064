//! The one line of JSON a run ends with, written and read back by
//! hand: the benchmark depends on nothing but the program under test.
//!
//! ```text
//! {"correct": true, "attempted": 1000, "failed": 0, "metrics": {"put_mean_us": {"value": 1.2034, "unit": "us"}}}
//! ```

#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in catalog order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    pub fn emit(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{name} is {value}");
                // `{}` on an f64 prints the shortest text that reads back
                // as the same number: every digit measured, none invented.
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    value,
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads back exactly what [`ResultLine::emit`] writes.
    pub fn parse(line: &str) -> Option<ResultLine> {
        let rest = line.trim().strip_prefix("{\"correct\": ")?;
        let (correct, rest) = rest.split_once(", \"attempted\": ")?;
        let (attempted, rest) = rest.split_once(", \"failed\": ")?;
        let (failed, rest) = rest.split_once(", \"metrics\": {")?;
        let body = rest.strip_suffix("}}")?;
        let mut metrics = Vec::new();
        if !body.is_empty() {
            for entry in body.split("}, ") {
                let entry = entry.strip_suffix('}').unwrap_or(entry);
                let (name, rest) = entry.split_once(": {\"value\": ")?;
                let (value, unit) = rest.split_once(", \"unit\": ")?;
                metrics.push((unquote(name)?, value.parse().ok()?, unquote(unit)?));
            }
        }
        Some(ResultLine {
            correct: correct.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            metrics,
        })
    }
}

/// Metric names and units are plain ASCII without quotes or
/// backslashes (the catalog's unit test holds them to that), so
/// quoting is just the quotes.
fn quote(s: &str) -> String {
    assert!(!s.contains(['"', '\\']), "{s} needs escaping");
    format!("\"{s}\"")
}

fn unquote(s: &str) -> Option<String> {
    Some(s.strip_prefix('"')?.strip_suffix('"')?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_the_contract_shape() {
        let r = ResultLine {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("latency_ms".into(), 1.2034, "ms".into()),
                ("setup_s".into(), 0.8127, "s".into()),
            ],
        };
        assert_eq!(
            r.emit(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn round_trips_every_digit() {
        let r = ResultLine {
            correct: false,
            attempted: 7,
            failed: 3,
            metrics: vec![
                ("a.b_c-d".into(), 1.0 / 3.0, "kops/cpu-s".into()),
                ("whole".into(), 6.0, "count".into()),
                ("tiny".into(), 1.25e-7, "ratio".into()),
            ],
        };
        assert_eq!(ResultLine::parse(&r.emit()), Some(r));
        let empty = ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
        assert_eq!(ResultLine::parse(&empty.emit()), Some(empty));
        assert_eq!(ResultLine::parse("not json"), None);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn refuses_a_number_json_cannot_hold() {
        ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("x".into(), f64::NAN, "s".into())],
        }
        .emit();
    }
}
