//! The result line: the last line of standard output, one JSON object.

use crate::workloads::Report;
use std::fmt::Write;

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
#[must_use]
pub fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.name),
            number(m.value),
            escape(&m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Metric;

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let report = Report {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("a_us", "us", 1.25), Metric::new("b", "1/s", f64::NAN)],
            ..Report::default()
        };
        let line = result_line(&report);
        let value = serde_json::from_str(&line).unwrap();
        assert_eq!(value.get("correct").and_then(serde_json::Value::as_bool), Some(true));
        assert_eq!(value.get("attempted").and_then(serde_json::Value::as_f64), Some(3.0));
        let a = value.get("metrics").and_then(|m| m.get("a_us")).unwrap();
        assert_eq!(a.get("value").and_then(serde_json::Value::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(serde_json::Value::as_str), Some("us"));
    }
}
