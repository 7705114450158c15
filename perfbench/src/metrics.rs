//! Named metrics, order statistics, and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which way is better.
    pub better: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric where lower is better.
    pub fn lower(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name,
            value,
            unit,
            better: "lower",
        });
    }

    /// Appends a metric where higher is better.
    pub fn higher(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name,
            value,
            unit,
            better: "higher",
        });
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (algorithm runs or requests).
    pub attempted: u64,
    /// Operations that were wrong, errored, shed, refused or lost.
    pub failed: u64,
    /// What went wrong, one line per failure kind (at most a few).
    pub errors: Vec<String>,
    /// The metrics of the pass.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one failed operation, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Whether every operation was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One `metric <name> <value> <unit> <better>` line per metric.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics.0 {
            let _ = writeln!(out, "metric {} {} {} {}", m.name, m.value, m.unit, m.better);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.0.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                if i == 0 { "" } else { "," },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values` (mean of the middle two for even counts); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in bytes; 0 if unreadable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kib| kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(quantile(&[5, 1, 3, 2, 4], 0.5), 3);
        assert_eq!(quantile(&(1..=1000).collect::<Vec<_>>(), 0.99), 990);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 9.0, 1.0]), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.lower("run_s", 1.25, "s");
        assert_eq!(
            o.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        o.fail("wrong".into());
        assert!(!o.correct());
        assert!(o.listing().starts_with("metric run_s 1.25 s lower"));
    }
}
