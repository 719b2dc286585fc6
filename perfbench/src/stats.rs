//! Percentiles, process readings and the result line.

use std::fmt::Write as _;

/// Linear-interpolated quantile `q` of `values` (any order).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile actually reported for a requested tail `q`: `q` itself
/// when at least ten samples lie beyond it, otherwise the highest quantile
/// that still has ten beyond it.
pub fn tail_quantile(n: usize, q: f64) -> f64 {
    if n == 0 {
        return q;
    }
    q.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// A latency distribution summarised for the report.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail quantile value.
    pub tail: f64,
    /// Which quantile `tail` is (0.99 unless too few samples).
    pub tail_q: f64,
}

/// Summarises `samples` as a median and a p99-or-highest-supported tail.
pub fn dist(samples: &[f64]) -> Dist {
    let tail_q = tail_quantile(samples.len(), 0.99);
    Dist {
        n: samples.len(),
        p50: median(samples),
        tail: quantile(samples, tail_q),
        tail_q,
    }
}

impl std::fmt::Display for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.1} p{} {:.1} (n = {})",
            self.p50,
            (self.tail_q * 1000.0).round() / 10.0,
            self.tail,
            self.n
        )
    }
}

fn proc_status_kb(pid: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_status_kb(pid, "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User + system CPU time of a process (`"self"` for this one) so far,
/// in microseconds: the scheduler's exact runtime from `schedstat` where
/// the kernel keeps it, else `utime + stime` from `stat`. The benchmark's
/// measuring processes are single-threaded, so the main thread's figure
/// is the process's.
pub fn cpu_us(pid: &str) -> f64 {
    if let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/schedstat")) {
        if let Some(ns) = text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<f64>().ok())
        {
            return ns / 1e3;
        }
    }
    // Clock ticks per second of /proc/<pid>/stat (USER_HZ, 100 on Linux).
    const TICKS_PER_S: f64 = 100.0;
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // utime and stime are fields 14 and 15 of the line, counted from the
    // pid; the fields after the parenthesised command name start at 3.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields
        .get(11..13)
        .map(|f| f.iter().filter_map(|x| x.parse::<f64>().ok()).sum())
        .unwrap_or(0.0);
    ticks / TICKS_PER_S * 1e6
}

/// A metric in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Failed correctness and exact-count checks; the run is correct
    /// when there are none.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                value,
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_falls_back_when_samples_are_few() {
        assert_eq!(tail_quantile(10_000, 0.99), 0.99);
        assert!((tail_quantile(500, 0.99) - 0.98).abs() < 1e-12);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("setup_s", 0.5, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
