//! Metrics, their summary statistics and the two output formats: the
//! human-readable table and the one-line JSON result.

use std::fmt::Write as _;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time and resources of this host (noisy).
    Host,
    /// The simulator's modeled device (deterministic for a given seed).
    Modeled,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
        }
    }
}

/// The spread of a host metric over the timed passes it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    pub spread: Option<Spread>,
}

impl Metric {
    pub fn host(name: &str, unit: &'static str, value: f64) -> Self {
        Metric { name: name.to_string(), unit, clock: Clock::Host, value, spread: None }
    }

    pub fn modeled(name: &str, unit: &'static str, value: f64) -> Self {
        Metric { name: name.to_string(), unit, clock: Clock::Modeled, value, spread: None }
    }

    /// A host metric summarised as the median of `samples`, with quartiles.
    pub fn host_median(name: &str, unit: &'static str, samples: &[f64]) -> Self {
        let [q1, median, q3] = quartiles(samples);
        Metric {
            spread: Some(Spread { q1, q3, samples: samples.len() }),
            ..Metric::host(name, unit, median)
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    /// Timed passes behind the host medians (R).
    pub passes: usize,
    /// Operations checked (contigs or requests, over every checked run).
    pub attempted: u64,
    /// Operations that failed: non-`Ok` kernel outcomes, oracle
    /// mismatches, refused / timed-out / quarantined requests.
    pub failed: u64,
    /// Internal consistency checks that failed (non-determinism, a traced
    /// replica that is not bit-exact); any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    /// The human-readable table: every metric by name, value, unit and
    /// clock, with quartiles and R for host medians.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {} seed {}: R={} attempted={} failed={} failed_frac={}",
            self.workload,
            self.seed,
            self.passes,
            self.attempted,
            self.failed,
            self.failed_frac()
        );
        for (title, metrics) in [("end-to-end", &self.end_to_end), ("per-layer", &self.per_layer)] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(s, "  {title}:");
            for m in metrics {
                let _ = write!(
                    s,
                    "    {:<36} {:>16} {:<8} {:<7}",
                    m.name,
                    format_value(m.value),
                    m.unit,
                    m.clock.name()
                );
                if let Some(sp) = m.spread {
                    let _ = write!(
                        s,
                        " median of {} (q1 {}, q3 {})",
                        sp.samples,
                        format_value(sp.q1),
                        format_value(sp.q3)
                    );
                }
                s.push('\n');
            }
        }
        for e in &self.errors {
            let _ = writeln!(s, "  ERROR: {e}");
        }
        s
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics, or the per-layer metrics for a traced run.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        let named: Vec<(&str, f64, &str)> =
            metrics.iter().map(|m| (m.name.as_str(), m.value, m.unit)).collect();
        result_line(self.correct(), self.attempted, self.failed, &named)
    }

    /// The detailed JSON report (`--json`): every metric with its clock,
    /// quartiles and sample count.
    pub fn detail_json(&self) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"passes\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \
             \"end_to_end\": {}, \"per_layer\": {}}}",
            self.workload,
            self.seed,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            self.passes,
            self.correct(),
            self.attempted,
            self.failed,
            errors.join(", "),
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer)
        )
    }
}

/// A JSON object of metrics by name, each with value, unit and clock,
/// plus quartiles and sample count for host medians.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut o = format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"clock\": \"{}\"",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.clock.name()
            );
            if let Some(sp) = m.spread {
                let _ = write!(
                    o,
                    ", \"q1\": {}, \"q3\": {}, \"samples\": {}",
                    json_num(sp.q1),
                    json_num(sp.q3),
                    sp.samples
                );
            }
            o.push('}');
            o
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Format the one-line result from `(name, value, unit)` triples.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number in JSON syntax with every digit Rust keeps (shortest
/// round-trip form). Non-finite values have no JSON spelling; they are
/// reported as 0 and never produced by the metric definitions.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn format_value(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e7 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.6}")
    }
}

/// First quartile, median and third quartile of `samples`, with the
/// quartiles interpolated like Python's `statistics.quantiles(n=4)`
/// (the default "exclusive" method).
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => return [0.0; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let median = if n % 2 == 1 { d[n / 2] } else { (d[n / 2 - 1] + d[n / 2]) / 2.0 };
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    [q(1), median, q(3)]
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// Nearest-rank percentile (`p` in (0, 100]) of an ascending slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// This process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [1.0, 2.0, 4.0, 8.0];
        assert_eq!(nearest_rank(&v, 50.0), 2.0);
        assert_eq!(nearest_rank(&v, 99.0), 8.0);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(1e-7), "1e-7");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
