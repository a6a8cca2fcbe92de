//! Metric values, order statistics and the result line.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured (never rounded).
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The nearest-rank `p`-quantile (`p` in `0..=1`) of `samples`; 0.0
/// for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The median of `samples` (mean of the middle two for an even count);
/// 0.0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Rate and latency of one timed round: a fresh set-up answering the
/// workload's whole request sequence.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Queries answered.
    pub queries: u64,
    /// Wall time of the round's requests.
    pub wall_s: f64,
    /// Queries answered over the round's wall time.
    pub qps: f64,
    /// Median request latency.
    pub p50_ms: f64,
    /// 99th-percentile request latency.
    pub p99_ms: f64,
}

impl Round {
    /// A round that answered `queries` queries in `wall_s` seconds,
    /// one latency per request.
    pub fn new(queries: u64, wall_s: f64, latencies_ms: &[f64]) -> Round {
        Round {
            queries,
            wall_s,
            qps: ratio(queries as f64, wall_s),
            p50_ms: percentile(latencies_ms, 0.50),
            p99_ms: percentile(latencies_ms, 0.99),
        }
    }
}

/// The slowest requests of a run's rounds: enough of them to give the
/// 99th percentile over every request of every round without keeping
/// every latency. The rounds answer the same sequence, so each adds as
/// many requests as the first.
#[derive(Debug)]
pub struct Tail {
    rounds: usize,
    seen: usize,
    keep: usize,
    slowest: Vec<f64>,
}

impl Tail {
    /// A tail for a run of `rounds` rounds.
    pub fn new(rounds: usize) -> Tail {
        Tail {
            rounds,
            seen: 0,
            keep: 0,
            slowest: Vec::new(),
        }
    }

    /// Adds one round's request latencies.
    pub fn absorb(&mut self, latencies_ms: &[f64]) {
        if self.keep == 0 {
            let total = self.rounds.max(1) * latencies_ms.len();
            self.keep = total - nearest_rank(total, 0.99) + 1;
        }
        self.seen += latencies_ms.len();
        self.slowest.extend_from_slice(latencies_ms);
        if self.slowest.len() > self.keep {
            let cut = self.slowest.len() - self.keep;
            self.slowest.select_nth_unstable_by(cut, f64::total_cmp);
            self.slowest.drain(..cut);
        }
    }

    /// The nearest-rank 99th percentile over every absorbed latency;
    /// 0.0 for none.
    pub fn p99(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        let mut slowest = self.slowest.clone();
        slowest.sort_by(|a, b| b.total_cmp(a));
        let from_top = self.seen - nearest_rank(self.seen, 0.99);
        slowest.get(from_top).copied().unwrap_or(0.0)
    }
}

/// The 1-based nearest rank of the `p`-quantile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n.max(1))
}

/// `part / whole`, or 0.0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, are written as 0 so the line stays valid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn rounds_cover_every_request() {
        // 100 requests, half of them slow: the nearest-rank median is
        // still a fast one and the 99th percentile a slow one; one more
        // slow request makes the median slow. The rate is the whole
        // round's.
        let mut latencies = vec![1.0; 100];
        latencies[..50].fill(9.0);
        let r = Round::new(200, 0.5, &latencies);
        assert_eq!((r.qps, r.p50_ms, r.p99_ms), (400.0, 1.0, 9.0));
        latencies[50] = 9.0;
        assert_eq!(Round::new(200, 0.5, &latencies).p50_ms, 9.0);
    }

    #[test]
    fn tail_gives_the_percentile_over_every_round() {
        let rounds: Vec<Vec<f64>> = (0..7u32)
            .map(|r| {
                (0..150u32)
                    .map(|i| f64::from((i * 37 + r * 101) % 997))
                    .collect()
            })
            .collect();
        let mut tail = Tail::new(rounds.len());
        for round in &rounds {
            tail.absorb(round);
        }
        assert_eq!(tail.p99(), percentile(&rounds.concat(), 0.99));
        assert!(tail.slowest.len() <= 12);
        // One slow round holds the whole tail.
        let mut tail = Tail::new(3);
        tail.absorb(&[1.0; 100]);
        tail.absorb(&[5.0; 100]);
        tail.absorb(&[2.0; 100]);
        assert_eq!(tail.p99(), 5.0);
        assert_eq!(Tail::new(3).p99(), 0.0);
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
