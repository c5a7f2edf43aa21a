//! Order statistics and request accounting shared by every workload.

/// Nearest-rank quantile `q ∈ [0, 1]` of an ascending sample (0 when empty).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Samples strictly beyond the nearest-rank quantile `q`.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The tail quantile to report for a sample of `n`: `preferred` when at
/// least ten samples lie beyond it, otherwise the highest of the standard
/// quantiles that has ten beyond it, down to the median.
#[must_use]
pub fn tail_quantile(n: usize, preferred: f64) -> f64 {
    if beyond(n, preferred) >= 10 {
        return preferred;
    }
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .filter(|&q| q < preferred)
        .find(|&q| beyond(n, q) >= 10)
        .unwrap_or(0.5)
}

/// `p99`, `p95`, `p99.9` … — the conventional name of quantile `q`.
#[must_use]
pub fn percentile_name(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("p{}", p.round())
    } else {
        format!("p{p:.1}")
    }
}

/// Latency figures read over windows of consecutive samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Median across windows of the window median.
    pub p50: f64,
    /// Median across windows of the window tail.
    pub tail: f64,
    /// The quantile each window's tail is read at.
    pub q: f64,
    /// Windows the figures are taken over.
    pub windows: usize,
}

/// Splits completion-ordered `latencies` into windows of `k` samples (a
/// short final window is dropped when a full one exists), reads each
/// window's median and tail ([`tail_quantile`] of its size, at most p99),
/// and returns the median of each across windows. Other tenants of a
/// shared host slow its CPUs for seconds at a time; the median across
/// windows keeps such an episode from setting a run's figures.
#[must_use]
pub fn windowed(latencies: &[f64], k: usize) -> Windowed {
    let mut chunks: Vec<&[f64]> = latencies.chunks(k.max(1)).collect();
    if chunks.len() > 1 && chunks.last().is_some_and(|c| c.len() < k) {
        chunks.pop();
    }
    let q = tail_quantile(chunks.first().map_or(0, |c| c.len()), 0.99);
    let (p50s, tails): (Vec<f64>, Vec<f64>) = chunks
        .iter()
        .map(|c| {
            let s = sorted(c);
            (quantile(&s, 0.5), quantile(&s, q))
        })
        .unzip();
    Windowed {
        p50: median(&p50s),
        tail: median(&tails),
        q,
        windows: chunks.len(),
    }
}

/// Requests or passes attempted against those that failed: a refused
/// request (503), any other non-200 status and a connection error all
/// count as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with status 200 (or a pass that completed).
    Ok,
    /// Answered with another status.
    Status(u16),
    /// The connection failed before a response arrived.
    ConnectionError,
}

impl Tally {
    /// `n` operations, all successful.
    #[must_use]
    pub fn all_ok(n: usize) -> Self {
        Tally {
            attempted: n as u64,
            failed: 0,
        }
    }

    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Operations that succeeded.
    #[must_use]
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// `failed / attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 − failed_frac`: the share of attempted operations that succeeded.
    #[must_use]
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond → p99 stands
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        // 999 samples: rank 990, nine beyond → falls to p95
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(999, 0.99), 0.95);
        // 150 samples: p95 leaves 7, p90 leaves 15
        assert_eq!(tail_quantile(150, 0.99), 0.9);
        // a configured lower preference is never raised
        assert_eq!(tail_quantile(100_000, 0.95), 0.95);
        // too few for any tail → the median
        assert_eq!(tail_quantile(12, 0.99), 0.5);
        for n in [0, 1, 10, 37, 200, 5000] {
            let q = tail_quantile(n, 0.99);
            assert!(q == 0.5 || beyond(n, q) >= 10, "n={n} q={q}");
        }
        assert_eq!(percentile_name(0.99), "p99");
        assert_eq!(percentile_name(0.999), "p99.9");
    }

    #[test]
    fn windows_take_the_median_across_windows() {
        // 21 windows of 100: 10 slowed to twice the latency, 11 undisturbed
        let mut lat = Vec::new();
        for w in 0..21 {
            let scale = if w % 2 == 0 { 1.0 } else { 2.0 };
            lat.extend((1..=100).map(|i| f64::from(i) * scale));
        }
        let f = windowed(&lat, 100);
        assert_eq!((f.p50, f.tail, f.q, f.windows), (50.0, 90.0, 0.9, 21));
        // a short trailing window is dropped, a lone short sample is kept
        lat.extend([1e9; 7]);
        assert_eq!(windowed(&lat, 100), f);
        let lone = windowed(&[3.0, 1.0, 2.0], 100);
        assert_eq!(
            (lone.p50, lone.tail, lone.q, lone.windows),
            (2.0, 2.0, 0.5, 1)
        );
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        for outcome in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Status(503),
            Outcome::ConnectionError,
            Outcome::Status(500),
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            t.record(outcome);
        }
        assert_eq!((t.attempted, t.failed, t.ok()), (8, 3, 5));
        assert_eq!(t.failed_frac(), 3.0 / 8.0);
        assert_eq!(t.ok_frac() + t.failed_frac(), 1.0);
        let mut total = Tally::default();
        total.merge(t);
        total.merge(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!((total.attempted, total.failed), (10, 3));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
