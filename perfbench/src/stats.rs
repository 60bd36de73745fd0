//! Order statistics over measured samples.

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted`, which must be
/// sorted ascending; NaN when there are no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A sorted latency sample with the counts every report carries.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Sorts `samples`.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile.
    pub fn pct(&self, q: f64) -> f64 {
        percentile(&self.sorted, q)
    }

    /// Mean of the slowest `share` of the samples (at least one sample).
    /// Unlike a single order statistic it moves in steps finer than the
    /// clock's resolution, which matters for whole-tick latencies.
    pub fn tail_mean(&self, share: f64) -> f64 {
        let n = self.sorted.len();
        let k = ((share * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[n - k..].iter().sum::<f64>() / k as f64
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let l = Latencies::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(l.pct(0.5), 50.0);
        assert_eq!(l.pct(0.99), 99.0);
        assert_eq!(l.pct(1.0), 100.0);
        assert_eq!(l.mean(), 50.5);
        assert_eq!(l.tail_mean(0.01), 100.0);
        assert_eq!(l.tail_mean(0.02), 99.5);
        let ticks = Latencies::new([vec![236.0; 980], vec![237.0; 15], vec![240.0; 5]].concat());
        assert_eq!(ticks.pct(0.99), 237.0);
        assert_eq!(ticks.tail_mean(0.01), 238.5);
        assert_eq!(Latencies::new(vec![7.0]).tail_mean(0.01), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
