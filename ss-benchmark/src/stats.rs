//! Quantiles over raw samples, with the sample counts behind them.

/// Raw timing samples, sorted on demand.
#[derive(Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The nearest-rank `q`-quantile (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        self.values[rank - 1]
    }
}

/// How many of `n` samples lie beyond the `q`-quantile. A quantile is
/// reported as supported only when at least ten do.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in (1..=1000).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.quantile(0.999), 999.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1000, 0.999), 1);
    }
}
