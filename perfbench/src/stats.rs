//! Sample summaries: nearest-rank percentiles over unsorted samples.

/// A growable bag of samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty bag.
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Nearest-rank `q`-quantile (`q` in `0..=1`), 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    /// The median, 0 when empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Nearest-rank `q`-quantile of unsorted `xs`, 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Splits `n` ordered samples into consecutive windows of `w` (a
/// trailing window shorter than `w / 2` joins the one before it).
pub fn windows(n: usize, w: usize) -> Vec<std::ops::Range<usize>> {
    let mut out: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + w).min(n);
        match out.last_mut() {
            Some(last) if end - start < w / 2 => last.end = end,
            _ => out.push(start..end),
        }
        start = end;
    }
    out
}

/// The mean of the middle half of `xs` (the interquartile mean), 0 when
/// empty: as robust to outliers as the median, but it moves smoothly when
/// the samples fall into a few discrete levels.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The interquartile mean over consecutive windows of `w` samples of each
/// window's `q`-quantile: a tail percentile that a burst of host
/// interference in a few windows cannot move. A window's p99 is set by
/// its slowest batches, whose lengths take a few discrete levels, so a
/// median over windows would jump between levels from run to run. 0 when
/// empty.
pub fn windowed_quantile(xs: &[f64], w: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = windows(xs.len(), w)
        .into_iter()
        .map(|r| quantile(&xs[r], q))
        .collect();
    interquartile_mean(&per_window)
}

/// The median over consecutive windows of `w` completions of each
/// window's completion rate per second. `done_s` are completion times,
/// ascending, in seconds after the series started. 0 when empty.
pub fn windowed_rate(done_s: &[f64], w: usize) -> f64 {
    let rates: Vec<f64> = windows(done_s.len(), w)
        .into_iter()
        .map(|r| {
            let from = if r.start == 0 { 0.0 } else { done_s[r.start - 1] };
            r.len() as f64 / (done_s[r.end - 1] - from).max(1e-9)
        })
        .collect();
    quantile(&rates, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fold_a_short_tail() {
        assert_eq!(windows(24, 10), vec![0..10, 10..24]);
        assert_eq!(windows(25, 10), vec![0..10, 10..20, 20..25]);
        assert!(windows(0, 10).is_empty());
    }

    #[test]
    fn windowed_statistics_of_a_steady_stream() {
        let done: Vec<f64> = (1..=100).map(|i| f64::from(i) * 0.01).collect();
        assert!((windowed_rate(&done, 10) - 100.0).abs() < 1e-6);
        let lat: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        assert_eq!(windowed_quantile(&lat, 10, 0.9), 8.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(interquartile_mean(&[2.0]), 2.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
