//! Aggregation arithmetic: percentiles, geometric mean, and the
//! best-window rule every wall-clock metric goes through.

/// Nearest-rank percentile of an ascending-sorted sample (`q` in 0..=1).
/// 0 for an empty sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean of strictly positive values; 0 when the set is empty
/// or holds a non-positive value (a ratio that is not defined).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median by linear interpolation between the middle order statistics.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (the "inclusive" method): `q = 0` is
/// the minimum, `q = 1` the maximum. 0 for an empty sample.
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

/// Which end of a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One wall-clock metric across a run's windows.
///
/// The run's value is the **best** window — the minimum of a time, the
/// maximum of a rate. Noise on a shared box only ever adds time, so the
/// best window estimates the undisturbed cost; the median and the
/// inter-quartile range across windows are kept beside it so a reader
/// can see how disturbed the run was.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowAgg {
    pub best: f64,
    pub median: f64,
    pub iqr: f64,
    pub windows: usize,
}

pub fn best_window(per_window: &[f64], better: Better) -> WindowAgg {
    let pick = |a: f64, b: f64| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    };
    WindowAgg {
        best: per_window.iter().copied().reduce(pick).unwrap_or(0.0),
        median: median(per_window),
        iqr: quantile(per_window, 0.75) - quantile(per_window, 0.25),
        windows: per_window.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn best_window_takes_min_of_times_and_max_of_rates() {
        let times = [12.0, 10.0, 11.0, 30.0];
        let t = best_window(&times, Better::Lower);
        assert_eq!(t.best, 10.0);
        assert_eq!(t.median, 11.5);
        assert_eq!(t.windows, 4);
        assert!(t.iqr > 0.0);
        let r = best_window(&times, Better::Higher);
        assert_eq!(r.best, 30.0);
        assert_eq!(best_window(&[], Better::Lower).best, 0.0);
    }
}
