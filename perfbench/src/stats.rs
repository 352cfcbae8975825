//! Order statistics over raw samples. Percentiles here are nearest-rank
//! over every recorded value; nothing is bucketed.

/// Sort a sample in place (ascending; NaN-free by construction).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest-rank quantile of an ascending sample; `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    quantile(&s, 0.5)
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The tail a sample supports: p99 when at least ten samples lie beyond
/// it, otherwise the highest percentile that still has ten beyond it —
/// never below the median.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported, in `[0.5, 0.99]`.
    pub q: f64,
    /// Its value.
    pub value: f64,
}

pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let q = (n.saturating_sub(10) as f64 / n.max(1) as f64).clamp(0.5, 0.99);
    Tail {
        q,
        value: quantile(sorted, q),
    }
}

/// Median and supported tail of one latency population.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub tail: Tail,
    pub mean: f64,
}

pub fn summarize(v: &[f64]) -> Summary {
    let mut s = v.to_vec();
    sort(&mut s);
    Summary {
        p50: quantile(&s, 0.5),
        tail: tail(&s),
        mean: mean(&s),
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
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!(t.q, 0.99);
        assert!(big.iter().filter(|&&x| x > t.value).count() >= 10);
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&small);
        assert_eq!(t.q, 0.9);
        assert_eq!(small.iter().filter(|&&x| x > t.value).count(), 10);
        let tiny: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&tiny).q, 0.5);
    }
}
