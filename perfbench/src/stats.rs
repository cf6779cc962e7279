//! Order statistics over timing samples.
//!
//! A percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it; with fewer, the "tail" is one or two unlucky samples and
//! does not repeat between runs.
//!
//! Percentiles are Harrell–Davis estimates: a weighted mean of every
//! order statistic, with weights from the Beta((n+1)p, (n+1)(1-p))
//! distribution. A single order statistic (nearest rank) is one sample,
//! and on `paper_suite` the 95th percentile's rank falls inside the
//! latencies of one program, so it flips with whichever of that
//! program's few samples the host slowed down; the weighted mean over
//! the neighbouring ranks moves far less between runs.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_TAIL: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// A percentile estimate with the count of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The Harrell–Davis estimate of the percentile.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples strictly beyond its nearest rank.
    pub beyond: usize,
}

/// The `p`-th percentile (`0 < p < 100`) of `samples`, estimated by
/// [`harrell_davis`]. Refuses (`None`) when fewer than [`MIN_TAIL`]
/// samples lie beyond its nearest rank, the smallest sample with at
/// least `p`% of samples at or below it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.checked_sub(rank)?;
    if rank == 0 || beyond < MIN_TAIL {
        return None;
    }
    Some(Percentile {
        value: harrell_davis(&sorted(samples), p / 100.0),
        samples: n,
        beyond,
    })
}

/// Sub-intervals of the midpoint rule per order statistic.
const STEPS: usize = 16;

/// The Harrell–Davis estimate of quantile `q` (`0 < q < 1`) of the
/// ascending, non-empty `sorted` samples: sample `i` (from 1) weighs the
/// Beta((n+1)q, (n+1)(1-q)) probability of `((i-1)/n, i/n]`. The
/// density is integrated by the midpoint rule and the weights are
/// normalised to sum to 1, so the Beta function itself is never needed.
pub fn harrell_davis(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let a = (n as f64 + 1.0) * q;
    let b = (n as f64 + 1.0) * (1.0 - q);
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let h = 1.0 / (n * STEPS) as f64;
    let logs: Vec<f64> = (0..n * STEPS)
        .map(|k| log_density((k as f64 + 0.5) * h))
        .collect();
    let peak = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut total, mut weight_sum) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let w: f64 = logs[i * STEPS..(i + 1) * STEPS]
            .iter()
            .map(|l| (l - peak).exp())
            .sum();
        total += w * x;
        weight_sum += w;
    }
    total / weight_sum
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn harrell_davis_on_known_vectors() {
        // On 1..=n the estimate of quantile q is n*q + 1/2: sample i
        // covers ((i-1)/n, i/n] and the Beta weights have mean q.
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p = tail_percentile(&v, 95.0).unwrap();
        assert_eq!((p.samples, p.beyond), (200, 10));
        assert!((p.value - 190.5).abs() < 0.05, "{}", p.value);
        let m = tail_percentile(&v, 50.0).unwrap().value;
        assert!((m - 100.5).abs() < 0.05, "{m}");
        // Equal samples give that value; the order of the input is irrelevant.
        assert!((tail_percentile(&[7.0; 300], 95.0).unwrap().value - 7.0).abs() < 1e-12);
        // A single outlier at the top barely moves the estimate.
        let mut w: Vec<f64> = (1..=200).map(f64::from).collect();
        w[199] = 1e6;
        assert!(tail_percentile(&w, 95.0).unwrap().value < 192.0);
    }

    #[test]
    fn harrell_davis_weighs_neighbouring_ranks() {
        // Two groups of samples with the rank on their boundary: the
        // estimate lies between them, not on either.
        let mut v = vec![100.0; 190];
        v.extend([200.0; 10]);
        let x = tail_percentile(&v, 95.0).unwrap().value;
        assert!(x > 110.0 && x < 190.0, "{x}");
    }

    #[test]
    fn refuses_below_ten_tail_samples() {
        // 199 samples: rank ceil(189.05) = 190 leaves 9 beyond.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), None);
        assert_eq!(tail_percentile(&[], 95.0), None);
        // The median of 19 samples has 9 beyond it; of 20, 10.
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 50.0), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((tail_percentile(&twenty, 50.0).unwrap().value - 10.5).abs() < 1e-9);
    }
}
