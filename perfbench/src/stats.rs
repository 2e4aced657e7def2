//! Summary statistics shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail reading: which percentile was taken and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// `"p99"`, `"p90"`, `"p50"` or `"max"`.
    pub label: &'static str,
    /// The sample at that rank.
    pub value: f64,
}

/// Percentiles the tail rule may pick, highest first. p99.9 is left out on
/// purpose: a run whose sample count straddles 10,000 would otherwise flip
/// between two different statistics from one run to the next.
const LADDER: [(&str, f64); 3] = [("p99", 0.99), ("p90", 0.90), ("p50", 0.50)];

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile of the ladder, at most `highest`, that has at
/// least ten samples beyond it (nearest rank), or the maximum when no rung
/// qualifies. `NaN` for an empty slice.
pub fn tail(xs: &[f64], highest: f64) -> Tail {
    if xs.is_empty() {
        return Tail {
            label: "max",
            value: f64::NAN,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for (label, p) in LADDER.into_iter().filter(|&(_, p)| p <= highest) {
        let r = rank(n, p);
        if n - 1 - r >= 10 {
            return Tail { label, value: v[r] };
        }
    }
    Tail {
        label: "max",
        value: v[n - 1],
    }
}

/// Quantile `q` of a bucketed histogram, interpolated linearly inside the
/// bucket that holds it (the first bucket starts at 0; the overflow bucket
/// is read as its lower bound). `NaN` when the histogram is empty.
pub fn hist_quantile(bounds: &[u64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let target = q * total as f64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= target {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let Some(&hi) = bounds.get(i) else {
                return lo;
            };
            let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            return lo + frac * (hi as f64 - lo);
        }
        seen += c;
    }
    *bounds.last().unwrap_or(&0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1..=1000: p99 sits at rank 990, leaving exactly ten above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&xs, 0.99),
            Tail {
                label: "p99",
                value: 990.0
            }
        );
        // One sample fewer leaves nine beyond p99, so p90 is the answer.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99).label, "p90");
        assert_eq!(tail(&xs, 0.99).value, 900.0);
        // 100 samples: p90 leaves exactly ten.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99).label, "p90");
        assert_eq!(tail(&xs, 0.99).value, 90.0);
        // 20 samples: only the median qualifies.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99).label, "p50");
        assert_eq!(tail(&xs, 0.99).value, 10.0);
        // Fewer than eleven: the maximum.
        assert_eq!(
            tail(&[5.0, 1.0, 3.0], 0.99),
            Tail {
                label: "max",
                value: 5.0
            }
        );
    }

    #[test]
    fn tail_respects_highest_rung() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&xs, 0.9),
            Tail {
                label: "p90",
                value: 900.0
            }
        );
        assert_eq!(tail(&xs, 0.5).label, "p50");
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs, 0.99).value, 990.0);
    }

    #[test]
    fn hist_quantile_interpolates_within_bucket() {
        let bounds = [10, 20];
        // 10 samples in [0,10], 10 in (10,20], none overflow.
        let counts = [10, 10, 0];
        assert_eq!(hist_quantile(&bounds, &counts, 0.5), 10.0);
        assert_eq!(hist_quantile(&bounds, &counts, 0.75), 15.0);
        assert_eq!(hist_quantile(&bounds, &counts, 0.25), 5.0);
        // Overflow samples read as the last bound.
        assert_eq!(hist_quantile(&bounds, &[0, 0, 4], 0.5), 20.0);
        assert!(hist_quantile(&bounds, &[0, 0, 0], 0.5).is_nan());
    }
}
