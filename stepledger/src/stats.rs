//! The ledger's own arithmetic: medians and tail percentiles, the
//! full-run versus one-step split, the α–β link fit, self time from
//! nested spans, interval unions, and the prediction gap. Pure
//! functions, unit-tested below.

/// Median of `xs` (mean of the middle pair for an even count; NaN when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest candidate percentile that leaves at least ten of `n`
/// samples strictly beyond it (`None` below twenty samples). A p99 is
/// only meaningful from 1000 samples on.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0–100] of `xs` (NaN when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One run length's cost split into a fixed part and a per-step part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Cost of one training step.
    pub per_step: f64,
    /// Cost paid once per run: launch to first step, plus the fixed
    /// end-of-run work.
    pub fixed: f64,
}

/// Split a cost measured on a `steps`-step run (`full`) and on a
/// one-step run of the same job (`one`): both pay the fixed cost once,
/// so the difference is `steps - 1` steps.
pub fn split_full_vs_one(full: f64, one: f64, steps: usize) -> Split {
    assert!(steps >= 2, "the split needs a run longer than one step");
    let per_step = (full - one) / (steps - 1) as f64;
    Split { per_step, fixed: one - per_step }
}

/// A fitted point-to-point link: `t(m) = alpha + m / beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaBeta {
    /// Zero-byte one-way latency, µs.
    pub alpha_us: f64,
    /// Asymptotic bandwidth, GB/s (1e9 bytes per second).
    pub beta_gb_s: f64,
}

/// Least-squares fit of `t = alpha + m * slope` over `(bytes, one_way_us)`
/// points, weighted by `1 / t²` so every message size counts by its
/// relative error (an unweighted fit lets the largest messages decide
/// alpha). Needs two distinct sizes.
pub fn fit_alpha_beta(points: &[(f64, f64)]) -> AlphaBeta {
    let (mut sw, mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(m, t) in points {
        let w = 1.0 / (t * t).max(1e-12);
        sw += w;
        sx += w * m;
        sy += w * t;
        sxx += w * m * m;
        sxy += w * m * t;
    }
    let det = sw * sxx - sx * sx;
    assert!(det.abs() > 0.0, "alpha-beta fit needs at least two distinct message sizes");
    let slope = (sw * sxy - sx * sy) / det;
    let alpha_us = (sy - slope * sx) / sw;
    // slope is µs per byte; bytes/µs = 1e6 bytes/s, so GB/s = 1e-3 / slope.
    AlphaBeta { alpha_us, beta_gb_s: 1e-3 / slope }
}

/// One recorded span: an id, the id of the span that caused it, and
/// its interval in µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub start_us: f64,
    pub end_us: f64,
}

/// Length of the union of `(start, end)` intervals.
pub fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.retain(|&(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, in input order: its duration minus the
/// part of its interval that its direct children cover (children that
/// overlap each other are counted once, and any part of a child outside
/// the parent is ignored).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: std::collections::HashMap<u32, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0.0, |c| {
                union_len(c.iter().map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us))).collect())
            });
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

/// How far a predicted step misses the measured one, as a percentage
/// of the measured step (absolute: over- and under-prediction count
/// alike).
pub fn gap_pct(measured_us: f64, predicted_us: f64) -> f64 {
    100.0 * (measured_us - predicted_us).abs() / measured_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        // Exactly ten samples (991..=1000) lie beyond the p99 value.
        assert_eq!(xs.iter().filter(|&&x| x > percentile(&xs, 99.0)).count(), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn full_vs_one_step_split_recovers_fixed_and_per_step_cost() {
        // 0.25 s fixed + 2 ms per step.
        let full = 0.25 + 1000.0 * 0.002;
        let one = 0.25 + 0.002;
        let s = split_full_vs_one(full, one, 1000);
        assert!((s.per_step - 0.002).abs() < 1e-12);
        assert!((s.fixed - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "longer than one step")]
    fn split_rejects_a_one_step_full_run() {
        split_full_vs_one(1.0, 1.0, 1);
    }

    #[test]
    fn alpha_beta_fit_recovers_synthetic_link() {
        // 12 µs latency, 3 GB/s = 3000 bytes/µs.
        let pts: Vec<(f64, f64)> = [0.0, 256.0, 4096.0, 65536.0, 262144.0]
            .iter()
            .map(|&m| (m, 12.0 + m / 3000.0))
            .collect();
        let f = fit_alpha_beta(&pts);
        assert!((f.alpha_us - 12.0).abs() < 1e-9, "{f:?}");
        assert!((f.beta_gb_s - 3.0).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn alpha_beta_fit_weights_by_relative_error() {
        // +5 % noise on the largest message must not swamp alpha.
        let pts = [(0.0, 10.0), (1024.0, 11.0), (1_048_576.0, 1.05 * (10.0 + 1024.0))];
        let f = fit_alpha_beta(&pts);
        assert!((f.alpha_us - 10.0).abs() < 0.5, "{f:?}");
    }

    #[test]
    fn union_len_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]), 4.0);
        assert_eq!(union_len(vec![]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = [
            Span { id: 1, parent: None, start_us: 0.0, end_us: 100.0 },
            // Two overlapping children cover 10..50 = 40 µs of the root.
            Span { id: 2, parent: Some(1), start_us: 10.0, end_us: 40.0 },
            Span { id: 3, parent: Some(1), start_us: 30.0, end_us: 50.0 },
            // A grandchild is charged to its own parent only.
            Span { id: 4, parent: Some(2), start_us: 15.0, end_us: 20.0 },
            // A child sticking out of its parent counts only inside it.
            Span { id: 5, parent: Some(3), start_us: 45.0, end_us: 60.0 },
        ];
        assert_eq!(self_times(&spans), vec![60.0, 25.0, 15.0, 5.0, 15.0]);
    }

    #[test]
    fn gap_pct_is_relative_to_the_measured_step() {
        assert_eq!(gap_pct(200.0, 150.0), 25.0);
        assert_eq!(gap_pct(200.0, 250.0), 25.0);
        assert_eq!(gap_pct(200.0, 200.0), 0.0);
    }
}
