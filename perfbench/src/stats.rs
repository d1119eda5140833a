//! Order statistics, the metric-name grammar, and the compare verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed results with the standard library.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them. A single value is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are compared against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values).abs();
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The metric-name grammar: 1 to 64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of comparing a new set of runs against a base set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new runs win at least nine tenths of the pairs and the
    /// medians differ by more than the base's own quartile distance.
    Better,
    /// The new median is worse than the base's by more than the bound.
    Worse,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// The spread of either set is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares `new` runs against `base` runs of one metric. Runs are
/// paired by position (callers order both sets by seed), ties count for
/// neither side, and `bound` is the share of the base median by which
/// the metric may worsen before it counts as a regression.
pub fn verdict(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |n: f64, b: f64| if higher_is_better { n > b } else { n < b };
    let pairs = base.len().min(new.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&b, &n)| better(n, b))
        .count();
    let (med_b, med_n) = (median(base), median(new));
    let [q1, _, q3] = quartiles(base);
    let gain = if higher_is_better {
        med_n - med_b
    } else {
        med_b - med_n
    };
    if wins * 10 >= pairs * 9 && gain > q3 - q1 {
        return Verdict::Better;
    }
    if spread(base).max(spread(new)) > bound {
        let every_new_beats_every_base = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
        if every_new_beats_every_base {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        }
    } else if -gain > bound * med_b.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "session_s.p50",
            "crypto.msm_buckets",
            "a-b",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "a b", "ms/s", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn identical_sets_are_unchanged() {
        let v = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        assert_eq!(verdict(&v, &v, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_and_regression() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        let faster: Vec<f64> = base.iter().map(|x| x * 1.5).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), Verdict::Better);
        // Same numbers read as latencies: 50% higher is a regression.
        assert_eq!(verdict(&base, &faster, false, 0.1), Verdict::Worse);
        // 5% worse sits inside a 10% bound.
        let slightly: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&base, &slightly, false, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let base = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let new = [6.0, 14.0, 9.0, 13.0, 9.0, 7.0, 15.0, 8.0, 12.0, 11.0];
        assert_eq!(verdict(&base, &new, true, 0.1), Verdict::Unresolved);
    }
}
