//! The verdict rule for comparing a parent commit with a change.
//!
//! Both sides are sets of runs of the same benchmark with the same settings,
//! paired in the order they were run (parent run `i` against change run
//! `i`). A metric:
//!
//! * **regressed** when the change's median is worse than the parent's by
//!   more than the metric's bound (a share of the parent's median);
//! * **gained** when the change wins at least [`GAIN_WIN_FRACTION`] of the
//!   pairs (ties count for neither side) and the medians differ, in the
//!   better direction, by more than the parent's interquartile range;
//! * is **unresolved** when either side's spread (IQR over median) exceeds
//!   the bound — unless every change run beats every parent run;
//! * is otherwise the **same**.
//!
//! Metrics without a bound (the per-layer ones) can gain but never regress
//! or stay unresolved: they explain a change, they do not gate it.

use crate::stats::{Better, Summary};

/// Share of pairs the change must win to claim a gain.
pub const GAIN_WIN_FRACTION: f64 = 0.9;

/// Outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Significantly better.
    Gain,
    /// Worse by more than the bound.
    Regression,
    /// Too noisy to tell at this bound.
    Unresolved,
    /// No significant difference.
    Same,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Same => "same",
        }
    }

    /// Whether this verdict fails a comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Unresolved)
    }
}

/// The comparison of one metric's runs on both sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Parent runs.
    pub parent: Summary,
    /// Change runs.
    pub change: Summary,
    /// Share of pairs the change won.
    pub change_wins: f64,
    /// Share of pairs the parent won.
    pub parent_wins: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired runs; `bound` is `None` for unbounded metrics. Returns
/// `None` when either side has no runs.
pub fn compare(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
) -> Option<Comparison> {
    let (p, c) = (Summary::of(parent)?, Summary::of(change)?);
    let pairs = parent.len().min(change.len()).max(1) as f64;
    let wins = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .filter(|(x, y)| better.beats(**x, **y))
            .count() as f64
            / pairs
    };
    let change_wins = wins(change, parent);
    let parent_wins = wins(parent, change);
    let worse_by = match better {
        Better::Lower => c.p50 - p.p50,
        Better::Higher => p.p50 - c.p50,
    };
    let spread = |s: &Summary| {
        if s.p50 == 0.0 {
            0.0
        } else {
            s.iqr() / s.p50.abs()
        }
    };
    let dominates = change
        .iter()
        .all(|x| parent.iter().all(|y| better.beats(*x, *y)));
    let verdict = match bound {
        Some(b) if worse_by > b * p.p50.abs() => Verdict::Regression,
        _ if change_wins >= GAIN_WIN_FRACTION && -worse_by > p.iqr() => Verdict::Gain,
        Some(b) if (spread(&p) > b || spread(&c) > b) && !dominates => Verdict::Unresolved,
        _ => Verdict::Same,
    };
    Some(Comparison {
        parent: p,
        change: c,
        change_wins,
        parent_wins,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
    ];

    fn shifted(by: f64) -> Vec<f64> {
        PARENT.iter().map(|x| x + by).collect()
    }

    #[test]
    fn identical_runs_are_the_same() {
        let c = compare(&PARENT, &PARENT, Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
        assert_eq!((c.change_wins, c.parent_wins), (0.0, 0.0));
    }

    #[test]
    fn consistent_improvement_beyond_the_parent_iqr_is_a_gain() {
        let c = compare(&PARENT, &shifted(-3.0), Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.change_wins, 1.0);
        assert_eq!(c.verdict, Verdict::Gain);
        // The same numbers read as a loss when higher is better, but within
        // the 5% bound that is not a regression.
        let c = compare(&PARENT, &shifted(-3.0), Better::Higher, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn improvement_inside_the_parent_iqr_is_not_a_gain() {
        // Wins every pair, but by less than the parent's own spread.
        let c = compare(&PARENT, &shifted(-0.1), Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.change_wins, 1.0);
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn too_few_wins_is_not_a_gain() {
        let mut change = shifted(-3.0);
        change[0] = 200.0;
        change[1] = 200.0;
        let c = compare(&PARENT, &change, Better::Lower, None).unwrap();
        assert_eq!(c.change_wins, 0.8);
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn worse_median_beyond_the_bound_is_a_regression() {
        let c = compare(&PARENT, &shifted(6.0), Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Regression);
        assert!(c.verdict.fails());
        let c = compare(&PARENT, &shifted(4.0), Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
        // Unbounded metrics never regress.
        let c = compare(&PARENT, &shifted(60.0), Better::Lower, None).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = PARENT
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 2 == 0 { x * 1.2 } else { x * 0.8 })
            .collect();
        let c = compare(&PARENT, &noisy, Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Every change run beating every parent run resolves it, even when
        // the gap is inside the parent's spread.
        let c = compare(&noisy, &shifted(-30.0), Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
        let c = compare(&noisy, &shifted(-50.0), Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn empty_sides_compare_to_nothing() {
        assert!(compare(&[], &PARENT, Better::Lower, None).is_none());
    }
}
