//! Order statistics over repeated samples, and the best-of-passes
//! estimator the benchmark reports timings with.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles` (the default there), so a quartile printed here
//! equals the one a script computes from the same values.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes).
    Lower,
    /// Larger is better (rates, hit rates).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The `p` quantile (`0 < p < 1`) of `sorted` (ascending) by the exclusive
/// method: position `p * (n + 1)`, interpolated between neighbours, and
/// extrapolated from the outer pair when the position falls outside
/// `[1, n]` — exactly what `statistics.quantiles` does.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n as f64 + 1.0);
    let j = (h.floor() as usize).clamp(1, n - 1);
    let delta = h - j as f64;
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

/// Median of unsorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Percentiles tried for the reported tail, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.95, 0.90];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_TAIL_SAMPLES: usize = 10;

/// The highest of p99.9/p99/p95/p90 with at least ten samples beyond it,
/// as `(p, value)`; `None` when even p90 has fewer (that is, with fewer
/// than 100 samples).
pub fn high_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAILS
        .iter()
        .find(|&&p| ((n as f64) * (1.0 - p) + 1e-9).floor() as usize >= MIN_TAIL_SAMPLES)
        .map(|&p| (p, quantile(sorted, p)))
}

/// Sample count, quartiles and the tail of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// See [`high_percentile`].
    pub high: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples);
        Some(Summary {
            n: s.len(),
            p25: quantile(&s, 0.25),
            p50: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            high: high_percentile(&s),
        })
    }

    /// `p75 - p25`.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

/// The best sample of each slot (the lowest, or the highest when higher is
/// better). A slot is one input of a workload — or one position in its
/// pass — measured once per pass, so the best of a slot is its fastest
/// pass: interference from other work on the machine only ever adds time,
/// and a pass that ran clear of it is the closest reading of the cost
/// itself.
pub fn best_by_slot(samples: &[(u64, f64)], better: Better) -> BTreeMap<u64, f64> {
    by_slot(samples, |values| {
        values
            .iter()
            .copied()
            .reduce(|b, v| if better.beats(v, b) { v } else { b })
            .expect("a slot has samples")
    })
}

/// The median of each slot's samples. For a quantity that pairs two
/// readings taken moments apart within one operation (a ratio or a
/// difference), interference that slows the whole operation cancels, so
/// the middle reading is the steady one.
pub fn median_by_slot(samples: &[(u64, f64)]) -> BTreeMap<u64, f64> {
    by_slot(samples, median)
}

fn by_slot(samples: &[(u64, f64)], reduce: impl Fn(&[f64]) -> f64) -> BTreeMap<u64, f64> {
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(slot, value) in samples {
        groups.entry(slot).or_default().push(value);
    }
    groups
        .into_iter()
        .map(|(slot, values)| (slot, reduce(&values)))
        .collect()
}

/// The mean, over the slots present in every map, of `f` applied to the
/// slot's values (in map order); `None` when no slot is in all of them.
pub fn mean_over_slots(maps: &[&BTreeMap<u64, f64>], f: impl Fn(&[f64]) -> f64) -> Option<f64> {
    let (first, rest) = maps.split_first()?;
    let mut total = 0.0;
    let mut slots = 0usize;
    for (slot, &v) in first.iter() {
        let mut values = vec![v];
        for map in rest {
            match map.get(slot) {
                Some(&x) => values.push(x),
                None => break,
            }
        }
        if values.len() == maps.len() {
            total += f(&values);
            slots += 1;
        }
    }
    (slots > 0).then(|| total / slots as f64)
}

/// Best of passes: the mean over slots of each slot's best sample.
pub fn best_of_passes(samples: &[(u64, f64)], better: Better) -> Option<f64> {
    mean_over_slots(&[&best_by_slot(samples, better)], |v| v[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.25), 2.75);
        assert_eq!(quantile(&s, 0.5), 5.5);
        assert_eq!(quantile(&s, 0.75), 8.25);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends.
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 0.75);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 2.25);
        assert_eq!(quantile(&[4.0], 0.25), 4.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(high_percentile(&samples(99)), None);
        assert_eq!(high_percentile(&samples(100)).map(|t| t.0), Some(0.90));
        assert_eq!(high_percentile(&samples(199)).map(|t| t.0), Some(0.90));
        assert_eq!(high_percentile(&samples(200)).map(|t| t.0), Some(0.95));
        assert_eq!(high_percentile(&samples(1000)).map(|t| t.0), Some(0.99));
        assert_eq!(high_percentile(&samples(10_000)).map(|t| t.0), Some(0.999));
        assert_eq!(Summary::of(&samples(20)).unwrap().high, None);
    }

    #[test]
    fn summary_of_nothing_is_none() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[2.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.n, s.p50, s.iqr()), (3, 2.0, 2.0));
    }

    #[test]
    fn best_of_passes_takes_each_slot_best_then_the_mean() {
        // Slot 0 ran at 10 and, once slowed by other work, 15; slot 1 at 20.
        let samples = [(0, 15.0), (1, 20.0), (0, 10.0), (1, 21.0)];
        assert_eq!(best_of_passes(&samples, Better::Lower), Some(15.0));
        assert_eq!(best_of_passes(&samples, Better::Higher), Some(18.0));
        assert_eq!(best_of_passes(&[], Better::Lower), None);
    }

    #[test]
    fn paired_quantities_take_each_slot_median() {
        let samples = [(0, 1.9), (0, 1.2), (0, 2.0), (1, 3.0)];
        let m = median_by_slot(&samples);
        assert_eq!((m[&0], m[&1]), (1.9, 3.0));
    }

    #[test]
    fn slots_missing_from_a_map_are_skipped() {
        let a = best_by_slot(&[(0, 4.0), (1, 6.0), (2, 8.0)], Better::Lower);
        let b = best_by_slot(&[(1, 3.0), (2, 2.0)], Better::Lower);
        assert_eq!(mean_over_slots(&[&a, &b], |v| v[0] / v[1]), Some(3.0));
        let none = BTreeMap::new();
        assert_eq!(mean_over_slots(&[&a, &none], |v| v[0]), None);
    }
}
