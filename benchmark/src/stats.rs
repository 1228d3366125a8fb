//! Latency samples and nearest-rank percentiles.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nanosecond samples per op kind.
#[derive(Default)]
pub struct Samples {
    by_kind: BTreeMap<String, Vec<u64>>,
}

/// What one kind's samples reduce to. Times in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

impl Samples {
    pub fn record(&mut self, kind: &str, nanos: u64) {
        match self.by_kind.get_mut(kind) {
            Some(v) => v.push(nanos),
            None => {
                self.by_kind.insert(kind.to_string(), vec![nanos]);
            }
        }
    }

    pub fn merge(&mut self, other: Samples) {
        for (kind, mut v) in other.by_kind {
            self.by_kind.entry(kind).or_default().append(&mut v);
        }
    }

    pub fn kinds(&self) -> impl Iterator<Item = &str> + '_ {
        self.by_kind.keys().map(String::as_str)
    }

    pub fn summary(&self, kind: &str) -> Option<Summary> {
        let mut v = self.by_kind.get(kind)?.clone();
        if v.is_empty() {
            return None;
        }
        v.sort_unstable();
        let us = |p: f64| percentile(&v, p) as f64 / 1e3;
        Some(Summary {
            n: v.len(),
            p50: us(50.0),
            p95: us(95.0),
            p99: us(99.0),
            max: *v.last().expect("non-empty") as f64 / 1e3,
        })
    }

    /// Median in microseconds, for ladder arithmetic.
    pub fn p50(&self, kind: &str) -> Option<f64> {
        self.summary(kind).map(|s| s.p50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // 5 samples: p50 is the 3rd, p95 the 5th (ceil(4.75))
        let w = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&w, 50.0), 30);
        assert_eq!(percentile(&w, 95.0), 50);
        assert_eq!(percentile(&w, 20.0), 10);
        assert_eq!(percentile(&w, 21.0), 20);
        assert_eq!(percentile(&[7], 95.0), 7);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn samples_summarise_in_microseconds() {
        let mut s = Samples::default();
        for n in 1..=200u64 {
            s.record("point", n * 1_000);
        }
        let mut other = Samples::default();
        other.record("point", 500_000);
        s.merge(other);
        let sum = s.summary("point").unwrap();
        assert_eq!(sum.n, 201);
        assert_eq!(sum.p50, 101.0);
        assert_eq!(sum.max, 500.0);
        assert!(s.summary("dash").is_none());
    }
}
