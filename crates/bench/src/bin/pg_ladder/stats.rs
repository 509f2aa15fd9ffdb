//! The timing core's arithmetic: every number `pg_ladder` reports goes
//! through the rules in this file, so two runs are comparable by
//! construction.
//!
//! * a timing is a [`Summary`] — median, quartiles, sample count — never a
//!   single observation (`pg_eval::sweep` timed ≈ 1 ms once, which is why
//!   the committed `BENCH_*.json` files disagree 2.3× on identical work);
//! * latency is **windowed** ([`windowed`]): samples are cut in arrival
//!   order into [`P99_WINDOWS`] equal windows and `p50_us` / `p99_us` are
//!   the median of the per-window percentiles, so one scheduler hiccup
//!   moves one window and not the metric;
//! * the deepest tail a sample can support is the highest percentile with
//!   at least [`TAIL_SAMPLES_BEYOND`] samples beyond it ([`deepest_tail`]),
//!   reported as a diagnostic without a bound.
//!
//! Warm-up discarding and the minimum-sample rule live with the clock, in
//! `trace.rs`; this file never reads the time.

/// Windows the latency samples are cut into by [`windowed`].
pub const P99_WINDOWS: usize = 10;
/// A percentile is only reported with at least this many samples beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;
/// Fewest latency samples a full-size run may report a p99 from: each of
/// the ten windows then has 20 samples beyond its p99.
pub const MIN_LATENCY_SAMPLES: usize = 20_000;

/// Median, quartiles and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order). Panics on an empty slice: a timed
    /// phase that produced no sample is a harness bug.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a timed phase produced no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        }
    }

    /// A quantity that is computed, not sampled: no spread, one "sample".
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile range as a share of the median (0 when the median is
    /// 0, so exact zero-valued counts compare clean).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    /// The same summary with every value multiplied by `factor` (unit
    /// conversion: seconds → µs, seconds/block → ns/op).
    pub fn scaled(&self, factor: f64) -> Summary {
        Summary {
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            n: self.n,
        }
    }

    /// The summary of `1 / x` scaled by `numerator` (round time → rate).
    /// Quartiles swap so `q1 <= median <= q3` still holds.
    pub fn rate(&self, numerator: f64) -> Summary {
        Summary {
            median: numerator / self.median,
            q1: numerator / self.q3,
            q3: numerator / self.q1,
            n: self.n,
        }
    }
}

/// `[q1, median, q3]` of an ascending slice, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so the
/// spread this tool prints is the spread the driver computes.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let at = |i: usize| -> f64 {
        // Position (n + 1) * i / 4 in 1-based ranks, clamped to the data.
        let pos = (n + 1) * i;
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        let (lo, hi) = (sorted[j - 1], sorted[j]);
        lo + (hi - lo) * delta.clamp(0.0, 1.0)
    };
    [at(1), at(2), at(3)]
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The windowed percentile both latency metrics use. Each stream (one
/// per load-generating thread) holds samples **in arrival order** and is
/// cut into [`P99_WINDOWS`] equal windows (a remainder is dropped from the
/// end); window `j` of the run is the union of every stream's window `j`.
/// The result summarises the per-window `p`-th percentiles: its median is
/// the metric (`p50_us`, `p99_us`), its quartiles say how much the windows
/// disagree. With fewer samples than windows a stream is one window.
pub fn windowed(streams: &[Vec<f64>], p: f64) -> Summary {
    let windows = if streams.iter().any(|s| s.len() < P99_WINDOWS) {
        1
    } else {
        P99_WINDOWS
    };
    let per_window: Vec<f64> = (0..windows)
        .map(|j| {
            let mut merged: Vec<f64> = streams
                .iter()
                .flat_map(|s| {
                    let len = s.len() / windows;
                    &s[j * len..(j + 1) * len]
                })
                .copied()
                .collect();
            merged.sort_by(f64::total_cmp);
            percentile(&merged, p)
        })
        .collect();
    Summary::of(&per_window)
}

/// The deepest percentile `n` samples can support — the highest of
/// p50, p90, p99, p99.9, … with at least [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it — or `None` below 20 samples.
pub fn deepest_tail(n: usize) -> Option<f64> {
    let mut best = None;
    let mut beyond_share = 0.5;
    let mut p = 0.5;
    while n as f64 * beyond_share >= TAIL_SAMPLES_BEYOND as f64 {
        best = Some(p);
        beyond_share = if p == 0.5 { 0.1 } else { beyond_share / 10.0 };
        p = 1.0 - beyond_share;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // extrapolated ends are clamped to the data here.
        assert_eq!(quartiles(&[1.0, 2.0]), [1.0, 1.5, 2.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn summary_orders_and_scales() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        assert_eq!(s.spread(), 1.0);
        let r = s.rate(9.0);
        assert_eq!((r.q1, r.median, r.q3), (2.0, 3.0, 6.0));
        assert_eq!(s.scaled(2.0).median, 6.0);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    /// 20 000 samples of a steady 100 µs service with a 2 % slow mode.
    fn steady_latencies() -> Vec<f64> {
        (0..20_000)
            .map(|i| {
                if i % 50 == 7 {
                    180.0
                } else {
                    100.0 + (i % 13) as f64
                }
            })
            .collect()
    }

    #[test]
    fn one_hundredfold_outlier_does_not_move_the_windowed_p99() {
        let clean = steady_latencies();
        let mut hiccup = clean.clone();
        hiccup[12_345] = 100.0 * 100.0;
        assert_eq!(windowed(std::slice::from_ref(&clean), 0.99).median, 180.0);
        assert_eq!(windowed(&[hiccup], 0.99).median, 180.0);
        // A whole stalled window (a 40 ms scheduler gap hitting 300
        // consecutive requests) moves one window out of ten — still not the
        // median.
        let mut stall = clean.clone();
        for s in &mut stall[4_000..4_300] {
            *s = 40_000.0;
        }
        let tail = windowed(&[stall], 0.99);
        assert_eq!((tail.median, tail.n), (180.0, P99_WINDOWS));
        assert_eq!(
            tail.q3, 180.0,
            "one bad window is outside the quartiles too"
        );
    }

    #[test]
    fn a_real_tail_shift_does_move_the_windowed_p99() {
        let slow: Vec<f64> = steady_latencies()
            .into_iter()
            .map(|s| if s == 180.0 { 400.0 } else { s })
            .collect();
        assert_eq!(windowed(&[slow], 0.99).median, 400.0);
    }

    #[test]
    fn windowed_degrades_to_one_window_on_tiny_samples() {
        assert_eq!(windowed(&[vec![3.0, 1.0, 2.0]], 0.99).median, 3.0);
        assert_eq!(windowed(&[vec![3.0, 1.0, 2.0]], 0.5).median, 2.0);
    }

    #[test]
    fn windows_of_several_streams_are_merged_by_position() {
        // Two clients, 20 samples each: window j holds 2 + 2 samples.
        let a: Vec<f64> = (0..20).map(|i| (i / 2) as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| 100.0 + (i / 2) as f64).collect();
        let s = windowed(&[a, b], 1.0);
        assert_eq!(s.n, P99_WINDOWS);
        assert_eq!((s.q1, s.median, s.q3), (101.75, 104.5, 107.25));
    }

    #[test]
    fn deepest_tail_needs_ten_samples_beyond() {
        assert_eq!(deepest_tail(19), None);
        assert_eq!(deepest_tail(20), Some(0.5));
        assert_eq!(deepest_tail(100), Some(0.9));
        assert_eq!(deepest_tail(999), Some(0.9));
        assert_eq!(deepest_tail(1_000), Some(0.99));
        let p = deepest_tail(MIN_LATENCY_SAMPLES).unwrap();
        assert!((p - 0.999).abs() < 1e-12, "{p}");
        let p = deepest_tail(100_000).unwrap();
        assert!((p - 0.9999).abs() < 1e-12, "{p}");
    }
}
