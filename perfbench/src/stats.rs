//! Order statistics and open-loop timing arithmetic.
//!
//! Percentiles use the nearest-rank rule on integer per-ten-thousand
//! levels, so "p99 of 1000 samples" is exactly rank 990 with exactly ten
//! samples beyond it — no floating-point rounding decides a rank.

/// A percentile level in units of 1/10000 (p99 = 9900).
pub type Level = u64;

/// The ladder the record reports from, lowest first.
pub const LADDER: [Level; 5] = [5000, 9000, 9900, 9990, 9999];

/// Samples required beyond a percentile before it is reported as
/// supported by the sample.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of `level` in `n` samples: `ceil(n·level/10⁴)`,
/// at least 1.
#[must_use]
pub fn rank(n: usize, level: Level) -> usize {
    let n = n as u64;
    (n * level).div_ceil(10_000).max(1) as usize
}

/// How many samples lie strictly beyond the nearest rank of `level`.
#[must_use]
pub fn beyond(n: usize, level: Level) -> usize {
    n.saturating_sub(rank(n, level))
}

/// The highest ladder level with at least [`MIN_BEYOND`] samples beyond
/// it, if any.
#[must_use]
pub fn highest_supported(n: usize) -> Option<Level> {
    LADDER
        .iter()
        .copied()
        .filter(|&level| beyond(n, level) >= MIN_BEYOND)
        .max()
}

/// Nearest-rank percentile of an ascending slice (`+∞` allowed).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], level: Level) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), level) - 1]
}

/// Sorts a copy ascending (`+∞` last; NaN is never produced here).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (nearest-rank p50) of `values`.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 5000)
}

/// The arithmetic mean, 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One open-loop request's clock readings, in nanoseconds since the
/// phase origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stamp {
    /// When the schedule said the request should leave.
    pub intended_ns: u64,
    /// When it actually left.
    pub sent_ns: u64,
    /// When its response (or failure) arrived.
    pub done_ns: u64,
    /// Whether it succeeded with the expected bytes.
    pub ok: bool,
}

impl Stamp {
    /// Latency measured from the *intended* send time, in ms; `+∞` for a
    /// failed request. A generator that sends late because the server
    /// stalled still charges the stall to every request it delayed.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done_ns.saturating_sub(self.intended_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }

    /// How late the request left its schedule, in ms.
    #[must_use]
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.intended_ns) as f64 / 1e6
    }
}

/// The `within` percentile of latency in each consecutive `window_ns`
/// of intended send time, in window order.
///
/// # Panics
///
/// When `window_ns` is 0.
#[must_use]
pub fn window_percentiles(stamps: &[Stamp], window_ns: u64, within: Level) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for stamp in stamps {
        let w = (stamp.intended_ns / window_ns) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(stamp.latency_ms());
    }
    windows
        .iter()
        .filter(|latencies| !latencies.is_empty())
        .map(|latencies| percentile(&sorted(latencies), within))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_has_exactly_ten_beyond() {
        assert_eq!(rank(1000, 9900), 990);
        assert_eq!(beyond(1000, 9900), 10);
        assert_eq!(beyond(999, 9900), 9);
        assert_eq!(highest_supported(1000), Some(9900));
        assert_eq!(highest_supported(999), Some(9000));
        assert_eq!(highest_supported(10_000), Some(9990));
        assert_eq!(highest_supported(100_000), Some(9999));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(5000));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 5000), 50.0);
        assert_eq!(percentile(&v, 9900), 99.0);
        assert_eq!(percentile(&[7.0], 9999), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let with_failure = sorted(&[1.0, f64::INFINITY, 2.0]);
        assert_eq!(percentile(&with_failure, 9900), f64::INFINITY);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn latency_counts_from_the_intended_send_time() {
        // Schedule every 10 ms; the server stalls the first request for
        // 100 ms, so the next one leaves 90 ms late and its latency
        // includes that wait, though the server answered it in 1 ms.
        let first = Stamp {
            intended_ns: 0,
            sent_ns: 0,
            done_ns: 100_000_000,
            ok: true,
        };
        let second = Stamp {
            intended_ns: 10_000_000,
            sent_ns: 100_000_000,
            done_ns: 101_000_000,
            ok: true,
        };
        assert_eq!(first.latency_ms(), 100.0);
        assert_eq!(first.lag_ms(), 0.0);
        assert_eq!(second.latency_ms(), 91.0);
        assert_eq!(second.lag_ms(), 90.0);
        let failed = Stamp {
            ok: false,
            ..second
        };
        assert_eq!(failed.latency_ms(), f64::INFINITY);
        assert_eq!(failed.lag_ms(), 90.0);
    }

    #[test]
    fn window_percentiles_split_by_intended_time() {
        // Two 1 s windows: the first answers in 1..=10 ms, the second in
        // 11..=20 ms; one failure in the second is its worst sample.
        let stamp = |i: u64, ms: u64, ok| Stamp {
            intended_ns: i * 100_000_000,
            sent_ns: i * 100_000_000,
            done_ns: i * 100_000_000 + ms * 1_000_000,
            ok,
        };
        let mut stamps: Vec<Stamp> = (0..20).map(|i| stamp(i, i + 1, true)).collect();
        stamps[19].ok = false;
        let p10 = window_percentiles(&stamps, 1_000_000_000, 1000);
        assert_eq!(p10, vec![1.0, 11.0]);
        let p99 = window_percentiles(&stamps, 1_000_000_000, 9900);
        assert_eq!(p99, vec![10.0, f64::INFINITY]);
    }
}
