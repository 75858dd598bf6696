//! The benchmark's own arithmetic: quantiles over passes, latency
//! percentiles with the tail-sample rule, and request accounting.

use wdm_serve::DenyReason;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// The `q` quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between order statistics. Returns `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The steal share at or below which a pass counts as quiet: the value at
/// rank `ceil(share × n)` of the passes' steal shares in ascending order.
/// Every pass at or below it is quiet, so ties at the cutoff keep more than
/// `share` of the passes. `f64::INFINITY` when there are no passes.
pub fn quiet_cutoff(steal: &[f64], share: f64) -> f64 {
    let mut sorted: Vec<f64> = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (share.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(f64::INFINITY)
}

/// Latency samples of one pass. Each sample is a duration in nanoseconds
/// with a weight: a daemon verdict is one sample of weight 1; an offline
/// slot answers all of its requests at once, so it is one duration
/// weighted by the slot's request count.
#[derive(Debug, Default)]
pub struct Latencies {
    // (ns, weight), kept small so the sample store does not dominate the
    // workload's own memory: durations clamp at u32::MAX ns (4.29 s).
    samples: Vec<(u32, u32)>,
}

/// Percentiles of one pass's [`Latencies`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Total sample weight (requests answered).
    pub count: u64,
    /// Median, in nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95: Tail,
    /// 99th percentile.
    pub p99: Tail,
}

/// A tail percentile of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// The percentile in nanoseconds, present only when at least
    /// [`MIN_TAIL_SAMPLES`] samples lie strictly beyond it.
    pub ns: Option<u64>,
    /// Sample weight strictly beyond the percentile's value.
    pub beyond: u64,
}

impl Latencies {
    /// An empty set with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Latencies {
        Latencies { samples: Vec::with_capacity(capacity) }
    }

    /// Adds `weight` requests answered after `ns` nanoseconds.
    pub fn push(&mut self, ns: u64, weight: u32) {
        if weight > 0 {
            self.samples.push((u32::try_from(ns).unwrap_or(u32::MAX), weight));
        }
    }

    /// Sorts the samples and computes the percentiles; `None` when empty.
    pub fn summarize(&mut self) -> Option<LatencySummary> {
        self.samples.sort_unstable();
        let count: u64 = self.samples.iter().map(|s| u64::from(s.1)).sum();
        if count == 0 {
            return None;
        }
        let tail = |q: f64| {
            let ns = weighted_rank(&self.samples, count, q);
            let beyond: u64 =
                self.samples.iter().filter(|s| u64::from(s.0) > ns).map(|s| u64::from(s.1)).sum();
            Tail { ns: (beyond >= MIN_TAIL_SAMPLES).then_some(ns), beyond }
        };
        Some(LatencySummary {
            count,
            p50_ns: weighted_rank(&self.samples, count, 0.50),
            p95: tail(0.95),
            p99: tail(0.99),
        })
    }
}

/// Nearest-rank quantile over sorted weighted samples: the smallest value
/// whose cumulative weight reaches `ceil(q · count)`.
fn weighted_rank(sorted: &[(u32, u32)], count: u64, q: f64) -> u64 {
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for &(value, weight) in sorted {
        seen += u64::from(weight);
        if seen >= rank {
            return u64::from(value);
        }
    }
    sorted.last().map_or(0, |s| u64::from(s.0))
}

/// Request accounting for one pass: what was sent, what came back, and
/// which answers count as failures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Requests sent (cells and reservations).
    pub sent: u64,
    /// Verdicts received (grant or deny) for cells, plus admission replies
    /// for reservations.
    pub answered: u64,
    /// Cell grants.
    pub grants: u64,
    /// QueueFull denies (overload: answered, but failed).
    pub queue_full: u64,
    /// InvalidRequest denies (a protocol or admission bug).
    pub invalid: u64,
    /// Protocol errors, unanswered requests, and replies of the wrong kind.
    pub broken: u64,
}

impl Accounting {
    /// Records a cell grant.
    pub fn grant(&mut self) {
        self.answered += 1;
        self.grants += 1;
    }

    /// Records a deny. Contention, source-busy and reservation-capacity
    /// denies are answers; QueueFull and InvalidRequest are failures.
    pub fn deny(&mut self, reason: DenyReason) {
        self.answered += 1;
        match reason {
            DenyReason::QueueFull => self.queue_full += 1,
            DenyReason::InvalidRequest => self.invalid += 1,
            DenyReason::SourceBusy
            | DenyReason::OutputContention
            | DenyReason::CapacityExhausted
            | DenyReason::HorizonExceeded => {}
        }
    }

    /// Requests that failed: QueueFull or InvalidRequest denies, protocol
    /// errors, requests never answered, and replies of the wrong kind.
    pub fn failed(&self) -> u64 {
        self.queue_full + self.invalid + self.broken
    }

    /// Failed requests over requests sent (0 when nothing was sent).
    pub fn failed_frac(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed() as f64 / self.sent as f64
        }
    }

    /// The counts accumulated since the `earlier` snapshot of the same
    /// session.
    pub fn since(&self, earlier: &Accounting) -> Accounting {
        Accounting {
            sent: self.sent - earlier.sent,
            answered: self.answered - earlier.answered,
            grants: self.grants - earlier.grants,
            queue_full: self.queue_full - earlier.queue_full,
            invalid: self.invalid - earlier.invalid,
            broken: self.broken - earlier.broken,
        }
    }

    /// Adds another pass's counts.
    pub fn merge(&mut self, other: &Accounting) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.grants += other.grants;
        self.queue_full += other.queue_full;
        self.invalid += other.invalid;
        self.broken += other.broken;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.75), Some(1.75));
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.5), "even-count median");
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0, f64::NAN], 0.9), Some(7.0), "non-finite values are ignored");
    }

    #[test]
    fn quiet_cutoff_keeps_the_least_disturbed_quarter_and_its_ties() {
        let steal = [0.30, 0.0, 0.10, 0.05, 0.20, 0.0, 0.40, 0.15];
        // Two of eight passes are the quietest quarter.
        assert_eq!(quiet_cutoff(&steal, 0.25), 0.0);
        // Rank ceil(0.25 × 9) = 3 of nine.
        let steal = [0.3, 0.2, 0.1, 0.0, 0.5, 0.4, 0.6, 0.7, 0.8];
        assert_eq!(quiet_cutoff(&steal, 0.25), 0.2);
        // When every pass is disturbed alike, every pass is quiet.
        assert_eq!(quiet_cutoff(&[0.1; 5], 0.25), 0.1);
        assert_eq!(quiet_cutoff(&[0.7], 0.25), 0.7);
        assert_eq!(quiet_cutoff(&[], 0.25), f64::INFINITY);
    }

    #[test]
    fn long_durations_clamp_instead_of_wrapping() {
        let mut l = Latencies::default();
        l.push(u64::MAX, 1);
        assert_eq!(l.summarize().unwrap().p50_ns, u64::from(u32::MAX));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut l = Latencies::default();
        for ns in 1..=100 {
            l.push(ns, 1);
        }
        let s = l.summarize().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        // Only one sample (100) lies beyond p99 = 99 and five beyond
        // p95 = 95: neither is reportable.
        assert_eq!(s.p99, Tail { ns: None, beyond: 1 });
        assert_eq!(s.p95, Tail { ns: None, beyond: 5 });
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let mut l = Latencies::default();
        for ns in 1..=1000 {
            l.push(ns, 1);
        }
        let s = l.summarize().unwrap();
        assert_eq!(s.p99, Tail { ns: Some(990), beyond: 10 });
        assert_eq!(s.p95, Tail { ns: Some(950), beyond: 50 });

        let mut short = Latencies::default();
        for ns in 1..=999 {
            short.push(ns, 1);
        }
        let s = short.summarize().unwrap();
        assert_eq!(s.p99.ns, None, "999 samples leave only 9 beyond p99");

        let mut few = Latencies::default();
        for ns in 1..=199 {
            few.push(ns, 1);
        }
        let s = few.summarize().unwrap();
        assert_eq!(s.p95, Tail { ns: None, beyond: 9 }, "199 samples leave only 9 beyond p95");
    }

    #[test]
    fn ties_at_p99_are_not_beyond_it() {
        let mut l = Latencies::default();
        l.push(5, 980);
        l.push(7, 20);
        let s = l.summarize().unwrap();
        // rank 990 lands in the 7-block, so nothing lies beyond p99.
        assert_eq!(s.p99, Tail { ns: None, beyond: 0 });
        assert_eq!(s.p50_ns, 5);
    }

    #[test]
    fn weighted_samples_match_expanded_samples() {
        let mut weighted = Latencies::default();
        let mut expanded = Latencies::default();
        for (ns, w) in [(40u64, 300u32), (10, 500), (90, 150), (700, 50)] {
            weighted.push(ns, w);
            for _ in 0..w {
                expanded.push(ns, 1);
            }
        }
        assert_eq!(weighted.summarize(), expanded.summarize());
        let s = weighted.summarize().unwrap();
        // Sorted: 10 ×500, 40 ×300, 90 ×150, 700 ×50; rank 500 is the last
        // 10, rank 950 the last 90, and rank 990 falls in the 700 block,
        // which is the maximum.
        assert_eq!((s.count, s.p50_ns), (1000, 10));
        assert_eq!(s.p95, Tail { ns: Some(90), beyond: 50 });
        assert_eq!(s.p99, Tail { ns: None, beyond: 0 });
    }

    #[test]
    fn empty_latencies_have_no_summary() {
        assert_eq!(Latencies::default().summarize(), None);
        let mut zero = Latencies::default();
        zero.push(5, 0);
        assert_eq!(zero.summarize(), None);
    }

    #[test]
    fn queue_full_fails_but_contention_is_an_answer() {
        let mut a = Accounting { sent: 4, ..Accounting::default() };
        a.grant();
        a.deny(DenyReason::OutputContention);
        a.deny(DenyReason::SourceBusy);
        a.deny(DenyReason::QueueFull);
        assert_eq!(a.answered, 4);
        assert_eq!(a.failed(), 1);
        assert!((a.failed_frac() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_and_broken_requests_fail() {
        let mut a = Accounting { sent: 10, ..Accounting::default() };
        a.deny(DenyReason::InvalidRequest);
        a.deny(DenyReason::CapacityExhausted);
        a.deny(DenyReason::HorizonExceeded);
        a.broken += 2; // e.g. one unanswered, one wrong-kind reply
        assert_eq!(a.failed(), 3);
        assert!((a.failed_frac() - 0.3).abs() < 1e-12);
        let mut total = Accounting::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!((total.sent, total.failed()), (20, 6));
        assert_eq!(total.since(&a), a);
        assert_eq!(Accounting::default().failed_frac(), 0.0);
    }
}
