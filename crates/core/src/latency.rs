//! Per-decision latency histogram.
//!
//! [`LatencyHistogram`] is a fixed array of log-linear `u64` counters:
//! recording a sample is one `leading_zeros`, one increment and one `max`
//! — cheap enough for the `execute` hot path. The proxy keeps its
//! histograms in its locked state and records under the lock a statement
//! already holds, so a histogram needs no synchronization of its own.
//! Values below 64 ns get a bucket each; above that, each octave
//! `[2^k, 2^(k+1))` is split into 32 equal-width buckets. Percentile
//! queries walk the cumulative counts and report the midpoint of the
//! bucket holding the requested rank, which is within 1/64 (≈ 1.6%) of
//! the exact nearest-rank sample — fine enough to see a 10% regression.
//!
//! The proxy records every `execute` into one (`bep_decision_latency_ns`,
//! read through [`ProxyStats::latency`](crate::proxy::ProxyStats) and the
//! exposition's `bep_decision_latency_ns` summary) and every ended
//! session's state size into another (`bep_session_state_bytes`).

use std::time::Duration;

/// Linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 5;

/// Number of buckets: 64 exact ones, then 32 per octave for the 38
/// octaves from `2^6` up to `2^44` ns ≈ 4.9 hours; anything slower
/// saturates into the last bucket.
const BUCKETS: usize = 1280;

/// Fixed log-linear latency counters.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

/// The bucket for a duration of `ns` nanoseconds, clamped to the table.
/// The shift is 0 below 64, so each of those values is its own bucket,
/// and `floor(log2(ns)) - 5` above, leaving the top six significant bits
/// to pick one of the octave's 32 buckets.
fn bucket_of(ns: u64) -> usize {
    let shift = (63 - (ns | 1).leading_zeros()).saturating_sub(SUB_BITS);
    (((shift as u64) << SUB_BITS) + (ns >> shift)).min(BUCKETS as u64 - 1) as usize
}

/// The value reported for a bucket: the value itself below 64 ns, the
/// midpoint of its range above.
fn bucket_mid_ns(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 << SUB_BITS {
        return i;
    }
    let shift = (i >> SUB_BITS) - 1;
    let top = i - (shift << SUB_BITS);
    (top << shift) + (1 << (shift - 1))
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(ns)] += 1;
        self.sum_ns = self.sum_ns.wrapping_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// The samples recorded so far, summarized.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count: u64 = self.buckets.iter().sum();
        let percentile = |pct: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            // 1-based nearest-rank, in exact integer arithmetic. (The
            // previous float form `ceil(p/100 * count)` overshot at exact
            // boundaries — 0.95 * 20 is 19.000000000000004 in binary
            // floating point, whose ceiling is 20, one whole rank high.)
            let rank = ((u128::from(count) * u128::from(pct)).div_ceil(100) as u64).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, c) in self.buckets.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    return bucket_mid_ns(i);
                }
            }
            bucket_mid_ns(BUCKETS - 1)
        };
        LatencySnapshot {
            count,
            sum_ns: self.sum_ns,
            max_ns: self.max_ns,
            p50_ns: percentile(50),
            p95_ns: percentile(95),
            p99_ns: percentile(99),
        }
    }
}

/// A point-in-time summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub sum_ns: u64,
    /// Largest single sample, exact (not bucketed).
    pub max_ns: u64,
    /// Median, as the midpoint of its bucket (within 1/64 of the sample).
    pub p50_ns: u64,
    /// 95th percentile, as the midpoint of its bucket (within 1/64 of the sample).
    pub p95_ns: u64,
    /// 99th percentile, as the midpoint of its bucket (within 1/64 of the sample).
    pub p99_ns: u64,
}

impl LatencySnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshots_zero() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s, LatencySnapshot::default());
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn buckets_are_exact_below_64_then_32_per_octave() {
        for ns in 0..64 {
            assert_eq!(bucket_mid_ns(bucket_of(ns)), ns);
        }
        // Width 2 in the first split octave, contiguous across octaves.
        assert_eq!(bucket_of(63) + 1, bucket_of(64));
        assert_eq!(bucket_of(64), bucket_of(65));
        assert_eq!(bucket_mid_ns(bucket_of(64)), 65);
        assert_eq!(bucket_of(1023) + 1, bucket_of(1024));
        // [1024, 2048) is 32 buckets of width 32.
        assert_eq!(bucket_of(2047) - bucket_of(1024), 31);
        assert_eq!(bucket_mid_ns(bucket_of(1024)), 1040);
        assert_eq!(bucket_of((1 << 44) - 1), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_pick_the_bucket_of_their_rank() {
        let mut h = LatencyHistogram::new();
        // 90 fast samples at ~1 µs, 10 slow at ~1 ms.
        for _ in 0..90 {
            h.record(Duration::from_nanos(1_100));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(1_050_000));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 in 1,100's bucket, p99 in 1.05e6's bucket.
        assert_eq!(s.p50_ns, bucket_mid_ns(bucket_of(1_100)));
        assert_eq!(s.p99_ns, bucket_mid_ns(bucket_of(1_050_000)));
        assert!(s.p50_ns < s.p95_ns || s.p95_ns == s.p50_ns);
        assert_eq!(s.max_ns, 1_050_000);
        assert_eq!(s.mean_ns(), (90 * 1_100 + 10 * 1_050_000) / 100);
    }

    #[test]
    fn p100_is_last_nonempty_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(7));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ns, s.p99_ns);
    }

    #[test]
    fn nearest_rank_is_exact_at_boundaries() {
        // 19 fast + 1 slow samples: p95's nearest rank is ceil(0.95·20) =
        // 19, which is still a fast sample. The old float-based rank
        // computed ceil(19.000000000000004) = 20 and jumped to the slow
        // bucket — a whole-octave error at an exact boundary.
        let mut h = LatencyHistogram::new();
        for _ in 0..19 {
            h.record(Duration::from_nanos(1_100));
        }
        h.record(Duration::from_nanos(1_050_000));
        let s = h.snapshot();
        assert_eq!(s.p95_ns, bucket_mid_ns(bucket_of(1_100)));
        assert_eq!(s.p99_ns, bucket_mid_ns(bucket_of(1_050_000)));
    }

    #[test]
    fn single_sample_percentiles_coincide() {
        // With one sample every percentile has rank 1: all three report
        // the same bucket and the mean is the sample itself.
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(777));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ns, s.p95_ns);
        assert_eq!(s.p95_ns, s.p99_ns);
        assert_eq!(s.mean_ns(), 777);
        assert_eq!(s.max_ns, 777);
    }

    #[test]
    fn zero_duration_samples_are_counted_not_lost() {
        let mut h = LatencyHistogram::new();
        for _ in 0..3 {
            h.record(Duration::from_nanos(0));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.p50_ns, bucket_mid_ns(0));
        assert_eq!(s.p99_ns, bucket_mid_ns(0));
    }

    #[test]
    fn percentiles_are_monotone_under_random_workloads() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut h = LatencyHistogram::new();
            let n = rng.gen_range(1usize..400);
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Spread samples across many octaves, including 0.
                let shift = rng.gen_range(0u32..40);
                let ns = rng.gen_range(0u64..1 << shift);
                h.record(Duration::from_nanos(ns));
                samples.push(ns);
            }
            let s = h.snapshot();
            // Each percentile lies within 2% of the exact nearest-rank
            // sample of the sorted input.
            samples.sort_unstable();
            for (pct, got) in [(50, s.p50_ns), (95, s.p95_ns), (99, s.p99_ns)] {
                let rank = (n * pct).div_ceil(100).max(1);
                let exact = samples[rank - 1];
                assert!(
                    got.abs_diff(exact) * 50 <= exact,
                    "seed {seed}: p{pct} {got} is over 2% from the exact sample {exact}"
                );
            }
            assert_eq!(s.count, n as u64, "seed {seed}");
            assert!(
                s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns,
                "seed {seed}: p50 {} ≤ p95 {} ≤ p99 {} violated",
                s.p50_ns,
                s.p95_ns,
                s.p99_ns
            );
            assert!(
                s.p99_ns <= s.max_ns.max(bucket_mid_ns(bucket_of(s.max_ns))),
                "seed {seed}: p99 beyond the max sample's bucket midpoint"
            );
            assert!(s.mean_ns() <= s.max_ns, "seed {seed}");
        }
    }
}
