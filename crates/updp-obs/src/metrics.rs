//! Lock-free metric primitives: relaxed-atomic counters, high-water
//! gauges, float accumulators, and a fixed-boundary log₂-bucketed
//! latency histogram.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of histogram buckets. Bucket `i < BUCKETS - 1` covers
/// values `v` with `2^(i-1) < v <= 2^i` microseconds (bucket 0 covers
/// `v <= 1`); the last bucket is the `+Inf` overflow.
pub const BUCKETS: usize = 32;

/// A monotonically increasing counter: one relaxed atomic.
///
/// Relaxed ordering loses no increment; a read is a snapshot that
/// needs no ordering against other metrics.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed high-water mark (e.g. the deepest write queue seen).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Raises the value to `v` if `v` is larger (high-water marks).
    pub fn observe_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `f64` accumulator (e.g. total ε charged,
/// total snapping inflation), implemented as a CAS loop over the bit
/// pattern.
#[derive(Default)]
pub struct FloatCounter {
    bits: AtomicU64,
}

impl FloatCounter {
    /// A zeroed accumulator.
    pub fn new() -> FloatCounter {
        FloatCounter::default()
    }

    /// Adds `x` to the total.
    pub fn add(&self, x: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + x).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current total.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The bucket index a microsecond value falls into: bucket `i` has
/// upper edge `2^i` µs, and the last bucket absorbs everything larger.
pub(crate) fn bucket_index(micros: u64) -> usize {
    let bits = u64::BITS - micros.saturating_sub(1).leading_zeros();
    (bits as usize).min(BUCKETS - 1)
}

/// The inclusive upper edge of bucket `i` in microseconds, or `None`
/// for the final `+Inf` bucket.
pub(crate) fn upper_edge_micros(i: usize) -> Option<u64> {
    if i + 1 < BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

/// A fixed-boundary log₂-bucketed latency histogram over microsecond
/// observations.
///
/// Boundaries are powers of two from 1 µs to ~17.9 min, identical for
/// every instance, so every histogram renders with the same bucket
/// edges.
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation of `micros` microseconds.
    pub fn observe_micros(&self, micros: u64) {
        self.counts[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (slot, count) in counts.iter_mut().zip(&self.counts) {
            *slot = count.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub counts: [u64; BUCKETS],
    /// Sum of all observed values, in microseconds.
    pub sum_micros: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_deterministic_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every value lands in the bucket whose edge bounds it.
        for i in 0..BUCKETS - 1 {
            let edge = upper_edge_micros(i).expect("finite edge");
            assert_eq!(bucket_index(edge), i, "edge {edge} must be inclusive");
            assert_eq!(bucket_index(edge + 1), i + 1, "edge {edge} + 1 spills over");
        }
        assert!(upper_edge_micros(BUCKETS - 1).is_none());
    }

    #[test]
    fn counter_sums_across_threads() {
        let counter = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let high = Gauge::new();
        high.observe_max(10);
        high.observe_max(4);
        assert_eq!(high.get(), 10);
    }

    #[test]
    #[allow(clippy::float_cmp)]
    fn float_counter_accumulates_concurrently() {
        let fc = FloatCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        fc.add(0.5);
                    }
                });
            }
        });
        // 0.5 is exactly representable: the total is exact.
        assert_eq!(fc.get(), 2000.0);
    }
}
