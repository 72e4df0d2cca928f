//! Order statistics, open-loop latency accounting and the metric-name
//! grammar. Pure functions, unit-tested below.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`·n samples at or below it. `p` in (0, 1].
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile level {p} outside (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` and returns its nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// How many samples lie strictly above the nearest-rank `p` percentile.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = nearest_rank(sorted, p);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// One open-loop request as the generator saw it, in offsets from the
/// start of the rated phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said the request was due.
    pub scheduled: Duration,
    /// When the previous request on the same connection completed
    /// (zero for the first one): before then the connection was busy.
    pub free_at: Duration,
    /// When the generator actually wrote the request.
    pub sent: Duration,
    /// When the response was read in full.
    pub done: Duration,
}

impl Timing {
    /// Latency with the coordinated-omission correction: measured from
    /// the scheduled send time, so a stall that delays later requests
    /// is charged to each of them, not only to the one that stalled.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.scheduled).as_secs_f64() * 1e3
    }

    /// How late the generator itself sent the request, in ms: the gap
    /// between the moment the connection was both due and free and the
    /// actual send. Waiting for a busy connection is the server's delay
    /// (already in `latency_ms`), not generator lag.
    pub fn lag_ms(&self) -> f64 {
        let ready = self.scheduled.max(self.free_at);
        self.sent.saturating_sub(ready).as_secs_f64() * 1e3
    }
}

/// Whether a metric name is in the grammar `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        assert_eq!(nearest_rank(&sorted, 0.001), 1.0);
        // Odd count: the median is the middle sample, never an average.
        assert_eq!(nearest_rank(&[1.0, 2.0, 10.0], 0.5), 2.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn beyond_counts_the_tail_past_the_percentile() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&sorted, 0.99), 10);
        assert_eq!(beyond(&[1.0, 1.0, 1.0], 0.5), 0);
    }

    #[test]
    fn stalled_schedule_charges_every_delayed_request() {
        // One connection, one request due every 10 ms. The server stalls
        // 100 ms on the first request; the next nine queue behind it and
        // are answered 1 ms after they are finally sent.
        let mut timings = Vec::new();
        let mut free_at = ms(0);
        for i in 0..10u64 {
            let scheduled = ms(10 * i);
            let sent = scheduled.max(free_at);
            let done = if i == 0 { ms(100) } else { sent + ms(1) };
            timings.push(Timing {
                scheduled,
                free_at,
                sent,
                done,
            });
            free_at = done;
        }
        let latencies: Vec<f64> = timings.iter().map(Timing::latency_ms).collect();
        // Request i is sent at 100 + (i - 1) ms and answered 1 ms later,
        // but was due at 10·i ms.
        assert_eq!(latencies[0], 100.0);
        for (i, &latency) in latencies.iter().enumerate().skip(1) {
            let expected = (101 + i as u64 - 1 - 10 * i as u64) as f64;
            assert_eq!(latency, expected, "request {i}");
        }
        // Measured from the actual send, the stall would hide behind
        // one slow sample; from the schedule, the median shows it.
        assert_eq!(median(&latencies), 55.0);
        // The generator was never late: every send happened the moment
        // the connection was both due and free.
        assert!(timings.iter().all(|t| t.lag_ms() == 0.0));
    }

    #[test]
    fn lag_is_the_generators_own_delay() {
        let t = Timing {
            scheduled: ms(10),
            free_at: ms(5),
            sent: ms(13),
            done: ms(20),
        };
        assert_eq!(t.lag_ms(), 3.0);
        assert_eq!(t.latency_ms(), 10.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "view.grid_hit_ratio", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "ms/s", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
