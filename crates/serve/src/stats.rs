//! Overload-governance instrumentation: the scheduler's per-wave latency
//! histogram and the poison-job circuit breakers.
//!
//! Both live inside the control-plane mutex and are updated by the
//! scheduler thread only; handlers read them under the same lock when
//! answering `status`/`health`, so neither adds synchronization beyond
//! the existing control-plane pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dlpic_repro::engine::json::{obj, Json};

/// Power-of-two microsecond buckets: bucket `i` counts waves whose
/// latency fell in `[2^i, 2^(i+1))` µs. 40 buckets reach ~18 minutes —
/// far past any sane wave.
const BUCKETS: usize = 40;

/// A log-bucketed latency histogram with O(1) record and O(buckets)
/// quantiles. Tracks the scheduler's wave latency (step + publish work
/// per wave): tail quantiles surface jitter that a throughput mean
/// hides, which is exactly what an overloaded scheduler degrades first.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    total_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            total_us: 0.0,
            max_us: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Records one wave's latency.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_secs_f64() * 1e6;
        let bucket = (us.max(1.0).log2().floor() as usize).min(BUCKETS - 1);
        self.counts[bucket] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Recorded wave count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency (in ms) below which a fraction `q` of waves finished,
    /// reported as the upper edge of the matching bucket (a guaranteed
    /// upper bound, conservative by at most 2x). 0 when nothing was
    /// recorded.
    fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i, but never past the true max.
                return (f64::powi(2.0, i as i32 + 1)).min(self.max_us) / 1e3;
            }
        }
        self.max_us / 1e3
    }

    /// Mean wave latency in ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64 / 1e3
        }
    }

    /// The `wave_latency` document of `status`/`health`: scalar quantiles
    /// plus the non-empty buckets as `[upper_edge_ms, count]` pairs.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Json::Arr(vec![
                    Json::Num(f64::powi(2.0, i as i32 + 1) / 1e3),
                    Json::Num(c as f64),
                ])
            })
            .collect();
        obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("mean_ms", Json::Num(self.mean_ms())),
            ("p50_ms", Json::Num(self.quantile_ms(0.50))),
            ("p90_ms", Json::Num(self.quantile_ms(0.90))),
            ("p99_ms", Json::Num(self.quantile_ms(0.99))),
            ("max_ms", Json::Num(self.max_us / 1e3)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

struct BreakerState {
    /// Consecutive failures since the last success of this fingerprint.
    consecutive: usize,
    /// When set, the circuit is open until this instant.
    open_until: Option<Instant>,
    /// How many times the circuit has tripped (observability).
    trips: u64,
}

/// Per-spec circuit breakers: after `threshold` *consecutive* failed runs
/// of the same spec fingerprint the circuit opens, and submissions of
/// that spec are rejected (`circuit-open`) for `cooldown` — a poison job
/// resubmitted in a loop stops burning scheduler waves. After the
/// cooldown the circuit half-opens: one more run may try, and one more
/// failure re-opens it immediately.
pub struct CircuitBreakers {
    threshold: usize,
    cooldown: Duration,
    // BTreeMap, not HashMap: breaker state is aggregated into
    // wire-visible `status`/`health` numbers, and the serve tier's
    // serialization paths are held to deterministic iteration order
    // (enforced by dlpic-analyze's no-hashmap-iter-in-state rule).
    states: BTreeMap<String, BreakerState>,
}

impl CircuitBreakers {
    /// Breakers that trip after `threshold` consecutive failures (0
    /// disables tripping entirely) and stay open for `cooldown`.
    pub fn new(threshold: usize, cooldown: Duration) -> Self {
        Self {
            threshold,
            cooldown,
            states: BTreeMap::new(),
        }
    }

    /// The configured consecutive-failure threshold (0 = disabled).
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Records a failed run of `fingerprint`; true when this failure
    /// tripped the circuit open.
    pub fn record_failure(&mut self, fingerprint: &str, now: Instant) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let state = self
            .states
            .entry(fingerprint.to_string())
            .or_insert(BreakerState {
                consecutive: 0,
                open_until: None,
                trips: 0,
            });
        state.consecutive += 1;
        if state.consecutive >= self.threshold && state.open_until.is_none() {
            state.open_until = Some(now + self.cooldown);
            state.trips += 1;
            return true;
        }
        false
    }

    /// Records a successful run of `fingerprint`: the streak resets and
    /// the circuit closes for good.
    pub fn record_success(&mut self, fingerprint: &str) {
        self.states.remove(fingerprint);
    }

    /// Time left before `fingerprint`'s circuit half-opens, or `None`
    /// when the circuit is closed (including the half-open trial state:
    /// an expired cooldown admits the next run, and its failure re-opens
    /// the circuit at once).
    pub fn open_remaining(&mut self, fingerprint: &str, now: Instant) -> Option<Duration> {
        let state = self.states.get_mut(fingerprint)?;
        let until = state.open_until?;
        if now < until {
            return Some(until - now);
        }
        // Cooldown over: half-open. One trial run is admitted; keep the
        // streak at threshold-1 so a single failure re-opens.
        state.open_until = None;
        state.consecutive = self.threshold.saturating_sub(1);
        None
    }

    /// Number of circuits currently open.
    pub fn open_count(&self, now: Instant) -> usize {
        self.states
            .values()
            .filter(|s| s.open_until.is_some_and(|t| now < t))
            .count()
    }

    /// Total trips across all fingerprints (monotonic, for `health`).
    pub fn total_trips(&self) -> u64 {
        self.states.values().map(|s| s.trips).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::default();
        for us in [100u64, 200, 400, 800, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        // p50 upper bound must cover 200 µs but sit far below the 100 ms
        // outlier; p99 must cover the outlier.
        let p50 = h.quantile_ms(0.50);
        let p99 = h.quantile_ms(0.99);
        assert!((0.2..1.0).contains(&p50), "p50 {p50} ms out of band");
        assert!(p99 >= 100.0, "p99 {p99} ms misses the outlier");
        assert!(h.mean_ms() > 0.0 && h.max_us / 1e3 >= p99 - 1e-9);
        let doc = h.to_json();
        assert_eq!(doc.field("count").unwrap().as_usize().unwrap(), 5);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ms(0.99), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn breaker_trips_after_threshold_and_half_opens() {
        let t0 = Instant::now();
        let mut b = CircuitBreakers::new(3, Duration::from_secs(60));
        assert!(!b.record_failure("spec-a", t0));
        assert!(!b.record_failure("spec-a", t0));
        assert!(b.open_remaining("spec-a", t0).is_none(), "not yet tripped");
        assert!(b.record_failure("spec-a", t0), "third failure trips");
        let remaining = b.open_remaining("spec-a", t0).expect("open");
        assert!(remaining <= Duration::from_secs(60));
        assert_eq!(b.open_count(t0), 1);

        // After the cooldown the circuit half-opens: one trial run is
        // admitted, and one failure re-opens immediately.
        let later = t0 + Duration::from_secs(61);
        assert!(b.open_remaining("spec-a", later).is_none());
        assert!(
            b.record_failure("spec-a", later),
            "half-open failure re-trips"
        );
        assert!(b.open_remaining("spec-a", later).is_some());

        // Success clears everything.
        b.record_success("spec-a");
        assert!(b.open_remaining("spec-a", later).is_none());
        assert!(!b.record_failure("spec-a", later));
    }

    #[test]
    fn breaker_isolates_fingerprints_and_respects_disable() {
        let t0 = Instant::now();
        let mut b = CircuitBreakers::new(1, Duration::from_secs(60));
        assert!(b.record_failure("sick", t0));
        assert!(b.open_remaining("sick", t0).is_some());
        assert!(b.open_remaining("healthy", t0).is_none());

        let mut off = CircuitBreakers::new(0, Duration::from_secs(60));
        for _ in 0..10 {
            assert!(!off.record_failure("sick", t0));
        }
        assert!(off.open_remaining("sick", t0).is_none());
    }
}
