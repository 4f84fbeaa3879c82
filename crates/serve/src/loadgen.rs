//! Seeded open-loop load generators.
//!
//! Open-loop means arrivals do not wait for the server: the generator
//! lays down a timeline of requests up front and the server either keeps
//! up or sheds — the regime where overload actually shows (a closed-loop
//! client self-throttles and hides queue collapse).
//!
//! All three patterns are a non-homogeneous Poisson process sampled by
//! Lewis–Shedler thinning: draw a homogeneous candidate stream at the
//! peak rate from exponential inter-arrival gaps, then keep each
//! candidate with probability `rate(t) / peak_rate`. One seeded
//! [`SmallRng`] drives gaps, thinning, priorities, and user keys, so a
//! `(spec, seed)` pair is **bit-reproducible** — the property the
//! shedding-determinism tests stand on.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::request::{Priority, Request};

/// Time-varying arrival-rate pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadPattern {
    /// Constant-rate Poisson arrivals at `rps`.
    Poisson,
    /// Sinusoidal day/night swing around `rps`: rate(t) = rps × (1 +
    /// `depth` × sin(2πt/period)). `depth` in `[0, 1]`.
    Diurnal {
        /// Full day length, µs.
        period_us: u64,
        /// Swing amplitude as a fraction of the base rate.
        depth: f64,
    },
    /// Nominal Poisson at `rps` with a burst window at `multiplier` × the
    /// base rate — the overload scenario the admission ladder exists for.
    FlashCrowd {
        /// Burst start, µs.
        at_us: u64,
        /// Burst length, µs.
        len_us: u64,
        /// Rate multiplier inside the burst (2.0 = the 2× overload gate).
        multiplier: f64,
    },
}

/// A complete open-loop workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// RNG seed; same seed + same spec = bit-identical workload.
    pub seed: u64,
    /// Base arrival rate, requests per second.
    pub rps: f64,
    /// Generation horizon, µs (arrivals in `[0, duration_us)`).
    pub duration_us: u64,
    /// Per-request SLO budget: `deadline = arrival + slo_us`.
    pub slo_us: u64,
    /// Rate shape over time.
    pub pattern: LoadPattern,
}

impl LoadSpec {
    /// Instantaneous rate at `t`, requests/sec.
    fn rate_at(&self, t_us: u64) -> f64 {
        match self.pattern {
            LoadPattern::Poisson => self.rps,
            LoadPattern::Diurnal { period_us, depth } => {
                let phase = 2.0 * std::f64::consts::PI * t_us as f64 / period_us as f64;
                self.rps * (1.0 + depth * phase.sin())
            }
            LoadPattern::FlashCrowd {
                at_us,
                len_us,
                multiplier,
            } => {
                if t_us >= at_us && t_us < at_us.saturating_add(len_us) {
                    self.rps * multiplier
                } else {
                    self.rps
                }
            }
        }
    }

    /// Peak rate over the horizon (the thinning envelope).
    fn peak_rate(&self) -> f64 {
        match self.pattern {
            LoadPattern::Poisson => self.rps,
            LoadPattern::Diurnal { depth, .. } => self.rps * (1.0 + depth.abs()),
            LoadPattern::FlashCrowd { multiplier, .. } => self.rps * multiplier.max(1.0),
        }
    }

    /// Generates the workload: arrival-sorted requests with dense ids.
    ///
    /// Priorities are drawn per request — 10% [`Priority::High`], 70%
    /// [`Priority::Normal`], 20% [`Priority::Low`] — from the same seeded
    /// stream as the arrival process.
    ///
    /// # Panics
    /// Panics on a non-positive rate or an SLO of zero.
    pub fn generate(&self) -> Vec<Request> {
        assert!(self.rps > 0.0, "rate must be positive");
        assert!(self.slo_us > 0, "SLO budget must be positive");
        let peak = self.peak_rate();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        let mut t = 0.0f64; // candidate clock, µs
        let mut id = 0u64;
        loop {
            // Exponential gap of the homogeneous candidate process at the
            // peak rate. 1 - u keeps ln away from 0.
            let u: f64 = rng.gen();
            let gap_us = -(1.0 - u).ln() / peak * 1e6;
            t += gap_us;
            if t >= self.duration_us as f64 {
                break;
            }
            let arrival_us = t as u64;
            // Thinning: always consume one draw per candidate so the
            // stream layout is independent of accept/reject outcomes.
            let keep: f64 = rng.gen();
            let accept = keep < self.rate_at(arrival_us) / peak;
            let pr: f64 = rng.gen();
            let user: u64 = rng.gen();
            if !accept {
                continue;
            }
            let priority = if pr < 0.10 {
                Priority::High
            } else if pr < 0.80 {
                Priority::Normal
            } else {
                Priority::Low
            };
            out.push(Request {
                id,
                user,
                arrival_us,
                deadline_us: arrival_us + self.slo_us,
                priority,
            });
            id += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_spec(seed: u64) -> LoadSpec {
        LoadSpec {
            seed,
            rps: 1000.0,
            duration_us: 1_000_000,
            slo_us: 10_000,
            pattern: LoadPattern::Poisson,
        }
    }

    #[test]
    fn poisson_hits_the_requested_rate() {
        let reqs = poisson_spec(7).generate();
        // 1000 rps over 1s: expect ~1000, allow wide Monte-Carlo slack.
        assert!(
            (800..1200).contains(&reqs.len()),
            "got {} arrivals",
            reqs.len()
        );
    }

    #[test]
    fn arrivals_are_sorted_with_dense_ids() {
        let reqs = poisson_spec(3).generate();
        for (i, w) in reqs.windows(2).enumerate() {
            assert!(w[0].arrival_us <= w[1].arrival_us, "unsorted at {i}");
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.deadline_us, r.arrival_us + 10_000);
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        assert_eq!(poisson_spec(42).generate(), poisson_spec(42).generate());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(poisson_spec(1).generate(), poisson_spec(2).generate());
    }

    #[test]
    fn flash_crowd_bursts_the_window() {
        let spec = LoadSpec {
            seed: 5,
            rps: 1000.0,
            duration_us: 3_000_000,
            slo_us: 10_000,
            pattern: LoadPattern::FlashCrowd {
                at_us: 1_000_000,
                len_us: 1_000_000,
                multiplier: 3.0,
            },
        };
        let reqs = spec.generate();
        let in_burst = reqs
            .iter()
            .filter(|r| (1_000_000..2_000_000).contains(&r.arrival_us))
            .count();
        let before = reqs.iter().filter(|r| r.arrival_us < 1_000_000).count();
        assert!(
            in_burst as f64 > 2.0 * before as f64,
            "burst {in_burst} vs nominal {before}"
        );
    }

    #[test]
    fn diurnal_peak_and_trough_differ() {
        let spec = LoadSpec {
            seed: 9,
            rps: 2000.0,
            duration_us: 2_000_000,
            slo_us: 10_000,
            pattern: LoadPattern::Diurnal {
                period_us: 2_000_000,
                depth: 0.8,
            },
        };
        let reqs = spec.generate();
        // First half-period is the high phase of the sine, second the low.
        let high = reqs.iter().filter(|r| r.arrival_us < 1_000_000).count();
        let low = reqs.len() - high;
        assert!(high > low, "high {high} vs low {low}");
    }

    #[test]
    fn priorities_cover_all_classes() {
        let reqs = poisson_spec(11).generate();
        let highs = reqs.iter().filter(|r| r.priority == Priority::High).count();
        let lows = reqs.iter().filter(|r| r.priority == Priority::Low).count();
        assert!(highs > 0 && lows > 0);
        assert!(highs < reqs.len() / 4, "high should be the rare class");
    }
}
