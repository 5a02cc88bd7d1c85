//! Server-side service-time distributions for the workload cells:
//! fixed, exponential, and a deterministic long tail. Arrivals are not
//! drawn here — `plan.rs` precomputes every channel's arrival stream
//! from its scripted [`crate::Shape`] windows.

use des::rng::SimRng;

/// Server-side service-time distribution (virtual time spent per
/// request before the in-place reply).
#[derive(Debug, Clone, Copy)]
pub enum ServiceTime {
    /// Deterministic service.
    Fixed {
        /// Service time, nanoseconds.
        ns: u64,
    },
    /// Exponentially distributed service.
    Exp {
        /// Mean service time, nanoseconds.
        mean_ns: u64,
    },
    /// Deterministic long tail: every `slow_every`-th request (by
    /// dispatch order) takes `slow_ns`, the rest take `ns`. The
    /// straggler scenarios use this to model a periodically slow
    /// consumer holding the queue hostage.
    LongTail {
        /// Fast-path service time, nanoseconds.
        ns: u64,
        /// Straggler service time, nanoseconds.
        slow_ns: u64,
        /// One request in `slow_every` is a straggler (>= 1).
        slow_every: u32,
    },
}

impl ServiceTime {
    /// Sample the service time of the `index`-th dispatched request.
    /// `index` makes [`ServiceTime::LongTail`] deterministic without a
    /// second RNG stream; the random variants ignore it.
    pub fn sample(&self, rng: &mut SimRng, index: u64) -> u64 {
        match *self {
            ServiceTime::Fixed { ns } => ns,
            ServiceTime::Exp { mean_ns } => {
                let u = rng.unit();
                (-(1.0 - u).ln() * mean_ns as f64) as u64
            }
            ServiceTime::LongTail {
                ns,
                slow_ns,
                slow_every,
            } => {
                let every = slow_every.max(1) as u64;
                if index % every == every - 1 {
                    slow_ns
                } else {
                    ns
                }
            }
        }
    }

    /// The distribution's mean, nanoseconds (sets the service ceiling a
    /// campaign's load ladder is placed against).
    pub fn mean_ns(&self) -> f64 {
        match *self {
            ServiceTime::Fixed { ns } => ns as f64,
            ServiceTime::Exp { mean_ns } => mean_ns as f64,
            ServiceTime::LongTail {
                ns,
                slow_ns,
                slow_every,
            } => {
                let every = slow_every.max(1) as f64;
                (ns as f64 * (every - 1.0) + slow_ns as f64) / every
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_service_has_the_right_mean() {
        let mut rng = SimRng::seeded(3);
        let s = ServiceTime::Exp { mean_ns: 50_000 };
        let n = 4_000;
        let total: u64 = (0..n).map(|i| s.sample(&mut rng, i)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 50_000.0).abs() < 5_000.0, "exp mean {mean:.0} ns");
    }

    #[test]
    fn long_tail_is_periodic_and_deterministic() {
        let mut rng = SimRng::seeded(4);
        let s = ServiceTime::LongTail {
            ns: 10_000,
            slow_ns: 400_000,
            slow_every: 4,
        };
        let samples: Vec<u64> = (0..8).map(|i| s.sample(&mut rng, i)).collect();
        assert_eq!(
            samples,
            [10_000, 10_000, 10_000, 400_000, 10_000, 10_000, 10_000, 400_000]
        );
        assert!((s.mean_ns() - 107_500.0).abs() < 1e-9);
    }
}
