//! The highest offered rate a front door sustains.
//!
//! A rate *meets* the limit when every request of an open-loop probe at
//! that rate was answered correctly, the probe's tail latency is within
//! the limit, and latency did not grow over the probe (no backlog). The
//! search doubles the rate from a start point until a probe fails, then
//! bisects geometrically between the last rate that met the limit and the
//! first that did not.

/// What one probe at a fixed offered rate observed.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub tail_ms: f64,
    pub backlog_growing: bool,
    pub failed: u64,
}

impl Probe {
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.tail_ms <= limit_ms
    }
}

/// Search bounds and resolution.
#[derive(Clone, Copy, Debug)]
pub struct SearchSpec {
    pub start: f64,
    pub floor: f64,
    pub ceiling: f64,
    pub limit_ms: f64,
    /// Bisection steps after the bracket is found.
    pub steps: usize,
}

/// Highest rate found to meet the limit (0 when not even `floor` does),
/// plus every `(rate, met)` probed, in order.
pub fn max_rps(spec: SearchSpec, mut probe: impl FnMut(f64) -> Probe) -> (f64, Vec<(f64, bool)>) {
    let mut log = Vec::new();
    let mut check = |rate: f64, log: &mut Vec<(f64, bool)>| {
        let met = probe(rate).meets(spec.limit_ms);
        log.push((rate, met));
        met
    };
    let (mut lo, mut hi);
    let mut rate = spec.start.clamp(spec.floor, spec.ceiling);
    if check(rate, &mut log) {
        lo = rate;
        loop {
            if rate >= spec.ceiling {
                return (rate, log);
            }
            rate = (rate * 2.0).min(spec.ceiling);
            if !check(rate, &mut log) {
                hi = rate;
                break;
            }
            lo = rate;
        }
    } else {
        hi = rate;
        loop {
            rate /= 2.0;
            if rate < spec.floor {
                return (0.0, log);
            }
            if check(rate, &mut log) {
                lo = rate;
                break;
            }
            hi = rate;
        }
    }
    for _ in 0..spec.steps {
        let mid = (lo * hi).sqrt();
        if check(mid, &mut log) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue-like latency curve: tail latency blows up as the offered
    /// rate nears capacity, and past it a backlog builds.
    fn curve(capacity: f64) -> impl FnMut(f64) -> Probe {
        move |rate| {
            let load = rate / capacity;
            if load >= 1.0 {
                Probe {
                    tail_ms: f64::INFINITY,
                    backlog_growing: true,
                    failed: 0,
                }
            } else {
                Probe {
                    tail_ms: 0.2 / (1.0 - load),
                    backlog_growing: false,
                    failed: 0,
                }
            }
        }
    }

    fn spec(start: f64) -> SearchSpec {
        SearchSpec {
            start,
            floor: 100.0,
            ceiling: 1e6,
            limit_ms: 5.0,
            steps: 6,
        }
    }

    #[test]
    fn finds_the_knee_of_a_latency_curve_from_below_and_above() {
        // 0.2 / (1 - x) = 5 ms at x = 0.96.
        let knee = 0.96 * 12_345.0;
        for start in [1_000.0, 50_000.0] {
            let (found, log) = max_rps(spec(start), curve(12_345.0));
            assert!(found <= knee, "{found} exceeds the knee {knee}");
            assert!(
                found > knee * 0.95,
                "{found} is far below the knee {knee}: {log:?}"
            );
            assert!(log.iter().any(|&(_, met)| !met));
        }
    }

    #[test]
    fn failures_or_backlog_disqualify_a_rate() {
        let failing = |_: f64| Probe {
            tail_ms: 0.1,
            backlog_growing: false,
            failed: 1,
        };
        assert_eq!(max_rps(spec(1_000.0), failing).0, 0.0);
        let backlog = |_: f64| Probe {
            tail_ms: 0.1,
            backlog_growing: true,
            failed: 0,
        };
        assert_eq!(max_rps(spec(1_000.0), backlog).0, 0.0);
    }

    #[test]
    fn stops_at_the_ceiling() {
        let never_saturates = |_: f64| Probe {
            tail_ms: 0.1,
            backlog_growing: false,
            failed: 0,
        };
        let (found, _) = max_rps(
            SearchSpec {
                ceiling: 8_000.0,
                ..spec(1_000.0)
            },
            never_saturates,
        );
        assert_eq!(found, 8_000.0);
    }
}
