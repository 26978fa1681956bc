//! Seeded link failure/recovery processes.
//!
//! The paper's model assumes a static fabric; real data centers lose and
//! regain links continuously. [`FailureProcess`] generates the typed
//! [`TopologyEvent`] stream the online engine merges into its event queue:
//! every link alternates exponentially distributed up and down phases, each
//! link driven by its own derived RNG stream so the generated events are a
//! pure function of the seed — independent of iteration order, thread
//! counts or how many other links exist.

use dcn_topology::{LinkId, TopologyEvent};
use rand::prelude::*;
use rand::rngs::StdRng;

/// An alternating-renewal failure model: each directed link starts up,
/// stays up for an `Exp(mean_uptime)` duration, stays down for an
/// `Exp(mean_downtime)` duration, and repeats until the horizon ends.
///
/// The **failure rate** knob of the `failures` experiment binary is
/// `1 / mean_uptime` (failures per link per unit time); sweeping it up
/// makes outages more frequent while `mean_downtime` fixes how long each
/// one lasts.
///
/// # Example
///
/// ```
/// use dcn_flow::failure::FailureProcess;
///
/// let events = FailureProcess::new(50.0, 5.0, 7).generate(16, 100.0);
/// // Deterministic per seed, sorted by time, alternating per link.
/// assert_eq!(events, FailureProcess::new(50.0, 5.0, 7).generate(16, 100.0));
/// for pair in events.windows(2) {
///     assert!(pair[0].time() <= pair[1].time());
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FailureProcess {
    /// Mean duration of a link's up phase (must be positive and finite).
    pub mean_uptime: f64,
    /// Mean duration of an outage (must be positive and finite).
    pub mean_downtime: f64,
    /// Time the process starts (every link is up at `start`).
    pub start: f64,
    /// RNG seed; the same seed always yields the same event stream.
    pub seed: u64,
}

impl FailureProcess {
    /// A process over `[0, until)` horizons with the given phase means.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive and finite.
    pub fn new(mean_uptime: f64, mean_downtime: f64, seed: u64) -> Self {
        assert!(
            mean_uptime.is_finite() && mean_uptime > 0.0,
            "mean uptime must be positive and finite, got {mean_uptime}"
        );
        assert!(
            mean_downtime.is_finite() && mean_downtime > 0.0,
            "mean downtime must be positive and finite, got {mean_downtime}"
        );
        Self {
            mean_uptime,
            mean_downtime,
            start: 0.0,
            seed,
        }
    }

    /// Generates the event stream for links `0..link_count` over
    /// `[start, until)`, sorted by time (ties broken by link id, downs
    /// before ups). Transitions at or past `until` are dropped mid-phase,
    /// so a link can end the horizon down — matching the engine's
    /// stranded-flow semantics rather than forcing a final recovery.
    ///
    /// # Panics
    ///
    /// Panics if a phase mean is not positive and finite (see
    /// [`FailureProcess::new`]).
    pub fn generate(&self, link_count: usize, until: f64) -> Vec<TopologyEvent> {
        assert!(
            self.mean_uptime.is_finite() && self.mean_uptime > 0.0,
            "mean uptime must be positive and finite, got {}",
            self.mean_uptime
        );
        assert!(
            self.mean_downtime.is_finite() && self.mean_downtime > 0.0,
            "mean downtime must be positive and finite, got {}",
            self.mean_downtime
        );
        let mut events = Vec::new();
        for index in 0..link_count {
            let link = LinkId(index);
            // One independent RNG stream per link, derived from the seed
            // with an odd multiplier so streams never collide across links.
            let mut rng = StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(index as u64 + 1),
            );
            let mut clock = self.start;
            let mut up = true;
            loop {
                let mean = if up {
                    self.mean_uptime
                } else {
                    self.mean_downtime
                };
                // Exponential phase length by inversion sampling.
                let u: f64 = rng.gen_range(0.0..1.0);
                clock += -(1.0 - u).ln() * mean;
                if clock >= until {
                    break;
                }
                events.push(if up {
                    TopologyEvent::LinkDown { time: clock, link }
                } else {
                    TopologyEvent::LinkUp { time: clock, link }
                });
                up = !up;
            }
        }
        // Canonical stream order: time, then link id, downs before ups.
        // Times are continuous draws so cross-link ties are vanishingly
        // rare, but the order must still be total for determinism.
        events.sort_by(|a, b| {
            a.time()
                .total_cmp(&b.time())
                .then_with(|| a.link().cmp(&b.link()))
                .then_with(|| b.is_down().cmp(&a.is_down()))
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_alternate_per_link() {
        let p = FailureProcess::new(10.0, 2.0, 11);
        let a = p.generate(8, 200.0);
        let b = p.generate(8, 200.0);
        assert_eq!(a, b);
        assert_ne!(a, FailureProcess::new(10.0, 2.0, 12).generate(8, 200.0));
        assert!(!a.is_empty(), "200 time units at mean uptime 10 fail");
        for index in 0..8 {
            let link = LinkId(index);
            let mut expect_down = true;
            for e in a.iter().filter(|e| e.link() == link) {
                assert_eq!(e.is_down(), expect_down, "phases alternate");
                assert!(e.time() >= 0.0 && e.time() < 200.0);
                expect_down = !expect_down;
            }
        }
        for pair in a.windows(2) {
            assert!(pair[0].time() <= pair[1].time(), "sorted by time");
        }
    }

    #[test]
    fn per_link_streams_survive_link_count_changes() {
        // The events of link 3 are identical whether 4 or 64 links exist:
        // each link has its own derived RNG stream.
        let p = FailureProcess::new(5.0, 1.0, 3);
        let small: Vec<_> = p
            .generate(4, 100.0)
            .into_iter()
            .filter(|e| e.link() == LinkId(3))
            .collect();
        let large: Vec<_> = p
            .generate(64, 100.0)
            .into_iter()
            .filter(|e| e.link() == LinkId(3))
            .collect();
        assert_eq!(small, large);
    }

    #[test]
    fn rare_failures_yield_sparse_streams() {
        // Mean uptime far beyond the horizon: most links never fail.
        let events = FailureProcess::new(1e6, 1.0, 9).generate(32, 100.0);
        assert!(events.len() < 8, "got {} events", events.len());
    }

    #[test]
    #[should_panic(expected = "mean uptime must be positive")]
    fn zero_uptime_is_rejected() {
        let _ = FailureProcess::new(0.0, 1.0, 1);
    }
}
