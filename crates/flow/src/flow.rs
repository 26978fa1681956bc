//! The deadline-constrained flow model.

use dcn_topology::NodeId;
use std::fmt;

/// Identifier of a flow within a [`crate::FlowSet`].
///
/// Flow ids are dense (`0..n`) inside a validated flow set, so downstream
/// algorithms index per-flow state with plain vectors.
pub type FlowId = usize;

/// Errors raised when constructing an invalid [`Flow`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The deadline does not leave any time after the release.
    EmptySpan {
        /// Release time.
        release: f64,
        /// Deadline.
        deadline: f64,
    },
    /// The data volume is not strictly positive.
    NonPositiveVolume(f64),
    /// Source and destination are the same node.
    SelfLoop(NodeId),
    /// A time or volume is NaN or infinite, or the span or density
    /// overflows to infinity.
    NotFinite,
    /// A flow set contains duplicate flow ids.
    DuplicateId(FlowId),
    /// Flow ids in a flow set are not dense (`0..n`).
    NonDenseIds,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::EmptySpan { release, deadline } => write!(
                f,
                "deadline {deadline} does not leave any time after release {release}"
            ),
            FlowError::NonPositiveVolume(v) => write!(f, "flow volume must be positive, got {v}"),
            FlowError::SelfLoop(n) => write!(f, "flow source and destination are both {n}"),
            FlowError::NotFinite => write!(
                f,
                "flow times and volume, and the span and density they give, must be finite"
            ),
            FlowError::DuplicateId(id) => write!(f, "duplicate flow id {id}"),
            FlowError::NonDenseIds => write!(f, "flow ids must be dense (0..n)"),
        }
    }
}

impl std::error::Error for FlowError {}

/// A deadline-constrained flow: `volume` units of data to move from `src`
/// to `dst` entirely within `[release, deadline]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Identifier of the flow (dense within a flow set).
    pub id: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Release time `r_i`: no data may be sent earlier.
    pub release: f64,
    /// Hard deadline `d_i`: all data must have arrived by this time.
    pub deadline: f64,
    /// Amount of data `w_i` to transfer.
    pub volume: f64,
}

impl Flow {
    /// Creates a flow, validating its parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the span is empty (`deadline <= release`), the
    /// volume is not positive, source equals destination, or any value, the
    /// span length or the density is not finite.
    pub fn new(
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        release: f64,
        deadline: f64,
        volume: f64,
    ) -> Result<Self, FlowError> {
        if !release.is_finite() || !deadline.is_finite() || !volume.is_finite() {
            return Err(FlowError::NotFinite);
        }
        if deadline <= release {
            return Err(FlowError::EmptySpan { release, deadline });
        }
        if volume <= 0.0 {
            return Err(FlowError::NonPositiveVolume(volume));
        }
        if src == dst {
            return Err(FlowError::SelfLoop(src));
        }
        let span = deadline - release;
        if !span.is_finite() || !(volume / span).is_finite() {
            return Err(FlowError::NotFinite);
        }
        Ok(Self {
            id,
            src,
            dst,
            release,
            deadline,
            volume,
        })
    }

    /// The span `S_i = [r_i, d_i]` of the flow.
    pub fn span(&self) -> (f64, f64) {
        (self.release, self.deadline)
    }

    /// Length of the span, `d_i - r_i`.
    pub fn span_length(&self) -> f64 {
        self.deadline - self.release
    }

    /// The density `D_i = w_i / (d_i - r_i)`: the minimum average rate at
    /// which the flow must be served to finish exactly at its deadline.
    pub fn density(&self) -> f64 {
        self.volume / self.span_length()
    }

    /// Returns `true` if the flow's span contains the whole interval
    /// `[start, end]`.
    pub fn spans_interval(&self, start: f64, end: f64) -> bool {
        self.release <= start + 1e-12 && self.deadline >= end - 1e-12
    }

    /// Time left until the deadline at clock `now` (negative once the
    /// deadline has passed).
    pub fn time_to_deadline(&self, now: f64) -> f64 {
        self.deadline - now
    }

    /// The minimum constant rate that delivers `remaining` volume by the
    /// deadline when transmission runs from `now` on — the priority key of
    /// preemptive earliest-deadline-first scheduling.
    ///
    /// Only meaningful while `now` is strictly before the deadline; at or
    /// past the deadline the required rate diverges (the caller is expected
    /// to have retired the flow as missed).
    pub fn required_rate(&self, now: f64, remaining: f64) -> f64 {
        remaining / (self.deadline - now)
    }

    /// The slack at clock `now`: the spare time left after transmitting
    /// `remaining` volume at constant `rate`. Zero means the flow must
    /// start immediately and never fall below `rate`; negative means the
    /// deadline cannot be met at that rate.
    pub fn slack(&self, now: f64, remaining: f64, rate: f64) -> f64 {
        (self.deadline - now) - remaining / rate
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow {} : {} -> {} , w = {}, span [{}, {}]",
            self.id, self.src, self.dst, self.volume, self.release, self.deadline
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_flow() {
        let fl = Flow::new(0, NodeId(1), NodeId(2), 1.0, 3.0, 8.0).unwrap();
        assert_eq!(fl.span(), (1.0, 3.0));
        assert_eq!(fl.span_length(), 2.0);
        assert_eq!(fl.density(), 4.0);
    }

    #[test]
    fn spans_interval_checks_containment() {
        let fl = Flow::new(0, NodeId(1), NodeId(2), 1.0, 5.0, 8.0).unwrap();
        assert!(fl.spans_interval(1.0, 5.0));
        assert!(fl.spans_interval(2.0, 3.0));
        assert!(!fl.spans_interval(0.0, 3.0));
        assert!(!fl.spans_interval(4.0, 6.0));
    }

    #[test]
    fn invalid_flows_are_rejected() {
        assert!(matches!(
            Flow::new(0, NodeId(1), NodeId(2), 3.0, 3.0, 1.0),
            Err(FlowError::EmptySpan { .. })
        ));
        assert!(matches!(
            Flow::new(0, NodeId(1), NodeId(2), 1.0, 3.0, 0.0),
            Err(FlowError::NonPositiveVolume(_))
        ));
        assert!(matches!(
            Flow::new(0, NodeId(1), NodeId(1), 1.0, 3.0, 1.0),
            Err(FlowError::SelfLoop(_))
        ));
        assert!(matches!(
            Flow::new(0, NodeId(1), NodeId(2), f64::NAN, 3.0, 1.0),
            Err(FlowError::NotFinite)
        ));
    }

    #[test]
    fn an_overflowing_span_or_density_is_not_finite() {
        // Every value is finite, but the span overflows to infinity.
        assert_eq!(
            Flow::new(0, NodeId(1), NodeId(2), -1e308, 1e308, 1.0),
            Err(FlowError::NotFinite)
        );
        // The span is finite, but the density overflows to infinity.
        assert_eq!(
            Flow::new(0, NodeId(1), NodeId(2), 0.0, 1e-300, 1e300),
            Err(FlowError::NotFinite)
        );
        let largest = Flow::new(0, NodeId(1), NodeId(2), 0.0, 1.0, f64::MAX).unwrap();
        assert_eq!(largest.density(), f64::MAX);
    }

    #[test]
    fn online_accessors_agree_with_each_other() {
        let fl = Flow::new(0, NodeId(1), NodeId(2), 2.0, 10.0, 8.0).unwrap();
        assert_eq!(fl.time_to_deadline(4.0), 6.0);
        assert_eq!(fl.time_to_deadline(12.0), -2.0);
        // Full volume over the full span is exactly the density.
        assert_eq!(fl.required_rate(fl.release, fl.volume), fl.density());
        // Half the volume in half the remaining time: rate unchanged.
        assert_eq!(fl.required_rate(6.0, 4.0), 1.0);
        // Transmitting at the required rate leaves zero slack.
        let rate = fl.required_rate(4.0, 6.0);
        assert!(fl.slack(4.0, 6.0, rate).abs() < 1e-12);
        // Twice the required rate frees half the remaining time.
        assert_eq!(fl.slack(4.0, 6.0, 2.0 * rate), 3.0);
        assert!(fl.slack(9.0, 8.0, 1.0) < 0.0, "unmeetable deadline");
    }

    #[test]
    fn paper_example1_flows() {
        // Example 1: j1 = (A, C, r=2, d=4, w=6), j2 = (A, B, r=1, d=3, w=8).
        let j1 = Flow::new(0, NodeId(0), NodeId(2), 2.0, 4.0, 6.0).unwrap();
        let j2 = Flow::new(1, NodeId(0), NodeId(1), 1.0, 3.0, 8.0).unwrap();
        assert_eq!(j1.density(), 3.0);
        assert_eq!(j2.density(), 4.0);
    }

    #[test]
    fn display_is_informative() {
        let fl = Flow::new(3, NodeId(1), NodeId(2), 1.0, 3.0, 8.0).unwrap();
        let s = fl.to_string();
        assert!(s.contains("flow 3"));
        assert!(s.contains("n1"));
        assert!(s.contains("n2"));
    }
}
