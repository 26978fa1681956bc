//! Piecewise-constant transmission-rate profiles.

/// A piecewise-constant, non-negative rate as a function of time.
///
/// Profiles are built by *adding* rate over half-open intervals
/// `[start, end)`; overlapping additions accumulate, which makes the type
/// directly usable both for a single flow's transmission rate `s_i(t)` and
/// for a link's aggregate rate `x_e(t) = sum of the rates of the flows it
/// carries`.
///
/// # Example
///
/// ```
/// use dcn_power::RateProfile;
///
/// let mut p = RateProfile::new();
/// p.add_rate(0.0, 4.0, 2.0);
/// p.add_rate(2.0, 6.0, 1.0);
/// assert_eq!(p.rate_at(1.0), 2.0);
/// assert_eq!(p.rate_at(3.0), 3.0);
/// assert_eq!(p.rate_at(5.0), 1.0);
/// assert_eq!(p.volume(), 2.0 * 4.0 + 1.0 * 4.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RateProfile {
    /// Raw (start, end, rate) additions, not necessarily disjoint.
    pieces: Vec<(f64, f64, f64)>,
}

impl RateProfile {
    /// Creates an empty (always-zero) profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profile equal to `rate` on `[start, end)` and zero
    /// elsewhere.
    pub fn constant(start: f64, end: f64, rate: f64) -> Self {
        let mut p = Self::new();
        p.add_rate(start, end, rate);
        p
    }

    /// Adds `rate` over the half-open interval `[start, end)`.
    ///
    /// Zero-rate or empty-interval additions are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`, if the rate is negative, or if any value is
    /// not finite.
    pub fn add_rate(&mut self, start: f64, end: f64, rate: f64) {
        assert!(
            start.is_finite() && end.is_finite() && rate.is_finite(),
            "profile pieces must be finite: [{start}, {end}) at {rate}"
        );
        assert!(end >= start, "interval end {end} precedes start {start}");
        assert!(rate >= 0.0, "rate must be non-negative, got {rate}");
        if end > start && rate > 0.0 {
            self.pieces.push((start, end, rate));
        }
    }

    /// Appends `rate` over `[start, end)` to a profile that is built in time
    /// order: a piece that starts where the last stored piece ends
    /// (`|Δt| < 1e-12`) at that piece's rate (`|Δrate| < 1e-12`, against
    /// the rate the run *retains*, its first) extends that piece in place;
    /// anything else is [`RateProfile::add_rate`]. This is the predicate
    /// [`RateProfile::segments`] merges by, so for time-ordered appends
    /// `segments()` is what `add_rate` would have given, to the bit, from
    /// one stored piece per constant-rate run instead of one per append.
    /// What it trades: a sum over several such profiles (a link's
    /// aggregate) adds a run's first rate where it used to add its k-th.
    ///
    /// # Panics
    ///
    /// As [`RateProfile::add_rate`].
    pub fn append_rate(&mut self, start: f64, end: f64, rate: f64) {
        match self.pieces.last_mut() {
            Some((_, last_end, last_rate))
                if end > start
                    && end.is_finite()
                    && (*last_end - start).abs() < 1e-12
                    && (*last_rate - rate).abs() < 1e-12 =>
            {
                *last_end = end;
            }
            _ => self.add_rate(start, end, rate),
        }
    }

    /// The stored `(start, end, rate)` pieces, in insertion order — not
    /// necessarily disjoint; [`RateProfile::segments`] is the function.
    pub fn pieces(&self) -> &[(f64, f64, f64)] {
        &self.pieces
    }

    /// Returns `true` if the profile is identically zero.
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Returns `true` if the profile carries any traffic (positive volume).
    pub fn is_active(&self) -> bool {
        !self.is_empty()
    }

    /// The instantaneous rate at time `t`.
    ///
    /// At a breakpoint the *right* limit applies (intervals are half-open).
    pub fn rate_at(&self, t: f64) -> f64 {
        self.pieces
            .iter()
            .filter(|&&(s, e, _)| t >= s && t < e)
            .map(|&(_, _, r)| r)
            .sum()
    }

    /// Total volume carried: the integral of the rate over all time.
    pub fn volume(&self) -> f64 {
        self.pieces.iter().map(|&(s, e, r)| (e - s) * r).sum()
    }

    /// Volume carried inside `[from, to)`.
    pub fn volume_between(&self, from: f64, to: f64) -> f64 {
        self.pieces
            .iter()
            .map(|&(s, e, r)| {
                let lo = s.max(from);
                let hi = e.min(to);
                if hi > lo {
                    (hi - lo) * r
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// The earliest and latest breakpoints of the profile, or `None` if it is
    /// empty.
    pub fn span(&self) -> Option<(f64, f64)> {
        if self.pieces.is_empty() {
            return None;
        }
        let start = self
            .pieces
            .iter()
            .map(|p| p.0)
            .fold(f64::INFINITY, f64::min);
        let end = self
            .pieces
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max);
        Some((start, end))
    }

    /// The merged, disjoint segments `(start, end, rate)` of the profile with
    /// strictly positive rate, sorted by start time.
    pub fn segments(&self) -> Vec<(f64, f64, f64)> {
        if self.pieces.is_empty() {
            return Vec::new();
        }
        let mut times: Vec<f64> = self.pieces.iter().flat_map(|&(s, e, _)| [s, e]).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        times.dedup();
        // Sweep the elementary windows with an active-piece set instead of
        // re-scanning every piece per window (quadratic in pieces, and the
        // post-run bottleneck of 100k-arrival online traces). Pieces enter
        // at their start breakpoint and leave at their end breakpoint; the
        // active set stays sorted by piece index, so each window's rate is
        // the sum of the same rates in the same order the full scan took —
        // the output is bitwise identical.
        let mut by_start: Vec<usize> = (0..self.pieces.len()).collect();
        by_start.sort_by(|&a, &b| {
            self.pieces[a]
                .0
                .partial_cmp(&self.pieces[b].0)
                .expect("finite breakpoints")
        });
        let mut next = 0usize;
        let mut active: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        for w in times.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi <= lo {
                continue;
            }
            active.retain(|&i| self.pieces[i].1 > lo);
            while next < by_start.len() && self.pieces[by_start[next]].0 <= lo {
                let i = by_start[next];
                next += 1;
                if self.pieces[i].1 > lo {
                    if let Err(slot) = active.binary_search(&i) {
                        active.insert(slot, i);
                    }
                }
            }
            let rate: f64 = active.iter().map(|&i| self.pieces[i].2).sum();
            if rate > 0.0 {
                // Merge with the previous segment when the rate is identical
                // and the segments are adjacent.
                if let Some(last) = out.last_mut() {
                    let (_, ref mut last_end, last_rate): &mut (f64, f64, f64) = last;
                    if (*last_rate - rate).abs() < 1e-12 && (*last_end - lo).abs() < 1e-12 {
                        *last_end = hi;
                        continue;
                    }
                }
                out.push((lo, hi, rate));
            }
        }
        out
    }

    /// The maximum instantaneous rate over all time.
    pub fn max_rate(&self) -> f64 {
        self.segments()
            .iter()
            .map(|&(_, _, r)| r)
            .fold(0.0, f64::max)
    }

    /// Merges another profile into this one (pointwise sum of rates).
    pub fn merge(&mut self, other: &RateProfile) {
        self.pieces.extend_from_slice(&other.pieces);
    }

    /// The profile restricted to the window `[from, to)`: identical rates
    /// inside the window, zero outside. Segments straddling a window edge
    /// are clipped to it; segments entirely inside keep their exact
    /// breakpoints, so restricting a profile to a window that contains all
    /// of its activity changes nothing.
    ///
    /// This is the commit primitive of the online rolling-horizon loop: at
    /// each arrival event only the part of the freshly solved schedule up
    /// to the next event is committed.
    pub fn restricted(&self, from: f64, to: f64) -> RateProfile {
        let mut out = RateProfile::new();
        for (start, end, rate) in self.segments() {
            let lo = start.max(from);
            let hi = end.min(to);
            if hi > lo {
                out.add_rate(lo, hi, rate);
            }
        }
        out
    }

    /// Ends a profile built in time order — each piece starting at or after
    /// the end of the one before, as [`RateProfile::append_rate`] builds it
    /// — at `at`, in place: the pieces that start at or after `at` go, and
    /// the one that straddles `at` ends there. Then the last piece is folded
    /// into the one before it for as long as `append_rate` would have
    /// extended that one by it, so a rate that holds across many cuts is
    /// stored as one piece, at its first rate. It reads only the pieces that
    /// end after `at` and the ones it folds, from the back.
    pub fn truncate(&mut self, at: f64) {
        debug_assert!(
            self.pieces.windows(2).all(|w| w[0].1 <= w[1].0),
            "truncate needs pieces in time order"
        );
        while let Some(last) = self.pieces.last_mut() {
            if last.1 <= at {
                break;
            }
            if last.0 < at {
                last.1 = at;
                break;
            }
            self.pieces.pop();
        }
        while let [.., (_, end, rate), (start, last_end, last_rate)] = self.pieces[..] {
            if (end - start).abs() >= 1e-12 || (rate - last_rate).abs() >= 1e-12 {
                break;
            }
            self.pieces.pop();
            if let Some(piece) = self.pieces.last_mut() {
                piece.1 = last_end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn restricted_clips_to_the_window() {
        let mut p = RateProfile::new();
        p.add_rate(0.0, 4.0, 2.0);
        p.add_rate(6.0, 8.0, 1.0);
        let mid = p.restricted(1.0, 7.0);
        assert!(close(mid.volume(), 2.0 * 3.0 + 1.0 * 1.0));
        assert_eq!(mid.rate_at(0.5), 0.0);
        assert_eq!(mid.rate_at(2.0), 2.0);
        assert_eq!(mid.rate_at(6.5), 1.0);
        assert_eq!(mid.rate_at(7.5), 0.0);
        // A window containing all activity reproduces the profile exactly.
        assert_eq!(p.restricted(-10.0, 10.0).segments(), p.segments());
        // A window outside the activity is empty.
        assert!(p.restricted(10.0, 20.0).is_empty());
    }

    #[test]
    fn truncate_cuts_the_tail_and_folds_a_rate_that_held() {
        // Abutting runs 1e-14 apart (`append_rate` would join them), a gap.
        let mut p = RateProfile::new();
        p.add_rate(0.0, 1.0, 0.1);
        p.add_rate(1.0, 3.0, 0.1 + 1e-14);
        p.add_rate(3.0, 4.0, 0.7);
        p.add_rate(6.0, 8.0, 1.0);
        // Cut inside a piece that ends no run: nothing before `at` changes.
        let mut cut = p.clone();
        cut.truncate(3.5);
        assert_eq!(
            cut.pieces(),
            [(0.0, 1.0, 0.1), (1.0, 3.0, 0.1 + 1e-14), (3.0, 3.5, 0.7)]
        );
        for (from, to) in [(0.0, 3.5), (0.5, 2.0), (2.5, 3.25)] {
            let (before, kept) = (p.volume_between(from, to), cut.volume_between(from, to));
            assert_eq!(before.to_bits(), kept.to_bits(), "[{from}, {to})");
        }
        // The run that ends the cut profile folds as `append_rate` folds it;
        // at a breakpoint, in a gap, past the end and before the start.
        let mut appended = RateProfile::new();
        for &(start, end, rate) in &p.pieces()[..2] {
            appended.append_rate(start, end, rate);
        }
        for (at, stored) in [
            (3.0, appended.pieces().to_vec()),
            (2.0, vec![(0.0, 2.0, 0.1)]),
            (5.0, p.pieces()[..3].to_vec()),
            (9.0, p.pieces().to_vec()),
            (0.0, Vec::new()),
        ] {
            let mut cut = p.clone();
            cut.truncate(at);
            assert_eq!(cut.pieces(), stored, "at {at}");
        }
    }

    #[test]
    fn empty_profile_is_zero_everywhere() {
        let p = RateProfile::new();
        assert!(p.is_empty());
        assert!(!p.is_active());
        assert_eq!(p.rate_at(0.0), 0.0);
        assert_eq!(p.volume(), 0.0);
        assert_eq!(p.max_rate(), 0.0);
        assert!(p.span().is_none());
        assert!(p.segments().is_empty());
    }

    #[test]
    fn constant_profile() {
        let p = RateProfile::constant(1.0, 3.0, 2.5);
        assert!(close(p.volume(), 5.0));
        assert_eq!(p.rate_at(1.0), 2.5);
        assert_eq!(p.rate_at(2.9), 2.5);
        assert_eq!(p.rate_at(3.0), 0.0, "intervals are half-open");
        assert_eq!(p.span(), Some((1.0, 3.0)));
    }

    #[test]
    fn overlapping_additions_accumulate() {
        let mut p = RateProfile::new();
        p.add_rate(0.0, 4.0, 1.0);
        p.add_rate(2.0, 6.0, 2.0);
        assert_eq!(p.rate_at(1.0), 1.0);
        assert_eq!(p.rate_at(3.0), 3.0);
        assert_eq!(p.rate_at(5.0), 2.0);
        assert!(close(p.volume(), 4.0 + 8.0));
        assert_eq!(p.max_rate(), 3.0);
        let segs = p.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], (0.0, 2.0, 1.0));
        assert_eq!(segs[1], (2.0, 4.0, 3.0));
        assert_eq!(segs[2], (4.0, 6.0, 2.0));
    }

    #[test]
    fn adjacent_equal_segments_are_merged() {
        let mut p = RateProfile::new();
        p.add_rate(0.0, 1.0, 2.0);
        p.add_rate(1.0, 2.0, 2.0);
        let segs = p.segments();
        assert_eq!(segs, vec![(0.0, 2.0, 2.0)]);
    }

    #[test]
    fn gaps_are_preserved() {
        let mut p = RateProfile::new();
        p.add_rate(0.0, 1.0, 1.0);
        p.add_rate(3.0, 4.0, 1.0);
        assert_eq!(p.rate_at(2.0), 0.0);
        assert_eq!(p.segments().len(), 2);
    }

    #[test]
    fn volume_between_clips_correctly() {
        let p = RateProfile::constant(0.0, 10.0, 2.0);
        assert!(close(p.volume_between(2.0, 5.0), 6.0));
        assert!(close(p.volume_between(-5.0, 2.0), 4.0));
        assert!(close(p.volume_between(9.0, 20.0), 2.0));
        assert_eq!(p.volume_between(11.0, 20.0), 0.0);
    }

    #[test]
    fn zero_rate_and_empty_interval_ignored() {
        let mut p = RateProfile::new();
        p.add_rate(0.0, 5.0, 0.0);
        p.add_rate(3.0, 3.0, 7.0);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        let mut p = RateProfile::new();
        p.add_rate(0.0, 1.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn reversed_interval_rejected() {
        let mut p = RateProfile::new();
        p.add_rate(2.0, 1.0, 1.0);
    }

    #[test]
    fn time_ordered_appends_are_the_merged_function_in_fewer_pieces() {
        // splitmix64: a seeded stream with no dev-dependency.
        fn unit(state: &mut u64) -> f64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
        let bits = |p: &RateProfile| -> Vec<[u64; 3]> {
            let segments = p.segments().into_iter();
            segments
                .map(|(s, e, r)| [s, e, r].map(f64::to_bits))
                .collect()
        };
        let (mut stored, mut pushed) = (0, 0);
        for seed in 0..300u64 {
            let state = &mut seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let (mut appended, mut merged) = (RateProfile::new(), RateProfile::new());
            let mut now = unit(state);
            let mut rate = 1.0 + unit(state);
            for _ in 0..1 + (40.0 * unit(state)) as usize {
                // Abutting or gapped; at the same rate, 1e-13 or 1e-9 off
                // it (below and above the merge tolerance), or a fresh one.
                if unit(state) < 0.25 {
                    now += unit(state);
                }
                match (5.0 * unit(state)) as u32 {
                    0 | 1 => {}
                    2 => rate += 1e-13,
                    3 => rate += 1e-9,
                    _ => rate = 1.0 + unit(state),
                }
                let until = now + 0.01 + unit(state);
                appended.append_rate(now, until, rate);
                merged.merge(&RateProfile::constant(now, until, rate));
                now = until;
            }
            assert_eq!(bits(&appended), bits(&merged), "seed {seed}");
            let (a, m) = (appended.volume(), merged.volume());
            assert!((a - m).abs() <= 1e-12 * m, "seed {seed}: {a} vs {m}");
            assert!(appended.pieces().len() <= merged.pieces().len());
            assert_eq!(appended.pieces().len(), appended.segments().len());
            stored += appended.pieces().len();
            pushed += merged.pieces().len();
        }
        assert!(
            3 * stored < 2 * pushed,
            "{stored} of {pushed} pieces stored"
        );
    }

    #[test]
    fn append_rate_rejects_what_add_rate_rejects() {
        let bad: [(f64, f64, f64); 4] = [
            (1.0, f64::INFINITY, 2.0),
            (1.0, 0.5, 2.0),
            (1.0, 2.0, -2.0),
            (f64::NAN, 2.0, 2.0),
        ];
        for (start, end, rate) in bad {
            let refused = std::panic::catch_unwind(|| {
                RateProfile::constant(0.0, 1.0, 2.0).append_rate(start, end, rate)
            });
            assert!(refused.is_err(), "[{start}, {end}) at {rate}");
        }
        // Empty and zero-rate appends are ignored, like additions.
        let mut p = RateProfile::constant(0.0, 1.0, 2.0);
        p.append_rate(1.0, 1.0, 2.0);
        p.append_rate(1.0, 2.0, 0.0);
        assert_eq!(p.pieces(), [(0.0, 1.0, 2.0)]);
    }

    #[test]
    fn merge_sums_pointwise() {
        let a = RateProfile::constant(0.0, 2.0, 1.0);
        let b = RateProfile::constant(1.0, 3.0, 2.0);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.rate_at(0.5), 1.0);
        assert_eq!(m.rate_at(1.5), 3.0);
        assert_eq!(m.rate_at(2.5), 2.0);
        assert!(close(m.volume(), a.volume() + b.volume()));
    }
}
