//! Tracking of available (unblocked) time on a resource.
//!
//! The critical-interval machinery of YDS and Most-Critical-First repeatedly
//! "removes" the time occupied by already-scheduled work: the intensity of
//! an interval is computed with respect to the *available* time `a ~ b`
//! (paper, Definition 1), and newly scheduled flows may only occupy
//! available time. [`TimeAvailability`] maintains the set of blocked
//! intervals and answers those queries; [`IntervalScan`] is the scan over
//! candidate intervals that both algorithms run on top of it.
//!
//! **What the scan keeps.** A span lies in `[a, b]` when it may start at
//! `a` and ends by `b`, and every caller's two tests are monotone in the
//! endpoint (exactly for the plain `±1e-12` comparisons, and within a
//! rounding window Most-Critical-First states for its availability tests).
//! So the scan keeps, per span, the last endpoint at which it may start and
//! the first by which it ends, each found by binary search: `O(n log P)`
//! test calls for `n` spans and `P` endpoints, and no per-(span, endpoint)
//! table. Its contract: `starts_at` holds on a prefix of the sorted
//! endpoints, `ends_by` on a suffix.
//!
//! **Which sums the scan computes.** The work of an interval is the sum of
//! its members' weights *in list order* — thresholds downstream see the
//! rounding, so that order is part of the result — and it costs one pass
//! over the list, two integer compares per span, per pair `(a, b)`. Most
//! pairs cannot matter, and [`IntervalScan::work_bounds`] says so from one
//! running sum per `a`: each span that may start at `a` is bucketed at the
//! first endpoint by which it ends, and the prefix sum of the buckets up to
//! `b` adds exactly the members of `[a, b]`, in another order. Both sums
//! add at most `n` non-negative terms with `n - 1` rounded additions each,
//! whatever the association, so each is within a factor `(1 ± u)^(n-1)` of
//! its exact value (`u = 2^-53`); the in-order sum is therefore at most the
//! prefix sum times `((1 + u) / (1 - u))^(n-1) ≈ 1 + 2nu`. `SUM_SLACK` is
//! that factor's excess with room to spare, and every bound is scaled by
//! `1 + SUM_SLACK` before it is compared, so a skipped pair is one whose
//! exact in-order sum could not have passed the comparison either: the bound
//! prunes work, never changes a result.

/// The set of blocked (unavailable) time intervals on a resource, starting
/// from a fully available timeline.
///
/// # Example
///
/// ```
/// use dcn_solver::TimeAvailability;
///
/// let mut avail = TimeAvailability::new();
/// avail.block(2.0, 4.0);
/// assert_eq!(avail.available_between(0.0, 6.0), 4.0);
/// assert_eq!(avail.available_subintervals(1.0, 5.0), vec![(1.0, 2.0), (4.0, 5.0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeAvailability {
    /// Disjoint, sorted blocked intervals.
    blocked: Vec<(f64, f64)>,
}

impl TimeAvailability {
    /// Creates a fully available timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `[start, end)` as blocked (unavailable).
    ///
    /// Blocking an already blocked region is allowed; regions are merged.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or either bound is not finite.
    pub fn block(&mut self, start: f64, end: f64) {
        assert!(
            start.is_finite() && end.is_finite(),
            "blocked interval must be finite"
        );
        assert!(end >= start, "interval end {end} precedes start {start}");
        if end == start {
            return;
        }
        // Sorted insert: the list is already disjoint and sorted, so the new
        // interval either extends the neighbour on its left or becomes an
        // entry of its own, and then absorbs every neighbour on its right
        // that it touches (same `1e-12` tolerance either way).
        let pos = self.blocked.partition_point(|&(s, _)| s <= start);
        let at = match pos.checked_sub(1) {
            Some(left) if start <= self.blocked[left].1 + 1e-12 => {
                self.blocked[left].1 = self.blocked[left].1.max(end);
                left
            }
            _ => {
                self.blocked.insert(pos, (start, end));
                pos
            }
        };
        let mut next = at + 1;
        while next < self.blocked.len() && self.blocked[next].0 <= self.blocked[at].1 + 1e-12 {
            self.blocked[at].1 = self.blocked[at].1.max(self.blocked[next].1);
            next += 1;
        }
        self.blocked.drain(at + 1..next);
    }

    /// Total blocked time inside `[start, end)`.
    ///
    /// An empty or reversed window (`end <= start`) contains no time, so
    /// the result is `0.0`.
    pub fn blocked_between(&self, start: f64, end: f64) -> f64 {
        // Only the intervals overlapping the window are summed: every other
        // one would contribute exactly `+0.0`.
        let first = self.blocked.partition_point(|&(_, e)| e <= start);
        self.blocked[first..]
            .iter()
            .take_while(|&&(s, _)| s < end)
            .map(|&(s, e)| (e.min(end) - s.max(start)).max(0.0))
            .sum()
    }

    /// The available time `a ~ b` inside `[start, end)`.
    ///
    /// An empty or reversed window (`end <= start`) yields `0.0`.
    pub fn available_between(&self, start: f64, end: f64) -> f64 {
        ((end - start) - self.blocked_between(start, end)).max(0.0)
    }

    /// The maximal available sub-intervals of `[start, end)`, sorted.
    ///
    /// Never panics on degenerate windows: an empty or reversed window
    /// (`end <= start`) and a window entirely covered by blocked time both
    /// yield an empty vector, and sub-intervals shorter than the merge
    /// tolerance (`1e-12`) are dropped rather than returned as zero-width
    /// slivers. Callers can therefore treat "no available time" and
    /// "degenerate query" uniformly as the empty case.
    pub fn available_subintervals(&self, start: f64, end: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut cursor = start;
        let first = self.blocked.partition_point(|&(_, e)| e <= start);
        for &(s, e) in &self.blocked[first..] {
            if s >= end {
                break;
            }
            let s_clip = s.max(start);
            if s_clip > cursor {
                out.push((cursor, s_clip));
            }
            cursor = cursor.max(e.min(end));
        }
        if cursor < end {
            out.push((cursor, end));
        }
        out.retain(|&(a, b)| b - a > 1e-12);
        out
    }
}

/// Relative slack by which a prefix-sum bound of [`IntervalScan::work_bounds`]
/// is inflated before it stands in for an in-order sum: `2nu ≈ 2.2e-16 * n`
/// (module docs) stays below it for lists of up to four million spans, far
/// beyond where a scan over `P^2 / 2` intervals is practical.
const SUM_SLACK: f64 = 1e-9;

/// Containment of a list of spans in every interval `[a, b]` between two of
/// their endpoints — the one scan behind the critical interval of
/// [`crate::yds_schedule`], of Most-Critical-First and of its (P1) repair.
///
/// Members come back **in list order**, so a sum over them rounds exactly
/// as a filter over the whole list would; whether that sum is worth taking
/// is decided first from [`Self::work_bounds`].
#[derive(Debug)]
pub struct IntervalScan {
    points: Vec<f64>,
    /// `last_start[i]`: one past the last index into `points` at which span
    /// `i` may start (`0` if it may start at none).
    last_start: Vec<usize>,
    /// `first_end[i]`: the first index into `points` at which span `i` ends
    /// (`points.len()` if it never does).
    first_end: Vec<usize>,
}

impl IntervalScan {
    /// Finds by binary search, over the sorted, `1e-12`-deduplicated
    /// endpoints of `spans`, where `starts_at(span, a)` stops holding and
    /// `ends_by(span, b)` starts to (the contract is in the module docs).
    pub fn new(
        spans: &[(f64, f64)],
        mut starts_at: impl FnMut((f64, f64), f64) -> bool,
        mut ends_by: impl FnMut((f64, f64), f64) -> bool,
    ) -> Self {
        let mut points: Vec<f64> = spans.iter().flat_map(|&(r, d)| [r, d]).collect();
        points.sort_by(|a, b| a.partial_cmp(b).expect("finite span endpoints"));
        points.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let (last_start, first_end) = spans
            .iter()
            .map(|&span| {
                (
                    points.partition_point(|&a| starts_at(span, a)),
                    points.partition_point(|&b| !ends_by(span, b)),
                )
            })
            .unzip();
        Self {
            points,
            last_start,
            first_end,
        }
    }

    /// The candidate interval endpoints, ascending.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The spans that may start at `points[ia]`, in list order, each with
    /// the first endpoint index by which it ends.
    fn starting_at(&self, ia: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.last_start
            .iter()
            .zip(&self.first_end)
            .enumerate()
            .filter(move |&(_, (&last, _))| ia < last)
            .map(|(i, (_, &end))| (i, end))
    }

    /// The spans contained in `[points[ia], points[ib]]`, in list order.
    pub fn within(&self, ia: usize, ib: usize) -> impl Iterator<Item = usize> + '_ {
        self.starting_at(ia)
            .filter(move |&(_, end)| end <= ib)
            .map(|(i, _)| i)
    }

    /// Fills `bounds[ib]`, for every endpoint index `ib`, with an upper
    /// bound on the in-order sum of `weights` over `within(ia, ib)`: the
    /// running sum of the weights of the spans that may start at `ia`, each
    /// bucketed at the first endpoint by which it ends, scaled by
    /// `1 + SUM_SLACK` (module docs). It never decreases with `ib`, is
    /// `0.0` exactly where no span from `ia` on has ended yet, and costs
    /// `n + P` for all `ib` together. `weights` must be non-negative.
    pub fn work_bounds(&self, ia: usize, weights: &[f64], bounds: &mut Vec<f64>) {
        bounds.clear();
        bounds.resize(self.points.len(), 0.0);
        for (i, end) in self.starting_at(ia) {
            if let Some(bucket) = bounds.get_mut(end) {
                *bucket += weights[i];
            }
        }
        let mut running = 0.0;
        for bound in bounds.iter_mut() {
            running += *bound;
            *bound = running * (1.0 + SUM_SLACK);
        }
    }

    /// The interval maximising `intensity(work, a, b)`, `work` being the
    /// in-order sum of the (non-negative) `weights` over the spans it
    /// contains; intervals without work, or for which `intensity` is
    /// `None`, are skipped, and a later interval wins only by more than
    /// `1e-15`. Returns `(intensity, a, b)`.
    ///
    /// `intensity` must be non-decreasing in `work`, and where it is `None`
    /// for some work it must be `None` for every smaller one (both callers
    /// compute `work / available`, rejecting on `a` and `b` alone): it is
    /// asked about the [`Self::work_bounds`] bound first, and the in-order
    /// sum of an interval is taken only if that answer beats the incumbent.
    pub fn densest(
        &self,
        weights: &[f64],
        mut intensity: impl FnMut(f64, f64, f64) -> Option<f64>,
    ) -> Option<(f64, f64, f64)> {
        let mut best: Option<(f64, f64, f64)> = None;
        let mut bounds = Vec::new();
        for (ia, &a) in self.points.iter().enumerate() {
            self.work_bounds(ia, weights, &mut bounds);
            for (ib, &b) in self.points.iter().enumerate().skip(ia + 1) {
                if bounds[ib] <= 0.0 {
                    continue;
                }
                if let Some((top, ..)) = best {
                    if !intensity(bounds[ib], a, b).is_some_and(|cap| cap > top + 1e-15) {
                        continue;
                    }
                }
                let work: f64 = self.within(ia, ib).map(|i| weights[i]).sum();
                if work <= 0.0 {
                    continue;
                }
                let Some(intensity) = intensity(work, a, b) else {
                    continue;
                };
                if best.is_none_or(|(top, ..)| intensity > top + 1e-15) {
                    best = Some((intensity, a, b));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_timeline_is_fully_available() {
        let a = TimeAvailability::new();
        assert_eq!(a.available_between(0.0, 10.0), 10.0);
        assert_eq!(a.available_subintervals(0.0, 10.0), vec![(0.0, 10.0)]);
        assert!(a.blocked.is_empty());
    }

    #[test]
    fn blocking_reduces_availability() {
        let mut a = TimeAvailability::new();
        a.block(2.0, 4.0);
        a.block(6.0, 7.0);
        assert_eq!(a.available_between(0.0, 10.0), 7.0);
        assert_eq!(a.blocked_between(0.0, 10.0), 3.0);
        assert_eq!(
            a.available_subintervals(0.0, 10.0),
            vec![(0.0, 2.0), (4.0, 6.0), (7.0, 10.0)]
        );
        assert_eq!(a.blocked, [(2.0, 4.0), (6.0, 7.0)]);
    }

    #[test]
    fn overlapping_blocks_merge() {
        let mut a = TimeAvailability::new();
        a.block(1.0, 3.0);
        a.block(2.0, 5.0);
        a.block(5.0, 6.0);
        assert_eq!(a.blocked, [(1.0, 6.0)]);
        assert_eq!(a.available_between(0.0, 10.0), 5.0);
    }

    #[test]
    fn queries_clip_to_window() {
        let mut a = TimeAvailability::new();
        a.block(0.0, 100.0);
        assert_eq!(a.available_between(10.0, 20.0), 0.0);
        assert!(a.available_subintervals(10.0, 20.0).is_empty());
        assert_eq!(a.blocked_between(10.0, 20.0), 10.0);
    }

    #[test]
    fn partial_overlap_with_window() {
        let mut a = TimeAvailability::new();
        a.block(5.0, 15.0);
        assert_eq!(a.available_between(0.0, 10.0), 5.0);
        assert_eq!(a.available_subintervals(0.0, 10.0), vec![(0.0, 5.0)]);
        assert_eq!(a.available_subintervals(12.0, 20.0), vec![(15.0, 20.0)]);
    }

    #[test]
    fn empty_block_is_ignored() {
        let mut a = TimeAvailability::new();
        a.block(3.0, 3.0);
        assert!(a.blocked.is_empty());
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn reversed_block_panics() {
        let mut a = TimeAvailability::new();
        a.block(5.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_block_panics() {
        let mut a = TimeAvailability::new();
        a.block(0.0, f64::INFINITY);
    }

    #[test]
    fn degenerate_windows_are_empty_not_panicking() {
        // Reversed and zero-width query windows are answered, not
        // asserted on: every query degenerates to "no time available".
        let mut a = TimeAvailability::new();
        a.block(2.0, 4.0);
        for (s, e) in [(5.0, 1.0), (3.0, 3.0), (10.0, -10.0)] {
            assert!(a.available_subintervals(s, e).is_empty());
            assert_eq!(a.available_between(s, e), 0.0);
            assert_eq!(a.blocked_between(s, e), 0.0);
        }
        // Reversed windows stay empty even when blocked intervals straddle
        // or precede the (reversed) bounds.
        a.block(6.0, 7.0);
        assert!(a.available_subintervals(6.5, 3.0).is_empty());
    }

    #[test]
    fn fully_blocked_window_yields_empty_mask() {
        let mut a = TimeAvailability::new();
        a.block(0.0, 10.0);
        assert!(a.available_subintervals(2.0, 8.0).is_empty());
        assert_eq!(a.available_between(2.0, 8.0), 0.0);
        // Sliver gaps below the merge tolerance are dropped, not returned
        // as zero-width intervals.
        let mut b = TimeAvailability::new();
        b.block(0.0, 5.0);
        b.block(5.0 + 1e-13, 10.0);
        assert!(b.available_subintervals(0.0, 10.0).is_empty());
    }

    /// `block` as it was: append, stable-sort by start, merge left to right.
    fn block_by_resorting(blocked: &mut Vec<(f64, f64)>, start: f64, end: f64) {
        blocked.push((start, end));
        blocked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for &(s, e) in blocked.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 + 1e-12 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        *blocked = merged;
    }

    #[test]
    fn sorted_insert_matches_resorting_on_random_intervals() {
        // Half-integer grid with sub-tolerance jitter, so that intervals
        // abut, nest, bridge several neighbours and miss by a hair.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        let mut a = TimeAvailability::new();
        let mut expected: Vec<(f64, f64)> = Vec::new();
        for _ in 0..1000 {
            let jitter = [0.0, 1e-13, -1e-13, 3e-12][next(4) as usize];
            let start = next(4000) as f64 * 0.5 + jitter;
            let end = start + next(12) as f64 * 0.5 + 0.25;
            a.block(start, end);
            block_by_resorting(&mut expected, start, end);
            assert_eq!(a.blocked, expected);

            // The overlap-only sum is the sum over the whole list (`==` on
            // floats is exact up to the sign of zero).
            let (lo, hi) = (next(2000) as f64, next(2000) as f64);
            let whole: f64 = expected
                .iter()
                .map(|&(s, e)| (e.min(hi) - s.max(lo)).max(0.0))
                .sum();
            assert_eq!(a.blocked_between(lo, hi), whole);

            // So is the other query that starts at the first interval the
            // window can touch instead of at the head of the list.
            let mut gaps = Vec::new();
            let mut cursor = lo;
            for &(s, e) in expected.iter().filter(|&&(s, e)| e > lo && s < hi) {
                if s.max(lo) > cursor {
                    gaps.push((cursor, s.max(lo)));
                }
                cursor = cursor.max(e.min(hi));
            }
            if cursor < hi {
                gaps.push((cursor, hi));
            }
            gaps.retain(|&(s, e)| e - s > 1e-12);
            assert_eq!(a.available_subintervals(lo, hi), gaps);
        }
        assert!(expected.len() > 100, "the timeline never fragmented");
    }

    /// Spans (0,4) (1,3) (2,8) (1,3): plain containment, duplicates included.
    fn plain_scan() -> IntervalScan {
        IntervalScan::new(
            &[(0.0, 4.0), (1.0, 3.0), (2.0, 8.0), (1.0, 3.0)],
            |(release, _), a| release >= a - 1e-12,
            |(_, deadline), b| deadline <= b + 1e-12,
        )
    }

    #[test]
    fn interval_scan_lists_members_in_list_order() {
        let scan = plain_scan();
        assert_eq!(scan.points(), &[0.0, 1.0, 2.0, 3.0, 4.0, 8.0]);
        assert_eq!(
            scan.starting_at(1).map(|(i, _)| i).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(scan.within(0, 4).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(scan.within(1, 3).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(scan.within(2, 5).collect::<Vec<_>>(), vec![2]);
        assert_eq!(scan.within(3, 4).count(), 0);
    }

    #[test]
    fn densest_keeps_the_first_of_tied_intervals_and_skips_none() {
        let scan = plain_scan();
        let weights = [2.0, 1.0, 3.0, 1.0];
        // [1,3] holds work 2 in length 2; [0,4] holds 4 in 4: a tie at 1,
        // broken in favour of the pair met first, [0,4]. [0,8] (7 in 8)
        // and [2,8] (3 in 6) are less dense.
        let best = scan.densest(&weights, |work, a, b| Some(work / (b - a)));
        assert_eq!(best, Some((1.0, 0.0, 4.0)));
        // Intervals the caller rejects are skipped, not counted as zero.
        let best = scan.densest(&weights, |work, a, b| (a >= 1.0).then(|| work / (b - a)));
        assert_eq!(best, Some((1.0, 1.0, 3.0)));
        assert_eq!(scan.densest(&weights, |_, _, _| None), None);
        assert_eq!(
            IntervalScan::new(&[], |_, _| true, |_, _| true).densest(&[], |w, _, _| Some(w)),
            None
        );
    }

    /// The per-(span, endpoint) tables the boundary form replaced: both
    /// predicates evaluated at every endpoint of `scan`.
    struct ExhaustiveTable {
        /// `starts[ia][i]`: span `i` may start at `points[ia]`.
        starts: Vec<Vec<bool>>,
        /// `ended[ib][i]`: span `i` ends by `points[ib]`.
        ended: Vec<Vec<bool>>,
    }

    impl ExhaustiveTable {
        fn new(
            scan: &IntervalScan,
            spans: &[(f64, f64)],
            starts_at: impl Fn((f64, f64), f64) -> bool,
            ends_by: impl Fn((f64, f64), f64) -> bool,
        ) -> Self {
            let row = |p: f64, test: &dyn Fn((f64, f64), f64) -> bool| {
                spans
                    .iter()
                    .map(|&span| test(span, p))
                    .collect::<Vec<bool>>()
            };
            Self {
                starts: scan.points().iter().map(|&a| row(a, &starts_at)).collect(),
                ended: scan.points().iter().map(|&b| row(b, &ends_by)).collect(),
            }
        }

        /// Whether `starts_at` holds on a prefix and `ends_by` on a suffix
        /// of the endpoints, for every span: the contract of the scan.
        fn meets_the_contract(&self) -> bool {
            let spans = self.starts.first().map_or(0, Vec::len);
            (0..spans).all(|i| {
                let column = |rows: &[Vec<bool>]| rows.iter().map(|row| row[i]).collect::<Vec<_>>();
                column(&self.starts).windows(2).all(|w| w[0] >= w[1])
                    && column(&self.ended).windows(2).all(|w| w[0] <= w[1])
            })
        }

        fn within(&self, ia: usize, ib: usize) -> Vec<usize> {
            (0..self.starts[ia].len())
                .filter(|&i| self.starts[ia][i] && self.ended[ib][i])
                .collect()
        }

        /// `work_bounds` with each span's bucket found by a linear search.
        fn work_bounds(&self, ia: usize, weights: &[f64]) -> Vec<f64> {
            let mut bounds = vec![0.0; self.ended.len()];
            for i in (0..weights.len()).filter(|&i| self.starts[ia][i]) {
                if let Some(ib) = self.ended.iter().position(|row| row[i]) {
                    bounds[ib] += weights[i];
                }
            }
            let mut running = 0.0;
            for bound in &mut bounds {
                running += *bound;
                *bound = running * (1.0 + SUM_SLACK);
            }
            bounds
        }

        /// `densest` as a plain loop: the in-order sum of every pair.
        fn densest(
            &self,
            points: &[f64],
            weights: &[f64],
            mut intensity: impl FnMut(f64, f64, f64) -> Option<f64>,
        ) -> Option<(f64, f64, f64)> {
            let mut best: Option<(f64, f64, f64)> = None;
            for (ia, &a) in points.iter().enumerate() {
                for (ib, &b) in points.iter().enumerate().skip(ia + 1) {
                    let work: f64 = self.within(ia, ib).iter().map(|&i| weights[i]).sum();
                    if work <= 0.0 {
                        continue;
                    }
                    let Some(intensity) = intensity(work, a, b) else {
                        continue;
                    };
                    if best.is_none_or(|(top, ..)| intensity > top + 1e-15) {
                        best = Some((intensity, a, b));
                    }
                }
            }
            best
        }
    }

    #[test]
    fn the_boundary_form_equals_the_exhaustive_table() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        // Offsets that put endpoints `1e-12` apart (or just under or over
        // the dedup tolerance) next to grid points that tie exactly.
        const JITTER: [f64; 6] = [0.0, 0.0, 1e-12, -1e-12, 1e-13, 3e-12];
        for case in 0..300 {
            // A coarse grid, so endpoints repeat and intensities tie, and a
            // quarter of the spans duplicate an earlier one; every other
            // case draws weights that do not sum exactly.
            let n = 1 + next(40) as usize;
            let mut spans: Vec<(f64, f64)> = Vec::with_capacity(n);
            for _ in 0..n {
                let span = match spans.len() {
                    len if len > 0 && next(4) == 0 => spans[next(len as u64) as usize],
                    _ => {
                        let release = next(12) as f64;
                        let deadline = release + 1.0 + next(6) as f64;
                        (
                            release + JITTER[next(6) as usize],
                            deadline + JITTER[next(6) as usize],
                        )
                    }
                };
                spans.push(span);
            }
            let weights: Vec<f64> = (0..n)
                .map(|_| match case % 2 {
                    0 => 1.0 + next(3) as f64,
                    _ => (1 + next(1000)) as f64 / 7.0,
                })
                .collect();
            // Plain containment, as YDS and the (P1) repair ask for it, and
            // containment up to some blocked time, as phase 1 of
            // Most-Critical-First does.
            let mut avail = TimeAvailability::new();
            for _ in 0..next(5) {
                let start = next(16) as f64 + JITTER[next(6) as usize];
                avail.block(start, start + 1.0 + next(3) as f64);
            }
            type Test<'a> = &'a dyn Fn((f64, f64), f64) -> bool;
            let predicates: [(Test, Test); 2] = [
                (
                    &|(release, _), a| release >= a - 1e-12,
                    &|(_, deadline), b| deadline <= b + 1e-12,
                ),
                (
                    &|(r, d), a| avail.available_between(r, a.min(d)) < 1e-9,
                    &|(r, d), b| avail.available_between(b.max(r), d) < 1e-9,
                ),
            ];
            for (starts_at, ends_by) in predicates {
                let scan = IntervalScan::new(&spans, starts_at, ends_by);
                let table = ExhaustiveTable::new(&scan, &spans, starts_at, ends_by);
                assert!(table.meets_the_contract(), "case {case}");
                let points = scan.points();
                let mut bounds = Vec::new();
                for ia in 0..points.len() {
                    scan.work_bounds(ia, &weights, &mut bounds);
                    assert_eq!(bounds, table.work_bounds(ia, &weights), "case {case}");
                    for ib in ia..points.len() {
                        assert_eq!(
                            scan.within(ia, ib).collect::<Vec<_>>(),
                            table.within(ia, ib),
                            "case {case}: [{}, {}]",
                            points[ia],
                            points[ib]
                        );
                    }
                }
                let available = |a, b| avail.available_between(a, b);
                // The two callers' closures, and one that rejects a start.
                let or_none = |w: f64, a, b| (available(a, b) > 1e-12).then(|| w / available(a, b));
                let or_infinity = |w: f64, a, b| {
                    Some(if available(a, b) > 1e-12 {
                        w / available(a, b)
                    } else {
                        f64::INFINITY
                    })
                };
                let late_only = |w: f64, a: f64, b: f64| (a >= 3.0).then(|| w / (b - a));
                assert_eq!(
                    scan.densest(&weights, or_none),
                    table.densest(points, &weights, or_none),
                    "case {case}"
                );
                assert_eq!(
                    scan.densest(&weights, or_infinity),
                    table.densest(points, &weights, or_infinity),
                    "case {case}"
                );
                assert_eq!(
                    scan.densest(&weights, late_only),
                    table.densest(points, &weights, late_only),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn densest_never_sums_an_interval_its_bound_rules_out() {
        // [0,1] holds 100 in length 1; [0,10] holds 101 in length 10 and is
        // met second: its bound, 101 and a little, already loses, so the
        // exact 101 is never asked about.
        let scan = IntervalScan::new(
            &[(0.0, 1.0), (0.0, 10.0)],
            |(release, _), a| release >= a - 1e-12,
            |(_, deadline), b| deadline <= b + 1e-12,
        );
        let mut asked = Vec::new();
        let best = scan.densest(&[100.0, 1.0], |work, a, b| {
            asked.push(work);
            Some(work / (b - a))
        });
        assert_eq!(best, Some((100.0, 0.0, 1.0)));
        assert!(
            asked.contains(&100.0) && !asked.contains(&101.0),
            "{asked:?}"
        );
        assert!(asked.iter().any(|&w| w > 101.0 && w < 101.001), "{asked:?}");
    }
}
