//! **Most-Critical-First** — the paper's combinatorial algorithm for DCFS
//! (paper Algorithm 1, Section III).
//!
//! DCFS fixes the routing path of every flow and asks for transmission rates
//! and timing of minimum energy. The paper shows (Lemmas 1–2) that the
//! optimal schedule gives every flow a single constant rate, as small as
//! deadlines allow, and that the problem reduces to a variant of the
//! Yao–Demers–Shenker single-processor speed-scaling problem on *virtual
//! weights* `w'_i = w_i * |P_i|^(1/alpha)`:
//!
//! The implementation runs in two phases.
//!
//! **Phase 1 — rates** (the paper's critical-interval recursion):
//! repeatedly find the pair (link `e`, interval `[a, b]`) maximising the
//! intensity `delta` = sum of virtual weights of the unscheduled flows on
//! `e` contained in `[a, b]`, divided by the available time of `e` in
//! `[a, b]`; fix the rates of those flows to `delta / |P_i|^(1/alpha)`
//! (Theorem 1 / Eq. 13); mark the occupied time unavailable; repeat.
//!
//! **Phase 2 — timing**: with every rate fixed, each link independently
//! packs the transmissions of its flows (processing time `w_i / s_i`,
//! inside `[r_i, d_i]`) with preemptive EDF. This matches the
//! packet-switched, priority-based realisation the paper describes at the
//! end of Section III: links serialise flows independently and buffer data
//! between hops, so a flow does not need a simultaneous free window on its
//! whole path (the literal cut-through reading of Algorithm 1 can deadlock
//! on dense instances). Before packing, one sweep over the links raises
//! the rates of the flows of every interval whose transmission times
//! overflow it (program (P1)), just enough for them to fit; only if a flow
//! then gets no time at all does the algorithm report
//! [`SolveError::Infeasible`].
//!
//! Theorem 1 / Corollary 1 of the paper prove the phase-1 rates optimal for
//! DCFS in the paper's model, where a link serves one flow at a time (hence
//! the virtual weights). The energy this crate prices lets flows share a
//! link concurrently (`x_e(t)` is the sum of their rates), and under it
//! Most-Critical-First is optimal on a single link only, where it is YDS
//! (`single_link_instance_matches_yds`). On `line(3)` under `x^2`, flows
//! A→C and A→B on `[0, 1]` with volume 1 cost `3 + 2√2 ≈ 5.828` here, where
//! Random-Schedule finds a verified `5.0`.
//!
//! Phase 2's raises are routine: phase 1 blocks a critical interval on the
//! critical link only, so another link of the same flows later prices its
//! intervals as if those flows took none of its time. On the `offline_dcfs`
//! instances (fat-tree k=8, 800 flows, seeds 1–4) the sweep raises 200,
//! 192, 240 and 269 intervals per solve.
//!
//! **Cost.** Phase 1's critical-interval search and phase 2's (P1) repair
//! range over every interval `[a, b]` between two of a link's `P`
//! endpoints. [`dcn_solver::IntervalScan`] reads containment off two
//! binary-searched boundaries per flow (`starts_in_available` says why
//! phase 1's tests allow it) and bounds the sums over `[a, b]` for every `b`
//! from one running sum. An interval's flows are summed only when its bound
//! can beat the incumbent or overflow the room, and then in list order, as
//! a filter over the whole list adds them: the `1e-15` tie-break and the
//! `1e-9` repair threshold see the rounding, and the bounds' slack covers
//! their own (`dcn_solver::availability`). The sweep leaves a start `a` once
//! the bound over every flow released from `a` on fits (a later, wider `b`
//! only has more room), and re-divides `volume / rate` only for flows whose
//! rate it has just raised. A scan costs `O(P^2)` interval steps, so phase 1
//! scans a link only while its ceiling is not below the best candidate seen
//! so far (next paragraphs); one sort of each link's `2P` endpoints gives
//! every link a ceiling before round 1. On the `offline_dcfs` instances
//! (seeds 1–4) round 1 then scans 24 of the 336 links that carry flows,
//! 1575–1613 of their 4524–4574 flow incidences, where a ceiling of `+∞`
//! scanned every link.
//!
//! Phase 1 is lazy in the same way across links. A link is *dirty* until
//! its first refresh and again once a flow on it has been fixed elsewhere,
//! and a dirty link carries a *ceiling* on the intensity its next refresh
//! can find. A round starts from the best up-to-date candidate, refreshes a
//! dirty link only if its ceiling is not below the best candidate seen so
//! far, and takes the maximum over up-to-date candidates only; a link left
//! dirty could neither win nor tie, so the selected `(link, intensity,
//! start, end)` sequence is that of refreshing every dirty link every
//! round. A link without flows starts up to date, without a candidate.
//!
//! *Until its first refresh* a link's ceiling is the peak of its AVR speed
//! (Yao, Demers and Shenker, FOCS 1995), `ρ(t) = Σ w'_i / (d_i − r_i)` over
//! its flows whose span covers `t`, taken in one sorted sweep. On a link
//! with empty availability the containment tests below admit a flow into
//! `[a, b]` only if `r_i > a − ε` and `d_i < b + ε` exactly (`ε = 1e-9`; a
//! rounded difference below a representable bound is below it unrounded).
//! Each contained span thus lies in `[a − ε, b + ε]`, so the work of `[a,
//! b]` is at most `∫_{a−ε}^{b+ε} ρ ≤ (b − a + 2ε)·peak`, and each is
//! shorter than `b − a + 2ε`, so `b − a > s − 2ε` for the link's shortest
//! span `s`: no interval is denser than `peak·(1 + 2ε/(s − 2ε))`. When `s`
//! is not above `2ε` (with a `1e-12` relative margin for its rounding) the
//! ceiling is `+∞`. `AVR_SLACK` covers the rest of the rounding: the
//! sweep's `2n` additions of rounded densities and the scan's in-order sum
//! and division, each `O(n·u)` relative (`n` flows on the link, `u =
//! 2^-53`). The bound holds until the link's first refresh: only the
//! critical link is ever blocked, and it was up to date, so a link never
//! refreshed still has empty availability; and a flow fixed elsewhere only
//! lowers `ρ` and only lengthens the shortest remaining span.
//!
//! *After a refresh* the ceiling is the link's last intensity, because a
//! dirty link only lost flows at unchanged availability (every interval
//! sums a subset of the same positive weights in the same order over the
//! same time, and rounded addition and division are monotone). The link
//! whose critical interval was just blocked lost *available time* and is
//! always refreshed. `STALE_SLACK` plus an absolute `1e-15` cover two soft
//! spots of this ceiling: the scan's `1e-15` tie-break, and an endpoint
//! replaced by one less than `1e-12` away when the flows that left take it
//! with them (the scan's dedup), which moves an intensity by under `1e-12 /
//! available` relative — below `STALE_SLACK` for any interval with more
//! than a thousandth of a time unit left, and zero where endpoints coincide
//! exactly or not at all. On the `offline_dcfs` instances (seeds 1–3) phase
//! 1 makes 679, 667 and 674 refreshes per solve; starting every link dirty
//! at `+∞`, the 432 without flows included, it made 1417, 1406 and 1401.
//!
//! **One repair sweep is enough.** A raise multiplies the rates of an
//! overflowing interval's flows by `(total / capacity_time)·(1 + 1e-12)`,
//! leaving its sum at `capacity_time / (1 + 1e-12)` up to `(2n + 6)·u`
//! relative rounding (`u = 2^-53`, `n` flows on the link): below the
//! `room = capacity_time·(1 + 1e-9)` it is checked against for fewer than
//! four million flows. A raise only shrinks transmission times, on every
//! link of the raised flows, and rounded division and in-order addition are
//! monotone, so no interval's sum grows after the sweep checked it or its
//! bound skipped it. A second sweep would raise nothing (0 times on the
//! seeds above; `tests/critical_interval.rs` asserts it of its multi-pass
//! reference in every differential case).
//!
//! The maximum-rate constraint is intentionally ignored (the paper relaxes
//! it for DCFS); [`crate::schedule::Schedule::verify_on`] reports capacity
//! violations separately if callers care.

use crate::error::SolveError;
use crate::schedule::{FlowSchedule, Schedule};
use dcn_flow::{FlowId, FlowSet};
use dcn_power::{PowerFunction, RateProfile};
use dcn_solver::{IntervalScan, TimeAvailability};
use dcn_topology::{LinkId, Network, Path};
use std::collections::BTreeMap;

/// Relative slack on the ceiling a dirty link's last intensity puts on its
/// next one (module docs, "Phase 1 is lazy"): a link is left unrefreshed
/// only if its ceiling, inflated by this much and by `1e-15`, is still below
/// the best up-to-date candidate. A larger value costs a few more refreshes
/// per round and nothing else.
const STALE_SLACK: f64 = 1e-9;

/// How far a span may reach past `[a, b]` and still count as contained in
/// it, at both ends ([`starts_in_available`], [`ends_in_available`]); the
/// `ε` of a link's AVR ceiling (module docs).
const CONTAINMENT_TOL: f64 = 1e-9;

/// Relative slack on a link's AVR ceiling for the rounding the proof does
/// not see (module docs): `(3n + 8)·u` stays below it for links of up to a
/// million flows, far beyond where a scan over `P^2 / 2` intervals is
/// practical.
const AVR_SLACK: f64 = 1e-9;

/// Runs Most-Critical-First on a DCFS instance.
///
/// `paths[i]` must be the routing path of the flow with id `i`. The returned
/// schedule gives every flow a single constant rate (Lemma 1). It is optimal
/// for DCFS where a link serves one flow at a time (Corollary 1); under the
/// energy this crate prices, on a single link only (module docs).
///
/// # Errors
///
/// * [`SolveError::PathCountMismatch`] / [`SolveError::PathMismatch`] when the
///   supplied paths do not match the flows.
/// * [`SolveError::Infeasible`] when the exclusive (virtual-circuit)
///   occupation of links leaves some flow without available time.
pub fn most_critical_first(
    network: &Network,
    flows: &FlowSet,
    paths: &[Path],
    power: &PowerFunction,
) -> Result<Schedule, SolveError> {
    if paths.len() != flows.len() {
        return Err(SolveError::PathCountMismatch {
            flows: flows.len(),
            paths: paths.len(),
        });
    }
    for flow in flows.iter() {
        let p = &paths[flow.id];
        if p.source() != flow.src || p.destination() != flow.dst {
            return Err(SolveError::PathMismatch { flow: flow.id });
        }
    }
    let _ = network; // the topology is implicit in the paths

    if flows.is_empty() {
        return Ok(Schedule::new(Vec::new(), (0.0, 0.0)));
    }
    let horizon = flows.horizon();
    let alpha = power.alpha();

    // Virtual weights w'_i = w_i * |P_i|^(1/alpha).
    let virtual_weight: Vec<f64> = flows
        .iter()
        .map(|f| f.volume * (paths[f.id].len() as f64).powf(1.0 / alpha))
        .collect();

    // Per-link state, indexed by link id. The flow lists are never edited:
    // phase 1 reads them through the `remaining` mask, phase 2 whole.
    let link_count = paths
        .iter()
        .flat_map(|p| p.links())
        .map(|l| l.index() + 1)
        .max()
        .unwrap_or(0);
    let mut link_flows: Vec<Vec<FlowId>> = vec![Vec::new(); link_count];
    for flow in flows.iter() {
        for &l in paths[flow.id].links() {
            link_flows[l.index()].push(flow.id);
        }
    }
    let mut availability = vec![TimeAvailability::new(); link_count];

    let mut remaining: Vec<bool> = vec![true; flows.len()];
    let mut remaining_count = flows.len();
    let mut rates: Vec<f64> = vec![0.0; flows.len()];

    // Densest `(intensity, start, end)` per link. `ceiling[l]` is the
    // intensity of that candidate (`-inf` without one) while the link is up
    // to date, and an upper bound on its next one while it is dirty: its AVR
    // ceiling until its first refresh (module docs).
    let mut candidates: Vec<Option<(f64, f64, f64)>> = vec![None; link_count];
    let mut dirty: Vec<bool> = link_flows.iter().map(|list| !list.is_empty()).collect();
    let mut ceiling: Vec<f64> = link_flows
        .iter()
        .map(|list| {
            if list.is_empty() {
                f64::NEG_INFINITY
            } else {
                avr_ceiling(flows, list, &virtual_weight)
            }
        })
        .collect();

    // Whether up-to-date link `l` is a better critical link than `best`:
    // higher intensity, then lower link id.
    let leads = |ceiling: &[f64], l: usize, best: Option<usize>| {
        best.is_none_or(|b| ceiling[l] > ceiling[b] || (ceiling[l] == ceiling[b] && l < b))
    };

    // Phase 1: fix the transmission rate of every flow.
    while remaining_count > 0 {
        // Global critical interval: the best up-to-date link first, then the
        // dirty links that could still beat or tie the best seen so far,
        // refreshed and compared as they come.
        let mut best = None;
        for l in (0..link_count).filter(|&l| !dirty[l]) {
            if leads(&ceiling, l, best) {
                best = Some(l);
            }
        }
        for l in 0..link_count {
            let hopeless = |b: usize| ceiling[l] * (1.0 + STALE_SLACK) + 1e-15 < ceiling[b];
            if !dirty[l] || best.is_some_and(hopeless) {
                continue;
            }
            dirty[l] = false;
            candidates[l] = best_candidate_on_link(
                flows,
                &link_flows[l],
                &remaining,
                &virtual_weight,
                &availability[l],
            );
            ceiling[l] = candidates[l].map_or(f64::NEG_INFINITY, |(intensity, ..)| intensity);
            if leads(&ceiling, l, best) {
                best = Some(l);
            }
        }
        let critical = best.expect("a flow remains, and its path has a link");
        let Some((intensity, start, end)) = candidates[critical] else {
            // The best link has no candidate, so none has (and none is left
            // dirty), but flows remain: they have no available time left on
            // some link.
            let link = link_flows
                .iter()
                .position(|list| list.iter().any(|&id| remaining[id]))
                .unwrap_or(critical);
            return Err(SolveError::Infeasible { link: LinkId(link) });
        };
        if !intensity.is_finite() {
            return Err(SolveError::Infeasible {
                link: LinkId(critical),
            });
        }

        // Flows of the critical interval on the critical link: their whole
        // remaining (available) span lies inside the interval.
        let critical_avail = &mut availability[critical];
        let selected: Vec<FlowId> = link_flows[critical]
            .iter()
            .copied()
            .filter(|&id| {
                let span = flows.flow(id).span();
                remaining[id]
                    && starts_in_available(span, start, critical_avail)
                    && ends_in_available(span, end, critical_avail)
            })
            .collect();
        if selected.is_empty() {
            // A critical interval without flows would block time, fix no
            // rate and come back for ever.
            return Err(SolveError::Infeasible {
                link: LinkId(critical),
            });
        }

        for &id in &selected {
            let hops = paths[id].len() as f64;
            // Rate of the flow from the critical intensity (Theorem 1 / Eq. 13).
            rates[id] = intensity / hops.powf(1.0 / alpha);

            remaining[id] = false;
            remaining_count -= 1;
            for &l in paths[id].links() {
                dirty[l.index()] = true;
            }
        }

        // Consume the critical interval on the critical link (the classical
        // YDS removal step, expressed as blocked time).
        for (s, e) in critical_avail.available_subintervals(start, end) {
            critical_avail.block(s, e);
        }
        // Less available time can raise intensities: no ceiling survives.
        dirty[critical] = true;
        ceiling[critical] = f64::INFINITY;
    }

    // Phase 2: one (P1) repair sweep over the links, then per-link
    // preemptive EDF packing at the final rates.
    let mut link_profiles = pack_links(flows, &link_flows, &mut rates)?;

    let flow_schedules = flows
        .iter()
        .map(|f| {
            let path = &paths[f.id];
            let per_link = std::mem::take(&mut link_profiles[f.id]);
            // Nominal (destination-arrival) profile: the profile on the last
            // link of the path.
            let nominal = path
                .links()
                .last()
                .and_then(|l| per_link.get(l).cloned())
                .unwrap_or_default();
            FlowSchedule::per_link(f.id, path.clone(), nominal, per_link)
        })
        .collect();
    Ok(Schedule::new(flow_schedules, horizon))
}

/// Phase 2: turn the fixed rates into an explicit, feasible per-link timing:
/// one (P1) repair sweep over the links (module docs), then preemptive EDF
/// packing of every link at the final rates, which meets every deadline.
///
/// `link_flows[l]` lists the flows on link `l`. Returns, per flow, its
/// transmission profile on every link of its path.
fn pack_links(
    flows: &FlowSet,
    link_flows: &[Vec<FlowId>],
    rates: &mut [f64],
) -> Result<Vec<BTreeMap<LinkId, RateProfile>>, SolveError> {
    use dcn_solver::yds::{edf_schedule, Job};

    // Repair sweep: wherever the transmission times of the flows contained
    // in an interval of a link exceed it (program (P1)), scale the rates of
    // those flows up just enough to restore the condition.
    let mut bounds = Vec::new();
    for flow_ids in link_flows.iter().filter(|list| !list.is_empty()) {
        let spans: Vec<(f64, f64)> = flow_ids.iter().map(|&id| flows.flow(id).span()).collect();
        let scan = IntervalScan::new(
            &spans,
            |(release, _), a| release >= a - 1e-12,
            |(_, deadline), b| deadline <= b + 1e-12,
        );
        // Transmission time of each flow on this link at its current rate.
        let mut time: Vec<f64> = flow_ids
            .iter()
            .map(|&id| flows.flow(id).volume / rates[id])
            .collect();
        for (ia, &a) in scan.points().iter().enumerate() {
            scan.work_bounds(ia, &time, &mut bounds);
            for (ib, &b) in scan.points().iter().enumerate().skip(ia + 1) {
                let capacity_time = b - a;
                let room = capacity_time * (1.0 + 1e-9);
                if bounds.last().is_some_and(|&all| all <= room) {
                    // Every flow released from `a` on fits here, so any
                    // of them fit every later (wider) b.
                    break;
                }
                if bounds[ib] <= room {
                    continue;
                }
                let total: f64 = scan.within(ia, ib).map(|i| time[i]).sum();
                if total > room {
                    let factor = total / capacity_time;
                    for i in scan.within(ia, ib) {
                        let id = flow_ids[i];
                        rates[id] *= factor * (1.0 + 1e-12);
                        time[i] = flows.flow(id).volume / rates[id];
                    }
                    scan.work_bounds(ia, &time, &mut bounds);
                }
            }
        }
    }

    // Per-link EDF packing at the final rates.
    let mut result: Vec<BTreeMap<LinkId, RateProfile>> = vec![BTreeMap::new(); flows.len()];
    for (link, flow_ids) in link_flows.iter().enumerate() {
        if flow_ids.is_empty() {
            continue;
        }
        let link = LinkId(link);
        // Jobs processed at unit speed whose work is the transmission time
        // of the flow on this link.
        let jobs: Vec<Job> = flow_ids
            .iter()
            .map(|&id| {
                let f = flows.flow(id);
                Job::new(id, f.release, f.deadline, f.volume / rates[id])
            })
            .collect();
        let horizon_start = jobs.iter().map(|j| j.release).fold(f64::INFINITY, f64::min);
        let horizon_end = jobs
            .iter()
            .map(|j| j.deadline)
            .fold(f64::NEG_INFINITY, f64::max);
        let placements = edf_schedule(&jobs, 1.0, &[(horizon_start, horizon_end)]);

        for placement in placements {
            let id = placement.id;
            let flow = flows.flow(id);
            let needed = flow.volume / rates[id];
            // Time the placement spends inside the flow's span.
            let inside: f64 = placement
                .windows
                .iter()
                .map(|&(s, e)| (e.min(flow.deadline) - s.max(flow.release)).max(0.0))
                .sum();
            if inside + 1e-6 * needed.max(1.0) < needed {
                // Cannot happen when the per-link YDS rates are respected;
                // report the link rather than panic if numerics misbehave.
                return Err(SolveError::Infeasible { link });
            }
            let mut profile = RateProfile::new();
            for &(s, e) in &placement.windows {
                let s = s.max(flow.release);
                let e = e.min(flow.deadline);
                if e > s {
                    profile.add_rate(s, e, rates[id]);
                }
            }
            result[id].insert(link, profile);
        }
    }
    Ok(result)
}

/// A span lies in `[a, b]` on a link when its *available* part does — the
/// containment notion the critical interval uses once earlier critical
/// intervals have been removed (equivalent to the time-contraction step of
/// classical YDS). This half: no available time of the span precedes `a`.
///
/// [`IntervalScan`] needs this test true on a prefix of the endpoints (and
/// its mirror [`ends_in_available`] on a suffix). The exact available time
/// `A(x)` of `[release, x)`, `x = min(a, deadline)`, never falls as `a`
/// grows. The computed `(x − release) − blocked` has both terms
/// non-decreasing in floating point, but their difference can fall by an
/// ulp inside a blocked stretch. It stays within `ε = (k + 2)·u·(deadline −
/// release)` of `A` (`k` blocked intervals, `u = 2^-53`), so the test can
/// turn true again only where `A` is within `ε` of `1e-9`: `ε < 1.2e-10` for
/// spans under `1e3` with under `1e3` blocked intervals, and as `A` sums
/// gaps between flow endpoints, it takes two endpoints about `1e-9` apart.
/// There the scan reads one switch, where its binary search meets it.
fn starts_in_available((release, deadline): (f64, f64), a: f64, avail: &TimeAvailability) -> bool {
    avail.available_between(release, a.min(deadline)) < CONTAINMENT_TOL
}

/// The other half: no available time of the span follows `b`.
fn ends_in_available((release, deadline): (f64, f64), b: f64, avail: &TimeAvailability) -> bool {
    avail.available_between(b.max(release), deadline) < CONTAINMENT_TOL
}

/// A link's AVR ceiling: `peak·(1 + 2ε/(s − 2ε))·(1 + AVR_SLACK)`, `peak`
/// being the largest sum of the densities `w'_i / (d_i − r_i)` of the
/// flows in `flows_on_link` (non-empty) whose spans overlap, and `s` their
/// shortest span; `+∞` when `s` is not above `2ε`. It bounds every
/// intensity [`best_candidate_on_link`] finds over any subset of those
/// flows while the link has no blocked time (module docs).
fn avr_ceiling(flows: &FlowSet, flows_on_link: &[FlowId], virtual_weight: &[f64]) -> f64 {
    let mut shortest = f64::INFINITY;
    let mut events = Vec::with_capacity(2 * flows_on_link.len());
    for &id in flows_on_link {
        let (release, deadline) = flows.flow(id).span();
        let span = deadline - release;
        shortest = shortest.min(span);
        let density = virtual_weight[id] / span;
        events.push((release, density));
        events.push((deadline, -density));
    }
    // The rounded shortest span may exceed the exact one by half an ulp.
    let gap = shortest * (1.0 - 1e-12) - 2.0 * CONTAINMENT_TOL;
    if gap <= 0.0 {
        return f64::INFINITY;
    }
    // At a shared instant, the flows that end leave before the others start.
    events.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
    let (mut speed, mut peak) = (0.0, 0.0_f64);
    for (_, change) in events {
        speed += change;
        peak = peak.max(speed);
    }
    peak * (1.0 + 2.0 * CONTAINMENT_TOL / gap) * (1.0 + AVR_SLACK)
}

/// The maximum-intensity interval `(intensity, start, end)` on one link, over
/// the flows that remain on it.
fn best_candidate_on_link(
    flows: &FlowSet,
    flows_on_link: &[FlowId],
    remaining: &[bool],
    virtual_weight: &[f64],
    availability: &TimeAvailability,
) -> Option<(f64, f64, f64)> {
    #[cfg(test)]
    tests::REFRESHES.with(|n| n.set(n.get() + 1));
    let (spans, weights): (Vec<(f64, f64)>, Vec<f64>) = flows_on_link
        .iter()
        .filter(|&&id| remaining[id])
        .map(|&id| (flows.flow(id).span(), virtual_weight[id]))
        .unzip();
    IntervalScan::new(
        &spans,
        |span, a| starts_in_available(span, a, availability),
        |span, b| ends_in_available(span, b, availability),
    )
    .densest(&weights, |work, a, b| {
        // Without available time nothing can be placed here any more; the
        // contained flows' remaining spans are empty only if they were
        // already scheduled, so skip the degenerate interval.
        let available = availability.available_between(a, b);
        (available > 1e-12).then(|| work / available)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Routing;
    use dcn_flow::workload::UniformWorkload;
    use dcn_solver::yds::Job;
    use dcn_topology::{builders, NodeId};
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::cell::Cell;

    thread_local! {
        /// Calls of `best_candidate_on_link` on this thread: phase 1's link
        /// refreshes.
        pub(super) static REFRESHES: Cell<usize> = const { Cell::new(0) };
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    /// Unlimited-capacity quadratic power function (the paper's `x^2`).
    fn x2() -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, 2.0, 1e9)
    }

    /// The paper's Example 1: line A-B-C, f(x) = x^2, two flows.
    fn example1() -> (builders::BuiltTopology, FlowSet, Vec<Path>) {
        let topo = builders::line_with_capacity(3, 1e9);
        let (a, b, c) = (topo.hosts()[0], topo.hosts()[1], topo.hosts()[2]);
        let flows = FlowSet::from_tuples([
            (a, c, 2.0, 4.0, 6.0), // j1
            (a, b, 1.0, 3.0, 8.0), // j2
        ])
        .unwrap();
        let paths = Routing::ShortestPath
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        (topo, flows, paths)
    }

    #[test]
    fn example1_matches_the_paper_closed_form() {
        let (topo, flows, paths) = example1();
        let schedule = most_critical_first(&topo.network, &flows, &paths, &x2()).unwrap();
        schedule.verify_on(&topo.csr(), &flows, &x2()).unwrap();

        // Paper: sqrt(2) * s1 = s2 = (8 + 6 sqrt 2) / 3.
        let s2_expected = (8.0 + 6.0 * 2f64.sqrt()) / 3.0;
        let s1_expected = s2_expected / 2f64.sqrt();
        let s1 = schedule.flow_schedule(0).unwrap().profile.max_rate();
        let s2 = schedule.flow_schedule(1).unwrap().profile.max_rate();
        assert!(close(s1, s1_expected), "s1 = {s1}, expected {s1_expected}");
        assert!(close(s2, s2_expected), "s2 = {s2}, expected {s2_expected}");

        // Objective Phi = 2 * 6 * s1 + 8 * s2 (for alpha = 2).
        let expected_energy = 2.0 * 6.0 * s1_expected + 8.0 * s2_expected;
        let energy = schedule.energy(&x2()).total();
        assert!(
            close(energy, expected_energy),
            "energy {energy} vs {expected_energy}"
        );
    }

    #[test]
    fn single_flow_runs_at_its_density() {
        let topo = builders::line_with_capacity(4, 1e9);
        let flows =
            FlowSet::from_tuples([(topo.hosts()[0], topo.hosts()[3], 1.0, 5.0, 8.0)]).unwrap();
        let paths = Routing::ShortestPath
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        let schedule = most_critical_first(&topo.network, &flows, &paths, &x2()).unwrap();
        schedule.verify_on(&topo.csr(), &flows, &x2()).unwrap();
        let rate = schedule.flow_schedule(0).unwrap().profile.max_rate();
        assert!(close(rate, 2.0), "a lone flow transmits at its density");
    }

    #[test]
    fn disjoint_flows_keep_their_densities() {
        // Two flows that share no link run independently at their densities.
        let topo = builders::fat_tree(4);
        let big = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
        let h = topo.hosts();
        let flows = FlowSet::from_tuples([
            (h[0], h[1], 0.0, 4.0, 8.0),   // same edge switch, density 2
            (h[14], h[15], 0.0, 2.0, 6.0), // same edge switch, density 3
        ])
        .unwrap();
        let paths = Routing::ShortestPath
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        assert!(paths[0].links().iter().all(|l| !paths[1].contains_link(*l)));
        let schedule = most_critical_first(&topo.network, &flows, &paths, &big).unwrap();
        assert!(close(
            schedule.flow_schedule(0).unwrap().profile.max_rate(),
            2.0
        ));
        assert!(close(
            schedule.flow_schedule(1).unwrap().profile.max_rate(),
            3.0
        ));
    }

    #[test]
    fn single_link_instance_matches_yds() {
        // All flows between the same adjacent pair of hosts: |P| = 1, so
        // Most-Critical-First degenerates to YDS on the raw volumes.
        let topo = builders::line_with_capacity(2, 1e9);
        let (a, b) = (topo.hosts()[0], topo.hosts()[1]);
        let flows = FlowSet::from_tuples([
            (a, b, 0.0, 4.0, 6.0),
            (a, b, 1.0, 3.0, 4.0),
            (a, b, 2.0, 8.0, 5.0),
        ])
        .unwrap();
        let paths = Routing::ShortestPath
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        let schedule = most_critical_first(&topo.network, &flows, &paths, &x2()).unwrap();
        schedule.verify_on(&topo.csr(), &flows, &x2()).unwrap();

        let jobs: Vec<Job> = flows
            .iter()
            .map(|f| Job::new(f.id, f.release, f.deadline, f.volume))
            .collect();
        let yds = dcn_solver::yds_schedule(&jobs);
        assert!(close(schedule.energy(&x2()).total(), yds.energy(&x2())));
    }

    #[test]
    fn deadlines_met_on_random_fat_tree_workloads() {
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
        let graph = topo.csr();
        for seed in 0..5 {
            let flows = UniformWorkload::paper_defaults(40, seed)
                .generate(topo.hosts())
                .unwrap();
            let paths = Routing::ShortestPath.compute_on(&graph, &flows).unwrap();
            let schedule = most_critical_first(&topo.network, &flows, &paths, &power).unwrap();
            schedule
                .verify_on(&graph, &flows, &power)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn alpha_changes_the_virtual_weights_but_not_feasibility() {
        let (topo, flows, paths) = example1();
        for alpha in [1.5, 2.0, 3.0, 4.0] {
            let power = PowerFunction::speed_scaling_only(1.0, alpha, 1e9);
            let schedule = most_critical_first(&topo.network, &flows, &paths, &power).unwrap();
            schedule.verify_on(&topo.csr(), &flows, &power).unwrap();
        }
    }

    #[test]
    fn higher_alpha_never_lowers_energy_of_same_instance() {
        // With mu = 1 and rates above 1, x^4 costs more than x^2.
        let (topo, flows, paths) = example1();
        let e2 = most_critical_first(&topo.network, &flows, &paths, &x2())
            .unwrap()
            .energy(&x2())
            .total();
        let x4 = PowerFunction::speed_scaling_only(1.0, 4.0, 1e9);
        let e4 = most_critical_first(&topo.network, &flows, &paths, &x4)
            .unwrap()
            .energy(&x4)
            .total();
        assert!(e4 > e2);
    }

    #[test]
    fn path_count_mismatch_is_reported() {
        let (topo, flows, paths) = example1();
        let err = most_critical_first(&topo.network, &flows, &paths[..1], &x2()).unwrap_err();
        assert_eq!(err, SolveError::PathCountMismatch { flows: 2, paths: 1 });
    }

    #[test]
    fn wrong_path_endpoints_are_reported() {
        let (topo, flows, mut paths) = example1();
        paths.swap(0, 1);
        let err = most_critical_first(&topo.network, &flows, &paths, &x2()).unwrap_err();
        assert!(matches!(err, SolveError::PathMismatch { .. }));
    }

    #[test]
    fn empty_instance_yields_empty_schedule() {
        let topo = builders::line(3);
        let flows = FlowSet::from_flows(vec![]).unwrap();
        let schedule = most_critical_first(&topo.network, &flows, &[], &x2()).unwrap();
        assert!(schedule.is_empty());
        assert_eq!(schedule.energy(&x2()).total(), 0.0);
    }

    #[test]
    fn energy_is_never_better_than_single_flow_lower_bound() {
        // Each flow in isolation costs at least |P_i| * mu * w_i * D_i^(alpha-1)
        // (Lemma 2); the schedule of the whole instance can only cost more.
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);
        let flows = UniformWorkload::paper_defaults(30, 9)
            .generate(topo.hosts())
            .unwrap();
        let paths = Routing::ShortestPath
            .compute_on(&topo.csr(), &flows)
            .unwrap();
        let schedule = most_critical_first(&topo.network, &flows, &paths, &power).unwrap();
        let lower: f64 = flows
            .iter()
            .map(|f| paths[f.id].len() as f64 * power.dynamic_power(f.density()) * f.span_length())
            .sum();
        assert!(schedule.energy(&power).total() >= lower - 1e-6);
    }

    #[test]
    fn the_avr_ceiling_bounds_the_first_refresh() {
        // Spans near 2ε, endpoints 1e-12 apart and repeated weights, at
        // offsets where an ulp is far below and near 1e-12.
        let mut finite = 0;
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = [0.0, 1.0, 1e3][seed as usize % 3];
            let n = rng.gen_range(1..12);
            let mut tuples = Vec::new();
            for _ in 0..n {
                let release = base
                    + f64::from(rng.gen_range(0..6)) * 1e-9
                    + f64::from(rng.gen_range(-2..3)) * 1e-12;
                // One span in twenty is not above 2ε, which makes the
                // ceiling +∞.
                let span = match rng.gen_range(0..20) {
                    0 => 2e-9 + f64::from(rng.gen_range(-2..1)) * 1e-12,
                    1..=5 => 2e-9 + f64::from(rng.gen_range(1..6)) * 1e-12,
                    6..=10 => rng.gen_range(2e-9..6e-9),
                    11..=15 => f64::from(rng.gen_range(3..6)) * 1e-9,
                    _ => rng.gen_range(1e-8..1.0),
                };
                let volume = [1.0, 2.0, rng.gen_range(0.1..3.0)][rng.gen_range(0..3usize)];
                tuples.push((NodeId(0), NodeId(1), release, release + span, volume));
            }
            let flows = FlowSet::from_tuples(tuples).unwrap();
            let weights: Vec<f64> = flows.iter().map(|f| f.volume).collect();
            let ids: Vec<FlowId> = (0..flows.len()).collect();
            let ceiling = avr_ceiling(&flows, &ids, &weights);
            // The whole list, and a subset as a later round leaves it.
            let subset: Vec<bool> = ids.iter().map(|_| rng.gen_bool(0.7)).collect();
            for remaining in [vec![true; ids.len()], subset] {
                let found = best_candidate_on_link(
                    &flows,
                    &ids,
                    &remaining,
                    &weights,
                    &TimeAvailability::new(),
                );
                if let Some((intensity, ..)) = found {
                    assert!(
                        ceiling >= intensity,
                        "seed {seed}: ceiling {ceiling} below intensity {intensity}"
                    );
                    finite += usize::from(ceiling.is_finite());
                }
            }
        }
        assert!(finite > 400, "only {finite} finite ceilings were checked");
    }

    #[test]
    #[ignore = "benchmark-size refresh count; run in release"]
    fn avr_ceilings_halve_the_refreshes_on_the_offline_dcfs_instances() {
        // The `offline_dcfs` instances: `sp-mcf` on fat-tree k = 8 at
        // capacity 100, 800 paper-default flows. Phase 1 made 1417, 1406
        // and 1401 refreshes when every link started dirty at `+∞`.
        let topo = builders::fat_tree_with_capacity(8, 100.0);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
        for (seed, without_ceilings) in [(1, 1417), (2, 1406), (3, 1401)] {
            let flows = UniformWorkload::paper_defaults(800, seed)
                .generate(topo.hosts())
                .unwrap();
            let paths = Routing::ShortestPath
                .compute_on(&topo.csr(), &flows)
                .unwrap();
            REFRESHES.with(|n| n.set(0));
            most_critical_first(&topo.network, &flows, &paths, &power).unwrap();
            let refreshes = REFRESHES.with(Cell::get);
            assert!(
                2 * refreshes <= without_ceilings,
                "seed {seed}: {refreshes} refreshes, {without_ceilings} without ceilings"
            );
        }
    }
}
