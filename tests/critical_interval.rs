//! The critical-interval kernel (`dcn_solver::IntervalScan`) against the
//! brute-force scans it replaced, and Most-Critical-First against the
//! paper's own claims.
//!
//! * **Differential** — `most_critical_first` and `yds_schedule` must equal,
//!   bit for bit (`==` on rates and windows, no tolerance), the pre-kernel
//!   algorithms kept in [`reference`], whose three scans all go through the
//!   one surviving copy of the pairwise scan, [`reference::pairwise_scan`].
//!   The reference repairs (P1) pass after pass and asserts that a second
//!   pass raises nothing, since the product sweeps once. A pinned instance
//!   takes the rate-raising branch of that sweep, so the sweep is not only
//!   ever compared in its no-op form; one
//!   made of ties (`common::tie_heavy_instance`) has per-link lists long
//!   enough, and intensities equal often enough, for the bounds that skip
//!   sums and refreshes to decide something; and the `offline_dcfs`
//!   benchmark's own instances run `#[ignore]`d, in CI's release leg. The
//!   reference packs with its own `edf_schedule`, three scans per step.
//! * **Oracle** — the final rates satisfy program (P1) on every link
//!   (`brute::speeds_feasible`), and on instances small enough to enumerate
//!   the energy is the brute-force optimum (Theorem 1 / Corollary 1).
//!   Uncapped `edf` stays within the AVR bound of YDS on every link.

mod common;

use deadline_dcn::core::online::OnlineEngine;
use deadline_dcn::core::{most_critical_first, Routing, Schedule, SolverContext};
use deadline_dcn::flow::workload::UniformWorkload;
use deadline_dcn::flow::{Flow, FlowSet};
use deadline_dcn::power::PowerFunction;
use deadline_dcn::solver::brute::{brute_force_optimal_energy, speeds_feasible};
use deadline_dcn::solver::{edf_schedule, yds_schedule, Job, JobPlacement};
use deadline_dcn::topology::builders::{self, BuiltTopology};
use deadline_dcn::topology::{LinkId, Path};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The algorithms as they were before the kernel: every `(a, b)` endpoint
/// pair re-decides containment for every item on the list.
mod reference {
    use deadline_dcn::core::{FlowSchedule, Schedule, SolveError};
    use deadline_dcn::flow::{Flow, FlowId, FlowSet};
    use deadline_dcn::power::{PowerFunction, RateProfile};
    use deadline_dcn::solver::{Job, JobPlacement, TimeAvailability};
    use deadline_dcn::topology::{LinkId, Path};
    use std::collections::BTreeMap;

    /// The pairwise scan: calls `visit(a, b, contained)` for every pair
    /// `a < b` of the sorted, `1e-12`-deduplicated endpoints of `spans`, with
    /// the indices of the items for which `contained(i, a, b)` holds, in list
    /// order.
    pub fn pairwise_scan(
        spans: &[(f64, f64)],
        contained: impl Fn(usize, f64, f64) -> bool,
        mut visit: impl FnMut(f64, f64, &[usize]),
    ) {
        let mut points: Vec<f64> = spans.iter().flat_map(|&(r, d)| [r, d]).collect();
        points.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        points.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        for (ia, &a) in points.iter().enumerate() {
            for &b in &points[ia + 1..] {
                let members: Vec<usize> =
                    (0..spans.len()).filter(|&i| contained(i, a, b)).collect();
                visit(a, b, &members);
            }
        }
    }

    fn span_within((release, deadline): (f64, f64), a: f64, b: f64) -> bool {
        release >= a - 1e-12 && deadline <= b + 1e-12
    }

    /// `edf_schedule` with its three scans of the job list per step: the
    /// earliest deadline among the released jobs, and the next release
    /// once with and once without a running job.
    pub fn edf_schedule(jobs: &[Job], speed: f64, slots: &[(f64, f64)]) -> Vec<JobPlacement> {
        let mut remaining: Vec<f64> = jobs.iter().map(|j| j.work).collect();
        let mut windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); jobs.len()];
        for &(slot_start, slot_end) in slots {
            let mut t = slot_start;
            while t < slot_end - 1e-12 {
                let mut candidate: Option<usize> = None;
                for (idx, job) in jobs.iter().enumerate() {
                    if remaining[idx] > 1e-12
                        && job.release <= t + 1e-12
                        && candidate.is_none_or(|best| job.deadline < jobs[best].deadline)
                    {
                        candidate = Some(idx);
                    }
                }
                let Some(idx) = candidate else {
                    let next_release = jobs
                        .iter()
                        .enumerate()
                        .filter(|(idx, j)| remaining[*idx] > 1e-12 && j.release > t)
                        .map(|(_, j)| j.release)
                        .fold(f64::INFINITY, f64::min);
                    if next_release >= slot_end {
                        break;
                    }
                    t = next_release;
                    continue;
                };
                let finish_at = t + remaining[idx] / speed;
                let next_release = jobs
                    .iter()
                    .enumerate()
                    .filter(|(other, j)| {
                        *other != idx && remaining[*other] > 1e-12 && j.release > t + 1e-12
                    })
                    .map(|(_, j)| j.release)
                    .fold(f64::INFINITY, f64::min);
                let run_until = finish_at.min(next_release).min(slot_end);
                if run_until <= t + 1e-15 {
                    break;
                }
                match windows[idx].last_mut() {
                    Some(last) if (last.1 - t).abs() < 1e-12 => last.1 = run_until,
                    _ => windows[idx].push((t, run_until)),
                }
                remaining[idx] -= (run_until - t) * speed;
                t = run_until;
            }
        }
        jobs.iter()
            .zip(windows)
            .map(|(job, windows)| JobPlacement {
                id: job.id,
                speed,
                windows,
            })
            .collect()
    }

    /// Pre-kernel `yds_schedule`; returns the placements.
    pub fn yds_schedule(jobs: &[Job]) -> Vec<JobPlacement> {
        let mut remaining: Vec<Job> = jobs.to_vec();
        let mut avail = TimeAvailability::new();
        let mut placements = Vec::with_capacity(jobs.len());
        while !remaining.is_empty() {
            let spans: Vec<(f64, f64)> =
                remaining.iter().map(|j| (j.release, j.deadline)).collect();
            let mut best: Option<(f64, f64, f64)> = None;
            pairwise_scan(
                &spans,
                |i, a, b| span_within(spans[i], a, b),
                |a, b, members| {
                    let work: f64 = members.iter().map(|&i| remaining[i].work).sum();
                    if work <= 0.0 {
                        return;
                    }
                    let available = avail.available_between(a, b);
                    let intensity = if available > 1e-12 {
                        work / available
                    } else {
                        f64::INFINITY
                    };
                    let better = match best {
                        None => true,
                        Some((bi, ..)) => intensity > bi + 1e-15,
                    };
                    if better {
                        best = Some((intensity, a, b));
                    }
                },
            );
            let (intensity, a, b) = best.expect("a job remains");
            let (critical, rest): (Vec<Job>, Vec<Job>) = remaining
                .into_iter()
                .partition(|j| span_within((j.release, j.deadline), a, b));
            remaining = rest;
            let slots = avail.available_subintervals(a, b);
            placements.extend(edf_schedule(&critical, intensity, &slots));
            for (s, e) in slots {
                avail.block(s, e);
            }
        }
        placements
    }

    fn contained_in_available(flow: &Flow, a: f64, b: f64, avail: &TimeAvailability) -> bool {
        avail.available_between(flow.release, a.min(flow.deadline)) < 1e-9
            && avail.available_between(b.max(flow.release), flow.deadline) < 1e-9
    }

    fn best_candidate_on_link(
        flows: &FlowSet,
        flows_on_link: &[FlowId],
        virtual_weight: &[f64],
        avail: &TimeAvailability,
    ) -> Option<(f64, f64, f64)> {
        let spans: Vec<(f64, f64)> = flows_on_link
            .iter()
            .map(|&id| flows.flow(id).span())
            .collect();
        let mut best: Option<(f64, f64, f64)> = None;
        pairwise_scan(
            &spans,
            |i, a, b| contained_in_available(flows.flow(flows_on_link[i]), a, b, avail),
            |a, b, members| {
                let work: f64 = members
                    .iter()
                    .map(|&i| virtual_weight[flows_on_link[i]])
                    .sum();
                if work <= 0.0 {
                    return;
                }
                let available = avail.available_between(a, b);
                if available <= 1e-12 {
                    return;
                }
                let intensity = work / available;
                let better = match best {
                    None => true,
                    Some((bi, ..)) => intensity > bi + 1e-15,
                };
                if better {
                    best = Some((intensity, a, b));
                }
            },
        );
        best
    }

    /// Pre-kernel `most_critical_first` (valid paths assumed); returns how
    /// many intervals the first pass of the repair sweep raised next to the
    /// schedule, so a test can tell the sweep was not a no-op.
    ///
    /// # Panics
    ///
    /// If a second pass of the sweep raises anything: one sweep is exact.
    pub fn most_critical_first(
        flows: &FlowSet,
        paths: &[Path],
        power: &PowerFunction,
    ) -> Result<(usize, Schedule), SolveError> {
        let alpha = power.alpha();
        let virtual_weight: Vec<f64> = flows
            .iter()
            .map(|f| f.volume * (paths[f.id].len() as f64).powf(1.0 / alpha))
            .collect();
        let mut link_flows: BTreeMap<LinkId, Vec<FlowId>> = BTreeMap::new();
        for flow in flows.iter() {
            for &l in paths[flow.id].links() {
                link_flows.entry(l).or_default().push(flow.id);
            }
        }
        let all_link_flows = link_flows.clone();
        let mut availability: BTreeMap<LinkId, TimeAvailability> = link_flows
            .keys()
            .map(|&l| (l, TimeAvailability::new()))
            .collect();
        let mut remaining = vec![true; flows.len()];
        let mut remaining_count = flows.len();
        let mut rates = vec![0.0; flows.len()];
        let mut candidates: BTreeMap<LinkId, Option<(f64, f64, f64)>> = BTreeMap::new();
        let mut dirty: Vec<LinkId> = link_flows.keys().copied().collect();

        while remaining_count > 0 {
            for link in dirty.drain(..) {
                let cand = best_candidate_on_link(
                    flows,
                    &link_flows[&link],
                    &virtual_weight,
                    &availability[&link],
                );
                candidates.insert(link, cand);
            }
            let (&critical_link, (intensity, start, end)) = candidates
                .iter()
                .filter_map(|(l, c)| c.map(|c| (l, c)))
                .max_by(|a, b| {
                    (a.1 .0)
                        .partial_cmp(&b.1 .0)
                        .expect("intensities are comparable")
                        .then_with(|| b.0.cmp(a.0))
                })
                .expect("a flow remains");
            if !intensity.is_finite() {
                return Err(SolveError::Infeasible {
                    link: critical_link,
                });
            }
            let selected: Vec<FlowId> = link_flows[&critical_link]
                .iter()
                .copied()
                .filter(|&id| {
                    remaining[id]
                        && contained_in_available(
                            flows.flow(id),
                            start,
                            end,
                            &availability[&critical_link],
                        )
                })
                .collect();
            for &id in &selected {
                let hops = paths[id].len() as f64;
                rates[id] = intensity / hops.powf(1.0 / alpha);
                remaining[id] = false;
                remaining_count -= 1;
                for &l in paths[id].links() {
                    if let Some(list) = link_flows.get_mut(&l) {
                        list.retain(|&other| other != id);
                    }
                    if !dirty.contains(&l) {
                        dirty.push(l);
                    }
                }
            }
            let slots = availability[&critical_link].available_subintervals(start, end);
            let avail = availability.get_mut(&critical_link).expect("link exists");
            for (s, e) in slots {
                avail.block(s, e);
            }
            if !dirty.contains(&critical_link) {
                dirty.push(critical_link);
            }
        }

        // (P1) repair sweep, pass after pass until one raises nothing;
        // `raises[p]` counts the intervals pass `p` repaired.
        let mut raises = Vec::new();
        for _pass in 0..16 {
            let mut raised = 0;
            for flow_ids in all_link_flows.values() {
                let spans: Vec<(f64, f64)> =
                    flow_ids.iter().map(|&id| flows.flow(id).span()).collect();
                pairwise_scan(
                    &spans,
                    |i, a, b| span_within(spans[i], a, b),
                    |a, b, members| {
                        let total: f64 = members
                            .iter()
                            .map(|&i| flows.flow(flow_ids[i]).volume / rates[flow_ids[i]])
                            .sum();
                        let capacity_time = b - a;
                        if total > capacity_time * (1.0 + 1e-9) {
                            let factor = total / capacity_time;
                            for &i in members {
                                rates[flow_ids[i]] *= factor * (1.0 + 1e-12);
                            }
                            raised += 1;
                        }
                    },
                );
            }
            raises.push(raised);
            if raised == 0 {
                break;
            }
        }
        assert!(
            raises[1..].iter().all(|&r| r == 0),
            "a second repair pass raised rates: {raises:?}"
        );

        // Per-link EDF packing at the final rates.
        let mut link_profiles: BTreeMap<LinkId, BTreeMap<FlowId, RateProfile>> = BTreeMap::new();
        for (&link, flow_ids) in &all_link_flows {
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
            let mut per_flow = BTreeMap::new();
            for placement in edf_schedule(&jobs, 1.0, &[(horizon_start, horizon_end)]) {
                let id = placement.id;
                let flow = flows.flow(id);
                let needed = flow.volume / rates[id];
                let inside: f64 = placement
                    .windows
                    .iter()
                    .map(|&(s, e)| (e.min(flow.deadline) - s.max(flow.release)).max(0.0))
                    .sum();
                if inside + 1e-6 * needed.max(1.0) < needed {
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
                per_flow.insert(id, profile);
            }
            link_profiles.insert(link, per_flow);
        }
        let flow_schedules = flows
            .iter()
            .map(|f| {
                let per_link: BTreeMap<LinkId, RateProfile> = paths[f.id]
                    .links()
                    .iter()
                    .map(|&l| {
                        let profile = link_profiles
                            .get(&l)
                            .and_then(|per_flow| per_flow.get(&f.id))
                            .cloned()
                            .unwrap_or_default();
                        (l, profile)
                    })
                    .collect();
                let nominal = paths[f.id]
                    .links()
                    .last()
                    .and_then(|l| per_link.get(l).cloned())
                    .unwrap_or_default();
                FlowSchedule::per_link(f.id, paths[f.id].clone(), nominal, per_link)
            })
            .collect();
        Ok((raises[0], Schedule::new(flow_schedules, flows.horizon())))
    }
}

const ALPHAS: [f64; 3] = [1.5, 2.0, 3.0];

fn power(alpha: f64) -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, alpha, 1e9)
}

fn topology(which: usize) -> BuiltTopology {
    match which {
        0 => builders::fat_tree_with_capacity(4, 1e9),
        1 => builders::leaf_spine_with_capacity(4, 2, 3, 1e9),
        _ => builders::line_with_capacity(5, 1e9),
    }
}

/// `raw` as a flow set over the hosts of `topo`. With `grid` the times and
/// volumes are rounded to integers, which makes endpoints coincide and
/// intensities tie — the cases the `1e-12` / `1e-15` thresholds decide.
fn flow_set(topo: &BuiltTopology, raw: &[(usize, usize, f64, f64, f64)], grid: bool) -> FlowSet {
    let hosts = topo.hosts();
    let snap = |x: f64| if grid { x.round().max(1.0) } else { x };
    let flows = raw
        .iter()
        .enumerate()
        .map(|(id, &(s, d, release, span, volume))| {
            let (s, d) = (s % hosts.len(), d % hosts.len());
            let d = if s == d { (d + 1) % hosts.len() } else { d };
            let release = snap(release);
            Flow::new(
                id,
                hosts[s],
                hosts[d],
                release,
                release + snap(span),
                snap(volume),
            )
            .expect("valid by construction")
        })
        .collect();
    FlowSet::from_flows(flows).expect("dense ids by construction")
}

fn shortest_paths(topo: &BuiltTopology, flows: &FlowSet) -> Vec<Path> {
    Routing::ShortestPath
        .compute_on(&topo.csr(), flows)
        .expect("connected topology")
}

/// The flows on every link as single-link jobs, with their final rates.
fn per_link_jobs(flows: &FlowSet, schedule: &Schedule) -> BTreeMap<LinkId, (Vec<Job>, Vec<f64>)> {
    let mut links: BTreeMap<LinkId, (Vec<Job>, Vec<f64>)> = BTreeMap::new();
    for fs in schedule.flow_schedules() {
        let f = flows.flow(fs.flow);
        for &l in fs.path.links() {
            let (jobs, speeds) = links.entry(l).or_default();
            jobs.push(Job::new(f.id, f.release, f.deadline, f.volume));
            speeds.push(fs.link_profile(l).expect("a profile per link").max_rate());
        }
    }
    links
}

/// An instance on which the repair sweep raises phase-1 rates: fat-tree(4)
/// at 90 flows with spans of 5–15 over a horizon of 40.
fn rate_raising_instance() -> (BuiltTopology, FlowSet) {
    let topo = topology(0);
    let flows = UniformWorkload {
        horizon_end: 40.0,
        ..UniformWorkload::paper_defaults(90, 3)
    }
    .generate(topo.hosts())
    .expect("workload generates");
    (topo, flows)
}

#[test]
fn tie_heavy_instance_equals_the_pairwise_reference() {
    let (topo, flows) = common::tie_heavy_instance();
    let paths = shortest_paths(&topo, &flows);
    let mut on_link: BTreeMap<LinkId, usize> = BTreeMap::new();
    for &link in paths.iter().flat_map(|p| p.links()) {
        *on_link.entry(link).or_default() += 1;
    }
    let busiest = on_link.values().copied().max().unwrap_or(0);
    assert!(busiest > 30, "busiest link carries {busiest} flows");
    for alpha in ALPHAS {
        let (_, expected) = reference::most_critical_first(&flows, &paths, &power(alpha)).unwrap();
        let schedule = most_critical_first(&topo.network, &flows, &paths, &power(alpha)).unwrap();
        assert_eq!(schedule, expected, "alpha {alpha}");
    }
    // The same spans and a few distinct works as one single-processor
    // instance.
    let jobs: Vec<Job> = flows
        .iter()
        .map(|f| Job::new(f.id, f.release, f.deadline, (1 + f.id % 3) as f64))
        .collect();
    assert_eq!(
        yds_schedule(&jobs).placements(),
        reference::yds_schedule(&jobs).as_slice()
    );
}

/// The instance the `offline_dcfs` benchmark solves (fat-tree k=8 at
/// capacity 100, 800 paper-default flows), against the same reference. The
/// pairwise reference needs an optimised build: CI runs this with
/// `cargo test --release --test critical_interval -- --ignored`.
#[test]
#[ignore = "benchmark-size differential; run in release"]
fn benchmark_size_instances_equal_the_pairwise_reference() {
    let topo = builders::fat_tree_with_capacity(8, 100.0);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
    for seed in 1..=3 {
        let flows = UniformWorkload::paper_defaults(800, seed)
            .generate(topo.hosts())
            .expect("workload generates");
        let paths = shortest_paths(&topo, &flows);
        let (raised, expected) = reference::most_critical_first(&flows, &paths, &power).unwrap();
        assert!(raised > 0, "seed {seed}: the repair sweep was a no-op");
        let schedule = most_critical_first(&topo.network, &flows, &paths, &power).unwrap();
        assert_eq!(schedule, expected, "seed {seed}");
    }
}

#[test]
fn repair_sweep_raises_rates_identically() {
    let (topo, flows) = rate_raising_instance();
    let paths = shortest_paths(&topo, &flows);
    for alpha in ALPHAS {
        let (raised, expected) =
            reference::most_critical_first(&flows, &paths, &power(alpha)).unwrap();
        assert!(raised > 0, "alpha {alpha}: the repair sweep was a no-op");
        let schedule = most_critical_first(&topo.network, &flows, &paths, &power(alpha)).unwrap();
        assert_eq!(schedule, expected, "alpha {alpha}");
    }
}

/// `edf_schedule`'s windows, bit for bit, against the three-scan reference
/// on the cases its heap and release order decide.
#[test]
fn edf_edge_cases_equal_the_three_scan_reference() {
    let job = |id, release, deadline, work| Job::new(id, release, deadline, work);
    let cases = [
        (
            "equal deadlines: the lowest index wins",
            vec![
                job(7, 0.0, 4.0, 1.0),
                job(3, 0.0, 4.0, 1.0),
                job(5, 1.0, 4.0, 1.0),
            ],
            1.0,
            vec![(0.0, 4.0)],
        ),
        (
            "equal deadlines of opposite zero signs",
            vec![
                job(0, -2.0, 0.0, 0.5),
                job(1, -2.0, -0.0, 0.5),
                job(2, -2.0, 1.0, 1.0),
            ],
            1.0,
            vec![(-2.0, 1.0)],
        ),
        (
            "equal releases after the slot starts",
            vec![
                job(0, 1.0, 5.0, 1.0),
                job(1, 1.0, 3.0, 1.0),
                job(2, 1.0, 4.0, 0.5),
            ],
            2.0,
            vec![(0.0, 6.0)],
        ),
        (
            "a release within 1e-12 of t",
            vec![job(0, 0.0, 10.0, 1.0), job(1, 1.0 + 5e-13, 2.0, 0.5)],
            1.0,
            vec![(0.0, 10.0)],
        ),
        (
            "a release just beyond 1e-12 of t",
            vec![job(0, 0.0, 1.0, 1.0), job(1, 1.0 + 2e-12, 3.0, 0.5)],
            1.0,
            vec![(0.0, 10.0)],
        ),
        (
            "a release inside the gap between two slots",
            vec![job(0, 0.0, 10.0, 3.0), job(1, 2.0, 4.0, 0.5)],
            1.0,
            vec![(0.0, 1.0), (3.0, 5.0)],
        ),
        (
            "a release after the last slot",
            vec![job(0, 0.0, 10.0, 1.0), job(1, 7.0, 9.0, 1.0)],
            1.0,
            vec![(0.0, 2.0), (3.0, 5.0)],
        ),
        (
            "a remainder of at most 1e-12 in the middle of a slot",
            vec![job(0, 0.0, 10.0, 1.0 + 5e-13), job(1, 1.0, 2.0, 0.5)],
            1.0,
            vec![(0.0, 10.0)],
        ),
    ];
    let bits = |placements: Vec<JobPlacement>| -> Vec<(usize, Vec<(u64, u64)>)> {
        placements
            .into_iter()
            .map(|p| {
                let windows = p.windows.iter().map(|&(s, e)| (s.to_bits(), e.to_bits()));
                (p.id, windows.collect())
            })
            .collect()
    };
    for (case, jobs, speed, slots) in cases {
        let got = edf_schedule(&jobs, speed, &slots);
        assert!(
            got.iter().any(|p| !p.windows.is_empty()),
            "{case}: nothing ran"
        );
        assert_eq!(
            bits(got),
            bits(reference::edf_schedule(&jobs, speed, &slots)),
            "{case}"
        );
    }
}

/// Uncapped `edf` at σ = 0 runs every flow at its density from release to
/// deadline: it is the AVR rule of Yao, Demers and Shenker (FOCS 1995). On
/// each link of its paths, the link's load is then AVR over the link's
/// flows and any schedule's load is a single-processor schedule for them,
/// so `YDS_e ≤ E_e ≤ 2^(α−1)·α^α·YDS_e` (Bansal, Kimbrel and Pruhs, JACM
/// 2007), and the same holds for the sums over links.
#[test]
fn edf_energy_is_within_the_avr_bound_of_yds_on_every_link() {
    for alpha in [2.0, 3.0] {
        let power = power(alpha);
        let avr_bound = 2f64.powf(alpha - 1.0) * alpha.powf(alpha);
        for (which, seed) in (0..2).flat_map(|which| (1..=3).map(move |seed| (which, seed))) {
            let at = format!("alpha {alpha}, topology {which}, seed {seed}");
            let topo = topology(which);
            let flows = UniformWorkload::paper_defaults(40, seed)
                .generate(topo.hosts())
                .expect("workload generates");
            let mut ctx = SolverContext::from_network(&topo.network).expect("valid network");
            let outcome = OnlineEngine::builder()
                .policy("edf")
                .build()
                .expect("edf is a policy")
                .run(&mut ctx, &flows, &power)
                .expect("edf runs");
            assert_eq!(outcome.report.missed(), 0, "{at}");

            let mut jobs_on: BTreeMap<LinkId, Vec<Job>> = BTreeMap::new();
            for fs in outcome.schedule.flow_schedules() {
                let f = flows.flow(fs.flow);
                for &link in fs.path.links() {
                    let job = Job::new(f.id, f.release, f.deadline, f.volume);
                    jobs_on.entry(link).or_default().push(job);
                }
            }
            let loads = outcome.schedule.link_loads(&power);
            assert_eq!(loads.len(), jobs_on.len(), "{at}: active links");
            let (mut edf_sum, mut yds_sum, mut above_yds) = (0.0, 0.0, 0);
            for load in &loads {
                let (edf, yds) = (
                    load.dynamic_energy,
                    yds_schedule(&jobs_on[&load.link]).energy(&power),
                );
                assert!(yds <= edf * (1.0 + 1e-9), "{at}: link {}", load.link);
                assert!(edf <= avr_bound * yds, "{at}: link {}", load.link);
                above_yds += usize::from(edf > yds * (1.0 + 1e-6));
                edf_sum += edf;
                yds_sum += yds;
            }
            assert!(yds_sum <= edf_sum * (1.0 + 1e-9), "{at}: sums");
            assert!(edf_sum <= avr_bound * yds_sum, "{at}: sums");
            assert!(above_yds > 0, "{at}: edf is YDS on every link");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 72, ..ProptestConfig::default() })]

    #[test]
    fn most_critical_first_equals_the_pairwise_reference(
        which in 0usize..3,
        alpha in 0usize..3,
        grid in 0usize..2,
        raw in prop::collection::vec(
            (0usize..64, 0usize..64, 0.0f64..60.0, 1.0f64..25.0, 0.5f64..20.0),
            2..121,
        ),
    ) {
        let topo = topology(which);
        let flows = flow_set(&topo, &raw, grid == 1);
        let paths = shortest_paths(&topo, &flows);
        let power = power(ALPHAS[alpha]);
        let expected = reference::most_critical_first(&flows, &paths, &power).map(|(_, s)| s);
        let schedule = most_critical_first(&topo.network, &flows, &paths, &power);
        prop_assert!(schedule == expected, "schedules differ");

        // Program (P1) holds on every link at the final rates.
        for (link, (jobs, speeds)) in per_link_jobs(&flows, &schedule.unwrap()) {
            prop_assert!(speeds_feasible(&jobs, &speeds), "(P1) violated on link {link}");
        }
    }

    #[test]
    fn yds_equals_the_pairwise_reference(
        grid in 0usize..2,
        raw in prop::collection::vec((0.0f64..60.0, 1.0f64..25.0, 0.5f64..20.0), 2..121),
    ) {
        let snap = |x: f64| if grid == 1 { x.round().max(1.0) } else { x };
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(id, &(release, span, work))| {
                Job::new(id, snap(release), snap(release) + snap(span), snap(work))
            })
            .collect();
        let schedule = yds_schedule(&jobs);
        prop_assert!(schedule.placements() == reference::yds_schedule(&jobs).as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Corollary 1 on instances the grid search can enumerate: every flow
    /// crosses the same `hops` links of a line, so each link sees the same
    /// single-link problem and the optimum is `hops` times its optimum.
    #[test]
    fn energy_is_the_brute_force_optimum_on_small_instances(
        hops in 1usize..4,
        alpha in 0usize..3,
        raw in prop::collection::vec((0.0f64..10.0, 2.0f64..10.0, 1.0f64..10.0), 1..5),
    ) {
        let topo = builders::line_with_capacity(hops + 1, 1e9);
        let (src, dst) = (topo.hosts()[0], topo.hosts()[hops]);
        let flows = FlowSet::from_tuples(
            raw.iter().map(|&(release, span, volume)| (src, dst, release, release + span, volume)),
        )
        .unwrap();
        let paths = shortest_paths(&topo, &flows);
        let power = power(ALPHAS[alpha]);
        let schedule = most_critical_first(&topo.network, &flows, &paths, &power).unwrap();
        let energy = schedule.energy(&power).total();

        let jobs: Vec<Job> = flows
            .iter()
            .map(|f| Job::new(f.id, f.release, f.deadline, f.volume))
            .collect();
        let resolution = if jobs.len() == 4 { 9 } else { 15 };
        let brute = hops as f64 * brute_force_optimal_energy(&jobs, &power, resolution);
        // The grid never beats the optimum, and gets within its resolution.
        prop_assert!(brute >= energy * (1.0 - 1e-9), "brute {brute} < mcf {energy}");
        prop_assert!(brute <= energy * 1.08, "brute {brute} vs mcf {energy}");
    }
}
