//! The Yao–Demers–Shenker (YDS) optimal speed-scaling algorithm and the
//! EDF packing it relies on.
//!
//! YDS solves the following problem optimally: given jobs with release
//! times, deadlines and work requirements on a single speed-scalable
//! processor whose power is `mu * s^alpha` (`alpha > 1`), find the schedule
//! of minimum energy that meets every deadline. The algorithm repeatedly
//! finds the *critical interval* — the interval of maximum intensity
//! (total contained work divided by available time) — runs the jobs
//! contained in it at exactly that intensity using EDF, removes them, and
//! recurses on the remaining jobs and remaining available time.
//!
//! The paper's Most-Critical-First algorithm for DCFS (its Algorithm 1) is
//! this algorithm applied per *link* with virtual weights
//! `w'_i = w_i * |P_i|^(1/alpha)`; the core crate builds directly on the
//! primitives exported here.
//!
//! **Cost.** A round of [`yds_schedule`] over `n` jobs with `P` distinct
//! endpoints ranges over `P^2 / 2` intervals. Which jobs an interval
//! contains is read by [`IntervalScan`] off two boundaries per job, and the
//! scan bounds the work of every interval from one running sum per start
//! point; only an interval whose bound could beat the incumbent sums the
//! works of its members, and then **in job order** — the same terms in the
//! same order as a filter over the whole job list, so intensities, the
//! `1e-15` tie-break between intervals and therefore the schedule are bit
//! for bit those of the plain scan (the bound decides which sums are
//! skipped, with a slack that covers its own rounding; a sum updated
//! incrementally and *used* would round differently and pick other critical
//! intervals on ties). [`edf_schedule`] sorts its jobs by release once and
//! picks each step's job off a deadline heap: `O(n log n)` per call plus
//! `O(log n)` per step.

use crate::{IntervalScan, TimeAvailability};
use dcn_power::PowerFunction;
use std::{cmp::Reverse, collections::BinaryHeap};

/// A job for the single-processor speed-scaling problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Caller-chosen identifier (ids must be unique within one call).
    pub id: usize,
    /// Release time: the job cannot run earlier.
    pub release: f64,
    /// Deadline: the job must be finished by this time.
    pub deadline: f64,
    /// Amount of work (e.g. CPU cycles, or data volume).
    pub work: f64,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if the span is empty or the work is not positive and finite.
    pub fn new(id: usize, release: f64, deadline: f64, work: f64) -> Self {
        assert!(
            release.is_finite() && deadline.is_finite() && work.is_finite(),
            "job parameters must be finite"
        );
        assert!(
            deadline > release,
            "job {id}: deadline {deadline} <= release {release}"
        );
        assert!(work > 0.0, "job {id}: work must be positive, got {work}");
        Self {
            id,
            release,
            deadline,
            work,
        }
    }

    /// The density `work / (deadline - release)` of the job.
    pub fn density(&self) -> f64 {
        self.work / (self.deadline - self.release)
    }
}

/// Where and how fast a single job executes in a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlacement {
    /// The job's identifier.
    pub id: usize,
    /// The constant execution speed assigned to the job.
    pub speed: f64,
    /// The (disjoint, sorted) time windows in which the job executes.
    pub windows: Vec<(f64, f64)>,
}

impl JobPlacement {
    /// Total execution time across all windows.
    pub fn duration(&self) -> f64 {
        self.windows.iter().map(|&(s, e)| e - s).sum()
    }

    /// Work completed: `speed * duration`.
    pub fn work_done(&self) -> f64 {
        self.speed * self.duration()
    }
}

/// The output of [`yds_schedule`]: one placement per input job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct YdsSchedule {
    placements: Vec<JobPlacement>,
}

impl YdsSchedule {
    /// All placements, in the order the critical intervals were discovered.
    pub fn placements(&self) -> &[JobPlacement] {
        &self.placements
    }

    /// The placement of a specific job id, if the job was scheduled.
    pub fn placement(&self, id: usize) -> Option<&JobPlacement> {
        self.placements.iter().find(|p| p.id == id)
    }

    /// The energy of the schedule under a speed-scaling power function
    /// (only the dynamic term `mu * s^alpha` matters for YDS).
    pub fn energy(&self, power: &PowerFunction) -> f64 {
        self.placements
            .iter()
            .map(|p| power.dynamic_power(p.speed) * p.duration())
            .sum()
    }

    /// Checks the schedule against the original jobs: every job completes
    /// its work inside its span and no two jobs overlap in time.
    pub fn validate(&self, jobs: &[Job]) -> Result<(), String> {
        for job in jobs {
            let p = self
                .placement(job.id)
                .ok_or_else(|| format!("job {} has no placement", job.id))?;
            if (p.work_done() - job.work).abs() > 1e-6 * job.work.max(1.0) {
                return Err(format!(
                    "job {}: work done {} differs from required {}",
                    job.id,
                    p.work_done(),
                    job.work
                ));
            }
            for &(s, e) in &p.windows {
                if s < job.release - 1e-9 || e > job.deadline + 1e-9 {
                    return Err(format!(
                        "job {}: window [{s}, {e}] outside span [{}, {}]",
                        job.id, job.release, job.deadline
                    ));
                }
            }
        }
        // Pairwise non-overlap (single processor).
        let mut all_windows: Vec<(f64, f64)> = self
            .placements
            .iter()
            .flat_map(|p| p.windows.iter().copied())
            .collect();
        all_windows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite windows"));
        for w in all_windows.windows(2) {
            if w[1].0 < w[0].1 - 1e-9 {
                return Err(format!(
                    "windows [{}, {}] and [{}, {}] overlap",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
        Ok(())
    }
}

/// Preemptive Earliest-Deadline-First packing of `jobs` at a common `speed`
/// into the available `slots` (disjoint, sorted time intervals).
///
/// Returns one placement per job with its execution windows. Jobs that
/// cannot be finished within the slots keep whatever windows they received
/// (callers that pass a feasible instance — as YDS always does — get
/// complete placements). Each step runs the released (`release <= t +
/// 1e-12`), unfinished (`remaining > 1e-12`) job of earliest deadline, the
/// lowest index among equals, off a heap the jobs join in release order; a
/// job that would run for `<= 1e-15` is done, and the slot goes on.
pub fn edf_schedule(jobs: &[Job], speed: f64, slots: &[(f64, f64)]) -> Vec<JobPlacement> {
    assert!(speed > 0.0, "EDF speed must be positive, got {speed}");
    let mut remaining: Vec<f64> = jobs.iter().map(|j| j.work).collect();
    let mut windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); jobs.len()];
    let mut unreleased: Vec<usize> = (0..jobs.len()).filter(|&i| remaining[i] > 1e-12).collect();
    unreleased.sort_by_key(|&i| total_key(jobs[i].release));
    let mut unreleased = unreleased.into_iter().peekable();
    let mut released = BinaryHeap::new();

    for &(slot_start, slot_end) in slots {
        let mut t = slot_start;
        while t < slot_end - 1e-12 {
            while let Some(idx) = unreleased.next_if(|&i| jobs[i].release <= t + 1e-12) {
                released.push(Reverse((total_key(jobs[idx].deadline), idx)));
            }
            let next_release = unreleased
                .peek()
                .map_or(f64::INFINITY, |&i| jobs[i].release);
            let Some(&Reverse((_, idx))) = released.peek() else {
                // Jump to the next release inside this slot, if any.
                if next_release >= slot_end {
                    break;
                }
                t = next_release;
                continue;
            };
            let finish_at = t + remaining[idx] / speed;
            // Run until the job finishes, a new job is released, or the
            // slot ends — whichever comes first.
            let run_until = finish_at.min(next_release).min(slot_end);
            if run_until <= t + 1e-15 {
                released.pop();
                continue;
            }
            // Append or extend the last window.
            match windows[idx].last_mut() {
                Some(last) if (last.1 - t).abs() < 1e-12 => last.1 = run_until,
                _ => windows[idx].push((t, run_until)),
            }
            remaining[idx] -= (run_until - t) * speed;
            if remaining[idx] <= 1e-12 {
                released.pop();
            }
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

/// `x` as an integer in [`f64::total_cmp`] order, with `-0.0` read as `0.0`:
/// ordering by it is ordering by `<`, ties included.
fn total_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    bits ^ (((bits as i64 >> 63) as u64 >> 1) | (1 << 63))
}

/// The optimal single-processor speed-scaling schedule (YDS).
///
/// Returns a schedule in which every job runs at a constant speed, all
/// deadlines are met, and the total energy `sum mu * s^alpha * time` is
/// minimum among all feasible schedules (for any `alpha > 1`).
///
/// # Panics
///
/// Panics if two jobs share an id.
pub fn yds_schedule(jobs: &[Job]) -> YdsSchedule {
    {
        let mut ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len(), "job ids must be unique");
    }

    let mut remaining: Vec<Job> = jobs.to_vec();
    let mut avail = TimeAvailability::new();
    let mut placements = Vec::with_capacity(jobs.len());

    while !remaining.is_empty() {
        // The interval of maximum intensity.
        let spans: Vec<(f64, f64)> = remaining.iter().map(|j| (j.release, j.deadline)).collect();
        let works: Vec<f64> = remaining.iter().map(|j| j.work).collect();
        let best = IntervalScan::new(
            &spans,
            |(release, _), a| release >= a - 1e-12,
            |(_, deadline), b| deadline <= b + 1e-12,
        )
        .densest(&works, |work, a, b| {
            let available = avail.available_between(a, b);
            Some(if available > 1e-12 {
                work / available
            } else {
                f64::INFINITY
            })
        });
        let (intensity, a, b) =
            best.expect("at least one job remains, so a candidate interval exists");
        debug_assert!(
            intensity.is_finite(),
            "critical interval has no available time; the instance degenerated"
        );

        // The flows/jobs of the critical interval.
        let (critical, rest): (Vec<Job>, Vec<Job>) = remaining
            .into_iter()
            .partition(|j| j.release >= a - 1e-12 && j.deadline <= b + 1e-12);
        remaining = rest;

        let slots = avail.available_subintervals(a, b);
        let placed = edf_schedule(&critical, intensity, &slots);
        placements.extend(placed);

        // The critical interval is fully consumed.
        for (s, e) in slots {
            avail.block(s, e);
        }
    }

    YdsSchedule { placements }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power(alpha: f64) -> PowerFunction {
        PowerFunction::speed_scaling_only(1.0, alpha, f64::MAX / 2.0)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_job_runs_at_its_density() {
        let jobs = [Job::new(0, 2.0, 6.0, 8.0)];
        let s = yds_schedule(&jobs);
        s.validate(&jobs).unwrap();
        let p = s.placement(0).unwrap();
        assert!(close(p.speed, 2.0));
        assert_eq!(p.windows, vec![(2.0, 6.0)]);
    }

    #[test]
    fn two_disjoint_jobs_keep_their_own_densities() {
        let jobs = [Job::new(0, 0.0, 2.0, 4.0), Job::new(1, 5.0, 10.0, 5.0)];
        let s = yds_schedule(&jobs);
        s.validate(&jobs).unwrap();
        assert!(close(s.placement(0).unwrap().speed, 2.0));
        assert!(close(s.placement(1).unwrap().speed, 1.0));
    }

    #[test]
    fn nested_jobs_share_the_critical_interval_speed() {
        // Classic YDS example: a dense inner job forces a high speed only
        // inside its own window.
        let jobs = [
            Job::new(0, 0.0, 10.0, 10.0), // outer, density 1
            Job::new(1, 4.0, 6.0, 6.0),   // inner, density 3
        ];
        let s = yds_schedule(&jobs);
        s.validate(&jobs).unwrap();
        // Critical interval is [4,6] with intensity 3; job 0 then runs in
        // the remaining 8 time units at speed 10/8.
        assert!(close(s.placement(1).unwrap().speed, 3.0));
        assert!(close(s.placement(0).unwrap().speed, 1.25));
    }

    #[test]
    fn paper_example1_yds_instance() {
        // Example 1 of the paper, translated to SS-SP: works 6*sqrt(2) and 8,
        // spans [2,4] and [1,3]. Both jobs run at speed (8 + 6 sqrt 2)/3.
        let w1 = 6.0 * 2f64.sqrt();
        let jobs = [Job::new(0, 2.0, 4.0, w1), Job::new(1, 1.0, 3.0, 8.0)];
        let s = yds_schedule(&jobs);
        s.validate(&jobs).unwrap();
        let expected = (8.0 + 6.0 * 2f64.sqrt()) / 3.0;
        assert!(close(s.placement(0).unwrap().speed, expected));
        assert!(close(s.placement(1).unwrap().speed, expected));
        // EDF runs job 1 (deadline 3) before job 0 (deadline 4).
        let job1_finish = s.placement(1).unwrap().windows.last().unwrap().1;
        assert!(job1_finish <= s.placement(0).unwrap().windows[0].0 + 1e-9);
    }

    #[test]
    fn energy_matches_closed_form_for_single_job() {
        let jobs = [Job::new(0, 0.0, 4.0, 8.0)];
        let s = yds_schedule(&jobs);
        // speed 2 for 4 time units at alpha=3: 2^3 * 4 = 32.
        assert!(close(s.energy(&power(3.0)), 32.0));
    }

    #[test]
    fn relaxing_deadlines_never_increases_energy() {
        // The optimum of a relaxed instance (later deadlines) can only be
        // cheaper or equal.
        let tight = [
            Job::new(0, 0.0, 4.0, 2.0),
            Job::new(1, 1.0, 6.0, 3.0),
            Job::new(2, 2.0, 8.0, 2.0),
        ];
        let relaxed: Vec<Job> = tight
            .iter()
            .map(|j| Job::new(j.id, j.release, j.deadline + 4.0, j.work))
            .collect();
        let p = power(2.0);
        let e_tight = yds_schedule(&tight).energy(&p);
        let e_relaxed = yds_schedule(&relaxed).energy(&p);
        assert!(e_relaxed <= e_tight + 1e-9);
    }

    #[test]
    fn identical_jobs_share_speed_evenly() {
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 0.0, 8.0, 2.0)).collect();
        let s = yds_schedule(&jobs);
        s.validate(&jobs).unwrap();
        for p in s.placements() {
            assert!(close(p.speed, 1.0));
        }
    }

    #[test]
    fn staggered_releases_respected_by_edf() {
        let jobs = [Job::new(0, 0.0, 10.0, 2.0), Job::new(1, 5.0, 10.0, 2.0)];
        let s = yds_schedule(&jobs);
        s.validate(&jobs).unwrap();
        // Job 1 cannot start before its release at t=5.
        assert!(s.placement(1).unwrap().windows[0].0 >= 5.0 - 1e-9);
    }

    #[test]
    fn edf_schedule_fills_slots_in_order() {
        let jobs = [Job::new(0, 0.0, 10.0, 4.0), Job::new(1, 0.0, 5.0, 2.0)];
        let placements = edf_schedule(&jobs, 2.0, &[(0.0, 2.0), (4.0, 6.0)]);
        // Job 1 has the earlier deadline: runs first in [0,1].
        let p1 = placements.iter().find(|p| p.id == 1).unwrap();
        assert_eq!(p1.windows, vec![(0.0, 1.0)]);
        let p0 = placements.iter().find(|p| p.id == 0).unwrap();
        assert!(close(p0.work_done(), 4.0));
        assert_eq!(p0.windows, vec![(1.0, 2.0), (4.0, 5.0)]);
    }

    #[test]
    fn total_key_orders_as_less_than_does() {
        let xs = [
            3.5,
            -0.0,
            -1e-300,
            0.0,
            -7.25,
            f64::MIN,
            1e-300,
            f64::MAX,
            -1.0,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(total_key(a).cmp(&total_key(b)), a.partial_cmp(&b).unwrap());
            }
        }
    }

    #[test]
    fn a_negligible_job_does_not_end_its_slot() {
        // Both jobs share the critical interval [0, 1] at speed ~1e4, where
        // job 1 (earliest deadline) would run for ~5e-16: it is done, and
        // job 0 still runs from the start of the slot to its end.
        let jobs = [Job::new(0, 0.0, 1.0, 1e4), Job::new(1, 0.0, 0.5, 5e-12)];
        let s = yds_schedule(&jobs);
        s.validate(&jobs).unwrap();
        let windows = &s.placement(0).unwrap().windows;
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].0, 0.0);
        assert_eq!(s.placement(1).unwrap().windows, vec![]);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_rejected() {
        let jobs = [Job::new(0, 0.0, 1.0, 1.0), Job::new(0, 0.0, 2.0, 1.0)];
        yds_schedule(&jobs);
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn empty_span_job_rejected() {
        Job::new(0, 2.0, 2.0, 1.0);
    }

    #[test]
    fn validate_detects_missing_job() {
        let jobs = [Job::new(0, 0.0, 1.0, 1.0), Job::new(1, 0.0, 1.0, 1.0)];
        let schedule = yds_schedule(&jobs[..1]);
        assert!(schedule.validate(&jobs).is_err());
    }
}
