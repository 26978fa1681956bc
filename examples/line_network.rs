//! The paper's worked Example 1 (Section III-C, Fig. 1): a three-node line
//! network `A — B — C` with power function `f(x) = x^2` and two flows,
//!
//! * `j1 = (A -> C, release 2, deadline 4, volume 6)`
//! * `j2 = (A -> B, release 1, deadline 3, volume 8)`
//!
//! whose optimal rates satisfy `sqrt(2) * s1 = s2 = (8 + 6 sqrt 2) / 3`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example line_network
//! ```

use deadline_dcn::core::{Algorithm, RoutedMcf, SolverContext};
use deadline_dcn::flow::FlowSet;
use deadline_dcn::power::PowerFunction;
use deadline_dcn::topology::builders;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = builders::line_with_capacity(3, 1e9);
    let (a, b, c) = (topo.hosts()[0], topo.hosts()[1], topo.hosts()[2]);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 1e9);

    let flows = FlowSet::from_tuples([
        (a, c, 2.0, 4.0, 6.0), // j1
        (a, b, 1.0, 3.0, 8.0), // j2
    ])?;

    // The line network forces the routes, so the optimal DCFS schedule is
    // exactly the registry's `sp-mcf` algorithm.
    let mut ctx = SolverContext::from_network(&topo.network)?;
    let solution = RoutedMcf::shortest_path().solve(&mut ctx, &flows, &power)?;
    let schedule = solution.schedule.as_ref().expect("sp-mcf schedules");
    ctx.verify(schedule, &flows, &power)?;

    let s2_expected = (8.0 + 6.0 * 2f64.sqrt()) / 3.0;
    let s1_expected = s2_expected / 2f64.sqrt();

    println!("Example 1 of the paper (line network A - B - C, f(x) = x^2)\n");
    for flow in flows.iter() {
        let fs = schedule.flow_schedule(flow.id).expect("flow scheduled");
        let rate = fs.profile.max_rate();
        let expected = if flow.id == 0 {
            s1_expected
        } else {
            s2_expected
        };
        println!(
            "flow j{} : {} -> {}  volume {:>4}  span [{}, {}]",
            flow.id + 1,
            topo.network.node(flow.src).label,
            topo.network.node(flow.dst).label,
            flow.volume,
            flow.release,
            flow.deadline
        );
        println!("          rate = {rate:.6}   (paper: {expected:.6})");
        for (link, profile) in fs.link_profiles() {
            let l = topo.network.link(link);
            for (s, e, r) in profile.segments() {
                println!(
                    "          link {} -> {} : [{s:.3}, {e:.3}] at rate {r:.3}",
                    topo.network.node(l.src).label,
                    topo.network.node(l.dst).label
                );
            }
        }
        println!();
    }

    let energy = schedule.energy(&power).total();
    let expected_energy = 2.0 * 6.0 * s1_expected + 8.0 * s2_expected;
    println!("total energy = {energy:.6}  (paper closed form: {expected_energy:.6})");
    Ok(())
}
