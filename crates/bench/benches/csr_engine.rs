//! Benchmarks of the CSR graph core and the arena-reuse shortest-path
//! engine: raw Dijkstra cost, one Frank–Wolfe iteration, and the full
//! DCFSR pipeline end-to-end on growing fat-trees.
//!
//! `dcfsr_end_to_end` is the number the ISSUE's speedup criterion tracks:
//! relaxation + Random-Schedule + SP+MCF + simulator verification, exactly
//! what one `fig2` instance solves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcn_bench::harness_fmcf_config;
use dcn_core::{Algorithm, Dcfsr, RandomScheduleConfig, RoutedMcf, SolverContext};
use dcn_flow::workload::UniformWorkload;
use dcn_power::PowerFunction;
use dcn_sim::Simulator;
use dcn_solver::fmcf::{Commodity, FmcfProblem, FmcfScratch, FmcfSolverConfig, PowerFlowCost};
use dcn_topology::{builders, GraphCsr, ShortestPathEngine};
use std::hint::black_box;

fn power() -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY)
}

/// Raw shortest-path cost: a per-call rebuild of the CSR view and the
/// engine versus the arena-reuse engine, and the engine's batched
/// multi-target search.
fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    group.sample_size(50);
    for k in [8usize, 16] {
        let topo = builders::fat_tree(k);
        let graph = GraphCsr::from_network(&topo.network);
        let hosts = topo.hosts().to_vec();
        let (src, dst) = (hosts[0], *hosts.last().unwrap());
        let weight = |l: dcn_topology::LinkId| 1.0 + (l.index() % 5) as f64 * 0.3;

        group.bench_function(&format!("classic_per_call/fat_tree{k}"), |b| {
            b.iter(|| {
                let graph = GraphCsr::from_network(black_box(&topo.network));
                ShortestPathEngine::new()
                    .shortest_path(&graph, src, dst, weight)
                    .expect("connected")
            })
        });
        group.bench_function(&format!("engine_reused/fat_tree{k}"), |b| {
            let mut engine = ShortestPathEngine::new();
            b.iter(|| {
                engine
                    .shortest_path(black_box(&graph), src, dst, weight)
                    .expect("connected")
            })
        });
        group.bench_function(&format!("engine_into_no_alloc/fat_tree{k}"), |b| {
            let mut engine = ShortestPathEngine::new();
            let mut links = Vec::new();
            b.iter(|| {
                assert!(engine.dijkstra_into(black_box(&graph), src, dst, weight, &mut links))
            })
        });
        let targets: Vec<_> = hosts.iter().copied().skip(1).step_by(7).collect();
        group.bench_function(
            &format!("engine_batched_{}targets/fat_tree{k}", targets.len()),
            |b| {
                let mut engine = ShortestPathEngine::new();
                b.iter(|| {
                    engine.single_source_all_targets(black_box(&graph), src, &targets, weight)
                })
            },
        );
    }
    group.finish();
}

/// One Frank–Wolfe iteration (all-or-nothing + line search + blend) on a
/// warm scratch: the inner loop of the per-interval relaxation.
fn bench_fmcf_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("fmcf_iteration");
    group.sample_size(20);
    for (k, n_commodities) in [(4usize, 16usize), (8, 40)] {
        let topo = builders::fat_tree(k);
        let graph = GraphCsr::from_network(&topo.network);
        let hosts = topo.hosts();
        let commodities: Vec<Commodity> = (0..n_commodities)
            .map(|i| Commodity {
                id: i,
                src: hosts[(7 * i) % hosts.len()],
                dst: hosts[(11 * i + 3) % hosts.len()],
                demand: 1.0 + (i % 4) as f64,
            })
            .filter(|c| c.src != c.dst)
            .collect();
        let problem = FmcfProblem::with_graph(&graph, commodities);
        let cost = PowerFlowCost::new(power());
        let config = FmcfSolverConfig {
            max_iterations: 1,
            tolerance: 0.0,
            capacity: Some(builders::DEFAULT_CAPACITY),
            ..Default::default()
        };
        group.bench_function(
            &format!("fat_tree{k}_{}commodities", problem.commodities().len()),
            |b| {
                let mut scratch = FmcfScratch::new();
                b.iter(|| black_box(&problem).solve_with(&cost, &config, &mut scratch))
            },
        );
    }
    group.finish();
}

/// One full pipeline instance: one context, Random-Schedule (relaxation
/// included), SP+MCF, and simulator verification of both (the body of
/// `run_flow_set_algorithms_threads`).
fn pipeline(topo: &builders::BuiltTopology, flows: &dcn_flow::FlowSet, seed: u64) {
    let power = power();
    let mut ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
    let mut rs_algo = Dcfsr::new(RandomScheduleConfig {
        fmcf: harness_fmcf_config(),
        seed,
        ..Default::default()
    });
    let rs = rs_algo
        .solve(&mut ctx, flows, &power)
        .expect("random schedule succeeds");
    let sp = RoutedMcf::shortest_path()
        .solve(&mut ctx, flows, &power)
        .expect("sp-mcf succeeds");
    let simulator = Simulator::new(power);
    black_box(simulator.run_ctx(&ctx, flows, rs.schedule.as_ref().expect("schedules")));
    black_box(simulator.run_ctx(&ctx, flows, sp.schedule.as_ref().expect("schedules")));
}

fn bench_dcfsr_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcfsr_end_to_end");
    group.sample_size(3);
    for (k, flows_n) in [(4usize, 40usize), (8, 80), (16, 40)] {
        let topo = builders::fat_tree(k);
        let flows = UniformWorkload::paper_defaults(flows_n, 7)
            .generate(topo.hosts())
            .expect("workload generates");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("fat_tree{k}_{flows_n}flows")),
            &flows,
            |b, flows| b.iter(|| pipeline(&topo, flows, 7)),
        );
    }
    group.finish();
}

/// The interval-parallel offline path: the relaxation alone and the full
/// DCFSR pipeline, each at pool widths 1/2/4 (`--solver-threads`). The
/// results are bit-identical across widths (pinned by
/// `tests/parallel_equivalence.rs`), so any spread between the series is
/// pure wall-clock — the ISSUE's speedup criterion reads the ratio of the
/// 1-thread to the 4-thread series on fat-tree(16).
fn bench_offline_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_parallel");
    group.sample_size(3);
    let power = power();
    for (k, flows_n) in [(8usize, 80usize), (16, 40)] {
        let topo = builders::fat_tree(k);
        let flows = UniformWorkload::paper_defaults(flows_n, 7)
            .generate(topo.hosts())
            .expect("workload generates");
        for threads in [1usize, 2, 4] {
            group.bench_function(
                &format!("relaxation/fat_tree{k}_{flows_n}flows/{threads}threads"),
                |b| {
                    let mut ctx = SolverContext::from_network(&topo.network)
                        .expect("fat-tree validates")
                        .with_parallelism(dcn_core::ParallelConfig::with_threads(threads));
                    b.iter(|| {
                        black_box(
                            ctx.relax(&flows, &power, &harness_fmcf_config())
                                .expect("relaxation succeeds"),
                        )
                    })
                },
            );
            group.bench_function(
                &format!("dcfsr_end_to_end/fat_tree{k}_{flows_n}flows/{threads}threads"),
                |b| {
                    b.iter(|| {
                        let mut ctx = SolverContext::from_network(&topo.network)
                            .expect("fat-tree validates")
                            .with_parallelism(dcn_core::ParallelConfig::with_threads(threads));
                        let mut rs_algo = Dcfsr::new(RandomScheduleConfig {
                            fmcf: harness_fmcf_config(),
                            seed: 7,
                            ..Default::default()
                        });
                        black_box(
                            rs_algo
                                .solve(&mut ctx, &flows, &power)
                                .expect("random schedule succeeds"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dijkstra,
    bench_fmcf_iteration,
    bench_dcfsr_end_to_end,
    bench_offline_parallel
);
criterion_main!(benches);
