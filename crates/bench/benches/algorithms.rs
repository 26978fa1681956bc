//! Criterion micro-benchmarks of the building blocks: the DCFS scheduler,
//! the Random-Schedule pipeline, the Frank–Wolfe relaxation and the
//! topology path algorithms.
//!
//! These measure *algorithm cost*, not the paper's energy results (those
//! come from the `fig2` and `ablation_*` binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcn_bench::harness_fmcf_config;
use dcn_core::{Algorithm, Dcfsr, RandomScheduleConfig, RoutedMcf, Routing, SolverContext};
use dcn_flow::workload::UniformWorkload;
use dcn_power::PowerFunction;
use dcn_topology::{builders, k_shortest_paths_on, ShortestPathEngine};
use std::hint::black_box;

fn power() -> PowerFunction {
    PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY)
}

fn bench_most_critical_first(c: &mut Criterion) {
    let topo = builders::fat_tree(4);
    let mut group = c.benchmark_group("most_critical_first");
    for &n in &[20usize, 40, 80] {
        let flows = UniformWorkload::paper_defaults(n, 7)
            .generate(topo.hosts())
            .expect("workload generates");
        group.bench_with_input(BenchmarkId::from_parameter(n), &flows, |b, flows| {
            let mut ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
            let mut algo = RoutedMcf::shortest_path();
            b.iter(|| {
                algo.solve(&mut ctx, black_box(flows), &power())
                    .expect("sp-mcf succeeds")
            })
        });
    }
    // The `offline_dcfs` cell of `perf/`: at k=4 the per-link interval scans
    // are invisible, at 800 flows on k=8 they are the cost.
    let topo = builders::fat_tree_with_capacity(8, 100.0);
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, 100.0);
    let flows = UniformWorkload::paper_defaults(800, 7)
        .generate(topo.hosts())
        .expect("workload generates");
    group.bench_with_input(BenchmarkId::new("k8", 800), &flows, |b, flows| {
        let mut ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
        let mut algo = RoutedMcf::shortest_path();
        b.iter(|| {
            algo.solve(&mut ctx, black_box(flows), &power)
                .expect("sp-mcf succeeds")
        })
    });
    group.finish();
}

fn bench_random_schedule(c: &mut Criterion) {
    let topo = builders::fat_tree(4);
    let mut group = c.benchmark_group("random_schedule");
    group.sample_size(10);
    for &n in &[20usize, 40] {
        let flows = UniformWorkload::paper_defaults(n, 7)
            .generate(topo.hosts())
            .expect("workload generates");
        group.bench_with_input(BenchmarkId::from_parameter(n), &flows, |b, flows| {
            let mut ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
            let mut algo = Dcfsr::new(RandomScheduleConfig {
                fmcf: harness_fmcf_config(),
                ..Default::default()
            });
            b.iter(|| {
                algo.solve(&mut ctx, black_box(flows), &power())
                    .expect("random schedule succeeds")
            })
        });
    }
    group.finish();
}

fn bench_relaxation(c: &mut Criterion) {
    let topo = builders::fat_tree(4);
    let flows = UniformWorkload::paper_defaults(30, 5)
        .generate(topo.hosts())
        .expect("workload generates");
    let mut group = c.benchmark_group("interval_relaxation");
    group.sample_size(10);
    group.bench_function("fat_tree4_30flows", |b| {
        let mut ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
        b.iter(|| {
            ctx.relax(black_box(&flows), &power(), &harness_fmcf_config())
                .expect("relaxation succeeds")
        })
    });
    group.finish();
}

fn bench_paths(c: &mut Criterion) {
    let topo = builders::fat_tree(8);
    let hosts = topo.hosts();
    let mut group = c.benchmark_group("topology_paths");
    group.bench_function("shortest_path_fat_tree8", |b| {
        b.iter(|| {
            topo.network
                .shortest_path(black_box(hosts[0]), black_box(hosts[127]))
                .expect("connected")
        })
    });
    group.bench_function("k_shortest_paths_k8_fat_tree8", |b| {
        let graph = topo.csr();
        let mut engine = ShortestPathEngine::new();
        b.iter(|| {
            k_shortest_paths_on(
                &graph,
                &mut engine,
                black_box(hosts[0]),
                black_box(hosts[127]),
                8,
                |_| 1.0,
            )
        })
    });
    let flows = UniformWorkload::paper_defaults(50, 3)
        .generate(hosts)
        .expect("workload generates");
    group.bench_function("ecmp_routing_50flows", |b| {
        let graph = topo.csr();
        b.iter(|| {
            Routing::Ecmp { seed: 1 }
                .compute_on(black_box(&graph), black_box(&flows))
                .expect("routable")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_most_critical_first,
    bench_random_schedule,
    bench_relaxation,
    bench_paths
);
criterion_main!(benches);
