//! Scaling of the graph substrate: Dijkstra and the exact constrained
//! shortest path over the planner's CSR edge store (unpruned full-space
//! DAGs of synthetic jobs).

use astra_bench::{binding_budget, full_space, planner, synthetic_job};
use astra_core::{Objective, PlannerDag, PruneConfig, Strategy};
use astra_graph::csp::constrained_shortest_path;
use astra_graph::dijkstra::shortest_path;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The unpruned DAG of an `n`-object job and its binding budget in the
/// solvers' working unit (micro-dollars).
fn fixture(n: usize) -> (PlannerDag, f64) {
    let astra = planner(Strategy::ExactCsp);
    let job = synthetic_job(n);
    let space = full_space(&astra, &job);
    let (platform, catalog) = (astra.platform(), astra.catalog());
    let dag = PlannerDag::build_with(&job, platform, catalog, &space, PruneConfig::off());
    let Objective::MinimizeTime { budget } = binding_budget(&astra, &job) else {
        unreachable!("binding budgets are budgets")
    };
    (dag, budget.nanos() as f64 * 1e-3)
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra_planner_store");
    for n in [10usize, 50, 202] {
        let (dag, _) = fixture(n);
        let zero = vec![0.0; dag.graph().node_count()];
        group.bench_function(format!("N={n}"), |b| {
            b.iter(|| {
                let mut view = dag.graph().time_view();
                shortest_path(black_box(&mut view), dag.source(), dag.sink(), |_| true, &zero)
                    .unwrap()
                    .weight
            })
        });
    }
    group.finish();
}

fn bench_csp(c: &mut Criterion) {
    let mut group = c.benchmark_group("constrained_shortest_path");
    for n in [10usize, 50, 202] {
        let (dag, bound) = fixture(n);
        group.bench_function(format!("N={n}"), |b| {
            b.iter(|| {
                let mut view = dag.graph().time_view();
                constrained_shortest_path(black_box(&mut view), dag.source(), dag.sink(), bound)
                    .map(|sol| sol.weight)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dijkstra, bench_csp);
criterion_main!(benches);
