//! Solver strategies over the planner DAG.

use astra_graph::alg1::algorithm1;
use astra_graph::csp::{
    constrained_shortest_path, constrained_shortest_path_with_bounds, dag_potentials,
    dag_potentials_resume, Potentials,
};
use astra_model::{evaluate, JobConfig, JobSpec, Platform};
use astra_pricing::{Money, PriceCatalog};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cache::ModelCache;
use crate::dag::PlannerDag;
use crate::objective::Objective;
use crate::space::ConfigSpace;

/// How to solve the constrained optimization on the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Strategy {
    /// The paper's Algorithm 1 (Dijkstra + offending-edge removal).
    Algorithm1,
    /// Exact Pareto-label constrained shortest path (default).
    #[default]
    ExactCsp,
    /// Brute force over the whole configuration space through the
    /// analytical model. Exponentially large with full tier lists — meant
    /// for validation on reduced spaces.
    Exhaustive,
}

/// Cap on Algorithm 1 edge removals (each removal costs one Dijkstra run;
/// see [`astra_graph::alg1::algorithm1`]).
pub const MAX_ALG1_REMOVALS: usize = 500;

/// Tiny relative slack added to constraint bounds to make `<=`
/// comparisons robust to the floating-point noise of summing edge metrics
/// in a different order than the model does. Kept at 1e-9 so that an
/// accepted path can overshoot a $1 budget by at most a few nano-dollars.
const BOUND_EPS: f64 = 1e-9;

/// The constraint bound a query searches under, in the solver's working
/// unit (micro-dollars for budgets, seconds for deadlines), slackened by
/// [`BOUND_EPS`].
fn search_bound(objective: Objective) -> f64 {
    let bound = match objective {
        Objective::MinimizeTime { budget } => budget.nanos() as f64 * 1e-3,
        Objective::MinimizeCost { deadline_s } => deadline_s,
    };
    bound * (1.0 + BOUND_EPS) + BOUND_EPS
}

/// Backward lower-bound potentials over a built planner DAG: per node,
/// the minimum remaining time (seconds) and the minimum remaining cost
/// (micro-dollars, the CSP's working unit) to the sink. Both are true
/// minima — admissible and consistent for either objective orientation —
/// so one computation serves every budget *and* deadline query against
/// the same DAG (see [`solve_on_dag`]).
///
/// They are the store's time-view potentials: weight = time, resource =
/// cost.
#[derive(Debug, Clone)]
pub struct PlannerPotentials(Potentials);

impl PlannerPotentials {
    /// Compute both potentials in one reverse-topological sweep over the
    /// DAG's edge store (one linear pass over the edge arrays).
    pub fn compute(dag: &PlannerDag) -> PlannerPotentials {
        PlannerPotentials(
            dag_potentials(&mut dag.graph().time_view(), dag.sink())
                .expect("planner graph is acyclic by construction"),
        )
    }

    /// Repair potentials after an in-place DAG recost, reusing this
    /// instance's values wherever `dirty_tails` proves they cannot have
    /// moved (see `dag_potentials_resume` — the result is
    /// bit-identical to a fresh [`PlannerPotentials::compute`]).
    pub(crate) fn resume(&self, dag: &PlannerDag, dirty_tails: &[bool]) -> PlannerPotentials {
        let view = &mut dag.graph().time_view();
        PlannerPotentials(
            dag_potentials_resume(view, dag.sink(), &self.0, dirty_tails)
                .expect("planner graph is acyclic by construction"),
        )
    }

    /// Per-node minimum remaining time to the sink (seconds).
    pub fn min_time_to(&self) -> &[f64] {
        &self.0.min_weight_to
    }

    /// Per-node minimum remaining cost to the sink (micro-dollars).
    pub fn min_cost_to(&self) -> &[f64] {
        &self.0.min_resource_to
    }
}

/// Solve `objective` on a built DAG with its [`PlannerPotentials`]:
/// the planner's one solve path. Returns the chosen configuration, or
/// `None` when no feasible configuration exists.
///
/// [`Strategy::ExactCsp`] runs the A*-guided, bound- and
/// incumbent-pruned label search over the DAG's edge store (exactness
/// argument in `astra_graph::csp`; answers bit-identical to the unguided
/// [`solve_reference_csp`], which the equivalence suites gate).
/// [`Strategy::Algorithm1`] uses the time (or cost) potential as an
/// admissible A* heuristic for every Dijkstra round of the paper's
/// edge-removal loop — masking edges only raises distances, so one
/// backward sweep serves all removals. When `telemetry` is enabled,
/// label-search effort is reported through the `planner.csp.labels_*`
/// counters and Algorithm 1 rounds through `planner.alg1.removals`.
///
/// Panics on [`Strategy::Exhaustive`], which never runs on the DAG
/// (see [`solve_exhaustive`]).
pub fn solve_on_dag(
    dag: &PlannerDag,
    potentials: &PlannerPotentials,
    objective: Objective,
    strategy: Strategy,
    telemetry: &astra_telemetry::Telemetry,
) -> Option<JobConfig> {
    let g = dag.graph();
    let (src, dst) = (dag.source(), dag.sink());
    let (lb_time, lb_cost) = (potentials.min_time_to(), potentials.min_cost_to());
    let bound = search_bound(objective);
    match strategy {
        Strategy::ExactCsp => {
            let run = match objective {
                Objective::MinimizeTime { .. } => constrained_shortest_path_with_bounds(
                    &mut g.time_view(),
                    src,
                    dst,
                    bound,
                    lb_time,
                    lb_cost,
                ),
                Objective::MinimizeCost { .. } => constrained_shortest_path_with_bounds(
                    &mut g.cost_view(),
                    src,
                    dst,
                    bound,
                    lb_cost,
                    lb_time,
                ),
            };
            if telemetry.enabled() {
                let s = run.stats;
                telemetry.counter("planner.csp.labels_created", s.labels_created);
                telemetry.counter("planner.csp.labels_settled", s.labels_settled);
                telemetry.counter("planner.csp.labels_pruned", s.pruned_total());
            }
            run.solution.map(|sol| dag.config_for_path(&sol.edges))
        }
        Strategy::Algorithm1 => {
            let sol = match objective {
                Objective::MinimizeTime { .. } => {
                    algorithm1(&mut g.time_view(), src, dst, bound, MAX_ALG1_REMOVALS, lb_time)
                }
                Objective::MinimizeCost { .. } => {
                    algorithm1(&mut g.cost_view(), src, dst, bound, MAX_ALG1_REMOVALS, lb_cost)
                }
            };
            if telemetry.enabled() {
                if let Some(s) = &sol {
                    telemetry.counter("planner.alg1.removals", s.edges_removed as u64);
                }
            }
            sol.map(|s| dag.config_for_path(&s.path.edges))
        }
        Strategy::Exhaustive => {
            unreachable!("Exhaustive does not run on the DAG; use solve_exhaustive")
        }
    }
}

/// The unguided exact label search on `dag` — the reference the guided,
/// potential-pruned [`solve_on_dag`] is checked against (prune and
/// production-scale equivalence suites, `solve_exact_csp` bench row).
pub fn solve_reference_csp(dag: &PlannerDag, objective: Objective) -> Option<JobConfig> {
    let (g, src, dst) = (dag.graph(), dag.source(), dag.sink());
    let bound = search_bound(objective);
    let sol = match objective {
        Objective::MinimizeTime { .. } => {
            constrained_shortest_path(&mut g.time_view(), src, dst, bound)
        }
        Objective::MinimizeCost { .. } => {
            constrained_shortest_path(&mut g.cost_view(), src, dst, bound)
        }
    }?;
    Some(dag.config_for_path(&sol.edges))
}

/// Brute-force reference solver: evaluate every configuration in `space`
/// with the analytical model and pick the constrained optimum.
///
/// Evaluations run in parallel through a shared [`ModelCache`]; the
/// reduction picks the lexicographic minimum of `(objective key,
/// enumeration index)`, which reproduces the serial first-wins tie-break
/// of [`solve_exhaustive_serial`] exactly for every thread count.
pub fn solve_exhaustive(
    job: &JobSpec,
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    objective: Objective,
) -> Option<JobConfig> {
    solve_exhaustive_with_telemetry(
        job,
        platform,
        catalog,
        space,
        objective,
        &astra_telemetry::Telemetry::disabled(),
    )
}

/// [`solve_exhaustive`] with sweep telemetry: counts evaluated, feasible
/// and infeasible configurations (`planner.exhaustive.*`) and the shared
/// model-cache hit rate (`planner.cache.*`). The tallies are relaxed
/// atomics whose totals are interleaving-independent, and the chosen
/// plan is bit-identical to the untraced path.
pub fn solve_exhaustive_with_telemetry(
    job: &JobSpec,
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    objective: Objective,
    telemetry: &astra_telemetry::Telemetry,
) -> Option<JobConfig> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let cache = ModelCache::new(job, platform);
    let configs: Vec<JobConfig> = space.iter_configs(job).collect();
    let traced = telemetry.enabled();
    let (evaluated, feasible_n, infeasible_n) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let best = configs
        .into_par_iter()
        .enumerate()
        .filter_map(|(idx, config)| {
            if traced {
                evaluated.fetch_add(1, Ordering::Relaxed);
            }
            let Ok(ev) = cache.evaluate(&config, catalog) else {
                if traced {
                    infeasible_n.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            };
            let (jct, bill) = (ev.jct_s(), ev.total_cost());
            let feasible = match objective {
                Objective::MinimizeTime { budget } => bill <= budget,
                Objective::MinimizeCost { deadline_s } => jct <= deadline_s,
            };
            if !feasible {
                if traced {
                    infeasible_n.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
            if traced {
                feasible_n.fetch_add(1, Ordering::Relaxed);
            }
            let key = match objective {
                Objective::MinimizeTime { .. } => jct,
                Objective::MinimizeCost { .. } => bill.nanos() as f64,
            };
            Some((key, idx, config))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, _, c)| c);
    if traced {
        telemetry.counter("planner.exhaustive.evaluated", evaluated.into_inner());
        telemetry.counter("planner.exhaustive.feasible", feasible_n.into_inner());
        telemetry.counter("planner.exhaustive.infeasible", infeasible_n.into_inner());
        let stats = cache.stats();
        telemetry.counter("planner.cache.hits", stats.hits);
        telemetry.counter("planner.cache.misses", stats.misses);
        telemetry.gauge("planner.cache.entries", stats.entries as f64);
        telemetry.gauge("planner.cache.hit_rate", stats.hit_rate());
    }
    best
}

/// Single-threaded, uncached reference for [`solve_exhaustive`]: the
/// original sequential sweep, kept verbatim so equivalence tests can
/// assert the parallel+cached path returns bit-identical plans.
pub fn solve_exhaustive_serial(
    job: &JobSpec,
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    objective: Objective,
) -> Option<JobConfig> {
    let mut best: Option<(f64, Money, JobConfig)> = None;
    for config in space.iter_configs(job) {
        let Ok(ev) = evaluate(job, platform, &config, catalog) else {
            continue;
        };
        let (jct, bill) = (ev.jct_s(), ev.total_cost());
        let feasible = match objective {
            Objective::MinimizeTime { budget } => bill <= budget,
            Objective::MinimizeCost { deadline_s } => jct <= deadline_s,
        };
        if !feasible {
            continue;
        }
        let key = match objective {
            Objective::MinimizeTime { .. } => jct,
            Objective::MinimizeCost { .. } => bill.nanos() as f64,
        };
        let better = match &best {
            None => true,
            Some((bk, _, _)) => key < *bk,
        };
        if better {
            best = Some((key, bill, config));
        }
    }
    best.map(|(_, _, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_model::WorkloadProfile;

    fn setup(n: usize, tiers: &[u32]) -> (JobSpec, Platform, PriceCatalog, ConfigSpace, PlannerDag) {
        let job = JobSpec::uniform("t", n, 1.0, WorkloadProfile::uniform_test());
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&job, &platform, tiers);
        let dag = PlannerDag::build(&job, &platform, &catalog, &space);
        (job, platform, catalog, space, dag)
    }

    fn solve(dag: &PlannerDag, objective: Objective, strategy: Strategy) -> Option<JobConfig> {
        let pots = PlannerPotentials::compute(dag);
        let tel = astra_telemetry::Telemetry::disabled();
        solve_on_dag(dag, &pots, objective, strategy, &tel)
    }

    fn eval(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        c: &JobConfig,
    ) -> (f64, Money) {
        let ev = evaluate(job, platform, c, catalog).unwrap();
        (ev.jct_s(), ev.total_cost())
    }

    #[test]
    fn exact_csp_matches_exhaustive_min_time() {
        let (job, platform, catalog, space, dag) = setup(6, &[128, 512, 3008]);
        // Budget between the cheapest and the fastest configurations.
        for budget_frac in [1.1, 1.5, 3.0] {
            let cheapest = solve(&dag, Objective::cheapest(), Strategy::ExactCsp).unwrap();
            let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
            let budget = min_cost.scale(budget_frac);
            let objective = Objective::MinimizeTime { budget };
            let got = solve(&dag, objective, Strategy::ExactCsp).unwrap();
            let want = solve_exhaustive(&job, &platform, &catalog, &space, objective).unwrap();
            let (gt, gc) = eval(&job, &platform, &catalog, &got);
            let (wt, _) = eval(&job, &platform, &catalog, &want);
            assert!((gt - wt).abs() < 1e-9, "time {gt} vs exhaustive {wt}");
            assert!(gc <= budget, "cost {gc} over budget {budget}");
        }
    }

    #[test]
    fn exact_csp_matches_exhaustive_min_cost() {
        let (job, platform, catalog, space, dag) = setup(6, &[128, 512, 3008]);
        let fastest = solve(&dag, Objective::fastest(), Strategy::ExactCsp).unwrap();
        let (min_time, _) = eval(&job, &platform, &catalog, &fastest);
        for slack in [1.2, 2.0, 5.0] {
            let objective = Objective::MinimizeCost {
                deadline_s: min_time * slack,
            };
            let got = solve(&dag, objective, Strategy::ExactCsp).unwrap();
            let want = solve_exhaustive(&job, &platform, &catalog, &space, objective).unwrap();
            let (gt, gc) = eval(&job, &platform, &catalog, &got);
            let (_, wc) = eval(&job, &platform, &catalog, &want);
            assert_eq!(gc, wc, "cost mismatch at slack {slack}");
            assert!(gt <= min_time * slack + 1e-9);
        }
    }

    #[test]
    fn algorithm1_finds_a_feasible_plan() {
        let (job, platform, catalog, _, dag) = setup(6, &[128, 512, 3008]);
        let cheapest = solve(&dag, Objective::cheapest(), Strategy::ExactCsp).unwrap();
        let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
        let budget = min_cost.scale(1.5);
        let objective = Objective::MinimizeTime { budget };
        let got = solve(&dag, objective, Strategy::Algorithm1).unwrap();
        let (_, gc) = eval(&job, &platform, &catalog, &got);
        assert!(gc <= budget);
        // And it can never beat the exact optimum.
        let exact = solve(&dag, objective, Strategy::ExactCsp).unwrap();
        let (te, _) = eval(&job, &platform, &catalog, &exact);
        let (tg, _) = eval(&job, &platform, &catalog, &got);
        assert!(tg >= te - 1e-9);
    }

    #[test]
    fn guided_solver_matches_the_reference_on_both_objectives() {
        let (job, platform, catalog, _, dag) = setup(6, &[128, 512, 3008]);
        let cheapest = solve_reference_csp(&dag, Objective::cheapest()).unwrap();
        let fastest = solve_reference_csp(&dag, Objective::fastest()).unwrap();
        let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
        let (min_time, _) = eval(&job, &platform, &catalog, &fastest);
        for frac in [1.0, 1.05, 1.3, 2.0, 10.0] {
            let o = Objective::MinimizeTime {
                budget: min_cost.scale(frac),
            };
            assert_eq!(
                solve(&dag, o, Strategy::ExactCsp),
                solve_reference_csp(&dag, o),
                "min-time at budget x{frac}"
            );
            let o = Objective::MinimizeCost {
                deadline_s: min_time * frac,
            };
            assert_eq!(
                solve(&dag, o, Strategy::ExactCsp),
                solve_reference_csp(&dag, o),
                "min-cost at deadline x{frac}"
            );
        }
        // Infeasible bound: both say so.
        let o = Objective::MinimizeTime {
            budget: Money::from_nanos(1),
        };
        assert!(solve(&dag, o, Strategy::ExactCsp).is_none());
        assert!(solve_reference_csp(&dag, o).is_none());
    }

    #[test]
    fn guided_algorithm1_matches_zero_bounds_on_the_test_dag() {
        let (job, platform, catalog, _, dag) = setup(6, &[128, 512, 3008]);
        let cheapest = solve(&dag, Objective::cheapest(), Strategy::ExactCsp).unwrap();
        let (_, min_cost) = eval(&job, &platform, &catalog, &cheapest);
        let zero = vec![0.0; dag.graph().node_count()];
        for frac in [1.1, 1.5, 3.0] {
            let o = Objective::MinimizeTime {
                budget: min_cost.scale(frac),
            };
            let plain = algorithm1(
                &mut dag.graph().time_view(),
                dag.source(),
                dag.sink(),
                search_bound(o),
                MAX_ALG1_REMOVALS,
                &zero,
            )
            .map(|s| dag.config_for_path(&s.path.edges));
            assert_eq!(solve(&dag, o, Strategy::Algorithm1), plain, "budget x{frac}");
        }
        let o = Objective::MinimizeTime {
            budget: Money::from_nanos(1),
        };
        assert!(solve(&dag, o, Strategy::Algorithm1).is_none());
    }
}
