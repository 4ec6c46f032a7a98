//! Fixed-size planner benchmark runner with a regression gate.
//!
//! Unlike the Criterion benches (exploratory, human-read), this runner
//! executes a pinned set of planner benchmarks — DAG construction
//! (serial and parallel, plus the dominance-pruned build), the ExactCsp
//! solve (plain and potential-guided), the 16-bound session sweep
//! (cold rebuilds vs one reused `PlannerSession`), and the exhaustive
//! sweep (serial and parallel) — at fixed sizes including the
//! paper-scale N=202 / L=46 case, plus the production-scale collapsed
//! entries (`dag_build_collapsed/N1e5`, `solve_csp_collapsed/N1e5`,
//! run at every size setting), and emits a machine-readable
//! `BENCH_planner.json`.
//!
//! ```text
//! astra-bench [--out FILE]          write results (default BENCH_planner.json)
//!             [--check BASELINE]    compare against a baseline instead; exit 1
//!                                   if any shared metric regressed > tolerance
//!             [--tolerance FRAC]    allowed relative slowdown (default 0.20)
//!             [--sizes tiny|full]   tiny = N=10 only (CI); full = 10/50/202
//!             [--samples N]         timed samples per bench (default 5)
//!             [--threads N]         pin the planner thread count
//!             [--no-prune]          run the pruning-aware entries unpruned
//! ```
//!
//! Regression checks compare `min_ms` (the most noise-robust statistic a
//! small sample offers) for every bench name present in both files. The
//! historical entries (`dag_build_*`, `solve_exact_csp`) deliberately
//! keep measuring the *unpruned* DAG and the plain label search, so
//! their numbers stay comparable across baselines; the dominance-pruned
//! planner core is tracked by `dag_build_pruned`, `solve_csp_potentials`
//! and the `session_sweep_*` pair.

use astra_bench::runner::{run_cli, time_ms, BenchArgs};
use astra_bench::{binding_budget, full_space, planner, production_job, synthetic_job};
use astra_core::solver::{
    solve_exhaustive, solve_exhaustive_serial, solve_on_dag, solve_reference_csp,
};
use astra_core::{ConfigSpace, Objective, PlannerDag, PlannerPotentials, PruneConfig, Strategy};
use serde_json::{json, Value};

/// Bounds answered by every session-sweep cycle (the acceptance target
/// compares one reused session against this many cold build+solve runs).
const SWEEP_BOUNDS: usize = 16;

/// Run `f` with the rayon pool pinned to one thread, then restore the
/// thread count in effect before.
fn on_one_thread<T>(f: impl FnOnce() -> T) -> T {
    let threads = rayon::current_num_threads();
    let _ = rayon::ThreadPoolBuilder::new().num_threads(1).build_global();
    let out = f();
    let _ = rayon::ThreadPoolBuilder::new().num_threads(threads).build_global();
    out
}

fn run_suite(args: &BenchArgs) -> Value {
    let astra = planner(Strategy::ExactCsp);
    let prune = if args.no_prune {
        PruneConfig::off()
    } else {
        PruneConfig::on()
    };
    let mut results: Vec<Value> = Vec::new();
    let mut speedups: Vec<Value> = Vec::new();

    let push = |results: &mut Vec<Value>, name: String, n: usize, tiers: usize, mean: f64, min: f64| {
        eprintln!("bench {name}: mean {mean:.2} ms, min {min:.2} ms");
        results.push(json!({
            "name": name,
            "n": n,
            "tiers": tiers,
            "mean_ms": mean,
            "min_ms": min,
        }));
    };

    for &n in &args.sizes {
        let job = synthetic_job(n);
        let space = full_space(&astra, &job);
        let tiers = space.memory_tiers_mb.len();

        // Historical entries: the full (unpruned) Fig. 5 DAG and the
        // plain lexicographic label search, exactly as every committed
        // baseline measured them. The serial build is the parallel build
        // on a one-thread pool.
        let mut build_min = [0.0; 2];
        for (i, kind) in ["serial", "parallel"].into_iter().enumerate() {
            let build = || {
                time_ms(args.samples, || {
                    let (platform, catalog) = (astra.platform(), astra.catalog());
                    PlannerDag::build_with(&job, platform, catalog, &space, PruneConfig::off())
                })
            };
            let (mean, min) = if i == 0 { on_one_thread(build) } else { build() };
            push(&mut results, format!("dag_build_{kind}/N{n}"), n, tiers, mean, min);
            build_min[i] = min;
        }
        let [serial_min, par_min] = build_min;
        speedups.push(json!({
            "name": format!("dag_build/N{n}"),
            "serial_ms": serial_min,
            "parallel_ms": par_min,
            "speedup": serial_min / par_min,
        }));

        // The dominance-pruned parallel build (what planning actually
        // runs now): pays the Pareto filters, produces a smaller DAG.
        let (pb_mean, pb_min) = time_ms(args.samples, || {
            PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune)
        });
        push(
            &mut results,
            format!("dag_build_pruned/N{n}"),
            n,
            tiers,
            pb_mean,
            pb_min,
        );

        let full_dag = PlannerDag::build_with(
            &job,
            astra.platform(),
            astra.catalog(),
            &space,
            PruneConfig::off(),
        );
        let objective = binding_budget(&astra, &job);
        let (csp_mean, csp_min) =
            time_ms(args.samples, || solve_reference_csp(&full_dag, objective));
        push(
            &mut results,
            format!("solve_exact_csp/N{n}"),
            n,
            tiers,
            csp_mean,
            csp_min,
        );

        // The potential-guided search on the (default: pruned) DAG —
        // the successor entry the ≥2× acceptance criterion tracks.
        let pruned_dag =
            PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune);
        let potentials = PlannerPotentials::compute(&pruned_dag);
        let tel = astra_telemetry::Telemetry::disabled();
        let (pot_mean, pot_min) = time_ms(args.samples, || {
            solve_on_dag(
                &pruned_dag,
                &potentials,
                objective,
                Strategy::ExactCsp,
                &tel,
            )
        });
        push(
            &mut results,
            format!("solve_csp_potentials/N{n}"),
            n,
            tiers,
            pot_mean,
            pot_min,
        );
        speedups.push(json!({
            "name": format!("csp_potentials/N{n}"),
            "serial_ms": csp_min,
            "parallel_ms": pot_min,
            "speedup": csp_min / pot_min,
        }));

        // Constraint sweep: answer SWEEP_BOUNDS budgets, once with a
        // cold build+solve per budget (the pre-session workflow) and
        // once through a single reused PlannerSession. Cold cycles at
        // paper scale run multi-second, so they get fewer samples.
        let budgets: Vec<Objective> = {
            let cheapest = astra.plan(&job, Objective::cheapest()).unwrap();
            let fastest = astra.plan(&job, Objective::fastest()).unwrap();
            let lo = cheapest.predicted_cost().nanos();
            let hi = fastest.predicted_cost().nanos();
            (0..SWEEP_BOUNDS)
                .map(|i| Objective::MinimizeTime {
                    budget: astra_pricing::Money::from_nanos(
                        lo + (hi - lo) * i as i128 / (SWEEP_BOUNDS - 1) as i128,
                    ),
                })
                .collect()
        };
        let cold_samples = if n >= 100 { args.samples.min(2) } else { args.samples };
        let cold_astra = astra.clone().with_prune_config(prune);
        let (cold_mean, cold_min) = time_ms(cold_samples, || {
            budgets
                .iter()
                .filter(|&&o| cold_astra.plan(&job, o).is_ok())
                .count()
        });
        push(
            &mut results,
            format!("session_sweep_cold/N{n}"),
            n,
            tiers,
            cold_mean,
            cold_min,
        );
        let session_astra = astra.clone().with_prune_config(prune);
        let (warm_mean, warm_min) = time_ms(args.samples, || {
            let session = session_astra.session(&job);
            budgets
                .iter()
                .filter(|&&o| session.plan(o).is_ok())
                .count()
        });
        push(
            &mut results,
            format!("session_sweep_reused/N{n}"),
            n,
            tiers,
            warm_mean,
            warm_min,
        );
        speedups.push(json!({
            "name": format!("session_sweep/N{n}"),
            "serial_ms": cold_min,
            "parallel_ms": warm_min,
            "speedup": cold_min / warm_min,
        }));

        // Incremental re-planning: answer a changed-input re-quote by
        // patching one live PlannerSession in place (apply_delta: edge
        // recost + potentials resume + memo invalidation) vs the cold
        // workflow (fresh session per delta). Both run unpruned — the
        // configuration on which coefficient and price deltas stay on
        // the in-place recost tier — and both solve the same binding
        // budget after every delta. Samples rotate through
        // [coeff+, price+, coeff−, price−], so `min_ms` reflects a
        // mapper-coefficient patch and `mean_ms` mixes in the heavier
        // price repass; the warmup sample also absorbs the session's
        // lazy recost-plan capture.
        let platform = astra.platform().clone();
        // The coefficient tweak must not push any mapper phase across
        // the lambda timeout gate: a flipped gate changes the DAG shape
        // and the patch tier (correctly) falls back to a rebuild. The
        // safe margin depends on N — at N=202 some phases sit within 5%
        // of the timeout — so probe from the largest tweak downward and
        // bench the first one that stays on the patch tier.
        let coeff_mult = {
            let base = astra_core::PlannerSession::new(
                &job,
                platform.clone(),
                *astra.catalog(),
                space.clone(),
                Strategy::ExactCsp,
                PruneConfig::off(),
            );
            [1.05, 1.02, 1.01, 1.005, 1.001]
                .into_iter()
                .find(|&m| {
                    let mut probe = base.clone();
                    let mut tweaked = job.clone();
                    tweaked.profile.map_secs_per_mb_128 *= m;
                    probe.apply_delta(&tweaked, &platform, astra.catalog(), &space)
                        == astra_core::ReplanOutcome::Patched
                })
                .expect("every probed coefficient tweak crossed the timeout gate")
        };
        let variants: Vec<(astra_model::JobSpec, astra_pricing::PriceCatalog)> = {
            let mut tweaked = job.clone();
            tweaked.profile.map_secs_per_mb_128 *= coeff_mult;
            let mut pricier = *astra.catalog();
            pricier.lambda.per_gb_second = pricier.lambda.per_gb_second.scale(2.0);
            vec![
                (tweaked.clone(), *astra.catalog()),
                (tweaked, pricier),
                (job.clone(), pricier),
                (job.clone(), *astra.catalog()),
            ]
        };
        let mut step = 0usize;
        let (rc_mean, rc_min) = time_ms(args.samples, || {
            let (j, c) = &variants[step % variants.len()];
            step += 1;
            let session = astra_core::PlannerSession::new(
                j,
                platform.clone(),
                *c,
                space.clone(),
                Strategy::ExactCsp,
                PruneConfig::off(),
            );
            session.solve(objective).is_some()
        });
        push(
            &mut results,
            format!("session_replan_cold/N{n}"),
            n,
            tiers,
            rc_mean,
            rc_min,
        );
        let mut session = astra_core::PlannerSession::new(
            &job,
            platform.clone(),
            *astra.catalog(),
            space.clone(),
            Strategy::ExactCsp,
            PruneConfig::off(),
        );
        let mut step = 0usize;
        let (rd_mean, rd_min) = time_ms(args.samples, || {
            let (j, c) = &variants[step % variants.len()];
            step += 1;
            let outcome = session.apply_delta(j, &platform, c, &space);
            assert_eq!(
                outcome,
                astra_core::ReplanOutcome::Patched,
                "replan bench delta fell off the patch tier"
            );
            session.solve(objective).is_some()
        });
        push(
            &mut results,
            format!("session_replan_delta/N{n}"),
            n,
            tiers,
            rd_mean,
            rd_min,
        );
        speedups.push(json!({
            "name": format!("session_replan/N{n}"),
            "serial_ms": rc_min,
            "parallel_ms": rd_min,
            "speedup": rc_min / rd_min,
        }));
    }

    // Production-N planning: the bundled (collapsed) configuration
    // space at N=100 000, on the aggregation-shaped production job
    // (`uniform_test`'s ratio-1.0 profile is infeasible at this N).
    // The full Fig. 5 space is quadratic in N and
    // hopeless at this scale; the collapsed space keeps one
    // representative k_M per parallelism class and a geometric k_R
    // ladder, so the whole build + potentials + guided-CSP cycle is
    // the thing the <1 s acceptance budget gates. Runs under every
    // `--sizes` setting — sub-second at production N is the point.
    {
        let n = 100_000;
        let job = production_job(n);
        let space = ConfigSpace::bundled(&job, astra.platform());
        let tiers = space.memory_tiers_mb.len();
        let samples = args.samples.min(3);
        let (cb_mean, cb_min) = time_ms(samples, || {
            PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune)
        });
        push(
            &mut results,
            "dag_build_collapsed/N1e5".to_string(),
            n,
            tiers,
            cb_mean,
            cb_min,
        );
        let dag = PlannerDag::build_with(&job, astra.platform(), astra.catalog(), &space, prune);
        let objective = {
            let cheapest = astra
                .plan_with_space(&job, Objective::cheapest(), &space)
                .unwrap();
            let fastest = astra
                .plan_with_space(&job, Objective::fastest(), &space)
                .unwrap();
            let lo = cheapest.predicted_cost().nanos();
            let hi = fastest.predicted_cost().nanos();
            Objective::MinimizeTime {
                budget: astra_pricing::Money::from_nanos((lo + hi) / 2),
            }
        };
        let tel = astra_telemetry::Telemetry::disabled();
        // Potentials are timed inside the solve entry: a cold
        // constrained solve always pays for its own lower bounds.
        let (cs_mean, cs_min) = time_ms(samples, || {
            let potentials = PlannerPotentials::compute(&dag);
            solve_on_dag(
                &dag,
                &potentials,
                objective,
                Strategy::ExactCsp,
                &tel,
            )
        });
        push(
            &mut results,
            "solve_csp_collapsed/N1e5".to_string(),
            n,
            tiers,
            cs_mean,
            cs_min,
        );
    }

    // Exhaustive sweep on a reduced tier set (the full 46-tier cube is
    // validation-only and combinatorially far larger than planning).
    {
        let n = args.sizes[0];
        let job = synthetic_job(n);
        let space = ConfigSpace::with_tiers(&job, astra.platform(), &[128, 512, 1024, 3008]);
        let tiers = space.memory_tiers_mb.len();
        let objective = binding_budget(&astra, &job);
        let (se_mean, se_min) = time_ms(args.samples, || {
            solve_exhaustive_serial(&job, astra.platform(), astra.catalog(), &space, objective)
        });
        push(
            &mut results,
            format!("exhaustive_serial/N{n}"),
            n,
            tiers,
            se_mean,
            se_min,
        );
        let (pe_mean, pe_min) = time_ms(args.samples, || {
            solve_exhaustive(&job, astra.platform(), astra.catalog(), &space, objective)
        });
        push(
            &mut results,
            format!("exhaustive_parallel/N{n}"),
            n,
            tiers,
            pe_mean,
            pe_min,
        );
        speedups.push(json!({
            "name": format!("exhaustive/N{n}"),
            "serial_ms": se_min,
            "parallel_ms": pe_min,
            "speedup": se_min / pe_min,
        }));
    }

    json!({
        "schema_version": 1,
        "suite": "astra-planner-bench",
        "cores": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "threads": rayon::current_num_threads(),
        "samples": args.samples,
        "no_prune": args.no_prune,
        "results": results,
        "speedups": speedups,
    })
}

fn main() {
    run_cli(
        "astra-bench",
        "BENCH_planner.json",
        &[10],
        &[10, 50, 202],
        run_suite,
    );
}
