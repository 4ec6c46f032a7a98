//! Golden planner answers: every session answer and every planner-DAG
//! edge store must equal the values pinned in `tests/data/planner_golden.txt`.
//!
//! The prune, replan and parallel suites compare the planner with
//! itself; this suite compares it with a recorded earlier version, so a
//! refactor of the edge store or the solvers that changed any answer, any
//! tie-break or any float bit of an edge would fail here.
//!
//! Coverage: the three paper jobs on two platforms over 3-tier reduced
//! spaces, plus wordcount-1gb on the full 46-tier space. For each, three
//! sessions (exact CSP pruned, exact CSP unpruned, Algorithm 1) answer
//! cheapest, fastest, 8 budgets and 8 deadlines. Each session's DAG is
//! recorded as its node and edge counts and an FNV-1a hash over the
//! store read through `EdgeExpand` (per node in id order: out-degree,
//! then per slot the head, time bits and cost bits; then the topological
//! order). Edge ids are not hashed.
//!
//! On a mismatch the computed text is written to
//! `$CARGO_TARGET_TMPDIR/planner_golden.actual.txt`; regenerating the
//! fixture means copying that file over it, which is only right when an
//! answer change is intended.

use astra::core::{ConfigSpace, Objective, PlannerSession, PruneConfig, Strategy};
use astra::graph::csp::EdgeExpand;
use astra::model::{JobConfig, JobSpec, Platform};
use astra::pricing::{Money, PriceCatalog};
use astra::workloads::WorkloadSpec;

const FIXTURE: &str = include_str!("data/planner_golden.txt");

/// Fold `bytes` into the 64-bit FNV-1a hash `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

/// First, middle and last valid tier (as `parallel_equivalence` picks).
fn reduced_space(job: &JobSpec, platform: &Platform) -> ConfigSpace {
    let full = ConfigSpace::full(job, platform);
    let tiers = &full.memory_tiers_mb;
    let picks = [tiers[0], tiers[tiers.len() / 2], tiers[tiers.len() - 1]];
    ConfigSpace::with_tiers(job, platform, &picks)
}

fn cases() -> Vec<(String, JobSpec, Platform, ConfigSpace)> {
    let jobs = [
        ("wordcount-1gb", WorkloadSpec::wordcount_gb(1).into_job()),
        ("sort-100gb", WorkloadSpec::Sort100.into_job()),
        ("query", WorkloadSpec::QueryUservisits.into_job()),
    ];
    let platforms = [
        ("paper-literal", Platform::paper_literal(10.0)),
        ("aws-lambda", Platform::aws_lambda()),
    ];
    let mut out = Vec::new();
    for (jname, job) in &jobs {
        for (pname, platform) in &platforms {
            let (case, space) = (format!("{jname}/{pname}/3-tier"), reduced_space(job, platform));
            out.push((case, job.clone(), platform.clone(), space));
        }
    }
    let job = WorkloadSpec::wordcount_gb(1).into_job();
    let platform = Platform::aws_lambda();
    let space = ConfigSpace::full(&job, &platform);
    assert_eq!(space.memory_tiers_mb.len(), 46, "paper tier count");
    out.push(("wordcount-1gb/aws-lambda/full".to_string(), job, platform, space));
    out
}

fn config_text(c: Option<JobConfig>) -> String {
    match c {
        None => "none".to_string(),
        Some(c) => format!(
            "map={} coord={} red={} k_m={} k_r={}",
            c.mapper_mem_mb,
            c.coordinator_mem_mb,
            c.reducer_mem_mb,
            c.objects_per_mapper,
            c.objects_per_reducer
        ),
    }
}

fn objective_text(o: &Objective) -> String {
    match *o {
        Objective::MinimizeTime { budget } => format!("budget={}", budget.nanos()),
        Objective::MinimizeCost { deadline_s } => format!("deadline={:016x}", deadline_s.to_bits()),
    }
}

/// Node count, edge count and store hash of one session's DAG.
fn store_text(session: &PlannerSession) -> String {
    let dag = session.dag();
    let mut view = dag.graph().time_view();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in 0..view.node_count() as u32 {
        let mut slots = Vec::new();
        view.for_each_out(v, |_, head, time, cost| {
            slots.extend(head.to_le_bytes());
            slots.extend(time.to_bits().to_le_bytes());
            slots.extend(cost.to_bits().to_le_bytes());
        });
        fnv(&mut h, &(slots.len() as u32 / 20).to_le_bytes());
        fnv(&mut h, &slots);
    }
    for v in view.topo_order().expect("planner DAG is acyclic") {
        fnv(&mut h, &v.to_le_bytes());
    }
    format!(
        "nodes={} edges={} hash={:016x}",
        dag.graph().node_count(),
        dag.graph().edge_count(),
        h
    )
}

/// Cheapest, fastest, 8 budgets and 8 deadlines spanning just below
/// the cheapest plan's cost (or the fastest plan's time) to well past
/// the other end.
fn objectives(reference: &PlannerSession) -> Vec<Objective> {
    let cheapest = reference.plan(Objective::cheapest()).expect("cheapest plan");
    let fastest = reference.plan(Objective::fastest()).expect("fastest plan");
    let (c_lo, c_hi) = (
        cheapest.predicted_cost().nanos(),
        fastest.predicted_cost().nanos(),
    );
    let (t_lo, t_hi) = (fastest.predicted_jct_s(), cheapest.predicted_jct_s());
    let mut out = vec![Objective::cheapest(), Objective::fastest()];
    // Fractions of the span in 1/20ths: -1/20 .. 30/20.
    for num in [-1i128, 0, 2, 5, 10, 15, 20, 30] {
        out.push(Objective::MinimizeTime {
            budget: Money::from_nanos(c_lo + (c_hi - c_lo) * num / 20),
        });
        out.push(Objective::MinimizeCost {
            deadline_s: t_lo + (t_hi - t_lo) * (num as f64 / 20.0),
        });
    }
    out
}

fn golden_text() -> String {
    let catalog = PriceCatalog::aws_2020();
    let strategies = [
        ("exact-pruned", Strategy::ExactCsp, PruneConfig::on()),
        ("exact-unpruned", Strategy::ExactCsp, PruneConfig::off()),
        ("alg1", Strategy::Algorithm1, PruneConfig::on()),
    ];
    let mut text = String::new();
    for (case, job, platform, space) in cases() {
        let sessions: Vec<(&str, PlannerSession)> = strategies
            .iter()
            .map(|&(name, strategy, prune)| {
                let (p, s) = (platform.clone(), space.clone());
                (name, PlannerSession::new(&job, p, catalog, s, strategy, prune))
            })
            .collect();
        let objectives = objectives(&sessions[0].1);
        for (name, session) in &sessions {
            text.push_str(&format!("{case} {name} dag {}\n", store_text(session)));
            for o in &objectives {
                text.push_str(&format!(
                    "{case} {name} {} -> {}\n",
                    objective_text(o),
                    config_text(session.solve(*o))
                ));
            }
        }
    }
    text
}

#[test]
fn planner_answers_and_stores_match_the_golden_fixture() {
    let actual = golden_text();
    if actual != FIXTURE {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("planner_golden.actual.txt");
        let _ = std::fs::write(&path, &actual);
        let line = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, e)| a != e)
            .map_or("the end".to_string(), |i| format!("line {}", i + 1));
        panic!("golden mismatch at {line}; computed text written to {}", path.display());
    }
}
