//! The correctness oracle: recompute every job's answer with the
//! library, outside the timed window, and compare bit for bit.
//!
//! Plans come from an `Astra` session under the daemon's strategy and
//! prune settings; simulations from `astra_mapreduce::simulate` with
//! `derive_seed(seed, rep)`, one replication at a time. Every job must
//! be `Done`. A `Done` plan whose predicted cost exceeds its budget (in
//! integer nanodollars) or whose JCT exceeds its deadline is counted as
//! a bound violation, not filtered out.

use std::collections::HashMap;

use astra_core::{Astra, Objective, PlannerSession};
use astra_faas::{derive_seed, SimConfig};
use astra_service::{wire, JobSnapshot, JobStatus};
use rayon::prelude::*;

#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: usize,
    pub not_done: Vec<String>,
    pub mismatches: Vec<String>,
    pub bound_violations: u64,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.not_done.is_empty() && self.mismatches.is_empty()
    }
}

/// Grouping key for library sessions: the job spec's wire encoding.
pub fn spec_key(job: &astra_model::JobSpec) -> String {
    wire::job_spec_to_json(job).to_string()
}

fn violates(snap: &JobSnapshot) -> bool {
    let Some(plan) = &snap.plan else { return false };
    match snap.request.objective {
        Objective::MinimizeTime { budget } => plan.predicted_cost.nanos() > budget.nanos(),
        Objective::MinimizeCost { deadline_s } => plan.predicted_jct_s > deadline_s,
    }
}

/// Compare one snapshot with the library's answer; `None` if equal.
fn compare(astra: &Astra, session: &PlannerSession, snap: &JobSnapshot) -> Option<String> {
    let id = snap.id;
    let request = &snap.request;
    let expected = match session.plan(request.objective) {
        Ok(plan) => plan,
        Err(e) => return Some(format!("job {id}: library found no plan: {e}")),
    };
    let got = snap.plan.as_ref()?;
    if got.spec != expected.spec
        || got.predicted_jct_s.to_bits() != expected.predicted_jct_s().to_bits()
        || got.predicted_cost != expected.predicted_cost()
        || got.summary != expected.summary()
    {
        return Some(format!("job {id}: plan differs from the library's"));
    }
    let reps = request.sim.replications as u64;
    match (&snap.sim, reps) {
        (None, 0) => None,
        (Some(sim), reps) if sim.jct_s.len() as u64 == reps => {
            for rep in 0..reps {
                let config = SimConfig::deterministic(astra.platform().clone())
                    .with_catalog(*astra.catalog())
                    .with_noise(request.sim.noise_cv, derive_seed(request.sim.seed, rep));
                let report = match astra_mapreduce::simulate(&request.job, &expected, config) {
                    Ok(report) => report,
                    Err(e) => return Some(format!("job {id}: library simulation failed: {e}")),
                };
                let r = rep as usize;
                if sim.jct_s[r].to_bits() != report.jct_s().to_bits()
                    || sim.cost[r] != report.total_cost()
                    || sim.events[r] != report.events
                {
                    return Some(format!(
                        "job {id}: replication {rep} differs from the library's"
                    ));
                }
            }
            None
        }
        _ => Some(format!("job {id}: wrong number of replications")),
    }
}

/// Check every snapshot. Library sessions are built per distinct job
/// spec, a few at a time (as many as rayon has threads), and dropped
/// once their jobs are checked: analyst specs are many and large.
pub fn check(astra: &Astra, snapshots: &[JobSnapshot]) -> Verdict {
    let mut verdict = Verdict::default();
    let mut groups: Vec<Vec<&JobSnapshot>> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for snap in snapshots {
        if snap.status != JobStatus::Done {
            verdict.not_done.push(format!(
                "job {} ({}): {} — {}",
                snap.id,
                snap.request.name,
                snap.status,
                snap.reason.as_deref().unwrap_or("")
            ));
            continue;
        }
        verdict.bound_violations += violates(snap) as u64;
        let slot = *index.entry(spec_key(&snap.request.job)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(snap);
    }
    for chunk in groups.chunks(rayon::current_num_threads().max(1)) {
        let sessions: Vec<PlannerSession> = chunk
            .par_iter()
            .map(|snaps| astra.session(&snaps[0].request.job))
            .collect();
        let jobs: Vec<(&PlannerSession, &JobSnapshot)> = chunk
            .iter()
            .zip(&sessions)
            .flat_map(|(snaps, session)| snaps.iter().map(move |snap| (session, *snap)))
            .collect();
        verdict.checked += jobs.len();
        let mismatches: Vec<String> = jobs
            .par_iter()
            .filter_map(|(session, snap)| compare(astra, session, snap))
            .collect();
        verdict.mismatches.extend(mismatches);
    }
    verdict
}
