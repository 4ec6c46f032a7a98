//! The traced layer replay: feed a workload's generated requests, one
//! at a time on one thread, through the public function of every layer
//! in pipeline order — decode → space → key → get_or_patch → plan →
//! compile → `SimBatch::run` → journal append → encode → admit — each
//! call a child span of a per-job root span.
//!
//! Every layer is timed from outside, by calling its public function;
//! the daemon code is not modified. Plan-only jobs still go through
//! compile and one simulated replication, so every layer has a figure
//! on every workload.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use astra_core::{
    Astra, ConfigSpace, PlannerPotentials, PlannerSession, PruneConfig, ReplanOutcome,
};
use astra_faas::{derive_seed, SimBatch, SimConfig};
use astra_model::JobSpec;
use astra_service::{
    wire, CacheLookup, JobRequest, JobSnapshot, Journal, ServiceConfig, ServiceDaemon,
    SessionCache, SessionKey,
};
use astra_telemetry::Telemetry;

use crate::gen::Revision;
use crate::trace::Tracer;

/// One job to replay: the request as generated, the daemon's terminal
/// snapshot of it (encoded and journaled by the replay), and whether it
/// revises the previous job's spec (an analyst near-miss).
pub struct ReplayJob<'a> {
    pub request: &'a JobRequest,
    pub snapshot: &'a JobSnapshot,
    pub revision: bool,
}

/// Raw per-call samples, in the unit named by the field.
#[derive(Debug, Default)]
pub struct Samples {
    pub request_bytes: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub space_us: Vec<f64>,
    pub key_us: Vec<f64>,
    pub near_miss_ms: Vec<f64>,
    pub session_build_ms: Vec<f64>,
    pub dag_build_ms: Vec<f64>,
    pub potentials_ms: Vec<f64>,
    pub dag_edges: Vec<f64>,
    pub solve_us: Vec<f64>,
    pub memo_us: Vec<f64>,
    pub compile_us: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub events: Vec<f64>,
    pub journal_append_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub admit_us: Vec<f64>,
    /// `apply_delta` times by the tier it took.
    pub apply_ms: HashMap<&'static str, Vec<f64>>,
    /// Tiers the daemon's own configuration took on revisions.
    pub daemon_tiers: Vec<ReplanOutcome>,
    /// Replayed plans that differ from the daemon's.
    pub mismatches: Vec<String>,
}

fn tier_name(outcome: ReplanOutcome) -> &'static str {
    match outcome {
        ReplanOutcome::Unchanged => "unchanged",
        ReplanOutcome::Patched => "patched",
        ReplanOutcome::Replayed => "replayed",
        ReplanOutcome::Rebuilt => "rebuilt",
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The snapshot as it stood after each transition, for journaling.
fn stages(snap: &JobSnapshot) -> Vec<JobSnapshot> {
    (2..=snap.history.len())
        .map(|k| {
            let mut stage = snap.clone();
            stage.history.truncate(k);
            stage.status = stage.history[k - 1].0;
            stage
        })
        .collect()
}

pub struct Replay<'a> {
    pub config: &'a ServiceConfig,
    pub astra: &'a Astra,
    pub tracer: &'a Tracer,
    pub work_dir: &'a Path,
}

impl Replay<'_> {
    pub fn run(&self, jobs: &[ReplayJob], probe_jobs: &[JobSpec]) -> Samples {
        let mut s = Samples::default();
        let config = self.config;
        let (platform, catalog) = (&config.platform, &config.catalog);
        let (strategy, prune) = (config.strategy, config.prune);
        let cache = SessionCache::new(config.cache_capacity, Telemetry::disabled());
        let journal_path = self.work_dir.join("replay.journal");
        let (journal, _) =
            Journal::open(&journal_path, Telemetry::disabled()).expect("open journal");
        // Admission is timed on a daemon of its own, with no journal and
        // one worker, awaited after each submit so it never overlaps the
        // next call.
        let admit_daemon = ServiceDaemon::start(
            ServiceConfig {
                journal_path: None,
                telemetry: Telemetry::disabled(),
                ..config.clone()
            }
            .with_workers(1),
        );
        let admitter = admit_daemon.handle();
        let mut seen_answers: HashSet<(String, String)> = HashSet::new();
        let mut previous: Option<Arc<PlannerSession>> = None;
        let t = self.tracer;

        for job in jobs {
            let request = job.request;
            let trace = job.snapshot.id;
            let root = t.open_root("replay.job", trace);

            let text = wire::job_request_to_json(request).to_string();
            s.request_bytes.push(text.len() as f64);
            let (decoded, ns) = t.child("wire.decode", trace, root, || {
                wire::job_request_from_str(&text).expect("generated requests decode")
            });
            s.decode_us.push(us(ns));
            assert_eq!(&decoded, request, "wire round trip changed a request");

            let (space, ns) = t.child("space.full", trace, root, || {
                ConfigSpace::full(&request.job, platform)
            });
            s.space_us.push(us(ns));
            let (key, ns) = t.child("cache.key", trace, root, || {
                SessionKey::for_inputs(&request.job, &space, platform, catalog, strategy, prune)
            });
            s.key_us.push(us(ns));
            let key_text = key.as_str().to_string();

            let mut build_ns = None;
            let ((session, lookup), ns) = t.child("cache.get_or_patch", trace, root, || {
                cache.get_or_patch(
                    key,
                    &request.job,
                    &space,
                    platform,
                    catalog,
                    strategy,
                    prune,
                    || {
                        let t0 = astra_telemetry::wall_clock_ns();
                        let built = self.astra.session_with_space(&request.job, &space);
                        build_ns = Some(astra_telemetry::wall_clock_ns() - t0);
                        built
                    },
                )
            });
            if job.revision {
                s.near_miss_ms.push(ms(ns));
            }
            if let Some(build_ns) = build_ns {
                s.session_build_ms.push(ms(build_ns));
                let (dag, ns) = t.child("dag.build", trace, root, || {
                    self.astra.build_dag(&request.job, &space)
                });
                s.dag_build_ms.push(ms(ns));
                s.dag_edges.push(dag.graph().edge_count() as f64);
                let (_, ns) = t.child("dag.potentials", trace, root, || {
                    PlannerPotentials::compute(&dag)
                });
                s.potentials_ms.push(ms(ns));
            }
            if job.revision {
                if let Some(donor) = &previous {
                    let mut patched = (**donor).clone();
                    let (outcome, ns) = t.child("replan.apply_delta", trace, root, || {
                        patched.apply_delta(&request.job, platform, catalog, &space)
                    });
                    s.apply_ms
                        .entry(tier_name(outcome))
                        .or_default()
                        .push(ms(ns));
                    s.daemon_tiers.push(outcome);
                }
            }
            if lookup != CacheLookup::Hit || previous.is_none() {
                previous = Some(Arc::clone(&session));
            }

            let objective = request.objective;
            let fresh = seen_answers.insert((key_text, format!("{objective:?}")));
            let (plan, ns) = t.child("session.plan", trace, root, || {
                session
                    .plan(objective)
                    .expect("generated objectives are feasible")
            });
            if fresh {
                s.solve_us.push(us(ns));
            } else {
                s.memo_us.push(us(ns));
            }
            // The daemon plans every job twice (admission, then the
            // worker); the second is always a memo hit.
            let (_, ns) = t.child("session.plan", trace, root, || session.plan(objective));
            s.memo_us.push(us(ns));
            if job.snapshot.plan.as_ref().map(|p| &p.spec) != Some(&plan.spec) {
                s.mismatches.push(format!(
                    "job {trace}: replayed plan differs from the daemon's"
                ));
            }

            let (compiled, ns) = t.child("mapreduce.compile", trace, root, || {
                astra_mapreduce::compile(&request.job, &plan)
            });
            s.compile_us.push(us(ns));
            let reps = request.sim.replications.max(1) as u64;
            let mut batch = SimBatch::with_capacity(reps as usize);
            for rep in 0..reps {
                let config = SimConfig::deterministic(platform.clone())
                    .with_catalog(*catalog)
                    .with_noise(request.sim.noise_cv, derive_seed(request.sim.seed, rep));
                batch.push(config, compiled.roots.clone(), compiled.inputs.clone());
            }
            let (reports, ns) = t.child("faas.batch", trace, root, || batch.run());
            s.batch_ms.push(ms(ns));
            s.events.push(
                reports
                    .iter()
                    .map(|r| r.as_ref().map(|r| r.events).unwrap_or(0))
                    .sum::<u64>() as f64,
            );

            let snapshot = job.snapshot;
            let staged = stages(snapshot);
            let (_, ns) = t.child("journal.append", trace, root, || {
                journal.record_submitted(snapshot.id, request, snapshot.history[0].1);
                for stage in &staged {
                    journal.record_transition(stage);
                }
            });
            s.journal_append_us.push(us(ns));
            let (_, ns) = t.child("wire.encode", trace, root, || {
                wire::snapshot_to_json(snapshot).to_string()
            });
            s.encode_us.push(us(ns));

            let (id, ns) = t.child("daemon.submit", trace, root, || {
                admitter.submit(request.clone())
            });
            s.admit_us.push(us(ns));
            t.child("daemon.await", trace, root, || admitter.await_done(id));
            t.close_root(root);
        }

        self.probe_deltas(&mut s, probe_jobs);
        drop(admitter);
        admit_daemon.shutdown();
        drop(journal);
        let _ = std::fs::remove_file(&journal_path);
        s
    }

    /// Near-miss probe: a 0.1% coefficient and object-size revision of
    /// each probe job, through `get_or_patch` and `apply_delta` under the
    /// daemon's prune settings, and through `apply_delta` with pruning
    /// off — the only setting whose coefficient deltas take the fast
    /// patch tier.
    fn probe_deltas(&self, s: &mut Samples, probe_jobs: &[JobSpec]) {
        let config = self.config;
        let (platform, catalog) = (&config.platform, &config.catalog);
        let unpruned = self.astra.clone().with_prune_config(PruneConfig::off());
        let revisions = [Revision::MapCoeff(1.001), Revision::ObjectSizes(1.001)];
        // The rebuilt ratio describes the workload's own revisions when
        // it has any, else the probe's daemon-configuration ones.
        let count_tiers = s.daemon_tiers.is_empty();
        for donor in probe_jobs {
            let cache = SessionCache::new(config.cache_capacity, Telemetry::disabled());
            let space = ConfigSpace::full(donor, platform);
            let key = |job: &JobSpec, space: &ConfigSpace| {
                SessionKey::for_inputs(job, space, platform, catalog, config.strategy, config.prune)
            };
            let (session, _) = cache.get_or_patch(
                key(donor, &space),
                donor,
                &space,
                platform,
                catalog,
                config.strategy,
                config.prune,
                || self.astra.session_with_space(donor, &space),
            );
            let session_off = unpruned.session_with_space(donor, &space);
            for revision in revisions {
                let job = revision.apply(donor);
                let space = ConfigSpace::full(&job, platform);
                for (base, daemon_config) in [(&*session, true), (&session_off, false)] {
                    let mut patched = base.clone();
                    let (outcome, ns) = self.tracer.child("probe.apply_delta", 0, 0, || {
                        patched.apply_delta(&job, platform, catalog, &space)
                    });
                    s.apply_ms
                        .entry(tier_name(outcome))
                        .or_default()
                        .push(ms(ns));
                    if daemon_config && count_tiers {
                        s.daemon_tiers.push(outcome);
                    }
                }
                let probe_key = key(&job, &space);
                let (_, ns) = self.tracer.child("probe.get_or_patch", 0, 0, || {
                    cache.get_or_patch(
                        probe_key,
                        &job,
                        &space,
                        platform,
                        catalog,
                        config.strategy,
                        config.prune,
                        || self.astra.session_with_space(&job, &space),
                    )
                });
                s.near_miss_ms.push(ms(ns));
            }
        }
    }
}
