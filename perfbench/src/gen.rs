//! Seeded request generation: the warmed shape catalogue, open-loop
//! arrival schedules, saturating bursts and analyst re-quote sessions.
//!
//! Everything here is a pure function of the seed and of the feasible
//! ranges passed in, so the same seed replays the same request stream
//! byte for byte. Budgets and deadlines are drawn from a grid strictly
//! inside each shape's `[cheapest, fastest]` range, which the caller
//! computes from the library at set-up: no generated job is infeasible.

use astra_core::Objective;
use astra_model::{JobSpec, WorkloadProfile};
use astra_pricing::Money;
use astra_service::{JobRequest, SimOptions};
use astra_workloads::{profiles, WorkloadSpec};

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s,
    /// in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        (-self.unit().ln() / rate * 1e9) as u64
    }
}

/// Tenants and their traffic shares (percent).
pub const TENANTS: [(&str, u64); 3] = [("tenant-a", 60), ("tenant-b", 30), ("tenant-c", 10)];

fn draw_tenant(rng: &mut Rng) -> &'static str {
    let mut roll = rng.below(100);
    for (name, share) in TENANTS {
        if roll < share {
            return name;
        }
        roll -= share;
    }
    unreachable!("shares sum to 100")
}

/// Grid points per shape and objective family: 384 distinct objectives
/// over the catalogue. The first ask of each runs a label search, and
/// repeats are served from the session memo, so searches are a few
/// percent of a run's jobs and set its p99 by their own cost. With 256
/// points they were about a quarter of the jobs, and p50 and p99 moved
/// with how many of them a run met.
pub const GRID: u64 = 32;

/// One catalogue job shape with its feasible objective ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub job: JobSpec,
    /// Cost of the cheapest plan (the lowest feasible budget).
    pub cost_lo: Money,
    /// Cost of the fastest plan (budgets above it change nothing).
    pub cost_hi: Money,
    /// JCT of the fastest plan (the tightest feasible deadline).
    pub jct_lo: f64,
    /// JCT of the cheapest plan (deadlines above it change nothing).
    pub jct_hi: f64,
}

impl Shape {
    /// Budget at grid point `i` of `grid`, `1 ≤ i ≤ grid`: strictly
    /// between the cheapest and the fastest plan's cost.
    pub fn budget_at(&self, i: u64, grid: u64) -> Money {
        let (lo, hi) = (self.cost_lo.nanos(), self.cost_hi.nanos());
        Money::from_nanos(lo + (hi - lo) * i as i128 / (grid + 1) as i128)
    }

    /// Deadline at grid point `i` of `grid`: strictly between the
    /// fastest and the cheapest plan's JCT.
    pub fn deadline_at(&self, i: u64, grid: u64) -> f64 {
        self.jct_lo + (self.jct_hi - self.jct_lo) * i as f64 / (grid + 1) as f64
    }

    /// True when the ranges leave room for strictly-inside draws.
    pub fn has_interior(&self) -> bool {
        self.cost_hi.nanos() - self.cost_lo.nanos() > (GRID + 1) as i128
            && self.jct_hi > self.jct_lo
    }
}

/// The catalogue's jobs: the five paper workloads plus one N=1000 job
/// with the query profile.
///
/// Latency falls into three clusters by shape — the three wordcount
/// jobs, Sort and Query, and the N=1000 job — and a quantile that lands
/// in the gap between two clusters jumps with every small change in the
/// mix. [`CATALOGUE_WEIGHTS`] (in the order returned here) put the
/// median inside the Sort/Query cluster (3/8 of jobs lie below it, 1/8
/// above) and p99 inside the N=1000 one.
pub fn catalogue_jobs() -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = WorkloadSpec::paper_suite()
        .into_iter()
        .map(|w| w.into_job())
        .collect();
    jobs.push(JobSpec::uniform(
        "query-n1000",
        1000,
        25.4,
        profiles::query(),
    ));
    jobs
}

/// Relative traffic share of each catalogue job (see [`catalogue_jobs`]).
pub const CATALOGUE_WEIGHTS: [u64; 6] = [1, 1, 1, 2, 2, 1];

/// A request and its scheduled send time, relative to the phase start.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    pub at_ns: u64,
    pub request: JobRequest,
}

/// The golden-ratio step: `frac(start + k·GOLDEN)` covers `[0, 1)`
/// evenly for every prefix `k < K`.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// Draws catalogue requests: the shape by [`CATALOGUE_WEIGHTS`], the
/// tenant by share, the objective family by a coin, and the grid point
/// of each (shape, family) along a golden-ratio sequence from a seeded
/// start. Plans on some grid points cost far more to simulate than
/// others, so independent draws would give each run a different amount
/// of work; the sequence gives every run an even cover of the grid.
struct Mix<'a> {
    catalogue: &'a [Shape],
    rng: Rng,
    start: f64,
    /// Draws so far per (shape, objective family).
    drawn: Vec<[u64; 2]>,
}

impl<'a> Mix<'a> {
    fn new(catalogue: &'a [Shape], seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let start = rng.unit();
        Mix {
            catalogue,
            rng,
            start,
            drawn: vec![[0; 2]; catalogue.len()],
        }
    }

    /// A plan-only request.
    fn request(&mut self, name: String) -> JobRequest {
        let index = self.draw_shape();
        let shape = &self.catalogue[index];
        let tenant = draw_tenant(&mut self.rng);
        let family = self.rng.below(2) as usize;
        let k = self.drawn[index][family];
        self.drawn[index][family] += 1;
        let x = (self.start + k as f64 * GOLDEN).fract();
        let point = 1 + (x * GRID as f64) as u64;
        let objective = if family == 0 {
            Objective::MinimizeTime {
                budget: shape.budget_at(point, GRID),
            }
        } else {
            Objective::MinimizeCost {
                deadline_s: shape.deadline_at(point, GRID),
            }
        };
        let sim = SimOptions {
            noise_cv: 0.0,
            seed: self.rng.next_u64(),
            replications: 0,
        };
        JobRequest::new(name, shape.job.clone(), objective)
            .with_tenant(tenant)
            .with_sim(sim)
    }

    fn draw_shape(&mut self) -> usize {
        let total: u64 = CATALOGUE_WEIGHTS.iter().sum();
        let mut roll = self.rng.below(total);
        for (index, weight) in CATALOGUE_WEIGHTS.into_iter().enumerate() {
            if roll < weight {
                return index;
            }
            roll -= weight;
        }
        unreachable!("one weight per catalogue job")
    }
}

/// Poisson arrivals at `rate`/s over `seconds`.
pub fn open_loop(catalogue: &[Shape], rate: f64, seconds: f64, seed: u64) -> Vec<Scheduled> {
    let mut mix = Mix::new(catalogue, seed);
    let mut arrivals = Rng::new(seed ^ 0xA881_7A15);
    let end_ns = (seconds * 1e9) as u64;
    let mut events = Vec::new();
    let mut at_ns = arrivals.exp_gap_ns(rate);
    while at_ns < end_ns {
        let request = mix.request(format!("ol-{}", events.len()));
        events.push(Scheduled { at_ns, request });
        at_ns += arrivals.exp_gap_ns(rate);
    }
    events
}

/// `count` jobs of the workload's own mix, for saturating burst number
/// `round`.
pub fn burst(catalogue: &[Shape], round: u64, count: usize, seed: u64) -> Vec<JobRequest> {
    let mut mix = Mix::new(catalogue, seed ^ 0xB0B5_7000 ^ (round << 32));
    (0..count)
        .map(|i| mix.request(format!("burst{round}-{i}")))
        .collect()
}

/// How one re-quote revises the previous spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Revision {
    /// Scale the mapper coefficient.
    MapCoeff(f64),
    /// Scale the reducer coefficient.
    ReduceCoeff(f64),
    /// Scale every object size.
    ObjectSizes(f64),
}

impl Revision {
    pub fn apply(self, job: &JobSpec) -> JobSpec {
        let mut job = job.clone();
        match self {
            Revision::MapCoeff(f) => job.profile.map_secs_per_mb_128 *= f,
            Revision::ReduceCoeff(f) => job.profile.reduce_secs_per_mb_128 *= f,
            Revision::ObjectSizes(f) => job.object_sizes_mb.iter_mut().for_each(|mb| *mb *= f),
        }
        job
    }
}

/// The profiles an analyst works with, with their paper object sizes.
pub fn analyst_profiles() -> Vec<(WorkloadProfile, f64)> {
    vec![
        (profiles::query(), 25.4 * 1024.0 / 202.0),
        (profiles::sort(), 500.0),
        (profiles::wordcount(), 512.0),
    ]
}

/// Object counts an analyst draws from (catalogue counts excluded, so
/// every session's first job is a cache miss).
pub const ANALYST_N: std::ops::RangeInclusive<usize> = 100..=300;

/// One analyst session, drawn from the seed alone; objectives are
/// grid fractions resolved against the base spec's feasible range.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalystSession {
    pub tenant: &'static str,
    /// The base job: an object count the daemon has never seen.
    pub job: JobSpec,
    /// Near-miss revisions, applied cumulatively.
    pub revisions: Vec<Revision>,
    /// Grid point of the base budget.
    pub base_point: u64,
    /// Grid points of the re-asked budgets.
    pub reask_points: Vec<u64>,
}

/// Re-quote budgets stay in the middle of the base range so that the
/// small revisions (≤1%) cannot push them out of the revised range.
pub const REQUOTE_GRID: u64 = 64;
const REQUOTE_MARGIN: u64 = 8;

/// Draw up to `max_sessions` analyst sessions with distinct object
/// counts from [`ANALYST_N`] (minus the catalogue's), never reused.
///
/// The counts follow a golden-ratio sequence from a seeded start, so any
/// run's first sessions cover the range evenly for each profile: which
/// sessions a run reaches, and so its cache footprint and slowest
/// rebuilds, do not hinge on a lucky or unlucky handful of draws.
pub fn analyst_sessions(
    max_sessions: usize,
    revisions: usize,
    reasks: usize,
    seed: u64,
) -> Vec<AnalystSession> {
    let mut rng = Rng::new(seed ^ 0xA7A1_7575);
    let taken: Vec<usize> = catalogue_jobs().iter().map(|j| j.num_objects()).collect();
    let (lo, hi) = (*ANALYST_N.start(), *ANALYST_N.end());
    let mut free: Vec<bool> = (lo..=hi).map(|n| !taken.contains(&n)).collect();
    let available = free.iter().filter(|f| **f).count();
    let start = rng.unit();
    let profiles = analyst_profiles();
    let mut sessions = Vec::new();
    while sessions.len() < max_sessions.min(available) {
        let x = (start + sessions.len() as f64 * GOLDEN).fract();
        // The nearest free count at or above the sequence's point.
        let mut slot = (x * free.len() as f64) as usize % free.len();
        while !free[slot] {
            slot = (slot + 1) % free.len();
        }
        free[slot] = false;
        let n = lo + slot;
        let (profile, size_mb) = &profiles[sessions.len() % profiles.len()];
        let job = JobSpec::uniform(
            format!("analyst-{}-n{n}", profile.name),
            n,
            *size_mb,
            profile.clone(),
        );
        let tenant = draw_tenant(&mut rng);
        let revisions = (0..revisions)
            .map(|_| {
                // 0.1%–1% up or down.
                let step = (1 + rng.below(10)) as f64 * 1e-3;
                let factor = if rng.below(2) == 0 {
                    1.0 + step
                } else {
                    1.0 - step
                };
                match rng.below(3) {
                    0 => Revision::MapCoeff(factor),
                    1 => Revision::ReduceCoeff(factor),
                    _ => Revision::ObjectSizes(factor),
                }
            })
            .collect();
        let mut point = || REQUOTE_MARGIN + rng.below(REQUOTE_GRID + 1 - 2 * REQUOTE_MARGIN);
        let base_point = point();
        let reask_points = (0..reasks).map(|_| point()).collect();
        sessions.push(AnalystSession {
            tenant,
            job,
            revisions,
            base_point,
            reask_points,
        });
    }
    sessions
}

/// One step of a session as sent: the request, and whether it
/// resubmits the previous step's job.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub request: JobRequest,
    pub resubmits_previous: bool,
}

impl AnalystSession {
    /// The session's requests in order, with budgets resolved against
    /// `shape` (the base job's feasible range).
    pub fn steps(&self, shape: &Shape, index: usize) -> Vec<Step> {
        let budget = |point| Objective::MinimizeTime {
            budget: shape.budget_at(point, REQUOTE_GRID),
        };
        let request = |k: usize, job: &JobSpec, objective| {
            JobRequest::new(format!("rq-{index}-{k}"), job.clone(), objective)
                .with_tenant(self.tenant)
                .with_sim(SimOptions {
                    noise_cv: 0.0,
                    seed: 0,
                    replications: 0,
                })
        };
        let mut steps = vec![Step {
            request: request(0, &self.job, budget(self.base_point)),
            resubmits_previous: false,
        }];
        let mut job = self.job.clone();
        for revision in &self.revisions {
            job = revision.apply(&job);
            steps.push(Step {
                request: request(steps.len(), &job, budget(self.base_point)),
                resubmits_previous: true,
            });
        }
        for &point in &self.reask_points {
            steps.push(Step {
                request: request(steps.len(), &job, budget(point)),
                resubmits_previous: true,
            });
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<Shape> {
        catalogue_jobs()
            .into_iter()
            .enumerate()
            .map(|(i, job)| Shape {
                job,
                cost_lo: Money::from_nanos(1_000_000 * (i as i128 + 1)),
                cost_hi: Money::from_nanos(3_000_000 * (i as i128 + 1)),
                jct_lo: 10.0 + i as f64,
                jct_hi: 100.0 + i as f64,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_open_loop_stream() {
        let a = open_loop(&shapes(), 500.0, 0.5, 7);
        let b = open_loop(&shapes(), 500.0, 0.5, 7);
        assert!(a.len() > 100);
        assert_eq!(a, b);
        let c = open_loop(&shapes(), 500.0, 0.5, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn same_seed_same_burst_and_sessions() {
        assert_eq!(burst(&shapes(), 0, 50, 3), burst(&shapes(), 0, 50, 3));
        assert_ne!(burst(&shapes(), 0, 50, 3), burst(&shapes(), 0, 50, 4));
        assert_ne!(burst(&shapes(), 0, 50, 3), burst(&shapes(), 1, 50, 3));
        assert_eq!(analyst_sessions(20, 2, 5, 3), analyst_sessions(20, 2, 5, 3));
        assert_ne!(analyst_sessions(20, 2, 5, 3), analyst_sessions(20, 2, 5, 4));
    }

    #[test]
    fn objectives_are_strictly_inside_the_feasible_range() {
        let catalogue = shapes();
        for Scheduled { request, .. } in open_loop(&catalogue, 2000.0, 1.0, 11) {
            let shape = catalogue.iter().find(|s| s.job == request.job).unwrap();
            match request.objective {
                Objective::MinimizeTime { budget } => {
                    assert!(budget > shape.cost_lo && budget < shape.cost_hi)
                }
                Objective::MinimizeCost { deadline_s } => {
                    assert!(deadline_s > shape.jct_lo && deadline_s < shape.jct_hi)
                }
            }
        }
    }

    #[test]
    fn shapes_follow_the_catalogue_weights() {
        let catalogue = shapes();
        assert_eq!(catalogue.len(), CATALOGUE_WEIGHTS.len());
        let requests = burst(&catalogue, 0, 8000, 1);
        for (shape, weight) in catalogue.iter().zip(CATALOGUE_WEIGHTS) {
            let share = requests.iter().filter(|r| r.job == shape.job).count();
            let expected = 8000 * weight as usize / 8;
            assert!(
                share.abs_diff(expected) < expected / 5,
                "{}: {share}",
                shape.job.name
            );
        }
    }

    #[test]
    fn every_run_covers_the_grid_evenly() {
        // With 200 draws per (shape, family), each half of the grid gets
        // close to half of them, whatever the seed.
        for seed in 0..5 {
            let requests = burst(&shapes(), 0, 2400, seed);
            let low = requests
                .iter()
                .filter(|r| r.job == shapes()[3].job)
                .filter_map(|r| match r.objective {
                    Objective::MinimizeTime { budget } => Some(budget),
                    _ => None,
                })
                .map(|b| (b <= shapes()[3].budget_at(GRID / 2, GRID)) as i64 * 2 - 1)
                .sum::<i64>();
            assert!(low.abs() <= 4, "seed {seed}: imbalance {low}");
        }
    }

    #[test]
    fn arrivals_are_ordered_and_rate_is_close() {
        let events = open_loop(&shapes(), 1000.0, 2.0, 5);
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(
            (1800..2200).contains(&events.len()),
            "{} arrivals",
            events.len()
        );
    }

    #[test]
    fn analyst_counts_are_distinct_and_unseen() {
        let sessions = analyst_sessions(500, 2, 3, 9);
        let mut counts: Vec<usize> = sessions.iter().map(|s| s.job.num_objects()).collect();
        let taken: Vec<usize> = catalogue_jobs().iter().map(|j| j.num_objects()).collect();
        assert!(counts
            .iter()
            .all(|n| ANALYST_N.contains(n) && !taken.contains(n)));
        let total = counts.len();
        counts.sort_unstable();
        counts.dedup();
        assert_eq!(counts.len(), total, "object counts repeat");
        // The pool is exhausted rather than reused.
        assert_eq!(total, ANALYST_N.count() - 2);
        // Any prefix covers the range evenly: each third of it gets
        // close to a third of the first 30 sessions.
        let first: Vec<usize> = sessions[..30].iter().map(|s| s.job.num_objects()).collect();
        for third in 0..3 {
            let lo = 100 + third * 67;
            let hits = first
                .iter()
                .filter(|&&n| (lo..lo + 67).contains(&n))
                .count();
            assert!((8..=12).contains(&hits), "third {third}: {hits} of 30");
        }
    }

    #[test]
    fn session_steps_chain_revisions_then_reask() {
        let session = &analyst_sessions(1, 2, 3, 1)[0];
        let shape = Shape {
            job: session.job.clone(),
            cost_lo: Money::from_nanos(1_000_000),
            cost_hi: Money::from_nanos(2_000_000),
            jct_lo: 1.0,
            jct_hi: 2.0,
        };
        let steps = session.steps(&shape, 0);
        assert_eq!(steps.len(), 1 + 2 + 3);
        assert!(!steps[0].resubmits_previous);
        assert_eq!(steps[0].request.job, session.job);
        let last = session.revisions[1].apply(&session.revisions[0].apply(&session.job));
        for step in &steps[3..] {
            assert_eq!(step.request.job, last);
        }
    }
}
