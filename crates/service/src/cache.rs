//! A bounded LRU of [`PlannerSession`]s shared by admission planning
//! and the worker pool.
//!
//! A [`PlannerSession`] pays the Fig. 5 DAG construction and the
//! backward-potential sweep once per `(job, space, platform, prices)`
//! tuple; the service sees the same tuple repeatedly — admission plans
//! a job at submit time, a worker re-plans it when it dispatches, and
//! tenants resubmit identical specs with different objectives. Caching
//! sessions turns all of those into label-search-speed queries.
//!
//! The key is a canonical fingerprint of every input that affects the
//! session ([`SessionKey::for_inputs`]); two jobs share a session only
//! if they would build bit-identical DAGs, so reuse can never change a
//! result. Lookups are single-flight: the build runs under the cache
//! lock, so concurrent workers asking for the same key produce one
//! session, not several.
//!
//! A miss is not always a cold build: [`SessionCache::get_or_patch`]
//! revalidates near-misses. When the submitted inputs differ from a
//! resident session only by a patchable delta (model coefficients,
//! prices, per-object sizes — anything that keeps the DAG shape), the
//! cached session is cloned and repaired in place via
//! [`PlannerSession::apply_delta`], which recosts only the affected edge
//! families and resumes the potential sweep instead of rebuilding the
//! Fig. 5 DAG. Resubmitted jobs with tweaked profiles therefore re-quote
//! at interactive latency.
//!
//! Reuse is observable as `service.cache.hits` / `.patched` /
//! `.misses` / `.evictions` counters and a `service.cache.entries`
//! gauge.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use astra_core::{ConfigSpace, JobDelta, PlannerSession, PruneConfig, ReplanOutcome, Strategy};
use astra_model::{JobSpec, Platform};
use astra_pricing::PriceCatalog;
use astra_telemetry::Telemetry;

/// Canonical fingerprint of everything a [`PlannerSession`] depends on.
///
/// Built field by field: floats are fingerprinted by their IEEE-754 bit
/// pattern (exact — no formatting round-trip), strings are
/// length-prefixed so a separator inside a job name cannot collide with
/// field boundaries, and every list is length-prefixed. Two inputs
/// produce the same key iff every field is bit-identical, which is
/// exactly the condition under which two sessions are interchangeable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey(String);

/// Append-only canonical encoder behind [`SessionKey::for_inputs`].
struct Fingerprint(String);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(String::with_capacity(512))
    }

    /// Length-prefixed so embedded separators cannot forge boundaries.
    fn str(&mut self, v: &str) {
        let _ = write!(self.0, "s{}:{};", v.len(), v);
    }

    /// Exact bit pattern: distinguishes `-0.0`/`0.0` and NaN payloads,
    /// and never loses precision to decimal formatting.
    fn f64(&mut self, v: f64) {
        let _ = write!(self.0, "f{:016x};", v.to_bits());
    }

    fn u64(&mut self, v: u64) {
        let _ = write!(self.0, "u{v};");
    }

    fn i128(&mut self, v: i128) {
        let _ = write!(self.0, "i{v};");
    }

    fn bool(&mut self, v: bool) {
        self.0.push(if v { 'T' } else { 'F' });
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    fn money(&mut self, v: astra_pricing::Money) {
        self.i128(v.nanos());
    }
}

impl SessionKey {
    /// Fingerprint the full session input tuple.
    pub fn for_inputs(
        job: &JobSpec,
        space: &ConfigSpace,
        platform: &Platform,
        catalog: &PriceCatalog,
        strategy: Strategy,
        prune: PruneConfig,
    ) -> Self {
        let mut f = Fingerprint::new();

        // Job: name, inputs, workload profile.
        f.str(&job.name);
        f.f64s(&job.object_sizes_mb);
        let p = &job.profile;
        f.str(&p.name);
        f.f64(p.map_secs_per_mb_128);
        f.f64(p.reduce_secs_per_mb_128);
        f.f64(p.coord_secs_per_mb_128);
        f.f64(p.shuffle_ratio);
        f.f64(p.reduce_ratio);
        f.f64(p.state_object_mb);
        f.bool(p.single_pass_reduce);

        // Configuration space.
        f.u32s(&space.memory_tiers_mb);
        f.usizes(&space.k_m_values);
        f.usizes(&space.k_r_values);
        f.usizes(&space.k_m_weights);

        // Platform, including the transfer model and the optional
        // ephemeral intermediate store.
        f.u32s(&platform.memory_tiers_mb);
        f.u64(platform.cpu_ceiling_mb as u64);
        f.u64(platform.max_concurrency as u64);
        f.f64(platform.timeout_s);
        f.f64(platform.max_storage_mb);
        f.f64(platform.cold_start_s);
        f.f64(platform.transfer.bandwidth_mbps);
        f.f64(platform.transfer.get_latency_s);
        f.f64(platform.transfer.put_latency_s);
        f.f64(platform.efficiency_at_min);
        f.u64(platform.efficiency_full_mb as u64);
        f.f64(platform.bandwidth_exponent);
        f.f64(platform.max_bandwidth_mbps);
        f.f64(platform.orchestration_overhead_s);
        f.f64(platform.invoke_call_s);
        match &platform.intermediate {
            None => f.bool(false),
            Some(store) => {
                f.bool(true);
                f.str(&store.name);
                f.f64(store.get_latency_s);
                f.f64(store.put_latency_s);
                f.f64(store.bandwidth_mbps);
                f.money(store.per_get);
                f.money(store.per_put);
                f.f64(store.storage_gb_month_dollars);
                f.money(store.rental_per_hour);
            }
        }

        // Prices (Money is exact integer nanodollars).
        f.money(catalog.lambda.per_invocation);
        f.money(catalog.lambda.per_gb_second);
        f.u64(catalog.lambda.billing_granularity_us);
        f.money(catalog.s3.per_put);
        f.money(catalog.s3.per_get);
        f.f64(catalog.s3.gb_month_dollars);
        f.money(catalog.vm.emr_per_hour);
        f.u64(catalog.vm.min_billed_us);

        // Solver knobs.
        f.u64(match strategy {
            Strategy::Algorithm1 => 0,
            Strategy::ExactCsp => 1,
            // Codes are fixed so fingerprints stay stable; 2 is unused.
            Strategy::Exhaustive => 3,
        });
        f.bool(prune.pareto_tiers);

        SessionKey(f.0)
    }

    /// The fingerprint text (diagnostics only).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// Lookups answered by an existing session.
    pub hits: u64,
    /// Near-miss lookups answered by cloning a cached session and
    /// patching it with the delta instead of cold-building.
    pub patched: u64,
    /// Lookups that had to build a session.
    pub misses: u64,
    /// Sessions evicted to stay within capacity.
    pub evictions: u64,
    /// Sessions currently resident.
    pub entries: usize,
}

impl SessionCacheStats {
    /// Hits over total lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    session: Arc<PlannerSession>,
    /// Last-touch stamp from the shared counter; smallest = LRU victim.
    touched: u64,
}

struct CacheState {
    entries: HashMap<SessionKey, Entry>,
    clock: u64,
    hits: u64,
    patched: u64,
    misses: u64,
    evictions: u64,
}

impl CacheState {
    /// Insert `session` under `key`, evicting the LRU entry if the cache
    /// is at `capacity`. Capacity 0 stores nothing.
    fn insert(&mut self, key: SessionKey, session: &Arc<PlannerSession>, stamp: u64, capacity: usize, telemetry: &Telemetry) {
        if capacity == 0 {
            return;
        }
        if self.entries.len() >= capacity {
            // Smallest touch stamp is the least recently used; ties
            // are impossible because stamps are unique.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.evictions += 1;
                telemetry.counter("service.cache.evictions", 1);
            }
        }
        self.entries.insert(
            key,
            Entry {
                session: Arc::clone(session),
                touched: stamp,
            },
        );
    }
}

/// How a [`SessionCache::get_or_patch`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Exact fingerprint match — the cached session was returned as-is.
    Hit,
    /// A cached session for different inputs was cloned and patched in
    /// place via [`PlannerSession::apply_delta`] (cheaper than a cold
    /// build for coefficient/price deltas).
    Patched,
    /// No usable entry: a session was cold-built.
    Miss,
}

/// The bounded LRU itself. Clone-cheap (`Arc` inside); all methods take
/// `&self`.
#[derive(Clone)]
pub struct SessionCache {
    state: Arc<Mutex<CacheState>>,
    capacity: usize,
    telemetry: Telemetry,
}

impl SessionCache {
    /// A cache holding at most `capacity` sessions. Capacity 0 disables
    /// retention entirely: every lookup builds and nothing is stored.
    pub fn new(capacity: usize, telemetry: Telemetry) -> Self {
        SessionCache {
            state: Arc::new(Mutex::new(CacheState {
                entries: HashMap::new(),
                clock: 0,
                hits: 0,
                patched: 0,
                misses: 0,
                evictions: 0,
            })),
            capacity,
            telemetry,
        }
    }

    /// Maximum resident sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fetch the session for `key`, building it with `build` on a miss.
    /// The build runs under the cache lock (single-flight).
    pub fn get_or_build(
        &self,
        key: SessionKey,
        build: impl FnOnce() -> PlannerSession,
    ) -> (Arc<PlannerSession>, bool) {
        let mut state = self.state.lock().unwrap();
        state.clock += 1;
        let stamp = state.clock;

        if let Some(entry) = state.entries.get_mut(&key) {
            entry.touched = stamp;
            let session = Arc::clone(&entry.session);
            state.hits += 1;
            self.telemetry.counter("service.cache.hits", 1);
            return (session, true);
        }

        state.misses += 1;
        self.telemetry.counter("service.cache.misses", 1);
        let session = Arc::new(build());

        state.insert(key, &session, stamp, self.capacity, &self.telemetry);
        self.telemetry
            .gauge("service.cache.entries", state.entries.len() as f64);
        (session, false)
    }

    /// Fetch the session for `key`, revalidating a near-miss before
    /// falling back to a cold build.
    ///
    /// On an exact fingerprint hit this is [`SessionCache::get_or_build`].
    /// On a miss, every resident session with the same solver knobs is
    /// classified against the new inputs with [`JobDelta::classify`]; if
    /// one differs only by a patchable delta (coefficients, prices,
    /// per-object sizes — not DAG shape), the most recently used such
    /// donor is cloned and patched via [`PlannerSession::apply_delta`],
    /// which is far cheaper than rebuilding the Fig. 5 DAG and is
    /// proptest-pinned to answer bit-identically to a cold build. Only if
    /// no donor qualifies (or the patch degenerated to a rebuild) does
    /// `build` run.
    ///
    /// The patched session is inserted under `key`; the donor entry is
    /// left untouched, so a tenant alternating between two specs keeps
    /// both resident.
    #[allow(clippy::too_many_arguments)] // the full session-input tuple, flattened
    pub fn get_or_patch(
        &self,
        key: SessionKey,
        job: &JobSpec,
        space: &ConfigSpace,
        platform: &Platform,
        catalog: &PriceCatalog,
        strategy: Strategy,
        prune: PruneConfig,
        build: impl FnOnce() -> PlannerSession,
    ) -> (Arc<PlannerSession>, CacheLookup) {
        let mut state = self.state.lock().unwrap();
        state.clock += 1;
        let stamp = state.clock;

        if let Some(entry) = state.entries.get_mut(&key) {
            entry.touched = stamp;
            let session = Arc::clone(&entry.session);
            state.hits += 1;
            self.telemetry.counter("service.cache.hits", 1);
            return (session, CacheLookup::Hit);
        }

        // Near-miss scan: most recently used donor whose inputs differ
        // from the request only by a patchable delta. `touched` stamps
        // are unique, so the choice is deterministic.
        let donor = state
            .entries
            .values()
            .filter(|e| {
                let s = &e.session;
                s.strategy() == strategy
                    && s.prune() == prune
                    && JobDelta::classify(
                        s.job(),
                        s.space(),
                        s.platform(),
                        s.catalog(),
                        job,
                        space,
                        platform,
                        catalog,
                    )
                    .patchable()
            })
            .max_by_key(|e| e.touched)
            .map(|e| Arc::clone(&e.session));

        if let Some(donor) = donor {
            let mut patched = (*donor).clone();
            let outcome = patched.apply_delta(job, platform, catalog, space);
            if outcome != ReplanOutcome::Rebuilt {
                let session = Arc::new(patched);
                state.patched += 1;
                self.telemetry.counter("service.cache.patched", 1);
                state.insert(key, &session, stamp, self.capacity, &self.telemetry);
                self.telemetry
                    .gauge("service.cache.entries", state.entries.len() as f64);
                return (session, CacheLookup::Patched);
            }
            // The classifier said patchable but the session had to
            // rebuild anyway (e.g. a recost gate flipped). The rebuilt
            // session is still exact — keep it, but account for it as a
            // miss since the full build price was paid.
            let session = Arc::new(patched);
            state.misses += 1;
            self.telemetry.counter("service.cache.misses", 1);
            state.insert(key, &session, stamp, self.capacity, &self.telemetry);
            self.telemetry
                .gauge("service.cache.entries", state.entries.len() as f64);
            return (session, CacheLookup::Miss);
        }

        state.misses += 1;
        self.telemetry.counter("service.cache.misses", 1);
        let session = Arc::new(build());
        state.insert(key, &session, stamp, self.capacity, &self.telemetry);
        self.telemetry
            .gauge("service.cache.entries", state.entries.len() as f64);
        (session, CacheLookup::Miss)
    }

    /// Current statistics.
    pub fn stats(&self) -> SessionCacheStats {
        let state = self.state.lock().unwrap();
        SessionCacheStats {
            hits: state.hits,
            patched: state.patched,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::Objective;
    use astra_model::WorkloadProfile;
    use astra_pricing::Money;

    fn job(n: usize) -> JobSpec {
        JobSpec::uniform(format!("cache-{n}"), n, 1.0, WorkloadProfile::uniform_test())
    }

    fn key_for(job: &JobSpec, platform: &Platform) -> SessionKey {
        SessionKey::for_inputs(
            job,
            &ConfigSpace::with_tiers(job, platform, &[128, 512]),
            platform,
            &PriceCatalog::aws_2020(),
            Strategy::ExactCsp,
            PruneConfig::default(),
        )
    }

    fn session_for(job: &JobSpec, platform: &Platform) -> PlannerSession {
        PlannerSession::new(
            job,
            platform.clone(),
            PriceCatalog::aws_2020(),
            ConfigSpace::with_tiers(job, platform, &[128, 512]),
            Strategy::ExactCsp,
            PruneConfig::default(),
        )
    }

    #[test]
    fn same_key_hits_different_key_misses() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let (a, b) = (job(4), job(5));

        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(hit);
        let (_, hit) = cache.get_or_build(key_for(&b, &platform), || session_for(&b, &platform));
        assert!(!hit);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_platforms_do_not_collide() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let j = job(4);
        let lambda = Platform::aws_lambda();
        let literal = Platform::paper_literal(10.0);
        cache.get_or_build(key_for(&j, &lambda), || session_for(&j, &lambda));
        let (_, hit) = cache.get_or_build(key_for(&j, &literal), || session_for(&j, &literal));
        assert!(!hit, "different platforms must not share a session");
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let cache = SessionCache::new(2, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let (a, b, c) = (job(3), job(4), job(5));

        cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        cache.get_or_build(key_for(&b, &platform), || session_for(&b, &platform));
        // Touch `a` so `b` becomes the LRU victim.
        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(hit);
        cache.get_or_build(key_for(&c, &platform), || session_for(&c, &platform));

        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        let (_, hit) = cache.get_or_build(key_for(&a, &platform), || session_for(&a, &platform));
        assert!(hit, "recently touched entry must survive eviction");
        let (_, hit) = cache.get_or_build(key_for(&b, &platform), || session_for(&b, &platform));
        assert!(!hit, "LRU entry must have been evicted");
    }

    #[test]
    fn fingerprint_distinguishes_every_field_class() {
        let platform = Platform::aws_lambda();
        let j = job(4);
        let base = key_for(&j, &platform);

        // Same inputs → same key.
        assert_eq!(base, key_for(&j, &platform));

        // A job name that tries to forge the field separator still gets
        // its own key (length-prefixing defeats injection).
        let mut renamed = j.clone();
        renamed.name = format!("{};f0000000000000000;", j.name);
        assert_ne!(base, key_for(&renamed, &platform));

        // Coefficient, price, platform and knob changes all move the key.
        let mut coeff = j.clone();
        coeff.profile.map_secs_per_mb_128 *= 1.5;
        assert_ne!(base, key_for(&coeff, &platform));

        let mut bumped = platform.clone();
        bumped.timeout_s += 1.0;
        assert_ne!(base, key_for(&j, &bumped));

        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 512]);
        let mut catalog = PriceCatalog::aws_2020();
        catalog.lambda.per_gb_second = catalog.lambda.per_gb_second.scale(2.0);
        assert_ne!(
            base,
            SessionKey::for_inputs(
                &j,
                &space,
                &platform,
                &catalog,
                Strategy::ExactCsp,
                PruneConfig::default(),
            )
        );
        let catalog = PriceCatalog::aws_2020();
        assert_ne!(
            base,
            SessionKey::for_inputs(
                &j,
                &space,
                &platform,
                &catalog,
                Strategy::Algorithm1,
                PruneConfig::default(),
            )
        );
        assert_ne!(
            base,
            SessionKey::for_inputs(
                &j,
                &space,
                &platform,
                &catalog,
                Strategy::ExactCsp,
                PruneConfig::off(),
            )
        );
    }

    fn patch_lookup(
        cache: &SessionCache,
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        prune: PruneConfig,
    ) -> (Arc<PlannerSession>, CacheLookup) {
        let space = ConfigSpace::with_tiers(job, platform, &[128, 512]);
        let key = SessionKey::for_inputs(job, &space, platform, catalog, Strategy::ExactCsp, prune);
        cache.get_or_patch(
            key,
            job,
            &space,
            platform,
            catalog,
            Strategy::ExactCsp,
            prune,
            || {
                PlannerSession::new(
                    job,
                    platform.clone(),
                    *catalog,
                    space.clone(),
                    Strategy::ExactCsp,
                    prune,
                )
            },
        )
    }

    #[test]
    fn near_miss_patches_instead_of_building() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let j = job(4);
        // Pruning off keeps the DAG shape insensitive to coefficient
        // tweaks, so the near-miss is served by the fast recost tier.
        let prune = PruneConfig::off();

        let (_, lookup) = patch_lookup(&cache, &j, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Miss);
        let (_, lookup) = patch_lookup(&cache, &j, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Hit);

        // Coefficient tweak: patchable, must be served by clone-and-patch.
        let mut tweaked = j.clone();
        tweaked.profile.map_secs_per_mb_128 *= 1.25;
        let (patched, lookup) = patch_lookup(&cache, &tweaked, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Patched);

        // The patched session must answer exactly like a cold build.
        let space = ConfigSpace::with_tiers(&tweaked, &platform, &[128, 512]);
        let cold = PlannerSession::new(
            &tweaked,
            platform.clone(),
            catalog,
            space,
            Strategy::ExactCsp,
            prune,
        );
        for objective in [
            Objective::MinimizeCost { deadline_s: 1e6 },
            Objective::MinimizeCost { deadline_s: 120.0 },
            Objective::MinimizeTime {
                budget: Money::from_dollars(1_000),
            },
        ] {
            assert_eq!(patched.solve(objective), cold.solve(objective));
        }

        // The patched entry is now resident under its own key.
        let (_, lookup) = patch_lookup(&cache, &tweaked, &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.patched, stats.misses), (2, 1, 1));
    }

    #[test]
    fn shape_change_still_cold_builds() {
        let cache = SessionCache::new(4, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let prune = PruneConfig::off();

        let (_, lookup) = patch_lookup(&cache, &job(4), &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Miss);
        // Different object count reshapes the DAG: not patchable.
        let (_, lookup) = patch_lookup(&cache, &job(6), &platform, &catalog, prune);
        assert_eq!(lookup, CacheLookup::Miss);
        assert_eq!(cache.stats().patched, 0);
    }

    #[test]
    fn zero_capacity_never_retains() {
        let cache = SessionCache::new(0, Telemetry::disabled());
        let platform = Platform::aws_lambda();
        let j = job(4);
        for _ in 0..3 {
            let (_, hit) = cache.get_or_build(key_for(&j, &platform), || session_for(&j, &platform));
            assert!(!hit);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (3, 0));
    }
}
