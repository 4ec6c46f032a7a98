//! The Fig. 5 planner DAG.
//!
//! Six node columns between a source and a sink:
//!
//! ```text
//! S -> mapper mem (x_i) -> k_M (n_j) -> (k_M,k_R) -> (k_M,k_R,coord mem) -> reducer mem (z_s) -> D
//! ```
//!
//! The paper draws column 3 as "number of objects per reducer" and
//! column 4 as "coordinator memory", but the edge weights it assigns to
//! the later edge sets depend on *earlier* columns' choices (e.g. the
//! reducing-phase compute time needs `j` and `k_R` as well as `z_s`). To
//! make every edge weight well-defined from its endpoints alone — the
//! property shortest-path optimality needs — columns 3 and 4 are
//! state-expanded: a column-3 node is a `(k_M, k_R)` pair and a column-4
//! node additionally carries the coordinator tier. Column 2 stays `k_M`
//! (not `j`): distinct `k_M` with equal `j` differ in skew, so `k_M` is
//! the real decision variable.
//!
//! Every edge carries **both** metrics (time and cost), assigned so that
//! each term of Eq. 16 and Eq. 20 lands on exactly one edge:
//!
//! | Edge set | time | cost |
//! |---|---|---|
//! | `x_i -> k_M` | `T1` (Eq. 4) | `U1 + V1 + W1` |
//! | `k_M -> (k_M,k_R)` | 0 | `U2 + UP + I2 + I3` |
//! | `(k_M,k_R) -> +coord` | `T2 = c2 + P·l/B(a)` (Eq. 6) | `V2` |
//! | `+coord -> z_s` | reduce phase `T_P(s)` (Eq. 9) | `VP + WP + W2-runtime` |
//!
//! Summing either metric over a path reproduces the analytical model for
//! that configuration exactly (integration tests assert this), so an
//! unconstrained shortest path is the true model optimum and a constrained
//! shortest path solves the paper's Eq. 16–19 / Eq. 20–22.
//!
//! Edges whose configuration violates platform constraints (Eq. 18
//! concurrency/storage caps, per-function timeout) are simply not added.
//!
//! ## Dominance pruning
//!
//! By default ([`PruneConfig::on`]) construction drops tier candidates
//! whose (time, cost) edge bundles are Pareto-dominated in *every*
//! context they appear in:
//!
//! * **mapper tiers** per `k_M` — the source edge is (0, 0) and the
//!   continuation after the `k_M` node is tier-independent, so if tier
//!   `b`'s mapper edge is `<=` tier `a`'s on both metrics (one strict),
//!   every path through `a` is beaten (or exactly matched earlier in
//!   tie-break order) by the same path through `b`;
//! * **coordinator tiers** per `(k_M, k_R)` — a path through coordinator
//!   `a` and reducer tier `s` adds time `t2(a) + phase(s)` and cost
//!   `e3(a) + e4(s, a)`; `phase(s)` cancels when comparing coordinators,
//!   so dominance is `t2` on time and the combined `e3 + e4` per reducer
//!   continuation on cost (with coverage: the dominator must offer every
//!   continuation the dominated tier offers);
//! * **reducer tiers** per `(k_M, k_R, coordinator)` — the final column
//!   edge to the sink is (0, 0), so the final-edge bundle alone decides.
//!
//! Dominance is exact (`<=` with at least one strict `<`, integer nanos
//! for cost); exact ties are always kept. A dominated candidate cannot
//! lie on a *strictly* optimal constrained path for any bound, and for
//! tied paths the label-setting solver already settles the dominator
//! first and kills the dominated arrival via its `<=` frontier check —
//! so pruned and unpruned DAGs return identical optima (equivalence
//! tests assert config-level identity against the unpruned exhaustive
//! solver). [`PlannerDag::prune_stats`] reports how much was removed.
//!
//! ## Parallel construction
//!
//! Building columns 2–4 dominates planning time: it evaluates the
//! analytical model once per `(k_M, tier)` for the mapper edges and once
//! per `(k_M, k_R, tier)` for the reduce edges. [`PlannerDag::build`]
//! evaluates those edge metrics in parallel (rayon) as side-effect-free
//! *recipes*, then assembles the store serially from the collected
//! recipes in a fixed order — `k_M` in `space.k_m_values` order, `k_R`
//! in candidate order, tiers in `space.memory_tiers_mb` order — so node
//! ids and edge slots are identical for every thread count; a one-thread
//! rayon pool is the serial build (equivalence tests assert store-level
//! bit-identity across pool sizes).
//!
//! ## The edge store
//!
//! A [`PlannerDag`] is a `Vec<Choice>` (one per node) plus one flat CSR
//! edge store, [`SoaEdges`]; every solver reads that store through
//! [`EdgeExpand`], and incremental re-planning overwrites its slots in
//! place. An edge's id is its slot index.

use astra_graph::csp::EdgeExpand;
use astra_graph::EdgeId;
use astra_model::cost::{
    coordinator_storage_cost, mapper_edge_cost, orchestration_requests_cost, reduce_edge_cost,
    runtime_cost,
};
use astra_model::perf::{coordinator_compute_secs, coordinator_state_put_secs};
use astra_model::schedule::total_input_mb;
use astra_model::{JobConfig, JobSpec, Platform};
use astra_pricing::{Money, PriceCatalog};
use rayon::prelude::*;

use crate::cache::ModelCache;
use crate::space::ConfigSpace;

/// What a DAG node decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Flow source (`S̄`).
    Source,
    /// Column 1: mapper memory tier.
    MapperMem(u32),
    /// Column 2: objects per mapper (`k_M`).
    ObjectsPerMapper(usize),
    /// Column 3: objects per reducer, in the context of a `k_M`.
    ObjectsPerReducer {
        /// The column-2 choice this node extends.
        k_m: usize,
        /// Objects per reducer (`k_R`).
        k_r: usize,
    },
    /// Column 4: coordinator memory tier, in the context of `(k_M, k_R)`.
    CoordinatorMem {
        /// The column-2 choice.
        k_m: usize,
        /// The column-3 choice.
        k_r: usize,
        /// Coordinator memory (MB).
        mem: u32,
    },
    /// Column 5: reducer memory tier.
    ReducerMem(u32),
    /// Flow destination (`D̄`).
    Sink,
}

/// Both path metrics of one edge. Cost is stored as `i64` nano-dollars to
/// keep the edge store compact (a whole job bill fits with 9 decimal
/// digits of headroom).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMetrics {
    /// Completion-time contribution in seconds.
    pub time_s: f64,
    /// Cost contribution in nano-dollars.
    pub cost_nanos: i64,
}

pub(crate) fn metrics(time_s: f64, cost: Money) -> EdgeMetrics {
    let nanos = cost.nanos();
    debug_assert!(nanos >= 0 && nanos <= i64::MAX as i128, "cost out of range");
    EdgeMetrics {
        time_s,
        cost_nanos: nanos as i64,
    }
}

/// Controls exactness-preserving Pareto dominance pruning of tier
/// columns during DAG construction (see the module-level "Dominance
/// pruning" section). Defaults to enabled; [`PruneConfig::off`] is the
/// opt-out used by equivalence tests, benches and `--no-prune` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneConfig {
    /// Drop tier candidates whose (time, cost) bundle is Pareto-dominated
    /// in every context they appear in. Dominance is *exact* (`<=` on
    /// both metrics with at least one strict `<`): an exactly-tied
    /// candidate is never dropped, so solver tie-breaking is untouched
    /// and pruned/unpruned DAGs yield identical constrained optima.
    pub pareto_tiers: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig { pareto_tiers: true }
    }
}

impl PruneConfig {
    /// Pruning enabled (the default).
    pub fn on() -> Self {
        PruneConfig::default()
    }

    /// Pruning disabled: build the full Fig. 5 DAG.
    pub fn off() -> Self {
        PruneConfig {
            pareto_tiers: false,
        }
    }
}

/// How much dominance pruning removed while building a DAG (all zero
/// when built with [`PruneConfig::off`]). Reported through the
/// `planner.dag.pruned_*` telemetry gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// `x_i -> k_M` edges dropped (mapper tier dominated for that `k_M`).
    pub mapper_edges: usize,
    /// Column-4 coordinator nodes dropped (tier dominated for that
    /// `(k_M, k_R)` across every reducer continuation, or a dead end
    /// with no feasible reducer tier). Each takes its `e3` edge and its
    /// final edges with it.
    pub coordinator_nodes: usize,
    /// `+coord -> z_s` final edges dropped (reducer tier dominated for
    /// that `(k_M, k_R, coordinator)` context).
    pub reducer_edges: usize,
}

impl PruneStats {
    /// Total pruned items (edges + nodes) — a quick "did pruning fire"
    /// signal for tests and gauges.
    pub fn total(&self) -> usize {
        self.mapper_edges + self.coordinator_nodes + self.reducer_edges
    }
}

/// The built planner DAG for one job: the node choices plus the one
/// edge store (module docs, "The edge store").
#[derive(Clone)]
pub struct PlannerDag {
    choices: Vec<Choice>,
    edges: SoaEdges,
    prune_stats: PruneStats,
}

/// Flat struct-of-arrays edge store in CSR form: per-node slot ranges
/// (`offsets`), and parallel `heads`, `times`, `costs` and
/// `multiplicity` arrays the solvers iterate linearly. An edge's id is
/// its slot index.
///
/// Within a tail node the most recently assembled edge comes first, and
/// `topo` is the stack-based Kahn order over that slot order. Every
/// exact tie in the solvers is broken by expansion order, so this order
/// is part of the answer contract (`tests/planner_golden.rs` pins it).
///
/// `multiplicity[i]` records how many raw configuration-space candidates
/// edge `i` represents when the space was built by
/// [`ConfigSpace::bundled`] (1 everywhere otherwise); the
/// `planner.dag.bundles_collapsed` gauge totals the candidates folded
/// away.
#[derive(Clone)]
pub struct SoaEdges {
    offsets: Vec<u32>,
    heads: Vec<u32>,
    times: Vec<f64>,
    costs: Vec<i64>,
    multiplicity: Vec<u32>,
    topo: Vec<u32>,
}

impl SoaEdges {
    /// An empty store with the given per-node out-degrees (slots zeroed).
    fn with_degrees(degrees: &[u32]) -> SoaEdges {
        let mut offsets = vec![0u32];
        offsets.extend(degrees.iter().scan(0, |total, &d| {
            *total += d;
            Some(*total)
        }));
        let e = offsets[degrees.len()] as usize;
        SoaEdges {
            offsets,
            heads: vec![0; e],
            times: vec![0.0; e],
            costs: vec![0; e],
            multiplicity: vec![1; e],
            topo: Vec::new(),
        }
    }

    /// The stack-based Kahn order: roots in id order, each popped node's
    /// heads released in slot order.
    fn kahn_order(&self) -> Vec<u32> {
        let n = self.node_count();
        let mut in_deg = vec![0u32; n];
        for &h in &self.heads {
            in_deg[h as usize] += 1;
        }
        let mut stack: Vec<u32> = (0..n as u32).filter(|&v| in_deg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(u);
            for &h in &self.heads[self.slots(u)] {
                in_deg[h as usize] -= 1;
                if in_deg[h as usize] == 0 {
                    stack.push(h);
                }
            }
        }
        assert_eq!(order.len(), n, "planner graph is acyclic by construction");
        order
    }

    fn slots(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (slots).
    pub fn edge_count(&self) -> usize {
        self.heads.len()
    }

    /// Out-edges of `v` in slot order.
    pub(crate) fn out_edges(&self, v: u32) -> impl Iterator<Item = EdgeId> {
        self.slots(v).map(|i| EdgeId(i as u32))
    }

    /// Head node of edge `e`.
    pub(crate) fn head(&self, e: EdgeId) -> u32 {
        self.heads[e.0 as usize]
    }

    /// Both metrics of edge `e`.
    pub(crate) fn metrics(&self, e: EdgeId) -> EdgeMetrics {
        EdgeMetrics {
            time_s: self.times[e.0 as usize],
            cost_nanos: self.costs[e.0 as usize],
        }
    }

    /// Overwrite edge `e`'s metrics in place (topology is untouched).
    pub(crate) fn overwrite(&mut self, e: EdgeId, m: EdgeMetrics) {
        self.times[e.0 as usize] = m.time_s;
        self.costs[e.0 as usize] = m.cost_nanos;
    }

    /// Raw configuration candidates folded into representative edges
    /// (0 for unbundled spaces): `sum(multiplicity - 1)`.
    pub fn bundles_collapsed(&self) -> u64 {
        self.multiplicity.iter().map(|&m| (m - 1) as u64).sum()
    }

    /// A time-primary [`EdgeExpand`] view (weight = seconds, resource =
    /// micro-dollars) for `MinimizeTime` queries.
    pub fn time_view(&self) -> SoaView<'_, false> {
        SoaView { soa: self }
    }

    /// A cost-primary [`EdgeExpand`] view (weight = micro-dollars,
    /// resource = seconds) for `MinimizeCost` queries.
    pub fn cost_view(&self) -> SoaView<'_, true> {
        SoaView { soa: self }
    }
}

/// Equality is bit-identity of every array: offsets, heads, time bits,
/// costs, multiplicities and the topological order.
impl PartialEq for SoaEdges {
    fn eq(&self, other: &SoaEdges) -> bool {
        self.offsets == other.offsets
            && self.heads == other.heads
            && self.times.iter().map(|t| t.to_bits()).eq(other.times.iter().map(|t| t.to_bits()))
            && self.costs == other.costs
            && self.multiplicity == other.multiplicity
            && self.topo == other.topo
    }
}

/// Linear-scan [`EdgeExpand`] adapter over [`SoaEdges`]. The const
/// parameter selects the weight/resource orientation; cost is converted
/// to micro-dollars as `cost_nanos as f64 * 1e-3`.
pub struct SoaView<'a, const COST_PRIMARY: bool> {
    soa: &'a SoaEdges,
}

impl<const COST_PRIMARY: bool> EdgeExpand for SoaView<'_, COST_PRIMARY> {
    fn node_count(&self) -> usize {
        self.soa.node_count()
    }

    fn for_each_out(&mut self, v: u32, mut f: impl FnMut(EdgeId, u32, f64, f64)) {
        for i in self.soa.slots(v) {
            let t = self.soa.times[i];
            let c = self.soa.costs[i] as f64 * 1e-3;
            let (w, r) = if COST_PRIMARY { (c, t) } else { (t, c) };
            f(EdgeId(i as u32), self.soa.heads[i], w, r);
        }
    }

    fn topo_order(&self) -> Option<Vec<u32>> {
        Some(self.soa.topo.clone())
    }
}

/// Column-2 recipe: the mapper edges one `k_M` contributes, as
/// `(mapper-tier index, metrics)` in tier order. Absent `k_M`s (too wide
/// for the concurrency cap, or too slow at every tier) produce no recipe.
struct Col2Recipe {
    k_m: usize,
    j: usize,
    mapper_edges: Vec<(usize, EdgeMetrics)>,
    pruned_edges: usize,
}

/// Column-4 recipe for one coordinator tier within a `(k_M, k_R)`: the
/// `(k_M,k_R) -> +coord` edge plus the final edges to each feasible
/// reducer tier, as `(reducer-tier index, metrics)` in tier order.
struct Col4Recipe {
    e3: EdgeMetrics,
    final_edges: Vec<(usize, EdgeMetrics)>,
}

/// Column-3 recipe: everything one `(k_M, k_R)` pair contributes below
/// column 2. `per_coord` holds `(coordinator tier index, recipe)` pairs
/// in `space.memory_tiers_mb` order (gaps where pruning removed a tier).
struct Col3Recipe {
    k_r: usize,
    e2: EdgeMetrics,
    per_coord: Vec<(usize, Col4Recipe)>,
    pruned_coords: usize,
    pruned_final_edges: usize,
}

/// Drop entries whose metric bundle is Pareto-dominated by another entry
/// in the same context: dominator `<=` on both metrics with at least one
/// strict `<`. Comparisons are exact (no epsilon), and exact ties are
/// kept, so the surviving set supports the same constrained optima with
/// the same solver tie-breaks as the full set. Returns how many were
/// dropped.
fn pareto_filter(edges: &mut Vec<(usize, EdgeMetrics)>) -> usize {
    let before = edges.len();
    if before > 128 {
        // Snapshot fallback for absurdly long tier lists (real platforms
        // have <= 46 tiers, so this path never runs in production).
        let snapshot = edges.clone();
        edges.retain(|&(_, m)| {
            !snapshot.iter().any(|&(_, o)| {
                o.time_s <= m.time_s
                    && o.cost_nanos <= m.cost_nanos
                    && (o.time_s < m.time_s || o.cost_nanos < m.cost_nanos)
            })
        });
        return before - edges.len();
    }
    // Allocation-free: mark survivors against the full original set in a
    // bitmask, then compact in place. Semantics identical to the
    // snapshot version — every entry is compared against the whole
    // pre-filter set.
    let mut keep: u128 = 0;
    for i in 0..before {
        let (_, m) = edges[i];
        let dominated = edges.iter().any(|&(_, o)| {
            o.time_s <= m.time_s
                && o.cost_nanos <= m.cost_nanos
                && (o.time_s < m.time_s || o.cost_nanos < m.cost_nanos)
        });
        if !dominated {
            keep |= 1 << i;
        }
    }
    let mut slot = 0;
    edges.retain(|_| {
        let kept = keep >> slot & 1 == 1;
        slot += 1;
        kept
    });
    before - edges.len()
}

/// Compute the column-2 recipe for one `k_M` (pure; safe to run on any
/// thread).
fn col2_recipe(
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    cache: &ModelCache<'_>,
    prune: PruneConfig,
    k_m: usize,
) -> Option<Col2Recipe> {
    let job = cache.job();
    let j = job.num_objects().div_ceil(k_m);
    if j.max(2) > platform.max_concurrency as usize {
        return None; // Eq. 18: j <= R
    }
    let mut mapper_edges = Vec::new();
    for (ti, &i_mem) in space.memory_tiers_mb.iter().enumerate() {
        // Computed exactly as the analytical model does, so that a
        // path's metrics match `astra_model::evaluate` bit for bit.
        let phase = cache.mapper_phase(i_mem, k_m);
        if phase.duration_s > platform.timeout_s {
            continue; // this tier is too slow for this k_M
        }
        let cost = mapper_edge_cost(job, &phase, i_mem, platform, catalog, cache.job_total_mb());
        mapper_edges.push((ti, metrics(phase.duration_s, cost)));
    }
    if mapper_edges.is_empty() {
        return None;
    }
    // Mapper-tier dominance for this k_M: the source edge into every
    // tier is (0, 0) and the continuation from the k_M node is tier-
    // independent, so the edge bundle alone decides Pareto dominance.
    let pruned_edges = if prune.pareto_tiers {
        pareto_filter(&mut mapper_edges)
    } else {
        0
    };
    Some(Col2Recipe {
        k_m,
        j,
        mapper_edges,
        pruned_edges,
    })
}

/// Compute the column-3/4 recipe for one `(k_M, k_R)` pair (pure; safe
/// to run on any thread). `coord_compute[ai]` is the coordinator
/// planning time at tier `ai`.
#[allow(clippy::too_many_arguments)]
fn col3_recipe(
    platform: &Platform,
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    cache: &ModelCache<'_>,
    coord_compute: &[f64],
    prune: PruneConfig,
    k_m: usize,
    k_r: usize,
) -> Option<Col3Recipe> {
    let job = cache.job();
    let tiers = &space.memory_tiers_mb;
    let structure = cache.reduce_structure(k_m, k_r);
    // Eq. 18 storage cap: D + S(state) + Q <= O. (`D` via the cache's
    // one-shot total, not an O(N) rescan per (k_M, k_R) pair.)
    let state_mb = job.profile.state_object_mb * structure.num_steps() as f64;
    let pending_input_mb = total_input_mb(&structure.steps);
    if cache.job_total_mb() + state_mb + pending_input_mb > platform.max_storage_mb {
        return None;
    }
    // Concurrency: widest reduce step + the waiting coordinator.
    let widest = structure
        .steps
        .iter()
        .map(|s| s.reducers())
        .max()
        .unwrap_or(0);
    if widest + 1 > platform.max_concurrency as usize {
        return None;
    }

    let e2_cost = orchestration_requests_cost(&structure, platform, catalog);

    // Per reducer tier: full reducer lifetimes, phase span, reducer
    // bills — all independent of the coordinator tier.
    struct PerTier {
        phase_s: f64,
        wait_before_last_s: f64,
        edge_cost_excl_coord: Money,
        feasible: bool,
    }
    let per_tier: Vec<PerTier> = tiers
        .iter()
        .map(|&s_mem| {
            let times = cache.reduce_tier_times(k_m, k_r, s_mem);
            // Step maxima decide feasibility: every reducer fits the
            // timeout iff the slowest one in each step does.
            let feasible = times
                .per_step_max_s
                .iter()
                .all(|&t| t <= platform.timeout_s);
            if !feasible {
                // No final edge will use this tier; skip its costing.
                return PerTier {
                    phase_s: 0.0,
                    wait_before_last_s: 0.0,
                    edge_cost_excl_coord: Money::ZERO,
                    feasible,
                };
            }
            let wait_before_last: f64 = times.per_step_max_s[..times.per_step_max_s.len() - 1]
                .iter()
                .sum();
            // reduce_edge_cost with a zero-duration coordinator gives
            // the coordinator-independent part.
            let cost_excl = reduce_edge_cost(
                job,
                &structure,
                &times,
                s_mem,
                tiers[0],
                0.0,
                platform,
                catalog,
                cache.job_total_mb(),
            );
            PerTier {
                phase_s: times.duration_s(),
                wait_before_last_s: wait_before_last,
                edge_cost_excl_coord: cost_excl,
                feasible,
            }
        })
        .collect();

    let last_spawn_s = *structure
        .per_step_spawn_s
        .last()
        .expect("at least one step");
    let full: Vec<Col4Recipe> = tiers
        .iter()
        .enumerate()
        .map(|(ai, &a_mem)| {
            let state_put_s =
                coordinator_state_put_secs(structure.num_steps(), platform, &job.profile, a_mem);
            let t2_s = coord_compute[ai] + state_put_s;
            let e3_cost = coordinator_storage_cost(
                job,
                &structure,
                t2_s,
                platform,
                catalog,
                cache.job_total_mb(),
                pending_input_mb,
            );
            let mut final_edges = Vec::new();
            for (si, tier) in per_tier.iter().enumerate() {
                if !tier.feasible {
                    continue;
                }
                // The coordinator waits through the first P-1 steps and
                // pays the final step's launch latency before exiting
                // (PerfBreakdown::coordinator_billed_s).
                let coord_billed_s = t2_s + tier.wait_before_last_s + last_spawn_s;
                if coord_billed_s > platform.timeout_s {
                    continue;
                }
                let coord_cost = runtime_cost(coord_billed_s, a_mem, &catalog.lambda);
                let e4_cost = tier.edge_cost_excl_coord + coord_cost;
                final_edges.push((si, metrics(tier.phase_s, e4_cost)));
            }
            Col4Recipe {
                e3: metrics(t2_s, e3_cost),
                final_edges,
            }
        })
        .collect();

    let (mut pruned_coords, mut pruned_final_edges) = (0usize, 0usize);
    let mut per_coord: Vec<(usize, Col4Recipe)> = if prune.pareto_tiers {
        // Coordinator-tier dominance within this (k_M, k_R). A path
        // through coordinator `a` and reducer tier `s` adds time
        // `t2(a) + phase(s)` and cost `e3c(a) + e4c(s, a)`; `phase(s)`
        // is coordinator-independent, so `aj` dominates `ai` iff
        // `t2(aj) <= t2(ai)` and, for every reducer continuation `ai`
        // offers, `aj` offers it no more expensively — with at least one
        // strict improvement (exact ties keep both). Coordinators with
        // no feasible reducer tier are dead ends and always dropped.
        let combined: Vec<Vec<Option<i64>>> = full
            .iter()
            .map(|c| {
                let mut by_si: Vec<Option<i64>> = vec![None; tiers.len()];
                for &(si, m) in &c.final_edges {
                    by_si[si] = Some(c.e3.cost_nanos + m.cost_nanos);
                }
                by_si
            })
            .collect();
        let dominated = |i: usize| -> bool {
            if full[i].final_edges.is_empty() {
                return true; // dead end: on no source→sink path
            }
            // Only `i`'s own continuations decide dominance — slots `j`
            // offers and `i` lacks never make `j` worse — so walk `i`'s
            // (sparse) final-edge list and index `j`'s dense slot table.
            let base_i = full[i].e3.cost_nanos;
            (0..full.len()).any(|j| {
                if j == i {
                    return false;
                }
                let (ti, tj) = (full[i].e3.time_s, full[j].e3.time_s);
                if tj > ti {
                    return false;
                }
                let mut strict = tj < ti;
                let by_si_j = &combined[j];
                for &(si, m) in &full[i].final_edges {
                    let ci = base_i + m.cost_nanos;
                    match by_si_j[si] {
                        Some(cj) => {
                            if cj > ci {
                                return false;
                            }
                            if cj < ci {
                                strict = true;
                            }
                        }
                        None => return false, // j misses a continuation
                    }
                }
                strict
            })
        };
        let keep: Vec<bool> = (0..full.len()).map(|i| !dominated(i)).collect();
        pruned_coords = keep.iter().filter(|&&k| !k).count();
        full.into_iter()
            .enumerate()
            .filter(|(ai, _)| keep[*ai])
            .collect()
    } else {
        full.into_iter().enumerate().collect()
    };
    if prune.pareto_tiers {
        // Reducer-tier dominance within each surviving coordinator: the
        // z_s -> sink edge is (0, 0), so the final-edge bundle alone
        // decides dominance.
        for (_, coord) in &mut per_coord {
            pruned_final_edges += pareto_filter(&mut coord.final_edges);
        }
    }

    Some(Col3Recipe {
        k_r,
        e2: metrics(0.0, e2_cost),
        per_coord,
        pruned_coords,
        pruned_final_edges,
    })
}

impl PlannerDag {
    /// Construct the DAG for `job` over `space`, pricing with `catalog`.
    ///
    /// Edge metrics for columns 2–4 are evaluated in parallel over the
    /// `(k_M, k_R, tier)` choices; assembly is serial and ordered, so the
    /// resulting store is bit-identical for every thread count.
    pub fn build(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        space: &ConfigSpace,
    ) -> PlannerDag {
        Self::build_with(job, platform, catalog, space, PruneConfig::default())
    }

    /// [`PlannerDag::build`] with explicit [`PruneConfig`] (the default
    /// build prunes; pass [`PruneConfig::off`] for the full Fig. 5 DAG).
    pub fn build_with(
        job: &JobSpec,
        platform: &Platform,
        catalog: &PriceCatalog,
        space: &ConfigSpace,
        prune: PruneConfig,
    ) -> PlannerDag {
        let cache = ModelCache::new(job, platform);
        Self::build_with_cache(catalog, space, &cache, prune)
    }

    /// [`PlannerDag::build_with`] reusing an existing model cache, so DAG
    /// construction and later sweeps (exhaustive validation, frontier
    /// walks) share memoized sub-terms.
    pub fn build_with_cache(
        catalog: &PriceCatalog,
        space: &ConfigSpace,
        cache: &ModelCache<'_>,
        prune: PruneConfig,
    ) -> PlannerDag {
        // Wall-clock spans per construction pass follow the process-global
        // telemetry handle (installed by the CLI / experiment binaries);
        // they are observational only and do not touch the build itself.
        let tel = astra_telemetry::global();
        let build_span = tel.wall_span("planner", "dag.build", "planner");
        let (col2, col3_flat) = recipes(catalog, space, cache, prune, &tel, build_span.id());
        let dag = {
            let mut span = tel.wall_span("planner", "dag.assemble", "planner");
            span.set_parent(build_span.id());
            assemble(space, &col2, &col3_flat)
        };
        if tel.enabled() {
            tel.gauge("planner.dag.nodes", dag.graph().node_count() as f64);
            tel.gauge("planner.dag.edges", dag.graph().edge_count() as f64);
            let stats = dag.prune_stats();
            tel.gauge("planner.dag.pruned_mapper_edges", stats.mapper_edges as f64);
            tel.gauge(
                "planner.dag.pruned_coordinator_nodes",
                stats.coordinator_nodes as f64,
            );
            tel.gauge("planner.dag.pruned_reducer_edges", stats.reducer_edges as f64);
            tel.gauge(
                "planner.dag.bundles_collapsed",
                dag.graph().bundles_collapsed() as f64,
            );
        }
        dag
    }

    /// The edge store.
    pub fn graph(&self) -> &SoaEdges {
        &self.edges
    }

    /// Mutable edge store, for in-place recosts.
    pub(crate) fn graph_mut(&mut self) -> &mut SoaEdges {
        &mut self.edges
    }

    /// What each node decides, indexed by node id.
    pub fn choices(&self) -> &[Choice] {
        &self.choices
    }

    /// Source node (assembly emits it first).
    pub fn source(&self) -> u32 {
        0
    }

    /// Sink node (assembly emits it second).
    pub fn sink(&self) -> u32 {
        1
    }

    /// How much dominance pruning removed during construction (all zero
    /// for [`PruneConfig::off`] builds).
    pub fn prune_stats(&self) -> PruneStats {
        self.prune_stats
    }

    /// Recover the configuration a source→sink path encodes.
    ///
    /// Panics if the path does not visit one node of every column (which
    /// cannot happen for paths produced by the solvers on a built DAG).
    pub fn config_for_path(&self, edges: &[EdgeId]) -> JobConfig {
        let mut mapper_mem = None;
        let mut coord = None;
        let mut reducer_mem = None;
        let mut k_m = None;
        let mut k_r = None;
        for &e in edges {
            match self.choices[self.edges.head(e) as usize] {
                Choice::MapperMem(m) => mapper_mem = Some(m),
                Choice::ObjectsPerMapper(k) => k_m = Some(k),
                Choice::ObjectsPerReducer { k_r: k, .. } => k_r = Some(k),
                Choice::CoordinatorMem { mem, .. } => coord = Some(mem),
                Choice::ReducerMem(m) => reducer_mem = Some(m),
                Choice::Source | Choice::Sink => {}
            }
        }
        JobConfig {
            mapper_mem_mb: mapper_mem.expect("path misses mapper memory"),
            coordinator_mem_mb: coord.expect("path misses coordinator memory"),
            reducer_mem_mb: reducer_mem.expect("path misses reducer memory"),
            objects_per_mapper: k_m.expect("path misses k_M"),
            objects_per_reducer: k_r.expect("path misses k_R"),
        }
    }

    /// Total time metric along a path.
    pub fn path_time_s(&self, edges: &[EdgeId]) -> f64 {
        edges.iter().map(|&e| self.edges.metrics(e).time_s).sum()
    }

    /// Total cost metric along a path.
    pub fn path_cost(&self, edges: &[EdgeId]) -> Money {
        Money::from_nanos(
            edges
                .iter()
                .map(|&e| self.edges.metrics(e).cost_nanos as i128)
                .sum(),
        )
    }

    /// Tier-B incremental patch: recompute the column recipes for the
    /// (changed) job behind `cache` and *replay* [`assemble`]'s exact
    /// node/edge emission order against this DAG's existing store,
    /// overwriting edge metrics in place.
    ///
    /// Because emission order is deterministic, a successful replay — a
    /// node-by-node, slot-by-slot topology match that consumes exactly
    /// the stored nodes and slots — produces a store bit-identical to a
    /// cold [`PlannerDag::build_with_cache`] at the new inputs. Any
    /// divergence (a feasibility gate or pruning verdict flipped, so the
    /// new build would have a different shape) returns `false`; the
    /// store's metrics are then partially overwritten and the caller
    /// **must** discard it and rebuild. `space` and `prune` must be the
    /// ones the DAG was originally built with (the delta classifier
    /// guarantees this — space changes are reshape deltas).
    pub(crate) fn try_patch_recompute(
        &mut self,
        catalog: &PriceCatalog,
        space: &ConfigSpace,
        cache: &ModelCache<'_>,
        prune: PruneConfig,
    ) -> bool {
        let tel = astra_telemetry::Telemetry::disabled();
        let (col2, col3_flat) = recipes(catalog, space, cache, prune, &tel, 0);
        let mut replay = SlotWriter::new(&self.choices, &mut self.edges, false);
        let Some(prune_stats) = emit(space, &col2, &col3_flat, &mut replay) else {
            return false;
        };
        // The replay must consume the store exactly: leftovers mean the
        // new build would emit fewer nodes or edges than the old shape.
        if !replay.consumed_all() {
            return false;
        }
        self.prune_stats = prune_stats;
        true
    }
}

/// Coordinator planning compute per tier (depends only on its tier).
fn coord_compute_per_tier(job: &JobSpec, platform: &Platform, space: &ConfigSpace) -> Vec<f64> {
    let shuffle_mb = job.shuffle_mb();
    space
        .memory_tiers_mb
        .iter()
        .map(|&a| coordinator_compute_secs(shuffle_mb, platform, &job.profile, a))
        .collect()
}

/// Column recipes flattened per `(k_M, k_R)` work item, tagged with the
/// index of their column-2 recipe (`None` where the pair is infeasible).
type Col3Flat = Vec<Option<(usize, Col3Recipe)>>;

/// The two parallel recipe passes: mapper edges per `k_M`, then reduce
/// edges per surviving `(k_M, k_R)` pair. Both are order-preserving, so
/// the output is identical for every thread count.
fn recipes(
    catalog: &PriceCatalog,
    space: &ConfigSpace,
    cache: &ModelCache<'_>,
    prune: PruneConfig,
    tel: &astra_telemetry::Telemetry,
    parent: u64,
) -> (Vec<Col2Recipe>, Col3Flat) {
    let (job, platform) = (cache.job(), cache.platform());
    job.profile.validate();
    let coord_compute = coord_compute_per_tier(job, platform, space);
    let col2: Vec<Col2Recipe> = {
        let mut span = tel.wall_span("planner", "dag.col2", "planner");
        span.set_parent(parent);
        space
            .k_m_values
            .par_iter()
            .filter_map(|&k_m| col2_recipe(platform, catalog, space, cache, prune, k_m))
            .collect()
    };
    let col3_flat = {
        let mut span = tel.wall_span("planner", "dag.col3", "planner");
        span.set_parent(parent);
        let work: Vec<(usize, usize, usize)> = col2
            .iter()
            .enumerate()
            .flat_map(|(ci, r)| {
                space
                    .k_r_candidates(r.j)
                    .into_iter()
                    .map(move |k_r| (ci, r.k_m, k_r))
            })
            .collect();
        work.par_iter()
            .map(|&(ci, k_m, k_r)| {
                col3_recipe(platform, catalog, space, cache, &coord_compute, prune, k_m, k_r)
                    .map(|r| (ci, r))
            })
            .collect()
    };
    (col2, col3_flat)
}

/// Receiver of [`emit`]'s node and edge sequence. Returning `None`
/// stops the emission (a replay found a different shape).
trait Emit {
    /// The next node, carrying `choice`; returns its id.
    fn node(&mut self, choice: Choice) -> Option<u32>;
    /// An edge `from -> to`; `multiplicity` is evaluated only by
    /// receivers that store it.
    fn edge(
        &mut self,
        from: u32,
        to: u32,
        m: EdgeMetrics,
        multiplicity: impl FnOnce() -> u32,
    ) -> Option<()>;
}

/// Walk the recipes in the one canonical emission order and feed every
/// node and edge to `out`, returning the prune tallies (or `None` if
/// `out` stopped the walk). This is the single authority on node and
/// edge order: source and sink, columns 1 and 5 in tier order (each
/// with its source/sink edge), column 2 in `k_m_values` order (mapper
/// edges per `k_M` in tier order), then per `(k_M, k_R)` in candidate
/// order the column-3 node, its `e2` edge, and per coordinator tier the
/// column-4 node, its `e3` edge and the final edges in reducer-tier
/// order.
fn emit(
    space: &ConfigSpace,
    col2: &[Col2Recipe],
    col3_flat: &[Option<(usize, Col3Recipe)>],
    out: &mut impl Emit,
) -> Option<PruneStats> {
    let tiers = &space.memory_tiers_mb;
    let zero = metrics(0.0, Money::ZERO);
    let source = out.node(Choice::Source)?;
    let sink = out.node(Choice::Sink)?;
    // Column 1 (mapper memory) and column 5 (reducer memory) are shared
    // across all partitioning choices.
    let mut col1 = Vec::with_capacity(tiers.len());
    for &m in tiers {
        let id = out.node(Choice::MapperMem(m))?;
        out.edge(source, id, zero, || 1)?;
        col1.push(id);
    }
    let mut col5 = Vec::with_capacity(tiers.len());
    for &m in tiers {
        let id = out.node(Choice::ReducerMem(m))?;
        out.edge(id, sink, zero, || 1)?;
        col5.push(id);
    }

    let mut prune_stats = PruneStats::default();
    let mut col2_nodes = Vec::with_capacity(col2.len());
    for r in col2 {
        prune_stats.mapper_edges += r.pruned_edges;
        let node = out.node(Choice::ObjectsPerMapper(r.k_m))?;
        for &(ti, m) in &r.mapper_edges {
            out.edge(col1[ti], node, m, || space.k_m_weight(r.k_m) as u32)?;
        }
        col2_nodes.push(node);
    }

    for (ci, recipe) in col3_flat.iter().flatten() {
        prune_stats.coordinator_nodes += recipe.pruned_coords;
        prune_stats.reducer_edges += recipe.pruned_final_edges;
        if recipe.per_coord.is_empty() {
            // Every coordinator tier was a dead end: the (k_M, k_R) node
            // would have no continuation, so skip it entirely.
            continue;
        }
        let (k_m, j, k_r) = (col2[*ci].k_m, col2[*ci].j, recipe.k_r);
        let col3_node = out.node(Choice::ObjectsPerReducer { k_m, k_r })?;
        out.edge(col2_nodes[*ci], col3_node, recipe.e2, || {
            space.k_r_weight(j, k_r) as u32
        })?;
        for (ai, coord) in &recipe.per_coord {
            let col4_node = out.node(Choice::CoordinatorMem {
                k_m,
                k_r,
                mem: tiers[*ai],
            })?;
            out.edge(col3_node, col4_node, coord.e3, || 1)?;
            for &(si, m) in &coord.final_edges {
                out.edge(col4_node, col5[si], m, || 1)?;
            }
        }
    }
    Some(prune_stats)
}

/// First assembly pass: record every node's choice and out-degree.
#[derive(Default)]
struct ShapeCounter {
    choices: Vec<Choice>,
    degrees: Vec<u32>,
}

impl Emit for ShapeCounter {
    fn node(&mut self, choice: Choice) -> Option<u32> {
        let id = u32::try_from(self.choices.len()).expect("too many nodes");
        self.choices.push(choice);
        self.degrees.push(0);
        Some(id)
    }

    fn edge(&mut self, from: u32, _: u32, _: EdgeMetrics, _: impl FnOnce() -> u32) -> Option<()> {
        self.degrees[from as usize] += 1;
        Some(())
    }
}

/// Writes (or, replaying, verifies and rewrites) slots. Each tail fills
/// its slot range from the back, so its most recently emitted edge takes
/// its first slot.
struct SlotWriter<'a> {
    choices: &'a [Choice],
    store: &'a mut SoaEdges,
    /// Per node, one past the next slot to fill.
    cursor: Vec<u32>,
    next_node: u32,
    /// `true` for a fresh store (write heads and multiplicities),
    /// `false` for a replay (verify heads, keep multiplicities).
    fresh: bool,
}

impl<'a> SlotWriter<'a> {
    fn new(choices: &'a [Choice], store: &'a mut SoaEdges, fresh: bool) -> SlotWriter<'a> {
        let cursor = store.offsets[1..].to_vec();
        SlotWriter {
            choices,
            store,
            cursor,
            next_node: 0,
            fresh,
        }
    }

    /// Every node and slot was emitted exactly once.
    fn consumed_all(&self) -> bool {
        self.next_node as usize == self.choices.len()
            && self.cursor.iter().zip(&self.store.offsets).all(|(c, o)| c == o)
    }
}

impl Emit for SlotWriter<'_> {
    fn node(&mut self, choice: Choice) -> Option<u32> {
        let id = self.next_node;
        if self.choices.get(id as usize) != Some(&choice) {
            return None;
        }
        self.next_node += 1;
        Some(id)
    }

    fn edge(
        &mut self,
        from: u32,
        to: u32,
        m: EdgeMetrics,
        multiplicity: impl FnOnce() -> u32,
    ) -> Option<()> {
        let cursor = &mut self.cursor[from as usize];
        if *cursor == self.store.offsets[from as usize] {
            return None; // more edges than the stored shape has
        }
        *cursor -= 1;
        let slot = *cursor as usize;
        if self.fresh {
            self.store.heads[slot] = to;
            self.store.multiplicity[slot] = multiplicity();
        } else if self.store.heads[slot] != to {
            return None;
        }
        self.store.overwrite(EdgeId(slot as u32), m);
        Some(())
    }
}

/// Assemble the DAG from collected recipes: one [`emit`] walk to size
/// every node's slot range, a second to fill the slots, then the
/// topological order.
fn assemble(
    space: &ConfigSpace,
    col2: &[Col2Recipe],
    col3_flat: &[Option<(usize, Col3Recipe)>],
) -> PlannerDag {
    let mut shape = ShapeCounter::default();
    let prune_stats = emit(space, col2, col3_flat, &mut shape).expect("counting never stops");
    let mut edges = SoaEdges::with_degrees(&shape.degrees);
    let mut writer = SlotWriter::new(&shape.choices, &mut edges, true);
    emit(space, col2, col3_flat, &mut writer).expect("a fresh store accepts its own shape");
    debug_assert!(writer.consumed_all());
    edges.topo = edges.kahn_order();
    PlannerDag {
        choices: shape.choices,
        edges,
        prune_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_graph::dijkstra::{shortest_path, ShortestPath};
    use astra_model::{evaluate, WorkloadProfile};

    fn job(n: usize) -> JobSpec {
        JobSpec::uniform("t", n, 1.0, WorkloadProfile::uniform_test())
    }

    fn build(n: usize, tiers: &[u32]) -> (JobSpec, Platform, PriceCatalog, PlannerDag) {
        let j = job(n);
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, tiers);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        (j, platform, catalog, dag)
    }

    /// A store view weighting each edge `lambda * time + (1 - lambda) *
    /// cost` (cost in milli-dollars), for probing many different paths.
    struct Mix<'a> {
        view: SoaView<'a, false>,
        lambda: f64,
    }

    impl EdgeExpand for Mix<'_> {
        fn node_count(&self) -> usize {
            self.view.node_count()
        }

        fn for_each_out(&mut self, v: u32, mut f: impl FnMut(EdgeId, u32, f64, f64)) {
            let lambda = self.lambda;
            self.view.for_each_out(v, |e, head, t, c| {
                f(e, head, lambda * t + (1.0 - lambda) * c * 1e-3, 0.0)
            });
        }

        fn topo_order(&self) -> Option<Vec<u32>> {
            self.view.topo_order()
        }
    }

    /// Unconstrained shortest path on the `lambda` mix (1.0 = time,
    /// 0.0 = cost) by the zero-bound Dijkstra.
    fn shortest(dag: &PlannerDag, lambda: f64) -> Option<ShortestPath> {
        let mut g = Mix {
            view: dag.graph().time_view(),
            lambda,
        };
        let zero = vec![0.0; g.node_count()];
        shortest_path(&mut g, dag.source(), dag.sink(), |_| true, &zero)
    }

    #[test]
    fn dag_is_acyclic_and_connected() {
        let (_, _, _, dag) = build(6, &[128, 1024]);
        let order = dag.graph().time_view().topo_order().unwrap();
        assert_eq!(order.len(), dag.graph().node_count());
        assert!(shortest(&dag, 1.0).is_some());
    }

    #[test]
    fn every_path_metric_matches_model_exactly() {
        // The load-bearing property: path sums == model evaluation —
        // checked on both the idealised platform and the full AWS one
        // (cold-start-free model, but spawn overheads, efficiency curve
        // and bandwidth scaling all active).
        for platform in [
            Platform::paper_literal(10.0),
            Platform::aws_lambda(),
            Platform::aws_lambda().with_elasticache(),
        ] {
            let j = job(6);
            let catalog = PriceCatalog::aws_2020();
            let space = ConfigSpace::with_tiers(&j, &platform, &[128, 512, 3008]);
            let dag = PlannerDag::build(&j, &platform, &catalog, &space);
            // Probe several paths by minimizing different mixes.
            for lambda in [0.0, 0.3, 0.7, 1.0] {
                let p = shortest(&dag, lambda).unwrap();
                let config = dag.config_for_path(&p.edges);
                let ev = evaluate(&j, &platform, &config, &catalog).unwrap();
                let dt = (dag.path_time_s(&p.edges) - ev.jct_s()).abs();
                assert!(dt < 1e-9, "time mismatch {dt} for {config:?}");
                assert_eq!(
                    dag.path_cost(&p.edges),
                    ev.total_cost(),
                    "cost mismatch for {config:?}"
                );
            }
        }
    }

    #[test]
    fn unconstrained_shortest_paths_beat_every_config() {
        let (j, platform, catalog, dag) = build(5, &[128, 1024]);
        let fastest = shortest(&dag, 1.0).unwrap();
        let cheapest = shortest(&dag, 0.0).unwrap();
        let best_time = dag.path_time_s(&fastest.edges);
        let best_cost = dag.path_cost(&cheapest.edges);
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        for config in space.iter_configs(&j) {
            if let Ok(ev) = evaluate(&j, &platform, &config, &catalog) {
                assert!(best_time <= ev.jct_s() + 1e-9, "config {config:?} is faster");
                assert!(best_cost <= ev.total_cost(), "config {config:?} is cheaper");
            }
        }
    }

    #[test]
    fn timeout_prunes_slow_tiers() {
        let j = job(2);
        let mut platform = Platform::paper_literal(10.0);
        // 1 mapper x 2 MB at 1 s/MB on 128 MB: ~2.4 s. Timeout below that
        // kills the 128 MB edges but keeps 1024 MB ones.
        platform.timeout_s = 1.0;
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        let p = shortest(&dag, 1.0).unwrap();
        let config = dag.config_for_path(&p.edges);
        assert_eq!(config.mapper_mem_mb, 1024);
    }

    #[test]
    fn concurrency_cap_prunes_wide_fanouts() {
        let j = job(10);
        let mut platform = Platform::paper_literal(10.0);
        platform.max_concurrency = 4;
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace {
            memory_tiers_mb: vec![128],
            k_m_values: (1..=10).collect(),
            k_r_values: (2..=10).collect(),
            k_m_weights: Vec::new(),
        };
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        // k_M = 1 and 2 (j = 10, 5) must be absent.
        for choice in dag.choices() {
            if let Choice::ObjectsPerMapper(k_m) = choice {
                assert!(*k_m >= 3, "k_M={k_m} should have been pruned");
            }
        }
    }

    #[test]
    fn pruning_shrinks_the_dag_and_reports_stats() {
        let j = job(8);
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 256, 512, 1024, 1792, 3008]);
        let pruned = PlannerDag::build_with(&j, &platform, &catalog, &space, PruneConfig::on());
        let full = PlannerDag::build_with(&j, &platform, &catalog, &space, PruneConfig::off());
        assert_eq!(full.prune_stats(), PruneStats::default());
        assert!(
            pruned.prune_stats().total() > 0,
            "expected dominated tiers across a 6-tier space"
        );
        assert!(pruned.graph().edge_count() < full.graph().edge_count());
        assert!(pruned.graph().node_count() <= full.graph().node_count());
        // Both orientations still find their unconstrained optimum, and it
        // matches the full DAG's bit for bit.
        for lambda in [1.0, 0.0] {
            let p = shortest(&pruned, lambda).unwrap();
            let q = shortest(&full, lambda).unwrap();
            assert_eq!(pruned.config_for_path(&p.edges), full.config_for_path(&q.edges));
        }
    }

    #[test]
    fn prune_off_keeps_dead_end_coordinators() {
        // PruneConfig::off must reproduce the pre-pruning construction
        // exactly: every coordinator tier gets a column-4 node even when
        // it is a dead end with no feasible reducer continuation.
        let j = job(5);
        let platform = Platform::paper_literal(10.0);
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 1024]);
        let dag = PlannerDag::build_with(&j, &platform, &catalog, &space, PruneConfig::off());
        let count = |f: fn(&Choice) -> bool| dag.choices().iter().filter(|c| f(c)).count();
        let pairs = count(|c| matches!(c, Choice::ObjectsPerReducer { .. }));
        let coords = count(|c| matches!(c, Choice::CoordinatorMem { .. }));
        assert_eq!(coords, pairs * 2, "one column-4 node per (pair, tier)");
    }

    #[test]
    fn store_slots_are_grouped_by_tail_most_recent_first() {
        let (j, platform, catalog, dag) = build(8, &[128, 512, 3008]);
        let g = dag.graph();
        let n = g.node_count();
        // Even the raw space folds every k_R >= j onto the single-step
        // candidate (the k_r_candidates clamp), so the collapse counter
        // is non-zero here too. Derive the expected total independently:
        // an edge into the single-step node `k_R = max(j, 2)` stands for
        // the n - max(j, 2) + 1 raw values of 2..=n at or above it.
        let expected: u64 = (0..n as u32)
            .flat_map(|v| g.out_edges(v))
            .map(|e| match dag.choices()[g.head(e) as usize] {
                Choice::ObjectsPerReducer { k_m, k_r } => {
                    let cap = 8usize.div_ceil(k_m).max(2);
                    if k_r == cap {
                        (8 - cap) as u64
                    } else {
                        0
                    }
                }
                _ => 0,
            })
            .sum();
        assert_eq!(g.bundles_collapsed(), expected);
        // The source's out-edges are the column-1 tiers, emitted in tier
        // order, so they sit in reverse tier order.
        let heads: Vec<Choice> = g
            .out_edges(dag.source())
            .map(|e| dag.choices()[g.head(e) as usize])
            .collect();
        assert_eq!(
            heads,
            vec![
                Choice::MapperMem(3008),
                Choice::MapperMem(512),
                Choice::MapperMem(128)
            ]
        );
        let space = ConfigSpace::with_tiers(&j, &platform, &[128, 512, 3008]);
        let rebuilt = PlannerDag::build(&j, &platform, &catalog, &space);
        assert!(rebuilt.graph() == g, "rebuilds are bit-identical");
    }

    #[test]
    fn bundled_space_records_edge_multiplicities() {
        let j = job(97);
        let platform = Platform::aws_lambda();
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::bundled(&j, &platform);
        let full = ConfigSpace::full(&j, &platform);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        assert!(
            dag.graph().bundles_collapsed() > 0,
            "97 objects have k_M classes wider than one candidate"
        );
        // The bundled space's k_M axis stands for every raw candidate.
        assert_eq!(
            space.k_m_weights.iter().sum::<usize>(),
            full.k_m_values.len()
        );
    }

    #[test]
    fn infeasible_platform_yields_no_path() {
        let j = job(4);
        let mut platform = Platform::paper_literal(10.0);
        platform.timeout_s = 0.001; // nothing fits
        let catalog = PriceCatalog::aws_2020();
        let space = ConfigSpace::with_tiers(&j, &platform, &[128]);
        let dag = PlannerDag::build(&j, &platform, &catalog, &space);
        assert!(shortest(&dag, 1.0).is_none());
    }
}
