//! Single-source shortest paths: masked, potential-guided Dijkstra over
//! any [`EdgeExpand`] store.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::csp::EdgeExpand;
use crate::EdgeId;

/// A shortest path: its total weight and the edge sequence from source to
/// target, with each edge's resource (the store's second metric) so that
/// callers can walk a constraint along the path.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPath {
    /// Sum of edge weights along the path.
    pub weight: f64,
    /// Edges in order from source to target.
    pub edges: Vec<EdgeId>,
    /// `resources[i]` is the resource of `edges[i]`.
    pub resources: Vec<f64>,
}

#[derive(PartialEq)]
struct HeapEntry {
    prio: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on priority; tie-break on node id for determinism.
        other
            .prio
            .total_cmp(&self.prio)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra from `source` to `target` on the store's weights, A*-guided
/// by a per-node admissible, *consistent* lower bound `lb[v]` on the
/// remaining weight from `v` to `target` (e.g. the weight potentials of
/// [`crate::csp::dag_potentials`]). The heap is keyed on `d + lb[v]`;
/// with all-zero bounds this is plain Dijkstra, and because both settle
/// nodes once, relax with strict `<` and accumulate `d + w` identically,
/// the guided search returns the plain search's path and exact float
/// weight whenever weights are tie-free.
///
/// * Weights must be **non-negative** (debug builds assert it).
/// * `enabled` masks edges: the paper's Algorithm 1 re-runs the search
///   on subgraphs, which this avoids copying. Bounds computed on the
///   unmasked graph stay admissible and consistent under any mask,
///   because removing edges only raises true distances. Nodes with
///   `lb[v] = INFINITY` (cannot reach the target at all) are never
///   pushed.
///
/// Returns `None` when `target` is unreachable through enabled edges.
pub fn shortest_path<X: EdgeExpand>(
    g: &mut X,
    source: u32,
    target: u32,
    mut enabled: impl FnMut(EdgeId) -> bool,
    lb: &[f64],
) -> Option<ShortestPath> {
    let n = g.node_count();
    if lb[source as usize].is_infinite() {
        return None;
    }
    let mut dist = vec![f64::INFINITY; n];
    // Predecessor edge, its tail and its resource.
    let mut prev: Vec<Option<(EdgeId, u32, f64)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source as usize] = 0.0;
    heap.push(HeapEntry {
        prio: lb[source as usize],
        node: source,
    });

    while let Some(HeapEntry { node: u, .. }) = heap.pop() {
        let ui = u as usize;
        if done[ui] {
            continue;
        }
        done[ui] = true;
        if u == target {
            break;
        }
        let d = dist[ui];
        g.for_each_out(u, |eid, v, w, r| {
            if !enabled(eid) {
                return;
            }
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let vi = v as usize;
            if lb[vi].is_infinite() {
                return; // cannot reach the target from v
            }
            let nd = d + w;
            if nd < dist[vi] {
                dist[vi] = nd;
                prev[vi] = Some((eid, u, r));
                heap.push(HeapEntry {
                    prio: nd + lb[vi],
                    node: v,
                });
            }
        });
    }

    if !done[target as usize] || !dist[target as usize].is_finite() {
        return None;
    }
    let (mut edges, mut resources) = (Vec::new(), Vec::new());
    let mut cur = target;
    while cur != source {
        let (e, tail, r) = prev[cur as usize].expect("broken predecessor chain");
        edges.push(e);
        resources.push(r);
        cur = tail;
    }
    edges.reverse();
    resources.reverse();
    Some(ShortestPath {
        weight: dist[target as usize],
        edges,
        resources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp::dag_potentials;
    use crate::test_graph::TestGraph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Plain Dijkstra: every edge enabled, zero bounds.
    fn plain(g: &mut TestGraph, s: u32, t: u32) -> Option<ShortestPath> {
        let zero = vec![0.0; g.node_count()];
        shortest_path(g, s, t, |_| true, &zero)
    }

    /// A random DAG on `n` nodes: edges only run from lower to higher
    /// ids, each present with probability `p`; with `chain`, every
    /// `i -> i+1` edge is added too, so the last node is reachable.
    fn random_dag(rng: &mut StdRng, n: u32, p: f64, chain: bool) -> (TestGraph, Vec<EdgeId>) {
        let mut g = TestGraph::default();
        for _ in 0..n {
            g.add_node();
        }
        let mut eids = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if (chain && j == i + 1) || rng.random::<f64>() < p {
                    eids.push(g.add_edge(i, j, rng.random_range(0.01..5.0), 0.0));
                }
            }
        }
        (g, eids)
    }

    /// Node sequence of a path (source first).
    fn nodes(g: &TestGraph, source: u32, p: &ShortestPath) -> Vec<u32> {
        let mut out = vec![source];
        out.extend(p.edges.iter().map(|&e| g.endpoints(e).1));
        out
    }

    #[test]
    fn picks_cheaper_branch() {
        let mut g = TestGraph::default();
        let [s, a, b, t] = [g.add_node(), g.add_node(), g.add_node(), g.add_node()];
        g.add_edge(s, a, 1.0, 0.5);
        g.add_edge(a, t, 1.0, 0.25);
        g.add_edge(s, b, 1.0, 0.0);
        g.add_edge(b, t, 5.0, 0.0);
        let p = plain(&mut g, s, t).unwrap();
        assert_eq!(p.weight, 2.0);
        assert_eq!(nodes(&g, s, &p), vec![s, a, t]);
        assert_eq!(p.resources, vec![0.5, 0.25]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = TestGraph::default();
        let (s, t) = (g.add_node(), g.add_node());
        assert!(plain(&mut g, s, t).is_none());
    }

    #[test]
    fn source_equals_target_is_empty_path() {
        let mut g = TestGraph::default();
        let s = g.add_node();
        let p = plain(&mut g, s, s).unwrap();
        assert_eq!(p.weight, 0.0);
        assert!(p.edges.is_empty());
    }

    #[test]
    fn masked_edge_forces_detour() {
        let mut g = TestGraph::default();
        let (s, t) = (g.add_node(), g.add_node());
        let direct = g.add_edge(s, t, 1.0, 0.0);
        let a = g.add_node();
        g.add_edge(s, a, 2.0, 0.0);
        g.add_edge(a, t, 2.0, 0.0);
        let zero = vec![0.0; 3];
        let p = shortest_path(&mut g, s, t, |e| e != direct, &zero).unwrap();
        assert_eq!(p.weight, 4.0);
        assert_eq!(p.edges.len(), 2);
    }

    #[test]
    fn zero_weight_edges_work() {
        let mut g = TestGraph::default();
        let [s, a, t] = [g.add_node(), g.add_node(), g.add_node()];
        g.add_edge(s, a, 0.0, 0.0);
        g.add_edge(a, t, 0.0, 0.0);
        assert_eq!(plain(&mut g, s, t).unwrap().weight, 0.0);
    }

    /// Bellman–Ford reference used for randomized cross-checks.
    fn bellman_ford(g: &TestGraph, s: u32, t: u32) -> Option<f64> {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[s as usize] = 0.0;
        for _ in 0..n {
            let mut changed = false;
            for u in 0..n as u32 {
                if !dist[u as usize].is_finite() {
                    continue;
                }
                for e in g.out_edges(u) {
                    let v = g.endpoints(e).1 as usize;
                    let nd = dist[u as usize] + g.metrics(e).0;
                    if nd < dist[v] {
                        dist[v] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist[t as usize].is_finite().then_some(dist[t as usize])
    }

    #[test]
    fn matches_bellman_ford_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..50 {
            let n = rng.random_range(2..30u32);
            let (mut g, _) = random_dag(&mut rng, n, 0.3, false);
            let dij = plain(&mut g, 0, n - 1).map(|p| p.weight);
            match (dij, bellman_ford(&g, 0, n - 1)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    /// The A*-guided search matches plain Dijkstra bit-for-bit on random
    /// DAGs when guided by its own exact backward potentials, including
    /// under edge masks computed against the *unmasked* potentials (the
    /// Algorithm 1 usage pattern).
    #[test]
    fn guided_matches_plain_under_masks() {
        let mut rng = StdRng::seed_from_u64(515);
        for case in 0..50 {
            let n = rng.random_range(3..25u32);
            let (mut g, eids) = random_dag(&mut rng, n, 0.3, true);
            let (s, t) = (0, n - 1);
            let pot = dag_potentials(&mut g, t).unwrap();
            // Mask a random subset of edges; the unmasked potentials stay
            // admissible and consistent on the subgraph.
            let masked: Vec<EdgeId> = eids
                .iter()
                .copied()
                .filter(|_| rng.random::<f64>() < 0.2)
                .collect();
            let enabled = |e: EdgeId| !masked.contains(&e);
            let zero = vec![0.0; n as usize];
            let p = shortest_path(&mut g, s, t, enabled, &zero);
            let q = shortest_path(&mut g, s, t, enabled, &pot.min_weight_to);
            match (&p, &q) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(p.weight.to_bits(), q.weight.to_bits(), "case {case}: weight");
                    assert_eq!(p.edges, q.edges, "case {case}: path");
                }
                other => panic!("case {case}: reachability mismatch {other:?}"),
            }
        }
    }

    proptest! {
        #[test]
        fn path_weight_equals_sum_of_edges(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2..20u32);
            let (mut g, _) = random_dag(&mut rng, n, 0.2, true);
            let p = plain(&mut g, 0, n - 1).unwrap();
            let sum: f64 = p.edges.iter().map(|&e| g.metrics(e).0).sum();
            prop_assert!((sum - p.weight).abs() < 1e-9);
            // Path must be contiguous from source to target.
            let seq = nodes(&g, 0, &p);
            prop_assert_eq!(seq[0], 0);
            prop_assert_eq!(*seq.last().unwrap(), n - 1);
            for (k, &e) in p.edges.iter().enumerate() {
                prop_assert_eq!(g.endpoints(e).0, seq[k]);
                prop_assert_eq!(g.endpoints(e).1, seq[k + 1]);
            }
        }
    }
}
