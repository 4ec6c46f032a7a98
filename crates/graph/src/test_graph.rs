//! Test fixture: a small two-metric graph builder that implements
//! [`EdgeExpand`] with the planner store's conventions — edge ids are
//! insertion indices, a node's out-edges are yielded most recently added
//! first, and the topological order is the stack-based Kahn order.

use crate::csp::EdgeExpand;
use crate::EdgeId;

#[derive(Debug, Clone, Default)]
pub(crate) struct TestGraph {
    /// Per node, its out-edge ids in insertion order.
    out: Vec<Vec<u32>>,
    /// Per edge: `(tail, head, weight, resource)`.
    edges: Vec<(u32, u32, f64, f64)>,
}

impl TestGraph {
    pub(crate) fn add_node(&mut self) -> u32 {
        self.out.push(Vec::new());
        self.out.len() as u32 - 1
    }

    pub(crate) fn add_edge(&mut self, from: u32, to: u32, weight: f64, resource: f64) -> EdgeId {
        assert!((to as usize) < self.out.len(), "bad target node");
        let id = self.edges.len() as u32;
        self.out[from as usize].push(id);
        self.edges.push((from, to, weight, resource));
        EdgeId(id)
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub(crate) fn endpoints(&self, e: EdgeId) -> (u32, u32) {
        let (from, to, _, _) = self.edges[e.0 as usize];
        (from, to)
    }

    /// `(weight, resource)` of `e`.
    pub(crate) fn metrics(&self, e: EdgeId) -> (f64, f64) {
        let (_, _, w, r) = self.edges[e.0 as usize];
        (w, r)
    }

    pub(crate) fn set_metrics(&mut self, e: EdgeId, weight: f64, resource: f64) {
        let edge = &mut self.edges[e.0 as usize];
        (edge.2, edge.3) = (weight, resource);
    }

    /// Out-edge ids of `v`, most recently added first.
    pub(crate) fn out_edges(&self, v: u32) -> impl Iterator<Item = EdgeId> + '_ {
        self.out[v as usize].iter().rev().map(|&e| EdgeId(e))
    }
}

impl EdgeExpand for TestGraph {
    fn node_count(&self) -> usize {
        self.out.len()
    }

    fn for_each_out(&mut self, v: u32, mut f: impl FnMut(EdgeId, u32, f64, f64)) {
        for &e in self.out[v as usize].iter().rev() {
            let (_, head, w, r) = self.edges[e as usize];
            f(EdgeId(e), head, w, r);
        }
    }

    fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.out.len();
        let mut in_deg = vec![0usize; n];
        for &(_, head, _, _) in &self.edges {
            in_deg[head as usize] += 1;
        }
        let mut stack: Vec<u32> = (0..n as u32).filter(|&v| in_deg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(u);
            for e in self.out_edges(u) {
                let head = self.edges[e.0 as usize].1 as usize;
                in_deg[head] -= 1;
                if in_deg[head] == 0 {
                    stack.push(head as u32);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahn_order_and_slot_order_follow_the_store_conventions() {
        let mut g = TestGraph::default();
        let [s, a, b, t] = [g.add_node(), g.add_node(), g.add_node(), g.add_node()];
        let sa = g.add_edge(s, a, 1.0, 0.0);
        let sb = g.add_edge(s, b, 2.0, 0.0);
        g.add_edge(a, t, 3.0, 0.0);
        g.add_edge(b, t, 4.0, 0.0);
        let mut seen = Vec::new();
        g.for_each_out(s, |e, head, w, _| seen.push((e, head, w)));
        assert_eq!(seen, vec![(sb, b, 2.0), (sa, a, 1.0)]);
        // Roots in id order, heads released in slot order, stack pops.
        assert_eq!(g.topo_order(), Some(vec![s, a, b, t]));
        g.add_edge(t, s, 1.0, 0.0);
        assert_eq!(g.topo_order(), None, "a cycle has no order");
    }
}
