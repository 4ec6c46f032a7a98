#![warn(missing_docs)]

//! Graph algorithms backing the Astra planner (paper Sec. IV).
//!
//! The paper maps its configuration problem onto a layered DAG (Fig. 5) and
//! solves it with shortest-path machinery (Algorithm 1 cites Dijkstra).
//! This crate supplies that machinery in a problem-agnostic form, generic
//! over [`EdgeExpand`] — an out-edge view of a two-metric DAG whose
//! production implementation is the planner's flat CSR edge store:
//!
//! * [`csp`] — the [`EdgeExpand`] trait, the backward-potentials DP, and
//!   exact resource-constrained shortest path via Pareto-label search
//!   (potential-guided, plus the unguided reference it is checked
//!   against);
//! * [`dijkstra`] — masked, potential-guided Dijkstra (zero bounds give
//!   plain Dijkstra);
//! * [`alg1`] — the paper's Algorithm 1 on top of it: Dijkstra on the
//!   objective, then remove the edge where the constraint first trips
//!   and retry.

pub mod alg1;
pub mod csp;
pub mod dijkstra;
#[cfg(test)]
mod test_graph;

pub use alg1::{algorithm1, Alg1Solution};
pub use csp::{
    constrained_shortest_path, constrained_shortest_path_with_bounds, dag_potentials,
    dag_potentials_resume, CspRun, CspSolution, CspStats, EdgeExpand, Potentials,
};
pub use dijkstra::{shortest_path, ShortestPath};

/// Index of an edge in an [`EdgeExpand`] store (the planner store uses
/// its CSR slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);
