//! Exact-rational maximum flow (Edmonds–Karp on adjacency lists).
//!
//! The oracles use flows twice: the transportation feasibility step of the
//! splittable coverage bound (Gale–Hoffman), and the per-class piece
//! assignment of the preemptive realization. Capacities are [`Rational`]s;
//! Edmonds–Karp augments along *shortest* residual paths, so the number of
//! augmentations is `O(V·E)` regardless of capacity values — termination
//! does not depend on integrality.

use bss_rational::Rational;

/// An edge of the flow network (the reverse edge is stored separately and
/// found via `id ^ 1`).
#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: Rational,
    flow: Rational,
}

/// A flow network over `n` nodes with rational capacities.
#[derive(Debug, Clone)]
pub(crate) struct Flow {
    adj: Vec<Vec<usize>>,
    edges: Vec<Edge>,
}

impl Flow {
    /// An empty network on `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        Flow {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Adds a directed edge `u → v` of capacity `cap`; returns its id (the
    /// reverse edge is `id + 1`).
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, cap: Rational) -> usize {
        let id = self.edges.len();
        self.edges.push(Edge {
            to: v,
            cap,
            flow: Rational::ZERO,
        });
        self.edges.push(Edge {
            to: u,
            cap: Rational::ZERO,
            flow: Rational::ZERO,
        });
        self.adj[u].push(id);
        self.adj[v].push(id + 1);
        id
    }

    /// The flow currently on edge `id` (forward direction).
    pub(crate) fn flow(&self, id: usize) -> Rational {
        self.edges[id].flow
    }

    fn residual(&self, id: usize) -> Rational {
        self.edges[id].cap - self.edges[id].flow
    }

    /// Runs Edmonds–Karp from `s` to `t`; returns the max-flow value.
    pub(crate) fn max_flow(&mut self, s: usize, t: usize) -> Rational {
        let mut total = Rational::ZERO;
        let n = self.adj.len();
        let mut pred: Vec<Option<usize>> = vec![None; n];
        loop {
            // BFS for a shortest augmenting path.
            pred.iter_mut().for_each(|p| *p = None);
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(s);
            let mut seen = vec![false; n];
            seen[s] = true;
            while let Some(u) = queue.pop_front() {
                if u == t {
                    break;
                }
                for &id in &self.adj[u] {
                    let v = self.edges[id].to;
                    if !seen[v] && self.residual(id).is_positive() {
                        seen[v] = true;
                        pred[v] = Some(id);
                        queue.push_back(v);
                    }
                }
            }
            if !seen[t] {
                return total;
            }
            // Bottleneck along the path, then augment.
            let mut bottleneck: Option<Rational> = None;
            let mut v = t;
            while v != s {
                let id = pred[v].expect("path edge");
                let r = self.residual(id);
                bottleneck = Some(match bottleneck {
                    Some(b) => b.min(r),
                    None => r,
                });
                v = self.edges[id ^ 1].to;
            }
            let aug = bottleneck.expect("t != s");
            let mut v = t;
            while v != s {
                let id = pred[v].expect("path edge");
                self.edges[id].flow += aug;
                self.edges[id ^ 1].flow -= aug;
                v = self.edges[id ^ 1].to;
            }
            total += aug;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_diamond() {
        let mut f = Flow::new(4);
        f.add_edge(0, 1, Rational::from(3u64));
        f.add_edge(0, 2, Rational::from(2u64));
        f.add_edge(1, 2, Rational::from(5u64));
        f.add_edge(1, 3, Rational::from(2u64));
        f.add_edge(2, 3, Rational::from(3u64));
        assert_eq!(f.max_flow(0, 3), Rational::from(5u64));
    }

    #[test]
    fn rational_capacities_terminate_and_sum() {
        let mut f = Flow::new(4);
        f.add_edge(0, 1, Rational::new(7, 3));
        f.add_edge(0, 2, Rational::new(1, 2));
        f.add_edge(1, 3, Rational::new(3, 2));
        f.add_edge(2, 3, Rational::new(5, 3));
        f.add_edge(1, 2, Rational::new(1, 6));
        assert_eq!(
            f.max_flow(0, 3),
            Rational::new(3, 2) + Rational::new(1, 2) + Rational::new(1, 6)
        );
    }
}
