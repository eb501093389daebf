//! The directed CasLaplacian operator of one growing cascade — the
//! spectral layer behind streaming `/observe` ingestion.
//!
//! A new adoption appends one node and one edge. [`IncrementalSpectral`]
//! keeps the cascade graph and rebuilds the operator through the same
//! sparse builder as [`SpectralBasis::directed`], in `O(nnz)` per
//! power-iteration round. A warm start from the previous φ would not be
//! cheaper: from the uniform start the iterate reaches its fixed point in
//! depth + 1 rounds, while the error a warm seed carries on the leaves only
//! contracts by `α` per round. Sharing the builder makes the streamed
//! operator bit-identical to a cold rebuild after any sequence of
//! [`IncrementalSpectral::push_child`] calls, for both `λ_max` modes.

use crate::laplacian::{SpectralBasis, StationaryOutcome};
use crate::DiGraph;

/// Spectral state of one growing cascade: its graph, its stationary
/// distribution `φ`, and the scaled directed CasLaplacian as a
/// [`SpectralBasis`] (sparse core + rank-1 teleport).
#[derive(Debug, Clone)]
pub struct IncrementalSpectral {
    alpha: f32,
    /// `Some(λ)` pins the Chebyshev scaling (the paper's `λ_max ≈ 2`
    /// shortcut); `None` re-estimates the largest eigenvalue on every push.
    pinned_lambda: Option<f32>,
    k: usize,
    graph: DiGraph,
    phi: Vec<f32>,
    basis: SpectralBasis,
    warm_fallbacks: u64,
}

impl IncrementalSpectral {
    /// Initializes the state from an existing cascade graph — the one-time
    /// cost when a live cascade is first registered (or restored from a
    /// snapshot). The published basis is exactly
    /// [`SpectralBasis::directed`] on `g`, and its φ is computed once.
    ///
    /// # Panics
    /// Panics if the graph is empty or `alpha` is outside `(0, 1)` (the
    /// [`crate::laplacian::transition_matrix`] contract).
    pub fn from_graph(g: &DiGraph, alpha: f32, lambda_max: Option<f32>, k: usize) -> Self {
        let (basis, outcome) = SpectralBasis::directed_with_phi(g, alpha, lambda_max, k);
        let mut state = Self {
            alpha,
            pinned_lambda: lambda_max,
            k,
            graph: g.clone(),
            phi: Vec::new(),
            basis,
            warm_fallbacks: 0,
        };
        state.record_phi(outcome);
        state
    }

    /// Number of nodes currently covered.
    pub fn num_nodes(&self) -> usize {
        self.graph.node_count()
    }

    /// The maintained stationary distribution.
    pub fn phi(&self) -> &[f32] {
        &self.phi
    }

    /// The current scaled operator (cheap clone: the heavy parts are
    /// behind an `Arc`).
    pub fn basis(&self) -> SpectralBasis {
        self.basis.clone()
    }

    /// How many φ computations ended without the stopping rule firing (the
    /// last iterate was used) or fell back to the uniform distribution.
    /// Stays at zero on healthy cascade trees; surfaced in serve metrics so
    /// a pathological workload is visible.
    pub fn warm_fallbacks(&self) -> u64 {
        self.warm_fallbacks
    }

    /// Approximate heap footprint (operator + graph + φ) for registry
    /// memory accounting.
    pub fn approx_bytes(&self) -> usize {
        let edges = self.graph.edge_count() * std::mem::size_of::<(usize, usize, f32)>();
        self.basis.approx_bytes() + edges + self.phi.len() * std::mem::size_of::<f32>()
    }

    /// Appends one adoption: a new node whose parent is `parent`, then
    /// rebuilds φ, `λ_max` (unless pinned) and the operator.
    ///
    /// # Panics
    /// Panics if `parent` is out of range.
    pub fn push_child(&mut self, parent: usize) {
        let new = self.graph.node_count();
        assert!(parent < new, "push_child: parent {parent} out of range for {new} nodes");
        self.graph.ensure_nodes(new + 1);
        self.graph.add_edge(parent, new, 1.0);
        let (basis, outcome) =
            SpectralBasis::directed_with_phi(&self.graph, self.alpha, self.pinned_lambda, self.k);
        self.basis = basis;
        self.record_phi(outcome);
    }

    fn record_phi(&mut self, outcome: StationaryOutcome) {
        if !outcome.converged {
            self.warm_fallbacks += 1;
        }
        self.phi = outcome.phi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::{
        cas_laplacian, largest_eigenvalue, stationary, stationary_distribution_checked,
        transition_matrix,
    };

    /// Deterministic xorshift for random tree shapes.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn graph_from_parents(parents: &[usize]) -> DiGraph {
        let mut g = DiGraph::new(parents.len() + 1);
        for (i, &p) in parents.iter().enumerate() {
            g.add_edge(p, i + 1, 1.0);
        }
        g
    }

    /// The streamed operator shares the cold builder, so parity is exact:
    /// same λ_max bits, same CSR structure and values, same rank-1 term.
    fn assert_parity(inc: &IncrementalSpectral, g: &DiGraph, lmax: Option<f32>) {
        let cold = SpectralBasis::directed(g, 0.85, lmax, 2);
        let a = inc.basis();
        assert_eq!(a.lambda_max.to_bits(), cold.lambda_max.to_bits());
        assert_eq!(*a.op, *cold.op, "operator drift over {} nodes", g.node_count());
    }

    #[test]
    fn push_child_matches_cold_directed_over_random_orders() {
        for seed in 1..=8u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let n = 4 + rng.below(20);
            let parents: Vec<usize> = (1..n).map(|i| rng.below(i)).collect();
            for lmax in [None, Some(2.0)] {
                let mut inc =
                    IncrementalSpectral::from_graph(&DiGraph::new(1), 0.85, lmax, 2);
                for (i, &p) in parents.iter().enumerate() {
                    inc.push_child(p);
                    // Parity at every prefix, not just the end state.
                    let g = graph_from_parents(&parents[..=i]);
                    assert_parity(&inc, &g, lmax);
                }
                assert_eq!(
                    inc.warm_fallbacks(),
                    0,
                    "φ converges on every healthy cascade tree"
                );
            }
        }
    }

    #[test]
    fn from_graph_is_exactly_the_cold_basis() {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        let inc = IncrementalSpectral::from_graph(&g, 0.85, None, 3);
        let cold = SpectralBasis::directed(&g, 0.85, None, 3);
        assert_eq!(inc.basis().lambda_max.to_bits(), cold.lambda_max.to_bits());
        assert_eq!(
            inc.basis().scaled_dense().as_slice(),
            cold.scaled_dense().as_slice(),
            "cold init must be bit-identical to the batch path"
        );
        assert_eq!(inc.num_nodes(), 6);
        assert!(inc.approx_bytes() > 0);
    }

    #[test]
    fn mid_graph_init_then_pushes_keep_parity() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 1.0);
        let mut inc = IncrementalSpectral::from_graph(&g, 0.85, None, 2);
        for p in [1, 2, 0, 3] {
            inc.push_child(p);
        }
        let full = graph_from_parents(&[0, 0, 1, 2, 0, 3]);
        assert_parity(&inc, &full, None);
    }

    #[test]
    fn phi_tracks_the_stationary_distribution() {
        let mut inc = IncrementalSpectral::from_graph(&DiGraph::new(1), 0.85, None, 2);
        for p in [0, 0, 1, 1, 3] {
            inc.push_child(p);
        }
        let g = graph_from_parents(&[0, 0, 1, 1, 3]);
        assert_eq!(inc.phi(), stationary(&g, 0.85).phi.as_slice());
        let cold = stationary_distribution_checked(&transition_matrix(&g, 0.85));
        assert!(cold.converged);
        for (a, b) in inc.phi().iter().zip(&cold.phi) {
            assert!((a - b).abs() < 1e-5, "φ drift: {a} vs {b}");
        }
        assert!((inc.phi().iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sparse_lambda_matches_dense_estimator() {
        let g = graph_from_parents(&[0, 0, 1, 1, 3, 2, 4]);
        let mut inc = IncrementalSpectral::from_graph(&DiGraph::new(1), 0.85, None, 2);
        for &p in &[0usize, 0, 1, 1, 3, 2, 4] {
            inc.push_child(p);
        }
        let dense = largest_eigenvalue(&cas_laplacian(&g, 0.85));
        let rel = (inc.basis().lambda_max - dense).abs() / dense;
        assert!(
            rel < 1e-3,
            "sparse λ {} vs dense {} (rel {rel})",
            inc.basis().lambda_max,
            dense
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_child_rejects_forward_parent() {
        let mut inc = IncrementalSpectral::from_graph(&DiGraph::new(1), 0.85, Some(2.0), 2);
        inc.push_child(5);
    }
}
