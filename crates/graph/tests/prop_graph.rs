//! Property-based tests of the graph substrate on arbitrary random DAGs
//! (not just cascade trees): CSR correctness, topological order, and the
//! spectral invariants of the CasLaplacian pipeline.

use cascn_graph::{laplacian, walks, Csr, DiGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random DAG with up to `max_n` nodes; edges only go from
/// lower to higher indices, so acyclicity holds by construction.
fn arbitrary_dag(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n * n, 0.1f32..5.0), 0..=max_edges.min(30)).prop_map(
            move |pairs| {
                let mut g = DiGraph::new(n);
                for (code, w) in pairs {
                    let (a, b) = (code / n, code % n);
                    if a < b {
                        g.add_edge(a, b, w);
                    } else if b < a {
                        g.add_edge(b, a, w);
                    }
                }
                g
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_roundtrips_through_dense(g in arbitrary_dag(12)) {
        let csr = g.out_csr();
        let dense = g.adjacency();
        let back = Csr::from_dense(&dense);
        // Dense forms agree (duplicates merged identically).
        let d2 = back.to_dense();
        for i in 0..dense.len() {
            prop_assert!((dense.as_slice()[i] - d2.as_slice()[i]).abs() < 1e-5);
        }
        // spmv agrees with dense multiply.
        let x: Vec<f32> = (0..g.node_count()).map(|i| i as f32 - 1.5).collect();
        let y1 = csr.spmv(&x);
        let y2 = dense.matmul(&cascn_tensor::Matrix::col_vector(&x));
        for (a, b) in y1.iter().zip(y2.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn constructed_dags_are_dags(g in arbitrary_dag(15)) {
        prop_assert!(g.is_dag());
        let order = g.topological_order().expect("is a DAG");
        prop_assert_eq!(order.len(), g.node_count());
        let mut pos = vec![0usize; g.node_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        for (u, v, _) in g.edges() {
            prop_assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn degree_identities(g in arbitrary_dag(12)) {
        let out: usize = g.out_degrees().iter().sum();
        let into: usize = g.in_degrees().iter().sum();
        prop_assert_eq!(out, g.edge_count());
        prop_assert_eq!(into, g.edge_count());
        // Leaves have zero out-degree by definition.
        let degs = g.out_degrees();
        for leaf in g.leaves() {
            prop_assert_eq!(degs[leaf], 0);
        }
    }

    #[test]
    fn transition_matrix_is_stochastic_for_any_dag(g in arbitrary_dag(10)) {
        let p = laplacian::transition_matrix(&g, 0.85);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&x| x > 0.0));
        }
        // Stationary distribution is a positive fixed point.
        let out = laplacian::stationary_distribution_checked(&p);
        prop_assert!(out.converged, "φ rule never fired in {} rounds", out.iterations);
        let phi = out.phi;
        prop_assert!((phi.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(phi.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn cas_laplacian_kernel_property(g in arbitrary_dag(10)) {
        let lap = laplacian::cas_laplacian(&g, 0.85);
        let v = laplacian::sqrt_stationary(&g, 0.85);
        for r in 0..lap.rows() {
            let y: f32 = lap.row(r).iter().zip(&v).map(|(&a, &b)| a * b).sum();
            prop_assert!(y.abs() < 2e-3, "row {} maps sqrt-stationary to {}", r, y);
        }
    }

    #[test]
    fn chebyshev_recursion_identity(g in arbitrary_dag(8)) {
        // T_2 = 2 L̃ T_1 − T_0 must hold exactly for the produced bases.
        let lap = laplacian::cas_laplacian(&g, 0.85);
        let scaled = laplacian::scale_laplacian(&lap, laplacian::largest_eigenvalue(&lap));
        let bases = laplacian::chebyshev_bases(&scaled, 2);
        let expect = {
            let mut m = scaled.matmul(&bases[1]).scale(2.0);
            m.axpy(-1.0, &bases[0]);
            m
        };
        for i in 0..expect.len() {
            prop_assert!((bases[2].as_slice()[i] - expect.as_slice()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn walks_never_leave_the_edge_set(g in arbitrary_dag(12), seed in 0u64..1000) {
        let csr = g.out_csr();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = walks::random_walk(&csr, 0, 10, &mut rng);
        prop_assert!(!w.is_empty());
        for pair in w.windows(2) {
            prop_assert!(csr.row(pair[0]).iter().any(|&(c, _)| c == pair[1]));
        }
    }

    #[test]
    fn undirected_csr_is_symmetric(g in arbitrary_dag(10)) {
        let und = walks::undirected_csr(&g).to_dense();
        for r in 0..und.rows() {
            for c in 0..und.cols() {
                prop_assert!((und[(r, c)] - und[(c, r)]).abs() < 1e-5);
            }
        }
    }
}
