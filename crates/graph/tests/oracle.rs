//! The sparse f32 spectral pipeline against independent f64 oracles.
//!
//! φ is checked against an f64 Gaussian elimination of `(I − Pᵀ)φ = 0` with
//! `Σφ = 1`, and λ_max against the largest eigenvalue of the symmetric part
//! of the f64 CasLaplacian computed by cyclic Jacobi rotations (every
//! eigenvalue to f64 precision, independent of the spectral gap a power
//! iteration depends on). `P` is built here from the edge list, so nothing
//! but the graph is shared with the code under test.

use cascn_graph::{laplacian, DiGraph, SpectralBasis};

const ALPHA: f32 = 0.85;

/// Largest φ error relative to `max φ`, the scale of the max-norm stopping
/// rule. The iteration contracts the error by `α` per round, so stopping
/// once a round moves φ by at most `4·ε·max φ` leaves at most
/// `4·ε·α/(1 − α)·max φ ≈ 2.7e-6·max φ` (the 100-node chain, which
/// converges geometrically, comes within 5 % of it), plus the final f32
/// rounding.
const PHI_REL_BOUND: f64 = 3e-6;
/// Largest relative λ_max error. Power iteration converges at the rate of
/// the gap between the two largest eigenvalues; on the small gaps some trees
/// have it hits its 200-round cap short of the true value (worst seen here:
/// 6.8e-3, a 67-node tree).
const LAMBDA_REL_BOUND: f64 = 1e-2;

/// Deterministic xorshift for random tree shapes.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A tree over `parents.len() + 1` nodes: node `i + 1` hangs off `parents[i]`.
fn tree(parents: &[usize]) -> DiGraph {
    let mut g = DiGraph::new(parents.len() + 1);
    for (i, &p) in parents.iter().enumerate() {
        g.add_edge(p, i + 1, 1.0);
    }
    g
}

fn depth(parents: &[usize]) -> usize {
    let mut d = vec![0usize; parents.len() + 1];
    for (i, &p) in parents.iter().enumerate() {
        d[i + 1] = d[p] + 1;
    }
    d.into_iter().max().unwrap_or(0)
}

/// Eq. 7 in f64: `P = (1 − α)/n + α·D⁻¹W`, dangling rows self-looped.
fn transition_f64(g: &DiGraph) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let alpha = f64::from(ALPHA);
    let mut w = vec![vec![0.0f64; n]; n];
    for (u, v, wt) in g.edges() {
        w[u][v] += f64::from(wt);
    }
    let mut p = vec![vec![(1.0 - alpha) / n as f64; n]; n];
    for r in 0..n {
        let sum: f64 = w[r].iter().sum();
        if sum == 0.0 {
            w[r][r] = 1.0;
        }
        let sum: f64 = w[r].iter().sum();
        for c in 0..n {
            p[r][c] += alpha * w[r][c] / sum;
        }
    }
    p
}

/// φ from `(I − Pᵀ)φ = 0`, `Σφ = 1` by Gaussian elimination with partial
/// pivoting (the last balance equation is replaced by the normalization).
fn stationary_f64(p: &[Vec<f64>]) -> Vec<f64> {
    let n = p.len();
    let mut a: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..n).map(|c| f64::from(u8::from(r == c)) - p[c][r]).collect())
        .collect();
    let mut b = vec![0.0f64; n];
    a[n - 1] = vec![1.0; n];
    b[n - 1] = 1.0;
    for col in 0..n {
        let piv = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty pivot range");
        a.swap(col, piv);
        b.swap(col, piv);
        let pivot = a[col].clone();
        for r in col + 1..n {
            let f = a[r][col] / pivot[col];
            for (x, p) in a[r][col..].iter_mut().zip(&pivot[col..]) {
                *x -= f * p;
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for r in (0..n).rev() {
        let tail: f64 = (r + 1..n).map(|c| a[r][c] * x[c]).sum();
        x[r] = (b[r] - tail) / a[r][r];
    }
    x
}

/// Largest eigenvalue of the symmetric part of `Δ = Φ^{1/2}(I − P)Φ^{-1/2}`
/// by cyclic Jacobi rotations.
fn lambda_max_f64(p: &[Vec<f64>], phi: &[f64]) -> f64 {
    let n = p.len();
    let s: Vec<f64> = phi.iter().map(|x| x.sqrt()).collect();
    let delta = |r: usize, c: usize| s[r] * (f64::from(u8::from(r == c)) - p[r][c]) / s[c];
    let mut m: Vec<Vec<f64>> =
        (0..n).map(|r| (0..n).map(|c| 0.5 * (delta(r, c) + delta(c, r))).collect()).collect();
    let scale: f64 = m.iter().flatten().map(|x| x * x).sum();
    for _sweep in 0..50 {
        let mut off = 0.0;
        for (r, row) in m.iter().enumerate() {
            off += row.iter().enumerate().filter(|&(c, _)| c != r).map(|(_, x)| x * x).sum::<f64>();
        }
        if off <= 1e-28 * scale {
            break;
        }
        for i in 0..n {
            for j in i + 1..n {
                if m[i][j] == 0.0 {
                    continue;
                }
                let theta = (m[j][j] - m[i][i]) / (2.0 * m[i][j]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let t = if theta == 0.0 { 1.0 } else { t };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let sn = t * c;
                for row in m.iter_mut() {
                    let (mki, mkj) = (row[i], row[j]);
                    row[i] = c * mki - sn * mkj;
                    row[j] = sn * mki + c * mkj;
                }
                let (upper, lower) = m.split_at_mut(j);
                for (mi, mj) in upper[i].iter_mut().zip(lower[0].iter_mut()) {
                    let (mik, mjk) = (*mi, *mj);
                    *mi = c * mik - sn * mjk;
                    *mj = sn * mik + c * mjk;
                }
            }
        }
    }
    (0..n).map(|i| m[i][i]).fold(f64::NEG_INFINITY, f64::max)
}

/// Checks φ and λ_max of one tree against the oracles.
fn check(name: &str, parents: &[usize]) {
    let g = tree(parents);
    let n = g.node_count();
    let out = laplacian::stationary(&g, ALPHA);
    assert!(out.converged && !out.fallback, "{name}: φ did not converge");
    // From the uniform start the exact iterate is the fixed point after
    // `depth` rounds; the f32 rule fires within two more.
    assert!(
        out.iterations <= depth(parents) + 3,
        "{name}: {} φ rounds for depth {}",
        out.iterations,
        depth(parents)
    );
    let p = transition_f64(&g);
    let phi = stationary_f64(&p);
    let top = phi.iter().copied().fold(0.0, f64::max);
    let phi_err = out
        .phi
        .iter()
        .zip(&phi)
        .map(|(&a, &b)| (f64::from(a) - b).abs() / top)
        .fold(0.0, f64::max);
    assert!(phi_err <= PHI_REL_BOUND, "{name}: φ relative error {phi_err:e}");

    let lambda = f64::from(SpectralBasis::directed(&g, ALPHA, None, 2).lambda_max);
    if n == 1 {
        // Δ is the 1×1 zero matrix; the estimator returns the paper's 2.
        assert_eq!(lambda, 2.0, "{name}");
        return;
    }
    let exact = lambda_max_f64(&p, &phi);
    let lambda_err = (lambda - exact).abs() / exact;
    assert!(
        lambda_err <= LAMBDA_REL_BOUND,
        "{name}: λ_max {lambda} vs oracle {exact} (relative error {lambda_err:e})"
    );
}

#[test]
fn random_trees_match_the_f64_oracles() {
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    for n in 1..=100usize {
        let parents: Vec<usize> = (1..n).map(|i| rng.below(i)).collect();
        check(&format!("random tree n={n}"), &parents);
    }
}

#[test]
fn chain_star_and_single_node_match_the_f64_oracles() {
    let chain: Vec<usize> = (0..99).collect();
    let star = vec![0usize; 99];
    for (name, parents) in [("chain", chain), ("star", star), ("single node", Vec::new())] {
        check(name, &parents);
    }
}
