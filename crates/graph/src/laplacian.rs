//! Transition matrices, stationary distributions, and the CasLaplacian
//! (paper Section IV-B, Eq. 5–11, Algorithm 1).

use std::sync::Arc;

use cascn_tensor::{dot, Csr, Matrix, SparseOp};

use crate::DiGraph;

/// Default teleport probability `α` of Eq. 7. The paper leaves the value
/// unstated; 0.85 is the standard PageRank choice and keeps `P_c`
/// irreducible as the equation requires.
pub const DEFAULT_ALPHA: f32 = 0.85;

/// Iteration cap of the stationary-distribution power iteration.
const STATIONARY_MAX_ITERS: usize = 10_000;

/// Iteration cap of the λ_max power iteration.
const LAMBDA_MAX_ITERS: usize = 200;

/// The stopping rule every power iteration in this module shares, fitted to
/// the f32 results they return: the change between successive iterates is
/// at most `4·ε·scale`, where `ε` is [`f32::EPSILON`] and `scale` the
/// iterate's magnitude (the largest φ entry, or |λ|). An absolute tolerance
/// below f32 resolution can never fire once the iterate settles into a
/// ±1-ULP cycle, and then burns the whole round budget.
fn settled(delta: f64, scale: f64) -> bool {
    delta <= 4.0 * f64::from(f32::EPSILON) * scale
}

/// What the stationary-distribution power iteration actually did — callers
/// on the preprocessing hot path need to distinguish a converged φ from a
/// best-effort iterate or a degeneracy fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct StationaryOutcome {
    /// The distribution: converged φ, the last iterate, or uniform when
    /// `fallback` is set. Always finite with entries summing to ~1.
    pub phi: Vec<f32>,
    /// Whether the f32 stopping rule fired: the max-norm change of the last
    /// round is at most `4·ε·max φ`.
    pub converged: bool,
    /// Whether a non-finite `P` or a degenerate (NaN/Inf/zero/negative)
    /// normalizer forced the uniform-distribution fallback.
    pub fallback: bool,
    /// Power-iteration rounds performed before returning.
    pub iterations: usize,
}

impl StationaryOutcome {
    fn uniform_fallback(n: usize, iterations: usize) -> Self {
        Self { phi: vec![1.0 / n as f32; n], converged: false, fallback: true, iterations }
    }
}

/// The one φ power iteration behind every stationary distribution in this
/// crate: `φ ← normalize(step(φ))` from the uniform start until [`settled`]
/// fires, falling back to uniform on a degenerate normalizer. `step`
/// computes `Pᵀφ` for whatever storage the caller has.
///
/// The iterate is carried in f64 and rounded to f32 once at the end. In
/// f32 the normalizer's rounding error grows with `n` and keeps the iterate
/// cycling a few ULP wide — about 5 ULP of `max φ` on a 100-leaf star,
/// above the rule's threshold — whereas f64 noise sits far below it, so
/// the rule fires exactly when the f32 result has settled.
///
/// From the uniform start the iterate of an Eq. 7 matrix over a cascade
/// tree reaches its fixed point in depth + 1 rounds in exact arithmetic
/// (the error is `(αMᵀ)ᵗ` applied to a vector whose leaf mass stops
/// changing after `depth` rounds), so a rule at f32 resolution gives up
/// nothing.
fn power_iterate(n: usize, mut step: impl FnMut(&[f64]) -> Vec<f64>) -> StationaryOutcome {
    let mut phi = vec![1.0 / n as f64; n];
    let rounded = |phi: Vec<f64>| phi.into_iter().map(|x| x as f32).collect();
    for it in 1..=STATIONARY_MAX_ITERS {
        let mut next = step(&phi);
        let sum: f64 = next.iter().sum();
        if !sum.is_finite() || sum <= 0.0 {
            // Overflow/underflow mid-iteration: normalizing by this sum
            // would spread NaN/Inf into φ and from there into the
            // CasLaplacian. Give up on this P instead.
            return StationaryOutcome::uniform_fallback(n, it);
        }
        for x in &mut next {
            *x /= sum;
        }
        let delta = phi.iter().zip(&next).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        let top = next.iter().copied().fold(0.0, f64::max);
        phi = next;
        if settled(delta, top) {
            let phi = rounded(phi);
            return StationaryOutcome { phi, converged: true, fallback: false, iterations: it };
        }
    }
    let phi = rounded(phi);
    StationaryOutcome { phi, converged: false, fallback: false, iterations: STATIONARY_MAX_ITERS }
}

/// `Aᵀ·x` accumulated in f64 over an f32 CSR matrix.
fn spmv_transpose_f64(a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0f64; a.cols()];
    for (r, &xr) in x.iter().enumerate() {
        for &(c, v) in a.row(r) {
            y[c] += f64::from(v) * xr;
        }
    }
    y
}

/// Solves `φᵀ P = φᵀ` with `φᵀe = 1` for a dense transition matrix (step 3
/// of Algorithm 1), reporting convergence and degeneracy explicitly — an
/// adapter onto the same loop and stopping rule the sparse builders use.
///
/// `P` should be row-stochastic and irreducible (which Eq. 7 guarantees).
/// Inputs that violate that contract — a NaN-poisoned `P`, or one whose
/// iterate normalizer becomes non-finite or non-positive — do **not**
/// poison the result: the uniform distribution is returned with `fallback`
/// set, so every Laplacian built from it stays finite.
///
/// # Panics
/// Panics if `p` is not square or empty.
pub fn stationary_distribution_checked(p: &Matrix) -> StationaryOutcome {
    assert_eq!(p.rows(), p.cols(), "stationary_distribution: non-square P");
    assert!(p.rows() > 0, "stationary_distribution: empty P");
    if !p.all_finite() {
        return StationaryOutcome::uniform_fallback(p.rows(), 0);
    }
    let pt = Csr::from_dense(p);
    power_iterate(p.rows(), |phi| spmv_transpose_f64(&pt, phi))
}

/// The random-walk part `α·D⁻¹W` of Eq. 7 in CSR form, over the
/// self-loop-patched adjacency (parallel edges summed, exact-zero weights
/// dropped, dangling rows given the self-loop `α`). `O(nnz + n)`; together
/// with the uniform teleport `(1 − α)/n` it is all of `P_c`.
fn walk_matrix(g: &DiGraph, alpha: f32) -> Csr {
    let n = g.node_count();
    let mut rows = merged_rows(n, g.edges());
    for (r, row) in rows.iter_mut().enumerate() {
        let row_sum: f32 = row.iter().map(|&(_, w)| w).sum();
        // lint: allow(float-eq) — dangling nodes have an exactly-zero out-degree by construction
        if row_sum == 0.0 {
            *row = vec![(r, alpha)];
        } else {
            for e in row.iter_mut() {
                e.1 = alpha * e.1 / row_sum;
            }
        }
    }
    Csr::from_rows(n, &rows)
}

/// Per-row `(column, weight)` lists from `(row, column, weight)` triples:
/// columns ascending, duplicates summed in insertion order, exact zeros
/// dropped.
fn merged_rows(
    n: usize,
    entries: impl Iterator<Item = (usize, usize, f32)>,
) -> Vec<Vec<(usize, f32)>> {
    let mut rows: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
    for (r, c, w) in entries {
        rows[r].push((c, w));
    }
    for row in &mut rows {
        // Stable sort, so duplicates sum in insertion order.
        row.sort_by_key(|&(c, _)| c);
        row.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        // lint: allow(float-eq) — exact-zero sparsity test: only true zeros are dropped
        row.retain(|&(_, w)| w != 0.0);
    }
    rows
}

/// Inserts `(r, value)` into row `r` (columns ascending) unless the row
/// already stores a diagonal entry.
fn ensure_diagonal(row: &mut Vec<(usize, f32)>, r: usize, value: f32) {
    if let Err(pos) = row.binary_search_by_key(&r, |&(c, _)| c) {
        row.insert(pos, (r, value));
    }
}

fn check_transition_args(g: &DiGraph, alpha: f32) {
    assert!(g.node_count() > 0, "transition_matrix: empty graph");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "transition_matrix: alpha must be in (0,1), got {alpha}"
    );
}

/// The stationary distribution φ of the cascade's Eq. 7 transition matrix,
/// computed over the adjacency lists in `O(nnz)` per round without forming
/// `P_c` — the φ every [`SpectralBasis::directed`] operator is built from.
///
/// # Panics
/// Panics if the graph is empty or `alpha` is outside `(0, 1)`.
pub fn stationary(g: &DiGraph, alpha: f32) -> StationaryOutcome {
    check_transition_args(g, alpha);
    walk_stationary(&walk_matrix(g, alpha), alpha)
}

fn walk_stationary(walk: &Csr, alpha: f32) -> StationaryOutcome {
    let n = walk.rows();
    let teleport = f64::from(1.0 - alpha) / n as f64;
    power_iterate(n, |phi| {
        let mass = teleport * phi.iter().sum::<f64>();
        let mut next = spmv_transpose_f64(walk, phi);
        for x in &mut next {
            *x += mass;
        }
        next
    })
}

/// The unscaled directed CasLaplacian `Δ_c = Φ^{1/2}(I − P_c)Φ^{-1/2}` of
/// Eq. 8 as a sparse core plus the rank-1 teleport term
/// `−(1−α)/n · s·(1/s)ᵀ` with `s = φ^{1/2}`, together with the φ outcome it
/// was built from. The core holds `s_r·(δ_rc − a_rc)/s_c` for each walk
/// entry `a_rc` plus an explicit diagonal on every row, so its structure
/// depends on the graph alone.
fn directed_laplacian(g: &DiGraph, alpha: f32) -> (SparseOp, StationaryOutcome) {
    check_transition_args(g, alpha);
    let walk = walk_matrix(g, alpha);
    let outcome = walk_stationary(&walk, alpha);
    let n = walk.rows();
    let s: Vec<f32> = outcome.phi.iter().map(|&x| x.max(1e-12).sqrt()).collect();
    let rows: Vec<Vec<(usize, f32)>> = (0..n)
        .map(|r| {
            let mut entries: Vec<(usize, f32)> = walk
                .row(r)
                .iter()
                .map(|&(c, a)| (c, if r == c { 1.0 - a } else { -(s[r] * a / s[c]) }))
                .collect();
            ensure_diagonal(&mut entries, r, 1.0);
            entries
        })
        .collect();
    let v: Vec<f32> = s.iter().map(|&x| 1.0 / x).collect();
    let teleport = (1.0 - alpha) / n as f32;
    let op = SparseOp::new(Csr::from_rows(n, &rows), Some((-teleport, s, v)));
    (op, outcome)
}

/// Builds the cascade transition matrix of Eq. 7 densely:
/// `P_c = (1 − α)·E/n + α·D⁻¹W`.
///
/// Rows whose out-degree is zero (cascade leaves) receive a self-loop before
/// normalization — the same fix the paper applies to the cascade initiator in
/// Section IV-A — so `D⁻¹` is always defined. The spectral pipeline never
/// forms this matrix (see [`stationary`] and [`SpectralBasis::directed`]);
/// it is the reference form for tests and diagnostics.
///
/// # Panics
/// Panics if the graph has no nodes or `alpha` is outside `(0, 1)`.
pub fn transition_matrix(g: &DiGraph, alpha: f32) -> Matrix {
    check_transition_args(g, alpha);
    let n = g.node_count();
    let mut p = Matrix::full(n, n, (1.0 - alpha) / n as f32);
    let walk = walk_matrix(g, alpha);
    for r in 0..n {
        for &(c, a) in walk.row(r) {
            p[(r, c)] += a;
        }
    }
    p
}

/// The CasLaplacian of Eq. 8 / Algorithm 1 as a dense matrix:
/// `Δ_c = Φ^{1/2} (I − P_c) Φ^{-1/2}` with `Φ = diag(φ)`.
///
/// Unlike the undirected normalized Laplacian (Eq. 9), `Δ_c` preserves the
/// directionality of the cascade — the property Table IV's
/// `CasCN-Undirected` ablation shows to matter. This is the dense form of
/// the operator [`SpectralBasis::directed`] scales, for tests and
/// diagnostics.
pub fn cas_laplacian(g: &DiGraph, alpha: f32) -> Matrix {
    directed_laplacian(g, alpha).0.to_dense()
}

/// The square-rooted stationary vector `Φ^{1/2}·e`. `Δ_c` annihilates this
/// vector by construction — a fact the property tests exploit.
pub fn sqrt_stationary(g: &DiGraph, alpha: f32) -> Vec<f32> {
    stationary(g, alpha).phi.into_iter().map(|x| x.max(0.0).sqrt()).collect()
}

/// The symmetric normalized Laplacian of Eq. 9,
/// `L = I − D^{-1/2} W_sym D^{-1/2}`, after symmetrizing the cascade
/// (`W_sym = W + Wᵀ`), as a CSR operator built in `O(nnz)`. Used by the
/// `CasCN-Undirected` variant.
///
/// Isolated nodes get a self-loop so `D^{-1/2}` is defined.
fn undirected_laplacian(g: &DiGraph) -> SparseOp {
    let n = g.node_count();
    let mut sym = merged_rows(n, g.edges().flat_map(|(u, v, w)| [(u, v, w), (v, u, w)]));
    let dinv_sqrt: Vec<f32> = sym
        .iter_mut()
        .enumerate()
        .map(|(r, row)| {
            let mut degree: f32 = row.iter().map(|&(_, w)| w).sum();
            // lint: allow(float-eq) — isolated nodes have an exactly-zero degree; NaN falls through to the general path
            if degree == 0.0 {
                *row = vec![(r, 1.0)];
                degree = 1.0;
            }
            1.0 / degree.sqrt()
        })
        .collect();
    let rows: Vec<Vec<(usize, f32)>> = sym
        .iter()
        .enumerate()
        .map(|(r, row)| {
            let mut entries: Vec<(usize, f32)> = row
                .iter()
                .map(|&(c, w)| {
                    let v = dinv_sqrt[r] * w * dinv_sqrt[c];
                    (c, if r == c { 1.0 - v } else { -v })
                })
                .collect();
            ensure_diagonal(&mut entries, r, 1.0);
            entries
        })
        .collect();
    SparseOp::from_csr(Csr::from_rows(n, &rows))
}

/// The symmetric normalized Laplacian of Eq. 9 as a dense matrix — the
/// dense form of the operator [`SpectralBasis::undirected`] scales, for
/// tests and diagnostics.
pub fn undirected_normalized_laplacian(g: &DiGraph) -> Matrix {
    undirected_laplacian(g).to_dense()
}

/// The one λ_max power iteration: the largest eigenvalue of the symmetric
/// part `(M + Mᵀ)/2` of a Laplacian operator `M`, applied as
/// `(M·x + Mᵀ·x)/2` in `O(nnz + n)` per round.
///
/// The symmetric part of a Laplacian is positive semidefinite — for the
/// directed CasLaplacian it is Chung's directed Laplacian, for Eq. 9 the
/// normalized Laplacian itself — so its largest eigenvalue is also the
/// largest in magnitude and plain power iteration finds it without a
/// spectral shift. The Rayleigh quotient stops under the shared [`settled`]
/// rule. The start vector has distinct entries: a constant start is
/// orthogonal to every eigenvector that is antisymmetric across mirrored
/// subtrees, and a cascade's top eigenvector often is one, so the iteration
/// would settle on the largest *symmetric* eigenvalue instead.
///
/// Returns 2.0 (the paper's `λ_max ≈ 2` shortcut) for degenerate inputs.
fn sym_lambda_max(op: &SparseOp) -> f32 {
    let n = op.dim();
    if n == 0 {
        return 2.0;
    }
    let x = Matrix::from_fn(n, 1, |r, _| 1.0 + (r as f32 * 0.618_034).fract());
    let mut x = x.scale(1.0 / dot(x.as_slice(), x.as_slice()).sqrt());
    let mut lambda = 0.0f32;
    for _ in 0..LAMBDA_MAX_ITERS {
        let mut y = op.apply(&x);
        y.axpy(1.0, &op.apply_transpose(&x));
        let y = y.scale(0.5);
        let next = dot(x.as_slice(), y.as_slice());
        let norm = dot(y.as_slice(), y.as_slice()).sqrt();
        if !norm.is_finite() || norm < 1e-20 {
            return 2.0;
        }
        let done = settled(f64::from((next - lambda).abs()), f64::from(next.abs()));
        lambda = next;
        x = y.scale(1.0 / norm);
        if done {
            break;
        }
    }
    if lambda.is_finite() && lambda > 1e-3 {
        lambda
    } else {
        2.0
    }
}

/// Estimates the largest eigenvalue of a Laplacian for Chebyshev scaling.
///
/// `Δ_c` is not symmetric, so this is the largest eigenvalue of its
/// symmetric part `(Δ_c + Δ_cᵀ)/2` — the maximum Rayleigh quotient of `Δ_c`
/// over real vectors, which is exactly the quantity that must bound the
/// Chebyshev domain. The dense input is viewed as a CSR operator and run
/// through the same power iteration [`SpectralBasis::directed`] uses.
///
/// Returns 2.0 (the paper's `λ_max ≈ 2` shortcut) for degenerate inputs.
pub fn largest_eigenvalue(lap: &Matrix) -> f32 {
    assert_eq!(lap.rows(), lap.cols(), "largest_eigenvalue: non-square input");
    sym_lambda_max(&SparseOp::from_csr(Csr::from_dense(lap)))
}

/// Scales a Laplacian to the Chebyshev domain `[-1, 1]`:
/// `Δ̃ = (2/λ_max)·Δ − I` (Eq. 2).
///
/// # Panics
/// Panics if `lambda_max <= 0`.
pub fn scale_laplacian(lap: &Matrix, lambda_max: f32) -> Matrix {
    assert!(
        lambda_max > 0.0,
        "scale_laplacian: lambda_max must be positive, got {lambda_max}"
    );
    let mut out = lap.scale(2.0 / lambda_max);
    for i in 0..out.rows().min(out.cols()) {
        out[(i, i)] -= 1.0;
    }
    out
}

/// The spectral quantity CasCN derives from one cascade Laplacian: the
/// scaled operator `Δ̃` in sparse-plus-rank-1 form, ready to drive the
/// operator-form Chebyshev recurrence — bundled into a single cacheable
/// handle.
///
/// Earlier revisions materialized the `K + 1` dense `n×n` bases
/// `T_0(Δ̃)..T_K(Δ̃)` here. The operator form stores only `Δ̃` itself
/// (`O(nnz + n)` instead of `O(K·n²)`) and the convolution layer carries the
/// recurrence on `n×d` feature blocks: `T_k·X = 2·Δ̃·(T_{k-1}·X) − T_{k-2}·X`.
/// That drops per-gate convolution cost from `O(K·n²·d)` to `O(K·nnz·d)` and
/// shrinks the serve-cache/snapshot footprint by the same factor.
/// [`SpectralBasis::materialize`] still produces the dense bases for the
/// legacy kernel path, gradient checking, and tests.
///
/// Building the operator (Eq. 2–8) dominates inference preprocessing, yet it
/// depends only on the observed cascade structure, never on model
/// parameters. A cascade re-queried across requests therefore reuses the
/// same handle: the serving layer's spectral cache stores
/// `Arc<SpectralBasis>` keyed by (cascade id, window) and every consumer
/// shares it read-only.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralBasis {
    /// The λ_max the Laplacian was scaled by.
    pub lambda_max: f32,
    /// The Chebyshev order `K` of the convolution this operator feeds.
    pub k: usize,
    /// The scaled Laplacian `Δ̃ = (2/λ_max)·Δ − I` (Eq. 2) as a sparse
    /// operator, shared with every tape node that applies it.
    pub op: Arc<SparseOp>,
}

impl SpectralBasis {
    /// Builds the handle from an (unscaled) dense Laplacian. `lambda_max:
    /// None` estimates the scaling constant with [`largest_eigenvalue`];
    /// `Some(v)` pins it (the paper's `λ_max ≈ 2` shortcut).
    ///
    /// The operator is the exact CSR form of the dense scaled Laplacian
    /// (no rank-1 split). Undirected Laplacians are genuinely sparse and
    /// benefit directly; for directed cascades use
    /// [`SpectralBasis::directed`], which never forms the dense matrix.
    ///
    /// # Panics
    /// Panics if `lap` is not square or a pinned `lambda_max` is not
    /// positive (the [`scale_laplacian`] contract).
    pub fn from_laplacian(lap: &Matrix, lambda_max: Option<f32>, k: usize) -> Self {
        assert_eq!(lap.rows(), lap.cols(), "from_laplacian: non-square input");
        Self::scaled(&SparseOp::from_csr(Csr::from_dense(lap)), lambda_max, k)
    }

    /// Builds the scaled **directed** CasLaplacian operator straight from
    /// the cascade graph in `O(nnz)` per power-iteration round, never
    /// forming `P_c` or the dense Laplacian:
    ///
    /// `Δ̃ = S + coeff·u·vᵀ` where `S` carries the adjacency-supported part
    /// (`S_rr = (2/λ)·(1 − a_rr) − 1`, `S_rc = −(2/λ)·s_r·a_rc/s_c` with
    /// `a_rc = α·w_rc/rowsum` over the self-loop-patched adjacency and
    /// `s = φ^{1/2}`), and the rank-1 term is the PageRank teleport mass:
    /// `coeff = −(2/λ)·(1−α)/n`, `u = s`, `v = 1/s`.
    ///
    /// `φ` comes from [`stationary`] and (when `lambda_max` is `None`)
    /// `λ_max` from the same symmetric-part power iteration
    /// [`largest_eigenvalue`] runs, applied to the sparse-plus-rank-1
    /// Laplacian.
    ///
    /// # Panics
    /// Panics if the graph is empty or `alpha` is outside `(0, 1)` (the
    /// [`transition_matrix`] contract), or a pinned `lambda_max` is not
    /// positive.
    pub fn directed(g: &DiGraph, alpha: f32, lambda_max: Option<f32>, k: usize) -> Self {
        Self::directed_with_phi(g, alpha, lambda_max, k).0
    }

    /// Builds the scaled **undirected** normalized Laplacian operator (Eq.
    /// 9, the `CasCN-Undirected` ablation) straight from the cascade graph
    /// in `O(nnz)`, estimating `λ_max` with the same power iteration as
    /// [`SpectralBasis::directed`] unless it is pinned.
    ///
    /// # Panics
    /// Panics if a pinned `lambda_max` is not positive.
    pub fn undirected(g: &DiGraph, lambda_max: Option<f32>, k: usize) -> Self {
        Self::scaled(&undirected_laplacian(g), lambda_max, k)
    }

    /// [`SpectralBasis::directed`] together with the φ outcome it was built
    /// from, for the streaming layer that keeps φ alongside the operator.
    pub(crate) fn directed_with_phi(
        g: &DiGraph,
        alpha: f32,
        lambda_max: Option<f32>,
        k: usize,
    ) -> (Self, StationaryOutcome) {
        let (lap, outcome) = directed_laplacian(g, alpha);
        (Self::scaled(&lap, lambda_max, k), outcome)
    }

    /// Scales an unscaled Laplacian operator to `Δ̃ = (2/λ_max)·Δ − I`
    /// (Eq. 2), estimating `λ_max` when it is not pinned. Every row keeps
    /// a diagonal entry, even an exactly-zero one (λ_max pinned to 2), so
    /// the row structure — and the persisted text form — is independent of
    /// the pin.
    fn scaled(lap: &SparseOp, lambda_max: Option<f32>, k: usize) -> Self {
        let lambda_max = lambda_max.unwrap_or_else(|| sym_lambda_max(lap));
        assert!(
            lambda_max > 0.0,
            "scale_laplacian: lambda_max must be positive, got {lambda_max}"
        );
        let two_over = 2.0 / lambda_max;
        let core = lap.csr();
        let rows: Vec<Vec<(usize, f32)>> = (0..core.rows())
            .map(|r| {
                let mut row: Vec<(usize, f32)> = core
                    .row(r)
                    .iter()
                    .map(|&(c, v)| (c, if r == c { v * two_over - 1.0 } else { v * two_over }))
                    .collect();
                ensure_diagonal(&mut row, r, -1.0);
                row
            })
            .collect();
        let rank1 = lap.rank1().map(|(coeff, u, v)| (coeff * two_over, u.to_vec(), v.to_vec()));
        let op = Arc::new(SparseOp::new(Csr::from_rows(core.cols(), &rows), rank1));
        Self { lambda_max, k, op }
    }

    /// Rebuilds a handle from persisted parts (the snapshot loader).
    pub fn from_parts(lambda_max: f32, k: usize, op: Arc<SparseOp>) -> Self {
        Self { lambda_max, k, op }
    }

    /// Number of nodes the operator covers.
    pub fn num_nodes(&self) -> usize {
        self.op.dim()
    }

    /// The Chebyshev order `K` (the operator drives `K + 1` recurrence
    /// terms).
    pub fn order(&self) -> usize {
        self.k
    }

    /// Approximate heap footprint in bytes — the sparse operator — used by
    /// cache-budget accounting. Compare `O(K·n²·4)` for the materialized
    /// bases this replaces.
    pub fn approx_bytes(&self) -> usize {
        self.op.approx_bytes()
    }

    /// The dense scaled Laplacian `Δ̃` (tests and diagnostics).
    pub fn scaled_dense(&self) -> Matrix {
        self.op.to_dense()
    }

    /// Materializes the dense Chebyshev bases `[T_0(Δ̃), …, T_K(Δ̃)]` the
    /// way earlier revisions stored them — the legacy dense-kernel path and
    /// gradient checking use this; the default path never does.
    pub fn materialize(&self) -> Vec<Matrix> {
        chebyshev_bases(&self.op.to_dense(), self.k)
    }
}

/// Chebyshev polynomial bases `[T_0(L̃), …, T_K(L̃)]` via the recursion
/// `T_k = 2 L̃ T_{k-1} − T_{k-2}` (Eq. 2/3). Returns `K + 1` matrices.
pub fn chebyshev_bases(scaled: &Matrix, k: usize) -> Vec<Matrix> {
    let n = scaled.rows();
    let mut bases = Vec::with_capacity(k + 1);
    bases.push(Matrix::eye(n));
    if k >= 1 {
        bases.push(scaled.clone());
    }
    for i in 2..=k {
        let mut next = scaled.matmul(&bases[i - 1]).scale(2.0);
        next.axpy(-1.0, &bases[i - 2]);
        bases.push(next);
    }
    bases
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_tensor::assert_matrix_eq;

    fn fig1() -> DiGraph {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        g
    }

    #[test]
    fn transition_rows_are_stochastic_and_positive() {
        let p = transition_matrix(&fig1(), 0.85);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(p.row(r).iter().all(|&x| x > 0.0), "row {r} has a zero entry");
        }
    }

    #[test]
    fn stationary_is_a_fixed_point() {
        let p = transition_matrix(&fig1(), 0.85);
        let phi = stationary(&fig1(), 0.85).phi;
        assert!((phi.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // φᵀ P ≈ φᵀ
        let n = p.rows();
        for c in 0..n {
            let projected: f32 = (0..n).map(|r| phi[r] * p[(r, c)]).sum();
            assert!(
                (projected - phi[c]).abs() < 1e-4,
                "column {c}: {projected} vs {}",
                phi[c]
            );
        }
    }

    #[test]
    fn stationary_reports_convergence_on_healthy_input() {
        let p = transition_matrix(&fig1(), 0.85);
        let out = stationary_distribution_checked(&p);
        let sparse = stationary(&fig1(), 0.85);
        for o in [&out, &sparse] {
            assert!(o.converged, "Eq. 7 transition matrices converge");
            assert!(!o.fallback);
            // Depth 3: the uniform start reaches the fixed point in depth + 1
            // rounds, the rule fires one round later at most.
            assert!(o.iterations <= 5, "converged after {} rounds", o.iterations);
            assert!((o.phi.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
        for (a, b) in out.phi.iter().zip(&sparse.phi) {
            assert!((a - b).abs() <= 4.0 * f32::EPSILON, "dense {a} vs sparse {b}");
        }
    }

    #[test]
    fn stationary_falls_back_to_uniform_on_nan_input() {
        // Regression: a NaN-poisoned P used to flow straight through the
        // `sum` normalizer into φ — and from there into cas_laplacian and
        // every Chebyshev basis.
        let mut p = transition_matrix(&fig1(), 0.85);
        p[(2, 3)] = f32::NAN;
        let out = stationary_distribution_checked(&p);
        assert!(out.fallback, "NaN P must trigger the uniform fallback");
        assert!(!out.converged);
        let n = p.rows();
        assert_eq!(out.phi, vec![1.0 / n as f32; n]);
    }

    #[test]
    fn stationary_falls_back_on_degenerate_normalizer() {
        // An all-zero "transition matrix" drives the iterate sum to 0.
        let p = Matrix::zeros(4, 4);
        let out = stationary_distribution_checked(&p);
        assert!(out.fallback);
        assert_eq!(out.phi, vec![0.25; 4]);
        assert_eq!(out.iterations, 1, "degeneracy is detected on the first round");
    }

    #[test]
    fn converged_is_false_exactly_when_the_rule_never_fires() {
        // 0 ↔ 1 is periodic and node 2 feeds 0, so from the uniform start
        // the iterate alternates between (2/3, 1/3, 0) and (1/3, 2/3, 0)
        // forever: every round moves φ by 1/3, the rule never fires, and
        // the outcome must say so after the full round budget.
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 1.0;
        p[(1, 0)] = 1.0;
        p[(2, 0)] = 1.0;
        let out = stationary_distribution_checked(&p);
        assert!(!out.converged && !out.fallback);
        assert_eq!(out.iterations, STATIONARY_MAX_ITERS);
        // A fixed point from the first round fires the rule on round 1.
        let mut swap = Matrix::zeros(2, 2);
        swap[(0, 1)] = 1.0;
        swap[(1, 0)] = 1.0;
        let out = stationary_distribution_checked(&swap);
        assert!(out.converged);
        assert_eq!((out.phi, out.iterations), (vec![0.5, 0.5], 1));
    }

    #[test]
    fn cas_laplacian_stays_finite_for_degenerate_stationary_input() {
        // End-to-end: even when φ falls back, the Laplacian built from it
        // must be finite (the anomaly guard depends on preprocessing never
        // emitting NaN bases for structurally valid cascades).
        let g = fig1();
        let lap = cas_laplacian(&g, 0.85);
        assert!(lap.all_finite());
    }

    #[test]
    fn cas_laplacian_annihilates_sqrt_stationary() {
        let g = fig1();
        let lap = cas_laplacian(&g, 0.85);
        let v = sqrt_stationary(&g, 0.85);
        for r in 0..lap.rows() {
            let y: f32 = lap.row(r).iter().zip(&v).map(|(&a, &b)| a * b).sum();
            assert!(y.abs() < 1e-4, "row {r} maps sqrt-stationary to {y}");
        }
    }

    #[test]
    fn cas_laplacian_is_asymmetric_for_directed_input() {
        let lap = cas_laplacian(&fig1(), 0.85);
        let mut asym = 0.0f32;
        for r in 0..lap.rows() {
            for c in 0..r {
                asym = asym.max((lap[(r, c)] - lap[(c, r)]).abs());
            }
        }
        assert!(asym > 1e-4, "CasLaplacian should retain directionality");
    }

    #[test]
    fn single_node_cascade_is_handled() {
        let g = DiGraph::new(1);
        let lap = cas_laplacian(&g, 0.85);
        assert_eq!(lap.shape(), (1, 1));
        assert!(lap[(0, 0)].abs() < 1e-5, "1-node laplacian should be ~0");
    }

    #[test]
    fn undirected_laplacian_is_symmetric_psd() {
        let lap = undirected_normalized_laplacian(&fig1());
        for r in 0..lap.rows() {
            for c in 0..lap.cols() {
                assert!((lap[(r, c)] - lap[(c, r)]).abs() < 1e-6);
            }
        }
        // Rayleigh quotients of a normalized Laplacian lie in [0, 2].
        let lmax = largest_eigenvalue(&lap);
        assert!(lmax > 0.0 && lmax <= 2.0 + 1e-4, "λmax = {lmax}");
    }

    #[test]
    fn largest_eigenvalue_of_diag_matrix() {
        let m = Matrix::diag(&[0.5, 1.7, 0.3]);
        let l = largest_eigenvalue(&m);
        assert!((l - 1.7).abs() < 1e-3, "got {l}");
    }

    #[test]
    fn scale_laplacian_maps_spectrum() {
        // For L = diag(0, 2) and λmax = 2: scaled = diag(-1, 1).
        let l = Matrix::diag(&[0.0, 2.0]);
        let s = scale_laplacian(&l, 2.0);
        assert_matrix_eq(&s, &Matrix::diag(&[-1.0, 1.0]), 1e-6);
    }

    #[test]
    fn chebyshev_matches_cosine_formula_on_diagonal() {
        // For diagonal L̃ with entries x ∈ [-1, 1], T_k(L̃) must be diagonal
        // with entries cos(k·arccos(x)).
        let xs = [-0.9f32, -0.2, 0.4, 1.0];
        let l = Matrix::diag(&xs);
        let bases = chebyshev_bases(&l, 4);
        for (k, t) in bases.iter().enumerate() {
            for (i, &x) in xs.iter().enumerate() {
                let expect = (k as f32 * x.acos()).cos();
                assert!(
                    (t[(i, i)] - expect).abs() < 1e-4,
                    "T_{k}({x}) = {} vs cos formula {expect}",
                    t[(i, i)]
                );
            }
        }
    }

    #[test]
    fn chebyshev_t0_t1_identities() {
        let lap = cas_laplacian(&fig1(), 0.85);
        let scaled = scale_laplacian(&lap, largest_eigenvalue(&lap));
        let bases = chebyshev_bases(&scaled, 2);
        assert_matrix_eq(&bases[0], &Matrix::eye(6), 1e-6);
        assert_matrix_eq(&bases[1], &scaled, 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn transition_rejects_bad_alpha() {
        let _ = transition_matrix(&fig1(), 1.5);
    }

    #[test]
    fn spectral_basis_matches_manual_pipeline() {
        let lap = cas_laplacian(&fig1(), 0.85);
        let handle = SpectralBasis::from_laplacian(&lap, None, 3);
        let lmax = largest_eigenvalue(&lap);
        assert_eq!(handle.lambda_max, lmax);
        let scaled = scale_laplacian(&lap, lmax);
        assert_matrix_eq(&handle.scaled_dense(), &scaled, 0.0);
        let bases = handle.materialize();
        let manual = chebyshev_bases(&scaled, 3);
        assert_eq!(bases.len(), manual.len());
        for (b, m) in bases.iter().zip(&manual) {
            assert_matrix_eq(b, m, 0.0);
        }
        assert_eq!(handle.num_nodes(), 6);
        assert_eq!(handle.order(), 3);
        // Operator storage beats the 5 dense 6x6 bases the old handle held.
        assert!(handle.approx_bytes() < 5 * 6 * 6 * 4);
    }

    #[test]
    fn spectral_basis_pins_lambda_max() {
        let lap = cas_laplacian(&fig1(), 0.85);
        let handle = SpectralBasis::from_laplacian(&lap, Some(2.0), 2);
        assert_eq!(handle.lambda_max, 2.0);
        assert_matrix_eq(&handle.scaled_dense(), &scale_laplacian(&lap, 2.0), 0.0);
        assert_eq!(handle.materialize().len(), 3, "K + 1 bases");
    }

    #[test]
    fn directed_operator_matches_dense_scaled_laplacian() {
        let g = fig1();
        for lmax in [None, Some(2.0)] {
            let handle = SpectralBasis::directed(&g, 0.85, lmax, 2);
            let lap = cas_laplacian(&g, 0.85);
            let dense = scale_laplacian(&lap, handle.lambda_max);
            assert_matrix_eq(&handle.scaled_dense(), &dense, 1e-5);
            // The core must stay as sparse as the cascade: 5 edges + 6
            // diagonal entries + dangling self-loops, nowhere near 36.
            assert!(
                handle.op.nnz() <= 2 * g.edge_count() + g.node_count(),
                "core nnz {} is not sparse",
                handle.op.nnz()
            );
            assert!(handle.op.rank1().is_some(), "teleport mass must be rank-1");
        }
    }

    #[test]
    fn directed_operator_lambda_matches_dense_estimate() {
        // The sparse-plus-rank-1 operator and its dense form run the same
        // power iteration; only the summation order differs. The f64
        // oracle in `tests/oracle.rs` bounds both against the exact value.
        let g = fig1();
        let handle = SpectralBasis::directed(&g, 0.85, None, 2);
        let dense_lmax = largest_eigenvalue(&cas_laplacian(&g, 0.85));
        let rel = (handle.lambda_max - dense_lmax).abs() / dense_lmax;
        assert!(rel < 1e-5, "sparse λ {} vs dense {dense_lmax}", handle.lambda_max);
    }

    #[test]
    fn directed_operator_apply_matches_materialized_products() {
        let g = fig1();
        let handle = SpectralBasis::directed(&g, 0.85, None, 3);
        let x = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32).sin());
        let got = handle.op.apply(&x);
        let expect = handle.scaled_dense().matmul(&x);
        assert_matrix_eq(&got, &expect, 1e-5);
    }

    #[test]
    fn directed_operator_single_node() {
        let g = DiGraph::new(1);
        let handle = SpectralBasis::directed(&g, 0.85, None, 2);
        assert_eq!(handle.num_nodes(), 1);
        let x = Matrix::row_vector(&[1.0, 2.0]);
        assert!(handle.op.apply(&x).all_finite());
    }
}
