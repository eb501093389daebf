//! Recurrent graph-convolutional cells — the heart of CasCN (Eq. 12–14).
//!
//! Every dense multiplication of a standard LSTM/GRU is replaced by a
//! Chebyshev spectral graph convolution over the (scaled) CasLaplacian:
//!
//! `W ∗G X = Σ_{k=0..K} T_k(Δ̃_c) · X · W_k`
//!
//! where the convolution operands come in one of two forms
//! ([`ChebOperands`]):
//!
//! * **Sparse** (the default path): the scaled Laplacian `Δ̃_c` as a
//!   [`SparseOp`], with every Chebyshev sum carried by recurrences on
//!   `n×d` feature blocks, so no dense `n×n` basis is ever materialized;
//! * **Dense** (the legacy/gradcheck path): the materialized `T_k(Δ̃_c)`
//!   bases entered on the tape as constants and multiplied per order.
//!
//! A forward pass binds every parameter once ([`ChebConvLstmCell::bind`])
//! and stacks the per-gate filters into a few wide matrices: per order `k`
//! the input filters of all gates side by side (`d_in × G·h`), the
//! recurrent filters as one `((K+1)·h) × G·h` block, and one bias row.
//! Each step then computes the gates' input half as
//! `Σ_k T_k(Δ̃)·(X_t·W_k)` — `X_t·W_k` as a sparse snapshot product, the
//! sum by Clenshaw's recurrence ([`ChebOperands::cheb_sum`]) — and the
//! recurrent half as one matmul `[T_0·h | … | T_K·h] · U`, and slices the
//! gate pre-activations out of the sum. Parameters stay registered per
//! gate and per order, so the checkpoint layout does not depend on the
//! stacking.
//!
//! The LSTM variant includes the paper's peephole terms `V ⊙ c_{t-1}`
//! (Eq. 12); we parameterize each peephole as a `1 x d_h` vector broadcast
//! over nodes, so the parameter count stays independent of the padded
//! cascade size.

use std::sync::Arc;

use cascn_autograd::{ParamId, ParamStore, Tape, Var};
use cascn_graph::SpectralBasis;
use cascn_tensor::{Csr, Matrix, SparseOp};
use rand::rngs::StdRng;

use crate::init;

/// One graph-convolutional gate's parameters: `K+1` input filters, `K+1`
/// recurrent filters, and a bias.
#[derive(Debug, Clone)]
struct ConvGate {
    w: Vec<ParamId>,
    u: Vec<ParamId>,
    b: ParamId,
}

impl ConvGate {
    fn new(
        store: &mut ParamStore,
        name: &str,
        k: usize,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = (0..=k)
            .map(|i| store.register(format!("{name}.w{i}"), init::xavier_uniform(d_in, d_h, rng)))
            .collect();
        let u = (0..=k)
            .map(|i| store.register(format!("{name}.u{i}"), init::xavier_uniform(d_h, d_h, rng)))
            .collect();
        let b = store.register(format!("{name}.b"), Matrix::zeros(1, d_h));
        Self { w, u, b }
    }
}

/// Binds `ids` and places them side by side.
fn bind_cols(tape: &mut Tape, store: &ParamStore, ids: impl Iterator<Item = ParamId>) -> Var {
    let parts: Vec<Var> = ids.map(|id| tape.param(store, id)).collect();
    match parts[..] {
        [single] => single,
        _ => tape.concat_cols(&parts),
    }
}

/// The gates' input filters stacked per order: entry `k` is
/// `[W_{g_1,k} | W_{g_2,k} | …]`, `d_in × G·h`.
fn stack_input_filters(tape: &mut Tape, store: &ParamStore, gates: &[&ConvGate]) -> Vec<Var> {
    (0..gates[0].w.len())
        .map(|k| bind_cols(tape, store, gates.iter().map(|g| g.w[k])))
        .collect()
}

/// The gates' recurrent filters as one `((K+1)·h) × G·h` matrix whose row
/// block `k` is `[U_{g_1,k} | U_{g_2,k} | …]` — the right operand of
/// `[T_0·h | … | T_K·h]`.
fn stack_recurrent_filters(tape: &mut Tape, store: &ParamStore, gates: &[&ConvGate]) -> Var {
    let blocks: Vec<Var> = (0..gates[0].u.len())
        .map(|k| bind_cols(tape, store, gates.iter().map(|g| g.u[k])))
        .collect();
    tape.concat_rows(&blocks)
}

/// `Σ_k T_k(Δ̃)·(X·W_k)` — the input half of stacked gates, `n × G·h`.
fn input_product(tape: &mut Tape, operands: &ChebOperands, x: &Arc<Csr>, w: &[Var]) -> Var {
    let ys: Vec<Var> = w.iter().map(|&wk| tape.spmm(Arc::clone(x), wk)).collect();
    operands.cheb_sum(tape, &ys)
}

/// `[T_0·h | … | T_K·h] · U` — the recurrent half of a stacked gate.
fn recurrent_product(tape: &mut Tape, operands: &ChebOperands, h: Var, u: Var) -> Var {
    let stack = operands.conv_stack(tape, h);
    let conv = tape.concat_cols(&stack);
    tape.matmul(conv, u)
}

/// Enters the per-cascade Chebyshev bases `T_k(Δ̃_c)` on a tape as constants.
pub fn bases_to_vars(tape: &mut Tape, bases: &[Matrix]) -> Vec<Var> {
    bases.iter().map(|b| tape.constant(b.clone())).collect()
}

/// The per-cascade spectral operand a ChebConv cell convolves against —
/// either the sparse scaled Laplacian (operator form) or the materialized
/// dense bases (legacy form). Both produce the same convolutions; they
/// differ only in cost and float rounding.
#[derive(Debug, Clone)]
pub enum ChebOperands {
    /// Materialized `T_k(Δ̃_c)` tape constants, length `K+1` — each term is
    /// one dense `n×n · n×d` product. Kept for gradient checking and the
    /// `ChebKernel::Dense` compatibility mode.
    Dense(Vec<Var>),
    /// The scaled Laplacian itself; Chebyshev terms come from three-term
    /// recurrences with `K` sparse applications, never touching an `n×n`
    /// intermediate.
    Sparse {
        /// `Δ̃_c` shared across every application this cell records.
        op: Arc<SparseOp>,
        /// Chebyshev order `K`.
        k: usize,
    },
}

impl ChebOperands {
    /// Dense operands from materialized basis matrices.
    pub fn dense(tape: &mut Tape, bases: &[Matrix]) -> Self {
        Self::Dense(bases_to_vars(tape, bases))
    }

    /// Sparse operator-form operands from a spectral handle.
    pub fn sparse(basis: &SpectralBasis) -> Self {
        Self::Sparse {
            op: Arc::clone(&basis.op),
            k: basis.k,
        }
    }

    /// Number of Chebyshev terms this operand carries (`K + 1`).
    pub fn len(&self) -> usize {
        match self {
            Self::Dense(bases) => bases.len(),
            Self::Sparse { k, .. } => k + 1,
        }
    }

    /// Whether the operand carries no terms (never true for a well-formed
    /// operand — `K + 1 ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the convolution stack `[T_0·X, …, T_K·X]` for one signal.
    ///
    /// Sparse operands start from `T_0·X = X` itself (no identity product)
    /// and apply `Δ̃` `K` times; dense operands multiply each materialized
    /// basis. Gradients flow through `x` in both forms.
    pub fn conv_stack(&self, tape: &mut Tape, x: Var) -> Vec<Var> {
        match self {
            Self::Dense(bases) => bases.iter().map(|&b| tape.matmul(b, x)).collect(),
            Self::Sparse { op, k } => {
                let mut stack = Vec::with_capacity(k + 1);
                stack.push(x);
                if *k >= 1 {
                    stack.push(tape.sparse_apply(Arc::clone(op), x));
                }
                for i in 2..=*k {
                    let applied = tape.sparse_apply(Arc::clone(op), stack[i - 1]);
                    let doubled = tape.scale(applied, 2.0);
                    stack.push(tape.sub(doubled, stack[i - 2]));
                }
                stack
            }
        }
    }

    /// `Σ_k T_k(Δ̃)·Y_k` for `ys = [Y_0, …, Y_K]` — Eq. 12's input
    /// convolution `Σ_k T_k·X·W_k` reassociated as `Σ_k T_k·(X·W_k)`, so
    /// the wide snapshot `X` is multiplied only by filters and `Δ̃` only
    /// touches `n × G·h` blocks.
    ///
    /// Sparse operands run Clenshaw's recurrence
    /// `b_k = Y_k + 2Δ̃·b_{k+1} − b_{k+2}` (`b_{K+1} = b_{K+2} = 0`) down to
    /// `k = 1` and return `Y_0 + Δ̃·b_1 − b_2`: `K` sparse applications, the
    /// same as one [`ChebOperands::conv_stack`]. Dense operands sum
    /// `B_k·Y_k` directly.
    ///
    /// # Panics
    /// Panics unless `ys` has `K + 1` entries.
    pub fn cheb_sum(&self, tape: &mut Tape, ys: &[Var]) -> Var {
        assert_eq!(ys.len(), self.len(), "cheb_sum: expected K+1 blocks");
        match self {
            Self::Dense(bases) => {
                let mut acc = tape.matmul(bases[0], ys[0]);
                for (&b, &y) in bases.iter().zip(ys).skip(1) {
                    let term = tape.matmul(b, y);
                    acc = tape.add(acc, term);
                }
                acc
            }
            Self::Sparse { op, k } => {
                // (b_{i+1}, b_{i+2}); `None` stands for the zero block.
                let (mut b1, mut b2): (Option<Var>, Option<Var>) = (None, None);
                for i in (1..=*k).rev() {
                    let mut b = ys[i];
                    if let Some(next) = b1 {
                        let applied = tape.sparse_apply(Arc::clone(op), next);
                        let doubled = tape.scale(applied, 2.0);
                        b = tape.add(b, doubled);
                    }
                    if let Some(after) = b2 {
                        b = tape.sub(b, after);
                    }
                    (b1, b2) = (Some(b), b1);
                }
                let mut out = ys[0];
                if let Some(next) = b1 {
                    let applied = tape.sparse_apply(Arc::clone(op), next);
                    out = tape.add(out, applied);
                }
                if let Some(after) = b2 {
                    out = tape.sub(out, after);
                }
                out
            }
        }
    }
}

/// A [`ChebConvLstmCell`]'s parameters bound on one tape, stacked in gate
/// order `[i | f | o | c]`.
#[derive(Debug, Clone)]
pub struct LstmWeights {
    w: Vec<Var>,
    u: Var,
    b: Var,
    peep_i: Var,
    peep_f: Var,
    peep_o: Var,
}

/// The CasCN graph-convolutional LSTM cell of Eq. 12–14 (with peepholes).
#[derive(Debug, Clone)]
pub struct ChebConvLstmCell {
    input: ConvGate,
    forget: ConvGate,
    output: ConvGate,
    cell: ConvGate,
    peep_i: ParamId,
    peep_f: ParamId,
    peep_o: ParamId,
    k: usize,
    d_in: usize,
    d_h: usize,
}

impl ChebConvLstmCell {
    /// Registers the cell's parameters for Chebyshev order `k`, input
    /// feature dimension `d_in` and hidden size `d_h`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        k: usize,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            input: ConvGate::new(store, &format!("{name}.i"), k, d_in, d_h, rng),
            forget: ConvGate::new(store, &format!("{name}.f"), k, d_in, d_h, rng),
            output: ConvGate::new(store, &format!("{name}.o"), k, d_in, d_h, rng),
            cell: ConvGate::new(store, &format!("{name}.c"), k, d_in, d_h, rng),
            peep_i: store.register(format!("{name}.vi"), Matrix::zeros(1, d_h)),
            peep_f: store.register(format!("{name}.vf"), Matrix::zeros(1, d_h)),
            peep_o: store.register(format!("{name}.vo"), Matrix::zeros(1, d_h)),
            k,
            d_in,
            d_h,
        }
    }

    /// Chebyshev order.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.d_in
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.d_h
    }

    /// Fresh zero `(h, c)` state over `n` nodes.
    pub fn zero_state(&self, tape: &mut Tape, n: usize) -> (Var, Var) {
        let h = tape.constant(Matrix::zeros(n, self.d_h));
        let c = tape.constant(Matrix::zeros(n, self.d_h));
        (h, c)
    }

    /// Binds every parameter of the cell on `tape` once and stacks the
    /// gates; one binding serves every step of a forward pass.
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> LstmWeights {
        let gates = [&self.input, &self.forget, &self.output, &self.cell];
        LstmWeights {
            w: stack_input_filters(tape, store, &gates),
            u: stack_recurrent_filters(tape, store, &gates),
            b: bind_cols(tape, store, gates.iter().map(|g| g.b)),
            peep_i: tape.param(store, self.peep_i),
            peep_f: tape.param(store, self.peep_f),
            peep_o: tape.param(store, self.peep_o),
        }
    }

    /// One timestep over a cascade snapshot.
    ///
    /// `operands` carry the cascade's spectral operator (sparse or dense,
    /// `K+1` Chebyshev terms), `x` is the `n x d_in` sparse snapshot signal,
    /// and the state matrices are `n x d_h`.
    pub fn step(
        &self,
        tape: &mut Tape,
        weights: &LstmWeights,
        operands: &ChebOperands,
        x: &Arc<Csr>,
        (h, c): (Var, Var),
    ) -> (Var, Var) {
        assert_eq!(operands.len(), self.k + 1, "expected K+1 Chebyshev bases");
        let d = self.d_h;
        let input = input_product(tape, operands, x, &weights.w);
        let recurrent = recurrent_product(tape, operands, h, weights.u);
        let sum = tape.add(input, recurrent);
        let pre = tape.add_bias(sum, weights.b);

        let i_pre = tape.slice_cols(pre, 0, d);
        let i_peep = tape.mul_row(c, weights.peep_i);
        let i_sum = tape.add(i_pre, i_peep);
        let i = tape.sigmoid(i_sum);

        let f_pre = tape.slice_cols(pre, d, d);
        let f_peep = tape.mul_row(c, weights.peep_f);
        let f_sum = tape.add(f_pre, f_peep);
        let f = tape.sigmoid(f_sum);

        let g_pre = tape.slice_cols(pre, 3 * d, d);
        let g = tape.tanh(g_pre);

        let fc = tape.hadamard(f, c);
        let ig = tape.hadamard(i, g);
        let c_next = tape.add(fc, ig);

        let o_pre = tape.slice_cols(pre, 2 * d, d);
        let o_peep = tape.mul_row(c_next, weights.peep_o);
        let o_sum = tape.add(o_pre, o_peep);
        let o = tape.sigmoid(o_sum);

        let c_act = tape.tanh(c_next);
        let h_next = tape.hadamard(o, c_act);
        (h_next, c_next)
    }

    /// Runs a snapshot sequence, returning every hidden state. The state
    /// spans the snapshots' `n` rows.
    pub fn run(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        operands: &ChebOperands,
        snapshots: &[Arc<Csr>],
    ) -> Vec<Var> {
        let Some(first) = snapshots.first() else {
            return Vec::new();
        };
        let weights = self.bind(tape, store);
        let mut state = self.zero_state(tape, first.rows());
        let mut hs = Vec::with_capacity(snapshots.len());
        for x in snapshots {
            state = self.step(tape, &weights, operands, x, state);
            hs.push(state.0);
        }
        hs
    }
}

/// A [`ChebConvGruCell`]'s parameters bound on one tape: input filters and
/// biases stacked in gate order `[z | r | h̃]`, recurrent filters split into
/// the `[z | r]` stack and the candidate's own.
#[derive(Debug, Clone)]
pub struct GruWeights {
    w: Vec<Var>,
    u_zr: Var,
    u_cand: Var,
    b: Var,
}

/// The GRU variant of the CasCN cell (the paper's `CasCN-GRU` ablation):
/// identical graph convolutions, gating without a separate memory cell.
#[derive(Debug, Clone)]
pub struct ChebConvGruCell {
    update: ConvGate,
    reset: ConvGate,
    candidate: ConvGate,
    k: usize,
    d_in: usize,
    d_h: usize,
}

impl ChebConvGruCell {
    /// Registers the cell's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        k: usize,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            update: ConvGate::new(store, &format!("{name}.z"), k, d_in, d_h, rng),
            reset: ConvGate::new(store, &format!("{name}.r"), k, d_in, d_h, rng),
            candidate: ConvGate::new(store, &format!("{name}.h"), k, d_in, d_h, rng),
            k,
            d_in,
            d_h,
        }
    }

    /// Chebyshev order.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.d_in
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.d_h
    }

    /// Fresh zero hidden state over `n` nodes.
    pub fn zero_state(&self, tape: &mut Tape, n: usize) -> Var {
        tape.constant(Matrix::zeros(n, self.d_h))
    }

    /// Binds every parameter of the cell on `tape` once and stacks the
    /// gates; one binding serves every step of a forward pass.
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> GruWeights {
        let gates = [&self.update, &self.reset, &self.candidate];
        GruWeights {
            w: stack_input_filters(tape, store, &gates),
            u_zr: stack_recurrent_filters(tape, store, &gates[..2]),
            u_cand: stack_recurrent_filters(tape, store, &gates[2..]),
            b: bind_cols(tape, store, gates.iter().map(|g| g.b)),
        }
    }

    /// One timestep over a sparse cascade snapshot.
    pub fn step(
        &self,
        tape: &mut Tape,
        weights: &GruWeights,
        operands: &ChebOperands,
        x: &Arc<Csr>,
        h: Var,
    ) -> Var {
        assert_eq!(operands.len(), self.k + 1, "expected K+1 Chebyshev bases");
        let d = self.d_h;
        let input = input_product(tape, operands, x, &weights.w);
        let input = tape.add_bias(input, weights.b);

        let zr_in = tape.slice_cols(input, 0, 2 * d);
        let zr_rec = recurrent_product(tape, operands, h, weights.u_zr);
        let zr_pre = tape.add(zr_in, zr_rec);
        let zr = tape.sigmoid(zr_pre);
        let z = tape.slice_cols(zr, 0, d);
        let r = tape.slice_cols(zr, d, d);

        let rh = tape.hadamard(r, h);
        let cand_in = tape.slice_cols(input, 2 * d, d);
        let cand_rec = recurrent_product(tape, operands, rh, weights.u_cand);
        let cand_pre = tape.add(cand_in, cand_rec);
        let cand = tape.tanh(cand_pre);

        // (1 − z)⊙h + z⊙h̃ = h + z⊙(h̃ − h)
        let delta = tape.sub(cand, h);
        let update = tape.hadamard(z, delta);
        tape.add(h, update)
    }

    /// Runs a snapshot sequence, returning every hidden state. The state
    /// spans the snapshots' `n` rows.
    pub fn run(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        operands: &ChebOperands,
        snapshots: &[Arc<Csr>],
    ) -> Vec<Var> {
        let Some(first) = snapshots.first() else {
            return Vec::new();
        };
        let weights = self.bind(tape, store);
        let mut h = self.zero_state(tape, first.rows());
        let mut hs = Vec::with_capacity(snapshots.len());
        for x in snapshots {
            h = self.step(tape, &weights, operands, x, h);
            hs.push(h);
        }
        hs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_graph::{laplacian, DiGraph};
    use rand::SeedableRng;

    fn snapshot(m: &Matrix) -> Arc<Csr> {
        Arc::new(Csr::from_dense(m))
    }

    fn fig1_bases(k: usize) -> Vec<Matrix> {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        let lap = laplacian::cas_laplacian(&g, 0.85);
        let lmax = laplacian::largest_eigenvalue(&lap);
        let scaled = laplacian::scale_laplacian(&lap, lmax);
        laplacian::chebyshev_bases(&scaled, k)
    }

    #[test]
    fn lstm_step_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 6, 4, &mut rng);
        let mut tape = Tape::new();
        let operands = ChebOperands::dense(&mut tape, &fig1_bases(2));
        let weights = cell.bind(&mut tape, &store);
        let state = cell.zero_state(&mut tape, 6);
        let (h, c) = cell.step(
            &mut tape,
            &weights,
            &operands,
            &snapshot(&Matrix::eye(6)),
            state,
        );
        assert_eq!(tape.value(h).shape(), (6, 4));
        assert_eq!(tape.value(c).shape(), (6, 4));
    }

    #[test]
    #[should_panic(expected = "K+1 Chebyshev bases")]
    fn lstm_step_checks_basis_count() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 6, 4, &mut rng);
        let mut tape = Tape::new();
        let operands = ChebOperands::dense(&mut tape, &fig1_bases(1)); // wrong: K=1
        let weights = cell.bind(&mut tape, &store);
        let state = cell.zero_state(&mut tape, 6);
        let _ = cell.step(
            &mut tape,
            &weights,
            &operands,
            &snapshot(&Matrix::eye(6)),
            state,
        );
    }

    #[test]
    fn gru_run_produces_one_state_per_step() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cell = ChebConvGruCell::new(&mut store, "cg", 1, 6, 3, &mut rng);
        let mut tape = Tape::new();
        let operands = ChebOperands::dense(&mut tape, &fig1_bases(1));
        let inputs = vec![snapshot(&Matrix::eye(6)); 4];
        let hs = cell.run(&mut tape, &store, &operands, &inputs);
        assert_eq!(hs.len(), 4);
        assert!(tape.value(hs[3]).all_finite());
    }

    #[test]
    fn gradients_flow_to_all_gate_params() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 1, 6, 3, &mut rng);
        let mut tape = Tape::new();
        let operands = ChebOperands::dense(&mut tape, &fig1_bases(1));
        let inputs = vec![snapshot(&Matrix::from_fn(6, 6, |r, c| ((r + c) % 3) as f32 * 0.2)); 3];
        let hs = cell.run(&mut tape, &store, &operands, &inputs);
        let pooled = tape.sum_rows(*hs.last().unwrap());
        let sq = tape.sqr(pooled);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        // Every W/U/bias of every gate must receive a nonzero gradient
        // (peepholes start at zero so their gradient may vanish for c=0 at
        // t=0, but not after 3 steps).
        let mut zero_grads = Vec::new();
        for id in store.ids().collect::<Vec<_>>() {
            if store.grad(id).max_abs() == 0.0 {
                zero_grads.push(store.name(id).to_string());
            }
        }
        assert!(
            zero_grads.is_empty(),
            "parameters without gradient: {zero_grads:?}"
        );
    }

    #[test]
    fn directionality_changes_output() {
        // Reversing the cascade's edges must change the cell output —
        // the motivation for the CasLaplacian over the undirected one.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 4, 3, &mut rng);

        let run = |edges: &[(usize, usize)], store: &ParamStore, cell: &ChebConvLstmCell| {
            let mut g = DiGraph::new(4);
            for &(u, v) in edges {
                g.add_edge(u, v, 1.0);
            }
            let lap = laplacian::cas_laplacian(&g, 0.85);
            let scaled = laplacian::scale_laplacian(&lap, laplacian::largest_eigenvalue(&lap));
            let bases_m = laplacian::chebyshev_bases(&scaled, 2);
            let mut tape = Tape::new();
            let operands = ChebOperands::dense(&mut tape, &bases_m);
            let hs = cell.run(&mut tape, store, &operands, &[snapshot(&Matrix::eye(4))]);
            tape.value(hs[0]).clone()
        };

        let fwd = run(&[(0, 1), (1, 2), (2, 3)], &store, &cell);
        let rev = run(&[(3, 2), (2, 1), (1, 0)], &store, &cell);
        assert!(
            fwd.sub(&rev).max_abs() > 1e-5,
            "direction must influence the convolution"
        );
    }

    /// The fig. 1 spectral handle whose operator path matches the dense
    /// bases exactly in structure (same Laplacian, same λ_max estimate).
    fn fig1_basis(k: usize) -> SpectralBasis {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        let lap = laplacian::cas_laplacian(&g, 0.85);
        SpectralBasis::from_laplacian(&lap, None, k)
    }

    #[test]
    fn sparse_conv_stack_matches_dense_within_tolerance() {
        let k = 3;
        let basis = fig1_basis(k);
        let dense_bases = basis.materialize();
        let x_m = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32) * 0.13 - 1.2);

        let mut tape = Tape::new();
        let dense = ChebOperands::dense(&mut tape, &dense_bases);
        let sparse = ChebOperands::sparse(&basis);
        assert_eq!(dense.len(), k + 1);
        assert_eq!(sparse.len(), k + 1);
        assert!(!sparse.is_empty());

        let x = tape.constant(x_m.clone());
        let stack_d = dense.conv_stack(&mut tape, x);
        let stack_s = sparse.conv_stack(&mut tape, x);
        for (i, (&d, &s)) in stack_d.iter().zip(&stack_s).enumerate() {
            let diff = tape.value(d).sub(tape.value(s)).max_abs();
            assert!(
                diff < 1e-5,
                "order {i}: recurrence stack diverged from materialized bases by {diff}"
            );
        }
        // T_0·X is X itself on the sparse path — exactly, not approximately.
        assert_eq!(tape.value(stack_s[0]).as_slice(), x_m.as_slice());
    }

    #[test]
    fn cheb_sum_matches_summed_conv_stacks_for_every_order() {
        // Σ_k T_k·Y_k from Clenshaw (sparse) and from the dense bases must
        // both equal Σ_k (k-th entry of conv_stack(Y_k)), for K = 0..3.
        for k in 0..=3 {
            let basis = fig1_basis(k);
            let dense_bases = basis.materialize();
            let mut tape = Tape::new();
            let sparse = ChebOperands::sparse(&basis);
            let dense = ChebOperands::dense(&mut tape, &dense_bases);
            let ys: Vec<Var> = (0..=k)
                .map(|i| {
                    tape.constant(Matrix::from_fn(6, 3, |r, c| {
                        ((r * 3 + c + i) % 7) as f32 * 0.3 - 0.9
                    }))
                })
                .collect();
            let mut expect = Matrix::zeros(6, 3);
            for (i, &y) in ys.iter().enumerate() {
                let stack = sparse.conv_stack(&mut tape, y);
                expect.axpy(1.0, tape.value(stack[i]));
            }
            for operands in [&sparse, &dense] {
                let got = operands.cheb_sum(&mut tape, &ys);
                let diff = tape.value(got).sub(&expect).max_abs();
                assert!(diff < 1e-5, "K = {k}: cheb_sum off by {diff}");
            }
        }
    }

    #[test]
    fn lstm_sparse_step_matches_dense_within_tolerance() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 6, 4, &mut rng);
        let basis = fig1_basis(2);

        let run = |operands_of: &dyn Fn(&mut Tape) -> ChebOperands| {
            let mut tape = Tape::new();
            let operands = operands_of(&mut tape);
            let inputs = vec![snapshot(&Matrix::eye(6)); 3];
            let hs = cell.run(&mut tape, &store, &operands, &inputs);
            tape.value(*hs.last().unwrap()).clone()
        };

        let dense_bases = basis.materialize();
        let h_dense = run(&|tape: &mut Tape| ChebOperands::dense(tape, &dense_bases));
        let h_sparse = run(&|_: &mut Tape| ChebOperands::sparse(&basis));
        let diff = h_dense.sub(&h_sparse).max_abs();
        assert!(
            diff < 1e-5,
            "sparse LSTM output diverged from dense by {diff}"
        );
    }

    #[test]
    fn gradients_flow_through_sparse_operands() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        let cell = ChebConvGruCell::new(&mut store, "cg", 2, 6, 3, &mut rng);
        let basis = fig1_basis(2);
        let mut tape = Tape::new();
        let operands = ChebOperands::sparse(&basis);
        let inputs =
            vec![snapshot(&Matrix::from_fn(6, 6, |r, c| ((r + 2 * c) % 4) as f32 * 0.25)); 3];
        let hs = cell.run(&mut tape, &store, &operands, &inputs);
        let pooled = tape.sum_rows(*hs.last().unwrap());
        let sq = tape.sqr(pooled);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let mut zero_grads = Vec::new();
        for id in store.ids().collect::<Vec<_>>() {
            if store.grad(id).max_abs() == 0.0 {
                zero_grads.push(store.name(id).to_string());
            }
        }
        assert!(
            zero_grads.is_empty(),
            "parameters without gradient on the sparse path: {zero_grads:?}"
        );
    }
}
