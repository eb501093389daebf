//! The fused ChebConv cells against the per-gate reference.
//!
//! The reference below is Eq. 12–14 written out term by term: for every
//! gate, `Σ_k (T_k·X)·W_k + Σ_k (T_k·h)·U_k + b`, each filter bound on the
//! tape where it is used, peepholes broadcast by a ones-column matmul and
//! the GRU update written as `(1 − z)⊙h + z⊙h̃`. The cells compute the same
//! function with stacked gates, one binding per parameter and Clenshaw's
//! recurrence over `X·W_k`; this suite holds them to the reference's
//! hidden states and to every parameter gradient within 1e-5 relative, on
//! sparse and dense operands, for K = 0..3, over a single node, a 30-node
//! chain, a star and seeded random trees.

use std::sync::Arc;

use cascn_autograd::{ParamId, ParamStore, Tape, Var};
use cascn_graph::{DiGraph, SpectralBasis};
use cascn_nn::{ChebConvGruCell, ChebConvLstmCell, ChebOperands};
use cascn_tensor::{Csr, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Snapshot width (the model's `max_nodes` padding).
const WIDTH: usize = 32;
const HIDDEN: usize = 4;
const MAX_STEPS: usize = 5;
const TOLERANCE: f32 = 1e-5;

// ---- reference implementation ----------------------------------------------

fn param(store: &ParamStore, name: &str) -> ParamId {
    store
        .ids()
        .find(|&id| store.name(id) == name)
        .unwrap_or_else(|| panic!("no parameter named {name}"))
}

/// One gate's filters, found by their registered names.
struct RefGate {
    w: Vec<ParamId>,
    u: Vec<ParamId>,
    b: ParamId,
}

impl RefGate {
    fn lookup(store: &ParamStore, name: &str, k: usize) -> Self {
        Self {
            w: (0..=k)
                .map(|i| param(store, &format!("{name}.w{i}")))
                .collect(),
            u: (0..=k)
                .map(|i| param(store, &format!("{name}.u{i}")))
                .collect(),
            b: param(store, &format!("{name}.b")),
        }
    }

    /// `Σ_k conv_x[k]·W_k + Σ_k conv_h[k]·U_k + b`.
    fn pre_activation(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        conv_x: &[Var],
        conv_h: &[Var],
    ) -> Var {
        let mut acc: Option<Var> = None;
        let terms = conv_x.iter().zip(&self.w).chain(conv_h.iter().zip(&self.u));
        for (&conv, &id) in terms {
            let w = tape.param(store, id);
            let term = tape.matmul(conv, w);
            acc = Some(match acc {
                Some(a) => tape.add(a, term),
                None => term,
            });
        }
        let b = tape.param(store, self.b);
        let pre = acc.expect("K+1 >= 1 filters");
        tape.add_bias(pre, b)
    }
}

/// Broadcasts a `1 x d` row over `n` rows with a ones-column matmul.
fn tile_rows(tape: &mut Tape, row: Var, n: usize) -> Var {
    let ones = tape.constant(Matrix::full(n, 1, 1.0));
    tape.matmul(ones, row)
}

fn reference_lstm(
    tape: &mut Tape,
    store: &ParamStore,
    k: usize,
    operands: &ChebOperands,
    inputs: &[Var],
    n: usize,
) -> Vec<Var> {
    let [input, forget, output, cell] =
        ["i", "f", "o", "c"].map(|g| RefGate::lookup(store, &format!("cc.{g}"), k));
    let [vi, vf, vo] = ["vi", "vf", "vo"].map(|v| param(store, &format!("cc.{v}")));
    let mut h = tape.constant(Matrix::zeros(n, HIDDEN));
    let mut c = tape.constant(Matrix::zeros(n, HIDDEN));
    let mut hs = Vec::new();
    for &x in inputs {
        let conv_x = operands.conv_stack(tape, x);
        let conv_h = operands.conv_stack(tape, h);
        let peep = |tape: &mut Tape, id: ParamId, state: Var| {
            let v = tape.param(store, id);
            let tiled = tile_rows(tape, v, n);
            tape.hadamard(tiled, state)
        };
        let i_pre = input.pre_activation(tape, store, &conv_x, &conv_h);
        let i_peep = peep(tape, vi, c);
        let i_sum = tape.add(i_pre, i_peep);
        let i = tape.sigmoid(i_sum);
        let f_pre = forget.pre_activation(tape, store, &conv_x, &conv_h);
        let f_peep = peep(tape, vf, c);
        let f_sum = tape.add(f_pre, f_peep);
        let f = tape.sigmoid(f_sum);
        let g_pre = cell.pre_activation(tape, store, &conv_x, &conv_h);
        let g = tape.tanh(g_pre);
        let fc = tape.hadamard(f, c);
        let ig = tape.hadamard(i, g);
        c = tape.add(fc, ig);
        let o_pre = output.pre_activation(tape, store, &conv_x, &conv_h);
        let o_peep = peep(tape, vo, c);
        let o_sum = tape.add(o_pre, o_peep);
        let o = tape.sigmoid(o_sum);
        let c_act = tape.tanh(c);
        h = tape.hadamard(o, c_act);
        hs.push(h);
    }
    hs
}

fn reference_gru(
    tape: &mut Tape,
    store: &ParamStore,
    k: usize,
    operands: &ChebOperands,
    inputs: &[Var],
    n: usize,
) -> Vec<Var> {
    let [update, reset, candidate] =
        ["z", "r", "h"].map(|g| RefGate::lookup(store, &format!("cg.{g}"), k));
    let mut h = tape.constant(Matrix::zeros(n, HIDDEN));
    let mut hs = Vec::new();
    for &x in inputs {
        let conv_x = operands.conv_stack(tape, x);
        let conv_h = operands.conv_stack(tape, h);
        let z_pre = update.pre_activation(tape, store, &conv_x, &conv_h);
        let z = tape.sigmoid(z_pre);
        let r_pre = reset.pre_activation(tape, store, &conv_x, &conv_h);
        let r = tape.sigmoid(r_pre);
        let rh = tape.hadamard(r, h);
        let conv_rh = operands.conv_stack(tape, rh);
        let cand_pre = candidate.pre_activation(tape, store, &conv_x, &conv_rh);
        let cand = tape.tanh(cand_pre);
        let ones = tape.constant(Matrix::full(n, HIDDEN, 1.0));
        let one_minus_z = tape.sub(ones, z);
        let keep = tape.hadamard(one_minus_z, h);
        let upd = tape.hadamard(z, cand);
        h = tape.add(keep, upd);
        hs.push(h);
    }
    hs
}

// ---- harness ----------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Kind {
    Lstm,
    Gru,
}

/// Fig. 3 adjacency snapshots of a tree whose node `v` has parent
/// `parents[v - 1] < v`: the root self-loop plus each edge once its child
/// has arrived, over `min(n, MAX_STEPS)` evenly spaced steps.
fn snapshots(parents: &[usize]) -> Vec<Arc<Csr>> {
    let n = parents.len() + 1;
    let steps = n.min(MAX_STEPS);
    let mut rows: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
    rows[0].push((0, 1.0));
    let mut next = 1;
    (1..=steps)
        .map(|s| {
            while next < (s * n).div_ceil(steps) {
                rows[parents[next - 1]].push((next, 1.0));
                next += 1;
            }
            Arc::new(Csr::from_rows(WIDTH, &rows))
        })
        .collect()
}

fn graph(parents: &[usize]) -> DiGraph {
    let mut g = DiGraph::new(parents.len() + 1);
    for (i, &p) in parents.iter().enumerate() {
        g.add_edge(p, i + 1, 1.0);
    }
    g
}

/// Forward over `snapshots`, loss `Σ_t Σ h_t²`, backward; returns the
/// hidden states and every parameter's gradient (registration order).
fn run(
    store: &ParamStore,
    forward: impl Fn(&mut Tape, &ChebOperands) -> Vec<Var>,
    operands_of: impl Fn(&mut Tape) -> ChebOperands,
) -> (Vec<Matrix>, Vec<Matrix>) {
    let mut tape = Tape::new();
    let operands = operands_of(&mut tape);
    let hs = forward(&mut tape, &operands);
    let mut loss: Option<Var> = None;
    for &h in &hs {
        let sq = tape.sqr(h);
        let term = tape.sum_all(sq);
        loss = Some(match loss {
            Some(l) => tape.add(l, term),
            None => term,
        });
    }
    tape.backward(loss.expect("at least one step"));
    let mut grads = store.clone();
    grads.zero_grads();
    tape.accumulate_param_grads(&mut grads);
    let values = hs.iter().map(|&h| tape.value(h).clone()).collect();
    (
        values,
        grads.ids().map(|id| grads.grad(id).clone()).collect(),
    )
}

fn assert_close(what: &str, fused: &Matrix, reference: &Matrix) {
    let scale = fused.max_abs().max(reference.max_abs());
    let diff = fused.sub(reference).max_abs();
    assert!(
        diff <= TOLERANCE * scale,
        "{what}: max |Δ| {diff:e} exceeds {TOLERANCE:e} × {scale:e}"
    );
}

fn check(kind: Kind, parents: &[usize], k: usize, sparse: bool, seed: u64) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let (lstm, gru) = match kind {
        Kind::Lstm => (
            Some(ChebConvLstmCell::new(
                &mut store, "cc", k, WIDTH, HIDDEN, &mut rng,
            )),
            None,
        ),
        Kind::Gru => (
            None,
            Some(ChebConvGruCell::new(
                &mut store, "cg", k, WIDTH, HIDDEN, &mut rng,
            )),
        ),
    };
    // Nonzero peepholes and biases, so every term of Eq. 12–14 is live.
    for id in store.ids().collect::<Vec<_>>() {
        for v in store.value_mut(id).as_mut_slice() {
            *v = rng.random_range(-0.5..0.5);
        }
    }
    let snaps = snapshots(parents);
    let n = parents.len() + 1;
    let basis = SpectralBasis::directed(&graph(parents), 0.85, None, k);
    let dense_bases = basis.materialize();
    let operands_of = |tape: &mut Tape| {
        if sparse {
            ChebOperands::sparse(&basis)
        } else {
            ChebOperands::dense(tape, &dense_bases)
        }
    };

    let fused = run(
        &store,
        |tape, ops| match (&lstm, &gru) {
            (Some(cell), _) => cell.run(tape, &store, ops, &snaps),
            (_, Some(cell)) => cell.run(tape, &store, ops, &snaps),
            _ => unreachable!(),
        },
        operands_of,
    );
    let reference = run(
        &store,
        |tape, ops| {
            let inputs: Vec<Var> = snaps.iter().map(|s| tape.constant(s.to_dense())).collect();
            match kind {
                Kind::Lstm => reference_lstm(tape, &store, k, ops, &inputs, n),
                Kind::Gru => reference_gru(tape, &store, k, ops, &inputs, n),
            }
        },
        operands_of,
    );

    let case = format!("{kind:?} K={k} sparse={sparse} n={n}");
    assert_eq!(fused.0.len(), reference.0.len(), "{case}: step count");
    for (t, (f, r)) in fused.0.iter().zip(&reference.0).enumerate() {
        assert_close(&format!("{case} h_{t}"), f, r);
    }
    for (id, (f, r)) in store.ids().zip(fused.1.iter().zip(&reference.1)) {
        assert_close(&format!("{case} ∂{}", store.name(id)), f, r);
    }
}

fn check_all_orders(parents: &[usize], seed: u64) {
    for kind in [Kind::Lstm, Kind::Gru] {
        for k in 0..=3 {
            for sparse in [true, false] {
                check(kind, parents, k, sparse, seed);
            }
        }
    }
}

#[test]
fn single_node() {
    check_all_orders(&[], 1);
}

#[test]
fn chain_of_thirty() {
    let parents: Vec<usize> = (0..29).collect();
    check_all_orders(&parents, 2);
}

#[test]
fn star() {
    check_all_orders(&[0; 11], 3);
}

#[test]
fn seeded_random_trees() {
    for (seed, n) in [(4u64, 8usize), (5, 17), (6, 25)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let parents: Vec<usize> = (1..n).map(|v| rng.random_range(0..v)).collect();
        check_all_orders(&parents, seed);
    }
}
