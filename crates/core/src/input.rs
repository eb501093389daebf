//! Cascade preprocessing: snapshots, CasLaplacian, Chebyshev bases.
//!
//! Preprocessing is deterministic and model-independent, so trainers run it
//! once per cascade and cache the result across epochs.

use cascn_autograd::Tape;
use cascn_cascades::{Cascade, CascadeFault, Event};
use cascn_graph::{DiGraph, IncrementalSpectral, SpectralBasis};
use cascn_nn::ChebOperands;
use cascn_tensor::Matrix;

use crate::config::{CascnConfig, ChebKernel, LambdaMax, LaplacianKind};

/// A cascade converted to CasCN's input representation.
#[derive(Debug, Clone)]
pub struct PreprocessedCascade {
    /// The cascade's spectral handle: the scaled Laplacian `Δ̃_c` in sparse
    /// operator form plus the Chebyshev order `K`.
    pub basis: SpectralBasis,
    /// Materialized dense bases `T_k(Δ̃_c)` (length `K + 1`) — populated
    /// only under [`ChebKernel::Dense`]; the default sparse kernel never
    /// builds them.
    pub dense_bases: Option<Vec<Matrix>>,
    /// Snapshot signals `X_t`, each `n x max_nodes` (rows = observed nodes,
    /// columns zero-padded to the shared feature width).
    pub snapshots: Vec<Matrix>,
    /// Diffusion time of each snapshot (seconds since the root post).
    pub times: Vec<f64>,
    /// Number of observed nodes `n` (≤ `max_nodes`).
    pub n: usize,
    /// Observation window used.
    pub window: f64,
    /// Ground-truth log-increment `ln(1 + ΔS)`.
    pub label_log: f32,
    /// Raw increment label `ΔS`.
    pub increment: usize,
    /// The exact λ_max used for scaling (2.0 under [`LambdaMax::Approx2`]).
    pub lambda_max: f32,
}

impl PreprocessedCascade {
    /// The convolution operands a ChebConv cell runs against — dense when
    /// the config materialized bases, sparse operator form otherwise.
    pub fn operands(&self, tape: &mut Tape) -> ChebOperands {
        match &self.dense_bases {
            Some(bases) => ChebOperands::dense(tape, bases),
            None => ChebOperands::sparse(&self.basis),
        }
    }
}

/// Builds the model input for one cascade under `cfg` at observation window
/// `window`:
///
/// 1. truncate the observed prefix to `cfg.max_nodes` adopters;
/// 2. build the cascade graph and its (directed or undirected) Laplacian;
/// 3. scale by `λ_max` and expand Chebyshev bases to order `K`;
/// 4. emit the Fig. 3 adjacency snapshot sequence, column-padded to
///    `cfg.max_nodes` so every cascade shares the filter width.
pub fn preprocess(cascade: &Cascade, window: f64, cfg: &CascnConfig) -> PreprocessedCascade {
    let basis = spectral_basis(cascade, window, cfg);
    assemble(cascade, window, cfg, basis)
}

/// Step 2–3 of [`preprocess`] in isolation: the cascade's spectral handle
/// (Laplacian → scaling → Chebyshev bases).
///
/// This is the expensive, model-parameter-independent part of
/// preprocessing, so serving layers compute it once per (cascade, window)
/// and reuse it across requests via [`preprocess_with_basis`].
pub fn spectral_basis(cascade: &Cascade, window: f64, cfg: &CascnConfig) -> SpectralBasis {
    let g = observed_graph(cascade, window, cfg);
    let lambda_max = lambda_mode(cfg);
    match cfg.laplacian {
        // The directed scaled Laplacian is dense (teleportation touches
        // every entry), so it is kept as sparse-core + rank-1 teleport
        // instead of a materialized matrix.
        LaplacianKind::Directed => SpectralBasis::directed(&g, cfg.alpha, lambda_max, cfg.k),
        LaplacianKind::Undirected => SpectralBasis::undirected(&g, lambda_max, cfg.k),
    }
}

/// The local cascade graph over the observed, truncated prefix: the first
/// `min(observed, max_nodes)` adopters with edges into truncated nodes
/// dropped alongside them.
fn observed_graph(cascade: &Cascade, window: f64, cfg: &CascnConfig) -> DiGraph {
    let observed = cascade.observe(window);
    let n = observed.num_nodes().min(cfg.max_nodes);
    let mut g = DiGraph::new(n);
    for (i, e) in observed.events().iter().enumerate().take(n).skip(1) {
        // Cascade validation guarantees non-root events carry parents.
        if let Some(p) = e.parent {
            if p < n {
                g.add_edge(p, i, 1.0);
            }
        }
    }
    g
}

fn lambda_mode(cfg: &CascnConfig) -> Option<f32> {
    match cfg.lambda_max {
        LambdaMax::Exact => None,
        LambdaMax::Approx2 => Some(2.0),
    }
}

/// [`preprocess`] with the spectral work already done — the cache-hit path
/// of the serving layer. `basis` must have been built by
/// [`spectral_basis`] for the same `(cascade, window, cfg)`; the output is
/// then bit-identical to [`preprocess`].
pub fn preprocess_with_basis(
    cascade: &Cascade,
    window: f64,
    cfg: &CascnConfig,
    basis: &SpectralBasis,
) -> PreprocessedCascade {
    assemble(cascade, window, cfg, basis.clone())
}

/// The shared tail of preprocessing: snapshot sampling and label
/// extraction around an owned spectral handle.
fn assemble(
    cascade: &Cascade,
    window: f64,
    cfg: &CascnConfig,
    basis: SpectralBasis,
) -> PreprocessedCascade {
    let dense_bases = match cfg.cheb_kernel {
        ChebKernel::Dense => Some(basis.materialize()),
        ChebKernel::Sparse => None,
    };
    assemble_with(cascade, window, cfg, basis, dense_bases)
}

/// [`assemble`] with the dense Chebyshev blocks (if any) already in hand —
/// lets [`WindowedPreprocessor`] reuse materialized `T_k` blocks across
/// overlapping windows instead of re-expanding them per request.
fn assemble_with(
    cascade: &Cascade,
    window: f64,
    cfg: &CascnConfig,
    basis: SpectralBasis,
    dense_bases: Option<Vec<Matrix>>,
) -> PreprocessedCascade {
    let n = basis.num_nodes();
    debug_assert_eq!(
        n,
        cascade.observe(window).num_nodes().min(cfg.max_nodes),
        "spectral basis node count disagrees with the observed prefix"
    );

    // Snapshot sequence over the truncated prefix, column-padded.
    let truncated = TruncatedView { cascade, n };
    let (snapshots, times) = truncated.snapshots_padded(cfg.max_steps, cfg.max_nodes);

    let increment = cascade.increment_size(window);
    PreprocessedCascade {
        lambda_max: basis.lambda_max,
        basis,
        dense_bases,
        snapshots,
        times,
        n,
        window,
        label_log: cascn_nn::metrics::log_label(increment),
        increment,
    }
}

/// Streaming preprocessor for one growing cascade.
///
/// Keeps the cascade's spectral state resident across appended adoption
/// events and overlapping observation windows: the directed operator
/// advances via [`IncrementalSpectral::push_child`] without rebuilding the
/// observed graph from the cascade, and
/// materialized dense Chebyshev `T_k` blocks persist until an observed event
/// actually invalidates them (a push-style refresh at window crossings —
/// events beyond the window touch only the label side, so the spectral
/// handle and the `T_k` blocks are reused untouched).
///
/// Parity contract (tested here and in the workspace property suite):
/// [`WindowedPreprocessor::current`] matches [`preprocess`] on the same
/// `(cascade, window, cfg)` bit for bit: snapshots, times, labels and the
/// operator, which streaming builds with the cold spectral builder.
pub struct WindowedPreprocessor {
    cascade: Cascade,
    cfg: CascnConfig,
    window: f64,
    /// Incremental spectral state — populated only for the directed
    /// CasLaplacian; the undirected variant rebuilds cold on refresh.
    spectral: Option<IncrementalSpectral>,
    basis: SpectralBasis,
    /// Cached dense `T_k` blocks (under [`ChebKernel::Dense`]); dropped
    /// whenever the operator refreshes.
    dense: Option<Vec<Matrix>>,
}

impl WindowedPreprocessor {
    /// Registers a live cascade: one cold preprocessing pass, after which
    /// appends and window advances are incremental.
    pub fn new(cascade: Cascade, window: f64, cfg: &CascnConfig) -> Self {
        let (spectral, basis) = cold_state(&cascade, window, cfg);
        Self { cascade, cfg: *cfg, window, spectral, basis, dense: None }
    }

    /// The cascade as currently observed (input prefix plus future events).
    pub fn cascade(&self) -> &Cascade {
        &self.cascade
    }

    /// The active observation window.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The current spectral handle (cheap clone; heavy parts are `Arc`ed).
    pub fn basis(&self) -> SpectralBasis {
        self.basis.clone()
    }

    /// Observed-and-truncated node count — the operator's dimension.
    pub fn num_nodes(&self) -> usize {
        self.nodes()
    }

    /// φ computations of the incremental state that ended without the
    /// stopping rule firing (0 for the undirected variant, which keeps no
    /// incremental state).
    pub fn warm_fallbacks(&self) -> u64 {
        self.spectral.as_ref().map_or(0, IncrementalSpectral::warm_fallbacks)
    }

    /// Approximate heap footprint for registry memory accounting.
    pub fn approx_bytes(&self) -> usize {
        let events = self.cascade.final_size() * std::mem::size_of::<Event>();
        let spectral = match &self.spectral {
            Some(s) => s.approx_bytes(),
            None => self.basis.approx_bytes(),
        };
        let dense: usize = self.dense.as_ref().map_or(0, |blocks| {
            blocks.iter().map(|m| m.rows() * m.cols() * std::mem::size_of::<f32>()).sum()
        });
        events + spectral + dense
    }

    /// Appends one adoption event, validated with the same invariants as
    /// the strict loader. Returns `Ok(true)` when the event landed inside
    /// the window (the operator was refreshed incrementally) and
    /// `Ok(false)` when it is label-side only or truncated past
    /// `max_nodes` (spectral state and cached `T_k` blocks reused as-is).
    pub fn observe_event(&mut self, event: Event) -> Result<bool, CascadeFault> {
        let before = self.nodes();
        self.cascade.try_append(event)?;
        let after = self.nodes();
        if after == before {
            return Ok(false);
        }
        self.dense = None;
        self.push_range(before, after);
        Ok(true)
    }

    /// Moves the observation window, pushing every event that crossed into
    /// it through the incremental operator. Returns the number of nodes
    /// that entered the observed prefix. A shrinking window has no
    /// push-style form and falls back to one cold rebuild.
    pub fn advance_window(&mut self, window: f64) -> usize {
        let before = self.nodes();
        if window < self.window {
            self.window = window;
            if self.nodes() != before {
                self.dense = None;
                let (spectral, basis) = cold_state(&self.cascade, window, &self.cfg);
                self.spectral = spectral;
                self.basis = basis;
            }
            return 0;
        }
        self.window = window;
        let after = self.nodes();
        if after == before {
            return 0;
        }
        self.dense = None;
        self.push_range(before, after);
        after - before
    }

    /// The model input at the current `(cascade, window)`. Reuses cached
    /// dense `T_k` blocks when the operator has not changed since the last
    /// call; snapshots and labels are recomputed (they are `O(n·steps)`).
    pub fn current(&mut self) -> PreprocessedCascade {
        let dense = match self.cfg.cheb_kernel {
            ChebKernel::Dense => {
                let basis = &self.basis;
                Some(self.dense.get_or_insert_with(|| basis.materialize()).clone())
            }
            ChebKernel::Sparse => None,
        };
        assemble_with(&self.cascade, self.window, &self.cfg, self.basis.clone(), dense)
    }

    fn nodes(&self) -> usize {
        self.cascade.observed_size(self.window).max(1).min(self.cfg.max_nodes)
    }

    /// Pushes nodes `before..after` (already appended and observed) through
    /// the incremental operator, or rebuilds cold for the undirected
    /// variant, then republishes the basis.
    fn push_range(&mut self, before: usize, after: usize) {
        match &mut self.spectral {
            Some(inc) => {
                for idx in before..after {
                    // Cascade validation guarantees non-root events carry
                    // in-range parents; the guard mirrors `observed_graph`.
                    if let Some(p) = self.cascade.events[idx].parent {
                        if p < idx {
                            inc.push_child(p);
                        }
                    }
                }
                self.basis = inc.basis();
            }
            None => {
                self.basis = spectral_basis(&self.cascade, self.window, &self.cfg);
            }
        }
    }
}

/// Cold spectral state for a `(cascade, window, cfg)` triple: incremental
/// handle for the directed CasLaplacian, plain basis otherwise.
fn cold_state(
    cascade: &Cascade,
    window: f64,
    cfg: &CascnConfig,
) -> (Option<IncrementalSpectral>, SpectralBasis) {
    match cfg.laplacian {
        LaplacianKind::Directed => {
            let g = observed_graph(cascade, window, cfg);
            let inc = IncrementalSpectral::from_graph(&g, cfg.alpha, lambda_mode(cfg), cfg.k);
            let basis = inc.basis();
            (Some(inc), basis)
        }
        LaplacianKind::Undirected => (None, spectral_basis(cascade, window, cfg)),
    }
}

/// Internal helper that re-implements the snapshot sampling over a truncated
/// node prefix with column padding.
struct TruncatedView<'a> {
    cascade: &'a Cascade,
    n: usize,
}

impl TruncatedView<'_> {
    fn snapshots_padded(&self, max_steps: usize, width: usize) -> (Vec<Matrix>, Vec<f64>) {
        let n = self.n;
        let events = &self.cascade.events[..n];
        let steps = n.min(max_steps.max(1));
        let mut boundaries = Vec::with_capacity(steps);
        for s in 1..=steps {
            boundaries.push((s * n).div_ceil(steps));
        }
        let mut out = Vec::with_capacity(steps);
        let mut times = Vec::with_capacity(steps);
        let mut adj = Matrix::zeros(n, width);
        adj[(0, 0)] = 1.0; // root self-connection
        let mut next_event = 1usize;
        for &b in &boundaries {
            while next_event < b {
                let e = &events[next_event];
                // Cascade validation guarantees non-root events carry parents.
                if let Some(p) = e.parent {
                    if p < n && next_event < width {
                        adj[(p, next_event)] = 1.0;
                    }
                }
                next_event += 1;
            }
            out.push(adj.clone());
            times.push(events[b - 1].time);
        }
        (out, times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::Event;

    fn fig1() -> Cascade {
        Cascade::new(
            1,
            0.0,
            vec![
                Event { user: 0, parent: None, time: 0.0 },
                Event { user: 1, parent: Some(0), time: 10.0 },
                Event { user: 2, parent: Some(0), time: 20.0 },
                Event { user: 3, parent: Some(1), time: 30.0 },
                Event { user: 4, parent: Some(1), time: 40.0 },
                Event { user: 5, parent: Some(3), time: 50.0 },
            ],
        )
    }

    fn cfg() -> CascnConfig {
        CascnConfig {
            max_nodes: 10,
            max_steps: 8,
            k: 2,
            ..CascnConfig::default()
        }
    }

    #[test]
    fn shapes_are_consistent() {
        let p = preprocess(&fig1(), 60.0, &cfg());
        assert_eq!(p.n, 6);
        assert_eq!(p.basis.order(), 2, "order K");
        assert_eq!(p.basis.num_nodes(), 6);
        assert!(
            p.dense_bases.is_none(),
            "the default sparse kernel must not materialize dense bases"
        );
        assert_eq!(p.snapshots.len(), 6);
        for s in &p.snapshots {
            assert_eq!(s.shape(), (6, 10), "column padded to max_nodes");
        }
        assert_eq!(p.times.len(), p.snapshots.len());
        assert_eq!(p.increment, 0);
        assert_eq!(p.label_log, 0.0, "ln(1+0) = 0");
    }

    #[test]
    fn window_truncates_label() {
        let p = preprocess(&fig1(), 25.0, &cfg());
        assert_eq!(p.n, 3);
        assert_eq!(p.increment, 3);
        assert!((p.label_log - 4.0f32.ln()).abs() < 1e-6);
    }

    /// Boundary pin: an event at exactly `t == window` belongs to the model
    /// input, not to the label — `observe`, `increment_size`, and label
    /// truncation must all agree on that, at the boundary and ±ε around it.
    #[test]
    fn window_boundary_event_is_input_not_label() {
        let c = fig1(); // has an event at exactly t = 20.0
        let eps = 1e-9;
        let at = preprocess(&c, 20.0, &cfg());
        assert_eq!(at.n, 3, "boundary event is observed");
        assert_eq!(at.increment, 3, "boundary event is not predicted");
        assert!((at.label_log - 4.0f32.ln()).abs() < 1e-6);
        assert_eq!(*at.times.last().unwrap(), 20.0, "boundary event's time is in the input");

        let below = preprocess(&c, 20.0 - eps, &cfg());
        assert_eq!((below.n, below.increment), (2, 4));
        let above = preprocess(&c, 20.0 + eps, &cfg());
        assert_eq!((above.n, above.increment), (3, 3));
        for p in [&at, &below, &above] {
            assert_eq!(p.n + p.increment, c.final_size(), "no event lost or double-counted");
        }
    }

    #[test]
    fn oversize_cascades_are_truncated() {
        let small = CascnConfig {
            max_nodes: 4,
            ..cfg()
        };
        let p = preprocess(&fig1(), 60.0, &small);
        assert_eq!(p.n, 4);
        assert_eq!(p.basis.num_nodes(), 4);
        for s in &p.snapshots {
            assert_eq!(s.shape(), (4, 4));
        }
        // Edges to truncated nodes must not appear.
        let last = p.snapshots.last().unwrap();
        assert_eq!(last.sum(), 1.0 + 3.0, "self-loop + edges among first 4 nodes");
    }

    #[test]
    fn step_cap_preserves_final_snapshot() {
        let capped = CascnConfig {
            max_steps: 2,
            ..cfg()
        };
        let full = preprocess(&fig1(), 60.0, &cfg());
        let short = preprocess(&fig1(), 60.0, &capped);
        assert_eq!(short.snapshots.len(), 2);
        assert_eq!(
            short.snapshots.last().unwrap().as_slice(),
            full.snapshots.last().unwrap().as_slice(),
            "final snapshot must contain the whole observed cascade"
        );
        assert_eq!(*short.times.last().unwrap(), 50.0);
    }

    #[test]
    fn approx2_sets_lambda() {
        let c = CascnConfig {
            lambda_max: LambdaMax::Approx2,
            ..cfg()
        };
        let p = preprocess(&fig1(), 60.0, &c);
        assert_eq!(p.lambda_max, 2.0);
        let exact = preprocess(&fig1(), 60.0, &cfg());
        assert_ne!(exact.lambda_max, 2.0);
    }

    #[test]
    fn undirected_bases_are_symmetric() {
        let c = CascnConfig {
            laplacian: LaplacianKind::Undirected,
            cheb_kernel: ChebKernel::Dense,
            ..cfg()
        };
        let p = preprocess(&fig1(), 60.0, &c);
        let bases = p.dense_bases.as_ref().expect("Dense kernel materializes");
        assert_eq!(bases.len(), 3, "K + 1 bases");
        let t1 = &bases[1];
        for r in 0..t1.rows() {
            for cidx in 0..t1.cols() {
                assert!((t1[(r, cidx)] - t1[(cidx, r)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn dense_kernel_materializes_matching_bases() {
        let dense_cfg = CascnConfig {
            cheb_kernel: ChebKernel::Dense,
            ..cfg()
        };
        let p = preprocess(&fig1(), 60.0, &dense_cfg);
        let bases = p.dense_bases.as_ref().expect("Dense kernel materializes");
        assert_eq!(bases.len(), 3, "K + 1 bases");
        for b in bases {
            assert_eq!(b.shape(), (6, 6));
        }
        // The materialization is exactly basis.materialize() — same handle,
        // same bits — and both kernels share one spectral pipeline.
        let sparse = preprocess(&fig1(), 60.0, &cfg());
        assert_eq!(sparse.lambda_max.to_bits(), p.lambda_max.to_bits());
        for (a, b) in p.basis.materialize().iter().zip(bases) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn cached_basis_path_is_bit_identical() {
        // The serving cache depends on preprocess_with_basis(spectral_basis(…))
        // reproducing preprocess(…) exactly.
        for window in [25.0, 60.0] {
            let direct = preprocess(&fig1(), window, &cfg());
            let basis = spectral_basis(&fig1(), window, &cfg());
            let cached = preprocess_with_basis(&fig1(), window, &cfg(), &basis);
            assert_eq!(direct.n, cached.n);
            assert_eq!(direct.lambda_max.to_bits(), cached.lambda_max.to_bits());
            assert_eq!(
                direct.basis.scaled_dense().as_slice(),
                cached.basis.scaled_dense().as_slice(),
                "operators must match bit-for-bit"
            );
            for (a, b) in direct.snapshots.iter().zip(&cached.snapshots) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
            assert_eq!(direct.times, cached.times);
            assert_eq!(direct.increment, cached.increment);
        }
    }

    #[test]
    fn spectral_basis_respects_node_truncation() {
        let small = CascnConfig { max_nodes: 4, ..cfg() };
        let basis = spectral_basis(&fig1(), 60.0, &small);
        assert_eq!(basis.num_nodes(), 4);
        assert_eq!(basis.order(), small.k);
    }

    fn assert_matches_cold(p: &PreprocessedCascade, cascade: &Cascade, window: f64, c: &CascnConfig) {
        let cold = preprocess(cascade, window, c);
        assert_eq!(p.n, cold.n);
        assert_eq!(p.increment, cold.increment);
        assert_eq!(p.times, cold.times);
        for (a, b) in p.snapshots.iter().zip(&cold.snapshots) {
            assert_eq!(a.as_slice(), b.as_slice(), "snapshots must be bit-identical");
        }
        // The streamed operator runs the cold builder: exact parity.
        assert_eq!(p.basis, cold.basis, "operator drifted from cold preprocessing");
        assert_eq!(p.dense_bases, cold.dense_bases, "dense T_k blocks drifted");
    }

    #[test]
    fn windowed_preprocessor_tracks_cold_preprocessing_per_event() {
        let full = fig1();
        // Start from the first three events; stream the rest in one by one.
        let seed = Cascade::new(1, 0.0, full.events[..3].to_vec());
        let window = 100.0;
        let mut wp = WindowedPreprocessor::new(seed, window, &cfg());
        assert_matches_cold(&wp.current(), wp.cascade(), window, &cfg());
        for e in &full.events[3..] {
            assert!(wp.observe_event(e.clone()).unwrap(), "in-window event refreshes");
            let snapshot = wp.cascade().clone();
            assert_matches_cold(&wp.current(), &snapshot, window, &cfg());
        }
        assert_eq!(wp.num_nodes(), 6);
        assert_eq!(wp.warm_fallbacks(), 0, "φ converges on every healthy tree");
    }

    #[test]
    fn future_events_touch_only_the_label_side() {
        let full = fig1();
        let seed = Cascade::new(1, 0.0, full.events[..3].to_vec());
        let window = 25.0; // events at t=30,40,50 stay label-side
        let mut wp = WindowedPreprocessor::new(seed, window, &cfg());
        let before = wp.current();
        for e in &full.events[3..] {
            assert!(!wp.observe_event(e.clone()).unwrap(), "beyond-window event must not refresh");
        }
        let after = wp.current();
        assert_eq!(after.n, before.n);
        assert_eq!(after.increment, 3, "label side saw all three future events");
        assert_eq!(
            before.basis.scaled_dense().as_slice(),
            after.basis.scaled_dense().as_slice(),
            "spectral handle reused bit-for-bit"
        );
        assert_matches_cold(&after, wp.cascade(), window, &cfg());
    }

    #[test]
    fn window_crossing_pushes_pending_events() {
        let full = fig1();
        let mut wp = WindowedPreprocessor::new(full.clone(), 25.0, &cfg());
        assert_eq!(wp.num_nodes(), 3);
        // Crossing to t=45 pulls events at 30 and 40 into the prefix.
        assert_eq!(wp.advance_window(45.0), 2);
        assert_matches_cold(&wp.current(), &full, 45.0, &cfg());
        // A boundary-exact crossing pulls the t=50 event (inclusive).
        assert_eq!(wp.advance_window(50.0), 1);
        assert_matches_cold(&wp.current(), &full, 50.0, &cfg());
        // No-op advance refreshes nothing.
        assert_eq!(wp.advance_window(60.0), 0);
        // Shrinking rebuilds cold and still matches.
        wp.advance_window(25.0);
        assert_matches_cold(&wp.current(), &full, 25.0, &cfg());
        assert_eq!(wp.num_nodes(), 3);
    }

    #[test]
    fn dense_blocks_are_reused_across_unchanged_windows() {
        let dense_cfg = CascnConfig { cheb_kernel: ChebKernel::Dense, ..cfg() };
        let full = fig1();
        let mut wp = WindowedPreprocessor::new(full.clone(), 25.0, &dense_cfg);
        let first = wp.current();
        // Label-side append: cached blocks survive and stay bit-identical.
        wp.observe_event(Event { user: 9, parent: Some(2), time: 60.0 }).unwrap();
        let second = wp.current();
        let (a, b) = (
            first.dense_bases.as_ref().expect("Dense kernel materializes"),
            second.dense_bases.as_ref().expect("Dense kernel materializes"),
        );
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.as_slice(), y.as_slice(), "T_k blocks reused across windows");
        }
        // A refresh (window crossing) invalidates and rebuilds them.
        assert!(wp.advance_window(60.0) > 0);
        let snapshot = wp.cascade().clone();
        assert_matches_cold(&wp.current(), &snapshot, 60.0, &dense_cfg);
        // And out-of-order or invalid appends are rejected untouched.
        wp.observe_event(Event { user: 10, parent: Some(2), time: 24.9 }).unwrap_err();
        wp.observe_event(Event { user: 10, parent: None, time: 70.0 }).unwrap_err();
    }

    #[test]
    fn windowed_preprocessor_handles_undirected_and_truncation() {
        let und = CascnConfig { laplacian: LaplacianKind::Undirected, ..cfg() };
        let full = fig1();
        let seed = Cascade::new(1, 0.0, full.events[..2].to_vec());
        let mut wp = WindowedPreprocessor::new(seed, 100.0, &und);
        for e in &full.events[2..] {
            wp.observe_event(e.clone()).unwrap();
        }
        let snapshot = wp.cascade().clone();
        assert_matches_cold(&wp.current(), &snapshot, 100.0, &und);

        // Truncation: past max_nodes the operator must stop growing.
        let small = CascnConfig { max_nodes: 4, ..cfg() };
        let mut wp = WindowedPreprocessor::new(full.clone(), 100.0, &small);
        assert_eq!(wp.num_nodes(), 4);
        assert!(!wp.observe_event(Event { user: 11, parent: Some(3), time: 70.0 }).unwrap());
        assert_eq!(wp.num_nodes(), 4);
        let snapshot = wp.cascade().clone();
        assert_matches_cold(&wp.current(), &snapshot, 100.0, &small);
    }

    #[test]
    fn singleton_cascade_preprocesses() {
        let c = Cascade::new(9, 0.0, vec![Event { user: 7, parent: None, time: 0.0 }]);
        let p = preprocess(&c, 100.0, &cfg());
        assert_eq!(p.n, 1);
        assert_eq!(p.snapshots.len(), 1);
        assert_eq!(p.snapshots[0][(0, 0)], 1.0, "root self-loop");
        assert!(p.basis.scaled_dense().all_finite());
        assert!(p.basis.materialize().iter().all(|b| b.all_finite()));
    }
}
