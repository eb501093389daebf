//! Property-based integration tests over randomly generated cascades: the
//! preprocessing pipeline must uphold its invariants for *any* valid
//! cascade, not just the synthetic generators' output.

use cascn::{preprocess, CascnConfig, CascnModel, LambdaMax, LaplacianKind, WindowedPreprocessor};
use cascn_cascades::{Cascade, Event};
use cascn_graph::laplacian;
use proptest::prelude::*;

/// Strategy: a random valid cascade with up to `max_nodes` adopters.
/// Events get increasing times and earlier-indexed parents — the Cascade
/// invariants by construction.
fn arbitrary_cascade(max_nodes: usize) -> impl Strategy<Value = Cascade> {
    (1..=max_nodes).prop_flat_map(move |n| {
        // Parent choices: parent of event i (1-based) is in 0..i.
        let parents: Vec<BoxedStrategy<usize>> = (1..n)
            .map(|i| (0..i).prop_map(|p| p).boxed())
            .collect();
        let gaps = proptest::collection::vec(0.01f64..50.0, n.saturating_sub(1));
        (parents, gaps).prop_map(move |(ps, gs)| {
            let mut events = vec![Event {
                user: 1000,
                parent: None,
                time: 0.0,
            }];
            let mut t = 0.0;
            for (i, (p, g)) in ps.into_iter().zip(gs).enumerate() {
                t += g;
                events.push(Event {
                    user: 1001 + i as u64,
                    parent: Some(p),
                    time: t,
                });
            }
            Cascade::new(7, 0.0, events)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn preprocess_invariants_hold(cascade in arbitrary_cascade(20), window in 1.0f64..2000.0) {
        let cfg = CascnConfig {
            max_nodes: 12,
            max_steps: 5,
            k: 2,
            ..CascnConfig::default()
        };
        let p = preprocess(&cascade, window, &cfg);

        // Shapes. The default sparse kernel carries the operator, never the
        // materialized bases; materializing on demand must still produce
        // K+1 finite n×n matrices.
        prop_assert!(p.dense_bases.is_none());
        prop_assert_eq!(p.basis.num_nodes(), p.n);
        let bases = p.basis.materialize();
        prop_assert_eq!(bases.len(), cfg.k + 1);
        prop_assert!(p.n >= 1 && p.n <= cfg.max_nodes);
        for b in &bases {
            prop_assert_eq!(b.shape(), (p.n, p.n));
            prop_assert!(b.all_finite());
        }
        prop_assert!(!p.snapshots.is_empty());
        prop_assert!(p.snapshots.len() <= cfg.max_steps);
        prop_assert_eq!(p.snapshots.len(), p.times.len());

        // Snapshots grow monotonically and end with the whole prefix.
        for w in p.snapshots.windows(2) {
            for i in 0..w[0].len() {
                prop_assert!(w[1].as_slice()[i] >= w[0].as_slice()[i]);
            }
        }
        let expected_edges = cascade.events[..p.n]
            .iter()
            .skip(1)
            .filter(|e| e.parent.expect("non-root") < p.n)
            .count() as f32;
        prop_assert_eq!(p.snapshots.last().unwrap().sum(), expected_edges + 1.0);

        // Times sorted and within the (inclusive) window.
        prop_assert!(p.times.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(p.times.iter().all(|&t| t <= window || p.n == 1));

        // Label consistency: observation is inclusive at the boundary, the
        // increment counts strictly-later events, and together they cover
        // every event exactly once.
        prop_assert_eq!(p.increment, cascade.final_size() - cascade.observed_size(window));
        prop_assert_eq!(cascade.observed_size(window) + cascade.increment_size(window),
                        cascade.final_size());
        prop_assert!((p.label_log - ((p.increment + 1) as f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn cas_laplacian_invariants_on_random_cascades(cascade in arbitrary_cascade(15)) {
        let g = cascade.observe(f64::MAX).graph();
        let p = laplacian::transition_matrix(&g, 0.85);
        // Rows stochastic.
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {} sums to {}", r, sum);
            prop_assert!(p.row(r).iter().all(|&x| x > 0.0));
        }
        // Δc annihilates Φ^{1/2}e.
        let lap = laplacian::cas_laplacian(&g, 0.85);
        let v = laplacian::sqrt_stationary(&g, 0.85);
        for r in 0..lap.rows() {
            let y: f32 = lap.row(r).iter().zip(&v).map(|(&a, &b)| a * b).sum();
            prop_assert!(y.abs() < 1e-3, "row {} maps sqrt-stationary to {}", r, y);
        }
        // λ_max positive, scaled spectrum Chebyshev-safe.
        let lmax = laplacian::largest_eigenvalue(&lap);
        prop_assert!(lmax > 0.0 && lmax.is_finite());
        let scaled = laplacian::scale_laplacian(&lap, lmax);
        prop_assert!(scaled.all_finite());
        let bases = laplacian::chebyshev_bases(&scaled, 3);
        prop_assert!(bases.iter().all(|b| b.all_finite()));
    }

    #[test]
    fn approx_and_exact_lambda_agree_on_t0_t1(cascade in arbitrary_cascade(12)) {
        // Both λ_max modes must at least produce the same T_0 (identity) and
        // finite higher orders — the Table V comparison is meaningful only
        // if both pipelines are well-formed.
        for mode in [LambdaMax::Exact, LambdaMax::Approx2] {
            let cfg = CascnConfig {
                max_nodes: 12,
                max_steps: 4,
                lambda_max: mode,
                ..CascnConfig::default()
            };
            let p = preprocess(&cascade, 1e6, &cfg);
            // T_0 = I.
            let bases = p.basis.materialize();
            let t0 = &bases[0];
            for r in 0..t0.rows() {
                for c in 0..t0.cols() {
                    let expect = if r == c { 1.0 } else { 0.0 };
                    prop_assert!((t0[(r, c)] - expect).abs() < 1e-6);
                }
            }
            prop_assert!(p.lambda_max > 0.0);
        }
    }

    #[test]
    fn streamed_increments_match_one_shot_predictions(
        cascade in arbitrary_cascade(16),
        window in 1.0f64..200.0,
        seed_frac in 0.0f64..1.0,
        crossings in proptest::collection::vec(0.05f64..0.95, 0..3),
    ) {
        // The streaming gate: seed a live preprocessor with a random prefix,
        // push the remaining events one at a time (optionally crossing a few
        // intermediate window boundaries on the way), and the incremental
        // state must predict exactly what one-shot preprocessing predicts —
        // at every thread count. Streaming and cold share one spectral
        // builder, so there is no tolerance to spend.
        let cfg = CascnConfig {
            hidden: 4,
            mlp_hidden: 4,
            max_nodes: 12,
            max_steps: 5,
            k: 2,
            threads: 1,
            ..CascnConfig::default()
        };
        let n = cascade.final_size();
        let split = 1 + ((n - 1) as f64 * seed_frac) as usize;
        let seed = Cascade::new(cascade.id, cascade.start_time, cascade.events[..split].to_vec());

        // Random earlier windows to cross on the way to the final one.
        let mut windows: Vec<f64> = crossings.iter().map(|f| f * window).collect();
        windows.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        windows.push(window);

        let mut pp = WindowedPreprocessor::new(seed, windows[0], &cfg);
        let mut next_window = 1;
        for (i, ev) in cascade.events[split..].iter().enumerate() {
            // Spread the window crossings across the streamed events.
            if next_window < windows.len() && i == (n - split) / 2 {
                pp.advance_window(windows[next_window]);
                next_window += 1;
            }
            prop_assert!(pp.observe_event(ev.clone()).is_ok());
        }
        while next_window < windows.len() {
            pp.advance_window(windows[next_window]);
            next_window += 1;
        }
        let sample = pp.current();
        let cold = preprocess(&cascade, window, &cfg);

        prop_assert_eq!(sample.n, cold.n);
        prop_assert_eq!(sample.increment, cold.increment);
        let warm_bases = sample.basis.materialize();
        let cold_bases = cold.basis.materialize();
        prop_assert_eq!(warm_bases, cold_bases, "basis drift");

        // Model-level parity: the streamed sample predicts exactly what
        // one-shot preprocessing does, identically at 1, 2, and 4 threads.
        let mut preds = Vec::new();
        for threads in [1usize, 2, 4] {
            let model = CascnModel::new(CascnConfig { threads, ..cfg });
            let warm = model.predict_log_sample(&sample);
            let one_shot = model.predict_logs(std::slice::from_ref(&cascade), window)[0];
            prop_assert_eq!(warm.to_bits(), one_shot.to_bits(),
                "threads {}: warm {} vs one-shot {}", threads, warm, one_shot);
            preds.push(warm);
        }
        prop_assert_eq!(preds[0].to_bits(), preds[1].to_bits());
        prop_assert_eq!(preds[0].to_bits(), preds[2].to_bits());
    }

    #[test]
    fn undirected_mode_symmetrizes(cascade in arbitrary_cascade(10)) {
        let cfg = CascnConfig {
            max_nodes: 10,
            laplacian: LaplacianKind::Undirected,
            ..CascnConfig::default()
        };
        let p = preprocess(&cascade, 1e6, &cfg);
        let bases = p.basis.materialize();
        let t1 = &bases[1];
        for r in 0..t1.rows() {
            for c in 0..t1.cols() {
                prop_assert!((t1[(r, c)] - t1[(c, r)]).abs() < 1e-4);
            }
        }
    }
}
