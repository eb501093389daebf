//! `CasCN-GL` (Table IV): a per-snapshot graph convolution followed by a
//! *dense* LSTM — structure and time are modeled by separate components
//! instead of the fused ChebConv-LSTM cell. The gap between this variant
//! and full CasCN quantifies the value of convolving inside the recurrence.

use std::sync::Arc;

use cascn_autograd::{ParamId, ParamStore, Tape, Var};
use cascn_cascades::Cascade;
use cascn_nn::train::History;
use cascn_nn::{init, Activation, LstmCell, Mlp, TimeDecay};
use cascn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{CascnConfig, DecayMode};
use crate::input::{preprocess, PreprocessedCascade};
use crate::parallel::parallel_map;
use crate::trainer::{predict_with, train_loop, TrainOpts};

/// The GCN-then-LSTM ablation model.
#[derive(Debug, Clone)]
pub struct GlModel {
    cfg: CascnConfig,
    store: ParamStore,
    /// Chebyshev filter stack of the standalone GCN layer (`K+1` filters).
    conv_w: Vec<ParamId>,
    conv_b: ParamId,
    lstm: LstmCell,
    decay: TimeDecay,
    mlp: Mlp,
}

impl GlModel {
    /// Builds an untrained model.
    pub fn new(cfg: CascnConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let conv_w = (0..=cfg.k)
            .map(|i| {
                store.register(
                    format!("gl.conv.w{i}"),
                    init::xavier_uniform(cfg.max_nodes, cfg.hidden, &mut rng),
                )
            })
            .collect();
        let conv_b = store.register("gl.conv.b", Matrix::zeros(1, cfg.hidden));
        let lstm = LstmCell::new(&mut store, "gl.lstm", cfg.hidden, cfg.hidden, &mut rng);
        let decay = TimeDecay::new(&mut store, "gl.decay", cfg.decay_intervals);
        let mlp = Mlp::new(
            &mut store,
            "gl.mlp",
            &[cfg.hidden, cfg.mlp_hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            cfg,
            store,
            conv_w,
            conv_b,
            lstm,
            decay,
            mlp,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &CascnConfig {
        &self.cfg
    }

    /// Forward pass: GCN per snapshot → node-sum pooling → dense LSTM over
    /// the pooled sequence → time decay → sum → MLP.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        sample: &PreprocessedCascade,
    ) -> Var {
        let operands = sample.operands(tape);
        let filters: Vec<Var> = self.conv_w.iter().map(|&id| tape.param(store, id)).collect();
        let bias = tape.param(store, self.conv_b);
        // Per-snapshot GCN embedding (1 x hidden each): Σ_k T_k·(X·W_k).
        let mut sequence = Vec::with_capacity(sample.snapshots.len());
        for snap in &sample.snapshots {
            let ys: Vec<Var> = filters.iter().map(|&w| tape.spmm(Arc::clone(snap), w)).collect();
            let pre = operands.cheb_sum(tape, &ys);
            let pre = tape.add_bias(pre, bias);
            let act = tape.relu(pre);
            sequence.push(tape.sum_rows(act));
        }
        // Dense LSTM over the snapshot embeddings.
        let hs = self.lstm.run(tape, store, &sequence, 1);
        let lambdas = (self.cfg.decay == DecayMode::Learned).then(|| self.decay.bind(tape, store));
        let mut acc: Option<Var> = None;
        for (t, &h) in hs.iter().enumerate() {
            let weighted = match (lambdas, self.cfg.decay) {
                (Some(table), _) => {
                    self.decay.apply(tape, table, h, sample.times[t], sample.window)
                }
                (None, DecayMode::None) => h,
                (None, kernel) => {
                    let k = kernel.kernel(sample.times[t] / sample.window.max(f64::MIN_POSITIVE));
                    tape.scale(h, k)
                }
            };
            acc = Some(match acc {
                Some(a) => tape.add(a, weighted),
                None => weighted,
            });
        }
        // lint: allow(no-panic) — the snapshot sequence is non-empty (snapshots() emits ≥ 1)
        let pooled = acc.expect("non-empty sequence");
        self.mlp.forward(tape, store, pooled)
    }

    /// Trains the model (same loop as CasCN).
    pub fn fit(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        let train_samples: Vec<PreprocessedCascade> =
            parallel_map(self.cfg.threads, train, |_, c| preprocess(c, window, &self.cfg));
        let train_labels: Vec<f32> = train_samples.iter().map(|s| s.label_log).collect();
        let val_samples: Vec<PreprocessedCascade> =
            parallel_map(self.cfg.threads, val, |_, c| preprocess(c, window, &self.cfg));
        let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let model = self.clone();
        let forward = move |tape: &mut Tape, store: &ParamStore, s: &PreprocessedCascade| {
            model.forward(tape, store, s)
        };
        train_loop(
            &mut self.store,
            &forward,
            &train_samples,
            &train_labels,
            &val_samples,
            &val_increments,
            opts,
        )
    }

    /// Predicted log-increment for a cascade.
    pub fn predict_log(&self, cascade: &Cascade, window: f64) -> f32 {
        let sample = preprocess(cascade, window, &self.cfg);
        let forward = |tape: &mut Tape, store: &ParamStore, s: &PreprocessedCascade| {
            self.forward(tape, store, s)
        };
        predict_with(&self.store, &forward, &sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};

    fn tiny_cfg() -> CascnConfig {
        CascnConfig {
            hidden: 4,
            mlp_hidden: 4,
            max_nodes: 12,
            max_steps: 6,
            ..CascnConfig::default()
        }
    }

    #[test]
    fn forward_and_predict_are_finite() {
        let data = WeiboGenerator::new(WeiboConfig {
            num_cascades: 50,
            seed: 3,
            max_size: 100,
        })
        .generate();
        let model = GlModel::new(tiny_cfg());
        let p = model.predict_log(&data.cascades[0], 3600.0);
        assert!(p.is_finite());
    }

    #[test]
    fn fit_runs_one_epoch() {
        let data = WeiboGenerator::new(WeiboConfig {
            num_cascades: 120,
            seed: 4,
            max_size: 100,
        })
        .generate()
        .filter_observed_size(3600.0, 2, 50);
        let mut model = GlModel::new(tiny_cfg());
        let half = data.cascades.len() / 2;
        let opts = TrainOpts {
            epochs: 1,
            ..TrainOpts::default()
        };
        let hist = model.fit(&data.cascades[..half], &data.cascades[half..], 3600.0, &opts);
        assert_eq!(hist.records().len(), 1);
        assert!(hist.records()[0].val_loss.is_finite());
    }
}
