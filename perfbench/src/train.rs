//! `train`: offline `CascnModel::fit` on a closed batch, with one worker
//! per core. The only workload that runs backward and the optimizer.
//!
//! Untraced, a run repeats whole one-epoch `fit` calls for most of the
//! time; `throughput_per_s` and `cpu_ms_per_op` are their median rate and
//! median process CPU time per training example.
//!
//! The traced run replays the same `fit` — preprocessing, shuffled
//! batches, per-example forward and backward, gradient merge and Adam
//! step, validation — through the layers' public functions with a span
//! around each call, and checks that the replay's epoch losses are
//! bit-identical to `fit`'s, so the spans describe the work `fit` does.

use std::time::Instant;

use cascn::{
    parallel_map, preprocess_with_basis, spectral_basis, CascnModel, PreprocessedCascade, TaskKind,
    TrainOpts,
};
use cascn_autograd::{Adam, Optimizer, Tape};
use cascn_cascades::Cascade;
use cascn_nn::metrics;
use cascn_nn::train::{shuffled_batches, History};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    cascades, model_config, phi_counts, timed_setup, Layers, Report, BLOCK, WINDOW,
};
use crate::stats::median;
use crate::sys;
use crate::trace::{Recorder, Trace};

/// Training and validation cascades (whole blocks of the fixed
/// observed-size mix, see [`crate::common::cascades`]).
const TRAIN_CASCADES: usize = 4 * BLOCK;
const VAL_CASCADES: usize = BLOCK;
/// Cascades in the traced run's preprocessing pass: the training and
/// validation sets plus more of the same mix. Whether φ converges is close
/// to a coin flip per cascade, so the spectral percentiles and counts need
/// many distinct cascades to repeat from seed to seed.
const PASS_CASCADES: usize = 75 * BLOCK;
/// Epochs per `fit` call (patience is set above it, so every call runs
/// all of them). One epoch per call gives many short calls, whose median
/// rate shrugs off a burst of interference from the host.
const EPOCHS: usize = 1;
/// Share of `--seconds` spent on repeated `fit` calls; the thread-parity
/// check takes most of the rest.
const FIT_SHARE: f64 = 0.85;

/// Runs the workload and returns its result line.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let threads = sys::nproc();
    let cfg = model_config(TaskKind::SizeRegression, threads);
    let ((all, model), setup_s) = timed_setup(
        || (cascades(seed, PASS_CASCADES), CascnModel::new(cfg)),
        drop,
    );
    let train = &all[..TRAIN_CASCADES];
    let val = &all[TRAIN_CASCADES..TRAIN_CASCADES + VAL_CASCADES];
    let opts = TrainOpts {
        epochs: EPOCHS,
        patience: EPOCHS + 1,
        threads,
        ..TrainOpts::default()
    };
    eprintln!(
        "train: seed {seed}, {} train / {} val cascades, {} parameters, {threads} threads",
        train.len(),
        val.len(),
        model.num_parameters()
    );
    let mut report = Report::default();
    if traced {
        run_traced(&model, &all, train, val, &opts, &mut report);
    } else {
        report.metric("setup_s", setup_s, "s");
        run_untraced(&model, train, val, &opts, seconds, &mut report);
    }
    report
}

fn run_untraced(
    model: &CascnModel,
    train: &[Cascade],
    val: &[Cascade],
    opts: &TrainOpts,
    seconds: f64,
    report: &mut Report,
) {
    let start = Instant::now();
    let examples = (opts.epochs * train.len()) as f64;
    let mut rates = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut reference: Option<(CascnModel, History)> = None;
    let mut failed = 0u64;
    loop {
        let mut m = model.clone();
        let (t0, cpu0) = (Instant::now(), sys::process_cpu());
        let history = m.fit(train, val, WINDOW, opts);
        rates.push(examples / t0.elapsed().as_secs_f64());
        cpu_ms.push((sys::process_cpu() - cpu0).as_secs_f64() * 1e3 / examples);
        if !history.anomalies().is_empty() {
            eprintln!("train: anomaly log not empty: {:?}", history.anomalies());
            failed += 1;
        }
        match &reference {
            Some((_, h)) if h.records() != history.records() => {
                eprintln!("train: repeated fit gave a different loss history");
                failed += 1;
            }
            Some(_) => {}
            None => reference = Some((m, history)),
        }
        if start.elapsed().as_secs_f64() >= FIT_SHARE * seconds {
            break;
        }
    }

    // The trained model's validation predictions must not depend on the
    // worker count.
    let (trained, _) = reference.expect("at least one fit ran");
    let mut serial = model.clone();
    serial.fit(
        train,
        val,
        WINDOW,
        &TrainOpts {
            threads: 1,
            ..*opts
        },
    );
    let mismatched = val
        .iter()
        .filter(|c| {
            trained.predict_log(c, WINDOW).to_bits() != serial.predict_log(c, WINDOW).to_bits()
        })
        .count();
    if mismatched > 0 {
        eprintln!(
            "train: {mismatched} of {} validation predictions differ between 1 and {} threads",
            val.len(),
            opts.threads
        );
    }
    failed += mismatched as u64;

    let (rate, cpu) = (median(&rates), median(&cpu_ms));
    eprintln!(
        "train: {} fit calls, {rate:.1} examples/s and {cpu:.2} CPU ms per example (medians); rates {:.1?}",
        rates.len(),
        rates
    );
    report.attempted = (rates.len() as f64 * examples) as u64 + val.len() as u64;
    report.failed = failed;
    report.correct = failed == 0;
    report.metric("throughput_per_s", rate, "1/s");
    report.metric("cpu_ms_per_op", cpu, "ms");
}

fn run_traced(
    model: &CascnModel,
    all: &[Cascade],
    train: &[Cascade],
    val: &[Cascade],
    opts: &TrainOpts,
    report: &mut Report,
) {
    // A traced preprocessing pass over every input cascade once: the
    // spectral and assembly metrics rest on it.
    let origin = Instant::now();
    let mut pass = Trace::default();
    preprocess_traced(model, all, opts.threads, origin, true, &mut pass);

    // The untraced reference: one `fit`, its wall and CPU time.
    let mut fitted = model.clone();
    let cpu0 = sys::process_cpu();
    let history = fitted.fit(train, val, WINDOW, opts);
    let fit_cpu = (sys::process_cpu() - cpu0).as_secs_f64();

    // Untraced replays on both sides of the traced one, so drift in the
    // host's speed does not read as tracing overhead.
    let before = replay(model, train, val, opts, origin, false);
    let traced = replay(model, train, val, opts, origin, true);
    let plain = replay(model, train, val, opts, origin, false);

    let fit_losses: Vec<(f32, f32)> = history
        .records()
        .iter()
        .map(|r| (r.train_loss, r.val_loss))
        .collect();
    let bits = |v: &[(f32, f32)]| {
        v.iter()
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut failed = 0;
    for (name, r) in [
        ("traced", &traced),
        ("untraced", &plain),
        ("untraced", &before),
    ] {
        if bits(&r.losses) != bits(&fit_losses) {
            eprintln!(
                "train: {name} replay losses {:?} differ from fit {:?}",
                r.losses, fit_losses
            );
            failed += 1;
        }
    }

    let mut layers = Layers::from_trace(&traced.trace);
    let from_pass = Layers::from_trace(&pass);
    (layers.spectral_us, layers.assemble_us) = (from_pass.spectral_us, from_pass.assemble_us);
    let all: Vec<&Cascade> = all.iter().collect();
    (layers.phi_nonconverged, layers.phi_rounds_mean) = phi_counts(&all, model.config());
    layers.tape_nodes = traced.tape_nodes;
    layers.coverage = traced.trace.root_total_ns() as f64 / 1e9 / fit_cpu;
    layers.overhead = 2.0 * traced.wall_s / (before.wall_s + plain.wall_s) - 1.0;
    layers.val_msle = f64::from(history.best().map_or(f32::NAN, |r| r.val_loss));
    pass.merge(traced.trace);
    crate::write_trace("train", &pass);

    report.attempted = (opts.epochs * train.len()) as u64;
    report.failed = failed;
    report.correct = failed == 0;
    layers.report(report);
}

/// What one replay of `fit` produced.
struct Replay {
    trace: Trace,
    /// `(train loss, validation MSLE)` per epoch.
    losses: Vec<(f32, f32)>,
    /// Tape length after each training example's forward pass and loss.
    tape_nodes: Vec<f64>,
    wall_s: f64,
}

/// Preprocesses `set` on `threads` workers, one span per layer call.
fn preprocess_traced(
    model: &CascnModel,
    set: &[Cascade],
    threads: usize,
    origin: Instant,
    enabled: bool,
    trace: &mut Trace,
) -> Vec<PreprocessedCascade> {
    let cfg = model.config();
    let out = parallel_map(threads, set, |_, c| {
        let mut rec = Recorder::new(origin, enabled);
        let sample = rec.span("core.preprocess", c.id, |rec| {
            let basis = rec.span("graph.spectral", c.id, |_| spectral_basis(c, WINDOW, cfg));
            rec.span("core.assemble", c.id, |_| {
                preprocess_with_basis(c, WINDOW, cfg, &basis)
            })
        });
        (rec, sample)
    });
    out.into_iter()
        .map(|(rec, sample)| {
            trace.absorb(rec);
            sample
        })
        .collect()
}

/// `CascnModel::fit` (Algorithm 2 with the trainer's defaults), spelled out
/// through public calls with spans around each layer.
fn replay(
    model: &CascnModel,
    train: &[Cascade],
    val: &[Cascade],
    opts: &TrainOpts,
    origin: Instant,
    enabled: bool,
) -> Replay {
    let t0 = Instant::now();
    let threads = opts.threads;
    let mut trace = Trace::default();
    let train_samples = preprocess_traced(model, train, threads, origin, enabled, &mut trace);
    let val_samples = preprocess_traced(model, val, threads, origin, enabled, &mut trace);
    let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();

    let mut store = model.params().clone();
    let mut opt = Adam::with_lr(opts.lr);
    let mut rng = StdRng::seed_from_u64(opts.shuffle_seed);
    let mut losses = Vec::new();
    let mut tape_nodes = Vec::new();
    for _ in 0..opts.epochs {
        let mut epoch_loss = 0.0f64;
        let mut counted = 0usize;
        for (b, batch) in shuffled_batches(train_samples.len(), opts.batch_size, &mut rng)
            .into_iter()
            .enumerate()
        {
            store.zero_grads();
            let view = &store;
            let per_example = parallel_map(threads, &batch, |_, &i| {
                let id = train[i].id;
                let mut rec = Recorder::new(origin, enabled);
                let out = rec.span("train.example", id, |rec| {
                    let mut tape = Tape::new();
                    let loss = rec.span("nn.forward", id, |_| {
                        let pred = model.forward(&mut tape, view, &train_samples[i]);
                        tape.squared_error(pred, train_samples[i].label_log)
                    });
                    let nodes = tape.len();
                    let loss_val = f64::from(tape.scalar(loss));
                    let grads = rec.span("autograd.backward", id, |_| {
                        tape.backward(loss);
                        tape.param_grads()
                    });
                    (loss_val, grads, nodes)
                });
                (rec, out)
            });
            let mut rec = Recorder::new(origin, enabled);
            let mut grads = Vec::with_capacity(per_example.len());
            for (r, (loss_val, g, nodes)) in per_example {
                trace.absorb(r);
                epoch_loss += loss_val;
                tape_nodes.push(nodes as f64);
                grads.push(g);
            }
            rec.span("autograd.optimizer", b as u64, |_| {
                for g in &grads {
                    store.merge_grads(g);
                }
                store.scale_grads(1.0 / batch.len() as f32);
                if opts.grad_clip > 0.0 {
                    store.clip_grad_norm(opts.grad_clip);
                }
                opt.set_lr(opts.lr);
                opt.step(&mut store);
            });
            trace.absorb(rec);
            counted += batch.len();
        }
        let view = &store;
        let preds = parallel_map(threads, &val_samples, |i, s| {
            let mut rec = Recorder::new(origin, enabled);
            let p = rec.span("nn.forward", val[i].id, |_| {
                let mut tape = Tape::new();
                let pred = model.forward(&mut tape, view, s);
                tape.scalar(pred)
            });
            (rec, p)
        });
        let preds: Vec<f32> = preds
            .into_iter()
            .map(|(rec, p)| {
                trace.absorb(rec);
                p
            })
            .collect();
        let val_loss = if val.is_empty() {
            f32::NAN
        } else {
            metrics::msle(&preds, &val_increments)
        };
        losses.push(((epoch_loss / counted as f64) as f32, val_loss));
    }
    Replay {
        trace,
        losses,
        tape_nodes,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}
