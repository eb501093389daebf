//! Canonical training-side performance record.
//!
//! `cargo run --release -p cascn-bench --bin record -- [--check] [--out PATH] [--baseline PATH]`
//!
//! Measures the CasCN hot path on a fixed synthetic workload — preprocess
//! throughput, one-epoch training time, forward-pass p50/p99 under the
//! default sparse Chebyshev kernel — plus the dense-kernel comparison
//! (speedup and max prediction delta) and the microscopic next-user
//! scores (Hit@10 / MAP after a short deterministic train), and writes
//! the result to `BENCH_train.json` at the invocation directory.
//!
//! `--check` additionally gates the run against the checked-in
//! `bench-baseline.json` (the perf analogue of the `lint-baseline.json`
//! ratchet): hard machine-independent gates on `sparse_speedup`,
//! `accuracy_delta`, next-user Hit@10 and the exact φ counts (no
//! non-converged stationary distribution, a cap on the rounds any one
//! takes), and generous ratio bands on the wall-clock numbers so
//! only catastrophic regressions (a kernel silently falling back to the
//! dense path, preprocessing re-materializing bases) trip CI rather than
//! scheduler noise.

use std::fmt::Write as _;
use std::time::Instant;

use cascn::{
    preprocess, CascnConfig, CascnModel, ChebKernel, PreprocessedCascade, TaskKind, TrainOpts,
};
use cascn_autograd::Tape;
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset, Split};
use cascn_graph::laplacian;
use cascn_nn::{metrics, ChebOperands};
use cascn_tensor::Matrix;

const WINDOW: f64 = 3600.0;
const FORWARD_TARGETS: usize = 24;
const FORWARD_REPS: usize = 5;
const CONV_REPS: usize = 200;

fn cfg(kernel: ChebKernel) -> CascnConfig {
    CascnConfig {
        k: 2,
        hidden: 8,
        mlp_hidden: 8,
        max_nodes: 40,
        max_steps: 10,
        seed: 9,
        cheb_kernel: kernel,
        ..CascnConfig::default()
    }
}

/// Forward-latency configuration: paper-scale hidden width and node
/// padding, because the kernel comparison is about the serving hot path on
/// realistic cascades — at toy sizes the dense n×n matmul is too small for
/// the sparse operator's savings to show.
fn fwd_cfg(kernel: ChebKernel) -> CascnConfig {
    CascnConfig {
        k: 2,
        hidden: 32,
        max_nodes: 100,
        max_steps: 20,
        seed: 9,
        cheb_kernel: kernel,
        ..CascnConfig::default()
    }
}

fn workload() -> Dataset {
    WeiboGenerator::new(WeiboConfig {
        num_cascades: 200,
        seed: 77,
        max_size: 200,
    })
    .generate()
    .filter_observed_size(WINDOW, 5, 80)
}

/// `q`-th percentile of an ascending-sorted list of µs samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-call forward latencies (µs, sorted ascending) over preprocessed
/// samples — the spectral basis is computed once up front, exactly like the
/// serving tier's cache, so the numbers isolate the convolution kernel
/// rather than the shared preprocessing pipeline.
fn forward_latencies(model: &CascnModel, samples: &[PreprocessedCascade]) -> Vec<u64> {
    // One untimed pass absorbs lazy one-time costs (allocator warm-up).
    for s in samples {
        std::hint::black_box(model.predict_log_sample(s));
    }
    let mut out = Vec::with_capacity(samples.len() * FORWARD_REPS);
    for _ in 0..FORWARD_REPS {
        for s in samples {
            let t0 = Instant::now();
            std::hint::black_box(model.predict_log_sample(s));
            out.push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
    out.sort_unstable();
    out
}

/// p50 latency (µs) of one Chebyshev conv-stack application on an `n×d`
/// feature block — the per-gate unit of work the sparse kernel optimizes.
/// Basis materialization / tape-constant entry happens outside the timed
/// region for the dense kernel, mirroring the serving tier's cached bases.
fn conv_stack_p50(sample: &PreprocessedCascade, dense: bool, d: usize) -> u64 {
    let n = sample.basis.num_nodes();
    let feat = Matrix::from_fn(n, d, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5);
    let bases = dense.then(|| sample.basis.materialize());
    let mut lat = Vec::with_capacity(CONV_REPS);
    for _ in 0..CONV_REPS {
        let mut tape = Tape::new();
        let x = tape.constant(feat.clone());
        let operands = match &bases {
            Some(b) => ChebOperands::dense(&mut tape, b),
            None => ChebOperands::sparse(&sample.basis),
        };
        let t0 = Instant::now();
        std::hint::black_box(operands.conv_stack(&mut tape, x));
        lat.push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }
    lat.sort_unstable();
    percentile(&lat, 0.5)
}

struct Record {
    preprocess_cascades_per_s: f64,
    epoch_seconds: f64,
    forward_p50_us: u64,
    forward_p99_us: u64,
    dense_forward_p50_us: u64,
    conv_sparse_p50_us: u64,
    conv_dense_p50_us: u64,
    sparse_speedup: f64,
    accuracy_delta: f64,
    next_user_hit10: f64,
    next_user_map: f64,
    phi_nonconverged: usize,
    phi_rounds_max: usize,
}

/// Exact φ counts over the observed graph of every workload cascade, under
/// the production stopping rule: how many stationary distributions ended
/// without the rule firing, and the most rounds any one took.
fn phi_counts(cascades: &[Cascade], alpha: f32) -> (usize, usize) {
    cascades.iter().fold((0, 0), |(nonconverged, rounds), c| {
        let p = laplacian::transition_matrix(&c.observe(WINDOW).graph(), alpha);
        let out = laplacian::stationary_distribution_checked(&p);
        (nonconverged + usize::from(!out.converged), rounds.max(out.iterations))
    })
}

fn measure() -> Record {
    let data = workload();
    let train: Vec<Cascade> = data.split(Split::Train).to_vec();
    let val: Vec<Cascade> = data.split(Split::Validation).to_vec();
    // Forward targets: the largest observed cascades, so the latency
    // percentiles describe the hot path near the padding cap instead of
    // trivial five-node graphs.
    let mut by_size: Vec<Cascade> = data.cascades.to_vec();
    by_size.sort_by_key(|c| std::cmp::Reverse(c.events.len()));
    let targets: Vec<Cascade> = by_size.into_iter().take(FORWARD_TARGETS).collect();
    eprintln!(
        "record: {} train / {} val / {} forward targets",
        train.len(),
        val.len(),
        targets.len()
    );

    // Preprocess throughput under the default sparse kernel.
    let sparse_cfg = cfg(ChebKernel::Sparse);
    let t0 = Instant::now();
    for c in data.cascades.iter() {
        std::hint::black_box(preprocess(c, WINDOW, &sparse_cfg));
    }
    let preprocess_cascades_per_s = data.cascades.len() as f64 / t0.elapsed().as_secs_f64();

    // Forward-pass latency: sparse (the shipped default) vs. dense (the
    // legacy materialized-basis kernel). Same seed, so the two models hold
    // bit-identical parameters and differ only in the convolution kernel.
    let sparse = CascnModel::new(fwd_cfg(ChebKernel::Sparse));
    let dense = CascnModel::new(fwd_cfg(ChebKernel::Dense));
    let sparse_samples: Vec<PreprocessedCascade> = targets
        .iter()
        .map(|c| preprocess(c, WINDOW, sparse.config()))
        .collect();
    let dense_samples: Vec<PreprocessedCascade> = targets
        .iter()
        .map(|c| preprocess(c, WINDOW, dense.config()))
        .collect();
    let sparse_lat = forward_latencies(&sparse, &sparse_samples);
    let dense_lat = forward_latencies(&dense, &dense_samples);
    let forward_p50_us = percentile(&sparse_lat, 0.5);
    let forward_p99_us = percentile(&sparse_lat, 0.99);
    let dense_forward_p50_us = percentile(&dense_lat, 0.5);

    // Conv-stage speedup on the largest (most representative) cascade:
    // this isolates the Chebyshev convolution the tentpole moved from
    // O(K·n²·d) to O(K·nnz·d); whole-forward latency above also carries the
    // kernel-independent gate matmuls, pooling, and MLP.
    let big = &sparse_samples[0];
    let conv_sparse_p50_us = conv_stack_p50(big, false, 32);
    let conv_dense_p50_us = conv_stack_p50(big, true, 32);
    let sparse_speedup = conv_dense_p50_us as f64 / conv_sparse_p50_us.max(1) as f64;

    let accuracy_delta = targets
        .iter()
        .map(|c| {
            f64::from((sparse.predict_log(c, WINDOW) - dense.predict_log(c, WINDOW)).abs())
        })
        .fold(0.0f64, f64::max);

    // One training epoch, serial, under the sparse kernel.
    let opts = TrainOpts {
        epochs: 1,
        patience: 1,
        threads: 1,
        ..TrainOpts::default()
    };
    let mut model = CascnModel::new(cfg(ChebKernel::Sparse));
    let t0 = Instant::now();
    model.fit(&train, &val, WINDOW, &opts);
    let epoch_seconds = t0.elapsed().as_secs_f64();

    // Microscopic task: a short next-user training run on its own small
    // workload, scored with Hit@10 / MAP over every prefix in the dataset
    // (train included — the gate is a functional floor on the masked
    // ranking path, not a generalization claim; at this scale the head
    // mostly learns the global popularity prior). Thread-invariant
    // training makes the scores exactly deterministic for the fixed seed,
    // so the baseline gates them as hard accuracy floors rather than
    // timing bands.
    let next_data = WeiboGenerator::new(WeiboConfig {
        num_cascades: 200,
        seed: 9,
        max_size: 200,
    })
    .generate()
    .filter_observed_size(WINDOW, 3, usize::MAX);
    let max_user = next_data
        .cascades
        .iter()
        .flat_map(|c| c.events.iter().map(|e| e.user))
        .max()
        .unwrap_or(0);
    let next_cfg = CascnConfig {
        k: 2,
        hidden: 4,
        mlp_hidden: 4,
        max_nodes: 10,
        max_steps: 5,
        seed: 9,
        cheb_kernel: ChebKernel::Sparse,
        task: TaskKind::NextUser,
        vocab_users: usize::try_from(max_user).unwrap_or(usize::MAX - 1) + 1,
        ..CascnConfig::default()
    };
    let next_opts = TrainOpts {
        epochs: 2,
        patience: 2,
        threads: 0,
        ..TrainOpts::default()
    };
    let next_train: Vec<Cascade> = next_data.split(Split::Train).to_vec();
    let next_val: Vec<Cascade> = next_data.split(Split::Validation).to_vec();
    let mut next_model = CascnModel::new(next_cfg);
    next_model.fit_next_user(&next_train, &next_val, WINDOW, &next_opts);
    let ranks = next_model.next_user_ranks(&next_data.cascades, WINDOW);
    let next_user_hit10 = f64::from(metrics::hit_at_k(&ranks, 10));
    let next_user_map = f64::from(metrics::mean_average_precision(&ranks));

    let (phi_nonconverged, phi_rounds_max) = phi_counts(&data.cascades, sparse_cfg.alpha);

    Record {
        preprocess_cascades_per_s,
        epoch_seconds,
        forward_p50_us,
        forward_p99_us,
        dense_forward_p50_us,
        conv_sparse_p50_us,
        conv_dense_p50_us,
        sparse_speedup,
        accuracy_delta,
        next_user_hit10,
        next_user_map,
        phi_nonconverged,
        phi_rounds_max,
    }
}

fn to_json(r: &Record) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"cascn-bench-train/v1\",");
    let _ = writeln!(
        out,
        "  \"train_config\": {{ \"k\": 2, \"hidden\": 8, \"max_nodes\": 40, \"max_steps\": 10 }},"
    );
    let _ = writeln!(
        out,
        "  \"forward_config\": {{ \"k\": 2, \"hidden\": 32, \"max_nodes\": 100, \"max_steps\": 20 }},"
    );
    let _ = writeln!(
        out,
        "  \"preprocess_cascades_per_s\": {:.1},",
        r.preprocess_cascades_per_s
    );
    let _ = writeln!(out, "  \"epoch_seconds\": {:.3},", r.epoch_seconds);
    let _ = writeln!(out, "  \"forward_p50_us\": {},", r.forward_p50_us);
    let _ = writeln!(out, "  \"forward_p99_us\": {},", r.forward_p99_us);
    let _ = writeln!(out, "  \"dense_forward_p50_us\": {},", r.dense_forward_p50_us);
    let _ = writeln!(out, "  \"conv_sparse_p50_us\": {},", r.conv_sparse_p50_us);
    let _ = writeln!(out, "  \"conv_dense_p50_us\": {},", r.conv_dense_p50_us);
    let _ = writeln!(out, "  \"sparse_speedup\": {:.2},", r.sparse_speedup);
    let _ = writeln!(out, "  \"accuracy_delta\": {:e},", r.accuracy_delta);
    let _ = writeln!(out, "  \"next_user_hit10\": {:.4},", r.next_user_hit10);
    let _ = writeln!(out, "  \"next_user_map\": {:.4},", r.next_user_map);
    let _ = writeln!(out, "  \"phi_nonconverged\": {},", r.phi_nonconverged);
    let _ = writeln!(out, "  \"phi_rounds_max\": {}", r.phi_rounds_max);
    let _ = writeln!(out, "}}");
    out
}

/// Pull `"key": <number>` out of a flat JSON object. Good enough for the
/// baseline file this tool itself maintains; no nesting, no strings.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn check(r: &Record, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let num = |key: &str| {
        json_number(&text, key).ok_or_else(|| format!("baseline is missing \"{key}\""))
    };
    let min_speedup = num("min_sparse_speedup")?;
    let max_delta = num("max_accuracy_delta")?;
    let band = num("timing_band")?;
    let mut failures = Vec::new();

    // Hard gates: machine-independent, so zero tolerance for drift.
    if r.sparse_speedup < min_speedup {
        failures.push(format!(
            "sparse_speedup {:.2} < required {min_speedup:.2} (sparse kernel no longer beats dense)",
            r.sparse_speedup
        ));
    }
    if r.accuracy_delta > max_delta {
        failures.push(format!(
            "accuracy_delta {:e} > allowed {max_delta:e} (kernels disagree beyond the gate)",
            r.accuracy_delta
        ));
    }
    let min_hit10 = num("min_next_user_hit10")?;
    if r.next_user_hit10 < min_hit10 {
        failures.push(format!(
            "next_user_hit10 {:.4} < required {min_hit10:.4} (masked ranking head regressed)",
            r.next_user_hit10
        ));
    }
    let max_nonconverged = num("max_phi_nonconverged")?;
    if r.phi_nonconverged as f64 > max_nonconverged {
        failures.push(format!(
            "phi_nonconverged {} > allowed {max_nonconverged} (φ stopping rule no longer fires)",
            r.phi_nonconverged
        ));
    }
    let max_rounds = num("max_phi_rounds")?;
    if r.phi_rounds_max as f64 > max_rounds {
        failures.push(format!(
            "phi_rounds_max {} > allowed {max_rounds} (φ iteration slowed down)",
            r.phi_rounds_max
        ));
    }

    // Soft gates: wall-clock within a generous ratio band of the recorded
    // baseline — catches order-of-magnitude regressions, tolerates noise.
    let banded = [
        ("forward_p50_us", r.forward_p50_us as f64),
        ("epoch_seconds", r.epoch_seconds),
        ("preprocess_cascades_per_s", r.preprocess_cascades_per_s),
    ];
    for (key, measured) in banded {
        let expect = num(key)?;
        if measured > expect * band || measured < expect / band {
            failures.push(format!(
                "{key} {measured:.1} outside [{:.1}, {:.1}] ({band}x band around baseline {expect:.1})",
                expect / band,
                expect * band
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn flag_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        if a.starts_with("--")
            && !matches!(a.as_str(), "--check" | "--out" | "--baseline")
        {
            eprintln!("unknown flag `{a}`");
            std::process::exit(2);
        }
    }
    let do_check = args.iter().any(|a| a == "--check");
    let out_path = flag_value(&args, "--out", "BENCH_train.json");
    let baseline_path = flag_value(&args, "--baseline", "bench-baseline.json");

    let record = measure();
    let json = to_json(&record);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("record: wrote {out_path}");

    if do_check {
        match check(&record, &baseline_path) {
            Ok(()) => eprintln!("record: --check OK against {baseline_path}"),
            Err(msg) => {
                eprintln!("record: --check FAILED against {baseline_path}:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
