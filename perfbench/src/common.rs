//! What the three workloads share: the model shape, the synthetic inputs,
//! the result line, and the per-layer metrics every traced run reports.

use std::fmt::Write as _;
use std::time::Instant;

use cascn::{CascnConfig, LaplacianKind, TaskKind};
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset};
use cascn_graph::{laplacian, DiGraph};

use crate::stats::{median, Summary};
use crate::trace::Trace;

/// Observation window (seconds) of every workload.
pub const WINDOW: f64 = 3600.0;
/// Observed-size filter: cascades with fewer or more adopters inside the
/// window are dropped from every input set.
pub const MIN_OBSERVED: usize = 5;
pub const MAX_OBSERVED: usize = 80;
/// Parameter-initialization seed: fixed, so the workload seed changes only
/// the inputs.
pub const MODEL_SEED: u64 = 9;
/// User-id space of the next-user head (the Weibo generator draws users
/// from 0..5000).
pub const VOCAB_USERS: usize = 5001;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The shared model shape: K=2, hidden 32, 100 padded nodes, 20 snapshots,
/// directed CasLaplacian.
pub fn model_config(task: TaskKind, threads: usize) -> CascnConfig {
    CascnConfig {
        k: 2,
        hidden: 32,
        max_nodes: 100,
        max_steps: 20,
        laplacian: LaplacianKind::Directed,
        task,
        vocab_users: if task == TaskKind::NextUser {
            VOCAB_USERS
        } else {
            0
        },
        seed: MODEL_SEED,
        threads,
        ..CascnConfig::default()
    }
}

/// Observed-size slots of one block of inputs: the 40 quantiles (at
/// (i + 0.5) / 40) of the Weibo generator's own observed-size distribution
/// within 5..=80, measured over 20 seeds of 2,000 cascades. Sizes up to 17
/// are exact, so the median input is the same size for every seed; larger
/// ones are narrow ranges, so rare sizes do not force huge draws.
#[rustfmt::skip]
const SLOTS: [(usize, usize); BLOCK] = [
    (5, 5), (5, 5), (5, 5), (5, 5), (5, 5), (6, 6), (6, 6), (6, 6), (6, 6), (7, 7),
    (7, 7), (7, 7), (8, 8), (8, 8), (8, 8), (9, 9), (9, 9), (10, 10), (10, 10), (11, 11),
    (11, 11), (12, 12), (12, 12), (13, 13), (14, 14), (15, 15), (16, 16), (17, 17), (18, 19), (20, 20),
    (21, 22), (23, 24), (25, 26), (27, 29), (30, 33), (34, 38), (39, 44), (45, 52), (53, 64), (65, 80),
];
/// Inputs per block of the fixed observed-size mix. Fixing the mix keeps
/// one seed's inputs from being much heavier than another's, which would
/// otherwise dominate run-to-run spread: a 70-node cascade costs ~50× a
/// 6-node one.
pub const BLOCK: usize = 40;

/// `count` distinct Weibo-synthetic cascades for `seed`, each with
/// [`MIN_OBSERVED`]..=[`MAX_OBSERVED`] adopters inside [`WINDOW`], in
/// blocks of [`BLOCK`] holding one cascade per slot of [`SLOTS`]. Slots are
/// visited in a stride-17 order so small and large cascades interleave;
/// within a slot, cascades keep the generator's order.
pub fn cascades(seed: u64, count: usize) -> Vec<Cascade> {
    let order: Vec<(usize, usize)> = (0..BLOCK).map(|j| SLOTS[j * 17 % BLOCK]).collect();
    let mut raw = count * 4 + 400;
    loop {
        let data: Dataset = WeiboGenerator::new(WeiboConfig {
            num_cascades: raw,
            seed,
            max_size: 200,
        })
        .generate()
        .filter_observed_size(WINDOW, MIN_OBSERVED, MAX_OBSERVED);
        // Slot ranges are disjoint, so one scan position per range (keyed
        // by its lower bound) never picks a cascade twice.
        let mut next = vec![0usize; MAX_OBSERVED + 1];
        let mut picked = Vec::with_capacity(count);
        for &(lo, hi) in order.iter().cycle().take(count) {
            let found = (next[lo]..data.cascades.len())
                .find(|&i| (lo..=hi).contains(&data.cascades[i].observed_size(WINDOW)));
            let Some(i) = found else { break };
            next[lo] = i + 1;
            picked.push(data.cascades[i].clone());
        }
        if picked.len() == count {
            return picked;
        }
        raw *= 2;
    }
}

/// A cascade in the request-body line format.
pub fn cascade_text(c: &Cascade) -> String {
    let mut out = format!("cascade {} {}\n", c.id, c.start_time);
    for e in &c.events {
        match e.parent {
            Some(p) => writeln!(out, "event {} {} {}", e.user, p, e.time),
            None => writeln!(out, "event {} - {}", e.user, e.time),
        }
        .expect("writing to a String cannot fail");
    }
    out
}

/// The graph the spectral layer sees: the first `min(observed,
/// max_nodes)` adopters and the edges among them (mirrors the model's
/// input pipeline, so the counting pass below runs on identical graphs).
pub fn observed_graph(c: &Cascade, cfg: &CascnConfig) -> DiGraph {
    let observed = c.observe(WINDOW);
    let n = observed.num_nodes().min(cfg.max_nodes);
    let mut g = DiGraph::new(n);
    for (i, e) in observed.events().iter().enumerate().take(n).skip(1) {
        if let Some(p) = e.parent.filter(|&p| p < n) {
            g.add_edge(p, i, 1.0);
        }
    }
    g
}

/// Exact φ counts over the given cascades: how many power iterations ran
/// the full round cap without converging, and the mean rounds. Untimed.
pub fn phi_counts(cascades: &[&Cascade], cfg: &CascnConfig) -> (f64, f64) {
    if cascades.is_empty() {
        return (0.0, 0.0);
    }
    let outcomes: Vec<(bool, usize)> = cascn::parallel_map(0, cascades, |_, c| {
        let p = laplacian::transition_matrix(&observed_graph(c, cfg), cfg.alpha);
        let out = laplacian::stationary_distribution_checked(&p);
        (out.converged, out.iterations)
    });
    let nonconverged = outcomes.iter().filter(|(ok, _)| !ok).count();
    let rounds: usize = outcomes.iter().map(|(_, r)| r).sum();
    (nonconverged as f64, rounds as f64 / outcomes.len() as f64)
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median set-up time in seconds. `teardown` receives every earlier
/// result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS is at least 1"), median(&secs))
}

/// The final result line of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, or training examples).
    pub attempted: u64,
    /// Operations that failed or answered wrong bytes.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints every metric to stderr, one per line, for a human reader.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<28} {value:>14.4} {unit}");
        }
    }

    /// The JSON object the last line of stdout carries.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer numbers a traced run gathers. Layers a workload does not
/// exercise stay at zero, so every workload reports the same names.
#[derive(Debug, Default)]
pub struct Layers {
    pub spectral_us: Vec<f64>,
    pub phi_nonconverged: f64,
    pub phi_rounds_mean: f64,
    pub assemble_us: Vec<f64>,
    pub forward_us: Vec<f64>,
    pub tape_nodes: Vec<f64>,
    pub next_us: Vec<f64>,
    pub backward_us: Vec<f64>,
    pub optimizer_us: Vec<f64>,
    pub observe_us: Vec<f64>,
    pub live_warm_fallbacks: f64,
    pub parse_us: Vec<f64>,
    pub cache_hit_rate: f64,
    pub batch_size_mean: f64,
    pub shed: f64,
    pub lag_ms_p99: f64,
    /// Client-side latency of every request at the nominal rate (ms).
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Client-side latency of `/observe` and `/predict_next` at the nominal
    /// rate (ms), split out of `serve_live`'s mixed p50/p99.
    pub observe_ms: Vec<f64>,
    pub next_ms: Vec<f64>,
    pub coverage: f64,
    pub overhead: f64,
    pub val_msle: f64,
}

impl Layers {
    /// Pulls the span-derived samples out of a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        Self {
            spectral_us: trace.durations_us("graph.spectral"),
            assemble_us: trace.durations_us("core.assemble"),
            forward_us: trace.durations_us("nn.forward"),
            next_us: trace.durations_us("nn.next"),
            backward_us: trace.durations_us("autograd.backward"),
            optimizer_us: trace.durations_us("autograd.optimizer"),
            observe_us: trace.durations_us("serve.observe"),
            parse_us: trace.durations_us("cascades.parse"),
            ..Self::default()
        }
    }

    /// Writes every per-layer metric into `report`.
    pub fn report(&self, report: &mut Report) {
        let s = Summary::of;
        let spectral = s(&self.spectral_us);
        report.metric("graph.spectral_us_p50", spectral.p50, "us");
        report.metric("graph.spectral_us_p99", spectral.tail, "us");
        report.metric(
            "graph.spectral_ms_total",
            self.spectral_us.iter().fold(0.0, |a, b| a + b) / 1e3,
            "ms",
        );
        report.metric("graph.phi_nonconverged", self.phi_nonconverged, "count");
        report.metric("graph.phi_rounds_mean", self.phi_rounds_mean, "rounds");
        report.metric("core.assemble_us_p50", s(&self.assemble_us).p50, "us");
        let forward = s(&self.forward_us);
        report.metric("nn.forward_us_p50", forward.p50, "us");
        report.metric("nn.forward_us_p99", forward.tail, "us");
        report.metric(
            "autograd.tape_nodes_mean",
            s(&self.tape_nodes).mean,
            "nodes",
        );
        report.metric("nn.next_us_p50", s(&self.next_us).p50, "us");
        report.metric("autograd.backward_us_p50", s(&self.backward_us).p50, "us");
        report.metric(
            "autograd.optimizer_us_mean",
            s(&self.optimizer_us).mean,
            "us",
        );
        let observe = s(&self.observe_us);
        report.metric("serve.observe_us_p50", observe.p50, "us");
        report.metric("serve.observe_us_p99", observe.tail, "us");
        report.metric(
            "serve.live_warm_fallbacks",
            self.live_warm_fallbacks,
            "count",
        );
        report.metric("cascades.parse_us_p50", s(&self.parse_us).p50, "us");
        report.metric("serve.cache_hit_rate", self.cache_hit_rate, "ratio");
        report.metric("serve.batch_size_mean", self.batch_size_mean, "cascades");
        report.metric("serve.shed", self.shed, "count");
        report.metric("bench.lag_ms_p99", self.lag_ms_p99, "ms");
        report.metric("bench.p50_ms", self.p50_ms, "ms");
        report.metric("bench.tail_ms", self.tail_ms, "ms");
        let (observe_ms, next_ms) = (s(&self.observe_ms), s(&self.next_ms));
        report.metric("bench.observe_ms_p50", observe_ms.p50, "ms");
        report.metric("bench.observe_ms_p99", observe_ms.tail, "ms");
        report.metric("bench.next_ms_p50", next_ms.p50, "ms");
        report.metric("bench.next_ms_p99", next_ms.tail, "ms");
        report.metric("bench.peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
        report.metric("trace.coverage", self.coverage, "ratio");
        report.metric("trace.overhead", self.overhead, "ratio");
        report.metric("quality.val_msle", self.val_msle, "msle");
        for (name, samples) in [
            ("graph.spectral", &self.spectral_us),
            ("nn.forward", &self.forward_us),
            ("serve.observe", &self.observe_us),
        ] {
            let sm = s(samples);
            if sm.n > 0 && sm.tail_q < 0.99 {
                eprintln!(
                    "note: {name} has {} samples; its p99 metric reports {}",
                    sm.n,
                    sm.tail_label()
                );
            }
        }
    }
}
