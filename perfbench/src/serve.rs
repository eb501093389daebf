//! `serve_cold` and `serve_live`: open-loop HTTP traffic against an
//! in-process `cascn_serve::Server`.
//!
//! * `serve_cold` posts `/predict` with one cascade the run has not sent
//!   before, so the spectral cache never hits and every request pays the
//!   cold spectral basis.
//! * `serve_live` streams cascades into the server: per live cascade,
//!   `/observe` appends its next event (the first append registers it with
//!   its first five events), and every fourth request is a
//!   `/predict_next?k=10` on the cascade's current content, which should hit
//!   the basis the append left in the cache.
//!
//! Each run offers a ladder of Poisson rates after a short warm-up. The
//! latency metrics come from the nominal rate; `throughput_per_s` is the
//! completed rate at the highest ladder rate whose tail latency met the
//! workload's limit, with no failed or wrong response and no growing
//! generator backlog. Every served body is compared with the library call
//! on the same content afterwards.
//!
//! The traced run offers the warm-up and the nominal rate only, then
//! replays the nominal step's requests through the layers' public
//! functions (parser, live registry, spectral cache, spectral basis,
//! snapshot assembly, forward pass) with a span around each call.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cascn::{
    parallel_map, preprocess_with_basis, spectral_basis, CascnConfig, CascnModel, TaskKind,
};
use cascn_autograd::Tape;
use cascn_cascades::stream::{parse_cascades, parse_observe_body, StreamLimits};
use cascn_cascades::Cascade;
use cascn_serve::{
    BasisCache, CacheStats, LiveRegistry, ModelRegistry, ServeMetrics, Server, ServerConfig,
};

use crate::common::{
    cascade_text, cascades, model_config, phi_counts, timed_setup, Layers, Report, MIN_OBSERVED,
    WINDOW,
};
use crate::load::{self, Outcome, Planned, Rng};
use crate::stats::Summary;
use crate::sys;
use crate::trace::{Recorder, Trace};

/// Connection workers of the server (pinned; each holds one keep-alive
/// connection for its lifetime, so it bounds the generator's pool).
const WORKERS: usize = 16;
/// Intra-batch fan-out of the server (pinned).
const SERVER_THREADS: usize = 2;
/// Keep-alive connections per generator thread.
const CONNS_PER_THREAD: usize = 6;
/// Live cascades streamed at once by `serve_live`.
const LANES: usize = 48;
/// Live-registry capacity: above the cascades a run ever registers, so no
/// live cascade is evicted.
const LIVE_CAPACITY: usize = 4096;
/// Spectral-cache capacity.
const CACHE_CAPACITY: usize = 1024;
/// Ranked users per `/predict_next`.
const TOP_K: usize = 10;
/// Warm-up before the ladder: this long at half the nominal rate, checked
/// but not measured.
const WARMUP_S: f64 = 1.0;

/// The two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Live,
}

/// Offered rates (requests/s) and the share of `--seconds` each runs for.
struct Ladder {
    rates: [f64; 3],
    shares: [f64; 3],
    /// Index of the nominal rate.
    nominal: usize,
    /// Tail-latency limit of a met step (ms).
    limit_ms: f64,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "serve_cold",
            Workload::Live => "serve_live",
        }
    }

    fn ladder(self) -> Ladder {
        match self {
            Workload::Cold => Ladder {
                rates: [20.0, 30.0, 45.0],
                shares: [0.1, 0.7, 0.2],
                nominal: 1,
                limit_ms: 250.0,
            },
            Workload::Live => Ladder {
                rates: [60.0, 120.0, 150.0],
                shares: [0.1, 0.7, 0.2],
                nominal: 1,
                limit_ms: 100.0,
            },
        }
    }

    fn task(self) -> TaskKind {
        match self {
            Workload::Cold => TaskKind::SizeRegression,
            Workload::Live => TaskKind::NextUser,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Predict,
    PredictNext,
    Observe,
}

/// One planned request and what it carries.
struct Request {
    planned: Planned,
    kind: Kind,
    /// 0 = warm-up, then one per offered rate.
    step: usize,
}

/// A running server and the handles the benchmark reads its counters
/// through.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    metrics: Arc<ServeMetrics>,
    cache: Arc<BasisCache>,
    live: Arc<LiveRegistry>,
    checkpoint: PathBuf,
}

fn start_server(model: &CascnModel, checkpoint: PathBuf) -> std::io::Result<Running> {
    model
        .export_checkpoint()
        .save(&checkpoint)
        .map_err(std::io::Error::other)?;
    let registry =
        ModelRegistry::open(&checkpoint, *model.config()).map_err(std::io::Error::other)?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        threads: SERVER_THREADS,
        cache_capacity: CACHE_CAPACITY,
        default_window: WINDOW,
        read_timeout: Some(Duration::from_secs(60)),
        live_capacity: LIVE_CAPACITY,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, registry)?;
    let (addr, metrics, cache, live) = (
        server.local_addr(),
        Arc::clone(&server.metrics),
        Arc::clone(&server.cache),
        Arc::clone(&server.live),
    );
    let thread = std::thread::spawn(move || server.run());
    let running = Running {
        addr,
        thread,
        metrics,
        cache,
        live,
        checkpoint,
    };
    let (status, _) = request_once(addr, "GET", "/healthz")?;
    if status != 200 {
        return Err(std::io::Error::other(format!("healthz answered {status}")));
    }
    Ok(running)
}

fn stop_server(r: Running) -> std::io::Result<()> {
    let stopped = request_once(r.addr, "POST", "/shutdown");
    let joined = r
        .thread
        .join()
        .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")));
    let _ = std::fs::remove_file(&r.checkpoint);
    stopped.and(joined)
}

/// One request on a fresh connection (health check and shutdown).
fn request_once(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    write!(s, "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")?;
    let mut text = String::new();
    s.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Ok((
        status,
        text.split_once("\r\n\r\n")
            .map_or(String::new(), |(_, b)| b.to_string()),
    ))
}

/// Builds every step's requests from the workload seed. `steps` lists
/// `(rate, count)` per step, warm-up first.
fn plan(workload: Workload, seed: u64, steps: &[(f64, usize)]) -> Vec<Request> {
    let needed: usize = steps.iter().map(|&(_, n)| n).sum();
    let mut rng = Rng::new(seed ^ 0x005E_ED0F_10AD);
    let mut out = Vec::with_capacity(needed);
    match workload {
        Workload::Cold => {
            let pool = cascades(seed, needed);
            let mut fresh = pool.iter();
            for (step, &(rate, count)) in steps.iter().enumerate() {
                for due_s in load::poisson_schedule(rate, count, &mut rng) {
                    let c = fresh.next().expect("one fresh cascade per request");
                    let planned = Planned {
                        due_s,
                        lane: None,
                        target: format!("/predict?window={WINDOW}"),
                        body: cascade_text(c),
                    };
                    out.push(Request {
                        planned,
                        kind: Kind::Predict,
                        step,
                    });
                }
            }
        }
        Workload::Live => {
            // Every source yields at least two requests: its first append
            // and a read.
            let sources: Vec<Cascade> = cascades(seed, needed / 2 + LANES)
                .iter()
                .map(|c| {
                    Cascade::new(
                        c.id,
                        c.start_time,
                        c.events[..c.observed_size(WINDOW)].to_vec(),
                    )
                })
                .collect();
            let available = sources.len();
            let mut sources = sources.into_iter();
            let mut lanes: Vec<LiveLane> = (0..LANES).map(|_| LiveLane::default()).collect();
            let mut n = 0usize;
            for (step, &(rate, count)) in steps.iter().enumerate() {
                for due_s in load::poisson_schedule(rate, count, &mut rng) {
                    let lane = n % LANES;
                    n += 1;
                    let (kind, target, body) = lanes[lane].next(&mut sources);
                    out.push(Request {
                        planned: Planned {
                            due_s,
                            lane: Some(lane),
                            target,
                            body,
                        },
                        kind,
                        step,
                    });
                }
            }
            let registered = available - sources.len();
            assert!(registered < LIVE_CAPACITY, "serve_live would register {registered} cascades, more than the live registry holds");
        }
    }
    out
}

/// One live cascade slot of `serve_live`: appends its source's events in
/// order, reading after every three appends, and moves to a fresh source
/// once the current one is fully appended and read.
#[derive(Default)]
struct LiveLane {
    source: Option<Cascade>,
    /// Events appended so far.
    appended: usize,
    /// Requests sent for the current source.
    sent: usize,
    last_was_read: bool,
}

impl LiveLane {
    fn next(&mut self, sources: &mut impl Iterator<Item = Cascade>) -> (Kind, String, String) {
        let exhausted = self
            .source
            .as_ref()
            .is_some_and(|c| self.appended == c.events.len());
        if self.source.is_none() || (exhausted && self.last_was_read) {
            *self = LiveLane {
                source: Some(
                    sources
                        .next()
                        .expect("serve_live: ran out of source cascades"),
                ),
                ..LiveLane::default()
            };
        }
        let c = self.source.as_ref().expect("set above");
        let exhausted = self.appended == c.events.len();
        self.sent += 1;
        if exhausted || self.sent.is_multiple_of(4) {
            self.last_was_read = true;
            let prefix = Cascade::new(c.id, c.start_time, c.events[..self.appended].to_vec());
            return (
                Kind::PredictNext,
                format!("/predict_next?window={WINDOW}&k={TOP_K}"),
                cascade_text(&prefix),
            );
        }
        self.last_was_read = false;
        let from = self.appended;
        self.appended = if from == 0 { MIN_OBSERVED } else { from + 1 };
        let mut body = format!("cascade {} {}\n", c.id, c.start_time);
        for line in cascade_text(c)
            .lines()
            .skip(1 + from)
            .take(self.appended - from)
        {
            body.push_str(line);
            body.push('\n');
        }
        (Kind::Observe, format!("/observe?window={WINDOW}"), body)
    }
}

/// The library's answer to each request, computed the way the server does:
/// parse, live registry, spectral cache, spectral basis on a miss, snapshot
/// assembly, forward pass. Spans are recorded for requests whose step is
/// `traced_step`.
struct Replay {
    expected: Vec<String>,
    trace: Trace,
    /// Cascades whose spectral basis was computed cold in the traced step.
    cold: Vec<Cascade>,
    tape_nodes: Vec<f64>,
    /// Wall time spent on the traced step's requests.
    traced_wall_s: f64,
}

fn replay(
    model: &CascnModel,
    reqs: &[&Request],
    traced_step: Option<usize>,
    enabled: bool,
    origin: Instant,
) -> Replay {
    let cfg = model.config();
    let limits = StreamLimits::default();
    let cache = BasisCache::new(CACHE_CAPACITY);
    let live = LiveRegistry::new(LIVE_CAPACITY);
    let mut out = Replay {
        expected: Vec::with_capacity(reqs.len()),
        trace: Trace::default(),
        cold: Vec::new(),
        tape_nodes: Vec::new(),
        traced_wall_s: 0.0,
    };
    for (i, r) in reqs.iter().enumerate() {
        let in_step = traced_step == Some(r.step);
        let mut rec = Recorder::new(origin, enabled && in_step);
        let id = i as u64;
        let t0 = Instant::now();
        let body = rec.span("request", id, |rec| match r.kind {
            Kind::Observe => {
                let parsed = rec
                    .span("cascades.parse", id, |_| {
                        parse_observe_body(&r.planned.body, limits)
                    })
                    .expect("planned observe bodies parse");
                let o = rec
                    .span("serve.observe", id, |_| live.observe(&parsed, WINDOW, cfg))
                    .expect("planned appends are valid");
                let reply = format!(
                    "observed {} size {} nodes {} appended {} refreshed {} created {}\n",
                    parsed.id,
                    o.cascade.final_size(),
                    o.num_nodes,
                    o.appended,
                    o.refreshed,
                    o.created
                );
                rec.span("serve.cache_put", id, |_| {
                    cache.put(&o.cascade, o.window, o.basis)
                });
                reply
            }
            Kind::Predict | Kind::PredictNext => {
                let parsed = rec
                    .span("cascades.parse", id, |_| {
                        parse_cascades(&r.planned.body, limits)
                    })
                    .expect("planned bodies parse");
                let mut reply = String::new();
                for c in &parsed {
                    let basis = rec.span("serve.cache", id, |rec| {
                        cache.get_or_insert_with(c, WINDOW, || {
                            if in_step {
                                out.cold.push(c.clone());
                            }
                            rec.span("graph.spectral", id, |_| spectral_basis(c, WINDOW, cfg))
                        })
                    });
                    let sample = rec.span("core.assemble", id, |_| {
                        preprocess_with_basis(c, WINDOW, cfg, &basis)
                    });
                    if r.kind == Kind::Predict {
                        let p = rec.span("nn.forward", id, |_| {
                            let mut tape = Tape::new();
                            let pred = model.forward(&mut tape, model.params(), &sample);
                            if in_step {
                                out.tape_nodes.push(tape.len() as f64);
                            }
                            tape.scalar(pred)
                        });
                        reply.push_str(&format!("prediction {} {p:?}\n", c.id));
                    } else {
                        let observed: Vec<u64> = c.observe(WINDOW).users();
                        let ranked = rec.span("nn.next", id, |_| {
                            model.predict_next_sample(&sample, &observed, TOP_K)
                        });
                        reply.push_str(&next_line(c.id, &ranked));
                    }
                }
                reply
            }
        });
        if in_step {
            out.traced_wall_s += t0.elapsed().as_secs_f64();
        }
        out.trace.absorb(rec);
        out.expected.push(body);
    }
    out
}

/// The `/predict_next` line for one cascade.
fn next_line(id: u64, ranked: &[(u64, f32)]) -> String {
    let mut line = format!("next {id}");
    for (user, p) in ranked {
        line.push_str(&format!(" {user} {p:?}"));
    }
    line.push('\n');
    line
}

/// Runs the workload and returns its result line.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Report> {
    let name = workload.name();
    let ladder = workload.ladder();
    let cfg: CascnConfig = model_config(workload.task(), SERVER_THREADS);
    let mut steps = vec![(
        ladder.rates[ladder.nominal] / 2.0,
        (ladder.rates[ladder.nominal] / 2.0 * WARMUP_S).round() as usize,
    )];
    let measured: Vec<usize> = if traced {
        vec![ladder.nominal]
    } else {
        (0..ladder.rates.len()).collect()
    };
    for &i in &measured {
        steps.push((
            ladder.rates[i],
            (ladder.rates[i] * ladder.shares[i] * seconds)
                .round()
                .max(1.0) as usize,
        ));
    }
    let nominal_step = 1 + measured
        .iter()
        .position(|&i| i == ladder.nominal)
        .expect("nominal rate is measured");

    let out_dir = crate::out_dir()?;
    let checkpoint = |rep: usize| out_dir.join(format!("{name}-{}-{rep}.ckpt", std::process::id()));
    let mut rep = 0;
    let (setup, setup_s) = timed_setup(
        || {
            rep += 1;
            let model = CascnModel::new(cfg);
            let reqs = plan(workload, seed, &steps);
            start_server(&model, checkpoint(rep)).map(|srv| (model, reqs, srv))
        },
        |prev| {
            if let Ok((_, _, srv)) = prev {
                let _ = stop_server(srv);
            }
        },
    );
    let (model, reqs, srv) = setup?;
    eprintln!(
        "{name}: seed {seed}, {} requests over {} steps, rates {:?}, nominal {} req/s, limit {} ms",
        reqs.len(),
        steps.len(),
        steps.iter().map(|s| s.0).collect::<Vec<_>>(),
        ladder.rates[ladder.nominal],
        ladder.limit_ms
    );

    let gen_threads = sys::nproc().min(2);
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(reqs.len());
    let mut nominal = NominalStep::default();
    for step in 0..steps.len() {
        let idx: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].step == step).collect();
        let planned: Vec<Planned> = idx.iter().map(|&i| reqs[i].planned.clone()).collect();
        let before = Counters::read(&srv);
        let cpu0 = sys::process_cpu();
        let run = load::run_step(srv.addr, &planned, gen_threads, CONNS_PER_THREAD)?;
        if step == nominal_step {
            nominal.server_cpu_s =
                ((sys::process_cpu() - cpu0).saturating_sub(run.generator_cpu)).as_secs_f64();
            nominal.counters = Some(Counters::read(&srv).minus(&before));
        }
        outcomes.extend(run.outcomes);
        eprintln!(
            "{name}: step {step} done, peak RSS {:.1} MB",
            sys::peak_rss_mb()
        );
    }
    let live_fallbacks = srv.live.stats().warm_fallbacks;
    let cache_total = srv.cache.stats();
    stop_server(srv)?;

    // Output checks: every served body against the library.
    let origin = Instant::now();
    let mut report = Report::default();
    let all: Vec<&Request> = reqs.iter().collect();
    let (expected, traced_replay) = if traced {
        // Untraced replays on both sides of the traced one, so drift in
        // the host's speed does not read as tracing overhead.
        let before = replay(&model, &all, Some(nominal_step), false, origin);
        let t = replay(&model, &all, Some(nominal_step), true, origin);
        let plain = replay(&model, &all, Some(nominal_step), false, origin);
        let mut layers = Layers::from_trace(&t.trace);
        layers.overhead =
            2.0 * t.traced_wall_s / (before.traced_wall_s + plain.traced_wall_s) - 1.0;
        (plain.expected, Some((t, layers)))
    } else {
        (expected_bodies(&model, workload, &reqs), None)
    };
    let mut failed_by_step = vec![0usize; steps.len()];
    let mut cold_reads = 0usize;
    for (i, (r, o)) in reqs.iter().zip(&outcomes).enumerate() {
        let ok = o.status == 200
            && (o.body == expected[i]
                || (r.kind == Kind::PredictNext && {
                    // A read that missed the append-seeded basis is
                    // answered from a cold basis: the plain library call.
                    let c = parse_cascades(&r.planned.body, StreamLimits::default())
                        .expect("planned bodies parse");
                    let cold =
                        o.body == next_line(c[0].id, &model.predict_next(&c[0], WINDOW, TOP_K));
                    cold_reads += usize::from(cold);
                    cold
                }));
        if !ok {
            if failed_by_step[r.step] < 3 {
                eprintln!(
                    "{name}: request {i} (step {}) answered {} {:?}, expected {:?}",
                    r.step, o.status, o.body, expected[i]
                );
            }
            failed_by_step[r.step] += 1;
        }
    }
    let failed: usize = failed_by_step.iter().sum();
    let mut valid = true;
    if workload == Workload::Cold && (cache_total.hits > 0 || cache_total.warm_hits > 0) {
        eprintln!(
            "{name}: the spectral cache hit {} times; every request must be cold",
            cache_total.hits
        );
        valid = false;
    }
    let reads = reqs.iter().filter(|r| r.kind == Kind::PredictNext).count();
    if workload == Workload::Live {
        eprintln!(
            "{name}: {cold_reads} of {reads} reads answered from a cold basis; server cache {} hits / {} misses",
            cache_total.hits, cache_total.misses
        );
    }
    report.attempted = reqs.len() as u64;
    report.failed = failed as u64;
    report.correct = failed == 0 && valid;

    // Per-step latency, lag and met/not-met.
    let mut max_rps = 0.0;
    let mut nominal_lat = Summary::of(&[]);
    for (step, &(rate, _)) in steps.iter().enumerate() {
        let sel: Vec<Outcome> = reqs
            .iter()
            .zip(&outcomes)
            .filter(|(r, _)| r.step == step)
            .map(|(_, o)| o.clone())
            .collect();
        let lat = Summary::of(&sel.iter().map(Outcome::latency_ms).collect::<Vec<_>>());
        let lag = Summary::of(&sel.iter().map(Outcome::lag_ms).collect::<Vec<_>>());
        let bounded = load::lag_bounded(&sel, ladder.limit_ms);
        let met = step > 0 && failed_by_step[step] == 0 && lat.tail <= ladder.limit_ms && bounded;
        let achieved = load::achieved_rps(&sel);
        eprintln!(
            "{name}: step {step} offered {rate:.0}/s sent {} ok {} failed {} | achieved {achieved:.1}/s p50 {:.2} ms {} {:.2} ms | lag {} {:.2} ms bounded {bounded} | met {met}",
            sel.len(),
            sel.len() - failed_by_step[step],
            failed_by_step[step],
            lat.p50,
            lat.tail_label(),
            lat.tail,
            lag.tail_label(),
            lag.tail
        );
        if met {
            max_rps = achieved;
        }
        if step == nominal_step {
            nominal_lat = lat;
            nominal.lag_tail_ms = lag.tail;
        }
    }
    let nominal_requests = reqs.iter().filter(|r| r.step == nominal_step).count();
    let cpu_ms_per_op = nominal.server_cpu_s * 1e3 / nominal_requests as f64;
    eprintln!(
        "{name}: nominal rate: {} requests, server CPU {:.3} ms per request, latency p50 {:.2} ms {} {:.2} ms",
        nominal_lat.n,
        cpu_ms_per_op,
        nominal_lat.p50,
        nominal_lat.tail_label(),
        nominal_lat.tail
    );

    match traced_replay {
        Some((t, mut layers)) => {
            let cold: Vec<&Cascade> = t.cold.iter().collect();
            (layers.phi_nonconverged, layers.phi_rounds_mean) = phi_counts(&cold, model.config());
            layers.tape_nodes = t.tape_nodes;
            let c = nominal.counters.as_ref().expect("the nominal step ran");
            layers.cache_hit_rate = c.cache.hit_rate();
            layers.batch_size_mean = if c.batches > 0 {
                c.predictions as f64 / c.batches as f64
            } else {
                0.0
            };
            layers.shed = c.shed as f64;
            layers.live_warm_fallbacks = live_fallbacks as f64;
            layers.lag_ms_p99 = nominal.lag_tail_ms;
            (layers.p50_ms, layers.tail_ms) = (nominal_lat.p50, nominal_lat.tail);
            for (r, o) in reqs
                .iter()
                .zip(&outcomes)
                .filter(|(r, _)| r.step == nominal_step)
            {
                match r.kind {
                    Kind::Observe => layers.observe_ms.push(o.latency_ms()),
                    Kind::PredictNext => layers.next_ms.push(o.latency_ms()),
                    Kind::Predict => {}
                }
            }
            layers.coverage = t.trace.root_total_ns() as f64 / 1e9 / nominal.server_cpu_s;
            crate::write_trace(name, &t.trace);
            layers.report(&mut report);
        }
        None => {
            report.metric("setup_s", setup_s, "s");
            report.metric("throughput_per_s", max_rps, "1/s");
            report.metric("cpu_ms_per_op", cpu_ms_per_op, "ms");
        }
    }
    Ok(report)
}

/// The library's bytes for every request, fanned out over the cores:
/// `predict_log` for `/predict`; for `serve_live`, each lane's appends and
/// reads replayed in order.
fn expected_bodies(model: &CascnModel, workload: Workload, reqs: &[Request]) -> Vec<String> {
    let threads = sys::nproc();
    match workload {
        Workload::Cold => parallel_map(threads, reqs, |_, r| {
            let cs = parse_cascades(&r.planned.body, StreamLimits::default())
                .expect("planned bodies parse");
            cs.iter()
                .map(|c| format!("prediction {} {:?}\n", c.id, model.predict_log(c, WINDOW)))
                .collect()
        }),
        Workload::Live => {
            let lanes: Vec<usize> = (0..threads).collect();
            let per_lane = parallel_map(threads, &lanes, |_, &t| {
                let mine: Vec<(usize, &Request)> = reqs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.planned.lane.unwrap_or(0) % threads == t)
                    .collect();
                let refs: Vec<&Request> = mine.iter().map(|(_, r)| *r).collect();
                let out = replay(model, &refs, None, false, Instant::now());
                mine.into_iter()
                    .map(|(i, _)| i)
                    .zip(out.expected)
                    .collect::<Vec<_>>()
            });
            let mut expected = vec![String::new(); reqs.len()];
            for (i, body) in per_lane.into_iter().flatten() {
                expected[i] = body;
            }
            expected
        }
    }
}

/// Server counters read around the nominal step.
#[derive(Debug)]
struct Counters {
    cache: CacheStats,
    predictions: u64,
    batches: u64,
    shed: u64,
}

impl Counters {
    fn read(srv: &Running) -> Self {
        use std::sync::atomic::Ordering::Relaxed;
        Self {
            cache: srv.cache.stats(),
            predictions: srv.metrics.predictions.load(Relaxed),
            batches: srv.metrics.batch_size.total(),
            shed: srv.metrics.requests_shed.load(Relaxed),
        }
    }

    fn minus(&self, before: &Self) -> Self {
        Self {
            cache: CacheStats {
                hits: self.cache.hits - before.cache.hits,
                misses: self.cache.misses - before.cache.misses,
                ..self.cache
            },
            predictions: self.predictions - before.predictions,
            batches: self.batches - before.batches,
            shed: self.shed - before.shed,
        }
    }
}

#[derive(Debug, Default)]
struct NominalStep {
    counters: Option<Counters>,
    server_cpu_s: f64,
    lag_tail_ms: f64,
}
