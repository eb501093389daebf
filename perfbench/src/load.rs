//! Open-loop HTTP load: requests go out on a seeded Poisson schedule
//! whether or not earlier ones have been answered, over a fixed pool of
//! keep-alive connections per generator thread.
//!
//! Every request is timed from when it was *due*, not from when it was
//! sent, so a stall in the server (or in the generator) is charged to every
//! request it delays. How late the generator sent each request is kept
//! too: a lag that keeps growing through a step means a backlog, and the
//! step does not count as met.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys;

/// SplitMix64: a tiny seeded generator for schedules and input choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (seconds from the step start) of `count` Poisson arrivals at
/// `rate` per second: a Poisson process conditioned on `count` arrivals in
/// `count / rate` seconds, whose arrival times are sorted uniform draws.
/// Conditioning fixes the offered rate of a step exactly, so step-to-step
/// differences in achieved rate come from the server, not the draw.
pub fn poisson_schedule(rate: f64, count: usize, rng: &mut Rng) -> Vec<f64> {
    let span = count as f64 / rate;
    let mut due: Vec<f64> = (0..count).map(|_| rng.unit() * span).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// One request of a step.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Seconds after the step start at which the request is due.
    pub due_s: f64,
    /// Requests sharing a lane are sent one at a time, in order: each waits
    /// for the previous one's response (a live cascade's appends and
    /// reads). `None` for independent requests.
    pub lane: Option<usize>,
    /// Path and query, e.g. `/predict?window=3600`.
    pub target: String,
    /// Request body.
    pub body: String,
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Seconds after the step start the request was due.
    pub due_s: f64,
    /// Seconds after the step start it was written to the socket.
    pub sent_s: f64,
    /// Seconds after the step start its response was complete (or the
    /// connection failed).
    pub done_s: f64,
    /// HTTP status, 0 when the connection failed.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Outcome {
    /// Latency charged to the request: completion minus due time (ms).
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// How late the generator sent it (ms).
    pub fn lag_ms(&self) -> f64 {
        ((self.sent_s - self.due_s) * 1e3).max(0.0)
    }
}

/// Whether generator lag stayed bounded over a step: the largest lag in
/// the last quarter of the step (by due time) must not exceed `bound_ms`,
/// nor exceed the first quarter's largest lag by more than `bound_ms`.
/// A backlog that grows shows as lag rising toward the end of the step.
pub fn lag_bounded(outcomes: &[Outcome], bound_ms: f64) -> bool {
    if outcomes.is_empty() {
        return true;
    }
    let mut by_due: Vec<&Outcome> = outcomes.iter().collect();
    by_due.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let quarter = by_due.len().div_ceil(4);
    let max_lag = |s: &[&Outcome]| s.iter().map(|o| o.lag_ms()).fold(0.0, f64::max);
    let first = max_lag(&by_due[..quarter]);
    let last = max_lag(&by_due[by_due.len() - quarter..]);
    last <= bound_ms && last - first <= bound_ms
}

/// Completed requests per second, from the step start to the last
/// completion.
pub fn achieved_rps(outcomes: &[Outcome]) -> f64 {
    let last = outcomes.iter().map(|o| o.done_s).fold(0.0, f64::max);
    if last > 0.0 {
        outcomes.len() as f64 / last
    } else {
        0.0
    }
}

struct Conn {
    addr: SocketAddr,
    /// `None` until first use and after the peer closed the connection.
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Index (into this thread's plan) of the request awaiting a response.
    inflight: Option<usize>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::new(),
            inflight: None,
        }
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        self.buf.clear();
        Ok(self.stream.insert(s))
    }

    fn send(&mut self, p: &Planned) -> std::io::Result<()> {
        let stream = match self.stream {
            Some(ref mut s) => s,
            None => self.connect()?,
        };
        let head = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            p.target,
            p.body.len()
        );
        // Blocking while writing, so a body larger than the socket buffer
        // cannot half-send; non-blocking while waiting for the answer.
        stream.set_nonblocking(false)?;
        stream.write_all(head.as_bytes())?;
        stream.write_all(p.body.as_bytes())?;
        stream.set_nonblocking(true)
    }

    /// Reads what is available. `Ok(Some(..))` once a whole response is
    /// buffered, `Err` when the connection failed or closed without one.
    fn poll_response(&mut self) -> std::io::Result<Option<(u16, String)>> {
        let stream = self
            .stream
            .as_mut()
            .ok_or(std::io::ErrorKind::NotConnected)?;
        let mut chunk = [0u8; 16 * 1024];
        let mut closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
        let response = parse_response(&mut self.buf);
        if closed {
            self.stream = None;
            if response.is_none() {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(response)
    }

    fn fd(&self) -> Option<std::os::fd::RawFd> {
        self.stream.as_ref().map(AsRawFd::as_raw_fd)
    }
}

/// Takes one complete HTTP response off the front of `buf`, if buffered.
fn parse_response(buf: &mut Vec<u8>) -> Option<(u16, String)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let total = head_end + 4 + len;
    if buf.len() < total {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    buf.drain(..total);
    Some((status, body))
}

/// The outcomes of one step, in plan order, and the CPU time the generator
/// threads used to produce them.
pub struct StepRun {
    pub outcomes: Vec<Outcome>,
    pub generator_cpu: Duration,
}

/// Runs one step: sends every planned request at (or after) its due time
/// and waits for every response. Work is split over `threads` generator
/// threads, each with `conns_per_thread` keep-alive connections; a lane
/// always stays on one thread.
pub fn run_step(
    addr: SocketAddr,
    plan: &[Planned],
    threads: usize,
    conns_per_thread: usize,
) -> std::io::Result<StepRun> {
    let threads = threads.max(1);
    let mut shares: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (i, p) in plan.iter().enumerate() {
        shares[p.lane.unwrap_or(i) % threads].push(i);
    }
    let start = Instant::now();
    type Share = std::io::Result<(Vec<(usize, Outcome)>, Duration)>;
    let results: Vec<Share> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| s.spawn(move || drive(addr, plan, share, conns_per_thread, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("generator thread panicked")))
            })
            .collect()
    });
    let mut outcomes: Vec<Option<Outcome>> = vec![None; plan.len()];
    let mut generator_cpu = Duration::ZERO;
    for r in results {
        let (share, cpu) = r?;
        generator_cpu += cpu;
        for (i, o) in share {
            outcomes[i] = Some(o);
        }
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every planned request has an outcome"))
        .collect();
    Ok(StepRun {
        outcomes,
        generator_cpu,
    })
}

/// One generator thread: its share of the plan, in due order.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    share: &[usize],
    conns: usize,
    start: Instant,
) -> std::io::Result<(Vec<(usize, Outcome)>, Duration)> {
    let cpu0 = sys::thread_cpu();
    let mut pool: Vec<Conn> = (0..conns.max(1)).map(|_| Conn::new(addr)).collect();
    for c in &mut pool {
        c.connect()?;
    }
    let mut pending: VecDeque<usize> = {
        let mut v = share.to_vec();
        v.sort_by(|&a, &b| plan[a].due_s.total_cmp(&plan[b].due_s).then(a.cmp(&b)));
        v.into()
    };
    let mut busy_lanes: Vec<usize> = Vec::new();
    let mut sent_at: Vec<f64> = vec![0.0; plan.len()];
    let mut out = Vec::with_capacity(share.len());
    let now = || start.elapsed().as_secs_f64();
    while out.len() < share.len() {
        // Send everything that is due, on a free connection, lane allowing.
        let t = now();
        let mut k = 0;
        while k < pending.len() && plan[pending[k]].due_s <= t {
            let i = pending[k];
            let lane_free = plan[i].lane.is_none_or(|l| !busy_lanes.contains(&l));
            match pool.iter_mut().find(|c| c.inflight.is_none()) {
                Some(conn) if lane_free => {
                    sent_at[i] = now();
                    match conn.send(&plan[i]) {
                        Ok(()) => {
                            conn.inflight = Some(i);
                            busy_lanes.extend(plan[i].lane);
                        }
                        Err(_) => {
                            out.push((i, failed(&plan[i], sent_at[i], now())));
                            conn.stream = None;
                        }
                    }
                    pending.remove(k);
                }
                Some(_) => k += 1,
                None => break,
            }
        }
        // Wait for a response, or until the next request falls due.
        let next_due = pending.iter().map(|&i| plan[i].due_s).find(|&d| d > now());
        let timeout = next_due.map_or(Duration::from_millis(5), |d| {
            Duration::from_secs_f64((d - now()).clamp(0.0, 0.005))
        });
        let (inflight, fds): (Vec<usize>, Vec<_>) = (0..pool.len())
            .filter(|&c| pool[c].inflight.is_some())
            .filter_map(|c| Some((c, pool[c].fd()?)))
            .unzip();
        for r in sys::wait_readable(&fds, timeout) {
            let c = inflight[r];
            let Some(i) = pool[c].inflight else { continue };
            let done = match pool[c].poll_response() {
                Ok(None) => continue,
                Ok(Some((status, body))) => Outcome {
                    due_s: plan[i].due_s,
                    sent_s: sent_at[i],
                    done_s: now(),
                    status,
                    body,
                },
                Err(_) => failed(&plan[i], sent_at[i], now()),
            };
            pool[c].inflight = None;
            if let Some(l) = plan[i].lane {
                busy_lanes.retain(|&b| b != l);
            }
            out.push((i, done));
        }
    }
    Ok((out, sys::thread_cpu() - cpu0))
}

fn failed(p: &Planned, sent_s: f64, done_s: f64) -> Outcome {
    Outcome {
        due_s: p.due_s,
        sent_s,
        done_s,
        status: 0,
        body: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    fn outcome(due_s: f64, sent_s: f64, done_s: f64) -> Outcome {
        Outcome {
            due_s,
            sent_s,
            done_s,
            status: 200,
            body: String::new(),
        }
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        // Due at 1.0 s, sent 30 ms late, answered 5 ms after sending.
        let o = outcome(1.0, 1.030, 1.035);
        assert!((o.latency_ms() - 35.0).abs() < 1e-9);
        assert!((o.lag_ms() - 30.0).abs() < 1e-9);
        // Sending early (clock granularity) is never negative lag.
        assert_eq!(outcome(1.0, 0.9999, 1.001).lag_ms(), 0.0);
    }

    #[test]
    fn growing_lag_is_a_backlog_and_steady_lag_is_not() {
        let steady: Vec<Outcome> = (0..40)
            .map(|i| {
                outcome(
                    i as f64 * 0.01,
                    i as f64 * 0.01 + 0.002,
                    i as f64 * 0.01 + 0.004,
                )
            })
            .collect();
        assert!(lag_bounded(&steady, 10.0));
        let growing: Vec<Outcome> = (0..40)
            .map(|i| {
                let due = i as f64 * 0.01;
                let sent = due + i as f64 * 0.001; // lag grows 1 ms per request
                outcome(due, sent, sent + 0.002)
            })
            .collect();
        assert!(!lag_bounded(&growing, 10.0));
        assert!(lag_bounded(&growing, 50.0));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_schedule(100.0, 20_000, &mut Rng::new(5));
        let b = poisson_schedule(100.0, 20_000, &mut Rng::new(5));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        // 20 000 arrivals over exactly 200 s, the gaps exponential-like:
        // about 63 % of gaps are shorter than the mean gap.
        assert!(a[a.len() - 1] <= 200.0);
        let short = a.windows(2).filter(|w| w[1] - w[0] < 0.01).count() as f64 / a.len() as f64;
        assert!((short - 0.632).abs() < 0.02, "share of short gaps {short}");
        assert_ne!(a, poisson_schedule(100.0, 20_000, &mut Rng::new(6)));
    }

    #[test]
    fn parse_response_waits_for_the_whole_body() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel".to_vec();
        assert_eq!(parse_response(&mut buf), None);
        buf.extend_from_slice(b"loHTTP");
        assert_eq!(parse_response(&mut buf), Some((200, "hello".to_string())));
        assert_eq!(buf, b"HTTP");
    }

    /// A one-connection server that stalls 80 ms on its first request:
    /// requests due during the stall are sent late, and their latency
    /// includes the wait.
    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for n in 0..3 {
                let mut len = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if let Some(v) = line.strip_prefix("Content-Length: ") {
                        len = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body).unwrap();
                if n == 0 {
                    std::thread::sleep(Duration::from_millis(80));
                }
                write!(
                    writer,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .unwrap();
                writer.write_all(&body).unwrap();
            }
        });
        let plan: Vec<Planned> = [0.0, 0.01, 0.02]
            .iter()
            .map(|&due_s| Planned {
                due_s,
                lane: Some(0),
                target: "/echo".into(),
                body: format!("{due_s}"),
            })
            .collect();
        let out = run_step(addr, &plan, 1, 1).unwrap().outcomes;
        server.join().unwrap();
        assert!(out
            .iter()
            .zip(&plan)
            .all(|(o, p)| o.status == 200 && o.body == p.body));
        assert!(out[0].latency_ms() >= 80.0);
        // The second request waited for the first: sent ≥ 70 ms late and
        // charged that wait.
        assert!(out[1].lag_ms() >= 70.0, "lag {}", out[1].lag_ms());
        assert!(out[1].latency_ms() >= out[1].lag_ms());
        assert!(out[2].latency_ms() >= 60.0);
    }
}
