//! Load generation: closed loops (each client waits for its reply) and
//! open loops (requests due on a fixed schedule, timed from when they
//! were due, so a stall also charges the requests queued behind it).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::{Conn, Response, REQUEST_TIMEOUT};

/// One request of a trace.
#[derive(Debug, Clone)]
pub enum Req {
    /// `GET path`.
    Get(String),
    /// `POST path` with a body.
    Post(String, Vec<u8>),
}

/// What one request produced. Times are seconds since the phase start.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Index of the request in its trace.
    pub index: usize,
    /// When it was due (equal to `send` in a closed loop).
    pub due: f64,
    /// When it was written to the socket.
    pub send: f64,
    /// When its response was complete.
    pub done: f64,
    /// How late the generator itself was in sending it, seconds.
    pub gen_late: f64,
    /// HTTP status; 0 on a transport failure or timeout.
    pub status: u16,
    /// `X-Kdv-Level` (which index answered).
    pub level: Option<String>,
    /// `X-Kdv-Cache` said `hit`.
    pub hit: bool,
    /// `X-Kdv-Degraded` was present.
    pub degraded: bool,
    /// `X-Kdv-Trace-Id` (traced servers only).
    pub trace_id: Option<String>,
    /// Body length.
    pub bytes: usize,
    /// The body, when the caller keeps bodies for later checks.
    pub body: Option<Vec<u8>>,
    /// The caller's inline judgement said the response was wrong.
    pub wrong: bool,
    /// Host speed factor of the slice it was sent in (see `host`): its
    /// latency at the reference host's speed is `latency_ms() × scale`.
    pub scale: f64,
}

impl Sample {
    /// A 2xx answer.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Latency from due time, ms. A failed request counts as the
    /// request timeout: it misses any latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok() {
            (self.done - self.due) * 1e3
        } else {
            REQUEST_TIMEOUT.as_secs_f64() * 1e3
        }
    }

    /// Socket-to-response time, ms (the part the server can account for).
    pub fn service_ms(&self) -> f64 {
        (self.done - self.send) * 1e3
    }

    /// [`latency_ms`](Self::latency_ms) at the reference host's speed.
    pub fn adjusted_ms(&self) -> f64 {
        self.latency_ms() * self.scale
    }
}

/// Inline response check: `(request index, response) → correct`.
pub type Judge<'a> = &'a (dyn Fn(usize, &Response) -> bool + Sync);

/// Accepts every response (checks happen after the timed window).
pub fn accept_all(_: usize, _: &Response) -> bool {
    true
}

fn exec(conn: &mut Conn, req: &Req) -> std::io::Result<Response> {
    match req {
        Req::Get(path) => conn.get(path),
        Req::Post(path, body) => conn.post(path, body),
    }
}

fn record(
    index: usize,
    times: (f64, f64, f64),
    result: std::io::Result<Response>,
    keep_body: bool,
    judge: Judge<'_>,
) -> Sample {
    let (due, send, done) = times;
    let mut s = Sample {
        index,
        due,
        send,
        done,
        scale: 1.0,
        ..Sample::default()
    };
    if let Ok(resp) = result {
        s.status = resp.status;
        s.level = resp.header("X-Kdv-Level").map(str::to_string);
        s.hit = resp.header("X-Kdv-Cache") == Some("hit");
        s.degraded = resp.header("X-Kdv-Degraded").is_some();
        s.trace_id = resp.header("X-Kdv-Trace-Id").map(str::to_string);
        s.bytes = resp.body.len();
        s.wrong = !judge(index, &resp);
        if keep_body {
            s.body = Some(resp.body);
        }
    }
    s
}

/// Sleeps until `t`, spinning for the last stretch so the send time is
/// accurate to a few microseconds.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Closed loop: `conns` clients on keep-alive connections each send the
/// next request of `reqs` as soon as their previous reply is complete,
/// until `deadline` (requests are never started after it).
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    conns: usize,
    t0: Instant,
    deadline: Instant,
    keep_body: bool,
    judge: Judge<'_>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                loop {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let send = t0.elapsed().as_secs_f64();
                    let result = exec(&mut conn, req);
                    let done = t0.elapsed().as_secs_f64();
                    mine.push(record(i, (send, send, done), result, keep_body, judge));
                }
                out.lock().expect("no client panicked").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("no client panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Open loop: request `i` is due at `t0 + dues[i]` seconds and is sent
/// by whichever of the `conns` keep-alive clients is free; its latency
/// runs from the due time. `gen_late` records only the generator's own
/// scheduling error (waking after a due time it was waiting for), not
/// waits for a busy connection.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    dues: &[f64],
    conns: usize,
    t0: Instant,
    keep_body: bool,
    judge: Judge<'_>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let (Some(req), Some(&due)) = (reqs.get(i), dues.get(i)) else {
                        break;
                    };
                    let grabbed = t0.elapsed().as_secs_f64();
                    wait_until(t0 + Duration::from_secs_f64(due));
                    let send = t0.elapsed().as_secs_f64();
                    let result = exec(&mut conn, req);
                    let done = t0.elapsed().as_secs_f64();
                    let mut sample = record(i, (due, send, done), result, keep_body, judge);
                    sample.gen_late = send - due.max(grabbed);
                    mine.push(sample);
                }
                out.lock().expect("no client panicked").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("no client panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Evenly spaced due times for `n` requests at `rate` per second.
pub fn schedule(n: usize, rate: f64) -> Vec<f64> {
    (0..n).map(|i| i as f64 / rate).collect()
}
