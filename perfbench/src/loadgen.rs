//! Load generator: a seeded open-loop schedule, a closed-loop saturation
//! phase, and a std-only HTTP/1.1 client (one request per connection, as
//! the daemon speaks it). Everything runs in this process on at most
//! `workers` threads, each holding at most one connection.

use muse_tensor::init::SeededRng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `POST /ingest` of the `n`-th frame of this schedule (frames go out in
    /// order, one at a time).
    Ingest(usize),
    /// `GET` of the workload's forecast path.
    Forecast,
}

/// Poisson arrivals at `rate` requests/s over `duration`; each request is an
/// ingest with probability `ingest_share`. A deterministic function of
/// `seed`: the program under test only ever sees the generated requests.
pub fn schedule(seed: u64, rate: f64, ingest_share: f64, duration: Duration) -> Vec<(Duration, Op)> {
    let mut rng = SeededRng::new(seed ^ 0x10AD_6E4E);
    let unit = |rng: &mut SeededRng| ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let mut ops = Vec::new();
    let mut t = 0.0f64;
    let mut ingests = 0usize;
    loop {
        t += -unit(&mut rng).ln() / rate;
        if t >= duration.as_secs_f64() {
            return ops;
        }
        let op = if unit(&mut rng) < ingest_share {
            ingests += 1;
            Op::Ingest(ingests - 1)
        } else {
            Op::Forecast
        };
        ops.push((Duration::from_secs_f64(t), op));
    }
}

/// Outcome of one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub op: Op,
    /// HTTP status, or 0 for a connect or I/O error.
    pub status: u16,
    /// Milliseconds from when the request was due (open loop) or sent
    /// (closed loop) to the end of its response.
    pub latency_ms: f64,
    /// Milliseconds the request went out after its due time (open loop).
    pub lag_ms: f64,
    /// Response body of a forecast (kept for the output check).
    pub body: Vec<u8>,
}

/// Run `ops` open-loop against `addr`: each request is sent at its due time
/// whatever happened to earlier ones, so a stall shows up as latency of the
/// requests queued behind it. Results are in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    ops: &[(Duration, Op)],
    workers: usize,
    forecast_path: &str,
    ingest_body: &(dyn Fn(usize) -> Vec<u8> + Sync),
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    // Ordinal of the ingest allowed to go out next: frames reach the daemon
    // in index order even when two workers hold ingests at once.
    let turn = (Mutex::new(0usize), Condvar::new());
    let results: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; ops.len()]);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(offset, op)) = ops.get(i) else { break };
                let due = start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (sent, response) = match op {
                    Op::Ingest(n) => {
                        let body = ingest_body(n);
                        let (lock, cv) = &turn;
                        let mut current = lock.lock().expect("ingest turn lock poisoned");
                        while *current != n {
                            current = cv.wait(current).expect("ingest turn lock poisoned");
                        }
                        drop(current);
                        let sent = Instant::now();
                        let response = http(addr, "POST", "/ingest", &body);
                        *lock.lock().expect("ingest turn lock poisoned") += 1;
                        cv.notify_all();
                        (sent, response)
                    }
                    Op::Forecast => (Instant::now(), http(addr, "GET", forecast_path, &[])),
                };
                let done = Instant::now();
                let (status, body) = response.unwrap_or((0, Vec::new()));
                let outcome = Outcome {
                    op,
                    status,
                    latency_ms: ms(done.saturating_duration_since(due)),
                    lag_ms: ms(sent.saturating_duration_since(due)),
                    body: if op == Op::Forecast { body } else { Vec::new() },
                };
                results.lock().expect("results lock poisoned")[i] = Some(outcome);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|o| o.expect("every op ran"))
        .collect()
}

/// `workers` callers sending `path` back to back for `duration`; returns
/// the outcomes and the phase's wall time.
pub fn closed_loop(addr: SocketAddr, path: &str, workers: usize, duration: Duration) -> (Vec<Outcome>, f64) {
    let start = Instant::now();
    let deadline = start + duration;
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let sent = Instant::now();
                        let (status, body) = http(addr, "GET", path, &[]).unwrap_or((0, Vec::new()));
                        mine.push(Outcome {
                            op: Op::Forecast,
                            status,
                            latency_ms: ms(sent.elapsed()),
                            lag_ms: 0.0,
                            body,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("closed-loop caller panicked")).collect()
    });
    (outcomes, start.elapsed().as_secs_f64())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The exact bytes this client sends for one request.
pub fn request_bytes(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n", body.len());
    if !body.is_empty() {
        req.push_str("Content-Type: application/octet-stream\r\n");
    }
    req.push_str("\r\n");
    let mut bytes = req.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// One request on a fresh connection: `(status, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(&request_bytes(addr, method, path, body))?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without header end"))?;
    let status = std::str::from_utf8(&response[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without status code"))?;
    Ok((status, response.split_off(head_end + 4)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_deterministic_function_of_the_seed() {
        let a = schedule(7, 300.0, 0.2, Duration::from_secs(2));
        let b = schedule(7, 300.0, 0.2, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, schedule(8, 300.0, 0.2, Duration::from_secs(2)));
        // Roughly the offered rate and mix, due times rising, ingests
        // numbered in order.
        assert!((500..700).contains(&a.len()), "{} requests", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        let ingests: Vec<usize> =
            a.iter().filter_map(|&(_, op)| if let Op::Ingest(n) = op { Some(n) } else { None }).collect();
        assert_eq!(ingests, (0..ingests.len()).collect::<Vec<_>>());
        let share = ingests.len() as f64 / a.len() as f64;
        assert!((0.12..0.28).contains(&share), "ingest share {share}");
    }

    #[test]
    fn request_bytes_are_a_complete_http_request() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let req = request_bytes(addr, "POST", "/ingest", &[1, 2, 3, 4]);
        let text = String::from_utf8_lossy(&req);
        assert!(text.starts_with("POST /ingest HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(req.ends_with(b"\r\n\r\n\x01\x02\x03\x04"));
    }
}
