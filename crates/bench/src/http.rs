//! HTTP server benchmarks for experiment A7: connection scaling of the
//! epoll reactor and noisy-neighbor isolation under per-tenant admission
//! control. The `http_probe` example drives these and its output is
//! recorded in `BENCH_http.json`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odbis::{serve_platform, OdbisPlatform};
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{HttpResponse, HttpServer, Method, Router};

fn ping_router() -> Router {
    let mut r = Router::new();
    r.route(Method::Get, "/ping", |_, _| HttpResponse::text("pong"));
    r
}

/// A `/ping` server with a long idle timeout — the target of the
/// connection-scaling probe. Public so the probe example can run
/// it in a separate process: holding both ends of 10k connections needs
/// ~20k descriptors, more than one process gets on a stock `ulimit -n`.
pub fn ping_server(workers: usize) -> std::io::Result<HttpServer> {
    HttpServer::builder(ping_router())
        .workers(workers)
        .idle_timeout(Duration::from_secs(600))
        .start()
}

/// A herd of established keep-alive connections (each has completed one
/// round-trip, proving the server parsed and answered on it).
pub struct Herd {
    conns: Vec<TcpStream>,
    /// Wall-clock seconds to connect + first-round-trip the whole herd.
    pub open_secs: f64,
}

/// Open `target` keep-alive connections and round-trip once on each.
pub fn open_herd(addr: &str, target: usize) -> std::io::Result<Herd> {
    let t0 = Instant::now();
    let mut conns = Vec::with_capacity(target);
    for _ in 0..target {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        round_trip(&mut s);
        conns.push(s);
    }
    Ok(Herd {
        conns,
        open_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Sample `sample` round-trips evenly across the held herd; returns the
/// sorted latencies in microseconds.
pub fn sample_herd(herd: &mut Herd, sample: usize) -> Vec<u64> {
    let step = (herd.conns.len() / sample).max(1);
    let mut lat: Vec<u64> = Vec::with_capacity(sample);
    for i in (0..herd.conns.len()).step_by(step) {
        lat.push(round_trip(&mut herd.conns[i]).as_micros() as u64);
    }
    lat.sort_unstable();
    lat
}

/// Percentile out of an already-sorted latency vector (nearest-rank).
pub fn pct(sorted: &[u64], p: usize) -> u64 {
    percentile(sorted, p)
}

/// One blocking round-trip on an already-open keep-alive connection.
/// Returns the wall-clock latency. Panics on a malformed response — the
/// bench must not silently count failures as fast requests.
fn round_trip(stream: &mut TcpStream) -> Duration {
    let t0 = Instant::now();
    stream
        .write_all(b"GET /ping HTTP/1.1\r\nHost: bench\r\n\r\n")
        .expect("write request");
    // responses are small and Content-Length framed; reading until the
    // known body suffices for the fixed /ping payload
    let mut buf = [0u8; 1024];
    let mut seen = Vec::new();
    loop {
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed a keep-alive connection");
        seen.extend_from_slice(&buf[..n]);
        if seen.windows(4).any(|w| w == b"\r\n\r\n") && seen.ends_with(b"pong") {
            break;
        }
    }
    t0.elapsed()
}

/// Result of the connection-scaling probe.
pub struct ConnScaling {
    /// Connections asked for.
    pub target: usize,
    /// Connections the server reported open once all were established.
    pub held: usize,
    /// Round-trips sampled across the held set after establishment.
    pub sampled: usize,
    /// Sampled request latency, p50 (microseconds).
    pub p50_micros: u64,
    /// Sampled request latency, p99 (microseconds).
    pub p99_micros: u64,
    /// Wall-clock seconds to open + first-round-trip all connections.
    pub open_secs: f64,
}

/// Open `target` keep-alive connections against the server, round-trip
/// one request on each so every connection is established and parsed,
/// hold them all open, then sample `sample` round-trips across the set
/// to show the server still answers with the whole herd idle.
pub fn reactor_connection_scaling(target: usize, sample: usize) -> std::io::Result<ConnScaling> {
    let server = ping_server(2)?;
    let addr = server.addr().to_string();
    let mut herd = open_herd(&addr, target)?;
    let held = server.connections_open() as usize;
    let lat = sample_herd(&mut herd, sample);
    let result = ConnScaling {
        target,
        held,
        sampled: lat.len(),
        p50_micros: percentile(&lat, 50),
        p99_micros: percentile(&lat, 99),
        open_secs: herd.open_secs,
    };
    drop(herd);
    server.shutdown();
    Ok(result)
}

/// Result of the noisy-neighbor probe.
pub struct NoisyNeighbor {
    /// Quiet tenant's p50/p99 with no other traffic (microseconds).
    pub solo_p50_micros: u64,
    pub solo_p99_micros: u64,
    /// Quiet tenant's p50/p99 while the noisy tenant blasts (microseconds).
    pub contended_p50_micros: u64,
    pub contended_p99_micros: u64,
    /// Noisy tenant's admitted (200) and throttled (429) counts.
    pub noisy_ok: u32,
    pub noisy_throttled: u32,
    /// Quiet responses that were not a 200 (must be 0).
    pub quiet_errors: u32,
    /// Quiet requests measured per phase.
    pub quiet_requests: u32,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * p / 100).min(sorted.len() - 1);
    sorted[idx]
}

fn quiet_phase(addr: &str, requests: u32, pace: Duration) -> (Vec<u64>, u32) {
    let mut lat = Vec::with_capacity(requests as usize);
    let mut errors = 0u32;
    for _ in 0..requests {
        let t0 = Instant::now();
        match odbis_web::http_request(addr, "GET", "/api/v1/health", &[("x-tenant", "quiet")], b"")
        {
            Ok((200, _, _)) => lat.push(t0.elapsed().as_micros() as u64),
            _ => errors += 1,
        }
        std::thread::sleep(pace);
    }
    lat.sort_unstable();
    (lat, errors)
}

/// Fairness probe: the noisy tenant hammers from `noisy_threads` parallel
/// clients at well past 10x its configured rate while the quiet tenant
/// issues `quiet_requests` paced requests. Acceptance: the quiet p99
/// under contention stays within 2x its solo baseline, and the noisy
/// tenant collects structured 429s rather than starving the box.
pub fn noisy_neighbor(
    rate: i64,
    burst: i64,
    queue_depth: i64,
    noisy_threads: usize,
    quiet_requests: u32,
) -> std::io::Result<NoisyNeighbor> {
    let platform = Arc::new(OdbisPlatform::new());
    for t in ["noisy", "quiet"] {
        platform
            .provision_tenant(t, t, SubscriptionPlan::standard(), "root", "pw")
            .expect("provision");
    }
    let cfg = &platform.admin.config;
    cfg.set_for_tenant("noisy", "limits.rate", rate.into())
        .expect("rate");
    cfg.set_for_tenant("noisy", "limits.burst", burst.into())
        .expect("burst");
    cfg.set_for_tenant("noisy", "limits.queue_depth", queue_depth.into())
        .expect("queue");
    let server = serve_platform(&platform, 4)?;
    let addr = server.addr().to_string();
    let pace = Duration::from_millis(5);

    // phase 1: quiet tenant alone — the baseline
    let (solo, solo_errors) = quiet_phase(&addr, quiet_requests, pace);

    // phase 2: the noisy herd blasts while quiet repeats the same paced run
    let stop = Arc::new(AtomicBool::new(false));
    let noisy: Vec<_> = (0..noisy_threads)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut ok, mut throttled) = (0u32, 0u32);
                while !stop.load(Ordering::Relaxed) {
                    match odbis_web::http_request(
                        &addr,
                        "GET",
                        "/api/v1/health",
                        &[("x-tenant", "noisy")],
                        b"",
                    ) {
                        Ok((200, _, _)) => ok += 1,
                        Ok((429, _, _)) => throttled += 1,
                        _ => {}
                    }
                }
                (ok, throttled)
            })
        })
        .collect();
    let (contended, contended_errors) = quiet_phase(&addr, quiet_requests, pace);
    stop.store(true, Ordering::Relaxed);
    let (mut noisy_ok, mut noisy_throttled) = (0u32, 0u32);
    for h in noisy {
        let (o, t) = h.join().expect("noisy thread");
        noisy_ok += o;
        noisy_throttled += t;
    }
    server.shutdown();

    Ok(NoisyNeighbor {
        solo_p50_micros: percentile(&solo, 50),
        solo_p99_micros: percentile(&solo, 99),
        contended_p50_micros: percentile(&contended, 50),
        contended_p99_micros: percentile(&contended, 99),
        noisy_ok,
        noisy_throttled,
        quiet_errors: solo_errors + contended_errors,
        quiet_requests,
    })
}
