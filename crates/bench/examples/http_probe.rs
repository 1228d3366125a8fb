//! Connection-scaling + noisy-neighbor probe for the event-driven HTTP
//! server (experiment A7): the source of the numbers in `BENCH_http.json`.
//!
//! Part 1 opens a herd of keep-alive connections against the epoll
//! reactor, holds them all, and samples request latency across the herd —
//! idle connections must cost a file descriptor, not a thread. The
//! full-size run (10k connections) needs ~20k descriptors across both
//! ends, so the server runs in a child process (`--serve-ping` mode, line
//! protocol on stdin/stdout) and each side stays inside a stock 20k
//! `ulimit -n`; `--quick` keeps everything in-process at 500 connections.
//!
//! Part 2 configures a rate limit on one tenant, blasts it from parallel
//! clients, and checks the other tenant's paced p99 against its solo
//! baseline while the noisy tenant collects structured 429s.
//!
//! Run with:
//! `cargo run --release -p odbis-bench --example http_probe` or `--quick`
//! for the CI-sized run.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use odbis_bench::http::{
    noisy_neighbor, open_herd, pct, ping_server, reactor_connection_scaling, sample_herd,
};

/// Child mode: serve `/ping` on the reactor, print the address, then
/// answer `report` lines on stdin with the live connection count until
/// stdin closes.
fn serve_ping() {
    let server = ping_server(2).expect("start ping server");
    println!("ADDR {}", server.addr());
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line.as_deref() {
            Ok("report") => {
                println!("OPEN {}", server.connections_open());
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    server.shutdown();
}

/// Full-size scaling probe against a child-process server.
fn scale_against_child(target: usize, sample: usize) -> (usize, usize, f64, u64, u64, usize) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("--serve-ping")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let mut child_in = child.stdin.take().unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).expect("read child addr");
    let addr = line
        .strip_prefix("ADDR ")
        .expect("child handshake")
        .trim()
        .to_string();

    let mut herd = open_herd(&addr, target).expect("open herd");
    writeln!(child_in, "report").unwrap();
    line.clear();
    child_out.read_line(&mut line).expect("read child count");
    let held: usize = line
        .strip_prefix("OPEN ")
        .expect("child report")
        .trim()
        .parse()
        .expect("count");
    let lat = sample_herd(&mut herd, sample);
    let (p50, p99, sampled) = (pct(&lat, 50), pct(&lat, 99), lat.len());
    let open_secs = herd.open_secs;
    drop(herd);
    drop(child_in); // EOF: child shuts its server down
    let _ = child.wait();
    (target, held, open_secs, p50, p99, sampled)
}

fn main() {
    if std::env::args().any(|a| a == "--serve-ping") {
        serve_ping();
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let (target, sample) = if quick { (500, 100) } else { (10_000, 200) };
    let quiet_requests = if quick { 100 } else { 400 };

    println!("== connection scaling ==");
    let (target, held, open_secs, p50, p99, sampled) = if quick {
        let s = reactor_connection_scaling(target, sample).expect("reactor scaling probe");
        (
            s.target,
            s.held,
            s.open_secs,
            s.p50_micros,
            s.p99_micros,
            s.sampled,
        )
    } else {
        scale_against_child(target, sample)
    };
    println!(
        "reactor: target={target} held={held} open_time={open_secs:.2}s sampled={sampled} p50={p50}us p99={p99}us"
    );
    let scaled = held >= target;
    println!(
        "acceptance: reactor held {held} >= {target} concurrent keep-alive connections: {}",
        if scaled { "PASS" } else { "FAIL" }
    );

    println!();
    println!("== noisy neighbor ==");
    let n = noisy_neighbor(20, 20, 4, 8, quiet_requests).expect("noisy-neighbor probe");
    println!(
        "quiet solo:      p50={}us p99={}us ({} reqs)",
        n.solo_p50_micros, n.solo_p99_micros, n.quiet_requests
    );
    println!(
        "quiet contended: p50={}us p99={}us ({} reqs, {} errors)",
        n.contended_p50_micros, n.contended_p99_micros, n.quiet_requests, n.quiet_errors
    );
    println!(
        "noisy tenant:    {} admitted, {} throttled (429 + Retry-After)",
        n.noisy_ok, n.noisy_throttled
    );
    let ratio = n.contended_p99_micros as f64 / n.solo_p99_micros.max(1) as f64;
    let fair = ratio <= 2.0 && n.quiet_errors == 0 && n.noisy_throttled > 0;
    println!(
        "acceptance: quiet p99 ratio contended/solo = {ratio:.2}x (<= 2x), quiet errors = {}, noisy throttled = {}: {}",
        n.quiet_errors,
        n.noisy_throttled,
        if fair { "PASS" } else { "FAIL" }
    );

    if !(scaled && fair) {
        std::process::exit(1);
    }
}
