//! odbis-e2e: the repo's end-to-end benchmark. See README.md.

mod bench;
mod client;
mod durability;
mod ladder;
mod mart;
mod metrics;
mod stats;
mod workload;
mod world;

use bench::{Metric, Options, Outcome};
use workload::Workload;

const USAGE: &str =
    "usage: odbis-e2e --workload <dash_read|ingest_durable|mixed_fresh|tenant_small|all> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--failpoint site=policy]";

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let n = if m.n > 0 {
            format!("n={}", m.n)
        } else {
            String::new()
        };
        println!("  {:<34} {:>16.3} {:<6} {n}", m.name, m.value, m.unit);
    }
}

/// Run one workload and print its report; the last line is the result
/// object the driver reads. Returns whether the run was correct.
fn report(workload: Workload, opts: &Options) -> bool {
    let outcome = bench::run(workload, opts).unwrap_or_else(|fatal| Outcome {
        attempted: 1,
        failed: 1,
        failures: vec![fatal],
        ..Outcome::default()
    });
    println!(
        "== {} seed={} seconds={} trace={} threads={} cores={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        workload.threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    print_table(
        if opts.trace {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &outcome.metrics,
    );
    print_table("diagnostics (not gated)", &outcome.diagnostics);
    // a fatal error leaves no metrics: the run counts as incorrect
    let correct = outcome.failed == 0 && !outcome.metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    correct
}

fn main() {
    // defaults are the platform's own: nothing inherited from the caller
    for (key, _) in std::env::vars() {
        if key.starts_with("ODBIS_") {
            std::env::remove_var(key);
        }
    }
    let mut workload = None;
    let mut opts = Options {
        seed: 11,
        seconds: 15.0,
        trace: false,
        quick: false,
        failpoint: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed takes an integer"))
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seconds takes a number"))
            }
            "--trace" => opts.trace = value() == "1",
            "--quick" => opts.quick = true,
            "--failpoint" => opts.failpoint = Some(value()),
            other => die(&format!("unknown argument {other}")),
        }
    }
    let workloads: Vec<Workload> = match workload.as_deref() {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => {
            vec![Workload::parse(name).unwrap_or_else(|| die(&format!("unknown workload {name}")))]
        }
        None => die("--workload is required"),
    };
    let mut all_correct = true;
    for w in workloads {
        all_correct &= report(w, &opts);
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}

fn die(why: &str) -> ! {
    eprintln!("{why}\n{USAGE}");
    std::process::exit(2)
}
