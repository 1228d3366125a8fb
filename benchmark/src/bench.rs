//! One run of one workload: set-up, warm-up, the timed closed loop, the
//! probe passes for off-mix kinds, the crash check, and (with `--trace 1`)
//! the ladder.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::durability::{self, AckedLog};
use crate::ladder;
use crate::mart::Mart;
use crate::metrics;
use crate::stats::{median, Samples};
use crate::workload::{Kind, Op, Session, Span, Workload, FAR_TENANT, GATED_KINDS, PROBE_WRITER};
use crate::world::World;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Same code paths, a fraction of the work: for smoke tests and CI.
    pub quick: bool,
    /// A fault-injection spec (`site=policy`) armed through
    /// `POST /api/v1/admin/failpoints` once set-up is done — the
    /// sensitivity check's way of slowing one layer without editing it.
    pub failpoint: Option<String>,
}

impl Options {
    /// Scale a full-size count down in quick mode.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(20)
        } else {
            full
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts and derived values).
    pub n: usize,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failure messages (the first few) and fatal check errors.
    pub failures: Vec<String>,
    /// The metrics the run was asked for: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Printed and stored, never gated: p99/max, off-contract timings.
    pub diagnostics: Vec<Metric>,
}

/// Worlds (boot, load, warm up, measure, halt) per untraced run. `setup_s`
/// is the median of their set-ups; every other timing pools their samples,
/// so what one boot happened to settle into (which core a server thread
/// woke on, where the heap landed) is one third of a run, not all of it.
const WORLDS: usize = 3;
/// Rounds per run, shared out over its worlds: a slice of the timed loop,
/// then one pass of the probe. Off-mix kinds are thereby sampled over the
/// whole run like in-mix ones, not in a few seconds at its end.
const ROUNDS: usize = 12;
/// Reopened crash copies per run; `recover_s` is their median. Enough of
/// them that the phase outlasts a one-second burst of noise on the host.
const RECOVERIES: usize = 101;
/// Single-row writes between the final checkpoint and the crash: the log
/// tail recovery must replay.
const CRASH_TAIL: usize = 1_000;

/// How many ops of `kind` one probe pass sends when the workload's own mix
/// does not contain the kind.
fn probe_count(kind: Kind) -> usize {
    match kind {
        Kind::Point => 250,
        Kind::Write => 125,
        Kind::Mdx | Kind::Proxy => 85,
        Kind::ExportJson | Kind::ExportCsv => 50,
        _ => 34,
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Open the workload's connections and send each one's warm-up ops.
fn warm_up<'w>(
    workload: Workload,
    opts: &Options,
    world: &'w World,
    epoch: Instant,
) -> Result<Vec<Session<'w>>, String> {
    let mut sessions = Vec::new();
    for conn in 0..workload.threads() {
        let mut s = Session::open(world, conn, epoch, opts.trace)?;
        s.run(workload, opts.seed, 0, |i| i >= workload.warmup_ops());
        sessions.push(s);
    }
    Ok(sessions)
}

/// Arm (or `clear`) failpoints through the admin route, as the first
/// tenant's admin. The registry is process-wide, so one call covers both
/// nodes.
fn post_failpoints(world: &World, spec: &str) -> Result<(), String> {
    let tenant = &world.tenants[0];
    world.nodes[tenant.node]
        .platform
        .admin
        .config
        .set_for_tenant(&tenant.id, "chaos.enabled", true.into())
        .map_err(|e| format!("chaos.enabled: {e}"))?;
    let mut conn =
        Conn::open(&world.nodes[tenant.node].addr).map_err(|e| format!("connect: {e}"))?;
    let request = tenant.request("POST", "/api/v1/admin/failpoints", &[], spec);
    match conn.call(&request) {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(format!("failpoints {spec:?}: HTTP {}", r.status)),
        Err(e) => Err(format!("failpoints {spec:?}: {e}")),
    }
}

/// `GET /api/v1/admin/durability` for a tenant: what the platform says it
/// has acknowledged into the log.
fn acked_log(conn: &mut Conn, world: &World, tenant: usize) -> Result<AckedLog, String> {
    let request = world.tenants[tenant].request("GET", "/api/v1/admin/durability", &[], "");
    let resp = conn
        .call(&request)
        .map_err(|e| format!("durability status: {e}"))?;
    let doc = std::str::from_utf8(resp.body)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(s).ok())
        .filter(|_| resp.status == 200)
        .ok_or_else(|| format!("durability status: HTTP {}", resp.status))?;
    match (doc["walFileLen"].as_u64(), doc["nextLsn"].as_u64()) {
        (Some(wal_file_len), Some(next_lsn)) => Ok(AckedLog {
            wal_file_len,
            next_lsn,
        }),
        _ => Err("durability status: walFileLen/nextLsn missing".into()),
    }
}

/// The model of `tenant` after the run: the loaded rows plus every row any
/// session got acknowledged.
fn merged_model(world: &World, sessions: &[Session], tenant: usize) -> Mart {
    let mut mart = world.tenants[tenant].mart.clone();
    for ctx in sessions.iter().filter_map(|s| s.ctxs.get(&tenant)) {
        ctx.acked().iter().for_each(|f| mart.push(f.clone()));
    }
    mart
}

pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = out_dir().join(format!("run-{}", std::process::id()));
    let result = run_in(workload, opts, &root, &mut out);
    let _ = std::fs::remove_dir_all(&root);
    result.map(|()| out)
}

/// What the worlds of one run add up to.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Samples of the timed loop, and of the probe's off-mix kinds.
    main: Samples,
    off_mix: Samples,
    spans: Vec<Span>,
    /// Wall time of the timed slices and the right responses they got.
    elapsed: f64,
    correct: u64,
}

/// One slice of the timed closed loop: every connection runs its stream
/// from where it stopped until the deadline.
fn timed_slice(
    workload: Workload,
    opts: &Options,
    seconds: f64,
    sessions: &mut [Session],
    next: &mut [u64],
    m: &mut Measured,
) {
    let right = |sessions: &[Session]| sessions.iter().map(|s| s.attempted - s.failed).sum::<u64>();
    let before = right(sessions);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for (s, next) in sessions.iter_mut().zip(next.iter_mut()) {
            scope.spawn(move || {
                *next = s.run(workload, opts.seed, *next, |_| Instant::now() >= deadline)
            });
        }
    });
    m.elapsed += started.elapsed().as_secs_f64();
    m.correct += right(sessions) - before;
}

/// One pass of the probe: the gated kinds this workload's mix does not
/// contain, one client, on the `probe` mart (`proxy` on a tenant of the
/// other node), while the workload's own connections wait. Reads come
/// first and writes last, so at most one read per pass finds the memoised
/// batch gone.
fn probe_pass(workload: Workload, opts: &Options, probe: &mut Session) -> Result<(), String> {
    for kind in GATED_KINDS {
        if workload.mix().contains(&kind) {
            continue;
        }
        let tenant = if kind == Kind::Proxy {
            FAR_TENANT
        } else {
            workload.probe()
        };
        for _ in 0..opts.scaled(probe_count(kind)) {
            probe.exec(Op { kind, tenant })?;
        }
    }
    Ok(())
}

/// Warm a freshly booted world up, then measure it for `rounds` rounds: a
/// `slice`-second slice of the timed loop, then a pass of the probe.
/// Returns the workload's sessions with the probe's as the last.
fn measure<'w>(
    workload: Workload,
    opts: &Options,
    world: &'w World,
    epoch: Instant,
    booting_since: Instant,
    (rounds, slice): (usize, f64),
    m: &mut Measured,
) -> Result<Vec<Session<'w>>, String> {
    let mut sessions = warm_up(workload, opts, world, epoch)?;
    m.setup_s.push(booting_since.elapsed().as_secs_f64());
    if let Some(spec) = &opts.failpoint {
        post_failpoints(world, spec)?;
    }
    for s in &mut sessions {
        s.samples = Samples::default();
        s.spans = opts.trace.then(Vec::new);
    }
    let mut probe = Session::open(world, PROBE_WRITER, epoch, false)?;
    probe.fresh_parts = false;
    let mut next = vec![workload.warmup_ops(); sessions.len()];
    for _ in 0..rounds {
        timed_slice(workload, opts, slice, &mut sessions, &mut next, m);
        probe_pass(workload, opts, &mut probe)?;
    }
    for s in &mut sessions {
        m.main.merge(std::mem::take(&mut s.samples));
        m.spans.extend(s.spans.take().unwrap_or_default());
    }
    m.off_mix.merge(std::mem::take(&mut probe.samples));
    sessions.push(probe);
    Ok(sessions)
}

/// Add what `sessions` attempted to the run's totals and hold each model's
/// running tally against a recount of its rows.
fn close(out: &mut Outcome, sessions: &[Session]) -> Result<(), String> {
    for s in sessions {
        out.attempted += s.attempted;
        out.failed += s.failed;
        out.failures.extend(s.failures.iter().cloned());
    }
    if sessions
        .iter()
        .all(|s| s.ctxs.values().all(|c| c.mart.recount()))
    {
        Ok(())
    } else {
        Err("the model's running tally disagrees with a recount of its rows".into())
    }
}

/// The ladder, climbed on the first connection while the others keep
/// sending their streams, so rungs see the contention the timed slices saw.
fn traced_phase(
    workload: Workload,
    opts: &Options,
    sessions: &mut [Session],
    spans: &mut Vec<Span>,
) -> Result<ladder::Layers, String> {
    let quiet = ladder::quiet_counts(workload, &mut sessions[0])?;
    let stop = AtomicBool::new(false);
    let (front, background) = sessions.split_at_mut(1);
    let next = workload.warmup_ops() + 1_000_000; // far from anything the timed slices sent
    let mut layers = std::thread::scope(|scope| {
        for s in background.iter_mut() {
            let stop = &stop;
            scope.spawn(move || s.run(workload, opts.seed, next, |_| stop.load(Ordering::Relaxed)));
        }
        let climbed = ladder::climb(workload, opts, &mut front[0], spans);
        stop.store(true, Ordering::Relaxed);
        climbed
    })?;
    layers.values.extend(quiet);
    Ok(layers)
}

/// One tenant staged for the crash check: where its files are, what the
/// platform acknowledged into its log, and every row the model holds.
struct CrashPlan {
    tenant: usize,
    dir: PathBuf,
    acked: AckedLog,
    model: Mart,
}

/// The live half of the crash check for one tenant: fold everything, write
/// a tail, fold again (an incremental checkpoint: only `fact_order` is
/// dirty) and size the directory, then write the tail the crash leaves in
/// the log. `sized` is false for a tenant that is only audited, which
/// needs the last round only.
fn stage_crash(
    opts: &Options,
    world: &World,
    sessions: &mut [Session],
    tenant: usize,
    sized: bool,
) -> Result<(CrashPlan, f64), String> {
    let (probe, _) = sessions.split_last_mut().expect("the probe session");
    let mut checkpoint_bytes = 0.0;
    for round in (!sized) as usize..2 {
        probe.exec(Op {
            kind: Kind::Checkpoint,
            tenant,
        })?;
        if round == 1 {
            checkpoint_bytes = durability::dir_bytes(&world.tenant_dir(&world.tenants[tenant]))
                .map_err(|e| format!("sizing the data dir: {e}"))?
                as f64;
        }
        for _ in 0..opts.scaled(CRASH_TAIL) {
            probe.exec(Op {
                kind: Kind::Write,
                tenant,
            })?;
        }
    }
    let mut status = Conn::open(world.entry()).map_err(|e| format!("connect: {e}"))?;
    let plan = CrashPlan {
        tenant,
        dir: world.tenant_dir(&world.tenants[tenant]),
        acked: acked_log(&mut status, world, tenant)?,
        model: merged_model(world, sessions, tenant),
    };
    Ok((plan, checkpoint_bytes))
}

fn run_in(
    workload: Workload,
    opts: &Options,
    root: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let epoch = Instant::now();

    // ---- the worlds: set up, measure, halt; the last one is kept ----------------
    let worlds = if opts.trace || opts.quick { 1 } else { WORLDS };
    let rounds = if opts.quick { 2 } else { ROUNDS };
    let per_world = (rounds / worlds, opts.seconds / rounds as f64);
    let specs = workload.tenants(opts.seed);
    let mut m = Measured::default();
    for _ in 1..worlds {
        let started = Instant::now();
        let world = World::boot(root, &specs)?;
        let sessions = measure(workload, opts, &world, epoch, started, per_world, &mut m)?;
        close(out, &sessions)?;
        drop(sessions);
        if opts.failpoint.is_some() {
            post_failpoints(&world, "clear")?;
        }
        world.halt();
    }
    let started = Instant::now();
    let world = World::boot(root, &specs)?;
    let mut sessions = measure(workload, opts, &world, epoch, started, per_world, &mut m)?;
    let mut layers = match opts.trace {
        true => {
            let (own, _probe) = sessions.split_at_mut(workload.threads());
            Some(traced_phase(workload, opts, own, &mut m.spans)?)
        }
        false => None,
    };
    let Measured {
        setup_s,
        main,
        off_mix,
        spans,
        elapsed,
        correct,
    } = m;

    // ---- crash check ---------------------------------------------------------
    // On the probe tenant in every workload: a fixed-size fixture, so
    // recovery time and bytes per row compare across commits.
    // ingest_durable also audits the tenant it has been writing to all along.
    let probe_t = workload.probe();
    let (plan, checkpoint_bytes) = stage_crash(opts, &world, &mut sessions, probe_t, true)?;
    // bytes as of that checkpoint, so rows as of it too: without the tail
    let rows_then = plan.model.facts.len() - opts.scaled(CRASH_TAIL);
    let disk_bytes_per_row = checkpoint_bytes / rows_then as f64;
    let (checkpoint_us, tables_flushed) = *sessions
        .last()
        .and_then(|probe| probe.checkpoints.last())
        .expect("the probe session just checkpointed");
    let mut plans = vec![plan];
    if workload == Workload::IngestDurable {
        plans.push(stage_crash(opts, &world, &mut sessions, 0, false)?.0);
    }

    // ---- everything the sessions know, before the world goes away -----------
    close(out, &sessions)?;
    if !plans.iter().all(|p| p.model.recount()) {
        return Err("the model's running tally disagrees with a recount of its rows".into());
    }
    drop(sessions);
    if opts.failpoint.is_some() {
        post_failpoints(&world, "clear")?;
    }
    let root = world.halt();

    // a lost acked row fails the whole run
    let repeats = if opts.quick { 2 } else { RECOVERIES };
    let mut elsewhere = ladder::Elsewhere {
        checkpoint_us: checkpoint_us as f64,
        tables_flushed: tables_flushed as f64,
        checkpoint_bytes,
        ..Default::default()
    };
    for plan in &plans {
        let n = if plan.tenant == probe_t { repeats } else { 1 };
        let r = durability::crash_and_recover(
            &plan.dir,
            &root.join("crash"),
            plan.acked,
            &plan.model,
            n,
        )?;
        if plan.tenant == probe_t {
            elsewhere.recover_us = r.median_s() * 1e6;
            elsewhere.recover_wal_bytes = r.wal_bytes as f64;
        } else {
            let rows = plan.model.facts.len();
            out.diagnostics
                .push(Metric::new("main.recover_s", r.median_s(), "s", rows));
        }
    }

    // ---- reduce ----------------------------------------------------------------
    let listed = |name: &str| {
        metrics::END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(n, _)| *n)
    };
    let mut values: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for kind in GATED_KINDS {
        let name = kind.name();
        let source = if workload.mix().contains(&kind) {
            &main
        } else {
            &off_mix
        };
        let s = source
            .summary(name)
            .ok_or_else(|| format!("no {name} samples: every op of that kind failed"))?;
        for (stat, value) in [
            ("p50", s.p50),
            ("p95", s.p95),
            ("p99", s.p99),
            ("max", s.max),
        ] {
            let metric = format!("{name}_{stat}_us");
            match listed(&metric) {
                Some(gated) => drop(values.insert(gated, (value, s.n))),
                None => out.diagnostics.push(Metric::new(metric, value, "us", s.n)),
            }
        }
    }
    values.insert("setup_s", (median(&setup_s), setup_s.len()));
    values.insert("ops_per_s", (correct as f64 / elapsed, correct as usize));
    values.insert("recover_s", (elsewhere.recover_us / 1e6, repeats));
    values.insert("disk_bytes_per_row", (disk_bytes_per_row, 0));
    for kind in main
        .kinds()
        .filter(|k| !GATED_KINDS.iter().any(|g| g.name() == *k))
    {
        let s = main.summary(kind).expect("listed kinds have samples");
        out.diagnostics
            .push(Metric::new(format!("{kind}_p50_us"), s.p50, "us", s.n));
    }
    out.diagnostics
        .push(Metric::new("timed_phase_s", elapsed, "s", 0));

    let Some(layers) = &mut layers else {
        for (name, unit) in metrics::END_TO_END {
            let (value, n) = values[name];
            out.metrics.push(Metric::new(name, value, unit, n));
        }
        return Ok(());
    };
    layers.finish(&main, &off_mix, &elsewhere);
    for (name, unit) in metrics::per_layer() {
        let (value, n) = layers
            .values
            .get(name.as_str())
            .copied()
            .ok_or_else(|| format!("the ladder did not measure {name}"))?;
        out.metrics.push(Metric::new(name, value, unit, n));
    }
    // the whole waterfall, rung by rung, and how far the ladder's socket
    // rung sits from what the timed slices saw for the same kind
    for (rung, s) in layers.rung_summaries() {
        out.diagnostics
            .push(Metric::new(format!("rung.{rung}_us"), s.p50, "us", s.n));
    }
    for kind in metrics::LADDER_KINDS {
        if let Some(seen) = main.p50(kind) {
            let gap = layers.kind_rung(kind, "socket").0 / seen - 1.0;
            out.diagnostics
                .push(Metric::new(format!("closure.{kind}"), gap, "ratio", 0));
        }
    }
    // the traced run's own end-to-end numbers are diagnostics only
    for (name, unit) in metrics::END_TO_END {
        let (value, n) = values[name];
        out.diagnostics
            .push(Metric::new(format!("traced.{name}"), value, unit, n));
    }
    ladder::write_trace(
        &out_dir().join(format!("trace-{}.json", workload.name())),
        &spans,
    )
    .map_err(|e| format!("writing the trace: {e}"))
}
