//! One run of one workload: set-up, warm-up, the measured window over
//! real TCP, the checks that follow it, and the metrics.

use crate::data::answer_of;
use crate::ledger::{self, Counters, Replay, ReplayCtx};
use crate::metrics::{per_layer, END_TO_END};
use crate::trace::{self, Tracer};
use crate::util::{median, peak_rss_mib, percentile, process_cpu_ms, sorted, thread_cpu_ms};
use crate::workloads::{
    load, schedule_digest, sources, Finish, Inputs, Kind, Loaded, Op, Source, Workload,
};
use redshift_sim::common::RsError;
use redshift_sim::core::Cluster;
use redshift_sim::frontdoor::{FrontDoor, ServerOpts, WireClient, WireRows};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire connections, one client thread each. A `WireClient` is a
/// blocking request/response connection, like a JDBC pool slot; the
/// reference box has two cores, and the generator must not be the
/// bottleneck it is measuring.
pub const CONNECTIONS: usize = 2;
/// Closed-loop traffic before the window opens: plan cache, result
/// cache and lazily built state are warm when timing starts.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups timed in child processes; `setup_s` is the median of these
/// and the run's own.
const SETUP_CHILDREN: usize = 6;
/// Busy time on every core before the set-ups are timed. After idling
/// (the previous run's sleeping wire, a pause between runs) the
/// reference box runs 50-60% slower for its first two or three busy
/// seconds; two seconds of spinning put every run's set-ups on the same,
/// warm, side of that.
const CORE_WARMUP: Duration = Duration::from_secs(2);
/// A retryable error (`Serializable`, `Throttled`) is retried this often.
const MAX_RETRIES: u32 = 3;
/// In the traced run, every this-many-th SELECT is replayed in-process
/// through the layered entry points.
const REPLAY_EVERY: u64 = 8;

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Where `trace-<workload>.jsonl` and the hand-over between the
    /// untraced and the traced run go.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or median; 0 where that has no meaning.
    pub samples: usize,
}

#[derive(Debug)]
pub struct RunResult {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable notes (the ledger table, warnings).
    pub notes: Vec<String>,
}

#[derive(Debug, Default)]
struct ClientReport {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    /// Statements begun and ended inside the window, any kind.
    attempted: u64,
    /// Of those: errors, refusals and wrong answers.
    failed: u64,
    wrong: u64,
    retries: u64,
    rows_loaded: u64,
    /// CSV bytes of every acked COPY since the connection opened,
    /// warm-up included: the denominator of the bytes-per-user-byte
    /// ratios, which are taken over the cluster's whole life.
    csv_loaded: u64,
    cpu_ms: f64,
    replays: Vec<Replay>,
    /// The largest `Rows` reply seen, for the frame codec probe.
    biggest: Option<WireRows>,
    finish: Finish,
}

struct ClientCtx<'a> {
    addr: SocketAddr,
    workload: Workload,
    conn: usize,
    begin: Instant,
    t0: Instant,
    t1: Instant,
    replay: Option<ReplayCtx<'a>>,
}

fn wire_call(wire: &mut WireClient, op: &Op) -> Result<Option<WireRows>, RsError> {
    match op.kind {
        Kind::Read => wire.query(&op.sql).map(Some),
        Kind::Write { .. } | Kind::Ddl => wire.execute(&op.sql).map(|_| None),
    }
}

fn client(
    ctx: ClientCtx<'_>,
    mut source: Box<dyn Source>,
    mut tracer: Option<&mut Tracer>,
) -> Result<ClientReport, RsError> {
    let cpu0 = thread_cpu_ms();
    let mut rep = ClientReport::default();
    let mut wire = WireClient::connect(
        ctx.addr,
        format!("bench{}", ctx.conn),
        ctx.workload.user_group(),
    )?;
    if ctx.workload.result_cache_off() {
        wire.set("enable_result_cache_for_session", "off")?;
    }
    let mut reads = 0u64;
    let mut stmt = 0u64;
    while Instant::now() < ctx.t1 {
        let op = source.next(ctx.begin.elapsed());
        stmt += 1;
        let stmt_id = ((ctx.conn as u64) << 32) | stmt;
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("client.stmt", None, stmt_id));
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("frontdoor.wire", root, stmt_id));
        let start = Instant::now();
        let mut outcome = wire_call(&mut wire, &op);
        let mut retries = 0;
        while retries < MAX_RETRIES && outcome.as_ref().is_err_and(RsError::is_retryable) {
            retries += 1;
            outcome = wire_call(&mut wire, &op);
        }
        let end = Instant::now();
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
        let in_window = start >= ctx.t0 && end <= ctx.t1;
        let right = match &outcome {
            Ok(rows) => source.reply(&op, rows.as_ref()),
            Err(_) => {
                source.failed(&op);
                false
            }
        };
        if in_window {
            let ms = (end - start).as_secs_f64() * 1e3;
            rep.attempted += 1;
            rep.retries += retries as u64;
            rep.failed += !right as u64;
            rep.wrong += (outcome.is_ok() && !right) as u64;
            match op.kind {
                Kind::Read => rep.read_ms.push(ms),
                Kind::Write { rows, .. } => {
                    rep.write_ms.push(ms);
                    if outcome.is_ok() {
                        rep.rows_loaded += rows;
                    }
                }
                Kind::Ddl => {}
            }
        }
        if let (Kind::Write { bytes, .. }, Ok(_)) = (op.kind, &outcome) {
            rep.csv_loaded += bytes;
        }
        if let (Kind::Read, Ok(Some(rows))) = (op.kind, outcome) {
            reads += 1;
            if let (Some(rc), Some(t)) = (&ctx.replay, tracer.as_deref_mut()) {
                if in_window && reads.is_multiple_of(REPLAY_EVERY) {
                    let wire_ns = (end - start).as_nanos() as u64;
                    rep.replays
                        .push(rc.replay(t, root, stmt_id, &op, &rows, wire_ns));
                }
            }
            if ctx.replay.is_some()
                && rep
                    .biggest
                    .as_ref()
                    .is_none_or(|b| b.rows.len() < rows.rows.len())
            {
                rep.biggest = Some(rows);
            }
        }
        if let (Some(t), Some(r)) = (tracer.as_deref_mut(), root) {
            t.close(r);
        }
    }
    wire.bye()?;
    rep.finish = source.finish();
    rep.cpu_ms = thread_cpu_ms() - cpu0;
    Ok(rep)
}

/// `crash()` → `recover()` → every acked write is there.
struct Durability {
    checked: u64,
    missing: u64,
    recover_ms: f64,
    /// The durable log at the crash, and what checkpoints had already
    /// reclaimed from it: together, every log byte written.
    wal_bytes: u64,
    wal_reclaimed: u64,
    backlog_blocks: u64,
    drain_ms: f64,
    /// Everything put into the cluster's S3 once the backlog is drained.
    s3_bytes_in: u64,
}

fn durability(cluster: &Arc<Cluster>, finishes: &[Finish]) -> Result<Durability, RsError> {
    let store = cluster.replicated_store();
    let backlog_blocks = store.map_or(0, |s| s.backup_backlog()) as u64;
    let t = Instant::now();
    if let Some(s) = store {
        s.drain_backup_queue()?;
    }
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    let s3_bytes_in = cluster.s3().stats(&cluster.config().region).bytes_in;
    let wal_reclaimed = cluster.trace().counter_value("wal.bytes_reclaimed");
    let mut d = Durability {
        checked: 0,
        missing: 0,
        recover_ms: 0.0,
        wal_bytes: 0,
        wal_reclaimed,
        backlog_blocks,
        drain_ms,
        s3_bytes_in,
    };
    let checks: Vec<_> = finishes.iter().flat_map(|f| &f.durable).collect();
    if checks.is_empty() {
        return Ok(d);
    }
    let t = Instant::now();
    let image = cluster.crash()?;
    d.wal_bytes = image.wal_len() as u64;
    let recovered = Cluster::recover(image)?;
    for (n, check) in checks.iter().enumerate() {
        let ok = recovered
            .query(&check.sql)
            .is_ok_and(|r| answer_of(&r.rows) == check.want);
        if n == 0 {
            // Recovery is over when the first answer is back and right.
            d.recover_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        d.checked += 1;
        d.missing += !ok as u64;
    }
    recovered.shutdown();
    Ok(d)
}

fn err(context: &str) -> impl Fn(RsError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// One timed set-up: launch, stage, CREATE, COPY. Rendering the CSV is
/// the harness's work and stays outside the clock.
fn setup_once(inputs: &Inputs, name: &str) -> Result<(f64, Loaded), String> {
    let staging = inputs.staging();
    let t = Instant::now();
    let loaded = load(name, staging).map_err(err("set-up"))?;
    Ok((t.elapsed().as_secs_f64(), loaded))
}

/// What a `--setup-only` child does: one set-up, its seconds on stdout.
pub fn setup_only(cfg: &RunCfg) -> Result<(), String> {
    let inputs = Inputs::generate(cfg.workload, cfg.seed, WARMUP.as_secs() + cfg.seconds);
    let (secs, loaded) = setup_once(&inputs, cfg.workload.name())?;
    if !loaded.verified {
        return Err("set-up verification failed".into());
    }
    println!("{secs}");
    Ok(())
}

fn spawn_setup(cfg: &RunCfg) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", cfg.workload.name()])
        .args([
            "--seed",
            &cfg.seed.to_string(),
            "--seconds",
            &cfg.seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child's output: {e}"))
}

fn warm_cores(cores: usize) {
    let until = Instant::now() + CORE_WARMUP;
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                let mut n = 0u64;
                while Instant::now() < until {
                    n = std::hint::black_box(n + 1);
                }
            });
        }
    });
}

pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let w = cfg.workload;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = CONNECTIONS.min(cores);
    let mut notes = Vec::new();
    if conns < CONNECTIONS {
        notes.push(format!(
            "only {cores} core(s): running {conns} connection(s), not {CONNECTIONS}; \
             results are not comparable with the reference box"
        ));
    }
    let inputs = Inputs::generate(w, cfg.seed, WARMUP.as_secs() + cfg.seconds);
    let digest = schedule_digest(&inputs, cfg.seed, conns, 64);

    // Set-up, several times over: the median is steadier than one
    // reading. Each is timed in a process of its own — a second set-up
    // in a process whose allocator has already grown and shrunk by a
    // whole cluster runs up to 2.5x slower, which no user ever sees —
    // and this process's own, the last, is the one the run uses.
    warm_cores(cores);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_CHILDREN {
        setup_s.push(spawn_setup(cfg)?);
    }
    let (secs, loaded) = setup_once(&inputs, w.name())?;
    setup_s.push(secs);
    notes.push(format!(
        "set-ups, s: {setup_s:.3?} (the last is this process's)"
    ));
    let Loaded {
        cluster,
        csv_bytes,
        staged_bytes,
        stored_bytes,
        verified,
    } = loaded;
    let catalog = if cfg.traced {
        Some(ledger::mirror_catalog(&cluster, &inputs)?)
    } else {
        None
    };

    let door =
        FrontDoor::serve(Arc::clone(&cluster), ServerOpts::default()).map_err(err("serve"))?;
    let begin = Instant::now();
    let t0 = begin + WARMUP;
    let t1 = t0 + Duration::from_secs(cfg.seconds);
    let mut tracers: Vec<Tracer> = if cfg.traced {
        (0..conns).map(|_| Tracer::new(begin)).collect()
    } else {
        Vec::new()
    };

    let mut window = None;
    let reports: Vec<Result<ClientReport, RsError>> = std::thread::scope(|s| {
        let mut tracer_slots = tracers.iter_mut();
        let handles: Vec<_> = sources(&inputs, cfg.seed, conns)
            .into_iter()
            .enumerate()
            .map(|(conn, source)| {
                let tracer = tracer_slots.next();
                let ctx = ClientCtx {
                    addr: door.addr(),
                    workload: w,
                    conn,
                    begin,
                    t0,
                    t1,
                    replay: catalog.as_ref().map(|c| ReplayCtx::new(&cluster, c, w)),
                };
                s.spawn(move || client(ctx, source, tracer))
            })
            .collect();
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let (cpu0, c0) = (process_cpu_ms(), Counters::read(&cluster));
        std::thread::sleep(t1.saturating_duration_since(Instant::now()));
        window = Some((process_cpu_ms() - cpu0, Counters::read(&cluster).since(&c0)));
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(RsError::Execution("client thread panicked".into())))
            })
            .collect()
    });
    let (cpu_ms, counters) = window.expect("set inside the scope");
    let mut reports: Vec<ClientReport> = reports
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(err("client"))?;

    // Probes run against the live cluster, after the window and before
    // the front door closes.
    let biggest = reports
        .iter_mut()
        .filter_map(|r| r.biggest.take())
        .max_by_key(|r| r.rows.len());
    let probes = match &catalog {
        Some(cat) => Some(ledger::probes(
            &cluster,
            &door,
            cat,
            &inputs,
            cfg.seed,
            biggest,
            &mut tracers[0],
        )?),
        None => None,
    };
    let records_dropped = cluster.trace().records_evicted();
    if !door.drain() {
        notes.push("front door did not drain within its wait".into());
    }
    drop(door);

    let finishes: Vec<Finish> = reports
        .iter_mut()
        .map(|r| std::mem::take(&mut r.finish))
        .collect();
    let replays: Vec<Replay> = reports
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.replays))
        .collect();
    let dur = durability(&cluster, &finishes).map_err(err("crash/recover"))?;
    cluster.shutdown();
    drop(cluster);

    // ---- totals --------------------------------------------------------
    let secs = cfg.seconds as f64;
    let reads = sorted(
        reports
            .iter()
            .flat_map(|r| r.read_ms.iter().copied())
            .collect(),
    );
    let writes = sorted(
        reports
            .iter()
            .flat_map(|r| r.write_ms.iter().copied())
            .collect(),
    );
    let sum = |f: fn(&ClientReport) -> u64| reports.iter().map(f).sum::<u64>();
    let kept_checked: u64 = finishes.iter().map(|f| f.checked).sum();
    let kept_wrong: u64 = finishes.iter().map(|f| f.wrong).sum();
    let statements = sum(|r| r.attempted);
    let attempted = statements + dur.checked + !verified as u64;
    let wrong = sum(|r| r.wrong) + kept_wrong + !verified as u64;
    let failed = sum(|r| r.failed) + kept_wrong + dur.missing + !verified as u64;
    let correct = wrong == 0 && dur.missing == 0;
    let rows_loaded = sum(|r| r.rows_loaded);
    let (primary, primary_name) = if w.primary_is_write() {
        (&writes, "COPY")
    } else {
        (&reads, "SELECT")
    };

    println!(
        "{} seed={} schedule={digest:016x} statements={statements} reads={} writes={} checked_after={kept_checked} durable_checks={} \
         attempted={attempted} failed={failed} wrong={wrong} missing_after_recover={} retries={}",
        w.name(),
        cfg.seed,
        reads.len(),
        writes.len(),
        dur.checked,
        dur.missing,
        sum(|r| r.retries),
    );

    let mut metrics = Vec::new();
    // With too few samples beyond it the tail is not a property of the
    // program; the value is still printed (the driver wants every
    // metric every run) and the note says not to read it.
    let tail = |xs: &[f64], notes: &mut Vec<String>, what: &str| -> f64 {
        percentile(xs, 0.95).unwrap_or_else(|| {
            notes.push(format!(
                "{what}: p95 has fewer than ten samples beyond it (n={}); reporting the maximum",
                xs.len()
            ));
            xs.last().copied().unwrap_or(0.0)
        })
    };

    if !cfg.traced {
        let values = [
            (
                median(&sorted(setup_s.clone())).unwrap_or(0.0),
                setup_s.len(),
            ),
            (median(primary).unwrap_or(0.0), primary.len()),
            (tail(primary, &mut notes, primary_name), primary.len()),
            (primary.len() as f64 / secs, primary.len()),
            (cpu_ms / statements.max(1) as f64, statements as usize),
            (peak_rss_mib(), 0),
            (stored_bytes as f64 / csv_bytes.max(1) as f64, 0),
        ];
        // In the order of the table, which names them.
        for (def, (value, samples)) in END_TO_END.iter().zip(values) {
            metrics.push(Metric {
                name: def.name.to_string(),
                value,
                unit: def.unit,
                samples,
            });
        }
        // Hand the rate to the traced run, which reports its slowdown.
        let _ = std::fs::create_dir_all(&cfg.out_dir);
        let _ = std::fs::write(
            cfg.out_dir.join(format!("untraced-{}.txt", w.name())),
            format!("{}\n", primary.len() as f64 / secs),
        );
    } else {
        let probes = probes.expect("traced runs probe");
        let mut m: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        ledger::fold(&replays, &counters, &probes, &mut m, &mut notes, w);

        let client_cpu: f64 = reports.iter().map(|r| r.cpu_ms).sum();
        let user_bytes = (csv_bytes + sum(|r| r.csv_loaded)).max(1) as f64;
        let mut set = |k: &str, v: f64, n: usize| {
            m.insert(k.to_string(), (v, n));
        };
        set("core.txn_conflicts", counters.txn_conflicts as f64, 0);
        set("core.write_retries", sum(|r| r.retries) as f64, 0);
        set("core.recover_ms", dur.recover_ms, dur.checked as usize);
        set("core.crash_wal_bytes", dur.wal_bytes as f64, 0);
        set(
            "storage.wal_bytes_per_user_byte",
            (dur.wal_bytes + dur.wal_reclaimed) as f64 / user_bytes,
            0,
        );
        set(
            "replication.backup_backlog_blocks",
            dur.backlog_blocks as f64,
            0,
        );
        set("replication.backup_drain_ms", dur.drain_ms, 0);
        // What the program itself wrote to S3: all bytes in, less the CSV
        // the harness staged there.
        let backed_up = dur
            .s3_bytes_in
            .saturating_sub(staged_bytes + probes.staged_bytes);
        set(
            "replication.s3_bytes_per_user_byte",
            backed_up as f64 / user_bytes,
            0,
        );
        set("obs.records_dropped", records_dropped as f64, 0);
        set("client.read_samples", reads.len() as f64, 0);
        set("client.write_samples", writes.len() as f64, 0);
        set("client.gen_cpu_share", client_cpu / cpu_ms.max(1e-9), 0);
        set(
            "client.read_p50_ms",
            median(&reads).unwrap_or(0.0),
            reads.len(),
        );
        set(
            "client.read_p95_ms",
            percentile(&reads, 0.95).unwrap_or(0.0),
            reads.len(),
        );
        set("client.reads_per_s", reads.len() as f64 / secs, reads.len());
        set(
            "client.write_p50_ms",
            median(&writes).unwrap_or(0.0),
            writes.len(),
        );
        set(
            "client.write_p95_ms",
            percentile(&writes, 0.95).unwrap_or(0.0),
            writes.len(),
        );
        set(
            "client.rows_loaded_per_s",
            rows_loaded as f64 / secs,
            writes.len(),
        );
        set(
            "client.failed_share",
            failed as f64 / attempted.max(1) as f64,
            attempted as usize,
        );
        // Tracing's cost: this run's rate against the untraced run's.
        let rate = primary.len() as f64 / secs;
        let untraced =
            std::fs::read_to_string(cfg.out_dir.join(format!("untraced-{}.txt", w.name())))
                .ok()
                .and_then(|s| s.trim().parse::<f64>().ok());
        match untraced {
            Some(u) if rate > 0.0 => set("obs.traced_slowdown", u / rate, primary.len()),
            _ => {
                notes.push(
                    "no untraced run in benchmark/out to compare with: obs.traced_slowdown reads 0"
                        .into(),
                );
                set("obs.traced_slowdown", 0.0, 0);
            }
        }
        for def in per_layer() {
            let (value, samples) = m.get(&def.name).copied().unwrap_or((0.0, 0));
            metrics.push(Metric {
                name: def.name,
                value,
                unit: def.unit,
                samples,
            });
        }
        let spans = trace::merge(tracers);
        let _ = std::fs::create_dir_all(&cfg.out_dir);
        let path = cfg.out_dir.join(format!("trace-{}.jsonl", w.name()));
        std::fs::write(&path, trace::to_jsonl(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        notes.extend(ledger::span_table(&spans));
    }

    Ok(RunResult {
        workload: w,
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}
