//! `rsbench` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! rsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! rsbench [--seed <n>] [--quick]                                     the full set, one process per run
//! rsbench --selfcheck [--seed <n>] [--quick]                         the full set twice, compared
//! rsbench --compare A.json B.json                                    compare two result files
//! rsbench --print-benchmark-json                                     the text of BENCHMARK.json
//! ```

mod data;
mod json;
mod ledger;
mod metrics;
mod runner;
mod trace;
mod util;
mod workloads;

use json::Json;
use metrics::{Better, END_TO_END};
use runner::{RunCfg, RunResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// The measured window of one driver run; `BENCHMARK.json` says the same.
pub const DEFAULT_SECONDS: u64 = 20;
/// The full set's windows: what a claim is measured with.
const FULL_UNTRACED_SECONDS: u64 = 30;
const FULL_TRACED_SECONDS: u64 = 10;
/// `--quick`: smoke tests only, never a claim.
const QUICK_SECONDS: u64 = 3;

fn out_dir() -> PathBuf {
    // Beside the sources when run from the checkout root (the driver's
    // and run.sh's way); the current directory otherwise.
    let dir = Path::new("benchmark");
    if dir.is_dir() {
        dir.join("out")
    } else {
        PathBuf::from("out")
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &RunResult) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_run(r: &RunResult) {
    for m in &r.metrics {
        let n = if m.samples > 0 {
            format!("  n={}", m.samples)
        } else {
            String::new()
        };
        println!("{} {} {} {}{n}", r.workload.name(), m.name, m.value, m.unit);
    }
    println!(
        "{} failed_share {} ratio  failed={} attempted={}",
        r.workload.name(),
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for note in &r.notes {
        println!("{note}");
    }
    println!("{}", result_json(r).to_text());
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    compare: Option<(String, String)>,
    print_benchmark_json: bool,
    /// Internal: a run's set-up repetitions are children started so.
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            "--setup-only" => a.setup_only = true,
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// One child process per run, so no run inherits another's heap, caches
/// or peak RSS. Returns the child's result line.
fn spawn_run(w: Workload, seed: u64, seconds: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            w.name(),
            traced as u8,
            out.status
        ));
    }
    Json::parse(text.lines().last().unwrap_or_default())
}

/// The full set: four untraced windows, then four traced ones.
fn full_set(seed: u64, quick: bool) -> Result<Json, String> {
    let (untraced_s, traced_s) = if quick {
        (QUICK_SECONDS, QUICK_SECONDS)
    } else {
        (FULL_UNTRACED_SECONDS, FULL_TRACED_SECONDS)
    };
    let mut workloads = Vec::new();
    for traced in [false, true] {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            let line = spawn_run(w, seed, if traced { traced_s } else { untraced_s }, traced)?;
            if !traced {
                workloads.push((w.name().to_string(), Json::obj(vec![("end_to_end", line)])));
            } else if let Json::Obj(fields) = &mut workloads[i].1 {
                fields.push(("per_layer".into(), line));
            }
        }
    }
    Ok(Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("untraced_seconds", Json::Num(untraced_s as f64)),
        ("traced_seconds", Json::Num(traced_s as f64)),
        ("workloads", Json::Obj(workloads)),
    ]))
}

fn write_result(name: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(name);
    std::fs::write(&path, doc.to_text() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Per workload × end-to-end metric: B against A, against the metric's
/// bound. `failed` is compared absolutely: B may not fail more than A.
/// Returns the table and whether every pair is within its bound.
fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let mut lines = vec![format!(
        "{:<12} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    )];
    let mut ok = true;
    for w in Workload::ALL {
        let side = |doc: &Json| -> Result<Json, String> {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .and_then(|x| x.get("end_to_end"))
                .cloned()
                .ok_or_else(|| format!("no end_to_end result for {}", w.name()))
        };
        let (ra, rb) = (side(a)?, side(b)?);
        for m in END_TO_END {
            let value = |r: &Json| -> Result<f64, String> {
                r.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: no {}", w.name(), m.name))
            };
            let (va, vb) = (value(&ra)?, value(&rb)?);
            let worse = worsening(m.better, va, vb);
            let past = worse > m.bound;
            ok &= !past;
            lines.push(format!(
                "{:<12} {:<28} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}%{}",
                w.name(),
                m.name,
                va,
                vb,
                100.0 * worse,
                100.0 * m.bound,
                if past { "  PAST BOUND" } else { "" }
            ));
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let (fa, fb) = (failed(&ra), failed(&rb));
        let past = fb > fa || fb.is_nan() || fa.is_nan();
        ok &= !past;
        lines.push(format!(
            "{:<12} {:<28} {:>14} {:>14} {:>9} {:>7}{}",
            w.name(),
            "failed",
            fa,
            fb,
            "",
            "0 abs",
            if past { "  PAST BOUND" } else { "" }
        ));
    }
    Ok((lines, ok))
}

fn read_json(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let (lines, ok) = compare(&read_json(a)?, &read_json(b)?)?;
        lines.iter().for_each(|l| println!("{l}"));
        return Ok(ok);
    }
    if let Some(name) = &args.workload {
        let workload = Workload::parse(name).ok_or_else(|| {
            format!(
                "unknown workload {name:?}; known: {}",
                Workload::ALL.map(Workload::name).join(", ")
            )
        })?;
        let seconds = args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        });
        let cfg = RunCfg {
            workload,
            seed: args.seed,
            seconds,
            traced: args.trace,
            out_dir: out_dir(),
        };
        if args.setup_only {
            runner::setup_only(&cfg)?;
            return Ok(true);
        }
        print_run(&runner::run(&cfg)?);
        return Ok(true);
    }
    let first = full_set(args.seed, args.quick)?;
    println!("result: {}", write_result("result.json", &first)?.display());
    if !args.selfcheck {
        return Ok(true);
    }
    let second = full_set(args.seed, args.quick)?;
    println!(
        "result: {}",
        write_result("result-2.json", &second)?.display()
    );
    let (lines, ok) = compare(&first, &second)?;
    lines.iter().for_each(|l| println!("{l}"));
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rsbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(p50: f64, rate: f64, failed: f64) -> Json {
        let metric = |v: f64| {
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::Str("x".into())),
            ])
        };
        let run = |p50: f64, rate: f64| {
            let metrics = END_TO_END
                .iter()
                .map(|m| {
                    let v = match m.name {
                        "stmt_p50_ms" => p50,
                        "stmts_per_s" => rate,
                        _ => 1.0,
                    };
                    (m.name.to_string(), metric(v))
                })
                .collect();
            Json::obj(vec![(
                "end_to_end",
                Json::obj(vec![
                    ("failed", Json::Num(failed)),
                    ("metrics", Json::Obj(metrics)),
                ]),
            )])
        };
        let workloads = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), run(p50, rate)))
            .collect();
        Json::obj(vec![("workloads", Json::Obj(workloads))])
    }

    #[test]
    fn compare_respects_direction_and_bound() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (p50, rate) = (bound("stmt_p50_ms"), bound("stmts_per_s"));
        let base = doc(100.0, 50.0, 0.0);
        assert!(compare(&base, &base).unwrap().1);
        // Slower and fewer per second, each by half its bound: inside.
        let inside = doc(100.0 * (1.0 + p50 / 2.0), 50.0 * (1.0 - rate / 2.0), 0.0);
        assert!(compare(&base, &inside).unwrap().1);
        // Faster and more: never a regression, however large.
        assert!(compare(&base, &doc(10.0, 500.0, 0.0)).unwrap().1);
        let slower = doc(100.0 * (1.0 + p50 + 0.01), 50.0, 0.0);
        assert!(!compare(&base, &slower).unwrap().1, "p50 past its bound");
        let fewer = doc(100.0, 50.0 * (1.0 - rate - 0.01), 0.0);
        assert!(!compare(&base, &fewer).unwrap().1, "rate past its bound");
        assert!(
            !compare(&base, &doc(100.0, 50.0, 1.0)).unwrap().1,
            "any new failure is past the bound"
        );
        assert!(compare(&base, &Json::obj(vec![])).is_err());
    }

    #[test]
    fn arguments_parse_in_the_drivers_form() {
        let argv: Vec<String> = "--workload etl_load --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("etl_load"), 7, Some(20), true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
