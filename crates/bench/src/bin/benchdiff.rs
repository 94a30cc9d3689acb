//! Compare two bench-run CSVs (as written by the testkit bench harness
//! into `results/`) and fail on p50 regressions beyond a threshold.
//! `--p99` gates the tail instead — useful with the histogram exports,
//! where a flat median can hide a blown-out p99.
//!
//! ```text
//! benchdiff [--threshold PCT] [--p99] BASE.csv NEW.csv
//! ```
//!
//! Exit codes: `0` no regression beyond threshold, `1` at least one
//! regression, `2` usage / IO / parse error. Benches present in only
//! one file are reported but never fail the run (the suite is allowed
//! to grow and shrink); only matched `(group, bench, input)` pairs
//! gate.
//!
//! Used by `ci.sh` as a smoke test, and by EXPERIMENTS.md's perf-diff
//! recipe to keep refactors honest:
//!
//! ```text
//! cargo bench --offline -p redsim-bench --bench scan_kernels
//! cp results/scan_kernels.csv /tmp/base.csv
//! # ... hack hack hack ...
//! cargo bench --offline -p redsim-bench --bench scan_kernels
//! cargo run --offline -p redsim-bench --bin benchdiff -- /tmp/base.csv results/scan_kernels.csv
//! ```

use redsim_testkit::bench::{diff_stat, fmt_ns, parse_csv, DiffStat};
use std::process::ExitCode;

const USAGE: &str = "usage: benchdiff [--threshold PCT] [--p99] BASE.csv NEW.csv";
const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

fn main() -> ExitCode {
    let mut threshold = DEFAULT_THRESHOLD_PCT;
    let mut stat = DiffStat::P50;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--p99" => stat = DiffStat::P99,
            "--threshold" | "-t" => {
                let Some(v) = args.next() else {
                    eprintln!("error: --threshold needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                match v.parse::<f64>() {
                    Ok(p) if p >= 0.0 => threshold = p,
                    _ => {
                        eprintln!("error: bad threshold {v:?} (want a non-negative percent)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("  --threshold PCT  fail on regressions above PCT percent (default {DEFAULT_THRESHOLD_PCT})");
                println!("  --p99            gate the p99 tail instead of the p50 median");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            f => files.push(f.to_string()),
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let load = |path: &str| -> Result<_, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_csv(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let (common, only_base, only_new) = diff_stat(&base, &new, stat);
    println!(
        "benchdiff: {} matched, {} only in base, {} only in new ({} threshold {threshold}%)",
        common.len(),
        only_base.len(),
        only_new.len(),
        stat.label()
    );
    let mut regressions = 0usize;
    for d in &common {
        let verdict = if d.delta_pct > threshold {
            regressions += 1;
            "REGRESSION"
        } else if d.delta_pct < -threshold {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {:<52} {} {:>9} -> {:>9}  {:+7.1}%  {verdict}",
            d.key,
            stat.label(),
            fmt_ns(d.base_ns),
            fmt_ns(d.new_ns),
            d.delta_pct
        );
    }
    for k in &only_base {
        println!("  {k:<52} (removed — present only in base)");
    }
    for k in &only_new {
        println!("  {k:<52} (new — present only in new)");
    }
    if regressions > 0 {
        eprintln!(
            "benchdiff: {regressions} {} regression(s) beyond {threshold}%",
            stat.label()
        );
        return ExitCode::FAILURE;
    }
    println!("benchdiff: no {} regressions beyond {threshold}%", stat.label());
    ExitCode::SUCCESS
}
