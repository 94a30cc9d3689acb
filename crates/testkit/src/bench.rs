//! A measurement harness with criterion's API shape — warmup,
//! fixed sample counts, p50/p99/mean/min/max, optional throughput —
//! writing aligned text to stdout and CSV (plus optional JSON summary)
//! into the workspace `results/` directory.
//!
//! The six bench binaries build a [`Bench`], register functions through
//! [`Group::bench_function`] / [`Group::bench_with_input`] exactly like
//! criterion groups, declare their gates with [`Bench::ratio`], and call
//! [`Bench::finish`]. A gate is a ratio of two arms' p50 timed in the same
//! run, so the box's speed cancels; `finish` prints every ratio and exits
//! non-zero when one breaks its bound (DESIGN.md §2).
//!
//! One tuning: 10 samples of ~25 ms per arm after a 20 ms warmup.
//! `RSIM_RESULTS_DIR=<dir>` overrides the report directory.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Record {
    pub group: String,
    pub bench: String,
    pub input: String,
    pub samples: usize,
    pub iters_per_sample: u64,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    /// Elements processed per iteration, if declared via
    /// [`Group::throughput_elems`].
    pub throughput_elems: Option<u64>,
}

impl Record {
    /// Elements per second at the mean, when throughput was declared.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.throughput_elems.map(|n| n as f64 * 1e9 / self.mean_ns.max(1e-9))
    }
}

/// The one tuning: samples per arm, warmup, and the time one sample aims at.
const SAMPLES: usize = 10;
const WARMUP: Duration = Duration::from_millis(20);
const TARGET_SAMPLE: Duration = Duration::from_millis(25);

/// One in-run gate: the p50 of the `num` arm over that of the `den` arm,
/// each named by (group, bench, input), at most `max`.
struct Ratio {
    num: [String; 3],
    den: [String; 3],
    max: f64,
    why: String,
}

impl Ratio {
    /// One printed line. A missing arm or a NaN ratio never holds.
    fn judge(&self, records: &[Record]) -> (bool, String) {
        let p50 = |[g, b, i]: &[String; 3]| {
            records.iter().find(|r| (&r.group, &r.bench, &r.input) == (g, b, i)).map(|r| r.p50_ns)
        };
        let value = p50(&self.num).zip(p50(&self.den)).map(|(num, den)| num / den);
        let holds = value.is_some_and(|v| v <= self.max);
        let shown = value.map_or("missing arm".to_string(), |v| format!("{v:.3}"));
        let [num, den] = [&self.num, &self.den].map(|[g, b, i]| display_label(g, b, i));
        let verdict = if holds { "ok" } else { "BROKEN" };
        (holds, format!("ratio {num} / {den} = {shown} (max {}) {verdict}: {}", self.max, self.why))
    }
}

/// The harness: owns results and report paths. One per bench binary.
pub struct Bench {
    name: String,
    records: Vec<Record>,
    ratios: Vec<Ratio>,
    results_dir: PathBuf,
    json_out: Option<PathBuf>,
}

impl Bench {
    pub fn new(name: impl Into<String>) -> Bench {
        let results_dir = default_results_dir();
        Bench { name: name.into(), records: Vec::new(), ratios: Vec::new(), results_dir, json_out: None }
    }

    /// Gate this run: `num`'s p50 over `den`'s must be at most `max`, each
    /// arm named by `[group, bench, input]`; `why` is the question the row
    /// answers. Checked by [`Bench::finish`].
    pub fn ratio(&mut self, num: [&str; 3], den: [&str; 3], max: f64, why: &str) -> &mut Self {
        self.ratios.push(Ratio {
            num: num.map(String::from),
            den: den.map(String::from),
            max,
            why: why.to_string(),
        });
        self
    }

    /// Print every ratio row; `Err` names the rows that broke.
    fn check(&self) -> Result<(), String> {
        let mut broken = Vec::new();
        for row in &self.ratios {
            let (holds, line) = row.judge(&self.records);
            println!("{line}");
            if !holds {
                broken.push(line);
            }
        }
        if broken.is_empty() {
            Ok(())
        } else {
            Err(format!("{} of {} ratio rows broke:\n{}", broken.len(), self.ratios.len(), broken.join("\n")))
        }
    }

    /// Override the report directory (tests use a temp dir).
    pub fn results_dir(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.results_dir = dir.into();
        self
    }

    /// Also write a machine-readable JSON summary to `path` (relative
    /// paths resolve against the workspace root / results parent).
    pub fn json_summary_to(&mut self, path: impl Into<PathBuf>) -> &mut Self {
        let p: PathBuf = path.into();
        self.json_out = Some(if p.is_absolute() {
            p
        } else {
            self.results_dir.parent().map(|d| d.join(&p)).unwrap_or(p)
        });
        self
    }

    /// Begin a named group (criterion's `benchmark_group`).
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            bench: self,
            name: name.into(),
            sample_size: None,
            throughput_elems: None,
            arms: Vec::new(),
        }
    }

    /// Summarize and print one arm that ran.
    fn record(&mut self, group: &str, arm: &Arm<'_>) {
        let Some(iters) = arm.bencher.iters else {
            // Routine never called `iter` — record nothing.
            return;
        };
        let rec = summarize(group, &arm.bench, &arm.input, iters, &arm.bencher.samples_ns, arm.throughput_elems);
        let label = display_label(group, &arm.bench, &arm.input);
        let tput = rec
            .elems_per_sec()
            .map(|e| format!("  thrpt: {}/s", fmt_count_f(e)))
            .unwrap_or_default();
        println!(
            "{label:<52} time: [p50 {:>9} p99 {:>9} mean {:>9}]{tput}",
            fmt_ns(rec.p50_ns),
            fmt_ns(rec.p99_ns),
            fmt_ns(rec.mean_ns),
        );
        self.records.push(rec);
    }

    /// Write `results/<name>.csv` (+ JSON summary if requested), then
    /// print every ratio row and exit the process with status 1 if one
    /// broke. Returns the records.
    pub fn finish(self) -> Vec<Record> {
        if let Err(e) = std::fs::create_dir_all(&self.results_dir) {
            eprintln!("[testkit::bench] cannot create {}: {e}", self.results_dir.display());
        }
        let csv_path = self.results_dir.join(format!("{}.csv", self.name));
        match std::fs::write(&csv_path, self.to_csv()) {
            Ok(()) => println!("wrote {}", csv_path.display()),
            Err(e) => eprintln!("[testkit::bench] cannot write {}: {e}", csv_path.display()),
        }
        if let Some(json_path) = &self.json_out {
            match std::fs::write(json_path, self.to_json()) {
                Ok(()) => println!("wrote {}", json_path.display()),
                Err(e) => eprintln!("[testkit::bench] cannot write {}: {e}", json_path.display()),
            }
        }
        println!();
        if let Err(broken) = self.check() {
            eprintln!("error: {}: {broken}", self.name);
            std::process::exit(1);
        }
        self.records
    }

    /// The ns columns in the shortest form that parses back to the same
    /// `f64`: a fixed decimal would round a ~1 ns mean by up to 5 %.
    fn to_csv(&self) -> String {
        let mut out = String::from(
            "group,bench,input,samples,iters_per_sample,p50_ns,p99_ns,mean_ns,min_ns,max_ns,elems_per_sec\n",
        );
        for r in &self.records {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                csv_field(&r.group),
                csv_field(&r.bench),
                csv_field(&r.input),
                r.samples,
                r.iters_per_sample,
                r.p50_ns,
                r.p99_ns,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                r.elems_per_sec().map(|e| format!("{e:.0}")).unwrap_or_default(),
            )
            .expect("write to string");
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"harness\": {},", json_str(&self.name)).unwrap();
        writeln!(out, "  \"generated_unix\": {unix},").unwrap();
        writeln!(out, "  \"benches\": [").unwrap();
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"group\": {}, \"bench\": {}, \"input\": {}, \"samples\": {}, \
                 \"iters_per_sample\": {}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
                 \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{comma}",
                json_str(&r.group),
                json_str(&r.bench),
                json_str(&r.input),
                r.samples,
                r.iters_per_sample,
                r.p50_ns,
                r.p99_ns,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
            )
            .unwrap();
        }
        writeln!(out, "  ]").unwrap();
        writeln!(out, "}}").unwrap();
        out
    }
}

/// A named group of benchmarks (criterion's `BenchmarkGroup`). Its arms
/// run at [`Group::finish`], their iterations interleaved.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: Option<usize>,
    throughput_elems: Option<u64>,
    arms: Vec<Arm<'a>>,
}

/// One registered routine and what it has measured so far.
struct Arm<'a> {
    bench: String,
    input: String,
    throughput_elems: Option<u64>,
    routine: Box<dyn FnMut(&mut Bencher) + 'a>,
    bencher: Bencher,
}

impl<'a> Group<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Declare elements-processed-per-iteration for throughput reporting.
    pub fn throughput_elems(&mut self, n: u64) -> &mut Self {
        self.throughput_elems = Some(n);
        self
    }

    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher) + 'a) {
        self.add(id.into(), String::new(), Box::new(f));
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &'a I,
        mut f: impl FnMut(&mut Bencher, &I) + 'a,
    ) {
        self.add(id.function, id.parameter, Box::new(move |b| f(b, input)));
    }

    fn add(&mut self, bench: String, input: String, routine: Box<dyn FnMut(&mut Bencher) + 'a>) {
        // criterion semantics: sample_size(10) means 10 samples.
        let samples = self.sample_size.map_or(SAMPLES, |n| SAMPLES.min(n.max(2)));
        let bencher = Bencher { samples, iters: None, done: 0, timed: Duration::ZERO, samples_ns: Vec::new() };
        self.arms.push(Arm { bench, input, throughput_elems: self.throughput_elems, routine, bencher });
    }

    /// Run the arms: each routine is called once to warm up and calibrate,
    /// then once per timed iteration. Every round takes one sample of each
    /// arm, their iterations interleaved: the next one is always the arm
    /// furthest behind, so each sample spans the whole round. A slow spell
    /// of the box then lands on every arm alike, and a ratio of two arms'
    /// p50 cancels it.
    pub fn finish(mut self) {
        for arm in &mut self.arms {
            (arm.routine)(&mut arm.bencher);
        }
        for round in 0..SAMPLES {
            let mut taking: Vec<&mut Arm<'_>> = self.arms.iter_mut()
                .filter(|a| a.bencher.iters.is_some() && round < a.bencher.samples)
                .collect();
            loop {
                let behind = taking.iter_mut().filter(|a| a.bencher.left() > 0).min_by(|a, b| {
                    let (a, b) = (&a.bencher, &b.bencher);
                    (a.done * b.iters.unwrap_or(1)).cmp(&(b.done * a.iters.unwrap_or(1)))
                });
                let Some(arm) = behind else { break };
                let left = arm.bencher.left();
                (arm.routine)(&mut arm.bencher);
                assert!(arm.bencher.left() < left, "a routine times one iteration on every call");
            }
            for arm in taking {
                arm.bencher.end_sample();
            }
        }
        for arm in &self.arms {
            self.bench.record(&self.name, arm);
        }
    }
}

/// Function + parameter label (criterion's `BenchmarkId`).
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    pub fn new(function: impl ToString, parameter: impl ToString) -> BenchmarkId {
        BenchmarkId { function: function.to_string(), parameter: parameter.to_string() }
    }
}

/// Passed to the routine; call [`Bencher::iter`] with the hot closure.
/// The first call warms up and calibrates the iterations per sample; each
/// later call times one iteration.
pub struct Bencher {
    samples: usize,
    /// Iterations per sample, once calibrated.
    iters: Option<u64>,
    /// Iterations and their time in the sample being taken.
    done: u64,
    timed: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Iterations the sample being taken still needs.
    fn left(&self) -> u64 {
        self.iters.map_or(0, |n| n - self.done)
    }

    fn end_sample(&mut self) {
        let iters = self.iters.expect("only calibrated arms take samples");
        self.samples_ns.push(self.timed.as_nanos() as f64 / iters as f64);
        (self.done, self.timed) = (0, Duration::ZERO);
    }

    /// `once()` runs one iteration and returns the time it counts.
    /// Calibration goes by the wall time of whole iterations (untimed setup
    /// included).
    fn measure(&mut self, mut once: impl FnMut() -> Duration) {
        if self.iters.is_some() {
            self.timed += once();
            self.done += 1;
            return;
        }
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_iters == 0 || (warm_start.elapsed() < WARMUP && warm_iters < 1_000) {
            once();
            warm_iters += 1;
        }
        let per_iter_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        let iters = (TARGET_SAMPLE.as_nanos() as f64 / per_iter_ns) as u64;
        self.iters = Some(iters.clamp(1, 10_000_000));
    }

    /// Time `f`, `iters` calls per sample.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        self.measure(|| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        });
    }

    /// Like [`Bencher::iter`], but every iteration gets a fresh input
    /// from `setup`, whose time is not counted (criterion's
    /// `iter_batched`): for routines that consume or dirty their input,
    /// such as the n-th COPY into a table.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        self.measure(|| {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            t.elapsed()
        });
    }
}

fn summarize(
    group: &str,
    bench: &str,
    input: &str,
    iters: u64,
    samples_ns: &[f64],
    throughput_elems: Option<u64>,
) -> Record {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
    let n = sorted.len();
    let pct = |p: f64| sorted[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1];
    Record {
        group: group.to_string(),
        bench: bench.to_string(),
        input: input.to_string(),
        samples: n,
        iters_per_sample: iters,
        mean_ns: sorted.iter().sum::<f64>() / n as f64,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        min_ns: sorted[0],
        max_ns: sorted[n - 1],
        throughput_elems,
    }
}

fn display_label(group: &str, bench: &str, input: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for p in [group, bench, input] {
        if !p.is_empty() {
            parts.push(p);
        }
    }
    parts.join("/")
}

/// Human-scale nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn fmt_count_f(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `results/` under the workspace root: `RSIM_RESULTS_DIR` if set, else
/// walk up from the current directory to the `[workspace]` Cargo.toml.
/// Public so bench binaries that emit their own CSVs (e.g. the workload
/// replay report) land them next to the harness-written ones.
pub fn default_results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("RSIM_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return dir.join("results");
            }
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "testkit-bench-{tag}-{}-{}",
            std::process::id(),
            crate::rng::entropy_seed()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn bench_in(name: &str, dir: &Path) -> Bench {
        let mut b = Bench::new(name);
        b.results_dir(dir);
        b
    }

    #[test]
    fn end_to_end_csv_and_stats() {
        let dir = temp_dir("csv");
        let mut b = bench_in("unit", &dir);
        let mut g = b.group("math");
        g.sample_size(5);
        g.bench_with_input(BenchmarkId::new("sum", "1k"), &1000u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
        let records = b.finish();
        assert_eq!(records.len(), 2);
        for r in &records {
            assert!(r.min_ns <= r.p50_ns && r.p50_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
            assert!(r.mean_ns > 0.0);
            assert_eq!(r.samples, 5);
            assert!(r.iters_per_sample >= 1);
        }
        let csv = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert!(csv.starts_with("group,bench,input,"));
        assert_eq!(csv.lines().count(), 3, "{csv}");
        assert!(csv.contains("math,sum,1k,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_summary_written_and_escaped() {
        let dir = temp_dir("json");
        let mut b = bench_in("jsum", &dir);
        let json_path = dir.join("BENCH_test.json");
        b.json_summary_to(&json_path);
        let mut g = b.group("");
        g.bench_function("quote\"in\"name", |b| b.iter(|| 2 * 2));
        g.finish();
        b.finish();
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"harness\": \"jsum\""));
        assert!(json.contains("quote\\\"in\\\"name"));
        assert!(json.contains("\"p50_ns\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn iter_batched_times_the_routine_only() {
        let dir = temp_dir("batched");
        let mut b = bench_in("batched", &dir);
        let mut setups = 0u64;
        let mut g = b.group("");
        g.bench_function("cheap_routine_slow_setup", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    std::thread::sleep(Duration::from_micros(300));
                    setups
                },
                |n| n + 1,
            )
        });
        g.finish();
        let records = b.finish();
        assert!(setups > records[0].samples as u64, "fresh input per iteration");
        assert!(records[0].p50_ns < 100_000.0, "setup's 300 µs leaked in: {:?}", records[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn throughput_reported() {
        let dir = temp_dir("tput");
        let mut b = bench_in("tput", &dir);
        let mut g = b.group("scan");
        g.throughput_elems(10_000);
        g.bench_function("rows", |b| b.iter(|| std::hint::black_box(42)));
        g.finish();
        let records = b.finish();
        let eps = records[0].elems_per_sec().unwrap();
        assert!(eps > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1_500.0), "1.50µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_200_000_000.0), "3.20s");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    fn record(bench: &str, p50_ns: f64) -> Record {
        Record {
            group: "g".into(),
            bench: bench.into(),
            input: String::new(),
            samples: 3,
            iters_per_sample: 1,
            mean_ns: p50_ns,
            p50_ns,
            p99_ns: p50_ns,
            min_ns: p50_ns,
            max_ns: p50_ns,
            throughput_elems: None,
        }
    }

    /// A run with the arms `fast` and `slow` and one row `fast / slow <= max`.
    fn gated(fast: f64, slow: f64, max: f64) -> Bench {
        let mut b = Bench::new("gated");
        b.records = vec![record("fast", fast), record("slow", slow)];
        b.ratio(["g", "fast", ""], ["g", "slow", ""], max, "fast beats slow");
        b
    }

    #[test]
    fn a_ratio_row_fails_over_its_bound_on_a_missing_arm_and_on_nan() {
        assert_eq!(gated(10.0, 100.0, 0.1).check(), Ok(()));
        let over = gated(11.0, 100.0, 0.1).check().unwrap_err();
        assert!(over.contains("g/fast / g/slow = 0.110 (max 0.1) BROKEN"), "{over}");
        let mut missing = gated(10.0, 100.0, 0.1);
        missing.records.pop();
        assert!(missing.check().unwrap_err().contains("missing arm"));
        let mut misnamed = gated(10.0, 100.0, 0.1);
        misnamed.ratio(["g", "fast", ""], ["g", "slow", "1k"], 1.0, "an input no arm ran");
        assert!(misnamed.check().unwrap_err().starts_with("1 of 2 ratio rows broke"));
        // 0 / 0: NaN compares false with everything, and must not pass.
        let nan = gated(0.0, 0.0, f64::INFINITY).check().unwrap_err();
        assert!(nan.contains("= NaN"), "{nan}");
    }
}
