//! The streamfreq benchmark: three workloads against the public API of
//! `streamfreq-core`, `streamfreq-cli` and `streamfreq-workloads`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload embedded|serve_durable|cluster_fanout|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run prints its metrics by name with their units, checks the
//! program's answers against exact counts, and ends each workload with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the workload runs
//! once untraced and once with spans around the benchmark's calls into
//! each layer, and the metrics are the per-layer set. The exit code is
//! non-zero when an answer check fails or a named percentile has too few
//! samples. `--workload all` runs each workload in a process of its own,
//! so that each one's `peak_rss_mb` is its own. See `perfbench/README.md`
//! for the workloads and metrics.

mod cluster_fanout;
mod embedded;
mod net;
mod schedule;
mod serve_durable;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use stats::{Samples, MIN_BEYOND};
use trace::Tracer;

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The program's own sampler seed. `--seed` never reaches it: only the
/// input generators and the query-item picks vary with the seed.
pub const PROGRAM_SEED: u64 = 7;

const WORKLOADS: [&str; 3] = ["embedded", "serve_durable", "cluster_fanout"];

/// End-to-end metrics, reported by every workload (`--trace 0`). The
/// workload-specific figures (merge rate, latency tails, recovery time)
/// are printed by name beside them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ingest_ups", "1/s"),
    ("query_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload (`--trace 1`). A layer
/// the workload does not run reports 0.
const PER_LAYER: [(&str, &str); 25] = [
    ("engine.update_batch_ns", "ns"),
    ("engine.purges", "count"),
    ("engine.purge_s", "s"),
    ("engine.probe_s", "s"),
    ("engine.aggregate_s", "s"),
    ("engine.grow_s", "s"),
    ("engine.merge_us", "us"),
    ("concurrent.publishes_per_s", "1/s"),
    ("concurrent.snapshot_counters", "count"),
    ("persist.wal_bytes_per_update", "B"),
    ("persist.wal_flushes", "count"),
    ("persist.frames_per_fsync", "count"),
    ("persist.replica_bytes", "B"),
    ("persist.replay_ups", "1/s"),
    ("serve.generator_lag_ms", "ms"),
    ("cluster.route_ns", "ns"),
    ("cluster.encode_ingest_us", "us"),
    ("cluster.connect_us", "us"),
    ("cluster.snap_rtt_us", "us"),
    ("cluster.snap_bytes", "B"),
    ("cluster.decode_us", "us"),
    ("cluster.merge_us", "us"),
    ("cluster.answer_us", "us"),
    ("cluster.unaccounted_us", "us"),
    ("trace_overhead", "ratio"),
];

/// What a workload gets to run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Per-run scratch directory inside the checkout.
    pub dir: PathBuf,
}

impl Ctx {
    /// A seed for generator `stream`, derived from `--seed`.
    pub fn seed_for(&self, stream: u64) -> u64 {
        // SplitMix64 finalizer over (seed, stream).
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines: every named metric with its unit.
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Answer checks that failed.
    pub wrong: Vec<String>,
    /// Run-validity problems (too few samples, backlog, ...).
    pub problems: Vec<String>,
}

impl Report {
    /// Records a figure under `name` and prints it with its unit. Only
    /// the names in the reported set reach the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(name.to_string(), value);
        self.lines.push(format!("{name} = {value:.6} {unit}"));
    }

    /// Prints a non-metric figure.
    pub fn note(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Reads percentile `q` of `samples`, prints it with its sample
    /// counts, and flags the run when fewer than ten samples lie beyond.
    pub fn percentile(&mut self, name: &str, samples: &Samples, q: f64) -> f64 {
        let p = samples.percentile(q);
        self.metrics.insert(name.to_string(), p.value);
        self.lines.push(format!(
            "{name} = {:.3} us (n={}, beyond={}, failed={})",
            p.value,
            p.samples,
            p.beyond,
            samples.failures()
        ));
        if p.beyond < MIN_BEYOND {
            self.problems.push(format!(
                "{name}: only {} of {} samples beyond the percentile (need {MIN_BEYOND})",
                p.beyond, p.samples
            ));
        }
        p.value
    }

    /// Counts one answer check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx) -> BoxResult<Report> {
    match name {
        "embedded" => embedded::run(ctx),
        "serve_durable" => serve_durable::run(ctx),
        "cluster_fanout" => cluster_fanout::run(ctx),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> BoxResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs one workload: untraced for the end-to-end set, or untraced then
/// traced for the per-layer set.
fn measure(
    name: &str,
    args: &Args,
) -> BoxResult<(Report, &'static [(&'static str, &'static str)])> {
    let scratch = PathBuf::from(".bench_tmp").join(format!("{name}-{}", std::process::id()));
    let ctx = |tracer: Tracer| -> BoxResult<Ctx> {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch)?;
        Ok(Ctx {
            seed: args.seed,
            seconds: args.seconds,
            tracer,
            dir: scratch.clone(),
        })
    };
    let outcome = (|| {
        let mut report = run_workload(name, &ctx(Tracer::new(false))?)?;
        report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        if !args.trace {
            return Ok((report, &END_TO_END[..]));
        }
        let untraced = report.metrics["ingest_ups"];
        let tracer = Tracer::new(true);
        let mut traced = run_workload(name, &ctx(tracer.clone())?)?;
        traced.attempted += report.attempted;
        traced.failed += report.failed;
        traced.wrong.append(&mut report.wrong);
        traced.problems.append(&mut report.problems);
        let ratio = traced.metrics["ingest_ups"] / untraced;
        traced.metric("trace_overhead", ratio, "traced/untraced ingest_ups");
        for (name, _) in PER_LAYER {
            traced.metrics.entry(name.to_string()).or_insert(0.0);
        }
        std::fs::create_dir_all(".bench_out")?;
        let path = Path::new(".bench_out").join(format!("trace-{name}-seed{}.tsv", args.seed));
        tracer.write(&path)?;
        traced.note(format!("spans written to {}", path.display()));
        Ok((traced, &PER_LAYER[..]))
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The run's result line: the metrics of `names`, in that order.
fn result_json(report: &Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(*name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// Runs every workload, each in a process of its own so that its
/// `peak_rss_mb` is its own; returns the exit code: 0 only when every
/// workload's is.
fn run_each_in_own_process(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find the benchmark executable: {e}");
            return 1;
        }
    };
    let mut exit = 0;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {name} exited with {s}");
                exit = 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                exit = 1;
            }
        }
    }
    exit
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_each_in_own_process(&args));
    }
    let name = args.workload.as_str();
    let (mut report, set) = match measure(name, &args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            std::process::exit(1);
        }
    };
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.note(format!(
        "fail_ratio = {fail_ratio} ({} of {} operations)",
        report.failed, report.attempted
    ));
    println!(
        "# workload {name} (seed {}, {} s, trace {})",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.lines {
        println!("{name} {line}");
    }
    for w in &report.wrong {
        println!("{name} WRONG ANSWER: {w}");
    }
    for p in &report.problems {
        println!("{name} INVALID RUN: {p}");
    }
    let mut exit = 0;
    if set
        .iter()
        .any(|(m, _)| !report.metrics.get(*m).is_some_and(|v| v.is_finite()))
    {
        println!("{name} INVALID RUN: a reported metric is missing or not finite");
        exit = 1;
    }
    if !report.wrong.is_empty() || !report.problems.is_empty() {
        exit = 1;
    }
    println!("{}", result_json(&report, set));
    std::process::exit(exit);
}
