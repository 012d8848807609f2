//! # streamfreq-bench
//!
//! The experiment harness that regenerates every figure of Anderson et
//! al. (IMC 2017). Each figure has a binary under `src/bin/`; Criterion
//! micro-benchmarks live under `benches/`. DESIGN.md carries the full
//! experiment index; EXPERIMENTS.md records paper-vs-measured results.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_runtime` | Figure 1 — runtime of SMED/SMIN/RBMC/MHE, equal-space & equal-counters |
//! | `fig2_error` | Figure 2 — maximum error of the four algorithms |
//! | `fig3_quantile_sweep` | Figure 3 — time & error vs purge quantile |
//! | `fig4_merge` | Figure 4 — merge throughput vs ACH+13 / Hoa61 |
//! | `space_table` | §2.3.3's 24k-byte formula & §4.1's ~70× vs exact |
//! | `sketch_vs_counters` | §1.3's "counter-based beats sketches" |
//! | `adversarial_ablation` | §1.3.4's RBMC worst case vs SMED |
//! | `merge_clustering` | §3.2 Note — randomized vs sequential merge order |
//! | `fig_temporal` | temporal-layer ingest (decayed + windowed) vs plain batch, → `BENCH_temporal.json` |
//!
//! All binaries accept `--updates N` (stream length; default 10 M for the
//! trace experiments), `--quick` (1 M), and `--full` (the paper's 126.2 M)
//! and print tab-separated rows suitable for plotting.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

use std::time::{Duration, Instant};

use streamfreq_baselines::{ExactCounter, Rbmc, SpaceSavingHeap};
use streamfreq_core::{FreqSketch, FrequencyEstimator, ItemsSketch, PurgePolicy};
use streamfreq_workloads::WeightedUpdate;

/// The algorithms compared in Figures 1–3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// The paper's recommended sketch (sample median purge).
    Smed,
    /// Sample-minimum purge (accuracy-leaning variant).
    Smin,
    /// Sample-quantile purge at an arbitrary quantile (Figure 3 sweep).
    Quantile(f64),
    /// Algorithm 3: exact k/2-th largest purge (MED).
    Med,
    /// Berinde et al. reduce-by-min-counter.
    Rbmc,
    /// Min-heap Space Saving for weighted updates.
    Mhe,
}

impl Algo {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Algo::Smed => "SMED".into(),
            Algo::Smin => "SMIN".into(),
            Algo::Quantile(q) => format!("Q{:02.0}", q * 100.0),
            Algo::Med => "MED".into(),
            Algo::Rbmc => "RBMC".into(),
            Algo::Mhe => "MHE".into(),
        }
    }
}

/// Enum-dispatched runner so one measurement loop serves every algorithm.
enum Runner {
    Sketch(FreqSketch),
    Rbmc(Rbmc),
    Mhe(SpaceSavingHeap),
}

impl Runner {
    fn new(algo: Algo, k: usize) -> Runner {
        match algo {
            Algo::Smed => Runner::Sketch(
                FreqSketch::builder(k)
                    .policy(PurgePolicy::smed())
                    .grow_from_small(false)
                    .build()
                    .expect("invalid k"),
            ),
            Algo::Smin => Runner::Sketch(
                FreqSketch::builder(k)
                    .policy(PurgePolicy::smin())
                    .grow_from_small(false)
                    .build()
                    .expect("invalid k"),
            ),
            Algo::Quantile(q) => Runner::Sketch(
                FreqSketch::builder(k)
                    .policy(PurgePolicy::sample_quantile(q))
                    .grow_from_small(false)
                    .build()
                    .expect("invalid k"),
            ),
            Algo::Med => Runner::Sketch(
                FreqSketch::builder(k)
                    .policy(PurgePolicy::med())
                    .grow_from_small(false)
                    .build()
                    .expect("invalid k"),
            ),
            Algo::Rbmc => Runner::Rbmc(Rbmc::new(k)),
            Algo::Mhe => Runner::Mhe(SpaceSavingHeap::new(k)),
        }
    }

    fn update(&mut self, item: u64, weight: u64) {
        match self {
            Runner::Sketch(s) => s.update(item, weight),
            Runner::Rbmc(r) => r.update(item, weight),
            Runner::Mhe(m) => m.update(item, weight),
        }
    }

    fn estimate(&self, item: u64) -> u64 {
        match self {
            Runner::Sketch(s) => s.estimate(item),
            Runner::Rbmc(r) => r.estimate(item),
            Runner::Mhe(m) => m.estimate(item),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Runner::Sketch(s) => s.memory_bytes(),
            Runner::Rbmc(r) => r.memory_bytes(),
            Runner::Mhe(m) => m.memory_bytes(),
        }
    }
}

/// Outcome of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Algorithm display name.
    pub algo: String,
    /// Counters configured.
    pub k: usize,
    /// Bytes of summary state.
    pub memory_bytes: usize,
    /// Wall time for the full update pass.
    pub elapsed: Duration,
    /// Updates per second.
    pub updates_per_sec: f64,
    /// Maximum absolute estimation error over all distinct items
    /// (only measured when ground truth is supplied).
    pub max_error: Option<u64>,
}

/// Runs `algo` with `k` counters over `stream`, timing the update pass and
/// (when `truth` is given) measuring the maximum absolute error of the
/// algorithm's estimates over every distinct item.
pub fn run_algo(
    algo: Algo,
    k: usize,
    stream: &[WeightedUpdate],
    truth: Option<&ExactCounter>,
) -> RunResult {
    let mut runner = Runner::new(algo, k);
    let start = Instant::now();
    for &(item, weight) in stream {
        runner.update(item, weight);
    }
    let elapsed = start.elapsed();
    let max_error = truth.map(|t| t.max_abs_error(|item| runner.estimate(item)));
    RunResult {
        algo: algo.name(),
        k,
        memory_bytes: runner.memory_bytes(),
        elapsed,
        updates_per_sec: stream.len() as f64 / elapsed.as_secs_f64(),
        max_error,
    }
}

/// How a [`FreqSketch`]-family summary ingests a stream — the three
/// layers of the ingestion pipeline compared by `fig1_runtime`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IngestMode {
    /// One `FreqSketch::update` call per stream element.
    Scalar,
    /// One `FreqSketch::update_batch` call over the whole slice
    /// (home precompute + software prefetch + folded bookkeeping).
    Batch,
    /// A `ShardedSketch` bank ingesting with `threads` scoped threads
    /// over `shards` hash-partitioned shards.
    Sharded {
        /// Number of hash-partitioned shards in the bank.
        shards: usize,
        /// Scoped ingestion threads (clamped to `shards`).
        threads: usize,
    },
    /// An `ItemsSketch<u64>` driving the same generic engine through the
    /// by-value item path — measures the abstraction overhead of the
    /// generic core against the `u64`-specialized `FreqSketch` wrapper
    /// (state-identical by construction; only the dispatch differs).
    Generic,
}

impl IngestMode {
    /// Display name (`scalar`, `batch`, `sharded8x4`, …).
    pub fn name(&self) -> String {
        match self {
            IngestMode::Scalar => "scalar".into(),
            IngestMode::Batch => "batch".into(),
            IngestMode::Sharded { shards, threads } => format!("sharded{shards}x{threads}"),
            IngestMode::Generic => "items_u64".into(),
        }
    }
}

/// Outcome of one ingestion-pipeline measurement.
#[derive(Clone, Debug)]
pub struct IngestResult {
    /// Mode display name.
    pub mode: String,
    /// Workload display name.
    pub workload: String,
    /// Counters per sketch (per shard in sharded modes).
    pub k: usize,
    /// Ingestion threads (1 for scalar/batch).
    pub threads: usize,
    /// Stream updates processed.
    pub updates: usize,
    /// Wall time for the ingestion pass.
    pub seconds: f64,
    /// Updates per second.
    pub updates_per_sec: f64,
    /// Checksum (Σ lower bounds over probed items) so the compiler cannot
    /// discard the work and runs can be sanity-compared.
    pub checksum: u64,
}

/// Runs one ingestion measurement of `mode` with `k` counters over
/// `stream`, labeling the result with `workload`.
pub fn run_ingest(
    mode: IngestMode,
    k: usize,
    stream: &[WeightedUpdate],
    workload: &str,
) -> IngestResult {
    use streamfreq_core::ShardedSketch;
    let probe: Vec<u64> = stream.iter().take(64).map(|&(i, _)| i).collect();
    let (seconds, checksum, threads) = match mode {
        IngestMode::Scalar => {
            let mut s = FreqSketch::builder(k)
                .grow_from_small(false)
                .build()
                .expect("invalid k");
            let start = Instant::now();
            for &(item, w) in stream {
                s.update(item, w);
            }
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|&i| s.lower_bound(i)).sum(), 1)
        }
        IngestMode::Batch => {
            let mut s = FreqSketch::builder(k)
                .grow_from_small(false)
                .build()
                .expect("invalid k");
            let start = Instant::now();
            s.update_batch(stream);
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|&i| s.lower_bound(i)).sum(), 1)
        }
        IngestMode::Generic => {
            let mut s: ItemsSketch<u64> = ItemsSketch::builder(k)
                .grow_from_small(false)
                .build()
                .expect("invalid k");
            let start = Instant::now();
            s.update_batch(stream);
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|i| s.lower_bound(i)).sum(), 1)
        }
        IngestMode::Sharded { shards, threads } => {
            let mut bank = ShardedSketch::builder(shards, k)
                .grow_from_small(false)
                .build()
                .expect("invalid sharded config");
            let start = Instant::now();
            bank.ingest_parallel(stream, threads);
            let secs = start.elapsed().as_secs_f64();
            (
                secs,
                probe.iter().map(|i| bank.lower_bound(i)).sum(),
                threads,
            )
        }
    };
    IngestResult {
        mode: mode.name(),
        workload: workload.to_string(),
        k,
        threads,
        updates: stream.len(),
        seconds,
        updates_per_sec: stream.len() as f64 / seconds,
        checksum,
    }
}

/// [`run_ingest`] repeated `reps` times, keeping the median-throughput
/// run — measurement noise on small VMs easily exceeds the effects being
/// measured, and the median of three is stable enough to trend.
pub fn run_ingest_median(
    mode: IngestMode,
    k: usize,
    stream: &[WeightedUpdate],
    workload: &str,
    reps: usize,
) -> IngestResult {
    assert!(reps > 0);
    let mut runs: Vec<IngestResult> = (0..reps)
        .map(|_| run_ingest(mode, k, stream, workload))
        .collect();
    runs.sort_by(|a, b| {
        a.updates_per_sec
            .partial_cmp(&b.updates_per_sec)
            .expect("throughput is never NaN")
    });
    runs.swap_remove(runs.len() / 2)
}

/// Serializes ingestion results as a JSON trajectory file (hand-rolled —
/// the offline workspace has no JSON library). Layout:
///
/// ```json
/// {
///   "bench": "fig1_ingest_pipeline",
///   "updates": 1000000,
///   "hardware_threads": 8,
///   "results": [ {"mode": "...", "workload": "...", ...}, ... ]
/// }
/// ```
pub fn ingest_results_to_json(updates: usize, results: &[IngestResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fig1_ingest_pipeline\",\n");
    out.push_str(&format!("  \"updates\": {updates},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"workload\": \"{}\", \"k\": {}, \"threads\": {}, \
             \"updates\": {}, \"seconds\": {:.6}, \"updates_per_sec\": {:.1}, \
             \"checksum\": {}}}{}\n",
            r.mode,
            r.workload,
            r.k,
            r.threads,
            r.updates,
            r.seconds,
            r.updates_per_sec,
            r.checksum,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Builds the exact ground truth for a stream.
pub fn exact_of(stream: &[WeightedUpdate]) -> ExactCounter {
    let mut e = ExactCounter::new();
    for &(item, weight) in stream {
        e.update(item, weight);
    }
    e
}

/// The five counter budgets of §4's experiments (1.5k, 3k, 6k, 12k, 24k
/// counters in units of 1024).
pub const PAPER_K_VALUES: [usize; 5] = [1_536, 3_072, 6_144, 12_288, 24_576];

/// Standard command-line scale handling for the figure binaries:
/// `--quick` = 1 M updates, `--full` = the paper's 126.2 M,
/// `--updates N` = explicit, default 10 M.
pub fn parse_scale_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--quick") {
        return 1_000_000;
    }
    if args.iter().any(|a| a == "--full") {
        return 126_200_000;
    }
    if let Some(pos) = args.iter().position(|a| a == "--updates") {
        if let Some(n) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
            return n;
        }
        eprintln!("--updates requires a positive integer argument");
        std::process::exit(2);
    }
    10_000_000
}

/// Parses `--pairs N` style optional integer flags.
pub fn parse_flag(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == name) {
        if let Some(n) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
            return n;
        }
        eprintln!("{name} requires a positive integer argument");
        std::process::exit(2);
    }
    default
}

/// Formats a tab-separated header + prints it.
pub fn print_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Human-readable byte count (KiB/MiB).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_stream() -> Vec<WeightedUpdate> {
        (0..50_000u64).map(|i| (i % 700, i % 13 + 1)).collect()
    }

    #[test]
    fn run_algo_measures_all_algorithms() {
        let stream = tiny_stream();
        let truth = exact_of(&stream);
        for algo in [Algo::Smed, Algo::Smin, Algo::Med, Algo::Rbmc, Algo::Mhe] {
            let r = run_algo(algo, 64, &stream, Some(&truth));
            assert!(
                r.updates_per_sec > 0.0,
                "{:?} reported zero throughput",
                algo
            );
            assert!(r.memory_bytes > 0);
            let err = r.max_error.expect("truth supplied");
            assert!(
                err <= truth.stream_weight(),
                "{:?} error {err} exceeds stream weight",
                algo
            );
        }
    }

    #[test]
    fn error_shrinks_with_k() {
        let stream = tiny_stream();
        let truth = exact_of(&stream);
        let small = run_algo(Algo::Smed, 32, &stream, Some(&truth))
            .max_error
            .unwrap();
        let large = run_algo(Algo::Smed, 512, &stream, Some(&truth))
            .max_error
            .unwrap();
        assert!(
            large < small,
            "error must shrink with k: {large} !< {small}"
        );
    }

    #[test]
    fn equal_space_helpers_are_consistent() {
        let bytes = 24 * 1024 * 24; // SMED with k = 24576... scaled: k=1024 → 24 KiB·24
        let k_mhe = SpaceSavingHeap::counters_for_bytes(bytes);
        let mhe = SpaceSavingHeap::new(k_mhe);
        assert!(
            mhe.memory_bytes() <= bytes + bytes / 10,
            "MHE overshoots budget"
        );
        assert!(
            k_mhe < 24 * 1024,
            "MHE must get fewer counters for equal space"
        );
    }

    #[test]
    fn fmt_bytes_is_readable() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 << 20).contains("MiB"));
    }

    #[test]
    fn quantile_algo_names() {
        assert_eq!(Algo::Quantile(0.5).name(), "Q50");
        assert_eq!(Algo::Quantile(0.98).name(), "Q98");
        assert_eq!(Algo::Smed.name(), "SMED");
    }
}
