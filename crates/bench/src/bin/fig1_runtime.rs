//! Figure 1 — runtime comparison of SMED, SMIN, RBMC, MHE on the packet
//! trace, in both the equal-counters and equal-space regimes.
//!
//! Paper shapes to reproduce (§4.3): SMED 5.5–8.7× faster than MHE,
//! 6.5–30× faster than SMIN, 20–70× faster than RBMC; gaps shrink as k
//! grows.
//!
//! The trailing panels go beyond the paper: they compare the ingestion
//! layers (scalar updates, the prefetching batch path, the sharded
//! multi-thread bank, and the generic-engine `ItemsSketch<u64>` path —
//! the abstraction-overhead column for the unified core) on Zipf and
//! adversarial workloads, and record the numbers in `BENCH_fig1.json` so
//! future changes can be checked for throughput regressions.
//!
//! ```text
//! cargo run --release -p streamfreq-bench --bin fig1_runtime \
//!     [--quick|--full|--updates N] [--json PATH] [--pipeline-only]
//!     [--smoke] [--profile]
//! ```
//!
//! `--smoke` shrinks the panel to one small counter budget with a single
//! repetition — a seconds-long CI guard that the bench binaries still
//! build and run end to end.
//!
//! `--profile` runs only the batch-mode Zipf ingest with the engine's
//! per-phase timers enabled and prints where the seconds go (probe /
//! purge / grow), so a throughput regression localizes without
//! an external profiler.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use streamfreq_baselines::SpaceSavingHeap;
use streamfreq_bench::{
    ingest_results_to_json, parse_scale_args, print_header, run_algo, run_ingest_median, Algo,
    IngestMode, IngestResult, PAPER_K_VALUES,
};
use streamfreq_workloads::{heavy_light_interleave, materialize_zipf, CaidaConfig, SyntheticCaida};

/// Counter budgets for the ingestion-pipeline panel: the paper's largest
/// configuration (table ≈ 576 KiB, already beyond L2) and a
/// production-scale configuration whose table (≈ 72 MiB) lives in DRAM —
/// the regime the prefetching batch path targets.
const PIPELINE_KS: [usize; 2] = [24_576, 2_097_152];

/// Median-of-N repetitions per measurement (VM timing noise easily
/// exceeds 10%; the median of three is stable enough to trend).
const PIPELINE_REPS: usize = 3;

/// Runs the scalar/batch/sharded/generic comparison over one workload
/// and appends rows + records. Sharded modes get `k / shards` counters
/// per shard, so every mode manages the same total counter state; hash
/// partitioning also splits the distinct items about evenly, so the
/// per-shard error level matches the unsharded sketch's. The `items_u64`
/// mode runs the identical batch workload through `ItemsSketch<u64>` —
/// the generic engine's abstraction-overhead column vs `FreqSketch`.
fn pipeline_panel(
    workload: &str,
    stream: &[(u64, u64)],
    ks: &[usize],
    reps: usize,
    results: &mut Vec<IngestResult>,
) {
    for &k in ks {
        let modes = [
            IngestMode::Scalar,
            IngestMode::Batch,
            IngestMode::Generic,
            IngestMode::Sharded {
                shards: 8,
                threads: 1,
            },
            IngestMode::Sharded {
                shards: 8,
                threads: 2,
            },
            IngestMode::Sharded {
                shards: 8,
                threads: 4,
            },
            IngestMode::Sharded {
                shards: 8,
                threads: 8,
            },
        ];
        let mut scalar_rate = 0.0f64;
        for mode in modes {
            let k_per_sketch = match mode {
                IngestMode::Sharded { shards, .. } => k / shards,
                _ => k,
            };
            let r = run_ingest_median(mode, k_per_sketch, stream, workload, reps);
            if mode == IngestMode::Scalar {
                scalar_rate = r.updates_per_sec;
            }
            println!(
                "{workload}\t{k}\t{}\t{}\t{:.3}\t{:.3e}\t{:.2}x",
                r.mode,
                r.threads,
                r.seconds,
                r.updates_per_sec,
                r.updates_per_sec / scalar_rate
            );
            results.push(r);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let updates = if smoke { 200_000 } else { parse_scale_args() };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|p| args.get(p + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fig1.json".to_string());
    let pipeline_only = args.iter().any(|a| a == "--pipeline-only") || smoke;
    let (ks, reps): (Vec<usize>, usize) = if smoke {
        (vec![4_096], 1)
    } else {
        (PIPELINE_KS.to_vec(), PIPELINE_REPS)
    };

    if args.iter().any(|a| a == "--profile") {
        profile_breakdown(updates, &ks);
        return;
    }

    if !pipeline_only {
        figure1_panels(updates);
    }

    // Ingestion pipeline: scalar vs batch vs sharded vs generic engine,
    // Zipf + adversarial.
    println!();
    println!("# Ingestion pipeline: scalar vs batch vs sharded vs items_u64");
    print_header(&[
        "workload",
        "k_total",
        "mode",
        "threads",
        "seconds",
        "updates_per_sec",
        "vs_scalar",
    ]);
    let mut results: Vec<IngestResult> = Vec::new();

    // Zipf(0.8) over a 2^27 universe: heavy enough that real heavy
    // hitters exist, light enough that the cold tail dominates table
    // traffic — the regime line-rate telemetry actually sees.
    eprintln!("generating Zipf(0.8) stream: {updates} updates ...");
    let zipf = materialize_zipf(updates, 1 << 27, 0.8, 1_500, 42);
    pipeline_panel("zipf", &zipf, &ks, reps, &mut results);
    drop(zipf);

    // Adversarial: a permanently-full table probed by fresh unit items —
    // the purge-heavy worst case for the capacity discipline.
    eprintln!("generating adversarial interleave stream ...");
    // Sized to the smallest benched k so its table is permanently full
    // (ks[0] == PIPELINE_KS[0] in the full run, the smoke k otherwise).
    let adversarial = heavy_light_interleave(ks[0], updates / 2, 1_000_000);
    pipeline_panel("adversarial", &adversarial, &ks, reps, &mut results);
    drop(adversarial);

    let json = ingest_results_to_json(updates, &results);
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    if smoke {
        smoke_tripwire(&results);
    }
}

/// `--smoke` CI tripwire over the pipeline panel: the unsharded modes
/// must agree on every answer (the batch sweep and the generic engine
/// are pinned state-identical to the scalar path, so a checksum drift
/// is a correctness bug, not noise), and the batch path must not be
/// catastrophically slower than scalar. The rate bound is deliberately
/// loose (0.5×) because shared CI runners easily show 2× timing noise
/// at smoke scale — it exists to catch an accidental O(n²) or a
/// disabled batch path, not to benchmark.
fn smoke_tripwire(results: &[IngestResult]) {
    let mut workloads: Vec<&str> = results.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for workload in workloads {
        let row = |mode: &str| {
            results
                .iter()
                .find(|r| r.workload == workload && r.mode == mode)
                .unwrap_or_else(|| panic!("missing {workload}/{mode} row"))
        };
        let scalar = row("scalar");
        for mode in ["batch", "items_u64"] {
            let r = row(mode);
            assert_eq!(
                r.checksum, scalar.checksum,
                "{workload}: {mode} checksum diverged from scalar"
            );
        }
        let batch = row("batch");
        assert!(
            batch.updates_per_sec >= 0.5 * scalar.updates_per_sec,
            "{workload}: batch path catastrophically slow \
             ({:.3e}/s vs scalar {:.3e}/s)",
            batch.updates_per_sec,
            scalar.updates_per_sec
        );
    }
    eprintln!("smoke tripwire passed: checksums identical, batch rate sane");
}

/// `--profile`: batch-mode Zipf ingest with the engine's per-phase
/// timers on. The phase columns sum to slightly less than `total_s`
/// (chunking, bookkeeping, and timer overhead land in `other_s`).
fn profile_breakdown(updates: usize, ks: &[usize]) {
    use streamfreq_core::FreqSketch;
    println!("# Ingest profile: batch mode, Zipf(0.8), per-phase seconds");
    print_header(&[
        "k",
        "total_s",
        "probe_s",
        "purge_s",
        "grow_s",
        "other_s",
        "updates_per_sec",
    ]);
    eprintln!("generating Zipf(0.8) stream: {updates} updates ...");
    let zipf = materialize_zipf(updates, 1 << 27, 0.8, 1_500, 42);
    for &k in ks {
        let mut s = FreqSketch::builder(k)
            .grow_from_small(false)
            .build()
            .expect("invalid k");
        s.engine_mut().enable_ingest_profile();
        // Warm up on a prefix so every scratch buffer (rehash pairs,
        // purge sampler, compaction) reaches
        // its steady-state capacity, then require the rest of the run
        // to allocate nothing: steady-state ingest is O(1)-alloc. The
        // purge-path buffers only exist once the table first fills, so
        // the warmup must cover at least a couple of purges (or half
        // the stream, if k is large enough that purges never come).
        let mut warmup = 0usize;
        while warmup < zipf.len() / 2 && (s.num_purges() < 2 || warmup < 200_000) {
            let take = (zipf.len() / 2 - warmup).min(100_000);
            s.update_batch(&zipf[warmup..warmup + take]);
            warmup += take;
        }
        let caps_after_warmup = s.engine().ingest_scratch_capacities();
        s.engine_mut().take_ingest_profile(); // drop warmup phases
        let start = std::time::Instant::now();
        s.update_batch(&zipf[warmup..]);
        let total = start.elapsed().as_secs_f64();
        // The per-batch buffers (rehash pairs, purge sampler) must be
        // exactly stable — the hot path
        // allocates nothing after warmup. The purge compaction gap
        // buffer is amortized instead: it doubles geometrically toward
        // the worst gap count actually seen, so it may still take a
        // final doubling after warmup, but can never pass table length.
        let caps = s.engine().ingest_scratch_capacities();
        assert_eq!(
            caps[..2],
            caps_after_warmup[..2],
            "steady-state ingest reallocated per-batch scratch (k = {k})"
        );
        assert!(
            caps[2] <= s.num_counters().next_power_of_two() * 2,
            "compaction scratch outgrew the table (k = {k}, cap {})",
            caps[2]
        );
        let p = s
            .engine_mut()
            .take_ingest_profile()
            .expect("profiling enabled above");
        let (probe, purge, grow) = (
            p.probe.as_secs_f64(),
            p.purge.as_secs_f64(),
            p.grow.as_secs_f64(),
        );
        println!(
            "{k}\t{total:.3}\t{probe:.3}\t{purge:.3}\t{grow:.3}\t{:.3}\t{:.3e}",
            (total - probe - purge - grow).max(0.0),
            (zipf.len() - warmup) as f64 / total
        );
    }
}

/// The original Figure 1 panels: SMED/SMIN/RBMC/MHE on the packet trace.
fn figure1_panels(updates: usize) {
    let config = CaidaConfig::scaled(updates);
    eprintln!(
        "generating synthetic CAIDA-like trace: {} updates, {} flows ...",
        config.num_updates, config.num_flows
    );
    let stream = SyntheticCaida::materialize(&config);
    let n: u64 = stream.iter().map(|&(_, w)| w).sum();
    eprintln!("weighted length N = {n}");

    // One timed run per (algo, k); reused by every panel below.
    let algos = [Algo::Smed, Algo::Smin, Algo::Rbmc, Algo::Mhe];
    let mut secs: HashMap<(String, usize), f64> = HashMap::new();

    println!("# Figure 1a: equal number of counters k");
    print_header(&["k", "algo", "seconds", "updates_per_sec", "memory_bytes"]);
    for &k in &PAPER_K_VALUES {
        for algo in algos {
            let r = run_algo(algo, k, &stream, None);
            secs.insert((r.algo.clone(), k), r.elapsed.as_secs_f64());
            println!(
                "{k}\t{}\t{:.3}\t{:.3e}\t{}",
                r.algo,
                r.elapsed.as_secs_f64(),
                r.updates_per_sec,
                r.memory_bytes
            );
        }
    }

    println!();
    println!("# Figure 1b: equal space (MHE gets fewer counters for the same bytes)");
    print_header(&["budget_bytes", "algo", "k", "seconds", "updates_per_sec"]);
    for &k in &PAPER_K_VALUES {
        let budget = 24 * k; // bytes used by the table-based algorithms
        for algo in [Algo::Smed, Algo::Smin, Algo::Rbmc] {
            let t = secs[&(algo.name(), k)];
            println!(
                "{budget}\t{}\t{k}\t{t:.3}\t{:.3e}",
                algo.name(),
                stream.len() as f64 / t
            );
        }
        let k_mhe = SpaceSavingHeap::counters_for_bytes(budget);
        let r = run_algo(Algo::Mhe, k_mhe, &stream, None);
        println!(
            "{budget}\t{}\t{k_mhe}\t{:.3}\t{:.3e}",
            r.algo,
            r.elapsed.as_secs_f64(),
            r.updates_per_sec
        );
    }

    println!();
    println!("# Speedup summary (equal counters)");
    print_header(&["k", "SMED_vs_MHE", "SMED_vs_SMIN", "SMED_vs_RBMC"]);
    for &k in &PAPER_K_VALUES {
        let smed = secs[&("SMED".to_string(), k)];
        println!(
            "{k}\t{:.1}x\t{:.1}x\t{:.1}x",
            secs[&("MHE".to_string(), k)] / smed,
            secs[&("SMIN".to_string(), k)] / smed,
            secs[&("RBMC".to_string(), k)] / smed,
        );
    }
}
