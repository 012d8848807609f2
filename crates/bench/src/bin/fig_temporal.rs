//! Temporal-layer ingest throughput: decayed and windowed sketches over
//! the drifting-hot-set workload, recorded into `BENCH_temporal.json`.
//!
//! The temporal layer (`streamfreq-apps`' `DecayedSketch` and
//! `WindowedStore<K>`) rides the same engine core as every other
//! variant, so its ingest cost should be the engine's batch-path cost
//! plus the temporal bookkeeping: one `scale_counters` compaction per
//! epoch tick (decayed) or one serialize-and-reopen per bucket roll
//! (windowed). This bench measures exactly that overhead against the
//! plain `FreqSketch` batch path on the identical update sequence *fed
//! at the identical per-run granularity* (timestamps ignored) — plus a
//! `freq_oneshot` context row showing the whole-stream-in-one-call
//! ceiling — and records the rows so future engine changes can be
//! checked for temporal-path regressions.
//!
//! ```text
//! cargo run --release -p streamfreq-bench --bin fig_temporal -- \
//!     [--updates N] [--epochs E] [--json PATH] [--smoke]
//! ```
//!
//! `--smoke` shrinks to one small configuration — the CI guard that the
//! temporal binaries still run — and gates the batch paths against the
//! scalar control measured in the same run (see [`smoke_gate`]).

#![forbid(unsafe_code)]

use std::time::Instant;

use streamfreq_apps::{DecayedSketch, WindowedStore};
use streamfreq_bench::{parse_flag, print_header};
use streamfreq_core::FreqSketch;
use streamfreq_workloads::{materialize_drifting_zipf, tick_runs, DriftConfig, TimedUpdate};

/// Counter budgets: the paper's largest configuration and a larger
/// DRAM-resident table (the prefetching batch path's target regime).
const TEMPORAL_KS: [usize; 2] = [24_576, 262_144];

/// Median-of-N repetitions per measurement.
const TEMPORAL_REPS: usize = 3;

/// One measured temporal-ingest row.
struct TemporalResult {
    mode: &'static str,
    k: usize,
    epochs: u64,
    updates: usize,
    seconds: f64,
    updates_per_sec: f64,
    checksum: u64,
}

/// Runs one ingestion pass of `mode` and returns the measured row.
fn run_mode(
    mode: &'static str,
    k: usize,
    epochs: u64,
    stream: &[TimedUpdate],
    runs: &[(u64, std::ops::Range<usize>)],
    batch: &[(u64, u64)],
) -> TemporalResult {
    // Probe the stream's tail: the temporal modes deliberately forget the
    // early epochs, so only recent items make a meaningful checksum.
    let probe: Vec<u64> = stream
        .iter()
        .rev()
        .take(64)
        .map(|&(_, item, _)| item)
        .collect();
    let epoch_len = 1_000u64;
    let (seconds, checksum) = match mode {
        "decayed_batch" => {
            let mut s: DecayedSketch<u64> = DecayedSketch::new(k, epoch_len, (1, 2));
            let start = Instant::now();
            for (t, range) in runs {
                s.record_batch(*t, &batch[range.clone()]);
            }
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|i| s.lower_bound(i)).sum())
        }
        "decayed_lazy" => {
            // Same decayed semantics with per-tick scaling deferred:
            // epoch ticks fold into a pending scale in O(1) and updates
            // join forward-inflated, so the per-epoch counter sweep
            // disappears from the hot path.
            let mut s: DecayedSketch<u64> = DecayedSketch::new(k, epoch_len, (1, 2)).lazy();
            let start = Instant::now();
            for (t, range) in runs {
                s.record_batch(*t, &batch[range.clone()]);
            }
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|i| s.lower_bound(i)).sum())
        }
        "decayed_scalar" => {
            let mut s: DecayedSketch<u64> = DecayedSketch::new(k, epoch_len, (1, 2));
            let start = Instant::now();
            for &(t, item, w) in stream {
                s.record(t, item, w);
            }
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|i| s.lower_bound(i)).sum())
        }
        "windowed_batch" => {
            let mut s: WindowedStore<u64> = WindowedStore::new(epoch_len, k);
            let start = Instant::now();
            for (t, range) in runs {
                s.record_batch(*t, &batch[range.clone()]);
            }
            let secs = start.elapsed().as_secs_f64();
            let open = s
                .query_range(stream.last().map_or(0, |&(t, _, _)| t), u64::MAX)
                .expect("stored buckets are valid")
                .expect("open window exists");
            (secs, probe.iter().map(|i| open.lower_bound(i)).sum())
        }
        "freq_batch" => {
            // Baseline: the same updates through the plain engine batch
            // path at the same feeding granularity as the temporal modes
            // (one call per timestamp run, timestamps ignored). This is
            // the honest cost floor for the `vs_freq` ratios: the
            // temporal layers *cannot* see more than a run at a time, so
            // a one-shot baseline would charge them for the driver's
            // batch granularity, not for temporal bookkeeping. Engine
            // config matches the temporal wrappers exactly (default
            // grow-from-small) for the same reason.
            let mut s = FreqSketch::builder(k).build().expect("invalid k");
            let start = Instant::now();
            for (_, range) in runs {
                s.update_batch(&batch[range.clone()]);
            }
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|&i| s.lower_bound(i)).sum())
        }
        "freq_oneshot" => {
            // Context row: the whole stream in a single `update_batch`
            // call — the ceiling the engine reaches when a caller can
            // hand it arbitrarily large batches (fewer per-call fixed
            // costs).
            let mut s = FreqSketch::builder(k).build().expect("invalid k");
            let start = Instant::now();
            s.update_batch(batch);
            let secs = start.elapsed().as_secs_f64();
            (secs, probe.iter().map(|&i| s.lower_bound(i)).sum())
        }
        other => unreachable!("unknown mode {other}"),
    };
    TemporalResult {
        mode,
        k,
        epochs,
        updates: stream.len(),
        seconds,
        updates_per_sec: stream.len() as f64 / seconds,
        checksum,
    }
}

/// [`run_mode`] repeated `reps` times, keeping the median-throughput run.
fn run_mode_median(
    mode: &'static str,
    k: usize,
    epochs: u64,
    stream: &[TimedUpdate],
    runs: &[(u64, std::ops::Range<usize>)],
    batch: &[(u64, u64)],
    reps: usize,
) -> TemporalResult {
    assert!(reps > 0);
    let mut results: Vec<TemporalResult> = (0..reps)
        .map(|_| run_mode(mode, k, epochs, stream, runs, batch))
        .collect();
    results.sort_by(|a, b| {
        a.updates_per_sec
            .partial_cmp(&b.updates_per_sec)
            .expect("throughput is never NaN")
    });
    results.swap_remove(results.len() / 2)
}

fn results_to_json(updates: usize, results: &[TemporalResult]) -> String {
    let hardware_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fig_temporal_ingest\",\n");
    out.push_str(&format!("  \"updates\": {updates},\n"));
    // Recorded so absolute rates from differently-sized machines are
    // never compared as like-for-like.
    out.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    out.push_str("  \"workload\": \"drifting_zipf\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        // Normalize each row to the freq_batch floor *at the same k*:
        // the ratio is comparable across machines and VM-noise phases
        // even when the absolute rates are not.
        let floor = results
            .iter()
            .find(|f| f.k == r.k && f.mode == "freq_batch")
            .map(|f| f.updates_per_sec);
        let vs_freq = floor.map_or(String::from("null"), |f| {
            format!("{:.4}", r.updates_per_sec / f)
        });
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"k\": {}, \"epochs\": {}, \"updates\": {}, \
             \"seconds\": {:.6}, \"updates_per_sec\": {:.1}, \"vs_freq_batch\": {}, \
             \"checksum\": {}}}{}\n",
            r.mode,
            r.k,
            r.epochs,
            r.updates,
            r.seconds,
            r.updates_per_sec,
            vs_freq,
            r.checksum,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let updates = if smoke {
        200_000
    } else {
        parse_flag("--updates", 2_000_000)
    };
    let epochs = parse_flag("--epochs", 16) as u64;
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|p| args.get(p + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_temporal.json".to_string());
    // Smoke keeps the median of three: the gate compares rates from
    // runs of a few milliseconds each, where one run is too noisy.
    let (ks, reps): (Vec<usize>, usize) = if smoke {
        (vec![4_096], TEMPORAL_REPS)
    } else {
        (TEMPORAL_KS.to_vec(), TEMPORAL_REPS)
    };

    eprintln!("generating drifting Zipf stream: {updates} updates, {epochs} epochs ...");
    let config = DriftConfig {
        updates,
        epochs,
        epoch_len: 1_000,
        ..DriftConfig::default()
    };
    let stream = materialize_drifting_zipf(&config);
    let runs = tick_runs(&stream);
    let batch: Vec<(u64, u64)> = stream.iter().map(|&(_, item, w)| (item, w)).collect();

    println!("# Temporal-layer ingest: decayed + windowed vs plain batch");
    print_header(&[
        "mode",
        "k",
        "epochs",
        "seconds",
        "updates_per_sec",
        "vs_freq",
    ]);
    let mut results: Vec<TemporalResult> = Vec::new();
    for &k in &ks {
        let mut freq_rate = 0.0f64;
        for mode in [
            "freq_batch",
            "freq_oneshot",
            "decayed_batch",
            "decayed_lazy",
            "decayed_scalar",
            "windowed_batch",
        ] {
            let r = run_mode_median(mode, k, epochs, &stream, &runs, &batch, reps);
            if mode == "freq_batch" {
                freq_rate = r.updates_per_sec;
            }
            println!(
                "{}\t{}\t{}\t{:.3}\t{:.3e}\t{:.2}x",
                r.mode,
                r.k,
                r.epochs,
                r.seconds,
                r.updates_per_sec,
                r.updates_per_sec / freq_rate
            );
            results.push(r);
        }
    }

    let json = results_to_json(updates, &results);
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    if smoke {
        smoke_gate(&results);
    }
}

/// Smallest allowed `batch / decayed_scalar` rate ratio under `--smoke`.
const SMOKE_MIN_BATCH_VS_SCALAR: f64 = 0.9;

/// `--smoke` gate: `freq_batch` and `decayed_batch` must each run at no
/// less than [`SMOKE_MIN_BATCH_VS_SCALAR`] of `decayed_scalar`, measured
/// in the same run. The scalar control pays the decay sweeps the
/// `freq_batch` row skips, so a batch path slower than it means the
/// batch ingest itself has regressed — the failure a slower second
/// batch path once caused without any check noticing.
fn smoke_gate(results: &[TemporalResult]) {
    let rate = |mode: &str| {
        results
            .iter()
            .find(|r| r.mode == mode)
            .unwrap_or_else(|| panic!("missing {mode} row"))
            .updates_per_sec
    };
    let scalar = rate("decayed_scalar");
    for mode in ["freq_batch", "decayed_batch"] {
        let r = rate(mode);
        assert!(
            r >= SMOKE_MIN_BATCH_VS_SCALAR * scalar,
            "{mode} runs at {:.2}x of decayed_scalar ({r:.3e}/s vs {scalar:.3e}/s), \
             below the {SMOKE_MIN_BATCH_VS_SCALAR}x gate",
            r / scalar
        );
    }
    eprintln!(
        "smoke gate passed: batch paths at least {SMOKE_MIN_BATCH_VS_SCALAR}x decayed_scalar"
    );
}
