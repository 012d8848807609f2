//! `embedded`: the paper's §4 setting, one thread, in process.
//!
//! Phase 1 feeds a synthetic CAIDA stream (α 1.1, ≈1.4% distinct flows)
//! into a fresh k = 24576 SMED `FreqSketch` per pass through
//! `update_batch` in 4096-update chunks. Phase 2 runs Figure-4 merges:
//! pairs of k = 24576 sketches filled from `fill_stream` in each round's
//! set-up, each merged with `FreqSketch::merge` into a fresh clone. No
//! serving, WAL or network code runs, so this is the engine floor the
//! other two workloads build on.

use std::time::{Duration, Instant};

use streamfreq_baselines::ExactCounter;
use streamfreq_core::{FreqSketch, FrequencyEstimator, PurgePolicy};
use streamfreq_workloads::{fill_stream, CaidaConfig, MergeWorkloadConfig, SyntheticCaida};

use crate::stats::{median, Samples};
use crate::{BoxResult, Ctx, Report, PROGRAM_SEED};

const K: usize = 24_576;
const CHUNK: usize = 4_096;
/// Updates per ingest pass: 4 Mi updates over ≈59k flows, so the
/// k = 24576 table purges throughout.
const STREAM_UPDATES: usize = 4 << 20;
/// Sketch pairs filled during set-up for the merge phase. Each pair has
/// its own merge cost; enough pairs keep the merge-time median from
/// sitting on the edge between two pairs' costs.
const PAIRS: usize = 32;

fn new_sketch() -> FreqSketch {
    FreqSketch::builder(K)
        .policy(PurgePolicy::smed())
        .seed(PROGRAM_SEED)
        .build()
        .expect("valid sketch configuration")
}

fn filled(stream: &[(u64, u64)]) -> FreqSketch {
    let mut sketch = new_sketch();
    for chunk in stream.chunks(CHUNK) {
        sketch.update_batch(chunk);
    }
    sketch
}

fn exact_counts<'a>(streams: impl IntoIterator<Item = &'a [(u64, u64)]>) -> (Vec<(u64, u64)>, u64) {
    let mut exact = ExactCounter::new();
    for stream in streams {
        for &(item, weight) in stream {
            exact.update(item, weight);
        }
    }
    (exact.iter().collect(), exact.stream_weight())
}

/// Number of items whose exact count falls outside the sketch's bounds.
fn misses(sketch: &FreqSketch, exact: &[(u64, u64)]) -> usize {
    exact
        .iter()
        .filter(|&&(item, count)| {
            !(sketch.lower_bound(item) <= count && count <= sketch.upper_bound(item))
        })
        .count()
}

pub fn run(ctx: &Ctx) -> BoxResult<Report> {
    let tracer = &ctx.tracer;
    let mut report = Report::default();

    // Inputs and exact counts: not part of any measurement.
    let caida = CaidaConfig {
        seed: ctx.seed_for(1),
        ..CaidaConfig::scaled(STREAM_UPDATES)
    };
    let stream: Vec<(u64, u64)> = SyntheticCaida::new(&caida).collect();
    let (exact, weight) = exact_counts([stream.as_slice()]);
    let merge_config = MergeWorkloadConfig {
        seed: ctx.seed_for(2),
        ..MergeWorkloadConfig::default()
    };
    let fills: Vec<Vec<(u64, u64)>> = (0..2 * PAIRS as u64)
        .map(|i| fill_stream(&merge_config, i))
        .collect();
    let pair_exact: Vec<(Vec<(u64, u64)>, u64)> = fills
        .chunks(2)
        .map(|pair| exact_counts(pair.iter().map(Vec::as_slice)))
        .collect();

    // Rounds: set-up (a sketch build and the prefill of every merge
    // pair), one ingest pass into a fresh sketch, then one merge of
    // every prefilled pair. Interleaving keeps every phase, set-up too,
    // sampling the whole run; `setup_s` is the median round's set-up.
    let run_start = Instant::now();
    let (mut passes, mut ingest_time, mut purges) = (0u64, Duration::ZERO, 0u64);
    let mut profile = [Duration::ZERO; 4];
    let mut merges = Samples::default();
    let mut setup = Vec::new();
    while passes < 2 || run_start.elapsed().as_secs_f64() < ctx.seconds {
        let started = Instant::now();
        std::hint::black_box(new_sketch());
        let pairs: Vec<(FreqSketch, FreqSketch)> = fills
            .chunks(2)
            .map(|pair| (filled(&pair[0]), filled(&pair[1])))
            .collect();
        setup.push(started.elapsed().as_secs_f64());

        let mut sketch = new_sketch();
        if tracer.enabled() {
            sketch.engine_mut().enable_ingest_profile();
        }
        let pass = tracer.begin("embedded.ingest_pass", None, passes);
        let started = Instant::now();
        for chunk in stream.chunks(CHUNK) {
            tracer.time("engine.update_batch", pass.as_ref(), passes, || {
                sketch.update_batch(chunk)
            });
        }
        ingest_time += started.elapsed();
        tracer.end(pass);
        report.attempted += stream.chunks(CHUNK).len() as u64;
        purges = sketch.num_purges();
        if let Some(p) = sketch.engine_mut().take_ingest_profile() {
            for (sum, part) in profile
                .iter_mut()
                .zip([p.purge, p.probe, p.aggregate, p.grow])
            {
                *sum += part;
            }
        }
        let bad = misses(&sketch, &exact);
        report.check(bad == 0 && sketch.stream_weight() == weight, || {
            format!("ingest pass {passes}: {bad} items outside their bounds")
        });
        report.failed += u64::from(bad > 0);

        for (p, ((a, b), (pair_counts, pair_weight))) in pairs.iter().zip(&pair_exact).enumerate() {
            let mut merged = a.clone();
            let id = passes * PAIRS as u64 + p as u64;
            let started = Instant::now();
            tracer.time("engine.merge", None, id, || merged.merge(b));
            let micros = started.elapsed().as_secs_f64() * 1e6;
            report.attempted += 1;
            let bad = misses(&merged, pair_counts);
            if bad == 0 && merged.stream_weight() == *pair_weight {
                merges.push(micros);
            } else {
                merges.fail();
                report.failed += 1;
                report.check(false, || {
                    format!("merge {id}: {bad} items outside their bounds")
                });
            }
        }
        passes += 1;
    }
    let updates = passes * stream.len() as u64;
    report.metric("setup_s", median(&setup), "s (median round)");
    report.metric(
        "ingest_ups",
        updates as f64 / ingest_time.as_secs_f64(),
        "1/s",
    );
    report.note(format!(
        "{passes} rounds: ingest passes of {} updates ({} distinct items), {} merges",
        stream.len(),
        exact.len(),
        merges.len()
    ));
    report.metric(
        "merge_per_s",
        merges.len() as f64 / (merges.sum() / 1e6),
        "merges/s",
    );
    report.percentile("query_p50_us", &merges, 0.5);
    report.percentile("merge_p90_us", &merges, 0.9);

    if tracer.enabled() {
        let totals = crate::trace::totals_by_name(&tracer.spans());
        let batch = totals
            .get("engine.update_batch")
            .copied()
            .unwrap_or_default();
        report.metric(
            "engine.update_batch_ns",
            batch.self_ns as f64 / updates as f64,
            "ns/update",
        );
        report.metric("engine.purges", purges as f64, "purges/pass");
        for (name, sum) in [
            "engine.purge_s",
            "engine.probe_s",
            "engine.aggregate_s",
            "engine.grow_s",
        ]
        .into_iter()
        .zip(profile)
        {
            report.metric(name, sum.as_secs_f64() / passes as f64, "s/pass");
        }
        let merge = totals.get("engine.merge").copied().unwrap_or_default();
        report.metric("engine.merge_us", merge.mean_self_us(), "us");
    }
    Ok(report)
}
