//! `cluster_fanout`: three in-memory wire-ingest nodes behind a 32-vnode
//! topology (k = 4096 and 4 shards each, as in `fig_cluster`).
//!
//! Each round starts a fresh cluster, `run_cluster_ingest` ships a
//! synthetic CAIDA stream file to it in 4096-update batches, and one
//! thread runs a closed loop of `run_cluster_query` calls, alternating
//! `EST` and `TOPK 100`. Every query pays for connect, `SNAP` encode,
//! transfer, `decode_snapshot` and three merges, and no WAL runs.
//!
//! The traced run also replays each query as a decomposed fan-out built
//! from the same public calls the verb makes, with a span per step, and
//! checks that it gives the verb's answer.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use streamfreq_cli::cluster::{
    run_cluster_ingest, run_cluster_query, ClusterIngestOptions, ClusterQueryOptions,
};
use streamfreq_core::cluster::{wire, NodeSpec, Topology};
use streamfreq_core::{FreqSketch, PurgePolicy};
use streamfreq_workloads::{save_binary, CaidaConfig, SyntheticCaida};

use crate::net::{self, op, Client, Node, TIMEOUT};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{BoxResult, Ctx, Report, PROGRAM_SEED};

const K: usize = 4_096;
const SHARDS: usize = 4;
const NODES: usize = 3;
const VNODES: u32 = 32;
const SNAPSHOT_MS: u64 = 5;
const CHUNK: usize = 4_096;
const STREAM_UPDATES: usize = 1 << 20;
const TOPK_N: usize = 100;
/// Cluster starts timed in each round, the round's own included;
/// `setup_s` is their median over the run.
const SETUP_PER_ROUND: usize = 4;
/// Closed-loop queries after each ingest pass.
const QUERIES_PER_ROUND: usize = 128;

fn start_nodes(dir: &Path) -> BoxResult<(Vec<Node>, f64)> {
    let started = Instant::now();
    let mut nodes = Vec::new();
    for id in 0..NODES {
        let opts = net::node_options(
            dir.join(format!("node-{id}.port")),
            K,
            SHARDS,
            SNAPSHOT_MS,
            None,
        );
        nodes.push(Node::start(opts)?.0);
    }
    Ok((nodes, started.elapsed().as_secs_f64()))
}

fn node_stats(nodes: &[Node]) -> BoxResult<Vec<net::Stats>> {
    nodes
        .iter()
        .map(|n| Client::connect(&n.addr)?.stats())
        .collect()
}

/// Waits until the nodes' published snapshots hold `weight` in total;
/// returns their total counter count.
fn settle(nodes: &[Node], weight: u64) -> BoxResult<f64> {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let (mut n, mut enqueued, mut counters) = (0u64, 0u64, 0.0);
        for s in node_stats(nodes)? {
            n += s.get::<u64>("n")?;
            enqueued += s.get::<u64>("enqueued")?;
            counters += s.get::<f64>("counters")?;
        }
        if n == weight && enqueued == n {
            return Ok(counters);
        }
        if Instant::now() > deadline {
            return Err(format!("nodes hold n = {n}, expected {weight}").into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn quit_all(nodes: Vec<Node>) -> BoxResult<()> {
    nodes.into_iter().try_for_each(Node::quit)
}

fn query_request(i: u64, items: &[u64]) -> Vec<String> {
    if i.is_multiple_of(2) {
        vec![
            "EST".into(),
            items[(i / 2) as usize % items.len()].to_string(),
        ]
    } else {
        vec!["TOPK".into(), TOPK_N.to_string()]
    }
}

/// The answer part of a cluster reply (the per-node diagnostics follow).
fn answer_part(reply: &str) -> &str {
    reply.find("cluster: ").map_or(reply, |at| &reply[..at])
}

/// Whether every bound in a text answer brackets the exact count.
fn brackets(request: &[String], answer: &str, exact: &HashMap<u64, u64>) -> bool {
    let mut lines = answer.lines();
    let Some(head) = lines.next().and_then(|l| l.strip_prefix("OK ")) else {
        return false;
    };
    let fields = |line: &str| -> Option<Vec<u64>> {
        line.split_whitespace().map(|f| f.parse().ok()).collect()
    };
    let holds = |item: u64, lo: u64, hi: u64| {
        let truth = exact.get(&item).copied().unwrap_or(0);
        lo <= truth && truth <= hi
    };
    if request[0] == "EST" {
        let item: u64 = request[1].parse().expect("EST item");
        return matches!(fields(head).as_deref(), Some(&[_, lo, hi]) if holds(item, lo, hi));
    }
    let Ok(rows) = head.trim().parse::<usize>() else {
        return false;
    };
    let rows_ok = lines
        .map(fields)
        .map(|row| matches!(row.as_deref(), Some(&[item, _, lo, hi]) if holds(item, lo, hi)))
        .filter(|&ok| ok)
        .count();
    rows == TOPK_N && rows_ok == rows
}

/// The verb's fan-out, step by step from the same public calls, with a
/// span around each step. Returns the answer in the verb's text shape.
fn decomposed_query(
    topology: &Topology,
    request: &[String],
    tracer: &Tracer,
    id: u64,
) -> BoxResult<(String, u64)> {
    let root = tracer.begin("cluster.fanout", None, id);
    let parent = root.as_ref();
    let mut engines = Vec::new();
    let mut bytes = 0u64;
    for spec in topology.nodes() {
        let mut client = tracer.time("cluster.connect", parent, id, || {
            Client::connect(&spec.addr)
        })?;
        let payload = tracer.time("cluster.snap_rtt", parent, id, || {
            client.request(op::SNAP, &[])
        })?;
        bytes += payload.len() as u64;
        let snap = tracer.time("cluster.decode", parent, id, || {
            wire::decode_snapshot(&payload)
        })?;
        engines.push(snap.engine);
    }
    let merged = tracer.time("cluster.merge", parent, id, || {
        let mut merged = FreqSketch::builder(K)
            .policy(PurgePolicy::smed())
            .seed(PROGRAM_SEED)
            .build()
            .expect("valid merge configuration");
        for engine in engines {
            merged.merge(&FreqSketch::from(engine));
        }
        merged
    });
    let answer = tracer.time("cluster.answer", parent, id, || {
        if request[0] == "EST" {
            let item: u64 = request[1].parse().expect("EST item");
            format!(
                "OK {} {} {}\n",
                merged.estimate(item),
                merged.lower_bound(item),
                merged.upper_bound(item)
            )
        } else {
            let rows = merged.top_k(TOPK_N);
            let mut out = format!("OK {}\n", rows.len());
            for r in &rows {
                out.push_str(&format!(
                    "{} {} {} {}\n",
                    r.item, r.estimate, r.lower_bound, r.upper_bound
                ));
            }
            out
        }
    });
    tracer.end(root);
    Ok((answer, bytes))
}

pub fn run(ctx: &Ctx) -> BoxResult<Report> {
    let tracer = &ctx.tracer;
    let mut report = Report::default();

    // Inputs: the stream file, its exact counts, the query-item picks.
    let caida = CaidaConfig {
        seed: ctx.seed_for(1),
        ..CaidaConfig::scaled(STREAM_UPDATES)
    };
    let stream: Vec<(u64, u64)> = SyntheticCaida::new(&caida).collect();
    let input: PathBuf = ctx.dir.join("stream.bin");
    save_binary(&stream, &input)?;
    let weight: u64 = stream.iter().map(|&(_, w)| w).sum();
    let mut exact: HashMap<u64, u64> = HashMap::new();
    for &(item, w) in &stream {
        *exact.entry(item).or_insert(0) += w;
    }
    let mut pick = ctx.seed_for(2);
    let items: Vec<u64> = (0..4096)
        .map(|_| {
            pick = pick
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            stream[((pick >> 33) % stream.len() as u64) as usize].0
        })
        .collect();

    let topo_path = ctx.dir.join("topology.sftopo");
    let ingest_opts = ClusterIngestOptions {
        topology: topo_path.clone(),
        input,
        batch: CHUNK,
        timeout_ms: TIMEOUT.as_millis() as u64,
        retries: 2,
    };
    let query = |request: Vec<String>| ClusterQueryOptions {
        topology: topo_path.clone(),
        k: K,
        policy: PurgePolicy::smed(),
        seed: PROGRAM_SEED,
        request,
        timeout_ms: TIMEOUT.as_millis() as u64,
        retries: 2,
    };

    // Rounds: set-up (fresh three-node clusters, timed from start to the
    // last node's first STATS reply; the last one serves the round), one
    // whole-file `run_cluster_ingest` pass, then a slice of closed-loop
    // queries against the state it left. Interleaving keeps every phase,
    // set-up too, sampling the whole run.
    let (mut est, mut topk) = (Samples::default(), Samples::default());
    let (mut verb_us, mut decomposed, mut snap_bytes) = (Samples::default(), 0u64, 0u64);
    let (mut passes, mut busy) = (0u64, Duration::ZERO);
    let (mut published, mut counters, mut i) = (0u64, 0.0, 0u64);
    let mut setup = Vec::new();
    let mut topology = None;
    let run_start = Instant::now();
    while passes < 2 || run_start.elapsed().as_secs_f64() < ctx.seconds {
        for _ in 1..SETUP_PER_ROUND {
            let (nodes, secs) = start_nodes(&ctx.dir)?;
            setup.push(secs);
            quit_all(nodes)?;
        }
        let (nodes, secs) = start_nodes(&ctx.dir)?;
        setup.push(secs);
        let specs: Vec<NodeSpec> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeSpec {
                id: i as u64 + 1,
                addr: n.addr.clone(),
            })
            .collect();
        let topo = topology.insert(Topology::new(1, VNODES, specs)?);
        std::fs::write(&topo_path, topo.encode())?;

        let before = node_stats(&nodes)?;
        let started = Instant::now();
        let shipped = tracer.time("cluster.ingest_pass", None, passes, || {
            run_cluster_ingest(&ingest_opts)
        });
        busy += started.elapsed();
        report.attempted += 1;
        if let Err(e) = shipped {
            report.failed += 1;
            return Err(format!("cluster ingest failed: {e}").into());
        }
        passes += 1;
        let after = node_stats(&nodes)?;
        for (b, a) in before.iter().zip(&after) {
            published += a.get::<u64>("epoch")? - b.get::<u64>("epoch")?;
        }
        counters = settle(&nodes, weight)?;
        let stats_reply = run_cluster_query(&query(vec!["STATS".into()]))?;
        report.attempted += 1;
        report.check(stats_reply.starts_with(&format!("OK n={weight} ")), || {
            format!("cluster STATS `{}` lacks n={weight}", stats_reply.trim())
        });

        for _ in 0..QUERIES_PER_ROUND {
            let request = query_request(i, &items);
            let sent = Instant::now();
            let reply = run_cluster_query(&query(request.clone()));
            let micros = sent.elapsed().as_secs_f64() * 1e6;
            let samples = if i.is_multiple_of(2) {
                &mut est
            } else {
                &mut topk
            };
            report.attempted += 1;
            match &reply {
                Ok(text) if brackets(&request, answer_part(text), &exact) => samples.push(micros),
                Ok(text) => {
                    samples.fail();
                    report.failed += 1;
                    report.check(false, || {
                        format!("{request:?}: answer out of bounds:\n{text}")
                    });
                }
                Err(_) => {
                    samples.fail();
                    report.failed += 1;
                }
            }
            if tracer.enabled() {
                verb_us.push(micros);
                let (answer, bytes) = decomposed_query(topo, &request, tracer, i)?;
                let verb = reply.as_deref().map(answer_part).unwrap_or_default();
                report.check(answer == verb, || {
                    format!("decomposed fan-out for {request:?} answered\n{answer}verb answered\n{verb}")
                });
                decomposed += 1;
                snap_bytes += bytes;
            }
            i += 1;
        }
        quit_all(nodes)?;
    }
    report.metric("setup_s", median(&setup), "s (median round)");
    report.metric(
        "ingest_ups",
        (passes * stream.len() as u64) as f64 / busy.as_secs_f64(),
        "1/s",
    );
    report.percentile("est_p50_us", &est, 0.5);
    report.percentile("est_p90_us", &est, 0.9);
    report.percentile("topk_p50_us", &topk, 0.5);
    report.percentile("topk_p90_us", &topk, 0.9);
    let mut all = est.clone();
    all.extend(&topk);
    report.percentile("query_p50_us", &all, 0.5);
    report.note(format!(
        "ingest: {passes} passes of {} updates in {:.3} s; {i} queries",
        stream.len(),
        busy.as_secs_f64()
    ));

    report.metric(
        "concurrent.publishes_per_s",
        published as f64 / busy.as_secs_f64(),
        "1/s",
    );
    report.metric(
        "concurrent.snapshot_counters",
        counters,
        "count (all nodes)",
    );
    if tracer.enabled() {
        // Ingest-side steps, timed over the whole stream.
        let ring = topology.as_ref().expect("at least one round").ring();
        let routed = tracer.time("cluster.route", None, 0, || {
            stream
                .iter()
                .map(|(item, _)| ring.route(item))
                .sum::<usize>()
        });
        std::hint::black_box(routed);
        for (c, chunk) in stream.chunks(CHUNK).enumerate() {
            let frame = tracer.time("cluster.encode_ingest", None, c as u64, || {
                wire::encode_ingest_batch(chunk)
            });
            std::hint::black_box(frame);
        }
        let totals = crate::trace::totals_by_name(&tracer.spans());
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        report.metric(
            "cluster.route_ns",
            t("cluster.route").self_ns as f64 / stream.len() as f64,
            "ns/update",
        );
        report.metric(
            "cluster.encode_ingest_us",
            t("cluster.encode_ingest").mean_self_us(),
            "us/batch",
        );
        report.metric(
            "cluster.connect_us",
            t("cluster.connect").mean_self_us(),
            "us/node",
        );
        report.metric(
            "cluster.snap_rtt_us",
            t("cluster.snap_rtt").mean_self_us(),
            "us/node",
        );
        report.metric(
            "cluster.snap_bytes",
            snap_bytes as f64 / (decomposed * NODES as u64) as f64,
            "B/node",
        );
        report.metric(
            "cluster.decode_us",
            t("cluster.decode").mean_self_us(),
            "us/node",
        );
        report.metric(
            "cluster.merge_us",
            t("cluster.merge").mean_self_us(),
            "us/query",
        );
        report.metric(
            "cluster.answer_us",
            t("cluster.answer").mean_self_us(),
            "us/query",
        );
        let fanout = t("cluster.fanout");
        let steps_us = (fanout.total_ns - fanout.self_ns) as f64 / decomposed as f64 / 1e3;
        report.metric(
            "cluster.unaccounted_us",
            verb_us.sum() / verb_us.len() as f64 - steps_us,
            "us/query",
        );
    }
    Ok(report)
}
