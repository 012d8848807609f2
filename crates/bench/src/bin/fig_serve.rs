//! Serving-layer throughput: sustained `ConcurrentSketch` ingest with
//! and without a concurrent query load, recorded into `BENCH_serve.json`.
//!
//! The serving layer adds two costs on top of the sharded ingest
//! pipeline it wraps: the bounded channels between writers and shard
//! workers, and the periodic Algorithm-5 snapshot merges. This bench
//! quantifies both, then adds a query thread hammering the published
//! snapshots to confirm the design property that matters — **queries do
//! not slow ingestion down** (they only clone an `Arc` out of an
//! `RwLock`; the shards never see them).
//!
//! Modes, all over the identical synthetic CAIDA-like stream:
//!
//! * `sharded_direct` — `ShardedSketch::ingest_parallel`, no channels,
//!   no serving: the cost floor of the existing ingest pipeline.
//! * `serve_ingest` — `ConcurrentSketch` ingest + drain, no snapshot
//!   publishing: isolates the channel hop.
//! * `serve_publish` — plus a 20 ms periodic snapshot publisher:
//!   isolates the snapshot merges.
//! * `serve_query` — plus a query thread running `TOPK`-shaped snapshot
//!   reads in a closed loop for the whole ingest: the headline
//!   "sustained ingest under query fire" row.
//!
//! A second table measures the **wire protocols** end to end: a real
//! `streamfreq serve` event loop on loopback TCP, hammered with
//! pipelined `EST` requests — `proto_text` (newline protocol) against
//! `proto_binary` (`SFBP` length-prefixed frames). Same server, same
//! socket, same event loop; the delta is pure framing and parsing.
//!
//! ```text
//! cargo run --release -p streamfreq-bench --bin fig_serve -- \
//!     [--updates N] [--json PATH] [--smoke]
//! ```
//!
//! `--smoke` shrinks to one small configuration with a single
//! repetition, and runs the protocol servers durably (group-commit WAL
//! on) — the CI guard that the serving binary still runs end to end.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamfreq_bench::{parse_flag, print_header};
use streamfreq_cli::protocol::Query;
use streamfreq_cli::serve::{run_serve, ServeOptions, BINARY_MAGIC};
use streamfreq_core::{ConcurrentSketch, FsyncPolicy, PurgePolicy, ShardedSketch};
use streamfreq_workloads::{save_binary, CaidaConfig, SyntheticCaida};

/// The paper's largest counter configuration (§4.1).
const SERVE_K: usize = 24_576;

/// Shard-bank width: wide enough to exercise routing and merging, and
/// the same per-shard budget convention as `streamfreq serve`.
const SERVE_SHARDS: usize = 8;

/// Periodic snapshot interval for the publishing modes.
const PUBLISH_MS: u64 = 20;

/// Median-of-N repetitions per measurement.
const SERVE_REPS: usize = 3;

/// One measured serving row.
struct ServeResult {
    mode: &'static str,
    writers: usize,
    shards: usize,
    k: usize,
    updates: usize,
    seconds: f64,
    updates_per_sec: f64,
    queries: u64,
    queries_per_sec: f64,
    snapshots: u64,
    checksum: u64,
}

/// Runs one ingestion pass of `mode` and returns the measured row.
fn run_mode(mode: &'static str, writers: usize, k: usize, stream: &[(u64, u64)]) -> ServeResult {
    let k_per_shard = (k / SERVE_SHARDS).max(1);
    let probe: Vec<u64> = stream
        .iter()
        .rev()
        .take(64)
        .map(|&(item, _)| item)
        .collect();
    let (seconds, queries, snapshots, checksum) = match mode {
        "sharded_direct" => {
            let mut bank: ShardedSketch<u64> = ShardedSketch::builder(SERVE_SHARDS, k_per_shard)
                .grow_from_small(false)
                .build()
                .expect("invalid bank configuration");
            let start = Instant::now();
            bank.ingest_parallel(stream, writers);
            let secs = start.elapsed().as_secs_f64();
            let checksum = probe.iter().map(|i| bank.lower_bound(i)).sum();
            (secs, 0u64, 0u64, checksum)
        }
        "serve_ingest" | "serve_publish" | "serve_query" => {
            let mut builder = ConcurrentSketch::<u64>::builder(SERVE_SHARDS, k_per_shard)
                .grow_from_small(false)
                .merged_capacity(k);
            if mode != "serve_ingest" {
                builder = builder.publish_every(Duration::from_millis(PUBLISH_MS));
            }
            let mut sketch = builder.build().expect("invalid serve configuration");
            let reader = sketch.reader();
            let done = Arc::new(AtomicBool::new(false));
            let query_thread = (mode == "serve_query").then(|| {
                let reader = reader.clone();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut queries = 0u64;
                    let mut sink = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let snap = reader.snapshot();
                        for row in snap.top_k(10) {
                            sink ^= row.item;
                        }
                        queries += 1;
                    }
                    (queries, sink)
                })
            });
            let start = Instant::now();
            sketch.ingest_slice_parallel(stream, writers);
            sketch.drain();
            let secs = start.elapsed().as_secs_f64();
            done.store(true, Ordering::Relaxed);
            let queries = query_thread.map_or(0, |t| t.join().expect("query thread panicked").0);
            let snap = sketch.snapshot();
            let checksum = probe.iter().map(|i| snap.lower_bound(i)).sum();
            (secs, queries, snap.epoch(), checksum)
        }
        other => unreachable!("unknown mode {other}"),
    };
    ServeResult {
        mode,
        writers,
        shards: SERVE_SHARDS,
        k,
        updates: stream.len(),
        seconds,
        updates_per_sec: stream.len() as f64 / seconds,
        queries,
        queries_per_sec: queries as f64 / seconds,
        snapshots,
        checksum,
    }
}

/// [`run_mode`] repeated `reps` times, keeping the median-throughput run.
fn run_mode_median(
    mode: &'static str,
    writers: usize,
    k: usize,
    stream: &[(u64, u64)],
    reps: usize,
) -> ServeResult {
    assert!(reps > 0);
    let mut results: Vec<ServeResult> = (0..reps)
        .map(|_| run_mode(mode, writers, k, stream))
        .collect();
    results.sort_by(|a, b| {
        a.updates_per_sec
            .partial_cmp(&b.updates_per_sec)
            .expect("throughput is never NaN")
    });
    results.swap_remove(results.len() / 2)
}

/// One measured wire-protocol row.
struct ProtocolRow {
    mode: &'static str,
    pipeline: usize,
    queries: u64,
    seconds: f64,
    queries_per_sec: f64,
    durable: bool,
}

/// Requests in flight per write: deep enough that syscalls amortize,
/// shallow enough that both sides stay within one socket buffer.
const PIPELINE: usize = 512;

/// Byte length of one framed binary `EST` reply:
/// `len u32le + status u8 + 3 × u64le`.
const BINARY_EST_REPLY: usize = 4 + 1 + 24;

/// Measures pipelined `EST` throughput against a real `streamfreq
/// serve` event loop over loopback TCP, in `proto` wire format.
fn run_protocol(
    mode: &'static str,
    binary: bool,
    stream: &[(u64, u64)],
    total_queries: u64,
    durable: bool,
) -> ProtocolRow {
    let tmp = std::env::temp_dir().join(format!("streamfreq-fig-serve-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create scratch dir");
    let input = tmp.join(format!("{mode}.bin"));
    save_binary(stream, &input).expect("write stream file");
    let port_file = tmp.join(format!("{mode}.port"));
    let _ = std::fs::remove_file(&port_file);
    let data_dir = durable.then(|| {
        let d = tmp.join(format!("{mode}-store"));
        let _ = std::fs::remove_dir_all(&d);
        d
    });
    let opts = ServeOptions {
        port: 0,
        port_file: Some(port_file.clone()),
        k: 4_096,
        policy: PurgePolicy::smed(),
        seed: 7,
        threads: 2,
        shards: 4,
        passes: 1,
        snapshot_ms: 20,
        input: Some(input.clone()),
        data_dir,
        fsync: FsyncPolicy::Off,
        checkpoint_ms: 0,
    };
    let server = std::thread::spawn(move || run_serve(&opts).expect("serve run"));

    // Handshake: wait for the bound address, then poll STATS on a text
    // control connection until the ingest pass has drained — protocol
    // throughput is measured against a quiescent, fully-published
    // sketch, not a moving one.
    let deadline = Instant::now() + Duration::from_secs(120);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if !s.trim().is_empty() {
                break s.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote its port file");
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut control = TcpStream::connect(&addr).expect("connect control");
    control.set_nodelay(true).expect("nodelay");
    let mut control_rd = BufReader::new(control.try_clone().expect("clone control"));
    loop {
        control.write_all(b"STATS\n").expect("control STATS");
        let mut line = String::new();
        control_rd.read_line(&mut line).expect("control reply");
        if line.contains("ingest_done=1") {
            break;
        }
        assert!(Instant::now() < deadline, "ingest never finished");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A hot item: answered from the merged snapshot like any other, but
    // guaranteed present so replies exercise the full three-field path.
    let probe = stream[stream.len() / 2].0;
    let rounds = (total_queries / PIPELINE as u64).max(1);

    let mut conn = TcpStream::connect(&addr).expect("connect bench");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // A true pipelined client: a writer thread floods request blocks
    // back to back while this thread drains replies, so the socket
    // never runs dry and in-flight depth is bounded by the kernel
    // socket buffers plus the server's write high-water mark.
    let queries = rounds * PIPELINE as u64;
    let seconds = if binary {
        let mut block = Vec::new();
        for _ in 0..PIPELINE {
            Query::Est(probe).write_binary(&mut block);
        }
        conn.write_all(BINARY_MAGIC).expect("send magic");
        let start = Instant::now();
        let writer = {
            let mut wconn = conn.try_clone().expect("clone for writer");
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    wconn.write_all(&block).expect("send frames");
                }
            })
        };
        let total = queries as usize * BINARY_EST_REPLY;
        let mut buf = vec![0u8; 1 << 20];
        let mut got = 0usize;
        let mut first = [0u8; BINARY_EST_REPLY];
        while got < total {
            let n = conn.read(&mut buf).expect("read frames");
            assert!(n > 0, "server closed mid-benchmark");
            if got < BINARY_EST_REPLY {
                let take = (BINARY_EST_REPLY - got).min(n);
                first[got..got + take].copy_from_slice(&buf[..take]);
            }
            got += n;
        }
        assert_eq!(got, total, "reply byte count must match frame math");
        assert_eq!(
            u32::from_le_bytes(first[..4].try_into().unwrap()),
            1 + 24,
            "EST reply frame length"
        );
        assert_eq!(first[4], 0, "EST reply status must be OK");
        writer.join().expect("writer thread panicked");
        start.elapsed().as_secs_f64()
    } else {
        let block = format!("EST {probe}\n").repeat(PIPELINE).into_bytes();
        let mut reader = BufReader::with_capacity(1 << 20, conn.try_clone().expect("clone bench"));
        let start = Instant::now();
        let writer = {
            let mut wconn = conn.try_clone().expect("clone for writer");
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    wconn.write_all(&block).expect("send lines");
                }
            })
        };
        let mut reply = String::new();
        for i in 0..queries {
            reply.clear();
            reader.read_line(&mut reply).expect("read line");
            assert!(reply.ends_with('\n'), "server closed mid-benchmark");
            if i == 0 {
                assert!(reply.starts_with("OK "), "EST reply must be OK");
            }
        }
        writer.join().expect("writer thread panicked");
        start.elapsed().as_secs_f64()
    };

    control.write_all(b"QUIT\n").expect("send QUIT");
    drop(conn);
    drop(control);
    server.join().expect("server thread panicked");
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&port_file);
    ProtocolRow {
        mode,
        pipeline: PIPELINE,
        queries,
        seconds,
        queries_per_sec: queries as f64 / seconds,
        durable,
    }
}

fn results_to_json(updates: usize, results: &[ServeResult], protocol: &[ProtocolRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fig_serve_throughput\",\n");
    out.push_str(&format!("  \"updates\": {updates},\n"));
    out.push_str("  \"workload\": \"synthetic_caida\",\n");
    out.push_str(&format!("  \"publish_interval_ms\": {PUBLISH_MS},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"writers\": {}, \"shards\": {}, \"k\": {}, \
             \"updates\": {}, \"seconds\": {:.6}, \"updates_per_sec\": {:.1}, \
             \"queries\": {}, \"queries_per_sec\": {:.1}, \"snapshots\": {}, \
             \"checksum\": {}}}{}\n",
            r.mode,
            r.writers,
            r.shards,
            r.k,
            r.updates,
            r.seconds,
            r.updates_per_sec,
            r.queries,
            r.queries_per_sec,
            r.snapshots,
            r.checksum,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"protocol\": [\n");
    for (i, r) in protocol.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"pipeline\": {}, \"queries\": {}, \
             \"seconds\": {:.6}, \"queries_per_sec\": {:.1}, \"durable\": {}}}{}\n",
            r.mode,
            r.pipeline,
            r.queries,
            r.seconds,
            r.queries_per_sec,
            r.durable,
            if i + 1 < protocol.len() { "," } else { "" }
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
        parse_flag("--updates", 4_000_000)
    };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|p| args.get(p + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let (k, reps, writer_counts): (usize, usize, Vec<usize>) = if smoke {
        (4_096, 1, vec![1])
    } else {
        (SERVE_K, SERVE_REPS, vec![1, 2])
    };

    eprintln!("generating synthetic CAIDA stream: {updates} updates ...");
    let config = CaidaConfig::scaled(updates);
    let stream: Vec<(u64, u64)> = SyntheticCaida::new(&config).collect();

    println!("# Serving-layer ingest: channels, snapshots, query load");
    print_header(&[
        "mode",
        "writers",
        "k",
        "seconds",
        "updates_per_sec",
        "queries_per_sec",
        "snapshots",
    ]);
    let mut results: Vec<ServeResult> = Vec::new();
    for &writers in &writer_counts {
        for mode in [
            "sharded_direct",
            "serve_ingest",
            "serve_publish",
            "serve_query",
        ] {
            let r = run_mode_median(mode, writers, k, &stream, reps);
            println!(
                "{}\t{}\t{}\t{:.3}\t{:.3e}\t{:.3e}\t{}",
                r.mode,
                r.writers,
                r.k,
                r.seconds,
                r.updates_per_sec,
                r.queries_per_sec,
                r.snapshots
            );
            results.push(r);
        }
    }

    println!("# Wire-protocol throughput: pipelined EST over loopback TCP");
    print_header(&["mode", "pipeline", "queries", "seconds", "queries_per_sec"]);
    let proto_queries: u64 = if smoke { 50_000 } else { 2_000_000 };
    let proto_stream: &[(u64, u64)] = if smoke {
        &stream
    } else {
        // Protocol rows measure the wire, not ingest: a short stream
        // keeps server startup out of the benchmark's wall clock.
        &stream[..stream.len().min(500_000)]
    };
    let mut protocol: Vec<ProtocolRow> = Vec::new();
    for (mode, binary) in [("proto_text", false), ("proto_binary", true)] {
        let row = run_protocol(mode, binary, proto_stream, proto_queries, smoke);
        println!(
            "{}\t{}\t{}\t{:.3}\t{:.3e}",
            row.mode, row.pipeline, row.queries, row.seconds, row.queries_per_sec
        );
        protocol.push(row);
    }

    let json = results_to_json(updates, &results, &protocol);
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
