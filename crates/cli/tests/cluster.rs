//! Cluster-mode end-to-end tests: real `streamfreq` processes over
//! loopback.
//!
//! The keystone is the **differential invariant** of DESIGN.md's cluster
//! section: a 3-node cluster answering `EST` / `TOPK` / `HH` / `STATS`
//! through the merging query tier must produce *byte-for-byte* the same
//! estimates AND error bounds as a single-node Algorithm-5 bank built
//! from the merged per-node engines — including after one node is
//! SIGKILLed mid-run and its WAL-shipped replica is promoted in its
//! place. Theorem 5 is what makes this equality exact rather than
//! approximate: per-node offsets add, stream weights add.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use streamfreq_cli::serve;
use streamfreq_core::cluster::{NodeSpec, Topology};
use streamfreq_core::{ErrorType, FreqSketch, PurgePolicy, ShardedSketch, SketchEngine};
use streamfreq_workloads::save_binary;

/// Bank shape shared by every node process and the reference bank.
const K: usize = 512;
const SHARDS: usize = 4;
const SEED: u64 = 7;
const VNODES: u32 = 32;
const DEADLINE: Duration = Duration::from_secs(60);

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamfreq"))
}

/// Fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-cluster-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kills the child on drop so a panicking test never leaks processes.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Deterministic skewed stream: a handful of heavy items over a long
/// tail of 4096 distinct ids, so `k = 512` forces real purges.
fn synth_stream(len: usize, salt: u64) -> Vec<(u64, u64)> {
    let mut x = 0x243F_6A88_85A3_08D3_u64 ^ salt;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let item = if x.is_multiple_of(4) {
                x % 8
            } else {
                (x >> 8) % 4096
            };
            let weight = (x >> 32) % 100 + 1;
            (item, weight)
        })
        .collect()
}

/// Spawns one durable ingest node (no `--input`: wire-ingest mode) and
/// returns its guard.
fn spawn_node(data_dir: &Path, port_file: &Path) -> ChildGuard {
    let child = bin()
        .args(["serve", "-k", "512", "--threads", "2", "--shards", "4"])
        .args(["--policy", "smed", "--seed", "7", "--snapshot-ms", "5"])
        .args(["--port", "0", "--fsync", "off"])
        .arg("--port-file")
        .arg(port_file)
        .arg("--data-dir")
        .arg(data_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn node");
    ChildGuard(child)
}

/// Waits for a `--port-file` handshake and returns the bound address.
fn wait_addr(port_file: &Path) -> String {
    let deadline = Instant::now() + DEADLINE;
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            let text = text.trim().to_string();
            if text.contains(':') {
                return text;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no port file at {}",
            port_file.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn port_of(addr: &str) -> u16 {
    addr.rsplit(':').next().unwrap().parse().unwrap()
}

/// One text-protocol exchange (count-prefixed rows included).
fn text_request(addr: &str, request: &str) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(format!("{request}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(conn);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let mut lines = vec![first.trim().to_string()];
    if matches!(request.split_whitespace().next(), Some("TOPK" | "HH")) {
        if let Some(rows) = lines[0]
            .strip_prefix("OK ")
            .and_then(|n| n.parse::<usize>().ok())
        {
            for _ in 0..rows {
                let mut row = String::new();
                reader.read_line(&mut row).unwrap();
                lines.push(row.trim().to_string());
            }
        }
    }
    lines
}

/// One binary-protocol `SNAP` exchange: returns the node's published
/// merged engine, exactly what the query tier fans out for.
fn binary_snap(addr: &str) -> SketchEngine<u64> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"SFBP").unwrap();
    conn.write_all(&1u32.to_le_bytes()).unwrap();
    conn.write_all(&[0x07]).unwrap(); // SNAP, empty payload
    let mut reader = BufReader::new(conn);
    let mut len = [0u8; 4];
    std::io::Read::read_exact(&mut reader, &mut len).unwrap();
    let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
    std::io::Read::read_exact(&mut reader, &mut frame).unwrap();
    assert_eq!(
        frame[0],
        0,
        "SNAP failed: {}",
        String::from_utf8_lossy(&frame[1..])
    );
    streamfreq_core::cluster::wire::decode_snapshot(&frame[1..])
        .expect("snapshot payload")
        .engine
}

/// Parses a `key=value` field out of a `STATS` reply line.
fn stats_field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("missing {key} in `{line}`"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in `{line}`"))
}

/// Polls a node's `STATS` until its applied weight reaches `expected`.
fn wait_weight(addr: &str, expected: u64) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let stats = text_request(addr, "STATS");
        let n = stats_field(&stats[0], "n");
        if n == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "node {addr} stuck at n={n}, want {expected}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs the CLI binary to completion and returns its stdout.
fn run_cli(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("run cli");
    assert!(
        out.status.success(),
        "`streamfreq {}` failed:\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// The reference per-node bank: exactly the shape `serve` builds
/// (`SHARDS` shards of `K / SHARDS` counters, merged at capacity `K`).
/// The engine is compared untouched: a `SNAP` payload restores the
/// node's table slot for slot, so the query tier merges engines whose
/// layout — which purge sampling reads by position — matches this one.
fn node_engine(slice: &[(u64, u64)]) -> SketchEngine<u64> {
    let mut bank: ShardedSketch = ShardedSketch::builder(SHARDS, K / SHARDS)
        .policy(PurgePolicy::smed())
        .seed(SEED)
        .build()
        .unwrap();
    bank.update_batch(slice);
    bank.merged_with_capacity(K)
}

/// The reference cluster answer: per-node engines merged in topology
/// node order into one `K`-counter bank — the same recipe the query
/// tier's `merge_engines` uses.
fn reference_bank(slices: &[Vec<(u64, u64)>]) -> FreqSketch {
    let mut merged = FreqSketch::builder(K)
        .policy(PurgePolicy::smed())
        .seed(SEED)
        .build()
        .unwrap();
    for slice in slices {
        merged.merge(&FreqSketch::from(node_engine(slice)));
    }
    merged
}

/// Renders the expected `OK` block for one query against a reference
/// bank, byte-for-byte in the text protocol's shape.
fn expected_answer(bank: &FreqSketch, query: &str) -> String {
    let row = |r: &streamfreq_core::Row<u64>| {
        format!(
            "{} {} {} {}\n",
            r.item, r.estimate, r.lower_bound, r.upper_bound
        )
    };
    let tokens: Vec<&str> = query.split_whitespace().collect();
    match tokens[0] {
        "EST" => {
            let item: u64 = tokens[1].parse().unwrap();
            format!(
                "OK {} {} {}\n",
                bank.estimate(item),
                bank.lower_bound(item),
                bank.upper_bound(item)
            )
        }
        "TOPK" => {
            let rows = bank.top_k(tokens[1].parse().unwrap());
            let mut out = format!("OK {}\n", rows.len());
            rows.iter().for_each(|r| out.push_str(&row(r)));
            out
        }
        "HH" => {
            let rows = bank.heavy_hitters(tokens[1].parse().unwrap(), ErrorType::NoFalseNegatives);
            let mut out = format!("OK {}\n", rows.len());
            rows.iter().for_each(|r| out.push_str(&row(r)));
            out
        }
        other => panic!("unexpected query {other}"),
    }
}

/// Asserts that a `cluster-query` run over `topo` answers `query`
/// byte-for-byte like the reference bank (the part before the
/// `cluster:` diagnostics block).
fn assert_cluster_answer(topo: &Path, bank: &FreqSketch, query: &str) {
    let topo = topo.to_str().unwrap();
    let mut args = vec!["cluster-query", "--topology", topo, "-k", "512"];
    args.extend(["--policy", "smed", "--seed", "7"]);
    args.extend(query.split_whitespace());
    let out = run_cli(&args);
    let answer = out
        .split("cluster:")
        .next()
        .unwrap_or_else(|| panic!("no diagnostics in `{out}`"));
    assert_eq!(
        answer,
        expected_answer(bank, query),
        "cluster answer for `{query}` diverged from the single-node merged bank"
    );
}

/// The keystone differential: 3 wire-ingest nodes + query tier equal a
/// single-node merged bank, before and after one node is killed and its
/// WAL-shipped replica promoted.
#[test]
fn cluster_matches_single_node_merged_bank_across_crash_and_promotion() {
    let dir = scratch("keystone");
    let stream_a = synth_stream(24_000, 1);
    let stream_b = synth_stream(12_000, 2);
    let input_a = dir.join("a.bin");
    let input_b = dir.join("b.bin");
    save_binary(&stream_a, &input_a).unwrap();
    save_binary(&stream_b, &input_b).unwrap();

    // Three durable wire-ingest nodes, ephemeral ports.
    let mut nodes = Vec::new();
    let mut addrs = Vec::new();
    for id in 1..=3u64 {
        let data_dir = dir.join(format!("node{id}"));
        let port_file = dir.join(format!("p{id}"));
        nodes.push(spawn_node(&data_dir, &port_file));
        addrs.push(wait_addr(&port_file));
    }

    // Topology file: epoch 1, node ids 1..=3 at the bound addresses.
    let specs: Vec<NodeSpec> = addrs
        .iter()
        .zip(1..)
        .map(|(addr, id)| NodeSpec {
            id,
            addr: addr.clone(),
        })
        .collect();
    let topology = Topology::new(1, VNODES, specs).unwrap();
    let topo_path = dir.join("topology.sftopo");
    std::fs::write(&topo_path, topology.encode()).unwrap();

    // The in-test view of routing: pure ring math, same as the client.
    let ring = topology.ring();
    let route = |stream: &[(u64, u64)], slices: &mut [Vec<(u64, u64)>]| {
        for &(item, weight) in stream {
            slices[ring.route(&item)].push((item, weight));
        }
    };
    let mut slices: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 3];
    route(&stream_a, &mut slices);
    let weight_of = |s: &[(u64, u64)]| s.iter().map(|&(_, w)| w).sum::<u64>();
    assert!(
        slices.iter().all(|s| !s.is_empty()),
        "degenerate ring: every node must own part of the keyspace"
    );

    // Phase 1: ship half A through the sharded ingest client.
    let report = run_cli(&[
        "cluster-ingest",
        "--topology",
        topo_path.to_str().unwrap(),
        "--input",
        input_a.to_str().unwrap(),
    ]);
    assert!(
        report.contains(&format!("shipped {} updates", stream_a.len())),
        "{report}"
    );
    for (addr, slice) in addrs.iter().zip(&slices) {
        wait_weight(addr, weight_of(slice));
    }

    // Per-node differential: each node's shipped engine must equal the
    // sequential single-node reference for its slice, bit for bit.
    for (i, (addr, slice)) in addrs.iter().zip(&slices).enumerate() {
        assert_eq!(
            binary_snap(addr).state_fingerprint(),
            node_engine(slice).state_fingerprint(),
            "node {} engine diverged after phase A",
            i + 1
        );
    }

    // Differential check #1: estimates AND bounds match byte-for-byte.
    let bank_a = reference_bank(&slices);
    let hot = stream_a[0].0;
    for query in [
        format!("EST {hot}"),
        "EST 999999999".into(),
        "TOPK 10".into(),
        "HH 0.02".into(),
    ] {
        assert_cluster_answer(&topo_path, &bank_a, &query);
    }
    let stats = run_cli(&[
        "cluster-query",
        "--topology",
        topo_path.to_str().unwrap(),
        "-k",
        "512",
        "--policy",
        "smed",
        "--seed",
        "7",
        "STATS",
    ]);
    assert!(
        stats.starts_with(&format!("OK n={} ", weight_of(&stream_a))),
        "{stats}"
    );
    assert!(stats.contains("nodes=3"), "{stats}");

    // The front node answers the same text protocol from its merged
    // cache; `QUIT` stops the front, never the ingest nodes.
    let front_port_file = dir.join("front-port");
    let front = ChildGuard(
        bin()
            .args([
                "cluster-serve",
                "-k",
                "512",
                "--policy",
                "smed",
                "--seed",
                "7",
            ])
            .args(["--port", "0", "--refresh-ms", "50"])
            .arg("--topology")
            .arg(&topo_path)
            .arg("--port-file")
            .arg(&front_port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let front_addr = wait_addr(&front_port_file);
    let est = text_request(&front_addr, &format!("EST {hot}"));
    assert_eq!(
        format!("{}\n", est[0]),
        expected_answer(&bank_a, &format!("EST {hot}")),
        "front node answer diverged"
    );
    assert_eq!(text_request(&front_addr, "QUIT")[0], "OK bye");
    drop(front);

    // Phase 2: replicate node 3, SIGKILL it, promote the replica.
    let replica_dir = dir.join("replica3");
    let report = run_cli(&[
        "cluster-replicate",
        "--port",
        &port_of(&addrs[2]).to_string(),
        "--dir",
        replica_dir.to_str().unwrap(),
    ]);
    assert!(report.contains("leader checkpointed"), "{report}");
    assert!(report.contains("manifest:"), "{report}");
    nodes[2].0.kill().unwrap();
    nodes[2].0.wait().unwrap();

    // The replacement recovers checkpoint ⊕ shipped WAL tail and must
    // land exactly on node 3's pre-crash applied weight.
    let new_port_file = dir.join("p3-promoted");
    nodes[2] = spawn_node(&replica_dir, &new_port_file);
    let new_addr = wait_addr(&new_port_file);
    wait_weight(&new_addr, weight_of(&slices[2]));
    let report = run_cli(&[
        "cluster-promote",
        "--topology",
        topo_path.to_str().unwrap(),
        "--node",
        "3",
        "--addr",
        &new_addr,
    ]);
    assert!(report.contains("epoch"), "{report}");
    let promoted = Topology::parse(&std::fs::read(&topo_path).unwrap()).unwrap();
    assert_eq!(promoted.epoch(), 2, "promotion must bump the epoch");
    assert_eq!(promoted.nodes()[2].addr, new_addr);

    // Phase 3: ship half B to the reshaped cluster. Node ids (and so
    // ring placement) are unchanged, only node 3's address moved.
    run_cli(&[
        "cluster-ingest",
        "--topology",
        topo_path.to_str().unwrap(),
        "--input",
        input_b.to_str().unwrap(),
    ]);
    route(&stream_b, &mut slices);
    let final_addrs = [addrs[0].clone(), addrs[1].clone(), new_addr];
    for (addr, slice) in final_addrs.iter().zip(&slices) {
        wait_weight(addr, weight_of(slice));
    }

    // Per-node differential: each node's published engine must equal
    // the sequential reference bank for its slice, bit for bit.
    for (i, (addr, slice)) in final_addrs.iter().zip(&slices).enumerate() {
        assert_eq!(
            binary_snap(addr).state_fingerprint(),
            node_engine(slice).state_fingerprint(),
            "node {} engine diverged from its sequential reference",
            i + 1
        );
    }

    // Differential check #2: the invariant survives crash + promotion.
    let bank_ab = reference_bank(&slices);
    for query in [
        format!("EST {hot}"),
        format!("EST {}", stream_b[0].0),
        "TOPK 25".into(),
        "HH 0.01".into(),
    ] {
        assert_cluster_answer(&topo_path, &bank_ab, &query);
    }

    for addr in &final_addrs {
        assert_eq!(text_request(addr, "QUIT")[0], "OK bye");
    }
}

/// Satellite regression: `query-remote` used to block forever against a
/// server that accepts the connection but never replies (and against a
/// dead port with no bound listener). With timeouts + bounded retries
/// both protocols must fail fast instead.
#[test]
fn query_remote_errors_fast_on_silent_or_dead_servers() {
    // A "server" that accepts and then stays silent, holding every
    // connection open so the client never sees EOF.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((sock, _)) = listener.accept() {
            held.push(sock);
        }
    });
    for binary in [false, true] {
        let started = Instant::now();
        let result = serve::run_query_remote(port, &["STATS".to_string()], binary, 250, 0);
        assert!(
            result.is_err(),
            "silent server must time out (binary={binary}), got {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "timed out too slowly (binary={binary})"
        );
    }

    // A dead port: bind then drop, so nothing is listening. Bounded
    // retries must give up quickly instead of spinning forever.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_port = dead.local_addr().unwrap().port();
    drop(dead);
    let started = Instant::now();
    let result = serve::run_query_remote(dead_port, &["STATS".to_string()], false, 200, 2);
    assert!(result.is_err(), "dead port must fail, got {result:?}");
    assert!(started.elapsed() < Duration::from_secs(30));
}

/// Regression: `query-remote --binary` allocated whatever reply length
/// the server's frame header claimed. A hostile header must be refused
/// from the header alone, promptly.
#[test]
fn query_remote_binary_refuses_an_oversized_response_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        sock.write_all(&[0xff; 4]).unwrap();
        // Hold the connection open: the client must not wait for bytes.
        sock
    });
    let started = Instant::now();
    let result = serve::run_query_remote(port, &["STATS".to_string()], true, 10_000, 0);
    let err = result.expect_err("a 4 GiB response frame must be refused");
    assert!(err.to_string().contains("response frame length"), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "refused too slowly: {:?}",
        started.elapsed()
    );
    drop(fake.join().unwrap());
}

/// Regression: the `cluster-serve` front node read request lines without
/// a bound, so one client sending no newline grew it without limit
/// while holding its only serving slot. An overlong line now gets `ERR`
/// and a close, and the next client is served.
#[test]
fn cluster_serve_rejects_an_overlong_line_and_keeps_serving() {
    let dir = scratch("front-longline");
    // The only member is a dead port: every refresh fails, and the
    // front node says so, which is reply enough.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead.local_addr().unwrap().to_string();
    drop(dead);
    let topology = Topology::new(
        1,
        VNODES,
        vec![NodeSpec {
            id: 1,
            addr: dead_addr,
        }],
    )
    .unwrap();
    let topo_path = dir.join("topology.sftopo");
    std::fs::write(&topo_path, topology.encode()).unwrap();
    let port_file = dir.join("front-port");
    let _front = ChildGuard(
        bin()
            .args(["cluster-serve", "-k", "512", "--port", "0"])
            .args(["--timeout-ms", "200", "--retries", "0"])
            .arg("--topology")
            .arg(&topo_path)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let addr = wait_addr(&port_file);

    // 1 MiB with no newline. The front node may close before taking it
    // all, so a failed write is expected; the ERR reply must arrive.
    let mut hostile = TcpStream::connect(&addr).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = hostile.write_all(&vec![b'a'; 1 << 20]);
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR request line longer than"), "{line:?}");
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "bytes after ERR: {rest:?}"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset),
            "connection not closed: {e}"
        ),
    }

    let stats = text_request(&addr, "STATS");
    assert!(stats[0].starts_with("ERR refresh failed"), "{stats:?}");
    assert_eq!(text_request(&addr, "QUIT")[0], "OK bye");
}
