//! `serve_durable`: one durable wire-ingest node under mixed load.
//!
//! `run_serve` with no input, a fresh data directory, the default
//! `EveryBytes(8 MiB)` fsync policy, no periodic checkpoints, 4 shards,
//! k = 65536 and 20 ms snapshots. Two load sources run at once:
//!
//! * ingest, closed loop: thread 1 sends 4096-update `INGEST` frames of a
//!   Zipf stream (α 1.2 over 50k items, weights 1–1000) and waits for
//!   each ack;
//! * queries, open loop: thread 2 sends `EST` at 1000/s on items drawn
//!   from the same Zipf and `TOPK 100` at 20/s on a second connection,
//!   timing each from its due time.
//!
//! The hot set fits k, so the shards never purge: the time goes to the
//! event loop, the shard channels and snapshot publishing, and the
//! group-commit WAL. Afterwards `run_cluster_replicate` copies the store
//! and a second `run_serve` recovers the copy.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use streamfreq_cli::cluster::{run_cluster_replicate, ClusterReplicateOptions};
use streamfreq_core::cluster::wire;
use streamfreq_workloads::materialize_zipf;

use crate::net::{self, op, Client, Node, Stats, TIMEOUT};
use crate::schedule::Schedule;
use crate::stats::{median, Samples};
use crate::trace::{Open, Tracer};
use crate::{BoxResult, Ctx, Report};

const K: usize = 65_536;
const SHARDS: usize = 4;
const SNAPSHOT_MS: u64 = 20;
const CHUNK: usize = 4_096;
/// Frames in the ingest stream, which the closed loop cycles through.
const FRAMES: usize = 512;
/// Frames each durable node takes before it is replicated and
/// recovered. The volume is fixed rather than the ingest time, so the
/// WAL, the replica and the replay hold the same work on every commit.
const ROUND_FRAMES: u64 = 4_096;
const UNIVERSE: u64 = 50_000;
const ALPHA: f64 = 1.2;
const MAX_WEIGHT: u64 = 1_000;
const EST_RATE: u64 = 1_000;
const TOPK_RATE: u64 = 20;
const TOPK_N: u32 = 100;
/// Fresh-node starts timed in each round, the round's leader included;
/// `setup_s` is their median over the run.
const SETUP_PER_ROUND: usize = 8;
/// Items whose `EST` answers are checked after the ingest.
const PROBES: usize = 256;

/// What the closed ingest loop saw.
struct Ingest {
    acks: Samples,
    frames: u64,
    acked_updates: u64,
    acked_weight: u64,
    seconds: f64,
}

fn ingest_loop(
    mut client: Client,
    frames: &[(Vec<u8>, u64)],
    total: u64,
    tracer: &Tracer,
) -> Ingest {
    let mut out = Ingest {
        acks: Samples::default(),
        frames: 0,
        acked_updates: 0,
        acked_weight: 0,
        seconds: 0.0,
    };
    let started = Instant::now();
    while out.frames < total {
        let (frame, weight) = &frames[out.frames as usize % frames.len()];
        let sent = Instant::now();
        let span = tracer.begin("serve.ingest_ack", None, out.frames);
        let reply = client.send(frame).and_then(|()| client.recv());
        tracer.end(span);
        out.frames += 1;
        match reply.map(|r| <[u8; 8]>::try_from(r.as_slice()).map(u64::from_le_bytes)) {
            Ok(Ok(acked)) if acked == CHUNK as u64 => {
                out.acks.push(sent.elapsed().as_secs_f64() * 1e6);
                out.acked_updates += acked;
                out.acked_weight += weight;
            }
            _ => {
                // The connection's state is unknown after a failed
                // exchange: stop, and let the n check report the gap.
                out.acks.fail();
                break;
            }
        }
    }
    out.seconds = started.elapsed().as_secs_f64();
    out
}

/// One query in flight on the open-loop connection.
struct Pending {
    kind: usize,
    due_ns: u64,
    span: Option<Open>,
}

/// What the open query loop saw.
struct Queries {
    est: Samples,
    topk: Samples,
    lag_ms: Samples,
    sent: u64,
    answered: u64,
    malformed: u64,
}

/// `true` when a reply has the shape and bound order its query expects.
fn well_formed(kind: usize, status: u8, payload: &[u8]) -> bool {
    if status != 0 {
        return false;
    }
    let ordered = |e: u64, lo: u64, hi: u64| lo <= e && e <= hi;
    match kind {
        0 => net::parse_est(payload).is_some_and(|(e, lo, hi)| ordered(e, lo, hi)),
        _ => net::parse_rows(payload).is_some_and(|rows| {
            rows.len() <= TOPK_N as usize && rows.iter().all(|r| ordered(r[1], r[2], r[3]))
        }),
    }
}

/// Sends queries on schedule until `done` is set, then waits for the
/// replies still owed.
fn query_loop(
    mut conn: TcpStream,
    items: &[u64],
    done: &AtomicBool,
    tracer: &Tracer,
) -> BoxResult<Queries> {
    let mut q = Queries {
        est: Samples::default(),
        topk: Samples::default(),
        lag_ms: Samples::default(),
        sent: 0,
        answered: 0,
        malformed: 0,
    };
    let mut schedule = Schedule::new(&[EST_RATE, TOPK_RATE]).peekable();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut est_index = 0usize;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let fail_all = |q: &mut Queries, pending: &mut VecDeque<Pending>| {
        for p in pending.drain(..) {
            if p.kind == 0 {
                q.est.fail()
            } else {
                q.topk.fail()
            }
        }
    };
    loop {
        // Send everything that has fallen due.
        let mut out = Vec::new();
        let stopping = done.load(Ordering::SeqCst);
        while let Some(&(kind, due_ns)) = schedule.peek().filter(|_| !stopping) {
            let now = now_ns();
            if due_ns > now {
                break;
            }
            schedule.next();
            q.lag_ms.push((now - due_ns) as f64 / 1e6);
            if kind == 0 {
                let item = items[est_index % items.len()];
                est_index += 1;
                out.extend(net::frame(op::EST, &item.to_le_bytes()));
            } else {
                out.extend(net::frame(op::TOPK, &TOPK_N.to_le_bytes()));
            }
            let name = if kind == 0 { "serve.est" } else { "serve.topk" };
            pending.push_back(Pending {
                kind,
                due_ns,
                span: tracer.begin(name, None, q.sent),
            });
            q.sent += 1;
        }
        if !out.is_empty() && conn.write_all(&out).is_err() {
            fail_all(&mut q, &mut pending);
            break;
        }
        if pending.is_empty() && stopping {
            break;
        }
        if let Some(oldest) = pending.front() {
            if now_ns().saturating_sub(oldest.due_ns) > TIMEOUT.as_nanos() as u64 {
                fail_all(&mut q, &mut pending);
                break;
            }
        }
        // Wait for a reply, but never past the next due time.
        let wait_ns = match schedule.peek() {
            Some(&(_, due)) if !stopping => due.saturating_sub(now_ns()),
            _ => 1_000_000,
        };
        if wait_ns == 0 {
            continue;
        }
        if pending.is_empty() {
            std::thread::sleep(Duration::from_nanos(wait_ns));
            continue;
        }
        conn.set_read_timeout(Some(Duration::from_nanos(wait_ns.max(1_000))))?;
        match conn.read(&mut chunk) {
            Ok(0) => {
                fail_all(&mut q, &mut pending);
                break;
            }
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => {
                fail_all(&mut q, &mut pending);
                break;
            }
        }
        let arrived = now_ns();
        let mut used = 0;
        while let Some((status, payload, len)) = net::split_reply(&rbuf[used..])? {
            used += len;
            let p = pending.pop_front().ok_or("reply without a request")?;
            tracer.end(p.span);
            q.answered += 1;
            let samples = if p.kind == 0 { &mut q.est } else { &mut q.topk };
            if well_formed(p.kind, status, payload) {
                samples.push((arrived - p.due_ns) as f64 / 1e3);
            } else {
                samples.fail();
                q.malformed += 1;
            }
        }
        rbuf.drain(..used);
    }
    Ok(q)
}

/// Polls `STATS` until the published snapshot holds all `weight` that
/// was enqueued.
fn settled_stats(client: &mut Client, weight: u64) -> BoxResult<Stats> {
    let deadline = Instant::now() + TIMEOUT * 3;
    loop {
        let stats = client.stats()?;
        if stats.get::<u64>("n")? == weight && stats.get::<u64>("enqueued")? == weight {
            return Ok(stats);
        }
        if Instant::now() > deadline {
            return Err(format!("STATS n never reached {weight}: {stats:?}").into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What one durable-node lifecycle measured.
struct Round {
    /// Start of the leader, a fresh durable node, to its first `STATS`.
    setup_s: f64,
    ingest: Ingest,
    queries: Queries,
    publishes: u64,
    counters: f64,
    wal_bytes: f64,
    wal_flushes: f64,
    frames_per_fsync: f64,
    replica_bytes: u64,
    recover_s: f64,
}

/// Updates the exact counts hold after `acked` updates of the cycled
/// stream.
fn exact_after(stream: &[(u64, u64)], acked: u64) -> HashMap<u64, u64> {
    let cycles = acked / stream.len() as u64;
    let tail = (acked % stream.len() as u64) as usize;
    let mut exact: HashMap<u64, u64> = HashMap::new();
    for (i, &(item, weight)) in stream.iter().enumerate() {
        *exact.entry(item).or_insert(0) += weight * (cycles + u64::from(i < tail));
    }
    exact
}

/// One lifecycle: a fresh durable node takes the mixed load, its answers
/// are checked, its store is replicated, and the replica is recovered
/// and checked against it.
fn round(
    ctx: &Ctx,
    r: u64,
    stream: &[(u64, u64)],
    frames: &[(Vec<u8>, u64)],
    items: &[u64],
    report: &mut Report,
) -> BoxResult<Round> {
    let tracer = &ctx.tracer;
    let leader_dir = ctx.dir.join(format!("leader-{r}"));
    let opts = net::node_options(
        ctx.dir.join("leader.port"),
        K,
        SHARDS,
        SNAPSHOT_MS,
        Some(leader_dir.clone()),
    );
    let (leader, setup_s) = Node::start(opts)?;
    let before = Client::connect(&leader.addr)?.stats()?;

    // Mixed load: closed-loop ingest beside open-loop queries. The query
    // connection is opened first so the server's event loop always
    // serves the two in the same order.
    let sock = leader.addr.parse()?;
    let mut query_conn = TcpStream::connect_timeout(&sock, TIMEOUT)?;
    query_conn.set_nodelay(true)?;
    query_conn.set_write_timeout(Some(TIMEOUT))?;
    query_conn.write_all(streamfreq_cli::serve::BINARY_MAGIC)?;
    let mut ingest_conn = Client::connect(&leader.addr)?;
    ingest_conn.stats()?;
    let done = AtomicBool::new(false);
    let (ingest, queries) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let out = ingest_loop(ingest_conn, frames, ROUND_FRAMES, tracer);
            done.store(true, Ordering::SeqCst);
            out
        });
        let queries = s.spawn(|| query_loop(query_conn, items, &done, tracer));
        (
            ingest.join().expect("ingest thread panicked"),
            queries.join().expect("query thread panicked"),
        )
    });
    let queries = queries?;
    // A control connection opens only after the load, so the load runs
    // on exactly two connections.
    let mut control = Client::connect(&leader.addr)?;
    let after = control.stats()?;
    report.attempted += ingest.frames + queries.sent;
    report.failed += ingest.acks.failures() + queries.est.failures() + queries.topk.failures();
    if queries.answered != queries.sent {
        report.problems.push(format!(
            "round {r}: open loop answered {} of {} queries sent (backlog)",
            queries.answered, queries.sent
        ));
    }
    report.check(queries.malformed == 0, || {
        format!(
            "round {r}: {} malformed or ERR query replies",
            queries.malformed
        )
    });

    // Every acked update is in n, and EST brackets the exact counts.
    let stats = settled_stats(&mut control, ingest.acked_weight)?;
    let exact = exact_after(stream, ingest.acked_updates);
    let mut by_count: Vec<(u64, u64)> = exact.iter().map(|(&i, &c)| (i, c)).collect();
    by_count.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut probes: Vec<u64> = by_count.iter().take(PROBES / 2).map(|&(i, _)| i).collect();
    probes.extend(items.iter().rev().take(PROBES / 2));
    probes.push(u64::MAX); // never sent: exact count 0
    let mut answers = Vec::new();
    for &item in &probes {
        let (e, lo, hi) = control.est(item)?;
        let truth = exact.get(&item).copied().unwrap_or(0);
        report.check(lo <= truth && truth <= hi, || {
            format!("round {r}: EST {item}: exact {truth} outside [{lo}, {hi}] (estimate {e})")
        });
        answers.push((e, lo, hi));
    }
    report.attempted += probes.len() as u64;

    // Replicate the store, then stop the leader.
    let replica = ctx.dir.join(format!("replica-{r}"));
    let port: u16 = leader
        .addr
        .rsplit(':')
        .next()
        .ok_or("bad address")?
        .parse()?;
    tracer.time("persist.replicate", None, r, || {
        run_cluster_replicate(&ClusterReplicateOptions {
            port,
            dir: replica.clone(),
            checkpoint: false,
            timeout_ms: TIMEOUT.as_millis() as u64,
            retries: 2,
        })
    })?;
    drop(control);
    leader.quit()?;
    std::fs::remove_dir_all(&leader_dir)?;
    let replica_bytes = dir_bytes(&replica)?;

    // Recover the replica: same n and the same answers as the leader.
    let opts = net::node_options(
        ctx.dir.join("replica.port"),
        K,
        SHARDS,
        SNAPSHOT_MS,
        Some(replica.clone()),
    );
    let span = tracer.begin("persist.recover", None, r);
    let (node, recover_s) = Node::start(opts)?;
    tracer.end(span);
    let mut client = Client::connect(&node.addr)?;
    settled_stats(&mut client, ingest.acked_weight)?;
    for (&item, &leader_answer) in probes.iter().zip(&answers) {
        let got = client.est(item)?;
        report.check(got == leader_answer, || {
            format!("round {r}: recovered EST {item}: {got:?}, leader said {leader_answer:?}")
        });
    }
    report.attempted += probes.len() as u64;
    drop(client);
    node.quit()?;
    std::fs::remove_dir_all(&replica)?;

    Ok(Round {
        setup_s,
        publishes: after.get::<u64>("epoch")? - before.get::<u64>("epoch")?,
        counters: stats.get("counters")?,
        wal_bytes: stats.get("wal_bytes")?,
        wal_flushes: stats.get("wal_flush_count")?,
        frames_per_fsync: stats.get("avg_frames_per_fsync")?,
        replica_bytes,
        recover_s,
        ingest,
        queries,
    })
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        bytes += if entry.file_type()?.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(bytes)
}

pub fn run(ctx: &Ctx) -> BoxResult<Report> {
    let mut report = Report::default();

    // Inputs: the ingest frames and the query-item picks.
    let stream = materialize_zipf(FRAMES * CHUNK, UNIVERSE, ALPHA, MAX_WEIGHT, ctx.seed_for(1));
    let frames: Vec<(Vec<u8>, u64)> = stream
        .chunks(CHUNK)
        .map(|c| {
            let weight = c.iter().map(|&(_, w)| w).sum();
            (
                net::frame(op::INGEST, &wire::encode_ingest_batch(c)),
                weight,
            )
        })
        .collect();
    let items: Vec<u64> = materialize_zipf(1 << 16, UNIVERSE, ALPHA, 1, ctx.seed_for(2))
        .into_iter()
        .map(|(item, _)| item)
        .collect();

    // Rounds. Each times fresh durable-node starts beside its leader's,
    // so set-up samples the whole run as the load does.
    let run_start = Instant::now();
    let (mut rounds, mut setup) = (Vec::new(), Vec::new());
    while rounds.len() < 2 || run_start.elapsed().as_secs_f64() < ctx.seconds {
        let r = rounds.len() as u64;
        for rep in 1..SETUP_PER_ROUND {
            let dir = ctx.dir.join(format!("setup-{r}-{rep}"));
            let opts = net::node_options(
                ctx.dir.join("setup.port"),
                K,
                SHARDS,
                SNAPSHOT_MS,
                Some(dir.clone()),
            );
            let (node, secs) = Node::start(opts)?;
            setup.push(secs);
            node.quit()?;
            std::fs::remove_dir_all(&dir)?;
        }
        let round = round(ctx, r, &stream, &frames, &items, &mut report)?;
        setup.push(round.setup_s);
        rounds.push(round);
    }
    report.metric("setup_s", median(&setup), "s");

    let (mut acks, mut est, mut topk, mut lag) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let (mut updates, mut secs, mut publishes) = (0u64, 0.0, 0u64);
    for r in &rounds {
        acks.extend(&r.ingest.acks);
        est.extend(&r.queries.est);
        topk.extend(&r.queries.topk);
        lag.extend(&r.queries.lag_ms);
        updates += r.ingest.acked_updates;
        secs += r.ingest.seconds;
        publishes += r.publishes;
    }
    report.metric("ingest_ups", updates as f64 / secs, "1/s");
    report.percentile("ingest_ack_p50_us", &acks, 0.5);
    report.percentile("ingest_ack_p99_us", &acks, 0.99);
    report.percentile("est_p50_us", &est, 0.5);
    report.percentile("est_p99_us", &est, 0.99);
    report.percentile("topk_p50_us", &topk, 0.5);
    report.percentile("topk_p90_us", &topk, 0.9);
    let mut all = est.clone();
    all.extend(&topk);
    report.percentile("query_p50_us", &all, 0.5);
    let recover: Vec<f64> = rounds.iter().map(|r| r.recover_s).collect();
    report.metric("recover_s", median(&recover), "s");
    report.note(format!(
        "{} rounds of {} acked updates; {} queries sent",
        rounds.len(),
        ROUND_FRAMES * CHUNK as u64,
        est.len() + topk.len()
    ));

    let mean = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>() / rounds.len() as f64;
    report.metric(
        "serve.generator_lag_ms",
        lag.percentile(0.99).value,
        "ms (p99)",
    );
    report.metric("concurrent.publishes_per_s", publishes as f64 / secs, "1/s");
    report.metric(
        "concurrent.snapshot_counters",
        mean(|r| r.counters),
        "count",
    );
    report.metric(
        "persist.wal_bytes_per_update",
        mean(|r| r.wal_bytes / r.ingest.acked_updates as f64),
        "B/update",
    );
    report.metric(
        "persist.wal_flushes",
        mean(|r| r.wal_flushes),
        "count/round",
    );
    report.metric(
        "persist.frames_per_fsync",
        mean(|r| r.frames_per_fsync),
        "count",
    );
    report.metric(
        "persist.replica_bytes",
        mean(|r| r.replica_bytes as f64),
        "B/round",
    );
    report.metric(
        "persist.replay_ups",
        mean(|r| r.ingest.acked_updates as f64 / r.recover_s),
        "1/s",
    );
    Ok(report)
}
