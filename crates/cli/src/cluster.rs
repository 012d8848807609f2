//! Cluster verbs: ingest routing, the merging query tier, and
//! WAL-shipped replication.
//!
//! A cluster is N ordinary `serve` processes started *without*
//! `--input` (wire-ingest nodes) plus a topology file
//! ([`streamfreq_core::cluster::Topology`], `SFTOPO v1`) that pins the
//! membership: node ids, addresses, vnode count, and an epoch that
//! every mutation strictly increases. All verbs here are *clients* of
//! those processes over the SFBP binary protocol — the cluster has no
//! coordinator; the topology file is the single source of routing
//! truth.
//!
//! * [`run_cluster_ingest`] — partitions a stream file over the
//!   consistent-hash ring and ships each node its slice in bounded
//!   `INGEST` batches, with bounded-retry connection establishment.
//! * [`run_cluster_query`] — fans `SNAP` out to every node, merges the
//!   per-node Algorithm-5 engines into one bank, and answers in the
//!   text protocol's shape plus per-node diagnostics. By Theorem 5 the
//!   merged bank's error band is certified: per-node offsets add,
//!   stream weights add.
//! * [`run_cluster_serve`] — a front node serving the text protocol
//!   from a periodically refreshed merged view, one connection at a
//!   time, with serve's 4 KiB request-line cap.
//! * [`run_cluster_replicate`] — copies a durable node's store
//!   (checkpoint + WAL tail) over `REPL`/`FETCH` into a local replica
//!   directory that `serve --data-dir` recovers exactly.
//! * [`run_cluster_promote`] — rewrites a topology entry's address
//!   (epoch + 1). Ring placement keys on node *ids*, so promotion
//!   changes where a node's slice is served without moving any keys.
//!
//! Both query verbs answer through [`crate::protocol`], the codec
//! `serve` uses, so a cluster answer is byte-for-byte a single-node
//! answer on the merged bank; only the STATS body is the cluster's own.
//!
//! Node responses are untrusted bytes: frame reads are length-capped
//! (`query-remote --binary` reads through the same cap) and all payload
//! decoding goes through the defensive
//! [`streamfreq_core::cluster::wire`] codecs.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use streamfreq_core::cluster::wire::{self, MAX_INGEST_BATCH};
use streamfreq_core::cluster::Topology;
use streamfreq_core::persist::MAX_SHIP_CHUNK;
use streamfreq_core::{FreqSketch, PurgePolicy, SketchEngine};
use streamfreq_workloads::load_binary;

use crate::protocol::{self, Query, Reply, MAX_TEXT_LINE};
use crate::serve::{node_opcode, BINARY_MAGIC};
use crate::CliError;

/// Connects to `addr` with a connect timeout, retrying failed
/// *connection attempts* up to `retries` extra times with doubling
/// backoff (50 ms, 100 ms, … capped at 1 s). Only establishment is
/// retried — once connected, a request is sent at most once, so a
/// timeout mid-exchange can never double-apply an `INGEST`. The
/// read/write timeouts are installed on the returned stream.
pub(crate) fn connect_with_retry(
    addr: &SocketAddr,
    timeout: Duration,
    retries: u32,
) -> std::io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(50);
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect_timeout(addr, timeout) {
            Ok(stream) => {
                // Requests are small frames answered one at a time;
                // Nagle would hold each one for the previous reply's ACK.
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                return Ok(stream);
            }
            Err(e) if attempt >= retries => return Err(e),
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
                attempt += 1;
            }
        }
    }
}

/// Default `INGEST` batch size for `cluster-ingest`.
pub const DEFAULT_INGEST_BATCH: usize = 4096;

/// Cap on one response frame from a node. Snapshots of large banks are
/// the biggest legitimate payload; a hostile length beyond this is
/// rejected before allocation.
const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Configuration of one `cluster-ingest` run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterIngestOptions {
    /// The topology file defining the ring.
    pub topology: PathBuf,
    /// Input stream file (16-byte `(item, weight)` records).
    pub input: PathBuf,
    /// Updates per `INGEST` frame.
    pub batch: usize,
    /// Connect/read/write timeout per node, in milliseconds.
    pub timeout_ms: u64,
    /// Extra connection attempts per node, with doubling backoff.
    pub retries: u32,
}

/// Configuration of one `cluster-query` run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterQueryOptions {
    /// The topology file defining the membership.
    pub topology: PathBuf,
    /// Merged-bank counter budget (match the nodes' `-k`).
    pub k: usize,
    /// Merged-bank purge policy (match the nodes').
    pub policy: PurgePolicy,
    /// Merged-bank sampler seed (match the nodes').
    pub seed: u64,
    /// The query tokens (`EST item` | `TOPK n` | `HH phi [nfp|nfn]` |
    /// `STATS`).
    pub request: Vec<String>,
    /// Connect/read/write timeout per node, in milliseconds.
    pub timeout_ms: u64,
    /// Extra connection attempts per node, with doubling backoff.
    pub retries: u32,
}

/// Configuration of one `cluster-serve` front node.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterServeOptions {
    /// The topology file defining the membership.
    pub topology: PathBuf,
    /// Merged-bank counter budget (match the nodes' `-k`).
    pub k: usize,
    /// Merged-bank purge policy (match the nodes').
    pub policy: PurgePolicy,
    /// Merged-bank sampler seed (match the nodes').
    pub seed: u64,
    /// Loopback port to bind (0 = ephemeral, see `port_file`).
    pub port: u16,
    /// If set, the bound address is written here once listening.
    pub port_file: Option<PathBuf>,
    /// Minimum milliseconds between fan-out refreshes of the merged
    /// view (queries in between serve the cached merge).
    pub refresh_ms: u64,
    /// Connect/read/write timeout per node, in milliseconds.
    pub timeout_ms: u64,
    /// Extra connection attempts per node, with doubling backoff.
    pub retries: u32,
}

/// Configuration of one `cluster-replicate` run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReplicateOptions {
    /// Loopback port of the durable leader node.
    pub port: u16,
    /// Local replica directory (created if missing).
    pub dir: PathBuf,
    /// Request a `CKPT` round before shipping, so the replica starts
    /// from a fresh checkpoint and a short WAL tail.
    pub checkpoint: bool,
    /// Connect/read/write timeout, in milliseconds.
    pub timeout_ms: u64,
    /// Extra connection attempts, with doubling backoff.
    pub retries: u32,
}

/// Reads and parses a topology file.
///
/// # Errors
/// [`CliError::Io`] if unreadable, [`CliError::Sketch`] if malformed.
pub fn load_topology(path: &PathBuf) -> Result<Topology, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(path.clone(), e))?;
    Topology::parse(&bytes).map_err(|e| CliError::Sketch(path.clone(), e))
}

/// One SFBP connection to a cluster node.
struct NodeConn {
    addr: String,
    stream: TcpStream,
}

impl NodeConn {
    /// Connects (with bounded retry) and sends the protocol magic.
    fn open(addr: &str, timeout_ms: u64, retries: u32) -> Result<NodeConn, CliError> {
        let net = |e: std::io::Error| CliError::Net(addr.to_string(), e);
        let socket_addr: SocketAddr =
            addr.to_socket_addrs().map_err(net)?.next().ok_or_else(|| {
                CliError::Net(
                    addr.to_string(),
                    std::io::Error::new(ErrorKind::InvalidInput, "address resolves to nothing"),
                )
            })?;
        let timeout = Duration::from_millis(timeout_ms.max(1));
        let mut stream = connect_with_retry(&socket_addr, timeout, retries).map_err(net)?;
        stream.write_all(BINARY_MAGIC).map_err(net)?;
        Ok(NodeConn {
            addr: addr.to_string(),
            stream,
        })
    }

    /// One request/response exchange. An `ERR` status becomes a
    /// [`CliError::Net`] carrying the server's message.
    fn request(&mut self, op: u8, payload: &[u8]) -> Result<Vec<u8>, CliError> {
        let net = |e: std::io::Error| CliError::Net(self.addr.clone(), e);
        let mut frame = Vec::with_capacity(payload.len() + 16);
        let body_len = u32::try_from(payload.len().saturating_add(1))
            .map_err(|_| CliError::Usage("request payload too large for one frame".into()))?;
        frame.extend_from_slice(&body_len.to_le_bytes());
        frame.push(op);
        frame.extend_from_slice(payload);
        self.stream.write_all(&frame).map_err(net)?;
        let (status, reply) = read_frame_capped(&mut self.stream).map_err(net)?;
        if status != 0 {
            return Err(CliError::Net(
                self.addr.clone(),
                std::io::Error::other(format!("node error: {}", String::from_utf8_lossy(&reply))),
            ));
        }
        Ok(reply)
    }
}

/// Reads one `[len u32le | status | payload]` response frame from an
/// untrusted node, rejecting hostile lengths before allocating.
pub(crate) fn read_frame_capped(reader: &mut impl Read) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let frame_len = usize::try_from(u32::from_le_bytes(header))
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "frame length overflow"))?;
    if frame_len == 0 || frame_len > MAX_RESPONSE_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("response frame length {frame_len} outside 1..={MAX_RESPONSE_FRAME}"),
        ));
    }
    let mut frame = vec![0u8; frame_len];
    reader.read_exact(&mut frame)?;
    let payload = frame.split_off(1);
    let status = frame.first().copied().ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidData, "response frame missing status")
    })?;
    Ok((status, payload))
}

/// Routes a stream file's updates to their owning nodes over the ring
/// and ships them in bounded `INGEST` batches.
///
/// Retry policy: only *connection establishment* is retried (bounded,
/// doubling backoff). Once a node has acknowledged any batch, a
/// mid-stream failure aborts the whole run with an error rather than
/// re-sending — re-applying a batch would silently double-count
/// weight, which no error bound forgives.
///
/// # Errors
/// [`CliError`] on unreadable inputs or node failure.
pub fn run_cluster_ingest(opts: &ClusterIngestOptions) -> Result<String, CliError> {
    let topology = load_topology(&opts.topology)?;
    let stream = load_binary(&opts.input).map_err(|e| CliError::Io(opts.input.clone(), e))?;
    let batch_size = opts.batch.clamp(1, MAX_INGEST_BATCH);
    let ring = topology.ring();
    let nodes = topology.nodes();

    // Partition the whole stream first: routing is pure ring math.
    let mut slices: Vec<Vec<(u64, u64)>> = nodes.iter().map(|_| Vec::new()).collect();
    for &(item, weight) in &stream {
        let owner = ring.route(&item);
        if let Some(slice) = slices.get_mut(owner) {
            slice.push((item, weight));
        }
    }

    let started = Instant::now();
    let mut out = format!(
        "routing {} updates across {} nodes (topology epoch {}, {} vnodes/node)\n",
        stream.len(),
        nodes.len(),
        topology.epoch(),
        topology.vnodes()
    );
    let mut shipped_total: u64 = 0;
    for (spec, slice) in nodes.iter().zip(&slices) {
        let mut conn = NodeConn::open(&spec.addr, opts.timeout_ms, opts.retries)?;
        let weight: u64 = slice.iter().map(|&(_, w)| w).sum();
        let mut applied: u64 = 0;
        for chunk in slice.chunks(batch_size) {
            let reply = conn.request(node_opcode::INGEST, &wire::encode_ingest_batch(chunk))?;
            let Ok(raw) = <[u8; 8]>::try_from(reply.as_slice()) else {
                return Err(CliError::Net(
                    spec.addr.clone(),
                    std::io::Error::new(ErrorKind::InvalidData, "malformed INGEST ack"),
                ));
            };
            let acked = u64::from_le_bytes(raw);
            if acked != chunk.len() as u64 {
                return Err(CliError::Net(
                    spec.addr.clone(),
                    std::io::Error::other(format!(
                        "node acknowledged {acked} of {} updates",
                        chunk.len()
                    )),
                ));
            }
            applied += acked;
        }
        shipped_total += applied;
        out.push_str(&format!(
            "node {} {} updates={} weight={}\n",
            spec.id, spec.addr, applied, weight
        ));
    }
    out.push_str(&format!(
        "shipped {} updates in {:.3}s\n",
        shipped_total,
        started.elapsed().as_secs_f64()
    ));
    Ok(out)
}

/// What the query tier learned about one node during a fan-out.
struct NodeView {
    id: u64,
    addr: String,
    epoch: u64,
    sealed: bool,
    weight: u64,
}

/// Fans `SNAP` out to every node of `topology`, returning per-node
/// status and the decoded engines in topology node order (merge order
/// must be deterministic so merged banks are reproducible).
fn fan_out_snapshots(
    topology: &Topology,
    timeout_ms: u64,
    retries: u32,
) -> Result<(Vec<NodeView>, Vec<SketchEngine<u64>>), CliError> {
    let mut views = Vec::new();
    let mut engines = Vec::new();
    for spec in topology.nodes() {
        let mut conn = NodeConn::open(&spec.addr, timeout_ms, retries)?;
        let payload = conn.request(node_opcode::SNAP, &[])?;
        let snap = wire::decode_snapshot(&payload)
            .map_err(|e| CliError::Sketch(PathBuf::from(&spec.addr), e))?;
        views.push(NodeView {
            id: spec.id,
            addr: spec.addr.clone(),
            epoch: snap.epoch,
            sealed: snap.sealed,
            weight: snap.engine.stream_weight(),
        });
        engines.push(snap.engine);
    }
    Ok((views, engines))
}

/// Merges fanned-out engines into one bank with the given
/// configuration — the same recipe `recover` uses for a durable bank,
/// and exactly Algorithm 5: per-node offsets add, stream weights add.
fn merge_engines(
    k: usize,
    policy: PurgePolicy,
    seed: u64,
    engines: Vec<SketchEngine<u64>>,
) -> Result<FreqSketch, CliError> {
    let mut merged = FreqSketch::builder(k)
        .policy(policy)
        .seed(seed)
        .build()
        .map_err(|e| CliError::Sketch(PathBuf::from("<cluster-merge>"), e))?;
    for engine in engines {
        merged.merge(&FreqSketch::from(engine));
    }
    Ok(merged)
}

/// Answers one query from the merged bank. STATS reports the merged
/// totals; every other verb is [`protocol::answer`] on the merged
/// engine, exactly as a single node answers it.
fn answer_cluster(merged: &FreqSketch, query: &Query, nodes: usize) -> Reply {
    match query {
        Query::Stats => Reply::Stats(format!(
            "n={} counters={} max_error={} nodes={nodes}",
            merged.stream_weight(),
            merged.num_counters(),
            merged.maximum_error()
        )),
        query => protocol::answer(merged.engine(), query),
    }
}

/// The per-node diagnostic block appended after a cluster answer.
fn cluster_diagnostics(merged: &FreqSketch, views: &[NodeView]) -> String {
    let epoch_min = views.iter().map(|v| v.epoch).min().unwrap_or(0);
    let epoch_max = views.iter().map(|v| v.epoch).max().unwrap_or(0);
    let sealed = views.iter().filter(|v| v.sealed).count();
    let mut out = format!(
        "cluster: nodes={} epoch_min={epoch_min} epoch_max={epoch_max} \
         n={} max_error={} sealed={sealed}/{}\n",
        views.len(),
        merged.stream_weight(),
        merged.maximum_error(),
        views.len()
    );
    for view in views {
        out.push_str(&format!(
            "node {} {} epoch={} n={} sealed={}\n",
            view.id,
            view.addr,
            view.epoch,
            view.weight,
            u8::from(view.sealed)
        ));
    }
    out
}

/// Fans one query out to the cluster, merges, and answers.
///
/// # Errors
/// [`CliError`] on topology, node, or query errors.
pub fn run_cluster_query(opts: &ClusterQueryOptions) -> Result<String, CliError> {
    let query = Query::parse_line(&opts.request.join(" ")).map_err(CliError::Usage)?;
    let topology = load_topology(&opts.topology)?;
    let (views, engines) = fan_out_snapshots(&topology, opts.timeout_ms, opts.retries)?;
    let merged = merge_engines(opts.k, opts.policy, opts.seed, engines)?;
    let mut out = match answer_cluster(&merged, &query, views.len()) {
        Reply::Err(reason) => return Err(CliError::Usage(reason)),
        reply => reply.to_string(),
    };
    out.push_str(&cluster_diagnostics(&merged, &views));
    Ok(out)
}

/// Runs a front node: answers the text protocol from a merged view
/// refreshed by full fan-out at most every `refresh_ms` milliseconds.
/// `QUIT` stops the front node (never the ingest nodes).
///
/// # Errors
/// [`CliError`] on topology or socket failures. A node failing
/// *during* a refresh turns into `ERR` replies, not a front crash.
pub fn run_cluster_serve(opts: &ClusterServeOptions) -> Result<String, CliError> {
    let topology = load_topology(&opts.topology)?;
    let listener = TcpListener::bind(("127.0.0.1", opts.port))
        .map_err(|e| CliError::Net("127.0.0.1".into(), e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Net("127.0.0.1".into(), e))?;
    if let Some(port_file) = &opts.port_file {
        std::fs::write(port_file, addr.to_string())
            .map_err(|e| CliError::Io(port_file.clone(), e))?;
    }
    let refresh = Duration::from_millis(opts.refresh_ms);
    let mut cached: Option<(Instant, FreqSketch, Vec<NodeView>)> = None;
    let mut queries: u64 = 0;
    let mut connections: u64 = 0;
    'accept: loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) => return Err(CliError::Net(addr.to_string(), e)),
        };
        connections += 1;
        // A client that connects and never sends must not wedge the
        // front node (the same hang class query-remote's timeout fixes).
        let _ = stream.set_read_timeout(Some(Duration::from_millis(opts.timeout_ms.max(1))));
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        });
        let mut stream = stream;
        let mut line = String::new();
        loop {
            line.clear();
            // One byte past the cap tells an overlong line from a full
            // one, without ever buffering more.
            match (&mut reader)
                .take(MAX_TEXT_LINE as u64 + 1)
                .read_line(&mut line)
            {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if line.len() > MAX_TEXT_LINE && !line.ends_with('\n') {
                let _ = stream.write_all(Reply::overlong_line().to_string().as_bytes());
                break;
            }
            let reply = match Query::parse_line(&line) {
                Ok(Query::Quit) => {
                    let _ = stream.write_all(Reply::Bye.to_string().as_bytes());
                    break 'accept;
                }
                Ok(query) => {
                    queries += 1;
                    // A failed refresh drops the stale view too: the next
                    // query refreshes again either way.
                    let view = match cached.take() {
                        Some(view) if view.0.elapsed() < refresh => Ok(view),
                        _ => fan_out_snapshots(&topology, opts.timeout_ms, opts.retries).and_then(
                            |(views, engines)| {
                                merge_engines(opts.k, opts.policy, opts.seed, engines)
                                    .map(|merged| (Instant::now(), merged, views))
                            },
                        ),
                    };
                    match view {
                        Ok(view) => {
                            let reply = answer_cluster(&view.1, &query, view.2.len());
                            cached = Some(view);
                            reply
                        }
                        Err(e) => Reply::Err(format!("refresh failed: {e}")),
                    }
                }
                Err(reason) => Reply::Err(reason),
            };
            if stream.write_all(reply.to_string().as_bytes()).is_err() {
                break;
            }
        }
    }
    Ok(format!(
        "front node on {addr} served {queries} queries over {connections} connections\n"
    ))
}

/// Replicates a durable leader's store directory over the wire:
/// optionally `CKPT` first, then `REPL` for the manifest, then `FETCH`
/// loops until every listed file is a byte-exact local prefix copy.
/// Re-running is incremental: files already at their advertised length
/// are skipped, shorter local files fetch only the tail, and a local
/// file *longer* than advertised (leader checkpoint truncated its WAL)
/// is re-shipped from offset zero.
///
/// # Errors
/// [`CliError`] on node or filesystem failure.
pub fn run_cluster_replicate(opts: &ClusterReplicateOptions) -> Result<String, CliError> {
    let addr = format!("127.0.0.1:{}", opts.port);
    let mut conn = NodeConn::open(&addr, opts.timeout_ms, opts.retries)?;
    std::fs::create_dir_all(&opts.dir).map_err(|e| CliError::Io(opts.dir.clone(), e))?;
    let mut out = format!("replicating {addr} into {}\n", opts.dir.display());
    if opts.checkpoint {
        let reply = conn.request(protocol::opcode::CKPT, &[])?;
        let epoch = <[u8; 8]>::try_from(reply.as_slice())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        out.push_str(&format!("leader checkpointed at epoch {epoch}\n"));
    }
    let manifest_bytes = conn.request(node_opcode::REPL, &[])?;
    let manifest = wire::decode_file_list(&manifest_bytes)
        .map_err(|e| CliError::Sketch(PathBuf::from(&addr), e))?;
    let persist_err = |e| CliError::Persist(opts.dir.clone(), e);
    let mut copied_files = 0usize;
    let mut copied_bytes: u64 = 0;
    for (rel, advertised) in &manifest {
        let local_path = opts.dir.join(rel);
        let local_len = std::fs::metadata(&local_path).map(|m| m.len()).unwrap_or(0);
        let mut have = if local_len > *advertised {
            // The leader's file shrank (checkpoint truncation renamed a
            // new WAL generation): restart this file from scratch.
            streamfreq_core::persist::import_file_range(&opts.dir, rel, 0, &[])
                .map_err(persist_err)?;
            0
        } else {
            local_len
        };
        if have == *advertised {
            continue;
        }
        while have < *advertised {
            let reply = conn.request(node_opcode::FETCH, &wire::encode_fetch_request(have, rel))?;
            if reply.is_empty() {
                return Err(CliError::Net(
                    addr.clone(),
                    std::io::Error::other(format!(
                        "{rel}: leader stopped at {have} of {advertised} advertised bytes \
                         (truncated mid-ship; re-run cluster-replicate)"
                    )),
                ));
            }
            if reply.len() as u64 > MAX_SHIP_CHUNK {
                return Err(CliError::Net(
                    addr.clone(),
                    std::io::Error::new(ErrorKind::InvalidData, "oversized FETCH chunk"),
                ));
            }
            streamfreq_core::persist::import_file_range(&opts.dir, rel, have, &reply)
                .map_err(persist_err)?;
            have += reply.len() as u64;
            copied_bytes += reply.len() as u64;
        }
        copied_files += 1;
    }
    out.push_str(&format!(
        "manifest: {} files; copied {copied_files} ({copied_bytes} bytes)\n",
        manifest.len()
    ));
    Ok(out)
}

/// Rewrites one node's address in a topology file (epoch + 1) —
/// replica promotion. Routing is untouched: ring placement keys on the
/// node *id*, which the promoted replica inherits.
///
/// # Errors
/// [`CliError`] if the file is unreadable, malformed, or the id is not
/// a member.
pub fn run_cluster_promote(topology: &PathBuf, node: u64, addr: &str) -> Result<String, CliError> {
    let before = load_topology(topology)?;
    let after = before
        .with_node_addr(node, addr)
        .map_err(|e| CliError::Sketch(topology.clone(), e))?;
    std::fs::write(topology, after.encode()).map_err(|e| CliError::Io(topology.clone(), e))?;
    Ok(format!(
        "promoted node {node} to {addr}: topology epoch {} -> {}\n",
        before.epoch(),
        after.epoch()
    ))
}
