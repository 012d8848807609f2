//! Implementation of the `streamfreq` command-line tool: argument
//! parsing, command execution, and report formatting, factored into a
//! library so the test suite can drive it without spawning processes.

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod cluster;
pub mod protocol;
pub mod serve;

use streamfreq_apps::WindowedStore;
use streamfreq_core::persist::checkpoint::checkpoint_info;
use streamfreq_core::persist::recover::{
    open_bank_existing, recover_bank_readonly, recover_engine_readonly,
};
use streamfreq_core::persist::store::{
    checkpoint_bank, read_manifest, read_store_meta, shard_dir, Manifest, StoreMeta,
};
use streamfreq_core::{
    DurabilityOptions, DurableSketch, ErrorType, FreqSketch, PurgePolicy, Row, ShardedSketch,
};
use streamfreq_workloads::{
    load_binary, load_timed_binary, materialize_drifting_zipf, save_binary, save_timed_binary,
    tick_runs, CaidaConfig, DriftConfig, SyntheticCaida,
};

/// Usage text for `streamfreq help`.
pub const USAGE: &str = "\
streamfreq — frequent-items sketching from the command line

USAGE:
  streamfreq build -k <counters> --input <stream.bin> --output <sketch.sk>
                   [--policy smed|smin|q<percent>|med|globalmin] [--seed N]
                   [--threads N] [--shards S]
  streamfreq info  <sketch.sk>
  streamfreq top   <sketch.sk> [-n <rows>]
  streamfreq query <sketch.sk> [<item> ...] [--top N]
  streamfreq heavy <sketch.sk> --phi <fraction> [--contract nfp|nfn]
  streamfreq merge <a.sk> <b.sk> [<c.sk> ...] --output <merged.sk>
  streamfreq synth --updates <n> --output <stream.bin> [--flows N] [--seed N]
  streamfreq window synth --updates <n> --output <stream.tbin>
                   [--epochs E] [--width W] [--seed N]
  streamfreq window build --width <time-units> -k <counters>
                   --input <stream.tbin> --output <store.wsk>
                   [--retention R] [--policy ...]
  streamfreq window query <store.wsk> --from <t0> --to <t1> [--top N]
  streamfreq serve -k <counters> [--input <stream.bin>] [--port P]
                   [--port-file PATH] [--threads T] [--shards S]
                   [--passes R] [--snapshot-ms M] [--policy ...] [--seed N]
                   [--data-dir DIR] [--fsync always|off|bytes:N]
                   [--checkpoint-ms M]
  streamfreq query-remote --port P [--binary] [--timeout-ms M]
                   [--retries R] <EST item | TOPK n
                   | HH phi [nfp|nfn] | STATS | CKPT | QUIT>
  streamfreq checkpoint --data-dir DIR
  streamfreq recover --data-dir DIR --output <sketch.sk>
  streamfreq cluster-ingest --topology <cluster.topo> --input <stream.bin>
                   [--batch N] [--timeout-ms M] [--retries R]
  streamfreq cluster-query --topology <cluster.topo> -k <counters>
                   [--policy ...] [--seed N] [--timeout-ms M] [--retries R]
                   <EST item | TOPK n | HH phi [nfp|nfn] | STATS>
  streamfreq cluster-serve --topology <cluster.topo> -k <counters>
                   [--port P] [--port-file PATH] [--refresh-ms M]
                   [--policy ...] [--seed N] [--timeout-ms M] [--retries R]
  streamfreq cluster-replicate --port P --dir <replica-dir>
                   [--no-checkpoint] [--timeout-ms M] [--retries R]
  streamfreq cluster-promote --topology <cluster.topo> --node ID
                   --addr HOST:PORT
  streamfreq help

FILES:
  stream.bin   16-byte little-endian (item u64, weight u64) records
  stream.tbin  24-byte little-endian (timestamp, item, weight) records
  sketch.sk    streamfreq-core versioned wire format
  store.wsk    windowed bucket store (one summary per time bucket)
  data dir     durable store: MANIFEST + ckpt-*.ck + wal-*.seg; served
               banks keep one shared wal at the top level plus STORE,
               with MANIFEST + checkpoints under shard-NNNN/

  `info` decodes any of: sketch files, checkpoint files, MANIFEST /
  STORE files, or a whole durable store directory.

MULTI-CORE BUILD:
  --threads N > 1 ingests through a hash-partitioned ShardedSketch bank
  (one shard group per thread, lock-free) and exports the Algorithm-5
  merged sketch of k counters. --shards S sets the bank width (default:
  the thread count); each shard gets k/S counters, so total counter
  state matches a plain -k build. The result is deterministic for a
  given --shards value, independent of --threads. The merged export's
  error band is the sum of the shard offsets (Theorem 5), typically
  wider than a single-threaded build's.

TEMPORAL STORES:
  window build ingests a timestamped stream into one summary per
  --width-sized time bucket (batched per tick through the engine's
  prefetching path) and persists the bucket store; --retention R keeps
  only the most recent R closed buckets (oldest evicted). window query
  merges exactly the buckets overlapping [--from, --to) via Algorithm 5
  and reports the merged summary.

SERVING:
  serve ingests the input stream --passes times from --threads writer
  threads into a ConcurrentSketch bank while answering a newline-
  delimited text protocol (EST item | TOPK n | HH phi [nfp|nfn] |
  STATS | CKPT | QUIT) on loopback TCP. Queries read immutable
  Algorithm-5 merged snapshots republished every --snapshot-ms
  milliseconds (default 50), so they never block ingestion and observe
  a bounded-staleness view with certified error bounds. --port 0 picks
  an ephemeral port; --port-file writes the bound address for scripts.
  QUIT drains ingestion (final sealed snapshot) and stops the server.
  The same port also speaks a pipelined length-prefixed binary protocol
  (connections opening with the 4-byte magic `SFBP`); both formats are
  served by one poll-based event loop. query-remote sends one protocol
  request and prints the response; --binary uses the framed protocol
  and prints the identical text rendering.

DURABILITY:
  serve --data-dir DIR write-ahead-logs every shard's ingest into one
  shared group-commit log (CRC-framed segments of stream-tagged
  delta/varint records, staged off-thread and coalesced into one write
  + fsync per flush window; fsync per --fsync: always | off | bytes:N,
  default bytes:8388608) and checkpoints shards in coordinated rounds —
  periodically with --checkpoint-ms, on the CKPT verb, and at graceful
  drain. Restarting against the same DIR recovers the state exactly:
  checkpoint + one shared-log replay routed by stream tag (torn tail
  records are CRC-detected and dropped), Algorithm-5 merge across
  shards. Stores written by older per-shard-WAL builds migrate onto the
  shared log on first open. STATS then also reports wal_bytes,
  last_checkpoint_epoch, fsync_policy, wal_flush_count,
  wal_group_commit_batches, and avg_frames_per_fsync.
  checkpoint compacts an offline store: recover, write a fresh
  checkpoint, truncate the WAL. recover exports a store's merged state
  as an ordinary sketch file.

CLUSTER MODE:
  A cluster is N `serve` processes started *without* --input (wire-
  ingest nodes) plus an epoch-versioned topology file (`SFTOPO v1`:
  node ids, addresses, vnode count) defining a consistent-hash ring.
  cluster-ingest routes a stream file's updates to their owning nodes
  in batches over the binary protocol, retrying failed connections
  with bounded backoff. cluster-query fans a snapshot request out to
  every node, merges the per-node Algorithm-5 summaries into one bank
  (same -k/--policy/--seed as the nodes), answers in the text
  protocol's shape, and appends per-node epochs plus the combined
  Theorem-5 error band (offsets add, N adds). cluster-serve is a front
  node answering the text protocol from a periodically refreshed
  merged view. cluster-replicate copies a durable node's store
  (checkpoint + WAL tail) over the wire into a local directory that
  `serve --data-dir` can recover — a replica in warm standby.
  cluster-promote rewrites a topology entry's address (epoch + 1), so
  routing is unchanged (identity is the node id) and a promoted
  replica takes over its failed leader's slot.
";

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Build a sketch from a stream file.
    Build {
        /// Counters `k`.
        k: usize,
        /// Purge policy.
        policy: PurgePolicy,
        /// Sampler seed.
        seed: u64,
        /// Ingestion threads (1 = plain single-sketch build).
        threads: usize,
        /// Shards in the bank when `threads > 1` (0 = match threads).
        shards: usize,
        /// Input stream path.
        input: PathBuf,
        /// Output sketch path.
        output: PathBuf,
    },
    /// Print summary statistics of a sketch file.
    Info(PathBuf),
    /// Print the top-n rows of a sketch file.
    Top {
        /// Sketch path.
        path: PathBuf,
        /// Number of rows.
        n: usize,
    },
    /// Point-query one or more items and/or report the top-k rows.
    Query {
        /// Sketch path.
        path: PathBuf,
        /// Items to query.
        items: Vec<u64>,
        /// If set, also print the `n` largest-estimate rows.
        top: Option<usize>,
    },
    /// Heavy hitters at a φ threshold.
    Heavy {
        /// Sketch path.
        path: PathBuf,
        /// The φ fraction of total weight.
        phi: f64,
        /// Reporting contract.
        error_type: ErrorType,
    },
    /// Merge sketch files into one.
    Merge {
        /// Input sketch paths (two or more).
        inputs: Vec<PathBuf>,
        /// Output path.
        output: PathBuf,
    },
    /// Generate a synthetic CAIDA-like stream file.
    Synth {
        /// Number of updates.
        updates: usize,
        /// Number of flows (0 = scaled default).
        flows: u64,
        /// Seed.
        seed: u64,
        /// Output path.
        output: PathBuf,
    },
    /// Generate a timestamped drifting-hot-set stream file.
    WindowSynth {
        /// Number of updates.
        updates: usize,
        /// Number of epochs the stream spans.
        epochs: u64,
        /// Time units per epoch (the natural `window build --width`).
        width: u64,
        /// Seed.
        seed: u64,
        /// Output path.
        output: PathBuf,
    },
    /// Build a windowed bucket store from a timestamped stream file.
    WindowBuild {
        /// Bucket width in time units.
        width: u64,
        /// Counters `k` per bucket summary.
        k: usize,
        /// Purge policy for every bucket.
        policy: PurgePolicy,
        /// Closed buckets retained (0 = unbounded).
        retention: usize,
        /// Input timestamped stream path.
        input: PathBuf,
        /// Output store path.
        output: PathBuf,
    },
    /// Serve queries over loopback TCP while ingesting a stream file.
    Serve(serve::ServeOptions),
    /// Compact an offline durable store: recover, checkpoint, truncate.
    Checkpoint {
        /// The store directory.
        data_dir: PathBuf,
    },
    /// Export a durable store's merged state as an ordinary sketch file.
    Recover {
        /// The store directory.
        data_dir: PathBuf,
        /// Output sketch path.
        output: PathBuf,
    },
    /// Send one protocol request to a running `serve` instance.
    QueryRemote {
        /// Loopback port the server listens on.
        port: u16,
        /// The protocol request tokens (e.g. `["EST", "42"]`).
        request: Vec<String>,
        /// Speak the framed `SFBP` binary protocol instead of newline
        /// text (the reply prints identically either way).
        binary: bool,
        /// Connect/read/write timeout in milliseconds (0 = block
        /// forever, the historical behavior).
        timeout_ms: u64,
        /// Extra connection attempts on failure, with doubling backoff.
        retries: u32,
    },
    /// Route a stream file's updates to their owning cluster nodes.
    ClusterIngest(cluster::ClusterIngestOptions),
    /// Fan one query out to every cluster node and merge the answers.
    ClusterQuery(cluster::ClusterQueryOptions),
    /// Front node: serve merged cluster answers over the text protocol.
    ClusterServe(cluster::ClusterServeOptions),
    /// Copy a durable node's store (checkpoint + WAL tail) over the
    /// wire into a local replica directory.
    ClusterReplicate(cluster::ClusterReplicateOptions),
    /// Rewrite a topology entry's address (replica promotion).
    ClusterPromote {
        /// The topology file to rewrite in place.
        topology: PathBuf,
        /// Id of the node being re-addressed.
        node: u64,
        /// The replacement address (`HOST:PORT`).
        addr: String,
    },
    /// Range-merge query over a windowed bucket store.
    WindowQuery {
        /// Store path.
        path: PathBuf,
        /// Range start (inclusive).
        from: u64,
        /// Range end (exclusive).
        to: u64,
        /// Rows of the merged summary to print.
        top: usize,
    },
    /// Print usage.
    Help,
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Filesystem failure on a path.
    Io(PathBuf, std::io::Error),
    /// Malformed sketch file.
    Sketch(PathBuf, streamfreq_core::Error),
    /// Socket failure against an address.
    Net(String, std::io::Error),
    /// Durable-store failure against a data directory.
    Persist(PathBuf, streamfreq_core::PersistError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            CliError::Sketch(path, e) => write!(f, "{}: {e}", path.display()),
            CliError::Net(addr, e) => write!(f, "{addr}: {e}"),
            // PersistError carries its own path context.
            CliError::Persist(_, e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_policy(s: &str) -> Result<PurgePolicy, CliError> {
    match s {
        "smed" => Ok(PurgePolicy::smed()),
        "smin" => Ok(PurgePolicy::smin()),
        "med" => Ok(PurgePolicy::med()),
        "globalmin" => Ok(PurgePolicy::GlobalMin),
        other => {
            if let Some(pct) = other.strip_prefix('q') {
                let pct: f64 = pct
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad quantile `{other}`")))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(CliError::Usage(format!("quantile {pct} outside 0..=100")));
                }
                Ok(PurgePolicy::sample_quantile(pct / 100.0))
            } else {
                Err(CliError::Usage(format!("unknown policy `{other}`")))
            }
        }
    }
}

fn required<'a>(args: &'a [String], flag: &str, cmd: &str) -> Result<&'a str, CliError> {
    flag_value(args, flag).ok_or_else(|| CliError::Usage(format!("{cmd} requires {flag}")))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("bad {what} `{s}`")))
}

/// The shared `--timeout-ms` / `--retries` pair of the cluster verbs.
/// Cluster clients default to a couple of retries: a node restarting
/// under promotion is expected, not exceptional.
fn cluster_net_flags(rest: &[String]) -> Result<(u64, u32), CliError> {
    let timeout_ms = match flag_value(rest, "--timeout-ms") {
        Some(s) => parse_u64(s, "timeout")?,
        None => serve::DEFAULT_REMOTE_TIMEOUT_MS,
    };
    let retries = match flag_value(rest, "--retries") {
        Some(s) => u32::try_from(parse_u64(s, "retry count")?)
            .map_err(|_| CliError::Usage("retry count too large".into()))?,
        None => 2,
    };
    Ok((timeout_ms, retries))
}

/// Parses a command line (without the program name).
///
/// # Errors
/// Returns [`CliError::Usage`] describing the first problem found.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "build" => {
            let k = parse_u64(required(rest, "-k", "build")?, "counter count")? as usize;
            let input = PathBuf::from(required(rest, "--input", "build")?);
            let output = PathBuf::from(required(rest, "--output", "build")?);
            let policy = match flag_value(rest, "--policy") {
                Some(p) => parse_policy(p)?,
                None => PurgePolicy::smed(),
            };
            let seed = match flag_value(rest, "--seed") {
                Some(s) => parse_u64(s, "seed")?,
                None => streamfreq_core::sketch::DEFAULT_SEED,
            };
            let threads = match flag_value(rest, "--threads") {
                Some(s) => {
                    let t = parse_u64(s, "thread count")? as usize;
                    if t == 0 {
                        return Err(CliError::Usage("--threads must be positive".into()));
                    }
                    t
                }
                None => 1,
            };
            let shards = match flag_value(rest, "--shards") {
                Some(s) => {
                    let n = parse_u64(s, "shard count")? as usize;
                    if n == 0 {
                        return Err(CliError::Usage("--shards must be positive".into()));
                    }
                    n
                }
                None => 0,
            };
            Ok(Command::Build {
                k,
                policy,
                seed,
                threads,
                shards,
                input,
                output,
            })
        }
        "info" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("info requires a sketch path".into()))?;
            Ok(Command::Info(PathBuf::from(path)))
        }
        "top" => {
            let path = rest
                .first()
                .filter(|p| !p.starts_with('-'))
                .ok_or_else(|| CliError::Usage("top requires a sketch path".into()))?;
            let n = match flag_value(rest, "-n") {
                Some(s) => parse_u64(s, "row count")? as usize,
                None => 10,
            };
            Ok(Command::Top {
                path: PathBuf::from(path),
                n,
            })
        }
        "query" => {
            let path = rest
                .first()
                .filter(|p| !p.starts_with('-'))
                .ok_or_else(|| CliError::Usage("query requires a sketch path".into()))?;
            // One pass over the arguments: `--top N` pairs and item
            // queries share the argument list, so parsing them together
            // keeps every token accounted for (a repeated --top is an
            // error, not a silently dropped argument).
            let mut top: Option<usize> = None;
            let mut items = Vec::new();
            let mut iter = rest[1..].iter();
            while let Some(arg) = iter.next() {
                if arg == "--top" {
                    if top.is_some() {
                        return Err(CliError::Usage("--top given more than once".into()));
                    }
                    let value = iter
                        .next()
                        .ok_or_else(|| CliError::Usage("--top requires a row count".into()))?;
                    let n = parse_u64(value, "row count")? as usize;
                    if n == 0 {
                        return Err(CliError::Usage("--top must be positive".into()));
                    }
                    top = Some(n);
                    continue;
                }
                items.push(parse_u64(arg, "item")?);
            }
            if items.is_empty() && top.is_none() {
                return Err(CliError::Usage(
                    "query requires at least one item or --top N".into(),
                ));
            }
            Ok(Command::Query {
                path: PathBuf::from(path),
                items,
                top,
            })
        }
        "heavy" => {
            let path = rest
                .first()
                .filter(|p| !p.starts_with('-'))
                .ok_or_else(|| CliError::Usage("heavy requires a sketch path".into()))?;
            let phi: f64 = required(rest, "--phi", "heavy")?
                .parse()
                .map_err(|_| CliError::Usage("bad --phi value".into()))?;
            if !(0.0..=1.0).contains(&phi) {
                return Err(CliError::Usage(format!("phi {phi} outside [0, 1]")));
            }
            let error_type = match flag_value(rest, "--contract") {
                None | Some("nfn") => ErrorType::NoFalseNegatives,
                Some("nfp") => ErrorType::NoFalsePositives,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown contract `{other}` (want nfp|nfn)"
                    )))
                }
            };
            Ok(Command::Heavy {
                path: PathBuf::from(path),
                phi,
                error_type,
            })
        }
        "merge" => {
            let output = PathBuf::from(required(rest, "--output", "merge")?);
            let inputs: Vec<PathBuf> = rest
                .iter()
                .take_while(|a| *a != "--output")
                .map(PathBuf::from)
                .collect();
            if inputs.len() < 2 {
                return Err(CliError::Usage(
                    "merge requires at least two sketches".into(),
                ));
            }
            Ok(Command::Merge { inputs, output })
        }
        "synth" => {
            let updates =
                parse_u64(required(rest, "--updates", "synth")?, "update count")? as usize;
            let output = PathBuf::from(required(rest, "--output", "synth")?);
            let flows = match flag_value(rest, "--flows") {
                Some(s) => parse_u64(s, "flow count")?,
                None => 0,
            };
            let seed = match flag_value(rest, "--seed") {
                Some(s) => parse_u64(s, "seed")?,
                None => 0xCA1DA,
            };
            Ok(Command::Synth {
                updates,
                flows,
                seed,
                output,
            })
        }
        "serve" => {
            let k = parse_u64(required(rest, "-k", "serve")?, "counter count")? as usize;
            let input = flag_value(rest, "--input").map(PathBuf::from);
            let port = match flag_value(rest, "--port") {
                Some(s) => {
                    let p = parse_u64(s, "port")?;
                    u16::try_from(p).map_err(|_| CliError::Usage(format!("port {p} > 65535")))?
                }
                None => 0,
            };
            let port_file = flag_value(rest, "--port-file").map(PathBuf::from);
            let policy = match flag_value(rest, "--policy") {
                Some(p) => parse_policy(p)?,
                None => PurgePolicy::smed(),
            };
            let seed = match flag_value(rest, "--seed") {
                Some(s) => parse_u64(s, "seed")?,
                None => streamfreq_core::sketch::DEFAULT_SEED,
            };
            let threads = match flag_value(rest, "--threads") {
                Some(s) => {
                    let t = parse_u64(s, "thread count")? as usize;
                    if t == 0 {
                        return Err(CliError::Usage("--threads must be positive".into()));
                    }
                    t
                }
                None => 1,
            };
            let shards = match flag_value(rest, "--shards") {
                Some(s) => {
                    let n = parse_u64(s, "shard count")? as usize;
                    if n == 0 {
                        return Err(CliError::Usage("--shards must be positive".into()));
                    }
                    n
                }
                None => 0,
            };
            let passes = match flag_value(rest, "--passes") {
                Some(s) => {
                    let r = parse_u64(s, "pass count")?;
                    if r == 0 {
                        return Err(CliError::Usage("--passes must be positive".into()));
                    }
                    r
                }
                None => 1,
            };
            let snapshot_ms = match flag_value(rest, "--snapshot-ms") {
                Some(s) => parse_u64(s, "snapshot interval")?,
                None => 50,
            };
            let data_dir = flag_value(rest, "--data-dir").map(PathBuf::from);
            let fsync = match flag_value(rest, "--fsync") {
                Some(s) => {
                    if data_dir.is_none() {
                        return Err(CliError::Usage("--fsync requires --data-dir".into()));
                    }
                    streamfreq_core::FsyncPolicy::parse(s).map_err(CliError::Usage)?
                }
                None => streamfreq_core::FsyncPolicy::default(),
            };
            let checkpoint_ms = match flag_value(rest, "--checkpoint-ms") {
                Some(s) => {
                    if data_dir.is_none() {
                        return Err(CliError::Usage(
                            "--checkpoint-ms requires --data-dir".into(),
                        ));
                    }
                    parse_u64(s, "checkpoint interval")?
                }
                None => 0,
            };
            Ok(Command::Serve(serve::ServeOptions {
                port,
                port_file,
                k,
                policy,
                seed,
                threads,
                shards,
                passes,
                snapshot_ms,
                input,
                data_dir,
                fsync,
                checkpoint_ms,
            }))
        }
        "checkpoint" => {
            let data_dir = PathBuf::from(required(rest, "--data-dir", "checkpoint")?);
            Ok(Command::Checkpoint { data_dir })
        }
        "recover" => {
            let data_dir = PathBuf::from(required(rest, "--data-dir", "recover")?);
            let output = PathBuf::from(required(rest, "--output", "recover")?);
            Ok(Command::Recover { data_dir, output })
        }
        "query-remote" => {
            let port_value = required(rest, "--port", "query-remote")?;
            let port = {
                let p = parse_u64(port_value, "port")?;
                u16::try_from(p).map_err(|_| CliError::Usage(format!("port {p} > 65535")))?
            };
            let timeout_ms = match flag_value(rest, "--timeout-ms") {
                Some(s) => parse_u64(s, "timeout")?,
                None => serve::DEFAULT_REMOTE_TIMEOUT_MS,
            };
            let retries = match flag_value(rest, "--retries") {
                Some(s) => u32::try_from(parse_u64(s, "retry count")?)
                    .map_err(|_| CliError::Usage("retry count too large".into()))?,
                None => 0,
            };
            // Everything except the flag pairs and --binary is the
            // protocol request.
            let mut request = Vec::new();
            let mut binary = false;
            let mut iter = rest.iter();
            while let Some(arg) = iter.next() {
                if arg == "--port" || arg == "--timeout-ms" || arg == "--retries" {
                    iter.next();
                    continue;
                }
                if arg == "--binary" {
                    binary = true;
                    continue;
                }
                request.push(arg.clone());
            }
            if request.is_empty() {
                return Err(CliError::Usage(
                    "query-remote requires a request (EST item | TOPK n | HH phi | STATS | QUIT)"
                        .into(),
                ));
            }
            Ok(Command::QueryRemote {
                port,
                request,
                binary,
                timeout_ms,
                retries,
            })
        }
        "cluster-ingest" => {
            let topology = PathBuf::from(required(rest, "--topology", "cluster-ingest")?);
            let input = PathBuf::from(required(rest, "--input", "cluster-ingest")?);
            let batch = match flag_value(rest, "--batch") {
                Some(s) => {
                    let b = parse_u64(s, "batch size")? as usize;
                    if b == 0 {
                        return Err(CliError::Usage("--batch must be positive".into()));
                    }
                    b
                }
                None => cluster::DEFAULT_INGEST_BATCH,
            };
            let (timeout_ms, retries) = cluster_net_flags(rest)?;
            Ok(Command::ClusterIngest(cluster::ClusterIngestOptions {
                topology,
                input,
                batch,
                timeout_ms,
                retries,
            }))
        }
        "cluster-query" => {
            let topology = PathBuf::from(required(rest, "--topology", "cluster-query")?);
            let k = parse_u64(required(rest, "-k", "cluster-query")?, "counter count")? as usize;
            let policy = match flag_value(rest, "--policy") {
                Some(p) => parse_policy(p)?,
                None => PurgePolicy::smed(),
            };
            let seed = match flag_value(rest, "--seed") {
                Some(s) => parse_u64(s, "seed")?,
                None => streamfreq_core::sketch::DEFAULT_SEED,
            };
            let (timeout_ms, retries) = cluster_net_flags(rest)?;
            // Everything not consumed by a flag pair is the query.
            let flags_with_value = [
                "--topology",
                "-k",
                "--policy",
                "--seed",
                "--timeout-ms",
                "--retries",
            ];
            let mut request = Vec::new();
            let mut iter = rest.iter();
            while let Some(arg) = iter.next() {
                if flags_with_value.contains(&arg.as_str()) {
                    iter.next();
                    continue;
                }
                request.push(arg.clone());
            }
            if request.is_empty() {
                return Err(CliError::Usage(
                    "cluster-query requires a request (EST item | TOPK n | HH phi | STATS)".into(),
                ));
            }
            Ok(Command::ClusterQuery(cluster::ClusterQueryOptions {
                topology,
                k,
                policy,
                seed,
                request,
                timeout_ms,
                retries,
            }))
        }
        "cluster-serve" => {
            let topology = PathBuf::from(required(rest, "--topology", "cluster-serve")?);
            let k = parse_u64(required(rest, "-k", "cluster-serve")?, "counter count")? as usize;
            let policy = match flag_value(rest, "--policy") {
                Some(p) => parse_policy(p)?,
                None => PurgePolicy::smed(),
            };
            let seed = match flag_value(rest, "--seed") {
                Some(s) => parse_u64(s, "seed")?,
                None => streamfreq_core::sketch::DEFAULT_SEED,
            };
            let port = match flag_value(rest, "--port") {
                Some(s) => {
                    let p = parse_u64(s, "port")?;
                    u16::try_from(p).map_err(|_| CliError::Usage(format!("port {p} > 65535")))?
                }
                None => 0,
            };
            let port_file = flag_value(rest, "--port-file").map(PathBuf::from);
            let refresh_ms = match flag_value(rest, "--refresh-ms") {
                Some(s) => parse_u64(s, "refresh interval")?,
                None => 100,
            };
            let (timeout_ms, retries) = cluster_net_flags(rest)?;
            Ok(Command::ClusterServe(cluster::ClusterServeOptions {
                topology,
                k,
                policy,
                seed,
                port,
                port_file,
                refresh_ms,
                timeout_ms,
                retries,
            }))
        }
        "cluster-replicate" => {
            let port_value = required(rest, "--port", "cluster-replicate")?;
            let port = {
                let p = parse_u64(port_value, "port")?;
                u16::try_from(p).map_err(|_| CliError::Usage(format!("port {p} > 65535")))?
            };
            let dir = PathBuf::from(required(rest, "--dir", "cluster-replicate")?);
            let checkpoint = !rest.iter().any(|a| a == "--no-checkpoint");
            let (timeout_ms, retries) = cluster_net_flags(rest)?;
            Ok(Command::ClusterReplicate(
                cluster::ClusterReplicateOptions {
                    port,
                    dir,
                    checkpoint,
                    timeout_ms,
                    retries,
                },
            ))
        }
        "cluster-promote" => {
            let topology = PathBuf::from(required(rest, "--topology", "cluster-promote")?);
            let node = parse_u64(required(rest, "--node", "cluster-promote")?, "node id")?;
            let addr = required(rest, "--addr", "cluster-promote")?.to_string();
            Ok(Command::ClusterPromote {
                topology,
                node,
                addr,
            })
        }
        "window" => {
            let Some(sub) = rest.first() else {
                return Err(CliError::Usage(
                    "window requires a subcommand (synth|build|query)".into(),
                ));
            };
            let rest = &rest[1..];
            match sub.as_str() {
                "synth" => {
                    let updates =
                        parse_u64(required(rest, "--updates", "window synth")?, "count")? as usize;
                    let output = PathBuf::from(required(rest, "--output", "window synth")?);
                    let epochs = match flag_value(rest, "--epochs") {
                        Some(s) => {
                            let e = parse_u64(s, "epoch count")?;
                            if e == 0 {
                                return Err(CliError::Usage("--epochs must be positive".into()));
                            }
                            e
                        }
                        None => 16,
                    };
                    let width = match flag_value(rest, "--width") {
                        Some(s) => {
                            let w = parse_u64(s, "width")?;
                            if w == 0 {
                                return Err(CliError::Usage("--width must be positive".into()));
                            }
                            w
                        }
                        None => 1_000,
                    };
                    let seed = match flag_value(rest, "--seed") {
                        Some(s) => parse_u64(s, "seed")?,
                        None => 0x7E4D0,
                    };
                    Ok(Command::WindowSynth {
                        updates,
                        epochs,
                        width,
                        seed,
                        output,
                    })
                }
                "build" => {
                    let width = parse_u64(required(rest, "--width", "window build")?, "width")?;
                    if width == 0 {
                        return Err(CliError::Usage("--width must be positive".into()));
                    }
                    let k =
                        parse_u64(required(rest, "-k", "window build")?, "counter count")? as usize;
                    let input = PathBuf::from(required(rest, "--input", "window build")?);
                    let output = PathBuf::from(required(rest, "--output", "window build")?);
                    let policy = match flag_value(rest, "--policy") {
                        Some(p) => parse_policy(p)?,
                        None => PurgePolicy::smed(),
                    };
                    let retention = match flag_value(rest, "--retention") {
                        Some(s) => {
                            let r = parse_u64(s, "retention")? as usize;
                            if r == 0 {
                                return Err(CliError::Usage(
                                    "--retention must be positive (omit it for unbounded)".into(),
                                ));
                            }
                            r
                        }
                        None => 0,
                    };
                    Ok(Command::WindowBuild {
                        width,
                        k,
                        policy,
                        retention,
                        input,
                        output,
                    })
                }
                "query" => {
                    let path = rest
                        .first()
                        .filter(|p| !p.starts_with('-'))
                        .ok_or_else(|| {
                            CliError::Usage("window query requires a store path".into())
                        })?;
                    let from = parse_u64(required(rest, "--from", "window query")?, "--from")?;
                    let to = parse_u64(required(rest, "--to", "window query")?, "--to")?;
                    if to <= from {
                        return Err(CliError::Usage(format!(
                            "empty range: --to {to} must exceed --from {from}"
                        )));
                    }
                    let top = match flag_value(rest, "--top") {
                        Some(s) => parse_u64(s, "row count")? as usize,
                        None => 10,
                    };
                    Ok(Command::WindowQuery {
                        path: PathBuf::from(path),
                        from,
                        to,
                        top,
                    })
                }
                other => Err(CliError::Usage(format!(
                    "unknown window subcommand `{other}` (want synth|build|query)"
                ))),
            }
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Formats a header plus `rows` as the aligned table used by `top`,
/// `query --top`, and `window query`.
fn format_rows<T: std::fmt::Display>(rows: &[Row<T>]) -> String {
    let mut out = format!(
        "{:>20} {:>16} {:>16} {:>16}\n",
        "item", "estimate", "lower", "upper"
    );
    for row in rows {
        out.push_str(&format!(
            "{:>20} {:>16} {:>16} {:>16}\n",
            row.item, row.estimate, row.lower_bound, row.upper_bound
        ));
    }
    out
}

/// Saturation marker appended to `info` rows.
fn saturated_marker(saturated: bool) -> &'static str {
    if saturated {
        " (saturated)"
    } else {
        ""
    }
}

/// `streamfreq info`: decode whatever the path holds — a sketch file or
/// checkpoint (one format), a MANIFEST / STORE file, a window store, or
/// a durable store directory — and print its metadata.
fn run_info(path: &Path) -> Result<String, CliError> {
    let file_meta = std::fs::metadata(path).map_err(|e| CliError::Io(path.to_path_buf(), e))?;
    if file_meta.is_dir() {
        return info_store_dir(path);
    }
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(path.to_path_buf(), e))?;
    match bytes.get(..4) {
        Some(b"SFCK") => {
            let info =
                checkpoint_info(&bytes).map_err(|e| CliError::Sketch(path.to_path_buf(), e))?;
            Ok(format!(
                "sketch {}\n\
                 \x20 epoch:             {}\n\
                 \x20 key type:          {}\n\
                 \x20 capacity (k):      {}\n\
                 \x20 counters in use:   {}\n\
                 \x20 policy:            {:?}\n\
                 \x20 seed:              {}\n\
                 \x20 stream weight N:   {}{}\n\
                 \x20 max error:         {}{}\n\
                 \x20 updates n:         {}\n\
                 \x20 purges:            {}\n",
                path.display(),
                info.epoch,
                info.key_type,
                info.max_counters,
                info.num_counters,
                info.policy,
                info.seed,
                info.stream_weight,
                saturated_marker(info.weight_saturated),
                info.offset,
                saturated_marker(info.offset_saturated),
                info.num_updates,
                info.num_purges,
            ))
        }
        Some(b"SFMF") => {
            let manifest = Manifest::from_bytes(&bytes)
                .map_err(|e| CliError::Sketch(path.to_path_buf(), e))?;
            Ok(format!(
                "store manifest {}\n\
                 \x20 checkpoint epoch:  {}\n\
                 \x20 checkpoint file:   {}\n\
                 \x20 WAL replay start:  segment {}, offset {}\n\
                 \x20 capacity (k):      {}\n\
                 \x20 policy:            {:?}\n\
                 \x20 seed:              {}\n",
                path.display(),
                manifest.epoch,
                manifest.checkpoint.as_deref().unwrap_or("(none yet)"),
                manifest.wal_start.segment,
                manifest.wal_start.offset,
                manifest.config.max_counters,
                manifest.config.policy,
                manifest.config.seed,
            ))
        }
        Some(b"SFST") => {
            let meta = StoreMeta::from_bytes(&bytes)
                .map_err(|e| CliError::Sketch(path.to_path_buf(), e))?;
            Ok(format!(
                "sharded store metadata {}\n\
                 \x20 shards:            {}\n\
                 \x20 counters/shard:    {}\n\
                 \x20 merged capacity:   {}\n\
                 \x20 policy:            {:?}\n\
                 \x20 base seed:         {}\n",
                path.display(),
                meta.num_shards,
                meta.counters_per_shard,
                meta.merged_capacity,
                meta.policy,
                meta.seed,
            ))
        }
        Some(b"SFWS") => Ok(format!(
            "windowed bucket store {} — query with `streamfreq window query`\n",
            path.display()
        )),
        other => Err(CliError::Sketch(
            path.to_path_buf(),
            streamfreq_core::Error::Corrupt(format!("unrecognized file magic {other:02x?}")),
        )),
    }
}

/// Total bytes of WAL segments directly inside `dir`.
fn wal_bytes_in(dir: &Path) -> Result<u64, CliError> {
    let mut total = 0;
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(CliError::Io(dir.to_path_buf(), e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| CliError::Io(dir.to_path_buf(), e))?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("wal-") && name.ends_with(".seg") {
                total += entry
                    .metadata()
                    .map_err(|e| CliError::Io(entry.path(), e))?
                    .len();
            }
        }
    }
    Ok(total)
}

/// One manifest's summary line for `info` on a store directory.
fn manifest_summary(dir: &Path) -> Result<String, CliError> {
    let persist_err = |e| CliError::Persist(dir.to_path_buf(), e);
    match read_manifest(dir).map_err(persist_err)? {
        None => Ok("no MANIFEST".into()),
        Some(m) => {
            let mut n = 0;
            if let Some(name) = &m.checkpoint {
                let ckpt_path = dir.join(name);
                let bytes =
                    std::fs::read(&ckpt_path).map_err(|e| CliError::Io(ckpt_path.clone(), e))?;
                n = checkpoint_info(&bytes)
                    .map_err(|e| CliError::Sketch(ckpt_path, e))?
                    .stream_weight;
            }
            let log = if m.shared_log {
                format!("shared log stream {}", m.stream)
            } else {
                format!("wal bytes {}", wal_bytes_in(dir)?)
            };
            Ok(format!(
                "checkpoint epoch {}, checkpointed N = {n}, {log}",
                m.epoch,
            ))
        }
    }
}

/// `info` on a durable store directory: bank metadata plus one line per
/// shard (or the single manifest for a non-sharded store).
fn info_store_dir(dir: &Path) -> Result<String, CliError> {
    let persist_err = |e| CliError::Persist(dir.to_path_buf(), e);
    if let Some(meta) = read_store_meta(dir).map_err(persist_err)? {
        let mut out = format!(
            "durable store {}\n\
             \x20 shards:            {}\n\
             \x20 counters/shard:    {}\n\
             \x20 merged capacity:   {}\n\
             \x20 policy:            {:?}\n\
             \x20 base seed:         {}\n",
            dir.display(),
            meta.num_shards,
            meta.counters_per_shard,
            meta.merged_capacity,
            meta.policy,
            meta.seed,
        );
        out.push_str(&format!("\x20 shared wal bytes:  {}\n", wal_bytes_in(dir)?));
        for s in 0..meta.num_shards {
            let sdir = shard_dir(dir, s);
            out.push_str(&format!("  shard {s}: {}\n", manifest_summary(&sdir)?));
        }
        return Ok(out);
    }
    if read_manifest(dir).map_err(persist_err)?.is_some() {
        return Ok(format!(
            "durable store {} (single sketch)\n  {}\n",
            dir.display(),
            manifest_summary(dir)?
        ));
    }
    Err(CliError::Usage(format!(
        "{}: not a durable store (no STORE or MANIFEST)",
        dir.display()
    )))
}

/// `streamfreq checkpoint`: recover an offline store read-write, write a
/// fresh checkpoint per shard in one coordinated round, truncate the
/// shared log (legacy per-shard layouts migrate onto it on open).
fn run_store_checkpoint(data_dir: &Path) -> Result<String, CliError> {
    let persist_err = |e| CliError::Persist(data_dir.to_path_buf(), e);
    let mut out = format!("checkpointing {}\n", data_dir.display());
    if read_store_meta(data_dir).map_err(persist_err)?.is_some() {
        let (mut stores, reports): (Vec<DurableSketch<u64>>, Vec<_>) =
            open_bank_existing::<u64>(data_dir, DurabilityOptions::default())
                .map_err(persist_err)?
                .into_iter()
                .unzip();
        let wal_before = stores[0].wal_bytes();
        checkpoint_bank(&mut stores).map_err(persist_err)?;
        for (s, (store, report)) in stores.iter().zip(&reports).enumerate() {
            out.push_str(&format!(
                "  shard {s}: epoch {}, replayed {} records ({} updates), N = {}\n",
                store.last_checkpoint_epoch(),
                report.records_replayed,
                report.updates_replayed,
                store.engine().stream_weight(),
            ));
        }
        out.push_str(&format!(
            "  shared wal {} -> {} bytes\n",
            wal_before,
            stores[0].wal_bytes(),
        ));
        return Ok(out);
    }
    let (mut store, report) =
        DurableSketch::<u64>::open_existing(data_dir, DurabilityOptions::default())
            .map_err(persist_err)?;
    let wal_before = store.wal_bytes();
    let epoch = store.checkpoint().map_err(persist_err)?;
    out.push_str(&format!(
        "  sketch: epoch {epoch}, replayed {} records ({} updates), \
         N = {}, wal {} -> {} bytes\n",
        report.records_replayed,
        report.updates_replayed,
        store.engine().stream_weight(),
        wal_before,
        store.wal_bytes(),
    ));
    Ok(out)
}

/// `streamfreq recover`: rebuild a store's state read-only and export
/// the (Algorithm-5 merged, for sharded banks) sketch file. Reports
/// replay throughput: batch-coalesced WAL replay is the recovery fast
/// path and the figure worth watching when a store grows.
fn run_store_recover(data_dir: &Path, output: &Path) -> Result<String, CliError> {
    let persist_err = |e| CliError::Persist(data_dir.to_path_buf(), e);
    let mut out = format!("recovering {}\n", data_dir.display());
    let started = std::time::Instant::now();
    let mut replayed_records: u64 = 0;
    let mut replayed_updates: u64 = 0;
    let merged = match read_store_meta(data_dir).map_err(persist_err)? {
        Some(meta) => {
            let mut merged = FreqSketch::builder(meta.merged_capacity)
                .policy(meta.policy)
                .seed(meta.seed)
                .build()
                .map_err(|e| CliError::Sketch(output.to_path_buf(), e))?;
            let shards = recover_bank_readonly::<u64>(data_dir).map_err(persist_err)?;
            for (s, (engine, epoch, report)) in shards.into_iter().enumerate() {
                out.push_str(&format!(
                    "  shard {s}: {:?}, checkpoint epoch {epoch}, \
                     replayed {} records, N = {}\n",
                    report.source,
                    report.records_replayed,
                    engine.stream_weight(),
                ));
                replayed_records += report.records_replayed;
                replayed_updates += report.updates_replayed;
                merged.merge(&FreqSketch::from(engine));
            }
            merged
        }
        None => {
            let (engine, epoch, report) =
                recover_engine_readonly::<u64>(data_dir).map_err(persist_err)?;
            out.push_str(&format!(
                "  {:?}, checkpoint epoch {epoch}, replayed {} records\n",
                report.source, report.records_replayed,
            ));
            replayed_records = report.records_replayed;
            replayed_updates = report.updates_replayed;
            FreqSketch::from(engine)
        }
    };
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "replayed {replayed_records} records ({replayed_updates} updates) \
         in {:.1} ms — {:.1}M updates/s\n",
        secs * 1e3,
        replayed_updates as f64 / secs / 1e6,
    ));
    write_sketch(output, &merged)?;
    out.push_str(&format!(
        "wrote {}: N = {}, {} counters, max error ±{}\n",
        output.display(),
        merged.stream_weight(),
        merged.num_counters(),
        merged.maximum_error()
    ));
    Ok(out)
}

fn read_sketch(path: &Path) -> Result<FreqSketch, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(path.to_path_buf(), e))?;
    FreqSketch::deserialize_from_bytes(&bytes).map_err(|e| CliError::Sketch(path.to_path_buf(), e))
}

fn write_sketch(path: &Path, sketch: &FreqSketch) -> Result<(), CliError> {
    std::fs::write(path, sketch.serialize_to_bytes())
        .map_err(|e| CliError::Io(path.to_path_buf(), e))
}

/// Executes a command and returns the text report to print.
///
/// # Errors
/// Returns a [`CliError`] describing I/O, codec, or usage failures.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Build {
            k,
            policy,
            seed,
            threads,
            shards,
            input,
            output,
        } => {
            let stream = load_binary(input).map_err(|e| CliError::Io(input.clone(), e))?;
            if *threads > 1 || *shards > 0 {
                // Multi-core path: hash-partitioned bank, lock-free scoped
                // ingestion, then the Algorithm-5 merged export so the
                // output file is an ordinary k-counter sketch. Counters
                // divide across shards so total state matches a plain
                // -k build (the fig1_runtime convention).
                let num_shards = if *shards > 0 { *shards } else { *threads };
                let k_per_shard = (*k / num_shards).max(1);
                let mut bank = ShardedSketch::<u64>::builder(num_shards, k_per_shard)
                    .policy(*policy)
                    .seed(*seed)
                    .build()
                    .map_err(|e| CliError::Sketch(output.clone(), e))?;
                bank.ingest_parallel(&stream, *threads);
                let sketch = FreqSketch::from(bank.merged_with_capacity(*k));
                write_sketch(output, &sketch)?;
                return Ok(format!(
                    "built {} via {} shards × {} threads: {} updates, N = {}, \
                     {} counters, max error ±{}\n",
                    output.display(),
                    num_shards,
                    threads,
                    sketch.num_updates(),
                    sketch.stream_weight(),
                    sketch.num_counters(),
                    sketch.maximum_error()
                ));
            }
            let mut sketch = FreqSketch::builder(*k)
                .policy(*policy)
                .seed(*seed)
                .build()
                .map_err(|e| CliError::Sketch(output.clone(), e))?;
            sketch.update_batch(&stream);
            write_sketch(output, &sketch)?;
            Ok(format!(
                "built {}: {} updates, N = {}, {} counters, max error ±{}\n",
                output.display(),
                sketch.num_updates(),
                sketch.stream_weight(),
                sketch.num_counters(),
                sketch.maximum_error()
            ))
        }
        Command::Info(path) => run_info(path),
        Command::Top { path, n } => {
            let s = read_sketch(path)?;
            Ok(format_rows(&s.top_k(*n)))
        }
        Command::Query { path, items, top } => {
            let s = read_sketch(path)?;
            let mut out = String::new();
            for &item in items {
                out.push_str(&format!(
                    "{item}: estimate {} (certified {} ..= {})\n",
                    s.estimate(item),
                    s.lower_bound(item),
                    s.upper_bound(item)
                ));
            }
            if let Some(n) = top {
                if !items.is_empty() {
                    out.push('\n');
                }
                out.push_str(&format!("top {n} of {} tracked items:\n", s.num_counters()));
                out.push_str(&format_rows(&s.top_k(*n)));
            }
            Ok(out)
        }
        Command::Heavy {
            path,
            phi,
            error_type,
        } => {
            let s = read_sketch(path)?;
            let rows = s.heavy_hitters(*phi, *error_type);
            let n = s.stream_weight().max(1);
            let mut out = format!(
                "{} items may exceed {:.3}% of N = {}\n",
                rows.len(),
                phi * 100.0,
                s.stream_weight()
            );
            for row in rows {
                out.push_str(&format!(
                    "  {:>20}  ~{}  ({:.3}% of N)\n",
                    row.item,
                    row.estimate,
                    100.0 * row.estimate as f64 / n as f64
                ));
            }
            Ok(out)
        }
        Command::Merge { inputs, output } => {
            let mut merged = read_sketch(&inputs[0])?;
            for path in &inputs[1..] {
                let other = read_sketch(path)?;
                merged.merge(&other);
            }
            write_sketch(output, &merged)?;
            Ok(format!(
                "merged {} sketches into {}: N = {}, {} counters, max error ±{}\n",
                inputs.len(),
                output.display(),
                merged.stream_weight(),
                merged.num_counters(),
                merged.maximum_error()
            ))
        }
        Command::Synth {
            updates,
            flows,
            seed,
            output,
        } => {
            let mut config = CaidaConfig::scaled(*updates);
            if *flows > 0 {
                config.num_flows = *flows;
            }
            config.seed = *seed;
            let stream: Vec<(u64, u64)> = SyntheticCaida::new(&config).collect();
            save_binary(&stream, output).map_err(|e| CliError::Io(output.clone(), e))?;
            Ok(format!(
                "wrote {}: {} updates over ~{} flows\n",
                output.display(),
                stream.len(),
                config.num_flows
            ))
        }
        Command::WindowSynth {
            updates,
            epochs,
            width,
            seed,
            output,
        } => {
            let config = DriftConfig {
                updates: *updates,
                epochs: *epochs,
                epoch_len: *width,
                seed: *seed,
                ..DriftConfig::default()
            };
            let stream = materialize_drifting_zipf(&config);
            save_timed_binary(&stream, output).map_err(|e| CliError::Io(output.clone(), e))?;
            Ok(format!(
                "wrote {}: {} timestamped updates over {} epochs of width {}\n",
                output.display(),
                stream.len(),
                epochs,
                width
            ))
        }
        Command::WindowBuild {
            width,
            k,
            policy,
            retention,
            input,
            output,
        } => {
            let stream = load_timed_binary(input).map_err(|e| CliError::Io(input.clone(), e))?;
            // Timestamps must be non-decreasing (streaming ingestion);
            // user-supplied files get a CLI error, not a store panic.
            if let Some(pos) = stream.windows(2).position(|w| w[1].0 < w[0].0) {
                return Err(CliError::Usage(format!(
                    "{}: timestamps must be non-decreasing (record {} has {} after {})",
                    input.display(),
                    pos + 1,
                    stream[pos + 1].0,
                    stream[pos].0
                )));
            }
            let mut store: WindowedStore<u64> = WindowedStore::try_with_policy(*width, *k, *policy)
                .map_err(|e| CliError::Sketch(output.clone(), e))?;
            if *retention > 0 {
                store = store.with_retention(*retention);
            }
            // Feed contiguous equal-timestamp runs through the engine's
            // batched ingestion path; a run of one falls back to the
            // scalar path automatically.
            let mut batch: Vec<(u64, u64)> = Vec::new();
            for (t, range) in tick_runs(&stream) {
                batch.clear();
                batch.extend(stream[range].iter().map(|&(_, item, w)| (item, w)));
                store.record_batch(t, &batch);
            }
            std::fs::write(output, store.serialize_to_bytes())
                .map_err(|e| CliError::Io(output.clone(), e))?;
            Ok(format!(
                "built {}: {} updates into {} closed + 1 open windows of width {} \
                 ({} evicted), {} stored bytes\n",
                output.display(),
                stream.len(),
                store.num_closed_windows(),
                width,
                store.evicted_windows(),
                store.stored_bytes()
            ))
        }
        Command::Serve(options) => serve::run_serve(options),
        Command::QueryRemote {
            port,
            request,
            binary,
            timeout_ms,
            retries,
        } => serve::run_query_remote(*port, request, *binary, *timeout_ms, *retries),
        Command::ClusterIngest(options) => cluster::run_cluster_ingest(options),
        Command::ClusterQuery(options) => cluster::run_cluster_query(options),
        Command::ClusterServe(options) => cluster::run_cluster_serve(options),
        Command::ClusterReplicate(options) => cluster::run_cluster_replicate(options),
        Command::ClusterPromote {
            topology,
            node,
            addr,
        } => cluster::run_cluster_promote(topology, *node, addr),
        Command::Checkpoint { data_dir } => run_store_checkpoint(data_dir),
        Command::Recover { data_dir, output } => run_store_recover(data_dir, output),
        Command::WindowQuery {
            path,
            from,
            to,
            top,
        } => {
            let bytes = std::fs::read(path).map_err(|e| CliError::Io(path.clone(), e))?;
            let store = WindowedStore::<u64>::deserialize_from_bytes(&bytes)
                .map_err(|e| CliError::Sketch(path.clone(), e))?;
            match store
                .query_range(*from, *to)
                .map_err(|e| CliError::Sketch(path.clone(), e))?
            {
                None => Ok(format!("no windows overlap [{from}, {to})\n")),
                Some(merged) => {
                    let mut out = format!(
                        "merged summary of [{from}, {to}): N = {}, {} counters, \
                         max error ±{}\n",
                        merged.stream_weight(),
                        merged.num_counters(),
                        merged.maximum_error()
                    );
                    out.push_str(&format_rows(&merged.top_k(*top)));
                    Ok(out)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("streamfreq-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parses_build_with_policy() {
        let cmd = parse_args(&args(
            "build -k 1024 --input in.bin --output out.sk --policy q25 --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Build {
                k, policy, seed, ..
            } => {
                assert_eq!(k, 1024);
                assert_eq!(policy, PurgePolicy::sample_quantile(0.25));
                assert_eq!(seed, 7);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_flags() {
        assert!(parse_args(&args("build -k 10 --input x")).is_err());
        assert!(parse_args(&args("heavy s.sk")).is_err());
        assert!(parse_args(&args("merge a.sk --output m.sk")).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_args(&args("build -k lots --input a --output b")).is_err());
        assert!(parse_args(&args("heavy s.sk --phi 1.5")).is_err());
        assert!(parse_args(&args("build -k 8 --input a --output b --policy q150")).is_err());
        assert!(parse_args(&args("query s.sk")).is_err());
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_synth_build_query_merge() {
        let stream_path = tmp("e2e.bin");
        let sk_a = tmp("a.sk");
        let sk_b = tmp("b.sk");
        let merged = tmp("m.sk");

        // synth
        run(&Command::Synth {
            updates: 50_000,
            flows: 2_000,
            seed: 1,
            output: stream_path.clone(),
        })
        .unwrap();

        // build two sketches from the same stream with different seeds
        for (path, seed) in [(&sk_a, 1u64), (&sk_b, 2u64)] {
            run(&Command::Build {
                k: 512,
                policy: PurgePolicy::smed(),
                seed,
                threads: 1,
                shards: 0,
                input: stream_path.clone(),
                output: path.clone(),
            })
            .unwrap();
        }

        // info
        let info = run(&Command::Info(sk_a.clone())).unwrap();
        assert!(info.contains("capacity (k):      512"), "{info}");

        // top
        let top = run(&Command::Top {
            path: sk_a.clone(),
            n: 5,
        })
        .unwrap();
        assert_eq!(top.lines().count(), 6, "header + 5 rows");

        // query a heavy item from top output
        let heavy_item: u64 = top
            .lines()
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let q = run(&Command::Query {
            path: sk_a.clone(),
            items: vec![heavy_item],
            top: None,
        })
        .unwrap();
        assert!(q.contains("estimate"));

        // merge
        let report = run(&Command::Merge {
            inputs: vec![sk_a.clone(), sk_b.clone()],
            output: merged.clone(),
        })
        .unwrap();
        assert!(report.contains("merged 2 sketches"));
        let m = read_sketch(&merged).unwrap();
        let a = read_sketch(&sk_a).unwrap();
        assert_eq!(m.stream_weight(), 2 * a.stream_weight());

        // heavy
        let h = run(&Command::Heavy {
            path: merged.clone(),
            phi: 0.01,
            error_type: ErrorType::NoFalseNegatives,
        })
        .unwrap();
        assert!(h.contains("% of N"));

        for p in [stream_path, sk_a, sk_b, merged] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn parses_query_top_flag() {
        let cmd = parse_args(&args("query s.sk 7 9 --top 5")).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                path: PathBuf::from("s.sk"),
                items: vec![7, 9],
                top: Some(5),
            }
        );
        // --top alone is a valid query (pure top-k report).
        let cmd = parse_args(&args("query s.sk --top 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                path: PathBuf::from("s.sk"),
                items: vec![],
                top: Some(3),
            }
        );
        assert!(parse_args(&args("query s.sk --top 0")).is_err());
        assert!(parse_args(&args("query s.sk")).is_err(), "no items, no top");
        assert!(
            parse_args(&args("query s.sk --top 3 --top 7")).is_err(),
            "a repeated --top must be rejected, not silently dropped"
        );
        assert!(
            parse_args(&args("query s.sk --top")).is_err(),
            "missing value"
        );
    }

    #[test]
    fn window_build_reports_bad_inputs_as_errors() {
        // Invalid k: a CliError, not a constructor panic.
        let stream_path = tmp("window-bad.tbin");
        streamfreq_workloads::save_timed_binary(&[(0, 1, 1), (100, 2, 1)], &stream_path).unwrap();
        let err = run(&Command::WindowBuild {
            width: 100,
            k: 0,
            policy: PurgePolicy::smed(),
            retention: 0,
            input: stream_path.clone(),
            output: tmp("window-bad.wsk"),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Sketch(..)), "{err:?}");

        // Out-of-order timestamps in a user file: a CliError, not a
        // store assertion panic.
        let disordered = tmp("window-disorder.tbin");
        streamfreq_workloads::save_timed_binary(&[(200, 1, 1), (0, 2, 1)], &disordered).unwrap();
        let err = run(&Command::WindowBuild {
            width: 100,
            k: 16,
            policy: PurgePolicy::smed(),
            retention: 0,
            input: disordered.clone(),
            output: tmp("window-disorder.wsk"),
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("non-decreasing"), "{msg}");
        for p in [stream_path, disordered] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn parses_window_subcommands() {
        let cmd = parse_args(&args(
            "window build --width 100 -k 64 --input s.tbin --output s.wsk --retention 12",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::WindowBuild {
                width: 100,
                k: 64,
                policy: PurgePolicy::smed(),
                retention: 12,
                input: PathBuf::from("s.tbin"),
                output: PathBuf::from("s.wsk"),
            }
        );
        let cmd = parse_args(&args("window query s.wsk --from 0 --to 500 --top 4")).unwrap();
        assert_eq!(
            cmd,
            Command::WindowQuery {
                path: PathBuf::from("s.wsk"),
                from: 0,
                to: 500,
                top: 4,
            }
        );
        let cmd = parse_args(&args(
            "window synth --updates 1000 --output s.tbin --epochs 4",
        ))
        .unwrap();
        match cmd {
            Command::WindowSynth {
                updates, epochs, ..
            } => {
                assert_eq!(updates, 1000);
                assert_eq!(epochs, 4);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse_args(&args("window")).is_err());
        assert!(parse_args(&args("window frobnicate")).is_err());
        assert!(parse_args(&args("window build -k 8 --input a --output b")).is_err());
        assert!(parse_args(&args("window query s.wsk --from 9 --to 9")).is_err());
        assert!(parse_args(&args("window build --width 0 -k 8 --input a --output b")).is_err());
    }

    #[test]
    fn query_top_reports_largest_rows() {
        let stream_path = tmp("query-top.bin");
        let sk = tmp("query-top.sk");
        run(&Command::Synth {
            updates: 30_000,
            flows: 1_000,
            seed: 11,
            output: stream_path.clone(),
        })
        .unwrap();
        run(&Command::Build {
            k: 256,
            policy: PurgePolicy::smed(),
            seed: 1,
            threads: 1,
            shards: 0,
            input: stream_path.clone(),
            output: sk.clone(),
        })
        .unwrap();
        // Pure top-k report.
        let out = run(&Command::Query {
            path: sk.clone(),
            items: vec![],
            top: Some(5),
        })
        .unwrap();
        assert!(out.contains("top 5 of"), "{out}");
        let rows: Vec<&str> = out.lines().skip(2).collect();
        assert_eq!(rows.len(), 5, "{out}");
        // The report agrees with the standalone `top` command.
        let top = run(&Command::Top {
            path: sk.clone(),
            n: 5,
        })
        .unwrap();
        for line in &rows {
            assert!(top.contains(line), "row {line} missing from `top` output");
        }
        // Combined: point estimates first, then the table.
        let first_item: u64 = rows[0].split_whitespace().next().unwrap().parse().unwrap();
        let combined = run(&Command::Query {
            path: sk.clone(),
            items: vec![first_item],
            top: Some(2),
        })
        .unwrap();
        assert!(
            combined.contains(&format!("{first_item}: estimate")),
            "{combined}"
        );
        assert!(combined.contains("top 2 of"), "{combined}");
        for p in [stream_path, sk] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn window_synth_build_query_end_to_end() {
        let stream_path = tmp("window-e2e.tbin");
        let store_path = tmp("window-e2e.wsk");
        let synth_report = run(&Command::WindowSynth {
            updates: 40_000,
            epochs: 8,
            width: 100,
            seed: 5,
            output: stream_path.clone(),
        })
        .unwrap();
        assert!(synth_report.contains("8 epochs"), "{synth_report}");

        let build_report = run(&Command::WindowBuild {
            width: 100,
            k: 128,
            policy: PurgePolicy::smed(),
            retention: 0,
            input: stream_path.clone(),
            output: store_path.clone(),
        })
        .unwrap();
        assert!(build_report.contains("7 closed + 1 open"), "{build_report}");

        // Full-range query sees the whole stream's weight.
        let full = run(&Command::WindowQuery {
            path: store_path.clone(),
            from: 0,
            to: 800,
            top: 3,
        })
        .unwrap();
        assert!(full.contains("merged summary of [0, 800)"), "{full}");
        assert_eq!(full.lines().count(), 1 + 1 + 3, "summary + header + rows");

        // A sub-range query carries strictly less mass.
        let n_of = |report: &str| -> u64 {
            report
                .split("N = ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let part = run(&Command::WindowQuery {
            path: store_path.clone(),
            from: 200,
            to: 400,
            top: 3,
        })
        .unwrap();
        assert!(n_of(&part) < n_of(&full), "{part}\n{full}");

        // Outside the data: no overlap.
        let empty = run(&Command::WindowQuery {
            path: store_path.clone(),
            from: 10_000,
            to: 20_000,
            top: 3,
        })
        .unwrap();
        assert!(empty.contains("no windows overlap"), "{empty}");

        for p in [stream_path, store_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn window_build_retention_evicts() {
        let stream_path = tmp("window-ret.tbin");
        let store_path = tmp("window-ret.wsk");
        run(&Command::WindowSynth {
            updates: 20_000,
            epochs: 10,
            width: 50,
            seed: 6,
            output: stream_path.clone(),
        })
        .unwrap();
        let report = run(&Command::WindowBuild {
            width: 50,
            k: 64,
            policy: PurgePolicy::smed(),
            retention: 3,
            input: stream_path.clone(),
            output: store_path.clone(),
        })
        .unwrap();
        assert!(report.contains("3 closed + 1 open"), "{report}");
        assert!(report.contains("(6 evicted)"), "{report}");
        // Evicted history is really gone from the persisted store.
        let gone = run(&Command::WindowQuery {
            path: store_path.clone(),
            from: 0,
            to: 300,
            top: 3,
        })
        .unwrap();
        assert!(gone.contains("no windows overlap"), "{gone}");
        for p in [stream_path, store_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn parses_build_threads_and_shards() {
        let cmd = parse_args(&args(
            "build -k 256 --input in.bin --output out.sk --threads 4 --shards 8",
        ))
        .unwrap();
        match cmd {
            Command::Build {
                threads, shards, ..
            } => {
                assert_eq!(threads, 4);
                assert_eq!(shards, 8);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse_args(&args("build -k 8 --input a --output b --threads 0")).is_err());
        assert!(parse_args(&args("build -k 8 --input a --output b --shards 0")).is_err());
    }

    #[test]
    fn threaded_build_is_thread_count_invariant_and_readable() {
        let stream_path = tmp("threaded.bin");
        run(&Command::Synth {
            updates: 40_000,
            flows: 1_500,
            seed: 3,
            output: stream_path.clone(),
        })
        .unwrap();
        let mut outputs: Vec<Vec<u8>> = Vec::new();
        for threads in [1usize, 2, 4] {
            let out = tmp(&format!("threaded-{threads}.sk"));
            let report = run(&Command::Build {
                k: 256,
                policy: PurgePolicy::smed(),
                seed: 9,
                threads,
                shards: 4, // fixed bank width → identical output per thread count
                input: stream_path.clone(),
                output: out.clone(),
            })
            .unwrap();
            assert!(report.contains("4 shards"), "{report}");
            outputs.push(std::fs::read(&out).unwrap());
            // The export is an ordinary sketch file: info must read it.
            let info = run(&Command::Info(out.clone())).unwrap();
            assert!(info.contains("capacity (k):      256"), "{info}");
            std::fs::remove_file(out).unwrap();
        }
        assert_eq!(outputs[0], outputs[1], "2 threads diverged from 1");
        assert_eq!(outputs[0], outputs[2], "4 threads diverged from 1");
        std::fs::remove_file(stream_path).unwrap();
    }

    #[test]
    fn parses_serve_and_query_remote() {
        let cmd = parse_args(&args(
            "serve -k 512 --input s.bin --port 7070 --threads 2 --shards 4 \
             --passes 3 --snapshot-ms 25 --seed 9 --port-file p.txt",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(serve::ServeOptions {
                port: 7070,
                port_file: Some(PathBuf::from("p.txt")),
                k: 512,
                policy: PurgePolicy::smed(),
                seed: 9,
                threads: 2,
                shards: 4,
                passes: 3,
                snapshot_ms: 25,
                input: Some(PathBuf::from("s.bin")),
                data_dir: None,
                fsync: streamfreq_core::FsyncPolicy::default(),
                checkpoint_ms: 0,
            })
        );
        let cmd = parse_args(&args("query-remote --port 7070 EST 42")).unwrap();
        assert_eq!(
            cmd,
            Command::QueryRemote {
                port: 7070,
                request: vec!["EST".into(), "42".into()],
                binary: false,
                timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
                retries: 0,
            }
        );
        assert!(parse_args(&args("serve --input s.bin")).is_err(), "no -k");
        // No --input is cluster-node mode, not an error.
        let node = parse_args(&args("serve -k 8")).unwrap();
        assert!(
            matches!(
                node,
                Command::Serve(serve::ServeOptions { input: None, .. })
            ),
            "{node:?}"
        );
        assert!(parse_args(&args("serve -k 8 --input s.bin --port 70000")).is_err());
        assert!(parse_args(&args("serve -k 8 --input s.bin --passes 0")).is_err());
        assert!(
            parse_args(&args("query-remote --port 7070")).is_err(),
            "no request"
        );
        assert!(parse_args(&args("query-remote STATS")).is_err(), "no port");
    }

    /// One protocol exchange over an established connection: sends the
    /// request line and reads the full response (count-prefixed rows
    /// included).
    fn protocol_request(conn: &mut std::net::TcpStream, request: &str) -> Vec<String> {
        use std::io::{BufRead, BufReader, Write};
        conn.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        let mut lines = vec![first.trim().to_string()];
        let multi_row = matches!(
            request
                .split_whitespace()
                .next()
                .map(str::to_ascii_uppercase)
                .as_deref(),
            Some("TOPK" | "HH")
        );
        if multi_row {
            if let Some(rows) = lines[0]
                .strip_prefix("OK ")
                .and_then(|m| m.parse::<usize>().ok())
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

    /// Parses a `STATS` response line into its key=value fields.
    fn stats_field(line: &str, key: &str) -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in `{line}`"))
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric {key} in `{line}`"))
    }

    #[test]
    fn serve_answers_queries_during_ingest_and_drains_exactly() {
        use std::net::TcpStream;
        use std::time::{Duration, Instant};

        let stream_path = tmp("serve-e2e.bin");
        run(&Command::Synth {
            updates: 100_000,
            flows: 3_000,
            seed: 21,
            output: stream_path.clone(),
        })
        .unwrap();
        let pass_weight: u64 = streamfreq_workloads::load_binary(&stream_path)
            .unwrap()
            .iter()
            .map(|&(_, w)| w)
            .sum();
        let passes = 40u64;

        let port_file = tmp("serve-e2e.port");
        let _ = std::fs::remove_file(&port_file);
        let options = serve::ServeOptions {
            port: 0,
            port_file: Some(port_file.clone()),
            k: 512,
            policy: PurgePolicy::smed(),
            seed: 7,
            threads: 2,
            shards: 4,
            passes,
            snapshot_ms: 10,
            input: Some(stream_path.clone()),
            data_dir: None,
            fsync: streamfreq_core::FsyncPolicy::default(),
            checkpoint_ms: 0,
        };
        let server = std::thread::spawn(move || run(&Command::Serve(options)).unwrap());

        // Wait for the listener handshake.
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                Instant::now() < deadline,
                "server never wrote the port file"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();
        let mut conn = TcpStream::connect(&addr).unwrap();

        // Queries answered while ingestion is still running: the first
        // STATS must land mid-ingest (20 passes of 100k updates), and
        // repeated STATS see monotonically advancing epochs and stream
        // weight — the bounded-staleness view.
        let first = protocol_request(&mut conn, "STATS");
        assert!(first[0].starts_with("OK "), "{first:?}");
        assert_eq!(
            stats_field(&first[0], "ingest_done"),
            0,
            "first STATS should land during ingestion: {first:?}"
        );
        let mut last_epoch = stats_field(&first[0], "epoch");
        let mut last_n = stats_field(&first[0], "n");
        let final_stats = loop {
            let stats = protocol_request(&mut conn, "STATS");
            let epoch = stats_field(&stats[0], "epoch");
            let n = stats_field(&stats[0], "n");
            assert!(epoch >= last_epoch, "epoch went backwards: {stats:?}");
            assert!(n >= last_n, "stream weight shrank: {stats:?}");
            last_epoch = epoch;
            last_n = n;
            // Mid-ingest queries on the other verbs must answer too.
            let top = protocol_request(&mut conn, "TOPK 3");
            assert!(top[0].starts_with("OK "), "{top:?}");
            let hh = protocol_request(&mut conn, "HH 0.5");
            assert!(hh[0].starts_with("OK "), "{hh:?}");
            if stats_field(&stats[0], "ingest_done") == 1 {
                break stats;
            }
            assert!(Instant::now() < deadline, "ingestion never finished");
        };

        // The sealed view is exact: every pass of the file is in.
        assert_eq!(stats_field(&final_stats[0], "n"), pass_weight * passes);
        assert_eq!(stats_field(&final_stats[0], "shards"), 4);

        // TOPK rows are well-formed and estimable via EST.
        let top = protocol_request(&mut conn, "TOPK 5");
        assert_eq!(top.len(), 6, "{top:?}");
        let heaviest: u64 = top[1].split_whitespace().next().unwrap().parse().unwrap();
        let est = protocol_request(&mut conn, &format!("EST {heaviest}"));
        let fields: Vec<u64> = est[0]
            .strip_prefix("OK ")
            .unwrap()
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(fields.len(), 3, "{est:?}");
        assert!(fields[1] <= fields[0] && fields[0] <= fields[2].max(fields[0]));

        // Heavy hitters with both contracts, and protocol errors.
        assert!(protocol_request(&mut conn, "HH 0.01 nfp")[0].starts_with("OK "));
        assert!(protocol_request(&mut conn, "frobnicate")[0].starts_with("ERR "));
        assert!(protocol_request(&mut conn, "EST notanumber")[0].starts_with("ERR "));
        assert!(protocol_request(&mut conn, "HH 1.5")[0].starts_with("ERR "));

        // The query-remote client speaks the same protocol.
        let remote = run(&Command::QueryRemote {
            port,
            request: vec!["STATS".into()],
            binary: false,
            timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
            retries: 0,
        })
        .unwrap();
        assert_eq!(stats_field(remote.trim(), "ingest_done"), 1);
        let remote_top = run(&Command::QueryRemote {
            port,
            request: vec!["TOPK".into(), "2".into()],
            binary: false,
            timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
            retries: 0,
        })
        .unwrap();
        assert_eq!(remote_top.lines().count(), 3, "{remote_top}");

        // QUIT shuts the whole server down; run() returns the report.
        let bye = run(&Command::QueryRemote {
            port,
            request: vec!["QUIT".into()],
            binary: false,
            timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
            retries: 0,
        })
        .unwrap();
        assert!(bye.starts_with("OK bye"), "{bye}");
        let report = server.join().unwrap();
        assert!(report.contains("queries over"), "{report}");
        assert!(
            report.contains(&format!("N = {}", pass_weight * passes)),
            "{report}"
        );

        for p in [stream_path, port_file] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Reads one binary response frame `[len u32le | status | payload]`.
    fn read_frame(conn: &mut std::net::TcpStream) -> (u8, Vec<u8>) {
        use std::io::Read;
        let mut header = [0u8; 4];
        conn.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes(header) as usize;
        assert!(len > 0, "empty response frame");
        let mut frame = vec![0u8; len];
        conn.read_exact(&mut frame).unwrap();
        let payload = frame.split_off(1);
        (frame[0], payload)
    }

    #[test]
    fn serve_binary_protocol_pipelines_and_matches_text() {
        use crate::protocol::Query;
        use std::io::Write;
        use std::net::TcpStream;
        use std::time::{Duration, Instant};
        use streamfreq_core::ErrorType;

        let stream_path = tmp("serve-bin.bin");
        run(&Command::Synth {
            updates: 50_000,
            flows: 2_000,
            seed: 33,
            output: stream_path.clone(),
        })
        .unwrap();
        let port_file = tmp("serve-bin.port");
        let _ = std::fs::remove_file(&port_file);
        let options = serve::ServeOptions {
            port: 0,
            port_file: Some(port_file.clone()),
            k: 256,
            policy: PurgePolicy::smed(),
            seed: 5,
            threads: 2,
            shards: 2,
            passes: 1,
            snapshot_ms: 10,
            input: Some(stream_path.clone()),
            data_dir: None,
            fsync: streamfreq_core::FsyncPolicy::default(),
            checkpoint_ms: 0,
        };
        let server = std::thread::spawn(move || run(&Command::Serve(options)).unwrap());
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                Instant::now() < deadline,
                "server never wrote the port file"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();

        // Wait for ingest to finish over the text protocol so both
        // protocols then read the same sealed snapshot.
        let mut text = TcpStream::connect(addr.trim()).unwrap();
        loop {
            let stats = protocol_request(&mut text, "STATS");
            if stats_field(&stats[0], "ingest_done") == 1 {
                assert!(stats[0].contains("protocol=text"), "{stats:?}");
                break;
            }
            assert!(Instant::now() < deadline, "ingestion never finished");
            std::thread::sleep(Duration::from_millis(5));
        }

        // One pipelined write: magic + many frames back to back. The
        // replies must come back in order, one frame per request.
        let mut conn = TcpStream::connect(addr.trim()).unwrap();
        let top = protocol_request(&mut text, "TOPK 1");
        let heaviest: u64 = top[1].split_whitespace().next().unwrap().parse().unwrap();
        let mut wire = serve::BINARY_MAGIC.to_vec();
        const PIPELINED: usize = 257;
        for _ in 0..PIPELINED {
            Query::Est(heaviest).write_binary(&mut wire);
        }
        Query::TopK(3).write_binary(&mut wire);
        Query::Hh(0.5, ErrorType::NoFalsePositives).write_binary(&mut wire);
        Query::Stats.write_binary(&mut wire);
        conn.write_all(&wire).unwrap();

        // Every EST reply decodes to the text protocol's numbers.
        let text_est = protocol_request(&mut text, &format!("EST {heaviest}"));
        let expect: Vec<u64> = text_est[0]
            .strip_prefix("OK ")
            .unwrap()
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        for _ in 0..PIPELINED {
            let (status, payload) = read_frame(&mut conn);
            assert_eq!(status, 0);
            assert_eq!(payload.len(), 24);
            let field =
                |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().unwrap());
            assert_eq!([field(0), field(1), field(2)], expect[..]);
        }
        let (status, payload) = read_frame(&mut conn);
        assert_eq!(status, 0);
        let rows = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        assert_eq!(payload.len(), 4 + 32 * rows, "row payload size");
        assert_eq!(
            u64::from_le_bytes(payload[4..12].try_into().unwrap()),
            heaviest,
            "TOPK's heaviest row must match the text protocol's"
        );
        let (status, _) = read_frame(&mut conn); // HH
        assert_eq!(status, 0);
        let (status, payload) = read_frame(&mut conn); // STATS
        assert_eq!(status, 0);
        let stats = String::from_utf8(payload).unwrap();
        assert!(stats.contains("protocol=binary"), "{stats}");
        assert!(stats.contains("ingest_done=1"), "{stats}");

        // Malformed requests get ERR frames, not a dropped connection.
        conn.write_all(&[5, 0, 0, 0, 0x7f, 1, 2, 3, 4]).unwrap();
        let (status, payload) = read_frame(&mut conn);
        assert_eq!(status, 1);
        assert!(String::from_utf8_lossy(&payload).contains("unknown opcode"));

        // The query-remote client's binary mode renders text-identical
        // output.
        let remote = run(&Command::QueryRemote {
            port,
            request: vec!["EST".into(), heaviest.to_string()],
            binary: true,
            timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
            retries: 0,
        })
        .unwrap();
        assert_eq!(remote.trim(), text_est[0], "binary EST rendering");
        // Result rows render the same through either protocol.
        for request in ["TOPK 3", "HH 0.01 nfp", "hh 0.01"] {
            let remote = |binary| {
                run(&Command::QueryRemote {
                    port,
                    request: args(request),
                    binary,
                    timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
                    retries: 0,
                })
                .unwrap()
            };
            let text = remote(false);
            assert!(!text.starts_with("OK 0\n"), "{request}: no rows in {text}");
            assert_eq!(remote(true), text, "binary {request} rendering");
        }
        let remote_stats = run(&Command::QueryRemote {
            port,
            request: vec!["STATS".into()],
            binary: true,
            timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
            retries: 0,
        })
        .unwrap();
        assert!(remote_stats.contains("protocol=binary"), "{remote_stats}");

        // Binary QUIT shuts the whole server down.
        let bye = run(&Command::QueryRemote {
            port,
            request: vec!["QUIT".into()],
            binary: true,
            timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
            retries: 0,
        })
        .unwrap();
        assert!(bye.starts_with("OK bye"), "{bye}");
        let report = server.join().unwrap();
        assert!(report.contains("queries over"), "{report}");
        for p in [stream_path, port_file] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn cluster_query_refuses_topk_beyond_the_cap() {
        let err = run(&Command::ClusterQuery(cluster::ClusterQueryOptions {
            topology: tmp("cap-no-such-topology.sftopo"),
            k: 64,
            policy: PurgePolicy::smed(),
            seed: 1,
            request: args("TOPK 100001"),
            timeout_ms: 100,
            retries: 0,
        }))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("outside 1..=100000")),
            "{err}"
        );
    }

    #[test]
    fn serve_drained_state_matches_sequential_bank() {
        use std::net::TcpStream;
        use std::time::{Duration, Instant};

        // The served sealed snapshot must equal the Algorithm-5 merged
        // export of a sequential ShardedSketch ingest of the same
        // configuration — the CLI-level face of the drain-equivalence
        // contract.
        let stream_path = tmp("serve-det.bin");
        run(&Command::Synth {
            updates: 30_000,
            flows: 1_000,
            seed: 4,
            output: stream_path.clone(),
        })
        .unwrap();
        let stream = streamfreq_workloads::load_binary(&stream_path).unwrap();
        let mut reference: streamfreq_core::ShardedSketch<u64> =
            streamfreq_core::ShardedSketch::builder(4, 128)
                .seed(11)
                .build()
                .unwrap();
        reference.update_batch(&stream);
        let merged = streamfreq_core::FreqSketch::from(reference.merged_with_capacity(512));

        let port_file = tmp("serve-det.port");
        let _ = std::fs::remove_file(&port_file);
        let options = serve::ServeOptions {
            port: 0,
            port_file: Some(port_file.clone()),
            k: 512,
            policy: PurgePolicy::smed(),
            seed: 11,
            threads: 3,
            shards: 4,
            passes: 1,
            snapshot_ms: 0,
            input: Some(stream_path.clone()),
            data_dir: None,
            fsync: streamfreq_core::FsyncPolicy::default(),
            checkpoint_ms: 0,
        };
        let server = std::thread::spawn(move || run(&Command::Serve(options)).unwrap());
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(Instant::now() < deadline, "no port file");
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut conn = TcpStream::connect(addr.trim()).unwrap();
        loop {
            let stats = protocol_request(&mut conn, "STATS");
            if stats_field(&stats[0], "ingest_done") == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "ingestion never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        for row in merged.top_k(10) {
            let est = protocol_request(&mut conn, &format!("EST {}", row.item));
            assert_eq!(
                est[0],
                format!(
                    "OK {} {} {}",
                    row.estimate, row.lower_bound, row.upper_bound
                ),
                "served estimate diverged from sequential merge for {}",
                row.item
            );
        }
        let stats = protocol_request(&mut conn, "STATS");
        assert_eq!(stats_field(&stats[0], "n"), merged.stream_weight());
        assert_eq!(
            stats_field(&stats[0], "max_error"),
            merged.maximum_error(),
            "served error band must match Theorem 5 merged export"
        );
        protocol_request(&mut conn, "QUIT");
        server.join().unwrap();
        for p in [stream_path, port_file] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn parses_serve_durability_and_store_commands() {
        let cmd = parse_args(&args(
            "serve -k 64 --input s.bin --data-dir /tmp/d --fsync bytes:1024 --checkpoint-ms 200",
        ))
        .unwrap();
        match cmd {
            Command::Serve(opts) => {
                assert_eq!(opts.data_dir, Some(PathBuf::from("/tmp/d")));
                assert_eq!(opts.fsync, streamfreq_core::FsyncPolicy::EveryBytes(1024));
                assert_eq!(opts.checkpoint_ms, 200);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse_args(&args("serve -k 64 --input s.bin --fsync always")).is_err());
        assert!(parse_args(&args("serve -k 64 --input s.bin --checkpoint-ms 5")).is_err());
        assert!(parse_args(&args(
            "serve -k 64 --input s.bin --data-dir d --fsync sometimes"
        ))
        .is_err());
        assert_eq!(
            parse_args(&args("checkpoint --data-dir /tmp/d")).unwrap(),
            Command::Checkpoint {
                data_dir: PathBuf::from("/tmp/d")
            }
        );
        assert_eq!(
            parse_args(&args("recover --data-dir /tmp/d --output out.sk")).unwrap(),
            Command::Recover {
                data_dir: PathBuf::from("/tmp/d"),
                output: PathBuf::from("out.sk"),
            }
        );
        assert!(parse_args(&args("checkpoint")).is_err());
        assert!(parse_args(&args("recover --data-dir d")).is_err());
    }

    /// Extracts `N = <n>` from a serve report.
    fn report_n(report: &str) -> u64 {
        report
            .split("N = ")
            .nth(1)
            .unwrap()
            .split([',', ' '])
            .next()
            .unwrap()
            .parse()
            .unwrap()
    }

    /// Starts a durable server thread and waits for the port handshake.
    fn start_durable_server(
        stream_path: &Path,
        data_dir: &Path,
        port_file: &Path,
        passes: u64,
    ) -> (std::thread::JoinHandle<String>, String, u16) {
        use std::time::{Duration, Instant};
        let _ = std::fs::remove_file(port_file);
        let options = serve::ServeOptions {
            port: 0,
            port_file: Some(port_file.to_path_buf()),
            k: 512,
            policy: PurgePolicy::smed(),
            seed: 9,
            threads: 2,
            shards: 4,
            passes,
            snapshot_ms: 10,
            input: Some(stream_path.to_path_buf()),
            data_dir: Some(data_dir.to_path_buf()),
            fsync: streamfreq_core::FsyncPolicy::Off,
            checkpoint_ms: 25,
        };
        let server = std::thread::spawn(move || run(&Command::Serve(options)).unwrap());
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(port_file) {
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                Instant::now() < deadline,
                "server never wrote the port file"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();
        (server, addr, port)
    }

    #[test]
    fn durable_serve_survives_restart_with_exact_n() {
        use std::net::TcpStream;
        use std::time::{Duration, Instant};

        let stream_path = tmp("durable-serve.bin");
        let data_dir = tmp("durable-serve-store");
        let port_file = tmp("durable-serve.port");
        let _ = std::fs::remove_dir_all(&data_dir);
        run(&Command::Synth {
            updates: 60_000,
            flows: 2_000,
            seed: 31,
            output: stream_path.clone(),
        })
        .unwrap();
        let pass_weight: u64 = streamfreq_workloads::load_binary(&stream_path)
            .unwrap()
            .iter()
            .map(|&(_, w)| w)
            .sum();

        // First run: many passes; we kill it mid-ingest via QUIT.
        let (server, addr, _) = start_durable_server(&stream_path, &data_dir, &port_file, 50);
        let mut conn = TcpStream::connect(addr.trim()).unwrap();
        let stats = protocol_request(&mut conn, "STATS");
        assert_eq!(
            stats_field(&stats[0], "ingest_done"),
            0,
            "first STATS should land mid-ingest: {stats:?}"
        );
        // Durable STATS reports the persistence gauges, including the
        // group-commit counters of the shared log.
        assert!(stats[0].contains("wal_bytes="), "{stats:?}");
        assert!(stats[0].contains("last_checkpoint_epoch="), "{stats:?}");
        assert!(stats[0].contains("fsync_policy=off"), "{stats:?}");
        assert!(stats[0].contains("protocol=text"), "{stats:?}");
        assert!(stats[0].contains("wal_flush_count="), "{stats:?}");
        assert!(stats[0].contains("wal_group_commit_batches="), "{stats:?}");
        assert!(stats[0].contains("avg_frames_per_fsync="), "{stats:?}");
        // The log-writer thread drains asynchronously, so the very first
        // STATS may race ahead of its first flush window — poll until it
        // lands rather than asserting on one snapshot.
        let flush_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = protocol_request(&mut conn, "STATS");
            if stats_field(&stats[0], "wal_flush_count") > 0 {
                break;
            }
            assert!(
                Instant::now() < flush_deadline,
                "the writer thread never flushed: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // An explicit CKPT round succeeds and reports an epoch.
        let ckpt = protocol_request(&mut conn, "CKPT");
        assert!(ckpt[0].starts_with("OK epoch="), "{ckpt:?}");
        // Kill mid-ingest.
        let bye = protocol_request(&mut conn, "QUIT");
        assert_eq!(bye[0], "OK bye");
        let report = server.join().unwrap();
        assert!(report.contains("durable:"), "{report}");
        let sealed_n = report_n(&report);
        assert!(
            sealed_n > 0 && sealed_n.is_multiple_of(pass_weight),
            "{report}"
        );
        assert!(
            sealed_n < 50 * pass_weight,
            "QUIT should abort remaining passes: {report}"
        );

        // Second run against the same store: recovery + one more pass.
        let (server, addr, port) = start_durable_server(&stream_path, &data_dir, &port_file, 1);
        let mut conn = TcpStream::connect(addr.trim()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let final_stats = loop {
            let stats = protocol_request(&mut conn, "STATS");
            assert!(
                stats_field(&stats[0], "n") >= sealed_n,
                "recovered N regressed: {stats:?}"
            );
            if stats_field(&stats[0], "ingest_done") == 1 {
                break stats;
            }
            assert!(Instant::now() < deadline, "ingestion never finished");
            std::thread::sleep(Duration::from_millis(5));
        };
        // The restart carried the first run's sealed N exactly.
        assert_eq!(
            stats_field(&final_stats[0], "n"),
            sealed_n + pass_weight,
            "exact N across restart: {final_stats:?}"
        );
        run(&Command::QueryRemote {
            port,
            request: vec!["QUIT".into()],
            binary: false,
            timeout_ms: serve::DEFAULT_REMOTE_TIMEOUT_MS,
            retries: 0,
        })
        .unwrap();
        let report = server.join().unwrap();
        let final_n = report_n(&report);
        assert_eq!(final_n, sealed_n + pass_weight);

        // Offline tooling against the store the server left behind.
        let info = run(&Command::Info(data_dir.clone())).unwrap();
        assert!(info.contains("durable store"), "{info}");
        assert!(info.contains("shards:            4"), "{info}");
        let ckpt_report = run(&Command::Checkpoint {
            data_dir: data_dir.clone(),
        })
        .unwrap();
        assert!(ckpt_report.contains("shard 3:"), "{ckpt_report}");
        let recovered_path = tmp("durable-serve-recovered.sk");
        let recover_report = run(&Command::Recover {
            data_dir: data_dir.clone(),
            output: recovered_path.clone(),
        })
        .unwrap();
        assert!(recover_report.contains("wrote"), "{recover_report}");
        let recovered = read_sketch(&recovered_path).unwrap();
        assert_eq!(recovered.stream_weight(), final_n);

        // `info` decodes the pieces of the store too.
        let shard0 = data_dir.join("shard-0000");
        let manifest_info = run(&Command::Info(shard0.join("MANIFEST"))).unwrap();
        assert!(
            manifest_info.contains("checkpoint epoch"),
            "{manifest_info}"
        );
        let ckpt_file = std::fs::read_dir(&shard0)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
            .expect("checkpoint file exists");
        let ckpt_info = run(&Command::Info(ckpt_file.path())).unwrap();
        assert!(ckpt_info.contains("key type:          u64"), "{ckpt_info}");
        assert!(ckpt_info.contains("epoch:"), "{ckpt_info}");
        let store_info = run(&Command::Info(data_dir.join("STORE"))).unwrap();
        assert!(
            store_info.contains("sharded store metadata"),
            "{store_info}"
        );

        let _ = std::fs::remove_dir_all(&data_dir);
        for p in [stream_path, port_file, recovered_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn checkpoint_and_recover_on_single_sketch_store() {
        use streamfreq_core::{DurabilityOptions, DurableSketch, EngineConfig};
        let data_dir = tmp("single-store");
        let _ = std::fs::remove_dir_all(&data_dir);
        let (mut store, _) = DurableSketch::<u64>::open(
            &data_dir,
            EngineConfig::new(128).seed(4),
            DurabilityOptions::default(),
        )
        .unwrap();
        for i in 0..5_000u64 {
            store.update(i % 300, i % 11 + 1).unwrap();
        }
        let n = store.engine().stream_weight();
        drop(store); // crash: WAL only, no checkpoint

        let info = run(&Command::Info(data_dir.clone())).unwrap();
        assert!(info.contains("single sketch"), "{info}");

        let report = run(&Command::Checkpoint {
            data_dir: data_dir.clone(),
        })
        .unwrap();
        assert!(report.contains("epoch 1"), "{report}");

        let out = tmp("single-store.sk");
        let report = run(&Command::Recover {
            data_dir: data_dir.clone(),
            output: out.clone(),
        })
        .unwrap();
        assert!(report.contains("CheckpointOnly"), "{report}");
        assert_eq!(read_sketch(&out).unwrap().stream_weight(), n);

        // Recovering a non-store directory is a clean error.
        let empty = tmp("not-a-store");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&Command::Recover {
            data_dir: empty.clone(),
            output: out.clone(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Persist(..)), "{err:?}");

        let _ = std::fs::remove_dir_all(&data_dir);
        let _ = std::fs::remove_dir_all(&empty);
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn corrupt_sketch_file_is_reported() {
        let path = tmp("corrupt.sk");
        std::fs::write(&path, b"not a sketch").unwrap();
        let err = run(&Command::Info(path.clone())).unwrap_err();
        assert!(matches!(err, CliError::Sketch(..)), "{err:?}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run(&Command::Info(PathBuf::from("/nonexistent/x.sk"))).unwrap_err();
        assert!(matches!(err, CliError::Io(..)));
    }
}
