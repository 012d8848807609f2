//! `streamfreq serve`: a loopback TCP server answering frequency
//! queries from [`streamfreq_core::ConcurrentSketch`] snapshots while
//! ingestion runs, plus the matching `query-remote` client.
//!
//! ## Protocols
//!
//! One port, two wire formats, chosen per connection by the first four
//! bytes the client sends. A connection opening with the magic `SFBP`
//! speaks the **pipelined binary protocol**; anything else falls back
//! to the original **newline text protocol** (what the CLI e2e tests
//! and `nc` use). Both are served by a single event loop — no thread
//! per connection — so thousands of pipelined requests in one read are
//! answered with one write.
//!
//! ## Event loop
//!
//! Each turn accepts pending connections, then pumps every connection
//! once: write what is queued, read up to a quantum, answer every
//! complete request. A turn that moves no bytes blocks in `poll(2)` on
//! the listener and every open connection until one is ready, bounded
//! by a 100 ms guard. A connection asks for readability only while it
//! would read on its next turn (`Conn::wants_read`, the same test that
//! gates the read itself), and for writability only while replies are
//! queued, so a client that stops reading, or half-closes with replies
//! pending, parks the loop instead of spinning it. An answer therefore
//! leaves as soon as its request arrives, with no sleep between them.
//!
//! The verbs, both wire formats and their bounds are defined once in
//! [`crate::protocol`]; a text line longer than 4 KiB gets an `ERR`
//! reply and closes its connection. Binary requests may be pipelined
//! back to back without waiting for replies; responses come back in
//! request order. Besides the query verbs, the binary protocol carries
//! the node-only opcodes of cluster mode (`node_opcode`).
//!
//! `STATS` answers `epoch=<e> n=<N> counters=<c> max_error=<err>
//! enqueued=<w> ingest_done=<0|1> shards=<s> protocol=<text|binary>`.
//!
//! Every query answers from the most recent published snapshot: a
//! bounded-stale, Algorithm-5-merged view with the same certified error
//! bounds as `ShardedSketch::merged()`. `STATS` exposes the snapshot
//! epoch and the live enqueued weight so clients can observe staleness
//! directly. Queries never block ingestion (the snapshot swap is the
//! only synchronization point).
//!
//! ## Durable serving
//!
//! With `--data-dir`, the bank runs on one shared group-commit
//! write-ahead log plus per-shard checkpoints
//! (`streamfreq_core::persist`): starting against a directory holding
//! prior state **recovers it** (checkpoint ⊕ shared-log replay routed
//! by stream tag, Algorithm-5 merge across shards) before ingestion
//! begins, `CKPT` triggers a synchronous checkpoint round, and `STATS`
//! additionally reports `wal_bytes=<b> last_checkpoint_epoch=<e>
//! fsync_policy=<p> wal_flush_count=<f> wal_group_commit_batches=<g>
//! avg_frames_per_fsync=<a>`. `QUIT`'s graceful drain ends with a final
//! checkpoint round, so a clean shutdown restarts without replay.
//!
//! The server binds `127.0.0.1` only: this is an operational inspection
//! port, not an internet-facing service.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use streamfreq_core::cluster::wire as cluster_wire;
use streamfreq_core::persist::{self, DurabilityOptions, FsyncPolicy};
use streamfreq_core::{ConcurrentSketch, ConcurrentWriter, PurgePolicy, SnapshotReader};
use streamfreq_workloads::load_binary;

use crate::cluster::{connect_with_retry, read_frame_capped};
use crate::protocol::{self, push_err_frame, push_frame, Query, Reply, MAX_TEXT_LINE};
use crate::CliError;

/// Upper bound on one idle `poll(2)` wait, in milliseconds. Every
/// event that can end a wait (a connection, a request, a drained socket
/// buffer) wakes the poll itself; the bound only guards against a wake
/// the interest set does not cover.
const IDLE_WAIT_MS: c_int = 100;

/// The four bytes a binary-protocol client sends first.
pub const BINARY_MAGIC: &[u8; 4] = b"SFBP";

/// Sanity cap on one request frame. `INGEST` legitimately carries up to
/// [`MAX_INGEST_BATCH`](cluster_wire::MAX_INGEST_BATCH) update pairs, so
/// the header-level cap admits that; every other opcode's handler still
/// rejects payloads beyond its own few-scalar shape.
const MAX_REQUEST_FRAME: usize = 1 << 24;

/// Stop reading from a connection whose client is not draining replies
/// once this much output is queued; resume when it drains.
const WRITE_HIGH_WATER: usize = 8 << 20;

/// Per-tick read quantum per connection, so one firehose client cannot
/// starve the rest of the loop.
const READ_QUANTUM: usize = 1 << 20;

/// Node-only binary opcodes, the cluster extension of SFBP: snapshot
/// export for the merging query tier, file shipping for replicas, and
/// wire ingest for the routing client. The query verbs' opcodes are in
/// [`crate::protocol`].
pub(crate) mod node_opcode {
    pub const SNAP: u8 = 0x07;
    pub const REPL: u8 = 0x08;
    pub const FETCH: u8 = 0x09;
    pub const INGEST: u8 = 0x0A;
}

/// Configuration of one `streamfreq serve` run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// Loopback port to bind (0 = ephemeral, see `port_file`).
    pub port: u16,
    /// If set, the actual bound address (`127.0.0.1:PORT`) is written
    /// here once the listener is ready — the handshake that lets
    /// scripts (and the e2e tests) use `--port 0`.
    pub port_file: Option<PathBuf>,
    /// Total counter budget `k` (split across shards; the served merged
    /// snapshot gets the full `k`, like `build --threads`).
    pub k: usize,
    /// Purge policy for every shard.
    pub policy: PurgePolicy,
    /// Base sampler seed (shard `s` uses `seed + s`).
    pub seed: u64,
    /// Writer threads for ingestion.
    pub threads: usize,
    /// Shard-bank width (0 = match `threads`).
    pub shards: usize,
    /// How many times the input stream is ingested end to end: the
    /// serving analogue of replaying a day of traffic. The drained
    /// total weight is `passes ×` the file's weight.
    pub passes: u64,
    /// Periodic snapshot publish interval in milliseconds (0 = publish
    /// only at drain).
    pub snapshot_ms: u64,
    /// Input stream file (16-byte `(item, weight)` records). `None`
    /// runs the server as a **cluster ingest node**: nothing is read
    /// from disk and updates arrive over the wire via the binary
    /// `INGEST` opcode instead (see `cluster-ingest`).
    pub input: Option<PathBuf>,
    /// Durable store directory: shared group-commit WAL + checkpoints,
    /// recovered on startup. `None` = in-memory serving.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy when `data_dir` is set.
    pub fsync: FsyncPolicy,
    /// Periodic checkpoint interval in milliseconds when `data_dir` is
    /// set (0 = checkpoint only on `CKPT` and at drain).
    pub checkpoint_ms: u64,
}

/// Shared context each connection handler needs.
struct ServeCtx {
    reader: SnapshotReader<u64>,
    stop: Arc<AtomicBool>,
    queries: AtomicU64,
    num_shards: usize,
    /// The fsync-policy label when serving durably (`--data-dir`).
    fsync_label: Option<String>,
    /// The durable store directory, for `REPL`/`FETCH` file shipping.
    data_dir: Option<PathBuf>,
    /// Wire-ingest writer, present only in cluster-node mode (no
    /// `--input`). Taken (dropped) after the event loop exits so the
    /// bank's `drain()` can join the shard workers.
    writer: Mutex<Option<ConcurrentWriter<u64>>>,
}

/// Runs the server until a client sends `QUIT`; returns the final text
/// report. See the [module docs](self) for the protocols.
///
/// # Errors
/// Returns [`CliError`] for unreadable inputs, invalid sketch
/// configuration, or socket failures.
pub fn run_serve(opts: &ServeOptions) -> Result<String, CliError> {
    let stream = match &opts.input {
        Some(input) => Some(load_binary(input).map_err(|e| CliError::Io(input.clone(), e))?),
        None => None,
    };
    // Error-context label: the input path, or a marker in node mode.
    let origin = opts
        .input
        .clone()
        .unwrap_or_else(|| PathBuf::from("<wire-ingest>"));
    let threads = opts.threads.max(1);
    let num_shards = if opts.shards > 0 {
        opts.shards
    } else {
        threads
    };
    let k_per_shard = (opts.k / num_shards).max(1);
    let mut builder = ConcurrentSketch::<u64>::builder(num_shards, k_per_shard)
        .policy(opts.policy)
        .seed(opts.seed)
        .merged_capacity(opts.k);
    if opts.snapshot_ms > 0 {
        builder = builder.publish_every(Duration::from_millis(opts.snapshot_ms));
    }
    let (sketch, recovered_weight) = match &opts.data_dir {
        None => {
            let sketch = builder.build().map_err(|e| CliError::Sketch(origin, e))?;
            (sketch, 0)
        }
        Some(dir) => {
            let durability = DurabilityOptions {
                fsync: opts.fsync,
                ..DurabilityOptions::default()
            };
            let interval =
                (opts.checkpoint_ms > 0).then(|| Duration::from_millis(opts.checkpoint_ms));
            let (sketch, _reports) = builder
                .build_durable(dir, durability, interval)
                .map_err(|e| CliError::Persist(dir.clone(), e))?;
            let recovered = sketch.snapshot().stream_weight();
            (sketch, recovered)
        }
    };
    let snapshot_reader = sketch.reader();
    // In node mode the event loop feeds updates into the bank itself.
    let wire_writer = opts.input.is_none().then(|| sketch.writer());

    let listener = TcpListener::bind(("127.0.0.1", opts.port))
        .map_err(|e| CliError::Net("127.0.0.1".into(), e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::Net("127.0.0.1".into(), e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Net("127.0.0.1".into(), e))?;
    if let Some(port_file) = &opts.port_file {
        std::fs::write(port_file, addr.to_string())
            .map_err(|e| CliError::Io(port_file.clone(), e))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let ctx = ServeCtx {
        reader: snapshot_reader,
        stop: Arc::clone(&stop),
        queries: AtomicU64::new(0),
        num_shards,
        fsync_label: opts.data_dir.is_some().then(|| opts.fsync.label()),
        data_dir: opts.data_dir.clone(),
        writer: Mutex::new(wire_writer),
    };

    // Ingestion runs beside the event loop; queries observe its
    // progress through snapshots. QUIT aborts between passes. In node
    // mode (no input file) updates arrive through the event loop's
    // `INGEST` handler instead, and the bank stays on this thread until
    // the loop ends.
    let (ingest, mut node_sketch) = match stream {
        Some(stream) => {
            let stop = Arc::clone(&stop);
            let passes = opts.passes.max(1);
            let handle = std::thread::spawn(move || {
                let mut sketch = sketch;
                for _ in 0..passes {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    sketch.ingest_slice_parallel(&stream, threads);
                }
                sketch.drain();
            });
            (Some(handle), None)
        }
        None => (None, Some(sketch)),
    };

    let mut connections: u64 = 0;
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut loop_error: Option<CliError> = None;
    while !stop.load(Ordering::SeqCst) {
        let mut active = false;
        loop {
            match listener.accept() {
                Ok((sock, _)) => {
                    connections += 1;
                    active = true;
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    conns.push(Conn::new(sock));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    // A fatal accept failure must still shut the server
                    // down gracefully: stop the loop and the ingest
                    // thread before surfacing the error, or they would
                    // outlive this call.
                    loop_error = Some(CliError::Net(addr.to_string(), e));
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        for conn in &mut conns {
            active |= conn.pump(&ctx, &mut scratch);
        }
        conns.retain(|c| !c.closed);
        if !active && !stop.load(Ordering::SeqCst) {
            if let Err(e) = wait_ready(&listener, &conns, &mut pollfds) {
                loop_error = Some(CliError::Net(addr.to_string(), e));
                stop.store(true, Ordering::SeqCst);
            }
        }
    }
    // Final flush so the `OK bye` (and any other queued replies) land
    // before the sockets drop.
    for conn in &mut conns {
        conn.flush_best_effort();
    }
    drop(conns);
    // The wire writer holds shard-channel senders; it must drop before
    // drain() can join the shard workers.
    ctx.writer.lock().expect("writer mutex poisoned").take();
    if let Some(ingest) = ingest {
        ingest.join().expect("ingest thread panicked");
    }
    if let Some(sketch) = &mut node_sketch {
        sketch.drain();
    }
    if let Some(error) = loop_error {
        return Err(error);
    }

    let snapshot = ctx.reader.snapshot();
    let mut report = format!(
        "served {} queries over {} connections on {}\n\
         final snapshot: epoch {}, N = {}, {} counters, max error ±{}\n",
        ctx.queries.load(Ordering::SeqCst),
        connections,
        addr,
        snapshot.epoch(),
        snapshot.stream_weight(),
        snapshot.num_counters(),
        snapshot.maximum_error()
    );
    if let Some(dir) = &opts.data_dir {
        report.push_str(&format!(
            "durable: {} (recovered N = {recovered_weight}, \
             last checkpoint epoch {}, fsync {})\n",
            dir.display(),
            ctx.reader.last_checkpoint_epoch(),
            opts.fsync.label()
        ));
    }
    Ok(report)
}

/// Which wire format a connection speaks, decided by its first bytes.
enum Mode {
    /// Not enough bytes yet to tell.
    Sniff,
    /// Newline-delimited text (the original protocol).
    Text,
    /// `SFBP` length-prefixed frames.
    Binary,
}

/// One client connection in the event loop: buffered input not yet
/// parsed, buffered output not yet written.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Written prefix of `wbuf` (compacted when fully drained).
    wpos: usize,
    mode: Mode,
    /// Peer sent EOF: process what is buffered, flush, then close.
    eof: bool,
    /// Flush the remaining `wbuf` and close (QUIT or protocol error).
    close_after_flush: bool,
    closed: bool,
    /// Text mode: length of the `rbuf` prefix already searched for a
    /// newline without finding one.
    scanned: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            mode: Mode::Sniff,
            eof: false,
            close_after_flush: false,
            closed: false,
            scanned: 0,
        }
    }

    /// Whether the next turn reads from the socket: the peer has more
    /// to send, no close is pending, and the peer is draining replies.
    /// Both `pump` and the idle wait's interest set use this, so the
    /// loop never waits for input it would not read.
    fn wants_read(&self) -> bool {
        !self.eof && !self.close_after_flush && self.pending_write() < WRITE_HIGH_WATER
    }

    /// One event-loop turn: write what is pending, read what arrived,
    /// answer every complete request. Returns true if any bytes moved.
    fn pump(&mut self, ctx: &ServeCtx, scratch: &mut [u8]) -> bool {
        if self.closed {
            return false;
        }
        let mut active = self.try_write();
        if self.closed {
            return active;
        }
        // Read up to a quantum, unless the peer is not draining replies.
        if self.wants_read() {
            let mut read = 0usize;
            while read < READ_QUANTUM {
                match self.stream.read(scratch) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&scratch[..n]);
                        read += n;
                        active = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.closed = true;
                        return active;
                    }
                }
            }
        }
        self.process(ctx);
        active |= self.try_write();
        if self.eof && self.pending_write() == 0 {
            self.closed = true;
        }
        active
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Drains as much of `wbuf` as the socket accepts right now.
    fn try_write(&mut self) -> bool {
        let mut active = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.closed = true;
                    return active;
                }
                Ok(n) => {
                    self.wpos += n;
                    active = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return active;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.close_after_flush {
                self.closed = true;
            }
        }
        active
    }

    /// Blocking last-chance flush used at server shutdown.
    fn flush_best_effort(&mut self) {
        if self.closed || self.pending_write() == 0 {
            return;
        }
        let _ = self.stream.set_nonblocking(false);
        let _ = self
            .stream
            .set_write_timeout(Some(Duration::from_millis(500)));
        let _ = self.stream.write_all(&self.wbuf[self.wpos..]);
        let _ = self.stream.flush();
    }

    /// Parses and answers every complete request currently buffered.
    fn process(&mut self, ctx: &ServeCtx) {
        if matches!(self.mode, Mode::Sniff) {
            if self.rbuf.len() >= BINARY_MAGIC.len() {
                if &self.rbuf[..BINARY_MAGIC.len()] == BINARY_MAGIC {
                    self.rbuf.drain(..BINARY_MAGIC.len());
                    self.mode = Mode::Binary;
                } else {
                    self.mode = Mode::Text;
                }
            } else if self.rbuf.contains(&b'\n') || self.eof {
                // A full (short) line arrived before four bytes did, or
                // the peer is done sending: this is not the magic.
                self.mode = Mode::Text;
            } else {
                return;
            }
        }
        match self.mode {
            Mode::Text => self.process_text(ctx),
            Mode::Binary => self.process_binary(ctx),
            Mode::Sniff => unreachable!("mode decided above"),
        }
    }

    fn process_text(&mut self, ctx: &ServeCtx) {
        // At EOF a trailing unterminated line still counts as a request
        // (parity with a client that forgot the final newline).
        if self.eof && self.rbuf.last().is_some_and(|&b| b != b'\n') {
            self.rbuf.push(b'\n');
        }
        let mut consumed = 0usize;
        // Only bytes that arrived since the last turn are searched.
        let mut scan_from = self.scanned;
        while let Some(nl) = self.rbuf[scan_from..].iter().position(|&b| b == b'\n') {
            let end = scan_from + nl;
            if end - consumed > MAX_TEXT_LINE {
                self.reject_long_line();
                return;
            }
            let request = Query::parse_line(&String::from_utf8_lossy(&self.rbuf[consumed..end]));
            consumed = end + 1;
            scan_from = consumed;
            let quit = request == Ok(Query::Quit);
            respond(request, ctx, "text").write_text(&mut self.wbuf);
            if quit {
                ctx.stop.store(true, Ordering::SeqCst);
                self.close_after_flush = true;
                break;
            }
        }
        if !self.close_after_flush && self.rbuf.len() - consumed > MAX_TEXT_LINE {
            self.reject_long_line();
            return;
        }
        self.rbuf.drain(..consumed);
        self.scanned = self.rbuf.len();
    }

    /// Answers a text line over [`MAX_TEXT_LINE`] with `ERR` and closes
    /// the connection once the reply is flushed.
    fn reject_long_line(&mut self) {
        Reply::overlong_line().write_text(&mut self.wbuf);
        self.rbuf.clear();
        self.scanned = 0;
        self.close_after_flush = true;
    }

    fn process_binary(&mut self, ctx: &ServeCtx) {
        let mut consumed = 0usize;
        while self.rbuf.len() - consumed >= 4 {
            let header: [u8; 4] = self.rbuf[consumed..consumed + 4].try_into().unwrap();
            let len = u32::from_le_bytes(header) as usize;
            if len == 0 || len > MAX_REQUEST_FRAME {
                push_err_frame(&mut self.wbuf, &format!("bad frame length {len}"));
                self.close_after_flush = true;
                consumed = self.rbuf.len();
                break;
            }
            if self.rbuf.len() - consumed < 4 + len {
                break;
            }
            let frame = &self.rbuf[consumed + 4..consumed + 4 + len];
            consumed += 4 + len;
            if handle_binary_request(frame[0], &frame[1..], ctx, &mut self.wbuf) {
                ctx.stop.store(true, Ordering::SeqCst);
                self.close_after_flush = true;
                break;
            }
        }
        self.rbuf.drain(..consumed);
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `poll(2)` event bits; the same values on every Unix.
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until the listener has a connection to accept or a connection
/// is ready for what its next `pump` would do, or until [`IDLE_WAIT_MS`]
/// passes. `fds` is scratch reused across turns. An interrupted wait
/// (`EINTR`) returns `Ok` like a timeout: the caller just runs an idle
/// turn.
fn wait_ready(
    listener: &TcpListener,
    conns: &[Conn],
    fds: &mut Vec<PollFd>,
) -> std::io::Result<()> {
    fds.clear();
    fds.push(PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    });
    for conn in conns {
        let mut events = 0;
        if conn.wants_read() {
            events |= POLLIN;
        }
        if conn.pending_write() > 0 {
            events |= POLLOUT;
        }
        fds.push(PollFd {
            fd: conn.stream.as_raw_fd(),
            events,
            revents: 0,
        });
    }
    // SAFETY: `fds` is a live, exclusively borrowed buffer of exactly
    // `fds.len()` `#[repr(C)]` pollfd records, so the kernel reads and
    // writes only inside it; every fd belongs to a socket that `listener`
    // or `conns` keeps open for the whole call.
    #[allow(unsafe_code)]
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, IDLE_WAIT_MS) };
    if ready < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Answers one binary request frame, appending the response frame to
/// `out`. Returns true when the server should shut down (QUIT).
fn handle_binary_request(op: u8, payload: &[u8], ctx: &ServeCtx, out: &mut Vec<u8>) -> bool {
    match op {
        node_opcode::SNAP => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            if !payload.is_empty() {
                push_err_frame(out, "SNAP takes no payload");
                return false;
            }
            let snap = ctx.reader.snapshot();
            let body = cluster_wire::encode_snapshot(snap.epoch(), snap.is_sealed(), snap.engine());
            push_frame(out, 0, |p| p.extend_from_slice(&body));
        }
        node_opcode::REPL => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            if !payload.is_empty() {
                push_err_frame(out, "REPL takes no payload");
                return false;
            }
            let Some(dir) = &ctx.data_dir else {
                push_err_frame(out, "server is not durable (start with --data-dir)");
                return false;
            };
            // Push buffered wire writes into the bank and force the WAL
            // to disk first, so the manifest advertises a durable state
            // at least as fresh as every acknowledged INGEST.
            if let Some(writer) = ctx.writer.lock().expect("writer mutex poisoned").as_mut() {
                writer.flush();
            }
            if let Err(e) = ctx.reader.sync() {
                push_err_frame(out, &format!("wal sync failed: {e}"));
                return false;
            }
            match persist::export_manifest(dir).and_then(|files| {
                cluster_wire::encode_file_list(&files)
                    .map_err(streamfreq_core::PersistError::Sketch)
            }) {
                Ok(body) => push_frame(out, 0, |p| p.extend_from_slice(&body)),
                Err(e) => push_err_frame(out, &format!("manifest export failed: {e}")),
            }
        }
        node_opcode::FETCH => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let Some(dir) = &ctx.data_dir else {
                push_err_frame(out, "server is not durable (start with --data-dir)");
                return false;
            };
            let (offset, rel) = match cluster_wire::decode_fetch_request(payload) {
                Ok(req) => req,
                Err(e) => {
                    push_err_frame(out, &format!("bad FETCH payload: {e}"));
                    return false;
                }
            };
            match persist::read_file_range(dir, &rel, offset) {
                Ok(bytes) => push_frame(out, 0, |p| p.extend_from_slice(&bytes)),
                Err(e) => push_err_frame(out, &format!("fetch failed: {e}")),
            }
        }
        node_opcode::INGEST => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let batch = match cluster_wire::decode_ingest_batch(payload) {
                Ok(batch) => batch,
                Err(e) => {
                    push_err_frame(out, &format!("bad INGEST payload: {e}"));
                    return false;
                }
            };
            let mut guard = ctx.writer.lock().expect("writer mutex poisoned");
            let Some(writer) = guard.as_mut() else {
                push_err_frame(
                    out,
                    "wire ingest disabled (server was started with --input)",
                );
                return false;
            };
            for &(item, weight) in &batch {
                writer.write(item, weight);
            }
            writer.flush();
            push_frame(out, 0, |p| {
                p.extend_from_slice(&(batch.len() as u64).to_le_bytes());
            });
        }
        _ => {
            let request = Query::decode(op, payload);
            let quit = request == Ok(Query::Quit);
            respond(request, ctx, "binary").write_binary(out);
            return quit;
        }
    }
    false
}

/// Answers one request of either protocol: EST, TOPK and HH from the
/// latest snapshot's engine, STATS and CKPT from this server. `wire`
/// names the protocol in the STATS body.
fn respond(request: Result<Query, String>, ctx: &ServeCtx, wire: &str) -> Reply {
    let query = match request {
        Ok(Query::Quit) => return Reply::Bye,
        Ok(query) => query,
        Err(reason) => return Reply::Err(reason),
    };
    ctx.queries.fetch_add(1, Ordering::Relaxed);
    match query {
        Query::Stats => Reply::Stats(stats_body(ctx, wire)),
        Query::Ckpt if ctx.fsync_label.is_none() => {
            Reply::Err("server is not durable (start with --data-dir)".into())
        }
        Query::Ckpt => match ctx.reader.request_checkpoint(Duration::from_secs(30)) {
            Some(epoch) => Reply::Checkpoint(epoch),
            None => Reply::Err("checkpoint unavailable (draining?)".into()),
        },
        query => protocol::answer(ctx.reader.snapshot().engine(), &query),
    }
}

/// The `STATS` key=value body shared by both protocols.
fn stats_body(ctx: &ServeCtx, wire: &str) -> String {
    let snap = ctx.reader.snapshot();
    let mut body = format!(
        "epoch={} n={} counters={} max_error={} enqueued={} \
         ingest_done={} shards={} protocol={wire}",
        snap.epoch(),
        snap.stream_weight(),
        snap.num_counters(),
        snap.maximum_error(),
        ctx.reader.enqueued_weight(),
        u8::from(ctx.reader.is_sealed()),
        ctx.num_shards
    );
    if let Some(fsync) = &ctx.fsync_label {
        body.push_str(&format!(
            " wal_bytes={} last_checkpoint_epoch={} fsync_policy={fsync}",
            ctx.reader.wal_bytes(),
            ctx.reader.last_checkpoint_epoch()
        ));
        if let Some(wal) = ctx.reader.wal_stats() {
            body.push_str(&format!(
                " wal_flush_count={} wal_group_commit_batches={} avg_frames_per_fsync={:.1}",
                wal.flush_count,
                wal.group_commit_batches,
                wal.avg_frames_per_fsync()
            ));
        }
    }
    body
}

/// The default `query-remote` connect/read/write timeout.
pub const DEFAULT_REMOTE_TIMEOUT_MS: u64 = 10_000;

/// Sends one protocol request to a local `streamfreq serve` instance
/// and returns the full response (header plus any rows). With `binary`
/// set it speaks the `SFBP` framed protocol and renders the reply in
/// the text shape, so both modes print interchangeably.
///
/// `timeout_ms` bounds connecting *and* every read/write (0 = wait
/// forever, the historical behavior); `retries` re-attempts failed
/// connections with doubling backoff. A server that accepts the
/// connection but never replies now yields a timeout error instead of
/// hanging the client for good.
///
/// # Errors
/// Returns [`CliError::Usage`] for a request the protocol refuses, and
/// [`CliError::Net`] if the connection or the exchange fails or times
/// out.
pub fn run_query_remote(
    port: u16,
    request: &[String],
    binary: bool,
    timeout_ms: u64,
    retries: u32,
) -> Result<String, CliError> {
    let query = Query::parse_line(&request.join(" ")).map_err(CliError::Usage)?;
    let addr = format!("127.0.0.1:{port}");
    let net = |e: std::io::Error| CliError::Net(addr.clone(), e);
    let socket_addr: SocketAddr = addr.parse().map_err(|_| {
        CliError::Net(
            addr.clone(),
            std::io::Error::new(ErrorKind::InvalidInput, "bad address"),
        )
    })?;
    let mut conn = if timeout_ms > 0 {
        connect_with_retry(&socket_addr, Duration::from_millis(timeout_ms), retries).map_err(net)?
    } else {
        TcpStream::connect(&addr).map_err(net)?
    };
    if binary {
        let mut wire = BINARY_MAGIC.to_vec();
        query.write_binary(&mut wire);
        conn.write_all(&wire).map_err(net)?;
        let (status, payload) = read_frame_capped(&mut conn).map_err(net)?;
        let reply = Reply::decode(&query, status, &payload)
            .map_err(|e| net(std::io::Error::new(ErrorKind::InvalidData, e)))?;
        return Ok(reply.to_string());
    }
    conn.write_all(format!("{query}\n").as_bytes())
        .map_err(net)?;
    let mut reader = BufReader::new(conn.try_clone().map_err(net)?);
    let mut first = String::new();
    reader.read_line(&mut first).map_err(net)?;
    let mut out = first.clone();
    // Multi-row responses announce their row count in the header.
    if matches!(query, Query::TopK(_) | Query::Hh(..)) {
        if let Some(rows) = first
            .strip_prefix("OK ")
            .and_then(|rest| rest.trim().parse::<usize>().ok())
        {
            for _ in 0..rows {
                let mut row = String::new();
                reader.read_line(&mut row).map_err(net)?;
                out.push_str(&row);
            }
        }
    }
    Ok(out)
}
