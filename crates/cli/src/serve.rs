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
//! A text-protocol line longer than 4 KiB gets an `ERR` reply and
//! closes its connection.
//!
//! ### Text protocol
//!
//! Newline-delimited, one request per line, case-insensitive command
//! word:
//!
//! | request | response |
//! |---|---|
//! | `EST <item>` | `OK <estimate> <lower> <upper>` |
//! | `TOPK <n>` | `OK <m>` then `m` lines `<item> <estimate> <lower> <upper>` |
//! | `HH <phi> [nfp\|nfn]` | `OK <m>` then `m` rows (contract default `nfn`) |
//! | `STATS` | `OK epoch=<e> n=<N> counters=<c> max_error=<err> enqueued=<w> ingest_done=<0\|1> shards=<s> protocol=text` |
//! | `CKPT` | `OK epoch=<e>` after a coordinated checkpoint round (durable servers) |
//! | `QUIT` | `OK bye`, then the whole server shuts down gracefully |
//! | anything else | `ERR <reason>` |
//!
//! ### Binary protocol
//!
//! After the `SFBP` magic, both directions carry length-prefixed
//! frames: `[len u32le | tag u8 | payload]`, where `len` counts the tag
//! byte plus the payload. Request tags are opcodes; response tags are a
//! status byte (`0` = OK, `1` = ERR with a UTF-8 message payload).
//! Requests may be pipelined back to back without waiting for replies;
//! responses come back in request order.
//!
//! | opcode | request payload | OK payload |
//! |---|---|---|
//! | `0x01` EST | item `u64le` | estimate, lower, upper (`3 × u64le`) |
//! | `0x02` TOPK | n `u32le` | count `u32le`, then count × (item, est, lower, upper `u64le`) |
//! | `0x03` HH | phi `f64le`, contract `u8` (0 = nfn, 1 = nfp) | as TOPK |
//! | `0x04` STATS | empty | the STATS key=value text (with `protocol=binary`) |
//! | `0x05` CKPT | empty | epoch `u64le` |
//! | `0x06` QUIT | empty | `bye` |
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
use streamfreq_core::{
    ConcurrentSketch, ConcurrentWriter, ErrorType, PurgePolicy, Row, SnapshotReader,
};
use streamfreq_workloads::load_binary;

use crate::cluster::connect_with_retry;
use crate::CliError;

/// Upper bound on one idle `poll(2)` wait, in milliseconds. Every
/// event that can end a wait (a connection, a request, a drained socket
/// buffer) wakes the poll itself; the bound only guards against a wake
/// the interest set does not cover.
const IDLE_WAIT_MS: c_int = 100;

/// Longest text-protocol request line, in bytes. Real requests are a
/// few dozen bytes; a longer line gets `ERR` and a close, so a client
/// that never sends a newline cannot grow the read buffer without bound.
const MAX_TEXT_LINE: usize = 4 << 10;

/// Upper bound on `TOPK n` so a typo cannot ask for a gigabyte of rows.
const MAX_TOPK: usize = 100_000;

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

/// Binary request opcodes (also the `query-remote --binary` encoding).
/// `0x07..=0x0A` are the cluster extension: snapshot export for the
/// merging query tier, file shipping for replicas, and wire ingest for
/// the routing client.
pub(crate) mod opcode {
    pub const EST: u8 = 0x01;
    pub const TOPK: u8 = 0x02;
    pub const HH: u8 = 0x03;
    pub const STATS: u8 = 0x04;
    pub const CKPT: u8 = 0x05;
    pub const QUIT: u8 = 0x06;
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
        let mut consumed = 0usize;
        // Only bytes that arrived since the last turn are searched.
        let mut scan_from = self.scanned;
        while let Some(nl) = self.rbuf[scan_from..].iter().position(|&b| b == b'\n') {
            let end = scan_from + nl;
            if end - consumed > MAX_TEXT_LINE {
                self.reject_long_line();
                return;
            }
            let line = String::from_utf8_lossy(&self.rbuf[consumed..end]).into_owned();
            consumed = end + 1;
            scan_from = consumed;
            let (reply, quit) = handle_request(line.trim(), ctx);
            self.wbuf.extend_from_slice(reply.as_bytes());
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
        // At EOF a trailing unterminated line still counts as a request
        // (parity with a client that forgot the final newline).
        if self.eof && !self.close_after_flush && consumed < self.rbuf.len() {
            let line = String::from_utf8_lossy(&self.rbuf[consumed..]).into_owned();
            consumed = self.rbuf.len();
            if !line.trim().is_empty() {
                let (reply, quit) = handle_request(line.trim(), ctx);
                self.wbuf.extend_from_slice(reply.as_bytes());
                if quit {
                    ctx.stop.store(true, Ordering::SeqCst);
                    self.close_after_flush = true;
                }
            }
        }
        self.rbuf.drain(..consumed);
        self.scanned = self.rbuf.len();
    }

    /// Answers a text line over [`MAX_TEXT_LINE`] with `ERR` and closes
    /// the connection once the reply is flushed.
    fn reject_long_line(&mut self) {
        self.wbuf.extend_from_slice(
            format!("ERR request line longer than {MAX_TEXT_LINE} bytes\n").as_bytes(),
        );
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

/// Appends a response frame: `[len u32le | status | payload]`, where
/// `build` writes the payload directly into the output buffer.
fn push_frame(out: &mut Vec<u8>, status: u8, build: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(status);
    build(out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends an ERR frame carrying a UTF-8 message.
fn push_err_frame(out: &mut Vec<u8>, message: &str) {
    push_frame(out, 1, |p| p.extend_from_slice(message.as_bytes()));
}

/// Appends one 32-byte result row to a binary payload.
fn push_row(payload: &mut Vec<u8>, row: &Row<u64>) {
    payload.extend_from_slice(&row.item.to_le_bytes());
    payload.extend_from_slice(&row.estimate.to_le_bytes());
    payload.extend_from_slice(&row.lower_bound.to_le_bytes());
    payload.extend_from_slice(&row.upper_bound.to_le_bytes());
}

/// Answers one binary request frame, appending the response frame to
/// `out`. Returns true when the server should shut down (QUIT).
fn handle_binary_request(op: u8, payload: &[u8], ctx: &ServeCtx, out: &mut Vec<u8>) -> bool {
    match op {
        opcode::EST => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let Ok(item) = <[u8; 8]>::try_from(payload) else {
                push_err_frame(out, "EST payload must be 8 bytes");
                return false;
            };
            let item = u64::from_le_bytes(item);
            let snap = ctx.reader.snapshot();
            push_frame(out, 0, |p| {
                p.extend_from_slice(&snap.estimate(&item).to_le_bytes());
                p.extend_from_slice(&snap.lower_bound(&item).to_le_bytes());
                p.extend_from_slice(&snap.upper_bound(&item).to_le_bytes());
            });
        }
        opcode::TOPK => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let Ok(n) = <[u8; 4]>::try_from(payload) else {
                push_err_frame(out, "TOPK payload must be 4 bytes");
                return false;
            };
            let n = u32::from_le_bytes(n) as usize;
            if n == 0 || n > MAX_TOPK {
                push_err_frame(out, &format!("row count {n} outside 1..={MAX_TOPK}"));
                return false;
            }
            let rows = ctx.reader.snapshot().top_k(n);
            push_frame(out, 0, |p| {
                p.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in &rows {
                    push_row(p, row);
                }
            });
        }
        opcode::HH => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let Ok(raw) = <[u8; 9]>::try_from(payload) else {
                push_err_frame(out, "HH payload must be 9 bytes");
                return false;
            };
            let phi = f64::from_le_bytes(raw[..8].try_into().unwrap());
            let contract = match raw[8] {
                0 => ErrorType::NoFalseNegatives,
                1 => ErrorType::NoFalsePositives,
                other => {
                    push_err_frame(out, &format!("bad HH contract byte {other}"));
                    return false;
                }
            };
            if !(0.0..=1.0).contains(&phi) {
                push_err_frame(out, &format!("phi {phi} outside [0, 1]"));
                return false;
            }
            let rows = ctx.reader.snapshot().heavy_hitters(phi, contract);
            push_frame(out, 0, |p| {
                p.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in &rows {
                    push_row(p, row);
                }
            });
        }
        opcode::STATS => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let body = stats_body(ctx, "binary");
            push_frame(out, 0, |p| p.extend_from_slice(body.as_bytes()));
        }
        opcode::CKPT => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            if ctx.fsync_label.is_none() {
                push_err_frame(out, "server is not durable (start with --data-dir)");
                return false;
            }
            match ctx.reader.request_checkpoint(Duration::from_secs(30)) {
                Some(epoch) => push_frame(out, 0, |p| p.extend_from_slice(&epoch.to_le_bytes())),
                None => push_err_frame(out, "checkpoint unavailable (draining?)"),
            }
        }
        opcode::SNAP => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            if !payload.is_empty() {
                push_err_frame(out, "SNAP takes no payload");
                return false;
            }
            let snap = ctx.reader.snapshot();
            let body = cluster_wire::encode_snapshot(snap.epoch(), snap.is_sealed(), snap.engine());
            push_frame(out, 0, |p| p.extend_from_slice(&body));
        }
        opcode::REPL => {
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
        opcode::FETCH => {
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
        opcode::INGEST => {
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
        opcode::QUIT => {
            push_frame(out, 0, |p| p.extend_from_slice(b"bye"));
            return true;
        }
        other => push_err_frame(out, &format!("unknown opcode 0x{other:02x}")),
    }
    false
}

/// The `STATS` key=value body shared by both protocols.
fn stats_body(ctx: &ServeCtx, protocol: &str) -> String {
    let snap = ctx.reader.snapshot();
    let mut body = format!(
        "epoch={} n={} counters={} max_error={} enqueued={} \
         ingest_done={} shards={} protocol={protocol}",
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

/// Formats one result row of the text protocol.
fn protocol_row(row: &Row<u64>) -> String {
    format!(
        "{} {} {} {}\n",
        row.item, row.estimate, row.lower_bound, row.upper_bound
    )
}

/// Answers one text request line. Returns the reply text and whether
/// the server should shut down.
fn handle_request(request: &str, ctx: &ServeCtx) -> (String, bool) {
    let tokens: Vec<&str> = request.split_whitespace().collect();
    let Some(command) = tokens.first() else {
        return ("ERR empty request\n".into(), false);
    };
    match command.to_ascii_uppercase().as_str() {
        "EST" => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let [_, item] = tokens[..] else {
                return ("ERR usage: EST <item>\n".into(), false);
            };
            let Ok(item) = item.parse::<u64>() else {
                return (format!("ERR bad item `{item}`\n"), false);
            };
            let snap = ctx.reader.snapshot();
            (
                format!(
                    "OK {} {} {}\n",
                    snap.estimate(&item),
                    snap.lower_bound(&item),
                    snap.upper_bound(&item)
                ),
                false,
            )
        }
        "TOPK" => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let [_, n] = tokens[..] else {
                return ("ERR usage: TOPK <n>\n".into(), false);
            };
            let Ok(n) = n.parse::<usize>() else {
                return (format!("ERR bad row count `{n}`\n"), false);
            };
            if n == 0 || n > MAX_TOPK {
                return (format!("ERR row count {n} outside 1..={MAX_TOPK}\n"), false);
            }
            let rows = ctx.reader.snapshot().top_k(n);
            let mut reply = format!("OK {}\n", rows.len());
            for row in &rows {
                reply.push_str(&protocol_row(row));
            }
            (reply, false)
        }
        "HH" => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            let (phi, contract) = match tokens[..] {
                [_, phi] => (phi, ErrorType::NoFalseNegatives),
                [_, phi, "nfp"] => (phi, ErrorType::NoFalsePositives),
                [_, phi, "nfn"] => (phi, ErrorType::NoFalseNegatives),
                _ => return ("ERR usage: HH <phi> [nfp|nfn]\n".into(), false),
            };
            let Ok(phi) = phi.parse::<f64>() else {
                return (format!("ERR bad phi `{phi}`\n"), false);
            };
            if !(0.0..=1.0).contains(&phi) {
                return (format!("ERR phi {phi} outside [0, 1]\n"), false);
            }
            let rows = ctx.reader.snapshot().heavy_hitters(phi, contract);
            let mut reply = format!("OK {}\n", rows.len());
            for row in &rows {
                reply.push_str(&protocol_row(row));
            }
            (reply, false)
        }
        "STATS" => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            (format!("OK {}\n", stats_body(ctx, "text")), false)
        }
        "CKPT" => {
            ctx.queries.fetch_add(1, Ordering::Relaxed);
            if ctx.fsync_label.is_none() {
                return (
                    "ERR server is not durable (start with --data-dir)\n".into(),
                    false,
                );
            }
            match ctx.reader.request_checkpoint(Duration::from_secs(30)) {
                Some(epoch) => (format!("OK epoch={epoch}\n"), false),
                None => ("ERR checkpoint unavailable (draining?)\n".into(), false),
            }
        }
        "QUIT" => ("OK bye\n".into(), true),
        other => (format!("ERR unknown command `{other}`\n"), false),
    }
}

/// Encodes one request (the `query-remote` token form) as a binary
/// frame appended to `out`.
///
/// # Errors
/// Returns a usage error for malformed tokens.
pub fn encode_binary_request(tokens: &[String], out: &mut Vec<u8>) -> Result<(), CliError> {
    let usage = |msg: &str| CliError::Usage(msg.into());
    let Some(command) = tokens.first() else {
        return Err(usage("empty request"));
    };
    let mut frame: Vec<u8> = Vec::with_capacity(16);
    match command.to_ascii_uppercase().as_str() {
        "EST" => {
            let [_, item] = tokens else {
                return Err(usage("usage: EST <item>"));
            };
            let item: u64 = item.parse().map_err(|_| usage("bad EST item"))?;
            frame.push(opcode::EST);
            frame.extend_from_slice(&item.to_le_bytes());
        }
        "TOPK" => {
            let [_, n] = tokens else {
                return Err(usage("usage: TOPK <n>"));
            };
            let n: u32 = n.parse().map_err(|_| usage("bad TOPK row count"))?;
            frame.push(opcode::TOPK);
            frame.extend_from_slice(&n.to_le_bytes());
        }
        "HH" => {
            let (phi, contract) = match tokens {
                [_, phi] => (phi, 0u8),
                [_, phi, c] if c == "nfp" => (phi, 1),
                [_, phi, c] if c == "nfn" => (phi, 0),
                _ => return Err(usage("usage: HH <phi> [nfp|nfn]")),
            };
            let phi: f64 = phi.parse().map_err(|_| usage("bad HH phi"))?;
            frame.push(opcode::HH);
            frame.extend_from_slice(&phi.to_le_bytes());
            frame.push(contract);
        }
        "STATS" => frame.push(opcode::STATS),
        "CKPT" => frame.push(opcode::CKPT),
        "QUIT" => frame.push(opcode::QUIT),
        other => return Err(usage(&format!("unknown command `{other}`"))),
    }
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame);
    Ok(())
}

/// Reads one response frame `[len u32le | status | payload]`.
fn read_response_frame(reader: &mut impl Read) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "empty response frame",
        ));
    }
    let mut frame = vec![0u8; len];
    reader.read_exact(&mut frame)?;
    let payload = frame.split_off(1);
    Ok((frame[0], payload))
}

/// Renders a binary response in the text protocol's shape, so the two
/// client modes print interchangeably.
fn format_binary_response(command: &str, status: u8, payload: &[u8]) -> String {
    if status != 0 {
        return format!("ERR {}\n", String::from_utf8_lossy(payload));
    }
    let rows_text = |payload: &[u8]| -> Option<String> {
        let count = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
        let mut text = format!("OK {count}\n");
        let mut rest = payload.get(4..)?;
        for _ in 0..count {
            let row: [u8; 32] = rest.get(..32)?.try_into().ok()?;
            rest = &rest[32..];
            let field = |i: usize| u64::from_le_bytes(row[i * 8..(i + 1) * 8].try_into().unwrap());
            text.push_str(&format!(
                "{} {} {} {}\n",
                field(0),
                field(1),
                field(2),
                field(3)
            ));
        }
        Some(text)
    };
    let rendered = match command {
        "EST" => <[u8; 24]>::try_from(payload).ok().map(|raw| {
            let field = |i: usize| u64::from_le_bytes(raw[i * 8..(i + 1) * 8].try_into().unwrap());
            format!("OK {} {} {}\n", field(0), field(1), field(2))
        }),
        "TOPK" | "HH" => rows_text(payload),
        "STATS" => Some(format!("OK {}\n", String::from_utf8_lossy(payload))),
        "CKPT" => <[u8; 8]>::try_from(payload)
            .ok()
            .map(|raw| format!("OK epoch={}\n", u64::from_le_bytes(raw))),
        "QUIT" => Some(format!("OK {}\n", String::from_utf8_lossy(payload))),
        _ => None,
    };
    rendered.unwrap_or_else(|| "ERR malformed response payload\n".into())
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
/// Returns [`CliError::Net`] if the connection or the exchange fails
/// or times out.
pub fn run_query_remote(
    port: u16,
    request: &[String],
    binary: bool,
    timeout_ms: u64,
    retries: u32,
) -> Result<String, CliError> {
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
        encode_binary_request(request, &mut wire)?;
        conn.write_all(&wire).map_err(net)?;
        let (status, payload) = read_response_frame(&mut conn).map_err(net)?;
        let command = request
            .first()
            .map(|c| c.to_ascii_uppercase())
            .unwrap_or_default();
        return Ok(format_binary_response(&command, status, &payload));
    }
    let line = request.join(" ");
    conn.write_all(format!("{line}\n").as_bytes())
        .map_err(net)?;
    let mut reader = BufReader::new(conn.try_clone().map_err(net)?);
    let mut first = String::new();
    reader.read_line(&mut first).map_err(net)?;
    let mut out = first.clone();
    // Multi-row responses announce their row count in the header.
    let is_multi_row = matches!(
        request.first().map(|c| c.to_ascii_uppercase()).as_deref(),
        Some("TOPK" | "HH")
    );
    if is_multi_row {
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
