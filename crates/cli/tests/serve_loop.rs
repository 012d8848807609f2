//! Event-loop tests against a real `streamfreq serve` process: replies
//! leave as soon as requests arrive, an idle or stalled server burns no
//! CPU, and a hostile text client is cut off without disturbing others.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use streamfreq_core::cluster::wire::encode_ingest_batch;

const DEADLINE: Duration = Duration::from_secs(60);
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Binary opcodes and the server's output high-water mark, as in
/// `serve.rs`.
const OP_EST: u8 = 0x01;
const OP_TOPK: u8 = 0x02;
const OP_INGEST: u8 = 0x0A;
const WRITE_HIGH_WATER: usize = 8 << 20;

/// A wire-ingest `serve` child, killed on drop so a failing test never
/// leaks processes.
struct Server {
    child: Child,
    addr: String,
    port_file: PathBuf,
}

impl Server {
    /// Spawns `streamfreq serve` in node mode (no `--input`) on an
    /// ephemeral port and waits for its port-file handshake.
    fn spawn(name: &str, extra: &[&str]) -> Server {
        let port_file =
            std::env::temp_dir().join(format!("sf-serve-loop-{}-{name}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_streamfreq"))
            .args(["serve", "--port", "0", "--shards", "4", "--threads", "1"])
            .args(extra)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let deadline = Instant::now() + DEADLINE;
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.contains(':') {
                    break text.trim().to_string();
                }
            }
            assert!(Instant::now() < deadline, "server never wrote its port");
            std::thread::sleep(Duration::from_millis(5));
        };
        Server {
            child,
            addr,
            port_file,
        }
    }

    fn connect(&self) -> TcpStream {
        let conn = TcpStream::connect(&self.addr).expect("connect");
        conn.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        conn.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
        conn.set_nodelay(true).unwrap();
        conn
    }

    /// A connection that has already sent the binary-protocol magic.
    fn connect_binary(&self) -> TcpStream {
        let mut conn = self.connect();
        conn.write_all(b"SFBP").unwrap();
        conn
    }

    /// Sends `QUIT` and waits for the process to exit cleanly.
    fn quit(mut self) {
        let reply = text_request(&mut self.connect(), "QUIT");
        assert!(reply.starts_with("OK bye"), "{reply}");
        let deadline = Instant::now() + DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                assert!(status.success(), "serve exited with {status}");
                return;
            }
            assert!(Instant::now() < deadline, "serve did not exit after QUIT");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}

/// One text request; returns the first reply line.
fn text_request(conn: &mut TcpStream, request: &str) -> String {
    conn.write_all(format!("{request}\n").as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    line
}

/// Appends one binary request frame `[len u32le | opcode | payload]`.
fn push_request(out: &mut Vec<u8>, op: u8, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32 + 1).to_le_bytes());
    out.push(op);
    out.extend_from_slice(payload);
}

/// Reads one binary response frame; returns `(status, payload)`.
fn read_frame(conn: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 4];
    conn.read_exact(&mut header).unwrap();
    let mut frame = vec![0u8; u32::from_le_bytes(header) as usize];
    conn.read_exact(&mut frame).unwrap();
    let payload = frame.split_off(1);
    (frame[0], payload)
}

/// The child's user + system CPU time in clock ticks (`USER_HZ`, 100
/// per second on Linux), from `/proc/<pid>/stat`.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn serve_binary_est_round_trip_p50_is_under_half_a_millisecond() {
    let server = Server::spawn("latency", &["-k", "1024"]);
    let mut conn = server.connect_binary();
    let mut samples = Vec::with_capacity(200);
    for i in 0..220u64 {
        let mut request = Vec::with_capacity(13);
        push_request(&mut request, OP_EST, &i.to_le_bytes());
        let start = Instant::now();
        conn.write_all(&request).unwrap();
        let (status, payload) = read_frame(&mut conn);
        let elapsed = start.elapsed();
        assert_eq!((status, payload.len()), (0, 24), "EST reply");
        // The first round trips warm up the connection.
        if i >= 20 {
            samples.push(elapsed);
        }
    }
    samples.sort();
    let p50 = samples[samples.len() / 2];
    assert!(
        p50 < Duration::from_micros(500),
        "EST round-trip p50 {p50:?} is not under half the old 1 ms idle sleep"
    );
    server.quit();
}

#[cfg(target_os = "linux")]
#[test]
fn serve_idle_and_stalled_connections_burn_no_cpu() {
    const ITEMS: u64 = 2048;
    let server = Server::spawn("nospin", &["-k", "8192", "--snapshot-ms", "200"]);
    let pid = server.child.id();

    // Give the sketch 2048 counters, so each `TOPK 2048` reply is 64 KiB.
    let batch: Vec<(u64, u64)> = (0..ITEMS).map(|item| (item, 1)).collect();
    let mut ingest = server.connect_binary();
    let mut frame = Vec::new();
    push_request(&mut frame, OP_INGEST, &encode_ingest_batch(&batch));
    ingest.write_all(&frame).unwrap();
    assert_eq!(read_frame(&mut ingest).0, 0, "INGEST ack");
    let deadline = Instant::now() + DEADLINE;
    while !text_request(&mut server.connect(), "STATS").contains(&format!("counters={ITEMS} ")) {
        assert!(Instant::now() < deadline, "snapshot never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(ingest);

    // Four times the high-water mark in replies: far more than the
    // socket buffers hold, so the server keeps most of it queued.
    let reply_bytes = 9 + ITEMS as usize * 32;
    let mut topk = Vec::new();
    for _ in 0..(4 * WRITE_HIGH_WATER).div_ceil(reply_bytes) {
        push_request(&mut topk, OP_TOPK, &(ITEMS as u32).to_le_bytes());
    }

    // 1: idle, sends nothing.
    let _idle = server.connect();
    // 2: pipelines past the high-water mark and never reads; the extra
    // requests behind the stall stay unread in the server's socket.
    let mut stalled = server.connect_binary();
    stalled.write_all(&topk).unwrap();
    // 3: half-closed with replies pending that it never reads.
    let mut half_closed = server.connect_binary();
    half_closed.write_all(&topk).unwrap();
    half_closed.shutdown(Shutdown::Write).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stalled.write_all(&topk[..64 * 9]).unwrap();

    // Let the server finish answering, then measure a quiet second.
    let deadline = Instant::now() + DEADLINE;
    let mut last = cpu_ticks(pid);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = cpu_ticks(pid);
        if now - last <= 1 {
            break;
        }
        last = now;
        assert!(Instant::now() < deadline, "server never went quiet");
    }
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let burned_ms = (cpu_ticks(pid) - before) * 10;
    assert!(
        burned_ms < 100,
        "serve burned {burned_ms} ms of CPU in 1 s with only idle and stalled clients"
    );

    // The stalled clients did not wedge the loop.
    assert!(text_request(&mut server.connect(), "STATS").starts_with("OK "));
    server.quit();
}

#[test]
fn serve_rejects_an_overlong_text_line_and_keeps_serving() {
    let server = Server::spawn("longline", &["-k", "1024"]);
    let mut bystander = server.connect();
    assert!(text_request(&mut bystander, "STATS").starts_with("OK "));

    // 1 MiB with no newline. The server may close before taking it all,
    // so a failed write is expected; the ERR reply must still arrive.
    let mut hostile = server.connect();
    let _ = hostile.write_all(&vec![b'a'; 1 << 20]);
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR "), "{line:?}");
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "bytes after ERR: {rest:?}"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset),
            "connection not closed: {e}"
        ),
    }

    // Existing and new clients are still served.
    assert!(text_request(&mut bystander, "STATS").starts_with("OK "));
    assert!(text_request(&mut server.connect(), "EST 1").starts_with("OK "));
    server.quit();
}

#[test]
fn serve_rejects_an_ingest_weight_beyond_i64_and_keeps_serving() {
    let server = Server::spawn("bigweight", &["-k", "1024", "--snapshot-ms", "50"]);
    let mut ingest = server.connect_binary();

    // A weight past the engine's i64 counter range: the node answers
    // ERR instead of handing it to (and panicking) a shard worker.
    let mut frame = Vec::new();
    push_request(
        &mut frame,
        OP_INGEST,
        &encode_ingest_batch(&[(7, u64::MAX)]),
    );
    ingest.write_all(&frame).unwrap();
    let (status, payload) = read_frame(&mut ingest);
    assert_ne!(status, 0, "oversized weight acknowledged");
    assert!(
        String::from_utf8_lossy(&payload).contains("exceeds i64::MAX"),
        "{}",
        String::from_utf8_lossy(&payload)
    );

    // The same item, at the largest legal weight, still lands.
    frame.clear();
    let max_weight = i64::MAX as u64;
    push_request(
        &mut frame,
        OP_INGEST,
        &encode_ingest_batch(&[(7, max_weight)]),
    );
    ingest.write_all(&frame).unwrap();
    assert_eq!(read_frame(&mut ingest).0, 0, "INGEST ack");
    let deadline = Instant::now() + DEADLINE;
    while !text_request(&mut server.connect(), "STATS").contains("counters=1 ") {
        assert!(Instant::now() < deadline, "valid update never published");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(text_request(&mut server.connect(), "EST 7").starts_with("OK "));
    server.quit();
}
