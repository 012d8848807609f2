//! A small client for the serve layer's `SFBP` binary protocol, and
//! in-process server nodes started through `run_serve`.
//!
//! Every socket operation carries [`TIMEOUT`], so a stuck server turns
//! into a counted failure instead of a hung benchmark.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use streamfreq_cli::serve::{run_serve, ServeOptions, BINARY_MAGIC};
use streamfreq_cli::CliError;

use crate::BoxResult;

/// Connect, read and write timeout of every client operation.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// Largest reply frame the client accepts (a `SNAP` of a k = 65536
/// bank is a few MB).
const MAX_REPLY: usize = 64 << 20;

/// Request opcodes of the binary protocol (see the `serve` module docs).
pub mod op {
    pub const EST: u8 = 0x01;
    pub const TOPK: u8 = 0x02;
    pub const STATS: u8 = 0x04;
    pub const QUIT: u8 = 0x06;
    pub const SNAP: u8 = 0x07;
    pub const INGEST: u8 = 0x0A;
}

/// One request frame: `[len u32le | opcode | payload]`.
pub fn frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len() + 1).expect("request frame fits u32");
    let mut out = Vec::with_capacity(payload.len() + 5);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(opcode);
    out.extend_from_slice(payload);
    out
}

/// Splits one complete reply frame off the front of `buf`: returns
/// `(status, payload, bytes consumed)`, or `None` if incomplete.
pub fn split_reply(buf: &[u8]) -> std::io::Result<Option<(u8, &[u8], usize)>> {
    let Some(header) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
    if len == 0 || len > MAX_REPLY {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("reply frame length {len}"),
        ));
    }
    Ok(buf
        .get(4..4 + len)
        .map(|body| (body[0], &body[1..], 4 + len)))
}

/// `EST` reply payload: `(estimate, lower, upper)`.
pub fn parse_est(payload: &[u8]) -> Option<(u64, u64, u64)> {
    let raw: [u8; 24] = payload.try_into().ok()?;
    let field = |i: usize| u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    Some((field(0), field(1), field(2)))
}

/// `TOPK` reply payload: rows of `[item, estimate, lower, upper]`.
pub fn parse_rows(payload: &[u8]) -> Option<Vec<[u64; 4]>> {
    let count = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let body = payload.get(4..)?;
    if body.len() != count * 32 {
        return None;
    }
    Some(
        body.chunks_exact(32)
            .map(|row| {
                std::array::from_fn(|i| {
                    u64::from_le_bytes(row[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
                })
            })
            .collect(),
    )
}

/// A `STATS` reply: `key=value` pairs.
#[derive(Clone, Debug, Default)]
pub struct Stats(BTreeMap<String, String>);

impl Stats {
    pub fn parse(text: &str) -> Stats {
        Stats(
            text.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str) -> BoxResult<T> {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("STATS lacks a valid `{key}`").into())
    }
}

/// A blocking `SFBP` connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let sock: SocketAddr = addr
            .parse()
            .map_err(|_| std::io::Error::new(ErrorKind::InvalidInput, "bad address"))?;
        let mut stream = TcpStream::connect_timeout(&sock, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        stream.write_all(BINARY_MAGIC)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one prepared frame (see [`frame`]).
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Reads one reply; an `ERR` status becomes an error.
    pub fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            if let Some((status, payload, used)) = split_reply(&self.buf)? {
                let payload = payload.to_vec();
                self.buf.drain(..used);
                if status != 0 {
                    return Err(std::io::Error::other(format!(
                        "ERR {}",
                        String::from_utf8_lossy(&payload)
                    )));
                }
                return Ok(payload);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn request(&mut self, opcode: u8, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        self.send(&frame(opcode, payload))?;
        self.recv()
    }

    pub fn stats(&mut self) -> BoxResult<Stats> {
        let body = self.request(op::STATS, &[])?;
        Ok(Stats::parse(&String::from_utf8_lossy(&body)))
    }

    pub fn est(&mut self, item: u64) -> BoxResult<(u64, u64, u64)> {
        let reply = self.request(op::EST, &item.to_le_bytes())?;
        parse_est(&reply).ok_or_else(|| "malformed EST reply".into())
    }
}

/// A `run_serve` instance on its own thread.
pub struct Node {
    pub addr: String,
    handle: JoinHandle<Result<String, CliError>>,
}

impl Node {
    /// Starts `run_serve` with `opts` (its `port_file` must be set) and
    /// waits until the node answers `STATS`. Returns the node and the
    /// seconds from the start to that first reply.
    pub fn start(opts: ServeOptions) -> BoxResult<(Node, f64)> {
        let port_file: PathBuf = opts.port_file.clone().ok_or("node needs a port file")?;
        let _ = std::fs::remove_file(&port_file);
        let started = Instant::now();
        let handle = std::thread::spawn(move || run_serve(&opts));
        let deadline = started + TIMEOUT * 6;
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.contains(':') {
                    break text.trim().to_string();
                }
            }
            if handle.is_finished() || Instant::now() > deadline {
                let outcome = handle.join().map_err(|_| "node panicked")?;
                return Err(format!("node exited before binding: {outcome:?}").into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let mut client = Client::connect(&addr)?;
        client.stats()?;
        let secs = started.elapsed().as_secs_f64();
        Ok((Node { addr, handle }, secs))
    }

    /// Sends `QUIT` and waits for the node's thread to finish.
    pub fn quit(self) -> BoxResult<()> {
        let sent = Client::connect(&self.addr).and_then(|mut c| c.request(op::QUIT, &[]));
        let outcome = self.handle.join().map_err(|_| "node panicked")?;
        sent?;
        outcome?;
        Ok(())
    }
}

/// Serve options shared by every node the benchmark starts: wire ingest
/// (no input file), SMED purging and the program's fixed sampler seed.
pub fn node_options(
    port_file: PathBuf,
    k: usize,
    shards: usize,
    snapshot_ms: u64,
    data_dir: Option<PathBuf>,
) -> ServeOptions {
    ServeOptions {
        port: 0,
        port_file: Some(port_file),
        k,
        policy: streamfreq_core::PurgePolicy::smed(),
        seed: crate::PROGRAM_SEED,
        threads: 1,
        shards,
        passes: 1,
        snapshot_ms,
        input: None,
        data_dir,
        fsync: streamfreq_core::FsyncPolicy::default(),
        checkpoint_ms: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_frames_split_and_parse() {
        let mut wire = Vec::new();
        let mut est = vec![0u8];
        for v in [5u64, 3, 9] {
            est.extend_from_slice(&v.to_le_bytes());
        }
        wire.extend_from_slice(&(est.len() as u32).to_le_bytes());
        wire.extend_from_slice(&est);
        wire.extend_from_slice(&[9, 0, 0]);
        let (status, payload, used) = split_reply(&wire).unwrap().unwrap();
        assert_eq!((status, used), (0, 29));
        assert_eq!(parse_est(payload), Some((5, 3, 9)));
        assert!(split_reply(&wire[used..]).unwrap().is_none());
        assert!(split_reply(&[0, 0, 0, 0]).is_err());
        let stats = Stats::parse("epoch=4 n=77 protocol=binary");
        assert_eq!(stats.get::<u64>("n").unwrap(), 77);
        assert!(stats.get::<u64>("wal_bytes").is_err());
    }
}
