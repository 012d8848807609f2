//! The query codec: the only code that knows the query verbs `EST`,
//! `TOPK`, `HH`, `STATS`, `CKPT` and `QUIT`.
//!
//! `serve` (both wire formats), `query-remote` (both modes),
//! `cluster-query` and the `cluster-serve` front node all parse,
//! bound-check, answer and render queries here. A cluster answer and a
//! single-node answer are the same query on one merged engine
//! (Algorithm 5, Theorem 5), so both go through `answer` and come out
//! as the same bytes.
//!
//! ## Wire formats
//!
//! The **text protocol** is newline-delimited: one request per line,
//! case-insensitive command word, and a line longer than 4 KiB
//! (`MAX_TEXT_LINE`) is refused. The **binary protocol** (SFBP, after
//! the `SFBP` magic) carries length-prefixed frames in both directions,
//! `[len u32le | tag u8 | payload]`, where `len` counts the tag byte
//! plus the payload. Request tags are opcodes; response tags are a
//! status byte (`0` = OK, `1` = ERR with a UTF-8 message payload).
//! Integers are little-endian.
//!
//! | verb | text request | text OK reply | opcode | binary request payload | binary OK payload |
//! |---|---|---|---|---|---|
//! | EST | `EST <item>` | `OK <estimate> <lower> <upper>` | `0x01` | item `u64` | estimate, lower, upper (`3 × u64`) |
//! | TOPK | `TOPK <n>` | `OK <m>`, then `m` lines `<item> <estimate> <lower> <upper>` | `0x02` | n `u32` | m `u32`, then m × (item, estimate, lower, upper `u64`) |
//! | HH | `HH <phi> [nfp\|nfn]` | as TOPK | `0x03` | phi `f64`, contract `u8` (0 = nfn, 1 = nfp) | as TOPK |
//! | STATS | `STATS` | `OK <key=value …>` | `0x04` | empty | the key=value text |
//! | CKPT | `CKPT` | `OK epoch=<e>` | `0x05` | empty | epoch `u64` |
//! | QUIT | `QUIT` | `OK bye` | `0x06` | empty | `bye` |
//!
//! A rejected request gets `ERR <reason>` (text) or an ERR frame
//! (binary). Both parsers apply the same bounds: `1 ≤ n ≤ 100000`
//! (`MAX_TOPK`) for TOPK, `0 ≤ φ ≤ 1` for HH (NaN refused), a contract
//! of `nfp` or `nfn` (default `nfn`), and in binary exactly the payload
//! length the table gives.
//!
//! EST, TOPK and HH are answered from one engine by `answer`. The
//! STATS body and what CKPT and QUIT do belong to each server; node-only
//! opcodes (`SNAP`, `REPL`, `FETCH`, `INGEST`) live in
//! [`crate::serve`].

use std::fmt;

use streamfreq_core::{ErrorType, Row, SketchEngine};

/// Upper bound on `TOPK n`, so a typo cannot ask for a gigabyte of rows.
pub(crate) const MAX_TOPK: u32 = 100_000;

/// Longest text-protocol request line, in bytes. Real requests are a
/// few dozen bytes; a longer line gets `ERR` and a close, so a client
/// that never sends a newline cannot grow a server's buffer without
/// bound.
pub(crate) const MAX_TEXT_LINE: usize = 4 << 10;

/// Bytes of one binary result row: item, estimate, lower, upper.
const ROW_BYTES: usize = 32;

/// Binary opcodes of the query verbs.
pub(crate) mod opcode {
    pub const EST: u8 = 0x01;
    pub const TOPK: u8 = 0x02;
    pub const HH: u8 = 0x03;
    pub const STATS: u8 = 0x04;
    pub const CKPT: u8 = 0x05;
    pub const QUIT: u8 = 0x06;
}

/// One query. The text parser and the binary decoder return only
/// queries inside the protocol's bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// Estimate and certified bounds of one item.
    Est(u64),
    /// The `n` rows with the largest estimates.
    TopK(u32),
    /// The φ-heavy hitters under a reporting contract.
    Hh(f64, ErrorType),
    /// The server's key=value gauges.
    Stats,
    /// A coordinated checkpoint round (durable servers).
    Ckpt,
    /// Shut the server down.
    Quit,
}

impl Query {
    /// Parses one text-protocol request line, e.g. `HH 0.01 nfp`.
    ///
    /// # Errors
    /// The reason the request is refused.
    pub(crate) fn parse_line(line: &str) -> Result<Query, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((command, args)) = tokens.split_first() else {
            return Err("empty request".into());
        };
        let verb = command.to_ascii_uppercase();
        let query = match (verb.as_str(), args) {
            ("EST", [item]) => Query::Est(item.parse().map_err(|_| format!("bad item `{item}`"))?),
            ("TOPK", [n]) => Query::TopK(n.parse().map_err(|_| format!("bad row count `{n}`"))?),
            ("HH", [phi, contract @ ..]) => {
                let contract = match contract {
                    [] | ["nfn"] => ErrorType::NoFalseNegatives,
                    ["nfp"] => ErrorType::NoFalsePositives,
                    _ => return Err("usage: HH <phi> [nfp|nfn]".into()),
                };
                Query::Hh(
                    phi.parse().map_err(|_| format!("bad phi `{phi}`"))?,
                    contract,
                )
            }
            ("STATS", []) => Query::Stats,
            ("CKPT", []) => Query::Ckpt,
            ("QUIT", []) => Query::Quit,
            ("EST", _) => return Err("usage: EST <item>".into()),
            ("TOPK", _) => return Err("usage: TOPK <n>".into()),
            ("HH", _) => return Err("usage: HH <phi> [nfp|nfn]".into()),
            ("STATS" | "CKPT" | "QUIT", _) => return Err(format!("usage: {verb}")),
            _ => return Err(format!("unknown command `{command}`")),
        };
        query.checked()
    }

    /// Decodes one binary request frame's opcode and payload.
    ///
    /// # Errors
    /// The reason the request is refused.
    pub(crate) fn decode(op: u8, payload: &[u8]) -> Result<Query, String> {
        let query = match op {
            opcode::EST => Query::Est(u64::from_le_bytes(exact_payload("EST", payload)?)),
            opcode::TOPK => Query::TopK(u32::from_le_bytes(exact_payload("TOPK", payload)?)),
            opcode::HH => match payload.split_first_chunk::<8>() {
                Some((phi, &[contract])) => {
                    let contract = match contract {
                        0 => ErrorType::NoFalseNegatives,
                        1 => ErrorType::NoFalsePositives,
                        other => return Err(format!("bad HH contract byte {other}")),
                    };
                    Query::Hh(f64::from_le_bytes(*phi), contract)
                }
                _ => return Err("HH payload must be 9 bytes".into()),
            },
            opcode::STATS => exact_payload::<0>("STATS", payload).map(|_| Query::Stats)?,
            opcode::CKPT => exact_payload::<0>("CKPT", payload).map(|_| Query::Ckpt)?,
            opcode::QUIT => exact_payload::<0>("QUIT", payload).map(|_| Query::Quit)?,
            other => return Err(format!("unknown opcode 0x{other:02x}")),
        };
        query.checked()
    }

    /// Appends this query as one binary request frame.
    pub fn write_binary(&self, out: &mut Vec<u8>) {
        let op = match self {
            Query::Est(_) => opcode::EST,
            Query::TopK(_) => opcode::TOPK,
            Query::Hh(..) => opcode::HH,
            Query::Stats => opcode::STATS,
            Query::Ckpt => opcode::CKPT,
            Query::Quit => opcode::QUIT,
        };
        push_frame(out, op, |p| match *self {
            Query::Est(item) => put_words(p, &[item]),
            Query::TopK(n) => p.extend_from_slice(&n.to_le_bytes()),
            Query::Hh(phi, contract) => {
                p.extend_from_slice(&phi.to_le_bytes());
                p.push(u8::from(contract == ErrorType::NoFalsePositives));
            }
            Query::Stats | Query::Ckpt | Query::Quit => {}
        });
    }

    /// Refuses a query outside the protocol's bounds. Every parser and
    /// [`answer`] go through this one check.
    fn checked(self) -> Result<Query, String> {
        match self {
            Query::TopK(n) if n == 0 || n > MAX_TOPK => {
                Err(format!("row count {n} outside 1..={MAX_TOPK}"))
            }
            Query::Hh(phi, _) if !(0.0..=1.0).contains(&phi) => {
                Err(format!("phi {phi} outside [0, 1]"))
            }
            query => Ok(query),
        }
    }
}

/// The canonical text request line (no newline); it parses back to the
/// same query.
impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Est(item) => write!(f, "EST {item}"),
            Query::TopK(n) => write!(f, "TOPK {n}"),
            Query::Hh(phi, ErrorType::NoFalseNegatives) => write!(f, "HH {phi} nfn"),
            Query::Hh(phi, ErrorType::NoFalsePositives) => write!(f, "HH {phi} nfp"),
            Query::Stats => f.write_str("STATS"),
            Query::Ckpt => f.write_str("CKPT"),
            Query::Quit => f.write_str("QUIT"),
        }
    }
}

/// The payload as exactly `N` bytes, or the refusal naming the verb.
fn exact_payload<const N: usize>(verb: &str, payload: &[u8]) -> Result<[u8; N], String> {
    <[u8; N]>::try_from(payload).map_err(|_| format!("{verb} payload must be {N} bytes"))
}

/// Answers EST, TOPK or HH from one engine: a node's published snapshot
/// or the cluster's merged bank. Other verbs belong to the server and
/// get an `ERR`.
pub(crate) fn answer(engine: &SketchEngine<u64>, query: &Query) -> Reply {
    match query.checked() {
        Ok(Query::Est(item)) => Reply::Est([
            engine.estimate(&item),
            engine.lower_bound(&item),
            engine.upper_bound(&item),
        ]),
        Ok(Query::TopK(n)) => Reply::Rows(engine.top_k(n as usize)),
        Ok(Query::Hh(phi, contract)) => Reply::Rows(engine.heavy_hitters(phi, contract)),
        Ok(other) => Reply::Err(format!("{other} is not supported here")),
        Err(reason) => Reply::Err(reason),
    }
}

/// One reply, written once into the caller's output buffer.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Reply {
    /// EST: the estimate, its certified lower bound and upper bound.
    Est([u64; 3]),
    /// TOPK and HH result rows.
    Rows(Vec<Row<u64>>),
    /// The STATS key=value body.
    Stats(String),
    /// CKPT: the epoch the checkpoint round covered.
    Checkpoint(u64),
    /// QUIT acknowledged.
    Bye,
    /// A refused or failed request.
    Err(String),
}

impl Reply {
    /// The reply to a text line longer than [`MAX_TEXT_LINE`].
    pub(crate) fn overlong_line() -> Reply {
        Reply::Err(format!("request line longer than {MAX_TEXT_LINE} bytes"))
    }

    /// Appends the text-protocol rendering (see the `Display` impl).
    pub(crate) fn write_text(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        write!(out, "{self}").expect("writing into a Vec cannot fail");
    }

    /// Appends one binary response frame.
    pub(crate) fn write_binary(&self, out: &mut Vec<u8>) {
        let status = u8::from(matches!(self, Reply::Err(_)));
        push_frame(out, status, |p| match self {
            Reply::Est(fields) => put_words(p, fields),
            Reply::Rows(rows) => {
                p.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                rows.iter().for_each(|row| put_words(p, &row_fields(row)));
            }
            Reply::Stats(body) | Reply::Err(body) => p.extend_from_slice(body.as_bytes()),
            Reply::Checkpoint(epoch) => put_words(p, &[*epoch]),
            Reply::Bye => p.extend_from_slice(b"bye"),
        });
    }

    /// Decodes one binary response frame to `query`. A non-zero status
    /// is an ERR reply; an OK payload must have exactly its verb's shape.
    ///
    /// # Errors
    /// The reason the payload is malformed.
    pub(crate) fn decode(query: &Query, status: u8, payload: &[u8]) -> Result<Reply, String> {
        if status != 0 {
            return Ok(Reply::Err(String::from_utf8_lossy(payload).into_owned()));
        }
        let malformed = || format!("malformed reply payload to `{query}`");
        let mut rest = payload;
        let reply = match query {
            Query::Est(_) => Reply::Est(take_words(&mut rest).ok_or_else(malformed)?),
            Query::TopK(_) | Query::Hh(..) => {
                let (count, body) = rest.split_first_chunk::<4>().ok_or_else(malformed)?;
                rest = body;
                // Capacity comes from the bytes that arrived, not from
                // the count the peer claims.
                let mut rows = Vec::with_capacity(rest.len() / ROW_BYTES);
                while !rest.is_empty() {
                    let [item, estimate, lower_bound, upper_bound] =
                        take_words(&mut rest).ok_or_else(malformed)?;
                    rows.push(Row {
                        item,
                        estimate,
                        lower_bound,
                        upper_bound,
                    });
                }
                if u32::try_from(rows.len()) != Ok(u32::from_le_bytes(*count)) {
                    return Err(malformed());
                }
                Reply::Rows(rows)
            }
            Query::Stats => Reply::Stats(String::from_utf8_lossy(std::mem::take(&mut rest)).into()),
            Query::Ckpt => {
                let [epoch] = take_words(&mut rest).ok_or_else(malformed)?;
                Reply::Checkpoint(epoch)
            }
            Query::Quit => match std::mem::take(&mut rest) {
                b"bye" => Reply::Bye,
                _ => return Err(malformed()),
            },
        };
        if rest.is_empty() {
            Ok(reply)
        } else {
            Err(malformed())
        }
    }
}

/// The text-protocol rendering: the one place a reply or result row
/// becomes text.
impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Est([estimate, lower, upper]) => writeln!(f, "OK {estimate} {lower} {upper}"),
            Reply::Rows(rows) => {
                writeln!(f, "OK {}", rows.len())?;
                for row in rows {
                    let [item, estimate, lower, upper] = row_fields(row);
                    writeln!(f, "{item} {estimate} {lower} {upper}")?;
                }
                Ok(())
            }
            Reply::Stats(body) => writeln!(f, "OK {body}"),
            Reply::Checkpoint(epoch) => writeln!(f, "OK epoch={epoch}"),
            Reply::Bye => writeln!(f, "OK bye"),
            Reply::Err(reason) => writeln!(f, "ERR {reason}"),
        }
    }
}

/// A result row's fields in wire order.
fn row_fields(row: &Row<u64>) -> [u64; 4] {
    [row.item, row.estimate, row.lower_bound, row.upper_bound]
}

/// Appends little-endian `u64`s.
fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    words
        .iter()
        .for_each(|w| out.extend_from_slice(&w.to_le_bytes()));
}

/// Takes `N` little-endian `u64`s off the front of `bytes`.
fn take_words<const N: usize>(bytes: &mut &[u8]) -> Option<[u64; N]> {
    let mut words = [0; N];
    for word in &mut words {
        let (head, rest) = bytes.split_first_chunk::<8>()?;
        *word = u64::from_le_bytes(*head);
        *bytes = rest;
    }
    Some(words)
}

/// Appends a frame `[len u32le | tag | payload]`, where `build` writes
/// the payload straight into `out`.
pub(crate) fn push_frame(out: &mut Vec<u8>, tag: u8, build: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(tag);
    build(out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends an ERR response frame carrying a UTF-8 message.
pub(crate) fn push_err_frame(out: &mut Vec<u8>, message: &str) {
    push_frame(out, 1, |p| p.extend_from_slice(message.as_bytes()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamfreq_core::FreqSketch;

    const NFN: ErrorType = ErrorType::NoFalseNegatives;
    const NFP: ErrorType = ErrorType::NoFalsePositives;

    /// Splits the one frame `[len u32le | tag | payload]` in `bytes`.
    fn split_frame(bytes: &[u8]) -> (u8, &[u8]) {
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), 4 + len, "exactly one whole frame");
        (bytes[4], &bytes[5..])
    }

    #[test]
    fn every_query_round_trips_text_to_binary_to_text() {
        let queries = [
            Query::Est(0),
            Query::Est(u64::MAX),
            Query::TopK(1),
            Query::TopK(MAX_TOPK),
            Query::Hh(0.0, NFN),
            Query::Hh(1.0, NFP),
            Query::Hh(0.1, NFP),
            Query::Hh(1e-9, NFN),
            Query::Stats,
            Query::Ckpt,
            Query::Quit,
        ];
        for query in queries {
            let text = query.to_string();
            assert_eq!(Query::parse_line(&text), Ok(query), "{text}");
            let mut frame = Vec::new();
            query.write_binary(&mut frame);
            let (op, payload) = split_frame(&frame);
            let decoded = Query::decode(op, payload).unwrap();
            assert_eq!(decoded, query, "{text}");
            assert_eq!(decoded.to_string(), text);
        }
    }

    #[test]
    fn text_verbs_are_case_insensitive_and_hh_defaults_to_nfn() {
        assert_eq!(Query::parse_line(" est 42 \r"), Ok(Query::Est(42)));
        assert_eq!(Query::parse_line("hh 0.5"), Ok(Query::Hh(0.5, NFN)));
        assert_eq!(Query::parse_line("HH 0.5 nfp"), Ok(Query::Hh(0.5, NFP)));
        for refused in [
            "",
            "FROB 1",
            "EST",
            "EST x",
            "TOPK 1 2",
            "STATS now",
            "HH 0.5 NFP",
        ] {
            assert!(Query::parse_line(refused).is_err(), "{refused:?}");
        }
    }

    #[test]
    fn both_parsers_refuse_every_bound() {
        let hh = |phi: f64, contract: u8| {
            let mut payload = phi.to_le_bytes().to_vec();
            payload.push(contract);
            payload
        };
        let cases = [
            ("TOPK 0", opcode::TOPK, 0u32.to_le_bytes().to_vec()),
            (
                "TOPK 100001",
                opcode::TOPK,
                (MAX_TOPK + 1).to_le_bytes().to_vec(),
            ),
            ("HH -0.1", opcode::HH, hh(-0.1, 0)),
            ("HH 1.5", opcode::HH, hh(1.5, 0)),
            ("HH NaN", opcode::HH, hh(f64::NAN, 0)),
            ("HH 0.5 both", opcode::HH, hh(0.5, 2)),
        ];
        for (line, op, payload) in cases {
            assert!(Query::parse_line(line).is_err(), "text {line}");
            assert!(Query::decode(op, &payload).is_err(), "binary {line}");
        }
    }

    #[test]
    fn binary_decoder_refuses_every_wrong_payload_length() {
        let shapes = [
            (opcode::EST, 8),
            (opcode::TOPK, 4),
            (opcode::HH, 9),
            (opcode::STATS, 0),
            (opcode::CKPT, 0),
            (opcode::QUIT, 0),
        ];
        for (op, len) in shapes {
            for wrong in (0..=24).filter(|&n| n != len) {
                assert!(
                    Query::decode(op, &vec![0; wrong]).is_err(),
                    "opcode {op} with {wrong} payload bytes"
                );
            }
        }
        assert!(Query::decode(0x7f, &[])
            .unwrap_err()
            .contains("unknown opcode"));
    }

    #[test]
    fn replies_render_in_both_protocols_and_decode_back() {
        let row = |item: u64| Row {
            item,
            estimate: 10,
            lower_bound: 8,
            upper_bound: 10,
        };
        let cases = [
            (Query::Est(7), Reply::Est([10, 8, 10]), "OK 10 8 10\n"),
            (
                Query::TopK(2),
                Reply::Rows(vec![row(7), row(u64::MAX)]),
                "OK 2\n7 10 8 10\n18446744073709551615 10 8 10\n",
            ),
            (Query::Hh(0.5, NFP), Reply::Rows(Vec::new()), "OK 0\n"),
            (
                Query::Stats,
                Reply::Stats("n=1 protocol=binary".into()),
                "OK n=1 protocol=binary\n",
            ),
            (Query::Ckpt, Reply::Checkpoint(3), "OK epoch=3\n"),
            (Query::Quit, Reply::Bye, "OK bye\n"),
            (Query::Est(1), Reply::Err("no".into()), "ERR no\n"),
        ];
        for (query, reply, text) in cases {
            let mut rendered = Vec::new();
            reply.write_text(&mut rendered);
            assert_eq!(String::from_utf8(rendered).unwrap(), text);
            let mut frame = Vec::new();
            reply.write_binary(&mut frame);
            let (status, payload) = split_frame(&frame);
            assert_eq!(status, u8::from(matches!(reply, Reply::Err(_))));
            assert_eq!(Reply::decode(&query, status, payload), Ok(reply));
        }
    }

    #[test]
    fn reply_decoder_refuses_malformed_payloads() {
        let rows = |count: u32, carried: usize, extra: usize| {
            let mut payload = count.to_le_bytes().to_vec();
            payload.resize(4 + 32 * carried + extra, 0);
            payload
        };
        let cases = [
            (Query::Est(1), vec![0; 23]),
            (Query::Est(1), vec![0; 25]),
            (Query::TopK(1), vec![0; 3]),
            (Query::TopK(1), rows(2, 1, 0)),
            (Query::TopK(1), rows(u32::MAX, 0, 0)),
            (Query::Hh(0.5, NFN), rows(1, 1, 1)),
            (Query::Ckpt, vec![0; 7]),
            (Query::Quit, b"ok".to_vec()),
        ];
        for (query, payload) in cases {
            assert!(
                Reply::decode(&query, 0, &payload).is_err(),
                "{query} with {} payload bytes",
                payload.len()
            );
        }
    }

    #[test]
    fn answer_refuses_out_of_bounds_and_server_verbs() {
        let sketch = FreqSketch::builder(64).build().unwrap();
        let engine = sketch.engine();
        assert_eq!(
            answer(engine, &Query::Est(3)).to_string(),
            "OK 0 0 0\n",
            "an empty bank"
        );
        for query in [
            Query::Hh(2.0, NFN),
            Query::TopK(0),
            Query::Stats,
            Query::Quit,
        ] {
            assert!(matches!(answer(engine, &query), Reply::Err(_)), "{query:?}");
        }
    }
}
