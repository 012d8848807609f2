//! The lint rules, as token-pattern scanners over [`crate::lexer`]
//! output.
//!
//! Three rule families, each pinning a bug class this repo has already
//! paid for once:
//!
//! * **`float-threshold-cast`** — a float→int truncating cast whose
//!   source expression mentions a φ/threshold-like identifier. Five such
//!   sites once inflated `⌊phi·N⌋` thresholds via f64 rounding; the fix
//!   (`bounds::phi_threshold`, exact u128 arithmetic) must not regress.
//!   Applies everywhere, test code included (one of the original sites
//!   was a contract test).
//! * **`decode-*`** — the untrusted-bytes discipline for the wire codecs
//!   and the persistence layer: decode paths return `Err(Corrupt)`,
//!   never panic. `decode-panic` flags `unwrap`/`expect`/`panic!` family
//!   macros; `decode-index` flags panicking `[]` indexing in the
//!   byte-level files; `decode-arith` flags bare `+`/`*` over
//!   length-like operands (the overflow/multiply class); `decode-cast`
//!   flags narrowing `as` casts (use `From`/`try_from`).
//! * **`unledgered-unsafe`** — counting is done here; reconciliation
//!   against `UNSAFE_LEDGER.md` happens at tree level in [`crate`].
//!
//! ## Scoping
//!
//! `decode-*` rules run only in non-test code, inside functions whose
//! names mark them as decode/recovery paths (`decode*`, `read*`,
//! `parse*`, `recover*`, `load*`, `open*`, `verify*`, ...), in
//! `codec.rs`, `item_codec.rs`, `persist/`, the apps crate's
//! `window.rs` (the SFWS bucket-store decoder), the CLI's
//! `protocol.rs` (the query codec, decoding SFBP payloads off
//! sockets), and the cluster wire-facing files (anything under
//! `cluster/`, plus the CLI's `cluster.rs` fan-out client — topology
//! files and node responses are untrusted input). The arithmetic,
//! index, and cast rules are further restricted to the byte-level
//! files (`codec.rs`, `item_codec.rs`, `apps/src/window.rs`,
//! `cli/src/protocol.rs`, `persist/{wal,checkpoint,mod,store}.rs`,
//! `cluster/{topology,wire}.rs`) — the orchestration files
//! (`recover.rs`, `group.rs`, `cluster/ring.rs`) do no raw byte math,
//! and flagging every loop counter there would drown the signal.
//!
//! ## Waivers
//!
//! A finding can be waived with a same-line or preceding-line comment
//! `// lint:allow(rule-id): reason` — the reason is mandatory; an empty
//! one is itself a finding (`bad-waiver`). Waivers are counted in the
//! report so an audit can review them.

use crate::lexer::{lex, Lexed, Tok};

/// One violation (or waiver problem) in one file.
#[derive(Debug, Clone)]
pub struct Finding {
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// Per-file `unsafe` evidence, reconciled against the ledger by the
/// tree-level pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnsafeCounts {
    /// `unsafe` keyword tokens (blocks, `unsafe fn`, `unsafe impl`).
    pub unsafe_tokens: u64,
    /// `#[allow(unsafe_code)]` attributes.
    pub allow_attrs: u64,
}

impl UnsafeCounts {
    pub fn any(&self) -> bool {
        self.unsafe_tokens > 0 || self.allow_attrs > 0
    }
}

/// Everything the scanners learned about one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub findings: Vec<Finding>,
    pub unsafe_counts: UnsafeCounts,
    /// Findings silenced by a valid `lint:allow` waiver.
    pub suppressed: usize,
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Cast targets the `decode-cast` rule treats as narrowing-capable. The
/// 128-bit and `u64` targets are exempt: in this codebase they are
/// essentially always widening (float→u64 is covered separately by
/// `float-threshold-cast`).
const NARROWING_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// Identifier substrings that mark a value as length/offset-like —
/// i.e. plausibly derived from untrusted input sizes. Only
/// all-lowercase identifiers are eligible (so `Sized`, `PartialEq`
/// and friends in trait bounds never match).
const TAINT: &[&str] = &[
    "len",
    "size",
    "count",
    "num",
    "offset",
    "pos",
    "cursor",
    "remaining",
    "capacity",
    "payload",
    "total",
    "active",
    "needed",
    "idx",
    "slot",
    "width",
];

/// Identifier substrings that mark a φ/threshold-like quantity.
const THRESHOLDY: &[&str] = &["phi", "threshold", "thresh", "quantile"];

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "try", "type", "unsafe", "use", "where",
    "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// How a file's path scopes the rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// codec.rs / item_codec.rs / anything under persist/ — `decode-panic`
    /// applies here.
    pub decode_file: bool,
    /// The byte-level subset where `decode-arith`/`decode-index`/
    /// `decode-cast` also apply.
    pub byte_level: bool,
    /// Integration-test / bench / example file: decode rules off.
    pub test_file: bool,
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> FileClass {
    let rel = rel_path.replace('\\', "/");
    let file_name = rel.rsplit('/').next().unwrap_or(rel.as_str());
    let in_persist = rel.contains("/persist/") || rel.starts_with("persist/");
    let in_cluster = rel.contains("/cluster/") || rel.starts_with("cluster/");
    // The windowed bucket store's SFWS decoder reads files from disk.
    let window_store = rel.ends_with("apps/src/window.rs");
    // The CLI query codec decodes SFBP request and response payloads
    // straight off sockets.
    let query_codec = rel.ends_with("cli/src/protocol.rs");
    let decode_file = file_name == "codec.rs"
        || file_name == "item_codec.rs"
        || in_persist
        || in_cluster
        || file_name == "cluster.rs"
        || window_store
        || query_codec;
    let byte_level = file_name == "codec.rs"
        || file_name == "item_codec.rs"
        || window_store
        || query_codec
        || (in_persist
            && matches!(
                file_name,
                "wal.rs" | "checkpoint.rs" | "mod.rs" | "store.rs"
            ))
        || (in_cluster && matches!(file_name, "topology.rs" | "wire.rs"));
    let test_file = rel
        .split('/')
        .any(|part| part == "tests" || part == "benches" || part == "examples");
    FileClass {
        decode_file,
        byte_level,
        test_file,
    }
}

/// Does this function name mark a decode/recovery path over untrusted
/// bytes?
pub fn is_decode_fn(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    const CONTAINS: &[&str] = &[
        "decode",
        "deserial",
        "parse",
        "recover",
        "replay",
        "restore",
        "from_wire",
        "from_bytes",
        "verify",
        "validate",
    ];
    const PREFIXES: &[&str] = &["read", "load", "open"];
    CONTAINS.iter().any(|p| n.contains(p))
        || PREFIXES
            .iter()
            .any(|p| n.starts_with(p) || n.contains(&format!("_{p}")))
}

/// Analyzes one file's source. `rel_path` drives rule scoping only — the
/// file need not exist on disk (fixtures pass synthetic paths).
pub fn analyze(rel_path: &str, src: &str) -> FileAnalysis {
    let class = classify(rel_path);
    let lexed = lex(src);
    let toks = &lexed.toks;
    let n = toks.len();

    let mut analysis = FileAnalysis {
        unsafe_counts: count_unsafe(&lexed),
        ..FileAnalysis::default()
    };
    let in_test = test_mask(&lexed);
    let fn_names = enclosing_fn_names(&lexed);
    let pool = fn_names_pool(&lexed);
    let mut raw: Vec<Finding> = Vec::new();

    let decode_scope = |i: usize| -> bool {
        !class.test_file
            && !in_test[i]
            && fn_names[i].map(|f| is_decode_fn(&pool[f])).unwrap_or(false)
    };

    for i in 0..n {
        match &toks[i].tok {
            // ---- casts: float-threshold-cast (everywhere) and
            // decode-cast (byte-level decode fns) ----
            Tok::Ident(id) if id == "as" => {
                let Some(Tok::Ident(target)) = toks.get(i + 1).map(|t| &t.tok) else {
                    continue;
                };
                if !INT_TYPES.contains(&target.as_str()) {
                    continue;
                }
                let (start, _) = scan_back_expr(&lexed, i);
                let (has_float, has_thresh) = float_and_threshold_evidence(&lexed, start, i);
                if has_float && has_thresh {
                    raw.push(Finding {
                        line: toks[i].line,
                        rule: "float-threshold-cast",
                        message: format!(
                            "float-derived expression cast to {target} near a \
                             phi/threshold identifier; use exact integer \
                             arithmetic (bounds::phi_threshold)"
                        ),
                    });
                }
                if class.byte_level
                    && decode_scope(i)
                    && NARROWING_TARGETS.contains(&target.as_str())
                {
                    raw.push(Finding {
                        line: toks[i].line,
                        rule: "decode-cast",
                        message: format!(
                            "unchecked `as {target}` in a decode path; use \
                             `{target}::from`/`{target}::try_from` so narrowing \
                             is explicit"
                        ),
                    });
                }
            }
            // ---- decode-panic ----
            Tok::Ident(id)
                if class.decode_file
                    && decode_scope(i)
                    && (id == "unwrap" || id == "expect")
                    && matches!(
                        toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                        Some(Tok::Punct('.'))
                    )
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) =>
            {
                raw.push(Finding {
                    line: toks[i].line,
                    rule: "decode-panic",
                    message: format!(
                        ".{id}() in a decode path can panic on untrusted \
                         input; return Err(Error::Corrupt) instead"
                    ),
                });
            }
            Tok::Ident(id)
                if class.decode_file
                    && decode_scope(i)
                    && matches!(
                        id.as_str(),
                        "panic"
                            | "unreachable"
                            | "todo"
                            | "unimplemented"
                            | "assert"
                            | "assert_eq"
                            | "assert_ne"
                    )
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!'))) =>
            {
                raw.push(Finding {
                    line: toks[i].line,
                    rule: "decode-panic",
                    message: format!(
                        "{id}! in a decode path can panic on untrusted input; \
                         return Err(Error::Corrupt) instead"
                    ),
                });
            }
            // ---- decode-index ----
            Tok::Punct('[')
                if class.byte_level && decode_scope(i) && prev_is_operand_end(&lexed, i) =>
            {
                raw.push(Finding {
                    line: toks[i].line,
                    rule: "decode-index",
                    message: "slice/array indexing in a decode path can panic \
                              on untrusted input; use .get()/.split_at \
                              checked forms"
                        .to_string(),
                });
            }
            // ---- decode-arith ----
            Tok::Punct(op @ ('+' | '*'))
                if class.byte_level && decode_scope(i) && prev_is_operand_end(&lexed, i) =>
            {
                let (start, _) = scan_back_expr(&lexed, i);
                let end = scan_fwd_expr(&lexed, i);
                if any_tainted_ident(&lexed, start, i) || any_tainted_ident(&lexed, i + 1, end) {
                    raw.push(Finding {
                        line: toks[i].line,
                        rule: "decode-arith",
                        message: format!(
                            "bare `{op}` over a length-like value in a decode \
                             path can overflow; use checked_/saturating_ \
                             arithmetic"
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    apply_waivers(&lexed, raw, &mut analysis);
    analysis
}

/// Counts `unsafe` keywords and `#[allow(unsafe_code)]` attributes.
/// `deny`/`forbid`(unsafe_code) deliberately do not count.
fn count_unsafe(lexed: &Lexed) -> UnsafeCounts {
    let toks = &lexed.toks;
    let mut counts = UnsafeCounts::default();
    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::Ident(id) if id == "unsafe" => counts.unsafe_tokens += 1,
            Tok::Ident(id) if id == "unsafe_code" => {
                let before_paren = i.checked_sub(2).map(|j| &toks[j].tok);
                let is_allow = matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct('('))
                ) && matches!(before_paren, Some(Tok::Ident(a)) if a == "allow");
                if is_allow {
                    counts.allow_attrs += 1;
                }
            }
            _ => {}
        }
    }
    counts
}

/// Marks every token inside `#[cfg(test)]`-gated items and `#[test]`
/// functions (including the attributes themselves).
fn test_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.toks;
    let n = toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if !matches!(toks[i].tok, Tok::Punct('#'))
            || !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            i += 1;
            continue;
        }
        // Collect the attribute group.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut saw_test = false;
        let mut saw_cfg = false;
        let mut attr_idents = 0usize;
        while j < n && depth > 0 {
            match &toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(id) => {
                    attr_idents += 1;
                    if id == "test" {
                        saw_test = true;
                    }
                    if id == "cfg" {
                        saw_cfg = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = saw_test && (saw_cfg || attr_idents == 1);
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = j;
        while k < n
            && matches!(toks[k].tok, Tok::Punct('#'))
            && matches!(toks.get(k + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let mut d = 1usize;
            k += 2;
            while k < n && d > 0 {
                match &toks[k].tok {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        // Find the item's extent: first `{` (then its match) or `;` at
        // paren/bracket depth 0.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut end = k;
        while end < n {
            match &toks[end].tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => paren -= 1,
                Tok::Punct('[') => bracket += 1,
                Tok::Punct(']') => bracket -= 1,
                Tok::Punct(';') if paren == 0 && bracket == 0 => break,
                Tok::Punct('{') if paren == 0 && bracket == 0 => {
                    let mut braces = 1i32;
                    end += 1;
                    while end < n && braces > 0 {
                        match &toks[end].tok {
                            Tok::Punct('{') => braces += 1,
                            Tok::Punct('}') => braces -= 1,
                            _ => {}
                        }
                        end += 1;
                    }
                    end -= 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        for m in mask.iter_mut().take((end + 1).min(n)).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// The distinct function names in the file, in discovery order.
fn fn_names_pool(lexed: &Lexed) -> Vec<String> {
    let mut pool = Vec::new();
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if let Tok::Ident(id) = &toks[i].tok {
            if id == "fn" {
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                    pool.push(name.clone());
                }
            }
        }
    }
    pool
}

/// For each token, the index (into [`fn_names_pool`]) of the innermost
/// enclosing function body, if any.
fn enclosing_fn_names(lexed: &Lexed) -> Vec<Option<usize>> {
    let toks = &lexed.toks;
    let n = toks.len();
    let mut out = vec![None; n];
    let mut brace_depth = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    // (fn pool index, brace depth of its body)
    let mut stack: Vec<(usize, i32)> = Vec::new();
    // Pending fn header: (pool index, paren depth, bracket depth at `fn`)
    let mut pending: Option<(usize, i32, i32)> = None;
    let mut next_pool = 0usize;
    for i in 0..n {
        out[i] = stack.last().map(|&(f, _)| f);
        match &toks[i].tok {
            Tok::Ident(id) if id == "fn" => {
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(_))) {
                    pending = Some((next_pool, paren, bracket));
                    next_pool += 1;
                }
            }
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct('[') => bracket += 1,
            Tok::Punct(']') => bracket -= 1,
            Tok::Punct('{') => {
                brace_depth += 1;
                if let Some((f, p, b)) = pending {
                    if paren == p && bracket == b {
                        stack.push((f, brace_depth));
                        pending = None;
                        // The body-open brace itself belongs to the fn.
                        out[i] = Some(f);
                    }
                }
            }
            Tok::Punct('}') => {
                if let Some(&(_, d)) = stack.last() {
                    if d == brace_depth {
                        stack.pop();
                    }
                }
                brace_depth -= 1;
            }
            Tok::Punct(';') => {
                if let Some((_, p, b)) = pending {
                    if paren == p && bracket == b {
                        // Bodyless declaration (trait method signature).
                        pending = None;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Is `toks[i - 1]` something an expression can end with (making a
/// following `*`/`+`/`[` a binary operator / indexing rather than a
/// deref / unary / type position)?
fn prev_is_operand_end(lexed: &Lexed, i: usize) -> bool {
    let Some(j) = i.checked_sub(1) else {
        return false;
    };
    match &lexed.toks[j].tok {
        Tok::Ident(id) => !is_keyword(id) || id == "self",
        Tok::Num(_) | Tok::Str => true,
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
        _ => false,
    }
}

/// Walks backward from the token at `i` (exclusive) across one "simple
/// expression": identifiers, literals, `.`/`::`/`?`/`!` chains, and
/// balanced `(..)`/`[..]` groups. Returns the start index of the
/// expression and the number of tokens covered. Bounded at 64 tokens.
fn scan_back_expr(lexed: &Lexed, i: usize) -> (usize, usize) {
    let toks = &lexed.toks;
    let mut j = i;
    let mut depth = 0i32;
    let mut budget = 64usize;
    while j > 0 && budget > 0 {
        budget -= 1;
        let t = &toks[j - 1].tok;
        if depth > 0 {
            match t {
                Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                Tok::Punct('(') | Tok::Punct('[') => depth -= 1,
                _ => {}
            }
            j -= 1;
            continue;
        }
        match t {
            Tok::Ident(id) if !is_keyword(id) || id == "as" || id == "self" => j -= 1,
            Tok::Num(_) | Tok::Str | Tok::Lifetime => j -= 1,
            Tok::Punct('.') | Tok::Punct(':') | Tok::Punct('?') | Tok::Punct('!') => j -= 1,
            Tok::Punct(')') | Tok::Punct(']') => {
                depth += 1;
                j -= 1;
            }
            _ => break,
        }
    }
    (j, i - j)
}

/// Walks forward from `i` (exclusive) across one simple expression;
/// returns the exclusive end index. Bounded at 64 tokens.
fn scan_fwd_expr(lexed: &Lexed, i: usize) -> usize {
    let toks = &lexed.toks;
    let n = toks.len();
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut budget = 64usize;
    while j < n && budget > 0 {
        budget -= 1;
        let t = &toks[j].tok;
        if depth > 0 {
            match t {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                _ => {}
            }
            j += 1;
            continue;
        }
        match t {
            Tok::Ident(id) if !is_keyword(id) || id == "as" || id == "self" => j += 1,
            Tok::Num(_) | Tok::Str => j += 1,
            Tok::Punct('.') | Tok::Punct(':') | Tok::Punct('?') => j += 1,
            Tok::Punct('(') | Tok::Punct('[') => {
                depth += 1;
                j += 1;
            }
            _ => break,
        }
    }
    j
}

/// Float evidence (literal, f32/f64, rounding method) and
/// φ/threshold-identifier evidence within `toks[start..end]`.
fn float_and_threshold_evidence(lexed: &Lexed, start: usize, end: usize) -> (bool, bool) {
    let mut has_float = false;
    let mut has_thresh = false;
    for t in &lexed.toks[start..end] {
        match &t.tok {
            Tok::Num(text) if is_float_literal(text) => has_float = true,
            Tok::Num(_) => {}
            Tok::Ident(id) => {
                if id == "f64"
                    || id == "f32"
                    || matches!(
                        id.as_str(),
                        "ceil"
                            | "floor"
                            | "round"
                            | "trunc"
                            | "sqrt"
                            | "powf"
                            | "powi"
                            | "exp"
                            | "ln"
                    )
                {
                    has_float = true;
                }
                let lower = id.to_ascii_lowercase();
                if THRESHOLDY.iter().any(|p| lower.contains(p)) {
                    has_thresh = true;
                }
            }
            _ => {}
        }
    }
    (has_float, has_thresh)
}

fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x")
        || text.starts_with("0X")
        || text.starts_with("0b")
        || text.starts_with("0o")
    {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains(['e', 'E'])
}

/// Does `toks[start..end]` mention a length-like lowercase identifier?
fn any_tainted_ident(lexed: &Lexed, start: usize, end: usize) -> bool {
    lexed.toks[start..end.min(lexed.toks.len())]
        .iter()
        .any(|t| match &t.tok {
            Tok::Ident(id) => {
                !id.chars().any(|c| c.is_ascii_uppercase()) && TAINT.iter().any(|p| id.contains(p))
            }
            _ => false,
        })
}

/// Filters `raw` findings through `lint:allow` waiver comments and
/// reports malformed waivers.
fn apply_waivers(lexed: &Lexed, raw: Vec<Finding>, analysis: &mut FileAnalysis) {
    // (line, rules, has_reason)
    let mut waivers: Vec<(u32, Vec<String>, bool)> = Vec::new();
    for (line, text) in &lexed.comments {
        let Some(at) = text.find("lint:allow(") else {
            continue;
        };
        let rest = &text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            analysis.findings.push(Finding {
                line: *line,
                rule: "bad-waiver",
                message: "unclosed lint:allow(...) waiver".to_string(),
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        let has_reason = !reason.is_empty();
        if rules.is_empty() || !has_reason {
            analysis.findings.push(Finding {
                line: *line,
                rule: "bad-waiver",
                message: "lint:allow waiver needs a rule list and a reason: \
                          `// lint:allow(rule-id): reason`"
                    .to_string(),
            });
        }
        waivers.push((*line, rules, has_reason));
    }
    for finding in raw {
        let waived = waivers.iter().any(|(line, rules, has_reason)| {
            *has_reason
                && (finding.line == *line || finding.line == line.saturating_add(1))
                && rules.iter().any(|r| r == finding.rule)
        });
        if waived {
            analysis.suppressed += 1;
        } else {
            analysis.findings.push(finding);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        analyze(rel, src).findings
    }

    fn rules_of(found: &[Finding]) -> Vec<&'static str> {
        found.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn float_threshold_cast_is_flagged_anywhere() {
        let src = "fn f(phi: f64, n: u64) -> u64 { (phi * n as f64) as u64 }";
        let found = findings("crates/core/src/select.rs", src);
        assert!(
            rules_of(&found).contains(&"float-threshold-cast"),
            "{found:?}"
        );
        // Exact integer math with no float involvement is clean.
        let clean = "fn f(phi_num: u64, n: u64) -> u64 { phi_num.saturating_mul(n) }";
        assert!(findings("crates/core/src/select.rs", clean).is_empty());
        // Float math with no threshold identifier is clean (a-priori
        // error estimates legitimately use f64).
        let est = "fn f(k: f64, n: u64) -> u64 { (n as f64 / k).ceil() as u64 }";
        assert!(findings("crates/core/src/engine.rs", est).is_empty());
    }

    #[test]
    fn decode_panics_flagged_only_in_decode_fns_of_decode_files() {
        let src = r#"
            fn decode_frame(bytes: &[u8]) -> u32 { bytes.first().unwrap(); panic!("no") }
            fn encode_frame(out: &mut Vec<u8>) { out.first().unwrap(); }
        "#;
        let found = findings("crates/core/src/persist/wal.rs", src);
        assert_eq!(
            rules_of(&found),
            vec!["decode-panic", "decode-panic"],
            "{found:?}"
        );
        // Same source outside the decode files: clean.
        assert!(findings("crates/core/src/table.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = r#"
            fn decode_x(b: &[u8]) -> u8 { 0 }
            #[cfg(test)]
            mod tests {
                fn decode_helper(b: &[u8]) -> u8 { b.first().unwrap() + b[0] }
            }
        "#;
        assert!(findings("crates/core/src/codec.rs", src).is_empty());
    }

    #[test]
    fn cluster_wire_files_are_decode_scoped() {
        let topo = classify("crates/core/src/cluster/topology.rs");
        assert!(topo.decode_file && topo.byte_level);
        let wire = classify("crates/core/src/cluster/wire.rs");
        assert!(wire.decode_file && wire.byte_level);
        // The ring does hashing, not byte decoding: panic discipline
        // only, no arithmetic/index scoping.
        let ring = classify("crates/core/src/cluster/ring.rs");
        assert!(ring.decode_file && !ring.byte_level);
        // The CLI fan-out client parses node responses: panic
        // discipline in its decode fns.
        let cli = classify("crates/cli/src/cluster.rs");
        assert!(cli.decode_file && !cli.byte_level);
        let src = r#"
            fn decode_reply(bytes: &[u8]) -> u8 { bytes.first().unwrap() }
        "#;
        let found = findings("crates/core/src/cluster/wire.rs", src);
        assert_eq!(rules_of(&found), vec!["decode-panic"], "{found:?}");
    }

    #[test]
    fn window_store_is_decode_scoped() {
        let window = classify("crates/apps/src/window.rs");
        assert!(window.decode_file && window.byte_level);
        assert!(!classify("crates/apps/src/decayed.rs").decode_file);
        let src = r#"
            fn deserialize_from_bytes(buf: &[u8]) -> usize { buf.len() as usize }
        "#;
        let found = findings("crates/apps/src/window.rs", src);
        assert_eq!(rules_of(&found), vec!["decode-cast"], "{found:?}");
    }

    #[test]
    fn query_codec_is_decode_scoped() {
        let codec = classify("crates/cli/src/protocol.rs");
        assert!(codec.decode_file && codec.byte_level);
        assert!(!classify("crates/cli/src/serve.rs").decode_file);
        let src = r#"
            fn decode(payload: &[u8]) -> u8 {
                let n = payload.len() as u32;
                payload[0]
            }
        "#;
        let found = findings("crates/cli/src/protocol.rs", src);
        assert_eq!(
            rules_of(&found),
            vec!["decode-cast", "decode-index"],
            "{found:?}"
        );
    }

    #[test]
    fn decode_index_and_arith_flag_byte_level_files() {
        let src = r#"
            fn read_header(bytes: &[u8], payload_len: usize) -> u8 {
                let x = bytes[payload_len];
                let total = payload_len + 8;
                x
            }
        "#;
        let found = findings("crates/core/src/persist/wal.rs", src);
        let rules = rules_of(&found);
        assert!(rules.contains(&"decode-index"), "{found:?}");
        assert!(rules.contains(&"decode-arith"), "{found:?}");
        // recover.rs is orchestration: index/arith off, panic still on.
        let found = findings("crates/core/src/persist/recover.rs", src);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn untainted_arithmetic_is_clean() {
        let src = r#"
            fn read_uvarint(value: u64, i: usize) -> u64 {
                let shifted = value << (7 * i);
                let next = i + 1;
                shifted + next as u64
            }
        "#;
        // `7 * i` and `i + 1` carry no length-like identifier; the final
        // `as u64` is a widening (exempt) target.
        let found = findings("crates/core/src/item_codec.rs", src);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn narrowing_casts_flagged_in_decode_paths() {
        let src = "fn decode_len(raw: u64) -> usize { raw as usize }";
        let found = findings("crates/core/src/codec.rs", src);
        assert_eq!(rules_of(&found), vec!["decode-cast"]);
        // Widening u64 target: clean.
        let src = "fn decode_len(raw: u32) -> u64 { raw as u64 }";
        assert!(findings("crates/core/src/codec.rs", src).is_empty());
    }

    #[test]
    fn unsafe_counting_separates_allow_from_forbid() {
        let src = r#"
            #![forbid(unsafe_code)]
            #[allow(unsafe_code)]
            unsafe fn f() {}
            fn g() { let x = unsafe { 1 }; }
        "#;
        let analysis = analyze("crates/core/src/table.rs", src);
        assert_eq!(analysis.unsafe_counts.unsafe_tokens, 2);
        assert_eq!(analysis.unsafe_counts.allow_attrs, 1);
    }

    #[test]
    fn waivers_suppress_with_reason_and_fail_without() {
        let src = r#"
            fn decode_x(bytes: &[u8]) -> u8 {
                // lint:allow(decode-index): length pinned by caller contract
                bytes[0]
            }
        "#;
        let analysis = analyze("crates/core/src/codec.rs", src);
        assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
        assert_eq!(analysis.suppressed, 1);

        let src = r#"
            fn decode_x(bytes: &[u8]) -> u8 {
                // lint:allow(decode-index)
                bytes[0]
            }
        "#;
        let analysis = analyze("crates/core/src/codec.rs", src);
        let rules = rules_of(&analysis.findings);
        assert!(rules.contains(&"bad-waiver"), "{rules:?}");
        assert!(rules.contains(&"decode-index"), "{rules:?}");
    }

    #[test]
    fn deref_and_trait_bounds_are_not_arithmetic() {
        let src = r#"
            fn read_x<T: Clone + Send>(buf: &mut &[u8]) -> u8 {
                let v = *buf;
                v.first().copied().unwrap_or(0)
            }
        "#;
        assert!(findings("crates/core/src/codec.rs", src).is_empty());
    }
}
