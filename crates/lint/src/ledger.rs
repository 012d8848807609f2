//! Parser for `UNSAFE_LEDGER.md` — the checked-in registry every
//! `unsafe` site must appear in.
//!
//! The ledger is ordinary Markdown with a machine-readable skeleton: one
//! `## <path>` section per file containing unsafe code, with four
//! required fields. Example:
//!
//! ```markdown
//! ## crates/core/src/table.rs
//! - unsafe-tokens: 1
//! - allow-attrs: 1
//! - justification: software prefetch hint; std has no stable API.
//! - cross-check: kernel_differential pins batch state to scalar state.
//! ```
//!
//! `unsafe-tokens` counts occurrences of the `unsafe` keyword in the
//! file (blocks, `unsafe fn`, `unsafe impl`); `allow-attrs` counts
//! `#[allow(unsafe_code)]` attributes. Both must match the scanner's
//! counts exactly, so adding, removing, or moving unsafe code forces a
//! ledger edit (and therefore a reviewed justification) to keep CI green.

use std::collections::BTreeMap;

/// One `## <path>` section of the ledger.
#[derive(Debug, Default, Clone)]
pub struct LedgerEntry {
    /// Line of the `##` heading, for error reporting.
    pub line: u32,
    /// Declared number of `unsafe` keyword tokens in the file.
    pub unsafe_tokens: Option<u64>,
    /// Declared number of `#[allow(unsafe_code)]` attributes.
    pub allow_attrs: Option<u64>,
    /// Why the unsafe code exists.
    pub justification: String,
    /// Pointer to the portable cross-check (test/CI job) that pins it.
    pub cross_check: String,
}

/// The parsed ledger: workspace-relative path → entry.
#[derive(Debug, Default)]
pub struct Ledger {
    pub entries: BTreeMap<String, LedgerEntry>,
    /// Structural problems found while parsing (duplicate sections,
    /// unparsable counts). Reported as findings against the ledger file.
    pub problems: Vec<(u32, String)>,
}

/// Parses ledger markdown. Never fails: malformed input surfaces as
/// `problems`, which the caller turns into lint findings.
pub fn parse(src: &str) -> Ledger {
    let mut ledger = Ledger::default();
    let mut current: Option<String> = None;
    for (idx, raw) in src.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if let Some(heading) = line.strip_prefix("## ") {
            let path = heading.trim().trim_matches('`').to_string();
            if ledger.entries.contains_key(&path) {
                ledger
                    .problems
                    .push((line_no, format!("duplicate ledger section for {path}")));
                current = None;
                continue;
            }
            ledger.entries.insert(
                path.clone(),
                LedgerEntry {
                    line: line_no,
                    ..LedgerEntry::default()
                },
            );
            current = Some(path);
            continue;
        }
        let Some(path) = &current else { continue };
        let Some(field) = line.strip_prefix("- ") else {
            continue;
        };
        let Some((key, value)) = field.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let entry = ledger
            .entries
            .get_mut(path)
            .expect("current always points at an inserted entry");
        match key.trim() {
            "unsafe-tokens" => match value.parse::<u64>() {
                Ok(n) => entry.unsafe_tokens = Some(n),
                Err(_) => ledger
                    .problems
                    .push((line_no, format!("unparsable unsafe-tokens count `{value}`"))),
            },
            "allow-attrs" => match value.parse::<u64>() {
                Ok(n) => entry.allow_attrs = Some(n),
                Err(_) => ledger
                    .problems
                    .push((line_no, format!("unparsable allow-attrs count `{value}`"))),
            },
            "justification" => entry.justification = value.to_string(),
            "cross-check" => entry.cross_check = value.to_string(),
            _ => {}
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_fields() {
        let src = "\
# Unsafe ledger

## crates/core/src/table.rs
Some prose.
- unsafe-tokens: 3
- allow-attrs: 3
- justification: SIMD scan.
- cross-check: portable-scan CI job.

## crates/core/src/persist/mod.rs
- unsafe-tokens: 2
- allow-attrs: 2
- justification: CRC32C intrinsics.
- cross-check: RFC 3720 vectors vs software path.
";
        let ledger = parse(src);
        assert!(ledger.problems.is_empty());
        assert_eq!(ledger.entries.len(), 2);
        let t = &ledger.entries["crates/core/src/table.rs"];
        assert_eq!(t.unsafe_tokens, Some(3));
        assert_eq!(t.allow_attrs, Some(3));
        assert_eq!(t.justification, "SIMD scan.");
        assert!(t.cross_check.contains("portable-scan"));
    }

    #[test]
    fn duplicates_and_bad_counts_are_problems() {
        let src = "\
## a.rs
- unsafe-tokens: lots
## a.rs
- unsafe-tokens: 1
";
        let ledger = parse(src);
        assert_eq!(ledger.problems.len(), 2);
    }
}
