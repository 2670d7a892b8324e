//! `higgs-lint`: a from-scratch static-analysis pass for this workspace.
//!
//! The build environment has no registry access, so the usual ecosystem
//! tooling (`syn`-based lints, Miri, loom, cargo-geiger) is unavailable; this
//! crate implements the conventions the codebase relies on as a small,
//! self-contained scanner in the same spirit as `crates/shims/`. Run it with:
//!
//! ```text
//! cargo run -p xtask -- lint [--json <path>]
//! ```
//!
//! # Static analysis
//!
//! The `lint` subcommand walks every `.rs` file in the workspace (excluding
//! `target/` and the lint's own fixture corpus) and enforces seven rules:
//!
//! | rule | meaning |
//! |------|---------|
//! | `unsafe-safety-comment` | every `unsafe` block/fn/impl is immediately preceded by a non-empty `// SAFETY:` rationale (an `unsafe fn`'s doc `# Safety` section also counts) |
//! | `atomic-ordering-comment` | every `Ordering::*` use outside `crates/shims/` carries an `// ORDERING:` justification on or directly above the line, or matches a config allowlist entry |
//! | `hot-path-panic` | `unwrap()` / `expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` / slice-indexing `x[..]` are forbidden in the declared hot-path modules outside `#[cfg(test)]` code and `debug_assert!` spans |
//! | `feature-gate-pairing` | every `#[cfg(feature = "X")]`-gated item in library code has a `not(feature = "X")` twin (or `cfg!(feature = "X")` runtime dispatch) in the same file, so a default build never loses a symbol |
//! | `bench-baseline-sync` | every Criterion bench id covered by the CI perf gate appears in its committed `BENCH_*.json` baseline and vice versa, and every committed baseline is wired into CI |
//! | `error-variant-coverage` | every variant of the configured error enums is constructed somewhere outside its definition (and outside its `impl ... for` blocks) and named in at least one test |
//! | `durability-io-panic` | `unwrap()` / `expect(` on non-lock calls are forbidden in the declared durability modules (journal/snapshot I/O and the codec that decodes their bytes) outside `#[cfg(test)]` code — a disk fault must surface as a typed error, not a dead writer thread |
//!
//! Diagnostics are reported as `file:line: [rule] message`, and `--json`
//! additionally writes a machine-readable report for CI annotation.
//!
//! # Suppression policy
//!
//! A finding is suppressed per-site with a justification tag:
//!
//! ```text
//! // LINT-ALLOW(<rule>): <reason>
//! ```
//!
//! * trailing on the offending line — suppresses that line;
//! * on its own line directly above a statement — suppresses that statement's
//!   line;
//! * on its own line directly above an `fn` item — suppresses the whole
//!   function body (intended for tight kernel loops where one documented
//!   invariant covers every access).
//!
//! A tag with an unknown rule name, an empty reason, or no statement beneath
//! it is itself a diagnostic (rule `lint-allow`), so suppressions can never
//! rot silently. Prefer line-level tags; use function-level tags only where
//! the invariant genuinely covers the whole body, and state that invariant in
//! the reason.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod rules;
pub mod scan;

use scan::SourceFile;

/// The rules the lint pass knows about (used to validate `LINT-ALLOW` tags).
pub const KNOWN_RULES: &[&str] = &[
    rules::safety::RULE,
    rules::ordering::RULE,
    rules::panic_free::RULE,
    rules::feature_gate::RULE,
    rules::bench_baseline::RULE,
    rules::error_coverage::RULE,
    rules::io_unwrap::RULE,
    RULE_LINT_ALLOW,
];

/// Pseudo-rule for malformed `LINT-ALLOW` tags.
pub const RULE_LINT_ALLOW: &str = "lint-allow";

/// One finding, pointing at a 1-based line of a workspace-relative file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (one of [`KNOWN_RULES`]).
    pub rule: &'static str,
    /// Path relative to the lint root, `/`-separated.
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Render as `file:line: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// What the lint pass checks and where. Tests point this at fixture trees;
/// [`LintConfig::workspace_default`] describes the real workspace.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directory the relative paths below resolve against.
    pub root: PathBuf,
    /// Rel-path suffixes of the hot-path modules for `hot-path-panic`.
    pub hot_paths: Vec<String>,
    /// `(rel-path suffix, line substring)` pairs exempt from
    /// `atomic-ordering-comment`; each entry documents *why* inline here.
    pub ordering_allowlist: Vec<(String, String)>,
    /// Rel-path prefixes whose files are exempt from the ordering rule
    /// (the shims implement the atomics API itself).
    pub ordering_exempt: Vec<String>,
    /// `(rel file, enum name)` pairs for `error-variant-coverage`.
    pub error_enums: Vec<(String, String)>,
    /// Rel-path suffixes of the durability modules for `durability-io-panic`.
    pub durability_paths: Vec<String>,
    /// Rel path of the CI workflow for `bench-baseline-sync` (None disables).
    pub ci_file: Option<String>,
    /// Rel dir containing Criterion bench sources.
    pub bench_dir: String,
    /// Rel dir containing the committed `BENCH_*.json` baselines.
    pub baseline_dir: String,
    /// Rel-path prefixes to skip entirely when walking.
    pub skip: Vec<String>,
}

impl LintConfig {
    /// The configuration for this repository.
    pub fn workspace_default(root: &Path) -> LintConfig {
        LintConfig {
            root: root.to_path_buf(),
            hot_paths: vec![
                "crates/higgs/src/matrix.rs".into(),
                "crates/higgs/src/query.rs".into(),
                "crates/higgs/src/overflow.rs".into(),
                "crates/common/src/simd.rs".into(),
                "crates/sketch/src/gss.rs".into(),
            ],
            ordering_allowlist: vec![
                // LIVE_WRITERS is a test-support diagnostic counter; its
                // SeqCst sites are self-describing and carry a module-level
                // rationale in shard.rs.
                ("crates/higgs/src/shard.rs".into(), "LIVE_WRITERS".into()),
            ],
            ordering_exempt: vec!["crates/shims/".into(), "crates/xtask/".into()],
            error_enums: vec![
                (
                    "crates/higgs/src/snapshot.rs".into(),
                    "SnapshotError".into(),
                ),
                ("crates/higgs/src/config.rs".into(), "ConfigError".into()),
                ("crates/higgs/src/shard.rs".into(), "IngestError".into()),
                ("crates/higgs/src/serving.rs".into(), "ServiceError".into()),
                ("crates/higgs/src/journal.rs".into(), "JournalError".into()),
                ("crates/higgs/src/reshard.rs".into(), "ReshardError".into()),
                ("crates/higgs/src/replica.rs".into(), "ReplicaError".into()),
            ],
            durability_paths: vec![
                "crates/common/src/codec.rs".into(),
                "crates/higgs/src/framing.rs".into(),
                "crates/higgs/src/journal.rs".into(),
                "crates/higgs/src/snapshot.rs".into(),
                "crates/higgs/src/history.rs".into(),
                "crates/higgs/src/reshard.rs".into(),
                "crates/higgs/src/replica.rs".into(),
            ],
            ci_file: Some(".github/workflows/ci.yml".into()),
            bench_dir: "crates/bench/benches".into(),
            baseline_dir: String::new(),
            skip: vec![
                "target".into(),
                ".git".into(),
                "crates/xtask/fixtures".into(),
            ],
        }
    }
}

/// Per-file suppression spans, keyed by rule name.
#[derive(Debug, Default)]
pub struct Suppressions {
    spans: BTreeMap<String, Vec<(usize, usize)>>,
}

impl Suppressions {
    /// Is `line` (0-based) suppressed for `rule`?
    pub fn allows(&self, rule: &str, line: usize) -> bool {
        self.spans
            .get(rule)
            .is_some_and(|v| v.iter().any(|&(s, e)| s <= line && line <= e))
    }
}

/// Parse all `LINT-ALLOW` tags in `sf`, resolving each to a suppression span.
/// Malformed tags are reported into `diags` under [`RULE_LINT_ALLOW`].
pub fn collect_suppressions(sf: &SourceFile, diags: &mut Vec<Diagnostic>) -> Suppressions {
    let mut sup = Suppressions::default();
    for i in 0..sf.len() {
        let Some(comment) = &sf.lines[i].comment else {
            continue;
        };
        // A tag is a plain `//` comment that *begins* with LINT-ALLOW; doc
        // comments and prose that merely mention the marker are not tags.
        if sf.lines[i].is_doc || !comment.trim_start().starts_with("LINT-ALLOW") {
            continue;
        }
        let pos = comment.find("LINT-ALLOW").unwrap_or(0);
        let rest = &comment[pos + "LINT-ALLOW".len()..];
        let bad = |msg: &str, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                rule: RULE_LINT_ALLOW,
                file: sf.rel.clone(),
                line: i + 1,
                message: msg.to_string(),
            });
        };
        let Some(stripped) = rest.strip_prefix('(') else {
            bad(
                "malformed LINT-ALLOW tag: expected `LINT-ALLOW(<rule>): <reason>`",
                diags,
            );
            continue;
        };
        let Some(close) = stripped.find(')') else {
            bad("malformed LINT-ALLOW tag: missing `)`", diags);
            continue;
        };
        let rule = stripped[..close].trim().to_string();
        let after = &stripped[close + 1..];
        if !KNOWN_RULES.contains(&rule.as_str()) {
            bad(&format!("LINT-ALLOW names unknown rule `{rule}`"), diags);
            continue;
        }
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if !after.starts_with(':') || reason.is_empty() {
            bad(
                &format!("LINT-ALLOW({rule}) has no reason; write `LINT-ALLOW({rule}): <why>`"),
                diags,
            );
            continue;
        }
        // Resolve the span the tag covers.
        let span = if !sf.lines[i].code.trim().is_empty() {
            Some((i, i)) // trailing tag: this line only
        } else {
            resolve_standalone_span(sf, i)
        };
        match span {
            Some(s) => sup.spans.entry(rule).or_default().push(s),
            None => bad("LINT-ALLOW tag has no statement beneath it", diags),
        }
    }
    sup
}

/// A standalone tag at line `i` covers the next code line; if that line
/// begins an `fn` item, it covers the whole function body.
fn resolve_standalone_span(sf: &SourceFile, i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    while j < sf.len() {
        let line = &sf.lines[j];
        let code = line.code.trim();
        if code.is_empty() && line.comment.is_some() {
            j += 1; // rest of the comment block
            continue;
        }
        if code.starts_with("#[") {
            j += 1; // attributes between the tag and the item
            continue;
        }
        if code.is_empty() {
            return None; // blank line breaks attachment
        }
        // Found the target line.
        if !scan::word_positions(code, "fn").is_empty() {
            let end = sf.matching_close(j, 0).unwrap_or(j);
            return Some((j, end));
        }
        return Some((j, j));
    }
    None
}

/// Walk `cfg.root` for `.rs` files, honouring `cfg.skip`. Paths are returned
/// relative to the root, sorted, `/`-separated.
pub fn walk_rs_files(cfg: &LintConfig) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![cfg.root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(&cfg.root, &path);
            if cfg
                .skip
                .iter()
                .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
            {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run the full lint pass over the configured tree.
pub fn run_lint(cfg: &LintConfig) -> io::Result<Vec<Diagnostic>> {
    let rels = walk_rs_files(cfg)?;
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        let text = fs::read_to_string(cfg.root.join(rel))?;
        files.push(SourceFile::parse(rel, &text));
    }

    let mut tag_diags = Vec::new();
    let mut sups = Vec::with_capacity(files.len());
    for sf in &files {
        sups.push(collect_suppressions(sf, &mut tag_diags));
    }

    let mut raw = Vec::new();
    for sf in &files {
        rules::safety::check(sf, &mut raw);
        rules::ordering::check(cfg, sf, &mut raw);
        rules::panic_free::check(cfg, sf, &mut raw);
        rules::feature_gate::check(sf, &mut raw);
        rules::io_unwrap::check(cfg, sf, &mut raw);
    }
    rules::bench_baseline::check(cfg, &mut raw)?;
    rules::error_coverage::check(cfg, &files, &mut raw);

    // Apply suppressions (line numbers in diagnostics are 1-based).
    let index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel.as_str(), i))
        .collect();
    let mut out = tag_diags;
    for d in raw {
        let suppressed = d.line > 0
            && index
                .get(d.file.as_str())
                .is_some_and(|&i| sups[i].allows(d.rule, d.line - 1));
        if !suppressed {
            out.push(d);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

/// Run only the per-file rules (1–4 and 7) plus suppression handling on one
/// file. Fixture tests use this to exercise a rule in isolation.
pub fn lint_single(cfg: &LintConfig, rel: &str, text: &str) -> Vec<Diagnostic> {
    let sf = SourceFile::parse(rel, text);
    let mut tag_diags = Vec::new();
    let sup = collect_suppressions(&sf, &mut tag_diags);
    let mut raw = Vec::new();
    rules::safety::check(&sf, &mut raw);
    rules::ordering::check(cfg, &sf, &mut raw);
    rules::panic_free::check(cfg, &sf, &mut raw);
    rules::feature_gate::check(&sf, &mut raw);
    rules::io_unwrap::check(cfg, &sf, &mut raw);
    let mut out = tag_diags;
    for d in raw {
        if d.line == 0 || !sup.allows(d.rule, d.line - 1) {
            out.push(d);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Serialise diagnostics as a small JSON document for CI annotation.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("{\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(d.rule),
            json_str(&d.file),
            d.line,
            json_str(&d.message)
        ));
    }
    s.push_str(&format!("],\"count\":{}}}", diags.len()));
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
