//! navicim-lint: machine-checks the workspace's determinism and
//! zero-alloc contracts.
//!
//! The reproduction's load-bearing invariants — bit-identical likelihood
//! kernels under any chunk/thread split, fleets bit-identical to solo
//! sessions for any worker count, zero-alloc hot paths,
//! deterministic replay — are invisible to the compiler. This crate
//! turns them into an exit-code check (`cargo run -p navicim-lint`) over
//! `crates/*/src/**.rs` using a string/comment-aware masking lexer
//! ([`lexer`]) and repo-specific rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall-clock` | no `Instant::now`/`SystemTime` outside the bench/serve timing allowlist |
//! | `ambient-rng` | no ambient RNG (`thread_rng`, entropy seeding) — only counter-seeded streams |
//! | `hash-iteration` | no `HashMap`/`HashSet` in result-affecting crates (iteration order) |
//! | `unsafe-safety` | every `unsafe` use preceded by a `// SAFETY:` comment |
//! | `hot-path-panic` | no `unwrap`/`panic!` in hot-path modules; `expect`/`unreachable!` only in files allowlisted with a reason |
//! | `reduction-order` | float reductions in kernel files need a `// lint: reduction-order` ack |
//! | `hot-path-alloc` | no allocating calls inside registered hot-path functions; every registered function exists |
//! | `noise-stream-seq` | batch paths draw noise by absolute `.at(i)`, never sequentially |
//! | `unused-pub` | every `pub` item is named by another file (a `fn` definition of the same name is not a use) or exposed by a surviving item ([`lint_sources`]) |
//!
//! Any finding can be suppressed in place with
//! `// lint: allow(<rule>) <reason>` on the offending line or the line
//! above — the reason string is mandatory, and a reasonless `allow` is
//! itself a finding.

#![forbid(unsafe_code)]

pub mod lexer;
mod unused_pub;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{mask, strip_cfg_test, Comment};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier, e.g. `hash-iteration`.
    pub rule: &'static str,
    /// Human explanation of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule identifiers, the vocabulary accepted by `// lint: allow(...)`.
pub const RULES: &[&str] = &[
    "wall-clock",
    "ambient-rng",
    "hash-iteration",
    "unsafe-safety",
    "hot-path-panic",
    "reduction-order",
    "hot-path-alloc",
    "noise-stream-seq",
    "unused-pub",
];

// ---------------------------------------------------------------------
// Rule scopes: the repo-specific configuration, hardcoded on purpose so
// the lint has no config file to drift from the tree.
// ---------------------------------------------------------------------

/// Files allowed to read the wall clock: measurement code whose *output*
/// is latency, not likelihoods.
const WALL_CLOCK_ALLOW: &[&str] = &[
    // Benches exist to time things.
    "crates/bench/",
    // Fleet rounds report per-agent service time; the clock never feeds
    // any likelihood or control path.
    "crates/serve/src/fleet.rs",
];

/// Crates whose outputs are part of the determinism contract; `bench`
/// only reports timings and the lint itself is not result-affecting.
const HASH_ORDER_EXEMPT: &[&str] = &["crates/bench/", "crates/lint/"];

/// Hot-path modules: the per-frame / per-round loops where a panic
/// aborts a live localization session.
const HOT_PATH_FILES: &[&str] = &[
    "crates/gmm/src/gaussian.rs",
    "crates/gmm/src/hmg.rs",
    "crates/analog/src/engine.rs",
    "crates/serve/src/fleet.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/localization.rs",
    "crates/filter/src/particle.rs",
    "crates/filter/src/filter.rs",
];

/// Per-file allowlist for `expect`/`unreachable!` in hot-path modules.
/// Every entry carries the written reason the remaining sites are sound;
/// `unwrap`/`panic!` stay forbidden even here.
const HOT_PATH_EXPECT_ALLOW: &[(&str, &str)] = &[(
    "crates/filter/src/particle.rs",
    "expects guard non-empty particle sets with finite weights, both validated \
         at construction",
)];

/// Kernel files whose floating-point reductions are part of the
/// bit-identity contract: summation order must be acknowledged.
const REDUCTION_FILES: &[&str] = &[
    "crates/gmm/src/fit.rs",
    "crates/gmm/src/gaussian.rs",
    "crates/gmm/src/hmg.rs",
    "crates/analog/src/engine.rs",
    "crates/math/src/simd.rs",
];

/// Functions registered as hot-path: `(file suffix, fn name)`. Their
/// bodies must not allocate — the zero-alloc steady state asserted at
/// runtime by the `alloc-audit` counting allocator.
const HOT_PATH_FNS: &[(&str, &str)] = &[
    ("crates/core/src/pipeline.rs", "step"),
    ("crates/core/src/pipeline.rs", "weigh_and_report"),
    ("crates/core/src/localization.rs", "stage_scan_batch"),
    ("crates/core/src/localization.rs", "transform_scan"),
    ("crates/core/src/localization.rs", "reduce_scan_lls"),
    ("crates/serve/src/fleet.rs", "step_round"),
    ("crates/serve/src/fleet.rs", "step_inputs"),
    ("crates/serve/src/fleet.rs", "step_chunk"),
    ("crates/gmm/src/gaussian.rs", "log_likelihood_into_policy"),
    ("crates/gmm/src/gaussian.rs", "eval_range"),
    ("crates/gmm/src/gaussian.rs", "eval_range_pruned"),
    ("crates/gmm/src/gaussian.rs", "eval_tiles"),
    ("crates/analog/src/engine.rs", "log_likelihood_into_chunked"),
    ("crates/analog/src/engine.rs", "eval_stream"),
    ("crates/analog/src/engine.rs", "eval_lut"),
    ("crates/analog/src/engine.rs", "finish_tile"),
];

/// Allocating calls forbidden inside hot-path function bodies.
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    ".push(",
    ".collect(",
    "collect::<",
    "format!(",
    "Box::new(",
    "String::new(",
    "String::from(",
    ".to_vec(",
    ".to_string(",
    ".to_owned(",
];

/// Files serving *batches*: noise must be drawn by absolute index so the
/// value cannot depend on chunk/thread assignment.
const BATCH_NOISE_FILES: &[&str] = &["crates/analog/src/engine.rs", "crates/serve/src/"];

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// A parsed `// lint: allow(<rule>) <reason>` directive.
#[derive(Debug, Clone)]
struct Suppression {
    line: usize,
    rule: String,
    has_reason: bool,
}

/// A parsed `// lint: reduction-order` acknowledgment.
#[derive(Debug, Clone)]
struct ReductionAck {
    line: usize,
}

fn parse_directives(comments: &[Comment]) -> (Vec<Suppression>, Vec<ReductionAck>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut acks = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint:") else {
            continue;
        };
        let rest = c.text[pos + "lint:".len()..].trim_start();
        if let Some(tail) = rest.strip_prefix("allow(") {
            let Some(close) = tail.find(')') else {
                errors.push(Finding {
                    file: String::new(),
                    line: c.line,
                    rule: "lint-directive",
                    message: "malformed `lint: allow(` directive: missing `)`".into(),
                });
                continue;
            };
            let rule = tail[..close].trim().to_string();
            let reason = tail[close + 1..].trim();
            allows.push(Suppression {
                line: c.line,
                rule,
                has_reason: !reason.is_empty(),
            });
        } else if rest.starts_with("reduction-order") {
            acks.push(ReductionAck { line: c.line });
        }
    }
    (allows, acks, errors)
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Per-file lint context handed to every rule.
struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    path: &'a str,
    /// Masked, `#[cfg(test)]`-stripped code (same line structure as the
    /// original file).
    code: &'a str,
    /// Line start byte offsets into `code` (index 0 → line 1).
    line_starts: &'a [usize],
    comments: &'a [Comment],
    acks: &'a [ReductionAck],
}

impl FileCtx<'_> {
    /// 1-based line of byte offset `pos` in `code`.
    fn line_of(&self, pos: usize) -> usize {
        line_at(self.line_starts, pos)
    }

    /// Is `pos` preceded/followed by identifier chars (i.e. the match at
    /// `pos..pos+len` is part of a longer identifier)?
    fn is_word(&self, pos: usize, len: usize) -> bool {
        let bytes = self.code.as_bytes();
        let before = pos
            .checked_sub(1)
            .map(|i| bytes[i] as char)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let after = bytes
            .get(pos + len)
            .map(|&b| b as char)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        !before && !after
    }

    /// All occurrences of `needle` in the masked code, as (offset, line).
    fn find_all(&self, needle: &str) -> Vec<(usize, usize)> {
        let mut hits = Vec::new();
        let mut from = 0;
        while let Some(rel) = self.code[from..].find(needle) {
            let pos = from + rel;
            hits.push((pos, self.line_of(pos)));
            from = pos + needle.len();
        }
        hits
    }

    /// Is there a `// lint: reduction-order` ack covering `line`? An ack
    /// covers its own line (trailing comment) plus the statement that
    /// begins on the next code line — through the first line ending in
    /// `;` or `{`, so a multi-line iterator chain is covered whole.
    fn has_reduction_ack(&self, line: usize) -> bool {
        let last = self.line_starts.len();
        for a in self.acks {
            if a.line > line {
                continue;
            }
            let mut start = a.line;
            while start < last && self.is_fluff_line(start) {
                start += 1;
            }
            let mut end = start;
            while end < last {
                let t = self.code_line(end).trim_end();
                if t.ends_with(';') || t.ends_with('{') {
                    break;
                }
                end += 1;
            }
            if (a.line..=end).contains(&line) {
                return true;
            }
        }
        false
    }

    /// Text of 1-based `line` in the masked code (comments are spaces).
    fn code_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.code.len(), |&e| e - 1);
        &self.code[start..end.max(start)]
    }

    /// A "fluff" line carries no code: blank after masking (comments
    /// mask to spaces) or attribute-only.
    fn is_fluff_line(&self, line: usize) -> bool {
        let t = self.code_line(line).trim();
        t.is_empty() || t.starts_with("#[") || t.starts_with("#![")
    }

    /// Does a `// SAFETY:` comment cover `line`? It does when some
    /// SAFETY comment sits on the same line or above it with only fluff
    /// lines in between — i.e. directly above modulo comments/attrs.
    fn safety_covers(&self, line: usize) -> bool {
        for c in self.comments.iter().filter(|c| c.text.contains("SAFETY:")) {
            if c.line > line {
                continue;
            }
            if (c.line..line).all(|l| self.is_fluff_line(l)) {
                return true;
            }
        }
        false
    }
}

fn line_starts(code: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line of byte offset `pos`, given the line start offsets.
fn line_at(starts: &[usize], pos: usize) -> usize {
    match starts.binary_search(&pos) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p) || path == *p)
}

/// Lints one file's source, returning all findings (suppressions already
/// applied). `path` must be workspace-relative with forward slashes.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let masked = mask(source);
    let code = strip_cfg_test(&masked.code);
    let starts = line_starts(&code);
    let (allows, acks, mut directive_errors) = parse_directives(&masked.comments);
    for f in &mut directive_errors {
        f.file = path.to_string();
    }
    let ctx = FileCtx {
        path,
        code: &code,
        line_starts: &starts,
        comments: &masked.comments,
        acks: &acks,
    };

    let mut findings = directive_errors;
    rule_wall_clock(&ctx, &mut findings);
    rule_ambient_rng(&ctx, &mut findings);
    rule_hash_iteration(&ctx, &mut findings);
    rule_unsafe_safety(&ctx, &mut findings);
    rule_hot_path_panic(&ctx, &mut findings);
    rule_reduction_order(&ctx, &mut findings);
    rule_hot_path_alloc(&ctx, &mut findings);
    rule_noise_stream_seq(&ctx, &mut findings);
    let mut out = apply_suppressions(path, &allows, findings);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// The allow covering `line` for `rule`: one on that line or the line
/// directly above.
fn allow_for<'s>(allows: &'s [Suppression], rule: &str, line: usize) -> Option<&'s Suppression> {
    allows
        .iter()
        .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
}

/// Drops each finding a reasoned allow covers; a reasonless allow turns
/// its finding into a `lint-directive` finding.
fn apply_suppressions(path: &str, allows: &[Suppression], findings: Vec<Finding>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in findings {
        match allow_for(allows, f.rule, f.line) {
            Some(a) if a.has_reason => {}
            Some(a) => out.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "lint-directive",
                message: format!(
                    "`lint: allow({})` requires a reason string after the closing paren",
                    f.rule
                ),
            }),
            None => out.push(f),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn push(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, line: usize, rule: &'static str, msg: String) {
    out.push(Finding {
        file: ctx.path.to_string(),
        line,
        rule,
        message: msg,
    });
}

/// Rule 1: replay determinism — no wall-clock reads outside measurement
/// code. A clock read that feeds any decision breaks record/replay.
fn rule_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if in_scope(ctx.path, WALL_CLOCK_ALLOW) {
        return;
    }
    for token in ["Instant::now", "SystemTime"] {
        for (pos, line) in ctx.find_all(token) {
            if !ctx.is_word(pos, token.len()) {
                continue;
            }
            push(
                ctx,
                out,
                line,
                "wall-clock",
                format!(
                    "`{token}` outside the bench/serve timing allowlist breaks replay determinism"
                ),
            );
        }
    }
}

/// Rule 2: all randomness must come from explicitly seeded, counter-based
/// streams; ambient RNG makes runs unreproducible.
fn rule_ambient_rng(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for token in [
        "thread_rng",
        "from_entropy",
        "OsRng",
        "rand::random",
        "getrandom",
    ] {
        for (pos, line) in ctx.find_all(token) {
            if !ctx.is_word(pos, token.len()) {
                continue;
            }
            push(
                ctx,
                out,
                line,
                "ambient-rng",
                format!("`{token}` is ambient randomness; use an explicitly seeded counter stream"),
            );
        }
    }
}

/// Rule 3: `HashMap`/`HashSet` iteration order varies per process, which
/// silently reorders float reductions and output listings. Use
/// `BTreeMap` or index order in result-affecting crates.
fn rule_hash_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if in_scope(ctx.path, HASH_ORDER_EXEMPT) {
        return;
    }
    for token in ["HashMap", "HashSet"] {
        for (pos, line) in ctx.find_all(token) {
            if !ctx.is_word(pos, token.len()) {
                continue;
            }
            push(
                ctx,
                out,
                line,
                "hash-iteration",
                format!(
                    "`{token}` has nondeterministic iteration order; use `BTreeMap`/index order"
                ),
            );
        }
    }
}

/// Rule 4: every `unsafe` use must be justified by a `// SAFETY:`
/// comment directly above it (attribute lines, blank lines, and further
/// comment lines may sit between the comment and the `unsafe`).
fn rule_unsafe_safety(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (pos, line) in ctx.find_all("unsafe") {
        if !ctx.is_word(pos, "unsafe".len()) {
            continue;
        }
        if !ctx.safety_covers(line) {
            push(
                ctx,
                out,
                line,
                "unsafe-safety",
                "`unsafe` without a `// SAFETY:` comment directly above".into(),
            );
        }
    }
}

/// Rule 5: a panic in a hot-path module kills a live session mid-round.
/// `unwrap`/`panic!`/`todo!`/`unimplemented!` are always forbidden
/// there; `expect`/`unreachable!` (which at least document the violated
/// invariant) are allowed only in files allowlisted with a reason.
fn rule_hot_path_panic(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&ctx.path) {
        return;
    }
    for token in [".unwrap()", "panic!(", "todo!(", "unimplemented!("] {
        for (_, line) in ctx.find_all(token) {
            push(
                ctx,
                out,
                line,
                "hot-path-panic",
                format!("`{token}` in a hot-path module aborts a live session"),
            );
        }
    }
    let expect_allowed = HOT_PATH_EXPECT_ALLOW.iter().any(|(f, _)| *f == ctx.path);
    if expect_allowed {
        return;
    }
    for token in [".expect(", "unreachable!("] {
        for (_, line) in ctx.find_all(token) {
            push(
                ctx,
                out,
                line,
                "hot-path-panic",
                format!(
                    "`{token}` in a hot-path module not on the expect allowlist; \
                     add the file with a written reason or return an error"
                ),
            );
        }
    }
}

/// Rule 6: float summation order is part of the bit-identity contract.
/// Every reduction in a kernel file must carry a nearby
/// `// lint: reduction-order` acknowledgment that the order was chosen
/// deliberately (and matches the scalar path).
fn rule_reduction_order(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !REDUCTION_FILES.contains(&ctx.path) {
        return;
    }
    for token in [".sum::<f64>()", ".fold("] {
        for (_, line) in ctx.find_all(token) {
            if ctx.has_reduction_ack(line) {
                continue;
            }
            push(
                ctx,
                out,
                line,
                "reduction-order",
                format!(
                    "float reduction `{token}` in a kernel file needs a \
                     `// lint: reduction-order` ack (summation order is part of bit-identity)"
                ),
            );
        }
    }
}

/// Finds the body span (byte range) of `fn name` in masked code, for
/// every definition of that name: from the `fn` keyword's `{{` to its
/// matching `}}`.
fn fn_bodies(code: &str, name: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let needle = format!("fn {name}");
    let mut bodies = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(&needle) {
        let pos = from + rel;
        from = pos + needle.len();
        // Word boundaries: `fn step` must not match `fn step_round`.
        let after = bytes.get(pos + needle.len()).copied();
        if matches!(after, Some(b) if (b as char).is_ascii_alphanumeric() || b == b'_') {
            continue;
        }
        // Find the opening brace of the body. Signature parens/generics
        // may nest, but the first `{` at angle/paren depth 0 is the body
        // (where-clauses contain no braces in this codebase).
        let mut i = pos + needle.len();
        let mut paren = 0i64;
        let mut body_start = None;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'{' if paren == 0 => {
                    body_start = Some(i);
                    break;
                }
                b';' if paren == 0 => break, // trait method decl, no body
                _ => {}
            }
            i += 1;
        }
        let Some(start) = body_start else { continue };
        let mut depth = 0i64;
        let mut end = bytes.len();
        for (j, &b) in bytes.iter().enumerate().skip(start) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        bodies.push((start, end));
    }
    bodies
}

/// Rule 7: registered hot-path functions hold the zero-alloc steady
/// state the `alloc-audit` allocator asserts at runtime; the lint keeps
/// allocating calls from creeping in between audit runs.
fn rule_hot_path_alloc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let fns: Vec<&str> = HOT_PATH_FNS
        .iter()
        .filter(|(f, _)| *f == ctx.path)
        .map(|(_, name)| *name)
        .collect();
    if fns.is_empty() {
        return;
    }
    for name in fns {
        for (start, end) in fn_bodies(ctx.code, name) {
            for token in ALLOC_TOKENS {
                let mut from = start;
                while let Some(rel) = ctx.code[from..end].find(token) {
                    let pos = from + rel;
                    from = pos + token.len();
                    let line = ctx.line_of(pos);
                    push(
                        ctx,
                        out,
                        line,
                        "hot-path-alloc",
                        format!("allocating call `{token}` inside hot-path fn `{name}`"),
                    );
                }
            }
        }
    }
}

/// Rule 8: batch paths must draw noise by absolute index (`.at(i)`), so
/// the value a query sees cannot depend on chunk/thread assignment.
/// Sequential draws (`next_z`) and cursor moves (`advance`) in batch
/// files are flagged.
fn rule_noise_stream_seq(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !in_scope(ctx.path, BATCH_NOISE_FILES) {
        return;
    }
    for token in [".next_z(", ".advance("] {
        for (_, line) in ctx.find_all(token) {
            push(
                ctx,
                out,
                line,
                "noise-stream-seq",
                format!(
                    "sequential noise-stream call `{token}` in a batch path; \
                     draw by absolute index with `.at(i)`"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// What [`lint_tree`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeReport {
    /// Every finding, suppressions applied.
    pub findings: Vec<Finding>,
    /// Lines outside `#[cfg(test)]` items in `crates/*/src`, `src/` and
    /// `examples/` — the workspace's production size.
    pub non_test_lines: usize,
}

/// Directories, relative to the workspace root, whose `.rs` files can
/// use a `pub` item of the linted crates.
const USE_DIRS: &[&str] = &["crates", "src", "tests", "examples", "perfbench/src"];

/// Is `path` linted, rather than only read for uses: a
/// `crates/<name>/src/` file outside the lint crate, whose rule tables
/// and tests necessarily spell the forbidden tokens.
fn is_lint_target(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some_and(|c| c != "lint")
        && parts.next() == Some("src")
}

/// Is `path` production code counted by [`TreeReport::non_test_lines`]?
fn is_counted(path: &str) -> bool {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.nth(1) == Some("src"),
        Some("src" | "examples") => true,
        _ => false,
    }
}

/// Lints every `crates/*/src/**.rs` under `root` (the workspace root),
/// with the `.rs` files of `USE_DIRS` as the `unused-pub` use sites.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_tree(root: &Path) -> std::io::Result<TreeReport> {
    let mut files = Vec::new();
    for dir in USE_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut sources = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&file)?));
    }
    let non_test_lines = sources
        .iter()
        .filter(|(rel, _)| is_counted(rel))
        .map(|(_, src)| lexer::non_test_lines(src))
        .sum();
    let findings = lint_sources(
        sources
            .iter()
            .map(|(rel, src)| (rel.as_str(), src.as_str())),
    );
    Ok(TreeReport {
        findings,
        non_test_lines,
    })
}

/// Lints a set of `(workspace-relative path, source)` files. Each
/// `crates/<name>/src/` file outside the lint crate gets every per-file
/// rule ([`lint_source`]), plus two cross-file checks:
///
/// - a `hot-path-alloc` finding for each registered hot-path function
///   entry whose file is missing from the set or defines no `fn` of that
///   name. Such a stale entry would otherwise guard nothing, silently,
///   after a function is renamed or deleted;
/// - `unused-pub`: a `pub` item whose name occurs in no other file of
///   the set (other than as the name a `fn` defines), and that no
///   surviving item exposes (see the `unused_pub` module).
///
/// Every file of the set, linted or not, is a use site for `unused-pub`.
pub fn lint_sources<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> Vec<Finding> {
    let files: Vec<(&str, &str)> = files.into_iter().collect();
    let masked: Vec<_> = files.iter().map(|(_, src)| mask(src)).collect();
    let index: Vec<_> = masked
        .iter()
        .map(|m| unused_pub::ident_set(&m.code))
        .collect();
    let mut findings = Vec::new();
    let mut registered = vec![false; HOT_PATH_FNS.len()];
    let mut targets = Vec::new();
    for (f, &(path, source)) in files.iter().enumerate() {
        if !is_lint_target(path) {
            continue;
        }
        findings.extend(lint_source(path, source));
        let code = strip_cfg_test(&masked[f].code);
        for (seen, (file, name)) in registered.iter_mut().zip(HOT_PATH_FNS) {
            *seen |= *file == path && !fn_bodies(&code, name).is_empty();
        }
        targets.push((f, code));
    }
    for (seen, (file, name)) in registered.iter().zip(HOT_PATH_FNS) {
        if !seen {
            findings.push(Finding {
                file: file.to_string(),
                line: 1,
                rule: "hot-path-alloc",
                message: format!(
                    "stale HOT_PATH_FNS entry: `{file}` defines no `fn {name}`; \
                     update or remove the entry"
                ),
            });
        }
    }
    findings.extend(rule_unused_pub(&files, &masked, &index, &targets));
    findings
}

/// The `unused-pub` rule over the linted `targets` (file index, stripped
/// masked code); see the `unused_pub` module for the survival rules.
fn rule_unused_pub(
    files: &[(&str, &str)],
    masked: &[lexer::Masked],
    index: &[std::collections::HashSet<&str>],
    targets: &[(usize, String)],
) -> Vec<Finding> {
    struct Item<'a> {
        file: usize,
        allows: usize,
        pub_item: unused_pub::PubItem<'a>,
        alive: bool,
    }
    let mut allows = Vec::new();
    let mut items = Vec::new();
    for (f, code) in targets {
        let starts = line_starts(code);
        let (file_allows, _, _) = parse_directives(&masked[*f].comments);
        for pub_item in unused_pub::pub_items(code, |pos| line_at(&starts, pos)) {
            let named_elsewhere = index
                .iter()
                .enumerate()
                .any(|(g, ids)| g != *f && ids.contains(pub_item.name));
            let allowed =
                allow_for(&file_allows, "unused-pub", pub_item.line).is_some_and(|a| a.has_reason);
            items.push(Item {
                file: *f,
                allows: allows.len(),
                alive: named_elsewhere || allowed,
                pub_item,
            });
        }
        allows.push(file_allows);
    }
    // Exposure to a fixed point: a surviving item keeps alive every item
    // its signature, public fields or body name.
    let mut exposed = std::collections::HashSet::new();
    loop {
        for it in items.iter().filter(|it| it.alive) {
            exposed.extend(it.pub_item.exposes.iter().copied());
        }
        let mut grew = false;
        for it in items.iter_mut().filter(|it| !it.alive) {
            if exposed.contains(it.pub_item.name) {
                it.alive = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let mut out = Vec::new();
    for it in items.iter().filter(|it| !it.alive) {
        let path = files[it.file].0;
        let finding = Finding {
            file: path.to_string(),
            line: it.pub_item.line,
            rule: "unused-pub",
            message: format!(
                "`pub` item `{}` is named by no other file and exposed by no surviving item; \
                 delete it, narrow its visibility, or allow it with a reason",
                it.pub_item.name
            ),
        };
        out.extend(apply_suppressions(path, &allows[it.allows], vec![finding]));
    }
    out
}
