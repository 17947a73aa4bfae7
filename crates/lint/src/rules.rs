//! The rule engine: per-file checks R1/R2/R4/R5 over the token stream.
//!
//! Rule names (used in reports and `allow(...)` suppressions):
//!
//! * `panic` (R1) — no `unwrap`/`expect`/`panic!`-family macros/slice
//!   indexing in decode-path modules;
//! * `arith` (R2) — no narrowing `as` casts and no unchecked `+`/`*` on
//!   length/offset-flavoured identifiers in wire-parsing modules;
//! * `wire` (R3) — wire-constant single source of truth (implemented in
//!   [`crate::wirecheck`], reported under this name);
//! * `unsafe` (R4) — `unsafe` appears only in per-file allowlisted
//!   locations (the allowlist ships empty);
//! * `suppress` (R5) — suppression comments must be well-formed and
//!   carry a justification;
//! * `span` (R6) — `let _ = span(..)` drops the RAII span guard on the
//!   same statement, timing an empty scope; bind it to a named
//!   underscore-prefixed variable (`let _guard = span(..)`) instead.
//!
//! Suppression syntax: `// tac-lint: allow(<rule>[, <rule>]) -- <why>`.
//! A suppression on the same line as code covers that line; on its own
//! line it covers the next item — the whole body when that item is a
//! `fn` (encoder-side functions whose index arithmetic is structurally
//! in-bounds use this), otherwise through the end of the statement.
//! `unsafe` and `suppress` findings cannot be comment-suppressed:
//! `unsafe` goes through the allowlist, and a suppression cannot excuse
//! itself.

use crate::lexer::{lex, Token, TokenKind};

/// R1: no panic-capable constructs. These modules parse or act on
/// attacker-controlled bytes; a panic is a denial of service.
pub const DECODE_PATH_MODULES: &[&str] = &[
    "crates/amr/src/mask.rs",
    "crates/core/src/container.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/roi.rs",
    "crates/core/src/extract.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/grid.rs",
    "crates/core/src/select.rs",
    "crates/core/src/zmesh.rs",
    "crates/core/src/segment.rs",
    "crates/core/src/pipeline.rs",
    "crates/codec/src/wire.rs",
    "crates/codec/src/sz/compress.rs",
    "crates/codec/src/sz/huffman.rs",
    "crates/codec/src/sz/bitstream.rs",
    "crates/codec/src/sz/lossless.rs",
    "crates/codec/src/pco.rs",
    "crates/codec/src/pco_ans.rs",
    "crates/codec/src/ans.rs",
    "crates/codec/src/bins.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/export.rs",
];

/// R2: lengths and offsets in these modules come off the wire; bare
/// `+`/`*` can overflow and `as` truncation can alias distinct values.
pub const WIRE_ARITH_MODULES: &[&str] = &[
    "crates/amr/src/mask.rs",
    "crates/core/src/container.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/select.rs",
    "crates/core/src/roi.rs",
    "crates/core/src/grid.rs",
    "crates/core/src/zmesh.rs",
    "crates/core/src/segment.rs",
    "crates/codec/src/wire.rs",
    "crates/codec/src/container.rs",
    "crates/codec/src/sz/compress.rs",
    "crates/codec/src/sz/huffman.rs",
    "crates/codec/src/sz/lossless.rs",
    "crates/codec/src/pco.rs",
    "crates/codec/src/pco_ans.rs",
    "crates/codec/src/ans.rs",
    "crates/codec/src/bins.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/export.rs",
];

/// R4 per-file allowlist: `(path suffix, justification)`. Ships empty —
/// the workspace is `unsafe`-free and library crates `forbid` it.
pub const UNSAFE_ALLOWLIST: &[(&str, &str)] = &[];

/// All rule names, for validating `allow(...)` arguments.
pub const ALL_RULES: &[&str] = &["panic", "arith", "wire", "unsafe", "suppress", "span"];

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// A parsed `tac-lint: allow(...)` comment and the line range it covers.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the comment itself.
    pub line: u32,
    /// Rules it suppresses.
    pub rules: Vec<String>,
    /// Mandatory `-- why` text.
    pub justification: String,
    /// First line covered.
    pub line_lo: u32,
    /// Last line covered.
    pub line_hi: u32,
    /// Whether it actually suppressed a finding.
    pub used: bool,
}

/// A `const NAME: … = …;` item, with its value decoded when it is a
/// plain integer or byte-string literal (what wire constants are).
#[derive(Debug, Clone)]
pub struct ConstDecl {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `const` keyword.
    pub line: u32,
    /// Constant name.
    pub name: String,
    /// Integer value, when the initializer is a single integer literal.
    pub int: Option<u64>,
    /// Byte-string value, when the initializer contains one.
    pub bytes: Option<Vec<u8>>,
}

/// Everything the per-file pass extracts; [`crate::wirecheck`] runs the
/// cross-file R3 checks over the collection.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// Findings after suppression filtering.
    pub violations: Vec<Violation>,
    /// Suppressions found (used or not).
    pub suppressions: Vec<Suppression>,
    /// Constants declared outside test code.
    pub consts: Vec<ConstDecl>,
    /// Byte-string literals in non-test code: `(bytes, line)`.
    pub byte_strings: Vec<(Vec<u8>, u32)>,
    /// Integer literals in non-test code, outside `CHUNK_ROW_BYTES_*`
    /// declarations: `(value, line, col)`.
    pub bare_ints: Vec<(u64, u32, u32)>,
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while",
];

const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier stems that mark a value as a length/offset/count — the
/// operands R2 requires checked arithmetic on.
const LEN_SUFFIXES: &[&str] = &[
    "len", "length", "pos", "off", "offset", "end", "idx", "count", "size", "bytes",
];
const LEN_EXACT: &[&str] = &["n", "consumed", "remaining"];

fn is_len_flavored(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    LEN_EXACT.contains(&lower.as_str()) || LEN_SUFFIXES.iter().any(|s| lower.ends_with(s))
}

fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// Whether `path` (workspace-relative, forward slashes) is test-only
/// code: integration tests, benches, and anything under `tests/`.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
}

fn in_module_list(path: &str, list: &[&str]) -> bool {
    list.iter().any(|m| path.ends_with(m))
}

/// Runs the per-file rules over `src`, treating it as the file at
/// workspace-relative `path` (module membership is decided by suffix).
pub fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let tokens = lex(src);
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].is_significant())
        .collect();
    let test_regions = find_test_regions(&tokens, &sig);
    let in_test = |line: u32| -> bool {
        is_test_path(path)
            || test_regions
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    };

    let mut violations: Vec<Violation> = Vec::new();
    let mut suppressions = parse_suppressions(path, &tokens, &sig, &mut violations);

    if in_module_list(path, DECODE_PATH_MODULES) {
        rule_panic(path, &tokens, &sig, &in_test, &mut violations);
    }
    if in_module_list(path, WIRE_ARITH_MODULES) {
        rule_arith(path, &tokens, &sig, &in_test, &mut violations);
    }
    rule_unsafe(path, &tokens, &sig, &mut violations);
    rule_span(path, &tokens, &sig, &in_test, &mut violations);

    let (consts, row_const_lines) = collect_consts(path, &tokens, &sig, &in_test);
    let mut byte_strings = Vec::new();
    let mut bare_ints = Vec::new();
    for &i in &sig {
        let t = &tokens[i];
        if in_test(t.line) {
            continue;
        }
        match t.kind {
            TokenKind::Str => {
                if let Some(b) = crate::lexer::byte_string_value(&t.text) {
                    byte_strings.push((b, t.line));
                }
            }
            TokenKind::Number if !row_const_lines.contains(&t.line) => {
                if let Some(v) = crate::lexer::int_value(&t.text) {
                    bare_ints.push((v, t.line, t.col));
                }
            }
            _ => {}
        }
    }

    // Apply suppressions: a finding inside a covered line range with a
    // matching rule is dropped (and the suppression marked used).
    // `unsafe` and `suppress` findings are exempt by design.
    violations.retain(|v| {
        if v.rule == "unsafe" || v.rule == "suppress" {
            return true;
        }
        for s in suppressions.iter_mut() {
            if s.line_lo <= v.line && v.line <= s.line_hi && s.rules.iter().any(|r| r == v.rule) {
                s.used = true;
                return false;
            }
        }
        true
    });

    FileAnalysis {
        file: path.to_string(),
        violations,
        suppressions,
        consts,
        byte_strings,
        bare_ints,
    }
}

/// Finds `#[cfg(test)]`-guarded items and returns their line ranges.
fn find_test_regions(tokens: &[Token], sig: &[usize]) -> Vec<(u32, u32)> {
    let texts: Vec<&str> = sig.iter().map(|&i| tokens[i].text.as_str()).collect();
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k + 6 < texts.len() {
        let is_cfg_test = texts[k] == "#"
            && texts[k + 1] == "["
            && texts[k + 2] == "cfg"
            && texts[k + 3] == "("
            && texts[k + 4] == "test"
            && texts[k + 5] == ")"
            && texts[k + 6] == "]";
        if !is_cfg_test {
            k += 1;
            continue;
        }
        let start_line = tokens[sig[k]].line;
        let mut j = k + 7;
        // Skip any further attributes on the same item.
        while j + 1 < texts.len() && texts[j] == "#" && texts[j + 1] == "[" {
            let mut depth = 0usize;
            j += 1;
            while j < texts.len() {
                match texts[j] {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        // Walk to the item's terminator: `;` at depth 0 or the matching
        // `}` of its body.
        if let Some((end, _)) = item_extent(tokens, sig, j) {
            regions.push((start_line, end));
            k = j;
        } else {
            k += 1;
        }
    }
    regions
}

/// From significant position `j`, walks one item: returns the last line
/// it covers and whether a `fn` keyword appeared in its header.
fn item_extent(tokens: &[Token], sig: &[usize], j: usize) -> Option<(u32, bool)> {
    let mut saw_fn = false;
    let mut depth = 0usize;
    let mut k = j;
    while k < sig.len() {
        let t = &tokens[sig[k]];
        match t.text.as_str() {
            "fn" if depth == 0 && t.kind == TokenKind::Ident => saw_fn = true,
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            ";" if depth == 0 => return Some((t.line, saw_fn)),
            "{" if depth == 0 => {
                // Find the matching close brace.
                let mut braces = 0usize;
                while k < sig.len() {
                    match tokens[sig[k]].text.as_str() {
                        "{" => braces += 1,
                        "}" => {
                            braces -= 1;
                            if braces == 0 {
                                return Some((tokens[sig[k]].line, saw_fn));
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return None;
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Parses every `tac-lint:` comment; malformed ones become `suppress`
/// violations.
fn parse_suppressions(
    path: &str,
    tokens: &[Token],
    sig: &[usize],
    violations: &mut Vec<Violation>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        // Only plain `//` comments that *start* with the marker count:
        // doc comments (`///`, `//!`) merely talk about the syntax.
        let body = &t.text[2..];
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let trimmed = body.trim_start();
        if !trimmed.starts_with("tac-lint:") {
            continue;
        }
        let at = t.text.len() - trimmed.len();
        let mut bad = |msg: String| {
            violations.push(Violation {
                rule: "suppress",
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: msg,
            });
        };
        let rest = t.text[at + "tac-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad("malformed suppression: expected `tac-lint: allow(<rule>) -- <why>`".into());
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("malformed suppression: unclosed `allow(`".into());
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for rule in args[..close].split(',') {
            let rule = rule.trim();
            if !ALL_RULES.contains(&rule) {
                bad(format!(
                    "unknown rule `{rule}` in suppression (rules: {})",
                    ALL_RULES.join(", ")
                ));
                ok = false;
            } else if rule == "suppress" || rule == "unsafe" {
                bad(format!(
                    "rule `{rule}` cannot be comment-suppressed ({})",
                    if rule == "unsafe" {
                        "use the per-file allowlist"
                    } else {
                        "a suppression cannot excuse itself"
                    }
                ));
                ok = false;
            } else {
                rules.push(rule.to_string());
            }
        }
        let tail = args[close + 1..].trim();
        let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if justification.is_empty() {
            bad("suppression is missing its mandatory `-- <justification>`".into());
            continue;
        }
        if !ok || rules.is_empty() {
            continue;
        }
        let (line_lo, line_hi) = suppression_scope(tokens, sig, i);
        out.push(Suppression {
            file: path.to_string(),
            line: t.line,
            rules,
            justification: justification.to_string(),
            line_lo,
            line_hi,
            used: false,
        });
    }
    out
}

/// Scope of the suppression comment at token index `ci`: its own line
/// when it trails code, otherwise the following item (whole body for
/// `fn` items, through the statement's `;` otherwise).
fn suppression_scope(tokens: &[Token], sig: &[usize], ci: usize) -> (u32, u32) {
    let line = tokens[ci].line;
    let trails_code = tokens[..ci]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .any(|t| t.is_significant());
    if trails_code {
        return (line, line);
    }
    let Some(p) = sig.iter().position(|&i| i > ci) else {
        return (line, line);
    };
    // Skip attributes before the item proper.
    let texts: Vec<&str> = sig.iter().map(|&i| tokens[i].text.as_str()).collect();
    let mut j = p;
    while j + 1 < texts.len() && texts[j] == "#" && texts[j + 1] == "[" {
        let mut depth = 0usize;
        j += 1;
        while j < texts.len() {
            match texts[j] {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    match item_extent(tokens, sig, j) {
        Some((end, saw_fn)) => {
            if saw_fn {
                (line, end)
            } else {
                // Non-fn item or statement: cover through its extent,
                // but never past the end of the immediate statement —
                // `item_extent` already stops at the first `;`/matching
                // `}`, which is exactly that.
                (line, end)
            }
        }
        None => (line, line.saturating_add(1)),
    }
}

/// R1 over one decode-path file.
fn rule_panic(
    path: &str,
    tokens: &[Token],
    sig: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    violations: &mut Vec<Violation>,
) {
    let mut push = |t: &Token, message: String| {
        violations.push(Violation {
            rule: "panic",
            file: path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    };
    for k in 0..sig.len() {
        let t = &tokens[sig[k]];
        if in_test(t.line) {
            continue;
        }
        let next = sig.get(k + 1).map(|&i| &tokens[i]);
        let next2 = sig.get(k + 2).map(|&i| &tokens[i]);
        // `.unwrap(` / `.expect(`
        if t.text == "."
            && next.is_some_and(|n| {
                n.kind == TokenKind::Ident && (n.text == "unwrap" || n.text == "expect")
            })
            && next2.is_some_and(|n| n.text == "(")
        {
            let n = next.unwrap_or(t);
            push(
                n,
                format!(
                    "`.{}()` can panic in a decode path; return a typed error",
                    n.text
                ),
            );
        }
        // panic-family macros
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && next.is_some_and(|n| n.text == "!")
        {
            push(
                t,
                format!("`{}!` in a decode path; return a typed error", t.text),
            );
        }
        // slice/array indexing: `expr[` where expr ends in an ident,
        // call, index, or `?`.
        if t.text == "[" && k > 0 {
            let prev = &tokens[sig[k - 1]];
            let indexable = match prev.kind {
                TokenKind::Ident => !is_keyword(&prev.text),
                TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                _ => false,
            };
            if indexable {
                push(
                    t,
                    format!(
                        "indexing `{}[..]` can panic in a decode path; use `.get()`",
                        prev.text
                    ),
                );
            }
        }
    }
}

/// R2 over one wire-parsing file.
fn rule_arith(
    path: &str,
    tokens: &[Token],
    sig: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    violations: &mut Vec<Violation>,
) {
    let tok = |k: usize| sig.get(k).map(|&i| &tokens[i]);
    for k in 0..sig.len() {
        let t = &tokens[sig[k]];
        if in_test(t.line) {
            continue;
        }
        // Narrowing `as` cast.
        if t.kind == TokenKind::Ident && t.text == "as" {
            if let Some(n) = tok(k + 1) {
                if n.kind == TokenKind::Ident && NARROW_CASTS.contains(&n.text.as_str()) {
                    violations.push(Violation {
                        rule: "arith",
                        file: path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "narrowing `as {}` in a wire module; use `try_from` or prove the \
                             bound and suppress",
                            n.text
                        ),
                    });
                }
            }
            continue;
        }
        // Unchecked `+` / `*` with a length-flavoured operand.
        if !(t.kind == TokenKind::Punct && (t.text == "+" || t.text == "*")) {
            continue;
        }
        let Some(prev) = (k > 0).then(|| tok(k - 1)).flatten() else {
            continue;
        };
        let binary = match prev.kind {
            TokenKind::Ident => !is_keyword(&prev.text),
            TokenKind::Number => true,
            TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
            _ => false,
        };
        if !binary {
            continue;
        }
        // Flavour check on the operands immediately around the operator:
        // `pos + 4`, `a + e.len`, `x.len() * 12`.
        let prev_flavored = (prev.kind == TokenKind::Ident && is_len_flavored(&prev.text))
            || (prev.text == ")"
                && tok(k.wrapping_sub(2)).is_some_and(|p| p.text == "(")
                && tok(k.wrapping_sub(3))
                    .is_some_and(|p| p.kind == TokenKind::Ident && is_len_flavored(&p.text)));
        let next_flavored = tok(k + 1).is_some_and(|n| {
            n.kind == TokenKind::Ident
                && (is_len_flavored(&n.text)
                    || (tok(k + 2).is_some_and(|d| d.text == ".")
                        && tok(k + 3).is_some_and(|f| {
                            f.kind == TokenKind::Ident && is_len_flavored(&f.text)
                        })))
        });
        if prev_flavored || next_flavored {
            let op = if t.text == "+" {
                "addition"
            } else {
                "multiplication"
            };
            violations.push(Violation {
                rule: "arith",
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "unchecked {op} on a length/offset operand in a wire module; use \
                     `checked_{}`",
                    if t.text == "+" { "add" } else { "mul" }
                ),
            });
        }
    }
}

/// R6: `let _ = …span(…)` drops the RAII guard at the end of the
/// statement, so the span measures an empty scope. The guard must be
/// bound to a live name (`let _guard = span(..)`), which keeps it open
/// for the enclosing block. Fires in every non-test file: misuse in an
/// instrumented crate silently produces zero-width spans.
fn rule_span(
    path: &str,
    tokens: &[Token],
    sig: &[usize],
    in_test: &dyn Fn(u32) -> bool,
    violations: &mut Vec<Violation>,
) {
    let tok = |k: usize| sig.get(k).map(|&i| &tokens[i]);
    for k in 0..sig.len() {
        let t = &tokens[sig[k]];
        if !(t.kind == TokenKind::Ident && t.text == "let") || in_test(t.line) {
            continue;
        }
        if !tok(k + 1).is_some_and(|n| n.text == "_") || !tok(k + 2).is_some_and(|n| n.text == "=")
        {
            continue;
        }
        // The assigned expression must *start* with a call whose callee
        // path ends in `span` — `let _ = tac_obs::span(..)` or
        // `let _ = span(..).arg(..)`. A `span(..)` buried deeper in the
        // expression is handed to something that may keep it alive.
        let mut j = k + 3;
        let mut last_ident: Option<&Token> = None;
        while let Some(n) = tok(j) {
            match n.kind {
                TokenKind::Ident if !is_keyword(&n.text) => last_ident = Some(n),
                TokenKind::Punct if n.text == ":" => {}
                TokenKind::Punct if n.text == "(" => break,
                _ => {
                    last_ident = None;
                    break;
                }
            }
            j += 1;
        }
        if let Some(callee) = last_ident.filter(|n| n.text == "span") {
            violations.push(Violation {
                rule: "span",
                file: path.to_string(),
                line: callee.line,
                col: callee.col,
                message: "`let _ = span(..)` drops the guard immediately and times nothing; \
                          bind it (`let _span = span(..)`) so it lives to the end of the scope"
                    .into(),
            });
        }
    }
}

/// R4: every `unsafe` keyword is a finding unless the file is
/// allowlisted.
fn rule_unsafe(path: &str, tokens: &[Token], sig: &[usize], violations: &mut Vec<Violation>) {
    if let Some((_, why)) = UNSAFE_ALLOWLIST.iter().find(|(p, _)| path.ends_with(p)) {
        let _ = why;
        return;
    }
    for &i in sig {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text == "unsafe" {
            violations.push(Violation {
                rule: "unsafe",
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: "`unsafe` outside the allowlist (which ships empty)".into(),
            });
        }
    }
}

/// Extracts non-test `const` declarations and the lines occupied by
/// `CHUNK_ROW_BYTES_*` initializers (exempt from the bare-literal scan).
fn collect_consts(
    path: &str,
    tokens: &[Token],
    sig: &[usize],
    in_test: &dyn Fn(u32) -> bool,
) -> (Vec<ConstDecl>, Vec<u32>) {
    let mut out = Vec::new();
    let mut row_lines = Vec::new();
    let tok = |k: usize| sig.get(k).map(|&i| &tokens[i]);
    for k in 0..sig.len() {
        let t = &tokens[sig[k]];
        if !(t.kind == TokenKind::Ident && t.text == "const") || in_test(t.line) {
            continue;
        }
        // `*const T` raw-pointer types are not declarations.
        if k > 0 && tok(k - 1).is_some_and(|p| p.text == "*") {
            continue;
        }
        let Some(name) = tok(k + 1).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        // Find `=` at bracket depth 0, then the initializer up to `;`.
        let mut j = k + 2;
        let mut depth = 0usize;
        let mut eq = None;
        while let Some(t) = tok(j) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "=" if depth == 0 => {
                    eq = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq else { continue };
        let mut value_toks = Vec::new();
        let mut j = eq + 1;
        let mut depth = 0usize;
        while let Some(t) = tok(j) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => break,
                _ => {}
            }
            value_toks.push(t);
            j += 1;
        }
        let int = match value_toks.as_slice() {
            [v] if v.kind == TokenKind::Number => crate::lexer::int_value(&v.text),
            _ => None,
        };
        let bytes = value_toks
            .iter()
            .find(|v| v.kind == TokenKind::Str)
            .and_then(|v| crate::lexer::byte_string_value(&v.text));
        if name.text.starts_with("CHUNK_ROW_BYTES") {
            for v in &value_toks {
                row_lines.push(v.line);
            }
        }
        out.push(ConstDecl {
            file: path.to_string(),
            line: t.line,
            name: name.text.clone(),
            int,
            bytes,
        });
    }
    (out, row_lines)
}
