//! Corpus tests for the rule engine: each case feeds a small synthetic
//! source file through `analyze_file` (under a path that places it in or
//! out of the guarded module lists) and checks exactly which findings
//! fire. Wirecheck cases build a synthetic workspace in the cargo test
//! tmpdir so the golden-fixture geometry checks run against real bytes.

use tac_lint::rules::{analyze_file, FileAnalysis};
use tac_lint::wirecheck::wire_checks;

/// A decode-path module path (R1 + R2 both apply).
const DECODE: &str = "crates/codec/src/sz/compress.rs";
/// A path outside every guarded list.
const PLAIN: &str = "crates/bench/src/lib.rs";

fn rules_fired(path: &str, src: &str) -> Vec<(&'static str, u32)> {
    analyze_file(path, src)
        .violations
        .iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn panic_constructs_fire_only_in_decode_modules() {
    let src = r#"
fn f(v: &[u8]) -> u8 {
    let a = v.first().unwrap();
    let b = v.first().expect("x");
    if *a > 1 { panic!("no"); }
    if *b > 1 { unreachable!(); }
    v[0]
}
"#;
    let fired = rules_fired(DECODE, src);
    let panics: Vec<u32> = fired
        .iter()
        .filter(|(r, _)| *r == "panic")
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(panics, vec![3, 4, 5, 6, 7], "{fired:?}");
    // The same source outside the decode list is clean.
    assert!(rules_fired(PLAIN, src).is_empty());
}

#[test]
fn indexing_after_call_and_try_is_flagged() {
    let src = r#"
fn f(v: &[u8], w: &[&[u8]]) -> u8 {
    let a = v.get(0..2).unwrap_or_default()[0];
    let b = inner(v)?[1];
    w[0][1]
}
"#;
    let panics = rules_fired(DECODE, src)
        .iter()
        .filter(|(r, _)| *r == "panic")
        .count();
    // `)[`, `?[`, `w[` and the chained `][` all count.
    assert_eq!(panics, 4);
}

#[test]
fn cfg_test_regions_and_test_paths_are_exempt() {
    let src = r#"
fn ok(v: &[u8]) -> Option<u8> { v.first().copied() }

#[cfg(test)]
mod tests {
    fn helper(v: &[u8]) -> u8 { v[0] }
    #[test]
    fn t() { assert_eq!(helper(&[3]).unwrap(), 3); }
}
"#;
    assert!(rules_fired(DECODE, src).is_empty());
    // An integration-test path is exempt wholesale.
    let bad = "fn f(v: &[u8]) -> u8 { v[0] }";
    assert!(rules_fired("crates/codec/tests/compress.rs", bad).is_empty());
    assert!(!rules_fired(DECODE, bad).is_empty());
}

#[test]
fn arith_flags_narrowing_casts_and_len_flavored_ops() {
    let src = r#"
fn f(pos: usize, n: usize, data: &[u8]) -> usize {
    let a = pos as u32;
    let b = pos + 4;
    let c = n * 12;
    let d = data.len() + 1;
    let e = a as u64;
    b + c + d + e as usize
}
"#;
    let arith: Vec<u32> = rules_fired(DECODE, src)
        .iter()
        .filter(|(r, _)| *r == "arith")
        .map(|&(_, l)| l)
        .collect();
    // line 3: narrowing cast; 4/5/6: unchecked ops on len-flavoured
    // operands (`pos`, exact-name `n`, and the `.len()` call). Lines
    // 7-8 are clean: `as u64`/`as usize` widen, and none of b/c/d/e is
    // len-flavoured.
    assert_eq!(arith, vec![3, 4, 5, 6]);
}

#[test]
fn checked_arithmetic_and_widening_casts_are_clean() {
    let src = r#"
fn f(pos: usize, len: usize) -> Option<usize> {
    let end = pos.checked_add(len)?;
    let wide = len as u64;
    let total = end.checked_mul(8)?;
    Some(total.max(wide as usize))
}
"#;
    assert!(rules_fired(DECODE, src).is_empty());
}

#[test]
fn same_line_suppression_covers_one_line() {
    let src = r#"
fn f(v: &[u8]) -> u8 {
    let a = v[0]; // tac-lint: allow(panic) -- structurally in bounds
    v[1]
}
"#;
    let fa = analyze_file(DECODE, src);
    let panics: Vec<u32> = fa
        .violations
        .iter()
        .filter(|v| v.rule == "panic")
        .map(|v| v.line)
        .collect();
    assert_eq!(panics, vec![4], "only the unsuppressed line fires");
    assert!(fa.suppressions.iter().all(|s| s.used));
}

#[test]
fn own_line_suppression_covers_the_following_fn_body() {
    let src = r#"
// tac-lint: allow(panic, arith) -- encoder-side; inputs are in-memory
fn encoder(v: &[u8], pos: usize) -> u8 {
    let x = pos + 4;
    v[x]
}

fn decoder(v: &[u8]) -> u8 {
    v[0]
}
"#;
    let fa = analyze_file(DECODE, src);
    let lines: Vec<u32> = fa.violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![9], "only the second fn fires");
}

#[test]
fn malformed_suppressions_are_themselves_findings() {
    for (src, what) in [
        (
            "// tac-lint: allow(panic)\nfn f() {}",
            "missing justification",
        ),
        (
            "// tac-lint: allow(bogus) -- why\nfn f() {}",
            "unknown rule",
        ),
        ("// tac-lint: deny(panic) -- why\nfn f() {}", "not allow()"),
        (
            "// tac-lint: allow(unsafe) -- why\nfn f() {}",
            "unsafe is not comment-suppressible",
        ),
        (
            "// tac-lint: allow(suppress) -- why\nfn f() {}",
            "suppress cannot excuse itself",
        ),
    ] {
        let fa = analyze_file(PLAIN, src);
        assert!(
            fa.violations.iter().any(|v| v.rule == "suppress"),
            "{what}: {src}"
        );
    }
}

#[test]
fn doc_comments_mentioning_the_syntax_are_not_suppressions() {
    let src = r#"
/// tac-lint: allow(panic) -- this is documentation, not a directive
fn f(v: &[u8]) -> u8 {
    v[0]
}
"#;
    let fa = analyze_file(DECODE, src);
    assert!(fa.suppressions.is_empty());
    assert_eq!(fa.violations.len(), 1);
    assert_eq!(fa.violations[0].rule, "panic");
}

#[test]
fn unsafe_is_flagged_everywhere_and_cannot_be_suppressed() {
    let src = r#"
// tac-lint: allow(panic) -- irrelevant
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    // Even in a module outside every list, and even inside cfg(test).
    let fa = analyze_file(PLAIN, src);
    assert_eq!(
        fa.violations.iter().filter(|v| v.rule == "unsafe").count(),
        1
    );
    let test_src = "#[cfg(test)]\nmod t { fn g(p: *const u8) -> u8 { unsafe { *p } } }";
    let fa = analyze_file(PLAIN, test_src);
    assert_eq!(
        fa.violations.iter().filter(|v| v.rule == "unsafe").count(),
        1
    );
}

#[test]
fn discarded_span_guards_are_flagged_everywhere() {
    // `let _ =` drops the RAII guard at the end of the statement: the
    // span times an empty scope. Fires even outside the guarded module
    // lists — instrumentation lives in every crate.
    let src = r#"
fn f() {
    let _ = span(Stage::Encode);
    let _ = tac_obs::span(Stage::Plan).arg("k", 1usize);
}
"#;
    let fired = rules_fired(PLAIN, src);
    let spans: Vec<u32> = fired
        .iter()
        .filter(|(r, _)| *r == "span")
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(spans, vec![3, 4], "{fired:?}");
}

#[test]
fn live_span_bindings_and_unrelated_discards_are_clean() {
    let src = r#"
fn f() {
    let _guard = span(Stage::Encode);
    let _plan = tac_obs::span(Stage::Plan);
    let _ = now_ns();
    let _ = RECORDER.set(s);
    let _ = write!(out, "x");
    let _ = keeps_alive(span(Stage::Pack));
    drop(_plan);
}
"#;
    let fired = rules_fired(PLAIN, src);
    assert!(
        fired.iter().all(|(r, _)| *r != "span"),
        "false positives: {fired:?}"
    );
}

#[test]
fn span_misuse_in_test_code_is_exempt_and_suppressible_elsewhere() {
    let in_test = r#"
#[cfg(test)]
mod tests {
    fn t() { let _ = span(Stage::Encode); }
}
"#;
    assert!(rules_fired(PLAIN, in_test).is_empty());

    let suppressed = r#"
fn f() {
    let _ = span(Stage::Encode); // tac-lint: allow(span) -- intentionally zero-width marker
}
"#;
    let fa = analyze_file(PLAIN, suppressed);
    assert!(fa.violations.is_empty(), "{:?}", fa.violations);
    assert!(fa.suppressions.iter().all(|s| s.used));
}

#[test]
fn consts_are_collected_with_literal_values() {
    let src = r#"
pub const MAGIC: [u8; 4] = *b"ABCD";
pub const VERSION: u8 = 3;
const NOT_LITERAL: usize = 4 + 4;
#[cfg(test)]
mod tests {
    const IN_TEST: u8 = 9;
}
"#;
    let fa = analyze_file(PLAIN, src);
    let get = |n: &str| fa.consts.iter().find(|c| c.name == n);
    assert_eq!(
        get("MAGIC").and_then(|c| c.bytes.clone()),
        Some(b"ABCD".to_vec())
    );
    assert_eq!(get("VERSION").and_then(|c| c.int), Some(3));
    assert_eq!(get("NOT_LITERAL").and_then(|c| c.int), None);
    assert!(get("IN_TEST").is_none(), "test consts are not collected");
}

// ---------------------------------------------------------------------
// R3 wirecheck over a synthetic workspace.
// ---------------------------------------------------------------------

/// Sources for a minimal, fully conformant wire-constant layout.
fn good_sources() -> Vec<(&'static str, String)> {
    vec![
        (
            "crates/core/src/container.rs",
            r#"
pub const MAGIC: &[u8; 4] = b"WCT1";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;
const VERSION_V3: u8 = 3;
const VERSION_V4: u8 = 4;
const VERSION_V5: u8 = 5;
pub const CHUNK_ROW_BYTES_V2: usize = 41;
pub const CHUNK_ROW_BYTES_V3: usize = 42;
pub const CHUNK_ROW_BYTES_V4: usize = 43;
"#
            .to_string(),
        ),
        (
            "crates/core/src/stream.rs",
            "const TAG_A: u8 = 0;\nconst TAG_B: u8 = 1;\n\
             const TAG_EMPTY_F32: u8 = 5;\nconst TAG_WHOLE_F32: u8 = 6;\n\
             const TAG_GROUPS_F32: u8 = 7;\n"
                .to_string(),
        ),
        (
            "crates/codec/src/sz/compress.rs",
            "pub const MAGIC: [u8; 4] = *b\"WSZ1\";\npub const VERSION: u8 = 1;\n".to_string(),
        ),
        (
            "crates/codec/src/pco.rs",
            "pub const MAGIC: [u8; 4] = *b\"WPC1\";\npub const VERSION: u8 = 1;\n".to_string(),
        ),
        (
            "crates/codec/src/pco_ans.rs",
            "pub const MAGIC: [u8; 4] = *b\"WPA1\";\npub const VERSION: u8 = 1;\n\
             const PAGE: usize = 4096;\n"
                .to_string(),
        ),
        (
            "crates/codec/src/ans.rs",
            "const TABLE_BITS: u32 = 11;\nconst TABLE_SIZE: usize = 2048;\n".to_string(),
        ),
    ]
}

fn analyses_of(sources: &[(&'static str, String)]) -> Vec<FileAnalysis> {
    sources.iter().map(|(p, s)| analyze_file(p, s)).collect()
}

/// A chunked fixture with exact geometry:
/// `table_pos + 4 + rows*row + 8 == len`.
fn fixture_bytes(version: u8, rows: usize, row: usize) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(b"WCT1");
    b.push(version);
    b.push(0x00); // method tag
    b.push(0x01); // dtype tag (checked for v4 headers; noise otherwise)
    b.extend_from_slice(&[0xEE; 8]); // fake header/payload
    let table_pos = b.len() as u64;
    b.extend_from_slice(&(rows as u32).to_le_bytes());
    b.extend(std::iter::repeat(0u8).take(rows * row));
    b.extend_from_slice(&table_pos.to_le_bytes());
    b
}

/// Builds `root/tests/data` holding the given fixtures.
fn temp_root(name: &str, fixtures: &[(&str, Vec<u8>)]) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let data = root.join("tests").join("data");
    std::fs::create_dir_all(&data).unwrap();
    // Clear fixtures from earlier runs of other cases under this name.
    for entry in std::fs::read_dir(&data).unwrap().flatten() {
        std::fs::remove_file(entry.path()).ok();
    }
    for (file, bytes) in fixtures {
        std::fs::write(data.join(file), bytes).unwrap();
    }
    root
}

#[test]
fn conformant_constants_and_fixtures_pass_wirecheck() {
    let root = temp_root(
        "wc_good",
        &[
            ("a.tacd", fixture_bytes(2, 3, 41)),
            ("b.tacd", fixture_bytes(3, 1, 42)),
            ("c.tacd", fixture_bytes(4, 2, 43)),
            ("d.tacd", fixture_bytes(5, 2, 43)),
        ],
    );
    let v = wire_checks(&root, &analyses_of(&good_sources()));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn geometry_mismatch_is_reported() {
    // v2 fixture written with 42-byte rows: the file length no longer
    // matches `table_pos + 4 + rows*41 + 8`.
    let root = temp_root("wc_geom", &[("bad.tacd", fixture_bytes(2, 3, 42))]);
    let v = wire_checks(&root, &analyses_of(&good_sources()));
    assert!(
        v.iter().any(|x| x.message.contains("geometry mismatch")),
        "{v:?}"
    );
}

#[test]
fn missing_fixtures_are_a_finding() {
    let root = temp_root("wc_nofix", &[]);
    let v = wire_checks(&root, &analyses_of(&good_sources()));
    assert!(v.iter().any(|x| x.message.contains("no golden")), "{v:?}");
}

#[test]
fn duplicated_magic_literal_is_reported() {
    let mut sources = good_sources();
    sources.push((
        "crates/core/src/other.rs",
        "fn f(b: &[u8]) -> bool { b == b\"WCT1\" }\n".to_string(),
    ));
    let root = temp_root("wc_dupmagic", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(v.iter().any(|x| x.message.contains("duplicated")), "{v:?}");
}

#[test]
fn wrong_row_size_relation_is_reported() {
    let mut sources = good_sources();
    sources[0].1 = sources[0].1.replace("V3: usize = 42", "V3: usize = 44");
    let root = temp_root("wc_rowrel", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(
        v.iter()
            .any(|x| x.message.contains("must be CHUNK_ROW_BYTES_V2")),
        "{v:?}"
    );
}

#[test]
fn wrong_v4_row_size_relation_is_reported() {
    let mut sources = good_sources();
    sources[0].1 = sources[0].1.replace("V4: usize = 43", "V4: usize = 45");
    let root = temp_root("wc_rowrel4", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(
        v.iter()
            .any(|x| x.message.contains("must be CHUNK_ROW_BYTES_V3")),
        "{v:?}"
    );
}

#[test]
fn missing_f32_level_tags_are_reported() {
    let mut sources = good_sources();
    sources[1].1 = "const TAG_A: u8 = 0;\nconst TAG_B: u8 = 1;\n".to_string();
    let root = temp_root("wc_nof32tags", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    for name in ["TAG_EMPTY_F32", "TAG_WHOLE_F32", "TAG_GROUPS_F32"] {
        assert!(v.iter().any(|x| x.message.contains(name)), "{v:?}");
    }
}

#[test]
fn v4_fixture_with_unknown_dtype_tag_is_reported() {
    let mut fixture = fixture_bytes(4, 1, 43);
    fixture[6] = 9; // not a known element-type tag
    let root = temp_root("wc_baddtype", &[("a.tacd", fixture)]);
    let v = wire_checks(&root, &analyses_of(&good_sources()));
    assert!(
        v.iter()
            .any(|x| x.message.contains("not a known element type")),
        "{v:?}"
    );
}

#[test]
fn v4_geometry_mismatch_is_reported() {
    // v4 fixture written with v3-size rows: the dtype byte is missing
    // from every row, so the length check must fire.
    let root = temp_root("wc_geom4", &[("bad.tacd", fixture_bytes(4, 3, 42))]);
    let v = wire_checks(&root, &analyses_of(&good_sources()));
    assert!(
        v.iter().any(|x| x.message.contains("geometry mismatch")),
        "{v:?}"
    );
}

#[test]
fn v5_fixture_needs_its_version_byte_declared() {
    // Without `VERSION_V5` the constant is missed and a v5 fixture's
    // version byte is none of the declared ones; with it, v5 files are
    // held to the v4 row size.
    let mut sources = good_sources();
    sources[0].1 = sources[0].1.replace("const VERSION_V5: u8 = 5;\n", "");
    let root = temp_root("wc_v5", &[("a.tacd", fixture_bytes(5, 1, 43))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(
        v.iter().any(|x| x.message.contains("`VERSION_V5`")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|x| x.message.contains("version byte 5 is not one of")),
        "{v:?}"
    );
    let root = temp_root("wc_geom5", &[("bad.tacd", fixture_bytes(5, 3, 42))]);
    let v = wire_checks(&root, &analyses_of(&good_sources()));
    assert!(
        v.iter().any(|x| x.message.contains("geometry mismatch")),
        "{v:?}"
    );
}

#[test]
fn bare_row_size_literal_is_reported() {
    let mut sources = good_sources();
    sources.push((
        "crates/core/src/roi.rs",
        "fn f(pos: usize) -> usize { pos.checked_add(41).unwrap_or(0) }\n".to_string(),
    ));
    let root = temp_root("wc_bareint", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(
        v.iter().any(|x| x.message.contains("bare chunk-row size")),
        "{v:?}"
    );
}

#[test]
fn ans_table_geometry_mismatch_is_reported() {
    let mut sources = good_sources();
    let ans = sources
        .iter_mut()
        .find(|(p, _)| p.ends_with("crates/codec/src/ans.rs"))
        .unwrap();
    ans.1 = "const TABLE_BITS: u32 = 11;\nconst TABLE_SIZE: usize = 4096;\n".to_string();
    let root = temp_root("wc_anstable", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(
        v.iter()
            .any(|x| x.message.contains("must equal 1 << TABLE_BITS")),
        "{v:?}"
    );
}

#[test]
fn bare_ans_wire_size_literal_is_reported() {
    let mut sources = good_sources();
    let pco_ans = sources
        .iter_mut()
        .find(|(p, _)| p.ends_with("crates/codec/src/pco_ans.rs"))
        .unwrap();
    // A second, bare use of the page size (2048 likewise covered).
    pco_ans
        .1
        .push_str("fn f(n: usize) -> usize { n.div_ceil(4096) }\n");
    let root = temp_root("wc_ansbare", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(
        v.iter().any(|x| x.message.contains("bare ANS wire size")),
        "{v:?}"
    );
}

#[test]
fn duplicate_tag_values_are_reported() {
    let mut sources = good_sources();
    sources[1].1 = "const TAG_A: u8 = 0;\nconst TAG_B: u8 = 0;\n".to_string();
    let root = temp_root("wc_tags", &[("a.tacd", fixture_bytes(2, 1, 41))]);
    let v = wire_checks(&root, &analyses_of(&sources));
    assert!(
        v.iter().any(|x| x.message.contains("duplicates the value")),
        "{v:?}"
    );
}

// ---------------------------------------------------------------------
// The binary: exit codes and the JSON report.
// ---------------------------------------------------------------------

#[test]
fn deny_mode_fails_on_violations_and_passes_when_clean() {
    use std::process::Command;
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_ws");
    // The tmpdir outlives the run: start from an empty workspace, so a
    // file an earlier layout wrote cannot fire.
    let _ = std::fs::remove_dir_all(&root);
    // A self-consistent miniature workspace: the wirecheck module files
    // with conformant constants, plus one valid chunked fixture —
    // otherwise R3 reports the modules as missing and `--deny` could
    // never pass.
    for (rel, src) in good_sources() {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    std::fs::create_dir_all(root.join("tests").join("data")).unwrap();
    std::fs::write(
        root.join("tests").join("data").join("a.tacd"),
        fixture_bytes(2, 2, 41),
    )
    .unwrap();
    let file = root
        .join("crates")
        .join("codec")
        .join("src")
        .join("sz")
        .join("huffman.rs");
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    let json = root.join("LINT.json");

    // One decode-path panic: --deny must exit non-zero and still write
    // the report.
    std::fs::write(&file, "pub fn f(v: &[u8]) -> u8 { v[0] }\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tac-lint"))
        .args(["--deny", "--root"])
        .arg(&root)
        .arg("--json")
        .arg(&json)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"rule\": \"panic\""), "{report}");

    // Fixed file: --deny exits zero.
    std::fs::write(
        &file,
        "pub fn f(v: &[u8]) -> Option<u8> { v.first().copied() }\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tac-lint"))
        .args(["--deny", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
