//! R3 — wire-constant single source of truth.
//!
//! Cross-file checks over the constants the per-file pass extracted:
//!
//! * the three container formats declare their magic and version
//!   constants where the format lives, magics are 4 bytes and pairwise
//!   distinct, and each magic byte-string literal appears **exactly
//!   once** in non-test code (the declaration itself — every other use
//!   must go through the constant);
//! * the chunk-table row sizes are named constants
//!   (`CHUNK_ROW_BYTES_V2`/`_V3`/`_V4`, the v3 row being one codec byte
//!   larger than v2 and the v4 row one dtype byte larger than v3), and
//!   their values never recur as bare integer literals in the
//!   container/ROI/stream modules;
//! * the payload tag bytes in `core/stream.rs` are named `TAG_*`
//!   constants with pairwise-distinct values, including the f32 level
//!   tags (`TAG_EMPTY_F32`/`TAG_WHOLE_F32`/`TAG_GROUPS_F32`);
//! * every golden fixture under `tests/data/*.tacd` agrees with the
//!   declared constants: magic, version byte, for v4 and v5 a known
//!   dtype tag byte, and — for chunked containers — the exact file
//!   geometry (v5 keeps the v4 row)
//!   `table_pos + count_prefix + rows * row_size + footer == file length`
//!   recomputed from the footer offset, the row count, and the declared
//!   row size. The writer, the reader, and the on-disk bytes must all
//!   mean the same thing by "a row".

use crate::rules::{ConstDecl, FileAnalysis, Violation};
use std::path::Path;

const CORE_CONTAINER: &str = "crates/core/src/container.rs";
const CORE_STREAM: &str = "crates/core/src/stream.rs";
const SZ: &str = "crates/codec/src/sz/compress.rs";
const PCO: &str = "crates/codec/src/pco.rs";
const PCO_ANS: &str = "crates/codec/src/pco_ans.rs";
const ANS: &str = "crates/codec/src/ans.rs";
const BINS: &str = "crates/codec/src/bins.rs";

/// Size of the chunk table's `u32` row-count prefix.
const COUNT_PREFIX: u64 = 4;
/// Size of the trailing `u64` table-offset footer.
const FOOTER: u64 = 8;

fn violation(file: &str, line: u32, message: String) -> Violation {
    Violation {
        rule: "wire",
        file: file.to_string(),
        line,
        col: 1,
        message,
    }
}

fn find<'a>(analyses: &'a [FileAnalysis], suffix: &str) -> Option<&'a FileAnalysis> {
    analyses.iter().find(|a| a.file.ends_with(suffix))
}

fn get_const<'a>(fa: &'a FileAnalysis, name: &str) -> Option<&'a ConstDecl> {
    fa.consts.iter().find(|c| c.name == name)
}

/// Runs every R3 check. `root` is the workspace root (for fixtures).
pub fn wire_checks(root: &Path, analyses: &[FileAnalysis]) -> Vec<Violation> {
    let mut v = Vec::new();

    // --- Declared constants -------------------------------------------
    let mut magics: Vec<(&'static str, Vec<u8>)> = Vec::new();
    let mut require_magic = |v: &mut Vec<Violation>, file: &'static str| -> Option<Vec<u8>> {
        let Some(fa) = find(analyses, file) else {
            v.push(violation(
                file,
                1,
                "wire module missing from the scan".into(),
            ));
            return None;
        };
        match get_const(fa, "MAGIC").and_then(|c| c.bytes.clone()) {
            Some(m) if m.len() == 4 => {
                magics.push((file, m.clone()));
                Some(m)
            }
            Some(m) => {
                v.push(violation(
                    file,
                    1,
                    format!("MAGIC must be 4 bytes, found {}", m.len()),
                ));
                None
            }
            None => {
                v.push(violation(
                    file,
                    1,
                    "no `MAGIC` byte-string constant declared".into(),
                ));
                None
            }
        }
    };
    let core_magic = require_magic(&mut v, CORE_CONTAINER);
    require_magic(&mut v, SZ);
    require_magic(&mut v, PCO);
    require_magic(&mut v, PCO_ANS);
    for i in 0..magics.len() {
        for j in i + 1..magics.len() {
            if magics[i].1 == magics[j].1 {
                v.push(violation(
                    magics[j].0,
                    1,
                    format!("magic collides with the one declared in {}", magics[i].0),
                ));
            }
        }
    }

    // Versions: the core container declares each of its version bytes
    // once; the single-version formats declare VERSION.
    let mut versions: Vec<u64> = Vec::new();
    if let Some(fa) = find(analyses, CORE_CONTAINER) {
        for (name, want) in [
            ("VERSION_V1", 1),
            ("VERSION_V2", 2),
            ("VERSION_V3", 3),
            ("VERSION_V4", 4),
            ("VERSION_V5", 5),
        ] {
            match get_const(fa, name).and_then(|c| c.int) {
                Some(got) if got == want => versions.push(got),
                Some(got) => v.push(violation(
                    &fa.file,
                    1,
                    format!("{name} is {got}, expected {want}"),
                )),
                None => v.push(violation(
                    &fa.file,
                    1,
                    format!("no integer constant `{name}` declared"),
                )),
            }
        }
    }
    for file in [SZ, PCO, PCO_ANS] {
        if let Some(fa) = find(analyses, file) {
            if get_const(fa, "VERSION").and_then(|c| c.int).is_none() {
                v.push(violation(
                    file,
                    1,
                    "no integer constant `VERSION` declared".into(),
                ));
            }
        }
    }

    // The ANS table geometry: TABLE_SIZE must be the named power of two
    // of TABLE_BITS, declared once in the ANS module.
    let mut ans_table_size = None;
    if let Some(fa) = find(analyses, ANS) {
        let bits = get_const(fa, "TABLE_BITS").and_then(|c| c.int);
        let size = get_const(fa, "TABLE_SIZE").and_then(|c| c.int);
        match (bits, size) {
            (Some(b), Some(s)) => {
                if b >= 32 || s != 1u64 << b {
                    v.push(violation(
                        &fa.file,
                        1,
                        format!("TABLE_SIZE ({s}) must equal 1 << TABLE_BITS ({b})"),
                    ));
                } else {
                    ans_table_size = Some(s);
                }
            }
            _ => v.push(violation(
                &fa.file,
                1,
                "ANS module must declare integer constants `TABLE_BITS` and `TABLE_SIZE`".into(),
            )),
        }
    } else {
        v.push(violation(
            ANS,
            1,
            "wire module missing from the scan".into(),
        ));
    }
    let pco_ans_page = find(analyses, PCO_ANS).and_then(|fa| {
        let page = get_const(fa, "PAGE").and_then(|c| c.int);
        if page.is_none() {
            v.push(violation(
                &fa.file,
                1,
                "no integer constant `PAGE` declared".into(),
            ));
        }
        page
    });

    // Chunk-table row sizes.
    let mut row_v2 = None;
    let mut row_v3 = None;
    let mut row_v4 = None;
    if let Some(fa) = find(analyses, CORE_CONTAINER) {
        row_v2 = get_const(fa, "CHUNK_ROW_BYTES_V2").and_then(|c| c.int);
        row_v3 = get_const(fa, "CHUNK_ROW_BYTES_V3").and_then(|c| c.int);
        row_v4 = get_const(fa, "CHUNK_ROW_BYTES_V4").and_then(|c| c.int);
        match (row_v2, row_v3) {
            (Some(a), Some(b)) if b != a + 1 => v.push(violation(
                &fa.file,
                1,
                format!("CHUNK_ROW_BYTES_V3 ({b}) must be CHUNK_ROW_BYTES_V2 ({a}) + 1 codec byte"),
            )),
            (None, _) => v.push(violation(
                &fa.file,
                1,
                "no `CHUNK_ROW_BYTES_V2` constant declared".into(),
            )),
            (_, None) => v.push(violation(
                &fa.file,
                1,
                "no `CHUNK_ROW_BYTES_V3` constant declared".into(),
            )),
            _ => {}
        }
        match (row_v3, row_v4) {
            (Some(b), Some(c)) if c != b + 1 => v.push(violation(
                &fa.file,
                1,
                format!("CHUNK_ROW_BYTES_V4 ({c}) must be CHUNK_ROW_BYTES_V3 ({b}) + 1 dtype byte"),
            )),
            (_, None) => v.push(violation(
                &fa.file,
                1,
                "no `CHUNK_ROW_BYTES_V4` constant declared".into(),
            )),
            _ => {}
        }
    }

    // Payload tag bytes are named constants with distinct values, and
    // the dtype-aware wire declares the three f32 level tags.
    if let Some(fa) = find(analyses, CORE_STREAM) {
        let tags: Vec<&ConstDecl> = fa
            .consts
            .iter()
            .filter(|c| c.name.starts_with("TAG_"))
            .collect();
        if tags.len() < 2 {
            v.push(violation(
                &fa.file,
                1,
                "payload tag bytes must be named TAG_* constants".into(),
            ));
        }
        for name in ["TAG_EMPTY_F32", "TAG_WHOLE_F32", "TAG_GROUPS_F32"] {
            if !tags.iter().any(|c| c.name == name && c.int.is_some()) {
                v.push(violation(
                    &fa.file,
                    1,
                    format!("no integer constant `{name}` declared (f32 level payload tag)"),
                ));
            }
        }
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                if tags[i].int.is_some() && tags[i].int == tags[j].int {
                    v.push(violation(
                        &fa.file,
                        tags[j].line,
                        format!("{} duplicates the value of {}", tags[j].name, tags[i].name),
                    ));
                }
            }
        }
    }

    // --- Single source of truth ----------------------------------------
    // Each declared magic literal appears exactly once in non-test code.
    for (decl_file, magic) in &magics {
        let mut occurrences: Vec<(&str, u32)> = Vec::new();
        for fa in analyses {
            for (bytes, line) in &fa.byte_strings {
                if bytes == magic {
                    occurrences.push((&fa.file, *line));
                }
            }
        }
        for (file, line) in occurrences.iter().skip(1) {
            v.push(violation(
                file,
                *line,
                format!(
                    "magic {magic:02x?} duplicated outside its declaration in {decl_file}; \
                     use the constant"
                ),
            ));
        }
        if occurrences.is_empty() {
            v.push(violation(
                decl_file,
                1,
                "declared magic literal not found".into(),
            ));
        }
    }

    // Row sizes never recur as bare literals in the modules that share
    // them (the `container.rs` comment-as-spec failure mode).
    let rows: Vec<(u64, u8)> = [(row_v2, 2u8), (row_v3, 3), (row_v4, 4)]
        .into_iter()
        .filter_map(|(r, n)| r.map(|val| (val, n)))
        .collect();
    if !rows.is_empty() {
        for file in [CORE_CONTAINER, CORE_STREAM, "crates/core/src/roi.rs"] {
            if let Some(fa) = find(analyses, file) {
                for &(value, line, col) in &fa.bare_ints {
                    if let Some(&(_, n)) = rows.iter().find(|&&(r, _)| r == value) {
                        v.push(Violation {
                            rule: "wire",
                            file: fa.file.clone(),
                            line,
                            col,
                            message: format!(
                                "bare chunk-row size {value}; use CHUNK_ROW_BYTES_V{n}"
                            ),
                        });
                    }
                }
            }
        }
    }

    // The PcoAns page size and the ANS table size never recur as bare
    // integers in the codec's wire modules — every use must go through
    // the named constant (same failure mode as the chunk-row sizes).
    let ans_wire_sizes: Vec<(u64, &str)> = [(pco_ans_page, "PAGE"), (ans_table_size, "TABLE_SIZE")]
        .into_iter()
        .filter_map(|(val, name)| val.map(|v| (v, name)))
        .collect();
    if !ans_wire_sizes.is_empty() {
        for file in [PCO_ANS, ANS, BINS] {
            if let Some(fa) = find(analyses, file) {
                let decl_lines: Vec<u32> = fa
                    .consts
                    .iter()
                    .filter(|c| ans_wire_sizes.iter().any(|&(_, n)| c.name == n))
                    .map(|c| c.line)
                    .collect();
                for &(value, line, col) in &fa.bare_ints {
                    if decl_lines.contains(&line) {
                        continue;
                    }
                    if let Some(&(_, name)) = ans_wire_sizes.iter().find(|&&(s, _)| s == value) {
                        v.push(Violation {
                            rule: "wire",
                            file: fa.file.clone(),
                            line,
                            col,
                            message: format!("bare ANS wire size {value}; use {name}"),
                        });
                    }
                }
            }
        }
    }

    // --- Golden fixtures -----------------------------------------------
    check_fixtures(
        root,
        &mut v,
        core_magic.as_deref(),
        &versions,
        row_v2,
        row_v3,
        row_v4,
    );
    v
}

/// Cross-checks every `tests/data/*.tacd` golden fixture against the
/// declared wire constants.
fn check_fixtures(
    root: &Path,
    v: &mut Vec<Violation>,
    core_magic: Option<&[u8]>,
    versions: &[u64],
    row_v2: Option<u64>,
    row_v3: Option<u64>,
    row_v4: Option<u64>,
) {
    let dir = root.join("tests").join("data");
    let mut fixtures: Vec<std::path::PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tacd"))
            .collect(),
        Err(_) => Vec::new(),
    };
    fixtures.sort();
    if fixtures.is_empty() {
        v.push(violation(
            "tests/data",
            1,
            "no golden .tacd fixtures found to cross-check wire constants against".into(),
        ));
        return;
    }
    for path in fixtures {
        let label = format!(
            "tests/data/{}",
            path.file_name()
                .map(|n| n.to_string_lossy())
                .unwrap_or_default()
        );
        let Ok(bytes) = std::fs::read(&path) else {
            v.push(violation(&label, 1, "fixture unreadable".into()));
            continue;
        };
        let mut bad = |msg: String| v.push(violation(&label, 1, msg));
        if bytes.len() < 5 {
            bad(format!(
                "fixture is {} bytes, smaller than any header",
                bytes.len()
            ));
            continue;
        }
        if let Some(magic) = core_magic {
            if &bytes[..4] != magic {
                bad(format!(
                    "fixture magic {:02x?} does not match the declared {magic:02x?}",
                    &bytes[..4]
                ));
                continue;
            }
        }
        let version = u64::from(bytes[4]);
        if !versions.is_empty() && !versions.contains(&version) {
            bad(format!(
                "fixture version byte {version} is not one of the declared {versions:?}"
            ));
            continue;
        }
        if version < 2 {
            continue; // v1 has no chunk table to check.
        }
        if version >= 4 {
            // v4+ headers carry the element-type tag right after the
            // method byte; only the two known tags are valid.
            match bytes.get(6) {
                Some(&tag) if tag <= 1 => {}
                Some(&tag) => {
                    bad(format!(
                        "v{version} fixture dtype tag byte {tag} is not a known element type \
                         (0 = f64, 1 = f32)"
                    ));
                    continue;
                }
                None => {
                    bad(format!(
                        "v{version} fixture too small to hold a dtype tag byte"
                    ));
                    continue;
                }
            }
        }
        let row = match (version, row_v2, row_v3, row_v4) {
            // v5 changed the prelude, not the table: its rows are v4's.
            (2, Some(r), _, _) | (3, _, Some(r), _) | (4 | 5, _, _, Some(r)) => r,
            _ => continue, // missing consts already reported
        };
        let len = bytes.len() as u64;
        if len < FOOTER + COUNT_PREFIX {
            bad("chunked fixture too small for a table footer".into());
            continue;
        }
        let Some(footer_at) = bytes.len().checked_sub(8) else {
            continue;
        };
        let footer: [u8; 8] = match bytes[footer_at..].try_into() {
            Ok(f) => f,
            Err(_) => continue,
        };
        let table_pos = u64::from_le_bytes(footer);
        let count_end = table_pos.checked_add(COUNT_PREFIX);
        if count_end.is_none() || count_end.is_some_and(|e| e > len - FOOTER) {
            bad(format!("footer table offset {table_pos} out of bounds"));
            continue;
        }
        let tp = table_pos as usize;
        let count_bytes: [u8; 4] = match bytes[tp..tp + 4].try_into() {
            Ok(c) => c,
            Err(_) => continue,
        };
        let count = u64::from(u32::from_le_bytes(count_bytes));
        let expected_len = count
            .checked_mul(row)
            .and_then(|rows| rows.checked_add(table_pos))
            .and_then(|x| x.checked_add(COUNT_PREFIX))
            .and_then(|x| x.checked_add(FOOTER));
        if expected_len != Some(len) {
            bad(format!(
                "geometry mismatch: table at {table_pos} with {count} rows of \
                 {row} bytes implies a {expected_len:?}-byte file, got {len} \
                 (writer/reader/fixture disagree on the row size)"
            ));
        }
    }
}
