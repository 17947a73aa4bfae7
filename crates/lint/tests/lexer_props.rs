//! Property tests: the hand-rolled lexer and the rule engine are total.
//!
//! The lint runs over every workspace source file on every CI build, so
//! `lex`/`analyze_file` must never panic, whatever bytes they meet —
//! including half-finished edits: unterminated strings, unbalanced
//! fences, stray quotes. Inputs come from two generators: raw byte soup
//! (lossy-decoded, since the shim has no string strategy) and
//! pseudo-programs glued from adversarial Rust fragments.

use proptest::prelude::*;
use tac_lint::lexer::{byte_string_value, int_value, lex};
use tac_lint::rules::analyze_file;

/// Rust-ish source fragments chosen to hit the lexer's tricky paths
/// (raw/byte strings, nested comments, lifetimes vs chars, unterminated
/// literals) and the rule engine's scanners (suppressions, cfg(test)
/// headers, const declarations, panic/arith constructs).
const FRAGMENTS: &[&str] = &[
    "fn f(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ".unwrap()",
    ".expect(\"x\")",
    "panic!(",
    "unreachable!",
    "v[0]",
    "pos + 4",
    "len * 2",
    "as u8",
    "as usize",
    "const A: u8 = 1;",
    "const MAGIC: [u8; 4] = *b\"ABCD\";",
    "#[cfg(test)]",
    "mod tests",
    "// tac-lint: allow(panic) -- why\n",
    "// tac-lint: allow(",
    "unsafe",
    "'a",
    "'x'",
    "b'\\n'",
    "r#\"raw\"#",
    "br##\"raw\"##",
    "\"str\\\"esc\"",
    "/* nested /* block */ */",
    "/* open",
    "\"open",
    "0x_",
    "1e-4",
    "0..n",
    "let x = ",
    ";",
    "\n",
    "?",
    "!",
    "#",
    "e.len",
    "idx",
    "=>",
    "::",
    "..=",
];

fn soup(indices: &[u8]) -> String {
    indices
        .iter()
        .map(|&i| FRAGMENTS[i as usize % FRAGMENTS.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lex_is_total_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        // Positions are 1-based and lines never go backwards.
        let mut last = 1u32;
        for t in &tokens {
            prop_assert!(t.line >= last && t.col >= 1, "line {} after {last}", t.line);
            last = t.line;
        }
    }

    #[test]
    fn whitespace_free_input_reconstructs_exactly(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // The lexer is total and lossless up to whitespace: with no
        // whitespace in the input, every char lands in exactly one
        // token and concatenating the token texts rebuilds the source.
        let src: String = String::from_utf8_lossy(&bytes)
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let joined: String = lex(&src).iter().map(|t| t.text.as_str()).collect();
        prop_assert_eq!(joined, src);
    }

    #[test]
    fn analyze_file_is_total_on_fragment_soup(
        idx in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let src = soup(&idx);
        // Decode-path, wire-arith, and unlisted paths exercise all
        // three rule sets plus the const/byte-string collectors.
        for path in [
            "crates/codec/src/sz/compress.rs",
            "crates/core/src/container.rs",
            "crates/other/src/lib.rs",
        ] {
            let fa = analyze_file(path, &src);
            for v in &fa.violations {
                prop_assert!(v.line >= 1 && v.col >= 1);
            }
        }
    }

    #[test]
    fn analyze_file_is_total_on_byte_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let _ = analyze_file("crates/codec/src/sz/compress.rs", &src);
    }

    #[test]
    fn int_value_round_trips_radices_and_suffixes(x in any::<u64>()) {
        prop_assert_eq!(int_value(&format!("{x}")), Some(x));
        prop_assert_eq!(int_value(&format!("0x{x:x}")), Some(x));
        prop_assert_eq!(int_value(&format!("0b{x:b}usize")), Some(x));
        prop_assert_eq!(int_value(&format!("{x}u64")), Some(x));
    }

    #[test]
    fn literal_helpers_are_total_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let s = String::from_utf8_lossy(&bytes).into_owned();
        let _ = int_value(&s);
        let _ = byte_string_value(&s);
    }

    #[test]
    fn byte_string_value_round_trips_plain_ascii(
        idx in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        const PAL: &[u8] = b"ABCdef019 _-";
        let bytes: Vec<u8> = idx.iter().map(|&i| PAL[i as usize % PAL.len()]).collect();
        let text = format!("b\"{}\"", String::from_utf8_lossy(&bytes));
        prop_assert_eq!(byte_string_value(&text), Some(bytes));
    }
}
