//! Long-running fuzz campaign driver.
//!
//! The CI smoke runs 2k iterations; this example exists for deeper
//! local campaigns against the container parsers:
//!
//! ```text
//! cargo run --release -p tac-bench --example fuzz_long 200000 3
//! ```
//!
//! Arguments: iteration count (default 100000) and seed (default 1).
//! Exits non-zero and prints the offending bytes when a panic or an
//! incoherent decode is found — paste those bytes into
//! `tests/fuzz_regressions.rs` as a named regression before fixing.

use tac_bench::testkit::{fuzz_containers, FuzzConfig};

fn main() {
    let iterations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let out = fuzz_containers(&FuzzConfig { iterations, seed });
    println!("{}", out.summary());
    for case in out.panics.iter().chain(out.incoherent.iter()).take(10) {
        println!("CASE iter={} desc={}", case.iteration, case.description);
        println!("BYTES {:?}", case.bytes);
    }
    std::process::exit(i32::from(!out.clean()));
}
