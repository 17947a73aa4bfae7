//! The conformance runner: sweeps the full error-bound matrix (every
//! registered scenario x {TAC, 1D, zMesh, 3D} x {sz, pco-ans} x
//! {memory, v5} x {1, 2, 4, 8} workers, plus one `Method::Auto` sweep
//! per scenario: 234 cells), writes the
//! machine-readable `CONFORMANCE.json` artifact, then runs the bounded
//! container-fuzz smoke. Exits non-zero if any matrix cell fails or the
//! fuzzer observes a panic/incoherent decode.
//!
//! Flags:
//!
//! ```text
//!   --seed <u64>        scenario generation seed (default 7)
//!   --fuzz-iters <n>    fuzz smoke iterations (default 2000; 0 skips)
//!   --fuzz-seed <u64>   fuzz mutation seed (default the CI seed)
//!   --out <path>        report path (default <repo root>/CONFORMANCE.json)
//! ```

use tac_testkit::{fuzz_containers, run_conformance, FuzzConfig};

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = flag(&args, "--seed", 7);
    let fuzz_iters: usize = flag(&args, "--fuzz-iters", FuzzConfig::default().iterations);
    let fuzz_seed: u64 = flag(&args, "--fuzz-seed", FuzzConfig::default().seed);
    let out: String = flag(
        &args,
        "--out",
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../CONFORMANCE.json")
            .to_string_lossy()
            .into_owned(),
    );

    let t0 = std::time::Instant::now();
    let report = run_conformance(seed);
    print!("{}", report.summary());
    println!("matrix swept in {:.1?}", t0.elapsed());
    match std::fs::write(&out, report.to_json()) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(2);
        }
    }

    let mut clean = report.all_pass();
    if fuzz_iters > 0 {
        let t1 = std::time::Instant::now();
        let outcome = fuzz_containers(&FuzzConfig {
            iterations: fuzz_iters,
            seed: fuzz_seed,
        });
        println!("{} in {:.1?}", outcome.summary(), t1.elapsed());
        for case in outcome.panics.iter().chain(outcome.incoherent.iter()) {
            println!("CASE iter={} desc={}", case.iteration, case.description);
            println!("BYTES {:?}", case.bytes);
        }
        clean &= outcome.clean();
    }
    std::process::exit(i32::from(!clean));
}
