//! Runs every section of `tac_bench::experiments` in sequence — the full
//! reproduction of the paper's evaluation section, the codec comparison
//! and the two ablations.
//! Expect several minutes at the default scale; set `TAC_BENCH_SCALE=16`
//! or `TAC_BENCH_QUICK=1` for a faster pass.
//!
//! Flags:
//!
//! ```text
//!   --only <substr>   run only sections whose name contains <substr>
//!                     (case-insensitive; e.g. --only "Fig. 14",
//!                     --only table, --only ablation)
//!   --list            print section names and exit
//!   --obs             record spans/counters across every section and
//!                     finish with a per-stage breakdown plus a
//!                     chrome://tracing TRACE_repro.json (requires the
//!                     obs cargo feature; ignored otherwise)
//! ```

use tac_bench::experiments::{selected, SECTIONS};
use tac_bench::obs_support;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in SECTIONS {
            println!("{name}");
        }
        return;
    }
    let only = match args.iter().position(|a| a == "--only") {
        Some(i) => match args.get(i + 1) {
            Some(pat) => Some(pat.as_str()),
            None => {
                eprintln!("--only requires a section name substring (try --list)");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let sections = selected(only);
    if sections.is_empty() {
        eprintln!("no section matched the --only filter (try --list)");
        std::process::exit(2);
    }

    obs_support::obs_install();
    for (name, f) in sections {
        let t0 = std::time::Instant::now();
        println!("==================== {name} ====================");
        print!("{}", f());
        println!("  [{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    if let Some(snap) = obs_support::obs_take() {
        println!("==================== Profile (--obs) ====================");
        println!("{}", obs_support::write_trace_and_report("repro", &snap));
    }
}
