//! Runs every table/figure harness in sequence — the full reproduction
//! of the paper's evaluation section plus the parallel-engine section.
//! Expect several minutes at the default scale; set `TAC_BENCH_SCALE=16`
//! or `TAC_BENCH_QUICK=1` for a faster pass.
//!
//! Flags:
//!
//! ```text
//!   --only <substr>   run only sections whose name contains <substr>
//!                     (case-insensitive; e.g. --only par, --only table)
//!   --list            print section names and exit
//!   --obs             record spans/counters across every section and
//!                     finish with a per-stage breakdown plus a
//!                     chrome://tracing TRACE_repro.json (requires the
//!                     obs cargo feature; ignored otherwise)
//! ```

use tac_bench::experiments as ex;
use tac_bench::obs_support;

type Section = (&'static str, fn() -> String);

fn main() {
    let sections: Vec<Section> = vec![
        ("Fig. 7", ex::fig07::report),
        ("Fig. 11", ex::fig11::report),
        ("Fig. 12", ex::fig12::report),
        ("Fig. 13", ex::fig13::report),
        ("Fig. 14", ex::fig14::report),
        ("Fig. 15", ex::fig15::report),
        ("Fig. 16", ex::fig16::report),
        ("Fig. 18", ex::fig18::report),
        ("Fig. 19", ex::fig19::report),
        ("Table 2", ex::table2::report),
        ("Table 3", ex::table3::report),
        ("Parallel + ROI", ex::par_speedup::report),
        ("Codec comparison", ex::codec_comparison::report),
    ];

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &sections {
            println!("{name}");
        }
        return;
    }
    let only = match args.iter().position(|a| a == "--only") {
        Some(i) => match args.get(i + 1) {
            Some(pat) => Some(pat.to_lowercase()),
            None => {
                eprintln!("--only requires a section name substring (try --list)");
                std::process::exit(2);
            }
        },
        None => None,
    };

    obs_support::obs_install();
    let mut ran = 0;
    for (name, f) in sections {
        if let Some(pat) = &only {
            if !name.to_lowercase().contains(pat) {
                continue;
            }
        }
        ran += 1;
        let t0 = std::time::Instant::now();
        println!("==================== {name} ====================");
        print!("{}", f());
        println!("  [{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    if ran == 0 {
        eprintln!("no section matched the --only filter (try --list)");
        std::process::exit(2);
    }
    if let Some(snap) = obs_support::obs_take() {
        println!("==================== Profile (--obs) ====================");
        println!("{}", obs_support::write_trace_and_report("repro", &snap));
    }
}
