//! Table 2 — overall compression+decompression throughput (MB/s) of the
//! 1D baseline, the 3D baseline, and TAC across all seven datasets at
//! three absolute error bounds (1e8, 1e9, 1e10).
//!
//! Expected shape: the 1D baseline fastest (no pre-processing); TAC close
//! behind; the 3D baseline collapsing on the Run 2 datasets, where
//! up-sampling a deep hierarchy inflates the data by orders of magnitude
//! (the paper measures up to 75x advantage for TAC on Run2_T4).

use crate::support::{default_scale, default_unit, load_dataset, measure};
use tac_core::ErrorBound;
use tac_core::{Method, TacConfig};

const DATASETS: &[&str] = &[
    "Run1_Z2", "Run1_Z3", "Run1_Z5", "Run1_Z10", "Run2_T2", "Run2_T3", "Run2_T4",
];
const EBS: &[f64] = &[1e8, 1e9, 1e10];

/// Runs the throughput grid.
pub fn report() -> String {
    let scale = default_scale();
    let unit = default_unit(scale);
    let mut out = String::new();
    out.push_str("Table 2: overall throughput (MB/s), compression + decompression\n");
    out.push_str(&format!(
        "  {:<8} {:<10} {:>8} {:>8} {:>8}   {}\n",
        "abs eb", "dataset", "1D", "3D", "TAC", "(3D redundancy factor)"
    ));
    for &eb in EBS {
        for &name in DATASETS {
            let ds = load_dataset(name, scale, 2);
            let original_bytes = ds.total_present() * 8;
            let n = ds.finest_dim();
            let uniform_cells = n * n * n;
            let redundancy = uniform_cells as f64 / ds.total_present() as f64;
            let cfg = TacConfig {
                unit,
                error_bound: ErrorBound::Abs(eb),
                ..Default::default()
            };
            let m1 = measure(&ds, &cfg, Method::Baseline1D, eb);
            let m3 = measure(&ds, &cfg, Method::Baseline3D, eb);
            let mt = measure(&ds, &cfg, Method::Tac, eb);
            out.push_str(&format!(
                "  {:<8.0e} {:<10} {:>8.0} {:>8.0} {:>8.0}   ({:.1}x)\n",
                eb,
                name,
                m1.throughput_mb_s(original_bytes),
                m3.throughput_mb_s(original_bytes),
                mt.throughput_mb_s(original_bytes),
                redundancy
            ));
        }
        out.push('\n');
    }
    out.push_str(
        "  paper shape: 1D fastest; TAC within ~1.5x of 1D on Run 1; the 3D\n  \
         baseline's throughput collapses with the redundancy factor on Run 2\n  \
         (paper: TAC up to 75x faster than 3D on Run2 datasets).\n",
    );
    out
}
