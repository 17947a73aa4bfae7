//! Figure 11 — rate-distortion (bit-rate vs PSNR) of GSP, OpST, and
//! AKDTree on six single levels spanning densities 23% … 99.9%.
//!
//! Expected shapes: OpST and AKDTree nearly identical everywhere (the
//! paper's justification for switching on *time*, not quality); GSP worse
//! at low density, overtaking around ~60% (the T2 threshold).

use crate::experiments::measure_level;
use crate::support::{default_scale, default_unit, load_dataset};
use tac_core::ErrorBound;
use tac_core::{resolve_level_eb_for, Strategy};

/// The six density cases: (label, dataset, level index). Densities match
/// the paper's panels a-f.
const CASES: &[(&str, &str, usize)] = &[
    ("z10 (d=23%)", "Run1_Z10", 0),
    ("z5  (d=58%)", "Run1_Z5", 0),
    ("z2  (d=63%)", "Run1_Z2", 0),
    ("z3  (d=64%)", "Run1_Z3", 0),
    ("T2  (d=99.8%)", "Run2_T2", 1),
    ("T3  (d=99.4%)", "Run2_T3", 2),
];

/// Relative error bounds swept per curve.
const EBS: &[f64] = &[1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5];

/// Runs the sweep and renders the six panels.
pub fn report() -> String {
    let scale = default_scale();
    let unit = default_unit(scale);
    let quick = crate::support::quick_mode();
    let ebs: &[f64] = if quick { &EBS[..3] } else { EBS };

    let mut out = String::new();
    out.push_str("Figure 11: rate-distortion of GSP vs OpST vs AKDTree at six densities\n");
    for &(label, dataset, level_idx) in CASES {
        let ds = load_dataset(dataset, scale, 11);
        let level = &ds.levels()[level_idx];
        out.push_str(&format!(
            "\n  panel {label}: level {}^3, density {:.2}%\n",
            level.dim(),
            level.density() * 100.0
        ));
        out.push_str(&format!(
            "  {:<9} {:>9} {:>11} {:>9} {:>11} {:>9} {:>11}\n",
            "rel eb", "GSP b/v", "GSP dB", "OpST b/v", "OpST dB", "AKD b/v", "AKD dB"
        ));
        for &eb in ebs {
            let abs_eb =
                resolve_level_eb_for(ds.dtype(), ErrorBound::Rel(eb), 1.0, level.value_range())
                    .expect("eb");
            let gsp = measure_level(level, Strategy::Gsp, abs_eb, unit);
            let opst = measure_level(level, Strategy::OpST, abs_eb, unit);
            let akd = measure_level(level, Strategy::AkdTree, abs_eb, unit);
            out.push_str(&format!(
                "  {:<9.0e} {:>9.3} {:>11.2} {:>9.3} {:>11.2} {:>9.3} {:>11.2}\n",
                eb, gsp.bit_rate, gsp.psnr, opst.bit_rate, opst.psnr, akd.bit_rate, akd.psnr
            ));
        }
    }
    out.push_str(
        "\n  paper shape: OpST ~= AKDTree on all panels; GSP behind at low density,\n  \
         level with them by ~60% and ahead at 99.8/99.9%.\n",
    );
    out
}
