//! Figure 19 — power-spectrum relative error of the 3D baseline, TAC with
//! a uniform error bound, and TAC with the adaptive per-level bound, all
//! calibrated to (almost) the same compression ratio on Run1_Z2's baryon
//! density.
//!
//! Expected shape (the paper's headline for Sec. 4.5): TAC(uniform) is
//! about level with the 3D baseline; TAC with the tuned fine:coarse
//! ratio (3:1 in the paper) pushes the spectrum error well below both.

use crate::support::{calibrate_to_cr, default_scale, default_unit, load_dataset};
use tac_amr::to_uniform;
use tac_analysis::{power_spectrum, relative_error};
use tac_core::ErrorBound;
use tac_core::{compress_dataset_t, decompress_dataset_par_t, Method, Parallelism, TacConfig};

/// Matched compression ratio all methods are calibrated to.
const TARGET_CR: f64 = 20.0;

/// Runs the matched-CR comparison.
pub fn report() -> String {
    let scale = default_scale();
    let unit = default_unit(scale);
    let ds = load_dataset("Run1_Z2", scale, 77);
    let n = ds.finest_dim();
    let reference = power_spectrum(&to_uniform(&ds), n);

    let mut out = String::new();
    out.push_str("Figure 19: power-spectrum error at matched CR, Run1_Z2 baryon density\n");
    out.push_str(&format!("  target CR {TARGET_CR}, finest grid {n}^3\n\n"));
    out.push_str(&format!(
        "  {:<16} {:>8} {:>10} {:>22}\n",
        "method", "CR", "base eb", "max relerr k<10 (%)"
    ));

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let cases: [(&str, Method, Vec<f64>); 4] = [
        ("3D baseline", Method::Baseline3D, vec![]),
        ("TAC 1:1", Method::Tac, vec![1.0, 1.0]),
        ("TAC 2:1", Method::Tac, vec![2.0, 1.0]),
        ("TAC 3:1", Method::Tac, vec![3.0, 1.0]),
    ];
    for (label, method, scales) in cases {
        let (base_eb, measured) = calibrate_to_cr(&ds, method, scales.clone(), TARGET_CR, unit);
        let cfg = TacConfig {
            unit,
            error_bound: ErrorBound::Abs(base_eb),
            level_eb_scale: scales,
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, method).expect("compress");
        let recon = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).expect("decompress");
        let ps = power_spectrum(&to_uniform(&recon), n);
        let errs = relative_error(&reference, &ps);
        let max_low_k = errs
            .iter()
            .zip(&reference.k)
            .filter(|(_, &k)| k < 10.0)
            .map(|(e, _)| *e)
            .fold(0.0f64, f64::max);
        out.push_str(&format!(
            "  {:<16} {:>8.1} {:>10.2e} {:>21.2}%\n",
            label,
            measured.ratio,
            base_eb,
            max_low_k * 100.0
        ));
        rows.push((label.to_string(), errs));
    }

    // Per-k error table for the curve shape (the paper's x-axis).
    out.push_str("\n  per-bin relative error (%):\n");
    out.push_str(&format!("  {:>6}", "k"));
    for (label, _) in &rows {
        out.push_str(&format!(" {:>12}", label));
    }
    out.push('\n');
    for (i, k) in reference.k.iter().enumerate().take(10) {
        out.push_str(&format!("  {k:>6.2}"));
        for (_, errs) in &rows {
            out.push_str(&format!(" {:>11.2}%", errs[i] * 100.0));
        }
        out.push('\n');
    }
    out.push_str(
        "\n  paper shape: TAC(1:1) ~ 3D baseline; the tuned ratio cuts the error\n  \
         well below both at the same CR (red dashed 1% line in the paper).\n",
    );
    out
}
