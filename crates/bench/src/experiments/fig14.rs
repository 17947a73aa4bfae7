//! Figure 14 — rate-distortion of TAC vs the 1D / zMesh / 3D baselines on
//! the four Run 1 snapshots (Z10, Z5, Z3, Z2).
//!
//! Expected shapes: TAC dominates the 1D baseline and zMesh everywhere
//! (zMesh slightly *below* 1D on tree-based data); against the 3D
//! baseline TAC wins clearly on Z10 (sparse finest level, 23%) while the
//! 3D baseline closes in — and can edge ahead at low bit-rates — as the
//! finest-level density climbs to 58/63/64%.

use crate::support::{default_scale, default_unit, load_dataset, measure};
use tac_core::ErrorBound;
use tac_core::{Method, TacConfig};

const DATASETS: &[&str] = &["Run1_Z10", "Run1_Z5", "Run1_Z3", "Run1_Z2"];
const EBS: &[f64] = &[1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5];

/// Runs the four-panel sweep.
pub fn report() -> String {
    report_for(
        DATASETS,
        "Figure 14: rate-distortion on Run 1 (TAC vs 1D, zMesh, 3D)",
    )
}

/// Shared renderer (Figure 15 reuses it for Run 2).
pub(crate) fn report_for(datasets: &[&str], title: &str) -> String {
    let scale = default_scale();
    let unit = default_unit(scale);
    let quick = crate::support::quick_mode();
    let ebs: &[f64] = if quick { &EBS[..3] } else { EBS };

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for &name in datasets {
        let ds = load_dataset(name, scale, 14);
        out.push_str(&format!(
            "\n  {name}: finest {}^3, densities {:?}\n",
            ds.finest_dim(),
            ds.densities()
                .iter()
                .map(|d| format!("{:.4}", d))
                .collect::<Vec<_>>()
        ));
        out.push_str(&format!(
            "  {:<9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "rel eb", "TAC b/v", "TAC dB", "1D b/v", "1D dB", "zM b/v", "zM dB", "3D b/v", "3D dB"
        ));
        for &eb in ebs {
            let cfg = TacConfig {
                unit,
                error_bound: ErrorBound::Rel(eb),
                ..Default::default()
            };
            let tac = measure(&ds, &cfg, Method::Tac, eb);
            let b1d = measure(&ds, &cfg, Method::Baseline1D, eb);
            let zm = measure(&ds, &cfg, Method::ZMesh, eb);
            let b3d = measure(&ds, &cfg, Method::Baseline3D, eb);
            out.push_str(&format!(
                "  {:<9.0e} {:>8.3} {:>8.2} {:>8.3} {:>8.2} {:>8.3} {:>8.2} {:>8.3} {:>8.2}\n",
                eb,
                tac.bit_rate,
                tac.psnr,
                b1d.bit_rate,
                b1d.psnr,
                zm.bit_rate,
                zm.psnr,
                b3d.bit_rate,
                b3d.psnr
            ));
        }
    }
    out
}
