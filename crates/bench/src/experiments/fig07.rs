//! Figure 7 — NaST vs OpST on the Run1_Z10 fine level (23% density),
//! relative error bound 4.8e-4: OpST must deliver *both* a higher
//! compression ratio and an equal-or-higher PSNR (larger sub-blocks mean
//! fewer poorly predicted boundary cells).

use crate::experiments::measure_level;
use crate::support::{default_scale, load_dataset};
use tac_core::ErrorBound;
use tac_core::{resolve_level_eb_for, Strategy};

/// Runs the experiment and renders the paper-style comparison.
pub fn report() -> String {
    let scale = default_scale();
    let unit = crate::support::default_unit(scale);
    let ds = load_dataset("Run1_Z10", scale, 10);
    let fine = &ds.levels()[0];
    let abs_eb = resolve_level_eb_for(ds.dtype(), ErrorBound::Rel(4.8e-4), 1.0, fine.value_range())
        .expect("bound resolution");

    let mut out = String::new();
    out.push_str("Figure 7: NaST vs OpST, Nyx baryon density, z10 fine level\n");
    out.push_str(&format!(
        "  grid {}^3, density {:.1}%, rel eb 4.8e-4 (abs {:.3e}), unit {}^3\n",
        fine.dim(),
        fine.density() * 100.0,
        abs_eb,
        unit
    ));
    out.push_str(&format!(
        "  {:<8} {:>10} {:>12}\n",
        "method", "CR", "PSNR (dB)"
    ));
    let mut rows = Vec::new();
    for strategy in [Strategy::NaST, Strategy::OpST] {
        let m = measure_level(fine, strategy, abs_eb, unit);
        out.push_str(&format!(
            "  {:<8} {:>10.1} {:>12.2}\n",
            format!("{strategy:?}"),
            m.ratio,
            m.psnr
        ));
        rows.push(m);
    }
    out.push_str(&format!(
        "  paper: NaST CR 233.8 / 76.9 dB, OpST CR 241.1 / 77.8 dB (OpST wins both)\n  here : OpST/NaST CR ratio {:.3}, PSNR delta {:+.2} dB\n",
        rows[1].ratio / rows[0].ratio,
        rows[1].psnr - rows[0].psnr
    ));
    out
}
