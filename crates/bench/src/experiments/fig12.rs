//! Figure 12 — zero filling (ZF) vs ghost-shell padding (GSP) on the
//! Run1_Z10 coarse level (77% density), relative bound 6.7e-3. In the
//! paper GSP beats ZF on CR and on the boundary error bloom (PSNR).
//! Here the writer codes every absent cell as don't-care, whatever
//! fill it holds, so ZF and GSP write identical payloads: the CR ratio
//! reads 1.000 and the PSNR delta 0 — the limit of GSP's idea, a fill
//! that costs nothing.

use crate::experiments::measure_level;
use crate::support::{default_scale, default_unit, load_dataset};
use tac_core::ErrorBound;
use tac_core::{resolve_level_eb_for, Strategy};

/// Runs the comparison.
pub fn report() -> String {
    let scale = default_scale();
    // Half the default unit: scaled-down coarse grids only contain
    // fully-empty blocks at finer block granularity (the paper's 16^3
    // units on 256^3 levels correspond to 2^3 on 32^3).
    let unit = (default_unit(scale) / 2).max(2);
    let ds = load_dataset("Run1_Z10", scale, 10);
    let coarse = &ds.levels()[1];
    let abs_eb = resolve_level_eb_for(
        ds.dtype(),
        ErrorBound::Rel(6.7e-3),
        1.0,
        coarse.value_range(),
    )
    .expect("bound resolution");

    let mut out = String::new();
    out.push_str("Figure 12: ZF vs GSP, Nyx baryon density, z10 coarse level\n");
    out.push_str(&format!(
        "  grid {}^3, density {:.1}%, rel eb 6.7e-3 (abs {:.3e}), unit {}^3\n",
        coarse.dim(),
        coarse.density() * 100.0,
        abs_eb,
        unit
    ));
    out.push_str(&format!(
        "  {:<9} {:>10} {:>12}\n",
        "method", "CR", "PSNR (dB)"
    ));
    let zf = measure_level(coarse, Strategy::ZeroFill, abs_eb, unit);
    let gsp = measure_level(coarse, Strategy::Gsp, abs_eb, unit);
    out.push_str(&format!(
        "  {:<9} {:>10.1} {:>12.2}\n",
        "ZF", zf.ratio, zf.psnr
    ));
    out.push_str(&format!(
        "  {:<9} {:>10.1} {:>12.2}\n",
        "GSP", gsp.ratio, gsp.psnr
    ));
    out.push_str(&format!(
        "  paper: ZF CR 156.7 / 32.8 dB, GSP CR 161.3 / 33.5 dB (GSP wins both)\n  here : GSP/ZF CR ratio {:.3}, PSNR delta {:+.2} dB (absent cells are don't-care: no fill is coded)\n",
        gsp.ratio / zf.ratio,
        gsp.psnr - zf.psnr
    ));
    out
}
