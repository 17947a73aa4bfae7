//! Ablation: unit-block size sweep for OpST / AKDTree / NaST on the
//! Run1_Z10 fine level — the design-choice study DESIGN.md calls out
//! (the paper fixes 16^3 on 512^3 grids; this shows the trade-off).

use crate::experiments::measure_level;
use crate::support::{default_scale, load_dataset, quick_mode};
use tac_core::ErrorBound;
use tac_core::{resolve_level_eb_for, Strategy};

/// Runs the sweep (quick mode keeps the 4 and 8 units).
pub fn report() -> String {
    let ds = load_dataset("Run1_Z10", default_scale(), 10);
    let fine = &ds.levels()[0];
    let eb = resolve_level_eb_for(ds.dtype(), ErrorBound::Rel(1e-4), 1.0, fine.value_range())
        .expect("bound resolution");
    let units: &[usize] = if quick_mode() { &[4, 8] } else { &[2, 4, 8, 16] };

    let mut out = format!(
        "Ablation: unit block size, Run1_Z10 fine level ({}^3, {:.0}% dense)\n",
        fine.dim(),
        fine.density() * 100.0
    );
    out.push_str(&format!(
        "{:>6} {:>10} {:>12} {:>12} {:>12}\n",
        "unit", "strategy", "CR", "PSNR (dB)", "prep+comp s"
    ));
    for &unit in units {
        if fine.dim() % unit != 0 || unit > fine.dim() {
            continue;
        }
        for strategy in [Strategy::NaST, Strategy::OpST, Strategy::AkdTree] {
            let m = measure_level(fine, strategy, eb, unit);
            out.push_str(&format!(
                "{unit:>6} {:>10} {:>12.1} {:>12.2} {:>12.3}\n",
                format!("{strategy:?}"),
                m.ratio,
                m.psnr,
                m.compress_s
            ));
        }
    }
    out.push_str("\nSmaller units remove empty space more exactly but multiply boundary\ncells and metadata; larger units keep prediction context but leave\nzeros inside blocks — the paper's 16^3-on-512^3 sits at ~1/32 of the dim.\n");
    out
}
