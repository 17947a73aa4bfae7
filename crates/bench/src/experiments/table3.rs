//! Table 3 — halo-finder fidelity at matched compression ratio on
//! Run1_Z2: the 3D baseline, TAC with uniform bounds, and TAC with the
//! halo-tuned 2:1 (fine:coarse) ratio. Reports the relative mass
//! difference and the cell-count difference of the biggest halo.
//!
//! Expected shape: at the same CR, TAC(1:1) already beats the 3D
//! baseline slightly, and TAC(2:1) gives the smallest differences (the
//! paper's 6.66e-4 -> 4.97e-4 -> 4.49e-4 mass-drift progression).

use crate::support::{calibrate_to_cr, default_scale, default_unit, load_dataset};
use tac_amr::to_uniform;
use tac_analysis::{compare_catalogs, find_halos, HaloFinderConfig};
use tac_core::ErrorBound;
use tac_core::{compress_dataset_t, decompress_dataset_par_t, Method, Parallelism, TacConfig};

/// Matched compression ratio (the paper's Table 3 sits at CR ~198.5 on
/// 512^3 data; scaled data saturates earlier, so a smaller CR keeps all
/// three methods in their informative regime).
const TARGET_CR: f64 = 20.0;

/// Runs the comparison.
pub fn report() -> String {
    let scale = default_scale();
    let unit = default_unit(scale);
    let ds = load_dataset("Run1_Z2", scale, 33);
    let n = ds.finest_dim();
    let uniform = to_uniform(&ds);
    let hf = HaloFinderConfig {
        threshold_factor: 20.0,
        min_cells: 4,
    };
    let reference = find_halos(&uniform, n, &hf);

    let mut out = String::new();
    out.push_str("Table 3: halo finder at matched CR, Run1_Z2 baryon density\n");
    out.push_str(&format!(
        "  target CR {TARGET_CR}; halos in original: {} (threshold {:.1}x mean, min {} cells)\n\n",
        reference.halos.len(),
        hf.threshold_factor,
        hf.min_cells
    ));
    out.push_str(&format!(
        "  {:<14} {:>8} {:>16} {:>16} {:>12}\n",
        "method", "CR", "rel mass diff", "cell num diff", "halo # diff"
    ));
    let cases: [(&str, Method, Vec<f64>); 3] = [
        ("3D baseline", Method::Baseline3D, vec![]),
        ("TAC (1:1)", Method::Tac, vec![1.0, 1.0]),
        ("TAC (2:1)", Method::Tac, vec![2.0, 1.0]),
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
        let cat = find_halos(&to_uniform(&recon), n, &hf);
        let cmp = compare_catalogs(&reference, &cat);
        out.push_str(&format!(
            "  {:<14} {:>8.1} {:>16.3e} {:>16} {:>12}\n",
            label, measured.ratio, cmp.rel_mass_diff, cmp.cell_count_diff, cmp.halo_count_diff
        ));
    }
    out.push_str(
        "\n  paper: 3D 6.66e-4 / 39 cells; TAC 1:1 4.97e-4 / 28; TAC 2:1 4.49e-4 / 25\n  \
         (adaptive per-level bounds give the most faithful halo catalog).\n",
    );
    out
}
