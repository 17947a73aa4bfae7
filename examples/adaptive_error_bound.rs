//! Per-level adaptive error bounds (paper Sec. 4.5): because TAC
//! compresses each AMR level independently, the error bound can differ
//! per level. The paper tunes fine:coarse to 3:1 for power-spectrum
//! quality and 2:1 for halo-finder quality; this example sweeps ratios
//! and shows the trade-off at (almost) constant compression ratio.
//!
//! ```sh
//! cargo run --release -p tac-bench --example adaptive_error_bound
//! ```

use tac_amr::to_uniform;
use tac_analysis::{power_spectrum, relative_error};
use tac_core::ErrorBound;
use tac_core::{compress_dataset_t, decompress_dataset_par_t, Method, Parallelism, TacConfig};
use tac_nyx::{entry, FieldKind};

fn main() {
    let ds = entry("Run1_Z2")
        .expect("catalog entry")
        .generate(FieldKind::BaryonDensity, 8, 77);
    let n = ds.finest_dim();
    let reference = power_spectrum(&to_uniform(&ds), n);

    println!("dataset {}: densities {:?}", ds.name(), ds.densities());
    println!(
        "\n{:<14} {:>9} {:>12} {:>16}",
        "fine:coarse", "CR", "PSNR (dB)", "max P(k) err (%)"
    );

    // Sweep error-bound ratios at a fixed base bound. Ratios > 1 loosen
    // the fine level (gaining ratio) while tightening what the coarse
    // level contributes to the up-sampled analysis grid.
    for (label, scales) in [
        ("1:1 (uniform)", vec![1.0, 1.0]),
        ("2:1", vec![2.0, 1.0]),
        ("3:1 (paper)", vec![3.0, 1.0]),
        ("8:1 (naive)", vec![8.0, 1.0]),
        ("1:2", vec![1.0, 2.0]),
    ] {
        let cfg = TacConfig {
            error_bound: ErrorBound::Rel(2e-5),
            level_eb_scale: scales,
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).expect("compress");
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).expect("decompress");
        let d = tac_analysis::amr_distortion(&ds, &out);
        let ps = power_spectrum(&to_uniform(&out), n);
        let max_err = relative_error(&reference, &ps)
            .into_iter()
            .zip(&reference.k)
            .filter(|(_, &k)| k < 10.0)
            .map(|(e, _)| e)
            .fold(0.0f64, f64::max);
        println!(
            "{label:<14} {:>8.1}x {:>12.2} {:>16.3}",
            cd.stats().ratio(),
            d.psnr,
            max_err * 100.0
        );
    }

    println!(
        "\nReading the table: ratios like 3:1 keep the compression ratio\n\
         close to uniform bounds while cutting the analysis error that\n\
         up-sampled coarse cells inject — the paper's Sec. 4.5 effect."
    );
}
