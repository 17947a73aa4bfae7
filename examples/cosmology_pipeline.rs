//! Full cosmology workflow: compress every field of a synthetic Nyx
//! snapshot, then run both application-specific post-analyses (matter
//! power spectrum and halo finder) on the decompressed data and compare
//! against the originals — the workflow a simulation group would run
//! before committing to in-situ compression settings.
//!
//! ```sh
//! cargo run --release -p tac-bench --example cosmology_pipeline
//! ```

use tac_amr::to_uniform;
use tac_analysis::{
    compare_catalogs, find_halos, power_spectrum, relative_error, HaloFinderConfig,
};
use tac_core::ErrorBound;
use tac_core::{compress_dataset_t, decompress_dataset_par_t, Method, Parallelism, TacConfig};
use tac_nyx::{entry, FieldKind};

fn main() {
    let catalog_entry = entry("Run1_Z2").expect("catalog entry");
    let cfg = TacConfig::with_error_bound(ErrorBound::Rel(1e-5));

    println!("=== snapshot {} (scale 1/8) ===\n", catalog_entry.name);
    println!(
        "{:<22} {:>9} {:>12} {:>10}",
        "field", "CR", "bit-rate", "PSNR (dB)"
    );

    let mut baryon = None;
    for kind in FieldKind::all() {
        let ds = catalog_entry.generate(kind, 8, 1234);
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).expect("compress");
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).expect("decompress");
        let d = tac_analysis::amr_distortion(&ds, &out);
        let stats = cd.stats();
        println!(
            "{:<22} {:>8.1}x {:>9.3} b/v {:>10.2}",
            kind.name(),
            stats.ratio(),
            stats.bit_rate(),
            d.psnr
        );
        if kind == FieldKind::BaryonDensity {
            baryon = Some((ds, out));
        }
    }

    let (original, decompressed) = baryon.expect("baryon density processed");
    let n = original.finest_dim();

    // --- Post-analysis 1: matter power spectrum -------------------------
    let uni_orig = to_uniform(&original);
    let uni_dec = to_uniform(&decompressed);
    let ps_orig = power_spectrum(&uni_orig, n);
    let ps_dec = power_spectrum(&uni_dec, n);
    let errs = relative_error(&ps_orig, &ps_dec);
    println!("\n--- power spectrum (baryon density) ---");
    println!(
        "{:>6} {:>14} {:>14} {:>10}",
        "k", "P(k) orig", "P(k) dec", "rel err"
    );
    for ((k, (p, q)), e) in ps_orig
        .k
        .iter()
        .zip(ps_orig.power.iter().zip(&ps_dec.power))
        .zip(&errs)
        .take(10)
    {
        println!("{k:>6.2} {p:>14.5e} {q:>14.5e} {e:>9.4}%", e = e * 100.0);
    }
    let max_low_k = errs
        .iter()
        .zip(&ps_orig.k)
        .filter(|(_, &k)| k < 10.0)
        .map(|(e, _)| *e)
        .fold(0.0f64, f64::max);
    println!("max relative error for k < 10: {:.3}%", max_low_k * 100.0);

    // --- Post-analysis 2: halo finder -----------------------------------
    let hf = HaloFinderConfig {
        threshold_factor: 20.0,
        min_cells: 4,
    };
    let cat_orig = find_halos(&uni_orig, n, &hf);
    let cat_dec = find_halos(&uni_dec, n, &hf);
    println!(
        "\n--- halo finder (threshold {:.1}x mean) ---",
        hf.threshold_factor
    );
    println!("halos in original    : {}", cat_orig.halos.len());
    println!("halos in decompressed: {}", cat_dec.halos.len());
    if let Some(big) = cat_orig.biggest() {
        println!(
            "biggest halo         : {} cells, mass {:.4e} at {:?}",
            big.num_cells, big.mass, big.position
        );
        let cmp = compare_catalogs(&cat_orig, &cat_dec);
        println!("rel mass difference  : {:.3e}", cmp.rel_mass_diff);
        println!("cell count difference: {}", cmp.cell_count_diff);
    }
}
