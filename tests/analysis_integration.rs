//! Post-analysis integration: power spectrum and halo finder over
//! compressed/decompressed cosmology data — the Sec. 4.5 experiments in
//! miniature.

use tac_amr::to_uniform;
use tac_analysis::{
    amr_distortion, compare_catalogs, find_halos, power_spectrum, relative_error, HaloFinderConfig,
};
use tac_core::ErrorBound;
use tac_core::{compress_dataset_t, decompress_dataset_par_t, Method, Parallelism, TacConfig};
use tac_nyx::{entry, FieldKind};

fn z2(scale: usize, seed: u64) -> tac_amr::AmrDataset {
    entry("Run1_Z2")
        .unwrap()
        .generate(FieldKind::BaryonDensity, scale, seed)
}

#[test]
fn power_spectrum_error_shrinks_with_error_bound() {
    let ds = z2(16, 21); // 32^3 fine
    let n = ds.finest_dim();
    let reference = power_spectrum(&to_uniform(&ds), n);
    let mut errors = Vec::new();
    for eb in [1e-2, 1e-4, 1e-5] {
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(eb),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        let ps = power_spectrum(&to_uniform(&out), n);
        // The paper's criterion inspects k below a cutoff (k < 10).
        let max_err = relative_error(&reference, &ps)
            .into_iter()
            .zip(&reference.k)
            .filter(|(_, &k)| k < 10.0)
            .map(|(e, _)| e)
            .fold(0.0f64, f64::max);
        errors.push(max_err);
    }
    assert!(
        errors[0] > errors[2],
        "spectrum error should shrink with eb: {errors:?}"
    );
    // At rel 1e-5 the low-k spectrum error is small (the synthetic field's
    // halo shot noise makes the paper's 1% a 5% here at this tiny scale).
    assert!(errors[2] < 0.05, "rel 1e-5 spectrum error {}", errors[2]);
}

#[test]
fn halo_finder_survives_compression() {
    let ds = z2(8, 22); // 64^3 fine for meaningful halos
    let n = ds.finest_dim();
    let uniform = to_uniform(&ds);
    let hf = HaloFinderConfig {
        threshold_factor: 20.0,
        min_cells: 4,
    };
    let original = find_halos(&uniform, n, &hf);
    assert!(
        !original.halos.is_empty(),
        "synthetic baryon field must contain halos"
    );
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-4),
        ..Default::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    let decompressed = find_halos(&to_uniform(&out), n, &hf);
    let cmp = compare_catalogs(&original, &decompressed);
    assert!(
        cmp.rel_mass_diff < 0.01,
        "biggest halo mass drifted {}",
        cmp.rel_mass_diff
    );
}

#[test]
fn adaptive_eb_trades_level_fidelity() {
    // With a 3:1 (fine:coarse) error-bound ratio at matched total budget,
    // the coarse level gets *more* fidelity than uniform bounds give it.
    let ds = z2(16, 23);
    let uniform_cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Abs(2e7),
        ..Default::default()
    };
    let adaptive_cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Abs(2e7),
        level_eb_scale: vec![1.5, 0.5], // fine looser, coarse tighter
        ..Default::default()
    };
    let uni = decompress_dataset_par_t::<f64>(
        &compress_dataset_t(&ds, &uniform_cfg, Method::Tac).unwrap(),
        Parallelism::Serial,
    )
    .unwrap();
    let ada = decompress_dataset_par_t::<f64>(
        &compress_dataset_t(&ds, &adaptive_cfg, Method::Tac).unwrap(),
        Parallelism::Serial,
    )
    .unwrap();
    let coarse_err = |recon: &tac_amr::AmrDataset| {
        let a = &ds.levels()[1];
        let b = &recon.levels()[1];
        let mut max = 0.0f64;
        for i in a.mask().iter_ones() {
            max = max.max((a.data()[i] - b.data()[i]).abs());
        }
        max
    };
    assert!(
        coarse_err(&ada) <= coarse_err(&uni) + 1e-9,
        "adaptive coarse error {} vs uniform {}",
        coarse_err(&ada),
        coarse_err(&uni)
    );
}

#[test]
fn psnr_orders_methods_consistently() {
    // All methods at the same relative bound: distortion must be within
    // the bound-implied floor for each, and PSNR finite/positive.
    let ds = z2(16, 24);
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-3),
        ..Default::default()
    };
    for method in [
        Method::Tac,
        Method::Baseline1D,
        Method::ZMesh,
        Method::Baseline3D,
    ] {
        let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        let d = amr_distortion(&ds, &out);
        assert!(
            d.psnr > 40.0 && d.psnr.is_finite(),
            "{method:?}: psnr {}",
            d.psnr
        );
    }
}

#[test]
fn spectrum_of_reconstruction_matches_reference_bin_by_bin() {
    // Shape preservation: every low-k bin of the decompressed spectrum
    // tracks the original within a few percent at a tight bound.
    let ds = z2(16, 25);
    let n = ds.finest_dim();
    let reference = power_spectrum(&to_uniform(&ds), n);
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-5),
        ..Default::default()
    };
    let out = decompress_dataset_par_t::<f64>(
        &compress_dataset_t(&ds, &cfg, Method::Tac).unwrap(),
        Parallelism::Serial,
    )
    .unwrap();
    let ps = power_spectrum(&to_uniform(&out), n);
    for ((e, &k), &p) in relative_error(&reference, &ps)
        .iter()
        .zip(&reference.k)
        .zip(&reference.power)
    {
        if k < 10.0 {
            assert!(*e < 0.08, "bin k={k:.1} (P={p:.3e}) drifted {e:.4}");
        }
    }
}
