//! Cross-crate integration: synthetic Nyx datasets through every
//! compression method, verifying error bounds, container serialization,
//! and structural integrity end to end.

use tac_amr::AmrDataset;
use tac_core::ErrorBound;
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, CompressedDataset, Method, Parallelism, TacConfig,
};
use tac_nyx::{entry, FieldKind};

/// Per-level absolute bound check over present cells.
fn assert_bounds(orig: &AmrDataset, recon: &AmrDataset, abs_eb_per_level: &[f64]) {
    for (l, (a, b)) in orig.levels().iter().zip(recon.levels()).enumerate() {
        let eb = abs_eb_per_level[l.min(abs_eb_per_level.len() - 1)];
        for i in a.mask().iter_ones() {
            let (x, y) = (a.data()[i], b.data()[i]);
            assert!(
                (x - y).abs() <= eb * (1.0 + 1e-9),
                "level {l} cell {i}: {x} vs {y} (eb {eb})"
            );
        }
    }
}

fn global_range(ds: &AmrDataset) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for l in ds.levels() {
        if let Some((a, b)) = l.value_range() {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    }
    hi - lo
}

fn small_z10() -> AmrDataset {
    entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 7) // 32^3 fine level
}

#[test]
fn all_methods_roundtrip_z10() {
    let ds = small_z10();
    ds.validate().unwrap();
    let range = global_range(&ds);
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-4),
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
        // Every method resolves Rel(1e-4) against a range no larger than
        // the uniform/global range, so 1e-4 * global range is the loosest
        // possible absolute bound.
        assert_bounds(&ds, &out, &[1e-4 * range]);
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            assert_eq!(a.mask(), b.mask(), "{method:?} altered the mask");
        }
        assert!(cd.stats().ratio() > 1.0, "{method:?} failed to compress");
    }
}

#[test]
fn container_bytes_roundtrip_through_disk_format() {
    let ds = small_z10();
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Abs(1e6),
        ..Default::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let bytes = cd.to_bytes();
    let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
    assert_eq!(parsed, cd);
    let out = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap();
    assert_eq!(out.num_levels(), ds.num_levels());
    // Byte-level determinism: compressing the same input twice gives the
    // same container.
    let cd2 = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    assert_eq!(cd2.to_bytes(), bytes);
}

#[test]
fn deep_hierarchy_t4_roundtrips() {
    let e = entry("Run2_T4").unwrap();
    let ds = e.generate(FieldKind::BaryonDensity, 16, 3); // 64^3 finest, 4 levels
    ds.validate().unwrap();
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Abs(1e7),
        ..Default::default()
    };
    for method in [Method::Tac, Method::Baseline1D, Method::Baseline3D] {
        let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        assert_bounds(&ds, &out, &[1e7]);
    }
}

#[test]
fn per_level_bounds_hold_with_adaptive_eb() {
    let ds = small_z10();
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Abs(1e6),
        level_eb_scale: vec![3.0, 1.0], // paper's power-spectrum tuning
        ..Default::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    assert_bounds(&ds, &out, &[3e6, 1e6]);
    let strategies = cd.strategies().unwrap();
    assert_eq!(strategies.len(), 2);
}

#[test]
fn all_seven_catalog_entries_compress_with_tac() {
    for e in tac_nyx::CATALOG {
        let scale = if e.paper_fine_dim >= 512 { 32 } else { 16 };
        let ds = e.generate(FieldKind::BaryonDensity, scale, 11);
        ds.validate()
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Rel(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        assert_eq!(out.num_levels(), ds.num_levels(), "{}", e.name);
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            assert_eq!(a.mask(), b.mask(), "{}", e.name);
        }
    }
}

#[test]
fn velocity_fields_with_negative_values_roundtrip() {
    let ds = entry("Run1_Z5")
        .unwrap()
        .generate(FieldKind::VelocityX, 16, 5);
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-4),
        ..Default::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    let mut lo = f64::INFINITY;
    for l in ds.levels() {
        if let Some((a, _)) = l.value_range() {
            lo = lo.min(a);
        }
    }
    assert!(lo < 0.0, "velocity field should be signed");
    assert_bounds(&ds, &out, &[1e-4 * global_range(&ds)]);
}
