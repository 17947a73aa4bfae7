//! Integration tests for the hybrid strategy selection and the paper's
//! Sec. 4.4 adaptive method switch, exercised on catalog-shaped data.

use tac_core::ErrorBound;
use tac_core::{
    choose_strategy, compress_dataset_t, decompress_dataset_par_t, select_method, Method,
    Parallelism, Strategy, TacConfig,
};
use tac_nyx::{entry, FieldKind};

fn cfg(unit: usize) -> TacConfig {
    TacConfig {
        unit,
        error_bound: ErrorBound::Rel(1e-4),
        ..Default::default()
    }
}

#[test]
fn z10_routes_fine_to_opst_and_coarse_to_gsp() {
    // Table 1: Run1_Z10 has 23% fine / 77% coarse.
    let ds = entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 1);
    let c = cfg(4);
    assert_eq!(choose_strategy(&ds.levels()[0], &c), Strategy::OpST);
    assert_eq!(choose_strategy(&ds.levels()[1], &c), Strategy::Gsp);
    let cd = compress_dataset_t(&ds, &c, Method::Tac).unwrap();
    assert_eq!(
        cd.strategies().unwrap(),
        vec![Strategy::OpST, Strategy::Gsp]
    );
}

#[test]
fn z5_routes_fine_to_akdtree() {
    // Run1_Z5: 58% fine density sits between T1=50% and T2=60%.
    let ds = entry("Run1_Z5")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 1);
    let c = cfg(4);
    let d = ds.densities();
    assert!(
        (d[0] - 0.58).abs() < 0.03,
        "fine density {} should be ~0.58",
        d[0]
    );
    assert_eq!(choose_strategy(&ds.levels()[0], &c), Strategy::AkdTree);
}

#[test]
fn t2_routes_sparse_fine_to_opst_and_dense_coarse_to_gsp() {
    // Run2_T2: 0.2% fine, 99.8% coarse.
    let ds = entry("Run2_T2")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 8, 1);
    let c = cfg(4);
    assert_eq!(choose_strategy(&ds.levels()[0], &c), Strategy::OpST);
    assert_eq!(choose_strategy(&ds.levels()[1], &c), Strategy::Gsp);
}

#[test]
fn adaptive_switch_picks_3d_for_z3() {
    // Run1_Z3 has a 64% finest level — above T2 — so Sec. 4.4 says use
    // the 3D baseline; Z10 (23%) stays with TAC.
    let z3 = entry("Run1_Z3")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 1);
    let z10 = entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 1);
    assert_eq!(select_method(&z3), Method::Baseline3D);
    assert_eq!(select_method(&z10), Method::Tac);
}

#[test]
fn deep_hierarchy_strategies_follow_densities() {
    // Run2_T4: [3e-5, 0.0002, 0.022, 0.977] -> OpST for the three sparse
    // levels, GSP for the dense coarsest.
    let ds = entry("Run2_T4")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 1);
    let c = cfg(2);
    let cd = compress_dataset_t(&ds, &c, Method::Tac).unwrap();
    let strategies = cd.strategies().unwrap();
    assert_eq!(strategies.len(), 4);
    for (l, s) in strategies.iter().enumerate().take(3) {
        assert!(
            matches!(s, Strategy::OpST | Strategy::Empty),
            "level {l} got {s:?}"
        );
    }
    assert_eq!(strategies[3], Strategy::Gsp);
}

#[test]
fn tac_beats_3d_baseline_on_very_sparse_finest() {
    // The paper's headline: when the finest level is sparse, the 3D
    // baseline pays for the up-sampled redundancy, TAC does not.
    let ds = entry("Run2_T2")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 8, 2); // fine 32^3, 0.2% dense
    let c = cfg(4);
    let tac = compress_dataset_t(&ds, &c, Method::Tac).unwrap();
    let b3d = compress_dataset_t(&ds, &c, Method::Baseline3D).unwrap();
    assert!(
        tac.payload_bytes() < b3d.payload_bytes(),
        "TAC {} bytes vs 3D {} bytes",
        tac.payload_bytes(),
        b3d.payload_bytes()
    );
}

#[test]
fn compressed_sizes_scale_with_error_bound() {
    let ds = entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 4);
    let mut sizes = Vec::new();
    for eb in [1e-2, 1e-3, 1e-4, 1e-5] {
        let c = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(eb),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &c, Method::Tac).unwrap();
        sizes.push(cd.payload_bytes());
    }
    for w in sizes.windows(2) {
        assert!(
            w[0] < w[1],
            "tighter bounds must cost more bytes: {sizes:?}"
        );
    }
}

#[test]
fn empty_levels_cost_nothing() {
    // A dataset where the finest level exists but holds nothing.
    use tac_amr::{AmrDataset, AmrLevel};
    let fine = AmrLevel::empty(8);
    let coarse = AmrLevel::dense(4, (0..64).map(|i| i as f64).collect());
    let ds = AmrDataset::new("hollow", vec![fine, coarse]);
    ds.validate().unwrap();
    let cd = compress_dataset_t(&ds, &cfg(4), Method::Tac).unwrap();
    assert_eq!(cd.strategies().unwrap()[0], Strategy::Empty);
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    assert_eq!(out.levels()[0].num_present(), 0);
    assert_eq!(out.levels()[1].num_present(), 64);
}

#[test]
fn forced_strategies_all_roundtrip_on_catalog_data() {
    let ds = entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 9);
    for strategy in [
        Strategy::ZeroFill,
        Strategy::NaST,
        Strategy::OpST,
        Strategy::AkdTree,
        Strategy::Gsp,
    ] {
        let c = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(1e-4),
            forced_strategy: Some(strategy),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &c, Method::Tac).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            assert_eq!(a.mask(), b.mask(), "{strategy:?}");
        }
    }
}
