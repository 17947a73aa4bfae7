//! The `Method::Auto` dominance suite.
//!
//! Pins the TAC+ selection contract: on every registered scenario, at
//! the scenario's own error bound and element type, Auto's compression
//! ratio is at least `DOMINANCE_TOLERANCE` times the best fixed
//! `(method, codec)` pair's — while never violating the bound (the
//! conformance matrix checks bound compliance for the same cells). Also
//! pins determinism under identical seeds, clean fallback on degenerate
//! inputs, and the selection-overhead budget in the sampled regime.

use tac_amr::AmrDataset;
use tac_bench::testkit::{scenarios, ScenarioSpec};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, select_auto, CodecElement, CodecId,
    CompressedDataset, Method, Parallelism, TacConfig, TacDtype,
};

/// Auto must reach at least this fraction of the best fixed pair's
/// compression ratio on every scenario.
const DOMINANCE_TOLERANCE: f64 = 0.95;

/// Selection may cost at most this fraction of the total Auto compress
/// wall in the sampled regime.
const OVERHEAD_BUDGET: f64 = 0.15;

#[test]
fn auto_dominates_every_fixed_pair_on_every_scenario() {
    for spec in scenarios() {
        let ds = spec.build(7);
        // Each scenario runs at its declared element type, as the
        // conformance matrix does: `F32` scenarios generate only
        // exactly-f32-representable values, so narrowing loses nothing.
        match spec.dtype {
            TacDtype::F64 => assert_auto_dominates(&spec, &ds),
            TacDtype::F32 => assert_auto_dominates(&spec, &ds.cast::<f32>()),
        }
    }
}

/// Auto's container against the best fixed `(method, codec)` pair's on
/// one scenario dataset, every container at the scenario's dtype.
fn assert_auto_dominates<T: CodecElement>(spec: &ScenarioSpec, ds: &AmrDataset<T>) {
    let cfg = spec.config();
    let auto_cd = compress_dataset_t(ds, &cfg, Method::Auto)
        .unwrap_or_else(|e| panic!("{}: Auto failed: {e}", spec.name));
    assert_eq!(auto_cd.dtype, spec.dtype, "{}: Auto", spec.name);
    let auto_bytes = auto_cd.to_bytes().len();

    // The best fixed pair, skipping pairs the fixed pipeline itself
    // rejects (those cannot be "best").
    let mut best_fixed: Option<(usize, Method, CodecId)> = None;
    for method in Method::fixed() {
        for codec in CodecId::all() {
            let fixed_cfg = TacConfig {
                codec,
                ..cfg.clone()
            };
            let Ok(cd) = compress_dataset_t(ds, &fixed_cfg, method) else {
                continue;
            };
            assert_eq!(cd.dtype, spec.dtype, "{}: {method:?}/{codec}", spec.name);
            let bytes = cd.to_bytes().len();
            if best_fixed.map_or(true, |(b, ..)| bytes < b) {
                best_fixed = Some((bytes, method, codec));
            }
        }
    }
    let (best_bytes, best_method, best_codec) =
        best_fixed.unwrap_or_else(|| panic!("{}: no fixed pair compresses", spec.name));

    // Equal error bound, so ratio dominance is byte dominance:
    // ratio_auto >= tol * ratio_best  <=>  auto <= best / tol.
    assert!(
        (auto_bytes as f64) <= (best_bytes as f64) / DOMINANCE_TOLERANCE,
        "{}: Auto {} bytes ({:?}) vs best fixed {} bytes ({best_method:?}/{best_codec}) \
         breaks the {DOMINANCE_TOLERANCE} dominance floor",
        spec.name,
        auto_bytes,
        auto_cd.method(),
        best_bytes,
    );

    // And the winner still round-trips through the wire it chose.
    let parsed = CompressedDataset::from_bytes(&auto_cd.to_bytes()).unwrap();
    assert_eq!(parsed, auto_cd, "{}", spec.name);
}

#[test]
fn auto_is_deterministic_under_identical_seeds() {
    for name in ["nyx-grf", "shock-front", "spike-field"] {
        let spec = tac_bench::testkit::scenario(name).unwrap();
        let cfg = spec.config();
        let reference = compress_dataset_t(&spec.build(21), &cfg, Method::Auto)
            .unwrap()
            .to_bytes();
        // Identical seed, fresh dataset build: byte-identical output.
        let again = compress_dataset_t(&spec.build(21), &cfg, Method::Auto)
            .unwrap()
            .to_bytes();
        assert_eq!(reference, again, "{name}: same-seed rerun differs");
        // And across every worker count.
        for workers in [1usize, 2, 4, 8] {
            let cfg_w = TacConfig {
                parallelism: Parallelism::Threads(workers),
                ..cfg.clone()
            };
            let bytes = compress_dataset_t(&spec.build(21), &cfg_w, Method::Auto)
                .unwrap()
                .to_bytes();
            assert_eq!(reference, bytes, "{name}: {workers} workers differ");
        }
        // A different seed is allowed to differ (and practically does),
        // but must still produce a decodable container.
        let other = compress_dataset_t(&spec.build(22), &cfg, Method::Auto).unwrap();
        decompress_dataset_par_t::<f64>(&other, Parallelism::Serial).unwrap();
    }
}

#[test]
fn degenerate_inputs_fall_back_cleanly() {
    use tac_amr::{AmrDataset, AmrLevel};

    // All levels empty: zMesh cannot compress this; Auto must route
    // around it and still store (and restore) the empty structure.
    let void: AmrDataset = AmrDataset::new("void", vec![AmrLevel::empty(8), AmrLevel::empty(4)]);
    let cfg = TacConfig::with_error_bound(tac_core::ErrorBound::Abs(1e-3));
    let cd = compress_dataset_t(&void, &cfg, Method::Auto).unwrap();
    assert_ne!(cd.method(), Method::Auto);
    let out = decompress_dataset_par_t::<f64>(
        &CompressedDataset::from_bytes(&cd.to_bytes()).unwrap(),
        Parallelism::Serial,
    )
    .unwrap();
    assert!(out.levels().iter().all(|l| l.num_present() == 0));

    // A single-chunk dataset (one tiny dense level, no ROI tiling): the
    // selection has exactly one chunk per candidate to work with.
    let tiny = AmrDataset::new(
        "tiny",
        vec![AmrLevel::dense(4, (0..64).map(|i| i as f64).collect())],
    );
    let cd = compress_dataset_t(&tiny, &cfg, Method::Auto).unwrap();
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    for (a, b) in tiny.levels()[0].data().iter().zip(out.levels()[0].data()) {
        assert!((a - b).abs() <= 1e-3 * (1.0 + 1e-9));
    }

    // A single present value.
    let mut lone = AmrLevel::empty(4);
    lone.set_value(1, 2, 3, 42.0);
    let one = AmrDataset::new("one", vec![lone]);
    let cd = compress_dataset_t(&one, &cfg, Method::Auto).unwrap();
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    assert!((out.levels()[0].value(1, 2, 3) - 42.0).abs() <= 1e-3 * (1.0 + 1e-9));
}

#[test]
fn selection_overhead_is_bounded_in_the_sampled_regime() {
    use tac_amr::{AmrDataset, AmrLevel};

    // 96^3 dense values: well above the exhaustive limit, so
    // the selection runs bounded trial encodes rather than full
    // candidate compressions. (Trial cost is constant in dataset size;
    // right at the regime boundary the compress wall is at its
    // smallest, so the fraction is measured where sampling is actually
    // meant to amortize.)
    let dim = 96usize;
    let data: Vec<f64> = (0..dim * dim * dim)
        .map(|i| ((i as f64) * 0.001).sin() + (i as f64) * 1e-6)
        .collect();
    let ds = AmrDataset::new("sampled-regime", vec![AmrLevel::dense(dim, data)]);
    let cfg = TacConfig::default();
    let sel = select_auto(&ds, &cfg).unwrap();
    assert!(!sel.exhaustive, "expected the sampled regime");

    let best_of = |reps: usize, mut f: Box<dyn FnMut()>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let ds_ref = &ds;
    let cfg_ref = &cfg;
    let t_select = best_of(
        3,
        Box::new(move || {
            select_auto(ds_ref, cfg_ref).unwrap();
        }),
    );
    let t_total = best_of(
        3,
        Box::new(move || {
            compress_dataset_t(ds_ref, cfg_ref, Method::Auto).unwrap();
        }),
    );
    println!(
        "selection {t_select:.4}s of {t_total:.4}s Auto compress \
         ({:.1}% of the {:.0}% budget)",
        100.0 * t_select / t_total,
        100.0 * OVERHEAD_BUDGET,
    );
    assert!(
        t_select <= t_total * OVERHEAD_BUDGET,
        "selection took {t_select:.4}s of a {t_total:.4}s Auto compress \
         ({:.1}% > {:.0}% budget)",
        100.0 * t_select / t_total,
        100.0 * OVERHEAD_BUDGET,
    );
}
