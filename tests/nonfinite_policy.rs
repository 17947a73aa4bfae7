//! Regression tests for the non-finite input policy.
//!
//! The defined policy (documented on `resolve_level_eb_for` and the codec
//! trait):
//!
//! * **Absolute bounds accept non-finite data.** Every codec backend
//!   stores NaN and ±Inf verbatim, so they reconstruct **bit-exactly**
//!   through every method, codec, and container format.
//! * **`-0.0` is an ordinary finite value**: it reconstructs within the
//!   bound (typically as `+0.0` — the sign is not guaranteed).
//! * **Relative bounds need a finite range.** When a level's value
//!   range is NaN or infinite, compression fails with the typed
//!   `TacError::NonFinite` instead of resolving a meaningless bound —
//!   the historical failure mode was a silently degenerate epsilon.
//! * **A zero range resolves at the element type.** A level with one
//!   present cell, or a constant one, resolves a relative bound to the
//!   smallest normal of its element type, which stays positive in `f32`.

use tac_amr::{AmrDataset, AmrLevel};
use tac_core::ErrorBound;
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, CodecId, CompressedDataset, Element, Method,
    Parallelism, TacConfig, TacError,
};

/// An 8^3 single-level dataset with NaN, +/-Inf, and -0.0 planted in an
/// otherwise smooth field.
fn spiked_dataset() -> AmrDataset {
    let n = 8;
    let mut data: Vec<f64> = (0..n * n * n).map(|i| (i as f64 * 0.01).sin()).collect();
    data[3] = f64::NAN;
    data[100] = f64::INFINITY;
    data[200] = f64::NEG_INFINITY;
    data[300] = -0.0;
    AmrDataset::new("nonfinite", vec![AmrLevel::dense(n, data)])
}

const EB: f64 = 1e-3;

fn abs_cfg(codec: CodecId) -> TacConfig {
    TacConfig {
        unit: 4,
        error_bound: ErrorBound::Abs(EB),
        codec,
        ..Default::default()
    }
}

#[test]
fn nonfinite_values_roundtrip_bit_exactly_under_abs_bounds() {
    let ds = spiked_dataset();
    for codec in CodecId::all() {
        for method in [
            Method::Tac,
            Method::Baseline1D,
            Method::ZMesh,
            Method::Baseline3D,
        ] {
            let cd = compress_dataset_t(&ds, &abs_cfg(codec), method).unwrap();
            let bytes = cd.to_bytes();
            let out = decompress_dataset_par_t::<f64>(
                &CompressedDataset::from_bytes(&bytes).unwrap(),
                Parallelism::Serial,
            )
            .unwrap();
            let (a, b) = (ds.finest().data(), out.finest().data());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if x.is_finite() {
                    assert!(
                        (x - y).abs() <= EB * (1.0 + 1e-9),
                        "{method:?}/{codec} cell {i}: {x} vs {y}"
                    );
                } else {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{method:?}/{codec} cell {i}: non-finite must be bit-exact"
                    );
                }
            }
            assert!(b[3].is_nan(), "{method:?}/{codec}");
            assert_eq!(b[100], f64::INFINITY, "{method:?}/{codec}");
            assert_eq!(b[200], f64::NEG_INFINITY, "{method:?}/{codec}");
        }
    }
}

#[test]
fn negative_zero_reconstructs_within_bound() {
    let ds = spiked_dataset();
    for codec in CodecId::all() {
        let cd = compress_dataset_t(&ds, &abs_cfg(codec), Method::Tac).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        let v = out.finest().data()[300];
        // -0.0 is finite: the bound applies, the sign bit may not
        // survive quantization (0.0 == -0.0 numerically).
        assert!(v.abs() <= EB * (1.0 + 1e-9), "-0.0 reconstructed as {v}");
    }
}

#[test]
fn rel_bound_over_an_infinite_range_is_a_typed_nonfinite_error() {
    let ds = spiked_dataset(); // contains +/-Inf: the range is infinite
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
        let err = compress_dataset_t(&ds, &cfg, method).unwrap_err();
        assert!(
            matches!(err, TacError::NonFinite(_)),
            "{method:?}: expected NonFinite, got {err}"
        );
    }
}

#[test]
fn rel_bound_over_an_all_nan_level_is_a_typed_nonfinite_error() {
    let n = 4;
    let ds = AmrDataset::new(
        "all-nan",
        vec![AmrLevel::dense(n, vec![f64::NAN; n * n * n])],
    );
    let cfg = TacConfig {
        unit: 2,
        error_bound: ErrorBound::Rel(1e-3),
        ..Default::default()
    };
    let err = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap_err();
    assert!(matches!(err, TacError::NonFinite(_)), "{err}");
}

#[test]
fn rel_bound_with_finite_extremes_but_overflowing_span_still_compresses() {
    // -1e308..1e308 is an all-finite level whose span overflows f64.
    // The NonFinite guard must not fire (no value is non-finite); the
    // resolver falls back to its conservative MIN_POSITIVE bound, which
    // stores values effectively verbatim — still bound-respecting.
    let n = 4;
    let mut data = vec![0.0f64; n * n * n];
    data[0] = -1e308;
    data[1] = 1e308;
    let ds = AmrDataset::new("span-overflow", vec![AmrLevel::dense(n, data)]);
    let cfg = TacConfig {
        unit: 2,
        error_bound: ErrorBound::Rel(1e-3),
        ..Default::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac)
        .expect("finite data must compress under a Rel bound");
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    for (i, (a, b)) in ds
        .finest()
        .data()
        .iter()
        .zip(out.finest().data())
        .enumerate()
    {
        assert_eq!(a, b, "cell {i}: MIN_POSITIVE bound must be near-verbatim");
    }
}

#[test]
fn rel_bound_with_finite_range_tolerates_sprinkled_nan() {
    // NaN values do not poison the min/max fold, so a level whose
    // extremes are finite still resolves its relative bound; the NaNs
    // ride through verbatim.
    let n = 8;
    let mut data: Vec<f64> = (0..n * n * n).map(|i| i as f64 * 0.1).collect();
    data[7] = f64::NAN;
    let ds = AmrDataset::new("speckled", vec![AmrLevel::dense(n, data)]);
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-3),
        ..Default::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    assert!(out.finest().data()[7].is_nan());
    let range = (n * n * n - 1) as f64 * 0.1;
    for (i, (a, b)) in ds
        .finest()
        .data()
        .iter()
        .zip(out.finest().data())
        .enumerate()
    {
        if a.is_finite() {
            assert!((a - b).abs() <= 1e-3 * range * (1.0 + 1e-9), "cell {i}");
        }
    }
}

/// Compresses `ds` under `Rel(1e-3)` with every method and codec and
/// checks each decode against the bound the dataset's overall range
/// allows (exact, up to `f32`'s smallest normal, on a constant dataset).
fn assert_rel_roundtrips_everywhere(ds: &AmrDataset<f32>) {
    let present = || {
        ds.levels()
            .iter()
            .flat_map(|l| l.mask().iter_ones().map(move |i| l.data()[i].to_f64()))
    };
    let min = present().fold(f64::INFINITY, f64::min);
    let max = present().fold(f64::NEG_INFINITY, f64::max);
    let eb = (1e-3 * (max - min)).max(f64::from(f32::MIN_POSITIVE));
    for codec in CodecId::all() {
        let cfg = TacConfig {
            unit: 4,
            codec,
            error_bound: ErrorBound::Rel(1e-3),
            ..Default::default()
        };
        for method in Method::fixed().into_iter().chain([Method::Auto]) {
            let what = format!("{} {method:?}/{codec}", ds.name());
            let cd = compress_dataset_t(ds, &cfg, method).unwrap_or_else(|e| panic!("{what}: {e}"));
            let cd = CompressedDataset::from_bytes(&cd.to_bytes()).unwrap();
            let out = decompress_dataset_par_t::<f32>(&cd, Parallelism::Serial).unwrap();
            for (a, b) in ds.levels().iter().zip(out.levels()) {
                for i in a.mask().iter_ones() {
                    let (x, y) = (a.data()[i].to_f64(), b.data()[i].to_f64());
                    assert!((x - y).abs() <= eb, "{what} cell {i}: {x} vs {y}");
                }
            }
        }
    }
}

#[test]
fn f32_levels_with_a_zero_range_compress_under_a_rel_bound() {
    // Two levels: the coarse one holds a single present cell (range
    // zero), the fine one covers everything else.
    let n = 16;
    let mut fine = AmrLevel::dense(
        n,
        (0..n * n * n)
            .map(|i| (i as f32 * 0.01).sin() * 3.0)
            .collect(),
    );
    let mut coarse = AmrLevel::<f32>::empty(n / 2);
    coarse.set_value(1, 2, 3, 2.5);
    for z in 6..8 {
        for y in 4..6 {
            for x in 2..4 {
                fine.clear_cell(x, y, z);
            }
        }
    }
    let one_cell = AmrDataset::new("one-cell-coarse", vec![fine, coarse]);
    assert!(one_cell.validate().is_ok());
    assert_rel_roundtrips_everywhere(&one_cell);

    // One constant level: every method resolves against a zero range.
    let constant = AmrDataset::new(
        "constant",
        vec![AmrLevel::dense(n, vec![7.25f32; n * n * n])],
    );
    assert_rel_roundtrips_everywhere(&constant);
}
