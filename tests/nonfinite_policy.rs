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

use tac_amr::{AmrDataset, AmrLevel};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, CodecId, CompressedDataset, Method, Parallelism,
    TacConfig, TacError,
};
use tac_sz::ErrorBound;

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
