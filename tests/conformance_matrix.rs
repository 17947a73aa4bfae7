//! The full error-bound conformance matrix as a test: every registered
//! scenario x {TAC, 1D, zMesh, 3D} x {sz, pco-ans} x {memory, v5} x
//! {1, 2, 4, 8} workers — plus one adaptive-selection
//! (`Method::Auto`, codec label `auto`) sweep per scenario across the
//! same formats and worker counts.
//!
//! This is the acceptance bar of the testkit: max pointwise error within
//! the resolved bound (non-finite bit-exact), serialized bytes identical
//! across worker counts, parallel decode identical to serial, and ROI
//! decode agreeing with the full decode. The same sweep backs the
//! `conformance` runner binary, which emits `CONFORMANCE.json` for CI.

use tac_bench::testkit::{run_conformance, scenarios, WORKER_COUNTS};

#[test]
fn full_matrix_passes_for_every_scenario() {
    let report = run_conformance(7);
    // scenarios x (4 fixed methods x 2 codecs + 1 Auto sweep) x 2
    // formats: 117 x 2 cells today.
    let expected = scenarios().len() * (4 * 2 + 1) * 2;
    assert_eq!(report.cells.len(), expected);
    assert_eq!(expected, 117 * 2);
    assert!(report.all_pass(), "{}", report.summary());

    // The sweep really covered the advertised axes.
    assert_eq!(WORKER_COUNTS, [1, 2, 4, 8]);
    for method in ["TAC", "1D", "zMesh", "3D", "Auto"] {
        assert!(report.cells.iter().any(|c| c.method == method), "{method}");
    }
    for codec in ["sz", "pco-ans", "auto"] {
        assert!(report.cells.iter().any(|c| c.codec == codec), "{codec}");
    }
    // Decode-only pco-lite is no encode axis.
    assert!(report.cells.iter().all(|c| c.codec != "pco-lite"));
    // Every Auto cell is an `auto`-codec cell and vice versa, 2 format
    // legs per scenario.
    let auto_cells = report.cells.iter().filter(|c| c.method == "Auto");
    assert_eq!(auto_cells.clone().count(), scenarios().len() * 2);
    assert!(auto_cells.clone().all(|c| c.codec == "auto"));
    // Every wire cell ran the ROI-agreement leg.
    for c in report.cells.iter().filter(|c| c.format == "v5") {
        assert_eq!(
            c.roi_agrees,
            Some(true),
            "{}/{}/{}",
            c.scenario,
            c.method,
            c.codec
        );
    }
    // The JSON artifact is well-formed enough for CI consumers.
    let json = report.to_json();
    assert!(json.contains("\"failed\": 0"));
    assert!(json.ends_with("}\n"));
}

#[test]
fn matrix_is_deterministic_per_seed() {
    let spec = tac_bench::testkit::scenario("degenerate-corner").unwrap();
    let a = tac_bench::testkit::run_scenarios(std::slice::from_ref(&spec), 5);
    let b = tac_bench::testkit::run_scenarios(std::slice::from_ref(&spec), 5);
    // Timing (`wall_ms`) and the captured run metadata timestamp vary
    // between runs; everything the matrix *measures* must not.
    assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.scenario, y.scenario);
        assert_eq!(x.method, y.method);
        assert_eq!(x.codec, y.codec);
        assert_eq!(x.format, y.format);
        assert_eq!(
            x.container_bytes, y.container_bytes,
            "{}/{}",
            x.scenario, x.format
        );
        assert_eq!(x.workers_identical, y.workers_identical);
        assert_eq!(x.decode_par_identical, y.decode_par_identical);
        assert_eq!(x.max_err_ratio.to_bits(), y.max_err_ratio.to_bits());
        assert_eq!(x.nonfinite_exact, y.nonfinite_exact);
        assert_eq!(x.roi_agrees, y.roi_agrees);
        assert_eq!(x.error, y.error);
    }
}
