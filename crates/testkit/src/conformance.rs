//! The error-bound conformance matrix.
//!
//! For every scenario in the registry, this harness sweeps the full
//! combination space the stack promises to be correct on —
//!
//! * **method**: TAC, the 1D baseline, zMesh, the 3D baseline — plus
//!   one adaptive-selection sweep per scenario ([`Method::Auto`], codec
//!   label `auto`), which must honor every contract on whatever
//!   concrete method and per-level codecs it selects;
//! * **codec**: every scalar backend a writer may pick
//!   ([`CodecId::all`]: SZ and pco-ans; decode-only pco-lite is held by
//!   the frozen corpus);
//! * **container format**: the in-memory container and the v5 wire
//!   (`to_bytes`, the one serializer; the v1–v3 readers are held by the
//!   frozen corpus in `tests/golden_compat.rs`, not by this matrix);
//! * **workers**: 1, 2, 4, and 8 threads for both compression and
//!   decompression —
//!
//! and asserts, per cell, the three contracts the paper's pipeline rests
//! on: every finite reconstructed value sits within the **resolved**
//! absolute error bound recorded in the container (non-finite values
//! round-trip bit-exactly), serialized output is **byte-identical for
//! every worker count**, and a region-of-interest decode **agrees
//! bit-for-bit with the full decode** inside the region. The result is
//! a machine-readable [`ConformanceReport`] (`CONFORMANCE.json` in CI).

use crate::scenario::{scenarios, ScenarioSpec};
use tac_amr::{Aabb, AmrDataset};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CodecElement, CodecId,
    CompressedDataset, Element, Method, MethodBody, Parallelism, TacConfig, TacDtype,
};
use tac_obs::meta::RunMeta;

/// Worker counts every cell is swept over.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Tolerance factor on the bound check (`|err| <= eb * (1 + EPS)`),
/// absorbing the one-ulp slop of computing the error itself in f64.
const BOUND_SLACK: f64 = 1e-9;

/// The serialization leg a cell decodes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerFormat {
    /// No serialization: the in-memory container straight to decode.
    Memory,
    /// The v5 wire format (`to_bytes` then `from_bytes`).
    Wire,
}

impl ContainerFormat {
    /// All legs, in sweep order.
    pub fn all() -> [ContainerFormat; 2] {
        [ContainerFormat::Memory, ContainerFormat::Wire]
    }

    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ContainerFormat::Memory => "memory",
            ContainerFormat::Wire => "v5",
        }
    }
}

/// Outcome of one scenario x method x codec x format cell.
#[derive(Debug, Clone)]
pub struct ConformanceCell {
    /// Scenario registry key.
    pub scenario: String,
    /// Method label (`TAC`, `1D`, `zMesh`, `3D`).
    pub method: String,
    /// Codec label (`sz`, `pco-ans`, or `auto`).
    pub codec: String,
    /// Container format label (`memory`, `v5`).
    pub format: String,
    /// Serialized container bytes (wire leg; 0 for the memory leg).
    pub container_bytes: usize,
    /// Whether the serialization was byte-identical across all
    /// [`WORKER_COUNTS`].
    pub workers_identical: bool,
    /// Whether parallel decompression matched serial at every count.
    pub decode_par_identical: bool,
    /// Max over present finite cells of `|orig - recon| / resolved_eb`
    /// (0.0 when the scenario has no finite cells to check).
    pub max_err_ratio: f64,
    /// Whether every non-finite input reconstructed bit-exactly.
    pub nonfinite_exact: bool,
    /// Region reads keep the box contract — the full decode inside the
    /// box, `+0.0` outside (wire leg only; `None` elsewhere).
    pub roi_agrees: Option<bool>,
    /// First failure description, if any step errored outright.
    pub error: Option<String>,
    /// Wall time the cell cost (its format-specific work plus half of
    /// the compress/decode phase the two format legs share).
    pub wall_ms: f64,
}

impl ConformanceCell {
    /// Whether every contract held for this cell.
    pub fn pass(&self) -> bool {
        self.error.is_none()
            && self.workers_identical
            && self.decode_par_identical
            && self.nonfinite_exact
            && self.max_err_ratio <= 1.0 + BOUND_SLACK
            && self.roi_agrees.unwrap_or(true)
    }
}

/// The full matrix result.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Seed every scenario was generated with.
    pub seed: u64,
    /// Run metadata (commit, seed, workers, cores, timestamp) embedded
    /// as the `meta` header of `CONFORMANCE.json`.
    pub meta: RunMeta,
    /// Cells in sweep order.
    pub cells: Vec<ConformanceCell>,
}

impl ConformanceReport {
    /// Whether every cell passed.
    pub fn all_pass(&self) -> bool {
        self.cells.iter().all(|c| c.pass())
    }

    /// The failing cells.
    pub fn failures(&self) -> Vec<&ConformanceCell> {
        self.cells.iter().filter(|c| !c.pass()).collect()
    }

    /// The `n` most expensive cells by wall time, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<&ConformanceCell> {
        let mut by_time: Vec<&ConformanceCell> = self.cells.iter().collect();
        by_time.sort_by(|a, b| {
            b.wall_ms
                .partial_cmp(&a.wall_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        by_time.truncate(n);
        by_time
    }

    /// Serializes the report as JSON (hand-rolled: the workspace has no
    /// JSON dependency by design).
    pub fn to_json(&self) -> String {
        let mut rows = Vec::with_capacity(self.cells.len());
        for c in &self.cells {
            let roi = match c.roi_agrees {
                None => "null".to_string(),
                Some(v) => v.to_string(),
            };
            let error = match &c.error {
                None => "null".to_string(),
                Some(e) => format!("{:?}", e), // Debug-escape the string
            };
            // JSON has no Infinity/NaN literal: a cell that never
            // measured a ratio (it errored first) serializes as null.
            let ratio = if c.max_err_ratio.is_finite() {
                format!("{:.6}", c.max_err_ratio)
            } else {
                "null".to_string()
            };
            rows.push(format!(
                "    {{\"scenario\": \"{}\", \"method\": \"{}\", \"codec\": \"{}\", \
                 \"format\": \"{}\", \"container_bytes\": {}, \"workers_identical\": {}, \
                 \"decode_par_identical\": {}, \"max_err_ratio\": {}, \
                 \"nonfinite_exact\": {}, \"roi_agrees\": {}, \"pass\": {}, \"error\": {}, \
                 \"wall_ms\": {:.3}}}",
                c.scenario,
                c.method,
                c.codec,
                c.format,
                c.container_bytes,
                c.workers_identical,
                c.decode_par_identical,
                ratio,
                c.nonfinite_exact,
                roi,
                c.pass(),
                error,
                c.wall_ms,
            ));
        }
        let slowest: Vec<String> = self
            .slowest(10)
            .into_iter()
            .map(|c| {
                format!(
                    "    {{\"cell\": \"{}/{}/{}/{}\", \"wall_ms\": {:.3}}}",
                    c.scenario, c.method, c.codec, c.format, c.wall_ms
                )
            })
            .collect();
        format!(
            "{{\n  \"meta\": {},\n  \"seed\": {},\n  \"workers\": {:?},\n  \"total\": {},\n  \
             \"passed\": {},\n  \"failed\": {},\n  \"slowest\": [\n{}\n  ],\n  \
             \"cells\": [\n{}\n  ]\n}}\n",
            self.meta.to_json(),
            self.seed,
            WORKER_COUNTS,
            self.cells.len(),
            self.cells.iter().filter(|c| c.pass()).count(),
            self.failures().len(),
            slowest.join(",\n"),
            rows.join(",\n")
        )
    }

    /// Human-readable summary (one line per failing cell, or a pass
    /// banner).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "conformance: {}/{} cells pass (seed {}, workers {:?})\n",
            self.cells.len() - self.failures().len(),
            self.cells.len(),
            self.seed,
            WORKER_COUNTS,
        );
        for c in self.failures() {
            out.push_str(&format!(
                "  FAIL {}/{}/{}/{}: workers_identical={} decode_par={} err_ratio={:.3} \
                 nonfinite_exact={} roi={:?} error={:?}\n",
                c.scenario,
                c.method,
                c.codec,
                c.format,
                c.workers_identical,
                c.decode_par_identical,
                c.max_err_ratio,
                c.nonfinite_exact,
                c.roi_agrees,
                c.error,
            ));
        }
        out.push_str("  slowest cells:\n");
        for c in self.slowest(10) {
            out.push_str(&format!(
                "    {:>10.3} ms  {}/{}/{}/{}\n",
                c.wall_ms, c.scenario, c.method, c.codec, c.format
            ));
        }
        out
    }
}

/// Runs the full matrix over every registered scenario.
pub fn run_conformance(seed: u64) -> ConformanceReport {
    run_scenarios(&scenarios(), seed)
}

/// Runs the matrix over an explicit scenario subset. Every contract is
/// checked at the scenario's declared element type: `F32` scenarios
/// sweep the same method x codec x format x worker space through the
/// monomorphized `f32` kernel stack.
pub fn run_scenarios(specs: &[ScenarioSpec], seed: u64) -> ConformanceReport {
    let mut cells = Vec::new();
    for spec in specs {
        let ds = spec.build(seed);
        // `F32` scenarios generate only exactly-f32-representable values,
        // so narrowing loses nothing.
        let ds32 = (spec.dtype == TacDtype::F32).then(|| ds.cast::<f32>());
        for method in Method::fixed() {
            for codec in CodecId::all() {
                cells.extend(match &ds32 {
                    Some(narrow) => run_cell(spec, narrow, method, Some(codec)),
                    None => run_cell(spec, &ds, method, Some(codec)),
                });
            }
        }
        // One Auto sweep per scenario: the selection pass picks the
        // method and codecs itself, so there is no codec axis — every
        // other contract (bound, worker identity, ROI agreement) is
        // checked identically on whatever the selection produced.
        cells.extend(match &ds32 {
            Some(narrow) => run_cell(spec, narrow, Method::Auto, None),
            None => run_cell(spec, &ds, Method::Auto, None),
        });
    }
    let workers = WORKER_COUNTS.into_iter().max().unwrap_or(1);
    ConformanceReport {
        seed,
        meta: RunMeta::capture(seed, workers),
        cells,
    }
}

/// Per-level resolved absolute bounds recorded in a container
/// (monolithic methods store one bound for the whole stream).
fn resolved_level_bounds(cd: &CompressedDataset) -> Vec<f64> {
    match &cd.body {
        MethodBody::Tac(levels) => levels.iter().map(|l| l.abs_eb).collect(),
        MethodBody::Baseline1D(levels) => levels
            .iter()
            .map(|l| l.as_ref().map_or(0.0, |(eb, _, _)| *eb))
            .collect(),
        MethodBody::ZMesh { abs_eb, .. } | MethodBody::Baseline3D { abs_eb, .. } => {
            vec![*abs_eb; cd.num_levels()]
        }
    }
}

/// Checks the bound contract of one reconstruction; returns
/// `(max_err_ratio, nonfinite_exact)` or an error description.
fn check_bounds<T: Element>(
    orig: &AmrDataset<T>,
    recon: &AmrDataset<T>,
    bounds: &[f64],
) -> Result<(f64, bool), String> {
    if orig.num_levels() != recon.num_levels() {
        return Err(format!(
            "reconstruction has {} levels, expected {}",
            recon.num_levels(),
            orig.num_levels()
        ));
    }
    let mut max_ratio = 0.0f64;
    let mut nonfinite_exact = true;
    for (l, (a, b)) in orig.levels().iter().zip(recon.levels()).enumerate() {
        if a.dim() != b.dim() {
            return Err(format!("level {l}: dim {} vs {}", b.dim(), a.dim()));
        }
        let eb = bounds[l];
        for i in a.mask().iter_ones() {
            let (x, y) = (a.data()[i], b.data()[i]);
            if !x.is_finite() {
                nonfinite_exact &= x.to_bits_u64() == y.to_bits_u64();
                continue;
            }
            // A finite input reconstructed as NaN/Inf is the worst
            // possible bound violation — and `err > 0.0` below would be
            // false for NaN, silently passing it.
            if !y.is_finite() {
                return Err(format!(
                    "level {l} cell {i}: finite {x} reconstructed as {y}"
                ));
            }
            let err = (x.to_f64() - y.to_f64()).abs();
            if err > 0.0 {
                if eb <= 0.0 {
                    return Err(format!(
                        "level {l} cell {i}: error {err:e} with resolved bound {eb}"
                    ));
                }
                max_ratio = max_ratio.max(err / eb);
            }
        }
        // Absent cells must reconstruct to exactly zero.
        for i in 0..a.num_cells() {
            if !a.mask().get(i) && b.data()[i].to_f64() != 0.0 {
                return Err(format!(
                    "level {l} cell {i}: absent cell holds {}",
                    b.data()[i]
                ));
            }
        }
    }
    Ok((max_ratio, nonfinite_exact))
}

/// Bitwise dataset equality (reconstructions must be identical across
/// worker counts, and ROI cells identical to the full decode).
fn datasets_bit_equal<T: Element>(a: &AmrDataset<T>, b: &AmrDataset<T>) -> bool {
    a.num_levels() == b.num_levels()
        && a.levels().iter().zip(b.levels()).all(|(x, y)| {
            x.dim() == y.dim()
                && x.mask() == y.mask()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits_u64() == q.to_bits_u64())
        })
}

/// Runs one scenario x method x codec combination, producing one cell
/// per container format. `codec: None` is the [`Method::Auto`] sweep:
/// the configured codec stays at the scenario default (selection picks
/// the real ones) and the cell reports codec `auto`.
fn run_cell<T: CodecElement>(
    spec: &ScenarioSpec,
    ds: &AmrDataset<T>,
    method: Method,
    codec: Option<CodecId>,
) -> Vec<ConformanceCell> {
    let codec_label = codec.map_or("auto", CodecId::label);
    let cell = |format: ContainerFormat| ConformanceCell {
        scenario: spec.name.to_string(),
        method: method.label().to_string(),
        codec: codec_label.to_string(),
        format: format.label().to_string(),
        container_bytes: 0,
        workers_identical: false,
        decode_par_identical: false,
        max_err_ratio: f64::INFINITY,
        nonfinite_exact: false,
        roi_agrees: None,
        error: None,
        wall_ms: 0.0,
    };
    let fail = |format: ContainerFormat, msg: String| {
        let mut c = cell(format);
        c.error = Some(msg);
        c
    };
    // The compress/decode phase below is shared by both format legs;
    // its cost is split evenly across them so cell times still sum to
    // the matrix wall time.
    let t_shared = std::time::Instant::now();
    let fail_all = |msg: String, t0: std::time::Instant| -> Vec<ConformanceCell> {
        let per_cell = t0.elapsed().as_secs_f64() * 1e3 / 2.0;
        ContainerFormat::all()
            .into_iter()
            .map(|f| {
                let mut c = fail(f, msg.clone());
                c.wall_ms = per_cell;
                c
            })
            .collect()
    };
    let cfg_for = |workers: usize| -> TacConfig {
        let base = spec.config();
        TacConfig {
            codec: codec.unwrap_or(base.codec),
            parallelism: Parallelism::Threads(workers),
            ..base
        }
    };

    // Compress at every worker count; the serialization must be
    // byte-identical across all of them.
    let reference = match compress_dataset_t(ds, &cfg_for(WORKER_COUNTS[0]), method) {
        Ok(cd) => cd,
        Err(e) => return fail_all(format!("compress failed: {e}"), t_shared),
    };
    let ref_bytes = reference.to_bytes();
    let mut workers_identical = true;
    for &w in &WORKER_COUNTS[1..] {
        match compress_dataset_t(ds, &cfg_for(w), method) {
            Ok(cd) => workers_identical &= cd.to_bytes() == ref_bytes,
            Err(e) => return fail_all(format!("compress at {w} workers failed: {e}"), t_shared),
        }
    }

    // Serial full decode, then parallel decode identity.
    let full = match decompress_dataset_par_t::<T>(&reference, Parallelism::Serial) {
        Ok(out) => out,
        Err(e) => return fail_all(format!("decompress failed: {e}"), t_shared),
    };
    let mut decode_par_identical = true;
    let mut par_error = None;
    for &w in &WORKER_COUNTS[1..] {
        match decompress_dataset_par_t::<T>(&reference, Parallelism::Threads(w)) {
            Ok(out) => decode_par_identical &= datasets_bit_equal(&full, &out),
            Err(e) => {
                decode_par_identical = false;
                // Keep the first reason in the report — `false` alone
                // would force a local rerun to learn what broke.
                par_error.get_or_insert(format!("parallel decode at {w} workers failed: {e}"));
            }
        }
    }

    let bounds = resolved_level_bounds(&reference);
    let shared_ms = t_shared.elapsed().as_secs_f64() * 1e3 / 2.0;
    let mut cells = Vec::with_capacity(2);
    for format in ContainerFormat::all() {
        let t_format = std::time::Instant::now();
        let mut c = cell(format);
        c.workers_identical = workers_identical;
        c.decode_par_identical = decode_par_identical;
        c.error = par_error.clone();
        let decoded = match format {
            ContainerFormat::Memory => Ok(full.clone()),
            ContainerFormat::Wire => {
                c.container_bytes = ref_bytes.len();
                CompressedDataset::from_bytes(&ref_bytes)
                    .and_then(|cd| decompress_dataset_par_t::<T>(&cd, Parallelism::Serial))
                    .map_err(|e| format!("wire roundtrip failed: {e}"))
            }
        };
        match decoded {
            Err(e) => c.error = Some(e),
            Ok(recon) => match check_bounds(ds, &recon, &bounds) {
                Err(e) => c.error = Some(e),
                Ok((ratio, nonfinite_exact)) => {
                    c.max_err_ratio = ratio;
                    c.nonfinite_exact = nonfinite_exact;
                }
            },
        }
        if format == ContainerFormat::Wire && c.error.is_none() {
            c.roi_agrees = Some(roi_agrees(&ref_bytes, &full, spec.finest_dim));
        }
        c.wall_ms = shared_ms + t_format.elapsed().as_secs_f64() * 1e3;
        cells.push(c);
    }
    cells
}

/// Decodes two regions of interest (a corner octant and an interior
/// box) and checks each against the box contract: bit-for-bit equal to
/// the full decode inside the region (coarsened to each level), `+0.0`
/// bits everywhere else.
fn roi_agrees<T: CodecElement>(bytes: &[u8], full: &AmrDataset<T>, finest_dim: usize) -> bool {
    let half = (finest_dim / 2).max(1);
    let quarter = finest_dim / 4;
    let rois = [
        Aabb::new((0, 0, 0), (half, half, half)),
        Aabb::new(
            (quarter, quarter, quarter),
            (quarter + half, quarter + half, quarter + half),
        ),
    ];
    rois.into_iter().all(|roi| {
        let Ok((partial, _stats)) = decompress_region_t::<T>(bytes, roi) else {
            return false;
        };
        partial.num_levels() == full.num_levels()
            && (partial.levels().iter().zip(full.levels()).enumerate()).all(|(l, (p, f))| {
                let (inside, dim) = (roi.coarsen(1 << l), p.dim());
                (p.data().iter().zip(f.data()).enumerate()).all(|(i, (a, b))| {
                    let want = if inside.contains(i % dim, i / dim % dim, i / dim / dim) {
                        b.to_bits_u64()
                    } else {
                        0
                    };
                    a.to_bits_u64() == want
                })
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenario;
    use tac_core::{compress_dataset_t, decompress_dataset_par_t};

    #[test]
    fn single_scenario_matrix_passes_and_reports() {
        let spec = scenario("tiny-extremes").unwrap();
        let report = run_scenarios(&[spec], 3);
        // 4 fixed methods x 2 codecs x 2 formats, plus the Auto sweep's
        // 2 format legs.
        assert_eq!(report.cells.len(), 18);
        assert!(report.all_pass(), "{}", report.summary());
        let json = report.to_json();
        assert!(json.contains("\"failed\": 0"), "{json}");
        assert!(json.contains("tiny-extremes"));
        assert!(json.contains("\"codec\": \"auto\""), "{json}");
        assert!(report.summary().contains("18/18"));
    }

    #[test]
    fn adversarial_scenario_holds_bounds_under_every_codec() {
        let spec = scenario("checkerboard").unwrap();
        let report = run_scenarios(&[spec], 11);
        assert!(report.all_pass(), "{}", report.summary());
        // Every checked cell actually measured an error ratio (the
        // scenario has finite data everywhere).
        for c in &report.cells {
            assert!(c.max_err_ratio.is_finite(), "{c:?}");
        }
    }

    #[test]
    fn f32_scenario_matrix_passes_through_the_v4_wire() {
        let spec = scenario("checkerboard-f32").unwrap();
        assert_eq!(spec.dtype, TacDtype::F32);
        let report = run_scenarios(&[spec], 5);
        // Same sweep breadth as an f64 scenario: 4 fixed methods x 2
        // codecs x 2 formats plus the Auto sweep, every leg through the
        // monomorphized f32 stack.
        assert_eq!(report.cells.len(), 18);
        assert!(report.all_pass(), "{}", report.summary());
    }

    #[test]
    fn f32_precision_edges_hold_their_contracts() {
        for name in ["denormal-negzero-f32", "tiny-extremes-f32"] {
            let spec = scenario(name).unwrap();
            let report = run_scenarios(&[spec], 7);
            assert!(report.all_pass(), "{name}: {}", report.summary());
        }
    }

    #[test]
    fn a_violated_bound_is_detected() {
        // Sanity-check the checker itself: decode, then perturb one cell
        // past the recorded bound — the cell must fail.
        let spec = scenario("dense-uniform").unwrap();
        let ds = spec.build(1);
        let cfg = spec.config();
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let recon = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        let bounds = resolved_level_bounds(&cd);
        let (ratio, _) = check_bounds(&ds, &recon, &bounds).unwrap();
        assert!(ratio <= 1.0 + 1e-9);
        let mut levels = recon.levels().to_vec();
        let i = levels[0].mask().iter_ones().next().unwrap();
        levels[0].data_mut()[i] += bounds[0] * 5.0;
        let broken = tac_amr::AmrDataset::new("broken", levels);
        let (bad_ratio, _) = check_bounds(&ds, &broken, &bounds).unwrap();
        assert!(bad_ratio > 1.0, "perturbation not detected: {bad_ratio}");

        // A finite input reconstructed as NaN must be flagged too —
        // `|x - NaN| > 0.0` is false, so a ratio check alone would
        // silently pass the worst violation possible.
        let mut nan_levels = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial)
            .unwrap()
            .levels()
            .to_vec();
        let j = nan_levels[0].mask().iter_ones().next().unwrap();
        nan_levels[0].data_mut()[j] = f64::NAN;
        let poisoned = tac_amr::AmrDataset::new("poisoned", nan_levels);
        let err = check_bounds(&ds, &poisoned, &bounds).unwrap_err();
        assert!(err.contains("reconstructed as NaN"), "{err}");
    }

    #[test]
    fn json_stays_valid_when_a_cell_errors_before_measuring() {
        // An errored cell keeps its INFINITY ratio initializer; the JSON
        // must serialize it as null, never as the bare token `inf`.
        let report = ConformanceReport {
            seed: 1,
            meta: RunMeta::capture(1, 8),
            cells: vec![ConformanceCell {
                scenario: "synthetic".into(),
                method: "TAC".into(),
                codec: "sz".into(),
                format: "v5".into(),
                container_bytes: 0,
                workers_identical: false,
                decode_par_identical: false,
                max_err_ratio: f64::INFINITY,
                nonfinite_exact: false,
                roi_agrees: None,
                error: Some("compress failed: synthetic".into()),
                wall_ms: 0.0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"max_err_ratio\": null"), "{json}");
        assert!(!json.contains("inf"), "{json}");
        assert!(json.contains("\"failed\": 1"), "{json}");
    }

    #[test]
    fn report_carries_timing_and_metadata() {
        let spec = scenario("tiny-extremes").unwrap();
        let report = run_scenarios(&[spec], 3);
        // Every cell measured a positive wall time, and the slowest list
        // is sorted descending.
        assert!(report.cells.iter().all(|c| c.wall_ms > 0.0));
        let slowest = report.slowest(10);
        assert_eq!(slowest.len(), 10);
        assert!(slowest.windows(2).all(|w| w[0].wall_ms >= w[1].wall_ms));
        let json = report.to_json();
        assert!(json.contains("\"meta\": {\"git_commit\""), "{json}");
        assert!(json.contains("\"slowest\": ["), "{json}");
        assert!(json.contains("\"wall_ms\""), "{json}");
        assert!(report.summary().contains("slowest cells:"));
    }
}
