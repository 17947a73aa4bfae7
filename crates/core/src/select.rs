//! Adaptive method+codec selection behind [`Method::Auto`] — the
//! TAC+-style answer to "no single compressor wins every workload".
//!
//! The selection pass scores every fixed `(method, codec)` candidate
//! and, for the TAC method, every per-level codec independently, then
//! hands the winning concrete choice back to the pipeline. Two regimes:
//!
//! * **Exhaustive** (datasets up to [`EXHAUSTIVE_LIMIT`], 65,536
//!   present values): every candidate is compressed in full and the
//!   smallest payload wins, so the choice is exact — the per-level TAC
//!   mix is by construction at least as small as every fixed TAC
//!   candidate.
//! * **Sampled** (larger datasets): each candidate trial-encodes a
//!   contiguous window of its own traversal order (present values per
//!   level for TAC/1D, the zMesh gather for zMesh, bytes-per-value
//!   scaled to the full uniform grid for the 3D baseline), bounded by
//!   [`SAMPLE_BUDGET`] (2,048) values per candidate, and payload sizes
//!   are extrapolated from the trials.
//!
//! Candidates are scored by estimated bytes and nothing else; ties go
//! to the earlier-considered candidate. The pass is serial and
//! deterministic: identical input and configuration always select the
//! same candidate, so `Method::Auto` output is byte-identical for every
//! worker count, like every fixed path.
//!
//! The winner is recorded in the per-level method/codec tags the
//! container already carries; **decode needs no new wire format** and
//! [`Method::Auto`] itself never serializes.

use crate::config::TacConfig;
use crate::container::{CompressedDataset, Method, MethodBody};
use crate::error::TacError;
use crate::pipeline::{compress_with, resolve_level_eb_for, LevelRanges, Ranges, RANGE_CHUNK};
use crate::segment::union_range;
use crate::stream::CompressedLevel;
use crate::zmesh::{gather_walk, ALL_PLANES};
use tac_amr::{AmrDataset, BitMask};
use tac_codec::{codec_for, CodecConfig, CodecElement, CodecId, Dims};

/// Datasets with at most this many present values are selected by
/// exhaustive trial compression; larger ones by sampled estimates.
const EXHAUSTIVE_LIMIT: usize = 65_536;

// Every testkit scenario (finest grids up to 32^3 over a 16^3 coarse
// level) must stay exhaustive, so the dominance sweeps run on exact
// choices.
const _: () = assert!(EXHAUSTIVE_LIMIT >= 32 * 32 * 32 + 16 * 16 * 16);

/// Per-candidate value budget of the sampled regime: each trial encode
/// sees at most this many values, which bounds selection cost
/// independently of dataset size and keeps the whole sampled pass well
/// under 15% of the winner's own compression wall.
const SAMPLE_BUDGET: usize = 2_048;

/// Smallest per-level sample window of the sampled regime: below this,
/// per-stream header overhead dominates and extrapolation is noise.
const MIN_WINDOW: usize = 64;

/// One `(method, codec)` candidate the selection pass evaluated.
#[derive(Debug, Clone)]
pub struct CandidateEstimate {
    /// The fixed method of the candidate.
    pub method: Method,
    /// The codec of the candidate.
    pub codec: CodecId,
    /// Estimated payload bytes (exact in the exhaustive regime).
    pub estimated_bytes: usize,
    /// Whether the estimate came from a full trial compression.
    pub exact: bool,
    /// The candidate's score — its estimated bytes, unrounded; smaller
    /// wins.
    pub score: f64,
}

/// The outcome of a [`Method::Auto`] selection pass.
#[derive(Debug, Clone)]
pub struct AutoSelection {
    /// The winning concrete method (never [`Method::Auto`]).
    pub method: Method,
    /// The winning codec. For a TAC winner this is the codec of the
    /// first non-empty level; [`AutoSelection::level_codecs`] carries
    /// the full per-level assignment.
    pub codec: CodecId,
    /// Per-level codec assignment, fine to coarse (TAC winner only;
    /// empty for the single-stream and 1D winners).
    pub level_codecs: Vec<CodecId>,
    /// Whether the exhaustive (exact) regime ran.
    pub exhaustive: bool,
    /// Every candidate evaluated, in method/codec sweep order.
    pub candidates: Vec<CandidateEstimate>,
}

/// A scored concrete choice under consideration.
struct Choice {
    score: f64,
    method: Method,
    codec: CodecId,
    level_codecs: Vec<CodecId>,
}

/// Keeps `candidate` when it strictly out-scores the current winner, so
/// earlier-considered candidates win ties (the consideration order is
/// fixed: per-level TAC mix first, then the fixed sweep order).
fn consider(winner: &mut Option<Choice>, candidate: Choice) {
    if winner.as_ref().map_or(true, |w| candidate.score < w.score) {
        *winner = Some(candidate);
    }
}

/// Runs the selection pass for `ds` under `cfg` and returns the winning
/// concrete choice plus every candidate's estimate.
///
/// # Errors
/// Fails only when *every* candidate fails to compress (for example a
/// relative bound that cannot resolve anywhere); the error of the
/// TAC-with-configured-codec candidate — the choice the fixed pipeline
/// would have made — is propagated so `Method::Auto` reports the same
/// failure the equivalent fixed call would.
pub fn select_auto<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
) -> Result<AutoSelection, TacError> {
    select_ranged(ds, cfg, &Ranges::Scan(RANGE_CHUNK).get(ds, cfg))
}

/// [`select_auto`] over level ranges already scanned — `Method::Auto`
/// scans them once and hands the same ranges to the selection and to
/// the winner's write.
pub(crate) fn select_ranged<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    ranges: &LevelRanges,
) -> Result<AutoSelection, TacError> {
    let _select = tac_obs::span(tac_obs::Stage::Select).arg("levels", ds.num_levels());
    if ds.total_present() <= EXHAUSTIVE_LIMIT {
        select_exhaustive(ds, cfg, ranges)
    } else {
        select_sampled(ds, cfg, ranges)
    }
}

/// Exhaustive regime: compress every `(method, codec)` candidate in
/// full and score serialized container bytes; per level, the TAC
/// candidate takes the cheapest codec.
fn select_exhaustive<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    ranges: &LevelRanges,
) -> Result<AutoSelection, TacError> {
    let mut candidates = Vec::new();
    // The full container of each successful TAC run, by codec (kept to
    // assemble the per-level mix exactly).
    let mut tac_runs: Vec<(CodecId, CompressedDataset)> = Vec::new();
    let mut winner: Option<Choice> = None;
    let mut fallback_err: Option<TacError> = None;
    for method in Method::fixed() {
        for codec in CodecId::all() {
            let trial_cfg = TacConfig {
                codec,
                ..cfg.clone()
            };
            let cd = match compress_with(ds, &trial_cfg, method, Ranges::Scanned(ranges)) {
                Ok(cd) => cd,
                Err(e) => {
                    // Remember the failure of the choice the fixed
                    // pipeline would have made, to propagate if nothing
                    // succeeds at all.
                    if method == Method::Tac && codec == cfg.codec {
                        fallback_err = Some(e);
                    }
                    continue;
                }
            };
            tac_obs::add(tac_obs::Counter::SelectCandidates, 1u64);
            tac_obs::add(tac_obs::Counter::SelectSampledValues, ds.total_present());
            // Score what the dominance contract is stated over: the
            // serialized container, headers and chunk tables included.
            let est = cd.to_bytes().len();
            candidates.push(CandidateEstimate {
                method,
                codec,
                estimated_bytes: est,
                exact: true,
                score: est as f64,
            });
            if method == Method::Tac {
                tac_runs.push((codec, cd));
            }
        }
    }

    // The per-level TAC mix: for each level, the codec whose run made
    // that level smallest (chunk structure is codec-independent, so the
    // per-level minimum also minimizes the container). The mixed
    // container is assembled from the trial runs' levels and measured
    // exactly. It is no larger than any fixed TAC candidate, and it is
    // considered first, so it wins ties.
    if let Some((_, first_cd)) = tac_runs.first() {
        let levels_total = match &first_cd.body {
            MethodBody::Tac(levels) => levels.len(),
            _ => 0,
        };
        let mut level_codecs = Vec::with_capacity(levels_total);
        let mut mixed_levels = Vec::with_capacity(levels_total);
        for l in 0..levels_total {
            let mut lvl_best: Option<(usize, CodecId, &CompressedLevel)> = None;
            for (codec, cd) in &tac_runs {
                let MethodBody::Tac(levels) = &cd.body else {
                    continue;
                };
                let Some(cl) = levels.get(l) else { continue };
                let bytes = cl.total_bytes();
                if lvl_best.map_or(true, |(best, ..)| bytes < best) {
                    lvl_best = Some((bytes, *codec, cl));
                }
            }
            let Some((_, codec, cl)) = lvl_best else {
                continue;
            };
            level_codecs.push(codec);
            mixed_levels.push(cl.clone());
        }
        let mixed = CompressedDataset {
            name: first_cd.name.clone(),
            finest_dim: first_cd.finest_dim,
            dtype: first_cd.dtype,
            masks: first_cd.masks.clone(),
            body: MethodBody::Tac(mixed_levels),
        };
        let est = mixed.to_bytes().len();
        let codec = representative_codec(ds, &level_codecs, cfg);
        consider(
            &mut winner,
            Choice {
                score: est as f64,
                method: Method::Tac,
                codec,
                level_codecs,
            },
        );
    }
    for c in &candidates {
        if c.method != Method::Tac {
            consider(
                &mut winner,
                Choice {
                    score: c.score,
                    method: c.method,
                    codec: c.codec,
                    level_codecs: Vec::new(),
                },
            );
        }
    }
    finish(winner, candidates, true, fallback_err)
}

/// The codec recorded as a TAC winner's headline choice: the assignment
/// of its first non-empty level (the wire tags every level separately,
/// so this is presentation only).
fn representative_codec<T: CodecElement>(
    ds: &AmrDataset<T>,
    level_codecs: &[CodecId],
    cfg: &TacConfig,
) -> CodecId {
    ds.levels()
        .iter()
        .zip(level_codecs)
        .find(|(lvl, _)| lvl.num_present() != 0)
        .map(|(_, &c)| c)
        .unwrap_or(cfg.codec)
}

/// One level's contiguous sample window and resolved bound.
struct LevelSample<T> {
    level: usize,
    abs_eb: f64,
    window: Vec<T>,
    present: usize,
}

/// The first `take` values of a level stack's traversal, gathered
/// straight out of the level buffers.
fn sample_window<T: CodecElement>(
    masks: &[&BitMask],
    finest_dim: usize,
    level_data: &[&[T]],
    take: usize,
) -> Vec<T> {
    let _reorder = tac_obs::span(tac_obs::Stage::Reorder);
    let window = gather_walk(masks, finest_dim, ALL_PLANES, level_data, take);
    tac_obs::add(tac_obs::Counter::ReorderValues, window.len());
    window
}

/// A trial encode of one window: the stream's size in bytes.
fn trial<T: CodecElement>(codec: CodecId, window: &[T], abs_eb: f64) -> Option<usize> {
    let cc = CodecConfig::abs(abs_eb);
    let stream = T::codec_compress(codec_for(codec), window, Dims::D1(window.len()), &cc).ok()?;
    tac_obs::add(tac_obs::Counter::SelectSampledValues, window.len());
    Some(stream.len())
}

/// Sampled regime: extrapolate every candidate's payload from bounded
/// trial encodes over contiguous windows of its own traversal order.
fn select_sampled<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    level_ranges: &LevelRanges,
) -> Result<AutoSelection, TacError> {
    let present_total = ds.total_present();
    let mut fallback_err: Option<TacError> = None;

    // Contiguous prefix windows of present values (literal prefixes of
    // the 1D streams the per-level methods would encode), budget split
    // proportionally to level populations.
    let mut samples: Vec<LevelSample<T>> = Vec::new();
    for (l, level) in ds.levels().iter().enumerate() {
        let present = level.num_present();
        if present == 0 {
            continue;
        }
        let abs_eb = match resolve_level_eb_for(
            T::DTYPE,
            cfg.error_bound,
            cfg.level_scale(l),
            level_ranges.get(l).copied().flatten(),
        ) {
            Ok(eb) => eb,
            Err(e) => {
                // The per-level methods would fail on this level; keep
                // the error for the all-failed case and let the
                // single-stream candidates still compete.
                if fallback_err.is_none() {
                    fallback_err = Some(e);
                }
                samples.clear();
                break;
            }
        };
        let share =
            ((SAMPLE_BUDGET as f64) * (present as f64) / (present_total as f64)).ceil() as usize;
        let take = share.max(MIN_WINDOW).min(present);
        // One level's flat-index order is the zMesh walk of that level
        // alone, so the same windowed gather serves both prefixes.
        let window = sample_window(&[level.mask()], level.dim(), &[level.data()], take);
        samples.push(LevelSample {
            level: l,
            abs_eb,
            window,
            present,
        });
    }

    let mut candidates = Vec::new();
    let mut winner: Option<Choice> = None;

    // TAC and the 1D baseline: per-level extrapolated 1D trials. The
    // same trials serve both (TAC's 3D regions hold the same values);
    // TAC is considered first, so it wins the resulting ties, matching
    // the paper's default preference for level-wise 3D compression.
    if !samples.is_empty() {
        // One trial per (level, codec), extrapolated to the level's
        // population; every estimate below derives from this single pass.
        let level_trials: Vec<Vec<Option<f64>>> = samples
            .iter()
            .map(|s| {
                let scale_factor = (s.present as f64) / (s.window.len() as f64);
                CodecId::all()
                    .into_iter()
                    .map(|codec| {
                        trial(codec, &s.window, s.abs_eb).map(|raw| (raw as f64) * scale_factor)
                    })
                    .collect()
            })
            .collect();
        let mut level_codecs: Vec<CodecId> = vec![CodecId::default(); ds.num_levels()];
        let mut mixed_est = 0.0;
        let mut mixed_ok = true;
        for (s, row) in samples.iter().zip(&level_trials) {
            let mut lvl_best: Option<(f64, CodecId)> = None;
            for (codec, est) in CodecId::all().into_iter().zip(row) {
                let Some(est) = *est else { continue };
                if lvl_best.map_or(true, |(best, _)| est < best) {
                    lvl_best = Some((est, codec));
                }
            }
            match lvl_best {
                Some((est, codec)) => {
                    if let Some(slot) = level_codecs.get_mut(s.level) {
                        *slot = codec;
                    }
                    mixed_est += est;
                }
                None => mixed_ok = false,
            }
        }
        if mixed_ok {
            let codec = representative_codec(ds, &level_codecs, cfg);
            candidates.push(CandidateEstimate {
                method: Method::Tac,
                codec,
                estimated_bytes: mixed_est as usize,
                exact: false,
                score: mixed_est,
            });
            consider(
                &mut winner,
                Choice {
                    score: mixed_est,
                    method: Method::Tac,
                    codec,
                    level_codecs,
                },
            );
        }
        for (ci, codec) in CodecId::all().into_iter().enumerate() {
            // A codec that failed on any level is not a 1D candidate.
            let Some(est) = level_trials
                .iter()
                .map(|row| row.get(ci).copied().flatten())
                .sum::<Option<f64>>()
            else {
                continue;
            };
            candidates.push(CandidateEstimate {
                method: Method::Baseline1D,
                codec,
                estimated_bytes: est as usize,
                exact: false,
                score: est,
            });
            consider(
                &mut winner,
                Choice {
                    score: est,
                    method: Method::Baseline1D,
                    codec,
                    level_codecs: Vec::new(),
                },
            );
        }
    }

    // Global value range for the single-stream candidates, combined
    // from the per-level scans above.
    let global_range = union_range(level_ranges.iter().copied());

    if let Some(range) = global_range {
        if let Ok(abs_eb) = resolve_level_eb_for(T::DTYPE, cfg.error_bound, 1.0, Some(range)) {
            // zMesh: a prefix window of the real geometric traversal,
            // walked lazily so selection cost stays bounded by the
            // budget, not the dataset.
            let mask_refs: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
            let data_refs: Vec<&[T]> = ds.levels().iter().map(|l| l.data()).collect();
            let take = SAMPLE_BUDGET.max(MIN_WINDOW);
            let zwindow = sample_window(&mask_refs, ds.finest_dim(), &data_refs, take);
            if !zwindow.is_empty() {
                // One trial per codec serves both single-stream
                // candidates: zMesh scales bytes to the present values,
                // the 3D baseline scales bytes-per-value to the full
                // uniform grid it would store — which is what correctly
                // penalizes it on sparse data.
                let fd = ds.finest_dim();
                let uniform_cells = (fd * fd) * fd;
                for codec in CodecId::all() {
                    let Some(raw) = trial(codec, &zwindow, abs_eb) else {
                        continue;
                    };
                    let bpv = (raw as f64) / (zwindow.len() as f64);
                    for (method, est) in [
                        (Method::ZMesh, bpv * (present_total as f64)),
                        (Method::Baseline3D, bpv * (uniform_cells as f64)),
                    ] {
                        candidates.push(CandidateEstimate {
                            method,
                            codec,
                            estimated_bytes: est as usize,
                            exact: false,
                            score: est,
                        });
                        consider(
                            &mut winner,
                            Choice {
                                score: est,
                                method,
                                codec,
                                level_codecs: Vec::new(),
                            },
                        );
                    }
                }
            }
        }
    }
    tac_obs::add(tac_obs::Counter::SelectCandidates, candidates.len());
    finish(winner, candidates, false, fallback_err)
}

/// Wraps up a pass: the winner (or the propagated fallback error when
/// nothing succeeded) plus the candidate table.
fn finish(
    winner: Option<Choice>,
    candidates: Vec<CandidateEstimate>,
    exhaustive: bool,
    fallback_err: Option<TacError>,
) -> Result<AutoSelection, TacError> {
    match winner {
        Some(w) => {
            tac_obs::add(tac_obs::Counter::SelectWinnerBytes, w.score as u64);
            Ok(AutoSelection {
                method: w.method,
                codec: w.codec,
                level_codecs: w.level_codecs,
                exhaustive,
                candidates,
            })
        }
        None => Err(fallback_err.unwrap_or_else(|| {
            TacError::InvalidDataset("auto selection found no viable candidate".into())
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compress_dataset_t, decompress_dataset_par_t};
    use tac_amr::AmrLevel;
    use tac_codec::ErrorBound;
    use tac_par::Parallelism;

    /// Two-level dataset with a blobby fine region and smooth values
    /// (the same shape the pipeline tests use).
    fn blobby(fine_dim: usize) -> AmrDataset {
        let coarse_dim = fine_dim / 2;
        let mut fine = AmrLevel::empty(fine_dim);
        let mut coarse = AmrLevel::empty(coarse_dim);
        let c = fine_dim as f64 / 2.0;
        for z in 0..coarse_dim {
            for y in 0..coarse_dim {
                for x in 0..coarse_dim {
                    let (fx, fy, fz) = (2 * x, 2 * y, 2 * z);
                    let dist = ((fx as f64 - c).powi(2)
                        + (fy as f64 - c).powi(2)
                        + (fz as f64 - c).powi(2))
                    .sqrt();
                    if dist < fine_dim as f64 * 0.33 {
                        for dz in 0..2 {
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let (px, py, pz) = (fx + dx, fy + dy, fz + dz);
                                    let v = ((px as f64) * 0.3).sin()
                                        + ((py as f64) * 0.2).cos()
                                        + pz as f64 * 0.05
                                        + 5.0;
                                    fine.set_value(px, py, pz, v);
                                }
                            }
                        }
                    } else {
                        let v = ((x as f64) * 0.3).sin() + y as f64 * 0.01 + 3.0;
                        coarse.set_value(x, y, z, v);
                    }
                }
            }
        }
        AmrDataset::new("blobby", vec![fine, coarse])
    }

    fn cfg() -> TacConfig {
        TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        }
    }

    #[test]
    fn exhaustive_winner_is_at_least_as_small_as_every_fixed_pair() {
        let ds = blobby(16);
        let sel = select_auto(&ds, &cfg()).unwrap();
        assert!(sel.exhaustive);
        assert_ne!(sel.method, Method::Auto);
        assert_eq!(sel.candidates.len(), 8, "4 methods x 2 codecs");
        assert!(sel.candidates.iter().all(|c| c.exact));
        // Bytes are the whole score.
        for c in &sel.candidates {
            assert_eq!(
                c.score, c.estimated_bytes as f64,
                "{:?}/{}",
                c.method, c.codec
            );
        }
        // The winner's score is minimal over every fixed candidate.
        let best_fixed = sel
            .candidates
            .iter()
            .map(|c| c.score)
            .fold(f64::INFINITY, f64::min);
        if sel.method == Method::Tac {
            // The per-level mix dominates every fixed TAC candidate.
            assert_eq!(sel.level_codecs.len(), ds.num_levels());
        }
        let winner_score = match sel.method {
            Method::Tac => best_fixed, // mix score <= fixed TAC scores
            m => {
                sel.candidates
                    .iter()
                    .find(|c| c.method == m && c.codec == sel.codec)
                    .unwrap()
                    .score
            }
        };
        assert!(winner_score <= best_fixed * (1.0 + 1e-12));
    }

    #[test]
    fn selection_is_deterministic() {
        let ds = blobby(16);
        let a = select_auto(&ds, &cfg()).unwrap();
        let b = select_auto(&ds, &cfg()).unwrap();
        assert_eq!(a.method, b.method);
        assert_eq!(a.codec, b.codec);
        assert_eq!(a.level_codecs, b.level_codecs);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.estimated_bytes, y.estimated_bytes);
            assert_eq!(x.score, y.score);
        }
    }

    #[test]
    fn empty_dataset_selects_a_method_that_can_store_it() {
        // zMesh rejects datasets with no present cells; the selection
        // must route around it and still pick a working candidate.
        let ds: AmrDataset = AmrDataset::new("void", vec![AmrLevel::empty(4)]);
        let sel = select_auto(&ds, &cfg()).unwrap();
        assert_ne!(sel.method, Method::Auto);
        assert_ne!(sel.method, Method::ZMesh);
        assert!(sel.candidates.iter().all(|c| c.method != Method::ZMesh));
        // The winner genuinely compresses the degenerate input.
        let trial_cfg = TacConfig {
            codec: sel.codec,
            ..cfg()
        };
        compress_dataset_t(&ds, &trial_cfg, sel.method).unwrap();
    }

    #[test]
    fn sampled_regime_engages_above_the_limit() {
        // Two levels, 64^3 over 32^3: just past the exhaustive limit, so
        // the regime switch is tested at the real constants.
        let ds = blobby(64);
        assert!(
            ds.total_present() > EXHAUSTIVE_LIMIT,
            "{} present values",
            ds.total_present()
        );
        let sel = select_auto(&ds, &cfg()).unwrap();
        assert!(!sel.exhaustive);
        assert_ne!(sel.method, Method::Auto);
        assert!(sel.candidates.iter().all(|c| !c.exact));
        // Still deterministic.
        let again = select_auto(&ds, &cfg()).unwrap();
        assert_eq!((sel.method, sel.codec), (again.method, again.codec));
        assert_eq!(sel.level_codecs, again.level_codecs);
        // The container Auto writes holds its bound.
        let cd = compress_dataset_t(&ds, &cfg(), Method::Auto).unwrap();
        assert_eq!(cd.method(), sel.method);
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            assert_eq!(a.mask(), b.mask());
            for (i, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
                if a.mask().get(i) {
                    assert!((u - v).abs() <= 1e-3, "cell {i}: {u} vs {v}");
                }
            }
        }
    }
}
