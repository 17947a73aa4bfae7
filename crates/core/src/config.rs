//! TAC configuration: unit-block size, density thresholds, error bounds
//! (including per-level adaptive bounds), and method selection.

use crate::error::TacError;
use serde::{Deserialize, Serialize};
use tac_codec::CodecId;
use tac_par::Parallelism;
use tac_sz::ErrorBound;

/// The pre-process strategy applied to one AMR level before 3D
/// compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Level has no present cells; nothing is stored.
    Empty,
    /// Zero filling: compress the full grid, absent cells as 0 (baseline
    /// for GSP, paper Fig. 12a).
    ZeroFill,
    /// Naive sparse tensor: remove empty unit blocks, batch the survivors
    /// (Sec. 3.1, Fig. 5).
    NaST,
    /// Optimized sparse tensor: dynamic-programming max-cube extraction
    /// (Sec. 3.1, Alg. 1).
    OpST,
    /// Adaptive k-d tree extraction (Sec. 3.2, Alg. 2).
    AkdTree,
    /// Ghost-shell padding (Sec. 3.3, Alg. 3).
    Gsp,
}

impl Strategy {
    /// Wire tag for container serialization.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Strategy::Empty => 0,
            Strategy::ZeroFill => 1,
            Strategy::NaST => 2,
            Strategy::OpST => 3,
            Strategy::AkdTree => 4,
            Strategy::Gsp => 5,
        }
    }

    /// Inverse of [`Strategy::tag`].
    pub(crate) fn from_tag(tag: u8) -> Result<Self, TacError> {
        Ok(match tag {
            0 => Strategy::Empty,
            1 => Strategy::ZeroFill,
            2 => Strategy::NaST,
            3 => Strategy::OpST,
            4 => Strategy::AkdTree,
            5 => Strategy::Gsp,
            _ => return Err(TacError::Corrupt(format!("unknown strategy tag {tag}"))),
        })
    }
}

/// Tuning knobs of the adaptive `Method::Auto` selection pass (the
/// TAC+-style per-level method+codec chooser behind
/// [`select_auto`](crate::select_auto)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoParams {
    /// Datasets with at most this many present values are selected by
    /// **exhaustive trial compression**: every `(method, codec)`
    /// candidate runs in full and the smallest payload wins, so the
    /// choice is exact. Larger datasets fall back to subsampled
    /// trial-encode estimates.
    pub exhaustive_limit: usize,
    /// Per-candidate value budget of the subsampled estimate regime:
    /// each trial encode sees at most this many values (contiguous
    /// windows of the candidate's own traversal order), which bounds
    /// selection cost independently of dataset size.
    pub sample_budget: usize,
}

impl Default for AutoParams {
    fn default() -> Self {
        AutoParams {
            // Covers every testkit scenario (finest grids up to 32^3),
            // so the dominance sweeps run on exact choices.
            exhaustive_limit: 65_536,
            // Small enough that the whole sampled selection pass stays
            // well under 15% of the winner's own compression wall.
            sample_budget: 2_048,
        }
    }
}

/// Density threshold T1 between OpST and AKDTree (Sec. 3.4; paper: 0.50).
pub const T1: f64 = 0.50;
/// Density threshold T2 between AKDTree and GSP (Sec. 3.4), and the
/// finest-level density at which [`crate::select_method`] picks the 3D
/// baseline over TAC (Sec. 4.4; paper: 0.60).
pub const T2: f64 = 0.60;

/// Full TAC configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TacConfig {
    /// Unit block side length (the paper uses 16 for 512^3 levels; scaled
    /// runs use 8). Must divide every level dimension.
    pub unit: usize,
    /// Base error bound applied to every level (before per-level scaling).
    pub error_bound: ErrorBound,
    /// Per-level error-bound multipliers, fine to coarse (Sec. 4.5's
    /// adaptive error bound; e.g. `[3.0, 1.0]` is the paper's 3:1 power-
    /// spectrum tuning). Empty means uniform bounds. Missing trailing
    /// levels default to 1.0.
    pub level_eb_scale: Vec<f64>,
    /// Force one strategy for every level (used by the per-figure
    /// benchmarks); `None` selects by density (the hybrid of Sec. 3.4).
    /// Empty levels stay [`Strategy::Empty`], and `Empty` itself cannot
    /// be forced.
    pub forced_strategy: Option<Strategy>,
    /// Scalar-codec backend every payload stream compresses through
    /// (see [`tac_codec::ScalarCodec`]): one of [`CodecId::all`]. The
    /// default, [`CodecId::Sz`], reproduces the paper's SZ substrate;
    /// [`CodecId::PcoAns`] swaps in the pcodec-style front end with a
    /// tabled-ANS entropy stage (the codec four of the five benchmark
    /// workloads run). [`CodecId::PcoLite`] is decode-only, so
    /// [`TacConfig::validate`] refuses it.
    pub codec: CodecId,
    /// Worker budget for the block-sharded compression engine. The
    /// engine shards the dataset into per-level, per-region tasks and
    /// runs them on this many work-stealing threads; output bytes are
    /// identical for every setting.
    pub parallelism: Parallelism,
    /// Spatial tile side (in cells, per level) bounding how far apart
    /// regions may sit and still share one SZ batch. `None` merges by
    /// shape alone (maximum batching); `Some(t)` keeps chunks local so
    /// the container's region-of-interest decode can skip more of
    /// the payload. Dense levels (ZeroFill / GSP) are cut at the tile
    /// too: a level larger than `t` is stored as z-slabs of `t` whole
    /// planes (the last one shorter), one chunk each, in the value order
    /// of the one whole-grid stream a level of side `<= t` keeps.
    pub roi_tile: Option<usize>,
    /// Tuning of the `Method::Auto` adaptive selection pass (ignored by
    /// the fixed methods).
    pub auto: AutoParams,
}

impl Default for TacConfig {
    fn default() -> Self {
        TacConfig {
            unit: 8,
            error_bound: ErrorBound::Rel(1e-4),
            level_eb_scale: Vec::new(),
            forced_strategy: None,
            codec: CodecId::Sz,
            parallelism: Parallelism::Auto,
            roi_tile: None,
            auto: AutoParams::default(),
        }
    }
}

impl TacConfig {
    /// Default configuration with the given base error bound.
    pub fn with_error_bound(eb: ErrorBound) -> Self {
        TacConfig {
            error_bound: eb,
            ..Default::default()
        }
    }

    /// Sets per-level error-bound multipliers (fine to coarse).
    pub fn with_level_scales(mut self, scales: Vec<f64>) -> Self {
        self.level_eb_scale = scales;
        self
    }

    /// Forces a single strategy for all levels.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.forced_strategy = Some(strategy);
        self
    }

    /// Sets the unit block size.
    pub fn with_unit(mut self, unit: usize) -> Self {
        self.unit = unit;
        self
    }

    /// Sets the engine's worker budget.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Selects the scalar-codec backend for every payload stream.
    pub fn with_codec(mut self, codec: CodecId) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the ROI chunk tile (spatially-local grouping for the
    /// container's region-of-interest decode).
    pub fn with_roi_tile(mut self, tile: usize) -> Self {
        self.roi_tile = Some(tile);
        self
    }

    /// Sets the `Method::Auto` selection-pass tuning (exhaustive-trial
    /// threshold and per-candidate sampling budget).
    pub fn with_auto(mut self, auto: AutoParams) -> Self {
        self.auto = auto;
        self
    }

    /// Error-bound multiplier for level `l` (1.0 when unspecified).
    pub fn level_scale(&self, level: usize) -> f64 {
        self.level_eb_scale.get(level).copied().unwrap_or(1.0)
    }

    /// Validates the unit size, the bounds and the engine settings.
    pub fn validate(&self) -> Result<(), TacError> {
        if self.unit == 0 || !self.unit.is_power_of_two() {
            return Err(TacError::InvalidConfig(format!(
                "unit block size {} must be a positive power of two",
                self.unit
            )));
        }
        if self
            .level_eb_scale
            .iter()
            .any(|&s| s <= 0.0 || !s.is_finite())
        {
            return Err(TacError::InvalidConfig(
                "level eb scales must be positive and finite".into(),
            ));
        }
        if self.forced_strategy == Some(Strategy::Empty) {
            // Empty stores nothing: forced onto a level with present
            // cells it would drop them.
            return Err(TacError::InvalidConfig(
                "Empty cannot be forced: it stores no present cell".into(),
            ));
        }
        if self.parallelism == Parallelism::Threads(0) {
            return Err(TacError::InvalidConfig(
                "parallelism thread count must be >= 1".into(),
            ));
        }
        if self.roi_tile == Some(0) {
            return Err(TacError::InvalidConfig(
                "roi tile must be positive when set".into(),
            ));
        }
        if self.auto.sample_budget == 0 {
            return Err(TacError::InvalidConfig(
                "auto sample budget must be positive".into(),
            ));
        }
        if self.codec == CodecId::PcoLite {
            return Err(TacError::InvalidConfig(
                "pco-lite is decode-only: configure pco-ans instead".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_thresholds() {
        assert_eq!(T1, 0.50);
        assert_eq!(T2, 0.60);
        assert!(TacConfig::default().validate().is_ok());
    }

    #[test]
    fn strategy_tags_roundtrip() {
        for s in [
            Strategy::Empty,
            Strategy::ZeroFill,
            Strategy::NaST,
            Strategy::OpST,
            Strategy::AkdTree,
            Strategy::Gsp,
        ] {
            assert_eq!(Strategy::from_tag(s.tag()).unwrap(), s);
        }
        assert!(Strategy::from_tag(99).is_err());
    }

    #[test]
    fn level_scale_defaults_to_one() {
        let c = TacConfig::default().with_level_scales(vec![3.0]);
        assert_eq!(c.level_scale(0), 3.0);
        assert_eq!(c.level_scale(1), 1.0);
    }

    #[test]
    fn validation_rejects_bad_config() {
        let c = TacConfig {
            unit: 3,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = TacConfig {
            level_eb_scale: vec![0.0],
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = TacConfig {
            parallelism: Parallelism::Threads(0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = TacConfig {
            roi_tile: Some(0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = TacConfig {
            auto: AutoParams {
                sample_budget: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn parallelism_and_tile_builders() {
        let c = TacConfig::default()
            .with_parallelism(Parallelism::Threads(3))
            .with_roi_tile(8);
        assert_eq!(c.parallelism, Parallelism::Threads(3));
        assert_eq!(c.roi_tile, Some(8));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn auto_params_default_and_build() {
        let d = AutoParams::default();
        assert!(d.exhaustive_limit >= 32 * 32 * 32 + 16 * 16 * 16);
        assert!(d.sample_budget > 0);
        let c = TacConfig::default().with_auto(AutoParams {
            exhaustive_limit: 0,
            sample_budget: 128,
        });
        assert_eq!(c.auto.sample_budget, 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn codec_defaults_to_sz_and_builds() {
        assert_eq!(TacConfig::default().codec, CodecId::Sz);
        let c = TacConfig::default().with_codec(CodecId::PcoAns);
        assert_eq!(c.codec, CodecId::PcoAns);
        assert!(c.validate().is_ok());
        let c = TacConfig::default().with_codec(CodecId::PcoLite);
        assert!(matches!(
            c.validate(),
            Err(TacError::InvalidConfig(why)) if why.contains("pco-ans")
        ));
    }
}
