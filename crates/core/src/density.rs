//! The density filter (paper Sec. 3.4): picks a pre-process strategy per
//! level from its cell density.

use crate::config::{Strategy, TacConfig, T1, T2};
use tac_amr::AmrLevel;
use tac_dtype::Element;

/// Selects the strategy for `level` by the paper's thresholds
/// [`T1`] and [`T2`]:
///
/// * empty level → [`Strategy::Empty`];
/// * fully dense level → [`Strategy::ZeroFill`] (nothing to remove or pad
///   — the grid goes straight to the 3D compressor);
/// * `d < T1` → [`Strategy::OpST`];
/// * `T1 <= d < T2` → [`Strategy::AkdTree`];
/// * `d >= T2` → [`Strategy::Gsp`].
///
/// A forced strategy in the config overrides density selection (except for
/// empty levels, which have nothing to compress).
pub fn choose_strategy<T: Element>(level: &AmrLevel<T>, cfg: &TacConfig) -> Strategy {
    let d = level.density();
    if d == 0.0 {
        return Strategy::Empty;
    }
    if let Some(forced) = cfg.forced_strategy {
        return forced;
    }
    if d >= 1.0 {
        return Strategy::ZeroFill;
    }
    if d < T1 {
        Strategy::OpST
    } else if d < T2 {
        Strategy::AkdTree
    } else {
        Strategy::Gsp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac_amr::AmrLevel;

    fn level_with_density(dim: usize, d: f64) -> AmrLevel {
        let mut lvl = AmrLevel::empty(dim);
        let total = dim * dim * dim;
        let k = (d * total as f64).round() as usize;
        for i in 0..k {
            let x = i % dim;
            let y = (i / dim) % dim;
            let z = i / (dim * dim);
            lvl.set_value(x, y, z, 1.0);
        }
        lvl
    }

    #[test]
    fn thresholds_partition_density_axis() {
        let cfg = TacConfig::default();
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.0), &cfg),
            Strategy::Empty
        );
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.23), &cfg),
            Strategy::OpST
        );
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.49), &cfg),
            Strategy::OpST
        );
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.55), &cfg),
            Strategy::AkdTree
        );
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.63), &cfg),
            Strategy::Gsp
        );
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.998), &cfg),
            Strategy::Gsp
        );
        assert_eq!(
            choose_strategy(&level_with_density(8, 1.0), &cfg),
            Strategy::ZeroFill
        );
    }

    #[test]
    fn forced_strategy_wins_except_for_empty() {
        let cfg = TacConfig::default().with_strategy(Strategy::Gsp);
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.1), &cfg),
            Strategy::Gsp
        );
        assert_eq!(
            choose_strategy(&level_with_density(8, 0.0), &cfg),
            Strategy::Empty
        );
    }

    #[test]
    fn boundary_values_route_like_the_paper() {
        // Exactly 50% -> AKDTree (T1 inclusive upper), exactly 60% -> GSP.
        // dim 10 makes both fractions exact (1000 cells).
        let cfg = TacConfig::default();
        assert_eq!(
            choose_strategy(&level_with_density(10, 0.50), &cfg),
            Strategy::AkdTree
        );
        assert_eq!(
            choose_strategy(&level_with_density(10, 0.60), &cfg),
            Strategy::Gsp
        );
    }
}
