//! Halo finder — the second cosmology post-analysis metric (Sec. 4.2,
//! metric 6; Table 3).
//!
//! Following the paper's description of the Davis et al. style
//! cell-based finder: a cell is a *halo candidate* when its mass (density)
//! exceeds `threshold_factor x` the dataset mean (81.66 in the paper);
//! candidates are clustered by face connectivity (6-neighbour union),
//! and clusters with at least `min_cells` candidates form halos. Each
//! halo reports position (densest cell), cell count, and total mass.

/// Halo-finder parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaloFinderConfig {
    /// Candidate threshold as a multiple of the mean (paper: 81.66).
    pub threshold_factor: f64,
    /// Minimum candidate cells per halo (condition 2 of the paper).
    pub min_cells: usize,
}

impl Default for HaloFinderConfig {
    fn default() -> Self {
        HaloFinderConfig {
            threshold_factor: 81.66,
            min_cells: 8,
        }
    }
}

/// One identified halo.
#[derive(Debug, Clone, PartialEq)]
pub struct Halo {
    /// Grid coordinates of the densest member cell.
    pub position: (usize, usize, usize),
    /// Number of member cells.
    pub num_cells: usize,
    /// Sum of member cell values.
    pub mass: f64,
}

/// Result of a halo-finder run.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloCatalog {
    /// Halos sorted by descending mass.
    pub halos: Vec<Halo>,
    /// The absolute candidate threshold that was applied.
    pub threshold: f64,
    /// Mean of the input field.
    pub mean: f64,
}

impl HaloCatalog {
    /// The most massive halo, if any.
    pub fn biggest(&self) -> Option<&Halo> {
        self.halos.first()
    }
}

/// Runs the halo finder over a uniform `n^3` density grid.
///
/// # Panics
/// Panics if `field.len() != n^3`.
pub fn find_halos(field: &[f64], n: usize, cfg: &HaloFinderConfig) -> HaloCatalog {
    assert_eq!(field.len(), n * n * n, "field must be n^3");
    let mean = field.iter().sum::<f64>() / field.len() as f64;
    let threshold = cfg.threshold_factor * mean;

    // Union-find over candidate cells (flat indices).
    let mut parent: Vec<u32> = (0..field.len() as u32).collect();
    fn find(parent: &mut [u32], mut i: u32) -> u32 {
        while parent[i as usize] != i {
            parent[i as usize] = parent[parent[i as usize] as usize];
            i = parent[i as usize];
        }
        i
    }
    let is_candidate = |i: usize| field[i] > threshold;

    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let i = x + n * (y + n * z);
                if !is_candidate(i) {
                    continue;
                }
                // Union with the negative-direction neighbours (periodic
                // boundaries, matching the simulation box).
                let neighbours = [
                    ((x + n - 1) % n) + n * (y + n * z),
                    x + n * (((y + n - 1) % n) + n * z),
                    x + n * (y + n * ((z + n - 1) % n)),
                ];
                for &j in &neighbours {
                    if is_candidate(j) {
                        let (a, b) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                        if a != b {
                            parent[a as usize] = b;
                        }
                    }
                }
            }
        }
    }

    // Aggregate clusters.
    use std::collections::HashMap;
    struct Agg {
        count: usize,
        mass: f64,
        best: (usize, f64),
    }
    let mut clusters: HashMap<u32, Agg> = HashMap::new();
    for (i, &v) in field.iter().enumerate() {
        if !is_candidate(i) {
            continue;
        }
        let root = find(&mut parent, i as u32);
        let e = clusters.entry(root).or_insert(Agg {
            count: 0,
            mass: 0.0,
            best: (i, f64::NEG_INFINITY),
        });
        e.count += 1;
        e.mass += v;
        if v > e.best.1 {
            e.best = (i, v);
        }
    }

    let mut halos: Vec<Halo> = clusters
        .into_values()
        .filter(|a| a.count >= cfg.min_cells)
        .map(|a| {
            let i = a.best.0;
            Halo {
                position: (i % n, (i / n) % n, i / (n * n)),
                num_cells: a.count,
                mass: a.mass,
            }
        })
        .collect();
    halos.sort_by(|a, b| {
        b.mass
            .partial_cmp(&a.mass)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    HaloCatalog {
        halos,
        threshold,
        mean,
    }
}

/// Table 3's comparison quantities for the most massive halo: relative
/// mass difference and cell-count difference between the original and
/// decompressed data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaloComparison {
    /// `|m' - m| / m` of the biggest halo.
    pub rel_mass_diff: f64,
    /// `|cells' - cells|` of the biggest halo.
    pub cell_count_diff: usize,
    /// Halo-count difference across the whole catalog.
    pub halo_count_diff: usize,
}

/// Compares two halo catalogs (original first).
///
/// # Panics
/// Panics if the original catalog has no halos.
pub fn compare_catalogs(original: &HaloCatalog, decompressed: &HaloCatalog) -> HaloComparison {
    let big_o = original.biggest().expect("original catalog has no halos");
    // Match the decompressed halo nearest to the original's biggest
    // (positions can shift by a cell or two under compression).
    let big_d = decompressed
        .halos
        .iter()
        .min_by_key(|h| {
            let dx = h.position.0.abs_diff(big_o.position.0);
            let dy = h.position.1.abs_diff(big_o.position.1);
            let dz = h.position.2.abs_diff(big_o.position.2);
            dx * dx + dy * dy + dz * dz
        })
        .unwrap_or(big_o);
    HaloComparison {
        rel_mass_diff: (big_d.mass - big_o.mass).abs() / big_o.mass,
        cell_count_diff: big_d.num_cells.abs_diff(big_o.num_cells),
        halo_count_diff: original.halos.len().abs_diff(decompressed.halos.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Background 1.0 with a dense cube of the given side at `origin`.
    fn field_with_blob(
        n: usize,
        origin: (usize, usize, usize),
        side: usize,
        value: f64,
    ) -> Vec<f64> {
        let mut f = vec![1.0; n * n * n];
        for dz in 0..side {
            for dy in 0..side {
                for dx in 0..side {
                    f[(origin.0 + dx) + n * ((origin.1 + dy) + n * (origin.2 + dz))] = value;
                }
            }
        }
        f
    }

    fn cfg(min_cells: usize) -> HaloFinderConfig {
        HaloFinderConfig {
            threshold_factor: 10.0,
            min_cells,
        }
    }

    #[test]
    fn finds_a_single_blob() {
        let n = 16;
        let f = field_with_blob(n, (4, 4, 4), 3, 1000.0);
        let cat = find_halos(&f, n, &cfg(8));
        assert_eq!(cat.halos.len(), 1);
        let h = &cat.halos[0];
        assert_eq!(h.num_cells, 27);
        assert!((h.mass - 27.0 * 1000.0).abs() < 1e-6);
        // Peak position inside the blob.
        assert!(h.position.0 >= 4 && h.position.0 < 7);
    }

    #[test]
    fn min_cells_filters_small_clusters() {
        let n = 16;
        let mut f = field_with_blob(n, (2, 2, 2), 3, 1000.0);
        // A second, tiny 2-cell cluster.
        f[10 + n * (10 + n * 10)] = 1000.0;
        f[11 + n * (10 + n * 10)] = 1000.0;
        let cat = find_halos(&f, n, &cfg(8));
        assert_eq!(cat.halos.len(), 1);
        let cat2 = find_halos(&f, n, &cfg(2));
        assert_eq!(cat2.halos.len(), 2);
    }

    #[test]
    fn two_blobs_sorted_by_mass() {
        let n = 24;
        let mut f = field_with_blob(n, (2, 2, 2), 2, 500.0);
        let g = field_with_blob(n, (12, 12, 12), 3, 800.0);
        for (a, b) in f.iter_mut().zip(&g) {
            if *b > *a {
                *a = *b;
            }
        }
        let cat = find_halos(&f, n, &cfg(4));
        assert_eq!(cat.halos.len(), 2);
        assert!(cat.halos[0].mass > cat.halos[1].mass);
        assert_eq!(cat.halos[0].num_cells, 27);
    }

    #[test]
    fn periodic_wraparound_merges_clusters() {
        let n = 8;
        let mut f = vec![1.0; n * n * n];
        // Candidates straddling the x boundary: x = 7 and x = 0, at z = 0.
        for y in 0..2 {
            f[7 + n * y] = 1000.0;
            f[n * y] = 1000.0;
        }
        let cat = find_halos(&f, n, &cfg(4));
        assert_eq!(cat.halos.len(), 1);
        assert_eq!(cat.halos[0].num_cells, 4);
    }

    #[test]
    fn comparison_measures_biggest_halo_drift() {
        let n = 16;
        let f = field_with_blob(n, (4, 4, 4), 3, 1000.0);
        // Decompressed: one blob cell dropped below threshold.
        let mut g = f.clone();
        g[4 + n * (4 + n * 4)] = 1.0;
        let c_orig = find_halos(&f, n, &cfg(8));
        let c_dec = find_halos(&g, n, &cfg(8));
        let cmp = compare_catalogs(&c_orig, &c_dec);
        assert_eq!(cmp.cell_count_diff, 1);
        // The dropped cell removes its full 1000 from the cluster mass.
        assert!((cmp.rel_mass_diff - 1000.0 / 27000.0).abs() < 1e-6);
    }

    #[test]
    fn no_halos_in_flat_field() {
        let n = 8;
        let cat = find_halos(&vec![1.0; n * n * n], n, &cfg(1));
        assert!(cat.halos.is_empty());
    }
}
