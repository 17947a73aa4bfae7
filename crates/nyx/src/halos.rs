//! Halo injection: adds compact over-densities to a base field.
//!
//! Nyx baryon-density snapshots are dominated by a population of halos —
//! localized peaks reaching 3-4 orders of magnitude above the mean. The
//! halo finder (Table 3) and the refinement geometry both key off these
//! peaks, so the synthetic fields must contain them. Profiles follow a
//! truncated NFW-like shape `A / ((r/rs)(1 + r/rs)^2)`.

use crate::rng::Xoshiro256pp;

/// Parameters for a synthetic halo population.
#[derive(Debug, Clone, Copy)]
pub struct HaloPopulation {
    /// Number of halos to inject.
    pub count: usize,
    /// Scale radius in grid cells.
    pub scale_radius: f64,
    /// Peak amplitude as a multiple of the field's standard deviation.
    pub peak_amplitude: f64,
    /// Truncation radius in units of `scale_radius`.
    pub truncate: f64,
}

impl Default for HaloPopulation {
    fn default() -> Self {
        HaloPopulation {
            count: 16,
            scale_radius: 2.5,
            peak_amplitude: 5.0,
            truncate: 4.0,
        }
    }
}

/// One injected halo (centre and profile), returned for ground truth in
/// tests and for seeding the halo-finder experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedHalo {
    /// Centre in grid coordinates.
    pub center: (usize, usize, usize),
    /// Peak amplitude actually added at the centre.
    pub amplitude: f64,
}

/// Adds `pop.count` halos at density-weighted random positions: candidate
/// centres are sampled uniformly, then accepted with probability
/// proportional to their rank of the underlying field value — halos form
/// where matter already clusters.
pub fn inject_halos(
    field: &mut [f64],
    n: usize,
    pop: &HaloPopulation,
    seed: u64,
) -> Vec<InjectedHalo> {
    assert_eq!(field.len(), n * n * n);
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x48_41_4c_4f);
    let sd = {
        let mean = field.iter().sum::<f64>() / field.len() as f64;
        (field.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / field.len() as f64).sqrt()
    };
    // Constant fields have no scale of their own; fall back to unit bumps.
    let amp = pop.peak_amplitude * if sd > 1e-12 { sd } else { 1.0 };
    let r_trunc = pop.truncate * pop.scale_radius;
    let reach = r_trunc.ceil() as isize;

    let mut halos = Vec::with_capacity(pop.count);
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < pop.count && attempts < pop.count * 64 {
        attempts += 1;
        let cx = rng.below(n);
        let cy = rng.below(n);
        let cz = rng.below(n);
        // Rejection sample toward over-dense sites: accept if the site is
        // above the running median-ish threshold or with small probability
        // anywhere (keeps progress on flat fields).
        let v = field[cx + n * (cy + n * cz)];
        if v < 0.0 && rng.f64_in(0.0, 1.0) > 0.15 {
            continue;
        }
        // NFW-like additive bump, periodic wrap (the simulation box is
        // periodic).
        for dz in -reach..=reach {
            for dy in -reach..=reach {
                for dx in -reach..=reach {
                    let r = ((dx * dx + dy * dy + dz * dz) as f64).sqrt();
                    if r > r_trunc {
                        continue;
                    }
                    let x = (cx as isize + dx).rem_euclid(n as isize) as usize;
                    let y = (cy as isize + dy).rem_euclid(n as isize) as usize;
                    let z = (cz as isize + dz).rem_euclid(n as isize) as usize;
                    let rr = (r / pop.scale_radius).max(0.35);
                    let profile = 1.0 / (rr * (1.0 + rr) * (1.0 + rr));
                    // Normalize so the centre adds exactly `amp`.
                    let centre_profile = 1.0 / (0.35 * 1.35 * 1.35);
                    field[x + n * (y + n * z)] += amp * profile / centre_profile;
                }
            }
        }
        halos.push(InjectedHalo {
            center: (cx, cy, cz),
            amplitude: amp,
        });
        placed += 1;
    }
    halos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halos_raise_peaks() {
        let n = 32;
        let mut field = vec![0.0f64; n * n * n];
        // Seed a tiny positive plateau so rejection sampling accepts sites.
        for v in field.iter_mut() {
            *v = 0.01;
        }
        let before_max = 0.01f64;
        let halos = inject_halos(&mut field, n, &HaloPopulation::default(), 3);
        assert!(!halos.is_empty());
        let after_max = field.iter().cloned().fold(f64::MIN, f64::max);
        assert!(after_max > before_max * 10.0 || after_max > 0.05);
        // Centre of the first halo is a local peak.
        let (cx, cy, cz) = halos[0].center;
        let centre = field[cx + n * (cy + n * cz)];
        let neighbour = field[(cx + 3) % n + n * (cy + n * cz)];
        assert!(centre > neighbour);
    }

    #[test]
    fn injection_is_deterministic() {
        let n = 16;
        let mut a = vec![0.1f64; n * n * n];
        let mut b = vec![0.1f64; n * n * n];
        let ha = inject_halos(&mut a, n, &HaloPopulation::default(), 9);
        let hb = inject_halos(&mut b, n, &HaloPopulation::default(), 9);
        assert_eq!(ha, hb);
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_limits_footprint() {
        let n = 32;
        let mut field = vec![1.0f64; n * n * n];
        let pop = HaloPopulation {
            count: 1,
            scale_radius: 1.5,
            peak_amplitude: 5.0,
            truncate: 2.0,
        };
        let halos = inject_halos(&mut field, n, &pop, 1);
        let (cx, cy, cz) = halos[0].center;
        // 8 cells away nothing changed.
        let far = field[(cx + 8) % n + n * ((cy + 8) % n + n * cz)];
        assert_eq!(far, 1.0);
    }
}
