//! Property-based tests over the whole stack: random AMR structures and
//! fields must round-trip within bounds for every method and strategy.

use proptest::prelude::*;
use tac_amr::{Aabb, AmrDataset, AmrLevel};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, plan_opst_from_occupancy, zmesh_order,
    LevelPayload, Method, MethodBody, Parallelism, Strategy, TacConfig,
};
use tac_sz::{compress, decompress, Dims, ErrorBound, SzConfig};

/// Builds a valid two-level tree AMR dataset from a boolean refinement
/// mask over the coarse grid and a value seed.
fn dataset_from_refinement(coarse_dim: usize, refine: &[bool], seed: u64) -> AmrDataset {
    let fine_dim = coarse_dim * 2;
    let mut fine = AmrLevel::empty(fine_dim);
    let mut coarse = AmrLevel::empty(coarse_dim);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
    };
    for z in 0..coarse_dim {
        for y in 0..coarse_dim {
            for x in 0..coarse_dim {
                if refine[x + coarse_dim * (y + coarse_dim * z)] {
                    for dz in 0..2 {
                        for dy in 0..2 {
                            for dx in 0..2 {
                                fine.set_value(2 * x + dx, 2 * y + dy, 2 * z + dz, next());
                            }
                        }
                    }
                } else {
                    coarse.set_value(x, y, z, next());
                }
            }
        }
    }
    AmrDataset::new("prop", vec![fine, coarse])
}

/// One multi-segment single-stream container over the shared 64^3 /
/// 32^3 dataset, with its full decode and its chunk-table rows as
/// `(level, box on that level's grid)` — the boxes the writer derives
/// from the segments' plane cuts.
struct Segmented {
    method: Method,
    bytes: Vec<u8>,
    full: AmrDataset,
    rows: Vec<(usize, Aabb)>,
}

/// zMesh and 1D containers big enough (~233 K values) to be cut into
/// several segments, built once.
fn segmented() -> &'static [Segmented] {
    static BUILT: std::sync::OnceLock<Vec<Segmented>> = std::sync::OnceLock::new();
    BUILT.get_or_init(|| {
        let refine: Vec<bool> = (0..32usize.pow(3))
            .map(|i| (i % 32 + 2 * (i / 32 % 32) + 3 * (i / 1024)) % 8 != 0)
            .collect();
        let ds = dataset_from_refinement(32, &refine, 7);
        let cfg = TacConfig::with_error_bound(ErrorBound::Abs(0.5));
        [Method::ZMesh, Method::Baseline1D]
            .into_iter()
            .map(|method| {
                let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
                let slabs = |dim: usize, scale: usize, segments: &[tac_core::Segment]| {
                    let mut from = 0;
                    segments
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            let last = i + 1 == segments.len();
                            let to = if last { dim } else { s.plane_end * scale };
                            let slab = Aabb::new((0, 0, from), (dim, dim, to));
                            from = to;
                            slab
                        })
                        .collect::<Vec<_>>()
                };
                let rows: Vec<(usize, Aabb)> = match &cd.body {
                    MethodBody::ZMesh { segments, .. } => {
                        slabs(64, 2, segments).into_iter().map(|b| (0, b)).collect()
                    }
                    MethodBody::Baseline1D(levels) => levels
                        .iter()
                        .enumerate()
                        .flat_map(|(l, level)| {
                            let (_, _, segments) = level.as_ref().unwrap();
                            let boxes = match segments.len() {
                                // A lone segment keeps the level's tight box.
                                1 => vec![cd.masks[l].bounding_box(64 >> l).unwrap()],
                                _ => slabs(64 >> l, 1, segments),
                            };
                            boxes.into_iter().map(move |b| (l, b))
                        })
                        .collect(),
                    _ => panic!("{method:?} wrote another method's body"),
                };
                assert!(rows.len() >= 4, "{method:?}: {} rows", rows.len());
                Segmented {
                    method,
                    bytes: cd.to_bytes(),
                    full: decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap(),
                    rows,
                }
            })
            .collect()
    })
}

/// `decompress_region_t` over a multi-segment container is a restriction
/// of the full decode: bit-equal inside the box, `+0.0` bits in every
/// slab whose row the box misses, and reads exactly the rows it meets.
fn check_segmented_roi(c: &Segmented, roi: Aabb) -> Result<(), TestCaseError> {
    let (partial, stats) = tac_core::decompress_region_t::<f64>(&c.bytes, roi).unwrap();
    let met = |&(level, bbox): &(usize, Aabb)| bbox.intersects(&roi.coarsen(1 << level));
    prop_assert_eq!(stats.chunks_total, c.rows.len());
    prop_assert_eq!(stats.chunks_read, c.rows.iter().filter(|r| met(r)).count());
    prop_assert!(stats.payload_bytes_read <= stats.payload_bytes_total);
    for (l, (p, f)) in partial.levels().iter().zip(c.full.levels()).enumerate() {
        let dim = p.dim();
        let inside = roi.coarsen(1 << l);
        // A zMesh row (level 0) covers its slab of every level; a 1D
        // row covers its own level only.
        let skipped: Vec<Aabb> = c
            .rows
            .iter()
            .filter(|r| !met(r) && (r.0 == l || c.method == Method::ZMesh))
            .map(|&(level, bbox)| bbox.coarsen(1 << (l - level)))
            .collect();
        for (i, (a, b)) in p.data().iter().zip(f.data()).enumerate() {
            let (x, y, z) = (i % dim, i / dim % dim, i / dim / dim);
            if inside.contains(x, y, z) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "{:?} {:?}: level {} cell ({},{},{}) diverges inside ROI",
                    c.method,
                    roi,
                    l,
                    x,
                    y,
                    z
                );
            }
            if skipped.iter().any(|slab| slab.contains(x, y, z)) {
                prop_assert!(
                    a.to_bits() == 0,
                    "{:?} {:?}: level {} cell ({},{},{}) of a skipped slab is not +0.0",
                    c.method,
                    roi,
                    l,
                    x,
                    y,
                    z
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sz_roundtrip_respects_bound_on_random_data(
        values in prop::collection::vec(-1e6f64..1e6, 64..256),
        eb_exp in -6i32..-1,
    ) {
        let eb = 10f64.powi(eb_exp) * 1e6;
        let n = values.len();
        let bytes = compress(&values, Dims::D1(n), &SzConfig::abs(eb)).unwrap();
        let (out, dims) = decompress(&bytes).unwrap();
        prop_assert_eq!(dims, Dims::D1(n));
        for (a, b) in values.iter().zip(&out) {
            prop_assert!((a - b).abs() <= eb * (1.0 + 1e-12));
        }
    }

    #[test]
    fn sz_3d_roundtrip_random_grids(
        seed in 0u64..1000,
        eb_exp in -5i32..-2,
    ) {
        let n = 8usize;
        let mut state = seed | 1;
        let values: Vec<f64> = (0..n * n * n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }).collect();
        let eb = 10f64.powi(eb_exp);
        let bytes = compress(&values, Dims::D3(n, n, n), &SzConfig::abs(eb)).unwrap();
        let (out, _) = decompress(&bytes).unwrap();
        for (a, b) in values.iter().zip(&out) {
            prop_assert!((a - b).abs() <= eb * (1.0 + 1e-12));
        }
    }

    #[test]
    fn opst_partition_is_exact_for_random_occupancy(
        occ in prop::collection::vec(any::<bool>(), 64),
    ) {
        let nb = 4;
        let plan = plan_opst_from_occupancy(&occ, nb);
        let mut covered = vec![0u32; nb * nb * nb];
        for &(x0, y0, z0, s) in &plan.cubes {
            prop_assert!(x0 + s <= nb && y0 + s <= nb && z0 + s <= nb);
            for z in z0..z0 + s {
                for y in y0..y0 + s {
                    for x in x0..x0 + s {
                        covered[x + nb * (y + nb * z)] += 1;
                    }
                }
            }
        }
        for i in 0..occ.len() {
            prop_assert_eq!(covered[i], occ[i] as u32);
        }
    }

    #[test]
    fn amr_roundtrip_all_methods_random_structure(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..500,
    ) {
        let ds = dataset_from_refinement(4, &refine, seed);
        prop_assume!(ds.total_present() > 0);
        ds.validate().unwrap();
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Abs(0.5),
            ..Default::default()
        };
        for method in [Method::Tac, Method::Baseline1D, Method::ZMesh, Method::Baseline3D] {
            let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
            let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
            for (a, b) in ds.levels().iter().zip(out.levels()) {
                prop_assert_eq!(a.mask(), b.mask());
                for i in a.mask().iter_ones() {
                    prop_assert!(
                        (a.data()[i] - b.data()[i]).abs() <= 0.5 * (1.0 + 1e-9),
                        "method {:?} level cell {}", method, i
                    );
                }
            }
        }
    }

    #[test]
    fn zmesh_order_is_a_bijection(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..100,
    ) {
        let ds = dataset_from_refinement(4, &refine, seed);
        let masks: Vec<&tac_amr::BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
        let order = zmesh_order(&masks, ds.finest_dim());
        prop_assert_eq!(order.len(), ds.total_present());
        let mut seen = std::collections::HashSet::new();
        for e in &order {
            prop_assert!(seen.insert(*e));
        }
    }

    #[test]
    fn forced_strategies_roundtrip_random_structure(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..100,
        strategy_idx in 0usize..5,
    ) {
        let strategy = [
            Strategy::ZeroFill,
            Strategy::NaST,
            Strategy::OpST,
            Strategy::AkdTree,
            Strategy::Gsp,
        ][strategy_idx];
        let ds = dataset_from_refinement(4, &refine, seed);
        prop_assume!(ds.total_present() > 0);
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Abs(0.25),
            forced_strategy: Some(strategy),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            for i in a.mask().iter_ones() {
                prop_assert!((a.data()[i] - b.data()[i]).abs() <= 0.25 * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn container_bytes_roundtrip_random(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..100,
    ) {
        let ds = dataset_from_refinement(4, &refine, seed);
        prop_assume!(ds.total_present() > 0);
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Abs(1.0),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let bytes = cd.to_bytes();
        let parsed = tac_core::CompressedDataset::from_bytes(&bytes).unwrap();
        prop_assert_eq!(parsed, cd);
    }

    /// Random structures serialize and decode back within the bound with
    /// exact mask equality, for every method.
    #[test]
    fn every_method_roundtrips_random_structure(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..200,
    ) {
        let ds = dataset_from_refinement(4, &refine, seed);
        prop_assume!(ds.total_present() > 0);
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Abs(0.5),
            ..Default::default()
        };
        for method in [Method::Tac, Method::Baseline1D, Method::ZMesh, Method::Baseline3D] {
            let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
            let bytes = cd.to_bytes();
            let parsed = tac_core::CompressedDataset::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&parsed, &cd);
            let out = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap();
            for (a, b) in ds.levels().iter().zip(out.levels()) {
                prop_assert_eq!(a.mask(), b.mask());
                for i in a.mask().iter_ones() {
                    prop_assert!(
                        (a.data()[i] - b.data()[i]).abs() <= 0.5 * (1.0 + 1e-9),
                        "method {:?} cell {}", method, i
                    );
                }
            }
        }
    }

    /// `Method::Auto` selects some concrete winner; the resulting
    /// container round-trips within the bound, parses back equal, and
    /// re-serialization is byte-stable: `to_bytes -> parse -> to_bytes`
    /// is the identity on bytes.
    #[test]
    fn auto_containers_roundtrip_and_reserialize_byte_stably(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..200,
    ) {
        let ds = dataset_from_refinement(4, &refine, seed);
        prop_assume!(ds.total_present() > 0);
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Abs(0.5),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Auto).unwrap();
        prop_assert!(cd.method() != Method::Auto, "Auto never serializes");
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            prop_assert_eq!(a.mask(), b.mask());
            for i in a.mask().iter_ones() {
                prop_assert!((a.data()[i] - b.data()[i]).abs() <= 0.5 * (1.0 + 1e-9));
            }
        }
        let latest = cd.to_bytes();
        let parsed = tac_core::CompressedDataset::from_bytes(&latest).unwrap();
        prop_assert_eq!(&parsed, &cd);
        prop_assert_eq!(parsed.to_bytes(), latest);
    }

    /// v2 region-of-interest decoding is a restriction of the full
    /// decode for *any* box — empty, a single cell, odd corners that
    /// straddle coarse cells, partly or wholly outside the domain:
    /// inside the box every cell matches the full reconstruction bit
    /// for bit, every cell of every chunk the read skipped holds `+0.0`
    /// bits, and the decoder never reads more payload than a full
    /// decode.
    #[test]
    fn roi_decode_is_subset_of_full_decode(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..200,
        corners in prop::collection::vec(0usize..12, 6),
        tiled in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        let ds = dataset_from_refinement(4, &refine, seed);
        prop_assume!(ds.total_present() > 0);
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Abs(0.5),
            roi_tile: if tiled { Some(4) } else { None },
            // Region groups on every level, or the density filter's own
            // pick (whole-grid streams on the denser levels).
            forced_strategy: sparse.then_some(Strategy::OpST),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let bytes = cd.to_bytes();
        let full = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();

        // Two random corners on a 12^3 lattice around the 8^3 fine grid;
        // equal coordinates give an empty box.
        let span = |a: usize, b: usize| (a.min(b), a.max(b));
        let (x, y, z) = (
            span(corners[0], corners[1]),
            span(corners[2], corners[3]),
            span(corners[4], corners[5]),
        );
        let roi = Aabb::new((x.0, y.0, z.0), (x.1, y.1, z.1));
        let (partial, stats) = tac_core::decompress_region_t::<f64>(&bytes, roi).unwrap();

        prop_assert!(stats.payload_bytes_read <= stats.payload_bytes_total);
        prop_assert_eq!(partial.num_levels(), full.num_levels());
        let MethodBody::Tac(compressed) = &cd.body else {
            panic!("Method::Tac wrote a non-TAC body");
        };
        for (l, (p, f)) in partial.levels().iter().zip(full.levels()).enumerate() {
            let dim = p.dim();
            let roi_level = roi.coarsen(1 << l);
            for z in roi_level.min.2..roi_level.max.2.min(dim) {
                for y in roi_level.min.1..roi_level.max.1.min(dim) {
                    for x in roi_level.min.0..roi_level.max.0.min(dim) {
                        prop_assert!(
                            p.value(x, y, z).to_bits() == f.value(x, y, z).to_bits(),
                            "level {} cell ({},{},{}) diverges inside ROI", l, x, y, z
                        );
                    }
                }
            }
            // What the read skipped, by the chunk table's own boxes: a
            // group whose box misses the ROI leaves its regions alone; a
            // whole-grid stream (boxed by its mask's bounding box)
            // leaves the whole level alone.
            let skipped: Vec<Aabb> = match &compressed[l].payload {
                LevelPayload::Empty => vec![],
                LevelPayload::Whole(_) => {
                    let bbox = p.mask().bounding_box(dim).unwrap();
                    if bbox.intersects(&roi_level) { vec![] } else { vec![Aabb::whole(dim)] }
                }
                LevelPayload::Groups(groups) => groups
                    .iter()
                    .filter(|g| !g.aabb().intersects(&roi_level))
                    .flat_map(|g| {
                        g.origins.iter().map(|&(x, y, z)| {
                            Aabb::of_region((x as usize, y as usize, z as usize), g.shape)
                        })
                    })
                    .collect(),
            };
            for region in skipped {
                for z in region.min.2..region.max.2 {
                    for y in region.min.1..region.max.1 {
                        for x in region.min.0..region.max.0 {
                            prop_assert!(
                                p.value(x, y, z).to_bits() == 0,
                                "level {} cell ({},{},{}) of a skipped chunk is not +0.0",
                                l, x, y, z
                            );
                        }
                    }
                }
            }
        }

        // The same contract over multi-segment zMesh and 1D containers,
        // on a 72^3 lattice around their 64^3 grid: the drawn box (odd
        // corners straddle coarse cells and plane cuts; equal ones are
        // empty), the single cell at its corner, and the box pushed out
        // of the domain.
        let wide = |c: usize| 6 * c + c % 2;
        let min = (wide(x.0), wide(y.0), wide(z.0));
        let max = (wide(x.1), wide(y.1), wide(z.1));
        for c in segmented() {
            check_segmented_roi(c, Aabb::new(min, max))?;
            check_segmented_roi(c, Aabb::new(min, (min.0 + 1, min.1 + 1, min.2 + 1)))?;
            check_segmented_roi(c, Aabb::new((min.0, min.1, min.2 + 64), (max.0, max.1, max.2 + 64)))?;
        }
    }
}

/// Lossless LZSS fuzz outside proptest macro (byte-oriented).
#[test]
fn lzss_roundtrips_structured_buffers() {
    for seed in 0u64..20 {
        let mut state = seed | 1;
        let len = (seed as usize * 977) % 40_000;
        let data: Vec<u8> = (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 60) < 12 {
                    (state >> 33) as u8
                } else {
                    (i % 17) as u8 // long structured runs
                }
            })
            .collect();
        let c = tac_sz::lossless::compress(&data);
        let d = tac_sz::lossless::decompress(&c).unwrap();
        assert_eq!(d, data, "seed {seed}");
    }
}
