//! Property-based tests over the whole stack: random AMR structures and
//! fields must round-trip within bounds for every method and strategy.

use proptest::prelude::*;
use tac_amr::{Aabb, AmrDataset, AmrLevel};
use tac_codec::{codec_for, CodecConfig, Dims};
use tac_core::ErrorBound;
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, decompress_region_t, plan_opst_from_occupancy,
    zmesh_order, CodecElement, CodecId, CompressedDataset, CompressedLevel, LevelPayload, Method,
    MethodBody, Parallelism, Strategy, TacConfig, TacDtype, TacError,
};

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

/// A container's chunk-table rows as `(level, box on that level's
/// grid)`, rebuilt from the body the way the writer derives them: a
/// region group's own box, a whole-level stream's tight mask box, a
/// zMesh / 1D segment's slab of whole planes (zMesh rows on the finest
/// grid, a lone 1D segment keeping its level's tight box), the 3D
/// baseline's whole domain.
fn table_rows(cd: &CompressedDataset) -> Vec<(usize, Aabb)> {
    let fine = cd.finest_dim;
    let tight = |l: usize| cd.masks[l].bounding_box(fine >> l).unwrap();
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
    match &cd.body {
        MethodBody::Tac(levels) => (levels.iter().enumerate())
            .flat_map(|(l, cl)| match &cl.payload {
                LevelPayload::Empty => vec![],
                LevelPayload::Whole(_) => vec![(l, tight(l))],
                LevelPayload::Groups(groups) => groups.iter().map(|g| (l, g.aabb())).collect(),
            })
            .collect(),
        MethodBody::ZMesh { segments, .. } => {
            let scale = 1 << (cd.masks.len() - 1);
            (slabs(fine, scale, segments).into_iter())
                .map(|b| (0, b))
                .collect()
        }
        MethodBody::Baseline1D(levels) => (levels.iter().enumerate())
            .flat_map(|(l, level)| {
                let boxes = match level {
                    None => vec![],
                    Some((_, _, segments)) if segments.len() == 1 => vec![tight(l)],
                    Some((_, _, segments)) => slabs(fine >> l, 1, segments),
                };
                boxes.into_iter().map(move |b| (l, b))
            })
            .collect(),
        MethodBody::Baseline3D { .. } => vec![(0, Aabb::whole(fine))],
    }
}

/// Each level's values as bit patterns.
fn level_bits<T: CodecElement>(ds: &AmrDataset<T>) -> Vec<Vec<u64>> {
    let bits = |l: &AmrLevel<T>| l.data().iter().map(|v| v.to_bits_u64()).collect();
    ds.levels().iter().map(bits).collect()
}

/// `ds` compressed at its own width or narrowed to `f32`.
fn compress_at(
    ds: &AmrDataset,
    f32: bool,
    cfg: &TacConfig,
    method: Method,
) -> Result<CompressedDataset, TacError> {
    if f32 {
        compress_dataset_t(&ds.cast::<f32>(), cfg, method)
    } else {
        compress_dataset_t(ds, cfg, method)
    }
}

/// A full decode at the container's element type, as [`level_bits`].
fn full_bits(cd: &CompressedDataset) -> Vec<Vec<u64>> {
    match cd.dtype {
        TacDtype::F32 => {
            level_bits(&decompress_dataset_par_t::<f32>(cd, Parallelism::Serial).unwrap())
        }
        TacDtype::F64 => {
            level_bits(&decompress_dataset_par_t::<f64>(cd, Parallelism::Serial).unwrap())
        }
    }
}

/// One region-read setup: a container, its full decode and its rows.
struct Built {
    what: String,
    bytes: Vec<u8>,
    dtype: TacDtype,
    finest_dim: usize,
    full: Vec<Vec<u64>>,
    rows: Vec<(usize, Aabb)>,
    full_read: bool,
}

impl Built {
    fn new(what: String, cd: &CompressedDataset) -> Self {
        Built {
            what,
            bytes: cd.to_bytes(),
            dtype: cd.dtype,
            finest_dim: cd.finest_dim,
            full: full_bits(cd),
            rows: table_rows(cd),
            full_read: cd.method() == Method::Baseline3D,
        }
    }

    /// `decompress_region_t` under the box contract: inside `roi`,
    /// coarsened to each level and clipped to its grid, every cell
    /// equals the full decode bit for bit; every other cell holds `+0.0`
    /// bits — whatever chunk covers it. The read decodes exactly the
    /// rows whose boxes meet the request, and never more payload than a
    /// full decode.
    fn check_region(&self, roi: Aabb) -> Result<(), TestCaseError> {
        let (partial, stats) = match self.dtype {
            TacDtype::F32 => decompress_region_t::<f32>(&self.bytes, roi)
                .map(|(ds, stats)| (level_bits(&ds), stats)),
            TacDtype::F64 => decompress_region_t::<f64>(&self.bytes, roi)
                .map(|(ds, stats)| (level_bits(&ds), stats)),
        }
        .unwrap();
        // (The 3D baseline's one chunk is read whatever the box.)
        let met = |&(level, bbox): &(usize, Aabb)| {
            self.full_read || bbox.intersects(&roi.coarsen(1 << level))
        };
        prop_assert_eq!(stats.chunks_total, self.rows.len(), "{}", self.what);
        prop_assert_eq!(
            stats.chunks_read,
            self.rows.iter().filter(|r| met(r)).count(),
            "{}",
            self.what
        );
        prop_assert!(stats.payload_bytes_read <= stats.payload_bytes_total);
        prop_assert_eq!(partial.len(), self.full.len());
        for (l, (p, f)) in partial.iter().zip(&self.full).enumerate() {
            let dim = self.finest_dim >> l;
            prop_assert_eq!(dim * dim * dim, p.len());
            let inside = roi.coarsen(1 << l);
            for (i, (a, b)) in p.iter().zip(f).enumerate() {
                let (x, y, z) = (i % dim, i / dim % dim, i / dim / dim);
                let want = if inside.contains(x, y, z) { *b } else { 0 };
                prop_assert!(
                    *a == want,
                    "{} {:?}: level {} cell ({},{},{}) holds {:#x}, the contract says {:#x}",
                    self.what,
                    roi,
                    l,
                    x,
                    y,
                    z,
                    a,
                    want
                );
            }
        }
        Ok(())
    }
}

/// Containers big enough to be cut into many chunks, built once over a
/// shared 64^3 / 32^3 dataset (~233 K values): multi-segment zMesh and
/// 1D bodies, and TAC bodies whose dense levels are cut into several
/// z-slabs — GSP and ZeroFill forced on both levels (a 12-cell tile
/// leaves a short last slab), and the density filter's own pick — at
/// both element types.
fn big_containers() -> &'static [Built] {
    static BUILT: std::sync::OnceLock<Vec<Built>> = std::sync::OnceLock::new();
    BUILT.get_or_init(|| {
        let refine: Vec<bool> = (0..32usize.pow(3))
            .map(|i| (i % 32 + 2 * (i / 32 % 32) + 3 * (i / 1024)) % 8 != 0)
            .collect();
        let ds = dataset_from_refinement(32, &refine, 7);
        let cfg = TacConfig::with_error_bound(ErrorBound::Abs(0.5));
        let mut built = Vec::new();
        for method in [Method::ZMesh, Method::Baseline1D] {
            let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
            let rows = table_rows(&cd).len();
            assert!(rows >= 4, "{method:?}: {rows} rows");
            built.push(Built::new(format!("{method:?}"), &cd));
        }
        for (strategy, tile, f32) in [
            (Some(Strategy::Gsp), 16, false),
            (Some(Strategy::ZeroFill), 12, true),
            (None, 16, true),
        ] {
            let tac_cfg = TacConfig {
                unit: 4,
                roi_tile: Some(tile),
                forced_strategy: strategy,
                ..cfg.clone()
            };
            let cd = compress_at(&ds, f32, &tac_cfg, Method::Tac).unwrap();
            let MethodBody::Tac(levels) = &cd.body else {
                panic!("Method::Tac wrote a non-TAC body");
            };
            let slabs = |cl: &CompressedLevel| match &cl.payload {
                LevelPayload::Groups(groups)
                    if matches!(cl.strategy, Strategy::Gsp | Strategy::ZeroFill) =>
                {
                    groups.len()
                }
                _ => 0,
            };
            assert!(levels.iter().any(|cl| slabs(cl) >= 2), "{strategy:?}");
            let what = format!("Tac/{strategy:?}/tile {tile}/f32 {f32}");
            built.push(Built::new(what, &cd));
        }
        built
    })
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
        let sz = codec_for::<f64>(CodecId::Sz);
        let bytes = sz.compress(&values, None, Dims::D1(n), &CodecConfig::abs(eb)).unwrap();
        let (out, dims) = sz.decompress(&bytes).unwrap();
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
        let sz = codec_for::<f64>(CodecId::Sz);
        let bytes = sz.compress(&values, None, Dims::D3(n, n, n), &CodecConfig::abs(eb)).unwrap();
        let (out, _) = sz.decompress(&bytes).unwrap();
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

    /// Region reads honour the box contract for *any* box — empty, a
    /// single cell, odd corners that straddle coarse cells, partly or
    /// wholly outside the domain — on every method, codec and element
    /// type, whatever the chunking: inside the box every cell matches
    /// the full reconstruction bit for bit, every other cell holds
    /// `+0.0` bits, and the read decodes exactly the chunks its box
    /// meets. TAC runs under the density filter's pick, forced region
    /// groups and forced dense levels, with tiles that cut both levels,
    /// the fine one only, or neither.
    #[test]
    fn roi_decode_is_subset_of_full_decode(
        refine in prop::collection::vec(any::<bool>(), 64),
        seed in 0u64..200,
        corners in prop::collection::vec(0usize..12, 6),
        method in 0usize..4,
        strategy in 0usize..4,
        tile in 0usize..4,
        codec in 0usize..2,
        f32 in any::<bool>(),
    ) {
        let ds = dataset_from_refinement(4, &refine, seed);
        prop_assume!(ds.total_present() > 0);
        let method = [Method::Tac, Method::ZMesh, Method::Baseline1D, Method::Baseline3D][method];
        let strategy = [None, Some(Strategy::OpST), Some(Strategy::Gsp), Some(Strategy::ZeroFill)][strategy];
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Abs(0.5),
            roi_tile: [None, Some(2), Some(3), Some(4)][tile],
            forced_strategy: strategy,
            codec: CodecId::all()[codec],
            ..Default::default()
        };
        let cd = compress_at(&ds, f32, &cfg, method).unwrap();
        let small = Built::new(format!("{method:?}/{:?}/{:?}/{}", strategy, cfg.roi_tile, cfg.codec), &cd);

        // Two random corners on a 12^3 lattice around the 8^3 fine grid;
        // equal coordinates give an empty box.
        let span = |a: usize, b: usize| (a.min(b), a.max(b));
        let (x, y, z) = (
            span(corners[0], corners[1]),
            span(corners[2], corners[3]),
            span(corners[4], corners[5]),
        );
        small.check_region(Aabb::new((x.0, y.0, z.0), (x.1, y.1, z.1)))?;

        // The same contract over the many-chunk containers, on a 72^3
        // lattice around their 64^3 grid: the drawn box (odd corners
        // straddle coarse cells, plane cuts and slab cuts; equal ones are
        // empty), the single cell at its corner, and the box pushed out
        // of the domain.
        let wide = |c: usize| 6 * c + c % 2;
        let min = (wide(x.0), wide(y.0), wide(z.0));
        let max = (wide(x.1), wide(y.1), wide(z.1));
        for c in big_containers() {
            c.check_region(Aabb::new(min, max))?;
            c.check_region(Aabb::new(min, (min.0 + 1, min.1 + 1, min.2 + 1)))?;
            c.check_region(Aabb::new((min.0, min.1, min.2 + 64), (max.0, max.1, max.2 + 64)))?;
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
        let c = tac_codec::lossless::compress(&data);
        let d = tac_codec::lossless::decompress(&c).unwrap();
        assert_eq!(d, data, "seed {seed}");
    }
}
