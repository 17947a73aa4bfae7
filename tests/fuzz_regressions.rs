//! Pinned regression tests for every crash class the structure-aware
//! container fuzzer (`tac-testkit`) has found, plus the bounded fuzz
//! smoke CI runs on every push and the single-byte flip sweeps over the
//! frozen corpus under `tests/data` (the codec stream headers on every
//! run; every byte of every file in the `#[ignore]`d release sweep).
//!
//! Each test inlines the offending byte construction — the minimal
//! stream that reproduced the original panic/abort — and asserts the
//! decoder now rejects it with a clean `Err`. Keep these minimal and
//! named after the bug: when the fuzzer finds a new case
//! (`cargo run --release -p tac-testkit --example fuzz_long`), it lands
//! here before the fix.

use tac_testkit::{probe_container, ProbeResult};

/// Little-endian byte builder (mirrors the wire layout under test).
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u8(mut self, v: u8) -> Self {
        self.0.push(v);
        self
    }
    fn u32(mut self, v: u32) -> Self {
        self.0.extend(v.to_le_bytes());
        self
    }
    fn u64(mut self, v: u64) -> Self {
        self.0.extend(v.to_le_bytes());
        self
    }
    fn f64(mut self, v: f64) -> Self {
        self.0.extend(v.to_le_bytes());
        self
    }
    fn raw(mut self, v: &[u8]) -> Self {
        self.0.extend_from_slice(v);
        self
    }
    fn blob(mut self, v: &[u8]) -> Self {
        self.0.extend((v.len() as u64).to_le_bytes());
        self.0.extend_from_slice(v);
        self
    }
}

/// A syntactically valid SZ stream header (magic, version, flags, rank,
/// dims, eb, capacity) with the given rank-1..4 dims.
fn sz_header(flags: u8, dims: &[u64]) -> Bytes {
    let mut b = Bytes::default()
        .raw(b"TSZ1")
        .u8(1)
        .u8(flags)
        .u8(dims.len() as u8);
    for &d in dims {
        b = b.u64(d);
    }
    b.f64(1e-3).u32(65536)
}

/// Fuzzer find #1 (seed 1, iteration 15783): a predictor-section length
/// of `u64::MAX` made the payload cursor's `pos + len` bounds check wrap
/// around, panicking at slice time with `slice index starts at 16 but
/// ends at 15`. The cursor must use checked addition.
#[test]
fn sz_predictor_length_u64max_must_not_wrap_the_bounds_check() {
    let bytes = sz_header(0, &[8])
        .u64(0) // raw-value count
        .u64(u64::MAX) // predictor-section length: the overflow trigger
        .0;
    assert!(tac_sz::decompress(&bytes).is_err());
}

/// Fuzzer find #2 (seed 1, first campaign): a crafted `D4` header whose
/// batch axis declared ~2^33 regression slabs drove a
/// `Vec::with_capacity(nw)` of hundreds of gigabytes — an unwindable
/// allocation abort, not even a panic. Slab counts must be bounded by
/// the predictor section that would have to serialize them.
#[test]
fn sz_d4_slab_count_must_not_drive_the_context_allocation() {
    let bytes = sz_header(0, &[1, 1, 1, 1 << 33])
        .u64(0) // raw-value count
        .blob(&[1]) // predictor section: tag 1 = per-slab contexts
        .0;
    assert!(tac_sz::decompress(&bytes).is_err());
}

/// Crafted raw-value counts must be bounded by the payload that would
/// have to hold them, not just by the declared point count (which can
/// itself be huge): `with_capacity(n_raw)` ran before any read failed.
#[test]
fn sz_raw_count_must_not_drive_an_allocation() {
    let bytes = sz_header(0, &[1 << 30])
        .u64(1 << 30) // raw-value count: 8 GiB worth of f64s
        .0;
    assert!(tac_sz::decompress(&bytes).is_err());
}

/// A declared point count far beyond what the bit stream can encode
/// (every Huffman codeword is >= 1 bit) must fail before the symbol
/// buffer is reserved.
#[test]
fn sz_point_count_must_fit_the_bit_stream() {
    let bytes = sz_header(0, &[1 << 30])
        .u64(0) // raw-value count
        .blob(&[0]) // predictor section: tag 0 = no contexts
        // Huffman table: 2 symbols of length 1.
        .u32(2)
        .u32(1)
        .u8(1)
        .u32(2)
        .u8(1)
        .u64(8) // bit length: 8 bits for 2^30 declared points
        .u8(0xAA)
        .0;
    assert!(tac_sz::decompress(&bytes).is_err());
}

/// An LZSS stream declaring a huge uncompressed size must be rejected
/// up front: tokens expand at most `MAX_MATCH`-fold, so a 9-byte stream
/// claiming 2^60 output bytes is corrupt, not a reservation request.
#[test]
fn lzss_declared_length_is_bounded_by_possible_expansion() {
    let bytes = Bytes::default().u64(1 << 60).u8(0).0;
    assert!(tac_sz::lossless::decompress(&bytes).is_err());
    // The legitimate maximum still round-trips.
    let data = vec![7u8; 4096];
    let packed = tac_sz::lossless::compress(&data);
    assert_eq!(tac_sz::lossless::decompress(&packed).unwrap(), data);
}

/// A container header declaring an absurd finest dimension must fail
/// cleanly: `dim^3` products on wire dimensions overflowed (a panic
/// under debug assertions) before the bound existed.
#[test]
fn container_finest_dim_is_bounded() {
    for dim in [u64::MAX, 1 << 40, (1 << 13) + 1, 0] {
        let bytes = Bytes::default()
            .raw(b"TACD")
            .u8(1) // version
            .u8(0) // method: TAC
            .blob(b"crafted") // name
            .u64(dim)
            .u8(1) // level count
            .0;
        assert_eq!(probe_container(&bytes), ProbeResult::Rejected, "dim {dim}");
    }
}

/// A v1 TAC level record declaring a huge grid side must be rejected at
/// read time — the level dim feeds the same `dim^3` arithmetic as the
/// container header but arrives through a separate wire field.
#[test]
fn container_level_dim_is_bounded() {
    let mask = tac_amr::BitMask::ones(4 * 4 * 4);
    let packed = tac_sz::lossless::compress(&mask.to_bytes());
    let bytes = Bytes::default()
        .raw(b"TACD")
        .u8(1) // version
        .u8(0) // method: TAC
        .blob(b"crafted")
        .u64(4) // finest dim (plausible)
        .u8(1) // level count
        .blob(&packed) // valid mask for a 4^3 level
        // CompressedLevel: strategy, dim (the attack), eb, payload tag.
        .u8(5) // Gsp
        .u64(u64::MAX)
        .f64(1e-3)
        .u8(0) // Empty payload
        .0;
    assert_eq!(probe_container(&bytes), ProbeResult::Rejected);
}

/// A v1 TAC whole-level record declaring a plausible side its mask does
/// not have (5 on a 4^3 level) is rejected: the walker boxes the row on
/// the mask's own grid, and the decode refuses the side, instead of the
/// mask's box being taken at the declared side (a panic).
#[test]
fn v1_whole_level_dim_that_disagrees_with_its_mask_is_rejected() {
    let mask = tac_amr::BitMask::ones(4 * 4 * 4);
    let packed = tac_sz::lossless::compress(&mask.to_bytes());
    for dim in [3, 5, 8] {
        let bytes = Bytes::default()
            .raw(b"TACD")
            .u8(1) // version
            .u8(0) // method: TAC
            .blob(b"crafted")
            .u64(4) // finest dim
            .u8(1) // level count
            .blob(&packed) // valid mask for a 4^3 level
            // CompressedLevel: strategy, dim (the attack), eb, payload tag.
            .u8(1) // ZeroFill
            .u64(dim)
            .f64(1e-3)
            .u8(1) // whole-level SZ stream
            .blob(b"not a stream")
            .0;
        assert_eq!(probe_container(&bytes), ProbeResult::Rejected, "dim {dim}");
    }
}

/// The in-memory API is guarded too: a hand-built `CompressedLevel`
/// with an overflowing dimension errors instead of panicking in the
/// mask cross-check.
#[test]
fn in_memory_level_dim_overflow_is_an_error() {
    use tac_core::{decompress_level_t, CompressedLevel, LevelPayload, Strategy};
    let cl = CompressedLevel {
        strategy: Strategy::Empty,
        dim: usize::MAX,
        abs_eb: 0.0,
        codec: tac_core::CodecId::Sz,
        dtype: tac_core::TacDtype::F64,
        payload: LevelPayload::Empty,
    };
    let mask = tac_amr::BitMask::zeros(8);
    assert!(decompress_level_t::<f64>(&cl, &mask).is_err());
}

/// Builds a valid single-page pco-ans stream plus the offsets of its
/// first page's wire fields, for surgical corruption. Layout after the
/// 23-byte D1 header and 8-byte exception count: `n_bins u8`,
/// `n_bins x (lo u8, hi u8, weight u16)`, four lane seed `u32`s,
/// `word_bytes u32`, words, `offset_bytes u32`, offsets.
fn pco_ans_page_fixture() -> (Vec<u8>, usize, usize) {
    use tac_core::{codec_for, CodecConfig, CodecId};
    let data: Vec<f64> = (0..600).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
    let bytes = codec_for(CodecId::PcoAns)
        .compress(&data, tac_sz::Dims::D1(600), &CodecConfig::abs(1e-3))
        .unwrap();
    let bin_table_at = 23 + 8;
    let n_bins = usize::from(bytes[bin_table_at]);
    let states_at = bin_table_at + 1 + n_bins * 4;
    (bytes, bin_table_at, states_at)
}

/// Campaign hardening for the ANS entropy stage: a weight table whose
/// sum no longer hits the table size must be rejected when the decode
/// table is rebuilt — a wrong sum would otherwise mis-slot every symbol
/// and decode garbage of the right length.
#[test]
fn pco_ans_weight_table_sum_must_match_the_table_size() {
    use tac_core::{codec_for, CodecId};
    let (mut bytes, bin_table_at, _) = pco_ans_page_fixture();
    // Nudge the first bin's weight (lo u8, hi u8, then the u16).
    bytes[bin_table_at + 3] ^= 0x01;
    assert!(codec_for::<f64>(CodecId::PcoAns)
        .decompress(&bytes)
        .is_err());
}

/// ANS seed states below the normalized interval are unreachable from
/// the encoder; the decoder must reject them up front instead of
/// entering the refill loop in a state the drain check can never accept.
#[test]
fn pco_ans_seed_state_below_interval_is_rejected() {
    use tac_core::{codec_for, CodecId};
    let (mut bytes, _, states_at) = pco_ans_page_fixture();
    for b in &mut bytes[states_at..states_at + 4] {
        *b = 0;
    }
    assert!(codec_for::<f64>(CodecId::PcoAns)
        .decompress(&bytes)
        .is_err());
}

/// The renorm word stream is `u16` words: an odd byte count can only
/// come from corruption and must fail before the branch-free refill
/// reads half a word.
#[test]
fn pco_ans_odd_word_byte_count_is_rejected() {
    use tac_core::{codec_for, CodecId};
    let (mut bytes, _, states_at) = pco_ans_page_fixture();
    let wb_at = states_at + 16;
    bytes[wb_at..wb_at + 4].copy_from_slice(&1u32.to_le_bytes());
    assert!(codec_for::<f64>(CodecId::PcoAns)
        .decompress(&bytes)
        .is_err());
}

/// A word byte count of `u32::MAX` must surface as a clean truncation
/// error, not a multi-gigabyte slice request.
#[test]
fn pco_ans_word_count_is_bounded_by_the_stream() {
    use tac_core::{codec_for, CodecId};
    let (mut bytes, _, states_at) = pco_ans_page_fixture();
    let wb_at = states_at + 16;
    bytes[wb_at..wb_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(codec_for::<f64>(CodecId::PcoAns)
        .decompress(&bytes)
        .is_err());
}

/// Bin class runs must be strictly increasing; an overlapping run would
/// double-count classes and desynchronize the offset widths from the
/// encoder's. (Driven through the container fuzzer's probe surface so
/// the rejection is observed end to end.)
#[test]
fn pco_ans_bin_runs_must_be_strictly_increasing() {
    use tac_core::{codec_for, CodecId};
    let (mut bytes, bin_table_at, _) = pco_ans_page_fixture();
    let n_bins = usize::from(bytes[bin_table_at]);
    if n_bins >= 2 {
        // Make the second bin's lo collide with the first bin's run.
        let first_lo = bytes[bin_table_at + 1];
        bytes[bin_table_at + 1 + 4] = first_lo;
    } else {
        // Single bin: break ordering within the run instead.
        bytes[bin_table_at + 2] = 0;
        bytes[bin_table_at + 1] = 64;
    }
    assert!(codec_for::<f64>(CodecId::PcoAns)
        .decompress(&bytes)
        .is_err());
}

/// A container may not declare more levels than its finest grid can
/// halve into: 4 levels on a 2^3 grid used to parse and decode as `Ok`
/// with level sides `[2, 1, 0, 0]` — a silently wrong grid — through
/// the full decode and the ROI decode alike.
#[test]
fn level_count_beyond_the_finest_grid_is_rejected() {
    use tac_amr::{Aabb, BitMask};
    use tac_core::{decompress_region_t, CompressedDataset, MethodBody, TacDtype};
    let cd = CompressedDataset {
        name: "zero-sized".into(),
        finest_dim: 2,
        dtype: TacDtype::F64,
        masks: [8, 1, 0, 0].map(BitMask::zeros).to_vec(),
        body: MethodBody::Baseline1D(vec![None; 4]),
    };
    // Its v1 form as the last v1 writer serialized it, and today's v5.
    let v1 = include_bytes!("data/hostile_v1_level_count.bin").to_vec();
    assert_eq!(v1[4], 1);
    for bytes in [cd.to_bytes(), v1] {
        let err = CompressedDataset::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("4 levels"), "{err}");
    }
    assert!(decompress_region_t::<f64>(&cd.to_bytes(), Aabb::whole(2)).is_err());
}

/// A region-group chunk declares its three sub-block extents as raw
/// `u32`s. Extents of `0xFFFF_FFFF` each used to reach the scheduler's
/// cost estimate unchecked: `w * h * d * count` overflowed and panicked
/// in overflow-checked builds as soon as two or more workers shared two
/// or more tasks (the serial path never asks for a cost). Every group's geometry must
/// be validated against its level before any task is scheduled.
#[test]
fn group_extents_beyond_the_level_are_rejected_at_every_worker_count() {
    use tac_amr::{Aabb, BitMask};
    use tac_core::{
        decompress_dataset_par_t, decompress_region_t, BlockGroup, CodecId, CompressedDataset,
        CompressedLevel, LevelPayload, MethodBody, Parallelism, Strategy, TacDtype,
    };
    let cd = CompressedDataset {
        name: "hostile-shape".into(),
        finest_dim: 8,
        dtype: TacDtype::F64,
        masks: vec![BitMask::ones(512)],
        body: MethodBody::Tac(vec![CompressedLevel {
            strategy: Strategy::OpST,
            dim: 8,
            abs_eb: 1e-3,
            codec: CodecId::Sz,
            dtype: TacDtype::F64,
            payload: LevelPayload::Groups(vec![
                BlockGroup {
                    shape: (u32::MAX as usize, u32::MAX as usize, u32::MAX as usize),
                    origins: vec![(0, 0, 0)],
                    stream: vec![0; 16],
                };
                2
            ]),
        }]),
    };
    // In memory, the decode itself must refuse it.
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        assert!(
            decompress_dataset_par_t::<f64>(&cd, parallelism).is_err(),
            "{parallelism:?}"
        );
    }
    // On the wire, the group's box is its row's box — read from the
    // chunked form's table, or walked out of the bytes the last v1
    // writer serialized this container to — and the shared parse
    // refuses a box that leaves the level's grid, before any decode.
    let v1 = include_bytes!("data/hostile_v1_group_extents.bin").to_vec();
    assert_eq!(v1[4], 1);
    for bytes in [cd.to_bytes(), v1] {
        for err in [
            CompressedDataset::from_bytes(&bytes).unwrap_err(),
            decompress_region_t::<f64>(&bytes, Aabb::whole(8)).unwrap_err(),
        ] {
            assert!(err.to_string().contains("leaves the 8^3 grid"), "{err}");
        }
    }
}

/// Every field of `CompressedDataset` is public, so a caller can hand
/// the decoder masks that disagree with `finest_dim >> l`. The TAC and
/// 1D arms answered `Corrupt`; the zMesh arm panicked in its traversal
/// ("bit index 64 out of range 64", "need at least one level") and the
/// 3D arm in `AmrLevel::new` / `AmrDataset::new` or on an index out of
/// bounds. The geometry is validated once, up front, for every method.
#[test]
fn in_memory_masks_that_disagree_with_the_grid_are_rejected_by_every_method() {
    use tac_amr::{AmrDataset, AmrLevel, BitMask};
    use tac_core::{
        compress_dataset_t, decompress_dataset_par_t, Method, Parallelism, TacConfig, TacError,
    };
    // 8^3 over 4^3 with coarse cell (0,0,0) refined.
    let mut fine = AmrLevel::empty(8);
    let mut coarse = AmrLevel::empty(4);
    for i in 0..64usize {
        let (x, y, z) = (i % 4, i / 4 % 4, i / 16);
        if i == 0 {
            for c in 0..8 {
                fine.set_value(c & 1, c >> 1 & 1, c >> 2, 1.0 + c as f64 * 0.25);
            }
        } else {
            coarse.set_value(x, y, z, (i as f64 * 0.1).sin());
        }
    }
    let ds = AmrDataset::new("two-level", vec![fine, coarse]);
    ds.validate().unwrap();
    let cfg = TacConfig {
        unit: 4,
        ..TacConfig::default()
    };
    type Tamper = fn(&mut Vec<BitMask>);
    let tampers: [(&str, Tamper); 4] = [
        ("short mask", |m| m[0] = BitMask::ones(64)),
        ("long mask", |m| m[0] = BitMask::ones(1000)),
        ("long coarse mask", |m| m[1] = BitMask::ones(512)),
        ("no masks", |m| m.clear()),
    ];
    for method in Method::fixed() {
        let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
        for (what, tamper) in tampers {
            let mut bad = cd.clone();
            tamper(&mut bad.masks);
            for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                let err = decompress_dataset_par_t::<f64>(&bad, parallelism).unwrap_err();
                assert!(
                    matches!(err, TacError::Corrupt(_)),
                    "{method:?}, {what}, {parallelism:?}: {err}"
                );
            }
        }
        // More levels than the finest grid can halve into.
        let mut bad = cd.clone();
        bad.masks
            .extend([BitMask::zeros(8), BitMask::zeros(1), BitMask::zeros(0)]);
        assert!(decompress_dataset_par_t::<f64>(&bad, Parallelism::Serial).is_err());
    }
}

/// Region reads seek by the chunk table's boxes, and the parser used
/// to reject only *empty* ones: with every row of a TAC container
/// rewritten to another non-empty box (`[7,8)^3` on a 16^3 dataset with
/// data in two corners), `from_bytes` and the full decode accepted the
/// container while `decompress_region_t` over `[0,4)^3` returned `Ok`
/// having read 0 of 3 chunks — `+0.0` where the full decode holds
/// values. Every row's box is now checked against what the writer
/// derives (the mask's tight box, the group header's own box), so both
/// decoders refuse it, at either element type and under every codec
/// (pco-lite's rows come from the frozen `golden_lite_tac_v5.tacd`).
#[test]
fn chunk_boxes_that_disagree_with_their_data_are_rejected() {
    use tac_amr::{Aabb, AmrDataset, AmrLevel};
    use tac_core::{
        compress_dataset_t, decompress_region_t, CodecElement, CodecId, CompressedDataset, Method,
        TacConfig, CHUNK_COUNT_PREFIX_BYTES, CHUNK_ROW_BYTES_V4, TABLE_FOOTER_BYTES,
    };
    // Fine cells in two far-apart corner blobs, the rest coarse.
    let mut fine = AmrLevel::empty(16);
    let mut coarse = AmrLevel::empty(8);
    for i in 0..512usize {
        let (x, y, z) = (i % 8, i / 8 % 8, i / 64);
        if [x, y, z].iter().all(|&c| c < 2) || [x, y, z].iter().all(|&c| c >= 6) {
            for c in 0..8 {
                let at = (2 * x + (c & 1), 2 * y + (c >> 1 & 1), 2 * z + (c >> 2));
                fine.set_value(at.0, at.1, at.2, (at.0 + at.1 + at.2) as f64 * 0.1 + 1.0);
            }
        } else {
            coarse.set_value(x, y, z, (x + y + z) as f64 * 0.2 + 3.0);
        }
    }
    let ds = AmrDataset::new("corners", vec![fine, coarse]);
    ds.validate().unwrap();

    fn tac_bytes<T: CodecElement>(ds: &AmrDataset<T>, codec: CodecId) -> Vec<u8> {
        let cfg = TacConfig {
            unit: 4,
            codec,
            roi_tile: Some(8),
            ..TacConfig::with_error_bound(tac_sz::ErrorBound::Abs(1e-3))
        };
        compress_dataset_t(ds, &cfg, Method::Tac)
            .unwrap()
            .to_bytes()
    }

    fn check<T: CodecElement>(bytes: &[u8], codec: CodecId) {
        let roi = Aabb::new((0, 0, 0), (4, 4, 4));
        let (honest, stats) = decompress_region_t::<T>(bytes, roi).unwrap();
        let held = |l: &AmrLevel<T>| l.data().iter().any(|&v| v != T::ZERO);
        assert!(stats.chunks_read > 0 && honest.levels().iter().any(held));

        // Every row's box (its last six u32s) becomes [7,8)^3. Rows are
        // v4 rows, which v5 keeps: the version byte says so.
        assert_eq!(bytes[4], 5);
        let row = CHUNK_ROW_BYTES_V4;
        let mut tampered = bytes.to_vec();
        let footer_at = bytes.len() - TABLE_FOOTER_BYTES;
        let table_pos = u64::from_le_bytes(bytes[footer_at..].try_into().unwrap()) as usize;
        let rows = &mut tampered[table_pos + CHUNK_COUNT_PREFIX_BYTES..footer_at];
        assert!(rows.len() >= 3 * row && rows.len() % row == 0);
        for r in rows.chunks_exact_mut(row) {
            for (field, v) in r[row - 24..].chunks_exact_mut(4).zip([7u32, 7, 7, 8, 8, 8]) {
                field.copy_from_slice(&v.to_le_bytes());
            }
        }
        let err = CompressedDataset::from_bytes(&tampered).unwrap_err();
        assert!(
            err.to_string().contains("but its data spans"),
            "{codec} parse: {err}"
        );
        let err = decompress_region_t::<T>(&tampered, roi).unwrap_err();
        assert!(
            err.to_string().contains("but its data spans"),
            "{codec} ROI: {err}"
        );
    }
    check::<f64>(&tac_bytes(&ds, CodecId::Sz), CodecId::Sz);
    // Decode-only pco-lite: the frozen tiled TAC fixture.
    let lite = include_bytes!("data/golden_lite_tac_v5.tacd");
    check::<f64>(lite, CodecId::PcoLite);
    check::<f32>(
        &tac_bytes(&ds.cast::<f32>(), CodecId::PcoAns),
        CodecId::PcoAns,
    );
}

/// Decode tasks paste their regions concurrently, so two regions over
/// one cell cannot mean "the later paste wins" any more. No encoder
/// writes such a level, and nothing on the wire is wrong with one —
/// `golden_tac_v5.tacd` with one sub-block origin rewritten onto its
/// group's first, header and chunk-table box agreeing — so the parse
/// accepts it and the decode must refuse it: the same `Corrupt` naming
/// the overlap at every worker count and from a region read that meets
/// the pair; never a panic, never `Ok` with whichever value won a race.
#[test]
fn overlapping_regions_are_rejected_at_every_worker_count() {
    use tac_amr::Aabb;
    use tac_core::{
        decompress_dataset_par_t, decompress_region_t, CompressedDataset, LevelPayload, MethodBody,
        Parallelism, TacError,
    };
    let golden = include_bytes!("data/golden_tac_v5.tacd");
    let bytes = tac_testkit::overlapping_groups();
    assert_eq!(bytes.len(), golden.len());
    assert!(bytes != golden);
    let cd = CompressedDataset::from_bytes(&bytes).unwrap();

    let overlap = |err: TacError| {
        assert!(
            matches!(&err, TacError::Corrupt(why) if why.contains("overlaps another region")),
            "{err}"
        );
        err.to_string()
    };
    let serial = overlap(decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap_err());
    for workers in [2, 8] {
        let parallelism = Parallelism::Threads(workers);
        let err = decompress_dataset_par_t::<f64>(&cd, parallelism).unwrap_err();
        assert_eq!(overlap(err), serial, "{workers} workers");
    }

    // The doubled sub-block, as a request on the finest grid.
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("not a TAC body");
    };
    let (l, g) = (levels.iter().enumerate())
        .find_map(|(l, cl)| match &cl.payload {
            LevelPayload::Groups(groups) => Some((l, groups.iter().find(|g| g.origins.len() > 1)?)),
            _ => None,
        })
        .unwrap();
    assert_eq!(g.origins.first(), g.origins.last());
    let (x, y, z) = g.origins[0];
    let at = Aabb::of_region((x as usize, y as usize, z as usize), g.shape);
    let scale = 1usize << l;
    let roi = Aabb::new(
        (at.min.0 * scale, at.min.1 * scale, at.min.2 * scale),
        (at.max.0 * scale, at.max.1 * scale, at.max.2 * scale),
    );
    assert_eq!(
        overlap(decompress_region_t::<f64>(&bytes, roi).unwrap_err()),
        serial
    );
    assert_eq!(probe_container(&bytes), ProbeResult::Rejected);

    // The doubled sub-block moved one cell along x, so the pair shares
    // all but one face: a request for a cell of that face meets the
    // group's chunk and none of the doubled cells. The read writes
    // nothing of the overlap, yet the group claims every cell it
    // covers, so the read still refuses.
    let mut shifted = cd.clone();
    let MethodBody::Tac(levels) = &mut shifted.body else {
        unreachable!()
    };
    let LevelPayload::Groups(groups) = &mut levels[l].payload else {
        unreachable!()
    };
    let moved = groups.iter_mut().find(|h| h.origins == g.origins).unwrap();
    let dim = cd.finest_dim >> l;
    let (w, last) = (g.shape.0 as u32, moved.origins.len() - 1);
    let (face, step) = if x as usize + g.shape.0 < dim {
        (x, x + 1)
    } else {
        (x + w - 1, x - 1)
    };
    moved.origins[last].0 = step;
    let bytes = shifted.to_bytes();
    let cell = (
        face as usize * scale,
        y as usize * scale,
        z as usize * scale,
    );
    let roi = Aabb::of_region(cell, (1, 1, 1));
    let (Err(err), Err(full)) = (
        decompress_region_t::<f64>(&bytes, roi),
        decompress_dataset_par_t::<f64>(&shifted, Parallelism::Serial),
    ) else {
        panic!("a partial overlap decoded");
    };
    assert_eq!(overlap(err), overlap(full));
}

/// Where the mask-mode byte of a v5 container sits.
fn mask_mode_at(bytes: &[u8]) -> usize {
    tac_testkit::mask_mode_pos(bytes).expect("a v5 header")
}

/// `bytes` (finest mask implied) rewritten with every mask stored: the
/// mode byte cleared, `finest`'s LZSS blob spliced in behind it and the
/// table-offset footer moved along — what the writer emits for the same
/// container when its hierarchy is no tree.
fn with_stored_masks(bytes: &[u8], finest: &tac_amr::BitMask) -> Vec<u8> {
    let at = mask_mode_at(bytes);
    assert_eq!(bytes[at], 1);
    let blob = tac_sz::lossless::compress(&finest.to_bytes());
    let mut out = Bytes(bytes[..at].to_vec())
        .u8(0)
        .blob(&blob)
        .raw(&bytes[at + 1..])
        .0;
    let footer_at = out.len() - 8;
    let table_pos = u64::from_le_bytes(out[footer_at..].try_into().unwrap());
    out[footer_at..].copy_from_slice(&(table_pos + 8 + blob.len() as u64).to_le_bytes());
    out
}

/// A refinement tree's finest mask is implied, not stored — and nothing
/// but the container's length can tell: every method over a deep and a
/// two-level tree writes mode 1, identically at 1, 2, 4 and 8 workers,
/// and parses, decodes and region-reads bit-identically to the same
/// container with every mask stored; the stored form is longer by
/// exactly the finest blob and its length prefix.
#[test]
fn an_implied_finest_mask_decodes_like_a_stored_one() {
    use tac_amr::Aabb;
    use tac_core::{
        compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CompressedDataset,
        Method, Parallelism, TacConfig,
    };
    for name in ["deep-column", "nyx-grf"] {
        let spec = tac_testkit::scenario(name).unwrap();
        let ds = spec.build(3);
        ds.validate().unwrap();
        for method in Method::fixed() {
            let cd = compress_dataset_t(&ds, &spec.config(), method).unwrap();
            let implied = cd.to_bytes();
            assert_eq!(implied[mask_mode_at(&implied)], 1, "{name}/{method:?}");
            for workers in [2, 4, 8] {
                let cfg = TacConfig {
                    parallelism: Parallelism::Threads(workers),
                    ..spec.config()
                };
                let again = compress_dataset_t(&ds, &cfg, method).unwrap().to_bytes();
                assert_eq!(again, implied, "{name}/{method:?} at {workers} workers");
            }
            let stored = with_stored_masks(&implied, &cd.masks[0]);
            let blob = tac_sz::lossless::compress(&cd.masks[0].to_bytes()).len();
            assert_eq!(stored.len(), implied.len() + 8 + blob);

            let parsed = CompressedDataset::from_bytes(&implied).unwrap();
            assert_eq!(parsed, cd, "{name}/{method:?}");
            assert_eq!(CompressedDataset::from_bytes(&stored).unwrap(), cd);
            // The stored form is accepted, but never written for a tree.
            assert_eq!(parsed.to_bytes(), implied);

            let full = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap();
            let dim = ds.finest_dim();
            for roi in [
                Aabb::whole(dim),
                Aabb::new((1, 0, dim / 4), (dim / 2, dim / 2 + 1, dim / 2)),
            ] {
                let (a, a_stats) = decompress_region_t::<f64>(&implied, roi).unwrap();
                let (b, b_stats) = decompress_region_t::<f64>(&stored, roi).unwrap();
                assert_eq!(a_stats, b_stats, "{name}/{method:?}");
                for (l, ((a, b), f)) in a
                    .levels()
                    .iter()
                    .zip(b.levels())
                    .zip(full.levels())
                    .enumerate()
                {
                    assert_eq!(a.mask(), f.mask(), "{name}/{method:?} level {l}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(a.data()),
                        bits(b.data()),
                        "{name}/{method:?} level {l}"
                    );
                    if roi == Aabb::whole(dim) {
                        assert_eq!(
                            bits(a.data()),
                            bits(f.data()),
                            "{name}/{method:?} level {l}"
                        );
                    }
                }
            }
        }
    }
}

/// Hand-built hierarchies that are no tree — levels that overlap or
/// leave cells uncovered, which the compressors accept — keep every
/// mask stored and round-trip.
#[test]
fn hierarchies_that_are_no_tree_keep_their_masks_stored() {
    use tac_amr::{AmrDataset, AmrLevel};
    use tac_core::{compress_dataset_t, CompressedDataset, Method, TacConfig};
    let mut fine = AmrLevel::<f64>::empty(8);
    let mut coarse = AmrLevel::<f64>::empty(4);
    for i in 0..4 {
        fine.set_value(i, 2 * i % 8, 7 - i, 1.0 + i as f64);
        coarse.set_value(i, i, 3 - i, 2.0 + i as f64);
    }
    let ds = AmrDataset::new("no-tree", vec![fine, coarse]);
    assert!(ds.validate().is_err());
    for method in Method::fixed() {
        let cd = compress_dataset_t(&ds, &TacConfig::default(), method).unwrap();
        let bytes = cd.to_bytes();
        assert_eq!(bytes[mask_mode_at(&bytes)], 0, "{method:?}");
        assert_eq!(CompressedDataset::from_bytes(&bytes).unwrap(), cd);
        assert_eq!(probe_container(&bytes), ProbeResult::Decoded, "{method:?}");
    }
}

/// The frozen corpus: every `.tacd` file under `tests/data`, by name.
fn frozen_corpus() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "tacd"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// The byte ranges of the codec stream headers inside `bytes`, each
/// found by sniffing its magic and version: through the bound, plus
/// the capacity an SZ stream appends.
fn stream_headers(bytes: &[u8]) -> Vec<(tac_core::CodecId, std::ops::Range<usize>)> {
    (0..bytes.len())
        .filter_map(|at| {
            let codec = tac_core::sniff_codec(&bytes[at..]).ok()?;
            let rank = usize::from(*bytes.get(at + 6)?).clamp(1, 4);
            let capacity = if codec == tac_core::CodecId::Sz { 4 } else { 0 };
            let end = (at + 7 + 8 * rank + 8 + capacity).min(bytes.len());
            Some((codec, at..end))
        })
        .collect()
}

/// Flips each byte at `offsets` by `0x01` and by `0x80` and probes every
/// flipped file through `from_bytes`, a full decode at its declared
/// dtype and a region read of a fixed box. Returns one line, naming the
/// file, offset and flip, per probe that panicked or decoded to an
/// incoherent dataset.
fn flip_failures(name: &str, bytes: &[u8], offsets: impl Iterator<Item = usize>) -> Vec<String> {
    let mut flipped = bytes.to_vec();
    let mut failures = Vec::new();
    for at in offsets {
        for flip in [0x01u8, 0x80] {
            flipped[at] ^= flip;
            match probe_container(&flipped) {
                ProbeResult::Rejected | ProbeResult::Decoded => {}
                bad => failures.push(format!("{name}: byte {at} ^ {flip:#04x}: {bad:?}")),
            }
            flipped[at] ^= flip;
        }
    }
    failures
}

/// Every byte of every codec stream header in the frozen corpus, flipped:
/// the bytes the one shared header reader parses for all three backends.
#[test]
fn single_byte_flips_in_corpus_stream_headers_are_clean() {
    let mut failures = Vec::new();
    let mut headers = [0usize; 3];
    for (name, bytes) in frozen_corpus() {
        let found = stream_headers(&bytes);
        for (codec, _) in &found {
            headers[usize::from(codec.tag())] += 1;
        }
        let offsets = found.into_iter().flat_map(|(_, range)| range);
        failures.extend(flip_failures(&name, &bytes, offsets));
    }
    // The corpus holds streams of all three backends.
    assert!(headers.iter().all(|&n| n > 0), "{headers:?}");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Every byte of every file in the frozen corpus, flipped (~164k
/// decodes; run in release).
#[test]
#[ignore = "whole-corpus sweep: cargo test --release --test fuzz_regressions -- --ignored"]
fn single_byte_flips_over_the_whole_corpus_are_clean() {
    let mut failures = Vec::new();
    for (name, bytes) in frozen_corpus() {
        failures.extend(flip_failures(&name, &bytes, 0..bytes.len()));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The CI smoke: the bounded seeded campaign must observe zero panics
/// and zero incoherent decodes (every corruption surfaces as `Err` or
/// as a coherent re-decodable container).
#[test]
fn fuzz_smoke_2k_iterations_is_clean() {
    let outcome = tac_testkit::fuzz_containers(&tac_testkit::FuzzConfig::default());
    assert_eq!(outcome.iterations, 2000);
    assert!(outcome.clean(), "{}", outcome.summary());
    // The corpus is structure-aware: a meaningful share of mutants must
    // get past the magic check and die deeper in the grammar — and a
    // few survive entirely (that is what makes the campaign reach the
    // chunk-table and codec layers at all).
    assert!(outcome.accepted > 0, "{}", outcome.summary());
    assert!(outcome.rejected > 1500, "{}", outcome.summary());
}
