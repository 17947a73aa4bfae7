//! Golden-container backward compatibility.
//!
//! The byte fixtures under `tests/data/` are frozen: each was produced
//! by the code base of the PR that introduced its wire feature (v1 and
//! v2 before the pluggable-codec refactor, `golden_mix_v3` right after
//! the codec-tagged format landed, and so on), together with the
//! bit-exact reconstruction it decoded to at the time. Every later
//! revision must keep parsing those bytes and reproducing exactly those
//! values — the fixtures pin the wire formats, the codecs, and the
//! legacy reader paths all at once.
//!
//! Only v5 can still be written. The v1–v4 files (`golden_*` and
//! `legacy_*`, see [`CORPUS`]) are what holds the v1–v4 readers, and
//! nothing can regenerate them; the `_v5` files pin the one writer
//! (`cd.to_bytes() == bytes`).
//!
//! Regenerating the v5 files (only when intentionally re-baselining):
//! `cargo test -p tac-bench --test golden_compat -- --ignored --nocapture`

use std::path::PathBuf;
use tac_amr::{Aabb, AmrDataset, AmrLevel};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CodecElement, CodecId,
    CompressedDataset, LevelPayload, Method, MethodBody, Parallelism, Strategy, TacConfig,
    TacDtype,
};
use tac_sz::{ErrorBound, FLAG_LOSSLESS};

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data")
}

/// The fixture dataset: a deterministic three-level AMR snapshot — a
/// blobby fine region (OpST territory), a dense-ish coarse remainder
/// (GSP territory), and an all-empty coarsest level (Empty payload).
fn fixture_dataset() -> AmrDataset {
    let fine_dim = 16;
    let coarse_dim = fine_dim / 2;
    let mut fine = AmrLevel::empty(fine_dim);
    let mut coarse = AmrLevel::empty(coarse_dim);
    let empty = AmrLevel::empty(coarse_dim / 2);
    let c = fine_dim as f64 / 2.0;
    for z in 0..coarse_dim {
        for y in 0..coarse_dim {
            for x in 0..coarse_dim {
                let (fx, fy, fz) = (2 * x, 2 * y, 2 * z);
                let dist =
                    ((fx as f64 - c).powi(2) + (fy as f64 - c).powi(2) + (fz as f64 - c).powi(2))
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
    let ds = AmrDataset::new("golden", vec![fine, coarse, empty]);
    ds.validate().unwrap();
    ds
}

/// The fixture dataset narrowed to `f32` — same geometry, each present
/// value rounded to single precision. Pins the v4 (dtype-tagged) wire.
fn fixture_dataset_f32() -> AmrDataset<f32> {
    let narrow = fixture_dataset().cast::<f32>();
    let ds = AmrDataset::new("golden-f32", narrow.levels().to_vec());
    ds.validate().unwrap();
    ds
}

/// The fixture configuration. Absolute bound so the fixture does not
/// depend on range-resolution behaviour; a tile so the v2 container has
/// several chunks per level.
fn fixture_config() -> TacConfig {
    TacConfig {
        unit: 4,
        error_bound: ErrorBound::Abs(1e-3),
        roi_tile: Some(8),
        ..Default::default()
    }
}

/// Serializes per-level reconstructions: u32 level count, then per
/// level a u64 dim followed by dim^3 bit patterns at `T`'s width, all
/// little-endian.
fn encode_expected<T: CodecElement>(ds: &AmrDataset<T>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend((ds.num_levels() as u32).to_le_bytes());
    for level in ds.levels() {
        out.extend((level.dim() as u64).to_le_bytes());
        for &v in level.data() {
            v.append_le(&mut out);
        }
    }
    out
}

/// Inverse of [`encode_expected`].
fn decode_expected<T: CodecElement>(bytes: &[u8]) -> Vec<(usize, Vec<T>)> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| {
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        s
    };
    let levels = u32::from_le_bytes(take(&mut pos, 4).try_into().unwrap()) as usize;
    (0..levels)
        .map(|_| {
            let dim = u64::from_le_bytes(take(&mut pos, 8).try_into().unwrap()) as usize;
            let data = (0..dim * dim * dim)
                .map(|_| T::read_le(take(&mut pos, T::WIRE_BYTES)).unwrap())
                .collect();
            (dim, data)
        })
        .collect()
}

/// Parses `tests/data/<file>.tacd`, decodes it at `T` and checks every
/// level bit for bit against `tests/data/<expected>.bin`; returns the
/// parsed container.
fn check_decode<T: CodecElement>(file: &str, expected: &str) -> CompressedDataset {
    let dir = data_dir();
    let bytes = std::fs::read(dir.join(format!("{file}.tacd")))
        .unwrap_or_else(|e| panic!("missing fixture {file}.tacd: {e}"));
    let expected =
        decode_expected::<T>(&std::fs::read(dir.join(format!("{expected}.bin"))).unwrap());

    let cd = CompressedDataset::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{file} no longer parses: {e}"));
    assert_eq!(cd.dtype, T::DTYPE, "{file}");
    let out = decompress_dataset_par_t::<T>(&cd, Parallelism::Serial).unwrap();
    assert_eq!(out.num_levels(), expected.len());
    for (l, ((dim, want), level)) in expected.iter().zip(out.levels()).enumerate() {
        assert_eq!(level.dim(), *dim, "{file} level {l} dim");
        assert_eq!(level.data().len(), want.len());
        for (i, (a, b)) in want.iter().zip(level.data()).enumerate() {
            assert_eq!(
                a.to_bits_u64(),
                b.to_bits_u64(),
                "{file} level {l} cell {i}: {a} vs {b}"
            );
        }
    }
    cd
}

/// The f32 pco-ans mixed-codec fixture container: the TAC compression
/// of the f32 fixture dataset with the fine level's streams produced by
/// pco-ans (the tabled-ANS backend) and the coarser levels by SZ. Pins
/// the `TPA1` stream wire — bin tables, lane seed states, renorm words,
/// offset stream — inside the dtype-tagged v4 container.
fn fixture_ans_dataset_f32() -> CompressedDataset {
    let ds = fixture_dataset_f32();
    let sz = compress_dataset_t(&ds, &fixture_config(), Method::Tac).unwrap();
    let ans = compress_dataset_t(
        &ds,
        &TacConfig {
            codec: CodecId::PcoAns,
            ..fixture_config()
        },
        Method::Tac,
    )
    .unwrap();
    let mut mixed = sz;
    let (MethodBody::Tac(levels), MethodBody::Tac(ans_levels)) = (&mut mixed.body, ans.body) else {
        unreachable!("TAC compression produced a non-TAC body");
    };
    levels[0] = ans_levels.into_iter().next().unwrap();
    mixed
}

fn method_stem(method: Method) -> &'static str {
    match method {
        Method::Tac => "golden_tac",
        Method::Baseline1D => "golden_b1d",
        _ => unreachable!("no fixtures for {method:?}"),
    }
}

fn check_golden(method: Method, version: &str) {
    check_golden_stem(method_stem(method), method, version);
}

fn check_golden_stem(stem: &str, method: Method, version: &str) {
    let cd = check_decode::<f64>(&format!("{stem}_{version}"), &format!("{stem}_expected"));
    assert_eq!(cd.method(), method, "{stem}_{version}");
}

#[test]
fn golden_tac_v1_decodes_bit_exactly() {
    check_golden(Method::Tac, "v1");
}

#[test]
fn golden_tac_v2_decodes_bit_exactly() {
    check_golden(Method::Tac, "v2");
}

#[test]
fn golden_baseline1d_v1_decodes_bit_exactly() {
    check_golden(Method::Baseline1D, "v1");
}

#[test]
fn golden_baseline1d_v2_decodes_bit_exactly() {
    check_golden(Method::Baseline1D, "v2");
}

/// The f64 goldens as the v4 writer left them and as today's writer
/// serializes them: the same reconstruction, and `to_bytes()` pinned
/// byte for byte to the v5 file.
#[test]
fn golden_f64_v4_v5_fixtures_decode_bit_exactly_and_v5_pins_the_writer() {
    for method in [Method::Tac, Method::Baseline1D] {
        check_golden(method, "v4");
        check_golden(method, "v5");
        let bytes = corpus_file(method_stem(method), 5);
        let cd = CompressedDataset::from_bytes(&bytes).unwrap();
        assert_eq!(cd.to_bytes(), bytes, "{method:?}");
    }
}

#[test]
fn golden_mix_v3_decodes_bit_exactly() {
    check_golden_stem("golden_mix", Method::Tac, "v3");
}

#[test]
fn golden_mix_v1_decodes_bit_exactly() {
    // The mixed-codec container also has a v1 (monolithic, codec-tagged
    // level payload) encoding — pinned alongside the chunked v3 bytes.
    check_golden_stem("golden_mix", Method::Tac, "v1");
}

fn check_golden_f32(stem: &str, version: &str) {
    check_decode::<f32>(&format!("{stem}_{version}"), &format!("{stem}_expected"));
}

#[test]
fn golden_f32_v4_decodes_bit_exactly() {
    check_golden_f32("golden_f32", "v4");
}

#[test]
fn golden_f32_v5_decodes_bit_exactly() {
    check_golden_f32("golden_f32", "v5");
}

#[test]
fn golden_f32_v1_decodes_bit_exactly() {
    // The f32 container also has a v1 (monolithic) encoding: the level
    // payload tags are self-describing, so even the headerless format
    // recovers the element type.
    check_golden_f32("golden_f32", "v1");
}

/// The v4 fixture really is a v4, f32-tagged container: version byte 4
/// and the f32 dtype tag on the wire, re-serializing it gives its v5
/// sibling, and the f64 decode path must refuse it rather than misread
/// it.
#[test]
fn golden_f32_v4_fixture_is_dtype_tagged() {
    let bytes = std::fs::read(data_dir().join("golden_f32_v4.tacd")).unwrap();
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[4], 4, "fixture is not a v4 container");
    assert_eq!(bytes[6], TacDtype::F32.tag(), "fixture is not tagged f32");
    let cd = CompressedDataset::from_bytes(&bytes).unwrap();
    assert_eq!(cd.to_bytes(), corpus_file("golden_f32", 5));
    assert!(
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).is_err(),
        "f64 decode must refuse"
    );
}

/// The v3 fixture really is a v3, mixed-codec container: version byte 3
/// on the wire, and both codecs present across the parsed levels.
#[test]
fn golden_mix_v3_fixture_is_mixed_codec() {
    let bytes = std::fs::read(data_dir().join("golden_mix_v3.tacd")).unwrap();
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[4], 3, "fixture is not a v3 container");
    let cd = CompressedDataset::from_bytes(&bytes).unwrap();
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("fixture is not a TAC container");
    };
    let codecs: Vec<CodecId> = levels.iter().map(|l| l.codec).collect();
    assert!(codecs.contains(&CodecId::PcoLite), "{codecs:?}");
    assert!(codecs.contains(&CodecId::Sz), "{codecs:?}");
}

#[test]
fn golden_ans_v1_decodes_bit_exactly() {
    // Monolithic (v1) container with a pco-ans fine level: the codec
    // tag travels in the self-describing level payload.
    check_golden_stem("golden_ans", Method::Tac, "v1");
}

/// The v1 ANS fixture really is mixed-codec: both pco-ans and SZ appear
/// across the parsed levels.
#[test]
fn golden_ans_v1_fixture_is_mixed_codec() {
    let bytes = std::fs::read(data_dir().join("golden_ans_v1.tacd")).unwrap();
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[4], 1, "fixture is not a v1 container");
    let cd = CompressedDataset::from_bytes(&bytes).unwrap();
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("fixture is not a TAC container");
    };
    let codecs: Vec<CodecId> = levels.iter().map(|l| l.codec).collect();
    assert!(codecs.contains(&CodecId::PcoAns), "{codecs:?}");
    assert!(codecs.contains(&CodecId::Sz), "{codecs:?}");
}

/// The v4 ANS fixture: a dtype-tagged (f32) chunked container whose
/// fine level is pco-ans. Bit-exact decode against the pinned
/// reconstruction, mixed codecs on the wire, the writer reproduces its
/// v5 sibling, and the f64 decode path refuses the stream.
#[test]
fn golden_ans_v4_decodes_bit_exactly() {
    let bytes = corpus_file("golden_ans", 4);
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[6], TacDtype::F32.tag(), "fixture is not tagged f32");
    let cd = check_decode::<f32>("golden_ans_v4", "golden_ans_f32_expected");
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("fixture is not a TAC container");
    };
    let codecs: Vec<CodecId> = levels.iter().map(|l| l.codec).collect();
    assert!(codecs.contains(&CodecId::PcoAns), "{codecs:?}");
    assert!(codecs.contains(&CodecId::Sz), "{codecs:?}");
    assert_eq!(cd.to_bytes(), corpus_file("golden_ans", 5));
    assert!(
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).is_err(),
        "f64 decode must refuse"
    );
}

/// The first adaptive-selection fixture (v1, f64): the winner
/// `Method::Auto` picked when it was baselined (1D · pco-lite), pinned
/// as ordinary container bytes. Decoding needs no knowledge of the
/// selection. pco-lite has since left the candidate set, so today's
/// selection is pinned by `golden_select_v5` instead
/// ([`golden_select_v5_pins_todays_auto_selection`]).
#[test]
fn golden_auto_v1_decodes_bit_exactly() {
    let cd = check_decode::<f64>("golden_auto_v1", "golden_auto_expected");
    assert_ne!(cd.method(), Method::Auto, "Auto never reaches the wire");
}

/// The f32 flavour of the first adaptively-selected container, as the
/// v4 writer left it; today's writer upgrades it to its v5 sibling.
#[test]
fn golden_auto_v4_decodes_bit_exactly() {
    let bytes = corpus_file("golden_auto", 4);
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[6], TacDtype::F32.tag(), "fixture is not tagged f32");
    let cd = check_decode::<f32>("golden_auto_v4", "golden_auto_f32_expected");
    assert_ne!(cd.method(), Method::Auto, "Auto never reaches the wire");
    assert!(
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).is_err(),
        "f64 decode must refuse"
    );
    assert_eq!(cd.to_bytes(), corpus_file("golden_auto", 5));
}

/// The selection is deterministic across revisions: re-running today's
/// `Method::Auto` on the fixture dataset, at f64 and at f32, reproduces
/// the pinned `golden_select` containers byte for byte, and they decode
/// to their pinned reconstructions.
#[test]
fn golden_select_v5_pins_todays_auto_selection() {
    let cd = check_decode::<f64>("golden_select_v5", "golden_select_expected");
    let again = compress_dataset_t(&fixture_dataset(), &fixture_config(), Method::Auto).unwrap();
    assert_eq!(
        (&again, again.to_bytes()),
        (&cd, corpus_file("golden_select", 5)),
        "today's selection no longer reproduces the pinned container"
    );
    let cd = check_decode::<f32>("golden_select_f32_v5", "golden_select_f32_expected");
    let again =
        compress_dataset_t(&fixture_dataset_f32(), &fixture_config(), Method::Auto).unwrap();
    assert_eq!(
        (&again, again.to_bytes()),
        (&cd, corpus_file("golden_select_f32", 5)),
        "today's selection no longer reproduces the pinned container"
    );
}

/// [`fixture_dataset`] with hash noise of amplitude 0.05 on the fine
/// cells of its upper half, so that some of its pco-lite streams packed
/// under LZSS and some did not.
fn lite_tac_dataset() -> AmrDataset {
    let mut levels = fixture_dataset().levels().to_vec();
    let fine = &mut levels[0];
    let d = fine.dim();
    let upper: Vec<usize> = fine
        .mask()
        .iter_ones()
        .filter(|i| i / d / d >= d / 2)
        .collect();
    for i in upper {
        let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        let noise = (h as f64 / (1u64 << 53) as f64 - 0.5) * 0.1;
        fine.data_mut()[i] += noise;
    }
    let ds = AmrDataset::new("golden-lite", levels);
    ds.validate().unwrap();
    ds
}

/// The two pco-lite fixtures, as `(stem, method, source dataset)`,
/// written by the last pco-lite writer under [`fixture_config`] with
/// `codec: PcoLite` and `roi_tile: Some(4)`. `golden_lite_tac` is the
/// tiled f64 TAC container of [`lite_tac_dataset`] — OpST groups on the
/// fine level, the 8^3 GSP level as two z-slabs — and
/// `golden_lite_zmesh` the zMesh container of the f32 fixture dataset.
/// No code can write them any more: never regenerate them.
fn lite_fixtures() -> [(&'static str, Method, AmrDataset); 2] {
    [
        ("golden_lite_tac", Method::Tac, lite_tac_dataset()),
        ("golden_lite_zmesh", Method::ZMesh, fixture_dataset()),
    ]
}

/// Every codec stream of a TAC or zMesh container, with the strategy of
/// its level (`None` for zMesh).
fn streams(cd: &CompressedDataset) -> Vec<(Option<Strategy>, &[u8])> {
    match &cd.body {
        MethodBody::Tac(levels) => levels
            .iter()
            .flat_map(|l| {
                let streams: Vec<&[u8]> = match &l.payload {
                    LevelPayload::Empty => Vec::new(),
                    LevelPayload::Whole(stream) => vec![stream],
                    LevelPayload::Groups(groups) => groups.iter().map(|g| &g.stream[..]).collect(),
                };
                streams.into_iter().map(|s| (Some(l.strategy), s))
            })
            .collect(),
        MethodBody::ZMesh { segments, .. } => {
            segments.iter().map(|s| (None, &s.stream[..])).collect()
        }
        _ => unreachable!("the pco-lite fixtures are TAC and zMesh containers"),
    }
}

/// The pco-lite fixtures decode bit-exactly, within the bound of the
/// data that was compressed, and reach what they are there for: every
/// stream is pco-lite; the TAC file holds several OpST groups and
/// several GSP slabs; and the LZSS flag is set on some streams and
/// clear on others.
#[test]
fn golden_lite_fixtures_decode_bit_exactly() {
    for (stem, method, ds) in lite_fixtures() {
        let file = format!("{stem}_v5");
        let expected = format!("{stem}_expected");
        let cd = match method {
            Method::Tac => check_decode::<f64>(&file, &expected),
            _ => check_decode::<f32>(&file, &expected),
        };
        let decoded = decode_bits(&cd, Parallelism::Serial);
        assert_eq!(cd.method(), method, "{stem}");
        for (l, level) in ds.levels().iter().enumerate() {
            assert_eq!(&cd.masks[l], level.mask(), "{stem}: level {l}");
            let eb = match &cd.body {
                MethodBody::Tac(levels) => levels[l].abs_eb,
                MethodBody::ZMesh { abs_eb, .. } => *abs_eb,
                _ => unreachable!("{stem}"),
            };
            for i in level.mask().iter_ones() {
                let (want, got) = match cd.dtype {
                    TacDtype::F32 => (
                        f64::from(level.data()[i] as f32),
                        f64::from(f32::from_bits(decoded[l][i] as u32)),
                    ),
                    TacDtype::F64 => (level.data()[i], f64::from_bits(decoded[l][i])),
                };
                assert!((want - got).abs() <= eb, "{stem}: level {l} cell {i}");
            }
        }

        let streams = streams(&cd);
        for (_, stream) in &streams {
            assert_eq!(
                tac_core::sniff_codec(stream),
                Ok(CodecId::PcoLite),
                "{stem}"
            );
        }
        if method == Method::Tac {
            let packed = streams
                .iter()
                .filter(|s| s.1[5] & FLAG_LOSSLESS != 0)
                .count();
            assert!(packed > 0, "{stem}: no LZSS-packed stream");
            assert!(packed < streams.len(), "{stem}: every stream LZSS-packed");
            for strategy in [Strategy::OpST, Strategy::Gsp] {
                let n = streams.iter().filter(|s| s.0 == Some(strategy)).count();
                assert!(n >= 2, "{stem}: {n} {strategy:?} streams");
            }
        }
    }
}

/// A dataset's values as bit patterns, one `Vec` per level.
fn dataset_bits<T: CodecElement>(ds: &AmrDataset<T>) -> Vec<Vec<u64>> {
    let level_bits = |l: &AmrLevel<T>| l.data().iter().map(|v| v.to_bits_u64()).collect();
    ds.levels().iter().map(level_bits).collect()
}

/// Full decode at the container's element type, as [`dataset_bits`].
fn decode_bits(cd: &CompressedDataset, parallelism: Parallelism) -> Vec<Vec<u64>> {
    match cd.dtype {
        TacDtype::F32 => dataset_bits(&decompress_dataset_par_t::<f32>(cd, parallelism).unwrap()),
        TacDtype::F64 => dataset_bits(&decompress_dataset_par_t::<f64>(cd, parallelism).unwrap()),
    }
}

/// Region decode of `bytes` at `dtype`, as [`dataset_bits`].
fn region_bits(dtype: TacDtype, bytes: &[u8], roi: Aabb) -> Vec<Vec<u64>> {
    match dtype {
        TacDtype::F32 => dataset_bits(&decompress_region_t::<f32>(bytes, roi).unwrap().0),
        TacDtype::F64 => dataset_bits(&decompress_region_t::<f64>(bytes, roi).unwrap().0),
    }
}

/// The frozen corpus: per row, the files `<stem>_v<N>.tacd` that hold
/// **one** container, and its accounting: `payload_bytes()` and
/// `total_bytes()` per TAC level as the last revision with a v1–v3
/// writer computed them, `structure_bytes()` as the mask section of the
/// v5 file (mode byte, length prefixes, the finest blob gone where the
/// coarser masks imply it).
///
/// `golden_*` v1–v3 files date from the PRs that introduced each wire
/// feature. `legacy_*` v1–v3 files were written by the last v1 writer
/// and the last version-picking `to_bytes()` before both were deleted,
/// one per reader branch the goldens do not reach: testkit's
/// `deep-column` at seed 1 (its coarsest level is empty) under every
/// method with SZ (v1 + v2) and pco-ans (v1 + v3), its f32 cast under
/// TAC (v1), and a multi-segment zMesh and 1D body (`_seg`: v1's
/// trailing-cuts framing and 1D level tag 3, and v2). `_v4` files are
/// each row's container as the last v4 writer serialized it. **Never
/// regenerate a v1–v4 file**: no code can write one any more, and they
/// are the only thing holding those readers. Every `_v5` file is its
/// row's container as today's writer serializes it. The v5-only
/// `golden_lite_*` rows hold pco-lite streams where the older files
/// hold none: tiled GSP slabs and OpST groups, LZSS-packed and unpacked
/// bodies, and f32 zMesh (see [`lite_fixtures`]).
type CorpusRow = (&'static str, &'static [u8], usize, usize, &'static [usize]);
const CORPUS: &[CorpusRow] = &[
    ("golden_tac", &[1, 2, 4, 5], 2525, 73, &[2110, 397, 18]),
    ("golden_b1d", &[1, 2, 4, 5], 754, 73, &[]),
    ("golden_mix", &[1, 3], 2218, 73, &[1803, 397, 18]),
    ("golden_ans", &[1], 2639, 73, &[2224, 397, 18]),
    ("golden_ans", &[4, 5], 2640, 73, &[2224, 398, 18]),
    ("golden_auto", &[1], 398, 73, &[]),
    ("golden_auto", &[4, 5], 398, 73, &[]),
    ("golden_f32", &[1, 4, 5], 2527, 73, &[2111, 398, 18]),
    ("golden_lite_tac", &[5], 2912, 73, &[2446, 448, 18]),
    ("golden_lite_zmesh", &[5], 876, 73, &[]),
    ("golden_select", &[5], 754, 73, &[]),
    ("golden_select_f32", &[5], 650, 73, &[]),
    (
        "legacy_tac_sz",
        &[1, 2, 4, 5],
        1206,
        103,
        &[556, 285, 217, 130, 18],
    ),
    (
        "legacy_tac_ans",
        &[1, 3, 4, 5],
        995,
        103,
        &[459, 226, 179, 113, 18],
    ),
    ("legacy_b1d_sz", &[1, 2, 4, 5], 445, 103, &[]),
    ("legacy_b1d_ans", &[1, 3, 4, 5], 448, 103, &[]),
    ("legacy_zmesh_sz", &[1, 2, 4, 5], 251, 103, &[]),
    ("legacy_zmesh_ans", &[1, 3, 4, 5], 201, 103, &[]),
    ("legacy_b3d_sz", &[1, 2, 4, 5], 486, 103, &[]),
    ("legacy_b3d_ans", &[1, 3, 4, 5], 1235, 103, &[]),
    (
        "legacy_tac_f32",
        &[1, 4, 5],
        1210,
        103,
        &[557, 286, 218, 131, 18],
    ),
    ("legacy_zmesh_seg", &[1, 2, 4, 5], 591, 28, &[]),
    ("legacy_b1d_seg", &[1, 2, 4, 5], 745, 28, &[]),
];

fn corpus_file(stem: &str, version: u8) -> Vec<u8> {
    let name = format!("{stem}_v{version}.tacd");
    let bytes = std::fs::read(data_dir().join(&name))
        .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
    assert_eq!(bytes[4], version, "{name} is not a v{version} container");
    bytes
}

/// Every frozen container keeps parsing; all versions of a row parse to
/// the same `CompressedDataset`, account to the recorded byte counts and
/// decode bit-identically at 1, 2 and 4 workers; and re-serializing any of
/// them **upgrades** it: version byte 5, equal to the committed `_v5`
/// sibling, re-parsing to the same container. Region reads of every
/// file, v1 included, and of the upgrade return the full decode inside
/// the box and `+0.0` outside.
#[test]
fn frozen_corpus_parses_decodes_and_upgrades_identically() {
    let mut files = 0;
    for &(stem, versions, payload_bytes, structure_bytes, level_bytes) in CORPUS {
        let first = corpus_file(stem, versions[0]);
        let cd = CompressedDataset::from_bytes(&first)
            .unwrap_or_else(|e| panic!("{stem}_v{} no longer parses: {e}", versions[0]));
        assert_eq!(cd.payload_bytes(), payload_bytes, "{stem}");
        assert_eq!(cd.structure_bytes(), structure_bytes, "{stem}");
        let levels = match &cd.body {
            MethodBody::Tac(levels) => levels.iter().map(|l| l.total_bytes()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(levels, level_bytes, "{stem}");
        // `deep-column`'s coarsest level is genuinely empty: wire kind 0
        // over an empty mask stays legal (over present cells it is not).
        if let (true, MethodBody::Tac(levels)) = (stem.starts_with("legacy_tac"), &cd.body) {
            let coarsest = levels.last().map(|l| &l.payload);
            assert_eq!(coarsest, Some(&LevelPayload::Empty), "{stem}");
        }

        let decoded = decode_bits(&cd, Parallelism::Serial);
        let upgraded = cd.to_bytes();
        assert_eq!(upgraded[4], 5, "{stem}");
        for &version in versions {
            let what = format!("{stem}_v{version}");
            let bytes = corpus_file(stem, version);
            let parsed = CompressedDataset::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{what} no longer parses: {e}"));
            assert_eq!(parsed, cd, "{what}");
            for parallelism in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(4),
            ] {
                assert_eq!(decode_bits(&parsed, parallelism), decoded, "{what}");
            }
            assert_eq!(parsed.to_bytes(), upgraded, "{what}: upgrade");
            if version == 5 {
                assert_eq!(bytes, upgraded, "{what} is not what the writer emits");
            }
            files += 1;
        }
        assert_eq!(
            CompressedDataset::from_bytes(&upgraded).unwrap(),
            cd,
            "{stem}"
        );

        // Region reads of every file, v1 included, and of the upgrade
        // keep the box contract: the full decode inside the box, `+0.0`
        // bits outside.
        let dim = cd.finest_dim;
        let files: Vec<Vec<u8>> = versions.iter().map(|&v| corpus_file(stem, v)).collect();
        for bytes in files.iter().chain([&upgraded]) {
            for roi in [
                Aabb::new((0, 0, 0), (dim / 2, dim / 2, dim / 2)),
                Aabb::new((dim / 4, dim / 4, 1), (dim / 4 + dim / 2, dim, dim - 1)),
            ] {
                let partial = region_bits(cd.dtype, bytes, roi);
                for (l, (p, f)) in partial.iter().zip(&decoded).enumerate() {
                    let (inside, d) = (roi.coarsen(1 << l), dim >> l);
                    for (i, (a, b)) in p.iter().zip(f).enumerate() {
                        let want = if inside.contains(i % d, i / d % d, i / d / d) {
                            *b
                        } else {
                            0
                        };
                        assert_eq!(
                            *a, want,
                            "{stem} v{}: level {l} cell {i} in {roi:?}",
                            bytes[4]
                        );
                    }
                }
            }
        }
    }
    // The table names every container on disk.
    let on_disk = std::fs::read_dir(data_dir())
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "tacd")
        })
        .count();
    assert_eq!(files, on_disk, "a .tacd fixture is missing from CORPUS");
}

/// The `legacy_*` deep-column files hold real reconstructions, not just
/// self-consistent ones: every version of every method and codec decodes
/// to within the resolved bound of the scenario that was compressed.
#[test]
fn legacy_deep_column_files_decode_within_the_bound() {
    let spec = tac_testkit::scenario("deep-column").unwrap();
    let ds = spec.build(1);
    for &(stem, versions, ..) in CORPUS {
        if !stem.starts_with("legacy_") || stem.ends_with("_seg") {
            continue;
        }
        for &version in versions {
            let cd = CompressedDataset::from_bytes(&corpus_file(stem, version)).unwrap();
            let bounds: Vec<f64> = match &cd.body {
                MethodBody::Tac(levels) => levels.iter().map(|l| l.abs_eb).collect(),
                MethodBody::Baseline1D(levels) => levels
                    .iter()
                    .map(|l| l.as_ref().map_or(0.0, |(eb, _, _)| *eb))
                    .collect(),
                MethodBody::ZMesh { abs_eb, .. } | MethodBody::Baseline3D { abs_eb, .. } => {
                    vec![*abs_eb; cd.num_levels()]
                }
            };
            let decoded = decode_bits(&cd, Parallelism::Serial);
            for (l, level) in ds.levels().iter().enumerate() {
                assert_eq!(&cd.masks[l], level.mask(), "{stem}_v{version}: level {l}");
                for i in level.mask().iter_ones() {
                    // f32 files coded the f32 cast of the scenario.
                    let (want, got) = match cd.dtype {
                        TacDtype::F32 => (
                            f64::from(level.data()[i] as f32),
                            f64::from(f32::from_bits(decoded[l][i] as u32)),
                        ),
                        TacDtype::F64 => (level.data()[i], f64::from_bits(decoded[l][i])),
                    };
                    let err = (want - got).abs();
                    assert!(
                        err <= bounds[l] * (1.0 + 1e-9),
                        "{stem}_v{version}: level {l} cell {i} off by {err}"
                    );
                }
            }
        }
    }
}

/// One writer, one version: whatever the method, codec and element
/// type, `to_bytes()` emits v5 and the bytes parse back to the same
/// container.
#[test]
fn every_method_codec_and_dtype_serializes_as_v5() {
    fn check<T: CodecElement>(ds: &AmrDataset<T>) {
        for method in Method::fixed() {
            for codec in CodecId::all() {
                let cfg = TacConfig {
                    codec,
                    ..fixture_config()
                };
                let cd = compress_dataset_t(ds, &cfg, method).unwrap();
                let bytes = cd.to_bytes();
                assert_eq!(bytes[4], 5, "{method:?}/{codec}/{}", T::DTYPE);
                assert_eq!(bytes[6], T::DTYPE.tag(), "{method:?}/{codec}");
                let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
                assert_eq!(parsed, cd, "{method:?}/{codec}/{}", T::DTYPE);
            }
        }
    }
    check(&fixture_dataset());
    check(&fixture_dataset_f32());
}

/// Rewrites every `_v5` file in [`CORPUS`] as the upgrade of its frozen
/// sibling: parse the legacy bytes, serialize with today's writer.
/// Deliberately `#[ignore]`d: the committed files are the evidence that
/// the writer has not moved.
#[test]
#[ignore = "rewrites the v5 siblings of the frozen corpus; run only to intentionally re-baseline"]
fn regenerate_upgraded_v5_fixtures() {
    for &(stem, versions, ..) in CORPUS {
        if let [legacy, .., 5] = *versions {
            let cd = CompressedDataset::from_bytes(&corpus_file(stem, legacy)).unwrap();
            std::fs::write(data_dir().join(format!("{stem}_v5.tacd")), cd.to_bytes()).unwrap();
            println!("wrote {stem}_v5.tacd from {stem}_v{legacy}.tacd");
        }
    }
}

/// Writes only the f32 pco-ans mixed-codec fixture (`golden_ans_v5`) with
/// its bit-exact expected reconstruction. Separate from the other
/// regenerators so re-baselining the ANS wire never silently rewrites
/// the other fixtures (and vice versa).
#[test]
#[ignore = "regenerates the pco-ans v5 golden fixture; run only to intentionally re-baseline"]
fn regenerate_golden_ans_fixtures() {
    let dir = data_dir();
    let mixed32 = fixture_ans_dataset_f32();
    std::fs::write(dir.join("golden_ans_v5.tacd"), mixed32.to_bytes()).unwrap();
    let recon32 = decompress_dataset_par_t::<f32>(&mixed32, Parallelism::Serial).unwrap();
    std::fs::write(
        dir.join("golden_ans_f32_expected.bin"),
        encode_expected(&recon32),
    )
    .unwrap();
    println!("wrote golden_ans_v5 fixtures to {}", dir.display());
}

/// Writes only the adaptive-selection fixtures (`golden_select_v5`,
/// f64, and `golden_select_f32_v5`) with their bit-exact expected
/// reconstructions. Separate for the same reason as the ANS
/// regenerator.
#[test]
#[ignore = "regenerates the auto-selection v5 golden fixtures; run only to intentionally re-baseline"]
fn regenerate_golden_auto_fixtures() {
    let dir = data_dir();
    let cd = compress_dataset_t(&fixture_dataset(), &fixture_config(), Method::Auto).unwrap();
    std::fs::write(dir.join("golden_select_v5.tacd"), cd.to_bytes()).unwrap();
    let recon = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    std::fs::write(
        dir.join("golden_select_expected.bin"),
        encode_expected(&recon),
    )
    .unwrap();
    let cd32 = compress_dataset_t(&fixture_dataset_f32(), &fixture_config(), Method::Auto).unwrap();
    std::fs::write(dir.join("golden_select_f32_v5.tacd"), cd32.to_bytes()).unwrap();
    let recon32 = decompress_dataset_par_t::<f32>(&cd32, Parallelism::Serial).unwrap();
    std::fs::write(
        dir.join("golden_select_f32_expected.bin"),
        encode_expected(&recon32),
    )
    .unwrap();
    println!("wrote golden_select v5 fixtures to {}", dir.display());
}
