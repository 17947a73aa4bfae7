//! Golden-container backward compatibility.
//!
//! The byte fixtures under `tests/data/` were produced by the code base
//! *before* the pluggable-codec refactor (PR 3): v1 (monolithic) and v2
//! (chunked) containers for the TAC method and the 1D baseline, plus the
//! bit-exact reconstruction each one decoded to at the time. Every later
//! revision must keep parsing those bytes and reproducing exactly those
//! values — the fixtures pin the wire format, the SZ codec, and the
//! legacy default-codec paths all at once.
//!
//! The `golden_mix_v3` fixture pins the v3 (codec-tagged) format the
//! same way: a TAC container whose fine level is pco-lite-compressed
//! while the rest stays on SZ, serialized right after the format landed.
//!
//! Regenerating (only when intentionally breaking compatibility):
//! `cargo test -p tac-bench --test golden_compat -- --ignored --nocapture`

use std::path::PathBuf;
use tac_amr::{AmrDataset, AmrLevel};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, CodecId, CompressedDataset, Method, MethodBody,
    Parallelism, TacConfig, TacDtype,
};
use tac_sz::ErrorBound;

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

/// Serializes per-level reconstructions: u32 level count, then per level
/// a u64 dim followed by dim^3 f64 bit patterns, all little-endian.
fn encode_expected(ds: &AmrDataset) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend((ds.num_levels() as u32).to_le_bytes());
    for level in ds.levels() {
        out.extend((level.dim() as u64).to_le_bytes());
        for &v in level.data() {
            out.extend(v.to_bits().to_le_bytes());
        }
    }
    out
}

/// f32 flavour of [`encode_expected`]: u32 level count, then per level a
/// u64 dim followed by dim^3 f32 bit patterns, all little-endian.
fn encode_expected_f32(ds: &AmrDataset<f32>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend((ds.num_levels() as u32).to_le_bytes());
    for level in ds.levels() {
        out.extend((level.dim() as u64).to_le_bytes());
        for &v in level.data() {
            out.extend(v.to_bits().to_le_bytes());
        }
    }
    out
}

fn decode_expected_f32(bytes: &[u8]) -> Vec<(usize, Vec<f32>)> {
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
                .map(|_| f32::from_bits(u32::from_le_bytes(take(&mut pos, 4).try_into().unwrap())))
                .collect();
            (dim, data)
        })
        .collect()
}

fn decode_expected(bytes: &[u8]) -> Vec<(usize, Vec<f64>)> {
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
                .map(|_| f64::from_bits(u64::from_le_bytes(take(&mut pos, 8).try_into().unwrap())))
                .collect();
            (dim, data)
        })
        .collect()
}

/// The mixed-codec fixture container: the TAC compression of the fixture
/// dataset with the fine level's streams produced by pco-lite and the
/// coarser levels by SZ. `to_bytes()` must promote such a container to
/// v3 — the per-level/per-chunk codec-tagged format this fixture pins.
fn fixture_mixed_dataset() -> CompressedDataset {
    let ds = fixture_dataset();
    let sz = compress_dataset_t(&ds, &fixture_config(), Method::Tac).unwrap();
    let pco = compress_dataset_t(
        &ds,
        &TacConfig {
            codec: CodecId::PcoLite,
            ..fixture_config()
        },
        Method::Tac,
    )
    .unwrap();
    let mut mixed = sz;
    let (MethodBody::Tac(levels), MethodBody::Tac(pco_levels)) = (&mut mixed.body, pco.body) else {
        unreachable!("TAC compression produced a non-TAC body");
    };
    levels[0] = pco_levels.into_iter().next().unwrap();
    mixed
}

/// The PcoAns mixed-codec fixture container: the fine level's streams
/// produced by pco-ans (the tabled-ANS backend) and the coarser levels
/// by SZ. Pins the `TPA1` stream wire — bin tables, lane seed states,
/// renorm words, offset stream — inside both container generations.
fn fixture_ans_dataset() -> CompressedDataset {
    let ds = fixture_dataset();
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

/// The f32 flavour of [`fixture_ans_dataset`], whose chunked encoding
/// promotes to the dtype-tagged v4 container.
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
    let dir = data_dir();
    let bytes = std::fs::read(dir.join(format!("{stem}_{version}.tacd")))
        .unwrap_or_else(|e| panic!("missing fixture {stem}_{version}.tacd: {e}"));
    let expected_bytes = std::fs::read(dir.join(format!("{stem}_expected.bin"))).unwrap();
    let expected = decode_expected(&expected_bytes);

    let cd = CompressedDataset::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{stem}_{version} no longer parses: {e}"));
    assert_eq!(cd.method(), method);
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    assert_eq!(out.num_levels(), expected.len());
    for (l, ((dim, want), level)) in expected.iter().zip(out.levels()).enumerate() {
        assert_eq!(level.dim(), *dim, "level {l} dim");
        assert_eq!(level.data().len(), want.len());
        for (i, (a, b)) in want.iter().zip(level.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{stem}_{version} level {l} cell {i}: {a} vs {b}"
            );
        }
    }
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
    let dir = data_dir();
    let bytes = std::fs::read(dir.join(format!("{stem}_{version}.tacd")))
        .unwrap_or_else(|e| panic!("missing fixture {stem}_{version}.tacd: {e}"));
    let expected_bytes = std::fs::read(dir.join(format!("{stem}_expected.bin"))).unwrap();
    let expected = decode_expected_f32(&expected_bytes);

    let cd = CompressedDataset::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{stem}_{version} no longer parses: {e}"));
    assert_eq!(cd.dtype, TacDtype::F32);
    let out = decompress_dataset_par_t::<f32>(&cd, Parallelism::Serial).unwrap();
    assert_eq!(out.num_levels(), expected.len());
    for (l, ((dim, want), level)) in expected.iter().zip(out.levels()).enumerate() {
        assert_eq!(level.dim(), *dim, "level {l} dim");
        assert_eq!(level.data().len(), want.len());
        for (i, (a, b)) in want.iter().zip(level.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{stem}_{version} level {l} cell {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn golden_f32_v4_decodes_bit_exactly() {
    check_golden_f32("golden_f32", "v4");
}

#[test]
fn golden_f32_v1_decodes_bit_exactly() {
    // The f32 container also has a v1 (monolithic) encoding: the level
    // payload tags are self-describing, so even the headerless format
    // recovers the element type.
    check_golden_f32("golden_f32", "v1");
}

/// The v4 fixture really is a v4, f32-tagged container: version byte 4
/// and the f32 dtype tag on the wire, writer pinned via re-serialization,
/// and the f64 decode path must refuse it rather than misread it.
#[test]
fn golden_f32_v4_fixture_is_dtype_tagged() {
    let bytes = std::fs::read(data_dir().join("golden_f32_v4.tacd")).unwrap();
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[4], 4, "fixture is not a v4 container");
    assert_eq!(bytes[6], TacDtype::F32.tag(), "fixture is not tagged f32");
    let cd = CompressedDataset::from_bytes(&bytes).unwrap();
    assert_eq!(cd.to_bytes(), bytes);
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
    // Re-serializing the parsed container reproduces the fixture bytes:
    // the writer, not just the reader, is pinned.
    assert_eq!(cd.to_bytes(), bytes);
}

#[test]
fn golden_ans_v1_decodes_bit_exactly() {
    // Monolithic (v1) container with a pco-ans fine level: the codec
    // tag travels in the self-describing level payload.
    check_golden_stem("golden_ans", Method::Tac, "v1");
}

/// The v1 ANS fixture really is mixed-codec: both pco-ans and SZ appear
/// across the parsed levels, and the writer reproduces the bytes.
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
    assert_eq!(cd.to_bytes_v1(), bytes);
}

/// The v4 ANS fixture: a dtype-tagged (f32) chunked container whose
/// fine level is pco-ans. Bit-exact decode against the pinned
/// reconstruction, mixed codecs on the wire, writer reproduces the
/// bytes, and the f64 decode path refuses the stream.
#[test]
fn golden_ans_v4_decodes_bit_exactly() {
    let dir = data_dir();
    let bytes = std::fs::read(dir.join("golden_ans_v4.tacd"))
        .unwrap_or_else(|e| panic!("missing fixture golden_ans_v4.tacd: {e}"));
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[4], 4, "fixture is not a v4 container");
    assert_eq!(bytes[6], TacDtype::F32.tag(), "fixture is not tagged f32");
    let expected =
        decode_expected_f32(&std::fs::read(dir.join("golden_ans_f32_expected.bin")).unwrap());

    let cd = CompressedDataset::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("golden_ans_v4 no longer parses: {e}"));
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("fixture is not a TAC container");
    };
    let codecs: Vec<CodecId> = levels.iter().map(|l| l.codec).collect();
    assert!(codecs.contains(&CodecId::PcoAns), "{codecs:?}");
    assert!(codecs.contains(&CodecId::Sz), "{codecs:?}");
    assert_eq!(cd.to_bytes(), bytes);
    assert!(
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).is_err(),
        "f64 decode must refuse"
    );

    let out = decompress_dataset_par_t::<f32>(&cd, Parallelism::Serial).unwrap();
    assert_eq!(out.num_levels(), expected.len());
    for (l, ((dim, want), level)) in expected.iter().zip(out.levels()).enumerate() {
        assert_eq!(level.dim(), *dim, "level {l} dim");
        assert_eq!(level.data().len(), want.len());
        for (i, (a, b)) in want.iter().zip(level.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "golden_ans_v4 level {l} cell {i}: {a} vs {b}"
            );
        }
    }
}

/// The adaptive-selection fixture (v1, f64): whatever winner
/// `Method::Auto` picked when the fixture was baselined, pinned as
/// ordinary container bytes. Decoding needs no knowledge of the
/// selection — and re-running today's selection must reproduce the
/// pinned bytes, so the determinism contract is itself under pin.
#[test]
fn golden_auto_v1_decodes_bit_exactly() {
    let dir = data_dir();
    let bytes = std::fs::read(dir.join("golden_auto_v1.tacd"))
        .unwrap_or_else(|e| panic!("missing fixture golden_auto_v1.tacd: {e}"));
    let expected = decode_expected(&std::fs::read(dir.join("golden_auto_expected.bin")).unwrap());

    let cd = CompressedDataset::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("golden_auto_v1 no longer parses: {e}"));
    assert_ne!(cd.method(), Method::Auto, "Auto never reaches the wire");
    assert_eq!(cd.to_bytes_v1(), bytes);
    let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    assert_eq!(out.num_levels(), expected.len());
    for (l, ((dim, want), level)) in expected.iter().zip(out.levels()).enumerate() {
        assert_eq!(level.dim(), *dim, "level {l} dim");
        for (i, (a, b)) in want.iter().zip(level.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "golden_auto_v1 level {l} cell {i}: {a} vs {b}"
            );
        }
    }
    // The selection itself is deterministic across revisions.
    let again = compress_dataset_t(&fixture_dataset(), &fixture_config(), Method::Auto).unwrap();
    assert_eq!(
        again.to_bytes_v1(),
        bytes,
        "today's selection no longer reproduces the pinned container"
    );
}

/// The f32 flavour: the adaptively-selected container promotes to the
/// dtype-tagged v4 wire like any fixed-method f32 container.
#[test]
fn golden_auto_v4_decodes_bit_exactly() {
    let dir = data_dir();
    let bytes = std::fs::read(dir.join("golden_auto_v4.tacd"))
        .unwrap_or_else(|e| panic!("missing fixture golden_auto_v4.tacd: {e}"));
    assert_eq!(&bytes[..4], b"TACD");
    assert_eq!(bytes[4], 4, "fixture is not a v4 container");
    assert_eq!(bytes[6], TacDtype::F32.tag(), "fixture is not tagged f32");
    let expected =
        decode_expected_f32(&std::fs::read(dir.join("golden_auto_f32_expected.bin")).unwrap());

    let cd = CompressedDataset::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("golden_auto_v4 no longer parses: {e}"));
    assert_ne!(cd.method(), Method::Auto, "Auto never reaches the wire");
    assert_eq!(cd.to_bytes(), bytes);
    assert!(
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).is_err(),
        "f64 decode must refuse"
    );
    let out = decompress_dataset_par_t::<f32>(&cd, Parallelism::Serial).unwrap();
    assert_eq!(out.num_levels(), expected.len());
    for (l, ((dim, want), level)) in expected.iter().zip(out.levels()).enumerate() {
        assert_eq!(level.dim(), *dim, "level {l} dim");
        for (i, (a, b)) in want.iter().zip(level.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "golden_auto_v4 level {l} cell {i}: {a} vs {b}"
            );
        }
    }
    let again =
        compress_dataset_t(&fixture_dataset_f32(), &fixture_config(), Method::Auto).unwrap();
    assert_eq!(
        again.to_bytes(),
        bytes,
        "today's selection no longer reproduces the pinned container"
    );
}

/// Writes the fixtures from whatever code base is currently checked out.
/// Deliberately `#[ignore]`d: running it against a revision with a
/// different wire format would erase the evidence the tests above exist
/// to preserve.
#[test]
#[ignore = "regenerates the golden fixtures; run only to intentionally re-baseline"]
fn regenerate_golden_fixtures() {
    let ds = fixture_dataset();
    let cfg = fixture_config();
    let dir = data_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for method in [Method::Tac, Method::Baseline1D] {
        let stem = method_stem(method);
        let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
        std::fs::write(dir.join(format!("{stem}_v1.tacd")), cd.to_bytes_v1()).unwrap();
        std::fs::write(dir.join(format!("{stem}_v2.tacd")), cd.to_bytes()).unwrap();
        let recon = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        std::fs::write(
            dir.join(format!("{stem}_expected.bin")),
            encode_expected(&recon),
        )
        .unwrap();
        println!("wrote {stem} fixtures to {}", dir.display());
    }
}

/// Writes only the mixed-codec v3 fixtures. Separate from
/// [`regenerate_golden_fixtures`] so re-baselining the v3 format never
/// silently rewrites the pre-refactor v1/v2 bytes (and vice versa).
#[test]
#[ignore = "regenerates the v3 golden fixtures; run only to intentionally re-baseline"]
fn regenerate_golden_v3_fixtures() {
    let mixed = fixture_mixed_dataset();
    let bytes = mixed.to_bytes();
    assert_eq!(bytes[4], 3, "mixed container did not promote to v3");
    let dir = data_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("golden_mix_v3.tacd"), &bytes).unwrap();
    std::fs::write(dir.join("golden_mix_v1.tacd"), mixed.to_bytes_v1()).unwrap();
    let recon = decompress_dataset_par_t::<f64>(&mixed, Parallelism::Serial).unwrap();
    std::fs::write(dir.join("golden_mix_expected.bin"), encode_expected(&recon)).unwrap();
    println!("wrote golden_mix fixtures to {}", dir.display());
}

/// Writes only the PcoAns mixed-codec fixtures (`golden_ans_v1` — f64,
/// monolithic — and `golden_ans_v4` — f32, dtype-tagged chunked), each
/// with its bit-exact expected reconstruction. Separate from the other
/// regenerators so re-baselining the ANS wire never silently rewrites
/// the pre-ANS fixtures (and vice versa).
#[test]
#[ignore = "regenerates the pco-ans golden fixtures; run only to intentionally re-baseline"]
fn regenerate_golden_ans_fixtures() {
    let dir = data_dir();
    std::fs::create_dir_all(&dir).unwrap();

    let mixed = fixture_ans_dataset();
    std::fs::write(dir.join("golden_ans_v1.tacd"), mixed.to_bytes_v1()).unwrap();
    let recon = decompress_dataset_par_t::<f64>(&mixed, Parallelism::Serial).unwrap();
    std::fs::write(dir.join("golden_ans_expected.bin"), encode_expected(&recon)).unwrap();

    let mixed32 = fixture_ans_dataset_f32();
    let bytes = mixed32.to_bytes();
    assert_eq!(bytes[4], 4, "f32 container did not promote to v4");
    std::fs::write(dir.join("golden_ans_v4.tacd"), &bytes).unwrap();
    let recon32 = decompress_dataset_par_t::<f32>(&mixed32, Parallelism::Serial).unwrap();
    std::fs::write(
        dir.join("golden_ans_f32_expected.bin"),
        encode_expected_f32(&recon32),
    )
    .unwrap();
    println!("wrote golden_ans fixtures to {}", dir.display());
}

/// Writes only the adaptive-selection fixtures (`golden_auto_v1` — f64,
/// monolithic — and `golden_auto_v4` — f32, dtype-tagged chunked), each
/// with its bit-exact expected reconstruction. Separate from the other
/// regenerators so re-baselining the selection pass never silently
/// rewrites the fixed-method fixtures (and vice versa).
#[test]
#[ignore = "regenerates the auto-selection golden fixtures; run only to intentionally re-baseline"]
fn regenerate_golden_auto_fixtures() {
    let dir = data_dir();
    std::fs::create_dir_all(&dir).unwrap();

    let cd = compress_dataset_t(&fixture_dataset(), &fixture_config(), Method::Auto).unwrap();
    std::fs::write(dir.join("golden_auto_v1.tacd"), cd.to_bytes_v1()).unwrap();
    let recon = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    std::fs::write(
        dir.join("golden_auto_expected.bin"),
        encode_expected(&recon),
    )
    .unwrap();

    let cd32 = compress_dataset_t(&fixture_dataset_f32(), &fixture_config(), Method::Auto).unwrap();
    let bytes = cd32.to_bytes();
    assert_eq!(bytes[4], 4, "f32 container did not promote to v4");
    std::fs::write(dir.join("golden_auto_v4.tacd"), &bytes).unwrap();
    let recon32 = decompress_dataset_par_t::<f32>(&cd32, Parallelism::Serial).unwrap();
    std::fs::write(
        dir.join("golden_auto_f32_expected.bin"),
        encode_expected_f32(&recon32),
    )
    .unwrap();
    println!("wrote golden_auto fixtures to {}", dir.display());
}

/// Writes only the f32/v4 fixtures. Separate for the same reason as the
/// v3 regenerator: re-baselining the dtype-tagged format must never
/// silently rewrite the older fixtures.
#[test]
#[ignore = "regenerates the v4 golden fixtures; run only to intentionally re-baseline"]
fn regenerate_golden_v4_fixtures() {
    let ds = fixture_dataset_f32();
    let cd = compress_dataset_t(&ds, &fixture_config(), Method::Tac).unwrap();
    let bytes = cd.to_bytes();
    assert_eq!(bytes[4], 4, "f32 container did not promote to v4");
    let dir = data_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("golden_f32_v4.tacd"), &bytes).unwrap();
    std::fs::write(dir.join("golden_f32_v1.tacd"), cd.to_bytes_v1()).unwrap();
    let recon = decompress_dataset_par_t::<f32>(&cd, Parallelism::Serial).unwrap();
    std::fs::write(
        dir.join("golden_f32_expected.bin"),
        encode_expected_f32(&recon),
    )
    .unwrap();
    println!("wrote golden_f32 fixtures to {}", dir.display());
}
