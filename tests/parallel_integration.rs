//! Cross-crate integration for the block-sharded parallel engine and
//! the chunked container: determinism across worker counts for
//! every method x codec combination, parallel decompression
//! consistency, byte-counted region-of-interest decoding, and
//! codec-tag corruption handling.

use tac_amr::{paste_region, Aabb, AmrDataset};
use tac_core::ErrorBound;
use tac_core::{
    codec_for, compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CodecConfig,
    CodecElement, CodecError, CodecId, CompressedDataset, LevelPayload, Method, MethodBody,
    Parallelism, Strategy, TacConfig, TacError,
};
use tac_nyx::{entry, FieldKind};

fn small_z10() -> AmrDataset {
    entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 16, 7) // 32^3 fine level
}

fn cfg_with(threads: usize) -> TacConfig {
    TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-3),
        parallelism: Parallelism::Threads(threads),
        ..Default::default()
    }
}

fn cfg_codec(threads: usize, codec: CodecId) -> TacConfig {
    TacConfig {
        codec,
        ..cfg_with(threads)
    }
}

/// The acceptance bar for the engine: for all four methods under both
/// scalar-codec backends, the serialized container is byte-identical at
/// 1, 2, 4, and 8 worker threads.
#[test]
fn parallel_output_is_byte_identical_for_all_methods_and_codecs() {
    let ds = small_z10();
    for codec in CodecId::all() {
        for method in [
            Method::Tac,
            Method::Baseline1D,
            Method::ZMesh,
            Method::Baseline3D,
        ] {
            let reference = compress_dataset_t(&ds, &cfg_codec(1, codec), method)
                .unwrap()
                .to_bytes();
            for threads in [2, 4, 8] {
                let bytes = compress_dataset_t(&ds, &cfg_codec(threads, codec), method)
                    .unwrap()
                    .to_bytes();
                assert_eq!(
                    bytes, reference,
                    "{method:?}/{codec} differs at {threads} threads from serial"
                );
            }
        }
    }
}

/// The same bar where the single-stream methods are cut into several
/// segments (a 64^3 dataset, past the 64 Ki-value budget): bytes are
/// identical at 1, 2, 4 and 8 workers — the cuts depend on the masks
/// alone — and so is every decoded bit, segments decoding as tasks.
#[test]
fn multi_segment_containers_are_identical_at_every_worker_count() {
    let ds = entry("Run1_Z5")
        .unwrap()
        .generate(FieldKind::VelocityX, 8, 7);
    assert_eq!(ds.finest_dim(), 64);
    let segments = |cd: &CompressedDataset| match &cd.body {
        MethodBody::ZMesh { segments, .. } => segments.len(),
        MethodBody::Baseline1D(levels) => levels.iter().flatten().map(|l| l.2.len()).sum(),
        _ => 0,
    };
    let bits = |ds: &AmrDataset| -> Vec<Vec<u64>> {
        ds.levels()
            .iter()
            .map(|l| l.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    for codec in CodecId::all() {
        for method in [Method::ZMesh, Method::Baseline1D, Method::Auto] {
            let reference = compress_dataset_t(&ds, &cfg_codec(1, codec), method).unwrap();
            if method != Method::Auto {
                assert!(segments(&reference) > ds.num_levels(), "{method:?}/{codec}");
            }
            let bytes = reference.to_bytes();
            let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
            assert_eq!(parsed, reference, "{method:?}/{codec}");
            let decoded = bits(&decompress_dataset_par_t(&parsed, Parallelism::Serial).unwrap());
            for threads in [2, 4, 8] {
                let cd = compress_dataset_t(&ds, &cfg_codec(threads, codec), method).unwrap();
                assert_eq!(
                    cd.to_bytes(),
                    bytes,
                    "{method:?}/{codec} differs at {threads} threads from serial"
                );
                let out = decompress_dataset_par_t(&parsed, Parallelism::Threads(threads)).unwrap();
                assert_eq!(
                    bits(&out),
                    decoded,
                    "{method:?}/{codec} at {threads} threads"
                );
            }
        }
    }
}

/// Every codec honours the error bound end to end, for every method,
/// through the serialized container.
#[test]
fn method_codec_matrix_respects_error_bound() {
    let ds = small_z10();
    // The per-level methods (TAC, 1D) resolve the relative bound
    // against each level's own range; the monolithic methods (zMesh,
    // 3D) resolve it against the global range of the merged stream.
    let (gmin, gmax) = ds
        .levels()
        .iter()
        .filter_map(|l| l.value_range())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (a, b)| {
            (lo.min(a), hi.max(b))
        });
    for codec in CodecId::all() {
        let cfg = cfg_codec(2, codec);
        for method in [
            Method::Tac,
            Method::Baseline1D,
            Method::ZMesh,
            Method::Baseline3D,
        ] {
            let per_level = matches!(method, Method::Tac | Method::Baseline1D);
            let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
            let bytes = cd.to_bytes();
            let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
            assert_eq!(parsed, cd, "{method:?}/{codec}");
            let out = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap();
            for (l, (a, b)) in ds.levels().iter().zip(out.levels()).enumerate() {
                let Some((min, max)) = a.value_range() else {
                    continue;
                };
                let range = if per_level { max - min } else { gmax - gmin };
                let eb = 1e-3 * range;
                for i in a.mask().iter_ones() {
                    assert!(
                        (a.data()[i] - b.data()[i]).abs() <= eb * (1.0 + 1e-9),
                        "{method:?}/{codec} level {l} cell {i}"
                    );
                }
            }
        }
    }
}

/// A wire codec tag that contradicts the actual streams must surface as
/// a clean error — never a panic, never a silent mis-decode.
#[test]
fn codec_tag_mismatch_is_rejected() {
    let ds = small_z10();
    // Compress with SZ, then lie about the codec in the in-memory
    // container: serialization writes PcoLite tags over SZ streams.
    let mut cd = compress_dataset_t(&ds, &cfg_with(1), Method::Tac).unwrap();
    if let MethodBody::Tac(levels) = &mut cd.body {
        for l in levels.iter_mut() {
            l.codec = CodecId::PcoLite;
        }
    }
    let bytes = cd.to_bytes();
    let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
    let err = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap_err();
    assert!(
        err.to_string().contains("pco-lite"),
        "expected a wrong-codec error, got: {err}"
    );
}

/// The frozen tiled TAC container whose streams are all pco-lite, the
/// decode-only codec no writer produces any more.
fn pco_lite_container() -> Vec<u8> {
    include_bytes!("data/golden_lite_tac_v5.tacd").to_vec()
}

/// Flipping a single chunk-table codec byte must be caught at parse
/// time (the table would otherwise route the chunk to the wrong
/// backend).
#[test]
fn tampered_chunk_codec_byte_is_rejected_at_parse() {
    let bytes = pco_lite_container();
    assert_eq!(bytes[4], 5, "containers serialize as v5");
    let dim = CompressedDataset::from_bytes(&bytes).unwrap().finest_dim;
    // Chunk rows: level u8 + offset u64 + len u64, then the codec
    // byte at offset 17 within the row; rows start 4 bytes after the
    // table position recorded in the footer.
    let table_pos = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()) as usize;
    let codec_at = table_pos + 4 + 17;
    let mut tampered = bytes.clone();
    assert_eq!(tampered[codec_at], CodecId::PcoLite.tag());
    tampered[codec_at] = CodecId::Sz.tag();
    assert!(CompressedDataset::from_bytes(&tampered).is_err());
    assert!(decompress_region_t::<f64>(&tampered, Aabb::whole(dim)).is_err());
    // An unknown codec tag is rejected too.
    tampered[codec_at] = 250;
    assert!(CompressedDataset::from_bytes(&tampered).is_err());
}

/// ROI decoding works identically whichever codec the rows are tagged with.
#[test]
fn roi_decode_works_for_pco_lite_containers() {
    let bytes = pco_lite_container();
    let cd = CompressedDataset::from_bytes(&bytes).unwrap();
    let full = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    let half = cd.finest_dim / 2;
    let roi = Aabb::new((0, 0, 0), (half, half, half));
    let (partial, stats) = decompress_region_t::<f64>(&bytes, roi).unwrap();
    assert!(stats.payload_bytes_read < stats.payload_bytes_total);
    for (l, (p, f)) in partial.levels().iter().zip(full.levels()).enumerate() {
        let roi_level = roi.coarsen(1 << l);
        for z in roi_level.min.2..roi_level.max.2 {
            for y in roi_level.min.1..roi_level.max.1 {
                for x in roi_level.min.0..roi_level.max.0 {
                    assert_eq!(p.value(x, y, z), f.value(x, y, z), "level {l}");
                }
            }
        }
    }
}

/// pco-lite is decode-only: no method, Auto included, compresses with
/// it, and its backend refuses to encode at either element type.
#[test]
fn pco_lite_is_decode_only() {
    let ds = small_z10();
    let cfg = cfg_codec(1, CodecId::PcoLite);
    for method in Method::fixed().into_iter().chain([Method::Auto]) {
        let err = compress_dataset_t(&ds, &cfg, method).unwrap_err();
        assert!(
            matches!(&err, TacError::InvalidConfig(why) if why.contains("pco-ans")),
            "{method:?}: {err}"
        );
    }
    let data = ds.levels()[1].data();
    let dims = tac_codec::Dims::D1(data.len());
    let codec_cfg = CodecConfig::abs(1e-3);
    assert!(matches!(
        codec_for::<f64>(CodecId::PcoLite).compress(data, None, dims, &codec_cfg),
        Err(CodecError::InvalidConfig(_))
    ));
    let data32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
    assert!(matches!(
        codec_for::<f32>(CodecId::PcoLite).compress(&data32, None, dims, &codec_cfg),
        Err(CodecError::InvalidConfig(_))
    ));
    assert!(!CodecId::all().contains(&CodecId::PcoLite));
}

/// Spatially-tiled grouping (the ROI-friendly layout) must be just as
/// deterministic.
#[test]
fn tiled_parallel_output_is_byte_identical() {
    let ds = small_z10();
    let tiled = |threads: usize| TacConfig {
        roi_tile: Some(16),
        ..cfg_with(threads)
    };
    let reference = compress_dataset_t(&ds, &tiled(1), Method::Tac)
        .unwrap()
        .to_bytes();
    for threads in [2, 4, 8] {
        let bytes = compress_dataset_t(&ds, &tiled(threads), Method::Tac)
            .unwrap()
            .to_bytes();
        assert_eq!(
            bytes, reference,
            "tiled output differs at {threads} threads"
        );
    }
}

/// Parallel decompression reconstructs exactly what serial does, for
/// every method and worker count.
#[test]
fn parallel_decompression_matches_serial() {
    let ds = small_z10();
    for method in [
        Method::Tac,
        Method::Baseline1D,
        Method::ZMesh,
        Method::Baseline3D,
    ] {
        let cd = compress_dataset_t(&ds, &cfg_with(4), method).unwrap();
        let serial = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        for threads in [2, 4, 8] {
            let par = decompress_dataset_par_t::<f64>(&cd, Parallelism::Threads(threads)).unwrap();
            assert_eq!(par.num_levels(), serial.num_levels());
            for (a, b) in serial.levels().iter().zip(par.levels()) {
                assert_eq!(a.mask(), b.mask(), "{method:?} mask at {threads} threads");
                assert_eq!(a.data(), b.data(), "{method:?} data at {threads} threads");
            }
        }
    }
}

/// A 64^3 TAC container whose fine level is cut into 16-cell tiles (so
/// dozens of region groups whose boxes interleave in z, every z-plane
/// shared by several tasks) over a GSP level cut into 16-plane slabs.
fn contended_container<T: CodecElement>(ds: &AmrDataset<T>, codec: CodecId) -> CompressedDataset {
    let cfg = TacConfig {
        unit: 4,
        codec,
        roi_tile: Some(ds.finest_dim() / 4),
        error_bound: ErrorBound::Rel(1e-3),
        ..Default::default()
    };
    let cd = compress_dataset_t(ds, &cfg, Method::Tac).unwrap();
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("Method::Tac wrote a non-TAC body");
    };
    let LevelPayload::Groups(groups) = &levels[0].payload else {
        panic!("the fine level should compress as region groups");
    };
    assert!(groups.len() >= 32, "{} groups", groups.len());
    let on_plane = |z: usize| {
        let meets = |g: &&tac_core::BlockGroup| g.aabb().min.2 <= z && z < g.aabb().max.2;
        groups.iter().filter(meets).count()
    };
    assert!(
        on_plane(ds.finest_dim() / 2) >= 4,
        "groups do not share planes"
    );
    assert_eq!(levels[1].strategy, Strategy::Gsp);
    assert!(matches!(&levels[1].payload, LevelPayload::Groups(slabs) if slabs.len() == 2));
    cd
}

/// The order of operations the engine's in-task assembly is held to,
/// spelled out per cell with nothing shared: decode every stream, paste
/// every region in container order, then visit every cell of the grid
/// and zero the absent ones.
fn reference_assembly<T: CodecElement>(cd: &CompressedDataset) -> Vec<Vec<u64>> {
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("not a TAC body");
    };
    let mut out = Vec::new();
    for (cl, mask) in levels.iter().zip(&cd.masks) {
        let dim = cl.dim;
        let mut data = vec![T::ZERO; dim * dim * dim];
        match &cl.payload {
            LevelPayload::Empty => {}
            LevelPayload::Whole(stream) => {
                data = T::codec_decompress(codec_for(cl.codec), stream).unwrap().0;
            }
            LevelPayload::Groups(groups) => {
                for g in groups {
                    let values = T::codec_decompress(codec_for(cl.codec), &g.stream)
                        .unwrap()
                        .0;
                    let block = g.shape.0 * g.shape.1 * g.shape.2;
                    for (&(x, y, z), block) in g.origins.iter().zip(values.chunks(block)) {
                        let origin = (x as usize, y as usize, z as usize);
                        paste_region(&mut data, dim, origin, g.shape, block);
                    }
                }
            }
        }
        for (i, v) in data.iter_mut().enumerate() {
            if !mask.get(i) {
                *v = T::ZERO;
            }
        }
        out.push(data.iter().map(|v| v.to_bits_u64()).collect());
    }
    out
}

fn level_bits<T: CodecElement>(ds: &AmrDataset<T>) -> Vec<Vec<u64>> {
    let bits = |l: &tac_amr::AmrLevel<T>| l.data().iter().map(|v| v.to_bits_u64()).collect();
    ds.levels().iter().map(bits).collect()
}

fn contended_decodes_are_worker_invariant<T: CodecElement>(ds: &AmrDataset<T>) {
    let dim = ds.finest_dim();
    for codec in CodecId::all() {
        let what = format!("{codec}/{}", T::DTYPE.label());
        let cd = contended_container(ds, codec);
        let decode = |workers| {
            level_bits(&decompress_dataset_par_t::<T>(&cd, Parallelism::Threads(workers)).unwrap())
        };
        let serial = decode(1);
        assert_eq!(serial, reference_assembly::<T>(&cd), "{what}: reference");
        for workers in [2, 3, 8] {
            assert_eq!(decode(workers), serial, "{what} at {workers} workers");
        }
        for round in 0..20 {
            assert_eq!(decode(8), serial, "{what}: round {round} at 8 workers");
        }

        // Region reads run the same tasks on the chunks they keep and
        // return exactly the box: the full decode inside, `+0.0` outside.
        let bytes = cd.to_bytes();
        for roi in [
            Aabb::new((3, 5, 7), (dim / 2 + 1, dim / 2 + 3, dim / 2 + 5)),
            Aabb::new((dim / 4, 0, dim / 2 - 3), (dim, dim / 3, dim / 2 + 3)),
        ] {
            let (partial, stats) = decompress_region_t::<T>(&bytes, roi).unwrap();
            assert!(stats.chunks_read < stats.chunks_total, "{what}: {roi:?}");
            for (l, (p, f)) in level_bits(&partial).iter().zip(&serial).enumerate() {
                let (inside, d) = (roi.coarsen(1 << l), dim >> l);
                for (i, (a, b)) in p.iter().zip(f).enumerate() {
                    let want = if inside.contains(i % d, i / d % d, i / d / d) {
                        *b
                    } else {
                        0
                    };
                    assert_eq!(*a, want, "{what}: level {l} cell {i} in {roi:?}");
                }
            }
        }

        // A group stream cut short in the middle of the task list: the
        // same error text, whichever worker meets it and whatever the
        // tasks around it did first.
        let mut broken = cd.clone();
        if let MethodBody::Tac(levels) = &mut broken.body {
            if let LevelPayload::Groups(groups) = &mut levels[0].payload {
                let mid = groups.len() / 2;
                let keep = groups[mid].stream.len() / 2;
                groups[mid].stream.truncate(keep);
            }
        }
        let fail = |workers| {
            decompress_dataset_par_t::<T>(&broken, Parallelism::Threads(workers))
                .unwrap_err()
                .to_string()
        };
        let text = fail(1);
        for workers in [2, 3, 8] {
            assert_eq!(fail(workers), text, "{what} at {workers} workers");
        }
    }
}

/// Worker identity where tasks contend: every group task pastes into
/// z-planes other tasks paste into, at 1, 2, 3 and 8 workers and for 20
/// rounds at 8 — each decode bit-identical to the serial grid and to
/// the per-cell reference, region reads equal to the full decode inside
/// their box, and a failing task reported identically at every worker
/// count. (CI also runs this file in release, where the codecs are fast
/// enough for tasks to collide on a plane.)
#[test]
fn contended_tac_decodes_are_identical_at_every_worker_count() {
    let ds = entry("Run1_Z10")
        .unwrap()
        .generate(FieldKind::BaryonDensity, 8, 7);
    assert_eq!(ds.finest_dim(), 64);
    contended_decodes_are_worker_invariant(&ds);
    contended_decodes_are_worker_invariant(&ds.cast::<f32>());
}

/// The v2 container round-trips through serialization and still honours
/// the error bound.
#[test]
fn v2_container_roundtrips_with_bound() {
    let ds = small_z10();
    let cfg = cfg_with(4);
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let bytes = cd.to_bytes();
    let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
    assert_eq!(parsed, cd);
    // Serialization is deterministic (the seekable layout included).
    assert_eq!(parsed.to_bytes(), bytes);
    let out = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap();
    for (l, (a, b)) in ds.levels().iter().zip(out.levels()).enumerate() {
        let (min, max) = a.value_range().unwrap();
        let eb = 1e-3 * (max - min);
        for i in a.mask().iter_ones() {
            assert!(
                (a.data()[i] - b.data()[i]).abs() <= eb * (1.0 + 1e-9),
                "level {l} cell {i}"
            );
        }
    }
}

/// The acceptance bar for the chunked container: decoding a 1/8-volume
/// ROI reads strictly fewer payload bytes than a full decode, and the
/// decoded cells match the full reconstruction inside the ROI.
#[test]
fn roi_decode_reads_strictly_fewer_bytes() {
    let ds = small_z10();
    let cfg = TacConfig {
        roi_tile: Some(ds.finest_dim() / 2),
        ..cfg_with(2)
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let bytes = cd.to_bytes();
    let full = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();

    let half = ds.finest_dim() / 2;
    let roi = Aabb::new((0, 0, 0), (half, half, half)); // 1/8 volume
    let (partial, stats) = decompress_region_t::<f64>(&bytes, roi).unwrap();

    assert!(
        stats.payload_bytes_read < stats.payload_bytes_total,
        "ROI decode read the whole payload ({} bytes)",
        stats.payload_bytes_total
    );
    assert!(stats.chunks_read < stats.chunks_total);

    for (l, (p, f)) in partial.levels().iter().zip(full.levels()).enumerate() {
        let roi_level = roi.coarsen(1 << l);
        for z in roi_level.min.2..roi_level.max.2 {
            for y in roi_level.min.1..roi_level.max.1 {
                for x in roi_level.min.0..roi_level.max.0 {
                    assert_eq!(
                        p.value(x, y, z),
                        f.value(x, y, z),
                        "level {l} cell ({x},{y},{z}) inside ROI"
                    );
                }
            }
        }
    }
}

/// Legacy v1 bytes stay readable and decode to the same dataset as the
/// v2 bytes of the same container, whatever the worker count (the files
/// are the frozen goldens: nothing writes either version any more).
#[test]
fn v1_and_v2_decode_identically() {
    let via_v1 = CompressedDataset::from_bytes(include_bytes!("data/golden_tac_v1.tacd")).unwrap();
    let via_v2 = CompressedDataset::from_bytes(include_bytes!("data/golden_tac_v2.tacd")).unwrap();
    assert_eq!(via_v1, via_v2);
    let a = decompress_dataset_par_t::<f64>(&via_v1, Parallelism::Serial).unwrap();
    for threads in [1, 2, 4, 8] {
        let b = decompress_dataset_par_t::<f64>(&via_v2, Parallelism::Threads(threads)).unwrap();
        for (x, y) in a.levels().iter().zip(b.levels()) {
            assert_eq!(x.data(), y.data());
        }
    }
}

/// Auto parallelism resolves and compresses correctly end to end.
#[test]
fn auto_parallelism_smoke() {
    let ds = small_z10();
    let cfg = TacConfig {
        unit: 4,
        error_bound: ErrorBound::Rel(1e-3),
        parallelism: Parallelism::Auto,
        ..Default::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let serial = compress_dataset_t(
        &ds,
        &TacConfig {
            parallelism: Parallelism::Serial,
            ..cfg.clone()
        },
        Method::Tac,
    )
    .unwrap();
    assert_eq!(cd.to_bytes(), serial.to_bytes());
}
