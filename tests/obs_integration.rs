//! Metrics-registry-under-parallelism integration test (requires the
//! `obs` feature; see the `[[test]]` entry in `crates/bench/Cargo.toml`).
//!
//! The sharded registry's contract is that merged counters are a pure
//! function of the work done, not of how it was scheduled: every method
//! compressed at 1/2/4/8 workers must produce identical merged counter
//! totals, and the byte counters must match the container's actual codec
//! payloads exactly. Everything runs inside one `#[test]` because the
//! recorder session is process-global — concurrent test threads would
//! bleed counts into each other's snapshots.

use tac_amr::{Aabb, AmrDataset, AmrLevel};
use tac_bench::load_dataset;
use tac_core::{
    codec_for, compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CodecElement,
    CodecId, CompressedDataset, LevelPayload, Method, MethodBody, Parallelism, Segment, TacConfig,
};
use tac_obs::export::StageReport;
use tac_obs::{Counter, Snapshot, Stage};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const METHODS: [Method; 4] = [
    Method::Tac,
    Method::Baseline1D,
    Method::ZMesh,
    Method::Baseline3D,
];

/// Sum of codec stream bytes actually held in the container — the
/// ground truth `payload_bytes_out`/`payload_bytes_in` must equal.
/// Deliberately counts only `stream` buffers, not group/level metadata.
fn container_stream_bytes(cd: &CompressedDataset) -> u64 {
    let total: usize = match &cd.body {
        MethodBody::Tac(levels) => levels
            .iter()
            .map(|l| match &l.payload {
                LevelPayload::Empty => 0,
                LevelPayload::Whole(stream) => stream.len(),
                LevelPayload::Groups(groups) => groups.iter().map(|g| g.stream.len()).sum(),
            })
            .sum(),
        MethodBody::Baseline1D(levels) => levels
            .iter()
            .flatten()
            .flat_map(|(_, _, segments)| segments)
            .map(|s| s.stream.len())
            .sum(),
        MethodBody::ZMesh { segments, .. } => segments.iter().map(|s| s.stream.len()).sum(),
        MethodBody::Baseline3D { stream, .. } => stream.len(),
    };
    total as u64
}

/// Number of encoded chunks the container holds (one per codec stream).
fn container_chunks(cd: &CompressedDataset) -> u64 {
    let total: usize = match &cd.body {
        MethodBody::Tac(levels) => levels
            .iter()
            .map(|l| match &l.payload {
                LevelPayload::Empty => 0,
                LevelPayload::Whole(_) => 1,
                LevelPayload::Groups(groups) => groups.len(),
            })
            .sum(),
        MethodBody::Baseline1D(levels) => levels
            .iter()
            .flatten()
            .map(|(_, _, segments)| segments.len())
            .sum(),
        MethodBody::ZMesh { segments, .. } => segments.len(),
        MethodBody::Baseline3D { .. } => 1,
    };
    total as u64
}

fn counters_of_interest(snap: &Snapshot) -> Vec<(Counter, u64)> {
    [
        Counter::ChunksEncoded,
        Counter::ChunksDecoded,
        Counter::PayloadBytesOut,
        Counter::PayloadBytesIn,
        Counter::SzQuantHits,
        Counter::SzQuantMisses,
        Counter::AnsPages,
        Counter::AnsBins,
        Counter::AssembleCellsWritten,
        Counter::ReorderValues,
        Counter::ReorderPieces,
        Counter::DontCareValues,
        Counter::ExecTasks,
    ]
    .into_iter()
    .map(|c| (c, snap.counter(c)))
    .collect()
}

#[test]
fn merged_counters_are_invariant_across_worker_counts() {
    let session = tac_obs::install();
    let ds = load_dataset("Run1_Z10", 16, 14);
    let base_cfg = TacConfig::default();

    for method in METHODS {
        let mut reference: Option<(Vec<(Counter, u64)>, CompressedDataset)> = None;
        for workers in WORKER_COUNTS {
            let cfg = TacConfig {
                parallelism: Parallelism::Threads(workers),
                ..base_cfg.clone()
            };
            let _ = session.take();
            let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
            let mut snap = session.take();
            let gathered = snap.counter(Counter::ReorderValues);
            decompress_dataset_par_t::<f64>(&cd, cfg.parallelism).unwrap();
            snap.merge(session.take());
            let counters = counters_of_interest(&snap);

            // The single-stream and per-level 1D paths move every present
            // value exactly once per direction.
            if matches!(method, Method::ZMesh | Method::Baseline1D) {
                let present = ds.total_present() as u64;
                assert_eq!(gathered, present, "{method:?}: values gathered");
                assert_eq!(
                    snap.counter(Counter::ReorderValues),
                    2 * present,
                    "{method:?} at {workers} workers: values gathered + scattered"
                );
            }

            // Byte counters match the container's codec payloads exactly,
            // at every worker count.
            assert_eq!(
                snap.counter(Counter::PayloadBytesOut),
                container_stream_bytes(&cd),
                "{method:?} at {workers} workers: payload_bytes_out vs container"
            );
            assert_eq!(
                snap.counter(Counter::PayloadBytesIn),
                container_stream_bytes(&cd),
                "{method:?} at {workers} workers: payload_bytes_in vs container"
            );
            assert_eq!(
                snap.counter(Counter::ChunksEncoded),
                container_chunks(&cd),
                "{method:?} at {workers} workers: chunks_encoded vs container"
            );

            // Scheduling must not change what was counted.
            match &reference {
                None => reference = Some((counters, cd)),
                Some((expected, ref_cd)) => {
                    assert_eq!(
                        &counters, expected,
                        "{method:?}: counters diverged at {workers} workers"
                    );
                    assert_eq!(
                        ref_cd.to_bytes(),
                        cd.to_bytes(),
                        "{method:?}: container bytes diverged at {workers} workers"
                    );
                }
            }
        }
        let (reference, _) = reference.expect("at least one worker count ran");
        assert!(
            reference.iter().any(|&(_, v)| v > 0),
            "{method:?}: instrumentation recorded nothing"
        );
    }

    pco_ans_counts_the_same_bins_on_both_sides(session);
    dont_care_and_present_cells_are_what_tac_codes(session);
    assembly_work_follows_the_occupied_volume(session);
    refined_rows_move_as_row_segments(session);
    segmented_round_trips_are_attributed_and_counted(session);
    tac_region_reads_write_the_box_and_name_their_time(session);

    // Leave the session clean for any later obs-enabled test binaries
    // sharing the process (none today, but take() is cheap insurance).
    let _ = session.take();
}

/// A pco-ans page's decoder reads the bin plan its encoder wrote, so a
/// round trip counts the same `ans_bins` on both sides, at every worker
/// count; each page plans between 1 and 65 bins (one per bit-length
/// class). Called from the one `#[test]` above because the recorder
/// session is process-global.
fn pco_ans_counts_the_same_bins_on_both_sides(session: &tac_obs::ObsSession) {
    let ds = load_dataset("Run1_Z10", 16, 14);
    let mut reference = None;
    for workers in [1, 2, 4] {
        let cfg = TacConfig {
            codec: CodecId::PcoAns,
            parallelism: Parallelism::Threads(workers),
            ..TacConfig::default()
        };
        let _ = session.take();
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let encoded = session.take();
        decompress_dataset_par_t::<f64>(&cd, cfg.parallelism).unwrap();
        let decoded = session.take();
        let (pages, bins) = (
            encoded.counter(Counter::AnsPages),
            encoded.counter(Counter::AnsBins),
        );
        assert!(pages > 0, "at {workers} workers: no pco-ans page was coded");
        assert!(
            pages <= bins && bins <= 65 * pages,
            "at {workers} workers: {bins} bins over {pages} pages"
        );
        assert_eq!(decoded.counter(Counter::AnsPages), pages, "{workers}");
        assert_eq!(decoded.counter(Counter::AnsBins), bins, "{workers}");
        assert_eq!(*reference.get_or_insert(bins), bins, "{workers}");
    }
}

/// Values the TAC streams of `cd` code: `dim^3` per whole-level stream,
/// the cells of every sub-block of every group.
fn tac_coded_values(cd: &CompressedDataset) -> u64 {
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("Method::Tac wrote a non-TAC body");
    };
    let coded: usize = (levels.iter())
        .map(|l| match &l.payload {
            LevelPayload::Empty => 0,
            LevelPayload::Whole(_) => l.dim * l.dim * l.dim,
            LevelPayload::Groups(groups) => (groups.iter())
                .map(|g| g.shape.0 * g.shape.1 * g.shape.2 * g.origins.len())
                .sum(),
        })
        .sum();
    coded as u64
}

/// TAC's writer codes each present cell once and marks every other
/// value it codes — zero fill, GSP ghosts, sub-block padding —
/// don't-care: `dont_care_values` plus the present cells is exactly what
/// the container's streams code, on the density-picked strategies
/// (OpST + GSP here) and on forced ZeroFill, at every worker count; the
/// other methods code present values only and count none. Called from
/// the one `#[test]` above because the recorder session is
/// process-global.
fn dont_care_and_present_cells_are_what_tac_codes(session: &tac_obs::ObsSession) {
    let ds = load_dataset("Run1_Z10", 16, 14);
    let present = ds.total_present() as u64;
    for forced_strategy in [None, Some(tac_core::Strategy::ZeroFill)] {
        for workers in [1, 2] {
            let cfg = TacConfig {
                forced_strategy,
                parallelism: Parallelism::Threads(workers),
                ..TacConfig::default()
            };
            let _ = session.take();
            let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
            let dont_care = session.take().counter(Counter::DontCareValues);
            let coded = tac_coded_values(&cd);
            assert!(
                dont_care > 0,
                "{forced_strategy:?}: no absent cell was coded"
            );
            assert_eq!(
                dont_care + present,
                coded,
                "{forced_strategy:?} at {workers} workers: don't-care + present vs coded"
            );
        }
    }
    for method in [Method::Baseline1D, Method::ZMesh, Method::Baseline3D] {
        let _ = session.take();
        compress_dataset_t(&ds, &TacConfig::default(), method).unwrap();
        assert_eq!(
            session.take().counter(Counter::DontCareValues),
            0,
            "{method:?}"
        );
    }
}

/// Decode-side assembly must cost what the present cells cost, not what
/// the regions or the bounding grid cost: on a 64^3 level at under 1%
/// occupancy the cells it stores are at most the present cells of the
/// regions, and a small fraction of `dim^3`. A count, not a timing, so
/// the gate holds on any host; called from the one `#[test]` above
/// because the recorder session is process-global.
fn assembly_work_follows_the_occupied_volume(session: &tac_obs::ObsSession) {
    let dim = 64usize;
    let mut level = AmrLevel::<f64>::empty(dim);
    for z in 20..30 {
        for y in 33..43 {
            for x in 5..15 {
                // A ragged blob: unit blocks end up partially filled.
                if (x + y + z) % 7 != 0 {
                    level.set_value(x, y, z, (x as f64 * 0.2).sin() + z as f64 * 0.05);
                }
            }
        }
    }
    assert!(level.density() < 0.01);
    let ds = AmrDataset::new("sparse64", vec![level]);
    let cd = compress_dataset_t(&ds, &TacConfig::default(), Method::Tac).unwrap();
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("Method::Tac wrote a non-TAC body");
    };
    let LevelPayload::Groups(groups) = &levels[0].payload else {
        panic!("a <1% level should compress as region groups");
    };
    let mask = ds.levels()[0].mask();
    let present_in_regions: u64 = groups
        .iter()
        .flat_map(|g| g.origins.iter().map(move |&o| (g.shape, o)))
        .map(|((w, h, d), (x, y, z))| {
            let (x, y, z) = (x as usize, y as usize, z as usize);
            let rows =
                (z..z + d).flat_map(|zz| (y..y + h).map(move |yy| x + dim * (yy + dim * zz)));
            rows.map(|row| mask.count_ones_in(row, w) as u64)
                .sum::<u64>()
        })
        .sum();

    let mut per_worker_count = Vec::new();
    for workers in WORKER_COUNTS {
        let _ = session.take();
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Threads(workers)).unwrap();
        per_worker_count.push(session.take().counter(Counter::AssembleCellsWritten));
    }
    let written = per_worker_count[0];
    assert!(per_worker_count.iter().all(|&c| c == written));
    assert!(written > 0, "assembly recorded nothing");
    assert!(
        written <= present_in_regions,
        "assembly stored {written} cells for {present_in_regions} present region cells"
    );
    assert!(
        written * 20 < (dim * dim * dim) as u64,
        "assembly touched {written} cells of a {dim}^3 grid at <1% occupancy"
    );
}

/// The zMesh walk hands a refined stretch of a coarse row to gather and
/// scatter as one row segment, not one piece per sibling pair: on a valid
/// two-level tree at 64^3 — a refined ball inside a present coarse level
/// — the pieces moved are at most a quarter of the values moved, in both
/// directions, where one piece per sibling pair would exceed it. Called
/// from the one `#[test]` above because the recorder session is
/// process-global.
fn refined_rows_move_as_row_segments(session: &tac_obs::ObsSession) {
    let dim = 32usize;
    let mut fine = AmrLevel::<f64>::empty(2 * dim);
    let mut coarse = AmrLevel::<f64>::empty(dim);
    for z in 0..dim {
        for y in 0..dim {
            for x in 0..dim {
                let r2 = [x, y, z]
                    .map(|a| (a as f64 - 14.5).powi(2))
                    .iter()
                    .sum::<f64>();
                if r2 < 100.0 {
                    for c in 0..8 {
                        let (fx, fy, fz) =
                            (2 * x + (c & 1), 2 * y + (c >> 1 & 1), 2 * z + (c >> 2));
                        fine.set_value(fx, fy, fz, (fx as f64 * 0.1).sin() + fz as f64 * 0.01);
                    }
                } else {
                    coarse.set_value(x, y, z, (x as f64 * 0.2).cos() + y as f64 * 0.02);
                }
            }
        }
    }
    let ds = AmrDataset::new("ball64", vec![fine, coarse]);
    ds.validate().unwrap();
    let cfg = TacConfig::default();
    let _ = session.take();
    let cd = compress_dataset_t(&ds, &cfg, Method::ZMesh).unwrap();
    let gathered = session.take();
    decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    let scattered = session.take();
    for (snap, what) in [(gathered, "gather"), (scattered, "scatter")] {
        let values = snap.counter(Counter::ReorderValues);
        let pieces = snap.counter(Counter::ReorderPieces);
        assert_eq!(values, ds.total_present() as u64, "{what}");
        assert!(
            0 < pieces && 4 * pieces <= values,
            "{what}: {pieces} pieces for {values} values"
        );
    }
}

/// Values held by the segments of a zMesh / 1D body whose rows a region
/// read of `roi` meets. Rows span the whole x-y extent, so z alone
/// decides, on the grid of the traversal's coarsest level.
fn values_of_met_segments(cd: &CompressedDataset, roi: Aabb) -> u64 {
    // Per traversal: its coarsest level, its codec and its segments.
    let stacks: Vec<(usize, CodecId, &[Segment])> = match &cd.body {
        MethodBody::ZMesh {
            codec, segments, ..
        } => vec![(cd.masks.len() - 1, *codec, segments)],
        MethodBody::Baseline1D(levels) => levels
            .iter()
            .enumerate()
            .filter_map(|(l, level)| {
                let (_, codec, segments) = level.as_ref()?;
                Some((l, *codec, segments.as_slice()))
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut values = 0;
    for (coarsest, codec, segments) in stacks {
        // (A lone 1D segment would record the level's tight box instead.)
        assert!(segments.len() > 1, "level {coarsest} is one segment");
        let want = roi.coarsen(1 << coarsest);
        let mut from = 0;
        for s in segments {
            let planes = std::mem::replace(&mut from, s.plane_end)..s.plane_end;
            if planes.start < want.max.2 && want.min.2 < planes.end {
                let (decoded, _) = f64::codec_decompress(codec_for(codec), &s.stream).unwrap();
                values += decoded.len() as u64;
            }
        }
    }
    values
}

/// Where a single-stream round-trip's time goes must have a name: the
/// self-time the `compress`, `decompress` and `roi_decode` spans keep
/// for themselves (whatever no nested stage covers) stays below 15% of
/// the wall, for zMesh and the 1D baseline alike — and for a serial TAC
/// decode, whose tasks assemble what they decode, and a TAC write
/// (`compress_dataset_t` + `to_bytes`). Before the reorder
/// was a stage — and before it stopped materialising a 16 B/value order
/// — that was 43% and 71% on the benchmark's `z5_auto` input. Shares of
/// one run, best of three, on a 128^3 input where a pass takes tens of
/// milliseconds, so scheduler noise does not decide it.
///
/// The same input is cut into many segments, so the counts are checked
/// on it too: one chunk per segment, every present value reordered once
/// per direction, and a region read reorders exactly the values of the
/// segments it read. Called from the one `#[test]` above because the
/// recorder session is process-global.
fn segmented_round_trips_are_attributed_and_counted(session: &tac_obs::ObsSession) {
    let ds = load_dataset("Run1_Z5", 4, 14);
    let cfg = TacConfig::default();
    let present = ds.total_present() as u64;
    // The self-time share of `stage`, which must have `inner` spans
    // nested somewhere below it.
    let unattributed_under = |snap: &Snapshot, stage: Stage, inner: Stage| {
        let report = StageReport::from_snapshot(snap);
        let row = report.rows.iter().find(|r| r.stage == stage);
        let row = row.unwrap_or_else(|| panic!("no {} span recorded", stage.name()));
        assert!(
            report.rows.iter().any(|r| r.stage == inner),
            "no {} span under {}",
            inner.name(),
            stage.name()
        );
        report.fraction(row)
    };
    let unattributed =
        |snap: &Snapshot, stage: Stage| unattributed_under(snap, stage, Stage::Reorder);
    // 1/64 of the volume, off the plane cuts.
    let roi = Aabb::new((3, 5, 7), (35, 37, 39));
    for method in [Method::ZMesh, Method::Baseline1D] {
        let mut shares = [f64::INFINITY; 3];
        for _ in 0..3 {
            let _ = session.take();
            let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
            let snap = session.take();
            let segments = container_chunks(&cd);
            assert!(segments > 8, "{method:?}: {segments} segments");
            assert_eq!(snap.counter(Counter::ChunksEncoded), segments, "{method:?}");
            assert_eq!(snap.counter(Counter::ReorderValues), present, "{method:?}");
            shares[0] = shares[0].min(unattributed(&snap, Stage::Compress));

            decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
            let snap = session.take();
            assert_eq!(snap.counter(Counter::ChunksDecoded), segments, "{method:?}");
            assert_eq!(snap.counter(Counter::ReorderValues), present, "{method:?}");
            shares[1] = shares[1].min(unattributed(&snap, Stage::Decompress));

            let bytes = cd.to_bytes();
            let _ = session.take();
            let (_, stats) = decompress_region_t::<f64>(&bytes, roi).unwrap();
            let snap = session.take();
            assert_eq!(
                snap.counter(Counter::RoiChunksTotal),
                segments,
                "{method:?}"
            );
            assert_eq!(stats.chunks_total as u64, segments, "{method:?}");
            let read = snap.counter(Counter::RoiChunksRead);
            assert_eq!(read, stats.chunks_read as u64, "{method:?}");
            assert!(0 < read && read < segments, "{method:?}: read {read}");
            assert_eq!(snap.counter(Counter::ChunksDecoded), read, "{method:?}");
            let reordered = snap.counter(Counter::ReorderValues);
            assert_eq!(reordered, values_of_met_segments(&cd, roi), "{method:?}");
            assert!(reordered < present / 2, "{method:?}: {reordered}");
            shares[2] = shares[2].min(unattributed(&snap, Stage::RoiDecode));
        }
        for (share, what) in shares
            .into_iter()
            .zip(["compress", "decompress", "region read"])
        {
            assert!(
                share < 0.15,
                "{:.1}% of a {method:?} {what} is unattributed self-time",
                100.0 * share
            );
        }
    }

    // The TAC row: a serial decode of the benchmark's flagship input at
    // 128^3. Every task's decode span covers its paste too, and the
    // zero-grid allocation and hand-back sit under `assemble`, so what
    // `decompress` keeps for itself is the geometry check and the task
    // list.
    let ds = load_dataset("Run1_Z10", 4, 14);
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let mut share = f64::INFINITY;
    for _ in 0..3 {
        let _ = session.take();
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        let snap = session.take();
        assert_eq!(
            snap.counter(Counter::ChunksDecoded),
            container_chunks(&cd),
            "Tac"
        );
        share = share.min(unattributed_under(&snap, Stage::Decompress, Stage::Paste));
    }
    assert!(
        share < 0.15,
        "{:.1}% of a Tac decompress is unattributed self-time",
        100.0 * share
    );

    // The TAC write row on the same input: `compress_dataset_t` and the
    // `to_bytes` behind it, which was 19–41 % of the write wall with no
    // span of its own. What `compress` and `serialize` keep for
    // themselves — past the encode tasks and the mask packs — is the
    // plan hand-over, the payload copy and the chunk table. The parse
    // has a name too, and the mask section is counted as written. At two
    // workers the plan batch's tasks and the encode tasks run on worker
    // threads, and the report re-parents them under their `execute`
    // spans.
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        let cfg = TacConfig {
            parallelism,
            ..cfg.clone()
        };
        let mut share = f64::INFINITY;
        for _ in 0..3 {
            let _ = session.take();
            let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
            let bytes = cd.to_bytes();
            let snap = session.take();
            assert_eq!(
                snap.counter(Counter::StructureBytesOut),
                cd.structure_bytes() as u64
            );
            share = share.min(
                unattributed_under(&snap, Stage::Compress, Stage::Encode)
                    + unattributed_under(&snap, Stage::Serialize, Stage::Lossless),
            );
            let _ = session.take();
            assert_eq!(CompressedDataset::from_bytes(&bytes).unwrap(), cd);
            unattributed_under(&session.take(), Stage::Parse, Stage::Lossless);
        }
        assert!(
            share < 0.15,
            "{:.1}% of a {parallelism:?} Tac compress + to_bytes is unattributed self-time",
            100.0 * share
        );
    }
}

/// A region read of a tiled TAC container — the fine level in region
/// groups, the dense level cut into z-slabs — writes the box, not the
/// chunks it decodes: `assemble_cells_written` (cells stored) is at most
/// the present cells of the box summed over the levels, far below what
/// the decoded chunks hold; and what `roi_decode` keeps
/// for itself past the parse and the decode tasks stays under 15% of
/// the read. Called from the one `#[test]` above because the recorder
/// session is process-global.
fn tac_region_reads_write_the_box_and_name_their_time(session: &tac_obs::ObsSession) {
    let ds = load_dataset("Run1_Z10", 4, 14);
    let cfg = TacConfig {
        roi_tile: Some(ds.finest_dim() / 4),
        ..TacConfig::default()
    };
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
    let MethodBody::Tac(levels) = &cd.body else {
        panic!("Method::Tac wrote a non-TAC body");
    };
    let slabs = levels
        .iter()
        .find(|cl| cl.strategy == tac_core::Strategy::Gsp);
    assert!(
        matches!(slabs.map(|cl| &cl.payload), Some(LevelPayload::Groups(g)) if g.len() > 1),
        "the dense level should be cut into slabs"
    );
    let bytes = cd.to_bytes();
    // 1/64 of the volume, off the tiles.
    let fine = ds.finest_dim();
    let (lo, hi) = (fine / 8 + 3, fine / 8 + 3 + fine / 4);
    let roi = Aabb::new((lo, lo, lo), (hi, hi, hi));
    let box_present: u64 = (ds.levels().iter().enumerate())
        .map(|(l, level)| {
            let dim = fine >> l;
            let inside = roi.coarsen(1 << l);
            let (x0, x1) = (inside.min.0.min(dim), inside.max.0.min(dim));
            let rows = (inside.min.2..inside.max.2.min(dim))
                .flat_map(|z| (inside.min.1..inside.max.1.min(dim)).map(move |y| (y, z)));
            rows.map(|(y, z)| {
                level
                    .mask()
                    .count_ones_in(x0 + dim * (y + dim * z), x1 - x0) as u64
            })
            .sum::<u64>()
        })
        .sum();
    let mut share = f64::INFINITY;
    for _ in 0..3 {
        let _ = session.take();
        let (_, stats) = decompress_region_t::<f64>(&bytes, roi).unwrap();
        let snap = session.take();
        assert!(stats.chunks_read < stats.chunks_total, "{stats:?}");
        assert_eq!(
            snap.counter(Counter::ChunksDecoded),
            stats.chunks_read as u64
        );
        let written = snap.counter(Counter::AssembleCellsWritten);
        assert!(
            0 < written && written <= box_present,
            "a region read stored {written} cells for {box_present} present cells in the box"
        );
        let report = StageReport::from_snapshot(&snap);
        assert!(report.rows.iter().any(|r| r.stage == Stage::Paste));
        let row = report.rows.iter().find(|r| r.stage == Stage::RoiDecode);
        share = share.min(report.fraction(row.expect("no roi_decode span recorded")));
    }
    assert!(
        share < 0.15,
        "{:.1}% of a tiled Tac region read is unattributed self-time",
        100.0 * share
    );
}
