//! Structure-aware mutational fuzzing of the container wire formats.
//!
//! The corpus is a set of **valid** containers (several scenarios x
//! methods x codecs, freshly written as v5, plus the frozen v1–v4 files
//! of `tests/data/` and their v5 siblings), so mutations start from deep
//! inside the accepting grammar of every reader instead of dying at the
//! magic check — and,
//! last, one hostile seed ([`overlapping_groups`]) that only the decode
//! itself can refuse.
//! Each iteration picks a corpus item, applies a seeded stack of
//! mutations (bit flips, field overwrites with boundary integers,
//! truncations, splices between corpus items, targeted header/footer
//! corruption), and probes the full decode surface:
//! [`CompressedDataset::from_bytes`], `decompress_dataset_par_t`,
//! `decompress_region_t`, and re-serialization of anything accepted.
//!
//! The contract under test: **corrupt bytes may be rejected with an
//! error or may decode to some container, but must never panic, demand
//! absurd allocations, or decode into a structurally incoherent
//! dataset.** Every violation the fuzzer has ever found is pinned in
//! `tests/fuzz_regressions.rs` with the offending bytes inlined.

use crate::rng::TestRng;
use crate::scenario::scenario;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tac_amr::Aabb;
use tac_core::{
    compress_dataset_t, decompress_dataset_any, decompress_region_t, AnyDataset, CodecId,
    CompressedDataset, Element, LevelPayload, Method, MethodBody, TacConfig, CHUNK_ROW_BYTES_V4,
};

/// Fuzz-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Mutated inputs to probe.
    pub iterations: usize,
    /// Seed for the whole run (corpus choice, mutation schedule).
    pub seed: u64,
}

impl Default for FuzzConfig {
    /// The CI smoke configuration: 2000 iterations, fixed seed.
    fn default() -> Self {
        FuzzConfig {
            iterations: 2000,
            seed: 0x7AC_F022,
        }
    }
}

/// What probing one input observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeResult {
    /// Some decode step returned a clean `Err` (the expected outcome).
    Rejected,
    /// Every probed step succeeded (the mutation dodged all checksums —
    /// fine, as long as the result is coherent).
    Decoded,
    /// A decode step panicked (always a bug; the payload is recorded).
    Panicked(String),
    /// Decode succeeded but the result violates structural invariants
    /// (always a bug).
    Incoherent(String),
}

/// One recorded failure: enough to reproduce without the fuzzer.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Iteration index within the run.
    pub iteration: usize,
    /// Mutation trail that produced the bytes.
    pub description: String,
    /// The offending input.
    pub bytes: Vec<u8>,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Inputs probed.
    pub iterations: usize,
    /// Inputs rejected with a clean error.
    pub rejected: usize,
    /// Inputs that decoded successfully end to end.
    pub accepted: usize,
    /// Panicking inputs (bugs).
    pub panics: Vec<FuzzCase>,
    /// Structurally incoherent decodes (bugs).
    pub incoherent: Vec<FuzzCase>,
}

impl FuzzOutcome {
    /// Whether the run observed zero bugs.
    pub fn clean(&self) -> bool {
        self.panics.is_empty() && self.incoherent.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "fuzz: {} iterations, {} rejected, {} accepted, {} panics, {} incoherent",
            self.iterations,
            self.rejected,
            self.accepted,
            self.panics.len(),
            self.incoherent.len()
        )
    }
}

/// Every frozen v1–v4 container under `tests/data/`. Nothing can write
/// these versions any more, so the committed files are how mutation
/// still reaches each legacy reader branch (all eight v1 level tags, 1D
/// level tags 0–3, v1 segment framing and codec sniffing, the untagged
/// v2 and codec-tagged v3 metadata and rows, the v4 prelude without a
/// mask-mode byte).
const LEGACY: [&[u8]; 46] = [
    include_bytes!("../../../tests/data/golden_tac_v1.tacd"),
    include_bytes!("../../../tests/data/golden_tac_v2.tacd"),
    include_bytes!("../../../tests/data/golden_b1d_v1.tacd"),
    include_bytes!("../../../tests/data/golden_b1d_v2.tacd"),
    include_bytes!("../../../tests/data/golden_mix_v1.tacd"),
    include_bytes!("../../../tests/data/golden_mix_v3.tacd"),
    include_bytes!("../../../tests/data/golden_ans_v1.tacd"),
    include_bytes!("../../../tests/data/golden_auto_v1.tacd"),
    include_bytes!("../../../tests/data/golden_f32_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_sz_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_sz_v2.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_ans_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_ans_v3.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_sz_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_sz_v2.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_ans_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_ans_v3.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_sz_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_sz_v2.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_ans_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_ans_v3.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_sz_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_sz_v2.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_ans_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_ans_v3.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_f32_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_seg_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_seg_v2.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_seg_v1.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_seg_v2.tacd"),
    include_bytes!("../../../tests/data/golden_ans_v4.tacd"),
    include_bytes!("../../../tests/data/golden_auto_v4.tacd"),
    include_bytes!("../../../tests/data/golden_b1d_v4.tacd"),
    include_bytes!("../../../tests/data/golden_f32_v4.tacd"),
    include_bytes!("../../../tests/data/golden_tac_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_ans_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_seg_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_sz_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_ans_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_sz_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_ans_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_f32_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_sz_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_ans_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_seg_v4.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_sz_v4.tacd"),
];

/// The v5 siblings of the frozen files — what today's writer makes of
/// them, implied finest masks included.
const GOLDEN_V5: [&[u8]; 18] = [
    include_bytes!("../../../tests/data/golden_ans_v5.tacd"),
    include_bytes!("../../../tests/data/golden_auto_v5.tacd"),
    include_bytes!("../../../tests/data/golden_b1d_v5.tacd"),
    include_bytes!("../../../tests/data/golden_f32_v5.tacd"),
    include_bytes!("../../../tests/data/golden_lite_tac_v5.tacd"),
    include_bytes!("../../../tests/data/golden_lite_zmesh_v5.tacd"),
    include_bytes!("../../../tests/data/golden_tac_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_ans_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_seg_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_b1d_sz_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_ans_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_b3d_sz_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_ans_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_f32_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_tac_sz_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_ans_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_seg_v5.tacd"),
    include_bytes!("../../../tests/data/legacy_zmesh_sz_v5.tacd"),
];

/// `golden_tac_v5.tacd` with one sub-block origin rewritten onto its
/// group's first, as the writer serializes that (the group's header and
/// its chunk-table box agree): grammar, table and streams are all
/// intact, two regions of the fine level cover the same cells, and only
/// the decode can tell — it must refuse, at every worker count.
pub fn overlapping_groups() -> Vec<u8> {
    let golden = include_bytes!("../../../tests/data/golden_tac_v5.tacd");
    let mut cd = CompressedDataset::from_bytes(golden).expect("golden container parses");
    let MethodBody::Tac(levels) = &mut cd.body else {
        panic!("golden_tac_v5 is a TAC container");
    };
    let moved = levels.iter_mut().find_map(|l| match &mut l.payload {
        LevelPayload::Groups(groups) => groups.iter_mut().find(|g| g.origins.len() > 1),
        _ => None,
    });
    let group = moved.expect("golden_tac_v5 holds a group of several sub-blocks");
    let last = group.origins.len() - 1;
    group.origins[last] = group.origins[0];
    cd.to_bytes()
}

/// Builds the corpus the mutations start from: three small scenarios
/// under all four methods and every registered codec where it adds a
/// wire difference, as today's writer serializes them (v5), then the
/// `LEGACY` files for v1–v4 and their `GOLDEN_V5` siblings — all
/// valid — and, last, the hostile [`overlapping_groups`] seed.
pub fn corpus() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for name in ["tiny-extremes", "degenerate-corner", "spike-field"] {
        let spec = scenario(name).expect("registered scenario");
        let ds = spec.build(1);
        for codec in CodecId::all() {
            let cfg = TacConfig {
                codec,
                ..spec.config()
            };
            let cd = compress_dataset_t(&ds, &cfg, Method::Tac).expect("corpus compress");
            out.push(cd.to_bytes());
        }
        let cfg = spec.config();
        for method in [Method::Baseline1D, Method::ZMesh, Method::Baseline3D] {
            let cd = compress_dataset_t(&ds, &cfg, method).expect("corpus compress");
            out.push(cd.to_bytes());
        }
        // Adaptive selection: the winner is a normal fixed-method
        // container on the wire, but mixed per-level codec tags only
        // arise through this path, so mutations should start from one.
        let cd = compress_dataset_t(&ds, &cfg, Method::Auto).expect("corpus compress");
        out.push(cd.to_bytes());
    }
    // f32 containers join the corpus, so mutations reach the
    // dtype-validation paths too.
    for name in ["tiny-extremes-f32", "checkerboard-f32"] {
        let spec = scenario(name).expect("registered scenario");
        let ds = spec.build(1).cast::<f32>();
        for codec in CodecId::all() {
            let cfg = TacConfig {
                codec,
                ..spec.config()
            };
            let cd = tac_core::compress_dataset_t(&ds, &cfg, Method::Tac).expect("corpus compress");
            out.push(cd.to_bytes());
        }
        // An adaptively-selected f32 container joins the corpus too.
        let cd = tac_core::compress_dataset_t(&ds, &spec.config(), Method::Auto)
            .expect("corpus compress");
        out.push(cd.to_bytes());
    }
    out.extend(LEGACY.iter().chain(&GOLDEN_V5).map(|bytes| bytes.to_vec()));
    out.push(overlapping_groups());
    out
}

/// Probes one byte string through the whole decode surface, catching
/// panics. This is exactly what the fuzzer asserts on, and what the
/// pinned regression tests replay.
pub fn probe_container(bytes: &[u8]) -> ProbeResult {
    probe_with(|| {
        // Region decode must fail or succeed cleanly whatever the bytes
        // — through both monomorphizations.
        let _ = decompress_region_t::<f64>(bytes, Aabb::new((0, 0, 0), (2, 2, 2)));
        let _ = decompress_region_t::<f32>(bytes, Aabb::new((0, 0, 0), (2, 2, 2)));
        match CompressedDataset::from_bytes(bytes) {
            Err(_) => Err(()),
            // Decode at whatever element type the container declares.
            Ok(cd) => match decompress_dataset_any(&cd) {
                Err(_) => Err(()),
                Ok(AnyDataset::F64(ds)) => check_coherence(&cd, &ds),
                Ok(AnyDataset::F32(ds)) => check_coherence(&cd, &ds),
            },
        }
    })
}

/// Structural coherence of an accepted decode, at either element type.
fn check_coherence<T: Element>(
    cd: &CompressedDataset,
    ds: &tac_amr::AmrDataset<T>,
) -> Result<Option<String>, ()> {
    if ds.num_levels() != cd.num_levels() {
        return Ok(Some(format!(
            "decode produced {} levels for {} masks",
            ds.num_levels(),
            cd.num_levels()
        )));
    }
    for (l, level) in ds.levels().iter().enumerate() {
        let mask = &cd.masks[l];
        if mask.len() != level.num_cells() {
            return Ok(Some(format!("level {l}: mask/grid size mismatch")));
        }
        for i in 0..level.num_cells() {
            if !mask.get(i) && level.data()[i].to_f64() != 0.0 {
                return Ok(Some(format!("level {l}: absent cell {i} non-zero")));
            }
        }
    }
    // Accepted containers must re-serialize without panicking (the
    // writer trusts parsed state).
    let _ = cd.to_bytes();
    Ok(None)
}

/// Runs a probe body under `catch_unwind`, converting its three clean
/// outcomes (`Err(())` = rejected, `Ok(None)` = decoded, `Ok(Some(why))`
/// = incoherent) and any panic into a [`ProbeResult`]. Factored out of
/// [`probe_container`] so the panic-conversion path is testable.
fn probe_with(f: impl FnOnce() -> Result<Option<String>, ()>) -> ProbeResult {
    match catch_unwind(AssertUnwindSafe(f)) {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            ProbeResult::Panicked(msg)
        }
        Ok(Err(())) => ProbeResult::Rejected,
        Ok(Ok(None)) => ProbeResult::Decoded,
        Ok(Ok(Some(why))) => ProbeResult::Incoherent(why),
    }
}

/// Interesting integers for field overwrites: the values that historically
/// break length arithmetic.
const BOUNDARY_U64: [u64; 8] = [
    0,
    1,
    0x7F,
    0xFF,
    u32::MAX as u64,
    u64::MAX,
    u64::MAX - 1,
    1 << 40,
];

/// Applies one seeded mutation in place, returning its description.
fn mutate(bytes: &mut Vec<u8>, donor: &[u8], rng: &mut TestRng) -> String {
    if bytes.is_empty() {
        bytes.push(rng.next_u64() as u8);
        return "seed byte into empty input".into();
    }
    let len = bytes.len();
    match rng.below(13) {
        0 => {
            let i = rng.below(len);
            let bit = rng.below(8);
            bytes[i] ^= 1 << bit;
            format!("flip bit {bit} of byte {i}")
        }
        1 => {
            let i = rng.below(len);
            bytes[i] = if rng.chance(0.5) { 0x00 } else { 0xFF };
            format!("saturate byte {i}")
        }
        2 => {
            let i = rng.below(len);
            let v = BOUNDARY_U64[rng.below(BOUNDARY_U64.len())] as u32;
            let end = (i + 4).min(len);
            bytes[i..end].copy_from_slice(&v.to_le_bytes()[..end - i]);
            format!("u32 {v:#x} at {i}")
        }
        3 => {
            let i = rng.below(len);
            let v = BOUNDARY_U64[rng.below(BOUNDARY_U64.len())];
            let end = (i + 8).min(len);
            bytes[i..end].copy_from_slice(&v.to_le_bytes()[..end - i]);
            format!("u64 {v:#x} at {i}")
        }
        4 => {
            let cut = rng.below(len);
            bytes.truncate(cut);
            format!("truncate to {cut}")
        }
        5 => {
            let n = 1 + rng.below(32);
            for _ in 0..n {
                bytes.push(rng.next_u64() as u8);
            }
            format!("append {n} garbage bytes")
        }
        6 => {
            // Splice a donor range over a random position.
            let dn = donor.len().max(1);
            let src = rng.below(dn);
            let span = 1 + rng.below((dn - src).min(64));
            let dst = rng.below(len);
            let end = (dst + span).min(len);
            let take = end - dst;
            bytes[dst..end].copy_from_slice(&donor[src..src + take]);
            format!("splice {take} donor bytes at {dst}")
        }
        7 => {
            // Insert (shifting offsets) — desynchronizes every length field.
            let i = rng.below(len + 1);
            let n = 1 + rng.below(8);
            for k in 0..n {
                bytes.insert(i + k, rng.next_u64() as u8);
            }
            format!("insert {n} bytes at {i}")
        }
        8 => {
            // Targeted tail corruption: the chunk table and footer live
            // in the last bytes of a chunked container.
            let window = len.min(64);
            let i = len - window + rng.below(window);
            bytes[i] ^= (rng.next_u64() as u8) | 1;
            format!("tail corrupt byte {i}")
        }
        9 => {
            // Targeted dtype corruption: the v4+ header tag lives at byte
            // 6, and each v4+ chunk row carries its own tag. Half the
            // time hit the header; otherwise hunt a per-row tag.
            if len > 6 && rng.chance(0.5) {
                let v = [0u8, 1, 2, 9, 0xFF][rng.below(5)];
                bytes[6] = v;
                format!("header dtype byte = {v:#x}")
            } else if let Some(pos) = v4_row_dtype_pos(bytes, rng) {
                bytes[pos] ^= 1 + rng.below(255) as u8;
                format!("corrupt v4 row dtype byte at {pos}")
            } else {
                let i = rng.below(len);
                bytes[i] ^= 1;
                format!("flip low bit of byte {i}")
            }
        }
        10 => {
            // Targeted ANS corruption: hunt an embedded pco-ans stream
            // and corrupt the region just past its header — exception
            // count, first page's bin table, rANS seed states, renorm
            // word bytes — the decoder's drain/geometry checks must
            // catch all of it.
            if let Some(pos) = pco_ans_region_pos(bytes, rng) {
                bytes[pos] ^= 1 + rng.below(255) as u8;
                format!("corrupt pco-ans table/state byte at {pos}")
            } else {
                let i = rng.below(len);
                bytes[i] ^= 2;
                format!("flip bit 1 of byte {i}")
            }
        }
        11 => {
            // Targeted mask-mode corruption: claim the finest mask is
            // stored when it is implied (and the reverse), or a mode
            // that does not exist.
            if let Some(pos) = mask_mode_pos(bytes) {
                let v = [0u8, 1, 2, 0xFF][rng.below(4)];
                bytes[pos] = v;
                format!("mask mode byte = {v:#x}")
            } else {
                let i = rng.below(len);
                bytes[i] ^= 4;
                format!("flip bit 2 of byte {i}")
            }
        }
        _ => {
            // Targeted head corruption: version/method/dims/level count.
            let window = len.min(32);
            let i = rng.below(window);
            bytes[i] = rng.next_u64() as u8;
            format!("head corrupt byte {i}")
        }
    }
}

/// Picks a byte position inside an embedded pco-ans stream's ANS-table
/// / seed-state region, provided the container holds one. The stream is
/// located by sniffing its header, so this needs no private constants.
fn pco_ans_region_pos(bytes: &[u8], rng: &mut TestRng) -> Option<usize> {
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| tac_core::sniff_codec(&bytes[i..]) == Ok(CodecId::PcoAns))
        .collect();
    if starts.is_empty() {
        return None;
    }
    let start = starts[rng.below(starts.len())];
    // Skip the fixed stream header (magic, version, flags, rank) and
    // land within the next 96 bytes: dims/eb tail, exception count, the
    // first page's bin table, seed states, and leading renorm words.
    let lo = start.checked_add(7)?;
    let hi = start.checked_add(96)?.min(bytes.len());
    (lo < hi).then(|| lo + rng.below(hi - lo))
}

/// Locates the mask-mode byte, provided the bytes still look like a v5
/// header: it follows the fixed head, the name blob, the finest dim and
/// the level count.
pub fn mask_mode_pos(bytes: &[u8]) -> Option<usize> {
    if bytes.get(4) != Some(&5) {
        return None;
    }
    let name_len: [u8; 8] = bytes.get(7..15)?.try_into().ok()?;
    let pos = usize::try_from(u64::from_le_bytes(name_len))
        .ok()?
        .checked_add(15 + 8 + 1)?;
    (pos < bytes.len()).then_some(pos)
}

/// Locates the dtype byte of a random chunk row, provided the bytes
/// still look like an intact v4 or v5 chunked container (version byte,
/// in-bounds footer offset and row count).
fn v4_row_dtype_pos(bytes: &[u8], rng: &mut TestRng) -> Option<usize> {
    // Row layout: level u8, offset u64, len u64, codec u8, dtype u8, …
    const ROW_DTYPE_OFFSET: usize = 18;
    if bytes.len() < 13 || !matches!(bytes.get(4), Some(4 | 5)) {
        return None;
    }
    let footer: [u8; 8] = bytes[bytes.len() - 8..].try_into().ok()?;
    let table_pos = usize::try_from(u64::from_le_bytes(footer)).ok()?;
    let count_bytes: [u8; 4] = bytes.get(table_pos..table_pos + 4)?.try_into().ok()?;
    let count = u32::from_le_bytes(count_bytes) as usize;
    if count == 0 {
        return None;
    }
    let row = rng.below(count);
    let pos = table_pos
        .checked_add(4)?
        .checked_add(row.checked_mul(CHUNK_ROW_BYTES_V4)?)?
        .checked_add(ROW_DTYPE_OFFSET)?;
    (pos < bytes.len()).then_some(pos)
}

/// Runs the fuzzer. Deterministic in `cfg`: the same config replays the
/// same mutation schedule bit for bit.
pub fn fuzz_containers(cfg: &FuzzConfig) -> FuzzOutcome {
    let corpus = corpus();
    let mut rng = TestRng::new(cfg.seed);
    let mut outcome = FuzzOutcome {
        iterations: cfg.iterations,
        rejected: 0,
        accepted: 0,
        panics: Vec::new(),
        incoherent: Vec::new(),
    };
    for iteration in 0..cfg.iterations {
        let mut bytes = corpus[rng.below(corpus.len())].clone();
        let donor = &corpus[rng.below(corpus.len())];
        let rounds = 1 + rng.below(4);
        let mut trail = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            trail.push(mutate(&mut bytes, donor, &mut rng));
        }
        match probe_container(&bytes) {
            ProbeResult::Rejected => outcome.rejected += 1,
            ProbeResult::Decoded => outcome.accepted += 1,
            ProbeResult::Panicked(msg) => outcome.panics.push(FuzzCase {
                iteration,
                description: format!("panic: {msg}; trail: {}", trail.join(" -> ")),
                bytes,
            }),
            ProbeResult::Incoherent(msg) => outcome.incoherent.push(FuzzCase {
                iteration,
                description: format!("incoherent: {msg}; trail: {}", trail.join(" -> ")),
                bytes,
            }),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_items_all_probe_as_valid() {
        let corpus = corpus();
        let (hostile, valid) = corpus.split_last().unwrap();
        for (i, bytes) in valid.iter().enumerate() {
            assert_eq!(
                probe_container(bytes),
                ProbeResult::Decoded,
                "corpus item {i}"
            );
        }
        // The hostile seed parses (nothing on the wire is wrong), so the
        // rejection is the decode's.
        assert!(CompressedDataset::from_bytes(hostile).is_ok());
        assert_eq!(probe_container(hostile), ProbeResult::Rejected);
    }

    #[test]
    fn short_fuzz_run_is_clean_and_deterministic() {
        let cfg = FuzzConfig {
            iterations: 150,
            seed: 99,
        };
        let a = fuzz_containers(&cfg);
        assert!(a.clean(), "{}", a.summary());
        assert_eq!(a.rejected + a.accepted, 150);
        // Mutations overwhelmingly produce invalid containers.
        assert!(a.rejected > 100, "{}", a.summary());
        let b = fuzz_containers(&cfg);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn ans_mutation_arm_finds_embedded_pco_ans_streams() {
        // At least one corpus item embeds a pco-ans stream, and the
        // targeted arm must be able to land inside it.
        let mut rng = TestRng::new(7);
        let hits = corpus()
            .iter()
            .filter(|bytes| pco_ans_region_pos(bytes, &mut rng).is_some())
            .count();
        assert!(hits > 0, "no corpus item embeds a pco-ans stream");
        // And a container with no such stream yields None.
        let mut rng = TestRng::new(7);
        assert_eq!(pco_ans_region_pos(b"no magic here at all", &mut rng), None);
    }

    #[test]
    fn probe_converts_panics_instead_of_propagating() {
        // The shared wrapper — the exact code path probe_container runs
        // on a panicking decode — must convert, not propagate.
        assert_eq!(
            probe_with(|| panic!("boom")),
            ProbeResult::Panicked("boom".into())
        );
        assert_eq!(
            probe_with(|| panic!("{} {}", "formatted", 7)),
            ProbeResult::Panicked("formatted 7".into())
        );
        assert_eq!(
            probe_with(|| Ok(Some("bad shape".into()))),
            ProbeResult::Incoherent("bad shape".into())
        );
        // And a garbage input is merely rejected.
        assert_eq!(
            probe_container(b"definitely not a container"),
            ProbeResult::Rejected
        );
        assert_eq!(probe_container(&[]), ProbeResult::Rejected);
    }
}
