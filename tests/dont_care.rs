//! Don't-care cells are don't-care: TAC's writer passes each level's
//! occupancy to the codec as a care mask, so what an absent cell holds
//! — zero fill, GSP ghost, junk — never reaches the container.
//!
//! Every testkit scenario, at its declared element type, is compressed
//! twice under `Method::Tac` for every forced strategy x codec x worker
//! count: once as generated, once with every absent cell rewritten to
//! ±1e30, NaN or noise. The two containers must be byte-identical. The
//! dataset keeps its name, which the container stores.

use tac_amr::{AmrDataset, AmrLevel};
use tac_bench::testkit::{scenario, scenarios, ScenarioSpec};
use tac_core::{
    compress_dataset_t, CodecElement, CodecId, Method, Parallelism, Strategy, TacConfig, TacDtype,
};

const STRATEGIES: [Strategy; 5] = [
    Strategy::ZeroFill,
    Strategy::Gsp,
    Strategy::NaST,
    Strategy::OpST,
    Strategy::AkdTree,
];

const PARALLELISM: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(2)];

/// `ds` with every absent cell of every level rewritten to junk: ±1e30,
/// NaN, or hash noise of a few thousand.
fn with_junk<T: CodecElement>(ds: &AmrDataset<T>) -> AmrDataset<T> {
    let levels = ds
        .levels()
        .iter()
        .enumerate()
        .map(|(l, level)| {
            let mut junked = level.clone();
            let mask = level.mask().clone();
            for (i, v) in junked.data_mut().iter_mut().enumerate() {
                if mask.get(i) {
                    continue;
                }
                let h = ((i as u64) << 8 | l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                let noise = (h as f64 / (1u64 << 53) as f64 - 0.5) * 6e3;
                *v = T::from_f64(match i % 4 {
                    0 => 1e30,
                    1 => -1e30,
                    2 => f64::NAN,
                    _ => noise,
                });
            }
            junked
        })
        .collect::<Vec<AmrLevel<T>>>();
    let junked = AmrDataset::new(ds.name(), levels);
    junked
        .validate()
        .expect("junk in absent cells keeps the tree valid");
    junked
}

/// Compresses the scenario clean and junked for every strategy, codec
/// and worker count; returns how many cells compressed (both sides
/// agreeing on an error is a cell too, but not a compressed one).
fn check_scenario<T: CodecElement>(spec: &ScenarioSpec, clean: &AmrDataset<T>) -> usize {
    let junked = with_junk(clean);
    let mut compressed = 0;
    for strategy in STRATEGIES {
        for codec in CodecId::all() {
            for parallelism in PARALLELISM {
                let cfg = TacConfig {
                    forced_strategy: Some(strategy),
                    codec,
                    parallelism,
                    ..spec.config()
                };
                let write = |ds: &AmrDataset<T>| {
                    compress_dataset_t(ds, &cfg, Method::Tac)
                        .map(|cd| cd.to_bytes())
                        .map_err(|e| e.to_string())
                };
                let (a, b) = (write(clean), write(&junked));
                let what = format!("{} {strategy:?} {codec} {parallelism:?}", spec.name);
                assert!(a == b, "{what}: absent cells reached the container");
                compressed += usize::from(a.is_ok());
            }
        }
    }
    compressed
}

#[test]
fn absent_cells_never_reach_the_container() {
    let (mut cells, mut compressed, mut junked) = (0, 0, 0);
    for spec in scenarios() {
        let ds = spec.build(11);
        if ds.levels().iter().any(|l| l.num_present() < l.num_cells()) {
            junked += 1;
        }
        compressed += match spec.dtype {
            TacDtype::F32 => check_scenario(&spec, &ds.cast::<f32>()),
            TacDtype::F64 => check_scenario(&spec, &ds),
        };
        cells += STRATEGIES.len() * CodecId::all().len() * PARALLELISM.len();
    }
    assert!(junked >= 10, "only {junked} scenarios have absent cells");
    assert!(cells >= 260, "only {cells} cells");
    assert!(
        compressed * 10 >= cells * 9,
        "{compressed} of {cells} cells compressed"
    );
}

/// GSP's ghost shell fills only absent cells, which are don't-care, so a
/// forced-GSP container carries exactly the payload of a forced-ZeroFill
/// one (only the strategy tags differ).
#[test]
fn gsp_and_zero_fill_write_the_same_payload() {
    for spec in scenarios() {
        let ds = spec.build(5);
        for codec in CodecId::all() {
            let write = |strategy| {
                let cfg = TacConfig {
                    forced_strategy: Some(strategy),
                    codec,
                    ..spec.config()
                };
                match spec.dtype {
                    TacDtype::F32 => compress_dataset_t(&ds.cast::<f32>(), &cfg, Method::Tac),
                    TacDtype::F64 => compress_dataset_t(&ds, &cfg, Method::Tac),
                }
                .map(|cd| cd.payload_bytes())
                .map_err(|e| e.to_string())
            };
            let (gsp, zero_fill) = (write(Strategy::Gsp), write(Strategy::ZeroFill));
            assert_eq!(gsp, zero_fill, "{} {codec}", spec.name);
        }
    }
}

/// SZ codes a cell-granular checkerboard about twice as large with its
/// absent cells don't-care (3,613 -> 7,812 B at seed 7, f32 3,617 ->
/// 7,671 B): every axis neighbour of a present cell is don't-care and
/// reconstructs as its own prediction, so Lorenzo predicts present
/// cells from predictions, and no regression block is eligible.
/// `Method::Auto` picks zMesh there, so only a forced TAC·sz write shows
/// it. This holds the forced write at its size until the SZ encoder
/// picks better don't-care values (ROADMAP item 1).
#[test]
fn checkerboard_tac_sz_does_not_grow() {
    for (name, limit) in [("checkerboard", 7_812), ("checkerboard-f32", 7_671)] {
        let spec = scenario(name).expect("registered scenario");
        let ds = spec.build(7);
        let cfg = TacConfig {
            codec: CodecId::Sz,
            ..spec.config()
        };
        let cd = match spec.dtype {
            TacDtype::F32 => compress_dataset_t(&ds.cast::<f32>(), &cfg, Method::Tac),
            TacDtype::F64 => compress_dataset_t(&ds, &cfg, Method::Tac),
        }
        .expect("TAC·sz compresses the checkerboard");
        let bytes = cd.to_bytes().len();
        assert!(
            bytes <= limit,
            "{name}: TAC·sz wrote {bytes} B, more than {limit} B"
        );
    }
}
