//! The five workloads and the inputs they run on.
//!
//! `--seed` reaches nothing but [`generate`]: the library only ever sees
//! the datasets built here.

use tac_amr::{Aabb, AmrDataset, AmrLevel};
use tac_codec::{CodecId, Element, ErrorBound, TacDtype};
use tac_core::{Method, Parallelism, TacConfig};
use tac_nyx::FieldKind;

/// Unit-block side every workload compresses with.
pub const UNIT: usize = 8;
/// Error bound every workload compresses at, relative to the value range.
pub const REL_EB: f64 = 1e-3;
/// The Nyx field every input holds. A relative bound follows the value
/// range, and the range of `tac-nyx`'s density fields follows the tallest
/// injected halo peak, which differs 4x between seeds: on baryon density
/// `compression_ratio` moved by up to 30% from one seed to the next and
/// `Method::Auto` flipped method. The velocity field is a pure Gaussian
/// random field whose range repeats within a few percent.
pub const FIELD: FieldKind = FieldKind::VelocityX;
/// `--smoke` divides every grid side by this (scales 2/4 become 16/32).
const SMOKE_SHRINK: usize = 8;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `tac_nyx` catalog entry the input is generated from.
    pub entry: &'static str,
    /// Divisor of the paper's grid side.
    pub scale: usize,
    pub method: Method,
    pub codec: CodecId,
    pub dtype: TacDtype,
    pub workers: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "z10_tac",
        why: "Paper's flagship path: OpST + GSP pre-process, ~160 small group streams and engine glue share the wall with the codec.",
        entry: "Run1_Z10",
        scale: 2,
        method: Method::Tac,
        codec: CodecId::PcoAns,
        dtype: TacDtype::F64,
        workers: 1,
    },
    Workload {
        name: "z10_tac_w2",
        why: "Same input and config as z10_tac on 2 workers: only tac-par and the serial fraction differ; bytes must match.",
        entry: "Run1_Z10",
        scale: 2,
        method: Method::Tac,
        codec: CodecId::PcoAns,
        dtype: TacDtype::F64,
        workers: 2,
    },
    Workload {
        name: "z3_1d_f32",
        why: "Two long flat f32 streams, no pre-process: the codec kernel does most of the work; engine changes should not show.",
        entry: "Run1_Z3",
        scale: 2,
        method: Method::Baseline1D,
        codec: CodecId::PcoAns,
        dtype: TacDtype::F32,
        workers: 1,
    },
    Workload {
        name: "t4_tac_sz",
        why: "Deep 4-level hierarchy at 0.3% occupancy on SZ: masks, block grids and dense level buffers own the wall, not the codec.",
        entry: "Run2_T4",
        scale: 4,
        method: Method::Tac,
        codec: CodecId::Sz,
        dtype: TacDtype::F64,
        workers: 1,
    },
    Workload {
        name: "z5_auto",
        why: "Method::Auto in its sampled regime at 160x the exhaustive limit, then the order/gather path and one big stream.",
        entry: "Run1_Z5",
        scale: 2,
        method: Method::Auto,
        codec: CodecId::PcoAns,
        dtype: TacDtype::F64,
        workers: 1,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn scale_for(&self, smoke: bool) -> usize {
        if smoke {
            self.scale * SMOKE_SHRINK
        } else {
            self.scale
        }
    }

    /// Generates the input at `f64`, as `tac-nyx` produces it.
    pub fn generate(&self, seed: u64, smoke: bool) -> AmrDataset {
        tac_nyx::entry(self.entry)
            .expect("workload names a catalog entry")
            .generate(FIELD, self.scale_for(smoke), seed)
    }

    pub fn parallelism(&self) -> Parallelism {
        match self.workers {
            1 => Parallelism::Serial,
            n => Parallelism::Threads(n),
        }
    }

    /// The configuration the workload compresses a `fine`-sided input
    /// with.
    pub fn config(&self, fine: usize) -> TacConfig {
        TacConfig::with_error_bound(ErrorBound::Rel(REL_EB))
            .with_unit(UNIT)
            .with_codec(self.codec)
            .with_roi_tile((fine / 4).max(1))
            .with_parallelism(self.parallelism())
    }
}

/// The region-of-interest box of a `fine`-sided dataset: the `fine/4`
/// cube at offset `fine/8 + 3` on each axis — 1/64 of the volume,
/// deliberately not aligned to the `fine/4` ROI tiles.
pub fn roi_box(fine: usize) -> Aabb {
    let lo = fine / 8 + 3;
    let hi = (lo + fine / 4).min(fine);
    Aabb::new((lo, lo, lo), (hi, hi, hi))
}

/// Converts every value of `ds` to `U` (IEEE round-to-nearest when
/// narrowing, exact when widening); masks are kept.
pub fn convert<T: Element, U: Element>(ds: &AmrDataset<T>) -> AmrDataset<U> {
    let levels = ds
        .levels()
        .iter()
        .map(|l| {
            let data = l.data().iter().map(|v| U::from_f64(v.to_f64())).collect();
            AmrLevel::new(l.dim(), data, l.mask().clone())
        })
        .collect();
    AmrDataset::new(ds.name(), levels)
}

/// Bytes of the present values at native width — the numerator of every
/// throughput and of `compression_ratio`.
pub fn present_bytes<T: Element>(ds: &AmrDataset<T>) -> usize {
    ds.total_present() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(tac_nyx::entry(w.entry).is_some(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn roi_box_is_a_64th_and_unaligned() {
        let b = roi_box(256);
        assert_eq!((b.min, b.max), ((35, 35, 35), (99, 99, 99)));
        assert_eq!(b.volume() * 64, 256 * 256 * 256);
        assert_ne!(b.min.0 % 64, 0);
        assert_eq!(roi_box(32).min, (7, 7, 7));
    }

    #[test]
    fn narrowing_keeps_masks_and_rounds_values() {
        let ds = WORKLOADS[2].generate(14, true);
        let narrow: AmrDataset<f32> = convert(&ds);
        assert_eq!(narrow.total_present(), ds.total_present());
        assert_eq!(present_bytes(&narrow) * 2, present_bytes(&ds));
        let wide: AmrDataset<f64> = convert(&narrow);
        for (a, b) in ds.levels().iter().zip(wide.levels()) {
            assert_eq!(a.mask(), b.mask());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(*x as f32 as f64, *y);
            }
        }
    }
}
