//! The untraced pass: compress → decompress → ROI reps on one workload,
//! timed from outside, every output checked.

use crate::stats::Summary;
use crate::workloads::{convert, present_bytes, roi_box, Workload};
use std::hint::black_box;
use std::time::Instant;
use tac_amr::{Aabb, AmrDataset};
use tac_codec::{CodecElement, Element};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, decompress_region_t, resolve_level_eb_for,
    CompressedDataset, Method, Parallelism, TacConfig, TacError,
};

/// How long the timed reps run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Reps continue until this much wall time has passed …
    pub seconds: f64,
    /// … and at least this many are done.
    pub min_reps: usize,
}

/// Operations attempted and failed. An operation fails when the library
/// returns an error or any check on its output misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Counts operations of one workload and prints every miss.
pub struct Ops<'a> {
    workload: &'a str,
    pub tally: Tally,
}

impl<'a> Ops<'a> {
    pub fn new(workload: &'a str) -> Self {
        Ops {
            workload,
            tally: Tally::default(),
        }
    }

    /// Runs and times one library call. An `Err` is a failed operation.
    pub fn call<R>(
        &mut self,
        op: &str,
        rep: usize,
        f: impl FnOnce() -> Result<R, TacError>,
    ) -> Option<(R, f64)> {
        self.tally.attempted += 1;
        let start = Instant::now();
        let result = f();
        let seconds = start.elapsed().as_secs_f64();
        match result {
            Ok(value) => Some((value, seconds)),
            Err(e) => {
                self.miss(op, rep, &e.to_string());
                None
            }
        }
    }

    /// Fails the already-counted operation `op` if `check` missed.
    pub fn check(&mut self, op: &str, rep: usize, check: Result<(), String>) {
        if let Err(why) = check {
            self.miss(op, rep, &why);
        }
    }

    fn miss(&mut self, op: &str, rep: usize, why: &str) {
        self.tally.failed += 1;
        println!("FAILED {} rep {rep} {op}: {why}", self.workload);
    }
}

/// What the untraced pass measured on one workload.
pub struct EndToEnd {
    pub compress_s: Vec<f64>,
    pub decompress_s: Vec<f64>,
    pub roi_s: Vec<f64>,
    pub input_bytes: usize,
    pub container_bytes: usize,
    pub psnr_db: f64,
    pub tally: Tally,
}

impl EndToEnd {
    /// Summaries of the three timed operations, in rep order of the
    /// loop: compress, decompress, ROI. `None` before any rep finished.
    pub fn timings(&self) -> Option<[Summary; 3]> {
        Some([
            Summary::of(&self.compress_s)?,
            Summary::of(&self.decompress_s)?,
            Summary::of(&self.roi_s)?,
        ])
    }
}

/// The absolute error bound each level must be reconstructed within,
/// resolved by the benchmark from the configuration and the input, not
/// read back from the container. An absolute bound is itself on every
/// level; a relative one resolves against the level's own range under the
/// per-level methods and against the range of the whole dataset under
/// the single-stream ones.
pub fn expected_bounds<T: Element>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    method: Method,
) -> Result<Vec<f64>, TacError> {
    let whole = ds
        .levels()
        .iter()
        .filter_map(|l| l.value_range())
        .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
    ds.levels()
        .iter()
        .enumerate()
        .map(|(l, level)| {
            if level.num_present() == 0 {
                return Ok(0.0);
            }
            let range = match method {
                Method::Tac | Method::Baseline1D => level.value_range(),
                _ => whole,
            };
            resolve_level_eb_for(T::DTYPE, cfg.error_bound, cfg.level_scale(l), range)
        })
        .collect()
}

fn cell(dim: usize, i: usize) -> (usize, usize, usize) {
    (i % dim, (i / dim) % dim, i / (dim * dim))
}

/// Every present finite cell within its level's bound, every present
/// non-finite cell bit-exact, masks unchanged.
pub fn check_bound<T: Element>(
    original: &AmrDataset<T>,
    decoded: &AmrDataset<T>,
    bounds: &[f64],
) -> Result<(), String> {
    if decoded.num_levels() != original.num_levels() {
        return Err(format!(
            "{} levels decoded, {} given",
            decoded.num_levels(),
            original.num_levels()
        ));
    }
    for (l, (a, b)) in original.levels().iter().zip(decoded.levels()).enumerate() {
        if a.mask() != b.mask() {
            return Err(format!("level {l}: occupancy mask changed"));
        }
        let eb = bounds[l];
        for i in a.mask().iter_ones() {
            let (x, y) = (a.data()[i], b.data()[i]);
            let held = if x.is_finite() {
                (x.to_f64() - y.to_f64()).abs() <= eb
            } else {
                x.to_bits_u64() == y.to_bits_u64()
            };
            if !held {
                return Err(format!(
                    "level {l} cell {:?}: {} decoded as {}, bound {eb}",
                    cell(a.dim(), i),
                    x.to_f64(),
                    y.to_f64()
                ));
            }
        }
    }
    Ok(())
}

/// The ROI decode equals the full decode, bit for bit, on every cell of
/// every level that the box touches.
pub fn check_roi<T: Element>(
    roi: &AmrDataset<T>,
    full: &AmrDataset<T>,
    region: Aabb,
) -> Result<(), String> {
    if roi.num_levels() != full.num_levels() {
        return Err(format!(
            "{} levels in the ROI decode, {} in the full one",
            roi.num_levels(),
            full.num_levels()
        ));
    }
    let fine = full.finest_dim();
    for (l, (r, f)) in roi.levels().iter().zip(full.levels()).enumerate() {
        if r.dim() != f.dim() {
            return Err(format!(
                "level {l}: side {} in the ROI decode, {} in the full one",
                r.dim(),
                f.dim()
            ));
        }
        let b = region.coarsen(fine / f.dim());
        for z in b.min.2..b.max.2.min(f.dim()) {
            for y in b.min.1..b.max.1.min(f.dim()) {
                for x in b.min.0..b.max.0.min(f.dim()) {
                    let (got, want) = (r.value(x, y, z), f.value(x, y, z));
                    if got.to_bits_u64() != want.to_bits_u64() {
                        return Err(format!(
                            "level {l} cell {:?}: ROI decode {} but full decode {}",
                            (x, y, z),
                            got.to_f64(),
                            want.to_f64()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Both decodes hold the same bits in every cell of every level.
pub fn check_same<T: Element>(got: &AmrDataset<T>, first: &AmrDataset<T>) -> Result<(), String> {
    if got.num_levels() != first.num_levels() {
        return Err(format!(
            "{} levels, rep 0 had {}",
            got.num_levels(),
            first.num_levels()
        ));
    }
    for (l, (a, b)) in got.levels().iter().zip(first.levels()).enumerate() {
        let differs = |(x, y): (&T, &T)| x.to_bits_u64() != y.to_bits_u64();
        if a.dim() != b.dim() {
            return Err(format!(
                "level {l}: side {}, rep 0 had {}",
                a.dim(),
                b.dim()
            ));
        }
        if let Some(i) = a.data().iter().zip(b.data()).position(differs) {
            return Err(format!(
                "level {l} cell {:?}: {} but rep 0 decoded {}",
                cell(a.dim(), i),
                a.data()[i].to_f64(),
                b.data()[i].to_f64()
            ));
        }
    }
    Ok(())
}

fn check_bytes(got: &[u8], want: &[u8], what: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "container of {} bytes differs from {what} ({} bytes) at offset {at}",
        got.len(),
        want.len()
    ))
}

/// The outputs of one rep.
struct Rep<T: Element> {
    bytes: Vec<u8>,
    full: AmrDataset<T>,
    roi: AmrDataset<T>,
}

/// One compress → decompress → ROI rep. `None` when an operation
/// returned an error (already counted).
fn rep<T: CodecElement>(
    ops: &mut Ops<'_>,
    index: usize,
    w: &Workload,
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    region: Aabb,
) -> Option<(Rep<T>, Method, [f64; 3])> {
    let ((method, bytes), compress_s) = ops.call("compress", index, || {
        let cd = compress_dataset_t(black_box(ds), cfg, w.method)?;
        Ok((cd.method(), cd.to_bytes()))
    })?;
    let (full, decompress_s) = ops.call("decompress", index, || {
        let cd = CompressedDataset::from_bytes(black_box(&bytes))?;
        decompress_dataset_par_t::<T>(&cd, w.parallelism())
    })?;
    let ((roi, _), roi_s) = ops.call("roi", index, || {
        decompress_region_t::<T>(black_box(&bytes), region)
    })?;
    Some((
        Rep { bytes, full, roi },
        method,
        [compress_s, decompress_s, roi_s],
    ))
}

/// Runs the untraced pass of `w` on `ds`: rep 0 untimed and fully
/// checked, then timed reps held to rep 0's outputs.
pub fn end_to_end<T: CodecElement>(
    w: &Workload,
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    budget: Budget,
) -> EndToEnd {
    let region = roi_box(ds.finest_dim());
    let mut ops = Ops::new(w.name);
    let mut out = EndToEnd {
        compress_s: Vec::new(),
        decompress_s: Vec::new(),
        roi_s: Vec::new(),
        input_bytes: present_bytes(ds),
        container_bytes: 0,
        psnr_db: 0.0,
        tally: Tally::default(),
    };

    // Rep 0 pays the first-touch costs (page faults, allocator growth),
    // so its times are dropped; its outputs are the reference.
    if let Some((first, method, _)) = rep(&mut ops, 0, w, ds, cfg, region) {
        // Output must not depend on the worker count: a multi-worker
        // workload is held to the bytes one worker writes.
        if w.workers > 1 {
            let serial = TacConfig {
                parallelism: Parallelism::Serial,
                ..cfg.clone()
            };
            let same = match compress_dataset_t(ds, &serial, w.method) {
                Ok(cd) => check_bytes(&first.bytes, &cd.to_bytes(), "the 1-worker container"),
                Err(e) => Err(format!("1-worker compress: {e}")),
            };
            ops.check("compress", 0, same);
        }
        let held = expected_bounds(ds, cfg, method)
            .map_err(|e| e.to_string())
            .and_then(|bounds| check_bound(ds, &first.full, &bounds));
        if held.is_ok() {
            out.psnr_db = tac_analysis::amr_distortion(&convert(ds), &convert(&first.full)).psnr;
        }
        ops.check("decompress", 0, held);
        ops.check("roi", 0, check_roi(&first.roi, &first.full, region));
        out.container_bytes = first.bytes.len();

        let started = Instant::now();
        for index in 1.. {
            if index > budget.min_reps && started.elapsed().as_secs_f64() >= budget.seconds {
                break;
            }
            let Some((this, _, [compress_s, decompress_s, roi_s])) =
                rep(&mut ops, index, w, ds, cfg, region)
            else {
                break;
            };
            out.compress_s.push(compress_s);
            out.decompress_s.push(decompress_s);
            out.roi_s.push(roi_s);
            ops.check(
                "compress",
                index,
                check_bytes(&this.bytes, &first.bytes, "rep 0's"),
            );
            ops.check("decompress", index, check_same(&this.full, &first.full));
            ops.check("roi", index, check_same(&this.roi, &first.roi));
        }
    }
    out.tally = ops.tally;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use tac_amr::AmrLevel;
    use tac_codec::ErrorBound;

    /// `ds` with `f` applied to the data of level `l`.
    fn with_level(ds: &AmrDataset, l: usize, f: impl FnOnce(&mut AmrLevel)) -> AmrDataset {
        let mut levels = ds.levels().to_vec();
        f(&mut levels[l]);
        AmrDataset::new(ds.name(), levels)
    }

    #[test]
    fn bound_check_names_the_one_bad_cell() {
        let ds = WORKLOADS[0].generate(14, true);
        let bounds = [0.5, 0.5];
        assert_eq!(check_bound(&ds, &ds, &bounds), Ok(()));
        let at = ds.levels()[1].mask().iter_ones().nth(7).unwrap();
        let inside = with_level(&ds, 1, |l| l.data_mut()[at] += 0.5);
        assert_eq!(check_bound(&ds, &inside, &bounds), Ok(()));
        let outside = with_level(&ds, 1, |l| l.data_mut()[at] += 1.0);
        let why = check_bound(&ds, &outside, &bounds).unwrap_err();
        assert!(
            why.starts_with(&format!("level 1 cell {:?}", cell(16, at))),
            "{why}"
        );

        // Non-finite cells must come back bit-exact; absent cells may hold anything.
        let nan = with_level(&ds, 0, |l| {
            let i = l.mask().iter_ones().next().unwrap();
            l.data_mut()[i] = f64::NAN;
        });
        assert_eq!(check_bound(&nan, &nan, &bounds), Ok(()));
        assert!(check_bound(&nan, &ds, &bounds).is_err());
        let absent = (0..ds.finest().num_cells())
            .find(|&i| !ds.finest().mask().get(i))
            .unwrap();
        let junk = with_level(&ds, 0, |l| l.data_mut()[absent] = 1e300);
        assert_eq!(check_bound(&ds, &junk, &bounds), Ok(()));
    }

    #[test]
    fn roi_check_looks_inside_the_box_on_every_level() {
        let ds = WORKLOADS[0].generate(14, true);
        let region = roi_box(ds.finest_dim());
        assert_eq!(check_roi(&ds, &ds, region), Ok(()));
        // (7, 7, 7) is the box's first cell at the finest level, (3, 3, 3)
        // at the next; (0, 0, 0) is outside on both.
        for (l, inside) in [(0, 7usize), (1, 3)] {
            let dim = ds.levels()[l].dim();
            let at = inside * (1 + dim + dim * dim);
            let off = with_level(&ds, l, |lvl| lvl.data_mut()[at] += 1.0);
            let why = check_roi(&off, &ds, region).unwrap_err();
            assert!(
                why.starts_with(&format!("level {l} cell ({inside}, {inside}, {inside})")),
                "{why}"
            );
            let elsewhere = with_level(&ds, l, |lvl| lvl.data_mut()[0] += 1.0);
            assert_eq!(check_roi(&elsewhere, &ds, region), Ok(()));
            assert!(check_same(&elsewhere, &ds)
                .unwrap_err()
                .starts_with(&format!("level {l} cell (0, 0, 0)")));
        }
        assert_eq!(check_same(&ds, &ds), Ok(()));
    }

    #[test]
    fn expected_bounds_follow_the_method() {
        let ds = WORKLOADS[0].generate(14, true);
        let rel = WORKLOADS[0].config(ds.finest_dim());
        assert_eq!(rel.error_bound, ErrorBound::Rel(1e-3));
        let abs = TacConfig {
            error_bound: ErrorBound::Abs(2.5),
            ..rel.clone()
        };
        assert_eq!(expected_bounds(&ds, &abs, Method::Tac).unwrap(), [2.5, 2.5]);

        let range = |l: usize| {
            let (lo, hi) = ds.levels()[l].value_range().unwrap();
            hi - lo
        };
        let per_level = expected_bounds(&ds, &rel, Method::Baseline1D).unwrap();
        assert_eq!(per_level, [1e-3 * range(0), 1e-3 * range(1)]);
        let whole = expected_bounds(&ds, &rel, Method::ZMesh).unwrap();
        assert_eq!(whole[0], whole[1]);
        assert!(whole[0] >= per_level[0].max(per_level[1]));
    }

    #[test]
    fn ops_count_errors_and_missed_checks() {
        let mut ops = Ops::new("w");
        assert_eq!(ops.call("compress", 0, || Ok(3)).map(|(v, _)| v), Some(3));
        assert!(ops
            .call::<()>("roi", 0, || Err(TacError::Corrupt("x".into())))
            .is_none());
        ops.check("compress", 0, Ok(()));
        ops.check("compress", 0, Err("bytes differ".into()));
        assert_eq!(
            ops.tally,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
        assert!(check_bytes(b"abc", b"abd", "rep 0's")
            .unwrap_err()
            .contains("offset 2"));
        assert!(check_bytes(b"abc", b"abcd", "rep 0's")
            .unwrap_err()
            .contains("offset 3"));
    }
}
