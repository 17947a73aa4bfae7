//! zMesh-style geometric reordering (baseline; paper Sec. 2.3.1 and
//! Fig. 16).
//!
//! zMesh places points that map to the same or adjacent geometric
//! coordinates next to each other in one 1D stream across all AMR levels.
//! For tree-based data the natural generalization is a depth-first octree
//! walk, which interleaves the levels by geometry exactly as zMesh
//! interleaves patch-based data.
//!
//! # The order contract
//!
//! Levels are fine to coarse; level `l` has side `finest_dim >> l`.
//! The traversal visits the coarsest level in row-major order (`x`
//! fastest). A present cell is emitted; a cell that is absent at its
//! level is replaced *in place* by its 2x2x2 children at the next finer
//! level, in `dz, dy, dx`-major order (`dx` fastest), each child treated
//! the same way. A finest-level position that no level covers is
//! skipped. On valid tree-based AMR this enumerates every present cell
//! exactly once; on invalid masks (holes, a cell present at two levels)
//! it is still well defined, and compress and decode walk it alike.
//!
//! There is one implementation, [`walk`]: it streams the traversal as
//! `(level, start, len)` pieces of flat indices — whole mask runs on the
//! coarsest level, sibling pairs below it — and the pipeline gathers and
//! scatters straight between the level buffers and the codec stream
//! through [`gather_walk`] / [`scatter_walk`], never materialising a
//! per-value order. [`zmesh_order`] is the analysis/test view of the
//! same walker (one `(level, index)` entry per value), with [`gather`]
//! and [`scatter`] as its explicit-order companions.
//!
//! # Plane ranges
//!
//! The walk takes a range of **z-planes of the coarsest level** and
//! visits only the coarsest cells of those planes, in the same order.
//! Because children sit inside their parent, the planes `[z0, z1)` are a
//! union of whole octree subtrees: with `s = 2^(levels - 1 - l)` the
//! scale of level `l` to the coarsest and `d` its side, the walk touches
//! exactly the flat range `[z0·s·d², z1·s·d²)` of level `l` ([`slab`])
//! and nothing else, and the traversal of all planes is the
//! concatenation of the traversals of any split of them. That is what
//! lets `crate::segment` cut one traversal into independently coded
//! segments whose decodes write disjoint slices of every level buffer.
//!
//! The paper's finding — that this *hurts* tree-based data because level
//! transitions inject value jumps the per-level 1D baseline never sees —
//! is reproduced by the `fig16_reorder_demo` harness.

use crate::error::TacError;
use std::ops::ControlFlow::{self, Break, Continue};
use std::ops::Range;
use tac_amr::{Aabb, BitMask, Runs};
use tac_dtype::Element;

/// One entry of the traversal: `(level, flat index within that level)`.
pub type ZmeshEntry = (usize, usize);

/// Side of level `l`, zero once `l` shifts the finest side away.
pub(crate) fn level_dim(finest_dim: usize, l: usize) -> usize {
    u32::try_from(l)
        .ok()
        .and_then(|shift| finest_dim.checked_shr(shift))
        .unwrap_or(0)
}

/// `2^steps`: the cells of a level, along one axis, per cell of the
/// level `steps` coarser. `None` when that overflows.
pub(crate) fn refinement(steps: usize) -> Option<usize> {
    1usize.checked_shl(u32::try_from(steps).ok()?)
}

/// Every plane of the coarsest level, whatever its side ([`walk`] clips).
pub(crate) const ALL_PLANES: Range<usize> = 0..usize::MAX;

/// The flat index range of level `l` that the z-planes `planes` of the
/// coarsest of `levels` levels cover: `[z0·s·d², z1·s·d²)` with `s` the
/// scale of level `l` to the coarsest and `d` its side, planes clipped to
/// the grid. `None` when `l` is not one of the levels or the products
/// overflow (the sides come off the wire).
pub(crate) fn slab(
    finest_dim: usize,
    levels: usize,
    l: usize,
    planes: &Range<usize>,
) -> Option<Range<usize>> {
    let coarsest = levels.checked_sub(1)?;
    let scale = refinement(coarsest.checked_sub(l)?)?;
    let cdim = level_dim(finest_dim, coarsest);
    let dim = level_dim(finest_dim, l);
    let thick = scale.checked_mul(dim)?.checked_mul(dim)?;
    let from = planes.start.min(cdim).checked_mul(thick)?;
    let to = planes.end.min(cdim).checked_mul(thick)?;
    Some(from..to.max(from))
}

/// Streams the zMesh traversal of the z-planes `planes` of the coarsest
/// level of a level stack described by its occupancy masks (fine to
/// coarse) as `(level, start, len)` pieces: `len` consecutive flat
/// indices of `level`, all present, in traversal order. `emit` may stop
/// the walk early with `Break`. Never panics: planes beyond the grid are
/// clipped and mask bits beyond a mask's length read as absent.
pub(crate) fn walk<B>(
    masks: &[&BitMask],
    finest_dim: usize,
    planes: Range<usize>,
    mut emit: impl FnMut(usize, usize, usize) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let Some((mask, finer)) = masks.split_last() else {
        return Continue(());
    };
    let coarsest = finer.len();
    let Some(cells) = slab(finest_dim, masks.len(), coarsest, &planes) else {
        return Continue(());
    };
    // Each run of present cells is one piece; the absent cells between
    // runs descend.
    let mut at = cells.start;
    for (start, len) in mask.runs_in(cells.start, cells.len()) {
        descend(masks, finest_dim, coarsest, at..start, &mut emit)?;
        emit(coarsest, start, len)?;
        at = start.saturating_add(len);
    }
    descend(masks, finest_dim, coarsest, at..cells.end, &mut emit)
}

/// Answers "is bit `i` set?" for non-decreasing `i` inside one bit range
/// of a mask, holding one run at a time — so a stretch of present (or
/// absent) cells costs two comparisons per query, not a mask read.
struct Cursor<'a> {
    runs: Runs<'a>,
    /// The run `[start, end)` that ends beyond the last query.
    start: usize,
    end: usize,
}

impl<'a> Cursor<'a> {
    fn new(mask: &'a BitMask, start: usize, len: usize) -> Self {
        Cursor {
            runs: mask.runs_in(start, len),
            start: 0,
            end: 0,
        }
    }

    #[inline]
    fn present(&mut self, i: usize) -> bool {
        while self.end <= i {
            // Past the last run nothing is present.
            let (start, len) = self.runs.next().unwrap_or((usize::MAX, 0));
            (self.start, self.end) = (start, start.saturating_add(len));
        }
        self.start <= i
    }
}

/// The cells `gap` of level `l` are absent there: each is replaced in
/// place by its eight children, `dz, dy`-major, one `dx` sibling pair
/// (two adjacent flat indices of the finer level) at a time. A present
/// child is emitted, an absent one descends in turn.
fn descend<B, F: FnMut(usize, usize, usize) -> ControlFlow<B>>(
    masks: &[&BitMask],
    finest_dim: usize,
    l: usize,
    gap: Range<usize>,
    emit: &mut F,
) -> ControlFlow<B> {
    let Some((finer, mask)) = l.checked_sub(1).and_then(|f| Some((f, masks.get(f)?))) else {
        return Continue(());
    };
    let (dim, fdim) = (level_dim(finest_dim, l), level_dim(finest_dim, finer));
    if dim == 0 {
        return Continue(());
    }
    let mut at = gap.start;
    while at < gap.end {
        // The part of the gap inside one `x` row of level `l`: its
        // children lie in four rows of the finer level, each read
        // through its own cursor.
        let (x, y, z) = (at % dim, at / dim % dim, at / dim / dim);
        let cells = (dim - x).min(gap.end - at);
        let rows = [(0, 0), (1, 0), (0, 1), (1, 1)]
            .map(|(cy, cz)| fdim * (2 * y + cy + fdim * (2 * z + cz)));
        let mut cursors = rows.map(|row| Cursor::new(mask, row + 2 * x, 2 * cells));
        for cx in x..x + cells {
            for (row, cursor) in rows.iter().zip(&mut cursors) {
                let pair = row + 2 * cx;
                match (cursor.present(pair), cursor.present(pair + 1)) {
                    (true, true) => emit(finer, pair, 2)?,
                    (true, false) => {
                        emit(finer, pair, 1)?;
                        descend(masks, finest_dim, finer, pair + 1..pair + 2, emit)?;
                    }
                    (false, true) => {
                        descend(masks, finest_dim, finer, pair..pair + 1, emit)?;
                        emit(finer, pair + 1, 1)?;
                    }
                    (false, false) => descend(masks, finest_dim, finer, pair..pair + 2, emit)?,
                }
            }
        }
        at += cells;
    }
    Continue(())
}

/// Computes the zMesh traversal order for a level stack described by its
/// occupancy masks (fine to coarse; level `l` has side `finest_dim >> l`),
/// one entry per value — the analysis/test view of the walker the
/// pipeline streams; see the module docs for the order contract.
///
/// Positions covered by no level (invalid datasets) are skipped silently;
/// for valid tree-based AMR the result enumerates every present cell
/// exactly once.
pub fn zmesh_order(masks: &[&BitMask], finest_dim: usize) -> Vec<ZmeshEntry> {
    let mut out = Vec::with_capacity(masks.iter().map(|m| m.count_ones()).sum());
    let _ = walk(masks, finest_dim, ALL_PLANES, |l, start, len| {
        out.extend((start..).take(len).map(|idx| (l, idx)));
        Continue::<(), ()>(())
    });
    out
}

/// Copies one piece of the traversal. Below the coarsest level nearly
/// every piece is a sibling pair; matching that as a fixed-size pattern
/// keeps a `memcpy` call per pair off the hot path.
#[inline]
fn copy_piece<T: Copy>(dst: &mut [T], src: &[T]) {
    match (dst, src) {
        ([d0, d1], &[s0, s1]) => (*d0, *d1) = (s0, s1),
        (dst, src) => dst.copy_from_slice(src),
    }
}

/// Present cells in the slabs of `planes`, summed over the levels: an
/// upper bound on the traversal length there, exact on valid tree-based
/// AMR (shorter only where a cell hides under a present ancestor) and
/// zero exactly when the traversal is empty.
pub(crate) fn population(masks: &[&BitMask], finest_dim: usize, planes: &Range<usize>) -> usize {
    masks
        .iter()
        .enumerate()
        .filter_map(|(l, mask)| {
            let cells = slab(finest_dim, masks.len(), l, planes)?;
            // Clipped to the mask, so the ranged popcount cannot panic.
            let to = cells.end.min(mask.len());
            let from = cells.start.min(to);
            Some(mask.count_ones_in(from, to - from))
        })
        .sum()
}

/// Gathers the first `limit` values of the traversal of `planes` (all of
/// them for `usize::MAX`) straight out of the level buffers, one slice
/// copy per piece. `Method::Auto`'s selection pass takes a bounded prefix
/// this way; the walk stops as soon as the window is full.
pub(crate) fn gather_walk<T: Element>(
    masks: &[&BitMask],
    finest_dim: usize,
    planes: Range<usize>,
    level_data: &[&[T]],
    limit: usize,
) -> Vec<T> {
    // No cell is visited twice, so the traversal is at most as long as
    // the slabs' population.
    let present = population(masks, finest_dim, &planes);
    let mut out = vec![T::ZERO; present.min(limit)];
    let mut filled = 0;
    let _ = walk(masks, finest_dim, planes, |l, start, len| {
        let len = len.min(out.len() - filled);
        let src = level_data.get(l).and_then(|d| d.get(start..)?.get(..len));
        let dst = out.get_mut(filled..).and_then(|o| o.get_mut(..len));
        if let (Some(src), Some(dst)) = (src, dst) {
            copy_piece(dst, src);
            filled += len;
        }
        if filled < out.len() {
            Continue(())
        } else {
            Break(())
        }
    });
    out.truncate(filled);
    out
}

/// A region read's box on one level's grid, held in the terms a piece
/// of the walk is clipped in.
struct Clip {
    dim: usize,
    b: Aabb,
    /// The flat range of the box's z-planes: pieces outside it are
    /// rejected without a division.
    planes: Range<usize>,
}

impl Clip {
    fn new(b: Aabb, dim: usize) -> Self {
        let plane = dim * dim;
        Clip {
            dim,
            b,
            planes: b.min.2 * plane..b.max.2 * plane,
        }
    }

    /// Copies the cells of the piece at flat index `start` that lie
    /// inside the box, `dst[i] = src[i]`, row by row of the grid.
    #[inline]
    fn copy<T: Copy>(&self, start: usize, dst: &mut [T], src: &[T]) {
        let end = start.saturating_add(src.len());
        if end <= self.planes.start || self.planes.end <= start {
            return;
        }
        let b = &self.b;
        let mut at = start;
        while at < end {
            let (row, x) = (at / self.dim, at % self.dim);
            let row_start = at - x;
            let next = (row_start + self.dim).min(end);
            let (y, z) = (row % self.dim, row / self.dim);
            if (b.min.1..b.max.1).contains(&y) && (b.min.2..b.max.2).contains(&z) {
                let lo = (row_start + b.min.0).max(at) - start;
                let hi = (row_start + b.max.0).min(next).saturating_sub(start);
                if let (Some(d), Some(s)) = (dst.get_mut(lo..hi), src.get(lo..hi)) {
                    d.copy_from_slice(s);
                }
            }
            at = next;
        }
    }
}

/// Scatters a decoded stream back along the traversal of `planes`, one
/// slice copy per piece. `slabs[l]` is the part of level `l`'s dense
/// buffer those planes cover ([`slab`]) and nothing outside it is
/// reachable, so concurrent scatters of disjoint plane ranges need no
/// synchronisation.
///
/// With `clip` — a region read's box on each level's grid — only the
/// part of each piece inside its level's box is copied; the walk, and
/// the length check below, still cover the whole stream.
///
/// # Errors
/// The stream must hold exactly one value per traversal cell of the
/// planes: values running short or left over (or a slab too small for
/// its mask) is [`TacError::Corrupt`].
pub(crate) fn scatter_walk<T: Element>(
    masks: &[&BitMask],
    finest_dim: usize,
    planes: Range<usize>,
    values: &[T],
    slabs: &mut [&mut [T]],
    clip: Option<&[Aabb]>,
) -> Result<(), TacError> {
    // Per level, once: its box, unless that is the whole grid. A full
    // decode takes a walk with no per-piece test at all.
    let clips: Vec<Option<Clip>> = (clip.into_iter().flatten().enumerate())
        .map(|(l, b)| {
            let dim = level_dim(finest_dim, l);
            (*b != Aabb::whole(dim)).then(|| Clip::new(*b, dim))
        })
        .collect();
    if clips.iter().all(Option::is_none) {
        let copy = |_, _, dst: &mut [T], src: &[T]| copy_piece(dst, src);
        return scatter_pieces(masks, finest_dim, planes, values, slabs, &copy);
    }
    let copy = |l: usize, start, dst: &mut [T], src: &[T]| match clips.get(l) {
        Some(Some(clip)) => clip.copy(start, dst, src),
        _ => copy_piece(dst, src),
    };
    scatter_pieces(masks, finest_dim, planes, values, slabs, &copy)
}

/// [`scatter_walk`]'s walk, moving each piece with `copy(level, start,
/// dst, src)`.
fn scatter_pieces<T: Element>(
    masks: &[&BitMask],
    finest_dim: usize,
    planes: Range<usize>,
    values: &[T],
    slabs: &mut [&mut [T]],
    copy: &impl Fn(usize, usize, &mut [T], &[T]),
) -> Result<(), TacError> {
    let bases: Vec<usize> = (0..masks.len())
        .map(|l| slab(finest_dim, masks.len(), l, &planes).map_or(0, |cells| cells.start))
        .collect();
    let mut rest = values;
    let ran_short = walk(masks, finest_dim, planes, |l, start, len| {
        let dst = bases
            .get(l)
            .and_then(|base| start.checked_sub(*base))
            .zip(slabs.get_mut(l))
            .and_then(|(at, cells)| cells.get_mut(at..at.checked_add(len)?));
        let (Some(dst), Some(src), Some(tail)) = (dst, rest.get(..len), rest.get(len..)) else {
            return Break(());
        };
        copy(l, start, dst, src);
        rest = tail;
        Continue(())
    })
    .is_break();
    if ran_short || !rest.is_empty() {
        return Err(TacError::Corrupt(format!(
            "stream holds {} values, the traversal of its planes has {}",
            values.len(),
            if ran_short {
                "more cells"
            } else {
                "fewer cells"
            }
        )));
    }
    Ok(())
}

/// Gathers level data values into a 1D array following `order`.
// tac-lint: allow(panic) -- analysis/test view, off the decode path: an order that does not belong to these buffers is a caller bug.
pub fn gather<T: Element>(order: &[ZmeshEntry], level_data: &[&[T]]) -> Vec<T> {
    order.iter().map(|&(l, idx)| level_data[l][idx]).collect()
}

/// Scatters a 1D array back into per-level dense buffers following
/// `order`.
// tac-lint: allow(panic) -- analysis/test view, off the decode path: an order that does not belong to these buffers is a caller bug.
pub fn scatter<T: Element>(order: &[ZmeshEntry], values: &[T], level_data: &mut [Vec<T>]) {
    assert_eq!(order.len(), values.len(), "order/value length mismatch");
    for (&(l, idx), &v) in order.iter().zip(values) {
        level_data[l][idx] = v;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tac_amr::{AmrDataset, AmrLevel};

    /// 4^3 fine / 2^3 coarse: coarse cell (0,0,0) refined, rest coarse.
    fn corner_refined() -> AmrDataset {
        let mut fine = AmrLevel::empty(4);
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    fine.set_value(x, y, z, (x + 10 * y + 100 * z) as f64);
                }
            }
        }
        let mut coarse = AmrLevel::empty(2);
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    if (x, y, z) != (0, 0, 0) {
                        coarse.set_value(x, y, z, -((x + 10 * y + 100 * z) as f64));
                    }
                }
            }
        }
        AmrDataset::new("corner", vec![fine, coarse])
    }

    #[test]
    fn order_enumerates_every_present_cell_once() {
        let ds = corner_refined();
        ds.validate().unwrap();
        let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
        let order = zmesh_order(&masks, 4);
        assert_eq!(order.len(), ds.total_present());
        let mut seen = std::collections::HashSet::new();
        for &e in &order {
            assert!(seen.insert(e), "duplicate entry {e:?}");
        }
    }

    #[test]
    fn refined_children_come_at_the_parents_slot() {
        let ds = corner_refined();
        let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
        let order = zmesh_order(&masks, 4);
        // First coarse position (0,0,0) was refined: traversal starts with
        // its 8 fine children, then proceeds to coarse (1,0,0).
        assert_eq!(order[0], (0, 0));
        assert_eq!(order.iter().filter(|e| e.0 == 0).count(), 8);
        assert_eq!(order[8], (1, 1)); // coarse cell (1,0,0) at flat idx 1
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let ds = corner_refined();
        let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
        let order = zmesh_order(&masks, 4);
        let data: Vec<&[f64]> = ds.levels().iter().map(|l| l.data()).collect();
        let stream = gather(&order, &data);
        let mut bufs: Vec<Vec<f64>> = ds
            .levels()
            .iter()
            .map(|l| vec![0.0; l.num_cells()])
            .collect();
        scatter(&order, &stream, &mut bufs);
        for (lvl, buf) in ds.levels().iter().zip(&bufs) {
            for i in lvl.mask().iter_ones() {
                assert_eq!(buf[i], lvl.data()[i]);
            }
        }
    }

    /// The recursive per-cell walk the streaming walker replaced, kept
    /// as the reference it is tested against.
    fn visit(
        masks: &[&BitMask],
        finest_dim: usize,
        l: usize,
        at: [usize; 3],
        out: &mut Vec<ZmeshEntry>,
    ) {
        let [x, y, z] = at;
        let dim = finest_dim >> l;
        let idx = x + dim * (y + dim * z);
        if masks[l].get(idx) {
            out.push((l, idx));
            return;
        }
        if l == 0 {
            return;
        }
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let child = [2 * x + dx, 2 * y + dy, 2 * z + dz];
                    visit(masks, finest_dim, l - 1, child, out);
                }
            }
        }
    }

    fn reference_order(masks: &[&BitMask], finest_dim: usize) -> Vec<ZmeshEntry> {
        let coarsest = masks.len() - 1;
        let cdim = finest_dim >> coarsest;
        let mut out = Vec::new();
        for z in 0..cdim {
            for y in 0..cdim {
                for x in 0..cdim {
                    visit(masks, finest_dim, coarsest, [x, y, z], &mut out);
                }
            }
        }
        out
    }

    pub(crate) struct Rng(pub u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Marks the subtree under cell `at` of level `l`: the cell is
    /// present, or (above level 0, one time in three) refined into its
    /// eight children.
    fn fill(masks: &mut [BitMask], finest_dim: usize, l: usize, at: [usize; 3], rng: &mut Rng) {
        let [x, y, z] = at;
        let dim = finest_dim >> l;
        if l == 0 || rng.next() % 3 != 0 {
            masks[l].set(x + dim * (y + dim * z), true);
            return;
        }
        for child in 0..8 {
            let at = [
                2 * x + (child & 1),
                2 * y + (child >> 1 & 1),
                2 * z + (child >> 2),
            ];
            fill(masks, finest_dim, l - 1, at, rng);
        }
    }

    /// A seeded 1-4-level hierarchy on a 1^3..3^3 coarsest grid (so
    /// level sides are rarely a power of two and masks rarely a multiple
    /// of 64 bits). Odd seeds are valid tree-based AMR; even seeds then
    /// get one bit in eight flipped per level, leaving holes and cells
    /// present at two levels.
    pub(crate) fn random_hierarchy(seed: u64) -> (Vec<BitMask>, usize) {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let levels = 1 + (rng.next() % 4) as usize;
        let cdim = 1 + (rng.next() % 3) as usize;
        let finest_dim = cdim << (levels - 1);
        let mut masks: Vec<BitMask> = (0..levels)
            .map(|l| BitMask::zeros((finest_dim >> l).pow(3)))
            .collect();
        for c in 0..cdim.pow(3) {
            let at = [c % cdim, c / cdim % cdim, c / cdim / cdim];
            fill(&mut masks, finest_dim, levels - 1, at, &mut rng);
        }
        if seed % 2 == 0 {
            for mask in &mut masks {
                for i in 0..mask.len() {
                    if rng.next() % 8 == 0 {
                        mask.set(i, !mask.get(i));
                    }
                }
            }
        }
        (masks, finest_dim)
    }

    /// Level buffers of bit patterns that only a bit-exact copy
    /// preserves: NaN payloads, `-0.0` and arbitrary bits, in absent
    /// cells too.
    fn random_buffers<T: Element>(masks: &[BitMask], salt: u64) -> Vec<Vec<T>> {
        let mut rng = Rng(salt | 1);
        let nan = T::from_f64(f64::NAN).to_bits_u64();
        masks
            .iter()
            .map(|m| {
                (0..m.len())
                    .map(|_| match rng.next() % 4 {
                        0 => T::from_bits_u64(nan | (rng.next() % 1024)),
                        1 => T::from_f64(-0.0),
                        _ => T::from_bits_u64(rng.next()),
                    })
                    .collect()
            })
            .collect()
    }

    fn bits<T: Element>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits_u64()).collect()
    }

    #[test]
    fn walker_matches_the_recursive_reference_on_valid_and_invalid_hierarchies() {
        for seed in 0..400 {
            let (masks, finest_dim) = random_hierarchy(seed);
            let refs: Vec<&BitMask> = masks.iter().collect();
            let order = zmesh_order(&refs, finest_dim);
            assert_eq!(order, reference_order(&refs, finest_dim), "seed {seed}");
            let _ = walk(&refs, finest_dim, ALL_PLANES, |_, _, len| {
                assert!(len >= 1, "seed {seed}: empty piece");
                Continue::<(), ()>(())
            });
        }
        assert!(zmesh_order(&[], 8).is_empty());
    }

    /// The whole-buffer slab view `scatter_walk` takes for `ALL_PLANES`.
    fn whole<T>(bufs: &mut [Vec<T>]) -> Vec<&mut [T]> {
        bufs.iter_mut().map(|b| b.as_mut_slice()).collect()
    }

    #[test]
    fn plane_ranged_walks_concatenate_to_the_whole_walk_inside_their_slabs() {
        for seed in 0..400 {
            let (masks, finest_dim) = random_hierarchy(seed);
            let refs: Vec<&BitMask> = masks.iter().collect();
            let order = zmesh_order(&refs, finest_dim);
            let cdim = finest_dim >> (masks.len() - 1);
            let mut rng = Rng(seed | 1);
            // A random split of the planes, some pieces empty.
            let mut cuts = vec![0, cdim];
            for _ in 0..rng.next() % 3 {
                cuts.push((rng.next() % (cdim as u64 + 1)) as usize);
            }
            cuts.sort_unstable();
            let mut joined = Vec::new();
            for pair in cuts.windows(2) {
                let planes = pair[0]..pair[1];
                let at = joined.len();
                let _ = walk(&refs, finest_dim, planes.clone(), |l, start, len| {
                    let cells = slab(finest_dim, masks.len(), l, &planes).unwrap();
                    assert!(
                        cells.start <= start && start + len <= cells.end,
                        "seed {seed}: piece {l}/{start}+{len} outside slab {cells:?}"
                    );
                    joined.extend((start..start + len).map(|idx| (l, idx)));
                    Continue::<(), ()>(())
                });
                // The ranged popcount bounds the piece from above, is
                // exact on valid hierarchies, and is zero with it.
                let held = joined.len() - at;
                let bound = population(&refs, finest_dim, &planes);
                assert!(held <= bound, "seed {seed}: {held} > {bound}");
                assert_eq!(held == 0, bound == 0, "seed {seed}");
                if seed % 2 == 1 {
                    assert_eq!(held, bound, "seed {seed}: valid hierarchy");
                }
            }
            assert_eq!(joined, order, "seed {seed}: cuts {cuts:?}");
        }
        // Planes beyond the grid, and a level that is not there, are
        // clipped rather than trusted.
        assert_eq!(slab(8, 2, 0, &(3..9)), Some(3 * 2 * 64..4 * 2 * 64));
        assert_eq!(slab(8, 2, 1, &(5..7)), Some(64..64));
        assert_eq!(slab(8, 2, 2, &(0..1)), None);
        assert_eq!(slab(8, 0, 0, &(0..1)), None);
    }

    fn check_streamed_gather_and_scatter<T: Element>(seed: u64) {
        let (masks, finest_dim) = random_hierarchy(seed);
        let refs: Vec<&BitMask> = masks.iter().collect();
        let order = zmesh_order(&refs, finest_dim);
        let data: Vec<Vec<T>> = random_buffers(&masks, seed ^ 0xA5A5);
        let slices: Vec<&[T]> = data.iter().map(|d| d.as_slice()).collect();

        let stream = gather(&order, &slices);
        let streamed = gather_walk(&refs, finest_dim, ALL_PLANES, &slices, usize::MAX);
        assert_eq!(bits(&streamed), bits(&stream), "seed {seed}: gather");

        // The windowed prefix is `order[..n]`, also for `n` past the end.
        let mut rng = Rng(seed | 1);
        for _ in 0..4 {
            let n = (rng.next() % (order.len() as u64 + 3)) as usize;
            let window = gather_walk(&refs, finest_dim, ALL_PLANES, &slices, n);
            let expect = gather(&order[..n.min(order.len())], &slices);
            assert_eq!(bits(&window), bits(&expect), "seed {seed}: window {n}");
        }

        // Scatter into buffers of other arbitrary bits: the cells on the
        // traversal take the stream's bits, every other cell keeps its own.
        let before: Vec<Vec<T>> = random_buffers(&masks, seed ^ 0x5A5A);
        let mut expect = before.clone();
        scatter(&order, &stream, &mut expect);
        let mut streamed = before.clone();
        scatter_walk(
            &refs,
            finest_dim,
            ALL_PLANES,
            &stream,
            &mut whole(&mut streamed),
            None,
        )
        .unwrap();
        for (l, (a, b)) in streamed.iter().zip(&expect).enumerate() {
            assert_eq!(bits(a), bits(b), "seed {seed}: scatter level {l}");
        }

        // Clipped to a random box per level (empty, partial or whole):
        // only the traversal cells inside their level's box take the
        // stream's bits.
        let boxes: Vec<Aabb> = (0..masks.len())
            .map(|l| {
                let dim = finest_dim >> l;
                let mut at = || (rng.next() % (dim as u64 + 1)) as usize;
                let [x0, x1, y0, y1, z0, z1] = [at(), at(), at(), at(), at(), at()];
                let lo = (x0.min(x1), y0.min(y1), z0.min(z1));
                Aabb::new(lo, (x0.max(x1), y0.max(y1), z0.max(z1)))
            })
            .collect();
        let mut clipped = before.clone();
        scatter_walk(
            &refs,
            finest_dim,
            ALL_PLANES,
            &stream,
            &mut whole(&mut clipped),
            Some(&boxes),
        )
        .unwrap();
        for (l, ((got, all), old)) in clipped.iter().zip(&expect).zip(&before).enumerate() {
            let dim = finest_dim >> l;
            for (i, v) in got.iter().enumerate() {
                let inside = boxes[l].contains(i % dim, i / dim % dim, i / dim / dim);
                let want = if inside { all[i] } else { old[i] };
                assert_eq!(v.to_bits_u64(), want.to_bits_u64(), "seed {seed}: {l}/{i}");
            }
        }

        // One value short and one value long are both corrupt, clipped
        // or not.
        let mut long = stream.clone();
        long.push(T::ZERO);
        for wrong in [&stream[..stream.len().saturating_sub(1)], &long[..]] {
            if wrong.len() == stream.len() {
                continue; // an empty traversal has no shorter stream
            }
            for clip in [None, Some(&boxes[..])] {
                let err = scatter_walk(
                    &refs,
                    finest_dim,
                    ALL_PLANES,
                    wrong,
                    &mut whole(&mut before.clone()),
                    clip,
                )
                .unwrap_err();
                assert!(matches!(err, TacError::Corrupt(_)), "seed {seed}: {err}");
            }
        }
    }

    #[test]
    fn streamed_gather_and_scatter_match_the_explicit_order_bit_for_bit() {
        for seed in 0..200 {
            check_streamed_gather_and_scatter::<f64>(seed);
            check_streamed_gather_and_scatter::<f32>(seed);
        }
    }

    #[test]
    fn single_level_order_is_row_major_present_cells() {
        let mut lvl = AmrLevel::empty(2);
        lvl.set_value(1, 0, 0, 5.0);
        lvl.set_value(0, 1, 1, 6.0);
        let masks = [lvl.mask()];
        let order = zmesh_order(&masks, 2);
        assert_eq!(order, vec![(0, 1), (0, 6)]);
    }
}
