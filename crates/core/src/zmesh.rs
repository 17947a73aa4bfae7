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
//! [`Piece`]s of one level each — whole mask runs on the coarsest level;
//! below it, one **row segment** per stretch of absent cells in one row
//! whose children are all present one level finer (its values are the
//! fixed `dz, dy, dx` interleave of four finer rows), and sibling pairs
//! wherever a cell's children are not all present. The pieces are only
//! a grouping: the order contract above decides every value's place.
//! The pipeline gathers and scatters straight between the level buffers
//! and the codec stream through [`gather_walk`] / [`scatter_walk`], one
//! tight loop per segment, never materialising a per-value order.
//! [`zmesh_order`] is the analysis/test view of the same walker (one
//! `(level, index)` entry per value), with [`gather`] and [`scatter`] as
//! its explicit-order companions.
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

/// Consecutive present flat indices of one level, in traversal order, as
/// [`walk`] hands them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Piece {
    /// `len` consecutive flat indices from `start`: a mask run on the
    /// coarsest level, a sibling pair or a lone sibling below it.
    Run { start: usize, len: usize },
    /// A row segment: `pairs` adjacent absent cells of one row of the
    /// next coarser level, all of whose children are present. The
    /// children of its `p`-th cell are the sibling pairs at `rows[k] +
    /// 2p` of four rows, `k = dy + 2·dz`, and its `8 · pairs` values are
    /// those pairs in the order `for p { for k { pair } }` — what one
    /// sibling-pair piece per child pair would have listed.
    Rows { rows: [usize; 4], pairs: usize },
}

impl Piece {
    /// Values the piece holds.
    pub(crate) fn len(&self) -> usize {
        match *self {
            Piece::Run { len, .. } => len,
            Piece::Rows { pairs, .. } => pairs.saturating_mul(8),
        }
    }

    /// The flat index of the piece's value `i`, for `i < self.len()`.
    pub(crate) fn cell(&self, i: usize) -> usize {
        match *self {
            Piece::Run { start, .. } => start + i,
            Piece::Rows { rows, .. } => {
                let row = rows.get(i / 2 % 4).copied().unwrap_or_default();
                row + 2 * (i / 8) + i % 2
            }
        }
    }
}

/// Streams the zMesh traversal of the z-planes `planes` of the coarsest
/// level of a level stack described by its occupancy masks (fine to
/// coarse) as `(level, piece)`: the piece's flat indices of `level`, all
/// present, in traversal order. `emit` may stop the walk early with
/// `Break`. Never panics: planes beyond the grid are clipped and mask
/// bits beyond a mask's length read as absent.
pub(crate) fn walk<B>(
    masks: &[&BitMask],
    finest_dim: usize,
    planes: Range<usize>,
    mut emit: impl FnMut(usize, Piece) -> ControlFlow<B>,
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
        emit(coarsest, Piece::Run { start, len })?;
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

    /// Where the run of present bits from `i` on ends: `i` itself when
    /// bit `i` is absent.
    #[inline]
    fn present_to(&mut self, i: usize) -> usize {
        if self.present(i) {
            self.end
        } else {
            i
        }
    }
}

/// The cells `gap` of level `l` are absent there: each is replaced in
/// place by its eight children, `dz, dy`-major, one `dx` sibling pair
/// (two adjacent flat indices of the finer level) at a time. Adjacent
/// cells of one row whose children are all present go out as one row
/// segment; otherwise a present child is emitted, an absent one descends
/// in turn.
fn descend<B, F: FnMut(usize, Piece) -> ControlFlow<B>>(
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
        let mut cx = x;
        while cx < x + cells {
            // The cells from `cx` on whose children are all present: as
            // many as the shortest present run of the four rows covers.
            let mut pairs = x + cells - cx;
            for (row, cursor) in rows.iter().zip(&mut cursors) {
                let pair = row + 2 * cx;
                pairs = pairs.min((cursor.present_to(pair) - pair) / 2);
            }
            if pairs > 0 {
                let rows = rows.map(|row| row + 2 * cx);
                emit(finer, Piece::Rows { rows, pairs })?;
                cx += pairs;
                continue;
            }
            for (row, cursor) in rows.iter().zip(&mut cursors) {
                let pair = row + 2 * cx;
                let run = |start, len| Piece::Run { start, len };
                match (cursor.present(pair), cursor.present(pair + 1)) {
                    (true, true) => emit(finer, run(pair, 2))?,
                    (true, false) => {
                        emit(finer, run(pair, 1))?;
                        descend(masks, finest_dim, finer, pair + 1..pair + 2, emit)?;
                    }
                    (false, true) => {
                        descend(masks, finest_dim, finer, pair..pair + 1, emit)?;
                        emit(finer, run(pair + 1, 1))?;
                    }
                    (false, false) => descend(masks, finest_dim, finer, pair..pair + 2, emit)?,
                }
            }
            cx += 1;
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
    let _ = walk(masks, finest_dim, ALL_PLANES, |l, piece| {
        out.extend((0..piece.len()).map(|i| (l, piece.cell(i))));
        Continue::<(), ()>(())
    });
    out
}

/// Copies one run of the traversal. Below the coarsest level a run is a
/// sibling pair or one sibling; matching a pair as a fixed-size pattern
/// keeps a `memcpy` call per pair off the hot path.
#[inline]
fn copy_piece<T: Copy>(dst: &mut [T], src: &[T]) {
    match (dst, src) {
        ([d0, d1], &[s0, s1]) => (*d0, *d1) = (s0, s1),
        (dst, src) => dst.copy_from_slice(src),
    }
}

/// The four rows of a row segment, `width` cells each from `rows[k]`, in
/// a slab holding its level's cells from flat index `base` on; `None`
/// unless all four lie inside it. The walk builds the rows ascending
/// and apart.
fn rows_mut<T>(
    mut cells: &mut [T],
    mut base: usize,
    rows: [usize; 4],
    width: usize,
) -> Option<[&mut [T]; 4]> {
    let mut out: [Option<&mut [T]>; 4] = [None, None, None, None];
    for (slot, row) in out.iter_mut().zip(rows) {
        let tail = std::mem::take(&mut cells).get_mut(row.checked_sub(base)?..)?;
        if tail.len() < width {
            return None;
        }
        let (mine, rest) = tail.split_at_mut(width);
        (*slot, cells, base) = (Some(mine), rest, row.checked_add(width)?);
    }
    let [r0, r1, r2, r3] = out;
    Some([r0?, r1?, r2?, r3?])
}

/// [`gather_piece`] for a row segment: `dst` takes the pairs of its four
/// rows in [`Piece::Rows`] order, a cell's eight values at a time. Out of
/// line, like [`scatter_rows`] and [`Clip::rows`], so that the per-run
/// path — all the 1D arm's single-level walk takes — stays small enough
/// to inline into the walk.
#[inline(never)]
fn gather_rows<T: Copy>(rows: [usize; 4], pairs: usize, src: &[T], dst: &mut [T]) -> usize {
    let piece = Piece::Rows { rows, pairs };
    let fit = piece.len().min(dst.len());
    let width = 2 * pairs;
    let [r0, r1, r2, r3] = rows.map(|row| src.get(row..row.checked_add(width)?));
    let (Some(dst), Some(r0), Some(r1), Some(r2), Some(r3)) = (dst.get_mut(..fit), r0, r1, r2, r3)
    else {
        return 0;
    };
    if fit < piece.len() {
        // A window that ends inside the segment.
        for (i, v) in dst.iter_mut().enumerate() {
            *v = src.get(piece.cell(i)).copied().unwrap_or(*v);
        }
        return fit;
    }
    let row_pairs = (r0.chunks_exact(2).zip(r1.chunks_exact(2)))
        .zip(r2.chunks_exact(2).zip(r3.chunks_exact(2)));
    for (cell, ((a, b), (c, d))) in dst.chunks_exact_mut(8).zip(row_pairs) {
        if let ([v0, v1, v2, v3, v4, v5, v6, v7], &[a0, a1], &[b0, b1], &[c0, c1], &[d0, d1]) =
            (cell, a, b, c, d)
        {
            (*v0, *v1, *v2, *v3, *v4, *v5, *v6, *v7) = (a0, a1, b0, b1, c0, c1, d0, d1);
        }
    }
    fit
}

/// [`scatter_piece`] for an unclipped row segment: the inverse of
/// [`gather_rows`] into the slab `cells` of its level from flat index
/// `base` on; `None` when the rows do not lie inside it.
#[inline(never)]
fn scatter_rows<T: Copy>(
    rows: [usize; 4],
    pairs: usize,
    base: usize,
    cells: &mut [T],
    src: &[T],
) -> Option<()> {
    let [r0, r1, r2, r3] = rows_mut(cells, base, rows, 2 * pairs)?;
    let row_pairs = (r0.chunks_exact_mut(2).zip(r1.chunks_exact_mut(2)))
        .zip(r2.chunks_exact_mut(2).zip(r3.chunks_exact_mut(2)));
    for (cell, ((a, b), (c, d))) in src.chunks_exact(8).zip(row_pairs) {
        if let (&[v0, v1, v2, v3, v4, v5, v6, v7], [a0, a1], [b0, b1], [c0, c1], [d0, d1]) =
            (cell, a, b, c, d)
        {
            (*a0, *a1, *b0, *b1, *c0, *c1, *d0, *d1) = (v0, v1, v2, v3, v4, v5, v6, v7);
        }
    }
    Some(())
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
/// copy per run and one interleaving loop per row segment.
/// `Method::Auto`'s selection pass takes a bounded prefix this way; the
/// walk stops as soon as the window is full.
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
    let (mut filled, mut pieces) = (0, 0usize);
    let _ = walk(masks, finest_dim, planes, |l, piece| {
        pieces += 1;
        let src = level_data.get(l).copied().unwrap_or_default();
        let dst = out.get_mut(filled..).unwrap_or_default();
        filled += gather_piece(piece, src, dst);
        if filled < out.len() {
            Continue(())
        } else {
            Break(())
        }
    });
    tac_obs::add(tac_obs::Counter::ReorderPieces, pieces);
    out.truncate(filled);
    out
}

/// Copies as many values of `piece` as fit from its level's buffer `src`
/// to the front of `dst`, and says how many: none when the piece does
/// not lie inside `src`.
#[inline]
fn gather_piece<T: Copy>(piece: Piece, src: &[T], dst: &mut [T]) -> usize {
    match piece {
        Piece::Run { start, len } => {
            let fit = len.min(dst.len());
            match (
                src.get(start..).and_then(|s| s.get(..fit)),
                dst.get_mut(..fit),
            ) {
                (Some(src), Some(dst)) => copy_piece(dst, src),
                _ => return 0,
            }
            fit
        }
        Piece::Rows { rows, pairs } => gather_rows(rows, pairs, src, dst),
    }
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

    /// [`scatter_rows`] inside the box: copies the cells of the row
    /// segment that lie inside it. Each of the four rows is tested against
    /// the box once and takes only its in-box x-span, and a segment
    /// outside the box's planes is skipped before any division. `None`
    /// when the rows do not lie inside the slab.
    #[inline(never)]
    fn rows<T: Copy>(
        &self,
        rows: [usize; 4],
        pairs: usize,
        base: usize,
        cells: &mut [T],
        src: &[T],
    ) -> Option<()> {
        let width = 2 * pairs;
        let dst = rows_mut(cells, base, rows, width)?;
        let [first, .., last] = rows;
        if last.saturating_add(width) <= self.planes.start || self.planes.end <= first {
            return Some(());
        }
        let b = &self.b;
        let (x, row) = (first % self.dim, first / self.dim);
        let (y, z) = (row % self.dim, row / self.dim);
        // The in-box span of every row, as offsets into it.
        let lo = b.min.0.saturating_sub(x);
        let hi = b.max.0.saturating_sub(x).min(width);
        for (k, cells) in dst.into_iter().enumerate() {
            let (y, z) = (y + k % 2, z + k / 2);
            if !(b.min.1..b.max.1).contains(&y) || !(b.min.2..b.max.2).contains(&z) {
                continue;
            }
            // Offset `j` of row `k` is value `8·(j / 2) + 2k + j % 2`.
            for (j, cell) in (lo..hi).zip(cells.get_mut(lo..hi).into_iter().flatten()) {
                *cell = src
                    .get(4 * (j & !1) + 2 * k + j % 2)
                    .copied()
                    .unwrap_or(*cell);
            }
        }
        Some(())
    }
}

/// Scatters a decoded stream back along the traversal of `planes`, one
/// slice copy per run and one loop per row segment. `slabs[l]` is the
/// part of level `l`'s dense buffer those planes cover ([`slab`]), with
/// the flat index it starts at, and nothing outside it is reachable, so
/// concurrent scatters of disjoint plane ranges need no synchronisation.
///
/// `clips[l]`, where present, is a region read's box on level `l`'s grid
/// ([`crate::grid::SlabGrid::clip`]): only the part of each piece inside
/// it is copied; the walk, and the length check below, still cover the
/// whole stream. With no box at all — a full decode — the walk makes no
/// per-piece test.
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
    slabs: &mut [(usize, &mut [T])],
    clips: &[Option<Aabb>],
) -> Result<(), TacError> {
    let clips: Vec<Option<Clip>> = (clips.iter().enumerate())
        .map(|(l, b)| b.map(|b| Clip::new(b, level_dim(finest_dim, l))))
        .collect();
    if clips.iter().all(Option::is_none) {
        return scatter_pieces::<T, false>(masks, finest_dim, planes, values, slabs, &clips);
    }
    scatter_pieces::<T, true>(masks, finest_dim, planes, values, slabs, &clips)
}

/// [`scatter_walk`]'s walk. Compiled twice: with `CLIPPED` false it
/// never looks at `clips`, so a full decode pays no per-piece test.
fn scatter_pieces<T: Element, const CLIPPED: bool>(
    masks: &[&BitMask],
    finest_dim: usize,
    planes: Range<usize>,
    values: &[T],
    slabs: &mut [(usize, &mut [T])],
    clips: &[Option<Clip>],
) -> Result<(), TacError> {
    let (mut rest, mut pieces) = (values, 0usize);
    let ran_short = walk(masks, finest_dim, planes, |l, piece| {
        pieces += 1;
        let clip = if CLIPPED {
            clips.get(l).and_then(Option::as_ref)
        } else {
            None
        };
        let (Some((src, tail)), Some((base, cells))) = (
            rest.get(..piece.len()).zip(rest.get(piece.len()..)),
            slabs.get_mut(l),
        ) else {
            return Break(());
        };
        if scatter_piece(piece, *base, cells, src, clip).is_none() {
            return Break(());
        }
        rest = tail;
        Continue(())
    })
    .is_break();
    tac_obs::add(tac_obs::Counter::ReorderPieces, pieces);
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

/// Writes the values `src` of `piece` into its level's slab `cells`,
/// which holds the level from flat index `base` on — with `clip`, only
/// those inside the box. `None` when the piece does not lie inside the
/// slab.
#[inline]
fn scatter_piece<T: Copy>(
    piece: Piece,
    base: usize,
    cells: &mut [T],
    src: &[T],
    clip: Option<&Clip>,
) -> Option<()> {
    match piece {
        Piece::Run { start, len } => {
            let at = start.checked_sub(base)?;
            let dst = cells.get_mut(at..at.checked_add(len)?)?;
            match clip {
                Some(clip) => clip.copy(start, dst, src),
                None => copy_piece(dst, src),
            }
            Some(())
        }
        Piece::Rows { rows, pairs } => match clip {
            Some(clip) => clip.rows(rows, pairs, base, cells, src),
            None => scatter_rows(rows, pairs, base, cells, src),
        },
    }
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
            let _ = walk(&refs, finest_dim, ALL_PLANES, |_, piece| {
                assert!(piece.len() >= 1, "seed {seed}: empty piece");
                Continue::<(), ()>(())
            });
        }
        assert!(zmesh_order(&[], 8).is_empty());
    }

    /// The whole-buffer slab view `scatter_walk` takes for `ALL_PLANES`.
    fn whole<T>(bufs: &mut [Vec<T>]) -> Vec<(usize, &mut [T])> {
        bufs.iter_mut().map(|b| (0, b.as_mut_slice())).collect()
    }

    /// Every level clipped to its box, whole-grid boxes included: the
    /// clipped walk must hold for those too.
    fn some(boxes: &[Aabb]) -> Vec<Option<Aabb>> {
        boxes.iter().copied().map(Some).collect()
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
                let _ = walk(&refs, finest_dim, planes.clone(), |l, piece| {
                    let cells = slab(finest_dim, masks.len(), l, &planes).unwrap();
                    for idx in (0..piece.len()).map(|i| piece.cell(i)) {
                        assert!(
                            cells.contains(&idx),
                            "seed {seed}: piece {l}/{piece:?} outside slab {cells:?}"
                        );
                        joined.push((l, idx));
                    }
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

    /// Scatters `stream` into a copy of `before` clipped to one box per
    /// level: the traversal cells inside their level's box must take the
    /// stream's bits, every other cell must keep its own.
    fn check_clipped_scatter<T: Element>(
        refs: &[&BitMask],
        finest_dim: usize,
        stream: &[T],
        before: &[Vec<T>],
        boxes: &[Aabb],
        what: &str,
    ) {
        let mut expect = before.to_vec();
        scatter(&zmesh_order(refs, finest_dim), stream, &mut expect);
        let mut clipped = before.to_vec();
        scatter_walk(
            refs,
            finest_dim,
            ALL_PLANES,
            stream,
            &mut whole(&mut clipped),
            &some(boxes),
        )
        .unwrap();
        for (l, ((got, all), old)) in clipped.iter().zip(&expect).zip(before).enumerate() {
            let dim = finest_dim >> l;
            for (i, v) in got.iter().enumerate() {
                let inside = boxes[l].contains(i % dim, i / dim % dim, i / dim / dim);
                let want = if inside { all[i] } else { old[i] };
                assert_eq!(v.to_bits_u64(), want.to_bits_u64(), "{what}: {l}/{i}");
            }
        }
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
            &[],
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
        let what = format!("seed {seed}");
        check_clipped_scatter(&refs, finest_dim, &stream, &before, &boxes, &what);

        // One value short and one value long are both corrupt, clipped
        // or not.
        let mut long = stream.clone();
        long.push(T::ZERO);
        for wrong in [&stream[..stream.len().saturating_sub(1)], &long[..]] {
            if wrong.len() == stream.len() {
                continue; // an empty traversal has no shorter stream
            }
            for clips in [Vec::new(), some(&boxes)] {
                let err = scatter_walk(
                    &refs,
                    finest_dim,
                    ALL_PLANES,
                    wrong,
                    &mut whole(&mut before.clone()),
                    &clips,
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

    /// A valid two-level tree on a `fine`^3 grid: the coarse cells inside
    /// an off-centre ball are refined, every other coarse cell is present.
    fn refined_ball(fine: usize) -> Vec<BitMask> {
        let dim = fine / 2;
        let mut finer = BitMask::zeros(fine.pow(3));
        let mut coarse = BitMask::ones(dim.pow(3));
        let centre = [0.45, 0.55, 0.5].map(|f| f * dim as f64);
        for c in 0..dim.pow(3) {
            let at = [c % dim, c / dim % dim, c / dim / dim];
            let r2: f64 = (0..3).map(|a| (at[a] as f64 - centre[a]).powi(2)).sum();
            if r2 < (dim as f64 / 3.0).powi(2) {
                coarse.set(c, false);
                for child in 0..8 {
                    let [x, y, z] = [0, 1, 2].map(|a| 2 * at[a] + (child >> a & 1));
                    finer.set(x + fine * (y + fine * z), true);
                }
            }
        }
        vec![finer, coarse]
    }

    /// Every piece of the whole walk, with its level.
    fn pieces(refs: &[&BitMask], finest_dim: usize) -> Vec<(usize, Piece)> {
        let mut out = Vec::new();
        let _ = walk(refs, finest_dim, ALL_PLANES, |l, piece| {
            out.push((l, piece));
            Continue::<(), ()>(())
        });
        out
    }

    #[test]
    fn valid_two_level_trees_descend_in_row_segments_in_reference_order() {
        for fine in [16, 64] {
            let masks = refined_ball(fine);
            let refs: Vec<&BitMask> = masks.iter().collect();
            assert_eq!(zmesh_order(&refs, fine), reference_order(&refs, fine));
            // Every descent is a row segment, one per maximal stretch of
            // refined cells in a coarse row.
            let dim = fine / 2;
            let stretches = (0..dim * dim)
                .map(|row| {
                    let refined = |x: usize| !masks[1].get(row * dim + x);
                    (0..dim)
                        .filter(|&x| refined(x) && (x == 0 || !refined(x - 1)))
                        .count()
                })
                .sum::<usize>();
            let fine_pieces: Vec<Piece> = pieces(&refs, fine)
                .into_iter()
                .filter_map(|(l, piece)| (l == 0).then_some(piece))
                .collect();
            assert!(stretches > dim, "{fine}: {stretches} stretches");
            assert_eq!(fine_pieces.len(), stretches, "{fine}");
            assert!(
                fine_pieces.iter().all(|p| matches!(p, Piece::Rows { .. })),
                "{fine}: a sibling pair in a valid two-level tree"
            );
        }
    }

    fn check_windows_inside_the_first_segment<T: Element>(fine: usize) {
        let masks = refined_ball(fine);
        let refs: Vec<&BitMask> = masks.iter().collect();
        let order = zmesh_order(&refs, fine);
        let data: Vec<Vec<T>> = random_buffers(&masks, fine as u64);
        let slices: Vec<&[T]> = data.iter().map(|d| d.as_slice()).collect();
        let mut from = 0;
        let first = pieces(&refs, fine)
            .into_iter()
            .find_map(|(_, piece)| match piece {
                Piece::Rows { .. } => Some(piece),
                _ => {
                    from += piece.len();
                    None
                }
            });
        let len = first.expect("a row segment").len();
        assert!(len >= 16, "{fine}: a {len}-value first segment");
        for n in from..=from + len {
            let window = gather_walk(&refs, fine, ALL_PLANES, &slices, n);
            assert_eq!(bits(&window), bits(&gather(&order[..n], &slices)), "{n}");
        }
    }

    #[test]
    fn windows_ending_inside_a_row_segment_are_the_order_prefix() {
        for fine in [16, 64] {
            check_windows_inside_the_first_segment::<f64>(fine);
            check_windows_inside_the_first_segment::<f32>(fine);
        }
    }

    fn check_clipped_row_segments<T: Element>(fine: usize) {
        let masks = refined_ball(fine);
        let refs: Vec<&BitMask> = masks.iter().collect();
        let data: Vec<Vec<T>> = random_buffers(&masks, 7);
        let slices: Vec<&[T]> = data.iter().map(|d| d.as_slice()).collect();
        let stream = gather(&zmesh_order(&refs, fine), &slices);
        let before: Vec<Vec<T>> = random_buffers(&masks, 11);
        // Odd x bounds split a sibling pair; odd y and z bounds keep one
        // or two of a segment's four rows (a box keeps a product of its
        // y and z rows, never three). The coarse level takes the box
        // coarsened, or its whole grid, or nothing.
        let s = fine / 16;
        for x in [(3, 11), (0, 16), (5, 6), (2, 9)] {
            for y in [(3, 10), (0, 16), (4, 5)] {
                for z in [(5, 12), (2, 8), (7, 8)] {
                    let b = Aabb::new((s * x.0, s * y.0, s * z.0), (s * x.1, s * y.1, s * z.1));
                    let none = Aabb::new((0, 0, 0), (0, 0, 0));
                    for coarse in [b.coarsen(2), Aabb::whole(fine / 2), none] {
                        let what = format!("{fine}: {b:?} / {coarse:?}");
                        check_clipped_scatter(&refs, fine, &stream, &before, &[b, coarse], &what);
                    }
                }
            }
        }
    }

    #[test]
    fn clipped_row_segments_match_the_explicit_order_reference() {
        check_clipped_row_segments::<f64>(16);
        check_clipped_row_segments::<f32>(16);
        check_clipped_row_segments::<f64>(64);
    }

    #[test]
    fn masks_shorter_than_their_grid_are_corrupt_not_a_panic() {
        let masks = refined_ball(16);
        let refs: Vec<&BitMask> = masks.iter().collect();
        let data: Vec<Vec<f64>> = random_buffers(&masks, 3);
        let slices: Vec<&[f64]> = data.iter().map(|d| d.as_slice()).collect();
        let stream = gather(&zmesh_order(&refs, 16), &slices);
        let boxes = [
            Aabb::new((3, 3, 3), (11, 11, 11)),
            Aabb::new((1, 1, 1), (6, 6, 6)),
        ];
        for l in 0..2 {
            // Cut before the first, a middle and the last present cell.
            let ones: Vec<usize> = masks[l].iter_ones().collect();
            for keep in [ones[0], ones[ones.len() / 2], ones[ones.len() - 1]] {
                let mut short = masks.clone();
                short[l] = BitMask::zeros(keep);
                for i in masks[l].iter_ones().take_while(|&i| i < keep) {
                    short[l].set(i, true);
                }
                let refs: Vec<&BitMask> = short.iter().collect();
                let walked = gather_walk(&refs, 16, ALL_PLANES, &slices, usize::MAX);
                assert!(walked.len() < stream.len(), "level {l} cut to {keep}");
                for clips in [Vec::new(), some(&boxes)] {
                    let mut bufs = data.clone();
                    let err = scatter_walk(
                        &refs,
                        16,
                        ALL_PLANES,
                        &stream,
                        &mut whole(&mut bufs),
                        &clips,
                    )
                    .unwrap_err();
                    assert!(
                        matches!(err, TacError::Corrupt(_)),
                        "level {l} cut to {keep}: {err}"
                    );
                }
            }
        }
        // Whole masks over a level buffer too short for its last cell.
        let mut bufs = data.clone();
        bufs[0].truncate(masks[0].iter_ones().last().unwrap());
        let err = scatter_walk(&refs, 16, ALL_PLANES, &stream, &mut whole(&mut bufs), &[]);
        assert!(matches!(err, Err(TacError::Corrupt(_))), "{err:?}");
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
