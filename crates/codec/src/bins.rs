//! Greedy bin optimization over per-page latent histograms —
//! [`crate::PcoAns`]'s replacement for PcoLite's single per-page bit
//! width.
//!
//! Latents (zigzagged quantized deltas) are classed by bit length
//! (0..=64). A *bin* is an inclusive run of classes; each latent is
//! encoded as its bin's *token* (entropy-coded by the rANS stage) plus
//! an *offset* within the bin (bit-packed verbatim). Starting from one
//! bin per nonempty class, adjacent bins merge greedily while the
//! estimated page cost — offset bits + token entropy + per-bin table
//! overhead — keeps falling. Pages with a few tight clusters get
//! narrow offsets and a cheap, skewed token stream; noisy pages
//! collapse into a couple of wide bins whose tokens cost almost
//! nothing.
//!
//! The class helpers ([`class_lower`], [`run_offset_bits`]) are shared
//! with the decoder, which recomputes each bin's lower bound and
//! offset width from the serialized class run — weights travel on the
//! wire, geometry does not.

use crate::pco::bit_len;

/// Number of bit-length classes (`bit_len` of a `u64` is 0..=64).
pub(crate) const CLASSES: usize = 65;

/// Serialized bits one bin costs in the page header (lo `u8` + hi
/// `u8` + weight `u16`).
const BIN_HEADER_BITS: f64 = 32.0;

/// One planned bin: an inclusive class run and its page count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BinPlan {
    /// Lowest bit-length class in the run.
    pub lo: u8,
    /// Highest bit-length class in the run (inclusive).
    pub hi: u8,
    /// Page values landing in the run.
    pub count: u32,
}

/// Smallest latent whose bit-length class is `c` (0 for class 0).
/// Classes above 64 cannot occur in validated streams; defensively they
/// map to 0.
#[inline]
pub(crate) fn class_lower(c: u8) -> u64 {
    if c == 0 {
        0
    } else {
        1u64.checked_shl(u32::from(c) - 1).unwrap_or(0)
    }
}

/// Largest latent in class `c` (`u64::MAX` for class 64).
#[inline]
pub(crate) fn class_upper(c: u8) -> u64 {
    if c >= 64 {
        u64::MAX
    } else {
        class_lower(c.wrapping_add(1)).wrapping_sub(1)
    }
}

/// Offset width in bits for a bin spanning classes `lo..=hi`: enough
/// for the distance from the run's lower bound to its upper bound.
#[inline]
pub(crate) fn run_offset_bits(lo: u8, hi: u8) -> u32 {
    let span = class_upper(hi).wrapping_sub(class_lower(lo));
    u32::try_from(bit_len(span)).unwrap_or(64)
}

/// Plans a page's bins from its class histogram. `total` is the page
/// length. The result is empty only for an all-zero histogram (which
/// cannot occur — every latent has a class), is ordered by class, and
/// never exceeds [`CLASSES`] entries.
// tac-lint: allow(panic, arith) -- encoder-only: at most 65 bins indexed within bounds, counts bounded by the page length, and the cost model runs in f64.
pub(crate) fn plan_bins(hist: &[u32; CLASSES], total: u32) -> Vec<BinPlan> {
    let mut bins: Vec<BinPlan> = hist
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(cls, &count)| BinPlan {
            lo: cls as u8,
            hi: cls as u8,
            count,
        })
        .collect();
    if bins.is_empty() {
        return bins;
    }
    let n = f64::from(total.max(1));
    // Estimated bits a bin contributes: verbatim offsets, the entropy
    // of its token at its empirical probability, and its table entry.
    let cost = |b: &BinPlan| -> f64 {
        let c = f64::from(b.count);
        c * f64::from(run_offset_bits(b.lo, b.hi)) + c * (n / c).log2() + BIN_HEADER_BITS
    };
    loop {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..bins.len() - 1 {
            let (a, b) = (bins[i], bins[i + 1]);
            let merged = BinPlan {
                lo: a.lo,
                hi: b.hi,
                count: a.count + b.count,
            };
            let saving = cost(&a) + cost(&b) - cost(&merged);
            if saving > 0.0 && best.map_or(true, |(_, s)| saving > s) {
                best = Some((i, saving));
            }
        }
        match best {
            Some((i, _)) => {
                let right = bins.remove(i + 1);
                bins[i].hi = right.hi;
                bins[i].count += right.count;
            }
            None => return bins,
        }
    }
}

/// Maps each class to the index of its containing bin. Classes in the
/// gaps between bins are necessarily empty on the page that produced
/// the plan; they map to bin 0 as an unused placeholder. Only the
/// reference encoder goes through bin indices — the page kernel keys
/// its tables by class.
#[cfg(test)]
pub(crate) fn class_to_bin(bins: &[BinPlan]) -> [u8; CLASSES] {
    let mut map = [0u8; CLASSES];
    for (i, b) in bins.iter().enumerate() {
        for slot in &mut map[usize::from(b.lo)..=usize::from(b.hi)] {
            *slot = i as u8;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_bounds_cover_u64_without_gaps() {
        assert_eq!(class_lower(0), 0);
        assert_eq!(class_upper(0), 0);
        assert_eq!(class_lower(1), 1);
        assert_eq!(class_upper(1), 1);
        assert_eq!(class_lower(8), 128);
        assert_eq!(class_upper(8), 255);
        assert_eq!(class_lower(64), 1 << 63);
        assert_eq!(class_upper(64), u64::MAX);
        for c in 1..=64u8 {
            assert_eq!(class_lower(c), class_upper(c - 1) + 1, "class {c}");
        }
    }

    #[test]
    fn offset_widths_match_the_spans() {
        assert_eq!(run_offset_bits(0, 0), 0);
        assert_eq!(run_offset_bits(1, 1), 0);
        assert_eq!(run_offset_bits(5, 5), 4);
        assert_eq!(run_offset_bits(0, 1), 1);
        assert_eq!(run_offset_bits(0, 64), 64);
        assert_eq!(run_offset_bits(64, 64), 63);
    }

    #[test]
    fn concentrated_pages_keep_narrow_bins() {
        let mut hist = [0u32; CLASSES];
        hist[3] = 2000;
        hist[4] = 1800;
        hist[20] = 5;
        let bins = plan_bins(&hist, 3805);
        assert!(!bins.is_empty() && bins.len() <= 3);
        let total: u32 = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 3805);
        // The rare far class must not drag the dense ones wide: the
        // first bin stays within the dense classes.
        assert!(bins[0].hi <= 4, "dense bin widened to {:?}", bins[0]);
    }

    #[test]
    fn adjacent_sparse_classes_merge() {
        // With few values per class, per-bin header overhead dominates
        // and neighbouring classes should collapse together.
        let mut hist = [0u32; CLASSES];
        for h in hist.iter_mut().take(12).skip(4) {
            *h = 10;
        }
        let bins = plan_bins(&hist, 80);
        assert!(
            bins.len() < 8,
            "sparse neighbouring classes should merge, got {bins:?}"
        );
        let total: u32 = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn dense_classes_stay_separate() {
        // With many values per class, the 32-bit header is noise and
        // the narrower offsets win: no merge should happen.
        let mut hist = [0u32; CLASSES];
        hist[4] = 1000;
        hist[5] = 1000;
        let bins = plan_bins(&hist, 2000);
        assert_eq!(bins.len(), 2, "dense classes merged: {bins:?}");
    }

    #[test]
    fn single_class_page_is_one_bin_zero_offset() {
        let mut hist = [0u32; CLASSES];
        hist[0] = 4096;
        let bins = plan_bins(&hist, 4096);
        assert_eq!(
            bins,
            vec![BinPlan {
                lo: 0,
                hi: 0,
                count: 4096
            }]
        );
        assert_eq!(run_offset_bits(0, 0), 0);
    }

    #[test]
    fn class_map_routes_every_class_in_a_run() {
        let bins = [
            BinPlan {
                lo: 0,
                hi: 2,
                count: 10,
            },
            BinPlan {
                lo: 5,
                hi: 7,
                count: 3,
            },
        ];
        let map = class_to_bin(&bins);
        assert_eq!(&map[0..3], &[0, 0, 0]);
        assert_eq!(&map[5..8], &[1, 1, 1]);
    }
}
