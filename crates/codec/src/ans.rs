//! Tabled rANS (range asymmetric numeral system) entropy stage of
//! [`crate::PcoAns`].
//!
//! The coder is the 32-bit, 16-bit-renormalizing rANS variant used by
//! pcodec and ryg_rans: the state lives in `[1 << 16, 1 << 32)` and
//! every decode step consumes at most one 16-bit word. [`LANES`]
//! states are interleaved over symbol positions modulo [`LANES`] so
//! the per-state dependency chains (table load → multiply → refill)
//! overlap in flight — with four lanes the token pass is
//! throughput-bound, not latency-bound. Frequencies are normalized to
//! [`TABLE_SIZE`], making the decode step a mask, one table load, a
//! multiply and an add — no division and no per-symbol branching (the
//! word refill is computed branch-free from the state comparison).
//!
//! The encoder walks symbols in reverse and writes its words back to
//! front, so the decoder reads words strictly forward. Its step is as
//! division-free as the decoder's: the quotient by a symbol's frequency
//! is the high half of a multiply by that frequency's precomputed
//! reciprocal ([`EncSym`]), exact over the whole state range. The final
//! encoder states are serialized and seed the decoder; a fully consumed
//! page must return every state to [`RANS_L`] — a whole-page integrity
//! check corrupt streams almost always fail.

use crate::CodecError;

/// log2 of the normalized frequency total.
pub(crate) const TABLE_BITS: u32 = 11;
/// Normalized frequency total: every page's bin weights sum to exactly
/// this. tac-lint R3 cross-checks it against `1 << TABLE_BITS`.
pub(crate) const TABLE_SIZE: usize = 2048;
/// Lower bound of the normalized state interval: decode refills below
/// it, and a drained stream rests exactly on it.
pub(crate) const RANS_L: u32 = 1 << 16;
/// Interleaved rANS states per stream. Symbol `i` decodes on lane
/// `i % LANES`; every batch but a page's last must cover a multiple of
/// this so lane assignment stays aligned across calls.
pub(crate) const LANES: usize = 4;

/// One decode-table slot, packed into a `u32` so a decode step costs a
/// single 4-byte load: `freq` in bits 0..12, `offs` in bits 12..24,
/// `sym` in bits 24..31. `offs` is `slot - cum(sym)`, precomputed per
/// slot so the step does not chase a second per-symbol table; both
/// fields fit 12 bits because they are bounded by [`TABLE_SIZE`].
type Slot = u32;

/// Packs one slot. `freq` and `offs` are at most [`TABLE_SIZE`], `sym`
/// at most the 65-class alphabet, so the fields cannot collide.
fn pack_slot(sym: u8, freq: u16, offs: u16) -> Slot {
    u32::from(freq) | (u32::from(offs) << 12) | (u32::from(sym) << 24)
}

/// One symbol's encoder entry: its normalized frequency range, in the
/// form the division-free step consumes.
///
/// With `x = q * freq + r`, the rANS update `(q << TABLE_BITS) + r + cum`
/// equals `x + cum + q * (TABLE_SIZE - freq)`, so only the quotient is
/// needed, and `q = (x * ceil(2^64 / freq)) >> 64` exactly: the
/// reciprocal is `(2^64 + e) / freq` for some `e < freq`, which adds
/// `x * e / (freq * 2^64)` to the true quotient — less than `1 / freq`,
/// the smallest gap to the next integer, because `x * e` stays below
/// `2^32 * TABLE_SIZE`. A frequency of 1 has no 64-bit reciprocal; it
/// takes the all-ones multiplier, whose quotient is `x - 1`, and folds
/// the missing `TABLE_SIZE - 1` into the bias — the same step, no
/// branch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EncSym {
    /// `ceil(2^64 / freq)` (all ones for `freq == 1`).
    rcp: u64,
    /// States at or above this emit a word first:
    /// `freq << (32 - TABLE_BITS)`, which keeps the updated state below
    /// `2^32`.
    x_max: u64,
    /// `TABLE_SIZE - freq`.
    cmpl: u32,
    /// `cum` (plus `TABLE_SIZE - 1` for `freq == 1`).
    bias: u32,
}

impl EncSym {
    /// The entry for a symbol of normalized frequency `freq`
    /// (`1..=TABLE_SIZE`) whose range starts at `cum`.
    pub(crate) fn new(freq: u16, cum: u32) -> EncSym {
        let f = u32::from(freq).max(1);
        let cmpl = (1u32 << TABLE_BITS).saturating_sub(f);
        EncSym {
            rcp: if f == 1 {
                u64::MAX
            } else {
                u64::MAX / u64::from(f) + 1
            },
            x_max: u64::from(f) << (32 - TABLE_BITS),
            cmpl,
            bias: if f == 1 { cum + cmpl } else { cum },
        }
    }

    /// One encode step from state `x` (below `2^32`; carried in a `u64`
    /// so the multiply needs no widening): whether the state
    /// renormalizes first — emitting its low 16 bits as a word; at most
    /// once, since a shifted state is below `2^16 <= x_max` — and the
    /// updated state, again below `2^32` because `x < x_max` by then.
    #[inline(always)]
    fn step(&self, x: u64) -> (bool, u64) {
        let renorm = x >= self.x_max;
        let x = if renorm { x >> 16 } else { x };
        let q = ((u128::from(x) * u128::from(self.rcp)) >> 64) as u64;
        (renorm, x + u64::from(self.bias) + q * u64::from(self.cmpl))
    }
}

/// Entries of the table [`encode`] indexes: a power of two above any
/// symbol the codec produces (a bit-length class, at most 64), so the
/// masked index needs no bounds check.
pub(crate) const SYMBOL_SLOTS: usize = 128;

/// Encodes `symbols` — indices into `table`, which must hold an entry
/// for each one that occurs — back to front, symbol `i` on lane
/// `i % LANES`. The words land little-endian at the *end* of `words` in
/// decoder order; returns the [`LANES`] seed states (lane 0 first) and
/// the byte offset the word stream starts at. `words` must hold two
/// bytes per symbol (a step emits at most one word) plus two spare, so
/// the unconditional store below never runs off the front.
///
/// The four lane states live in locals, and each step stores the word
/// it might emit (the state's low 16 bits, truncated by the cast)
/// unconditionally and then moves the write position by whether it did
/// — the renormalization test depends on the data and would mispredict
/// as a branch.
// tac-lint: allow(panic, arith) -- encoder-only: the table index is masked to its length; `at` walks down from the buffer's end by at most two bytes per symbol, which the caller sized it for (a shorter buffer would drop words in the guarded store, not panic; debug builds assert); states stay below 2^32, so the seed casts keep their value.
pub(crate) fn encode(
    table: &[EncSym; SYMBOL_SLOTS],
    symbols: &[u8],
    words: &mut [u8],
) -> ([u32; LANES], usize) {
    debug_assert!(words.len() >= 2 * symbols.len() + 2);
    let mut at = words.len();
    let mut put = |x: u64, s: u8| -> u64 {
        let (renorm, next) = table[usize::from(s) % SYMBOL_SLOTS].step(x);
        if let Some(slot) = words.get_mut(at.wrapping_sub(2)..at) {
            slot.copy_from_slice(&(x as u16).to_le_bytes());
        }
        at -= 2 * usize::from(renorm);
        next
    };
    let [mut x0, mut x1, mut x2, mut x3] = [u64::from(RANS_L); LANES];
    let quads = symbols.chunks_exact(LANES);
    // The ragged tail holds the last symbols, so it goes first.
    let tail = quads.remainder();
    if let Some(&c) = tail.get(2) {
        x2 = put(x2, c);
    }
    if let Some(&b) = tail.get(1) {
        x1 = put(x1, b);
    }
    if let Some(&a) = tail.first() {
        x0 = put(x0, a);
    }
    for quad in quads.rev() {
        if let [a, b, c, d] = *quad {
            x3 = put(x3, d);
            x2 = put(x2, c);
            x1 = put(x1, b);
            x0 = put(x0, a);
        }
    }
    ([x0 as u32, x1 as u32, x2 as u32, x3 as u32], at)
}

/// The decoder's slot-indexed table: one entry per normalized-frequency
/// slot, sized so a masked state maps straight to its entry. Kept as a
/// fixed-size array so the per-symbol lookup compiles without a bounds
/// check, and designed to be reused across pages — [`DecodeTable::fill`]
/// overwrites in place, so the batch kernel allocates nothing per page.
pub(crate) struct DecodeTable {
    slots: [Slot; TABLE_SIZE],
}

impl DecodeTable {
    /// An empty table (every slot decodes symbol 0); call
    /// [`DecodeTable::fill`] before decoding.
    pub(crate) fn new() -> DecodeTable {
        DecodeTable {
            slots: [pack_slot(0, 1, 0); TABLE_SIZE],
        }
    }

    /// Rebuilds the table in place from wire-provided weights, which
    /// must all be nonzero and total exactly [`TABLE_SIZE`].
    pub(crate) fn fill(&mut self, weights: &[u16]) -> Result<(), CodecError> {
        if weights.is_empty() {
            return Err(CodecError::Corrupt("ANS table with no symbols".into()));
        }
        let mut cum = 0usize;
        for (s, &freq) in weights.iter().enumerate() {
            let sym = u8::try_from(s)
                .map_err(|_| CodecError::Corrupt(format!("ANS symbol index {s} overflows u8")))?;
            if freq == 0 || cum.wrapping_add(usize::from(freq)) > TABLE_SIZE {
                return Err(CodecError::Corrupt(format!(
                    "ANS weight {freq} for symbol {s} breaks the table total"
                )));
            }
            for (offs, slot) in (0..freq).zip(self.slots.iter_mut().skip(cum)) {
                *slot = pack_slot(sym, freq, offs);
            }
            cum = cum.wrapping_add(usize::from(freq));
        }
        if cum != TABLE_SIZE {
            return Err(CodecError::Corrupt(format!(
                "ANS weights sum to {cum}, expected {TABLE_SIZE}"
            )));
        }
        Ok(())
    }
}

/// Scales raw symbol counts to weights summing exactly [`TABLE_SIZE`],
/// keeping every present symbol's weight nonzero. Rounding drift is
/// pushed onto the heaviest symbols, which distorts their code lengths
/// least.
// tac-lint: allow(panic, arith) -- encoder-only: at most TABLE_SIZE symbols with counts bounded by the page length, so the u64 scaling sums cannot overflow and the drift loops index within bounds.
pub(crate) fn normalize_weights(counts: &[u32]) -> Vec<u16> {
    let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    debug_assert!(total > 0, "cannot normalize an empty histogram");
    let mut w: Vec<u64> = counts
        .iter()
        .map(|&c| {
            if c == 0 {
                0
            } else {
                ((u64::from(c) * TABLE_SIZE as u64) / total.max(1)).max(1)
            }
        })
        .collect();
    let mut sum: u64 = w.iter().sum();
    let argmax = |w: &[u64], floor: u64| -> usize {
        let mut best = 0usize;
        let mut best_v = 0u64;
        for (i, &v) in w.iter().enumerate() {
            if v > floor && v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    };
    while sum > TABLE_SIZE as u64 {
        let i = argmax(&w, 1);
        w[i] -= 1;
        sum -= 1;
    }
    while sum < TABLE_SIZE as u64 {
        let i = argmax(&w, 0);
        w[i] += 1;
        sum += 1;
    }
    w.iter().map(|&x| x as u16).collect()
}

/// Streaming [`LANES`]-lane decoder over one page's word stream.
pub(crate) struct AnsDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    x0: u32,
    x1: u32,
    x2: u32,
    x3: u32,
}

impl<'a> AnsDecoder<'a> {
    /// A decoder over `bytes`, seeded with the serialized final encoder
    /// states (lane 0 first).
    pub(crate) fn new(bytes: &'a [u8], seeds: [u32; LANES]) -> AnsDecoder<'a> {
        let [x0, x1, x2, x3] = seeds;
        AnsDecoder {
            bytes,
            pos: 0,
            x0,
            x1,
            x2,
            x3,
        }
    }

    /// One decode step on one lane. The refill is branch-free: the
    /// comparison result masks both the word and the position advance.
    /// Past-the-end reads see zero bytes; [`AnsDecoder::finished`]
    /// rejects streams that actually ran short.
    ///
    /// `slots` is the fixed-size table array, so the masked index
    /// compiles to a single unchecked load (the mask proves the bound),
    /// and the word refill is one 16-bit gather with a predictable
    /// in-bounds branch.
    #[inline(always)]
    fn step(bytes: &[u8], pos: &mut usize, slots: &[Slot; TABLE_SIZE], x: u32) -> (u32, u8) {
        let e = slots
            .get((x as usize) & (TABLE_SIZE - 1))
            .copied()
            .unwrap_or(pack_slot(0, 1, 0));
        let x = (e & 0xFFF)
            .wrapping_mul(x >> TABLE_BITS)
            .wrapping_add((e >> 12) & 0xFFF);
        let need = u32::from(x < RANS_L);
        let word = match bytes.get(*pos..pos.wrapping_add(2)) {
            Some(s) => u32::from(u16::from_le_bytes(s.try_into().unwrap_or([0u8; 2]))),
            None => u32::from(bytes.get(*pos).copied().unwrap_or(0)),
        };
        let x = (x << (16 * need)) | (word * need);
        *pos = pos.wrapping_add((need as usize) * 2);
        // tac-lint: allow(arith) -- the sym field occupies bits 24..31 of the packed slot, so the shifted value is at most 7 bits and the cast is value-preserving.
        (x, (e >> 24) as u8)
    }

    /// Decodes `out.len()` symbols in forward order. Lane assignment is
    /// global across calls as long as every call but the last covers a
    /// multiple of [`LANES`] — the batch kernel's power-of-two batches
    /// guarantee it.
    #[inline]
    pub(crate) fn decode_into(&mut self, table: &DecodeTable, out: &mut [u8]) {
        let slots = &table.slots;
        let mut x0 = self.x0;
        let mut x1 = self.x1;
        let mut x2 = self.x2;
        let mut x3 = self.x3;
        let mut pos = self.pos;
        let mut quads = out.chunks_exact_mut(LANES);
        for quad in &mut quads {
            if let [a, b, c, d] = quad {
                let (nx, s) = Self::step(self.bytes, &mut pos, slots, x0);
                *a = s;
                x0 = nx;
                let (nx, s) = Self::step(self.bytes, &mut pos, slots, x1);
                *b = s;
                x1 = nx;
                let (nx, s) = Self::step(self.bytes, &mut pos, slots, x2);
                *c = s;
                x2 = nx;
                let (nx, s) = Self::step(self.bytes, &mut pos, slots, x3);
                *d = s;
                x3 = nx;
            }
        }
        let mut rest = quads.into_remainder().iter_mut();
        if let Some(a) = rest.next() {
            let (nx, s) = Self::step(self.bytes, &mut pos, slots, x0);
            *a = s;
            x0 = nx;
        }
        if let Some(b) = rest.next() {
            let (nx, s) = Self::step(self.bytes, &mut pos, slots, x1);
            *b = s;
            x1 = nx;
        }
        if let Some(c) = rest.next() {
            let (nx, s) = Self::step(self.bytes, &mut pos, slots, x2);
            *c = s;
            x2 = nx;
        }
        self.x0 = x0;
        self.x1 = x1;
        self.x2 = x2;
        self.x3 = x3;
        self.pos = pos;
    }

    /// Whether the stream drained exactly: every word consumed and all
    /// states back at their seeds.
    pub(crate) fn finished(&self) -> bool {
        self.pos == self.bytes.len()
            && self.x0 == RANS_L
            && self.x1 == RANS_L
            && self.x2 == RANS_L
            && self.x3 == RANS_L
    }

    /// Decoder renormalizations so far (for observability). Every
    /// renormalization consumes exactly one 16-bit word, so the count
    /// falls out of the read position — nothing is tallied in the hot
    /// loop.
    pub(crate) fn renorms(&self) -> u64 {
        (self.pos / 2) as u64
    }
}

/// The encoder this module shipped before the division-free kernel:
/// `/` and `%` per symbol, lane states in memory, words pushed then
/// reversed. Kept as the reference the kernel is held to, byte for byte.
#[cfg(test)]
pub(crate) mod reference {
    use super::{CodecError, LANES, RANS_L, TABLE_BITS, TABLE_SIZE};

    /// One symbol's normalized frequency range (the encoder's view).
    #[derive(Debug, Clone, Copy, Default)]
    struct SymRange {
        freq: u16,
        cum: u16,
    }

    /// The encoder's frequency table (per-symbol ranges only).
    pub(crate) struct AnsTable {
        syms: Vec<SymRange>,
    }

    impl AnsTable {
        /// Builds the table from normalized weights. Every weight must be
        /// nonzero and the weights must sum to exactly [`TABLE_SIZE`];
        /// wire-provided weights that do not are corrupt.
        pub(crate) fn from_weights(weights: &[u16]) -> Result<AnsTable, CodecError> {
            if weights.is_empty() {
                return Err(CodecError::Corrupt("ANS table with no symbols".into()));
            }
            let mut syms = Vec::with_capacity(weights.len());
            let mut cum = 0usize;
            for (s, &freq) in weights.iter().enumerate() {
                if usize::from(u8::MAX) < s {
                    return Err(CodecError::Corrupt(format!(
                        "ANS symbol index {s} overflows u8"
                    )));
                }
                if freq == 0 || cum.wrapping_add(usize::from(freq)) > TABLE_SIZE {
                    return Err(CodecError::Corrupt(format!(
                        "ANS weight {freq} for symbol {s} breaks the table total"
                    )));
                }
                // cum < TABLE_SIZE here, so the narrowing is value-preserving.
                let cum16 = u16::try_from(cum).unwrap_or(0);
                syms.push(SymRange { freq, cum: cum16 });
                cum = cum.wrapping_add(usize::from(freq));
            }
            if cum != TABLE_SIZE {
                return Err(CodecError::Corrupt(format!(
                    "ANS weights sum to {cum}, expected {TABLE_SIZE}"
                )));
            }
            Ok(AnsTable { syms })
        }
    }

    /// Encodes `symbols` against `table`, returning the decoder-ordered
    /// word stream (little-endian `u16`s) and the [`LANES`] seed states
    /// (lane 0 first).
    pub(crate) fn encode(table: &AnsTable, symbols: &[u8]) -> (Vec<u8>, [u32; LANES]) {
        let mut words: Vec<u16> = Vec::with_capacity(symbols.len() / 2);
        let mut lanes = [RANS_L; LANES];
        for (i, &s) in symbols.iter().enumerate().rev() {
            let r = table.syms[usize::from(s)];
            let freq = u32::from(r.freq);
            let x_max = u64::from(freq) << (32 - TABLE_BITS);
            let x = &mut lanes[i % LANES];
            while u64::from(*x) >= x_max {
                words.push(*x as u16);
                *x >>= 16;
            }
            *x = ((*x / freq) << TABLE_BITS) + (*x % freq) + u32::from(r.cum);
        }
        words.reverse();
        let mut bytes = Vec::with_capacity(words.len() * 2);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        (bytes, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::AnsTable;
    use super::*;

    /// The table [`encode`] indexes when symbol `s` is entry `s`.
    fn enc_table(weights: &[u16]) -> [EncSym; SYMBOL_SLOTS] {
        let mut table = [EncSym::default(); SYMBOL_SLOTS];
        let mut cum = 0u32;
        for (entry, &w) in table.iter_mut().zip(weights) {
            *entry = EncSym::new(w, cum);
            cum += u32::from(w);
        }
        table
    }

    /// Encodes with the production kernel and holds it to the reference
    /// coder's words and seeds.
    fn encode_checked(weights: &[u16], symbols: &[u8]) -> (Vec<u8>, [u32; LANES]) {
        let mut words = vec![0u8; 2 * symbols.len() + 2];
        let (seeds, at) = encode(&enc_table(weights), symbols, &mut words);
        let bytes = words[at..].to_vec();
        let table = AnsTable::from_weights(weights).unwrap();
        assert_eq!(
            (bytes.clone(), seeds),
            reference::encode(&table, symbols),
            "kernel and reference coder disagree"
        );
        (bytes, seeds)
    }

    fn roundtrip(weights: &[u16], symbols: &[u8]) -> Vec<u8> {
        let mut dtable = DecodeTable::new();
        dtable.fill(weights).unwrap();
        let (bytes, seeds) = encode_checked(weights, symbols);
        let mut dec = AnsDecoder::new(&bytes, seeds);
        let mut out = vec![0u8; symbols.len()];
        // Decode in uneven chunks to exercise cross-call lane state
        // (all chunks but the last must be even).
        let (head, tail) = out.split_at_mut(symbols.len() / LANES * LANES);
        for chunk in head.chunks_mut(64) {
            dec.decode_into(&dtable, chunk);
        }
        dec.decode_into(&dtable, tail);
        assert!(dec.finished(), "stream must drain to its seed states");
        out
    }

    #[test]
    fn skewed_alphabet_roundtrips() {
        let counts = [1000u32, 200, 30, 4, 1];
        let weights = normalize_weights(&counts);
        assert_eq!(weights.iter().map(|&w| u32::from(w)).sum::<u32>(), 2048);
        let symbols: Vec<u8> = (0..4097u32)
            .map(|i| {
                let h = i.wrapping_mul(2654435761) >> 16;
                match h % 100 {
                    0 => 4,
                    1..=3 => 3,
                    4..=10 => 2,
                    11..=30 => 1,
                    _ => 0,
                }
            })
            .collect();
        assert_eq!(roundtrip(&weights, &symbols), symbols);
    }

    #[test]
    fn single_symbol_alphabet_emits_no_words() {
        let symbols = vec![0u8; 1000];
        let (bytes, seeds) = encode_checked(&[2048], &symbols);
        assert!(bytes.is_empty(), "degenerate alphabet needs no payload");
        assert_eq!(seeds, [RANS_L; LANES]);
        assert_eq!(roundtrip(&[2048], &symbols), symbols);
    }

    #[test]
    fn uniform_alphabet_costs_about_log2n_bits() {
        let weights = normalize_weights(&[1; 64]);
        let symbols: Vec<u8> = (0..8192u32).map(|i| (i % 64) as u8).collect();
        let (bytes, _) = encode_checked(&weights, &symbols);
        // 64 equiprobable symbols = 6 bits each = 6144 bytes for 8192.
        let ideal = 8192 * 6 / 8;
        assert!(
            bytes.len() <= ideal + ideal / 50,
            "{} bytes vs ideal {ideal}",
            bytes.len()
        );
        assert_eq!(roundtrip(&weights, &symbols), symbols);
    }

    #[test]
    fn empty_symbol_stream_is_legal() {
        let (bytes, seeds) = encode_checked(&[1024, 1024], &[]);
        assert!(bytes.is_empty());
        let dec = AnsDecoder::new(&bytes, seeds);
        assert!(dec.finished());
    }

    #[test]
    fn bad_weight_tables_are_rejected() {
        let mut dtable = DecodeTable::new();
        let bads: [&[u16]; 4] = [
            &[],
            &[0, 2048],    // zero weight
            &[1024, 1023], // short sum
            &[2048, 1],    // overflow sum
        ];
        for bad in bads {
            assert!(AnsTable::from_weights(bad).is_err(), "{bad:?}");
            assert!(dtable.fill(bad).is_err(), "{bad:?}");
        }
        assert!(AnsTable::from_weights(&[2048]).is_ok());
        assert!(dtable.fill(&[2048]).is_ok());
    }

    #[test]
    fn corrupt_words_fail_the_drain_check() {
        let weights = normalize_weights(&[100, 50, 25]);
        let mut dtable = DecodeTable::new();
        dtable.fill(&weights).unwrap();
        let symbols: Vec<u8> = (0..999u32).map(|i| (i % 3) as u8).collect();
        let (bytes, seeds) = encode_checked(&weights, &symbols);
        assert!(!bytes.is_empty());
        let mut broken = 0usize;
        for cut in [0, bytes.len() / 2, bytes.len().saturating_sub(2)] {
            let mut dec = AnsDecoder::new(&bytes[..cut], seeds);
            let mut out = vec![0u8; symbols.len()];
            dec.decode_into(&dtable, &mut out);
            if !dec.finished() || out != symbols {
                broken += 1;
            }
        }
        assert_eq!(broken, 3, "truncated streams must not decode cleanly");
    }

    #[test]
    fn normalization_keeps_rare_symbols_alive() {
        let mut counts = [0u32; 65];
        counts[0] = 1_000_000;
        counts[64] = 1;
        let w = normalize_weights(&counts);
        assert!(w[0] > 2000);
        assert_eq!(w[64], 1, "a present symbol must keep nonzero weight");
        assert_eq!(w[1], 0, "an absent symbol must stay at zero");
        assert_eq!(w.iter().map(|&x| u32::from(x)).sum::<u32>(), 2048);
    }

    #[test]
    fn reciprocal_step_matches_the_dividing_step() {
        // The step the kernel replaced, on one state.
        let dividing = |freq: u32, cum: u32, mut x: u32| {
            let renorm = u64::from(x) >= u64::from(freq) << (32 - TABLE_BITS);
            if renorm {
                x >>= 16;
            }
            let next = ((x / freq) << TABLE_BITS) + (x % freq) + cum;
            (renorm, u64::from(next))
        };
        for freq in 1..=TABLE_SIZE as u32 {
            let x_max = u64::from(freq) << (32 - TABLE_BITS);
            let mut states = vec![RANS_L, u32::MAX];
            for x in [x_max - 1, x_max] {
                states.extend(u32::try_from(x).ok());
            }
            // Multiples of the frequency and their neighbours, where a
            // quotient off by one ulp of the reciprocal would show.
            for k in [
                RANS_L / freq + 1,
                0xFFFF,
                0x1_0001,
                (1 << 21) - 1,
                u32::MAX / freq,
            ] {
                let m = u64::from(k) * u64::from(freq);
                for x in [m - 1, m, m + 1] {
                    states.extend(u32::try_from(x).ok().filter(|&x| x >= RANS_L));
                }
            }
            for cum in [0, TABLE_SIZE as u32 - freq] {
                let sym = EncSym::new(freq as u16, cum);
                for &x in &states {
                    let got = sym.step(u64::from(x));
                    assert_eq!(got, dividing(freq, cum, x), "freq {freq} state {x}");
                }
            }
        }
    }
}
