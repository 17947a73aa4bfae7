//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ entropy-codes the quantization codes with a custom Huffman stage;
//! this module reproduces that: build a code from symbol frequencies,
//! serialize only the `(symbol, code length)` table, and reconstruct the
//! canonical code on the decode side.
//!
//! All three steps run off tables:
//!
//! * **Build.** Quantization codes cluster around the capacity's middle
//!   (plus [`crate::UNPREDICTABLE`] = 0), so the symbols of a stream span
//!   a narrow `[min, max]`. When that span is small next to the stream
//!   (at most `DENSE_SPAN_PER_VALUE` = 16 slots per value, and at most
//!   `DENSE_SPAN_MAX` = 2^22) the frequencies are counted in a dense array
//!   over it, which lists the distinct symbols in ascending order with
//!   their counts — the list sorting a copy of the stream gives, so the
//!   code lengths and the table are the same. Wider spans sort.
//! * **Encode.** The dense count array is then rewritten in place into
//!   a `symbol → code index` lookup. A sorted build indexes its distinct
//!   symbols in a small open-addressing hash table instead (SZ's small
//!   streams land here: symbol 0, [`crate::UNPREDICTABLE`], sits half
//!   the capacity away from the rest).
//! * **Decode.** A table indexed by the next `min(max length,
//!   TABLE_BITS)` bits (`TABLE_BITS` = 11) resolves every code that short in one
//!   lookup, several codes per 57-bit word peeked off the stream. Longer
//!   codes, bit patterns no short code starts, and codes that would run
//!   past the stream's declared length take the canonical walk every
//!   code used to take, one bit per length, so each decode returns the
//!   same symbols and fails on the same streams as before.

use crate::bitstream::{BitReader, BitWriter, PEEK_MAX};
use crate::wire::ByteReader;
use crate::CodecError;

/// Maximum accepted code length. With < 2^32 samples the Huffman depth is
/// bounded well below this; the cap protects the decoder against crafted
/// tables.
const MAX_CODE_LEN: u8 = 64;

/// Longest code the decode table resolves in one lookup: 2^11 entries.
const TABLE_BITS: u8 = 11;

/// Dense counting is used while `max - min + 1` is at most this many
/// slots per stream value ...
const DENSE_SPAN_PER_VALUE: usize = 16;

/// ... and at most this many slots (16 MiB of `u32` counts).
const DENSE_SPAN_MAX: usize = 1 << 22;

/// How [`HuffmanCode::encode`] finds a symbol's code.
#[derive(Debug, Clone)]
enum SymbolIndex {
    /// `slots[s - base]` is one more than the index of symbol `s`, 0 when
    /// the code has no such symbol.
    Dense { base: u32, slots: Vec<u32> },
    /// Open addressing over a power-of-two table at most half full:
    /// symbol `s` sits at the first slot from `hash(s)` whose key is `s`;
    /// an index of `u32::MAX` marks an empty slot.
    Hashed {
        keys: Vec<u32>,
        slots: Vec<u32>,
        bits: u32,
    },
}

impl SymbolIndex {
    /// The open-addressing index of the sorted distinct `symbols`.
    // tac-lint: allow(panic, arith) -- encoder-side: the table holds at least twice as many slots as symbols, so every probe sequence ends at an empty slot, and symbol counts sit far below u32::MAX.
    fn hashed(symbols: &[u32]) -> Self {
        let bits = (2 * symbols.len())
            .next_power_of_two()
            .trailing_zeros()
            .clamp(1, 31);
        let mut keys = vec![0u32; 1 << bits];
        let mut slots = vec![u32::MAX; 1 << bits];
        let mask = (1usize << bits) - 1;
        for (j, &s) in symbols.iter().enumerate() {
            let mut h = hash_slot(s, bits);
            while slots[h] != u32::MAX {
                h = (h + 1) & mask;
            }
            keys[h] = s;
            slots[h] = j as u32;
        }
        SymbolIndex::Hashed { keys, slots, bits }
    }
}

/// Home slot of `s` in a `2^bits`-slot [`SymbolIndex::Hashed`] table
/// (Fibonacci hashing: consecutive codes land far apart).
#[inline]
fn hash_slot(s: u32, bits: u32) -> usize {
    (s.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
}

/// A built Huffman code: canonical `(code, length)` per distinct symbol.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Sorted distinct symbols.
    symbols: Vec<u32>,
    /// Code length per symbol (parallel to `symbols`).
    lengths: Vec<u8>,
    /// Canonical codewords (parallel to `symbols`).
    codes: Vec<u64>,
    /// Encoder-side symbol lookup; `None` for a code read off the wire,
    /// which builds one only if it is ever asked to encode.
    index: Option<SymbolIndex>,
}

impl HuffmanCode {
    /// Builds a code from the frequencies of `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty (callers guard this).
    pub fn from_symbols(data: &[u32]) -> Self {
        assert!(!data.is_empty(), "cannot build a Huffman code from nothing");
        let (symbols, freqs, index) = count_symbols(data);
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        HuffmanCode {
            symbols,
            lengths,
            codes,
            index: Some(index),
        }
    }

    /// Encodes `data` into `writer`.
    ///
    /// # Panics
    /// Panics if a symbol was not present when the code was built.
    // tac-lint: allow(panic) -- encoder-side: callers encode the same data the table was built from, so every lookup lands on a present symbol and idx < symbols.len() = codes.len() = lengths.len().
    pub fn encode(&self, data: &[u32], writer: &mut BitWriter) {
        let built;
        let index = match &self.index {
            Some(index) => index,
            None => {
                built = SymbolIndex::hashed(&self.symbols);
                &built
            }
        };
        match index {
            SymbolIndex::Dense { base, slots } => {
                for &s in data {
                    let idx = slots[s.wrapping_sub(*base) as usize].wrapping_sub(1) as usize;
                    writer.write_bits(self.codes[idx], self.lengths[idx]);
                }
            }
            SymbolIndex::Hashed { keys, slots, bits } => {
                let mask = slots.len() - 1;
                for &s in data {
                    let mut h = hash_slot(s, *bits);
                    let idx = loop {
                        match slots[h] {
                            u32::MAX => panic!("symbol not in Huffman table"),
                            j if keys[h] == s => break j as usize,
                            _ => h = (h + 1) & mask,
                        }
                    };
                    writer.write_bits(self.codes[idx], self.lengths[idx]);
                }
            }
        }
    }

    /// Serializes the `(symbol, length)` table.
    // tac-lint: allow(arith) -- encoder-side: distinct symbols come from one in-memory block, far below u32::MAX.
    pub fn serialize_table(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for (&s, &l) in self.symbols.iter().zip(&self.lengths) {
            out.extend_from_slice(&s.to_le_bytes());
            out.push(l);
        }
    }

    /// Deserializes a table written by [`HuffmanCode::serialize_table`].
    /// Returns the code and the number of bytes consumed.
    pub fn deserialize_table(bytes: &[u8]) -> Result<(Self, usize), CodecError> {
        let mut r = ByteReader::new(bytes);
        let n = r
            .get_u32()
            .map_err(|_| CodecError::Corrupt("huffman table header truncated".into()))?
            as usize;
        if n == 0 {
            return Err(CodecError::Corrupt("huffman table is empty".into()));
        }
        // Five bytes per entry: the declared count is bounded by what the
        // buffer can actually hold before anything is allocated.
        if n > r.remaining() / 5 {
            return Err(CodecError::Corrupt(format!(
                "huffman table truncated: {n} entries declared, {} bytes remain",
                r.remaining()
            )));
        }
        let mut symbols = Vec::with_capacity(n);
        let mut lengths = Vec::with_capacity(n);
        for _ in 0..n {
            let truncated = |_| CodecError::Corrupt("huffman table truncated".into());
            let s = r.get_u32().map_err(truncated)?;
            let l = r.get_u8().map_err(truncated)?;
            if l == 0 || l > MAX_CODE_LEN {
                return Err(CodecError::Corrupt(format!("invalid code length {l}")));
            }
            if let Some(&prev) = symbols.last() {
                if s <= prev {
                    return Err(CodecError::Corrupt("huffman symbols not sorted".into()));
                }
            }
            symbols.push(s);
            lengths.push(l);
        }
        // Kraft check: sum of 2^-len must not exceed 1 (and equals 1 for a
        // complete code); reject over-subscribed tables.
        let mut kraft = 0u128;
        for &l in &lengths {
            kraft += 1u128 << (MAX_CODE_LEN - l);
        }
        if n > 1 && kraft > 1u128 << MAX_CODE_LEN {
            return Err(CodecError::Corrupt("huffman table violates Kraft".into()));
        }
        let codes = canonical_codes(&lengths);
        Ok((
            HuffmanCode {
                symbols,
                lengths,
                codes,
                index: None,
            },
            r.position(),
        ))
    }

    /// Decodes `count` symbols from `reader`.
    pub fn decode(&self, reader: &mut BitReader<'_>, count: usize) -> Result<Vec<u32>, CodecError> {
        if let [s] = *self.symbols.as_slice() {
            // Degenerate one-symbol alphabet: one bit was written per
            // symbol, whatever its value.
            reader.consume(count as u64)?;
            return Ok(vec![s; count]);
        }
        let decoder = CanonicalDecoder::new(self);
        let shift = 64 - u32::from(decoder.table_bits);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            // Table lookups straight off one peeked word while each code
            // fits its valid bits: a code's entry depends on its own bits
            // only, so the zeros shifted in past the word never matter.
            let valid = reader.remaining().min(u64::from(PEEK_MAX));
            let word = reader.peek_bits(PEEK_MAX) << (64 - u32::from(PEEK_MAX));
            let mut used = 0u64;
            while out.len() < count {
                let Some(&(sym, len)) = decoder.table.get(((word << used) >> shift) as usize)
                else {
                    break;
                };
                let end = used + u64::from(len);
                if len == 0 || end > valid {
                    break;
                }
                out.push(sym);
                used = end;
            }
            reader.consume(used)?;
            // Nothing fit: one symbol the careful way (a long code, the
            // stream's tail, or an error).
            if used == 0 {
                out.push(decoder.walk(reader)?);
            }
        }
        Ok(out)
    }
}

/// Canonical decoding state: for each code length, the first canonical
/// code of that length and the index of its first symbol, plus the
/// lookup table over the shortest codes.
struct CanonicalDecoder {
    /// Symbols in canonical `(length, symbol)` order.
    by_len_symbol: Vec<u32>,
    /// For each length 1..=max: (first_code, first_index, count).
    levels: Vec<(u64, u32, u32)>,
    /// Bits the table is indexed by: `min(max length, TABLE_BITS)`.
    table_bits: u8,
    /// `(symbol, length)` of the code the next `table_bits` bits start
    /// with; length 0 when no code that short does.
    table: Vec<(u32, u8)>,
}

impl CanonicalDecoder {
    /// Decoder for a code of two or more symbols.
    fn new(code: &HuffmanCode) -> Self {
        // Canonical order is (length, symbol). `symbols` is already
        // sorted, so sorting the zipped pairs gives exactly that without
        // any index round-trips.
        let mut pairs: Vec<(u8, u32)> = code
            .lengths
            .iter()
            .copied()
            .zip(code.symbols.iter().copied())
            .collect();
        pairs.sort_unstable();
        let by_len_symbol: Vec<u32> = pairs.iter().map(|&(_, s)| s).collect();
        let max_len = pairs.last().map_or(0, |&(l, _)| l);

        let mut counts = vec![0u32; usize::from(max_len).saturating_add(1)];
        for &(l, _) in &pairs {
            if let Some(c) = counts.get_mut(usize::from(l)) {
                *c += 1;
            }
        }
        let mut levels = Vec::with_capacity(usize::from(max_len));
        let mut next_code = 0u64;
        let mut first_index = 0u32;
        for &count in counts.iter().skip(1) {
            next_code <<= 1;
            levels.push((next_code, first_index, count));
            next_code = next_code.wrapping_add(u64::from(count));
            first_index = first_index.saturating_add(count);
        }

        // Every code of length `l <= table_bits` owns the
        // 2^(table_bits - l) entries its bits prefix. The table was
        // checked against Kraft, so the ranges are disjoint and in
        // bounds; `get` keeps a violation from panicking all the same.
        let table_bits = max_len.clamp(1, TABLE_BITS);
        let mut table = vec![(0u32, 0u8); 1usize << table_bits];
        for (len, &(first_code, first_index, count)) in (1..=table_bits).zip(&levels) {
            let shift = table_bits - len;
            for j in 0..count {
                let sym = by_len_symbol.get((first_index.saturating_add(j)) as usize);
                let lo = (first_code.wrapping_add(u64::from(j)) as usize) << shift;
                let span = table.get_mut(lo..lo.saturating_add(1 << shift));
                if let (Some(&sym), Some(span)) = (sym, span) {
                    span.fill((sym, len));
                }
            }
        }
        CanonicalDecoder {
            by_len_symbol,
            levels,
            table_bits,
            table,
        }
    }

    /// The canonical walk every code used to take: one bit per step,
    /// testing each length in turn.
    fn walk(&self, reader: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let mut acc = 0u64;
        for &(first_code, first_index, count) in &self.levels {
            acc = (acc << 1) | u64::from(reader.read_bit()?);
            if count > 0 && acc >= first_code && acc - first_code < u64::from(count) {
                return self.symbol_at(first_index, acc - first_code);
            }
        }
        Err(CodecError::Corrupt("invalid huffman codeword".into()))
    }

    /// The symbol `offset` codes into the length that starts at
    /// canonical index `first_index`.
    fn symbol_at(&self, first_index: u32, offset: u64) -> Result<u32, CodecError> {
        let idx = u64::from(first_index).saturating_add(offset);
        self.by_len_symbol
            .get(usize::try_from(idx).unwrap_or(usize::MAX))
            .copied()
            .ok_or_else(|| CodecError::Corrupt("invalid huffman codeword".into()))
    }
}

/// The sorted distinct symbols of `data`, their frequencies, and the
/// encoder's lookup: a dense count over `[min, max]` when the span is
/// narrow (rewritten into the `symbol → index` slots), a sort and a
/// hashed index of the distinct symbols otherwise.
// tac-lint: allow(panic, arith) -- encoder over in-memory input: every s - min < span = slots.len() since min <= s <= max, counts stay below data.len() <= u32::MAX, and `i` and `j` stay below sorted.len() by the loop guards.
fn count_symbols(data: &[u32]) -> (Vec<u32>, Vec<u64>, SymbolIndex) {
    let (min, max) = data
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let span = (max - min) as usize + 1;
    let dense_limit = data
        .len()
        .saturating_mul(DENSE_SPAN_PER_VALUE)
        .min(DENSE_SPAN_MAX);
    let mut symbols = Vec::new();
    let mut freqs: Vec<u64> = Vec::new();
    if span <= dense_limit && u32::try_from(data.len()).is_ok() {
        let mut slots = vec![0u32; span];
        for &s in data {
            slots[(s - min) as usize] += 1;
        }
        // Most slots are empty: skip them sixteen at a time.
        for (c, chunk) in slots.chunks_mut(16).enumerate() {
            if chunk.iter().fold(0, |any, &count| any | count) == 0 {
                continue;
            }
            for (k, slot) in chunk.iter_mut().enumerate() {
                if *slot != 0 {
                    freqs.push(u64::from(*slot));
                    symbols.push(min + (16 * c + k) as u32);
                    *slot = symbols.len() as u32;
                }
            }
        }
        let index = SymbolIndex::Dense { base: min, slots };
        return (symbols, freqs, index);
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    let mut i = 0;
    while i < sorted.len() {
        let s = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == s {
            j += 1;
        }
        symbols.push(s);
        freqs.push((j - i) as u64);
        i = j;
    }
    let index = SymbolIndex::hashed(&symbols);
    (symbols, freqs, index)
}

/// Computes Huffman code lengths from frequencies. A single symbol gets
/// length 1.
///
/// The tree is the one a min-heap of `(freq, node id)` builds — leaves
/// are ids `0..n` in symbol order, merged nodes `n..` in creation order —
/// built with two queues instead of the heap. The leaves, sorted by
/// `(freq, id)`, form one queue; merged nodes form the other, already in
/// `(freq, id)` order because each merge's sum is at least the last one's
/// and ids only grow. The smaller of the two fronts is the heap's
/// minimum (a leaf wins a tie in frequency: its id is smaller), so every
/// merge pairs the same two nodes in the same order.
// tac-lint: allow(panic, arith) -- encoder-only tree build: each merge pops two of the >= 2 nodes left, every node id is < 2n-1 by construction, and n is an in-memory symbol count.
fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    let n = freqs.len();
    if n == 1 {
        return vec![1];
    }
    let mut leaves: Vec<u32> = (0..n as u32).collect();
    leaves.sort_unstable_by_key(|&i| (freqs[i as usize], i));
    // Frequencies of the merged nodes, by `id - n`.
    let mut merged: Vec<u64> = Vec::with_capacity(n - 1);
    let mut parent = vec![0u32; 2 * n - 1];
    let (mut leaf, mut queue) = (0usize, 0usize);
    let mut pop = |merged: &Vec<u64>| -> (u64, usize) {
        let from_leaf = match (leaves.get(leaf), merged.get(queue)) {
            (Some(&l), Some(&q)) => freqs[l as usize] <= q,
            (l, _) => l.is_some(),
        };
        if from_leaf {
            let id = leaves[leaf] as usize;
            leaf += 1;
            (freqs[id], id)
        } else {
            queue += 1;
            (merged[queue - 1], n + queue - 1)
        }
    };
    for next in n..2 * n - 1 {
        let (fa, a) = pop(&merged);
        let (fb, b) = pop(&merged);
        parent[a] = next as u32;
        parent[b] = next as u32;
        merged.push(fa + fb);
    }
    // Parents have larger ids than their children: one pass down from
    // the root (id 2n - 2, depth 0) gives every depth.
    let mut depth = vec![0u8; 2 * n - 1];
    for id in (0..2 * n - 2).rev() {
        depth[id] = depth[parent[id] as usize] + 1;
    }
    depth.truncate(n);
    depth
}

/// Assigns canonical codewords given code lengths: symbols sorted by
/// (length, symbol index) receive consecutive codes.
///
/// Total: runs on lengths deserialized from the wire, so every lookup is
/// checked even though `l <= max_len` holds by construction.
fn canonical_codes(lengths: &[u8]) -> Vec<u64> {
    let max_len = usize::from(lengths.iter().copied().max().unwrap_or(0));
    let mut counts = vec![0u64; max_len.saturating_add(1)];
    for &l in lengths {
        if let Some(c) = counts.get_mut(usize::from(l)) {
            *c += 1;
        }
    }
    let mut next_code = vec![0u64; max_len.saturating_add(1)];
    let mut code = 0u64;
    for len in 1..=max_len {
        let shorter = counts.get(len.wrapping_sub(1)).copied().unwrap_or(0);
        code = (code + shorter) << 1;
        if let Some(slot) = next_code.get_mut(len) {
            *slot = code;
        }
    }
    // Assign in symbol order (lengths are stored in symbol order; canonical
    // ordering demands (length, symbol) — symbols are sorted, so iterating
    // in symbol order and bumping the per-length counter is canonical).
    let mut codes = Vec::with_capacity(lengths.len());
    for &l in lengths {
        match next_code.get_mut(usize::from(l)) {
            Some(slot) => {
                codes.push(*slot);
                *slot += 1;
            }
            None => codes.push(0),
        }
    }
    codes
}

/// The build, encode and decode every SZ stream went through before the
/// count, lookup and table kernels, kept as the reference the
/// differential tests hold [`HuffmanCode`] to.
#[cfg(test)]
pub(crate) mod reference {
    use super::canonical_codes;
    use crate::bitstream::reference::{BitReader, BitWriter};
    use crate::CodecError;
    use std::collections::BinaryHeap;

    /// Computes Huffman code lengths from frequencies (package-style heap
    /// algorithm). A single symbol gets length 1.
    pub(crate) fn code_lengths(freqs: &[u64]) -> Vec<u8> {
        let n = freqs.len();
        if n == 1 {
            return vec![1];
        }
        // Min-heap of (freq, node). Internal tree built with parent pointers.
        #[derive(PartialEq, Eq)]
        struct Item {
            freq: u64,
            node: u32,
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap; tie-break on node id for determinism.
                other.freq.cmp(&self.freq).then(other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut parent = vec![u32::MAX; 2 * n - 1];
        let mut heap: BinaryHeap<Item> = freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| Item {
                freq: f,
                node: i as u32,
            })
            .collect();
        let mut next = n as u32;
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            parent[a.node as usize] = next;
            parent[b.node as usize] = next;
            heap.push(Item {
                freq: a.freq + b.freq,
                node: next,
            });
            next += 1;
        }
        (0..n)
            .map(|i| {
                let mut len = 0u8;
                let mut node = i as u32;
                while parent[node as usize] != u32::MAX {
                    node = parent[node as usize];
                    len += 1;
                }
                len
            })
            .collect()
    }

    /// A built Huffman code: canonical `(code, length)` per distinct symbol.
    #[derive(Debug, Clone)]
    pub struct HuffmanCode {
        /// Sorted distinct symbols.
        symbols: Vec<u32>,
        /// Code length per symbol (parallel to `symbols`).
        lengths: Vec<u8>,
        /// Canonical codewords (parallel to `symbols`).
        codes: Vec<u64>,
    }

    impl HuffmanCode {
        /// Builds a code from the frequencies of `data`.
        ///
        /// # Panics
        /// Panics if `data` is empty (callers guard this).
        pub fn from_symbols(data: &[u32]) -> Self {
            assert!(!data.is_empty(), "cannot build a Huffman code from nothing");
            // Frequency map. Symbols are quantization codes, usually tightly
            // clustered around the mid value; a sorted Vec keeps this simple.
            let mut sorted = data.to_vec();
            sorted.sort_unstable();
            let mut symbols = Vec::new();
            let mut freqs: Vec<u64> = Vec::new();
            let mut i = 0;
            while i < sorted.len() {
                let s = sorted[i];
                let mut j = i;
                while j < sorted.len() && sorted[j] == s {
                    j += 1;
                }
                symbols.push(s);
                freqs.push((j - i) as u64);
                i = j;
            }
            let lengths = code_lengths(&freqs);
            let codes = canonical_codes(&lengths);
            HuffmanCode {
                symbols,
                lengths,
                codes,
            }
        }

        /// Encodes `data` into `writer`.
        ///
        /// # Panics
        /// Panics if a symbol was not present when the code was built.
        pub fn encode(&self, data: &[u32], writer: &mut BitWriter) {
            for &s in data {
                let idx = self
                    .symbols
                    .binary_search(&s)
                    .expect("symbol not in Huffman table");
                writer.write_bits(self.codes[idx], self.lengths[idx]);
            }
        }

        /// Decodes `count` symbols from `reader`.
        pub fn decode(
            &self,
            reader: &mut BitReader<'_>,
            count: usize,
        ) -> Result<Vec<u32>, CodecError> {
            let decoder = CanonicalDecoder::new(self);
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                out.push(decoder.decode_one(reader)?);
            }
            Ok(out)
        }
    }

    /// Canonical decoding state: for each code length, the first canonical code
    /// of that length and the index of its first symbol.
    struct CanonicalDecoder<'a> {
        code: &'a HuffmanCode,
        /// Indices into a by-length ordering of symbols.
        by_len_symbol: Vec<u32>,
        /// For each length 1..=max: (first_code, first_index, count).
        levels: Vec<(u64, u32, u32)>,
        single_symbol: Option<u32>,
    }

    impl<'a> CanonicalDecoder<'a> {
        fn new(code: &'a HuffmanCode) -> Self {
            if code.symbols.len() == 1 {
                return CanonicalDecoder {
                    code,
                    by_len_symbol: Vec::new(),
                    levels: Vec::new(),
                    single_symbol: code.symbols.first().copied(),
                };
            }
            // Canonical order is (length, symbol). `symbols` is already
            // sorted, so sorting the zipped pairs gives exactly that without
            // any index round-trips.
            let mut pairs: Vec<(u8, u32)> = code
                .lengths
                .iter()
                .copied()
                .zip(code.symbols.iter().copied())
                .collect();
            pairs.sort_unstable();
            let by_len_symbol: Vec<u32> = pairs.iter().map(|&(_, s)| s).collect();
            let max_len = usize::from(pairs.last().map(|&(l, _)| l).unwrap_or(0));

            let mut counts = vec![0u32; max_len.saturating_add(1)];
            for &(l, _) in &pairs {
                if let Some(c) = counts.get_mut(usize::from(l)) {
                    *c += 1;
                }
            }
            let mut levels = Vec::with_capacity(max_len);
            let mut next_code = 0u64;
            let mut first_index = 0u32;
            for &count in counts.iter().skip(1) {
                next_code <<= 1;
                levels.push((next_code, first_index, count));
                next_code += u64::from(count);
                first_index = first_index.saturating_add(count);
            }
            CanonicalDecoder {
                code,
                by_len_symbol,
                levels,
                single_symbol: None,
            }
        }

        #[inline]
        fn decode_one(&self, reader: &mut BitReader<'_>) -> Result<u32, CodecError> {
            if let Some(s) = self.single_symbol {
                // Degenerate one-symbol alphabet: a 1-bit code was written.
                reader.read_bit()?;
                return Ok(s);
            }
            let mut acc = 0u64;
            for &(first_code, first_index, count) in &self.levels {
                acc = (acc << 1) | u64::from(reader.read_bit()?);
                if count > 0 && acc >= first_code && acc - first_code < u64::from(count) {
                    let idx = u64::from(first_index) + (acc - first_code);
                    return self
                        .by_len_symbol
                        .get(idx as usize)
                        .copied()
                        .ok_or_else(|| CodecError::Corrupt("invalid huffman codeword".into()));
                }
            }
            Err(CodecError::Corrupt("invalid huffman codeword".into()))
        }

        #[allow(dead_code)]
        fn code(&self) -> &HuffmanCode {
            self.code
        }
    }

    impl HuffmanCode {
        /// Serializes the `(symbol, length)` table.
        pub fn serialize_table(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
            for (&s, &l) in self.symbols.iter().zip(&self.lengths) {
                out.extend_from_slice(&s.to_le_bytes());
                out.push(l);
            }
        }

        /// The reference view of a code read off the wire.
        pub(crate) fn from_table(code: &super::HuffmanCode) -> Self {
            HuffmanCode {
                symbols: code.symbols.clone(),
                lengths: code.lengths.clone(),
                codes: code.codes.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u32]) {
        let code = HuffmanCode::from_symbols(data);
        let mut w = BitWriter::with_capacity(0);
        code.encode(data, &mut w);
        let mut table = Vec::new();
        code.serialize_table(&mut table);
        let (bytes, bits) = w.finish();

        let (decoded_code, consumed) = HuffmanCode::deserialize_table(&table).unwrap();
        assert_eq!(consumed, table.len());
        let mut r = BitReader::new(&bytes, bits).unwrap();
        let out = decoded_code.decode(&mut r, data.len()).unwrap();
        assert_eq!(out, data);
    }

    /// xorshift64*: deterministic test input without a dependency.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// Quantization-code-like streams: a peak at the capacity's middle,
    /// a geometric tail, and a sprinkle of unpredictable zeros.
    fn quant_like(len: usize, spread: u32, seed: u64) -> Vec<u32> {
        let mut next = rng(seed);
        (0..len)
            .map(|_| {
                let r = next();
                if r % 97 == 0 {
                    return 0;
                }
                let mag = (r >> 8).trailing_zeros().min(spread);
                if r & 2 == 0 {
                    32768 + mag
                } else {
                    32768 - mag
                }
            })
            .collect()
    }

    /// Streams for the differential build/encode tests, each tagged with
    /// whether it should count densely.
    fn streams() -> Vec<(Vec<u32>, bool)> {
        let mut skewed = Vec::new();
        for s in 0u32..20 {
            skewed.extend(std::iter::repeat(s).take(1usize << (19 - s as usize)));
        }
        vec![
            (vec![1, 2, 3, 2, 1, 2, 2, 2, 9], true),
            (vec![42; 100], true),
            (vec![7, 8, 7, 7, 8, 7], true),
            (skewed, true),
            ((0..5000u32).map(|i| (i * i) % 997 + 30000).collect(), true),
            (quant_like(512, 30, 1), false),
            (quant_like(69_632, 30, 2), true),
            (quant_like(20_000, 6, 3), true),
            (
                (0..3000u32)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect(),
                false,
            ),
            (vec![0, u32::MAX, 5, 5, u32::MAX], false),
        ]
    }

    #[test]
    fn code_lengths_match_the_heap_build() {
        // Ties everywhere (frequencies from tiny ranges), skewed and
        // geometric frequencies, every alphabet size up to 300.
        for seed in 0..600u64 {
            let mut next = rng(seed);
            let n = 2 + (next() % 300) as usize;
            let spread = [1, 2, 3, 7, 1000, 1 << 40][(seed % 6) as usize];
            let freqs: Vec<u64> = (0..n)
                .map(|k| match seed % 4 {
                    0 => 1 + next() % spread,
                    1 => 1 + (next() % spread) * (k as u64 % 5 + 1),
                    2 => 1u64 << (next() % 30),
                    _ => 1 + next() % spread + (k as u64 / 7),
                })
                .collect();
            assert_eq!(
                code_lengths(&freqs),
                reference::code_lengths(&freqs),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn build_and_encode_match_reference() {
        for (k, (data, dense)) in streams().into_iter().enumerate() {
            let code = HuffmanCode::from_symbols(&data);
            let old = reference::HuffmanCode::from_symbols(&data);
            assert_eq!(
                matches!(code.index, Some(SymbolIndex::Dense { .. })),
                dense,
                "stream {k}"
            );
            let (mut t, mut u) = (Vec::new(), Vec::new());
            code.serialize_table(&mut t);
            old.serialize_table(&mut u);
            assert!(t == u, "stream {k}: table differs");
            let mut w = BitWriter::with_capacity(0);
            code.encode(&data, &mut w);
            let mut v = crate::bitstream::reference::BitWriter::new();
            old.encode(&data, &mut v);
            let (bytes, bits) = w.finish();
            assert!(
                (bytes.clone(), bits) == v.finish(),
                "stream {k}: bits differ"
            );
            let mut r = BitReader::new(&bytes, bits).unwrap();
            assert!(
                code.decode(&mut r, data.len()).unwrap() == data,
                "stream {k}"
            );
            // A code read off the wire encodes the same bits.
            let mut w = BitWriter::with_capacity(0);
            HuffmanCode::deserialize_table(&t)
                .unwrap()
                .0
                .encode(&data, &mut w);
            assert!(w.finish() == (bytes, bits), "stream {k}: wire code");
        }
    }

    /// A table as the wire carries it.
    fn table(entries: &[(u32, u8)]) -> HuffmanCode {
        let mut t = (entries.len() as u32).to_le_bytes().to_vec();
        for &(s, l) in entries {
            t.extend_from_slice(&s.to_le_bytes());
            t.push(l);
        }
        HuffmanCode::deserialize_table(&t).unwrap().0
    }

    /// Decodes `count` symbols from `bytes` (`bit_len` bits) with both
    /// decoders: the same symbols, or both an error of the same kind.
    fn same_decode(code: &HuffmanCode, bytes: &[u8], bit_len: u64, count: usize) {
        let mut a = BitReader::new(bytes, bit_len).unwrap();
        let mut b = crate::bitstream::reference::BitReader::new(bytes, bit_len).unwrap();
        let x = code.decode(&mut a, count);
        let y = reference::HuffmanCode::from_table(code).decode(&mut b, count);
        match (x, y) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => {
                assert_eq!(std::mem::discriminant(&x), std::mem::discriminant(&y))
            }
            (x, y) => panic!("table decoder {x:?} vs walk {y:?}"),
        }
    }

    #[test]
    fn decode_matches_reference_on_crafted_tables() {
        let mut long = (1u8..=20).map(|l| (u32::from(l), l)).collect::<Vec<_>>();
        long.push((99, 20));
        let tables = [
            // Complete, codes up to 20 bits (longer than TABLE_BITS).
            long,
            // Incomplete (Kraft < 1): bit patterns no code starts.
            vec![(3, 1), (4, 3)],
            vec![(0, 2), (1, 2), (2, 3)],
            vec![(10, 3), (11, 3), (12, 3), (13, 3), (14, 3)],
            vec![(5, 1), (6, 12), (7, 13)],
            vec![(5, 11), (6, 11), (7, 12), (8, 30)],
            // One symbol, whatever its declared length.
            vec![(9, 5)],
            // Codes past the 57-bit peek window: 1…10 runs of ones.
            (1u8..=62).map(|l| (u32::from(l), l)).collect(),
        ];
        for (k, entries) in tables.iter().enumerate() {
            let code = table(entries);
            for seed in 0..40u64 {
                let mut next = rng(seed * 31 + k as u64);
                let bytes: Vec<u8> = (0..seed % 24).map(|_| next() as u8).collect();
                let cap = bytes.len() as u64 * 8;
                for bit_len in [cap, cap.saturating_sub(next() % 9), next() % (cap + 1)] {
                    for count in [0, 1, 2, 5, bit_len as usize / 3, bit_len as usize] {
                        same_decode(&code, &bytes, bit_len, count);
                    }
                }
            }
            // Runs of ones reach the longest codes, then a zero ends one.
            for ones in 0..80usize {
                let mut bits = BitWriter::with_capacity(0);
                for _ in 0..ones {
                    bits.write_bits(1, 1);
                }
                bits.write_bits(0b0110, 4);
                let (bytes, bit_len) = bits.finish();
                for cut in [
                    bit_len,
                    bit_len - 1,
                    bit_len.saturating_sub(4),
                    bytes.len() as u64 * 8,
                ] {
                    for count in [1, 2, 3] {
                        same_decode(&code, &bytes, cut, count);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_matches_reference_on_every_truncation() {
        for (data, _) in streams() {
            let data = &data[..data.len().min(200)];
            let code = HuffmanCode::from_symbols(data);
            let mut w = BitWriter::with_capacity(0);
            code.encode(data, &mut w);
            let (bytes, bits) = w.finish();
            for cut in 0..=bits {
                same_decode(&code, &bytes, cut, data.len());
            }
        }
    }

    #[test]
    fn roundtrip_small() {
        roundtrip(&[1, 2, 3, 2, 1, 2, 2, 2, 9]);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[42; 100]);
    }

    #[test]
    fn roundtrip_two_symbols() {
        roundtrip(&[7, 8, 7, 7, 8, 7]);
    }

    #[test]
    fn roundtrip_skewed_distribution() {
        // Geometric-ish frequencies stress unequal code lengths.
        let mut data = Vec::new();
        for s in 0u32..16 {
            for _ in 0..(1usize << (15 - s as usize)) {
                data.push(s);
            }
        }
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_large_alphabet() {
        let data: Vec<u32> = (0..5000u32).map(|i| (i * i) % 997 + 30000).collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_code_is_shorter_than_uniform() {
        // 90% of mass on one symbol should beat 2 bits/symbol.
        let mut data = vec![0u32; 900];
        data.extend([1u32, 2, 3].iter().cycle().take(100));
        let code = HuffmanCode::from_symbols(&data);
        let mut w = BitWriter::with_capacity(0);
        code.encode(&data, &mut w);
        let (_, bits) = w.finish();
        assert!(bits < 2 * data.len() as u64, "bits = {bits}");
    }

    #[test]
    fn table_rejects_garbage() {
        assert!(HuffmanCode::deserialize_table(&[1, 2]).is_err());
        // Claims 10 symbols but provides none.
        let mut t = 10u32.to_le_bytes().to_vec();
        t.push(1);
        assert!(HuffmanCode::deserialize_table(&t).is_err());
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let data = vec![1u32, 2, 3, 4, 5, 6, 7, 8];
        let code = HuffmanCode::from_symbols(&data);
        let mut w = BitWriter::with_capacity(0);
        code.encode(&data, &mut w);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits / 2).unwrap();
        assert!(code.decode(&mut r, data.len()).is_err());
    }

    #[test]
    fn kraft_violation_rejected() {
        // Three symbols all claiming length 1 over-subscribes the code space.
        let mut t = 3u32.to_le_bytes().to_vec();
        for s in 0u32..3 {
            t.extend_from_slice(&s.to_le_bytes());
            t.push(1);
        }
        assert!(HuffmanCode::deserialize_table(&t).is_err());
    }
}
