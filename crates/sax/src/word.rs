//! SAX words: full-cardinality summaries and variable-cardinality node
//! summaries.
//!
//! Symbols are produced at the maximum cardinality (256, i.e. 8 bits) and
//! coarsened by taking bit prefixes, following the iSAX convention: the
//! first (most significant) bit of a symbol is the coarsest distinction
//! (above/below 0), and each additional bit halves the region.

/// Maximum number of PAA segments supported (the paper fixes w = 16).
pub const MAX_SEGMENTS: usize = 16;

/// Bits per symbol at the maximum cardinality (the paper uses 256 symbols
/// = 8 bits, "the maximum alphabet cardinality").
pub const CARD_BITS: usize = 8;

/// Maximum alphabet cardinality (2^[`CARD_BITS`]).
pub const MAX_CARDINALITY: usize = 1 << CARD_BITS;

/// A full-cardinality iSAX word: one 8-bit symbol per segment.
///
/// This is what index leaves store next to each series position
/// (16 bytes for the paper's w = 16 — compact enough that leaf scans are
/// cache-friendly, which is the point of storing summaries *in* the
/// buffers rather than pointers to them, §I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaxWord {
    symbols: [u8; MAX_SEGMENTS],
}

impl SaxWord {
    /// Builds a word from at most [`MAX_SEGMENTS`] symbols; unused
    /// positions are zero.
    ///
    /// # Panics
    ///
    /// Panics if `symbols.len() > MAX_SEGMENTS`.
    pub fn new(symbols: &[u8]) -> Self {
        assert!(
            symbols.len() <= MAX_SEGMENTS,
            "at most {MAX_SEGMENTS} segments supported, got {}",
            symbols.len()
        );
        let mut s = [0u8; MAX_SEGMENTS];
        s[..symbols.len()].copy_from_slice(symbols);
        Self { symbols: s }
    }

    /// The all-zeros word (every PAA value in the lowest region).
    pub fn zeroed() -> Self {
        Self {
            symbols: [0; MAX_SEGMENTS],
        }
    }

    /// Symbol of segment `i` at full cardinality.
    #[inline]
    pub fn symbol(&self, i: usize) -> u8 {
        self.symbols[i]
    }

    /// All symbols (including unused tail positions).
    #[inline]
    pub fn symbols(&self) -> &[u8; MAX_SEGMENTS] {
        &self.symbols
    }

    /// Mutable access for converters.
    #[inline]
    pub(crate) fn symbols_mut(&mut self) -> &mut [u8; MAX_SEGMENTS] {
        &mut self.symbols
    }

    /// The `bits` most significant bits of segment `i`'s symbol.
    #[inline]
    pub fn prefix(&self, i: usize, bits: u8) -> u16 {
        debug_assert!(bits as usize <= CARD_BITS);
        if bits == 0 {
            0
        } else {
            (self.symbols[i] >> (CARD_BITS as u8 - bits)) as u16
        }
    }
}

/// A variable-cardinality iSAX word: per-segment symbol prefix + bit count.
///
/// Inner nodes of the index tree carry one of these; refining a split adds
/// one bit to one segment (§II-B: "increasing the cardinality of the iSAX
/// summary of one of the segments").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeWord {
    /// Symbol prefixes, right-aligned: `symbols[i] < 2^bits[i]`.
    symbols: [u16; MAX_SEGMENTS],
    /// Cardinality bits per segment (0 = segment not yet refined; only the
    /// conceptual root has all-zero bits).
    bits: [u8; MAX_SEGMENTS],
}

impl NodeWord {
    /// The unrefined word (zero bits everywhere) — the conceptual root.
    pub fn root() -> Self {
        Self {
            symbols: [0; MAX_SEGMENTS],
            bits: [0; MAX_SEGMENTS],
        }
    }

    /// Builds a word from parallel prefix/bit slices.
    ///
    /// # Panics
    ///
    /// Panics if slices have different lengths, exceed [`MAX_SEGMENTS`],
    /// any bit count exceeds [`CARD_BITS`], or a prefix does not fit its
    /// bit count.
    pub fn new(symbols: &[u16], bits: &[u8]) -> Self {
        assert_eq!(symbols.len(), bits.len(), "parallel slices must match");
        assert!(symbols.len() <= MAX_SEGMENTS);
        let mut w = Self::root();
        for i in 0..symbols.len() {
            assert!(bits[i] as usize <= CARD_BITS, "segment {i}: too many bits");
            assert!(
                (symbols[i] as u32) < (1u32 << bits[i]) || bits[i] == 0 && symbols[i] == 0,
                "segment {i}: prefix {} does not fit in {} bits",
                symbols[i],
                bits[i]
            );
            w.symbols[i] = symbols[i];
            w.bits[i] = bits[i];
        }
        w
    }

    /// Symbol prefix of segment `i`.
    #[inline]
    pub fn symbol(&self, i: usize) -> u16 {
        self.symbols[i]
    }

    /// Cardinality bits of segment `i`.
    #[inline]
    pub fn bits(&self, i: usize) -> u8 {
        self.bits[i]
    }

    /// Whether the full-cardinality word `w` falls under this node word
    /// (each segment's full symbol starts with this node's prefix).
    pub fn contains(&self, w: &SaxWord, segments: usize) -> bool {
        for i in 0..segments {
            if w.prefix(i, self.bits[i]) != self.symbols[i] {
                return false;
            }
        }
        true
    }

    /// The two children produced by adding one bit to `segment`: the
    /// child whose new bit is 0, and the child whose new bit is 1.
    ///
    /// # Panics
    ///
    /// Panics if the segment is already at full cardinality.
    pub fn refine(&self, segment: usize) -> (NodeWord, NodeWord) {
        assert!(
            (self.bits[segment] as usize) < CARD_BITS,
            "segment {segment} already at maximum cardinality"
        );
        let mut zero = *self;
        zero.bits[segment] += 1;
        zero.symbols[segment] <<= 1;
        let mut one = zero;
        one.symbols[segment] |= 1;
        (zero, one)
    }

    /// Which child of a split on `segment` the word `w` belongs to:
    /// `false` = the 0-child, `true` = the 1-child.
    ///
    /// # Panics
    ///
    /// Debug-panics if `w` is not contained in this node.
    #[inline]
    pub fn child_of(&self, w: &SaxWord, segment: usize) -> bool {
        debug_assert!((self.bits[segment] as usize) < CARD_BITS);
        let new_bits = self.bits[segment] + 1;
        let prefix = w.prefix(segment, new_bits);
        prefix & 1 == 1
    }

    /// Total bits across the first `segments` segments — a measure of node
    /// depth used in tests and diagnostics.
    pub fn total_bits(&self, segments: usize) -> u32 {
        self.bits[..segments].iter().map(|&b| b as u32).sum()
    }

    /// Formats like the paper's notation, e.g. `10_2 00_2 01_2`.
    pub fn display(&self, segments: usize) -> String {
        let mut out = String::new();
        for i in 0..segments {
            if i > 0 {
                out.push(' ');
            }
            if self.bits[i] == 0 {
                out.push('*');
            } else {
                for k in (0..self.bits[i]).rev() {
                    out.push(if (self.symbols[i] >> k) & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    });
                }
            }
        }
        out
    }
}

/// A root-level [`NodeWord`] packed into four bytes. An arena root
/// carries at most one bit per segment — a root-key word, or the shared
/// first bits of a forest spine — so bit `i` says whether segment `i` is
/// refined and bit `16 + i` holds its one-bit symbol. The index keeps one
/// per arena, contiguously ([`crate::MindistTable::root_bounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct RootWord(u32);

impl RootWord {
    /// Packs `word`. A segment refined past one bit — no build produces
    /// such a root, and validation rejects a snapshot that holds one —
    /// keeps its first bit only: a looser bound, never a wrong one.
    pub fn pack(word: &NodeWord) -> Self {
        let mut packed = 0u32;
        for i in 0..MAX_SEGMENTS {
            let bits = word.bits(i);
            if bits > 0 {
                let first = u32::from(word.symbol(i) >> (bits - 1));
                packed |= (1 | first << 16) << i;
            }
        }
        Self(packed)
    }

    /// Segment `i`'s slot in a mindist-table row: 0 when unrefined, else
    /// `1 + first bit` (the `(1 << bits) - 1 + prefix` of one bit).
    #[inline]
    pub fn slot(self, i: usize) -> usize {
        let w = self.0 >> i;
        ((w & 1) * (1 + ((w >> 16) & 1))) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_word_packs_one_bit_per_segment() {
        let w = RootWord::pack(&NodeWord::new(&[1, 0, 0, 0b10], &[1, 1, 0, 2]));
        assert_eq!([w.slot(0), w.slot(1), w.slot(2)], [2, 1, 0]);
        assert_eq!(w.slot(3), 2, "a deeper segment keeps its first bit");
        assert_eq!(RootWord::pack(&NodeWord::root()), RootWord(0));
    }

    #[test]
    fn sax_word_prefixes() {
        let w = SaxWord::new(&[0b1011_0010, 0b0100_0001]);
        assert_eq!(w.prefix(0, 1), 0b1);
        assert_eq!(w.prefix(0, 3), 0b101);
        assert_eq!(w.prefix(0, 8), 0b1011_0010);
        assert_eq!(w.prefix(1, 2), 0b01);
        assert_eq!(w.prefix(1, 0), 0);
    }

    #[test]
    fn node_word_contains_matching_prefixes() {
        let w = SaxWord::new(&[0b1011_0010, 0b0100_0001, 0b1111_1111]);
        let nw = NodeWord::new(&[0b10, 0b0, 0b111], &[2, 1, 3]);
        assert!(nw.contains(&w, 3));
        let nw2 = NodeWord::new(&[0b11, 0b0, 0b111], &[2, 1, 3]);
        assert!(!nw2.contains(&w, 3));
        // Zero-bit segments match anything.
        let root = NodeWord::root();
        assert!(root.contains(&w, 3));
    }

    #[test]
    fn refine_produces_complementary_children() {
        let nw = NodeWord::new(&[0b10, 0b0], &[2, 1]);
        let (zero, one) = nw.refine(0);
        assert_eq!(zero.bits(0), 3);
        assert_eq!(one.bits(0), 3);
        assert_eq!(zero.symbol(0), 0b100);
        assert_eq!(one.symbol(0), 0b101);
        // Other segments untouched.
        assert_eq!(zero.symbol(1), 0b0);
        assert_eq!(zero.bits(1), 1);
    }

    #[test]
    fn refined_children_partition_the_parent() {
        let nw = NodeWord::new(&[0b1], &[1]);
        let (zero, one) = nw.refine(0);
        // Words under the parent go to exactly one child.
        for sym in 0..=255u16 {
            let w = SaxWord::new(&[sym as u8]);
            if nw.contains(&w, 1) {
                assert_ne!(zero.contains(&w, 1), one.contains(&w, 1));
                assert_eq!(one.contains(&w, 1), nw.child_of(&w, 0));
            } else {
                assert!(!zero.contains(&w, 1) && !one.contains(&w, 1));
            }
        }
    }

    #[test]
    fn total_bits_counts_refinements() {
        let mut nw = NodeWord::new(&[0, 0], &[1, 1]);
        assert_eq!(nw.total_bits(2), 2);
        nw = nw.refine(1).0;
        assert_eq!(nw.total_bits(2), 3);
    }

    #[test]
    fn display_formats_bits() {
        let nw = NodeWord::new(&[0b10, 0b0, 0b1], &[2, 0, 1]);
        assert_eq!(nw.display(3), "10 * 1");
    }

    #[test]
    #[should_panic(expected = "maximum cardinality")]
    fn refine_rejects_full_cardinality() {
        let nw = NodeWord::new(&[0xAB], &[8]);
        nw.refine(0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn new_rejects_oversized_prefix() {
        NodeWord::new(&[0b100], &[2]);
    }
}
