//! DPG — the dot-product generator (Section IV-A.2, Fig. 9).
//!
//! A DPG consumes one T3 task and produces T4 task codes. It (1) applies an
//! outer product to the bottom-level bitmaps, yielding four intermediate
//! bitmap layers, (2) overlays them into a map whose 4-bit value at output
//! position `(m, n)` encodes the index-matching pattern of that output's
//! sparse dot product, and (3) combines the map with tile C's structural
//! layout into 8-bit T4 codes — upper nibble: the accumulation target (the
//! output's nonzero index in tile C); lower nibble: the K-match pattern.
//! T4 codes fill the dot-product queue in a **Z-shaped** order that bounds
//! every operand's broadcast range (A: 5 multipliers, B: 9).

use simkit::{tile_row, tile_row_occupancy, tile_transpose};

use crate::tms::set_bits;

/// Fill order of the dot-product queue (Section IV-A.2, point 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillOrder {
    /// Z-shaped traversal of 2x2 output sub-blocks (the paper's choice:
    /// minimises operand broadcast ranges).
    ZShape,
    /// N-shaped traversal (tested by the paper and "found to be inferior
    /// for most matrices").
    NShape,
}

/// One T4 task code: a segmented dot product of length 1..=4 updating one
/// scalar of tile C (the paper's 8-bit code, e.g. `0x49`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T4Code {
    /// Output position `(m, n)` within the 4x4 tile C.
    pub m: u8,
    /// Output column within tile C.
    pub n: u8,
    /// Accumulation target: the output's nonzero index within tile C
    /// (upper nibble of the hardware code).
    pub c_index: u8,
    /// K-match pattern: bit `k` set when `A[m, k] * B[k, n]` contributes
    /// (lower nibble of the hardware code).
    pub pattern: u8,
}

impl T4Code {
    /// Segment length: number of products merged into this output (1..=4).
    pub fn len(&self) -> u8 {
        self.pattern.count_ones() as u8
    }

    /// T4 codes always carry at least one product.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The packed 8-bit hardware code (`c_index << 4 | pattern`).
    pub fn byte(&self) -> u8 {
        (self.c_index << 4) | self.pattern
    }
}

/// Row-major positions `m * 4 + n` of tile C in Z-shaped visit order:
/// the 2x2 output sub-blocks in row order, each left-right then down (A
/// row reused consecutively, B column at distance 2).
const Z_VISIT: [u8; 16] = [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15];

/// Row-major positions of tile C in N-shaped visit order: the same
/// sub-blocks, each top-bottom then right.
const N_VISIT: [u8; 16] = [0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15];

fn visit_positions(fill: FillOrder) -> &'static [u8; 16] {
    match fill {
        FillOrder::ZShape => &Z_VISIT,
        FillOrder::NShape => &N_VISIT,
    }
}

/// The output-position visit order of a fill strategy over the 4x4 tile C.
pub fn visit_order(fill: FillOrder) -> [(u8, u8); 16] {
    visit_positions(fill).map(|p| (p / 4, p % 4))
}

/// The T4 codes of one T3 task in fill order, held inline: a T3 task
/// yields at most one code per output position of the 4x4 tile C, so at
/// most 16. Derefs to `[T4Code]`.
#[derive(Clone, Copy)]
pub struct T4Codes {
    codes: [T4Code; 16],
    len: u8,
}

impl T4Codes {
    const EMPTY: T4Codes =
        T4Codes { codes: [T4Code { m: 0, n: 0, c_index: 0, pattern: 0 }; 16], len: 0 };
}

impl std::ops::Deref for T4Codes {
    type Target = [T4Code];

    #[inline]
    fn deref(&self) -> &[T4Code] {
        &self.codes[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for T4Codes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a T4Codes {
    type Item = &'a T4Code;
    type IntoIter = std::slice::Iter<'a, T4Code>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for T4Codes {
    type Item = T4Code;
    type IntoIter = std::iter::Take<std::array::IntoIter<T4Code, 16>>;

    fn into_iter(self) -> Self::IntoIter {
        self.codes.into_iter().take(usize::from(self.len))
    }
}

/// Re-indexes a row-major position mask of tile C into visit order: bit
/// `v` of the result is position `visit_positions(fill)[v]`. The Z order
/// swaps index bits 1 and 2 (`n1`, `m0`); the N order then also swaps
/// bits 0 and 1.
fn visit_mask(positions: u16, fill: FillOrder) -> u16 {
    let t = (positions ^ positions >> 2) & 0x0C0C;
    let z = positions ^ t ^ t << 2;
    match fill {
        FillOrder::ZShape => z,
        FillOrder::NShape => {
            let t = (z ^ z >> 1) & 0x2222;
            z ^ t ^ t << 1
        }
    }
}

/// Expands one T3 task (tile masks `a_tile`, `b_tile`) into its T4 codes
/// in the given fill order.
///
/// The overlay map value at `(m, n)` is `row_m(A) & col_n(B)`; positions
/// with an empty pattern produce no code. `c_index` ranks the outputs in
/// tile C's row-major structural order, matching the BBC value layout the
/// accumulation buffer uses.
pub fn expand_t3(a_tile: u16, b_tile: u16, fill: FillOrder) -> T4Codes {
    // Nibble n of `overlay[m]` is the K-match pattern of output (m, n):
    // row m of A against row n of B's transpose.
    let b_cols = tile_transpose(b_tile);
    let overlay: [u16; 4] = std::array::from_fn(|m| (tile_row(a_tile, m) * 0x1111) & b_cols);
    // The structural C tile, row-major, and the row-major rank of every
    // position as nibble `pos` of `ranks`.
    let present = (0..4).fold(0u16, |c, m| c | tile_row_occupancy(overlay[m]) << (4 * m));
    let ranks = exclusive_nibble_ranks(present);
    let visit = visit_positions(fill);
    let mut out = T4Codes::EMPTY;
    for v in set_bits(visit_mask(present, fill)) {
        let pos = visit[v];
        let (m, n) = (pos / 4, pos % 4);
        out.codes[usize::from(out.len)] = T4Code {
            m,
            n,
            c_index: (ranks >> (4 * pos) & 0xF) as u8,
            pattern: (overlay[usize::from(m)] >> (4 * n) & 0xF) as u8,
        };
        out.len += 1;
    }
    out
}

/// Nibble `p` of the result is the number of set bits of `mask` below bit
/// `p` (at most 15, so no nibble carries): the bits are spread one per
/// nibble, shifted up one nibble, and prefix-summed by one multiplication.
fn exclusive_nibble_ranks(mask: u16) -> u64 {
    let mut x = u64::from(mask);
    x = (x | x << 24) & 0x0000_00FF_0000_00FF;
    x = (x | x << 12) & 0x000F_000F_000F_000F;
    x = (x | x << 6) & 0x0303_0303_0303_0303;
    x = (x | x << 3) & 0x1111_1111_1111_1111;
    (x << 4).wrapping_mul(0x1111_1111_1111_1111)
}

/// Maximum distance (in queue positions) between two T4 codes that share
/// an operand, for broadcast-range analysis.
///
/// Returns `(max_a_gap, max_b_gap)`: the largest index gap between
/// consecutive codes sharing an A row (`m`) and a B column (`n`).
pub fn broadcast_gaps(codes: &[T4Code]) -> (usize, usize) {
    let mut max_a = 0usize;
    let mut max_b = 0usize;
    let mut last_m: [Option<usize>; 4] = [None; 4];
    let mut last_n: [Option<usize>; 4] = [None; 4];
    for (idx, c) in codes.iter().enumerate() {
        if let Some(prev) = last_m[c.m as usize] {
            max_a = max_a.max(idx - prev);
        }
        last_m[c.m as usize] = Some(idx);
        if let Some(prev) = last_n[c.n as usize] {
            max_b = max_b.max(idx - prev);
        }
        last_n[c.n as usize] = Some(idx);
    }
    (max_a, max_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DENSE: u16 = u16::MAX;

    #[test]
    fn dense_tile_pair_yields_16_full_segments() {
        let codes = expand_t3(DENSE, DENSE, FillOrder::ZShape);
        assert_eq!(codes.len(), 16);
        assert!(codes.iter().all(|c| c.len() == 4));
        let total: u32 = codes.iter().map(|c| c.len() as u32).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn segment_lengths_match_products() {
        let a: u16 = 0b0011_0110_1001_1100;
        let b: u16 = 0b1010_0101_0011_1001;
        let codes = expand_t3(a, b, FillOrder::ZShape);
        let total: u32 = codes.iter().map(|c| c.len() as u32).sum();
        assert_eq!(total, simkit::tile_products(a, b));
        for c in &codes {
            assert!((1..=4).contains(&c.len()));
            assert!(!c.is_empty());
        }
    }

    #[test]
    fn paper_example_code_49() {
        // Fig. 9: T4 task '49' = C tile nonzero #4, pattern 0x9 (0b1001):
        // C[0,0][4] += A[1,0] * B[0,3] + A[1,3] * B[3,3].
        // Construct tiles reproducing that code: output (m=1, n=3) with
        // pattern {k=0, k=3}, ranked 4th among tile C nonzeros. Four
        // outputs (0, 0..3) precede it, all matched through k = 1.
        let a: u16 = (1 << 1) | (1 << 4) | (1 << 7); // A[0,1], A[1,0], A[1,3]
        let b: u16 = 0xF0 | (1 << 3) | (1 << 15); // B row 1 dense, B[0,3], B[3,3]
        let codes = expand_t3(a, b, FillOrder::ZShape);
        let c13 = codes.iter().find(|c| c.m == 1 && c.n == 3).unwrap();
        assert_eq!(c13.c_index, 4);
        assert_eq!(c13.pattern, 0b1001);
        assert_eq!(c13.byte(), 0x49);
        assert_eq!(c13.len(), 2);
    }

    #[test]
    fn z_order_visits_2x2_blocks_row_wise() {
        let order = visit_order(FillOrder::ZShape);
        assert_eq!(&order[..4], &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(order[4], (0, 2));
        assert_eq!(order[15], (3, 3));
    }

    #[test]
    fn n_order_differs_within_blocks() {
        let order = visit_order(FillOrder::NShape);
        assert_eq!(&order[..4], &[(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn z_order_bounds_broadcast_ranges() {
        // Dense tiles: with the Z fill, two codes sharing an A row are at
        // distance <= 1 within a sub-block step (paper: A broadcasts to 5
        // adjacent multipliers = at most two consecutive vector tasks) and
        // two codes sharing a B column are separated by at most one
        // intervening task within a block pair (B range 9).
        let codes = expand_t3(DENSE, DENSE, FillOrder::ZShape);
        let (_, b_gap) = broadcast_gaps(&codes[..4]);
        assert_eq!(b_gap, 2); // B column reused with one task in between
        let (a_gap, _) = broadcast_gaps(&codes[..4]);
        assert_eq!(a_gap, 1); // A row reused consecutively
        // N order flips the trade-off inside a sub-block.
        let ncodes = expand_t3(DENSE, DENSE, FillOrder::NShape);
        let (na_gap, nb_gap) = broadcast_gaps(&ncodes[..4]);
        assert_eq!(na_gap, 2);
        assert_eq!(nb_gap, 1);
    }

    #[test]
    fn c_index_is_row_major_rank() {
        // Diagonal A, dense B: outputs form full rows? No — diagonal tile
        // A has one k per row, so every output (m, n) with B[k=m][n] set.
        let diag: u16 = 0b1000_0100_0010_0001;
        let codes = expand_t3(diag, DENSE, FillOrder::ZShape);
        assert_eq!(codes.len(), 16);
        // Row-major rank of (m, n) is m * 4 + n.
        for c in &codes {
            assert_eq!(c.c_index, c.m * 4 + c.n);
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn empty_tiles_produce_no_codes() {
        assert!(expand_t3(0, DENSE, FillOrder::ZShape).is_empty());
        assert!(expand_t3(DENSE, 0, FillOrder::ZShape).is_empty());
        // Mismatched K: A uses k=0 only, B provides k=3 only.
        let a = 0b0001_0001_0001_0001; // column 0 of the tile
        let b = 0b1111_0000_0000_0000; // row 3 of the tile
        let _sanity = (a, b);
        let a_col0_only: u16 = 0x1111;
        let b_row3_only: u16 = 0xF000;
        // A's k comes from its columns; col 0 => k = 0. B's k from rows;
        // row 3 => k = 3. No overlap.
        assert!(expand_t3(a_col0_only, b_row3_only, FillOrder::ZShape).is_empty());
    }
}
