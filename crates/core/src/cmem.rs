//! The Check Memory (CMEM): per-diagonal check-bit crossbars and the
//! processing crossbars that run the XOR3 micro-program.
//!
//! Paper §IV-A: the CMEM is split into `m` check-bit crossbars per diagonal
//! family — crossbar `i` of dimension `(n/m)×(n/m)` holds the check-bit of
//! diagonal `i` for every block — plus dedicated *processing crossbars*
//! that compute `check ⊕ old ⊕ new` as two 4-NOR XNOR stages (8 MAGIC NORs
//! total), and a *checking crossbar* used to compare syndromes to zero.

use crate::geometry::BlockGeometry;
use crate::shifter::Family;
use pimecc_xbar::{Crossbar, LineSet, XbarError};

/// The check-bit store: `2·m` logical planes of `(n/m)×(n/m)` bits.
///
/// Plane `d` of a family holds, at `(block_row, block_col)`, the parity of
/// diagonal `d` of that block. The *simulation* stores the check-bits of
/// one family of one block row as a packed **field row** of `n` bits
/// (`ceil(n / 64)` words), laid out like a MEM row: block `(br, bc)` owns
/// the m-bit field at bits `bc·m .. bc·m + m` of row `br`, the bits its
/// own data columns occupy.
///
/// - Leading diagonal `d` of a block is bit `bc·m + d`.
/// - Counter diagonal `d` is bit `bc·m + (m − 1 − d)`: the counter family
///   is kept in *rotation order*, the un-reversed form
///   [`DiagonalCode::encode_words`](crate::DiagonalCode::encode_words)
///   accumulates before its final reversal.
///
/// In this layout the parity contribution of MEM row `r` (local row
/// `lr = r mod m`) to every block of its block row is the row itself with
/// each field rotated left — by `lr` for the leading family and by
/// `m − 1 − lr` for the counter family — so a written row updates, and a
/// check recomputes, a whole block row with two whole-word field rotations
/// and no bit reversal. The per-diagonal API below keeps its meaning for
/// any `m`.
///
/// # Example
///
/// ```
/// use pimecc_core::{BlockGeometry, CheckMemory};
/// use pimecc_core::shifter::Family;
///
/// # fn main() -> Result<(), pimecc_core::CoreError> {
/// let geom = BlockGeometry::new(9, 3)?;
/// let mut cmem = CheckMemory::new(geom);
/// cmem.xor_bit(Family::Leading, 2, 0, 1, true);
/// assert!(cmem.bit(Family::Leading, 2, 0, 1));
/// assert_eq!(cmem.memristor_count(), 2 * 3 * 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CheckMemory {
    geom: BlockGeometry,
    /// Words per field row (`ceil(n / 64)`).
    stride: usize,
    /// Leading-family field rows, `[block_row * stride + word]`.
    leading: Vec<u64>,
    /// Counter-family field rows, same layout, rotation order.
    counter: Vec<u64>,
}

impl CheckMemory {
    /// Creates an all-zero check memory for `geom` (consistent with an
    /// all-zero MEM).
    pub fn new(geom: BlockGeometry) -> Self {
        let stride = geom.n().div_ceil(64);
        let words = geom.blocks_per_side() * stride;
        CheckMemory {
            geom,
            stride,
            leading: vec![0; words],
            counter: vec![0; words],
        }
    }

    /// The geometry this CMEM serves.
    pub fn geometry(&self) -> &BlockGeometry {
        &self.geom
    }

    /// Word and mask of diagonal `d` of block `(block_row, block_col)` in
    /// `family`'s field rows.
    #[inline]
    fn index(&self, family: Family, d: usize, block_row: usize, block_col: usize) -> (usize, u64) {
        let m = self.geom.m();
        debug_assert!(d < m, "diagonal index out of range");
        debug_assert!(
            block_row < self.geom.blocks_per_side() && block_col < self.geom.blocks_per_side(),
            "block index out of range"
        );
        let p = self.field_at(block_row, block_col).0
            + match family {
                Family::Leading => d,
                Family::Counter => m - 1 - d,
            };
        (p / 64, 1u64 << (p % 64))
    }

    #[inline]
    fn family(&self, family: Family) -> &[u64] {
        match family {
            Family::Leading => &self.leading,
            Family::Counter => &self.counter,
        }
    }

    #[inline]
    fn family_mut(&mut self, family: Family) -> &mut [u64] {
        match family {
            Family::Leading => &mut self.leading,
            Family::Counter => &mut self.counter,
        }
    }

    /// Reads the check-bit of diagonal `d` of block `(block_row,
    /// block_col)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on out-of-range indices.
    pub fn bit(&self, family: Family, d: usize, block_row: usize, block_col: usize) -> bool {
        let (w, mask) = self.index(family, d, block_row, block_col);
        self.family(family)[w] & mask != 0
    }

    /// Writes a check-bit directly (bulk loading / test setup).
    pub fn set_bit(
        &mut self,
        family: Family,
        d: usize,
        block_row: usize,
        block_col: usize,
        value: bool,
    ) {
        let (w, mask) = self.index(family, d, block_row, block_col);
        let word = &mut self.family_mut(family)[w];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// XORs `delta` into a check-bit — the continuous-update primitive
    /// (`check ⊕= old ⊕ new`).
    pub fn xor_bit(
        &mut self,
        family: Family,
        d: usize,
        block_row: usize,
        block_col: usize,
        delta: bool,
    ) {
        if delta {
            self.inject_fault(family, d, block_row, block_col);
        }
    }

    /// Flips a check-bit unconditionally — the soft-error primitive for
    /// faults striking the CMEM itself.
    pub fn inject_fault(&mut self, family: Family, d: usize, block_row: usize, block_col: usize) {
        let (w, mask) = self.index(family, d, block_row, block_col);
        self.family_mut(family)[w] ^= mask;
    }

    /// Flips one Leading and one Counter check-bit of the same block in one
    /// call — the per-changed-cell update of word-diff ECC maintenance
    /// (every data-bit change strikes exactly one diagonal of each family).
    #[inline]
    pub fn flip_pair(
        &mut self,
        lead_d: usize,
        counter_d: usize,
        block_row: usize,
        block_col: usize,
    ) {
        let (lw, lmask) = self.index(Family::Leading, lead_d, block_row, block_col);
        let (cw, cmask) = self.index(Family::Counter, counter_d, block_row, block_col);
        self.leading[lw] ^= lmask;
        self.counter[cw] ^= cmask;
    }

    /// XORs packed diagonal deltas into one block's check-bits — the Θ(1)
    /// form of the critical-operation update for a whole parallel write:
    /// every diagonal a MAGIC operation touched in the block flips in one
    /// operation per family (bit `d` of each delta word is diagonal `d`).
    ///
    /// # Panics
    ///
    /// Panics if `m > 63` (wider blocks update per diagonal).
    pub fn xor_block_words(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead_delta: u64,
        counter_delta: u64,
    ) {
        let m = self.packed_m();
        self.xor_fields(block_row, block_col, lead_delta, rev_m(counter_delta, m));
    }

    /// All m check-bits of one family for one block, indexed by diagonal.
    pub fn block_checks(&self, family: Family, block_row: usize, block_col: usize) -> Vec<bool> {
        (0..self.geom.m())
            .map(|d| self.bit(family, d, block_row, block_col))
            .collect()
    }

    /// All m check-bits of one family for one block, packed into a word
    /// (bit `d` is diagonal `d`) — the word form of
    /// [`CheckMemory::block_checks`].
    ///
    /// # Panics
    ///
    /// Panics if `m > 63`.
    pub fn block_checks_word(&self, family: Family, block_row: usize, block_col: usize) -> u64 {
        let m = self.packed_m();
        let (lead, counter) = self.fields(block_row, block_col);
        match family {
            Family::Leading => lead,
            Family::Counter => rev_m(counter, m),
        }
    }

    /// Overwrites the check-bits of one block from packed parity words
    /// (bit `d` of each word is diagonal `d`) — the word form of
    /// [`CheckMemory::store_block_checks`].
    ///
    /// # Panics
    ///
    /// Panics if `m > 63`.
    pub fn store_block_checks_words(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead: u64,
        counter: u64,
    ) {
        let m = self.packed_m();
        self.store_fields(block_row, block_col, lead, rev_m(counter, m));
    }

    /// Overwrites the check-bits of one block from parity vectors.
    ///
    /// # Panics
    ///
    /// Panics if either vector's length differs from `m`.
    pub fn store_block_checks(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead: &[bool],
        counter: &[bool],
    ) {
        let m = self.geom.m();
        assert_eq!(lead.len(), m, "leading parity length");
        assert_eq!(counter.len(), m, "counter parity length");
        for d in 0..m {
            self.set_bit(Family::Leading, d, block_row, block_col, lead[d]);
            self.set_bit(Family::Counter, d, block_row, block_col, counter[d]);
        }
    }

    /// Total memristor count of the check-bit crossbars (Table II:
    /// `2·m·(n/m)²`).
    pub fn memristor_count(&self) -> u64 {
        let b = self.geom.blocks_per_side() as u64;
        2 * self.geom.m() as u64 * b * b
    }

    /// `m`, asserting that a block's field fits one word.
    #[inline]
    fn packed_m(&self) -> usize {
        let m = self.geom.m();
        assert!(m <= 63, "packed check-bits require m <= 63");
        m
    }

    /// Both fields of one block as stored: `(leading, counter)`, the
    /// counter in rotation order (bit `m − 1 − d` is diagonal `d`).
    /// Requires `m <= 63`.
    #[inline]
    pub(crate) fn fields(&self, block_row: usize, block_col: usize) -> (u64, u64) {
        let (p, m) = self.field_at(block_row, block_col);
        (field(&self.leading, p, m), field(&self.counter, p, m))
    }

    /// XORs rotation-order deltas into one block's fields (see
    /// [`CheckMemory::fields`]). Requires `m <= 63`.
    #[inline]
    pub(crate) fn xor_fields(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead: u64,
        counter: u64,
    ) {
        let (p, m) = self.field_at(block_row, block_col);
        xor_field(&mut self.leading, p, m, lead);
        xor_field(&mut self.counter, p, m, counter);
    }

    /// Bit position of block `(block_row, block_col)`'s field in the flat
    /// family vectors (a field never crosses into the next row), and `m`.
    #[inline]
    fn field_at(&self, block_row: usize, block_col: usize) -> (usize, usize) {
        let m = self.geom.m();
        (block_row * self.stride * 64 + block_col * m, m)
    }

    /// Overwrites one block's fields with rotation-order values (see
    /// [`CheckMemory::fields`]). Requires `m <= 63`.
    pub(crate) fn store_fields(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead: u64,
        counter: u64,
    ) {
        let (old_lead, old_counter) = self.fields(block_row, block_col);
        self.xor_fields(block_row, block_col, lead ^ old_lead, counter ^ old_counter);
    }

    /// The leading and counter field rows of one block row.
    #[inline]
    pub(crate) fn rows(&self, block_row: usize) -> (&[u64], &[u64]) {
        let span = block_row * self.stride..(block_row + 1) * self.stride;
        (&self.leading[span.clone()], &self.counter[span])
    }

    /// The leading and counter field rows of a range of block rows,
    /// contiguous (`stride` words per block row) so that workers owning
    /// disjoint block rows can split them.
    #[inline]
    pub(crate) fn rows_mut(
        &mut self,
        block_rows: std::ops::Range<usize>,
    ) -> (&mut [u64], &mut [u64]) {
        let span = block_rows.start * self.stride..block_rows.end * self.stride;
        (&mut self.leading[span.clone()], &mut self.counter[span])
    }
}

/// The m-bit field of a packed word row starting at bit `p` (`m <= 63`).
#[inline]
pub(crate) fn field(row: &[u64], p: usize, m: usize) -> u64 {
    let (w, sh) = (p / 64, p % 64);
    let mut v = row[w] >> sh;
    if sh + m > 64 {
        v |= row[w + 1] << (64 - sh);
    }
    v & ((1u64 << m) - 1)
}

/// XORs `v` (at most `m <= 63` bits) into the field of `row` starting at
/// bit `p`.
#[inline]
pub(crate) fn xor_field(row: &mut [u64], p: usize, m: usize, v: u64) {
    let (w, sh) = (p / 64, p % 64);
    row[w] ^= v << sh;
    if sh + m > 64 {
        row[w + 1] ^= v >> (64 - sh);
    }
}

/// Reverses the low `m` bits (`1 <= m <= 64`): swaps diagonal order and
/// rotation order of a counter field.
#[inline]
pub(crate) fn rev_m(w: u64, m: usize) -> u64 {
    w.reverse_bits() >> (64 - m)
}

/// A processing crossbar: the 11-cell-deep MAGIC array that evaluates
/// `XOR3(check, old, new)` lane-parallel in 8 NOR operations.
///
/// Lane layout (one column per lane):
///
/// | row | content                 |
/// |-----|-------------------------|
/// | 0–2 | inputs `a`, `b`, `c`    |
/// | 3–6 | XNOR(a,b) temporaries   |
/// | 7–10| XNOR(t,c) temporaries   |
///
/// Row 10 holds the result, which equals `a ⊕ b ⊕ c` because
/// `XNOR(XNOR(a,b),c) = a ⊕ b ⊕ c`.
///
/// # Example
///
/// ```
/// use pimecc_core::ProcessingCrossbar;
///
/// # fn main() -> Result<(), pimecc_core::CoreError> {
/// let mut pc = ProcessingCrossbar::new(4);
/// let out = pc.compute_xor3(
///     &[true, true, false, false],
///     &[true, false, true, false],
///     &[true, false, false, true],
/// )?;
/// assert_eq!(out, vec![true, true, true, true]);
/// assert_eq!(pc.nor_cycles_per_xor3(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProcessingCrossbar {
    xb: Crossbar,
}

/// Rows of the lane layout.
const ROWS: usize = 11;

impl ProcessingCrossbar {
    /// Creates a processing crossbar with `lanes` parallel lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        ProcessingCrossbar {
            xb: Crossbar::new(ROWS, lanes),
        }
    }

    /// Number of parallel lanes.
    pub fn lanes(&self) -> usize {
        self.xb.cols()
    }

    /// The XOR3 micro-program length in MAGIC NOR cycles — 8, matching the
    /// paper §IV-A.2.
    pub fn nor_cycles_per_xor3(&self) -> u64 {
        8
    }

    /// Memristor count for `k` such crossbars per family serving an
    /// n-cell-wide MEM (Table II: `2·11·k·n`).
    pub fn memristor_count(n: usize, k: usize) -> u64 {
        2 * ROWS as u64 * k as u64 * n as u64
    }

    /// Runs the 8-NOR XOR3 micro-program on three lane vectors.
    ///
    /// # Errors
    ///
    /// Propagates MAGIC legality violations (impossible for in-range
    /// inputs).
    ///
    /// # Panics
    ///
    /// Panics if the input slices are longer than the lane count.
    pub fn compute_xor3(
        &mut self,
        a: &[bool],
        b: &[bool],
        c: &[bool],
    ) -> Result<Vec<bool>, XbarError> {
        let lanes = self.lanes();
        assert!(
            a.len() <= lanes && b.len() == a.len() && c.len() == a.len(),
            "lane overflow"
        );
        let width = a.len();
        // A contiguous range selects the active lanes without
        // materializing an index vector per XOR3 invocation.
        let sel = LineSet::Range(0..width);
        // Load inputs (data arrives over the shifters / connection unit).
        for i in 0..width {
            self.xb.write_bit(0, i, a[i]);
            self.xb.write_bit(1, i, b[i]);
            self.xb.write_bit(2, i, c[i]);
        }
        // Arm all temporaries in one parallel init.
        self.xb.exec_init_cols(&[3, 4, 5, 6, 7, 8, 9, 10], &sel)?;
        // XNOR(a, b): x=NOR(a,b); y=NOR(a,x); z=NOR(b,x); t=NOR(y,z).
        self.xb.exec_nor_cols(&[0, 1], 3, &sel)?;
        self.xb.exec_nor_cols(&[0, 3], 4, &sel)?;
        self.xb.exec_nor_cols(&[1, 3], 5, &sel)?;
        self.xb.exec_nor_cols(&[4, 5], 6, &sel)?;
        // XNOR(t, c): same shape one level down.
        self.xb.exec_nor_cols(&[6, 2], 7, &sel)?;
        self.xb.exec_nor_cols(&[6, 7], 8, &sel)?;
        self.xb.exec_nor_cols(&[2, 7], 9, &sel)?;
        self.xb.exec_nor_cols(&[8, 9], 10, &sel)?;
        Ok((0..width).map(|i| self.xb.bit(10, i)).collect())
    }

    /// Total NOR cycles executed so far (to confirm the 8-per-XOR3 cost).
    pub fn nor_cycles_total(&self) -> u64 {
        self.xb.stats().nor_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor3_truth_table_exhaustive() {
        let mut pc = ProcessingCrossbar::new(8);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        for v in 0..8 {
            a.push(v & 1 != 0);
            b.push(v & 2 != 0);
            c.push(v & 4 != 0);
        }
        let out = pc.compute_xor3(&a, &b, &c).unwrap();
        for v in 0..8usize {
            let want = (v.count_ones() % 2) == 1;
            assert_eq!(out[v], want, "pattern {v:03b}");
        }
    }

    #[test]
    fn xor3_costs_exactly_eight_nors() {
        let mut pc = ProcessingCrossbar::new(4);
        pc.compute_xor3(&[true; 4], &[false; 4], &[true; 4])
            .unwrap();
        assert_eq!(pc.nor_cycles_total(), 8);
        pc.compute_xor3(&[false; 4], &[false; 4], &[false; 4])
            .unwrap();
        assert_eq!(pc.nor_cycles_total(), 16);
    }

    #[test]
    fn xor3_reusable_across_invocations() {
        let mut pc = ProcessingCrossbar::new(2);
        for _ in 0..5 {
            let out = pc
                .compute_xor3(&[true, false], &[true, true], &[true, false])
                .unwrap();
            assert_eq!(out, vec![true, true]); // 1^1^1 = 1, 0^1^0 = 1
        }
    }

    #[test]
    fn processing_crossbar_count_matches_table2() {
        // Table II: processing XBs = 2 x 11 x k x n = 67,320 for k=3,
        // n=1020 (printed as 6.73e4).
        assert_eq!(ProcessingCrossbar::memristor_count(1020, 3), 67_320);
    }

    #[test]
    fn check_memory_round_trips_bits() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.set_bit(Family::Counter, 1, 2, 0, true);
        assert!(cmem.bit(Family::Counter, 1, 2, 0));
        cmem.xor_bit(Family::Counter, 1, 2, 0, true);
        assert!(!cmem.bit(Family::Counter, 1, 2, 0));
        cmem.xor_bit(Family::Counter, 1, 2, 0, false);
        assert!(!cmem.bit(Family::Counter, 1, 2, 0));
    }

    #[test]
    fn block_checks_pack_by_diagonal() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.store_block_checks(1, 2, &[true, false, true], &[false, true, false]);
        assert_eq!(
            cmem.block_checks(Family::Leading, 1, 2),
            vec![true, false, true]
        );
        assert_eq!(
            cmem.block_checks(Family::Counter, 1, 2),
            vec![false, true, false]
        );
        // Other blocks untouched.
        assert_eq!(cmem.block_checks(Family::Leading, 0, 0), vec![false; 3]);
    }

    #[test]
    fn packed_check_words_round_trip() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.store_block_checks_words(2, 1, 0b101, 0b010);
        assert_eq!(cmem.block_checks_word(Family::Leading, 2, 1), 0b101);
        assert_eq!(cmem.block_checks_word(Family::Counter, 2, 1), 0b010);
        assert_eq!(
            cmem.block_checks(Family::Leading, 2, 1),
            vec![true, false, true]
        );
        assert_eq!(cmem.block_checks_word(Family::Leading, 0, 0), 0);
    }

    #[test]
    fn fault_injection_flips_check_bits() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.inject_fault(Family::Leading, 0, 0, 0);
        assert!(cmem.bit(Family::Leading, 0, 0, 0));
        cmem.inject_fault(Family::Leading, 0, 0, 0);
        assert!(!cmem.bit(Family::Leading, 0, 0, 0));
    }

    /// Geometries whose fields straddle a word boundary (all but the
    /// first): block 12 of (65,5), 9 of (70,7), 7 of (126,9), 21 of (192,3).
    const LAYOUTS: &[(usize, usize)] = &[(9, 3), (65, 5), (70, 7), (126, 9), (192, 3)];

    /// Every check-bit address `(family, d, br, bc)` of a geometry.
    fn every_check_bit(geom: BlockGeometry) -> Vec<(Family, usize, usize, usize)> {
        let (m, bps) = (geom.m(), geom.blocks_per_side());
        let mut all = Vec::new();
        for family in [Family::Leading, Family::Counter] {
            for br in 0..bps {
                for bc in 0..bps {
                    for d in 0..m {
                        all.push((family, d, br, bc));
                    }
                }
            }
        }
        all
    }

    /// Set bits across both families' stored words.
    fn ones(cmem: &CheckMemory) -> u32 {
        cmem.leading
            .iter()
            .chain(&cmem.counter)
            .map(|w| w.count_ones())
            .sum()
    }

    /// A pseudo-random CMEM, filled through the per-diagonal API.
    fn scrambled(geom: BlockGeometry, seed: u64) -> CheckMemory {
        let mut cmem = CheckMemory::new(geom);
        let mut s = seed | 1;
        for (family, d, br, bc) in every_check_bit(geom) {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cmem.set_bit(family, d, br, bc, s >> 63 != 0);
        }
        cmem
    }

    #[test]
    fn every_check_bit_round_trips_and_touches_no_other() {
        for &(n, m) in LAYOUTS {
            let geom = BlockGeometry::new(n, m).unwrap();
            let mut cmem = CheckMemory::new(geom);
            let mut seen = std::collections::HashSet::new();
            for (family, d, br, bc) in every_check_bit(geom) {
                let at = (family, d, br, bc);
                assert!(seen.insert((family, cmem.index(family, d, br, bc))));
                cmem.set_bit(family, d, br, bc, true);
                assert!(cmem.bit(family, d, br, bc), "{n}/{m} {at:?}");
                assert_eq!(ones(&cmem), 1, "{n}/{m} set {at:?}");
                cmem.xor_bit(family, d, br, bc, false);
                assert_eq!(ones(&cmem), 1, "{n}/{m} xor 0 {at:?}");
                cmem.xor_bit(family, d, br, bc, true);
                assert!(!cmem.bit(family, d, br, bc), "{n}/{m} {at:?}");
                assert_eq!(ones(&cmem), 0, "{n}/{m} xor 1 {at:?}");
                cmem.inject_fault(family, d, br, bc);
                assert!(cmem.bit(family, d, br, bc), "{n}/{m} {at:?}");
                assert_eq!(ones(&cmem), 1, "{n}/{m} fault {at:?}");
                cmem.set_bit(family, d, br, bc, false);
                assert_eq!(ones(&cmem), 0, "{n}/{m} clear {at:?}");
            }
            // Distinct addresses map to distinct stored bits: the layout is
            // a bijection onto the 2·m·bps² check-bits.
            assert_eq!(seen.len() as u64, cmem.memristor_count(), "{n}/{m}");
        }
    }

    #[test]
    fn packed_block_words_match_the_per_diagonal_view() {
        for &(n, m) in LAYOUTS {
            let geom = BlockGeometry::new(n, m).unwrap();
            let cmem = scrambled(geom, (n * m) as u64);
            let bps = geom.blocks_per_side();
            for br in 0..bps {
                for bc in 0..bps {
                    for family in [Family::Leading, Family::Counter] {
                        let packed = cmem
                            .block_checks(family, br, bc)
                            .iter()
                            .enumerate()
                            .fold(0u64, |w, (d, &b)| w | (b as u64) << d);
                        assert_eq!(
                            cmem.block_checks_word(family, br, bc),
                            packed,
                            "{n}/{m} ({br},{bc}) {family:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn xor_block_words_flips_exactly_the_addressed_block() {
        for &(n, m) in LAYOUTS {
            let geom = BlockGeometry::new(n, m).unwrap();
            let base = scrambled(geom, n as u64);
            let bps = geom.blocks_per_side();
            let mask = (1u64 << m) - 1;
            let mut s = m as u64;
            for br in 0..bps {
                for bc in 0..bps {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let (lead, counter) = (s & mask, (s >> 32) & mask);
                    let mut cmem = base.clone();
                    cmem.xor_block_words(br, bc, lead, counter);
                    let flipped: u32 = cmem
                        .leading
                        .iter()
                        .zip(&base.leading)
                        .chain(cmem.counter.iter().zip(&base.counter))
                        .map(|(a, b)| (a ^ b).count_ones())
                        .sum();
                    assert_eq!(flipped, (lead.count_ones() + counter.count_ones()));
                    for d in 0..m {
                        for (family, delta) in [(Family::Leading, lead), (Family::Counter, counter)]
                        {
                            assert_eq!(
                                cmem.bit(family, d, br, bc) != base.bit(family, d, br, bc),
                                delta >> d & 1 != 0,
                                "{n}/{m} ({br},{bc}) {family:?} d={d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memristor_count_matches_paper() {
        // Table II: check-bits = 2 x m x (n/m)^2 = 138,720 for n=1020, m=15
        // (printed as 1.39e5).
        let geom = BlockGeometry::paper();
        assert_eq!(CheckMemory::new(geom).memristor_count(), 138_720);
    }
}
