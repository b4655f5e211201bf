//! The per-block diagonal parity code: encode, syndrome, locate, correct.
//!
//! Each m×m block carries 2m check-bits: the parity of each of its m
//! leading diagonals and of its m counter diagonals. The code is a
//! two-dimensional parity product code over the (diagonal, diagonal)
//! coordinate system, giving single-error correction per block
//! (paper §III, citing multidimensional codes).

use crate::geometry::BlockGeometry;
use pimecc_xbar::BitGrid;

/// The syndrome of one block: which diagonal parities disagree with the
/// stored check-bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Syndrome {
    /// Mismatching leading-diagonal indices.
    pub leading: Vec<usize>,
    /// Mismatching counter-diagonal indices.
    pub counter: Vec<usize>,
}

impl Syndrome {
    /// True when every parity matches (no detectable error).
    pub fn is_zero(&self) -> bool {
        self.leading.is_empty() && self.counter.is_empty()
    }

    /// Interprets the syndrome pattern (single-error decoding).
    pub fn decode(&self, geom: &BlockGeometry) -> ErrorLocation {
        match (self.leading.as_slice(), self.counter.as_slice()) {
            ([], []) => ErrorLocation::None,
            ([l], [k]) => {
                let (r, c) = geom.locate(*l, *k);
                ErrorLocation::Data {
                    local_row: r,
                    local_col: c,
                }
            }
            ([l], []) => ErrorLocation::LeadingCheck { diagonal: *l },
            ([], [k]) => ErrorLocation::CounterCheck { diagonal: *k },
            _ => ErrorLocation::Uncorrectable,
        }
    }
}

/// Where (if anywhere) the single error sits, per the syndrome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorLocation {
    /// All parities consistent.
    None,
    /// A data bit at the given block-local coordinates flipped.
    Data {
        /// Block-local row.
        local_row: usize,
        /// Block-local column.
        local_col: usize,
    },
    /// A leading-diagonal check-bit itself flipped.
    LeadingCheck {
        /// Diagonal index of the stale check-bit.
        diagonal: usize,
    },
    /// A counter-diagonal check-bit itself flipped.
    CounterCheck {
        /// Diagonal index of the stale check-bit.
        diagonal: usize,
    },
    /// More than one error: detectable but not correctable by this code.
    Uncorrectable,
}

/// The diagonal parity codec for one block geometry.
///
/// # Example
///
/// ```
/// use pimecc_core::{BlockGeometry, DiagonalCode, ErrorLocation};
/// use pimecc_xbar::BitGrid;
///
/// # fn main() -> Result<(), pimecc_core::CoreError> {
/// let geom = BlockGeometry::new(5, 5)?;
/// let code = DiagonalCode::new(geom);
/// let mut block = BitGrid::new(5, 5);
/// block.set(2, 3, true);
/// let (lead, counter) = code.encode(&block);
///
/// block.flip(1, 4); // soft error
/// let syn = code.syndrome(&block, &lead, &counter);
/// assert_eq!(
///     syn.decode(&geom),
///     ErrorLocation::Data { local_row: 1, local_col: 4 }
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DiagonalCode {
    geom: BlockGeometry,
}

impl DiagonalCode {
    /// Creates the codec for `geom` (block dimension `geom.m()`).
    pub fn new(geom: BlockGeometry) -> Self {
        DiagonalCode { geom }
    }

    /// The geometry this codec operates on.
    pub fn geometry(&self) -> &BlockGeometry {
        &self.geom
    }

    /// Computes the check-bits of an m×m data block: `(leading, counter)`
    /// parity vectors, each of length m.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not m×m.
    pub fn encode(&self, block: &BitGrid) -> (Vec<bool>, Vec<bool>) {
        let m = self.geom.m();
        assert_eq!(
            (block.rows(), block.cols()),
            (m, m),
            "block must be {m}x{m}"
        );
        let mut lead = vec![false; m];
        let mut counter = vec![false; m];
        for r in 0..m {
            for c in 0..m {
                if block.get(r, c) {
                    lead[self.geom.leading(r, c)] ^= true;
                    counter[self.geom.counter(r, c)] ^= true;
                }
            }
        }
        (lead, counter)
    }

    /// Word-parallel [`DiagonalCode::encode`]: the block arrives as one
    /// packed word per local row (bit `c` of `rows[lr]` is cell
    /// `(lr, c)`), and the parity vectors return as packed words (bit `d`
    /// is the parity of diagonal `d`).
    ///
    /// The diagonal structure collapses to rotations: row `lr`'s cells lie
    /// on leading diagonals `(lr + c) mod m`, so its contribution to the
    /// leading parities is the row word rotated left by `lr` (mod m);
    /// counter diagonals `(lr − c) mod m` add a bit-reversal before the
    /// rotation. Encoding is therefore `2m` word operations instead of
    /// `m²` cell visits.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != m` or `m > 63` (odd `m` never equals 64;
    /// larger blocks use the scalar [`DiagonalCode::encode`]).
    pub fn encode_words(&self, rows: &[u64]) -> (u64, u64) {
        let m = self.geom.m();
        let (lead, counter_q) = self.encode_fields(rows);
        (lead, crate::cmem::rev_m(counter_q, m))
    }

    /// [`DiagonalCode::encode_words`] before its final reversal: the
    /// counter parities come back in the rotation order the
    /// [`CheckMemory`](crate::CheckMemory) stores (bit `m − 1 − d` is
    /// counter diagonal `d`).
    ///
    /// # Panics
    ///
    /// As [`DiagonalCode::encode_words`].
    pub(crate) fn encode_fields(&self, rows: &[u64]) -> (u64, u64) {
        let m = self.geom.m();
        assert_eq!(rows.len(), m, "block must have {m} row words");
        assert!(m <= 63, "word-parallel encode requires m <= 63");
        let mask = (1u64 << m) - 1;
        let rotl = |w: u64, s: usize| {
            if s == 0 {
                w
            } else {
                ((w << s) | (w >> (m - s))) & mask
            }
        };
        let mut lead = 0u64;
        let mut counter_q = 0u64;
        for (lr, &w) in rows.iter().enumerate() {
            debug_assert_eq!(w & !mask, 0, "row word has bits past m");
            lead ^= rotl(w, lr % m);
            // Reverse maps bit c to m-1-c; rotating by lr+1 lands it on
            // (lr - c) mod m, the counter diagonal. Equivalently, reversing
            // rotl(w, m-1-lr) — and reversal is GF(2)-linear, so the
            // rotations accumulate and one reversal of the sum suffices.
            counter_q ^= rotl(w, m - 1 - lr % m);
        }
        (lead, counter_q)
    }

    /// Computes the syndrome of `block` against stored check-bits.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree with the geometry.
    pub fn syndrome(&self, block: &BitGrid, lead: &[bool], counter: &[bool]) -> Syndrome {
        let m = self.geom.m();
        assert_eq!(lead.len(), m, "leading check-bit count");
        assert_eq!(counter.len(), m, "counter check-bit count");
        let (cl, cc) = self.encode(block);
        Syndrome {
            leading: (0..m).filter(|&i| cl[i] != lead[i]).collect(),
            counter: (0..m).filter(|&i| cc[i] != counter[i]).collect(),
        }
    }

    /// The Θ(1) *continuous update* of the paper: when one data bit of the
    /// block changes from `old` to `new`, the affected check-bits are
    /// XOR-updated in place without touching the other data.
    pub fn update(
        &self,
        local_row: usize,
        local_col: usize,
        old: bool,
        new: bool,
        lead: &mut [bool],
        counter: &mut [bool],
    ) {
        if old == new {
            return;
        }
        lead[self.geom.leading(local_row, local_col)] ^= true;
        counter[self.geom.counter(local_row, local_col)] ^= true;
    }

    /// Attempts to correct a single error in place (data block or
    /// check-bits). Returns the decoded location that was acted upon.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree with the geometry.
    pub fn correct(
        &self,
        block: &mut BitGrid,
        lead: &mut [bool],
        counter: &mut [bool],
    ) -> ErrorLocation {
        let loc = self.syndrome(block, lead, counter).decode(&self.geom);
        match loc {
            ErrorLocation::None | ErrorLocation::Uncorrectable => {}
            ErrorLocation::Data {
                local_row,
                local_col,
            } => {
                block.flip(local_row, local_col);
            }
            ErrorLocation::LeadingCheck { diagonal } => lead[diagonal] ^= true,
            ErrorLocation::CounterCheck { diagonal } => counter[diagonal] ^= true,
        }
        loc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Result;

    fn setup(m: usize) -> Result<(DiagonalCode, BitGrid)> {
        let geom = BlockGeometry::new(m, m)?;
        Ok((DiagonalCode::new(geom), BitGrid::new(m, m)))
    }

    fn pattern(m: usize, seed: u64) -> BitGrid {
        let mut g = BitGrid::new(m, m);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for r in 0..m {
            for c in 0..m {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                g.set(r, c, state >> 63 != 0);
            }
        }
        g
    }

    #[test]
    fn zero_block_has_zero_checks_and_zero_syndrome() {
        let (code, block) = setup(5).unwrap();
        let (l, k) = code.encode(&block);
        assert!(l.iter().all(|&b| !b));
        assert!(k.iter().all(|&b| !b));
        let syn = code.syndrome(&block, &l, &k);
        assert!(syn.is_zero());
        assert_eq!(syn.decode(code.geometry()), ErrorLocation::None);
    }

    #[test]
    fn every_single_data_error_is_located_exactly() {
        for m in [3usize, 5, 15] {
            let geom = BlockGeometry::new(m, m).unwrap();
            let code = DiagonalCode::new(geom);
            let block = pattern(m, 42);
            let (l, k) = code.encode(&block);
            for r in 0..m {
                for c in 0..m {
                    let mut corrupted = block.clone();
                    corrupted.flip(r, c);
                    let syn = code.syndrome(&corrupted, &l, &k);
                    assert_eq!(
                        syn.decode(&geom),
                        ErrorLocation::Data {
                            local_row: r,
                            local_col: c
                        },
                        "m={m} flip ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn every_single_check_bit_error_is_located() {
        let (code, block) = setup(7).unwrap();
        let block = {
            let mut b = block;
            b.set(3, 3, true);
            b
        };
        let (l, k) = code.encode(&block);
        for d in 0..7 {
            let mut lf = l.clone();
            lf[d] ^= true;
            let syn = code.syndrome(&block, &lf, &k);
            assert_eq!(
                syn.decode(code.geometry()),
                ErrorLocation::LeadingCheck { diagonal: d }
            );
            let mut kf = k.clone();
            kf[d] ^= true;
            let syn = code.syndrome(&block, &l, &kf);
            assert_eq!(
                syn.decode(code.geometry()),
                ErrorLocation::CounterCheck { diagonal: d }
            );
        }
    }

    #[test]
    fn correct_repairs_single_data_error() {
        let geom = BlockGeometry::new(15, 15).unwrap();
        let code = DiagonalCode::new(geom);
        let block = pattern(15, 7);
        let (mut l, mut k) = code.encode(&block);
        let mut corrupted = block.clone();
        corrupted.flip(8, 2);
        let loc = code.correct(&mut corrupted, &mut l, &mut k);
        assert_eq!(
            loc,
            ErrorLocation::Data {
                local_row: 8,
                local_col: 2
            }
        );
        assert_eq!(corrupted.diff(&block), vec![]);
    }

    #[test]
    fn correct_repairs_check_bit_error_without_touching_data() {
        let (code, block) = setup(5).unwrap();
        let (mut l, mut k) = code.encode(&block);
        l[2] = true; // stale check-bit
        let mut b = block.clone();
        let loc = code.correct(&mut b, &mut l, &mut k);
        assert_eq!(loc, ErrorLocation::LeadingCheck { diagonal: 2 });
        assert_eq!(b.diff(&block), vec![]);
        assert!(code.syndrome(&b, &l, &k).is_zero());
    }

    #[test]
    fn generic_double_errors_are_flagged_uncorrectable() {
        let geom = BlockGeometry::new(15, 15).unwrap();
        let code = DiagonalCode::new(geom);
        let block = pattern(15, 9);
        let (l, k) = code.encode(&block);
        // Two errors in general position: 2 leading + 2 counter mismatches.
        let mut corrupted = block.clone();
        corrupted.flip(0, 0);
        corrupted.flip(3, 7);
        let syn = code.syndrome(&corrupted, &l, &k);
        assert_eq!(syn.decode(&geom), ErrorLocation::Uncorrectable);
    }

    #[test]
    fn same_diagonal_double_errors_are_detected_not_miscorrected_as_data() {
        let geom = BlockGeometry::new(5, 5).unwrap();
        let code = DiagonalCode::new(geom);
        let block = BitGrid::new(5, 5);
        let (l, k) = code.encode(&block);
        // Two cells on the same leading diagonal: leading syndrome cancels,
        // two counter mismatches remain -> uncorrectable, not silent.
        let cells: Vec<_> = geom.leading_cells(2).take(2).collect();
        let mut corrupted = block.clone();
        for &(r, c) in &cells {
            corrupted.flip(r, c);
        }
        let syn = code.syndrome(&corrupted, &l, &k);
        assert_eq!(syn.leading.len(), 0);
        assert_eq!(syn.counter.len(), 2);
        assert_eq!(syn.decode(&geom), ErrorLocation::Uncorrectable);
    }

    #[test]
    fn continuous_update_matches_full_reencode() {
        let geom = BlockGeometry::new(9, 9).unwrap();
        let code = DiagonalCode::new(geom);
        let mut block = pattern(9, 3);
        let (mut l, mut k) = code.encode(&block);
        // Apply a sequence of writes, maintaining checks incrementally.
        let writes = [
            (0usize, 0usize, true),
            (4, 7, false),
            (8, 8, true),
            (4, 7, true),
        ];
        for &(r, c, v) in &writes {
            let old = block.get(r, c);
            code.update(r, c, old, v, &mut l, &mut k);
            block.set(r, c, v);
        }
        let (fl, fk) = code.encode(&block);
        assert_eq!(l, fl, "leading checks drifted");
        assert_eq!(k, fk, "counter checks drifted");
    }

    #[test]
    fn update_with_unchanged_value_is_a_no_op() {
        let geom = BlockGeometry::new(5, 5).unwrap();
        let code = DiagonalCode::new(geom);
        let mut l = vec![false; 5];
        let mut k = vec![false; 5];
        code.update(1, 1, true, true, &mut l, &mut k);
        assert!(l.iter().all(|&b| !b));
        assert!(k.iter().all(|&b| !b));
    }

    #[test]
    #[should_panic(expected = "block must be")]
    fn encode_rejects_wrong_block_size() {
        let geom = BlockGeometry::new(5, 5).unwrap();
        let code = DiagonalCode::new(geom);
        let _ = code.encode(&BitGrid::new(4, 4));
    }

    #[test]
    fn encode_words_matches_scalar_encode() {
        for m in [3usize, 5, 7, 15, 63] {
            let geom = BlockGeometry::new(m, m).unwrap();
            let code = DiagonalCode::new(geom);
            for seed in 0..8u64 {
                let block = pattern(m, seed.wrapping_mul(31).wrapping_add(m as u64));
                let (lead, counter) = code.encode(&block);
                let rows: Vec<u64> = (0..m).map(|r| block.extract_bits(r, 0, m)).collect();
                let (lw, cw) = code.encode_words(&rows);
                for d in 0..m {
                    assert_eq!(lw >> d & 1 != 0, lead[d], "m={m} seed={seed} lead {d}");
                    assert_eq!(
                        cw >> d & 1 != 0,
                        counter[d],
                        "m={m} seed={seed} counter {d}"
                    );
                }
            }
        }
    }
}
