//! The integrated protected memory: a MAGIC crossbar (MEM) whose writes to
//! ECC-covered blocks transparently maintain the diagonal check-bits in the
//! CMEM, with fault injection, per-block checking and correction.
//!
//! The machine reproduces the paper's critical-operation protocol (§IV):
//!
//! 1. cancel the old data's effect on the check-bits,
//! 2. perform the MAGIC operation in the MEM,
//! 3. add the new data's effect on the check-bits,
//!
//! where steps 1 and 3 are XOR3 updates executed in processing crossbars
//! fed through the barrel shifters. Functionally the two XORs collapse to
//! `check ⊕= old ⊕ new` per touched diagonal; the cycle cost of the full
//! protocol is tracked in [`MachineStats`].
//!
//! Coverage is per *block*: function inputs and outputs live in covered
//! blocks (checked and continuously updated); intermediate scratch blocks
//! can be marked uncovered, matching the paper's model where only function
//! inputs/outputs are protected.
//!
//! # Simulation engines
//!
//! The hot path is *word-diff*: before a parallel operation the touched
//! line words are snapshotted, and afterwards `old XOR new` yields a packed
//! change mask whose set bits — pre-masked by per-geometry coverage words —
//! are the only cells whose Leading/Counter check-bits flip. The
//! [`CheckMemory`] keeps each block row's check-bits as one packed field
//! row per family, laid out like a MEM row, so a written row's changes
//! reach every block of its block row through two whole-word field
//! rotations (`xor_row_fields`); block-row checks and scrubs recompute
//! whole field rows with the same kernel and compare or store them word by
//! word. Single-column changes and blocks wider than a word (`m > 63`)
//! flip per block or per cell. The original cell-at-a-time loops are
//! retained under [`SimEngine::ScalarReference`]
//! (see [`ProtectedMemory::set_engine`]) as the differential baseline; both
//! engines produce bit-identical state, [`MachineStats`] and
//! [`CheckReport`]s — only host wall-time differs.

use crate::cmem::{field, rev_m, xor_field, CheckMemory};
use crate::code::{DiagonalCode, ErrorLocation};
use crate::error::CoreError;
use crate::geometry::BlockGeometry;
use crate::shifter::Family;
use crate::Result;
use pimecc_xbar::{
    transpose64, BitGrid, Crossbar, FusedColsPlan, FusedRowsPlan, LineMask, LineSet, ParallelStep,
    SimEngine, XbarError, MAX_FUSED_STRIDE,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Cycle/event accounting for the protected memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MachineStats {
    /// MEM-side clock cycles (gates, inits, transfers).
    pub mem_cycles: u64,
    /// MEM cycles that were data transfers to/from the CMEM datapath.
    pub transfer_cycles: u64,
    /// XOR3 micro-programs executed in processing crossbars (8 NORs each).
    pub pc_xor3_ops: u64,
    /// Critical operations executed (writes into covered blocks).
    pub critical_ops: u64,
    /// Block checks performed.
    pub blocks_checked: u64,
    /// Errors corrected (data or check-bit).
    pub errors_corrected: u64,
    /// Uncorrectable (multi-error) blocks encountered.
    pub errors_uncorrectable: u64,
}

impl std::ops::Sub for MachineStats {
    type Output = MachineStats;

    /// Saturating per-counter difference — `after - before` yields the
    /// stats of everything that happened between two snapshots, which is
    /// how batched executions report their own share of the machine's
    /// activity.
    fn sub(self, earlier: MachineStats) -> MachineStats {
        MachineStats {
            mem_cycles: self.mem_cycles.saturating_sub(earlier.mem_cycles),
            transfer_cycles: self.transfer_cycles.saturating_sub(earlier.transfer_cycles),
            pc_xor3_ops: self.pc_xor3_ops.saturating_sub(earlier.pc_xor3_ops),
            critical_ops: self.critical_ops.saturating_sub(earlier.critical_ops),
            blocks_checked: self.blocks_checked.saturating_sub(earlier.blocks_checked),
            errors_corrected: self
                .errors_corrected
                .saturating_sub(earlier.errors_corrected),
            errors_uncorrectable: self
                .errors_uncorrectable
                .saturating_sub(earlier.errors_uncorrectable),
        }
    }
}

impl std::ops::Add for MachineStats {
    type Output = MachineStats;

    /// Per-counter sum — how a multi-crossbar layer (a device pool, a
    /// sharded cluster) folds the activity of its members into one
    /// aggregate account.
    fn add(self, other: MachineStats) -> MachineStats {
        MachineStats {
            mem_cycles: self.mem_cycles + other.mem_cycles,
            transfer_cycles: self.transfer_cycles + other.transfer_cycles,
            pc_xor3_ops: self.pc_xor3_ops + other.pc_xor3_ops,
            critical_ops: self.critical_ops + other.critical_ops,
            blocks_checked: self.blocks_checked + other.blocks_checked,
            errors_corrected: self.errors_corrected + other.errors_corrected,
            errors_uncorrectable: self.errors_uncorrectable + other.errors_uncorrectable,
        }
    }
}

impl std::ops::AddAssign for MachineStats {
    /// In-place per-counter sum (see the [`Add`](std::ops::Add) impl).
    fn add_assign(&mut self, other: MachineStats) {
        *self = *self + other;
    }
}

/// Outcome summary of a checking pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Blocks examined.
    pub checked: usize,
    /// Single errors corrected (data or check-bits).
    pub corrected: usize,
    /// Blocks left with detected-but-uncorrectable patterns.
    pub uncorrectable: usize,
}

impl std::ops::AddAssign for CheckReport {
    /// Folds another pass's counts into this report.
    fn add_assign(&mut self, other: CheckReport) {
        self.checked += other.checked;
        self.corrected += other.corrected;
        self.uncorrectable += other.uncorrectable;
    }
}

/// Precomputed per-geometry tables of the word-diff hot path.
///
/// `lead`/`counter`: entry `[local_row * n + col]` is the Leading (resp.
/// Counter) diagonal of any cell whose row is `local_row` modulo `m` and
/// whose global column is `col` — the per-cell flips of blocks too wide
/// for a word (`m > 63`).
///
/// `rot_hi`/`rot_lo`: the field masks of [`xor_row_fields`] (`m <= 63`
/// only), `stride` words per rotation `0..m`. `rot_hi[rot]` selects the
/// bits a left shift by `rot` keeps inside their m-bit field (field
/// positions `>= rot`), `rot_lo[rot]` the bits that wrap in from the
/// right. Bits past `n` are in neither.
#[derive(Debug)]
struct DiagTables {
    lead: Vec<u16>,
    counter: Vec<u16>,
    rot_hi: Vec<u64>,
    rot_lo: Vec<u64>,
}

impl DiagTables {
    fn build(geom: &BlockGeometry) -> DiagTables {
        let (n, m) = (geom.n(), geom.m());
        assert!(m <= u16::MAX as usize, "diagonal index exceeds table width");
        let mut lead = vec![0u16; m * n];
        let mut counter = vec![0u16; m * n];
        for lr in 0..m {
            for c in 0..n {
                lead[lr * n + c] = geom.leading(lr, c % m) as u16;
                counter[lr * n + c] = geom.counter(lr, c % m) as u16;
            }
        }
        let stride = n.div_ceil(64);
        let rots = if m <= 63 { m } else { 0 };
        let mut rot_hi = vec![0u64; rots * stride];
        let mut rot_lo = vec![0u64; rots * stride];
        for rot in 0..rots {
            for p in 0..n {
                let (w, bit) = (rot * stride + p / 64, 1u64 << (p % 64));
                if p % m >= rot {
                    rot_hi[w] |= bit;
                } else {
                    rot_lo[w] |= bit;
                }
            }
        }
        DiagTables {
            lead,
            counter,
            rot_hi,
            rot_lo,
        }
    }

    /// The table for `geom`, built once per distinct `(n, m)` and shared
    /// process-wide — every shard of a cluster references one copy.
    fn cached(geom: &BlockGeometry) -> Arc<DiagTables> {
        type Cache = Mutex<HashMap<(usize, usize), Arc<DiagTables>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(
            map.entry((geom.n(), geom.m()))
                .or_insert_with(|| Arc::new(DiagTables::build(geom))),
        )
    }
}

/// Which crossbar dimension a single-line cell write runs along (the
/// axis-generic core of `write_row_cells` / `write_col_cells`).
#[derive(Clone, Copy)]
enum LineAxis {
    Row,
    Col,
}

impl LineAxis {
    /// Maps `(line, cross)` to global `(row, col)`.
    #[inline]
    fn cell(self, line: usize, cross: usize) -> (usize, usize) {
        match self {
            LineAxis::Row => (line, cross),
            LineAxis::Col => (cross, line),
        }
    }
}

/// One pinned cell of the stuck-at fault plane: `(row, col)` of the MEM is
/// wedged at `value` regardless of what the controller drives through it —
/// the permanent failure mode of a worn-out memristor, which no scrub can
/// repair (see [`ProtectedMemory::set_stuck`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// MEM row of the pinned cell.
    pub row: usize,
    /// MEM column of the pinned cell.
    pub col: usize,
    /// The value the cell is physically wedged at.
    pub value: bool,
    /// The value the controller last drove — what the check-bits encode.
    intended: bool,
}

/// A MAGIC crossbar with continuously maintained diagonal ECC.
///
/// See the crate-level example. All `exec_*` methods mirror the raw
/// [`Crossbar`] API; criticality (whether the ECC must be updated) is
/// decided automatically from the coverage map of the written cells.
///
/// # Verified blocks
///
/// The machine keeps one *verified* bit per block. Invariant: a verified
/// block's data encodes to its stored check-bits, and it holds no stuck
/// cell. Every block starts verified (zeroed memory is consistent). A
/// computed check that leaves a block clean or corrected, and free of
/// stuck cells, sets its bit. The three calls that put data and check-bits
/// out of step clear it: [`ProtectedMemory::inject_fault`],
/// [`ProtectedMemory::inject_check_fault`] and
/// [`ProtectedMemory::set_stuck`]; [`ProtectedMemory::reset_block`],
/// [`ProtectedMemory::set_block_covered`] and
/// [`ProtectedMemory::load_grid`] clear it conservatively. Every
/// ECC-maintaining write keeps a consistent block consistent, so the word
/// engine answers a check of a verified block clean without recomputing
/// its diagonals. The check is still billed, counted and reported as one;
/// the [`SimEngine::ScalarReference`] engine and
/// [`ProtectedMemory::verify_consistency`] never read the map.
#[derive(Clone)]
pub struct ProtectedMemory {
    geom: BlockGeometry,
    code: DiagonalCode,
    mem: Crossbar,
    cmem: CheckMemory,
    /// Coverage per block, indexed `[block_row * bps + block_col]`.
    covered: Vec<bool>,
    /// The verified-block map (see the type docs): bit
    /// `block_row * bps + block_col` of the packed words.
    verified: Vec<u64>,
    /// Blocks the running check left uncorrectable, in check order (see
    /// [`ProtectedMemory::uncorrectable_blocks`]).
    uncorrectable: Vec<(usize, usize)>,
    /// The stuck-at fault plane, sorted by `(row, col)`. Driven operations
    /// run against the *intended* values (the ECC maintenance diffs and the
    /// gate dynamics both see what the controller drives); the plane then
    /// re-asserts each wedged value, so checks and readback see the faulted
    /// array. A "correction" write-back into a pinned cell is refused and
    /// the verdict reclassified uncorrectable — hard faults are detected
    /// anew by every check until the line is retired by a layer above.
    stuck: Vec<StuckCell>,
    /// Whether the plane currently asserts the stuck values (`true` outside
    /// driven operations). Guards re-entrant clamping: the batched writers
    /// call the per-line writers internally.
    stuck_clamped: bool,
    /// When set, every critical operation first ECC-checks the blocks it
    /// is about to overwrite (closes the §III false-positive window at the
    /// price of a check per write — the "locally decodable codes" future
    /// work of the paper, realized with the hardware already present).
    check_on_critical: bool,
    stats: MachineStats,
    engine: SimEngine,
    /// Shared diagonal-index table (see [`DiagTables`]).
    tables: Arc<DiagTables>,
    /// Per block-row: packed mask of the columns lying in covered blocks,
    /// flattened `[block_row * stride + word]`.
    covered_row_masks: Vec<u64>,
    /// Per block-column: packed mask of the rows lying in covered blocks,
    /// flattened `[block_col * stride + word]`.
    covered_col_masks: Vec<u64>,
    /// True while every block is covered (the default policy) — lets the
    /// hot paths skip coverage-mask loads entirely.
    fully_covered: bool,
    // Reusable scratch for the word-diff path (never part of observable
    // state; reused across operations so the steady state allocates
    // nothing).
    mask_buf: LineMask,
    colmask_buf: Vec<u64>,
    widx_buf: Vec<usize>,
    line_buf: Vec<usize>,
    old_buf: Vec<u64>,
    new_buf: Vec<u64>,
    blockrow_buf: Vec<u64>,
    blkrow_buf: Vec<usize>,
    blkcol_buf: Vec<usize>,
    /// One row's masked change words (`stride` of them, zero outside the
    /// written covered columns) on their way into [`xor_row_fields`].
    chg_buf: Vec<u64>,
    /// Transpose-staging value/mask planes for batched column loads,
    /// row-major `[row * stride + word]`; only touched rows are dirtied
    /// and re-cleared.
    stage_val: Vec<u64>,
    stage_msk: Vec<u64>,
    /// Packed mask of the rows the staging planes currently hold.
    stage_rows: Vec<u64>,
    /// Block columns whose recomputed fields disagree with the CMEM in a
    /// block-row sweep (ascending).
    mismatch_buf: Vec<usize>,
    /// Field-row parity accumulators of the block-row sweeps (`stride`
    /// words each, laid out like the CMEM's field rows).
    acc_lead: Vec<u64>,
    acc_q: Vec<u64>,
}

impl ProtectedMemory {
    /// Creates an all-zero protected memory (data and check-bits
    /// consistent), with every block covered.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`BlockGeometry`]; the `Result`
    /// reserves room for configuration validation.
    pub fn new(geom: BlockGeometry) -> Result<Self> {
        let tables = DiagTables::cached(&geom);
        let mut pm = ProtectedMemory {
            geom,
            code: DiagonalCode::new(geom),
            mem: Crossbar::new(geom.n(), geom.n()),
            cmem: CheckMemory::new(geom),
            covered: vec![true; geom.block_count()],
            verified: vec![u64::MAX; geom.block_count().div_ceil(64)],
            uncorrectable: Vec::new(),
            stuck: Vec::new(),
            stuck_clamped: true,
            check_on_critical: false,
            stats: MachineStats::default(),
            engine: SimEngine::default(),
            tables,
            covered_row_masks: Vec::new(),
            covered_col_masks: Vec::new(),
            fully_covered: true,
            mask_buf: LineMask::new(geom.n()),
            colmask_buf: Vec::new(),
            widx_buf: Vec::new(),
            line_buf: Vec::new(),
            old_buf: Vec::new(),
            new_buf: Vec::new(),
            blockrow_buf: Vec::new(),
            blkrow_buf: Vec::new(),
            blkcol_buf: Vec::new(),
            chg_buf: Vec::new(),
            stage_val: Vec::new(),
            stage_msk: Vec::new(),
            stage_rows: Vec::new(),
            mismatch_buf: Vec::new(),
            acc_lead: Vec::new(),
            acc_q: Vec::new(),
        };
        pm.rebuild_cover_masks();
        Ok(pm)
    }

    /// Words per line of the n×n MEM.
    #[inline]
    fn stride(&self) -> usize {
        self.geom.n().div_ceil(64)
    }

    /// Selects the simulation engine (default:
    /// [`SimEngine::WordParallel`]); forwarded to the underlying MEM
    /// crossbar. Both engines are bit-identical in state, stats and
    /// reports.
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.engine = engine;
        self.mem.set_engine(engine);
    }

    /// The simulation engine in force.
    pub fn engine(&self) -> SimEngine {
        self.engine
    }

    /// Enables or disables the pre-write ECC check of critical
    /// operations. Off by default (the paper's configuration, which
    /// accepts the rare false positive documented in its §III).
    pub fn set_check_on_critical(&mut self, enabled: bool) {
        self.check_on_critical = enabled;
    }

    /// Whether pre-write checking is enabled.
    pub fn check_on_critical(&self) -> bool {
        self.check_on_critical
    }

    /// Rebuilds the packed coverage masks from the per-block coverage map
    /// (called whenever coverage changes).
    fn rebuild_cover_masks(&mut self) {
        self.fully_covered = self.covered.iter().all(|&c| c);
        let (m, bps, stride) = (self.geom.m(), self.geom.blocks_per_side(), self.stride());
        self.covered_row_masks.clear();
        self.covered_row_masks.resize(bps * stride, 0);
        self.covered_col_masks.clear();
        self.covered_col_masks.resize(bps * stride, 0);
        for br in 0..bps {
            for bc in 0..bps {
                if !self.covered[br * bps + bc] {
                    continue;
                }
                set_word_range(
                    &mut self.covered_row_masks[br * stride..(br + 1) * stride],
                    bc * m..(bc + 1) * m,
                );
                set_word_range(
                    &mut self.covered_col_masks[bc * stride..(bc + 1) * stride],
                    br * m..(br + 1) * m,
                );
            }
        }
    }

    /// ECC-checks the distinct covered blocks containing `cells` (the
    /// pre-write verification pass of the scalar reference).
    fn precheck_blocks(&mut self, cells: &[(usize, usize)]) -> Result<()> {
        let mut blocks: Vec<(usize, usize)> = cells
            .iter()
            .map(|&(r, c)| self.geom.block_of(r, c))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        self.uncorrectable.clear();
        for (br, bc) in blocks {
            self.check_block_at(br, bc)?;
        }
        Ok(())
    }

    /// ECC-checks the covered blocks of the rectangle
    /// `blkrow_buf × blkcol_buf` (both pre-sorted ascending) — the
    /// word-path pre-write pass. Parallel operations always touch
    /// rectangles of cells, so the block set is exactly this cross
    /// product, visited in the same `(block_row, block_col)` order as the
    /// scalar reference.
    fn precheck_rect(&mut self) -> Result<()> {
        self.uncorrectable.clear();
        for i in 0..self.blkrow_buf.len() {
            let br = self.blkrow_buf[i];
            for j in 0..self.blkcol_buf.len() {
                self.check_block_at(br, self.blkcol_buf[j])?;
            }
        }
        Ok(())
    }

    /// Fills `blkrow_buf` with the distinct block-rows of the selected
    /// lines in `line_buf` (which need not be sorted).
    fn fill_block_rows_from_lines(&mut self) {
        let m = self.geom.m();
        self.blkrow_buf.clear();
        self.blkrow_buf.extend(self.line_buf.iter().map(|&r| r / m));
        self.blkrow_buf.sort_unstable();
        self.blkrow_buf.dedup();
    }

    /// Fills `blkcol_buf` with the distinct block-columns of the set bits
    /// of `colmask_buf` (ascending by construction) — the exact form the
    /// pre-write check pass requires.
    fn fill_block_cols_from_colmask(&mut self) {
        let m = self.geom.m();
        self.blkcol_buf.clear();
        for k in 0..self.widx_buf.len() {
            let wi = self.widx_buf[k];
            let mut w = self.colmask_buf[wi];
            while w != 0 {
                let c = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let bc = c / m;
                if self.blkcol_buf.last() != Some(&bc) {
                    self.blkcol_buf.push(bc);
                }
            }
        }
    }

    /// The geometry in force.
    pub fn geometry(&self) -> &BlockGeometry {
        &self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Read-only view of the underlying MEM crossbar.
    pub fn mem(&self) -> &Crossbar {
        &self.mem
    }

    /// Read-only view of the CMEM.
    pub fn cmem(&self) -> &CheckMemory {
        &self.cmem
    }

    /// Reads one data bit (observability helper, zero cycles).
    pub fn bit(&self, r: usize, c: usize) -> bool {
        self.mem.bit(r, c)
    }

    fn block_index(&self, block_row: usize, block_col: usize) -> usize {
        block_row * self.geom.blocks_per_side() + block_col
    }

    /// [`CoreError::OutOfBounds`] unless `(block_row, block_col)` names a
    /// block.
    fn block_in_bounds(&self, block_row: usize, block_col: usize) -> Result<()> {
        let bps = self.geom.blocks_per_side();
        if block_row >= bps || block_col >= bps {
            return Err(CoreError::OutOfBounds {
                row: block_row * self.geom.m(),
                col: block_col * self.geom.m(),
                n: self.geom.n(),
            });
        }
        Ok(())
    }

    /// Marks a block as ECC-covered or as uncovered scratch. Newly covering
    /// a block re-encodes its check-bits so the invariant holds.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] if the block indices are out of range.
    pub fn set_block_covered(
        &mut self,
        block_row: usize,
        block_col: usize,
        covered: bool,
    ) -> Result<()> {
        self.block_in_bounds(block_row, block_col)?;
        let idx = self.block_index(block_row, block_col);
        self.unverify(block_row, block_col);
        if covered && !self.covered[idx] {
            // Re-encode on coverage entry (a write-with-ECC sweep).
            self.reencode_block(block_row, block_col);
            self.stats.mem_cycles += self.geom.m() as u64; // m row reads
            self.stats.transfer_cycles += self.geom.m() as u64;
        }
        if self.covered[idx] != covered {
            self.covered[idx] = covered;
            self.rebuild_cover_masks();
        }
        Ok(())
    }

    /// Whether a block is ECC-covered.
    pub fn block_covered(&self, block_row: usize, block_col: usize) -> bool {
        self.covered[self.block_index(block_row, block_col)]
    }

    fn is_cell_covered(&self, r: usize, c: usize) -> bool {
        let (br, bc) = self.geom.block_of(r, c);
        self.covered[self.block_index(br, bc)]
    }

    fn extract_block(&self, block_row: usize, block_col: usize) -> BitGrid {
        let m = self.geom.m();
        let mut g = BitGrid::new(m, m);
        for r in 0..m {
            for c in 0..m {
                g.set(r, c, self.mem.bit(block_row * m + r, block_col * m + c));
            }
        }
        g
    }

    /// Whether this machine runs blocks through the packed-word codec.
    #[inline]
    fn word_blocks(&self) -> bool {
        matches!(self.engine, SimEngine::WordParallel) && self.geom.m() <= 63
    }

    /// Loads the packed row words of one block into `blockrow_buf`
    /// (word-path only; `m <= 63` so each local row is one word).
    fn fill_block_rows(&mut self, block_row: usize, block_col: usize) {
        let m = self.geom.m();
        self.blockrow_buf.clear();
        for r in block_row * m..(block_row + 1) * m {
            let row = self.mem.grid().row_words(r);
            self.blockrow_buf.push(field(row, block_col * m, m));
        }
    }

    /// Recomputes and stores one block's check-bits from its current data.
    fn reencode_block(&mut self, block_row: usize, block_col: usize) {
        if self.word_blocks() {
            self.fill_block_rows(block_row, block_col);
            let (l, q) = self.code.encode_fields(&self.blockrow_buf);
            self.cmem.store_fields(block_row, block_col, l, q);
        } else {
            let block = self.extract_block(block_row, block_col);
            let (l, k) = self.code.encode(&block);
            self.cmem.store_block_checks(block_row, block_col, &l, &k);
        }
    }

    /// Bulk-loads a full data grid, recomputing every covered block's
    /// check-bits (the "ECC computed along write" path of a conventional
    /// memory).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not n×n.
    pub fn load_grid(&mut self, data: &BitGrid) {
        self.verified.fill(0);
        self.unclamp_stuck();
        self.load_grid_driven(data);
        self.clamp_stuck();
    }

    fn load_grid_driven(&mut self, data: &BitGrid) {
        let n = self.geom.n();
        assert_eq!((data.rows(), data.cols()), (n, n), "grid must be {n}x{n}");
        for r in 0..n {
            let row = data.row(r);
            self.mem.write_row(r, &row);
        }
        self.stats.mem_cycles += n as u64;
        for br in 0..self.geom.blocks_per_side() {
            self.reencode_block_row(br, false);
        }
    }

    /// Recomputes and stores the check-bits of every covered block of one
    /// block row from its current data; with `skip_stuck`, blocks holding a
    /// pinned cell keep their stored check-bits. On the word path this is
    /// one field-row sweep ([`ProtectedMemory::sweep_block_row`]) and a
    /// masked store of whole field rows.
    fn reencode_block_row(&mut self, block_row: usize, skip_stuck: bool) {
        let (m, bps, stride) = (self.geom.m(), self.geom.blocks_per_side(), self.stride());
        if !self.word_blocks() {
            for bc in 0..bps {
                if self.covered[self.block_index(block_row, bc)]
                    && !(skip_stuck && self.block_has_stuck(block_row, bc))
                {
                    self.reencode_block(block_row, bc);
                }
            }
            return;
        }
        self.sweep_block_row(block_row);
        // The fields to store, in `chg_buf`: the covered-column mask of a
        // block row is exactly the bits of its covered blocks' fields, and
        // pinned blocks drop out of it.
        let sel = &mut self.chg_buf;
        sel.clear();
        sel.extend_from_slice(
            &self.covered_row_masks[block_row * stride..(block_row + 1) * stride],
        );
        if skip_stuck {
            for s in self.stuck.iter().filter(|s| s.row / m == block_row) {
                let p = s.col / m * m;
                let covered = field(sel, p, m);
                xor_field(sel, p, m, covered);
            }
        }
        let (lead, counter) = self.cmem.rows_mut(block_row..block_row + 1);
        for w in 0..stride {
            lead[w] = lead[w] & !sel[w] | self.acc_lead[w] & sel[w];
            counter[w] = counter[w] & !sel[w] | self.acc_q[w] & sel[w];
        }
    }

    /// Bills one critical-operation protocol: old transfer + new transfer
    /// on the MEM; two XOR3 programs (leading + counter) in a PC.
    #[inline]
    fn bill_critical(&mut self) {
        self.stats.critical_ops += 1;
        self.stats.mem_cycles += 2;
        self.stats.transfer_cycles += 2;
        self.stats.pc_xor3_ops += 2;
    }

    /// Applies the continuous ECC update for a set of written cells, given
    /// their prior values — the scalar-reference form. Cells in uncovered
    /// blocks are skipped.
    fn update_checks_scalar(&mut self, cells: &[(usize, usize, bool)]) {
        let mut any_covered = false;
        for &(r, c, old) in cells {
            if !self.is_cell_covered(r, c) {
                continue;
            }
            any_covered = true;
            let new = self.mem.bit(r, c);
            if old != new {
                let (br, bc) = self.geom.block_of(r, c);
                let (lr, lc) = self.geom.local_of(r, c);
                self.cmem
                    .xor_bit(Family::Leading, self.geom.leading(lr, lc), br, bc, true);
                self.cmem
                    .xor_bit(Family::Counter, self.geom.counter(lr, lc), br, bc, true);
            }
        }
        if any_covered {
            self.bill_critical();
        }
    }

    /// Word-diff ECC update for one touched row: XORs the snapshotted old
    /// words (`old_buf[old_base..]`, one per touched word index in
    /// `widx_buf`) against the row's current words, masks them to the
    /// touched (`colmask_buf`) and covered columns, and flips the
    /// check-bits of the surviving change bits
    /// ([`ProtectedMemory::flip_row_changes`]). Returns whether any
    /// touched cell of the row was covered.
    fn apply_row_diff(&mut self, r: usize, old_base: usize, win: Range<usize>) -> bool {
        let cov = (r / self.geom.m()) * self.stride();
        let row = self.mem.grid().row_words(r);
        let mut covered = 0u64;
        for (k, &wi) in self.widx_buf.iter().enumerate() {
            let touched = self.colmask_buf[wi] & self.covered_row_masks[cov + wi];
            covered |= touched;
            self.chg_buf[wi] = (row[wi] ^ self.old_buf[old_base + k]) & touched;
        }
        if covered == 0 {
            return false;
        }
        self.flip_row_changes(r, win);
        true
    }

    /// Zeroes `chg_buf` to one row of words and returns the field-row
    /// window of the touched columns in `colmask_buf` (see
    /// [`mask_window`]) — the set-up of a per-step row-major ECC update.
    fn start_row_changes(&mut self) -> Range<usize> {
        self.chg_buf.clear();
        self.chg_buf.resize(self.stride(), 0);
        mask_window(&self.colmask_buf, self.geom.m())
    }

    /// XORs the check-bit deltas of row `r`'s change words (`chg_buf`:
    /// old ⊕ new, zero outside the written covered columns and outside the
    /// field-row window `win`) into the CMEM: the field-row kernel
    /// [`xor_row_fields`] when a field fits a word, per-cell flips
    /// otherwise.
    fn flip_row_changes(&mut self, r: usize, win: Range<usize>) {
        if self.chg_buf[win.clone()].iter().all(|&w| w == 0) {
            return;
        }
        let (n, m) = (self.geom.n(), self.geom.m());
        let br = r / m;
        if m <= 63 {
            let (lead, counter) = self.cmem.rows_mut(br..br + 1);
            xor_row_fields(lead, counter, &self.chg_buf, r % m, m, &self.tables, win);
            return;
        }
        let lr_base = (r % m) * n;
        for wi in win {
            let mut changed = self.chg_buf[wi];
            while changed != 0 {
                let c = wi * 64 + changed.trailing_zeros() as usize;
                changed &= changed - 1;
                self.cmem.flip_pair(
                    self.tables.lead[lr_base + c] as usize,
                    self.tables.counter[lr_base + c] as usize,
                    br,
                    c / m,
                );
            }
        }
    }

    /// Bounds-validates a row selection and loads it into `mask_buf`,
    /// erroring with the crossbar's own error value.
    fn select_row_mask(&mut self, sel: &LineSet) -> Result<()> {
        let n = self.geom.n();
        if let Some(max) = sel.max_index(n) {
            if max >= n {
                return Err(XbarError::RowOutOfBounds {
                    index: max,
                    rows: n,
                }
                .into());
            }
        }
        sel.fill_mask(n, &mut self.mask_buf);
        Ok(())
    }

    /// Fills `blkrow_buf` with the distinct block-rows of the lines
    /// selected in `mask_buf` (ascending).
    fn fill_block_rows_from_mask(&mut self) {
        let m = self.geom.m();
        self.blkrow_buf.clear();
        for (wi, &mw) in self.mask_buf.words().iter().enumerate() {
            let mut w = mw;
            while w != 0 {
                let r = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let br = r / m;
                if self.blkrow_buf.last() != Some(&br) {
                    self.blkrow_buf.push(br);
                }
            }
        }
    }

    /// Builds `colmask_buf`/`widx_buf` from an explicit column list.
    fn colmask_from_cols(&mut self, cols: &[usize]) -> Result<()> {
        let n = self.geom.n();
        self.colmask_buf.clear();
        self.colmask_buf.resize(self.stride(), 0);
        for &c in cols {
            if c >= n {
                return Err(XbarError::ColOutOfBounds { index: c, cols: n }.into());
            }
            self.colmask_buf[c / 64] |= 1u64 << (c % 64);
        }
        self.refresh_widx();
        Ok(())
    }

    /// Builds `colmask_buf`/`widx_buf` from a column selection.
    fn colmask_from_sel(&mut self, cols: &LineSet) -> Result<()> {
        let n = self.geom.n();
        if let Some(max) = cols.max_index(n) {
            if max >= n {
                return Err(XbarError::ColOutOfBounds {
                    index: max,
                    cols: n,
                }
                .into());
            }
        }
        cols.fill_mask(n, &mut self.mask_buf);
        self.colmask_buf.clear();
        self.colmask_buf.extend_from_slice(self.mask_buf.words());
        self.refresh_widx();
        Ok(())
    }

    fn refresh_widx(&mut self) {
        self.widx_buf.clear();
        for wi in 0..self.colmask_buf.len() {
            if self.colmask_buf[wi] != 0 {
                self.widx_buf.push(wi);
            }
        }
    }

    /// Snapshots the touched words of row `r` (per `widx_buf`) onto
    /// `old_buf`.
    fn snapshot_row(&mut self, r: usize) {
        for k in 0..self.widx_buf.len() {
            let wi = self.widx_buf[k];
            self.old_buf.push(self.mem.grid().row_words(r)[wi]);
        }
    }

    /// Shared tail of the row-writing word paths: snapshot the touched
    /// rows in `line_buf`, run `op`, then word-diff every touched row and
    /// bill the critical protocol if any touched cell was covered.
    fn run_row_touching_op(
        &mut self,
        op: impl FnOnce(&mut Crossbar) -> std::result::Result<(), XbarError>,
    ) -> Result<()> {
        self.old_buf.clear();
        for i in 0..self.line_buf.len() {
            let r = self.line_buf[i];
            self.snapshot_row(r);
        }
        op(&mut self.mem)?;
        self.stats.mem_cycles += 1;
        let per_row = self.widx_buf.len();
        let win = self.start_row_changes();
        let mut any_covered = false;
        for i in 0..self.line_buf.len() {
            let r = self.line_buf[i];
            any_covered |= self.apply_row_diff(r, i * per_row, win.clone());
        }
        if any_covered {
            self.bill_critical();
        }
        Ok(())
    }

    /// Writes the given `(column, value)` pairs into one row through the
    /// conventional write-with-ECC path, leaving every other cell of the
    /// memory untouched — the per-request load primitive of batched
    /// execution, where many requests occupy distinct rows of the same
    /// crossbar. One driven-row MEM cycle plus the critical-operation
    /// protocol for the touched covered blocks.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] if `row` or any column is out of range.
    pub fn write_row_cells(&mut self, row: usize, cells: &[(usize, bool)]) -> Result<()> {
        self.write_line_cells(LineAxis::Row, row, cells)
    }

    /// Transpose of [`ProtectedMemory::write_row_cells`]: writes the given
    /// `(row, value)` pairs into one *column* through the write-with-ECC
    /// path, leaving every other cell untouched — the per-request load
    /// primitive for **column-parallel** batched execution, where requests
    /// occupy distinct columns (the paper's §IV "row (column)" symmetry).
    /// One driven-column MEM cycle plus the critical-operation protocol for
    /// the touched covered blocks.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] if `col` or any row is out of range.
    pub fn write_col_cells(&mut self, col: usize, cells: &[(usize, bool)]) -> Result<()> {
        self.write_line_cells(LineAxis::Col, col, cells)
    }

    /// The axis-generic core of [`ProtectedMemory::write_row_cells`] /
    /// [`ProtectedMemory::write_col_cells`]: one driven line, sparse cell
    /// writes, per-cell ECC delta.
    fn write_line_cells(
        &mut self,
        axis: LineAxis,
        line: usize,
        cells: &[(usize, bool)],
    ) -> Result<()> {
        self.unclamp_stuck();
        let out = self.write_line_cells_driven(axis, line, cells);
        self.clamp_stuck();
        out
    }

    fn write_line_cells_driven(
        &mut self,
        axis: LineAxis,
        line: usize,
        cells: &[(usize, bool)],
    ) -> Result<()> {
        let n = self.geom.n();
        let oob = |line: usize, cross: usize| {
            let (row, col) = axis.cell(line, cross);
            CoreError::OutOfBounds { row, col, n }
        };
        if line >= n {
            // Matches the historical error values: the missing coordinate
            // reads as zero.
            return Err(match axis {
                LineAxis::Row => CoreError::OutOfBounds {
                    row: line,
                    col: 0,
                    n,
                },
                LineAxis::Col => CoreError::OutOfBounds {
                    row: 0,
                    col: line,
                    n,
                },
            });
        }
        if let Some(&(cross, _)) = cells.iter().find(|&&(x, _)| x >= n) {
            return Err(oob(line, cross));
        }
        if cells.is_empty() {
            return Ok(());
        }
        if matches!(self.engine, SimEngine::ScalarReference) {
            // Retained reference: quadratic dedup (last value wins), then
            // per-cell snapshot/write/update, exactly the pre-word-parallel
            // path.
            let mut unique: Vec<(usize, bool)> = Vec::with_capacity(cells.len());
            for &(x, v) in cells {
                match unique.iter_mut().find(|(ux, _)| *ux == x) {
                    Some(entry) => entry.1 = v,
                    None => unique.push((x, v)),
                }
            }
            if self.check_on_critical {
                let coords: Vec<(usize, usize)> =
                    unique.iter().map(|&(x, _)| axis.cell(line, x)).collect();
                self.precheck_blocks(&coords)?;
            }
            let old: Vec<(usize, usize, bool)> = unique
                .iter()
                .map(|&(x, _)| {
                    let (r, c) = axis.cell(line, x);
                    (r, c, self.mem.bit(r, c))
                })
                .collect();
            for &(x, v) in &unique {
                let (r, c) = axis.cell(line, x);
                self.mem.write_bit(r, c, v);
            }
            self.stats.mem_cycles += 1;
            self.update_checks_scalar(&old);
            return Ok(());
        }
        // Word path: pack the cells into touched/value words — a later
        // duplicate overwrites its value bit, so "last value wins" falls
        // out of the packing and no quadratic dedup is needed.
        let stride = self.stride();
        self.colmask_buf.clear();
        self.colmask_buf.resize(stride, 0);
        self.new_buf.clear();
        self.new_buf.resize(stride, 0);
        for &(x, v) in cells {
            let (wi, bit) = (x / 64, 1u64 << (x % 64));
            self.colmask_buf[wi] |= bit;
            if v {
                self.new_buf[wi] |= bit;
            } else {
                self.new_buf[wi] &= !bit;
            }
        }
        self.refresh_widx();
        let m = self.geom.m();
        if self.check_on_critical {
            self.fill_block_cols_from_colmask();
            self.blkrow_buf.clear();
            self.blkrow_buf.push(line / m);
            if matches!(axis, LineAxis::Col) {
                // The packed mask ranges over rows: what it yields are
                // block-rows, and the line's block is a block-column.
                std::mem::swap(&mut self.blkrow_buf, &mut self.blkcol_buf);
            }
            self.precheck_rect()?;
        }
        // Snapshot the touched words, store through the masked zero-cycle
        // write, then flip check-bits for the changed covered cells.
        self.old_buf.clear();
        match axis {
            LineAxis::Row => {
                for k in 0..self.widx_buf.len() {
                    let wi = self.widx_buf[k];
                    self.old_buf.push(self.mem.grid().row_words(line)[wi]);
                }
                self.mem
                    .write_row_words_masked(line, &self.new_buf, &self.colmask_buf);
            }
            LineAxis::Col => {
                // Sparse snapshot: only the touched rows' old bits, packed
                // in gather layout (no O(n) column sweep).
                self.old_buf.clear();
                self.old_buf.resize(stride, 0);
                for k in 0..self.widx_buf.len() {
                    let wi = self.widx_buf[k];
                    let mut w = self.colmask_buf[wi];
                    let mut packed = 0u64;
                    while w != 0 {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        packed |= (self.mem.grid().get(wi * 64 + bit, line) as u64) << bit;
                    }
                    self.old_buf[wi] = packed;
                }
                self.mem
                    .write_col_words_masked(line, &self.new_buf, &self.colmask_buf);
            }
        }
        self.stats.mem_cycles += 1;
        let cov_base = (line / m) * stride;
        if let LineAxis::Row = axis {
            let win = self.start_row_changes();
            let mut covered = 0u64;
            for (k, &wi) in self.widx_buf.iter().enumerate() {
                let touched = self.colmask_buf[wi] & self.covered_row_masks[cov_base + wi];
                covered |= touched;
                self.chg_buf[wi] = (self.old_buf[k] ^ self.new_buf[wi]) & touched;
            }
            if covered == 0 {
                return Ok(());
            }
            self.flip_row_changes(line, win);
            self.bill_critical();
            return Ok(());
        }
        let n = self.geom.n();
        let ProtectedMemory {
            ref mut cmem,
            ref tables,
            ref covered_col_masks,
            ref colmask_buf,
            ref widx_buf,
            ref old_buf,
            ref new_buf,
            ..
        } = *self;
        let touched = |wi: usize| colmask_buf[wi] & covered_col_masks[cov_base + wi];
        if widx_buf.iter().all(|&wi| touched(wi) == 0) {
            return Ok(());
        }
        if m <= 63 {
            xor_col_major_changes(cmem, line, n / m, m, stride, |wi| {
                (old_buf[wi] ^ new_buf[wi]) & touched(wi)
            });
        } else {
            for &wi in widx_buf {
                let mut changed = (old_buf[wi] ^ new_buf[wi]) & touched(wi);
                while changed != 0 {
                    let r = wi * 64 + changed.trailing_zeros() as usize;
                    changed &= changed - 1;
                    let idx = (r % m) * n + line;
                    cmem.flip_pair(
                        tables.lead[idx] as usize,
                        tables.counter[idx] as usize,
                        r / m,
                        line / m,
                    );
                }
            }
        }
        self.bill_critical();
        Ok(())
    }

    /// Row-parallel MAGIC NOR (see [`Crossbar::exec_nor_rows`]); maintains
    /// ECC for covered blocks automatically.
    ///
    /// # Errors
    ///
    /// Propagates MAGIC legality violations as [`CoreError::Xbar`].
    pub fn exec_nor_rows(
        &mut self,
        in_cols: &[usize],
        out_col: usize,
        rows: &LineSet,
    ) -> Result<()> {
        self.unclamp_stuck();
        let out = self.exec_nor_rows_driven(in_cols, out_col, rows);
        self.clamp_stuck();
        out
    }

    fn exec_nor_rows_driven(
        &mut self,
        in_cols: &[usize],
        out_col: usize,
        rows: &LineSet,
    ) -> Result<()> {
        if matches!(self.engine, SimEngine::ScalarReference) {
            let idx: Vec<usize> = rows.iter(self.mem.rows()).collect();
            if self.check_on_critical {
                let cells: Vec<(usize, usize)> = idx.iter().map(|&r| (r, out_col)).collect();
                self.precheck_blocks(&cells)?;
            }
            let old: Vec<(usize, usize, bool)> = idx
                .iter()
                .map(|&r| (r, out_col, self.mem.bit(r, out_col)))
                .collect();
            self.mem.exec_nor_rows(in_cols, out_col, rows)?;
            self.stats.mem_cycles += 1;
            self.update_checks_scalar(&old);
            return Ok(());
        }
        let n = self.geom.n();
        if self.check_on_critical {
            // The pre-write pass needs validated coordinates before any
            // block arithmetic; the non-checking path defers validation
            // to the crossbar so error *kinds* match the scalar
            // reference (on invalid unsorted Explicit selections the
            // reported index may differ — word scans in word order).
            if out_col >= n {
                return Err(XbarError::ColOutOfBounds {
                    index: out_col,
                    cols: n,
                }
                .into());
            }
            self.select_row_mask(rows)?;
            self.fill_block_rows_from_mask();
            self.blkcol_buf.clear();
            self.blkcol_buf.push(out_col / self.geom.m());
            self.precheck_rect()?;
        }
        // The gate reports its own change bits (old XOR new, one per
        // selected row) — no snapshot or re-gather of the output column.
        self.mem
            .exec_nor_rows_changed(in_cols, out_col, rows, &mut self.new_buf)?;
        self.stats.mem_cycles += 1;
        let stride = self.stride();
        let m = self.geom.m();
        let cov_base = (out_col / m) * stride;
        let fully = self.fully_covered;
        let ProtectedMemory {
            ref mut cmem,
            ref tables,
            ref covered_col_masks,
            ref new_buf,
            ref mut stats,
            ..
        } = *self;
        // Coverage probe: an empty selection touches nothing; otherwise
        // trivially true on the default fully covered device, early-exit
        // scan elsewhere.
        let any_covered = !rows.is_empty(n)
            && (fully
                || rows
                    .iter(n)
                    .any(|r| covered_col_masks[cov_base + r / 64] >> (r % 64) & 1 != 0));
        if any_covered {
            if m <= 63 && fully {
                xor_col_major_changes(cmem, out_col, n / m, m, stride, |wi| new_buf[wi]);
            } else if m <= 63 {
                xor_col_major_changes(cmem, out_col, n / m, m, stride, |wi| {
                    new_buf[wi] & covered_col_masks[cov_base + wi]
                });
            } else {
                for wi in 0..stride {
                    let mut changed = new_buf[wi] & covered_col_masks[cov_base + wi];
                    while changed != 0 {
                        let r = wi * 64 + changed.trailing_zeros() as usize;
                        changed &= changed - 1;
                        let idx = (r % m) * n + out_col;
                        cmem.flip_pair(
                            tables.lead[idx] as usize,
                            tables.counter[idx] as usize,
                            r / m,
                            out_col / m,
                        );
                    }
                }
            }
            stats.critical_ops += 1;
            stats.mem_cycles += 2;
            stats.transfer_cycles += 2;
            stats.pc_xor3_ops += 2;
        }
        Ok(())
    }

    /// Column-parallel MAGIC NOR with automatic ECC maintenance.
    ///
    /// # Errors
    ///
    /// Propagates MAGIC legality violations as [`CoreError::Xbar`].
    pub fn exec_nor_cols(
        &mut self,
        in_rows: &[usize],
        out_row: usize,
        cols: &LineSet,
    ) -> Result<()> {
        self.unclamp_stuck();
        let out = self.exec_nor_cols_driven(in_rows, out_row, cols);
        self.clamp_stuck();
        out
    }

    fn exec_nor_cols_driven(
        &mut self,
        in_rows: &[usize],
        out_row: usize,
        cols: &LineSet,
    ) -> Result<()> {
        if matches!(self.engine, SimEngine::ScalarReference) {
            let idx: Vec<usize> = cols.iter(self.mem.cols()).collect();
            if self.check_on_critical {
                let cells: Vec<(usize, usize)> = idx.iter().map(|&c| (out_row, c)).collect();
                self.precheck_blocks(&cells)?;
            }
            let old: Vec<(usize, usize, bool)> = idx
                .iter()
                .map(|&c| (out_row, c, self.mem.bit(out_row, c)))
                .collect();
            self.mem.exec_nor_cols(in_rows, out_row, cols)?;
            self.stats.mem_cycles += 1;
            self.update_checks_scalar(&old);
            return Ok(());
        }
        let n = self.geom.n();
        if self.check_on_critical {
            // As in the row-parallel path: validate here only for the
            // pre-write pass; otherwise the crossbar's own validation
            // order defines the error values.
            if out_row >= n {
                return Err(XbarError::RowOutOfBounds {
                    index: out_row,
                    rows: n,
                }
                .into());
            }
            self.colmask_from_sel(cols)?;
            self.line_buf.clear();
            self.line_buf.push(out_row);
            self.fill_block_rows_from_lines();
            self.fill_block_cols_from_colmask();
            self.precheck_rect()?;
        }
        // Transpose of the row-parallel path: the gate reports its change
        // bits in row-word layout, straight into the field-row kernel's
        // input; no column mask is materialized here.
        self.mem
            .exec_nor_cols_changed(in_rows, out_row, cols, &mut self.chg_buf)?;
        self.stats.mem_cycles += 1;
        let stride = self.stride();
        let cov_base = (out_row / self.geom.m()) * stride;
        let any_covered = !cols.is_empty(n)
            && (self.fully_covered
                || cols
                    .iter(n)
                    .any(|c| self.covered_row_masks[cov_base + c / 64] >> (c % 64) & 1 != 0));
        if any_covered {
            if !self.fully_covered {
                for (chg, &cov) in self
                    .chg_buf
                    .iter_mut()
                    .zip(&self.covered_row_masks[cov_base..cov_base + stride])
                {
                    *chg &= cov;
                }
            }
            self.flip_row_changes(out_row, 0..stride);
            self.bill_critical();
        }
        Ok(())
    }

    /// Row-parallel initialization with automatic ECC maintenance (the
    /// paper's footnote 3 notes block resets could update ECC directly; the
    /// net effect is identical).
    ///
    /// # Errors
    ///
    /// Propagates MAGIC legality violations as [`CoreError::Xbar`].
    pub fn exec_init_rows(&mut self, cols: &[usize], rows: &LineSet) -> Result<()> {
        self.unclamp_stuck();
        let out = self.exec_init_rows_driven(cols, rows);
        self.clamp_stuck();
        out
    }

    fn exec_init_rows_driven(&mut self, cols: &[usize], rows: &LineSet) -> Result<()> {
        if matches!(self.engine, SimEngine::ScalarReference) {
            let idx: Vec<usize> = rows.iter(self.mem.rows()).collect();
            if self.check_on_critical {
                let mut cells = Vec::with_capacity(idx.len() * cols.len());
                for &r in &idx {
                    for &c in cols {
                        cells.push((r, c));
                    }
                }
                self.precheck_blocks(&cells)?;
            }
            let mut old = Vec::with_capacity(idx.len() * cols.len());
            for &r in &idx {
                for &c in cols {
                    old.push((r, c, self.mem.bit(r, c)));
                }
            }
            self.mem.exec_init_rows(cols, rows)?;
            self.stats.mem_cycles += 1;
            self.update_checks_scalar(&old);
            return Ok(());
        }
        self.colmask_from_cols(cols)?;
        let n = self.geom.n();
        if let Some(max) = rows.max_index(n) {
            if max >= n {
                return Err(XbarError::RowOutOfBounds {
                    index: max,
                    rows: n,
                }
                .into());
            }
        }
        if self.check_on_critical {
            self.select_row_mask(rows)?;
            self.fill_block_rows_from_mask();
            self.fill_block_cols_from_colmask();
            self.precheck_rect()?;
        }
        // An init drives every touched cell to 1, so the change mask is
        // `touched & !current`, computable (and its check-bits flippable)
        // before the write: inputs are fully validated above, making the
        // crossbar init infallible from here.
        let any_covered = self.flip_init_diffs(rows);
        self.mem.exec_init_rows(cols, rows)?;
        self.stats.mem_cycles += 1;
        if any_covered {
            self.bill_critical();
        }
        Ok(())
    }

    /// The fused word-diff pass of a row-parallel init: for every selected
    /// row, the touched covered cells currently at 0 flip their check-bits
    /// ([`ProtectedMemory::flip_row_changes`]). The selection must already
    /// be bounds-checked. Returns whether any selected row had a touched
    /// covered cell.
    fn flip_init_diffs(&mut self, rows: &LineSet) -> bool {
        let (n, m, stride) = (self.geom.n(), self.geom.m(), self.stride());
        let win = self.start_row_changes();
        let mut any_covered = false;
        for r in rows.iter(n) {
            let cov = (r / m) * stride;
            let row = self.mem.grid().row_words(r);
            let mut covered = 0u64;
            for &wi in &self.widx_buf {
                let touched = if self.fully_covered {
                    self.colmask_buf[wi]
                } else {
                    self.colmask_buf[wi] & self.covered_row_masks[cov + wi]
                };
                covered |= touched;
                self.chg_buf[wi] = touched & !row[wi];
            }
            if covered != 0 {
                any_covered = true;
                self.flip_row_changes(r, win.clone());
            }
        }
        any_covered
    }

    /// Column-parallel initialization with automatic ECC maintenance.
    ///
    /// # Errors
    ///
    /// Propagates MAGIC legality violations as [`CoreError::Xbar`].
    pub fn exec_init_cols(&mut self, rows: &[usize], cols: &LineSet) -> Result<()> {
        self.unclamp_stuck();
        let out = self.exec_init_cols_driven(rows, cols);
        self.clamp_stuck();
        out
    }

    fn exec_init_cols_driven(&mut self, rows: &[usize], cols: &LineSet) -> Result<()> {
        if matches!(self.engine, SimEngine::ScalarReference) {
            let idx: Vec<usize> = cols.iter(self.mem.cols()).collect();
            if self.check_on_critical {
                let mut cells = Vec::with_capacity(idx.len() * rows.len());
                for &c in &idx {
                    for &r in rows {
                        cells.push((r, c));
                    }
                }
                self.precheck_blocks(&cells)?;
            }
            let mut old = Vec::with_capacity(idx.len() * rows.len());
            for &c in &idx {
                for &r in rows {
                    old.push((r, c, self.mem.bit(r, c)));
                }
            }
            self.mem.exec_init_cols(rows, cols)?;
            self.stats.mem_cycles += 1;
            self.update_checks_scalar(&old);
            return Ok(());
        }
        let n = self.geom.n();
        if let Some(&r) = rows.iter().find(|&&r| r >= n) {
            return Err(XbarError::RowOutOfBounds { index: r, rows: n }.into());
        }
        self.colmask_from_sel(cols)?;
        self.line_buf.clear();
        self.line_buf.extend_from_slice(rows);
        if self.check_on_critical {
            self.fill_block_rows_from_lines();
            self.fill_block_cols_from_colmask();
            self.precheck_rect()?;
        }
        self.run_row_touching_op(|mem| mem.exec_init_cols(rows, cols))
    }

    /// Whether this machine's configuration is eligible for the fused
    /// whole-sequence executor at all (engine, coverage, geometry,
    /// checking policy) — callers use this to skip building step lists
    /// that [`ProtectedMemory::exec_steps_rows`] would decline anyway.
    pub fn supports_fused_rows(&self) -> bool {
        matches!(self.engine, SimEngine::WordParallel)
            && self.fully_covered
            && self.geom.m() <= 63
            && !self.check_on_critical
            && self.stride() <= 32
    }

    /// Fused execution of a whole step sequence over the selected rows
    /// (see [`Crossbar::exec_steps_rows`]): one pass over the rows executes
    /// every step, ECC maintenance collapses to the *net* word-diff of the
    /// touched columns (a cell toggled twice leaves its diagonal parities
    /// untouched — XOR updates cancel pairwise, so only initial-vs-final
    /// state matters), and statistics are billed per step exactly as the
    /// step-at-a-time path would.
    ///
    /// This is the compile-and-run-once convenience form: it compiles the
    /// sequence ([`ProtectedMemory::compile_fused_rows`]) and replays it
    /// single-threaded. Batch executors that replay the same program every
    /// wave cache the [`FusedProgram`] and call
    /// [`ProtectedMemory::exec_fused_rows`] directly, optionally across a
    /// worker team.
    ///
    /// Returns `Ok(false)` without touching any state when the sequence or
    /// machine configuration is ineligible — the caller then replays the
    /// steps through the per-step API, which is bit-identical (including
    /// error semantics). Eligible: word-parallel engine, every block
    /// covered, `m <= 63`, no pre-write checking, a contiguous non-empty
    /// row selection, and a sequence the crossbar can fuse.
    ///
    /// # Errors
    ///
    /// Infallible in practice; mirrors the per-step executors.
    pub fn exec_steps_rows(&mut self, steps: &[ParallelStep], rows: &LineSet) -> Result<bool> {
        self.unclamp_stuck();
        let out = self.exec_steps_rows_driven(steps, rows);
        self.clamp_stuck();
        out
    }

    fn exec_steps_rows_driven(&mut self, steps: &[ParallelStep], rows: &LineSet) -> Result<bool> {
        let n = self.geom.n();
        if !self.supports_fused_rows() {
            return Ok(false);
        }
        let range = match rows {
            LineSet::All => 0..n,
            LineSet::One(i) => *i..*i + 1,
            LineSet::Range(r) => r.clone(),
            LineSet::Explicit(_) => return Ok(false),
        };
        if range.is_empty() || range.end > n {
            return Ok(false);
        }
        match self.compile_fused_rows(steps) {
            None => Ok(false),
            Some(prog) => {
                self.exec_fused_rows(&prog, range, 1);
                Ok(true)
            }
        }
    }

    /// Compiles a step sequence into a reusable row-parallel
    /// [`FusedProgram`]: the crossbar word plan plus the ECC sweep metadata
    /// (the sequence's touched-column mask, its non-zero word indices, and
    /// the field-row window they update). Returns `None` when the machine
    /// or the sequence is ineligible for fused execution — same rules as
    /// [`ProtectedMemory::exec_steps_rows`] — in which case callers replay
    /// through the per-step API.
    pub fn compile_fused_rows(&self, steps: &[ParallelStep]) -> Option<FusedProgram> {
        if !self.supports_fused_rows() || steps.is_empty() {
            return None;
        }
        let n = self.geom.n();
        let stride = self.stride();
        let mut colmask = vec![0u64; stride];
        for step in steps {
            let cells: &[usize] = match step {
                ParallelStep::Init(cells) => cells,
                ParallelStep::Nor(_, out) => std::slice::from_ref(out),
            };
            for &c in cells {
                if c >= n {
                    return None;
                }
                colmask[c / 64] |= 1u64 << (c % 64);
            }
        }
        let plan = self.mem.compile_steps_rows(steps)?;
        let widx: Vec<usize> = (0..stride).filter(|&wi| colmask[wi] != 0).collect();
        let win = mask_window(&colmask, self.geom.m());
        Some(FusedProgram {
            kind: FusedKind::Rows {
                plan,
                colmask,
                widx,
                win,
            },
            steps: steps.len() as u64,
        })
    }

    /// Column-parallel transpose of
    /// [`ProtectedMemory::compile_fused_rows`]: step cell indices name
    /// *rows*, and the compiled program replays over a contiguous column
    /// range via [`ProtectedMemory::exec_fused_cols`]. The ECC sweep
    /// metadata lives in the crossbar plan itself (the rows the sequence
    /// writes); the touched block-columns depend on the replay range and
    /// are derived at execution time.
    pub fn compile_fused_cols(&self, steps: &[ParallelStep]) -> Option<FusedProgram> {
        if !self.supports_fused_rows() || steps.is_empty() {
            return None;
        }
        let n = self.geom.n();
        for step in steps {
            let cells: &[usize] = match step {
                ParallelStep::Init(cells) => cells,
                ParallelStep::Nor(_, out) => std::slice::from_ref(out),
            };
            if cells.iter().any(|&r| r >= n) {
                return None;
            }
        }
        let plan = self.mem.compile_steps_cols(steps)?;
        Some(FusedProgram {
            kind: FusedKind::Cols { plan },
            steps: steps.len() as u64,
        })
    }

    /// Replays a compiled row-parallel program over a contiguous row range,
    /// optionally across a team of `threads` scoped workers. The row range
    /// is split into contiguous chunks at *block-row boundaries* — a pure
    /// function of the geometry and thread count — so each worker owns
    /// disjoint plane rows **and** the disjoint CMEM field rows of its
    /// block rows, into which it XORs its rows' ECC deltas. XOR commutes,
    /// so state, statistics and check-bits are bit-identical for every
    /// thread count, including `1` (which runs inline without spawning).
    ///
    /// # Panics
    ///
    /// Panics if `prog` was compiled by
    /// [`ProtectedMemory::compile_fused_cols`], if the range is empty or
    /// out of bounds, or if the machine configuration no longer matches the
    /// compiled plan.
    pub fn exec_fused_rows(
        &mut self,
        prog: &FusedProgram,
        rows: std::ops::Range<usize>,
        threads: usize,
    ) {
        self.unclamp_stuck();
        self.exec_fused_rows_driven(prog, rows, threads);
        self.clamp_stuck();
    }

    fn exec_fused_rows_driven(
        &mut self,
        prog: &FusedProgram,
        rows: std::ops::Range<usize>,
        threads: usize,
    ) {
        let FusedKind::Rows {
            plan,
            colmask,
            widx,
            win,
        } = &prog.kind
        else {
            panic!("column-parallel program passed to exec_fused_rows");
        };
        let (n, m) = (self.geom.n(), self.geom.m());
        let stride = self.stride();
        assert!(
            !rows.is_empty() && rows.end <= n,
            "fused row range out of bounds"
        );
        debug_assert!(self.supports_fused_rows(), "machine not fused-eligible");
        let lines = rows.len() as u64;
        let per_row = widx.len();
        let first_br = rows.start / m;
        let nbrs = (rows.end - 1) / m - first_br + 1;
        self.old_buf.clear();
        self.old_buf.resize(rows.len() * per_row, 0);
        let team = threads.max(1).min(nbrs);
        let ecc = FusedRowsEcc {
            colmask,
            widx,
            win: win.clone(),
            m,
            stride,
            tables: &self.tables,
        };
        let (bits, armed) = self.mem.planes_words_mut();
        let span = rows.start * stride..rows.end * stride;
        let bits = &mut bits[span.clone()];
        let armed = &mut armed[span];
        let (lead, counter) = self.cmem.rows_mut(first_br..first_br + nbrs);
        if team <= 1 {
            fused_rows_chunk(
                plan,
                &ecc,
                bits,
                armed,
                &mut self.old_buf,
                lead,
                counter,
                rows,
            );
        } else {
            let (q, rem) = (nbrs / team, nbrs % team);
            std::thread::scope(|s| {
                let mut bits_rest = bits;
                let mut armed_rest = armed;
                let mut old_rest = &mut self.old_buf[..];
                let mut lead_rest = lead;
                let mut counter_rest = counter;
                let mut br_cursor = first_br;
                let mut row_cursor = rows.start;
                for k in 0..team {
                    let nb = q + usize::from(k < rem);
                    let row_end = rows.end.min((br_cursor + nb) * m);
                    let chunk = row_cursor..row_end;
                    let nrows = chunk.len();
                    let (b, rest) = bits_rest.split_at_mut(nrows * stride);
                    bits_rest = rest;
                    let (a, rest) = armed_rest.split_at_mut(nrows * stride);
                    armed_rest = rest;
                    let (o, rest) = old_rest.split_at_mut(nrows * per_row);
                    old_rest = rest;
                    let (l, rest) = lead_rest.split_at_mut(nb * stride);
                    lead_rest = rest;
                    let (c, rest) = counter_rest.split_at_mut(nb * stride);
                    counter_rest = rest;
                    let ecc = &ecc;
                    s.spawn(move || fused_rows_chunk(plan, ecc, b, a, o, l, c, chunk));
                    br_cursor += nb;
                    row_cursor = row_end;
                }
            });
        }
        self.mem.record_fused(plan, lines);
        let steps_n = prog.steps;
        self.stats.mem_cycles += 3 * steps_n;
        self.stats.transfer_cycles += 2 * steps_n;
        self.stats.pc_xor3_ops += 2 * steps_n;
        self.stats.critical_ops += steps_n;
    }

    /// Replays a compiled column-parallel program over a contiguous column
    /// range — the transpose of [`ProtectedMemory::exec_fused_rows`]. The
    /// ECC maintenance is the *net* row-major diff of every row the
    /// sequence writes, restricted to the column range, accumulated per
    /// block-row and flushed once per touched block.
    ///
    /// # Panics
    ///
    /// Panics if `prog` was compiled by
    /// [`ProtectedMemory::compile_fused_rows`], if the range is empty or
    /// out of bounds, or if the machine configuration no longer matches the
    /// compiled plan.
    pub fn exec_fused_cols(&mut self, prog: &FusedProgram, cols: std::ops::Range<usize>) {
        self.unclamp_stuck();
        self.exec_fused_cols_driven(prog, cols);
        self.clamp_stuck();
    }

    fn exec_fused_cols_driven(&mut self, prog: &FusedProgram, cols: std::ops::Range<usize>) {
        let FusedKind::Cols { plan } = &prog.kind else {
            panic!("row-parallel program passed to exec_fused_cols");
        };
        let (n, m) = (self.geom.n(), self.geom.m());
        assert!(
            !cols.is_empty() && cols.end <= n,
            "fused column range out of bounds"
        );
        debug_assert!(self.supports_fused_rows(), "machine not fused-eligible");
        // Word mask of the column range.
        let (w0, w1) = (cols.start / 64, (cols.end - 1) / 64);
        let nwords = w1 - w0 + 1;
        let mut mask = [0u64; MAX_FUSED_STRIDE];
        set_word_range(
            &mut mask[..nwords],
            cols.start - w0 * 64..cols.end - w0 * 64,
        );
        // Snapshot the in-range words of every row the sequence writes.
        self.old_buf.clear();
        for r in plan.touched_lines() {
            self.old_buf
                .extend_from_slice(&self.mem.grid().row_words(r)[w0..=w1]);
        }
        self.mem.exec_fused_cols(plan, cols.clone());
        let steps_n = prog.steps;
        self.stats.mem_cycles += 3 * steps_n;
        self.stats.transfer_cycles += 2 * steps_n;
        self.stats.pc_xor3_ops += 2 * steps_n;
        self.stats.critical_ops += steps_n;
        // Net ECC: each written row's diff over the column range.
        self.chg_buf.clear();
        self.chg_buf.resize(self.stride(), 0);
        let win = field_window(cols.start, cols.end - 1, m);
        for (ti, r) in plan.touched_lines().enumerate() {
            let row = self.mem.grid().row_words(r);
            let old = &self.old_buf[ti * nwords..(ti + 1) * nwords];
            for (k, w) in (w0..=w1).enumerate() {
                self.chg_buf[w] = (row[w] ^ old[k]) & mask[k];
            }
            self.flip_row_changes(r, win.clone());
        }
    }

    /// Bills `lines` driven-line writes into covered blocks: one MEM cycle
    /// each plus the critical-operation protocol — the account of
    /// `lines` calls to [`ProtectedMemory::write_row_cells`] or
    /// [`ProtectedMemory::write_col_cells`].
    fn bill_driven_lines(&mut self, lines: u64) {
        self.stats.mem_cycles += 3 * lines;
        self.stats.transfer_cycles += 2 * lines;
        self.stats.pc_xor3_ops += 2 * lines;
        self.stats.critical_ops += lines;
    }

    /// Stores the masked words `vals`/`mask` into row `r` (the zero-cycle
    /// masked write) and flips the check-bits of the cells that changed —
    /// the per-row body of both batched writers. Requires the fused word
    /// path (`m <= 63`, `stride <= MAX_FUSED_STRIDE`, full coverage).
    fn drive_row_words(&mut self, r: usize, vals: &[u64], mask: &[u64]) {
        let (m, stride) = (self.geom.m(), self.stride());
        let mut chg = [0u64; MAX_FUSED_STRIDE];
        let mut changed = 0u64;
        let row = self.mem.grid().row_words(r);
        for wi in 0..stride {
            chg[wi] = (row[wi] ^ vals[wi]) & mask[wi];
            changed |= chg[wi];
        }
        self.mem.write_row_words_masked(r, vals, mask);
        if changed == 0 {
            return;
        }
        let (lead, counter) = self.cmem.rows_mut(r / m..r / m + 1);
        let win = mask_window(mask, m);
        xor_row_fields(lead, counter, &chg[..stride], r % m, m, &self.tables, win);
    }

    /// Batched word-plane form of [`ProtectedMemory::write_row_cells`]:
    /// drives every listed row in one sweep, its load already packed into
    /// row-major bit planes — word `w` of row `r` lives at `r * stride + w`
    /// of `masks`/`vals` — instead of a sparse `(col, bool)` list. Every
    /// set `vals` bit must have its `masks` bit set. Listed rows with an
    /// all-zero mask are not driven (and not billed), exactly like an empty
    /// cell list. The listed rows' plane words are restored to zero, so a
    /// caller can reuse the planes allocation-free; unlisted rows' words
    /// are neither read nor cleared. State and statistics are bit-identical
    /// to one `write_row_cells` per listed row.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] if a listed row is out of range or a mask
    /// sets a bit at column `>= n` (nothing written).
    ///
    /// # Panics
    ///
    /// Panics if the machine is not on the fused word path (callers gate on
    /// [`ProtectedMemory::supports_fused_rows`]) or the planes are shorter
    /// than `n * stride` words.
    pub fn write_rows_words_batched(
        &mut self,
        lines: &[usize],
        masks: &mut [u64],
        vals: &mut [u64],
    ) -> Result<()> {
        self.unclamp_stuck();
        let out = self.write_rows_words_batched_driven(lines, masks, vals);
        self.clamp_stuck();
        out
    }

    fn write_rows_words_batched_driven(
        &mut self,
        lines: &[usize],
        masks: &mut [u64],
        vals: &mut [u64],
    ) -> Result<()> {
        assert!(
            self.supports_fused_rows(),
            "word-plane writes require the fused word path"
        );
        let (n, stride) = (self.geom.n(), self.stride());
        let tail_keep = match n % 64 {
            0 => u64::MAX,
            t => (1u64 << t) - 1,
        };
        let mut driven = 0u64;
        for &r in lines {
            if r >= n {
                return Err(CoreError::OutOfBounds { row: r, col: 0, n });
            }
            if masks[r * stride + stride - 1] & !tail_keep != 0 {
                return Err(CoreError::OutOfBounds { row: r, col: n, n });
            }
            if masks[r * stride..(r + 1) * stride].iter().any(|&w| w != 0) {
                driven += 1;
            }
        }
        self.bill_driven_lines(driven);
        for &r in lines {
            let span = r * stride..(r + 1) * stride;
            if masks[span.clone()].iter().all(|&w| w == 0) {
                continue;
            }
            self.drive_row_words(r, &vals[span.clone()], &masks[span.clone()]);
            masks[span.clone()].fill(0);
            vals[span].fill(0);
        }
        Ok(())
    }

    /// Batched word-plane form of [`ProtectedMemory::write_col_cells`]:
    /// the loads arrive packed into *column-major* bit planes — word `rw`
    /// of column `c` (covering rows `64·rw ..`) lives at `c * stride + rw`
    /// — and the sweep transposes them 64×64 tile by tile into the
    /// row-major staging planes before driving each touched row once.
    /// Every set `vals` bit must have its `masks` bit set. Listed columns
    /// with an all-zero mask are not driven (and not billed). The listed
    /// columns' plane words are restored to zero; unlisted columns' words
    /// are neither read nor cleared. State and statistics are bit-identical
    /// to one `write_col_cells` per listed column.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] if a listed column is out of range or a
    /// mask sets a bit at row `>= n` (nothing written).
    ///
    /// # Panics
    ///
    /// Panics if the machine is not on the fused word path (callers gate on
    /// [`ProtectedMemory::supports_fused_rows`]) or the planes are shorter
    /// than `n * stride` words.
    pub fn write_cols_words_batched(
        &mut self,
        lines: &[usize],
        masks: &mut [u64],
        vals: &mut [u64],
    ) -> Result<()> {
        self.unclamp_stuck();
        let out = self.write_cols_words_batched_driven(lines, masks, vals);
        self.clamp_stuck();
        out
    }

    fn write_cols_words_batched_driven(
        &mut self,
        lines: &[usize],
        masks: &mut [u64],
        vals: &mut [u64],
    ) -> Result<()> {
        assert!(
            self.supports_fused_rows(),
            "word-plane writes require the fused word path"
        );
        let (n, stride) = (self.geom.n(), self.stride());
        let tail_keep = match n % 64 {
            0 => u64::MAX,
            t => (1u64 << t) - 1,
        };
        let mut listed = [0u64; MAX_FUSED_STRIDE];
        let mut driven = 0u64;
        for &c in lines {
            if c >= n {
                return Err(CoreError::OutOfBounds { row: 0, col: c, n });
            }
            if masks[c * stride + stride - 1] & !tail_keep != 0 {
                return Err(CoreError::OutOfBounds { row: n, col: c, n });
            }
            listed[c / 64] |= 1u64 << (c % 64);
            if masks[c * stride..(c + 1) * stride].iter().any(|&w| w != 0) {
                driven += 1;
            }
        }
        self.stage_val.resize(n * stride, 0);
        self.stage_msk.resize(n * stride, 0);
        self.stage_rows.resize(n.div_ceil(64), 0);
        // Transpose the listed columns' planes into row-major staging, one
        // 64×64 tile at a time; their plane words are zeroed as they are
        // consumed.
        for (cw, &pick) in listed.iter().enumerate().take(stride) {
            if pick == 0 {
                continue;
            }
            for rw in 0..stride {
                let mut mt = [0u64; 64];
                let mut vt = [0u64; 64];
                let mut any = 0u64;
                let mut cols = pick;
                while cols != 0 {
                    let i = cols.trailing_zeros() as usize;
                    cols &= cols - 1;
                    let base = (cw * 64 + i) * stride + rw;
                    mt[i] = masks[base];
                    vt[i] = vals[base];
                    any |= mt[i];
                    masks[base] = 0;
                    vals[base] = 0;
                }
                if any == 0 {
                    continue;
                }
                transpose64(&mut mt);
                transpose64(&mut vt);
                for (j, (&mw, &vw)) in mt.iter().zip(vt.iter()).enumerate() {
                    if mw == 0 {
                        continue;
                    }
                    let r = rw * 64 + j;
                    let base = r * stride + cw;
                    self.stage_msk[base] |= mw;
                    self.stage_val[base] |= vw & mw;
                    self.stage_rows[r / 64] |= 1u64 << (r % 64);
                }
            }
        }
        // Per-column billing, exactly as `write_col_cells`.
        self.bill_driven_lines(driven);
        // Drive every staged row once, restoring the staging planes to zero.
        for rw in 0..self.stage_rows.len() {
            let mut staged = std::mem::take(&mut self.stage_rows[rw]);
            while staged != 0 {
                let r = rw * 64 + staged.trailing_zeros() as usize;
                staged &= staged - 1;
                let span = r * stride..(r + 1) * stride;
                let mut cm = [0u64; MAX_FUSED_STRIDE];
                let mut nv = [0u64; MAX_FUSED_STRIDE];
                cm[..stride].copy_from_slice(&self.stage_msk[span.clone()]);
                nv[..stride].copy_from_slice(&self.stage_val[span.clone()]);
                self.stage_msk[span.clone()].fill(0);
                self.stage_val[span].fill(0);
                self.drive_row_words(r, &nv[..stride], &cm[..stride]);
            }
        }
        Ok(())
    }

    /// Resets an entire block to LRS (all ones) and writes its check-bits
    /// *directly* instead of running the XOR3 protocol per cell — the
    /// paper's footnote 3 fast path ("when resetting an entire block then
    /// the block's ECC can also be reset directly"). Costs m init cycles
    /// on the MEM plus one CMEM write, versus m·m critical-op protocols.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] on bad block indices; MAGIC errors are
    /// impossible for an init.
    pub fn reset_block(&mut self, block_row: usize, block_col: usize) -> Result<()> {
        self.unclamp_stuck();
        let out = self.reset_block_driven(block_row, block_col);
        self.clamp_stuck();
        out
    }

    fn reset_block_driven(&mut self, block_row: usize, block_col: usize) -> Result<()> {
        self.block_in_bounds(block_row, block_col)?;
        self.unverify(block_row, block_col);
        let m = self.geom.m();
        let cols: Vec<usize> = (block_col * m..(block_col + 1) * m).collect();
        // m parallel row-inits sweep the block (one per row of the block).
        for r in block_row * m..(block_row + 1) * m {
            self.mem.exec_init_rows(&cols, &LineSet::One(r))?;
        }
        self.stats.mem_cycles += m as u64;
        if self.covered[self.block_index(block_row, block_col)] {
            // All-ones block: every diagonal holds m ones, and m is odd,
            // so every parity bit is 1.
            let ones = vec![true; m];
            self.cmem
                .store_block_checks(block_row, block_col, &ones, &ones);
            self.stats.transfer_cycles += 1;
        }
        Ok(())
    }

    /// Flips a data memristor without the controller noticing — a soft
    /// error. A cell pinned by [`ProtectedMemory::set_stuck`] cannot be
    /// flipped; the strike is absorbed by the wedged state.
    pub fn inject_fault(&mut self, r: usize, c: usize) {
        if self.is_stuck(r, c) {
            return;
        }
        let (br, bc) = self.geom.block_of(r, c);
        self.unverify(br, bc);
        self.mem.flip_bit(r, c);
    }

    /// Pins cell `(r, c)` of the MEM at `value` — a permanent stuck-at
    /// fault from endurance wear-out. From this point on, every driven
    /// operation behaves as if the write succeeded (the check-bits keep
    /// encoding the intended data), but the stored bit stays wedged: any
    /// check of the block re-detects the mismatch whenever the intended
    /// value differs, and the correction write-back is refused (read-back
    /// disagrees), reclassifying the verdict as uncorrectable. Scrubbing
    /// never re-bases a block holding a pinned cell, so the evidence
    /// persists until a layer above retires the line.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn set_stuck(&mut self, r: usize, c: usize, value: bool) {
        let n = self.geom.n();
        assert!(r < n && c < n, "stuck cell ({r},{c}) outside {n}x{n}");
        let (br, bc) = self.geom.block_of(r, c);
        self.unverify(br, bc);
        match self.stuck.binary_search_by_key(&(r, c), |s| (s.row, s.col)) {
            Ok(i) => self.stuck[i].value = value,
            Err(i) => {
                let intended = self.mem.bit(r, c);
                self.stuck.insert(
                    i,
                    StuckCell {
                        row: r,
                        col: c,
                        value,
                        intended,
                    },
                );
            }
        }
        self.mem.force_bit(r, c, value);
    }

    /// The stuck-at fault plane, sorted by `(row, col)`.
    pub fn stuck_cells(&self) -> &[StuckCell] {
        &self.stuck
    }

    /// Whether any cell is pinned.
    pub fn has_stuck_cells(&self) -> bool {
        !self.stuck.is_empty()
    }

    /// Whether block-row `block_row` holds a pinned cell — the gate for a
    /// targeted post-execution check (in this model, only the fault plane
    /// can make freshly driven data disagree with its check-bits).
    pub fn block_row_has_stuck(&self, block_row: usize) -> bool {
        let m = self.geom.m();
        self.stuck.iter().any(|s| s.row / m == block_row)
    }

    /// Column transpose of [`ProtectedMemory::block_row_has_stuck`].
    pub fn block_col_has_stuck(&self, block_col: usize) -> bool {
        let m = self.geom.m();
        self.stuck.iter().any(|s| s.col / m == block_col)
    }

    fn is_stuck(&self, r: usize, c: usize) -> bool {
        !self.stuck.is_empty()
            && self
                .stuck
                .binary_search_by_key(&(r, c), |s| (s.row, s.col))
                .is_ok()
    }

    fn block_has_stuck(&self, br: usize, bc: usize) -> bool {
        let m = self.geom.m();
        self.stuck
            .iter()
            .any(|s| s.row / m == br && s.col / m == bc)
    }

    /// Restores the controller's intended values into the grid for the
    /// duration of one driven operation: the diff-maintained check-bits
    /// must see the driven old state, and gate dynamics compute on driven
    /// values. No-op while the plane is already lifted (re-entrant callers)
    /// or empty.
    fn unclamp_stuck(&mut self) {
        if self.stuck.is_empty() || !self.stuck_clamped {
            return;
        }
        self.stuck_clamped = false;
        for i in 0..self.stuck.len() {
            let s = self.stuck[i];
            self.mem.force_bit(s.row, s.col, s.intended);
        }
    }

    /// Re-asserts the fault plane after a driven operation: records what
    /// the operation drove into each pinned cell (the new intended value
    /// the check-bits now encode) and wedges the stored bit back at the
    /// stuck value.
    fn clamp_stuck(&mut self) {
        if self.stuck.is_empty() || self.stuck_clamped {
            return;
        }
        self.stuck_clamped = true;
        for i in 0..self.stuck.len() {
            let (r, c) = (self.stuck[i].row, self.stuck[i].col);
            let driven = self.mem.bit(r, c);
            self.stuck[i].intended = driven;
            if driven != self.stuck[i].value {
                let v = self.stuck[i].value;
                self.mem.force_bit(r, c, v);
            }
        }
    }

    /// Flips a check-bit memristor — a soft error striking the CMEM.
    pub fn inject_check_fault(
        &mut self,
        family: Family,
        d: usize,
        block_row: usize,
        block_col: usize,
    ) {
        self.cmem.inject_fault(family, d, block_row, block_col);
        self.unverify(block_row, block_col);
    }

    /// Checks (and repairs) one covered block. Returns what was found.
    /// Uncovered blocks report [`ErrorLocation::None`] without inspection.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] on bad block indices.
    pub fn check_block(&mut self, block_row: usize, block_col: usize) -> Result<ErrorLocation> {
        self.uncorrectable.clear();
        self.check_block_at(block_row, block_col)
    }

    /// The blocks the most recent check left uncorrectable, in check order:
    /// one entry per uncorrectable verdict it billed. A check is one call
    /// of [`ProtectedMemory::check_block`],
    /// [`ProtectedMemory::check_block_row`],
    /// [`ProtectedMemory::check_block_col`], [`ProtectedMemory::check_all`]
    /// or [`ProtectedMemory::check_all_cols`], or one critical operation's
    /// pre-write pass (see [`ProtectedMemory::set_check_on_critical`]). A
    /// sweep's findings are localized from this list, without a second
    /// check.
    pub fn uncorrectable_blocks(&self) -> &[(usize, usize)] {
        &self.uncorrectable
    }

    /// [`ProtectedMemory::check_block`] within the running check (the
    /// [`ProtectedMemory::uncorrectable_blocks`] list is kept).
    fn check_block_at(&mut self, block_row: usize, block_col: usize) -> Result<ErrorLocation> {
        self.block_in_bounds(block_row, block_col)?;
        Ok(self.check_one(block_row, block_col))
    }

    /// Checks one in-bounds block with the checker the engine selects.
    fn check_one(&mut self, block_row: usize, block_col: usize) -> ErrorLocation {
        if !self.covered[self.block_index(block_row, block_col)] {
            return ErrorLocation::None;
        }
        if self.word_blocks() {
            return self.check_block_word(block_row, block_col);
        }
        let m = self.geom.m();
        let mut block = self.extract_block(block_row, block_col);
        let mut lead = self
            .cmem
            .block_checks(Family::Leading, block_row, block_col);
        let mut counter = self
            .cmem
            .block_checks(Family::Counter, block_row, block_col);
        let mut loc = self.code.correct(&mut block, &mut lead, &mut counter);
        self.stats.blocks_checked += 1;
        match loc {
            ErrorLocation::None => {}
            ErrorLocation::Uncorrectable => self.bill_uncorrectable(block_row, block_col),
            ErrorLocation::Data {
                local_row,
                local_col,
            } => {
                // Drive the corrected value back into the MEM.
                let (r, c) = (block_row * m + local_row, block_col * m + local_col);
                self.stats.mem_cycles += 1;
                if self.is_stuck(r, c) {
                    // The write-back pulse cannot switch a wedged cell —
                    // read-back disagrees, so the block is beyond this
                    // code's repair.
                    self.bill_uncorrectable(block_row, block_col);
                    loc = ErrorLocation::Uncorrectable;
                } else {
                    self.mem.write_bit(r, c, block.get(local_row, local_col));
                    self.stats.errors_corrected += 1;
                }
            }
            ErrorLocation::LeadingCheck { .. } | ErrorLocation::CounterCheck { .. } => {
                self.cmem
                    .store_block_checks(block_row, block_col, &lead, &counter);
                self.stats.errors_corrected += 1;
            }
        }
        loc
    }

    /// Word-path [`ProtectedMemory::check_block`]: a verified block answers
    /// clean as it stands; any other block's fields are recomputed in
    /// rotation order and compared with the stored ones
    /// ([`ProtectedMemory::resolve_block`]).
    fn check_block_word(&mut self, block_row: usize, block_col: usize) -> ErrorLocation {
        self.stats.blocks_checked += 1;
        if self.is_verified(block_row, block_col) {
            return ErrorLocation::None;
        }
        self.fill_block_rows(block_row, block_col);
        let (lead, q) = self.code.encode_fields(&self.blockrow_buf);
        let loc = self.resolve_block(block_row, block_col, lead, q);
        self.mark_checked(block_row, block_col, loc);
        loc
    }

    /// Compares one block's freshly computed fields `(lead, q)` (rotation
    /// order, see [`CheckMemory`]) with the stored ones and applies the
    /// single-error correction the syndrome calls for. The counter
    /// syndrome is reversed into diagonal order only when it is non-zero.
    /// Statistics match the scalar checker exactly. Returns the location
    /// acted upon.
    fn resolve_block(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead: u64,
        q: u64,
    ) -> ErrorLocation {
        let (stored_lead, stored_q) = self.cmem.fields(block_row, block_col);
        let syn_lead = lead ^ stored_lead;
        if syn_lead | (q ^ stored_q) == 0 {
            return ErrorLocation::None;
        }
        let m = self.geom.m();
        let syn_counter = rev_m(q ^ stored_q, m);
        let loc = match (syn_lead.count_ones(), syn_counter.count_ones()) {
            (1, 1) => {
                let (local_row, local_col) = self.geom.locate(
                    syn_lead.trailing_zeros() as usize,
                    syn_counter.trailing_zeros() as usize,
                );
                let (r, c) = (block_row * m + local_row, block_col * m + local_col);
                self.stats.mem_cycles += 1;
                if self.is_stuck(r, c) {
                    // Write-back refused by the wedged cell (see the
                    // scalar checker): reclassify as uncorrectable.
                    ErrorLocation::Uncorrectable
                } else {
                    let corrected = !self.mem.bit(r, c);
                    self.mem.write_bit(r, c, corrected);
                    ErrorLocation::Data {
                        local_row,
                        local_col,
                    }
                }
            }
            (1, 0) => {
                let diagonal = syn_lead.trailing_zeros() as usize;
                let value = lead >> diagonal & 1 != 0;
                self.cmem
                    .set_bit(Family::Leading, diagonal, block_row, block_col, value);
                ErrorLocation::LeadingCheck { diagonal }
            }
            (0, 1) => {
                let diagonal = syn_counter.trailing_zeros() as usize;
                let value = q >> (m - 1 - diagonal) & 1 != 0;
                self.cmem
                    .set_bit(Family::Counter, diagonal, block_row, block_col, value);
                ErrorLocation::CounterCheck { diagonal }
            }
            _ => ErrorLocation::Uncorrectable,
        };
        if loc == ErrorLocation::Uncorrectable {
            self.bill_uncorrectable(block_row, block_col);
        } else {
            self.stats.errors_corrected += 1;
        }
        loc
    }

    /// Counts an uncorrectable verdict on one block and lists the block in
    /// [`ProtectedMemory::uncorrectable_blocks`].
    fn bill_uncorrectable(&mut self, block_row: usize, block_col: usize) {
        self.stats.errors_uncorrectable += 1;
        self.uncorrectable.push((block_row, block_col));
    }

    /// Whether block `(block_row, block_col)` is in the verified map.
    fn is_verified(&self, block_row: usize, block_col: usize) -> bool {
        let i = self.block_index(block_row, block_col);
        self.verified[i / 64] >> (i % 64) & 1 != 0
    }

    /// Drops one block from the verified map.
    fn unverify(&mut self, block_row: usize, block_col: usize) {
        let i = self.block_index(block_row, block_col);
        self.verified[i / 64] &= !(1u64 << (i % 64));
    }

    /// Records a computed check of one block in the verified map: a block
    /// the check left consistent (clean or corrected) is verified unless it
    /// holds a stuck cell, whose clamping desynchronizes it again after
    /// every write.
    fn mark_checked(&mut self, block_row: usize, block_col: usize, loc: ErrorLocation) {
        if loc != ErrorLocation::Uncorrectable && !self.block_has_stuck(block_row, block_col) {
            let i = self.block_index(block_row, block_col);
            self.verified[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Checks a whole row of blocks — the paper's pre-execution input check
    /// (§IV: the row is copied into the CMEM datapath in m MAGIC NOT
    /// cycles, reduced by XOR3 trees, and compared in the checking
    /// crossbar). The word engine does not recompute blocks the verified
    /// map vouches for (see [`ProtectedMemory`]); they are still billed and
    /// reported as checked.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] on a bad block-row index.
    pub fn check_block_row(&mut self, block_row: usize) -> Result<CheckReport> {
        self.uncorrectable.clear();
        self.check_line(LineAxis::Row, block_row)
    }

    /// Transpose of [`ProtectedMemory::check_block_row`]: checks a whole
    /// column of blocks, the pre-execution input check for
    /// *column-parallel* functions (the paper's §IV "row (column)"
    /// symmetry, enabled by the per-family barrel shifters). The word
    /// engine skips verified blocks here too, billing them as checked.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfBounds`] on a bad block-column index.
    pub fn check_block_col(&mut self, block_col: usize) -> Result<CheckReport> {
        self.uncorrectable.clear();
        self.check_line(LineAxis::Col, block_col)
    }

    /// The axis-generic body of [`ProtectedMemory::check_block_row`] /
    /// [`ProtectedMemory::check_block_col`]: one billed block-line check,
    /// swept whole on the fully covered word path and block by block
    /// otherwise.
    fn check_line(&mut self, axis: LineAxis, line: usize) -> Result<CheckReport> {
        let (n, m, bps) = (self.geom.n(), self.geom.m(), self.geom.blocks_per_side());
        if line >= bps {
            let (row, col) = axis.cell(line * m, 0);
            return Err(CoreError::OutOfBounds { row, col, n });
        }
        self.bill_block_line_check();
        if self.word_blocks() && self.fully_covered {
            return Ok(match axis {
                LineAxis::Row => self.check_block_row_sweep(line),
                LineAxis::Col => self.check_block_col_sweep(line),
            });
        }
        let mut report = CheckReport::default();
        for cross in 0..bps {
            let (br, bc) = axis.cell(line, cross);
            let loc = self.check_one(br, bc);
            report.checked += 1;
            tally(&mut report, loc);
        }
        Ok(report)
    }

    /// Recomputes the fields of every block of one block row into
    /// `acc_lead`/`acc_q`, laid out like the CMEM's field rows: each of the
    /// block row's `m` MEM rows is read once and folded in by
    /// [`xor_row_fields`], the kernel that also maintains the check-bits.
    /// Requires `m <= 63`.
    fn sweep_block_row(&mut self, block_row: usize) {
        let (m, stride) = (self.geom.m(), self.stride());
        self.acc_lead.clear();
        self.acc_lead.resize(stride, 0);
        self.acc_q.clear();
        self.acc_q.resize(stride, 0);
        let grid = self.mem.grid();
        for lr in 0..m {
            let row = grid.row_words(block_row * m + lr);
            xor_row_fields(
                &mut self.acc_lead,
                &mut self.acc_q,
                row,
                lr,
                m,
                &self.tables,
                0..stride,
            );
        }
    }

    /// Fully-covered word-path check of one block row. A fully verified
    /// row answers clean without reading it. Otherwise every block's fields
    /// are recomputed at once ([`ProtectedMemory::sweep_block_row`]),
    /// compared with the CMEM's field rows word by word, and only the
    /// blocks whose fields differ are resolved; the row is then re-marked
    /// in the verified map. Outcome, reports and statistics are identical
    /// to checking block by block — the per-cell parity contributions are
    /// the same XORs, corrections are block-local, and mismatching blocks
    /// are resolved in ascending order.
    fn check_block_row_sweep(&mut self, block_row: usize) -> CheckReport {
        let (m, bps) = (self.geom.m(), self.geom.blocks_per_side());
        let mut report = CheckReport {
            checked: bps,
            ..CheckReport::default()
        };
        self.stats.blocks_checked += bps as u64;
        let blocks = block_row * bps..(block_row + 1) * bps;
        if all_set(&self.verified, blocks.clone()) {
            return report;
        }
        self.sweep_block_row(block_row);
        self.mismatch_buf.clear();
        let (lead, counter) = self.cmem.rows(block_row);
        for w in 0..lead.len() {
            let mut diff = (lead[w] ^ self.acc_lead[w]) | (counter[w] ^ self.acc_q[w]);
            while diff != 0 {
                let bc = (w * 64 + diff.trailing_zeros() as usize) / m;
                diff &= diff - 1;
                if self.mismatch_buf.last() != Some(&bc) {
                    self.mismatch_buf.push(bc);
                }
            }
        }
        // The sweep leaves every block consistent except the uncorrectable
        // ones and those holding a stuck cell.
        set_word_range(&mut self.verified, blocks);
        for i in 0..self.mismatch_buf.len() {
            let bc = self.mismatch_buf[i];
            let (lead, q) = (
                field(&self.acc_lead, bc * m, m),
                field(&self.acc_q, bc * m, m),
            );
            let loc = self.resolve_block(block_row, bc, lead, q);
            if loc == ErrorLocation::Uncorrectable {
                self.unverify(block_row, bc);
            }
            tally(&mut report, loc);
        }
        for i in 0..self.stuck.len() {
            let s = self.stuck[i];
            if s.row / m == block_row {
                self.unverify(block_row, s.col / m);
            }
        }
        report
    }

    /// Column transpose of [`ProtectedMemory::check_block_row_sweep`]: the
    /// blocks of one block column share their field position, so each
    /// unverified block's fields come straight off its `m` row words in
    /// rotation order and are compared without any bit reversal.
    fn check_block_col_sweep(&mut self, block_col: usize) -> CheckReport {
        let (m, bps) = (self.geom.m(), self.geom.blocks_per_side());
        let mmask = (1u64 << m) - 1;
        let p = block_col * m;
        let mut report = CheckReport {
            checked: bps,
            ..CheckReport::default()
        };
        self.stats.blocks_checked += bps as u64;
        for br in 0..bps {
            if self.is_verified(br, block_col) {
                continue;
            }
            let (mut lead, mut q) = (0u64, 0u64);
            let grid = self.mem.grid();
            for lr in 0..m {
                let seg = field(grid.row_words(br * m + lr), p, m);
                lead ^= rotl_m(seg, lr, m, mmask);
                q ^= rotl_m(seg, m - 1 - lr, m, mmask);
            }
            let loc = self.resolve_block(br, block_col, lead, q);
            tally(&mut report, loc);
            self.mark_checked(br, block_col, loc);
        }
        report
    }

    /// Bills the datapath cost of one block-line check: m copy cycles
    /// through the shifters plus the ceil-by-3 XOR3 reduction tree per
    /// family.
    fn bill_block_line_check(&mut self) {
        self.stats.mem_cycles += self.geom.m() as u64;
        self.stats.transfer_cycles += self.geom.m() as u64;
        let mut ops = self.geom.m();
        let mut xor3 = 0u64;
        while ops > 1 {
            let stage = ops.div_ceil(3);
            xor3 += stage as u64;
            ops = stage;
        }
        self.stats.pc_xor3_ops += 2 * xor3;
    }

    /// The periodic full-memory check: every covered block is verified and
    /// single errors repaired.
    ///
    /// # Errors
    ///
    /// Infallible in practice; mirrors [`ProtectedMemory::check_block_row`].
    pub fn check_all(&mut self) -> Result<CheckReport> {
        self.uncorrectable.clear();
        let mut total = CheckReport::default();
        for br in 0..self.geom.blocks_per_side() {
            total += self.check_line(LineAxis::Row, br)?;
        }
        Ok(total)
    }

    /// Column-axis variant of [`ProtectedMemory::check_all`]: checks every
    /// block column, as a column-parallel wave does before execution.
    /// Checking all `bps` block columns visits exactly the same block set
    /// as checking all block rows, every check is block-local, and the
    /// datapath bill is the same `bps` line checks — so on the
    /// fully-covered word path this sweeps block *rows* instead, reading
    /// each MEM row once rather than once per column.
    ///
    /// # Errors
    ///
    /// Infallible in practice; mirrors [`ProtectedMemory::check_block_col`].
    pub fn check_all_cols(&mut self) -> Result<CheckReport> {
        self.uncorrectable.clear();
        let axis = if self.word_blocks() && self.fully_covered {
            LineAxis::Row
        } else {
            LineAxis::Col
        };
        let mut total = CheckReport::default();
        for line in 0..self.geom.blocks_per_side() {
            total += self.check_line(axis, line)?;
        }
        Ok(total)
    }

    /// Scrub: re-encodes every covered block's check-bits from the current
    /// data — the write-with-ECC sweep a refresh cycle performs. Unlike
    /// [`ProtectedMemory::check_all`] this does not *correct* anything; it
    /// re-bases the code on whatever the data now holds, clearing any
    /// stale parity left by the §III false-positive window.
    pub fn scrub(&mut self) {
        // A block holding a pinned cell is never re-based: the stored data
        // there is not what the controller drove, and absorbing the wedged
        // value would blind every later check to the hard fault.
        for br in 0..self.geom.blocks_per_side() {
            self.reencode_block_row(br, true);
        }
        // Cost: every row is read and re-encoded once.
        self.stats.mem_cycles += self.geom.n() as u64;
        self.stats.transfer_cycles += self.geom.n() as u64;
    }

    /// Re-encodes one block row's check-bits from current data — the
    /// targeted scrub a device runs right after an uncorrectable verdict,
    /// so multi-bit transient residue cannot later masquerade as a single
    /// correctable error and be "corrected" into consistent garbage.
    /// Blocks holding pinned cells are skipped, as in
    /// [`ProtectedMemory::scrub`].
    pub fn scrub_block_row(&mut self, block_row: usize) {
        self.reencode_block_row(block_row, true);
        // Cost: the block row's m MEM rows are read and re-encoded once.
        self.stats.mem_cycles += self.geom.m() as u64;
        self.stats.transfer_cycles += self.geom.m() as u64;
    }

    /// Column transpose of [`ProtectedMemory::scrub_block_row`].
    pub fn scrub_block_col(&mut self, block_col: usize) {
        let bps = self.geom.blocks_per_side();
        for br in 0..bps {
            if !self.covered[self.block_index(br, block_col)] || self.block_has_stuck(br, block_col)
            {
                continue;
            }
            self.reencode_block(br, block_col);
        }
        self.stats.mem_cycles += self.geom.m() as u64;
        self.stats.transfer_cycles += self.geom.m() as u64;
    }

    /// Test oracle: recomputes every covered block's parity from the data
    /// and compares to the stored check-bits, at zero model cost.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent block.
    pub fn verify_consistency(&self) -> std::result::Result<(), String> {
        let bps = self.geom.blocks_per_side();
        if self.word_blocks() {
            let m = self.geom.m();
            let mut rows = vec![0u64; m];
            for br in 0..bps {
                for bc in 0..bps {
                    // Blocks holding pinned cells are legitimately
                    // inconsistent: the oracle cannot demand agreement from
                    // a cell physics wedged.
                    if !self.covered[self.block_index(br, bc)] || self.block_has_stuck(br, bc) {
                        continue;
                    }
                    for (lr, w) in rows.iter_mut().enumerate() {
                        *w = self.mem.grid().extract_bits(br * m + lr, bc * m, m);
                    }
                    let (l, k) = self.code.encode_words(&rows);
                    if l != self.cmem.block_checks_word(Family::Leading, br, bc) {
                        return Err(format!("block ({br},{bc}) leading checks inconsistent"));
                    }
                    if k != self.cmem.block_checks_word(Family::Counter, br, bc) {
                        return Err(format!("block ({br},{bc}) counter checks inconsistent"));
                    }
                }
            }
            return Ok(());
        }
        for br in 0..bps {
            for bc in 0..bps {
                if !self.covered[self.block_index(br, bc)] || self.block_has_stuck(br, bc) {
                    continue;
                }
                let block = self.extract_block(br, bc);
                let (l, k) = self.code.encode(&block);
                if l != self.cmem.block_checks(Family::Leading, br, bc) {
                    return Err(format!("block ({br},{bc}) leading checks inconsistent"));
                }
                if k != self.cmem.block_checks(Family::Counter, br, bc) {
                    return Err(format!("block ({br},{bc}) counter checks inconsistent"));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ProtectedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedMemory")
            .field("geom", &self.geom)
            .field("engine", &self.engine)
            .field("check_on_critical", &self.check_on_critical)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A step sequence compiled once for repeated fused replay against one
/// machine configuration: the crossbar word plan plus the ECC sweep
/// metadata. Produced by [`ProtectedMemory::compile_fused_rows`] /
/// [`ProtectedMemory::compile_fused_cols`]; batch executors cache one per
/// (program, placement, axis) and replay it every wave via
/// [`ProtectedMemory::exec_fused_rows`] /
/// [`ProtectedMemory::exec_fused_cols`].
#[derive(Clone)]
pub struct FusedProgram {
    kind: FusedKind,
    steps: u64,
}

// Programs are compiled once and cached per (program, placement, axis);
// the size gap between the variants never moves per wave.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum FusedKind {
    Rows {
        plan: FusedRowsPlan,
        /// Touched-column mask of the whole sequence, one word per stride
        /// word.
        colmask: Vec<u64>,
        /// Indices of the non-zero `colmask` words.
        widx: Vec<usize>,
        /// Field-row words the sequence's changes update
        /// ([`mask_window`] of `colmask`).
        win: Range<usize>,
    },
    Cols {
        plan: FusedColsPlan,
    },
}

impl FusedProgram {
    /// Number of steps in the compiled sequence.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether this program replays row-parallel
    /// ([`ProtectedMemory::exec_fused_rows`]) as opposed to
    /// column-parallel.
    pub fn is_rows(&self) -> bool {
        matches!(self.kind, FusedKind::Rows { .. })
    }
}

/// The ECC half of a compiled row-parallel program, shared by every worker
/// of a replay: the sequence's touched-column mask and its non-zero word
/// indices, the field-row window those words update, and the rotation
/// masks.
struct FusedRowsEcc<'a> {
    colmask: &'a [u64],
    widx: &'a [usize],
    win: Range<usize>,
    m: usize,
    stride: usize,
    tables: &'a DiagTables,
}

/// One worker's share of a fused row-parallel replay: snapshot the touched
/// words of the chunk's rows, run the compiled sequence on the chunk's raw
/// plane slices, then XOR each row's net change into the field rows of its
/// block row ([`xor_row_fields`]). `lead`/`counter` are the CMEM field rows
/// of exactly the chunk's block rows; chunks are split at block-row
/// boundaries, so distinct workers never share a field row.
#[allow(clippy::too_many_arguments)]
fn fused_rows_chunk(
    plan: &FusedRowsPlan,
    ecc: &FusedRowsEcc<'_>,
    bits: &mut [u64],
    armed: &mut [u64],
    old: &mut [u64],
    lead: &mut [u64],
    counter: &mut [u64],
    rows: Range<usize>,
) {
    let FusedRowsEcc {
        colmask,
        widx,
        m,
        stride,
        ..
    } = *ecc;
    let per_row = widx.len();
    for li in 0..rows.len() {
        let row = &bits[li * stride..(li + 1) * stride];
        for (k, &wi) in widx.iter().enumerate() {
            old[li * per_row + k] = row[wi];
        }
    }
    plan.run_on_rows(bits, armed);
    let first_br = rows.start / m;
    let mut chg = [0u64; MAX_FUSED_STRIDE];
    for (li, r) in rows.enumerate() {
        let row = &bits[li * stride..(li + 1) * stride];
        for (k, &wi) in widx.iter().enumerate() {
            chg[wi] = (row[wi] ^ old[li * per_row + k]) & colmask[wi];
        }
        let span = (r / m - first_br) * stride..(r / m - first_br + 1) * stride;
        xor_row_fields(
            &mut lead[span.clone()],
            &mut counter[span],
            &chg[..stride],
            r % m,
            m,
            ecc.tables,
            ecc.win.clone(),
        );
    }
}

/// The word path's ECC kernel: XORs the parity contribution of one MEM
/// row's words `src` (local row `lr`) into the field rows of its block
/// row, for every block column at once. Fed a written row's change words
/// (old ⊕ new, zero outside the written covered columns) it is the
/// continuous update; fed a block row's data rows it recomputes the
/// block row's check-bits. Every m-bit field of `src` is rotated left by
/// `lr` into `lead` and by `m − 1 − lr` into `counter` — the per-row terms
/// of [`DiagonalCode::encode_words`] in the CMEM's rotation order (see
/// [`CheckMemory`]) — in `O(words)` operations. Only words `win` are
/// visited: it must cover the fields of every set bit of `src` (see
/// [`field_window`]). Requires `m <= 63`.
#[inline]
fn xor_row_fields(
    lead: &mut [u64],
    counter: &mut [u64],
    src: &[u64],
    lr: usize,
    m: usize,
    tables: &DiagTables,
    win: Range<usize>,
) {
    let stride = lead.len();
    let masks = |rot: usize| {
        let span = rot * stride..(rot + 1) * stride;
        (&tables.rot_hi[span.clone()], &tables.rot_lo[span])
    };
    let (rl, rc) = (lr, m - 1 - lr);
    let ((hi_l, lo_l), (hi_c, lo_c)) = (masks(rl), masks(rc));
    let mut prev = if win.start > 0 { src[win.start - 1] } else { 0 };
    for w in win {
        let cur = src[w];
        let next = if w + 1 < stride { src[w + 1] } else { 0 };
        let (stay, wrap) = rot_parts(prev, cur, next, rl, m);
        lead[w] ^= (stay & hi_l[w]) | (wrap & lo_l[w]);
        let (stay, wrap) = rot_parts(prev, cur, next, rc, m);
        counter[w] ^= (stay & hi_c[w]) | (wrap & lo_c[w]);
        prev = cur;
    }
}

/// The two halves of word `cur` of a row with every m-bit field rotated
/// left by `rot < m`, given its neighbour words: the whole-row shift left
/// by `rot` (the bits that stay inside their field, kept by the
/// rotation's `rot_hi` mask) and the whole-row shift right by `m − rot`
/// (the bits that wrap around, kept by `rot_lo`).
#[inline(always)]
fn rot_parts(prev: u64, cur: u64, next: u64, rot: usize, m: usize) -> (u64, u64) {
    // `(prev >> 1) >> (63 - rot)` is `prev >> (64 - rot)`, defined at 0.
    (
        cur << rot | (prev >> 1) >> (63 - rot),
        cur >> (m - rot) | next << (64 - m + rot),
    )
}

/// The field-row words holding the fields of columns `first ..= last`:
/// the window [`xor_row_fields`] must visit for changes confined to those
/// columns.
fn field_window(first: usize, last: usize, m: usize) -> Range<usize> {
    first / m * m / 64..(last / m * m + m - 1) / 64 + 1
}

/// [`field_window`] of the set bits of `words` (empty when none is set).
fn mask_window(words: &[u64], m: usize) -> Range<usize> {
    let Some(w0) = words.iter().position(|&w| w != 0) else {
        return 0..0;
    };
    let w1 = words.iter().rposition(|&w| w != 0).unwrap_or(w0);
    field_window(
        w0 * 64 + words[w0].trailing_zeros() as usize,
        w1 * 64 + 63 - words[w1].leading_zeros() as usize,
        m,
    )
}

/// Adds one block's check outcome to a report's correction counts.
fn tally(report: &mut CheckReport, loc: ErrorLocation) {
    match loc {
        ErrorLocation::None => {}
        ErrorLocation::Uncorrectable => report.uncorrectable += 1,
        _ => report.corrected += 1,
    }
}

/// Rotate-left within the low `m` bits (`mask = (1 << m) - 1`).
#[inline]
fn rotl_m(w: u64, s: usize, m: usize, mask: u64) -> u64 {
    if s == 0 {
        w
    } else {
        ((w << s) | (w >> (m - s))) & mask
    }
}

/// XORs the check-bit deltas of the changed cells of one *column* into the
/// CMEM: `changed_at(wi)` yields the masked change word (packed one bit per
/// row) at word index `wi`. Each block row's segment is indexed by local
/// row; its cells lie on leading diagonals rotated by the column's local
/// index `lc`, and in the counter's rotation order (bit `m − 1 − d` for
/// diagonal `d`) on the *reversed* segment rotated by `lc`. The reversed
/// segments are cut from bit-reversed change words, one reversal per word
/// rather than per block. Requires `m <= 63`.
///
/// The sweep walks the change words and skips all-zero ones outright, so
/// sparse updates cost O(words), not O(blocks).
#[inline]
fn xor_col_major_changes(
    cmem: &mut CheckMemory,
    col: usize,
    bps: usize,
    m: usize,
    stride: usize,
    mut changed_at: impl FnMut(usize) -> u64,
) {
    let mmask = (1u64 << m) - 1;
    let (lc, bc) = (col % m, col / m);
    let mut w0 = usize::MAX;
    let (mut cur, mut next, mut rcur, mut rnext) = (0u64, 0u64, 0u64, 0u64);
    for br in 0..bps {
        let start = br * m;
        let (w, sh) = (start / 64, start % 64);
        if w != w0 {
            w0 = w;
            cur = changed_at(w);
            next = if w + 1 < stride { changed_at(w + 1) } else { 0 };
            (rcur, rnext) = (cur.reverse_bits(), next.reverse_bits());
        }
        if cur == 0 && (sh + m <= 64 || next == 0) {
            continue;
        }
        // `seg` bit i is local row i; `rseg` bit i is local row m − 1 − i.
        let (seg, rseg) = if sh + m > 64 {
            let spill = sh + m - 64;
            (
                cur >> sh | next << (64 - sh),
                rnext >> (64 - spill) | rcur << spill,
            )
        } else {
            (cur >> sh, rcur >> (64 - sh - m))
        };
        let (seg, rseg) = (seg & mmask, rseg & mmask);
        if seg == 0 {
            continue;
        }
        let lead = rotl_m(seg, lc, m, mmask);
        cmem.xor_fields(br, bc, lead, rotl_m(rseg, lc, m, mmask));
    }
}

/// Whether every bit of `range` is set in a packed word slice.
fn all_set(words: &[u64], range: Range<usize>) -> bool {
    if range.is_empty() {
        return true;
    }
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    let lo = u64::MAX << (range.start % 64);
    let hi = u64::MAX >> (63 - (range.end - 1) % 64);
    if first == last {
        return words[first] & lo & hi == lo & hi;
    }
    words[first] & lo == lo
        && words[first + 1..last].iter().all(|&w| w == u64::MAX)
        && words[last] & hi == hi
}

/// Sets bits `range` of a packed word slice.
fn set_word_range(words: &mut [u64], range: std::ops::Range<usize>) {
    if range.is_empty() {
        return;
    }
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    let lo = u64::MAX << (range.start % 64);
    let hi = u64::MAX >> (63 - (range.end - 1) % 64);
    if first == last {
        words[first] |= lo & hi;
    } else {
        words[first] |= lo;
        for w in &mut words[first + 1..last] {
            *w = u64::MAX;
        }
        words[last] |= hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: usize, m: usize) -> ProtectedMemory {
        ProtectedMemory::new(BlockGeometry::new(n, m).unwrap()).unwrap()
    }

    fn random_grid(n: usize, seed: u64) -> BitGrid {
        let mut g = BitGrid::new(n, n);
        let mut s = seed | 1;
        for r in 0..n {
            for c in 0..n {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                g.set(r, c, s >> 63 != 0);
            }
        }
        g
    }

    #[test]
    fn fresh_machine_is_consistent() {
        let pm = machine(9, 3);
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn load_grid_establishes_consistency() {
        let mut pm = machine(15, 5);
        pm.load_grid(&random_grid(15, 7));
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn row_parallel_nor_maintains_checks() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 1));
        pm.exec_init_rows(&[4], &LineSet::All).unwrap();
        pm.exec_nor_rows(&[0, 1], 4, &LineSet::All).unwrap();
        assert!(pm.verify_consistency().is_ok());
        assert!(pm.stats().critical_ops >= 2);
    }

    #[test]
    fn col_parallel_nor_maintains_checks() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 2));
        pm.exec_init_cols(&[5], &LineSet::All).unwrap();
        pm.exec_nor_cols(&[0, 2], 5, &LineSet::All).unwrap();
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn mixed_op_sequence_stays_consistent() {
        let mut pm = machine(15, 5);
        pm.load_grid(&random_grid(15, 3));
        for step in 0..10 {
            let col = 5 + step % 5;
            pm.exec_init_rows(&[col], &LineSet::All).unwrap();
            pm.exec_nor_rows(&[step % 3, 3 + step % 2], col, &LineSet::All)
                .unwrap();
            let row = 10 + step % 5;
            pm.exec_init_cols(&[row], &LineSet::Range(0..15)).unwrap();
            pm.exec_nor_cols(&[step % 4, 5], row, &LineSet::Range(0..15))
                .unwrap();
            assert!(pm.verify_consistency().is_ok(), "step {step}");
        }
    }

    #[test]
    fn single_data_fault_is_corrected_by_check_all() {
        let mut pm = machine(15, 5);
        pm.load_grid(&random_grid(15, 4));
        let before = pm.bit(7, 11);
        pm.inject_fault(7, 11);
        assert_eq!(pm.bit(7, 11), !before);
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 1);
        assert_eq!(report.uncorrectable, 0);
        assert_eq!(pm.bit(7, 11), before, "data restored");
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn single_check_bit_fault_is_corrected() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 5));
        pm.inject_check_fault(Family::Counter, 1, 2, 0);
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 1);
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn faults_in_different_blocks_all_corrected() {
        let mut pm = machine(15, 5);
        pm.load_grid(&random_grid(15, 6));
        pm.inject_fault(0, 0); // block (0,0)
        pm.inject_fault(7, 12); // block (1,2)
        pm.inject_fault(14, 3); // block (2,0)
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 3);
        assert_eq!(report.uncorrectable, 0);
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn double_fault_in_one_block_is_reported_uncorrectable() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 8));
        pm.inject_fault(0, 0);
        pm.inject_fault(1, 2); // same block (0,0), general position
        let report = pm.check_all().unwrap();
        assert_eq!(report.uncorrectable, 1);
        assert_eq!(pm.stats().errors_uncorrectable, 1);
    }

    #[test]
    fn uncovered_scratch_blocks_skip_ecc() {
        let mut pm = machine(9, 3);
        pm.set_block_covered(1, 1, false).unwrap();
        let criticals_before = pm.stats().critical_ops;
        // Operate entirely inside the scratch block (rows 3..6, cols 3..6).
        pm.exec_init_rows(&[4], &LineSet::Range(3..6)).unwrap();
        pm.exec_nor_rows(&[3, 5], 4, &LineSet::Range(3..6)).unwrap();
        assert_eq!(
            pm.stats().critical_ops,
            criticals_before,
            "scratch ops are non-critical"
        );
        // A fault there is invisible to checks (by design).
        pm.inject_fault(4, 4);
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 0);
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn recovering_coverage_reencodes() {
        let mut pm = machine(9, 3);
        pm.set_block_covered(0, 0, false).unwrap();
        pm.exec_init_rows(&[1], &LineSet::Range(0..3)).unwrap(); // scratch write
        pm.set_block_covered(0, 0, true).unwrap(); // re-encode happens here
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn mixed_covered_uncovered_write_updates_only_covered() {
        let mut pm = machine(9, 3);
        pm.set_block_covered(0, 0, false).unwrap();
        // Column 1 crosses blocks (0,0) [uncovered], (1,0), (2,0) [covered].
        pm.exec_init_rows(&[1], &LineSet::All).unwrap();
        pm.exec_nor_rows(&[0, 2], 1, &LineSet::All).unwrap();
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn check_block_col_transposes_check_block_row() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 12));
        pm.inject_fault(4, 1); // block (1, 0)
        let report = pm.check_block_col(0).unwrap();
        assert_eq!(report.checked, 3);
        assert_eq!(report.corrected, 1);
        assert!(pm.verify_consistency().is_ok());
        assert!(matches!(
            pm.check_block_col(5),
            Err(CoreError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn check_block_row_reports_and_costs() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 11));
        pm.inject_fault(1, 4); // block (0,1)
        let cycles_before = pm.stats().mem_cycles;
        let report = pm.check_block_row(0).unwrap();
        assert_eq!(report.checked, 3);
        assert_eq!(report.corrected, 1);
        // m copy cycles plus one corrective write.
        assert_eq!(pm.stats().mem_cycles - cycles_before, 3 + 1);
    }

    #[test]
    fn critical_op_cost_model() {
        let mut pm = machine(9, 3);
        let s0 = *pm.stats();
        pm.exec_init_rows(&[0], &LineSet::All).unwrap();
        let s1 = *pm.stats();
        // 1 gate cycle + 2 transfers; 2 XOR3s (leading + counter).
        assert_eq!(s1.mem_cycles - s0.mem_cycles, 3);
        assert_eq!(s1.transfer_cycles - s0.transfer_cycles, 2);
        assert_eq!(s1.pc_xor3_ops - s0.pc_xor3_ops, 2);
        assert_eq!(s1.critical_ops - s0.critical_ops, 1);
    }

    #[test]
    fn out_of_bounds_block_indices_error() {
        let mut pm = machine(9, 3);
        assert!(matches!(
            pm.check_block(5, 0),
            Err(CoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            pm.set_block_covered(0, 9, true),
            Err(CoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            pm.check_block_row(3),
            Err(CoreError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn check_on_critical_closes_the_false_positive_window() {
        // Same scenario as `fault_then_critical_overwrite_leaves_stale_
        // parity`, but with pre-write checking: the fault is corrected
        // BEFORE the overwrite cancels its effect, so no false positive
        // ever forms and no data is silently wrong.
        let mut pm = machine(9, 3);
        let grid = random_grid(9, 13);
        pm.load_grid(&grid);
        pm.set_check_on_critical(true);
        assert!(pm.check_on_critical());
        pm.inject_fault(0, 0);
        pm.exec_init_rows(&[0], &LineSet::One(0)).unwrap();
        // Parity never went stale...
        assert!(pm.verify_consistency().is_ok());
        // ...the fault was corrected by the pre-write check...
        assert_eq!(pm.stats().errors_corrected, 1);
        // ...and a subsequent full check finds nothing left to fix.
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 0);
        assert_eq!(report.uncorrectable, 0);
        // Every untouched cell still matches the loaded data.
        for r in 0..9 {
            for c in 0..9 {
                if (r, c) != (0, 0) {
                    assert_eq!(pm.bit(r, c), grid.get(r, c), "({r},{c})");
                }
            }
        }
    }

    #[test]
    fn precheck_costs_cycles_but_full_width_ops_still_work() {
        let mut pm = machine(9, 3);
        pm.set_check_on_critical(true);
        pm.exec_init_rows(&[4], &LineSet::All).unwrap();
        pm.exec_nor_rows(&[0, 1], 4, &LineSet::All).unwrap();
        assert!(pm.verify_consistency().is_ok());
        // The init + nor each prechecked the 3 blocks of column 4's block
        // column.
        assert_eq!(pm.stats().blocks_checked, 6);
    }

    #[test]
    fn reset_block_fast_path_is_consistent_and_cheap() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 17));
        let cycles_before = pm.stats().mem_cycles;
        let criticals_before = pm.stats().critical_ops;
        pm.reset_block(1, 2).unwrap();
        // m init cycles, zero critical-op protocols.
        assert_eq!(pm.stats().mem_cycles - cycles_before, 3);
        assert_eq!(pm.stats().critical_ops, criticals_before);
        // Block is all ones and the direct ECC write is consistent.
        for r in 3..6 {
            for c in 6..9 {
                assert!(pm.bit(r, c), "({r},{c})");
            }
        }
        assert!(pm.verify_consistency().is_ok());
        assert!(matches!(
            pm.reset_block(9, 0),
            Err(CoreError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn reset_block_on_uncovered_block_skips_cmem() {
        let mut pm = machine(9, 3);
        pm.set_block_covered(0, 0, false).unwrap();
        pm.reset_block(0, 0).unwrap();
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn scrub_rebases_stale_parity_without_correcting() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 21));
        // Create a stale-parity state via the false-positive window.
        pm.inject_fault(0, 0);
        pm.exec_init_rows(&[0], &LineSet::One(0)).unwrap();
        assert!(pm.verify_consistency().is_err());
        let corrected_before = pm.stats().errors_corrected;
        pm.scrub();
        assert!(pm.verify_consistency().is_ok());
        assert_eq!(
            pm.stats().errors_corrected,
            corrected_before,
            "scrub corrects nothing"
        );
        // And a subsequent check finds a clean memory.
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected + report.uncorrectable, 0);
    }

    #[test]
    fn write_row_cells_is_non_destructive_and_consistent() {
        let mut pm = machine(15, 5);
        let grid = random_grid(15, 19);
        pm.load_grid(&grid);
        pm.write_row_cells(7, &[(0, true), (1, false), (13, true)])
            .unwrap();
        assert!(pm.bit(7, 0) && !pm.bit(7, 1) && pm.bit(7, 13));
        // Every untouched cell keeps its loaded value.
        for r in 0..15 {
            for c in 0..15 {
                if r != 7 || ![0, 1, 13].contains(&c) {
                    assert_eq!(pm.bit(r, c), grid.get(r, c), "({r},{c})");
                }
            }
        }
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn write_row_cells_costs_one_mem_cycle_plus_protocol() {
        let mut pm = machine(9, 3);
        let before = *pm.stats();
        pm.write_row_cells(0, &[(0, true), (5, true)]).unwrap();
        let delta = *pm.stats() - before;
        // 1 row write + 2 protocol transfers billed to the MEM.
        assert_eq!(delta.mem_cycles, 3);
        assert_eq!(delta.critical_ops, 1);
        assert!(pm.verify_consistency().is_ok());
        // Writing the values already present changes nothing and is free of
        // XOR3 work beyond the protocol bookkeeping.
        let before = *pm.stats();
        pm.write_row_cells(0, &[(0, true)]).unwrap();
        assert_eq!((*pm.stats() - before).critical_ops, 1);
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn write_row_cells_tolerates_duplicate_columns() {
        let mut pm = machine(9, 3);
        // Same column listed twice (and with conflicting values): the last
        // value wins and the parity is updated exactly once.
        pm.write_row_cells(0, &[(3, false), (3, true), (3, true)])
            .unwrap();
        assert!(pm.bit(0, 3));
        assert!(pm.verify_consistency().is_ok());
        // A subsequent check finds nothing to "correct".
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected + report.uncorrectable, 0);
        assert!(pm.bit(0, 3), "data not clobbered by a false positive");
    }

    #[test]
    fn write_row_cells_bounds_and_empty() {
        let mut pm = machine(9, 3);
        assert!(matches!(
            pm.write_row_cells(9, &[(0, true)]),
            Err(CoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            pm.write_row_cells(0, &[(9, true)]),
            Err(CoreError::OutOfBounds { .. })
        ));
        let before = *pm.stats();
        pm.write_row_cells(0, &[]).unwrap();
        assert_eq!(
            *pm.stats() - before,
            MachineStats::default(),
            "empty write is free"
        );
    }

    #[test]
    fn write_col_cells_transposes_write_row_cells() {
        let mut pm = machine(15, 5);
        let grid = random_grid(15, 23);
        pm.load_grid(&grid);
        let before = *pm.stats();
        pm.write_col_cells(7, &[(0, true), (1, false), (13, true)])
            .unwrap();
        let delta = *pm.stats() - before;
        assert!(pm.bit(0, 7) && !pm.bit(1, 7) && pm.bit(13, 7));
        // Every untouched cell keeps its loaded value.
        for r in 0..15 {
            for c in 0..15 {
                if c != 7 || ![0, 1, 13].contains(&r) {
                    assert_eq!(pm.bit(r, c), grid.get(r, c), "({r},{c})");
                }
            }
        }
        // Same cost model as the row-major path: 1 driven cycle + the
        // critical-operation protocol of the touched covered blocks.
        assert_eq!(delta.mem_cycles, 3);
        assert_eq!(delta.critical_ops, 1);
        assert!(pm.verify_consistency().is_ok());
        // Duplicate rows: last value wins, parity updated exactly once.
        pm.write_col_cells(2, &[(4, false), (4, true), (4, true)])
            .unwrap();
        assert!(pm.bit(4, 2));
        assert!(pm.verify_consistency().is_ok());
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected + report.uncorrectable, 0);
    }

    #[test]
    fn write_col_cells_bounds_and_empty() {
        let mut pm = machine(9, 3);
        assert!(matches!(
            pm.write_col_cells(9, &[(0, true)]),
            Err(CoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            pm.write_col_cells(0, &[(9, true)]),
            Err(CoreError::OutOfBounds { .. })
        ));
        let before = *pm.stats();
        pm.write_col_cells(0, &[]).unwrap();
        assert_eq!(
            *pm.stats() - before,
            MachineStats::default(),
            "empty write is free"
        );
    }

    /// Planes for a 30×30/3 batched load (one word per line) holding
    /// loads for lines 4 and 7.
    fn two_line_planes() -> (Vec<u64>, Vec<u64>) {
        let mut masks = vec![0u64; 30];
        let mut vals = vec![0u64; 30];
        (masks[4], vals[4]) = (0b10_0001, 0b10_0001);
        (masks[7], vals[7]) = (0b110, 0b010);
        (masks, vals)
    }

    #[test]
    fn batched_row_writer_drives_only_listed_rows() {
        let mut pm = machine(30, 3);
        let (mut masks, mut vals) = two_line_planes();
        let before = *pm.stats();
        pm.write_rows_words_batched(&[7], &mut masks, &mut vals)
            .unwrap();
        let delta = *pm.stats() - before;
        assert!(pm.bit(7, 1) && !pm.bit(7, 2));
        assert!(!pm.bit(4, 0) && !pm.bit(4, 5), "unlisted row 4 written");
        assert_eq!((masks[4], vals[4]), (0b10_0001, 0b10_0001));
        assert_eq!((masks[7], vals[7]), (0, 0));
        assert_eq!((delta.critical_ops, delta.mem_cycles), (1, 3));
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn batched_column_writer_drives_only_listed_columns() {
        let mut pm = machine(30, 3);
        let (mut masks, mut vals) = two_line_planes();
        let before = *pm.stats();
        pm.write_cols_words_batched(&[7], &mut masks, &mut vals)
            .unwrap();
        let delta = *pm.stats() - before;
        assert!(pm.bit(1, 7) && !pm.bit(2, 7));
        assert!(!pm.bit(0, 4) && !pm.bit(5, 4), "unlisted column 4 written");
        assert_eq!((masks[4], vals[4]), (0b10_0001, 0b10_0001));
        assert_eq!((masks[7], vals[7]), (0, 0));
        assert_eq!((delta.critical_ops, delta.mem_cycles), (1, 3));
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn stats_delta_subtracts_per_counter() {
        let a = MachineStats {
            mem_cycles: 10,
            critical_ops: 4,
            ..Default::default()
        };
        let b = MachineStats {
            mem_cycles: 3,
            critical_ops: 1,
            ..Default::default()
        };
        let d = a - b;
        assert_eq!(d.mem_cycles, 7);
        assert_eq!(d.critical_ops, 3);
        assert_eq!(
            b - a,
            MachineStats::default(),
            "saturates instead of wrapping"
        );
    }

    #[test]
    fn stats_aggregate_adds_per_counter() {
        let a = MachineStats {
            mem_cycles: 10,
            blocks_checked: 2,
            ..Default::default()
        };
        let mut sum = MachineStats {
            mem_cycles: 3,
            errors_corrected: 1,
            ..Default::default()
        };
        sum += a;
        assert_eq!(sum.mem_cycles, 13);
        assert_eq!(sum.blocks_checked, 2);
        assert_eq!(sum.errors_corrected, 1);
        assert_eq!(a + MachineStats::default(), a, "zero is the identity");
    }

    #[test]
    fn fault_then_critical_overwrite_leaves_stale_parity() {
        // The paper's documented false-positive window (§III): a fault that
        // is overwritten before any check leaves the checks believing the
        // *pre-fault* value was cancelled. The machine reproduces that
        // behaviour faithfully: consistency is momentarily broken and the
        // next check mis-attributes the error.
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 13));
        pm.inject_fault(0, 0);
        // Overwrite cell (0,0) via an init (critical): cancel uses the
        // faulty old value.
        pm.exec_init_rows(&[0], &LineSet::One(0)).unwrap();
        // The block parity is now stale even though data is fine.
        assert!(pm.verify_consistency().is_err());
        let report = pm.check_all().unwrap();
        // The checker "corrects" something (a false positive), after which
        // the ECC is self-consistent again.
        assert_eq!(report.corrected, 1);
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn every_desync_call_invalidates_the_verified_map() {
        // A fully checked memory has every block verified. Each of the
        // three calls that put a block's data and check-bits out of step
        // must drop the block from the map: every check form then finds
        // the fault exactly as on a memory that was never checked.
        type Fault = fn(&mut ProtectedMemory);
        let faults: [(&str, Fault); 3] = [
            ("data flip", |pm| pm.inject_fault(7, 12)),
            ("check-bit flip", |pm| {
                pm.inject_check_fault(Family::Counter, 3, 1, 2)
            }),
            ("stuck cell", |pm| {
                let intended = pm.bit(6, 11);
                pm.set_stuck(6, 11, !intended);
            }),
        ];
        type Check = fn(&mut ProtectedMemory) -> String;
        let checks: [(&str, Check); 5] = [
            ("check_block", |pm| format!("{:?}", pm.check_block(1, 2))),
            ("check_block_row", |pm| {
                format!("{:?}", pm.check_block_row(1))
            }),
            ("check_block_col", |pm| {
                format!("{:?}", pm.check_block_col(2))
            }),
            ("check_all", |pm| format!("{:?}", pm.check_all())),
            ("check_all_cols", |pm| format!("{:?}", pm.check_all_cols())),
        ];
        let grid = random_grid(15, 41);
        for (fault_name, fault) in faults {
            for (check_name, check) in checks {
                let ctx = format!("{fault_name}, {check_name}");
                let mut checked = machine(15, 5);
                checked.load_grid(&grid);
                assert_eq!(checked.check_all().unwrap().checked, 9);
                let mut never = machine(15, 5);
                never.load_grid(&grid);
                fault(&mut checked);
                fault(&mut never);
                let (before_checked, before_never) = (*checked.stats(), *never.stats());
                assert_eq!(check(&mut checked), check(&mut never), "{ctx}");
                let want = *never.stats() - before_never;
                assert_eq!(*checked.stats() - before_checked, want, "{ctx}");
                assert_eq!(
                    want.errors_corrected + want.errors_uncorrectable,
                    1,
                    "{ctx}: the fault is found"
                );
                assert_eq!(
                    checked.uncorrectable_blocks(),
                    never.uncorrectable_blocks(),
                    "{ctx}"
                );
                assert_eq!(
                    checked.mem().grid().diff(never.mem().grid()),
                    vec![],
                    "{ctx}"
                );
                for (br, bc) in (0..3).flat_map(|br| (0..3).map(move |bc| (br, bc))) {
                    for family in [Family::Leading, Family::Counter] {
                        assert_eq!(
                            checked.cmem().block_checks_word(family, br, bc),
                            never.cmem().block_checks_word(family, br, bc),
                            "{ctx}: {family:?} checks of block ({br},{bc})"
                        );
                    }
                }
            }
        }
    }

    /// Runs one mixed op/fault/check scenario on a given engine.
    fn engine_scenario(n: usize, m: usize, engine: SimEngine) -> (ProtectedMemory, CheckReport) {
        let mut pm = machine(n, m);
        pm.set_engine(engine);
        assert_eq!(pm.engine(), engine);
        pm.load_grid(&random_grid(n, 29));
        pm.set_block_covered(1, 1, false).unwrap();
        for step in 0..6 {
            let col = (m + step) % n;
            pm.exec_init_rows(&[col], &LineSet::All).unwrap();
            pm.exec_nor_rows(&[(col + 1) % n, (col + 2) % n], col, &LineSet::All)
                .unwrap();
            let row = (2 * m + step) % n;
            pm.exec_init_cols(&[row], &LineSet::Range(0..n)).unwrap();
            pm.exec_nor_cols(&[(row + 3) % n, (row + 5) % n], row, &LineSet::Range(0..n))
                .unwrap();
        }
        pm.write_row_cells(1, &[(0, true), (n - 1, false)]).unwrap();
        pm.write_col_cells(n - 1, &[(0, false), (m, true)]).unwrap();
        pm.inject_fault(0, n - 1);
        pm.inject_check_fault(Family::Leading, 1, 0, 0);
        let report = pm.check_all().unwrap();
        (pm, report)
    }

    #[test]
    fn engines_are_bit_identical_on_a_mixed_scenario() {
        for (n, m) in [(9usize, 3usize), (15, 5), (70, 7)] {
            let (word, wr) = engine_scenario(n, m, SimEngine::WordParallel);
            let (scalar, sr) = engine_scenario(n, m, SimEngine::ScalarReference);
            assert_eq!(
                word.mem().grid().diff(scalar.mem().grid()),
                vec![],
                "{n}/{m}"
            );
            assert_eq!(word.stats(), scalar.stats(), "{n}/{m}");
            assert_eq!(wr, sr, "{n}/{m}");
            assert_eq!(
                word.verify_consistency(),
                scalar.verify_consistency(),
                "{n}/{m}"
            );
        }
    }

    #[test]
    fn paranoid_engines_agree_on_prechecked_ops() {
        for engine in [SimEngine::WordParallel, SimEngine::ScalarReference] {
            let mut pm = machine(9, 3);
            pm.set_engine(engine);
            pm.set_check_on_critical(true);
            pm.exec_init_rows(&[4], &LineSet::All).unwrap();
            pm.exec_nor_rows(&[0, 1], 4, &LineSet::All).unwrap();
            pm.exec_init_cols(&[2], &LineSet::Range(0..9)).unwrap();
            pm.exec_nor_cols(&[0, 8], 2, &LineSet::Range(0..9)).unwrap();
            assert!(pm.verify_consistency().is_ok(), "{engine:?}");
            assert_eq!(pm.stats().blocks_checked, 12, "{engine:?}");
        }
    }

    #[test]
    fn word_engine_handles_geometry_past_the_word_boundary() {
        // n = 65: line words have a 1-bit slack tail, the block grid is
        // 13x13 of 5x5 blocks, and columns 64.. live in the second word.
        let mut pm = machine(65, 5);
        pm.load_grid(&random_grid(65, 31));
        pm.exec_init_rows(&[63, 64], &LineSet::All).unwrap();
        pm.exec_nor_rows(&[0, 1], 63, &LineSet::All).unwrap();
        pm.exec_nor_rows(&[2], 64, &LineSet::All).unwrap();
        assert!(pm.verify_consistency().is_ok());
        pm.inject_fault(64, 64);
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 1);
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn stuck_cell_refuses_correction_and_stays_detected() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 11));
        let intended = pm.bit(2, 2);
        pm.set_stuck(2, 2, !intended);
        assert_eq!(pm.bit(2, 2), !intended, "cell reads the wedged value");
        // Every check re-detects the fault, refuses the write-back, and
        // classifies it uncorrectable — no silent "repair" into the wedge.
        for pass in 0..3 {
            let report = pm.check_all().unwrap();
            assert_eq!(report.corrected, 0, "pass {pass}");
            assert_eq!(report.uncorrectable, 1, "pass {pass}");
            assert_eq!(pm.bit(2, 2), !intended, "pass {pass}");
        }
        assert_eq!(pm.stats().errors_uncorrectable, 3);
        assert_eq!(pm.stats().errors_corrected, 0);
    }

    #[test]
    fn writes_cannot_overwrite_a_stuck_cell() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 13));
        pm.set_stuck(4, 7, true);
        pm.write_row_cells(4, &[(7, false), (8, true)]).unwrap();
        assert!(pm.bit(4, 7), "plane re-asserts the wedged value");
        assert!(pm.bit(4, 8), "healthy neighbour takes the write");
        // The check-bits track the *driven* value, so the mismatch is
        // visible as an uncorrectable error, not absorbed.
        let report = pm.check_all().unwrap();
        assert_eq!(report.uncorrectable, 1);
    }

    #[test]
    fn stuck_cell_matching_the_driven_value_is_benign_until_contradicted() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 17));
        let value = pm.bit(5, 1);
        pm.set_stuck(5, 1, value);
        let report = pm.check_all().unwrap();
        assert_eq!((report.corrected, report.uncorrectable), (0, 0));
        pm.write_row_cells(5, &[(1, !value)]).unwrap();
        assert_eq!(pm.bit(5, 1), value, "write bounced off the wedge");
        let report = pm.check_all().unwrap();
        assert_eq!(report.uncorrectable, 1);
    }

    #[test]
    fn scrub_repairs_transients_but_never_absorbs_stuck_faults() {
        let mut pm = machine(15, 5);
        pm.load_grid(&random_grid(15, 19));
        let intended = pm.bit(2, 3);
        pm.set_stuck(2, 3, !intended); // block (0,0)
        pm.inject_fault(8, 8); // transient in block (1,1)
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 1, "transient repaired");
        assert_eq!(report.uncorrectable, 1, "hard fault refused");
        pm.scrub();
        // The scrub must not re-base the stuck block: the fault is still
        // detected (and still refused) on the next pass.
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 0);
        assert_eq!(report.uncorrectable, 1);
    }

    #[test]
    fn inject_fault_cannot_flip_a_wedged_cell() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 23));
        pm.set_stuck(1, 1, true);
        pm.inject_fault(1, 1);
        assert!(pm.bit(1, 1), "a soft error cannot move a wedged cell");
        let report = pm.check_all().unwrap();
        assert_eq!(report.corrected, 0);
    }

    #[test]
    fn scrub_block_line_clears_multibit_transient_residue() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 27));
        pm.inject_fault(0, 0);
        pm.inject_fault(1, 2); // same block (0,0): uncorrectable pattern
        let report = pm.check_all().unwrap();
        assert_eq!(report.uncorrectable, 1);
        // After the layer above suppresses the affected outputs, a targeted
        // re-encode re-bases the block so the residue cannot later be
        // "corrected" into consistent garbage by a single-error decode.
        pm.scrub_block_row(0);
        let report = pm.check_all().unwrap();
        assert_eq!((report.corrected, report.uncorrectable), (0, 0));
        assert!(pm.verify_consistency().is_ok());
    }

    #[test]
    fn scrub_block_col_rebases_like_scrub_block_row() {
        let mut pm = machine(9, 3);
        pm.load_grid(&random_grid(9, 33));
        pm.inject_fault(3, 4);
        pm.inject_fault(5, 5); // same block (1,1)
        assert_eq!(pm.check_all().unwrap().uncorrectable, 1);
        pm.scrub_block_col(1);
        let report = pm.check_all().unwrap();
        assert_eq!((report.corrected, report.uncorrectable), (0, 0));
        assert!(pm.verify_consistency().is_ok());
    }

    fn stuck_scenario(n: usize, m: usize, engine: SimEngine) -> (ProtectedMemory, CheckReport) {
        let mut pm = machine(n, m);
        pm.set_engine(engine);
        pm.load_grid(&random_grid(n, 37));
        pm.set_stuck(1, 2, true);
        pm.set_stuck(n - 1, n - 2, false);
        for step in 0..4 {
            let col = (m + step) % n;
            pm.exec_init_rows(&[col], &LineSet::All).unwrap();
            pm.exec_nor_rows(&[(col + 1) % n, (col + 2) % n], col, &LineSet::All)
                .unwrap();
            let row = (2 * m + step) % n;
            pm.exec_init_cols(&[row], &LineSet::Range(0..n)).unwrap();
            pm.exec_nor_cols(&[(row + 3) % n, (row + 5) % n], row, &LineSet::Range(0..n))
                .unwrap();
        }
        pm.write_row_cells(1, &[(2, false), (n - 1, true)]).unwrap();
        pm.inject_fault(0, n - 1);
        let report = pm.check_all().unwrap();
        (pm, report)
    }

    #[test]
    fn engines_are_bit_identical_under_stuck_faults() {
        for (n, m) in [(9usize, 3usize), (15, 5), (70, 7)] {
            let (word, wr) = stuck_scenario(n, m, SimEngine::WordParallel);
            let (scalar, sr) = stuck_scenario(n, m, SimEngine::ScalarReference);
            assert_eq!(
                word.mem().grid().diff(scalar.mem().grid()),
                vec![],
                "{n}/{m}"
            );
            assert_eq!(word.stats(), scalar.stats(), "{n}/{m}");
            assert_eq!(wr, sr, "{n}/{m}");
            assert_eq!(word.stuck_cells(), scalar.stuck_cells(), "{n}/{m}");
        }
    }
}
