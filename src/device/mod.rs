//! Batch-first execution on an ECC-protected MAGIC crossbar.
//!
//! The paper's headline is *high-throughput* PIM: MAGIC executes one
//! instruction stream across all rows of a crossbar simultaneously, and the
//! diagonal ECC keeps its check-bits current at Θ(1) in-memory operations
//! per parallel write. A [`PimDevice`] exposes exactly that shape:
//!
//! 1. [`PimDevice::compile`] maps a function once with SIMPLER and caches
//!    the resulting [`CompiledProgram`] on the device
//!    ([`PimDevice::compile_packed`] maps it *narrow* instead, so several
//!    requests co-pack per line);
//! 2. [`PimDevice::run_batch`] packs up to `n` requests onto distinct rows
//!    (without clobbering the others), performs **one** pre-execution ECC
//!    check per *touched block-row* — not per request — before it writes
//!    the inputs, and then executes
//!    each program step **exactly once** for the whole batch via
//!    row-parallel MAGIC. Placement is two-dimensional:
//!    [`PimDevice::run_plan`] takes an explicit [`PlacementPlan`] (see
//!    [`placement`]), which also runs batches column-parallel
//!    ([`Axis::Cols`]) and co-packs several narrow requests per line at
//!    distinct offsets;
//! 3. the [`BatchOutcome`] carries per-request outputs plus the batch's own
//!    [`MachineStats`] delta and a derived throughput figure (gate
//!    evaluations per MEM cycle).
//!
//! Batching therefore costs ~O(steps + k) MEM cycles for k requests where
//! a serial one-request-per-pass flow costs
//! O(steps × k) — the ~k× amortization every scaling layer above this API
//! (sharding, async queues, multi-device) builds on. Co-packing stacks a
//! second amortization on top: d requests per line divide the input-load
//! writes and block-line checks by d again.
//!
//! # Example
//!
//! ```
//! use pimecc::device::PimDevice;
//! use pimecc::netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new();
//! let x = b.input();
//! let y = b.input();
//! let g = b.xor(x, y);
//! b.output(g);
//! let netlist = b.finish();
//!
//! let mut device = PimDevice::new(30, 3)?; // 30x30 crossbar, 3x3 ECC blocks
//! let program = device.compile(&netlist.to_nor())?;
//!
//! // Four requests ride the same step sequence on four rows at once.
//! let batch: Vec<Vec<bool>> = (0..4u32)
//!     .map(|v| vec![v & 1 != 0, v & 2 != 0])
//!     .collect();
//! let outcome = device.run_batch(&program, &batch)?;
//! for (req, out) in batch.iter().zip(&outcome.outputs) {
//!     assert_eq!(out, &netlist.eval(req));
//! }
//! assert_eq!(outcome.requests(), 4);
//! # Ok(())
//! # }
//! ```

mod batch;
mod error;
pub mod placement;
mod program;
mod retire;

pub(crate) use batch::MultiBatchOutcome;
pub use batch::{BatchOutcome, OutputArena, OutputArenaIter, UncorrectableInput};
pub use error::DeviceError;
pub use pimecc_core::SimEngine;
pub use placement::{Axis, PlacementPlan, Slot};
pub use program::{netlist_fingerprint, CompiledProgram};
pub use retire::RetiredLines;

pub(crate) use program::ProgramCache;

use pimecc_core::{BlockGeometry, CheckReport, FusedProgram, MachineStats, ProtectedMemory};
use pimecc_netlist::NorNetlist;
use pimecc_simpler::{Program, Step};
use pimecc_xbar::{LineSet, ParallelStep};
use std::collections::HashMap;
use std::ops::Range;

// The cluster service moves whole devices into its worker thread and
// ships compiled-program handles across an MPSC channel, so these bounds
// are load-bearing API contracts — pin them at compile time rather than
// discovering a regression at a distant spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<PimDevice>();
    assert_send_sync::<CompiledProgram>();
};

/// Telemetry of one [`PimDevice::scrub_pass`]: what the check half found
/// (and repaired) plus the machine activity the whole pass cost.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[must_use]
pub struct ScrubReport {
    /// The full-memory check's findings: blocks examined, single errors
    /// corrected, uncorrectable patterns left behind. Blocks retired on
    /// **both** axes are out of service and excluded from the sweep, so a
    /// shard whose hard faults are fully retired scrubs clean again.
    pub check: CheckReport,
    /// Blocks `(block_row, block_col)` with uncorrectable verdicts this
    /// pass — each one struck its row *and* column line in the device's
    /// [`RetiredLines`] ledger.
    pub struck_blocks: Vec<(usize, usize)>,
    /// Machine activity attributable to this pass (a delta, like a
    /// batch's).
    pub stats: MachineStats,
}

impl ScrubReport {
    /// Whether the pass found nothing to repair and nothing beyond
    /// repair — the "clean scrub" a quarantine recovery counts.
    pub fn is_clean(&self) -> bool {
        self.check.corrected == 0 && self.check.uncorrectable == 0
    }
}

/// The input rows of one wave part, in the part plan's slot order: the
/// one indexable view the load path reads. [`PimDevice::run_plan`] hands
/// over one `Vec` per request; the cluster scheduler hands over index runs
/// into a group's request-major buffer, so its path holds no per-request
/// `Vec`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum InputRows<'a> {
    /// One `Vec` per request.
    Vecs(&'a [Vec<bool>]),
    /// `width`-bit rows of one request-major buffer: slot `i` reads the
    /// `i`-th row of the concatenated `runs`.
    Runs {
        bits: &'a [bool],
        width: usize,
        runs: &'a [Range<usize>],
    },
}

impl<'a> InputRows<'a> {
    fn len(&self) -> usize {
        match *self {
            InputRows::Vecs(rows) => rows.len(),
            InputRows::Runs { runs, .. } => runs.iter().map(Range::len).sum(),
        }
    }

    /// The first request whose width is not `want`, with that width.
    fn mismatch(&self, want: usize) -> Option<(usize, usize)> {
        match *self {
            InputRows::Vecs(rows) => rows
                .iter()
                .position(|r| r.len() != want)
                .map(|i| (i, rows[i].len())),
            InputRows::Runs { width, .. } => (width != want).then_some((0, width)),
        }
    }

    /// Slot `i`'s input bits.
    fn get(&self, mut i: usize) -> &'a [bool] {
        match *self {
            InputRows::Vecs(rows) => &rows[i],
            InputRows::Runs { bits, width, runs } => {
                for run in runs {
                    if i < run.len() {
                        let row = run.start + i;
                        return &bits[row * width..(row + 1) * width];
                    }
                    i -= run.len();
                }
                panic!("slot past the part's input rows")
            }
        }
    }
}

/// One program's share of a wave as [`PimDevice::run_wave`] sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WavePart<'a> {
    pub(crate) program: &'a CompiledProgram,
    pub(crate) plan: &'a PlacementPlan,
    pub(crate) inputs: InputRows<'a>,
}

/// When (and how aggressively) the device verifies ECC around a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckPolicy {
    /// The paper's §IV flow: before execution, every block-row holding a
    /// request of the batch is checked and single errors repaired.
    #[default]
    PreExecution,
    /// No pre-execution check; rely on the continuous maintenance and the
    /// periodic scrub alone.
    Skip,
    /// [`CheckPolicy::PreExecution`] plus a pre-*write* check of every
    /// critical operation — closes the paper's §III false-positive window
    /// at the price of one block check per covered write.
    Paranoid,
}

/// Which blocks of the device carry ECC coverage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CoveragePolicy {
    /// Every block is covered (the safe default).
    #[default]
    Full,
    /// The listed `(block_row, block_col)` blocks are uncovered scratch —
    /// the paper's model where only function inputs/outputs are protected.
    Uncovered(Vec<(usize, usize)>),
}

/// Hook invoked once per batch, before its pre-execution check — the
/// window soft errors strike in; fault-injection campaigns register one
/// through [`PimDeviceBuilder::on_batch_loaded`].
///
/// A batch runs hook → pre-check → input load → replay. The pre-check
/// therefore sees every flip the hook left on the batch's block-lines
/// before the load's word-diff ECC update could fold it into the check
/// bits.
///
/// The hook is `Send` so that a device carrying one can still serve as a
/// shard of a spawned [`ClusterHandle`](crate::cluster::ClusterHandle),
/// whose pool lives on the service's worker thread.
pub type BatchFaultHook = Box<dyn FnMut(&mut ProtectedMemory) + Send>;

/// Configures and builds a [`PimDevice`].
///
/// ```
/// use pimecc::device::{CheckPolicy, PimDeviceBuilder};
///
/// # fn main() -> Result<(), pimecc::device::DeviceError> {
/// let device = PimDeviceBuilder::new(45, 15)
///     .check_policy(CheckPolicy::Paranoid)
///     .build()?;
/// assert_eq!(device.capacity(), 45);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub struct PimDeviceBuilder {
    n: usize,
    m: usize,
    check_policy: CheckPolicy,
    coverage: CoveragePolicy,
    engine: SimEngine,
    fault_hook: Option<BatchFaultHook>,
    retire_after: Option<u32>,
}

impl PimDeviceBuilder {
    /// Starts a builder for an `n×n` crossbar with `m×m` ECC blocks.
    pub fn new(n: usize, m: usize) -> Self {
        PimDeviceBuilder {
            n,
            m,
            check_policy: CheckPolicy::default(),
            coverage: CoveragePolicy::default(),
            engine: SimEngine::default(),
            fault_hook: None,
            retire_after: None,
        }
    }

    /// Retires a block-line after `strikes` uncorrectable verdicts against
    /// it (pre-/post-execution checks or scrub findings): the packer stops
    /// placing requests on its physical lines and capacity shrinks
    /// accordingly — flash-style bad-block management (see
    /// [`RetiredLines`]). Default: disabled — strikes are counted but no
    /// line is ever taken out of service. `0` is rejected at
    /// [`PimDeviceBuilder::build`] time with
    /// [`DeviceError::ZeroRetireAfter`].
    pub fn retire_after(mut self, strikes: u32) -> Self {
        self.retire_after = Some(strikes);
        self
    }

    /// Selects the host simulation engine (default:
    /// [`SimEngine::WordParallel`]). The scalar reference is bit-identical
    /// but slower; benchmarks select it to measure the word-parallel
    /// speedup.
    pub fn engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the ECC checking policy (default:
    /// [`CheckPolicy::PreExecution`]).
    pub fn check_policy(mut self, policy: CheckPolicy) -> Self {
        self.check_policy = policy;
        self
    }

    /// Selects the block coverage policy (default: [`CoveragePolicy::Full`]).
    pub fn coverage(mut self, coverage: CoveragePolicy) -> Self {
        self.coverage = coverage;
        self
    }

    /// Registers a fault-injection hook, run once per batch before the
    /// pre-execution check and the input load (see [`BatchFaultHook`]).
    pub fn on_batch_loaded(
        mut self,
        hook: impl FnMut(&mut ProtectedMemory) + Send + 'static,
    ) -> Self {
        self.fault_hook = Some(Box::new(hook));
        self
    }

    /// Builds the device.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation and coverage-map errors as
    /// [`DeviceError::Core`]; [`DeviceError::ZeroRetireAfter`] for
    /// `retire_after(0)`.
    pub fn build(self) -> Result<PimDevice, DeviceError> {
        if self.retire_after == Some(0) {
            return Err(DeviceError::ZeroRetireAfter);
        }
        let mut memory = ProtectedMemory::new(BlockGeometry::new(self.n, self.m)?)?;
        memory.set_engine(self.engine);
        if let CoveragePolicy::Uncovered(blocks) = &self.coverage {
            for &(br, bc) in blocks {
                memory.set_block_covered(br, bc, false)?;
            }
        }
        memory.set_check_on_critical(matches!(self.check_policy, CheckPolicy::Paranoid));
        Ok(PimDevice {
            retired: RetiredLines::new(self.n, self.m, self.retire_after),
            memory,
            check_policy: self.check_policy,
            fault_hook: self.fault_hook,
            programs: ProgramCache::default(),
            fused_plans: HashMap::new(),
            line_loads: Vec::new(),
            touched_lines: Vec::new(),
            readback_runs: Vec::new(),
            plane_msk: Vec::new(),
            plane_val: Vec::new(),
            plane_touched: Vec::new(),
            block_lines: Vec::new(),
            slot_scratch: Vec::new(),
        })
    }
}

impl std::fmt::Debug for PimDeviceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimDeviceBuilder")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("check_policy", &self.check_policy)
            .field("coverage", &self.coverage)
            .field("engine", &self.engine)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("retire_after", &self.retire_after)
            .finish()
    }
}

/// An ECC-protected MAGIC crossbar exposed as a batch-first compute device.
///
/// See the [module documentation](self) for the execution model and an
/// end-to-end example.
pub struct PimDevice {
    memory: ProtectedMemory,
    check_policy: CheckPolicy,
    /// Strike ledger and bad-line map (see [`RetiredLines`]).
    retired: RetiredLines,
    fault_hook: Option<BatchFaultHook>,
    /// Compiled-program cache (netlist / packed / program key domains).
    programs: ProgramCache,
    /// Fused execution plans, compiled once per
    /// `(program id, offset, axis)` and replayed every wave; `None` caches
    /// ineligibility so the per-step fallback is chosen without
    /// re-analysis.
    fused_plans: HashMap<(u64, usize, Axis), Option<FusedProgram>>,
    /// Reusable per-line input-load buffers (batch scratch).
    line_loads: Vec<Vec<(usize, bool)>>,
    /// Lines touched by the current batch's loads (batch scratch).
    touched_lines: Vec<usize>,
    /// Consecutive-run decomposition of the program's output cells
    /// (readback scratch): `(first cell, run length)`.
    readback_runs: Vec<(usize, usize)>,
    /// Word-plane load staging (batch scratch, `capacity × stride` words,
    /// all-zero between batches): request bits packed per line for the
    /// machine's word-plane writers on the fused path.
    plane_msk: Vec<u64>,
    /// Value plane paired with `plane_msk`.
    plane_val: Vec<u64>,
    /// One bit per line: already listed in `touched_lines` this batch
    /// (batch scratch).
    plane_touched: Vec<u64>,
    /// Deduplicated block-line list of the current plan (check scratch).
    block_lines: Vec<usize>,
    /// Plan slots re-sorted by `(offset, line)` (execute scratch) — the
    /// offset-group walk without a per-wave `Vec` of groups.
    slot_scratch: Vec<Slot>,
}

impl PimDevice {
    /// Shorthand for [`PimDeviceBuilder::new`]`(n, m).build()`.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn new(n: usize, m: usize) -> Result<Self, DeviceError> {
        PimDeviceBuilder::new(n, m).build()
    }

    /// Number of rows — the maximum batch size.
    pub fn capacity(&self) -> usize {
        self.memory.geometry().n()
    }

    /// The geometry in force.
    pub fn geometry(&self) -> &BlockGeometry {
        self.memory.geometry()
    }

    /// The checking policy in force.
    pub fn check_policy(&self) -> CheckPolicy {
        self.check_policy
    }

    /// Read access to the underlying machine (stats, consistency checks).
    pub fn memory(&self) -> &ProtectedMemory {
        &self.memory
    }

    /// The device's strike ledger and bad-line map. Lines retire
    /// automatically from recurring uncorrectable evidence when
    /// [`PimDeviceBuilder::retire_after`] is set; schedulers read
    /// [`RetiredLines::avoid_lines`] to pack around them.
    pub fn retired(&self) -> &RetiredLines {
        &self.retired
    }

    /// Lifetime machine statistics (batches report their own deltas).
    pub fn stats(&self) -> &MachineStats {
        self.memory.stats()
    }

    /// Number of distinct programs held in the compile cache.
    pub fn compiled_count(&self) -> usize {
        self.programs.len()
    }

    /// Empties the compile cache. The cache grows by one entry per
    /// distinct program for the device's lifetime; long-running flows that
    /// stream many one-off programs (fault campaigns, benchmark sweeps)
    /// call this between phases. Outstanding [`CompiledProgram`] handles
    /// stay valid — they own their program — and still execute; they are
    /// simply re-inserted if adopted again.
    pub fn clear_compiled(&mut self) {
        self.programs.clear();
        self.fused_plans.clear();
    }

    /// Injects a soft error (forwarded to the machine, for campaigns).
    pub fn inject_fault(&mut self, r: usize, c: usize) {
        self.memory.inject_fault(r, c);
    }

    /// The periodic full-memory check: every covered block is verified,
    /// single errors repaired, and the counts reported — the check half of
    /// a background scrub wave.
    ///
    /// # Errors
    ///
    /// Infallible in practice (mirrors
    /// [`ProtectedMemory::check_all`](pimecc_core::ProtectedMemory::check_all)).
    pub fn check_all(&mut self) -> Result<CheckReport, DeviceError> {
        Ok(self.memory.check_all()?)
    }

    /// One background scrub wave: the full-memory check (single errors
    /// repaired, counts reported) followed by a scrub that re-encodes
    /// every covered block's check-bits from the repaired data — clearing
    /// any stale parity left by the §III false-positive window. The
    /// returned [`ScrubReport`] carries the check's telemetry and the
    /// pass's own [`MachineStats`] delta, so a health loop can attribute
    /// scrub cost and scrub findings per shard.
    ///
    /// # Errors
    ///
    /// Infallible in practice (mirrors [`PimDevice::check_all`]).
    pub fn scrub_pass(&mut self) -> Result<ScrubReport, DeviceError> {
        let before = *self.memory.stats();
        let bps = self.memory.geometry().blocks_per_side();
        let mut check;
        let mut struck_blocks = Vec::new();
        let fully_healthy = self.retired.retired_count(Axis::Rows) == 0
            && self.retired.retired_count(Axis::Cols) == 0;
        if fully_healthy {
            // The common case sweeps the whole memory at the amortized
            // row-read cost; the sweep itself lists the blocks it left
            // uncorrectable.
            check = self.memory.check_all()?;
            struck_blocks.extend_from_slice(self.memory.uncorrectable_blocks());
        } else {
            // Retired territory exists: walk per block so lines retired on
            // both axes — fully out of service — stop generating findings,
            // which is what lets a quarantined shard scrub clean again
            // once its hard faults are all retired.
            check = CheckReport::default();
            for br in 0..bps {
                for bc in 0..bps {
                    if !self.memory.block_covered(br, bc)
                        || (self.retired.is_retired(Axis::Rows, br)
                            && self.retired.is_retired(Axis::Cols, bc))
                    {
                        continue;
                    }
                    let loc = self.memory.check_block(br, bc)?;
                    check.checked += 1;
                    match loc {
                        pimecc_core::ErrorLocation::None => {}
                        pimecc_core::ErrorLocation::Uncorrectable => {
                            check.uncorrectable += 1;
                            struck_blocks.push((br, bc));
                        }
                        _ => check.corrected += 1,
                    }
                }
            }
        }
        // Scrub evidence localizes to a block, so it strikes both of the
        // block's lines: a quarantined shard retires its bad lines from
        // scrubs alone, without serving a single request.
        for &(br, bc) in &struck_blocks {
            self.retired.strike(Axis::Rows, br);
            self.retired.strike(Axis::Cols, bc);
        }
        self.memory.scrub();
        Ok(ScrubReport {
            check,
            struck_blocks,
            stats: *self.memory.stats() - before,
        })
    }

    /// Maps `netlist` onto this device's row width with SIMPLER and caches
    /// the result: compiling the same netlist again returns the cached
    /// [`CompiledProgram`] without re-running the mapper.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Map`] when the function does not fit one row.
    pub fn compile(&mut self, netlist: &NorNetlist) -> Result<CompiledProgram, DeviceError> {
        let row_size = self.capacity();
        Ok(self.programs.compile(netlist, row_size)?)
    }

    /// Maps `netlist` for *co-packing*: [`map_dense`](pimecc_simpler::map_dense) squeezes the
    /// function into the narrowest slot that stays within 3/2 of the
    /// full-width cycle count, so several requests share each row (or
    /// column) under a dense [`PlacementPlan`]. Cached separately from
    /// [`PimDevice::compile`] — the two mappings of one netlist coexist.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Map`] when the function does not fit one row even at
    /// full width.
    pub fn compile_packed(&mut self, netlist: &NorNetlist) -> Result<CompiledProgram, DeviceError> {
        let row_size = self.capacity();
        Ok(self.programs.compile_packed(netlist, row_size)?)
    }

    /// Adopts an externally mapped [`Program`] (for example one widened
    /// with [`map_auto`](pimecc_simpler::map_auto) or parsed from a
    /// listing), caching it by its [`Program::fingerprint`].
    pub fn adopt(&mut self, program: &Program) -> CompiledProgram {
        self.programs.adopt(program)
    }

    /// Adopts a [`CompiledProgram`] handle compiled elsewhere — another
    /// device, or a [`PimCluster`](crate::cluster::PimCluster) compile
    /// cache — *sharing* the underlying mapped program instead of deep
    /// cloning it. The foreign handle keeps its original id; a later
    /// [`PimDevice::adopt`] (or `adopt_compiled`) of the same mapped
    /// program hits this cache entry. [`PimDevice::compile`] keys by
    /// *netlist* fingerprint — a different domain — so compiling the
    /// source netlist still re-runs the mapper.
    pub fn adopt_compiled(&mut self, compiled: &CompiledProgram) -> CompiledProgram {
        self.programs.adopt_compiled(compiled)
    }

    /// Checks that `program` fits this device at all — every batch runs
    /// this first so a too-wide program is reported as such rather than as
    /// a slot geometry error.
    fn check_width(&self, program: &CompiledProgram) -> Result<(), DeviceError> {
        let n = self.capacity();
        if program.program().row_size > n {
            return Err(DeviceError::ProgramTooWide {
                row_size: program.program().row_size,
                footprint: program.footprint(),
                n,
            });
        }
        Ok(())
    }

    /// Validates `plan` against this device and `program`: geometry match
    /// and slots wide enough for the program's footprint. Slot legality
    /// (bounds, overlap) was already proven by the plan's constructor.
    fn check_plan(
        &self,
        program: &CompiledProgram,
        plan: &PlacementPlan,
    ) -> Result<(), DeviceError> {
        self.check_width(program)?;
        let n = self.capacity();
        if plan.line_len() != n {
            return Err(DeviceError::PlanGeometry {
                plan: plan.line_len(),
                n,
            });
        }
        let footprint = program.footprint().max(1);
        if plan.slot_width() < footprint {
            return Err(DeviceError::SlotTooNarrow {
                slot_width: plan.slot_width(),
                footprint,
            });
        }
        Ok(())
    }

    /// Serves a batch: packs request `i` onto row `i`, then checks, loads
    /// and executes as described in the [module documentation](self).
    /// One request per row — for denser or explicit placement (co-packing,
    /// the column axis, chosen lines) build a [`PlacementPlan`] and call
    /// [`PimDevice::run_plan`].
    ///
    /// # Errors
    ///
    /// * [`DeviceError::EmptyBatch`] / [`DeviceError::BatchTooLarge`] if
    ///   `requests` is empty or outnumbers the device's rows;
    /// * everything [`PimDevice::run_plan`] reports.
    pub fn run_batch(
        &mut self,
        program: &CompiledProgram,
        requests: &[Vec<bool>],
    ) -> Result<BatchOutcome, DeviceError> {
        self.check_width(program)?;
        let plan = PlacementPlan::pack(
            Axis::Rows,
            self.capacity(),
            program.footprint().max(1),
            self.capacity(),
            1,
            requests.len(),
        )?;
        self.run_plan(program, &plan, requests)
    }

    /// Serves a batch under an explicit [`PlacementPlan`]: request `i`
    /// occupies `plan.slots()[i]` on the plan's axis. Lines not in the
    /// plan are never written. The batch runs, in order:
    ///
    /// 1. the fault hook, if one is installed;
    /// 2. **one** ECC pre-check per touched block-line (per
    ///    [`CheckPolicy`]), single errors repaired;
    /// 3. the input load: **one** driven write per touched line, shared by
    ///    the requests co-packed on it;
    /// 4. the program's steps, replayed once per occupied offset;
    /// 5. a re-check of touched block-lines that hold stuck cells, then a
    ///    scrub and a retirement strike for every block-line with an
    ///    uncorrectable verdict (its requests come back suspect, see
    ///    [`BatchOutcome::suspect_requests`]);
    /// 6. the output readback.
    ///
    /// The pre-check runs *before* the load: the load updates check-bits
    /// by word-diff against the cells' physical values, so a flip still
    /// sitting on a line would be folded into the check bits, and a later
    /// check would "correct" the fresh input bit instead.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::ProgramTooWide`] if the program does not fit the
    ///   device at all;
    /// * [`DeviceError::PlanGeometry`] if the plan was built for another
    ///   line length;
    /// * [`DeviceError::SlotTooNarrow`] if the program's footprint exceeds
    ///   the plan's slot width;
    /// * [`DeviceError::PlacementArity`] if the plan and `requests` differ
    ///   in length;
    /// * [`DeviceError::InputArity`] if a request's width is wrong;
    /// * [`DeviceError::Core`] for machine-level failures.
    pub fn run_plan(
        &mut self,
        program: &CompiledProgram,
        plan: &PlacementPlan,
        requests: &[Vec<bool>],
    ) -> Result<BatchOutcome, DeviceError> {
        let wave = self.run_wave(&[WavePart {
            program,
            plan,
            inputs: InputRows::Vecs(requests),
        }])?;
        Ok(single_part(wave, plan))
    }

    /// Serves one wave — the device's only execution path, in the order
    /// listed on [`PimDevice::run_plan`]. The cluster scheduler calls it
    /// with one or more pairwise line-disjoint parts and its own
    /// index-based [`InputRows`]; the parts share one pre-check sweep over
    /// the union of their touched block-lines, the load, the post-check
    /// and the strikes, and replay their steps in part order.
    pub(crate) fn run_wave(
        &mut self,
        parts: &[WavePart<'_>],
    ) -> Result<MultiBatchOutcome, DeviceError> {
        for part in parts {
            self.check_plan(part.program, part.plan)?;
            if part.plan.requests() != part.inputs.len() {
                return Err(DeviceError::PlacementArity {
                    rows: part.plan.requests(),
                    requests: part.inputs.len(),
                });
            }
            let want = part.program.num_inputs();
            if let Some((request, got)) = part.inputs.mismatch(want) {
                return Err(DeviceError::InputArity { request, got, want });
            }
        }
        if let Some(hook) = self.fault_hook.as_mut() {
            hook(&mut self.memory);
        }
        let stats_before = *self.memory.stats();
        let axis = parts[0].plan.axis();
        let m = self.memory.geometry().m();

        // Block-lines with uncorrectable verdicts this wave: every
        // request placed on one of them gets suspect outputs.
        let mut suspects: Vec<usize> = Vec::new();
        let mut input_check = CheckReport::default();
        if !matches!(self.check_policy, CheckPolicy::Skip) {
            let bps = self.memory.geometry().blocks_per_side();
            self.block_lines.clear();
            for part in parts {
                self.block_lines
                    .extend(part.plan.slots().iter().map(|s| s.line / m));
            }
            self.block_lines.sort_unstable();
            self.block_lines.dedup();
            if matches!(axis, Axis::Cols) && self.block_lines.len() == bps {
                // A full wave touches every block column; checking them all
                // is the same block set as checking every block row, which
                // the machine can sweep reading each MEM row once instead
                // of once per column.
                input_check = self.memory.check_all_cols()?;
                suspects.extend(self.memory.uncorrectable_blocks().iter().map(|&(_, bc)| bc));
            } else {
                for i in 0..self.block_lines.len() {
                    let bl = self.block_lines[i];
                    let line_check = match axis {
                        Axis::Rows => self.memory.check_block_row(bl)?,
                        Axis::Cols => self.memory.check_block_col(bl)?,
                    };
                    if line_check.uncorrectable > 0 {
                        suspects.push(bl);
                    }
                    input_check += line_check;
                }
            }
        }
        self.load_inputs(axis, parts)?;

        // Co-packed offsets replay the step sequence once per offset: a
        // MAGIC cycle drives one set of line voltages, so gates at
        // different offsets cannot share a cycle — but each pass still
        // covers *all* lines occupied at that offset in parallel. One
        // scratch buffer shifts cell lists for non-zero offsets; the
        // common offset-0 pass (every plain `run_batch`) borrows the
        // program's cells directly, allocation-free as before.
        let mut shifted: Vec<usize> = Vec::new();
        fn shift<'a>(
            cells: &'a [usize],
            offset: usize,
            scratch: &'a mut Vec<usize>,
        ) -> &'a [usize] {
            if offset == 0 {
                cells
            } else {
                scratch.clear();
                scratch.extend(cells.iter().map(|&c| c + offset));
                scratch
            }
        }
        // Parts execute in part order — a MAGIC cycle drives one program's
        // voltages, so co-located programs serialize their step sequences
        // (the loads and checks they share are where the wave wins).
        for &WavePart { program, plan, .. } in parts {
            // Walk the offset groups off a reused sorted-slot scratch
            // instead of `plan.offset_groups()` — same groups in the same
            // order, but no per-wave Vec-of-Vecs.
            self.slot_scratch.clear();
            self.slot_scratch.extend_from_slice(plan.slots());
            self.slot_scratch
                .sort_unstable_by_key(|s| (s.offset, s.line));
            let mut gi = 0;
            while gi < self.slot_scratch.len() {
                let offset = self.slot_scratch[gi].offset;
                let mut ge = gi;
                while ge < self.slot_scratch.len() && self.slot_scratch[ge].offset == offset {
                    ge += 1;
                }
                let group = &self.slot_scratch[gi..ge];
                // Contiguous groups (every full wave) select as a Range, which
                // the simulator turns into whole-word masks instead of
                // per-line set bits; sparse groups stay explicit.
                let selected = if group.windows(2).all(|w| w[1].line == w[0].line + 1) {
                    LineSet::Range(group[0].line..group[0].line + group.len())
                } else {
                    LineSet::Explicit(group.iter().map(|s| s.line).collect())
                };
                gi = ge;
                // Contiguous replays on either axis go through a fused plan —
                // the whole sequence compiled once per (program, offset, axis)
                // and cached on the device, then replayed as one pass over the
                // lines instead of one per step, bit- and stats-identical.
                // Ineligible configurations (scalar engine, partial coverage,
                // paranoid checking, sparse line sets, unfusable sequences)
                // fall through to the per-step replay below; ineligibility is
                // cached too, so the analysis never re-runs.
                if let LineSet::Range(range) = &selected {
                    if self.memory.supports_fused_rows() {
                        let key = (program.id(), offset, axis);
                        let PimDevice {
                            ref mut fused_plans,
                            ref memory,
                            ..
                        } = *self;
                        let entry = fused_plans.entry(key).or_insert_with(|| {
                            let steps: Vec<ParallelStep> = program
                                .program()
                                .steps
                                .iter()
                                .map(|step| match step {
                                    Step::Init { cells } => ParallelStep::Init(
                                        cells.iter().map(|&c| c + offset).collect(),
                                    ),
                                    Step::Gate { inputs, output, .. } => ParallelStep::Nor(
                                        inputs.iter().map(|&c| c + offset).collect(),
                                        output + offset,
                                    ),
                                })
                                .collect();
                            match axis {
                                Axis::Rows => memory.compile_fused_rows(&steps),
                                Axis::Cols => memory.compile_fused_cols(&steps),
                            }
                        });
                        if let Some(fused) = entry.as_ref() {
                            match axis {
                                Axis::Rows => self.memory.exec_fused_rows(fused, range.clone(), 1),
                                Axis::Cols => self.memory.exec_fused_cols(fused, range.clone()),
                            }
                            continue;
                        }
                    }
                }
                for step in &program.program().steps {
                    match step {
                        Step::Init { cells } => {
                            let cells = shift(cells, offset, &mut shifted);
                            match axis {
                                Axis::Rows => self.memory.exec_init_rows(cells, &selected)?,
                                Axis::Cols => self.memory.exec_init_cols(cells, &selected)?,
                            }
                        }
                        Step::Gate { inputs, output, .. } => {
                            let inputs = shift(inputs, offset, &mut shifted);
                            match axis {
                                Axis::Rows => {
                                    self.memory
                                        .exec_nor_rows(inputs, output + offset, &selected)?
                                }
                                Axis::Cols => {
                                    self.memory
                                        .exec_nor_cols(inputs, output + offset, &selected)?
                                }
                            }
                        }
                    }
                }
            }
        }

        // Post-execution guard, *before* readback: a stuck cell inside the
        // batch's working set corrupts data the program wrote after the
        // pre-check passed. Free on healthy hardware (one `Vec::is_empty`
        // probe); on a device with wedged cells, each touched block-line
        // holding one is re-checked so single transient output flips are
        // corrected before extraction and anything worse marks the line
        // suspect rather than letting garbage read back as an answer.
        if !matches!(self.check_policy, CheckPolicy::Skip) && self.memory.has_stuck_cells() {
            for i in 0..self.block_lines.len() {
                let bl = self.block_lines[i];
                let wedged = match axis {
                    Axis::Rows => self.memory.block_row_has_stuck(bl),
                    Axis::Cols => self.memory.block_col_has_stuck(bl),
                };
                if !wedged {
                    continue;
                }
                let out_check = match axis {
                    Axis::Rows => self.memory.check_block_row(bl)?,
                    Axis::Cols => self.memory.check_block_col(bl)?,
                };
                if out_check.uncorrectable > 0 {
                    suspects.push(bl);
                }
                input_check += out_check;
            }
        }
        suspects.sort_unstable();
        suspects.dedup();
        // Uncorrectable residue is re-encoded away *now*, before the next
        // batch lands on these lines: a multi-bit transient pattern left
        // in place could later alias into a "correctable" single and be
        // repaired into consistent garbage. Each suspect line also strikes
        // the retirement ledger — recurring evidence takes it out of
        // service once the threshold is crossed.
        for &bl in &suspects {
            match axis {
                Axis::Rows => self.memory.scrub_block_row(bl),
                Axis::Cols => self.memory.scrub_block_col(bl),
            }
            self.retired.strike(axis, bl);
        }
        let uncorrectable_input = (!suspects.is_empty()).then_some(UncorrectableInput {
            lines: suspects,
            block: m,
        });

        // Output readback groups consecutive output cells into runs (most
        // programs emit contiguous result words) and pulls each run as one
        // word extraction instead of per-bit probes, appending straight
        // into each part's contiguous [`OutputArena`] — one allocation per
        // part, not one per request. Readback is free in the device model
        // either way — this only changes host time.
        let mut out_parts: Vec<OutputArena> = Vec::with_capacity(parts.len());
        let mut gate_evals = 0u64;
        for &WavePart { program, plan, .. } in parts {
            gate_evals += program.gate_cycles() * plan.requests() as u64;
            self.readback_runs.clear();
            for &c in &program.program().output_cells {
                match self.readback_runs.last_mut() {
                    Some((s, l)) if *s + *l == c && *l < 64 => *l += 1,
                    _ => self.readback_runs.push((c, 1)),
                }
            }
            let grid = self.memory.mem().grid();
            let mut arena = OutputArena::with_capacity(program.num_outputs(), plan.requests());
            for slot in plan.slots() {
                for &(s, l) in &self.readback_runs {
                    let word = match axis {
                        Axis::Rows => grid.extract_bits(slot.line, slot.offset + s, l),
                        Axis::Cols => grid.extract_col_bits(slot.line, slot.offset + s, l),
                    };
                    arena.bits.extend((0..l).map(|i| word >> i & 1 != 0));
                }
                arena.requests += 1;
            }
            debug_assert_eq!(arena.bits.len(), arena.requests * arena.width);
            out_parts.push(arena);
        }
        Ok(MultiBatchOutcome {
            parts: out_parts,
            input_check,
            stats: *self.memory.stats() - stats_before,
            gate_evals,
            uncorrectable_input,
        })
    }

    /// Loads every part's requests into its planned slots, merging all
    /// requests sharing a line into one driven write — the
    /// load-amortization half of co-packing (deterministic line order;
    /// parts are line-disjoint, and slots on one line never overlap). On
    /// the fused word path the requests pack straight into reusable word
    /// planes (64 bits per store, no per-cell tuples); other
    /// configurations stage a sparse cell list per line for one
    /// `write_{row,col}_cells` each. Both are bit- and stats-identical.
    fn load_inputs(&mut self, axis: Axis, parts: &[WavePart<'_>]) -> Result<(), DeviceError> {
        let written = if self.memory.supports_fused_rows() {
            let stride = self.capacity().div_ceil(64);
            self.plane_msk.resize(self.capacity() * stride, 0);
            self.plane_val.resize(self.capacity() * stride, 0);
            self.plane_touched.resize(self.capacity().div_ceil(64), 0);
            self.touched_lines.clear();
            for part in parts {
                for (i, slot) in part.plan.slots().iter().enumerate() {
                    let req = part.inputs.get(i);
                    let (tw, tb) = (slot.line / 64, 1u64 << (slot.line % 64));
                    if self.plane_touched[tw] & tb == 0 {
                        self.plane_touched[tw] |= tb;
                        self.touched_lines.push(slot.line);
                    }
                    // Pack the request 64 bits at a time, then lay each
                    // chunk into the line's plane words at the slot offset
                    // (plain ORs suffice — nothing on a line overlaps).
                    let base = slot.line * stride;
                    let mut i = 0;
                    while i < req.len() {
                        let take = (req.len() - i).min(64);
                        let mut word = 0u64;
                        for (k, &b) in req[i..i + take].iter().enumerate() {
                            word |= (b as u64) << k;
                        }
                        let chunk_mask = if take == 64 {
                            u64::MAX
                        } else {
                            (1u64 << take) - 1
                        };
                        let pos = slot.offset + i;
                        let (wi, sh) = (pos / 64, (pos % 64) as u32);
                        self.plane_msk[base + wi] |= chunk_mask << sh;
                        self.plane_val[base + wi] |= word << sh;
                        if sh != 0 && sh as usize + take > 64 {
                            self.plane_msk[base + wi + 1] |= chunk_mask >> (64 - sh);
                            self.plane_val[base + wi + 1] |= word >> (64 - sh);
                        }
                        i += take;
                    }
                }
            }
            self.plane_touched.fill(0);
            self.touched_lines.sort_unstable();
            let PimDevice {
                ref mut memory,
                ref touched_lines,
                ref mut plane_msk,
                ref mut plane_val,
                ..
            } = *self;
            let written = match axis {
                Axis::Rows => memory.write_rows_words_batched(touched_lines, plane_msk, plane_val),
                Axis::Cols => memory.write_cols_words_batched(touched_lines, plane_msk, plane_val),
            };
            if written.is_err() {
                // The machine zeroes the planes only on success; restore
                // the all-zero invariant before surfacing the failure.
                for &line in touched_lines {
                    plane_msk[line * stride..(line + 1) * stride].fill(0);
                    plane_val[line * stride..(line + 1) * stride].fill(0);
                }
            }
            written
        } else {
            if self.line_loads.len() < self.capacity() {
                self.line_loads.resize_with(self.capacity(), Vec::new);
            }
            self.touched_lines.clear();
            for part in parts {
                for (i, slot) in part.plan.slots().iter().enumerate() {
                    let req = part.inputs.get(i);
                    let cells = &mut self.line_loads[slot.line];
                    if cells.is_empty() {
                        self.touched_lines.push(slot.line);
                    }
                    cells.extend(req.iter().enumerate().map(|(i, &b)| (slot.offset + i, b)));
                }
            }
            self.touched_lines.sort_unstable();
            let mut written = Ok(());
            for i in 0..self.touched_lines.len() {
                let line = self.touched_lines[i];
                if written.is_ok() {
                    let cells = &self.line_loads[line];
                    written = match axis {
                        Axis::Rows => self.memory.write_row_cells(line, cells),
                        Axis::Cols => self.memory.write_col_cells(line, cells),
                    };
                }
                // Hand every buffer back emptied (capacity intact) even
                // past a failure, or the stale cells would poison the next
                // batch.
                self.line_loads[line].clear();
            }
            written
        };
        Ok(written?)
    }
}

/// A one-part wave's outcome in the single-program [`BatchOutcome`] shape.
fn single_part(wave: MultiBatchOutcome, plan: &PlacementPlan) -> BatchOutcome {
    let MultiBatchOutcome {
        mut parts,
        input_check,
        stats,
        gate_evals,
        uncorrectable_input,
    } = wave;
    BatchOutcome {
        outputs: parts.pop().expect("single-part execution yields one arena"),
        placement: plan.clone(),
        input_check,
        stats,
        gate_evals,
        uncorrectable_input,
    }
}

impl std::fmt::Debug for PimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimDevice")
            .field("n", &self.capacity())
            .field("m", &self.memory.geometry().m())
            .field("check_policy", &self.check_policy)
            .field("compiled_programs", &self.programs.len())
            .field("fault_hook", &self.fault_hook.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimecc_netlist::{Netlist, NetlistBuilder};

    fn small_circuit() -> (NorNetlist, Netlist) {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(3);
        let g1 = b.xor(ins[0], ins[1]);
        let g2 = b.mux(ins[2], g1, ins[0]);
        b.output(g1);
        b.output(g2);
        let nl = b.finish();
        (nl.to_nor(), nl)
    }

    /// `run_plan` with request `i` on row `rows[i]`, offset 0.
    fn run_on_rows(
        device: &mut PimDevice,
        program: &CompiledProgram,
        rows: &[usize],
        requests: &[Vec<bool>],
    ) -> Result<BatchOutcome, DeviceError> {
        let slots = rows.iter().map(|&line| Slot { line, offset: 0 }).collect();
        let plan = PlacementPlan::new(
            Axis::Rows,
            device.capacity(),
            program.footprint().max(1),
            slots,
        )?;
        device.run_plan(program, &plan, requests)
    }

    /// `run_plan` under the densest plan on `axis`: every line at offset 0
    /// first, then further offsets.
    fn run_packed(
        device: &mut PimDevice,
        program: &CompiledProgram,
        axis: Axis,
        requests: &[Vec<bool>],
    ) -> Result<BatchOutcome, DeviceError> {
        let n = device.capacity();
        let plan = PlacementPlan::pack(
            axis,
            n,
            program.footprint().max(1),
            n,
            usize::MAX,
            requests.len(),
        )?;
        device.run_plan(program, &plan, requests)
    }

    #[test]
    fn full_device_batch_matches_reference_on_every_row() {
        let (nor, nl) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let program = device.compile(&nor).expect("compiles");
        let requests: Vec<Vec<bool>> = (0..30u32)
            .map(|v| (0..3).map(|i| v >> i & 1 != 0).collect())
            .collect();
        let outcome = device.run_batch(&program, &requests).expect("runs");
        assert_eq!(outcome.requests(), 30);
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(outcome.outputs[i], nl.eval(req), "request {i}");
            assert_eq!(outcome.slot(i), Slot { line: i, offset: 0 });
        }
        assert_eq!(outcome.axis(), Axis::Rows);
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn each_step_executes_once_per_batch() {
        // A NOR chain long enough that program steps dominate per-request
        // packing work, as they do for real functions.
        let mut b = NetlistBuilder::new();
        let mut x = b.input();
        let y = b.input();
        for _ in 0..60 {
            x = b.nor(x, y);
        }
        b.output(x);
        let nor = b.finish().to_nor();

        let mut single = PimDevice::new(30, 3).expect("device");
        let p = single.compile(&nor).expect("compiles");
        let one = single.run_batch(&p, &[vec![true, false]]).expect("runs");

        let mut batched = PimDevice::new(30, 3).expect("device");
        let p = batched.compile(&nor).expect("compiles");
        let requests: Vec<Vec<bool>> = (0..30u32).map(|v| vec![v & 1 != 0, v & 2 != 0]).collect();
        let thirty = batched.run_batch(&p, &requests).expect("runs");

        assert!(
            thirty.stats.mem_cycles < 2 * one.stats.mem_cycles,
            "30-deep batch must not double the single-run cycle count: {} vs {}",
            thirty.stats.mem_cycles,
            one.stats.mem_cycles
        );
        assert!(thirty.gate_evals_per_mem_cycle() > 10.0 * one.gate_evals_per_mem_cycle());
    }

    #[test]
    fn compile_cache_hits_by_structure() {
        let (nor, _) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let a = device.compile(&nor).expect("compiles");
        let b = device.compile(&nor).expect("compiles");
        assert_eq!(
            a.id(),
            b.id(),
            "structurally equal netlists share a compilation"
        );
        assert_eq!(device.compiled_count(), 1);
        let adopted = device.adopt(a.program());
        assert_eq!(
            device.compiled_count(),
            2,
            "program fingerprints are a separate domain"
        );
        let again = device.adopt(a.program());
        assert_eq!(adopted.id(), again.id());
        // Clearing drops the cache but not outstanding handles.
        device.clear_compiled();
        assert_eq!(device.compiled_count(), 0);
        let out = device
            .run_batch(&adopted, &[vec![true, false, true]])
            .expect("cleared cache does not invalidate handles");
        assert_eq!(out.requests(), 1);
    }

    #[test]
    fn adopt_compiled_shares_handles_across_devices() {
        let (nor, nl) = small_circuit();
        let mut a = PimDevice::new(30, 3).expect("device");
        let p = a.compile(&nor).expect("compiles");
        let mut b = PimDevice::new(30, 3).expect("device");
        let shared = b.adopt_compiled(&p);
        assert_eq!(shared.id(), p.id(), "the handle crosses devices intact");
        assert_eq!(b.compiled_count(), 1);
        let again = b.adopt(p.program());
        assert_eq!(again.id(), p.id(), "adopt hits the shared cache entry");
        let out = b
            .run_batch(&shared, &[vec![true, false, true]])
            .expect("runs");
        assert_eq!(out.outputs[0], nl.eval(&[true, false, true]));
    }

    #[test]
    fn explicit_placement_preserves_other_rows() {
        let (nor, nl) = small_circuit();
        let mut device = PimDevice::new(30, 5).expect("device");
        let p = device.compile(&nor).expect("compiles");
        let first = run_on_rows(&mut device, &p, &[4], &[vec![true, true, false]]).expect("runs");
        // A second batch on different rows must not disturb row 4.
        let resident: Vec<bool> = (0..30).map(|c| device.memory().bit(4, c)).collect();
        let second = run_on_rows(
            &mut device,
            &p,
            &[11, 28],
            &[vec![false, true, true], vec![true, false, true]],
        )
        .expect("runs");
        let after: Vec<bool> = (0..30).map(|c| device.memory().bit(4, c)).collect();
        assert_eq!(resident, after, "row 4 untouched by the second batch");
        assert_eq!(first.outputs[0], nl.eval(&[true, true, false]));
        assert_eq!(second.outputs[1], nl.eval(&[true, false, true]));
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn fault_hook_faults_are_repaired_without_disturbing_neighbors() {
        let (nor, nl) = small_circuit();
        let mut device = PimDeviceBuilder::new(30, 3)
            .on_batch_loaded(|pm| pm.inject_fault(5, 1))
            .build()
            .expect("device");
        let p = device.compile(&nor).expect("compiles");
        let requests: Vec<Vec<bool>> = (0..12u32)
            .map(|v| (0..3).map(|i| v >> i & 1 != 0).collect())
            .collect();
        let outcome = device.run_batch(&p, &requests).expect("runs");
        assert_eq!(
            outcome.input_check.corrected, 1,
            "the struck input was repaired"
        );
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(outcome.outputs[i], nl.eval(req), "request {i}");
        }
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn column_axis_batch_matches_reference_on_every_column() {
        let (nor, nl) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let program = device.compile(&nor).expect("compiles");
        let requests: Vec<Vec<bool>> = (0..30u32)
            .map(|v| (0..3).map(|i| v >> i & 1 != 0).collect())
            .collect();
        let outcome = run_packed(&mut device, &program, Axis::Cols, &requests).expect("runs");
        assert_eq!(outcome.axis(), Axis::Cols);
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(outcome.outputs[i], nl.eval(req), "request {i}");
        }
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn co_packed_batch_is_bit_identical_to_row_only_on_both_axes() {
        // A packed program (narrow slots) serving more requests than the
        // device has lines: the plan co-packs several per line, and the
        // outputs must equal the row-only runs of the same requests.
        let (nor, nl) = small_circuit();
        let requests: Vec<Vec<bool>> = (0..72u32)
            .map(|v| (0..3).map(|i| (v * 7 + v) >> i & 1 != 0).collect())
            .collect();
        for axis in [Axis::Rows, Axis::Cols] {
            let mut device = PimDevice::new(30, 5).expect("device");
            let program = device.compile_packed(&nor).expect("compiles");
            assert!(
                program.footprint() * 2 <= 30,
                "packed mapping must co-pack: footprint {}",
                program.footprint()
            );
            let outcome = run_packed(&mut device, &program, axis, &requests).expect("runs");
            assert!(
                outcome.placement.max_per_line() >= 2,
                "72 requests on 30 lines must co-pack ({axis})"
            );
            for (i, req) in requests.iter().enumerate() {
                assert_eq!(outcome.outputs[i], nl.eval(req), "{axis}, request {i}");
            }
            assert!(device.memory().verify_consistency().is_ok(), "{axis}");
        }
    }

    #[test]
    fn run_plan_places_requests_at_explicit_slots() {
        let (nor, nl) = small_circuit();
        let mut device = PimDevice::new(30, 5).expect("device");
        let program = device.compile_packed(&nor).expect("compiles");
        let w = program.footprint();
        // Two requests co-packed on line 4, a third on line 17.
        let plan = PlacementPlan::new(
            Axis::Rows,
            30,
            w,
            vec![
                Slot { line: 4, offset: 0 },
                Slot { line: 4, offset: w },
                Slot {
                    line: 17,
                    offset: 0,
                },
            ],
        )
        .expect("legal plan");
        let requests = vec![
            vec![true, false, true],
            vec![false, true, true],
            vec![true, true, false],
        ];
        let outcome = device.run_plan(&program, &plan, &requests).expect("runs");
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(outcome.outputs[i], nl.eval(req), "request {i}");
        }
        assert_eq!(outcome.slot(1), Slot { line: 4, offset: w });
        // Untouched lines keep resident data (here: still zero).
        assert!(!device.memory().bit(9, 0));
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn one_check_per_touched_block_line_on_either_axis() {
        // 7 co-packable requests over lines 0..7 of a 30/3 device span
        // block-lines 0..3: 3 block-line checks of 10 blocks each, on
        // whichever axis the plan selects — never 7 per-request checks.
        let (nor, _) = small_circuit();
        for axis in [Axis::Rows, Axis::Cols] {
            let mut device = PimDevice::new(30, 3).expect("device");
            let p = device.compile(&nor).expect("compiles");
            let requests: Vec<Vec<bool>> = (0..7).map(|_| vec![true, false, true]).collect();
            let outcome = run_packed(&mut device, &p, axis, &requests).expect("runs");
            assert_eq!(outcome.input_check.checked, 30, "{axis}");
            assert_eq!(outcome.stats.blocks_checked, 30, "{axis}");
        }
        // Co-packing shrinks the checked region: several times 7 requests
        // of a narrow program still fit 7 lines, i.e. the same 3
        // block-lines — where the row-only placement would spread over 21
        // lines and check more than twice as many blocks.
        let mut device = PimDevice::new(30, 3).expect("device");
        let p = device.compile_packed(&nor).expect("compiles");
        let per_line = 30 / p.footprint();
        assert!(per_line >= 3, "footprint {}", p.footprint());
        let requests: Vec<Vec<bool>> = (0..7 * per_line)
            .map(|i| (0..3).map(|b| (i * 3) >> b & 1 != 0).collect())
            .collect();
        let plan = PlacementPlan::pack(Axis::Rows, 30, p.footprint(), 7, per_line, requests.len())
            .expect("packs");
        let outcome = device.run_plan(&p, &plan, &requests).expect("runs");
        assert_eq!(
            outcome.input_check.checked,
            30,
            "{} co-packed requests still check 3 block-lines",
            requests.len()
        );
    }

    #[test]
    fn fault_during_column_axis_batch_is_repaired() {
        let (nor, nl) = small_circuit();
        let mut device = PimDeviceBuilder::new(30, 3)
            .on_batch_loaded(|pm| pm.inject_fault(1, 5))
            .build()
            .expect("device");
        let p = device.compile(&nor).expect("compiles");
        let requests: Vec<Vec<bool>> = (0..12u32)
            .map(|v| (0..3).map(|i| v >> i & 1 != 0).collect())
            .collect();
        // Column axis: input cell (1, 5) belongs to request 5 (line =
        // column 5, offset 0, program cell 1).
        let outcome = run_packed(&mut device, &p, Axis::Cols, &requests).expect("runs");
        assert_eq!(outcome.input_check.corrected, 1, "the strike was repaired");
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(outcome.outputs[i], nl.eval(req), "request {i}");
        }
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn scrub_pass_counts_an_uncorrectable_block_once() {
        // Two flips in block (0,0): the full-memory sweep finds it
        // uncorrectable once, and the struck block comes from that sweep,
        // not from a second check of the memory.
        let mut device = PimDevice::new(30, 3).expect("device");
        device.inject_fault(0, 0);
        device.inject_fault(1, 2);
        let report = device.scrub_pass().expect("scrubs");
        assert_eq!(report.check.uncorrectable, 1);
        assert_eq!(report.check.checked, 100);
        assert_eq!(report.struck_blocks, vec![(0, 0)]);
        assert_eq!(report.stats.errors_uncorrectable, 1);
        assert_eq!(report.stats.blocks_checked, 100);
        assert_eq!(device.retired().strikes(Axis::Rows, 0), 1);
        assert_eq!(device.retired().strikes(Axis::Cols, 0), 1);
    }

    #[test]
    fn full_column_wave_counts_an_uncorrectable_block_once() {
        // A full column wave pre-checks the whole memory in one sweep. Two
        // flips in block (9,9) are one uncorrectable verdict: block column
        // 9 is suspect, scrubbed (3 cycles) and struck, and the wave bills
        // its ten column checks once — localizing the verdict with a second
        // sweep would add 30 cycles and 100 block checks.
        let (nor, nl) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let p = device.compile(&nor).expect("compiles");
        let requests: Vec<Vec<bool>> = (0..30u32)
            .map(|v| (0..3).map(|i| v >> i & 1 != 0).collect())
            .collect();
        device.inject_fault(27, 27);
        device.inject_fault(28, 28);
        let outcome = run_packed(&mut device, &p, Axis::Cols, &requests).expect("runs");
        assert_eq!(outcome.input_check.uncorrectable, 1);
        assert_eq!(outcome.input_check.checked, 100);
        assert_eq!(outcome.stats.errors_uncorrectable, 1);
        assert_eq!(outcome.stats.blocks_checked, 100);
        assert_eq!(outcome.stats.mem_cycles, 159);
        let suspect = outcome.uncorrectable_input.as_ref().expect("suspect");
        assert_eq!(suspect.lines, vec![9]);
        assert_eq!(device.retired().strikes(Axis::Cols, 9), 1);
        for (i, req) in requests.iter().enumerate().take(27) {
            assert_eq!(outcome.outputs[i], nl.eval(req), "request {i}");
        }
    }

    #[test]
    fn plan_validation_guards_geometry_and_slot_width() {
        let (nor, _) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let p = device.compile(&nor).expect("compiles");
        let req = vec![true, false, true];
        // A plan built for another line length is refused.
        let foreign = PlacementPlan::pack(Axis::Rows, 60, p.footprint(), 60, 1, 1).expect("packs");
        assert_eq!(
            device
                .run_plan(&p, &foreign, std::slice::from_ref(&req))
                .unwrap_err(),
            DeviceError::PlanGeometry { plan: 60, n: 30 }
        );
        // Slots narrower than the footprint are refused.
        let narrow =
            PlacementPlan::pack(Axis::Rows, 30, p.footprint() - 1, 30, 1, 1).expect("packs");
        assert_eq!(
            device
                .run_plan(&p, &narrow, std::slice::from_ref(&req))
                .unwrap_err(),
            DeviceError::SlotTooNarrow {
                slot_width: p.footprint() - 1,
                footprint: p.footprint()
            }
        );
        // Plan/request arity mismatches are refused.
        let plan = PlacementPlan::pack(Axis::Rows, 30, p.footprint(), 30, 1, 2).expect("packs");
        assert_eq!(
            device
                .run_plan(&p, &plan, std::slice::from_ref(&req))
                .unwrap_err(),
            DeviceError::PlacementArity {
                rows: 2,
                requests: 1
            }
        );
    }

    #[test]
    fn one_check_per_touched_block_row() {
        let (nor, _) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let p = device.compile(&nor).expect("compiles");
        // 7 requests span block-rows 0, 1 and 2 (m = 3): 3 block-row checks
        // of 10 blocks each, not 7 per-request checks.
        let requests: Vec<Vec<bool>> = (0..7).map(|_| vec![true, false, true]).collect();
        let outcome = device.run_batch(&p, &requests).expect("runs");
        assert_eq!(outcome.input_check.checked, 30);
        assert_eq!(outcome.stats.blocks_checked, 30);
    }

    #[test]
    fn skip_policy_checks_nothing() {
        let (nor, _) = small_circuit();
        let mut device = PimDeviceBuilder::new(30, 3)
            .check_policy(CheckPolicy::Skip)
            .build()
            .expect("device");
        let p = device.compile(&nor).expect("compiles");
        let outcome = device
            .run_batch(&p, &[vec![true, true, true]])
            .expect("runs");
        assert_eq!(outcome.input_check, CheckReport::default());
        assert_eq!(outcome.stats.blocks_checked, 0);
    }

    #[test]
    fn paranoid_policy_enables_pre_write_checks() {
        let (nor, _) = small_circuit();
        let mut device = PimDeviceBuilder::new(30, 3)
            .check_policy(CheckPolicy::Paranoid)
            .build()
            .expect("device");
        assert!(device.memory().check_on_critical());
        let p = device.compile(&nor).expect("compiles");
        let outcome = device
            .run_batch(&p, &[vec![false, true, false]])
            .expect("runs");
        // Pre-write checks examine blocks beyond the one block-row input
        // check.
        assert!(outcome.stats.blocks_checked > outcome.input_check.checked as u64);
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn coverage_policy_uncovers_scratch_blocks() {
        let mut device = PimDeviceBuilder::new(9, 3)
            .coverage(CoveragePolicy::Uncovered(vec![(1, 1)]))
            .build()
            .expect("device");
        assert!(!device.memory().block_covered(1, 1));
        assert!(device.memory().block_covered(0, 0));
        device.inject_fault(4, 4); // inside the scratch block
        let report = device.check_all().expect("check");
        assert_eq!(
            report.corrected, 0,
            "scratch faults are invisible by design"
        );
    }

    #[test]
    fn placement_errors_are_reported() {
        let (nor, _) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let p = device.compile(&nor).expect("compiles");
        let req = vec![true, false, true];
        assert_eq!(
            device.run_batch(&p, &[]).unwrap_err(),
            DeviceError::EmptyBatch
        );
        assert_eq!(
            run_on_rows(&mut device, &p, &[0, 0], &[req.clone(), req.clone()]).unwrap_err(),
            DeviceError::RowConflict { row: 0 }
        );
        assert_eq!(
            run_on_rows(&mut device, &p, &[99], std::slice::from_ref(&req)).unwrap_err(),
            DeviceError::RowOutOfRange { row: 99, n: 30 }
        );
        assert_eq!(
            run_on_rows(&mut device, &p, &[0, 1], std::slice::from_ref(&req)).unwrap_err(),
            DeviceError::PlacementArity {
                rows: 2,
                requests: 1
            }
        );
        assert_eq!(
            device.run_batch(&p, &[vec![true]]).unwrap_err(),
            DeviceError::InputArity {
                request: 0,
                got: 1,
                want: 3
            }
        );
        let too_many: Vec<Vec<bool>> = (0..31).map(|_| req.clone()).collect();
        assert_eq!(
            device.run_batch(&p, &too_many).unwrap_err(),
            DeviceError::BatchTooLarge {
                requests: 31,
                rows: 30
            }
        );
    }

    #[test]
    fn oversized_program_is_rejected() {
        let (nor, _) = small_circuit();
        let mut wide = PimDevice::new(30, 3).expect("device");
        let p = wide.compile(&nor).expect("compiles");
        let mut narrow = PimDevice::new(9, 3).expect("device");
        let adopted = narrow.adopt(p.program());
        assert!(matches!(
            narrow
                .run_batch(&adopted, &[vec![true, false, true]])
                .unwrap_err(),
            DeviceError::ProgramTooWide {
                row_size: 30,
                n: 9,
                ..
            }
        ));
    }

    fn other_circuit() -> (NorNetlist, Netlist) {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(4);
        let g1 = b.and(ins[0], ins[1]);
        let g2 = b.or(ins[2], ins[3]);
        let g3 = b.xor(g1, g2);
        b.output(g3);
        let nl = b.finish();
        (nl.to_nor(), nl)
    }

    fn part_plan(line_len: usize, lines: std::ops::Range<usize>, width: usize) -> PlacementPlan {
        let avoid: Vec<usize> = (0..line_len).filter(|l| !lines.contains(l)).collect();
        PlacementPlan::pack_avoiding(
            Axis::Rows,
            line_len,
            width,
            lines.len(),
            usize::MAX,
            lines.len(),
            0,
            &avoid,
        )
        .expect("packs")
    }

    #[test]
    fn multi_program_wave_matches_serial_reference() {
        let (nor_a, nl_a) = small_circuit();
        let (nor_b, nl_b) = other_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let pa = device.compile(&nor_a).expect("compiles");
        let pb = device.compile(&nor_b).expect("compiles");
        let reqs_a: Vec<Vec<bool>> = (0..6u32)
            .map(|v| (0..3).map(|i| v >> i & 1 != 0).collect())
            .collect();
        let reqs_b: Vec<Vec<bool>> = (0..9u32)
            .map(|v| (0..4).map(|i| (v * 5) >> i & 1 != 0).collect())
            .collect();
        let plan_a = part_plan(30, 0..6, pa.footprint());
        let plan_b = part_plan(30, 6..15, pb.footprint());
        let outcome = device
            .run_wave(&[
                WavePart {
                    program: &pa,
                    plan: &plan_a,
                    inputs: InputRows::Vecs(&reqs_a),
                },
                WavePart {
                    program: &pb,
                    plan: &plan_b,
                    inputs: InputRows::Vecs(&reqs_b),
                },
            ])
            .expect("runs");
        assert_eq!((outcome.parts[0].len(), outcome.parts[1].len()), (6, 9));
        for (i, req) in reqs_a.iter().enumerate() {
            assert_eq!(outcome.parts[0][i], nl_a.eval(req), "part A request {i}");
        }
        for (i, req) in reqs_b.iter().enumerate() {
            assert_eq!(outcome.parts[1][i], nl_b.eval(req), "part B request {i}");
        }
        // The shared pre-check sweeps the union of touched block-lines
        // once: lines 0..15 of a 30/3 device are block-lines 0..5 — five
        // block-line checks of 10 blocks each, not one sweep per part.
        assert_eq!(outcome.input_check.checked, 50);
        assert_eq!(
            outcome.gate_evals,
            pa.gate_cycles() * 6 + pb.gate_cycles() * 9
        );
        assert!(device.memory().verify_consistency().is_ok());
    }

    #[test]
    fn multi_wave_fault_marks_only_the_covered_part_suspect() {
        let (nor_a, _) = small_circuit();
        let (nor_b, nl_b) = other_circuit();
        // A stuck-at fault on line 1 (block-line 0): part A on lines 0..3
        // is covered, part B on lines 6..9 is not.
        let mut device = PimDeviceBuilder::new(30, 3)
            .on_batch_loaded(|pm| {
                pm.set_stuck(1, 2, true);
                pm.set_stuck(1, 4, true);
            })
            .build()
            .expect("device");
        let pa = device.compile(&nor_a).expect("compiles");
        let pb = device.compile(&nor_b).expect("compiles");
        let reqs_a: Vec<Vec<bool>> = (0..3).map(|_| vec![true, false, true]).collect();
        let reqs_b: Vec<Vec<bool>> = (0..3).map(|_| vec![true, true, false, false]).collect();
        let plan_a = part_plan(30, 0..3, pa.footprint());
        let plan_b = part_plan(30, 6..9, pb.footprint());
        let outcome = device
            .run_wave(&[
                WavePart {
                    program: &pa,
                    plan: &plan_a,
                    inputs: InputRows::Vecs(&reqs_a),
                },
                WavePart {
                    program: &pb,
                    plan: &plan_b,
                    inputs: InputRows::Vecs(&reqs_b),
                },
            ])
            .expect("runs");
        let unc = outcome
            .uncorrectable_input
            .as_ref()
            .expect("two stuck cells in one block are uncorrectable");
        assert!(unc.covers_line(1), "part A's lines are suspect");
        assert!(!unc.covers_line(7), "part B's lines are clean");
        for (i, req) in reqs_b.iter().enumerate() {
            assert_eq!(outcome.parts[1][i], nl_b.eval(req), "part B request {i}");
        }
    }

    #[test]
    fn repeated_batches_reuse_rows_correctly() {
        let (nor, nl) = small_circuit();
        let mut device = PimDevice::new(30, 3).expect("device");
        let p = device.compile(&nor).expect("compiles");
        for round in 0..4u32 {
            let requests: Vec<Vec<bool>> = (0..8u32)
                .map(|v| (0..3).map(|i| (v + round) >> i & 1 != 0).collect())
                .collect();
            let outcome = device.run_batch(&p, &requests).expect("runs");
            for (i, req) in requests.iter().enumerate() {
                assert_eq!(
                    outcome.outputs[i],
                    nl.eval(req),
                    "round {round}, request {i}"
                );
            }
            assert!(
                device.memory().verify_consistency().is_ok(),
                "round {round}"
            );
        }
    }
}
