//! Batch outcomes: per-request outputs plus whole-batch accounting.

use super::placement::{Axis, PlacementPlan, Slot};
use pimecc_core::{CheckReport, MachineStats};

/// Detail attached to a [`BatchOutcome`] when the batch's checks reported
/// **uncorrectable** errors on block-lines the placement touched.
///
/// The outputs of every request whose slot sits on one of these
/// block-lines are *suspect* — the diagonal code detected a multi-bit (or
/// stuck-at) pattern it refused to guess-correct, so the data the program
/// consumed or produced there cannot be trusted. Callers that previously
/// keyed off `input_check.is_clean()` alone can now tell *which* requests
/// are affected ([`BatchOutcome::suspect_requests`]) instead of discarding
/// the whole batch. The cluster scheduler uses exactly this detail to
/// suppress and retry the affected tickets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncorrectableInput {
    /// Block-line indices (on the plan's axis) with uncorrectable
    /// verdicts, ascending.
    pub lines: Vec<usize>,
    /// Block size `m`: slot line `l` belongs to block-line `l / block`.
    pub block: usize,
}

impl UncorrectableInput {
    /// Whether a slot on physical line `line` is affected.
    pub fn covers_line(&self, line: usize) -> bool {
        self.lines.binary_search(&(line / self.block)).is_ok()
    }
}

/// Arena-backed per-request outputs of one batch: every request's bits in
/// **one contiguous allocation**, `width` bits per request, request-major.
///
/// The previous API allocated one `Vec<bool>` per request — at millions of
/// requests per second the readback allocation dominated. The arena is a
/// single buffer; [`OutputArena::get`] hands out borrowed slices, and the
/// whole buffer can be moved behind an `Arc` once per batch
/// ([`OutputArena::into_bits`]) so per-ticket results share it without
/// copying.
///
/// Iteration yields `&[bool]` per request:
///
/// ```
/// # use pimecc::device::OutputArena;
/// # let arena = OutputArena::default();
/// for request_bits in &arena {
///     assert_eq!(request_bits.len(), arena.width());
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[must_use]
pub struct OutputArena {
    /// All output bits, request-major: request `i` owns
    /// `bits[i*width .. (i+1)*width]`.
    pub(crate) bits: Vec<bool>,
    /// Output bits per request.
    pub(crate) width: usize,
    /// Requests stored — tracked explicitly so zero-output programs still
    /// count their requests.
    pub(crate) requests: usize,
}

impl OutputArena {
    pub(crate) fn with_capacity(width: usize, requests: usize) -> Self {
        OutputArena {
            bits: Vec::with_capacity(width * requests),
            width,
            requests: 0,
        }
    }

    /// Output bits per request.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of requests stored.
    pub fn len(&self) -> usize {
        self.requests
    }

    /// Whether the arena holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests == 0
    }

    /// Request `i`'s output bits.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> &[bool] {
        assert!(i < self.requests, "request {i} of {}", self.requests);
        &self.bits[i * self.width..(i + 1) * self.width]
    }

    /// Borrowed per-request slices, in submission order.
    pub fn iter(&self) -> OutputArenaIter<'_> {
        OutputArenaIter {
            arena: self,
            next: 0,
        }
    }

    /// The whole request-major bit buffer (request `i` owns
    /// `[i*width, (i+1)*width)`).
    pub fn as_bits(&self) -> &[bool] {
        &self.bits
    }

    /// Consumes the arena into its flat buffer — the cluster dispatch
    /// moves this behind one `Arc` per batch and slices it per ticket.
    pub fn into_bits(self) -> Vec<bool> {
        self.bits
    }
}

impl std::ops::Index<usize> for OutputArena {
    type Output = [bool];

    fn index(&self, i: usize) -> &[bool] {
        self.get(i)
    }
}

/// Iterator over an [`OutputArena`]'s per-request slices.
#[derive(Debug, Clone)]
pub struct OutputArenaIter<'a> {
    arena: &'a OutputArena,
    next: usize,
}

impl<'a> Iterator for OutputArenaIter<'a> {
    type Item = &'a [bool];

    fn next(&mut self) -> Option<&'a [bool]> {
        if self.next >= self.arena.requests {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some(&self.arena.bits[i * self.arena.width..(i + 1) * self.arena.width])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.arena.requests - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OutputArenaIter<'_> {}

impl<'a> IntoIterator for &'a OutputArena {
    type Item = &'a [bool];
    type IntoIter = OutputArenaIter<'a>;

    fn into_iter(self) -> OutputArenaIter<'a> {
        self.iter()
    }
}

/// Result of one batched execution
/// ([`PimDevice::run_batch`](crate::device::PimDevice::run_batch) /
/// [`PimDevice::run_plan`](crate::device::PimDevice::run_plan)).
///
/// The stats are a *delta*: only the cycles and events this batch caused,
/// so dividing work by `stats.mem_cycles` yields the batch's own
/// throughput, independent of whatever ran on the device before.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct BatchOutcome {
    /// Primary outputs per request, in submission order, arena-backed
    /// (request `i` is `outputs.get(i)`).
    pub outputs: OutputArena,
    /// Where each request executed: the axis, and one (line, offset) slot
    /// per request (parallel to `outputs`).
    pub placement: PlacementPlan,
    /// Aggregated result of the pre-execution input checks, one per
    /// *touched block-line* (not one per request — the batch amortization).
    pub input_check: CheckReport,
    /// Machine activity attributable to this batch.
    pub stats: MachineStats,
    /// Gate evaluations performed: program gate cycles × batch size, since
    /// every gate cycle evaluates once in each occupied slot.
    pub gate_evals: u64,
    /// `Some` when a pre- or post-execution check reported uncorrectable
    /// errors on touched block-lines: the affected requests' outputs are
    /// suspect and must not be trusted. See [`UncorrectableInput`].
    pub uncorrectable_input: Option<UncorrectableInput>,
}

impl BatchOutcome {
    /// Number of requests served.
    pub fn requests(&self) -> usize {
        self.outputs.len()
    }

    /// The axis the batch occupied.
    pub fn axis(&self) -> Axis {
        self.placement.axis()
    }

    /// The slot request `i` executed in.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn slot(&self, i: usize) -> Slot {
        self.placement.slots()[i]
    }

    /// The headline throughput figure: gate evaluations per MEM clock
    /// cycle. Grows towards the batch size as per-batch overheads amortize
    /// — a serial one-row flow is pinned below 1.
    pub fn gate_evals_per_mem_cycle(&self) -> f64 {
        if self.stats.mem_cycles == 0 {
            0.0
        } else {
            self.gate_evals as f64 / self.stats.mem_cycles as f64
        }
    }

    /// Indices of requests whose outputs are suspect because their slots
    /// sit on block-lines with uncorrectable check verdicts. Empty when
    /// the batch was clean — those outputs are verified-correct.
    pub fn suspect_requests(&self) -> Vec<usize> {
        let Some(unc) = &self.uncorrectable_input else {
            return Vec::new();
        };
        self.placement
            .slots()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| unc.covers_line(s.line).then_some(i))
            .collect()
    }

    /// MEM cycles spent per request — the batch-amortized latency.
    pub fn mem_cycles_per_request(&self) -> f64 {
        if self.outputs.is_empty() {
            0.0
        } else {
            self.stats.mem_cycles as f64 / self.outputs.len() as f64
        }
    }
}

/// Result of one wave of co-located parts (the device's internal
/// `run_wave`): the per-part output arenas plus accounting shared across
/// every part — one pre-check sweep over the union of touched
/// block-lines, one stats delta, one suspect verdict.
#[derive(Debug)]
pub(crate) struct MultiBatchOutcome {
    /// Per-part outputs, parallel to the wave's parts; part `p`, request
    /// `i` is `parts[p].get(i)`.
    pub(crate) parts: Vec<OutputArena>,
    /// Aggregated pre-execution input checks over the **union** of
    /// block-lines the parts touch — co-residency shares each check.
    pub(crate) input_check: CheckReport,
    /// Machine activity attributable to this wave (delta, as in
    /// [`BatchOutcome`]).
    pub(crate) stats: MachineStats,
    /// Gate evaluations: `Σ part gate cycles × part batch size`.
    pub(crate) gate_evals: u64,
    /// Uncorrectable verdicts on touched block-lines, shared across the
    /// parts (block-lines are physical; [`UncorrectableInput::covers_line`]
    /// applies to any part's slot lines).
    pub(crate) uncorrectable_input: Option<UncorrectableInput>,
}
