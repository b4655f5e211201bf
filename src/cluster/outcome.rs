//! Cluster outcomes: per-ticket results plus whole-cluster accounting.

use super::error::ClusterError;
use super::queue::Ticket;
use crate::device::Axis;
use pimecc_core::{CheckReport, MachineStats};
use std::sync::Arc;
use std::time::Duration;

/// One request's output bits, sliced out of its batch's **shared**
/// readback arena: every result of a batch points into one
/// `Arc<[bool]>`, so resolving a million tickets costs one allocation
/// per dispatched batch instead of one `Vec<bool>` per request.
///
/// Derefs to `&[bool]`, so indexing, iteration and comparisons read like
/// the old owned vector; [`OutputSlice::as_slice`] is the explicit
/// accessor.
#[derive(Debug, Clone)]
pub struct OutputSlice {
    /// The batch's whole request-major readback buffer.
    bits: Arc<[bool]>,
    /// First bit of this request's window.
    start: usize,
    /// Bits in the window (= the program's output count).
    len: usize,
}

impl OutputSlice {
    pub(crate) fn new(bits: Arc<[bool]>, start: usize, len: usize) -> Self {
        debug_assert!(start + len <= bits.len());
        OutputSlice { bits, start, len }
    }

    /// The output bits.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits[self.start..self.start + self.len]
    }
}

impl std::ops::Deref for OutputSlice {
    type Target = [bool];

    fn deref(&self) -> &[bool] {
        self.as_slice()
    }
}

impl Default for OutputSlice {
    fn default() -> Self {
        OutputSlice {
            bits: Arc::from([] as [bool; 0]),
            start: 0,
            len: 0,
        }
    }
}

impl From<Vec<bool>> for OutputSlice {
    fn from(bits: Vec<bool>) -> Self {
        let len = bits.len();
        OutputSlice {
            bits: bits.into(),
            start: 0,
            len,
        }
    }
}

impl PartialEq for OutputSlice {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OutputSlice {}

impl PartialEq<[bool]> for OutputSlice {
    fn eq(&self, other: &[bool]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[bool]> for OutputSlice {
    fn eq(&self, other: &&[bool]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<bool>> for OutputSlice {
    fn eq(&self, other: &Vec<bool>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<OutputSlice> for Vec<bool> {
    fn eq(&self, other: &OutputSlice) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Result of one submitted request, delivered inside a [`ClusterOutcome`]
/// (or, on the async service, by
/// [`Ticket::wait`](crate::cluster::handle::Ticket::wait)).
///
/// Equality compares the *model-level* identity of the result — ticket,
/// placement and outputs — and deliberately ignores the two host-side
/// latency clocks, which vary run to run: two deterministic replays of the
/// same submission order compare equal even though their wall-clock
/// timings differ.
///
/// A *partitioned* request (see
/// [`PimCluster::submit_partitioned`](crate::cluster::PimCluster::submit_partitioned))
/// runs as many sub-programs but resolves to one merged result: placed at
/// its last sub-program, with `attempts` the worst sub-program's count,
/// `attempt_latencies[k]` the sum over its sub-programs of their `k`-th
/// attempt, `execute_latency` their total, and `queue_latency` ending at
/// the dispatch of its first sub-program. The contract below holds for
/// both kinds: `attempt_latencies` has `attempts` entries and sums to
/// `execute_latency`.
#[derive(Debug, Clone)]
pub struct TicketResult {
    /// The submission this result answers.
    pub ticket: Ticket,
    /// Shard the request executed on.
    pub shard: usize,
    /// Dispatch wave (0-based, within the flush) the request rode.
    pub wave: usize,
    /// Axis the wave occupied on its shard.
    pub axis: Axis,
    /// Line (row under [`Axis::Rows`], column under [`Axis::Cols`]) the
    /// request executed on.
    pub line: usize,
    /// First cell of the request's slot within its line (0 unless
    /// co-packed).
    pub offset: usize,
    /// The program's primary outputs for this request — a window into the
    /// batch's shared readback arena (see [`OutputSlice`]).
    pub outputs: OutputSlice,
    /// Execution attempts this result took: `1` for the common untouched
    /// request, `1 + k` when `k` waves suppressed it over uncorrectable
    /// input verdicts before a clean wave served it. A partitioned
    /// request reports its worst sub-program's count.
    pub attempts: u32,
    /// Host wall-clock time the request sat in the queue, **cumulative
    /// across attempts**: original submission to the dispatch of the wave
    /// that finally served it. A partitioned request counts from
    /// submission to the dispatch of its first sub-program (the waits
    /// between its dependency levels are in neither clock). Excluded from
    /// equality.
    pub queue_latency: Duration,
    /// Host wall-clock execute time, **cumulative across attempts** (the
    /// sum of `attempt_latencies`) — what the caller actually waited on
    /// shards, not just the final clean batch; for a partitioned request,
    /// summed over every sub-program as well. Excluded from equality.
    pub execute_latency: Duration,
    /// Per-attempt execute latency, oldest first (`attempts` entries).
    /// For a partitioned request, entry `k` sums the `k`-th attempt of
    /// every sub-program that made one. Excluded from equality.
    pub attempt_latencies: Vec<Duration>,
}

impl PartialEq for TicketResult {
    fn eq(&self, other: &Self) -> bool {
        // Latency clocks are measurements, not identity — see type docs.
        self.ticket == other.ticket
            && self.shard == other.shard
            && self.wave == other.wave
            && self.axis == other.axis
            && self.line == other.line
            && self.offset == other.offset
            && self.outputs == other.outputs
            && self.attempts == other.attempts
    }
}

impl Eq for TicketResult {}

/// A request the cluster gave up on: every allowed attempt landed on
/// lines with uncorrectable check verdicts, so no trustworthy output
/// exists. Surfaced in [`ClusterOutcome::failed`] (sync front-end) and as
/// [`ClusterError::RequestFailed`] from
/// [`Ticket::wait`](crate::cluster::handle::Ticket::wait) /
/// [`ClusterHandle::drain`](crate::cluster::handle::ClusterHandle::drain)
/// (service front-end) — the dead-letter half of the no-silently-wrong-
/// answers contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRequest {
    /// The submission that failed.
    pub ticket: Ticket,
    /// Attempts made before giving up (`1 + max_retries`).
    pub attempts: u32,
}

impl FailedRequest {
    /// The explicit error this dead-letter resolves to.
    pub fn error(&self) -> ClusterError {
        ClusterError::RequestFailed {
            ticket: self.ticket.id(),
            attempts: self.attempts,
        }
    }
}

/// One shard's share of a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardReport {
    /// Batches the shard executed.
    pub batches: u64,
    /// Requests the shard served.
    pub requests: u64,
    /// MEM cycles the shard was busy (its own clock; shards tick in
    /// parallel, so these do **not** sum to wall cycles).
    pub busy_mem_cycles: u64,
    /// Gate evaluations the shard performed.
    pub gate_evals: u64,
    /// Crossbar lines its batches occupied, summed over batches.
    pub lines_occupied: u64,
    /// Crossbar lines its batches had available (batches × n).
    pub line_capacity: u64,
    /// Cells its batches reserved (requests × slot width), summed over
    /// batches.
    pub cells_occupied: u64,
    /// Cells its batches had available (batches × n²).
    pub cell_capacity: u64,
    /// This shard's share of the pre-execution input checks — the
    /// per-shard attribution the cluster-wide
    /// [`ClusterOutcome::input_check`] aggregate loses, and the signal a
    /// health loop's error budget feeds on.
    pub input_check: CheckReport,
}

impl ShardReport {
    /// Fraction of the flush's wall-clock MEM cycles this shard was busy —
    /// 1.0 is a shard that never waited on the slowest member of any wave.
    pub fn utilization(&self, wall_mem_cycles: u64) -> f64 {
        if wall_mem_cycles == 0 {
            0.0
        } else {
            self.busy_mem_cycles as f64 / wall_mem_cycles as f64
        }
    }

    /// Fraction of dispatched *lines* that carried at least one request —
    /// the occupancy metric of the row-only scheduler, blind to how much
    /// of each line is used.
    pub fn line_utilization(&self) -> f64 {
        if self.line_capacity == 0 {
            0.0
        } else {
            self.lines_occupied as f64 / self.line_capacity as f64
        }
    }

    /// Fraction of dispatched *cells* reserved by placed requests — the
    /// metric that makes co-packing gains visible: a full-width program
    /// and four co-packed narrow requests occupy the same lines but very
    /// different cell counts.
    pub fn cell_utilization(&self) -> f64 {
        if self.cell_capacity == 0 {
            0.0
        } else {
            self.cells_occupied as f64 / self.cell_capacity as f64
        }
    }
}

/// Result of one [`PimCluster::flush`](crate::cluster::PimCluster::flush):
/// every ticket served since the previous flush, with the cluster-wide and
/// per-shard accounting.
///
/// Two clocks matter. `stats` sums the activity of every shard (total
/// machine work, what an energy model wants); `wall_mem_cycles` counts
/// elapsed MEM cycles — per wave, only the *slowest* shard, because shards
/// tick in parallel. Throughput figures use the wall clock.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct ClusterOutcome {
    /// One result per served ticket, sorted by ticket.
    pub results: Vec<TicketResult>,
    /// Summed machine activity of all shards.
    pub stats: MachineStats,
    /// Aggregated pre-execution input checks of every dispatched batch.
    pub input_check: CheckReport,
    /// Total gate evaluations performed across shards.
    pub gate_evals: u64,
    /// Elapsed MEM cycles: per wave the maximum over the shards that ran,
    /// summed over waves.
    pub wall_mem_cycles: u64,
    /// Dispatch waves the flush needed (0 for an empty flush).
    pub waves: usize,
    /// Per-shard share of the flush, indexed by shard.
    pub shard_reports: Vec<ShardReport>,
    /// Requests that exhausted their retry budget, sorted by ticket.
    /// These tickets have **no** entry in `results` — they resolve to an
    /// explicit error instead of an output.
    pub failed: Vec<FailedRequest>,
    /// Re-dispatches performed: suppressed suspect results that were sent
    /// back to a later wave (each retried ticket counts once per extra
    /// attempt).
    pub retries: u64,
}

impl ClusterOutcome {
    pub(crate) fn empty(shards: usize) -> Self {
        ClusterOutcome {
            results: Vec::new(),
            stats: MachineStats::default(),
            input_check: CheckReport::default(),
            gate_evals: 0,
            wall_mem_cycles: 0,
            waves: 0,
            shard_reports: vec![ShardReport::default(); shards],
            failed: Vec::new(),
            retries: 0,
        }
    }

    /// Folds `other` (a later partial flush) into this outcome — used to
    /// combine auto-flushed waves with the final explicit flush.
    pub(crate) fn merge(&mut self, other: ClusterOutcome) {
        self.results.extend(other.results);
        self.failed.extend(other.failed);
        self.failed.sort_by_key(|f| f.ticket);
        self.retries += other.retries;
        self.stats += other.stats;
        self.input_check += other.input_check;
        self.gate_evals += other.gate_evals;
        self.wall_mem_cycles += other.wall_mem_cycles;
        self.waves += other.waves;
        for (mine, theirs) in self.shard_reports.iter_mut().zip(&other.shard_reports) {
            mine.batches += theirs.batches;
            mine.requests += theirs.requests;
            mine.busy_mem_cycles += theirs.busy_mem_cycles;
            mine.gate_evals += theirs.gate_evals;
            mine.lines_occupied += theirs.lines_occupied;
            mine.line_capacity += theirs.line_capacity;
            mine.cells_occupied += theirs.cells_occupied;
            mine.cell_capacity += theirs.cell_capacity;
            mine.input_check += theirs.input_check;
        }
    }

    /// Number of requests served.
    pub fn requests(&self) -> usize {
        self.results.len()
    }

    /// The outputs of one submission, if this flush served it.
    ///
    /// `results` is sorted by ticket, so the lookup is a binary search.
    pub fn outputs_for(&self, ticket: Ticket) -> Option<&[bool]> {
        self.results
            .binary_search_by_key(&ticket, |r| r.ticket)
            .ok()
            .map(|i| self.results[i].outputs.as_slice())
    }

    /// The headline figure: aggregate gate evaluations per *elapsed* MEM
    /// cycle. Grows with both batch depth (amortization inside a shard)
    /// and shard count (waves run in parallel).
    pub fn gate_evals_per_mem_cycle(&self) -> f64 {
        if self.wall_mem_cycles == 0 {
            0.0
        } else {
            self.gate_evals as f64 / self.wall_mem_cycles as f64
        }
    }

    /// Elapsed MEM cycles per request — the cluster-amortized latency.
    pub fn mem_cycles_per_request(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.wall_mem_cycles as f64 / self.results.len() as f64
        }
    }

    /// Cluster-wide [`ShardReport::line_utilization`]: occupied lines over
    /// dispatched line capacity.
    pub fn line_utilization(&self) -> f64 {
        let occupied: u64 = self.shard_reports.iter().map(|r| r.lines_occupied).sum();
        let capacity: u64 = self.shard_reports.iter().map(|r| r.line_capacity).sum();
        if capacity == 0 {
            0.0
        } else {
            occupied as f64 / capacity as f64
        }
    }

    /// Cluster-wide [`ShardReport::cell_utilization`]: reserved cells over
    /// dispatched cell capacity — the packing-density headline.
    pub fn cell_utilization(&self) -> f64 {
        let occupied: u64 = self.shard_reports.iter().map(|r| r.cells_occupied).sum();
        let capacity: u64 = self.shard_reports.iter().map(|r| r.cell_capacity).sum();
        if capacity == 0 {
            0.0
        } else {
            occupied as f64 / capacity as f64
        }
    }

    /// Requests per occupied line, averaged over the flush — 1.0 is
    /// row-only placement; co-packing pushes it towards
    /// `line_len / footprint`.
    pub fn packing_density(&self) -> f64 {
        let requests: u64 = self.shard_reports.iter().map(|r| r.requests).sum();
        let lines: u64 = self.shard_reports.iter().map(|r| r.lines_occupied).sum();
        if lines == 0 {
            0.0
        } else {
            requests as f64 / lines as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ticket: u64) -> TicketResult {
        TicketResult {
            ticket: Ticket(ticket),
            shard: 0,
            wave: 0,
            axis: Axis::Rows,
            line: ticket as usize,
            offset: 0,
            outputs: vec![ticket % 2 == 0].into(),
            attempts: 1,
            queue_latency: Duration::ZERO,
            execute_latency: Duration::ZERO,
            attempt_latencies: vec![Duration::ZERO],
        }
    }

    #[test]
    fn equality_ignores_the_host_latency_clocks() {
        let a = result(3);
        let mut b = result(3);
        b.queue_latency = Duration::from_millis(7);
        b.execute_latency = Duration::from_micros(11);
        b.attempt_latencies = vec![Duration::from_micros(11)];
        assert_eq!(a, b, "latencies are measurements, not identity");
        let mut c = result(3);
        c.offset = 1;
        assert_ne!(a, c);
        // Attempt counts *are* identity: a retried result is a different
        // scheduling outcome than a first-try one.
        let mut d = result(3);
        d.attempts = 2;
        assert_ne!(a, d);
    }

    #[test]
    fn outputs_for_finds_tickets_by_binary_search() {
        let mut o = ClusterOutcome::empty(1);
        o.results = vec![result(1), result(4), result(9)];
        assert_eq!(o.outputs_for(Ticket(4)), Some([true].as_slice()));
        assert_eq!(o.outputs_for(Ticket(9)), Some([false].as_slice()));
        assert_eq!(o.outputs_for(Ticket(2)), None);
    }

    #[test]
    fn merge_accumulates_both_clocks_and_shard_reports() {
        let mut a = ClusterOutcome::empty(2);
        a.results = vec![result(0)];
        a.wall_mem_cycles = 100;
        a.waves = 1;
        a.gate_evals = 50;
        a.shard_reports[0].busy_mem_cycles = 100;
        a.shard_reports[0].requests = 1;
        a.shard_reports[0].lines_occupied = 1;
        a.shard_reports[0].line_capacity = 30;
        a.shard_reports[0].cells_occupied = 10;
        a.shard_reports[0].cell_capacity = 900;

        let mut b = ClusterOutcome::empty(2);
        b.results = vec![result(1)];
        b.wall_mem_cycles = 40;
        b.waves = 1;
        b.gate_evals = 30;
        b.shard_reports[1].busy_mem_cycles = 40;
        b.shard_reports[1].requests = 3;
        b.shard_reports[1].lines_occupied = 2;
        b.shard_reports[1].line_capacity = 30;
        b.shard_reports[1].cells_occupied = 30;
        b.shard_reports[1].cell_capacity = 900;

        a.failed.push(FailedRequest {
            ticket: Ticket(7),
            attempts: 3,
        });
        b.retries = 2;
        b.failed.push(FailedRequest {
            ticket: Ticket(5),
            attempts: 3,
        });

        a.merge(b);
        assert_eq!(a.requests(), 2);
        assert_eq!(a.retries, 2);
        assert_eq!(
            a.failed.iter().map(|f| f.ticket).collect::<Vec<_>>(),
            vec![Ticket(5), Ticket(7)],
            "dead-letters merge sorted by ticket"
        );
        assert_eq!(a.wall_mem_cycles, 140);
        assert_eq!(a.waves, 2);
        assert_eq!(a.gate_evals, 80);
        assert_eq!(a.shard_reports[0].requests, 1);
        assert_eq!(a.shard_reports[1].busy_mem_cycles, 40);
        assert!((a.shard_reports[1].utilization(140) - 40.0 / 140.0).abs() < 1e-12);
        assert!((a.gate_evals_per_mem_cycle() - 80.0 / 140.0).abs() < 1e-12);
        assert!((a.mem_cycles_per_request() - 70.0).abs() < 1e-12);
        // Placement accounting merges per shard and aggregates.
        assert_eq!(a.shard_reports[1].lines_occupied, 2);
        assert!((a.shard_reports[1].line_utilization() - 2.0 / 30.0).abs() < 1e-12);
        assert!((a.shard_reports[1].cell_utilization() - 30.0 / 900.0).abs() < 1e-12);
        assert!((a.line_utilization() - 3.0 / 60.0).abs() < 1e-12);
        assert!((a.cell_utilization() - 40.0 / 1800.0).abs() < 1e-12);
        assert!((a.packing_density() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn utilizations_of_an_empty_outcome_are_zero() {
        let o = ClusterOutcome::empty(2);
        assert_eq!(o.line_utilization(), 0.0);
        assert_eq!(o.cell_utilization(), 0.0);
        assert_eq!(o.packing_density(), 0.0);
        assert_eq!(o.shard_reports[0].line_utilization(), 0.0);
        assert_eq!(o.shard_reports[0].cell_utilization(), 0.0);
    }
}
