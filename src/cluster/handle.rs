//! The caller side of a spawned cluster service: cheap, cloneable
//! [`ClusterHandle`]s and waitable [`Ticket`]s.
//!
//! [`PimClusterBuilder::spawn`](crate::cluster::PimClusterBuilder::spawn)
//! moves the shard pool into a dedicated worker thread and returns a
//! `ClusterHandle`. The handle's [`submit`](ClusterHandle::submit) only
//! allocates a ticket id and pushes the request down an MPSC channel — it
//! **never blocks on shard execution** — and the returned [`Ticket`] is a
//! future: [`Ticket::wait`] parks the caller until the worker has served
//! that request, [`Ticket::try_wait`] polls, and
//! [`ClusterHandle::drain`] collects everything outstanding in bulk.
//!
//! Results flow back through a shared *board*: every flush the worker
//! completes publishes its per-ticket results (and its aggregate
//! accounting) there, and waiters are woken. Dropping every handle — or
//! calling [`ClusterHandle::close`] — shuts the worker down gracefully:
//! it serves whatever is still queued, marks the board closed, and exits.

use super::error::ClusterError;
use super::health::HealthSnapshot;
use super::outcome::{ClusterOutcome, FailedRequest, TicketResult};
use super::queue::{self, Pending, PendingPartitioned};
use super::service::{
    validate_partitioned, validate_submission, ClusterCore, FlushReport, ServiceConfig,
};
use super::worker::{self, Command};
use crate::compiler::{self, PartitionedProgram};
use crate::device::{CompiledProgram, ProgramCache};
use pimecc_netlist::NorNetlist;
use pimecc_simpler::Program;
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// The result board shared by the worker, every handle and every ticket.
pub(crate) struct Shared {
    state: Mutex<Board>,
    /// Notified on every publish, close and poison: ticket waiters and
    /// drainers re-check.
    done: Condvar,
    /// Notified when in-flight submissions resolve: backpressured
    /// producers re-check the queue bound.
    space: Condvar,
    /// The worker's latest [`HealthSnapshot`], refreshed after every
    /// flush and scrub pass. Its own lock so metrics reads never contend
    /// with the result board.
    health: Mutex<HealthSnapshot>,
}

/// The board itself (under [`Shared::state`]).
struct Board {
    /// Completed, unclaimed results keyed by ticket id. A `BTreeMap` so a
    /// bulk drain comes out sorted by ticket.
    results: BTreeMap<u64, TicketResult>,
    /// Tickets a failed flush abandoned, with that flush's error.
    dropped: HashMap<u64, ClusterError>,
    /// Dead-lettered requests: tickets whose every dispatch attempt drew
    /// an uncorrectable ECC verdict. Resolved (to
    /// [`ClusterError::RequestFailed`]) exactly once across waits and
    /// drains, like results. A `BTreeMap` so a bulk drain comes out
    /// sorted by ticket.
    failed: BTreeMap<u64, FailedRequest>,
    /// Aggregate accounting (stats, clocks, waves, shard reports) of
    /// every flush published since the last drain; its `results` vector
    /// stays empty — per-ticket results live in the map above so waits
    /// and drains claim each exactly once.
    bank: ClusterOutcome,
    /// Submissions accepted but not yet resolved (served or dropped).
    inflight: usize,
    /// Every ticket id below this has been resolved (flushes resolve the
    /// FIFO queue in contiguous id ranges). A resolved id absent from
    /// `results`/`dropped` was already claimed — waiting on it again is
    /// an error, not a park-forever.
    resolved_below: u64,
    /// Shutdown was requested; producers must stop submitting.
    closing: bool,
    /// The worker exited; everything ever submitted has been resolved.
    closed: bool,
    /// The worker panicked; unserved submissions are lost.
    poisoned: bool,
}

impl Shared {
    fn new(shards: usize) -> Self {
        Shared {
            state: Mutex::new(Board {
                results: BTreeMap::new(),
                dropped: HashMap::new(),
                failed: BTreeMap::new(),
                bank: ClusterOutcome::empty(shards),
                inflight: 0,
                resolved_below: 0,
                closing: false,
                closed: false,
                poisoned: false,
            }),
            done: Condvar::new(),
            space: Condvar::new(),
            health: Mutex::new(HealthSnapshot::empty(shards)),
        }
    }

    /// Replaces the published health snapshot (worker-side).
    pub(crate) fn set_health(&self, snapshot: HealthSnapshot) {
        *self.health.lock().unwrap_or_else(|e| e.into_inner()) = snapshot;
    }

    /// Locks the board, riding through poisoned mutexes: the board must
    /// stay readable even after a worker panic (that is the whole point
    /// of the poison flag).
    fn lock(&self) -> MutexGuard<'_, Board> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes one flush: per-ticket results onto the board, aggregates
    /// into the bank, dropped tickets marked with the flush's error, and
    /// every waiter woken.
    pub(crate) fn publish(&self, report: FlushReport) {
        let FlushReport {
            mut outcome,
            dropped,
            error,
        } = report;
        // Dead letters resolve their tickets (to an explicit error) the
        // same way results do; they move onto the board, not into the
        // bank, so waits and drains claim each exactly once.
        let failed = std::mem::take(&mut outcome.failed);
        let resolved = outcome.results.len() + dropped.len() + failed.len();
        let resolved_below = outcome
            .results
            .iter()
            .map(|r| r.ticket.id())
            .chain(dropped.iter().map(|t| t.id()))
            .chain(failed.iter().map(|f| f.ticket.id()))
            .max()
            .map(|max| max + 1);
        let mut board = self.lock();
        if let Some(below) = resolved_below {
            board.resolved_below = board.resolved_below.max(below);
        }
        for result in outcome.results.drain(..) {
            board.results.insert(result.ticket.id(), result);
        }
        for f in failed {
            board.failed.insert(f.ticket.id(), f);
        }
        board.bank.merge(outcome);
        if let Some(error) = error {
            for ticket in dropped {
                board.dropped.insert(ticket.id(), error.clone());
            }
        }
        board.inflight = board.inflight.saturating_sub(resolved);
        drop(board);
        self.done.notify_all();
        self.space.notify_all();
    }

    /// Marks the worker's clean exit: nothing submitted remains
    /// unresolved, waiters on absent tickets may stop waiting.
    pub(crate) fn finish(&self) {
        let mut board = self.lock();
        board.closing = true;
        board.closed = true;
        drop(board);
        self.done.notify_all();
        self.space.notify_all();
    }

    /// Marks the worker's panic; all waiters and producers are released
    /// with [`ClusterError::WorkerPoisoned`].
    pub(crate) fn poison(&self) {
        let mut board = self.lock();
        board.closing = true;
        board.closed = true;
        board.poisoned = true;
        drop(board);
        self.done.notify_all();
        self.space.notify_all();
    }
}

/// The submission side: the channel sender and the ticket-id allocator,
/// held **only by handles** (never by tickets or the worker), so dropping
/// the last handle disconnects the channel and the worker winds down on
/// its own.
struct Producer {
    state: Mutex<ProducerState>,
}

struct ProducerState {
    /// `None` once the service is closed.
    tx: Option<Sender<Command>>,
    /// Next ticket id; allocation and channel send happen under one lock,
    /// so ticket ids are dense in channel order — the property the
    /// determinism guarantee ("a pure function of submission order")
    /// builds on.
    next_ticket: u64,
}

impl Producer {
    fn lock(&self) -> MutexGuard<'_, ProducerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Asks the worker for a flush, if it is still reachable.
    fn nudge_flush(&self) {
        if let Some(tx) = &self.lock().tx {
            let _ = tx.send(Command::Flush);
        }
    }
}

/// A submission receipt from a spawned cluster service — a *future* for
/// one request's [`TicketResult`].
///
/// Unlike the synchronous [`Ticket`](crate::cluster::Ticket) (a plain
/// sequence number redeemed against a flush outcome), a service ticket is
/// waitable: [`Ticket::wait`] blocks until the worker has served the
/// request, [`Ticket::try_wait`] polls without blocking. The underlying
/// sequence number ([`Ticket::id`]) is allocated in channel order and is
/// the same number that appears in [`TicketResult::ticket`].
///
/// Tickets do not keep the service alive: they hold no channel sender, so
/// outstanding tickets never prevent the worker from shutting down when
/// every [`ClusterHandle`] is gone — the worker serves the whole queue on
/// its way out, and the results stay claimable.
///
/// # Example
///
/// ```
/// use pimecc::prelude::*;
/// use pimecc::netlist::NetlistBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new();
/// let ins = b.inputs(2);
/// let g = b.xor(ins[0], ins[1]);
/// b.output(g);
/// let netlist = b.finish();
///
/// let handle = PimClusterBuilder::new(2, 30, 3).spawn()?;
/// let program = handle.compile(&netlist.to_nor())?;
///
/// let ticket = handle.submit(&program, vec![true, false])?;
/// // `wait` asks the worker to flush and parks until the result lands.
/// let result = ticket.wait()?;
/// assert_eq!(result.outputs, netlist.eval(&[true, false]));
/// assert_eq!(result.ticket.id(), ticket.id());
/// handle.close()?;
/// # Ok(())
/// # }
/// ```
#[must_use = "a dropped service ticket cannot be waited on; its result is only reachable via drain()"]
pub struct Ticket {
    id: queue::Ticket,
    shared: Arc<Shared>,
    /// Weak so tickets never keep the channel (and thus the worker)
    /// alive; used to nudge a flush when a caller waits.
    producer: Weak<Producer>,
}

impl Ticket {
    /// The ticket's service-lifetime sequence number.
    pub fn id(&self) -> u64 {
        self.id.id()
    }

    /// The plain sequence-number ticket, for cross-referencing the
    /// [`ClusterOutcome`] a [`ClusterHandle::drain`] returns
    /// (e.g. [`ClusterOutcome::outputs_for`]).
    pub fn key(&self) -> queue::Ticket {
        self.id
    }

    /// Blocks until the service has served this submission and returns
    /// its result, claiming it: each ticket's result is delivered exactly
    /// once across `wait` and [`ClusterHandle::drain`].
    ///
    /// Waiting is demand-driven: the call first asks the worker to flush
    /// (so a wait never deadlocks on a service with no auto-flush
    /// configured), then parks until the result is published.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::Shard`] — the flush that should have served this
    ///   ticket failed before dispatching it;
    /// * [`ClusterError::RequestFailed`] — the request was dead-lettered:
    ///   every allowed attempt executed on lines with uncorrectable ECC
    ///   verdicts, so no verified-correct output exists (resubmitting is
    ///   safe);
    /// * [`ClusterError::WorkerPoisoned`] — the worker thread panicked;
    /// * [`ClusterError::TicketUnserved`] — this ticket's result was
    ///   already claimed (waited twice, or collected by a
    ///   [`ClusterHandle::drain`]).
    ///
    /// # Example
    ///
    /// ```
    /// use pimecc::prelude::*;
    /// use pimecc::netlist::NetlistBuilder;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = NetlistBuilder::new();
    /// let ins = b.inputs(3);
    /// let g = b.maj(ins[0], ins[1], ins[2]);
    /// b.output(g);
    /// let netlist = b.finish();
    ///
    /// let handle = PimClusterBuilder::new(1, 30, 3).spawn()?;
    /// let program = handle.compile(&netlist.to_nor())?;
    /// let tickets: Vec<_> = (0..8u32)
    ///     .map(|v| handle.submit(&program, (0..3).map(|i| v >> i & 1 != 0).collect()))
    ///     .collect::<Result<_, _>>()?;
    /// for (v, t) in tickets.into_iter().enumerate() {
    ///     let inputs: Vec<bool> = (0..3).map(|i| v as u32 >> i & 1 != 0).collect();
    ///     assert_eq!(t.wait()?.outputs, netlist.eval(&inputs));
    /// }
    /// handle.close()?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn wait(&self) -> Result<TicketResult, ClusterError> {
        // Demand-driven flush: don't leave the result hostage to a
        // deadline (or to a service configured with no auto-flush at
        // all).
        if let Some(producer) = self.producer.upgrade() {
            producer.nudge_flush();
        }
        let mut board = self.shared.lock();
        loop {
            if let Some(result) = board.results.remove(&self.id.id()) {
                return Ok(result);
            }
            if let Some(error) = board.dropped.remove(&self.id.id()) {
                return Err(error);
            }
            if let Some(f) = board.failed.remove(&self.id.id()) {
                return Err(f.error());
            }
            if self.id.id() < board.resolved_below {
                // Resolved but no longer on the board: already claimed by
                // an earlier wait or a drain.
                return Err(ClusterError::TicketUnserved {
                    ticket: self.id.id(),
                });
            }
            if board.poisoned {
                return Err(ClusterError::WorkerPoisoned);
            }
            if board.closed {
                return Err(ClusterError::TicketUnserved {
                    ticket: self.id.id(),
                });
            }
            board = self
                .shared
                .done
                .wait(board)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking [`Ticket::wait`]: `Ok(Some(result))` once served,
    /// `Ok(None)` while still in flight. Unlike `wait`, polling does
    /// *not* nudge a flush — a deadline- or threshold-configured service
    /// is expected to get there on its own.
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait`].
    pub fn try_wait(&self) -> Result<Option<TicketResult>, ClusterError> {
        let mut board = self.shared.lock();
        if let Some(result) = board.results.remove(&self.id.id()) {
            return Ok(Some(result));
        }
        if let Some(error) = board.dropped.remove(&self.id.id()) {
            return Err(error);
        }
        if let Some(f) = board.failed.remove(&self.id.id()) {
            return Err(f.error());
        }
        if self.id.id() < board.resolved_below {
            return Err(ClusterError::TicketUnserved {
                ticket: self.id.id(),
            });
        }
        if board.poisoned {
            return Err(ClusterError::WorkerPoisoned);
        }
        if board.closed {
            return Err(ClusterError::TicketUnserved {
                ticket: self.id.id(),
            });
        }
        Ok(None)
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id.id()).finish()
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// A cheap, cloneable front door to a spawned cluster service.
///
/// Created by [`PimClusterBuilder::spawn`], which moves the shard pool
/// into a dedicated worker thread. Any number of threads may clone the
/// handle and submit concurrently; [`ClusterHandle::submit`] allocates a
/// ticket id, pushes the request down the worker's channel and returns —
/// it never blocks on shard execution. The worker flushes on the
/// configured pending-count threshold
/// ([`auto_flush_at`](crate::cluster::PimClusterBuilder::auto_flush_at)),
/// on the configured deadline
/// ([`flush_after`](crate::cluster::PimClusterBuilder::flush_after)),
/// on an explicit [`ClusterHandle::flush`] — or when a caller waits.
///
/// Shutdown is explicit ([`ClusterHandle::close`] — drains the queue,
/// then joins the worker) or implicit (dropping every handle disconnects
/// the channel; the worker serves the stragglers and exits).
///
/// [`PimClusterBuilder::spawn`]: crate::cluster::PimClusterBuilder::spawn
/// [`PimClusterBuilder::auto_flush_at`]: crate::cluster::PimClusterBuilder::auto_flush_at
/// [`PimClusterBuilder::flush_after`]: crate::cluster::PimClusterBuilder::flush_after
///
/// # Example
///
/// ```
/// use pimecc::prelude::*;
/// use pimecc::netlist::NetlistBuilder;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new();
/// let ins = b.inputs(2);
/// let g = b.xor(ins[0], ins[1]);
/// b.output(g);
/// let netlist = b.finish();
///
/// // Two 30x30 shards behind a worker that flushes 16-deep batches, or
/// // whatever is pending once the oldest request is 2 ms old.
/// let handle = PimClusterBuilder::new(2, 30, 3)
///     .auto_flush_at(16)
///     .flush_after(Duration::from_millis(2))
///     .spawn()?;
/// let program = handle.compile(&netlist.to_nor())?;
///
/// // Producers clone the handle freely; submission never blocks on
/// // execution.
/// let tickets: Vec<_> = (0..40u32)
///     .map(|v| handle.submit(&program, vec![v & 1 != 0, v & 2 != 0]))
///     .collect::<Result<_, _>>()?;
///
/// // Collect everything: close() drains the queue and stops the worker,
/// // drain() hands back the bulk outcome.
/// handle.close()?;
/// let outcome = handle.drain()?;
/// assert_eq!(outcome.requests(), 40);
/// for (v, t) in tickets.iter().enumerate() {
///     let want = netlist.eval(&[v as u32 & 1 != 0, v as u32 & 2 != 0]);
///     assert_eq!(outcome.outputs_for(t.key()), Some(want.as_slice()));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
#[must_use]
pub struct ClusterHandle {
    producer: Arc<Producer>,
    shared: Arc<Shared>,
    worker: Arc<Mutex<Option<JoinHandle<()>>>>,
    /// Handle-side compile cache: mapping needs only the shared geometry,
    /// so compiles never round-trip through the worker.
    programs: Arc<Mutex<ProgramCache>>,
    shards: usize,
    /// Line length of the tallest shard — the admission bound.
    shard_capacity: usize,
    /// Distinct shard line lengths, ascending — the compile path tries
    /// them smallest-first (pools may mix geometries).
    capacities: Vec<usize>,
    /// Total lines across shards.
    total_lines: usize,
    queue_limit: Option<usize>,
}

/// Moves `core` into a fresh worker thread and returns the first handle.
pub(crate) fn spawn(core: ClusterCore, cfg: ServiceConfig) -> ClusterHandle {
    let shards = core.shards.len();
    let shard_capacity = core.shard_capacity();
    let capacities = core.distinct_capacities();
    let total_lines = core.total_lines();
    let shared = Arc::new(Shared::new(shards));
    // Publish the initial health snapshot *before* the worker thread
    // exists: a `metrics()` read racing the spawn must already see the
    // configured deadline and shard states, not the board's default.
    shared.set_health(core.health.snapshot());
    let (tx, rx) = mpsc::channel();
    let worker_shared = Arc::clone(&shared);
    let worker = std::thread::Builder::new()
        .name("pimecc-cluster".into())
        .spawn(move || worker::run(core, rx, worker_shared, cfg))
        .expect("spawn cluster worker thread");
    ClusterHandle {
        producer: Arc::new(Producer {
            state: Mutex::new(ProducerState {
                tx: Some(tx),
                next_ticket: 0,
            }),
        }),
        shared,
        worker: Arc::new(Mutex::new(Some(worker))),
        programs: Arc::new(Mutex::new(ProgramCache::default())),
        shards,
        shard_capacity,
        capacities,
        total_lines,
        queue_limit: cfg.queue_limit,
    }
}

impl ClusterHandle {
    /// Number of shards behind the service.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Line length of the pool's tallest shard — the widest program the
    /// service admits. On a uniform pool this is every shard's row count.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Total rows across shards — the service's requests-per-wave
    /// ceiling (the sum of per-shard line counts on a mixed pool).
    pub fn capacity(&self) -> usize {
        self.total_lines
    }

    /// Submissions accepted but not yet resolved (a snapshot; concurrent
    /// producers and the worker move it constantly).
    pub fn in_flight(&self) -> usize {
        self.shared.lock().inflight
    }

    /// Whether the service has been closed (explicitly or because the
    /// worker exited).
    pub fn is_closed(&self) -> bool {
        self.shared.lock().closing
    }

    /// The service's latest [`HealthSnapshot`]: per-shard scrub / error /
    /// wear / quarantine ledgers, p50/p95/p99 queue and execute latency,
    /// and the lifetime request, retry and dead-letter counts.
    ///
    /// The worker publishes a fresh snapshot after every flush and every
    /// background scrub pass; this read never blocks on shard execution
    /// (it copies the last published snapshot). A snapshot taken right
    /// after `submit` may not yet include that submission — flush or
    /// wait first when exact counts matter.
    pub fn metrics(&self) -> HealthSnapshot {
        self.shared
            .health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Maps `netlist` onto the shards' row width with SIMPLER — once per
    /// structure, cached on the handle (clones share the cache). On a
    /// mixed pool the distinct line lengths are tried smallest-first, as
    /// [`PimCluster::compile`](crate::cluster::PimCluster::compile) does.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Map`] when the function fits no shard row.
    pub fn compile(&self, netlist: &NorNetlist) -> Result<CompiledProgram, ClusterError> {
        let mut cache = self.programs.lock().unwrap_or_else(|e| e.into_inner());
        let mut last = None;
        for &row_size in &self.capacities {
            match cache.compile(netlist, row_size) {
                Ok(p) => return Ok(p),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("a cluster has at least one shard").into())
    }

    /// Maps `netlist` for co-packing (see
    /// [`PimCluster::compile_packed`](crate::cluster::PimCluster::compile_packed)).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Map`] when the function fits no shard row even at
    /// full width.
    pub fn compile_packed(&self, netlist: &NorNetlist) -> Result<CompiledProgram, ClusterError> {
        let mut cache = self.programs.lock().unwrap_or_else(|e| e.into_inner());
        let mut last = None;
        for &row_size in &self.capacities {
            match cache.compile_packed(netlist, row_size) {
                Ok(p) => return Ok(p),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("a cluster has at least one shard").into())
    }

    /// Adopts an externally mapped [`Program`], cached by its
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// [`ClusterError::ProgramTooWide`] when the program was mapped for a
    /// wider row than the shards have.
    pub fn adopt(&self, program: &Program) -> Result<CompiledProgram, ClusterError> {
        if program.row_size > self.shard_capacity {
            return Err(ClusterError::ProgramTooWide {
                row_size: program.row_size,
                n: self.shard_capacity,
            });
        }
        let mut cache = self.programs.lock().unwrap_or_else(|e| e.into_inner());
        Ok(cache.adopt(program))
    }

    /// Enqueues one request and returns its waitable [`Ticket`]. The call
    /// validates, allocates a ticket id and pushes the request down the
    /// worker's channel — it never blocks on shard execution. With a
    /// [`queue_limit`](crate::cluster::PimClusterBuilder::queue_limit)
    /// configured, a full queue *does* block until the worker catches up
    /// (backpressure); use [`ClusterHandle::try_submit`] to fail fast
    /// instead.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InputArity`] / [`ClusterError::ProgramTooWide`]
    ///   as for the synchronous
    ///   [`submit`](crate::cluster::PimCluster::submit);
    /// * [`ClusterError::Closed`] after [`ClusterHandle::close`];
    /// * [`ClusterError::WorkerPoisoned`] if the worker panicked.
    pub fn submit(
        &self,
        program: &CompiledProgram,
        inputs: Vec<bool>,
    ) -> Result<Ticket, ClusterError> {
        self.submit_inner(program, inputs, true)
    }

    /// [`ClusterHandle::submit`] that refuses to wait for queue space:
    /// with a bounded queue at its limit it returns
    /// [`ClusterError::Saturated`] instead of blocking.
    ///
    /// # Errors
    ///
    /// As [`ClusterHandle::submit`], plus [`ClusterError::Saturated`].
    pub fn try_submit(
        &self,
        program: &CompiledProgram,
        inputs: Vec<bool>,
    ) -> Result<Ticket, ClusterError> {
        self.submit_inner(program, inputs, false)
    }

    fn submit_inner(
        &self,
        program: &CompiledProgram,
        inputs: Vec<bool>,
        block: bool,
    ) -> Result<Ticket, ClusterError> {
        validate_submission(program, &inputs, self.shard_capacity)?;
        let program = program.clone();
        self.enqueue(block, move |ticket| {
            Command::Submit(Pending {
                ticket,
                submitted_at: Instant::now(),
                program,
                inputs,
            })
        })
    }

    /// Compiles a netlist too wide for one shard line into a
    /// [`PartitionedProgram`] — the service twin of
    /// [`PimCluster::compile_partitioned`](crate::cluster::PimCluster::compile_partitioned).
    /// Compilation runs on the caller's thread against the handle-side
    /// cache (clones share it); the worker is not involved.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Map`] when even single-gate partitions cannot be
    /// mapped onto the shard row.
    pub fn compile_partitioned(
        &self,
        netlist: &NorNetlist,
    ) -> Result<Arc<PartitionedProgram>, ClusterError> {
        let mut cache = self.programs.lock().unwrap_or_else(|e| e.into_inner());
        Ok(Arc::new(compiler::compile_partitioned(
            &mut cache,
            netlist,
            self.shard_capacity,
        )?))
    }

    /// Enqueues one partitioned request and returns its waitable
    /// [`Ticket`] — the partitioned twin of [`ClusterHandle::submit`].
    /// The ticket resolves only when the **final** sub-program wave of
    /// its request has landed: the worker serves the whole dependency
    /// chain within one flush and publishes a single merged result.
    ///
    /// # Errors
    ///
    /// As [`ClusterHandle::submit`].
    pub fn submit_partitioned(
        &self,
        program: &Arc<PartitionedProgram>,
        inputs: Vec<bool>,
    ) -> Result<Ticket, ClusterError> {
        self.submit_partitioned_inner(program, inputs, true)
    }

    /// [`ClusterHandle::submit_partitioned`] that refuses to wait for
    /// queue space (see [`ClusterHandle::try_submit`]).
    ///
    /// # Errors
    ///
    /// As [`ClusterHandle::submit_partitioned`], plus
    /// [`ClusterError::Saturated`].
    pub fn try_submit_partitioned(
        &self,
        program: &Arc<PartitionedProgram>,
        inputs: Vec<bool>,
    ) -> Result<Ticket, ClusterError> {
        self.submit_partitioned_inner(program, inputs, false)
    }

    fn submit_partitioned_inner(
        &self,
        program: &Arc<PartitionedProgram>,
        inputs: Vec<bool>,
        block: bool,
    ) -> Result<Ticket, ClusterError> {
        validate_partitioned(program, &inputs, self.shard_capacity)?;
        let program = Arc::clone(program);
        self.enqueue(block, move |ticket| {
            Command::SubmitPartitioned(PendingPartitioned {
                ticket,
                submitted_at: Instant::now(),
                program,
                inputs,
            })
        })
    }

    /// The shared submission path: reserve an in-flight slot, allocate
    /// the next ticket id, build the command and push it down the
    /// worker's channel.
    fn enqueue(
        &self,
        block: bool,
        make: impl FnOnce(queue::Ticket) -> Command,
    ) -> Result<Ticket, ClusterError> {
        // Phase 1: reserve an in-flight slot on the board (this is where
        // a bounded queue backpressures).
        {
            let mut board = self.shared.lock();
            loop {
                if board.poisoned {
                    return Err(ClusterError::WorkerPoisoned);
                }
                if board.closing {
                    return Err(ClusterError::Closed);
                }
                match self.queue_limit {
                    Some(limit) if board.inflight >= limit => {
                        if !block {
                            return Err(ClusterError::Saturated { limit });
                        }
                        board = self
                            .shared
                            .space
                            .wait(board)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break,
                }
            }
            board.inflight += 1;
        }
        // Phase 2: allocate the id and enqueue under the producer lock —
        // ids are dense in channel order, and a concurrent close() (which
        // also takes this lock first) can never slip a Close command in
        // between.
        let mut producer = self.producer.lock();
        let closing = self.shared.lock().closing;
        let tx = match (&producer.tx, closing) {
            (Some(tx), false) => tx.clone(),
            _ => {
                drop(producer);
                self.unreserve();
                return Err(self.closed_error());
            }
        };
        let id = producer.next_ticket;
        if tx.send(make(queue::Ticket(id))).is_err() {
            // The worker is gone without a close(): it panicked.
            drop(producer);
            self.unreserve();
            return Err(self.closed_error());
        }
        producer.next_ticket += 1;
        Ok(Ticket {
            id: queue::Ticket(id),
            shared: Arc::clone(&self.shared),
            producer: Arc::downgrade(&self.producer),
        })
    }

    /// Rolls back a phase-1 reservation whose submission never reached
    /// the channel.
    fn unreserve(&self) {
        let mut board = self.shared.lock();
        board.inflight = board.inflight.saturating_sub(1);
        drop(board);
        self.shared.space.notify_all();
    }

    /// The error a dead service answers with.
    fn closed_error(&self) -> ClusterError {
        if self.shared.lock().poisoned {
            ClusterError::WorkerPoisoned
        } else {
            ClusterError::Closed
        }
    }

    /// Asks the worker to flush everything pending *now*, without waiting
    /// for a threshold or deadline. Returns as soon as the request is
    /// enqueued; redeem results via [`Ticket::wait`] or
    /// [`ClusterHandle::drain`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::Closed`] / [`ClusterError::WorkerPoisoned`] when
    /// the service is gone.
    pub fn flush(&self) -> Result<(), ClusterError> {
        let producer = self.producer.lock();
        let tx = producer.tx.clone();
        drop(producer);
        match tx {
            Some(tx) if tx.send(Command::Flush).is_ok() => Ok(()),
            _ => Err(self.closed_error()),
        }
    }

    /// Collects, in bulk, everything the service has served that no one
    /// has claimed yet: asks the worker to flush, waits until nothing is
    /// in flight, and returns the merged [`ClusterOutcome`] — per-ticket
    /// results sorted by ticket plus the aggregate accounting of every
    /// flush since the previous drain.
    ///
    /// Each ticket's result is delivered exactly once across
    /// [`Ticket::wait`], [`Ticket::try_wait`] and `drain`: after a
    /// `close()`, one final `drain()` returns precisely the tickets
    /// nobody waited on.
    ///
    /// # Errors
    ///
    /// [`ClusterError::WorkerPoisoned`] if the worker panicked. Results
    /// published before the panic are not reachable through `drain` (it
    /// reports the poisoning instead); they stay claimable per ticket via
    /// [`Ticket::wait`] / [`Ticket::try_wait`], which deliver a result
    /// before reporting the poison.
    pub fn drain(&self) -> Result<ClusterOutcome, ClusterError> {
        // Nudge — a no-op if the service is already closed (then the
        // worker flushed everything on its way out).
        self.producer.nudge_flush();
        let mut board = self.shared.lock();
        while board.inflight > 0 && !board.closed {
            board = self
                .shared
                .done
                .wait(board)
                .unwrap_or_else(|e| e.into_inner());
        }
        if board.poisoned {
            return Err(ClusterError::WorkerPoisoned);
        }
        let shards = board.bank.shard_reports.len();
        let mut outcome = std::mem::replace(&mut board.bank, ClusterOutcome::empty(shards));
        outcome.results = std::mem::take(&mut board.results).into_values().collect();
        // Unclaimed dead letters ride out with the drain (BTreeMap keeps
        // them ticket-sorted), each exactly once like any result.
        outcome.failed = std::mem::take(&mut board.failed).into_values().collect();
        Ok(outcome)
    }

    /// Graceful shutdown: stops accepting submissions, lets the worker
    /// drain everything already queued, and joins it. Results remain on
    /// the board — claim them with [`Ticket::wait`] (already-served
    /// tickets), [`Ticket::try_wait`] or one final
    /// [`ClusterHandle::drain`].
    ///
    /// Idempotent across clones: the first call shuts the service down,
    /// later calls just wait for that shutdown to finish.
    ///
    /// # Errors
    ///
    /// [`ClusterError::WorkerPoisoned`] if the worker panicked (now or
    /// earlier).
    pub fn close(&self) -> Result<(), ClusterError> {
        {
            let mut producer = self.producer.lock();
            let mut board = self.shared.lock();
            if !board.closing {
                board.closing = true;
                drop(board);
                // Backpressured producers must re-check and bail out.
                self.shared.space.notify_all();
                if let Some(tx) = producer.tx.take() {
                    let _ = tx.send(Command::Close);
                }
            } else {
                producer.tx = None;
            }
        }
        let worker = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        match worker {
            Some(worker) => {
                if worker.join().is_err() {
                    return Err(ClusterError::WorkerPoisoned);
                }
            }
            None => {
                // A sibling clone is (or was) joining; wait for the
                // worker to finish via the board.
                let mut board = self.shared.lock();
                while !board.closed {
                    board = self
                        .shared
                        .done
                        .wait(board)
                        .unwrap_or_else(|e| e.into_inner());
                }
                if board.poisoned {
                    return Err(ClusterError::WorkerPoisoned);
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let board = self.shared.lock();
        f.debug_struct("ClusterHandle")
            .field("shards", &self.shards)
            .field("n", &self.shard_capacity)
            .field("queue_limit", &self.queue_limit)
            .field("in_flight", &board.inflight)
            .field("unclaimed", &board.results.len())
            .field("closing", &board.closing)
            .field("closed", &board.closed)
            .field("poisoned", &board.poisoned)
            .finish()
    }
}
