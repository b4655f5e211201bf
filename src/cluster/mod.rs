//! Sharded, queue-fed execution over a pool of [`PimDevice`] crossbars —
//! synchronously on the caller's thread, or as a spawned **service**
//! behind a channel-fed worker.
//!
//! One crossbar amortizes ECC and program latency *inside* a batch
//! ([`PimDevice::run_batch`]); this layer amortizes *across* crossbars.
//! The distributed-RRAM follow-up literature (Vo et al.) makes the same
//! observation at datacenter scale: integrated-ECC tiles only reach their
//! aggregate throughput when a front-end scheduler keeps every
//! independently checked tile busy. A [`PimCluster`] is that front-end:
//!
//! ```text
//!  submit(program, inputs) → Ticket                flush() → ClusterOutcome
//!        │                                                       ▲
//!        ▼                                                       │
//!  ┌──────────────┐ group by ┌───────────────────┐  wave  ┌──────┴──────┐
//!  │ pending queue│─────────►│ fingerprint groups│───────►│  scheduler  │
//!  │ (mixed       │ program  │ [i2f: t0 t2 t5…]  │ chunks │ shard 0 ──┐ │
//!  │  traffic)    │ identity │ [add: t1 t3 t4…]  │ ≤ rows │ shard 1 ──┼─┼─► per-shard batch:
//!  └──────────────┘          └───────────────────┘        │ shard …   │ │   parallel in the
//!                                                         └───────────┘ │   model clock, one
//!                                                                       │   after another on
//!                                                                       └── the flushing thread
//! ```
//!
//! 1. [`PimCluster::submit`] enqueues one request against a compiled
//!    program handle and returns a [`Ticket`] immediately — nothing
//!    executes yet, so mixed-program traffic accumulates;
//! 2. [`PimCluster::flush`] packs the queue **by program fingerprint**
//!    (only same-program requests can share a crossbar pass — MAGIC
//!    executes one step sequence for all selected lines), plans each wave
//!    in two dimensions (a
//!    [`PlacementPlan`](crate::device::PlacementPlan) per batch: at most
//!    [`batch_limit`](PimClusterBuilder::batch_limit) lines, up to
//!    [`pack_limit`](PimClusterBuilder::pack_limit) narrow requests
//!    co-packed per line, axis per [`AxisPolicy`], the slot-offset fill
//!    origin rotating per wave to level memristor wear), and dispatches
//!    the batches wave by wave, one batch per shard per wave. The model
//!    clock runs a wave's shards in parallel (its wall MEM cycles are the
//!    slowest shard's); the host runs them one after another on the
//!    flushing thread, in ascending shard order, and spawns no thread;
//! 3. the [`ClusterOutcome`] returns every ticket's outputs, placement
//!    (shard, wave, axis, line, offset) and host-side latencies
//!    (queue + execute) plus two clocks: summed
//!    [`MachineStats`](pimecc_core::MachineStats) (total machine work) and
//!    wall MEM cycles (slowest shard per wave), from which per-shard
//!    [utilization](ShardReport::utilization) — time, [line occupancy
//!    ](ShardReport::line_utilization) and [cell occupancy
//!    ](ShardReport::cell_utilization) — and the aggregate
//!    gate-evals/MEM-cycle throughput follow.
//!
//! Compiled handles are [`Arc`]-shared
//! ([`CompiledProgram`]), so one [`PimCluster::compile`] serves every
//! shard without re-mapping or deep-copying the program.
//!
//! # Running as a service
//!
//! The synchronous flow above couples batching to the caller: traffic
//! only accumulates while the caller refrains from flushing, and
//! `flush()` blocks until every wave has executed. For production-style
//! traffic, [`PimClusterBuilder::spawn`] splits submission from
//! execution: the shard pool moves into a dedicated worker thread fed by
//! an MPSC channel, callers hold cheap, cloneable
//! [`ClusterHandle`]s whose [`submit`](ClusterHandle::submit) never
//! blocks on execution, and tickets become waitable futures
//! ([`handle::Ticket::wait`] / [`try_wait`](handle::Ticket::try_wait)).
//! The worker auto-flushes on **either** a pending-count threshold
//! ([`auto_flush_at`](PimClusterBuilder::auto_flush_at)) **or** a
//! max-latency deadline ([`flush_after`](PimClusterBuilder::flush_after))
//! — whichever trips first — so batches form without any caller calling
//! `flush()`. Backpressure
//! ([`queue_limit`](PimClusterBuilder::queue_limit)) and graceful
//! shutdown ([`ClusterHandle::close`] drains, a panicked worker surfaces
//! as [`ClusterError::WorkerPoisoned`]) make the lifecycle explicit. See
//! the [`handle`] module for the caller-side API.
//!
//! Both front-ends drive the same engine, so scheduling stays a pure
//! function of submission order either way: the worker serializes
//! concurrent producers through its channel (ticket ids are allocated in
//! channel order), and a service fed a given order places it exactly as
//! the synchronous cluster would.
//!
//! # Example
//!
//! ```
//! use pimecc::prelude::*;
//! use pimecc::netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new();
//! let ins = b.inputs(2);
//! let g = b.xor(ins[0], ins[1]);
//! b.output(g);
//! let netlist = b.finish();
//!
//! // Four 30x30 shards behind one queue.
//! let mut cluster = PimClusterBuilder::new(4, 30, 3).build()?;
//! let program = cluster.compile(&netlist.to_nor())?;
//!
//! let tickets: Vec<Ticket> = (0..100u32)
//!     .map(|v| cluster.submit(&program, vec![v & 1 != 0, v & 2 != 0]))
//!     .collect::<Result<_, _>>()?;
//! let outcome = cluster.flush()?;
//!
//! assert_eq!(outcome.requests(), 100);
//! for (v, t) in tickets.iter().enumerate() {
//!     let want = netlist.eval(&[v as u32 & 1 != 0, v as u32 & 2 != 0]);
//!     assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()));
//! }
//! // 100 requests fit one wave: the scheduler carves greedy full-width
//! // chunks of 30 + 30 + 30 + 10 rows across the four shards.
//! assert_eq!(outcome.waves, 1);
//! # Ok(())
//! # }
//! ```

mod error;
pub mod handle;
pub mod health;
mod outcome;
mod queue;
mod scheduler;
mod service;
mod worker;

pub use error::ClusterError;
pub use handle::ClusterHandle;
pub use health::{
    default_scrub_period, scrub_period_for, HealthSnapshot, LatencyStats, ShardHealth, ShardState,
};
pub use outcome::{ClusterOutcome, FailedRequest, OutputSlice, ShardReport, TicketResult};
pub use queue::{Ticket, TicketRange};
pub use scheduler::AxisPolicy;

use crate::compiler::{self, PartitionedProgram};
use crate::device::{
    BatchFaultHook, CheckPolicy, CompiledProgram, CoveragePolicy, PimDevice, PimDeviceBuilder,
    ProgramCache, ScrubReport, SimEngine,
};
use health::{HealthConfig, HealthMonitor};
use pimecc_core::ProtectedMemory;
use pimecc_netlist::NorNetlist;
use pimecc_simpler::Program;
use queue::{Pending, PendingPartitioned};
use service::{ClusterCore, FlushArena, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configures and builds a [`PimCluster`] — or spawns it as a service
/// ([`PimClusterBuilder::spawn`]).
///
/// By default every shard shares one geometry (`n×n` crossbar, `m×m` ECC
/// blocks);
/// [`shard_geometries`](PimClusterBuilder::shard_geometries) builds a
/// **mixed pool** instead — per-shard crossbar sizes, with the scheduler
/// routing each program to the smallest idle shard it fits. The checking
/// policy applies cluster-wide; coverage defaults to full and can be
/// relaxed per shard.
///
/// ```
/// use pimecc::prelude::*;
///
/// # fn main() -> Result<(), ClusterError> {
/// let cluster = PimClusterBuilder::new(2, 30, 3)
///     .check_policy(CheckPolicy::Paranoid)
///     .batch_limit(16)
///     .build()?;
/// assert_eq!(cluster.shards(), 2);
/// assert_eq!(cluster.capacity(), 60);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub struct PimClusterBuilder {
    shards: usize,
    n: usize,
    m: usize,
    check_policy: CheckPolicy,
    coverage_overrides: Vec<(usize, CoveragePolicy)>,
    fault_hooks: Vec<(usize, BatchFaultHook)>,
    batch_limit: Option<usize>,
    pack_limit: Option<usize>,
    axis_policy: AxisPolicy,
    auto_flush_at: Option<usize>,
    flush_after: Option<Duration>,
    queue_limit: Option<usize>,
    scrub_period: Option<Duration>,
    error_budget: Option<u64>,
    recovery_scrubs: Option<u32>,
    engine: SimEngine,
    max_retries: Option<u32>,
    retire_after: Option<u32>,
    geometries: Option<Vec<(usize, usize)>>,
}

impl std::fmt::Debug for PimClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimClusterBuilder")
            .field("shards", &self.shards)
            .field("n", &self.n)
            .field("m", &self.m)
            .field("check_policy", &self.check_policy)
            .field("coverage_overrides", &self.coverage_overrides)
            .field("fault_hooks", &self.fault_hooks.len())
            .field("batch_limit", &self.batch_limit)
            .field("pack_limit", &self.pack_limit)
            .field("axis_policy", &self.axis_policy)
            .field("auto_flush_at", &self.auto_flush_at)
            .field("flush_after", &self.flush_after)
            .field("queue_limit", &self.queue_limit)
            .field("scrub_period", &self.scrub_period)
            .field("error_budget", &self.error_budget)
            .field("recovery_scrubs", &self.recovery_scrubs)
            .field("engine", &self.engine)
            .field("max_retries", &self.max_retries)
            .field("retire_after", &self.retire_after)
            .field("geometries", &self.geometries)
            .finish()
    }
}

impl PimClusterBuilder {
    /// Starts a builder for `shards` shards of `n×n` crossbars with `m×m`
    /// ECC blocks each.
    pub fn new(shards: usize, n: usize, m: usize) -> Self {
        PimClusterBuilder {
            shards,
            n,
            m,
            check_policy: CheckPolicy::default(),
            coverage_overrides: Vec::new(),
            fault_hooks: Vec::new(),
            batch_limit: None,
            pack_limit: None,
            axis_policy: AxisPolicy::default(),
            auto_flush_at: None,
            flush_after: None,
            queue_limit: None,
            scrub_period: None,
            error_budget: None,
            recovery_scrubs: None,
            engine: SimEngine::default(),
            max_retries: None,
            retire_after: None,
            geometries: None,
        }
    }

    /// Gives each shard its own `(n, m)` geometry — a **mixed pool**,
    /// replacing the builder's uniform `n×n`/`m×m` (which the constructor
    /// arguments still set as the default). The list must name one
    /// geometry per shard; order is shard order.
    ///
    /// Programs compile for the *smallest* shard line they fit
    /// ([`PimCluster::compile`] tries the distinct line lengths ascending)
    /// and the scheduler routes each batch to the smallest idle shard
    /// that can hold it — wide programs claim the tall shards only when
    /// nothing smaller fits, keeping them free for traffic that has
    /// nowhere else to go. Capacity accounting, wear rotation, quarantine
    /// and retired-line avoidance are all per-shard already.
    ///
    /// ```
    /// use pimecc::prelude::*;
    ///
    /// # fn main() -> Result<(), ClusterError> {
    /// let cluster = PimClusterBuilder::new(3, 30, 3)
    ///     .shard_geometries(vec![(30, 3), (30, 3), (60, 3)])
    ///     .build()?;
    /// assert_eq!(cluster.shard_capacity(), 60, "widest admissible program");
    /// assert_eq!(cluster.capacity(), 120, "sum over the mixed pool");
    /// # Ok(())
    /// # }
    /// ```
    pub fn shard_geometries(mut self, geometries: Vec<(usize, usize)>) -> Self {
        self.geometries = Some(geometries);
        self
    }

    /// Selects the host simulation engine of every shard (default:
    /// [`SimEngine::WordParallel`]). The scalar reference is bit-identical
    /// but slower; throughput benchmarks select it per run to measure the
    /// word-parallel speedup on the same traffic.
    pub fn engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the ECC checking policy of every shard (default:
    /// [`CheckPolicy::PreExecution`]).
    pub fn check_policy(mut self, policy: CheckPolicy) -> Self {
        self.check_policy = policy;
        self
    }

    /// Sets the coverage policy of one shard (default:
    /// [`CoveragePolicy::Full`] on every shard) — e.g. a pool where one
    /// shard sacrifices scratch-block protection for capacity.
    pub fn shard_coverage(mut self, shard: usize, coverage: CoveragePolicy) -> Self {
        self.coverage_overrides.push((shard, coverage));
        self
    }

    /// Caps the *lines* (rows or columns, per the wave's axis) one
    /// dispatched batch may occupy (packing knob; default: the full shard
    /// capacity `n`). Lower values trade throughput for latency jitter —
    /// more, smaller batches.
    pub fn batch_limit(mut self, lines: usize) -> Self {
        self.batch_limit = Some(lines);
        self
    }

    /// Caps how many requests the scheduler co-packs side by side in one
    /// line (second packing knob; default: unlimited, i.e. bounded only by
    /// `n / footprint`). `pack_limit(1)` restores the row-only scheduler
    /// of PR 2 — one request per line, overflow into extra waves.
    pub fn pack_limit(mut self, per_line: usize) -> Self {
        self.pack_limit = Some(per_line);
        self
    }

    /// Selects which crossbar axis dispatch waves occupy (default:
    /// [`AxisPolicy::Alternate`] — even waves on columns, odd on rows;
    /// the cost model is axis-symmetric, and the word-parallel engine
    /// simulates column-parallel waves fastest).
    pub fn axis_policy(mut self, policy: AxisPolicy) -> Self {
        self.axis_policy = policy;
        self
    }

    /// Auto-flush threshold (flush knob): once this many requests are
    /// pending, the queue drains without an explicit
    /// [`PimCluster::flush`].
    ///
    /// On a synchronous cluster ([`PimClusterBuilder::build`]) the drain
    /// happens inside [`PimCluster::submit`] and the results are banked
    /// for the next explicit flush. On a spawned service
    /// ([`PimClusterBuilder::spawn`]) the worker flushes in the
    /// background and results become waitable immediately. Unset by
    /// default.
    pub fn auto_flush_at(mut self, pending: usize) -> Self {
        self.auto_flush_at = Some(pending);
        self
    }

    /// Max-latency deadline (service-only flush knob): the spawned
    /// worker flushes once the oldest pending request has waited this
    /// long, so small batches never stall behind an unreached
    /// [`auto_flush_at`](PimClusterBuilder::auto_flush_at) threshold.
    /// Both knobs may be set together — whichever trips first flushes.
    ///
    /// Service-only: [`PimClusterBuilder::build`] rejects it (a
    /// synchronous cluster has no thread to act on a deadline).
    pub fn flush_after(mut self, deadline: Duration) -> Self {
        self.flush_after = Some(deadline);
        self
    }

    /// Bounds the service's submission queue (service-only backpressure
    /// knob): with more than this many submissions in flight,
    /// [`ClusterHandle::submit`] blocks until the worker catches up and
    /// [`ClusterHandle::try_submit`] returns
    /// [`ClusterError::Saturated`]. Unbounded by default.
    ///
    /// Service-only: [`PimClusterBuilder::build`] rejects it (a
    /// synchronous cluster executes on the submitting thread, so its
    /// queue never outruns the caller).
    pub fn queue_limit(mut self, in_flight: usize) -> Self {
        self.queue_limit = Some(in_flight);
        self
    }

    /// Background scrub cadence (service-only health knob): the worker
    /// runs one [`PimDevice::scrub_pass`](crate::device::PimDevice::scrub_pass)
    /// per period on a round-robin shard, whenever the queue is idle or
    /// the flush deadline leaves slack — scrubbing never delays a
    /// deadline flush. Quarantined shards stay in the rotation: clean
    /// scrubs are how they recover.
    ///
    /// Defaults to [`default_scrub_period`] (25 ms, the reliability
    /// model's daily check window compressed to simulation time) on
    /// spawned services. Derive a rate-specific period with
    /// [`scrub_period_for`].
    ///
    /// Service-only: [`PimClusterBuilder::build`] rejects it (a
    /// synchronous cluster has no thread to scrub from; use
    /// [`PimCluster::scrub_shard`] for explicit scrubs).
    ///
    /// # Example
    ///
    /// ```
    /// use pimecc::prelude::*;
    /// use std::time::Duration;
    ///
    /// # fn main() -> Result<(), ClusterError> {
    /// let handle = PimClusterBuilder::new(2, 30, 3)
    ///     .scrub_period(Duration::from_millis(5))
    ///     .spawn()?;
    /// handle.close()?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn scrub_period(mut self, period: Duration) -> Self {
        self.scrub_period = Some(period);
        self
    }

    /// Error budget (health knob, both front-ends): a shard whose rolling
    /// error window (corrected + uncorrectable, over the last 32
    /// observations) *exceeds* this count is **quarantined** — removed
    /// from the scheduler's active list, its traffic rerouted to the
    /// healthy shards — until
    /// [`recovery_scrubs`](PimClusterBuilder::recovery_scrubs)
    /// consecutive clean scrubs restore it. Unset by default (no
    /// quarantine).
    ///
    /// Rerouting is deterministic: a pool with a quarantined shard plans
    /// exactly like a pool built without it (see
    /// [the health module](health)).
    ///
    /// # Example
    ///
    /// ```
    /// use pimecc::prelude::*;
    ///
    /// # fn main() -> Result<(), ClusterError> {
    /// let cluster = PimClusterBuilder::new(3, 30, 3)
    ///     .error_budget(4)
    ///     .recovery_scrubs(2)
    ///     .build()?;
    /// assert_eq!(cluster.health().quarantined(), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn error_budget(mut self, errors: u64) -> Self {
        self.error_budget = Some(errors);
        self
    }

    /// Consecutive clean scrub passes that lift a quarantine (default: 3).
    pub fn recovery_scrubs(mut self, scrubs: u32) -> Self {
        self.recovery_scrubs = Some(scrubs);
        self
    }

    /// Re-dispatches granted to a request whose batch drew an
    /// uncorrectable ECC verdict on its lines (robustness knob, both
    /// front-ends; default: 2). A suspect ticket's outputs are **always**
    /// suppressed — this knob only sets how many fresh placements (next
    /// wave, preferring a different shard) are tried before the ticket
    /// dead-letters as [`ClusterError::RequestFailed`]. `max_retries(0)`
    /// dead-letters on the first uncorrectable verdict; no setting ever
    /// resolves a suspect output.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = Some(retries);
        self
    }

    /// Line-retirement threshold (robustness knob, both front-ends):
    /// a block-line accused of uncorrectable errors by `strikes` distinct
    /// scrubs or batch checks is retired — removed from every future
    /// placement on both axes, its capacity deducted from the shard's
    /// utilization denominator. Unset by default (lines never retire);
    /// `0` is rejected at build time with
    /// [`ClusterError::ZeroRetireAfter`]. See
    /// [`RetiredLines`](crate::device::RetiredLines) for the evidence
    /// streams and [the health module](health) for how retirement
    /// composes with whole-shard quarantine.
    pub fn retire_after(mut self, strikes: u32) -> Self {
        self.retire_after = Some(strikes);
        self
    }

    /// Installs a fault hook on one shard (fault-injection knob for
    /// examples and tests): the hook runs against the shard's protected
    /// memory once per batch, before the pre-execution check and the
    /// input load — the cluster-level twin of
    /// [`PimDeviceBuilder::on_batch_loaded`](crate::device::PimDeviceBuilder::on_batch_loaded).
    /// One hook per shard; a later call for the same shard replaces the
    /// earlier one.
    pub fn shard_fault_hook(
        mut self,
        shard: usize,
        hook: impl FnMut(&mut ProtectedMemory) + Send + 'static,
    ) -> Self {
        self.fault_hooks.push((shard, Box::new(hook)));
        self
    }

    /// Validates the knobs shared by both front-ends and constructs the
    /// shard pool.
    fn build_core(self) -> Result<(ClusterCore, ServiceConfig), ClusterError> {
        if self.shards == 0 {
            return Err(ClusterError::NoShards);
        }
        if self.batch_limit == Some(0) {
            return Err(ClusterError::ZeroBatchLimit);
        }
        if self.pack_limit == Some(0) {
            return Err(ClusterError::ZeroPackLimit);
        }
        if self.auto_flush_at == Some(0) {
            return Err(ClusterError::ZeroFlushThreshold);
        }
        if self.flush_after == Some(Duration::ZERO) {
            return Err(ClusterError::ZeroFlushDeadline);
        }
        if self.queue_limit == Some(0) {
            return Err(ClusterError::ZeroQueueLimit);
        }
        if self.scrub_period == Some(Duration::ZERO) {
            return Err(ClusterError::ZeroScrubPeriod);
        }
        if self.recovery_scrubs == Some(0) {
            return Err(ClusterError::ZeroRecoveryScrubs);
        }
        if self.retire_after == Some(0) {
            return Err(ClusterError::ZeroRetireAfter);
        }
        if let Some(shard) = self
            .coverage_overrides
            .iter()
            .map(|&(shard, _)| shard)
            .chain(self.fault_hooks.iter().map(|&(shard, _)| shard))
            .find(|&shard| shard >= self.shards)
        {
            return Err(ClusterError::ShardOutOfRange {
                shard,
                shards: self.shards,
            });
        }
        let geometries = match self.geometries {
            Some(g) => {
                if g.len() != self.shards {
                    return Err(ClusterError::GeometryArity {
                        geometries: g.len(),
                        shards: self.shards,
                    });
                }
                g
            }
            None => vec![(self.n, self.m); self.shards],
        };
        let n_max = geometries
            .iter()
            .map(|&(n, _)| n)
            .max()
            .expect("at least one shard");
        let mut hooks: Vec<Option<BatchFaultHook>> = (0..self.shards).map(|_| None).collect();
        for (shard, hook) in self.fault_hooks {
            hooks[shard] = Some(hook);
        }
        let mut shards = Vec::with_capacity(self.shards);
        for (i, hook) in hooks.into_iter().enumerate() {
            let coverage = self
                .coverage_overrides
                .iter()
                .rev()
                .find(|(shard, _)| *shard == i)
                .map_or_else(CoveragePolicy::default, |(_, c)| c.clone());
            let (n, m) = geometries[i];
            let mut builder = PimDeviceBuilder::new(n, m)
                .check_policy(self.check_policy)
                .coverage(coverage)
                .engine(self.engine);
            if let Some(strikes) = self.retire_after {
                builder = builder.retire_after(strikes);
            }
            if let Some(hook) = hook {
                builder = builder.on_batch_loaded(hook);
            }
            let device = builder
                .build()
                .map_err(|source| ClusterError::Shard { shard: i, source })?;
            shards.push(device);
        }
        let batch_limit = self.batch_limit.unwrap_or(n_max).min(n_max);
        let health = HealthMonitor::new(
            self.shards,
            HealthConfig {
                scrub_period: self.scrub_period,
                error_budget: self.error_budget,
                recovery_scrubs: self.recovery_scrubs.unwrap_or(3),
                ..HealthConfig::default()
            },
        );
        let core = ClusterCore {
            shards,
            batch_limit,
            pack_limit: self.pack_limit.unwrap_or(usize::MAX),
            axis_policy: self.axis_policy,
            max_retries: self.max_retries.unwrap_or(2),
            programs: ProgramCache::default(),
            pending: Vec::new(),
            pending_partitioned: Vec::new(),
            waves_dispatched: 0,
            health,
            arena: FlushArena::default(),
        };
        let config = ServiceConfig {
            flush_at: self.auto_flush_at,
            flush_after: self.flush_after,
            queue_limit: self.queue_limit,
        };
        Ok((core, config))
    }

    /// Builds the cluster for synchronous use on the caller's thread.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoShards`] / [`ClusterError::ZeroBatchLimit`] /
    /// [`ClusterError::ZeroPackLimit`] /
    /// [`ClusterError::ZeroFlushThreshold`] /
    /// [`ClusterError::ShardOutOfRange`] on bad knobs,
    /// [`ClusterError::ServiceOnly`] when a service-only knob
    /// ([`flush_after`](PimClusterBuilder::flush_after),
    /// [`queue_limit`](PimClusterBuilder::queue_limit),
    /// [`scrub_period`](PimClusterBuilder::scrub_period)) is set, and [`ClusterError::Shard`] when a shard's geometry or
    /// coverage map is rejected.
    pub fn build(self) -> Result<PimCluster, ClusterError> {
        if self.flush_after.is_some() {
            return Err(ClusterError::ServiceOnly {
                knob: "flush_after",
            });
        }
        if self.queue_limit.is_some() {
            return Err(ClusterError::ServiceOnly {
                knob: "queue_limit",
            });
        }
        if self.scrub_period.is_some() {
            return Err(ClusterError::ServiceOnly {
                knob: "scrub_period",
            });
        }
        let (core, config) = self.build_core()?;
        Ok(PimCluster {
            core,
            auto_flush_at: config.flush_at,
            next_ticket: 0,
            banked: None,
            deferred_error: None,
        })
    }

    /// Builds the shard pool and **moves it into a dedicated worker
    /// thread**, returning a cloneable [`ClusterHandle`]. Submissions
    /// flow to the worker over an MPSC channel and never block on shard
    /// execution; the worker flushes on the configured
    /// [`auto_flush_at`](PimClusterBuilder::auto_flush_at) threshold
    /// and/or [`flush_after`](PimClusterBuilder::flush_after) deadline,
    /// on [`ClusterHandle::flush`], or when a ticket is waited on.
    ///
    /// A spawned service scrubs in the background by default: an unset
    /// [`scrub_period`](PimClusterBuilder::scrub_period) defaults to
    /// [`default_scrub_period`] (the reliability model's daily check
    /// window compressed to simulation time).
    ///
    /// # Errors
    ///
    /// As [`PimClusterBuilder::build`], plus
    /// [`ClusterError::ZeroFlushDeadline`] /
    /// [`ClusterError::ZeroQueueLimit`] /
    /// [`ClusterError::ZeroScrubPeriod`] on degenerate service knobs (service-only knobs are of course accepted here).
    pub fn spawn(mut self) -> Result<ClusterHandle, ClusterError> {
        if self.scrub_period.is_none() {
            self.scrub_period = Some(default_scrub_period());
        }
        let (core, config) = self.build_core()?;
        Ok(handle::spawn(core, config))
    }
}

/// A pool of [`PimDevice`] shards behind one submission queue, driven
/// synchronously on the caller's thread.
///
/// This is the thin blocking wrapper over the cluster service engine: it
/// owns the same [`ClusterCore`](self) the spawned worker would, and
/// `submit`/`flush` drive it inline. For the asynchronous front-end —
/// non-blocking submission, waitable tickets, background deadline
/// flushing — see [`PimClusterBuilder::spawn`] and [`ClusterHandle`].
///
/// See the [module documentation](self) for the execution model and an
/// end-to-end example.
pub struct PimCluster {
    core: ClusterCore,
    auto_flush_at: Option<usize>,
    next_ticket: u64,
    /// Results of auto-flushed waves, awaiting the next explicit flush.
    banked: Option<ClusterOutcome>,
    /// First error of a failed auto-flush, surfaced by the next explicit
    /// flush (submissions themselves never fail for scheduler reasons).
    deferred_error: Option<ClusterError>,
}

impl PimCluster {
    /// Shorthand for [`PimClusterBuilder::new`]`(shards, n, m).build()`.
    ///
    /// # Errors
    ///
    /// See [`PimClusterBuilder::build`].
    pub fn new(shards: usize, n: usize, m: usize) -> Result<Self, ClusterError> {
        PimClusterBuilder::new(shards, n, m).build()
    }

    /// Number of shards in the pool.
    pub fn shards(&self) -> usize {
        self.core.shards.len()
    }

    /// Line length of the pool's tallest shard — the widest program the
    /// cluster admits. On a uniform pool this is every shard's row count.
    pub fn shard_capacity(&self) -> usize {
        self.core.shard_capacity()
    }

    /// Total rows across shards — the cluster's requests-per-wave ceiling.
    /// On a mixed pool ([`PimClusterBuilder::shard_geometries`]) this is
    /// the sum of the per-shard line counts.
    pub fn capacity(&self) -> usize {
        self.core.total_lines()
    }

    /// The line limit in force (lines per dispatched batch).
    pub fn batch_limit(&self) -> usize {
        self.core.batch_limit
    }

    /// The co-packing limit in force (requests per line;
    /// `usize::MAX` = bounded only by footprint).
    pub fn pack_limit(&self) -> usize {
        self.core.pack_limit
    }

    /// The axis policy in force.
    pub fn axis_policy(&self) -> AxisPolicy {
        self.core.axis_policy
    }

    /// Requests accepted but not yet executed (ordinary and partitioned).
    pub fn pending(&self) -> usize {
        self.core.pending_total()
    }

    /// Read access to one shard (stats, consistency checks).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &PimDevice {
        &self.core.shards[shard]
    }

    /// The pool's current [`HealthSnapshot`]: per-shard scrub / error /
    /// wear / quarantine ledgers and the latency percentiles of every
    /// flush so far. The synchronous twin of
    /// [`ClusterHandle::metrics`].
    pub fn health(&self) -> HealthSnapshot {
        self.core.health.snapshot()
    }

    /// Runs one explicit scrub pass on `shard` — check every covered
    /// block (correcting single-bit upsets) and re-encode its diagonal
    /// check bits — and folds the result into the health ledgers,
    /// driving the same quarantine / recovery transitions a service's
    /// background scrubs would. The synchronous front-end has no worker
    /// thread, so scrub cadence is the caller's to choose.
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardOutOfRange`] for a bad index;
    /// [`ClusterError::Shard`] when the device rejects the pass.
    pub fn scrub_shard(&mut self, shard: usize) -> Result<ScrubReport, ClusterError> {
        if shard >= self.core.shards.len() {
            return Err(ClusterError::ShardOutOfRange {
                shard,
                shards: self.core.shards.len(),
            });
        }
        let report = self.core.shards[shard]
            .scrub_pass()
            .map_err(|source| ClusterError::Shard { shard, source })?;
        self.core.health.note_scrub(shard, &report.check);
        let retired = self.core.shards[shard].retired().retired_physical_lines();
        self.core.health.set_retired(shard, retired as u64);
        Ok(report)
    }

    /// Manually quarantines (`true`) or restores (`false`) a shard,
    /// overriding the error-budget policy — the operator's drain switch.
    /// Quarantined shards receive no traffic (the scheduler reroutes
    /// deterministically) but still count toward [`PimCluster::shards`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardOutOfRange`] for a bad index.
    pub fn set_quarantined(&mut self, shard: usize, quarantined: bool) -> Result<(), ClusterError> {
        if shard >= self.core.shards.len() {
            return Err(ClusterError::ShardOutOfRange {
                shard,
                shards: self.core.shards.len(),
            });
        }
        self.core.health.force_quarantine(shard, quarantined);
        Ok(())
    }

    /// Number of distinct programs held in the cluster's compile cache.
    pub fn compiled_count(&self) -> usize {
        self.core.programs.len()
    }

    /// Empties the compile cache; outstanding handles stay valid (they own
    /// their program) and are re-inserted if compiled or adopted again.
    pub fn clear_compiled(&mut self) {
        self.core.programs.clear();
    }

    /// Maps `netlist` onto the shards' row width with SIMPLER — **once**:
    /// the handle is cached by structural fingerprint and shared by every
    /// shard the scheduler dispatches it to. On a mixed pool
    /// ([`PimClusterBuilder::shard_geometries`]) the distinct line
    /// lengths are tried smallest-first, so the program lands in the
    /// tightest geometry it fits and stays routable to the most shards.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Map`] when the function fits no shard row.
    pub fn compile(&mut self, netlist: &NorNetlist) -> Result<CompiledProgram, ClusterError> {
        let mut last = None;
        for row_size in self.core.distinct_capacities() {
            match self.core.programs.compile(netlist, row_size) {
                Ok(p) => return Ok(p),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("a cluster has at least one shard").into())
    }

    /// Maps `netlist` for *co-packing* — once, shared by every shard:
    /// [`map_dense`](pimecc_simpler::map_dense) squeezes the function into the narrowest slot that
    /// stays within 3/2 of the full-width cycle count, so the scheduler
    /// places several requests side by side in each line
    /// (`footprint() * k <= n`) when traffic outgrows the line count.
    /// Cached separately from [`PimCluster::compile`]; both mappings of
    /// one netlist can ride the queue together (they form distinct
    /// fingerprint groups).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Map`] when the function fits no shard row even at
    /// full width.
    pub fn compile_packed(
        &mut self,
        netlist: &NorNetlist,
    ) -> Result<CompiledProgram, ClusterError> {
        let mut last = None;
        for row_size in self.core.distinct_capacities() {
            match self.core.programs.compile_packed(netlist, row_size) {
                Ok(p) => return Ok(p),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("a cluster has at least one shard").into())
    }

    /// Compiles a netlist **too wide for one shard line** by partitioning
    /// it into a DAG of line-sized sub-programs (each mapped with the
    /// dense packer and cached like any other program) connected by a
    /// host-routed cut-signal table. Submit the result with
    /// [`PimCluster::submit_partitioned`]; it executes as a chain of
    /// dependency-ordered waves within one flush.
    ///
    /// Netlists that *do* fit a line come back as a single-part program —
    /// the partitioned path is a strict superset of
    /// [`PimCluster::compile_packed`] in what it accepts.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Map`] when even single-gate partitions cannot be
    /// mapped onto the shard row (geometry too small for any program).
    pub fn compile_partitioned(
        &mut self,
        netlist: &NorNetlist,
    ) -> Result<Arc<PartitionedProgram>, ClusterError> {
        let row_size = self.core.shard_capacity();
        Ok(Arc::new(compiler::compile_partitioned(
            &mut self.core.programs,
            netlist,
            row_size,
        )?))
    }

    /// Enqueues one request against a [`PartitionedProgram`] and returns
    /// its [`Ticket`] — the partitioned twin of [`PimCluster::submit`].
    /// The next flush serves it as dependency-ordered sub-program waves
    /// (cut signals routed host-side between levels) and lands **one**
    /// merged [`TicketResult`] carrying the program's final outputs (its
    /// latency fields are documented there); partitioned and ordinary
    /// traffic share the queue, the flush and the outcome.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InputArity`] on an input-width mismatch;
    /// * [`ClusterError::ProgramTooWide`] if the program was compiled for
    ///   a wider shard line.
    pub fn submit_partitioned(
        &mut self,
        program: &Arc<PartitionedProgram>,
        inputs: Vec<bool>,
    ) -> Result<Ticket, ClusterError> {
        service::validate_partitioned(program, &inputs, self.core.shard_capacity())?;
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.core.pending_partitioned.push(PendingPartitioned {
            ticket,
            submitted_at: Instant::now(),
            program: Arc::clone(program),
            inputs,
        });
        if let Some(at) = self.auto_flush_at {
            if self.core.pending_total() >= at {
                match self.run_pending() {
                    Ok(flushed) => match &mut self.banked {
                        Some(bank) => bank.merge(flushed),
                        None => self.banked = Some(flushed),
                    },
                    Err(e) => {
                        self.deferred_error.get_or_insert(e);
                    }
                }
            }
        }
        Ok(ticket)
    }

    /// Adopts an externally mapped [`Program`] (e.g. parsed from a
    /// listing), caching it by its [`Program::fingerprint`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::ProgramTooWide`] when the program was mapped for a
    /// wider row than the shards have.
    pub fn adopt(&mut self, program: &Program) -> Result<CompiledProgram, ClusterError> {
        if program.row_size > self.core.shard_capacity() {
            return Err(ClusterError::ProgramTooWide {
                row_size: program.row_size,
                n: self.core.shard_capacity(),
            });
        }
        Ok(self.core.programs.adopt(program))
    }

    /// Enqueues one request and returns its [`Ticket`]. Nothing executes
    /// until a flush — unless an
    /// [`auto_flush_at`](PimClusterBuilder::auto_flush_at) threshold is
    /// configured and reached, in which case the queue drains into the
    /// internal bank before this call returns.
    ///
    /// An auto-flush that fails never fails the submission: the ticket is
    /// still returned (the caller must be able to redeem whatever the
    /// partial flush banked), and the error is *deferred* to the next
    /// explicit [`PimCluster::flush`].
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InputArity`] on an input-width mismatch;
    /// * [`ClusterError::ProgramTooWide`] if the handle was compiled for a
    ///   wider device.
    pub fn submit(
        &mut self,
        program: &CompiledProgram,
        inputs: Vec<bool>,
    ) -> Result<Ticket, ClusterError> {
        service::validate_submission(program, &inputs, self.core.shard_capacity())?;
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.core.pending.push(Pending {
            ticket,
            submitted_at: Instant::now(),
            program: program.clone(),
            inputs,
        });
        if let Some(at) = self.auto_flush_at {
            if self.core.pending_total() >= at {
                match self.run_pending() {
                    Ok(flushed) => match &mut self.banked {
                        Some(bank) => bank.merge(flushed),
                        None => self.banked = Some(flushed),
                    },
                    // run_pending already banked the completed batches;
                    // surface the first failure at the next flush, after
                    // the ticket reaches the caller.
                    Err(e) => {
                        self.deferred_error.get_or_insert(e);
                    }
                }
            }
        }
        Ok(ticket)
    }

    /// Enqueues a whole batch of requests for one program and returns
    /// their [`TicketRange`] — the multi-lane form of
    /// [`PimCluster::submit`], amortizing the per-request bookkeeping (one
    /// submission timestamp and one auto-flush probe for the batch, not
    /// one per request). Tickets are issued in iteration order.
    ///
    /// All accepted requests share one `submitted_at` instant for queue
    /// latency accounting; an auto-flush threshold is only evaluated after
    /// the whole batch is queued.
    ///
    /// # Errors
    ///
    /// As [`PimCluster::submit`]. Validation is per request: on a failure,
    /// requests accepted *before* the offending one stay queued (their
    /// tickets start at the id the pre-call
    /// [`PimCluster::next_ticket_id`] reported).
    pub fn submit_batch(
        &mut self,
        program: &CompiledProgram,
        inputs: impl IntoIterator<Item = Vec<bool>>,
    ) -> Result<TicketRange, ClusterError> {
        let start = self.next_ticket;
        let submitted_at = Instant::now();
        for req in inputs {
            service::validate_submission(program, &req, self.core.shard_capacity())?;
            let ticket = Ticket(self.next_ticket);
            self.next_ticket += 1;
            self.core.pending.push(Pending {
                ticket,
                submitted_at,
                program: program.clone(),
                inputs: req,
            });
        }
        let range = TicketRange {
            start,
            len: self.next_ticket - start,
        };
        if let Some(at) = self.auto_flush_at {
            if self.core.pending_total() >= at {
                match self.run_pending() {
                    Ok(flushed) => match &mut self.banked {
                        Some(bank) => bank.merge(flushed),
                        None => self.banked = Some(flushed),
                    },
                    Err(e) => {
                        self.deferred_error.get_or_insert(e);
                    }
                }
            }
        }
        Ok(range)
    }

    /// The id the next accepted submission's [`Ticket`] will carry —
    /// lets a caller bound a [`PimCluster::submit_batch`] before making it.
    pub fn next_ticket_id(&self) -> u64 {
        self.next_ticket
    }

    /// Drains the queue — pack by fingerprint, dispatch in waves across
    /// the shards — and returns everything served since the last flush,
    /// auto-flushed waves included, sorted by ticket.
    ///
    /// An empty flush (nothing pending, nothing banked) returns an empty
    /// outcome with zero waves.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shard`] when a shard rejects its batch (shard
    /// errors indicate bugs, not runtime conditions — submissions are
    /// validated on entry), or the deferred error of a failed auto-flush.
    /// Results of batches completed before the failure are *not* lost:
    /// they are banked and returned by the next successful flush.
    /// Requests the scheduler had not yet dispatched are dropped.
    pub fn flush(&mut self) -> Result<ClusterOutcome, ClusterError> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        let fresh = self.run_pending()?;
        Ok(match self.banked.take() {
            Some(mut bank) => {
                bank.merge(fresh);
                // `merge` appends; restore the sorted order `outputs_for`
                // binary-searches on.
                bank.results.sort_by_key(|r| r.ticket);
                bank
            }
            // Already sorted by the scheduler.
            None => fresh,
        })
    }

    /// Executes everything pending. On a shard error the partial outcome
    /// (completed batches) is banked so served tickets survive; see
    /// [`PimCluster::flush`].
    fn run_pending(&mut self) -> Result<ClusterOutcome, ClusterError> {
        let report = self.core.flush_pending();
        match report.error {
            None => Ok(report.outcome),
            Some(e) => {
                match &mut self.banked {
                    Some(bank) => bank.merge(report.outcome),
                    None => self.banked = Some(report.outcome),
                }
                Err(e)
            }
        }
    }
}

impl std::fmt::Debug for PimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimCluster")
            .field("shards", &self.core.shards.len())
            .field("n", &self.core.shard_capacity())
            .field("batch_limit", &self.core.batch_limit)
            .field("pack_limit", &self.core.pack_limit)
            .field("axis_policy", &self.core.axis_policy)
            .field("auto_flush_at", &self.auto_flush_at)
            .field("pending", &self.core.pending.len())
            .field("pending_partitioned", &self.core.pending_partitioned.len())
            .field("compiled_programs", &self.core.programs.len())
            .field("banked", &self.banked.is_some())
            .field("deferred_error", &self.deferred_error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimecc_netlist::{Netlist, NetlistBuilder};

    fn xor_circuit() -> (NorNetlist, Netlist) {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(2);
        let g = b.xor(ins[0], ins[1]);
        b.output(g);
        let nl = b.finish();
        (nl.to_nor(), nl)
    }

    fn mux_circuit() -> (NorNetlist, Netlist) {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(3);
        let g1 = b.xor(ins[0], ins[1]);
        let g2 = b.mux(ins[2], g1, ins[0]);
        b.output(g1);
        b.output(g2);
        let nl = b.finish();
        (nl.to_nor(), nl)
    }

    #[test]
    fn builder_rejects_bad_knobs() {
        assert_eq!(
            PimClusterBuilder::new(0, 30, 3).build().unwrap_err(),
            ClusterError::NoShards
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .batch_limit(0)
                .build()
                .unwrap_err(),
            ClusterError::ZeroBatchLimit
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .auto_flush_at(0)
                .build()
                .unwrap_err(),
            ClusterError::ZeroFlushThreshold
        );
        assert!(matches!(
            PimClusterBuilder::new(1, 10, 3).build().unwrap_err(),
            ClusterError::Shard { shard: 0, .. }
        ));
        assert_eq!(
            PimClusterBuilder::new(3, 30, 3)
                .shard_geometries(vec![(30, 3), (60, 3)])
                .build()
                .unwrap_err(),
            ClusterError::GeometryArity {
                geometries: 2,
                shards: 3
            }
        );
    }

    #[test]
    fn service_only_knobs_are_rejected_by_build_and_validated_by_spawn() {
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .flush_after(Duration::from_millis(1))
                .build()
                .unwrap_err(),
            ClusterError::ServiceOnly {
                knob: "flush_after"
            }
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .queue_limit(8)
                .build()
                .unwrap_err(),
            ClusterError::ServiceOnly {
                knob: "queue_limit"
            }
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .flush_after(Duration::ZERO)
                .spawn()
                .unwrap_err(),
            ClusterError::ZeroFlushDeadline
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .queue_limit(0)
                .spawn()
                .unwrap_err(),
            ClusterError::ZeroQueueLimit
        );
        assert_eq!(
            PimClusterBuilder::new(0, 30, 3).spawn().unwrap_err(),
            ClusterError::NoShards
        );
    }

    #[test]
    fn health_knobs_are_validated_on_both_front_ends() {
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .scrub_period(Duration::from_millis(5))
                .build()
                .unwrap_err(),
            ClusterError::ServiceOnly {
                knob: "scrub_period"
            }
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .scrub_period(Duration::ZERO)
                .spawn()
                .unwrap_err(),
            ClusterError::ZeroScrubPeriod
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .recovery_scrubs(0)
                .spawn()
                .unwrap_err(),
            ClusterError::ZeroRecoveryScrubs
        );
        assert_eq!(
            PimClusterBuilder::new(1, 30, 3)
                .recovery_scrubs(0)
                .build()
                .unwrap_err(),
            ClusterError::ZeroRecoveryScrubs,
            "recovery_scrubs works on both front-ends, so both validate it"
        );
        assert_eq!(
            PimClusterBuilder::new(2, 30, 3)
                .shard_fault_hook(7, |_| {})
                .spawn()
                .unwrap_err(),
            ClusterError::ShardOutOfRange {
                shard: 7,
                shards: 2
            }
        );
        // error_budget + recovery_scrubs are accepted by the sync build.
        let cluster = PimClusterBuilder::new(2, 30, 3)
            .error_budget(4)
            .recovery_scrubs(2)
            .build()
            .expect("health budgets work synchronously");
        assert_eq!(cluster.health().quarantined(), 0);
    }

    #[test]
    fn per_shard_policy_overrides_apply() {
        let cluster = PimClusterBuilder::new(3, 30, 3)
            .check_policy(CheckPolicy::Skip)
            .shard_coverage(2, CoveragePolicy::Uncovered(vec![(0, 0)]))
            .build()
            .expect("cluster");
        for i in 0..3 {
            assert_eq!(cluster.shard(i).check_policy(), CheckPolicy::Skip);
        }
        assert!(cluster.shard(0).memory().block_covered(0, 0));
        assert!(!cluster.shard(2).memory().block_covered(0, 0));
        assert_eq!(
            PimClusterBuilder::new(2, 30, 3)
                .shard_coverage(5, CoveragePolicy::Full)
                .build()
                .unwrap_err(),
            ClusterError::ShardOutOfRange {
                shard: 5,
                shards: 2
            }
        );
    }

    #[test]
    fn submit_validates_before_enqueueing() {
        let (nor, _) = xor_circuit();
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        let p = cluster.compile(&nor).expect("compiles");
        assert_eq!(
            cluster.submit(&p, vec![true]).unwrap_err(),
            ClusterError::InputArity { got: 1, want: 2 }
        );
        assert_eq!(cluster.pending(), 0, "rejected submissions do not queue");

        // A handle compiled for a wider device is refused.
        let mut wide = PimDevice::new(60, 3).expect("device");
        let too_wide = wide.compile(&nor).expect("compiles");
        assert_eq!(
            cluster.submit(&too_wide, vec![true, false]).unwrap_err(),
            ClusterError::ProgramTooWide {
                row_size: 60,
                n: 30
            }
        );
        let wide_program = too_wide.program().clone();
        assert_eq!(
            cluster.adopt(&wide_program).unwrap_err(),
            ClusterError::ProgramTooWide {
                row_size: 60,
                n: 30
            }
        );
    }

    #[test]
    fn compile_cache_is_shared_across_the_pool() {
        let (nor, _) = xor_circuit();
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        let a = cluster.compile(&nor).expect("compiles");
        let b = cluster.compile(&nor).expect("compiles");
        assert_eq!(a.id(), b.id(), "one mapping serves the whole pool");
        assert_eq!(cluster.compiled_count(), 1);
        let adopted = cluster.adopt(a.program()).expect("fits");
        let again = cluster.adopt(a.program()).expect("fits");
        assert_eq!(adopted.id(), again.id());
        assert_eq!(
            cluster.compiled_count(),
            2,
            "program fingerprints are a separate domain"
        );
        cluster.clear_compiled();
        assert_eq!(cluster.compiled_count(), 0);
        let t = cluster
            .submit(&adopted, vec![true, false])
            .expect("cleared cache does not invalidate handles");
        let outcome = cluster.flush().expect("flushes");
        assert!(outcome.outputs_for(t).is_some());
    }

    #[test]
    fn empty_flush_returns_an_empty_outcome() {
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        let outcome = cluster.flush().expect("flushes");
        assert_eq!(outcome.requests(), 0);
        assert_eq!(outcome.waves, 0);
        assert_eq!(outcome.wall_mem_cycles, 0);
        assert_eq!(outcome.shard_reports.len(), 2);
    }

    #[test]
    fn mixed_traffic_packs_by_fingerprint_and_answers_every_ticket() {
        let (xor_nor, xor_nl) = xor_circuit();
        let (mux_nor, mux_nl) = mux_circuit();
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        let xor = cluster.compile(&xor_nor).expect("compiles");
        let mux = cluster.compile(&mux_nor).expect("compiles");

        let mut expect = Vec::new();
        for v in 0..20u32 {
            if v % 2 == 0 {
                let inputs = vec![v & 2 != 0, v & 4 != 0];
                let t = cluster.submit(&xor, inputs.clone()).expect("submits");
                expect.push((t, xor_nl.eval(&inputs)));
            } else {
                let inputs = vec![v & 2 != 0, v & 4 != 0, v & 8 != 0];
                let t = cluster.submit(&mux, inputs.clone()).expect("submits");
                expect.push((t, mux_nl.eval(&inputs)));
            }
        }
        assert_eq!(cluster.pending(), 20);
        let outcome = cluster.flush().expect("flushes");
        assert_eq!(cluster.pending(), 0);
        assert_eq!(outcome.requests(), 20);
        // Two programs, two shards, 10 requests each — one wave.
        assert_eq!(outcome.waves, 1);
        for (t, want) in &expect {
            assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()), "{t}");
        }
        // Both shards carried work and their reports add up.
        for (i, report) in outcome.shard_reports.iter().enumerate() {
            assert_eq!(report.requests, 10, "shard {i}");
            assert_eq!(report.batches, 1, "shard {i}");
            assert!(report.utilization(outcome.wall_mem_cycles) > 0.0);
            assert!(cluster.shard(i).memory().verify_consistency().is_ok());
        }
        let busy: u64 = outcome
            .shard_reports
            .iter()
            .map(|r| r.busy_mem_cycles)
            .sum();
        assert_eq!(outcome.stats.mem_cycles, busy);
        assert!(outcome.wall_mem_cycles < busy, "shards ran in parallel");
    }

    #[test]
    fn batch_limit_splits_groups_into_more_waves() {
        // pack_limit(1) restores the PR-2 row-only scheduler: overflow
        // becomes extra waves instead of extra offsets.
        let (nor, _) = xor_circuit();
        let mut cluster = PimClusterBuilder::new(1, 30, 3)
            .batch_limit(4)
            .pack_limit(1)
            .build()
            .expect("cluster");
        let p = cluster.compile(&nor).expect("compiles");
        for v in 0..10u32 {
            let _ = cluster
                .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                .expect("submits");
        }
        let outcome = cluster.flush().expect("flushes");
        assert_eq!(outcome.requests(), 10);
        assert_eq!(outcome.waves, 3, "10 requests in chunks of 4");
        assert_eq!(outcome.shard_reports[0].batches, 3);
        assert_eq!(outcome.shard_reports[0].lines_occupied, 10);
        assert!((outcome.packing_density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_packing_absorbs_overflow_into_offsets_instead_of_waves() {
        // The same 10-request overflow with co-packing left on: once the
        // single shard's 4 lines are claimed, the densify pass deepens the
        // batch (the xor program is a few cells wide, so several requests
        // share each line) and the flush needs one wave.
        let (nor, nl) = xor_circuit();
        let mut cluster = PimClusterBuilder::new(1, 30, 3)
            .batch_limit(4)
            .build()
            .expect("cluster");
        let p = cluster.compile(&nor).expect("compiles");
        let mut tickets = Vec::new();
        for v in 0..10u32 {
            tickets.push(
                cluster
                    .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                    .expect("submits"),
            );
        }
        let outcome = cluster.flush().expect("flushes");
        assert_eq!(outcome.requests(), 10);
        assert_eq!(outcome.waves, 1, "densify absorbs the overflow");
        assert_eq!(outcome.shard_reports[0].lines_occupied, 4);
        assert!(
            outcome.packing_density() > 2.0,
            "10 requests on 4 lines: {}",
            outcome.packing_density()
        );
        for (v, t) in tickets.iter().enumerate() {
            let v = v as u32;
            let want = nl.eval(&[v & 1 != 0, v & 2 != 0]);
            assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()), "{t}");
        }
        // Placement metadata surfaces per ticket: every slot within the 4
        // claimed lines, co-packed slots at non-zero offsets.
        assert!(outcome.results.iter().all(|r| r.line < 4));
        assert!(outcome.results.iter().any(|r| r.offset > 0));
    }

    #[test]
    fn wave_fill_origin_rotates_for_wear_leveling() {
        // pack_limit(1): every wave is one slot per line, so the slot
        // offset *is* the wave's fill origin. Waves 1.. must not start
        // from cell 0 again (the xor program is narrow, so its line has
        // several slot columns to rotate over), and two identical runs
        // must rotate identically.
        let (nor, nl) = xor_circuit();
        let run = || {
            let mut cluster = PimClusterBuilder::new(1, 30, 3)
                .batch_limit(4)
                .pack_limit(1)
                .build()
                .expect("cluster");
            let p = cluster.compile_packed(&nor).expect("compiles");
            let tickets: Vec<Ticket> = (0..12u32)
                .map(|v| {
                    cluster
                        .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                        .expect("submits")
                })
                .collect();
            (tickets, cluster.flush().expect("flushes"))
        };
        let (tickets, outcome) = run();
        assert_eq!(outcome.waves, 3);
        for r in &outcome.results {
            if r.wave == 0 {
                assert_eq!(r.offset, 0, "wave 0 fills from cell 0 as before");
            } else {
                assert!(
                    r.offset > 0,
                    "wave {} must not fill from cell 0 (ticket {})",
                    r.wave,
                    r.ticket
                );
            }
        }
        // Distinct waves use distinct origins while the rotation ring
        // lasts.
        let origin_of = |wave: usize| {
            outcome
                .results
                .iter()
                .find(|r| r.wave == wave)
                .map(|r| r.offset)
                .expect("wave has results")
        };
        assert_ne!(origin_of(0), origin_of(1));
        assert_ne!(origin_of(1), origin_of(2));
        // Results stay correct and deterministic under rotation.
        for (v, t) in tickets.iter().enumerate() {
            let v = v as u32;
            let want = nl.eval(&[v & 1 != 0, v & 2 != 0]);
            assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()), "{t}");
        }
        let (_, again) = run();
        assert_eq!(outcome, again, "rotation is a pure function of the wave");
    }

    #[test]
    fn wear_rotation_advances_across_flushes_not_just_inside_one() {
        // The regime the rotation was built for: many small flushes (as a
        // deadline- or threshold-flushing service produces). Per-flush
        // wave indices restart at zero, so the origin must be seeded by
        // the pool-lifetime wave count or every flush would pack at
        // origin 0 again.
        let (nor, nl) = xor_circuit();
        let mut cluster = PimClusterBuilder::new(1, 30, 3)
            .pack_limit(1)
            .build()
            .expect("cluster");
        let p = cluster.compile_packed(&nor).expect("compiles");
        let mut offsets = Vec::new();
        for round in 0..3u32 {
            let t = cluster
                .submit(&p, vec![round & 1 != 0, round & 2 != 0])
                .expect("submits");
            let outcome = cluster.flush().expect("flushes");
            let r = outcome.results.first().expect("served");
            assert_eq!(r.wave, 0, "each flush is a single wave");
            assert_eq!(
                outcome.outputs_for(t),
                Some(nl.eval(&[round & 1 != 0, round & 2 != 0]).as_slice())
            );
            offsets.push(r.offset);
        }
        assert_eq!(offsets[0], 0, "the pool's first wave fills from cell 0");
        assert!(
            offsets[1] > 0 && offsets[2] > 0,
            "later flushes must not fill from cell 0 again: {offsets:?}"
        );
        assert_ne!(offsets[1], offsets[2], "the origin keeps advancing");
    }

    #[test]
    fn auto_flush_banks_results_until_the_explicit_flush() {
        let (nor, nl) = xor_circuit();
        let mut cluster = PimClusterBuilder::new(2, 30, 3)
            .auto_flush_at(4)
            .build()
            .expect("cluster");
        let p = cluster.compile(&nor).expect("compiles");
        let mut tickets = Vec::new();
        for v in 0..6u32 {
            tickets.push(
                cluster
                    .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                    .expect("submits"),
            );
            assert!(cluster.pending() < 4, "threshold drains the queue");
        }
        assert_eq!(cluster.pending(), 2, "two stragglers await the flush");
        let outcome = cluster.flush().expect("flushes");
        assert_eq!(outcome.requests(), 6, "banked and fresh results merge");
        assert!(outcome.waves >= 2);
        for (v, t) in tickets.iter().enumerate() {
            let v = v as u32;
            let want = nl.eval(&[v & 1 != 0, v & 2 != 0]);
            assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()));
        }
        // Results arrive sorted by ticket even across the merge.
        for pair in outcome.results.windows(2) {
            assert!(pair[0].ticket < pair[1].ticket);
        }
        // The bank is spent: the next flush is empty.
        assert_eq!(cluster.flush().expect("flushes").requests(), 0);
    }

    #[test]
    fn a_too_narrow_shard_is_routed_around_not_crashed_into() {
        // Shard 1 is sabotaged (swapped for a crossbar too narrow for the
        // compiled programs). The geometry-aware scheduler reads each
        // shard's real capacity at flush time, so the 30-wide programs
        // never route there: both groups land on shard 0 — the foreign
        // fingerprint via pass-3 co-location — and the flush succeeds.
        let (xor_nor, xor_nl) = xor_circuit();
        let (mux_nor, mux_nl) = mux_circuit();
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        let p = cluster.compile(&xor_nor).expect("compiles");
        let q = cluster.compile(&mux_nor).expect("compiles");
        cluster.core.shards[1] = PimDevice::new(9, 3).expect("device");
        let t0 = cluster.submit(&p, vec![true, false]).expect("submits");
        let t1 = cluster
            .submit(&q, vec![true, true, false])
            .expect("submits");
        let outcome = cluster.flush().expect("the narrow shard is avoided");
        assert_eq!(
            outcome.outputs_for(t0),
            Some(xor_nl.eval(&[true, false]).as_slice())
        );
        assert_eq!(
            outcome.outputs_for(t1),
            Some(mux_nl.eval(&[true, true, false]).as_slice())
        );
        assert!(
            outcome.results.iter().all(|r| r.shard == 0),
            "nothing was dispatched to the 9-cell shard"
        );
        assert_eq!(outcome.waves, 1, "co-location keeps it to one wave");
    }

    #[test]
    fn auto_flush_routes_around_a_too_narrow_shard_and_banks_the_results() {
        // Shard 1 is sabotaged as in the explicit-flush test, but here the
        // wave runs *inside* submit (auto_flush_at). The submission yields
        // its ticket, the wave avoids the 9-cell shard entirely, and both
        // banked results are redeemable at the next explicit flush.
        let (xor_nor, xor_nl) = xor_circuit();
        let (mux_nor, mux_nl) = mux_circuit();
        let mut cluster = PimClusterBuilder::new(2, 30, 3)
            .auto_flush_at(2)
            .build()
            .expect("cluster");
        let p = cluster.compile(&xor_nor).expect("compiles");
        let q = cluster.compile(&mux_nor).expect("compiles");
        cluster.core.shards[1] = PimDevice::new(9, 3).expect("device");
        let t0 = cluster.submit(&p, vec![true, false]).expect("submits");
        let t1 = cluster
            .submit(&q, vec![true, true, false])
            .expect("the auto-flush must not swallow the ticket");
        assert_eq!(cluster.pending(), 0, "the auto-flush did run");
        let banked = cluster.flush().expect("the narrow shard is avoided");
        assert_eq!(
            banked.outputs_for(t0),
            Some(xor_nl.eval(&[true, false]).as_slice()),
            "the auto-flushed batch is redeemable with the returned ticket"
        );
        assert_eq!(
            banked.outputs_for(t1),
            Some(mux_nl.eval(&[true, true, false]).as_slice()),
            "the co-located foreign fingerprint survived too"
        );
        assert!(banked.results.iter().all(|r| r.shard == 0));
    }

    #[test]
    fn a_fault_struck_shard_still_answers_correctly() {
        // The pool inherits the device's ECC flow: a soft error that
        // strikes one shard before its batch is repaired by the batch's
        // pre-check, before the inputs land.
        let (nor, nl) = xor_circuit();
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        cluster.core.shards[1] = PimDeviceBuilder::new(30, 3)
            .on_batch_loaded(|pm| pm.inject_fault(0, 0))
            .build()
            .expect("device");
        let p = cluster.compile(&nor).expect("compiles");
        // Two groups force both shards into the wave: the mux group lands
        // on shard 1.
        let (mux_nor, mux_nl) = mux_circuit();
        let q = cluster.compile(&mux_nor).expect("compiles");
        let t0 = cluster.submit(&p, vec![true, false]).expect("submits");
        let t1 = cluster
            .submit(&q, vec![true, true, false])
            .expect("submits");
        let outcome = cluster.flush().expect("flushes");
        assert_eq!(
            outcome.outputs_for(t0),
            Some(nl.eval(&[true, false]).as_slice())
        );
        assert_eq!(
            outcome.outputs_for(t1),
            Some(mux_nl.eval(&[true, true, false]).as_slice())
        );
        assert_eq!(outcome.input_check.corrected, 1, "the strike was repaired");
    }

    #[test]
    fn spawned_service_serves_waited_and_drained_tickets() {
        let (nor, nl) = xor_circuit();
        let handle = PimClusterBuilder::new(2, 30, 3)
            .auto_flush_at(4)
            .spawn()
            .expect("spawns");
        let p = handle.compile(&nor).expect("compiles");
        let tickets: Vec<handle::Ticket> = (0..10u32)
            .map(|v| {
                handle
                    .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                    .expect("submits")
            })
            .collect();
        // Wait on the first half individually...
        for (v, t) in tickets.iter().take(5).enumerate() {
            let v = v as u32;
            let result = t.wait().expect("served");
            assert_eq!(result.outputs, nl.eval(&[v & 1 != 0, v & 2 != 0]));
            assert_eq!(result.ticket.id(), t.id());
        }
        // ...and drain the rest in bulk after closing.
        handle.close().expect("closes");
        let outcome = handle.drain().expect("drains");
        assert_eq!(outcome.requests(), 5, "only unclaimed tickets remain");
        for (v, t) in tickets.iter().enumerate().skip(5) {
            let v = v as u32;
            assert_eq!(
                outcome.outputs_for(t.key()),
                Some(nl.eval(&[v & 1 != 0, v & 2 != 0]).as_slice()),
                "{t}"
            );
        }
        // Exactly once: a waited ticket is gone, a second drain is empty.
        assert!(matches!(
            tickets[0].wait().unwrap_err(),
            ClusterError::TicketUnserved { ticket: 0 }
        ));
        assert_eq!(handle.drain().expect("drains").requests(), 0);
        // The service is closed for business.
        assert!(handle.is_closed());
        assert_eq!(
            handle.submit(&p, vec![true, false]).unwrap_err(),
            ClusterError::Closed
        );
        assert_eq!(handle.flush().unwrap_err(), ClusterError::Closed);
    }

    #[test]
    fn dropping_every_handle_winds_the_worker_down_gracefully() {
        let (nor, nl) = xor_circuit();
        let handle = PimClusterBuilder::new(1, 30, 3).spawn().expect("spawns");
        let p = handle.compile(&nor).expect("compiles");
        let t = handle.submit(&p, vec![true, true]).expect("submits");
        drop(handle);
        // The worker flushes the queue on its way out; the outstanding
        // ticket stays claimable.
        let result = t.wait().expect("served by the final flush");
        assert_eq!(result.outputs, nl.eval(&[true, true]));
    }

    #[test]
    fn a_panicking_worker_poisons_waiters_and_producers() {
        // A shard whose fault hook panics kills the worker, which runs
        // every shard's batch itself. Every blocked or future caller must
        // get `WorkerPoisoned` instead of hanging.
        let (nor, _) = xor_circuit();
        let device = PimDeviceBuilder::new(30, 3)
            .on_batch_loaded(|_| panic!("injected worker panic"))
            .build()
            .expect("device");
        let core = ClusterCore {
            shards: vec![device],
            batch_limit: 30,
            pack_limit: usize::MAX,
            axis_policy: AxisPolicy::default(),
            max_retries: 2,
            programs: ProgramCache::default(),
            pending: Vec::new(),
            pending_partitioned: Vec::new(),
            waves_dispatched: 0,
            health: HealthMonitor::new(1, HealthConfig::default()),
            arena: FlushArena::default(),
        };
        let handle = handle::spawn(core, ServiceConfig::default());
        let p = handle.compile(&nor).expect("compiles");
        let t = handle.submit(&p, vec![true, false]).expect("submits");
        assert_eq!(t.wait().unwrap_err(), ClusterError::WorkerPoisoned);
        assert_eq!(
            handle.submit(&p, vec![true, false]).unwrap_err(),
            ClusterError::WorkerPoisoned
        );
        assert_eq!(handle.drain().unwrap_err(), ClusterError::WorkerPoisoned);
        assert_eq!(handle.close().unwrap_err(), ClusterError::WorkerPoisoned);
    }

    #[test]
    fn the_service_routes_around_a_too_narrow_shard() {
        // The async analogue of the sync routing tests: shard 1 is too
        // narrow for the compiled programs, so the worker's waves never
        // dispatch there — both tickets resolve from shard 0 and the
        // worker stays healthy.
        let (xor_nor, xor_nl) = xor_circuit();
        let (mux_nor, mux_nl) = mux_circuit();
        let core = ClusterCore {
            shards: vec![
                PimDevice::new(30, 3).expect("device"),
                PimDevice::new(9, 3).expect("device"),
            ],
            batch_limit: 30,
            pack_limit: usize::MAX,
            axis_policy: AxisPolicy::default(),
            max_retries: 2,
            programs: ProgramCache::default(),
            pending: Vec::new(),
            pending_partitioned: Vec::new(),
            waves_dispatched: 0,
            health: HealthMonitor::new(2, HealthConfig::default()),
            arena: FlushArena::default(),
        };
        let handle = handle::spawn(core, ServiceConfig::default());
        // Compile on a full-width device and adopt, so both programs are
        // mapped at row 30 — too wide for the 9-cell shard — rather than
        // smallest-fit remapped to fit it.
        let mut donor = PimDevice::new(30, 3).expect("device");
        let p = donor.compile(&xor_nor).expect("compiles");
        let p = handle.adopt(p.program()).expect("fits the wide shard");
        let q = donor.compile(&mux_nor).expect("compiles");
        let q = handle.adopt(q.program()).expect("fits the wide shard");
        let t0 = handle.submit(&p, vec![true, false]).expect("submits");
        let t1 = handle.submit(&q, vec![true, true, false]).expect("submits");
        let r0 = t0.wait().expect("shard 0 served it");
        assert_eq!(r0.outputs, xor_nl.eval(&[true, false]));
        assert_eq!(r0.shard, 0);
        let r1 = t1.wait().expect("the narrow shard is avoided");
        assert_eq!(r1.outputs, mux_nl.eval(&[true, true, false]));
        assert_eq!(r1.shard, 0, "co-located onto the healthy shard");
        handle
            .close()
            .expect("worker never touched the narrow shard");
    }

    #[test]
    fn mixed_geometry_pool_routes_wide_programs_to_tall_shards() {
        let (nor, nl) = xor_circuit();
        let mut cluster = PimClusterBuilder::new(3, 30, 3)
            .shard_geometries(vec![(30, 3), (30, 3), (60, 3)])
            .build()
            .expect("cluster");
        assert_eq!(cluster.shard_capacity(), 60);
        assert_eq!(cluster.capacity(), 120, "sum over the mixed pool");

        // A handle mapped for the 60-cell shard is admissible now and must
        // route only to shard 2; narrow traffic keeps the 30-cell shards.
        let mut tall = PimDevice::new(60, 3).expect("device");
        let wide = tall.compile(&nor).expect("compiles");
        let wide = cluster.adopt(wide.program()).expect("fits the tall shard");
        let narrow = cluster.compile(&nor).expect("compiles");
        assert_eq!(
            narrow.program().row_size,
            30,
            "compile targets the smallest fitting geometry"
        );

        let mut expect = Vec::new();
        for v in 0..12u32 {
            let inputs = vec![v & 1 != 0, v & 2 != 0];
            let p = if v % 2 == 0 { &wide } else { &narrow };
            let t = cluster.submit(p, inputs.clone()).expect("submits");
            expect.push((t, v % 2 == 0, nl.eval(&inputs)));
        }
        let outcome = cluster.flush().expect("flushes");
        assert_eq!(outcome.requests(), 12);
        for (t, is_wide, want) in &expect {
            assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()), "{t}");
            let r = outcome
                .results
                .iter()
                .find(|r| r.ticket == *t)
                .expect("served");
            if *is_wide {
                assert_eq!(r.shard, 2, "wide programs only fit the tall shard");
            } else {
                assert!(r.shard < 2, "narrow traffic keeps the short shards");
            }
        }
        for shard in 0..3 {
            assert!(cluster.shard(shard).memory().verify_consistency().is_ok());
        }
    }

    #[test]
    fn colocation_merges_foreign_fingerprints_into_one_wave() {
        let (xor_nor, xor_nl) = xor_circuit();
        let (mux_nor, mux_nl) = mux_circuit();
        // Serves the kept requests of an eight-request stream (even `v`
        // are xor, odd `v` are mux) on a fresh one-shard pool.
        let run = |keep: fn(u32) -> bool| {
            let mut cluster = PimClusterBuilder::new(1, 30, 3).build().expect("cluster");
            let xor = cluster.compile(&xor_nor).expect("compiles");
            let mux = cluster.compile(&mux_nor).expect("compiles");
            let mut expect = Vec::new();
            for v in (0..8u32).filter(|&v| keep(v)) {
                if v % 2 == 0 {
                    let inputs = vec![v & 2 != 0, v & 4 != 0];
                    let t = cluster.submit(&xor, inputs.clone()).expect("submits");
                    expect.push((t, xor_nl.eval(&inputs)));
                } else {
                    let inputs = vec![v & 2 != 0, v & 4 != 0, v & 8 != 0];
                    let t = cluster.submit(&mux, inputs.clone()).expect("submits");
                    expect.push((t, mux_nl.eval(&inputs)));
                }
            }
            let outcome = cluster.flush().expect("flushes");
            for (t, want) in &expect {
                assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()), "{t}");
            }
            outcome
        };
        let colocated = run(|_| true);
        // Single-fingerprint traffic never co-locates: each program served
        // alone is the baseline.
        let xor_alone = run(|v| v % 2 == 0);
        let mux_alone = run(|v| v % 2 == 1);
        assert_eq!(
            colocated.waves, 1,
            "one shard, two fingerprints: pass 3 shares the wave"
        );
        assert_eq!((xor_alone.waves, mux_alone.waves), (1, 1));
        assert_eq!(colocated.shard_reports[0].batches, 1);
        assert!(
            colocated.results.iter().all(|r| r.wave == 0),
            "both programs rode wave 0"
        );
        // Sharing the wave shares its block-line pre-checks: the two
        // programs meet inside one block-line at the seam, so the merged
        // wave checks strictly fewer blocks than the two programs alone.
        assert!(
            colocated.input_check.checked
                < xor_alone.input_check.checked + mux_alone.input_check.checked
        );
    }
}
