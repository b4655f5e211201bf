//! The service engine: the shard pool, the pending queue and the flush
//! machinery, shared by the synchronous [`PimCluster`] wrapper (which
//! drives it on the caller's thread) and the spawned
//! [`worker`](super::worker) (which drives it on its own thread behind a
//! channel).
//!
//! [`PimCluster`]: crate::cluster::PimCluster

use super::error::ClusterError;
use super::health::HealthMonitor;
use super::outcome::{ClusterOutcome, FailedRequest, OutputSlice, TicketResult};
use super::queue::{
    group_into, group_partitioned, shell, Group, Pending, PendingPartitioned, Ticket,
};
use super::scheduler::{self, AxisPolicy, Delivery, PackingKnobs};
use crate::compiler::PartitionedProgram;
use crate::device::{Axis, CompiledProgram, PimDevice, ProgramCache, Slot};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The flush knobs of a spawned service — when the worker drains the
/// queue without being asked.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServiceConfig {
    /// Pending-count threshold: the worker flushes as soon as this many
    /// requests are queued.
    pub(crate) flush_at: Option<usize>,
    /// Max-latency deadline: the worker flushes once the oldest pending
    /// request has waited this long.
    pub(crate) flush_after: Option<Duration>,
    /// Bound on in-flight submissions (backpressure).
    pub(crate) queue_limit: Option<usize>,
}

/// What one drain of the pending queue produced.
///
/// `outcome` holds everything that executed (even when `error` is set:
/// batches completed before the failure are not lost); `dropped` lists the
/// tickets the failed flush abandoned before dispatching them. `dropped`
/// is non-empty only when `error` is set.
pub(crate) struct FlushReport {
    pub(crate) outcome: ClusterOutcome,
    pub(crate) dropped: Vec<Ticket>,
    pub(crate) error: Option<ClusterError>,
}

/// Validates one submission against the pool's shared geometry — the
/// entry check both the sync wrapper and the service handle run before
/// accepting a request.
pub(crate) fn validate_submission(
    program: &CompiledProgram,
    inputs: &[bool],
    shard_capacity: usize,
) -> Result<(), ClusterError> {
    if program.program().row_size > shard_capacity {
        return Err(ClusterError::ProgramTooWide {
            row_size: program.program().row_size,
            n: shard_capacity,
        });
    }
    if inputs.len() != program.num_inputs() {
        return Err(ClusterError::InputArity {
            got: inputs.len(),
            want: program.num_inputs(),
        });
    }
    Ok(())
}

/// Validates one *partitioned* submission against the pool's shared
/// geometry — the partitioned twin of [`validate_submission`].
pub(crate) fn validate_partitioned(
    program: &PartitionedProgram,
    inputs: &[bool],
    shard_capacity: usize,
) -> Result<(), ClusterError> {
    if program.max_row_size() > shard_capacity {
        return Err(ClusterError::ProgramTooWide {
            row_size: program.max_row_size(),
            n: shard_capacity,
        });
    }
    if inputs.len() != program.num_inputs() {
        return Err(ClusterError::InputArity {
            got: inputs.len(),
            want: program.num_inputs(),
        });
    }
    Ok(())
}

/// Reusable flush-path buffers: after the first flush warms them up, a
/// steady-state flush allocates nothing of its own — the pending queue,
/// the fingerprint groups (with their ticket and input buffers), the
/// ticket list and the grouping index all recycle last flush's capacity.
/// (The returned [`ClusterOutcome`] still allocates: it escapes to the
/// caller.)
#[derive(Debug, Default)]
pub(crate) struct FlushArena {
    /// Every ticket of the flush in submission order — consulted only on
    /// the error path to list the dropped ones.
    submitted: Vec<Ticket>,
    /// The groups `run_waves` is serving: the flush's fingerprint groups,
    /// then each partitioned level's.
    groups: Vec<Group>,
    /// Fingerprint → group index scratch for [`group_into`].
    fp_index: HashMap<u64, usize>,
    /// Emptied group shells awaiting reuse (a shell keeps its last
    /// program handle until [`shell`] resets it).
    spare: Vec<Group>,
}

impl FlushArena {
    /// Moves every served group back to the spare shells.
    fn recycle(&mut self) {
        self.spare.append(&mut self.groups);
    }
}

/// The shard pool behind every cluster front-end: devices, packing knobs,
/// the shared compile cache and the pending queue.
///
/// `ClusterCore` has no opinion about *when* to flush — that is the
/// front-end's job (the sync wrapper flushes on the caller's thread, the
/// worker on thresholds and deadlines). It owns the *how*: group pending
/// traffic by fingerprint, plan waves, dispatch them across the shards.
pub(crate) struct ClusterCore {
    pub(crate) shards: Vec<PimDevice>,
    pub(crate) batch_limit: usize,
    pub(crate) pack_limit: usize,
    pub(crate) axis_policy: AxisPolicy,
    /// Re-dispatches granted to a ticket whose batch drew an
    /// uncorrectable ECC verdict on its lines before it dead-letters.
    pub(crate) max_retries: u32,
    /// Cluster-wide compile cache (netlist / packed / program key
    /// domains), shared in shape with the device layer.
    pub(crate) programs: ProgramCache,
    pub(crate) pending: Vec<Pending>,
    /// Partitioned submissions awaiting the next flush; served *after*
    /// the ordinary queue, as dependency-ordered sub-program waves with
    /// host-routed cut signals between levels.
    pub(crate) pending_partitioned: Vec<PendingPartitioned>,
    /// Waves dispatched over the pool's lifetime — the base of the
    /// wear-leveling rotation. Per-flush wave indices restart at zero,
    /// so without this a service flushing small batches (deadline or
    /// threshold) would pack *every* flush at origin 0 and the rotation
    /// would never level anything. Still a pure function of submission
    /// order, so determinism is preserved.
    pub(crate) waves_dispatched: usize,
    /// The health loop: per-shard error budgets (whose quarantine set
    /// shrinks the scheduler's active-shard list), scrub bookkeeping and
    /// the metrics ledgers. Owned here — the flush path is the single
    /// writer — and read by the front-ends via snapshots.
    pub(crate) health: HealthMonitor,
    /// Reusable flush-path buffers (alloc-free steady state).
    pub(crate) arena: FlushArena,
}

impl ClusterCore {
    /// Line length of the pool's *tallest* shard — the widest program the
    /// pool can admit (the router sends wide programs to shards that fit
    /// them; pools may mix geometries).
    pub(crate) fn shard_capacity(&self) -> usize {
        self.shards
            .iter()
            .map(PimDevice::capacity)
            .max()
            .expect("a cluster has at least one shard")
    }

    /// The distinct shard line lengths, ascending — the compile path
    /// tries them smallest-first so a program lands in the tightest
    /// geometry it fits.
    pub(crate) fn distinct_capacities(&self) -> Vec<usize> {
        let mut caps: Vec<usize> = self.shards.iter().map(PimDevice::capacity).collect();
        caps.sort_unstable();
        caps.dedup();
        caps
    }

    /// Total lines across every shard — the pool-wide capacity figure.
    pub(crate) fn total_lines(&self) -> usize {
        self.shards.iter().map(PimDevice::capacity).sum()
    }

    /// Requests waiting for the next flush, across both queues.
    pub(crate) fn pending_total(&self) -> usize {
        self.pending.len() + self.pending_partitioned.len()
    }

    /// Executes everything pending and reports what happened. Never
    /// panics on shard *errors* (they land in
    /// [`FlushReport::error`]); results of batches that completed before
    /// a failure are kept in the report's outcome, and the tickets the
    /// failure abandoned are listed so the caller can resolve them.
    ///
    /// Ordinary submissions are served first, then partitioned ones: each
    /// partitioned group runs its sub-programs as dependency-ordered
    /// waves, routing cut signals host-side between levels, and lands one
    /// merged [`TicketResult`] per request. The final result list is
    /// re-sorted by ticket so [`ClusterOutcome::outputs_for`]'s binary
    /// search keeps working across both kinds.
    pub(crate) fn flush_pending(&mut self) -> FlushReport {
        let partitioned = std::mem::take(&mut self.pending_partitioned);
        let mut outcome = ClusterOutcome::empty(self.shards.len());
        if self.pending.is_empty() && partitioned.is_empty() {
            return FlushReport {
                outcome,
                dropped: Vec::new(),
                error: None,
            };
        }
        self.arena.submitted.clear();
        self.arena.submitted.extend(
            self.pending
                .iter()
                .map(|p| p.ticket)
                .chain(partitioned.iter().map(|p| p.ticket)),
        );
        group_into(
            &mut self.pending,
            &mut self.arena.groups,
            &mut self.arena.fp_index,
            &mut self.arena.spare,
        );
        let knobs = self.knobs();
        let active = self.health.active_shards();
        // One `Arc` per dispatched part: every result of the part slices
        // it instead of owning a fresh Vec.
        let mut bits: Arc<[bool]> = Arc::from([]);
        let mut width = 0;
        let mut sink = |outcome: &mut ClusterOutcome, delivery: Delivery<'_>| match delivery {
            Delivery::Part(arena) => {
                bits = arena.as_bits().into();
                width = arena.width();
            }
            Delivery::Served(s) => {
                let mut attempt_latencies = Vec::with_capacity(s.earlier.len() + 1);
                attempt_latencies.extend_from_slice(s.earlier);
                attempt_latencies.push(s.execute_latency);
                outcome.results.push(TicketResult {
                    ticket: s.ticket,
                    shard: s.shard,
                    wave: s.wave,
                    axis: s.axis,
                    line: s.slot.line,
                    offset: s.slot.offset,
                    outputs: OutputSlice::new(Arc::clone(&bits), s.index * width, width),
                    attempts: attempt_latencies.len() as u32,
                    queue_latency: s.dispatched_at.saturating_duration_since(s.submitted_at),
                    execute_latency: attempt_latencies.iter().sum(),
                    attempt_latencies,
                });
            }
            Delivery::Failed {
                ticket, attempts, ..
            } => outcome.failed.push(FailedRequest { ticket, attempts }),
        };
        let mut ran = scheduler::run_waves(
            &mut self.shards,
            &mut self.arena.groups,
            knobs,
            &mut outcome,
            &active,
            &mut sink,
        );
        if ran.is_ok() {
            for (program, requests) in group_partitioned(partitioned) {
                if let Err(e) =
                    self.run_partitioned_group(&program, &requests, &mut outcome, &active)
                {
                    ran = Err(e);
                    break;
                }
            }
        }
        self.arena.recycle();
        // Partitioned results land after the ordinary ones but may carry
        // earlier tickets, and retried tickets land after later ones:
        // restore the order outputs_for binary-searches.
        outcome.results.sort_by_key(|r| r.ticket);
        outcome.failed.sort_by_key(|f| f.ticket);
        // Waves that dispatched advance the wear rotation even when a
        // later wave of the same flush failed.
        self.waves_dispatched += outcome.waves;
        for (i, shard) in self.shards.iter().enumerate() {
            self.health
                .set_retired(i, shard.retired().retired_physical_lines() as u64);
        }
        self.health.observe_flush(&outcome);
        match ran {
            Ok(()) => FlushReport {
                outcome,
                dropped: Vec::new(),
                error: None,
            },
            Err(error) => {
                // Dead-lettered tickets were *resolved* (to an explicit
                // error), not dropped — only tickets with neither a
                // result nor a failure entry were abandoned.
                let served: HashSet<u64> = outcome
                    .results
                    .iter()
                    .map(|r| r.ticket.id())
                    .chain(outcome.failed.iter().map(|f| f.ticket.id()))
                    .collect();
                let dropped = self
                    .arena
                    .submitted
                    .iter()
                    .filter(|t| !served.contains(&t.id()))
                    .copied()
                    .collect();
                FlushReport {
                    outcome,
                    dropped,
                    error: Some(error),
                }
            }
        }
    }

    /// The scheduler knobs of a flush.
    fn knobs(&self) -> PackingKnobs {
        PackingKnobs {
            batch_limit: self.batch_limit,
            pack_limit: self.pack_limit,
            axis_policy: self.axis_policy,
            origin_base: self.waves_dispatched,
            max_retries: self.max_retries,
        }
    }

    /// Serves one partitioned group: every request of one
    /// [`PartitionedProgram`], executed as one wave chain.
    ///
    /// Each request owns one row of a request-major signal table laid out
    /// by the compiler: its primary inputs, then every part's outputs at
    /// fixed slots. Level by level, each sub-program becomes an ordinary
    /// scheduler [`Group`] whose input rows are gathered from the signal
    /// rows straight into the group's buffer; within a level the parts are
    /// independent, so their groups share one `run_waves` call and pack
    /// together exactly like unrelated ordinary traffic. Sub-requests
    /// never become tickets or results: the sink copies each verified
    /// sub-request's outputs into its request's signal row and updates the
    /// request's merged accounting in place, so between levels the signal
    /// row is the only per-request state. The caller-visible outcome gets
    /// one merged [`TicketResult`] per request, anchored at the placement
    /// of its last sub-program, with the latency semantics documented on
    /// [`TicketResult`].
    fn run_partitioned_group(
        &mut self,
        program: &PartitionedProgram,
        requests: &[(Ticket, Instant, Vec<bool>)],
        outcome: &mut ClusterOutcome,
        active: &[usize],
    ) -> Result<(), ClusterError> {
        /// Where a request's last sub-program ran.
        struct Anchor {
            part: usize,
            shard: usize,
            wave: usize,
            axis: Axis,
            slot: Slot,
        }
        /// One request's merged accounting, updated in place by the sink.
        #[derive(Default)]
        struct Merged {
            anchor: Option<Anchor>,
            /// Earliest first-attempt dispatch over its sub-programs.
            first_dispatch: Option<Instant>,
            /// Worst attempt count over its sub-programs.
            attempts: u32,
            /// Entry `k`: the sum of every sub-program's `k`-th attempt
            /// latency.
            latencies: Vec<Duration>,
            /// Set once a sub-program dead-letters: the whole request
            /// fails (a partial circuit has no meaning), later levels skip
            /// it, and this holds the worst exhausted attempt count.
            failed: Option<u32>,
        }

        let nreq = requests.len();
        let width = program.signal_width();
        let mut signals: Vec<bool> = vec![false; nreq * width];
        for (ri, (_, _, inputs)) in requests.iter().enumerate() {
            signals[ri * width..][..inputs.len()].copy_from_slice(inputs);
        }
        let mut merged: Vec<Merged> = (0..nreq).map(|_| Merged::default()).collect();
        // The requests still alive at this level: row `k` of every level
        // group is request `live[k]`.
        let mut live: Vec<usize> = Vec::with_capacity(nreq);
        let knobs = self.knobs();
        for level in program.levels() {
            live.clear();
            live.extend((0..nreq).filter(|&ri| merged[ri].failed.is_none()));
            self.arena.recycle();
            for part in &program.parts()[level.clone()] {
                let mut g = shell(&mut self.arena.spare, part.program().clone());
                for &ri in &live {
                    let row = &signals[ri * width..(ri + 1) * width];
                    let (ticket, submitted_at, _) = requests[ri];
                    g.push(
                        ticket,
                        submitted_at,
                        part.input_slots().iter().map(|&s| row[s]),
                    );
                }
                self.arena.groups.push(g);
            }
            let mut sink = |_: &mut ClusterOutcome, delivery: Delivery<'_>| match delivery {
                Delivery::Part(_) => {}
                Delivery::Served(s) => {
                    let part = level.start + s.group;
                    let ri = live[s.row];
                    signals[ri * width..][program.parts()[part].output_slots()]
                        .copy_from_slice(s.outputs);
                    let m = &mut merged[ri];
                    m.attempts = m.attempts.max(s.earlier.len() as u32 + 1);
                    for (k, &latency) in s.earlier.iter().chain([&s.execute_latency]).enumerate() {
                        match m.latencies.get_mut(k) {
                            Some(sum) => *sum += latency,
                            None => m.latencies.push(latency),
                        }
                    }
                    m.first_dispatch = Some(
                        m.first_dispatch
                            .map_or(s.first_dispatch, |t| t.min(s.first_dispatch)),
                    );
                    if m.anchor.as_ref().is_none_or(|a| part >= a.part) {
                        m.anchor = Some(Anchor {
                            part,
                            shard: s.shard,
                            wave: s.wave,
                            axis: s.axis,
                            slot: s.slot,
                        });
                    }
                }
                Delivery::Failed { row, attempts, .. } => {
                    let failed = merged[live[row]].failed.get_or_insert(0);
                    *failed = (*failed).max(attempts);
                }
            };
            scheduler::run_waves(
                &mut self.shards,
                &mut self.arena.groups,
                knobs,
                outcome,
                active,
                &mut sink,
            )?;
        }

        // Every merged result slices one buffer of primary outputs,
        // gathered from the signal rows.
        let nout = program.num_outputs();
        let outputs: Arc<[bool]> = (0..nreq)
            .flat_map(|ri| {
                let row = &signals[ri * width..(ri + 1) * width];
                program.output_slots().iter().map(move |&s| row[s])
            })
            .collect();
        for (ri, (&(ticket, submitted_at, _), m)) in requests.iter().zip(merged).enumerate() {
            if let Some(attempts) = m.failed {
                outcome.failed.push(FailedRequest { ticket, attempts });
                continue;
            }
            let outputs = OutputSlice::new(Arc::clone(&outputs), ri * nout, nout);
            let (Some(anchor), Some(first_dispatch)) = (m.anchor, m.first_dispatch) else {
                // A gate-free partition (outputs pass straight through)
                // never dispatched anything; anchor such a result at rest.
                outcome.results.push(TicketResult {
                    ticket,
                    shard: 0,
                    wave: 0,
                    axis: self.axis_policy.axis_for(0),
                    line: 0,
                    offset: 0,
                    outputs,
                    attempts: 1,
                    queue_latency: submitted_at.elapsed(),
                    execute_latency: Duration::ZERO,
                    attempt_latencies: vec![Duration::ZERO],
                });
                continue;
            };
            outcome.results.push(TicketResult {
                ticket,
                shard: anchor.shard,
                wave: anchor.wave,
                axis: anchor.axis,
                line: anchor.slot.line,
                offset: anchor.slot.offset,
                outputs,
                attempts: m.attempts,
                queue_latency: first_dispatch.saturating_duration_since(submitted_at),
                execute_latency: m.latencies.iter().sum(),
                attempt_latencies: m.latencies,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for ClusterCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCore")
            .field("shards", &self.shards.len())
            .field("n", &self.shard_capacity())
            .field("batch_limit", &self.batch_limit)
            .field("pack_limit", &self.pack_limit)
            .field("axis_policy", &self.axis_policy)
            .field("max_retries", &self.max_retries)
            .field("pending", &self.pending.len())
            .field("pending_partitioned", &self.pending_partitioned.len())
            .field("compiled_programs", &self.programs.len())
            .finish()
    }
}
