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
use super::queue::{group_into, group_partitioned, Group, Pending, PendingPartitioned, Ticket};
use super::scheduler::{self, AxisPolicy, PackingKnobs};
use crate::compiler::PartitionedProgram;
use crate::device::{Axis, CompiledProgram, PimDevice, ProgramCache};
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
/// the fingerprint groups (with their request buffers), the ticket list
/// and the grouping index all recycle last flush's capacity. (The
/// returned [`ClusterOutcome`] still allocates: it escapes to the
/// caller.)
#[derive(Debug, Default)]
pub(crate) struct FlushArena {
    /// Every ticket of the flush in submission order — consulted only on
    /// the error path to list the dropped ones.
    submitted: Vec<Ticket>,
    /// Group shells for [`group_into`]; drained (and their request
    /// buffers recycled into `request_bufs`) after each flush.
    groups: Vec<Group>,
    /// Fingerprint → group index scratch for [`group_into`].
    fp_index: HashMap<u64, usize>,
    /// Emptied per-group request buffers awaiting reuse.
    request_bufs: Vec<Vec<(Ticket, Instant, Vec<bool>)>>,
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
    /// Whether the scheduler's pass 3 co-locates leftover groups of other
    /// fingerprints onto claimed shards as multi-program waves.
    pub(crate) colocate: bool,
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
            &mut self.arena.request_bufs,
        );
        let knobs = PackingKnobs {
            batch_limit: self.batch_limit,
            pack_limit: self.pack_limit,
            axis_policy: self.axis_policy,
            origin_base: self.waves_dispatched,
            max_retries: self.max_retries,
            colocate: self.colocate,
        };
        let active = self.health.active_shards();
        let mut ran = scheduler::run_waves(
            &mut self.shards,
            &mut self.arena.groups,
            knobs,
            &mut outcome,
            &active,
        );
        // Recycle the drained group shells: the inputs moved out through
        // `Group::take`, so only the (cleared) buffer capacity survives.
        for g in self.arena.groups.drain(..) {
            let mut requests = g.requests;
            requests.clear();
            self.arena.request_bufs.push(requests);
        }
        if ran.is_ok() {
            for (program, requests) in group_partitioned(partitioned) {
                if let Err(e) = self.run_partitioned_group(program, requests, &mut outcome, &active)
                {
                    ran = Err(e);
                    break;
                }
            }
        }
        // Partitioned results land after the ordinary ones but may carry
        // earlier tickets; restore the order outputs_for binary-searches.
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

    /// Serves one partitioned group: every request of one
    /// [`PartitionedProgram`], executed as one wave chain.
    ///
    /// Each request owns one row of a request-major signal table laid out
    /// by the compiler: its primary inputs, then every part's outputs at
    /// fixed slots. Level by level, each sub-program becomes an ordinary
    /// scheduler group whose per-request inputs are gathered from that
    /// row, and every sub-result's outputs are copied back into it.
    /// Within a level the parts are independent, so their groups share one
    /// `run_waves` call and pack together exactly like unrelated ordinary
    /// traffic. Sub-requests ride on synthetic tickets
    /// (`part_index * n_requests + request_index`) that never leave this
    /// function; the caller-visible outcome gets one merged
    /// [`TicketResult`] per original request, anchored at the placement of
    /// its last sub-program.
    fn run_partitioned_group(
        &mut self,
        program: Arc<PartitionedProgram>,
        requests: Vec<(Ticket, Instant, Vec<bool>)>,
        outcome: &mut ClusterOutcome,
        active: &[usize],
    ) -> Result<(), ClusterError> {
        struct Anchor {
            part: usize,
            shard: usize,
            wave: usize,
            axis: Axis,
            line: usize,
            offset: usize,
            queue_latency: Duration,
            execute_latency: Duration,
            attempt_latencies: Vec<Duration>,
        }

        let nreq = requests.len();
        let width = program.signal_width();
        let mut signals: Vec<bool> = vec![false; nreq * width];
        for (ri, (_, _, inputs)) in requests.iter().enumerate() {
            signals[ri * width..][..inputs.len()].copy_from_slice(inputs);
        }
        let mut anchors: Vec<Option<Anchor>> = (0..nreq).map(|_| None).collect();
        // Requests with a dead-lettered sub-program: the whole request
        // fails (a partial circuit has no meaning), later levels skip it,
        // and the caller sees one [`FailedRequest`] on the original
        // ticket. Holds the exhausted sub-request's attempt count.
        let mut failed_req: Vec<Option<u32>> = vec![None; nreq];
        // Worst retry chain over a request's sub-programs — the merged
        // result's attempt count.
        let mut attempts_max: Vec<u32> = vec![1; nreq];

        for level in 0..program.num_levels() {
            let wave_base = outcome.waves;
            let mut groups: Vec<Group> = program.levels()[level]
                .clone()
                .map(|pi| {
                    let part = &program.parts()[pi];
                    let requests = requests
                        .iter()
                        .enumerate()
                        .filter(|(ri, _)| failed_req[*ri].is_none())
                        .map(|(ri, (_, submitted_at, _))| {
                            let row = &signals[ri * width..(ri + 1) * width];
                            let local = part.input_slots().iter().map(|&s| row[s]).collect();
                            let synthetic = Ticket((pi * nreq + ri) as u64);
                            (synthetic, *submitted_at, local)
                        })
                        .collect();
                    Group {
                        program: part.program().clone(),
                        requests,
                        cursor: 0,
                    }
                })
                .collect();
            let knobs = PackingKnobs {
                batch_limit: self.batch_limit,
                pack_limit: self.pack_limit,
                axis_policy: self.axis_policy,
                origin_base: self.waves_dispatched + wave_base,
                max_retries: self.max_retries,
                colocate: self.colocate,
            };
            let mut scratch = ClusterOutcome::empty(self.shards.len());
            let ran =
                scheduler::run_waves(&mut self.shards, &mut groups, knobs, &mut scratch, active);
            // Harvest the cut signals (and anchor metadata) before folding
            // the scratch stats in — the synthetic tickets must never
            // reach the caller-visible result list.
            for r in std::mem::take(&mut scratch.results) {
                let pi = (r.ticket.id() as usize) / nreq;
                let ri = (r.ticket.id() as usize) % nreq;
                attempts_max[ri] = attempts_max[ri].max(r.attempts);
                if anchors[ri].as_ref().is_none_or(|a| pi >= a.part) {
                    anchors[ri] = Some(Anchor {
                        part: pi,
                        shard: r.shard,
                        wave: wave_base + r.wave,
                        axis: r.axis,
                        line: r.line,
                        offset: r.offset,
                        queue_latency: r.queue_latency,
                        execute_latency: r.execute_latency,
                        attempt_latencies: r.attempt_latencies,
                    });
                }
                signals[ri * width..][program.parts()[pi].output_slots()]
                    .copy_from_slice(&r.outputs);
            }
            // A dead-lettered sub-request fails its whole request — the
            // synthetic failure is translated to the original ticket (and
            // must never leak into the caller-visible failed list).
            for f in std::mem::take(&mut scratch.failed) {
                let ri = (f.ticket.id() as usize) % nreq;
                let failed = failed_req[ri].get_or_insert(0);
                *failed = (*failed).max(f.attempts);
            }
            outcome.merge(scratch);
            ran?;
        }

        // Every merged result slices one buffer of primary outputs,
        // gathered from the signal rows.
        let nout = program.num_outputs();
        let merged: Arc<[bool]> = (0..nreq)
            .flat_map(|ri| {
                let row = &signals[ri * width..(ri + 1) * width];
                program.output_slots().iter().map(move |&s| row[s])
            })
            .collect();
        for (ri, (ticket, submitted_at, _)) in requests.iter().enumerate() {
            if let Some(attempts) = failed_req[ri] {
                outcome.failed.push(FailedRequest {
                    ticket: *ticket,
                    attempts,
                });
                continue;
            }
            // A gate-free partition (outputs pass straight through) never
            // dispatched anything; anchor such a result at rest.
            let anchor = anchors[ri].take().unwrap_or(Anchor {
                part: 0,
                shard: 0,
                wave: 0,
                axis: self.axis_policy.axis_for(0),
                line: 0,
                offset: 0,
                queue_latency: submitted_at.elapsed(),
                execute_latency: Duration::ZERO,
                attempt_latencies: vec![Duration::ZERO],
            });
            outcome.results.push(TicketResult {
                ticket: *ticket,
                shard: anchor.shard,
                wave: anchor.wave,
                axis: anchor.axis,
                line: anchor.line,
                offset: anchor.offset,
                outputs: OutputSlice::new(Arc::clone(&merged), ri * nout, nout),
                attempts: attempts_max[ri],
                queue_latency: anchor.queue_latency,
                execute_latency: anchor.execute_latency,
                attempt_latencies: anchor.attempt_latencies,
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
