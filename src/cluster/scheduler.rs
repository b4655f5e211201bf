//! The wave scheduler: turn the fingerprint groups into two-dimensional
//! [`PlacementPlan`]s — one batch per shard per wave.
//!
//! Parallelism lives in the model clock only: a wave's shards tick in
//! parallel, so its wall MEM cycles are the slowest shard's. The host runs
//! the same shards one after another on the flushing thread, in ascending
//! shard order, and spawns no thread.
//!
//! Each wave is planned in three passes:
//!
//! 1. **Spread** — walk the groups in first-submission order and carve
//!    one-request-per-line chunks of up to `batch_limit` lines, handing
//!    each chunk to the *smallest idle shard the program fits* (pools may
//!    mix geometries; wide programs route to tall shards, narrow traffic
//!    keeps the short ones busy). Parallel shards beat any amount of
//!    co-packing (they add no gate replays), so breadth comes first; a
//!    large group still spreads over several shards within one wave.
//! 2. **Densify** — if traffic remains once every shard has work, deepen
//!    the planned batches instead of queueing another wave: each job
//!    absorbs more requests of its group at additional slot offsets on
//!    the lines it already occupies (up to `line_len / footprint` per
//!    line, capped by `pack_limit`). The extra offsets replay the gate
//!    steps, which a follow-up wave would have paid anyway — but the
//!    follow-up wave's input loads and block-line ECC checks are saved.
//! 3. **Co-locate** — leftover groups of *other* fingerprints bin-pack
//!    onto the free lines of already-claimed shards, first-fit-decreasing
//!    by footprint (stable in submission order): each placed chunk
//!    becomes an extra part of that shard's [`MultiProgramPlan`] wave,
//!    sharing the wave's input-load pass and block-line ECC checks. This
//!    is what keeps long-tail traffic (twenty programs, a handful of
//!    requests each) from paying one near-empty wave per fingerprint.
//!
//! The wave's axis comes from the cluster's [`AxisPolicy`]; under
//! [`AxisPolicy::Alternate`] even waves run on columns and odd waves on
//! rows.
//!
//! Determinism: group order, chunk carving, densify order, co-location
//! order, axis choice and shard assignment are all pure functions of
//! submission order and the cluster's knobs — no map iteration order,
//! clock or thread-completion order ever reaches the plan, so identical
//! submissions yield identical placements and results.

use super::error::ClusterError;
use super::outcome::{ClusterOutcome, FailedRequest, OutputSlice, TicketResult};
use super::queue::{Group, Ticket};
use crate::device::{
    Axis, CompiledProgram, DeviceError, MultiBatchOutcome, MultiPartRequest, MultiProgramPlan,
    PimDevice, PlacementPlan,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the cluster orients its dispatch waves on the crossbars.
///
/// MAGIC and the diagonal ECC are row/column symmetric (the paper's §IV
/// "row (column)" phrasing): a batch costs the same on either axis, so the
/// choice is free — and alternating exercises both check dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AxisPolicy {
    /// Every wave row-parallel — the classic orientation.
    Rows,
    /// Every wave column-parallel.
    Cols,
    /// Even waves on columns, odd waves on rows (the default). Leading
    /// with the column axis is a host-side tune: the MEM cost model is
    /// axis-symmetric, but the word-parallel simulation engine executes
    /// column-parallel gates as whole-word row stores, so the first (and
    /// usually largest) wave of a flush lands on the fast axis.
    #[default]
    Alternate,
}

impl AxisPolicy {
    /// The axis a given wave (0-based within a flush) runs on.
    pub(crate) fn axis_for(self, wave: usize) -> Axis {
        match self {
            AxisPolicy::Rows => Axis::Rows,
            AxisPolicy::Cols => Axis::Cols,
            AxisPolicy::Alternate => {
                if wave % 2 == 0 {
                    Axis::Cols
                } else {
                    Axis::Rows
                }
            }
        }
    }
}

/// The planning knobs `plan_wave` works from — a pure value so the plan
/// stays a function of (groups, knobs, wave index). Per-shard line lengths
/// come from the shards themselves (pools may mix geometries).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackingKnobs {
    /// Max lines one dispatched batch may occupy.
    pub(crate) batch_limit: usize,
    /// Max requests co-packed per line (1 = the PR-2 row-only scheduler).
    pub(crate) pack_limit: usize,
    /// Axis selection per wave.
    pub(crate) axis_policy: AxisPolicy,
    /// Waves the pool dispatched before this flush: the wear-leveling
    /// rotation advances across flushes, not just inside one (per-flush
    /// wave indices restart at zero).
    pub(crate) origin_base: usize,
    /// Re-dispatches granted to a ticket whose batch reported an
    /// uncorrectable pre-check verdict on its lines, before the ticket is
    /// dead-lettered as [`ClusterError::RequestFailed`]. Zero means
    /// suspect outputs are still suppressed — they just fail immediately.
    pub(crate) max_retries: u32,
    /// Whether pass 3 runs: leftover groups of other fingerprints
    /// bin-pack onto claimed shards as extra [`MultiProgramPlan`] parts.
    /// Off = the fingerprint-per-wave baseline.
    pub(crate) colocate: bool,
}

impl PackingKnobs {
    /// Requests that fit side by side in one `line_len`-cell line of
    /// `program`.
    fn per_line(&self, line_len: usize, program: &CompiledProgram) -> usize {
        (line_len / program.footprint().max(1))
            .min(self.pack_limit)
            .max(1)
    }
}

/// One co-located extra part of a wave job (pass 3): a chunk of a
/// *different* group riding the same shard's wave on its own disjoint
/// lines.
struct ExtraPart {
    /// Index into `groups`, for suppressed-ticket requeue.
    group: usize,
    program: CompiledProgram,
    tickets: Vec<(Ticket, Instant)>,
    inputs: Vec<Vec<bool>>,
    /// The part's placement, line-disjoint from the job's main plan and
    /// every earlier extra.
    plan: PlacementPlan,
}

/// One shard's work for one wave: a chunk of one group under a 2D plan,
/// plus any co-located extra parts pass 3 added.
struct WaveJob {
    shard: usize,
    /// Index into `groups`, so the densify pass can pull more requests.
    group: usize,
    program: CompiledProgram,
    /// Each dispatched ticket with its submission instant (queue-latency
    /// accounting).
    tickets: Vec<(Ticket, Instant)>,
    inputs: Vec<Vec<bool>>,
    /// Lines the spread pass reserved (slots at the wave's fill origin).
    lines: usize,
    /// Retired physical lines of the shard on the wave's axis (ascending)
    /// — the plan routes around them, and the capacity accounting
    /// excludes them from the denominator.
    avoid: Vec<usize>,
    /// Line length (= line count) of *this job's* shard — per-job because
    /// the pool may mix geometries.
    line_len: usize,
    /// Co-located parts of other groups (pass 3), in placement order.
    extras: Vec<ExtraPart>,
}

/// Per-ticket retry bookkeeping, local to one `run_waves` call: a ticket
/// appears here only while it has at least one suppressed attempt behind
/// it and has not yet been served or dead-lettered.
#[derive(Default)]
struct RetryState {
    /// Suppressed attempts so far.
    attempts: u32,
    /// Execute latency of each suppressed attempt, oldest first.
    latencies: Vec<Duration>,
}

/// Executes `groups` to completion over the `active` subset of `shards`
/// under `knobs`, folding everything into `outcome`; on success the
/// results end up sorted by ticket.
///
/// `active` is the strictly ascending list of shard indices the plan may
/// use — the health loop's quarantine reroutes traffic by shrinking it.
/// Planning is positional over `active`, so a pool with shard `q`
/// quarantined carves, packs and rotates exactly like a pool built
/// without that shard: the plans are bit-identical up to the index
/// renaming `active[k] ↔ k` (the quarantine determinism guarantee).
///
/// On a shard failure the error is returned after the failing wave's
/// *successful* batches are folded in, and the flush's undispatched
/// traffic is abandoned — shard errors are placement or legality bugs,
/// not runtime conditions (submissions are validated up front). The
/// caller keeps `outcome`, so already-served tickets survive the error.
pub(crate) fn run_waves(
    shards: &mut [PimDevice],
    groups: &mut [Group],
    knobs: PackingKnobs,
    outcome: &mut ClusterOutcome,
    active: &[usize],
) -> Result<(), ClusterError> {
    debug_assert!(
        active.windows(2).all(|w| w[0] < w[1]) && active.iter().all(|&s| s < shards.len()),
        "active shard list must be strictly ascending and in range"
    );
    // Tickets with suppressed attempts behind them, keyed by ticket id.
    // The table lives for one flush only: a requeued ticket is always
    // re-dispatched (or dead-lettered) before `run_waves` returns.
    let mut retry: HashMap<u64, RetryState> = HashMap::new();
    // Rotation applied to the active shard list: bumped after every wave
    // that suppressed at least one ticket, so a retried ticket's next
    // attempt prefers a different shard (fresh lines, independent fault
    // plane). A fault-free flush never rotates — the plans are identical
    // to a cluster that has no retry machinery at all.
    let mut spin = 0usize;
    // Waves skipped because the current axis had no serviceable lines
    // left for the remaining traffic (every fitting active shard fully
    // retired on that axis). One skip re-plans on the other axis; a
    // second consecutive skip means the cluster cannot place the
    // remaining traffic on either axis and it is dead-lettered rather
    // than looped on forever.
    let mut skipped = 0usize;
    loop {
        let wave = outcome.waves + skipped;
        let jobs = plan_wave(shards, groups, active, knobs, wave, spin);
        if jobs.is_empty() {
            if groups.iter().map(Group::remaining).sum::<usize>() == 0 {
                break;
            }
            skipped += 1;
            if skipped >= 2 {
                // No line anywhere can hold a request: fail the
                // remainder explicitly instead of spinning.
                for g in groups.iter_mut() {
                    let n = g.remaining();
                    let (tickets, _inputs) = g.take(n);
                    for (ticket, _submitted_at) in tickets {
                        let attempts = retry.remove(&ticket.id()).map_or(0, |s| s.attempts);
                        outcome.failed.push(FailedRequest { ticket, attempts });
                    }
                }
                break;
            }
            continue;
        }
        skipped = 0;
        let retries_before = outcome.retries;
        dispatch_wave(shards, groups, jobs, knobs, outcome, &mut retry, wave)?;
        if outcome.retries > retries_before {
            spin += 1;
        }
    }
    outcome.results.sort_by_key(|r| r.ticket);
    outcome.failed.sort_by_key(|f| f.ticket);
    Ok(())
}

/// Plans one wave (see the [module docs](self) for the three passes) over
/// the `active` shard indices, rotated left by `spin` so retried tickets
/// prefer a different shard, and routing around each shard's retired
/// lines on the wave's axis.
fn plan_wave(
    shards: &[PimDevice],
    groups: &mut [Group],
    active: &[usize],
    knobs: PackingKnobs,
    wave: usize,
    spin: usize,
) -> Vec<(WaveJob, PlacementPlan)> {
    let axis = knobs.axis_policy.axis_for(wave);
    let mut rotated: Vec<usize> = Vec::with_capacity(active.len());
    if !active.is_empty() {
        let cut = spin % active.len();
        rotated.extend_from_slice(&active[cut..]);
        rotated.extend_from_slice(&active[..cut]);
    }
    // Retired physical lines per rotated slot on this wave's axis. Each
    // slot is planned at most once per wave, so the list is moved into
    // its job (the empty Vec left behind is never read again).
    let mut avoids: Vec<Vec<usize>> = rotated
        .iter()
        .map(|&s| shards[s].retired().avoid_lines(axis))
        .collect();
    // Per-slot line length — the pool may mix geometries.
    let caps: Vec<usize> = rotated.iter().map(|&s| shards[s].capacity()).collect();
    let mut used = vec![false; rotated.len()];
    let mut jobs: Vec<WaveJob> = Vec::new();
    // Pass 1 — spread: one-request-per-line chunks, breadth-first over the
    // active shards. A large group spreads over *several* shards within
    // one wave; that is the sharding win for single-program traffic. Each
    // chunk routes to the *smallest* idle shard its program fits (ties go
    // to rotated position, which on a uniform pool reproduces the
    // classic next-idle-shard walk exactly): wide programs claim the tall
    // shards only when they must, keeping them free for traffic that has
    // nowhere else to go.
    'groups: for (gi, g) in groups.iter_mut().enumerate() {
        let row_size = g.program.program().row_size;
        while g.remaining() > 0 {
            let mut pick: Option<usize> = None;
            for si in 0..rotated.len() {
                // Shards whose every line on this axis has retired, and
                // shards too short for this program, serve other traffic.
                if used[si] || caps[si] < row_size || avoids[si].len() >= caps[si] {
                    continue;
                }
                if pick.is_none_or(|p| caps[si] < caps[p]) {
                    pick = Some(si);
                }
            }
            let Some(si) = pick else {
                if used.iter().all(|&u| u) {
                    break 'groups;
                }
                // Nothing idle fits *this* group; narrower groups may
                // still fit the remaining short shards.
                continue 'groups;
            };
            used[si] = true;
            let avoid = std::mem::take(&mut avoids[si]);
            let line_len = caps[si];
            let avail = line_len - avoid.len();
            let take = g.remaining().min(knobs.batch_limit).min(avail);
            let (tickets, inputs) = g.take(take);
            jobs.push(WaveJob {
                shard: rotated[si],
                group: gi,
                program: g.program.clone(),
                tickets,
                inputs,
                lines: take,
                avoid,
                line_len,
                extras: Vec::new(),
            });
        }
    }
    // Pass 2 — densify: with every shard busy (or every group drained),
    // absorb leftover traffic into extra offsets of the planned batches
    // instead of extra waves.
    for job in &mut jobs {
        let g = &mut groups[job.group];
        if g.remaining() == 0 {
            continue;
        }
        let depth = knobs.per_line(job.line_len, &job.program) - 1;
        let extra = g.remaining().min(job.lines * depth);
        if extra == 0 {
            continue;
        }
        let (tickets, inputs) = g.take(extra);
        job.tickets.extend(tickets);
        job.inputs.extend(inputs);
    }
    let mut planned: Vec<(WaveJob, PlacementPlan)> = jobs
        .into_iter()
        .map(|job| {
            // The slot-offset fill origin rotates with the pool-lifetime
            // wave index (origin_base counts earlier flushes): successive
            // waves start their offset-major fill one slot column further
            // along the line, leveling memristor wear across cells
            // instead of always writing from cell 0. The origin is a pure
            // function of the wave's position in the submission history,
            // so the plan — and the determinism guarantee — is unchanged
            // in kind.
            let plan = PlacementPlan::pack_avoiding(
                axis,
                job.line_len,
                job.program.footprint().max(1),
                job.lines,
                knobs.pack_limit,
                job.tickets.len(),
                knobs.origin_base + wave,
                &job.avoid,
            )
            .expect("planned chunks fit their packed capacity by construction");
            (job, plan)
        })
        .collect();
    // Pass 3 — co-locate: groups still undrained after spread + densify
    // belong to fingerprints that found no idle shard. Instead of
    // queueing them a near-empty wave each, bin-pack them onto the free
    // lines of the claimed shards, first-fit-decreasing by footprint
    // (stable sort, so equal footprints keep submission order): each
    // placed chunk becomes an extra part of the shard's multi-program
    // wave, line-disjoint from the main plan and every earlier extra.
    if knobs.colocate {
        let mut leftover: Vec<usize> = (0..groups.len())
            .filter(|&gi| groups[gi].remaining() > 0)
            .collect();
        leftover.sort_by_key(|&gi| std::cmp::Reverse(groups[gi].program.footprint().max(1)));
        for gi in leftover {
            for (job, plan) in planned.iter_mut() {
                let g = &mut groups[gi];
                if g.remaining() == 0 {
                    break;
                }
                if g.program.program().row_size > job.line_len {
                    continue;
                }
                // Free lines: in-service minus what the main part and
                // earlier extras hold, capped by the batch-line budget.
                let committed = plan.lines_occupied()
                    + job
                        .extras
                        .iter()
                        .map(|e| e.plan.lines_occupied())
                        .sum::<usize>();
                let in_service = job.line_len - job.avoid.len();
                let free = in_service
                    .saturating_sub(committed)
                    .min(knobs.batch_limit.saturating_sub(committed));
                if free == 0 {
                    continue;
                }
                let per_line = knobs.per_line(job.line_len, &g.program);
                let take = g.remaining().min(free * per_line);
                let mut avoid = job.avoid.clone();
                avoid.extend(plan.lines());
                for e in &job.extras {
                    avoid.extend(e.plan.lines());
                }
                avoid.sort_unstable();
                avoid.dedup();
                let extra_plan = PlacementPlan::pack_avoiding(
                    axis,
                    job.line_len,
                    g.program.footprint().max(1),
                    free,
                    knobs.pack_limit,
                    take,
                    knobs.origin_base + wave,
                    &avoid,
                )
                .expect("co-located chunks fit the free lines by construction");
                let (tickets, inputs) = g.take(take);
                job.extras.push(ExtraPart {
                    group: gi,
                    program: g.program.clone(),
                    tickets,
                    inputs,
                    plan: extra_plan,
                });
            }
        }
    }
    // `dispatch_wave` runs jobs in ascending shard order; the retry
    // rotation can hand out shards in rotated order, so restore it here.
    planned.sort_by_key(|(job, _)| job.shard);
    planned
}

/// Runs one wave job on its shard: the plain single-program plan when the
/// job has no extras (every pre-PR-10 flush), the multi-program wave when
/// pass 3 co-located other groups onto the shard. Both shapes return the
/// per-part [`MultiBatchOutcome`] so the fold below has one code path.
fn run_job(
    device: &mut PimDevice,
    job: &WaveJob,
    plan: &PlacementPlan,
) -> Result<MultiBatchOutcome, DeviceError> {
    if job.extras.is_empty() {
        let batch = device.run_plan(&job.program, plan, &job.inputs)?;
        return Ok(MultiBatchOutcome {
            parts: vec![batch.outputs],
            input_check: batch.input_check,
            stats: batch.stats,
            gate_evals: batch.gate_evals,
            uncorrectable_input: batch.uncorrectable_input,
        });
    }
    let parts: Vec<PlacementPlan> = std::iter::once(plan.clone())
        .chain(job.extras.iter().map(|e| e.plan.clone()))
        .collect();
    let multi = MultiProgramPlan::new(parts)?;
    let requests: Vec<MultiPartRequest<'_>> = std::iter::once(MultiPartRequest {
        program: &job.program,
        requests: &job.inputs,
    })
    .chain(job.extras.iter().map(|e| MultiPartRequest {
        program: &e.program,
        requests: &e.inputs,
    }))
    .collect();
    device.run_multi(&multi, &requests)
}

/// Runs one planned wave and folds the batch outcomes into `outcome`.
///
/// The host runs the wave's jobs one after another on the flushing
/// thread, in ascending shard order; the model clock still runs them in
/// parallel, so the wave's wall MEM cycles are the *maximum* over its
/// shards. Every job runs even when a sibling shard fails, its successful
/// batch is folded in, and only the first error (lowest shard) is
/// reported.
///
/// Tickets whose lines drew an uncorrectable ECC verdict never yield a
/// [`TicketResult`] here: their outputs are suppressed and they re-enter
/// their group (`retry` carries their attempt history) or dead-letter
/// into [`ClusterOutcome::failed`] once `knobs.max_retries` is spent.
/// Co-located parts share their wave's verdict — a suspect block-line
/// suppresses whichever parts' slots sit on it, each requeueing into its
/// *own* group.
#[allow(clippy::too_many_arguments)]
fn dispatch_wave(
    shards: &mut [PimDevice],
    groups: &mut [Group],
    jobs: Vec<(WaveJob, PlacementPlan)>,
    knobs: PackingKnobs,
    outcome: &mut ClusterOutcome,
    retry: &mut HashMap<u64, RetryState>,
    wave: usize,
) -> Result<(), ClusterError> {
    let dispatched_at = Instant::now();
    let mut wave_wall = 0;
    let mut first_error = None;
    for (job, plan) in jobs {
        let started = Instant::now();
        let result = run_job(&mut shards[job.shard], &job, &plan);
        let execute_latency = started.elapsed();
        let WaveJob {
            shard,
            group,
            tickets,
            inputs,
            avoid,
            line_len,
            extras,
            ..
        } = job;
        let batch = match result {
            Ok(batch) => batch,
            Err(source) => {
                first_error.get_or_insert(ClusterError::Shard { shard, source });
                continue;
            }
        };
        wave_wall = wave_wall.max(batch.stats.mem_cycles);
        outcome.stats += batch.stats;
        outcome.input_check += batch.input_check;
        outcome.gate_evals += batch.gate_evals;
        let report = &mut outcome.shard_reports[shard];
        report.input_check += batch.input_check;
        report.batches += 1;
        report.busy_mem_cycles += batch.stats.mem_cycles;
        report.gate_evals += batch.gate_evals;
        // Capacity counts only in-service lines: retired lines leave the
        // denominator, so utilization reflects what the shard can still
        // hold rather than what it shipped with. One wave dispatches the
        // shard once no matter how many parts ride it — co-location
        // *raises* utilization against the same denominator.
        let in_service = line_len - avoid.len();
        report.line_capacity += in_service as u64;
        report.cell_capacity += (in_service * line_len) as u64;
        let unc = batch.uncorrectable_input;
        // The main part first, then the extras, in the same order their
        // plans were assembled — parallel to `batch.parts`.
        type WavePart = (usize, Vec<(Ticket, Instant)>, Vec<Vec<bool>>, PlacementPlan);
        let parts: Vec<WavePart> = std::iter::once((group, tickets, inputs, plan))
            .chain(
                extras
                    .into_iter()
                    .map(|e| (e.group, e.tickets, e.inputs, e.plan)),
            )
            .collect();
        for ((part_group, tickets, mut inputs, part_plan), arena) in
            parts.into_iter().zip(batch.parts)
        {
            report.requests += tickets.len() as u64;
            report.lines_occupied += part_plan.lines_occupied() as u64;
            report.cells_occupied += part_plan.cells_occupied() as u64;
            let width = arena.width();
            // One `Arc` per part per batch: every ticket's result slices
            // into it instead of owning a fresh Vec.
            let bits: Arc<[bool]> = arena.into_bits().into();
            for (i, ((ticket, submitted_at), slot)) in tickets
                .into_iter()
                .zip(part_plan.slots().iter().copied())
                .enumerate()
            {
                if unc.as_ref().is_some_and(|u| u.covers_line(slot.line)) {
                    // An uncorrectable verdict covers this ticket's lines:
                    // the outputs cannot be vouched for, so they are
                    // suppressed — never resolved. The ticket re-enters
                    // its group for the next wave, or dead-letters
                    // explicitly once its attempt budget is spent.
                    let state = retry.entry(ticket.id()).or_default();
                    state.attempts += 1;
                    state.latencies.push(execute_latency);
                    if state.attempts > knobs.max_retries {
                        let state = retry.remove(&ticket.id()).expect("just updated");
                        outcome.failed.push(FailedRequest {
                            ticket,
                            attempts: state.attempts,
                        });
                    } else {
                        outcome.retries += 1;
                        groups[part_group].requests.push((
                            ticket,
                            submitted_at,
                            std::mem::take(&mut inputs[i]),
                        ));
                    }
                    continue;
                }
                let (attempts, mut attempt_latencies) = match retry.remove(&ticket.id()) {
                    Some(state) => (state.attempts + 1, state.latencies),
                    None => (1, Vec::new()),
                };
                attempt_latencies.push(execute_latency);
                let execute_total = attempt_latencies.iter().sum();
                outcome.results.push(TicketResult {
                    ticket,
                    shard,
                    wave,
                    axis: part_plan.axis(),
                    line: slot.line,
                    offset: slot.offset,
                    outputs: OutputSlice::new(Arc::clone(&bits), i * width, width),
                    attempts,
                    queue_latency: dispatched_at.saturating_duration_since(submitted_at),
                    execute_latency: execute_total,
                    attempt_latencies,
                });
            }
        }
    }
    outcome.wall_mem_cycles += wave_wall;
    outcome.waves += 1;
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}
