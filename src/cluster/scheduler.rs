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
//!    becomes an extra, line-disjoint part of that shard's wave, sharing
//!    the wave's input-load pass and block-line ECC checks. This is what
//!    keeps long-tail traffic (twenty programs, a handful of requests
//!    each) from paying one near-empty wave per fingerprint. Traffic of
//!    a single fingerprint leaves this pass nothing to place.
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
use super::outcome::ClusterOutcome;
use super::queue::{Group, Ticket};
use crate::device::{
    Axis, CompiledProgram, DeviceError, MultiBatchOutcome, OutputArena, PimDevice, PlacementPlan,
    Slot, WavePart,
};
use std::ops::Range;
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

/// One co-located extra part of a wave job (pass 3): a run of a
/// *different* group riding the same shard's wave on its own disjoint
/// lines.
struct ExtraPart {
    /// Index into `groups`.
    group: usize,
    /// The group rows the part serves.
    rows: Range<usize>,
    /// The part's placement, line-disjoint from the job's main plan and
    /// every earlier extra.
    plan: PlacementPlan,
}

/// One shard's work for one wave: rows of one group under a 2D plan, plus
/// any co-located extra parts pass 3 added.
struct WaveJob {
    shard: usize,
    /// Index into `groups`, so the densify pass can pull more requests.
    group: usize,
    /// The group rows the job serves, in slot order: the spread pass's
    /// run, then the densify pass's (possibly empty).
    runs: [Range<usize>; 2],
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

/// What [`run_waves`] hands its caller's sink, in dispatch order.
pub(crate) enum Delivery<'a> {
    /// A dispatched part's readback, delivered before that part's
    /// requests.
    Part(&'a OutputArena),
    /// A verified request of the part delivered last.
    Served(Served<'a>),
    /// A dead-lettered request: every allowed attempt was suppressed, or
    /// no line can hold it any more. `attempts` counts its suppressed
    /// attempts.
    Failed {
        /// The request's first-attempt row in its group.
        row: usize,
        ticket: Ticket,
        attempts: u32,
    },
}

/// One verified request: where it ran, its outputs and its attempt
/// history.
pub(crate) struct Served<'a> {
    pub(crate) group: usize,
    /// The request's first-attempt row in its group.
    pub(crate) row: usize,
    pub(crate) ticket: Ticket,
    pub(crate) submitted_at: Instant,
    pub(crate) shard: usize,
    /// Wave index within the flush.
    pub(crate) wave: usize,
    pub(crate) axis: Axis,
    pub(crate) slot: Slot,
    /// Position in the part's readback arena.
    pub(crate) index: usize,
    /// The request's output bits (`arena.get(index)`).
    pub(crate) outputs: &'a [bool],
    /// Dispatch of the request's first attempt.
    pub(crate) first_dispatch: Instant,
    /// Dispatch of the wave that served it.
    pub(crate) dispatched_at: Instant,
    /// Execute latency of each suppressed earlier attempt, oldest first.
    pub(crate) earlier: &'a [Duration],
    /// Execute latency of the serving attempt.
    pub(crate) execute_latency: Duration,
}

/// Executes `groups` to completion over the `active` subset of `shards`
/// under `knobs`, folding the accounting into `outcome` and handing every
/// resolved request to `sink` ([`Delivery`]). Nothing is pushed into
/// `outcome.results` or `outcome.failed` here, and nothing is sorted: the
/// sink decides what a delivery becomes.
///
/// Wave indices continue from `outcome.waves`; the plan's axis rotation
/// restarts at every call, and the wear rotation origin is
/// `knobs.origin_base` plus the flush-wide wave index.
///
/// `active` is the strictly ascending list of shard indices the plan may
/// use — the health loop's quarantine reroutes traffic by shrinking it.
/// Planning is positional over `active`, so a pool with shard `q`
/// quarantined carves, packs and rotates exactly like a pool built
/// without that shard: the plans are bit-identical up to the index
/// renaming `active[k] ↔ k` (the quarantine determinism guarantee).
///
/// On a shard failure the error is returned after the failing wave's
/// *successful* batches are delivered, and the flush's undispatched
/// traffic is abandoned — shard errors are placement or legality bugs,
/// not runtime conditions (submissions are validated up front).
pub(crate) fn run_waves(
    shards: &mut [PimDevice],
    groups: &mut [Group],
    knobs: PackingKnobs,
    outcome: &mut ClusterOutcome,
    active: &[usize],
    sink: &mut impl FnMut(&mut ClusterOutcome, Delivery<'_>),
) -> Result<(), ClusterError> {
    debug_assert!(
        active.windows(2).all(|w| w[0] < w[1]) && active.iter().all(|&s| s < shards.len()),
        "active shard list must be strictly ascending and in range"
    );
    let base = outcome.waves;
    let knobs = PackingKnobs {
        origin_base: knobs.origin_base + base,
        ..knobs
    };
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
        let wave = outcome.waves - base + skipped;
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
                    for row in g.take(g.remaining()) {
                        let (origin, attempts) = g
                            .history(row)
                            .map_or((row, 0), |h| (h.origin, h.latencies.len() as u32));
                        let ticket = g.tickets[row].0;
                        sink(
                            outcome,
                            Delivery::Failed {
                                row: origin,
                                ticket,
                                attempts,
                            },
                        );
                    }
                }
                break;
            }
            continue;
        }
        skipped = 0;
        let retries_before = outcome.retries;
        dispatch_wave(shards, groups, jobs, knobs, outcome, base + wave, sink)?;
        if outcome.retries > retries_before {
            spin += 1;
        }
    }
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
            let rows = g.take(take);
            jobs.push(WaveJob {
                shard: rotated[si],
                group: gi,
                runs: [rows.clone(), rows.end..rows.end],
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
        let depth = knobs.per_line(job.line_len, &g.program) - 1;
        let extra = g.remaining().min(job.lines * depth);
        if extra == 0 {
            continue;
        }
        job.runs[1] = g.take(extra);
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
                groups[job.group].program.footprint().max(1),
                job.lines,
                knobs.pack_limit,
                job.runs.iter().map(Range::len).sum(),
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
    // placed chunk becomes an extra part of the shard's wave,
    // line-disjoint from the main plan and every earlier extra.
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
            job.extras.push(ExtraPart {
                group: gi,
                rows: g.take(take),
                plan: extra_plan,
            });
        }
    }
    // `dispatch_wave` runs jobs in ascending shard order; the retry
    // rotation can hand out shards in rotated order, so restore it here.
    planned.sort_by_key(|(job, _)| job.shard);
    planned
}

/// Runs one wave job on its shard: the main part plus any co-located
/// extras, each reading its inputs straight from its group's buffer.
fn run_job(
    device: &mut PimDevice,
    groups: &[Group],
    job: &WaveJob,
    plan: &PlacementPlan,
) -> Result<MultiBatchOutcome, DeviceError> {
    let main = groups[job.group].part(plan, &job.runs);
    if job.extras.is_empty() {
        return device.run_wave(&[main]);
    }
    let parts: Vec<WavePart<'_>> = std::iter::once(main)
        .chain(
            job.extras
                .iter()
                .map(|e| groups[e.group].part(&e.plan, std::slice::from_ref(&e.rows))),
        )
        .collect();
    device.run_wave(&parts)
}

/// Runs one planned wave, folds the batch accounting into `outcome` and
/// hands every part's requests to `sink` (see [`Delivery`]); `wave` is
/// the flush-wide index the deliveries carry.
///
/// The host runs the wave's jobs one after another on the flushing
/// thread, in ascending shard order; the model clock still runs them in
/// parallel, so the wave's wall MEM cycles are the *maximum* over its
/// shards. Every job runs even when a sibling shard fails, its successful
/// batch is delivered, and only the first error (lowest shard) is
/// reported.
///
/// Requests whose lines drew an uncorrectable ECC verdict are never
/// served here: their outputs are suppressed and their rows re-enter
/// their group ([`Group::requeue`] carries their attempt history), or
/// they are delivered as [`Delivery::Failed`] once `knobs.max_retries`
/// is spent. Co-located parts share their wave's verdict — a suspect
/// block-line suppresses whichever parts' slots sit on it, each
/// requeueing into its *own* group.
fn dispatch_wave(
    shards: &mut [PimDevice],
    groups: &mut [Group],
    jobs: Vec<(WaveJob, PlacementPlan)>,
    knobs: PackingKnobs,
    outcome: &mut ClusterOutcome,
    wave: usize,
    sink: &mut impl FnMut(&mut ClusterOutcome, Delivery<'_>),
) -> Result<(), ClusterError> {
    let dispatched_at = Instant::now();
    let mut wave_wall = 0;
    let mut first_error = None;
    for (job, plan) in jobs {
        let started = Instant::now();
        let result = run_job(&mut shards[job.shard], groups, &job, &plan);
        let execute_latency = started.elapsed();
        let shard = job.shard;
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
        let in_service = job.line_len - job.avoid.len();
        report.line_capacity += in_service as u64;
        report.cell_capacity += (in_service * job.line_len) as u64;
        let unc = batch.uncorrectable_input.as_ref();
        // The main part first, then the extras, in the same order their
        // plans were assembled — parallel to `batch.parts`.
        let parts = std::iter::once((job.group, &job.runs[..], &plan)).chain(
            job.extras
                .iter()
                .map(|e| (e.group, std::slice::from_ref(&e.rows), &e.plan)),
        );
        for ((gi, runs, part_plan), arena) in parts.zip(&batch.parts) {
            let report = &mut outcome.shard_reports[shard];
            report.requests += part_plan.requests() as u64;
            report.lines_occupied += part_plan.lines_occupied() as u64;
            report.cells_occupied += part_plan.cells_occupied() as u64;
            sink(outcome, Delivery::Part(arena));
            let rows = runs.iter().cloned().flatten();
            for ((index, &slot), row) in part_plan.slots().iter().enumerate().zip(rows) {
                let g = &mut groups[gi];
                let (ticket, submitted_at) = g.tickets[row];
                if unc.is_some_and(|u| u.covers_line(slot.line)) {
                    // An uncorrectable verdict covers this request's
                    // lines: the outputs cannot be vouched for, so they
                    // are suppressed — never delivered. The row re-enters
                    // its group for the next wave, or dead-letters
                    // explicitly once its attempt budget is spent.
                    let attempts = g.history(row).map_or(0, |h| h.latencies.len()) as u32 + 1;
                    if attempts > knobs.max_retries {
                        let origin = g.history(row).map_or(row, |h| h.origin);
                        sink(
                            outcome,
                            Delivery::Failed {
                                row: origin,
                                ticket,
                                attempts,
                            },
                        );
                    } else {
                        outcome.retries += 1;
                        g.requeue(row, dispatched_at, execute_latency);
                    }
                    continue;
                }
                let (origin, first_dispatch, earlier) = match g.history(row) {
                    Some(h) => (h.origin, h.first_dispatch, h.latencies.as_slice()),
                    None => (row, dispatched_at, &[][..]),
                };
                sink(
                    outcome,
                    Delivery::Served(Served {
                        group: gi,
                        row: origin,
                        ticket,
                        submitted_at,
                        shard,
                        wave,
                        axis: part_plan.axis(),
                        slot,
                        index,
                        outputs: arena.get(index),
                        first_dispatch,
                        dispatched_at,
                        earlier,
                        execute_latency,
                    }),
                );
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
