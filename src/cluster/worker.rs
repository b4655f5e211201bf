//! The service's worker thread: owns the shard pool, drains the command
//! channel, auto-flushes on **either** a pending-count threshold or a
//! max-latency deadline — whichever trips first — and runs the health
//! loop's background scrub waves in the gaps.
//!
//! The worker is the only thread that ever touches the
//! [`ClusterCore`](super::service::ClusterCore) once
//! [`PimClusterBuilder::spawn`](crate::cluster::PimClusterBuilder::spawn)
//! moves the pool here, so scheduling stays exactly as deterministic as
//! the synchronous cluster: the dispatch plan is a pure function of the
//! order commands arrive on the channel. Concurrent producers race for
//! *queue positions* (ticket ids are allocated in channel order), but
//! once the order is fixed, so is every placement.
//!
//! # Scrubbing never delays a deadline flush
//!
//! A scrub pass runs only when the pending queue is empty, or when the
//! armed deadline leaves at least twice the (exponentially averaged)
//! wall cost of recent scrub passes as slack. A worker that cannot fit a
//! scrub before the deadline skips the slot and re-arms the scrub timer
//! — traffic wins, scrubbing rides the idle gaps. Background scrubs use
//! [`PimDevice::scrub_pass`](crate::device::PimDevice::scrub_pass),
//! whose stats are billed to the device's lifetime clock but not to any
//! flush outcome (batch stats are deltas), so scrubbing is invisible to
//! the determinism guarantee on results.

use super::handle::Shared;
use super::service::{ClusterCore, ServiceConfig};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a [`ClusterHandle`](super::handle::ClusterHandle) sends down the
/// channel.
pub(crate) enum Command {
    /// One validated request; the ticket id was allocated by the sender.
    Submit(super::queue::Pending),
    /// One validated partitioned request (see
    /// [`ClusterHandle::submit_partitioned`](super::handle::ClusterHandle::submit_partitioned));
    /// rides the same queue positions and flush triggers as `Submit`.
    SubmitPartitioned(super::queue::PendingPartitioned),
    /// Flush everything pending now.
    Flush,
    /// Flush everything pending, then stop (graceful shutdown).
    Close,
}

/// The worker loop. Runs until a [`Command::Close`] arrives or every
/// sender is gone, flushes whatever is still pending on the way out, and
/// marks the board closed so waiters never hang. A panic anywhere in the
/// loop (a shard's fault hook panicking, a placement invariant breaking)
/// poisons the board instead: every current and future waiter gets
/// [`ClusterError::WorkerPoisoned`](super::ClusterError::WorkerPoisoned).
pub(crate) fn run(
    mut core: ClusterCore,
    rx: Receiver<Command>,
    shared: Arc<Shared>,
    cfg: ServiceConfig,
) {
    let _guard = PoisonGuard(&shared);
    shared.set_health(core.health.snapshot());
    // When the oldest pending request must be served (`flush_after`
    // counted from its submission instant); `None` while the queue is
    // empty or no deadline is configured.
    let mut deadline: Option<Instant> = None;
    // When the next background scrub pass is due; `None` when scrubbing
    // is disabled.
    let scrub_period = core.health.config().scrub_period;
    let mut next_scrub = scrub_period.map(|period| Instant::now() + period);
    // Exponentially averaged wall cost of one scrub pass — the slack a
    // scrub must find under an armed deadline before it may run.
    let mut scrub_cost = Duration::ZERO;
    loop {
        // An expired deadline flushes — but first the channel backlog is
        // absorbed non-blockingly. A worker running behind its deadline
        // would otherwise dequeue one aged request at a time, each with
        // an already-expired deadline, and degenerate into
        // one-request-per-flush: the exact anti-batching behavior the
        // service exists to avoid.
        if deadline.is_some_and(|at| at <= Instant::now()) {
            let stop = absorb_backlog(&mut core, &rx, &shared, cfg, &mut deadline);
            flush(&mut core, &shared, &mut deadline);
            if stop {
                break;
            }
            continue;
        }
        // A due scrub slot runs one pass on the round-robin shard — but
        // only if it cannot collide with the deadline flush (see module
        // docs). A skipped slot still re-arms: the scheduler degrades to
        // "scrub when idle" under sustained pressure.
        if let (Some(period), Some(due)) = (scrub_period, next_scrub) {
            if due <= Instant::now() {
                let slack_ok = core.pending_total() == 0
                    || deadline.is_some_and(|at| {
                        at.saturating_duration_since(Instant::now()) > scrub_cost * 2
                    });
                if slack_ok {
                    let started = Instant::now();
                    scrub_one(&mut core);
                    let took = started.elapsed();
                    scrub_cost = (scrub_cost * 3 + took) / 4;
                    shared.set_health(core.health.snapshot());
                }
                next_scrub = Some(Instant::now() + period);
                continue;
            }
        }
        // Sleep until the next actionable instant: a command, the flush
        // deadline, or the scrub timer — whichever is earliest.
        let wake = match (deadline, next_scrub) {
            (Some(d), Some(s)) => Some(d.min(s)),
            (Some(d), None) => Some(d),
            (None, Some(s)) => Some(s),
            (None, None) => None,
        };
        let cmd = match wake {
            Some(at) => {
                match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                    Ok(cmd) => cmd,
                    // Handled by the due-deadline / due-scrub branches.
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            },
        };
        match cmd {
            Command::Submit(p) => {
                if core.pending_total() == 0 {
                    deadline = cfg.flush_after.map(|after| p.submitted_at + after);
                }
                core.pending.push(p);
                if cfg.flush_at.is_some_and(|at| core.pending_total() >= at) {
                    flush(&mut core, &shared, &mut deadline);
                }
            }
            Command::SubmitPartitioned(p) => {
                if core.pending_total() == 0 {
                    deadline = cfg.flush_after.map(|after| p.submitted_at + after);
                }
                core.pending_partitioned.push(p);
                if cfg.flush_at.is_some_and(|at| core.pending_total() >= at) {
                    flush(&mut core, &shared, &mut deadline);
                }
            }
            Command::Flush => flush(&mut core, &shared, &mut deadline),
            Command::Close => break,
        }
    }
    // Graceful exit — Close or every handle dropped: serve the stragglers,
    // then let waiters and drainers through.
    flush(&mut core, &shared, &mut deadline);
    shared.set_health(core.health.snapshot());
    shared.finish();
}

/// One background scrub pass on the rotation's next shard, folded into
/// the health ledgers. The rotation covers quarantined shards too — clean
/// scrubs are how they earn their way back into the pool.
fn scrub_one(core: &mut ClusterCore) {
    let shard = core.health.next_scrub_shard();
    if let Ok(report) = core.shards[shard].scrub_pass() {
        core.health.note_scrub(shard, &report.check);
        let retired = core.shards[shard].retired().retired_physical_lines();
        core.health.set_retired(shard, retired as u64);
    }
}

/// Non-blockingly moves the channel backlog into the pending queue so an
/// imminent deadline flush carries the whole backlog in one batch. The
/// threshold still applies mid-absorb (so `flush_at` keeps bounding batch
/// size); queued `Flush` commands are satisfied by the flush that follows.
/// Returns `true` when the worker should stop (a `Close` was queued or
/// every sender is gone).
fn absorb_backlog(
    core: &mut ClusterCore,
    rx: &Receiver<Command>,
    shared: &Shared,
    cfg: ServiceConfig,
    deadline: &mut Option<Instant>,
) -> bool {
    loop {
        match rx.try_recv() {
            Ok(Command::Submit(p)) => {
                core.pending.push(p);
                if cfg.flush_at.is_some_and(|at| core.pending_total() >= at) {
                    flush(core, shared, deadline);
                }
            }
            Ok(Command::SubmitPartitioned(p)) => {
                core.pending_partitioned.push(p);
                if cfg.flush_at.is_some_and(|at| core.pending_total() >= at) {
                    flush(core, shared, deadline);
                }
            }
            Ok(Command::Flush) => {}
            Ok(Command::Close) => return true,
            // Disconnected: the final flush runs next either way, and the
            // following recv() observes the hangup and stops the loop.
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return false,
        }
    }
}

/// One queue drain: execute, publish to the board, refresh the health
/// snapshot, re-arm the deadline.
fn flush(core: &mut ClusterCore, shared: &Shared, deadline: &mut Option<Instant>) {
    *deadline = None;
    if core.pending_total() == 0 {
        return;
    }
    let report = core.flush_pending();
    // Health before results: a waiter woken by the publish must already
    // see this flush reflected in `metrics()`.
    shared.set_health(core.health.snapshot());
    shared.publish(report);
}

/// Poisons the board if the worker unwinds, so no waiter blocks forever
/// on a dead thread.
struct PoisonGuard<'a>(&'a Shared);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}
