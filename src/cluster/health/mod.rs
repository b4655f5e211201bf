//! The self-healing health loop of the cluster service: background
//! scrubbing, per-shard error budgets with quarantine, and an SLO metrics
//! snapshot.
//!
//! The paper's premise is that soft errors in memristive PIM are routine
//! operating conditions — so a production front-end cannot treat the ECC
//! machinery as a test fixture. This module closes the loop online:
//!
//! * **Background scrubbing** — the service worker runs one
//!   [`PimDevice::scrub_pass`](crate::device::PimDevice::scrub_pass) per
//!   [`scrub_period`](crate::cluster::PimClusterBuilder::scrub_period) on
//!   a round-robin shard, but only when the pending queue is idle or the
//!   next flush deadline leaves comfortable slack — scrubbing never
//!   delays a deadline flush. The default period comes from the
//!   reliability model ([`default_scrub_period`]): pick the per-bit flip
//!   probability the diagonal ECC should face between checks, invert it
//!   through [`SoftErrorRate::exposure_window_for`], and compress the
//!   resulting wall-clock window by the simulation's time acceleration.
//! * **Error budgets and quarantine** — every flush and scrub feeds the
//!   per-shard [`ShardHealth`] ledger (ECC detections and corrections
//!   from the `CheckReport`s, wear from the cells each batch reserved, a
//!   rolling error window). A shard whose windowed error count exceeds
//!   its [`error_budget`](crate::cluster::PimClusterBuilder::error_budget)
//!   is **quarantined**: the scheduler's active-shard list shrinks and
//!   traffic reroutes deterministically (see the scheduler's
//!   `run_waves`). Quarantined shards keep receiving
//!   scrub passes; after
//!   [`recovery_scrubs`](crate::cluster::PimClusterBuilder::recovery_scrubs)
//!   consecutive *clean* scrubs the shard rejoins the pool.
//! * **SLO metrics** — [`HealthSnapshot`] aggregates p50/p95/p99 queue
//!   and execute latency from the data every
//!   [`TicketResult`](crate::cluster::TicketResult) already carries, plus
//!   the per-shard counters, and is served lock-free of the worker by
//!   [`ClusterHandle::metrics`](crate::cluster::ClusterHandle::metrics).
//!
//! The drift-aware refresh analysis in
//! [`DriftModel`](pimecc_reliability::DriftModel) composes with the same
//! machinery: feed [`effective_ser`](pimecc_reliability::DriftModel::effective_ser) into
//! [`scrub_period_for`] to derive a period that tracks retention drift
//! instead of the abrupt-upset floor.
//!
//! [`SoftErrorRate::exposure_window_for`]: pimecc_reliability::SoftErrorRate::exposure_window_for

use super::outcome::ClusterOutcome;
use pimecc_core::CheckReport;
use pimecc_reliability::SoftErrorRate;
use std::collections::VecDeque;
use std::time::Duration;

/// Scheduling availability of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardState {
    /// In the scheduler's rotation.
    #[default]
    Healthy,
    /// Error budget exceeded: receives scrub passes but no traffic.
    Quarantined,
}

/// One shard's health ledger, as reported in a [`HealthSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardHealth {
    /// Scheduling state.
    pub state: ShardState,
    /// ECC code blocks checked on this shard (input checks + scrubs).
    pub checked: u64,
    /// Single-bit errors the ECC corrected.
    pub corrected: u64,
    /// Multi-bit patterns the ECC detected but could not correct.
    pub uncorrectable: u64,
    /// Background scrub passes run on this shard.
    pub scrubs: u64,
    /// Errors corrected by scrub passes (subset of `corrected`).
    pub scrub_corrected: u64,
    /// Consecutive clean scrubs since the last error — the recovery
    /// counter while quarantined.
    pub clean_scrub_streak: u32,
    /// Times the error budget quarantined this shard.
    pub quarantines: u64,
    /// Times a quarantine was lifted after clean scrubs.
    pub recoveries: u64,
    /// Crossbar cells written by dispatched batches — the wear proxy the
    /// rotation levels (see
    /// [`ShardReport::cells_occupied`](crate::cluster::ShardReport)).
    pub wear_cells: u64,
    /// Errors inside the rolling window the budget is judged on.
    pub window_errors: u64,
    /// Blocks checked inside the rolling window.
    pub window_checked: u64,
    /// Physical lines permanently retired on this shard (both axes
    /// summed) — capacity the placement planner no longer offers. See
    /// [`RetiredLines`](crate::device::RetiredLines).
    pub retired_lines: u64,
}

impl ShardHealth {
    /// Errors per checked block over the rolling window (0.0 when no
    /// blocks have been checked yet).
    pub fn error_rate(&self) -> f64 {
        if self.window_checked == 0 {
            0.0
        } else {
            self.window_errors as f64 / self.window_checked as f64
        }
    }
}

/// Percentile summary of one latency distribution, by the nearest-rank
/// method (`rank = ⌈p/100 · n⌉`, 1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Samples the percentiles were computed over.
    pub samples: usize,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
}

impl LatencyStats {
    /// Computes the summary from raw samples (order irrelevant). Empty
    /// input yields all-zero percentiles.
    ///
    /// # Example
    ///
    /// ```
    /// use pimecc::cluster::LatencyStats;
    /// use std::time::Duration;
    ///
    /// let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
    /// let stats = LatencyStats::from_samples(&samples);
    /// assert_eq!(stats.p50, Duration::from_micros(50));
    /// assert_eq!(stats.p95, Duration::from_micros(95));
    /// assert_eq!(stats.p99, Duration::from_micros(99));
    /// ```
    pub fn from_samples(samples: &[Duration]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        LatencyStats {
            samples: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// sample such that at least `pct`% of the distribution is ≤ it.
fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Point-in-time view of the service's health, returned by
/// [`ClusterHandle::metrics`](crate::cluster::ClusterHandle::metrics) (and
/// [`PimCluster::health`](crate::cluster::PimCluster::health) on the sync
/// front-end).
///
/// The worker publishes a fresh snapshot after every flush and every
/// scrub pass; reading one never blocks on shard execution.
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
/// for v in 0..8u32 {
///     handle.submit(&program, vec![v & 1 != 0, v & 2 != 0])?.wait()?;
/// }
/// let snap = handle.metrics();
/// assert_eq!(snap.shards.len(), 2);
/// assert_eq!(snap.quarantined(), 0);
/// assert_eq!(snap.requests, 8);
/// assert!(snap.queue_latency.samples >= 8);
/// assert!(snap.shards.iter().all(|s| s.uncorrectable == 0));
/// handle.close()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[must_use]
pub struct HealthSnapshot {
    /// Per-shard ledgers, indexed by shard.
    pub shards: Vec<ShardHealth>,
    /// Queue-latency percentiles (submission → dispatch) over the recent
    /// sample window.
    pub queue_latency: LatencyStats,
    /// Execute-latency percentiles (batch wall time on its shard) over
    /// the recent sample window.
    pub execute_latency: LatencyStats,
    /// Flushes the service has executed (empty flushes excluded).
    pub flushes: u64,
    /// Requests served over the service's lifetime.
    pub requests: u64,
    /// Background scrub passes run across all shards.
    pub scrub_waves: u64,
    /// Suppressed-and-requeued dispatch attempts over the service's
    /// lifetime: each one is a ticket whose batch drew an uncorrectable
    /// ECC verdict on its lines and was granted a fresh placement.
    pub retries: u64,
    /// Requests dead-lettered as
    /// [`ClusterError::RequestFailed`](crate::cluster::ClusterError::RequestFailed)
    /// after exhausting their retry budget — every one an explicit error
    /// in place of a silently wrong answer.
    pub dead_letters: u64,
}

impl HealthSnapshot {
    pub(crate) fn empty(shards: usize) -> Self {
        HealthSnapshot {
            shards: vec![ShardHealth::default(); shards],
            ..HealthSnapshot::default()
        }
    }

    /// Number of shards currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.state == ShardState::Quarantined)
            .count()
    }

    /// Errors corrected across all shards (input checks + scrubs).
    pub fn corrected(&self) -> u64 {
        self.shards.iter().map(|s| s.corrected).sum()
    }

    /// Uncorrectable patterns detected across all shards.
    pub fn uncorrectable(&self) -> u64 {
        self.shards.iter().map(|s| s.uncorrectable).sum()
    }
}

/// The health-policy knobs, frozen at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HealthConfig {
    /// Background scrub cadence; `None` disables scrubbing.
    pub(crate) scrub_period: Option<Duration>,
    /// Windowed error count above which a shard is quarantined; `None`
    /// disables quarantine.
    pub(crate) error_budget: Option<u64>,
    /// Consecutive clean scrubs that lift a quarantine.
    pub(crate) recovery_scrubs: u32,
    /// Observations (flush batches / scrubs) the rolling error window
    /// holds per shard.
    pub(crate) window: usize,
    /// Latency samples retained per distribution.
    pub(crate) latency_window: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            scrub_period: None,
            error_budget: None,
            recovery_scrubs: 3,
            window: 32,
            latency_window: 4096,
        }
    }
}

/// One shard's mutable tracking state inside the monitor.
#[derive(Debug, Clone, Default)]
struct ShardTracker {
    health: ShardHealth,
    /// Rolling `(errors, checked)` observations, newest at the back.
    window: VecDeque<(u64, u64)>,
}

impl ShardTracker {
    /// Pushes one observation into the rolling window and returns the
    /// windowed error total.
    fn observe(&mut self, errors: u64, checked: u64, cap: usize) -> u64 {
        self.window.push_back((errors, checked));
        while self.window.len() > cap {
            self.window.pop_front();
        }
        self.health.window_errors = self.window.iter().map(|&(e, _)| e).sum();
        self.health.window_checked = self.window.iter().map(|&(_, c)| c).sum();
        self.health.window_errors
    }

    fn clear_window(&mut self) {
        self.window.clear();
        self.health.window_errors = 0;
        self.health.window_checked = 0;
    }
}

/// The live health state owned by the flush path ([`ClusterCore`]) — the
/// single writer; front-ends read via [`HealthMonitor::snapshot`].
///
/// [`ClusterCore`]: super::service::ClusterCore
#[derive(Debug)]
pub(crate) struct HealthMonitor {
    cfg: HealthConfig,
    shards: Vec<ShardTracker>,
    queue_lat: VecDeque<Duration>,
    exec_lat: VecDeque<Duration>,
    flushes: u64,
    requests: u64,
    scrub_waves: u64,
    retries: u64,
    dead_letters: u64,
    /// Round-robin cursor of the scrub scheduler.
    scrub_cursor: usize,
}

impl HealthMonitor {
    pub(crate) fn new(shards: usize, cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            shards: vec![ShardTracker::default(); shards],
            queue_lat: VecDeque::new(),
            exec_lat: VecDeque::new(),
            flushes: 0,
            requests: 0,
            scrub_waves: 0,
            retries: 0,
            dead_letters: 0,
            scrub_cursor: 0,
        }
    }

    pub(crate) fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// The strictly ascending shard indices the scheduler may plan over.
    ///
    /// If *every* shard is quarantined the full pool is returned —
    /// availability beats purity: serving traffic on suspect shards (each
    /// request is still ECC-checked pre-execution) is better than
    /// serving nothing.
    pub(crate) fn active_shards(&self) -> Vec<usize> {
        let healthy: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, t)| t.health.state == ShardState::Healthy)
            .map(|(i, _)| i)
            .collect();
        if healthy.is_empty() {
            (0..self.shards.len()).collect()
        } else {
            healthy
        }
    }

    /// Folds one flush's outcome into the ledgers: per-shard check
    /// telemetry, wear, error windows (quarantining over-budget shards)
    /// and latency reservoirs.
    pub(crate) fn observe_flush(&mut self, outcome: &ClusterOutcome) {
        if outcome.results.is_empty() && outcome.waves == 0 {
            return;
        }
        self.flushes += 1;
        self.requests += outcome.results.len() as u64;
        self.retries += outcome.retries;
        self.dead_letters += outcome.failed.len() as u64;
        for (i, report) in outcome.shard_reports.iter().enumerate() {
            if report.batches == 0 {
                continue;
            }
            let t = &mut self.shards[i];
            t.health.checked += report.input_check.checked as u64;
            t.health.corrected += report.input_check.corrected as u64;
            t.health.uncorrectable += report.input_check.uncorrectable as u64;
            t.health.wear_cells += report.cells_occupied;
            let errors = (report.input_check.corrected + report.input_check.uncorrectable) as u64;
            if errors > 0 {
                t.health.clean_scrub_streak = 0;
            }
            let windowed = t.observe(errors, report.input_check.checked as u64, self.cfg.window);
            if t.health.state == ShardState::Healthy
                && self
                    .cfg
                    .error_budget
                    .is_some_and(|budget| windowed > budget)
            {
                t.health.state = ShardState::Quarantined;
                t.health.quarantines += 1;
                t.health.clean_scrub_streak = 0;
            }
        }
        for r in &outcome.results {
            self.queue_lat.push_back(r.queue_latency);
            self.exec_lat.push_back(r.execute_latency);
        }
        while self.queue_lat.len() > self.cfg.latency_window {
            self.queue_lat.pop_front();
        }
        while self.exec_lat.len() > self.cfg.latency_window {
            self.exec_lat.pop_front();
        }
    }

    /// Folds one scrub pass on `shard` into the ledgers, driving the
    /// quarantine → recovery transition.
    pub(crate) fn note_scrub(&mut self, shard: usize, check: &CheckReport) {
        self.scrub_waves += 1;
        let t = &mut self.shards[shard];
        t.health.scrubs += 1;
        t.health.checked += check.checked as u64;
        t.health.corrected += check.corrected as u64;
        t.health.uncorrectable += check.uncorrectable as u64;
        t.health.scrub_corrected += check.corrected as u64;
        let errors = (check.corrected + check.uncorrectable) as u64;
        let clean = errors == 0;
        match t.health.state {
            ShardState::Healthy => {
                if clean {
                    t.health.clean_scrub_streak = t.health.clean_scrub_streak.saturating_add(1);
                } else {
                    t.health.clean_scrub_streak = 0;
                }
                let windowed = t.observe(errors, check.checked as u64, self.cfg.window);
                if self
                    .cfg
                    .error_budget
                    .is_some_and(|budget| windowed > budget)
                {
                    t.health.state = ShardState::Quarantined;
                    t.health.quarantines += 1;
                    t.health.clean_scrub_streak = 0;
                }
            }
            ShardState::Quarantined => {
                if clean {
                    t.health.clean_scrub_streak = t.health.clean_scrub_streak.saturating_add(1);
                    if t.health.clean_scrub_streak >= self.cfg.recovery_scrubs {
                        t.health.state = ShardState::Healthy;
                        t.health.recoveries += 1;
                        // A recovered shard starts with a clean budget;
                        // the stale window would re-quarantine it on its
                        // first post-recovery observation.
                        t.clear_window();
                    }
                } else {
                    t.health.clean_scrub_streak = 0;
                }
            }
        }
    }

    /// Updates one shard's retired-capacity gauge from its device-side
    /// [`RetiredLines`](crate::device::RetiredLines) ledger — called
    /// after every flush and scrub, where retirements happen.
    pub(crate) fn set_retired(&mut self, shard: usize, lines: u64) {
        self.shards[shard].health.retired_lines = lines;
    }

    /// Manually quarantines (or releases) a shard — the operator override
    /// behind [`PimCluster::set_quarantined`](crate::cluster::PimCluster::set_quarantined).
    pub(crate) fn force_quarantine(&mut self, shard: usize, quarantined: bool) {
        let t = &mut self.shards[shard];
        match (t.health.state, quarantined) {
            (ShardState::Healthy, true) => {
                t.health.state = ShardState::Quarantined;
                t.health.quarantines += 1;
                t.health.clean_scrub_streak = 0;
            }
            (ShardState::Quarantined, false) => {
                t.health.state = ShardState::Healthy;
                t.health.recoveries += 1;
                t.clear_window();
            }
            _ => {}
        }
    }

    /// The next shard in the scrub rotation — over **all** shards,
    /// quarantined ones included: scrubbing is exactly how a quarantined
    /// shard earns its way back.
    pub(crate) fn next_scrub_shard(&mut self) -> usize {
        let shard = self.scrub_cursor % self.shards.len();
        self.scrub_cursor = (self.scrub_cursor + 1) % self.shards.len();
        shard
    }

    /// Materializes the public snapshot.
    pub(crate) fn snapshot(&self) -> HealthSnapshot {
        let queue: Vec<Duration> = self.queue_lat.iter().copied().collect();
        let exec: Vec<Duration> = self.exec_lat.iter().copied().collect();
        HealthSnapshot {
            shards: self.shards.iter().map(|t| t.health).collect(),
            queue_latency: LatencyStats::from_samples(&queue),
            execute_latency: LatencyStats::from_samples(&exec),
            flushes: self.flushes,
            requests: self.requests,
            scrub_waves: self.scrub_waves,
            retries: self.retries,
            dead_letters: self.dead_letters,
        }
    }
}

/// Wall-clock seconds of host time that correspond to one simulated hour
/// of device exposure, for scrub-period compression: the simulation
/// executes device workloads orders of magnitude faster than real
/// deployments accumulate upsets, so the model's hours-scale check
/// periods compress into milliseconds of service time. 960 simulated
/// hours per wall second turns the paper's daily check into a ~25 ms
/// service cadence.
const SIM_HOURS_PER_SECOND: f64 = 960.0;

/// The per-bit flip probability the default scrub policy tolerates
/// between checks — chosen so a flash-like SER
/// ([`SoftErrorRate::flash_like`]) yields the paper's daily check window.
const DEFAULT_TARGET_FLIP_PROBABILITY: f64 = 2.4e-11;

/// Derives a scrub period from a soft-error rate and a target per-bit
/// flip probability between checks: the model's exposure window
/// ([`SoftErrorRate::exposure_window_for`]), compressed to service time
/// by the simulation's acceleration and clamped to `[5 ms, 60 s]`.
///
/// # Example
///
/// ```
/// use pimecc::cluster::scrub_period_for;
/// use pimecc::reliability::SoftErrorRate;
///
/// // A 100× worse-than-flash part needs 100× more frequent scrubs —
/// // down to the clamp floor.
/// let flash = scrub_period_for(SoftErrorRate::flash_like(), 2.4e-11);
/// let worse = scrub_period_for(SoftErrorRate::from_fit_per_bit(1e-1), 2.4e-11);
/// assert!(worse < flash);
/// ```
pub fn scrub_period_for(ser: SoftErrorRate, target_flip_probability: f64) -> Duration {
    let hours = ser.exposure_window_for(target_flip_probability);
    let secs = (hours / SIM_HOURS_PER_SECOND).clamp(0.005, 60.0);
    // Whole milliseconds: sub-ms precision is meaningless for a scrub
    // cadence and rounding keeps the derived defaults crisp.
    Duration::from_millis((secs * 1000.0).round() as u64)
}

/// The default background scrub cadence of a spawned service: the
/// flash-like SER anchor inverted at the default flip-probability target
/// (the paper's daily check window), compressed to service time — 25 ms.
///
/// # Example
///
/// ```
/// use pimecc::cluster::default_scrub_period;
/// use std::time::Duration;
///
/// assert_eq!(default_scrub_period(), Duration::from_millis(25));
/// ```
pub fn default_scrub_period() -> Duration {
    scrub_period_for(SoftErrorRate::flash_like(), DEFAULT_TARGET_FLIP_PROBABILITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let us: Vec<Duration> = (1..=4).map(Duration::from_micros).collect();
        assert_eq!(percentile(&us, 50.0), Duration::from_micros(2));
        assert_eq!(percentile(&us, 95.0), Duration::from_micros(4));
        assert_eq!(percentile(&us, 25.0), Duration::from_micros(1));
        assert_eq!(percentile(&us, 1.0), Duration::from_micros(1));
        assert_eq!(percentile(&us, 100.0), Duration::from_micros(4));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        let one = [Duration::from_micros(7)];
        assert_eq!(percentile(&one, 50.0), Duration::from_micros(7));
        assert_eq!(percentile(&one, 99.0), Duration::from_micros(7));
    }

    #[test]
    fn latency_stats_match_a_serial_reference() {
        // Unsorted, duplicated samples; the reference is an independent
        // nearest-rank aggregation over a sorted copy.
        let samples: Vec<Duration> = [9u64, 1, 5, 5, 3, 8, 2, 7, 4, 6]
            .iter()
            .map(|&us| Duration::from_micros(us))
            .collect();
        let stats = LatencyStats::from_samples(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let reference = |pct: f64| {
            let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.max(1) - 1]
        };
        assert_eq!(stats.samples, 10);
        assert_eq!(stats.p50, reference(50.0));
        assert_eq!(stats.p95, reference(95.0));
        assert_eq!(stats.p99, reference(99.0));
    }

    #[test]
    fn error_budget_transitions_healthy_quarantined_recovered() {
        let cfg = HealthConfig {
            error_budget: Some(2),
            recovery_scrubs: 2,
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(2, cfg);
        assert_eq!(mon.active_shards(), vec![0, 1]);

        // Three errors on shard 1 bust the budget of 2.
        let dirty = CheckReport {
            checked: 100,
            corrected: 3,
            uncorrectable: 0,
        };
        mon.note_scrub(1, &dirty);
        let snap = mon.snapshot();
        assert_eq!(snap.shards[1].state, ShardState::Quarantined);
        assert_eq!(snap.shards[1].quarantines, 1);
        assert_eq!(mon.active_shards(), vec![0]);

        // One clean scrub is not enough; the second lifts the quarantine.
        let clean = CheckReport {
            checked: 100,
            corrected: 0,
            uncorrectable: 0,
        };
        mon.note_scrub(1, &clean);
        assert_eq!(mon.snapshot().shards[1].state, ShardState::Quarantined);
        mon.note_scrub(1, &clean);
        let snap = mon.snapshot();
        assert_eq!(snap.shards[1].state, ShardState::Healthy);
        assert_eq!(snap.shards[1].recoveries, 1);
        assert_eq!(mon.active_shards(), vec![0, 1]);
        // The window was cleared: the old errors cannot re-quarantine.
        assert_eq!(snap.shards[1].window_errors, 0);

        // A dirty scrub mid-quarantine resets the streak.
        mon.note_scrub(0, &dirty);
        assert_eq!(mon.snapshot().shards[0].state, ShardState::Quarantined);
        mon.note_scrub(0, &clean);
        mon.note_scrub(0, &dirty);
        assert_eq!(mon.snapshot().shards[0].clean_scrub_streak, 0);
        assert_eq!(mon.snapshot().shards[0].state, ShardState::Quarantined);
    }

    #[test]
    fn all_quarantined_falls_back_to_the_full_pool() {
        let cfg = HealthConfig {
            error_budget: Some(0),
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(2, cfg);
        let dirty = CheckReport {
            checked: 10,
            corrected: 1,
            uncorrectable: 0,
        };
        mon.note_scrub(0, &dirty);
        mon.note_scrub(1, &dirty);
        assert_eq!(mon.snapshot().quarantined(), 2);
        assert_eq!(
            mon.active_shards(),
            vec![0, 1],
            "availability beats purity when nothing is healthy"
        );
    }

    #[test]
    fn force_quarantine_round_trips_and_is_idempotent() {
        let mut mon = HealthMonitor::new(3, HealthConfig::default());
        mon.force_quarantine(1, true);
        mon.force_quarantine(1, true);
        assert_eq!(mon.active_shards(), vec![0, 2]);
        assert_eq!(mon.snapshot().shards[1].quarantines, 1);
        mon.force_quarantine(1, false);
        mon.force_quarantine(1, false);
        assert_eq!(mon.active_shards(), vec![0, 1, 2]);
        assert_eq!(mon.snapshot().shards[1].recoveries, 1);
    }

    #[test]
    fn scrub_rotation_includes_quarantined_shards() {
        let mut mon = HealthMonitor::new(3, HealthConfig::default());
        mon.force_quarantine(1, true);
        let order: Vec<usize> = (0..6).map(|_| mon.next_scrub_shard()).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn rolling_window_forgets_old_errors() {
        let cfg = HealthConfig {
            window: 2,
            error_budget: Some(10),
            ..HealthConfig::default()
        };
        let mut mon = HealthMonitor::new(1, cfg);
        let dirty = CheckReport {
            checked: 10,
            corrected: 2,
            uncorrectable: 0,
        };
        let clean = CheckReport {
            checked: 10,
            corrected: 0,
            uncorrectable: 0,
        };
        mon.note_scrub(0, &dirty);
        assert_eq!(mon.snapshot().shards[0].window_errors, 2);
        mon.note_scrub(0, &clean);
        mon.note_scrub(0, &clean);
        assert_eq!(
            mon.snapshot().shards[0].window_errors,
            0,
            "the dirty observation aged out of the 2-deep window"
        );
        assert_eq!(
            mon.snapshot().shards[0].corrected,
            2,
            "lifetime count stays"
        );
        assert!(mon.snapshot().shards[0].error_rate() < 1e-12);
    }

    #[test]
    fn snapshot_aggregates_flush_telemetry_per_shard() {
        let mut mon = HealthMonitor::new(2, HealthConfig::default());
        let mut o = ClusterOutcome::empty(2);
        o.waves = 1;
        o.shard_reports[0].batches = 1;
        o.shard_reports[0].cells_occupied = 12;
        o.shard_reports[0].input_check = CheckReport {
            checked: 100,
            corrected: 1,
            uncorrectable: 0,
        };
        // Shard 1 idle this flush: nothing must be attributed to it.
        mon.observe_flush(&o);
        let snap = mon.snapshot();
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.shards[0].checked, 100);
        assert_eq!(snap.shards[0].corrected, 1);
        assert_eq!(snap.shards[0].wear_cells, 12);
        assert_eq!(snap.shards[1].checked, 0);
        assert_eq!(snap.corrected(), 1);
        assert_eq!(snap.uncorrectable(), 0);
    }

    #[test]
    fn scrub_period_derivation_matches_the_reliability_model() {
        assert_eq!(default_scrub_period(), Duration::from_millis(25));
        // 1e3 FIT/bit: a million times worse than flash — clamped to the
        // 5 ms floor.
        assert_eq!(
            scrub_period_for(SoftErrorRate::from_fit_per_bit(1e3), 2.4e-11),
            Duration::from_millis(5)
        );
        // A zero rate clamps to the 60 s ceiling instead of infinity.
        assert_eq!(
            scrub_period_for(SoftErrorRate::from_fit_per_bit(0.0), 2.4e-11),
            Duration::from_secs(60)
        );
    }
}
