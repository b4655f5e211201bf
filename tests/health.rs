//! Integration tests for the self-healing health subsystem: SLO metric
//! percentiles pinned against a serial reference, error-budget
//! quarantine and scrub-driven recovery, deterministic rerouting around
//! quarantined shards, scrub/deadline coexistence in the worker, retries
//! and line retirement under uncorrectable and stuck-at faults, and
//! seeded chaos campaigns against both front-ends.

use pimecc::cluster::LatencyStats;
use pimecc::core::{CampaignConfig, CheckReport, FaultCampaign};
use pimecc::netlist::generators::{mul, ripple_adder, to_bits};
use pimecc::netlist::{Netlist, NetlistBuilder};
use pimecc::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn xor_circuit() -> (pimecc::netlist::NorNetlist, Netlist) {
    let mut b = NetlistBuilder::new();
    let ins = b.inputs(2);
    let g = b.xor(ins[0], ins[1]);
    b.output(g);
    let nl = b.finish();
    (nl.to_nor(), nl)
}

fn mux_circuit() -> (pimecc::netlist::NorNetlist, Netlist) {
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
fn metrics_percentiles_match_a_serial_reference() {
    // The snapshot's p50/p95/p99 must equal nearest-rank percentiles
    // computed independently over the very latencies the drain returned —
    // the snapshot is an aggregation, not an estimate.
    let (nor, _) = xor_circuit();
    let handle = PimClusterBuilder::new(1, 30, 3)
        .flush_after(Duration::from_millis(1))
        .spawn()
        .expect("spawns");
    let p = handle.compile(&nor).expect("compiles");
    for v in 0..60u32 {
        let _ = handle
            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
            .expect("submits");
    }
    let outcome = handle.drain().expect("drains");
    let snap = handle.metrics();
    handle.close().expect("closes");

    assert_eq!(outcome.requests(), 60);
    assert_eq!(snap.requests, 60);
    let queue: Vec<Duration> = outcome.results.iter().map(|r| r.queue_latency).collect();
    let execute: Vec<Duration> = outcome.results.iter().map(|r| r.execute_latency).collect();
    assert_eq!(snap.queue_latency, LatencyStats::from_samples(&queue));
    assert_eq!(snap.execute_latency, LatencyStats::from_samples(&execute));
    assert_eq!(snap.queue_latency.samples, 60);
}

#[test]
fn error_budget_quarantines_and_clean_scrubs_recover() {
    // Sync front-end, storm hook on shard 1: corrected errors drain the
    // budget until the shard is quarantined, flushes reroute to shard 0,
    // and consecutive clean scrubs lift the quarantine.
    let (nor, nl) = xor_circuit();
    let storm = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&storm);
    let mut cluster = PimClusterBuilder::new(2, 30, 3)
        .error_budget(1)
        .recovery_scrubs(2)
        .shard_fault_hook(1, move |pm| {
            if flag.load(Ordering::Relaxed) {
                pm.inject_fault(0, 0);
            }
        })
        .build()
        .expect("builds");
    let p = cluster.compile(&nor).expect("compiles");
    let verify = |outcome: &ClusterOutcome, base: u32| {
        for (i, r) in outcome.results.iter().enumerate() {
            let v = base + i as u32;
            assert_eq!(
                r.outputs,
                nl.eval(&[v & 1 != 0, v & 2 != 0]),
                "ticket #{}",
                r.ticket.id()
            );
        }
    };
    // 64 same-program requests overflow one batch, so the spread pass
    // puts traffic (and the fault hook) on shard 1 every flush.
    let mut rounds = 0;
    while cluster.health().shards[1].state != ShardState::Quarantined {
        rounds += 1;
        assert!(rounds <= 16, "the error budget never tripped");
        for v in 0..64u32 {
            let _ = cluster
                .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                .expect("submits");
        }
        let outcome = cluster.flush().expect("flushes");
        verify(&outcome, 0);
    }
    let tripped = cluster.health();
    assert_eq!(tripped.shards[1].quarantines, 1);
    assert!(tripped.shards[1].window_errors > 1, "budget exceeded");

    // Quarantined: the whole next flush lands on shard 0.
    for v in 0..64u32 {
        let _ = cluster
            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
            .expect("submits");
    }
    let rerouted = cluster.flush().expect("flushes");
    verify(&rerouted, 0);
    assert!(
        rerouted.results.iter().all(|r| r.shard == 0),
        "no traffic may land on a quarantined shard"
    );
    assert_eq!(rerouted.shard_reports[1].batches, 0);

    // Storm over: the configured streak of clean scrubs recovers it.
    storm.store(false, Ordering::Relaxed);
    let mut scrubs = 0;
    while cluster.health().shards[1].state == ShardState::Quarantined {
        scrubs += 1;
        assert!(scrubs <= 8, "the shard never recovered");
        let _ = cluster.scrub_shard(1).expect("scrubs");
    }
    let healed = cluster.health();
    assert!(scrubs >= 2, "recovery takes the configured clean streak");
    assert_eq!(healed.shards[1].recoveries, 1);
    assert_eq!(healed.shards[1].state, ShardState::Healthy);
    assert_eq!(
        healed.uncorrectable(),
        0,
        "every injected flip was SEC-correctable"
    );

    // The recovered shard serves traffic again.
    for v in 0..64u32 {
        let _ = cluster
            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
            .expect("submits");
    }
    let restored = cluster.flush().expect("flushes");
    verify(&restored, 0);
    assert!(restored.results.iter().any(|r| r.shard == 1));
}

#[test]
fn background_scrubs_coexist_with_deadline_flushes() {
    // Busy phase: deadline-flushed traffic keeps being served while the
    // scrub timer is far shorter than the deadline. Idle phase: the
    // worker keeps scrubbing on its own.
    let (nor, nl) = xor_circuit();
    let handle = PimClusterBuilder::new(1, 30, 3)
        .flush_after(Duration::from_millis(2))
        .scrub_period(Duration::from_millis(1))
        .spawn()
        .expect("spawns");
    let p = handle.compile(&nor).expect("compiles");
    let deadline = Instant::now() + Duration::from_secs(20);
    for v in 0..20u32 {
        let t = handle
            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
            .expect("submits");
        let r = t.wait().expect("served");
        assert_eq!(r.outputs, nl.eval(&[v & 1 != 0, v & 2 != 0]));
        assert!(Instant::now() < deadline, "scrubs starved the flush path");
    }
    let busy = handle.metrics();
    assert_eq!(busy.requests, 20);

    // Idle: scrub waves keep accumulating with no traffic at all.
    let before = handle.metrics().scrub_waves;
    let grown = loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = handle.metrics().scrub_waves;
        if now > before {
            break now;
        }
        assert!(
            Instant::now() < deadline,
            "an idle worker must keep scrubbing"
        );
    };
    assert!(grown > before);
    handle.close().expect("closes");
}

#[test]
fn uncorrectable_precheck_retries_to_a_verified_answer() {
    // One double-bit strike on shard 0's block (0,0) before the first
    // wave: the pre-execution check reports the pattern uncorrectable,
    // the affected tickets are suppressed and re-dispatched, and every
    // request still resolves with bit-exact outputs — retried tickets
    // carrying their attempt accounting.
    let (nor, nl) = xor_circuit();
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    let mut cluster = PimClusterBuilder::new(2, 30, 3)
        .retire_after(1)
        .shard_fault_hook(0, move |pm| {
            if flag.swap(false, Ordering::Relaxed) {
                pm.inject_fault(0, 0);
                pm.inject_fault(0, 1);
            }
        })
        .build()
        .expect("builds");
    let p = cluster.compile(&nor).expect("compiles");
    let mut expected: HashMap<u64, Vec<bool>> = HashMap::new();
    for v in 0..64u32 {
        let inputs = vec![v & 1 != 0, v & 2 != 0];
        let t = cluster.submit(&p, inputs.clone()).expect("submits");
        expected.insert(t.id(), nl.eval(&inputs));
    }
    let outcome = cluster.flush().expect("flushes");

    assert!(
        outcome.failed.is_empty(),
        "one strike must not exhaust the retry budget"
    );
    assert_eq!(outcome.results.len(), 64);
    assert!(
        outcome.retries >= 1,
        "the uncorrectable verdict must suppress and re-dispatch"
    );
    let mut retried = 0u64;
    for r in &outcome.results {
        assert_eq!(
            r.outputs,
            expected[&r.ticket.id()],
            "ticket #{} resolved with corrupt outputs",
            r.ticket.id()
        );
        assert_eq!(
            r.attempt_latencies.len(),
            r.attempts as usize,
            "one latency sample per attempt"
        );
        assert_eq!(
            r.execute_latency,
            r.attempt_latencies.iter().sum(),
            "execute latency is cumulative across attempts"
        );
        if r.attempts > 1 {
            retried += 1;
        }
    }
    assert!(
        retried >= 1,
        "some ticket must have needed a second attempt"
    );
    assert!(outcome.retries >= retried);

    // `retire_after(1)`: the single uncorrectable verdict already takes
    // the struck block-line out of service, and the ledger surfaces it.
    let snap = cluster.health();
    assert!(snap.shards[0].retired_lines >= 1, "evidence must retire");
    assert_eq!(snap.shards[1].retired_lines, 0);
    assert_eq!(snap.retries, outcome.retries);
    assert_eq!(snap.dead_letters, 0);
}

#[test]
fn max_retries_zero_dead_letters_suspect_tickets() {
    // With no retry budget, a suppressed ticket dead-letters immediately:
    // it never resolves with outputs, surfaces as an explicit
    // `RequestFailed`, and the untouched tickets of the same wave still
    // verify bit-exact.
    let (nor, nl) = xor_circuit();
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    let mut cluster = PimClusterBuilder::new(1, 30, 3)
        .max_retries(0)
        .shard_fault_hook(0, move |pm| {
            if flag.swap(false, Ordering::Relaxed) {
                pm.inject_fault(0, 0);
                pm.inject_fault(0, 1);
            }
        })
        .build()
        .expect("builds");
    let p = cluster.compile(&nor).expect("compiles");
    let mut expected: HashMap<u64, Vec<bool>> = HashMap::new();
    for v in 0..8u32 {
        let inputs = vec![v & 1 != 0, v & 2 != 0];
        let t = cluster.submit(&p, inputs.clone()).expect("submits");
        expected.insert(t.id(), nl.eval(&inputs));
    }
    let outcome = cluster.flush().expect("flushes");

    // The double fault sits in one block, so exactly one block-line (m=3
    // physical lines, all occupied by this 8-request wave) is suspect.
    assert_eq!(outcome.failed.len(), 3);
    assert_eq!(outcome.results.len(), 5);
    assert_eq!(outcome.retries, 0);
    for f in &outcome.failed {
        assert_eq!(f.attempts, 1, "no budget means a single attempt");
        assert!(
            matches!(
                f.error(),
                ClusterError::RequestFailed { ticket, attempts: 1 } if ticket == f.ticket.id()
            ),
            "dead letters surface as explicit RequestFailed"
        );
        assert!(
            !outcome.results.iter().any(|r| r.ticket == f.ticket),
            "a dead-lettered ticket must never also resolve with outputs"
        );
    }
    for r in &outcome.results {
        assert_eq!(r.outputs, expected[&r.ticket.id()]);
        assert_eq!(r.attempts, 1);
    }
    assert_eq!(cluster.health().dead_letters, 3);
}

#[test]
fn persistent_uncorrectable_lines_exhaust_retries_into_dead_letters() {
    // A storm that re-poisons every occupied block-row after every batch
    // load: no attempt can ever verify, so after 1 + max_retries attempts
    // each ticket dead-letters — nothing resolves, nothing hangs, and the
    // attempt count is exact.
    let (nor, _) = xor_circuit();
    let mut cluster = PimClusterBuilder::new(1, 30, 3)
        .axis_policy(AxisPolicy::Rows)
        .max_retries(2)
        .shard_fault_hook(0, |pm| {
            // Two fresh flips per covered block: rows 0/3/6 are the first
            // row of block-rows 0..3, which an 8-request wave always
            // occupies. The device re-encodes suspect residue away each
            // wave, so every wave sees exactly this double-error pattern.
            for br in 0..3 {
                pm.inject_fault(br * 3, 0);
                pm.inject_fault(br * 3, 1);
            }
        })
        .build()
        .expect("builds");
    let p = cluster.compile(&nor).expect("compiles");
    for v in 0..8u32 {
        let _ = cluster
            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
            .expect("submits");
    }
    let outcome = cluster.flush().expect("flushes");

    assert!(
        outcome.results.is_empty(),
        "no ticket may resolve with outputs off a poisoned line"
    );
    assert_eq!(outcome.failed.len(), 8);
    for f in &outcome.failed {
        assert_eq!(f.attempts, 3, "1 + max_retries attempts before giving up");
    }
    assert_eq!(outcome.retries, 16, "each ticket re-dispatched twice");
    let snap = cluster.health();
    assert_eq!(snap.dead_letters, 8);
    assert_eq!(snap.retries, 16);
}

#[test]
fn service_waits_surface_dead_letters_exactly_once() {
    // Service front-end, no retry budget: suppressed tickets come back
    // from `wait` as `RequestFailed`, a second claim reports the result
    // already taken, and the health snapshot counts the dead letters.
    let (nor, nl) = xor_circuit();
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    let handle = PimClusterBuilder::new(1, 30, 3)
        .max_retries(0)
        .shard_fault_hook(0, move |pm| {
            if flag.swap(false, Ordering::Relaxed) {
                pm.inject_fault(0, 0);
                pm.inject_fault(0, 1);
            }
        })
        .spawn()
        .expect("spawns");
    let p = handle.compile(&nor).expect("compiles");
    let tickets: Vec<_> = (0..8u32)
        .map(|v| {
            let inputs = vec![v & 1 != 0, v & 2 != 0];
            (handle.submit(&p, inputs.clone()).expect("submits"), inputs)
        })
        .collect();
    let mut dead = 0;
    for (t, inputs) in &tickets {
        match t.wait() {
            Ok(r) => assert_eq!(r.outputs, nl.eval(inputs)),
            Err(ClusterError::RequestFailed { ticket, attempts }) => {
                assert_eq!(ticket, t.id());
                assert_eq!(attempts, 1);
                dead += 1;
                // Exactly-once: the dead letter was consumed by the wait.
                assert!(matches!(
                    t.try_wait(),
                    Err(ClusterError::TicketUnserved { .. })
                ));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(dead, 3);
    assert_eq!(handle.metrics().dead_letters, 3);
    handle.close().expect("closes");
}

#[test]
fn stuck_cells_retire_lines_on_the_struck_shard_only() {
    // Permanent damage on one shard of a 4×90/3 pool serving adder8: two
    // cells wedged at 1 in each of four ECC blocks of shard 2. A batch
    // that writes a 0 under both cells of a block draws an uncorrectable
    // verdict, its tickets are suppressed and retried, and recurring
    // strikes retire the struck block-lines. Every ticket still resolves
    // bit-exact or dead-letters, exactly once.
    const STUCK: [(usize, usize); 8] = [
        (0, 0),
        (1, 1),
        (4, 3),
        (5, 4),
        (30, 30),
        (31, 31),
        (60, 60),
        (61, 61),
    ];
    let adder = ripple_adder(8);
    let mut cluster = PimClusterBuilder::new(4, 90, 3)
        .auto_flush_at(512)
        .retire_after(2)
        .max_retries(2)
        .shard_fault_hook(2, |pm| {
            for &(r, c) in &STUCK {
                pm.set_stuck(r, c, true);
            }
        })
        .build()
        .expect("builds");
    let p = cluster.compile_packed(&adder.to_nor()).expect("compiles");
    let request = |i: usize| -> Vec<bool> {
        let x = (i * 73) as u32 & 0xFFFF;
        (0..16).map(|b| x >> b & 1 != 0).collect()
    };
    let tickets: Vec<Ticket> = (0..12_000)
        .map(|i| cluster.submit(&p, request(i)).expect("submits"))
        .collect();
    let outcome = cluster.flush().expect("flushes");

    let failed: std::collections::HashSet<u64> =
        outcome.failed.iter().map(|f| f.ticket.id()).collect();
    assert_eq!(outcome.results.len() + failed.len(), tickets.len());
    for (i, t) in tickets.iter().enumerate() {
        match outcome.outputs_for(*t) {
            Some(got) => {
                assert!(!failed.contains(&t.id()), "ticket #{i} resolved twice");
                assert_eq!(got, adder.eval(&request(i)), "ticket #{i} corrupt");
            }
            None => assert!(failed.contains(&t.id()), "ticket #{i} vanished"),
        }
    }
    assert!(
        outcome.retries >= 1,
        "suspect tickets must be re-dispatched, not resolved"
    );
    let snap = cluster.health();
    assert!(
        snap.shards[2].retired_lines >= 3,
        "recurring stuck-at evidence must retire at least one block-line \
         (m = 3 physical lines), ledger shows {}",
        snap.shards[2].retired_lines
    );
    for (i, shard) in snap.shards.iter().enumerate() {
        if i != 2 {
            assert_eq!(shard.retired_lines, 0, "shard {i}: retirement spread");
        }
    }
}

/// How many random fault campaigns the chaos proptest runs; CI raises it
/// via `PIMECC_CHAOS_CASES` (see `.github/workflows`).
fn chaos_cases() -> u32 {
    std::env::var("PIMECC_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

fn chaos_campaign() -> CampaignConfig {
    CampaignConfig {
        transient_rate: 0.4,
        burst_rate: 0.0,
        burst_len: 0,
        stuck_rate: 0.5,
        max_stuck: 16,
    }
}

/// SplitMix64 — derives the request mix from the campaign seed so one
/// `u64` pins an entire chaos round.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The 12 input bits of one partitioned `mul(6)` request.
fn mul6_inputs(x: u128, y: u128) -> Vec<bool> {
    let mut v = to_bits(x, 6);
    v.extend(to_bits(y, 6));
    v
}

/// One seeded chaos round against both front-ends: a random
/// [`FaultCampaign`] (transient flips + permanent stuck-at cells) strikes
/// shard 0 on every batch while a seed-derived xor/mux mix flows through,
/// followed in the same flush by a few partitioned `mul(6)` products
/// (several dependency levels of sub-program waves, host-routed cut
/// signals, retries and dead letters per sub-request). The invariant
/// under test is the cluster's contract: **every ticket either resolves
/// bit-exact against the fault-free reference (the `u128` product for
/// `mul(6)`) or surfaces an explicit retry-exhausted error, exactly once**
/// — never silently wrong outputs, never a vanished ticket.
fn chaos_round(seed: u64) {
    let (xor_nor, xor_nl) = xor_circuit();
    let (mux_nor, mux_nl) = mux_circuit();
    let mul_nor = mul(6).to_nor();
    let mut rng = SplitMix(seed);
    let nreq = 24 + (rng.next() % 72) as usize;
    let choices: Vec<(bool, u32)> = (0..nreq)
        .map(|_| {
            let r = rng.next();
            (r & 1 == 1, (r >> 1) as u32 % 8)
        })
        .collect();
    let products: Vec<(u128, u128)> = (0..4 + rng.next() % 5)
        .map(|_| {
            let r = rng.next();
            (u128::from(r & 63), u128::from(r >> 6 & 63))
        })
        .collect();
    let total = nreq + products.len();
    let expected = |is_mux: bool, v: u32| -> Vec<bool> {
        if is_mux {
            mux_nl.eval(&[v & 1 != 0, v & 2 != 0, v & 4 != 0])
        } else {
            xor_nl.eval(&[v & 1 != 0, v & 2 != 0])
        }
    };
    let build = |seed: u64| {
        let mut campaign = FaultCampaign::new(seed, chaos_campaign());
        PimClusterBuilder::new(2, 30, 3)
            .retire_after(2)
            .max_retries(2)
            .shard_fault_hook(0, move |pm| campaign.strike(pm))
    };

    // Sync front-end: one flush serves (or explicitly fails) everything.
    let mut cluster = build(seed).build().expect("builds");
    let px = cluster.compile(&xor_nor).expect("compiles");
    let pmx = cluster.compile(&mux_nor).expect("compiles");
    let tickets: Vec<_> = choices
        .iter()
        .map(|&(is_mux, v)| {
            let (p, w) = if is_mux { (&pmx, 3) } else { (&px, 2) };
            let inputs: Vec<bool> = (0..w).map(|b| v >> b & 1 != 0).collect();
            (cluster.submit(p, inputs).expect("submits"), is_mux, v)
        })
        .collect();
    let pm = cluster.compile_partitioned(&mul_nor).expect("partitions");
    let mul_tickets: Vec<_> = products
        .iter()
        .map(|&(x, y)| {
            let t = cluster
                .submit_partitioned(&pm, mul6_inputs(x, y))
                .expect("submits");
            (t, x, y)
        })
        .collect();
    let outcome = cluster.flush().expect("flushes");
    let failed: std::collections::HashSet<u64> =
        outcome.failed.iter().map(|f| f.ticket.id()).collect();
    assert_eq!(
        outcome.results.len() + failed.len(),
        total,
        "seed {seed:#x}: every ticket resolves exactly once — outputs or dead letter"
    );
    assert!(
        outcome
            .results
            .iter()
            .all(|r| !failed.contains(&r.ticket.id())),
        "seed {seed:#x}: a dead-lettered ticket also resolved with outputs"
    );
    for (t, x, y) in &mul_tickets {
        match outcome.outputs_for(*t) {
            Some(outs) => assert_eq!(
                outs,
                to_bits(x * y, 12).as_slice(),
                "seed {seed:#x}: partitioned ticket #{} resolved {x} * {y} wrong",
                t.id()
            ),
            None => assert!(
                failed.contains(&t.id()),
                "seed {seed:#x}: partitioned ticket #{} vanished without an explicit error",
                t.id()
            ),
        }
    }
    for (t, is_mux, v) in &tickets {
        match outcome.outputs_for(*t) {
            Some(outs) => assert_eq!(
                outs,
                expected(*is_mux, *v).as_slice(),
                "seed {seed:#x}: ticket #{} resolved with corrupt outputs",
                t.id()
            ),
            None => assert!(
                failed.contains(&t.id()),
                "seed {seed:#x}: ticket #{} vanished without an explicit error",
                t.id()
            ),
        }
    }
    // Per-shard accounting sums to the aggregate through retries,
    // suspect-line scrubs and partitioned levels.
    let reports = &outcome.shard_reports;
    assert_eq!(
        reports.iter().map(|r| r.busy_mem_cycles).sum::<u64>(),
        outcome.stats.mem_cycles,
        "seed {seed:#x}: shard busy cycles must sum to the aggregate"
    );
    assert_eq!(
        reports.iter().map(|r| r.gate_evals).sum::<u64>(),
        outcome.gate_evals,
        "seed {seed:#x}: shard gate evaluations must sum to the aggregate"
    );
    let mut input_check = CheckReport::default();
    for r in reports {
        input_check += r.input_check;
    }
    assert_eq!(
        input_check, outcome.input_check,
        "seed {seed:#x}: shard input checks must sum to the aggregate"
    );
    let health = cluster.health();
    assert_eq!(
        health.requests,
        outcome.results.len() as u64,
        "seed {seed:#x}"
    );
    assert_eq!(health.retries, outcome.retries, "seed {seed:#x}");
    assert_eq!(health.dead_letters, failed.len() as u64, "seed {seed:#x}");

    // Service front-end, same campaign replayed from the same seed: every
    // wait returns a verified answer or an explicit RequestFailed.
    let handle = build(seed).spawn().expect("spawns");
    let px = handle.compile(&xor_nor).expect("compiles");
    let pmx = handle.compile(&mux_nor).expect("compiles");
    let tickets: Vec<_> = choices
        .iter()
        .map(|&(is_mux, v)| {
            let (p, w) = if is_mux { (&pmx, 3) } else { (&px, 2) };
            let inputs: Vec<bool> = (0..w).map(|b| v >> b & 1 != 0).collect();
            (handle.submit(p, inputs).expect("submits"), is_mux, v)
        })
        .collect();
    let pm = handle.compile_partitioned(&mul_nor).expect("partitions");
    let mul_tickets: Vec<_> = products
        .iter()
        .map(|&(x, y)| {
            let t = handle
                .submit_partitioned(&pm, mul6_inputs(x, y))
                .expect("submits");
            (t, x, y)
        })
        .collect();
    let (mut served, mut dead) = (0u64, 0u64);
    for (t, is_mux, v) in &tickets {
        match t.wait() {
            Ok(r) => {
                assert_eq!(
                    r.outputs,
                    expected(*is_mux, *v),
                    "seed {seed:#x}: service ticket #{} resolved with corrupt outputs",
                    t.id()
                );
                served += 1;
            }
            Err(ClusterError::RequestFailed { .. }) => dead += 1,
            Err(e) => panic!("seed {seed:#x}: unexpected error: {e}"),
        }
    }
    for (t, x, y) in &mul_tickets {
        match t.wait() {
            Ok(r) => {
                assert_eq!(
                    r.outputs,
                    to_bits(x * y, 12),
                    "seed {seed:#x}: partitioned service ticket #{} resolved {x} * {y} wrong",
                    t.id()
                );
                served += 1;
            }
            Err(ClusterError::RequestFailed { .. }) => dead += 1,
            Err(e) => panic!("seed {seed:#x}: unexpected error: {e}"),
        }
        assert!(
            matches!(t.try_wait(), Err(ClusterError::TicketUnserved { .. })),
            "seed {seed:#x}: partitioned service ticket #{} resolved twice",
            t.id()
        );
    }
    let metrics = handle.metrics();
    assert_eq!(metrics.requests, served, "seed {seed:#x}: served requests");
    assert_eq!(metrics.dead_letters, dead, "seed {seed:#x}: dead letters");
    handle.close().expect("closes");
}

// Named regression pins: campaign seeds that previously exercised the
// full escalation ladder (suppression, retry, retirement, dead letters).
// Kept as plain tests so they run on every `cargo test`, independent of
// the proptest's random sampling.
#[test]
fn chaos_regression_seed_dac21() {
    chaos_round(0xDAC21);
}

#[test]
fn chaos_regression_seed_0ecc() {
    chaos_round(0x0ECC);
}

// Pins the check-before-load order: a device that loads a batch's inputs
// before pre-checking its lines lets the word-diff load fold this
// campaign's flips into the check bits, the pre-check then "corrects" a
// fresh input bit, and the partitioned product 61 * 48 comes back wrong.
#[test]
fn chaos_regression_partitioned_seed_2f() {
    chaos_round(0x2F);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]
    #[test]
    fn chaos_campaign_never_yields_a_silently_wrong_answer(seed in any::<u64>()) {
        chaos_round(seed);
    }
}

/// Maps a 3-shard pool with shard 1 quarantined onto the equivalent
/// 2-shard pool: active[0]=0 → 0, active[1]=2 → 1.
fn map_shard(shard: usize) -> usize {
    match shard {
        0 => 0,
        2 => 1,
        other => panic!("traffic landed on quarantined shard {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn quarantine_reroutes_bit_identically_to_the_smaller_pool(
        choices in proptest::collection::vec((any::<bool>(), 0u32..256), 1..50),
    ) {
        // A pool with a quarantined shard must plan exactly like a pool
        // built without that shard, modulo the index renaming — the
        // determinism guarantee that makes quarantine safe to engage
        // between flushes.
        let (xor_nor, _) = xor_circuit();
        let (mux_nor, _) = mux_circuit();

        let mut big = PimClusterBuilder::new(3, 30, 3).build().expect("builds");
        big.set_quarantined(1, true).expect("quarantines");
        let mut small = PimClusterBuilder::new(2, 30, 3).build().expect("builds");

        let bp = (
            big.compile(&xor_nor).expect("compiles"),
            big.compile(&mux_nor).expect("compiles"),
        );
        let sp = (
            small.compile(&xor_nor).expect("compiles"),
            small.compile(&mux_nor).expect("compiles"),
        );
        for &(is_mux, v) in &choices {
            let inputs: Vec<bool> = if is_mux {
                (0..3).map(|b| v >> b & 1 != 0).collect()
            } else {
                (0..2).map(|b| v >> b & 1 != 0).collect()
            };
            let (b, s) = if is_mux { (&bp.1, &sp.1) } else { (&bp.0, &sp.0) };
            let _ = big.submit(b, inputs.clone()).expect("submits");
            let _ = small.submit(s, inputs).expect("submits");
        }
        let big_out = big.flush().expect("flushes");
        let small_out = small.flush().expect("flushes");

        prop_assert_eq!(big_out.results.len(), small_out.results.len());
        prop_assert_eq!(big_out.waves, small_out.waves);
        let mut big_sorted = big_out.results;
        let mut small_sorted = small_out.results;
        big_sorted.sort_by_key(|r| r.ticket.id());
        small_sorted.sort_by_key(|r| r.ticket.id());
        for (b, s) in big_sorted.iter().zip(&small_sorted) {
            prop_assert_eq!(b.ticket.id(), s.ticket.id());
            prop_assert_eq!(map_shard(b.shard), s.shard);
            prop_assert_eq!(b.wave, s.wave);
            prop_assert_eq!(b.axis, s.axis);
            prop_assert_eq!(b.line, s.line);
            prop_assert_eq!(b.offset, s.offset);
            prop_assert_eq!(&b.outputs, &s.outputs);
        }
    }
}
