//! Integration tests for the partition-and-route compiler: circuits too
//! wide for one shard line, split into a DAG of line-sized sub-programs
//! and served as dependency-ordered waves — through both the synchronous
//! [`PimCluster`] and the spawned [`ClusterHandle`] — with the outputs
//! pinned bit-identical to the word-level software reference.

use pimecc::netlist::generators::{from_bits, mul, mul16, to_bits};
use pimecc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The flagship oversized workload: 16×16 → 32-bit product.
fn mul16_nor() -> pimecc::netlist::NorNetlist {
    mul16().netlist.to_nor()
}

fn mul16_reference(x: u64, y: u64) -> Vec<bool> {
    to_bits(u128::from(x) * u128::from(y), 32)
}

fn mul16_inputs(x: u64, y: u64) -> Vec<bool> {
    let mut v = to_bits(u128::from(x), 16);
    v.extend(to_bits(u128::from(y), 16));
    v
}

/// Deterministic operand pairs: corners first, then seeded random.
fn operand_pairs(count: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut pairs = vec![
        (0, 0),
        (0, 0xFFFF),
        (0xFFFF, 0xFFFF),
        (1, 0x1234),
        (0x8000, 2),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    while pairs.len() < count {
        pairs.push((rng.gen::<u64>() & 0xFFFF, rng.gen::<u64>() & 0xFFFF));
    }
    pairs.truncate(count);
    pairs
}

#[test]
fn mul16_exceeds_one_line_and_the_error_points_at_the_partitioned_api() {
    let nor = mul16_nor();
    let mut cluster = PimCluster::new(1, 30, 3).expect("cluster");
    // The single-line compilers cannot serve it at the default geometry…
    assert!(matches!(cluster.compile(&nor), Err(ClusterError::Map(_))));
    assert!(matches!(
        cluster.compile_packed(&nor),
        Err(ClusterError::Map(_))
    ));
    // …and the cluster-level width error names the way out.
    let err = ClusterError::ProgramTooWide {
        row_size: 64,
        n: 30,
    };
    let msg = err.to_string();
    assert!(msg.contains("compile_partitioned"), "{msg}");
    // The device-level twin reports the *post-remap footprint* — the
    // number that actually decides whether a request fits — and points at
    // the partitioned-compile API too.
    let msg = pimecc::device::DeviceError::ProgramTooWide {
        row_size: 64,
        footprint: 40,
        n: 30,
    }
    .to_string();
    assert!(msg.contains("footprint 40"), "{msg}");
    assert!(msg.contains("submit_partitioned"), "{msg}");
}

#[test]
fn mul16_partitioned_matches_the_word_reference_on_the_sync_cluster() {
    let nor = mul16_nor();
    let mut cluster = PimClusterBuilder::new(4, 60, 5).build().expect("cluster");
    let program = cluster.compile_partitioned(&nor).expect("partitions");
    assert!(program.num_parts() > 1, "mul16 must actually split");
    assert!(
        program.num_levels() > 1,
        "mul16 has cross-part dependencies"
    );
    assert!(program.cut_signals() > 0);
    assert!(program.max_row_size() <= cluster.shard_capacity());

    let pairs = operand_pairs(500, 0x5EED_0001);
    let tickets: Vec<Ticket> = pairs
        .iter()
        .map(|&(x, y)| {
            cluster
                .submit_partitioned(&program, mul16_inputs(x, y))
                .expect("submits")
        })
        .collect();
    let outcome = cluster.flush().expect("flushes");
    assert_eq!(outcome.requests(), pairs.len());
    for (t, &(x, y)) in tickets.iter().zip(&pairs) {
        assert_eq!(
            outcome.outputs_for(*t),
            Some(mul16_reference(x, y).as_slice()),
            "{x} * {y}"
        );
    }
    // Every sub-program wave ran the diagonal-ECC pre-execution check.
    assert!(outcome.input_check.checked > 0, "ECC pre-checks ran");
    assert_eq!(outcome.input_check.uncorrectable, 0);
    // The dependency chain needs at least one wave per level.
    assert!(outcome.waves >= program.num_levels());
}

#[test]
fn mul16_partitioned_matches_the_word_reference_on_the_service() {
    let nor = mul16_nor();
    let handle = PimClusterBuilder::new(4, 60, 5).spawn().expect("spawns");
    let program = handle.compile_partitioned(&nor).expect("partitions");
    let pairs = operand_pairs(500, 0x5EED_0002);
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(x, y)| {
            handle
                .submit_partitioned(&program, mul16_inputs(x, y))
                .expect("submits")
        })
        .collect();
    handle.flush().expect("flushes");
    for (t, &(x, y)) in tickets.into_iter().zip(&pairs) {
        let r = t.wait().expect("served");
        assert_eq!(r.outputs, mul16_reference(x, y), "{x} * {y}");
        assert_eq!(from_bits(&r.outputs), u128::from(x) * u128::from(y));
    }
    handle.close().expect("closes");
}

#[test]
fn partitioned_and_ordinary_traffic_share_one_flush() {
    // A small multiplier that *needs* partitioning at the default
    // geometry, mixed with ordinary single-line traffic: one flush, one
    // outcome, tickets interleaved.
    let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
    let wide = mul(6).to_nor();
    let narrow = mul(2).to_nor();
    let big = cluster.compile_partitioned(&wide).expect("partitions");
    let small = cluster.compile_packed(&narrow).expect("compiles");
    let t0 = cluster
        .submit_partitioned(&big, mul_inputs(6, 7, 9))
        .expect("submits");
    let t1 = cluster
        .submit(&small, mul_inputs(2, 3, 2))
        .expect("submits");
    let t2 = cluster
        .submit_partitioned(&big, mul_inputs(6, 63, 63))
        .expect("submits");
    let outcome = cluster.flush().expect("flushes");
    assert_eq!(outcome.requests(), 3);
    assert_eq!(outcome.outputs_for(t0), Some(to_bits(63, 12).as_slice()));
    assert_eq!(outcome.outputs_for(t1), Some(to_bits(6, 4).as_slice()));
    assert_eq!(
        outcome.outputs_for(t2),
        Some(to_bits(63 * 63, 12).as_slice())
    );
    assert_eq!(cluster.pending(), 0);
}

#[test]
fn merged_results_keep_the_latency_contract_across_sub_program_retries() {
    // One double-bit strike on shard 0 before its first wave: the
    // sub-requests on the struck block-line are suppressed and retried,
    // so some requests need a second attempt of one sub-program. The
    // merged result must still read like any other ticket's: one latency
    // entry per attempt, summed over the request's sub-programs, and an
    // execute latency that is their total.
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    let mut cluster = PimClusterBuilder::new(2, 30, 3)
        .shard_fault_hook(0, move |pm| {
            if flag.swap(false, Ordering::Relaxed) {
                pm.inject_fault(0, 0);
                pm.inject_fault(0, 1);
            }
        })
        .build()
        .expect("cluster");
    let program = cluster
        .compile_partitioned(&mul(6).to_nor())
        .expect("partitions");
    let pairs: Vec<(u128, u128)> = (0..8u128)
        .map(|i| (i * 9 % 64, (i * 23 + 5) % 64))
        .collect();
    let tickets: Vec<Ticket> = pairs
        .iter()
        .map(|&(x, y)| {
            cluster
                .submit_partitioned(&program, mul_inputs(6, x, y))
                .expect("submits")
        })
        .collect();
    let outcome = cluster.flush().expect("flushes");

    assert!(
        outcome.failed.is_empty(),
        "one strike fits the retry budget"
    );
    assert!(outcome.retries >= 1, "the strike must force a retry");
    assert_eq!(outcome.requests(), pairs.len());
    let mut retried = 0;
    for (t, &(x, y)) in tickets.iter().zip(&pairs) {
        let r = outcome
            .results
            .iter()
            .find(|r| r.ticket == *t)
            .expect("served");
        assert_eq!(r.outputs, to_bits(x * y, 12), "{x} * {y}");
        assert_eq!(
            r.attempt_latencies.len(),
            r.attempts as usize,
            "one latency entry per attempt ({t})"
        );
        assert_eq!(
            r.execute_latency,
            r.attempt_latencies.iter().sum::<Duration>(),
            "execute latency is the total over attempts and sub-programs ({t})"
        );
        if r.attempts > 1 {
            retried += 1;
        }
    }
    assert!(retried >= 1, "some request must have retried a sub-program");
}

fn mul_inputs(width: usize, x: u128, y: u128) -> Vec<bool> {
    let mut v = to_bits(x, width);
    v.extend(to_bits(y, width));
    v
}

#[test]
fn partitioned_submission_is_validated_on_entry() {
    let mut cluster = PimCluster::new(1, 30, 3).expect("cluster");
    let program = cluster
        .compile_partitioned(&mul(6).to_nor())
        .expect("partitions");
    assert_eq!(
        cluster
            .submit_partitioned(&program, vec![true; 3])
            .unwrap_err(),
        ClusterError::InputArity { got: 3, want: 12 }
    );
    // A program partitioned for wider shards is rejected by a narrower
    // cluster, with the width that matters (the widest sub-program).
    let mut wide_cluster = PimCluster::new(1, 60, 5).expect("cluster");
    let wide = wide_cluster
        .compile_partitioned(&mul16_nor())
        .expect("partitions");
    if wide.max_row_size() > 30 {
        assert_eq!(
            cluster
                .submit_partitioned(&wide, vec![false; 32])
                .unwrap_err(),
            ClusterError::ProgramTooWide {
                row_size: wide.max_row_size(),
                n: 30
            }
        );
    }
}

#[test]
fn dependency_wave_scheduling_is_deterministic() {
    // Two identical runs — fresh cluster each time, same submission
    // order — must produce *identical* placements, wave counts and
    // results (TicketResult equality ignores wall-clock latencies).
    let nor = mul16_nor();
    let run = || {
        let mut cluster = PimClusterBuilder::new(4, 60, 5).build().expect("cluster");
        let program = cluster.compile_partitioned(&nor).expect("partitions");
        for &(x, y) in &operand_pairs(40, 0xDE7) {
            let _ = cluster
                .submit_partitioned(&program, mul16_inputs(x, y))
                .expect("submits");
        }
        cluster.flush().expect("flushes")
    };
    let a = run();
    let b = run();
    assert_eq!(a.waves, b.waves);
    assert_eq!(a.results, b.results);
}

#[test]
fn concurrent_producers_cannot_perturb_partitioned_outputs() {
    // Four producer threads race for queue positions; whatever order the
    // channel serializes them into, every ticket's outputs must match the
    // reference — the dependency-wave scheduler may not leak one
    // request's cut signals into another's.
    let nor = mul16_nor();
    let handle = PimClusterBuilder::new(4, 60, 5)
        .auto_flush_at(16)
        .spawn()
        .expect("spawns");
    let program = handle.compile_partitioned(&nor).expect("partitions");
    let mut joins = Vec::new();
    for p in 0..4u64 {
        let handle = handle.clone();
        let program = Arc::clone(&program);
        joins.push(std::thread::spawn(move || {
            let pairs = operand_pairs(32, 0xC0FE + p);
            let tickets: Vec<_> = pairs
                .iter()
                .map(|&(x, y)| {
                    handle
                        .submit_partitioned(&program, mul16_inputs(x, y))
                        .expect("submits")
                })
                .collect();
            handle.flush().expect("flushes");
            for (t, (x, y)) in tickets.into_iter().zip(pairs) {
                let r = t.wait().expect("served");
                assert_eq!(r.outputs, mul16_reference(x, y), "{x} * {y}");
            }
        }));
    }
    for j in joins {
        j.join().expect("producer thread");
    }
    handle.close().expect("closes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random operands through the partitioned path at the *default*
    // geometry equal the word-level reference, for a width that needs
    // several levels of sub-programs.
    #[test]
    fn partitioned_mul_matches_reference(x in 0u64..256, y in 0u64..256) {
        let (x, y) = (u128::from(x), u128::from(y));
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        let program = cluster
            .compile_partitioned(&mul(8).to_nor())
            .expect("partitions");
        prop_assert!(program.num_parts() > 1);
        let t = cluster
            .submit_partitioned(&program, mul_inputs(8, x, y))
            .expect("submits");
        let outcome = cluster.flush().expect("flushes");
        prop_assert_eq!(
            outcome.outputs_for(t),
            Some(to_bits(x * y, 16).as_slice())
        );
    }
}
