//! Property tests for pass-3 co-location and the heterogeneous router:
//! mixed-fingerprint waves must stay bit-identical to each program served
//! alone even on a degraded pool (a quarantined shard plus a retired
//! line), and scheduling must be a pure function of submission order on
//! a mixed-geometry pool.

use pimecc::netlist::{Netlist, NetlistBuilder};
use pimecc::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Builds the degraded three-shard pool the properties run on: shard 1
/// quarantined, shard 0 with one block-line already retired (a one-shot
/// transient double fault during a warm-up flush trips `retire_after(1)`),
/// shard 2 clean. Fully deterministic, so two identically-configured pools
/// are bit-identical twins.
fn degraded_pool() -> (PimCluster, CompiledProgram, CompiledProgram) {
    let (xor_nor, _) = xor_circuit();
    let (mux_nor, _) = mux_circuit();
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    let mut cluster = PimClusterBuilder::new(3, 30, 3)
        .retire_after(1)
        .shard_fault_hook(0, move |pm| {
            if flag.swap(false, Ordering::Relaxed) {
                pm.inject_fault(0, 0);
                pm.inject_fault(0, 1);
            }
        })
        .build()
        .expect("builds");
    cluster.set_quarantined(1, true).expect("quarantines");
    let xor = cluster.compile(&xor_nor).expect("compiles");
    let mux = cluster.compile(&mux_nor).expect("compiles");
    // Warm-up: a single-fingerprint flush lands on shard 0, trips the
    // armed fault, retries to correct outputs and retires the struck
    // block-line — the measured traffic then runs on a clean but degraded
    // pool.
    for v in 0..4u32 {
        let _ = cluster
            .submit(&xor, vec![v & 1 != 0, v & 2 != 0])
            .expect("submits");
    }
    let warmup = cluster.flush().expect("warm-up flushes");
    assert!(warmup.failed.is_empty(), "warm-up must fully resolve");
    assert!(
        cluster.health().shards[0].retired_lines >= 1,
        "the warm-up fault must retire a line"
    );
    (cluster, xor, mux)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Pass-3 co-location shares waves between foreign fingerprints; it
    // must never change a single answer. Every ticket of a mixed stream
    // on the degraded pool resolves to the same bits as when its program
    // is served alone (single-fingerprint traffic never co-locates) — and
    // re-running the mixed stream reproduces outputs, placements, stats
    // and check counts bit-identically.
    #[test]
    fn colocated_waves_match_the_serial_reference_on_a_degraded_pool(
        choices in proptest::collection::vec((any::<bool>(), 0u32..256), 1..50),
    ) {
        let (_, xor_nl) = xor_circuit();
        let (_, mux_nl) = mux_circuit();
        // Serves the choices `keep` admits; `None` for a choice it skips.
        let run = |keep: &dyn Fn(bool) -> bool| {
            let (mut cluster, xor, mux) = degraded_pool();
            let mut tickets = Vec::new();
            for &(is_mux, v) in &choices {
                let (program, inputs) = if is_mux {
                    (&mux, vec![v & 1 != 0, v & 2 != 0, v & 4 != 0])
                } else {
                    (&xor, vec![v & 1 != 0, v & 2 != 0])
                };
                tickets.push(
                    keep(is_mux).then(|| cluster.submit(program, inputs).expect("submits")),
                );
            }
            (tickets, cluster.flush().expect("flushes"))
        };
        let (tickets, colocated) = run(&|_| true);
        let (xor_tickets, xor_alone) = run(&|is_mux| !is_mux);
        let (mux_tickets, mux_alone) = run(&|is_mux| is_mux);
        let (again_tickets, again) = run(&|_| true);

        // Outputs: bit-identical to each program served alone *and* to
        // the host model, ticket by ticket.
        prop_assert_eq!(
            colocated.requests(),
            xor_alone.requests() + mux_alone.requests()
        );
        for (i, &(is_mux, v)) in choices.iter().enumerate() {
            let t = tickets[i].expect("every choice is submitted");
            let (alone, alone_ticket) = if is_mux {
                (&mux_alone, mux_tickets[i])
            } else {
                (&xor_alone, xor_tickets[i])
            };
            let alone_ticket = alone_ticket.expect("its own program is submitted");
            let want = if is_mux {
                mux_nl.eval(&[v & 1 != 0, v & 2 != 0, v & 4 != 0])
            } else {
                xor_nl.eval(&[v & 1 != 0, v & 2 != 0])
            };
            prop_assert_eq!(colocated.outputs_for(t), Some(want.as_slice()), "request {}", i);
            prop_assert_eq!(
                colocated.outputs_for(t),
                alone.outputs_for(alone_ticket),
                "request {}",
                i
            );
        }
        // Co-location never lands traffic on the quarantined shard.
        prop_assert!(colocated.results.iter().all(|r| r.shard != 1));

        // Determinism pin: the identically-configured rerun is
        // bit-identical — results (placements included), machine stats,
        // check counts, wave count.
        prop_assert_eq!(&again_tickets, &tickets);
        prop_assert_eq!(&again.results, &colocated.results);
        prop_assert_eq!(again.stats, colocated.stats);
        prop_assert_eq!(again.input_check, colocated.input_check);
        prop_assert_eq!(again.waves, colocated.waves);
        prop_assert_eq!(&again.shard_reports, &colocated.shard_reports);
    }

    // The mixed-geometry router: wide programs only fit the tall shard,
    // narrow traffic spreads over the short ones, and the whole schedule
    // is a pure function of submission order — a second identically-built
    // pool reproduces every placement and counter.
    #[test]
    fn heterogeneous_routing_is_deterministic(
        choices in proptest::collection::vec((any::<bool>(), 0u32..256), 1..50),
    ) {
        let (xor_nor, xor_nl) = xor_circuit();
        let run = || {
            let mut cluster = PimClusterBuilder::new(3, 30, 3)
                .shard_geometries(vec![(30, 3), (30, 3), (60, 3)])
                .build()
                .expect("builds");
            let narrow = cluster.compile(&xor_nor).expect("compiles");
            let mut donor = PimDevice::new(60, 3).expect("device");
            let wide = donor.compile(&xor_nor).expect("compiles");
            let wide = cluster.adopt(wide.program()).expect("adopts");
            let mut tickets = Vec::new();
            for &(use_wide, v) in &choices {
                let program = if use_wide { &wide } else { &narrow };
                let inputs = vec![v & 1 != 0, v & 2 != 0];
                tickets.push(cluster.submit(program, inputs).expect("submits"));
            }
            (tickets, cluster.flush().expect("flushes"))
        };
        let (tickets, first) = run();
        let (rerun_tickets, rerun) = run();

        prop_assert_eq!(first.requests(), choices.len());
        for (&(use_wide, v), t) in choices.iter().zip(&tickets) {
            let want = xor_nl.eval(&[v & 1 != 0, v & 2 != 0]);
            prop_assert_eq!(first.outputs_for(*t), Some(want.as_slice()));
            let r = first.results.iter().find(|r| r.ticket == *t).expect("served");
            if use_wide {
                prop_assert_eq!(r.shard, 2, "wide programs only fit the tall shard");
            } else {
                prop_assert!(r.shard < 2, "narrow traffic keeps the short shards");
            }
        }
        for (t, a) in tickets.iter().zip(&rerun_tickets) {
            prop_assert_eq!(t.id(), a.id());
        }
        prop_assert_eq!(&rerun.results, &first.results);
        prop_assert_eq!(rerun.stats, first.stats);
        prop_assert_eq!(rerun.input_check, first.input_check);
        prop_assert_eq!(rerun.waves, first.waves);
        prop_assert_eq!(&rerun.shard_reports, &first.shard_reports);
    }
}
