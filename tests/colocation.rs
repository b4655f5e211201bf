//! Property tests for pass-3 co-location and the heterogeneous router:
//! mixed-fingerprint waves must stay bit-identical to each program served
//! alone even on a degraded pool (a quarantined shard plus a retired
//! line), and scheduling must be a pure function of submission order on
//! a mixed-geometry pool. A seeded long-tail run over the whole circuit
//! zoo holds co-location to the row-only scheduler's answers and to the
//! two-program workload's cell utilization.

use pimecc::netlist::generators::{ripple_adder, zoo, Benchmark, Circuit};
use pimecc::netlist::{Netlist, NetlistBuilder};
use pimecc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The long-tail pool: two short shards and two taller ones, so narrow
/// programs spread over the whole pool and wide ones pin to the tall
/// shards.
fn longtail_pool() -> PimClusterBuilder {
    let geometries = vec![(120, 3), (120, 3), (240, 3), (480, 3)];
    PimClusterBuilder::new(4, 120, 3).shard_geometries(geometries)
}

/// 1500 requests over the 22-program zoo, Zipf(1.1)-ranked in zoo order:
/// `(program rank, input bits)`, from a fixed seed.
fn zipf_stream(circuits: &[Circuit]) -> Vec<(usize, Vec<bool>)> {
    let mut acc = 0u64;
    let cdf: Vec<u64> = (0..circuits.len())
        .map(|k| {
            acc += (1e9 / ((k + 1) as f64).powf(1.1)) as u64;
            acc
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x10_46_7A_11);
    (0..1500)
        .map(|_| {
            let x = rng.gen_range(0..acc);
            let rank = cdf.partition_point(|&c| c <= x);
            let width = circuits[rank].netlist.num_inputs();
            (rank, (0..width).map(|_| rng.gen()).collect())
        })
        .collect()
}

/// Serves the Zipf stream on the long-tail pool, checks that no ticket
/// fails and every output matches its circuit's reference, and returns
/// the outputs in submission order with the flush's cell utilization.
fn serve_longtail(
    circuits: &[Circuit],
    stream: &[(usize, Vec<bool>)],
    builder: PimClusterBuilder,
) -> (Vec<Vec<bool>>, f64) {
    let mut cluster = builder.build().expect("builds");
    let programs: Vec<CompiledProgram> = circuits
        .iter()
        .map(|c| {
            cluster
                .compile_packed(&c.netlist.to_nor())
                .expect("compiles")
        })
        .collect();
    let tickets: Vec<Ticket> = stream
        .iter()
        .map(|(rank, inputs)| {
            cluster
                .submit(&programs[*rank], inputs.clone())
                .expect("submits")
        })
        .collect();
    let outcome = cluster.flush().expect("flushes");
    assert!(outcome.failed.is_empty(), "no request may fail");
    let outputs = stream
        .iter()
        .zip(&tickets)
        .map(|((rank, inputs), t)| {
            let got = outcome.outputs_for(*t).expect("served");
            let want = (circuits[*rank].reference)(inputs);
            assert_eq!(got, want.as_slice(), "{}", circuits[*rank].name);
            got.to_vec()
        })
        .collect();
    (outputs, outcome.cell_utilization())
}

#[test]
fn longtail_zoo_traffic_colocates_bit_identically_to_row_only() {
    // The full scheduler (spread, densify, pass-3 co-location) against
    // the row-only one on the same Zipf stream, and its cell utilization
    // against the two-program mixed workload on the same pool and
    // request count.
    let circuits = zoo();
    let stream = zipf_stream(&circuits);
    let (colocated, longtail_util) = serve_longtail(&circuits, &stream, longtail_pool());
    let (row_only, _) = serve_longtail(
        &circuits,
        &stream,
        longtail_pool().pack_limit(1).axis_policy(AxisPolicy::Rows),
    );
    assert_eq!(
        colocated, row_only,
        "co-location must be bit-identical to the row-only run"
    );

    // The yardstick: every third request int2float, the rest adder8.
    let i2f = Benchmark::Int2float.build();
    let adder = ripple_adder(8);
    let mut cluster = longtail_pool().build().expect("builds");
    let pa = cluster.compile_packed(&adder.to_nor()).expect("compiles");
    let pi = cluster
        .compile_packed(&i2f.netlist.to_nor())
        .expect("compiles");
    let mut rng = StdRng::seed_from_u64(0x2A11);
    let mut tickets = Vec::new();
    for i in 0..1500 {
        let is_i2f = i % 3 == 2;
        let width = if is_i2f { 11 } else { 16 };
        let inputs: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
        let program = if is_i2f { &pi } else { &pa };
        let t = cluster.submit(program, inputs.clone()).expect("submits");
        tickets.push((t, is_i2f, inputs));
    }
    let mixed = cluster.flush().expect("flushes");
    for (t, is_i2f, inputs) in &tickets {
        let want = if *is_i2f {
            (i2f.reference)(inputs)
        } else {
            adder.eval(inputs)
        };
        assert_eq!(mixed.outputs_for(*t), Some(want.as_slice()), "{t}");
    }
    let ratio = longtail_util / mixed.cell_utilization();
    assert!(
        ratio >= 0.8,
        "long-tail cell utilization must hold >= 0.8x the two-program mixed \
         figure: {longtail_util:.3} vs {:.3} ({ratio:.2}x)",
        mixed.cell_utilization()
    );
}
