//! Cross-crate integration tests: circuits generated by `pimecc-netlist`,
//! mapped by `pimecc-simpler`, executed on `pimecc-xbar` crossbars inside
//! a `pimecc-core` protected memory — with faults injected and corrected
//! mid-computation — plus the cluster's model-clock claims on the mixed
//! int2float + adder8 workload: shard scaling, 2D packing, and engine
//! identity.

use pimecc::core::{BlockGeometry, ProtectedMemory};
use pimecc::netlist::generators::{ripple_adder, Benchmark};
use pimecc::netlist::NetlistBuilder;
use pimecc::prelude::*;
use pimecc::simpler::{map, map_auto, schedule_with_ecc, EccConfig, MapperConfig, Step};
use pimecc::xbar::LineSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs a mapped program inside a ProtectedMemory row (row 0), with the
/// ECC maintained on every step, and returns the outputs.
fn run_protected(
    pm: &mut ProtectedMemory,
    program: &pimecc::simpler::Program,
    inputs: &[bool],
) -> Vec<bool> {
    // Load inputs into row 0 (re-encodes the affected blocks).
    let n = pm.geometry().n();
    let mut grid = pimecc::xbar::BitGrid::new(n, n);
    for (i, &v) in inputs.iter().enumerate() {
        grid.set(0, i, v);
    }
    pm.load_grid(&grid);
    for step in &program.steps {
        match step {
            Step::Init { cells } => pm.exec_init_rows(cells, &LineSet::One(0)).expect("init"),
            Step::Gate { inputs, output, .. } => pm
                .exec_nor_rows(inputs, *output, &LineSet::One(0))
                .expect("gate"),
        }
    }
    program.output_cells.iter().map(|&c| pm.bit(0, c)).collect()
}

#[test]
fn mapped_circuit_runs_inside_protected_memory_with_consistent_ecc() {
    // A small circuit in a 30-cell row inside a 30x30 protected memory.
    let mut b = NetlistBuilder::new();
    let ins = b.inputs(4);
    let g1 = b.xor(ins[0], ins[1]);
    let g2 = b.and(g1, ins[2]);
    let g3 = b.or(g2, ins[3]);
    b.output(g3);
    b.output(g1);
    let netlist = b.finish();
    let nor = netlist.to_nor();
    let program = map(&nor, &MapperConfig { row_size: 30 }).expect("maps");

    let geom = BlockGeometry::new(30, 3).expect("geometry");
    let mut pm = ProtectedMemory::new(geom).expect("machine");
    for v in 0..16u32 {
        let inputs: Vec<bool> = (0..4).map(|i| v >> i & 1 != 0).collect();
        let got = run_protected(&mut pm, &program, &inputs);
        assert_eq!(got, netlist.eval(&inputs), "v={v}");
        assert!(
            pm.verify_consistency().is_ok(),
            "ECC must track the whole run"
        );
    }
}

#[test]
fn fault_on_input_before_execution_is_corrected_by_input_check() {
    // The paper's §IV flow: check ECC on inputs before executing.
    let mut b = NetlistBuilder::new();
    let x = b.input();
    let y = b.input();
    let g = b.nor(x, y);
    b.output(g);
    let netlist = b.finish();
    let program = map(&netlist.to_nor(), &MapperConfig { row_size: 9 }).expect("maps");

    let geom = BlockGeometry::new(9, 3).expect("geometry");
    for v in 0..4u32 {
        let inputs: Vec<bool> = (0..2).map(|i| v >> i & 1 != 0).collect();
        let mut pm = ProtectedMemory::new(geom).expect("machine");
        let n = geom.n();
        let mut grid = pimecc::xbar::BitGrid::new(n, n);
        for (i, &val) in inputs.iter().enumerate() {
            grid.set(0, i, val);
        }
        pm.load_grid(&grid);

        // Soft error hits input cell (0, 0) before execution...
        pm.inject_fault(0, 0);
        // ...the pre-execution check of the input block row repairs it.
        let report = pm.check_block_row(0).expect("check");
        assert_eq!(report.corrected, 1, "v={v}");

        for step in &program.steps {
            match step {
                Step::Init { cells } => pm.exec_init_rows(cells, &LineSet::One(0)).expect("init"),
                Step::Gate { inputs, output, .. } => pm
                    .exec_nor_rows(inputs, *output, &LineSet::One(0))
                    .expect("gate"),
            }
        }
        let got: Vec<bool> = program.output_cells.iter().map(|&c| pm.bit(0, c)).collect();
        assert_eq!(
            got,
            netlist.eval(&inputs),
            "v={v}: corrupted input must not propagate"
        );
    }
}

#[test]
fn skipping_the_input_check_lets_the_fault_corrupt_the_result() {
    // Negative control for the test above: without the check, the fault
    // propagates into the output for at least one input vector.
    let mut b = NetlistBuilder::new();
    let x = b.input();
    let y = b.input();
    let g = b.nor(x, y);
    b.output(g);
    let netlist = b.finish();
    let program = map(&netlist.to_nor(), &MapperConfig { row_size: 9 }).expect("maps");
    let geom = BlockGeometry::new(9, 3).expect("geometry");

    let mut corrupted_somewhere = false;
    for v in 0..4u32 {
        let inputs: Vec<bool> = (0..2).map(|i| v >> i & 1 != 0).collect();
        let mut pm = ProtectedMemory::new(geom).expect("machine");
        let n = geom.n();
        let mut grid = pimecc::xbar::BitGrid::new(n, n);
        for (i, &val) in inputs.iter().enumerate() {
            grid.set(0, i, val);
        }
        pm.load_grid(&grid);
        pm.inject_fault(0, 0);
        for step in &program.steps {
            match step {
                Step::Init { cells } => pm.exec_init_rows(cells, &LineSet::One(0)).expect("init"),
                Step::Gate { inputs, output, .. } => pm
                    .exec_nor_rows(inputs, *output, &LineSet::One(0))
                    .expect("gate"),
            }
        }
        let got: Vec<bool> = program.output_cells.iter().map(|&c| pm.bit(0, c)).collect();
        if got != netlist.eval(&inputs) {
            corrupted_somewhere = true;
        }
    }
    assert!(
        corrupted_somewhere,
        "an unchecked input fault must be able to corrupt results"
    );
}

#[test]
fn every_benchmark_end_to_end_through_the_full_stack() {
    // generate -> lower -> map -> execute on the crossbar -> compare with
    // the reference model. (The protected-memory variant is exercised
    // above on small circuits; here the full benchmark set goes through
    // the raw mapper executor.)
    let mut rng = StdRng::seed_from_u64(20210510);
    for b in Benchmark::ALL {
        let circuit = b.build();
        let nor = circuit.netlist.to_nor();
        let (program, _) = map_auto(&nor, 1020).expect("maps");
        let inputs: Vec<bool> = (0..nor.num_inputs()).map(|_| rng.gen()).collect();
        let got = program.execute(&inputs).expect("legal program");
        assert_eq!(got, (circuit.reference)(&inputs), "{b}");
    }
}

#[test]
fn full_device_batch_matches_the_reference_model_on_every_row() {
    // A real Table I benchmark served to a completely full device: one
    // request per row, every output checked against the software reference.
    let circuit = Benchmark::Int2float.build();
    let nor = circuit.netlist.to_nor();
    let mut device = PimDevice::new(255, 5).expect("device");
    let program = device.compile(&nor).expect("compiles");

    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let requests: Vec<Vec<bool>> = (0..255)
        .map(|_| (0..11).map(|_| rng.gen()).collect())
        .collect();
    let outcome = device.run_batch(&program, &requests).expect("runs");
    assert_eq!(outcome.requests(), 255);
    for (i, req) in requests.iter().enumerate() {
        assert_eq!(outcome.outputs[i], (circuit.reference)(req), "row {i}");
    }
    assert!(device.memory().verify_consistency().is_ok());
}

#[test]
fn batch_mem_cycles_grow_with_steps_not_steps_times_rows() {
    // The acceptance bar of the batched API: executing a k-deep batch must
    // cost less than twice the single-request cycle count (each program
    // step runs once for the whole batch), while the serial facade pays
    // ~k times the single-request cost.
    let circuit = Benchmark::Int2float.build();
    let nor = circuit.netlist.to_nor();
    let mut rng = StdRng::seed_from_u64(0xA3);
    let requests: Vec<Vec<bool>> = (0..64)
        .map(|_| (0..11).map(|_| rng.gen()).collect())
        .collect();

    let cycles_for = |k: usize| {
        let mut device = PimDevice::new(255, 5).expect("device");
        let program = device.compile(&nor).expect("compiles");
        let outcome = device.run_batch(&program, &requests[..k]).expect("runs");
        outcome.stats.mem_cycles
    };
    let one = cycles_for(1);
    let sixty_four = cycles_for(64);
    assert!(
        sixty_four < 2 * one,
        "64-deep batch must stay under 2x the single run: {sixty_four} vs {one}"
    );

    // Serial baseline: the same 64 requests as 64 one-row passes over
    // the device API's separated load / execute entry points.
    let serial = {
        let mut device = PimDevice::new(255, 5).expect("device");
        let program = map(&nor, &MapperConfig { row_size: 255 }).expect("maps");
        let compiled = device.adopt(&program);
        let before = device.stats().mem_cycles;
        for req in &requests {
            let _ = device
                .run_batch(&compiled, std::slice::from_ref(req))
                .expect("runs");
        }
        device.stats().mem_cycles - before
    };
    assert!(
        serial > 32 * one,
        "serial execution pays ~k times the single-run cycles: {serial} vs {one}"
    );
    assert!(
        sixty_four * 16 < serial,
        "batching wins by an order of magnitude"
    );
}

#[test]
fn fault_in_one_request_is_repaired_without_disturbing_neighbors() {
    // A soft error strikes one request's input after loading; the batch
    // pre-check repairs it and every neighbor computes as if nothing
    // happened.
    let mut b = NetlistBuilder::new();
    let ins = b.inputs(4);
    let g1 = b.xor(ins[0], ins[1]);
    let g2 = b.and(g1, ins[2]);
    let g3 = b.or(g2, ins[3]);
    b.output(g3);
    b.output(g1);
    let netlist = b.finish();
    let nor = netlist.to_nor();

    for victim_row in [0usize, 7, 29] {
        let mut device = PimDeviceBuilder::new(30, 3)
            .on_batch_loaded(move |pm| {
                pm.inject_fault(victim_row, 2);
            })
            .build()
            .expect("device");
        let program = device.compile(&nor).expect("compiles");
        let requests: Vec<Vec<bool>> = (0..30u32)
            .map(|v| (0..4).map(|i| v >> i & 1 != 0).collect())
            .collect();
        let outcome = device.run_batch(&program, &requests).expect("runs");
        assert_eq!(outcome.input_check.corrected, 1, "victim row {victim_row}");
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(
                outcome.outputs[i],
                netlist.eval(req),
                "victim row {victim_row}, request {i}"
            );
        }
        assert!(device.memory().verify_consistency().is_ok());
    }
}

#[test]
fn cluster_mixed_traffic_is_bit_identical_to_serial_run_batch() {
    // The acceptance bar of the cluster API: interleaved int2float and
    // adder submissions, flushed through the sharded scheduler, must
    // reproduce a serial PimDevice::run_batch of the same per-program
    // request streams bit for bit.
    let i2f = Benchmark::Int2float.build();
    let i2f_nor = i2f.netlist.to_nor();
    let adder = ripple_adder(8); // 16 inputs, 9 outputs
    let adder_nor = adder.to_nor();

    let mut cluster = PimCluster::new(3, 255, 5).expect("cluster");
    let pi = cluster.compile(&i2f_nor).expect("compiles");
    let pa = cluster.compile(&adder_nor).expect("compiles");

    let mut rng = StdRng::seed_from_u64(0xC1A5);
    let mut i2f_stream = Vec::new();
    let mut add_stream = Vec::new();
    let mut tickets = Vec::new();
    for k in 0..120 {
        if k % 2 == 0 {
            let req: Vec<bool> = (0..11).map(|_| rng.gen()).collect();
            tickets.push((
                cluster.submit(&pi, req.clone()).expect("submits"),
                true,
                i2f_stream.len(),
            ));
            i2f_stream.push(req);
        } else {
            let req: Vec<bool> = (0..16).map(|_| rng.gen()).collect();
            tickets.push((
                cluster.submit(&pa, req.clone()).expect("submits"),
                false,
                add_stream.len(),
            ));
            add_stream.push(req);
        }
    }
    let outcome = cluster.flush().expect("flushes");
    assert_eq!(outcome.requests(), 120);

    // The serial reference: one device per program, one run_batch each.
    let mut serial = PimDevice::new(255, 5).expect("device");
    let shared = serial.adopt_compiled(&pi);
    let i2f_serial = serial.run_batch(&shared, &i2f_stream).expect("runs");
    let mut serial = PimDevice::new(255, 5).expect("device");
    let shared = serial.adopt_compiled(&pa);
    let add_serial = serial.run_batch(&shared, &add_stream).expect("runs");

    for &(ticket, is_i2f, at) in &tickets {
        let got = outcome.outputs_for(ticket).expect("served");
        let want = if is_i2f {
            &i2f_serial.outputs[at]
        } else {
            &add_serial.outputs[at]
        };
        assert_eq!(got, want, "{ticket}");
    }
    for i in 0..cluster.shards() {
        assert!(cluster.shard(i).memory().verify_consistency().is_ok());
    }
}

#[test]
fn over_capacity_queue_flushes_in_multiple_waves() {
    // 150 requests against 2 shards x 30 rows, co-packing off: the
    // row-only scheduler needs ceil(150/60) = 3 waves, and every ticket
    // still gets its answer.
    let mut b = NetlistBuilder::new();
    let ins = b.inputs(4);
    let g1 = b.xor(ins[0], ins[1]);
    let g2 = b.and(g1, ins[2]);
    b.output(g2);
    b.output(g1);
    let netlist = b.finish();

    let mut cluster = PimClusterBuilder::new(2, 30, 3)
        .pack_limit(1)
        .build()
        .expect("cluster");
    let p = cluster.compile(&netlist.to_nor()).expect("compiles");
    let tickets: Vec<Ticket> = (0..150u32)
        .map(|v| {
            cluster
                .submit(&p, (0..4).map(|i| v >> i & 1 != 0).collect())
                .expect("submits")
        })
        .collect();
    let outcome = cluster.flush().expect("flushes");
    assert_eq!(outcome.requests(), 150);
    assert_eq!(outcome.waves, 3, "150 requests over 60 rows per wave");
    let served: u64 = outcome.shard_reports.iter().map(|r| r.requests).sum();
    assert_eq!(served, 150);
    for (v, ticket) in tickets.iter().enumerate() {
        let inputs: Vec<bool> = (0..4).map(|i| v as u32 >> i & 1 != 0).collect();
        assert_eq!(
            outcome.outputs_for(*ticket),
            Some(netlist.eval(&inputs).as_slice()),
            "{ticket}"
        );
    }
    // Waves execute one after the other: elapsed cycles exceed any single
    // shard's busiest stretch divided by the wave count.
    assert!(outcome.wall_mem_cycles > 0);
    assert!(outcome.stats.mem_cycles >= outcome.wall_mem_cycles);

    // The same overflow with the default 2D planner: co-packing absorbs
    // whole waves, the answers stay bit-identical, and the saved waves'
    // input loads and block-line checks show up as saved wall cycles.
    let mut packed = PimCluster::new(2, 30, 3).expect("cluster");
    let p2 = packed.compile(&netlist.to_nor()).expect("compiles");
    let tickets2: Vec<Ticket> = (0..150u32)
        .map(|v| {
            packed
                .submit(&p2, (0..4).map(|i| v >> i & 1 != 0).collect())
                .expect("submits")
        })
        .collect();
    let dense = packed.flush().expect("flushes");
    assert!(dense.waves < 3, "co-packing absorbs waves: {}", dense.waves);
    assert!(
        dense.wall_mem_cycles < outcome.wall_mem_cycles,
        "dense {} vs row-only {}",
        dense.wall_mem_cycles,
        outcome.wall_mem_cycles
    );
    assert!(dense.cell_utilization() > outcome.cell_utilization());
    for (t1, t2) in tickets.iter().zip(&tickets2) {
        assert_eq!(outcome.outputs_for(*t1), dense.outputs_for(*t2));
    }
}

/// The i-th int2float request of the deterministic mixed workload.
fn i2f_request(i: usize) -> Vec<bool> {
    let x = (i * 37) as u32 & 0x7FF;
    (0..11).map(|b| x >> b & 1 != 0).collect()
}

/// The i-th adder8 request of the deterministic mixed workload.
fn add_request(i: usize) -> Vec<bool> {
    let x = (i * 73) as u32 & 0xFFFF;
    (0..16).map(|b| x >> b & 1 != 0).collect()
}

#[test]
fn four_shards_at_least_double_mixed_gate_evals_per_mem_cycle() {
    // 510 int2float + 510 adder8 requests, interleaved as at a shared
    // service queue, on 1, 2 and 4 shards of 255×255/5 with full-width
    // mappings. More shards carry more batches per wave, so the same work
    // takes fewer elapsed MEM cycles.
    let i2f = Benchmark::Int2float.build();
    let i2f_nor = i2f.netlist.to_nor();
    let adder = ripple_adder(8);
    let adder_nor = adder.to_nor();
    let mut throughput = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut cluster = PimCluster::new(shards, 255, 5).expect("cluster");
        let pi = cluster.compile(&i2f_nor).expect("compiles");
        let pa = cluster.compile(&adder_nor).expect("compiles");
        let mut tickets = Vec::new();
        for i in 0..510 {
            tickets.push((
                cluster.submit(&pi, i2f_request(i)).expect("submits"),
                true,
                i,
            ));
            tickets.push((
                cluster.submit(&pa, add_request(i)).expect("submits"),
                false,
                i,
            ));
        }
        let outcome = cluster.flush().expect("flushes");
        for &(ticket, is_i2f, i) in &tickets {
            let want = if is_i2f {
                (i2f.reference)(&i2f_request(i))
            } else {
                adder.eval(&add_request(i))
            };
            assert_eq!(
                outcome.outputs_for(ticket),
                Some(want.as_slice()),
                "{ticket}"
            );
        }
        throughput.push(outcome.gate_evals_per_mem_cycle());
    }
    let ratio = throughput[2] / throughput[0];
    assert!(
        ratio >= 2.0,
        "4 shards must at least double aggregate gate-evals/MEM-cycle: {ratio:.2}x"
    );
}

/// One run of the packing comparison: the model-clock figures the
/// assertions compare, plus the densest adder8 line.
struct PackingRun {
    wall: u64,
    cell_utilization: f64,
    adder_max_per_line: usize,
}

/// Serves 1020 adder8 + 510 int2float requests, interleaved, on one
/// 255×255/5 shard, checking every output against the references.
fn packing_run(narrow_mappings: bool, two_dimensional: bool) -> PackingRun {
    let i2f = Benchmark::Int2float.build();
    let i2f_nor = i2f.netlist.to_nor();
    let adder = ripple_adder(8);
    let adder_nor = adder.to_nor();
    let mut builder = PimClusterBuilder::new(1, 255, 5);
    if !two_dimensional {
        builder = builder.pack_limit(1).axis_policy(AxisPolicy::Rows);
    }
    let mut cluster = builder.build().expect("cluster");
    let (pi, pa) = if narrow_mappings {
        (
            cluster.compile_packed(&i2f_nor).expect("compiles"),
            cluster.compile_packed(&adder_nor).expect("compiles"),
        )
    } else {
        (
            cluster.compile(&i2f_nor).expect("compiles"),
            cluster.compile(&adder_nor).expect("compiles"),
        )
    };
    let mut tickets = Vec::new();
    for i in 0..1020 {
        tickets.push((
            cluster.submit(&pa, add_request(i)).expect("submits"),
            false,
            i,
        ));
        if i < 510 {
            tickets.push((
                cluster.submit(&pi, i2f_request(i)).expect("submits"),
                true,
                i,
            ));
        }
    }
    let outcome = cluster.flush().expect("flushes");
    let mut adders = std::collections::HashSet::new();
    for &(ticket, is_i2f, i) in &tickets {
        let want = if is_i2f {
            (i2f.reference)(&i2f_request(i))
        } else {
            adders.insert(ticket);
            adder.eval(&add_request(i))
        };
        assert_eq!(
            outcome.outputs_for(ticket),
            Some(want.as_slice()),
            "{ticket}"
        );
    }
    let mut per_line = std::collections::HashMap::new();
    for r in outcome
        .results
        .iter()
        .filter(|r| adders.contains(&r.ticket))
    {
        *per_line.entry((r.wave, r.shard, r.line)).or_insert(0usize) += 1;
    }
    PackingRun {
        wall: outcome.wall_mem_cycles,
        cell_utilization: outcome.cell_utilization(),
        adder_max_per_line: per_line.values().copied().max().unwrap_or(0),
    }
}

#[test]
fn two_dimensional_packing_beats_row_only_placement() {
    // Three schedulers on the same traffic: full-width mappings one per
    // row, narrow `compile_packed` mappings still one per row, and the
    // default 2D planner co-packing the narrow mappings.
    let row_only = packing_run(false, false);
    let narrow = packing_run(true, false);
    let packed = packing_run(true, true);
    assert!(
        packed.adder_max_per_line >= 4,
        "the 2D planner must co-pack >= 4 adder8 requests per line: {}",
        packed.adder_max_per_line
    );
    assert!(
        packed.cell_utilization > narrow.cell_utilization,
        "cell utilization must improve over row-only placement of the same \
         programs: {:.3} vs {:.3}",
        packed.cell_utilization,
        narrow.cell_utilization
    );
    assert!(
        packed.wall < row_only.wall && packed.wall < narrow.wall,
        "wall MEM cycles must improve: {} vs {} / {}",
        packed.wall,
        row_only.wall,
        narrow.wall
    );
}

#[test]
fn engines_agree_on_the_packed_mixed_workload_past_a_word_boundary() {
    // The 2D-packed mixed workload (1020 adder8 + 510 int2float, one
    // 255×255/5 shard: four words per line, co-packing on both axes)
    // under each engine. Everything but host time must match, and a warm
    // cluster repeats its first flush's accounting.
    let i2f = Benchmark::Int2float.build();
    let i2f_nor = i2f.netlist.to_nor();
    let adder = ripple_adder(8);
    let adder_nor = adder.to_nor();
    let add_reqs: Vec<Vec<bool>> = (0..1020).map(add_request).collect();
    let i2f_reqs: Vec<Vec<bool>> = (0..510).map(i2f_request).collect();
    let outcomes: Vec<ClusterOutcome> = [SimEngine::ScalarReference, SimEngine::WordParallel]
        .into_iter()
        .map(|engine| {
            let mut cluster = PimClusterBuilder::new(1, 255, 5)
                .engine(engine)
                .build()
                .expect("cluster");
            let pa = cluster.compile_packed(&adder_nor).expect("compiles");
            let pi = cluster.compile_packed(&i2f_nor).expect("compiles");
            let mut run_once = || {
                let _ = cluster
                    .submit_batch(&pa, add_reqs.iter().cloned())
                    .expect("submits");
                let _ = cluster
                    .submit_batch(&pi, i2f_reqs.iter().cloned())
                    .expect("submits");
                cluster.flush().expect("flushes")
            };
            let first = run_once();
            for _ in 0..2 {
                assert_eq!(
                    run_once().stats,
                    first.stats,
                    "{engine:?}: warm flush diverged"
                );
            }
            first
        })
        .collect();
    let (scalar, word) = (&outcomes[0], &outcomes[1]);
    assert_eq!(
        scalar.results, word.results,
        "per-ticket outputs/placements"
    );
    assert_eq!(scalar.stats, word.stats);
    assert_eq!(scalar.input_check, word.input_check);
    assert_eq!(scalar.wall_mem_cycles, word.wall_mem_cycles);
    assert_eq!(scalar.waves, word.waves);
    for result in &scalar.results {
        let i = result.ticket.id() as usize;
        let want = if i < 1020 {
            adder.eval(&add_request(i))
        } else {
            (i2f.reference)(&i2f_request(i - 1020))
        };
        assert_eq!(result.outputs, want, "ticket #{i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_submission_orders_are_deterministic_given_a_seed(
        choices in proptest::collection::vec((any::<bool>(), 0u32..256), 1..60),
    ) {
        // Two identically configured clusters fed the same sampled
        // submission order must agree on *everything*: outputs, shard
        // placement, wave structure, both clocks. The scheduler may run
        // shards on threads, but no thread-completion order reaches the
        // outcome.
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(3);
        let g1 = b.xor(ins[0], ins[1]);
        let g2 = b.mux(ins[2], g1, ins[0]);
        b.output(g1);
        b.output(g2);
        let three_bit = b.finish();
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(2);
        let g = b.nor(ins[0], ins[1]);
        b.output(g);
        let two_bit = b.finish();

        let run = |choices: &[(bool, u32)]| {
            let mut cluster = PimClusterBuilder::new(2, 30, 3)
                .batch_limit(7)
                .build()
                .expect("cluster");
            let p3 = cluster.compile(&three_bit.to_nor()).expect("compiles");
            let p2 = cluster.compile(&two_bit.to_nor()).expect("compiles");
            let tickets: Vec<Ticket> = choices
                .iter()
                .map(|&(wide, v)| {
                    if wide {
                        let inputs = (0..3).map(|i| v >> i & 1 != 0).collect();
                        cluster.submit(&p3, inputs).expect("submits")
                    } else {
                        let inputs = (0..2).map(|i| v >> i & 1 != 0).collect();
                        cluster.submit(&p2, inputs).expect("submits")
                    }
                })
                .collect();
            (tickets, cluster.flush().expect("flushes"))
        };
        let (tickets_a, outcome_a) = run(&choices);
        let (tickets_b, outcome_b) = run(&choices);
        prop_assert_eq!(&tickets_a, &tickets_b);
        prop_assert_eq!(&outcome_a, &outcome_b);

        // And the deterministic results are the *right* results.
        for (&(wide, v), ticket) in choices.iter().zip(&tickets_a) {
            let want = if wide {
                three_bit.eval(&[v & 1 != 0, v & 2 != 0, v & 4 != 0])
            } else {
                two_bit.eval(&[v & 1 != 0, v & 2 != 0])
            };
            prop_assert_eq!(outcome_a.outputs_for(*ticket), Some(want.as_slice()));
        }
    }

    #[test]
    fn any_packed_or_column_axis_plan_is_bit_identical_to_the_reference(
        axis_cols in any::<bool>(),
        per_line_cap in 1usize..5,
        line_limit in 1usize..31,
        values in proptest::collection::vec(0u32..16, 1..90),
    ) {
        // Whatever 2D plan the packer produces — any axis, any density
        // cap, any line budget — executing it must reproduce the software
        // reference bit for bit for every request. The per-line load path
        // (scalar engine, paranoid checking) runs the same plan and must
        // agree with the word path.
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(4);
        let g1 = b.xor(ins[0], ins[1]);
        let g2 = b.and(g1, ins[2]);
        let g3 = b.or(g2, ins[3]);
        b.output(g3);
        b.output(g1);
        let netlist = b.finish();

        let mut device = PimDevice::new(30, 3).expect("device");
        let program = device.compile_packed(&netlist.to_nor()).expect("compiles");
        let requests: Vec<Vec<bool>> = values
            .iter()
            .map(|&v| (0..4).map(|i| v >> i & 1 != 0).collect())
            .collect();
        let axis = if axis_cols { Axis::Cols } else { Axis::Rows };
        match PlacementPlan::pack(
            axis, 30, program.footprint(), line_limit, per_line_cap, requests.len(),
        ) {
            Ok(plan) => {
                let outcome = device.run_plan(&program, &plan, &requests).expect("runs");
                for (i, req) in requests.iter().enumerate() {
                    prop_assert_eq!(
                        &outcome.outputs[i],
                        &netlist.eval(req),
                        "axis {} request {}", axis, i
                    );
                }
                prop_assert!(device.memory().verify_consistency().is_ok());

                let mut scalar = PimDeviceBuilder::new(30, 3)
                    .engine(SimEngine::ScalarReference)
                    .build()
                    .expect("device");
                let p = scalar.adopt_compiled(&program);
                let reference = scalar.run_plan(&p, &plan, &requests).expect("runs");
                prop_assert_eq!(&reference.outputs, &outcome.outputs, "scalar, axis {}", axis);
                prop_assert_eq!(reference.stats, outcome.stats, "scalar, axis {}", axis);
                prop_assert!(scalar.memory().verify_consistency().is_ok());

                let mut paranoid = PimDeviceBuilder::new(30, 3)
                    .check_policy(CheckPolicy::Paranoid)
                    .build()
                    .expect("device");
                let p = paranoid.adopt_compiled(&program);
                let checked = paranoid.run_plan(&p, &plan, &requests).expect("runs");
                prop_assert_eq!(&checked.outputs, &outcome.outputs, "paranoid, axis {}", axis);
                prop_assert!(paranoid.memory().verify_consistency().is_ok());
            }
            // The sampled traffic may exceed the sampled line budget.
            Err(DeviceError::BatchTooLarge { .. }) => {}
            Err(e) => panic!("unexpected pack error: {e}"),
        }
    }
}

#[test]
fn table1_overheads_have_the_papers_shape() {
    let cfg = EccConfig::default();
    let mut rows = std::collections::HashMap::new();
    for b in Benchmark::ALL {
        let nor = b.build().netlist.to_nor();
        let (program, _) = map_auto(&nor, 1020).expect("maps");
        let r = schedule_with_ecc(&program, &cfg);
        rows.insert(b.name(), r.overhead_pct());
    }
    // dec is the worst case by a wide margin (paper: 205.8% vs <51% rest).
    let dec = rows["dec"];
    for (name, &ovh) in &rows {
        if *name != "dec" {
            assert!(
                dec > 2.0 * ovh,
                "dec ({dec:.1}%) must dwarf {name} ({ovh:.1}%)"
            );
        }
    }
    // Output-sparse workloads are near-free (paper: sin 0.96%).
    assert!(rows["sin"] < 2.0, "sin: {:.2}%", rows["sin"]);
    assert!(rows["voter"] < 2.0, "voter: {:.2}%", rows["voter"]);
    // Geomean lands in the tens of percent, like the paper's 26.23%.
    let logsum: f64 = Benchmark::ALL
        .iter()
        .map(|b| (1.0 + rows[b.name()] / 100.0f64).ln())
        .sum();
    let geomean = ((logsum / 11.0).exp() - 1.0) * 100.0;
    assert!(
        geomean > 10.0 && geomean < 60.0,
        "geomean overhead {geomean:.1}% out of the paper's ballpark"
    );
}

#[test]
fn reliability_headlines_reproduce() {
    use pimecc::reliability::{ReliabilityModel, SoftErrorRate};
    let model = ReliabilityModel::paper().expect("model");
    // Abstract: "over eight orders of magnitude" at the Flash-like anchor.
    let gain = model.improvement(SoftErrorRate::flash_like());
    assert!(gain > 3e8, "{gain:.3e}");
    // §V-A text: factor over 3e8 specifically at 1e-3 FIT/bit.
    assert!(gain < 1e10, "sanity: {gain:.3e}");
}
