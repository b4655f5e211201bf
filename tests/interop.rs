//! Interop integration tests: BLIF round-trips through the mapper,
//! listing round-trips through the crossbar executor, the equivalence
//! checker guarding the whole transformation chain, and a fault-struck
//! device batch on a real benchmark.

use pimecc::cluster::PimCluster;
use pimecc::device::{PimDevice, PimDeviceBuilder};
use pimecc::netlist::blif::{parse_blif, write_blif};
use pimecc::netlist::equiv::{check_equivalence, Equivalence};
use pimecc::netlist::generators::{Benchmark, ExtraBenchmark};
use pimecc::simpler::{map, map_auto, parse_listing, write_listing, MapperConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn blif_export_import_then_map_and_execute() {
    // dec exported to BLIF, re-imported, mapped with SIMPLER, executed on
    // the crossbar simulator — the full external-tool interchange loop.
    let original = Benchmark::Dec.build();
    let text = write_blif(&original.netlist, "dec");
    let imported = parse_blif(&text).expect("re-imports");
    let verdict = check_equivalence(&original.netlist, &imported, 8, 0, 0);
    assert_eq!(
        verdict,
        Equivalence::Equivalent,
        "BLIF round trip is lossless"
    );

    let (program, _) = map_auto(&imported.to_nor(), 1020).expect("maps");
    for addr in [0usize, 1, 128, 255] {
        let inputs: Vec<bool> = (0..8).map(|i| addr >> i & 1 != 0).collect();
        let out = program.execute(&inputs).expect("legal program");
        assert_eq!(out, (original.reference)(&inputs), "addr {addr}");
    }
}

#[test]
fn listing_round_trip_for_every_benchmark() {
    let mut rng = StdRng::seed_from_u64(44);
    for b in Benchmark::ALL {
        let nor = b.build().netlist.to_nor();
        let (program, _) = map_auto(&nor, 1020).expect("maps");
        let text = write_listing(&program);
        let parsed = parse_listing(&text).unwrap_or_else(|e| panic!("{b}: {e}"));
        assert_eq!(parsed.steps.len(), program.steps.len(), "{b}");
        assert_eq!(parsed.critical_count(), program.critical_count(), "{b}");
        let inputs: Vec<bool> = (0..nor.num_inputs()).map(|_| rng.gen()).collect();
        assert_eq!(
            parsed.execute(&inputs).expect("legal"),
            program.execute(&inputs).expect("legal"),
            "{b}"
        );
    }
}

#[test]
fn equivalence_checker_guards_nor_lowering_of_extras() {
    for e in ExtraBenchmark::ALL {
        let c = e.build();
        // The NOR form evaluated through a rebuilt Netlist facade: compare
        // by direct sampling (NorNetlist has its own eval).
        let nor = c.netlist.to_nor();
        let mut rng = StdRng::seed_from_u64(e as u64 + 9);
        for _ in 0..5 {
            let inputs: Vec<bool> = (0..c.netlist.num_inputs()).map(|_| rng.gen()).collect();
            assert_eq!(nor.eval(&inputs), c.netlist.eval(&inputs), "{e}");
        }
    }
}

#[test]
fn load_execute_device_flow_runs_int2float_with_fault_recovery() {
    // A complete paper-flow run of a real Table I benchmark inside the
    // ECC-protected memory, including a pre-execution input repair: the
    // batch's fault hook strikes one input cell of row 0, and the
    // pre-check must repair it before the load and the replay.
    let circuit = Benchmark::Int2float.build();
    let nor = circuit.netlist.to_nor();
    let program = map(&nor, &MapperConfig { row_size: 255 }).expect("fits a 255-cell row");
    let strike = Arc::new(AtomicUsize::new(0));
    let col = Arc::clone(&strike);
    let mut device = PimDeviceBuilder::new(255, 5)
        .on_batch_loaded(move |pm| pm.inject_fault(0, col.load(Ordering::Relaxed)))
        .build()
        .expect("device");
    let compiled = device.adopt(&program);

    for x in [0u32, 1, 0b100_0000_0000, 0x7FF] {
        let inputs: Vec<bool> = (0..11).map(|i| x >> i & 1 != 0).collect();
        // Strike one input bit.
        strike.store((x as usize) % 11, Ordering::Relaxed);
        let out = device
            .run_batch(&compiled, std::slice::from_ref(&inputs))
            .expect("runs");
        assert_eq!(out.input_check.corrected, 1, "x={x}");
        assert_eq!(out.outputs[0], (circuit.reference)(&inputs), "x={x}");
        assert!(device.memory().verify_consistency().is_ok());
    }
}

#[test]
fn serial_one_row_passes_and_batch_agree_on_a_real_benchmark() {
    // A serial one-request-per-pass loop and the batched flow must
    // produce identical outputs for identical requests.
    let circuit = Benchmark::Int2float.build();
    let nor = circuit.netlist.to_nor();
    let program = map(&nor, &MapperConfig { row_size: 255 }).expect("fits a 255-cell row");

    let mut serial = PimDevice::new(255, 5).expect("device");
    let serial_compiled = serial.adopt(&program);
    let mut device = PimDevice::new(255, 5).expect("device");
    let compiled = device.adopt(&program);

    let requests: Vec<Vec<bool>> = [3u32, 77, 1024, 2047]
        .iter()
        .map(|&x| (0..11).map(|i| x >> i & 1 != 0).collect())
        .collect();
    let batch = device.run_batch(&compiled, &requests).expect("batch runs");
    for (i, req) in requests.iter().enumerate() {
        let one = serial
            .run_batch(&serial_compiled, std::slice::from_ref(req))
            .expect("serial runs");
        assert_eq!(one.outputs[0], batch.outputs[i], "request {i}");
        assert_eq!(one.outputs[0], (circuit.reference)(req), "request {i}");
    }
    assert!(device.memory().verify_consistency().is_ok());
    assert!(serial.memory().verify_consistency().is_ok());
}

#[test]
fn device_compile_caches_blif_imported_circuits() {
    // Import a circuit from BLIF text twice; the device recognizes the
    // structure and compiles once.
    let original = Benchmark::Dec.build();
    let text = write_blif(&original.netlist, "dec");
    let mut device = PimDevice::new(1020, 15).expect("device");
    let a = device
        .compile(&parse_blif(&text).expect("imports").to_nor())
        .expect("compiles");
    let b = device
        .compile(&parse_blif(&text).expect("imports").to_nor())
        .expect("compiles");
    assert_eq!(a.id(), b.id());
    assert_eq!(device.compiled_count(), 1);

    let requests: Vec<Vec<bool>> = (0..4u32)
        .map(|addr| (0..8).map(|i| addr >> i & 1 != 0).collect())
        .collect();
    let outcome = device.run_batch(&b, &requests).expect("runs");
    for (i, req) in requests.iter().enumerate() {
        assert_eq!(outcome.outputs[i], (original.reference)(req), "addr {i}");
    }
}

#[test]
fn cluster_serves_blif_imported_and_listing_adopted_programs_together() {
    // The cluster's compile cache recognizes a BLIF re-import
    // structurally, and a program round-tripped through the listing format
    // rides the same queue — the full interchange loop, sharded.
    let original = Benchmark::Dec.build();
    let text = write_blif(&original.netlist, "dec");
    let mut cluster = PimCluster::new(2, 1020, 15).expect("cluster");
    let a = cluster
        .compile(&parse_blif(&text).expect("imports").to_nor())
        .expect("compiles");
    let b = cluster
        .compile(&parse_blif(&text).expect("imports").to_nor())
        .expect("compiles");
    assert_eq!(a.id(), b.id(), "structural cache hit across imports");
    assert_eq!(cluster.compiled_count(), 1);

    let listing = write_listing(a.program());
    let reparsed = parse_listing(&listing).expect("round-trips");
    let c = cluster.adopt(&reparsed).expect("fits");

    let mut expect = Vec::new();
    for addr in 0..6u32 {
        let inputs: Vec<bool> = (0..8).map(|i| addr >> i & 1 != 0).collect();
        let program = if addr % 2 == 0 { &b } else { &c };
        let t = cluster.submit(program, inputs.clone()).expect("submits");
        expect.push((t, (original.reference)(&inputs)));
    }
    let outcome = cluster.flush().expect("flushes");
    for (t, want) in &expect {
        assert_eq!(outcome.outputs_for(*t), Some(want.as_slice()), "{t}");
    }
}

#[test]
fn memory_array_hosts_simd_computation_with_faults() {
    use pimecc::core::{BlockGeometry, MemoryArray};
    use pimecc::xbar::LineSet;
    let geom = BlockGeometry::new(30, 3).expect("geom");
    let mut array = MemoryArray::new(geom, 2).expect("array");

    // Crossbar 0 computes; crossbar 1 sits idle with a latent fault.
    array.inject_fault_at(30 * 30 + 17);
    let xb = array.crossbar_mut(0);
    xb.exec_init_rows(&[5], &LineSet::All).expect("init");
    xb.exec_nor_rows(&[0, 1], 5, &LineSet::All).expect("nor");

    let report = array.check_all().expect("check");
    assert_eq!(report.corrected, 1);
    assert!(array.verify_consistency().is_ok());
}

#[test]
fn energy_accounting_tracks_machine_activity() {
    use pimecc::core::{BlockGeometry, EnergyModel, ProtectedMemory};
    use pimecc::xbar::LineSet;
    let mut pm = ProtectedMemory::new(BlockGeometry::new(30, 3).expect("geom")).expect("pm");
    let model = EnergyModel::default();
    let before = model.of_stats(pm.stats(), 10).total_fj();
    pm.exec_init_rows(&[2], &LineSet::All).expect("init");
    pm.exec_nor_rows(&[0, 1], 2, &LineSet::All).expect("nor");
    let after = model.of_stats(pm.stats(), 10);
    assert!(after.total_fj() > before);
    assert!(
        after.ecc_fraction() > 0.5,
        "XOR3 energy dominates: {after:?}"
    );
}
