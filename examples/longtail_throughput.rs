//! Long-tail traffic: 22 distinct zoo programs under a Zipf request
//! distribution on a heterogeneous pool — the workload that cratered
//! utilization when every wave carried a single fingerprint.
//!
//! Three configurations serve the *same* request stream:
//!
//! * `colocated` — the full scheduler: spread, densify, then pass-3
//!   co-location of foreign fingerprints onto claimed shards as extra
//!   parts of their waves (merged input load, shared block-line checks).
//! * `row-only` — `pack_limit(1)` + row axis: one request per row.
//! * `mixed 2-program` — the same pool serving the classic two-program
//!   mixed workload (adder8 + int2float) at the same request count: the
//!   utilization yardstick the long tail is held against.
//!
//! Asserts every output bit-exact against the host references, the
//! co-located outputs bit-identical to the row-only run, and cell
//! utilization >= 0.8x the two-program figure.
//!
//! Run with: `cargo run --release --example longtail_throughput`
//!
//! Writes the comparison to `BENCH_longtail.json`.

use pimecc::netlist::generators::{zoo, Benchmark, Circuit};
use pimecc::netlist::NorNetlist;
use pimecc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Two short shards and two taller ones: narrow programs spread over the
/// whole pool, wide ones pin to the tall shards.
const GEOMETRIES: [(usize, usize); 4] = [(120, 3), (120, 3), (240, 3), (480, 3)];
const REQUESTS: usize = 1500;
const ZIPF_S: f64 = 1.1;

/// Integer-weight Zipf CDF over `n` ranks: weight of rank k is
/// proportional to 1/(k+1)^s.
fn zipf_cdf(n: usize, s: f64) -> Vec<u64> {
    let mut acc = 0u64;
    (0..n)
        .map(|k| {
            acc += (1e9 / ((k + 1) as f64).powf(s)) as u64;
            acc
        })
        .collect()
}

/// The fixed request stream: (program rank, input bits), Zipf-ranked in
/// zoo order, seeded — every configuration serves exactly this.
fn request_stream(circuits: &[Circuit]) -> Vec<(usize, Vec<bool>)> {
    let cdf = zipf_cdf(circuits.len(), ZIPF_S);
    let total = *cdf.last().expect("non-empty zoo");
    let mut rng = StdRng::seed_from_u64(0x10_46_7A_11);
    (0..REQUESTS)
        .map(|_| {
            let x = rng.gen_range(0..total);
            let rank = cdf.partition_point(|&c| c <= x);
            let width = circuits[rank].netlist.num_inputs();
            let inputs: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
            (rank, inputs)
        })
        .collect()
}

struct RunReport {
    label: &'static str,
    waves: usize,
    wall: u64,
    requests_per_sec: f64,
    cell_utilization: f64,
    packing_density: f64,
    outputs: Vec<Vec<bool>>,
}

fn builder() -> PimClusterBuilder {
    PimClusterBuilder::new(GEOMETRIES.len(), GEOMETRIES[0].0, GEOMETRIES[0].1)
        .shard_geometries(GEOMETRIES.to_vec())
}

fn run_longtail(
    label: &'static str,
    circuits: &[Circuit],
    nors: &[NorNetlist],
    stream: &[(usize, Vec<bool>)],
    configure: impl FnOnce(PimClusterBuilder) -> PimClusterBuilder,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let mut cluster = configure(builder()).build()?;
    let programs: Vec<CompiledProgram> = nors
        .iter()
        .map(|nor| cluster.compile_packed(nor))
        .collect::<Result<_, _>>()?;

    let started = Instant::now();
    let tickets: Vec<Ticket> = stream
        .iter()
        .map(|(rank, inputs)| cluster.submit(&programs[*rank], inputs.clone()))
        .collect::<Result<_, _>>()?;
    let outcome = cluster.flush()?;
    let elapsed = started.elapsed();

    assert!(outcome.failed.is_empty(), "{label}: no request may fail");
    let mut outputs = Vec::with_capacity(stream.len());
    for ((rank, inputs), ticket) in stream.iter().zip(&tickets) {
        let got = outcome.outputs_for(*ticket).expect("served");
        let want = (circuits[*rank].reference)(inputs);
        assert_eq!(got, want.as_slice(), "{label}: {}", circuits[*rank].name);
        outputs.push(got.to_vec());
    }

    let requests_per_sec = stream.len() as f64 / elapsed.as_secs_f64();
    println!(
        "{label:>16}: waves {:>3}  wall {:>7} MEM cycles  cell util {:>5.3}  \
         density {:>5.2}/line  {:>9.0} req/s",
        outcome.waves,
        outcome.wall_mem_cycles,
        outcome.cell_utilization(),
        outcome.packing_density(),
        requests_per_sec,
    );
    Ok(RunReport {
        label,
        waves: outcome.waves,
        wall: outcome.wall_mem_cycles,
        requests_per_sec,
        cell_utilization: outcome.cell_utilization(),
        packing_density: outcome.packing_density(),
        outputs,
    })
}

/// The two-program mixed yardstick on the same pool and request count.
fn run_mixed_reference() -> Result<RunReport, Box<dyn std::error::Error>> {
    let i2f = Benchmark::Int2float.build();
    let i2f_nor = i2f.netlist.to_nor();
    let adder_nl = pimecc::netlist::generators::ripple_adder(8);
    let adder_nor = adder_nl.to_nor();

    let mut cluster = builder().build()?;
    let pa = cluster.compile_packed(&adder_nor)?;
    let pi = cluster.compile_packed(&i2f_nor)?;
    let mut rng = StdRng::seed_from_u64(0x2A11);
    let started = Instant::now();
    let mut tickets = Vec::new();
    for i in 0..REQUESTS {
        if i % 3 == 2 {
            let inputs: Vec<bool> = (0..11).map(|_| rng.gen()).collect();
            tickets.push((cluster.submit(&pi, inputs.clone())?, true, inputs));
        } else {
            let inputs: Vec<bool> = (0..16).map(|_| rng.gen()).collect();
            tickets.push((cluster.submit(&pa, inputs.clone())?, false, inputs));
        }
    }
    let outcome = cluster.flush()?;
    let elapsed = started.elapsed();
    for (ticket, is_i2f, inputs) in &tickets {
        let got = outcome.outputs_for(*ticket).expect("served");
        let want = if *is_i2f {
            (i2f.reference)(inputs)
        } else {
            adder_nl.eval(inputs)
        };
        assert_eq!(got, want.as_slice(), "mixed reference: {ticket}");
    }
    let requests_per_sec = REQUESTS as f64 / elapsed.as_secs_f64();
    println!(
        "{:>16}: waves {:>3}  wall {:>7} MEM cycles  cell util {:>5.3}  \
         density {:>5.2}/line  {:>9.0} req/s",
        "mixed 2-program",
        outcome.waves,
        outcome.wall_mem_cycles,
        outcome.cell_utilization(),
        outcome.packing_density(),
        requests_per_sec,
    );
    Ok(RunReport {
        label: "mixed 2-program",
        waves: outcome.waves,
        wall: outcome.wall_mem_cycles,
        requests_per_sec,
        cell_utilization: outcome.cell_utilization(),
        packing_density: outcome.packing_density(),
        outputs: Vec::new(),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuits = zoo();
    let nors: Vec<NorNetlist> = circuits.iter().map(|c| c.netlist.to_nor()).collect();
    let stream = request_stream(&circuits);
    println!(
        "long tail: {REQUESTS} Zipf(s={ZIPF_S}) requests over {} programs, pool {:?}\n",
        circuits.len(),
        GEOMETRIES,
    );

    let colocated = run_longtail("colocated", &circuits, &nors, &stream, |b| b)?;
    let rowonly = run_longtail("row-only", &circuits, &nors, &stream, |b| {
        b.pack_limit(1).axis_policy(AxisPolicy::Rows)
    })?;
    let mixed = run_mixed_reference()?;

    assert_eq!(
        colocated.outputs, rowonly.outputs,
        "co-location must be bit-identical to the row-only run"
    );
    let utilization_ratio = colocated.cell_utilization / mixed.cell_utilization;
    assert!(
        utilization_ratio >= 0.8,
        "long-tail cell utilization must hold >= 0.8x the 2-program mixed \
         figure: {:.3} vs {:.3} ({utilization_ratio:.2}x)",
        colocated.cell_utilization,
        mixed.cell_utilization
    );
    println!("\nco-location: {utilization_ratio:.2}x the 2-program mixed utilization");

    let json_run = |r: &RunReport| {
        format!(
            concat!(
                "    {{\"config\": \"{}\", \"waves\": {}, \"wall_mem_cycles\": {}, ",
                "\"cell_utilization\": {:.4}, \"packing_density\": {:.3}, ",
                "\"requests_per_sec\": {:.0}}}"
            ),
            r.label, r.waves, r.wall, r.cell_utilization, r.packing_density, r.requests_per_sec,
        )
    };
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"longtail_throughput\",\n",
            "  \"programs\": {},\n  \"requests\": {},\n  \"zipf_s\": {},\n",
            "  \"geometries\": [{}],\n",
            "  \"cell_utilization_vs_mixed\": {:.3},\n",
            "  \"outputs_match_row_only\": true,\n",
            "  \"runs\": [\n{},\n{},\n{}\n  ]\n}}\n"
        ),
        circuits.len(),
        REQUESTS,
        ZIPF_S,
        GEOMETRIES
            .iter()
            .map(|(n, m)| format!("[{n}, {m}]"))
            .collect::<Vec<_>>()
            .join(", "),
        utilization_ratio,
        json_run(&colocated),
        json_run(&rowonly),
        json_run(&mixed),
    );
    std::fs::write("BENCH_longtail.json", &json)?;
    println!("wrote BENCH_longtail.json");
    Ok(())
}
