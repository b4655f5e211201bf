//! Host-side wall-clock throughput of the simulator itself: the PR-3 mixed
//! cluster workload (1020 adder8 + 510 int2float on one 255×255/5 shard,
//! 2D-packed) under both kernel lane configs ([`SimEngine`]: scalar
//! cell-at-a-time vs 64-bit-word × 4-row-lane kernels) — plus a
//! large-geometry run at the paper's n=1020, m=15 configuration that only
//! the word-parallel engine makes practical.
//!
//! The cost *model* is engine-independent: both points must produce
//! bit-identical outputs, placements, `MachineStats` and input-check
//! reports. Only requests/second differs; the run fails if the
//! word-parallel point is not at least 2× the scalar reference (the CI
//! floor; the committed reference run records the full figures).
//!
//! The steady-state points are measured on a *warm* cluster over batched
//! submissions ([`PimCluster::submit_batch`]), so the recorded figure is
//! the service throughput after arenas have warmed up — the regime the
//! zero-allocation work targets — not a cold-start number.
//!
//! Run with: `cargo run --release --example host_throughput`
//!
//! Writes both points to `BENCH_host.json`.

use pimecc::netlist::generators::{ripple_adder, Benchmark};
use pimecc::prelude::*;
use std::time::Instant;

const N: usize = 255;
const M: usize = 5;
const ADDER_REQUESTS: usize = 4 * N; // 1020 — four offset columns when co-packed
const I2F_REQUESTS: usize = 2 * N; // 510

/// The paper's Figure-6 geometry: only reachable in reasonable wall time
/// with the word-parallel engine.
const BIG_N: usize = 1020;
const BIG_M: usize = 15;

/// Timed repetitions per steady-state sweep point; the fastest run is the
/// recorded figure (the usual defense against scheduler noise on shared
/// CI machines) and the median rides along as the honesty check.
const TIMED_REPS: usize = 24;

/// Warm flushes before timing starts: arenas, plan caches and scratch
/// buffers all reach steady state.
const WARMUP_REPS: usize = 3;

fn i2f_request(i: usize) -> Vec<bool> {
    let x = (i * 37) as u32 & 0x7FF;
    (0..11).map(|b| x >> b & 1 != 0).collect()
}

fn add_request(i: usize) -> Vec<bool> {
    let x = (i * 73) as u32 & 0xFFFF;
    (0..16).map(|b| x >> b & 1 != 0).collect()
}

fn lane_label(engine: SimEngine) -> &'static str {
    match engine {
        SimEngine::WordParallel => "word64x4",
        SimEngine::ScalarReference => "scalar",
    }
}

/// One measured sweep point.
struct SweepPoint {
    engine: SimEngine,
    best_req_per_sec: f64,
    median_req_per_sec: f64,
    /// First-flush outcome, for the cross-config bit-identity assertions.
    outcome: ClusterOutcome,
}

/// Runs the mixed workload on a fresh cluster with the given engine:
/// one untimed first flush (captured for identity checks), warm-up
/// flushes, then `TIMED_REPS` timed submit_batch+flush cycles.
fn run_point(
    engine: SimEngine,
    adder_nor: &pimecc::netlist::NorNetlist,
    i2f_nor: &pimecc::netlist::NorNetlist,
    add_reqs: &[Vec<bool>],
    i2f_reqs: &[Vec<bool>],
) -> Result<SweepPoint, Box<dyn std::error::Error>> {
    let mut cluster = PimClusterBuilder::new(1, N, M).engine(engine).build()?;
    let pa = cluster.compile_packed(adder_nor)?;
    let pi = cluster.compile_packed(i2f_nor)?;

    let run_once = |cluster: &mut PimCluster| -> Result<ClusterOutcome, ClusterError> {
        let _ = cluster.submit_batch(&pa, add_reqs.iter().cloned())?;
        let _ = cluster.submit_batch(&pi, i2f_reqs.iter().cloned())?;
        cluster.flush()
    };

    // First flush on the fresh cluster: ticket ids 0.. are identical across
    // sweep points, so this outcome is directly comparable between configs.
    let outcome = run_once(&mut cluster)?;
    for _ in 1..WARMUP_REPS {
        let warm = run_once(&mut cluster)?;
        assert_eq!(warm.stats, outcome.stats, "warm-up rep diverged");
    }

    let requests = add_reqs.len() + i2f_reqs.len();
    let mut seconds: Vec<f64> = Vec::with_capacity(TIMED_REPS);
    for _ in 0..TIMED_REPS {
        let started = Instant::now();
        let timed = run_once(&mut cluster)?;
        seconds.push(started.elapsed().as_secs_f64());
        // Every repetition must be a deterministic replay of the first.
        assert_eq!(timed.stats, outcome.stats, "timed rep diverged");
        std::hint::black_box(&timed);
    }
    seconds.sort_by(f64::total_cmp);
    let best = seconds[0];
    let median = seconds[seconds.len() / 2];
    let point = SweepPoint {
        engine,
        best_req_per_sec: requests as f64 / best,
        median_req_per_sec: requests as f64 / median,
        outcome,
    };
    println!(
        "{:>9}: best {:>9.0} req/s  median {:>9.0} req/s  ({} reqs/flush, {} waves)",
        lane_label(engine),
        point.best_req_per_sec,
        point.median_req_per_sec,
        requests,
        point.outcome.waves,
    );
    Ok(point)
}

fn json_point(p: &SweepPoint) -> String {
    format!(
        concat!(
            "    {{\"lanes\": \"{}\", ",
            "\"best_req_per_sec\": {:.0}, \"median_req_per_sec\": {:.0}}}"
        ),
        lane_label(p.engine),
        p.best_req_per_sec,
        p.median_req_per_sec,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "host throughput: {ADDER_REQUESTS} x adder8 + {I2F_REQUESTS} x int2float, \
         one {N}x{N}/{M} shard, scalar vs word-parallel lanes\n"
    );
    let i2f = Benchmark::Int2float.build();
    let i2f_nor = i2f.netlist.to_nor();
    let adder = ripple_adder(8); // 16 inputs, 9 outputs
    let adder_nor = adder.to_nor();
    let add_reqs: Vec<Vec<bool>> = (0..ADDER_REQUESTS).map(add_request).collect();
    let i2f_reqs: Vec<Vec<bool>> = (0..I2F_REQUESTS).map(i2f_request).collect();

    let mut sweep: Vec<SweepPoint> = Vec::new();
    for engine in [SimEngine::ScalarReference, SimEngine::WordParallel] {
        sweep.push(run_point(
            engine, &adder_nor, &i2f_nor, &add_reqs, &i2f_reqs,
        )?);
    }

    // The word-parallel point must be indistinguishable from the scalar
    // reference in everything but wall time: same outputs and placements
    // per ticket, same machine accounting, same model clocks, same
    // input-check verdicts.
    let reference = &sweep[0].outcome;
    for point in &sweep[1..] {
        let label = lane_label(point.engine);
        assert_eq!(
            reference.results, point.outcome.results,
            "{label}: per-ticket outputs/placements diverged from the scalar reference"
        );
        assert_eq!(
            reference.stats, point.outcome.stats,
            "{label}: MachineStats diverged from the scalar reference"
        );
        assert_eq!(
            reference.input_check, point.outcome.input_check,
            "{label}: input-check reports diverged from the scalar reference"
        );
        assert_eq!(reference.wall_mem_cycles, point.outcome.wall_mem_cycles);
        assert_eq!(reference.waves, point.outcome.waves);
    }

    // And the reference itself against the software model.
    for result in &reference.results {
        let i = result.ticket.id() as usize;
        let want = if i < ADDER_REQUESTS {
            adder.eval(&add_request(i))
        } else {
            (i2f.reference)(&i2f_request(i - ADDER_REQUESTS))
        };
        assert_eq!(result.outputs, want, "reference output mismatch at {i}");
    }
    println!("\nword-parallel point bit-identical to the scalar reference");

    let scalar_best = sweep
        .iter()
        .filter(|p| p.engine == SimEngine::ScalarReference)
        .map(|p| p.best_req_per_sec)
        .fold(0.0, f64::max);
    let headline = sweep
        .iter()
        .filter(|p| p.engine == SimEngine::WordParallel)
        .max_by(|a, b| a.best_req_per_sec.total_cmp(&b.best_req_per_sec))
        .expect("word-parallel points exist");
    let speedup = headline.best_req_per_sec / scalar_best;
    println!(
        "best mixed-workload point: {:.0} req/s ({}), {speedup:.2}x the scalar reference",
        headline.best_req_per_sec,
        lane_label(headline.engine),
    );
    assert!(
        speedup >= 2.0,
        "word-parallel engine must be >= 2x the scalar reference, got {speedup:.2}x"
    );

    // Absolute floor: the parallel engine must beat 2x the PR-4
    // single-thread word-parallel baseline (773k req/s on the reference
    // CI host). Gated on the host width: a machine reporting a single
    // hardware thread only owes the relative floor above — its absolute
    // figure still lands in BENCH_host.json for the record.
    const PR4_BASELINE_REQ_PER_SEC: f64 = 773_000.0;
    let host_width = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_width >= 2 {
        assert!(
            headline.best_req_per_sec >= 2.0 * PR4_BASELINE_REQ_PER_SEC,
            "parallel engine must be >= 2x the PR-4 single-thread baseline \
             ({PR4_BASELINE_REQ_PER_SEC:.0} req/s) on a {host_width}-wide host, got {:.0}",
            headline.best_req_per_sec,
        );
    }

    // Large-geometry capability proof: the paper's n=1020, m=15 crossbar
    // serving a full co-packed mixed wave, word-parallel only.
    println!();
    let big_adders: Vec<Vec<bool>> = (0..BIG_N).map(add_request).collect();
    let big_i2fs: Vec<Vec<bool>> = (0..BIG_N / 2).map(i2f_request).collect();
    let mut big_cluster = PimClusterBuilder::new(1, BIG_N, BIG_M)
        .engine(SimEngine::WordParallel)
        .build()?;
    let big_pa = big_cluster.compile_packed(&adder_nor)?;
    let big_pi = big_cluster.compile_packed(&i2f_nor)?;
    let started = Instant::now();
    let _ = big_cluster.submit_batch(&big_pa, big_adders.iter().cloned())?;
    let _ = big_cluster.submit_batch(&big_pi, big_i2fs.iter().cloned())?;
    let big_outcome = big_cluster.flush()?;
    let big_seconds = started.elapsed().as_secs_f64();
    let big_requests = big_adders.len() + big_i2fs.len();
    let big_rps = big_requests as f64 / big_seconds;
    println!(
        "word-parallel {BIG_N}/{BIG_M}: {big_rps:.0} req/s ({big_seconds:.3} s for \
         {big_requests} requests, {} waves, {} wall MEM cycles)",
        big_outcome.waves, big_outcome.wall_mem_cycles,
    );

    let sweep_json: Vec<String> = sweep.iter().map(json_point).collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"host_throughput\",\n",
            "  \"geometry\": {{\"n\": {}, \"m\": {}, \"shards\": 1}},\n",
            "  \"traffic\": {{\"adder8\": {}, \"int2float\": {}}},\n",
            "  \"mixed_best_req_per_sec\": {:.0},\n",
            "  \"mixed_best_config\": {{\"lanes\": \"{}\"}},\n",
            "  \"speedup_wall_clock\": {:.3},\n",
            "  \"sweep\": [\n{}\n  ],\n",
            "  \"large_geometry\": {{\"n\": {}, \"m\": {}, \"adder8\": {}, \"int2float\": {}, ",
            "\"req_per_sec\": {:.0}, \"waves\": {}, \"wall_mem_cycles\": {}}}\n}}\n"
        ),
        N,
        M,
        ADDER_REQUESTS,
        I2F_REQUESTS,
        headline.best_req_per_sec,
        lane_label(headline.engine),
        speedup,
        sweep_json.join(",\n"),
        BIG_N,
        BIG_M,
        big_adders.len(),
        big_i2fs.len(),
        big_rps,
        big_outcome.waves,
        big_outcome.wall_mem_cycles,
    );
    std::fs::write("BENCH_host.json", &json)?;
    println!("\nwrote BENCH_host.json");
    Ok(())
}
