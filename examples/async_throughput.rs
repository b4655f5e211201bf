//! Host-side throughput of the async cluster service versus the
//! synchronous flush loop, on the PR-3 mixed workload (1020 adder8 + 510
//! int2float on one 255×255/5 shard, 2D-packed).
//!
//! The synchronous baseline models a latency-conscious caller: it flushes
//! every `FLUSH_EVERY` submissions, so no request waits behind the whole
//! stream — and the caller's thread blocks through every one of those
//! flushes. The service runs the same traffic through
//! `PimClusterBuilder::spawn()`: submission never blocks on execution,
//! and the worker batches in the background under a max-latency deadline
//! (`flush_after`) — while it executes one flush, the next submissions
//! pile up into a bigger, better-amortized batch. Same model work, same
//! outputs, fewer and larger waves, and the producer overlaps with
//! execution.
//!
//! Both modes verify every output against the software reference and
//! against each other (ticket ids are dense submission order in both),
//! and the run fails if the service needs more waves than the sync loop.
//! The wall-clock speedup is recorded, not asserted: each mode runs for
//! about 2 ms, so one timing is noisier than the effect (the `perfbench`
//! `service_faults` workload measures the service against a bound). The
//! committed reference run records the full figure.
//!
//! Run with: `cargo run --release --example async_throughput`
//!
//! Writes the comparison to `BENCH_async.json`.

use pimecc::netlist::generators::{ripple_adder, Benchmark};
use pimecc::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const N: usize = 255;
const M: usize = 5;
const ADDER_REQUESTS: usize = 4 * N; // 1020
const I2F_REQUESTS: usize = 2 * N; // 510
const REQUESTS: usize = ADDER_REQUESTS + I2F_REQUESTS;

/// The sync caller's latency budget, expressed as a flush interval.
const FLUSH_EVERY: usize = 64;
/// The service's max-latency deadline.
const FLUSH_AFTER: Duration = Duration::from_micros(500);

/// Timed repetitions per mode; the fastest run is recorded.
const TIMED_REPS: usize = 3;

fn i2f_request(i: usize) -> Vec<bool> {
    let x = (i * 37) as u32 & 0x7FF;
    (0..11).map(|b| x >> b & 1 != 0).collect()
}

fn add_request(i: usize) -> Vec<bool> {
    let x = (i * 73) as u32 & 0xFFFF;
    (0..16).map(|b| x >> b & 1 != 0).collect()
}

/// The interleaved submission stream: `(is_i2f, request index)` per
/// submission, identical for both modes.
fn stream() -> Vec<(bool, usize)> {
    let mut order = Vec::with_capacity(REQUESTS);
    for i in 0..ADDER_REQUESTS.max(I2F_REQUESTS) {
        if i < ADDER_REQUESTS {
            order.push((false, i));
        }
        if i < I2F_REQUESTS {
            order.push((true, i));
        }
    }
    order
}

struct RunReport {
    label: String,
    seconds: f64,
    requests_per_sec: f64,
    flushes: usize,
    waves: usize,
    /// Outputs by submission index (= ticket id in both modes).
    outputs: HashMap<u64, Vec<bool>>,
    mean_queue_latency_us: f64,
    mean_execute_latency_us: f64,
}

fn print_report(r: &RunReport) {
    println!(
        "{:>14}: {:>9.1} req/s  ({:.3} s, {} flushes, {} waves, \
         mean queue {:.0} us, mean execute {:.0} us)",
        r.label,
        r.requests_per_sec,
        r.seconds,
        r.flushes,
        r.waves,
        r.mean_queue_latency_us,
        r.mean_execute_latency_us,
    );
}

fn latency_means(results: &[TicketResult]) -> (f64, f64) {
    let n = results.len().max(1) as f64;
    let queue: f64 = results
        .iter()
        .map(|r| r.queue_latency.as_secs_f64() * 1e6)
        .sum();
    let execute: f64 = results
        .iter()
        .map(|r| r.execute_latency.as_secs_f64() * 1e6)
        .sum();
    (queue / n, execute / n)
}

/// The synchronous flush loop: submit, and block on a flush every
/// `FLUSH_EVERY` submissions.
fn run_sync() -> Result<RunReport, Box<dyn std::error::Error>> {
    let i2f_nor = Benchmark::Int2float.build().netlist.to_nor();
    let adder_nor = ripple_adder(8).to_nor();
    let order = stream();

    let mut best: Option<RunReport> = None;
    for _ in 0..TIMED_REPS {
        let mut cluster = PimClusterBuilder::new(1, N, M).build()?;
        let pi = cluster.compile_packed(&i2f_nor)?;
        let pa = cluster.compile_packed(&adder_nor)?;
        let started = Instant::now();
        let mut outputs: HashMap<u64, Vec<bool>> = HashMap::with_capacity(REQUESTS);
        let mut results: Vec<TicketResult> = Vec::with_capacity(REQUESTS);
        let mut flushes = 0;
        let mut waves = 0;
        let mut since_flush = 0;
        for &(is_i2f, i) in &order {
            let program = if is_i2f { &pi } else { &pa };
            let inputs = if is_i2f {
                i2f_request(i)
            } else {
                add_request(i)
            };
            let _ticket = cluster.submit(program, inputs)?;
            since_flush += 1;
            if since_flush == FLUSH_EVERY {
                let outcome = cluster.flush()?;
                flushes += 1;
                waves += outcome.waves;
                for r in outcome.results {
                    outputs.insert(r.ticket.id(), r.outputs.to_vec());
                    results.push(r);
                }
                since_flush = 0;
            }
        }
        let outcome = cluster.flush()?;
        flushes += 1;
        waves += outcome.waves;
        for r in outcome.results {
            outputs.insert(r.ticket.id(), r.outputs.to_vec());
            results.push(r);
        }
        let seconds = started.elapsed().as_secs_f64();
        let (queue_us, execute_us) = latency_means(&results);
        let report = RunReport {
            label: "sync loop".into(),
            seconds,
            requests_per_sec: REQUESTS as f64 / seconds,
            flushes,
            waves,
            outputs,
            mean_queue_latency_us: queue_us,
            mean_execute_latency_us: execute_us,
        };
        if best.as_ref().is_none_or(|b| report.seconds < b.seconds) {
            best = Some(report);
        }
    }
    Ok(best.expect("at least one rep"))
}

/// The spawned service under deadline flushing: submission never blocks
/// on execution, the worker batches in the background.
fn run_service() -> Result<RunReport, Box<dyn std::error::Error>> {
    let i2f_nor = Benchmark::Int2float.build().netlist.to_nor();
    let adder_nor = ripple_adder(8).to_nor();
    let order = stream();

    let mut best: Option<RunReport> = None;
    for _ in 0..TIMED_REPS {
        let handle = PimClusterBuilder::new(1, N, M)
            .flush_after(FLUSH_AFTER)
            .spawn()?;
        let pi = handle.compile_packed(&i2f_nor)?;
        let pa = handle.compile_packed(&adder_nor)?;
        let started = Instant::now();
        for &(is_i2f, i) in &order {
            let program = if is_i2f { &pi } else { &pa };
            let inputs = if is_i2f {
                i2f_request(i)
            } else {
                add_request(i)
            };
            let _ticket = handle.submit(program, inputs)?;
        }
        // Collect everything; drain() waits for the worker to finish.
        let outcome = handle.drain()?;
        let seconds = started.elapsed().as_secs_f64();
        // The worker decides when to flush; its health ledger counts them.
        let flushes = handle.metrics().flushes as usize;
        handle.close()?;
        assert_eq!(outcome.requests(), REQUESTS, "every ticket served");
        let (queue_us, execute_us) = latency_means(&outcome.results);
        let report = RunReport {
            label: "service".into(),
            seconds,
            requests_per_sec: REQUESTS as f64 / seconds,
            flushes,
            waves: outcome.waves,
            outputs: outcome
                .results
                .into_iter()
                .map(|r| (r.ticket.id(), r.outputs.to_vec()))
                .collect(),
            mean_queue_latency_us: queue_us,
            mean_execute_latency_us: execute_us,
        };
        if best.as_ref().is_none_or(|b| report.seconds < b.seconds) {
            best = Some(report);
        }
    }
    Ok(best.expect("at least one rep"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "async throughput: {ADDER_REQUESTS} x adder8 + {I2F_REQUESTS} x int2float, \
         one {N}x{N}/{M} shard\n\
         sync loop flushes every {FLUSH_EVERY} submissions; \
         the service flushes on a {FLUSH_AFTER:?} deadline\n"
    );
    let sync = run_sync()?;
    print_report(&sync);
    let service = run_service()?;
    print_report(&service);

    // Correctness: both modes verified against the references, and
    // against each other (ticket ids are dense submission order in both).
    let i2f = Benchmark::Int2float.build();
    let adder = ripple_adder(8);
    for (ticket, &(is_i2f, i)) in stream().iter().enumerate() {
        let want = if is_i2f {
            (i2f.reference)(&i2f_request(i))
        } else {
            adder.eval(&add_request(i))
        };
        let ticket = ticket as u64;
        let s = sync.outputs.get(&ticket).expect("sync served");
        let a = service.outputs.get(&ticket).expect("service served");
        assert_eq!(s, &want, "sync ticket#{ticket}");
        assert_eq!(a, &want, "service ticket#{ticket}");
    }

    let speedup = sync.seconds / service.seconds;
    println!("\nservice speedup over the sync flush loop: {speedup:.2}x");
    assert!(
        service.waves <= sync.waves,
        "background batching must not need more waves ({} vs {})",
        service.waves,
        sync.waves
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"async_throughput\",\n",
            "  \"geometry\": {{\"n\": {}, \"m\": {}, \"shards\": 1}},\n",
            "  \"traffic\": {{\"adder8\": {}, \"int2float\": {}}},\n",
            "  \"sync_flush_every\": {},\n",
            "  \"service_flush_after_us\": {},\n",
            "  \"speedup_wall_clock\": {:.3},\n",
            "  \"runs\": [\n",
            "    {{\"config\": \"sync loop\", \"seconds\": {:.4}, \"requests_per_sec\": {:.1}, ",
            "\"flushes\": {}, \"waves\": {}, \"mean_queue_latency_us\": {:.1}, ",
            "\"mean_execute_latency_us\": {:.1}}},\n",
            "    {{\"config\": \"service\", \"seconds\": {:.4}, \"requests_per_sec\": {:.1}, ",
            "\"flushes\": {}, \"waves\": {}, \"mean_queue_latency_us\": {:.1}, ",
            "\"mean_execute_latency_us\": {:.1}}}\n",
            "  ]\n}}\n"
        ),
        N,
        M,
        ADDER_REQUESTS,
        I2F_REQUESTS,
        FLUSH_EVERY,
        FLUSH_AFTER.as_micros(),
        speedup,
        sync.seconds,
        sync.requests_per_sec,
        sync.flushes,
        sync.waves,
        sync.mean_queue_latency_us,
        sync.mean_execute_latency_us,
        service.seconds,
        service.requests_per_sec,
        service.flushes,
        service.waves,
        service.mean_queue_latency_us,
        service.mean_execute_latency_us,
    );
    std::fs::write("BENCH_async.json", &json)?;
    println!("wrote BENCH_async.json");
    Ok(())
}
