//! Heap-allocation budget of a warm partitioned flush.
//!
//! The scheduler serves each dependency level in place: sub-requests read
//! their inputs from one request-major buffer per group, verified outputs
//! go straight back into the request's signal row, and the level groups
//! are reused. What is left per dispatched wave is a small constant of
//! planning and device scratch, not one allocation per sub-request — this
//! test keeps it that way.

use pimecc::netlist::generators::{mul16, to_bits};
use pimecc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every heap allocation (fresh or grown) made in this test binary.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const REQUESTS: u64 = 128;

/// Heap allocations a warm flush may make per dispatched wave.
const BUDGET_PER_WAVE: usize = 64;

fn operands(i: u64) -> (u64, u64) {
    (
        i.wrapping_mul(37) & 0xFFFF,
        i.wrapping_mul(73).wrapping_add(11) & 0xFFFF,
    )
}

#[test]
fn a_warm_partitioned_flush_allocates_per_wave_not_per_sub_request() {
    let mut cluster = PimClusterBuilder::new(4, 30, 3).build().expect("cluster");
    let program = cluster
        .compile_partitioned(&mul16().netlist.to_nor())
        .expect("partitions");
    // Submits the batch (not counted), then counts the flush alone.
    let mut flush = || {
        let tickets: Vec<Ticket> = (0..REQUESTS)
            .map(|i| {
                let (x, y) = operands(i);
                let mut inputs = to_bits(u128::from(x), 16);
                inputs.extend(to_bits(u128::from(y), 16));
                cluster
                    .submit_partitioned(&program, inputs)
                    .expect("submits")
            })
            .collect();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = cluster.flush().expect("flushes");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (tickets, outcome, allocations)
    };
    // Two warm-up flushes size every reusable buffer.
    for _ in 0..2 {
        let (_, warm_up, _) = flush();
        assert_eq!(warm_up.requests(), REQUESTS as usize);
    }
    let (tickets, outcome, allocations) = flush();

    assert_eq!(outcome.requests(), REQUESTS as usize);
    for (i, t) in (0..REQUESTS).zip(&tickets) {
        let (x, y) = operands(i);
        assert_eq!(
            outcome.outputs_for(*t),
            Some(to_bits(u128::from(x) * u128::from(y), 32).as_slice()),
            "{x} * {y}"
        );
    }
    let waves = outcome.waves;
    assert!(waves > 0);
    assert!(
        allocations < BUDGET_PER_WAVE * waves,
        "{allocations} heap allocations over {waves} waves ({:.1} per wave, budget {BUDGET_PER_WAVE})",
        allocations as f64 / waves as f64
    );
}
