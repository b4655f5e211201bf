//! Integration tests for the async cluster service: non-blocking
//! submission through cloned [`ClusterHandle`]s, waitable tickets,
//! deadline- and threshold-driven auto-flush, bulk drains, backpressure
//! and the shutdown lifecycle.

use pimecc::cluster::handle;
use pimecc::netlist::{Netlist, NetlistBuilder};
use pimecc::prelude::*;
use proptest::prelude::*;
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
fn a_deadline_configured_service_flushes_without_any_explicit_flush() {
    // Acceptance bar: nothing but submissions and (passive) polling — no
    // flush(), no wait()-driven nudge — and the results still arrive,
    // because the worker's max-latency deadline fires.
    let (nor, nl) = xor_circuit();
    let handle = PimClusterBuilder::new(1, 30, 3)
        .flush_after(Duration::from_millis(5))
        .spawn()
        .expect("spawns");
    let p = handle.compile(&nor).expect("compiles");
    let tickets: Vec<handle::Ticket> = (0..6u32)
        .map(|v| {
            handle
                .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                .expect("submits")
        })
        .collect();
    // Poll with try_wait only — it never asks for a flush.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut served = vec![None; tickets.len()];
    while served.iter().any(Option::is_none) {
        assert!(
            Instant::now() < deadline,
            "deadline flush never fired: {served:?}"
        );
        for (slot, t) in served.iter_mut().zip(&tickets) {
            if slot.is_none() {
                *slot = t.try_wait().expect("no failures expected");
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for (v, result) in served.iter().enumerate() {
        let v = v as u32;
        let result = result.as_ref().expect("served");
        assert_eq!(result.outputs, nl.eval(&[v & 1 != 0, v & 2 != 0]));
    }
    handle.close().expect("closes");
}

#[test]
fn concurrent_producers_are_bit_identical_to_a_serial_reference_run() {
    // N threads hammer cloned handles with mixed-program traffic. Every
    // (ticket id, program, inputs) triple is collected; afterwards the
    // same stream — ordered by ticket id, i.e. by the service's channel
    // order — is replayed through a synchronous cluster of the same
    // shape. Outputs must agree bit for bit, ticket by ticket.
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 40;
    let (xor_nor, _) = xor_circuit();
    let (mux_nor, _) = mux_circuit();

    let handle = PimClusterBuilder::new(2, 30, 3)
        .auto_flush_at(16)
        .spawn()
        .expect("spawns");
    let xor = handle.compile(&xor_nor).expect("compiles");
    let mux = handle.compile(&mux_nor).expect("compiles");

    let submitted: Vec<(u64, bool, Vec<bool>, OutputSlice)> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for producer in 0..PRODUCERS {
            let handle = handle.clone();
            let xor = xor.clone();
            let mux = mux.clone();
            joins.push(s.spawn(move || {
                let mut log = Vec::new();
                for i in 0..PER_PRODUCER {
                    let v = (producer * 31 + i * 7) as u32;
                    let wide = (producer + i) % 3 == 0;
                    let (program, inputs) = if wide {
                        (&mux, vec![v & 1 != 0, v & 2 != 0, v & 4 != 0])
                    } else {
                        (&xor, vec![v & 1 != 0, v & 2 != 0])
                    };
                    let ticket = handle.submit(program, inputs.clone()).expect("submits");
                    // Waiting from inside the producers exercises result
                    // delivery under contention for half the traffic...
                    if i % 2 == 0 {
                        let result = ticket.wait().expect("served");
                        log.push((ticket.id(), wide, inputs, result.outputs));
                    } else {
                        log.push((ticket.id(), wide, inputs, OutputSlice::default()));
                    }
                }
                log
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("producer thread"))
            .collect()
    });
    // ...and the other half is collected in bulk.
    handle.close().expect("closes");
    let outcome = handle.drain().expect("drains");
    assert_eq!(
        outcome.requests(),
        PRODUCERS * PER_PRODUCER - submitted.iter().filter(|e| !e.3.is_empty()).count(),
        "drain returns exactly the unclaimed tickets"
    );

    // Serial reference: one synchronous cluster, same geometry, fed the
    // identical stream in ticket order.
    let mut stream: Vec<(u64, bool, Vec<bool>, OutputSlice)> = submitted;
    stream.sort_by_key(|&(id, _, _, _)| id);
    assert_eq!(stream.len(), PRODUCERS * PER_PRODUCER);
    for (expect_id, (id, _, _, _)) in stream.iter().enumerate() {
        assert_eq!(*id, expect_id as u64, "ticket ids are dense channel order");
    }
    let mut sync = PimCluster::new(2, 30, 3).expect("cluster");
    let xor_sync = sync.compile(&xor_nor).expect("compiles");
    let mux_sync = sync.compile(&mux_nor).expect("compiles");
    let sync_tickets: Vec<Ticket> = stream
        .iter()
        .map(|(_, wide, inputs, _)| {
            let program = if *wide { &mux_sync } else { &xor_sync };
            sync.submit(program, inputs.clone()).expect("submits")
        })
        .collect();
    let reference = sync.flush().expect("flushes");

    for ((id, _, _, waited), sync_ticket) in stream.iter().zip(&sync_tickets) {
        assert_eq!(sync_ticket.id(), *id, "reference replays in ticket order");
        let want = reference.outputs_for(*sync_ticket).expect("served");
        // Drained results are keyed by the service ticket id, which equals
        // the sync ticket id here (both are dense submission order).
        let got = if waited.is_empty() {
            outcome.outputs_for(*sync_ticket).expect("drained")
        } else {
            waited.as_slice()
        };
        assert_eq!(got, want, "ticket {id}");
    }
}

#[test]
fn drain_after_close_returns_every_ticket_exactly_once() {
    let (nor, nl) = xor_circuit();
    let handle = PimClusterBuilder::new(2, 30, 3).spawn().expect("spawns");
    let p = handle.compile(&nor).expect("compiles");

    // Submissions arrive from several clones.
    let tickets: Vec<handle::Ticket> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for producer in 0..3usize {
            let handle = handle.clone();
            let p = p.clone();
            joins.push(s.spawn(move || {
                (0..20u32)
                    .map(|i| {
                        let v = producer as u32 * 20 + i;
                        handle
                            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                            .expect("submits")
                    })
                    .collect::<Vec<_>>()
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("producer"))
            .collect()
    });
    assert_eq!(tickets.len(), 60);

    handle.close().expect("closes");
    let outcome = handle.drain().expect("drains");
    assert_eq!(outcome.requests(), 60, "every ticket, exactly once");
    // Sorted by ticket, no duplicates, every id present.
    let ids: Vec<u64> = outcome.results.iter().map(|r| r.ticket.id()).collect();
    assert_eq!(ids, (0..60).collect::<Vec<u64>>());
    // Latency clocks are populated by the service path.
    assert!(outcome
        .results
        .iter()
        .all(|r| r.execute_latency > Duration::ZERO));
    // The drained outputs are the right outputs: `tickets` holds each
    // producer's receipts in order, so entry k was submitted with the
    // inputs derived from v = k.
    for (k, t) in tickets.iter().enumerate() {
        let v = k as u32;
        let r = outcome
            .results
            .iter()
            .find(|r| r.ticket.id() == t.id())
            .expect("present");
        assert_eq!(r.outputs, nl.eval(&[v & 1 != 0, v & 2 != 0]), "{t}");
    }
    // A second drain is empty, waits on drained tickets fail closed.
    assert_eq!(handle.drain().expect("drains").requests(), 0);
    assert!(matches!(
        tickets[0].wait(),
        Err(ClusterError::TicketUnserved { .. })
    ));
}

#[test]
fn bounded_queues_backpressure_without_deadlock_and_try_submit_fails_fast() {
    let (nor, nl) = xor_circuit();
    // A tiny bound forces constant producer/worker handoff; with the
    // threshold at the same size the worker drains continuously, so every
    // submission eventually passes the gate.
    let handle = PimClusterBuilder::new(1, 30, 3)
        .queue_limit(2)
        .auto_flush_at(2)
        .spawn()
        .expect("spawns");
    let p = handle.compile(&nor).expect("compiles");
    let tickets: Vec<handle::Ticket> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for producer in 0..2usize {
            let handle = handle.clone();
            let p = p.clone();
            joins.push(s.spawn(move || {
                (0..25u32)
                    .map(|i| {
                        let v = producer as u32 * 25 + i;
                        handle
                            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                            .expect("backpressured submit still lands")
                    })
                    .collect::<Vec<_>>()
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("producer"))
            .collect()
    });
    for t in &tickets {
        let r = t.wait().expect("served");
        assert_eq!(r.outputs.len(), nl.eval(&[false, false]).len());
    }
    handle.close().expect("closes");

    // try_submit against a saturated queue fails fast instead of waiting.
    let stalled = PimClusterBuilder::new(1, 30, 3)
        .queue_limit(1)
        .spawn()
        .expect("spawns");
    let q = stalled.compile(&nor).expect("compiles");
    let _held = stalled
        .try_submit(&q, vec![true, false])
        .expect("first fits");
    assert_eq!(
        stalled.try_submit(&q, vec![true, true]).unwrap_err(),
        ClusterError::Saturated { limit: 1 }
    );
    stalled.close().expect("closes");
    assert_eq!(
        stalled.try_submit(&q, vec![true, true]).unwrap_err(),
        ClusterError::Closed
    );
}

#[test]
fn a_backlogged_deadline_service_still_forms_batches() {
    // Regression: a worker running behind its deadline used to dequeue
    // one aged request at a time — each with an already-expired deadline
    // — and degenerate into one wave per request. The expired-deadline
    // path must absorb the channel backlog before flushing.
    const REQUESTS: usize = 600;
    let (nor, nl) = xor_circuit();
    let handle = PimClusterBuilder::new(1, 30, 3)
        .flush_after(Duration::from_micros(50))
        .spawn()
        .expect("spawns");
    let p = handle.compile_packed(&nor).expect("compiles");
    let tickets: Vec<handle::Ticket> = (0..REQUESTS as u32)
        .map(|v| {
            handle
                .submit(&p, vec![v & 1 != 0, v & 2 != 0])
                .expect("submits")
        })
        .collect();
    handle.close().expect("closes");
    let outcome = handle.drain().expect("drains");
    assert_eq!(outcome.requests(), REQUESTS);
    assert!(
        outcome.waves <= REQUESTS / 10,
        "a backlogged deadline worker must batch, not serve one wave per \
         request: {} waves for {REQUESTS} requests",
        outcome.waves
    );
    for (v, t) in tickets.iter().enumerate() {
        let v = v as u32;
        assert_eq!(
            outcome.outputs_for(t.key()),
            Some(nl.eval(&[v & 1 != 0, v & 2 != 0]).as_slice()),
            "{t}"
        );
    }
}

#[test]
fn waiting_on_a_drained_ticket_errors_while_the_service_is_still_open() {
    // Regression: wait()/try_wait() on a result a mid-service drain()
    // already claimed used to park forever (the board only failed absent
    // tickets after close). Resolved-but-absent must error immediately.
    let (nor, _) = xor_circuit();
    let handle = PimClusterBuilder::new(1, 30, 3).spawn().expect("spawns");
    let p = handle.compile(&nor).expect("compiles");
    let early = handle.submit(&p, vec![true, false]).expect("submits");
    let claimed = handle.drain().expect("drains");
    assert_eq!(claimed.requests(), 1);
    assert!(!handle.is_closed(), "the service is still open");
    assert_eq!(
        early.wait().unwrap_err(),
        ClusterError::TicketUnserved { ticket: 0 }
    );
    assert_eq!(
        early.try_wait().unwrap_err(),
        ClusterError::TicketUnserved { ticket: 0 }
    );
    // The service keeps serving fresh traffic afterwards.
    let late = handle.submit(&p, vec![false, true]).expect("submits");
    assert!(late.wait().is_ok());
    handle.close().expect("closes");
}

#[test]
fn explicit_flush_and_in_flight_tracking() {
    let (nor, _) = xor_circuit();
    let handle = PimClusterBuilder::new(1, 30, 3).spawn().expect("spawns");
    let p = handle.compile(&nor).expect("compiles");
    for v in 0..4u32 {
        let _t = handle
            .submit(&p, vec![v & 1 != 0, v & 2 != 0])
            .expect("submits");
    }
    // Without any auto-flush knob, an explicit flush() is the only thing
    // that drains — drain() would nudge one itself, so watch in_flight.
    handle.flush().expect("flushes");
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.in_flight() > 0 {
        assert!(Instant::now() < deadline, "flush() never drained the queue");
        std::thread::sleep(Duration::from_millis(1));
    }
    let outcome = handle.drain().expect("drains");
    assert_eq!(outcome.requests(), 4);
    assert!(outcome.waves >= 1);
    handle.close().expect("closes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The service is the synchronous cluster behind a channel: fed the
    // same submission order with the same threshold, the worker must
    // produce bit-identical results *and placements* — scheduling stays a
    // pure function of submission order even though a thread boundary and
    // a channel now sit in the middle.
    #[test]
    fn service_threshold_flush_places_exactly_like_sync_auto_flush(
        choices in proptest::collection::vec((any::<bool>(), 0u32..256), 1..50),
        threshold in 1usize..12,
    ) {
        let (xor_nor, _) = xor_circuit();
        let (mux_nor, _) = mux_circuit();

        // Synchronous reference: auto_flush_at(threshold) + final flush.
        let mut sync = PimClusterBuilder::new(2, 30, 3)
            .auto_flush_at(threshold)
            .build()
            .expect("cluster");
        let xor_sync = sync.compile(&xor_nor).expect("compiles");
        let mux_sync = sync.compile(&mux_nor).expect("compiles");
        let mut sync_tickets = Vec::new();
        for &(wide, v) in &choices {
            let (program, inputs) = if wide {
                (&mux_sync, vec![v & 1 != 0, v & 2 != 0, v & 4 != 0])
            } else {
                (&xor_sync, vec![v & 1 != 0, v & 2 != 0])
            };
            sync_tickets.push(sync.submit(program, inputs).expect("submits"));
        }
        let reference = sync.flush().expect("flushes");

        // Service: same threshold, same stream, single producer (so the
        // channel order *is* the submission order), closed then drained.
        let service = PimClusterBuilder::new(2, 30, 3)
            .auto_flush_at(threshold)
            .spawn()
            .expect("spawns");
        let xor_svc = service.compile(&xor_nor).expect("compiles");
        let mux_svc = service.compile(&mux_nor).expect("compiles");
        let mut service_tickets = Vec::new();
        for &(wide, v) in &choices {
            let (program, inputs) = if wide {
                (&mux_svc, vec![v & 1 != 0, v & 2 != 0, v & 4 != 0])
            } else {
                (&xor_svc, vec![v & 1 != 0, v & 2 != 0])
            };
            service_tickets.push(service.submit(program, inputs).expect("submits"));
        }
        service.close().expect("closes");
        let outcome = service.drain().expect("drains");

        // Ticket ids agree (dense, submission-ordered) and every result —
        // outputs, shard, wave, axis, line, offset — is identical.
        // (TicketResult equality deliberately ignores the wall-clock
        // latency fields.)
        prop_assert_eq!(outcome.requests(), reference.requests());
        for (s, t) in sync_tickets.iter().zip(&service_tickets) {
            prop_assert_eq!(s.id(), t.id());
        }
        prop_assert_eq!(&outcome.results, &reference.results);
        prop_assert_eq!(outcome.stats, reference.stats);
        prop_assert_eq!(outcome.input_check, reference.input_check);
        prop_assert_eq!(outcome.wall_mem_cycles, reference.wall_mem_cycles);
        prop_assert_eq!(outcome.waves, reference.waves);
        prop_assert_eq!(&outcome.shard_reports, &reference.shard_reports);
    }

    // Concurrent producers over a shard on the service's worker thread
    // must stay bit-identical — outputs, placements, `MachineStats` and
    // input-`CheckReport`s — to a synchronous *scalar-reference* cluster
    // replaying the same stream in channel (= ticket) order. Neither the
    // thread boundary, nor the producer interleaving, nor the kernel lane
    // width may leak into anything but wall-clock time.
    #[test]
    fn concurrent_producers_on_a_threaded_shard_match_the_scalar_reference(
        choices in proptest::collection::vec((any::<bool>(), 0u32..256), 8..40),
    ) {
        let (xor_nor, _) = xor_circuit();
        let (mux_nor, _) = mux_circuit();

        let service = PimClusterBuilder::new(1, 30, 3)
            .auto_flush_at(8)
            .spawn()
            .expect("spawns");
        let xor_svc = service.compile(&xor_nor).expect("compiles");
        let mux_svc = service.compile(&mux_nor).expect("compiles");
        // Two producers race over disjoint halves of the workload; the
        // channel serializes them into *some* dense ticket order, which the
        // log reconstructs afterwards.
        let submitted: Vec<(u64, bool, Vec<bool>)> = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for producer in 0..2usize {
                let service = service.clone();
                let xor_svc = xor_svc.clone();
                let mux_svc = mux_svc.clone();
                let mine: Vec<(bool, u32)> = choices
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == producer)
                    .map(|(_, &c)| c)
                    .collect();
                joins.push(s.spawn(move || {
                    let mut log = Vec::new();
                    for (wide, v) in mine {
                        let (program, inputs) = if wide {
                            (&mux_svc, vec![v & 1 != 0, v & 2 != 0, v & 4 != 0])
                        } else {
                            (&xor_svc, vec![v & 1 != 0, v & 2 != 0])
                        };
                        let ticket = service.submit(program, inputs.clone()).expect("submits");
                        log.push((ticket.id(), wide, inputs));
                    }
                    log
                }));
            }
            joins
                .into_iter()
                .flat_map(|j| j.join().expect("producer"))
                .collect()
        });
        service.close().expect("closes");
        let outcome = service.drain().expect("drains");
        prop_assert_eq!(outcome.requests(), choices.len());

        let mut stream = submitted;
        stream.sort_by_key(|&(id, _, _)| id);

        // Scalar synchronous reference, same threshold, same stream.
        let mut scalar = PimClusterBuilder::new(1, 30, 3)
            .engine(SimEngine::ScalarReference)
            .auto_flush_at(8)
            .build()
            .expect("cluster");
        let xor_ref = scalar.compile(&xor_nor).expect("compiles");
        let mux_ref = scalar.compile(&mux_nor).expect("compiles");
        for (_, wide, inputs) in &stream {
            let program = if *wide { &mux_ref } else { &xor_ref };
            let _t = scalar.submit(program, inputs.clone()).expect("submits");
        }
        let reference = scalar.flush().expect("flushes");

        prop_assert_eq!(&outcome.results, &reference.results);
        prop_assert_eq!(outcome.stats, reference.stats);
        prop_assert_eq!(outcome.input_check, reference.input_check);
        prop_assert_eq!(outcome.wall_mem_cycles, reference.wall_mem_cycles);
        prop_assert_eq!(outcome.waves, reference.waves);
    }
}
