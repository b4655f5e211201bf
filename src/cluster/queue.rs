//! The submission queue: tickets, pending requests, and the
//! pack-by-fingerprint grouping the scheduler consumes.

use crate::compiler::PartitionedProgram;
use crate::device::{CompiledProgram, InputRows, PlacementPlan, WavePart};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Receipt for one submitted request, redeemed against the
/// [`ClusterOutcome`](crate::cluster::ClusterOutcome) of the flush that
/// served it.
///
/// Tickets are issued in submission order and are unique for the lifetime
/// of the cluster, so they double as a deterministic tie-breaker wherever
/// the scheduler needs a stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[must_use = "a dropped ticket cannot be redeemed against its flush's outcome"]
pub struct Ticket(pub(crate) u64);

impl Ticket {
    /// The ticket's cluster-lifetime sequence number.
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

/// The consecutive tickets issued by one
/// [`PimCluster::submit_batch`](crate::cluster::PimCluster::submit_batch) —
/// ticket ids are cluster-lifetime sequential, so a batch is fully
/// described by its first id and length, no per-ticket allocation needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[must_use = "dropped tickets cannot be redeemed against their flush's outcome"]
pub struct TicketRange {
    pub(crate) start: u64,
    pub(crate) len: u64,
}

impl TicketRange {
    /// Number of tickets in the range.
    #[allow(clippy::len_without_is_empty)] // is_empty is defined right below
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the submission accepted no requests.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th ticket of the batch, if in range.
    pub fn get(&self, i: usize) -> Option<Ticket> {
        ((i as u64) < self.len).then(|| Ticket(self.start + i as u64))
    }

    /// Iterates the batch's tickets in submission order.
    pub fn iter(&self) -> impl Iterator<Item = Ticket> + use<> {
        (self.start..self.start + self.len).map(Ticket)
    }
}

impl IntoIterator for TicketRange {
    type Item = Ticket;
    type IntoIter = std::iter::Map<std::ops::Range<u64>, fn(u64) -> Ticket>;

    fn into_iter(self) -> Self::IntoIter {
        (self.start..self.start + self.len).map(Ticket)
    }
}

/// One accepted, not-yet-executed request. The submission instant rides
/// along so the flush that serves it can report the request's queue
/// latency ([`TicketResult::queue_latency`](crate::cluster::TicketResult)).
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub(crate) ticket: Ticket,
    pub(crate) submitted_at: Instant,
    pub(crate) program: CompiledProgram,
    pub(crate) inputs: Vec<bool>,
}

/// One accepted, not-yet-executed *partitioned* request: the same shape
/// as [`Pending`], but against a [`PartitionedProgram`] — served as a
/// chain of dependency waves rather than a single batch.
#[derive(Debug, Clone)]
pub(crate) struct PendingPartitioned {
    pub(crate) ticket: Ticket,
    pub(crate) submitted_at: Instant,
    pub(crate) program: Arc<PartitionedProgram>,
    pub(crate) inputs: Vec<bool>,
}

/// The suppressed attempts behind a re-queued row.
#[derive(Debug)]
pub(crate) struct Retry {
    /// Row of the request's first attempt in its group.
    pub(crate) origin: usize,
    /// Dispatch instant of the request's first attempt.
    pub(crate) first_dispatch: Instant,
    /// Execute latency of each suppressed attempt, oldest first.
    pub(crate) latencies: Vec<Duration>,
}

/// All pending requests of one program, in submission order — the unit the
/// scheduler carves batches from.
///
/// Layout: row `i` is `tickets[i]` plus the `program.num_inputs()` bits
/// at `inputs[i * w..(i + 1) * w]`, one request-major buffer for the whole
/// group. The scheduler hands out index ranges ([`Group::take`]), so no
/// request owns a `Vec`. First attempts come first; a suppressed request
/// re-enters by copying its row to the end ([`Group::requeue`]), so the
/// last `retries.len()` rows are re-dispatches, `retries[k]` holding the
/// history of the `k`-th.
#[derive(Debug)]
pub(crate) struct Group {
    pub(crate) program: CompiledProgram,
    /// Each row's ticket and submission instant.
    pub(crate) tickets: Vec<(Ticket, Instant)>,
    inputs: Vec<bool>,
    retries: Vec<Retry>,
    /// Next row the scheduler has not yet dispatched.
    cursor: usize,
}

impl Group {
    pub(crate) fn new(program: CompiledProgram) -> Self {
        Group {
            program,
            tickets: Vec::new(),
            inputs: Vec::new(),
            retries: Vec::new(),
            cursor: 0,
        }
    }

    /// Empties the group and points it at `program`, keeping the buffers'
    /// capacity.
    pub(crate) fn reset(&mut self, program: CompiledProgram) {
        self.program = program;
        self.tickets.clear();
        self.inputs.clear();
        self.retries.clear();
        self.cursor = 0;
    }

    /// Appends a first-attempt row.
    pub(crate) fn push(
        &mut self,
        ticket: Ticket,
        submitted_at: Instant,
        inputs: impl IntoIterator<Item = bool>,
    ) {
        debug_assert!(self.retries.is_empty(), "first attempts precede requeues");
        self.tickets.push((ticket, submitted_at));
        self.inputs.extend(inputs);
        debug_assert_eq!(
            self.inputs.len(),
            self.tickets.len() * self.program.num_inputs()
        );
    }

    pub(crate) fn remaining(&self) -> usize {
        self.tickets.len() - self.cursor
    }

    /// Hands the scheduler the next `n` undispatched rows, advancing the
    /// cursor.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.remaining()` — the scheduler sizes its chunks
    /// from `remaining`.
    pub(crate) fn take(&mut self, n: usize) -> Range<usize> {
        assert!(n <= self.remaining(), "take past the group's rows");
        self.cursor += n;
        self.cursor - n..self.cursor
    }

    /// One wave part of this group: the rows of `runs`, in order, on the
    /// slots of `plan`.
    pub(crate) fn part<'a>(
        &'a self,
        plan: &'a PlacementPlan,
        runs: &'a [Range<usize>],
    ) -> WavePart<'a> {
        WavePart {
            program: &self.program,
            plan,
            inputs: InputRows::Runs {
                bits: &self.inputs,
                width: self.program.num_inputs(),
                runs,
            },
        }
    }

    /// Rows that are first attempts.
    fn fresh(&self) -> usize {
        self.tickets.len() - self.retries.len()
    }

    /// The suppressed attempts behind `row`; `None` for a first attempt.
    pub(crate) fn history(&self, row: usize) -> Option<&Retry> {
        row.checked_sub(self.fresh()).map(|k| &self.retries[k])
    }

    /// Re-enters `row` at the end of the group after a suppressed attempt
    /// dispatched at `dispatched_at` that took `latency`: the new row
    /// copies the inputs and carries the request's history forward.
    pub(crate) fn requeue(&mut self, row: usize, dispatched_at: Instant, latency: Duration) {
        let mut retry = match row.checked_sub(self.fresh()) {
            None => Retry {
                origin: row,
                first_dispatch: dispatched_at,
                latencies: Vec::new(),
            },
            Some(k) => Retry {
                latencies: std::mem::take(&mut self.retries[k].latencies),
                ..self.retries[k]
            },
        };
        retry.latencies.push(latency);
        self.retries.push(retry);
        self.tickets.push(self.tickets[row]);
        let w = self.program.num_inputs();
        self.inputs.extend_from_within(row * w..(row + 1) * w);
    }
}

/// Drains `pending` into per-fingerprint groups, filling the caller's
/// reusable buffers instead of allocating fresh ones per flush.
///
/// `groups` must arrive empty; `index` is cleared here; `spare` donates
/// emptied group shells (popped for new groups, so a steady-state flush
/// reuses last flush's capacity). Each request's inputs are copied into
/// its group's request-major buffer, and `pending` keeps its own capacity
/// for the next submission burst.
///
/// Group order is the order each program *first* appeared in the queue and
/// requests keep submission order inside their group — both properties the
/// scheduler's determinism guarantee rests on (a `HashMap` iteration order
/// never reaches the dispatch plan).
pub(crate) fn group_into(
    pending: &mut Vec<Pending>,
    groups: &mut Vec<Group>,
    index: &mut HashMap<u64, usize>,
    spare: &mut Vec<Group>,
) {
    debug_assert!(groups.is_empty(), "group arena must be drained per flush");
    index.clear();
    // Batched submissions queue long same-program runs; remembering the
    // last fingerprint skips the hash for every request after a run's
    // first.
    let mut last: Option<(u64, usize)> = None;
    for p in pending.drain(..) {
        let key = p.program.fingerprint();
        let at = match last {
            Some((k, at)) if k == key => at,
            _ => {
                let at = *index.entry(key).or_insert_with(|| {
                    groups.push(shell(spare, p.program.clone()));
                    groups.len() - 1
                });
                last = Some((key, at));
                at
            }
        };
        groups[at].push(p.ticket, p.submitted_at, p.inputs);
    }
}

/// An empty group for `program`, reusing a spare shell when there is one.
pub(crate) fn shell(spare: &mut Vec<Group>, program: CompiledProgram) -> Group {
    match spare.pop() {
        Some(mut g) => {
            g.reset(program);
            g
        }
        None => Group::new(program),
    }
}

/// One-shot [`group_into`] over fresh buffers.
#[cfg(test)]
pub(crate) fn group_by_fingerprint(mut pending: Vec<Pending>) -> Vec<Group> {
    let mut groups = Vec::new();
    group_into(
        &mut pending,
        &mut groups,
        &mut HashMap::new(),
        &mut Vec::new(),
    );
    groups
}

/// One partitioned group: the shared program and its requests in
/// submission order.
pub(crate) type PartitionedGroup = (Arc<PartitionedProgram>, Vec<(Ticket, Instant, Vec<bool>)>);

/// Drains partitioned submissions into per-fingerprint groups with the
/// same ordering guarantees as [`group_by_fingerprint`]: groups in
/// first-appearance order, requests in submission order.
pub(crate) fn group_partitioned(pending: Vec<PendingPartitioned>) -> Vec<PartitionedGroup> {
    let mut groups: Vec<PartitionedGroup> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    for p in pending {
        let key = p.program.fingerprint();
        let at = *index.entry(key).or_insert_with(|| {
            groups.push((Arc::clone(&p.program), Vec::new()));
            groups.len() - 1
        });
        groups[at].1.push((p.ticket, p.submitted_at, p.inputs));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PimDevice;
    use pimecc_netlist::NetlistBuilder;

    fn program(bits: usize, tag: bool) -> CompiledProgram {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(bits);
        let mut g = b.nor(ins[0], ins[bits - 1]);
        if tag {
            g = b.nor(g, ins[0]);
        }
        b.output(g);
        let mut device = PimDevice::new(30, 3).expect("device");
        device.compile(&b.finish().to_nor()).expect("compiles")
    }

    #[test]
    fn groups_keep_first_appearance_order_and_submission_order() {
        let a = program(2, false);
        let b = program(3, true);
        let now = Instant::now();
        let pending = vec![
            Pending {
                ticket: Ticket(0),
                submitted_at: now,
                program: b.clone(),
                inputs: vec![true, false, true],
            },
            Pending {
                ticket: Ticket(1),
                submitted_at: now,
                program: a.clone(),
                inputs: vec![true, false],
            },
            Pending {
                ticket: Ticket(2),
                submitted_at: now,
                program: b.clone(),
                inputs: vec![false, false, true],
            },
        ];
        let groups = group_by_fingerprint(pending);
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups[0].program.fingerprint(),
            b.fingerprint(),
            "first-seen program leads"
        );
        assert_eq!(groups[0].tickets.len(), 2);
        assert_eq!(groups[0].tickets[0].0, Ticket(0));
        assert_eq!(groups[0].tickets[1].0, Ticket(2));
        assert_eq!(
            groups[0].inputs,
            vec![true, false, true, false, false, true]
        );
        assert_eq!(groups[1].tickets.len(), 1);
        assert_eq!(groups[1].tickets[0].0, Ticket(1));
        assert_eq!(groups[1].inputs, vec![true, false]);
        assert_eq!(groups[0].remaining(), 2);
    }

    #[test]
    fn a_requeued_row_copies_its_inputs_and_carries_its_history() {
        let now = Instant::now();
        let ms = Duration::from_millis;
        let mut g = Group::new(program(3, false));
        g.push(Ticket(4), now, [true, false, true]);
        g.push(Ticket(5), now, [false, true, true]);
        assert_eq!(g.take(2), 0..2);
        assert!(g.history(1).is_none(), "first attempts have no history");

        g.requeue(1, now, ms(3));
        assert_eq!(g.take(g.remaining()), 2..3);
        assert_eq!(g.tickets[2].0, Ticket(5));
        assert_eq!(g.inputs[6..9], [false, true, true]);
        // A second suppression chains back to the request's first row.
        g.requeue(2, now + ms(9), ms(4));
        let h = g.history(3).expect("a re-dispatch has history");
        assert_eq!((h.origin, h.first_dispatch), (1, now));
        assert_eq!(h.latencies, [ms(3), ms(4)]);
        assert_eq!(g.inputs[9..12], [false, true, true]);
    }
}
