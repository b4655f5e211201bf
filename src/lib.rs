//! `pimecc` — a reproduction of *"Efficient Error-Correcting-Code Mechanism
//! for High-Throughput Memristive Processing-in-Memory"* (Leitersdorf,
//! Perach, Ronen, Kvatinsky — DAC 2021).
//!
//! The paper maintains ECC check-bits along the *wrap-around diagonals* of
//! m×m blocks of a MAGIC crossbar array, so that row-parallel and
//! column-parallel stateful-logic operations each touch at most one data
//! bit per check-bit — enabling continuous, Θ(1), in-memory ECC updates
//! through barrel shifters and pipelined XOR3 processing crossbars.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`cluster`] — the scaling front-end: [`PimCluster`] queues mixed
//!   traffic behind `submit`/`flush`, packs it by program fingerprint and
//!   dispatches two-dimensionally planned batches (rows *or* columns,
//!   narrow programs co-packed several per line) across a pool of shards
//!   — in parallel on the model clock, one after another on the flushing
//!   thread. [`PimClusterBuilder::spawn`](cluster::PimClusterBuilder::spawn)
//!   runs the same pool as a **service**: a channel-fed worker thread
//!   auto-flushes on a pending threshold or a max-latency deadline, and
//!   cloneable [`ClusterHandle`](cluster::ClusterHandle)s submit without
//!   blocking, holding waitable tickets
//!   ([`cluster::handle::Ticket::wait`]);
//! * [`device`] — the batch-first execution layer: [`PimDevice`] compiles
//!   functions once (SIMPLER; [`PimDevice::compile_packed`] maps them
//!   narrow for co-packing) and executes
//!   [`device::placement::PlacementPlan`]s — up to `n × (n / footprint)`
//!   requests per crossbar pass, with the paper's pre-execution checks
//!   amortized per touched block-line on either axis;
//! * [`xbar`] — memristive crossbar + MAGIC stateful-logic simulator;
//! * [`netlist`] — gate IR, NOR lowering, EPFL-style benchmark generators;
//! * [`simpler`] — the SIMPLER single-row mapper + ECC schedule extension;
//! * [`core`] — the diagonal ECC codec, CMEM architecture, protected
//!   memory machine and area model;
//! * [`reliability`] — SER model, Figure 6 MTTF closed forms, Monte-Carlo.
//!
//! Everything a typical caller needs sits in [`prelude`].
//!
//! # Quickstart
//!
//! Build a cluster, compile a function once, submit requests as they
//! arrive, flush — the queue packs same-program traffic into full-width
//! row batches, one per shard per wave; the shards tick in parallel on the
//! model clock:
//!
//! ```
//! use pimecc::prelude::*;
//! use pimecc::netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A full adder: three inputs, sum and carry out.
//! let mut b = NetlistBuilder::new();
//! let ins = b.inputs(3);
//! let s1 = b.xor(ins[0], ins[1]);
//! let sum = b.xor(s1, ins[2]);
//! let carry = b.maj(ins[0], ins[1], ins[2]);
//! b.output(sum);
//! b.output(carry);
//! let netlist = b.finish();
//!
//! // Two shards of 30x30 crossbars with 3x3 ECC blocks; SIMPLER maps the
//! // function once and the handle is shared by both shards.
//! let mut cluster = PimClusterBuilder::new(2, 30, 3).build()?;
//! let program = cluster.compile(&netlist.to_nor())?;
//!
//! // Submission returns a ticket immediately; nothing executes yet.
//! let tickets: Vec<Ticket> = (0..8u32)
//!     .map(|v| cluster.submit(&program, (0..3).map(|i| v >> i & 1 != 0).collect()))
//!     .collect::<Result<_, _>>()?;
//!
//! // One flush serves the whole queue: each program step executes once
//! // per dispatched batch, row-parallel, ECC maintained throughout.
//! let outcome = cluster.flush()?;
//! for (v, ticket) in tickets.iter().enumerate() {
//!     let inputs: Vec<bool> = (0..3).map(|i| v as u32 >> i & 1 != 0).collect();
//!     assert_eq!(outcome.outputs_for(*ticket), Some(netlist.eval(&inputs).as_slice()));
//! }
//! // Aggregate throughput beats one gate evaluation per MEM cycle, where
//! // a serial flow is pinned below one.
//! assert!(outcome.gate_evals_per_mem_cycle() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! A single crossbar without the queue is [`PimDevice::run_batch`]
//! (see the [`device`] module docs). See `perfbench/` for the seeded
//! end-to-end benchmark, `examples/batch_throughput.rs` for the
//! cycle-amortization curve, and `crates/bench` for the binaries that
//! regenerate every table and figure of the paper.

pub mod cluster;
pub mod compiler;
pub mod device;

pub use cluster::{ClusterError, ClusterOutcome, PimCluster, PimClusterBuilder, Ticket};
pub use compiler::{PartitionedProgram, RouteSource, SubProgram};
pub use device::{BatchOutcome, CompiledProgram, PimDevice, PimDeviceBuilder};
pub use pimecc_core as core;
pub use pimecc_netlist as netlist;
pub use pimecc_reliability as reliability;
pub use pimecc_simpler as simpler;
pub use pimecc_xbar as xbar;

/// One-import surface for downstream code: the cluster submission API,
/// the single-device batch API, and the policy/error types both share.
///
/// ```
/// use pimecc::prelude::*;
///
/// # fn main() -> Result<(), ClusterError> {
/// let cluster = PimClusterBuilder::new(2, 30, 3)
///     .check_policy(CheckPolicy::PreExecution)
///     .build()?;
/// assert_eq!(cluster.capacity(), 60);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::cluster::{
        AxisPolicy, ClusterError, ClusterHandle, ClusterOutcome, FailedRequest, HealthSnapshot,
        LatencyStats, OutputSlice, PimCluster, PimClusterBuilder, ShardHealth, ShardReport,
        ShardState, Ticket, TicketResult,
    };
    pub use crate::compiler::{PartitionedProgram, RouteSource, SubProgram};
    pub use crate::device::{
        Axis, BatchOutcome, CheckPolicy, CompiledProgram, CoveragePolicy, DeviceError, OutputArena,
        PimDevice, PimDeviceBuilder, PlacementPlan, RetiredLines, ScrubReport, SimEngine, Slot,
        UncorrectableInput,
    };
}
