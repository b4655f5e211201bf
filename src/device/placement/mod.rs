//! Two-dimensional placement: where on the crossbar each request runs.
//!
//! MAGIC executes one gate across *all selected rows — or columns — in a
//! single MEM cycle*, and a mapped program touches only
//! [`footprint()`](crate::device::CompiledProgram::footprint) cells of the
//! line it rides. Placement therefore has two independent degrees of
//! freedom that pure row-batching leaves on the table:
//!
//! * **Axis** — a batch can occupy rows *or* columns. The machine layer has
//!   carried the transposed ops (`exec_*_cols`, `check_block_col`) since
//!   the seed; a [`PlacementPlan`] makes them reachable from the device.
//! * **Offset** — a narrow program can sit at any aligned offset inside a
//!   line, so `k = line_len / footprint` requests *co-pack* onto one
//!   physical line. Their gate steps replay once per occupied offset (a
//!   single voltage pattern drives one column set per cycle), but the
//!   input loads merge into **one** driven write per line and the
//!   pre-execution ECC check still runs **once per touched block-line** —
//!   the per-wave overheads divide by the packing density.
//!
//! ```text
//!              offset 0     offset w    offset 2w      (slot width w)
//!            ┌───────────┬───────────┬───────────┬───┐
//!     line 0 │ request 0 │ request 6 │ request 12│...│   Axis::Rows:
//!     line 1 │ request 1 │ request 7 │ request 13│...│   lines are rows,
//!     line 2 │ request 2 │ request 8 │     …     │   │   slots grow to
//!       …    │     …     │     …     │           │   │   the right
//!            └───────────┴───────────┴───────────┴───┘
//!              (transpose the picture for Axis::Cols)
//! ```
//!
//! [`PlacementPlan::pack`] fills **offset-major**: every available line
//! receives a request at offset 0 before any second slot opens, so a batch
//! that fits one request per line is placed exactly like the row-only
//! scheduler placed it — and gate replays (the only cost of co-packing)
//! only appear once real line pressure exists.
//!
//! A plan is validated at construction (slots on the crossbar, pairwise
//! non-overlapping) and again by
//! [`PimDevice::run_plan`](crate::device::PimDevice::run_plan) against the
//! executing device's geometry and program, so a plan that executes is a
//! plan that was legal.

mod packer;
mod plan;

pub use plan::{Axis, PlacementPlan, Slot};
