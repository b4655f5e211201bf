//! Partition-and-route compiler: serve circuits bigger than one line.
//!
//! Every program the device layer executes must fit one crossbar line
//! after dense remap. Real netlists — the 16-bit multiplier, wide ALUs —
//! don't, so [`PimDevice::compile`](crate::device::PimDevice::compile)
//! hard-errors with
//! [`DeviceError::ProgramTooWide`](crate::device::DeviceError::ProgramTooWide).
//! This module is the escape hatch: it cuts the oversized NOR DAG into
//! line-sized parts (`pimecc_netlist::partition`), compiles each part
//! through the existing SIMPLER `map_dense` path, and records a routing
//! table saying which cut signals must be read back after one part's wave
//! and re-loaded as inputs to its dependents. The cluster layer executes
//! the resulting [`PartitionedProgram`] as dependency-ordered waves with
//! host-side routing between them — ECC pre-checks run on every wave,
//! exactly as for ordinary programs.
//!
//! Compile through
//! [`PimCluster::compile_partitioned`](crate::cluster::PimCluster::compile_partitioned)
//! or
//! [`ClusterHandle::compile_partitioned`](crate::cluster::ClusterHandle::compile_partitioned);
//! submit with the matching `submit_partitioned`. Results come back
//! through the ordinary [`Ticket`](crate::cluster::Ticket) /
//! [`ClusterOutcome`](crate::cluster::ClusterOutcome) machinery, one
//! merged result per request.
//!
//! # Example
//!
//! ```
//! use pimecc::prelude::*;
//! use pimecc::netlist::generators;
//!
//! # fn main() -> Result<(), ClusterError> {
//! // A 6x6-bit multiplier: too many gates for one 30-cell line.
//! let nor = generators::mul(6).to_nor();
//! let mut cluster = PimClusterBuilder::new(2, 30, 3).build()?;
//! let program = cluster.compile_partitioned(&nor)?;
//! assert!(program.num_parts() > 1);
//!
//! // 63 * 63 = 3969, delivered like any other submission.
//! let ticket = cluster.submit_partitioned(&program, vec![true; 12])?;
//! let outcome = cluster.flush()?;
//! let out = outcome.outputs_for(ticket).unwrap();
//! let got: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
//! assert_eq!(got, 3969);
//! # Ok(())
//! # }
//! ```

use std::hash::{Hash, Hasher};
use std::ops::Range;

use pimecc_netlist::dot::write_partition_dot;
use pimecc_netlist::partition::{partition_nor, NetlistPartition};
use pimecc_netlist::{NorNetlist, NorSource};
use pimecc_simpler::MapError;

use crate::device::{netlist_fingerprint, CompiledProgram, ProgramCache};

/// Salt separating partitioned-program fingerprints from the plain and
/// packed netlist-fingerprint domains.
const PARTITION_KEY_SALT: u64 = 0x50AB_5EC7_0A27_711E;

/// Where one value consumed (or produced) by a partitioned program comes
/// from: the host's original input vector, or an output slot of an earlier
/// part — a cut signal the scheduler reads back and re-loads between
/// waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteSource {
    /// Bit `.0` of the request's original input vector.
    Host(usize),
    /// Output `output` of sub-program `part` (an index into
    /// [`PartitionedProgram::parts`]).
    Part {
        /// Producing part index; always from a strictly lower level.
        part: usize,
        /// Output position within the producing part's readback.
        output: usize,
    },
}

/// One line-sized slice of a [`PartitionedProgram`]: a SIMPLER-compiled
/// sub-program plus the routes feeding its inputs.
#[derive(Debug, Clone)]
pub struct SubProgram {
    program: CompiledProgram,
    level: usize,
    inputs: Vec<RouteSource>,
    /// `inputs` precompiled to slots of the request's signal row.
    input_slots: Vec<usize>,
    /// Signal-row slot of this part's first output; its outputs fill the
    /// following `program.num_outputs()` slots.
    output_base: usize,
}

impl SubProgram {
    /// The compiled sub-program (dense-remapped, fits one line).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Dependency level: the wave index (within the request) this part
    /// runs in; all routed inputs come from strictly lower levels.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Where each of the sub-program's inputs comes from, in input order.
    pub fn inputs(&self) -> &[RouteSource] {
        &self.inputs
    }

    /// The signal-row slot each input is gathered from, in input order.
    pub(crate) fn input_slots(&self) -> &[usize] {
        &self.input_slots
    }

    /// The signal-row slots this part's outputs are stored to.
    pub(crate) fn output_slots(&self) -> std::ops::Range<usize> {
        self.output_base..self.output_base + self.program.num_outputs()
    }
}

/// An oversized NOR netlist compiled as a DAG of line-sized sub-programs
/// with a host-side routing table — the partition-and-route analogue of
/// [`CompiledProgram`].
///
/// Produced by
/// [`PimCluster::compile_partitioned`](crate::cluster::PimCluster::compile_partitioned)
/// /
/// [`ClusterHandle::compile_partitioned`](crate::cluster::ClusterHandle::compile_partitioned)
/// and shared behind an [`Arc`](std::sync::Arc); submit requests against
/// it with the
/// matching `submit_partitioned`. The scheduler executes the parts level
/// by level, reading cut signals back after each wave and re-loading them
/// into the dependent parts' input cells.
///
/// Routes are precompiled into one flat **signal row** per request: the
/// primary inputs first, then each part's outputs at a fixed offset, in
/// part order. Every input route and output route is a slot of that row,
/// so serving a request is gathers and copies, never a route match.
#[derive(Debug)]
pub struct PartitionedProgram {
    partition: NetlistPartition,
    parts: Vec<SubProgram>,
    outputs: Vec<RouteSource>,
    /// `outputs` precompiled to signal-row slots.
    output_slots: Vec<usize>,
    /// Length of one request's signal row.
    signal_width: usize,
    num_inputs: usize,
    max_row_size: usize,
    fingerprint: u64,
    gate_budget: usize,
}

impl PartitionedProgram {
    /// The sub-programs, sorted by level.
    pub fn parts(&self) -> &[SubProgram] {
        &self.parts
    }

    /// Part-index range of each dependency level; levels execute in
    /// order, one wave per level per flush.
    pub fn levels(&self) -> &[Range<usize>] {
        self.partition.levels()
    }

    /// Number of sub-programs.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Number of dependency levels — the sequential waves one request
    /// needs.
    pub fn num_levels(&self) -> usize {
        self.partition.num_levels()
    }

    /// Number of primary inputs each request must supply.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs each request receives.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Where each primary output comes from, in output order.
    pub fn outputs(&self) -> &[RouteSource] {
        &self.outputs
    }

    /// The signal-row slot each primary output is read from, in output
    /// order.
    pub(crate) fn output_slots(&self) -> &[usize] {
        &self.output_slots
    }

    /// Length of one request's signal row: the primary inputs plus every
    /// part's outputs.
    pub(crate) fn signal_width(&self) -> usize {
        self.signal_width
    }

    /// Total cut signals routed host-side per request (each is one
    /// readback bit plus one re-loaded input bit).
    pub fn cut_signals(&self) -> usize {
        self.partition.cut_size()
    }

    /// The widest row any sub-program occupies — must fit the executing
    /// cluster's shard rows.
    pub fn max_row_size(&self) -> usize {
        self.max_row_size
    }

    /// The gate budget per part the compiler settled on.
    pub fn gate_budget(&self) -> usize {
        self.gate_budget
    }

    /// Structural identity: one value per (netlist, row width) pair, in a
    /// domain separate from plain and packed program fingerprints. The
    /// flush scheduler groups same-fingerprint requests into shared
    /// waves.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The underlying netlist partition (part DAG, cut routing, reference
    /// [`eval`](NetlistPartition::eval)).
    pub fn partition(&self) -> &NetlistPartition {
        &self.partition
    }

    /// Renders the part DAG as a Graphviz digraph (see
    /// [`write_partition_dot`]).
    pub fn to_dot(&self, name: &str) -> String {
        write_partition_dot(&self.partition, name)
    }
}

/// Maps `source` (in the partition's global coordinates) to a route.
fn route_of(partition: &NetlistPartition, source: NorSource) -> RouteSource {
    match source {
        NorSource::Input(i) => RouteSource::Host(i),
        NorSource::Gate(g) => {
            let part = partition.part_of(g);
            let output = partition.parts()[part]
                .exports()
                .binary_search(&g)
                .expect("producer exports every cut gate");
            RouteSource::Part { part, output }
        }
    }
}

/// Partitions `netlist` and compiles every part for a `row_size`-cell
/// row, shrinking the per-part gate budget until each part's dense remap
/// fits.
///
/// # Errors
///
/// The last [`MapError`] when even single-gate parts cannot be mapped
/// (e.g. a row too narrow for a part's input count).
pub(crate) fn compile_partitioned(
    cache: &mut ProgramCache,
    netlist: &NorNetlist,
    row_size: usize,
) -> Result<PartitionedProgram, MapError> {
    let mut budget = row_size.max(1);
    loop {
        let partition = partition_nor(netlist, budget).expect("positive budget always partitions");
        match compile_parts(cache, &partition, row_size) {
            Ok((parts, signal_width)) => {
                let outputs: Vec<RouteSource> = partition
                    .outputs()
                    .iter()
                    .map(|&s| route_of(&partition, s))
                    .collect();
                let output_slots = outputs.iter().map(|&r| slot_of(&parts, r)).collect();
                let max_row_size = parts
                    .iter()
                    .map(|p: &SubProgram| p.program.program().row_size)
                    .max()
                    .unwrap_or(0);
                let mut h = std::collections::hash_map::DefaultHasher::new();
                netlist_fingerprint(netlist).hash(&mut h);
                row_size.hash(&mut h);
                h.write_u64(PARTITION_KEY_SALT);
                return Ok(PartitionedProgram {
                    num_inputs: partition.num_inputs(),
                    outputs,
                    output_slots,
                    signal_width,
                    parts,
                    max_row_size,
                    fingerprint: h.finish(),
                    gate_budget: budget,
                    partition,
                });
            }
            Err(e) if budget > 1 => {
                // A part overflowed its line: re-cut with a smaller
                // budget (successful part compiles stay cached).
                budget = (budget * 3 / 4).max(1);
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The signal-row slot `route` names, given the parts laid out so far
/// (routes only read parts of strictly lower index).
fn slot_of(parts: &[SubProgram], route: RouteSource) -> usize {
    match route {
        RouteSource::Host(i) => i,
        RouteSource::Part { part, output } => parts[part].output_base + output,
    }
}

/// Compiles every part and lays out the signal row: returns the parts,
/// their routes already resolved to slots, and the row's width.
fn compile_parts(
    cache: &mut ProgramCache,
    partition: &NetlistPartition,
    row_size: usize,
) -> Result<(Vec<SubProgram>, usize), MapError> {
    let mut parts: Vec<SubProgram> = Vec::with_capacity(partition.parts().len());
    let mut width = partition.num_inputs();
    for sub in partition.parts() {
        let program = cache.compile_packed(sub.netlist(), row_size)?;
        let inputs: Vec<RouteSource> = sub
            .inputs()
            .iter()
            .map(|&s| route_of(partition, s))
            .collect();
        let input_slots = inputs.iter().map(|&r| slot_of(&parts, r)).collect();
        let output_base = width;
        width += program.num_outputs();
        parts.push(SubProgram {
            program,
            level: sub.level(),
            inputs,
            input_slots,
            output_base,
        });
    }
    Ok((parts, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimecc_netlist::generators;

    fn compile(netlist: &NorNetlist, row_size: usize) -> PartitionedProgram {
        let mut cache = ProgramCache::default();
        compile_partitioned(&mut cache, netlist, row_size).unwrap()
    }

    #[test]
    fn every_part_fits_the_line() {
        let nor = generators::mul(8).to_nor();
        let p = compile(&nor, 30);
        assert!(p.num_parts() > 1);
        assert!(p.max_row_size() <= 30);
        for part in p.parts() {
            assert!(part.program().program().row_size <= 30);
        }
    }

    #[test]
    fn routes_are_consistent_with_levels() {
        let nor = generators::mul(6).to_nor();
        let p = compile(&nor, 30);
        for (pi, part) in p.parts().iter().enumerate() {
            assert_eq!(part.inputs().len(), part.program().num_inputs());
            for route in part.inputs() {
                if let RouteSource::Part { part: src, output } = *route {
                    assert!(src < pi, "routes flow forward");
                    assert!(p.parts()[src].level() < part.level());
                    assert!(output < p.parts()[src].program().num_outputs());
                }
            }
        }
        for route in p.outputs() {
            if let RouteSource::Part { part: src, output } = *route {
                assert!(output < p.parts()[src].program().num_outputs());
            }
        }
    }

    #[test]
    fn signal_slots_resolve_every_route() {
        let nor = generators::mul(6).to_nor();
        let p = compile(&nor, 30);
        // Part outputs tile the row after the primary inputs, in part order.
        let mut next = p.num_inputs();
        for part in p.parts() {
            let outs = part.output_slots();
            assert_eq!(outs.start, next);
            next = outs.end;
        }
        assert_eq!(next, p.signal_width());
        let slot = |route: RouteSource| match route {
            RouteSource::Host(i) => i,
            RouteSource::Part { part, output } => p.parts()[part].output_slots().start + output,
        };
        for part in p.parts() {
            let want: Vec<usize> = part.inputs().iter().map(|&r| slot(r)).collect();
            assert_eq!(part.input_slots(), want.as_slice());
        }
        let want: Vec<usize> = p.outputs().iter().map(|&r| slot(r)).collect();
        assert_eq!(p.output_slots(), want.as_slice());
        assert!(p.output_slots().iter().all(|&s| s < p.signal_width()));
    }

    #[test]
    fn fingerprint_depends_on_netlist_and_row_size() {
        let a = generators::mul(6).to_nor();
        let b = generators::mul(7).to_nor();
        let mut cache = ProgramCache::default();
        let pa = compile_partitioned(&mut cache, &a, 30).unwrap();
        let pa2 = compile_partitioned(&mut cache, &a, 30).unwrap();
        let pa_wide = compile_partitioned(&mut cache, &a, 40).unwrap();
        let pb = compile_partitioned(&mut cache, &b, 30).unwrap();
        assert_eq!(pa.fingerprint(), pa2.fingerprint());
        assert_ne!(pa.fingerprint(), pa_wide.fingerprint());
        assert_ne!(pa.fingerprint(), pb.fingerprint());
    }

    #[test]
    fn single_part_when_everything_fits() {
        let mut b = pimecc_netlist::NetlistBuilder::new();
        let x = b.input();
        let y = b.input();
        let g = b.nor(x, y);
        b.output(g);
        let nor = b.finish().to_nor();
        let p = compile(&nor, 30);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.num_levels(), 1);
        assert_eq!(p.cut_signals(), 0);
    }

    #[test]
    fn dot_export_names_the_graph() {
        let nor = generators::mul(6).to_nor();
        let p = compile(&nor, 30);
        let text = p.to_dot("mul6");
        assert!(text.starts_with("digraph mul6 {"));
        assert!(text.contains("doublecircle"));
    }
}
