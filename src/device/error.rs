//! Error type of the device execution layer.

use pimecc_core::CoreError;
use pimecc_simpler::MapError;
use std::fmt;

/// Failure of a device-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The underlying protected memory rejected an operation.
    Core(CoreError),
    /// SIMPLER could not map the netlist onto this device's rows.
    Map(MapError),
    /// A batch must contain at least one request.
    EmptyBatch,
    /// More requests than the device has rows.
    BatchTooLarge {
        /// Requests submitted.
        requests: usize,
        /// Rows available on the device.
        rows: usize,
    },
    /// The same row was assigned to two requests of one batch.
    RowConflict {
        /// The doubly assigned row.
        row: usize,
    },
    /// A requested row does not exist on this device.
    RowOutOfRange {
        /// The offending row index.
        row: usize,
        /// Device dimension.
        n: usize,
    },
    /// A request's input vector does not match the program arity.
    InputArity {
        /// Index of the offending request within the batch.
        request: usize,
        /// Bits supplied.
        got: usize,
        /// Bits the program expects.
        want: usize,
    },
    /// The compiled program was mapped for a wider row than this device has.
    ProgramTooWide {
        /// Row size the program was mapped for.
        row_size: usize,
        /// Cells one request actually occupies after dense remap — the
        /// post-remap footprint that has to fit the line.
        footprint: usize,
        /// Device dimension.
        n: usize,
    },
    /// `rows` and `requests` arguments of different lengths.
    PlacementArity {
        /// Rows supplied.
        rows: usize,
        /// Requests supplied.
        requests: usize,
    },
    /// A placement plan must reserve at least one cell per slot.
    ZeroSlotWidth,
    /// A slot sticks out past the end of its line.
    OffsetOutOfRange {
        /// Line the slot lives on.
        line: usize,
        /// First cell of the slot.
        offset: usize,
        /// Cells the slot reserves.
        slot_width: usize,
        /// Line length of the device.
        n: usize,
    },
    /// The plan's slots are narrower than the program's footprint.
    SlotTooNarrow {
        /// Cells each slot reserves.
        slot_width: usize,
        /// Cells the program touches.
        footprint: usize,
    },
    /// The plan was built for a different crossbar geometry.
    PlanGeometry {
        /// Line length the plan was built for.
        plan: usize,
        /// Line length of the device.
        n: usize,
    },
    /// A builder asked for retirement after zero strikes — every line
    /// would be dead on arrival.
    ZeroRetireAfter,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Core(e) => write!(f, "protected memory error: {e}"),
            DeviceError::Map(e) => write!(f, "mapping failed: {e}"),
            DeviceError::EmptyBatch => write!(f, "batch contains no requests"),
            DeviceError::BatchTooLarge { requests, rows } => {
                write!(f, "{requests} requests exceed the device's {rows} rows")
            }
            DeviceError::RowConflict { row } => {
                write!(f, "row {row} assigned to more than one request")
            }
            DeviceError::RowOutOfRange { row, n } => {
                write!(f, "row {row} out of range for a {n}x{n} device")
            }
            DeviceError::InputArity { request, got, want } => {
                write!(
                    f,
                    "request {request} supplies {got} input bits, program expects {want}"
                )
            }
            DeviceError::ProgramTooWide {
                row_size,
                footprint,
                n,
            } => {
                write!(
                    f,
                    "program mapped for a {row_size}-cell row (post-remap footprint \
                     {footprint} cells) exceeds the {n}-cell device; circuits bigger \
                     than one line can be served via the partitioned-compile API \
                     (PimCluster::compile_partitioned / submit_partitioned)"
                )
            }
            DeviceError::PlacementArity { rows, requests } => {
                write!(f, "{rows} rows given for {requests} requests")
            }
            DeviceError::ZeroSlotWidth => write!(f, "slot width must be at least one cell"),
            DeviceError::OffsetOutOfRange {
                line,
                offset,
                slot_width,
                n,
            } => {
                write!(
                    f,
                    "slot at offset {offset} (width {slot_width}) on line {line} \
                     exceeds the {n}-cell lines"
                )
            }
            DeviceError::SlotTooNarrow {
                slot_width,
                footprint,
            } => {
                write!(
                    f,
                    "{slot_width}-cell slots cannot hold a program touching {footprint} cells"
                )
            }
            DeviceError::PlanGeometry { plan, n } => {
                write!(
                    f,
                    "plan built for {plan}-cell lines executed on a {n}x{n} device"
                )
            }
            DeviceError::ZeroRetireAfter => {
                write!(f, "retirement threshold must be at least one strike")
            }
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Core(e) => Some(e),
            DeviceError::Map(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for DeviceError {
    fn from(e: CoreError) -> Self {
        DeviceError::Core(e)
    }
}

impl From<MapError> for DeviceError {
    fn from(e: MapError) -> Self {
        DeviceError::Map(e)
    }
}
