//! Error type of the cluster submission layer.

use crate::device::DeviceError;
use pimecc_simpler::MapError;
use std::fmt;

/// Failure of a cluster-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A cluster needs at least one shard.
    NoShards,
    /// The per-wave batch limit must admit at least one row.
    ZeroBatchLimit,
    /// The auto-flush threshold must admit at least one pending request.
    ZeroFlushThreshold,
    /// The per-line co-packing limit must admit at least one request.
    ZeroPackLimit,
    /// The auto-flush deadline must be a positive duration.
    ZeroFlushDeadline,
    /// The submission-queue bound must admit at least one in-flight
    /// request.
    ZeroQueueLimit,
    /// The background scrub period must be a positive duration.
    ZeroScrubPeriod,
    /// Recovery must require at least one clean scrub.
    ZeroRecoveryScrubs,
    /// A knob that only affects the spawned service was set on a cluster
    /// built synchronously (use [`PimClusterBuilder::spawn`] instead of
    /// `build`).
    ///
    /// [`PimClusterBuilder::spawn`]: crate::cluster::PimClusterBuilder::spawn
    ServiceOnly {
        /// Name of the offending builder knob.
        knob: &'static str,
    },
    /// The service was closed: the operation arrived after
    /// [`ClusterHandle::close`](crate::cluster::ClusterHandle::close) (or
    /// after every handle was dropped).
    Closed,
    /// A bounded service queue is full
    /// ([`queue_limit`](crate::cluster::PimClusterBuilder::queue_limit))
    /// and the caller asked not to wait
    /// ([`try_submit`](crate::cluster::ClusterHandle::try_submit)).
    Saturated {
        /// The queue bound in force.
        limit: usize,
    },
    /// The service's worker thread panicked; the pool and all unserved
    /// submissions are lost.
    WorkerPoisoned,
    /// A waited ticket will never be served: its submission was dropped
    /// (its flush failed before dispatching it) or its result was already
    /// claimed by an earlier wait or drain.
    TicketUnserved {
        /// Sequence number of the unserved ticket.
        ticket: u64,
    },
    /// A request was dead-lettered: every allowed attempt executed on
    /// lines with uncorrectable ECC verdicts, so no verified-correct
    /// output exists. The request itself is well-formed — resubmitting it
    /// is safe and, after the struck lines retire, usually succeeds.
    RequestFailed {
        /// Sequence number of the failed ticket.
        ticket: u64,
        /// Attempts made before giving up (`1 + max_retries`).
        attempts: u32,
    },
    /// The line-retirement threshold must be at least one strike
    /// (leave [`retire_after`](crate::cluster::PimClusterBuilder::retire_after)
    /// unset to disable retirement instead).
    ZeroRetireAfter,
    /// [`shard_geometries`](crate::cluster::PimClusterBuilder::shard_geometries)
    /// was given a different number of geometries than the cluster has
    /// shards.
    GeometryArity {
        /// Geometries supplied.
        geometries: usize,
        /// Shards the cluster was configured with.
        shards: usize,
    },
    /// A per-shard policy override names a shard the cluster does not have.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// Shards the cluster was configured with.
        shards: usize,
    },
    /// SIMPLER could not map the netlist onto the shards' rows.
    Map(MapError),
    /// A submitted program was mapped for a wider row than the shards have.
    ProgramTooWide {
        /// Row size the program was mapped for.
        row_size: usize,
        /// Shard dimension.
        n: usize,
    },
    /// A submission's input vector does not match the program arity.
    InputArity {
        /// Bits supplied.
        got: usize,
        /// Bits the program expects.
        want: usize,
    },
    /// A shard failed while building or executing a dispatched batch.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// The device-level failure.
        source: DeviceError,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoShards => write!(f, "cluster configured with zero shards"),
            ClusterError::ZeroBatchLimit => write!(f, "batch limit must be at least one row"),
            ClusterError::ZeroFlushThreshold => {
                write!(f, "auto-flush threshold must be at least one request")
            }
            ClusterError::ZeroPackLimit => {
                write!(f, "pack limit must admit at least one request per line")
            }
            ClusterError::ZeroFlushDeadline => {
                write!(f, "auto-flush deadline must be a positive duration")
            }
            ClusterError::ZeroQueueLimit => {
                write!(f, "queue limit must admit at least one in-flight request")
            }
            ClusterError::ZeroScrubPeriod => {
                write!(f, "scrub period must be a positive duration")
            }
            ClusterError::ZeroRecoveryScrubs => {
                write!(f, "recovery must require at least one clean scrub")
            }
            ClusterError::ServiceOnly { knob } => {
                write!(
                    f,
                    "`{knob}` only affects the spawned service; use `spawn()` instead of `build()`"
                )
            }
            ClusterError::Closed => write!(f, "the cluster service is closed"),
            ClusterError::Saturated { limit } => {
                write!(f, "service queue is full ({limit} requests in flight)")
            }
            ClusterError::WorkerPoisoned => {
                write!(f, "the cluster service's worker thread panicked")
            }
            ClusterError::TicketUnserved { ticket } => {
                write!(
                    f,
                    "ticket#{ticket} will never be served (dropped by a failed flush or already claimed)"
                )
            }
            ClusterError::RequestFailed { ticket, attempts } => {
                write!(
                    f,
                    "ticket#{ticket} failed after {attempts} attempt(s): every attempt \
                     landed on lines with uncorrectable ECC verdicts and no \
                     verified-correct output exists (safe to resubmit)"
                )
            }
            ClusterError::ZeroRetireAfter => {
                write!(f, "retirement threshold must be at least one strike")
            }
            ClusterError::GeometryArity { geometries, shards } => {
                write!(
                    f,
                    "{geometries} shard geometries supplied for a {shards}-shard cluster"
                )
            }
            ClusterError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range for a {shards}-shard cluster")
            }
            ClusterError::Map(e) => write!(f, "mapping failed: {e}"),
            ClusterError::ProgramTooWide { row_size, n } => {
                write!(
                    f,
                    "program mapped for a {row_size}-cell row exceeds the {n}-cell \
                     shards; oversized circuits can be served partitioned \
                     (compile_partitioned / submit_partitioned)"
                )
            }
            ClusterError::InputArity { got, want } => {
                write!(
                    f,
                    "submission supplies {got} input bits, program expects {want}"
                )
            }
            ClusterError::Shard { shard, source } => {
                write!(f, "shard {shard} failed: {source}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Map(e) => Some(e),
            ClusterError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<MapError> for ClusterError {
    fn from(e: MapError) -> Self {
        ClusterError::Map(e)
    }
}
