//! # dim-core
//!
//! Dynamic Instruction Merging (DIM): a hardware binary-translation
//! engine that transparently maps sequences of MIPS instructions onto a
//! coarse-grained reconfigurable array at run time — the primary
//! contribution of *Beck et al., "Transparent Reconfigurable Acceleration
//! for Heterogeneous Embedded Applications", DATE 2008*.
//!
//! The crate provides the paper's §4 machinery:
//!
//! * [`DependenceTable`] — the per-row RAW-dependence bitmaps driving
//!   operation allocation;
//! * [`Translator`] — the detection/translation state machine that turns
//!   the retiring instruction stream into array
//!   [`Configuration`](dim_cgra::Configuration)s;
//! * [`BimodalPredictor`] — 2-bit counters gating speculation across
//!   basic blocks (a [`GsharePredictor`] is provided for ablations);
//! * [`ReconfCache`] — the PC-indexed FIFO reconfiguration cache;
//! * [`System`] — the coupled MIPS + DIM + array simulator with full
//!   cycle and event accounting.
//!
//! The cardinal invariant, enforced by differential and property tests:
//! for any program and any accelerator setting, the final architectural
//! state equals a plain processor run — acceleration only changes cycle
//! counts.

#![warn(missing_docs)]

mod gshare;
mod predictor;
mod rcache;
mod report;
mod snapshot;
mod stats;
mod system;
mod tables;
mod trace;
mod translator;

pub use dim_cgra::{
    verify_cert, StreamAccess, StreamAccessKind, StreamCertError, StreamCertViolation, StreamClass,
    StreamingCert, STREAM_BURST_CAP, STREAM_CERT_VERSION,
};
pub use dim_cgra::{FabricHeat, FabricSample, RowHeat, UNIT_CLASSES, UNIT_CLASS_NAMES};
/// The workspace's shared FNV-1a 64-bit hash — the one checksum used by
/// `.dimrc` snapshots, the sweep resume journal, and the live status
/// file. Canonically defined (and golden-vector tested) in `dim-obs`.
pub use dim_obs::fnv1a64;
/// The workspace's shared magic/version/len/fnv64 framing — one helper
/// behind `.dimrc` snapshots and `status.dimstat`, so the two formats
/// cannot drift. Canonically defined (and golden-vector tested) in
/// `dim-obs`.
pub use dim_obs::frame;
pub use gshare::{measure_hit_rate, GsharePredictor, SpeculationPredictor};
pub use predictor::{BimodalPredictor, Counter};
pub use rcache::{EvictedEntry, ReconfCache, ReplacementPolicy};
pub use report::{fabric_heat_json, RunReport};
pub use snapshot::{
    SnapshotContents, SnapshotError, SNAPSHOT_FRAME, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use stats::{CycleBreakdown, DimStats};
pub use system::{System, SystemConfig};
pub use tables::{live_in_sources, DependenceTable};
pub use trace::{Trace, TraceEvent};
pub use translator::{Translator, TranslatorOptions};
