//! Fabric utilization accounting ("heat").
//!
//! [`FabricHeat`] is an allocation-free-in-steady-state accumulator of
//! per-row and per-unit-class activity across array invocations. It is
//! fed once per invocation by [`FabricHeat::record`], which derives the
//! invocation's cycle spans and a [`FabricSample`] in the same pass
//! over the configuration, so the accounting reconciles *exactly* with
//! the cycles charged:
//!
//! **Conservation law.** For every invocation executed to `upto_depth`:
//!
//! * the returned spans equal
//!   `config.invocation_cycles(timing, upto_depth)` (the reference
//!   model), and `sample.exec_cycles` equals their `exec` — the per-row
//!   thirds summed here round to the cycles the system charges, so
//!   across a run
//!   `heat.exec_cycles + heat.residual_cycles` equals the system's
//!   array-execution attribution exactly.
//! * `busy_thirds[c] <= capacity_thirds[c]` for every unit class on
//!   finite shapes: a row's occupied units can never exceed the row's
//!   physical units, and both sides integrate over the same row
//!   windows.
//!
//! Row-window model: row `r` of a traversal contributes a window of
//! `timing.row_thirds(kind(r))` thirds (zero for empty rows). A unit in
//! row `r` is *busy* for that window when occupied, and *available* for
//! that window always; units outside the traversed span contribute
//! nothing. Fabric utilization is `Σ busy / Σ capacity` over all
//! classes.

use dim_mips::FuClass;

use crate::config::{Configuration, InvocationCycles};
use crate::timing::ArrayTiming;

/// Number of unit classes tracked ([`UNIT_CLASS_NAMES`]).
pub const UNIT_CLASSES: usize = 3;

/// Dense names for the tracked unit classes, indexed by
/// [`unit_class_index`].
pub const UNIT_CLASS_NAMES: [&str; UNIT_CLASSES] = ["alu", "mult", "ldst"];

/// Rows tracked individually; activity in deeper rows (no Table 1 shape
/// exceeds 150) folds into one overflow bucket so the accumulator stays
/// bounded.
pub const FABRIC_TRACKED_ROWS: usize = 256;

/// Dense index of a functional-unit class, `None` for
/// [`FuClass::Unsupported`] (which never appears in a placed op).
pub fn unit_class_index(class: FuClass) -> Option<usize> {
    match class {
        FuClass::Alu | FuClass::Branch => Some(0),
        FuClass::Multiplier => Some(1),
        FuClass::LoadStore => Some(2),
        FuClass::Unsupported => None,
    }
}

/// Accumulated activity of one fabric row across invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowHeat {
    /// Invocations whose traversed span included this row.
    pub traversals: u64,
    /// Σ row-window thirds over those traversals (0 while the row was
    /// empty).
    pub active_thirds: u64,
    /// Σ occupied-unit × window thirds per class.
    pub busy_thirds: [u64; UNIT_CLASSES],
    /// Operations issued (confirmed, depth ≤ executed depth) per class.
    pub issued: [u64; UNIT_CLASSES],
    /// Operations configured but squashed by misspeculation.
    pub squashed: u64,
}

impl RowHeat {
    fn merge(&mut self, other: &RowHeat) {
        self.traversals = self.traversals.saturating_add(other.traversals);
        self.active_thirds = self.active_thirds.saturating_add(other.active_thirds);
        for c in 0..UNIT_CLASSES {
            self.busy_thirds[c] = self.busy_thirds[c].saturating_add(other.busy_thirds[c]);
            self.issued[c] = self.issued[c].saturating_add(other.issued[c]);
        }
        self.squashed = self.squashed.saturating_add(other.squashed);
    }
}

/// One invocation's worth of fabric activity, as recorded into a
/// [`FabricHeat`] — also the payload of the schema-v4 `fabric` trace
/// record (`dim_obs::FabricUtil`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricSample {
    /// Rows traversed (`last_row + 1`; 0 when nothing executed).
    pub rows: u32,
    /// Σ row-window thirds over the traversed span.
    pub exec_thirds: u64,
    /// `exec_thirds` rounded up to cycles — equals
    /// `Configuration::exec_cycles` for the same depth by construction.
    pub exec_cycles: u64,
    /// Σ physical-unit × window thirds over the traversed span, all
    /// classes; 0 on infinite shapes (utilization undefined there).
    pub capacity_thirds: u64,
    /// Σ occupied-unit × window thirds per class.
    pub busy_thirds: [u64; UNIT_CLASSES],
    /// Operations confirmed (depth ≤ executed depth).
    pub issued_ops: u32,
    /// Operations configured but squashed by misspeculation.
    pub squashed_ops: u32,
    /// Array-execution cycles charged outside the row model this
    /// invocation: memory stalls + misspeculation penalty.
    pub residual_cycles: u64,
    /// Write-backs performed (depth ≤ executed depth).
    pub writeback_writes: u32,
    /// Write-back port-slots available: `rf_write_ports × (exec + tail)`
    /// cycles. `writes ≤ slots` always, so saturation stays in `[0, 1]`.
    pub writeback_slots: u64,
}

/// Run-level fabric utilization accumulator, owned by the coupled
/// system next to `DimStats`. All counters saturate; `merge` combines
/// shards the same way `DimStats::merge` does for sweep aggregation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricHeat {
    rows: Vec<RowHeat>,
    overflow: RowHeat,
    /// Deepest row index ever traversed (for display; may exceed the
    /// tracked range).
    pub max_row: u64,
    /// Array invocations recorded.
    pub invocations: u64,
    /// Σ per-invocation `exec_thirds`.
    pub exec_thirds: u64,
    /// Σ per-invocation `exec_cycles` (post-rounding, so it reconciles
    /// exactly with the system's array-exec attribution minus
    /// `residual_cycles`).
    pub exec_cycles: u64,
    /// Σ per-invocation residual (memory stall + misspeculation
    /// penalty) cycles.
    pub residual_cycles: u64,
    /// Σ busy unit-thirds per class.
    pub busy_thirds: [u64; UNIT_CLASSES],
    /// Σ available unit-thirds per class (0 on infinite shapes).
    pub capacity_thirds: [u64; UNIT_CLASSES],
    /// Operations confirmed per class.
    pub issued_ops: [u64; UNIT_CLASSES],
    /// Operations squashed by misspeculation.
    pub squashed_ops: u64,
    /// Write-backs performed.
    pub writeback_writes: u64,
    /// Write-back port-slots available.
    pub writeback_slots: u64,
}

impl FabricHeat {
    /// Fresh, empty accumulator.
    pub fn new() -> FabricHeat {
        FabricHeat::default()
    }

    /// Tracked per-row heat, index = row; activity beyond
    /// [`FABRIC_TRACKED_ROWS`] is in [`overflow`](FabricHeat::overflow_row).
    pub fn rows(&self) -> &[RowHeat] {
        &self.rows
    }

    /// Folded activity of rows ≥ [`FABRIC_TRACKED_ROWS`].
    pub fn overflow_row(&self) -> &RowHeat {
        &self.overflow
    }

    fn row_mut(&mut self, row: usize) -> &mut RowHeat {
        if row < FABRIC_TRACKED_ROWS {
            if row >= self.rows.len() {
                self.rows.resize(row + 1, RowHeat::default());
            }
            &mut self.rows[row]
        } else {
            &mut self.overflow
        }
    }

    /// Records one array invocation executed to `upto_depth` and
    /// returns the cycles it is charged together with its fabric
    /// sample. Both come from one pass over the ops, one over the
    /// traversed rows and one over the write-backs, so the spans equal
    /// [`Configuration::invocation_cycles`] by construction and the
    /// occupancy is read from the same row state. `residual_cycles` is
    /// the invocation's array-exec time not produced by the row model
    /// (memory stalls + misspeculation penalty).
    pub fn record(
        &mut self,
        config: &Configuration,
        timing: &ArrayTiming,
        upto_depth: u8,
        residual_cycles: u64,
    ) -> (InvocationCycles, FabricSample) {
        let mut sample = FabricSample {
            residual_cycles,
            ..FabricSample::default()
        };
        let shape = *config.shape();
        let finite = !shape.is_infinite();
        let per_row_capacity: [u64; UNIT_CLASSES] = if finite {
            [
                shape.units_per_row(FuClass::Alu) as u64,
                shape.units_per_row(FuClass::Multiplier) as u64,
                shape.units_per_row(FuClass::LoadStore) as u64,
            ]
        } else {
            [0; UNIT_CLASSES]
        };

        // Ops: issued/squashed counts and the last row the run traverses.
        let mut last_row: Option<usize> = None;
        for op in config.ops() {
            let issued = op.depth <= upto_depth;
            if issued {
                last_row = last_row.max(Some(op.row as usize));
            }
            let Some(c) = unit_class_index(op.class) else {
                continue;
            };
            let heat = self.row_mut(op.row as usize);
            if issued {
                sample.issued_ops += 1;
                heat.issued[c] = heat.issued[c].saturating_add(1);
                self.issued_ops[c] = self.issued_ops[c].saturating_add(1);
            } else {
                sample.squashed_ops += 1;
                heat.squashed = heat.squashed.saturating_add(1);
            }
        }

        // Rows: windows, busy and capacity over the traversed span.
        if let Some(last_row) = last_row {
            sample.rows = (last_row + 1) as u32;
            for occ in config.row_occupancy().take(last_row + 1) {
                let window = occ.kind.map_or(0, |k| timing.row_thirds(k));
                sample.exec_thirds += window;
                let busy = [occ.alus as u64, occ.mults as u64, occ.ldsts as u64];
                for c in 0..UNIT_CLASSES {
                    sample.busy_thirds[c] += busy[c] * window;
                    sample.capacity_thirds += per_row_capacity[c] * window;
                }
                let heat = self.row_mut(occ.row as usize);
                heat.traversals = heat.traversals.saturating_add(1);
                heat.active_thirds = heat.active_thirds.saturating_add(window);
                for (c, &b) in busy.iter().enumerate() {
                    heat.busy_thirds[c] = heat.busy_thirds[c].saturating_add(b * window);
                }
            }
            self.max_row = self.max_row.max(last_row as u64);
        }
        sample.exec_cycles = timing.thirds_to_cycles(sample.exec_thirds);

        // Write-backs: those pending at a depth the run confirmed.
        sample.writeback_writes = config
            .writebacks()
            .filter(|&(_, d)| d <= upto_depth)
            .count() as u32;
        let ports = shape.rf_write_ports.max(1) as u64;
        let spans = InvocationCycles {
            stall: config.reconfig_stall_cycles(timing),
            exec: sample.exec_cycles,
            tail: (sample.writeback_writes as u64)
                .div_ceil(ports)
                .saturating_sub(sample.exec_cycles),
        };
        sample.writeback_slots = ports * (spans.exec + spans.tail);

        self.invocations = self.invocations.saturating_add(1);
        self.exec_thirds = self.exec_thirds.saturating_add(sample.exec_thirds);
        self.exec_cycles = self.exec_cycles.saturating_add(sample.exec_cycles);
        self.residual_cycles = self.residual_cycles.saturating_add(residual_cycles);
        for (c, &cap) in per_row_capacity.iter().enumerate() {
            self.busy_thirds[c] = self.busy_thirds[c].saturating_add(sample.busy_thirds[c]);
            self.capacity_thirds[c] =
                self.capacity_thirds[c].saturating_add(cap * sample.exec_thirds);
        }
        self.squashed_ops = self.squashed_ops.saturating_add(sample.squashed_ops as u64);
        self.writeback_writes = self
            .writeback_writes
            .saturating_add(sample.writeback_writes as u64);
        self.writeback_slots = self.writeback_slots.saturating_add(sample.writeback_slots);
        (spans, sample)
    }

    /// Folds `other` into `self` (sweep shard aggregation). Saturating,
    /// like `DimStats::merge`.
    pub fn merge(&mut self, other: &FabricHeat) {
        for (row, heat) in other.rows.iter().enumerate() {
            self.row_mut(row).merge(heat);
        }
        self.overflow.merge(&other.overflow);
        self.max_row = self.max_row.max(other.max_row);
        self.invocations = self.invocations.saturating_add(other.invocations);
        self.exec_thirds = self.exec_thirds.saturating_add(other.exec_thirds);
        self.exec_cycles = self.exec_cycles.saturating_add(other.exec_cycles);
        self.residual_cycles = self.residual_cycles.saturating_add(other.residual_cycles);
        for c in 0..UNIT_CLASSES {
            self.busy_thirds[c] = self.busy_thirds[c].saturating_add(other.busy_thirds[c]);
            self.capacity_thirds[c] =
                self.capacity_thirds[c].saturating_add(other.capacity_thirds[c]);
            self.issued_ops[c] = self.issued_ops[c].saturating_add(other.issued_ops[c]);
        }
        self.squashed_ops = self.squashed_ops.saturating_add(other.squashed_ops);
        self.writeback_writes = self.writeback_writes.saturating_add(other.writeback_writes);
        self.writeback_slots = self.writeback_slots.saturating_add(other.writeback_slots);
    }

    /// Total busy unit-thirds across classes.
    pub fn total_busy_thirds(&self) -> u64 {
        self.busy_thirds.iter().sum()
    }

    /// Total available unit-thirds across classes (0 when every
    /// invocation ran on an infinite shape).
    pub fn total_capacity_thirds(&self) -> u64 {
        self.capacity_thirds.iter().sum()
    }

    /// Whole-fabric utilization in `[0, 1]`; `None` when capacity is
    /// unknown (infinite shape or nothing executed).
    pub fn fabric_util(&self) -> Option<f64> {
        ratio(self.total_busy_thirds(), self.total_capacity_thirds())
    }

    /// Per-class utilization in `[0, 1]`; `None` as for
    /// [`fabric_util`](FabricHeat::fabric_util).
    pub fn class_util(&self, class: usize) -> Option<f64> {
        ratio(self.busy_thirds[class], self.capacity_thirds[class])
    }

    /// Fraction of write-back port-slots actually used, in `[0, 1]`;
    /// `None` before any invocation.
    pub fn writeback_saturation(&self) -> Option<f64> {
        ratio(self.writeback_writes, self.writeback_slots)
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    if den == 0 {
        None
    } else {
        Some(num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ArrayShape;
    use dim_mips::{AluOp, DataLoc, Instruction, Reg};

    fn alu_inst() -> Instruction {
        Instruction::Alu {
            op: AluOp::Addu,
            rd: Reg::T0,
            rs: Reg::T0,
            rt: Reg::A1,
        }
    }

    fn sample_config(shape: ArrayShape) -> Configuration {
        let mut c = Configuration::new(0x100, shape);
        // Three dependent ALU ops forced into distinct rows via min_row.
        for i in 0..3u32 {
            c.place(0x100 + 4 * i, alu_inst(), 0, i as usize).unwrap();
        }
        c.finish_segment(0, None, 0x10c);
        c
    }

    #[test]
    fn record_matches_exec_cycles_and_caps_busy() {
        let timing = ArrayTiming::default();
        let shape = ArrayShape::config1();
        let mut c = sample_config(shape);
        c.note_writeback(DataLoc::Gpr(Reg::T0), 0);
        let mut heat = FabricHeat::new();
        let (spans, sample) = heat.record(&c, &timing, 0, 0);
        assert_eq!(spans, c.invocation_cycles(&timing, 0));
        assert_eq!(sample.exec_cycles, c.exec_cycles(&timing, 0));
        assert_eq!(sample.rows, 3);
        assert_eq!(sample.issued_ops, 3);
        assert_eq!(sample.squashed_ops, 0);
        // 3 rows × 1 third each, one ALU busy per row.
        assert_eq!(sample.exec_thirds, 3);
        assert_eq!(sample.busy_thirds, [3, 0, 0]);
        for c in 0..UNIT_CLASSES {
            assert!(heat.busy_thirds[c] <= heat.capacity_thirds[c]);
        }
        assert_eq!(heat.exec_cycles + heat.residual_cycles, sample.exec_cycles);
        assert_eq!(sample.writeback_writes, 1);
        assert!(u64::from(sample.writeback_writes) <= sample.writeback_slots);
        assert_eq!(heat.rows().len(), 3);
        assert_eq!(heat.rows()[0].traversals, 1);
        assert_eq!(heat.rows()[0].issued, [1, 0, 0]);
    }

    /// Spans match the reference at every depth, including a squashed
    /// deeper segment, a write-back tail past the execution window and
    /// a visible reconfiguration stall.
    #[test]
    fn record_spans_match_reference_at_every_depth() {
        let timing = ArrayTiming::default();
        let mut c = Configuration::new(0x100, ArrayShape::config1());
        c.place(0x100, alu_inst(), 0, 0).unwrap();
        c.finish_segment(0, None, 0x104);
        c.place(0x104, alu_inst(), 1, 1).unwrap();
        c.place(0x108, alu_inst(), 1, 2).unwrap();
        c.finish_segment(1, None, 0x10c);
        // Eight write-backs pending at depth 0 need two port cycles
        // against a one-cycle window, and one more at depth 1 a third;
        // nine live-ins need three fetch cycles, one more than the
        // pipeline hides.
        let regs = [
            Reg::T0,
            Reg::T1,
            Reg::T2,
            Reg::T3,
            Reg::T4,
            Reg::T5,
            Reg::T6,
            Reg::T7,
            Reg::T8,
        ];
        for (i, &r) in regs.iter().enumerate() {
            c.note_writeback(DataLoc::Gpr(r), u8::from(i == 8));
            c.note_live_in(DataLoc::Gpr(r));
        }
        let mut heat = FabricHeat::new();
        let (shallow, sample) = heat.record(&c, &timing, 0, 0);
        assert_eq!(shallow, c.invocation_cycles(&timing, 0));
        assert_eq!((sample.issued_ops, sample.squashed_ops), (1, 2));
        assert_eq!((shallow.stall, shallow.tail), (1, 1));
        let (deep, sample) = heat.record(&c, &timing, 1, 0);
        assert_eq!(deep, c.invocation_cycles(&timing, 1));
        assert_eq!((sample.issued_ops, sample.squashed_ops), (3, 0));
        assert_eq!(heat.rows()[2].squashed, 1);
    }

    #[test]
    fn infinite_shape_has_no_capacity() {
        let timing = ArrayTiming::default();
        let c = sample_config(ArrayShape::infinite());
        let mut heat = FabricHeat::new();
        let (_, sample) = heat.record(&c, &timing, 0, 0);
        assert_eq!(sample.capacity_thirds, 0);
        assert_eq!(heat.fabric_util(), None);
        assert!(sample.exec_cycles > 0);
    }

    #[test]
    fn merge_matches_sequential_record() {
        let timing = ArrayTiming::default();
        let c = sample_config(ArrayShape::config1());
        let mut a = FabricHeat::new();
        a.record(&c, &timing, 0, 2);
        a.record(&c, &timing, 0, 0);
        let mut b1 = FabricHeat::new();
        b1.record(&c, &timing, 0, 2);
        let mut b2 = FabricHeat::new();
        b2.record(&c, &timing, 0, 0);
        b1.merge(&b2);
        assert_eq!(a, b1);
    }

    #[test]
    fn overflow_bucket_catches_deep_rows() {
        let mut heat = FabricHeat::new();
        heat.row_mut(FABRIC_TRACKED_ROWS + 5).traversals = 7;
        assert_eq!(heat.overflow_row().traversals, 7);
        assert!(heat.rows().len() <= FABRIC_TRACKED_ROWS);
    }
}
