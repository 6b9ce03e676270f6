//! Array configurations: placed operations, speculation segments, timing.

use crate::{ArrayShape, ArrayTiming, RowKind};
use dim_mips::{DataLoc, FuClass, Instruction};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One operation placed at a row/column intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedOp {
    /// Address of the original instruction.
    pub pc: u32,
    /// The original instruction (kept for replay and disassembly).
    pub inst: Instruction,
    /// Row (level) the operation was allocated to.
    pub row: u32,
    /// Column within the row's group for its unit class.
    pub col: u32,
    /// Functional-unit class occupied.
    pub class: FuClass,
    /// Speculation depth: 0 for the first basic block, 1 for the first
    /// speculated block, ...
    pub depth: u8,
}

/// The branch terminating a speculation segment, evaluated inside the
/// array as a gating compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentBranch {
    /// PC of the branch instruction.
    pub pc: u32,
    /// The branch itself.
    pub inst: Instruction,
    /// Predicted direction this configuration was built for.
    pub predicted_taken: bool,
    /// Target when taken.
    pub taken_pc: u32,
    /// Fall-through address.
    pub fall_pc: u32,
}

impl SegmentBranch {
    /// The address execution continues at when the prediction holds.
    pub fn predicted_pc(&self) -> u32 {
        if self.predicted_taken {
            self.taken_pc
        } else {
            self.fall_pc
        }
    }

    /// The address execution continues at when the prediction fails.
    pub fn mispredicted_pc(&self) -> u32 {
        if self.predicted_taken {
            self.fall_pc
        } else {
            self.taken_pc
        }
    }
}

/// One basic block covered by a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Speculation depth of this block (0 = non-speculative).
    pub depth: u8,
    /// Index of the segment's first op in [`Configuration::ops`].
    pub start: usize,
    /// Number of ops in the segment (including its branch, if any).
    pub len: usize,
    /// The terminating branch when the segment is speculated over (or is
    /// the last covered block ending in a translated branch).
    pub branch: Option<SegmentBranch>,
    /// PC after the segment when no branch decides it (sequential exit).
    pub exit_pc: u32,
}

/// One row's unit occupancy, as seen by the heat/observability layer.
///
/// Mirrors the private allocation bookkeeping the placer maintains, so
/// utilization accounting ([`crate::FabricHeat`]) and the cycle model
/// ([`Configuration::exec_cycles`]) read the same row state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowOccupancy {
    /// Row (level) index.
    pub row: u32,
    /// ALU/shifter/comparator units occupied.
    pub alus: u32,
    /// Multiplier units occupied.
    pub mults: u32,
    /// Load/store units occupied.
    pub ldsts: u32,
    /// Delay-dominating kind of the row (`None` for an empty row).
    pub kind: Option<RowKind>,
}

impl RowOccupancy {
    /// Total units occupied in the row.
    pub fn units(&self) -> u32 {
        self.alus + self.mults + self.ldsts
    }
}

/// The three cycle spans charged for one array invocation: the
/// reconfiguration stall visible to the processor, row execution, and
/// the non-overlapped write-back tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvocationCycles {
    /// Reconfiguration stall cycles.
    pub stall: u64,
    /// Row-execution cycles.
    pub exec: u64,
    /// Write-back cycles not overlapped with execution.
    pub tail: u64,
}

impl InvocationCycles {
    /// All cycles across the three spans.
    pub fn total(&self) -> u64 {
        self.stall + self.exec + self.tail
    }
}

/// Why an operation could not be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// No free unit of the required class in any allowed row.
    Full,
    /// The instruction class cannot execute in the array.
    Unsupported,
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Full => write!(f, "array configuration is full"),
            PlaceError::Unsupported => write!(f, "instruction class not supported by the array"),
        }
    }
}

impl std::error::Error for PlaceError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RowUsage {
    alus: u32,
    mults: u32,
    ldsts: u32,
}

impl RowUsage {
    fn used(&self, class: FuClass) -> u32 {
        match class {
            FuClass::Alu | FuClass::Branch => self.alus,
            FuClass::Multiplier => self.mults,
            FuClass::LoadStore => self.ldsts,
            FuClass::Unsupported => u32::MAX,
        }
    }

    fn take(&mut self, class: FuClass) -> u32 {
        let slot = match class {
            FuClass::Alu | FuClass::Branch => &mut self.alus,
            FuClass::Multiplier => &mut self.mults,
            FuClass::LoadStore => &mut self.ldsts,
            FuClass::Unsupported => unreachable!("checked by caller"),
        };
        let col = *slot;
        *slot += 1;
        col
    }

    fn kind(&self) -> Option<RowKind> {
        if self.ldsts > 0 {
            Some(RowKind::LoadStore)
        } else if self.mults > 0 {
            Some(RowKind::Mult)
        } else if self.alus > 0 {
            Some(RowKind::Alu)
        } else {
            None
        }
    }
}

/// A translated array configuration: the unit of storage in the
/// reconfiguration cache and the unit of execution on the array.
///
/// Built incrementally by the DIM translator (`dim-core`); this type owns
/// the structural side — placement against an [`ArrayShape`], speculation
/// segments, live-in/write-back sets — and the timing queries derived
/// from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// PC of the first covered instruction (the cache index).
    pub entry_pc: u32,
    shape: ArrayShape,
    ops: Vec<PlacedOp>,
    rows: Vec<RowUsage>,
    segments: Vec<Segment>,
    live_ins: BTreeSet<DataLoc>,
    writebacks: BTreeMap<DataLoc, u8>,
    loads: u32,
    stores: u32,
}

impl Configuration {
    /// Creates an empty configuration starting at `entry_pc` for an array
    /// of the given shape.
    pub fn new(entry_pc: u32, shape: ArrayShape) -> Configuration {
        Configuration {
            entry_pc,
            shape,
            ops: Vec::new(),
            rows: Vec::new(),
            segments: Vec::new(),
            live_ins: BTreeSet::new(),
            writebacks: BTreeMap::new(),
            loads: 0,
            stores: 0,
        }
    }

    /// The shape this configuration was placed against.
    pub fn shape(&self) -> &ArrayShape {
        &self.shape
    }

    /// Places `inst` in the first row at or after `min_row` with a free
    /// unit of its class, returning `(row, col)`.
    ///
    /// # Errors
    ///
    /// [`PlaceError::Unsupported`] when the instruction cannot run on the
    /// array, [`PlaceError::Full`] when no row in the shape can host it.
    pub fn place(
        &mut self,
        pc: u32,
        inst: Instruction,
        depth: u8,
        min_row: usize,
    ) -> Result<(u32, u32), PlaceError> {
        let class = inst.fu_class();
        if class == FuClass::Unsupported {
            return Err(PlaceError::Unsupported);
        }
        let cap = self.shape.units_per_row(class) as u32;
        if cap == 0 {
            return Err(PlaceError::Unsupported);
        }
        let mut row = min_row;
        loop {
            if row >= self.shape.rows {
                return Err(PlaceError::Full);
            }
            if row >= self.rows.len() {
                self.rows.resize(row + 1, RowUsage::default());
            }
            if self.rows[row].used(class) < cap {
                let col = self.rows[row].take(class);
                self.ops.push(PlacedOp {
                    pc,
                    inst,
                    row: row as u32,
                    col,
                    class,
                    depth,
                });
                if class == FuClass::LoadStore {
                    if matches!(inst, Instruction::Load { .. }) {
                        self.loads += 1;
                    } else {
                        self.stores += 1;
                    }
                }
                return Ok((row as u32, col));
            }
            row += 1;
        }
    }

    /// Records that `loc` must be fetched from the register file during
    /// reconfiguration (a live-in of the configuration).
    pub fn note_live_in(&mut self, loc: DataLoc) {
        self.live_ins.insert(loc);
    }

    /// Records that `loc` is written back by the configuration at the
    /// given speculation depth. Only one write-back per location is ever
    /// performed — "if there are two writes to the same register, just
    /// the last one will be performed" (paper §4.3) — but the write-back
    /// becomes *pending* at the location's earliest write: if a deeper
    /// segment squashes, the shallower value must still retire.
    pub fn note_writeback(&mut self, loc: DataLoc, depth: u8) {
        self.writebacks
            .entry(loc)
            .and_modify(|d| *d = (*d).min(depth))
            .or_insert(depth);
    }

    /// Closes the current segment (ops pushed since the previous segment
    /// end), with its optional terminating branch and sequential exit PC.
    pub fn finish_segment(&mut self, depth: u8, branch: Option<SegmentBranch>, exit_pc: u32) {
        let start = self.segments.last().map_or(0, |s| s.start + s.len);
        let len = self.ops.len() - start;
        self.segments.push(Segment {
            depth,
            start,
            len,
            branch,
            exit_pc,
        });
    }

    /// All placed operations in program order.
    pub fn ops(&self) -> &[PlacedOp] {
        &self.ops
    }

    /// Mutable access to the placed operations, for checkers and test
    /// harnesses that perturb placements (fault injection against the
    /// verifier). The length is fixed; derived row-occupancy caches are
    /// *not* updated, so after mutating ops only introspection and
    /// [`crate::verify::verify_config`] — which re-derives everything
    /// from the ops — give trustworthy answers.
    pub fn ops_mut(&mut self) -> &mut [PlacedOp] {
        &mut self.ops
    }

    /// Removes `loc` from the write-back map, returning its pending
    /// depth. Introspection/corruption support for the verifier.
    pub fn remove_writeback(&mut self, loc: DataLoc) -> Option<u8> {
        self.writebacks.remove(&loc)
    }

    /// Removes `loc` from the live-in set, reporting whether it was
    /// present. Introspection/corruption support for the verifier.
    pub fn remove_live_in(&mut self, loc: DataLoc) -> bool {
        self.live_ins.remove(&loc)
    }

    /// The speculation segments in depth order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Ops of one segment, in program order.
    pub fn segment_ops(&self, segment: &Segment) -> &[PlacedOp] {
        &self.ops[segment.start..segment.start + segment.len]
    }

    /// Number of covered instructions.
    pub fn instruction_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of rows actually occupied.
    pub fn rows_used(&self) -> usize {
        self.rows.len()
    }

    /// Distinct register-file locations fetched at reconfiguration.
    pub fn live_in_count(&self) -> usize {
        self.live_ins.len()
    }

    /// Live-in locations.
    pub fn live_ins(&self) -> impl Iterator<Item = DataLoc> + '_ {
        self.live_ins.iter().copied()
    }

    /// Distinct locations written back (after last-write-wins collapsing).
    pub fn writeback_count(&self) -> usize {
        self.writebacks.len()
    }

    /// Write-back locations with the depth of their *earliest* write —
    /// the depth at which the write-back becomes pending.
    pub fn writebacks(&self) -> impl Iterator<Item = (DataLoc, u8)> + '_ {
        self.writebacks.iter().map(|(&l, &d)| (l, d))
    }

    /// Loads placed in this configuration.
    pub fn load_count(&self) -> u32 {
        self.loads
    }

    /// Stores placed in this configuration.
    pub fn store_count(&self) -> u32 {
        self.stores
    }

    /// Whether the configuration is worth caching — the paper creates a
    /// cache entry only "if more than three instructions were found".
    pub fn worth_caching(&self) -> bool {
        self.ops.len() > 3
    }

    /// Maximum speculation depth present.
    pub fn max_depth(&self) -> u8 {
        self.segments.last().map_or(0, |s| s.depth)
    }

    /// Deepest row holding an operation of depth ≤ `upto_depth`, i.e. the
    /// last row a run confirmed to that depth actually traverses. `None`
    /// when no operation qualifies.
    pub fn last_row_at_depth(&self, upto_depth: u8) -> Option<usize> {
        self.ops
            .iter()
            .filter(|op| op.depth <= upto_depth)
            .map(|op| op.row as usize)
            .max()
    }

    /// Per-row unit occupancy, in row order, covering every row the
    /// placer touched. The fabric heat accumulator and `dim heat` read
    /// the same row state the cycle model charges for.
    pub fn row_occupancy(&self) -> impl ExactSizeIterator<Item = RowOccupancy> + '_ {
        self.rows
            .iter()
            .enumerate()
            .map(|(row, usage)| RowOccupancy {
                row: row as u32,
                alus: usage.alus,
                mults: usage.mults,
                ldsts: usage.ldsts,
                kind: usage.kind(),
            })
    }

    /// Delay-dominating kind of `row`, `None` for empty or out-of-range
    /// rows.
    pub fn row_kind(&self, row: usize) -> Option<RowKind> {
        self.rows.get(row).and_then(RowUsage::kind)
    }

    /// Execution cycles on the array for all rows containing operations
    /// of depth ≤ `upto_depth` (a misspeculated run pays only for the
    /// rows it actually traversed).
    pub fn exec_cycles(&self, timing: &ArrayTiming, upto_depth: u8) -> u64 {
        let Some(last_row) = self.last_row_at_depth(upto_depth) else {
            return 0;
        };
        let thirds = self.rows[..=last_row]
            .iter()
            .filter_map(RowUsage::kind)
            .map(|k| timing.row_thirds(k))
            .sum();
        timing.thirds_to_cycles(thirds)
    }

    /// Cycles to reconfigure: configuration read plus operand fetch
    /// through the register-file read ports, minus the pipeline stages
    /// that hide it (paper §4.3). This is the *stall* visible to the
    /// processor.
    pub fn reconfig_stall_cycles(&self, timing: &ArrayTiming) -> u64 {
        let fetch = (self.live_ins.len() as u64).div_ceil(self.shape.rf_read_ports.max(1) as u64);
        (timing.config_read_cycles + fetch).saturating_sub(timing.hidden_reconfig_cycles)
    }

    /// Write-back cycles that cannot be overlapped: results write back
    /// `rf_write_ports` per cycle in parallel with execution (paper §4.2:
    /// "it is possible to write results back in parallel to the execution
    /// of other operations"), and the final batch drains while the
    /// processor refills its front end, so only write-backs in excess of
    /// the whole execution window stall anything.
    pub fn writeback_tail_cycles(&self, timing: &ArrayTiming, upto_depth: u8) -> u64 {
        let writes = self
            .writebacks
            .values()
            .filter(|&&d| d <= upto_depth)
            .count() as u64;
        let wb_cycles = writes.div_ceil(self.shape.rf_write_ports.max(1) as u64);
        let exec = self.exec_cycles(timing, upto_depth);
        wb_cycles.saturating_sub(exec)
    }

    /// The full span decomposition of one invocation executed to
    /// `upto_depth` — the single source the coupled system, the stats,
    /// and the observability events all draw from, so the three numbers
    /// can never drift apart between consumers.
    pub fn invocation_cycles(&self, timing: &ArrayTiming, upto_depth: u8) -> InvocationCycles {
        InvocationCycles {
            stall: self.reconfig_stall_cycles(timing),
            exec: self.exec_cycles(timing, upto_depth),
            tail: self.writeback_tail_cycles(timing, upto_depth),
        }
    }

    /// Total array cycles for a run that confirms every speculation up to
    /// `upto_depth`: stall + execution + write-back tail.
    pub fn total_cycles(&self, timing: &ArrayTiming, upto_depth: u8) -> u64 {
        self.invocation_cycles(timing, upto_depth).total()
    }

    /// Checks the structural invariants the executors rely on, returning
    /// the first violation as text. Used by tests and debug assertions;
    /// a configuration built through [`place`](Configuration::place) /
    /// [`finish_segment`](Configuration::finish_segment) should never
    /// fail this.
    pub fn validate(&self) -> Result<(), String> {
        // Segments partition ops contiguously with non-decreasing depth.
        let mut covered = 0usize;
        let mut last_depth = 0u8;
        for (k, seg) in self.segments.iter().enumerate() {
            if seg.start != covered {
                return Err(format!(
                    "segment {k} starts at {} instead of {covered}",
                    seg.start
                ));
            }
            covered += seg.len;
            if k > 0 && seg.depth < last_depth {
                return Err(format!("segment {k} depth decreases"));
            }
            last_depth = seg.depth;
            // A segment's branch, if any, is its last op.
            if let Some(branch) = seg.branch {
                match self.segment_ops(seg).last() {
                    Some(op) if op.pc == branch.pc && op.inst.is_branch() => {}
                    _ => return Err(format!("segment {k}: branch is not the last op")),
                }
            }
            // All ops in the segment carry the segment's depth.
            for op in self.segment_ops(seg) {
                if op.depth != seg.depth {
                    return Err(format!(
                        "op at {:#x} has depth {} inside segment of depth {}",
                        op.pc, op.depth, seg.depth
                    ));
                }
            }
        }
        if covered != self.ops.len() {
            return Err(format!(
                "segments cover {covered} ops of {}",
                self.ops.len()
            ));
        }
        // Rows within shape, RAW order inside the placement.
        let mut producer_row: [Option<u32>; DataLoc::COUNT] = [None; DataLoc::COUNT];
        let mut last_mem_row: Option<u32> = None;
        for op in &self.ops {
            if !self.shape.is_infinite() && op.row as usize >= self.shape.rows {
                return Err(format!("op at {:#x} beyond shape rows", op.pc));
            }
            for src in op.inst.reads().iter() {
                if let Some(p) = producer_row[src.dense_index()] {
                    if p >= op.row {
                        return Err(format!(
                            "RAW violated: op at {:#x} row {} reads {} produced in row {p}",
                            op.pc, op.row, src
                        ));
                    }
                }
            }
            if op.inst.is_mem() {
                if let Some(m) = last_mem_row {
                    if op.row < m {
                        return Err(format!("memory order violated at {:#x}", op.pc));
                    }
                }
                last_mem_row = Some(last_mem_row.map_or(op.row, |m| m.max(op.row)));
            }
            for dst in op.inst.writes().iter() {
                producer_row[dst.dense_index()] = Some(op.row);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::{AluOp, MemWidth, MulDivOp, Reg};

    fn alu(rd: Reg, rs: Reg, rt: Reg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Addu,
            rd,
            rs,
            rt,
        }
    }

    fn load(rt: Reg, base: Reg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            signed: false,
            rt,
            base,
            offset: 0,
        }
    }

    #[test]
    fn independent_ops_share_a_row() {
        let mut c = Configuration::new(0x400000, ArrayShape::config1());
        let (r0, c0) = c
            .place(0x400000, alu(Reg::T0, Reg::A0, Reg::A1), 0, 0)
            .unwrap();
        let (r1, c1) = c
            .place(0x400004, alu(Reg::T1, Reg::A2, Reg::A3), 0, 0)
            .unwrap();
        assert_eq!((r0, r1), (0, 0));
        assert_ne!(c0, c1);
        assert_eq!(c.rows_used(), 1);
    }

    #[test]
    fn row_overflow_moves_down() {
        let mut c = Configuration::new(0, ArrayShape::config1());
        for i in 0..9 {
            c.place(4 * i, alu(Reg::T0, Reg::A0, Reg::A1), 0, 0)
                .unwrap();
        }
        // 8 ALUs per row: the 9th op lands in row 1.
        assert_eq!(c.ops()[8].row, 1);
    }

    #[test]
    fn min_row_respected() {
        let mut c = Configuration::new(0, ArrayShape::config1());
        let (r, _) = c.place(0, alu(Reg::T0, Reg::A0, Reg::A1), 0, 5).unwrap();
        assert_eq!(r, 5);
    }

    #[test]
    fn full_and_unsupported_errors() {
        let mut tiny = ArrayShape::config1();
        tiny.rows = 1;
        tiny.alus_per_row = 1;
        let mut c = Configuration::new(0, tiny);
        c.place(0, alu(Reg::T0, Reg::A0, Reg::A1), 0, 0).unwrap();
        assert_eq!(
            c.place(4, alu(Reg::T1, Reg::A0, Reg::A1), 0, 0),
            Err(PlaceError::Full)
        );
        assert_eq!(
            c.place(
                8,
                Instruction::MulDiv {
                    op: MulDivOp::Div,
                    rs: Reg::A0,
                    rt: Reg::A1
                },
                0,
                0
            ),
            Err(PlaceError::Unsupported)
        );
    }

    #[test]
    fn exec_cycles_mix() {
        let t = ArrayTiming::default();
        let mut c = Configuration::new(0, ArrayShape::config3());
        // Three dependent ALU rows -> 1 cycle.
        for i in 0..3 {
            c.place(4 * i, alu(Reg::T0, Reg::T0, Reg::A1), 0, i as usize)
                .unwrap();
        }
        assert_eq!(c.exec_cycles(&t, 0), 1);
        // Add a load row -> +1 cycle; a mult row -> +2 cycles.
        c.place(100, load(Reg::T1, Reg::T0), 0, 3).unwrap();
        c.place(
            104,
            Instruction::MulDiv {
                op: MulDivOp::Mult,
                rs: Reg::T1,
                rt: Reg::T0,
            },
            0,
            4,
        )
        .unwrap();
        assert_eq!(c.exec_cycles(&t, 0), 1 + 1 + 2);
    }

    #[test]
    fn depth_limits_cycle_accounting() {
        let t = ArrayTiming::default();
        let mut c = Configuration::new(0, ArrayShape::config3());
        c.place(0, load(Reg::T0, Reg::A0), 0, 0).unwrap();
        c.place(4, load(Reg::T1, Reg::T0), 1, 1).unwrap();
        c.place(8, load(Reg::T2, Reg::T1), 2, 2).unwrap();
        assert_eq!(c.exec_cycles(&t, 0), 1);
        assert_eq!(c.exec_cycles(&t, 1), 2);
        assert_eq!(c.exec_cycles(&t, 2), 3);
    }

    #[test]
    fn reconfig_stall_hidden_until_ports_saturate() {
        let t = ArrayTiming::default();
        let mut c = Configuration::new(0, ArrayShape::config1());
        for r in [
            Reg::A0,
            Reg::A1,
            Reg::A2,
            Reg::A3,
            Reg::T0,
            Reg::T1,
            Reg::T2,
            Reg::T3,
        ] {
            c.note_live_in(DataLoc::Gpr(r));
        }
        // 8 live-ins / 4 ports = 2 cycles + 1 config read = 3 == hidden.
        assert_eq!(c.reconfig_stall_cycles(&t), 0);
        for r in [
            Reg::S0,
            Reg::S1,
            Reg::S2,
            Reg::S3,
            Reg::S4,
            Reg::S5,
            Reg::S6,
            Reg::S7,
        ] {
            c.note_live_in(DataLoc::Gpr(r));
        }
        // 16/4 + 1 = 5 -> stall 2.
        assert_eq!(c.reconfig_stall_cycles(&t), 2);
    }

    #[test]
    fn writeback_pending_at_earliest_depth() {
        let mut c = Configuration::new(0, ArrayShape::config1());
        c.note_writeback(DataLoc::Gpr(Reg::T0), 0);
        c.note_writeback(DataLoc::Gpr(Reg::T0), 1);
        c.note_writeback(DataLoc::Gpr(Reg::T1), 1);
        assert_eq!(c.writeback_count(), 2);
        let depths: Vec<_> = c.writebacks().collect();
        // T0 was first written at depth 0, so even a depth-1 squash must
        // still retire its depth-0 value.
        assert!(depths.contains(&(DataLoc::Gpr(Reg::T0), 0)));
        assert!(depths.contains(&(DataLoc::Gpr(Reg::T1), 1)));
    }

    #[test]
    fn segments_partition_ops() {
        let mut c = Configuration::new(0, ArrayShape::config1());
        c.place(0, alu(Reg::T0, Reg::A0, Reg::A1), 0, 0).unwrap();
        c.place(4, alu(Reg::T1, Reg::T0, Reg::A1), 0, 1).unwrap();
        c.finish_segment(0, None, 8);
        c.place(8, alu(Reg::T2, Reg::T1, Reg::A1), 1, 2).unwrap();
        c.finish_segment(1, None, 12);
        assert_eq!(c.segments().len(), 2);
        assert_eq!(c.segment_ops(&c.segments()[0]).len(), 2);
        assert_eq!(c.segment_ops(&c.segments()[1]).len(), 1);
        assert_eq!(c.max_depth(), 1);
    }

    #[test]
    fn worth_caching_threshold() {
        let mut c = Configuration::new(0, ArrayShape::config1());
        for i in 0..3 {
            c.place(4 * i, alu(Reg::T0, Reg::A0, Reg::A1), 0, 0)
                .unwrap();
        }
        assert!(!c.worth_caching());
        c.place(12, alu(Reg::T1, Reg::A0, Reg::A1), 0, 0).unwrap();
        assert!(c.worth_caching());
    }
}
