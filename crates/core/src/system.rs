//! The coupled system: MIPS core + DIM detection + reconfigurable array.
//!
//! The run loop mirrors Figure 1 of the paper. Before each fetch the PC
//! probes the reconfiguration cache. On a hit, the stored configuration
//! is loaded (stalling only if operand fetch exceeds the three hidden
//! pipeline stages), executed on the array — including speculative
//! segments gated by their branches — and the PC moved past the covered
//! region. On a miss, the instruction executes normally on the pipeline
//! while the DIM hardware translates it in parallel.

use crate::{
    BimodalPredictor, CycleBreakdown, DimStats, ReconfCache, ReplacementPolicy, Translator,
    TranslatorOptions,
};
use dim_cgra::{
    verify_cert, ArrayShape, ArrayTiming, Configuration, EncodingParams, FabricHeat, StreamingCert,
};
use dim_mips::Instruction;
use dim_mips_sim::{HaltReason, Machine, SimError};
use dim_obs::{
    ArrayInvoke, FabricUtil, HostBucket, HostSplit, NullProbe, Probe, ProbeEvent, SharedClock,
};
use std::collections::HashMap;

/// All accelerator parameters for one experiment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Array geometry (Table 1).
    pub shape: ArrayShape,
    /// Array timing model.
    pub timing: ArrayTiming,
    /// Reconfiguration cache capacity in slots (Table 2 sweeps 16/64/256).
    pub cache_slots: usize,
    /// Cache replacement policy (FIFO per the paper; LRU for ablations).
    pub cache_policy: ReplacementPolicy,
    /// Whether branches may be speculated over.
    pub speculation: bool,
    /// Maximum basic blocks merged per configuration.
    pub max_spec_blocks: u8,
    /// A configuration accumulating this many misspeculations (without an
    /// intervening fully-correct run) is flushed even if the branch
    /// counter never saturates the other way — bounding the damage of
    /// periodically alternating branches.
    pub misspec_flush_threshold: u32,
    /// Whether the array's ALUs include shifters (false models the
    /// CCA-like baseline of paper §2.2).
    pub support_shifts: bool,
    /// Debug mode: additionally execute every invoked configuration
    /// *from its placement* (`dim_cgra::execute_dataflow`) on a copy of
    /// the architectural state and panic on any divergence from the
    /// replay result. Slow; for tests and bring-up.
    pub cross_check: bool,
    /// Debug mode: run the static configuration verifier
    /// (`dim_cgra::verify::verify_config`) on every configuration the
    /// translator commits, panicking on the first violation. Catches
    /// translator bugs at the commit point instead of at (mis)execution.
    pub verify_configs: bool,
    /// Encoding constants (cache bit accounting).
    pub encoding: EncodingParams,
}

impl SystemConfig {
    /// A full-featured setup for the given shape and cache size.
    pub fn new(shape: ArrayShape, cache_slots: usize, speculation: bool) -> SystemConfig {
        SystemConfig {
            shape,
            timing: ArrayTiming::default(),
            cache_slots,
            cache_policy: ReplacementPolicy::Fifo,
            speculation,
            max_spec_blocks: 3,
            misspec_flush_threshold: 8,
            support_shifts: true,
            cross_check: false,
            verify_configs: false,
            encoding: EncodingParams::default(),
        }
    }
}

/// The MIPS+DIM+array system simulator.
///
/// ```
/// use dim_core::{System, SystemConfig};
/// use dim_cgra::ArrayShape;
/// use dim_mips::asm::assemble;
/// use dim_mips_sim::Machine;
///
/// let program = assemble("
///     main: li $t0, 200
///           li $v0, 0
///     loop: addu $v0, $v0, $t0
///           xor  $t1, $v0, $t0
///           addu $v0, $v0, $t1
///           addiu $t0, $t0, -1
///           bnez $t0, loop
///           break 0
/// ")?;
/// let config = SystemConfig::new(ArrayShape::config1(), 64, true);
/// let mut accelerated = System::new(Machine::load(&program), config);
/// accelerated.run(1_000_000)?;
///
/// let mut baseline = Machine::load(&program);
/// baseline.run(1_000_000)?;
/// // Same architectural result, fewer cycles.
/// assert_eq!(accelerated.machine().cpu.reg(dim_mips::Reg::V0),
///            baseline.cpu.reg(dim_mips::Reg::V0));
/// assert!(accelerated.total_cycles() < baseline.stats.cycles);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    machine: Machine,
    config: SystemConfig,
    pub(crate) cache: ReconfCache,
    pub(crate) translator: Translator,
    pub(crate) predictor: BimodalPredictor,
    stats: DimStats,
    fabric: FabricHeat,
    host_split: Option<Box<HostSplit>>,
    stored_bits_per_config: u64,
    pub(crate) misspec_counts: HashMap<u32, u32>,
    commit_log: Option<Vec<Configuration>>,
    /// Installed streaming certificates, keyed by region entry PC.
    stream_certs: HashMap<u32, StreamingCert>,
    /// Commits whose region matched a certificate and were tagged.
    stream_tags_applied: u64,
}

impl System {
    /// Couples a loaded machine with a DIM accelerator.
    pub fn new(machine: Machine, config: SystemConfig) -> System {
        let opts = TranslatorOptions {
            shape: config.shape,
            speculation: config.speculation,
            max_spec_blocks: config.max_spec_blocks,
            support_shifts: config.support_shifts,
        };
        let stored_bits = if config.shape.is_infinite() {
            0
        } else {
            dim_cgra::encoding_breakdown(&config.shape, &config.encoding).stored_bits() as u64
        };
        System {
            machine,
            config,
            cache: ReconfCache::with_policy(config.cache_slots, config.cache_policy),
            translator: Translator::new(opts),
            predictor: BimodalPredictor::new(),
            stats: DimStats::new(),
            fabric: FabricHeat::new(),
            host_split: None,
            stored_bits_per_config: stored_bits,
            misspec_counts: HashMap::new(),
            commit_log: None,
            stream_certs: HashMap::new(),
            stream_tags_applied: 0,
        }
    }

    /// Installs streaming-eligibility certificates (`dim prove`) to be
    /// consulted at every translator commit: a committed configuration
    /// whose entry PC matches a certificate and whose ops all lie in
    /// the certified region is tagged `stream_ok(K)` in the rcache.
    /// Replay behavior is unchanged — the tag is the contract surface
    /// for the streaming executor. Returns the number installed.
    ///
    /// # Errors
    ///
    /// Rejects the whole batch on the first structurally invalid
    /// certificate (`dim_cgra::verify_cert`), naming its defect.
    pub fn install_stream_certs(
        &mut self,
        certs: impl IntoIterator<Item = StreamingCert>,
    ) -> Result<usize, String> {
        let mut installed = 0;
        for cert in certs {
            if let Some(violation) = verify_cert(&cert).into_iter().next() {
                return Err(format!(
                    "certificate @ {:#x} ({}): {violation}",
                    cert.entry_pc, cert.workload
                ));
            }
            self.stream_certs.insert(cert.entry_pc, cert);
            installed += 1;
        }
        Ok(installed)
    }

    /// Installed certificates, keyed by entry PC.
    pub fn stream_certs(&self) -> &HashMap<u32, StreamingCert> {
        &self.stream_certs
    }

    /// Commits that matched an installed certificate and tagged their
    /// rcache entry `stream_ok(K)` so far.
    pub fn stream_tags_applied(&self) -> u64 {
        self.stream_tags_applied
    }

    /// Starts recording every configuration the translator commits to
    /// the cache. The log is unbounded — test/analysis use only (the
    /// static-candidate soundness cross-check in `dim-lint` compares it
    /// against the statically computed candidate set).
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// All configurations committed since [`enable_commit_log`]
    /// (in commit order), or an empty slice when logging is off.
    ///
    /// [`enable_commit_log`]: System::enable_commit_log
    pub fn commit_log(&self) -> &[Configuration] {
        self.commit_log.as_deref().unwrap_or(&[])
    }

    /// The underlying machine (CPU, memory, processor-side statistics).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the underlying machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Accelerator-side statistics.
    pub fn stats(&self) -> &DimStats {
        &self.stats
    }

    /// Always-on fabric utilization accounting (`dim heat`). Its
    /// `exec_cycles + residual_cycles` reconciles exactly with
    /// [`cycle_breakdown`](System::cycle_breakdown)'s array-execution
    /// span.
    pub fn fabric_heat(&self) -> &FabricHeat {
        &self.fabric
    }

    /// Enables host-time attribution: subsequent
    /// [`run_probed`](System::run_probed) iterations split wall time
    /// (read from `clock`, strided-sampled) across the
    /// {fetch/decode, translate, rcache, array-replay}
    /// [`HostBucket`]s. Off by default — the uninstrumented hot loop
    /// pays nothing.
    pub fn enable_host_split(&mut self, clock: SharedClock) {
        self.host_split = Some(Box::new(HostSplit::new(clock)));
    }

    /// The host-time attribution accumulated so far, if
    /// [`enable_host_split`](System::enable_host_split) was called.
    pub fn host_split(&self) -> Option<&HostSplit> {
        self.host_split.as_deref()
    }

    /// The reconfiguration cache.
    pub fn cache(&self) -> &ReconfCache {
        &self.cache
    }

    /// The experiment parameters.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Bits one stored configuration occupies in the reconfiguration
    /// cache (0 for the idealized infinite array). Trace sinks record
    /// this so replay can reconstruct the cache-bit energy counters.
    pub fn stored_bits_per_config(&self) -> u64 {
        self.stored_bits_per_config
    }

    /// Total cycles: processor cycles plus all array-attributed cycles.
    pub fn total_cycles(&self) -> u64 {
        self.machine.stats.cycles + self.stats.total_array_cycles()
    }

    /// Total retired instructions (pipeline + array).
    pub fn total_instructions(&self) -> u64 {
        self.machine.stats.instructions + self.stats.array_instructions
    }

    /// Exact per-phase cycle attribution of the run so far. The
    /// breakdown's total equals [`total_cycles`](System::total_cycles)
    /// by construction; `dim perf` cross-checks it against the
    /// probe-derived profile to catch accounting drift.
    pub fn cycle_breakdown(&self) -> CycleBreakdown {
        CycleBreakdown {
            pipeline: self.machine.stats.base_cycles(),
            i_stall: self.machine.stats.i_stall_cycles,
            d_stall: self.machine.stats.d_stall_cycles,
            reconfig_stall: self.stats.reconfig_stall_cycles,
            array_exec: self.stats.array_exec_cycles,
            writeback_tail: self.stats.writeback_tail_cycles,
        }
    }

    /// Runs until the program halts or `max_instructions` have retired.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from either the pipeline or the
    /// array's memory accesses.
    pub fn run(&mut self, max_instructions: u64) -> Result<HaltReason, SimError> {
        self.run_probed(max_instructions, &mut NullProbe)
    }

    /// Runs like [`run`](System::run), emitting the full structured
    /// event stream — retires, translation begin/commit, cache
    /// hit/miss/insert/flush, array invocations — into `probe`. The
    /// probe is monomorphized in; with [`NullProbe`] this *is* `run`.
    /// The caller keeps ownership of the probe and is responsible for
    /// calling [`Probe::finish`] when the whole run is over.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from either the pipeline or the
    /// array's memory accesses.
    pub fn run_probed<P: Probe>(
        &mut self,
        max_instructions: u64,
        probe: &mut P,
    ) -> Result<HaltReason, SimError> {
        let mut retired: u64 = 0;
        let result = loop {
            if retired >= max_instructions {
                break self.machine.halted().unwrap_or(HaltReason::StepLimit);
            }
            if let Some(reason) = self.machine.halted() {
                break reason;
            }
            let pc = self.machine.cpu.pc;
            // Host-time attribution brackets the four engine sections.
            // When disabled the `Option` check is the entire cost; when
            // enabled, most occurrences pay one counter increment (the
            // clock is only read on strided samples — see `HostSplit`).
            if let Some(split) = self.host_split.as_deref_mut() {
                split.enter(HostBucket::Rcache);
            }
            let hit = self.cache.lookup(pc);
            if let Some(split) = self.host_split.as_deref_mut() {
                split.exit(HostBucket::Rcache);
            }
            if let Some(config) = hit {
                if P::ENABLED {
                    probe.emit(ProbeEvent::RcacheHit {
                        pc,
                        len: config.instruction_count() as u32,
                    });
                }
                // A cache hit interrupts any in-flight detection region.
                // (The inserted partial may even evict the entry we are
                // about to execute, which is why the hit holds its own
                // handle to the configuration.)
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.enter(HostBucket::Translate);
                }
                if let Some(partial) = self.translator.take_partial_probed(pc, probe) {
                    self.insert_config(partial, probe);
                }
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.exit(HostBucket::Translate);
                }
                retired += config.instruction_count() as u64;
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.enter(HostBucket::ArrayReplay);
                }
                let exec = self.execute_config(&config, probe);
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.exit(HostBucket::ArrayReplay);
                }
                exec?;
            } else {
                if P::ENABLED {
                    probe.emit(ProbeEvent::RcacheMiss { pc });
                }
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.enter(HostBucket::FetchDecode);
                }
                let step = self.machine.step_probed(probe);
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.exit(HostBucket::FetchDecode);
                }
                let info = step?;
                retired += 1;
                if let Some(taken) = info.taken {
                    self.predictor.update(info.pc, taken);
                }
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.enter(HostBucket::Translate);
                }
                if let Some(done) = self
                    .translator
                    .observe_probed(&info, &self.predictor, probe)
                {
                    self.insert_config(done, probe);
                }
                if let Some(split) = self.host_split.as_deref_mut() {
                    split.exit(HostBucket::Translate);
                }
            }
        };
        // Refresh the detection-energy account so it is exact even when
        // the run ends between array invocations.
        self.stats.translated_instructions = self.translator.observed_instructions();
        Ok(result)
    }

    fn insert_config<P: Probe>(&mut self, config: Configuration, probe: &mut P) {
        if self.config.verify_configs {
            let violations = dim_cgra::verify::verify_config(&config);
            assert!(
                violations.is_empty(),
                "translator committed an invalid configuration @ {:#x} ({} ops): {}",
                config.entry_pc,
                config.instruction_count(),
                violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
        if let Some(log) = &mut self.commit_log {
            log.push(config.clone());
        }
        self.stats.configs_built += 1;
        self.stats.cache_bits_written += self.stored_bits_per_config;
        let pc = config.entry_pc;
        let len = config.instruction_count() as u32;
        // Consult the installed streaming certificates: a commit whose
        // ops all lie inside a certified region is provably safe to
        // burst-replay K iterations, so its rcache entry gets tagged.
        let burst = self.stream_certs.get(&pc).and_then(|cert| {
            config
                .ops()
                .iter()
                .all(|op| cert.contains(op.pc))
                .then_some(cert.burst)
        });
        let evicted = self.cache.insert(config);
        if let Some(victim) = &evicted {
            if victim.uses > 0 {
                self.stats.rcache_evictions_live += 1;
            } else {
                self.stats.rcache_evictions_dead += 1;
            }
        }
        let tagged = burst.is_some_and(|k| self.cache.tag_stream(pc, k));
        if tagged {
            self.stream_tags_applied += 1;
        }
        if P::ENABLED {
            probe.emit(ProbeEvent::RcacheInsert {
                pc,
                len,
                evicted: evicted.as_ref().map(|e| e.pc),
            });
            if let Some(victim) = evicted {
                probe.emit(ProbeEvent::RcacheEvict {
                    pc: victim.pc,
                    len: victim.len,
                    uses: victim.uses,
                });
            }
            if tagged {
                probe.emit(ProbeEvent::StreamTag {
                    pc,
                    len,
                    burst: burst.unwrap_or(0),
                });
            }
        }
    }

    /// Snapshots the state the dataflow cross-check needs.
    fn entry_context(&self) -> dim_cgra::EntryContext {
        let mut regs = [0u32; 32];
        for r in dim_mips::Reg::all() {
            regs[r.index()] = self.machine.cpu.reg(r);
        }
        dim_cgra::EntryContext {
            regs,
            hi: self.machine.cpu.hi,
            lo: self.machine.cpu.lo,
        }
    }

    /// Debug cross-check: dataflow-executes `config` from the captured
    /// entry state and compares against the replayed (now current)
    /// architectural state.
    ///
    /// # Panics
    ///
    /// Panics on any divergence — that is the point.
    fn cross_check(&self, config: &Configuration, mut entry: dim_cgra::EntryContext) {
        struct Bus<'m> {
            mem: &'m dim_mips_sim::Memory,
            writes: std::collections::HashMap<u32, u8>,
        }
        impl dim_cgra::ExecMemory for Bus<'_> {
            fn read_u8(&self, addr: u32) -> u8 {
                *self.writes.get(&addr).unwrap_or(&self.mem.read_u8(addr))
            }
            fn write_u8(&mut self, addr: u32, value: u8) {
                self.writes.insert(addr, value);
            }
        }
        // Replay already ran, so memory holds post-state; the dataflow
        // pass reads the same bytes it would have seen only where the
        // config itself wrote them first — which the store buffer handles
        // — so feeding post-state memory is only sound for configs whose
        // loads never alias their own stores' pre-state. Restrict the
        // check accordingly: skip configs that both load and store.
        if config.load_count() > 0 && config.store_count() > 0 {
            return;
        }
        let mut bus = Bus {
            mem: &self.machine.mem,
            writes: std::collections::HashMap::new(),
        };
        let outcome = dim_cgra::execute_dataflow(config, &mut entry, &mut bus)
            .expect("replayed configuration must dataflow-execute");
        assert_eq!(
            outcome.exit_pc, self.machine.cpu.pc,
            "cross-check: exit PC diverged for config @ {:#x}",
            config.entry_pc
        );
        for r in dim_mips::Reg::all() {
            assert_eq!(
                entry.regs[r.index()],
                self.machine.cpu.reg(r),
                "cross-check: {r} diverged for config @ {:#x}",
                config.entry_pc
            );
        }
        assert_eq!(entry.hi, self.machine.cpu.hi, "cross-check: HI diverged");
        assert_eq!(entry.lo, self.machine.cpu.lo, "cross-check: LO diverged");
        // Committed stores must match the bytes the replay wrote.
        for (addr, byte) in bus.writes {
            assert_eq!(
                self.machine.mem.read_u8(addr),
                byte,
                "cross-check: memory byte {addr:#x} diverged for config @ {:#x}",
                config.entry_pc
            );
        }
    }

    /// Executes one cached configuration on the array.
    fn execute_config<P: Probe>(
        &mut self,
        config: &Configuration,
        probe: &mut P,
    ) -> Result<(), SimError> {
        self.stats.array_invocations += 1;
        self.stats.array_occupied_rows += config.rows_used() as u64;
        self.stats.cache_bits_read += self.stored_bits_per_config;

        let entry_snapshot = self.config.cross_check.then(|| self.entry_context());

        let timing = &self.config.timing;
        let mut executed_depth: u8 = 0;
        let mut misspec_branch: Option<(u32, bool)> = None;
        let mut executed: u32 = 0;
        let mut loads: u32 = 0;
        let mut stores: u32 = 0;
        let mut mem_stall_cycles: u64 = 0;

        'segments: for segment in config.segments() {
            for op in config.segment_ops(segment) {
                // Replay preserves exact architectural semantics; rows and
                // columns only affect the cycle accounting below.
                self.machine.cpu.pc = op.pc;
                let info = self.machine.cpu.execute(op.inst, &mut self.machine.mem)?;
                executed += 1;
                match op.inst {
                    Instruction::Load { .. } => loads += 1,
                    Instruction::Store { .. } => stores += 1,
                    _ => {}
                }
                // Data-cache misses stall the whole array until resolved
                // (paper §4.3); loads were *allocated* assuming hits.
                if let (Some(dc), Some(addr)) = (&mut self.machine.dcache, info.mem_addr) {
                    mem_stall_cycles += dc.access(addr);
                }
                if let (Some(branch), Some(taken)) = (segment.branch, info.taken) {
                    if op.pc == branch.pc {
                        self.predictor.update(branch.pc, taken);
                        if taken != branch.predicted_taken {
                            // The branch resolved against the speculated
                            // direction: deeper segments are squashed (their
                            // gated writes never trigger) and execution
                            // resumes at the actual target, already set by
                            // the replayed branch.
                            executed_depth = segment.depth;
                            misspec_branch = Some((branch.pc, branch.predicted_taken));
                            break 'segments;
                        }
                    }
                }
            }
            executed_depth = segment.depth;
            if segment.branch.is_none() {
                self.machine.cpu.pc = segment.exit_pc;
            }
        }

        self.stats.array_instructions += executed as u64;
        self.stats.array_loads += loads as u64;
        self.stats.array_stores += stores as u64;

        let misspec_penalty = if misspec_branch.is_some() {
            timing.misspeculation_penalty
        } else {
            0
        };
        // One accounting pass yields the charged spans and the always-on
        // fabric heat sample from the same placement and timing state.
        // The stall + penalty cycles outside the row model travel as the
        // sample's residual, so heat's cycles reconcile exactly with
        // `array_exec_cycles`.
        let (spans, fabric_sample) = self.fabric.record(
            config,
            timing,
            executed_depth,
            mem_stall_cycles + misspec_penalty,
        );

        let mut flushed = false;
        match misspec_branch {
            Some((branch_pc, predicted)) => {
                self.stats.misspeculations += 1;
                // Flush the whole configuration once the counter saturates
                // the other way (paper §4.2), or once this configuration
                // has misspeculated a bounded number of times in a row.
                let strikes = self.misspec_counts.entry(config.entry_pc).or_insert(0);
                *strikes += 1;
                if self.predictor.saturated_direction(branch_pc) == Some(!predicted)
                    || *strikes >= self.config.misspec_flush_threshold
                {
                    self.cache.flush(config.entry_pc);
                    self.stats.config_flushes += 1;
                    self.misspec_counts.remove(&config.entry_pc);
                    flushed = true;
                }
            }
            None => {
                self.stats.full_hits += 1;
                // Most runs never misspeculate: skip the hash then.
                if !self.misspec_counts.is_empty() {
                    self.misspec_counts.remove(&config.entry_pc);
                }
            }
        }

        // The array stalls on data-cache misses and pays the flush
        // penalty inside its execution window, so both belong to the
        // exec span — stats and probe events both see one number.
        let exec_span = spans.exec + mem_stall_cycles + misspec_penalty;
        self.stats.reconfig_stall_cycles += spans.stall;
        self.stats.array_exec_cycles += exec_span;
        self.stats.writeback_tail_cycles += spans.tail;

        if P::ENABLED {
            if let Some((branch_pc, _)) = misspec_branch {
                probe.emit(ProbeEvent::SpecMispredict {
                    region_pc: config.entry_pc,
                    region_len: config.instruction_count() as u32,
                    branch_pc,
                    penalty_cycles: misspec_penalty as u32,
                });
            }
            if flushed {
                probe.emit(ProbeEvent::RcacheFlush {
                    pc: config.entry_pc,
                    len: config.instruction_count() as u32,
                });
            }
            probe.emit(ProbeEvent::Fabric(FabricUtil {
                entry_pc: config.entry_pc,
                rows: fabric_sample.rows,
                exec_thirds: fabric_sample.exec_thirds as u32,
                capacity_thirds: fabric_sample.capacity_thirds as u32,
                alu_busy_thirds: fabric_sample.busy_thirds[0] as u32,
                mult_busy_thirds: fabric_sample.busy_thirds[1] as u32,
                ldst_busy_thirds: fabric_sample.busy_thirds[2] as u32,
                issued_ops: fabric_sample.issued_ops,
                squashed_ops: fabric_sample.squashed_ops,
                residual_cycles: fabric_sample.residual_cycles as u32,
                writeback_writes: fabric_sample.writeback_writes,
                writeback_slots: fabric_sample.writeback_slots as u32,
            }));
            probe.emit(ProbeEvent::ArrayInvoke(ArrayInvoke {
                entry_pc: config.entry_pc,
                exit_pc: self.machine.cpu.pc,
                covered: config.instruction_count() as u32,
                executed,
                loads,
                stores,
                rows: config.rows_used() as u32,
                spec_depth: executed_depth,
                misspeculated: misspec_branch.is_some(),
                flushed,
                stall_cycles: spans.stall as u32,
                exec_cycles: exec_span as u32,
                tail_cycles: spans.tail as u32,
            }));
        }

        if let Some(entry) = entry_snapshot {
            self.cross_check(config, entry);
        }

        // The pipeline is drained while the array runs.
        self.machine.reset_hazard_window();
        self.translator.note_boundary();
        self.stats.translated_instructions = self.translator.observed_instructions();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::asm::assemble;
    use dim_mips::Reg;

    fn build(src: &str, shape: ArrayShape, slots: usize, spec: bool) -> (System, Machine) {
        let p = assemble(src).expect("assembles");
        let sys = System::new(Machine::load(&p), SystemConfig::new(shape, slots, spec));
        let baseline = Machine::load(&p);
        (sys, baseline)
    }

    fn check_equivalent(src: &str, shape: ArrayShape, slots: usize, spec: bool) -> (u64, u64) {
        let (mut sys, mut base) = build(src, shape, slots, spec);
        let r1 = sys.run(10_000_000).unwrap();
        let r2 = base.run(10_000_000).unwrap();
        assert_eq!(r1, r2, "halt reasons differ");
        for r in Reg::all() {
            assert_eq!(
                sys.machine().cpu.reg(r),
                base.cpu.reg(r),
                "register {r} differs"
            );
        }
        assert_eq!(sys.machine().output, base.output);
        (base.stats.cycles, sys.total_cycles())
    }

    const SUM_LOOP: &str = "
        main: li $t0, 500
              li $v0, 0
        loop: addu $v0, $v0, $t0
              xor  $t1, $v0, $t0
              addu $v0, $v0, $t1
              sll  $t2, $v0, 2
              addu $v0, $v0, $t2
              addiu $t0, $t0, -1
              bnez $t0, loop
              break 0";

    #[test]
    fn accelerated_matches_baseline_and_speeds_up() {
        let (base, accel) = check_equivalent(SUM_LOOP, ArrayShape::config1(), 64, false);
        assert!(accel < base, "accel {accel} >= base {base}");
    }

    #[test]
    fn speculation_matches_baseline_and_speeds_up_more() {
        let (base, spec) = check_equivalent(SUM_LOOP, ArrayShape::config1(), 64, true);
        let (_, nospec) = check_equivalent(SUM_LOOP, ArrayShape::config1(), 64, false);
        assert!(spec < base);
        // Speculation folds the loop branch into the configuration.
        assert!(spec <= nospec, "spec {spec} > nospec {nospec}");
    }

    #[test]
    fn host_split_populates_all_four_engine_buckets() {
        let (mut sys, _base) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        sys.enable_host_split(dim_obs::MonotonicClock::shared());
        sys.run(10_000_000).unwrap();
        let split = sys.host_split().expect("enabled");
        // Every loop iteration looks up the rcache; misses fetch/decode
        // and feed the translator; hits replay on the array.
        assert!(split.count(HostBucket::Rcache) > 0);
        assert!(split.count(HostBucket::FetchDecode) > 0);
        assert!(split.count(HostBucket::Translate) > 0);
        assert!(split.count(HostBucket::ArrayReplay) > 0);
        assert!(sys.stats().array_invocations > 0, "workload never warmed");
        // Priming samples guarantee a nonzero estimate per used bucket.
        assert!(split.sampled(HostBucket::Rcache) > 0);
    }

    #[test]
    fn host_split_is_off_by_default() {
        let (mut sys, _base) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        sys.run(10_000_000).unwrap();
        assert!(sys.host_split().is_none());
    }

    #[test]
    fn zero_slot_cache_never_accelerates() {
        let (mut sys, mut base) = build(SUM_LOOP, ArrayShape::config1(), 0, true);
        sys.run(10_000_000).unwrap();
        base.run(10_000_000).unwrap();
        assert_eq!(sys.stats().array_invocations, 0);
        assert_eq!(sys.total_cycles(), base.stats.cycles);
    }

    #[test]
    fn commit_tags_rcache_entry_when_cert_matches() {
        let p = assemble(SUM_LOOP).expect("assembles");
        // The loop head sits after the two one-instruction `li`s.
        let loop_pc = p.entry + 8;
        let cert = StreamingCert {
            version: dim_cgra::STREAM_CERT_VERSION,
            workload: "sum".into(),
            entry_pc: loop_pc,
            len: 7,
            accesses: vec![],
            burst: 4,
            trip_bound: Some(500),
        };
        let mut sys = System::new(
            Machine::load(&p),
            SystemConfig::new(ArrayShape::config1(), 64, false),
        );
        assert_eq!(sys.install_stream_certs([cert]), Ok(1));
        sys.run(10_000_000).unwrap();
        assert!(sys.stream_tags_applied() > 0, "loop commit never tagged");
        assert_eq!(sys.cache().stream_tag(loop_pc), Some(4));

        let mut base = Machine::load(&p);
        base.run(10_000_000).unwrap();
        for r in Reg::all() {
            assert_eq!(sys.machine().cpu.reg(r), base.cpu.reg(r), "{r} differs");
        }
    }

    #[test]
    fn commit_is_not_tagged_when_region_does_not_cover_ops() {
        let p = assemble(SUM_LOOP).expect("assembles");
        let loop_pc = p.entry + 8;
        // Certificate too short: the committed config's later ops fall
        // outside the certified region, so the tag must not apply.
        let cert = StreamingCert {
            version: dim_cgra::STREAM_CERT_VERSION,
            workload: "sum".into(),
            entry_pc: loop_pc,
            len: 3,
            accesses: vec![],
            burst: 4,
            trip_bound: None,
        };
        let mut sys = System::new(
            Machine::load(&p),
            SystemConfig::new(ArrayShape::config1(), 64, false),
        );
        sys.install_stream_certs([cert]).unwrap();
        sys.run(10_000_000).unwrap();
        assert_eq!(sys.stream_tags_applied(), 0);
        assert_eq!(sys.cache().stream_tag(loop_pc), None);
    }

    #[test]
    fn install_rejects_invalid_cert() {
        let (mut sys, _) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        let bad = StreamingCert {
            version: dim_cgra::STREAM_CERT_VERSION,
            workload: "sum".into(),
            entry_pc: 0x40_0000,
            len: 8,
            accesses: vec![],
            burst: 0, // burst must be ≥ 1
            trip_bound: None,
        };
        let err = sys.install_stream_certs([bad]).unwrap_err();
        assert!(err.contains("burst"), "{err}");
    }

    #[test]
    fn data_dependent_branch_speculation_stays_correct() {
        // Branch alternates: taken, not-taken, ... — bimodal never fully
        // stabilizes, misspeculations must not corrupt state.
        let src = "
            main: li $s0, 400
                  li $v0, 0
            loop: andi $t1, $s0, 1
                  beqz $t1, even
                  addiu $v0, $v0, 3
                  addiu $v0, $v0, 5
                  addiu $v0, $v0, 7
            even: addiu $v0, $v0, 1
                  xor   $t2, $v0, $s0
                  addu  $v0, $v0, $t2
                  addiu $s0, $s0, -1
                  bnez  $s0, loop
                  break 0";
        check_equivalent(src, ArrayShape::config2(), 64, true);
        check_equivalent(src, ArrayShape::config2(), 64, false);
    }

    #[test]
    fn memory_traffic_stays_correct_under_acceleration() {
        let src = "
            .data
            buf: .space 256
            .text
            main: li $s0, 64
                  la $s1, buf
            loop: sll $t0, $s0, 2
                  addu $t1, $s1, $t0
                  addiu $t2, $s0, 100
                  sw  $t2, -4($t1)
                  lw  $t3, -4($t1)
                  addu $s2, $s2, $t3
                  addiu $s0, $s0, -1
                  bnez $s0, loop
                  break 0";
        check_equivalent(src, ArrayShape::config1(), 64, true);
    }

    #[test]
    fn stats_account_array_activity() {
        let (mut sys, _) = build(SUM_LOOP, ArrayShape::config1(), 64, false);
        sys.run(10_000_000).unwrap();
        let s = sys.stats();
        assert!(s.array_invocations > 100, "{s:?}");
        assert!(s.array_instructions > 1000);
        assert!(s.configs_built >= 1);
        assert_eq!(s.misspeculations, 0);
        assert_eq!(s.full_hits, s.array_invocations);
        let (hits, _miss) = sys.cache().hit_miss();
        assert_eq!(hits, s.array_invocations);
    }

    #[test]
    fn total_instructions_conserved() {
        let (mut sys, mut base) = build(SUM_LOOP, ArrayShape::config3(), 256, true);
        sys.run(10_000_000).unwrap();
        base.run(10_000_000).unwrap();
        assert_eq!(sys.total_instructions(), base.stats.instructions);
    }

    #[test]
    fn tiny_array_still_correct() {
        let mut shape = ArrayShape::config1();
        shape.rows = 2;
        shape.alus_per_row = 2;
        shape.ldsts_per_row = 1;
        shape.mults_per_row = 1;
        check_equivalent(SUM_LOOP, shape, 16, true);
    }

    /// A hit interrupts an in-flight detection region, and the partial
    /// region it commits can evict the very entry the hit is about to
    /// replay. With one slot, the prelude falling into the inner loop
    /// does exactly that; the replay must still run the evicted
    /// configuration it holds and match the scalar run.
    #[test]
    fn hit_survives_eviction_by_its_own_partial_commit() {
        /// Counts inserts that evict the entry whose hit is pending.
        #[derive(Default)]
        struct SelfEvictions {
            pending_hit: Option<u32>,
            count: u64,
        }
        impl Probe for SelfEvictions {
            fn emit(&mut self, event: ProbeEvent) {
                match event {
                    ProbeEvent::RcacheHit { pc, .. } => self.pending_hit = Some(pc),
                    ProbeEvent::RcacheInsert {
                        evicted: Some(victim),
                        ..
                    } if Some(victim) == self.pending_hit => self.count += 1,
                    ProbeEvent::ArrayInvoke(_) => self.pending_hit = None,
                    _ => {}
                }
            }
        }

        let src = "
            .data
            buf: .space 64
            .text
            main:  li $s0, 12
                   la $s1, buf
            outer: addiu $t3, $t3, 1
                   xor   $t4, $t3, $s0
                   addu  $t5, $t4, $t3
                   sll   $t6, $t5, 1
                   addu  $t7, $t6, $t4
                   xor   $t8, $t7, $t5
                   addiu $t9, $t8, 3
                   addu  $v1, $t9, $t3
                   li    $s2, 6
            inner: sll   $t0, $s2, 2
                   addu  $t1, $s1, $t0
                   addu  $t2, $v1, $s2
                   sw    $t2, 0($t1)
                   mult  $t2, $s0
                   addiu $s2, $s2, -1
                   bnez  $s2, inner
                   mflo  $a0
                   addu  $v0, $v0, $a0
                   addiu $s0, $s0, -1
                   bnez  $s0, outer
                   break 0";
        let (mut sys, mut base) = build(src, ArrayShape::config2(), 1, true);
        let mut probe = SelfEvictions::default();
        let r1 = sys.run_probed(1_000_000, &mut probe).unwrap();
        let r2 = base.run(1_000_000).unwrap();
        assert_eq!(r1, r2, "halt reasons differ");
        assert!(
            probe.count > 0,
            "no hit was evicted by its own partial commit"
        );
        assert!(sys.cache().evictions() >= probe.count);
        assert!(sys.stats().rcache_evictions_live >= probe.count);
        for r in Reg::all() {
            assert_eq!(sys.machine().cpu.reg(r), base.cpu.reg(r), "register {r}");
        }
        assert_eq!(sys.machine().cpu.hi, base.cpu.hi, "HI");
        assert_eq!(sys.machine().cpu.lo, base.cpu.lo, "LO");
        let buf = dim_mips::asm::DEFAULT_DATA_BASE;
        assert_eq!(
            sys.machine().mem.read_bytes(buf, 64),
            base.mem.read_bytes(buf, 64)
        );
        assert_eq!(sys.total_instructions(), base.stats.instructions);
    }

    #[test]
    fn infinite_shape_correct_and_fast() {
        let (base, inf) = check_equivalent(SUM_LOOP, ArrayShape::infinite(), 1 << 20, true);
        assert!(inf < base);
    }
}

#[cfg(test)]
mod cross_check_tests {
    use super::*;
    use dim_mips::asm::assemble;

    /// The cross-check mode must pass silently on representative loops
    /// (pure ALU, store-only, load-only) — it panics on divergence.
    #[test]
    fn cross_check_passes_on_representative_loops() {
        let programs = [
            // ALU + speculation.
            "main: li $s0, 300
             loop: addu $v0, $v0, $s0
                   xor  $t1, $v0, $s0
                   addu $v0, $v0, $t1
                   sll  $t2, $v0, 2
                   addu $v0, $v0, $t2
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
            // Store-only bodies.
            ".data
             buf: .space 1024
             .text
             main: li $s0, 200
                   la $s1, buf
             loop: andi $t0, $s0, 0xff
                   sll  $t1, $t0, 2
                   addu $t2, $s1, $t1
                   sw   $s0, 0($t2)
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
            // Load-only bodies with a multiplier.
            ".data
             tab: .word 3, 1, 4, 1, 5, 9, 2, 6
             .text
             main: li $s0, 200
                   la $s1, tab
             loop: andi $t0, $s0, 7
                   sll  $t1, $t0, 2
                   addu $t2, $s1, $t1
                   lw   $t3, 0($t2)
                   mul  $t4, $t3, $s0
                   addu $v0, $v0, $t4
                   addiu $s0, $s0, -1
                   bnez $s0, loop
                   break 0",
        ];
        for src in programs {
            let program = assemble(src).expect("assembles");
            let mut config = SystemConfig::new(ArrayShape::config2(), 64, true);
            config.cross_check = true;
            let mut sys = System::new(Machine::load(&program), config);
            sys.run(1_000_000).expect("runs");
            assert!(
                sys.stats().array_invocations > 0,
                "nothing was cross-checked"
            );
        }
    }
}
