//! Capturing a baseline: run the matrix, collect every metric.

use crate::baseline::{
    Baseline, FabricSummary, HostTelemetry, RcacheCounters, RecordMatrix, RegionSummary,
    WorkloadRecord,
};
use crate::host::{peak_rss_bytes, sim_mips};
use crate::PerfError;
use dim_bench::{run_baseline, run_explained, run_instrumented, speedup};
use dim_cgra::ArrayShape;
use dim_core::SystemConfig;
use dim_obs::{CycleProfiler, MetricsRegistry, ObjectWriter, Probe};
use dim_workloads::{by_name, Scale};
use std::time::Instant;

/// How many regions a baseline embeds per workload.
const TOP_REGIONS: usize = 5;

/// What to record and under which system parameters.
#[derive(Debug, Clone)]
pub struct RecordOptions {
    /// Baseline name stamped into the file.
    pub name: String,
    /// Workloads to run, in order.
    pub workloads: Vec<String>,
    /// Input scale (`tiny`, `small`, `full`).
    pub scale: String,
    /// Array shape from Table 1 (1, 2 or 3).
    pub shape: u32,
    /// Reconfiguration-cache slots.
    pub cache_slots: u64,
    /// Branch speculation on/off.
    pub speculation: bool,
    /// Wall-clock repetitions per workload (min-of-N); clamped to >= 1.
    pub host_reps: u32,
}

impl RecordOptions {
    /// Options reconstructed from a stored matrix, so a gate re-records
    /// under exactly the parameters the reference was captured with.
    pub fn from_matrix(name: &str, matrix: &RecordMatrix) -> RecordOptions {
        RecordOptions {
            name: name.to_string(),
            workloads: matrix.workloads.clone(),
            scale: matrix.scale.clone(),
            shape: matrix.shape,
            cache_slots: matrix.cache_slots,
            speculation: matrix.speculation,
            host_reps: matrix.host_reps,
        }
    }

    fn matrix(&self) -> RecordMatrix {
        RecordMatrix {
            workloads: self.workloads.clone(),
            scale: self.scale.clone(),
            shape: self.shape,
            cache_slots: self.cache_slots,
            speculation: self.speculation,
            host_reps: self.host_reps.max(1),
        }
    }

    fn parse_scale(&self) -> Result<Scale, PerfError> {
        match self.scale.as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(PerfError::Parse(format!(
                "unknown scale `{other}` (expected tiny, small or full)"
            ))),
        }
    }

    fn shape(&self) -> Result<ArrayShape, PerfError> {
        match self.shape {
            1 => Ok(ArrayShape::config1()),
            2 => Ok(ArrayShape::config2()),
            3 => Ok(ArrayShape::config3()),
            other => Err(PerfError::Parse(format!(
                "unknown array shape `{other}` (expected 1, 2 or 3)"
            ))),
        }
    }
}

/// Runs the matrix and captures a [`Baseline`].
///
/// Simulated metrics come from one instrumented run per workload (the
/// simulator is deterministic, repetitions cannot change them); the
/// wall clock is additionally sampled over `host_reps` runs and the
/// minimum kept, the standard trick for a low-noise point estimate.
///
/// # Errors
///
/// Fails on unknown workloads/scales/shapes and on any workload that
/// does not run and validate — a baseline must only ever hold correct
/// runs.
pub fn record(opts: &RecordOptions) -> Result<Baseline, PerfError> {
    let scale = opts.parse_scale()?;
    let shape = opts.shape()?;
    if opts.workloads.is_empty() {
        return Err(PerfError::Parse("no workloads selected".into()));
    }
    let reps = opts.host_reps.max(1);
    let mut workloads = Vec::new();
    for name in &opts.workloads {
        let spec = by_name(name).ok_or_else(|| PerfError::UnknownWorkload(name.clone()))?;
        let built = (spec.build)(scale);
        let base = run_baseline(&built)?;
        let scalar_cycles = base.stats.cycles;

        let config = SystemConfig::new(shape, opts.cache_slots as usize, opts.speculation);
        let mut first = None;
        let mut wall = Vec::with_capacity(reps as usize);
        for _ in 0..reps {
            let mut probes = (CycleProfiler::new(), MetricsRegistry::new());
            let started = Instant::now();
            let run = run_instrumented(&built, config, &mut probes)?;
            wall.push(started.elapsed().as_nanos() as u64);
            probes.finish();
            if first.is_none() {
                first = Some((run, probes));
            }
        }
        let (run, (profiler, metrics)) = first.expect("reps >= 1");
        let profile = profiler.into_profile();
        let attribution = run.system.cycle_breakdown();
        // Two independent derivations of the same attribution model:
        // the profiler (event stream) and the counters. Both must
        // account for every cycle.
        assert_eq!(profile.total_cycles(), run.cycles);
        assert_eq!(attribution.total(), run.cycles);

        let wall_min = wall.iter().copied().min().expect("reps >= 1");
        let wall_mean = wall.iter().sum::<u64>() as f64 / wall.len() as f64;
        let retired = run.system.machine().stats.instructions;
        // Throughput counts every architecturally retired instruction,
        // on the pipeline and on the array alike; `retired` stays the
        // pipeline-only count the gate compares.
        let instructions = run.system.total_instructions();

        // One traced run reconstructs the per-region footprint; the
        // simulator is deterministic, so it sees exactly the run the
        // metrics above describe. Regions come back sorted by
        // attributed cycles — keep the top few.
        let explained = run_explained(&built, config)?;
        debug_assert_eq!(explained.run.cycles, run.cycles);
        let regions: Vec<RegionSummary> = explained
            .explanation
            .regions
            .iter()
            .take(TOP_REGIONS)
            .map(|r| RegionSummary {
                pc: r.pc,
                len: r.len,
                cycles: r.attributed_cycles(),
                invocations: r.invocations,
                mispredicts: r.mispredicts,
            })
            .collect();
        let heat = run.system.fabric_heat();
        let fabric = Some(FabricSummary {
            alu_busy_thirds: heat.busy_thirds[0],
            alu_capacity_thirds: heat.capacity_thirds[0],
            mult_busy_thirds: heat.busy_thirds[1],
            mult_capacity_thirds: heat.capacity_thirds[1],
            ldst_busy_thirds: heat.busy_thirds[2],
            ldst_capacity_thirds: heat.capacity_thirds[2],
            writeback_writes: heat.writeback_writes,
            writeback_slots: heat.writeback_slots,
        });
        workloads.push(WorkloadRecord {
            name: name.clone(),
            scalar_cycles,
            accel_cycles: run.cycles,
            speedup: speedup(scalar_cycles, run.cycles),
            retired,
            array_invocations: run.system.stats().array_invocations,
            attribution,
            rcache: RcacheCounters {
                hits: metrics.rcache_hits,
                misses: metrics.rcache_misses,
                inserts: metrics.rcache_inserts,
                evictions: metrics.rcache_evictions,
                flushes: metrics.rcache_flushes,
            },
            host: HostTelemetry {
                wall_nanos_min: wall_min,
                wall_nanos_mean: wall_mean,
                reps,
                sim_mips: sim_mips(instructions, wall_min),
                peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
            },
            regions,
            fabric,
        });
    }
    Ok(Baseline {
        schema_version: crate::BASELINE_SCHEMA_VERSION,
        name: opts.name.clone(),
        matrix: opts.matrix(),
        workloads,
    })
}

/// Host-telemetry export for harness consumption (`BENCH_perf.json`):
/// the non-deterministic side of a recording, kept out of the baseline
/// diff surface that gates regressions.
pub fn bench_perf_json(baseline: &Baseline) -> String {
    let mut per = String::from("[");
    for (i, w) in baseline.workloads.iter().enumerate() {
        if i > 0 {
            per.push(',');
        }
        let mut o = ObjectWriter::new();
        o.field_str("workload", &w.name);
        o.field_u64("wall_nanos_min", w.host.wall_nanos_min);
        o.field_f64("wall_nanos_mean", w.host.wall_nanos_mean);
        o.field_f64("sim_mips", w.host.sim_mips);
        o.field_u64("retired", w.retired);
        per.push_str(&o.finish());
    }
    per.push(']');
    let total_wall: u64 = baseline
        .workloads
        .iter()
        .map(|w| w.host.wall_nanos_min)
        .sum();
    let mut o = ObjectWriter::new();
    o.field_str("bench", "perf");
    o.field_str("baseline", &baseline.name);
    o.field_u64("workloads", baseline.workloads.len() as u64);
    o.field_u64("total_wall_nanos_min", total_wall);
    o.field_u64(
        "peak_rss_bytes",
        baseline
            .workloads
            .iter()
            .map(|w| w.host.peak_rss_bytes)
            .max()
            .unwrap_or(0),
    );
    o.field_raw("per_workload", &per);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_core::System;
    use dim_mips_sim::Machine;

    /// sim-MIPS divides the instructions retired on the pipeline *and*
    /// the array by the fastest wall time, not the pipeline-only count.
    #[test]
    fn sim_mips_counts_array_instructions() {
        let opts = RecordOptions {
            name: "numerator".into(),
            workloads: vec!["crc32".into()],
            scale: "tiny".into(),
            shape: 2,
            cache_slots: 64,
            speculation: true,
            host_reps: 1,
        };
        let w = record(&opts).expect("records").workloads.remove(0);

        let built = (by_name("crc32").unwrap().build)(Scale::Tiny);
        let mut system = System::new(
            Machine::load(&built.program),
            SystemConfig::new(ArrayShape::config2(), 64, true),
        );
        system.run(built.max_steps).expect("runs");
        let total = system.total_instructions();
        assert_eq!(w.retired, system.machine().stats.instructions);
        assert!(total > w.retired, "crc32 must retire work on the array");
        assert_eq!(w.host.sim_mips, sim_mips(total, w.host.wall_nanos_min));
    }
}
