//! The versioned on-disk baseline format.
//!
//! A baseline is one JSON object: schema version, a human-chosen name,
//! the exact record matrix it was captured with (so a gate can re-record
//! under identical parameters), and one record per workload. Parsing
//! validates the schema invariants — most importantly that every
//! workload's six attribution columns sum *exactly* to its accelerated
//! cycle total.

use crate::PerfError;
use dim_core::CycleBreakdown;
use dim_obs::{parse_json, JsonValue, ObjectWriter};

/// Version of the baseline file format.
///
/// Compatibility policy matches the trace schema: readers reject files
/// declaring a newer version and ignore unknown fields within a known
/// version.
pub const BASELINE_SCHEMA_VERSION: u32 = 1;

/// Reconfiguration-cache behaviour during the accelerated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RcacheCounters {
    /// Lookups that found a cached configuration.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Configurations inserted.
    pub inserts: u64,
    /// Insertions that displaced an entry.
    pub evictions: u64,
    /// Configurations flushed after repeated misspeculation.
    pub flushes: u64,
}

/// One hot region's footprint during the recording run: the key
/// (detection PC + covered length) plus the cycles `dim explain`
/// attributes to it. Baselines embed the top few so `perf compare` can
/// name the region a cycle regression moved into, not just the phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionSummary {
    /// Detection PC of the translated region.
    pub pc: u32,
    /// Instructions the configuration covers.
    pub len: u32,
    /// Cycles attributed to the region (translate windows + array).
    pub cycles: u64,
    /// Array invocations that entered at this PC.
    pub invocations: u64,
    /// Speculative mispredicts charged to the region.
    pub mispredicts: u64,
}

/// Fabric-utilization counters from the accelerated run — the raw
/// integers behind the gate's direction-aware utilization metrics.
/// Baselines recorded before fabric observability existed lack the
/// field entirely; it is omitted from the JSON then (the `regions`
/// pattern), so older files parse and older readers are not confused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricSummary {
    /// Unit-window thirds in which an ALU held a confirmed operation.
    pub alu_busy_thirds: u64,
    /// ALU thirds provisioned across occupied rows.
    pub alu_capacity_thirds: u64,
    /// Busy thirds for the multipliers.
    pub mult_busy_thirds: u64,
    /// Provisioned thirds for the multipliers.
    pub mult_capacity_thirds: u64,
    /// Busy thirds for the load/store units.
    pub ldst_busy_thirds: u64,
    /// Provisioned thirds for the load/store units.
    pub ldst_capacity_thirds: u64,
    /// Registers written back after configurations.
    pub writeback_writes: u64,
    /// Writeback slots available over those configurations.
    pub writeback_slots: u64,
}

impl FabricSummary {
    /// Busy thirds summed across unit classes.
    pub fn busy_total(&self) -> u64 {
        self.alu_busy_thirds + self.mult_busy_thirds + self.ldst_busy_thirds
    }

    /// Capacity thirds summed across unit classes.
    pub fn capacity_total(&self) -> u64 {
        self.alu_capacity_thirds + self.mult_capacity_thirds + self.ldst_capacity_thirds
    }
}

/// Host-side (non-deterministic) measurements for one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTelemetry {
    /// Fastest accelerated run over [`reps`](HostTelemetry::reps)
    /// repetitions, in nanoseconds — min-of-N filters scheduler noise.
    pub wall_nanos_min: u64,
    /// Mean wall time over the repetitions, in nanoseconds.
    pub wall_nanos_mean: f64,
    /// Repetitions measured.
    pub reps: u32,
    /// Millions of simulated instructions retired (on the pipeline and
    /// the array) per host second, computed from the fastest repetition.
    pub sim_mips: f64,
    /// Peak resident set size of the recording process in bytes
    /// (0 when the platform does not expose it).
    pub peak_rss_bytes: u64,
}

/// Everything recorded about one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// Workload name from the suite.
    pub name: String,
    /// Cycles on the plain scalar pipeline.
    pub scalar_cycles: u64,
    /// Total simulated cycles on the accelerated system.
    pub accel_cycles: u64,
    /// `scalar_cycles / accel_cycles`.
    pub speedup: f64,
    /// Pipeline instructions retired during the accelerated run.
    pub retired: u64,
    /// Array invocations during the accelerated run.
    pub array_invocations: u64,
    /// Exact per-phase attribution; sums to
    /// [`accel_cycles`](WorkloadRecord::accel_cycles).
    pub attribution: CycleBreakdown,
    /// Reconfiguration-cache counters.
    pub rcache: RcacheCounters,
    /// Host telemetry.
    pub host: HostTelemetry,
    /// Top regions by attributed cycles (empty in baselines recorded
    /// before region forensics existed; omitted from the JSON then, so
    /// older files parse and older readers are not confused).
    pub regions: Vec<RegionSummary>,
    /// Fabric-utilization counters (`None` in baselines recorded before
    /// fabric observability existed; omitted from the JSON then).
    pub fabric: Option<FabricSummary>,
}

/// The workload matrix a baseline was recorded under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMatrix {
    /// Workload names, in recording order.
    pub workloads: Vec<String>,
    /// Input scale: `tiny`, `small`, or `full`.
    pub scale: String,
    /// Array shape from Table 1 (1, 2 or 3).
    pub shape: u32,
    /// Reconfiguration-cache capacity in slots.
    pub cache_slots: u64,
    /// Whether branch speculation was enabled.
    pub speculation: bool,
    /// Wall-clock repetitions per workload.
    pub host_reps: u32,
}

/// A complete baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Format version ([`BASELINE_SCHEMA_VERSION`] when written here).
    pub schema_version: u32,
    /// Human-chosen baseline name (e.g. `ci`).
    pub name: String,
    /// The matrix it was recorded under.
    pub matrix: RecordMatrix,
    /// One record per workload, in matrix order.
    pub workloads: Vec<WorkloadRecord>,
}

impl Baseline {
    /// Serializes the baseline as pretty-enough single-object JSON
    /// (one workload per line for reviewable diffs).
    pub fn to_json(&self) -> String {
        let mut matrix = ObjectWriter::new();
        let mut names = String::from("[");
        for (i, w) in self.matrix.workloads.iter().enumerate() {
            if i > 0 {
                names.push(',');
            }
            let mut s = String::new();
            dim_obs::write_escaped(&mut s, w);
            names.push_str(&s);
        }
        names.push(']');
        matrix.field_raw("workloads", &names);
        matrix.field_str("scale", &self.matrix.scale);
        matrix.field_u64("shape", self.matrix.shape as u64);
        matrix.field_u64("cache_slots", self.matrix.cache_slots);
        matrix.field_bool("speculation", self.matrix.speculation);
        matrix.field_u64("host_reps", self.matrix.host_reps as u64);

        let mut out = String::from("{\n");
        out.push_str(&format!("\"schema_version\": {},\n", self.schema_version));
        let mut name = String::new();
        dim_obs::write_escaped(&mut name, &self.name);
        out.push_str(&format!("\"name\": {name},\n"));
        out.push_str(&format!("\"matrix\": {},\n", matrix.finish()));
        out.push_str("\"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&w.to_json());
            if i + 1 < self.workloads.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses and validates a baseline file.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, a newer schema version, duplicate
    /// workload names, and any workload whose attribution columns do
    /// not sum to its accelerated cycle total.
    pub fn parse(text: &str) -> Result<Baseline, PerfError> {
        let v = parse_json(text).map_err(|e| PerfError::Parse(format!("baseline: {e}")))?;
        let schema_version = get_u64(&v, "schema_version")? as u32;
        if schema_version > BASELINE_SCHEMA_VERSION {
            return Err(PerfError::Parse(format!(
                "baseline schema version {schema_version} is newer than supported \
                 {BASELINE_SCHEMA_VERSION}"
            )));
        }
        let matrix_v = v
            .get("matrix")
            .ok_or_else(|| PerfError::Parse("baseline: missing `matrix`".into()))?;
        let matrix = RecordMatrix {
            workloads: matrix_v
                .get("workloads")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| PerfError::Parse("baseline: missing `matrix.workloads`".into()))?
                .iter()
                .map(|w| {
                    w.as_str().map(str::to_string).ok_or_else(|| {
                        PerfError::Parse("baseline: non-string workload name".into())
                    })
                })
                .collect::<Result<_, _>>()?,
            scale: get_str(matrix_v, "scale")?,
            shape: get_u64(matrix_v, "shape")? as u32,
            cache_slots: get_u64(matrix_v, "cache_slots")?,
            speculation: matrix_v
                .get("speculation")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| PerfError::Parse("baseline: missing `matrix.speculation`".into()))?,
            host_reps: get_u64(matrix_v, "host_reps")? as u32,
        };
        let mut workloads = Vec::new();
        for w in v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| PerfError::Parse("baseline: missing `workloads` array".into()))?
        {
            workloads.push(WorkloadRecord::parse(w)?);
        }
        for pair in workloads.windows(2) {
            if workloads.iter().filter(|w| w.name == pair[0].name).count() > 1 {
                return Err(PerfError::Parse(format!(
                    "baseline: duplicate workload `{}`",
                    pair[0].name
                )));
            }
        }
        Ok(Baseline {
            schema_version,
            name: get_str(&v, "name")?,
            matrix,
            workloads,
        })
    }

    /// The record for `name`, if present.
    pub fn workload(&self, name: &str) -> Option<&WorkloadRecord> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

impl WorkloadRecord {
    /// Serializes the record as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut attr = ObjectWriter::new();
        for (name, cycles) in self.attribution.named() {
            attr.field_u64(name, cycles);
        }
        let mut rc = ObjectWriter::new();
        rc.field_u64("hits", self.rcache.hits);
        rc.field_u64("misses", self.rcache.misses);
        rc.field_u64("inserts", self.rcache.inserts);
        rc.field_u64("evictions", self.rcache.evictions);
        rc.field_u64("flushes", self.rcache.flushes);
        let mut host = ObjectWriter::new();
        host.field_u64("wall_nanos_min", self.host.wall_nanos_min);
        host.field_f64("wall_nanos_mean", self.host.wall_nanos_mean);
        host.field_u64("reps", self.host.reps as u64);
        host.field_f64("sim_mips", self.host.sim_mips);
        host.field_u64("peak_rss_bytes", self.host.peak_rss_bytes);
        let mut o = ObjectWriter::new();
        o.field_str("name", &self.name);
        o.field_u64("scalar_cycles", self.scalar_cycles);
        o.field_u64("accel_cycles", self.accel_cycles);
        o.field_f64("speedup", self.speedup);
        o.field_u64("retired", self.retired);
        o.field_u64("array_invocations", self.array_invocations);
        o.field_raw("attribution", &attr.finish());
        o.field_raw("rcache", &rc.finish());
        o.field_raw("host", &host.finish());
        if !self.regions.is_empty() {
            let mut regions = String::from("[");
            for (i, r) in self.regions.iter().enumerate() {
                if i > 0 {
                    regions.push(',');
                }
                let mut ro = ObjectWriter::new();
                ro.field_u64("pc", r.pc as u64);
                ro.field_u64("len", r.len as u64);
                ro.field_u64("cycles", r.cycles);
                ro.field_u64("invocations", r.invocations);
                ro.field_u64("mispredicts", r.mispredicts);
                regions.push_str(&ro.finish());
            }
            regions.push(']');
            o.field_raw("regions", &regions);
        }
        if let Some(f) = &self.fabric {
            let mut fo = ObjectWriter::new();
            fo.field_u64("alu_busy_thirds", f.alu_busy_thirds);
            fo.field_u64("alu_capacity_thirds", f.alu_capacity_thirds);
            fo.field_u64("mult_busy_thirds", f.mult_busy_thirds);
            fo.field_u64("mult_capacity_thirds", f.mult_capacity_thirds);
            fo.field_u64("ldst_busy_thirds", f.ldst_busy_thirds);
            fo.field_u64("ldst_capacity_thirds", f.ldst_capacity_thirds);
            fo.field_u64("writeback_writes", f.writeback_writes);
            fo.field_u64("writeback_slots", f.writeback_slots);
            o.field_raw("fabric", &fo.finish());
        }
        o.finish()
    }

    fn parse(v: &JsonValue) -> Result<WorkloadRecord, PerfError> {
        let name = get_str(v, "name")?;
        let attr_v = v
            .get("attribution")
            .ok_or_else(|| PerfError::Parse(format!("workload `{name}`: missing attribution")))?;
        let attribution = CycleBreakdown {
            pipeline: get_u64(attr_v, "pipeline")?,
            i_stall: get_u64(attr_v, "i_stall")?,
            d_stall: get_u64(attr_v, "d_stall")?,
            reconfig_stall: get_u64(attr_v, "reconfig_stall")?,
            array_exec: get_u64(attr_v, "array_exec")?,
            writeback_tail: get_u64(attr_v, "writeback_tail")?,
        };
        let rc_v = v
            .get("rcache")
            .ok_or_else(|| PerfError::Parse(format!("workload `{name}`: missing rcache")))?;
        let host_v = v
            .get("host")
            .ok_or_else(|| PerfError::Parse(format!("workload `{name}`: missing host")))?;
        let mut regions = Vec::new();
        if let Some(list) = v.get("regions").and_then(JsonValue::as_array) {
            for r in list {
                regions.push(RegionSummary {
                    pc: get_u64(r, "pc")? as u32,
                    len: get_u64(r, "len")? as u32,
                    cycles: get_u64(r, "cycles")?,
                    invocations: get_u64(r, "invocations")?,
                    mispredicts: get_u64(r, "mispredicts")?,
                });
            }
        }
        let fabric = match v.get("fabric") {
            Some(fv) => {
                let f = FabricSummary {
                    alu_busy_thirds: get_u64(fv, "alu_busy_thirds")?,
                    alu_capacity_thirds: get_u64(fv, "alu_capacity_thirds")?,
                    mult_busy_thirds: get_u64(fv, "mult_busy_thirds")?,
                    mult_capacity_thirds: get_u64(fv, "mult_capacity_thirds")?,
                    ldst_busy_thirds: get_u64(fv, "ldst_busy_thirds")?,
                    ldst_capacity_thirds: get_u64(fv, "ldst_capacity_thirds")?,
                    writeback_writes: get_u64(fv, "writeback_writes")?,
                    writeback_slots: get_u64(fv, "writeback_slots")?,
                };
                // Baselines only record finite Table 1 shapes, where
                // busy can never exceed capacity.
                for (class, busy, cap) in [
                    ("alu", f.alu_busy_thirds, f.alu_capacity_thirds),
                    ("mult", f.mult_busy_thirds, f.mult_capacity_thirds),
                    ("ldst", f.ldst_busy_thirds, f.ldst_capacity_thirds),
                ] {
                    if busy > cap {
                        return Err(PerfError::Parse(format!(
                            "workload `{name}`: fabric {class} busy {busy} exceeds capacity {cap}"
                        )));
                    }
                }
                Some(f)
            }
            None => None,
        };
        let record = WorkloadRecord {
            scalar_cycles: get_u64(v, "scalar_cycles")?,
            accel_cycles: get_u64(v, "accel_cycles")?,
            speedup: get_f64(v, "speedup")?,
            retired: get_u64(v, "retired")?,
            array_invocations: get_u64(v, "array_invocations")?,
            attribution,
            rcache: RcacheCounters {
                hits: get_u64(rc_v, "hits")?,
                misses: get_u64(rc_v, "misses")?,
                inserts: get_u64(rc_v, "inserts")?,
                evictions: get_u64(rc_v, "evictions")?,
                flushes: get_u64(rc_v, "flushes")?,
            },
            host: HostTelemetry {
                wall_nanos_min: get_u64(host_v, "wall_nanos_min")?,
                wall_nanos_mean: get_f64(host_v, "wall_nanos_mean")?,
                reps: get_u64(host_v, "reps")? as u32,
                sim_mips: get_f64(host_v, "sim_mips")?,
                peak_rss_bytes: get_u64(host_v, "peak_rss_bytes")?,
            },
            regions,
            fabric,
            name,
        };
        if record.attribution.total() != record.accel_cycles {
            return Err(PerfError::Parse(format!(
                "workload `{}`: attribution columns sum to {} but accel_cycles is {}",
                record.name,
                record.attribution.total(),
                record.accel_cycles
            )));
        }
        Ok(record)
    }
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, PerfError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| PerfError::Parse(format!("missing or non-integer field `{key}`")))
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, PerfError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| PerfError::Parse(format!("missing or non-numeric field `{key}`")))
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, PerfError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| PerfError::Parse(format!("missing or non-string field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Baseline {
        Baseline {
            schema_version: BASELINE_SCHEMA_VERSION,
            name: "test".into(),
            matrix: RecordMatrix {
                workloads: vec!["crc32".into()],
                scale: "tiny".into(),
                shape: 1,
                cache_slots: 64,
                speculation: true,
                host_reps: 2,
            },
            workloads: vec![WorkloadRecord {
                name: "crc32".into(),
                scalar_cycles: 1000,
                accel_cycles: 600,
                speedup: 1000.0 / 600.0,
                retired: 400,
                array_invocations: 10,
                attribution: CycleBreakdown {
                    pipeline: 400,
                    i_stall: 50,
                    d_stall: 50,
                    reconfig_stall: 40,
                    array_exec: 50,
                    writeback_tail: 10,
                },
                rcache: RcacheCounters {
                    hits: 9,
                    misses: 1,
                    inserts: 1,
                    evictions: 0,
                    flushes: 0,
                },
                host: HostTelemetry {
                    wall_nanos_min: 12345,
                    wall_nanos_mean: 13000.5,
                    reps: 2,
                    sim_mips: 32.4,
                    peak_rss_bytes: 1 << 20,
                },
                regions: vec![],
                fabric: None,
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let b = sample();
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn json_roundtrip_preserves_regions() {
        let mut b = sample();
        b.workloads[0].regions = vec![
            RegionSummary {
                pc: 0x400,
                len: 7,
                cycles: 90,
                invocations: 9,
                mispredicts: 1,
            },
            RegionSummary {
                pc: 0x440,
                len: 3,
                cycles: 10,
                invocations: 1,
                mispredicts: 0,
            },
        ];
        let json = b.to_json();
        assert!(json.contains("\"regions\""), "{json}");
        let parsed = Baseline::parse(&json).unwrap();
        assert_eq!(parsed, b);
        // A region-free record keeps the field out entirely, so files
        // from before region forensics stay byte-stable.
        assert!(!sample().to_json().contains("\"regions\""));
    }

    #[test]
    fn json_roundtrip_preserves_fabric() {
        let mut b = sample();
        b.workloads[0].fabric = Some(FabricSummary {
            alu_busy_thirds: 120,
            alu_capacity_thirds: 480,
            mult_busy_thirds: 18,
            mult_capacity_thirds: 72,
            ldst_busy_thirds: 9,
            ldst_capacity_thirds: 36,
            writeback_writes: 30,
            writeback_slots: 90,
        });
        let json = b.to_json();
        assert!(json.contains("\"fabric\""), "{json}");
        let parsed = Baseline::parse(&json).unwrap();
        assert_eq!(parsed, b);
        // A fabric-free record keeps the field out entirely, so files
        // from before fabric observability stay byte-stable.
        assert!(!sample().to_json().contains("\"fabric\""));
    }

    #[test]
    fn rejects_fabric_busy_beyond_capacity() {
        let mut b = sample();
        b.workloads[0].fabric = Some(FabricSummary {
            alu_busy_thirds: 500,
            alu_capacity_thirds: 480,
            ..FabricSummary::default()
        });
        let e = Baseline::parse(&b.to_json()).unwrap_err();
        assert!(e.to_string().contains("exceeds capacity"), "{e}");
    }

    #[test]
    fn rejects_newer_schema_version() {
        let mut b = sample();
        b.schema_version = BASELINE_SCHEMA_VERSION + 1;
        let e = Baseline::parse(&b.to_json()).unwrap_err();
        assert!(e.to_string().contains("newer"), "{e}");
    }

    #[test]
    fn rejects_attribution_that_does_not_sum() {
        let mut b = sample();
        b.workloads[0].accel_cycles += 1; // attribution now under-counts
        let e = Baseline::parse(&b.to_json()).unwrap_err();
        assert!(e.to_string().contains("attribution"), "{e}");
    }

    #[test]
    fn rejects_duplicate_workloads() {
        let mut b = sample();
        let dup = b.workloads[0].clone();
        b.workloads.push(dup);
        let e = Baseline::parse(&b.to_json()).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
    }

    #[test]
    fn ignores_unknown_fields() {
        let b = sample();
        let json = b.to_json().replace(
            "\"schema_version\": 1,",
            "\"schema_version\": 1,\n\"generator\": \"future-tool\",",
        );
        let parsed = Baseline::parse(&json).unwrap();
        assert_eq!(parsed, b);
    }
}
