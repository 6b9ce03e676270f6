//! Steady-state cost gate for wall-clock span tracing.
//!
//! Runs two workloads three ways — uninstrumented, with a live
//! [`SpanSheet`] recording the per-cell spans a sweep worker does, and
//! with the engine's [`HostSplit`] attribution enabled on top — taking
//! the minimum wall time over several repetitions, and fails (exit 1)
//! if the fully-instrumented configuration's overhead over the
//! uninstrumented baseline exceeds 5% in aggregate. The sampled
//! host-split design is what keeps this bounded: only every 64th
//! section occurrence reads the clock. The numbers land in
//! `BENCH_span.json` so CI archives the trend.
//!
//! Usage: `bench_span [--out <dir>] [--reps N]`

use dim_bench::run_baseline;
use dim_cgra::ArrayShape;
use dim_core::{System, SystemConfig};
use dim_mips_sim::Machine;
use dim_obs::{MonotonicClock, ObjectWriter, SharedClock, SpanSheet};
use dim_workloads::{by_name, BuiltBenchmark, Scale};
use std::sync::Arc;
use std::time::Instant;

const WORKLOADS: [&str; 2] = ["crc32", "sha"];
const THRESHOLD_PCT: f64 = 5.0;
/// Room for every span the repetitions record, so none is dropped.
const SPAN_CAPACITY: usize = 16_384;

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn min_nanos(reps: u32, mut run: impl FnMut()) -> u64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
        })
        .min()
        .expect("at least one rep")
}

struct Row {
    name: &'static str,
    uninstrumented: u64,
    spans_only: u64,
    spans_and_split: u64,
    sampled: u64,
}

fn measure(name: &'static str, built: &BuiltBenchmark, reps: u32) -> Row {
    let config = SystemConfig::new(ArrayShape::config2(), 64, true);
    let uninstrumented = min_nanos(reps, || {
        let mut sys = System::new(Machine::load(&built.program), config);
        sys.run(built.max_steps).expect("runs");
        std::hint::black_box(sys.total_cycles());
    });
    // What a sweep worker records per cell: a root plus stage spans
    // around the simulation.
    let clock: SharedClock = MonotonicClock::shared();
    let sheet = SpanSheet::new(Arc::clone(&clock), SPAN_CAPACITY);
    let mut seq = 0u64;
    let spans_only = min_nanos(reps, || {
        seq += 1;
        let root = sheet.begin_root("cell", "bench", seq);
        let exec = sheet.begin("execute", root);
        let mut sys = System::new(Machine::load(&built.program), config);
        sys.run(built.max_steps).expect("runs");
        std::hint::black_box(sys.total_cycles());
        sheet.end(exec);
        sheet.end(root);
    });
    let mut sampled = 0u64;
    let spans_and_split = min_nanos(reps, || {
        seq += 1;
        let root = sheet.begin_root("cell", "bench", seq);
        let exec = sheet.begin("execute", root);
        let mut sys = System::new(Machine::load(&built.program), config);
        sys.enable_host_split(Arc::clone(&clock));
        sys.run(built.max_steps).expect("runs");
        std::hint::black_box(sys.total_cycles());
        let split = sys.host_split().expect("split enabled");
        sampled = dim_obs::HostBucket::ALL
            .iter()
            .map(|&b| split.sampled(b))
            .sum();
        sheet.attr(exec, split);
        sheet.end(exec);
        sheet.end(root);
    });
    Row {
        name,
        uninstrumented,
        spans_only,
        spans_and_split,
        sampled,
    }
}

fn overhead_pct(baseline: u64, candidate: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    100.0 * (candidate as f64 - baseline as f64) / baseline as f64
}

fn main() {
    let out_dir = arg_value("--out").unwrap_or_else(|| "bench-out".to_string());
    let reps: u32 = arg_value("--reps").map_or(7, |v| v.parse().expect("--reps: not a number"));

    let mut rows = Vec::new();
    for name in WORKLOADS {
        let built = (by_name(name).expect("workload exists").build)(Scale::Tiny);
        run_baseline(&built).expect("baseline validates");
        let row = measure(name, &built, reps);
        eprintln!(
            "  {name}: uninstrumented {:.3} ms, spans {:.3} ms, spans+split {:.3} ms \
             ({} clock samples, {:+.2}% vs uninstrumented)",
            row.uninstrumented as f64 / 1e6,
            row.spans_only as f64 / 1e6,
            row.spans_and_split as f64 / 1e6,
            row.sampled,
            overhead_pct(row.uninstrumented, row.spans_and_split),
        );
        rows.push(row);
    }

    let base_total: u64 = rows.iter().map(|r| r.uninstrumented).sum();
    let full_total: u64 = rows.iter().map(|r| r.spans_and_split).sum();
    let overall = overhead_pct(base_total, full_total);
    let ok = overall <= THRESHOLD_PCT;

    let mut workloads_json = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            workloads_json.push(',');
        }
        let mut o = ObjectWriter::new();
        o.field_str("name", r.name)
            .field_u64("uninstrumented_nanos_min", r.uninstrumented)
            .field_u64("spans_nanos_min", r.spans_only)
            .field_u64("spans_and_split_nanos_min", r.spans_and_split)
            .field_u64("clock_samples", r.sampled)
            .field_f64(
                "overhead_pct",
                overhead_pct(r.uninstrumented, r.spans_and_split),
            );
        workloads_json.push_str(&o.finish());
    }
    workloads_json.push(']');

    let mut doc = ObjectWriter::new();
    doc.field_str("bench", "span_overhead")
        .field_u64("span_capacity", SPAN_CAPACITY as u64)
        .field_u64("reps", u64::from(reps))
        .field_raw("workloads", &workloads_json)
        .field_f64("overall_overhead_pct", overall)
        .field_f64("threshold_pct", THRESHOLD_PCT)
        .field_bool("ok", ok);

    std::fs::create_dir_all(&out_dir).expect("create --out dir");
    let path = std::path::Path::new(&out_dir).join("BENCH_span.json");
    std::fs::write(&path, format!("{}\n", doc.finish())).expect("write BENCH_span.json");
    println!(
        "span tracing overhead {overall:+.2}% vs uninstrumented (threshold {THRESHOLD_PCT}%) -> {}",
        path.display()
    );
    if !ok {
        eprintln!("bench_span: overhead beyond threshold");
        std::process::exit(1);
    }
}
