//! `dim spans`: offline analyzer for wall-clock span dumps
//! (`spans.dimspan`) written by `dim sweep`.
//!
//! The analyzer never re-times anything — it works purely from the
//! recorded monotonic-clock intervals: per-stage latency percentiles,
//! per-tenant aggregation (a sweep tags each cell's tree with its
//! workload), the slowest request's waterfall with its
//! critical path, and the engine's host-time attribution buckets.
//! `--json` emits the same aggregates machine-readably; `--chrome-out`
//! exports every tree as Chrome trace events (one track per request).

use crate::{check_flags, parse_flag_value, CliError};
use dim_obs::span::{percentile_nanos, read_span_file, ParsedSpan, SpanFile, SpanForest};
use dim_obs::{write_escaped, ObjectWriter};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Entry point for `dim spans <file> [--json] [--chrome-out <f.json>]`.
pub fn cmd_spans(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    check_flags("spans", args, &["--chrome-out"], &["--json"], 1)?;
    let chrome_out = parse_flag_value(args, "--chrome-out")?;
    // The one positional is the dump path; skip flag values when
    // scanning for it.
    let mut path: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--chrome-out" {
            i += 2;
            continue;
        }
        if !a.starts_with('-') {
            path = Some(a);
            break;
        }
        i += 1;
    }
    let path = path.ok_or_else(|| CliError::new("spans: missing <spans.dimspan> file"))?;
    let file = read_span_file(Path::new(path))
        .map_err(|e| CliError::new(format!("spans: {path}: {e}")))?;
    let forest = SpanForest::build(&file);
    let laws = forest.check_laws();

    if let Some(chrome_path) = chrome_out {
        let trace = chrome_trace(&forest);
        std::fs::write(chrome_path, trace)
            .map_err(|e| CliError::new(format!("--chrome-out {chrome_path}: {e}")))?;
        writeln!(out, "chrome trace -> {chrome_path}")?;
    }

    if args.iter().any(|a| a == "--json") {
        writeln!(out, "{}", render_json(path, &file, &forest, &laws))?;
        return Ok(());
    }
    render_text(path, &file, &forest, &laws, out)?;
    if laws.is_empty() {
        Ok(())
    } else {
        Err(CliError::new(format!(
            "spans: {} law violation(s) (see above)",
            laws.len()
        )))
    }
}

/// Micros with millisecond-style precision for human output.
fn fmt_micros(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1_000.0)
}

/// Roots grouped by tenant, each with its sorted wall durations.
fn tenant_walls(forest: &SpanForest) -> BTreeMap<&str, Vec<u64>> {
    let mut map: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for &root in &forest.roots {
        let span = &forest.spans[root];
        map.entry(span.tenant.as_str())
            .or_default()
            .push(span.duration_nanos());
    }
    for walls in map.values_mut() {
        walls.sort_unstable();
    }
    map
}

/// Host-attribution buckets summed over every span in the dump.
fn bucket_totals(file: &SpanFile) -> BTreeMap<&str, (u64, u64, u64)> {
    let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for attr in &file.attrs {
        for bucket in &attr.buckets {
            let t = totals.entry(bucket.name.as_str()).or_default();
            t.0 += bucket.count;
            t.1 += bucket.sampled;
            t.2 += bucket.nanos;
        }
    }
    totals
}

fn slowest_root(forest: &SpanForest) -> Option<usize> {
    forest
        .roots
        .iter()
        .copied()
        .max_by_key(|&r| forest.spans[r].duration_nanos())
}

fn render_text(
    path: &str,
    file: &SpanFile,
    forest: &SpanForest,
    laws: &[String],
    out: &mut impl Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{path}: {} span(s), {} request tree(s), {} orphan(s) trimmed, {} dropped",
        file.spans.len(),
        forest.roots.len(),
        forest.orphans_trimmed,
        file.dropped
    )?;
    if laws.is_empty() {
        writeln!(out, "laws: ok")?;
    } else {
        for v in laws {
            writeln!(out, "law violation: {v}")?;
        }
    }

    writeln!(out, "\nper-stage latency (us):")?;
    writeln!(
        out,
        "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p90", "p99", "max"
    )?;
    for (stage, mut nanos) in forest.stage_durations() {
        nanos.sort_unstable();
        writeln!(
            out,
            "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
            stage,
            nanos.len(),
            fmt_micros(percentile_nanos(&nanos, 50)),
            fmt_micros(percentile_nanos(&nanos, 90)),
            fmt_micros(percentile_nanos(&nanos, 99)),
            fmt_micros(nanos.last().copied().unwrap_or(0)),
        )?;
    }

    writeln!(out, "\nper-tenant requests (us):")?;
    writeln!(
        out,
        "  {:<16} {:>8} {:>10} {:>10} {:>12}",
        "tenant", "count", "p50", "p99", "total"
    )?;
    for (tenant, walls) in tenant_walls(forest) {
        let label = if tenant.is_empty() { "(none)" } else { tenant };
        writeln!(
            out,
            "  {:<16} {:>8} {:>10} {:>10} {:>12}",
            label,
            walls.len(),
            fmt_micros(percentile_nanos(&walls, 50)),
            fmt_micros(percentile_nanos(&walls, 99)),
            fmt_micros(walls.iter().sum()),
        )?;
    }

    if let Some(root) = slowest_root(forest) {
        let span = &forest.spans[root];
        writeln!(
            out,
            "\nslowest request: tenant `{}` seq {} — {} us wall",
            span.tenant,
            span.seq,
            fmt_micros(span.duration_nanos())
        )?;
        render_waterfall(forest, root, root, 0, out)?;
        let (cp, cp_nanos) = forest.critical_path(root);
        let stages: Vec<&str> = cp.iter().map(|&i| forest.spans[i].stage.as_str()).collect();
        writeln!(
            out,
            "critical path: {} ({} us of {} us wall)",
            stages.join(" -> "),
            fmt_micros(cp_nanos),
            fmt_micros(span.duration_nanos()),
        )?;
    }

    let totals = bucket_totals(file);
    if !totals.is_empty() {
        writeln!(out, "\nengine host-time attribution (all requests):")?;
        writeln!(
            out,
            "  {:<14} {:>10} {:>10} {:>12}",
            "bucket", "count", "sampled", "est us"
        )?;
        for (name, (count, sampled, nanos)) in totals {
            writeln!(
                out,
                "  {:<14} {:>10} {:>10} {:>12}",
                name,
                count,
                sampled,
                fmt_micros(nanos)
            )?;
        }
    }
    Ok(())
}

/// One indented line per span in the slowest tree, with a 32-column
/// bar placing the span inside the root's wall interval.
fn render_waterfall(
    forest: &SpanForest,
    root: usize,
    index: usize,
    depth: usize,
    out: &mut impl Write,
) -> Result<(), CliError> {
    const BAR: usize = 32;
    let root_span = &forest.spans[root];
    let span = &forest.spans[index];
    let wall = root_span.duration_nanos().max(1);
    let offset = span.start_nanos.saturating_sub(root_span.start_nanos);
    let lead = (offset as usize).saturating_mul(BAR) / (wall as usize).max(1);
    let len = ((span.duration_nanos() as usize).saturating_mul(BAR) / (wall as usize).max(1))
        .clamp(1, BAR.saturating_sub(lead).max(1));
    let mut bar = " ".repeat(lead.min(BAR.saturating_sub(1)));
    bar.push_str(&"#".repeat(len));
    writeln!(
        out,
        "  {:<24} [{bar:<BAR$}] +{:>9} us, {:>9} us",
        format!("{}{}", "  ".repeat(depth), span.stage),
        fmt_micros(offset),
        fmt_micros(span.duration_nanos()),
    )?;
    for &child in &forest.children[index] {
        render_waterfall(forest, root, child, depth + 1, out)?;
    }
    Ok(())
}

fn render_json(path: &str, file: &SpanFile, forest: &SpanForest, laws: &[String]) -> String {
    let mut stages = String::from("{");
    for (i, (stage, mut nanos)) in forest.stage_durations().into_iter().enumerate() {
        if i > 0 {
            stages.push(',');
        }
        nanos.sort_unstable();
        let mut o = ObjectWriter::new();
        o.field_u64("count", nanos.len() as u64)
            .field_u64("p50_nanos", percentile_nanos(&nanos, 50))
            .field_u64("p90_nanos", percentile_nanos(&nanos, 90))
            .field_u64("p99_nanos", percentile_nanos(&nanos, 99))
            .field_u64("max_nanos", nanos.last().copied().unwrap_or(0))
            .field_u64("total_nanos", nanos.iter().sum());
        write_escaped(&mut stages, &stage);
        stages.push(':');
        stages.push_str(&o.finish());
    }
    stages.push('}');

    let mut tenants = String::from("{");
    for (i, (tenant, walls)) in tenant_walls(forest).into_iter().enumerate() {
        if i > 0 {
            tenants.push(',');
        }
        let mut o = ObjectWriter::new();
        o.field_u64("requests", walls.len() as u64)
            .field_u64("p50_nanos", percentile_nanos(&walls, 50))
            .field_u64("p99_nanos", percentile_nanos(&walls, 99))
            .field_u64("total_nanos", walls.iter().sum());
        write_escaped(&mut tenants, tenant);
        tenants.push(':');
        tenants.push_str(&o.finish());
    }
    tenants.push('}');

    let mut buckets = String::from("{");
    for (i, (name, (count, sampled, nanos))) in bucket_totals(file).into_iter().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        let mut o = ObjectWriter::new();
        o.field_u64("count", count)
            .field_u64("sampled", sampled)
            .field_u64("estimated_nanos", nanos);
        write_escaped(&mut buckets, name);
        buckets.push(':');
        buckets.push_str(&o.finish());
    }
    buckets.push('}');

    let laws_json = format!(
        "[{}]",
        laws.iter()
            .map(|v| {
                let mut s = String::new();
                write_escaped(&mut s, v);
                s
            })
            .collect::<Vec<_>>()
            .join(",")
    );

    let mut w = ObjectWriter::new();
    w.field_str("file", path)
        .field_u64("spans", file.spans.len() as u64)
        .field_u64("roots", forest.roots.len() as u64)
        .field_u64("orphans_trimmed", forest.orphans_trimmed as u64)
        .field_u64("dropped", file.dropped)
        .field_bool("laws_ok", laws.is_empty())
        .field_raw("laws", &laws_json)
        .field_raw("stages", &stages)
        .field_raw("tenants", &tenants)
        .field_raw("host_split", &buckets);
    if let Some(root) = slowest_root(forest) {
        let span = &forest.spans[root];
        let (cp, cp_nanos) = forest.critical_path(root);
        let path_json = format!(
            "[{}]",
            cp.iter()
                .map(|&i| {
                    let mut s = String::new();
                    write_escaped(&mut s, &forest.spans[i].stage);
                    s
                })
                .collect::<Vec<_>>()
                .join(",")
        );
        let mut o = ObjectWriter::new();
        o.field_str("tenant", &span.tenant)
            .field_u64("seq", span.seq)
            .field_u64("wall_nanos", span.duration_nanos())
            .field_raw("critical_path", &path_json)
            .field_u64("critical_nanos", cp_nanos);
        w.field_raw("slowest", &o.finish());
    }
    w.finish()
}

/// Chrome trace-event export (`{"traceEvents":[...]}`), loadable in
/// `chrome://tracing` or Perfetto: one complete (`ph:X`) event per
/// span, one track (tid) per request tree, named after its tenant/seq.
fn chrome_trace(forest: &SpanForest) -> String {
    let mut events: Vec<String> = Vec::new();
    for (track, &root) in forest.roots.iter().enumerate() {
        let tid = track as u64 + 1;
        let span = &forest.spans[root];
        let mut meta = ObjectWriter::new();
        let mut args = ObjectWriter::new();
        args.field_str("name", &format!("{} #{}", span.tenant, span.seq));
        meta.field_str("name", "thread_name")
            .field_str("ph", "M")
            .field_u64("pid", 1)
            .field_u64("tid", tid)
            .field_raw("args", &args.finish());
        events.push(meta.finish());
        push_tree_events(forest, root, tid, &mut events);
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_tree_events(forest: &SpanForest, index: usize, tid: u64, events: &mut Vec<String>) {
    let span: &ParsedSpan = &forest.spans[index];
    let mut o = ObjectWriter::new();
    let mut args = ObjectWriter::new();
    args.field_u64("span_id", span.id)
        .field_u64("self_nanos", forest.self_nanos(index));
    o.field_str("name", &span.stage)
        .field_str("cat", "span")
        .field_str("ph", "X")
        .field_f64("ts", span.start_nanos as f64 / 1_000.0)
        .field_f64("dur", span.duration_nanos() as f64 / 1_000.0)
        .field_u64("pid", 1)
        .field_u64("tid", tid)
        .field_raw("args", &args.finish());
    events.push(o.finish());
    for &child in &forest.children[index] {
        push_tree_events(forest, child, tid, events);
    }
}
