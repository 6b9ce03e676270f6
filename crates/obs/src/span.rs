//! Wall-clock span tracing: causal trees of host-time intervals.
//!
//! Everything the other observability layers measure is *simulated*
//! cycles. Spans measure the other axis: where real host time goes
//! while a sweep cell moves through the pipeline — warm start vs.
//! execution, and inside the engine, fetch/decode vs. translation vs.
//! rcache vs. array replay.
//!
//! The recording side is allocation-free after construction: a
//! [`SpanSheet`] preallocates a fixed number of [span records](SpanId)
//! and hands out monotonically increasing ids; when the sheet is full,
//! further `begin` calls return [`SpanId::NONE`] and bump a drop
//! counter instead of allocating. Time comes from an injected
//! [`Clock`](crate::clock::Clock), so tests drive a
//! [`FakeClock`](crate::clock::FakeClock) and get byte-stable dumps.
//!
//! Dumps are text frames ([`crate::frame`]) with magic [`SPAN_MAGIC`]:
//! one JSON header line (span/attr counts, drop counter, body
//! checksum) over a JSONL body of span lines and host-attribution
//! lines. Span files live *outside* the determinism contract, next to
//! `telemetry.json`: two identical runs produce identical trees but
//! different nanosecond values.
//!
//! The analysis side ([`SpanFile`] → [`SpanForest`]) rebuilds the
//! causal trees, trims orphans, checks well-formedness laws (every
//! retained span ended, children nest inside parents, critical path ≤
//! wall time) and extracts per-stage durations and critical paths for
//! `dim spans`.

use crate::clock::SharedClock;
use crate::frame::{parse_text_frame, render_text_frame, TextFrameError};
use crate::json::{parse as parse_json, JsonValue, ObjectWriter};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Magic string in the span dump header.
pub const SPAN_MAGIC: &str = "DIMSPAN";
/// Current span dump format version.
pub const SPAN_VERSION: u64 = 1;
/// Conventional file name for a span dump.
pub const SPAN_FILE_NAME: &str = "spans.dimspan";

/// Longest tenant label stored inline in a span record; longer labels
/// are truncated at a character boundary.
const MAX_TENANT_BYTES: usize = 40;

/// Identity of one recorded span. Ids are 1-based and unique within
/// one [`SpanSheet`]; [`SpanId::NONE`] (0) is "no span" — every sheet
/// operation accepts it and does nothing, so callers can thread ids
/// unconditionally even when recording is disabled or the sheet is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id: accepted everywhere, records nothing.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to an actual recorded span.
    #[must_use]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One recorded span, fixed-size so the sheet never reallocates.
#[derive(Debug, Clone)]
struct SpanRecord {
    parent: u64,
    stage: &'static str,
    tenant: [u8; MAX_TENANT_BYTES],
    tenant_len: u8,
    seq: u64,
    start_nanos: u64,
    end_nanos: u64,
}

impl SpanRecord {
    fn tenant(&self) -> &str {
        // The bytes were copied from a `&str` at a char boundary.
        std::str::from_utf8(&self.tenant[..usize::from(self.tenant_len)]).unwrap_or("")
    }
}

/// One host-attribution record: the strided-sampling estimate of where
/// a span's engine time went, attached to that span's id.
#[derive(Debug, Clone)]
struct AttrRecord {
    span: u64,
    buckets: [BucketAcc; HOST_BUCKET_COUNT],
}

#[derive(Debug)]
struct SheetInner {
    spans: Vec<SpanRecord>,
    attrs: Vec<AttrRecord>,
    dropped: u64,
}

/// A fixed-capacity, thread-shared recorder of wall-clock spans.
///
/// `begin`/`end` take `&self` (a mutex guards the records), so one
/// sheet is shared by every sweep worker. All operations are
/// allocation-free once the sheet is constructed; when capacity runs
/// out the sheet counts drops instead of growing.
#[derive(Debug)]
pub struct SpanSheet {
    clock: SharedClock,
    inner: Mutex<SheetInner>,
}

impl SpanSheet {
    /// A sheet that can hold `capacity` spans (and as many attribution
    /// records), reading time from `clock`.
    pub fn new(clock: SharedClock, capacity: usize) -> SpanSheet {
        SpanSheet {
            clock,
            inner: Mutex::new(SheetInner {
                spans: Vec::with_capacity(capacity),
                attrs: Vec::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SheetInner> {
        // A worker panicking mid-cell must not take span recording
        // down with it; the records themselves stay well-formed.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sheet's clock reading, for callers that need latency math
    /// consistent with recorded spans.
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The clock this sheet stamps spans with.
    #[must_use]
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Opens a root span carrying a tenant label and sequence number.
    /// Returns [`SpanId::NONE`] (and counts a drop) when full.
    pub fn begin_root(&self, stage: &'static str, tenant: &str, seq: u64) -> SpanId {
        self.begin_inner(stage, SpanId::NONE, tenant, seq)
    }

    /// Opens a child span under `parent` (pass [`SpanId::NONE`] for an
    /// unlabeled root). Returns [`SpanId::NONE`] when full.
    pub fn begin(&self, stage: &'static str, parent: SpanId) -> SpanId {
        self.begin_inner(stage, parent, "", 0)
    }

    fn begin_inner(&self, stage: &'static str, parent: SpanId, tenant: &str, seq: u64) -> SpanId {
        let start_nanos = self.clock.now_nanos();
        let mut inner = self.lock();
        if inner.spans.len() == inner.spans.capacity() {
            inner.dropped += 1;
            return SpanId::NONE;
        }
        let mut tenant_buf = [0u8; MAX_TENANT_BYTES];
        let mut len = tenant.len().min(MAX_TENANT_BYTES);
        while !tenant.is_char_boundary(len) {
            len -= 1;
        }
        tenant_buf[..len].copy_from_slice(&tenant.as_bytes()[..len]);
        inner.spans.push(SpanRecord {
            parent: parent.0,
            stage,
            tenant: tenant_buf,
            tenant_len: len as u8,
            seq,
            start_nanos,
            end_nanos: 0,
        });
        SpanId(inner.spans.len() as u64)
    }

    /// Closes a span. Idempotent: a second `end` (or an `end` on
    /// [`SpanId::NONE`]) does nothing, so drop guards and explicit
    /// ends can coexist.
    pub fn end(&self, id: SpanId) {
        if !id.is_some() {
            return;
        }
        let end_nanos = self.clock.now_nanos();
        let mut inner = self.lock();
        if let Some(record) = inner.spans.get_mut(id.0 as usize - 1) {
            if record.end_nanos == 0 {
                record.end_nanos = end_nanos.max(record.start_nanos);
            }
        }
    }

    /// Opens a span that ends automatically when the guard drops —
    /// the early-return-safe way to bracket a fallible section.
    pub fn guard(&self, stage: &'static str, parent: SpanId) -> SpanGuard<'_> {
        SpanGuard {
            sheet: self,
            id: self.begin(stage, parent),
        }
    }

    /// Attaches a host-time attribution snapshot to `span`. Ignored
    /// for [`SpanId::NONE`]; counts a drop when the attr table is
    /// full.
    pub fn attr(&self, span: SpanId, split: &HostSplit) {
        if !span.is_some() {
            return;
        }
        let mut inner = self.lock();
        if inner.attrs.len() == inner.attrs.capacity() {
            inner.dropped += 1;
            return;
        }
        inner.attrs.push(AttrRecord {
            span: span.0,
            buckets: split.acc.clone(),
        });
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether no spans have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans and attribution records refused because the sheet was
    /// full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Renders the complete [`SPAN_MAGIC`] text frame: header line
    /// plus one JSONL line per span and per attribution record.
    #[must_use]
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut body = String::new();
        for (index, record) in inner.spans.iter().enumerate() {
            let mut line = ObjectWriter::new();
            line.field_u64("id", index as u64 + 1);
            line.field_u64("parent", record.parent);
            line.field_str("stage", record.stage);
            line.field_str("tenant", record.tenant());
            line.field_u64("seq", record.seq);
            line.field_u64("start_nanos", record.start_nanos);
            line.field_u64("end_nanos", record.end_nanos);
            body.push_str(&line.finish());
            body.push('\n');
        }
        for attr in &inner.attrs {
            let mut line = ObjectWriter::new();
            line.field_str("attr", "host_split");
            line.field_u64("span", attr.span);
            for (bucket, acc) in HostBucket::ALL.iter().zip(attr.buckets.iter()) {
                line.field_u64(&format!("{}_count", bucket.name()), acc.count);
                line.field_u64(&format!("{}_sampled", bucket.name()), acc.sampled);
                line.field_u64(&format!("{}_nanos", bucket.name()), acc.estimated_nanos());
            }
            body.push_str(&line.finish());
            body.push('\n');
        }
        render_text_frame(
            "span_header",
            SPAN_MAGIC,
            SPAN_VERSION,
            &[
                ("spans", inner.spans.len() as u64),
                ("attrs", inner.attrs.len() as u64),
                ("dropped", inner.dropped),
            ],
            &body,
        )
    }
}

/// Ends its span when dropped; obtained from [`SpanSheet::guard`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sheet: &'a SpanSheet,
    id: SpanId,
}

impl SpanGuard<'_> {
    /// The guarded span's id, for parenting children under it.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Ends the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.sheet.end(self.id);
    }
}

// ---------------------------------------------------------------------
// Host-time attribution
// ---------------------------------------------------------------------

/// Number of engine host-time buckets.
pub const HOST_BUCKET_COUNT: usize = 4;

/// The engine pipeline sections host time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostBucket {
    /// Scalar fetch/decode/execute of one instruction in the
    /// interpreter (an rcache-miss cycle).
    FetchDecode,
    /// Translator observe/commit work, including configuration
    /// insertion into the rcache.
    Translate,
    /// Reconfiguration-cache lookup on the hot path.
    Rcache,
    /// Reconfigurable-array replay of a cached configuration.
    ArrayReplay,
}

impl HostBucket {
    /// All buckets, in dump order.
    pub const ALL: [HostBucket; HOST_BUCKET_COUNT] = [
        HostBucket::FetchDecode,
        HostBucket::Translate,
        HostBucket::Rcache,
        HostBucket::ArrayReplay,
    ];

    /// Stable snake_case name used in dump fields and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HostBucket::FetchDecode => "fetch_decode",
            HostBucket::Translate => "translate",
            HostBucket::Rcache => "rcache",
            HostBucket::ArrayReplay => "array_replay",
        }
    }

    fn index(self) -> usize {
        match self {
            HostBucket::FetchDecode => 0,
            HostBucket::Translate => 1,
            HostBucket::Rcache => 2,
            HostBucket::ArrayReplay => 3,
        }
    }
}

/// Occurrences of a bucket that read the clock: the first
/// `PRIMING_SAMPLES`, then every `SAMPLE_STRIDE`-th.
const PRIMING_SAMPLES: u64 = 8;
const SAMPLE_STRIDE: u64 = 64;

#[derive(Debug, Clone, Default)]
struct BucketAcc {
    count: u64,
    sampled: u64,
    nanos: u64,
}

impl BucketAcc {
    /// Scales the sampled nanoseconds up to the full occurrence count.
    fn estimated_nanos(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        let scaled = u128::from(self.nanos) * u128::from(self.count) / u128::from(self.sampled);
        scaled.min(u128::from(u64::MAX)) as u64
    }
}

/// A strided-sampling accumulator of engine host time per
/// [`HostBucket`].
///
/// The engine's hot sections run in ~100 ns, so reading the clock on
/// every occurrence (~2×20 ns per section) would blow the ≤5% span
/// overhead budget. Instead every occurrence pays one counter
/// increment, and only the first [`PRIMING_SAMPLES`] plus every
/// [`SAMPLE_STRIDE`]-th occurrence read a clock pair; the estimate
/// scales the sampled time by `count / sampled`. Sections must not
/// nest — `enter` overwrites any pending sample, and `exit` only
/// credits a sample opened by the matching `enter`.
#[derive(Debug, Clone)]
pub struct HostSplit {
    clock: SharedClock,
    acc: [BucketAcc; HOST_BUCKET_COUNT],
    pending: Option<HostBucket>,
    pending_start: u64,
}

impl HostSplit {
    /// A zeroed accumulator reading time from `clock`.
    #[must_use]
    pub fn new(clock: SharedClock) -> HostSplit {
        HostSplit {
            clock,
            acc: [
                BucketAcc::default(),
                BucketAcc::default(),
                BucketAcc::default(),
                BucketAcc::default(),
            ],
            pending: None,
            pending_start: 0,
        }
    }

    /// Marks entry into a bucket's section. Cheap on non-sampled
    /// occurrences: one increment and one branch.
    #[inline]
    pub fn enter(&mut self, bucket: HostBucket) {
        let acc = &mut self.acc[bucket.index()];
        acc.count += 1;
        if acc.count <= PRIMING_SAMPLES || acc.count.is_multiple_of(SAMPLE_STRIDE) {
            self.pending = Some(bucket);
            self.pending_start = self.clock.now_nanos();
        }
    }

    /// Marks exit from a bucket's section, crediting the sample opened
    /// by the matching [`enter`](HostSplit::enter) (if any).
    #[inline]
    pub fn exit(&mut self, bucket: HostBucket) {
        if self.pending == Some(bucket) {
            let now = self.clock.now_nanos();
            self.pending = None;
            let acc = &mut self.acc[bucket.index()];
            acc.nanos += now.saturating_sub(self.pending_start);
            acc.sampled += 1;
        }
    }

    /// How many times the bucket's section ran.
    #[must_use]
    pub fn count(&self, bucket: HostBucket) -> u64 {
        self.acc[bucket.index()].count
    }

    /// How many occurrences actually read the clock.
    #[must_use]
    pub fn sampled(&self, bucket: HostBucket) -> u64 {
        self.acc[bucket.index()].sampled
    }

    /// Estimated total host nanoseconds in the bucket (sampled time
    /// scaled to the full count).
    #[must_use]
    pub fn estimated_nanos(&self, bucket: HostBucket) -> u64 {
        self.acc[bucket.index()].estimated_nanos()
    }

    /// Sum of all buckets' estimates.
    #[must_use]
    pub fn total_estimated_nanos(&self) -> u64 {
        HostBucket::ALL
            .iter()
            .map(|&b| self.estimated_nanos(b))
            .fold(0u64, u64::saturating_add)
    }
}

// ---------------------------------------------------------------------
// Parsing and analysis
// ---------------------------------------------------------------------

/// Why a span dump could not be parsed.
#[derive(Debug)]
pub enum SpanError {
    /// The text frame failed (magic, version, checksum, header).
    Frame(TextFrameError),
    /// A body line is not a valid span or attribution record, or the
    /// header counts disagree with the body.
    Malformed(String),
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanError::Frame(e) => write!(f, "span frame: {e}"),
            SpanError::Malformed(m) => write!(f, "malformed span dump: {m}"),
        }
    }
}

impl std::error::Error for SpanError {}

impl From<TextFrameError> for SpanError {
    fn from(e: TextFrameError) -> SpanError {
        SpanError::Frame(e)
    }
}

/// A [`read_span_file`] failure: I/O trouble or a bad dump.
#[derive(Debug)]
pub enum SpanReadError {
    /// The file could not be read.
    Io(io::Error),
    /// The file's contents are not a valid span dump.
    Span(SpanError),
}

impl fmt::Display for SpanReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanReadError::Io(e) => write!(f, "span file: {e}"),
            SpanReadError::Span(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpanReadError {}

/// One span as read back from a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpan {
    /// 1-based id unique within the dump.
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Stage name (`cell`, `warm_load`, `execute`, …).
    pub stage: String,
    /// Tenant label (roots only; empty otherwise).
    pub tenant: String,
    /// Request/cell sequence number (roots only; 0 otherwise).
    pub seq: u64,
    /// Start reading of the recording clock.
    pub start_nanos: u64,
    /// End reading; 0 means the span was never ended.
    pub end_nanos: u64,
}

impl ParsedSpan {
    /// Whether the span was properly ended.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.end_nanos >= self.start_nanos && self.end_nanos != 0
    }

    /// Wall duration in nanoseconds (0 for incomplete spans).
    #[must_use]
    pub fn duration_nanos(&self) -> u64 {
        if self.is_complete() {
            self.end_nanos - self.start_nanos
        } else {
            0
        }
    }
}

/// One bucket of a parsed host-attribution record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBucketEst {
    /// Bucket name (see [`HostBucket::name`]).
    pub name: String,
    /// Occurrences of the section.
    pub count: u64,
    /// Occurrences that read the clock.
    pub sampled: u64,
    /// Estimated total nanoseconds.
    pub nanos: u64,
}

/// A parsed host-attribution record: where one span's engine time
/// went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedAttr {
    /// Id of the span the attribution belongs to.
    pub span: u64,
    /// Per-bucket estimates, in [`HostBucket::ALL`] order.
    pub buckets: Vec<HostBucketEst>,
}

/// A parsed span dump: the flat records, before forest assembly.
#[derive(Debug, Clone, Default)]
pub struct SpanFile {
    /// Every span line, in id order.
    pub spans: Vec<ParsedSpan>,
    /// Every host-attribution line.
    pub attrs: Vec<ParsedAttr>,
    /// Drop counter from the header.
    pub dropped: u64,
}

fn get_u64(value: &JsonValue, key: &str, line: usize) -> Result<u64, SpanError> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| SpanError::Malformed(format!("line {line}: missing `{key}`")))
}

impl SpanFile {
    /// Parses a complete [`SPAN_MAGIC`] text frame.
    ///
    /// # Errors
    ///
    /// [`SpanError`] on frame-level failures (magic, version,
    /// checksum) or malformed body lines.
    pub fn parse(text: &str) -> Result<SpanFile, SpanError> {
        let (header, body) = parse_text_frame(SPAN_MAGIC, SPAN_VERSION, text)?;
        let expected_spans = header.get("spans").and_then(JsonValue::as_u64);
        let expected_attrs = header.get("attrs").and_then(JsonValue::as_u64);
        let dropped = header
            .get("dropped")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let mut spans = Vec::new();
        let mut attrs = Vec::new();
        for (index, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let number = index + 2; // 1-based, after the header line
            let value = parse_json(line)
                .map_err(|e| SpanError::Malformed(format!("line {number}: {e}")))?;
            if value.get("attr").is_some() {
                let span = get_u64(&value, "span", number)?;
                let mut buckets = Vec::with_capacity(HOST_BUCKET_COUNT);
                for bucket in HostBucket::ALL {
                    buckets.push(HostBucketEst {
                        name: bucket.name().to_string(),
                        count: get_u64(&value, &format!("{}_count", bucket.name()), number)?,
                        sampled: get_u64(&value, &format!("{}_sampled", bucket.name()), number)?,
                        nanos: get_u64(&value, &format!("{}_nanos", bucket.name()), number)?,
                    });
                }
                attrs.push(ParsedAttr { span, buckets });
            } else {
                spans.push(ParsedSpan {
                    id: get_u64(&value, "id", number)?,
                    parent: get_u64(&value, "parent", number)?,
                    stage: value
                        .get("stage")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    tenant: value
                        .get("tenant")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    seq: get_u64(&value, "seq", number)?,
                    start_nanos: get_u64(&value, "start_nanos", number)?,
                    end_nanos: get_u64(&value, "end_nanos", number)?,
                });
            }
        }
        if let Some(expected) = expected_spans {
            if expected != spans.len() as u64 {
                return Err(SpanError::Malformed(format!(
                    "header declares {expected} spans, body has {}",
                    spans.len()
                )));
            }
        }
        if let Some(expected) = expected_attrs {
            if expected != attrs.len() as u64 {
                return Err(SpanError::Malformed(format!(
                    "header declares {expected} attrs, body has {}",
                    attrs.len()
                )));
            }
        }
        Ok(SpanFile {
            spans,
            attrs,
            dropped,
        })
    }

    /// Host-attribution record for `span`, if one was recorded.
    #[must_use]
    pub fn attr_for(&self, span: u64) -> Option<&ParsedAttr> {
        self.attrs.iter().find(|a| a.span == span)
    }
}

/// Reads and parses a span dump from disk.
///
/// # Errors
///
/// [`SpanReadError`] on I/O failure or an invalid dump.
pub fn read_span_file(path: &Path) -> Result<SpanFile, SpanReadError> {
    let text = std::fs::read_to_string(path).map_err(SpanReadError::Io)?;
    SpanFile::parse(&text).map_err(SpanReadError::Span)
}

/// The causal trees of a span dump, with orphans trimmed.
///
/// Spans whose parent chain does not reach a root (dangling parent id,
/// dropped ancestor, or a cycle) are *trimmed*: excluded from
/// `spans`/`roots`/`children` and counted in `orphans_trimmed`.
#[derive(Debug, Clone)]
pub struct SpanForest {
    /// Retained spans (reachable from a root), in original dump order.
    pub spans: Vec<ParsedSpan>,
    /// Indices into `spans` of the root spans.
    pub roots: Vec<usize>,
    /// For each retained span, indices into `spans` of its children.
    pub children: Vec<Vec<usize>>,
    /// Spans discarded because their parent chain reached no root.
    pub orphans_trimmed: usize,
}

impl SpanForest {
    /// Builds the forest from a parsed dump, trimming orphans.
    #[must_use]
    pub fn build(file: &SpanFile) -> SpanForest {
        let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
        for (index, span) in file.spans.iter().enumerate() {
            index_of.insert(span.id, index);
        }
        // Children over ALL spans, then keep only those reachable from
        // a root — this drops dangling parents and cycles alike.
        let mut all_children: Vec<Vec<usize>> = vec![Vec::new(); file.spans.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (index, span) in file.spans.iter().enumerate() {
            if span.parent == 0 {
                queue.push(index);
            } else if let Some(&parent_index) = index_of.get(&span.parent) {
                if parent_index != index {
                    all_children[parent_index].push(index);
                }
            }
        }
        let mut reachable = vec![false; file.spans.len()];
        let mut cursor = 0;
        while cursor < queue.len() {
            let index = queue[cursor];
            cursor += 1;
            if reachable[index] {
                continue;
            }
            reachable[index] = true;
            queue.extend(all_children[index].iter().copied());
        }
        let mut new_index = vec![usize::MAX; file.spans.len()];
        let mut spans = Vec::new();
        for (index, span) in file.spans.iter().enumerate() {
            if reachable[index] {
                new_index[index] = spans.len();
                spans.push(span.clone());
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (index, span) in file.spans.iter().enumerate() {
            if !reachable[index] {
                continue;
            }
            if span.parent == 0 {
                roots.push(new_index[index]);
            } else if let Some(&parent_index) = index_of.get(&span.parent) {
                children[new_index[parent_index]].push(new_index[index]);
            }
        }
        SpanForest {
            orphans_trimmed: file.spans.len() - spans.len(),
            spans,
            roots,
            children,
        }
    }

    /// A span's own time: duration minus the sum of its children's
    /// durations, clamped at zero.
    #[must_use]
    pub fn self_nanos(&self, index: usize) -> u64 {
        let child_total: u64 = self.children[index]
            .iter()
            .map(|&c| self.spans[c].duration_nanos())
            .fold(0u64, u64::saturating_add);
        self.spans[index]
            .duration_nanos()
            .saturating_sub(child_total)
    }

    /// The critical path from `root`: at each node, descend into the
    /// child whose own critical path is longest. Returns the path
    /// (indices into `spans`, root first) and its total nanoseconds
    /// (the node self-times along the path plus the final node's
    /// children, i.e. `self + max(child cp)` recursively). The total
    /// never exceeds the root's wall duration.
    #[must_use]
    pub fn critical_path(&self, root: usize) -> (Vec<usize>, u64) {
        fn walk(forest: &SpanForest, index: usize) -> (Vec<usize>, u64) {
            let mut best: Option<(Vec<usize>, u64)> = None;
            for &child in &forest.children[index] {
                let (sub_path, sub_total) = walk(forest, child);
                let better = match &best {
                    Some((_, best_total)) => sub_total > *best_total,
                    None => true,
                };
                if better {
                    best = Some((sub_path, sub_total));
                }
            }
            let (sub_path, sub_total) = best.unwrap_or_default();
            let mut path = vec![index];
            path.extend(sub_path);
            (path, forest.self_nanos(index) + sub_total)
        }
        walk(self, root)
    }

    /// Checks the span-tree well-formedness laws over the retained
    /// spans, returning a human-readable list of violations (empty
    /// means all laws hold):
    ///
    /// 1. every retained span was ended (`end ≥ start > absent 0`);
    /// 2. every child's interval nests inside its parent's;
    /// 3. every tree's critical path ≤ its root's wall duration.
    #[must_use]
    pub fn check_laws(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (index, span) in self.spans.iter().enumerate() {
            if !span.is_complete() {
                violations.push(format!("span {} ({}) was never ended", span.id, span.stage));
            }
            for &child_index in &self.children[index] {
                let child = &self.spans[child_index];
                if child.start_nanos < span.start_nanos
                    || (child.is_complete()
                        && span.is_complete()
                        && child.end_nanos > span.end_nanos)
                {
                    violations.push(format!(
                        "span {} ({}) does not nest inside parent {} ({})",
                        child.id, child.stage, span.id, span.stage
                    ));
                }
            }
        }
        for &root in &self.roots {
            let (_, total) = self.critical_path(root);
            let wall = self.spans[root].duration_nanos();
            if total > wall {
                violations.push(format!(
                    "root span {} critical path {total} ns exceeds wall {wall} ns",
                    self.spans[root].id
                ));
            }
        }
        violations
    }

    /// Durations grouped by stage name over complete retained spans.
    #[must_use]
    pub fn stage_durations(&self) -> BTreeMap<String, Vec<u64>> {
        let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for span in &self.spans {
            if span.is_complete() {
                map.entry(span.stage.clone())
                    .or_default()
                    .push(span.duration_nanos());
            }
        }
        map
    }
}

/// Nearest-rank percentile over an ascending-sorted slice. Returns 0
/// for an empty slice.
#[must_use]
pub fn percentile_nanos(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(pct * (sorted.len() - 1)) / 100]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use std::sync::Arc;

    fn fake_sheet(capacity: usize) -> (Arc<FakeClock>, SpanSheet) {
        let clock = FakeClock::shared(1_000);
        let sheet = SpanSheet::new(Arc::clone(&clock) as SharedClock, capacity);
        (clock, sheet)
    }

    #[test]
    fn sheet_round_trips_a_tree_byte_stably() {
        let (clock, sheet) = fake_sheet(16);
        let root = sheet.begin_root("request", "tenant-a", 7);
        clock.advance(100);
        let child = sheet.begin("exec", root);
        clock.advance(50);
        sheet.end(child);
        clock.advance(25);
        sheet.end(root);

        let text = sheet.render();
        // Deterministic clock ⇒ identical renders.
        assert_eq!(text, sheet.render());

        let file = SpanFile::parse(&text).expect("parses");
        assert_eq!(file.spans.len(), 2);
        assert_eq!(file.dropped, 0);
        let root_span = &file.spans[0];
        assert_eq!(root_span.stage, "request");
        assert_eq!(root_span.tenant, "tenant-a");
        assert_eq!(root_span.seq, 7);
        assert_eq!(root_span.start_nanos, 1_000);
        assert_eq!(root_span.end_nanos, 1_175);
        let child_span = &file.spans[1];
        assert_eq!(child_span.parent, root_span.id);
        assert_eq!(child_span.duration_nanos(), 50);

        let forest = SpanForest::build(&file);
        assert_eq!(forest.roots.len(), 1);
        assert_eq!(forest.orphans_trimmed, 0);
        assert!(forest.check_laws().is_empty());
        let (path, total) = forest.critical_path(forest.roots[0]);
        assert_eq!(path.len(), 2);
        assert_eq!(total, 175); // 125 self + 50 child
    }

    #[test]
    fn sheet_counts_drops_at_capacity() {
        let (_clock, sheet) = fake_sheet(2);
        let a = sheet.begin("a", SpanId::NONE);
        let b = sheet.begin("b", a);
        let c = sheet.begin("c", b);
        assert!(a.is_some() && b.is_some());
        assert_eq!(c, SpanId::NONE);
        assert_eq!(sheet.dropped(), 1);
        sheet.end(c); // no-op, no panic
        sheet.end(b);
        sheet.end(a);
        let file = SpanFile::parse(&sheet.render()).expect("parses");
        assert_eq!(file.spans.len(), 2);
        assert_eq!(file.dropped, 1);
    }

    #[test]
    fn guard_ends_span_on_drop_and_end_is_idempotent() {
        let (clock, sheet) = fake_sheet(4);
        let root = sheet.begin("root", SpanId::NONE);
        let guarded;
        {
            let guard = sheet.guard("child", root);
            guarded = guard.id();
            clock.advance(30);
        }
        clock.advance(1_000);
        sheet.end(guarded); // second end must not stretch the span
        sheet.end(root);
        let file = SpanFile::parse(&sheet.render()).expect("parses");
        let child = file.spans.iter().find(|s| s.stage == "child").unwrap();
        assert_eq!(child.duration_nanos(), 30);
    }

    #[test]
    fn forest_trims_orphans_and_cycles() {
        let file = SpanFile {
            spans: vec![
                ParsedSpan {
                    id: 1,
                    parent: 0,
                    stage: "root".into(),
                    tenant: String::new(),
                    seq: 0,
                    start_nanos: 0,
                    end_nanos: 100,
                },
                ParsedSpan {
                    id: 2,
                    parent: 99, // dangling parent
                    stage: "lost".into(),
                    tenant: String::new(),
                    seq: 0,
                    start_nanos: 10,
                    end_nanos: 20,
                },
                ParsedSpan {
                    id: 3,
                    parent: 4, // 3 ↔ 4 cycle
                    stage: "loop_a".into(),
                    tenant: String::new(),
                    seq: 0,
                    start_nanos: 10,
                    end_nanos: 20,
                },
                ParsedSpan {
                    id: 4,
                    parent: 3,
                    stage: "loop_b".into(),
                    tenant: String::new(),
                    seq: 0,
                    start_nanos: 10,
                    end_nanos: 20,
                },
            ],
            attrs: Vec::new(),
            dropped: 0,
        };
        let forest = SpanForest::build(&file);
        assert_eq!(forest.spans.len(), 1);
        assert_eq!(forest.orphans_trimmed, 3);
        assert!(forest.check_laws().is_empty());
    }

    #[test]
    fn laws_catch_unended_and_escaping_spans() {
        let file = SpanFile {
            spans: vec![
                ParsedSpan {
                    id: 1,
                    parent: 0,
                    stage: "root".into(),
                    tenant: String::new(),
                    seq: 0,
                    start_nanos: 100,
                    end_nanos: 200,
                },
                ParsedSpan {
                    id: 2,
                    parent: 1,
                    stage: "escapes".into(),
                    tenant: String::new(),
                    seq: 0,
                    start_nanos: 150,
                    end_nanos: 300, // past parent end
                },
                ParsedSpan {
                    id: 3,
                    parent: 1,
                    stage: "open".into(),
                    tenant: String::new(),
                    seq: 0,
                    start_nanos: 160,
                    end_nanos: 0, // never ended
                },
            ],
            attrs: Vec::new(),
            dropped: 0,
        };
        let forest = SpanForest::build(&file);
        let violations = forest.check_laws();
        assert!(
            violations.iter().any(|v| v.contains("never ended")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("nest")),
            "{violations:?}"
        );
    }

    #[test]
    fn host_split_estimates_scale_sampled_time() {
        let clock = FakeClock::shared(0);
        let mut split = HostSplit::new(Arc::clone(&clock) as SharedClock);
        for _ in 0..100 {
            split.enter(HostBucket::Rcache);
            clock.advance(10);
            split.exit(HostBucket::Rcache);
        }
        assert_eq!(split.count(HostBucket::Rcache), 100);
        // 8 priming samples + occurrence 64.
        assert_eq!(split.sampled(HostBucket::Rcache), 9);
        // Every occurrence took exactly 10 ns, so the estimate is
        // exact: 9 samples × 10 ns × 100/9.
        assert_eq!(split.estimated_nanos(HostBucket::Rcache), 1_000);
        assert_eq!(split.estimated_nanos(HostBucket::Translate), 0);
        assert_eq!(split.total_estimated_nanos(), 1_000);
    }

    #[test]
    fn host_split_attr_round_trips_through_dump() {
        let (clock, sheet) = fake_sheet(4);
        let root = sheet.begin_root("request", "t", 1);
        let mut split = HostSplit::new(Arc::clone(sheet.clock()));
        for _ in 0..3 {
            split.enter(HostBucket::FetchDecode);
            clock.advance(7);
            split.exit(HostBucket::FetchDecode);
        }
        sheet.attr(root, &split);
        sheet.end(root);
        let file = SpanFile::parse(&sheet.render()).expect("parses");
        assert_eq!(file.attrs.len(), 1);
        let attr = file.attr_for(file.spans[0].id).expect("attr present");
        assert_eq!(attr.buckets.len(), HOST_BUCKET_COUNT);
        assert_eq!(attr.buckets[0].name, "fetch_decode");
        assert_eq!(attr.buckets[0].count, 3);
        assert_eq!(attr.buckets[0].nanos, 21);
    }

    #[test]
    fn parse_rejects_corruption() {
        let (_clock, sheet) = fake_sheet(2);
        let id = sheet.begin("only", SpanId::NONE);
        sheet.end(id);
        let text = sheet.render();

        let wrong_magic = text.replacen(SPAN_MAGIC, "NOTSPAN", 1);
        assert!(matches!(
            SpanFile::parse(&wrong_magic),
            Err(SpanError::Frame(TextFrameError::BadMagic))
        ));

        let newer = text.replacen("\"version\":1", "\"version\":99", 1);
        assert!(matches!(
            SpanFile::parse(&newer),
            Err(SpanError::Frame(TextFrameError::UnsupportedVersion(99)))
        ));

        let torn = format!("{text}{{\"tail\":1}}\n");
        assert!(matches!(
            SpanFile::parse(&torn),
            Err(SpanError::Frame(TextFrameError::ChecksumMismatch))
        ));
    }

    #[test]
    fn long_tenant_labels_truncate_at_char_boundary() {
        let (_clock, sheet) = fake_sheet(2);
        let long = "é".repeat(64); // 2 bytes per char
        let id = sheet.begin_root("request", &long, 0);
        sheet.end(id);
        let file = SpanFile::parse(&sheet.render()).expect("parses");
        assert_eq!(file.spans[0].tenant, "é".repeat(20));
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nanos(&sorted, 50), 50);
        assert_eq!(percentile_nanos(&sorted, 99), 99);
        assert_eq!(percentile_nanos(&sorted, 100), 100);
        assert_eq!(percentile_nanos(&[], 99), 0);
    }
}
