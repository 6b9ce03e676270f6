//! The live telemetry status file (`status.dimstat`).
//!
//! Long-running commands publish their progress by atomically replacing
//! a small JSONL status file that `dim top` tails: one versioned,
//! checksummed header line followed by one [`StatusEntry`] per tracked
//! source (a sweep aggregate, each pool worker, a single `dim accel`
//! run). Writers replace the whole file via temp-file-plus-rename — the
//! same discipline as `.dimrc` snapshots — so a reader polling
//! mid-write never sees a torn file, and the header's FNV-1a body
//! checksum catches any that slips through.
//!
//! Status files are *advisory* host-side output: like `telemetry.json`,
//! they sit outside the sweep's serial-vs-parallel byte-identity
//! determinism contract (wall-clock fields make them inherently
//! nondeterministic).

use crate::clock::{MonotonicClock, SharedClock};
use crate::event::ProbeEvent;
use crate::frame::{parse_text_frame, render_text_frame, TextFrameError};
use crate::json::{parse, JsonValue, ObjectWriter};
use crate::probe::Probe;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic string identifying a status file header.
pub const STATUS_MAGIC: &str = "DIMSTAT";
/// Current status-file format version, the only one readers accept.
///
/// A status file describes a run in progress and no run outlives the
/// build that wrote it, so there is nothing older to read: version 4
/// dropped the request-latency and queue-depth fields of version 3.
pub const STATUS_VERSION: u64 = 4;
/// Conventional file name, appended when a directory is given.
pub const STATUS_FILE_NAME: &str = "status.dimstat";

/// Why a status file could not be read.
#[derive(Debug)]
pub enum StatusError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header is missing the `DIMSTAT` magic.
    BadMagic,
    /// The header declares a version other than [`STATUS_VERSION`].
    UnsupportedVersion(u64),
    /// The body does not hash to the header's checksum (torn write).
    ChecksumMismatch,
    /// A line failed to parse or lacked a required field.
    Malformed(String),
}

impl fmt::Display for StatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatusError::Io(e) => write!(f, "status file I/O error: {e}"),
            StatusError::BadMagic => write!(f, "not a status file (bad magic)"),
            StatusError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "status file version {v} is unsupported (this build reads version \
                     {STATUS_VERSION} only)"
                )
            }
            StatusError::ChecksumMismatch => {
                write!(f, "status file body checksum mismatch (torn write?)")
            }
            StatusError::Malformed(m) => write!(f, "malformed status file: {m}"),
        }
    }
}

impl std::error::Error for StatusError {}

impl From<io::Error> for StatusError {
    fn from(e: io::Error) -> StatusError {
        StatusError::Io(e)
    }
}

impl From<TextFrameError> for StatusError {
    fn from(e: TextFrameError) -> StatusError {
        match e {
            TextFrameError::Malformed(m) => StatusError::Malformed(m),
            TextFrameError::BadMagic => StatusError::BadMagic,
            TextFrameError::UnsupportedVersion(v) => StatusError::UnsupportedVersion(v),
            TextFrameError::ChecksumMismatch => StatusError::ChecksumMismatch,
        }
    }
}

/// One tracked source's live progress sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusEntry {
    /// Who is reporting: `sweep`, `worker-<n>`, or `accel`.
    pub source: String,
    /// What it is working on (cell id, workload name, or empty).
    pub label: String,
    /// `idle`, `running`, `done`, or `failed`.
    pub state: String,
    /// Work items completed (cells for a sweep; 0/1 for a single run).
    pub done: u64,
    /// Total work items.
    pub total: u64,
    /// Instructions retired on the pipeline so far.
    pub retired: u64,
    /// Simulated cycles so far.
    pub sim_cycles: u64,
    /// Array invocations so far.
    pub invocations: u64,
    /// Reconfiguration-cache hits so far.
    pub rcache_hits: u64,
    /// Reconfiguration-cache misses so far.
    pub rcache_misses: u64,
    /// Misspeculated invocations so far.
    pub misspeculations: u64,
    /// Host nanoseconds spent so far (basis for live sim-MIPS).
    pub host_nanos: u64,
    /// Busy fabric unit-thirds so far.
    pub fabric_busy_thirds: u64,
    /// Available fabric unit-thirds so far (0 on infinite shapes —
    /// utilization unknown).
    pub fabric_capacity_thirds: u64,
}

impl StatusEntry {
    fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        o.field_str("source", &self.source);
        o.field_str("label", &self.label);
        o.field_str("state", &self.state);
        o.field_u64("done", self.done);
        o.field_u64("total", self.total);
        o.field_u64("retired", self.retired);
        o.field_u64("sim_cycles", self.sim_cycles);
        o.field_u64("invocations", self.invocations);
        o.field_u64("rcache_hits", self.rcache_hits);
        o.field_u64("rcache_misses", self.rcache_misses);
        o.field_u64("misspeculations", self.misspeculations);
        o.field_u64("host_nanos", self.host_nanos);
        o.field_u64("fabric_busy_thirds", self.fabric_busy_thirds);
        o.field_u64("fabric_capacity_thirds", self.fabric_capacity_thirds);
        o.finish()
    }

    fn from_json(value: &JsonValue, line: usize) -> Result<StatusEntry, StatusError> {
        let get_str = |key: &str| -> Result<String, StatusError> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    StatusError::Malformed(format!("line {line}: missing string `{key}`"))
                })
        };
        let get_u64 = |key: &str| -> Result<u64, StatusError> {
            value.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                StatusError::Malformed(format!("line {line}: missing number `{key}`"))
            })
        };
        Ok(StatusEntry {
            source: get_str("source")?,
            label: get_str("label")?,
            state: get_str("state")?,
            done: get_u64("done")?,
            total: get_u64("total")?,
            retired: get_u64("retired")?,
            sim_cycles: get_u64("sim_cycles")?,
            invocations: get_u64("invocations")?,
            rcache_hits: get_u64("rcache_hits")?,
            rcache_misses: get_u64("rcache_misses")?,
            misspeculations: get_u64("misspeculations")?,
            host_nanos: get_u64("host_nanos")?,
            fabric_busy_thirds: get_u64("fabric_busy_thirds")?,
            fabric_capacity_thirds: get_u64("fabric_capacity_thirds")?,
        })
    }
}

/// A parsed (or about-to-be-written) status file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusFile {
    /// Entries in publication order; by convention the aggregate comes
    /// first, workers after.
    pub entries: Vec<StatusEntry>,
}

impl StatusFile {
    /// Renders the header + body text that [`write_status`] persists,
    /// via the shared [`crate::frame`] text framing.
    pub fn render(&self) -> String {
        let mut body = String::new();
        for entry in &self.entries {
            body.push_str(&entry.to_json());
            body.push('\n');
        }
        render_text_frame(
            "status_header",
            STATUS_MAGIC,
            STATUS_VERSION,
            &[("entries", self.entries.len() as u64)],
            &body,
        )
    }

    /// Parses the text of a status file, verifying magic, version, and
    /// the body checksum.
    pub fn parse(text: &str) -> Result<StatusFile, StatusError> {
        let (header, body) = parse_text_frame(STATUS_MAGIC, STATUS_VERSION, text)?;
        if let Some(v) = header
            .get("version")
            .and_then(JsonValue::as_u64)
            .filter(|&v| v != STATUS_VERSION)
        {
            return Err(StatusError::UnsupportedVersion(v));
        }
        let count = header
            .get("entries")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| StatusError::Malformed("header: missing `entries`".into()))?;
        let mut entries = Vec::new();
        for (i, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = parse(line)
                .map_err(|e| StatusError::Malformed(format!("line {}: {e:?}", i + 2)))?;
            entries.push(StatusEntry::from_json(&value, i + 2)?);
        }
        if entries.len() as u64 != count {
            return Err(StatusError::Malformed(format!(
                "header declares {count} entries, body has {}",
                entries.len()
            )));
        }
        Ok(StatusFile { entries })
    }
}

/// Atomically replaces the status file at `path` (temp file in the same
/// directory, then rename), so a concurrent [`read_status`] sees either
/// the old or the new version — never a torn mix. The temp name carries
/// the pid plus a process-wide counter so concurrent publishers never
/// collide on it.
pub fn write_status(path: &Path, status: &StatusFile) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file_name = path.file_name().map_or_else(
        || "status".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    let tmp = path.with_file_name(format!(
        "{file_name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = fs::write(&tmp, status.render()).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A probe that folds the event stream into a live [`StatusEntry`] and
/// hands it to a publish callback every `interval_cycles` simulated
/// cycles (plus once at [`finish`](Probe::finish)) — the glue between
/// an instrumented run and the status file `dim top` tails.
///
/// The callback decides where the entry goes: a single-entry
/// [`StatusFile`] for `dim accel`, a slot on the sweep's shared worker
/// board for `dim sweep`. Publishing is host-side output; the probe is
/// cycle-neutral like every other sink.
#[derive(Debug)]
pub struct StatusPulse<F: FnMut(&StatusEntry)> {
    entry: StatusEntry,
    interval: u64,
    last_publish: u64,
    clock: SharedClock,
    started_nanos: u64,
    publish: F,
}

impl<F: FnMut(&StatusEntry)> StatusPulse<F> {
    /// A pulse starting from `entry` (its identity fields — source,
    /// label, state, done/total — are preserved verbatim), publishing
    /// every `interval_cycles` (0 = only at finish). Host time comes
    /// from a fresh real clock; use
    /// [`with_clock`](StatusPulse::with_clock) to inject one.
    pub fn new(entry: StatusEntry, interval_cycles: u64, publish: F) -> StatusPulse<F> {
        StatusPulse::with_clock(entry, interval_cycles, MonotonicClock::shared(), publish)
    }

    /// Like [`new`](StatusPulse::new) with an injected clock, so hosts
    /// that already carry a [`SharedClock`] (a sweep) report
    /// `host_nanos` on the same timebase as their spans — and tests
    /// can drive a deterministic fake.
    pub fn with_clock(
        entry: StatusEntry,
        interval_cycles: u64,
        clock: SharedClock,
        publish: F,
    ) -> StatusPulse<F> {
        let started_nanos = clock.now_nanos();
        StatusPulse {
            entry,
            interval: interval_cycles,
            last_publish: 0,
            clock,
            started_nanos,
            publish,
        }
    }

    /// The entry as accumulated so far.
    pub fn entry(&self) -> &StatusEntry {
        &self.entry
    }

    fn publish_now(&mut self) {
        self.entry.host_nanos = self.clock.now_nanos().saturating_sub(self.started_nanos);
        (self.publish)(&self.entry);
        self.last_publish = self.entry.sim_cycles;
    }
}

impl<F: FnMut(&StatusEntry)> Probe for StatusPulse<F> {
    fn emit(&mut self, event: ProbeEvent) {
        self.entry.sim_cycles += event.cycles();
        match event {
            ProbeEvent::Retire { .. } => self.entry.retired += 1,
            ProbeEvent::RcacheHit { .. } => self.entry.rcache_hits += 1,
            ProbeEvent::RcacheMiss { .. } => self.entry.rcache_misses += 1,
            ProbeEvent::ArrayInvoke(inv) => {
                self.entry.invocations += 1;
                if inv.misspeculated {
                    self.entry.misspeculations += 1;
                }
            }
            ProbeEvent::Fabric(fab) => {
                self.entry.fabric_busy_thirds += fab.busy_thirds();
                self.entry.fabric_capacity_thirds += fab.capacity_thirds as u64;
            }
            _ => {}
        }
        if self.interval > 0 && self.entry.sim_cycles - self.last_publish >= self.interval {
            self.publish_now();
        }
    }

    fn finish(&mut self) {
        self.publish_now();
    }
}

/// Reads and verifies the status file at `path`.
pub fn read_status(path: &Path) -> Result<StatusFile, StatusError> {
    StatusFile::parse(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a64;

    fn sample() -> StatusFile {
        StatusFile {
            entries: vec![
                StatusEntry {
                    source: "sweep".into(),
                    label: "18 cells".into(),
                    state: "running".into(),
                    done: 7,
                    total: 18,
                    retired: 123_456,
                    sim_cycles: 234_567,
                    invocations: 42,
                    rcache_hits: 40,
                    rcache_misses: 2,
                    misspeculations: 1,
                    host_nanos: 5_000_000,
                    fabric_busy_thirds: 900,
                    fabric_capacity_thirds: 3_000,
                },
                StatusEntry {
                    source: "worker-0".into(),
                    label: "crc32__base".into(),
                    state: "running".into(),
                    total: 1,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let status = sample();
        let parsed = StatusFile::parse(&status.render()).expect("parses");
        assert_eq!(parsed, status);
    }

    #[test]
    fn rejects_bad_magic() {
        let text = "{\"type\":\"status_header\",\"magic\":\"NOPE\",\"version\":1,\
                    \"entries\":0,\"body_fnv64\":\"cbf29ce484222325\"}\n";
        assert!(matches!(
            StatusFile::parse(text),
            Err(StatusError::BadMagic)
        ));
    }

    #[test]
    fn rejects_newer_version() {
        let text = format!(
            "{{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":{},\
             \"entries\":0,\"body_fnv64\":\"cbf29ce484222325\"}}\n",
            STATUS_VERSION + 1
        );
        assert!(matches!(
            StatusFile::parse(&text),
            Err(StatusError::UnsupportedVersion(v)) if v == STATUS_VERSION + 1
        ));
    }

    /// Only the current version reads: an older file is rejected, not
    /// read with defaults.
    #[test]
    fn rejects_older_version() {
        let mut status = sample();
        status.entries.truncate(1);
        let current = status.render();
        let older = current.replacen(
            &format!("\"version\":{STATUS_VERSION}"),
            &format!("\"version\":{}", STATUS_VERSION - 1),
            1,
        );
        assert_ne!(older, current);
        assert!(matches!(
            StatusFile::parse(&older),
            Err(StatusError::UnsupportedVersion(v)) if v == STATUS_VERSION - 1
        ));
    }

    #[test]
    fn pulse_host_nanos_follows_injected_clock() {
        use crate::clock::FakeClock;
        use std::sync::Arc;
        let clock = FakeClock::shared(500);
        let published = std::cell::RefCell::new(Vec::new());
        let mut pulse = StatusPulse::with_clock(
            StatusEntry::default(),
            0,
            Arc::clone(&clock) as SharedClock,
            |e: &StatusEntry| published.borrow_mut().push(e.clone()),
        );
        clock.advance(1_234);
        pulse.finish();
        assert_eq!(published.borrow()[0].host_nanos, 1_234);
    }

    #[test]
    fn rejects_torn_body() {
        let mut text = sample().render();
        text.push_str("{\"tail\":\"of a torn write\"\n");
        assert!(matches!(
            StatusFile::parse(&text),
            Err(StatusError::ChecksumMismatch)
        ));
    }

    #[test]
    fn rejects_entry_count_mismatch() {
        let status = sample();
        let body: String = status
            .entries
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let text = format!(
            "{{\"type\":\"status_header\",\"magic\":\"DIMSTAT\",\"version\":{STATUS_VERSION},\
             \"entries\":99,\"body_fnv64\":\"{:016x}\"}}\n{body}",
            fnv1a64(body.as_bytes())
        );
        assert!(matches!(
            StatusFile::parse(&text),
            Err(StatusError::Malformed(_))
        ));
    }

    #[test]
    fn write_and_read_through_disk() {
        let dir = std::env::temp_dir().join(format!("dimstat-test-{}", std::process::id()));
        let path = dir.join(STATUS_FILE_NAME);
        let status = sample();
        write_status(&path, &status).expect("writes");
        let back = read_status(&path).expect("reads");
        assert_eq!(back, status);
        // Overwrite in place — the atomic-replace path.
        let mut second = status.clone();
        second.entries[0].done = 18;
        second.entries[0].state = "done".into();
        write_status(&path, &second).expect("replaces");
        assert_eq!(read_status(&path).expect("re-reads"), second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pulse_accumulates_and_publishes_on_interval_and_finish() {
        use crate::event::RetireKind;
        let published = std::cell::RefCell::new(Vec::new());
        let entry = StatusEntry {
            source: "accel".into(),
            label: "crc32".into(),
            state: "running".into(),
            ..Default::default()
        };
        let mut pulse = StatusPulse::new(entry, 5, |e: &StatusEntry| {
            published.borrow_mut().push(e.clone());
        });
        for i in 0..4u32 {
            pulse.emit(ProbeEvent::Retire {
                pc: i * 4,
                kind: RetireKind::Alu,
                base_cycles: 2,
                i_stall: 0,
                d_stall: 0,
                ends_block: false,
            });
        }
        pulse.emit(ProbeEvent::RcacheHit { pc: 0, len: 4 });
        pulse.emit(ProbeEvent::RcacheMiss { pc: 4 });
        pulse.finish();
        let seen = published.borrow();
        // 8 cycles crosses the 5-cycle interval once, finish adds one.
        assert_eq!(seen.len(), 2);
        let last = seen.last().unwrap();
        assert_eq!(last.retired, 4);
        assert_eq!(last.sim_cycles, 8);
        assert_eq!(last.rcache_hits, 1);
        assert_eq!(last.rcache_misses, 1);
        assert_eq!(last.source, "accel");
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let path = Path::new("/nonexistent/dimstat/status.dimstat");
        assert!(matches!(read_status(path), Err(StatusError::Io(_))));
    }
}
