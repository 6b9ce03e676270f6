//! Versioned, checksummed snapshots of the accelerator's warm state:
//! the reconfiguration cache (translated configurations in FIFO order),
//! the bimodal predictor table, and the per-configuration misspeculation
//! strike counters.
//!
//! A snapshot lets a later run skip the translation warm-up entirely
//! (`dim accel --rcache-save/--rcache-load`, `dim sweep` warm-start):
//! restoring a snapshot and re-running a program from the same machine
//! state produces, instruction for instruction, the continuation the
//! original system would have executed — the property the
//! `warm_restart_matches_cold_continuation` tests pin down.
//!
//! ## File layout (`.dimrc`)
//!
//! ```text
//! magic   "DIMRC\0"            6 bytes
//! version u16                  (currently 1)
//! len     u64                  payload length in bytes
//! payload [len bytes]          header + predictor + strikes + configs
//! check   u64                  FNV-1a 64 of the payload
//! ```
//!
//! The payload starts with a compatibility header (array shape, cache
//! slots + policy, speculation settings, flush threshold). Loading
//! validates magic, version, length, checksum, and every header field
//! against the live [`SystemConfig`]; any mismatch is a hard error —
//! a snapshot never silently reinterprets configurations placed for a
//! different array.

use crate::rcache::ReplacementPolicy;
use crate::{Counter, ReconfCache, System, SystemConfig};
use dim_cgra::snapshot::{
    decode_config, encode_config, put_shape, put_u32, put_u64, read_shape, Cursor, WireError,
};
use dim_cgra::{ArrayShape, Configuration};
use dim_obs::frame::{self, FrameError, FrameSpec};
use std::fmt;

/// File magic of a reconfiguration-cache snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 6] = b"DIMRC\0";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// The snapshot's frame identity for the shared [`frame`] helper.
pub const SNAPSHOT_FRAME: FrameSpec = FrameSpec {
    magic: SNAPSHOT_MAGIC,
    version: SNAPSHOT_VERSION,
};

/// Why a snapshot could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The payload checksum did not match — truncated or corrupted file.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the payload actually read.
        actual: u64,
    },
    /// The payload structure could not be decoded.
    Wire(WireError),
    /// The snapshot was taken under settings incompatible with the
    /// system it is being loaded into; the message names the field.
    Incompatible(String),
    /// A decoded configuration failed the static verifier
    /// (`dim_cgra::verify`) — structurally well-formed bytes describing
    /// a region that could not have come from the translator.
    InvalidConfig {
        /// Entry PC of the failing region.
        pc: u32,
        /// Covered instructions of the failing region.
        len: u32,
        /// First verifier violation.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a DIM rcache snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot version {v} not supported (this build reads <= {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (file says {expected:#018x}, payload hashes to \
                 {actual:#018x}) — file truncated or corrupted"
            ),
            SnapshotError::Wire(e) => write!(f, "snapshot payload: {e}"),
            SnapshotError::Incompatible(what) => {
                write!(f, "snapshot incompatible with this configuration: {what}")
            }
            SnapshotError::InvalidConfig { pc, len, detail } => write!(
                f,
                "snapshot region at {pc:#x} ({len} instructions) failed verification: {detail}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadMagic => SnapshotError::BadMagic,
            FrameError::UnsupportedVersion(v) => SnapshotError::UnsupportedVersion(v),
            FrameError::Truncated => SnapshotError::Wire(WireError::Truncated),
            FrameError::TrailingBytes(n) => SnapshotError::Wire(WireError::Corrupt(format!(
                "{n} trailing bytes after checksum"
            ))),
            FrameError::ChecksumMismatch { expected, actual } => {
                SnapshotError::ChecksumMismatch { expected, actual }
            }
        }
    }
}

fn policy_bits(policy: ReplacementPolicy) -> u8 {
    match policy {
        ReplacementPolicy::Fifo => 0,
        ReplacementPolicy::Lru => 1,
    }
}

fn policy_from_bits(bits: u8) -> Result<ReplacementPolicy, SnapshotError> {
    match bits {
        0 => Ok(ReplacementPolicy::Fifo),
        1 => Ok(ReplacementPolicy::Lru),
        other => Err(SnapshotError::Wire(WireError::Corrupt(format!(
            "replacement policy tag {other}"
        )))),
    }
}

fn check_eq<T: PartialEq + fmt::Debug>(
    field: &str,
    snapshot: T,
    live: T,
) -> Result<(), SnapshotError> {
    if snapshot != live {
        return Err(SnapshotError::Incompatible(format!(
            "{field}: snapshot has {snapshot:?}, system has {live:?}"
        )));
    }
    Ok(())
}

/// The fully decoded contents of a `.dimrc` snapshot, independent of any
/// live [`System`] — the structure `dim verify` inspects offline and
/// [`System::load_rcache`] restores after its compatibility checks.
#[derive(Debug, Clone)]
pub struct SnapshotContents {
    /// Array geometry the snapshot was taken under.
    pub shape: ArrayShape,
    /// Reconfiguration-cache capacity in slots.
    pub cache_slots: u64,
    /// Cache replacement policy.
    pub cache_policy: ReplacementPolicy,
    /// Whether speculation was enabled.
    pub speculation: bool,
    /// Maximum merged basic blocks when speculating.
    pub max_spec_blocks: u8,
    /// Whether the array's ALUs included shifters.
    pub support_shifts: bool,
    /// Misspeculation flush threshold.
    pub misspec_flush_threshold: u32,
    /// Bimodal predictor entries `(pc, counter)`.
    pub predictor: Vec<(u32, Counter)>,
    /// Per-configuration misspeculation strikes `(pc, count)`.
    pub strikes: Vec<(u32, u32)>,
    /// Cached configurations in saved FIFO order.
    pub configs: Vec<Configuration>,
}

impl SnapshotContents {
    /// Decodes a complete `.dimrc` byte image: magic, version, length,
    /// checksum, header, predictor, strikes, and every configuration
    /// (each replay-decoded against the header's array shape).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for anything that is not a well-formed snapshot.
    pub fn parse(bytes: &[u8]) -> Result<SnapshotContents, SnapshotError> {
        let (version, payload) = frame::decode_frame(SNAPSHOT_FRAME, bytes)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        let mut p = Cursor::new(payload);
        let shape = read_shape(&mut p)?;
        let cache_slots = p.u64()?;
        let cache_policy = policy_from_bits(p.u8()?)?;
        let speculation = p.u8()? != 0;
        let max_spec_blocks = p.u8()?;
        let support_shifts = p.u8()? != 0;
        let misspec_flush_threshold = p.u32()?;

        let mut predictor = Vec::new();
        let n_pred = p.u32()?;
        for _ in 0..n_pred {
            let pc = p.u32()?;
            let bits = p.u8()?;
            let counter = Counter::from_bits(bits).ok_or_else(|| {
                SnapshotError::Wire(WireError::Corrupt(format!("counter bits {bits}")))
            })?;
            predictor.push((pc, counter));
        }
        let mut strikes = Vec::new();
        let n_strikes = p.u32()?;
        for _ in 0..n_strikes {
            let pc = p.u32()?;
            let n = p.u32()?;
            strikes.push((pc, n));
        }
        let mut configs = Vec::new();
        let n_configs = p.u32()?;
        for _ in 0..n_configs {
            let entry = decode_config(&mut p)?;
            if entry.shape() != &shape {
                return Err(SnapshotError::Incompatible(format!(
                    "configuration at {:#x} was placed for a different shape",
                    entry.entry_pc
                )));
            }
            configs.push(entry);
        }
        if p.remaining() != 0 {
            return Err(SnapshotError::Wire(WireError::Corrupt(format!(
                "{} unread payload bytes",
                p.remaining()
            ))));
        }
        Ok(SnapshotContents {
            shape,
            cache_slots,
            cache_policy,
            speculation,
            max_spec_blocks,
            support_shifts,
            misspec_flush_threshold,
            predictor,
            strikes,
            configs,
        })
    }

    /// Runs the static configuration verifier over every cached region.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::InvalidConfig`] naming the first failing
    /// region's PC and length.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        for config in &self.configs {
            if let Some(violation) = dim_cgra::verify::verify_config(config).into_iter().next() {
                return Err(SnapshotError::InvalidConfig {
                    pc: config.entry_pc,
                    len: config.instruction_count() as u32,
                    detail: violation.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Serializes these contents back into a complete `.dimrc` byte
    /// image (magic, version, length, payload, checksum). Inverse of
    /// [`parse`](SnapshotContents::parse); [`System::save_rcache`] is
    /// implemented on top of it.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_shape(&mut payload, &self.shape);
        put_u64(&mut payload, self.cache_slots);
        payload.push(policy_bits(self.cache_policy));
        payload.push(self.speculation as u8);
        payload.push(self.max_spec_blocks);
        payload.push(self.support_shifts as u8);
        put_u32(&mut payload, self.misspec_flush_threshold);

        put_u32(&mut payload, self.predictor.len() as u32);
        for &(pc, counter) in &self.predictor {
            put_u32(&mut payload, pc);
            payload.push(counter.to_bits());
        }
        put_u32(&mut payload, self.strikes.len() as u32);
        for &(pc, n) in &self.strikes {
            put_u32(&mut payload, pc);
            put_u32(&mut payload, n);
        }
        put_u32(&mut payload, self.configs.len() as u32);
        for config in &self.configs {
            encode_config(config, &mut payload);
        }

        frame::encode_frame(SNAPSHOT_FRAME, &payload)
    }

    fn check_compatible(&self, config: &SystemConfig) -> Result<(), SnapshotError> {
        check_eq("array shape", self.shape, config.shape)?;
        check_eq("cache slots", self.cache_slots, config.cache_slots as u64)?;
        check_eq("replacement policy", self.cache_policy, config.cache_policy)?;
        check_eq("speculation", self.speculation, config.speculation)?;
        check_eq(
            "max_spec_blocks",
            self.max_spec_blocks,
            config.max_spec_blocks,
        )?;
        check_eq("support_shifts", self.support_shifts, config.support_shifts)?;
        check_eq(
            "misspec_flush_threshold",
            self.misspec_flush_threshold,
            config.misspec_flush_threshold,
        )?;
        Ok(())
    }
}

impl System {
    /// Serializes the accelerator's warm state (reconfiguration cache,
    /// predictor, misspeculation strikes) into a versioned, checksummed
    /// snapshot.
    ///
    /// Takes `&mut self` because snapshotting finalizes the translator —
    /// any in-flight partial detection region is abandoned, leaving the
    /// continuing system in exactly the state a warm restart of this
    /// snapshot would start from.
    pub fn save_rcache(&mut self) -> Vec<u8> {
        self.translator.abandon_region();

        let mut strikes: Vec<(u32, u32)> = self
            .misspec_counts
            .iter()
            .map(|(&pc, &n)| (pc, n))
            .collect();
        strikes.sort_unstable_by_key(|&(pc, _)| pc);

        let config = *self.config();
        SnapshotContents {
            shape: config.shape,
            cache_slots: config.cache_slots as u64,
            cache_policy: config.cache_policy,
            speculation: config.speculation,
            max_spec_blocks: config.max_spec_blocks,
            support_shifts: config.support_shifts,
            misspec_flush_threshold: config.misspec_flush_threshold,
            predictor: self.predictor.entries(),
            strikes,
            configs: self.cache.iter().cloned().collect(),
        }
        .encode()
    }

    /// Replaces the accelerator's warm state with the snapshot's:
    /// reconfiguration cache contents (in saved FIFO order, statistics
    /// zeroed), predictor counters, and misspeculation strikes. The
    /// machine and the run statistics are untouched. Call before (or
    /// between) runs; like [`save_rcache`](System::save_rcache) it
    /// abandons any in-flight detection region.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are not a snapshot, fail the
    /// checksum, were saved under a different array shape, cache
    /// geometry, or speculation policy than this system's, or contain a
    /// configuration that fails the static verifier
    /// ([`SnapshotError::InvalidConfig`] names the region's PC/len).
    pub fn load_rcache(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let contents = SnapshotContents::parse(bytes)?;
        let config = *self.config();
        contents.check_compatible(&config)?;
        contents.verify()?;

        // Build fresh state first so a corrupt tail cannot leave the
        // system half-restored.
        let mut predictor = crate::BimodalPredictor::new();
        for &(pc, counter) in &contents.predictor {
            predictor.seed(pc, counter);
        }
        let strikes: std::collections::HashMap<u32, u32> =
            contents.strikes.iter().copied().collect();
        let mut cache = ReconfCache::with_policy(config.cache_slots, config.cache_policy);
        for entry in contents.configs {
            let pc = entry.entry_pc;
            if !cache.seed(entry) {
                return Err(SnapshotError::Wire(WireError::Corrupt(format!(
                    "cache entry at {pc:#x} exceeds capacity or repeats"
                ))));
            }
        }

        self.translator.abandon_region();
        self.predictor = predictor;
        self.misspec_counts = strikes;
        self.cache = cache;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use dim_cgra::ArrayShape;
    use dim_mips::asm::assemble;
    use dim_mips_sim::Machine;

    const LOOP: &str = "
        main: li $s0, 300
              li $v0, 0
        loop: addu $v0, $v0, $s0
              xor  $t1, $v0, $s0
              addu $v0, $v0, $t1
              sll  $t2, $v0, 2
              addu $v0, $v0, $t2
              addiu $s0, $s0, -1
              bnez $s0, loop
              break 0";

    fn warmed_system() -> System {
        let program = assemble(LOOP).unwrap();
        let mut sys = System::new(
            Machine::load(&program),
            SystemConfig::new(ArrayShape::config1(), 64, true),
        );
        sys.run(10_000_000).unwrap();
        assert!(!sys.cache().is_empty(), "warm-up produced no configs");
        sys
    }

    #[test]
    fn snapshot_roundtrips_cache_contents() {
        let mut sys = warmed_system();
        let bytes = sys.save_rcache();
        let program = assemble(LOOP).unwrap();
        let mut fresh = System::new(
            Machine::load(&program),
            SystemConfig::new(ArrayShape::config1(), 64, true),
        );
        fresh.load_rcache(&bytes).unwrap();
        let a: Vec<_> = sys.cache().iter().cloned().collect();
        let b: Vec<_> = fresh.cache().iter().cloned().collect();
        assert_eq!(a, b, "cache contents and order must round-trip");
        assert_eq!(fresh.cache().hit_miss(), (0, 0), "stats start fresh");
        // Saving the restored system reproduces the same bytes.
        assert_eq!(fresh.save_rcache(), bytes);
    }

    #[test]
    fn load_rejects_wrong_shape_slots_policy() {
        let mut sys = warmed_system();
        let bytes = sys.save_rcache();
        let program = assemble(LOOP).unwrap();
        for config in [
            SystemConfig::new(ArrayShape::config2(), 64, true),
            SystemConfig::new(ArrayShape::config1(), 16, true),
            SystemConfig::new(ArrayShape::config1(), 64, false),
        ] {
            let mut other = System::new(Machine::load(&program), config);
            let err = other.load_rcache(&bytes).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Incompatible(_)),
                "expected Incompatible, got {err:?}"
            );
        }
    }

    #[test]
    fn load_rejects_corruption_truncation_and_bad_magic() {
        let mut sys = warmed_system();
        let bytes = sys.save_rcache();
        let program = assemble(LOOP).unwrap();
        let fresh = || {
            System::new(
                Machine::load(&program),
                SystemConfig::new(ArrayShape::config1(), 64, true),
            )
        };

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(fresh().load_rcache(&bad), Err(SnapshotError::BadMagic));

        // Future version.
        let mut bad = bytes.clone();
        bad[6] = 0xff;
        assert!(matches!(
            fresh().load_rcache(&bad),
            Err(SnapshotError::UnsupportedVersion(_))
        ));

        // Flip a payload byte: checksum must catch it.
        let mut bad = bytes.clone();
        let mid = 16 + (bad.len() - 24) / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            fresh().load_rcache(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncation at every boundary below the checksum tail.
        for len in 0..bytes.len() {
            assert!(
                fresh().load_rcache(&bytes[..len]).is_err(),
                "prefix of {len} bytes loaded"
            );
        }
    }

    /// Three hot loops against a 2-slot cache force capacity evictions
    /// before the save; the snapshot must capture the post-eviction FIFO
    /// state (survivors only, in surviving order) and restore it exactly.
    #[test]
    fn snapshot_roundtrips_through_eviction() {
        const THREE_LOOPS: &str = "
            main: li $s0, 80
            l1:   addu $v0, $v0, $s0
                  xor  $t1, $v0, $s0
                  addu $v0, $v0, $t1
                  addiu $s0, $s0, -1
                  bnez $s0, l1
                  li $s1, 80
            l2:   sll $t2, $v0, 2
                  addu $v0, $v0, $t2
                  addiu $s1, $s1, -1
                  bnez $s1, l2
                  li $s2, 80
            l3:   srl $t3, $v0, 1
                  xor  $v0, $v0, $t3
                  addiu $s2, $s2, -1
                  bnez $s2, l3
                  break 0";
        let program = assemble(THREE_LOOPS).unwrap();
        let config = SystemConfig::new(ArrayShape::config1(), 2, true);
        let mut sys = System::new(Machine::load(&program), config);
        sys.run(10_000_000).unwrap();
        assert!(
            sys.cache().evictions() > 0,
            "three loops into two slots must evict"
        );
        assert_eq!(sys.cache().len(), 2, "cache full at save time");

        let bytes = sys.save_rcache();
        let mut fresh = System::new(Machine::load(&program), config);
        fresh.load_rcache(&bytes).unwrap();
        let a: Vec<_> = sys.cache().iter().cloned().collect();
        let b: Vec<_> = fresh.cache().iter().cloned().collect();
        assert_eq!(a, b, "post-eviction contents and FIFO order round-trip");
        assert_eq!(fresh.cache().evictions(), 0, "restored stats start fresh");
        assert_eq!(fresh.save_rcache(), bytes);
    }

    /// A snapshot whose bytes are structurally perfect (valid magic,
    /// checksum, wire layout) but whose payload describes a region the
    /// translator could never have committed must be rejected by the
    /// verifier pass with the failing region's PC and length.
    #[test]
    fn load_rejects_doctored_but_checksum_valid_snapshot() {
        let mut sys = warmed_system();
        let bytes = sys.save_rcache();
        let mut contents = SnapshotContents::parse(&bytes).unwrap();
        assert!(!contents.configs.is_empty());
        // Drop one write-back from the first region: the wire stays
        // self-consistent (decode replays placements fine), but the
        // write-back map no longer matches the instruction window.
        let victim = &mut contents.configs[0];
        let expected_pc = victim.entry_pc;
        let expected_len = victim.instruction_count() as u32;
        let (loc, _) = victim.writebacks().next().expect("region writes something");
        victim.remove_writeback(loc);
        let doctored = contents.encode();
        assert_ne!(doctored, bytes);

        let program = assemble(LOOP).unwrap();
        let mut fresh = System::new(
            Machine::load(&program),
            SystemConfig::new(ArrayShape::config1(), 64, true),
        );
        match fresh.load_rcache(&doctored).unwrap_err() {
            SnapshotError::InvalidConfig { pc, len, detail } => {
                assert_eq!(pc, expected_pc);
                assert_eq!(len, expected_len);
                assert!(detail.contains("writeback-mismatch"), "{detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The failed load must not have touched the warm state.
        assert!(fresh.cache().is_empty());
    }

    #[test]
    fn parse_encode_roundtrip_is_byte_identical() {
        let mut sys = warmed_system();
        let bytes = sys.save_rcache();
        let contents = SnapshotContents::parse(&bytes).unwrap();
        assert!(contents.verify().is_ok());
        assert_eq!(contents.encode(), bytes);
        assert_eq!(contents.shape, ArrayShape::config1());
        assert_eq!(contents.cache_slots, 64);
        assert!(contents.speculation);
        assert_eq!(contents.configs.len(), sys.cache().len());
    }

    #[test]
    fn snapshot_version_constant_is_one() {
        // Bumping the format version must be a conscious act: update the
        // compat policy in docs/sweeps.md when this changes.
        assert_eq!(SNAPSHOT_VERSION, 1);
    }
}
