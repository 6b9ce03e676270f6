//! Standalone reconfiguration-cache driver.
//!
//! A traced run records every rcache operation the engine performed, in
//! order ([`CacheRecorder`]); [`replay`] then drives a fresh public
//! [`ReconfCache`] through the same lookups, inserts and flushes. The
//! replay must reproduce the run's hits, misses and evictions exactly
//! before its timings count as `core.rcache.lookup_ns` / `insert_ns`.

use dim_cgra::Configuration;
use dim_core::{ReconfCache, ReplacementPolicy, System};
use dim_obs::{Probe, ProbeEvent, SharedClock};
use std::hint::black_box;

/// One rcache operation as the engine performed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// A lookup of `pc` and whether it hit.
    Lookup {
        /// Looked-up PC.
        pc: u32,
        /// Whether the run's lookup hit.
        hit: bool,
    },
    /// The next committed configuration was inserted, displacing
    /// `evicted` if anything.
    Insert {
        /// Entry PC of the displaced configuration.
        evicted: Option<u32>,
    },
    /// The configuration at `pc` was flushed after misspeculation.
    Flush {
        /// Entry PC of the flushed configuration.
        pc: u32,
    },
}

/// A probe keeping only the rcache operations of a run.
#[derive(Debug, Default)]
pub struct CacheRecorder {
    /// Operations in the order the engine performed them.
    pub ops: Vec<CacheOp>,
}

impl Probe for CacheRecorder {
    fn emit(&mut self, event: ProbeEvent) {
        let op = match event {
            ProbeEvent::RcacheHit { pc, .. } => CacheOp::Lookup { pc, hit: true },
            ProbeEvent::RcacheMiss { pc } => CacheOp::Lookup { pc, hit: false },
            ProbeEvent::RcacheInsert { evicted, .. } => CacheOp::Insert { evicted },
            ProbeEvent::RcacheFlush { pc, .. } => CacheOp::Flush { pc },
            _ => return,
        };
        self.ops.push(op);
    }
}

/// What one replay did and how long its parts took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Lookups replayed.
    pub lookups: u64,
    /// Inserts replayed.
    pub inserts: u64,
    /// The fresh cache's `(hits, misses)` afterwards.
    pub hit_miss: (u64, u64),
    /// The fresh cache's capacity evictions afterwards.
    pub evictions: u64,
    /// Host nanoseconds spent in lookups (replay wall minus timed
    /// inserts and flushes).
    pub lookup_nanos: u64,
    /// Host nanoseconds spent in inserts.
    pub insert_nanos: u64,
}

/// Replays `ops` through a fresh cache, inserting `configs` (the run's
/// commit log) in order, and checks every lookup outcome and every
/// eviction against the recording.
///
/// # Errors
///
/// Names the first operation whose outcome differs from the run's.
pub fn replay(
    ops: &[CacheOp],
    configs: Vec<Configuration>,
    slots: usize,
    policy: ReplacementPolicy,
    clock: &SharedClock,
) -> Result<Replayed, String> {
    let inserts = ops
        .iter()
        .filter(|op| matches!(op, CacheOp::Insert { .. }))
        .count();
    if inserts != configs.len() {
        return Err(format!(
            "{inserts} recorded inserts but {} logged commits",
            configs.len()
        ));
    }
    let mut cache = ReconfCache::with_policy(slots, policy);
    let mut configs = configs.into_iter();
    let mut out = Replayed::default();
    let mut excluded = 0u64;
    let start = clock.now_nanos();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            CacheOp::Lookup { pc, hit } => {
                out.lookups += 1;
                if black_box(cache.lookup(pc)).is_some() != hit {
                    return Err(format!("op {i}: lookup of {pc:#x} should have hit={hit}"));
                }
            }
            CacheOp::Insert { evicted } => {
                let config = configs.next().expect("insert count checked above");
                let t0 = clock.now_nanos();
                let got = cache.insert(config);
                let t1 = clock.now_nanos();
                out.insert_nanos += t1 - t0;
                excluded += t1 - t0;
                out.inserts += 1;
                if got.map(|e| e.pc) != evicted {
                    return Err(format!(
                        "op {i}: insert evicted {:?}, the run evicted {evicted:?}",
                        got.map(|e| e.pc)
                    ));
                }
            }
            CacheOp::Flush { pc } => {
                let t0 = clock.now_nanos();
                cache.flush(pc);
                excluded += clock.now_nanos() - t0;
            }
        }
    }
    out.lookup_nanos = (clock.now_nanos() - start).saturating_sub(excluded);
    out.hit_miss = cache.hit_miss();
    out.evictions = cache.evictions();
    Ok(out)
}

/// Replays a finished run's recorded operations and commit log through
/// a fresh cache of the system's geometry, and checks that the replay
/// ends with the run's hit, miss and eviction counts.
///
/// # Errors
///
/// Names the first operation or count that differs from the run's.
pub fn reproduce(
    system: &System,
    ops: &[CacheOp],
    clock: &SharedClock,
) -> Result<Replayed, String> {
    let config = system.config();
    let got = replay(
        ops,
        system.commit_log().to_vec(),
        config.cache_slots,
        config.cache_policy,
        clock,
    )?;
    let cache = system.cache();
    if got.hit_miss != cache.hit_miss() || got.evictions != cache.evictions() {
        return Err(format!(
            "hits/misses {:?} and {} evictions, the run {:?} and {}",
            got.hit_miss,
            got.evictions,
            cache.hit_miss(),
            cache.evictions()
        ));
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cgra::ArrayShape;
    use dim_core::{System, SystemConfig};
    use dim_mips_sim::Machine;
    use dim_obs::MonotonicClock;

    #[test]
    fn replay_reproduces_a_thrashing_run() {
        let src = crate::churn::generate(7, &crate::churn::ChurnShape::TINY);
        let program = dim_mips::asm::assemble(&src).expect("generated program assembles");
        let config = SystemConfig::new(ArrayShape::config1(), 4, true);
        let mut system = System::new(Machine::load(&program), config);
        system.enable_commit_log();
        let mut recorder = CacheRecorder::default();
        system.run_probed(10_000_000, &mut recorder).expect("runs");
        assert!(
            system.cache().evictions() > 0,
            "the shape must thrash 4 slots"
        );
        let got = reproduce(&system, &recorder.ops, &MonotonicClock::shared())
            .expect("replay agrees with the run");
        assert_eq!(got.inserts, system.cache().insertions());
        assert!(got.lookups > 0);
    }

    #[test]
    fn replay_rejects_a_wrong_recording() {
        let ops = [CacheOp::Lookup {
            pc: 0x40_0000,
            hit: true,
        }];
        let clock = MonotonicClock::shared();
        let err = replay(&ops, Vec::new(), 4, ReplacementPolicy::Fifo, &clock).unwrap_err();
        assert!(err.contains("should have hit"), "{err}");
    }
}
