//! Cross-layer observability guarantees:
//!
//! * probing is behavior-neutral — a recording run is cycle- and
//!   state-identical to a NullProbe run (property-tested);
//! * the recorded event stream is internally consistent with the
//!   simulator's own counters;
//! * a JSONL trace replays to the exact `DimStats` of the live run;
//! * the cycle profiler's column sums equal the total cycle count.

use dim_cgra::ArrayShape;
use dim_core::{System, SystemConfig, Trace};
use dim_mips::asm::assemble;
use dim_mips::Reg;
use dim_mips_sim::{CacheConfig, CacheSim, Machine};
use dim_obs::{replay, CycleProfiler, JsonlSink, Probe, RecordingProbe};
use proptest::prelude::*;

const MAX_INSTRUCTIONS: u64 = 10_000_000;

/// A loop with a data-dependent branch (misspeculation exercise), memory
/// traffic, and a multiply — parameterized so proptest can vary the
/// dynamic behavior.
fn workload_src(iters: u32, mask: u32, stride: u32) -> String {
    format!(
        "
        .data
        buf: .space 2048
        .text
        main: li $s0, {iters}
              la $s1, buf
              li $v0, 0
        loop: andi $t1, $s0, {mask}
              beqz $t1, skip
              addiu $v0, $v0, 3
              xor  $t2, $v0, $s0
              addu $v0, $v0, $t2
        skip: andi $t3, $s0, 127
              sll  $t4, $t3, 2
              addu $t5, $s1, $t4
              sw   $v0, 0($t5)
              lw   $t6, 0($t5)
              mul  $t7, $t6, $s0
              addu $v0, $v0, $t7
              addiu $s0, $s0, -{stride}
              bgtz $s0, loop
              break 0"
    )
}

fn build_system(src: &str, slots: usize, spec: bool, with_caches: bool) -> System {
    let program = assemble(src).expect("assembles");
    let mut machine = Machine::load(&program);
    if with_caches {
        machine.icache = Some(CacheSim::new(CacheConfig::icache_4k()));
        machine.dcache = Some(CacheSim::new(CacheConfig::dcache_4k()));
    }
    System::new(
        machine,
        SystemConfig::new(ArrayShape::config2(), slots, spec),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observation must never perturb the simulation: architectural
    /// state, cycle counts, and every accelerator counter are identical
    /// between an unprobed run and a recording run.
    #[test]
    fn recording_probe_never_changes_behavior(
        iters in 1u32..200,
        mask in prop_oneof![Just(0u32), Just(1), Just(3), Just(7)],
        stride in 1u32..3,
        slots in prop_oneof![Just(0usize), Just(16), Just(64)],
        spec in any::<bool>(),
        with_caches in any::<bool>(),
    ) {
        let src = workload_src(iters, mask, stride);
        let mut plain = build_system(&src, slots, spec, with_caches);
        let mut probed = build_system(&src, slots, spec, with_caches);
        let mut recorder = RecordingProbe::new();

        let r1 = plain.run(MAX_INSTRUCTIONS).expect("plain run");
        let r2 = probed.run_probed(MAX_INSTRUCTIONS, &mut recorder).expect("probed run");
        prop_assert_eq!(r1, r2);

        for r in Reg::all() {
            prop_assert_eq!(plain.machine().cpu.reg(r), probed.machine().cpu.reg(r));
        }
        prop_assert_eq!(plain.machine().stats, probed.machine().stats);
        prop_assert_eq!(plain.stats(), probed.stats());
        prop_assert_eq!(plain.total_cycles(), probed.total_cycles());

        // The event stream accounts for every cycle and every retire.
        let stats = probed.stats();
        let mstats = &probed.machine().stats;
        prop_assert_eq!(recorder.total_cycles(),
                        mstats.cycles + stats.total_array_cycles());
        prop_assert_eq!(recorder.count("retire") as u64, mstats.instructions);
        prop_assert_eq!(recorder.count("array_invoke") as u64, stats.array_invocations);
        prop_assert_eq!(recorder.count("rcache_flush") as u64, stats.config_flushes);
        prop_assert_eq!(recorder.count("rcache_insert") as u64, stats.configs_built);
        let (hits, misses) = probed.cache().hit_miss();
        prop_assert_eq!(recorder.count("rcache_hit") as u64, hits);
        prop_assert_eq!(recorder.count("rcache_miss") as u64, misses);
    }

    /// The JSONL trace round-trips to the exact live `DimStats`.
    #[test]
    fn jsonl_trace_replays_to_identical_stats(
        iters in 1u32..200,
        mask in prop_oneof![Just(0u32), Just(1), Just(3)],
        slots in prop_oneof![Just(16usize), Just(64)],
        with_caches in any::<bool>(),
    ) {
        let src = workload_src(iters, mask, 1);
        let mut system = build_system(&src, slots, true, with_caches);
        let bits = system.stored_bits_per_config();
        let mut sink = JsonlSink::new(Vec::new(), "prop", bits);
        system.run_probed(MAX_INSTRUCTIONS, &mut sink).expect("runs");
        sink.finish();
        let (bytes, io_err) = sink.into_inner();
        prop_assert!(io_err.is_none());

        let trace = replay::read_trace(&String::from_utf8(bytes).unwrap())
            .expect("trace validates");
        let s = trace.summary;
        let live = system.stats();

        prop_assert_eq!(s.array_invocations, live.array_invocations);
        prop_assert_eq!(s.array_instructions, live.array_instructions);
        prop_assert_eq!(s.array_exec_cycles, live.array_exec_cycles);
        prop_assert_eq!(s.reconfig_stall_cycles, live.reconfig_stall_cycles);
        prop_assert_eq!(s.writeback_tail_cycles, live.writeback_tail_cycles);
        prop_assert_eq!(s.array_loads, live.array_loads);
        prop_assert_eq!(s.array_stores, live.array_stores);
        prop_assert_eq!(s.full_hits, live.full_hits);
        prop_assert_eq!(s.misspeculations, live.misspeculations);
        prop_assert_eq!(s.config_flushes, live.config_flushes);
        prop_assert_eq!(s.configs_built, live.configs_built);
        prop_assert_eq!(s.translated_instructions, live.translated_instructions);
        prop_assert_eq!(s.array_occupied_rows, live.array_occupied_rows);
        prop_assert_eq!(s.rcache_evictions_live, live.rcache_evictions_live);
        prop_assert_eq!(s.rcache_evictions_dead, live.rcache_evictions_dead);
        // Bit counters reconstruct exactly from the header's
        // bits_per_config (taken from the live system's encoding).
        prop_assert_eq!(s.cache_bits_read, live.cache_bits_read);
        prop_assert_eq!(s.cache_bits_written, live.cache_bits_written);

        prop_assert_eq!(s.retired, system.machine().stats.instructions);
        prop_assert_eq!(s.pipeline_cycles, system.machine().stats.cycles);
        prop_assert_eq!(s.total_cycles(), system.total_cycles());
    }

    /// The profiler's per-block columns sum to the total cycle count
    /// exactly — no cycle is lost or double-counted.
    #[test]
    fn profile_columns_sum_to_total_cycles(
        iters in 1u32..200,
        mask in prop_oneof![Just(0u32), Just(3)],
        slots in prop_oneof![Just(0usize), Just(64)],
        with_caches in any::<bool>(),
    ) {
        let src = workload_src(iters, mask, 1);
        let mut system = build_system(&src, slots, true, with_caches);
        let mut profiler = CycleProfiler::new();
        system.run_probed(MAX_INSTRUCTIONS, &mut profiler).expect("runs");
        let profile = profiler.into_profile();

        let mstats = &system.machine().stats;
        let astats = system.stats();
        prop_assert_eq!(profile.total_cycles(), system.total_cycles());
        prop_assert_eq!(
            profile.totals.pipeline + profile.totals.i_stall + profile.totals.d_stall,
            mstats.cycles
        );
        prop_assert_eq!(profile.totals.reconfig_stall, astats.reconfig_stall_cycles);
        prop_assert_eq!(profile.totals.array_exec, astats.array_exec_cycles);
        prop_assert_eq!(profile.totals.writeback_tail, astats.writeback_tail_cycles);
        prop_assert_eq!(profile.totals.retired, mstats.instructions);

        // The counter-derived breakdown agrees with the profiler column
        // for column — same attribution model, two independent sources.
        let breakdown = system.cycle_breakdown();
        prop_assert_eq!(breakdown.total(), system.total_cycles());
        prop_assert_eq!(breakdown.pipeline, profile.totals.pipeline);
        prop_assert_eq!(breakdown.i_stall, profile.totals.i_stall);
        prop_assert_eq!(breakdown.d_stall, profile.totals.d_stall);
        prop_assert_eq!(breakdown.reconfig_stall, profile.totals.reconfig_stall);
        prop_assert_eq!(breakdown.array_exec, profile.totals.array_exec);
        prop_assert_eq!(breakdown.writeback_tail, profile.totals.writeback_tail);
        if with_caches {
            prop_assert!(breakdown.i_stall + breakdown.d_stall > 0);
        }
    }
}

/// The eviction split at the capacity boundary: a cache sized to hold
/// every region never evicts (both counters zero); one slot short,
/// displacements begin, the live/dead split accounts for every eviction
/// the cache reports, and the hot loop's reused config counts as a
/// *live* casualty.
#[test]
fn eviction_split_tracks_capacity_boundary() {
    let src = "
        main: li $s0, 30
              li $v0, 0
        l1:   xor $t0, $v0, $s0
              addu $v0, $v0, $t0
              sll $t1, $v0, 1
              addu $v0, $v0, $t1
              addiu $s0, $s0, -1
              bnez $s0, l1
              li $s1, 30
        l2:   srl $t2, $v0, 2
              xor $v0, $v0, $t2
              addiu $v0, $v0, 7
              addiu $s1, $s1, -1
              bnez $s1, l2
              break 0";
    let run = |slots: usize| {
        let mut system = build_system(src, slots, true, false);
        system.run(MAX_INSTRUCTIONS).expect("runs");
        system
    };

    // Roomy: every region stays resident.
    let roomy = run(64);
    assert_eq!(roomy.cache().evictions(), 0);
    assert_eq!(roomy.stats().rcache_evictions_live, 0);
    assert_eq!(roomy.stats().rcache_evictions_dead, 0);
    let resident = roomy.cache().len();
    assert!(resident >= 2, "needs at least two regions to displace");

    // Exactly at capacity: still nothing evicts.
    let exact = run(resident);
    assert_eq!(exact.cache().evictions(), 0);
    assert_eq!(exact.stats().rcache_evictions_live, 0);
    assert_eq!(exact.stats().rcache_evictions_dead, 0);

    // One short: displacement starts and the split stays exhaustive.
    let tight = run(resident - 1);
    let stats = tight.stats();
    assert!(tight.cache().evictions() > 0);
    assert_eq!(
        stats.rcache_evictions_live + stats.rcache_evictions_dead,
        tight.cache().evictions()
    );

    // A single slot forces the hot loop's config — hit on every
    // iteration — to be displaced when the next region arrives, so at
    // least one eviction must be classified live.
    let single = run(1);
    let stats = single.stats();
    assert_eq!(
        stats.rcache_evictions_live + stats.rcache_evictions_dead,
        single.cache().evictions()
    );
    assert!(
        stats.rcache_evictions_live >= 1,
        "the hot loop's config was reused before being displaced: {stats:?}"
    );
}

/// The bounded in-memory trace is one more probe: fanned out beside an
/// external sink it sees the same invocation events, keeps the last
/// ones, and reports drops in its display.
#[test]
fn trace_and_probe_share_one_event_path() {
    let src = workload_src(150, 0, 1);
    let mut system = build_system(&src, 64, true, false);
    let mut trace = Trace::new(4);
    let mut recorder = RecordingProbe::new();
    system
        .run_probed(MAX_INSTRUCTIONS, &mut (&mut recorder, &mut trace))
        .expect("runs");

    let invocations = system.stats().array_invocations;
    assert!(invocations > 4, "workload must invoke the array repeatedly");
    assert_eq!(trace.len() as u64 + trace.dropped(), invocations);
    assert!(trace.to_string().contains("earlier invocations dropped"));

    // The retained tail matches the recorder's last events exactly.
    let recorded: Vec<_> = recorder
        .events
        .iter()
        .filter_map(|e| match e {
            dim_obs::ProbeEvent::ArrayInvoke(inv) => Some(*inv),
            _ => None,
        })
        .collect();
    let tail = &recorded[recorded.len() - trace.len()..];
    for (traced, inv) in trace.events().zip(tail) {
        assert_eq!(traced.entry_pc, inv.entry_pc);
        assert_eq!(traced.cycles, inv.total_cycles());
        assert_eq!(traced.exit_pc, inv.exit_pc);
        assert_eq!(traced.misspeculated, inv.misspeculated);
    }
}
