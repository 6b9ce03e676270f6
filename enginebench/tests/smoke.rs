//! Smoke runs of every workload through the benchmark's own code path,
//! the generator's contract, and the tiling law on real event streams.

use dim_enginebench::churn::{self, ChurnShape};
use dim_enginebench::tile::{Layer, TileProbe};
use dim_enginebench::{
    build_kernels, check, pass_order, prepare, reference, run, run_chunked, run_plain, traced_pass,
    untraced_pass, Checks, Options, Ran, Size, Traced, Untraced, Workload, CHUNK_INSTRUCTIONS,
};
use dim_obs::{parse_json, Clock, JsonValue, SharedClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let json = parse_json(text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_tiny_and_reports_every_listed_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 5,
                seconds: 0.01,
                trace,
                size: Size::Tiny,
            };
            let result = run(&opts);
            assert_eq!(result.checks.failed, 0, "{:?}", result.checks.messages);
            assert!(result.checks.attempted > 0);
            let got: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
            let want = listed(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(got, want, "{} trace={trace}", workload.name());
        }
    }
}

#[test]
fn timings_take_each_chunks_fastest_time() {
    let mut checks = Checks::default();
    let p = prepare(Workload::SuiteScalar, Size::Tiny, 3, &mut checks);
    let mut untraced = Untraced::default();
    for pass in 0..3 {
        let order = pass_order(3, pass, p.kernels.len());
        untraced_pass(&p, &order, &mut untraced, &mut checks);
    }
    assert_eq!(checks.failed, 0, "{:?}", checks.messages);
    assert_eq!(untraced.runs(), 3 * p.kernels.len());
    let fastest = untraced.fastest_ms();
    assert_eq!(fastest.len(), p.kernels.len());
    for (runs, best) in untraced.kernel_ms.iter().zip(&fastest) {
        assert_eq!(runs.len(), 3);
        assert!(*best > 0.0 && runs.iter().all(|r| r >= best));
    }
}

#[test]
fn chunked_runs_match_a_single_run_on_both_engines() {
    for workload in [Workload::SuiteScalar, Workload::SuiteAccel] {
        let config = workload.system_config();
        let (built, want) = build_kernels(workload, Size::Full, 1)
            .into_iter()
            .map(|mut built| {
                let want = reference(&mut built, config).expect("reference run");
                (built, want)
            })
            .max_by_key(|(_, want)| want.instructions)
            .expect("the suite has kernels");
        assert!(want.instructions > 2 * CHUNK_INSTRUCTIONS);
        let mut chunk_ms = Vec::new();
        let outcome = run_chunked(&built, config, &mut chunk_ms);
        check(&built, &want, &outcome).expect("same instructions, state and cycles");
        assert!(chunk_ms.len() > 2, "{} chunks", chunk_ms.len());
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let text = include_str!("../../BENCHMARK.json");
    let json = parse_json(text).expect("BENCHMARK.json parses");
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn generated_programs_assemble_halt_and_match_scalar() {
    let config = Workload::RegionChurn.system_config();
    for seed in 0..6 {
        for mut built in build_kernels(Workload::RegionChurn, Size::Tiny, seed) {
            let r = reference(&mut built, config).expect("accelerated run matches scalar");
            assert!(r.instructions > 0);
            assert_eq!(
                built.expected.len(),
                1,
                "scratch image taken from the scalar run"
            );
        }
    }
}

#[test]
fn generator_is_deterministic_per_seed() {
    let a = build_kernels(Workload::RegionChurn, Size::Tiny, 9);
    let b = build_kernels(Workload::RegionChurn, Size::Tiny, 9);
    let c = build_kernels(Workload::RegionChurn, Size::Tiny, 10);
    let words = |k: &[dim_workloads::BuiltBenchmark]| -> Vec<Vec<u32>> {
        k.iter().map(|b| b.program.text.clone()).collect()
    };
    assert_eq!(words(&a), words(&b));
    assert_ne!(words(&a), words(&c));
    assert_eq!(
        churn::generate(9, &ChurnShape::TINY),
        churn::generate(9, &ChurnShape::TINY)
    );
}

#[test]
fn full_shape_program_thrashes_the_rcache() {
    let config = Workload::RegionChurn.system_config();
    let mut built = build_kernels(Workload::RegionChurn, Size::Full, 1).swap_remove(0);
    reference(&mut built, config).expect("full-shape program matches scalar");
    let Ok((_, Ran::Accel(system))) = run_plain(&built, config) else {
        panic!("accelerated run");
    };
    let commits = system.stats().configs_built;
    // Nearly every commit evicts, and fewer configurations are replayed
    // than translated.
    assert!(system.cache().evictions() * 10 > commits * 9);
    assert!(system.stats().array_invocations < commits);
}

/// A clock that moves 7 ns on every reading, so every interval of a
/// traced run is nonzero and known to be charged somewhere.
#[derive(Debug, Default)]
struct TickClock(AtomicU64);

impl Clock for TickClock {
    fn now_nanos(&self) -> u64 {
        self.0.fetch_add(7, Ordering::SeqCst)
    }
}

/// Intervals charged to `layer` in a [`TickClock`] run.
fn intervals(traced: &Traced, layer: Layer) -> u64 {
    traced.layer_ns[layer as usize] / 7
}

#[test]
fn real_traced_pass_charges_each_interval_to_its_layer() {
    for workload in Workload::ALL {
        let mut checks = Checks::default();
        let p = prepare(workload, Size::Tiny, 3, &mut checks);
        let clock: SharedClock = Arc::new(TickClock::default());
        let mut traced = Traced::default();
        let order: Vec<usize> = (0..p.kernels.len()).collect();
        traced_pass(&p, &order, &clock, &mut traced, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);
        let tiled: u64 = traced.layer_ns.iter().sum();
        assert_eq!(tiled, traced.pass_wall_ns[0]);
        let runs = p.kernels.len() as u64;
        let c = &traced.counts;
        // Per run: one reading opens it, one closes it, one closes its
        // validation; one more reading closes the pass.
        assert_eq!(intervals(&traced, Layer::Remainder), 2 * runs + 1);
        assert_eq!(intervals(&traced, Layer::Validate), runs);
        if workload == Workload::SuiteScalar {
            assert_eq!(intervals(&traced, Layer::Step), c.retires);
            assert_eq!(tiled / 7, c.retires + 3 * runs + 1);
        } else {
            // Each miss is followed by the step it retires, each
            // invocation closes a replay, and each run's first lookup
            // and every lookup after an invocation but the run's last
            // are dispatch.
            assert_eq!(intervals(&traced, Layer::Step), c.misses);
            assert!(intervals(&traced, Layer::Replay) >= c.invocations);
            let dispatch = intervals(&traced, Layer::Dispatch);
            assert!(c.invocations <= dispatch && dispatch <= c.invocations + runs);
            assert!(intervals(&traced, Layer::Commit) >= c.commits);
            assert!(intervals(&traced, Layer::Observe) > 0);
        }
    }
}

#[test]
fn probe_wall_is_the_sum_of_layers_under_a_fake_clock() {
    let fake = dim_obs::FakeClock::shared(500);
    let mut probe = TileProbe::new(Arc::clone(&fake) as SharedClock, false);
    for (i, layer) in Layer::ALL.iter().enumerate() {
        fake.advance(10 * (i as u64 + 1));
        probe.mark(*layer);
    }
    assert_eq!(probe.total_nanos(), probe.wall_nanos());
    assert_eq!(probe.wall_nanos(), 10 * (1..=7).sum::<u64>());
}
