//! Engine benchmark for the DIM simulator: host throughput end to end,
//! host time per layer from a separate traced run.
//!
//! Three closed-loop workloads, one client running kernels back to back:
//!
//! * `suite_scalar` — the 18 Table-2 kernels on the plain `Machine::run`;
//! * `suite_accel` — the same kernels on `System::run`, Table-2 point
//!   #2 / 64 slots / speculation, where replay and rcache hits dominate;
//! * `region_churn` — seed-generated programs with far more small hot
//!   loops than the 16 slots of config #1, where translation, commits
//!   and rcache inserts dominate.
//!
//! Every timed run starts from a fresh machine (empty rcache, cold
//! predictor) and its output is checked. See `README.md` for the metric
//! definitions.

pub mod churn;
pub mod driver;
pub mod report;
pub mod stats;
pub mod tile;

pub use report::Metric;

use dim_cgra::ArrayShape;
use dim_core::{CycleBreakdown, System, SystemConfig};
use dim_mips::Reg;
use dim_mips_sim::{HaltReason, Machine};
use dim_obs::{HostBucket, MonotonicClock, Probe, SharedClock};
use dim_workloads::{BuiltBenchmark, Category, ExpectedRegion, Scale};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tile::{Counts, Layer, TileProbe};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 18 kernels on the plain pipeline.
    SuiteScalar,
    /// All 18 kernels on the DIM system, config #2 / 64 slots / spec.
    SuiteAccel,
    /// Generated loop-churn programs, config #1 / 16 slots / spec.
    RegionChurn,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteScalar,
        Workload::SuiteAccel,
        Workload::RegionChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteScalar => "suite_scalar",
            Workload::SuiteAccel => "suite_accel",
            Workload::RegionChurn => "region_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The accelerator the workload runs on, or `None` for the plain
    /// pipeline.
    pub fn system_config(self) -> Option<SystemConfig> {
        match self {
            Workload::SuiteScalar => None,
            Workload::SuiteAccel => Some(SystemConfig::new(ArrayShape::config2(), 64, true)),
            Workload::RegionChurn => Some(SystemConfig::new(ArrayShape::config1(), 16, true)),
        }
    }
}

/// Input size: `Full` is the benchmark, `Tiny` a smoke run through the
/// same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Suite kernels at `Scale::Full`, churn at [`churn::ChurnShape::FULL`].
    Full,
    /// Suite kernels at `Scale::Tiny`, churn at [`churn::ChurnShape::TINY`].
    Tiny,
}

/// Builds and assembles the workload's programs. Churn programs get
/// their expected scratch image from the scalar reference run later.
pub fn build_kernels(workload: Workload, size: Size, seed: u64) -> Vec<BuiltBenchmark> {
    match workload {
        Workload::SuiteScalar | Workload::SuiteAccel => {
            let scale = match size {
                Size::Full => Scale::Full,
                Size::Tiny => Scale::Tiny,
            };
            dim_workloads::suite()
                .iter()
                .map(|spec| (spec.build)(scale))
                .collect()
        }
        Workload::RegionChurn => {
            let shape = match size {
                Size::Full => churn::ChurnShape::FULL,
                Size::Tiny => churn::ChurnShape::TINY,
            };
            let mut rng = churn::Rng::new(seed);
            (0..shape.programs)
                .map(|_| {
                    let src = churn::generate(rng.next_u64(), &shape);
                    BuiltBenchmark {
                        name: "region_churn",
                        category: Category::ControlFlow,
                        program: dim_mips::asm::assemble(&src)
                            .expect("generated churn programs assemble"),
                        expected: Vec::new(),
                        max_steps: churn::max_steps(&shape),
                    }
                })
                .collect()
        }
    }
}

/// A finished simulator run.
#[derive(Debug)]
pub enum Ran {
    /// A plain-pipeline run.
    Scalar(Box<Machine>),
    /// A DIM-system run.
    Accel(Box<System>),
}

impl Ran {
    /// The architectural machine state.
    pub fn machine(&self) -> &Machine {
        match self {
            Ran::Scalar(m) => m,
            Ran::Accel(s) => s.machine(),
        }
    }

    /// Architecturally retired instructions, array-retired included.
    pub fn instructions(&self) -> u64 {
        match self {
            Ran::Scalar(m) => m.stats.instructions,
            Ran::Accel(s) => s.total_instructions(),
        }
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        match self {
            Ran::Scalar(m) => m.stats.cycles,
            Ran::Accel(s) => s.total_cycles(),
        }
    }

    /// Exact per-phase cycle attribution.
    pub fn breakdown(&self) -> CycleBreakdown {
        match self {
            Ran::Scalar(m) => CycleBreakdown {
                pipeline: m.stats.base_cycles(),
                i_stall: m.stats.i_stall_cycles,
                d_stall: m.stats.d_stall_cycles,
                ..CycleBreakdown::default()
            },
            Ran::Accel(s) => s.cycle_breakdown(),
        }
    }
}

type Outcome = Result<(HaltReason, Ran), String>;

/// A fresh machine for `built`, not yet run: the plain pipeline, or a
/// system on `config` that `prepare` adjusts.
pub fn load(
    built: &BuiltBenchmark,
    config: Option<SystemConfig>,
    prepare: impl FnOnce(&mut System),
) -> Ran {
    let machine = Machine::load(&built.program);
    match config {
        None => Ran::Scalar(Box::new(machine)),
        Some(c) => {
            let mut s = System::new(machine, c);
            prepare(&mut s);
            Ran::Accel(Box::new(s))
        }
    }
}

/// Runs `built` from a fresh machine through the uninstrumented
/// `Machine::run` / `System::run`.
pub fn run_plain(built: &BuiltBenchmark, config: Option<SystemConfig>) -> Outcome {
    let mut ran = load(built, config, |_| {});
    let halt = match &mut ran {
        Ran::Scalar(m) => m.run(built.max_steps),
        Ran::Accel(s) => s.run(built.max_steps),
    };
    Ok((halt.map_err(|e| e.to_string())?, ran))
}

/// Instructions one timed `run` call may retire; see [`run_chunked`].
pub const CHUNK_INSTRUCTIONS: u64 = 1 << 16;

/// Runs `built` like [`run_plain`], but as a sequence of `run` calls of
/// [`CHUNK_INSTRUCTIONS`] each until it halts, and pushes the host
/// milliseconds of every call onto `chunk_ms`; machine construction
/// counts in the first. Both engines keep all state between calls, so
/// the run retires the same instructions in the same cycles as one
/// call, which [`check`] verifies.
pub fn run_chunked(
    built: &BuiltBenchmark,
    config: Option<SystemConfig>,
    chunk_ms: &mut Vec<f64>,
) -> Outcome {
    let mut last = Instant::now();
    let mut ran = load(built, config, |_| {});
    let mut budget = built.max_steps;
    loop {
        let n = budget.min(CHUNK_INSTRUCTIONS);
        let halt = match &mut ran {
            Ran::Scalar(m) => m.run(n),
            Ran::Accel(s) => s.run(n),
        };
        let now = Instant::now();
        chunk_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
        budget -= n;
        match halt.map_err(|e| e.to_string())? {
            HaltReason::StepLimit if budget > 0 => {}
            halt => return Ok((halt, ran)),
        }
    }
}

/// Runs a machine from [`load`] for up to `max_steps` like
/// [`run_plain`], observed by `probe`.
pub fn run_observed<P: Probe>(mut loaded: Ran, max_steps: u64, probe: &mut P) -> Outcome {
    let halt = match &mut loaded {
        Ran::Scalar(m) => m.run_probed(max_steps, probe),
        Ran::Accel(s) => s.run_probed(max_steps, probe),
    };
    Ok((halt.map_err(|e| e.to_string())?, loaded))
}

/// What every correct run of one kernel must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Instructions the scalar run retired.
    pub instructions: u64,
    /// Cycles of the scalar run.
    pub scalar_cycles: u64,
    /// Cycles of a run on the workload's own engine.
    pub cycles: u64,
    /// Final general-purpose registers, HI and LO of the scalar run.
    pub regs: [u32; 34],
}

fn arch_regs(m: &Machine) -> [u32; 34] {
    let mut regs = [0u32; 34];
    for r in Reg::all() {
        regs[r.index()] = m.cpu.reg(r);
    }
    regs[32] = m.cpu.hi;
    regs[33] = m.cpu.lo;
    regs
}

/// Checks one finished run: it halted, its output passes the oracle, and
/// it retired the scalar run's instructions into the same registers in
/// the reference's cycle count.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn check(
    built: &BuiltBenchmark,
    reference: &Reference,
    outcome: &Outcome,
) -> Result<(), String> {
    let (halt, ran) = outcome.as_ref().map_err(Clone::clone)?;
    if !matches!(halt, HaltReason::Exit(_)) {
        return Err(format!("{}: did not halt", built.name));
    }
    dim_workloads::validate(ran.machine(), built).map_err(|e| format!("{}: {e}", built.name))?;
    if ran.instructions() != reference.instructions {
        return Err(format!(
            "{}: retired {} instructions, the scalar run {}",
            built.name,
            ran.instructions(),
            reference.instructions
        ));
    }
    if arch_regs(ran.machine()) != reference.regs {
        return Err(format!(
            "{}: final registers differ from the scalar run",
            built.name
        ));
    }
    if ran.cycles() != reference.cycles {
        return Err(format!(
            "{}: {} simulated cycles, earlier runs {}",
            built.name,
            ran.cycles(),
            reference.cycles
        ));
    }
    Ok(())
}

/// Runs `built` once on the plain pipeline and once on `config`,
/// checks the pair, and returns the reference later runs must match.
/// A churn program's expected scratch image is taken from the scalar
/// run here.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn reference(
    built: &mut BuiltBenchmark,
    config: Option<SystemConfig>,
) -> Result<Reference, String> {
    let (halt, ran) = run_plain(built, None)?;
    if !matches!(halt, HaltReason::Exit(_)) {
        return Err(format!("{}: scalar run did not halt", built.name));
    }
    if built.expected.is_empty() {
        let addr = built
            .program
            .symbol("scratch")
            .ok_or_else(|| format!("{}: no oracle and no scratch region", built.name))?;
        built.expected.push(ExpectedRegion {
            label: "scratch".into(),
            bytes: ran.machine().mem.read_bytes(addr, churn::SCRATCH_BYTES),
        });
    }
    let mut r = Reference {
        instructions: ran.instructions(),
        scalar_cycles: ran.cycles(),
        cycles: ran.cycles(),
        regs: arch_regs(ran.machine()),
    };
    check(built, &r, &Ok((halt, ran)))?;
    if config.is_some() {
        let outcome = run_plain(built, config);
        r.cycles = outcome.as_ref().map_or(0, |(_, ran)| ran.cycles());
        check(built, &r, &outcome)?;
    }
    Ok(r)
}

/// The kernel order of one pass: a seed-derived permutation.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    churn::Rng::new(seed ^ pass.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .shuffle(&mut order);
    order
}

/// Output checks made so far.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Runs checked.
    pub attempted: u64,
    /// Runs whose check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(e);
            }
        }
    }
}

/// A prepared workload: built programs and their references.
#[derive(Debug)]
pub struct Prepared {
    /// The engine it runs on.
    pub config: Option<SystemConfig>,
    /// Built programs.
    pub kernels: Vec<BuiltBenchmark>,
    /// One reference per program.
    pub refs: Vec<Reference>,
    /// Seconds each timed build took.
    pub setup_s: Vec<f64>,
}

/// Seconds one build of the workload's programs takes.
pub fn time_build(workload: Workload, size: Size, seed: u64) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(build_kernels(workload, size, seed));
    t0.elapsed().as_secs_f64()
}

/// Builds the workload, then makes the untimed reference pass, which
/// also warms the host. The timed builds are taken later, during the
/// measured passes.
pub fn prepare(workload: Workload, size: Size, seed: u64, checks: &mut Checks) -> Prepared {
    let mut kernels = build_kernels(workload, size, seed);
    let config = workload.system_config();
    let refs = kernels
        .iter_mut()
        .map(|k| {
            let r = reference(k, config);
            checks.record(r.as_ref().map(|_| ()).map_err(Clone::clone));
            r.unwrap_or(Reference {
                instructions: 0,
                scalar_cycles: 0,
                cycles: 0,
                regs: [0; 34],
            })
        })
        .collect();
    Prepared {
        config,
        kernels,
        refs,
        setup_s: Vec::new(),
    }
}

impl Prepared {
    /// Instructions one pass retires.
    pub fn pass_instructions(&self) -> u64 {
        self.refs.iter().map(|r| r.instructions).sum()
    }

    /// Simulated cycles one pass takes on the workload's engine.
    pub fn pass_cycles(&self) -> u64 {
        self.refs.iter().map(|r| r.cycles).sum()
    }

    /// Arithmetic mean over kernels of scalar / engine cycles.
    pub fn speedup_mean(&self) -> f64 {
        let sum: f64 = self
            .refs
            .iter()
            .map(|r| stats::ratio(r.scalar_cycles as f64, r.cycles as f64))
            .sum();
        sum / self.refs.len().max(1) as f64
    }

    /// Per-kernel speedups, by kernel name.
    pub fn speedups(&self) -> Vec<(&'static str, f64)> {
        self.kernels
            .iter()
            .zip(&self.refs)
            .map(|(k, r)| {
                (
                    k.name,
                    stats::ratio(r.scalar_cycles as f64, r.cycles as f64),
                )
            })
            .collect()
    }
}

/// Timings of the untraced passes.
#[derive(Debug, Clone, Default)]
pub struct Untraced {
    /// Host milliseconds of every run, per program.
    pub kernel_ms: Vec<Vec<f64>>,
    /// Per program, the fastest host milliseconds seen for each of its
    /// [`run_chunked`] calls, by position in the run.
    pub fastest_chunk_ms: Vec<Vec<f64>>,
    /// Host seconds per pass, checks included.
    pub pass_wall_s: Vec<f64>,
}

impl Untraced {
    /// Each program's run assembled from the fastest time of each of its
    /// chunks, in host milliseconds.
    ///
    /// The end-to-end timings are taken from these. Other tenants of the
    /// host only ever slow a run down, by up to 2.3x for stretches of a
    /// second to several minutes, and quiet moments are often shorter
    /// than a whole run. A chunk of a few milliseconds usually fits in
    /// one, so the fastest time of each chunk over the whole measurement
    /// is the steadiest estimate of what the run costs on an otherwise
    /// idle host; medians over runs move with the host's load.
    pub fn fastest_ms(&self) -> Vec<f64> {
        self.fastest_chunk_ms
            .iter()
            .map(|chunks| chunks.iter().sum())
            .collect()
    }

    /// Runs timed.
    pub fn runs(&self) -> usize {
        self.kernel_ms.iter().map(Vec::len).sum()
    }
}

/// One untraced pass in `order`: each run timed chunk by chunk from
/// machine construction to the end of its last `run` call, then
/// checked.
pub fn untraced_pass(p: &Prepared, order: &[usize], out: &mut Untraced, checks: &mut Checks) {
    let pass_start = Instant::now();
    let n = p.kernels.len();
    out.kernel_ms.resize_with(n, Vec::new);
    out.fastest_chunk_ms.resize_with(n, Vec::new);
    let mut chunk_ms = Vec::new();
    for &k in order {
        chunk_ms.clear();
        let outcome = run_chunked(&p.kernels[k], p.config, &mut chunk_ms);
        out.kernel_ms[k].push(chunk_ms.iter().sum());
        let fastest = &mut out.fastest_chunk_ms[k];
        for (i, &ms) in chunk_ms.iter().enumerate() {
            match fastest.get_mut(i) {
                Some(f) => *f = f.min(ms),
                None => fastest.push(ms),
            }
        }
        checks.record(check(&p.kernels[k], &p.refs[k], &outcome));
    }
    out.pass_wall_s.push(pass_start.elapsed().as_secs_f64());
}

/// Layer totals and counts of the traced passes.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Traced passes made.
    pub passes: u64,
    /// Traced wall nanoseconds per pass.
    pub pass_wall_ns: Vec<u64>,
    /// Nanoseconds per layer over all passes.
    pub layer_ns: [u64; Layer::COUNT],
    /// Event counts over all passes.
    pub counts: Counts,
    /// Cycle breakdown of one pass.
    pub breakdown: CycleBreakdown,
}

/// One traced pass: the same calls as [`untraced_pass`], observed by a
/// fresh [`TileProbe`] on `clock`, with construction, validation and the
/// loop marked on the same clock. Machine construction lands in
/// [`Layer::Remainder`].
pub fn traced_pass(
    p: &Prepared,
    order: &[usize],
    clock: &SharedClock,
    out: &mut Traced,
    checks: &mut Checks,
) {
    let mut probe = TileProbe::new(Arc::clone(clock), p.config.is_none());
    let mut breakdown = CycleBreakdown::default();
    for &k in order {
        let built = &p.kernels[k];
        let loaded = load(built, p.config, |_| {});
        probe.begin_run();
        let outcome = run_observed(loaded, built.max_steps, &mut probe);
        probe.mark(Layer::Remainder);
        checks.record(check(built, &p.refs[k], &outcome));
        probe.mark(Layer::Validate);
        if let Ok((_, ran)) = &outcome {
            breakdown = add_breakdown(breakdown, ran.breakdown());
        }
    }
    probe.mark(Layer::Remainder);
    for (i, &l) in Layer::ALL.iter().enumerate() {
        out.layer_ns[i] += probe.nanos(l);
    }
    out.counts.add(&probe.counts);
    out.passes += 1;
    out.pass_wall_ns.push(probe.wall_nanos());
    out.breakdown = breakdown;
}

fn add_breakdown(a: CycleBreakdown, b: CycleBreakdown) -> CycleBreakdown {
    CycleBreakdown {
        pipeline: a.pipeline + b.pipeline,
        i_stall: a.i_stall + b.i_stall,
        d_stall: a.d_stall + b.d_stall,
        reconfig_stall: a.reconfig_stall + b.reconfig_stall,
        array_exec: a.array_exec + b.array_exec,
        writeback_tail: a.writeback_tail + b.writeback_tail,
    }
}

/// Records one pass's rcache operations and commit log, then replays
/// each kernel's through a fresh `ReconfCache`, checking that it
/// reproduces the run's hits, misses and evictions exactly. Returns the
/// replays' summed lookups, inserts and their timings.
pub fn driver_pass(p: &Prepared, clock: &SharedClock, checks: &mut Checks) -> driver::Replayed {
    let mut totals = driver::Replayed::default();
    if p.config.is_none() {
        return totals;
    }
    for (k, built) in p.kernels.iter().enumerate() {
        let mut recorder = driver::CacheRecorder::default();
        let loaded = load(built, p.config, System::enable_commit_log);
        let outcome = run_observed(loaded, built.max_steps, &mut recorder);
        let replayed = check(built, &p.refs[k], &outcome).and_then(|()| match &outcome {
            Ok((_, Ran::Accel(system))) => driver::reproduce(system, &recorder.ops, clock)
                .map_err(|e| format!("{}: rcache driver: {e}", built.name)),
            _ => Err(format!("{}: not an accelerated run", built.name)),
        });
        if let Ok(got) = &replayed {
            totals.lookups += got.lookups;
            totals.inserts += got.inserts;
            totals.lookup_nanos += got.lookup_nanos;
            totals.insert_nanos += got.insert_nanos;
        }
        checks.record(replayed.map(|_| ()));
    }
    totals
}

/// `HostSplit` estimates of one pass beside the wall time they claim
/// to split.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitTotals {
    /// Estimated nanoseconds per bucket, in `HostBucket::ALL` order.
    pub estimated: [u64; 4],
    /// Wall nanoseconds of the `run` calls the estimates cover.
    pub wall_nanos: u64,
}

/// One pass with `System::enable_host_split` on every run.
pub fn host_split_pass(p: &Prepared, checks: &mut Checks) -> SplitTotals {
    let mut totals = SplitTotals::default();
    if p.config.is_none() {
        return totals;
    }
    for (k, built) in p.kernels.iter().enumerate() {
        let mut system = System::new(Machine::load(&built.program), p.config.expect("checked"));
        system.enable_host_split(MonotonicClock::shared());
        let t0 = Instant::now();
        let halt = system.run(built.max_steps);
        totals.wall_nanos += t0.elapsed().as_nanos() as u64;
        if let Some(split) = system.host_split() {
            for (i, &b) in HostBucket::ALL.iter().enumerate() {
                totals.estimated[i] += split.estimated_nanos(b);
            }
        }
        let outcome = halt
            .map(|h| (h, Ran::Accel(Box::new(system))))
            .map_err(|e| e.to_string());
        checks.record(check(built, &p.refs[k], &outcome));
    }
    totals
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end untraced one.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// What one invocation measured and checked.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Output checks.
    pub checks: Checks,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

/// Timed builds per invocation; `setup_s` is their median. They are
/// spread evenly over the measured seconds, between passes, so that they
/// sample the host's speed over the same span as the passes do: one
/// build takes tens of milliseconds, and the host's speed wanders over
/// seconds.
pub const SETUP_REPS: usize = 15;

/// Table 2 as committed; `suite_accel` must reproduce its `#2/spec/64`
/// column.
const TABLE2: &str = include_str!("../../results/table2_speedup.txt");

/// The column of Table 2 that `suite_accel` reproduces.
pub const TABLE2_COLUMN: &str = "#2/spec/64";

/// Rows `(benchmark, cell)` of one column of the committed Table 2,
/// the `average` row included.
///
/// # Errors
///
/// Fails if the table has no such column.
pub fn table2_column(table: &str, column: &str) -> Result<Vec<(String, String)>, String> {
    let mut lines = table.lines().skip_while(|l| !l.starts_with("benchmark"));
    let header: Vec<&str> = lines
        .next()
        .ok_or("Table 2 has no header")?
        .split_whitespace()
        .collect();
    let col = header
        .iter()
        .position(|h| *h == column)
        .ok_or_else(|| format!("Table 2 has no column {column}"))?;
    Ok(lines
        .map(str::split_whitespace)
        .map(Iterator::collect::<Vec<_>>)
        .filter(|cells| cells.len() == header.len())
        .map(|cells| (cells[0].to_string(), cells[col].to_string()))
        .collect())
}

/// Checks every kernel's speedup, and their mean, against the committed
/// Table 2 to its two decimals.
///
/// # Errors
///
/// Names the first cell that differs.
pub fn check_table2(p: &Prepared) -> Result<(), String> {
    let rows = table2_column(TABLE2, TABLE2_COLUMN)?;
    let mut got: Vec<(String, String)> = p
        .speedups()
        .into_iter()
        .map(|(name, s)| (name.to_string(), format!("{s:.2}")))
        .collect();
    got.push(("average".into(), format!("{:.2}", p.speedup_mean())));
    for (name, cell) in &got {
        match rows.iter().find(|(n, _)| n == name) {
            Some((_, want)) if want == cell => {}
            Some((_, want)) => {
                return Err(format!(
                    "Table 2 {TABLE2_COLUMN} {name}: simulated {cell}, committed {want}"
                ))
            }
            None => return Err(format!("Table 2 has no row {name}")),
        }
    }
    Ok(())
}

/// Runs one invocation: set-up, the reference pass, then closed-loop
/// passes for `opts.seconds`.
pub fn run(opts: &Options) -> BenchResult {
    let mut checks = Checks::default();
    let mut p = prepare(opts.workload, opts.size, opts.seed, &mut checks);
    if opts.workload == Workload::SuiteAccel && opts.size == Size::Full {
        checks.record(check_table2(&p));
    }
    let deadline = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let n = p.kernels.len();
    let mut untraced = Untraced::default();
    let mut traced = Traced::default();
    let clock = MonotonicClock::shared();
    let mut pass = 0;
    loop {
        let order = pass_order(opts.seed, pass, n);
        untraced_pass(&p, &order, &mut untraced, &mut checks);
        if opts.trace {
            traced_pass(&p, &order, &clock, &mut traced, &mut checks);
        }
        pass += 1;
        let builds = p.setup_s.len();
        if builds < SETUP_REPS
            && start.elapsed() >= deadline.mul_f64(builds as f64 / SETUP_REPS as f64)
        {
            p.setup_s
                .push(time_build(opts.workload, opts.size, opts.seed));
        }
        if start.elapsed() >= deadline {
            break;
        }
    }
    let metrics = if opts.trace {
        let driver = driver_pass(&p, &clock, &mut checks);
        let split = host_split_pass(&p, &mut checks);
        layer_metrics(&p, &untraced, &traced, &driver, &split)
    } else {
        end_to_end_metrics(&p, &untraced)
    };
    BenchResult { checks, metrics }
}

fn end_to_end_metrics(p: &Prepared, u: &Untraced) -> Vec<Metric> {
    let fastest = u.fastest_ms();
    let programs = fastest.len();
    let fastest_of = format!(
        "over {programs} programs, each from its fastest chunks of {} runs",
        u.runs() / programs.max(1)
    );
    let pass_s = fastest.iter().sum::<f64>() / 1e3;
    vec![
        Metric::new(
            "setup_s",
            stats::median(&p.setup_s),
            "s",
            format!(
                "median of {} builds of {} programs",
                p.setup_s.len(),
                p.kernels.len()
            ),
        ),
        Metric::new(
            "sim_mips",
            stats::ratio(p.pass_instructions() as f64, pass_s) / 1e6,
            "MIPS",
            format!(
                "{} instructions per pass / sum {fastest_of}",
                p.pass_instructions()
            ),
        ),
        Metric::new(
            "kernel_ms.p50",
            stats::quantile(&fastest, 0.5),
            "ms",
            fastest_of.clone(),
        ),
        Metric::new(
            "kernel_ms.p90",
            stats::quantile(&fastest, 0.9),
            "ms",
            fastest_of,
        ),
        Metric::new("peak_rss_mib", stats::peak_rss_mib(), "MiB", "VmHWM"),
        Metric::new(
            "sim_cycles",
            p.pass_cycles() as f64,
            "cycles",
            format!("one pass of {} programs", p.kernels.len()),
        ),
        Metric::new(
            "speedup_mean",
            p.speedup_mean(),
            "x",
            format!(
                "mean over {} programs of scalar/engine cycles",
                p.kernels.len()
            ),
        ),
    ]
}

fn layer_metrics(
    p: &Prepared,
    u: &Untraced,
    t: &Traced,
    d: &driver::Replayed,
    s: &SplitTotals,
) -> Vec<Metric> {
    use stats::ratio;
    let passes = t.passes.max(1) as f64;
    let validations = t.passes * p.kernels.len() as u64;
    let per_pass = format!("per pass, mean of {} traced passes", t.passes);
    let c = &t.counts;
    let ns = |l: Layer| t.layer_ns[l as usize] as f64;
    let accel = p.config.is_some();
    let observed = if accel { c.retires as f64 } else { 0.0 };
    let lookups = (c.hits + c.misses) as f64;
    let invocations = c.invocations as f64;
    let wall: f64 = t.pass_wall_ns.iter().map(|&w| w as f64).sum();
    let translator = ns(Layer::Observe) + ns(Layer::Commit);
    let untraced_wall = stats::median(&u.pass_wall_s);
    let traced_wall = stats::median(
        &t.pass_wall_ns
            .iter()
            .map(|&w| w as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let est = |i: usize| s.estimated[i] as f64 / 1e9;
    let b = &t.breakdown;
    vec![
        Metric::new(
            "mips_sim.steps",
            c.retires as f64 / passes,
            "count",
            per_pass.clone(),
        ),
        Metric::new(
            "mips_sim.step_ns",
            ratio(ns(Layer::Step), c.retires as f64),
            "ns",
            "per scalar step",
        ),
        Metric::new(
            "mips_sim.self_s",
            ns(Layer::Step) / passes / 1e9,
            "s",
            per_pass.clone(),
        ),
        Metric::new(
            "mips_sim.share",
            ratio(ns(Layer::Step), wall),
            "frac",
            "of traced wall",
        ),
        Metric::new(
            "core.translator.observed",
            observed / passes,
            "count",
            per_pass.clone(),
        ),
        Metric::new(
            "core.translator.observe_ns",
            ratio(ns(Layer::Observe), observed),
            "ns",
            "per observed instruction, next rcache lookup included",
        ),
        Metric::new(
            "core.translator.commits",
            c.commits as f64 / passes,
            "count",
            per_pass.clone(),
        ),
        Metric::new(
            "core.translator.commit_ns",
            ratio(ns(Layer::Commit), c.commits as f64),
            "ns",
            "per commit",
        ),
        Metric::new(
            "core.translator.self_s",
            translator / passes / 1e9,
            "s",
            per_pass.clone(),
        ),
        Metric::new(
            "core.translator.share",
            ratio(translator, wall),
            "frac",
            "of traced wall",
        ),
        Metric::new(
            "core.rcache.lookups",
            lookups / passes,
            "count",
            per_pass.clone(),
        ),
        Metric::new(
            "core.rcache.hit_rate",
            ratio(c.hits as f64, lookups),
            "frac",
            "hits / lookups",
        ),
        Metric::new(
            "core.rcache.evictions",
            c.evictions as f64 / passes,
            "count",
            per_pass.clone(),
        ),
        Metric::new(
            "core.rcache.dead_frac",
            ratio(c.dead_evictions as f64, c.commits as f64),
            "frac",
            "dead evictions / commits",
        ),
        Metric::new(
            "core.rcache.lookup_ns",
            ratio(d.lookup_nanos as f64, d.lookups as f64),
            "ns",
            format!("standalone driver, {} lookups", d.lookups),
        ),
        Metric::new(
            "core.rcache.insert_ns",
            ratio(d.insert_nanos as f64, d.inserts as f64),
            "ns",
            format!("standalone driver, {} inserts", d.inserts),
        ),
        Metric::new(
            "core.replay.invocations",
            invocations / passes,
            "count",
            per_pass.clone(),
        ),
        Metric::new(
            "core.replay.ns_per_invocation",
            ratio(ns(Layer::Replay), invocations),
            "ns",
            "RcacheHit to ArrayInvoke, nested commits excluded",
        ),
        Metric::new(
            "core.replay.insts_per_invocation",
            ratio(c.array_executed as f64, invocations),
            "inst",
            "executed per invocation",
        ),
        Metric::new(
            "core.replay.misspec_frac",
            ratio(c.misspeculated as f64, invocations),
            "frac",
            "misspeculated / invocations",
        ),
        Metric::new(
            "core.replay.self_s",
            ns(Layer::Replay) / passes / 1e9,
            "s",
            per_pass.clone(),
        ),
        Metric::new(
            "core.replay.share",
            ratio(ns(Layer::Replay), wall),
            "frac",
            "of traced wall",
        ),
        Metric::new(
            "core.dispatch_ns",
            ratio(ns(Layer::Dispatch), invocations),
            "ns",
            "ArrayInvoke to next lookup event, per invocation",
        ),
        Metric::new(
            "core.dispatch.self_s",
            ns(Layer::Dispatch) / passes / 1e9,
            "s",
            per_pass.clone(),
        ),
        Metric::new(
            "core.dispatch.share",
            ratio(ns(Layer::Dispatch), wall),
            "frac",
            "of traced wall",
        ),
        Metric::new(
            "cgra.issued_ops",
            c.issued_ops as f64 / passes,
            "count",
            per_pass.clone(),
        ),
        Metric::new(
            "cgra.squash_frac",
            ratio(
                c.squashed_ops as f64,
                (c.issued_ops + c.squashed_ops) as f64,
            ),
            "frac",
            "squashed / configured ops",
        ),
        Metric::new(
            "cgra.fabric_busy_frac",
            ratio(c.busy_thirds as f64, c.capacity_thirds as f64),
            "frac",
            "busy / available unit-thirds",
        ),
        Metric::new("sim.pipeline", b.pipeline as f64, "cycles", "one pass"),
        Metric::new("sim.i_stall", b.i_stall as f64, "cycles", "one pass"),
        Metric::new("sim.d_stall", b.d_stall as f64, "cycles", "one pass"),
        Metric::new(
            "sim.reconfig_stall",
            b.reconfig_stall as f64,
            "cycles",
            "one pass",
        ),
        Metric::new("sim.array_exec", b.array_exec as f64, "cycles", "one pass"),
        Metric::new(
            "sim.writeback_tail",
            b.writeback_tail as f64,
            "cycles",
            "one pass",
        ),
        Metric::new(
            "workloads.build_s",
            stats::median(&p.setup_s),
            "s",
            format!("median of {} builds", p.setup_s.len()),
        ),
        Metric::new(
            "workloads.validate_ms",
            ratio(ns(Layer::Validate), validations as f64) / 1e6,
            "ms",
            format!("per run, {validations} runs"),
        ),
        Metric::new(
            "workloads.share",
            ratio(ns(Layer::Validate), wall),
            "frac",
            "of traced wall",
        ),
        Metric::new("trace.wall_s", wall / passes / 1e9, "s", per_pass.clone()),
        Metric::new(
            "trace.remainder_s",
            ns(Layer::Remainder) / passes / 1e9,
            "s",
            per_pass.clone(),
        ),
        Metric::new(
            "trace.remainder_share",
            ratio(ns(Layer::Remainder), wall),
            "frac",
            "of traced wall",
        ),
        Metric::new(
            "trace.overhead_frac",
            ratio(traced_wall, untraced_wall) - 1.0,
            "frac",
            format!("median traced / untraced pass wall - 1, {} pairs", t.passes),
        ),
        Metric::new(
            "obs.host_split.fetch_decode_s",
            est(0),
            "s",
            "one pass, HostSplit estimate",
        ),
        Metric::new(
            "obs.host_split.translate_s",
            est(1),
            "s",
            "one pass, HostSplit estimate",
        ),
        Metric::new(
            "obs.host_split.rcache_s",
            est(2),
            "s",
            "one pass, HostSplit estimate",
        ),
        Metric::new(
            "obs.host_split.array_replay_s",
            est(3),
            "s",
            "one pass, HostSplit estimate",
        ),
        Metric::new(
            "obs.host_split.wall_s",
            s.wall_nanos as f64 / 1e9,
            "s",
            "one pass, run calls only",
        ),
        Metric::new(
            "obs.host_split.overshoot_frac",
            if s.wall_nanos == 0 {
                0.0
            } else {
                ratio((0..4).map(est).sum(), s.wall_nanos as f64 / 1e9) - 1.0
            },
            "frac",
            "sum of estimates / wall - 1",
        ),
    ]
}
