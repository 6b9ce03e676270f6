//! Layer tiling of a traced run.
//!
//! [`TileProbe`] reads one clock at every event the engine already emits
//! (`System::run_probed` / `Machine::step_probed`) and charges the
//! interval since the previous reading to the layer that interval
//! belongs to. The benchmark marks its own boundaries (machine
//! construction, output validation) on the same clock, so the layer
//! totals tile the traced wall time exactly: every nanosecond between the
//! first and the last reading lands in exactly one layer.

use dim_obs::{Probe, ProbeEvent, SharedClock};

/// The layers a traced interval can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `mips-sim`: one scalar interpreter step (RcacheMiss→Retire; on a
    /// plain machine, Retire→Retire).
    Step,
    /// `core` translator observation of a retired instruction
    /// (Retire→next event). Includes the rcache lookup that follows.
    Observe,
    /// `core` translator commit: TransCommit→last RcacheInsert/Evict.
    Commit,
    /// `core` replay of a cached configuration on the array model
    /// (RcacheHit→ArrayInvoke, minus nested commits). Includes `cgra`
    /// timing and fabric accounting.
    Replay,
    /// `core` dispatch: ArrayInvoke→next lookup event, plus the first
    /// lookup of a run.
    Dispatch,
    /// `workloads`: output validation against the oracle.
    Validate,
    /// Everything else: machine construction, the tail of a run after
    /// its last event, and the benchmark loop itself.
    Remainder,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 7;

    /// All layers, in report order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Step,
        Layer::Observe,
        Layer::Commit,
        Layer::Replay,
        Layer::Dispatch,
        Layer::Validate,
        Layer::Remainder,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// What the previous event was, as far as attribution cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prev {
    Start,
    Retire,
    Miss,
    Hit,
    TransBegin,
    Commit,
    Replay,
    Invoke,
}

/// Event counts seen by a [`TileProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Instructions retired on the pipeline.
    pub retires: u64,
    /// Rcache lookups that hit.
    pub hits: u64,
    /// Rcache lookups that missed.
    pub misses: u64,
    /// Translator commits (full and partial).
    pub commits: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// Evictions of entries that never served a hit.
    pub dead_evictions: u64,
    /// Array invocations.
    pub invocations: u64,
    /// Instructions executed by array invocations.
    pub array_executed: u64,
    /// Invocations with a misspeculated branch.
    pub misspeculated: u64,
    /// Fabric operations issued.
    pub issued_ops: u64,
    /// Fabric operations squashed by misspeculation.
    pub squashed_ops: u64,
    /// Busy unit-thirds over all classes.
    pub busy_thirds: u64,
    /// Unit-thirds available over the traversed rows.
    pub capacity_thirds: u64,
}

impl Counts {
    /// Adds another set of counts into this one.
    pub fn add(&mut self, o: &Counts) {
        self.retires += o.retires;
        self.hits += o.hits;
        self.misses += o.misses;
        self.commits += o.commits;
        self.evictions += o.evictions;
        self.dead_evictions += o.dead_evictions;
        self.invocations += o.invocations;
        self.array_executed += o.array_executed;
        self.misspeculated += o.misspeculated;
        self.issued_ops += o.issued_ops;
        self.squashed_ops += o.squashed_ops;
        self.busy_thirds += o.busy_thirds;
        self.capacity_thirds += o.capacity_thirds;
    }
}

/// A probe that tiles wall time by layer.
#[derive(Debug)]
pub struct TileProbe {
    clock: SharedClock,
    origin: u64,
    last: u64,
    prev: Prev,
    in_replay: bool,
    scalar_only: bool,
    nanos: [u64; Layer::COUNT],
    /// Event counts since construction.
    pub counts: Counts,
}

impl TileProbe {
    /// A probe reading `clock`. `scalar_only` selects the plain-machine
    /// attribution, where every interval between retires is a step.
    pub fn new(clock: SharedClock, scalar_only: bool) -> TileProbe {
        let last = clock.now_nanos();
        TileProbe {
            clock,
            origin: last,
            last,
            prev: Prev::Start,
            in_replay: false,
            scalar_only,
            nanos: [0; Layer::COUNT],
            counts: Counts::default(),
        }
    }

    /// Reads the clock and charges the time since the previous reading
    /// to `layer`.
    pub fn mark(&mut self, layer: Layer) {
        let now = self.clock.now_nanos();
        self.nanos[layer.index()] += now.saturating_sub(self.last);
        self.last = now;
    }

    /// Marks the start of one simulator run: time since the last
    /// reading is remainder, and the next event opens the run.
    pub fn begin_run(&mut self) {
        self.prev = Prev::Start;
        self.in_replay = false;
        self.mark(Layer::Remainder);
    }

    /// Nanoseconds charged to `layer` so far.
    pub fn nanos(&self, layer: Layer) -> u64 {
        self.nanos[layer.index()]
    }

    /// Nanoseconds between construction and the latest reading: the
    /// traced wall time the layers tile.
    pub fn wall_nanos(&self) -> u64 {
        self.last - self.origin
    }

    /// Nanoseconds charged to all layers so far.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    fn layer_of(&self, event: &ProbeEvent) -> Layer {
        let commit_tail = matches!(
            event,
            ProbeEvent::RcacheInsert { .. }
                | ProbeEvent::RcacheEvict { .. }
                | ProbeEvent::StreamTag { .. }
        );
        match self.prev {
            Prev::Commit if commit_tail => Layer::Commit,
            Prev::Start | Prev::Retire if self.scalar_only => Layer::Step,
            Prev::Start | Prev::Invoke => Layer::Dispatch,
            Prev::Miss => Layer::Step,
            Prev::Retire | Prev::TransBegin => Layer::Observe,
            Prev::Commit if self.in_replay => Layer::Replay,
            Prev::Commit => Layer::Observe,
            Prev::Hit | Prev::Replay => Layer::Replay,
        }
    }

    fn count(&mut self, event: &ProbeEvent) {
        let c = &mut self.counts;
        match *event {
            ProbeEvent::Retire { .. } => c.retires += 1,
            ProbeEvent::RcacheHit { .. } => c.hits += 1,
            ProbeEvent::RcacheMiss { .. } => c.misses += 1,
            ProbeEvent::TransCommit { .. } => c.commits += 1,
            ProbeEvent::RcacheEvict { uses, .. } => {
                c.evictions += 1;
                if uses == 0 {
                    c.dead_evictions += 1;
                }
            }
            ProbeEvent::ArrayInvoke(inv) => {
                c.invocations += 1;
                c.array_executed += u64::from(inv.executed);
                if inv.misspeculated {
                    c.misspeculated += 1;
                }
            }
            ProbeEvent::Fabric(f) => {
                c.issued_ops += u64::from(f.issued_ops);
                c.squashed_ops += u64::from(f.squashed_ops);
                c.busy_thirds += f.busy_thirds();
                c.capacity_thirds += u64::from(f.capacity_thirds);
            }
            _ => {}
        }
    }

    fn advance(&mut self, event: &ProbeEvent) {
        self.prev = match event {
            ProbeEvent::Retire { .. } => Prev::Retire,
            ProbeEvent::RcacheMiss { .. } => Prev::Miss,
            ProbeEvent::RcacheHit { .. } => {
                self.in_replay = true;
                Prev::Hit
            }
            ProbeEvent::TransBegin { .. } => Prev::TransBegin,
            ProbeEvent::TransCommit { .. }
            | ProbeEvent::RcacheInsert { .. }
            | ProbeEvent::RcacheEvict { .. }
            | ProbeEvent::StreamTag { .. } => Prev::Commit,
            ProbeEvent::SpecMispredict { .. }
            | ProbeEvent::RcacheFlush { .. }
            | ProbeEvent::Fabric(_) => Prev::Replay,
            ProbeEvent::ArrayInvoke(_) => {
                self.in_replay = false;
                Prev::Invoke
            }
        };
    }
}

impl Probe for TileProbe {
    fn emit(&mut self, event: ProbeEvent) {
        let layer = self.layer_of(&event);
        self.mark(layer);
        self.count(&event);
        self.advance(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_obs::{ArrayInvoke, FakeClock, RetireKind};
    use std::sync::Arc;

    fn retire() -> ProbeEvent {
        ProbeEvent::Retire {
            pc: 0x40_0000,
            kind: RetireKind::Alu,
            base_cycles: 1,
            i_stall: 0,
            d_stall: 0,
            ends_block: false,
        }
    }

    fn invoke() -> ProbeEvent {
        ProbeEvent::ArrayInvoke(ArrayInvoke {
            entry_pc: 0x40_0010,
            exit_pc: 0x40_0040,
            covered: 12,
            executed: 12,
            loads: 0,
            stores: 0,
            rows: 3,
            spec_depth: 0,
            misspeculated: false,
            flushed: false,
            stall_cycles: 0,
            exec_cycles: 2,
            tail_cycles: 0,
        })
    }

    fn commit() -> ProbeEvent {
        ProbeEvent::TransCommit {
            entry_pc: 0x40_0010,
            instructions: 12,
            rows: 3,
            spec_blocks: 1,
            partial: false,
        }
    }

    fn insert() -> ProbeEvent {
        ProbeEvent::RcacheInsert {
            pc: 0x40_0010,
            len: 12,
            evicted: Some(0x40_0100),
        }
    }

    fn evict() -> ProbeEvent {
        ProbeEvent::RcacheEvict {
            pc: 0x40_0100,
            len: 6,
            uses: 0,
        }
    }

    /// Feeds `(advance_ns, event)` pairs through a probe on a fake clock
    /// and returns it with the run closed as remainder after `tail_ns`.
    fn drive(scalar_only: bool, script: &[(u64, ProbeEvent)], tail_ns: u64) -> TileProbe {
        let clock = FakeClock::shared(1_000);
        let mut probe = TileProbe::new(Arc::clone(&clock) as SharedClock, scalar_only);
        probe.begin_run();
        for (ns, event) in script {
            clock.advance(*ns);
            probe.emit(*event);
        }
        clock.advance(tail_ns);
        probe.mark(Layer::Remainder);
        probe
    }

    #[test]
    fn accelerated_intervals_land_in_their_layers() {
        let script = [
            (3, ProbeEvent::RcacheMiss { pc: 0x40_0000 }), // first lookup: dispatch
            (50, retire()),                                // step
            (7, ProbeEvent::TransBegin { pc: 0x40_0000 }), // observe
            (11, commit()),                                // observe
            (13, insert()),                                // commit
            (17, evict()),                                 // commit
            (
                5,
                ProbeEvent::RcacheHit {
                    pc: 0x40_0010,
                    len: 12,
                },
            ), // observe (+lookup)
            (19, commit()),                                // replay (partial take)
            (23, insert()),                                // commit
            (
                29,
                ProbeEvent::RcacheFlush {
                    pc: 0x40_0010,
                    len: 12,
                },
            ), // replay
            (31, invoke()),                                // replay
            (37, ProbeEvent::RcacheMiss { pc: 0x40_0040 }), // dispatch
        ];
        let p = drive(false, &script, 41);
        assert_eq!(p.nanos(Layer::Dispatch), 3 + 37);
        assert_eq!(p.nanos(Layer::Step), 50);
        assert_eq!(p.nanos(Layer::Observe), 7 + 11 + 5);
        assert_eq!(p.nanos(Layer::Commit), 13 + 17 + 23);
        assert_eq!(p.nanos(Layer::Replay), 19 + 29 + 31);
        assert_eq!(p.nanos(Layer::Remainder), 41);
        assert_eq!(p.nanos(Layer::Validate), 0);
        let wall: u64 = script.iter().map(|(ns, _)| ns).sum::<u64>() + 41;
        assert_eq!(p.total_nanos(), wall);
        assert_eq!(p.wall_nanos(), wall);
        assert_eq!(p.counts.commits, 2);
        assert_eq!(p.counts.evictions, 1);
        assert_eq!(p.counts.dead_evictions, 1);
        assert_eq!((p.counts.hits, p.counts.misses), (1, 2));
        assert_eq!(p.counts.invocations, 1);
        assert_eq!(p.counts.array_executed, 12);
    }

    #[test]
    fn partial_take_that_evicts_charges_its_tail_to_commit() {
        // A hit interrupts detection: the partial region commits, its
        // insert evicts, and replay resumes.
        let script = [
            (
                3,
                ProbeEvent::RcacheHit {
                    pc: 0x40_0010,
                    len: 12,
                },
            ), // dispatch
            (5, commit()),  // replay
            (7, insert()),  // commit
            (11, evict()),  // commit
            (13, invoke()), // replay
        ];
        let p = drive(false, &script, 17);
        assert_eq!(p.nanos(Layer::Dispatch), 3);
        assert_eq!(p.nanos(Layer::Replay), 5 + 13);
        assert_eq!(p.nanos(Layer::Commit), 7 + 11);
        assert_eq!(p.nanos(Layer::Observe), 0);
        assert_eq!(p.nanos(Layer::Remainder), 17);
        assert_eq!(p.counts.commits, 1);
        assert_eq!(p.counts.dead_evictions, 1);
        assert_eq!(p.counts.invocations, 1);
    }

    #[test]
    fn plain_machine_retires_are_all_steps() {
        let script = [(5, retire()), (6, retire()), (7, retire())];
        let p = drive(true, &script, 2);
        assert_eq!(p.nanos(Layer::Step), 18);
        assert_eq!(p.nanos(Layer::Remainder), 2);
        assert_eq!(p.total_nanos(), 20);
        assert_eq!(p.counts.retires, 3);
    }
}
