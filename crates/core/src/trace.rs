//! Execution tracing: a bounded record of array invocations, for
//! debugging translated code and for the CLI's `accel --trace`.

use dim_obs::{ArrayInvoke, Probe, ProbeEvent};
use std::collections::VecDeque;
use std::fmt;

/// One array invocation, as recorded by a [`Trace`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Entry PC of the executed configuration.
    pub entry_pc: u32,
    /// Instructions the configuration covers.
    pub covered: u32,
    /// Deepest speculation segment actually executed.
    pub executed_depth: u8,
    /// Whether a speculated branch resolved against its prediction.
    pub misspeculated: bool,
    /// Cycles charged for this invocation (stall + exec + write-back).
    pub cycles: u64,
    /// PC execution continued at.
    pub exit_pc: u32,
}

impl From<ArrayInvoke> for TraceEvent {
    fn from(inv: ArrayInvoke) -> TraceEvent {
        TraceEvent {
            entry_pc: inv.entry_pc,
            covered: inv.covered,
            executed_depth: inv.spec_depth,
            misspeculated: inv.misspeculated,
            cycles: inv.total_cycles(),
            exit_pc: inv.exit_pc,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "array @ {:#010x}: {} instrs, depth {}, {} cycles -> {:#010x}{}",
            self.entry_pc,
            self.covered,
            self.executed_depth,
            self.cycles,
            self.exit_pc,
            if self.misspeculated {
                "  [misspeculated]"
            } else {
                ""
            },
        )
    }
}

/// A bounded FIFO of the most recent [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace that retains the last `capacity` events.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Records one event, dropping the oldest beyond capacity.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// `Trace` is itself a probe: it consumes the same
/// [`ProbeEvent::ArrayInvoke`] events every other sink does, so the
/// system has exactly one invocation-event path. All other event kinds
/// are ignored.
impl Probe for Trace {
    fn emit(&mut self, event: ProbeEvent) {
        if let ProbeEvent::ArrayInvoke(inv) = event {
            self.push(TraceEvent::from(inv));
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(f, "... {} earlier invocations dropped ...", self.dropped)?;
        }
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u32) -> TraceEvent {
        TraceEvent {
            entry_pc: pc,
            covered: 5,
            executed_depth: 0,
            misspeculated: false,
            cycles: 3,
            exit_pc: pc + 20,
        }
    }

    #[test]
    fn bounded_fifo_semantics() {
        let mut t = Trace::new(2);
        t.push(ev(0x100));
        t.push(ev(0x200));
        t.push(ev(0x300));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let pcs: Vec<u32> = t.events().map(|e| e.entry_pc).collect();
        assert_eq!(pcs, vec![0x200, 0x300]);
    }

    #[test]
    fn display_is_readable() {
        let mut t = Trace::new(8);
        let mut e = ev(0x400100);
        e.misspeculated = true;
        t.push(e);
        let s = t.to_string();
        assert!(s.contains("array @ 0x00400100"), "{s}");
        assert!(s.contains("[misspeculated]"), "{s}");
    }
}
