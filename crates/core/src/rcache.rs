//! The reconfiguration cache: PC-indexed FIFO store of translated
//! configurations (paper §3: "this configuration is saved in a special
//! cache, and indexed by the program counter").

use dim_cgra::Configuration;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Replacement policy of the reconfiguration cache. The paper's cache is
/// FIFO ("a new entry in the cache (based on FIFO) is created"); LRU is
/// provided for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the oldest-inserted entry (the paper's policy).
    #[default]
    Fifo,
    /// Evict the least-recently *executed* entry.
    Lru,
}

/// What a capacity eviction displaced: the victim's identity (entry PC
/// plus covered length — the stable region id) and how often it was
/// reused between insertion and eviction. `uses == 0` marks a *dead*
/// eviction: the translation never repaid its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedEntry {
    /// Entry PC of the evicted configuration.
    pub pc: u32,
    /// Instructions the evicted configuration covered.
    pub len: u32,
    /// Lookup hits the entry served while resident.
    pub uses: u64,
}

/// One resident entry: the shared configuration plus the bookkeeping
/// that lives and dies with it.
#[derive(Debug, Clone)]
struct Slot {
    config: Arc<Configuration>,
    /// Lookup hits since (re-)insertion, for live-vs-dead eviction
    /// accounting.
    uses: u64,
    /// `stream_ok(K)` tag: set when the entry's region matched a
    /// streaming certificate at commit time, with the certified burst.
    /// Purely a contract surface for the streaming executor — replay
    /// behavior does not consult it.
    stream_tag: Option<u32>,
}

impl Slot {
    fn new(config: Configuration) -> Slot {
        Slot {
            config: Arc::new(config),
            uses: 0,
            stream_tag: None,
        }
    }
}

/// The configuration cache (FIFO by default, per the paper).
///
/// The slot count is the headline capacity parameter swept in Table 2
/// (16 / 64 / 256 slots). Entries are shared behind [`Arc`], so a hit
/// hands out a pointer copy rather than a deep clone of the
/// configuration.
#[derive(Debug, Clone)]
pub struct ReconfCache {
    slots: usize,
    policy: ReplacementPolicy,
    entries: HashMap<u32, Slot>,
    order: VecDeque<u32>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    evictions_live: u64,
    evictions_dead: u64,
    flushes: u64,
}

impl ReconfCache {
    /// Creates a FIFO cache with `slots` entries (0 disables caching
    /// entirely).
    pub fn new(slots: usize) -> ReconfCache {
        ReconfCache::with_policy(slots, ReplacementPolicy::Fifo)
    }

    /// Creates a cache with an explicit replacement policy.
    pub fn with_policy(slots: usize, policy: ReplacementPolicy) -> ReconfCache {
        ReconfCache {
            slots,
            policy,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            evictions_live: 0,
            evictions_dead: 0,
            flushes: 0,
        }
    }

    /// Capacity in slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Current number of stored configurations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no configurations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the configuration for `pc`, counting a hit or miss.
    /// Under LRU, a hit refreshes the entry's recency. A hit returns an
    /// owned handle, so the configuration stays alive even if the entry
    /// is evicted before the caller is done with it.
    pub fn lookup(&mut self, pc: u32) -> Option<Arc<Configuration>> {
        match self.entries.get_mut(&pc) {
            Some(slot) => {
                self.hits += 1;
                slot.uses += 1;
                if self.policy == ReplacementPolicy::Lru {
                    self.order.retain(|&p| p != pc);
                    self.order.push_back(pc);
                }
                Some(Arc::clone(&slot.config))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching the statistics.
    pub fn peek(&self, pc: u32) -> Option<&Configuration> {
        self.entries.get(&pc).map(|slot| &*slot.config)
    }

    /// Inserts a configuration (keyed by its entry PC), evicting the
    /// oldest entry when full. Re-inserting an existing PC replaces the
    /// configuration without changing its FIFO position (and restarts
    /// its reuse count and drops its stream tag — the new translation
    /// must earn its own keep). Returns the displaced entry's identity
    /// and reuse count, if the insert evicted one.
    pub fn insert(&mut self, config: Configuration) -> Option<EvictedEntry> {
        if self.slots == 0 {
            return None;
        }
        let pc = config.entry_pc;
        self.insertions += 1;
        if self.entries.insert(pc, Slot::new(config)).is_some() {
            return None;
        }
        self.order.push_back(pc);
        let mut evicted = None;
        while self.entries.len() > self.slots {
            // Skip stale order entries left by flushes.
            if let Some(old) = self.order.pop_front() {
                if let Some(victim) = self.entries.remove(&old) {
                    self.evictions += 1;
                    if victim.uses > 0 {
                        self.evictions_live += 1;
                    } else {
                        self.evictions_dead += 1;
                    }
                    evicted = Some(EvictedEntry {
                        pc: old,
                        len: victim.config.instruction_count() as u32,
                        uses: victim.uses,
                    });
                }
            }
        }
        evicted
    }

    /// Removes the configuration for `pc` (misspeculation flush).
    pub fn flush(&mut self, pc: u32) {
        if self.entries.remove(&pc).is_some() {
            self.flushes += 1;
            self.order.retain(|&p| p != pc);
        }
    }

    /// Tags the resident entry at `pc` as `stream_ok(burst)` — its
    /// region matched a streaming certificate at commit time. Returns
    /// `false` (and tags nothing) if no entry is resident at `pc` or
    /// `burst` is 0.
    pub fn tag_stream(&mut self, pc: u32, burst: u32) -> bool {
        match self.entries.get_mut(&pc) {
            Some(slot) if burst > 0 => {
                slot.stream_tag = Some(burst);
                true
            }
            _ => false,
        }
    }

    /// The certified burst K of the entry at `pc`, if it is resident
    /// and stream-tagged.
    pub fn stream_tag(&self, pc: u32) -> Option<u32> {
        self.entries.get(&pc).and_then(|slot| slot.stream_tag)
    }

    /// Number of resident stream-tagged entries.
    pub fn stream_tag_count(&self) -> usize {
        self.entries
            .values()
            .filter(|slot| slot.stream_tag.is_some())
            .count()
    }

    /// `(hits, misses)` lookup counters.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Configurations inserted over the run.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Capacity evictions over the run.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Capacity evictions whose victim had served at least one lookup
    /// hit while resident.
    pub fn evictions_live(&self) -> u64 {
        self.evictions_live
    }

    /// Capacity evictions whose victim was never reused after insertion
    /// — translations the cache threw away before they repaid anything.
    pub fn evictions_dead(&self) -> u64 {
        self.evictions_dead
    }

    /// Misspeculation flushes over the run.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Iterates over the stored configurations in FIFO (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &Configuration> + '_ {
        self.order.iter().filter_map(|pc| self.peek(*pc))
    }

    /// Restores one entry without touching any statistic — the snapshot
    /// warm-start path, which must leave the hit/miss/insertion counters
    /// of the new run untouched. Entries seed in call order, so seeding
    /// a snapshot's FIFO sequence reproduces the saved eviction order
    /// exactly. Returns `false` (and stores nothing) if the cache is
    /// already at capacity or the PC is already present; snapshot
    /// loading treats that as corruption upstream.
    pub fn seed(&mut self, config: Configuration) -> bool {
        let pc = config.entry_pc;
        if self.slots == 0 || self.entries.len() >= self.slots || self.entries.contains_key(&pc) {
            return false;
        }
        self.entries.insert(pc, Slot::new(config));
        self.order.push_back(pc);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cgra::ArrayShape;
    use dim_mips::{AluOp, Instruction, Reg};

    fn config_at(pc: u32) -> Configuration {
        let mut c = Configuration::new(pc, ArrayShape::config1());
        let add = Instruction::Alu {
            op: AluOp::Addu,
            rd: Reg::T0,
            rs: Reg::A0,
            rt: Reg::A1,
        };
        c.place(pc, add, 0, 0).unwrap();
        c
    }

    #[test]
    fn fifo_eviction_order() {
        let mut cache = ReconfCache::new(2);
        assert_eq!(cache.insert(config_at(0x100)), None);
        assert_eq!(cache.insert(config_at(0x200)), None);
        let evicted = cache.insert(config_at(0x300)).unwrap();
        assert_eq!(evicted.pc, 0x100);
        assert_eq!(evicted.len, 1);
        assert_eq!(evicted.uses, 0);
        assert!(cache.peek(0x100).is_none());
        assert!(cache.peek(0x200).is_some());
        assert!(cache.peek(0x300).is_some());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_keeps_position() {
        let mut cache = ReconfCache::new(2);
        cache.insert(config_at(0x100));
        cache.insert(config_at(0x200));
        cache.insert(config_at(0x100)); // replace, no eviction
        assert_eq!(cache.len(), 2);
        cache.insert(config_at(0x300)); // still evicts 0x100 (oldest)
        assert!(cache.peek(0x100).is_none());
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut cache = ReconfCache::new(4);
        cache.insert(config_at(0x100));
        assert!(cache.lookup(0x100).is_some());
        assert!(cache.lookup(0x999).is_none());
        assert_eq!(cache.hit_miss(), (1, 1));
    }

    #[test]
    fn flush_removes_and_counts() {
        let mut cache = ReconfCache::new(4);
        cache.insert(config_at(0x100));
        cache.flush(0x100);
        assert!(cache.peek(0x100).is_none());
        assert_eq!(cache.flushes(), 1);
        // Flushing an absent entry is a no-op.
        cache.flush(0x100);
        assert_eq!(cache.flushes(), 1);
    }

    #[test]
    fn zero_slots_disables_caching() {
        let mut cache = ReconfCache::new(0);
        cache.insert(config_at(0x100));
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_refreshes_on_hit_fifo_does_not() {
        // Insert A, B; touch A; insert C. LRU evicts B, FIFO evicts A.
        let mut lru = ReconfCache::with_policy(2, ReplacementPolicy::Lru);
        lru.insert(config_at(0x100));
        lru.insert(config_at(0x200));
        assert!(lru.lookup(0x100).is_some());
        lru.insert(config_at(0x300));
        assert!(lru.peek(0x100).is_some());
        assert!(lru.peek(0x200).is_none());

        let mut fifo = ReconfCache::new(2);
        fifo.insert(config_at(0x100));
        fifo.insert(config_at(0x200));
        assert!(fifo.lookup(0x100).is_some());
        fifo.insert(config_at(0x300));
        assert!(fifo.peek(0x100).is_none());
        assert!(fifo.peek(0x200).is_some());
    }

    /// Eviction edge cases around the capacity boundary: filling to
    /// capacity-1 and capacity must never evict; one past capacity must
    /// evict exactly the oldest entry; and this holds for slots = 1.
    #[test]
    fn eviction_boundary_at_capacity_plus_minus_one() {
        for slots in [1usize, 2, 3, 16] {
            // capacity - 1 inserts: no eviction.
            let mut cache = ReconfCache::new(slots);
            for i in 0..slots.saturating_sub(1) {
                assert_eq!(cache.insert(config_at(0x100 + 4 * i as u32)), None);
            }
            assert_eq!(cache.evictions(), 0, "slots={slots}");
            assert_eq!(cache.len(), slots - 1);

            // The capacity-th insert still fits.
            assert_eq!(
                cache.insert(config_at(0x100 + 4 * (slots as u32 - 1))),
                None
            );
            assert_eq!(cache.evictions(), 0, "slots={slots}");
            assert_eq!(cache.len(), slots);

            // capacity + 1: exactly one eviction, of the oldest PC.
            let evicted = cache.insert(config_at(0x900));
            assert_eq!(evicted.map(|e| e.pc), Some(0x100), "slots={slots}");
            assert_eq!(cache.evictions(), 1);
            assert_eq!(cache.len(), slots);
            assert!(cache.peek(0x100).is_none());
            assert!(cache.peek(0x900).is_some());
            // FIFO order after the eviction: second-oldest is next out.
            let next = cache.insert(config_at(0x904)).map(|e| e.pc);
            if slots == 1 {
                assert_eq!(next, Some(0x900));
            } else {
                assert_eq!(next, Some(0x104));
            }
        }
    }

    /// Re-inserting an existing PC when exactly full must not evict —
    /// the replacement happens in place.
    #[test]
    fn reinsert_at_capacity_does_not_evict() {
        let mut cache = ReconfCache::new(2);
        cache.insert(config_at(0x100));
        cache.insert(config_at(0x104));
        assert_eq!(cache.insert(config_at(0x100)), None);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
    }

    /// A flush at capacity opens a slot: the next insert must not evict,
    /// and the stale FIFO entry for the flushed PC must not confuse the
    /// eviction order afterwards.
    #[test]
    fn flush_at_capacity_then_insert_refills_without_eviction() {
        let mut cache = ReconfCache::new(2);
        cache.insert(config_at(0x100));
        cache.insert(config_at(0x104));
        cache.flush(0x100);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.insert(config_at(0x108)), None);
        assert_eq!(cache.evictions(), 0);
        // Now 0x104 is oldest; overflow evicts it, not the flushed PC.
        assert_eq!(cache.insert(config_at(0x10c)).map(|e| e.pc), Some(0x104));
    }

    /// `seed` (the snapshot restore path) fills to capacity and refuses
    /// anything further or duplicated, without touching statistics.
    #[test]
    fn seed_respects_capacity_and_stats() {
        let mut cache = ReconfCache::new(2);
        assert!(cache.seed(config_at(0x100)));
        assert!(cache.seed(config_at(0x104)));
        assert!(!cache.seed(config_at(0x108)), "over capacity");
        assert!(!cache.seed(config_at(0x100)), "duplicate PC");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.insertions(), 0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.hit_miss(), (0, 0));
        // Seeded order behaves as FIFO history: 0x100 evicts first.
        assert_eq!(cache.insert(config_at(0x108)).map(|e| e.pc), Some(0x100));

        let mut disabled = ReconfCache::new(0);
        assert!(!disabled.seed(config_at(0x100)), "0 slots stores nothing");
    }

    #[test]
    fn eviction_distinguishes_live_from_dead() {
        let mut cache = ReconfCache::new(2);
        cache.insert(config_at(0x100));
        cache.insert(config_at(0x200));
        assert!(cache.lookup(0x100).is_some()); // 0x100 repaid itself
        let evicted = cache.insert(config_at(0x300)).unwrap();
        assert_eq!((evicted.pc, evicted.uses), (0x100, 1));
        assert_eq!(cache.evictions_live(), 1);
        assert_eq!(cache.evictions_dead(), 0);
        let evicted = cache.insert(config_at(0x400)).unwrap();
        assert_eq!((evicted.pc, evicted.uses), (0x200, 0)); // never reused
        assert_eq!(cache.evictions_live(), 1);
        assert_eq!(cache.evictions_dead(), 1);
    }

    #[test]
    fn reinsert_restarts_reuse_count() {
        let mut cache = ReconfCache::new(2);
        cache.insert(config_at(0x100));
        assert!(cache.lookup(0x100).is_some());
        cache.insert(config_at(0x100)); // replacement translation
        cache.insert(config_at(0x200));
        // 0x100 evicts with the *new* translation's count, not the old hit.
        let evicted = cache.insert(config_at(0x300)).unwrap();
        assert_eq!((evicted.pc, evicted.uses), (0x100, 0));
        assert_eq!(cache.evictions_dead(), 1);
    }

    #[test]
    fn stream_tags_live_and_die_with_their_entry() {
        let mut cache = ReconfCache::new(2);
        assert!(!cache.tag_stream(0x100, 4), "nothing resident yet");
        cache.insert(config_at(0x100));
        assert!(!cache.tag_stream(0x100, 0), "burst 0 rejected");
        assert!(cache.tag_stream(0x100, 4));
        assert_eq!(cache.stream_tag(0x100), Some(4));
        assert_eq!(cache.stream_tag_count(), 1);

        // A replacement translation drops the tag.
        cache.insert(config_at(0x100));
        assert_eq!(cache.stream_tag(0x100), None);

        // A flush drops the tag.
        assert!(cache.tag_stream(0x100, 8));
        cache.flush(0x100);
        assert_eq!(cache.stream_tag(0x100), None);
        assert_eq!(cache.stream_tag_count(), 0);

        // A capacity eviction drops the tag.
        cache.insert(config_at(0x200));
        assert!(cache.tag_stream(0x200, 16));
        cache.insert(config_at(0x300));
        cache.insert(config_at(0x400)); // evicts 0x200
        assert!(cache.peek(0x200).is_none());
        assert_eq!(cache.stream_tag(0x200), None);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut cache = ReconfCache::new(3);
        for i in 0..50 {
            cache.insert(config_at(0x100 + 4 * i));
            assert!(cache.len() <= 3);
        }
    }
}
