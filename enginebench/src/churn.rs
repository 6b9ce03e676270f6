//! The `region_churn` program generator.
//!
//! A generated program walks many more distinct small hot loops than the
//! reconfiguration cache has slots, each for only a few trips, and
//! repeats the walk. Every loop visit therefore translates afresh,
//! replays its configuration about once, and evicts an older one: the
//! translator, commits and rcache inserts dominate, the opposite of the
//! suites where replay hits dominate.
//!
//! The seed picks each loop's operations, registers, constants and
//! memory offsets. Body lengths are a seed-shuffled fixed multiset and
//! every body holds exactly one load and one store, so programs from
//! different seeds retire nearly the same instruction count.

/// Size knobs of a generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnShape {
    /// Distinct loops per walk.
    pub loops: usize,
    /// Trips each loop runs per visit.
    pub trips: u32,
    /// Walks over all loops.
    pub reps: u32,
    /// Programs per benchmark pass.
    pub programs: usize,
}

impl ChurnShape {
    /// The benchmark's shape: 256 loops against a 16-slot rcache.
    pub const FULL: ChurnShape = ChurnShape {
        loops: 256,
        trips: 8,
        reps: 3,
        programs: 8,
    };

    /// A seconds-scale smoke shape for tests.
    pub const TINY: ChurnShape = ChurnShape {
        loops: 24,
        trips: 8,
        reps: 2,
        programs: 2,
    };
}

/// Loop-body lengths (ALU operations, before the load and store); each
/// program uses them round-robin in a seed-shuffled order.
const BODY_LENS: [usize; 6] = [2, 3, 4, 5, 6, 7];

/// Bytes of scratch memory the loops load from and store to.
pub const SCRATCH_BYTES: usize = 1024;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const TEMPS: [&str; 8] = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"];

fn alu_op(rng: &mut Rng) -> String {
    let rd = TEMPS[rng.below(8)];
    let rs = TEMPS[rng.below(8)];
    let rt = TEMPS[rng.below(8)];
    match rng.below(8) {
        0 => format!("addu  {rd}, {rs}, {rt}"),
        1 => format!("subu  {rd}, {rs}, {rt}"),
        2 => format!("xor   {rd}, {rs}, {rt}"),
        3 => format!("or    {rd}, {rs}, {rt}"),
        4 => format!("sll   {rd}, {rs}, {}", 1 + rng.below(31)),
        5 => format!("srl   {rd}, {rs}, {}", 1 + rng.below(31)),
        6 => format!("addiu {rd}, {rs}, {}", rng.below(65536) as i32 - 32768),
        _ => format!("xori  {rd}, {rs}, {}", rng.below(65536)),
    }
}

fn word_offset(rng: &mut Rng) -> usize {
    4 * rng.below(SCRATCH_BYTES / 4)
}

/// Generates one program's assembly source from `seed`. Equal seeds give
/// byte-identical source.
pub fn generate(seed: u64, shape: &ChurnShape) -> String {
    let mut rng = Rng::new(seed);
    let mut lens = BODY_LENS;
    rng.shuffle(&mut lens);
    let mut src = format!(
        "    .data\nscratch: .space {SCRATCH_BYTES}\n    .text\nmain:\n    la    $s6, scratch\n    li    $s7, {}\n",
        shape.reps
    );
    for t in TEMPS {
        src.push_str(&format!("    li    {t}, {}\n", rng.next_u64() as u32));
    }
    src.push_str("walk:\n");
    for k in 0..shape.loops {
        src.push_str(&format!("    li    $t9, {}\nl{k}:\n", shape.trips));
        let len = lens[k % lens.len()];
        let load_at = rng.below(len + 1);
        for i in 0..=len {
            if i == load_at {
                let rd = TEMPS[rng.below(8)];
                src.push_str(&format!("    lw    {rd}, {}($s6)\n", word_offset(&mut rng)));
            }
            if i < len {
                src.push_str(&format!("    {}\n", alu_op(&mut rng)));
            }
        }
        let rs = TEMPS[rng.below(8)];
        src.push_str(&format!(
            "    sw    {rs}, {}($s6)\n    addiu $t9, $t9, -1\n    bnez  $t9, l{k}\n",
            word_offset(&mut rng)
        ));
    }
    src.push_str("    addiu $s7, $s7, -1\n    bnez  $s7, walk\n    break 0\n");
    src
}

/// An upper bound on the instructions a program of `shape` retires.
pub fn max_steps(shape: &ChurnShape) -> u64 {
    let longest = *BODY_LENS.iter().max().expect("non-empty") as u64 + 4;
    let per_walk = shape.loops as u64 * (2 + longest * u64::from(shape.trips));
    2 * (per_walk + 2) * u64::from(shape.reps) + 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_source_other_seed_other_program() {
        let a = generate(11, &ChurnShape::FULL);
        assert_eq!(a, generate(11, &ChurnShape::FULL));
        assert_ne!(a, generate(12, &ChurnShape::FULL));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
