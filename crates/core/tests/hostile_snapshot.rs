//! `.dimrc` snapshots are read back from disk by `dim verify`,
//! `dim accel --rcache-load` and sweep warm-start, so every byte of one
//! is untrusted. These tests take real snapshots of bundled workloads,
//! mutate their payloads, frame them again with a valid checksum (so the
//! mutation reaches the decoder instead of failing the frame check) and
//! parse them. The parser must return an error or a well-formed
//! snapshot: it must never panic, and never abort on an allocation a
//! hostile length or row field asked for.

use dim_cgra::snapshot::{encode_config, Cursor};
use dim_cgra::ArrayShape;
use dim_core::frame::{decode_frame, encode_frame};
use dim_core::{SnapshotContents, System, SystemConfig, SNAPSHOT_FRAME};
use dim_mips_sim::Machine;
use dim_workloads::{suite, validate, Scale};

/// A real snapshot: the payload of `workload` run to completion at
/// `Scale::Tiny` on `config`, plus the config it loads back into.
struct Sample {
    config: SystemConfig,
    payload: Vec<u8>,
}

fn sample(workload: &str, config: SystemConfig) -> Sample {
    let spec = suite()
        .into_iter()
        .find(|s| s.name == workload)
        .expect("bundled workload");
    let built = (spec.build)(Scale::Tiny);
    let mut system = System::new(Machine::load(&built.program), config);
    system.run(built.max_steps).expect(workload);
    assert!(!system.cache().is_empty(), "{workload}: nothing cached");
    let bytes = system.save_rcache();
    let (_, payload) = decode_frame(SNAPSHOT_FRAME, &bytes).expect("own snapshot decodes");
    Sample {
        config,
        payload: payload.to_vec(),
    }
}

fn samples() -> Vec<Sample> {
    vec![
        sample("crc32", SystemConfig::new(ArrayShape::config1(), 64, true)),
        sample("sha", SystemConfig::new(ArrayShape::config2(), 16, true)),
        sample(
            "dijkstra",
            SystemConfig::new(ArrayShape::config3(), 64, false),
        ),
        sample("gsm_enc", SystemConfig::new(ArrayShape::config2(), 4, true)),
    ]
}

/// Frames `payload` again and runs every reader of `.dimrc` over it:
/// the offline parse and verifier (`dim verify`) and the warm-start
/// load into a live system (`--rcache-load`, sweep warm-start).
fn parse_all_the_way(payload: &[u8], config: SystemConfig) {
    let bytes = encode_frame(SNAPSHOT_FRAME, payload);
    if let Ok(contents) = SnapshotContents::parse(&bytes) {
        let _ = contents.verify();
        let program = dim_mips::asm::assemble("main: break 0").unwrap();
        let mut system = System::new(Machine::load(&program), config);
        let _ = system.load_rcache(&bytes);
    }
}

/// Byte offsets of each configuration's `rows` shape field and of
/// every recorded op row, found by walking the encoding of the
/// configurations the snapshot decodes to. Configurations close the
/// payload, so each one's offset follows from the encoded lengths.
fn field_offsets(payload: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let contents = SnapshotContents::parse(&encode_frame(SNAPSHOT_FRAME, payload)).unwrap();
    let encoded: Vec<Vec<u8>> = contents
        .configs
        .iter()
        .map(|c| {
            let mut out = Vec::new();
            encode_config(c, &mut out);
            out
        })
        .collect();
    let mut start = payload.len() - encoded.iter().map(Vec::len).sum::<usize>();
    let (mut shape_rows, mut op_rows) = (Vec::new(), Vec::new());
    for bytes in &encoded {
        assert_eq!(&payload[start..start + bytes.len()], bytes.as_slice());
        let mut c = Cursor::new(bytes);
        c.u32().unwrap(); // entry pc
        shape_rows.push(start + c.position());
        for _ in 0..6 {
            c.u64().unwrap();
        }
        for _ in 0..c.u32().unwrap() {
            c.u8().unwrap(); // live-in
        }
        for _ in 0..c.u32().unwrap() * 2 {
            c.u8().unwrap(); // write-back location + depth
        }
        for _ in 0..c.u32().unwrap() {
            c.u8().unwrap(); // depth
            c.u32().unwrap(); // exit pc
            if c.u8().unwrap() == 1 {
                for _ in 0..4 {
                    c.u32().unwrap(); // branch pc, word, taken and fall pcs
                }
                c.u8().unwrap(); // predicted direction
            }
            for _ in 0..c.u32().unwrap() {
                c.u32().unwrap(); // pc
                c.u32().unwrap(); // instruction word
                op_rows.push(start + c.position());
                c.u32().unwrap();
            }
        }
        assert_eq!(c.remaining(), 0);
        start += bytes.len();
    }
    (shape_rows, op_rows)
}

/// A configuration that claims a near-infinite array and records an op
/// in a row billions of rows below anything placed before it. Without
/// a bound on the recorded row, replaying the placement grows the row
/// table to that row, an allocation of tens of gigabytes.
#[test]
fn recorded_row_far_below_placed_ops_is_rejected() {
    let mut cases = 0;
    for s in samples() {
        let (shape_rows, op_rows) = field_offsets(&s.payload);
        for &shape_at in &shape_rows {
            let Some(&row_at) = op_rows.iter().find(|&&at| at > shape_at) else {
                continue;
            };
            let mut payload = s.payload.clone();
            payload[shape_at..shape_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            payload[row_at..row_at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
            let bytes = encode_frame(SNAPSHOT_FRAME, &payload);
            let err = SnapshotContents::parse(&bytes).expect_err("hostile row accepted");
            assert!(err.to_string().contains("recorded row"), "{err}");
            cases += 1;
        }
    }
    assert!(cases >= 4, "only {cases} hostile configurations built");
}

/// Small xorshift generator: the mutations are a fixed, seeded
/// sequence, so a failure reproduces exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Values that sit on the edges of the decoder's integer fields.
const INTERESTING: [u64; 10] = [
    0,
    1,
    2,
    0x7f,
    0xff,
    0xffff,
    0x7fff_ffff,
    0xffff_fffe,
    0xffff_ffff,
    u64::MAX,
];

/// Overwrites the bytes at `at` with the low bytes of `v`, clipped to
/// the payload's end.
fn overwrite(payload: &mut [u8], at: usize, v: &[u8]) {
    if let Some(tail) = payload.get_mut(at..) {
        let n = v.len().min(tail.len());
        tail[..n].copy_from_slice(&v[..n]);
    }
}

fn mutate(rng: &mut Rng, payload: &mut Vec<u8>, shape_rows: &[usize], op_rows: &[usize]) {
    for _ in 0..1 + rng.below(3) {
        let len = payload.len();
        match rng.below(7) {
            0 => payload[rng.below(len)] ^= 1 << rng.below(8),
            1 => payload[rng.below(len)] = rng.next() as u8,
            2 => {
                let v = INTERESTING[rng.below(INTERESTING.len())] as u32;
                overwrite(payload, rng.below(len), &v.to_le_bytes());
            }
            3 => {
                // Aim at the fields the placement replay trusts.
                let v = INTERESTING[rng.below(INTERESTING.len())];
                if rng.below(2) == 0 {
                    let at = shape_rows[rng.below(shape_rows.len())];
                    overwrite(payload, at, &v.to_le_bytes());
                } else {
                    let at = op_rows[rng.below(op_rows.len())];
                    let row = if rng.below(2) == 0 {
                        v as u32
                    } else {
                        rng.next() as u32 % 64
                    };
                    overwrite(payload, at, &row.to_le_bytes());
                }
            }
            4 => payload.truncate(rng.below(len + 1)),
            5 => {
                let at = rng.below(len + 1);
                let extra: Vec<u8> = (0..1 + rng.below(16)).map(|_| rng.next() as u8).collect();
                payload.splice(at..at, extra);
            }
            _ => {
                let from = rng.below(len);
                let to = rng.below(len);
                let n = rng.below(32).min(len - from).min(len - to);
                payload.copy_within(from..from + n, to);
            }
        }
        if payload.is_empty() {
            break;
        }
    }
}

/// Thousands of seeded mutations of real snapshots: bit flips, byte and
/// integer overwrites (aimed at shape and row fields half the time they
/// hit an integer), truncation, insertion and block copies.
#[test]
fn mutated_real_snapshots_parse_without_panicking() {
    let samples = samples();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut accepted = 0;
    for s in &samples {
        let (shape_rows, op_rows) = field_offsets(&s.payload);
        parse_all_the_way(&s.payload, s.config);
        for _ in 0..2_500 {
            let mut payload = s.payload.clone();
            mutate(&mut rng, &mut payload, &shape_rows, &op_rows);
            parse_all_the_way(&payload, s.config);
            accepted += usize::from(
                SnapshotContents::parse(&encode_frame(SNAPSHOT_FRAME, &payload)).is_ok(),
            );
        }
    }
    // Some mutations land in fields the decoder cannot check (a
    // predictor PC, a strike count), so a few parse: the test must
    // reach the accepting path too, not only early rejections.
    assert!(accepted > 0, "every mutation was rejected");
}

/// The bound the decoder enforces holds for everything the translator
/// commits: an op's row never exceeds the number of ops placed before
/// it in its configuration.
#[test]
fn committed_rows_never_exceed_ops_placed_before_them() {
    let mut checked = 0u64;
    for (shape, speculation) in [
        (ArrayShape::config1(), true),
        (ArrayShape::config2(), true),
        (ArrayShape::config3(), true),
        (ArrayShape::config2(), false),
    ] {
        for spec in suite() {
            let built = (spec.build)(Scale::Small);
            let mut system = System::new(
                Machine::load(&built.program),
                SystemConfig::new(shape, 64, speculation),
            );
            system.enable_commit_log();
            system.run(built.max_steps).expect(spec.name);
            validate(system.machine(), &built).expect(spec.name);
            for config in system.commit_log() {
                for (placed_before, op) in config.ops().iter().enumerate() {
                    assert!(
                        op.row as usize <= placed_before,
                        "{}: config @ {:#x}: op {placed_before} at {:#x} in row {}",
                        spec.name,
                        config.entry_pc,
                        op.pc,
                        op.row
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1_000, "only {checked} ops checked");
}
