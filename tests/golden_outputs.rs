//! **Golden output digests**: the engine's outputs checked against
//! history, not against the current code.
//!
//! Each entry is the FNV-1a digest of the output bit patterns that
//! `step_batch_masked_into` produced over 400 steps × 8 lanes under a
//! ragged lane mask, for topology (monolithic | sharded(4)) × datapath
//! (f32 | Q16.16) × skim (0 | 0.25) × backend (scalar | blocked). The
//! digests were recorded before the scalar tier's history-read kernels
//! were rewritten (branch-free linkage update, multi-row forward
//! weighting). A kernel change that claims to be bit-exact must leave
//! every digest unchanged; a change that is allowed to move results
//! must say so and re-record them.
//!
//! Three more fixtures, recorded before the sequential `Dnc`/`DncD`
//! step paths and the separate monolithic engine were folded into the
//! one tiled engine, pin what that collapse must preserve:
//! - the outputs and carried read vectors of `Dnc::new` and
//!   `DncD::new(params, 4, seed)` over 400 steps on the scalar tier;
//! - the read-merge weights `α` that `EngineBuilder::calibrate_merge`
//!   fits for a 4-tile engine;
//! - the encoded `LaneState` bytes of every lane after the ragged
//!   400-step run, for {monolithic, sharded(4)} × {f32, Q16.16} ×
//!   {scalar, blocked} — stored sessions must keep importing.
//!
//! The transcendentals (`exp`, `tanh`, `ln`) come from the platform
//! libm, whose last-ulp results are not specified across targets, so
//! the fixture is pinned to x86_64 Linux where it was recorded.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use hima::dnc::allocation::SkimRate;
use hima::dnc::{Datapath, Dnc, DncD, DncParams, EngineBuilder, EngineSpec};
use hima::tensor::{Backend, LaneMask, Matrix, QFormat};

const STEPS: usize = 400;
const LANES: usize = 8;
const SEED: u64 = 47;
/// Input/output width.
const IO: usize = 8;

/// 44 slots: the monolithic linkage is 44 × 44 and each of the four
/// shards' is 11 × 11, so the forward weighting runs both full row
/// blocks and a ragged tail.
fn params() -> DncParams {
    DncParams::new(44, 8, 2).with_hidden(16).with_io(IO, IO)
}

/// Lane `b` sits out step `t` on a fixed irregular pattern, and lane 7
/// goes idle for good after step 250, so the grid is never uniform for
/// long.
fn mask(t: usize) -> LaneMask {
    LaneMask::from_fn(LANES, |b| {
        let sits_out = (t * 7 + b * 3).is_multiple_of(11);
        let retired = b == 7 && t >= 250;
        !(sits_out || retired)
    })
}

/// Deterministic inputs in `[-1, 1)` from a 64-bit LCG.
fn inputs(state: &mut u64) -> Matrix {
    Matrix::from_fn(LANES, IO, |_, _| {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    })
}

fn fnv1a(hash: &mut u64, values: &[f32]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fnv1a_bytes(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the ragged 400-step grid for `spec`; returns the output digest
/// and the digest of every lane's encoded `LaneState` at the end.
fn run_grid(spec: EngineSpec) -> (u64, u64) {
    let mut engine = EngineBuilder::new(params()).with_spec(spec).seed(SEED).lanes(LANES).build();
    let mut out = Matrix::zeros(LANES, IO);
    let mut rng = 0x5eed_u64;
    let mut hash = FNV_OFFSET;
    for t in 0..STEPS {
        engine.step_batch_masked_into(&inputs(&mut rng), &mask(t), &mut out);
        fnv1a(&mut hash, out.as_slice());
    }
    let mut state_hash = FNV_OFFSET;
    for lane in 0..LANES {
        fnv1a_bytes(&mut state_hash, &engine.export_lane(lane).encode());
    }
    (hash, state_hash)
}

fn digest(spec: EngineSpec) -> u64 {
    run_grid(spec).0
}

/// `(label, spec)` for every cell of the grid, in the fixture's order.
fn grid() -> Vec<(String, EngineSpec)> {
    let mut specs = Vec::new();
    for topology in [EngineSpec::monolithic(), EngineSpec::sharded(4)] {
        for datapath in [Datapath::F32, Datapath::Quantized(QFormat::q16_16())] {
            for skim in [0.0, 0.25] {
                for backend in [Backend::Scalar, Backend::Blocked] {
                    let spec = topology
                        .with_datapath(datapath)
                        .with_skim(SkimRate::new(skim))
                        .with_backend(backend);
                    specs.push((format!("{} skim={skim}", spec.label()), spec));
                }
            }
        }
    }
    specs
}

/// Recorded digests. At 44 slots skimming leaves the monolithic outputs
/// unchanged, so those skim=0.25 cells repeat the skim=0 digests; the
/// sharded (11-slot) cells do move with it.
const GOLDEN: [(&str, u64); 16] = [
    ("monolithic/f32 skim=0", 0x18aba48267c05e26),
    ("monolithic/f32+blocked skim=0", 0xcb1d2e5c837d4377),
    ("monolithic/f32 skim=0.25", 0x18aba48267c05e26),
    ("monolithic/f32+blocked skim=0.25", 0xcb1d2e5c837d4377),
    ("monolithic/Q16.16 skim=0", 0x8ea4adc199fd9e58),
    ("monolithic/Q16.16+blocked skim=0", 0xfa460d1425cdcbc7),
    ("monolithic/Q16.16 skim=0.25", 0x8ea4adc199fd9e58),
    ("monolithic/Q16.16+blocked skim=0.25", 0xfa460d1425cdcbc7),
    ("sharded(4)/f32 skim=0", 0xe13b744dcba39627),
    ("sharded(4)/f32+blocked skim=0", 0xee62742701622e52),
    ("sharded(4)/f32 skim=0.25", 0xfabe97afe7b5cac7),
    ("sharded(4)/f32+blocked skim=0.25", 0x64853ae2af1850ef),
    ("sharded(4)/Q16.16 skim=0", 0x674330019c629a86),
    ("sharded(4)/Q16.16+blocked skim=0", 0xd0ec7b90302d3612),
    ("sharded(4)/Q16.16 skim=0.25", 0xbf2e1ee3daea2c2b),
    ("sharded(4)/Q16.16+blocked skim=0.25", 0xc59cd8f96ee55f53),
];

#[test]
fn outputs_match_the_recorded_digests() {
    let grid = grid();
    assert_eq!(grid.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((label, spec), (want_label, want)) in grid.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "grid order drifted from the fixture");
        let got = digest(*spec);
        if got != want {
            mismatches.push(format!("{label}: got {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "output digests changed:\n{}", mismatches.join("\n"));
}

/// Single-lane inputs: lane 0 of the grid's input stream.
fn lane0_inputs(steps: usize) -> Vec<Vec<f32>> {
    let mut rng = 0x5eed_u64;
    (0..steps).map(|_| inputs(&mut rng).row(0).to_vec()).collect()
}

/// Digest of a sequential model's outputs and carried read vector over
/// 400 steps.
fn sequential_digest(mut step: impl FnMut(&[f32]) -> (Vec<f32>, Vec<f32>)) -> u64 {
    let mut hash = FNV_OFFSET;
    for x in lane0_inputs(STEPS) {
        let (y, read) = step(&x);
        fnv1a(&mut hash, &y);
        fnv1a(&mut hash, &read);
    }
    hash
}

#[test]
fn sequential_models_match_the_recorded_digests() {
    let mut dnc = Dnc::new(params(), SEED);
    let got_dnc = sequential_digest(|x| {
        let y = dnc.step(x);
        (y, dnc.last_read().to_vec())
    });
    let mut dncd = DncD::new(params(), 4, SEED);
    let got_dncd = sequential_digest(|x| {
        let y = dncd.step(x);
        (y, dncd.last_read().to_vec())
    });
    let want = (0xfce3_6f58_afdd_5451, 0xcade_dcdf_5c3f_71b5);
    assert_eq!((got_dnc, got_dncd), want, "sequential Dnc / DncD(4) digests changed");
}

#[test]
fn calibrated_merge_weights_match_the_recorded_bits() {
    let alphas = EngineBuilder::new(params())
        .sharded(4)
        .seed(SEED)
        .calibrate_merge(&lane0_inputs(64))
        .expect("sharded builder with inputs calibrates");
    let bits: Vec<u32> = alphas.alphas().iter().map(|a| a.to_bits()).collect();
    let want = [0x3e91_0ca1, 0x3d0b_376f, 0x3bbf_8098, 0x3c7b_145f];
    assert_eq!(bits, want, "calibrated α bits changed");
}

/// Recorded digests of the encoded `LaneState` of all 8 lanes after the
/// ragged 400-step run (skim 0).
const GOLDEN_STATE: [(&str, u64); 8] = [
    ("monolithic/f32", 0x5b5f9fdc887acf36),
    ("monolithic/f32+blocked", 0xe86820351410879c),
    ("monolithic/Q16.16", 0x7bcf87a6ba486401),
    ("monolithic/Q16.16+blocked", 0x39df0b5899f58d31),
    ("sharded(4)/f32", 0xc0ffd891e6af0a23),
    ("sharded(4)/f32+blocked", 0x60806596c19fbecb),
    ("sharded(4)/Q16.16", 0xee9669a3a18a97e6),
    ("sharded(4)/Q16.16+blocked", 0xf4f5c8e27831bdad),
];

#[test]
fn lane_states_match_the_recorded_digests() {
    let mut mismatches = Vec::new();
    let cells = grid().into_iter().filter(|(_, spec)| spec.skim.fraction() == 0.0);
    for ((_, spec), (want_label, want)) in cells.zip(GOLDEN_STATE) {
        assert_eq!(spec.label(), want_label, "grid order drifted from the fixture");
        let got = run_grid(spec).1;
        if got != want {
            mismatches.push(format!("{want_label}: got {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "lane-state digests changed:\n{}", mismatches.join("\n"));
}
