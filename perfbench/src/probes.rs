//! Per-layer probes for the traced run: each times the benchmark's own
//! calls into one layer's public functions at a workload's shapes.

use crate::offline;
use crate::serve::{self, input, params, Shape, IO, MEMORY, READS, WEIGHT_SEED, WORD};
use crate::stats::{median, time_per_call, Metrics};
use hima_dnc::{BoxedEngine, EngineBuilder, KernelCategory, LaneMask, LaneState};
use hima_serve::{Request, Response};
use hima_store::SessionStore;
use hima_tasks::masked_step_block;
use hima_tensor::{Backend, Matrix, QFormat};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Wall-clock budget of one probe, in ms.
const BUDGET_MS: u64 = 150;
/// Short names of the five Fig. 4 categories, in `KernelCategory::ALL` order.
const CATEGORIES: [&str; 5] = [
    "history_write",
    "history_read",
    "content",
    "memory_access",
    "controller",
];

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| input(seed, i as u64 / IO as u64, 0)[i % IO])
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn active_mask(lanes: usize, active: usize) -> LaneMask {
    LaneMask::from_fn(lanes, |i| i < active)
}

/// Tensor kernels: the blocked tier at offline-eval's shapes (DNC-D
/// shard of 32 rows, 32 lanes, token I/O), the scalar tier at the serve
/// grid's (monolithic 128 rows, 8 lanes with `active` stepping).
pub fn kernels(m: &mut Metrics, seed: u64, active: usize) {
    let concat = |io: usize| io + READS * WORD + serve::HIDDEN;
    let tiers = [
        (Backend::Blocked, "blocked", 32, 32, concat(14), 32),
        (Backend::Scalar, "scalar", 8, active, concat(IO), MEMORY),
    ];
    for (backend, tier, lanes, act, width, rows) in tiers {
        let lhs = filled(lanes, width, seed);
        let weights = filled(4 * serve::HIDDEN, width, seed ^ 1);
        let mask = active_mask(lanes, act);
        let mut out = Matrix::zeros(lanes, 4 * serve::HIDDEN);
        let ns = time_per_call(BUDGET_MS, || {
            backend.matmul_nt_masked_into(black_box(&lhs), &weights, &mask, &mut out);
            black_box(&out);
        });
        m.add(format!("tensor.matmul_nt_masked.{tier}_ns"), ns, "ns");
        let bytes = 4 * (act * width + weights.rows() * width + lanes * weights.rows());
        m.add(
            format!("tensor.matmul_nt_masked.{tier}_bytes"),
            bytes as f64,
            "B_computed",
        );

        let mem = filled(rows, WORD, seed ^ 2);
        let key = input(seed, 3, 0);
        let key = &key[..WORD];
        let mut out_rows = vec![0f32; rows];
        let ns = time_per_call(BUDGET_MS, || {
            backend.matvec_into(black_box(&mem), key, &mut out_rows);
            black_box(&out_rows);
        });
        m.add(format!("tensor.matvec.{tier}_ns"), ns, "ns");
        m.add(
            format!("tensor.matvec.{tier}_bytes"),
            (4 * (rows * WORD + WORD + rows)) as f64,
            "B_computed",
        );

        let weights_row: Vec<f32> = (0..rows).map(|i| 1.0 / (1 + i) as f32).collect();
        let mut out_word = vec![0f32; WORD];
        let ns = time_per_call(BUDGET_MS, || {
            backend.matvec_t_into(black_box(&mem), &weights_row, &mut out_word);
            black_box(&out_word);
        });
        m.add(format!("tensor.matvec_t.{tier}_ns"), ns, "ns");
        m.add(
            format!("tensor.matvec_t.{tier}_bytes"),
            (4 * (rows * WORD + rows + WORD)) as f64,
            "B_computed",
        );

        let ns = time_per_call(BUDGET_MS, || {
            backend.row_norms_into(black_box(&mem), &mut out_rows);
            black_box(&out_rows);
        });
        m.add(format!("tensor.row_norms.{tier}_ns"), ns, "ns");
        m.add(
            format!("tensor.row_norms.{tier}_bytes"),
            (4 * (rows * WORD + rows)) as f64,
            "B_computed",
        );

        let scores: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut xs = scores.clone();
        let ns = time_per_call(BUDGET_MS, || {
            xs.copy_from_slice(&scores);
            backend.softmax_inplace(black_box(&mut xs));
        });
        m.add(format!("tensor.softmax.{tier}_ns"), ns, "ns");
        m.add(
            format!("tensor.softmax.{tier}_bytes"),
            (4 * 2 * rows) as f64,
            "B_computed",
        );
    }
    // One monolithic lane's state: memory, links, usage, precedence,
    // write and read weightings, read vectors and the LSTM (h, c).
    let n = MEMORY;
    let floats = n * WORD + n * n + 3 * n + READS * n + READS * WORD + 2 * serve::HIDDEN;
    let state: Vec<f32> = (0..floats).map(|i| (i as f32 * 0.013).sin()).collect();
    let mut xs = state.clone();
    let q = QFormat::q16_16();
    let ns = time_per_call(BUDGET_MS, || {
        xs.copy_from_slice(&state);
        q.quantize_slice_inplace(black_box(&mut xs));
    });
    m.add("tensor.q16_quantize_ns", ns, "ns");
}

fn grid8(shape: Shape) -> BoxedEngine {
    EngineBuilder::new(params(IO))
        .with_spec(shape.spec())
        .lanes(8)
        .seed(WEIGHT_SEED)
        .build()
}

/// Times one masked 8-lane scalar step at `active` lanes; returns ns.
fn tick_ns(shape: Shape, seed: u64, active: usize) -> f64 {
    let mut engine = grid8(shape);
    let x = filled(8, IO, seed);
    let mask = active_mask(8, active);
    let mut y = Matrix::zeros(8, IO);
    time_per_call(BUDGET_MS * 2, || {
        engine.step_batch_masked_into(black_box(&x), &mask, &mut y);
        black_box(&y);
    })
}

fn shares(m: &mut Metrics, engine: &BoxedEngine, label: &str) {
    let profile = engine.profile();
    for (cat, name) in KernelCategory::ALL.iter().zip(CATEGORIES) {
        let share = profile.category_nanos(*cat) as f64 / profile.total_nanos().max(1) as f64;
        m.add(format!("dnc.share.{name}.{label}"), share, "ratio");
    }
}

/// Engine-layer probes. Returns the profiled kernel time per serve-steady
/// tick in ns (the ladder's bottom rung).
pub fn dnc(m: &mut Metrics, seed: u64, active_steady: usize, active_churn: usize) -> f64 {
    // Offline-eval's padded blocks: 32 ragged episodes.
    let episodes: Vec<_> = (0..32)
        .map(|i| offline::task().episode_at(seed, i))
        .collect();
    let steps = episodes.iter().map(|e| e.len()).max().expect("episodes");
    let blocks: Vec<_> = (0..steps)
        .map(|t| masked_step_block(&episodes, t))
        .collect();
    let active: usize = episodes.iter().map(|e| e.len()).sum();
    for (builder, label) in offline::builders()
        .into_iter()
        .zip(["dncd_f32_blocked", "dncd_q16_blocked"])
    {
        let mut engine = builder.clone().lanes(32).build();
        let mut y = Matrix::zeros(32, engine.params().output_size);
        let pass_ns = time_per_call(BUDGET_MS * 3, || {
            engine.reset();
            for (x, mask) in &blocks {
                engine.step_batch_masked_into(black_box(x), mask, &mut y);
            }
            black_box(&y);
        });
        m.add(
            format!("dnc.lane_step_ns.{label}"),
            pass_ns / active as f64,
            "ns",
        );
        if label == "dncd_f32_blocked" {
            let mut profiled = builder.lanes(32).profiling(true).build();
            for (x, mask) in &blocks {
                profiled.step_batch_masked_into(x, mask, &mut y);
            }
            shares(m, &profiled, label);
        }
    }

    m.add(
        "dnc.tick_ns.mono_scalar_grid8",
        tick_ns(Shape::Steady, seed, active_steady),
        "ns",
    );
    m.add(
        "dnc.tick_ns.dncd_scalar_grid8",
        tick_ns(Shape::Churn, seed, active_churn),
        "ns",
    );

    let mut profiled = EngineBuilder::new(params(IO))
        .with_spec(Shape::Steady.spec())
        .lanes(8)
        .seed(WEIGHT_SEED)
        .profiling(true)
        .build();
    let x = filled(8, IO, seed);
    let mask = active_mask(8, active_steady);
    let mut y = Matrix::zeros(8, IO);
    let ticks = 200;
    for _ in 0..ticks {
        profiled.step_batch_masked_into(&x, &mask, &mut y);
    }
    shares(m, &profiled, "mono_scalar_grid8");
    let kernel_ns = profiled.profile().total_nanos() as f64 / ticks as f64;

    // Lane-state splice on the churn engine, mid-stream.
    let mut engine = grid8(Shape::Churn);
    let x = filled(8, IO, seed);
    for _ in 0..16 {
        engine.step_batch_masked_into(&x, &LaneMask::full(8), &mut y);
    }
    let mut state: Option<LaneState> = None;
    let ns = time_per_call(BUDGET_MS, || state = Some(black_box(engine.export_lane(0))));
    m.add("dnc.export_lane_ns", ns, "ns");
    let state = state.expect("exported");
    let ns = time_per_call(BUDGET_MS, || engine.import_lane(1, black_box(&state)));
    m.add("dnc.import_lane_ns", ns, "ns");
    let mut bytes = Vec::new();
    let ns = time_per_call(BUDGET_MS, || {
        bytes.clear();
        state.encode_into(&mut bytes);
        black_box(&bytes);
    });
    m.add("dnc.lane_state_bytes", bytes.len() as f64, "B");
    m.add("dnc.lane_state_encode_ns", ns, "ns");
    kernel_ns
}

pub fn tasks(m: &mut Metrics, seed: u64) {
    let task = offline::task();
    let mut i = 0;
    let ns = time_per_call(BUDGET_MS, || {
        black_box(task.episode_at(seed, i));
        i += 1;
    });
    m.add("tasks.episode_gen_ns", ns, "ns");
}

/// Store probes in a scratch directory under `dir` (removed after).
pub fn store(m: &mut Metrics, seed: u64, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let store = SessionStore::open(dir).expect("open probe store");
    let key = b"perfbench-probe".to_vec();
    let row = input(seed, 0, 0);
    let mut log = store.log_writer(1, &key).expect("open probe log");
    let mut seq = 0;
    let ns = time_per_call(BUDGET_MS, || {
        seq += 1;
        log.append(seq, black_box(&row))
            .expect("append to probe log");
    });
    drop(log);
    m.add("store.log_append_ns", ns, "ns");

    let mut engine = grid8(Shape::Churn);
    let mut y = Matrix::zeros(8, IO);
    engine.step_batch_masked_into(&filled(8, IO, seed), &LaneMask::full(8), &mut y);
    let state = engine.export_lane(0).encode();
    let mut ns: Vec<f64> = (0..15)
        .map(|i| {
            let t = Instant::now();
            store
                .save_snapshot(2, &key, i, black_box(&state))
                .expect("probe snapshot");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    m.add_n("store.snapshot_ns", median(&mut ns), "ns", Some(ns.len()));
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

pub fn protocol(m: &mut Metrics, seed: u64) {
    let row = input(seed, 0, 0);
    let req = Request::Step {
        session: 1,
        input: row.clone(),
        deadline_ms: 0,
    };
    let resp = Response::Stepped { outputs: vec![row] };
    let ns = time_per_call(BUDGET_MS, || {
        let r = Request::decode(&black_box(&req).encode()).expect("decode request");
        let s = Response::decode(&black_box(&resp).encode()).expect("decode response");
        black_box((r, s));
    });
    m.add("serve.protocol.step_codec_ns", ns, "ns");
    // Each frame carries a 4-byte length prefix.
    let bytes = req.encode().len() + resp.encode().len() + 8;
    m.add("serve.net.bytes_per_step", bytes as f64, "B");
}
