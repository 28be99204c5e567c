//! The offline-eval workload: Fig. 10-style batch evaluation through
//! `hima_pipeline::run_pipeline`, and its output oracle.

use crate::serve::{params, WEIGHT_SEED};
use crate::trace::{Span, SpanLog};
use hima_dnc::{Datapath, EngineBuilder, EngineSpec};
use hima_pipeline::{run_pipeline, EpisodeJob, PipelineSpec};
use hima_tasks::tasks::TOKEN_WIDTH;
use hima_tasks::{episode_features, Episode, TaskSpec, TASKS};
use hima_tensor::{Backend, QFormat};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Episodes per `run_pipeline` call: enough for the length buckets to
/// fill 32-lane units most of the time.
pub const EPISODES: usize = 256;
/// Episodes of each warm-up call in set-up.
pub const WARM_EPISODES: usize = 64;
/// Episodes of the first call checked by the oracle.
const ORACLE_SAMPLE: usize = 16;
/// Tolerance of the blocked-vs-scalar comparison, as in
/// `tests/backend_conformance.rs`: `|a − b| ≤ TOL · (1 + max(|a|, |b|))`.
const TOL: f32 = 1e-3;
/// A pause between map calls longer than this starts a new batch unit
/// (map calls of one unit run back to back; a unit's stepping takes ms).
const UNIT_GAP_NS: u64 = 500_000;

pub fn task() -> TaskSpec {
    TASKS[2].with_jitter(8)
}

pub fn pipeline_spec() -> PipelineSpec {
    PipelineSpec {
        gen_workers: 1,
        engine_workers: 1,
        engine_threads: 1,
        batch_size: 32,
        length_spread: 8,
        channel_depth: 4,
    }
}

/// DNC-D `sharded(4)` in f32 and Q16.16, both on the blocked tier.
pub fn builders() -> Vec<EngineBuilder> {
    let base = EngineSpec::sharded(4).with_backend(Backend::Blocked);
    [
        base,
        base.with_datapath(Datapath::Quantized(QFormat::q16_16())),
    ]
    .into_iter()
    .map(|spec| {
        EngineBuilder::new(params(TOKEN_WIDTH))
            .with_spec(spec)
            .seed(WEIGHT_SEED)
    })
    .collect()
}

pub fn job_seed(seed: u64, call: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ call
}

/// `rows[builder][query]` of one episode.
type QueryRows = Vec<Vec<Vec<f32>>>;

/// One `run_pipeline` call's outcome.
struct Call {
    wall_ns: u64,
    lane_steps: u64,
    /// Per full batch unit: its service time per padded grid step, in µs.
    unit_step_us: Vec<f64>,
    results: Vec<QueryRows>,
}

/// Runs one pipeline call over `episodes` episodes; with `spans`,
/// records the call, its unit intervals and its map calls.
fn call(job_seed: u64, episodes: usize, epoch: Instant, spans: Option<&mut SpanLog>) -> Call {
    let builders = builders();
    let n_builders = builders.len();
    let job = EpisodeJob::new(task(), episodes, job_seed, builders).queries_only();
    // (start, end, episode length) of every map call, in call order.
    let marks: Mutex<Vec<(u64, u64, usize)>> = Mutex::new(Vec::with_capacity(episodes));
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let start = Instant::now();
    let out = run_pipeline(&pipeline_spec(), std::slice::from_ref(&job), |ctx| {
        let t0 = Instant::now();
        let rows: QueryRows = ctx
            .features
            .iter()
            .map(|f| {
                ctx.episode
                    .query_steps
                    .iter()
                    .map(|&q| f[q].clone())
                    .collect()
            })
            .collect();
        let len = ctx.episode.len();
        marks
            .lock()
            .expect("marks lock")
            .push((ns(t0), ns(Instant::now()), len));
        rows
    });
    let end = Instant::now();
    let marks = marks.into_inner().expect("marks lock");
    let (call_start, call_end) = (ns(start), ns(end));

    // Units: maximal runs of back-to-back map calls, as
    // (engine start, first map call, longest episode, episodes).
    let mut units: Vec<(u64, u64, usize, usize)> = Vec::new();
    let mut prev_end = call_start;
    for &(s, e, len) in &marks {
        match units.last_mut() {
            Some(u) if s.saturating_sub(prev_end) < UNIT_GAP_NS => {
                u.2 = u.2.max(len);
                u.3 += 1;
            }
            _ => units.push((prev_end, s, len, 1)),
        }
        prev_end = e;
    }
    // Only full units: the few remainder units per call run fewer lanes,
    // and their share depends on the seed's length mix.
    let unit_step_us = units
        .iter()
        .filter(|u| u.3 == pipeline_spec().batch_size)
        .map(|&(a, b, len, _)| (b - a) as f64 / 1e3 / (len * n_builders) as f64)
        .collect();
    if let Some(log) = spans {
        let root = log.push(Span {
            name: "pipeline.run",
            start: call_start,
            end: call_end,
            parent: None,
            request: job_seed,
        });
        for &(a, b, _, _) in &units {
            log.push(Span {
                name: "pipeline.unit",
                start: a,
                end: b,
                parent: Some(root),
                request: job_seed,
            });
        }
        for &(a, b, _) in &marks {
            log.push(Span {
                name: "pipeline.map",
                start: a,
                end: b,
                parent: Some(root),
                request: job_seed,
            });
        }
    }
    let lane_steps = marks.iter().map(|m| m.2 as u64).sum::<u64>() * n_builders as u64;
    Call {
        wall_ns: call_end - call_start,
        lane_steps,
        unit_step_us,
        results: out.into_iter().next().expect("one job"),
    }
}

/// Set-up: one warm-up call (engine builds, thread start-up, caches).
pub fn setup(seed: u64, trial: u64) {
    call(
        job_seed(seed, u64::MAX - trial),
        WARM_EPISODES,
        Instant::now(),
        None,
    );
}

pub struct Window {
    pub calls: usize,
    /// Active lane-steps per second of each call.
    pub call_rates: Vec<f64>,
    pub unit_step_us: Vec<f64>,
    /// Query rows of the first call, for the oracle.
    pub first: Vec<QueryRows>,
    pub first_seed: u64,
    pub spans: Option<SpanLog>,
}

impl Window {
    /// Median over calls of active lane-steps per second: a host
    /// hiccup during one call does not move it.
    pub fn lane_steps_per_s(&self) -> f64 {
        crate::stats::median(&mut self.call_rates.clone())
    }

    pub fn step_p50_us(&self) -> f64 {
        crate::stats::median(&mut self.unit_step_us.clone())
    }
}

/// Calls `run_pipeline` back to back for `seconds`; `first_call` numbers
/// the calls so every window sees fresh episodes.
pub fn run_window(seed: u64, seconds: f64, first_call: u64, traced: Option<Instant>) -> Window {
    let epoch = traced.unwrap_or_else(Instant::now);
    let mut spans = traced.map(SpanLog::new);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut w = Window {
        calls: 0,
        call_rates: Vec::new(),
        unit_step_us: Vec::new(),
        first: Vec::new(),
        first_seed: job_seed(seed, first_call),
        spans: None,
    };
    while w.calls == 0 || Instant::now() < deadline {
        let c = call(
            job_seed(seed, first_call + w.calls as u64),
            EPISODES,
            epoch,
            spans.as_mut(),
        );
        w.call_rates
            .push(c.lane_steps as f64 / (c.wall_ns as f64 / 1e9));
        w.unit_step_us.extend(c.unit_step_us);
        if w.calls == 0 {
            w.first = c.results;
        }
        w.calls += 1;
    }
    w.spans = spans;
    w
}

/// Runs `seconds` of single calls that alternate untraced and traced
/// (spans against `epoch`), so host drift hits both sides alike.
/// Returns `(untraced, traced)`.
pub fn run_alternating(seed: u64, seconds: f64, epoch: Instant) -> (Window, Window) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut sides: [Option<Window>; 2] = [None, None];
    let mut call = 0u64;
    while sides[1].is_none() || Instant::now() < deadline {
        let side = (call % 2) as usize;
        let w = run_window(seed, 0.0, call, (side == 1).then_some(epoch));
        match &mut sides[side] {
            Some(acc) => {
                acc.calls += w.calls;
                acc.call_rates.extend(w.call_rates);
                acc.unit_step_us.extend(w.unit_step_us);
                if let (Some(all), Some(more)) = (acc.spans.as_mut(), w.spans) {
                    all.merge(more);
                }
            }
            empty => *empty = Some(w),
        }
        call += 1;
    }
    let [plain, traced] = sides;
    (
        plain.expect("an untraced call"),
        traced.expect("a traced call"),
    )
}

fn query_rows(features: &[Vec<Vec<f32>>], episodes: &[Episode]) -> Vec<Vec<Vec<f32>>> {
    features
        .iter()
        .zip(episodes)
        .map(|(f, e)| e.query_steps.iter().map(|&q| f[q].clone()).collect())
        .collect()
}

/// Checks a fixed sample of the first call: query rows bit-identical to
/// synchronous `episode_features`, and within [`TOL`] of a scalar-tier
/// replay. Returns the rows checked and the worst relative gap per
/// builder.
pub fn oracle(w: &Window) -> Result<(usize, Vec<f64>), String> {
    let episodes: Vec<Episode> = (0..ORACLE_SAMPLE)
        .map(|i| task().episode_at(w.first_seed, i))
        .collect();
    let mut checked = 0;
    let mut worst = Vec::new();
    for (b, builder) in builders().iter().enumerate() {
        let sync = query_rows(&episode_features(builder, &episodes), &episodes);
        let scalar = builder.clone().backend(Backend::Scalar);
        let reference = query_rows(&episode_features(&scalar, &episodes), &episodes);
        let mut gap = 0f64;
        for (i, (want, refs)) in sync.iter().zip(&reference).enumerate() {
            let got = &w.first[i][b];
            if got.len() != want.len() {
                return Err(format!("builder {b} episode {i}: query count differs"));
            }
            for (q, ((g, s), r)) in got.iter().zip(want).zip(refs).enumerate() {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if bits(g) != bits(s) {
                    return Err(format!(
                        "builder {b} episode {i} query {q}: pipeline differs from episode_features"
                    ));
                }
                for (&x, &y) in g.iter().zip(r) {
                    let scale = 1.0 + x.abs().max(y.abs());
                    if (x - y).abs() > TOL * scale {
                        return Err(format!(
                            "builder {b} episode {i} query {q}: {x} vs scalar {y} beyond TOL"
                        ));
                    }
                    gap = gap.max(((x - y).abs() / scale) as f64);
                }
                checked += 1;
            }
        }
        worst.push(gap);
    }
    Ok((checked, worst))
}
