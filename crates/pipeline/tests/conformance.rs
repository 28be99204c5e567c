//! Pipeline ↔ synchronous-harness conformance.
//!
//! The contract under test: every pipelined harness entry point is
//! **bit-identical** to its synchronous `hima-tasks` counterpart for the
//! same seed, across worker counts, batch sizes, channel depths and
//! length spreads — the pipeline shape trades memory and overlap, never
//! results. Four fixed specs pin the structural corners (serial,
//! oversubscribed, rendezvous, multi-threaded engines); the
//! property-driven specs below sample the whole shape space over
//! **ragged** jittered workloads on the masked path.

use hima_dnc::{DncParams, EngineBuilder};
use hima_pipeline::{
    collect_query_samples_pipelined, readout_accuracy_pipelined, relative_error_pipelined,
    run_pipeline, EpisodeJob, PipelineSpec,
};
use hima_tasks::strategies::task_choice;
use hima_tasks::tasks::TOKEN_WIDTH;
use hima_tasks::{
    collect_query_samples, readout_accuracy, relative_error, EvalConfig, TrainedReadout, TASKS,
};
use hima_tensor::Backend;
use proptest::prelude::*;

/// The ≥ 3 worker/thread configurations the acceptance criteria pin,
/// spanning serial execution, oversubscribed stages, rendezvous
/// channels, and multi-threaded engine workers.
fn pinned_specs() -> [PipelineSpec; 4] {
    [
        PipelineSpec::serial(),
        PipelineSpec { gen_workers: 2, engine_workers: 3, engine_threads: 1, batch_size: 3, length_spread: 0, channel_depth: 2 },
        PipelineSpec { gen_workers: 4, engine_workers: 2, engine_threads: 2, batch_size: 8, length_spread: 0, channel_depth: 0 },
        PipelineSpec { gen_workers: 1, engine_workers: 4, engine_threads: 1, batch_size: 2, length_spread: 0, channel_depth: 8 },
    ]
}

fn params() -> DncParams {
    DncParams::new(32, 8, 2).with_hidden(16).with_io(TOKEN_WIDTH, TOKEN_WIDTH)
}

#[test]
fn relative_error_is_bit_identical_across_specs() {
    let config = EvalConfig::small(2);
    let sync = relative_error(&config);
    for spec in pinned_specs() {
        let pipelined = relative_error_pipelined(&config, &spec);
        assert_eq!(sync, pipelined, "spec {}", spec.label());
    }
}

#[test]
fn relative_error_matches_on_quantized_and_skimmed_specs() {
    // The identity must hold for any engine variant the builder can
    // name, not just the f32 sharded default.
    use hima_dnc::allocation::SkimRate;
    use hima_dnc::Datapath;
    use hima_tensor::QFormat;

    let config = EvalConfig::saturated(4)
        .with_skim(SkimRate::new(0.4))
        .with_datapath(Datapath::Quantized(QFormat::q16_16()));
    let sync = relative_error(&config);
    let spec = PipelineSpec { gen_workers: 2, engine_workers: 2, engine_threads: 1, batch_size: 3, length_spread: 0, channel_depth: 1 };
    assert_eq!(sync, relative_error_pipelined(&config, &spec));
}

#[test]
fn query_samples_are_bit_identical_across_specs() {
    let task = &TASKS[2];
    let (episodes, seed) = (7usize, 21u64);
    for builder in [
        EngineBuilder::new(params()).seed(5),
        EngineBuilder::new(params()).sharded(4).seed(5),
        EngineBuilder::new(params()).sharded(4).backend(Backend::Blocked).seed(5),
    ] {
        let sync = collect_query_samples(&builder, &task.generate(episodes, seed).episodes);
        for spec in pinned_specs() {
            let pipelined =
                collect_query_samples_pipelined(&builder, task, episodes, seed, &spec);
            assert_eq!(sync, pipelined, "spec {}", spec.label());
        }
    }
}

#[test]
fn readout_accuracy_is_bit_identical_across_specs() {
    let task = &TASKS[0];
    let builder = EngineBuilder::new(params()).seed(11);
    let train = task.generate(10, 31).episodes;
    let (x, y) = collect_query_samples(&builder, &train);
    let readout = TrainedReadout::fit(&x, &y, 1e-2);
    let (episodes, seed) = (6usize, 32u64);
    let sync = readout_accuracy(&builder, &readout, &task.generate(episodes, seed).episodes);
    for spec in pinned_specs() {
        let pipelined =
            readout_accuracy_pipelined(&builder, &readout, task, episodes, seed, &spec);
        assert_eq!(sync, pipelined, "spec {}", spec.label());
    }
}

#[test]
fn partial_batches_flush_and_match() {
    // Episode counts that don't divide the batch size exercise the
    // batcher's end-of-input flush path.
    let task = &TASKS[4];
    let builder = EngineBuilder::new(params()).seed(3);
    let sync = collect_query_samples(&builder, &task.generate(5, 9).episodes);
    let spec = PipelineSpec::default().with_batch_size(4);
    assert_eq!(sync, collect_query_samples_pipelined(&builder, task, 5, 9, &spec));
}

#[test]
fn multi_task_jobs_keep_their_groups_apart() {
    // Different tasks have different episode lengths; one pipeline run
    // over several jobs must keep each job's lock-step groups separate
    // and deliver every job's results in index order.
    let builder = EngineBuilder::new(params()).seed(13);
    let jobs: Vec<EpisodeJob> = [0usize, 2, 6]
        .iter()
        .map(|&t| EpisodeJob::new(TASKS[t], 5, 17, vec![builder.clone()]))
        .collect();
    let spec = PipelineSpec::default().with_batch_size(3);
    let lens = run_pipeline(&spec, &jobs, |ctx| {
        assert_eq!(ctx.episode.len(), jobs[ctx.job].task.episode_len(), "job {}", ctx.job);
        ctx.features[0].len()
    });
    for (job, lens) in lens.iter().enumerate() {
        let want = jobs[job].task.episode_len();
        assert_eq!(lens, &vec![want; 5], "job {job} features cover every step");
    }
}

#[test]
fn pipeline_runs_are_deterministic() {
    let task = &TASKS[1];
    let builder = EngineBuilder::new(params()).sharded(2).seed(29);
    let spec = PipelineSpec::default().with_batch_size(2).with_workers(3, 3);
    let a = collect_query_samples_pipelined(&builder, task, 6, 41, &spec);
    let b = collect_query_samples_pipelined(&builder, task, 6, 41, &spec);
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// Property-driven specs over ragged inputs: random worker counts, batch
// sizes, channel depths and length spreads, each run against a jittered
// (ragged) task on the masked path. The pipelined result must equal the
// synchronous harness bit for bit — for ANY sampled shape.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_specs_on_ragged_inputs_match_sync_query_samples(
        task in task_choice(),
        jitter in 1usize..=5,
        gen_workers in 1usize..=4,
        engine_workers in 1usize..=4,
        engine_threads in 1usize..=2,
        batch_size in 1usize..=8,
        channel_depth in 0usize..=6,
        length_spread in 0usize..=8,
        episodes in 3usize..=8,
        seed in 0u64..1000,
    ) {
        let task = task.with_jitter(jitter);
        let spec = PipelineSpec {
            gen_workers,
            engine_workers,
            engine_threads,
            batch_size,
            length_spread,
            channel_depth,
        };
        let builder = EngineBuilder::new(params()).seed(5);
        let sync = collect_query_samples(&builder, &task.generate(episodes, seed).episodes);
        let pipelined =
            collect_query_samples_pipelined(&builder, &task, episodes, seed, &spec);
        prop_assert_eq!(&sync, &pipelined, "spec {}", spec.label());
    }

    #[test]
    fn random_specs_on_ragged_inputs_match_sync_readout_accuracy(
        gen_workers in 1usize..=3,
        engine_workers in 1usize..=3,
        batch_size in 1usize..=6,
        channel_depth in 0usize..=4,
        length_spread in 1usize..=6,
    ) {
        let task = TASKS[0].with_jitter(4);
        let builder = EngineBuilder::new(params()).sharded(2).seed(11);
        let train = task.generate(8, 31).episodes;
        let (x, y) = collect_query_samples(&builder, &train);
        let readout = TrainedReadout::fit(&x, &y, 1e-2);
        let sync =
            readout_accuracy(&builder, &readout, &task.generate(5, 32).episodes);
        let spec = PipelineSpec {
            gen_workers,
            engine_workers,
            engine_threads: 1,
            batch_size,
            length_spread,
            channel_depth,
        };
        let pipelined =
            readout_accuracy_pipelined(&builder, &readout, &task, 5, 32, &spec);
        prop_assert_eq!(sync, pipelined, "spec {}", spec.label());
    }
}
