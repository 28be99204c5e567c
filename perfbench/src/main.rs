//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-steady|serve-churn|offline-eval> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every run sets up (three times, median
//! reported), measures for `--seconds`, checks the outputs against an
//! oracle outside the timed window and prints one JSON result as its
//! last line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from a traced run plus layer probes) with `--trace 1`.
//! `METRICS.md` says what each metric is and what should move it.

mod host;
mod offline;
mod probes;
mod serve;
mod stats;
mod trace;

use serve::Shape;
use stats::{median, pct_us, Metrics};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scratch directory (relative to the working directory) for store
/// files and the span dump.
const OUT_DIR: &str = ".bench_out";
/// Set-ups per run; the median is reported.
const SETUP_TRIALS: usize = 5;

const END_TO_END: [&str; 4] = ["lane_steps_per_s", "step_p50_us", "setup_s", "peak_rss_mb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(matches!(value.as_str(), "1" | "true")),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Filesystem type of the mount holding `dir`.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            let sep = f.iter().position(|&x| x == "-")?;
            Some((PathBuf::from(f.get(4)?), f.get(sep + 1)?.to_string()))
        })
        .filter(|(mount, _)| dir.starts_with(mount))
        .max_by_key(|(mount, _)| mount.as_os_str().len())
        .map_or("unknown".into(), |(_, fs)| fs)
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        format!(
            "avx2={} fma={}",
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma")
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "avx2=n/a fma=n/a".to_string()
    }
}

/// A per-process scratch path under [`OUT_DIR`] (store directories).
fn scratch(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()))
}

/// What one run reports.
struct Outcome {
    e2e: Metrics,
    layers: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn timed_setups<T>(mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for trial in 0..SETUP_TRIALS {
        let t = Instant::now();
        let v = f(trial);
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    println!("set-up trials (s): {}", shown.join(" "));
    (median(&mut times), last.expect("at least one set-up"))
}

fn overhead(m: &mut Metrics, untraced: (f64, f64), traced: (f64, f64)) {
    let (p50, rate) = untraced;
    let (tp50, trate) = traced;
    m.add(
        "trace.overhead_pct.step_p50",
        (tp50 - p50) / p50 * 100.0,
        "%",
    );
    m.add(
        "trace.overhead_pct.lane_steps_per_s",
        (rate - trate) / rate * 100.0,
        "%",
    );
}

/// Per-layer probes shared by every workload's traced run.
/// Returns the profiled kernel time per serve-steady tick, in ns.
fn layer_probes(m: &mut Metrics, seed: u64, active_steady: usize, active_churn: usize) -> f64 {
    probes::kernels(m, seed, active_steady);
    let kernel_ns = probes::dnc(m, seed, active_steady, active_churn);
    probes::tasks(m, seed);
    probes::store(m, seed, &scratch("probe"));
    probes::protocol(m, seed);
    kernel_ns
}

fn pipeline_layer(m: &mut Metrics, spans: &trace::SpanLog) {
    let (reduce, n) = spans.median_self("pipeline.map");
    m.add_n("pipeline.reduce_ns", reduce, "ns", Some(n));
    let wall: u64 = spans
        .spans()
        .iter()
        .filter(|s| s.name == "pipeline.run")
        .map(|s| s.end - s.start)
        .sum();
    let engine = spans.total_self("pipeline.unit");
    m.add(
        "pipeline.engine_busy_share",
        engine as f64 / wall.max(1) as f64,
        "ratio",
    );
}

fn dump_spans(spans: &trace::SpanLog, workload: &str, seed: u64) {
    let path = Path::new(OUT_DIR).join(format!("spans-{workload}-{seed}.tsv"));
    match spans.write_tsv(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn run_serve(shape: Shape, name: &str, a: &Args, cpus: usize, pin: &host::Pinned) -> Outcome {
    let clients = cpus.clamp(1, 2);
    println!("clients: {clients} closed-loop, one thread and one connection each");
    let (setup_s, mut fleet) = timed_setups(|trial| {
        serve::setup(shape, a.seed, clients, &scratch(&format!("store{trial}")))
    });

    let (w, traced) = if a.trace {
        let (plain, traced) = serve::run_alternating(&mut fleet, a.seconds, Instant::now());
        (plain, Some(traced))
    } else {
        (serve::run_window(&mut fleet, a.seconds, None), None)
    };
    fleet.server.stop();

    let rates: Vec<String> = w.per_second.iter().map(u64::to_string).collect();
    println!("steps completed in each second: {}", rates.join(" "));
    let mut e2e = Metrics::default();
    e2e.add_n(
        "lane_steps_per_s",
        w.lane_steps_per_s(),
        "1/s",
        Some(rates.len()),
    );
    e2e.add_n("step_p50_us", w.step_p50_us(), "us", Some(w.step_ns.len()));
    let n = w.step_ns.len();
    if n >= 1000 {
        e2e.add_n("step_p99_us", pct_us(&w.step_ns, 0.99), "us", Some(n));
    } else {
        println!("step_p99_us: not reported, {n} samples leave fewer than 10 above p99");
    }
    if shape == Shape::Churn {
        e2e.add_n(
            "read_p50_us",
            pct_us(&w.read_ns, 0.5),
            "us",
            Some(w.read_ns.len()),
        );
    }
    e2e.add_n(
        "error_rate",
        w.failed as f64 / w.attempted.max(1) as f64,
        "ratio",
        Some(w.attempted as usize),
    );
    e2e.add_n("setup_s", setup_s, "s", Some(SETUP_TRIALS));
    e2e.add("peak_rss_mb", w.peak_rss_mb, "MB");
    if !w.errors.is_empty() {
        println!("errors: {:?}", w.errors);
    }

    let mut layers = Metrics::default();
    let (mut attempted, mut failed) = (w.attempted, w.failed);
    if let Some(t) = traced {
        attempted += t.attempted;
        failed += t.failed;
        let spans = t.spans.as_ref().expect("traced window records spans");
        w.server.add_to(&mut layers);
        let (hub_p50, hub_n, hub) = serve::hub_replay(shape, a.seed, clients, &scratch("replay"));
        layers.add_n("serve.hub.dispatch_us_p50", hub_p50, "us", Some(hub_n));
        let active = (w.server.steps_per_tick().round() as usize).clamp(1, 8);
        let (steady_active, churn_active) = match shape {
            Shape::Steady => (active, clients),
            Shape::Churn => (clients, active),
        };
        let kernel_ns = layer_probes(&mut layers, a.seed, steady_active, churn_active);
        let pipe = offline::run_window(a.seed, 0.0, 0, Some(Instant::now()));
        pipeline_layer(&mut layers, pipe.spans.as_ref().expect("traced pipeline"));
        overhead(
            &mut layers,
            (w.step_p50_us(), w.lane_steps_per_s()),
            (t.step_p50_us(), t.lane_steps_per_s()),
        );
        layers.add("serve.tcp_us", t.step_p50_us() - hub_p50, "us");
        if w.server.snapshots > 0.0 {
            let mean = w.server.snapshot_us_sum / w.server.snapshots;
            println!(
                "store.snapshot_us_mean: {mean:.1} us (n={})",
                w.server.snapshots
            );
        }
        if shape == Shape::Steady {
            ladder(
                kernel_ns,
                hub.tick_us_mean(),
                hub_p50,
                t.step_p50_us(),
                w.step_p50_us(),
                spans,
            );
        }
        dump_spans(spans, name, a.seed);
    }

    pin.release();
    let t = Instant::now();
    let verdict = serve::oracle(&fleet, shape, a.seed, pin);
    drop(fleet);
    match &verdict {
        Ok(rows) => println!(
            "oracle: {rows} rows bit-identical to solo scalar replay ({:.1}s)",
            t.elapsed().as_secs_f64()
        ),
        Err(e) => println!("oracle: MISMATCH: {e}"),
    }
    Outcome {
        e2e,
        layers,
        attempted,
        failed,
        correct: verdict.is_ok(),
    }
}

/// The serve-steady ladder of self times, bottom to top.
fn ladder(
    kernel_ns: f64,
    tick_us: f64,
    hub_us: f64,
    client_us: f64,
    untraced_us: f64,
    spans: &trace::SpanLog,
) {
    let kernel = kernel_ns / 1e3;
    let rungs = [
        ("kernel (profiled DNC kernels per tick)", kernel),
        ("engine tick minus kernels", tick_us - kernel),
        (
            "hub dispatch minus engine tick (sched, channels, swap)",
            hub_us - tick_us,
        ),
        (
            "client round trip minus hub (codec, TCP, threads)",
            client_us - hub_us,
        ),
    ];
    println!("== ladder (serve-steady, µs per Step at p50)");
    for (name, v) in rungs {
        println!("  {name:<56} {v:>10.1}");
    }
    let sum: f64 = rungs.iter().map(|r| r.1).sum();
    println!(
        "  sum {sum:.1} µs vs untraced step_p50_us {untraced_us:.1} µs: gap {:.1} µs ({:+.1}%)",
        sum - untraced_us,
        (sum - untraced_us) / untraced_us * 100.0
    );
    let (round, n) = spans.median_self("client.round");
    println!(
        "  client.round self time (client loop between requests): {:.1} µs median over {n} rounds",
        round / 1e3
    );
}

fn run_offline(a: &Args, cpus: usize, pin: &host::Pinned) -> Outcome {
    let (setup_s, ()) = timed_setups(|trial| offline::setup(a.seed, trial as u64));
    let (w, traced) = if a.trace {
        let (plain, traced) = offline::run_alternating(a.seed, a.seconds, Instant::now());
        (plain, Some(traced))
    } else {
        (offline::run_window(a.seed, a.seconds, 0, None), None)
    };
    let calls = w.calls + traced.as_ref().map_or(0, |t| t.calls);
    let episodes = (calls * offline::EPISODES) as u64;
    let mut e2e = Metrics::default();
    e2e.add_n(
        "lane_steps_per_s",
        w.lane_steps_per_s(),
        "1/s",
        Some(w.calls),
    );
    e2e.add_n(
        "step_p50_us",
        w.step_p50_us(),
        "us",
        Some(w.unit_step_us.len()),
    );
    e2e.add_n("setup_s", setup_s, "s", Some(SETUP_TRIALS));
    e2e.add("peak_rss_mb", host::peak_rss_mb(), "MB");

    let mut layers = Metrics::default();
    if let Some(t) = traced {
        let spans = t.spans.as_ref().expect("traced window records spans");
        pipeline_layer(&mut layers, spans);
        let clients = cpus.clamp(1, 2);
        let (hub_p50, hub_n, hub) =
            serve::hub_replay(Shape::Steady, a.seed, clients, &scratch("replay"));
        layers.add_n("serve.hub.dispatch_us_p50", hub_p50, "us", Some(hub_n));
        hub.add_to(&mut layers);
        layer_probes(&mut layers, a.seed, clients, clients);
        overhead(
            &mut layers,
            (w.step_p50_us(), w.lane_steps_per_s()),
            (t.step_p50_us(), t.lane_steps_per_s()),
        );
        dump_spans(spans, "offline-eval", a.seed);
    }

    pin.release();
    let verdict = offline::oracle(&w);
    match &verdict {
        Ok((rows, worst)) => println!(
            "oracle: {rows} query rows bit-identical to episode_features; \
             worst relative gap to scalar replay f32 {:.2e}, Q16.16 {:.2e}",
            worst[0], worst[1]
        ),
        Err(e) => println!("oracle: MISMATCH: {e}"),
    }
    Outcome {
        e2e,
        layers,
        attempted: episodes,
        failed: 0,
        correct: verdict.is_ok(),
    }
}

/// Per-layer metrics of the result line, in `BENCHMARK.json` order.
fn per_layer_names() -> Vec<String> {
    let mut v = Vec::new();
    for k in [
        "matmul_nt_masked",
        "matvec",
        "matvec_t",
        "row_norms",
        "softmax",
    ] {
        for tier in ["blocked", "scalar"] {
            v.push(format!("tensor.{k}.{tier}_ns"));
            v.push(format!("tensor.{k}.{tier}_bytes"));
        }
    }
    v.push("tensor.q16_quantize_ns".into());
    for e in ["dncd_f32_blocked", "dncd_q16_blocked"] {
        v.push(format!("dnc.lane_step_ns.{e}"));
    }
    for e in ["mono_scalar_grid8", "dncd_scalar_grid8"] {
        v.push(format!("dnc.tick_ns.{e}"));
    }
    for e in ["dncd_f32_blocked", "mono_scalar_grid8"] {
        for c in [
            "history_write",
            "history_read",
            "content",
            "memory_access",
            "controller",
        ] {
            v.push(format!("dnc.share.{c}.{e}"));
        }
    }
    for s in [
        "dnc.export_lane_ns",
        "dnc.import_lane_ns",
        "dnc.lane_state_bytes",
        "dnc.lane_state_encode_ns",
        "tasks.episode_gen_ns",
        "pipeline.reduce_ns",
        "pipeline.engine_busy_share",
        "store.log_append_ns",
        "store.snapshot_ns",
        "store.log_appends_per_step",
        "store.snapshots_per_kstep",
        "serve.protocol.step_codec_ns",
        "serve.net.bytes_per_step",
        "serve.hub.dispatch_us_p50",
        "serve.sched.steps_per_tick",
        "serve.sched.tick_us_mean",
        "serve.sched.parks_per_step",
        "serve.sched.splices_per_step",
        "serve.sched.lane_resets",
    ] {
        v.push(s.into());
    }
    for k in serve::ERR_KINDS {
        v.push(format!("serve.err.{k}"));
    }
    v.push("trace.overhead_pct.step_p50".into());
    v.push("trace.overhead_pct.lane_steps_per_s".into());
    v
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !["serve-steady", "serve-churn", "offline-eval"].contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    }
    std::fs::create_dir_all(OUT_DIR).expect("create the scratch directory");
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let cpus = nproc();
    host::single_malloc_arena();
    let pin = host::pin_last();
    let pinned = pin.cpu.map_or("not pinned".to_string(), |c| {
        format!("timed work pinned to cpu {c}")
    });
    println!(
        "env: nproc {cpus} ({pinned}) {} store-fs {}",
        cpu_flags(),
        fs_type(Path::new(OUT_DIR))
    );
    let out = match args.workload.as_str() {
        "serve-steady" => run_serve(Shape::Steady, "serve-steady", &args, cpus, &pin),
        "serve-churn" => run_serve(Shape::Churn, "serve-churn", &args, cpus, &pin),
        _ => run_offline(&args, cpus, &pin),
    };
    out.e2e.print(&format!("end-to-end ({})", args.workload));
    let metrics = if args.trace {
        out.layers.print(&format!("per-layer ({})", args.workload));
        let names = per_layer_names();
        out.layers
            .json(&names.iter().map(String::as_str).collect::<Vec<_>>())
    } else {
        out.e2e.json(&END_TO_END)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.correct, out.attempted, out.failed
    );
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `key` in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let section = &json[json.find(&format!("\"{key}\"")).expect("section present")..];
        let section = &section[..section.find(']').expect("section ends")];
        let mut names: Vec<String> = section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn result_line_covers_benchmark_json() {
        let mut e2e: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        e2e.sort();
        assert_eq!(listed("end_to_end"), e2e);
        let mut layers = per_layer_names();
        layers.sort();
        assert_eq!(listed("per_layer"), layers);
        assert!(layers.iter().all(|n| trace::valid_metric_name(n)));
    }
}
