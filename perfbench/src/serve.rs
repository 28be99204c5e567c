//! The two closed-loop serving workloads, their output oracle and the
//! in-process hub replay.

use crate::host::Pinned;
use crate::stats::{pct_us, Metrics};
use crate::trace::SpanLog;
use hima_dnc::{DncParams, EngineBuilder, EngineSpec};
use hima_serve::{
    Client, ClientError, MetricsSnapshot, RawSessionSpec, Request, Response, ServeConfig,
    ServeError, Server, SessionHub, StoreConfig,
};
use hima_tensor::Matrix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The repository's standard engine geometry.
pub const MEMORY: usize = 128;
pub const WORD: usize = 16;
pub const READS: usize = 2;
pub const HIDDEN: usize = 64;
pub const WEIGHT_SEED: u64 = 7;
/// Model I/O width of the served DNC.
pub const IO: usize = 16;

/// Rounds (one step per session each) before the timed window: caches,
/// lanes, buffers and the store's first snapshots settle.
const WARM_ROUNDS: u64 = 50;
/// Rounds between a churn client's close-oldest/open-fresh events.
const CHURN_EVERY: u64 = 50;
/// Round trips per client per second that the sample buffers hold
/// without growing (about 5× the rate measured on a 2-vCPU Xeon VM).
/// They are written through before the window opens, so the process's
/// resident set does not grow with the samples a faster server yields.
const SAMPLES_PER_CLIENT_SECOND: usize = 16_000;
/// Requests each client replays through the in-process hub.
const REPLAY_REQUESTS: usize = 1500;

pub fn params(io: usize) -> DncParams {
    DncParams::new(MEMORY, WORD, READS)
        .with_hidden(HIDDEN)
        .with_io(io, io)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 4 monolithic sessions per client, all resident, Step only.
    Steady,
    /// 12 DNC-D sessions per client (3× the lanes), store-backed, with
    /// reads and session turnover.
    Churn,
}

impl Shape {
    pub fn spec(self) -> EngineSpec {
        match self {
            Shape::Steady => EngineSpec::monolithic(),
            Shape::Churn => EngineSpec::sharded(4),
        }
    }

    fn sessions_per_client(self) -> usize {
        match self {
            Shape::Steady => 4,
            Shape::Churn => 12,
        }
    }

    fn raw(self) -> RawSessionSpec {
        RawSessionSpec::from_parts(&params(IO), &self.spec(), WEIGHT_SEED)
    }
}

/// Deterministic input row `step` of the session with key `key`.
pub fn input(seed: u64, key: u64, step: u64) -> Vec<f32> {
    let mut s =
        seed ^ key.wrapping_mul(0xA24B_AED4_963E_E407) ^ step.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    (0..IO)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// A request/reply path into the server: TCP through [`Client`] or
/// in-process through [`SessionHub::dispatch`].
pub trait Transport {
    fn call(&mut self, req: Request) -> Result<Response, CallError>;
}

#[derive(Debug)]
pub enum CallError {
    Typed(ServeError),
    Transport(String),
}

impl Transport for Client {
    fn call(&mut self, req: Request) -> Result<Response, CallError> {
        Client::call(self, &req).map_err(|e| match e {
            ClientError::Server(e) => CallError::Typed(e),
            other => CallError::Transport(other.to_string()),
        })
    }
}

pub struct HubCaller<'a>(pub &'a SessionHub);

impl Transport for HubCaller<'_> {
    fn call(&mut self, req: Request) -> Result<Response, CallError> {
        match self.0.dispatch(req) {
            Response::Error(e) => Err(CallError::Typed(e)),
            resp => Ok(resp),
        }
    }
}

/// One session's acknowledged history, folded into a digest so the
/// benchmark's memory does not grow with the steps it serves.
struct Slot {
    id: u64,
    key: u64,
    /// Steps acknowledged.
    steps: usize,
    /// Steps applied at each acknowledged `ReadRows`.
    reads_at: Vec<usize>,
    /// [`fold`] of every output and read row, in request order.
    digest: u64,
}

/// FNV-1a over the rows' bit patterns.
fn fold(mut h: u64, row: &[f32]) -> u64 {
    for b in row.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FOLD_START: u64 = 0xCBF2_9CE4_8422_2325;

/// One closed-loop client: its sessions, samples and counts.
pub struct ClosedLoop {
    shape: Shape,
    seed: u64,
    client: u64,
    slots: Vec<Slot>,
    retired: Vec<Slot>,
    next_ordinal: u64,
    rounds: u64,
    next_request: u64,
    record: bool,
    pub step_ns: Vec<u32>,
    /// Start of the timed window, and recorded steps completed in each
    /// of its seconds.
    window_start: Instant,
    pub per_second: Vec<u64>,
    pub read_ns: Vec<u32>,
    pub steps_acked: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<&'static str, u64>,
    pub spans: Option<SpanLog>,
}

impl ClosedLoop {
    fn new(shape: Shape, seed: u64, client: u64) -> Self {
        Self {
            shape,
            seed,
            client,
            slots: Vec::new(),
            retired: Vec::new(),
            next_ordinal: 0,
            rounds: 0,
            next_request: 1,
            record: false,
            step_ns: Vec::new(),
            window_start: Instant::now(),
            per_second: Vec::new(),
            read_ns: Vec::new(),
            steps_acked: 0,
            attempted: 0,
            failed: 0,
            errors: BTreeMap::new(),
            spans: None,
        }
    }

    fn fail(&mut self, e: CallError) {
        self.failed += 1;
        let kind = match e {
            CallError::Typed(e) => ERR_KINDS[e.subtag() as usize - 1],
            CallError::Transport(msg) => {
                eprintln!("perfbench: transport error: {msg}");
                "transport"
            }
        };
        *self.errors.entry(kind).or_default() += 1;
    }

    fn span_begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let request = self.next_request;
        self.spans.as_mut().map(|s| s.begin(name, parent, request))
    }

    fn span_end(&mut self, id: Option<usize>) {
        if let (Some(s), Some(id)) = (self.spans.as_mut(), id) {
            s.end(id);
        }
    }

    fn open(&mut self, t: &mut dyn Transport) -> Result<(), CallError> {
        let key = (self.client << 32) | self.next_ordinal;
        self.next_ordinal += 1;
        match t.call(Request::Open {
            spec: self.shape.raw(),
        })? {
            Response::Opened { session } => {
                self.slots.push(Slot {
                    id: session,
                    key,
                    steps: 0,
                    reads_at: Vec::new(),
                    digest: FOLD_START,
                });
                Ok(())
            }
            other => Err(CallError::Transport(format!("unexpected reply {other:?}"))),
        }
    }

    fn open_all(&mut self, t: &mut dyn Transport) {
        for _ in 0..self.shape.sessions_per_client() {
            self.open(t).expect("opening a benchmark session");
        }
    }

    fn step(&mut self, t: &mut dyn Transport, i: usize, parent: Option<usize>) {
        let slot = &self.slots[i];
        let x = input(self.seed, slot.key, slot.steps as u64);
        let req = Request::Step {
            session: slot.id,
            input: x,
            deadline_ms: 0,
        };
        let span = self.span_begin("client.step", parent);
        let start = Instant::now();
        let reply = t.call(req);
        let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.span_end(span);
        self.attempted += 1;
        self.next_request += 1;
        match reply {
            Ok(Response::Stepped { outputs }) if outputs.len() == 1 => {
                let slot = &mut self.slots[i];
                slot.digest = fold(slot.digest, &outputs[0]);
                slot.steps += 1;
                self.steps_acked += 1;
                if self.record {
                    self.step_ns.push(ns);
                    let second = self.window_start.elapsed().as_secs() as usize;
                    if self.per_second.len() <= second {
                        self.per_second.resize(second + 1, 0);
                    }
                    self.per_second[second] += 1;
                }
            }
            Ok(other) => self.fail(CallError::Transport(format!("unexpected reply {other:?}"))),
            Err(e) => {
                self.fail(e);
                self.replace(t, i);
            }
        }
    }

    fn read(&mut self, t: &mut dyn Transport, i: usize, parent: Option<usize>) {
        let req = Request::ReadRows {
            session: self.slots[i].id,
        };
        let span = self.span_begin("client.read", parent);
        let start = Instant::now();
        let reply = t.call(req);
        let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.span_end(span);
        self.attempted += 1;
        self.next_request += 1;
        match reply {
            Ok(Response::Rows { read }) => {
                let slot = &mut self.slots[i];
                slot.digest = fold(slot.digest, &read);
                slot.reads_at.push(slot.steps);
                if self.record {
                    self.read_ns.push(ns);
                }
            }
            Ok(other) => self.fail(CallError::Transport(format!("unexpected reply {other:?}"))),
            Err(e) => {
                self.fail(e);
                self.replace(t, i);
            }
        }
    }

    /// Retires session `i` (its acknowledged history stays checkable)
    /// and opens a fresh one at the end of the rotation.
    fn replace(&mut self, t: &mut dyn Transport, i: usize) {
        let old = self.slots.remove(i);
        let id = old.id;
        self.retired.push(old);
        self.attempted += 2;
        if let Err(e) = t.call(Request::Close { session: id }) {
            self.fail(e);
        }
        if let Err(e) = self.open(t) {
            self.fail(e);
        }
    }

    fn round(&mut self, t: &mut dyn Transport) {
        let span = self.span_begin("client.round", None);
        for i in 0..self.slots.len() {
            self.step(t, i.min(self.slots.len() - 1), span);
            if self.shape == Shape::Churn && i % 4 == 0 {
                self.read(t, i.min(self.slots.len() - 1), span);
            }
        }
        self.rounds += 1;
        if self.shape == Shape::Churn && self.rounds.is_multiple_of(CHURN_EVERY) {
            let life = self.span_begin("client.lifecycle", span);
            self.replace(t, 0);
            self.span_end(life);
        }
        self.span_end(span);
    }

    fn warm_up(&mut self, t: &mut dyn Transport) {
        for _ in 0..WARM_ROUNDS {
            self.round(t);
        }
        assert_eq!(self.failed, 0, "warm-up requests failed: {:?}", self.errors);
    }

    /// Clears the window's samples and counts, with room for `seconds`
    /// of round trips already resident.
    fn reset_counts(&mut self, seconds: f64) {
        let cap = (seconds.ceil() as usize + 1) * SAMPLES_PER_CLIENT_SECOND;
        for (v, cap) in [(&mut self.step_ns, cap), (&mut self.read_ns, cap / 4)] {
            if v.capacity() < cap {
                v.resize(cap, u32::MAX);
            }
            v.clear();
        }
        self.per_second.clear();
        self.steps_acked = 0;
        self.attempted = 0;
        self.failed = 0;
        self.errors.clear();
    }
}

/// A bound server with warmed-up clients.
pub struct Fleet {
    pub server: Server,
    pub clients: Vec<(Client, ClosedLoop)>,
    store_dir: Option<PathBuf>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.server.stop();
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn store_config(dir: &Path) -> StoreConfig {
    let _ = std::fs::remove_dir_all(dir);
    StoreConfig::new(dir)
}

/// Binds a server, opens every client's sessions and warms them up.
pub fn setup(shape: Shape, seed: u64, clients: usize, store_dir: &Path) -> Fleet {
    let cfg = ServeConfig {
        idle_timeout: None,
        ..ServeConfig::default()
    };
    let (server, store_dir) = match shape {
        Shape::Steady => (
            Server::bind("127.0.0.1:0", cfg).expect("bind loopback"),
            None,
        ),
        Shape::Churn => (
            Server::bind_with_store("127.0.0.1:0", cfg, Some(store_config(store_dir)))
                .expect("bind loopback with store"),
            Some(store_dir.to_path_buf()),
        ),
    };
    let addr = server.addr();
    let clients = (0..clients)
        .map(|c| {
            let mut client = Client::connect(addr).expect("connect to loopback server");
            let mut d = ClosedLoop::new(shape, seed, c as u64);
            d.open_all(&mut client);
            (client, d)
        })
        .collect::<Vec<_>>();
    let mut fleet = Fleet {
        server,
        clients,
        store_dir,
    };
    std::thread::scope(|s| {
        for (client, d) in fleet.clients.iter_mut() {
            s.spawn(move || d.warm_up(client));
        }
    });
    fleet
}

/// Server counters over one window (differences of two snapshots).
#[derive(Debug, Default, Clone)]
pub struct ServerDelta {
    pub ticks: f64,
    pub steps: f64,
    pub parks: f64,
    pub splices: f64,
    pub lane_resets: f64,
    pub tick_ns_sum: f64,
    pub tick_count: f64,
    pub log_appends: f64,
    pub snapshots: f64,
    pub snapshot_us_sum: f64,
    /// Error replies per kind, indexed like [`ERR_KINDS`].
    pub errors: [f64; ServeError::KINDS],
}

/// `ServeError` kinds in wire-subtag order, as the server names them.
pub const ERR_KINDS: [&str; ServeError::KINDS] = [
    "bad_spec",
    "unknown_session",
    "session_busy",
    "bad_input",
    "protocol",
    "shutting_down",
    "store",
    "overloaded",
    "deadline_exceeded",
    "group_failed",
];

impl ServerDelta {
    pub fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Self {
        let c = |n: &str| (b.counter(n).unwrap_or(0) - a.counter(n).unwrap_or(0)) as f64;
        let h = |n: &str| {
            let (xc, xs) = a.histogram(n).map_or((0, 0), |s| (s.count, s.sum));
            let (yc, ys) = b.histogram(n).map_or((0, 0), |s| (s.count, s.sum));
            ((yc - xc) as f64, (ys - xs) as f64)
        };
        let (tick_count, tick_ns_sum) = h("serve.scheduler.tick_ns");
        let (snapshots, snapshot_us_sum) = h("store.snapshot_us");
        Self {
            ticks: c("serve.scheduler.ticks"),
            steps: c("serve.scheduler.steps"),
            parks: c("serve.scheduler.parks"),
            splices: c("serve.scheduler.splices"),
            lane_resets: c("serve.scheduler.lane_resets"),
            tick_ns_sum,
            tick_count,
            log_appends: c("store.log_appends"),
            snapshots,
            snapshot_us_sum,
            errors: ERR_KINDS.map(|k| c(&format!("err.{k}"))),
        }
    }

    fn add(&mut self, o: &ServerDelta) {
        self.ticks += o.ticks;
        self.steps += o.steps;
        self.parks += o.parks;
        self.splices += o.splices;
        self.lane_resets += o.lane_resets;
        self.tick_ns_sum += o.tick_ns_sum;
        self.tick_count += o.tick_count;
        self.log_appends += o.log_appends;
        self.snapshots += o.snapshots;
        self.snapshot_us_sum += o.snapshot_us_sum;
        for (n, m) in self.errors.iter_mut().zip(o.errors) {
            *n += m;
        }
    }

    pub fn steps_per_tick(&self) -> f64 {
        self.steps / self.ticks.max(1.0)
    }

    pub fn tick_us_mean(&self) -> f64 {
        self.tick_ns_sum / self.tick_count.max(1.0) / 1e3
    }

    /// Per-layer counts read from the server's own telemetry: counts and
    /// sums only, never its log₂ bucket quantiles.
    pub fn add_to(&self, m: &mut Metrics) {
        let per_step = |x: f64| x / self.steps.max(1.0);
        m.add_n(
            "serve.sched.steps_per_tick",
            self.steps_per_tick(),
            "count",
            Some(self.ticks as usize),
        );
        m.add_n(
            "serve.sched.tick_us_mean",
            self.tick_us_mean(),
            "us",
            Some(self.tick_count as usize),
        );
        m.add("serve.sched.parks_per_step", per_step(self.parks), "count");
        m.add(
            "serve.sched.splices_per_step",
            per_step(self.splices),
            "count",
        );
        m.add("serve.sched.lane_resets", self.lane_resets, "count");
        m.add(
            "store.log_appends_per_step",
            per_step(self.log_appends),
            "count",
        );
        m.add(
            "store.snapshots_per_kstep",
            per_step(self.snapshots) * 1e3,
            "count",
        );
        for (kind, n) in ERR_KINDS.iter().zip(self.errors) {
            m.add(format!("serve.err.{kind}"), n, "count");
        }
    }
}

/// Result of one timed window.
pub struct Window {
    pub step_ns: Vec<u64>,
    /// Steps completed in each whole second of the window.
    pub per_second: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub steps_acked: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<&'static str, u64>,
    pub server: ServerDelta,
    pub spans: Option<SpanLog>,
    /// The process's peak resident set when the window closed, in MB:
    /// read before samples are merged, so it covers set-up, serving and
    /// the fixed sample buffers only.
    pub peak_rss_mb: f64,
}

impl Window {
    /// Median over the window's whole seconds of steps completed: a host
    /// hiccup during one second does not move it.
    pub fn lane_steps_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self.per_second.iter().map(|&n| n as f64).collect();
        crate::stats::median(&mut rates)
    }

    pub fn step_p50_us(&self) -> f64 {
        pct_us(&self.step_ns, 0.5)
    }

    /// Appends a later window's samples and counts.
    fn absorb(&mut self, o: Window) {
        self.step_ns.extend(o.step_ns);
        self.step_ns.sort_unstable();
        self.per_second.extend(o.per_second);
        self.read_ns.extend(o.read_ns);
        self.read_ns.sort_unstable();
        self.steps_acked += o.steps_acked;
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (k, n) in o.errors {
            *self.errors.entry(k).or_default() += n;
        }
        self.server.add(&o.server);
        self.peak_rss_mb = self.peak_rss_mb.max(o.peak_rss_mb);
        match (&mut self.spans, o.spans) {
            (Some(all), Some(more)) => all.merge(more),
            (all @ None, more) => *all = more,
            _ => {}
        }
    }
}

/// Runs `seconds` as one-second windows that alternate untraced and
/// traced (spans against `epoch`), so host drift hits both sides alike.
/// Returns `(untraced, traced)`.
pub fn run_alternating(fleet: &mut Fleet, seconds: f64, epoch: Instant) -> (Window, Window) {
    let n = (seconds.round() as usize).max(2);
    let mut sides: [Option<Window>; 2] = [None, None];
    for i in 0..n {
        let w = run_window(fleet, seconds / n as f64, (i % 2 == 1).then_some(epoch));
        match &mut sides[i % 2] {
            Some(acc) => acc.absorb(w),
            side => *side = Some(w),
        }
    }
    let [plain, traced] = sides;
    (
        plain.expect("an untraced window"),
        traced.expect("a traced window"),
    )
}

/// Runs every client closed-loop for `seconds`, optionally tracing.
pub fn run_window(fleet: &mut Fleet, seconds: f64, traced: Option<Instant>) -> Window {
    let start = Instant::now();
    for (_, d) in fleet.clients.iter_mut() {
        d.reset_counts(seconds);
        d.record = true;
        d.window_start = start;
        d.spans = traced.map(SpanLog::new);
    }
    let before = fleet.server.hub().metrics().snapshot();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for (client, d) in fleet.clients.iter_mut() {
            s.spawn(move || {
                while Instant::now() < deadline {
                    d.round(client);
                }
            });
        }
    });
    let after = fleet.server.hub().metrics().snapshot();
    let peak_rss_mb = crate::host::peak_rss_mb();
    let whole = (seconds.floor() as usize).max(1);
    let mut w = Window {
        step_ns: Vec::new(),
        per_second: vec![0; whole],
        read_ns: Vec::new(),
        steps_acked: 0,
        attempted: 0,
        failed: 0,
        errors: BTreeMap::new(),
        server: ServerDelta::between(&before, &after),
        spans: traced.map(SpanLog::new),
        peak_rss_mb,
    };
    for (_, d) in fleet.clients.iter_mut() {
        d.record = false;
        w.step_ns.extend(d.step_ns.iter().map(|&ns| u64::from(ns)));
        for (total, n) in w.per_second.iter_mut().zip(&d.per_second) {
            *total += n;
        }
        w.read_ns.extend(d.read_ns.iter().map(|&ns| u64::from(ns)));
        w.steps_acked += d.steps_acked;
        w.attempted += d.attempted;
        w.failed += d.failed;
        for (k, n) in &d.errors {
            *w.errors.entry(k).or_default() += n;
        }
        if let (Some(all), Some(mine)) = (w.spans.as_mut(), d.spans.take()) {
            all.merge(mine);
        }
    }
    w.step_ns.sort_unstable();
    w.read_ns.sort_unstable();
    w
}

/// Replays every session's acknowledged inputs through a solo
/// single-lane scalar engine; every output and read row must match bit
/// for bit (compared through the per-session digest). Returns the number
/// of rows checked, or the first session that differs.
pub fn oracle(fleet: &Fleet, shape: Shape, seed: u64, pin: &Pinned) -> Result<usize, String> {
    let slots: Vec<&Slot> = fleet
        .clients
        .iter()
        .flat_map(|(_, d)| d.slots.iter().chain(&d.retired))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = slots.len().div_ceil(threads).max(1);
    let results: Vec<Result<usize, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| {
                s.spawn(move || {
                    // One CPU per checker: the engine then steps inline
                    // instead of fanning out threads per step.
                    pin.pin_nth(i);
                    check_slots(part, shape, seed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    results.into_iter().sum()
}

fn check_slots(slots: &[&Slot], shape: Shape, seed: u64) -> Result<usize, String> {
    let p = params(IO);
    let mut checked = 0;
    for slot in slots {
        let mut engine = EngineBuilder::new(p)
            .with_spec(shape.spec())
            .lanes(1)
            .seed(WEIGHT_SEED)
            .build();
        let mut digest = FOLD_START;
        let mut reads = slot.reads_at.iter().peekable();
        for t in 0..=slot.steps {
            while reads.next_if(|&&at| at == t).is_some() {
                digest = fold(digest, engine.last_read_row(0));
                checked += 1;
            }
            if t < slot.steps {
                let x = input(seed, slot.key, t as u64);
                digest = fold(
                    digest,
                    engine
                        .step_batch(&Matrix::from_rows(&[x.as_slice()]))
                        .row(0),
                );
                checked += 1;
            }
        }
        if digest != slot.digest {
            return Err(format!(
                "session {}: served rows differ from solo replay ({} steps, {} reads)",
                slot.id,
                slot.steps,
                slot.reads_at.len()
            ));
        }
    }
    Ok(checked)
}

/// Replays the workload's request sequence (a fixed-length prefix per
/// client) through an in-process hub; returns the dispatch p50 of Step
/// requests in µs, its sample count and the hub's server counters.
pub fn hub_replay(
    shape: Shape,
    seed: u64,
    clients: usize,
    store_dir: &Path,
) -> (f64, usize, ServerDelta) {
    let cfg = ServeConfig {
        idle_timeout: None,
        ..ServeConfig::default()
    };
    let store = (shape == Shape::Churn).then(|| store_config(store_dir));
    let hub = SessionHub::with_store(cfg, store).expect("in-process hub");
    let before = hub.metrics().snapshot();
    let mut loops: Vec<ClosedLoop> = (0..clients)
        .map(|c| ClosedLoop::new(shape, seed, c as u64))
        .collect();
    for d in loops.iter_mut() {
        d.open_all(&mut HubCaller(&hub));
    }
    std::thread::scope(|s| {
        for d in loops.iter_mut() {
            let hub = &hub;
            s.spawn(move || {
                let mut t = HubCaller(hub);
                d.record = true;
                while (d.attempted as usize) < REPLAY_REQUESTS {
                    d.round(&mut t);
                }
            });
        }
    });
    let after = hub.metrics().snapshot();
    hub.shutdown();
    drop(hub);
    if shape == Shape::Churn {
        let _ = std::fs::remove_dir_all(store_dir);
    }
    let failed: u64 = loops.iter().map(|d| d.failed).sum();
    assert_eq!(failed, 0, "hub replay requests failed");
    let mut ns: Vec<u64> = loops
        .iter()
        .flat_map(|d| d.step_ns.iter().map(|&ns| u64::from(ns)))
        .collect();
    ns.sort_unstable();
    (
        pct_us(&ns, 0.5),
        ns.len(),
        ServerDelta::between(&before, &after),
    )
}
