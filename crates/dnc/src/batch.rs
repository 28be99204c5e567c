//! The one execution engine of the DNC and its distributed variant.
//!
//! [`BatchDncD`] steps `B` independent lanes of an `N_t`-tile DNC-D
//! (paper §5.1) through one set of shared weights. The centralized DNC
//! is the same engine with one tile whose memory covers all `N` rows —
//! [`Topology::Monolithic`](crate::Topology::Monolithic) is sugar for
//! that — and the sequential [`Dnc`](crate::Dnc) and
//! [`DncD`](crate::DncD) models are one-lane views over it. Serving-style
//! workloads run *many independent sequences* through the **same
//! weights**, which admits two structural speedups:
//!
//! 1. **Shared-weight batching** — the controller, interface and output
//!    projections become one `B × K` by `N × K`ᵀ product per step
//!    ([`hima_tensor::Matrix::matmul_nt`]) instead of `B` mat-vecs, and
//!    the LSTM gates are activated as whole `B × H` row-blocks
//!    ([`crate::lstm::Lstm::step_batch`]).
//! 2. **Lane × shard data-parallelism** — each lane's memory units are
//!    independent of every other lane's, and within a lane the `N_t`
//!    shards are independent of each other too. The engine flattens the
//!    whole `B × N_t` grid into **one** rayon task list per step (the 2-D
//!    decomposition mirroring the hardware tiling), so a single sharded
//!    lane still fans out across threads.
//!
//! The engine supports the fixed-point [`Datapath`] axis: with
//! [`Datapath::Quantized`] every shard's memory unit is a
//! [`QuantizedMemoryUnit`] that rounds its inputs and stored state to the
//! Q-format each step (the controller and projections stay f32 — HiMA is
//! the *memory-access* engine; the controller lives outside it).
//!
//! It also runs **ragged** batches:
//! [`step_batch_masked`](MemoryEngine::step_batch_masked) takes a
//! [`LaneMask`] naming the lanes still inside their episodes, advances
//! only those (masked rows of every kernel are skipped, not
//! zeroed-and-recomputed) and freezes the rest — so unequal-length
//! episodes share one lane grid, each lane dropping out as its episode
//! ends. The uniform `step_batch` is the fully-active special case of
//! the same kernel.
//!
//! Lane `b` of a `B`-lane engine is **bit-identical** to a one-lane
//! engine fed lane `b`'s inputs: the batched kernels use the same
//! per-row accumulation order whatever the batch, and each lane's memory
//! step is the very same [`MemoryUnit`] code. The equivalence is asserted
//! across every topology × lanes × datapath combination by the
//! trait-level conformance suite in `crates/dnc/tests/conformance.rs`
//! (uniform) and the workspace-level `tests/ragged_conformance.rs`
//! (masked); `tests/golden_outputs.rs` pins the outputs against digests
//! recorded from earlier builds.
//!
//! Construct the engine through [`EngineBuilder`](crate::EngineBuilder).

use crate::builder::Datapath;
use crate::distributed::ReadMerge;
use crate::engine::MemoryEngine;
use crate::interface::InterfaceVector;
use crate::lstm::{Lstm, LstmState};
use crate::memory::{MemoryConfig, MemoryUnit};
use crate::profile::{KernelId, KernelProfile};
use crate::quantized::QuantizedMemoryUnit;
use crate::workspace::StepWorkspace;
use crate::DncParams;
use hima_tensor::{Backend, LaneMask, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Seed offsets so each weight block draws an independent stream.
const SEED_LSTM: u64 = 0x11;
const SEED_INTERFACE: u64 = 0x22;
const SEED_OUTPUT: u64 = 0x33;

/// Builds a scaled-uniform projection matrix.
fn projection(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = 1.0 / (cols as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
}

/// A lane's memory unit on either datapath.
#[derive(Debug, Clone)]
pub(crate) enum LaneMemory {
    /// Exact f32 unit.
    F32(MemoryUnit),
    /// Fixed-point unit (state rounded to the Q-format every step).
    Quantized(QuantizedMemoryUnit),
}

impl LaneMemory {
    pub(crate) fn new(cfg: MemoryConfig, datapath: Datapath) -> Self {
        match datapath {
            Datapath::F32 => LaneMemory::F32(MemoryUnit::new(cfg)),
            Datapath::Quantized(q) => {
                LaneMemory::Quantized(QuantizedMemoryUnit::with_format(cfg, q))
            }
        }
    }

    /// Steps the unit, writing the flattened read vectors into `out` —
    /// allocation-free on either datapath.
    fn step_into(&mut self, iv: &InterfaceVector, out: &mut [f32]) {
        match self {
            LaneMemory::F32(u) => u.step_into(iv, out),
            LaneMemory::Quantized(q) => q.step_into(iv, out),
        }
    }

    fn reset(&mut self) {
        match self {
            LaneMemory::F32(u) => u.reset(),
            LaneMemory::Quantized(q) => q.reset(),
        }
    }

    /// The wrapped unit, for state inspection and profiling.
    pub(crate) fn unit(&self) -> &MemoryUnit {
        match self {
            LaneMemory::F32(u) => u,
            LaneMemory::Quantized(q) => q.inner(),
        }
    }

    /// The wrapped unit, for profiling control.
    fn unit_mut(&mut self) -> &mut MemoryUnit {
        match self {
            LaneMemory::F32(u) => u,
            LaneMemory::Quantized(q) => q.inner_mut(),
        }
    }

    /// Whether this unit runs the given datapath (same variant, and for
    /// fixed point the same Q-format) — the splice-compatibility check of
    /// [`LaneState`].
    fn matches_datapath(&self, datapath: Datapath) -> bool {
        match (self, datapath) {
            (LaneMemory::F32(_), Datapath::F32) => true,
            (LaneMemory::Quantized(q), Datapath::Quantized(fmt)) => q.format() == fmt,
            _ => false,
        }
    }
}

/// A detached snapshot of one batch lane's complete session state: the
/// lane's recurrent LSTM state, its per-shard memory units (external
/// memory, usage, linkage, read/write weightings — one shard for
/// monolithic engines, `N_t` for DNC-D) and the carried read-vector and
/// hidden rows the next step's controller consumes.
///
/// This is the **state-splice** currency of the serving layer:
/// [`MemoryEngine::export_lane`] detaches a session's state from a lane grid,
/// [`MemoryEngine::import_lane`] re-attaches it to any lane of any engine
/// built from the *same* spec and hyper-parameters (weights are a
/// function of the seed alone, so lane slots are interchangeable), and
/// the round trip is bit-exact — a session swapped out of a grid and
/// back in continues precisely where it left off. The snapshot also
/// carries the unit's accumulated kernel profile, so per-session
/// profiling travels with the session.
///
/// The fields are intentionally private: a `LaneState` is an opaque
/// value that only the engine that understands its geometry can consume.
/// For durability the opaque value still crosses a process boundary —
/// [`LaneState::encode`]/[`LaneState::decode`] (in [`crate::persist`])
/// are the versioned binary codec the session store persists, and the
/// round trip is bit-exact on every topology × datapath combination.
#[derive(Debug, Clone)]
pub struct LaneState {
    pub(crate) lstm: LstmState,
    /// One `(memory unit, flattened shard read vector)` per shard.
    pub(crate) shards: Vec<(LaneMemory, Vec<f32>)>,
    /// The lane's merged `R·W` read-vector row (`last_read`).
    pub(crate) read: Vec<f32>,
    /// The lane's held `H` hidden row (`last_hidden`).
    pub(crate) hidden: Vec<f32>,
}

impl LaneState {
    /// Number of memory shards the snapshot carries (1 for monolithic
    /// engines, `N_t` for sharded ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lane's merged `R·W` read-vector row — what `ReadRows` reports
    /// for the session while its state is detached from any grid.
    pub fn read_row(&self) -> &[f32] {
        &self.read
    }

    /// Approximate heap footprint of the snapshot in `f32` elements —
    /// what a session cache pays to hold a detached session.
    pub fn state_elems(&self) -> usize {
        let mem: usize = self
            .shards
            .iter()
            .map(|(m, read)| {
                let u = m.unit();
                let n = u.memory().rows();
                u.memory().rows() * u.memory().cols()
                    + n * (2 + n) // usage + precedence + linkage
                    + n * (1 + u.read_weightings().len()) // write + read weightings
                    + read.len()
            })
            .sum();
        mem + 2 * self.lstm.hidden.len() + self.read.len() + self.hidden.len()
    }
}

/// One shard of one batch lane: the shard's memory unit, its last
/// flattened read vector and its reusable interface-parse scratch — the
/// unit of work of the 2-D (lane × shard) parallel decomposition.
#[derive(Debug, Clone)]
struct ShardLane {
    memory: LaneMemory,
    read: Vec<f32>,
    iv: InterfaceVector,
}

/// `B` independent DNC-D lanes sharing one set of weights (controller,
/// per-shard interface projections, output projection and the read-merge
/// `α`) — the only DNC execution engine. One tile is the centralized
/// DNC.
///
/// Lanes start from blank state, and lane `b` reproduces a one-lane
/// engine fed lane `b`'s input stream exactly. Each step fans the
/// flattened `B × N_t` grid of shard memory units out across rayon
/// worker threads — the 2-D lane × shard decomposition — so even a
/// single sharded lane (`lanes(1)`) parallelizes across its shards.
///
/// # Example
///
/// ```
/// use hima_dnc::{Dnc, DncParams, EngineBuilder, MemoryEngine};
/// use hima_tensor::Matrix;
///
/// let params = DncParams::new(16, 4, 1).with_io(3, 3);
/// let mut batch = EngineBuilder::new(params).lanes(2).seed(7).build();
/// let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0][..], &[0.0, 1.0, 0.0][..]]);
/// let y = batch.step_batch(&x);
/// assert_eq!(y.shape(), (2, 3));
///
/// // Lane 0 matches a sequential DNC fed lane 0's input.
/// let mut dnc = Dnc::new(params, 7);
/// assert_eq!(y.row(0), &dnc.step(&[1.0, 0.0, 0.0])[..]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchDncD {
    params: DncParams,
    controller: Lstm,
    interface_projs: Vec<Matrix>,
    output_proj: Matrix,
    merge: ReadMerge,
    datapath: Datapath,
    /// Kernel tier of the shared-weight projections and the controller
    /// product — the same tier the shard memory units read from their
    /// [`MemoryConfig`], so one engine runs one tier end to end.
    backend: Backend,
    /// Controller timing ([`KernelId::Lstm`]); the memory units keep
    /// their own profiles.
    profile: KernelProfile,
    lstm_states: Vec<LstmState>,
    batch: usize,
    /// The flat `B × N_t` shard grid, lane-major: lane `b`'s shards are
    /// `shards[b·N_t .. (b+1)·N_t]`. Flat storage *is* the 2-D parallel
    /// decomposition — one `par_iter_mut` over this slice is the per-step
    /// task list, with no per-step collection of task references.
    shards: Vec<ShardLane>,
    last_read: Matrix,
    last_hidden: Matrix,
    ws: StepWorkspace,
}

impl BatchDncD {
    /// Creates `batch` blank lanes of a `tiles`-shard engine whose shard
    /// memories split `memory.memory_size` rows and otherwise share the
    /// `memory` configuration. This is the one place weights are derived
    /// from the seed: shard `t`'s interface projection draws from
    /// `(seed ^ 0x22) + 7919·t`, so shard 0 of every engine — and a
    /// one-tile engine entirely — carries the centralized DNC's weights.
    /// The engine starts with uniform read-merge weights `α_i = 1/N_t`
    /// and with profiling on.
    ///
    /// The rows split as evenly as possible: the first `N mod N_t` shards
    /// get `⌈N/N_t⌉` rows and the rest `⌊N/N_t⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `tiles == 0` or `tiles` exceeds the memory
    /// rows.
    pub(crate) fn new(
        params: DncParams,
        memory: MemoryConfig,
        tiles: usize,
        datapath: Datapath,
        batch: usize,
        seed: u64,
    ) -> Self {
        assert!(batch > 0, "need at least one batch lane");
        assert!(tiles > 0, "need at least one tile");
        assert!(tiles <= memory.memory_size, "more tiles than memory rows");
        let read_width = params.read_heads * params.word_size;
        let controller =
            Lstm::new(params.input_size + read_width, params.hidden_size, seed ^ SEED_LSTM);
        // The interface projects from [h_t ; x_t]: the input skip
        // connection keeps write/read keys directly conditioned on the
        // current token (Graves et al.'s controller emits the interface
        // from all layer outputs, input included).
        let iface_cols = params.hidden_size + params.input_size;
        let interface_projs = (0..tiles as u64)
            .map(|t| {
                let shard_seed = (seed ^ SEED_INTERFACE).wrapping_add(t * 7919);
                projection(params.interface_size(), iface_cols, shard_seed)
            })
            .collect();
        let output_proj =
            projection(params.output_size, params.hidden_size + read_width, seed ^ SEED_OUTPUT);
        let (base, extra) = (memory.memory_size / tiles, memory.memory_size % tiles);
        let shard_cfgs: Vec<MemoryConfig> = (0..tiles)
            .map(|t| MemoryConfig { memory_size: base + usize::from(t < extra), ..memory })
            .collect();
        let shards = (0..batch)
            .flat_map(|_| {
                shard_cfgs.iter().map(|cfg| ShardLane {
                    memory: LaneMemory::new(*cfg, datapath),
                    read: vec![0.0; read_width],
                    iv: InterfaceVector::zeroed(params.word_size, params.read_heads),
                })
            })
            .collect();
        let mut ws = StepWorkspace::new();
        ws.ensure(&params, batch, tiles);
        Self {
            params,
            controller,
            interface_projs,
            output_proj,
            merge: ReadMerge::uniform(tiles),
            datapath,
            backend: memory.backend,
            profile: KernelProfile::new(),
            lstm_states: vec![LstmState::zeros(params.hidden_size); batch],
            batch,
            shards,
            last_read: Matrix::zeros(batch, read_width),
            last_hidden: Matrix::zeros(batch, params.hidden_size),
            ws,
        }
    }

    /// Number of distributed shards `N_t` per lane (1 for the centralized
    /// DNC).
    pub fn tiles(&self) -> usize {
        self.interface_projs.len()
    }

    /// The read-merge weights used by every lane.
    pub(crate) fn merge_weights(&self) -> &ReadMerge {
        &self.merge
    }

    /// Replaces the read-merge weights used by every lane.
    ///
    /// # Panics
    ///
    /// Panics if the shard count disagrees.
    pub fn set_merge(&mut self, merge: ReadMerge) {
        assert_eq!(merge.shards(), self.tiles(), "merge shard count mismatch");
        self.merge = merge;
    }

    /// Clears the controller's and every memory unit's kernel profile.
    pub(crate) fn reset_profile(&mut self) {
        self.profile.reset();
        for shard in &mut self.shards {
            shard.memory.unit_mut().reset_profile();
        }
    }

    /// Lane `lane`'s `N_t` shards.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch`.
    fn lane_shards(&self, lane: usize) -> &[ShardLane] {
        assert!(lane < self.batch, "lane index out of range");
        let nt = self.tiles();
        &self.shards[lane * nt..(lane + 1) * nt]
    }

    /// Lane `lane`'s shard memory units, in shard order.
    pub(crate) fn shard_units(&self, lane: usize) -> impl Iterator<Item = &MemoryUnit> {
        self.lane_shards(lane).iter().map(|s| s.memory.unit())
    }

    /// Lane `lane`'s per-shard read vectors of its last step, before the
    /// merge (Eq. 4) — what [`ReadMerge::calibrate`] fits `α` on.
    pub(crate) fn shard_reads(&self, lane: usize) -> impl Iterator<Item = &[f32]> {
        self.lane_shards(lane).iter().map(|s| s.read.as_slice())
    }
}

impl MemoryEngine for BatchDncD {
    fn step_batch(&mut self, inputs: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(self.batch, self.params.output_size);
        self.step_batch_into(inputs, &mut y);
        y
    }

    fn step_batch_masked(&mut self, inputs: &Matrix, mask: &LaneMask) -> Matrix {
        let mut y = Matrix::zeros(self.batch, self.params.output_size);
        self.step_batch_masked_into(inputs, mask, &mut y);
        y
    }

    fn step_batch_into(&mut self, inputs: &Matrix, y: &mut Matrix) {
        // Validate caller input *before* taking the cached mask, so a
        // caller-triggered panic cannot strand the workspace with the
        // 0-lane placeholder.
        assert_eq!(inputs.rows(), self.batch, "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        self.ws.ensure(&self.params, self.batch, self.tiles());
        // Borrow dance: the cached full mask cannot be borrowed while
        // `self` is, so take it (a move — no allocation) and put it back.
        let mask = std::mem::take(&mut self.ws.full_mask);
        self.step_batch_masked_into(inputs, &mask, y);
        self.ws.full_mask = mask;
    }

    /// The controller and every shard's interface projection run batched
    /// over the active lanes; the `B × N_t` grid of shard memory units is
    /// then flattened into **one** parallel task list (each task is one
    /// shard of one lane, and inactive lanes' shards return at once), and
    /// the per-lane shard reads are merged (Eq. 4) deterministically
    /// afterwards. Every transient comes from the engine's
    /// [`StepWorkspace`] or the per-shard scratch, so the steady state
    /// performs **zero heap allocations**.
    fn step_batch_masked_into(&mut self, inputs: &Matrix, mask: &LaneMask, y: &mut Matrix) {
        let (b, nt) = (self.batch, self.tiles());
        assert_eq!(inputs.rows(), b, "batch size mismatch");
        assert_eq!(inputs.cols(), self.params.input_size, "input width mismatch");
        assert_eq!(mask.lanes(), b, "lane mask size mismatch");
        self.ws.ensure(&self.params, b, nt);
        if y.shape() != (b, self.params.output_size) {
            *y = Matrix::zeros(b, self.params.output_size);
        }
        let ws = &mut self.ws;

        // Controller on [x_t ; v_r^{t-1}], all active lanes at once
        // (frozen lanes surface their held hidden state).
        Matrix::hcat_into(inputs, &self.last_read, &mut ws.ctrl_in);
        self.profile.time(KernelId::Lstm, || {
            self.controller.step_batch_masked_into_with(
                &mut self.lstm_states,
                &ws.ctrl_in,
                mask,
                &mut ws.lstm,
                &mut ws.hidden,
                self.backend,
            )
        });

        // One batched projection per shard (each shard has its own
        // interface weights but shares them across lanes), over the
        // active rows only (input skip connection).
        Matrix::hcat_into(&ws.hidden, inputs, &mut ws.iface_in);
        for (proj, raw) in self.interface_projs.iter().zip(ws.raw_shards.iter_mut()) {
            self.backend.matmul_nt_masked_into(&ws.iface_in, proj, mask, raw);
        }

        // 2-D decomposition: the flat lane-major shard grid is the task
        // list; each task recovers its (b, s) coordinates from its index
        // and parses into and steps through its own scratch, so the loop
        // is allocation-free on every worker.
        let (w, r) = (self.params.word_size, self.params.read_heads);
        let raws = &ws.raw_shards;
        self.shards.par_iter_mut().enumerate().for_each(|(i, shard)| {
            let (bi, s) = (i / nt, i % nt);
            if !mask.is_active(bi) {
                return;
            }
            shard.iv.parse_into(raws[s].row(bi), w, r);
            shard.memory.step_into(&shard.iv, &mut shard.read);
        });

        // Merge shard reads per active lane (Eq. 4), straight into the
        // lane's last-read row — sequential and deterministic regardless
        // of task scheduling above.
        for bi in mask.active_lanes() {
            let lane_shards = &self.shards[bi * nt..(bi + 1) * nt];
            self.merge.merge_iter_into(
                lane_shards.iter().map(|s| s.read.as_slice()),
                self.last_read.row_mut(bi),
            );
        }

        // Output projection over [h ; v_r], batched over the active rows
        // (inactive output rows stay zero).
        Matrix::hcat_into(&ws.hidden, &self.last_read, &mut ws.out_in);
        self.backend.matmul_nt_masked_into(&ws.out_in, &self.output_proj, mask, y);
        self.last_hidden.as_mut_slice().copy_from_slice(ws.hidden.as_slice());
    }

    fn batch(&self) -> usize {
        self.batch
    }

    fn params(&self) -> &DncParams {
        &self.params
    }

    fn last_read_rows(&self) -> Matrix {
        self.last_read.clone()
    }

    fn last_read_row(&self, lane: usize) -> &[f32] {
        self.last_read.row(lane)
    }

    fn last_features_rows(&self) -> Matrix {
        Matrix::hcat(&self.last_hidden, &self.last_read)
    }

    fn profile(&self) -> KernelProfile {
        let mut p = self.profile.clone();
        for shard in &self.shards {
            p.merge(shard.memory.unit().profile());
        }
        p
    }

    fn set_profiling(&mut self, on: bool) {
        self.profile.set_enabled(on);
        for shard in &mut self.shards {
            shard.memory.unit_mut().set_profiling(on);
        }
    }

    /// Resets every lane **in place** — no buffer is reallocated, so
    /// reuse across episodes (harnesses, pipeline engine workers) stays
    /// allocation-free. Weights and merge are unchanged.
    fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.memory.reset();
            shard.read.fill(0.0);
        }
        for state in &mut self.lstm_states {
            state.clear();
        }
        self.last_read.as_mut_slice().fill(0.0);
        self.last_hidden.as_mut_slice().fill(0.0);
    }

    fn export_lane(&self, lane: usize) -> LaneState {
        let shards =
            self.lane_shards(lane).iter().map(|s| (s.memory.clone(), s.read.clone())).collect();
        LaneState {
            lstm: self.lstm_states[lane].clone(),
            shards,
            read: self.last_read.row(lane).to_vec(),
            hidden: self.last_hidden.row(lane).to_vec(),
        }
    }

    /// Checks the snapshot's geometry and datapath (shard count,
    /// per-shard memory config, Q-format, read/hidden widths) before
    /// touching the lane.
    fn import_lane(&mut self, lane: usize, state: &LaneState) {
        let nt = self.tiles();
        assert!(lane < self.batch, "lane index out of range");
        assert_eq!(state.shards.len(), nt, "lane state shard count mismatch");
        assert_eq!(state.read.len(), self.last_read.cols(), "read width mismatch");
        assert_eq!(state.hidden.len(), self.params.hidden_size, "hidden width mismatch");
        assert_eq!(state.lstm.hidden.len(), self.params.hidden_size, "hidden width mismatch");
        let lane_shards = &mut self.shards[lane * nt..(lane + 1) * nt];
        for (dst, (mem, shard_read)) in lane_shards.iter_mut().zip(&state.shards) {
            assert!(mem.matches_datapath(self.datapath), "lane state datapath mismatch");
            assert_eq!(mem.unit().config(), dst.memory.unit().config(), "memory config mismatch");
            assert_eq!(shard_read.len(), dst.read.len(), "read width mismatch");
        }
        self.lstm_states[lane] = state.lstm.clone();
        for (dst, (mem, shard_read)) in lane_shards.iter_mut().zip(&state.shards) {
            dst.memory = mem.clone();
            dst.read.copy_from_slice(shard_read);
        }
        self.last_read.row_mut(lane).copy_from_slice(&state.read);
        self.last_hidden.row_mut(lane).copy_from_slice(&state.hidden);
    }

    fn reset_lane(&mut self, lane: usize) {
        let nt = self.tiles();
        assert!(lane < self.batch, "lane index out of range");
        for shard in &mut self.shards[lane * nt..(lane + 1) * nt] {
            shard.memory.reset();
            shard.read.fill(0.0);
        }
        self.lstm_states[lane].clear();
        self.last_read.row_mut(lane).fill(0.0);
        self.last_hidden.row_mut(lane).fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::{Dnc, DncD};

    fn params() -> DncParams {
        DncParams::new(16, 4, 2).with_hidden(24).with_io(5, 6)
    }

    /// A `lanes`-lane engine, centralized (`tiles = None`) or sharded.
    fn engine(tiles: Option<usize>, lanes: usize, seed: u64) -> BatchDncD {
        let b = EngineBuilder::new(params()).lanes(lanes).seed(seed);
        match tiles {
            Some(nt) => b.sharded(nt),
            None => b,
        }
        .build_engine()
    }

    /// Stacks per-lane inputs for one time step into a `B × I` block.
    fn step_block(lanes: &[Vec<Vec<f32>>], t: usize) -> Matrix {
        let rows: Vec<&[f32]> = lanes.iter().map(|lane| lane[t].as_slice()).collect();
        Matrix::from_rows(&rows)
    }

    fn lane_inputs(batch: usize, steps: usize, width: usize) -> Vec<Vec<Vec<f32>>> {
        (0..batch)
            .map(|b| {
                (0..steps)
                    .map(|t| {
                        (0..width)
                            .map(|i| (((b * 131 + t * 17 + i * 7) as f32) * 0.13).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_dnc_matches_sequential_lanes_exactly() {
        let (batch, steps) = (4, 6);
        let lanes = lane_inputs(batch, steps, 5);
        let mut batched = engine(None, batch, 11);
        let mut sequential: Vec<_> = (0..batch).map(|_| Dnc::new(params(), 11)).collect();
        for t in 0..steps {
            let y = batched.step_batch(&step_block(&lanes, t));
            for (b, dnc) in sequential.iter_mut().enumerate() {
                let want = dnc.step(&lanes[b][t]);
                assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
            }
        }
    }

    #[test]
    fn batch_dncd_matches_sequential_lanes_exactly() {
        let (batch, steps) = (3, 5);
        let lanes = lane_inputs(batch, steps, 5);
        let mut batched = engine(Some(4), batch, 23);
        let mut sequential: Vec<_> = (0..batch).map(|_| DncD::new(params(), 4, 23)).collect();
        for t in 0..steps {
            let y = batched.step_batch(&step_block(&lanes, t));
            for (b, dncd) in sequential.iter_mut().enumerate() {
                let want = dncd.step(&lanes[b][t]);
                assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
            }
        }
    }

    #[test]
    fn reset_restores_blank_lanes() {
        let lanes = lane_inputs(2, 3, 5);
        let mut batched = engine(None, 2, 9);
        let first = batched.step_batch(&step_block(&lanes, 0));
        for t in 1..3 {
            batched.step_batch(&step_block(&lanes, t));
        }
        batched.reset();
        let again = batched.step_batch(&step_block(&lanes, 0));
        assert_eq!(first, again);
    }

    #[test]
    fn builder_matches_direct_batched_construction() {
        // `EngineBuilder::build` and the engine's own constructor are the
        // same construction path; pin that they stay bit-equal so the
        // builder remains the canonical constructor.
        let x = Matrix::filled(2, 5, 0.25);
        let p = params();
        let memory = MemoryConfig::new(p.memory_size, p.word_size, p.read_heads);
        for tiles in [1, 4] {
            let mut direct = BatchDncD::new(p, memory, tiles, Datapath::F32, 2, 31);
            let mut built = EngineBuilder::new(p).sharded(tiles).lanes(2).seed(31).build();
            assert_eq!(direct.step_batch(&x), built.step_batch(&x), "tiles {tiles}");
        }
    }

    #[test]
    fn batched_from_existing_model_shares_weights() {
        let mut batched = engine(None, 2, 31);
        let mut fresh = Dnc::new(params(), 31);
        let x = vec![0.25f32; 5];
        let block = Matrix::from_rows(&[x.as_slice(), x.as_slice()]);
        let y = batched.step_batch(&block);
        let want = fresh.step(&x);
        assert_eq!(y.row(0), &want[..]);
        assert_eq!(y.row(1), &want[..]);
    }

    #[test]
    fn profile_aggregates_all_lanes() {
        let mut batched = engine(None, 3, 1);
        batched.set_profiling(true);
        batched.step_batch(&Matrix::zeros(3, 5));
        let p = batched.profile();
        assert_eq!(p.calls(KernelId::MemoryRead), 3 * 2, "3 lanes × 2 heads");
        assert_eq!(p.calls(KernelId::Lstm), 1, "one batched controller step");
        batched.reset_profile();
        assert_eq!(batched.profile().total_nanos(), 0);
    }

    #[test]
    fn dncd_profile_aggregates_lanes_and_shards() {
        let mut batched = engine(Some(4), 2, 1);
        batched.set_profiling(true);
        batched.step_batch(&Matrix::zeros(2, 5));
        let p = batched.profile();
        assert_eq!(p.calls(KernelId::MemoryRead), 2 * 4 * 2, "2 lanes × 4 shards × 2 heads");
    }

    #[test]
    fn unprofiled_engines_record_nothing() {
        let mut batched = engine(Some(2), 2, 1);
        batched.step_batch(&Matrix::zeros(2, 5));
        assert_eq!(batched.profile().calls(KernelId::Lstm), 0);
        assert_eq!(batched.profile().calls(KernelId::MemoryRead), 0);
    }

    #[test]
    fn quantized_datapath_lanes_hold_representable_state() {
        let q = hima_tensor::QFormat::q16_16();
        let mut batched =
            EngineBuilder::new(params()).lanes(2).quantized(q).seed(3).build_engine();
        let lanes = lane_inputs(2, 3, 5);
        for t in 0..3 {
            batched.step_batch(&step_block(&lanes, t));
        }
        for lane in 0..2 {
            for unit in batched.shard_units(lane) {
                for &x in unit.memory().as_slice() {
                    assert!(q.is_representable(x), "lane {lane} holds non-Q16.16 value {x}");
                }
            }
        }
    }

    /// Pads lane `b`'s input with zeros once its stream has ended and
    /// returns the block plus the step's mask.
    fn masked_block(lanes: &[Vec<Vec<f32>>], t: usize, width: usize) -> (Matrix, LaneMask) {
        let lens: Vec<usize> = lanes.iter().map(Vec::len).collect();
        let zero = vec![0.0f32; width];
        let rows: Vec<&[f32]> = lanes
            .iter()
            .map(|lane| lane.get(t).map_or(zero.as_slice(), Vec::as_slice))
            .collect();
        (Matrix::from_rows(&rows), LaneMask::for_step(&lens, t))
    }

    /// Per-lane streams of *unequal* lengths.
    fn ragged_lane_inputs(lens: &[usize], width: usize) -> Vec<Vec<Vec<f32>>> {
        lens.iter()
            .enumerate()
            .map(|(b, &len)| {
                (0..len)
                    .map(|t| {
                        (0..width)
                            .map(|i| (((b * 131 + t * 17 + i * 7) as f32) * 0.13).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn masked_batch_dnc_matches_sequential_ragged_lanes_exactly() {
        let lens = [5usize, 2, 4];
        let lanes = ragged_lane_inputs(&lens, 5);
        let mut batched = engine(None, 3, 11);
        let mut sequential: Vec<_> = (0..3).map(|_| Dnc::new(params(), 11)).collect();
        for t in 0..5 {
            let (block, mask) = masked_block(&lanes, t, 5);
            let y = batched.step_batch_masked(&block, &mask);
            for (b, dnc) in sequential.iter_mut().enumerate() {
                if t < lens[b] {
                    let want = dnc.step(&lanes[b][t]);
                    assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
                    assert_eq!(batched.last_read_row(b), dnc.last_read(), "lane {b} t {t}");
                } else {
                    assert!(y.row(b).iter().all(|&x| x == 0.0), "ended lane {b} outputs zero");
                    assert_eq!(
                        batched.last_read_row(b),
                        dnc.last_read(),
                        "ended lane {b} read vector frozen at t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_batch_dncd_matches_sequential_ragged_lanes_exactly() {
        let lens = [1usize, 4, 3];
        let lanes = ragged_lane_inputs(&lens, 5);
        let mut batched = engine(Some(4), 3, 23);
        let mut sequential: Vec<_> = (0..3).map(|_| DncD::new(params(), 4, 23)).collect();
        for t in 0..4 {
            let (block, mask) = masked_block(&lanes, t, 5);
            let y = batched.step_batch_masked(&block, &mask);
            for (b, dncd) in sequential.iter_mut().enumerate() {
                if t < lens[b] {
                    let want = dncd.step(&lanes[b][t]);
                    assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
                } else {
                    assert_eq!(
                        batched.last_read_row(b),
                        dncd.last_read(),
                        "ended lane {b} read vector frozen at t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_mask_is_bit_identical_to_step_batch() {
        let lanes = lane_inputs(3, 2, 5);
        let mut a = engine(None, 3, 7);
        let mut b = engine(None, 3, 7);
        for t in 0..2 {
            let block = step_block(&lanes, t);
            assert_eq!(a.step_batch(&block), b.step_batch_masked(&block, &LaneMask::full(3)));
        }
    }

    #[test]
    fn fully_inactive_mask_is_a_frozen_no_op() {
        let lanes = lane_inputs(2, 2, 5);
        let mut batched = engine(None, 2, 9);
        batched.step_batch(&step_block(&lanes, 0));
        let read_before = batched.last_read_rows();
        let y = batched
            .step_batch_masked(&step_block(&lanes, 1), &LaneMask::from(vec![false, false]));
        assert!(y.as_slice().iter().all(|&x| x == 0.0), "no lane advanced");
        assert_eq!(batched.last_read_rows(), read_before, "state untouched");
        // The next real step behaves as if the no-op never happened.
        let mut control = engine(None, 2, 9);
        control.step_batch(&step_block(&lanes, 0));
        assert_eq!(
            batched.step_batch(&step_block(&lanes, 1)),
            control.step_batch(&step_block(&lanes, 1))
        );
    }

    #[test]
    #[should_panic(expected = "lane mask size mismatch")]
    fn masked_step_rejects_wrong_mask_length() {
        engine(None, 2, 1).step_batch_masked(&Matrix::zeros(2, 5), &LaneMask::full(3));
    }

    #[test]
    #[should_panic(expected = "need at least one batch lane")]
    fn rejects_zero_batch() {
        let p = params();
        let memory = MemoryConfig::new(p.memory_size, p.word_size, p.read_heads);
        BatchDncD::new(p, memory, 1, Datapath::F32, 0, 1);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn rejects_wrong_batch_rows() {
        engine(None, 2, 1).step_batch(&Matrix::zeros(3, 5));
    }

    /// Engines warmed differently per lane, then lane states swapped
    /// across engines: each lane must continue bit-identically to the
    /// engine its state came from. Covers monolithic and sharded
    /// topologies on both datapaths — the splice contract the serving
    /// grid's session swaps rest on.
    #[test]
    fn export_import_swap_is_bit_exact() {
        use hima_tensor::QFormat;

        let build = |sharded: bool, quantized: bool| {
            let mut b = EngineBuilder::new(params()).lanes(2).seed(33);
            if sharded {
                b = b.sharded(4);
            }
            if quantized {
                b = b.quantized(QFormat::new(16, 16));
            }
            b.build()
        };
        for (sharded, quantized) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let lanes = lane_inputs(2, 4, 5);
            let mut a = build(sharded, quantized);
            let mut c = build(sharded, quantized);
            for t in 0..2 {
                a.step_batch(&step_block(&lanes, t));
                // Engine `c` sees the lanes in swapped order.
                let swapped =
                    Matrix::from_rows(&[lanes[1][t].as_slice(), lanes[0][t].as_slice()]);
                c.step_batch(&swapped);
            }
            // Swap lane states across engines: a's lane 0 state came from
            // the same stream as c's lane 1 state.
            let a0 = a.export_lane(0);
            let c1 = c.export_lane(1);
            a.import_lane(0, &c1);
            c.import_lane(1, &a0);
            // Round trip is bit-exact: both engines now hold the same
            // per-stream state, so they continue identically (mod lane
            // order).
            for t in 2..4 {
                let ya = a.step_batch(&step_block(&lanes, t));
                let swapped =
                    Matrix::from_rows(&[lanes[1][t].as_slice(), lanes[0][t].as_slice()]);
                let yc = c.step_batch(&swapped);
                assert_eq!(ya.row(0), yc.row(1), "sharded={sharded} quant={quantized} t={t}");
                assert_eq!(ya.row(1), yc.row(0), "sharded={sharded} quant={quantized} t={t}");
                assert_eq!(a.last_read_row(0), c.last_read_row(1));
            }
        }
    }

    /// `reset_lane` returns exactly one lane to blank state: the reset
    /// lane matches a freshly built engine bit-for-bit while its
    /// neighbour's in-flight state is untouched.
    #[test]
    fn reset_lane_is_a_fresh_lane_and_leaves_neighbours_alone() {
        for tiles in [None, Some(4)] {
            let lanes = lane_inputs(2, 4, 5);
            let mut warmed = engine(tiles, 2, 5);
            let mut fresh = engine(tiles, 2, 5);
            for t in 0..2 {
                warmed.step_batch(&step_block(&lanes, t));
            }
            let lane1 = warmed.export_lane(1);
            warmed.reset_lane(0);
            // Lane 1 untouched by the reset.
            assert_eq!(warmed.last_read_row(1), &lane1.read[..]);
            // Lane 0 now behaves as a blank lane: replay lane 0's stream
            // from scratch on both engines.
            for t in 0..2 {
                let yw = warmed.step_batch(&step_block(&lanes, t));
                let yf = fresh.step_batch(&step_block(&lanes, t));
                assert_eq!(yw.row(0), yf.row(0), "tiles={tiles:?} t={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count mismatch")]
    fn import_rejects_wrong_shard_count() {
        let mono = engine(None, 1, 1);
        let mut sharded = engine(Some(4), 1, 1);
        let state = mono.export_lane(0);
        sharded.import_lane(0, &state);
    }

    #[test]
    #[should_panic(expected = "datapath mismatch")]
    fn import_rejects_wrong_datapath() {
        use hima_tensor::QFormat;
        let f32e = engine(None, 1, 1);
        let mut quant =
            EngineBuilder::new(params()).lanes(1).quantized(QFormat::new(16, 16)).seed(1).build();
        let state = f32e.export_lane(0);
        quant.import_lane(0, &state);
    }

    #[test]
    fn lane_state_reports_geometry() {
        let e = engine(Some(4), 1, 1);
        let state = e.export_lane(0);
        assert_eq!(state.shard_count(), 4);
        assert!(state.state_elems() > 0);
    }
}
