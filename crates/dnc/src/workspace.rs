//! [`StepWorkspace`]: the pre-sized scratch that makes steady-state
//! stepping **zero-heap-allocation**.
//!
//! Every `step_batch` of the batched engines used to allocate dozens of
//! transient `Matrix`/`Vec` buffers — the `hcat` feature blocks, the
//! shared-weight projection outputs, the LSTM gate blocks. The
//! steady-state step (not construction, not episode assembly) dominates
//! serving workloads, so those transients are hoisted here: one
//! workspace per engine, its buffers keyed by the engine
//! geometry `(B, N, W, R, H, I, O, N_t)` and reused across steps and
//! across episodes (engines own their workspace, and
//! [`reset`](crate::MemoryEngine::reset) never drops it).
//!
//! The workspace is **reset-on-resize**: [`StepWorkspace::ensure`] is a
//! key comparison in the steady state and a full reallocation only when
//! the geometry changes (e.g. a pipeline engine worker re-used for a
//! different batch size). Per-*lane* scratch — interface-vector parse
//! targets and the memory-unit step buffers — lives inside the lanes and
//! units themselves, because lanes step in parallel on worker threads.
//!
//! The allocating entry points (`step_batch`, `step_batch_masked`)
//! remain, as thin wrappers that borrow the engine's workspace and
//! allocate only the returned output block; the `_into` variants are
//! bit-identical and allocation-free (pinned by the counting-allocator
//! suite in `tests/zero_alloc.rs`).

use crate::lstm::LstmScratch;
use crate::DncParams;
use hima_tensor::{LaneMask, Matrix};

/// The geometry a workspace's buffers are sized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkspaceKey {
    batch: usize,
    memory_size: usize,
    word_size: usize,
    read_heads: usize,
    hidden_size: usize,
    input_size: usize,
    output_size: usize,
    tiles: usize,
}

impl WorkspaceKey {
    fn new(params: &DncParams, batch: usize, tiles: usize) -> Self {
        Self {
            batch,
            memory_size: params.memory_size,
            word_size: params.word_size,
            read_heads: params.read_heads,
            hidden_size: params.hidden_size,
            input_size: params.input_size,
            output_size: params.output_size,
            tiles,
        }
    }
}

/// Reusable per-engine scratch for one batched step (see the
/// [module docs](self)).
///
/// Construct with [`StepWorkspace::new`] (empty; buffers materialize on
/// first use) — the batched engines do this internally, so most code
/// never touches the type directly.
#[derive(Debug, Clone)]
pub struct StepWorkspace {
    key: Option<WorkspaceKey>,
    /// Controller input `[x_t ; v_r^{t-1}]`, `B × (I + R·W)`.
    pub(crate) ctrl_in: Matrix,
    /// Interface-projection input `[h_t ; x_t]`, `B × (H + I)`.
    pub(crate) iface_in: Matrix,
    /// Output-projection input `[h_t ; v_r]`, `B × (H + R·W)`.
    pub(crate) out_in: Matrix,
    /// Hidden-state block of the current step, `B × H`.
    pub(crate) hidden: Matrix,
    /// Raw interface emissions, one `B × interface_size` block per shard
    /// (monolithic engines use exactly one).
    pub(crate) raw_shards: Vec<Matrix>,
    /// Controller scratch (`[X ; H]` concatenation + pre-activations).
    pub(crate) lstm: LstmScratch,
    /// Cached fully-active mask so the uniform `step_batch` path does not
    /// rebuild one per step (taken and restored around the masked call).
    pub(crate) full_mask: LaneMask,
}

impl StepWorkspace {
    /// An empty workspace; buffers are sized on first
    /// [`StepWorkspace::ensure`].
    pub fn new() -> Self {
        Self {
            key: None,
            ctrl_in: Matrix::zeros(0, 0),
            iface_in: Matrix::zeros(0, 0),
            out_in: Matrix::zeros(0, 0),
            hidden: Matrix::zeros(0, 0),
            raw_shards: Vec::new(),
            lstm: LstmScratch::sized(0, 0, 0),
            full_mask: LaneMask::full(0),
        }
    }

    /// Sizes every buffer for `(params, batch, tiles)`. A no-op (one key
    /// comparison) when the geometry is unchanged — the steady state —
    /// and a full rebuild when it is not (reset-on-resize). The engines
    /// call this at every step entry; calling it ahead of time merely
    /// front-loads the one-time sizing.
    pub fn ensure(&mut self, params: &DncParams, batch: usize, tiles: usize) {
        let key = WorkspaceKey::new(params, batch, tiles);
        if self.key == Some(key) {
            return;
        }
        let read_width = params.read_heads * params.word_size;
        self.ctrl_in = Matrix::zeros(batch, params.input_size + read_width);
        self.iface_in = Matrix::zeros(batch, params.hidden_size + params.input_size);
        self.out_in = Matrix::zeros(batch, params.hidden_size + read_width);
        self.hidden = Matrix::zeros(batch, params.hidden_size);
        self.raw_shards = (0..tiles.max(1))
            .map(|_| Matrix::zeros(batch, params.interface_size()))
            .collect();
        self.lstm =
            LstmScratch::sized(batch, params.input_size + read_width, params.hidden_size);
        self.full_mask = LaneMask::full(batch);
        self.key = Some(key);
    }
}

impl Default for StepWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_idempotent_and_resizes_on_key_change() {
        let params = DncParams::new(16, 4, 2).with_hidden(8).with_io(5, 6);
        let mut ws = StepWorkspace::new();
        ws.ensure(&params, 3, 1);
        assert_eq!(ws.ctrl_in.shape(), (3, 5 + 8));
        assert_eq!(ws.iface_in.shape(), (3, 8 + 5));
        assert_eq!(ws.out_in.shape(), (3, 8 + 8));
        assert_eq!(ws.hidden.shape(), (3, 8));
        assert_eq!(ws.raw_shards.len(), 1);
        assert_eq!(ws.raw_shards[0].shape(), (3, params.interface_size()));
        assert!(ws.full_mask.is_full() && ws.full_mask.lanes() == 3);

        // Steady state: same key, buffers untouched (marker survives).
        ws.hidden[(0, 0)] = 7.0;
        ws.ensure(&params, 3, 1);
        assert_eq!(ws.hidden[(0, 0)], 7.0);

        // Geometry change: reset-on-resize.
        ws.ensure(&params, 4, 2);
        assert_eq!(ws.hidden.shape(), (4, 8));
        assert_eq!(ws.raw_shards.len(), 2);
        assert_eq!(ws.hidden[(0, 0)], 0.0);
    }
}
