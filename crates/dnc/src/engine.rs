//! The unified [`MemoryEngine`] stepping interface.
//!
//! HiMA's premise is **one** memory-access engine serving many
//! configurations — monolithic DNC, `N_t`-sharded DNC-D, batched lanes,
//! fixed-point datapaths. The functional model has the same shape: one
//! engine, [`BatchDncD`](crate::BatchDncD), configured by
//! [`EngineBuilder`](crate::EngineBuilder), steps through this trait, so
//! harnesses and figure binaries sweep topology × lanes × datapath from a
//! single code path.
//!
//! The signatures are batched: a step consumes a `B × input_size` block
//! and produces a `B × output_size` block, and the provided
//! [`MemoryEngine::step`] is the `B = 1` convenience on top.
//!
//! # Example
//!
//! ```
//! use hima_dnc::{DncParams, EngineBuilder, MemoryEngine};
//! use hima_tensor::Matrix;
//!
//! let params = DncParams::new(32, 8, 2).with_io(4, 4);
//! // Sweep two topologies through the same driver code.
//! for engine in [
//!     EngineBuilder::new(params).lanes(3).seed(7).build(),
//!     EngineBuilder::new(params).sharded(4).lanes(3).seed(7).build(),
//! ] {
//!     let mut engine = engine;
//!     let y = engine.step_batch(&Matrix::zeros(3, 4));
//!     assert_eq!(y.shape(), (3, 4));
//!     assert_eq!(engine.last_read_rows().rows(), 3);
//! }
//! ```

use crate::batch::LaneState;
use crate::profile::KernelProfile;
use crate::DncParams;
use hima_tensor::{LaneMask, Matrix};

/// One stepping API over every DNC engine configuration.
///
/// The engine processes `B` independent lanes through shared weights.
/// All methods are object safe — harnesses typically hold a
/// [`BoxedEngine`](crate::BoxedEngine) from
/// [`EngineBuilder::build`](crate::EngineBuilder::build).
pub trait MemoryEngine {
    /// Runs one time step for every lane: `inputs` is `B × input_size`
    /// (row `b` is lane `b`'s token); the result is `B × output_size`.
    /// Allocating convenience over [`MemoryEngine::step_batch_into`] (the
    /// one allocation is the returned output block).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size`.
    fn step_batch(&mut self, inputs: &Matrix) -> Matrix;

    /// Runs one *masked* time step for ragged batches: only the lanes
    /// `mask` marks active advance (bit-identically to stepping each
    /// lane's episode alone), while an inactive lane's state — recurrent,
    /// memory, last read vector — stays frozen and its input row is
    /// treated as padding. Inactive rows of the returned block are zero;
    /// a fully-active mask *is* [`MemoryEngine::step_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    fn step_batch_masked(&mut self, inputs: &Matrix, mask: &LaneMask) -> Matrix;

    /// Output-buffer form of [`MemoryEngine::step_batch`]: writes the
    /// `B × output_size` block into `out` (resized in place on shape
    /// mismatch) with **zero heap allocations** in the steady state,
    /// bit-identical to `step_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size`.
    fn step_batch_into(&mut self, inputs: &Matrix, out: &mut Matrix);

    /// Output-buffer form of [`MemoryEngine::step_batch_masked`] (see
    /// [`MemoryEngine::step_batch_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `B × input_size` or
    /// `mask.lanes() != B`.
    fn step_batch_masked_into(&mut self, inputs: &Matrix, mask: &LaneMask, out: &mut Matrix);

    /// Number of batch lanes `B`.
    fn batch(&self) -> usize;

    /// The model hyper-parameters.
    fn params(&self) -> &DncParams;

    /// The `B × R·W` block of read vectors fed to the controller at the
    /// next step (row `b` is lane `b`'s flattened — for DNC-D, merged —
    /// read vectors).
    fn last_read_rows(&self) -> Matrix;

    /// Lane `lane`'s last read vector, borrowed — the allocation-free
    /// accessor the per-step harness loops use (where
    /// [`MemoryEngine::last_read_rows`] would clone the whole block).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    fn last_read_row(&self, lane: usize) -> &[f32];

    /// The `B × (H + R·W)` feature block `[h_t ; v_r]` per lane — what
    /// the output projection consumes, and what a trained readout
    /// regresses on.
    fn last_features_rows(&self) -> Matrix;

    /// Kernel profile aggregated over the controller and every lane's
    /// memory unit(s).
    fn profile(&self) -> KernelProfile;

    /// Switches wall-clock kernel sampling on or off across the whole
    /// engine (see [`KernelProfile::set_enabled`]). Engines from
    /// [`EngineBuilder`](crate::EngineBuilder) default to **off** — steady
    /// state steps then never read the clock; opt in with
    /// [`EngineBuilder::profiling`](crate::EngineBuilder::profiling) or
    /// this method.
    fn set_profiling(&mut self, on: bool);

    /// Resets memory and recurrent state of every lane (weights
    /// unchanged).
    fn reset(&mut self);

    /// Detaches a snapshot of lane `lane`'s complete session state — the
    /// state-splice primitive a serving grid uses to park a session off
    /// the grid. The lane itself is untouched; re-attaching the snapshot
    /// with [`MemoryEngine::import_lane`] — to any lane of any engine
    /// built from the same spec/params/seed — is a bit-exact round trip.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    fn export_lane(&self, lane: usize) -> LaneState;

    /// Splices a snapshot from [`MemoryEngine::export_lane`] into lane
    /// `lane`. After the splice the lane steps bit-identically to the
    /// engine the snapshot came from.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()` or the snapshot's geometry disagrees.
    fn import_lane(&mut self, lane: usize, state: &LaneState);

    /// Resets a *single* lane to blank state, leaving every other lane
    /// untouched — how a serving grid recycles a freed lane slot. A reset
    /// lane steps bit-identically to a lane of a freshly built engine.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= batch()`.
    fn reset_lane(&mut self, lane: usize);

    /// Runs a whole synchronized sequence: `steps[t]` is the
    /// `B × input_size` block for time `t`; returns one `B × output_size`
    /// block per step.
    fn run_sequence_batch(&mut self, steps: &[Matrix]) -> Vec<Matrix> {
        steps.iter().map(|x| self.step_batch(x)).collect()
    }

    /// `B = 1` convenience: steps the single lane on `input` and returns
    /// its output vector.
    ///
    /// # Panics
    ///
    /// Panics if the engine has more than one lane or `input` has the
    /// wrong width.
    fn step(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(self.batch(), 1, "step() is the B=1 convenience; use step_batch()");
        let y = self.step_batch(&Matrix::from_rows(&[input]));
        y.row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::Dnc;

    fn params() -> DncParams {
        DncParams::new(16, 4, 1).with_hidden(16).with_io(4, 4)
    }

    fn fnv1a(hash: &mut u64, values: &[f32]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Drives any engine through the trait only; returns the FNV-1a
    /// digest of its outputs, then its read and feature rows.
    fn drive(engine: &mut dyn MemoryEngine, steps: usize) -> u64 {
        let b = engine.batch();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for t in 0..steps {
            let x = Matrix::from_fn(b, engine.params().input_size, |lane, i| {
                (((lane * 31 + t * 7 + i) as f32) * 0.19).sin()
            });
            fnv1a(&mut hash, engine.step_batch(&x).as_slice());
        }
        fnv1a(&mut hash, engine.last_read_rows().as_slice());
        fnv1a(&mut hash, engine.last_features_rows().as_slice());
        hash
    }

    /// Digests recorded from the sequential `Dnc` and `DncD(2)` models
    /// (seed 3) before they became views over the one engine.
    #[test]
    fn all_variants_step_through_the_trait() {
        let recorded = [0xbfd9_4384_406f_04eb, 0xc49c_d4ac_caa3_91cf];
        let builders = [EngineBuilder::new(params()), EngineBuilder::new(params()).sharded(2)];
        for (builder, want) in builders.into_iter().zip(recorded) {
            let label = builder.spec().label();
            let mut engine = builder.seed(3).build();
            assert_eq!(drive(engine.as_mut(), 3), want, "{label}");
            assert_eq!(engine.last_read_rows().shape(), (1, 4));
            assert_eq!(engine.last_features_rows().shape(), (1, 16 + 4));
        }
    }

    /// Output bits recorded from the sequential `Dnc` (seed 9) before it
    /// became a view over the one engine.
    #[test]
    fn trait_step_matches_inherent_step_for_dnc() {
        let x = [0.3f32, -0.2, 0.5, 0.1];
        let recorded = [0xbc06_fbca, 0x3c7e_82b2, 0x3c24_34c3, 0xbb28_6ea4];
        let mut engine = EngineBuilder::new(params()).seed(9).build();
        let y = MemoryEngine::step(engine.as_mut(), &x);
        assert_eq!(y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), recorded);
        assert_eq!(Dnc::new(params(), 9).step(&x), y);
    }

    #[test]
    fn run_sequence_batch_default_matches_stepping() {
        let steps: Vec<Matrix> =
            (0..4).map(|t| Matrix::filled(1, 4, t as f32 * 0.1)).collect();
        let mut a = EngineBuilder::new(params()).seed(5).build();
        let seq = a.run_sequence_batch(&steps);
        let mut b = EngineBuilder::new(params()).seed(5).build();
        for (x, want) in steps.iter().zip(&seq) {
            assert_eq!(&b.step_batch(x), want);
        }
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn dnc_rejects_multi_row_blocks() {
        EngineBuilder::new(params()).build().step_batch(&Matrix::zeros(2, 4));
    }

    #[test]
    fn batched_engines_override_the_shim_with_true_masking() {
        let p = params();
        let mut engine = EngineBuilder::new(p).lanes(2).seed(4).build();
        let x = Matrix::filled(2, 4, 0.1);
        engine.step_batch(&x);
        let frozen = engine.last_read_rows();
        // Lane 1 inactive: its read row must not move.
        let y = engine
            .step_batch_masked(&x, &hima_tensor::LaneMask::from(vec![true, false]));
        assert!(y.row(1).iter().all(|&v| v == 0.0), "inactive output row is zero");
        assert_eq!(engine.last_read_rows().row(1), frozen.row(1), "lane 1 frozen");
        assert_ne!(engine.last_read_rows().row(0), frozen.row(0), "lane 0 advanced");
    }
}
