//! The complete DNC: LSTM controller + memory unit + output projection.
//!
//! One [`Dnc::step`] performs: controller inference on the input
//! concatenated with the previous read vectors, interface-vector projection
//! and parsing, one memory-unit soft write + soft read, and the output
//! projection over `[h_t ; v_r]`. [`Dnc`] is a one-lane view over the one
//! engine, [`BatchDncD`] with a single tile covering all `N` rows: it owns
//! no step code of its own.

use crate::batch::BatchDncD;
use crate::builder::Datapath;
use crate::engine::MemoryEngine;
use crate::memory::{MemoryConfig, MemoryUnit};
use crate::profile::KernelProfile;
use crate::DncParams;

/// A complete Differentiable Neural Computer.
///
/// # Example
///
/// ```
/// use hima_dnc::{Dnc, DncParams};
///
/// let mut dnc = Dnc::new(DncParams::new(16, 4, 1).with_io(3, 3), 7);
/// let y1 = dnc.step(&[1.0, 0.0, 0.0]);
/// let y2 = dnc.step(&[0.0, 1.0, 0.0]);
/// assert_eq!(y1.len(), 3);
/// assert_ne!(y1, y2, "memory state makes steps differ");
/// ```
#[derive(Debug, Clone)]
pub struct Dnc {
    engine: BatchDncD,
}

impl Dnc {
    /// Creates a DNC with procedurally initialized weights and an exact
    /// (centralized-sorter, exact-softmax) memory unit. Kernel sampling
    /// is on.
    pub fn new(params: DncParams, seed: u64) -> Self {
        let mem_cfg = MemoryConfig::new(params.memory_size, params.word_size, params.read_heads);
        Self::with_memory_config(params, mem_cfg, seed)
    }

    /// Creates a DNC with a custom memory-unit configuration (sorter model,
    /// skimming, softmax approximation).
    ///
    /// # Panics
    ///
    /// Panics if `mem_cfg` geometry disagrees with `params`.
    pub fn with_memory_config(params: DncParams, mem_cfg: MemoryConfig, seed: u64) -> Self {
        assert_eq!(mem_cfg.memory_size, params.memory_size, "memory geometry mismatch");
        assert_eq!(mem_cfg.word_size, params.word_size, "word size mismatch");
        assert_eq!(mem_cfg.read_heads, params.read_heads, "read head mismatch");
        Self { engine: BatchDncD::new(params, mem_cfg, 1, Datapath::F32, 1, seed) }
    }

    /// The model hyper-parameters.
    pub fn params(&self) -> &DncParams {
        self.engine.params()
    }

    /// The memory unit (for state inspection).
    pub fn memory(&self) -> &MemoryUnit {
        self.engine.shard_units(0).next().expect("one tile")
    }

    /// The read vectors fed to the controller at the next step.
    pub fn last_read(&self) -> &[f32] {
        self.engine.last_read_row(0)
    }

    /// The feature vector `[h_t ; v_r]` the output projection consumes —
    /// also the features a trained readout regresses on.
    pub fn last_features(&self) -> Vec<f32> {
        self.engine.last_features_rows().as_slice().to_vec()
    }

    /// Merged kernel profile (controller + memory unit).
    pub fn profile(&self) -> KernelProfile {
        self.engine.profile()
    }

    /// Clears all profiling counters.
    pub fn reset_profile(&mut self) {
        self.engine.reset_profile();
    }

    /// Switches wall-clock kernel sampling on or off for controller and
    /// memory unit alike.
    pub fn set_profiling(&mut self, on: bool) {
        self.engine.set_profiling(on);
    }

    /// Resets memory and recurrent state (weights unchanged).
    pub fn reset(&mut self) {
        self.engine.reset();
    }

    /// Runs one time step and returns the output vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != params.input_size`.
    pub fn step(&mut self, input: &[f32]) -> Vec<f32> {
        self.engine.step(input)
    }

    /// Runs a whole input sequence, returning one output per step.
    pub fn run_sequence(&mut self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        inputs.iter().map(|x| self.step(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::SkimRate;
    use crate::memory::SorterKind;
    use crate::profile::KernelId;

    fn params() -> DncParams {
        DncParams::new(16, 4, 2).with_hidden(24).with_io(5, 6)
    }

    #[test]
    fn output_width_matches_params() {
        let mut dnc = Dnc::new(params(), 3);
        assert_eq!(dnc.step(&[0.1; 5]).len(), 6);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Dnc::new(params(), 11);
        let mut b = Dnc::new(params(), 11);
        for t in 0..5 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 5 + i) as f32 * 0.3).sin()).collect();
            assert_eq!(a.step(&x), b.step(&x), "t={t}");
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        let mut a = Dnc::new(params(), 1);
        let mut b = Dnc::new(params(), 2);
        assert_ne!(a.step(&[0.5; 5]), b.step(&[0.5; 5]));
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut dnc = Dnc::new(params(), 5);
        let first = dnc.step(&[1.0, 0.0, 0.0, 0.0, 0.0]);
        for _ in 0..10 {
            dnc.step(&[0.3; 5]);
        }
        dnc.reset();
        let again = dnc.step(&[1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(first, again);
    }

    #[test]
    fn memory_state_influences_outputs() {
        let mut dnc = Dnc::new(params(), 9);
        let y1 = dnc.step(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let y2 = dnc.step(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_ne!(y1, y2, "same input must give different output once state evolves");
    }

    #[test]
    fn invariants_hold_through_a_long_run() {
        let mut dnc = Dnc::new(params(), 13);
        for t in 0..60 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 3 + i * 7) as f32 * 0.11).cos()).collect();
            dnc.step(&x);
            assert!(dnc.memory().check_invariants(1e-3), "t={t}");
        }
    }

    #[test]
    fn profile_includes_controller_and_memory() {
        let mut dnc = Dnc::new(params(), 4);
        dnc.step(&[0.2; 5]);
        let p = dnc.profile();
        assert_eq!(p.calls(KernelId::Lstm), 1);
        assert!(p.calls(KernelId::MemoryRead) > 0);
    }

    #[test]
    fn run_sequence_matches_stepping() {
        let inputs: Vec<Vec<f32>> = (0..6).map(|t| vec![t as f32 * 0.1; 5]).collect();
        let mut a = Dnc::new(params(), 21);
        let seq = a.run_sequence(&inputs);
        let mut b = Dnc::new(params(), 21);
        for (x, want) in inputs.iter().zip(&seq) {
            assert_eq!(&b.step(x), want);
        }
    }

    #[test]
    fn hardware_features_are_close_to_exact() {
        let exact_params = params();
        let mut exact = Dnc::new(exact_params, 17);
        let cfg = MemoryConfig::new(16, 4, 2)
            .with_sorter(SorterKind::TwoStage { tiles: 4 })
            .with_skim(SkimRate::new(0.2))
            .with_approx_softmax(true);
        let mut hw = Dnc::with_memory_config(exact_params, cfg, 17);
        let mut max_err = 0.0f32;
        for t in 0..20 {
            let x: Vec<f32> = (0..5).map(|i| ((t * 7 + i) as f32 * 0.23).sin()).collect();
            let ye = exact.step(&x);
            let yh = hw.step(&x);
            for (a, b) in ye.iter().zip(&yh) {
                max_err = max_err.max((a - b).abs());
            }
        }
        assert!(max_err < 0.5, "hardware approximations diverged: {max_err}");
        assert!(max_err > 0.0, "approximations should not be bit-identical");
    }
}
