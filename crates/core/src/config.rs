//! Pipeline configurations — the experimental conditions of the paper's
//! evaluation.

use sxr_opt::OptOptions;
use sxr_vm::FaultPlan;

/// How the primitive layer is provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveMode {
    /// Primitives are ordinary library code over first-class representation
    /// types (the paper's system).
    Abstract,
    /// Primitives are compiler intrinsics with hand-written expansions (the
    /// conventional baseline).
    Traditional,
}

/// A full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Primitive layer flavour.
    pub mode: PrimitiveMode,
    /// Optimizer settings ([`OptOptions::none`] disables everything).
    pub opt: OptOptions,
    /// Initial VM heap, in words.
    pub heap_words: usize,
    /// Optional instruction budget for runs.
    pub instruction_limit: Option<u64>,
    /// Re-verify the IR after every optimizer pass, attributing any broken
    /// invariant to the pass that introduced it.  Only the per-pass checks
    /// hang on this: the closure-converted module is verified on every
    /// compile.  Defaults on in debug builds and tests, off in release
    /// builds.
    pub verify_passes: bool,
    /// Deterministic fault-injection schedule for machine runs (defaults to
    /// none).  See [`FaultPlan`]; the chaos battery runs the whole corpus
    /// under adversarial schedules and requires results identical to a
    /// fault-free run or a structured out-of-memory error.
    pub fault: FaultPlan,
}

impl PipelineConfig {
    /// The paper's system: abstract primitives + the general optimizer.
    pub fn abstract_optimized() -> PipelineConfig {
        PipelineConfig {
            mode: PrimitiveMode::Abstract,
            opt: OptOptions::default(),
            heap_words: 1 << 21,
            instruction_limit: None,
            verify_passes: cfg!(debug_assertions),
            fault: FaultPlan::default(),
        }
    }

    /// Abstract primitives with the optimizer off — what the abstraction
    /// costs if you *don't* have the transformations.
    pub fn abstract_unoptimized() -> PipelineConfig {
        PipelineConfig {
            mode: PrimitiveMode::Abstract,
            opt: OptOptions::none(),
            heap_words: 1 << 21,
            instruction_limit: None,
            verify_passes: cfg!(debug_assertions),
            fault: FaultPlan::default(),
        }
    }

    /// The conventional baseline: intrinsics + the same general optimizer.
    pub fn traditional() -> PipelineConfig {
        PipelineConfig {
            mode: PrimitiveMode::Traditional,
            opt: OptOptions::default(),
            heap_words: 1 << 21,
            instruction_limit: None,
            verify_passes: cfg!(debug_assertions),
            fault: FaultPlan::default(),
        }
    }

    /// The paper's system with one named optimizer pass disabled (ablation).
    ///
    /// # Panics
    ///
    /// Panics on an unknown pass name (see [`OptOptions::without`]).
    pub fn ablated(pass: &str) -> PipelineConfig {
        let mut cfg = PipelineConfig::abstract_optimized();
        cfg.opt = cfg.opt.without(pass);
        cfg
    }

    /// Sets the instruction budget.
    pub fn with_instruction_limit(mut self, limit: u64) -> PipelineConfig {
        self.instruction_limit = Some(limit);
        self
    }

    /// Sets the initial heap size in words.
    pub fn with_heap_words(mut self, words: usize) -> PipelineConfig {
        self.heap_words = words;
        self
    }

    /// Turns the per-pass IR checks on or off (see
    /// [`PipelineConfig::verify_passes`]).
    pub fn with_verify_passes(mut self, on: bool) -> PipelineConfig {
        self.verify_passes = on;
        self
    }

    /// Installs a fault-injection schedule for machine runs (see
    /// [`FaultPlan`]).
    pub fn with_fault(mut self, fault: FaultPlan) -> PipelineConfig {
        self.fault = fault;
        self
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match (self.mode, self.opt.rounds) {
            (PrimitiveMode::Traditional, _) => "Traditional",
            (PrimitiveMode::Abstract, 0) => "AbstractNoOpt",
            (PrimitiveMode::Abstract, _) => "AbstractOpt",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PipelineConfig::abstract_optimized().label(), "AbstractOpt");
        assert_eq!(
            PipelineConfig::abstract_unoptimized().label(),
            "AbstractNoOpt"
        );
        assert_eq!(PipelineConfig::traditional().label(), "Traditional");
    }

    #[test]
    fn ablation_disables_pass() {
        let cfg = PipelineConfig::ablated("repspec");
        assert!(!cfg.opt.repspec);
        assert!(cfg.opt.inline);
    }

    #[test]
    fn fault_builder() {
        let cfg = PipelineConfig::abstract_optimized();
        assert!(cfg.fault.is_none(), "default config injects nothing");
        let chaotic = cfg.with_fault(FaultPlan::none().with_gc_every_alloc());
        assert!(chaotic.fault.gc_every_alloc);
    }

    #[test]
    fn verify_passes_builder() {
        assert!(
            PipelineConfig::abstract_optimized()
                .with_verify_passes(true)
                .verify_passes
        );
        assert!(
            !PipelineConfig::abstract_optimized()
                .with_verify_passes(false)
                .verify_passes
        );
    }
}
