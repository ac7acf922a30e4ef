//! Running one experiment point and whole workload suites.
//!
//! This module is a thin configuration layer over
//! [`multivliw::pipeline`]: a [`RunConfig`] names the (scheduler,
//! threshold, simulation options) point of an experiment grid, and
//! [`run_loop`] / [`run_suite`] turn it into a [`Pipeline`] for the given
//! machine. The schedule → simulate → report sequence itself lives only in
//! the pipeline.

use multivliw::pipeline::Pipeline;
use multivliw::Error;
use mvp_core::SchedulerOptions;
use mvp_exec::Executor;
use mvp_ir::Loop;
use mvp_machine::MachineConfig;
use mvp_sim::SimOptions;
use mvp_workloads::Workload;
use std::sync::Arc;

pub use multivliw::pipeline::{
    LoopReport as RunResult, PipelineReport as SuiteResult, SchedulerChoice as SchedulerKind,
};

/// One experiment point configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which scheduler to use.
    pub scheduler: SchedulerKind,
    /// Cache-miss threshold for miss-latency scheduling.
    pub threshold: f64,
    /// Simulation options.
    pub sim: SimOptions,
}

impl RunConfig {
    /// Point configuration with the given scheduler and threshold 1.0.
    #[must_use]
    pub fn new(scheduler: SchedulerKind) -> Self {
        Self {
            scheduler,
            threshold: 1.0,
            sim: SimOptions::new(),
        }
    }

    /// Returns a copy with the given threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Builds the end-to-end pipeline for this point on the given machine
    /// (batch runs use the process-wide executor).
    ///
    /// The machine is passed as a shared handle: experiment grids build one
    /// `Arc` per machine and every (scheduler, threshold) point of the grid
    /// reuses it, instead of deep-cloning the configuration per point.
    ///
    /// # Errors
    ///
    /// Propagates pipeline-construction errors (invalid machine, Unified
    /// paired with a clustered machine).
    pub fn pipeline(&self, machine: &Arc<MachineConfig>) -> Result<Pipeline, Error> {
        self.pipeline_on(machine, &Executor::global())
    }

    /// Like [`pipeline`](Self::pipeline), with an explicit executor for the
    /// pipeline's batch runs (an [`Executor`] is a cheap value — cloning
    /// one shares no state beyond its width).
    ///
    /// # Errors
    ///
    /// Propagates pipeline-construction errors.
    pub fn pipeline_on(
        &self,
        machine: &Arc<MachineConfig>,
        executor: &Executor,
    ) -> Result<Pipeline, Error> {
        Pipeline::builder()
            .scheduler(self.scheduler)
            .machine(Arc::clone(machine))
            .scheduler_options(SchedulerOptions::new().with_threshold(self.threshold))
            .sim_options(self.sim)
            .executor(Arc::new(executor.clone()))
            .build()
    }
}

/// Schedules and simulates one loop on one machine.
///
/// # Errors
///
/// Propagates any [`Error`] from the pipeline.
pub fn run_loop(
    l: &Loop,
    machine: &Arc<MachineConfig>,
    config: &RunConfig,
) -> Result<RunResult, Error> {
    config.pipeline(machine)?.run(l)
}

/// Schedules and simulates every loop of every workload: each loop of the
/// whole suite is one job on the pipeline's executor, so a long workload
/// no longer pins a thread while small kernels finish early.
///
/// # Errors
///
/// Returns the first scheduling error encountered (in suite order,
/// independent of the thread count).
pub fn run_suite(
    workloads: &[Workload],
    machine: &Arc<MachineConfig>,
    config: &RunConfig,
) -> Result<SuiteResult, Error> {
    config.pipeline(machine)?.run_workloads(workloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::presets;
    use mvp_workloads::suite::{suite, SuiteParams};

    #[test]
    fn run_loop_produces_consistent_results() {
        let workloads = suite(&SuiteParams::small());
        let machine = Arc::new(presets::two_cluster());
        let cfg = RunConfig::new(SchedulerKind::Rmca).with_threshold(0.0);
        let r = run_loop(&workloads[0].loops[0], &machine, &cfg).unwrap();
        assert_eq!(r.loop_name, workloads[0].loops[0].name());
        assert!(r.ii >= 1);
        assert_eq!(
            r.total_cycles(),
            r.stats.compute_cycles + r.stats.stall_cycles
        );
    }

    #[test]
    fn run_suite_aggregates_all_loops() {
        let workloads = suite(&SuiteParams::small());
        let machine = Arc::new(presets::unified());
        let cfg = RunConfig::new(SchedulerKind::Baseline);
        let result = run_suite(&workloads, &machine, &cfg).unwrap();
        let loops: usize = workloads.iter().map(|w| w.loops.len()).sum();
        assert_eq!(result.runs.len(), loops);
        assert_eq!(
            result.total_cycles(),
            result.compute_cycles + result.stall_cycles
        );
        // Normalising a run against itself is 1.0.
        assert!((result.normalized_to(&result) - 1.0).abs() < 1e-12);
        let parts = result.normalized_compute(&result) + result.normalized_stall(&result);
        assert!((parts - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scheduler_kind_helpers() {
        assert_eq!(SchedulerKind::Baseline.to_string(), "baseline");
        assert_eq!(SchedulerKind::Rmca.name(), "rmca");
        assert_eq!(SchedulerKind::ALL.len(), 2);
    }
}
