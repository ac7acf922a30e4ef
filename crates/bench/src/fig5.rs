//! Figure 5: normalised cycles with an *unbounded* number of buses.
//!
//! The paper sweeps the latency of the register buses (LRB ∈ {1, 2, 4}) and
//! of the memory buses (LMB ∈ {1, 2, 4}) with an unlimited number of both,
//! for the 2- and 4-cluster configurations, the Baseline and RMCA schedulers
//! and cache-miss thresholds {1.00, 0.75, 0.25, 0.00}. Every bar is the
//! total cycle count over the benchmark suite, normalised to the Unified
//! configuration, and split into compute and stall cycles.

use crate::report::{norm, Table};
use crate::runner::RunConfig;
use multivliw::pipeline::{PipelineReport, SchedulerChoice};
use multivliw::Error;
use mvp_exec::Executor;
use mvp_machine::{presets, BusConfig, MachineConfig};
use mvp_workloads::suite::{suite, SuiteParams};
use std::sync::Arc;

/// The threshold values of the paper's figures, in presentation order.
pub const THRESHOLDS: [f64; 4] = [1.0, 0.75, 0.25, 0.0];

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Number of clusters (2 or 4).
    pub clusters: usize,
    /// Latency of the register buses.
    pub lrb: u32,
    /// Latency of the memory buses.
    pub lmb: u32,
    /// Scheduler used.
    pub scheduler: SchedulerChoice,
    /// Cache-miss threshold.
    pub threshold: f64,
    /// Compute cycles normalised to the Unified reference total.
    pub normalized_compute: f64,
    /// Stall cycles normalised to the Unified reference total.
    pub normalized_stall: f64,
    /// Total cycles normalised to the Unified reference total.
    pub normalized_total: f64,
}

/// The whole figure: reference bars plus the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutput {
    /// Number of clusters of the clustered configuration.
    pub clusters: usize,
    /// Unified-configuration bars (one per threshold), normalised to the
    /// threshold-1.0 Unified total.
    pub unified: Vec<SweepPoint>,
    /// Clustered-configuration bars.
    pub points: Vec<SweepPoint>,
}

fn point(
    clusters: usize,
    lrb: u32,
    lmb: u32,
    scheduler: SchedulerChoice,
    threshold: f64,
    result: &PipelineReport,
    reference: &PipelineReport,
) -> SweepPoint {
    SweepPoint {
        clusters,
        lrb,
        lmb,
        scheduler,
        threshold,
        normalized_compute: result.normalized_compute(reference),
        normalized_stall: result.normalized_stall(reference),
        normalized_total: result.normalized_to(reference),
    }
}

/// Runs the Figure-5 sweep for the given cluster count (2 or 4) on the
/// process-wide executor.
///
/// # Errors
///
/// Propagates the first scheduling error (none is expected for the bundled
/// workloads and machines).
pub fn run(clusters: usize, params: &SuiteParams) -> Result<SweepOutput, Error> {
    run_on(clusters, params, &Executor::global())
}

/// Like [`run`], on an explicit executor (the output is identical for any
/// thread count; see `crates/bench/tests/determinism.rs`).
///
/// # Errors
///
/// Propagates the first scheduling error.
pub fn run_on(
    clusters: usize,
    params: &SuiteParams,
    executor: &Executor,
) -> Result<SweepOutput, Error> {
    run_with(
        clusters,
        params,
        &[1, 2, 4],
        &[1, 2, 4],
        &THRESHOLDS,
        executor,
    )
}

/// Runs a reduced sweep (the binary's quick mode and the tests) on
/// the process-wide executor.
///
/// # Errors
///
/// Propagates the first scheduling error.
pub fn run_quick(clusters: usize, params: &SuiteParams) -> Result<SweepOutput, Error> {
    run_quick_on(clusters, params, &Executor::global())
}

/// Like [`run_quick`], on an explicit executor.
///
/// # Errors
///
/// Propagates the first scheduling error.
pub fn run_quick_on(
    clusters: usize,
    params: &SuiteParams,
    executor: &Executor,
) -> Result<SweepOutput, Error> {
    run_with(clusters, params, &[1], &[1, 4], &[1.0, 0.0], executor)
}

fn run_with(
    clusters: usize,
    params: &SuiteParams,
    lrbs: &[u32],
    lmbs: &[u32],
    thresholds: &[f64],
    executor: &Executor,
) -> Result<SweepOutput, Error> {
    let mut grid = Vec::new();
    for &lrb in lrbs {
        for &lmb in lmbs {
            // One shared handle per grid point; the (scheduler, threshold)
            // jobs under it all reuse it instead of cloning the config.
            grid.push(GridPoint {
                axis_a: lrb,
                axis_b: lmb,
                machine: Arc::new(
                    presets::by_cluster_count(clusters)
                        .with_register_buses(BusConfig::unbounded(lrb))
                        .with_memory_buses(BusConfig::unbounded(lmb))
                        .with_name(format!("{clusters}-cluster LRB={lrb} LMB={lmb}")),
                ),
            });
        }
    }
    run_grid(clusters, params, thresholds, &grid, executor)
}

/// One clustered machine of a sweep grid, with the two axis values that
/// name it in the output (`SweepPoint::lrb`/`lmb` — figure 6 carries its
/// memory-bus count in the first axis).
pub(crate) struct GridPoint {
    pub(crate) axis_a: u32,
    pub(crate) axis_b: u32,
    pub(crate) machine: Arc<MachineConfig>,
}

/// One bar of a sweep, ready to run as an executor job.
struct GridJob {
    clusters: usize,
    axis_a: u32,
    axis_b: u32,
    scheduler: SchedulerChoice,
    threshold: f64,
    machine: Arc<MachineConfig>,
}

/// Shared scaffolding of the figure-5/figure-6 sweeps: the unified
/// reference pass, then one executor job per bar — the unified threshold
/// sweep followed by every (grid point, scheduler, threshold) combination.
///
/// Jobs are listed (and their results collected) in presentation order, so
/// the output is identical for any thread count; the suite runs *inside*
/// each job inherit `executor`, so an explicit 1-thread executor really is
/// sequential end to end. On a multi-thread executor the nested per-loop
/// maps run inline on their worker — balance comes from the grid being
/// much wider than the pool.
pub(crate) fn run_grid(
    clusters: usize,
    params: &SuiteParams,
    thresholds: &[f64],
    grid: &[GridPoint],
    executor: &Executor,
) -> Result<SweepOutput, Error> {
    let workloads = suite(params);
    let unified_machine = Arc::new(presets::unified());
    let reference = RunConfig::new(SchedulerChoice::Baseline)
        .pipeline_on(&unified_machine, executor)?
        .run_workloads(&workloads)?;

    let mut jobs: Vec<GridJob> = thresholds
        .iter()
        .map(|&threshold| GridJob {
            clusters: 1,
            axis_a: 0,
            axis_b: 0,
            scheduler: SchedulerChoice::Baseline,
            threshold,
            machine: Arc::clone(&unified_machine),
        })
        .collect();
    let num_unified = jobs.len();
    for point in grid {
        for scheduler in SchedulerChoice::ALL {
            for &threshold in thresholds {
                jobs.push(GridJob {
                    clusters,
                    axis_a: point.axis_a,
                    axis_b: point.axis_b,
                    scheduler,
                    threshold,
                    machine: Arc::clone(&point.machine),
                });
            }
        }
    }

    let results = executor.map(&jobs, |job| {
        RunConfig::new(job.scheduler)
            .with_threshold(job.threshold)
            .pipeline_on(&job.machine, executor)?
            .run_workloads(&workloads)
    });
    let mut bars = Vec::with_capacity(jobs.len());
    for (job, result) in jobs.iter().zip(results) {
        let r = result?;
        bars.push(point(
            job.clusters,
            job.axis_a,
            job.axis_b,
            job.scheduler,
            job.threshold,
            &r,
            &reference,
        ));
    }
    let points = bars.split_off(num_unified);
    Ok(SweepOutput {
        clusters,
        unified: bars,
        points,
    })
}

/// Renders the sweep as a text table (one row per bar, like the figure's
/// bars left to right).
#[must_use]
pub fn render(output: &SweepOutput) -> String {
    let mut t = Table::new(vec![
        "config",
        "scheduler",
        "threshold",
        "compute",
        "stall",
        "total",
    ]);
    for p in &output.unified {
        t.row(vec![
            "unified".to_string(),
            p.scheduler.name().to_string(),
            format!("{:.2}", p.threshold),
            norm(p.normalized_compute),
            norm(p.normalized_stall),
            norm(p.normalized_total),
        ]);
    }
    for p in &output.points {
        t.row(vec![
            format!("{}c LRB={} LMB={}", p.clusters, p.lrb, p.lmb),
            p.scheduler.name().to_string(),
            format!("{:.2}", p.threshold),
            norm(p.normalized_compute),
            norm(p.normalized_stall),
            norm(p.normalized_total),
        ]);
    }
    format!(
        "Figure 5({}) — unbounded buses, {}-cluster (cycles normalised to Unified)\n{}",
        if output.clusters == 2 { "a" } else { "b" },
        output.clusters,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reproduces_the_figure_shape() {
        let out = run_quick(2, &SuiteParams::small()).unwrap();
        assert_eq!(out.unified.len(), 2);
        assert!(!out.points.is_empty());
        // Unified reference normalises to 1.0 at threshold 1.0.
        assert!((out.unified[0].normalized_total - 1.0).abs() < 1e-9);
        for p in out.points.iter().chain(&out.unified) {
            // Compute + stall always equals the total.
            assert!((p.normalized_compute + p.normalized_stall - p.normalized_total).abs() < 1e-9);
        }
        // RMCA never loses to Baseline at the same configuration.
        for pair in out.points.chunks(4) {
            // chunks are [baseline th1, baseline th0, rmca th1, rmca th0]
            // per (lrb, lmb) in run_quick's nesting order.
            let base_best = pair[0].normalized_total.min(pair[1].normalized_total);
            let rmca_best = pair[2].normalized_total.min(pair[3].normalized_total);
            assert!(
                rmca_best <= base_best * 1.02,
                "RMCA ({rmca_best:.3}) should not lose to Baseline ({base_best:.3})"
            );
        }
        // Lower thresholds shrink the stall share.
        for pair in out.points.chunks(2) {
            assert!(
                pair[1].normalized_stall <= pair[0].normalized_stall + 1e-9,
                "threshold 0.0 should not stall more than threshold 1.0"
            );
        }
        let text = render(&out);
        assert!(text.contains("Figure 5"));
    }
}
