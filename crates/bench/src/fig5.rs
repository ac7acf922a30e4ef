//! Figures 5 and 6: normalised cycles over a bus grid.
//!
//! Both figures are one experiment under two bus models. Every bar is the
//! total cycle count over the benchmark suite for the 2- or 4-cluster
//! configuration, the Baseline or RMCA scheduler and a cache-miss threshold
//! in {1.00, 0.75, 0.25, 0.00}, normalised to the Unified configuration and
//! split into compute and stall cycles.
//!
//! * [`Figure::Unbounded`] (Figure 5) sweeps the latency of the register
//!   buses (LRB ∈ {1, 2, 4}) and of the memory buses (LMB ∈ {1, 2, 4}) with
//!   an unlimited number of both.
//! * [`Figure::Realistic`] (Figure 6) fixes the register buses (2 buses,
//!   1-cycle latency) and sweeps the number of memory buses (NMB ∈ {1, 2})
//!   and their latency (LMB ∈ {1, 4}). With few memory buses, fewer misses
//!   also mean less time waiting for a free bus, which is where RMCA pulls
//!   clearly ahead of the baseline (the paper reports ≈5% at 2 clusters and
//!   ≈20% at 4 clusters for threshold 0.00).

use crate::report::{arg, norm, print_report, Table};
use multivliw::pipeline::{Pipeline, SchedulerChoice};
use multivliw::Error;
use mvp_exec::Executor;
use mvp_machine::{presets, BusConfig, MachineConfig};
use mvp_workloads::suite::{suite, SuiteParams};
use std::sync::Arc;

/// The threshold values of the paper's figures, in presentation order.
pub const THRESHOLDS: [f64; 4] = [1.0, 0.75, 0.25, 0.0];

/// The two bus grids of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 5: unbounded register and memory buses, LRB × LMB swept.
    Unbounded,
    /// Figure 6: two 1-cycle register buses, NMB × LMB swept.
    Realistic,
}

impl Figure {
    /// The clustered machines of the grid, each with the config label that
    /// names its bars; `quick` picks the reduced grid.
    fn machines(self, clusters: usize, quick: bool) -> Vec<(String, Arc<MachineConfig>)> {
        let (first, lmbs): (&[u32], &[u32]) = match (self, quick) {
            (Figure::Unbounded, false) => (&[1, 2, 4], &[1, 2, 4]),
            (Figure::Unbounded, true) => (&[1], &[1, 4]),
            (Figure::Realistic, false) => (&[1, 2], &[1, 4]),
            (Figure::Realistic, true) => (&[1], &[4]),
        };
        let mut grid = Vec::new();
        for &a in first {
            for &lmb in lmbs {
                let base = presets::by_cluster_count(clusters);
                let (axis, machine) = match self {
                    Figure::Unbounded => (
                        format!("LRB={a}"),
                        base.with_register_buses(BusConfig::unbounded(a))
                            .with_memory_buses(BusConfig::unbounded(lmb)),
                    ),
                    Figure::Realistic => (
                        format!("NMB={a}"),
                        base.with_register_buses(BusConfig::finite(2, 1))
                            .with_memory_buses(BusConfig::finite(a as usize, lmb)),
                    ),
                };
                let name = format!("{clusters}-cluster {axis} LMB={lmb}");
                // One shared handle per grid point; the (scheduler,
                // threshold) jobs under it all reuse it.
                grid.push((
                    format!("{clusters}c {axis} LMB={lmb}"),
                    Arc::new(machine.with_name(name)),
                ));
            }
        }
        grid
    }

    fn title(self, clusters: usize) -> String {
        let panel = if clusters == 2 { "a" } else { "b" };
        let (number, buses) = match self {
            Figure::Unbounded => (5, "unbounded buses"),
            Figure::Realistic => (6, "realistic buses (2 register buses @1)"),
        };
        format!(
            "Figure {number}({panel}) — {buses}, {clusters}-cluster (cycles normalised to Unified)"
        )
    }
}

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The configuration label the bar is printed under (`unified`, or
    /// e.g. `2c LRB=1 LMB=4`).
    pub config: String,
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
    /// The bus grid swept.
    pub figure: Figure,
    /// Number of clusters of the clustered configuration.
    pub clusters: usize,
    /// Unified-configuration bars (one per threshold), normalised to the
    /// threshold-1.0 Unified total.
    pub unified: Vec<SweepPoint>,
    /// Clustered-configuration bars.
    pub points: Vec<SweepPoint>,
}

/// One bar of a sweep, ready to run as an executor job.
struct Job {
    config: String,
    scheduler: SchedulerChoice,
    threshold: f64,
    machine: Arc<MachineConfig>,
}

/// Runs one figure for the given cluster count (2 or 4): the full grid, or
/// a reduced one with thresholds {1.00, 0.00} when `quick` is set.
///
/// After the Unified reference pass, every bar is one executor job: the
/// Unified threshold sweep, then every (machine, scheduler, threshold)
/// combination. Jobs are listed and collected in presentation order, so
/// the output is identical for any thread count (see
/// `crates/bench/tests/determinism.rs`). The suite runs inside each job
/// inherit `executor`, so a 1-thread executor is sequential end to end.
///
/// # Errors
///
/// Propagates the first scheduling error (none is expected for the bundled
/// workloads and machines).
pub fn run(
    figure: Figure,
    clusters: usize,
    params: &SuiteParams,
    quick: bool,
    executor: &Executor,
) -> Result<SweepOutput, Error> {
    let thresholds: &[f64] = if quick { &[1.0, 0.0] } else { &THRESHOLDS };
    let workloads = suite(params);
    let shared_executor = Arc::new(executor.clone());
    let pipeline = |scheduler, threshold, machine: &Arc<MachineConfig>| {
        Pipeline::builder()
            .scheduler(scheduler)
            .machine(Arc::clone(machine))
            .threshold(threshold)
            .executor(Arc::clone(&shared_executor))
            .build()
    };
    let unified_machine = Arc::new(presets::unified());
    let reference =
        pipeline(SchedulerChoice::Baseline, 1.0, &unified_machine)?.run_workloads(&workloads)?;

    let mut jobs: Vec<Job> = thresholds
        .iter()
        .map(|&threshold| Job {
            config: "unified".to_string(),
            scheduler: SchedulerChoice::Baseline,
            threshold,
            machine: Arc::clone(&unified_machine),
        })
        .collect();
    let num_unified = jobs.len();
    for (config, machine) in figure.machines(clusters, quick) {
        for scheduler in SchedulerChoice::ALL {
            for &threshold in thresholds {
                jobs.push(Job {
                    config: config.clone(),
                    scheduler,
                    threshold,
                    machine: Arc::clone(&machine),
                });
            }
        }
    }

    let results = executor.map(&jobs, |job| {
        pipeline(job.scheduler, job.threshold, &job.machine)?.run_workloads(&workloads)
    });
    let mut bars = Vec::with_capacity(jobs.len());
    for (job, result) in jobs.into_iter().zip(results) {
        let r = result?;
        bars.push(SweepPoint {
            config: job.config,
            scheduler: job.scheduler,
            threshold: job.threshold,
            normalized_compute: r.normalized_compute(&reference),
            normalized_stall: r.normalized_stall(&reference),
            normalized_total: r.normalized_to(&reference),
        });
    }
    let points = bars.split_off(num_unified);
    Ok(SweepOutput {
        figure,
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
    for p in output.unified.iter().chain(&output.points) {
        t.row(vec![
            p.config.clone(),
            p.scheduler.name().to_string(),
            format!("{:.2}", p.threshold),
            norm(p.normalized_compute),
            norm(p.normalized_stall),
            norm(p.normalized_total),
        ]);
    }
    format!("{}\n{}", output.figure.title(output.clusters), t.render())
}

/// The `fig5`/`fig6` binaries: `[--clusters 2|4] [--quick]`.
///
/// Without `--clusters` both the 2- and 4-cluster panels are printed; any
/// value other than 2 or 4 is a usage error (exit code 2). `--quick` runs
/// the reduced grid over the small suite.
pub fn cli(figure: Figure) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let clusters = match arg(&args, "--clusters") {
        None => vec![2, 4],
        Some(c @ (2 | 4)) => vec![c],
        Some(c) => {
            eprintln!("invalid value for --clusters: {c} (expected 2 or 4)");
            std::process::exit(2);
        }
    };
    let params = if quick {
        SuiteParams::small()
    } else {
        SuiteParams::default()
    };
    for c in clusters {
        let output = run(figure, c, &params, quick, &Executor::global())
            .expect("the bundled workloads are schedulable on every configuration");
        print_report(&format!("{}\n", render(&output)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(figure: Figure, clusters: usize) -> SweepOutput {
        run(
            figure,
            clusters,
            &SuiteParams::small(),
            true,
            &Executor::global(),
        )
        .unwrap()
    }

    #[test]
    fn quick_sweep_reproduces_the_figure_shape() {
        let out = quick(Figure::Unbounded, 2);
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
            // per (lrb, lmb) in the quick grid's nesting order.
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

    #[test]
    fn quick_sweep_shows_rmca_ahead_with_limited_buses() {
        let out = quick(Figure::Realistic, 4);
        assert!(!out.points.is_empty());
        // Points come in pairs (threshold 1.0, threshold 0.0) for baseline
        // then RMCA at the single (NMB=1, LMB=4) configuration.
        let baseline_best = out.points[..2]
            .iter()
            .map(|p| p.normalized_total)
            .fold(f64::INFINITY, f64::min);
        let rmca_best = out.points[2..4]
            .iter()
            .map(|p| p.normalized_total)
            .fold(f64::INFINITY, f64::min);
        assert!(
            rmca_best <= baseline_best * 1.02,
            "RMCA ({rmca_best:.3}) should not lose to the baseline ({baseline_best:.3}) with scarce buses"
        );
        let text = render(&out);
        assert!(text.contains("Figure 6"));
        assert!(text.contains("NMB=1"));
    }
}
