//! Figure 6: normalised cycles with a *realistic* interconnect.
//!
//! Register buses are fixed (2 buses, 1-cycle latency); the number of memory
//! buses (NMB ∈ {1, 2}) and their latency (LMB ∈ {1, 4}) are swept. With a
//! limited number of memory buses, reducing the number of misses also
//! reduces the time spent waiting for a free bus, which is where RMCA pulls
//! clearly ahead of the baseline (the paper reports ≈5% at 2 clusters and
//! ≈20% at 4 clusters for threshold 0.00).

use crate::fig5::{run_grid, GridPoint, SweepOutput, THRESHOLDS};
use crate::report::{norm, Table};
use multivliw::Error;
use mvp_exec::Executor;
use mvp_machine::{presets, BusConfig};
use mvp_workloads::suite::SuiteParams;
use std::sync::Arc;

/// Runs the Figure-6 sweep for the given cluster count (2 or 4) on the
/// process-wide executor.
///
/// # Errors
///
/// Propagates the first scheduling error.
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
    run_with(clusters, params, &[1, 2], &[1, 4], &THRESHOLDS, executor)
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
    run_with(clusters, params, &[1], &[4], &[1.0, 0.0], executor)
}

fn run_with(
    clusters: usize,
    params: &SuiteParams,
    nmbs: &[usize],
    lmbs: &[u32],
    thresholds: &[f64],
    executor: &Executor,
) -> Result<SweepOutput, Error> {
    let mut grid = Vec::new();
    for &nmb in nmbs {
        for &lmb in lmbs {
            // One shared handle per grid point (see fig5); the `lrb` output
            // field carries the number of memory buses of this figure
            // (register buses are fixed at 2 buses of latency 1).
            grid.push(GridPoint {
                axis_a: nmb as u32,
                axis_b: lmb,
                machine: Arc::new(
                    presets::by_cluster_count(clusters)
                        .with_register_buses(BusConfig::finite(2, 1))
                        .with_memory_buses(BusConfig::finite(nmb, lmb))
                        .with_name(format!("{clusters}-cluster NMB={nmb} LMB={lmb}")),
                ),
            });
        }
    }
    run_grid(clusters, params, thresholds, &grid, executor)
}

/// Renders the sweep as a text table.
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
            format!("{}c NMB={} LMB={}", p.clusters, p.lrb, p.lmb),
            p.scheduler.name().to_string(),
            format!("{:.2}", p.threshold),
            norm(p.normalized_compute),
            norm(p.normalized_stall),
            norm(p.normalized_total),
        ]);
    }
    format!(
        "Figure 6({}) — realistic buses (2 register buses @1), {}-cluster (cycles normalised to Unified)\n{}",
        if output.clusters == 2 { "a" } else { "b" },
        output.clusters,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_rmca_ahead_with_limited_buses() {
        let out = run_quick(4, &SuiteParams::small()).unwrap();
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
