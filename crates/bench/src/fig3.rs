//! The motivating example of Section 3 (Figure 3).
//!
//! The paper derives, by hand, that on a 2-cluster machine with a
//! distributed cache the register-oriented partition (Figure 3a, II = 3)
//! executes in `NTIMES * (15N + 9)` cycles while the locality-aware
//! partition (Figure 3b, II = 4) takes `NTIMES * (10N + 8)` — about 1.5x
//! faster. This driver reproduces the comparison with the real scheduler and
//! simulator instead of hand analysis: the baseline scheduler plays the role
//! of Figure 3a, RMCA the role of Figure 3b.

use crate::report::{pct_faster, Table};
use multivliw::pipeline::{LoopReport, Pipeline, SchedulerChoice};
use mvp_exec::Executor;
use mvp_machine::presets;
use mvp_workloads::motivating::{motivating_loop, MotivatingParams};
use std::sync::Arc;

/// Result of the Figure-3 experiment.
#[derive(Debug, Clone)]
pub struct Fig3Output {
    /// Trip count used (the paper's `N`).
    pub iterations: u64,
    /// Result of the register-communication-only partition (Figure 3a).
    pub baseline: LoopReport,
    /// Result of the locality-aware partition (Figure 3b).
    pub rmca: LoopReport,
}

impl Fig3Output {
    /// Speedup of the locality-aware schedule over the register-only one.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.rmca.total_cycles() == 0 {
            0.0
        } else {
            self.baseline.total_cycles() as f64 / self.rmca.total_cycles() as f64
        }
    }
}

/// Runs the Figure-3 experiment (the two partitions are independent
/// executor jobs — a micro-grid, but the same execution path as the big
/// sweeps).
#[must_use]
pub fn run(params: &MotivatingParams) -> Fig3Output {
    let (l, _) = motivating_loop(params);
    let machine = Arc::new(presets::motivating_example_machine());
    let mut results = Executor::global()
        .map(
            &[SchedulerChoice::Baseline, SchedulerChoice::Rmca],
            |&kind| {
                Pipeline::builder()
                    .scheduler(kind)
                    .machine(Arc::clone(&machine))
                    .build()
                    .and_then(|p| p.run(&l))
                    .expect("the motivating loop is schedulable by construction")
            },
        )
        .into_iter();
    Fig3Output {
        iterations: params.iterations,
        baseline: results.next().expect("two jobs were submitted"),
        rmca: results.next().expect("two jobs were submitted"),
    }
}

/// Renders the Figure-3 comparison as a text table.
#[must_use]
pub fn render(output: &Fig3Output) -> String {
    let mut t = Table::new(vec![
        "partition",
        "II",
        "SC",
        "comms/iter",
        "compute",
        "stall",
        "total",
    ]);
    for (name, r) in [
        ("register-only (baseline, fig 3a)", &output.baseline),
        ("locality-aware (RMCA, fig 3b)", &output.rmca),
    ] {
        t.row(vec![
            name.to_string(),
            r.ii.to_string(),
            r.stage_count.to_string(),
            r.communications.to_string(),
            r.stats.compute_cycles.to_string(),
            r.stats.stall_cycles.to_string(),
            r.total_cycles().to_string(),
        ]);
    }
    format!(
        "Figure 3 — motivating example (N = {})\n{}\nRMCA speedup over baseline: {:.2}x ({} slower)\nPaper's hand analysis: (15N+9) vs (10N+8) = {:.2}x\n",
        output.iterations,
        t.render(),
        output.speedup(),
        pct_faster(output.baseline.total_cycles(), output.rmca.total_cycles()),
        (15.0 * output.iterations as f64 + 9.0) / (10.0 * output.iterations as f64 + 8.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmca_beats_the_baseline_on_the_motivating_example() {
        let params = MotivatingParams {
            iterations: 128,
            local_cache_bytes: 1024,
        };
        let out = run(&params);
        // The locality-aware partition pays a larger II but removes the
        // ping-pong stalls; overall it must win clearly.
        assert!(out.rmca.ii >= out.baseline.ii);
        assert!(
            out.speedup() > 1.15,
            "expected a clear win, got {:.2}x ({} vs {})",
            out.speedup(),
            out.baseline.total_cycles(),
            out.rmca.total_cycles()
        );
        let text = render(&out);
        assert!(text.contains("Figure 3"));
        assert!(text.contains("RMCA speedup"));
    }
}
