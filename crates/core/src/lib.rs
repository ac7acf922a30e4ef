//! Modulo schedulers for the multiVLIWprocessor.
//!
//! This crate is the reproduction of the paper's primary contribution:
//! **RMCA** (Register and Memory Communication-Aware) modulo scheduling for a
//! clustered VLIW architecture whose data cache is distributed across the
//! clusters, together with the register-communication-aware **baseline**
//! scheduler it is compared against.
//!
//! * [`BaselineScheduler`] — the scheduler of the authors' earlier work \[22\]:
//!   unified assign-and-schedule with a cluster heuristic that minimises the
//!   register values crossing clusters. Running it on the single-cluster
//!   [`presets::unified`](mvp_machine::presets::unified) machine gives the
//!   paper's *Unified* reference.
//! * [`RmcaScheduler`] — the paper's proposal: memory operations choose their
//!   cluster by the gain in cache misses estimated by a CME-style locality
//!   analysis, and loads that are expected to miss are scheduled with the
//!   cache-miss latency when a configurable threshold and the recurrence
//!   slack allow it.
//! * [`Schedule`] — the result: placements (cluster, cycle, stage), the
//!   register-bus transfers of the kernel and the derived II / SC / compute
//!   cycle metrics used by the evaluation.
//! * [`validate_schedule`] — an independent legality oracle that re-checks
//!   any schedule against its loop and machine (modulo resource conflicts,
//!   dependence distances, bus windows, register pressure) and reports
//!   structured [`Violation`]s.
//! * [`ListScheduler`] / [`FallbackScheduler`] — an always-succeeding
//!   non-pipelined list scheduler and the wrapper that falls back to it when
//!   a primary scheduler exhausts its II search.
//!
//! # Example
//!
//! ```
//! use mvp_core::{ModuloScheduler, RmcaScheduler, SchedulerOptions};
//! use mvp_ir::Loop;
//! use mvp_machine::presets;
//!
//! # fn main() -> Result<(), mvp_core::ScheduleError> {
//! // A(I) = B(I) * C(I)
//! let mut b = Loop::builder("vmul");
//! let i = b.dimension("I", 256);
//! let arr_a = b.auto_array("A", 8192);
//! let arr_b = b.auto_array("B", 8192);
//! let arr_c = b.auto_array("C", 8192);
//! let ld_b = b.load("LDB", b.array_ref(arr_b).stride(i, 8).build());
//! let ld_c = b.load("LDC", b.array_ref(arr_c).stride(i, 8).build());
//! let mul = b.fp_op("MUL");
//! let st = b.store("ST", b.array_ref(arr_a).stride(i, 8).build());
//! b.data_edge(ld_b, mul, 0);
//! b.data_edge(ld_c, mul, 0);
//! b.data_edge(mul, st, 0);
//! let l = b.build().expect("valid loop");
//!
//! let scheduler = RmcaScheduler::with_options(SchedulerOptions::new().with_threshold(0.0));
//! let schedule = scheduler.schedule(&l, &presets::two_cluster())?;
//! println!("II = {}, SC = {}", schedule.ii(), schedule.stage_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod engine;
pub mod error;
pub mod list_schedule;
pub mod metrics;
pub mod options;
pub mod rmca;
pub mod validate;

// The schedule artifact and the MaxLive lifetime model live in the shared
// constraint kernel (`mvp-resmodel`) so every scheduler — heuristic, list
// and exact — builds on one rule set; re-exported here for compatibility.
pub use mvp_resmodel::lifetime;
pub use mvp_resmodel::schedule;

pub use baseline::BaselineScheduler;
pub use error::ScheduleError;
pub use list_schedule::{FallbackScheduler, ListScheduler};
pub use metrics::ScheduleMetrics;
pub use options::SchedulerOptions;
pub use rmca::RmcaScheduler;
pub use schedule::{Communication, PlacedOp, Schedule};
pub use validate::{validate_schedule, Violation};

use mvp_ir::Loop;
use mvp_machine::MachineConfig;

/// Common interface of the modulo schedulers.
pub trait ModuloScheduler {
    /// Short name of the scheduler (used in result tables).
    fn name(&self) -> &'static str;

    /// Modulo-schedules `l` for `machine`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] when the machine is invalid, the loop
    /// needs resources the machine lacks, or no initiation interval in the
    /// search range admits a schedule.
    fn schedule(&self, l: &Loop, machine: &MachineConfig) -> Result<Schedule, ScheduleError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::presets;

    #[test]
    fn trait_objects_work_for_both_schedulers() {
        let mut b = Loop::builder("tiny");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        let l = b.build().unwrap();
        let schedulers: Vec<Box<dyn ModuloScheduler>> = vec![
            Box::new(BaselineScheduler::new()),
            Box::new(RmcaScheduler::new()),
        ];
        for s in &schedulers {
            let schedule = s.schedule(&l, &presets::two_cluster()).unwrap();
            assert_eq!(schedule.scheduler_name, s.name());
            assert!(schedule.ii() >= 1);
        }
    }
}
