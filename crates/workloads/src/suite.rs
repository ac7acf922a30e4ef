//! The benchmark suite used by the evaluation harness.

use crate::kernels::{self, KernelParams};
use mvp_ir::Loop;

/// One benchmark of the suite: a named set of modulo-scheduled loops.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name of the SPECfp95 program the kernels are modelled on.
    pub name: &'static str,
    /// The innermost loops evaluated for this benchmark.
    pub loops: Vec<Loop>,
}

/// Parameters of the whole suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuiteParams {
    /// Sizing of every kernel.
    pub kernel: KernelParams,
}

impl SuiteParams {
    /// Parameters scaled down for fast tests and smoke runs.
    #[must_use]
    pub fn small() -> Self {
        Self {
            kernel: KernelParams::small(),
        }
    }
}

/// Builds the eight SPECfp95-modelled workloads of the paper's evaluation, in
/// the order the paper lists them.
#[must_use]
pub fn suite(params: &SuiteParams) -> Vec<Workload> {
    let k = &params.kernel;
    vec![
        Workload {
            name: "tomcatv",
            loops: kernels::tomcatv::loops(k),
        },
        Workload {
            name: "swim",
            loops: kernels::swim::loops(k),
        },
        Workload {
            name: "su2cor",
            loops: kernels::su2cor::loops(k),
        },
        Workload {
            name: "hydro2d",
            loops: kernels::hydro2d::loops(k),
        },
        Workload {
            name: "mgrid",
            loops: kernels::mgrid::loops(k),
        },
        Workload {
            name: "applu",
            loops: kernels::applu::loops(k),
        },
        Workload {
            name: "turb3d",
            loops: kernels::turb3d::loops(k),
        },
        Workload {
            name: "apsi",
            loops: kernels::apsi::loops(k),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_eight_benchmarks_in_order() {
        let names: Vec<&str> = suite(&SuiteParams::default())
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(
            names,
            vec!["tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d", "apsi"]
        );
    }

    #[test]
    fn every_workload_has_at_least_five_ops() {
        for w in suite(&SuiteParams::small()) {
            let ops: usize = w.loops.iter().map(Loop::num_ops).sum();
            assert!(ops >= 5, "{} too small", w.name);
        }
    }

    #[test]
    fn small_params_shrink_trip_counts() {
        let small = suite(&SuiteParams::small());
        let full = suite(&SuiteParams::default());
        for (s, f) in small.iter().zip(&full) {
            assert!(s.loops[0].iterations() < f.loops[0].iterations());
        }
    }
}
