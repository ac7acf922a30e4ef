//! The constraint model: everything the branch-and-bound search needs,
//! precomputed once per (loop, machine) pair.
//!
//! Since the shared incremental constraint kernel (`mvp-resmodel`) landed,
//! the model itself *is* the kernel's [`ResModel`] — the same rule
//! vocabulary the heuristic engine and the validator's differential tests
//! build on — plus the two search-specific derivations that have no meaning
//! outside branch-and-bound: the fail-first branch order and the search
//! horizon. [`Problem`] dereferences to the underlying [`ResModel`], so the
//! propagation and search modules consult latencies, unit counts, bus
//! configuration and the counting certificates straight from the kernel.
//!
//! The model deliberately mirrors the rule set of
//! [`mvp_core::validate::validate_schedule`] — the independent legality
//! oracle — rather than the internals of any heuristic scheduler: a schedule
//! found by the search is legal *by the validator's definition*, and an II
//! the search certifies as infeasible admits no schedule the validator would
//! accept (within the documented search horizon).

use crate::options::ExactOptions;
use mvp_core::error::ScheduleError;
use mvp_ir::{Loop, OpId};
use mvp_machine::MachineConfig;
use mvp_resmodel::ResModel;
use std::ops::Deref;

/// Preprocessed instance shared by every fixed-II probe: the kernel's
/// [`ResModel`] plus the search-only derivations
/// ([`branch_order`](Problem::branch_order), [`horizon`](Problem::horizon)).
///
/// The exact scheduler always uses the cache-hit latency (it proves bounds
/// on the II; the miss-latency scheme of Section 4.3 trades II for stall
/// cycles and is a heuristic-only concern), so placements carry
/// `miss_scheduled = false` and satisfy the validator's `LatencyMismatch`
/// rule by construction.
#[derive(Debug)]
pub struct Problem<'l, 'm> {
    model: ResModel<'l, 'm>,
}

impl<'l, 'm> Deref for Problem<'l, 'm> {
    type Target = ResModel<'l, 'm>;

    fn deref(&self) -> &ResModel<'l, 'm> {
        &self.model
    }
}

impl<'l, 'm> Problem<'l, 'm> {
    /// Builds the model, validating the machine and checking that every
    /// operation kind has at least one unit somewhere.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Machine`] for an invalid machine and
    /// [`ScheduleError::MissingResources`] when the loop uses a
    /// functional-unit kind the machine lacks (no II can ever work).
    pub fn new(l: &'l Loop, machine: &'m MachineConfig) -> Result<Self, ScheduleError> {
        Ok(Self {
            model: ResModel::new(l, machine)?,
        })
    }

    /// The underlying constraint kernel model.
    #[must_use]
    pub fn model(&self) -> &ResModel<'l, 'm> {
        &self.model
    }

    /// Operation order the search branches in: tightest static window first
    /// (fail-first), breaking ties towards higher-degree and lower-id
    /// operations. The order is fixed per probe — conflict-driven backjumping
    /// relies on stable decision levels.
    #[must_use]
    pub fn branch_order(&self, window_width: &[i64]) -> Vec<OpId> {
        let mut degree = vec![0usize; self.num_ops()];
        for e in self.l.edges() {
            degree[e.src.index()] += 1;
            degree[e.dst.index()] += 1;
        }
        let mut order: Vec<OpId> = self.l.op_ids().collect();
        order.sort_by_key(|op| {
            (
                window_width[op.index()],
                -(degree[op.index()] as i64),
                op.index(),
            )
        });
        order
    }

    /// Search horizon for a probe at `ii`: the latest cycle any operation may
    /// start. See [`ExactOptions::horizon_stages`] for the completeness
    /// caveat this bound carries.
    #[must_use]
    pub fn horizon(&self, asap_max: i64, ii: u32, options: &ExactOptions) -> i64 {
        asap_max + i64::from(options.horizon_stages.max(1)) * i64::from(ii)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::presets;

    fn chain() -> Loop {
        let mut b = Loop::builder("chain");
        let i = b.dimension("I", 64);
        let a = b.auto_array("A", 4096);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let f = b.fp_op("F");
        let st = b.store("ST", b.array_ref(a).stride(i, 8).build());
        b.data_edge(ld, f, 0);
        b.data_edge(f, st, 0);
        b.build().unwrap()
    }

    #[test]
    fn model_captures_machine_and_loop_shape() {
        let l = chain();
        let machine = presets::two_cluster();
        let p = Problem::new(&l, &machine).unwrap();
        assert_eq!(p.num_ops(), 3);
        assert_eq!(p.latency, vec![2, 2, 1]);
        assert_eq!(p.num_buses, Some(2));
        assert_eq!(p.bus_latency, 1);
        assert!(p.homogeneous);
        assert_eq!(p.ops_per_kind, [0, 1, 2]);
        assert_eq!(p.register_file, vec![32, 32]);
    }

    #[test]
    fn missing_unit_kinds_fail_fast() {
        use mvp_machine::{BusConfig, CacheGeometry, ClusterConfig, MachineConfig};
        let machine = MachineConfig::builder("no-mem")
            .homogeneous_clusters(
                1,
                ClusterConfig::new(2, 2, 0, 32, CacheGeometry::direct_mapped(4096)),
            )
            .register_buses(BusConfig::finite(1, 1))
            .memory_buses(BusConfig::finite(1, 1))
            .build()
            .unwrap();
        let l = chain();
        assert!(matches!(
            Problem::new(&l, &machine),
            Err(ScheduleError::MissingResources { .. })
        ));
    }

    #[test]
    fn resource_certificate_matches_res_mii() {
        let l = chain();
        let machine = presets::motivating_example_machine();
        let p = Problem::new(&l, &machine).unwrap();
        // 2 memory ops on 2 memory units: infeasible only below II=1.
        assert!(!p.resource_infeasible(1));
        let (l8, _) = {
            use mvp_workloads::motivating::{motivating_loop, MotivatingParams};
            motivating_loop(&MotivatingParams::default())
        };
        let p8 = Problem::new(&l8, &machine).unwrap();
        // 5 memory ops on 2 units: ResMII = 3.
        assert!(p8.resource_infeasible(2));
        assert!(!p8.resource_infeasible(3));
    }

    #[test]
    fn edge_weights_follow_the_validator_rules() {
        let l = chain();
        let machine = presets::two_cluster();
        let p = Problem::new(&l, &machine).unwrap();
        let e = l.edges()[0]; // LD -> F, data, distance 0
        assert_eq!(p.edge_weight(&e, 3), 2);
        let carried = mvp_ir::DepEdge::data(e.src, e.dst, 2);
        assert_eq!(p.edge_weight(&carried, 3), 2 - 6);
    }
}
