//! The shared constraint model: everything any scheduler needs to know about
//! one (loop, machine) pair, precomputed once.
//!
//! [`ResModel`] is the *static* half of the constraint kernel: per-operation
//! latencies and unit kinds, per-cluster unit counts and register files, the
//! register-bus configuration, and the derived counting facts (operations
//! per unit kind, cluster homogeneity). The *dynamic* half — which slot is
//! taken by whom right now — lives in
//! [`PartialSchedule`](crate::PartialSchedule).

use crate::error::ModelError;
use mvp_ir::{DepEdge, Loop, OpId};
use mvp_machine::{BusCount, FuKind, MachineConfig};

/// Precomputed constraint-model facts for one (loop, machine) pair, shared
/// by every scheduler front-end (heuristic engines, list scheduling, exact
/// search) and by every [`PartialSchedule`](crate::PartialSchedule) built
/// from it.
#[derive(Debug)]
pub struct ResModel<'l, 'm> {
    /// The loop being scheduled.
    pub l: &'l Loop,
    /// The target machine.
    pub machine: &'m MachineConfig,
    /// Per-operation cache-hit latency. Schedulers that apply the Section-4.3
    /// miss-latency scheme pass the miss latency per placement instead; the
    /// kernel checks either against the machine's latency table (the
    /// validator's `LatencyMismatch` rule).
    pub latency: Vec<u32>,
    /// Per-operation functional-unit kind.
    pub fu_kind: Vec<FuKind>,
    /// Functional units of each kind per cluster (`fu_count[cluster][kind]`).
    pub fu_count: Vec<[usize; 3]>,
    /// Register-file capacity per cluster.
    pub register_file: Vec<u32>,
    /// Register-bus latency in cycles.
    pub bus_latency: u32,
    /// Number of register buses, or `None` for an unbounded bus set (on
    /// which no occupancy rule ever conflicts).
    pub num_buses: Option<usize>,
    /// The machine's load-miss latency (the latency miss-scheduled loads
    /// must carry).
    pub miss_latency: u32,
    /// Whether all clusters are identical, which makes cluster labels
    /// interchangeable and enables symmetry breaking in exact search.
    pub homogeneous: bool,
    /// Number of operations of each functional-unit kind, for the
    /// resource-count (`ResMII`) infeasibility certificate.
    pub ops_per_kind: [usize; 3],
    /// Registers each operation pins in its cluster from the moment it is
    /// placed: 1 when it produces a value and has a successor (the final
    /// MaxLive rule charges such a value a register even for same-cycle
    /// consumption), else 0.
    pub register_floor: Vec<u32>,
}

impl<'l, 'm> ResModel<'l, 'm> {
    /// Builds the model, validating the machine and checking that every
    /// operation kind has at least one unit somewhere.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Machine`] for an invalid machine and
    /// [`ModelError::MissingResources`] when the loop uses a functional-unit
    /// kind the machine lacks (no II can ever work).
    pub fn new(l: &'l Loop, machine: &'m MachineConfig) -> Result<Self, ModelError> {
        machine.validate()?;
        let latency: Vec<u32> = l
            .ops()
            .iter()
            .map(|o| o.kind.hit_latency(&machine.latencies))
            .collect();
        let fu_kind: Vec<FuKind> = l.ops().iter().map(|o| o.kind.fu_kind()).collect();
        let fu_count: Vec<[usize; 3]> = machine
            .clusters()
            .map(|(_, c)| FuKind::ALL.map(|k| c.fu_count(k)))
            .collect();
        let register_file: Vec<u32> = machine
            .clusters()
            .map(|(_, c)| c.register_file_size as u32)
            .collect();
        let mut ops_per_kind = [0usize; 3];
        for k in &fu_kind {
            ops_per_kind[k.index()] += 1;
        }
        for kind in FuKind::ALL {
            if ops_per_kind[kind.index()] > 0 && machine.total_fu_count(kind) == 0 {
                return Err(ModelError::MissingResources {
                    reason: "the loop needs a functional-unit kind the machine does not provide"
                        .into(),
                });
            }
        }
        let register_floor: Vec<u32> = l
            .op_ids()
            .map(|op| u32::from(l.op(op).kind.produces_value() && l.succs(op).next().is_some()))
            .collect();
        let homogeneous = machine
            .clusters()
            .map(|(_, c)| c)
            .all(|c| c == machine.cluster(0));
        Ok(Self {
            l,
            machine,
            latency,
            fu_kind,
            fu_count,
            register_file,
            bus_latency: machine.register_buses.latency,
            num_buses: match machine.register_buses.count {
                BusCount::Finite(n) => Some(n),
                BusCount::Unbounded => None,
            },
            miss_latency: machine.load_miss_latency(),
            homogeneous,
            ops_per_kind,
            register_floor,
        })
    }

    /// Number of operations.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.l.num_ops()
    }

    /// Dependence weight of edge `e` at initiation interval `ii`, *without*
    /// the register-bus term: `t_dst − t_src ≥ weight`. This is the
    /// cluster-independent relaxation used for window propagation; placement
    /// queries re-check each edge exactly (adding the bus latency when the
    /// endpoints land in different clusters), matching the validator's
    /// `DependenceViolated` rule.
    #[must_use]
    pub fn edge_weight(&self, e: &DepEdge, ii: u32) -> i64 {
        i64::from(e.delay(self.latency[e.src.index()])) - i64::from(ii) * i64::from(e.distance)
    }

    /// The resource-count certificate (the `ResMII` bound, per unit kind):
    /// `ii` is infeasible whenever some kind must issue more operations per
    /// II than the machine has unit-slots, i.e. `ops > units × ii` — the
    /// counting argument behind the validator's `FuOversubscribed` rule.
    #[must_use]
    pub fn resource_infeasible(&self, ii: u32) -> bool {
        FuKind::ALL.into_iter().any(|kind| {
            let units = self.machine.total_fu_count(kind) as u64;
            self.ops_per_kind[kind.index()] as u64 > units * u64::from(ii)
        })
    }

    /// The latency a placement of `op` must carry: the hit latency, or the
    /// machine's miss latency when the load is miss-scheduled (the
    /// validator's `LatencyMismatch` rule).
    #[must_use]
    pub fn expected_latency(&self, op: OpId, miss_scheduled: bool) -> u32 {
        if miss_scheduled {
            self.miss_latency
        } else {
            self.latency[op.index()]
        }
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
        let m = ResModel::new(&l, &machine).unwrap();
        assert_eq!(m.num_ops(), 3);
        assert_eq!(m.latency, vec![2, 2, 1]);
        assert_eq!(m.num_buses, Some(2));
        assert_eq!(m.bus_latency, 1);
        assert!(m.homogeneous);
        assert_eq!(m.ops_per_kind, [0, 1, 2]);
        assert_eq!(m.register_file, vec![32, 32]);
        assert_eq!(m.miss_latency, machine.load_miss_latency());
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
            ResModel::new(&l, &machine),
            Err(ModelError::MissingResources { .. })
        ));
    }

    #[test]
    fn edge_weights_follow_the_validator_rules() {
        let l = chain();
        let machine = presets::two_cluster();
        let m = ResModel::new(&l, &machine).unwrap();
        let e = l.edges()[0]; // LD -> F, data, distance 0
        assert_eq!(m.edge_weight(&e, 3), 2);
        let carried = DepEdge::data(e.src, e.dst, 2);
        assert_eq!(m.edge_weight(&carried, 3), 2 - 6);
    }

    #[test]
    fn resource_certificate_matches_res_mii() {
        let l = chain();
        let machine = presets::motivating_example_machine();
        let m = ResModel::new(&l, &machine).unwrap();
        // 2 memory ops on 2 memory units: infeasible only below II=1.
        assert!(!m.resource_infeasible(1));
    }

    #[test]
    fn expected_latency_distinguishes_miss_scheduled_loads() {
        let l = chain();
        let machine = presets::two_cluster();
        let m = ResModel::new(&l, &machine).unwrap();
        let ld = OpId::from_index(0);
        assert_eq!(m.expected_latency(ld, false), 2);
        assert_eq!(m.expected_latency(ld, true), machine.load_miss_latency());
    }
}
