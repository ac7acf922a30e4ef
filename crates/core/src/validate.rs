//! Independent schedule-legality validation.
//!
//! Modulo schedules are easy to get subtly wrong: a functional unit
//! double-booked in one modulo row, a register-bus transfer that overlaps the
//! same transfer of the next iteration, a loop-carried dependence satisfied
//! in the flat schedule but not once the kernel wraps. The schedulers in this
//! crate each enforce these rules *while* building a schedule, but nothing
//! re-checked the finished artifact — which is exactly what randomized
//! testing needs: a single oracle, written independently of any scheduler,
//! that every [`Schedule`] can be held against.
//!
//! [`validate_schedule`] re-derives every legality rule from scratch — it
//! shares no reservation-table state with the schedulers — and returns a
//! structured [`Vec<Violation>`] instead of a bool, so a failing fuzz case
//! reports *which* rule broke and where.
//!
//! The rule list below is also the shared constraint vocabulary of the
//! exact branch-and-bound scheduler (`mvp-exact`), whose rustdoc maps each
//! of its search constraints onto the [`Violation`] it rules out: a
//! schedule it emits is legal by this oracle's definition, and an II it
//! certifies infeasible admits no schedule this oracle would accept.
//!
//! # Legality rules checked
//!
//! 1. **Structure** — a positive II, one placement per operation in
//!    operation-id order, clusters in range, `stage`/`row` consistent with
//!    `cycle`, the recorded stage count matching the placements, and assumed
//!    latencies matching the machine's latency table (hit latency, or the
//!    miss latency for miss-scheduled loads).
//! 2. **Functional units under modulo II** — for every (cluster, unit kind,
//!    row `cycle % II`), at most as many operations as the cluster has units
//!    of that kind: resource usage repeats every II cycles, so two operations
//!    in the same row compete even when their flat cycles differ.
//! 3. **Dependences** — every edge `src → dst` with iteration distance `d`
//!    satisfies `cycle(dst) + II·d ≥ cycle(src) + latency`, where `latency`
//!    is the producer's assumed latency for data edges (plus the register-bus
//!    latency when the value crosses clusters) and 1 for memory-ordering
//!    edges.
//! 4. **Inter-cluster communication** — every cross-cluster data edge has a
//!    matching [`Communication`](crate::schedule::Communication); every
//!    communication matches a cross-cluster
//!    data edge, starts after the producer finishes and completes before the
//!    consumer starts (modulo II, across iteration distances); and on finite
//!    register-bus sets no two transfers overlap on the same bus in any
//!    modulo row (a transfer occupies its bus for the full bus latency).
//! 5. **Register pressure** — the recorded per-cluster pressure matches an
//!    independent MaxLive recomputation and fits each cluster's register
//!    file.
//!
//! # Example
//!
//! ```
//! use mvp_core::{validate_schedule, BaselineScheduler, ModuloScheduler};
//! use mvp_ir::Loop;
//! use mvp_machine::presets;
//!
//! # fn main() -> Result<(), mvp_core::ScheduleError> {
//! let mut b = Loop::builder("demo");
//! let x = b.fp_op("X");
//! let y = b.fp_op("Y");
//! b.data_edge(x, y, 0);
//! let l = b.build().expect("valid loop");
//! let machine = presets::two_cluster();
//! let schedule = BaselineScheduler::new().schedule(&l, &machine)?;
//! assert!(validate_schedule(&l, &machine, &schedule).is_empty());
//! # Ok(())
//! # }
//! ```

use crate::lifetime;
use crate::schedule::Schedule;
use mvp_ir::{DepEdge, EdgeKind, Loop, OpId};
use mvp_machine::{BusCount, ClusterId, FuKind, MachineConfig};
use std::fmt;

/// One legality violation found in a schedule.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// The initiation interval is zero.
    ZeroIi,
    /// The schedule does not contain one placement per loop operation.
    OpCountMismatch {
        /// Operations in the loop.
        expected: usize,
        /// Placements in the schedule.
        actual: usize,
    },
    /// Placement `index` records an operation id other than `index`.
    OpOrderMismatch {
        /// Position in the placement vector.
        index: usize,
        /// Operation id recorded there.
        op: OpId,
    },
    /// An operation is placed in a cluster the machine does not have.
    ClusterOutOfRange {
        /// The operation.
        op: OpId,
        /// The recorded cluster.
        cluster: ClusterId,
        /// Number of clusters in the machine.
        num_clusters: usize,
    },
    /// The `stage`/`row` fields of a placement disagree with its cycle.
    StageRowInconsistent {
        /// The operation.
        op: OpId,
        /// Flat cycle of the placement.
        cycle: u32,
        /// Recorded stage (`cycle / II` expected).
        stage: u32,
        /// Recorded row (`cycle % II` expected).
        row: u32,
    },
    /// The recorded stage count does not match the last placed cycle.
    StageCountMismatch {
        /// Stage count recorded in the schedule.
        recorded: u32,
        /// Stage count derived from the placements.
        derived: u32,
    },
    /// A placement's assumed latency is neither the hit latency nor (for
    /// miss-scheduled loads) the machine's miss latency.
    LatencyMismatch {
        /// The operation.
        op: OpId,
        /// Latency recorded in the placement.
        recorded: u32,
        /// Latency the machine model prescribes.
        expected: u32,
    },
    /// An operation that is not a load carries the `miss_scheduled` flag
    /// (binding prefetching only applies to loads).
    MissScheduledNonLoad {
        /// The operation.
        op: OpId,
    },
    /// More operations in one (cluster, unit kind, modulo row) than the
    /// cluster has units of that kind.
    FuOversubscribed {
        /// The cluster.
        cluster: ClusterId,
        /// The functional-unit kind.
        kind: FuKind,
        /// The modulo row (`cycle % II`).
        row: u32,
        /// Operations placed in that row.
        used: usize,
        /// Units the cluster provides.
        available: usize,
    },
    /// A dependence `src → dst` is not satisfied by the placements.
    DependenceViolated {
        /// The violated edge.
        edge: DepEdge,
        /// `cycle(dst) + II·distance`, the time the consumer effectively
        /// starts relative to the producer's iteration.
        consumer_start: i64,
        /// `cycle(src) + latency (+ bus latency)`, the earliest the value is
        /// available to the consumer.
        value_ready: i64,
    },
    /// A cross-cluster data edge has no matching communication record.
    MissingCommunication {
        /// The uncovered edge.
        edge: DepEdge,
    },
    /// A communication record matches no cross-cluster data edge of the loop
    /// (wrong endpoints, wrong clusters, or endpoints co-located).
    SpuriousCommunication {
        /// Index into [`Schedule::communications`].
        index: usize,
    },
    /// A communication record matches a cross-cluster data edge but no modulo
    /// start cycle congruent to its own lies between the producer's
    /// completion and the consumer's start.
    CommunicationOutsideWindow {
        /// Index into [`Schedule::communications`].
        index: usize,
        /// The best-matching edge.
        edge: DepEdge,
    },
    /// A communication names a bus outside the finite register-bus set.
    BusOutOfRange {
        /// Index into [`Schedule::communications`].
        index: usize,
        /// The recorded bus.
        bus: usize,
        /// Buses the machine provides.
        available: usize,
    },
    /// Two transfers occupy the same register bus in the same modulo row (or
    /// one transfer is longer than the II and overlaps its own next-iteration
    /// instance).
    BusOverlap {
        /// The bus.
        bus: usize,
        /// The contested modulo row.
        row: u32,
    },
    /// The recorded per-cluster register pressure differs from an independent
    /// recomputation.
    RegisterPressureMismatch {
        /// The cluster.
        cluster: ClusterId,
        /// Pressure recorded in the schedule.
        recorded: u32,
        /// Independently recomputed pressure.
        recomputed: u32,
    },
    /// A cluster needs more registers than its file provides.
    RegisterFileOverflow {
        /// The cluster.
        cluster: ClusterId,
        /// Registers needed.
        pressure: u32,
        /// Registers available.
        capacity: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ZeroIi => write!(f, "initiation interval is zero"),
            Violation::OpCountMismatch { expected, actual } => write!(
                f,
                "schedule places {actual} operations but the loop has {expected}"
            ),
            Violation::OpOrderMismatch { index, op } => {
                write!(f, "placement {index} records operation {op}")
            }
            Violation::ClusterOutOfRange {
                op,
                cluster,
                num_clusters,
            } => write!(
                f,
                "{op} placed in cluster {cluster} but the machine has {num_clusters}"
            ),
            Violation::StageRowInconsistent {
                op,
                cycle,
                stage,
                row,
            } => write!(
                f,
                "{op} at cycle {cycle} records stage {stage} / row {row}, inconsistent with the II"
            ),
            Violation::StageCountMismatch { recorded, derived } => write!(
                f,
                "stage count {recorded} recorded but placements imply {derived}"
            ),
            Violation::LatencyMismatch {
                op,
                recorded,
                expected,
            } => write!(
                f,
                "{op} assumes latency {recorded} but the machine prescribes {expected}"
            ),
            Violation::MissScheduledNonLoad { op } => {
                write!(f, "{op} is marked miss-scheduled but is not a load")
            }
            Violation::FuOversubscribed {
                cluster,
                kind,
                row,
                used,
                available,
            } => write!(
                f,
                "cluster {cluster} row {row}: {used} {kind} operations for {available} unit(s)"
            ),
            Violation::DependenceViolated {
                edge,
                consumer_start,
                value_ready,
            } => write!(
                f,
                "dependence {edge} violated: consumer starts at {consumer_start}, value ready at {value_ready}"
            ),
            Violation::MissingCommunication { edge } => write!(
                f,
                "cross-cluster data edge {edge} has no communication record"
            ),
            Violation::SpuriousCommunication { index } => write!(
                f,
                "communication {index} matches no cross-cluster data edge"
            ),
            Violation::CommunicationOutsideWindow { index, edge } => write!(
                f,
                "communication {index} for {edge} cannot start after the producer and finish before the consumer"
            ),
            Violation::BusOutOfRange {
                index,
                bus,
                available,
            } => write!(
                f,
                "communication {index} uses bus {bus} but the machine has {available}"
            ),
            Violation::BusOverlap { bus, row } => {
                write!(f, "register bus {bus} is double-booked in modulo row {row}")
            }
            Violation::RegisterPressureMismatch {
                cluster,
                recorded,
                recomputed,
            } => write!(
                f,
                "cluster {cluster} records register pressure {recorded}, recomputation gives {recomputed}"
            ),
            Violation::RegisterFileOverflow {
                cluster,
                pressure,
                capacity,
            } => write!(
                f,
                "cluster {cluster} needs {pressure} registers but has {capacity}"
            ),
        }
    }
}

/// Re-checks `schedule` against `l` and `machine` from scratch and returns
/// every legality violation found (empty = the schedule is legal).
///
/// The check is independent of the schedulers: it rebuilds functional-unit
/// and bus occupancy from the placements and communication records alone and
/// recomputes register pressure with the same MaxLive model the schedulers
/// are required to respect. See the [module documentation](self) for the full
/// rule list.
#[must_use]
pub fn validate_schedule(l: &Loop, machine: &MachineConfig, schedule: &Schedule) -> Vec<Violation> {
    let mut violations = Vec::new();

    if schedule.ii() == 0 {
        violations.push(Violation::ZeroIi);
        return violations;
    }
    if schedule.ops().len() != l.num_ops() {
        violations.push(Violation::OpCountMismatch {
            expected: l.num_ops(),
            actual: schedule.ops().len(),
        });
        // Placement lookups below index by operation id; bail out early.
        return violations;
    }

    check_structure(l, machine, schedule, &mut violations);
    check_fu_occupancy(l, machine, schedule, &mut violations);
    check_dependences(l, machine, schedule, &mut violations);
    check_communications(l, machine, schedule, &mut violations);
    // The MaxLive recomputation indexes per-cluster tables, so it only runs
    // once every placement names a real cluster (out-of-range clusters were
    // already reported by the structure check).
    if schedule
        .ops()
        .iter()
        .all(|p| p.cluster < machine.num_clusters())
    {
        check_register_pressure(l, machine, schedule, &mut violations);
    }
    violations
}

fn check_structure(
    l: &Loop,
    machine: &MachineConfig,
    schedule: &Schedule,
    violations: &mut Vec<Violation>,
) {
    let ii = schedule.ii();
    let miss_latency = machine.load_miss_latency();
    let mut last_cycle = 0u32;
    for (index, p) in schedule.ops().iter().enumerate() {
        if p.op.index() != index {
            violations.push(Violation::OpOrderMismatch { index, op: p.op });
            continue;
        }
        if p.cluster >= machine.num_clusters() {
            violations.push(Violation::ClusterOutOfRange {
                op: p.op,
                cluster: p.cluster,
                num_clusters: machine.num_clusters(),
            });
        }
        if p.stage != p.cycle / ii || p.row != p.cycle % ii {
            violations.push(Violation::StageRowInconsistent {
                op: p.op,
                cycle: p.cycle,
                stage: p.stage,
                row: p.row,
            });
        }
        if p.miss_scheduled && !l.op(p.op).is_load() {
            violations.push(Violation::MissScheduledNonLoad { op: p.op });
        }
        let expected = if p.miss_scheduled && l.op(p.op).is_load() {
            miss_latency
        } else {
            l.op(p.op).kind.hit_latency(&machine.latencies)
        };
        if p.assumed_latency != expected {
            violations.push(Violation::LatencyMismatch {
                op: p.op,
                recorded: p.assumed_latency,
                expected,
            });
        }
        last_cycle = last_cycle.max(p.cycle);
    }
    let derived = last_cycle / ii + 1;
    if schedule.stage_count() != derived {
        violations.push(Violation::StageCountMismatch {
            recorded: schedule.stage_count(),
            derived,
        });
    }
}

fn check_fu_occupancy(
    l: &Loop,
    machine: &MachineConfig,
    schedule: &Schedule,
    violations: &mut Vec<Violation>,
) {
    let ii = schedule.ii();
    // occupancy[cluster][kind][row]
    let mut occupancy =
        vec![[0usize; 3].map(|_| vec![0usize; ii as usize]); machine.num_clusters()];
    for p in schedule.ops() {
        if p.cluster >= machine.num_clusters() {
            continue; // already reported by check_structure
        }
        let kind = l.op(p.op).kind.fu_kind();
        occupancy[p.cluster][kind.index()][(p.cycle % ii) as usize] += 1;
    }
    for (cluster, per_kind) in occupancy.iter().enumerate() {
        for kind in FuKind::ALL {
            let available = machine.cluster(cluster).fu_count(kind);
            for (row, &used) in per_kind[kind.index()].iter().enumerate() {
                if used > available {
                    violations.push(Violation::FuOversubscribed {
                        cluster,
                        kind,
                        row: row as u32,
                        used,
                        available,
                    });
                }
            }
        }
    }
}

fn check_dependences(
    l: &Loop,
    machine: &MachineConfig,
    schedule: &Schedule,
    violations: &mut Vec<Violation>,
) {
    let ii = i64::from(schedule.ii());
    let bus_latency = i64::from(machine.register_buses.latency);
    for e in l.edges() {
        let p = schedule.placement(e.src);
        let d = schedule.placement(e.dst);
        let latency = if e.kind == EdgeKind::Data {
            i64::from(p.assumed_latency)
        } else {
            1
        };
        let comm = if e.kind == EdgeKind::Data && p.cluster != d.cluster {
            bus_latency
        } else {
            0
        };
        let consumer_start = i64::from(d.cycle) + ii * i64::from(e.distance);
        let value_ready = i64::from(p.cycle) + latency + comm;
        if consumer_start < value_ready {
            violations.push(Violation::DependenceViolated {
                edge: *e,
                consumer_start,
                value_ready,
            });
        }
    }
}

/// Whether a transfer starting at a cycle congruent to `start mod II` can
/// both begin no earlier than `lo` and complete (after `bus_latency` cycles)
/// no later than `hi + bus_latency`; i.e. some representative of the start
/// row lies in `[lo, hi]`.
fn row_reaches_window(start: u32, ii: i64, lo: i64, hi: i64) -> bool {
    if hi < lo {
        return false;
    }
    if hi - lo + 1 >= ii {
        return true; // the window spans every modulo row
    }
    let start_row = i64::from(start).rem_euclid(ii);
    let lo_row = lo.rem_euclid(ii);
    let offset = (start_row - lo_row).rem_euclid(ii);
    lo + offset <= hi
}

fn check_communications(
    l: &Loop,
    machine: &MachineConfig,
    schedule: &Schedule,
    violations: &mut Vec<Violation>,
) {
    let ii = i64::from(schedule.ii());
    let bus_latency = i64::from(machine.register_buses.latency);

    // Every cross-cluster data edge needs at least one matching transfer.
    for e in l.edges() {
        if e.kind != EdgeKind::Data {
            continue;
        }
        let p = schedule.placement(e.src);
        let d = schedule.placement(e.dst);
        if p.cluster == d.cluster {
            continue;
        }
        let covered = schedule
            .communications()
            .iter()
            .any(|c| c.src == e.src && c.dst == e.dst);
        if !covered {
            violations.push(Violation::MissingCommunication { edge: *e });
        }
    }

    // Every transfer must serve some cross-cluster data edge, leave after the
    // producer finishes and arrive before the consumer starts (modulo II).
    for (index, c) in schedule.communications().iter().enumerate() {
        if c.src.index() >= l.num_ops() || c.dst.index() >= l.num_ops() {
            violations.push(Violation::SpuriousCommunication { index });
            continue;
        }
        let p = schedule.placement(c.src);
        let d = schedule.placement(c.dst);
        let matching: Vec<&DepEdge> = l
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Data && e.src == c.src && e.dst == c.dst)
            .collect();
        if matching.is_empty()
            || p.cluster == d.cluster
            || c.from_cluster != p.cluster
            || c.to_cluster != d.cluster
        {
            violations.push(Violation::SpuriousCommunication { index });
            continue;
        }
        let serves_an_edge = matching.iter().any(|e| {
            let lo = i64::from(p.cycle) + i64::from(p.assumed_latency);
            let hi = i64::from(d.cycle) + ii * i64::from(e.distance) - bus_latency;
            row_reaches_window(c.start_cycle, ii, lo, hi)
        });
        if !serves_an_edge {
            violations.push(Violation::CommunicationOutsideWindow {
                index,
                edge: *matching[0],
            });
        }
    }

    check_bus_occupancy(machine, schedule, violations);
}

fn check_bus_occupancy(
    machine: &MachineConfig,
    schedule: &Schedule,
    violations: &mut Vec<Violation>,
) {
    let BusCount::Finite(num_buses) = machine.register_buses.count else {
        return; // unbounded bus sets never conflict
    };
    let ii = schedule.ii();
    let bus_latency = machine.register_buses.latency;
    let mut occupancy = vec![vec![0usize; ii as usize]; num_buses];
    for (index, c) in schedule.communications().iter().enumerate() {
        if c.bus >= num_buses {
            violations.push(Violation::BusOutOfRange {
                index,
                bus: c.bus,
                available: num_buses,
            });
            continue;
        }
        // A transfer longer than the II overlaps its own next-iteration
        // instance; counting each row once makes that visible below.
        for offset in 0..bus_latency.min(ii) {
            occupancy[c.bus][((c.start_cycle + offset) % ii) as usize] += 1;
        }
        if bus_latency > ii {
            violations.push(Violation::BusOverlap {
                bus: c.bus,
                row: c.start_cycle % ii,
            });
        }
    }
    for (bus, rows) in occupancy.iter().enumerate() {
        for (row, &used) in rows.iter().enumerate() {
            if used > 1 {
                violations.push(Violation::BusOverlap {
                    bus,
                    row: row as u32,
                });
            }
        }
    }
}

fn check_register_pressure(
    l: &Loop,
    machine: &MachineConfig,
    schedule: &Schedule,
    violations: &mut Vec<Violation>,
) {
    let recomputed =
        lifetime::register_pressure(l, schedule.ops(), schedule.ii(), machine.num_clusters());
    for (cluster, &pressure) in recomputed.iter().enumerate() {
        let recorded = schedule.register_pressure().get(cluster).copied();
        if recorded != Some(pressure) {
            violations.push(Violation::RegisterPressureMismatch {
                cluster,
                recorded: recorded.unwrap_or(0),
                recomputed: pressure,
            });
        }
        let capacity = machine.cluster(cluster).register_file_size;
        if pressure > capacity as u32 {
            violations.push(Violation::RegisterFileOverflow {
                cluster,
                pressure,
                capacity,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Communication, PlacedOp};
    use crate::{BaselineScheduler, ModuloScheduler, RmcaScheduler};
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

    fn placed(op: usize, cluster: ClusterId, cycle: u32, ii: u32, latency: u32) -> PlacedOp {
        PlacedOp {
            op: OpId::from_index(op),
            cluster,
            cycle,
            stage: cycle / ii,
            row: cycle % ii,
            assumed_latency: latency,
            miss_scheduled: false,
        }
    }

    /// Latency of each op of `chain()` on the Table-1 machines: load 2,
    /// fp 2, store 1.
    const LAT: [u32; 3] = [2, 2, 1];

    fn legal_single_cluster_schedule(ii: u32) -> Schedule {
        // LD@0, F@2, ST@4 in cluster 0; pressure: LD value 2 cycles, F value
        // 2 cycles -> 1 register each at II >= 2.
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            placed(1, 0, 2, ii, LAT[1]),
            placed(2, 0, 4, ii, LAT[2]),
        ];
        let l = chain();
        let machine = presets::two_cluster();
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        Schedule::new(machine.name.clone(), "hand", ii, ops, vec![], pressure)
    }

    #[test]
    fn schedules_from_real_schedulers_validate_cleanly() {
        let l = chain();
        for machine in [
            presets::unified(),
            presets::two_cluster(),
            presets::four_cluster(),
        ] {
            for scheduler in [
                Box::new(BaselineScheduler::new()) as Box<dyn ModuloScheduler>,
                Box::new(RmcaScheduler::new()),
            ] {
                let s = scheduler.schedule(&l, &machine).unwrap();
                let v = validate_schedule(&l, &machine, &s);
                assert!(v.is_empty(), "{machine}: {v:?}");
            }
        }
    }

    #[test]
    fn a_hand_built_legal_schedule_passes() {
        let l = chain();
        let machine = presets::two_cluster();
        let s = legal_single_cluster_schedule(3);
        assert_eq!(validate_schedule(&l, &machine, &s), vec![]);
    }

    #[test]
    fn catches_fu_oversubscription() {
        // Illegal schedule 1: both memory ops of the chain in the same
        // modulo row of the motivating-example machine (1 memory unit per
        // cluster): LD@0 and ST@4 share row 0 at II=2.
        let l = chain();
        let machine = presets::motivating_example_machine();
        let ii = 2;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            placed(1, 0, 2, ii, LAT[1]),
            placed(2, 0, 4, ii, LAT[2]),
        ];
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        let s = Schedule::new("m", "hand", ii, ops, vec![], pressure);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::FuOversubscribed {
                    kind: FuKind::Memory,
                    row: 0,
                    used: 2,
                    available: 1,
                    ..
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn catches_dependence_violations() {
        // Illegal schedule 2: the consumer F starts one cycle after LD
        // issues, but the load takes 2 cycles.
        let l = chain();
        let machine = presets::two_cluster();
        let ii = 3;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            placed(1, 0, 1, ii, LAT[1]),
            placed(2, 0, 4, ii, LAT[2]),
        ];
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        let s = Schedule::new("m", "hand", ii, ops, vec![], pressure);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::DependenceViolated {
                    consumer_start: 1,
                    value_ready: 2,
                    ..
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn catches_loop_carried_dependence_violations_under_modulo_wrap() {
        // Illegal schedule 3: a 2-cycle accumulator recurrence scheduled at
        // II=1 — legal in the flat schedule, illegal once the kernel wraps.
        let mut b = Loop::builder("acc");
        let x = b.fp_op("X");
        b.data_edge(x, x, 1);
        let l = b.build().unwrap();
        let machine = presets::unified();
        let ii = 1;
        let ops = vec![placed(0, 0, 0, ii, 2)];
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        let s = Schedule::new("m", "hand", ii, ops, vec![], pressure);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DependenceViolated { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn catches_missing_and_overlapping_communications() {
        // Illegal schedule 4: F runs in cluster 1 but no transfer is
        // recorded; adding two transfers that collide on the single 2-cycle
        // bus of the motivating machine trips the overlap check instead.
        let l = chain();
        let machine = presets::motivating_example_machine(); // 1 bus, latency 2
        let ii = 4;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            placed(1, 1, 5, ii, LAT[1]),
            placed(2, 0, 10, ii, LAT[2]),
        ];
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        let s = Schedule::new("m", "hand", ii, ops.clone(), vec![], pressure.clone());
        let v = validate_schedule(&l, &machine, &s);
        // Both cross-cluster edges (LD->F and F->ST) are uncovered.
        assert_eq!(
            v.iter()
                .filter(|x| matches!(x, Violation::MissingCommunication { .. }))
                .count(),
            2,
            "{v:?}"
        );

        let comm = |src: usize, dst: usize, from: usize, to: usize, start: u32| Communication {
            src: OpId::from_index(src),
            dst: OpId::from_index(dst),
            from_cluster: from,
            to_cluster: to,
            start_cycle: start,
            bus: 0,
        };
        // Transfers at rows 2..3 and 3..0 overlap in row 3 on the one bus.
        let comms = vec![comm(0, 1, 0, 1, 2), comm(1, 2, 1, 0, 7)];
        let s = Schedule::new("m", "hand", ii, ops, comms, pressure);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::BusOverlap { bus: 0, row: 3 })),
            "{v:?}"
        );
        assert!(
            !v.iter()
                .any(|x| matches!(x, Violation::MissingCommunication { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn catches_communication_outside_its_window() {
        // A transfer that leaves before the producer's value exists.
        let l = chain();
        let machine = presets::two_cluster(); // 2 buses, latency 1
        let ii = 8;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            placed(1, 1, 5, ii, LAT[1]),
            placed(2, 1, 7, ii, LAT[2]),
        ];
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        let comms = vec![Communication {
            src: OpId::from_index(0),
            dst: OpId::from_index(1),
            from_cluster: 0,
            to_cluster: 1,
            start_cycle: 1, // the load finishes at cycle 2
            bus: 0,
        }];
        let s = Schedule::new("m", "hand", ii, ops, comms, pressure);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::CommunicationOutsideWindow { index: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn catches_register_pressure_lies_and_overflow() {
        // Illegal schedule 5: recorded pressure disagrees with the MaxLive
        // recomputation.
        let l = chain();
        let machine = presets::two_cluster();
        let ii = 3;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            placed(1, 0, 2, ii, LAT[1]),
            placed(2, 0, 4, ii, LAT[2]),
        ];
        let s = Schedule::new("m", "hand", ii, ops, vec![], vec![0, 0]);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::RegisterPressureMismatch { cluster: 0, .. })),
            "{v:?}"
        );

        // A value alive for 64 cycles at II=1 needs 64 overlapping
        // instances — more than the 16-entry file of a 4-cluster machine.
        let machine = presets::four_cluster();
        let ii = 1;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            placed(1, 0, 64, ii, LAT[1]),
            placed(2, 0, 66, ii, LAT[2]),
        ];
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        let s = Schedule::new("m", "hand", ii, ops, vec![], pressure);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::RegisterFileOverflow { cluster: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn catches_miss_scheduled_non_loads() {
        // The flag only means something on loads; a flagged fp op would
        // silently corrupt the miss-scheduled-load metrics downstream.
        let l = chain();
        let machine = presets::two_cluster();
        let ii = 3;
        let mut bad_fp = placed(1, 0, 2, ii, LAT[1]);
        bad_fp.miss_scheduled = true;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            bad_fp,
            placed(2, 0, 4, ii, LAT[2]),
        ];
        let pressure = lifetime::register_pressure(&l, &ops, ii, machine.num_clusters());
        let s = Schedule::new("m", "hand", ii, ops, vec![], pressure);
        let v = validate_schedule(&l, &machine, &s);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::MissScheduledNonLoad { op } if op.index() == 1)),
            "{v:?}"
        );
    }

    #[test]
    fn catches_structural_corruption() {
        let l = chain();
        let machine = presets::two_cluster();
        // Wrong op count.
        let ii = 3;
        let ops = vec![placed(0, 0, 0, ii, LAT[0])];
        let s = Schedule::new("m", "hand", ii, ops, vec![], vec![0, 0]);
        assert!(matches!(
            validate_schedule(&l, &machine, &s)[0],
            Violation::OpCountMismatch {
                expected: 3,
                actual: 1
            }
        ));

        // Cluster out of range + inconsistent stage/row.
        let mut bad = placed(1, 7, 2, ii, LAT[1]);
        bad.row = 0;
        let ops = vec![
            placed(0, 0, 0, ii, LAT[0]),
            bad,
            placed(2, 0, 4, ii, LAT[2]),
        ];
        let s = Schedule::new("m", "hand", ii, ops, vec![], vec![1, 0]);
        let v = validate_schedule(&l, &machine, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ClusterOutOfRange { cluster: 7, .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::StageRowInconsistent { .. })));

        // Zero II short-circuits.
        let ops = vec![
            placed(0, 0, 0, 1, LAT[0]),
            placed(1, 0, 2, 1, LAT[1]),
            placed(2, 0, 4, 1, LAT[2]),
        ];
        let s = Schedule::new("m", "hand", 0, ops, vec![], vec![0, 0]);
        assert_eq!(validate_schedule(&l, &machine, &s), vec![Violation::ZeroIi]);
    }

    #[test]
    fn violations_render_readably() {
        let samples: Vec<Violation> = vec![
            Violation::ZeroIi,
            Violation::OpCountMismatch {
                expected: 3,
                actual: 1,
            },
            Violation::FuOversubscribed {
                cluster: 0,
                kind: FuKind::Memory,
                row: 1,
                used: 3,
                available: 2,
            },
            Violation::BusOverlap { bus: 0, row: 2 },
            Violation::MissingCommunication {
                edge: DepEdge::data(OpId::from_index(0), OpId::from_index(1), 0),
            },
            Violation::RegisterFileOverflow {
                cluster: 1,
                pressure: 40,
                capacity: 32,
            },
        ];
        for v in samples {
            assert!(!v.to_string().is_empty());
        }
    }
}
