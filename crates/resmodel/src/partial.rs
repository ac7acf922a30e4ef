//! The incremental modulo-constraint kernel: a partial schedule that grows
//! and shrinks one placement (or one bus transfer) at a time, answering
//! every legality question in O(delta) — the degree of the operation being
//! touched — instead of re-deriving global state.
//!
//! [`PartialSchedule`] is the single source of truth for placement legality
//! in this workspace: the heuristic assign-and-schedule engine, the list
//! scheduler's modulo publication and the exact branch-and-bound search all
//! reserve through it (the independent validator of `mvp-core` deliberately
//! does *not* — it re-derives every rule from scratch so it can serve as a
//! differential oracle against this kernel).
//!
//! # Rule map
//!
//! Every rule the kernel enforces maps one-to-one onto a violation of the
//! `mvp_core::validate` oracle and onto a constraint of the paper's
//! Section 4 scheduling discipline:
//!
//! | kernel rule (API) | validator counterpart | paper constraint |
//! |---|---|---|
//! | at most `fu_count` occupants per (cluster, unit kind, `cycle % II`) ([`PartialSchedule::try_reserve_op`]) | `FuOversubscribed` | modulo reservation table, §4.1 |
//! | placements carry the hit latency, or the miss latency for miss-scheduled loads ([`PartialSchedule::try_reserve_op`]) | `LatencyMismatch`, `MissScheduledNonLoad` | binding prefetching, §4.3 |
//! | `cycle(dst) + II·distance ≥ cycle(src) + latency (+ bus latency when clusters differ)` ([`PartialSchedule::neighbour_bounds`]) | `DependenceViolated` | dependence constraint incl. inter-cluster copy, §2.1/§4.1 |
//! | a transfer starts after the producer completes and ends before the consumer starts, modulo II ([`PartialSchedule::transfer_pairs`], [`PartialSchedule::transfer_serves_edge`]) | `CommunicationOutsideWindow` | register-bus communication window, §2.1 |
//! | on finite bus sets, one transfer per (bus, modulo row) for the full bus latency; transfers longer than the II are rejected ([`PartialSchedule::reserve_transfer_at`], [`PartialSchedule::reserve_transfer_earliest`]) | `BusOverlap`, `BusOutOfRange` | finite register-bus occupancy, §2.1 |
//! | every cross-cluster data edge carries at least one transfer ([`PartialSchedule::all_cross_edges_covered`]) | `MissingCommunication`, `SpuriousCommunication` | one copy per iteration, §2.1 |
//! | incremental MaxLive lower bound per cluster ([`PartialSchedule::pressure_exceeded`]), exact recomputation at freeze ([`PartialSchedule::freeze`]) | `RegisterFileOverflow`, `RegisterPressureMismatch` | register-file capacity, §4.2 |
//!
//! # Incrementality
//!
//! [`place`](PartialSchedule::place) / [`unplace`](PartialSchedule::unplace)
//! (and the finer-grained reserve/release pairs beneath them) cost
//! O(degree) each: functional-unit rows and bus rows are occupancy stacks,
//! and the MaxLive lower bound is maintained as a running per-cluster total
//! with per-operation lifetime maxima, so a search that places and unplaces
//! millions of candidates never recomputes pressure over the whole loop.
//! Releases must follow reservation order (LIFO), which every client —
//! depth-first search, probe-and-undo heuristics — naturally satisfies;
//! debug builds assert it.
//!
//! The kernel keeps per-cluster and per-bus use counts beside the
//! occupancy tables, so [`max_used_cluster`](PartialSchedule::max_used_cluster)
//! and [`max_used_bus`](PartialSchedule::max_used_bus) cost O(clusters) and
//! O(buses) instead of a scan over every placement and bus row. A transfer
//! takes its start row modulo the II once and wraps the rest by
//! subtraction. [`transfer_pairs`](PartialSchedule::transfer_pairs) fills a
//! buffer the caller passes in, and
//! [`neighbour_bounds_per_cluster`](PartialSchedule::neighbour_bounds_per_cluster)
//! gives an operation's dependence window in every cluster from one walk
//! over its edges, with the same arithmetic as the single-cluster
//! [`neighbour_bounds`](PartialSchedule::neighbour_bounds). A search that
//! places and unplaces millions of candidates therefore allocates nothing
//! once its buffers are warm.

use crate::lifetime;
use crate::model::ResModel;
use crate::schedule::{Communication, PlacedOp, Schedule};
use mvp_ir::{EdgeKind, OpId};
use mvp_machine::ClusterId;

/// Identifier recorded in kernel occupancy slots. Purely informational for
/// the kernel itself; conflict reports return the *maximum* token in the
/// way, which lets search clients use decision levels as tokens and
/// backjump to the deepest implicated level.
pub type Token = u32;

/// Identifier of one reserved bus transfer (its position in the transfer
/// stack). Only the most recent transfer can be released.
pub type TransferId = usize;

/// One committed placement inside a [`PartialSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// Cluster the operation is placed in.
    pub cluster: ClusterId,
    /// Signed start cycle. [`PartialSchedule::freeze`] shifts the whole
    /// schedule by a multiple of the II so exported cycles are non-negative
    /// (which keeps every modulo row intact).
    pub cycle: i64,
    /// Latency this placement assumes (hit latency, or the miss latency for
    /// miss-scheduled loads).
    pub latency: u32,
    /// Whether the placement is a miss-scheduled load (binding prefetching).
    pub miss_scheduled: bool,
    /// Token the placement was reserved with.
    pub token: Token,
}

/// Why a placement attempt was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlaceError {
    /// Every functional unit of the operation's kind in the target cluster
    /// is busy in the target modulo row (or the cluster has no unit of the
    /// kind at all). `conflict` is the maximum occupant token, `None` when
    /// the cluster has no unit of the kind.
    FuBusy {
        /// Maximum token among the occupants in the way.
        conflict: Option<Token>,
    },
    /// The assumed latency does not match the machine's latency table for
    /// this operation (hit latency, or miss latency for miss-scheduled
    /// loads).
    LatencyMismatch,
    /// A non-load operation was flagged as miss-scheduled.
    MissScheduledNonLoad,
    /// The start cycle violates a dependence towards an already-placed
    /// neighbour (outside the [`NeighbourBounds`] window).
    OutsideWindow,
    /// A register-bus transfer towards an already-placed neighbour could
    /// not be reserved inside its window.
    TransferFailed,
}

/// Start-cycle bounds imposed on one operation by its already-placed
/// neighbours, as computed by [`PartialSchedule::neighbour_bounds`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NeighbourBounds {
    /// Earliest legal start cycle (`None` when no placed predecessor
    /// constrains the operation beyond the caller's initial bound).
    pub lo: Option<i64>,
    /// Latest legal start cycle (`None` when no placed successor constrains
    /// the operation beyond the caller's initial bound).
    pub hi: Option<i64>,
    /// Maximum token among the neighbours that tightened either bound
    /// (`None` when only the caller's initial window applies). Search
    /// clients use this for conflict-driven backjumping.
    pub culprit: Option<Token>,
}

impl NeighbourBounds {
    /// Whether `cycle` lies inside the window.
    #[must_use]
    pub fn admits(&self, cycle: i64) -> bool {
        self.lo.is_none_or(|lo| cycle >= lo) && self.hi.is_none_or(|hi| cycle <= hi)
    }
}

/// One cross-cluster register transfer implied by a placement: the merged
/// (producer, consumer) pair with its start-cycle window, as computed by
/// [`PartialSchedule::transfer_pairs`]. Parallel data edges between the same
/// pair share one transfer whose window is intersected over the edges (the
/// one-copy-per-iteration reading).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPair {
    /// Operation producing the value.
    pub src: OpId,
    /// Operation consuming the value.
    pub dst: OpId,
    /// Cluster the value leaves.
    pub from: ClusterId,
    /// Cluster the value enters.
    pub to: ClusterId,
    /// Earliest legal start cycle (producer completion).
    pub lo: i64,
    /// Latest legal start cycle (consumer start minus the bus latency,
    /// minimised over parallel edges).
    pub hi: i64,
    /// Token of the already-placed neighbour that implies the transfer.
    pub neighbour_token: Token,
}

/// Handle returned by the composite [`PartialSchedule::place`]: names the
/// placed operation and the transfers booked with it, so
/// [`unplace`](PartialSchedule::unplace) can undo exactly that delta.
#[derive(Debug)]
#[must_use = "dropping a PlaceHandle keeps the placement; pass it to unplace() to undo"]
pub struct PlaceHandle {
    op: OpId,
    transfers: usize,
}

impl PlaceHandle {
    /// The placed operation.
    #[must_use]
    pub fn op(&self) -> OpId {
        self.op
    }

    /// Number of bus transfers booked with the placement.
    #[must_use]
    pub fn num_transfers(&self) -> usize {
        self.transfers
    }
}

/// A transfer record on the reservation stack (signed start cycle; shifted
/// to non-negative at freeze).
#[derive(Debug, Clone, Copy)]
struct CommRec {
    src: OpId,
    dst: OpId,
    from: ClusterId,
    to: ClusterId,
    start: i64,
    bus: usize,
    token: Token,
}

/// Undo information for one placement's pressure delta.
#[derive(Debug, Default, Clone)]
struct PressureFrame {
    /// `(producer, previous max lifetime)` for every producer whose
    /// lifetime maximum this placement changed (including the placed
    /// operation itself).
    producer_old_life: Vec<(OpId, Option<i64>)>,
    /// `(producer, consuming cluster)` for every cross-cluster copy count
    /// this placement incremented.
    copy_increments: Vec<(OpId, ClusterId)>,
}

/// The incremental modulo-constraint kernel: one partial schedule at a
/// fixed II over a [`ResModel`], supporting O(delta) reserve/release of
/// operation placements and register-bus transfers, per-rule legality
/// queries, and a [`freeze`](PartialSchedule::freeze) exporter.
///
/// See the [module documentation](self) for the rule map and the
/// incrementality contract.
#[derive(Debug)]
pub struct PartialSchedule<'r, 'l, 'm> {
    model: &'r ResModel<'l, 'm>,
    ii: u32,
    placements: Vec<Option<Placed>>,
    placed_count: usize,
    /// Occupant tokens per (cluster, unit kind, modulo row).
    fu_rows: Vec<[Vec<Vec<Token>>; 3]>,
    /// Occupant token per (bus, modulo row); `None` for unbounded bus sets.
    bus_rows: Option<Vec<Vec<Option<Token>>>>,
    /// Reservation stack of bus transfers.
    comms: Vec<CommRec>,
    /// Incremental per-cluster MaxLive lower bound over the placed prefix.
    pressure: Vec<u32>,
    /// Current maximum lifetime of each producing operation's value over
    /// its placed consumers.
    max_life: Vec<Option<i64>>,
    /// Cross-cluster copy counts per producer: `(cluster, edges)` — a
    /// cluster holds one copy register while any placed consumer edge
    /// reaches it.
    copy_counts: Vec<Vec<(ClusterId, u32)>>,
    /// Per-operation pressure undo frames, meaningful while the operation
    /// is placed. Each frame keeps its buffers across placements, so a
    /// search's place/unplace cycle allocates nothing once warm.
    frames: Vec<PressureFrame>,
    /// Placed operations per cluster.
    cluster_uses: Vec<u32>,
    /// Reserved transfers per bus (empty for unbounded bus sets).
    bus_uses: Vec<u32>,
}

/// The modulo rows a transfer starting at `start` occupies on its bus: its
/// `span` consecutive cycles, modulo `ii`. Finite bus sets book only
/// transfers with `span ≤ ii`, so one division finds the first row and the
/// rest wrap by a single subtraction.
fn transfer_rows(start: i64, span: u32, ii: i64) -> impl Iterator<Item = usize> {
    debug_assert!(i64::from(span) <= ii, "a transfer longer than the II");
    let first = start.rem_euclid(ii);
    (first..first + i64::from(span)).map(move |r| (if r < ii { r } else { r - ii }) as usize)
}

/// Registers a value of the given maximum lifetime occupies: one per II the
/// value stays alive, with same-cycle consumption still pinning one
/// register. `None` (no placed consumer yet) alone contributes nothing —
/// the *final-pressure floor* for such producers is layered on top by
/// [`PartialSchedule::producer_regs`].
fn regs(life: Option<i64>, ii: i64) -> u32 {
    match life {
        None => 0,
        Some(0) => 1,
        Some(l) => ((l + ii - 1) / ii) as u32,
    }
}

impl<'r, 'l, 'm> PartialSchedule<'r, 'l, 'm> {
    /// Creates an empty partial schedule at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics when `ii` is zero (no modulo table exists).
    #[must_use]
    pub fn new(model: &'r ResModel<'l, 'm>, ii: u32) -> Self {
        assert!(ii > 0, "a modulo schedule needs a positive II");
        let n = model.num_ops();
        let rows = ii as usize;
        Self {
            model,
            ii,
            placements: vec![None; n],
            placed_count: 0,
            fu_rows: (0..model.machine.num_clusters())
                .map(|_| {
                    [
                        vec![Vec::new(); rows],
                        vec![Vec::new(); rows],
                        vec![Vec::new(); rows],
                    ]
                })
                .collect(),
            bus_rows: model.num_buses.map(|b| vec![vec![None; rows]; b]),
            comms: Vec::new(),
            pressure: vec![0; model.machine.num_clusters()],
            max_life: vec![None; n],
            copy_counts: vec![Vec::new(); n],
            frames: vec![PressureFrame::default(); n],
            cluster_uses: vec![0; model.machine.num_clusters()],
            bus_uses: vec![0; model.num_buses.unwrap_or(0)],
        }
    }

    /// The model this schedule is built over.
    #[must_use]
    pub fn model(&self) -> &'r ResModel<'l, 'm> {
        self.model
    }

    /// The initiation interval.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Number of operations currently placed.
    #[must_use]
    pub fn num_placed(&self) -> usize {
        self.placed_count
    }

    /// Number of bus transfers currently reserved.
    #[must_use]
    pub fn num_transfers(&self) -> usize {
        self.comms.len()
    }

    /// The current placement of `op`, if any.
    #[must_use]
    pub fn placement(&self, op: OpId) -> Option<&Placed> {
        self.placements[op.index()].as_ref()
    }

    /// Highest cluster index any placed operation occupies (symmetry
    /// breaking over interchangeable clusters keys off this).
    #[must_use]
    pub fn max_used_cluster(&self) -> Option<ClusterId> {
        self.cluster_uses.iter().rposition(|&n| n > 0)
    }

    /// Highest bus index any reserved transfer occupies (`None` on an empty
    /// or unbounded bus set).
    #[must_use]
    pub fn max_used_bus(&self) -> Option<usize> {
        self.bus_uses.iter().rposition(|&n| n > 0)
    }

    fn row_of(&self, cycle: i64) -> usize {
        cycle.rem_euclid(i64::from(self.ii)) as usize
    }

    /// Start-cycle bounds imposed on `op` in `cluster` by its already-placed
    /// neighbours, tightened from the caller's initial window. Predecessors
    /// raise the lower bound by `cycle + delay (+ bus latency when clusters
    /// differ) − II·distance`, with [`mvp_ir::DepEdge::delay`]; successors
    /// lower the upper bound symmetrically (the validator's
    /// `DependenceViolated` rule, solved for the free endpoint). `culprit` accumulates the maximum token among
    /// every neighbour that strictly tightened a bound.
    ///
    /// Self-loop edges are excluded: both endpoints shift together, so they
    /// constrain the *II*, not the start cycle — query
    /// [`self_edges_admit`](Self::self_edges_admit) for that rule.
    #[must_use]
    pub fn neighbour_bounds(
        &self,
        op: OpId,
        cluster: ClusterId,
        assumed_latency: u32,
        init_lo: Option<i64>,
        init_hi: Option<i64>,
    ) -> NeighbourBounds {
        let mut bounds = NeighbourBounds {
            lo: init_lo,
            hi: init_hi,
            culprit: None,
        };
        let out = std::slice::from_mut(&mut bounds);
        self.fold_neighbour_bounds(op, assumed_latency, cluster, out);
        bounds
    }

    /// [`neighbour_bounds`](Self::neighbour_bounds) for every cluster at
    /// once, in one walk over the operation's edges: `out[c]` receives the
    /// window of `op` in cluster `c`, for every `c < out.len()`.
    pub fn neighbour_bounds_per_cluster(
        &self,
        op: OpId,
        assumed_latency: u32,
        init_lo: Option<i64>,
        init_hi: Option<i64>,
        out: &mut [NeighbourBounds],
    ) {
        out.fill(NeighbourBounds {
            lo: init_lo,
            hi: init_hi,
            culprit: None,
        });
        self.fold_neighbour_bounds(op, assumed_latency, 0, out);
    }

    /// The one implementation of the dependence-window arithmetic: tightens
    /// `out[i]`, the window of `op` in cluster `first_cluster + i`, by every
    /// already-placed neighbour, in edge order.
    fn fold_neighbour_bounds(
        &self,
        op: OpId,
        assumed_latency: u32,
        first_cluster: ClusterId,
        out: &mut [NeighbourBounds],
    ) {
        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.model.bus_latency);
        for e in self.model.l.preds(op) {
            if e.src == op {
                continue; // self-loop: both endpoints move together
            }
            let Some(p) = self.placements[e.src.index()] else {
                continue;
            };
            let comm = if e.kind == EdgeKind::Data { bus_lat } else { 0 };
            let same = p.cycle + i64::from(e.delay(p.latency)) - ii * i64::from(e.distance);
            for (c, b) in (first_cluster..).zip(out.iter_mut()) {
                let bound = if c == p.cluster { same } else { same + comm };
                if b.lo.is_none_or(|x| bound > x) {
                    b.lo = Some(bound);
                    b.culprit = b.culprit.max(Some(p.token));
                }
            }
        }
        for e in self.model.l.succs(op) {
            if e.dst == op {
                continue;
            }
            let Some(s) = self.placements[e.dst.index()] else {
                continue;
            };
            let comm = if e.kind == EdgeKind::Data { bus_lat } else { 0 };
            let same = s.cycle + ii * i64::from(e.distance) - i64::from(e.delay(assumed_latency));
            for (c, b) in (first_cluster..).zip(out.iter_mut()) {
                let bound = if c == s.cluster { same } else { same - comm };
                if b.hi.is_none_or(|x| bound < x) {
                    b.hi = Some(bound);
                    b.culprit = b.culprit.max(Some(s.token));
                }
            }
        }
    }

    /// Whether every self-loop edge of `op` is satisfied at this II with
    /// the given assumed latency. A self-loop shifts with its own
    /// placement, so the validator's `DependenceViolated` rule degenerates
    /// to a pure II constraint: `II · distance ≥ delay`, with
    /// [`mvp_ir::DepEdge::delay`] of the assumed latency (the bus term never
    /// applies — one operation occupies one cluster). The builders discharge this rule up front via
    /// `RecMII` / window propagation, so it is primarily a replay/oracle
    /// query.
    #[must_use]
    pub fn self_edges_admit(&self, op: OpId, assumed_latency: u32) -> bool {
        let ii = i64::from(self.ii);
        self.model
            .l
            .preds(op)
            .filter(|e| e.src == op)
            .all(|e| ii * i64::from(e.distance) >= i64::from(e.delay(assumed_latency)))
    }

    /// Reserves the functional-unit slot for `op` in `cluster` at `cycle`
    /// and commits the placement — *without* checking dependences or
    /// booking transfers (search clients enumerate those as separate
    /// decisions; the composite [`place`](Self::place) does everything at
    /// once). O(1) plus the O(degree) pressure delta.
    ///
    /// # Errors
    ///
    /// [`PlaceError::FuBusy`] when every unit of the kind is occupied in the
    /// modulo row (carrying the maximum occupant token),
    /// [`PlaceError::LatencyMismatch`] / [`PlaceError::MissScheduledNonLoad`]
    /// when the assumed latency breaks the machine's latency table.
    pub fn try_reserve_op(
        &mut self,
        op: OpId,
        cluster: ClusterId,
        cycle: i64,
        assumed_latency: u32,
        miss_scheduled: bool,
        token: Token,
    ) -> Result<(), PlaceError> {
        debug_assert!(
            self.placements[op.index()].is_none(),
            "{op} is already placed"
        );
        if miss_scheduled && !self.model.l.op(op).is_load() {
            return Err(PlaceError::MissScheduledNonLoad);
        }
        if assumed_latency != self.model.expected_latency(op, miss_scheduled) {
            return Err(PlaceError::LatencyMismatch);
        }
        let kind = self.model.fu_kind[op.index()].index();
        let capacity = self.model.fu_count[cluster][kind];
        let row = self.row_of(cycle);
        let occupants = &self.fu_rows[cluster][kind][row];
        if occupants.len() >= capacity {
            return Err(PlaceError::FuBusy {
                conflict: occupants.iter().copied().max(),
            });
        }
        self.fu_rows[cluster][kind][row].push(token);
        self.placements[op.index()] = Some(Placed {
            cluster,
            cycle,
            latency: assumed_latency,
            miss_scheduled,
            token,
        });
        self.placed_count += 1;
        self.cluster_uses[cluster] += 1;
        self.add_pressure(op);
        #[cfg(debug_assertions)]
        self.debug_check_pressure();
        Ok(())
    }

    /// Releases the placement of `op` (the inverse of
    /// [`try_reserve_op`](Self::try_reserve_op)). Transfers booked while
    /// `op` was placed must be released first.
    ///
    /// # Panics
    ///
    /// Panics when `op` is not placed.
    pub fn release_op(&mut self, op: OpId) {
        let p = self.placements[op.index()].expect("release_op on an unplaced operation");
        debug_assert!(
            !self.comms.iter().any(|c| c.src == op || c.dst == op),
            "transfers touching {op} must be released before the placement"
        );
        self.remove_pressure(op);
        let kind = self.model.fu_kind[op.index()].index();
        let row = self.row_of(p.cycle);
        let popped = self.fu_rows[p.cluster][kind][row].pop();
        debug_assert_eq!(popped, Some(p.token), "FU releases must be LIFO");
        self.placements[op.index()] = None;
        self.placed_count -= 1;
        self.cluster_uses[p.cluster] -= 1;
    }

    /// Places `op` with every legality rule enforced at once: dependence
    /// window, functional-unit slot, latency legality, and one register-bus
    /// transfer per cross-cluster data edge towards an already-placed
    /// neighbour (incoming transfers first, then outgoing, each booked at
    /// the earliest free start cycle on the lowest free bus). On failure the
    /// kernel state is left exactly as before the call.
    ///
    /// # Errors
    ///
    /// Any [`PlaceError`]; see [`try_reserve_op`](Self::try_reserve_op) and
    /// [`reserve_transfer_earliest`](Self::reserve_transfer_earliest).
    pub fn place(
        &mut self,
        op: OpId,
        cluster: ClusterId,
        cycle: i64,
        assumed_latency: u32,
        miss_scheduled: bool,
        token: Token,
    ) -> Result<PlaceHandle, PlaceError> {
        let bounds = self.neighbour_bounds(op, cluster, assumed_latency, None, None);
        self.place_in_window(
            op,
            cluster,
            cycle,
            assumed_latency,
            miss_scheduled,
            token,
            &bounds,
        )
    }

    /// [`place`](Self::place) with a caller-supplied dependence window.
    ///
    /// [`place`](Self::place) recomputes
    /// [`neighbour_bounds`](Self::neighbour_bounds) — an O(degree) walk
    /// over the operation's edges — on *every* call, but a scheduler probing many candidate
    /// cycles for one `(op, cluster, latency)` choice faces the same window
    /// each time: no neighbour moves between candidates. This variant lets
    /// the caller compute the window once per choice and sweep the
    /// candidate cycles against it, which is the list schedulers' hottest
    /// placement loop.
    ///
    /// `bounds` must come from [`neighbour_bounds`](Self::neighbour_bounds)
    /// for the same `(op, cluster, assumed_latency)` against the *current*
    /// kernel state (no placements or releases in between), possibly
    /// tightened by an initial window; debug builds re-derive the window
    /// and assert the cycle is genuinely legal.
    ///
    /// # Errors
    ///
    /// Any [`PlaceError`]; see [`place`](Self::place).
    #[allow(clippy::too_many_arguments)]
    pub fn place_in_window(
        &mut self,
        op: OpId,
        cluster: ClusterId,
        cycle: i64,
        assumed_latency: u32,
        miss_scheduled: bool,
        token: Token,
        bounds: &NeighbourBounds,
    ) -> Result<PlaceHandle, PlaceError> {
        if !bounds.admits(cycle) {
            return Err(PlaceError::OutsideWindow);
        }
        debug_assert!(
            self.neighbour_bounds(op, cluster, assumed_latency, None, None)
                .admits(cycle),
            "stale caller window admitted cycle {cycle} for {op}"
        );
        self.try_reserve_op(op, cluster, cycle, assumed_latency, miss_scheduled, token)?;

        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.model.bus_latency);
        let l = self.model.l;
        // The transfers booked here are the top of the LIFO stack.
        let first_transfer = self.comms.len();
        let mut ok = true;
        // Incoming transfers: a value produced in another cluster must
        // reach this cluster before `cycle`.
        for e in l.preds(op) {
            if e.kind != EdgeKind::Data {
                continue;
            }
            let Some(p) = self.placements[e.src.index()] else {
                continue;
            };
            if p.cluster == cluster {
                continue;
            }
            let ready = p.cycle + i64::from(p.latency) - ii * i64::from(e.distance);
            let start_max = cycle - bus_lat;
            if self
                .reserve_transfer_earliest(e.src, op, p.cluster, cluster, ready, start_max, token)
                .is_none()
            {
                ok = false;
                break;
            }
        }
        // Outgoing transfers: the value produced here must reach already
        // placed consumers in other clusters before their start cycle.
        if ok {
            for e in l.succs(op) {
                if e.kind != EdgeKind::Data {
                    continue;
                }
                let Some(s) = self.placements[e.dst.index()] else {
                    continue;
                };
                if s.cluster == cluster || e.dst == op {
                    continue;
                }
                let ready = cycle + i64::from(assumed_latency);
                let deadline = s.cycle + ii * i64::from(e.distance);
                let start_max = deadline - bus_lat;
                if self
                    .reserve_transfer_earliest(
                        op, e.dst, cluster, s.cluster, ready, start_max, token,
                    )
                    .is_none()
                {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            while self.comms.len() > first_transfer {
                self.release_transfer(self.comms.len() - 1);
            }
            self.release_op(op);
            return Err(PlaceError::TransferFailed);
        }
        Ok(PlaceHandle {
            op,
            transfers: self.comms.len() - first_transfer,
        })
    }

    /// Undoes a [`place`](Self::place): releases the booked transfers and
    /// the placement. Must be called in reverse placement order (LIFO).
    pub fn unplace(&mut self, handle: PlaceHandle) {
        for _ in 0..handle.transfers {
            self.release_transfer(self.comms.len() - 1);
        }
        self.release_op(handle.op);
    }

    /// Reserves one register-bus transfer whose start cycle must lie in
    /// `[start_min, start_max]`, greedily: start cycles are tried earliest
    /// first (at most II of them — only II distinct modulo rows exist) and
    /// buses lowest-index first. Unbounded bus sets always succeed at
    /// `start_min` on bus 0; finite sets reject transfers longer than the II
    /// outright (they would overlap their own next-iteration instance).
    /// Returns the transfer id, or `None` when no (start, bus) fits.
    #[allow(clippy::too_many_arguments)]
    pub fn reserve_transfer_earliest(
        &mut self,
        src: OpId,
        dst: OpId,
        from: ClusterId,
        to: ClusterId,
        start_min: i64,
        start_max: i64,
        token: Token,
    ) -> Option<TransferId> {
        if start_max < start_min {
            return None;
        }
        let ii = i64::from(self.ii);
        let Some(num_buses) = self.bus_rows.as_ref().map(Vec::len) else {
            self.comms.push(CommRec {
                src,
                dst,
                from,
                to,
                start: start_min,
                bus: 0,
                token,
            });
            return Some(self.comms.len() - 1);
        };
        if i64::from(self.model.bus_latency) > ii {
            return None;
        }
        let span = self.model.bus_latency;
        let tries = (start_max - start_min + 1).min(ii);
        for offset in 0..tries {
            let start = start_min + offset;
            for bus in 0..num_buses {
                let table = self.bus_rows.as_mut().expect("finite bus set");
                if transfer_rows(start, span, ii).all(|r| table[bus][r].is_none()) {
                    for r in transfer_rows(start, span, ii) {
                        table[bus][r] = Some(token);
                    }
                    self.bus_uses[bus] += 1;
                    self.comms.push(CommRec {
                        src,
                        dst,
                        from,
                        to,
                        start,
                        bus,
                        token,
                    });
                    return Some(self.comms.len() - 1);
                }
            }
        }
        None
    }

    /// Reserves one register-bus transfer at an explicit (start, bus)
    /// choice — the primitive search clients enumerate over.
    ///
    /// # Errors
    ///
    /// `Err(max occupant token)` when some row of the transfer window is
    /// occupied on that bus; `Err(None)` when the bus is out of range or the
    /// transfer is longer than the II (never legal on a finite bus set).
    #[allow(clippy::too_many_arguments)]
    pub fn reserve_transfer_at(
        &mut self,
        src: OpId,
        dst: OpId,
        from: ClusterId,
        to: ClusterId,
        start: i64,
        bus: usize,
        token: Token,
    ) -> Result<TransferId, Option<Token>> {
        let ii = i64::from(self.ii);
        if let Some(num_buses) = self.bus_rows.as_ref().map(Vec::len) {
            if bus >= num_buses {
                return Err(None);
            }
            if i64::from(self.model.bus_latency) > ii {
                return Err(None);
            }
            let span = self.model.bus_latency;
            let table = self.bus_rows.as_mut().expect("finite bus set");
            if let Some(max) = transfer_rows(start, span, ii)
                .filter_map(|r| table[bus][r])
                .max()
            {
                return Err(Some(max));
            }
            for r in transfer_rows(start, span, ii) {
                table[bus][r] = Some(token);
            }
            self.bus_uses[bus] += 1;
        }
        self.comms.push(CommRec {
            src,
            dst,
            from,
            to,
            start,
            bus,
            token,
        });
        Ok(self.comms.len() - 1)
    }

    /// Releases the most recent transfer (LIFO).
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the most recent reservation.
    pub fn release_transfer(&mut self, id: TransferId) {
        assert_eq!(id, self.comms.len() - 1, "transfer releases must be LIFO");
        let rec = self.comms.pop().expect("transfer stack is non-empty");
        if let Some(table) = self.bus_rows.as_mut() {
            for r in transfer_rows(rec.start, self.model.bus_latency, i64::from(self.ii)) {
                debug_assert_eq!(table[rec.bus][r], Some(rec.token));
                table[rec.bus][r] = None;
            }
            self.bus_uses[rec.bus] -= 1;
        }
    }

    /// The cross-cluster transfers implied by the (already committed)
    /// placement of `op`, written into `pairs` (cleared first, so a search
    /// can reuse one buffer per decision level): one per (producer,
    /// consumer) pair with a placed neighbour in another cluster, the start
    /// window intersected over parallel edges. The windows are non-empty
    /// whenever the [`neighbour_bounds`](Self::neighbour_bounds) admitted
    /// the cycle.
    pub fn transfer_pairs(&self, op: OpId, pairs: &mut Vec<TransferPair>) {
        let p = self.placements[op.index()].expect("transfer_pairs on an unplaced operation");
        let (cluster, t) = (p.cluster, p.cycle);
        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.model.bus_latency);
        pairs.clear();
        let merge = |pairs: &mut Vec<TransferPair>, pair: TransferPair| {
            if let Some(existing) = pairs
                .iter_mut()
                .find(|x| x.src == pair.src && x.dst == pair.dst)
            {
                existing.hi = existing.hi.min(pair.hi);
            } else {
                pairs.push(pair);
            }
        };
        for e in self.model.l.preds(op) {
            if e.kind != EdgeKind::Data || e.src == op {
                continue;
            }
            let Some(s) = self.placements[e.src.index()] else {
                continue;
            };
            if s.cluster != cluster {
                merge(
                    pairs,
                    TransferPair {
                        src: e.src,
                        dst: op,
                        from: s.cluster,
                        to: cluster,
                        lo: s.cycle + i64::from(s.latency),
                        hi: t + ii * i64::from(e.distance) - bus_lat,
                        neighbour_token: s.token,
                    },
                );
            }
        }
        for e in self.model.l.succs(op) {
            if e.kind != EdgeKind::Data || e.dst == op {
                continue;
            }
            let Some(d) = self.placements[e.dst.index()] else {
                continue;
            };
            if d.cluster != cluster {
                merge(
                    pairs,
                    TransferPair {
                        src: op,
                        dst: e.dst,
                        from: cluster,
                        to: d.cluster,
                        lo: t + i64::from(p.latency),
                        hi: d.cycle + ii * i64::from(e.distance) - bus_lat,
                        neighbour_token: d.token,
                    },
                );
            }
        }
    }

    /// Whether a transfer for (`src`, `dst`) starting at a cycle congruent
    /// to `start` (modulo II) can begin after the producer completes and
    /// finish before the consumer starts for *some* data edge between the
    /// pair — the kernel's version of the validator's
    /// `CommunicationOutsideWindow` rule. Both endpoints must be placed in
    /// the recorded clusters.
    #[must_use]
    pub fn transfer_serves_edge(
        &self,
        src: OpId,
        dst: OpId,
        from: ClusterId,
        to: ClusterId,
        start: i64,
    ) -> bool {
        let (Some(p), Some(d)) = (self.placements[src.index()], self.placements[dst.index()])
        else {
            return false;
        };
        if p.cluster == d.cluster || from != p.cluster || to != d.cluster {
            return false;
        }
        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.model.bus_latency);
        self.model
            .l
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Data && e.src == src && e.dst == dst)
            .any(|e| {
                let lo = p.cycle + i64::from(p.latency);
                let hi = d.cycle + ii * i64::from(e.distance) - bus_lat;
                if hi < lo {
                    return false;
                }
                if hi - lo + 1 >= ii {
                    return true; // the window spans every modulo row
                }
                let offset = (start.rem_euclid(ii) - lo.rem_euclid(ii)).rem_euclid(ii);
                lo + offset <= hi
            })
    }

    /// Whether every cross-cluster data edge between placed endpoints is
    /// covered by at least one reserved transfer (the validator's
    /// `MissingCommunication` rule over the placed prefix).
    #[must_use]
    pub fn all_cross_edges_covered(&self) -> bool {
        self.model.l.edges().iter().all(|e| {
            if e.kind != EdgeKind::Data {
                return true;
            }
            let (Some(p), Some(d)) = (
                self.placements[e.src.index()],
                self.placements[e.dst.index()],
            ) else {
                return true;
            };
            if p.cluster == d.cluster {
                return true;
            }
            self.comms.iter().any(|c| c.src == e.src && c.dst == e.dst)
        })
    }

    /// Incremental per-cluster MaxLive lower bound over the placed prefix:
    /// every placed value's maximum lifetime over its placed consumers,
    /// `ceil(lifetime / II)` registers in the producing cluster — with a
    /// floor of one register per placed producer that has any successor,
    /// matching the final `lifetime::register_pressure` semantics, which
    /// charge a register even for same-cycle consumption — plus one copy
    /// register per cluster receiving the value over a bus. Placing more
    /// operations can only lengthen lifetimes and add copies, so the bound
    /// is monotone — exceeding a register file here is final for the whole
    /// subtree of a search.
    #[must_use]
    pub fn pressure_lower_bound(&self) -> &[u32] {
        &self.pressure
    }

    /// Whether the incremental MaxLive lower bound already exceeds some
    /// cluster's register file (the validator's `RegisterFileOverflow` rule
    /// as a monotone prefix bound).
    #[must_use]
    pub fn pressure_exceeded(&self) -> bool {
        self.pressure
            .iter()
            .zip(&self.model.register_file)
            .any(|(&used, &cap)| used > cap)
    }

    /// The pressure lower bound recomputed from scratch over the placed
    /// prefix — the non-incremental reference the O(delta) updates must
    /// agree with (debug builds assert the agreement on every reserve).
    #[must_use]
    pub fn recomputed_pressure_lower_bound(&self) -> Vec<u32> {
        let num_clusters = self.model.machine.num_clusters();
        let mut pressure = vec![0u32; num_clusters];
        let ii = i64::from(self.ii);
        for op in self.model.l.op_ids() {
            let Some(p) = self.placements[op.index()] else {
                continue;
            };
            if !self.model.l.op(op).kind.produces_value() {
                continue;
            }
            let mut lifetime: Option<i64> = None;
            let mut copied_to: Vec<ClusterId> = Vec::new();
            for e in self.model.l.succs(op) {
                if e.kind != EdgeKind::Data {
                    continue;
                }
                let Some(u) = self.placements[e.dst.index()] else {
                    continue;
                };
                let life = (u.cycle + ii * i64::from(e.distance) - p.cycle).max(0);
                lifetime = Some(lifetime.map_or(life, |x| x.max(life)));
                if u.cluster != p.cluster && !copied_to.contains(&u.cluster) {
                    copied_to.push(u.cluster);
                    pressure[u.cluster] += 1;
                }
            }
            pressure[p.cluster] += self.producer_regs(op, lifetime);
        }
        pressure
    }

    /// Registers a *placed* producer pins in its cluster under the final
    /// MaxLive semantics: `ceil(lifetime / II)` over its placed consumers,
    /// with a floor of one whole register the moment the producer is
    /// placed. `lifetime::register_pressure` charges every value-producing
    /// operation with at least one successor a register even when its
    /// longest lifetime is zero, so any completion of a prefix that places
    /// such a producer pays at least one register in its cluster — the
    /// floor keeps the incremental bound monotone *and* final-consistent
    /// before any consumer lands. The floor is precomputed per operation
    /// ([`ResModel::register_floor`]).
    fn producer_regs(&self, op: OpId, life: Option<i64>) -> u32 {
        regs(life, i64::from(self.ii)).max(self.model.register_floor[op.index()])
    }

    #[cfg(debug_assertions)]
    fn debug_check_pressure(&self) {
        debug_assert_eq!(
            self.pressure,
            self.recomputed_pressure_lower_bound(),
            "incremental pressure diverged from the batch recomputation"
        );
    }

    /// O(degree) pressure delta for placing `op` (called from
    /// [`try_reserve_op`](Self::try_reserve_op)).
    fn add_pressure(&mut self, op: OpId) {
        let ii = i64::from(self.ii);
        let p = self.placements[op.index()].expect("op placed");
        let mut frame = std::mem::take(&mut self.frames[op.index()]);
        frame.producer_old_life.clear();
        frame.copy_increments.clear();

        // The placed operation as producer: its value's lifetime over
        // already-placed consumers (including a self-loop consumer).
        if self.model.l.op(op).kind.produces_value() {
            let mut life: Option<i64> = None;
            for e in self.model.l.succs(op) {
                if e.kind != EdgeKind::Data {
                    continue;
                }
                let Some(u) = self.placements[e.dst.index()] else {
                    continue;
                };
                let this = (u.cycle + ii * i64::from(e.distance) - p.cycle).max(0);
                life = Some(life.map_or(this, |x| x.max(this)));
                if u.cluster != p.cluster {
                    self.bump_copy(&mut frame, op, u.cluster);
                }
            }
            debug_assert!(self.max_life[op.index()].is_none());
            // Even with no placed consumer yet (`life == None`) the
            // producer pays its final-pressure floor; the contribution is
            // undone by `remove_pressure` directly, not via the frame.
            let inc = self.producer_regs(op, life);
            self.pressure[p.cluster] += inc;
            self.max_life[op.index()] = life;
        }

        // The placed operation as consumer: it may extend the lifetime of
        // already-placed producers and add copy registers in its cluster.
        for e in self.model.l.preds(op) {
            if e.kind != EdgeKind::Data || e.src == op {
                continue;
            }
            let Some(d) = self.placements[e.src.index()] else {
                continue;
            };
            if !self.model.l.op(e.src).kind.produces_value() {
                continue;
            }
            let this = (p.cycle + ii * i64::from(e.distance) - d.cycle).max(0);
            let old = self.max_life[e.src.index()];
            if old.is_none_or(|x| this > x) {
                let dec = self.producer_regs(e.src, old);
                let inc = self.producer_regs(e.src, Some(this));
                self.pressure[d.cluster] -= dec;
                self.pressure[d.cluster] += inc;
                self.max_life[e.src.index()] = Some(this);
                frame.producer_old_life.push((e.src, old));
            }
            if d.cluster != p.cluster {
                self.bump_copy(&mut frame, e.src, p.cluster);
            }
        }
        self.frames[op.index()] = frame;
    }

    fn bump_copy(&mut self, frame: &mut PressureFrame, producer: OpId, cluster: ClusterId) {
        let counts = &mut self.copy_counts[producer.index()];
        if let Some(entry) = counts.iter_mut().find(|(c, _)| *c == cluster) {
            entry.1 += 1;
        } else {
            counts.push((cluster, 1));
            self.pressure[cluster] += 1;
        }
        frame.copy_increments.push((producer, cluster));
    }

    /// Inverse of [`add_pressure`](Self::add_pressure); the placement of
    /// `op` must still be committed while this runs.
    fn remove_pressure(&mut self, op: OpId) {
        let frame = std::mem::take(&mut self.frames[op.index()]);
        for &(producer, old) in frame.producer_old_life.iter().rev() {
            let cluster = self.placements[producer.index()]
                .expect("producers outlive their consumers under LIFO release")
                .cluster;
            let current = self.max_life[producer.index()];
            let dec = self.producer_regs(producer, current);
            let inc = self.producer_regs(producer, old);
            self.pressure[cluster] -= dec;
            self.pressure[cluster] += inc;
            self.max_life[producer.index()] = old;
        }
        for &(producer, cluster) in frame.copy_increments.iter().rev() {
            let counts = &mut self.copy_counts[producer.index()];
            let idx = counts
                .iter()
                .position(|(c, _)| *c == cluster)
                .expect("copy increments are balanced");
            counts[idx].1 -= 1;
            if counts[idx].1 == 0 {
                counts.swap_remove(idx);
                self.pressure[cluster] -= 1;
            }
        }
        self.frames[op.index()] = frame;
        // The operation's own producer contribution (floor included): its
        // consumer edges were recorded in *their* frames, so what is left
        // in `max_life[op]` is exactly what `add_pressure` charged.
        if self.model.l.op(op).kind.produces_value() {
            let p = self.placements[op.index()].expect("op still committed");
            let life = self.max_life[op.index()].take();
            let dec = self.producer_regs(op, life);
            self.pressure[p.cluster] -= dec;
        }
    }

    /// The committed placements as public [`PlacedOp`]s, in operation-id
    /// order. Every operation must be placed at a non-negative cycle (use
    /// [`freeze`](Self::freeze) for schedules built with signed cycles).
    ///
    /// # Panics
    ///
    /// Panics when an operation is unplaced or placed at a negative cycle.
    #[must_use]
    pub fn placed_ops(&self) -> Vec<PlacedOp> {
        self.placements
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let p = p.expect("every operation is placed");
                let cycle = u32::try_from(p.cycle).expect("cycles are non-negative");
                PlacedOp {
                    op: OpId::from_index(i),
                    cluster: p.cluster,
                    cycle,
                    stage: cycle / self.ii,
                    row: cycle % self.ii,
                    assumed_latency: p.latency,
                    miss_scheduled: p.miss_scheduled,
                }
            })
            .collect()
    }

    /// The reserved transfers as public [`Communication`]s, in reservation
    /// order. Start cycles must be non-negative (see
    /// [`freeze`](Self::freeze) for the shifting exporter).
    ///
    /// # Panics
    ///
    /// Panics when a transfer starts at a negative cycle.
    #[must_use]
    pub fn communications(&self) -> Vec<Communication> {
        self.comms
            .iter()
            .map(|c| Communication {
                src: c.src,
                dst: c.dst,
                from_cluster: c.from,
                to_cluster: c.to,
                start_cycle: u32::try_from(c.start).expect("transfer starts are non-negative"),
                bus: c.bus,
            })
            .collect()
    }

    /// Exports the complete partial schedule as a [`Schedule`]: shifts every
    /// cycle by a multiple of the II so the minimum cycle is non-negative
    /// (rotating all modulo rows in lockstep, which preserves every
    /// functional-unit, bus, dependence and lifetime relation), recomputes
    /// the exact MaxLive register pressure the validator recomputes, and
    /// assembles the placements and transfers.
    ///
    /// # Panics
    ///
    /// Panics when some operation is still unplaced.
    #[must_use]
    pub fn freeze(&self, scheduler_name: &str) -> Schedule {
        assert_eq!(
            self.placed_count,
            self.model.num_ops(),
            "freeze needs a complete schedule"
        );
        let ii_i = i64::from(self.ii);
        let min_cycle = self
            .placements
            .iter()
            .flatten()
            .map(|p| p.cycle)
            .chain(self.comms.iter().map(|c| c.start))
            .min()
            .unwrap_or(0);
        let shift = min_cycle.div_euclid(ii_i) * ii_i;

        let placed: Vec<PlacedOp> = self
            .placements
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let p = p.expect("every operation is placed");
                let cycle = (p.cycle - shift) as u32;
                PlacedOp {
                    op: OpId::from_index(i),
                    cluster: p.cluster,
                    cycle,
                    stage: cycle / self.ii,
                    row: cycle % self.ii,
                    assumed_latency: p.latency,
                    miss_scheduled: p.miss_scheduled,
                }
            })
            .collect();
        let communications: Vec<Communication> = self
            .comms
            .iter()
            .map(|c| Communication {
                src: c.src,
                dst: c.dst,
                from_cluster: c.from,
                to_cluster: c.to,
                start_cycle: (c.start - shift) as u32,
                bus: c.bus,
            })
            .collect();
        let pressure = lifetime::register_pressure(
            self.model.l,
            &placed,
            self.ii,
            self.model.machine.num_clusters(),
        );
        Schedule::new(
            self.model.machine.name.clone(),
            scheduler_name,
            self.ii,
            placed,
            communications,
            pressure,
        )
    }

    /// The exact MaxLive register pressure of the complete schedule (what
    /// the validator recomputes) — a convenience for clients that check the
    /// final `RegisterFileOverflow` rule before exporting.
    ///
    /// # Panics
    ///
    /// Panics when some operation is still unplaced or placed at a negative
    /// cycle.
    #[must_use]
    pub fn final_pressure(&self) -> Vec<u32> {
        lifetime::register_pressure(
            self.model.l,
            &self.placed_ops(),
            self.ii,
            self.model.machine.num_clusters(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::Loop;
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

    fn op(i: usize) -> OpId {
        OpId::from_index(i)
    }

    #[test]
    fn place_unplace_round_trips_to_the_empty_state() {
        let l = chain();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 2);
        let h0 = ps.place(op(0), 0, 0, 2, false, 0).unwrap();
        let h1 = ps.place(op(1), 1, 3, 2, false, 1).unwrap();
        assert_eq!(ps.num_placed(), 2);
        assert_eq!(h1.num_transfers(), 1, "LD -> F crosses clusters");
        assert_eq!(ps.num_transfers(), 1);
        assert!(ps.all_cross_edges_covered());
        ps.unplace(h1);
        ps.unplace(h0);
        assert_eq!(ps.num_placed(), 0);
        assert_eq!(ps.num_transfers(), 0);
        assert_eq!(ps.pressure_lower_bound(), &[0, 0]);
        assert_eq!(ps.max_used_cluster(), None);
        assert_eq!(ps.max_used_bus(), None);
    }

    #[test]
    fn fu_rows_reject_oversubscription_with_the_max_token() {
        // The motivating machine has one memory unit per cluster: LD and ST
        // in the same modulo row of cluster 0 collide.
        let l = chain();
        let machine = presets::motivating_example_machine();
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 2);
        ps.try_reserve_op(op(0), 0, 0, 2, false, 7).unwrap();
        let err = ps.try_reserve_op(op(2), 0, 4, 1, false, 9).unwrap_err();
        assert_eq!(err, PlaceError::FuBusy { conflict: Some(7) });
        // Another row is free.
        ps.try_reserve_op(op(2), 0, 5, 1, false, 9).unwrap();
        ps.release_op(op(2));
        ps.release_op(op(0));
    }

    #[test]
    fn latency_rules_match_the_validator() {
        let l = chain();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 4);
        // Wrong latency on a hit-scheduled load.
        assert_eq!(
            ps.try_reserve_op(op(0), 0, 0, 3, false, 0).unwrap_err(),
            PlaceError::LatencyMismatch
        );
        // Miss-scheduling a non-load.
        assert_eq!(
            ps.try_reserve_op(op(1), 0, 0, 2, true, 0).unwrap_err(),
            PlaceError::MissScheduledNonLoad
        );
        // Miss-scheduled loads must carry the miss latency.
        let miss = machine.load_miss_latency();
        ps.try_reserve_op(op(0), 0, 0, miss, true, 0).unwrap();
        assert_eq!(ps.placement(op(0)).unwrap().latency, miss);
    }

    #[test]
    fn neighbour_bounds_include_the_bus_latency() {
        let l = chain();
        let machine = presets::two_cluster(); // bus latency 1
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 4);
        ps.try_reserve_op(op(0), 0, 0, 2, false, 3).unwrap();
        // Same cluster: F may start at LD + latency = 2.
        let same = ps.neighbour_bounds(op(1), 0, 2, None, None);
        assert_eq!((same.lo, same.hi, same.culprit), (Some(2), None, Some(3)));
        // Other cluster: one extra cycle for the bus hop.
        let cross = ps.neighbour_bounds(op(1), 1, 2, None, None);
        assert_eq!(cross.lo, Some(3));
        assert!(cross.admits(3) && !cross.admits(2));
        // Initial windows tighten only when a neighbour beats them.
        let wide = ps.neighbour_bounds(op(1), 0, 2, Some(5), Some(9));
        assert_eq!((wide.lo, wide.culprit), (Some(5), None));
    }

    #[test]
    fn self_edges_constrain_the_ii_alone() {
        // A 2-cycle accumulator recurrence: II=1 wraps onto itself, II=2
        // admits it — independent of where the op is placed.
        let mut b = Loop::builder("acc");
        let x = b.fp_op("X");
        b.data_edge(x, x, 1);
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let tight = PartialSchedule::new(&model, 1);
        assert!(!tight.self_edges_admit(x, 2));
        // Neighbour bounds deliberately ignore the self-loop.
        assert_eq!(tight.neighbour_bounds(x, 0, 2, None, None).lo, None);
        let roomy = PartialSchedule::new(&model, 2);
        assert!(roomy.self_edges_admit(x, 2));
    }

    #[test]
    fn place_rejects_cycles_outside_the_window() {
        let l = chain();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 4);
        let _h = ps.place(op(0), 0, 0, 2, false, 0).unwrap();
        assert_eq!(
            ps.place(op(1), 0, 1, 2, false, 1).unwrap_err(),
            PlaceError::OutsideWindow
        );
    }

    #[test]
    fn transfer_reservation_is_start_major_bus_minor_and_lifo() {
        let l = chain();
        let machine = presets::two_cluster(); // 2 buses, latency 1
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 2);
        let a = ps
            .reserve_transfer_earliest(op(0), op(1), 0, 1, 0, 3, 1)
            .unwrap();
        let b = ps
            .reserve_transfer_earliest(op(0), op(1), 0, 1, 0, 3, 2)
            .unwrap();
        // Same start row, second transfer lands on the next bus.
        let comms = ps.communications();
        assert_eq!((comms[a].start_cycle, comms[a].bus), (0, 0));
        assert_eq!((comms[b].start_cycle, comms[b].bus), (0, 1));
        // Both buses busy in row 0: an explicit reservation reports the max
        // token in the way.
        assert_eq!(
            ps.reserve_transfer_at(op(1), op(2), 1, 0, 2, 0, 3),
            Err(Some(1))
        );
        // The earliest-fit reservation slides to row 1 instead.
        let c = ps
            .reserve_transfer_earliest(op(1), op(2), 1, 0, 0, 3, 3)
            .unwrap();
        assert_eq!(ps.communications()[c].start_cycle, 1);
        assert_eq!(ps.max_used_bus(), Some(1));
        ps.release_transfer(c);
        ps.release_transfer(b);
        ps.release_transfer(a);
        assert_eq!(ps.num_transfers(), 0);
    }

    #[test]
    fn transfers_longer_than_the_ii_are_rejected_on_finite_buses() {
        let l = chain();
        let machine = presets::motivating_example_machine(); // bus latency 2
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 1);
        assert_eq!(
            ps.reserve_transfer_earliest(op(0), op(1), 0, 1, 0, 5, 0),
            None
        );
        assert_eq!(
            ps.reserve_transfer_at(op(0), op(1), 0, 1, 0, 0, 0),
            Err(None)
        );
    }

    #[test]
    fn incremental_pressure_matches_the_batch_recomputation() {
        // A value consumed two stages later plus a cross-cluster consumer:
        // exercises lifetime growth, copy registers and LIFO undo.
        let mut b = Loop::builder("spread");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        let z = b.fp_op("Z");
        b.data_edge(x, y, 0);
        b.data_edge(x, z, 1);
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 2);
        ps.try_reserve_op(x, 0, 0, 2, false, 0).unwrap();
        // No consumer placed yet, but X's value will pin at least one
        // register in any completion: the final-pressure floor.
        assert_eq!(ps.pressure_lower_bound(), &[1, 0]);
        ps.try_reserve_op(y, 0, 5, 2, false, 1).unwrap();
        // X alive 5 cycles at II=2 -> 3 registers.
        assert_eq!(ps.pressure_lower_bound(), &[3, 0]);
        ps.try_reserve_op(z, 1, 2, 2, false, 2).unwrap();
        // Carried use at cycle 2 + II = 4 < 5: lifetime unchanged, one copy
        // register in cluster 1.
        assert_eq!(ps.pressure_lower_bound(), &[3, 1]);
        assert_eq!(
            ps.pressure_lower_bound(),
            ps.recomputed_pressure_lower_bound().as_slice()
        );
        ps.release_op(z);
        assert_eq!(ps.pressure_lower_bound(), &[3, 0]);
        ps.release_op(y);
        assert_eq!(ps.pressure_lower_bound(), &[1, 0]);
        ps.release_op(x);
        assert_eq!(ps.pressure_lower_bound(), &[0, 0]);
    }

    #[test]
    fn placed_producers_pay_the_final_pressure_floor() {
        // LD -> F -> ST: every value-producing op with a successor pins one
        // register the moment it is placed — `lifetime::register_pressure`
        // charges even same-cycle consumption a register, so the floor is a
        // sound (and tighter) prefix bound. The store produces no value and
        // stays free.
        let l = chain();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 1);
        ps.try_reserve_op(op(1), 0, 2, 2, false, 0).unwrap();
        assert_eq!(ps.pressure_lower_bound(), &[1, 0]);
        ps.try_reserve_op(op(0), 0, 0, 2, false, 1).unwrap();
        // LD's value: consumed at cycle 2, lifetime 2 at II=1 -> 2 regs,
        // plus F's floor.
        assert_eq!(ps.pressure_lower_bound(), &[3, 0]);
        ps.try_reserve_op(op(2), 0, 4, 1, false, 2).unwrap();
        // F -> ST lifetime 2 replaces F's floor; ST itself adds nothing.
        assert_eq!(ps.pressure_lower_bound(), &[4, 0]);
        assert_eq!(
            ps.pressure_lower_bound(),
            ps.recomputed_pressure_lower_bound().as_slice()
        );
        ps.release_op(op(2));
        assert_eq!(ps.pressure_lower_bound(), &[3, 0]);
        ps.release_op(op(0));
        assert_eq!(ps.pressure_lower_bound(), &[1, 0]);
        ps.release_op(op(1));
        assert_eq!(ps.pressure_lower_bound(), &[0, 0]);
    }

    #[test]
    fn pressure_exceeded_is_a_monotone_prefix_bound() {
        use mvp_machine::{BusConfig, CacheGeometry, ClusterConfig, MachineConfig};
        let machine = MachineConfig::builder("tiny-regs")
            .homogeneous_clusters(
                1,
                ClusterConfig::new(2, 2, 2, 2, CacheGeometry::direct_mapped(1024)),
            )
            .register_buses(BusConfig::finite(1, 1))
            .memory_buses(BusConfig::finite(1, 1))
            .build()
            .unwrap();
        let mut b = Loop::builder("fat");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        let l = b.build().unwrap();
        let model = ResModel::new(&l, &machine).unwrap();
        let mut ps = PartialSchedule::new(&model, 1);
        ps.try_reserve_op(x, 0, 0, 2, false, 0).unwrap();
        assert!(!ps.pressure_exceeded());
        // Y at cycle 6: X alive 6 cycles at II=1 -> 6 registers > file of 2.
        ps.try_reserve_op(y, 0, 6, 2, false, 1).unwrap();
        assert!(ps.pressure_exceeded());
    }

    #[test]
    fn freeze_normalizes_negative_cycles_by_a_multiple_of_the_ii() {
        let l = chain();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let ii = 3;
        let mut ps = PartialSchedule::new(&model, ii);
        let _a = ps.place(op(0), 0, -4, 2, false, 0).unwrap();
        let _b = ps.place(op(1), 0, -2, 2, false, 1).unwrap();
        let _c = ps.place(op(2), 0, 0, 1, false, 2).unwrap();
        let s = ps.freeze("test");
        // Shift is a multiple of the II (-4 -> row 2 stays row 2).
        assert_eq!(s.ii(), ii);
        assert_eq!(s.placement(op(0)).cycle, 2);
        assert_eq!(s.placement(op(0)).row, 2);
        assert_eq!(s.placement(op(1)).cycle, 4);
        assert_eq!(s.placement(op(2)).cycle, 6);
        assert_eq!(s.scheduler_name, "test");
    }

    #[test]
    fn transfer_windows_wrap_modulo_ii() {
        let l = chain();
        let machine = presets::two_cluster();
        let model = ResModel::new(&l, &machine).unwrap();
        let ii = 8;
        let mut ps = PartialSchedule::new(&model, ii);
        ps.try_reserve_op(op(0), 0, 0, 2, false, 0).unwrap();
        ps.try_reserve_op(op(1), 1, 5, 2, false, 1).unwrap();
        // The LD -> F window is [2, 4]: congruent starts serve the edge,
        // others do not.
        assert!(ps.transfer_serves_edge(op(0), op(1), 0, 1, 2));
        assert!(ps.transfer_serves_edge(op(0), op(1), 0, 1, 2 + i64::from(ii)));
        assert!(!ps.transfer_serves_edge(op(0), op(1), 0, 1, 5));
        // Wrong clusters or co-located endpoints never match.
        assert!(!ps.transfer_serves_edge(op(0), op(1), 1, 0, 2));
        assert!(!ps.all_cross_edges_covered());
    }
}
