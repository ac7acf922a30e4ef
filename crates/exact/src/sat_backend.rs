//! The CDCL SAT backend for fixed-II probes: the same satisfaction problem
//! the branch-and-bound search solves, lowered to CNF and handed to the
//! workspace's dependency-free solver (`mvp-sat`).
//!
//! # Encoding
//!
//! Per operation the start cycle is **order-encoded** over its static window
//! `[earliest, latest]` (from [`crate::propagate::windows`]): one-hot start
//! variables `s[op][t]` channelled to monotone prefix variables
//! `P[op][k] ⇔ start ≤ earliest + k`, so the dependence difference
//! constraints become single watched clauses instead of quadratic sets of
//! pairwise conflict clauses. On multi-cluster machines each operation also
//! carries a one-hot cluster choice restricted to clusters owning a unit of
//! its kind.
//!
//! The validator's rule set maps onto clauses as follows:
//!
//! * **dependences** (`DependenceViolated`): for every edge and every
//!   candidate consumer start `t`, `¬s_dst(t) ∨ (start_src ≤ t − w)` with
//!   `w = latency − II·distance`; cross-cluster data edges add the stronger
//!   `¬s_dst(t) ∨ same ∨ (start_src ≤ t − w − bus_latency)` guarded by the
//!   pair's co-location variable;
//! * **functional units** (`FuOversubscribed`): modulo-row variables
//!   `r[op][ρ]` channelled from the start variables, conjoined with the
//!   cluster choice into occupancy literals counted by a sequential-counter
//!   *at-most-k* per (cluster, unit kind, row) — only for unit kinds that
//!   can actually oversubscribe;
//! * **communication** (`MissingCommunication`, `CommunicationOutsideWindow`,
//!   `BusOverlap`): on finite bus sets every cross-capable producer/consumer
//!   pair gets transfer variables `y[bus][row]`; a cross pair must pick
//!   exactly one (`same ∨ ⋁y` plus at-most-one), the decoded start — the
//!   earliest cycle of the chosen row class after the producer completes —
//!   must meet every parallel edge's deadline, and per (bus, row) the
//!   transfers whose `bus_latency`-cycle span covers the row are mutually
//!   exclusive. Transfers longer than the II force co-location outright;
//!   unbounded bus sets need no clauses at all (any window cycle is free);
//! * **cluster capacity** (implied by the functional-unit rows): at most
//!   `fu_count · II` operations of a kind on one cluster, an *at-most-k*
//!   over that kind's cluster literals;
//! * **bus capacity** (implied by the bus rows): with `1 ≤ bus_latency ≤
//!   II`, at most `num_buses · ⌊II / bus_latency⌋` cross pairs, an
//!   *at-most-k* over the pairs' negated co-location literals. Both are
//!   pigeonhole counts that CDCL would otherwise rediscover row by row;
//!   they remove no model, and cut the corpus's SAT steps from 53,644 to
//!   12,760 when they were added;
//! * **register pressure** (`RegisterFileOverflow`): checked *outside* the
//!   CNF by counterexample-guided refinement (CEGAR). Every model is
//!   re-priced with the exact MaxLive computation; for each cluster it
//!   overflows, an *explanation lemma* names only the values that push the
//!   cluster past its file — their cluster literals and the start bounds
//!   that make their lifetimes long — and the solver re-runs on its learnt
//!   state. One lemma removes every model sharing that overlap, not just
//!   the one found. With two-stage first encodings (below) no point of the
//!   52-point gap corpus refines and one point of the 116-point corpus
//!   does, in one round; a model free of overflow pays only the re-price.
//!
//! The **time-shift dominance rule** of the branch-and-bound search carries
//! over as a single clause: some operation with `earliest == 0` starts at
//! cycle 0 (any legal schedule shifts down to such a normalized one).
//!
//! # One formula per probe, two horizons
//!
//! Each fixed-II probe encodes one self-contained formula in a fresh
//! [`Solver`], as SAT-MapIt and Tirelli et al. do: the start windows, the
//! cluster choices and every rule above, for that II alone. Nothing
//! carries over from one II to the next; [`solve_fixed_ii_sat`] drops
//! the formula once the probe is decided. Within one encoding the solver
//! persists: register-pressure lemmas re-run it on its learnt state.
//!
//! The first encoding of every probe spans [`FIRST_STAGES`] pipeline
//! stages (or the whole horizon when that is shorter). A model decodes to a
//! legal schedule at any horizon, so a satisfiable first encoding decides
//! the probe. Only a refutation needs every schedule the horizon allows:
//! when the first encoding is unsatisfiable, the probe drops it, encodes
//! the same II over the full [`ExactOptions::horizon_stages`] and goes on
//! with what is left of the step budget. An "infeasible" verdict therefore
//! always comes from the full-horizon formula. Steps and refinement rounds
//! are summed over both encodings.
//!
//! # Decoding and trust
//!
//! A model is decoded back through the shared incremental constraint kernel
//! ([`PartialSchedule`]) — every placement re-checked by `try_reserve_op`,
//! every transfer by `reserve_transfer_at` — and the assembled schedule is
//! unconditionally re-validated with [`mvp_core::validate_schedule`] (not
//! just in debug builds): a SAT certificate is only trusted after the
//! independent oracle accepts the schedule it decodes to.
//!
//! Budget accounting mirrors the branch-and-bound: one *step* is one solver
//! decision or conflict, drawn from the same shared pool as search nodes.

use crate::options::ExactOptions;
use crate::propagate::{windows, Windows};
use crate::search::FixedIiOutcome;
use mvp_core::{lifetime, PlacedOp};
use mvp_ir::{EdgeKind, OpId};
use mvp_resmodel::{PartialSchedule, ResModel};
use mvp_sat::{Lit, SolveResult, Solver, Var};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The order-encoding query "start(op) ≤ t": a literal inside the window, a
/// constant outside it.
#[derive(Clone, Copy)]
enum Bound {
    True,
    False,
    Is(Lit),
}

impl Bound {
    /// Appends this bound (negated when `positive` is false) to a clause
    /// under construction. Returns `false` when the constant already
    /// satisfies the clause (the caller must drop the whole clause).
    fn push_onto(self, clause: &mut Vec<Lit>, positive: bool) -> bool {
        match (self, positive) {
            (Bound::True, true) | (Bound::False, false) => false,
            (Bound::True, false) | (Bound::False, true) => true,
            (Bound::Is(l), true) => {
                clause.push(l);
                true
            }
            (Bound::Is(l), false) => {
                clause.push(!l);
                true
            }
        }
    }
}

struct Encoder<'a, 'l, 'm> {
    p: &'a ResModel<'l, 'm>,
    solver: Solver,
    /// One-hot cluster choice per operation (empty on single-cluster
    /// machines, where the choice is void).
    clusters: Vec<Vec<Var>>,
    /// Co-location variable per unordered operation pair, allocated on
    /// first use. A `BTreeMap` keeps clause emission deterministic — clause
    /// order feeds VSIDS, which picks the model.
    same: BTreeMap<(OpId, OpId), Lit>,
    ii: i64,
    win: Windows,
    /// One-hot start variables: `starts[op][k]` ⇔ start = `earliest[op] + k`.
    starts: Vec<Vec<Var>>,
    /// Monotone prefix variables: `prefix[op][k]` ⇔ start ≤ `earliest + k`,
    /// for `k` in `0..w−1` (the `≤ latest` query is constant true).
    prefix: Vec<Vec<Var>>,
    /// Transfer variables per ordered cross-capable Data pair:
    /// `y[bus][row]` ⇔ the pair's transfer runs on `bus` starting at a cycle
    /// congruent to `row`. Only populated on finite bus sets with
    /// `1 ≤ bus_latency ≤ II`.
    transfers: BTreeMap<(OpId, OpId), Vec<Vec<Var>>>,
}

impl<'a, 'l, 'm> Encoder<'a, 'l, 'm> {
    /// Encodes the whole fixed-II formula: start variables first, so that
    /// the conflict-free branch order (variable index) picks start cycles
    /// before clusterings.
    fn new(p: &'a ResModel<'l, 'm>, ii: u32, win: Windows) -> Self {
        let mut enc = Self {
            p,
            solver: Solver::new(),
            clusters: Vec::new(),
            same: BTreeMap::new(),
            ii: i64::from(ii),
            win,
            starts: Vec::new(),
            prefix: Vec::new(),
            transfers: BTreeMap::new(),
        };
        enc.encode_starts();
        enc.encode_clusters();
        enc.encode_dependences();
        enc.encode_fu_occupancy();
        enc.encode_cluster_capacity();
        enc.encode_transfers();
        enc.encode_anchor();
        enc
    }

    /// Encodes `ii` with windows of `stages` pipeline stages, or `None`
    /// when a positive dependence cycle refutes the II (at any horizon).
    fn with_stages(p: &'a ResModel<'l, 'm>, ii: u32, stages: u32) -> Option<Self> {
        let enc = Self::new(p, ii, windows(p, ii, stages)?);
        mvp_trace::counter_handle!("exact.sat.encoded_vars").add(enc.solver.num_vars() as u64);
        mvp_trace::counter_handle!("exact.sat.encoded_clauses")
            .add(enc.solver.num_clauses() as u64);
        Some(enc)
    }

    fn width(&self, op: OpId) -> usize {
        (self.win.latest[op.index()] - self.win.earliest[op.index()] + 1) as usize
    }

    fn start_lit(&self, op: OpId, t: i64) -> Lit {
        let k = (t - self.win.earliest[op.index()]) as usize;
        Lit::positive(self.starts[op.index()][k])
    }

    /// The "start(op) ≤ t" query against the order encoding.
    fn leq(&self, op: OpId, t: i64) -> Bound {
        let lo = self.win.earliest[op.index()];
        let hi = self.win.latest[op.index()];
        if t < lo {
            Bound::False
        } else if t >= hi {
            Bound::True
        } else {
            Bound::Is(Lit::positive(self.prefix[op.index()][(t - lo) as usize]))
        }
    }

    /// One-hot starts channelled to the monotone prefix chain. The chain
    /// alone forces exactly one start: it has exactly one false→true
    /// boundary, and `s[k] ⇔ P[k] ∧ ¬P[k−1]` pins the start to it.
    fn encode_starts(&mut self) {
        for op in self.p.l.op_ids() {
            let w = self.width(op);
            let s: Vec<Var> = (0..w).map(|_| self.solver.new_var()).collect();
            if w == 1 {
                self.solver.add_clause(&[Lit::positive(s[0])]);
                self.starts.push(s);
                self.prefix.push(Vec::new());
                continue;
            }
            let pf: Vec<Var> = (0..w - 1).map(|_| self.solver.new_var()).collect();
            for k in 0..w - 2 {
                self.solver
                    .add_clause(&[Lit::negative(pf[k]), Lit::positive(pf[k + 1])]);
            }
            self.solver
                .add_clause(&[Lit::negative(s[0]), Lit::positive(pf[0])]);
            self.solver
                .add_clause(&[Lit::negative(pf[0]), Lit::positive(s[0])]);
            for k in 1..w - 1 {
                self.solver
                    .add_clause(&[Lit::negative(s[k]), Lit::positive(pf[k])]);
                self.solver
                    .add_clause(&[Lit::negative(s[k]), Lit::negative(pf[k - 1])]);
                self.solver.add_clause(&[
                    Lit::negative(pf[k]),
                    Lit::positive(pf[k - 1]),
                    Lit::positive(s[k]),
                ]);
            }
            self.solver
                .add_clause(&[Lit::negative(s[w - 1]), Lit::negative(pf[w - 2])]);
            self.solver
                .add_clause(&[Lit::positive(pf[w - 2]), Lit::positive(s[w - 1])]);
            self.starts.push(s);
            self.prefix.push(pf);
        }
    }

    /// One-hot cluster choice over the clusters owning a unit of the
    /// operation's kind ([`ResModel::new`] guarantees at least one exists).
    fn encode_clusters(&mut self) {
        let nc = self.p.machine.num_clusters();
        if nc <= 1 {
            return;
        }
        for op in self.p.l.op_ids() {
            let kind = self.p.fu_kind[op.index()].index();
            let c: Vec<Var> = (0..nc).map(|_| self.solver.new_var()).collect();
            let allowed: Vec<Lit> = (0..nc)
                .filter(|&k| self.p.fu_count[k][kind] > 0)
                .map(|k| Lit::positive(c[k]))
                .collect();
            self.solver.exactly_one(&allowed);
            for (k, &v) in c.iter().enumerate() {
                if self.p.fu_count[k][kind] == 0 {
                    self.solver.add_clause(&[Lit::negative(v)]);
                }
            }
            self.clusters.push(c);
        }
    }

    /// The co-location variable of an unordered pair, biconditionally tied
    /// to the cluster choices on first use.
    fn same_lit(&mut self, a: OpId, b: OpId) -> Lit {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.same.get(&key) {
            return l;
        }
        let sm = Lit::positive(self.solver.new_var());
        for k in 0..self.p.machine.num_clusters() {
            let ca = Lit::positive(self.clusters[key.0.index()][k]);
            let cb = Lit::positive(self.clusters[key.1.index()][k]);
            self.solver.add_clause(&[!ca, !cb, sm]);
            self.solver.add_clause(&[!sm, !ca, cb]);
        }
        self.same.insert(key, sm);
        sm
    }

    /// Dependence difference constraints, solved for the producer via the
    /// prefix chain: per consumer start `t`, the producer must have started
    /// early enough. Self-loop edges constrain the II alone and are already
    /// discharged by window propagation (a violated one is a positive
    /// cycle).
    fn encode_dependences(&mut self) {
        let multi = self.p.machine.num_clusters() > 1;
        let bus_lat = i64::from(self.p.bus_latency);
        let ii = u32::try_from(self.ii).expect("probe IIs fit u32");
        for e in self.p.l.edges() {
            if e.src == e.dst {
                continue;
            }
            let w_same = self.p.edge_weight(e, ii);
            let cross_pays_bus = multi && e.kind == EdgeKind::Data && bus_lat > 0;
            let sm = cross_pays_bus.then(|| self.same_lit(e.src, e.dst));
            let (lo, hi) = (
                self.win.earliest[e.dst.index()],
                self.win.latest[e.dst.index()],
            );
            for t in lo..=hi {
                let not_here = !self.start_lit(e.dst, t);
                // Same-cluster bound (the weaker one; valid unconditionally).
                let mut clause = vec![not_here];
                if self.leq(e.src, t - w_same).push_onto(&mut clause, true) {
                    self.solver.add_clause(&clause);
                }
                // Cross-cluster bound, guarded by the co-location variable.
                if let Some(sm) = sm {
                    let mut clause = vec![not_here, sm];
                    if self
                        .leq(e.src, t - w_same - bus_lat)
                        .push_onto(&mut clause, true)
                    {
                        self.solver.add_clause(&clause);
                    }
                }
            }
        }
    }

    /// Modulo functional-unit occupancy: at most `fu_count` operations of a
    /// kind per (cluster, row). Only kinds that can oversubscribe somewhere
    /// get row variables and counters at all.
    fn encode_fu_occupancy(&mut self) {
        let nc = self.p.machine.num_clusters();
        let rows = self.ii as usize;
        for kind in 0..3 {
            let count = self.p.ops_per_kind[kind];
            let caps: Vec<usize> = (0..nc).map(|k| self.p.fu_count[k][kind]).collect();
            if !caps.iter().any(|&cap| cap > 0 && cap < count) {
                continue;
            }
            let ops: Vec<OpId> = self
                .p
                .l
                .op_ids()
                .filter(|op| self.p.fu_kind[op.index()].index() == kind)
                .collect();
            // Row variables channelled both ways: `s(t) → r[t mod II]` and
            // `r[ρ] → ⋁ s(t ≡ ρ)` (a spuriously-true row would over-count).
            let mut row_vars: BTreeMap<OpId, Vec<Var>> = BTreeMap::new();
            for &op in &ops {
                let r: Vec<Var> = (0..rows).map(|_| self.solver.new_var()).collect();
                let lo = self.win.earliest[op.index()];
                let hi = self.win.latest[op.index()];
                for t in lo..=hi {
                    let rho = t.rem_euclid(self.ii) as usize;
                    self.solver
                        .add_clause(&[!self.start_lit(op, t), Lit::positive(r[rho])]);
                }
                for (rho, &rv) in r.iter().enumerate() {
                    let mut clause = vec![Lit::negative(rv)];
                    clause.extend(
                        (lo..=hi)
                            .filter(|t| t.rem_euclid(self.ii) as usize == rho)
                            .map(|t| self.start_lit(op, t)),
                    );
                    self.solver.add_clause(&clause);
                }
                row_vars.insert(op, r);
            }
            for (k, &cap) in caps.iter().enumerate() {
                if cap == 0 || cap >= count {
                    continue;
                }
                // `rho` indexes every op's row-variable vector, not one
                // slice, so a range loop is the natural shape here.
                #[allow(clippy::needless_range_loop)]
                for rho in 0..rows {
                    // Occupancy literal per op: `cluster ∧ row → z` (one
                    // directional suffices — the solver only sets z when
                    // forced, and the counter only reads it).
                    let zs: Vec<Lit> = ops
                        .iter()
                        .map(|&op| {
                            let z = Lit::positive(self.solver.new_var());
                            let r = Lit::positive(row_vars[&op][rho]);
                            if nc > 1 {
                                let c = Lit::positive(self.clusters[op.index()][k]);
                                self.solver.add_clause(&[!c, !r, z]);
                            } else {
                                self.solver.add_clause(&[!r, z]);
                            }
                            z
                        })
                        .collect();
                    self.solver.at_most_k(&zs, cap);
                }
            }
        }
    }

    /// Cluster capacity: at most `fu_count · II` operations of a kind on a
    /// cluster — the per-row FU counters summed over the rows, stated once
    /// so that a pigeonhole refutation needs no row-by-row search. Implied
    /// by [`Encoder::encode_fu_occupancy`], so it removes no model.
    fn encode_cluster_capacity(&mut self) {
        if self.clusters.is_empty() {
            return;
        }
        for kind in 0..3 {
            let ops: Vec<OpId> = self
                .p
                .l
                .op_ids()
                .filter(|op| self.p.fu_kind[op.index()].index() == kind)
                .collect();
            for k in 0..self.p.machine.num_clusters() {
                let cap = self.p.fu_count[k][kind] * self.ii as usize;
                if cap == 0 || cap >= ops.len() {
                    continue;
                }
                let on_k: Vec<Lit> = ops
                    .iter()
                    .map(|op| Lit::positive(self.clusters[op.index()][k]))
                    .collect();
                self.solver.at_most_k(&on_k, cap);
            }
        }
    }

    /// Cross-cluster transfers on finite bus sets: pick one (bus, row) per
    /// cross pair, meet every parallel edge's window, and never overlap on a
    /// (bus, row). Unbounded bus sets — and zero-latency buses — admit any
    /// window cycle, so the dependence clauses already say everything.
    fn encode_transfers(&mut self) {
        if self.p.machine.num_clusters() <= 1 {
            return;
        }
        let Some(num_buses) = self.p.num_buses else {
            return;
        };
        let bus_lat = i64::from(self.p.bus_latency);
        if bus_lat == 0 {
            return;
        }
        let rows = self.ii as usize;

        let mut pair_edges: BTreeMap<(OpId, OpId), Vec<u32>> = BTreeMap::new();
        for e in self.p.l.edges() {
            if e.kind == EdgeKind::Data && e.src != e.dst {
                pair_edges
                    .entry((e.src, e.dst))
                    .or_default()
                    .push(e.distance);
            }
        }

        if bus_lat > self.ii {
            // A transfer overlaps its own next-iteration instance: every
            // Data pair must co-locate (the kernel's `reserve_transfer_*`
            // reject such transfers outright).
            for &(a, b) in pair_edges.keys().collect::<Vec<_>>() {
                let sm = self.same_lit(a, b);
                self.solver.add_clause(&[sm]);
            }
            return;
        }

        // Bus occupancy groups: the y literals whose span covers (bus, row).
        let mut covering: Vec<Vec<Vec<Lit>>> = vec![vec![Vec::new(); rows]; num_buses];

        for (&(a, b), distances) in &pair_edges {
            let sm = self.same_lit(a, b);
            let y: Vec<Vec<Var>> = (0..num_buses)
                .map(|_| (0..rows).map(|_| self.solver.new_var()).collect())
                .collect();
            let all: Vec<Lit> = y.iter().flatten().map(|&v| Lit::positive(v)).collect();
            // A cross pair books exactly one transfer; a co-located pair none.
            let mut coverage = vec![sm];
            coverage.extend(&all);
            self.solver.add_clause(&coverage);
            self.solver.at_most_one(&all);
            for &l in &all {
                self.solver.add_clause(&[!l, !sm]);
            }
            for (bus, per_row) in y.iter().enumerate() {
                for (rho, &v) in per_row.iter().enumerate() {
                    for o in 0..bus_lat as usize {
                        covering[bus][(rho + o) % rows].push(Lit::positive(v));
                    }
                }
            }
            // Row selectors factor the window clauses over the buses.
            let yr: Vec<Lit> = (0..rows)
                .map(|_| Lit::positive(self.solver.new_var()))
                .collect();
            for per_row in &y {
                for (rho, &v) in per_row.iter().enumerate() {
                    self.solver.add_clause(&[Lit::negative(v), yr[rho]]);
                }
            }
            // Window clauses: with the producer at `t1`, the decoded start of
            // row class ρ is the earliest congruent cycle after completion;
            // it must meet every parallel edge's consumer deadline.
            let lat_a = i64::from(self.p.latency[a.index()]);
            let (lo_a, hi_a) = (self.win.earliest[a.index()], self.win.latest[a.index()]);
            for (rho, &yr_l) in yr.iter().enumerate() {
                for t1 in lo_a..=hi_a {
                    let lo1 = t1 + lat_a;
                    let sigma = lo1 + (rho as i64 - lo1).rem_euclid(self.ii);
                    for &d in distances {
                        // Need start(b) ≥ σ + bus_lat − II·d.
                        let deadline = sigma + bus_lat - self.ii * i64::from(d) - 1;
                        let mut clause = vec![!yr_l, !self.start_lit(a, t1)];
                        if self.leq(b, deadline).push_onto(&mut clause, false) {
                            self.solver.add_clause(&clause);
                        }
                    }
                }
            }
            self.transfers.insert((a, b), y);
        }

        for per_bus in &covering {
            for group in per_bus {
                self.solver.at_most_one(group);
            }
        }

        // Bus capacity: each bus fits at most ⌊II / bus_latency⌋ transfers
        // per iteration, so at most `num_buses` times that many pairs are
        // cross. A pair with Data edges both ways books one transfer each
        // way, and its co-location literal counts twice. Implied by the
        // per-row exclusions above, so it removes no model.
        let cap = num_buses * (rows / bus_lat as usize);
        let cross: Vec<Lit> = pair_edges
            .keys()
            .map(|&(a, b)| !self.same_lit(a, b))
            .collect();
        if cap < cross.len() {
            self.solver.at_most_k(&cross, cap);
        }
    }

    /// Time-shift dominance: any legal schedule shifts down (rotating all
    /// modulo rows in lockstep) until its minimum start cycle is 0, and that
    /// minimum must land on an operation whose ASAP bound is 0 — the set is
    /// never empty, because the longest-path closure always leaves some
    /// path-source at its base bound.
    fn encode_anchor(&mut self) {
        let clause: Vec<Lit> = self
            .p
            .l
            .op_ids()
            .filter(|op| self.win.earliest[op.index()] == 0)
            .map(|op| self.start_lit(op, 0))
            .collect();
        self.solver.add_clause(&clause);
    }

    /// Decodes the current model through the shared constraint kernel,
    /// re-checking every placement and transfer against the same rules the
    /// branch-and-bound enforces incrementally.
    fn decode(&self) -> PartialSchedule<'a, 'l, 'm> {
        let mut ps = PartialSchedule::new(self.p, self.ii as u32);
        for op in self.p.l.op_ids() {
            let t = self.decoded_start(op);
            let cluster = self.decoded_cluster(op);
            ps.try_reserve_op(op, cluster, t, self.p.latency[op.index()], false, 0)
                .expect("the CNF model satisfies the functional-unit rules");
        }
        let mut pairs = Vec::new();
        for op in self.p.l.op_ids() {
            // Each cross pair appears once from the consumer side.
            ps.transfer_pairs(op, &mut pairs);
            for &pair in &pairs {
                if pair.dst != op {
                    continue;
                }
                let (start, bus) = match self.transfers.get(&(pair.src, pair.dst)) {
                    None => (pair.lo, 0), // unbounded or zero-latency buses
                    Some(y) => {
                        let (bus, rho) = y
                            .iter()
                            .enumerate()
                            .flat_map(|(bus, per_row)| {
                                per_row
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, &v)| self.solver.value(v))
                                    .map(move |(rho, _)| (bus, rho))
                            })
                            .next()
                            .expect("cross pairs select a transfer");
                        let sigma = pair.lo + (rho as i64 - pair.lo).rem_euclid(self.ii);
                        (sigma, bus)
                    }
                };
                ps.reserve_transfer_at(pair.src, pair.dst, pair.from, pair.to, start, bus, 0)
                    .expect("the CNF model satisfies the bus rules");
            }
        }
        assert!(
            ps.all_cross_edges_covered(),
            "decoded SAT models cover every cross-cluster edge"
        );
        ps
    }

    fn decoded_start(&self, op: OpId) -> i64 {
        let k = self.starts[op.index()]
            .iter()
            .position(|&v| self.solver.value(v))
            .expect("the start one-hot selects a cycle");
        self.win.earliest[op.index()] + k as i64
    }

    fn decoded_cluster(&self, op: OpId) -> usize {
        if self.clusters.is_empty() {
            return 0;
        }
        self.clusters[op.index()]
            .iter()
            .position(|&v| self.solver.value(v))
            .expect("the cluster one-hot selects a cluster")
    }

    /// The literal "op runs on cluster `c`" (`None` on single-cluster
    /// machines, where it is constant true).
    fn on_cluster(&self, op: OpId, c: usize) -> Option<Lit> {
        self.clusters
            .get(op.index())
            .map(|per_op| Lit::positive(per_op[c]))
    }

    /// The register-pressure explanation for cluster `c` overflowing under
    /// the placements `ops` (the decoded model): a clause naming only the
    /// values that push `c` past its file, false under the model.
    ///
    /// Each term mirrors one summand of
    /// [`lifetime::register_pressure`] on `c`, with a condition that
    /// guarantees at least its weight in any assignment:
    ///
    /// * an **own value** `v` on `c` whose lifetime needs `k ≥ 2` registers:
    ///   `cluster(v)=c ∧ start(v) ≤ t_v ∧ start(u) ≥ t_v + (k−1)·II + 1 − II·d`
    ///   for the consumer `u` (edge distance `d`) that sets the lifetime —
    ///   a self-edge needs no start literals. Any value with a consumer
    ///   holds at least one register, so `k = 1` needs `cluster(v)=c` only;
    /// * a **copy** of a value `v` off `c` with a data consumer `u` on `c`:
    ///   `¬cluster(v)=c ∧ cluster(u)=c`, weight 1. Sound for every
    ///   assignment meeting the dependence clauses: latencies are at least
    ///   1, so a value with a consumer on another cluster lives at least a
    ///   cycle and is never the zero-lifetime case that skips its copies.
    ///
    /// Terms are taken heaviest first (ties by op id) until their weight
    /// exceeds the file; the clause is the negation of their conjunction.
    /// Window-constant bounds drop out.
    fn pressure_lemma(&self, ops: &[PlacedOp], c: usize) -> Vec<Lit> {
        let (l, ii, ii32) = (self.p.l, self.ii, self.ii as u32);
        let mut terms: Vec<(u32, OpId, Vec<Lit>)> = Vec::new();
        for v in l.op_ids() {
            let def = &ops[v.index()];
            let data_succs = || l.succs(v).filter(|e| e.kind == EdgeKind::Data);
            if def.cluster == c {
                if !l.op(v).kind.produces_value() || l.succs(v).next().is_none() {
                    continue;
                }
                let lifetime = lifetime::value_lifetime(l, ops, v, ii32);
                let k = lifetime.div_ceil(ii32).max(1);
                let mut lits: Vec<Lit> = self.on_cluster(v, c).map(|x| !x).into_iter().collect();
                if k >= 2 {
                    let t_v = i64::from(def.cycle);
                    let self_edge = data_succs().any(|e| e.dst == v && e.distance >= k);
                    if !self_edge {
                        let e = data_succs()
                            .max_by_key(|e| {
                                let use_at = i64::from(ops[e.dst.index()].cycle)
                                    + ii * i64::from(e.distance);
                                (use_at, Reverse(e.dst.index()))
                            })
                            .expect("a multi-register lifetime has a data consumer");
                        let need = t_v + i64::from(k - 1) * ii + 1 - ii * i64::from(e.distance);
                        let kept = self.leq(v, t_v).push_onto(&mut lits, false)
                            && self.leq(e.dst, need - 1).push_onto(&mut lits, true);
                        debug_assert!(kept, "the model satisfies its own lemma's condition");
                    }
                }
                terms.push((k, v, lits));
            } else if let Some(u) = data_succs()
                .map(|e| e.dst)
                .find(|u| ops[u.index()].cluster == c)
            {
                let lits = [self.on_cluster(v, c), self.on_cluster(u, c).map(|x| !x)];
                terms.push((1, v, lits.into_iter().flatten().collect()));
            }
        }
        terms.sort_by_key(|&(w, v, _)| (Reverse(w), v));
        let cap = self.p.register_file[c];
        let mut weight = 0u32;
        let mut clause: Vec<Lit> = Vec::new();
        for (w, _, lits) in terms {
            // A literal two terms share repeats; `Solver::add_clause`
            // drops the duplicate.
            clause.extend(lits);
            weight += w;
            if weight > cap {
                return clause;
            }
        }
        unreachable!("the terms sum to the overflowing pressure of cluster {c}")
    }
}

/// Pipeline stages of every probe's first encoding. Two stages find every
/// proved optimum of both gap corpora; one stage refutes feasible IIs on
/// some of their points, so those probes would all pay the re-encoding.
const FIRST_STAGES: u32 = 2;

/// What one SAT probe brings back besides its steps.
#[derive(Debug)]
pub(crate) struct SatProbe {
    pub(crate) outcome: FixedIiOutcome,
    /// Register-pressure refinement rounds, summed over both encodings.
    pub(crate) cegar_rounds: u64,
    /// Stages of the encoding that decided the probe: `None` when a
    /// certificate refuted the II before any encoding, or the budget ran
    /// out.
    pub(crate) stages: Option<u32>,
}

/// One fixed-II probe on the SAT backend: certificates first (resource
/// counts, positive dependence cycles — shared with the
/// branch-and-bound), then the CDCL search over a [`FIRST_STAGES`]-stage
/// encoding, with MaxLive refinement between models, until a verdict or
/// `options.node_budget` steps. A refuted first encoding is replaced by
/// the full-horizon one, which spends what is left of the budget.
/// `steps_used` is incremented by the solver steps (decisions + conflicts)
/// of both encodings; the budget contract matches
/// [`crate::search::solve_fixed_ii`].
pub(crate) fn solve_fixed_ii_sat(
    p: &ResModel<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    steps_used: &mut u64,
) -> SatProbe {
    solve_staged(p, ii, options, FIRST_STAGES, steps_used)
}

/// [`solve_fixed_ii_sat`] with a first encoding of `first_stages` stages
/// (capped by `options.horizon_stages`).
fn solve_staged(
    p: &ResModel<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    first_stages: u32,
    steps_used: &mut u64,
) -> SatProbe {
    let certified = || SatProbe {
        outcome: FixedIiOutcome::Infeasible,
        cegar_rounds: 0,
        stages: None,
    };
    if ii == 0 || p.resource_infeasible(ii) {
        return certified();
    }
    let mut stages = first_stages.min(options.horizon_stages);
    let Some(mut enc) = Encoder::with_stages(p, ii, stages) else {
        return certified();
    };
    let _span = mvp_trace::span!("exact.sat.probe", ii = ii, vars = enc.solver.num_vars());
    let mut cegar_rounds = 0u64;
    let mut spent = 0u64;
    let outcome = loop {
        let remaining = options.node_budget.saturating_sub(spent);
        if remaining == 0 {
            break FixedIiOutcome::Budget;
        }
        let steps0 = enc.solver.steps();
        let result = enc.solver.solve(Some(remaining));
        spent += enc.solver.steps() - steps0;
        match result {
            SolveResult::Unsat if stages < options.horizon_stages => {
                // Refuted within the short horizon only: a legal
                // schedule may still need more stages. The refuted
                // formula is freed before the full one is built, so
                // the two never add up in the peak memory.
                enc.solver = Solver::new();
                stages = options.horizon_stages;
                enc = Encoder::with_stages(p, ii, stages)
                    .expect("the first encoding's windows found no positive cycle");
                continue;
            }
            SolveResult::Unsat => break FixedIiOutcome::Infeasible,
            SolveResult::Budget => break FixedIiOutcome::Budget,
            SolveResult::Sat => {}
        }
        let ps = enc.decode();
        let ops = ps.placed_ops();
        let pressure = lifetime::register_pressure(p.l, &ops, ii, p.machine.num_clusters());
        let overflowing: Vec<usize> = (0..pressure.len())
            .filter(|&c| pressure[c] > p.register_file[c])
            .collect();
        if !overflowing.is_empty() {
            for c in overflowing {
                let lemma = enc.pressure_lemma(&ops, c);
                enc.solver.add_clause(&lemma);
            }
            cegar_rounds += 1;
            mvp_trace::instant!("exact.sat.cegar_round", ii = ii);
            continue;
        }
        let comms = ps.communications();
        // A SAT certificate is only as good as the schedule it decodes
        // to: re-validate with the independent oracle in every build.
        let schedule = mvp_core::Schedule::new(
            p.machine.name.clone(),
            "exact-sat",
            ii,
            ops.clone(),
            comms.clone(),
            pressure,
        );
        let violations = mvp_core::validate_schedule(p.l, p.machine, &schedule);
        assert!(
            violations.is_empty(),
            "the SAT backend decoded an illegal schedule for {}: {violations:?}",
            p.l.name(),
        );
        break FixedIiOutcome::Feasible { ops, comms };
    };
    *steps_used += spent;
    let decided = !matches!(outcome, FixedIiOutcome::Budget);
    SatProbe {
        outcome,
        cegar_rounds,
        stages: decided.then_some(stages),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::Loop;
    use mvp_machine::presets;

    fn probe(l: &Loop, machine: &mvp_machine::MachineConfig, ii: u32) -> FixedIiOutcome {
        let p = ResModel::new(l, machine).unwrap();
        solve_fixed_ii_sat(&p, ii, &ExactOptions::new(), &mut 0).outcome
    }

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
    fn feasible_probes_return_placements_for_every_op() {
        let l = chain();
        let machine = presets::two_cluster();
        match probe(&l, &machine, 1) {
            FixedIiOutcome::Feasible { ops, .. } => {
                assert_eq!(ops.len(), 3);
                assert!(ops.iter().all(|p| p.cluster < 2));
                assert!(ops.iter().all(|p| !p.miss_scheduled));
            }
            other => panic!("expected feasible at II=1, got {other:?}"),
        }
    }

    #[test]
    fn verdicts_match_the_branch_and_bound_on_recurrences() {
        let mut b = Loop::builder("rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        let l = b.build().unwrap();
        let machine = presets::unified();
        assert!(matches!(probe(&l, &machine, 3), FixedIiOutcome::Infeasible));
        assert!(matches!(
            probe(&l, &machine, 4),
            FixedIiOutcome::Feasible { .. }
        ));
    }

    #[test]
    fn resource_bound_is_certified_infeasible() {
        let mut b = Loop::builder("wide");
        for k in 0..5 {
            b.fp_op(format!("F{k}"));
        }
        let l = b.build().unwrap();
        let machine = presets::four_cluster();
        assert!(matches!(probe(&l, &machine, 1), FixedIiOutcome::Infeasible));
        assert!(matches!(
            probe(&l, &machine, 2),
            FixedIiOutcome::Feasible { .. }
        ));
    }

    #[test]
    fn cross_cluster_recurrences_account_for_the_bus_latency() {
        // The same "bus-rec" case the branch-and-bound pins: the recurrence
        // only fits co-located, so the encoder's guarded cross-cluster
        // clauses and transfer windows must agree with the kernel.
        let mut b = Loop::builder("bus-rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        let l = b.build().unwrap();
        let machine = presets::motivating_example_machine();
        assert!(matches!(probe(&l, &machine, 3), FixedIiOutcome::Infeasible));
        match probe(&l, &machine, 4) {
            FixedIiOutcome::Feasible { ops, comms } => {
                assert_eq!(ops[0].cluster, ops[1].cluster);
                assert!(comms.is_empty());
            }
            other => panic!("expected feasible at II=4, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budgets_report_budget_not_infeasible() {
        // A formula that needs at least one decision: II=2 on the chain has
        // real windows, so a 1-step budget trips before any verdict.
        let l = chain();
        let machine = presets::two_cluster();
        let p = ResModel::new(&l, &machine).unwrap();
        let mut steps = 0;
        let out = solve_fixed_ii_sat(&p, 2, &ExactOptions::new().with_node_budget(1), &mut steps);
        assert!(matches!(out.outcome, FixedIiOutcome::Budget), "{out:?}");
        assert_eq!(out.stages, None, "no encoding decided the probe");
        assert!(steps >= 1);
    }

    #[test]
    fn a_refuted_first_encoding_falls_back_to_the_full_horizon() {
        // `tomcatv_xx_small` on four clusters is feasible at II=1, but not
        // within one stage. A one-stage first encoding is refuted, so the
        // probe must find the schedule in the full-horizon encoding and
        // charge the steps of both.
        let l = mvp_workloads::kernels::specfp_small::gap_subset()
            .into_iter()
            .find(|l| l.name() == "tomcatv_xx_small")
            .expect("the gap subset has tomcatv_xx_small");
        let machine = presets::four_cluster();
        let p = ResModel::new(&l, &machine).unwrap();
        let options = ExactOptions::new();
        let full_stages = options.horizon_stages;
        let solve = |first_stages: u32, options: &ExactOptions| {
            let mut steps = 0;
            let probe = solve_staged(&p, 1, options, first_stages, &mut steps);
            (probe.outcome, steps, probe.stages)
        };
        let (outcome, one, _) = solve(1, &options.with_horizon_stages(1));
        assert!(matches!(outcome, FixedIiOutcome::Infeasible), "{outcome:?}");
        let (outcome, full, stages) = solve(full_stages, &options);
        assert!(
            matches!(outcome, FixedIiOutcome::Feasible { .. }),
            "{outcome:?}"
        );
        assert_eq!(stages, Some(full_stages));
        let (outcome, both, stages) = solve(1, &options);
        assert!(
            matches!(outcome, FixedIiOutcome::Feasible { .. }),
            "{outcome:?}"
        );
        assert_eq!(
            stages,
            Some(full_stages),
            "the full-horizon encoding decided"
        );
        assert_eq!(both, one + full, "both encodings' steps are charged");
        // The fallback spends what the first encoding left of the budget.
        let (outcome, spent, stages) = solve(1, &options.with_node_budget(both - 1));
        assert!(matches!(outcome, FixedIiOutcome::Budget), "{outcome:?}");
        assert!(spent > one, "the full-horizon encoding ran");
        assert_eq!(stages, None);
        // Production's first encoding already has room for the schedule.
        let probe = solve_fixed_ii_sat(&p, 1, &options, &mut 0);
        assert!(
            matches!(probe.outcome, FixedIiOutcome::Feasible { .. }),
            "{probe:?}"
        );
        assert_eq!(probe.stages, Some(FIRST_STAGES));
    }

    #[test]
    fn register_pressure_refinement_rejects_overflowing_models() {
        use mvp_machine::{BusConfig, CacheGeometry, ClusterConfig, MachineConfig};
        // One cluster with a 1-register file: X's value must die as fast as
        // possible; a long X→Y lifetime overflows and the refinement loop
        // must steer the solver to the tight placement (or prove none fits).
        let machine = MachineConfig::builder("tiny-regs")
            .homogeneous_clusters(
                1,
                ClusterConfig::new(2, 2, 2, 1, CacheGeometry::direct_mapped(1024)),
            )
            .register_buses(BusConfig::finite(1, 1))
            .memory_buses(BusConfig::finite(1, 1))
            .build()
            .unwrap();
        let mut b = Loop::builder("tight");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        let l = b.build().unwrap();
        match probe(&l, &machine, 1) {
            FixedIiOutcome::Feasible { ops, .. } => {
                // Lifetime exactly the latency: 2 cycles at II=1 needs 2
                // registers > 1, so II=1 must actually be infeasible — reaching
                // here with a validated schedule would mean the refinement
                // leaked an overflowing model.
                panic!("II=1 cannot satisfy the 1-register file, got {ops:?}");
            }
            FixedIiOutcome::Infeasible => {}
            other => panic!("unexpected {other:?}"),
        }
        // II=2 packs the lifetime into ceil(2/2) = 1 register.
        assert!(matches!(
            probe(&l, &machine, 2),
            FixedIiOutcome::Feasible { .. }
        ));
    }

    /// Every (start, cluster) assignment inside the windows, one entry per
    /// operation, over the clusters owning a unit of its kind.
    fn assignments(p: &ResModel<'_, '_>, win: &Windows) -> Vec<Vec<(i64, usize)>> {
        let mut all: Vec<Vec<(i64, usize)>> = vec![Vec::new()];
        for i in 0..p.num_ops() {
            let kind = p.fu_kind[i].index();
            let mut longer = Vec::new();
            for prefix in &all {
                for t in win.earliest[i]..=win.latest[i] {
                    for c in (0..p.machine.num_clusters()).filter(|&c| p.fu_count[c][kind] > 0) {
                        let mut a = prefix.clone();
                        a.push((t, c));
                        longer.push(a);
                    }
                }
            }
            all = longer;
        }
        all
    }

    /// A two-cluster machine, one unit of each kind and `regs` registers
    /// per cluster.
    fn starved(regs: usize) -> mvp_machine::MachineConfig {
        use mvp_machine::{BusConfig, CacheGeometry, ClusterConfig, MachineConfig};
        MachineConfig::builder(format!("starved-{regs}"))
            .homogeneous_clusters(
                2,
                ClusterConfig::new(1, 1, 1, regs, CacheGeometry::direct_mapped(1024)),
            )
            .register_buses(BusConfig::finite(1, 1))
            .memory_buses(BusConfig::finite(1, 1))
            .build()
            .unwrap()
    }

    /// Loops of at most four operations covering every lemma term: copies
    /// to several clusters, a self-edge lifetime, loop-carried consumers,
    /// and a store that holds no register.
    fn tiny_loops() -> Vec<Loop> {
        let mut loops = vec![chain()];
        let mut b = Loop::builder("fan-out");
        let x = b.fp_op("X");
        for name in ["Y", "Z", "W"] {
            let y = b.fp_op(name);
            b.data_edge(x, y, 0);
        }
        loops.push(b.build().unwrap());
        let mut b = Loop::builder("self-edge");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, x, 2);
        b.data_edge(x, y, 0);
        loops.push(b.build().unwrap());
        let mut b = Loop::builder("carried");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        let z = b.int_op("Z");
        b.data_edge(x, y, 2);
        b.data_edge(x, z, 0);
        b.data_edge(y, z, 0);
        loops.push(b.build().unwrap());
        loops
    }

    #[test]
    fn pressure_lemmas_only_exclude_overflowing_assignments() {
        // Every (start, cluster) assignment in the windows that meets the
        // dependence clauses (the lemmas lean on them, see
        // `Encoder::pressure_lemma`) is priced; each overflowing cluster's
        // lemma is then checked against every assignment: whatever
        // falsifies it must overflow that cluster too.
        let options = ExactOptions::new().with_horizon_stages(1);
        let (mut lemmas_checked, mut general) = (0usize, 0usize);
        for regs in [1, 2] {
            let machine = starved(regs);
            for l in &tiny_loops() {
                let p = ResModel::new(l, &machine).unwrap();
                let min_ii = mvp_ir::mii::minimum_ii(l, &machine);
                for ii in min_ii..=min_ii + 1 {
                    let Some(win) = windows(&p, ii, options.horizon_stages) else {
                        continue;
                    };
                    let enc = Encoder::new(&p, ii, win.clone());
                    let n = p.num_ops();
                    let placed = |a: Vec<(i64, usize)>| -> Vec<PlacedOp> {
                        a.into_iter()
                            .enumerate()
                            .map(|(i, (t, cluster))| PlacedOp {
                                op: OpId::from_index(i),
                                cluster,
                                cycle: t as u32,
                                stage: t as u32 / ii,
                                row: t as u32 % ii,
                                assumed_latency: p.latency[i],
                                miss_scheduled: false,
                            })
                            .collect()
                    };
                    let legal = |ops: &Vec<PlacedOp>| {
                        l.edges().iter().filter(|e| e.src != e.dst).all(|e| {
                            i64::from(ops[e.dst.index()].cycle)
                                - i64::from(ops[e.src.index()].cycle)
                                >= p.edge_weight(e, ii)
                        })
                    };
                    let assignments: Vec<Vec<PlacedOp>> = assignments(&p, &win)
                        .into_iter()
                        .map(placed)
                        .filter(legal)
                        .collect();
                    // What each lemma variable means, to evaluate lemmas
                    // against an assignment.
                    let mut prefix_of = BTreeMap::new();
                    let mut cluster_of = BTreeMap::new();
                    for i in 0..n {
                        for (k, &v) in enc.prefix[i].iter().enumerate() {
                            prefix_of.insert(v, (i, win.earliest[i] + k as i64));
                        }
                        for (c, &v) in enc.clusters[i].iter().enumerate() {
                            cluster_of.insert(v, (i, c));
                        }
                    }
                    let holds = |lit: Lit, ops: &[PlacedOp]| {
                        let value = if let Some(&(i, t)) = prefix_of.get(&lit.var()) {
                            i64::from(ops[i].cycle) <= t
                        } else {
                            let (i, c) = cluster_of[&lit.var()];
                            ops[i].cluster == c
                        };
                        value == lit.is_positive()
                    };
                    let pressure = |ops: &[PlacedOp]| lifetime::register_pressure(l, ops, ii, 2);
                    let mut lemmas = std::collections::BTreeSet::new();
                    for ops in &assignments {
                        for (c, &used) in pressure(ops).iter().enumerate() {
                            if used > p.register_file[c] {
                                let mut lemma = enc.pressure_lemma(ops, c);
                                assert!(lemma.iter().all(|&x| !holds(x, ops)), "{lemma:?}");
                                lemma.sort_unstable();
                                lemmas.insert((c, lemma));
                            }
                        }
                    }
                    for (c, lemma) in &lemmas {
                        let mut excluded = 0;
                        for ops in &assignments {
                            if lemma.iter().all(|&x| !holds(x, ops)) {
                                excluded += 1;
                                assert!(
                                    pressure(ops)[*c] > p.register_file[*c],
                                    "{} on {} at II={ii}: lemma {lemma:?} for cluster {c} \
                                     excludes the fitting assignment {ops:?}",
                                    l.name(),
                                    machine.name,
                                );
                            }
                        }
                        lemmas_checked += 1;
                        general += usize::from(excluded > 1);
                    }
                }
            }
        }
        assert!(lemmas_checked > 0, "the fixtures must overflow somewhere");
        assert!(general > 0, "some lemma must exclude more than one model");
    }

    /// Loops of at most four operations that load both counting
    /// constraints: a fan-out with more cross pairs than a two-bus II=1
    /// fits, a pair with Data edges both ways (two transfers when split),
    /// and kinds with more operations than one cluster's units hold.
    fn counting_loops() -> Vec<Loop> {
        let mut loops = tiny_loops();
        let mut b = Loop::builder("both-ways");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        let z = b.int_op("Z");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 3);
        b.data_edge(y, z, 0);
        loops.push(b.build().unwrap());
        let mut b = Loop::builder("two-kinds");
        let x = b.int_op("X");
        let y = b.int_op("Y");
        let z = b.int_op("Z");
        let w = b.fp_op("W");
        b.data_edge(x, w, 0);
        b.data_edge(y, w, 0);
        b.data_edge(z, w, 1);
        loops.push(b.build().unwrap());
        loops
    }

    /// Whether some choice of transfers completes the placements `ops`
    /// (cycle, cluster per operation) to a schedule the independent
    /// validator accepts. Every (start row, bus) of every cross pair is
    /// tried; the kernel only prunes what the validator rejects too.
    fn admits_legal_schedule(p: &ResModel<'_, '_>, ii: u32, ops: &[(i64, usize)]) -> bool {
        fn book(
            p: &ResModel<'_, '_>,
            ps: &mut PartialSchedule<'_, '_, '_>,
            pairs: &[mvp_resmodel::TransferPair],
        ) -> bool {
            let ii = ps.ii();
            let Some((pair, rest)) = pairs.split_first() else {
                let ops = ps.placed_ops();
                let nc = p.machine.num_clusters();
                let pressure = lifetime::register_pressure(p.l, &ops, ii, nc);
                let schedule = mvp_core::Schedule::new(
                    p.machine.name.clone(),
                    "enumerated",
                    ii,
                    ops,
                    ps.communications(),
                    pressure,
                );
                return mvp_core::validate_schedule(p.l, p.machine, &schedule).is_empty();
            };
            for start in pair.lo..=pair.hi.min(pair.lo + i64::from(ii) - 1) {
                for bus in 0..p.num_buses.unwrap_or(1) {
                    let Ok(id) = ps
                        .reserve_transfer_at(pair.src, pair.dst, pair.from, pair.to, start, bus, 0)
                    else {
                        continue;
                    };
                    let legal = book(p, ps, rest);
                    ps.release_transfer(id);
                    if legal {
                        return true;
                    }
                }
            }
            false
        }
        let mut ps = PartialSchedule::new(p, ii);
        for (i, &(t, c)) in ops.iter().enumerate() {
            let op = OpId::from_index(i);
            if ps.try_reserve_op(op, c, t, p.latency[i], false, 0).is_err() {
                return false;
            }
        }
        let mut pairs = Vec::new();
        let mut op_pairs = Vec::new();
        for op in p.l.op_ids() {
            ps.transfer_pairs(op, &mut op_pairs);
            pairs.extend(op_pairs.iter().filter(|x| x.dst == op));
        }
        book(p, &mut ps, &pairs)
    }

    #[test]
    fn counting_constraints_remove_no_model() {
        // Every (cluster, start) assignment in the windows is enumerated;
        // each one the validator accepts (with some transfers) must meet
        // both counting bounds, and — when it is anchored at cycle 0 like
        // every model the encoding admits — satisfy the whole encoding.
        let options = ExactOptions::new().with_horizon_stages(1);
        let (mut accepted, mut tight_cluster, mut tight_bus) = (0usize, 0usize, 0usize);
        for machine in [
            presets::two_cluster(),
            presets::motivating_example_machine(),
        ] {
            for l in &counting_loops() {
                let p = ResModel::new(l, &machine).unwrap();
                let n = p.num_ops();
                let nc = machine.num_clusters();
                let kind = |i: usize| p.fu_kind[i].index();
                for ii in 1..=3u32 {
                    let Some(win) = windows(&p, ii, options.horizon_stages) else {
                        continue;
                    };
                    let mut enc = Encoder::new(&p, ii, win.clone());
                    let bus_lat = p.bus_latency as usize;
                    let bus_cap = p
                        .num_buses
                        .filter(|_| (1..=ii as usize).contains(&bus_lat))
                        .map(|buses| buses * (ii as usize / bus_lat));
                    for ops in assignments(&p, &win) {
                        if !admits_legal_schedule(&p, ii, &ops) {
                            continue;
                        }
                        accepted += 1;
                        for c in 0..nc {
                            for k in 0..3 {
                                let on_c = (0..n).filter(|&i| ops[i].1 == c && kind(i) == k);
                                let (used, cap) = (on_c.count(), p.fu_count[c][k] * ii as usize);
                                assert!(used <= cap, "{} on {}", l.name(), machine.name);
                                tight_cluster += usize::from(used == cap && cap > 0);
                            }
                        }
                        if let Some(cap) = bus_cap {
                            let mut cross: Vec<(OpId, OpId)> = l
                                .edges()
                                .iter()
                                .filter(|e| e.kind == EdgeKind::Data && e.src != e.dst)
                                .filter(|e| ops[e.src.index()].1 != ops[e.dst.index()].1)
                                .map(|e| (e.src, e.dst))
                                .collect();
                            cross.sort_unstable();
                            cross.dedup();
                            assert!(
                                cross.len() <= cap,
                                "{} on {} at II={ii}: {ops:?}",
                                l.name(),
                                machine.name
                            );
                            tight_bus += usize::from(cross.len() == cap);
                        }
                        let anchored = (0..n).any(|i| win.earliest[i] == 0 && ops[i].0 == 0);
                        if anchored {
                            let assumptions: Vec<Lit> = (0..n)
                                .flat_map(|i| {
                                    let op = OpId::from_index(i);
                                    [
                                        Some(enc.start_lit(op, ops[i].0)),
                                        enc.on_cluster(op, ops[i].1),
                                    ]
                                })
                                .flatten()
                                .collect();
                            assert_eq!(
                                enc.solver.solve_under_assumptions(&assumptions, None),
                                SolveResult::Sat,
                                "{} on {} at II={ii}: the encoding excludes {ops:?}",
                                l.name(),
                                machine.name
                            );
                        }
                    }
                }
                // The bounds change no verdict: both engines prove the same
                // optimal II.
                let sat =
                    crate::solve_with(l, &machine, &ExactOptions::new(), &crate::ExactBackend::Sat)
                        .unwrap();
                let bnb = crate::solve_with(
                    l,
                    &machine,
                    &ExactOptions::new(),
                    &crate::ExactBackend::BranchAndBound,
                )
                .unwrap();
                assert!(
                    sat.proved_optimal && bnb.proved_optimal,
                    "{} on {}",
                    l.name(),
                    machine.name
                );
                assert_eq!(
                    sat.schedule_ii(),
                    bnb.schedule_ii(),
                    "{} on {}",
                    l.name(),
                    machine.name
                );
            }
        }
        assert!(accepted > 0, "the fixtures admit legal schedules");
        assert!(
            tight_cluster > 0 && tight_bus > 0,
            "both bounds are met with equality somewhere"
        );
    }
}
