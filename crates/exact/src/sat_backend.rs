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
//! constraints become single watched clauses instead of quadratic conflict
//! ladders. On multi-cluster machines each operation also carries a one-hot
//! cluster choice restricted to clusters owning a unit of its kind.
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
//! * **register pressure** (`RegisterFileOverflow`): checked *outside* the
//!   CNF by counterexample-guided refinement — a model whose exact MaxLive
//!   pressure overflows a register file is excluded by a blocking clause
//!   over its start and cluster literals and the solver re-runs on its
//!   learnt state. The paper corpus never triggers a refinement, so the
//!   common path pays nothing for the rule.
//!
//! The **time-shift dominance rule** of the branch-and-bound search carries
//! over as a single clause: some operation with `earliest == 0` starts at
//! cycle 0 (any legal schedule shifts down to such a normalized one).
//!
//! # Incremental solving across II probes
//!
//! In the default *incremental* mode one [`SatProbeSession`] owns one
//! [`Solver`] for the whole outer II search. The II-*independent* structure
//! — cluster one-hots and the co-location biconditionals — is encoded once.
//! Everything II-*specific* (start windows, dependence clauses, modulo FU
//! rows, transfer variables, the anchor) forms a per-II **layer** whose
//! clauses all carry the negation of a fresh *activation literal*
//! `act_ii`; probing an II is [`Solver::solve_under_assumptions`] with
//! `[act_ii]`. Because `act_ii` never occurs positively in any clause,
//! first-UIP resolution can never drop `¬act_ii` from a learnt clause that
//! mentions a layer variable positively — so when the search moves on, the
//! layer is *retired* soundly by the unit `¬act_ii` plus freezing its
//! still-free variables to false at the root. What carries over between
//! probes is the *clausal* state the from-scratch path discards: the
//! learnt-clause database, including the CEGAR MaxLive blocking clauses
//! (which range over per-layer start variables and are auto-satisfied once
//! the layer retires). The branching *heuristic* state — VSIDS activities
//! and saved phases — is deliberately restarted cold at every layer
//! boundary: it describes a placement shape the previous probe refuted,
//! and carrying it over measurably traps the register-pressure CEGAR loop
//! (see [`Encoder::begin_layer`]).
//!
//! The from-scratch path ([`ExactOptions::sat_incremental`] `= false`)
//! builds a fresh unguarded encoder per probe — clause-for-clause the
//! pre-incremental encoding — and is compared against the incremental
//! path by the differential suites.
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
//! With a persistent solver the session charges per-probe step *deltas*, so
//! the contract is unchanged.

use crate::model::Problem;
use crate::options::ExactOptions;
use crate::propagate::{windows, Windows};
use crate::search::FixedIiOutcome;
use mvp_core::lifetime;
use mvp_ir::{EdgeKind, OpId};
use mvp_resmodel::PartialSchedule;
use mvp_sat::{Lit, SolveResult, Solver, Var};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

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
    p: &'a Problem<'l, 'm>,
    /// Incremental mode: the II-independent section persists and per-II
    /// layers are guarded by activation literals; `false` is the
    /// from-scratch encoder (one probe, no guards).
    incremental: bool,
    solver: Solver,
    /// One-hot cluster choice per operation (empty on single-cluster
    /// machines, where the choice is void). II-independent.
    clusters: Vec<Vec<Var>>,
    /// Co-location variable per unordered operation pair. II-independent;
    /// pre-materialized in incremental mode so layers allocate no global
    /// variables. A `BTreeMap` keeps clause emission deterministic — clause
    /// order feeds VSIDS, which picks the model.
    same: BTreeMap<(OpId, OpId), Lit>,
    // ---- the current II layer ----
    ii: i64,
    win: Windows,
    /// The layer's activation literal (`None` in from-scratch mode): every
    /// layer clause carries its negation and a probe solves under the
    /// assumption that it holds.
    act: Option<Lit>,
    /// First variable of the current layer: retirement freezes the range
    /// `[layer_base, num_vars)`.
    layer_base: Var,
    /// First variable past the II-independent section (0 in from-scratch
    /// mode): the global prefix `[0, global_base)` is encoded identically
    /// for *any* II, which is what makes cross-solver clause sharing over
    /// it sound (see [`SatProbeSession::export_shared`]).
    global_base: Var,
    /// How many layers this encoder has opened (via [`Encoder::begin_layer`]).
    layers: u32,
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
    /// The from-scratch encoder: one probe, no guards — clause-for-clause
    /// the pre-incremental encoding (and the escape-hatch reference the
    /// differential suites compare against).
    fn scratch(p: &'a Problem<'l, 'm>, ii: u32, win: Windows) -> Self {
        let mut enc = Self::empty(p, false, ii, win);
        enc.encode_starts();
        enc.encode_clusters();
        enc.encode_dependences();
        enc.encode_fu_occupancy();
        enc.encode_transfers();
        enc.encode_anchor();
        enc
    }

    /// The persistent incremental encoder: encodes the II-independent
    /// section (cluster one-hots, co-location biconditionals) and the first
    /// II's guarded layer. Later IIs enter via [`Encoder::begin_layer`].
    fn incremental(p: &'a Problem<'l, 'm>, ii: u32, win: Windows) -> Self {
        let mut enc = Self::empty(p, true, ii, win);
        enc.encode_clusters();
        // Pre-materialize every co-location pair a layer could ask for
        // (all cross-capable Data pairs), so layers allocate no global
        // variables and the retirement freeze range stays layer-pure.
        if p.machine.num_clusters() > 1 && p.bus_latency > 0 {
            let pairs: Vec<(OpId, OpId)> =
                p.l.edges()
                    .iter()
                    .filter(|e| e.kind == EdgeKind::Data && e.src != e.dst)
                    .map(|e| (e.src, e.dst))
                    .collect();
            for (a, b) in pairs {
                let _ = enc.same_lit(a, b);
            }
        }
        enc.global_base = enc.solver.num_vars() as Var;
        let win = enc.win.clone();
        enc.begin_layer(ii, win);
        enc
    }

    fn empty(p: &'a Problem<'l, 'm>, incremental: bool, ii: u32, win: Windows) -> Self {
        Self {
            p,
            incremental,
            solver: Solver::new(),
            clusters: Vec::new(),
            same: BTreeMap::new(),
            ii: i64::from(ii),
            win,
            act: None,
            layer_base: 0,
            global_base: 0,
            layers: 0,
            starts: Vec::new(),
            prefix: Vec::new(),
            transfers: BTreeMap::new(),
        }
    }

    /// Retires the current layer (if any) and encodes a fresh guarded layer
    /// for `ii`. Incremental mode only.
    fn begin_layer(&mut self, ii: u32, win: Windows) {
        debug_assert!(self.incremental);
        // Retire the previous layer: force its activation literal false
        // forever and freeze its still-free variables. Soundness: `act` only
        // ever occurs negatively, so every clause — original or learnt —
        // with a positive occurrence of a layer variable still carries
        // `¬act` and is satisfied at the root from here on.
        if let Some(act) = self.act.take() {
            self.solver.add_clause(&[!act]);
            for v in self.layer_base..self.solver.num_vars() as Var {
                if self.solver.fixed_value(v).is_none() {
                    self.solver.add_clause(&[Lit::negative(v)]);
                }
            }
            debug_assert!(self.solver.is_ok(), "retiring a layer cannot conflict");
        }
        // Restart the branching heuristic cold at every layer boundary:
        // clauses carry over, activities and phases do not. Both kinds of
        // heuristic state earned while refuting the previous II describe a
        // placement shape that *cannot work* — measured on the gap corpus,
        // letting them steer the next probe parks the solver inside a
        // register-pressure-violating family and the CEGAR loop burns
        // hundreds of thousands of steps enumerating it (e.g. 325k steps
        // where a cold heuristic with the same retained clauses takes 223).
        self.solver.reset_activities();
        self.solver.reset_phases();
        self.layers += 1;
        self.ii = i64::from(ii);
        self.win = win;
        self.starts.clear();
        self.prefix.clear();
        self.transfers.clear();
        let act = Lit::positive(self.solver.new_var());
        self.act = Some(act);
        self.layer_base = act.var();
        self.encode_starts();
        self.encode_dependences();
        self.encode_fu_occupancy();
        self.encode_transfers();
        self.encode_anchor();
        // Branch on this layer's start selectors before the session-global
        // cluster and co-location variables. A from-scratch encoding gets
        // this order for free (starts are the lowest-numbered variables);
        // here the globals were allocated first, and without the boost the
        // conflict-free branch order would fix a clustering first and then
        // enumerate start permutations inside it — which sends the
        // register-pressure CEGAR loop through an enormous family of
        // equivalent counterexamples.
        for i in 0..self.starts.len() {
            for k in 0..self.starts[i].len() {
                let v = self.starts[i][k];
                self.solver.boost(v, 1.0);
            }
        }
    }

    /// Adds a layer clause: in incremental mode the negated activation
    /// literal rides along, so the clause only binds while this II's layer
    /// is assumed (and is permanently satisfied once the layer retires).
    fn clause(&mut self, lits: &[Lit]) {
        match self.act {
            None => self.solver.add_clause(lits),
            Some(act) => {
                let mut c = Vec::with_capacity(lits.len() + 1);
                c.extend_from_slice(lits);
                c.push(!act);
                self.solver.add_clause(&c);
            }
        }
    }

    /// The escape literal layer cardinality constraints carry (see
    /// [`Solver::at_most_k_unless`]).
    fn escape(&self) -> Option<Lit> {
        self.act.map(|act| !act)
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
                self.clause(&[Lit::positive(s[0])]);
                self.starts.push(s);
                self.prefix.push(Vec::new());
                continue;
            }
            let pf: Vec<Var> = (0..w - 1).map(|_| self.solver.new_var()).collect();
            for k in 0..w - 2 {
                self.clause(&[Lit::negative(pf[k]), Lit::positive(pf[k + 1])]);
            }
            self.clause(&[Lit::negative(s[0]), Lit::positive(pf[0])]);
            self.clause(&[Lit::negative(pf[0]), Lit::positive(s[0])]);
            for k in 1..w - 1 {
                self.clause(&[Lit::negative(s[k]), Lit::positive(pf[k])]);
                self.clause(&[Lit::negative(s[k]), Lit::negative(pf[k - 1])]);
                self.clause(&[
                    Lit::negative(pf[k]),
                    Lit::positive(pf[k - 1]),
                    Lit::positive(s[k]),
                ]);
            }
            self.clause(&[Lit::negative(s[w - 1]), Lit::negative(pf[w - 2])]);
            self.clause(&[Lit::positive(pf[w - 2]), Lit::positive(s[w - 1])]);
            self.starts.push(s);
            self.prefix.push(pf);
        }
    }

    /// One-hot cluster choice over the clusters owning a unit of the
    /// operation's kind ([`Problem::new`] guarantees at least one exists).
    /// II-independent: encoded once per solver, never guarded.
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
    /// to the cluster choices on first use. II-independent (and therefore
    /// unguarded); incremental mode pre-materializes every pair up front.
    fn same_lit(&mut self, a: OpId, b: OpId) -> Lit {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.same.get(&key) {
            return l;
        }
        debug_assert!(
            self.act.is_none(),
            "incremental layers must not allocate global co-location vars"
        );
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
                    self.clause(&clause);
                }
                // Cross-cluster bound, guarded by the co-location variable.
                if let Some(sm) = sm {
                    let mut clause = vec![not_here, sm];
                    if self
                        .leq(e.src, t - w_same - bus_lat)
                        .push_onto(&mut clause, true)
                    {
                        self.clause(&clause);
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
                    self.clause(&[!self.start_lit(op, t), Lit::positive(r[rho])]);
                }
                for (rho, &rv) in r.iter().enumerate() {
                    let mut clause = vec![Lit::negative(rv)];
                    clause.extend(
                        (lo..=hi)
                            .filter(|t| t.rem_euclid(self.ii) as usize == rho)
                            .map(|t| self.start_lit(op, t)),
                    );
                    self.clause(&clause);
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
                                self.clause(&[!c, !r, z]);
                            } else {
                                self.clause(&[!r, z]);
                            }
                            z
                        })
                        .collect();
                    self.solver.at_most_k_unless(&zs, cap, self.escape());
                }
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
            // reject such transfers outright). II-dependent, so guarded.
            for &(a, b) in pair_edges.keys().collect::<Vec<_>>() {
                let sm = self.same_lit(a, b);
                self.clause(&[sm]);
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
            self.clause(&coverage);
            self.solver.at_most_one_unless(&all, self.escape());
            for &l in &all {
                self.clause(&[!l, !sm]);
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
                    self.clause(&[Lit::negative(v), yr[rho]]);
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
                            self.clause(&clause);
                        }
                    }
                }
            }
            self.transfers.insert((a, b), y);
        }

        for per_bus in &covering {
            for group in per_bus {
                self.solver.at_most_one_unless(group, self.escape());
            }
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
        self.clause(&clause);
    }

    /// Decodes the current model through the shared constraint kernel,
    /// re-checking every placement and transfer against the same rules the
    /// branch-and-bound enforces incrementally.
    fn decode(&self) -> PartialSchedule<'a, 'l, 'm> {
        let mut ps = PartialSchedule::new(self.p.model(), self.ii as u32);
        for op in self.p.l.op_ids() {
            let t = self.decoded_start(op);
            let cluster = self.decoded_cluster(op);
            ps.try_reserve_op(op, cluster, t, self.p.latency[op.index()], false, 0)
                .expect("the CNF model satisfies the functional-unit rules");
        }
        for op in self.p.l.op_ids() {
            // Each cross pair appears once from the consumer side.
            for pair in ps.transfer_pairs(op) {
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

    /// Excludes the current model's (start, cluster) combination — the
    /// counterexample-guided refinement step for register pressure. The
    /// blocking clause is deliberately unguarded: it ranges over this
    /// layer's start variables (auto-satisfied once the layer retires) and
    /// the shared cluster variables, so it keeps pruning CEGAR-refuted
    /// shapes for the rest of the session.
    fn block_current_model(&mut self) {
        let mut clause: Vec<Lit> = self
            .p
            .l
            .op_ids()
            .map(|op| !self.start_lit(op, self.decoded_start(op)))
            .collect();
        if !self.clusters.is_empty() {
            clause.extend(
                self.p
                    .l
                    .op_ids()
                    .map(|op| Lit::negative(self.clusters[op.index()][self.decoded_cluster(op)])),
            );
        }
        self.solver.add_clause(&clause);
    }
}

/// Per-probe clause-retention provenance, surfaced through
/// [`crate::outcome::IiProbe`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SatProbeStats {
    /// Clauses already in the solver when the probe began (0 for the first
    /// probe of a session and for every from-scratch probe).
    pub reused_clauses: u64,
    /// Learnt clauses retained from earlier probes of the same session.
    pub kept_learned: u64,
}

/// One SAT backend session spanning a whole outer II search: in incremental
/// mode (the default) a single [`Solver`] persists across probes (see the
/// [module docs](self)); in from-scratch mode each probe builds a fresh
/// encoder, reproducing the pre-incremental behaviour exactly.
pub(crate) struct SatProbeSession<'a, 'l, 'm> {
    p: &'a Problem<'l, 'm>,
    incremental: bool,
    enc: Option<Encoder<'a, 'l, 'm>>,
}

impl<'a, 'l, 'm> SatProbeSession<'a, 'l, 'm> {
    pub(crate) fn new(p: &'a Problem<'l, 'm>, incremental: bool) -> Self {
        Self {
            p,
            incremental,
            enc: None,
        }
    }

    /// [`SatProbeSession::probe_seeded`] with an empty pool.
    #[cfg(test)]
    pub(crate) fn probe(
        &mut self,
        ii: u32,
        options: &ExactOptions,
        steps_used: &mut u64,
        cancel: Option<&AtomicBool>,
    ) -> (FixedIiOutcome, SatProbeStats) {
        let (outcome, stats, _) = self.probe_seeded(ii, options, steps_used, cancel, &[]);
        (outcome, stats)
    }

    /// Runs one fixed-II probe: certificates first (resource counts,
    /// positive dependence cycles — shared with the branch-and-bound), then
    /// CNF encoding, CDCL search and kernel-checked decoding. `steps_used`
    /// is incremented by the solver steps (decisions + conflicts) the probe
    /// consumed; the budget and cancellation contracts match
    /// [`crate::search::solve_fixed_ii`].
    ///
    /// A *fresh* incremental session additionally seeds its solver with the
    /// global-prefix clauses of `pool` before solving (clauses mentioning
    /// any per-layer variable are filtered out — only the II-independent
    /// prefix is numbered identically across sessions). The third return
    /// value is the number of clauses imported. The speculative II ladder
    /// gives every rung a private single-layer session, and the pool
    /// carries the short learnt clauses retired rungs exported via
    /// [`SatProbeSession::export_shared`]; the sequential search passes an
    /// empty pool to its one search-wide session.
    pub(crate) fn probe_seeded(
        &mut self,
        ii: u32,
        options: &ExactOptions,
        steps_used: &mut u64,
        cancel: Option<&AtomicBool>,
        pool: &[Vec<Lit>],
    ) -> (FixedIiOutcome, SatProbeStats, u64) {
        let p = self.p;
        if ii == 0 || p.resource_infeasible(ii) {
            return (FixedIiOutcome::Infeasible, SatProbeStats::default(), 0);
        }
        let Some(win) = windows(p, ii, |asap| p.horizon(asap, ii, options)) else {
            return (FixedIiOutcome::Infeasible, SatProbeStats::default(), 0);
        };
        let mut stats = SatProbeStats::default();
        let mut imported = 0u64;
        if self.incremental {
            let enc = match self.enc.as_mut() {
                Some(enc) => {
                    stats.reused_clauses = enc.solver.num_clauses() as u64;
                    stats.kept_learned = enc.solver.learned_clauses();
                    enc.begin_layer(ii, win);
                    enc
                }
                None => {
                    let mut enc = Encoder::incremental(p, ii, win);
                    if !pool.is_empty() {
                        let global = enc.global_base;
                        let shared: Vec<Vec<Lit>> = pool
                            .iter()
                            .filter(|c| !c.is_empty() && c.iter().all(|l| l.var() < global))
                            .cloned()
                            .collect();
                        imported = enc.solver.import_clauses(&shared);
                    }
                    self.enc = Some(enc);
                    self.enc.as_mut().expect("just inserted")
                }
            };
            mvp_trace::counter_handle!("sat.assumption_probes", Stable).incr();
            mvp_trace::counter_handle!("sat.kept_learned", Stable).add(stats.kept_learned);
            mvp_trace::counter_handle!("sat.reencoded_clauses", Stable)
                .add(enc.solver.num_clauses() as u64 - stats.reused_clauses);
        } else {
            let enc = Encoder::scratch(p, ii, win);
            mvp_trace::counter_handle!("sat.reencoded_clauses", Stable)
                .add(enc.solver.num_clauses() as u64);
            self.enc = Some(enc);
        }
        {
            let enc = self.enc.as_ref().expect("encoder initialised above");
            mvp_trace::counter_handle!("exact.sat.encoded_vars", Stable)
                .add(enc.solver.num_vars() as u64);
            mvp_trace::counter_handle!("exact.sat.encoded_clauses", Stable)
                .add(enc.solver.num_clauses() as u64);
        }
        let outcome = self.solve_layer(ii, options, steps_used, cancel);
        (outcome, stats, imported)
    }

    /// Re-enters the budget/CEGAR loop of the current layer with a fresh
    /// step budget, without re-encoding anything: the solver keeps every
    /// clause it has learnt so far, so an interleaving caller (the
    /// dovetailed portfolio rung) can hand the engine its budget
    /// in instalments and still pay the total cost of one continuous
    /// solve. `ii` must be the II of the layer the last
    /// [`SatProbeSession::probe_seeded`] call encoded.
    pub(crate) fn resume(
        &mut self,
        ii: u32,
        options: &ExactOptions,
        steps_used: &mut u64,
        cancel: Option<&AtomicBool>,
    ) -> FixedIiOutcome {
        if self.enc.is_none() {
            // The first probe decided before encoding (structurally
            // infeasible II); there is nothing to resume.
            return FixedIiOutcome::Infeasible;
        }
        self.solve_layer(ii, options, steps_used, cancel)
    }

    /// The budget/CEGAR loop of the current layer: repeated
    /// assumption-solves under the layer's activation literals, with
    /// MaxLive refinement between models, until a verdict, the step
    /// budget, or cancellation.
    fn solve_layer(
        &mut self,
        ii: u32,
        options: &ExactOptions,
        steps_used: &mut u64,
        cancel: Option<&AtomicBool>,
    ) -> FixedIiOutcome {
        let p = self.p;
        let enc = self.enc.as_mut().expect("encoder initialised by probe");
        let _span = mvp_trace::span!("exact.sat.probe", ii = ii, vars = enc.solver.num_vars());
        let steps0 = enc.solver.steps();
        let assumptions: Vec<Lit> = enc.act.into_iter().collect();
        let outcome = loop {
            let spent = enc.solver.steps() - steps0;
            let remaining = options.node_budget.saturating_sub(spent);
            if remaining == 0 {
                break FixedIiOutcome::Budget;
            }
            match enc
                .solver
                .solve_under_assumptions(&assumptions, Some(remaining), cancel)
            {
                SolveResult::Unsat => break FixedIiOutcome::Infeasible,
                SolveResult::Budget => break FixedIiOutcome::Budget,
                SolveResult::Cancelled => break FixedIiOutcome::Cancelled,
                SolveResult::Sat => {}
            }
            let ps = enc.decode();
            let ops = ps.placed_ops();
            if options.enforce_register_pressure {
                let pressure = lifetime::register_pressure(p.l, &ops, ii, p.machine.num_clusters());
                if pressure
                    .iter()
                    .zip(&p.register_file)
                    .any(|(&used, &cap)| used > cap)
                {
                    enc.block_current_model();
                    mvp_trace::counter_handle!("exact.sat.cegar_rounds", Stable).incr();
                    mvp_trace::instant!("exact.sat.cegar_round", ii = ii);
                    // A cancelled probe (a superseded ladder rung) aborts
                    // between refinement rounds instead of paying for
                    // another full re-price/block cycle.
                    if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                        break FixedIiOutcome::Cancelled;
                    }
                    continue;
                }
            }
            let comms = ps.communications();
            // A SAT certificate is only as good as the schedule it decodes
            // to: re-validate with the independent oracle in every build.
            let pressure = lifetime::register_pressure(p.l, &ops, ii, p.machine.num_clusters());
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
        *steps_used += enc.solver.steps() - steps0;
        outcome
    }

    /// Exports this session's short global-prefix learnt clauses (at most
    /// `cap` clauses of at most `max_len` literals each), for seeding a
    /// *different* session's solver via [`SatProbeSession::probe_seeded`].
    ///
    /// # Soundness
    ///
    /// Only **single-layer incremental** sessions export; everything else
    /// returns an empty set. In such a session every clause mentioning a
    /// layer variable positively carries the layer's negated activation
    /// literal (originals by construction; learnt clauses by induction —
    /// resolving a positive layer literal away must pass through a clause
    /// that carries `¬act`, and `¬act` itself can never be resolved away
    /// because no clause contains `act` positively). A learnt clause over
    /// global variables only is therefore derived from the global section
    /// alone — plus root-level facts, which in a single-layer session are
    /// themselves global consequences — so it is implied by the global
    /// clauses and sound in any solver sharing that prefix. A *multi*-layer
    /// session breaks the argument: retiring a layer freezes its variables
    /// with unguarded root units, and first-UIP learning silently drops
    /// root-false literals, leaving global-only clauses conditional on
    /// those arbitrary freezes.
    pub(crate) fn export_shared(&self, max_len: usize, cap: usize) -> Vec<Vec<Lit>> {
        let Some(enc) = self.enc.as_ref() else {
            return Vec::new();
        };
        if !self.incremental || enc.layers != 1 {
            return Vec::new();
        }
        let global = enc.global_base;
        enc.solver
            .export_learned(max_len)
            .into_iter()
            .filter(|c| c.iter().all(|l| l.var() < global))
            .take(cap)
            .collect()
    }
}

/// One-shot convenience wrapper: a single probe on a fresh
/// [`SatProbeSession`] honouring [`ExactOptions::sat_incremental`]. The
/// scheduler probes through a persistent session instead; this wrapper
/// backs the unit tests below.
#[cfg(test)]
pub(crate) fn solve_fixed_ii_sat(
    p: &Problem<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    steps_used: &mut u64,
    cancel: Option<&AtomicBool>,
) -> FixedIiOutcome {
    SatProbeSession::new(p, options.sat_incremental)
        .probe(ii, options, steps_used, cancel)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::Loop;
    use mvp_machine::presets;

    fn probe(l: &Loop, machine: &mvp_machine::MachineConfig, ii: u32) -> FixedIiOutcome {
        let p = Problem::new(l, machine).unwrap();
        let mut steps = 0;
        solve_fixed_ii_sat(&p, ii, &ExactOptions::new(), &mut steps, None)
    }

    /// The same probe through a from-scratch (unguarded) session.
    fn probe_scratch(l: &Loop, machine: &mvp_machine::MachineConfig, ii: u32) -> FixedIiOutcome {
        let p = Problem::new(l, machine).unwrap();
        let mut steps = 0;
        let options = ExactOptions::new().with_sat_incremental(false);
        solve_fixed_ii_sat(&p, ii, &options, &mut steps, None)
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
        for outcome in [probe(&l, &machine, 1), probe_scratch(&l, &machine, 1)] {
            match outcome {
                FixedIiOutcome::Feasible { ops, .. } => {
                    assert_eq!(ops.len(), 3);
                    assert!(ops.iter().all(|p| p.cluster < 2));
                    assert!(ops.iter().all(|p| !p.miss_scheduled));
                }
                other => panic!("expected feasible at II=1, got {other:?}"),
            }
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
        let p = Problem::new(&l, &machine).unwrap();
        let mut steps = 0;
        let out = solve_fixed_ii_sat(
            &p,
            2,
            &ExactOptions::new().with_node_budget(1),
            &mut steps,
            None,
        );
        assert!(matches!(out, FixedIiOutcome::Budget), "{out:?}");
        assert!(steps >= 1);
    }

    #[test]
    fn a_raised_poison_flag_cancels_the_probe() {
        use std::sync::atomic::AtomicBool;
        let l = chain();
        let machine = presets::two_cluster();
        let p = Problem::new(&l, &machine).unwrap();
        let cancel = AtomicBool::new(true);
        let mut steps = 0;
        let out = solve_fixed_ii_sat(&p, 2, &ExactOptions::new(), &mut steps, Some(&cancel));
        assert!(matches!(out, FixedIiOutcome::Cancelled), "{out:?}");
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

    #[test]
    fn sessions_reuse_clauses_and_learnt_state_across_probes() {
        // X→Y (d0), Y→X (d2): RecMII = 2, but the II=2 refutation needs
        // actual CNF search (windows and resource counts both pass), so the
        // session builds a layer there; the II=3 probe must retire it,
        // reuse the solver, and report the retention provenance.
        let mut b = Loop::builder("slack-rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 2);
        let l = b.build().unwrap();
        let machine = presets::motivating_example_machine();
        let p = Problem::new(&l, &machine).unwrap();
        let mut session = SatProbeSession::new(&p, true);
        let mut steps = 0;
        let (first, first_stats) = session.probe(2, &ExactOptions::new(), &mut steps, None);
        assert!(matches!(first, FixedIiOutcome::Infeasible), "{first:?}");
        assert_eq!(first_stats.reused_clauses, 0, "first probe starts fresh");
        let (second, second_stats) = session.probe(3, &ExactOptions::new(), &mut steps, None);
        assert!(matches!(second, FixedIiOutcome::Feasible { .. }));
        assert!(
            second_stats.reused_clauses > 0,
            "the II=3 probe must reuse the II=2 instance's clauses"
        );
    }

    #[test]
    fn shared_clauses_flow_between_single_layer_sessions_without_changing_verdicts() {
        // The ladder pattern: one single-layer session per II, the earlier
        // rung's exports seeding the later rung's solver. Verdicts must be
        // unaffected, and only global-prefix clauses may travel.
        let mut b = Loop::builder("slack-rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 2);
        let l = b.build().unwrap();
        let machine = presets::motivating_example_machine();
        let p = Problem::new(&l, &machine).unwrap();

        let mut first = SatProbeSession::new(&p, true);
        let mut steps = 0;
        let (v2, _) = first.probe(2, &ExactOptions::new(), &mut steps, None);
        assert!(matches!(v2, FixedIiOutcome::Infeasible), "{v2:?}");
        let pool = first.export_shared(4, 256);
        assert!(
            pool.iter().all(|c| (2..=4).contains(&c.len())),
            "exports are short attached clauses: {pool:?}"
        );

        let mut second = SatProbeSession::new(&p, true);
        let mut steps = 0;
        let (v3, _, imported) =
            second.probe_seeded(3, &ExactOptions::new(), &mut steps, None, &pool);
        assert!(matches!(v3, FixedIiOutcome::Feasible { .. }), "{v3:?}");
        assert_eq!(
            imported,
            pool.len() as u64,
            "prefix-only pools import whole"
        );

        // A multi-layer session refuses to export (soundness guard).
        let mut multi = SatProbeSession::new(&p, true);
        let mut steps = 0;
        let _ = multi.probe(2, &ExactOptions::new(), &mut steps, None);
        let _ = multi.probe(3, &ExactOptions::new(), &mut steps, None);
        assert!(multi.export_shared(4, 256).is_empty());

        // From-scratch sessions never export either (their variable
        // numbering puts starts first, so no shared prefix exists).
        let mut scratch = SatProbeSession::new(&p, false);
        let mut steps = 0;
        let _ = scratch.probe(2, &ExactOptions::new(), &mut steps, None);
        assert!(scratch.export_shared(4, 256).is_empty());
    }

    #[test]
    fn incremental_and_scratch_sessions_agree_probe_by_probe() {
        let loops = [chain()];
        for l in &loops {
            for machine in [
                presets::unified(),
                presets::two_cluster(),
                presets::motivating_example_machine(),
            ] {
                let p = Problem::new(l, &machine).unwrap();
                let mut inc = SatProbeSession::new(&p, true);
                let mut scr = SatProbeSession::new(&p, false);
                for ii in 1..=4u32 {
                    let (mut si, mut ss) = (0, 0);
                    let (a, _) = inc.probe(ii, &ExactOptions::new(), &mut si, None);
                    let (b, _) = scr.probe(ii, &ExactOptions::new(), &mut ss, None);
                    assert_eq!(
                        matches!(a, FixedIiOutcome::Feasible { .. }),
                        matches!(b, FixedIiOutcome::Feasible { .. }),
                        "II={ii} on {} for {}",
                        machine.name,
                        l.name(),
                    );
                    assert_eq!(
                        matches!(a, FixedIiOutcome::Infeasible),
                        matches!(b, FixedIiOutcome::Infeasible),
                        "II={ii} on {} for {}",
                        machine.name,
                        l.name(),
                    );
                }
            }
        }
    }
}
