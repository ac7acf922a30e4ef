//! A dependency-free CDCL SAT solver for the exact-scheduler backend.
//!
//! The design is the classic conflict-driven clause-learning loop
//! (MiniSat lineage), sized for the CNF instances the modulo-scheduling
//! encoder produces (thousands of variables, tens of thousands of
//! clauses):
//!
//! * **Two-watched literals.** Each clause watches two of its literals;
//!   unit propagation only visits a clause when a watched literal is
//!   falsified, so propagation cost is independent of clause length for
//!   already-satisfied clauses.
//! * **First-UIP clause learning.** Every conflict is resolved backwards
//!   along the implication trail until exactly one literal of the current
//!   decision level remains; the learnt clause is asserting after a
//!   non-chronological backjump to its second-highest level.
//! * **VSIDS-style activity.** Variables touched by conflict analysis are
//!   bumped and the solver branches on the highest-activity unassigned
//!   variable (lazy max-heap with stale entries), with exponential decay.
//! * **Luby restarts + phase saving.** Restarts follow the Luby sequence
//!   (unit 128 conflicts); saved phases default to `false` so the modulo
//!   encoder's one-hot selector variables start from the sparse side.
//! * **Incremental use.** Clauses and variables may be added between
//!   [`Solver::solve`] calls (the trail is rewound to level 0 first);
//!   learnt clauses, VSIDS activities and saved phases are kept, which is
//!   what makes the scheduler's lazy register-pressure refinement (CEGAR)
//!   loop and the exact backend's incremental II search cheap. Between
//!   solves, [`Solver::collect_satisfied`] deletes every clause satisfied
//!   at level 0 — a retired activation guard's clauses, say — so the
//!   database holds only clauses that can still propagate or conflict.
//!   Such a clause never does either, so collecting changes no step of
//!   any later search.
//! * **Assumptions.** [`Solver::solve_under_assumptions`] enqueues a list
//!   of literals as pseudo-decisions at levels `1..=n` before any branch
//!   decision (MiniSat style). An [`SolveResult::Unsat`] under assumptions
//!   does *not* latch the solver; final-conflict analysis leaves the
//!   subset of assumptions responsible in [`Solver::unsat_core`] (an empty
//!   core means the formula is unconditionally unsatisfiable).
//! * **Budgets.** [`Solver::solve`] counts *steps* (decisions +
//!   conflicts) and aborts with [`SolveResult::Budget`] past a step budget.
//!
//! # Storage
//!
//! Every clause's literals live in one flat arena (`Vec<Lit>`), addressed
//! by a per-clause header holding its offset, its length and a learnt
//! bit; a clause reference is the header's index. Adding a clause
//! simplifies it straight into the arena's tail, so no clause owns an
//! allocation. Collection compacts the arena and the header table in
//! place, renumbers the references and filters each watch list without
//! reordering its survivors.
//!
//! Cardinality constraints ([`Solver::at_most_k`]) use the Sinz
//! sequential-counter encoding, which is arc-consistent under unit
//! propagation — the propagation strength the modulo resource rows need.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: a variable with a sign. `Lit(v << 1)` is the positive
/// literal, `Lit(v << 1 | 1)` the negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    #[must_use]
    pub fn positive(var: Var) -> Self {
        Lit(var << 1)
    }

    /// The negative literal of `var`.
    #[must_use]
    pub fn negative(var: Var) -> Self {
        Lit(var << 1 | 1)
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether this is the positive literal.
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "!x{}", self.var())
        }
    }
}

/// How a [`Solver::solve`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable (and stays so: the solver is latched).
    Unsat,
    /// The step budget (decisions + conflicts) ran out first.
    Budget,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Where a clause lives in the literal arena:
/// `arena[start..start + len]`, with the learnt bit packed below `len`.
#[derive(Clone, Copy)]
struct Header {
    start: u32,
    /// `len << 1 | learnt`.
    len_learnt: u32,
}

impl Header {
    fn new(start: usize, len: usize, learnt: bool) -> Self {
        let start = u32::try_from(start).expect("the clause arena fits u32 offsets");
        let len = u32::try_from(len)
            .ok()
            .filter(|&len| len < 1 << 31)
            .expect("clause lengths fit 31 bits");
        Header {
            start,
            len_learnt: len << 1 | u32::from(learnt),
        }
    }

    fn len(self) -> usize {
        (self.len_learnt >> 1) as usize
    }

    fn learnt(self) -> bool {
        self.len_learnt & 1 == 1
    }

    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len()
    }
}

/// The value of `l` under the assignment `assign` (a free function so
/// that propagation can read it while holding a clause's literals).
fn value_of(assign: &[LBool], l: Lit) -> LBool {
    match assign[l.var() as usize] {
        LBool::Undef => LBool::Undef,
        LBool::True if l.is_positive() => LBool::True,
        LBool::False if !l.is_positive() => LBool::True,
        _ => LBool::False,
    }
}

/// Max-heap entry: activity snapshot at push time (stale entries are
/// skipped at pop time by re-checking assignment and current activity).
struct HeapEntry {
    activity: f64,
    var: Var,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.activity == other.activity && self.var == other.var
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Activities are finite by construction (bump rescales at 1e100).
        self.activity
            .partial_cmp(&other.activity)
            .expect("activities are never NaN")
            // Tie-break on the variable index for determinism.
            .then_with(|| other.var.cmp(&self.var))
    }
}

const ACTIVITY_RESCALE: f64 = 1e100;
const ACTIVITY_DECAY: f64 = 1.0 / 0.95;
const RESTART_UNIT: u64 = 128;

/// The CDCL solver (see the [module docs](self)).
pub struct Solver {
    /// Every clause's literals, back to back (see the module docs).
    arena: Vec<Lit>,
    /// One header per clause; a clause reference indexes this table.
    clauses: Vec<Header>,
    /// Learnt clauses currently in `clauses`.
    num_learnt: usize,
    /// `watches[l.index()]` lists clauses currently watching literal `l`;
    /// they are visited when `!l` is assigned true (i.e. `l` falsified).
    watches: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: std::collections::BinaryHeap<HeapEntry>,
    phase: Vec<bool>,
    /// Latched false once the formula is proved unsatisfiable.
    ok: bool,
    model: Vec<bool>,
    steps: u64,
    conflicts: u64,
    restarts: u64,
    learned: u64,
    seen: Vec<bool>,
    /// Conflict analysis builds each learnt clause here (asserting literal
    /// first) before it is copied into the arena.
    learnt_buf: Vec<Lit>,
    /// After an assumption-relative [`SolveResult::Unsat`]: the subset of
    /// the assumptions responsible (empty = unconditionally unsat).
    conflict_core: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver with no variables and no clauses.
    #[must_use]
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            clauses: Vec::new(),
            num_learnt: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: std::collections::BinaryHeap::new(),
            phase: Vec::new(),
            ok: true,
            model: Vec::new(),
            steps: 0,
            conflicts: 0,
            restarts: 0,
            learned: 0,
            seen: Vec::new(),
            learnt_buf: Vec::new(),
            conflict_core: Vec::new(),
        }
    }

    /// Allocates a fresh variable (initial saved phase: `false`).
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.model.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables allocated so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Total steps (decisions + conflicts) consumed across all solves.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total conflicts across all solves.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total Luby restarts across all solves.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Number of clauses currently in the database (original + learnt);
    /// [`Solver::collect_satisfied`] lowers it.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of learnt clauses currently in the database: those learnt
    /// so far, minus the collected ones (learnt *units* backjump to level
    /// 0 instead of entering the database).
    #[must_use]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Whether the formula is still possibly satisfiable (`false` once
    /// proved unsatisfiable; further solves return [`SolveResult::Unsat`]).
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn lbool(&self, l: Lit) -> LBool {
        value_of(&self.assign, l)
    }

    /// The value of `var` in the most recent satisfying assignment.
    /// Meaningful only after a [`SolveResult::Sat`] result.
    #[must_use]
    pub fn value(&self, var: Var) -> bool {
        self.model[var as usize]
    }

    /// Whether `lit` is true in the most recent satisfying assignment.
    #[must_use]
    pub fn lit_value(&self, lit: Lit) -> bool {
        self.model[lit.var() as usize] == lit.is_positive()
    }

    /// After an assumption-relative [`SolveResult::Unsat`]: the subset of
    /// the assumptions whose conjunction with the formula is contradictory
    /// (the failed assumption first). Empty after an *unconditional*
    /// unsatisfiability proof — the formula itself is unsat and the solver
    /// is latched.
    #[must_use]
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Overrides the saved phase of `var`: the polarity the solver tries
    /// first when branching on it. Used to warm-start a solve from a
    /// related earlier model.
    pub fn set_phase(&mut self, var: Var, value: bool) {
        self.phase[var as usize] = value;
    }

    /// Adds `amount` (scaled by the current activity increment) to the
    /// variable's VSIDS activity and reschedules it for branching.
    ///
    /// Encoders use this to bias the *first* decisions toward structurally
    /// important variables — e.g. start-time selectors before auxiliary
    /// counter variables — after which conflict-driven bumping takes over.
    /// Without any conflicts yet, every activity is zero and the branch
    /// order degenerates to variable-index order, which an incremental
    /// encoding (globals allocated first) would otherwise invert.
    pub fn boost(&mut self, var: Var, amount: f64) {
        let a = &mut self.activity[var as usize];
        *a += amount * self.var_inc;
        if *a > ACTIVITY_RESCALE {
            for act in &mut self.activity {
                *act /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
        self.heap.push(HeapEntry {
            activity: self.activity[var as usize],
            var,
        });
    }

    /// Clears all VSIDS activity back to the fresh-solver state (zero
    /// activity, unit increment, and an empty branch heap whose storage is
    /// released). Incremental sessions
    /// call this between solves over different encodings of the *same*
    /// problem family: activity earned refuting one encoding mostly names
    /// variables that no longer matter, and letting it steer the next
    /// solve's first decisions is reliably worse than starting the
    /// heuristic cold. Learnt clauses, saved phases and fixed values are
    /// untouched.
    pub fn reset_activities(&mut self) {
        self.activity.fill(0.0);
        self.var_inc = 1.0;
        self.heap = std::collections::BinaryHeap::new();
    }

    /// Resets every saved phase to the fresh-solver default (`false`), the
    /// companion to [`Solver::reset_activities`] for incremental sessions
    /// that want the next solve to branch exactly like a cold solver.
    pub fn reset_phases(&mut self) {
        self.phase.fill(false);
    }

    /// The saved phase of `var` (last assigned polarity, or the polarity
    /// set via [`Solver::set_phase`]; initially `false`).
    #[must_use]
    pub fn saved_phase(&self, var: Var) -> bool {
        self.phase[var as usize]
    }

    /// The value `var` is fixed to at decision level 0, if any. Between
    /// solves the trail is rewound to the root, so this reports exactly
    /// the permanently-implied literals (units, learnt units, retired
    /// activation guards).
    #[must_use]
    pub fn fixed_value(&self, var: Var) -> Option<bool> {
        match self.assign[var as usize] {
            LBool::Undef => None,
            v => (self.level[var as usize] == 0).then(|| v == LBool::True),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (the disjunction of `lits`). Rewinds to decision
    /// level 0 first, simplifies against the level-0 assignment, and
    /// propagates immediately if the clause is unit. Adding an empty (or
    /// all-false) clause latches the solver unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        self.backtrack(0);
        // Simplify straight into the arena's tail; drop the tail again if
        // the clause turns out satisfied, tautological or unit.
        let start = self.arena.len();
        for &l in lits {
            debug_assert!((l.var() as usize) < self.num_vars(), "unallocated var");
            match self.lbool(l) {
                LBool::False => continue,
                LBool::True => {
                    // Satisfied at level 0.
                    self.arena.truncate(start);
                    return;
                }
                LBool::Undef => {
                    let simplified = &self.arena[start..];
                    if simplified.contains(&!l) {
                        // Tautology.
                        self.arena.truncate(start);
                        return;
                    }
                    if !simplified.contains(&l) {
                        self.arena.push(l);
                    }
                }
            }
        }
        match self.arena.len() - start {
            0 => self.ok = false,
            1 => {
                let unit = self.arena.pop().expect("one literal was simplified");
                if !self.enqueue(unit, None) || self.propagate().is_some() {
                    self.ok = false;
                }
            }
            len => {
                self.attach_clause(start, len, false);
            }
        }
    }

    /// Registers the clause already written to `arena[start..start + len]`
    /// and watches its first two literals.
    fn attach_clause(&mut self, start: usize, len: usize, learnt: bool) -> u32 {
        debug_assert!(len >= 2 && start + len == self.arena.len());
        let cref = u32::try_from(self.clauses.len()).expect("clause references fit u32");
        self.watches[self.arena[start].index()].push(cref);
        self.watches[self.arena[start + 1].index()].push(cref);
        self.clauses.push(Header::new(start, len, learnt));
        self.num_learnt += usize::from(learnt);
        cref
    }

    /// Deletes every clause with a literal true at decision level 0, after
    /// rewinding to level 0. Such a clause can never propagate or
    /// conflict again, so no later solve takes a different step, learns a
    /// different clause or finds a different model; only memory and
    /// [`Solver::num_clauses`] change. The arena and header table are
    /// compacted in place, references renumbered, and every watch list
    /// filtered so its survivors keep their relative order. Incremental
    /// callers run this once after retiring an activation literal, which
    /// satisfies every clause that carried its negation.
    pub fn collect_satisfied(&mut self) {
        if !self.ok {
            return;
        }
        self.backtrack(0);
        // Conflict analysis never reads the reason of a level-0 variable,
        // and the clause behind it may be about to go.
        for &l in &self.trail {
            self.reason[l.var() as usize] = None;
        }
        const GONE: u32 = u32::MAX;
        let mut renumber = Vec::with_capacity(self.clauses.len());
        let (mut kept, mut write) = (0usize, 0usize);
        for i in 0..self.clauses.len() {
            let h = self.clauses[i];
            let range = h.range();
            if self.arena[range.clone()]
                .iter()
                .any(|&l| value_of(&self.assign, l) == LBool::True)
            {
                renumber.push(GONE);
                self.num_learnt -= usize::from(h.learnt());
                continue;
            }
            let len = range.len();
            self.arena.copy_within(range, write);
            self.clauses[kept] = Header::new(write, len, h.learnt());
            renumber.push(kept as u32);
            kept += 1;
            write += len;
        }
        self.arena.truncate(write);
        self.clauses.truncate(kept);
        for ws in &mut self.watches {
            ws.retain_mut(|cref| {
                *cref = renumber[*cref as usize];
                *cref != GONE
            });
            if ws.is_empty() {
                *ws = Vec::new();
            }
        }
    }

    /// Assigns `l` true at the current level. Returns `false` if `l` is
    /// already false (an immediate conflict for the caller to handle).
    fn enqueue(&mut self, l: Lit, reason: Option<u32>) -> bool {
        match self.lbool(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = l.var() as usize;
                self.assign[v] = if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut idx = 0;
            'clauses: while idx < ws.len() {
                let cref = ws[idx];
                idx += 1;
                let lits = &mut self.arena[self.clauses[cref as usize].range()];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let first_value = value_of(&self.assign, first);
                if first_value == LBool::True {
                    ws[kept] = cref;
                    kept += 1;
                    continue;
                }
                for k in 2..lits.len() {
                    let candidate = lits[k];
                    if value_of(&self.assign, candidate) != LBool::False {
                        lits.swap(1, k);
                        self.watches[candidate.index()].push(cref);
                        continue 'clauses;
                    }
                }
                // No replacement watch: the clause is unit or conflicting.
                ws[kept] = cref;
                kept += 1;
                if first_value == LBool::False {
                    // Conflict: keep the remaining watchers and stop.
                    while idx < ws.len() {
                        ws[kept] = ws[idx];
                        kept += 1;
                        idx += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                    break;
                }
                let enqueued = self.enqueue(first, Some(cref));
                debug_assert!(enqueued);
            }
            ws.truncate(kept);
            debug_assert!(self.watches[false_lit.index()].is_empty());
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v as usize];
        *a += self.var_inc;
        if *a > ACTIVITY_RESCALE {
            for act in &mut self.activity {
                *act /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
        self.heap.push(HeapEntry {
            activity: self.activity[v as usize],
            var: v,
        });
    }

    fn decay(&mut self) {
        self.var_inc *= ACTIVITY_DECAY;
    }

    /// First-UIP conflict analysis: leaves the learnt clause (asserting
    /// literal first) in `learnt_buf` and returns the backjump level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        let current = self.decision_level();
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit(0)); // slot 0: the asserting literal
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut p: Option<Lit> = None;
        loop {
            // For a reason clause, lits[0] is the propagated literal itself.
            let skip = usize::from(p.is_some());
            let range = self.clauses[confl as usize].range();
            for qi in range.start + skip..range.end {
                let q = self.arena[qi];
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    self.bump(v);
                    if self.level[v as usize] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var() as usize].expect("non-UIP literal has a reason");
            p = Some(pl);
        }
        for &l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backjump to the second-highest level; put that literal at slot 1
        // so it is one of the watched pair.
        let mut bt_level = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt_level = self.level[learnt[1].var() as usize];
        }
        self.learnt_buf = learnt;
        bt_level
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): called when the
    /// pending assumption `failed` is already false under the earlier
    /// assumptions. Walks the implication trail backwards from the top and
    /// collects the assumption decisions that (transitively) imply
    /// `!failed`, leaving `{failed} ∪ culprits` in `conflict_core`.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(failed);
        // Falsified at the root: no assumption is implicated, but the
        // formula is not unconditionally unsat either (the core names the
        // single root-contradicted assumption).
        if self.level[failed.var() as usize] == 0 || self.trail_lim.is_empty() {
            return;
        }
        self.seen[failed.var() as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var() as usize;
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // Every decision below the assumption levels *is* an
                // assumption (analyze_final only runs while enqueuing them).
                None => self.conflict_core.push(l),
                Some(cref) => {
                    // lits[0] is the propagated literal itself; implicate
                    // the antecedents assigned above the root.
                    let range = self.clauses[cref as usize].range();
                    for qi in range.start + 1..range.end {
                        let q = self.arena[qi];
                        if self.level[q.var() as usize] > 0 {
                            self.seen[q.var() as usize] = true;
                        }
                    }
                }
            }
        }
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let lim = self.trail_lim.pop().expect("level > 0 has a limit");
            for &l in &self.trail[lim..] {
                let v = l.var() as usize;
                self.phase[v] = l.is_positive();
                self.assign[v] = LBool::Undef;
                self.reason[v] = None;
                self.heap.push(HeapEntry {
                    activity: self.activity[v],
                    var: l.var(),
                });
            }
            self.trail.truncate(lim);
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(entry) = self.heap.pop() {
            let v = entry.var as usize;
            // Skip stale entries: assigned vars and outdated activities.
            if self.assign[v] == LBool::Undef && entry.activity >= self.activity[v] {
                return Some(if self.phase[v] {
                    Lit::positive(entry.var)
                } else {
                    Lit::negative(entry.var)
                });
            }
        }
        // The heap can run dry while unbumped variables remain.
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef {
                return Some(if self.phase[v] {
                    Lit::positive(v as Var)
                } else {
                    Lit::negative(v as Var)
                });
            }
        }
        None
    }

    /// The Luby restart sequence (1-based): 1, 1, 2, 1, 1, 2, 4, ...
    fn luby(mut i: u64) -> u64 {
        loop {
            // Smallest k with 2^k - 1 >= i: the subsequence ending in 2^(k-1).
            let mut k = 1u32;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                return 1u64 << (k - 1);
            }
            // Otherwise i sits inside the leading copy of the smaller sequence.
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Runs the CDCL loop until a model is found, unsatisfiability is
    /// proved, or `budget` steps (decisions + conflicts) are consumed. On [`SolveResult::Sat`] the model is
    /// stored (read via [`Solver::value`]) and the trail is rewound, so
    /// more clauses can be added and the solver re-run.
    pub fn solve(&mut self, budget: Option<u64>) -> SolveResult {
        self.solve_under_assumptions(&[], budget)
    }

    /// [`Solver::solve`] under `assumptions`: each literal is enqueued as a
    /// pseudo-decision at levels `1..=assumptions.len()` before any branch
    /// decision (and re-enqueued after every restart), so a model, if one
    /// is found, satisfies all of them. Assumption enqueues are free — they
    /// are not charged against the step budget.
    ///
    /// [`SolveResult::Unsat`] here means *unsat under these assumptions*;
    /// the solver is **not** latched (unless the formula itself was proved
    /// unsat, observable via [`Solver::is_ok`]) and [`Solver::unsat_core`]
    /// holds the responsible subset of the assumptions.
    pub fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: Option<u64>,
    ) -> SolveResult {
        let _span = mvp_trace::span!("sat.solve", vars = self.num_vars());
        let (steps0, conflicts0) = (self.steps, self.conflicts);
        let (restarts0, learned0) = (self.restarts, self.learned);
        let result = self.solve_inner(assumptions, budget);
        // Flush this solve's deltas into the metrics registry in one shot —
        // the CDCL loop itself never touches an atomic. The counters are
        // stable: a solver run on a fixed formula with a fixed budget does
        // the same work at any executor width.
        let conflicts = self.conflicts - conflicts0;
        mvp_trace::counter_handle!("sat.decisions").add(self.steps - steps0 - conflicts);
        mvp_trace::counter_handle!("sat.conflicts").add(conflicts);
        mvp_trace::counter_handle!("sat.restarts").add(self.restarts - restarts0);
        mvp_trace::counter_handle!("sat.learned_clauses").add(self.learned - learned0);
        result
    }

    fn solve_inner(&mut self, assumptions: &[Lit], budget: Option<u64>) -> SolveResult {
        self.conflict_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert!(
            assumptions
                .iter()
                .all(|a| (a.var() as usize) < self.num_vars()),
            "assumption over an unallocated variable"
        );
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        // Seed the order heap with every unassigned variable.
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef {
                self.heap.push(HeapEntry {
                    activity: self.activity[v],
                    var: v as Var,
                });
            }
        }
        let budget_limit = budget.unwrap_or(u64::MAX);
        let mut used = 0u64;
        let mut restart_idx = 1u64;
        let mut restart_limit = Self::luby(restart_idx) * RESTART_UNIT;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                self.steps += 1;
                used += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let bt_level = self.analyze(confl);
                self.backtrack(bt_level);
                let assert_lit = self.learnt_buf[0];
                if self.learnt_buf.len() == 1 {
                    let enqueued = self.enqueue(assert_lit, None);
                    debug_assert!(enqueued, "asserting literal must be free after backjump");
                } else {
                    let start = self.arena.len();
                    self.arena.extend_from_slice(&self.learnt_buf);
                    let cref = self.attach_clause(start, self.learnt_buf.len(), true);
                    self.learned += 1;
                    let enqueued = self.enqueue(assert_lit, Some(cref));
                    debug_assert!(enqueued, "asserting literal must be free after backjump");
                }
                self.decay();
                if used > budget_limit {
                    self.backtrack(0);
                    return SolveResult::Budget;
                }
            } else if conflicts_since_restart >= restart_limit {
                conflicts_since_restart = 0;
                restart_idx += 1;
                restart_limit = Self::luby(restart_idx) * RESTART_UNIT;
                self.restarts += 1;
                self.backtrack(0);
            } else if (self.decision_level() as usize) < assumptions.len() {
                // Re-establish the pending assumptions (after backjumps and
                // restarts too) before any branch decision, one pseudo-
                // decision level per assumption. Not charged as steps.
                let a = assumptions[self.decision_level() as usize];
                match self.lbool(a) {
                    LBool::True => {
                        // Already implied: open a dummy level so the
                        // level <-> assumption-index alignment holds.
                        self.trail_lim.push(self.trail.len());
                    }
                    LBool::False => {
                        self.analyze_final(a);
                        self.backtrack(0);
                        // Unsat *under the assumptions* only: not latched.
                        return SolveResult::Unsat;
                    }
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        let enqueued = self.enqueue(a, None);
                        debug_assert!(enqueued);
                    }
                }
            } else {
                match self.pick_branch() {
                    None => {
                        for v in 0..self.num_vars() {
                            self.model[v] = self.assign[v] == LBool::True;
                        }
                        self.backtrack(0);
                        return SolveResult::Sat;
                    }
                    Some(lit) => {
                        self.steps += 1;
                        used += 1;
                        if used > budget_limit {
                            self.backtrack(0);
                            return SolveResult::Budget;
                        }
                        self.trail_lim.push(self.trail.len());
                        let enqueued = self.enqueue(lit, None);
                        debug_assert!(enqueued);
                    }
                }
            }
        }
    }

    /// Adds clauses enforcing "at most `k` of `lits` are true" using the
    /// Sinz sequential-counter encoding (arc-consistent under unit
    /// propagation). A no-op when `k >= lits.len()` — no auxiliary
    /// variables or clauses are emitted for a vacuous constraint.
    pub fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        self.at_most_k_unless(lits, k, None);
    }

    /// [`Solver::at_most_k`] with an optional `escape` literal appended to
    /// every emitted clause: when `escape` is true the whole constraint is
    /// void (its auxiliary counter variables are left unconstrained). The
    /// incremental encoder guards II-specific cardinality constraints this
    /// way, with `escape = !active_ii`.
    pub fn at_most_k_unless(&mut self, lits: &[Lit], k: usize, escape: Option<Lit>) {
        let n = lits.len();
        if k >= n {
            return;
        }
        // One buffer carries every emitted clause plus its escape.
        let mut buf: Vec<Lit> = Vec::with_capacity(4);
        let mut clause = |solver: &mut Self, lits: &[Lit]| {
            buf.clear();
            buf.extend_from_slice(lits);
            buf.extend(escape);
            solver.add_clause(&buf);
        };
        if k == 0 {
            for &l in lits {
                clause(self, &[!l]);
            }
            return;
        }
        // s(i, j) ("the count over lits[..=i] is > j") for i in 0..n-1,
        // row-major in one vector.
        mvp_trace::counter_handle!("sat.atmostk.aux_vars").add(((n - 1) * k) as u64);
        let aux: Vec<Lit> = (0..(n - 1) * k)
            .map(|_| Lit::positive(self.new_var()))
            .collect();
        let s = |i: usize, j: usize| aux[i * k + j];
        clause(self, &[!lits[0], s(0, 0)]);
        for j in 1..k {
            clause(self, &[!s(0, j)]);
        }
        for (i, &l) in lits.iter().enumerate().take(n - 1).skip(1) {
            clause(self, &[!l, s(i, 0)]);
            clause(self, &[!s(i - 1, 0), s(i, 0)]);
            for j in 1..k {
                clause(self, &[!l, !s(i - 1, j - 1), s(i, j)]);
                clause(self, &[!s(i - 1, j), s(i, j)]);
            }
            clause(self, &[!l, !s(i - 1, k - 1)]);
        }
        clause(self, &[!lits[n - 1], !s(n - 2, k - 1)]);
    }

    /// Adds clauses enforcing "at most one of `lits` is true" (pairwise for
    /// short lists, sequential counter beyond that).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        self.at_most_one_unless(lits, None);
    }

    /// [`Solver::at_most_one`] with an optional `escape` literal appended
    /// to every emitted clause (see [`Solver::at_most_k_unless`]).
    pub fn at_most_one_unless(&mut self, lits: &[Lit], escape: Option<Lit>) {
        if lits.len() <= 6 {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    c.clear();
                    c.extend([!lits[i], !lits[j]]);
                    c.extend(escape);
                    self.add_clause(&c);
                }
            }
        } else {
            self.at_most_k_unless(lits, 1, escape);
        }
    }

    /// Adds clauses enforcing "exactly one of `lits` is true".
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
        self.at_most_one(lits);
    }
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("vars", &self.num_vars())
            .field("clauses", &self.clauses.len())
            .field("conflicts", &self.conflicts)
            .field("steps", &self.steps)
            .field("ok", &self.ok)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(s.new_var())).collect()
    }

    #[test]
    fn literal_encoding_round_trips() {
        let p = Lit::positive(7);
        let n = Lit::negative(7);
        assert_eq!(p.var(), 7);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(format!("{p:?}"), "x7");
        assert_eq!(format!("{n:?}"), "!x7");
    }

    #[test]
    fn trivial_formulas_solve() {
        let mut s = Solver::new();
        let x = vars(&mut s, 2);
        s.add_clause(&[x[0]]);
        s.add_clause(&[!x[0], x[1]]);
        assert_eq!(s.solve(None), SolveResult::Sat);
        assert!(s.value(0));
        assert!(s.value(1));
        assert!(s.lit_value(x[1]));

        // Now force a contradiction.
        s.add_clause(&[!x[1]]);
        assert_eq!(s.solve(None), SolveResult::Unsat);
        assert!(!s.is_ok());
        // Unsat is latched.
        assert_eq!(s.solve(None), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_latches_unsat() {
        let mut s = Solver::new();
        let _ = vars(&mut s, 1);
        s.add_clause(&[]);
        assert_eq!(s.solve(None), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_is_unsat() {
        // 4 pigeons, 3 holes: classic small UNSAT requiring real search.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..4).map(|_| vars(&mut s, 3)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..3 {
            let col: Vec<Lit> = p.iter().map(|row| row[hole]).collect();
            s.at_most_one(&col);
        }
        assert_eq!(s.solve(None), SolveResult::Unsat);
        assert!(s.conflicts() > 0, "pigeonhole needs real search");
    }

    #[test]
    fn budget_aborts_the_search() {
        // Pigeonhole again, but with a 1-step budget: the solver cannot
        // even finish its first decision's subtree.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..5).map(|_| vars(&mut s, 4)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..4 {
            let col: Vec<Lit> = p.iter().map(|row| row[hole]).collect();
            s.at_most_one(&col);
        }
        assert_eq!(s.solve(Some(1)), SolveResult::Budget);
        assert!(s.steps() >= 1);
        // With the budget lifted the same solver finishes the proof.
        assert_eq!(s.solve(None), SolveResult::Unsat);
    }

    #[test]
    fn incremental_model_enumeration_counts_models() {
        // exactly-one over 4 vars has exactly 4 models; block each model
        // as it is found and count until UNSAT.
        let mut s = Solver::new();
        let x = vars(&mut s, 4);
        s.exactly_one(&x);
        let mut models = 0;
        while s.solve(None) == SolveResult::Sat {
            models += 1;
            assert_eq!(x.iter().filter(|&&l| s.lit_value(l)).count(), 1);
            let blocking: Vec<Lit> = x
                .iter()
                .map(|&l| if s.lit_value(l) { !l } else { l })
                .collect();
            s.add_clause(&blocking);
            assert!(models <= 4, "more models than exist");
        }
        assert_eq!(models, 4);
    }

    /// Tiny deterministic xorshift RNG for the differential tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        (0u32..1 << num_vars).any(|m| {
            clauses.iter().all(|c| {
                c.iter()
                    .any(|l| ((m >> l.var()) & 1 == 1) == l.is_positive())
            })
        })
    }

    #[test]
    fn random_formulas_match_brute_force() {
        let mut rng = Rng(0x5EED_CAFE);
        for round in 0..300 {
            let n = 3 + (rng.below(7) as usize); // 3..=9 vars
            let m = 2 + (rng.below(4 * n as u64) as usize);
            let mut clauses = Vec::with_capacity(m);
            for _ in 0..m {
                let width = 1 + rng.below(3) as usize;
                let clause: Vec<Lit> = (0..width)
                    .map(|_| {
                        let v = rng.below(n as u64) as Var;
                        if rng.below(2) == 0 {
                            Lit::positive(v)
                        } else {
                            Lit::negative(v)
                        }
                    })
                    .collect();
                clauses.push(clause);
            }
            let mut s = Solver::new();
            let _ = vars(&mut s, n);
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve(None);
            let expect = brute_force_sat(n, &clauses);
            match (got, expect) {
                (SolveResult::Sat, true) => {
                    // The model must actually satisfy every clause.
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&l| s.lit_value(l)),
                            "round {round}: model violates {c:?}"
                        );
                    }
                }
                (SolveResult::Unsat, false) => {}
                _ => panic!("round {round}: solver said {got:?}, brute force said {expect}"),
            }
        }
    }

    #[test]
    fn at_most_k_matches_forced_counts() {
        // For every subset of 5 vars and every k, forcing that subset true
        // must be SAT iff its size is <= k.
        for k in 0..=5usize {
            for pattern in 0u32..32 {
                let mut s = Solver::new();
                let x = vars(&mut s, 5);
                s.at_most_k(&x, k);
                for (i, &l) in x.iter().enumerate() {
                    if (pattern >> i) & 1 == 1 {
                        s.add_clause(&[l]);
                    } else {
                        s.add_clause(&[!l]);
                    }
                }
                let expect = pattern.count_ones() as usize <= k;
                let got = s.solve(None) == SolveResult::Sat;
                assert_eq!(got, expect, "k={k} pattern={pattern:05b}");
            }
        }
    }

    #[test]
    fn luby_sequence_is_correct() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn assumptions_do_not_latch_unsat() {
        let mut s = Solver::new();
        let x = vars(&mut s, 2);
        s.add_clause(&[x[0], x[1]]);
        // Unsat under {!x0, !x1}, yet the formula itself stays satisfiable.
        assert_eq!(
            s.solve_under_assumptions(&[!x[0], !x[1]], None),
            SolveResult::Unsat
        );
        assert!(s.is_ok(), "assumption-relative unsat must not latch");
        assert!(!s.unsat_core().is_empty());
        assert_eq!(s.solve(None), SolveResult::Sat);
        // And satisfiable again under either assumption alone.
        assert_eq!(s.solve_under_assumptions(&[!x[0]], None), SolveResult::Sat);
        assert!(s.lit_value(x[1]));
    }

    #[test]
    fn models_respect_the_assumptions() {
        let mut s = Solver::new();
        let x = vars(&mut s, 4);
        s.exactly_one(&x);
        for &a in &x {
            assert_eq!(s.solve_under_assumptions(&[a], None), SolveResult::Sat);
            assert!(s.lit_value(a));
            assert_eq!(x.iter().filter(|&&l| s.lit_value(l)).count(), 1);
        }
    }

    #[test]
    fn unsat_cores_name_only_implicated_assumptions() {
        let mut s = Solver::new();
        let x = vars(&mut s, 4);
        // x0 -> x1, x1 -> x2: assuming {x0, !x2} is contradictory; x3 is
        // an innocent bystander that must stay out of the core.
        s.add_clause(&[!x[0], x[1]]);
        s.add_clause(&[!x[1], x[2]]);
        assert_eq!(
            s.solve_under_assumptions(&[x[3], x[0], !x[2]], None),
            SolveResult::Unsat
        );
        let core = s.unsat_core();
        assert!(core.contains(&x[0]), "{core:?}");
        assert!(core.contains(&!x[2]), "{core:?}");
        assert!(!core.contains(&x[3]), "bystander in core: {core:?}");

        // Directly contradictory assumptions: both land in the core.
        assert_eq!(
            s.solve_under_assumptions(&[x[0], !x[0]], None),
            SolveResult::Unsat
        );
        let core = s.unsat_core();
        assert!(core.contains(&x[0]) && core.contains(&!x[0]), "{core:?}");
    }

    #[test]
    fn unconditional_unsat_has_an_empty_core() {
        let mut s = Solver::new();
        let x = vars(&mut s, 1);
        s.add_clause(&[x[0]]);
        s.add_clause(&[!x[0]]);
        assert_eq!(s.solve_under_assumptions(&[x[0]], None), SolveResult::Unsat);
        assert!(s.unsat_core().is_empty());
        assert!(!s.is_ok());
    }

    #[test]
    fn clauses_and_vars_can_be_added_after_an_assumption_unsat() {
        let mut s = Solver::new();
        let x = vars(&mut s, 2);
        s.add_clause(&[x[0], x[1]]);
        assert_eq!(
            s.solve_under_assumptions(&[!x[0], !x[1]], None),
            SolveResult::Unsat
        );
        // Growing the instance after a solve keeps working.
        let y = Lit::positive(s.new_var());
        s.add_clause(&[!y, x[0]]);
        assert_eq!(s.solve_under_assumptions(&[y], None), SolveResult::Sat);
        assert!(s.lit_value(x[0]));
    }

    #[test]
    fn activation_guards_void_and_restore_constraints() {
        // The incremental-encoder pattern: an at-most-1 over 8 literals
        // guarded by an activation var. Under `act` the constraint binds;
        // with `!act` fixed the same clauses are inert.
        let mut s = Solver::new();
        let act = Lit::positive(s.new_var());
        let x = vars(&mut s, 8);
        s.at_most_k_unless(&x, 1, Some(!act));
        for &l in &x {
            s.add_clause(&[l]); // force all 8 true
        }
        assert_eq!(s.solve_under_assumptions(&[act], None), SolveResult::Unsat);
        assert!(s.is_ok(), "guarded unsat is assumption-relative");
        assert_eq!(s.unsat_core(), &[act]);
        // Retire the guard: the constraint dissolves for good.
        s.add_clause(&[!act]);
        assert_eq!(s.solve(None), SolveResult::Sat);
        assert_eq!(s.fixed_value(act.var()), Some(false));
    }

    #[test]
    fn vacuous_at_most_k_emits_nothing() {
        // k >= lits.len() is a tautology: no aux vars, no clauses — pinned
        // so the modulo-row encoder never pays for unconstrained rows.
        let mut s = Solver::new();
        let x = vars(&mut s, 5);
        let (v0, c0) = (s.num_vars(), s.num_clauses());
        s.at_most_k(&x, 5);
        s.at_most_k(&x, 17);
        s.at_most_k_unless(&x, 5, Some(!x[0]));
        assert_eq!(s.num_vars(), v0, "vacuous at-most-k allocated aux vars");
        assert_eq!(s.num_clauses(), c0, "vacuous at-most-k emitted clauses");
        // And it is indeed vacuous: all 5 true remains satisfiable.
        for &l in &x {
            s.add_clause(&[l]);
        }
        assert_eq!(s.solve(None), SolveResult::Sat);
    }

    #[test]
    fn saved_phases_can_be_overridden() {
        let mut s = Solver::new();
        let x = vars(&mut s, 2);
        s.add_clause(&[x[0], x[1]]);
        assert!(!s.saved_phase(0), "phases default to false");
        s.set_phase(0, true);
        assert!(s.saved_phase(0));
        assert_eq!(s.solve(None), SolveResult::Sat);
        // The warm-started phase steers the first decision.
        assert!(s.value(0));
    }

    /// Every observable result of one solve, for differential comparison.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: SolveResult,
        steps: u64,
        conflicts: u64,
        model: Vec<bool>,
        core: Vec<Lit>,
    }

    /// What the checked collections of a run deleted and kept.
    #[derive(Default)]
    struct Collected {
        deleted: usize,
        learnt_deleted: usize,
        learnt_kept: usize,
    }

    fn lits(s: &Solver, cref: usize) -> &[Lit] {
        &s.arena[s.clauses[cref].range()]
    }

    fn random_clause(rng: &mut Rng, vars: &[Var], width: usize) -> Vec<Lit> {
        (0..width)
            .map(|_| {
                let v = vars[rng.below(vars.len() as u64) as usize];
                if rng.below(2) == 0 {
                    Lit::positive(v)
                } else {
                    Lit::negative(v)
                }
            })
            .collect()
    }

    /// Runs [`Solver::collect_satisfied`] and checks its structural
    /// contract: no survivor is satisfied at the root; survivors keep
    /// their literals, learnt bits and relative order; each sits on the
    /// watch lists of exactly its first two literals, in its previous
    /// relative order; and no level-0 variable keeps a reason.
    fn collect_checked(s: &mut Solver, collected: &mut Collected) {
        if !s.is_ok() {
            // A latched solver has nothing left to decide or collect.
            return;
        }
        let root_true =
            |s: &Solver, c: usize| lits(s, c).iter().any(|&l| s.lbool(l) == LBool::True);
        let before: Vec<(Vec<Lit>, bool)> = (0..s.num_clauses())
            .map(|c| (lits(s, c).to_vec(), s.clauses[c].learnt()))
            .collect();
        let mut renumber: Vec<Option<u32>> = Vec::new();
        let mut survivors = 0u32;
        for (c, (_, learnt)) in before.iter().enumerate() {
            if root_true(s, c) {
                renumber.push(None);
                collected.deleted += 1;
                collected.learnt_deleted += usize::from(*learnt);
            } else {
                renumber.push(Some(survivors));
                survivors += 1;
            }
        }
        let expected_watches: Vec<Vec<u32>> = s
            .watches
            .iter()
            .map(|ws| ws.iter().filter_map(|&c| renumber[c as usize]).collect())
            .collect();

        s.collect_satisfied();

        assert_eq!(s.num_clauses(), survivors as usize);
        for (old, new) in renumber.iter().enumerate() {
            if let Some(new) = new {
                let new = *new as usize;
                assert_eq!(lits(s, new), before[old].0, "clause {old} -> {new}");
                assert_eq!(s.clauses[new].learnt(), before[old].1);
            }
        }
        assert!((0..s.num_clauses()).all(|c| !root_true(s, c)));
        assert_eq!(s.watches, expected_watches);
        let mut watched_on = vec![Vec::new(); s.num_clauses()];
        for (lit, ws) in s.watches.iter().enumerate() {
            for &c in ws {
                watched_on[c as usize].push(lit);
            }
        }
        for (c, on) in watched_on.iter().enumerate() {
            let mut first_two = [lits(s, c)[0].index(), lits(s, c)[1].index()];
            first_two.sort_unstable();
            assert_eq!(on, &first_two, "clause {c} watches");
        }
        assert!(s.trail.iter().all(|l| s.reason[l.var() as usize].is_none()));
        let learnt = s.clauses.iter().filter(|h| h.learnt()).count();
        assert_eq!(s.num_learnt(), learnt);
        collected.learnt_kept += learnt;
    }

    /// Drives a random layered formula the way the exact backend's session
    /// drives its solver: a global section, then layers whose clauses all
    /// carry `¬act`, each probed under `act` (plus a few global
    /// assumptions, small budgets and a refinement clause after every
    /// solve) and then retired by the unit `¬act` and freezing the layer's
    /// free variables, after which `retired` runs. The random draws never
    /// depend on a solve's outcome, so two runs of one seed build the same
    /// clauses in the same order.
    fn layered_run(seed: u64, retired: &mut dyn FnMut(&mut Solver)) -> Vec<Observed> {
        let mut rng = Rng(seed);
        let mut s = Solver::new();
        let global: Vec<Var> = (0..6 + rng.below(5)).map(|_| s.new_var()).collect();
        let mut observed = Vec::new();
        for _layer in 0..4 {
            for _ in 0..global.len() / 2 {
                let c = random_clause(&mut rng, &global, 3);
                s.add_clause(&c);
            }
            let act = Lit::positive(s.new_var());
            let mut vars = global.clone();
            vars.extend((0..4 + rng.below(6)).map(|_| s.new_var()));
            for _ in 0..4 * vars.len() {
                let mut c = random_clause(&mut rng, &vars, 3);
                c.push(!act);
                s.add_clause(&c);
            }
            for _ in 0..3 {
                let mut assumptions = vec![act];
                let extra = rng.below(3) as usize;
                assumptions.extend(random_clause(&mut rng, &global, extra));
                let budget = (rng.below(3) == 0).then(|| 1 + rng.below(40));
                let result = s.solve_under_assumptions(&assumptions, budget);
                observed.push(Observed {
                    result,
                    steps: s.steps(),
                    conflicts: s.conflicts(),
                    model: if result == SolveResult::Sat {
                        s.model.clone()
                    } else {
                        Vec::new()
                    },
                    core: s.unsat_core().to_vec(),
                });
                let mut lemma = random_clause(&mut rng, &vars, 2);
                lemma.push(!act);
                s.add_clause(&lemma);
            }
            s.add_clause(&[!act]);
            for v in act.var()..s.num_vars() as Var {
                if s.fixed_value(v).is_none() {
                    s.add_clause(&[Lit::negative(v)]);
                }
            }
            retired(&mut s);
        }
        observed
    }

    #[test]
    fn collection_keeps_only_unsatisfied_clauses_in_watch_order() {
        let mut collected = Collected::default();
        for round in 0..60 {
            layered_run(0xC0_11EC7 + round, &mut |s| {
                collect_checked(s, &mut collected)
            });
        }
        assert!(collected.deleted > 0, "retirement satisfies clauses");
        assert!(
            collected.learnt_deleted > 0,
            "learnt clauses naming a retired layer go with it"
        );
        assert!(
            collected.learnt_kept > 0,
            "learnt clauses over the global section survive"
        );
    }

    #[test]
    fn collection_changes_no_step_of_a_layered_search() {
        for round in 0..200 {
            let seed = 0x5EED_1A7E + round;
            assert_eq!(
                layered_run(seed, &mut |_| {}),
                layered_run(seed, &mut Solver::collect_satisfied),
                "round {round}"
            );
        }
    }

    #[test]
    fn debug_formats_mention_the_counters() {
        let mut s = Solver::new();
        let x = vars(&mut s, 2);
        s.add_clause(&[x[0], x[1]]);
        assert_eq!(s.solve(None), SolveResult::Sat);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("vars: 2"), "{dbg}");
    }
}
