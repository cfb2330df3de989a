//! θ-subsumption between clauses, extended to repair literals.
//!
//! Clause `C` θ-subsumes clause `D` iff there is a substitution θ such that
//! `Cθ ⊆ D` (Section 4.2). Definition 4.4 extends this to clauses with repair
//! literals, and the matcher implements its first condition only: repair
//! literals are matched like ordinary literals under θ. Its second condition,
//! that every repair literal of `D` connected to a mapped literal be mapped
//! too, is not checked: ground bottom clauses built with `km > 1` routinely
//! carry alternative-match repair literals that a learned clause has no
//! reason to mention.
//!
//! θ-subsumption is NP-hard, so the matcher is a backtracking search over the
//! relation literals of `C` with a global step budget. Literal order is
//! chosen **dynamically**: at every search node the matcher picks the
//! still-unmatched literal with the fewest candidate literals of `D` *after
//! pruning under the current θ* (most-constrained-literal-first), and fails
//! the node immediately when any unmatched literal has no candidate left.
//! Bindings made early therefore shrink the branching factor of every later
//! choice, which is where the remaining backtracking in the covering loop
//! goes. The order affects which witness is found first and how much of the
//! step budget ([`SubsumptionConfig::max_steps`]) a search consumes.
//!
//! Every complete relation mapping is decided by one final phase
//! (`finish_mapping`): similarity, equality and inequality literals are
//! checked as constraints, then repair groups are matched against `D`'s
//! repair facts; when that phase rejects a mapping, the search unwinds its
//! bindings with the mapping's and resumes with the next relation mapping
//! rather than giving up. Decisions are therefore independent of the literal
//! order for clauses whose constraint variables all occur in the head or a
//! relation literal (the shape bottom-clause construction produces), which is
//! exactly the property the brute-force enumeration oracle in `test-support`
//! pins.
//!
//! ## Forward checks
//!
//! The final phase would otherwise see every relation mapping, most of which
//! a single `≈` literal already rules out. So parts of it also run *inside*
//! the relation search, as soon as their variables are bound. Call a
//! variable *relational* when it occurs in the head or in a relation
//! literal: the head match and the relation search bind exactly those. Two
//! kinds of check are watched:
//!
//! * a `≈`, `=` or `≠` literal whose variables are all relational, tested
//!   with exactly the test the final phase applies to a fully bound pair;
//! * a repair replacement `(x, t)` with `x` relational: `D` must hold a
//!   repair fact of the group's origin with `dx = θx` and — when `t` is a
//!   constant or relational — `dt = θt`.
//!
//! [`NumberedClause::new`] lists, per variable slot the relation search
//! binds, the checks watching it; a clause without constraint literals or
//! repair groups has none, and its search does no extra work. A search
//! counts each check's watched slots that are still unbound. Checks that
//! watch no slot run right after the head match; every other check runs
//! right after the literal match that binds its last watched slot; a failed
//! check drops the branch. Each check is a necessary condition for the
//! final phase to accept any completion of the branch, since θ only grows
//! along a branch and the final phase tests the same bound terms. So the
//! search still reaches every mapping the final phase accepts, in the same
//! order, and only rejected mappings disappear. A search that finishes
//! within budget without the checks returns the same [`Decision`] and the
//! same witness with them, the step count of every search can only fall,
//! and a search that exhausted its budget without them may now finish. The
//! final phase still decides every complete mapping.
//!
//! ## Independent parts
//!
//! The head match binds every head variable, and what is left of `C` often
//! falls apart. Call two items of `C` (body literals and repair groups)
//! *linked* when they share a variable the head does not bind; a repair
//! group links through its replaced variables and replacement terms, the
//! only terms of it the search reads. The classes of linked items are the
//! clause's *parts*, and an item without such a variable is a part by itself.
//! A θ for the whole clause exists iff each part has one, and no part's
//! mapping constrains another's. Searched as one, though, the clause
//! re-proves a part without a mapping under every mapping of the others.
//! [`NumberedClause::new`] computes the partition once per clause, with a
//! union–find over the slots the head does not bind, and stores each part's
//! items as indices. It does not depend on `D`.
//!
//! The search finds every relation literal's candidates under the head
//! bindings, the scan the first node of a whole-clause search makes, and
//! answers No when one has none. It then orders the parts: those without
//! relation literals first, since they only run the final phase, then by
//! their most constrained literal (fewest candidates, then earliest), so the
//! whole-clause search's first pick leads. The relation search and the final
//! phase run on each part in turn over one state: θ, trail, step budget and
//! forward-check counts. Each part keeps its first accepted mapping, the
//! first part without one ends the search with No, and the witness is the
//! union of the parts' mappings.
//!
//! The pick rule ranks a part's literals by their candidates, which depend on
//! the bindings of that part alone. So the whole-clause search, restricted to
//! one part, tries that part's candidates in the part's own order, and its
//! first witness, restricted to a part, is that part's first mapping. Every
//! search that finished within budget as one returns the same decision and the
//! same witness part by part, and no Yes takes more steps. A No is still a
//! proof, since a part's search is exhaustive, but it can take more steps than
//! the whole-clause search when that search happened to reach the failing part
//! sooner. Should that exhaust the budget, the answer reads
//! [`Decision::BudgetExhausted`], which coverage counts as not covered. A
//! search that exhausted its budget as one may now finish.
//!
//! ## Indexing
//!
//! [`GroundClause`] is the index side: candidate literals are bucketed by
//! `(RelId, arity)` and, within a bucket, by the term at every argument
//! position. When the search reaches a literal of `C` whose argument at
//! position `p` is already determined (a constant, or a variable bound by
//! θ), the candidate list shrinks to the bucket entries carrying exactly
//! that term at `p`: one lookup for the bucket and one per determined
//! argument. No string is hashed or compared anywhere, and no linear scan
//! over same-name literals happens. Every binding, the final phase's
//! included, is recorded on a trail and undone by unwinding it; θ is never
//! cloned.
//!
//! The index is flat. The arguments of `D`'s relation literals sit in one
//! arena, and a literal is named by the offset of its first argument. Every
//! candidate list, each in body order, lies in one array of offsets, and two
//! maps send a bucket and an `(argument slot, term)` key to its range. A
//! position key hashes as one word, so a probe costs what a per-position
//! map's did without the per-position tables. The
//! `≈` and `=` pairs and the repair facts sit in sorted arrays, searched by
//! bisection; a sorted pair array iterates like the ordered set it
//! replaces, so a pair check still binds the smallest partner. Building
//! counts each key's literals before it lays the lists out, so indexing a
//! clause makes the same few allocations, and freeing it the same few frees,
//! whatever the clause's size (`tests/ground_clause_allocs.rs` pins this).
//! That is what a delta pays per re-grounded example it displaces.
//!
//! ## Flat substitutions
//!
//! The search binds only variables of the candidate clause `C`. `C` is
//! renumbered once to the dense variable range `0..n` (see
//! [`crate::numbering::NumberedClause`]), so θ is a [`FlatSubstitution`] —
//! a `Vec<Option<Term>>` indexed by variable number. Every `get`/`bind`/
//! `remove` in the inner loop is a direct slot access and trail unwinding is
//! `O(1)` per binding; no hashing happens anywhere in the search.
//!
//! ## One search, two views
//!
//! Every caller runs the same search over a prepared-once numbering.
//! [`subsumes`] is the decision view: a three-valued [`Decision`] under an
//! optional [`CancelToken`], which coverage testing and serving call.
//! [`witness`] is the witness view: the witnessing substitution translated
//! back to `C`'s original variables, which the θ-verification oracles check.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use dlearn_relstore::{FxHashMap, RelId, Value};

use crate::clause::{Clause, UnionFind};
use crate::literal::Literal;
use crate::numbering::NumberedClause;
use crate::repair::{RepairGroup, RepairOrigin};
use crate::substitution::{FlatSubstitution, Substitution};
use crate::term::{Term, Var};

/// The outcome of a θ-subsumption decision.
///
/// The search is budgeted (NP-hard worst case) and cooperatively
/// cancellable, so "no witness found" has three distinct causes that callers
/// must be able to tell apart: the space was exhausted (a real **No**), the
/// step budget ran out first (**BudgetExhausted** — the answer is unknown,
/// and serving layers surface it as a *degraded* negative instead of
/// silently collapsing it to "no"), or an external [`CancelToken`] fired
/// (**Cancelled** — typically a per-call deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// A witnessing substitution exists (and was found within budget).
    Yes,
    /// The full search space was explored: no witness exists.
    No,
    /// The step budget ([`SubsumptionConfig::max_steps`]) ran out before the
    /// search finished; whether a witness exists is unknown.
    BudgetExhausted,
    /// The [`CancelToken`]'s deadline passed before the search finished;
    /// whether a witness exists is unknown.
    Cancelled,
}

impl Decision {
    /// `true` only for [`Decision::Yes`] — the legacy boolean collapse,
    /// where an inconclusive search counts as "does not subsume".
    pub fn is_yes(self) -> bool {
        matches!(self, Decision::Yes)
    }
}

/// Cooperative cancellation handle for long-running subsumption searches:
/// a deadline.
///
/// The search polls the token every [`CANCEL_CHECK_INTERVAL`] steps —
/// alongside the `steps > max_steps` budget test — so a pathological clause
/// pair cannot pin a worker thread past its deadline. The token is
/// cancelled once its deadline passes, and stays cancelled.
#[derive(Debug)]
pub struct CancelToken {
    deadline: Instant,
}

/// How many search steps pass between [`CancelToken`] polls. A step is a
/// handful of slot accesses, so this bounds the cancellation latency to
/// microseconds while keeping the clock read off the per-step path.
pub const CANCEL_CHECK_INTERVAL: usize = 1024;

impl CancelToken {
    /// A token that cancels itself once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { deadline }
    }

    /// `true` once the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// The budget of the subsumption search.
#[derive(Debug, Clone, Copy)]
pub struct SubsumptionConfig {
    /// Maximum number of candidate-extension steps before giving up. A
    /// search that runs out reports [`Decision::BudgetExhausted`]; it is
    /// the caller that decides how to count that unknown answer.
    pub max_steps: usize,
}

impl Default for SubsumptionConfig {
    fn default() -> Self {
        SubsumptionConfig { max_steps: 200_000 }
    }
}

/// Where a list of a [`lay_out`] lies in its items, such as a candidate
/// list in [`GroundClause`]'s list array: `start..end`.
type Span = (u32, u32);

/// A key of [`GroundClause`]'s position index: an argument slot and the
/// term at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PositionKey {
    slot: u32,
    term: Term,
}

impl Hash for PositionKey {
    /// The term's payload (a variable's index, an integer, an interned
    /// string's address) in the low half of one word and the slot in the
    /// high half, so Fx hashes a key with one multiply and the table, which
    /// picks a key's group by its hash's low bits, spreads a slot's terms.
    /// Keys that share a word still differ under `==`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let payload = match self.term {
            Term::Var(v) => u64::from(v.0),
            Term::Const(Value::Int(i)) => i as u64,
            Term::Const(Value::Str(s)) => s.as_str().as_ptr() as u64,
            Term::Const(Value::Null) => 0,
        };
        state.write_u64(payload ^ u64::from(self.slot) << 32);
    }
}

/// One `(relation, arity)` signature of an indexed clause.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Every literal with this signature.
    list: Span,
    /// The bucket's first argument slot: argument position `p` of the
    /// signature is slot `slots + p` of the position index.
    slots: u32,
}

/// A clause indexed for use as the right-hand side (`D`) of subsumption
/// tests. Ground bottom clauses are wrapped in this once and tested against
/// many candidate clauses.
///
/// The index is flat (see the module docs, "Indexing"): building one makes
/// the same few allocations whatever the clause's size.
#[derive(Debug, Clone)]
pub struct GroundClause {
    head: Literal,
    /// Number of body literals.
    len: usize,
    /// The arguments of the body's relation literals, literal after literal
    /// in body order. A literal is named by the offset of its first
    /// argument; its bucket gives its arity.
    args: Vec<Term>,
    /// Every candidate list, back to back. A list holds literal offsets in
    /// body order.
    lists: Vec<u32>,
    /// `(relation, arity)` → the signature's bucket. This is also what the
    /// literal-ordering heuristic reads (via [`Self::candidates_pruned`]).
    buckets: FxHashMap<(RelId, usize), Bucket>,
    /// `(argument slot, term)` → the list of the bucket's literals carrying
    /// that term at that position. Fx-hashed, one word per key: probed once
    /// per determined argument at every search node, and only ever *looked
    /// up* (iteration order is never observed), so the cheap hasher cannot
    /// affect decisions.
    by_position: FxHashMap<PositionKey, Span>,
    /// The `≈` pairs, closed under symmetry, sorted and distinct.
    similar_pairs: Vec<(Term, Term)>,
    /// The `=` pairs, closed under symmetry, sorted and distinct.
    equal_pairs: Vec<(Term, Term)>,
    /// Flattened repair literals: `(origin, replaced variable as a term,
    /// replacement term)`.
    repair_facts: Vec<(RepairOrigin, Term, Term)>,
    /// The distinct `(origin, replaced variable, replacement)` triples of
    /// `repair_facts`, sorted: what the forward repair checks look up.
    repair_index: Vec<(RepairOrigin, Term, Term)>,
}

impl GroundClause {
    /// Index a clause for repeated subsumption testing.
    ///
    /// The lists are laid out by counting. A walk over the relation literals
    /// numbers each key (a bucket, or an argument slot's term) on first
    /// sight and records the keys each literal joins; the layout then counts
    /// each key's literals and drops every literal into its lists. Every
    /// structure is sized before it is filled, so none grows.
    pub fn new(clause: &Clause) -> Self {
        let relations = || {
            clause.body.iter().filter_map(|l| match l {
                Literal::Relation { relation, args } => Some((*relation, args.as_slice())),
                _ => None,
            })
        };
        // Bounds on the key counts: a bucket needs a run of literals with
        // its signature, a position key an argument. Bottom clauses list
        // their literals by relation, so the first bound is exact for them.
        let (mut literals, mut arguments, mut runs) = (0, 0, 0);
        let mut previous = None;
        for (relation, args) in relations() {
            literals += 1;
            arguments += args.len();
            if previous != Some((relation, args.len())) {
                runs += 1;
                previous = Some((relation, args.len()));
            }
        }
        let occurrences = literals + arguments;
        let mut args = Vec::with_capacity(arguments);
        let mut buckets: FxHashMap<(RelId, usize), Bucket> =
            FxHashMap::with_capacity_and_hasher(runs, Default::default());
        let mut by_position: FxHashMap<PositionKey, Span> =
            FxHashMap::with_capacity_and_hasher(arguments, Default::default());

        // Number the keys. `keys_of` holds, per literal, its bucket's number
        // and then each argument's key's; a map value holds its key's number
        // until the lists are laid out.
        let mut keys_of = Vec::with_capacity(occurrences);
        let mut keys = 0u32;
        let mut slots = 0u32;
        for (relation, literal) in relations() {
            let arity = literal.len() as u32;
            let bucket = buckets.entry((relation, literal.len())).or_insert_with(|| {
                keys += 1;
                slots += arity;
                Bucket {
                    list: (keys - 1, 0),
                    slots: slots - arity,
                }
            });
            keys_of.push(bucket.list.0);
            let first = bucket.slots;
            for (p, t) in literal.iter().enumerate() {
                let list = by_position
                    .entry(PositionKey {
                        slot: first + p as u32,
                        term: *t,
                    })
                    .or_insert_with(|| {
                        keys += 1;
                        (keys - 1, 0)
                    });
                keys_of.push(list.0);
            }
            args.extend_from_slice(literal);
        }

        // Each literal joins its bucket's list and one list per argument,
        // named by the offset of its first argument.
        let offsets = relations()
            .scan(0u32, |offset, (_, literal)| {
                let first = *offset;
                *offset += literal.len() as u32;
                Some(std::iter::repeat_n(first, 1 + literal.len()))
            })
            .flatten();
        let (lists, ends) = lay_out(keys as usize, &keys_of, offsets);
        for bucket in buckets.values_mut() {
            bucket.list = span(&ends, bucket.list.0 as usize);
        }
        for list in by_position.values_mut() {
            *list = span(&ends, list.0 as usize);
        }

        // NotEqual literals of D constrain nothing the matcher checks (C's
        // inequality literals are verified against D's equal pairs), so
        // they are not indexed.
        let similar_pairs = symmetric_pairs(clause, |l| match l {
            Literal::Similar(a, b) => Some((*a, *b)),
            _ => None,
        });
        let equal_pairs = symmetric_pairs(clause, |l| match l {
            Literal::Equal(a, b) => Some((*a, *b)),
            _ => None,
        });
        let mut repair_facts =
            Vec::with_capacity(clause.repairs.iter().map(|g| g.replacements.len()).sum());
        for g in &clause.repairs {
            for (v, t) in &g.replacements {
                repair_facts.push((g.origin, Term::Var(*v), *t));
            }
        }
        let mut repair_index = repair_facts.clone();
        repair_index.sort_unstable();
        repair_index.dedup();
        GroundClause {
            head: clause.head.clone(),
            len: clause.body.len(),
            args,
            lists,
            buckets,
            by_position,
            similar_pairs,
            equal_pairs,
            repair_facts,
            repair_index,
        }
    }

    /// The head literal.
    pub fn head(&self) -> &Literal {
        &self.head
    }

    /// Number of body literals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The arguments of the literal at `offset`, whose bucket has arity
    /// `arity`.
    fn literal(&self, offset: u32, arity: usize) -> &[Term] {
        &self.args[offset as usize..offset as usize + arity]
    }

    /// The smallest candidate list for a literal of `C` under the current
    /// substitution: starts from the `(RelId, arity)` bucket and shrinks it
    /// through the position index for every argument that is already
    /// determined (a constant, or a θ-bound variable). Every literal skipped
    /// by the pruning could not have matched.
    fn candidates_pruned(
        &self,
        relation: RelId,
        args: &[Term],
        theta: &FlatSubstitution,
    ) -> &[u32] {
        let Some(bucket) = self.buckets.get(&(relation, args.len())) else {
            return &[];
        };
        let (mut start, mut end) = bucket.list;
        for (p, arg) in args.iter().enumerate() {
            let determined = match arg {
                Term::Const(_) => Some(*arg),
                Term::Var(v) => theta.get(*v).copied(),
            };
            if let Some(term) = determined {
                let key = PositionKey {
                    slot: bucket.slots + p as u32,
                    term,
                };
                match self.by_position.get(&key) {
                    None => return &[],
                    Some(&(s, e)) => {
                        if e - s < end - start {
                            (start, end) = (s, e);
                        }
                    }
                }
            }
        }
        &self.lists[start as usize..end as usize]
    }

    /// `D`'s similarity or equality pairs (symmetrically closed, sorted).
    fn pairs(&self, kind: PairKind) -> &[(Term, Term)] {
        match kind {
            PairKind::Similar => &self.similar_pairs,
            PairKind::Equal => &self.equal_pairs,
        }
    }

    /// The test a similarity (`kind` [`PairKind::Similar`]) or equality
    /// literal passes between two determined terms: they are identical or
    /// `D` states the pair.
    fn related(&self, kind: PairKind, ta: Term, tb: Term) -> bool {
        ta == tb || self.pairs(kind).binary_search(&(ta, tb)).is_ok()
    }

    /// The test an inequality literal passes between two determined terms:
    /// they differ and `D` does not equate them.
    fn unequal(&self, ta: Term, tb: Term) -> bool {
        ta != tb && self.equal_pairs.binary_search(&(ta, tb)).is_err()
    }

    /// Does `D` hold a repair fact of `origin` replacing `dx`, by `dt` when
    /// given (by anything otherwise)?
    fn has_repair_fact(&self, origin: RepairOrigin, dx: Term, dt: Option<Term>) -> bool {
        match dt {
            Some(dt) => self.repair_index.binary_search(&(origin, dx, dt)).is_ok(),
            None => self
                .repair_index
                .binary_search_by(|(o, x, _)| (o, x).cmp(&(&origin, &dx)))
                .is_ok(),
        }
    }
}

/// The pairs `want` picks out of `clause`'s body, closed under symmetry,
/// sorted and distinct: the order a `BTreeSet` of them iterates in.
fn symmetric_pairs(
    clause: &Clause,
    want: impl Fn(&Literal) -> Option<(Term, Term)>,
) -> Vec<(Term, Term)> {
    let mut pairs = Vec::with_capacity(2 * clause.body.iter().filter_map(&want).count());
    for (a, b) in clause.body.iter().filter_map(&want) {
        pairs.push((a, b));
        pairs.push((b, a));
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Try to unify (match) a relation literal of `C` against one of `D` (a
/// head), extending the substitution and recording fresh bindings on
/// `trail`.
fn match_literal(
    c_lit: &Literal,
    d_lit: &Literal,
    theta: &mut FlatSubstitution,
    trail: &mut Vec<Var>,
) -> bool {
    match (c_lit, d_lit) {
        (
            Literal::Relation {
                relation: rc,
                args: ac,
            },
            Literal::Relation {
                relation: rd,
                args: ad,
            },
        ) => rc == rd && ac.len() == ad.len() && match_args(ac, ad, theta, trail),
        _ => false,
    }
}

/// Match the arguments of a relation literal of `C` against those of a
/// literal of `D` with the same signature.
fn match_args(
    c_args: &[Term],
    d_args: &[Term],
    theta: &mut FlatSubstitution,
    trail: &mut Vec<Var>,
) -> bool {
    c_args
        .iter()
        .zip(d_args)
        .all(|(a, b)| match_term(a, b, theta, trail))
}

/// Match a term of `C` against a term of `D` under the current substitution,
/// recording any fresh binding on `trail`.
fn match_term(
    c_term: &Term,
    d_term: &Term,
    theta: &mut FlatSubstitution,
    trail: &mut Vec<Var>,
) -> bool {
    match c_term {
        Term::Const(v) => match d_term {
            Term::Const(w) => v == w,
            Term::Var(_) => false,
        },
        Term::Var(v) => match theta.get(*v) {
            Some(existing) => existing == d_term,
            None => {
                theta.bind(*v, *d_term);
                trail.push(*v);
                true
            }
        },
    }
}

/// Undo every binding recorded past `mark`.
fn unwind(theta: &mut FlatSubstitution, trail: &mut Vec<Var>, mark: usize) {
    for var in trail.drain(mark..) {
        theta.remove(var);
    }
}

/// Why an inconclusive search stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopCause {
    Budget,
    Cancelled,
}

/// Mutable state of the matching search. θ is a flat substitution over the
/// candidate clause's dense numbering, and the trail records every binding
/// made since the head match, in order.
struct SearchState {
    theta: FlatSubstitution,
    trail: Vec<Var>,
    /// Per forward check, how many of its watched slots are still unbound;
    /// empty until the first literal match.
    unbound: Vec<u32>,
    steps: usize,
    /// Set once when the search stops inconclusively; every later `charge`
    /// fails immediately so the whole recursion unwinds without doing work.
    stop: Option<StopCause>,
}

impl SearchState {
    /// Charge one candidate-extension step against the budget and — every
    /// [`CANCEL_CHECK_INTERVAL`] steps — poll the cancellation token.
    /// Returns `false` when the search must stop (budget exhausted or
    /// cancelled); the first cause wins and is latched in `self.stop`.
    #[inline]
    fn charge(&mut self, config: &SubsumptionConfig, cancel: Option<&CancelToken>) -> bool {
        if self.stop.is_some() {
            return false;
        }
        self.steps += 1;
        if self.steps > config.max_steps {
            self.stop = Some(StopCause::Budget);
            return false;
        }
        if self.steps.is_multiple_of(CANCEL_CHECK_INTERVAL) {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    self.stop = Some(StopCause::Cancelled);
                    return false;
                }
            }
        }
        true
    }
}

/// Decide whether `c` θ-subsumes the indexed clause `d`.
///
/// The decision is three-valued: a search that runs out of its step budget
/// reports [`Decision::BudgetExhausted`], and one whose `cancel` token fires
/// reports [`Decision::Cancelled`], instead of collapsing to "no", so
/// callers can observe (and count) degraded answers. The token is polled
/// alongside the step budget; it is the serving tier's per-call deadline
/// hook. Use [`Decision::is_yes`] for the boolean reading.
pub fn subsumes(
    c: &NumberedClause,
    d: &GroundClause,
    config: &SubsumptionConfig,
    cancel: Option<&CancelToken>,
) -> Decision {
    match search_subsumption(c, d, config, cancel) {
        (Some(_), _) => Decision::Yes,
        (None, Some(StopCause::Budget)) => Decision::BudgetExhausted,
        (None, Some(StopCause::Cancelled)) => Decision::Cancelled,
        (None, None) => Decision::No,
    }
}

/// The witness view of [`subsumes`]: the same search, returning the
/// witnessing substitution over `c`'s original variables when `c` subsumes
/// `d` within the step budget.
pub fn witness(
    c: &NumberedClause,
    d: &GroundClause,
    config: &SubsumptionConfig,
) -> Option<Substitution> {
    search_subsumption(c, d, config, None)
        .0
        .map(|flat| c.to_original(&flat))
}

/// A relation literal of the candidate clause, destructured once so the
/// search never re-matches the enum inside the hot loop.
#[derive(Clone, Copy)]
struct RelLit<'a> {
    relation: RelId,
    args: &'a [Term],
    /// The literal's candidates under the head bindings.
    candidates: &'a [u32],
}

/// Everything immutable the relation search of one part threads through its
/// recursion.
struct SearchCtx<'a> {
    clause: &'a Clause,
    watches: &'a Watches,
    relations: &'a [RelLit<'a>],
    constraints: &'a [&'a Literal],
    repairs: &'a [&'a RepairGroup],
    d: &'a GroundClause,
    config: &'a SubsumptionConfig,
    cancel: Option<&'a CancelToken>,
}

/// The backtracking search over the renumbered candidate clause, with θ as a
/// flat substitution, one independent part at a time. Returns the witness
/// (if any) together with the cause of an inconclusive early stop.
fn search_subsumption(
    c: &NumberedClause,
    d: &GroundClause,
    config: &SubsumptionConfig,
    cancel: Option<&CancelToken>,
) -> (Option<FlatSubstitution>, Option<StopCause>) {
    let clause = c.clause();

    // 1. Heads must unify. The head's bindings are never undone, so the
    // trail starts empty again for the search.
    let mut theta = c.fresh_substitution();
    let mut trail = Vec::new();
    if !match_literal(&clause.head, d.head(), &mut theta, &mut trail) {
        return (None, None);
    }
    trail.clear();

    // 2. Run the forward checks the head already settles.
    let watches = c.watches();
    let head_settled = watches
        .checks
        .iter()
        .zip(&watches.watched)
        .filter(|(_, &watched)| watched == 0)
        .all(|(check, _)| check.holds(clause, &theta, d));
    if !head_settled {
        return (None, None);
    }

    // 3. Find every relation literal's candidates under the head bindings.
    // A literal with none cannot be matched on any branch.
    let mut relations: Vec<RelLit> = Vec::with_capacity(clause.body.len());
    for l in &clause.body {
        if let Literal::Relation { relation, args } = l {
            let candidates = d.candidates_pruned(*relation, args, &theta);
            if candidates.is_empty() {
                return (None, None);
            }
            relations.push(RelLit {
                relation: *relation,
                args,
                candidates,
            });
        }
    }

    // 4. Order the parts: those without relation literals first (they only
    // run the final phase), then by their most constrained literal, fewest
    // candidates then earliest, so the first pick of the whole-clause search
    // leads.
    let parts = c.parts();
    let mut order: Vec<(Option<(usize, u32)>, usize)> = (0..parts.len())
        .map(|p| {
            let [rels, _, _] = parts.lists(p);
            let lead = rels
                .iter()
                .map(|&r| (relations[r as usize].candidates.len(), r))
                .min();
            (lead, p)
        })
        .collect();
    order.sort_unstable();

    // 5. Search each part in turn over one state, keeping its first mapping:
    // the first part without one ends the search.
    let mut state = SearchState {
        theta,
        trail,
        unbound: Vec::new(),
        steps: 0,
        stop: None,
    };
    let mut part_relations: Vec<RelLit> = Vec::new();
    let mut part_constraints: Vec<&Literal> = Vec::new();
    let mut part_repairs: Vec<&RepairGroup> = Vec::new();
    let mut matched: Vec<bool> = Vec::new();
    for (_, p) in order {
        let [rels, constraints, repairs] = parts.lists(p);
        part_relations.clear();
        part_relations.extend(rels.iter().map(|&r| relations[r as usize]));
        part_constraints.clear();
        part_constraints.extend(constraints.iter().map(|&i| &clause.body[i as usize]));
        part_repairs.clear();
        part_repairs.extend(repairs.iter().map(|&g| &clause.repairs[g as usize]));
        matched.clear();
        matched.resize(part_relations.len(), false);
        let ctx = SearchCtx {
            clause,
            watches,
            relations: &part_relations,
            constraints: &part_constraints,
            repairs: &part_repairs,
            d,
            config,
            cancel,
        };
        if !search_relations(&ctx, &mut matched, 0, &mut state) {
            return (None, state.stop);
        }
    }
    (Some(state.theta), None)
}

/// Match the remaining relation literals, then hand the complete mapping to
/// [`finish_mapping`]. A mapping rejected by the constraint or repair phase
/// does not end the search: the relation search backtracks and offers the
/// next mapping, so the decision never depends on which mapping is
/// enumerated first. After every literal match the forward checks whose
/// last watched slot it bound run, and a failed one drops the branch.
fn search_relations(
    ctx: &SearchCtx,
    matched: &mut [bool],
    n_matched: usize,
    state: &mut SearchState,
) -> bool {
    if n_matched == ctx.relations.len() {
        return finish_mapping(ctx, state);
    }

    // Select the next literal: the unmatched literal with the fewest
    // candidates after pruning under the current θ, failing the node
    // outright when any unmatched literal has none (cheap fail-fast — that
    // literal could never be matched on this branch). At a part's first
    // node θ binds none of the part's slots yet, so the candidates found
    // under the head bindings are current, and none is empty.
    let (pick, candidates) = if n_matched == 0 {
        let pick = (0..ctx.relations.len())
            .min_by_key(|&i| ctx.relations[i].candidates.len())
            .expect("n_matched < relations.len() implies an unmatched literal");
        (pick, ctx.relations[pick].candidates)
    } else {
        let mut best: Option<(usize, &[u32])> = None;
        for (i, rel) in ctx.relations.iter().enumerate() {
            if matched[i] {
                continue;
            }
            let cands = ctx
                .d
                .candidates_pruned(rel.relation, rel.args, &state.theta);
            if cands.is_empty() {
                return false;
            }
            if best.is_none_or(|(_, b)| cands.len() < b.len()) {
                best = Some((i, cands));
            }
        }
        best.expect("n_matched < relations.len() implies an unmatched literal")
    };

    let args = ctx.relations[pick].args;
    matched[pick] = true;
    for &offset in candidates {
        if !state.charge(ctx.config, ctx.cancel) {
            matched[pick] = false;
            return false;
        }
        let mark = state.trail.len();
        let d_args = ctx.d.literal(offset, args.len());
        if match_args(args, d_args, &mut state.theta, &mut state.trail) {
            if forward_checks_hold(ctx, state, mark)
                && search_relations(ctx, matched, n_matched + 1, state)
            {
                return true;
            }
            uncount_bindings(ctx.watches, state, mark);
        }
        unwind(&mut state.theta, &mut state.trail, mark);
    }
    matched[pick] = false;
    false
}

/// Count the bindings made since `mark` against the checks watching them,
/// and run every check whose last unbound watched slot they bound. Every
/// binding is counted even after a check fails, so [`uncount_bindings`] can
/// restore the counts exactly.
fn forward_checks_hold(ctx: &SearchCtx, state: &mut SearchState, mark: usize) -> bool {
    if ctx.watches.checks.is_empty() {
        return true;
    }
    if state.unbound.is_empty() {
        // The first literal match of the search: every watched slot is
        // still unbound. (Most searches fail before matching anything, so
        // they never pay for the counts.)
        state.unbound.extend_from_slice(&ctx.watches.watched);
    }
    let mut ok = true;
    for &v in &state.trail[mark..] {
        for &ci in ctx.watches.watching(v) {
            let unbound = &mut state.unbound[ci as usize];
            *unbound -= 1;
            if *unbound == 0 && ok {
                ok = ctx.watches.checks[ci as usize].holds(ctx.clause, &state.theta, ctx.d);
            }
        }
    }
    ok
}

/// Undo [`forward_checks_hold`]'s counting of the bindings made since
/// `mark`, before they are unwound.
fn uncount_bindings(watches: &Watches, state: &mut SearchState, mark: usize) {
    if watches.checks.is_empty() {
        return;
    }
    for &v in &state.trail[mark..] {
        for &ci in watches.watching(v) {
            state.unbound[ci as usize] += 1;
        }
    }
}

/// A part of the final phase that the relation search runs early (see the
/// module docs): it holds for every mapping the final phase accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// The `≈`, `=` or `≠` literal at this body index; all its variables are
    /// relational.
    Constraint(usize),
    /// Replacement `index` of repair group `group`; its replaced variable is
    /// relational.
    Replacement { group: usize, index: usize },
}

impl Check {
    /// Run the check on `clause` (the renumbered candidate) under θ, which
    /// binds every slot the check watches.
    fn holds(self, clause: &Clause, theta: &FlatSubstitution, d: &GroundClause) -> bool {
        match self {
            Check::Constraint(i) => match &clause.body[i] {
                Literal::Similar(a, b) => {
                    d.related(PairKind::Similar, theta.apply(a), theta.apply(b))
                }
                Literal::Equal(a, b) => d.related(PairKind::Equal, theta.apply(a), theta.apply(b)),
                Literal::NotEqual(a, b) => d.unequal(theta.apply(a), theta.apply(b)),
                Literal::Relation { .. } => unreachable!("relation literals are matched"),
            },
            Check::Replacement { group, index } => {
                let g = &clause.repairs[group];
                let (x, t) = &g.replacements[index];
                // A target only the repair phase binds may take any fact's.
                let dt = match t {
                    Term::Const(_) => Some(*t),
                    Term::Var(v) => theta.get(*v).copied(),
                };
                d.has_repair_fact(g.origin, theta.apply(&Term::Var(*x)), dt)
            }
        }
    }
}

/// The forward checks of a renumbered candidate clause and, per variable
/// slot, the checks watching it. Built once by [`NumberedClause::new`].
///
/// Only slots the relation search binds are watched: a slot of a relation
/// literal that is not a head variable (the head binds its variables before
/// the search starts). A check watching no slot is settled by the head.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Watches {
    checks: Vec<Check>,
    /// Per check, how many slots it watches: all unbound when the relation
    /// search starts.
    watched: Vec<u32>,
    /// The checks watching slot `s`, in check order, are list `s` of the
    /// [`lay_out`] of `by_slot` and `ends`. Both are empty when there are no
    /// checks.
    by_slot: Vec<u32>,
    ends: Vec<u32>,
}

impl Watches {
    /// The forward checks of `clause`, whose variables are `0..var_count`.
    pub(crate) fn new(clause: &Clause, var_count: usize) -> Watches {
        if clause.repairs.is_empty() && clause.body.iter().all(Literal::is_relation) {
            return Watches::default();
        }
        let mut in_head = vec![false; var_count];
        let mut relational = vec![false; var_count];
        for t in clause.head.terms() {
            if let Term::Var(v) = t {
                in_head[v.0 as usize] = true;
                relational[v.0 as usize] = true;
            }
        }
        for t in clause
            .body
            .iter()
            .filter(|l| l.is_relation())
            .flat_map(Literal::terms)
        {
            if let Term::Var(v) = t {
                relational[v.0 as usize] = true;
            }
        }
        let known = |t: &Term| t.as_var().is_none_or(|v| relational[v.0 as usize]);

        let mut checks = Vec::new();
        let mut watched = Vec::new();
        // The (watched slot, check id) pairs, in check order.
        let mut slots: Vec<u32> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut watch = |check: Check, terms: &[&Term]| {
            let id = checks.len() as u32;
            checks.push(check);
            let before = slots.len();
            for v in terms.iter().filter_map(|t| t.as_var()) {
                if !in_head[v.0 as usize] && !slots[before..].contains(&v.0) {
                    slots.push(v.0);
                    ids.push(id);
                }
            }
            watched.push((slots.len() - before) as u32);
        };
        for (i, lit) in clause.body.iter().enumerate() {
            let (Literal::Similar(a, b) | Literal::Equal(a, b) | Literal::NotEqual(a, b)) = lit
            else {
                continue;
            };
            if known(a) && known(b) {
                watch(Check::Constraint(i), &[a, b]);
            }
        }
        for (group, g) in clause.repairs.iter().enumerate() {
            for (index, (x, t)) in g.replacements.iter().enumerate() {
                if relational[x.0 as usize] {
                    let x = Term::Var(*x);
                    let terms: &[&Term] = if known(t) { &[&x, t] } else { &[&x] };
                    watch(Check::Replacement { group, index }, terms);
                }
            }
        }

        let (by_slot, ends) = lay_out(var_count, &slots, ids);
        Watches {
            checks,
            watched,
            by_slot,
            ends,
        }
    }

    /// The checks watching slot `v`. Only called when there are checks.
    fn watching(&self, v: Var) -> &[u32] {
        let (start, end) = span(&self.ends, v.0 as usize);
        &self.by_slot[start as usize..end as usize]
    }
}

/// The independent parts of a renumbered candidate clause (see the module
/// docs), as lists of item indices per part. Built once by
/// [`NumberedClause::new`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Parts {
    /// Per part, in order of first appearance over the body literals and
    /// then the repair groups: the part's relation literals (as positions
    /// among the body's relation literals), its `≈`/`=`/`≠` literals (as body
    /// indices) and its repair groups (as group indices), each in clause
    /// order.
    items: Vec<u32>,
    /// Where each list ends in `items` ([`lay_out`]): part `p`'s three lists
    /// are lists `3p`, `3p + 1` and `3p + 2`.
    ends: Vec<u32>,
}

impl Parts {
    /// The parts of `clause`, whose variables are `0..var_count` with the
    /// head's numbered first (as [`NumberedClause::new`] numbers them).
    pub(crate) fn new(clause: &Clause, var_count: usize) -> Parts {
        // The head match binds the head's slots, so they link nothing.
        let free = clause
            .head
            .terms()
            .filter_map(Term::as_var)
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0);
        // A union–find over the slots merges the free slots of each item: a
        // body literal's arguments, or a repair group's replaced variables
        // and replacement terms (the search reads nothing else of a group).
        // `part` holds each item's first free slot meanwhile.
        let mut sets = UnionFind::new(var_count);
        let mut part = Vec::with_capacity(clause.body.len() + clause.repairs.len());
        for l in &clause.body {
            part.push(link(&mut sets, free, l.terms().filter_map(Term::as_var)));
        }
        for g in &clause.repairs {
            let vars = g
                .replacements
                .iter()
                .flat_map(|(x, t)| std::iter::once(*x).chain(t.as_var()));
            part.push(link(&mut sets, free, vars));
        }
        // Each item takes the part of its set, numbered in order of first
        // appearance; an item without a free slot is a part by itself.
        let mut label: Vec<Option<u32>> = vec![None; var_count];
        let mut count = 0;
        for slot in &mut part {
            let set = (*slot != NO_SLOT).then(|| sets.find(*slot) as usize);
            *slot = match set.and_then(|r| label[r]) {
                Some(p) => p,
                None => {
                    if let Some(r) = set {
                        label[r] = Some(count);
                    }
                    count += 1;
                    count - 1
                }
            };
        }

        // Lay the items out part by part, `part` giving the part of body
        // literal `i` at `i` and of repair group `g` at `body.len() + g`.
        // Part `p`'s relation literals, other body literals and repair
        // groups are lists `3p`, `3p + 1` and `3p + 2`.
        let body = clause.body.len();
        let kind = |item: usize| match clause.body.get(item) {
            Some(l) if l.is_relation() => 0,
            Some(_) => 1,
            None => 2,
        };
        for (item, p) in part.iter_mut().enumerate() {
            *p = 3 * *p + kind(item);
        }
        let mut relations = 0;
        let values = (0..part.len()).map(|item| match kind(item) {
            0 => {
                relations += 1;
                relations - 1
            }
            1 => item as u32,
            _ => (item - body) as u32,
        });
        let (items, ends) = lay_out(3 * count as usize, &part, values);
        Parts { items, ends }
    }

    /// The number of parts.
    pub(crate) fn len(&self) -> usize {
        self.ends.len() / 3
    }

    /// Part `p`'s relation literals (positions among the body's relation
    /// literals), `≈`/`=`/`≠` literals (body indices) and repair groups
    /// (group indices), each in clause order.
    pub(crate) fn lists(&self, p: usize) -> [&[u32]; 3] {
        [0, 1, 2].map(|kind| {
            let (start, end) = span(&self.ends, 3 * p + kind);
            &self.items[start as usize..end as usize]
        })
    }
}

/// Lists laid out back to back by counting, the layout of
/// [`GroundClause`]'s candidate lists, of [`Parts`] and of [`Watches`]:
/// item `i` joins list `keys[i]` with the `i`-th of `values`, and each list
/// keeps its items in order. Each list's count becomes its start, and
/// placing an item advances it, so the starts end as the lists' ends.
/// Returns the items and the ends of the `count` lists; [`span`] reads a
/// list's range back.
fn lay_out(
    count: usize,
    keys: &[u32],
    values: impl IntoIterator<Item = u32>,
) -> (Vec<u32>, Vec<u32>) {
    let mut ends = vec![0u32; count];
    for &key in keys {
        ends[key as usize] += 1;
    }
    let mut start = 0;
    for end in &mut ends {
        let len = *end;
        *end = start;
        start += len;
    }
    let mut items = vec![0u32; keys.len()];
    for (&key, value) in keys.iter().zip(values) {
        let end = &mut ends[key as usize];
        items[*end as usize] = value;
        *end += 1;
    }
    (items, ends)
}

/// Where list `k` of a [`lay_out`] lies in its items, given the lists'
/// ends: it starts where list `k - 1` ends.
fn span(ends: &[u32], k: usize) -> Span {
    (k.checked_sub(1).map_or(0, |j| ends[j]), ends[k])
}

/// Marks an item without a free slot while [`Parts::new`] links.
const NO_SLOT: u32 = u32::MAX;

/// Merge the sets of the slots `vars` at or above `free`, and return the
/// first such slot ([`NO_SLOT`] when there is none).
fn link(sets: &mut UnionFind, free: u32, vars: impl Iterator<Item = Var>) -> u32 {
    let mut first = NO_SLOT;
    for v in vars.filter(|v| v.0 >= free) {
        if first == NO_SLOT {
            first = v.0;
        } else {
            sets.union(first, v.0);
        }
    }
    first
}

/// Check the constraint literals and repair groups against a complete
/// relation mapping. Every binding this makes goes on the trail. So when it
/// rejects the mapping, the relation search's unwind after the last literal
/// match drops these bindings with that match's, and the search goes on with
/// the next mapping; a part without relation literals has no next mapping,
/// and its rejection ends the search.
fn finish_mapping(ctx: &SearchCtx, state: &mut SearchState) -> bool {
    check_constraints(ctx.constraints, state, ctx.d)
        && match_repairs(ctx.repairs, 0, 0, ctx.d, state, ctx.config, ctx.cancel)
}

/// Verify (and where necessary bind) the non-relation literals of `C`.
fn check_constraints(lits: &[&Literal], state: &mut SearchState, d: &GroundClause) -> bool {
    let SearchState { theta, trail, .. } = state;
    for lit in lits {
        match lit {
            Literal::Similar(a, b) => {
                if !check_pair(theta, trail, d, a, b, PairKind::Similar) {
                    return false;
                }
            }
            Literal::Equal(a, b) => {
                if !check_pair(theta, trail, d, a, b, PairKind::Equal) {
                    return false;
                }
            }
            Literal::NotEqual(a, b) => {
                if !d.unequal(theta.apply(a), theta.apply(b)) {
                    return false;
                }
            }
            Literal::Relation { .. } => unreachable!("relation literals are matched separately"),
        }
    }
    true
}

#[derive(Clone, Copy, PartialEq)]
enum PairKind {
    Similar,
    Equal,
}

/// Test a `≈` (`kind` [`PairKind::Similar`]) or `=` literal between `a` and
/// `b`, binding each of them that is still an unbound variable. The bindings
/// go through [`match_term`], so they land on `trail`.
fn check_pair(
    theta: &mut FlatSubstitution,
    trail: &mut Vec<Var>,
    d: &GroundClause,
    a: &Term,
    b: &Term,
    kind: PairKind,
) -> bool {
    let pairs = d.pairs(kind);
    let ta = theta.apply(a);
    let tb = theta.apply(b);
    let a_bound = ta.is_const() || a.as_var().map(|v| theta.get(v).is_some()).unwrap_or(true);
    let b_bound = tb.is_const() || b.as_var().map(|v| theta.get(v).is_some()).unwrap_or(true);
    match (a_bound, b_bound) {
        (true, true) => d.related(kind, ta, tb),
        (true, false) => {
            // Bind b to the smallest partner of a (the pairs are sorted),
            // or else make them equal.
            let first = pairs.partition_point(|&(x, _)| x < ta);
            let partner = match pairs.get(first) {
                Some(&(x, y)) if x == ta => y,
                _ => ta,
            };
            match_term(b, &partner, theta, trail)
        }
        (false, true) => check_pair(theta, trail, d, b, a, kind),
        (false, false) => {
            // Both unbound: bind them to the first pair available, or to each
            // other when the pair set is empty.
            let sentinel = Term::var(u32::MAX);
            let (x, y) = pairs.first().copied().unwrap_or((sentinel, sentinel));
            match_term(a, &x, theta, trail) && match_term(b, &y, theta, trail)
        }
    }
}

/// Match every repair group of `C` against the repair facts of `D`
/// (Definition 4.4, first condition: repair literals are treated as ordinary
/// literals under θ), from replacement `ri` of group `group` on: each
/// replacement `(x, t)` of a group needs some repair fact of the group's
/// origin. The groups and their replacements form one search, so a
/// replacement that finds no fact backtracks into every earlier choice,
/// those of earlier groups included: two groups may share a replacement
/// target that only this phase binds.
fn match_repairs(
    groups: &[&RepairGroup],
    group: usize,
    ri: usize,
    d: &GroundClause,
    state: &mut SearchState,
    config: &SubsumptionConfig,
    cancel: Option<&CancelToken>,
) -> bool {
    let Some(g) = groups.get(group) else {
        return true;
    };
    let Some((x, t)) = g.replacements.get(ri) else {
        return match_repairs(groups, group + 1, 0, d, state, config, cancel);
    };
    let x_term = Term::Var(*x);
    for (origin, dx, dt) in &d.repair_facts {
        if !state.charge(config, cancel) {
            return false;
        }
        if *origin != g.origin {
            continue;
        }
        let mark = state.trail.len();
        if match_term(&x_term, dx, &mut state.theta, &mut state.trail)
            && match_term(t, dt, &mut state.theta, &mut state.trail)
            && match_repairs(groups, group, ri + 1, d, state, config, cancel)
        {
            return true;
        }
        unwind(&mut state.theta, &mut state.trail, mark);
    }
    false
}

/// Bindings of the head of a renumbered candidate clause against the head
/// of a ground clause. Returns `None` when the heads cannot unify.
pub fn head_bindings(c: &NumberedClause, d: &GroundClause) -> Option<FlatSubstitution> {
    let mut theta = c.fresh_substitution();
    let mut trail = Vec::new();
    if match_literal(&c.clause().head, d.head(), &mut theta, &mut trail) {
        Some(theta)
    } else {
        None
    }
}

/// Extend a set of partial substitutions with one more literal of the
/// candidate clause, against the ground clause `d`. Used by the
/// generalization algorithm to detect blocking literals incrementally.
/// `lit` must be a literal of the renumbered clause the bindings were
/// created for.
///
/// The result is capped at `cap` substitutions; an empty result means the
/// literal is *blocking* for every current binding.
pub fn extend_bindings(
    lit: &Literal,
    bindings: &[FlatSubstitution],
    d: &GroundClause,
    cap: usize,
) -> Vec<FlatSubstitution> {
    let mut out: Vec<FlatSubstitution> = Vec::new();
    let mut trail: Vec<Var> = Vec::new();
    for theta in bindings {
        match lit {
            Literal::Relation { relation, args } => {
                for &offset in d.candidates_pruned(*relation, args, theta) {
                    let mut candidate = theta.clone();
                    trail.clear();
                    let d_args = d.literal(offset, args.len());
                    if match_args(args, d_args, &mut candidate, &mut trail) {
                        out.push(candidate);
                        if out.len() >= cap {
                            return out;
                        }
                    }
                }
            }
            Literal::Similar(a, b) => {
                let mut candidate = theta.clone();
                trail.clear();
                if check_pair(&mut candidate, &mut trail, d, a, b, PairKind::Similar) {
                    out.push(candidate);
                }
            }
            Literal::Equal(a, b) => {
                let mut candidate = theta.clone();
                trail.clear();
                if check_pair(&mut candidate, &mut trail, d, a, b, PairKind::Equal) {
                    out.push(candidate);
                }
            }
            Literal::NotEqual(a, b) => {
                if d.unequal(theta.apply(a), theta.apply(b)) {
                    out.push(theta.clone());
                }
            }
        }
        if out.len() >= cap {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::CondAtom;
    use crate::term::Var;

    /// The witness of `c` against `d`, renumbering `c` on the fly; the
    /// decision view must agree with it.
    fn theta(c: &Clause, d: &GroundClause, config: &SubsumptionConfig) -> Option<Substitution> {
        let numbered = NumberedClause::new(c);
        let found = witness(&numbered, d, config);
        assert_eq!(
            subsumes(&numbered, d, config, None).is_yes(),
            found.is_some()
        );
        found
    }

    /// D: highGrossing(v0) ← movies(v1, v2, v3), mov2genres(v1, 'comedy'),
    ///                        v0 ≈ v2, with an MD repair unifying v0 and v2.
    fn ground_clause() -> GroundClause {
        GroundClause::new(&ground_source())
    }

    /// The clause [`ground_clause`] indexes.
    fn ground_source() -> Clause {
        let mut d = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        d.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(2), Term::var(3)],
        ));
        d.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        d.push_unique(Literal::Similar(Term::var(0), Term::var(2)));
        d.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(0), Term::var(2))],
            vec![(Var(0), Term::var(9)), (Var(2), Term::var(9))],
            vec![Literal::Similar(Term::var(0), Term::var(2))],
        ));
        d
    }

    #[test]
    fn debug_form_tells_apart_clauses_that_differ_in_one_fact() {
        // The delta oracle compares ground clauses through their Debug form:
        // equal clauses must print alike, and one changed argument, pair or
        // repair fact must show.
        let d = ground_source();
        let dump = |c: &Clause| format!("{:?}", GroundClause::new(c));
        assert_eq!(dump(&d), dump(&d.clone()));
        let mut argument = d.clone();
        argument.body[1] =
            Literal::relation("mov2genres", vec![Term::var(1), Term::constant("drama")]);
        let mut pair = d.clone();
        pair.body[2] = Literal::Similar(Term::var(0), Term::var(3));
        let mut fact = d.clone();
        fact.repairs[0].replacements[1].1 = Term::var(8);
        for (what, changed) in [("argument", argument), ("pair", pair), ("fact", fact)] {
            assert_ne!(dump(&d), dump(&changed), "one changed {what} does not show");
        }
    }

    #[test]
    fn identical_structure_subsumes() {
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(10)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(11), Term::var(12), Term::var(13)],
        ));
        c.push_unique(Literal::Similar(Term::var(10), Term::var(12)));
        let d = ground_clause();
        let theta = theta(&c, &d, &SubsumptionConfig::default());
        assert!(theta.is_some());
        let theta = theta.unwrap();
        assert_eq!(theta.apply(&Term::var(10)), Term::var(0));
        assert_eq!(theta.apply(&Term::var(12)), Term::var(2));
    }

    #[test]
    fn constant_mismatch_blocks_subsumption() {
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(1), Term::constant("drama")],
        ));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_none());
    }

    #[test]
    fn matching_constant_subsumes() {
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(1), Term::constant("comedy")],
        ));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_some());
    }

    #[test]
    fn different_head_relation_never_subsumes() {
        let c = Clause::new(Literal::relation("other", vec![Term::var(0)]));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_none());
    }

    #[test]
    fn missing_relation_blocks_subsumption() {
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "mov2countries",
            vec![Term::var(1), Term::var(2)],
        ));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_none());
    }

    #[test]
    fn arity_mismatch_blocks_subsumption() {
        // Same relation name, wrong arity: the (RelId, arity) bucket lookup
        // must rule it out.
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(2)],
        ));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_none());
    }

    #[test]
    fn similarity_literal_requires_a_similar_pair_in_d() {
        // v10 ≈ v11 where v10 maps to v0 (head) and v11 maps to v3 (year):
        // D has no such similarity pair, so subsumption must fail.
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(10)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(11), Term::var(12), Term::var(13)],
        ));
        c.push_unique(Literal::Similar(Term::var(10), Term::var(13)));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_none());
    }

    #[test]
    fn repair_group_in_c_matches_repair_fact_in_d() {
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(10)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(11), Term::var(12), Term::var(13)],
        ));
        c.push_unique(Literal::Similar(Term::var(10), Term::var(12)));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![CondAtom::Sim(Term::var(10), Term::var(12))],
            vec![(Var(10), Term::var(20)), (Var(12), Term::var(20))],
            vec![Literal::Similar(Term::var(10), Term::var(12))],
        ));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_some());

        // A repair from a different constraint cannot be matched.
        let mut c2 = c.clone();
        c2.repairs[0].origin = RepairOrigin::Md(3);
        assert!(theta(&c2, &d, &SubsumptionConfig::default()).is_none());
    }

    #[test]
    fn a_repair_group_backtracks_over_a_partially_matching_fact() {
        // D: t(v0) ← r0(v1) with two same-origin repair groups:
        //   g0 replaces v1 by 'p', g1 replaces v2 by 'q'.
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        d.push_unique(Literal::relation("r0", vec![Term::var(1)]));
        d.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![],
            vec![(Var(1), Term::constant("p"))],
            vec![],
        ));
        d.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![],
            vec![(Var(2), Term::constant("q"))],
            vec![],
        ));
        let g = GroundClause::new(&d);

        // C carries one repair group whose first replacement matches g0's
        // fact, binding v12 = v1 and v13 = 'p', after which its second
        // replacement finds no fact; the group must drop both bindings and
        // succeed entirely through g1.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(10)]));
        c.push_unique(Literal::relation("r0", vec![Term::var(11)]));
        c.push_repair(RepairGroup::new(
            RepairOrigin::Md(0),
            vec![],
            vec![(Var(12), Term::var(13)), (Var(12), Term::constant("q"))],
            vec![],
        ));
        let theta = theta(&c, &g, &SubsumptionConfig::default()).expect("g1 matches the group");
        assert_eq!(theta.apply(&Term::var(13)), Term::constant("q"));
    }

    #[test]
    fn a_constraint_literal_joins_the_parts_it_bridges() {
        // C: t(x) ← a(x, y), b(z), y ≈ z. The ≈ literal links the a and b
        // literals into one part; searched on its own, before either binds
        // y or z, it would bind them to D's first similar pair (v1, v2), and
        // a(c0, v1) does not exist.
        let mut c = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        c.push_unique(Literal::relation("a", vec![Term::var(0), Term::var(1)]));
        c.push_unique(Literal::relation("b", vec![Term::var(2)]));
        c.push_unique(Literal::Similar(Term::var(1), Term::var(2)));
        let c0 = Term::constant("c0");
        let mut d = Clause::new(Literal::relation("t", vec![c0]));
        d.push_unique(Literal::relation("a", vec![c0, Term::var(5)]));
        d.push_unique(Literal::relation("b", vec![Term::var(6)]));
        d.push_unique(Literal::relation("b", vec![Term::var(7)]));
        d.push_unique(Literal::Similar(Term::var(1), Term::var(2)));
        d.push_unique(Literal::Similar(Term::var(5), Term::var(7)));
        let theta = theta(&c, &GroundClause::new(&d), &SubsumptionConfig::default())
            .expect("y = v5 and z = v7 embed C");
        assert_eq!(theta.apply(&Term::var(2)), Term::var(7));
    }

    #[test]
    fn extend_bindings_detects_blocking_literals() {
        let d = ground_clause();
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(10)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(11), Term::var(12), Term::var(13)],
        ));
        // A literal whose relation does not exist in D blocks every binding.
        c.push_unique(Literal::relation(
            "mov2releasedate",
            vec![Term::var(11), Term::var(14)],
        ));
        // A genre literal with the wrong constant also blocks.
        c.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(11), Term::constant("drama")],
        ));
        c.push_unique(Literal::relation(
            "mov2genres",
            vec![Term::var(11), Term::constant("comedy")],
        ));
        let numbered = NumberedClause::new(&c);
        let body = &numbered.clause().body;
        let start = vec![head_bindings(&numbered, &d).unwrap()];
        let after_movies = extend_bindings(&body[0], &start, &d, 16);
        assert_eq!(after_movies.len(), 1);
        assert!(extend_bindings(&body[1], &after_movies, &d, 16).is_empty());
        assert!(extend_bindings(&body[2], &after_movies, &d, 16).is_empty());
        assert_eq!(extend_bindings(&body[3], &after_movies, &d, 16).len(), 1);
    }

    #[test]
    fn two_c_variables_may_map_to_the_same_d_term() {
        // θ-subsumption does not require injectivity.
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(1), Term::var(2), Term::var(3)],
        ));
        c.push_unique(Literal::relation(
            "movies",
            vec![Term::var(4), Term::var(5), Term::var(6)],
        ));
        let d = ground_clause();
        assert!(theta(&c, &d, &SubsumptionConfig::default()).is_some());
    }

    #[test]
    fn budget_exhaustion_reports_no_subsumption() {
        // Six movies literals, each a part of its own with one candidate:
        // one step each.
        let mut c = Clause::new(Literal::relation("highGrossing", vec![Term::var(0)]));
        for i in 0..6 {
            c.push_unique(Literal::relation(
                "movies",
                vec![Term::var(10 + i), Term::var(20 + i), Term::var(30 + i)],
            ));
        }
        let d = ground_clause();
        let numbered = NumberedClause::new(&c);
        let tiny = SubsumptionConfig { max_steps: 1 };
        assert_eq!(
            subsumes(&numbered, &d, &tiny, None),
            Decision::BudgetExhausted
        );
        assert!(theta(&c, &d, &tiny).is_none());
        let unbounded = SubsumptionConfig {
            max_steps: usize::MAX,
        };
        assert_eq!(subsumes(&numbered, &d, &unbounded, None), Decision::Yes);
    }

    #[test]
    fn positional_index_prunes_by_bound_variables() {
        // D has many same-relation literals; once v10 is bound through the
        // head, the pruned candidate list for p(v10, _) must be exactly the
        // literals whose first argument is v0.
        let mut d = Clause::new(Literal::relation("t", vec![Term::var(0)]));
        for i in 1..50 {
            d.push_unique(Literal::relation(
                "p",
                vec![Term::var(i), Term::var(i + 100)],
            ));
        }
        d.push_unique(Literal::relation("p", vec![Term::var(0), Term::var(200)]));
        let g = GroundClause::new(&d);

        let mut c = Clause::new(Literal::relation("t", vec![Term::var(10)]));
        c.push_unique(Literal::relation("p", vec![Term::var(10), Term::var(11)]));
        // The budget only admits a couple of candidate extensions: without
        // positional pruning the matcher would scan ~50 candidates for the
        // p-literal and could exhaust a small budget before reaching the
        // matching one; with pruning it tries exactly one.
        let tight = SubsumptionConfig { max_steps: 2 };
        let theta = theta(&c, &g, &tight).expect("pruned search must succeed in 2 steps");
        assert_eq!(theta.apply(&Term::var(11)), Term::var(200));
    }
}
