"""Graded narrowing and the four-rule equational unification calculus.

Narrowing replaces the matching of rewriting by unification, so terms with
variables can be reduced while their variables are instantiated.  The
calculus works on configurations  goal; constraints; substitution; degree
with four rules:

  LP   rewrite a non-variable subterm of the goal by a fresh rule variant,
       record the equation between the rule's left side and the replaced
       subterm (both under the current substitution), and multiply the
       degree by the grade of the position applied to the rule degree;
  SU   discharge the constraint set by a most general unifier, composing it
       onto the substitution;
  Cla  fail when the constraint set is not unifiable;
  Con  turn a goal equation into a constraint and set the goal to true.

The goal is never instantiated, which is exactly what makes every calculus
derivation basic: content introduced through the substitution is invisible
to LP.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .quantale import (
    CBE_ID,
    CarrierError,
    QuantaleValue,
    cbe_apply,
    cbe_compose,
    cbe_normalize,
    q_leq,
    q_tensor,
)
from .rewrite import GradedTrs, RewriteRule, TrsError, check_terms, check_threshold
from .term import (
    App,
    EQ_SYMBOL,
    FreshCounter,
    IDENTITY,
    Position,
    ROOT,
    Substitution,
    Term,
    TRUE_SYMBOL,
    Var,
    fresh_variant,
    fun_positions,
    grade_of_position,
    graded_subterms,
    instantiate,
    is_linear,
    is_prefix,
    iter_subterms,
    max_var_index,
    replace_at,
    subterm_at,
    vars_of,
)
from .unify import Bindings, Equation, mgu, resolve_all, unifiable, unifiable_variant

TRUE_TERM = App(TRUE_SYMBOL)


class NarrowError(ValueError):
    pass


class NonBasicStepError(NarrowError):
    pass


# ---------------------------------------------------------------------------
# Ordinary narrowing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NarrowStep:
    """One narrowing step: rewrite at a non-variable position through the
    most general unifier of the subterm with a fresh rule variant."""

    position: Position
    rule_index: int
    variant: RewriteRule
    unifier: Substitution
    degree: QuantaleValue
    result: Term


def narrowing_steps(trs: GradedTrs, t: Term, counter: FreshCounter) -> list[NarrowStep]:
    """All narrowing steps from t (TrsError unless t fits the signature),
    using rule variants fresh per candidate."""
    check_terms(trs.signature, (t,), "term")
    steps = []
    for p, sub, grade in graded_subterms(trs.signature, t):
        for i, rule in enumerate(trs.rules):
            lhs, rhs = fresh_variant((rule.lhs, rule.rhs), counter)
            unifier = mgu([(sub, lhs)])
            if not isinstance(unifier, Substitution):
                continue
            steps.append(NarrowStep(
                position=p,
                rule_index=i,
                variant=RewriteRule(rule.degree, lhs, rhs),
                unifier=unifier,
                degree=cbe_apply(grade, rule.degree),
                result=unifier.apply(replace_at(t, p, rhs)),
            ))
    return steps


def basic_update(basic: frozenset[Position], p: Position, rhs: Term,
                 require_basic: bool = True) -> frozenset[Position]:
    """Basic positions after a step at p with a rule whose right side is rhs:
    drop everything at or below p, then graft the non-variable skeleton of
    the (uninstantiated) right side."""
    if require_basic and p not in basic:
        raise NonBasicStepError(f"step at non-basic position {p}")
    kept = {q for q in basic if not is_prefix(p, q)}
    grafted = {p + q for q in fun_positions(rhs)}
    return frozenset(kept | grafted)


@dataclass(frozen=True)
class NarrowingDerivation:
    """A sequence of narrowing steps together with basic-position sets."""

    start: Term
    steps: tuple[NarrowStep, ...] = ()
    basics: tuple[frozenset[Position], ...] = ()

    def __post_init__(self):
        if not self.basics:
            object.__setattr__(self, "basics", (frozenset(fun_positions(self.start)),))

    @property
    def end(self) -> Term:
        return self.steps[-1].result if self.steps else self.start

    @property
    def is_basic(self) -> bool:
        return all(step.position in basic
                   for step, basic in zip(self.steps, self.basics))

    def substitution(self) -> Substitution:
        acc = IDENTITY
        for step in self.steps:
            acc = acc.compose(step.unifier)
        return acc

    def degree(self, quantale) -> QuantaleValue:
        acc = quantale.unit
        for step in self.steps:
            acc = q_tensor(acc, step.degree)
        return acc

    def extended(self, step: NarrowStep) -> "NarrowingDerivation":
        nxt = basic_update(self.basics[-1], step.position, step.variant.rhs,
                           require_basic=False)
        return NarrowingDerivation(self.start, self.steps + (step,),
                                   self.basics + (nxt,))


def derivations(trs: GradedTrs, t: Term, max_steps: int,
                basic_only: bool = False) -> Iterator[NarrowingDerivation]:
    """Every narrowing derivation from t of length at most max_steps,
    including the empty one; basic_only restricts steps to basic positions.
    A t that does not fit the signature raises TrsError, and a negative
    max_steps NarrowError, at the call."""
    check_terms(trs.signature, (t,), "start term")
    if max_steps < 0:
        raise NarrowError(f"max_steps must be non-negative, got {max_steps}")
    counter = FreshCounter(
        max_var_index([t] + [s for r in trs.rules for s in (r.lhs, r.rhs)]) + 1)

    def walk(deriv: NarrowingDerivation) -> Iterator[NarrowingDerivation]:
        yield deriv
        if len(deriv.steps) >= max_steps:
            return
        basic = deriv.basics[-1]
        for step in narrowing_steps(trs, deriv.end, counter):
            if basic_only and step.position not in basic:
                continue
            yield from walk(deriv.extended(step))

    return walk(NarrowingDerivation(t))


# ---------------------------------------------------------------------------
# The calculus.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BqTraceStep:
    """One applied calculus rule and the configuration it produced."""

    tag: str  # "LP" | "SU" | "Cla" | "Con"
    position: Optional[Position]
    rule_index: Optional[int]
    goal: Term
    constraints: frozenset[Equation]
    subst: Substitution
    degree: QuantaleValue


@dataclass(frozen=True)
class BqConfig:
    """A calculus configuration  goal; constraints; substitution; degree
    plus the log of rules applied to reach it."""

    goal: Term
    constraints: frozenset[Equation]
    subst: Substitution
    degree: QuantaleValue
    trace: tuple[BqTraceStep, ...] = ()

    def _advance(self, tag, position, rule_index, goal, constraints, subst, degree):
        entry = BqTraceStep(tag, position, rule_index, goal, constraints, subst, degree)
        return BqConfig(goal, constraints, subst, degree, self.trace + (entry,))


def initial_config(trs: GradedTrs, t: Term, s: Term) -> BqConfig:
    return BqConfig(App(EQ_SYMBOL, (t, s)), frozenset(), IDENTITY, trs.quantale.unit)


def _goal_is_equation(e: Term) -> bool:
    return isinstance(e, App) and e.symbol == EQ_SYMBOL and len(e.args) == 2


def bq_step(cfg: BqConfig, trs: GradedTrs,
            counter: FreshCounter) -> list[tuple[str, Optional[BqConfig]]]:
    """All applicable calculus rule instances; Cla yields (tag, None).

    Rule variants are drawn fresh from the counter per LP instance.  The
    goal is rewritten with the *uninstantiated* right side; only the
    recorded equation sees the current substitution.
    """
    out: list[tuple[str, Optional[BqConfig]]] = []
    e = cfg.goal
    if e != TRUE_TERM:
        for p, sub, grade in graded_subterms(trs.extended.signature, e):
            sub_inst = cfg.subst.apply(sub)
            for i, rule in enumerate(trs.rules):
                lhs, rhs = fresh_variant((rule.lhs, rule.rhs), counter)
                factor = cbe_apply(grade, rule.degree)
                nxt = cfg._advance(
                    "LP", p, i,
                    replace_at(e, p, rhs),
                    cfg.constraints | {(lhs, sub_inst)},
                    cfg.subst,
                    q_tensor(cfg.degree, factor),
                )
                out.append(("LP", nxt))
    if cfg.constraints:
        rho = mgu(cfg.constraints)
        if isinstance(rho, Substitution):
            out.append(("SU", cfg._advance(
                "SU", None, None, e, frozenset(), cfg.subst.compose(rho), cfg.degree)))
        else:
            out.append(("Cla", None))
    if e != TRUE_TERM and _goal_is_equation(e):
        left, right = e.args
        out.append(("Con", cfg._advance(
            "Con", None, None, TRUE_TERM,
            cfg.constraints | {(cfg.subst.apply(left), cfg.subst.apply(right))},
            cfg.subst, cfg.degree)))
    return out


# ---------------------------------------------------------------------------
# Canonical keys: configurations and solutions are compared after renaming
# the counter-issued variables in first-occurrence order, so search never
# re-expands a state that differs only in fresh names.
# ---------------------------------------------------------------------------


def canonical_subst(subst: Substitution) -> Substitution:
    renaming: dict[Var, Var] = {}

    def image(x: Var) -> Optional[Var]:
        if x.index == 0:
            return None
        v = renaming.get(x)
        if v is None:
            v = renaming[x] = Var("?", len(renaming) + 1)
        return v

    items = sorted(subst.items(), key=lambda kv: (kv[0].name, kv[0].index))
    return Substitution({x: instantiate(t, image) for x, t in items})


# ---------------------------------------------------------------------------
# Solving.
# ---------------------------------------------------------------------------


@dataclass
class Solution:
    """An emitted unifier with its degree, restricted to problem variables."""

    subst: Substitution
    degree: QuantaleValue
    trace: tuple[BqTraceStep, ...]
    dominated: bool = False

    def __str__(self):
        return f"solution {self.subst} degree {self.degree}"


@dataclass
class SolveResult:
    """The solutions of one `solve` call, why it stopped, and exact counts
    of its work, the same on both strategies, which search the same nodes.
    `states_keyed` counts the state keys computed, one per identified node,
    the start's included: `successors_built` + 1 under best-first, which
    identifies every node.  bfs leaves the nodes built at the step bound
    unidentified and merges one that repeats a state only while
    `max_configs` could still stop the search: elsewhere it is finished
    again, so `configs_expanded` and `frontier_peak` count it and
    `duplicates_merged` does not."""

    solutions: list[Solution]
    complete: bool
    stopped: str  # "exhausted" | "depth-limit" | "solution-limit" | "config-limit"
    configs_expanded: int = 0
    successors_built: int = 0  # nodes the successor function returned
    duplicates_merged: int = 0  # of those, dropped as already seen or superseded
    commuted_skipped: int = 0  # LP steps left to their commuted order
    threshold_pruned: int = 0  # LP candidates whose degree fell below the threshold
    clash_pruned: int = 0  # LP steps dropped by Cla
    frontier_peak: int = 0  # the most queued nodes at once
    states_keyed: int = 0  # state keys computed, the start's included


STRATEGIES = ("eager-su", "lazy")
ORDERS = ("bfs", "best-first")


# The search engine keeps substitutions in triangular form (see unify): a
# plain dict of bindings, extended copy-on-write and resolved on demand.  A
# node is its goal, its degree, its solved form and one frame per LP step,
# and both strategies build, key and merge the same nodes.  Each LP solves
# just its one new equation, between a fresh rule variant's left side and
# the redex, against a copy of the parent's solved form, which decides Cla
# without re-solving anything; the solver binds only variables unbound in
# that form, as rule variants are fresh, so nothing is rebound and
# resolution chains stay acyclic.  The variant is fixed by the rule and the
# first index the counter issues for it (`_lp_walk`), so the equation is
# solved in one walk of the rule's own left side (`unifiable_variant`),
# which binds as solving the built equation would, and only the variant's
# right side is built.  A frame records (rule, first index, redex) in place
# of the equation; its left side is rebuilt only where the trace of an
# emitted solution is written and for lazy's final `mgu`.  The strategy
# decides only when SU runs, so it is read only where a popped node is
# finished: eager's substitution is the solved form, as SU follows every LP,
# while lazy's is the identity until the one SU of `finish` discharges the
# frames' equations by `mgu`.  Idempotent substitutions are materialized
# only for emitted solutions.
#
# Everything the search memoizes lives in tables local to one `solve` call
# and dies with it:
#   - grades are interned as small ints; the grades of a symbol's argument
#     positions are memoized by (grade id, symbol), the LP degree factor by
#     (grade id, rule index);
#   - the degree step (tensor with a factor, then the threshold test) is
#     memoized by (degree, factor);
#   - the state key (`_state_key_function`) sorts the problem variables once.
# LP visits only rules whose left-side head matches the redex, from the
# system's own `GradedTrs.rules_by_head`, built once per system.
# Two states get equal keys exactly when their goals, degrees and resolved
# solved forms on the variables in scope (the goal's and the problem's)
# agree after fresh variables are renamed by first occurrence.  That fixes
# a lazy state as it fixes an eager one, though a lazy state's constraints
# also hold equations between variables out of scope:
#   - LP and Cla read only the goal, the degree and the solved form on the
#     redex's variables: the redex is a goal subterm, and its equation with
#     a fresh left side unifies against the solved form exactly when it
#     unifies with the redex resolved;
#   - the final SU, restricted to the problem variables, reads only the
#     solved form on the goal variables and the problem variables: staged
#     SUs give an mgu of the whole set (see below), so it is the solved form
#     composed with an mgu of the goal equation resolved.
# So two lazy nodes with equal keys have the same LP steps and reach the same
# solutions by them, up to renaming, as two eager nodes do.
#
# One table, `states`, maps each state key to the queue entry of its
# least-depth arrival.  Under best-first a shallower arrival may come after
# a deeper one was queued: it supersedes that entry, whose node is cleared
# and skipped at pop (counted as merged).  bfs pops by depth, so nothing is
# ever superseded there.  Nodes are never mutated once built: `successors`
# and `finish` copy `solved` first.
#
# A node at the step bound, a leaf, is finished and never expanded, and bfs
# pops every node below the bound before any leaf.  So bfs queues its
# leaves unidentified: a leaf that repeats a state only repeats that
# state's finish, which emits nothing new (nodes of one state finish alike,
# and the first trace is kept), so no solution, trace or stop point moves.
# `admit`, which identifies every other node as it is built, identifies a
# leaf as it pops only where its identity can change an outcome:
#   - while `max_configs` could still stop the search, that is while the
#     expanded count plus the queue reaches it, as only distinct states
#     count against the budget; a leaf that repeats a state is then merged.
#     That sum never rises while leaves pop, so once short it stays short;
#   - when the depth-cut probe fires on it: a leaf that repeats a recorded
#     state cut nothing, and one that repeats an unrecorded leaf gets that
#     leaf's answer from the probe, which reads only the state.
# Under best-first a shallower arrival may supersede a leaf, so leaves are
# identified as they are built there.  The commuted-step argument below
# reads only the states below the bound, every one of them identified.
#
# Independent LP steps are generated in one order only.  Two LP steps at
# disjoint positions commute: the goal is never instantiated, a step at p
# leaves the subterm and the grade at a disjoint q unchanged, and every
# quantale is commutative, so both orders reach the same goal and degree,
# with solved forms equal up to renaming.  Every queued node but the start
# came by an LP at some p, so it skips every LP candidate at a q disjoint
# from p that `lp_candidates` yields before p.
# That walk is preorder with children taken right to left, so q comes first
# when q > p as tuples and p is not a prefix of q (`successors`).
# This is exact:
#   - any derivation becomes one without a skipped adjacent pair, of equal
#     length and final state, by swapping such pairs; each swap removes one
#     inverted disjoint pair.  Its prefixes pass the threshold (the tensor
#     is deflationary) and unify (their equations are a subset of the
#     final ones), so the canonical derivation is one the search may take;
#   - `states` keeps one arrival per state below the bound, at its least
#     depth, and drops the others, which may skip other steps; no step is lost
#     (a leaf takes no step).  Write N.q for N followed by the LP at q.  Let N
#     be built by an LP at p from M, and let N skip an LP step q (q > p,
#     disjoint).  Disjoint steps commute, so N.q is M.q.p up to renaming.  q can
#     be built from M: the subterm and grade at q are the same there, the
#     threshold passes (the tensor is deflationary), and M.q's equations are a
#     subset of N.q's.  By induction on depth, some expanded node T with the
#     key of M.q exists at depth <= depth(N).  T builds p unless it skips p,
#     that is, unless T came by an LP at p' with p > p' disjoint; in that case
#     the argument repeats from T's parent, with p pending.  The pending
#     position strictly falls (q > p > p' > ...) in a finite set of positions,
#     so the chain ends.  So every state the unrestricted search reaches is
#     reached at the same least depth, whichever arrival `states` keeps;
#   - the depth-cut probe in `solve` stays unrestricted: a commuted step at the
#     bound still marks a branch the bound cut.
#
# Lazy search queues LP steps only; `finish` ends each popped node by
# Con and one SU.  An SU anywhere else reaches no other solution:
#   - SU changes neither goal nor degree, so no LP or Con candidate, grade,
#     factor or threshold test.  Dropping every SU from a derivation to a
#     solution, recording each LP equation as (lhs, redex) for (lhs,
#     sigma(redex)), and ending it by one SU keeps its LP steps, Con and LP
#     depth.  No prefix clashes (the original's substitution unifies every
#     equation), and `compatible` passes (the left side unifies with the
#     redex under the prefix's solved form, of which that substitution is an
#     instance);
#   - the final substitutions are equal.  With sigma1 = mgu(E1), sigma1
#     composed with mgu(sigma1(E2)) is an mgu of E1 and E2, so staged SUs
#     give an mgu of the whole set; the solver binds the fresher of two
#     variables, so a class of variables unified with each other resolves
#     to its least member by (index, name) in any order and staging, and the
#     resolved mgu is unique.  Fresh indices rise in step order along a
#     derivation in both searches, so `canonical_subst` renders alike;
#   - conversely LP steps, Con and SU form a lazy derivation.  Its LP steps,
#     each followed by an SU, form an eager one with the same solved forms,
#     so lazy search is eager search with another final SU and another
#     derivation written: both emit the same solutions, count the same work
#     and stop alike.


class _Node(NamedTuple):
    """Internal search state: the goal, the degree, the triangular solved
    form of every equation recorded so far, and one frame per LP step,
    (position, rule index, rule, first index, redex, goal, solved form,
    degree), from which `_node_trace` writes the derivation of an emitted
    solution.  The step's rule variant is the one `fresh_variant` draws
    from a counter at the first index (`_variant_lhs`); its equation is
    (left side of the variant, redex)."""

    goal: Term
    degree: QuantaleValue
    solved: Bindings
    frames: tuple = ()


def _variant_lhs(rule: RewriteRule, first: int) -> Term:
    """The left side of the rule variant whose indices start at `first`."""
    return fresh_variant((rule.lhs, rule.rhs), FreshCounter(first))[0]


def _rule_variables(rule: RewriteRule) -> tuple[tuple[Var, ...], bool]:
    """The rule's variables in the order `fresh_variant` numbers them (first
    occurrence over the left side, then the right side, left to right), and
    whether its left side is linear."""
    names = dict.fromkeys(v for side in (rule.lhs, rule.rhs)
                          for _, v in iter_subterms(side) if isinstance(v, Var))
    return tuple(names), is_linear(rule.lhs)


def _lp_walk(rule: RewriteRule, variables: tuple[tuple[Var, ...], bool], redex: Term,
             solved: Bindings, counter: FreshCounter) -> Optional[Term]:
    """One LP step's unification, in one walk: the right side of the rule
    variant the counter issues next, after extending `solved` in place by
    the variant's left side unified with the redex, or None on Cla (then
    `solved` holds a partial extension).  `variables` is `_rule_variables`
    of the rule.  The variant, the counter afterwards and the extension are
    those of `fresh_variant((rule.lhs, rule.rhs), counter)` followed by
    `unifiable`, clash or not, but the left variant is built only where a
    part of it gets bound."""
    names, linear = variables
    first = counter.value
    counter.value = first + len(names)
    renaming = {x: Var(x.name, first + k) for k, x in enumerate(names)}.__getitem__
    if not unifiable_variant(rule.lhs, renaming, linear, redex, solved):
        return None
    return instantiate(rule.rhs, renaming)


def _frame_equations(node: _Node) -> list[Equation]:
    return [(_variant_lhs(rule, first), sub)
            for _, _, rule, first, sub, _, _, _ in node.frames]


def _node_trace(node: _Node, final: Substitution, eager: bool) -> tuple[BqTraceStep, ...]:
    """The calculus derivation of a finished node, written from its frames
    and ended by Con on its goal equation and one SU to `final`.  On eager
    an SU follows every LP, and each LP records its equation under the
    substitution before it; on lazy the LP equations accumulate as
    constraints under the identity."""
    out = []
    subst = IDENTITY
    constraints: frozenset = frozenset()
    for (position, index, _, _, _, goal, solved, degree), (lhs, sub) in zip(
            node.frames, _frame_equations(node)):
        if eager:
            out.append(BqTraceStep("LP", position, index, goal,
                                   frozenset({(subst.apply(lhs), subst.apply(sub))}),
                                   subst, degree))
            subst = Substitution.trusted(resolve_all(solved))
            out.append(BqTraceStep("SU", None, None, goal, frozenset(), subst, degree))
        else:
            constraints = constraints | {(lhs, sub)}
            out.append(BqTraceStep("LP", position, index, goal, constraints, subst, degree))
    left, right = node.goal.args
    constraints = constraints | {(subst.apply(left), subst.apply(right))}
    out.append(BqTraceStep("Con", None, None, TRUE_TERM, constraints, subst, node.degree))
    out.append(BqTraceStep("SU", None, None, TRUE_TERM, frozenset(), final, node.degree))
    return tuple(out)


def _state_key_function(problem_vars: frozenset[Var]):
    """The state-key function of one solve call.  Two nodes are one state
    exactly when their keys are equal.  A key is the degree, then the goal
    in preorder (not resolved, as its skeleton decides where LP may fire;
    the signature fixes each symbol's argument count), then the solved form
    on the problem variables and the goal's, resolved.  A problem variable
    stands for itself, and fresh variables are renamed by first
    occurrence."""
    markers = [(x, ("=pv", x.name))
               for x in sorted(problem_vars, key=lambda v: (v.name, v.index))]

    def node_key(node: _Node) -> tuple:
        bindings = node.solved
        out: list = [node.degree]
        append = out.append
        slots: dict[Var, int] = {}
        order: list[Var] = []

        def emit_var(v: Var) -> None:
            if v.index == 0:
                append(v)
                return
            s = slots.get(v)
            if s is None:
                s = slots[v] = len(order)
                order.append(v)
            append(s)

        def emit_goal(t: App) -> None:
            append(t.symbol)
            for a in t.args:
                if isinstance(a, Var):
                    emit_var(a)
                elif a.args:
                    emit_goal(a)
                else:
                    append(a.symbol)

        def emit_resolved(t: Term) -> None:
            while isinstance(t, Var):
                nxt = bindings.get(t)
                if nxt is None:
                    emit_var(t)
                    return
                t = nxt
            append(t.symbol)
            append(len(t.args))
            for a in t.args:
                emit_resolved(a)

        emit_goal(node.goal)
        for x, marker in markers:
            if x in bindings:
                append(marker)
                emit_resolved(x)
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            if v in bindings:
                append(("=", slots[v]))
                emit_resolved(v)
        # each recursive helper holds itself through its closure: unbind both,
        # so this call's tables are freed now and not by the cycle collector
        emit_goal = emit_resolved = None
        return tuple(out)

    return node_key


_UNSEEN = object()


def solve(trs: GradedTrs, t: Term, s: Term,
          threshold: Optional[QuantaleValue] = None,
          strategy: str = "eager-su",
          order: str = "bfs",
          max_steps: int = 10,
          max_solutions: Optional[int] = None,
          max_configs: Optional[int] = None) -> SolveResult:
    """Search calculus derivations from  t =? s; {}; identity; unit.

    Every configuration reaching goal true with no constraints is emitted as
    a solution (substitution restricted to the problem variables).  The
    strategy schedules the four rules and differs only in when SU runs.
    Each LP checks its equation against the node's solved form (Cla), and
    each popped node is finished by Con and one SU on its goal equation;
    "eager-su" also runs SU right after every LP, while "lazy" collects the
    LP equations as constraints until that final SU.  So both strategies
    search the same nodes, count the same work and find the same solutions,
    and only the derivations of the solutions differ.  A threshold prunes
    configurations whose degree falls below it, and must be a degree of the
    system's quantale, or QuantaleMismatchError is raised before the search
    starts; max_steps bounds the number of LP applications on a branch.
    The order picks the queued configuration expanded next: "bfs" the one
    with the fewest LP steps, "best-first" the one with the best degree, and
    among equals the one queued first.  max_solutions=0 returns no solution;
    a negative bound, or a strategy or order not in STRATEGIES or ORDERS,
    raises NarrowError (a ValueError) before the search starts.
    max_configs bounds the distinct configurations expanded: the search
    stops at "config-limit" rather than expand one more.  bfs may also
    finish configurations at the step bound that repeat one, where the
    bound could no longer stop it; `configs_expanded` counts them.
    Configurations whose constraint set has no unifier are dropped the
    moment they arise (the clash rule cannot be outrun: constraint sets only
    grow).  Problem terms must use declared symbols with their declared
    argument counts and no reserved symbol, or TrsError is raised.
    """
    if trs.signature.is_extended:
        raise TrsError("solve expects the unextended system")
    check_terms(trs.signature, (t, s), "problem term")
    check_threshold(trs, threshold)
    if strategy not in STRATEGIES:
        raise NarrowError(f"unknown strategy {strategy!r}")
    if order not in ORDERS:
        raise NarrowError(f"unknown order {order!r}")
    for name, bound in (("max_steps", max_steps), ("max_solutions", max_solutions),
                        ("max_configs", max_configs)):
        if bound is not None and bound < 0:
            raise NarrowError(f"{name} must be non-negative, got {bound}")
    if max_solutions == 0:
        return SolveResult([], False, "solution-limit")

    quantale = trs.quantale
    problem_vars = frozenset(vars_of(t) | vars_of(s))
    counter = FreshCounter(
        max_var_index([t, s] + [x for r in trs.rules for x in (r.lhs, r.rhs)]) + 1)
    start = _Node(App(EQ_SYMBOL, (t, s)), quantale.unit, {})
    node_key = _state_key_function(problem_vars)

    goal_sig = trs.extended.signature
    rules_by_head = trs.rules_by_head
    rule_variables = [_rule_variables(rule) for rule in trs.rules]
    grades = [cbe_normalize(quantale, CBE_ID)]  # grade id -> CBE; 0 is the root's
    grade_ids = {grades[0]: 0}
    child_grades: dict[tuple[int, str], tuple[int, ...]] = {}
    factors: dict[tuple[int, int], QuantaleValue] = {}
    steps: dict[tuple[QuantaleValue, QuantaleValue], Optional[QuantaleValue]] = {}
    degrees = {start.degree: start.degree}  # one object per degree value

    def argument_grades(grade_id: int, symbol: str) -> tuple[int, ...]:
        ids = []
        for cbe in goal_sig.arity(symbol):
            grade = cbe_compose(quantale, grades[grade_id], cbe)
            gid = grade_ids.get(grade)
            if gid is None:
                gid = grade_ids[grade] = len(grades)
                grades.append(grade)
            ids.append(gid)
        return tuple(ids)

    def step(degree: QuantaleValue, factor: QuantaleValue) -> Optional[QuantaleValue]:
        """The degree after an LP step with this factor, or None when it
        falls below the threshold."""
        new_degree = steps.get((degree, factor), _UNSEEN)
        if new_degree is _UNSEEN:
            new_degree = q_tensor(degree, factor)
            if threshold is not None and not q_leq(threshold, new_degree):
                new_degree = None
            else:
                new_degree = degrees.setdefault(new_degree, new_degree)
            steps[degree, factor] = new_degree
        return new_degree

    def compatible(pattern: Term, t: Term, bindings: Bindings) -> bool:
        """Cheap refutation test: False means no instantiation can unify."""
        if isinstance(pattern, Var):
            return True
        while isinstance(t, Var):
            nxt = bindings.get(t)
            if nxt is None:
                return True
            t = nxt
        if pattern.symbol != t.symbol:
            return False
        for a, b in zip(pattern.args, t.args):
            if not compatible(a, b, bindings):
                return False
        return True

    def lp_candidates(node: _Node):
        """(position, rule index, rule, redex, degree factor); the position
        grade is accumulated along the traversal, and `compatible` compares
        each rule's left side with the redex under the node's solved form.
        It draws no fresh variant, so the depth-cut probe can call it without
        altering the fresh names of the search."""
        bindings = node.solved
        stack = [(ROOT, node.goal, 0)]
        while stack:
            p, sub, grade_id = stack.pop()
            args = sub.args
            if args:
                arg_grades = child_grades.get((grade_id, sub.symbol))
                if arg_grades is None:
                    arg_grades = child_grades[grade_id, sub.symbol] = \
                        argument_grades(grade_id, sub.symbol)
                for i, arg in enumerate(args):
                    if isinstance(arg, App):
                        stack.append((p + (i + 1,), arg, arg_grades[i]))
            for i, rule in rules_by_head.get(sub.symbol, ()):
                if not compatible(rule.lhs, sub, bindings):
                    continue
                factor = factors.get((grade_id, i))
                if factor is None:
                    factor = cbe_apply(grades[grade_id], rule.degree)
                    factor = factors[grade_id, i] = degrees.setdefault(factor, factor)
                yield p, i, rule, sub, factor

    emitted: dict[object, Solution] = {}
    expanded = built = merged = skipped = threshold_pruned = clash_pruned = 0
    frontier_peak = keyed = 1
    depth_cut = False
    stopped = "exhausted"
    eager = strategy == "eager-su"

    def successors(node: _Node) -> Iterator[_Node]:
        """The LP successors of a node.  LP steps that commute before the
        node's own last LP step are skipped."""
        nonlocal skipped, threshold_pruned, clash_pruned
        after = node.frames[-1][0] if node.frames else ROOT
        for p, i, rule, sub, factor in lp_candidates(node):
            new_degree = step(node.degree, factor)
            if new_degree is None:
                threshold_pruned += 1
                continue
            if after and p > after and p[:len(after)] != after:  # commutes before
                skipped += 1
                continue
            first = counter.value
            solved = dict(node.solved)
            rhs = _lp_walk(rule, rule_variables[i], sub, solved, counter)
            if rhs is None:
                clash_pruned += 1  # Cla fires on this configuration
                continue
            goal = replace_at(node.goal, p, rhs)
            frame = (p, i, rule, first, sub, goal, solved, new_degree)
            yield _Node(goal, new_degree, solved, node.frames + (frame,))

    def finish(node: _Node) -> None:
        """Con on the goal equation (no rule has the head =?), then one SU,
        emitted when the equation unifies with the node's solved form.  Eager
        takes that SU from the solved form, lazy from the mgu of its frames'
        equations and the goal equation."""
        solved = dict(node.solved)
        if not unifiable((node.goal.args,), solved):
            return
        if eager:
            final = Substitution.trusted(resolve_all(solved))
        else:
            final = mgu(_frame_equations(node) + [node.goal.args])
        restricted = canonical_subst(final.restrict(problem_vars))
        key = (restricted, node.degree)
        if key not in emitted:
            emitted[key] = Solution(restricted, node.degree, _node_trace(node, final, eager))

    def admit(entry: list) -> bool:
        """Record a queue entry as an arrival of its node's state; False when
        another arrival of the state is recorded at no greater depth.  A
        recorded deeper arrival is superseded."""
        nonlocal keyed
        depth, node = entry[2], entry[3]
        key = node_key(node)
        keyed += 1
        known = states.get(key)
        if known is not None:
            if known[2] <= depth:
                return False
            known[3] = None  # supersede the deeper arrival
        states[key] = entry
        return True

    # One frontier for both orders: a heap of [priority, arrival, depth, node]
    # entries.  `built` stamps arrivals, so equal priorities pop FIFO; a
    # superseded entry's node is None.  bfs queues the nodes built at the
    # step bound, its leaves, unidentified.
    by_depth = order == "bfs"
    # at max_steps=0 the only leaf is the start, identified below
    leaf_depth = max_steps if by_depth and max_steps else -1
    start_entry = [0 if by_depth else quantale.sort_key(start.degree), 0, 0, start]
    states = {node_key(start): start_entry}  # state key -> its recorded entry
    frontier = [start_entry]
    while frontier:
        entry = heapq.heappop(frontier)
        _, _, depth, node = entry
        if node is None:  # superseded by a shallower arrival of its state
            merged += 1
            continue
        # a leaf not yet identified; `admit` takes each leaf at most once
        unidentified = depth == leaf_depth
        if (unidentified and max_configs is not None
                and expanded + len(frontier) >= max_configs):
            # the budget may yet bind, and only distinct states count
            unidentified = False
            if not admit(entry):
                merged += 1
                continue
        if max_configs is not None and expanded >= max_configs:
            stopped = "config-limit"
            break
        expanded += 1
        finish(node)
        if max_solutions is not None and len(emitted) >= max_solutions:
            stopped = "solution-limit"
            break
        if depth >= max_steps:
            # at the bound LP successors would overrun it: build none, but
            # record whether the bound cut a branch where LP could fire within
            # the threshold (an over-approximation: a compatible redex/rule
            # pair may yet fail unification, and a step whose degree is past
            # the degree bound counts as firing); an unidentified leaf that
            # repeats a recorded state cuts nothing
            if not depth_cut:
                try:
                    depth_cut = any(step(node.degree, c[4]) is not None
                                    for c in lp_candidates(node))
                except CarrierError:
                    depth_cut = True
                if depth_cut and unidentified:
                    depth_cut = admit(entry)
            continue
        new_depth = depth + 1
        for nxt in successors(node):
            built += 1
            entry = [new_depth if by_depth else quantale.sort_key(nxt.degree),
                     built, new_depth, nxt]
            if new_depth != leaf_depth and not admit(entry):
                merged += 1
                continue
            heapq.heappush(frontier, entry)
            frontier_peak = max(frontier_peak, len(frontier))

    solutions = list(emitted.values())
    by_subst: dict[Substitution, list[Solution]] = {}
    for sol in solutions:
        by_subst.setdefault(sol.subst, []).append(sol)
    for group in by_subst.values():
        for sol in group:
            sol.dominated = any(
                other is not sol and q_leq(sol.degree, other.degree)
                and sol.degree != other.degree for other in group)
    solutions.sort(key=lambda sol: (quantale.sort_key(sol.degree), str(sol.subst)))
    if stopped == "exhausted" and depth_cut:
        stopped = "depth-limit"
    complete = stopped == "exhausted"
    return SolveResult(solutions, complete, stopped, expanded, built, merged, skipped,
                       threshold_pruned, clash_pruned, frontier_peak, keyed)


# ---------------------------------------------------------------------------
# Correspondence with basic narrowing.
# ---------------------------------------------------------------------------


def derivation_to_calculus(trs: GradedTrs,
                           derivation: NarrowingDerivation) -> list[BqConfig]:
    """Translate a basic narrowing derivation into the calculus, pairing
    every narrowing step with LP followed by SU (reusing the step's own
    unifier, which solves exactly the recorded constraint).

    Returns the configuration sequence; the final goal instantiated by the
    final substitution equals the derivation's end term, and its
    non-variable positions are the derivation's basic positions.
    """
    if not derivation.is_basic:
        raise NonBasicStepError("derivation is not basic")
    cfg = BqConfig(derivation.start, frozenset(), IDENTITY, trs.quantale.unit)
    configs = [cfg]
    for step in derivation.steps:
        e = cfg.goal
        constraint = (step.variant.lhs, cfg.subst.apply(subterm_at(e, step.position)))
        if step.unifier.apply(constraint[0]) != step.unifier.apply(constraint[1]):
            raise NarrowError("derivation unifier does not solve the LP constraint")
        factor = cbe_apply(grade_of_position(trs.extended.signature, e, step.position),
                           step.variant.degree)
        cfg = cfg._advance("LP", step.position, step.rule_index,
                           replace_at(e, step.position, step.variant.rhs),
                           cfg.constraints | {constraint},
                           cfg.subst, q_tensor(cfg.degree, factor))
        configs.append(cfg)
        cfg = cfg._advance("SU", None, None, cfg.goal, frozenset(),
                           cfg.subst.compose(step.unifier), cfg.degree)
        configs.append(cfg)
    final = configs[-1]
    if final.subst.apply(final.goal) != derivation.end:
        raise NarrowError("calculus replay does not reproduce the derivation")
    if frozenset(fun_positions(final.goal)) != derivation.basics[-1]:
        raise NarrowError("goal skeleton disagrees with the basic positions")
    return configs


def narrowing_solutions(trs: GradedTrs, t: Term, s: Term, max_steps: int,
                        basic_only: bool = False) -> set:
    """Unifiers found by plain narrowing on `t =? s` over the extended
    system: canonical (restricted substitution, degree) pairs of derivations
    reaching true within the step bound.  Both terms must fit the system's
    signature, or TrsError is raised; a negative max_steps raises
    NarrowError (from `derivations`, before the search)."""
    check_terms(trs.signature, (t, s), "problem term")
    problem_vars = vars_of(t) | vars_of(s)
    goal = App(EQ_SYMBOL, (t, s))
    out = set()
    for deriv in derivations(trs.extended, goal, max_steps, basic_only=basic_only):
        if deriv.end == TRUE_TERM:
            sigma = canonical_subst(deriv.substitution().restrict(problem_vars))
            out.add((sigma, deriv.degree(trs.quantale)))
    return out
