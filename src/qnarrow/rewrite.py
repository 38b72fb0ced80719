"""Graded term rewriting systems and the quantitative rewrite relation.

A rewrite step at position p with a rule of degree d contributes the degree
grade(p)(d), the rule degree amplified by the argument sensitivities along
the path to p.  Accumulated trace degrees combine by the quantale tensor
and can only move downward in the quantale order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterable, Optional

from .quantale import (QuantaleMismatchError, QuantaleValue, cbe_apply, cbe_equal,
                       q_leq, q_tensor)
from .term import (
    App,
    EQ_SYMBOL,
    FreshCounter,
    Position,
    RESERVED_SYMBOLS,
    Signature,
    Substitution,
    Term,
    TRUE_SYMBOL,
    Var,
    fresh_variant,
    grade_of_var,
    graded_subterms,
    is_ground,
    is_linear,
    is_prefix,
    iter_subterms,
    max_var_index,
    replace_at,
    vars_of,
)
from .unify import match


class TrsError(ValueError):
    pass


@dataclass(frozen=True)
class RewriteRule:
    """A rule `degree : lhs -> rhs` with the usual variable conditions."""

    degree: QuantaleValue
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if isinstance(self.lhs, Var):
            raise TrsError(f"rule left-hand side must not be a variable: {self.lhs}")
        if not vars_of(self.rhs) <= vars_of(self.lhs):
            raise TrsError(f"rule introduces variables on the right: {self}")

    def __str__(self):
        return f"{self.degree} : {self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class RuleAttributes:
    left_linear: bool
    right_linear: bool
    right_ground: bool
    balanced: bool


@dataclass(frozen=True)
class TrsReport:
    """The attributes of each rule, and of the system: those all rules have."""

    per_rule: tuple[RuleAttributes, ...]
    confluent_declared: bool
    left_linear: bool
    right_linear: bool
    right_ground: bool
    balanced: bool


class GradedTrs:
    """A finite set of degree-carrying rewrite rules over a graded signature.

    Confluence is a declared attribute, never verified here.
    """

    def __init__(self, signature: Signature, rules, confluent: bool = False):
        self.signature = signature
        self.rules = tuple(rules)
        self.confluent = confluent
        for rule in self.rules:
            if rule.degree.quantale is not signature.quantale:
                raise TrsError(f"rule degree {rule.degree} not in {signature.quantale.value}")

    @property
    def quantale(self):
        return self.signature.quantale

    @cached_property
    def rules_by_head(self) -> dict[str, tuple[tuple[int, RewriteRule], ...]]:
        """(rule index, rule) pairs keyed by the head symbol of the left
        side, in ascending rule order: only these rules can rewrite a
        subterm with that head (match and unifiable check argument counts)."""
        index: dict[str, list[tuple[int, RewriteRule]]] = {}
        for i, rule in enumerate(self.rules):
            index.setdefault(rule.lhs.symbol, []).append((i, rule))
        return {symbol: tuple(entries) for symbol, entries in index.items()}

    @cached_property
    def extended(self) -> "GradedTrs":
        """The joinability extension, whose signature grades calculus goals:
        adds `=?`, `true`, and the unit-degree rule rewriting `x =? x` to
        `true`.  A system already carrying them is its own extension."""
        if self.signature.is_extended:
            return self
        x = Var("x")
        join_rule = RewriteRule(self.quantale.unit, App(EQ_SYMBOL, (x, x)), App(TRUE_SYMBOL))
        return GradedTrs(self.signature.extend(), self.rules + (join_rule,), self.confluent)

    def __repr__(self):
        return f"GradedTrs({self.signature.quantale.value}, {len(self.rules)} rules)"


def check_trs(trs: GradedTrs) -> TrsReport:
    """Per-rule and global attribute report (linearity, groundness, balance).

    The mandatory variable conditions are enforced by the RewriteRule
    constructor; everything reported here is informational.
    """
    per_rule = []
    for rule in trs.rules:
        touched = vars_of(rule.lhs) | vars_of(rule.rhs)
        balanced = all(
            cbe_equal(
                trs.quantale,
                grade_of_var(trs.signature, rule.lhs, x),
                grade_of_var(trs.signature, rule.rhs, x),
            )
            for x in touched
        )
        per_rule.append(RuleAttributes(
            left_linear=is_linear(rule.lhs),
            right_linear=is_linear(rule.rhs),
            right_ground=is_ground(rule.rhs),
            balanced=balanced,
        ))
    system = (all(getattr(r, f.name) for r in per_rule) for f in fields(RuleAttributes))
    return TrsReport(tuple(per_rule), trs.confluent, *system)


def check_terms(signature: Signature, terms: Iterable[Term], where: str) -> None:
    """Raise TrsError unless every function symbol in the terms is declared
    in the signature with its declared argument count; `where` names the
    terms in the message."""
    for t in terms:
        for _, sub in iter_subterms(t):
            if not isinstance(sub, App):
                continue
            if not signature.has(sub.symbol):
                kind = "reserved" if sub.symbol in RESERVED_SYMBOLS else "undeclared"
                raise TrsError(f"{kind} symbol {sub.symbol!r} in {where}")
            arity = len(signature.arity(sub.symbol))
            if len(sub.args) != arity:
                raise TrsError(f"{sub.symbol!r} takes {arity} arguments, "
                               f"got {len(sub.args)} in {where}")


def check_threshold(trs: GradedTrs, threshold: Optional[QuantaleValue]) -> None:
    """Raise QuantaleMismatchError unless the threshold is None or a degree
    of the system's quantale."""
    if threshold is not None and threshold.quantale is not trs.quantale:
        raise QuantaleMismatchError(f"threshold {threshold} is not in {trs.quantale.value}")


@dataclass(frozen=True)
class RewriteStep:
    """One single-step rewrite: where, by which rule, and at what degree."""

    position: Position
    rule_index: int
    subst: Substitution
    degree: QuantaleValue
    result: Term


def rewrite_steps(trs: GradedTrs, s: Term) -> list[RewriteStep]:
    """The complete (finite) list of single-step rewrites from s, by
    position in left-to-right preorder, then by rule index.

    Only rules whose left side has the subterm's head symbol are tried,
    each on a fresh variant, so the fresh indices of the rule variables in
    a step's `subst` are unspecified.  s must fit the system's signature,
    or TrsError is raised."""
    check_terms(trs.signature, (s,), "term")
    rules_by_head = trs.rules_by_head
    counter = FreshCounter(max_var_index([s]) + 1)
    steps = []
    for p, sub, grade in graded_subterms(trs.signature, s):
        for i, rule in rules_by_head.get(sub.symbol, ()):
            lhs, rhs = fresh_variant((rule.lhs, rule.rhs), counter)
            matcher = match(lhs, sub)
            if matcher is None:
                continue
            steps.append(RewriteStep(
                position=p,
                rule_index=i,
                subst=matcher,
                degree=cbe_apply(grade, rule.degree),
                result=replace_at(s, p, matcher.apply(rhs)),
            ))
    return steps


def innermost_rewrite_steps(trs: GradedTrs, s: Term) -> list[RewriteStep]:
    """Steps whose redex has no redex strictly below it."""
    steps = rewrite_steps(trs, s)
    redexes = {st.position for st in steps}
    return [st for st in steps
            if not any(p != st.position and is_prefix(st.position, p) for p in redexes)]


Trace = tuple[RewriteStep, ...]
ReachEntry = tuple[QuantaleValue, Trace]
Accepted = tuple[Term, QuantaleValue, Trace]


def _search(trs: GradedTrs, start: Term, max_steps: int,
            threshold: Optional[QuantaleValue],
            expand: Callable[[GradedTrs, Term], list[RewriteStep]],
            ) -> tuple[dict[Term, list[ReachEntry]], list[Accepted]]:
    """The round loop of the bounded searches: the antichain of entries
    kept per reached term, and every entry ever accepted, in order.  An
    accepted entry's depth is its trace length, and the accepted entries of
    depth at most i dominate every trace of at most i steps."""
    unit = trs.quantale.unit
    # Each term keeps an antichain of entries in the order found.  Depths
    # need not be kept: the search goes one step deeper per round, so every
    # entry was reached at most as deep as any later candidate, whose
    # leftover depth can then never pay off.
    reached: dict[Term, list[ReachEntry]] = {start: [(unit, ())]}
    accepted: list[Accepted] = [(start, unit, ())]
    expanded = 0
    for _ in range(max_steps):
        frontier = accepted[expanded:]
        if not frontier:
            break
        expanded = len(accepted)
        for term, degree, trace in frontier:
            for step in expand(trs, term):
                new_degree = q_tensor(degree, step.degree)
                if threshold is not None and not q_leq(threshold, new_degree):
                    continue
                entries = reached.setdefault(step.result, [])
                if any(q_leq(new_degree, d) for d, _ in entries):
                    continue
                new_trace = trace + (step,)
                entries[:] = [e for e in entries if not q_leq(e[0], new_degree)]
                entries.append((new_degree, new_trace))
                accepted.append((step.result, new_degree, new_trace))
    return reached, accepted


def rewrite_search(trs: GradedTrs, start: Term, max_steps: int,
                   threshold: Optional[QuantaleValue] = None,
                   innermost: bool = False) -> dict[Term, list[ReachEntry]]:
    """All terms reachable in at most max_steps rewrite steps.

    For each reached term, keeps the order-maximal accumulated degrees found
    (a singleton on totally ordered quantales) with one witnessing trace
    each.  Branches whose accumulated degree drops below the threshold are
    pruned, which is sound because the tensor is deflationary.  The start
    term must fit the system's signature and max_steps must be non-negative,
    or TrsError is raised; a threshold from another quantale raises
    QuantaleMismatchError before the search.
    """
    check_terms(trs.signature, (start,), "start term")
    check_threshold(trs, threshold)
    if max_steps < 0:
        raise TrsError(f"max_steps must be non-negative, got {max_steps}")
    expand = innermost_rewrite_steps if innermost else rewrite_steps
    return _search(trs, start, max_steps, threshold, expand)[0]


def joinable(trs: GradedTrs, t: Term, s: Term, max_steps: int,
             threshold: Optional[QuantaleValue] = None) -> Optional[ReachEntry]:
    """Best degree at which t and s rewrite to a common term within the
    bound, with a witnessing trace from `t =? s` to `true` over the
    extended system.  The system must be unextended, both terms must fit
    its signature and max_steps must be non-negative, or TrsError is
    raised; a threshold from another quantale raises QuantaleMismatchError
    before the search.

    `=?` has identity sensitivities and only the unit-degree join rule
    rewrites it, so a join in at most max_steps steps is i steps from t
    and j steps from s to a common term u, with i + j <= max_steps - 1,
    at the tensor of the two sides' degrees.  Each side is searched once,
    to max_steps - 1 steps and pruned by the threshold (sound because the
    tensor is deflationary); the sides meet on the terms both reach.  Of
    the best joins, a shortest is returned; its trace takes the steps on t
    (at positions under 1), then those on s (under 2), then the root join.
    """
    if trs.signature.is_extended:
        raise TrsError("joinable expects the unextended system")
    check_terms(trs.signature, (t, s), "joinability problem")
    check_threshold(trs, threshold)
    if max_steps < 0:
        raise TrsError(f"max_steps must be non-negative, got {max_steps}")
    if max_steps < 1:
        return None
    extended = trs.extended
    bound = max_steps - 1
    _, left = _search(extended, t, bound, threshold, rewrite_steps)
    from_t: dict[Term, list[ReachEntry]] = {}
    for u, degree, trace in left:
        from_t.setdefault(u, []).append((degree, trace))
    _, right = _search(extended, s, bound, threshold, rewrite_steps)
    best = None
    for u, right_degree, right_trace in right:
        for left_degree, left_trace in from_t.get(u, ()):
            length = len(left_trace) + len(right_trace)
            if length > bound:
                break  # entries come in order of depth
            degree = q_tensor(left_degree, right_degree)
            if threshold is not None and not q_leq(threshold, degree):
                continue
            if best is None or not q_leq(degree, best[0]) or \
                    (degree == best[0] and length < best[1]):
                best = (degree, length, u, left_trace, right_trace)
    if best is None:
        return None
    degree, _, u, left_trace, right_trace = best
    trace = [RewriteStep((1,) + st.position, st.rule_index, st.subst, st.degree,
                         App(EQ_SYMBOL, (st.result, s))) for st in left_trace]
    trace += [RewriteStep((2,) + st.position, st.rule_index, st.subst, st.degree,
                          App(EQ_SYMBOL, (u, st.result))) for st in right_trace]
    goal = App(TRUE_SYMBOL)
    trace += [next(st for st in rewrite_steps(extended, App(EQ_SYMBOL, (u, u)))
                   if not st.position and st.result == goal)]
    return degree, tuple(trace)
