"""Narrowing, the calculus, and the solver."""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import subprocess
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from qnarrow import (
    App,
    FreshCounter,
    IDENTITY,
    Quantale,
    Signature,
    Substitution,
    basic_update,
    bq_step,
    derivation_to_calculus,
    derivations,
    fun_positions,
    initial_config,
    joinable,
    narrowing_steps,
    narrowing_solutions,
    parse,
    parse_file,
    q_leq,
    rewrite_search,
    solve,
    Var,
    vars_of,
)
from qnarrow.narrow import (
    NarrowError,
    NarrowingDerivation,
    NonBasicStepError,
    ORDERS,
    STRATEGIES,
    Solution,
    SolveResult,
    TRUE_TERM,
    BqTraceStep,
    _UNSEEN,
    _goal_is_equation,
    _state_key_function,
    _variant_lhs,
    canonical_subst,
)
from qnarrow.quantale import (
    CBE_ID,
    CarrierError,
    CbePow,
    QuantaleValue,
    cbe_apply,
    cbe_compose,
    cbe_normalize,
    q_tensor,
)
from qnarrow.rewrite import GradedTrs, RewriteRule, TrsError, check_terms
from qnarrow.term import (
    EQ_SYMBOL,
    ROOT,
    Term,
    fresh_variant,
    is_linear,
    max_var_index,
    replace_at,
)
from qnarrow.unify import Bindings, mgu, resolve, resolve_all, unifiable
from qnarrow.oracle import SystemConfig, random_system, random_linear_problem

from conftest import S, X, Z, num, plus

L = Quantale.LAWVERE


def eq(t, s):
    return App("=?", (t, s))


def reference_solutions(trs, t, s, depth):
    """Exhaustive search over bq_step: no dedup, no degree pruning; the
    clash rule fires the moment a constraint set loses unifiability (sets
    only grow, so such branches are dead)."""
    from qnarrow import unifiable
    problem_vars = vars_of(t) | vars_of(s)
    counter = FreshCounter(200)
    found = set()
    frontier = [(initial_config(trs, t, s), 0)]
    while frontier:
        cfg, lp_used = frontier.pop()
        if cfg.goal == TRUE_TERM and not cfg.constraints:
            found.add((canonical_subst(cfg.subst.restrict(problem_vars)),
                       cfg.degree))
            continue
        for tag, nxt in bq_step(cfg, trs, counter):
            if nxt is None:
                continue
            cost = 1 if tag == "LP" else 0
            if lp_used + cost > depth:
                continue
            if nxt.constraints and not unifiable(nxt.constraints):
                continue
            frontier.append((nxt, lp_used + cost))
    return found


def run_derivation(trs, start, script):
    """Apply the scripted (position, rule_index) narrowing steps in order."""
    counter = FreshCounter(100)
    deriv = NarrowingDerivation(start)
    for position, rule_index in script:
        steps = [st for st in narrowing_steps(trs, deriv.end, counter)
                 if st.position == position and st.rule_index == rule_index]
        assert steps, f"no step at {position} with rule {rule_index} from {deriv.end}"
        deriv = deriv.extended(steps[0])
    return deriv


def iterate_narrowing(trs: GradedTrs, t: Term, n: int) -> set:
    """Reachable (term, composed substitution, accumulated degree) triples
    over at most n narrowing steps; n = 0 gives (t, identity, unit)."""
    out = set()
    for deriv in derivations(trs, t, n):
        out.add((deriv.end, deriv.substitution(), deriv.degree(trs.quantale)))
    return out


def check_invariants(cfg) -> None:
    """Constraint terms never mention substituted variables."""
    dom = cfg.subst.domain()
    for a, b in cfg.constraints:
        if (vars_of(a) | vars_of(b)) & dom:
            raise NarrowError(f"constraint not instantiated: {a} = {b}")


class TestNarrowingSteps:
    def test_peano_first_step(self, peano):
        ext = peano.extended
        goal = eq(plus(X, S(Z)), plus(plus(X, X), X))
        steps = narrowing_steps(ext, goal, FreshCounter(10))
        chosen = [st for st in steps if st.position == (1,) and st.rule_index == 1]
        assert len(chosen) == 1
        st = chosen[0]
        assert st.degree == L.degree(0)
        assert st.result == eq(S(plus(X, Z)), plus(plus(X, X), X))

    def test_no_unifiable_rule(self, peano):
        assert narrowing_steps(peano, Z, FreshCounter(1)) == []

    def test_cubic_position_step(self, cubic):
        goal = eq(App("f", (X, X, X)), App("f", (App("a"), App("b"), App("d"))))
        steps = narrowing_steps(cubic.extended, goal, FreshCounter(5))
        chosen = [st for st in steps if st.position == (2, 1) and st.rule_index == 0]
        assert len(chosen) == 1
        st = chosen[0]
        assert st.degree == L.degree(1)
        assert st.result == eq(App("f", (X, X, X)),
                               App("f", (App("c"), App("b"), App("d"))))
        assert st.unifier.is_identity

    def test_iterate_zero(self, peano):
        t = plus(X, S(Z))
        assert iterate_narrowing(peano, t, 0) == {(t, IDENTITY, L.unit)}


PEANO_DERIVATION_ONE = [
    ((1,), 1), ((1, 1), 0), ((1,), 2), ((2, 1), 0), ((2,), 0), ((), 3),
]
PEANO_DERIVATION_TWO = [
    ((1,), 1), ((1, 1), 0), ((2,), 1), ((2, 1), 0), ((2, 1), 1), ((2, 1, 1), 0),
    ((2,), 2), ((), 3),
]

# x =? a is solved at once, but LP can rewrite a -> a without end
LOOP_FILE = parse("quantale lawvere\nvar x\nfun a/0\nrule 1 : a -> a\nsolve x =? a\n")


class TestWorkedDerivations:
    def test_first_derivation(self, peano):
        ext = peano.extended
        goal = eq(plus(X, S(Z)), plus(plus(X, X), X))
        deriv = run_derivation(ext, goal, PEANO_DERIVATION_ONE)
        assert deriv.end == TRUE_TERM
        assert deriv.degree(L) == L.degree(1)
        assert deriv.substitution().restrict({X}) == Substitution({X: Z})

    def test_second_derivation(self, peano):
        ext = peano.extended
        goal = eq(plus(X, S(Z)), plus(plus(X, X), X))
        deriv = run_derivation(ext, goal, PEANO_DERIVATION_TWO)
        assert deriv.end == TRUE_TERM
        assert deriv.degree(L) == L.degree(1)
        assert deriv.substitution().restrict({X}) == Substitution({X: S(Z)})

    def test_intermediate_display_of_first(self, peano):
        ext = peano.extended
        goal = eq(plus(X, S(Z)), plus(plus(X, X), X))
        deriv = run_derivation(ext, goal, PEANO_DERIVATION_ONE[:2])
        assert deriv.end == eq(S(X), plus(plus(X, X), X))


class TestBasicPositions:
    def test_update_with_variable_rhs(self, unbalanced):
        start = App("f", (App("a"),))
        basic = frozenset(fun_positions(start))
        assert basic == {(), (1,)}
        updated = basic_update(basic, (), App("g", (X,)))
        assert updated == {()}

    def test_update_with_ground_rhs(self):
        basic = frozenset({(), (1,), (1, 1), (2,)})
        updated = basic_update(basic, (1,), App("c"))
        assert updated == {(), (2,), (1,)}

    def test_non_basic_position_rejected(self):
        with pytest.raises(NonBasicStepError):
            basic_update(frozenset({()}), (1,), App("c"))

    def test_right_ground_derivations_all_basic(self):
        rng = random.Random(17)
        cfg = SystemConfig(right_ground=True)
        for _ in range(15):
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            ext = trs.extended
            for deriv in derivations(ext, eq(t, s), 3):
                assert deriv.is_basic
                assert deriv.basics[-1] == frozenset(fun_positions(deriv.end))


class TestBqStep:
    def test_cubic_worked_derivation(self, cubic):
        a, b, c, d = (App(n) for n in "abcd")
        f = lambda *ts: App("f", tuple(ts))
        cfg = initial_config(cubic, f(X, X, X), f(a, b, d))
        counter = FreshCounter(50)
        script = [("LP", (2, 1), 0), ("LP", (2, 2), 1), ("LP", (2, 1), 2),
                  ("LP", (2, 2), 2), ("Con", None, None), ("SU", None, None)]
        for tag, pos, rule in script:
            successors = bq_step(cfg, cubic, counter)
            matching = [nxt for tg, nxt in successors
                        if tg == tag and nxt is not None
                        and (tag != "LP" or (nxt.trace[-1].position == pos
                                             and nxt.trace[-1].rule_index == rule))]
            assert matching, f"missing {tag} at {pos}"
            cfg = matching[0]
        assert cfg.goal == TRUE_TERM
        assert cfg.constraints == frozenset()
        assert cfg.degree == L.degree(4)
        assert cfg.subst.restrict({X}) == Substitution({X: d})

    def test_cubic_derivation_midpoint(self, cubic):
        a, b, d = App("a"), App("b"), App("d")
        f = lambda *ts: App("f", tuple(ts))
        cfg = initial_config(cubic, f(X, X, X), f(a, b, d))
        counter = FreshCounter(50)
        for pos, rule in [((2, 1), 0), ((2, 2), 1)]:
            successors = bq_step(cfg, cubic, counter)
            cfg = next(nxt for tg, nxt in successors
                       if tg == "LP" and nxt is not None
                       and nxt.trace[-1].position == pos
                       and nxt.trace[-1].rule_index == rule)
        assert cfg.goal == eq(f(X, X, X), f(App("c"), App("c"), d))
        assert cfg.constraints == {(a, a), (b, b)}
        assert cfg.degree == L.degree(2)
        assert cfg.subst.is_identity

    def test_cla_on_clash(self, cubic):
        cfg = initial_config(cubic, App("a"), App("b"))
        cfg = type(cfg)(cfg.goal, frozenset({(App("a"), App("b"))}),
                        cfg.subst, cfg.degree)
        results = bq_step(cfg, cubic, FreshCounter(1))
        assert ("Cla", None) in results
        assert not any(tag == "SU" for tag, _ in results)

    def test_no_rules_on_true_goal(self, cubic):
        cfg = initial_config(cubic, App("a"), App("a"))
        counter = FreshCounter(1)
        con = next(nxt for tag, nxt in bq_step(cfg, cubic, counter) if tag == "Con")
        su = next(nxt for tag, nxt in bq_step(con, cubic, counter) if tag == "SU")
        assert su.goal == TRUE_TERM and not su.constraints
        assert bq_step(su, cubic, counter) == []

    def test_invariant_constraints_instantiated(self, peano):
        cfg = initial_config(peano, plus(X, S(Z)), plus(plus(X, X), X))
        counter = FreshCounter(30)
        frontier = [cfg]
        for _ in range(3):
            nxt_frontier = []
            for node in frontier:
                for tag, nxt in bq_step(node, peano, counter):
                    if nxt is None:
                        continue
                    check_invariants(nxt)
                    nxt_frontier.append(nxt)
            frontier = nxt_frontier[:20]


PINNED_147 = """quantale fuzzy-product
var x y u w
fun a/0
fun b/0
fun c/0
fun f/1 : (id)
fun g/2 : (pow(2), pow(2))
rule 1/2 : g(f(a), f(y)) -> y
rule 3/4 : g(f(y), x) -> x
solve g(g(w, c), f(u)) =? f(f(a)) threshold 3/4
solve f(g(a, c)) =? g(g(g(u, w), b), b)
"""
PINNED_191 = """quantale fuzzy-godel
var x y u w
fun a/0
fun b/0
fun c/0
fun f/1 : (id)
fun g/2 : (id, id)
rule 1/4 : f(g(y, b)) -> c
rule 3/4 : f(x) -> x
rule 1 : g(a, g(x, y)) -> y
rule 1/4 : f(f(y)) -> y
solve g(f(u), g(b, c)) =? f(f(c)) threshold 1/4
solve g(f(b), g(a, u)) =? b
"""


def check_strategies_alike(trs, t, s, against_reference=True, **kwargs) -> SolveResult:
    """Runs both strategies: they must agree on everything but the
    derivations of the solutions, and lazy must emit the solutions of the
    lazy reference engine, when asked.  Returns the lazy result."""
    eager = solve(trs, t, s, strategy="eager-su", **kwargs)
    lazy = solve(trs, t, s, strategy="lazy", **kwargs)
    label = (kwargs, str(t), str(s))
    for field in fields(SolveResult):
        if field.name != "solutions":
            assert getattr(lazy, field.name) == getattr(eager, field.name), \
                (field.name, label)
    assert ordered(lazy) == ordered(eager), label
    if against_reference:
        reference = reference_solve(trs, t, s, strategy="lazy", **kwargs)
        assert ordered(lazy) == ordered(reference), label
    return lazy


class TestSolve:
    def test_reserved_symbols_rejected(self, peano):
        from qnarrow.rewrite import TrsError
        with pytest.raises(TrsError):
            solve(peano.extended, Z, Z)
        # reserved, undeclared, too few and too many arguments: problem
        # terms are checked up front, not when LP first reaches them
        bad = [eq(Z, Z), App("q"), App("S"), App("S", (Z, Z)), S(App("+", (Z,)))]
        for term in bad:
            for strategy in ("eager-su", "lazy"):
                for max_steps in (0, 1):
                    for t, s in ((term, Z), (term, term), (X, term)):
                        with pytest.raises(TrsError):
                            solve(peano, t, s, strategy=strategy, max_steps=max_steps)

    def test_identical_ground_terms(self, peano):
        for max_steps in (0, 2):
            result = solve(peano, S(Z), S(Z), max_steps=max_steps)
            assert any(sol.subst.is_identity and sol.degree == L.unit
                       for sol in result.solutions)

    def test_solution_domain_restricted(self, peano):
        result = solve(peano, plus(X, S(Z)), plus(plus(X, X), X),
                       threshold=L.degree(1), max_steps=8)
        for sol in result.solutions:
            assert sol.subst.domain() <= {X}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_trace_shape(self, cubic, strategy):
        from qnarrow import subterm_at
        a, b, d = App("a"), App("b"), App("d")
        f = lambda *ts: App("f", tuple(ts))
        result = solve(cubic, f(X, X, X), f(a, b, d), strategy=strategy, max_steps=8)
        assert len(result.solutions) == 1
        trace = result.solutions[0].trace
        tags = [st.tag for st in trace]
        assert tags[-2:] == ["Con", "SU"]
        assert tags.count("Con") == 1
        if strategy == "eager-su":
            # every LP is immediately discharged
            for i, tag in enumerate(tags[:-1]):
                if tag == "LP":
                    assert tags[i + 1] == "SU"
        else:
            # LP steps only, each adding its equation (the rules are ground,
            # so a rule variant is the rule) under the identity, then Con
            # adds the goal equation and one SU discharges them all
            assert set(tags[:-2]) == {"LP"}
            goal, constraints = eq(f(X, X, X), f(a, b, d)), frozenset()
            for frame in trace[:-2]:
                equation = (cubic.rules[frame.rule_index].lhs,
                            subterm_at(goal, frame.position))
                assert frame.constraints == constraints | {equation}
                assert frame.subst.is_identity
                goal, constraints = frame.goal, frame.constraints
            assert trace[-2].constraints == constraints | {goal.args}
            assert not trace[-1].constraints
        # replaying the trace degrees reproduces the solution degree
        assert trace[-1].degree == result.solutions[0].degree
        assert trace[-1].subst.restrict({X}) == result.solutions[0].subst

    def test_strategies_and_orders_agree(self, cubic, unbalanced):
        problems = [
            (cubic, App("f", (X, X, X)),
             App("f", (App("a"), App("b"), App("d"))), 6),
            (unbalanced, App("f", (App("a"),)), App("g", (App("b"),)), 5),
        ]
        for trs, t, s, depth in problems:
            reference = None
            for strategy in ("eager-su", "lazy"):
                for order in ORDERS:
                    result = solve(trs, t, s, strategy=strategy, order=order,
                                   max_steps=depth)
                    found = {(sol.subst, sol.degree) for sol in result.solutions}
                    if reference is None:
                        reference = found
                    assert found == reference, (strategy, order)

    def test_strategies_search_alike(self):
        """Lazy and eager search the same nodes: they agree on every count
        and on why they stopped, and lazy emits what the lazy reference
        engine emits.  On every demo problem, and on two benchmark requests
        (problem 1 of requests 147 and 191 of `perfbench/gen.py`'s seed 1)
        where lazy once reported depth-limit while eager proved the search
        exhausted.  The lazy reference also queues SU and Con steps, so its
        Peano search at the eager bounds is too large for a unit test: the
        demos meet it at the lazy bounds only."""
        for _, trs, problem in demo_problems():
            for strategy, order, steps in GOLDEN_SETTINGS:
                check_strategies_alike(trs, problem.left, problem.right,
                                       strategy == "lazy", threshold=problem.threshold,
                                       order=order, max_steps=steps)
        for text in (PINNED_147, PINNED_191):
            pf = parse(text)
            problem = pf.problems[1]
            result = check_strategies_alike(pf.trs, problem.left, problem.right,
                                            threshold=problem.threshold, max_steps=2)
            assert result.stopped == "exhausted"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantale=st.sampled_from(list(Quantale)),
           steps=st.integers(1, 3))
    def test_random_systems_search_alike(self, seed, quantale, steps):
        trs, t, s = random_problem(seed, quantale)
        for order in ORDERS:
            check_strategies_alike(trs, t, s, order=order, max_steps=steps)

    def test_threshold_never_loses_qualifying_solutions(self):
        rng = random.Random(29)
        cfg = SystemConfig(n_constants=3, n_unary=1, n_binary=0)
        for _ in range(15):
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            threshold = L.degree(2) if trs.quantale is L else trs.quantale.unit
            full = solve(trs, t, s, max_steps=3)
            cut = solve(trs, t, s, max_steps=3, threshold=threshold)
            expected = {(sol.subst, sol.degree) for sol in full.solutions
                        if q_leq(threshold, sol.degree)}
            assert {(sol.subst, sol.degree) for sol in cut.solutions} == expected

    def test_lazy_solve_matches_bq_step_reference(self, cubic, unbalanced):
        """The optimized engine agrees with a direct search over bq_step."""
        for trs, t, s, depth in [
            (cubic, App("f", (X, X, X)),
             App("f", (App("a"), App("b"), App("d"))), 4),
            (unbalanced, App("f", (App("a"),)), App("g", (App("b"),)), 4),
        ]:
            found = reference_solutions(trs, t, s, depth)
            result = solve(trs, t, s, strategy="lazy", max_steps=depth)
            assert {(sol.subst, sol.degree) for sol in result.solutions} == found

    def test_random_systems_match_reference(self):
        """Both strategies and the dedup-free bq_step search find the same
        unifiers on random systems, so neither the triangular bindings nor
        the state dedup can lose or invent solutions."""
        rng = random.Random(59)
        for trial in range(20):
            q = list(Quantale)[trial % 5]
            cfg = SystemConfig(quantale=q, n_constants=2, n_unary=1,
                               n_binary=1, max_rules=2, nontrivial_cbes=True)
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            expected = reference_solutions(trs, t, s, 2)
            for strategy in ("eager-su", "lazy"):
                result = solve(trs, t, s, strategy=strategy, max_steps=2)
                assert {(sol.subst, sol.degree)
                        for sol in result.solutions} == expected

    def test_constraint_discharge(self, peano, cubic, unbalanced):
        """Every equation that ever entered a constraint set along a
        successful derivation is unified by the final substitution."""
        problems = [
            (peano, plus(X, S(Z)), plus(plus(X, X), X), L.degree(1),
             # the lazy frontier on Peano grows fast with the step bound
             {"eager-su": 8, "lazy": 4}),
            (cubic, App("f", (X, X, X)),
             App("f", (App("a"), App("b"), App("d"))), None, {"eager-su": 6, "lazy": 6}),
            (unbalanced, App("f", (App("a"),)), App("g", (App("b"),)), None,
             {"eager-su": 5, "lazy": 5}),
        ]
        for trs, t, s, threshold, depths in problems:
            for strategy, depth in depths.items():
                result = solve(trs, t, s, threshold=threshold,
                               strategy=strategy, max_steps=depth)
                assert result.solutions
                for sol in result.solutions:
                    final = sol.trace[-1].subst
                    recorded = set()
                    for frame in sol.trace:
                        recorded |= frame.constraints
                    assert recorded
                    for a, b in recorded:
                        assert final.apply(a) == final.apply(b)

    def test_goal_instantiation_freedom(self, peano, cubic, unbalanced):
        """Goals are rewritten with uninstantiated rule right sides: content
        that entered through the substitution never appears in a goal, which
        is what makes every calculus derivation basic."""
        problems = [
            (peano, plus(X, S(Z)), plus(plus(X, X), X), L.degree(1), 8),
            (cubic, App("f", (X, X, X)),
             App("f", (App("a"), App("b"), App("d"))), None, 6),
            (unbalanced, App("f", (App("a"),)), App("g", (App("b"),)), None, 5),
        ]
        from qnarrow import replace_at, subterm_at
        for trs, t, s, threshold, depth in problems:
            result = solve(trs, t, s, threshold=threshold, max_steps=depth)
            assert result.solutions
            for sol in result.solutions:
                goal = eq(t, s)
                seen_vars = set(vars_of(goal))
                for frame in sol.trace:
                    if frame.tag != "LP":
                        continue
                    grafted = subterm_at(frame.goal, frame.position)
                    fresh = vars_of(grafted)
                    assert not (fresh & seen_vars)
                    assert replace_at(frame.goal, frame.position,
                                      subterm_at(goal, frame.position)) == goal
                    goal = frame.goal
                    seen_vars |= fresh

    def test_limit_reporting(self, cubic):
        a, b, d = App("a"), App("b"), App("d")
        f = lambda *ts: App("f", tuple(ts))
        t, s = f(X, X, X), f(a, b, d)
        for strategy in ("eager-su", "lazy"):
            exhausted = solve(cubic, t, s, strategy=strategy, max_steps=8)
            assert exhausted.complete and exhausted.stopped == "exhausted"
            cut = solve(cubic, t, s, strategy=strategy, max_steps=1)
            assert not cut.complete and cut.stopped == "depth-limit"
            # the root itself is at the bound
            rooted = solve(cubic, t, s, strategy=strategy, max_steps=0)
            assert not rooted.complete and rooted.stopped == "depth-limit"
            assert rooted.configs_expanded == 1 and not rooted.solutions
            capped = solve(cubic, t, s, strategy=strategy, max_steps=8, max_configs=3)
            assert not capped.complete and capped.stopped == "config-limit"
            limited = solve(cubic, t, s, strategy=strategy, max_steps=8,
                            max_solutions=1)
            assert limited.stopped == "solution-limit"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("threshold, counts", [
        (None, (5, 4, 0, 1, 0, 2, 2, 4)),
        (L.degree(3), (4, 3, 0, 0, 2, 2, 2, 3)),
    ])
    def test_work_counts(self, strategy, threshold, counts):
        """Counted by hand on g(a, b) =? a; the LP candidates are walked in
        preorder with children right to left: 2, 1, 1.2, 1.1.
          - start: a -> b at 2 (degree 2) and at 1.1 (2); g(x, x) -> a at 1
            clashes (x = a, x = b); two nodes queued;
          - after 2: the clash again at 1 (3); a -> b at 1.1 (4);
          - after 1.1: a -> b at 2 (4) commutes before 1.1; g(x, x) -> a at
            1 (3) reaches a =? a, solved at degree 3 at the bound.
        Threshold 3 prunes both degree-4 candidates before the skip test, so
        nothing is skipped and the degree-4 node is never built.  The start and
        both nodes below the bound are keyed; a leaf at the bound is keyed
        only when the depth-cut probe fires on it, which happens once without
        the threshold.  At the bound the threshold-3 search has only a -> b
        left (degree 5), which the threshold would prune, so the bound cut
        nothing."""
        pf = parse("quantale lawvere\nvar x\nfun a/0\nfun b/0\nfun g/2\n"
                   "rule 1 : g(x, x) -> a\nrule 2 : a -> b\nsolve g(a, b) =? a\n")
        problem = pf.problems[0]
        result = solve(pf.trs, problem.left, problem.right, threshold=threshold,
                       strategy=strategy, max_steps=2)
        assert (result.configs_expanded, result.successors_built,
                result.duplicates_merged, result.commuted_skipped,
                result.threshold_pruned, result.clash_pruned,
                result.frontier_peak, result.states_keyed) == counts
        assert [(str(sol.subst), str(sol.degree)) for sol in result.solutions] == \
            [("{}", "3")]
        if threshold is None:  # g(x, x) -> a still fits g(b, b) =? b at the bound
            assert result.stopped == "depth-limit" and not result.complete
        else:
            assert result.stopped == "exhausted" and result.complete

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_zero_solution_limit(self, strategy):
        """max_solutions=0 returns no solution, even one the start node
        already solves."""
        problem = LOOP_FILE.problems[0]
        result = solve(LOOP_FILE.trs, problem.left, problem.right,
                       strategy=strategy, max_solutions=0)
        assert result.solutions == []
        assert not result.complete and result.stopped == "solution-limit"

    @pytest.mark.parametrize("bound", ["max_steps", "max_solutions", "max_configs"])
    def test_negative_bound_rejected(self, bound):
        """A negative search bound is an error raised before the search, not
        a bound met at once: x =? a would still yield {x -> a}."""
        pf = parse("quantale lawvere\nvar x\nfun a/0\nfun b/0\nrule 1 : a -> b\n"
                   "solve x =? a\n")
        problem = pf.problems[0]
        for strategy in STRATEGIES:
            with pytest.raises(NarrowError, match=f"{bound} must be non-negative, got -1"):
                solve(pf.trs, problem.left, problem.right, strategy=strategy, **{bound: -1})

    @pytest.mark.parametrize("argument", ["strategy", "order"])
    def test_unknown_strategy_or_order_rejected(self, argument):
        """An unknown strategy or order is a NarrowError, as a negative bound
        is, and so still a ValueError."""
        problem = LOOP_FILE.problems[0]
        with pytest.raises(NarrowError, match=f"unknown {argument} 'iddfs'") as exc:
            solve(LOOP_FILE.trs, problem.left, problem.right, **{argument: "iddfs"})
        assert isinstance(exc.value, ValueError)

    def test_lazy_bfs_pops_by_lp_depth(self):
        """A popped node is finished at once by Con and one SU, so lazy bfs
        solves x =? a at the start node, the first configuration expanded,
        before any step of the LP chain of a -> a."""
        problem = LOOP_FILE.problems[0]
        result = solve(LOOP_FILE.trs, problem.left, problem.right, strategy="lazy",
                       order="bfs", max_configs=1)
        assert [(str(sol.subst), str(sol.degree)) for sol in result.solutions] == \
            [("{x -> a}", "0")]
        assert result.stopped == "config-limit"

    def test_deep_solution(self):
        """A solution nested 450 deep is found and rendered (the solutions
        are sorted by their rendered substitutions), under pytest's own
        stack.  The walks that build and rename it recurse two frames per
        level, which leaves 450 as the largest multiple of 50 that passes;
        one frame more per level would fail here.  The check compares text,
        as comparing two deep terms by value recurses too."""
        sig = Signature(L, {"Z": (), "S": (CBE_ID,), "f": (CBE_ID,)})
        trs = GradedTrs(sig, (RewriteRule(L.degree(1), App("f", (X,)), X),))
        for strategy in STRATEGIES:
            result = solve(trs, X, num(450), strategy=strategy, max_steps=1)
            assert [str(sol.subst) for sol in result.solutions] == \
                ["{x -> " + "S(" * 450 + "Z" + ")" * 450 + "}"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deep_successor_goals(self, strategy):
        """Both successors of S^300(a) =? x rewrite a, so each goal is built
        afresh 301 deep, and they share a state (the system has a -> b twice).
        Below the step bound both are identified: the state key walks both
        goals, and the second arrival is merged into the first."""
        sig = Signature(L, {"a": (), "b": (), "S": (CBE_ID,)})
        a_to_b = RewriteRule(L.degree(1), App("a"), App("b"))
        trs = GradedTrs(sig, (a_to_b, a_to_b))
        t, u = App("a"), App("b")
        for _ in range(300):
            t, u = App("S", (t,)), App("S", (u,))
        result = solve(trs, t, X, strategy=strategy, max_steps=2)
        assert (result.configs_expanded, result.successors_built,
                result.duplicates_merged, result.states_keyed) == (2, 2, 1, 3)
        assert result.stopped == "exhausted"
        assert [(sol.subst, str(sol.degree)) for sol in result.solutions] == \
            [(Substitution({X: t}), "0"), (Substitution({X: u}), "1")]

    def test_degree_past_the_bound(self):
        """a -> b under pow(64)^3 has the degree (1/3)^262144, past the
        degree bound: a search that would build that step raises
        CarrierError, and at the step bound the depth-cut probe counts the
        step as one the bound cut."""
        FP = Quantale.FUZZY_PRODUCT
        sig = Signature(FP, {"a": (), "b": (), "f": (CbePow(64),)})
        trs = GradedTrs(sig, (RewriteRule(FP.degree(Fraction(1, 3)), App("a"), App("b")),))
        t, s = App("a"), App("b")
        for _ in range(3):
            t, s = App("f", (t,)), App("f", (s,))
        for strategy in STRATEGIES:
            with pytest.raises(CarrierError):
                solve(trs, t, s, strategy=strategy, max_steps=1)
            result = solve(trs, t, s, strategy=strategy, max_steps=0)
            assert result.stopped == "depth-limit" and not result.solutions

    def test_deepest_solvable_goals(self):
        """Under the default recursion limit, from a script's top level,
        `solve` handles S^495(a) =? x with a -> b listed twice and S^991(a) =? b
        with one or two copies of the rule, on both strategies (one level
        more raises RecursionError).  A walk of the state identity that
        recursed more than one frame per level would lower these limits."""
        script = """if True:
            from qnarrow import App, Quantale, Signature, Var, solve
            from qnarrow.quantale import CBE_ID
            from qnarrow.rewrite import GradedTrs, RewriteRule
            L = Quantale.LAWVERE
            sig = Signature(L, {"a": (), "b": (), "S": (CBE_ID,)})
            a_to_b = RewriteRule(L.degree(1), App("a"), App("b"))
            for n, copies, right in ((495, 2, Var("x")), (991, 1, App("b")),
                                     (991, 2, App("b"))):
                t = App("a")
                for _ in range(n):
                    t = App("S", (t,))
                trs = GradedTrs(sig, (a_to_b,) * copies)
                for strategy in ("eager-su", "lazy"):
                    result = solve(trs, t, right, strategy=strategy, max_steps=1)
                    assert result.stopped == "exhausted", (n, copies, strategy)
        """
        src = str(Path(solve.__code__.co_filename).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestDerivationToCalculus:
    def test_empty_derivation(self, peano):
        deriv = NarrowingDerivation(plus(X, S(Z)))
        configs = derivation_to_calculus(peano, deriv)
        assert len(configs) == 1
        assert configs[0].subst.is_identity

    def test_peano_first_derivation_roundtrip(self, peano):
        ext = peano.extended
        goal = eq(plus(X, S(Z)), plus(plus(X, X), X))
        deriv = run_derivation(ext, goal, PEANO_DERIVATION_ONE)
        configs = derivation_to_calculus(ext, deriv)
        assert len(configs) == 1 + 2 * len(deriv.steps)
        final = configs[-1]
        assert final.goal == TRUE_TERM
        assert final.degree == L.degree(1)
        assert final.subst.restrict({X}) == deriv.substitution().restrict({X})

    def test_unbalanced_basic_derivation(self, unbalanced):
        fa = App("f", (App("a"),))
        deriv = run_derivation(unbalanced, fa, [((1,), 1), ((), 0)])
        assert deriv.is_basic
        assert deriv.end == App("g", (App("b"),))
        assert deriv.degree(L) == L.degree(3)
        configs = derivation_to_calculus(unbalanced, deriv)
        tags = [cfg.trace[-1].tag for cfg in configs[1:]]
        assert tags == ["LP", "SU", "LP", "SU"]
        assert configs[-1].degree == L.degree(3)

    def test_non_basic_rejected(self, unbalanced):
        fa = App("f", (App("a"),))
        deriv = run_derivation(unbalanced, fa, [((), 0), ((1,), 1)])
        assert not deriv.is_basic
        with pytest.raises(NonBasicStepError):
            derivation_to_calculus(unbalanced, deriv)


class TestWeakCompleteness:
    def test_narrowing_covers_ground_rewriting_of_instances(self):
        """Right-linear rules, linear start term: every bounded rewrite
        sequence from a ground instance is matched by a narrowing derivation
        of at least its degree ending in a generalization of its result."""
        from qnarrow import match, q_geq, rewrite_search
        from qnarrow.oracle import random_term

        rng = random.Random(47)
        depth = 2
        checked = 0
        while checked < 40:
            cfg = SystemConfig(right_linear=True, n_constants=2,
                               n_unary=1, n_binary=0)
            trs = random_system(rng, cfg)
            t = random_term(rng, trs.signature, [X], 2)
            if not trs.signature.constants():
                continue
            grounding = Substitution(
                {x: App(rng.choice(trs.signature.constants()))
                 for x in vars_of(t)})
            reached = rewrite_search(trs, grounding.apply(t), depth)
            ends = [(deriv.end, deriv.degree(trs.quantale))
                    for deriv in derivations(trs, t, depth)]
            for target, entries in reached.items():
                for degree, _ in entries:
                    assert any(match(end, target) is not None
                               and q_geq(end_degree, degree)
                               for end, end_degree in ends), (trs.rules, t, target)
                    checked += 1


class TestNarrowingSolutions:
    def test_terms_checked_against_signature(self, peano):
        from qnarrow.rewrite import TrsError
        bad = (App("q"), App("S"), App("S", (Z, Z)), S(App("+", (Z,))), eq(Z, Z))
        for term in bad:
            for t, s in ((term, Z), (term, term), (X, term)):
                with pytest.raises(TrsError):
                    narrowing_solutions(peano, t, s, 1)

    def test_cubic_solution_set(self, cubic):
        a, b, d = App("a"), App("b"), App("d")
        f = lambda *ts: App("f", tuple(ts))
        sols = narrowing_solutions(cubic, f(X, X, X), f(a, b, d), 5)
        pairs = {(str(sigma), str(degree)) for sigma, degree in sols}
        assert ("{x -> d}", "4") in pairs
        assert not any("c" in rendering or "a" in rendering or "b" in rendering
                       for rendering, _ in pairs)


# each library entry point with a step bound other than `solve`, called with
# the bound -1, and the error it must raise
NEGATIVE_STEP_CALLS = {
    "rewrite_search": (lambda trs: rewrite_search(trs, Z, -1), TrsError),
    "joinable": (lambda trs: joinable(trs, Z, Z, -1), TrsError),
    "derivations": (lambda trs: derivations(trs, X, -1), NarrowError),
    "narrowing_solutions": (lambda trs: narrowing_solutions(trs, X, Z, -1), NarrowError),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_STEP_CALLS))
def test_negative_step_bound_rejected(peano, entry):
    """A negative step bound is an error raised at the call, before any
    search, as in `solve`: not a bound met at once, which would return the
    start term, no join, the empty derivation or no solution."""
    call, error = NEGATIVE_STEP_CALLS[entry]
    with pytest.raises(error, match="max_steps must be non-negative, got -1"):
        call(peano)


# -- golden outcomes on the demo problems -----------------------------------

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden_demos.json"
# (strategy, order, max_steps): the command line's default bound for eager
# search, and bounds at which the lazy Peano frontier stays small
GOLDEN_SETTINGS = (
    ("eager-su", "bfs", 10), ("lazy", "bfs", 4),
    ("eager-su", "best-first", 6), ("lazy", "best-first", 3),
)
# a missing file fails test_covers_every_demo_problem
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def golden_keys():
    return [f"{path.stem}/{index}/{strategy}/{order}/{steps}"
            for path in sorted(DEMOS.glob("*.gtrs"))
            for index in range(len(parse_file(str(path)).problems))
            for strategy, order, steps in GOLDEN_SETTINGS]


def demo_outcome(key):
    """What a search on one demo problem reports: the expanded count, why it
    stopped, the ordered solutions and a digest of their full traces (which
    record every intermediate substitution, so also the orientation of each
    binding)."""
    stem, index, strategy, order, steps = key.split("/")
    pf = parse_file(str(DEMOS / f"{stem}.gtrs"))
    problem = pf.problems[int(index)]
    result = solve(pf.trs, problem.left, problem.right, threshold=problem.threshold,
                   strategy=strategy, order=order, max_steps=int(steps))
    traces = "\n\n".join(
        "\n".join(f"{f.tag} {f.position} {f.rule_index} {f.goal} "
                  f"[{'; '.join(sorted(f'{a} = {b}' for a, b in f.constraints))}] "
                  f"{f.subst} {f.degree}" for f in sol.trace)
        for sol in result.solutions)
    return {
        "configs_expanded": result.configs_expanded,
        "stopped": result.stopped,
        "solutions": [[str(sol.subst), str(sol.degree), sol.dominated]
                      for sol in result.solutions],
        "traces_sha256": hashlib.sha256(traces.encode()).hexdigest()[:16],
    }


class TestDemoGolden:
    """Search outcomes recorded from the engine that re-solved every
    constraint set with a transformation-style mgu; incremental triangular
    unification must reproduce them exactly.  Regenerate (only for a change
    meant to alter the search) with
    `PYTHONPATH=src python tests/test_narrow.py --write-golden`."""

    def test_covers_every_demo_problem(self):
        assert sorted(RECORDED) == sorted(golden_keys())

    @pytest.mark.parametrize("key", sorted(RECORDED))
    def test_outcome(self, key):
        assert demo_outcome(key) == RECORDED[key]


# (configs_expanded, successors_built, duplicates_merged, commuted_skipped,
# threshold_pruned, clash_pruned, frontier_peak, states_keyed) of each demo
# problem at each golden setting, recorded from the engine that queues bfs
# arrivals at the step bound unidentified
DEMO_COUNTERS = {
    "chain/0/eager-su/bfs/10": (6, 5, 0, 2, 0, 0, 2, 6),
    "chain/0/lazy/bfs/4": (6, 5, 0, 2, 0, 0, 2, 6),
    "chain/0/eager-su/best-first/6": (6, 5, 0, 2, 0, 0, 2, 6),
    "chain/0/lazy/best-first/3": (6, 5, 0, 2, 0, 0, 2, 6),
    "cubic/0/eager-su/bfs/10": (9, 8, 0, 4, 0, 0, 3, 9),
    "cubic/0/lazy/bfs/4": (9, 8, 0, 4, 0, 0, 3, 8),
    "cubic/0/eager-su/best-first/6": (9, 8, 0, 4, 0, 0, 3, 9),
    "cubic/0/lazy/best-first/3": (8, 7, 0, 3, 0, 0, 3, 8),
    "fuzzy/0/eager-su/bfs/10": (2, 1, 0, 0, 0, 0, 1, 2),
    "fuzzy/0/lazy/bfs/4": (2, 1, 0, 0, 0, 0, 1, 2),
    "fuzzy/0/eager-su/best-first/6": (2, 1, 0, 0, 0, 0, 1, 2),
    "fuzzy/0/lazy/best-first/3": (2, 1, 0, 0, 0, 0, 1, 2),
    "innermost/0/eager-su/bfs/10": (3, 2, 0, 0, 0, 0, 2, 3),
    "innermost/0/lazy/bfs/4": (3, 2, 0, 0, 0, 0, 2, 3),
    "innermost/0/eager-su/best-first/6": (3, 2, 0, 0, 0, 0, 2, 3),
    "innermost/0/lazy/best-first/3": (3, 2, 0, 0, 0, 0, 2, 3),
    "peano/0/eager-su/bfs/10": (1672, 1762, 91, 1115, 2663, 0, 438, 1328),
    "peano/0/lazy/bfs/4": (146, 146, 1, 78, 28, 0, 80, 70),
    "peano/0/eager-su/best-first/6": (415, 442, 28, 257, 264, 0, 209, 443),
    "peano/0/lazy/best-first/3": (68, 68, 1, 34, 4, 0, 44, 69),
    "unbalanced/0/eager-su/bfs/10": (4, 3, 0, 0, 0, 0, 2, 4),
    "unbalanced/0/lazy/bfs/4": (4, 3, 0, 0, 0, 0, 2, 4),
    "unbalanced/0/eager-su/best-first/6": (4, 3, 0, 0, 0, 0, 2, 4),
    "unbalanced/0/lazy/best-first/3": (4, 3, 0, 0, 0, 0, 2, 4),
}


class TestDemoCounters:
    """Every counter of `SolveResult` on the demo problems, under bfs and
    best-first on both strategies: a change to the engine's bookkeeping
    must count the same work."""

    def test_covers_every_demo_problem(self):
        assert sorted(DEMO_COUNTERS) == sorted(golden_keys())

    @pytest.mark.parametrize("key", sorted(DEMO_COUNTERS))
    def test_counters(self, key):
        stem, index, strategy, order, steps = key.split("/")
        pf = parse_file(str(DEMOS / f"{stem}.gtrs"))
        problem = pf.problems[int(index)]
        result = solve(pf.trs, problem.left, problem.right, threshold=problem.threshold,
                       strategy=strategy, order=order, max_steps=int(steps))
        assert (result.configs_expanded, result.successors_built, result.duplicates_merged,
                result.commuted_skipped, result.threshold_pruned, result.clash_pruned,
                result.frontier_peak, result.states_keyed) == DEMO_COUNTERS[key]


# -- state keys ---------------------------------------------------------------


def reference_node_key(node, problem_vars):
    """The state key as the search computed it before its per-solve tables
    (its logic kept verbatim): the key function must partition states as this
    one does, or the search would merge or split other states."""
    bindings = node.bindings
    out: list = []
    slots: dict = {}
    order: list = []

    def slot(v):
        s = slots.get(v)
        if s is None:
            s = slots[v] = len(slots)
            order.append(v)
        return s

    def emit_raw(t):
        if isinstance(t, Var):
            out.append(("pv", t.name) if t.index == 0 else slot(t))
            return
        out.append(t.symbol)
        out.append(len(t.args))
        for a in t.args:
            emit_raw(a)

    def emit_resolved(t):
        while isinstance(t, Var):
            nxt = bindings.get(t)
            if nxt is None:
                break
            t = nxt
        if isinstance(t, Var):
            out.append(("pv", t.name) if t.index == 0 else slot(t))
            return
        out.append(t.symbol)
        out.append(len(t.args))
        for a in t.args:
            emit_resolved(a)

    emit_raw(node.goal)
    if node.constraints:
        out.append("|C")
        for a, b in sorted(node.constraints, key=str):
            out.append("|")
            emit_resolved(a)
            emit_resolved(b)
    out.append("|B")
    for x in sorted(problem_vars, key=lambda v: (v.name, v.index)):
        if x in bindings:
            out.append(("=pv", x.name))
            emit_resolved(x)
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        if v in bindings:
            out.append(("=", slots[v]))
            emit_resolved(v)
    out.append(node.degree)
    return tuple(out)


def _key_function(problem_vars: frozenset[Var]):
    """The state-key function of one solve call.  A key is a hashable
    identity of a node: the goal as written (its skeleton decides where LP
    may still fire, so it must not be resolved), the constraints, and the
    resolved bindings of every variable in scope, with fresh variables
    renamed by first occurrence, then the degree.  Serialized in one pass
    without building terms; a problem variable stands for itself.  This is
    the state key as `solve` computed it when it still kept constraints in
    its nodes (its logic kept verbatim); `reference_solve` keys by it."""
    markers = [(x, ("=pv", x.name))
               for x in sorted(problem_vars, key=lambda v: (v.name, v.index))]
    equation_strs: dict = {}
    degree_ids: dict = {}

    def equation_str(equation) -> str:
        text = equation_strs.get(equation)
        if text is None:
            text = equation_strs[equation] = str(equation)
        return text

    def node_key(node: ReferenceNode) -> tuple:
        bindings = node.bindings
        out: list = []
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

        def emit_raw(t: Term) -> None:
            if isinstance(t, Var):
                emit_var(t)
                return
            append(t.symbol)
            append(len(t.args))
            for a in t.args:
                emit_raw(a)

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

        emit_raw(node.goal)
        constraints = node.constraints
        if constraints:
            append("|C")
            if len(constraints) > 1:
                constraints = sorted(constraints, key=equation_str)
            for a, b in constraints:
                append("|")
                emit_resolved(a)
                emit_resolved(b)
        append("|B")
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
        degree_id = degree_ids.get(node.degree)
        if degree_id is None:
            degree_id = degree_ids[node.degree] = len(degree_ids)
        append(degree_id)
        return tuple(out)

    return node_key


@contextmanager
def replaced(scope, name, wrap):
    """Within the block, the engine global `name` of `scope` is wrap(its
    value)."""
    original = scope[name]
    scope[name] = wrap(original)
    try:
        yield
    finally:
        scope[name] = original


def built_nodes(trs, t, s, **kwargs) -> list:
    """The start and every node one `solve` call builds, recorded where each
    is constructed: `solve` identifies only some of them."""
    built = []

    def recording(make):
        def node(*args):
            built.append(make(*args))
            return built[-1]
        return node

    with replaced(solve.__globals__, "_Node", recording):
        solve(trs, t, s, **kwargs)
    return built


def random_problem(seed, quantale):
    rng = random.Random(seed)
    cfg = SystemConfig(quantale=quantale, n_constants=2, n_unary=1, n_binary=1,
                       max_rules=3, nontrivial_cbes=True)
    trs = random_system(rng, cfg)
    return (trs, *random_linear_problem(rng, trs))


def eager_twin(node) -> ReferenceNode:
    """The reference engine's eager node of the state a `solve` node stands
    for, on either strategy: its solved form as bindings, and no constraints."""
    return ReferenceNode(node.goal, frozenset(), node.solved, node.degree)


def check_partition(trs, t, s, **kwargs) -> int:
    """Within one solve, two built nodes are one state, with equal keys,
    exactly when their eager twins get equal reference keys.  Returns how
    many nodes were compared."""
    problem_vars = frozenset(vars_of(t) | vars_of(s))
    built = built_nodes(trs, t, s, **kwargs)
    node_key = _state_key_function(problem_vars)
    to_reference, to_new = {}, {}
    for node in built:
        new = node_key(node)
        reference = reference_node_key(eager_twin(node), problem_vars)
        assert to_reference.setdefault(new, reference) == reference, \
            (kwargs, "merges states the reference keeps apart")
        assert to_new.setdefault(reference, new) == new, \
            (kwargs, "splits a state the reference merges")
    return len(built)


class TestStateKeys:
    @pytest.mark.parametrize("stem", sorted(path.stem for path in DEMOS.glob("*.gtrs")))
    def test_partition_matches_reference(self, stem):
        pf = parse_file(str(DEMOS / f"{stem}.gtrs"))
        for problem in pf.problems:
            for strategy, order, steps in GOLDEN_SETTINGS:
                assert check_partition(pf.trs, problem.left, problem.right,
                                       threshold=problem.threshold, strategy=strategy,
                                       order=order, max_steps=steps) > 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantale=st.sampled_from(list(Quantale)),
           steps=st.integers(1, 3))
    def test_random_systems_partition_matches_reference(self, seed, quantale, steps):
        trs, t, s = random_problem(seed, quantale)
        for strategy in STRATEGIES:
            for order in ORDERS:
                check_partition(trs, t, s, strategy=strategy, order=order, max_steps=steps)

    @pytest.mark.parametrize("strategy, steps",
                             [(strategy, steps) for strategy, _, steps in GOLDEN_SETTINGS])
    def test_best_first_keys_every_node(self, strategy, steps):
        """Best-first identifies every node as it is built, so it computes
        one state key per built node and one for the start, at every golden
        setting's strategy and bound."""
        for name, trs, problem in demo_problems():
            result = solve(trs, problem.left, problem.right, threshold=problem.threshold,
                           strategy=strategy, order="best-first", max_steps=steps)
            assert result.states_keyed == result.successors_built + 1, name


# -- the engine before commuted LP steps were skipped --------------------------


@dataclass(frozen=True)
class ReferenceNode:
    """Internal search state; traces snapshot the bindings per applied rule
    and are resolved into BqTraceStep records only on emission.  `bindings`
    is the calculus substitution, which the state key and the trace frames
    read; `solved` is the triangular solved form of the bindings plus the
    constraints.  An eager node has discharged its constraints, so both are
    one dict.  A lazy node has no bindings: it collects its LP equations as
    constraints until one Con and one SU discharge them when it is popped."""

    goal: Term
    constraints: frozenset
    bindings: Bindings
    degree: QuantaleValue
    solved: Optional[Bindings] = None
    frames: tuple = ()

    def advance(self, tag, position, rule_index, goal, constraints, bindings, degree,
                solved=None):
        frame = (tag, position, rule_index, goal, constraints, bindings, degree)
        return ReferenceNode(goal, constraints, bindings, degree, solved,
                             self.frames + (frame,))


def reference_node_trace(node_frames) -> tuple[BqTraceStep, ...]:
    out = []
    for tag, pos, rule, goal, constraints, bindings, degree in node_frames:
        subst = Substitution.trusted(resolve_all(bindings))
        out.append(BqTraceStep(
            tag, pos, rule, goal,
            frozenset((subst.apply(a), subst.apply(b)) for a, b in constraints),
            subst, degree))
    return tuple(out)


@dataclass
class ReferenceResult(SolveResult):
    """A `reference_solve` result.  `bound_merged` counts the arrivals at
    the step bound dropped as already seen; bfs `solve` finishes such an
    arrival again wherever its budget can no longer bind."""

    bound_merged: int = 0


def reference_solve(trs: GradedTrs, t: Term, s: Term,
                    threshold: Optional[QuantaleValue] = None,
                    strategy: str = "eager-su",
                    order: str = "bfs",
                    max_steps: int = 10,
                    max_solutions: Optional[int] = None,
                    max_configs: Optional[int] = None) -> ReferenceResult:
    """Search calculus derivations from  t =? s; {}; identity; unit.

    Every configuration reaching goal true with no constraints is emitted as
    a solution (substitution restricted to the problem variables).  The
    strategy schedules the four rules: "eager-su" runs SU right after every
    LP and finishes a goal equation by Con then SU; "lazy" applies each rule
    as a step of its own, so constraints accumulate until SU discharges
    them.  A threshold prunes configurations whose degree falls below it;
    max_steps bounds the number of LP applications on a branch.
    Configurations whose constraint set has no unifier are dropped the
    moment they arise (the clash rule cannot be outrun: constraint sets only
    grow).  Problem terms must use declared symbols with their declared
    argument counts and no reserved symbol, or TrsError is raised.
    """
    if trs.signature.is_extended:
        raise TrsError("solve expects the unextended system")
    check_terms(trs.signature, (t, s), "problem term")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}")

    quantale = trs.quantale
    problem_vars = frozenset(vars_of(t) | vars_of(s))
    counter = FreshCounter(
        max_var_index([t, s] + [x for r in trs.rules for x in (r.lhs, r.rhs)]) + 1)
    start = ReferenceNode(App(EQ_SYMBOL, (t, s)), frozenset(), {}, quantale.unit)
    node_key = _key_function(problem_vars)

    goal_sig = trs.extended.signature
    grades = [cbe_normalize(quantale, CBE_ID)]  # grade id -> CBE; 0 is the root's
    grade_ids = {grades[0]: 0}
    child_grades: dict[tuple[int, str], tuple[int, ...]] = {}
    factors: dict[tuple[int, int], QuantaleValue] = {}
    steps: dict[tuple[QuantaleValue, QuantaleValue], Optional[QuantaleValue]] = {}
    degrees = {start.degree: start.degree}  # one object per degree value
    rules_by_head: dict[str, list[tuple[int, RewriteRule]]] = {}
    for i, rule in enumerate(trs.rules):
        rules_by_head.setdefault(rule.lhs.symbol, []).append((i, rule))

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

    def lp_candidates(node: ReferenceNode):
        """(position, rule index, rule, redex, degree factor); the position
        grade is accumulated along the traversal.  It draws no fresh
        variant (fresh indices decide the key's constraint order), so the
        depth-cut probe in run can call it without altering the search."""
        e = node.goal
        if e == TRUE_TERM:
            return
        bindings = node.bindings
        stack = [(ROOT, e, 0)]
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

    # A strategy is a successor function (LP only when `lp`, that is below
    # the step bound) and a finisher that emits what a popped node solves.

    def eager_successors(node: ReferenceNode, lp: bool) -> list[tuple["ReferenceNode", int]]:
        out = []
        for p, i, rule, sub, factor in (lp_candidates(node) if lp else ()):
            new_degree = step(node.degree, factor)
            if new_degree is None:
                continue
            lhs, rhs = fresh_variant((rule.lhs, rule.rhs), counter)
            new_bindings = dict(node.bindings)
            if not unifiable(((lhs, sub),), new_bindings):
                continue
            goal = replace_at(node.goal, p, rhs)
            constraint = frozenset({(lhs, sub)})
            nxt = node.advance("LP", p, i, goal, constraint,
                               node.bindings, new_degree)
            nxt = nxt.advance("SU", None, None, goal, frozenset(),
                              new_bindings, new_degree)
            out.append((nxt, 1))
        return out

    def lazy_successors(node: ReferenceNode, lp: bool) -> list[tuple["ReferenceNode", int]]:
        out = []
        for p, i, rule, sub, factor in (lp_candidates(node) if lp else ()):
            new_degree = step(node.degree, factor)
            if new_degree is None:
                continue
            lhs, rhs = fresh_variant((rule.lhs, rule.rhs), counter)
            equation = (lhs, resolve(sub, node.bindings))
            solved = dict(node.solved or {})
            if not unifiable((equation,), solved):
                continue  # Cla fires on this configuration
            out.append((node.advance("LP", p, i, replace_at(node.goal, p, rhs),
                                     node.constraints | {equation}, node.bindings,
                                     new_degree, solved), 1))
        if node.constraints:
            rho = mgu(node.constraints)
            if isinstance(rho, Substitution):
                new_bindings = dict(node.bindings)
                new_bindings.update(rho.items())
                out.append((node.advance("SU", None, None, node.goal, frozenset(),
                                         new_bindings, node.degree), 0))
        e = node.goal
        if e != TRUE_TERM and _goal_is_equation(e):
            equation = (resolve(e.args[0], node.bindings), resolve(e.args[1], node.bindings))
            solved = dict(node.solved or {})
            if unifiable((equation,), solved):
                out.append((node.advance("Con", None, None, TRUE_TERM,
                                         node.constraints | {equation},
                                         node.bindings, node.degree, solved), 0))
        return out

    emitted: dict[object, Solution] = {}
    expanded = bound_merged = 0
    depth_cut = False
    stopped = "exhausted"

    def emit(final: ReferenceNode) -> None:
        restricted = canonical_subst(
            Substitution.trusted(resolve_all(final.bindings)).restrict(problem_vars))
        key = (restricted, final.degree)
        if key not in emitted:
            emitted[key] = Solution(restricted, final.degree,
                                    reference_node_trace(final.frames))

    def eager_finish(node: ReferenceNode) -> None:
        """Con then SU on the goal equation, emitted when it unifies."""
        e = node.goal
        if not _goal_is_equation(e):
            return
        new_bindings = dict(node.bindings)
        if not unifiable(((e.args[0], e.args[1]),), new_bindings):
            return
        constraint = (resolve(e.args[0], node.bindings),
                      resolve(e.args[1], node.bindings))
        final = node.advance("Con", None, None, TRUE_TERM,
                             node.constraints | {constraint},
                             node.bindings, node.degree)
        final = final.advance("SU", None, None, TRUE_TERM, frozenset(),
                              new_bindings, node.degree)
        emit(final)

    def lazy_finish(node: ReferenceNode) -> None:
        """Emit a node that Con and SU have already brought to true."""
        if node.goal == TRUE_TERM and not node.constraints:
            emit(node)

    if strategy == "eager-su":
        successors, finish = eager_successors, eager_finish
    else:
        successors, finish = lazy_successors, lazy_finish

    def run(order_name: str, bound: int) -> None:
        nonlocal expanded, bound_merged, depth_cut, stopped
        seen: dict[object, int] = {node_key(start): 0}
        if order_name == "bfs":
            queue = deque([(start, 0)])
            pop = queue.popleft
            push = queue.append
        else:  # best-first on the accumulated degree
            seq = 0
            heap = [(quantale.sort_key(start.degree), 0, start, 0)]

            def pop():
                _, _, node, depth = heapq.heappop(heap)
                return node, depth

            def push(item):
                nonlocal seq
                node, depth = item
                seq += 1
                heapq.heappush(heap, (quantale.sort_key(node.degree), seq, node, depth))

            queue = heap
        while queue:
            if max_configs is not None and expanded >= max_configs:
                stopped = "config-limit"
                return
            node, depth = pop()
            expanded += 1
            finish(node)
            if max_solutions is not None and len(emitted) >= max_solutions:
                stopped = "solution-limit"
                return
            lp = depth < bound
            # at the bound LP successors would overrun it: skip building them,
            # but record whether the bound cut a branch where LP could fire
            # (an over-approximation: a compatible redex/rule pair may yet
            # fail unification)
            if not lp and not depth_cut and next(lp_candidates(node), None) is not None:
                depth_cut = True
            for nxt, cost in successors(node, lp):
                new_depth = depth + cost
                key = node_key(nxt)
                if seen.get(key, bound + 1) <= new_depth:
                    bound_merged += new_depth == bound
                    continue
                seen[key] = new_depth
                push((nxt, new_depth))

    if order == "iddfs":
        # iterative deepening over the LP-step bound; each round is explored
        # breadth-first (depth-monotone pops avoid re-expanding states that a
        # depth-first round would rediscover at shallower depths)
        for bound in range(0, max_steps + 1):
            depth_cut = False
            run("bfs", bound)
            if stopped != "exhausted":
                break
    else:
        run(order, max_steps)

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
    return ReferenceResult(solutions, complete, stopped, expanded,
                           bound_merged=bound_merged)



def ordered(result):
    return [(str(sol.subst), sol.degree, sol.dominated) for sol in result.solutions]


def assert_matches_reference(trs, t, s, label, **kwargs):
    """`solve` emits the solutions that `reference_solve` emits on the same
    strategy.  It stops as the reference does on the state space it searches,
    and expands no more configurations there, but for the duplicate arrivals
    at the step bound that bfs expands: lazy `solve` searches the eager state
    space, so those figures come from the eager reference."""
    result = solve(trs, t, s, **kwargs)
    reference = reference_solve(trs, t, s, **kwargs)
    searched = reference
    if kwargs.get("strategy") == "lazy":
        searched = reference_solve(trs, t, s, **{**kwargs, "strategy": "eager-su"})
    assert ordered(result) == ordered(reference), label
    assert result.stopped == searched.stopped, label
    expanded = searched.configs_expanded
    if kwargs.get("order", "bfs") == "bfs":
        expanded += searched.bound_merged
    assert result.configs_expanded <= expanded, label
    return result


def demo_problems():
    for path in sorted(DEMOS.glob("*.gtrs")):
        pf = parse_file(str(path))
        for index, problem in enumerate(pf.problems):
            yield f"{path.stem}/{index}", pf.trs, problem


class TestReferenceEngine:
    """`solve` skips an LP step when the step pair is generated in its other
    order; `reference_solve` (the engine before, kept verbatim) builds both.
    Both must emit the same solutions and stop for the same reason, lazy
    `solve` as eager `reference_solve` does."""

    @pytest.mark.parametrize("strategy, order, steps", GOLDEN_SETTINGS)
    def test_demo_problems(self, strategy, order, steps, monkeypatch):
        calls = []
        original = replace_at

        def counted_replace_at(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setitem(reference_solve.__globals__, "replace_at", counted_replace_at)
        for label, trs, problem in demo_problems():
            calls.clear()
            result = assert_matches_reference(
                trs, problem.left, problem.right, label, threshold=problem.threshold,
                strategy=strategy, order=order, max_steps=steps)
            if strategy == "eager-su" and order == "bfs":
                # an eager successor is built exactly where the reference
                # engine calls replace_at
                assert result.successors_built + result.commuted_skipped == len(calls), label

    def test_commuted_step_at_the_bound(self):
        """After the step at 1.1 the only compatible redex is at 1.2, which
        commutes before it (and then fails to unify): the bound still cut a
        branch where LP could fire, so the search stops at depth-limit."""
        pf = parse("quantale lawvere\nvar x y w\nfun a/0\nfun b/0\nfun S/1\n"
                   "fun g/2\nfun h/2\nrule 1 : a -> b\nrule 1 : g(x, x) -> b\n"
                   "solve h(a, g(y, S(y))) =? w\n")
        problem = pf.problems[0]
        for strategy in STRATEGIES:
            for order in ORDERS:
                for steps in (1, 2, 3):
                    result = assert_matches_reference(
                        pf.trs, problem.left, problem.right, (strategy, order, steps),
                        strategy=strategy, order=order, max_steps=steps)
                    assert result.stopped == ("depth-limit" if steps == 1 else "exhausted")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_budget_stops_as_the_reference(self, strategy):
        """bfs queues its arrivals at the step bound unidentified, but while
        the budget may bind it identifies each as it pops, so only distinct
        states count against the budget.  Peano problem 0 at 3 steps expands
        68 distinct states and one duplicate arrival at the bound: at every
        budget up to one past that, the search stops as the eager reference
        does, with its solutions."""
        pf = parse_file(str(DEMOS / "peano.gtrs"))
        problem = pf.problems[0]
        for max_configs in range(70):
            kwargs = dict(threshold=problem.threshold, max_steps=3, max_configs=max_configs)
            result = solve(pf.trs, problem.left, problem.right, strategy=strategy, **kwargs)
            reference = reference_solve(pf.trs, problem.left, problem.right, **kwargs)
            assert (result.stopped, ordered(result)) == \
                (reference.stopped, ordered(reference)), max_configs

    def test_duplicate_arrival_at_the_bound_cuts_nothing(self):
        """f(b) -> f(b) takes f(u) =? a to one state at depths 1 and 2.  bfs
        queues the depth-2 arrival unidentified and expands it, and the rule
        still fits it there, but it repeats a state expanded below the bound,
        so the bound cut no branch."""
        pf = parse("quantale lawvere\nvar u\nfun a/0\nfun b/0\nfun f/1 : (id)\n"
                   "rule 0 : f(b) -> f(b)\nsolve f(u) =? a\n")
        problem = pf.problems[0]
        for strategy in STRATEGIES:
            for order in ORDERS:
                result = assert_matches_reference(
                    pf.trs, problem.left, problem.right, (strategy, order),
                    strategy=strategy, order=order, max_steps=2)
                assert result.stopped == "exhausted"

    @pytest.mark.parametrize("max_configs", [3, 10, 40])
    def test_config_limit_keeps_reference_solutions(self, max_configs):
        for label, trs, problem in demo_problems():
            for strategy in STRATEGIES:
                kwargs = dict(threshold=problem.threshold, strategy=strategy,
                              max_steps=6, max_configs=max_configs)
                reference = reference_solve(trs, problem.left, problem.right, **kwargs)
                result = solve(trs, problem.left, problem.right, **kwargs)
                assert {sol[:2] for sol in ordered(result)} >= \
                    {sol[:2] for sol in ordered(reference)}, (label, strategy)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantale=st.sampled_from(list(Quantale)),
           steps=st.integers(1, 3))
    # best-first queued a deeper arrival of a state that a shallower one then
    # reached: expanding both cost one config more than the reference
    @example(seed=1789372, quantale=Quantale.LAWVERE, steps=3)
    @example(seed=573897072, quantale=Quantale.LAWVERE_MAX, steps=3)
    def test_random_systems(self, seed, quantale, steps):
        trs, t, s = random_problem(seed, quantale)
        for strategy in STRATEGIES:
            for order in ORDERS:
                assert_matches_reference(trs, t, s, (strategy, order),
                                         strategy=strategy, order=order, max_steps=steps)
            kwargs = dict(strategy=strategy, max_steps=steps, max_configs=8)
            limited = solve(trs, t, s, **kwargs)
            limited_reference = reference_solve(trs, t, s, **kwargs)
            assert {sol[:2] for sol in ordered(limited)} >= \
                {sol[:2] for sol in ordered(limited_reference)}, strategy

    def test_merged_arrival_that_skips_another_step(self):
        """Two arrivals of one key at one depth came by LP steps at different
        positions, so they skip different steps; `seen` keeps one of them.
        The smallest request found where that happens below the bound."""
        pf = parse("quantale lawvere-max\nvar u w\nfun a/0\nfun b/0\nfun c/0\n"
                   "fun f/1 : (scale(2))\nfun g/2 : (id, id)\n"
                   "rule 0 : c -> f(b)\nrule 0 : c -> c\n"
                   "solve g(u, c) =? f(g(w, c))\n")
        problem = pf.problems[0]
        for strategy in STRATEGIES:
            for order in ORDERS:
                for steps in (1, 2, 3):
                    assert_matches_reference(
                        pf.trs, problem.left, problem.right, (strategy, order, steps),
                        strategy=strategy, order=order, max_steps=steps)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantale=st.sampled_from(list(Quantale)),
           steps=st.integers(1, 3))
    def test_random_systems_reach_the_reference_states(self, seed, quantale, steps):
        """Skipping commuted steps loses no state: on either strategy `solve`
        builds a node of every state that eager `reference_solve` builds
        (whose nodes carry no constraints, so their keys do not depend on
        fresh indices), and no other."""
        trs, t, s = random_problem(seed, quantale)
        for order in ORDERS:
            reference = reached_states(reference_solve, trs, t, s, strategy="eager-su",
                                       order=order, max_steps=steps)
            for strategy in STRATEGIES:
                assert reached_states(solve, trs, t, s, strategy=strategy, order=order,
                                      max_steps=steps) == reference, (strategy, order)


def reached_states(engine, trs, t, s, **kwargs) -> set:
    """The reference keys of every node the engine built during one call,
    the start's included: each node `solve` builds, keyed here by its eager
    twin, and each node `reference_solve` keys."""
    problem_vars = vars_of(t) | vars_of(s)
    if engine is solve:
        return {reference_node_key(eager_twin(node), problem_vars)
                for node in built_nodes(trs, t, s, **kwargs)}
    reached = set()

    def recording(make):
        def made(*args):
            node_key = make(*args)

            def recorded_key(node):
                reached.add(reference_node_key(node, problem_vars))
                return node_key(node)
            return recorded_key
        return made

    with replaced(engine.__globals__, "_key_function", recording):
        engine(trs, t, s, **kwargs)
    return reached


# -- the LP successor before its unification became one walk ------------------


def reference_lp_successor(rule, sub, parent_solved, counter):
    """The unification of `solve`'s LP successor before it walked the rule's
    own left side, its logic kept verbatim: the equation, the extended
    solved form and the right side of the variant, or None on Cla."""
    lhs, rhs = fresh_variant((rule.lhs, rule.rhs), counter)
    equation = (lhs, sub)
    solved = dict(parent_solved)
    if not unifiable((equation,), solved):
        return None
    return equation, solved, rhs


@contextmanager
def lp_walks_checked():
    """Within the block, every LP candidate `solve` walks is also given to
    `reference_lp_successor`, from the same solved form and counter value,
    and the two must agree: the verdict, the solved form binding for binding
    in insertion order, the right side of the variant, the counter value
    afterwards, and the left side `_variant_lhs` rebuilds for the frame.
    Yields the list of (rule, verdict) pairs compared."""
    scope = solve.__globals__
    walk = scope["_lp_walk"]
    compared = []

    def checked(rule, variables, redex, solved, counter):
        before, first = dict(solved), counter.value
        reference_counter = FreshCounter(first)
        expected = reference_lp_successor(rule, redex, before, reference_counter)
        rhs = walk(rule, variables, redex, solved, counter)
        assert (rhs is None) == (expected is None), (rule, redex, before)
        assert counter.value == reference_counter.value
        if expected is not None:
            equation, reference_solved, reference_rhs = expected
            assert list(solved.items()) == list(reference_solved.items()), (rule, redex)
            assert rhs == reference_rhs
            assert _variant_lhs(rule, first) == equation[0]
        compared.append((rule, rhs is not None))
        return rhs

    scope["_lp_walk"] = checked
    try:
        yield compared
    finally:
        scope["_lp_walk"] = walk


class TestLpWalk:
    @pytest.mark.parametrize("strategy, order, steps", GOLDEN_SETTINGS)
    def test_demo_problems(self, strategy, order, steps):
        with lp_walks_checked() as compared:
            for _, trs, problem in demo_problems():
                solve(trs, problem.left, problem.right, threshold=problem.threshold,
                      strategy=strategy, order=order, max_steps=steps)
        assert any(verdict for _, verdict in compared)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantale=st.sampled_from(list(Quantale)),
           steps=st.integers(1, 3))
    def test_random_systems(self, seed, quantale, steps):
        trs, t, s = random_problem(seed, quantale)
        with lp_walks_checked():
            for strategy in STRATEGIES:
                for order in ORDERS:
                    solve(trs, t, s, strategy=strategy, order=order, max_steps=steps)

    def test_random_systems_cover_clashes_of_repeated_variables(self):
        """`compatible` lets few clashes through, all of them on a repeated
        variable of the left side here."""
        with lp_walks_checked() as compared:
            for seed in range(300):
                trs, t, s = random_problem(seed, list(Quantale)[seed % len(Quantale)])
                solve(trs, t, s, max_steps=3)
        assert any(verdict for _, verdict in compared)
        assert any(not verdict and not is_linear(rule.lhs) for rule, verdict in compared)

    @pytest.mark.parametrize("lhs, goal", [("f(x, x)", "f(y, S(y))"),
                                           ("f(S(x), x)", "f(y, y)")])
    def test_repeated_variable_runs_the_occurs_check(self, lhs, goal):
        """f(x, x) against f(y, S(y)): the second x meets S(y) once x is
        bound to y.  f(S(x), x) against f(y, y): x is bound to y first, then
        y meets S(x).  Only the occurs check refutes either step."""
        pf = parse("quantale lawvere\nvar x y\nfun Z/0\nfun S/1\nfun f/2\n"
                   f"fun a/0\nrule 1 : {lhs} -> a\nsolve {goal} =? a\n")
        problem = pf.problems[0]
        with lp_walks_checked() as compared:
            result = solve(pf.trs, problem.left, problem.right, max_steps=1)
        assert [verdict for _, verdict in compared] == [False]
        assert result.clash_pruned == 1 and not result.solutions

    def test_fresher_of_two_variables_is_bound(self):
        """f(S(z), S(y)) against f(u, u): u is bound to S(y') first, then
        the walk meets z' and y' unbound and binds the fresher, y' (the
        reference compares the orientation)."""
        pf = parse("quantale lawvere\nvar u y z\nfun S/1\nfun f/2\nfun a/0\n"
                   "rule 1 : f(S(z), S(y)) -> a\nsolve f(u, u) =? a\n")
        problem = pf.problems[0]
        with lp_walks_checked() as compared:
            result = solve(pf.trs, problem.left, problem.right, max_steps=1)
        assert [verdict for _, verdict in compared] == [True]
        assert [str(sol.subst) for sol in result.solutions] == ["{u -> S(?'1)}"]


if __name__ == "__main__" and sys.argv[1:] == ["--write-golden"]:
    outcomes = {key: demo_outcome(key) for key in golden_keys()}
    dropped = sorted(set(RECORDED) - set(outcomes))
    if dropped:  # a regeneration may add a case, never drop a recorded one
        sys.exit(f"the regeneration would drop recorded cases: {dropped}")
    GOLDEN.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
