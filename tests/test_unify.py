"""Most general unifiers and matching."""

import random

from hypothesis import example, given, settings, strategies as st

from qnarrow import App, Substitution, UnifyFailure, Var, match, mgu, unifiable, vars_of
from qnarrow.oracle import SystemConfig, random_signature, random_term
from qnarrow.unify import resolve

from conftest import S, X, Y, Z, plus

XP = Var("xp")

term_strategy = st.recursive(
    st.sampled_from((App("a"), App("b"), Var("x"), Var("y"), Var("w"))),
    lambda sub: st.builds(lambda l, r: App("f", (l, r)), sub, sub),
    max_leaves=8)


@given(t=term_strategy, s=term_strategy)
def test_mgu_result_unifies_or_problem_has_no_unifier(t, s):
    result = mgu([(t, s)])
    if isinstance(result, Substitution):
        assert result.apply(t) == result.apply(s)
        assert unifiable([(t, s)])
    else:
        assert result.reason in ("clash", "occurs")
        assert not unifiable([(t, s)])


class TestMgu:
    def test_decomposition(self):
        result = mgu([(App("f", (X, App("b"))), App("f", (App("a"), Y)))])
        assert isinstance(result, Substitution)
        assert result.get(X) == App("a")
        assert result.get(Y) == App("b")

    def test_occurs_check(self):
        result = mgu([(X, App("f", (X,)))])
        assert isinstance(result, UnifyFailure)
        assert result.reason == "occurs"

    def test_clash(self):
        result = mgu([(App("a"), App("b"))])
        assert isinstance(result, UnifyFailure)
        assert result.reason == "clash"

    def test_peano_step_unifier(self):
        # (x+x)+x against a fresh-variable pattern xp+Z forces x to Z
        result = mgu([(plus(plus(X, X), X), plus(XP, Z))])
        assert isinstance(result, Substitution)
        assert result.get(X) == Z
        assert result.get(XP) == plus(Z, Z)

    def test_empty_set(self):
        assert unifiable([])
        assert mgu([]) == Substitution()

    def test_transitive_clash(self):
        assert not unifiable([(X, App("a")), (X, App("b"))])

    def test_unifies_every_pair(self):
        rng = random.Random(21)
        cfg = SystemConfig(n_constants=2, n_unary=1, n_binary=1)
        checked = 0
        while checked < 200:
            sig = random_signature(rng, cfg)
            a = random_term(rng, sig, [X, Y], 3)
            b = random_term(rng, sig, [X, Var("u"), Var("w")], 3)
            result = mgu([(a, b)])
            if isinstance(result, Substitution):
                assert result.apply(a) == result.apply(b)
                # idempotent by construction
                assert not (vars_of_ranges(result) & result.domain())
                checked += 1


def vars_of_ranges(subst):
    out = set()
    for _, t in subst.items():
        out |= vars_of(t)
    return out


class TestMostGenerality:
    def test_factors_through_constructed_unifiers(self):
        rng = random.Random(33)
        cfg = SystemConfig(n_constants=2, n_unary=1, n_binary=1)
        for _ in range(200):
            sig = random_signature(rng, cfg)
            w = random_term(rng, sig, [X, Y], 3)
            theta = Substitution({
                X: random_term(rng, sig, [], 2),
                Y: random_term(rng, sig, [], 2),
            })
            pair = (w, theta.apply(w))
            rho = mgu([pair])
            assert isinstance(rho, Substitution)
            # some rho2 with rho . rho2 == theta on the pair's variables
            scope = sorted(vars_of(pair[0]) | vars_of(pair[1]),
                           key=lambda v: (v.name, v.index))
            packed_pattern = App("", tuple(rho.apply(x) for x in scope))
            packed_target = App("", tuple(theta.apply(x) for x in scope))
            rho2 = match(packed_pattern, packed_target)
            assert rho2 is not None
            for x in scope:
                assert rho2.apply(rho.apply(x)) == theta.apply(x)


class TestMatch:
    def test_basic(self):
        sigma = match(plus(XP, Z), plus(S(Z), Z))
        assert sigma is not None and sigma.get(XP) == S(Z)

    def test_subject_vars_rigid(self):
        assert match(App("a"), X) is None
        sigma = match(XP, S(X))
        assert sigma is not None and sigma.get(XP) == S(X)

    def test_inconsistent_bindings(self):
        assert match(plus(XP, XP), plus(Z, S(Z))) is None


# -- the triangular solver against the transformation-style algorithm ------


def reference_mgu(equations):
    """The transformation-style solver the triangular one replaced, kept
    verbatim: every binding is applied at once to the pending and solved
    pairs, so the worklist and the bindings stay fully instantiated."""
    work = list(equations)
    solved = {}
    while work:
        a, b = work.pop()
        if a == b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            x, t = (a, b) if isinstance(a, Var) else (b, a)
            # bind the fresher of two variables, keeping problem variables
            # (and therefore the rendered output) stable under renaming
            if isinstance(t, Var) and (t.index, t.name) > (x.index, x.name):
                x, t = t, x
            if x in vars_of(t):
                return UnifyFailure("occurs", x, t)
            one = Substitution({x: t})
            work = [(one.apply(u), one.apply(v)) for u, v in work]
            solved = {y: one.apply(u) for y, u in solved.items()}
            solved[x] = t
            continue
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return UnifyFailure("clash", a, b)
        work.extend(zip(a.args, b.args))
    return Substitution(solved)


# a few names at a few indices, so variables are shared across equations
# and problem variables (index 0) meet fresh ones
indexed_var = st.builds(Var, st.sampled_from("xyz"), st.integers(0, 3))
indexed_term = st.recursive(
    st.one_of(indexed_var, st.sampled_from((App("a"), App("b")))),
    lambda sub: st.one_of(st.builds(lambda t: App("g", (t,)), sub),
                          st.builds(lambda l, r: App("f", (l, r)), sub, sub)),
    max_leaves=6)
equation_sets = st.lists(st.tuples(indexed_term, indexed_term), min_size=1, max_size=4)


def solved_substitution(bindings):
    return Substitution({x: resolve(x, bindings) for x in bindings})


# variable-variable equations, where the orientation rule decides the result
CHAIN = [(Var("x", 2), Var("y")), (Var("z", 1), Var("x", 2)), (Var("y"), Var("x"))]


class TestTriangularSolver:
    @settings(max_examples=300)
    @example(equations=CHAIN)
    @given(equations=equation_sets)
    def test_mgu_matches_reference(self, equations):
        expected = reference_mgu(equations)
        result = mgu(equations)
        # same unifier, same failure reason and sides
        assert type(result) is type(expected)
        assert result == expected
        if isinstance(result, Substitution):
            assert list(result.items()) == list(expected.items())
        assert unifiable(equations) == isinstance(expected, Substitution)

    @settings(max_examples=300)
    @example(first=CHAIN[:1], second=CHAIN[1:])
    @given(first=equation_sets, second=equation_sets)
    def test_extension_agrees_with_mgu_of_the_union(self, first, second):
        bindings = {}
        if not unifiable(first, bindings):
            assert not isinstance(mgu(first + second), Substitution)
            return
        extended = unifiable(second, bindings)
        # the pending list pops from its end: `first` is solved before `second`
        union = reference_mgu(second + first)
        assert extended == isinstance(union, Substitution)
        if extended:
            assert solved_substitution(bindings) == union

    def test_failure_sides_are_instantiated(self):
        x, y = Var("x"), Var("y")
        result = mgu([(y, App("g", (x,))), (x, App("a"))])
        assert result == Substitution({x: App("a"), y: App("g", (App("a"),))})
        failure = mgu([(y, App("f", (x, x))), (x, App("g", (y,)))])
        assert failure == reference_mgu([(y, App("f", (x, x))), (x, App("g", (y,)))])
        assert failure.reason == "occurs"

    def test_extension_leaves_earlier_bindings_alone(self):
        x, y, fresh = Var("x"), Var("y"), Var("x", 4)
        bindings = {}
        assert unifiable([(fresh, App("g", (x,)))], bindings)
        before = dict(bindings)
        assert unifiable([(fresh, App("g", (App("a"),)))], bindings)
        assert {k: v for k, v in bindings.items() if k in before} == before
        assert resolve(fresh, bindings) == App("g", (App("a"),))
        assert not unifiable([(x, App("b"))], dict(bindings))
        assert not unifiable([(y, App("g", (y,)))], dict(bindings))
