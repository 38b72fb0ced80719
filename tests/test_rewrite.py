"""The graded rewrite relation, attribute checks, search, and joinability."""

import random
from pathlib import Path

import pytest

from qnarrow import (
    App,
    GradedTrs,
    Quantale,
    RewriteRule,
    Signature,
    Substitution,
    cbe_apply,
    check_trs,
    grade_of_position,
    innermost_rewrite_steps,
    joinable,
    q_leq,
    q_tensor,
    rewrite_search,
    rewrite_steps,
)
from qnarrow import CBE_ID, CbeScale, Var, match, parse_file, replace_at, solve, vars_of
from qnarrow.quantale import QuantaleMismatchError
from qnarrow.rewrite import RewriteStep, TrsError, check_terms
from qnarrow.narrow import derivations, narrowing_steps
from qnarrow.oracle import (SystemConfig, best_conversion_degree, enumerate_best_unifiers,
                            random_system, random_term, verify_solution)
from qnarrow.term import (
    EQ_SYMBOL,
    TRUE_SYMBOL,
    FreshCounter,
    fresh_variant,
    fun_positions,
    max_var_index,
    subterm_at,
)

from conftest import S, X, Y, Z, num, plus

DEMOS = Path(__file__).resolve().parent.parent / "demos"

L = Quantale.LAWVERE


class TestRuleConditions:
    def test_variable_lhs_rejected(self):
        with pytest.raises(TrsError):
            RewriteRule(L.degree(0), X, App("a"))

    def test_extra_rhs_variables_rejected(self):
        with pytest.raises(TrsError):
            RewriteRule(L.degree(0), App("f", (X,)), App("f", (Y,)))

    def test_degree_quantale_must_match(self):
        sig = Signature(L, {"a": (), "b": ()})
        rule = RewriteRule(Quantale.BOOL.degree(1), App("a"), App("b"))
        with pytest.raises(TrsError):
            GradedTrs(sig, (rule,))


class TestCheckTrs:
    def test_peano_attributes(self, peano):
        report = check_trs(peano)
        assert report.per_rule[0].balanced          # x+Z -> x
        assert report.per_rule[0].right_linear
        assert report.per_rule[1].balanced          # x+S(y) -> S(x+y)
        assert report.balanced and report.right_linear and report.left_linear
        assert not report.right_ground
        assert report.confluent_declared

    def test_unbalanced_rule_detected(self, unbalanced):
        report = check_trs(unbalanced)
        assert not report.per_rule[0].balanced      # f(x) -> g(x), f scales by 3
        assert report.per_rule[1].balanced          # a -> b, ground
        assert not report.balanced

    def test_cubic_attributes(self, cubic):
        report = check_trs(cubic)
        assert report.right_ground
        assert report.balanced and report.right_linear


class TestRewriteSteps:
    def test_two_steps_from_fa(self, innermost_system):
        steps = rewrite_steps(innermost_system, App("f", (App("a"),)))
        summary = {(st.position, st.rule_index, str(st.degree)) for st in steps}
        assert summary == {((), 0, "0"), ((1,), 1, "2")}
        assert all(st.result == App("f", (App("b"),)) for st in steps)

    def test_normal_form_empty(self, peano):
        assert rewrite_steps(peano, Z) == []

    def test_peano_single_successor_step(self, peano):
        steps = rewrite_steps(peano, S(Z))
        assert len(steps) == 1
        st = steps[0]
        assert st.position == () and st.rule_index == 2
        assert st.degree == L.degree(1) and st.result == Z

    def test_degrees_recomputable(self, peano, unbalanced):
        rng = random.Random(2)
        for trs in (peano, unbalanced):
            sig = trs.signature
            terms = [random_term(rng, sig, [X, Y], 3) for _ in range(40)]
            for t in terms:
                for st in rewrite_steps(trs, t):
                    grade = grade_of_position(sig, t, st.position)
                    expected = cbe_apply(grade, trs.rules[st.rule_index].degree)
                    assert st.degree == expected

    def test_finite_branching_bound(self, peano):
        from qnarrow import positions
        rng = random.Random(4)
        for _ in range(40):
            t = random_term(rng, peano.signature, [X, Y], 3)
            assert len(rewrite_steps(peano, t)) <= len(positions(t)) * len(peano.rules)

    def test_closure_under_substitution(self, peano):
        rng = random.Random(6)
        for _ in range(60):
            t = random_term(rng, peano.signature, [X, Y], 3)
            sigma = Substitution({X: random_term(rng, peano.signature, [], 2)})
            instance = sigma.apply(t)
            steps = {(st.position, st.rule_index, st.degree)
                     for st in rewrite_steps(peano, t)}
            inst_steps = {(st.position, st.rule_index, st.degree)
                          for st in rewrite_steps(peano, instance)}
            assert steps <= inst_steps


def reference_rewrite_steps(trs, s):
    """rewrite_steps as it was before the rule index (its logic kept
    verbatim): every rule on a fresh variant at every function position."""
    counter = FreshCounter(max_var_index([s]) + 1)
    steps = []
    for p in fun_positions(s):
        sub = subterm_at(s, p)
        grade = grade_of_position(trs.signature, s, p)
        for i, rule in enumerate(trs.rules):
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


def step_view(step, subject):
    """A step with the fresh indices of its rule variables forgotten: the
    substitution is keyed by rule-variable name."""
    domain = step.subst.domain()
    # fresh variables never capture a variable of the subject
    assert all(x.index > max_var_index([subject]) for x in domain)
    by_name = {x.name: t for x, t in step.subst.items()}
    assert len(by_name) == len(domain)
    return step.position, step.rule_index, step.degree, step.result, by_name


def instantiate(t, env):
    if isinstance(t, Var):
        return env.get(t, t)
    return App(t.symbol, tuple(instantiate(a, env) for a in t.args))


def subjects_for(rng, trs, count):
    """Random terms over the rule variables' own names (and an indexed
    variable), the rules' sides themselves, and instances of the left sides
    embedded in random contexts, so that most subjects have redexes."""
    sig = trs.signature
    names = sorted({x.name for r in trs.rules for x in vars_of(r.lhs)} | {"x", "y"})
    variables = [Var(n) for n in names] + [Var("x", 2)]
    out = [side for r in trs.rules for side in (r.lhs, r.rhs)]
    for _ in range(count):
        out.append(random_term(rng, sig, variables, 3))
        rule = rng.choice(trs.rules)
        # simultaneous, so a rule variable may occur in its own image
        redex = instantiate(rule.lhs, {x: random_term(rng, sig, variables, 2)
                                       for x in vars_of(rule.lhs)})
        context = random_term(rng, sig, variables, 2)
        spots = fun_positions(context)
        out.append(replace_at(context, rng.choice(spots), redex) if spots else redex)
    return out


class TestRewriteStepsReference:
    """The rule index must reproduce the full scan step for step."""

    def assert_same_steps(self, trs, subjects):
        found = 0
        for t in subjects:
            new = [step_view(st, t) for st in rewrite_steps(trs, t)]
            old = [step_view(st, t) for st in reference_rewrite_steps(trs, t)]
            assert new == old, (trs.rules, t)
            found += len(new)
        assert found > 0

    def test_fixture_systems(self, peano, cubic, chain, unbalanced, innermost_system):
        rng = random.Random(11)
        for trs in (peano, cubic, chain, unbalanced, innermost_system):
            subjects = subjects_for(rng, trs, 30)
            self.assert_same_steps(trs, subjects)
            # the extended system's join rule x =? x -> true is non-linear
            pairs = [App(EQ_SYMBOL, (a, b)) for a, b in zip(subjects, subjects[1:])]
            pairs += [App(EQ_SYMBOL, (a, a)) for a in subjects[:10]]
            self.assert_same_steps(trs.extended, pairs)

    def test_demo_systems(self):
        rng = random.Random(12)
        for path in sorted(DEMOS.glob("*.gtrs")):
            pf = parse_file(str(path))
            subjects = subjects_for(rng, pf.trs, 30)
            subjects += [side for problem in pf.problems
                         for side in (problem.left, problem.right)]
            self.assert_same_steps(pf.trs, subjects)

    def test_random_systems(self):
        """All five quantales, non-identity sensitivities, and left sides
        that may repeat a variable."""
        rng = random.Random(13)
        for trial in range(60):
            q = list(Quantale)[trial % 5]
            cfg = SystemConfig(quantale=q, max_rules=4, n_constants=2, n_unary=1,
                               n_binary=2, nontrivial_cbes=True)
            trs = random_system(rng, cfg)
            self.assert_same_steps(trs, subjects_for(rng, trs, 8))

    def test_non_linear_left_sides(self):
        sig = Signature(L, {"a": (), "b": (), "f": (CBE_ID, CBE_ID), "g": (CbeScale(2),)})
        f = lambda s, t: App("f", (s, t))
        g = lambda t: App("g", (t,))
        x0, y0 = Var("x"), Var("y")
        trs = GradedTrs(sig, (
            RewriteRule(L.degree(1), f(x0, x0), x0),
            RewriteRule(L.degree(2), f(x0, g(x0)), g(f(x0, x0))),
            RewriteRule(L.degree(0), g(y0), f(y0, App("a"))),
        ))
        a, b = App("a"), App("b")
        subjects = [f(X, X), f(X, Y), f(Y, g(Y)), g(f(X, X)), f(f(X, X), f(X, X)),
                    f(Var("x", 5), g(Var("x", 5))), f(a, a), f(a, b), g(f(a, g(a)))]
        self.assert_same_steps(trs, subjects)


class TestInnermost:
    def test_only_inner_step(self, innermost_system):
        steps = innermost_rewrite_steps(innermost_system, App("f", (App("a"),)))
        assert [(st.position, st.rule_index) for st in steps] == [((1,), 1)]
        assert steps[0].degree == L.degree(2)

    def test_normal_form(self, peano):
        assert innermost_rewrite_steps(peano, Z) == []

    def test_root_step_when_no_proper_redex(self, peano):
        steps = innermost_rewrite_steps(peano, S(Z))
        assert [(st.position, st.rule_index) for st in steps] == [((), 2)]


class TestExtend:
    def test_adds_rule_and_symbols(self, peano):
        ext = peano.extended
        assert len(ext.rules) == 4
        join_rule = ext.rules[-1]
        assert join_rule.degree == L.unit
        assert join_rule.lhs.symbol == "=?" and join_rule.rhs == App("true")
        assert ext.signature.is_extended

    def test_extension_built_once(self, peano):
        ext = peano.extended
        assert peano.extended is ext
        assert ext.extended is ext
        with pytest.raises(TrsError):
            solve(ext, Z, Z)


# undeclared, too few and too many arguments (also nested), under Peano's
# signature Z/0, S/1, +/2
ILL_FORMED = (App("q"), App("S"), App("S", (Z, Z)), S(App("+", (Z,))))


class TestRewriteSearch:
    def test_terms_checked_against_signature(self, peano):
        for term in ILL_FORMED:
            for max_steps in (0, 1):
                with pytest.raises(TrsError):
                    rewrite_search(peano, term, max_steps)
        with pytest.raises(TrsError):
            rewrite_search(peano, App("=?", (Z, Z)), 1)
        # the reserved symbols are declared in the extended signature
        reached = rewrite_search(peano.extended, App("=?", (Z, Z)), 1)
        assert App("true") in reached

    def test_zero_steps_is_diagonal(self, peano):
        t = plus(Z, S(Z))
        reached = rewrite_search(peano, t, 0)
        assert set(reached) == {t}
        assert reached[t] == [(L.unit, ())]

    def test_peano_one_step(self, peano):
        reached = rewrite_search(peano, S(Z), 1)
        assert Z in reached
        assert reached[Z][0][0] == L.degree(1)

    def test_root_beats_innermost(self, innermost_system):
        reached = rewrite_search(innermost_system, App("f", (App("a"),)), 3)
        fb = App("f", (App("b"),))
        degrees = [d for d, _ in reached[fb]]
        assert degrees == [L.degree(0)]

    def test_innermost_search_restricted(self, innermost_system):
        reached = rewrite_search(innermost_system, App("f", (App("a"),)), 3,
                                 innermost=True)
        fb = App("f", (App("b"),))
        assert [d for d, _ in reached[fb]] == [L.degree(2)]

    def test_threshold_prunes(self, peano):
        full = rewrite_search(peano, num(3), 6)
        cut = rewrite_search(peano, num(3), 6, threshold=L.degree(1))
        assert Z in full and Z not in cut
        assert num(2) in cut

    def test_deflation_along_traces(self, peano):
        rng = random.Random(8)
        for _ in range(25):
            t = random_term(rng, peano.signature, [X], 3)
            for entries in rewrite_search(peano, t, 3).values():
                for degree, trace in entries:
                    acc = L.unit
                    for st in trace:
                        new = q_tensor(acc, st.degree)
                        assert q_leq(new, acc)
                        acc = new
                    assert acc == degree


def reference_rewrite_search(trs, start, max_steps, threshold=None, innermost=False):
    """rewrite_search as it was before it kept one antichain per term (its
    logic kept verbatim): entries carry their depth, and a closing pass
    keeps the maximal degrees without duplicates."""
    check_terms(trs.signature, (start,), "start term")
    expand = innermost_rewrite_steps if innermost else rewrite_steps
    unit = trs.quantale.unit
    # Entries per term: (degree, depth reached, trace).  A candidate is
    # redundant only if some entry is at least as good in degree *and* was
    # reached at most as deep, since leftover depth can still pay off.
    book = {start: [(unit, 0, ())]}
    frontier = [(start, unit, ())]
    for depth in range(1, max_steps + 1):
        next_frontier = []
        for term, degree, trace in frontier:
            for step in expand(trs, term):
                new_degree = q_tensor(degree, step.degree)
                if threshold is not None and not q_leq(threshold, new_degree):
                    continue
                entries = book.setdefault(step.result, [])
                if any(q_leq(new_degree, d) and dep <= depth for d, dep, _ in entries):
                    continue
                new_trace = trace + (step,)
                entries[:] = [(d, dep, tr) for d, dep, tr in entries
                              if not (q_leq(d, new_degree) and dep >= depth)]
                entries.append((new_degree, depth, new_trace))
                next_frontier.append((step.result, new_degree, new_trace))
        frontier = next_frontier
        if not frontier:
            break
    result = {}
    for term, entries in book.items():
        maximal = [(d, tr) for d, dep, tr in entries
                   if not any(q_leq(d, d2) and d != d2 for d2, _, _ in entries)]
        seen = set()
        unique = []
        for d, tr in maximal:
            if d not in seen:
                seen.add(d)
                unique.append((d, tr))
        result[term] = unique
    return result


def reference_joinable(trs, t, s, max_steps, threshold=None):
    """joinable as it was before it read the first antichain entry (its
    logic kept verbatim, searching with reference_rewrite_search)."""
    check_terms(trs.signature, (t, s), "joinability problem")
    goal = App(TRUE_SYMBOL)
    reached = reference_rewrite_search(trs.extended, App(EQ_SYMBOL, (t, s)), max_steps,
                                       threshold)
    entries = reached.get(goal)
    if not entries:
        return None
    best = entries[0]
    for entry in entries[1:]:
        if q_leq(best[0], entry[0]):
            best = entry
    return best


def assert_join_replays(trs, pair, entry, bound):
    """Each step of the join trace is a step `rewrite_steps` offers from the
    previous term (same position, rule, degree and result), and the trace
    reaches `true` within the bound at the entry's degree."""
    degree, trace = entry
    assert 0 < len(trace) <= bound
    term, acc = pair, trs.quantale.unit
    for step in trace:
        key = (step.position, step.rule_index, step.degree, step.result)
        assert key in [(st.position, st.rule_index, st.degree, st.result)
                       for st in rewrite_steps(trs.extended, term)], (term, step)
        term, acc = step.result, q_tensor(acc, step.degree)
    assert term == App(TRUE_SYMBOL)
    assert acc == degree


class TestRewriteSearchReference:
    """One antichain per term must reproduce the depth-tagged book with its
    closing maximal pass: the same terms, degrees, traces and order."""

    # a bound whose search reaches more terms than this is not compared (nor
    # any larger one), which keeps bounds 0-4 affordable on random systems
    MAX_TERMS = 60

    def same_search_steps(self, trs, subjects):
        """Compare both searches on every subject, bound, threshold and
        strategy; return how many steps the traces found hold in all."""
        degrees = [r.degree for r in trs.rules]
        thresholds = (None, q_tensor(degrees[0], degrees[-1]))
        steps = 0
        for t in subjects:
            for bound in range(5):
                if len(rewrite_search(trs, t, bound)) > self.MAX_TERMS:
                    break
                for threshold in thresholds:
                    for innermost in (False, True):
                        new = rewrite_search(trs, t, bound, threshold, innermost)
                        old = reference_rewrite_search(trs, t, bound, threshold, innermost)
                        assert list(new.items()) == list(old.items()), (trs.rules, t, bound)
                        steps += sum(len(tr) for entries in new.values() for _, tr in entries)
        return steps

    def same_joins(self, trs, subjects):
        """Compare both joinability tests on neighbouring subjects: the same
        degree (or no join), and a trace that replays from `t =? s` to `true`
        within the bound at that degree; return how many pairs joined."""
        degrees = [r.degree for r in trs.rules]
        thresholds = (None, q_tensor(degrees[0], degrees[-1]))
        joined = 0
        for t, s in zip(subjects, subjects[1:] + subjects[:1]):
            for bound in range(5):
                pair = App(EQ_SYMBOL, (t, s))
                if len(rewrite_search(trs.extended, pair, bound)) > self.MAX_TERMS:
                    break
                for threshold in thresholds:
                    entry = joinable(trs, t, s, bound, threshold)
                    old = reference_joinable(trs, t, s, bound, threshold)
                    where = (trs.rules, t, s, bound, threshold)
                    assert (entry is None) == (old is None), where
                    if entry is not None:
                        assert entry[0] == old[0], where
                        assert_join_replays(trs, pair, entry, bound)
                        joined += 1
        return joined

    def test_fixture_systems(self, peano, cubic, chain, unbalanced, innermost_system):
        rng = random.Random(21)
        for trs in (peano, cubic, chain, unbalanced, innermost_system):
            subjects = subjects_for(rng, trs, 4)
            assert self.same_search_steps(trs, subjects) > 0
            assert self.same_joins(trs, subjects) > 0
            pairs = [App(EQ_SYMBOL, (a, b)) for a, b in zip(subjects, subjects[1:])]
            pairs += [App(EQ_SYMBOL, (a, a)) for a in subjects[:3]]
            assert self.same_search_steps(trs.extended, pairs) > 0

    def test_demo_systems(self):
        rng = random.Random(22)
        for path in sorted(DEMOS.glob("*.gtrs")):
            pf = parse_file(str(path))
            subjects = subjects_for(rng, pf.trs, 3)
            subjects += [side for problem in pf.problems
                         for side in (problem.left, problem.right)]
            assert self.same_search_steps(pf.trs, subjects) > 0
            assert self.same_joins(pf.trs, subjects) > 0
            pairs = [App(EQ_SYMBOL, (problem.left, problem.right)) for problem in pf.problems]
            assert self.same_search_steps(pf.trs.extended, pairs) > 0

    def test_deeper_entry_replaces_shallower(self):
        """c is reached in one step at degree 5, then in two at degree 0:
        the better, deeper entry is the only one left."""
        sig = Signature(L, {"a": (), "b": (), "c": ()})
        a, b, c = App("a"), App("b"), App("c")
        trs = GradedTrs(sig, (RewriteRule(L.degree(5), a, c), RewriteRule(L.degree(0), a, b),
                              RewriteRule(L.degree(0), b, c)))
        reached = rewrite_search(trs, a, 2)
        assert [(d, [st.rule_index for st in tr])
                for d, tr in reached[c]] == [(L.degree(0), [1, 2])]
        assert list(reached.items()) == list(reference_rewrite_search(trs, a, 2).items())

    def test_join_needs_the_shallower_entry(self):
        """a reaches c in one step at degree 5 and in two at degree 0; d
        reaches c in one step.  Within 3 steps only the shallower, worse
        entry for c leaves room for d's step and the root join."""
        sig = Signature(L, {"a": (), "b": (), "c": (), "d": ()})
        a, b, c, d = App("a"), App("b"), App("c"), App("d")
        trs = GradedTrs(sig, (RewriteRule(L.degree(5), a, c), RewriteRule(L.degree(0), a, b),
                              RewriteRule(L.degree(0), b, c), RewriteRule(L.degree(0), d, c)))
        for bound, expected in ((3, L.degree(5)), (4, L.degree(0))):
            entry = joinable(trs, a, d, bound)
            assert entry is not None
            assert entry[0] == expected == reference_joinable(trs, a, d, bound)[0]
            assert_join_replays(trs, App(EQ_SYMBOL, (a, d)), entry, bound)
        assert joinable(trs, a, d, 2) is None is reference_joinable(trs, a, d, 2)

    def test_random_systems(self):
        """All five quantales with non-identity sensitivities."""
        rng = random.Random(23)
        steps = joined = 0
        for trial in range(20):
            q = list(Quantale)[trial % 5]
            cfg = SystemConfig(quantale=q, max_rules=4, n_constants=2, n_unary=1,
                               n_binary=2, nontrivial_cbes=True)
            trs = random_system(rng, cfg)
            subjects = subjects_for(rng, trs, 1)
            steps += self.same_search_steps(trs, subjects)
            joined += self.same_joins(trs, subjects)
        assert steps > 0 and joined > 0


@pytest.mark.parametrize("search", [
    lambda trs, threshold: solve(trs, Z, Z, threshold=threshold, max_steps=0),
    lambda trs, threshold: solve(trs, plus(X, S(Z)), plus(plus(X, X), X),
                                 threshold=threshold, max_steps=2),
    lambda trs, threshold: rewrite_search(trs, Z, 2, threshold=threshold),
    lambda trs, threshold: joinable(trs, Z, Z, 2, threshold=threshold),
], ids=["solve-at-start", "solve", "rewrite_search", "joinable"])
def test_threshold_from_another_quantale(search):
    """A threshold outside the system's quantale is rejected before the
    search, whether or not a step would have met it."""
    trs = parse_file(str(DEMOS / "peano.gtrs")).trs
    with pytest.raises(QuantaleMismatchError):
        search(trs, Quantale.BOOL.unit)


@pytest.mark.parametrize("term", [App("q"), App("S", (Z, Z))],
                         ids=["undeclared-symbol", "wrong-argument-count"])
@pytest.mark.parametrize("entry", [
    lambda trs, t: rewrite_steps(trs, t),
    lambda trs, t: innermost_rewrite_steps(trs, t),
    lambda trs, t: narrowing_steps(trs, t, FreshCounter(1)),
    lambda trs, t: derivations(trs, t, 1),
    lambda trs, t: derivations(trs, t, 0),
    lambda trs, t: best_conversion_degree(trs, t, Z),
    lambda trs, t: verify_solution(trs, t, Z, Substitution(), trs.quantale.unit),
    lambda trs, t: verify_solution(trs, X, Z, Substitution({X: t}), trs.quantale.unit),
    lambda trs, t: verify_solution(trs, t, X, Substitution(), trs.quantale.unit, pool=()),
    lambda trs, t: enumerate_best_unifiers(trs, t, Z, [Z]),
    lambda trs, t: enumerate_best_unifiers(trs, t, X, ()),
], ids=["rewrite_steps", "innermost_rewrite_steps", "narrowing_steps", "derivations",
        "derivations-zero-steps", "best_conversion_degree", "verify_solution",
        "verify_solution-substituted", "verify_solution-empty-pool",
        "enumerate_best_unifiers", "enumerate_best_unifiers-empty-pool"])
def test_entry_points_check_terms(entry, term):
    """Every entry point meets a term outside the signature with TrsError at
    the call, before any step, grounding or pool combination is tried."""
    trs = parse_file(str(DEMOS / "peano.gtrs")).trs
    with pytest.raises(TrsError):
        entry(trs, term)


class TestJoinable:
    def test_terms_checked_against_signature(self, peano):
        for term in ILL_FORMED + (App("=?", (Z, Z)), App("true")):
            for t, s in ((term, Z), (term, term), (Z, term)):
                with pytest.raises(TrsError):
                    joinable(peano, t, s, 1)
        # the root of `t =? s` is the extension's alone
        with pytest.raises(TrsError, match="unextended"):
            joinable(peano.extended, Z, Z, 1)

    def test_identical_terms_unit(self, peano):
        t = plus(Z, S(Z))
        entry = joinable(peano, t, t, 2)
        assert entry is not None and entry[0] == L.unit

    def test_peano_successor(self, peano):
        entry = joinable(peano, S(Z), Z, 4)
        assert entry is not None and entry[0] == L.degree(1)

    def test_cubic_meet_in_the_middle(self, cubic):
        f = lambda *ts: App("f", tuple(ts))
        a, b, c, d = (App(n) for n in "abcd")
        t, s = f(c, c, c), f(a, b, d)
        entry = joinable(cubic, t, s, 6)
        assert entry is not None and entry[0] == L.degree(3)
        # steps on t (under position 1), then on s (under 2), then the root join
        assert_join_replays(cubic, App(EQ_SYMBOL, (t, s)), entry, 6)
        sides = [st.position[:1] for st in entry[1]]
        assert sides == sorted(sides, key=lambda side: side or (3,))
        assert sides[-1] == () and (1,) in sides and (2,) in sides

    def test_meeting_term_with_the_join_variable(self, peano):
        """The common term is x itself, the join rule's own variable."""
        entry = joinable(peano, plus(X, Z), X, 2)
        assert entry[0] == L.unit
        assert_join_replays(peano, App(EQ_SYMBOL, (plus(X, Z), X)), entry, 2)
