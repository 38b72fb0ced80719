"""The graded rewrite relation, attribute checks, search, and joinability."""

import random

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
    extend_trs,
    grade_of_position,
    innermost_rewrite_steps,
    joinable,
    q_leq,
    q_tensor,
    rewrite_search,
    rewrite_steps,
)
from qnarrow.rewrite import TrsError
from qnarrow.oracle import random_term

from conftest import S, X, Y, Z, num, plus

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
        assert report.right_ground and report.left_ground
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
        ext = extend_trs(peano)
        assert len(ext.rules) == 4
        join_rule = ext.rules[-1]
        assert join_rule.degree == L.unit
        assert join_rule.lhs.symbol == "=?" and join_rule.rhs == App("true")
        assert ext.signature.is_extended

    def test_extending_twice_errors(self, peano):
        with pytest.raises(TrsError):
            extend_trs(extend_trs(peano))


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
        reached = rewrite_search(extend_trs(peano), App("=?", (Z, Z)), 1)
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


class TestJoinable:
    def test_terms_checked_against_signature(self, peano):
        for term in ILL_FORMED + (App("=?", (Z, Z)), App("true")):
            for t, s in ((term, Z), (term, term), (Z, term)):
                with pytest.raises(TrsError):
                    joinable(peano, t, s, 1)

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
        entry = joinable(cubic, f(c, c, c), f(a, b, d), 6)
        assert entry is not None and entry[0] == L.degree(3)
