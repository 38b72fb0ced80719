"""Acceptance gate: the nine criteria, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Degrees
are exact rationals throughout; every comparison here is equality or the
quantale order at zero tolerance.
"""

import contextlib
import random
import time
from pathlib import Path

from qnarrow import (
    App,
    OracleBounds,
    Quantale,
    Substitution,
    Var,
    best_conversion_degree,
    cbe_apply,
    derivations,
    enumerate_best_unifiers,
    grade_of_position,
    joinable,
    match,
    mgu,
    narrowing_solutions,
    positions,
    q_geq,
    q_join,
    q_leq,
    q_meet,
    q_tensor,
    solve,
    subterm_at,
    vars_of,
    verify_solution,
)
from qnarrow.cli import main
from qnarrow.oracle import (
    REFUTED,
    SystemConfig,
    random_linear_problem,
    random_signature,
    random_system,
    random_term,
)

from conftest import S, X, Z, num, plus, random_cbe, random_value

L = Quantale.LAWVERE
DEMOS = Path(__file__).resolve().parent.parent / "demos"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {description}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {description}: PASS")


def solution_set(result):
    return {(sol.subst, sol.degree) for sol in result.solutions}


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_peano_reproduction(peano):
    with criterion(1, "Peano reproduction"):
        t = plus(X, S(Z))
        s = plus(plus(X, X), X)
        result = solve(peano, t, s, threshold=L.degree(1), max_steps=12)
        assert solution_set(result) == {
            (Substitution({X: Z}), L.degree(1)),
            (Substitution({X: S(Z)}), L.degree(1)),
        }
        # a bound on the work done, exact where wall-clock time is not
        assert result.configs_expanded <= 2692
        # and through the command line
        code = main(["solve", str(DEMOS / "peano.gtrs"), "--max-steps", "12"])
        assert code == 0


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_cubic_incompleteness(cubic, capsys):
    with criterion(2, "cubic incompleteness reproduction"):
        a, b, c, d = (App(n) for n in "abcd")
        f = lambda *ts: App("f", tuple(ts))
        t, s = f(X, X, X), f(a, b, d)
        started = time.perf_counter()
        for strategy in ("eager-su", "lazy"):
            result = solve(cubic, t, s, strategy=strategy, max_steps=8)
            assert result.complete
            assert solution_set(result) == {(Substitution({X: d}), L.degree(4))}
        ranked = enumerate_best_unifiers(cubic, t, s, [a, b, c, d])
        assert ranked[0] == (Substitution({X: c}), L.degree(3))
        assert {(str(sig), str(deg)) for sig, deg in ranked[1:]} == {
            ("{x -> a}", "4"), ("{x -> b}", "4"), ("{x -> d}", "4")}
        code = main(["oracle", str(DEMOS / "cubic.gtrs"), "--pool", "a,b,c,d"])
        out = capsys.readouterr().out
        assert code == 0 and "1. {x -> c} degree 3" in out
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_chain_gap(chain):
    with criterion(3, "chain-system optimum gap"):
        a, b, c = App("a"), App("b"), App("c")
        f = lambda *ts: App("f", tuple(ts))
        result = solve(chain, f(X, X, X), f(a, b, c), max_steps=8)
        assert result.complete
        assert solution_set(result) == {(Substitution({X: c}), L.degree(3))}
        ranked = enumerate_best_unifiers(chain, f(X, X, X), f(a, b, c), [a, b, c])
        assert ranked[0] == (Substitution({X: b}), L.degree(2))


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_unbalanced_gap(unbalanced):
    with criterion(4, "unbalanced basic-narrowing gap"):
        fa = App("f", (App("a"),))
        gb = App("g", (App("b"),))
        result = solve(unbalanced, fa, gb, max_steps=6)
        assert result.complete
        assert solution_set(result) == {(Substitution(), L.degree(3))}
        outcome = best_conversion_degree(unbalanced, fa, gb)
        assert outcome.degree == L.degree(1) and outcome.optimal


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_innermost_suboptimality(innermost_system, capsys):
    with criterion(5, "innermost suboptimality"):
        from qnarrow import innermost_rewrite_steps, rewrite_steps
        fa = App("f", (App("a"),))
        inner = innermost_rewrite_steps(innermost_system, fa)
        assert [(st.position, st.degree) for st in inner] == [((1,), L.degree(2))]
        full = rewrite_steps(innermost_system, fa)
        assert (L.degree(0), App("f", (App("b"),))) in {
            (st.degree, st.result) for st in full}
        code = main(["rewrite", str(DEMOS / "innermost.gtrs"),
                     "--term", "f(a)", "--innermost"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "1: f(a) -> f(b) @ 2"


# -- criterion 6: randomized property suites (>= 500 cases each) --------------


CASES = 120  # per quantale; five quantales make >= 500 cases per suite


def test_criterion_6a_quantale_laws():
    with criterion("6a", "quantale laws (600 cases)"):
        rng = random.Random(101)
        for q in Quantale:
            for _ in range(CASES):
                a, b, c = (random_value(rng, q) for _ in range(3))
                assert q_tensor(q_tensor(a, b), c) == q_tensor(a, q_tensor(b, c))
                assert q_tensor(a, b) == q_tensor(b, a)
                assert q_tensor(a, q.unit) == a
                vs = [random_value(rng, q) for _ in range(rng.randint(0, 4))]
                join = q_join(q, vs)
                meet = q_meet(q, vs)
                for v in vs:
                    assert q_leq(v, join) and q_leq(meet, v)
                assert q_tensor(a, join) == q_join(q, [q_tensor(a, v) for v in vs])
                both = q_meet(q, [a, b])
                assert q_leq(q_tensor(a, b), both)  # integrality consequence
                if q_tensor(a, b) == q.bottom:      # cointegrality
                    assert a == q.bottom or b == q.bottom


def test_criterion_6b_cbe_homomorphism_laws():
    with criterion("6b", "CBE homomorphism laws (600 cases)"):
        rng = random.Random(103)
        for q in Quantale:
            for _ in range(CASES):
                f = random_cbe(rng, q)
                a, b = random_value(rng, q), random_value(rng, q)
                assert cbe_apply(f, q.unit) == q.unit
                assert cbe_apply(f, q_tensor(a, b)) \
                    == q_tensor(cbe_apply(f, a), cbe_apply(f, b))
                lo, hi = (a, b) if q_leq(a, b) else (b, a)
                assert q_leq(cbe_apply(f, lo), cbe_apply(f, hi))


def test_criterion_6c_grade_identities():
    with criterion("6c", "grade composition and stability (600 cases)"):
        from qnarrow.quantale import cbe_compose, cbe_equal
        rng = random.Random(107)
        for q in Quantale:
            cfg = SystemConfig(quantale=q, nontrivial_cbes=True)
            for _ in range(CASES):
                sig = random_signature(rng, cfg)
                t = random_term(rng, sig, [X, Var("y")], 3)
                pos = positions(t)
                p = rng.choice(pos)
                split = rng.randint(0, len(p))
                left, right = p[:split], p[split:]
                assert cbe_equal(
                    q, grade_of_position(sig, t, p),
                    cbe_compose(q, grade_of_position(sig, t, left),
                                grade_of_position(sig, subterm_at(t, left), right)))
                sigma = Substitution({X: random_term(rng, sig, [], 2)})
                assert cbe_equal(q, grade_of_position(sig, sigma.apply(t), p),
                                 grade_of_position(sig, t, p))


def test_criterion_6d_mgu_properties():
    with criterion("6d", "mgu idempotency and generality (600 cases)"):
        rng = random.Random(109)
        done = 0
        while done < 600:
            q = rng.choice(list(Quantale))
            cfg = SystemConfig(quantale=q, n_constants=2, n_unary=1, n_binary=1)
            sig = random_signature(rng, cfg)
            w = random_term(rng, sig, [X, Var("y")], 3)
            theta = Substitution({
                X: random_term(rng, sig, [], 2),
                Var("y"): random_term(rng, sig, [], 2)})
            rho = mgu([(w, theta.apply(w))])
            assert isinstance(rho, Substitution)
            assert not (vars_of_ranges(rho) & rho.domain())  # idempotent
            scope = sorted(vars_of(w), key=lambda v: (v.name, v.index))
            packed = App("", tuple(rho.apply(v) for v in scope))
            target = App("", tuple(theta.apply(v) for v in scope))
            rho2 = match(packed, target)
            assert rho2 is not None  # rho is at least as general as theta
            done += 1


def vars_of_ranges(subst):
    out = set()
    for _, t in subst.items():
        out |= vars_of(t)
    return out


def test_criterion_6e_degree_deflation():
    with criterion("6e", "degree deflation along derivations (>=500)"):
        rng = random.Random(113)
        checked = 0
        while checked < 500:
            q = rng.choice(list(Quantale))
            cfg = SystemConfig(quantale=q, nontrivial_cbes=True)
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            ext = trs.extended
            goal = App("=?", (t, s))
            for deriv in derivations(ext, goal, 2):
                if not deriv.steps:
                    continue
                acc = q.unit
                for step in deriv.steps:
                    nxt = q_tensor(acc, step.degree)
                    assert q_leq(nxt, acc)  # tensor only moves downward
                    acc = nxt
                checked += 1
                if checked >= 500:
                    break


def test_criterion_6f_pruning_soundness():
    with criterion("6f", "threshold pruning soundness (500 cases)"):
        rng = random.Random(127)
        thresholds = {
            Quantale.BOOL: "1",
            Quantale.LAWVERE: "2",
            Quantale.LAWVERE_MAX: "1",
            Quantale.FUZZY_GODEL: "1/2",
            Quantale.FUZZY_PRODUCT: "1/2",
        }
        for case in range(500):
            q = list(Quantale)[case % 5]
            cfg = SystemConfig(quantale=q, n_constants=2, n_unary=1, n_binary=0)
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            eps = q.parse_degree(thresholds[q])
            full = solve(trs, t, s, max_steps=3)
            pruned = solve(trs, t, s, max_steps=3, threshold=eps)
            expected = {(sig, deg) for sig, deg in solution_set(full)
                        if q_leq(eps, deg)}
            assert solution_set(pruned) == expected


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_oracle_backed_soundness():
    with criterion(7, "oracle-backed soundness on 50 random systems"):
        rng = random.Random(131)
        bounds = OracleBounds(max_nodes=1200, max_term_depth=8)
        verdicts = {"CONFIRMED": 0, "INCONCLUSIVE": 0, REFUTED: 0}
        for trial in range(50):
            q = list(Quantale)[trial % 5]
            cfg = SystemConfig(quantale=q, max_rules=4, n_constants=2,
                               n_unary=1, n_binary=0)
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            result = solve(trs, t, s, max_steps=3, max_solutions=4,
                           max_configs=2000)
            for sol in result.solutions:
                verdict = verify_solution(trs, t, s, sol.subst, sol.degree,
                                          bounds=bounds, max_groundings=4)
                verdicts[verdict.status] += 1
        assert verdicts[REFUTED] == 0, verdicts
        assert verdicts["CONFIRMED"] > 0


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_basicness_and_correspondence():
    with criterion(8, "right-ground basicness and calculus correspondence"):
        rng = random.Random(137)
        lp_bound = 2
        for trial in range(30):
            q = (Quantale.LAWVERE, Quantale.FUZZY_GODEL,
                 Quantale.BOOL)[trial % 3]
            cfg = SystemConfig(quantale=q, right_ground=True, n_constants=2,
                               n_unary=1, n_binary=0)
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            ext = trs.extended
            goal = App("=?", (t, s))
            for deriv in derivations(ext, goal, lp_bound + 1):
                assert deriv.is_basic  # linear problem + right-ground rules
            basic = narrowing_solutions(trs, t, s, lp_bound + 1, basic_only=True)
            calculus = solution_set(solve(trs, t, s, strategy="eager-su",
                                          max_steps=lp_bound))
            assert calculus == basic


# -- criterion 9 --------------------------------------------------------------


def test_criterion_9_church_rosser_spot_check(peano):
    with criterion(9, "quantitative Church-Rosser spot check (100 pairs)"):
        rng = random.Random(139)
        bounds = OracleBounds(max_nodes=2500, max_term_size=9, max_term_depth=8)

        def ground_term(depth):
            if depth == 0 or rng.random() < 0.5:
                return num(rng.randint(0, 3))
            return plus(ground_term(depth - 1), ground_term(depth - 1))

        checked = 0
        while checked < 100:
            t, s = ground_term(1), ground_term(1)
            outcome = best_conversion_degree(peano, t, s, bounds)
            if outcome.degree is None:
                continue  # bounds too tight for this sample; not a verdict
            entry = joinable(peano, t, s, 14, threshold=outcome.degree)
            assert entry is not None, (t, s, outcome.degree)
            assert q_geq(entry[0], outcome.degree)
            checked += 1
