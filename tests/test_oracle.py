"""The brute-force conversion oracle and the conjecture probe."""

import contextlib
import heapq
import io
import itertools
import json
import random
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

import qnarrow.oracle
from qnarrow import (
    App,
    GradedTrs,
    OracleBounds,
    Quantale,
    RewriteRule,
    Signature,
    Substitution,
    best_conversion_degree,
    check_trs,
    conjecture_probe,
    enumerate_best_unifiers,
    q_geq,
    q_tensor,
    rewrite_steps,
    verify_solution,
)
from qnarrow.cli import main as cli_main
from qnarrow.frontend import parse, parse_file
from qnarrow.oracle import (
    CONFIRMED,
    INCONCLUSIVE,
    OracleError,
    REFUTED,
    ConversionEdge,
    ConversionOutcome,
    SystemConfig,
    _contexts,
    _conversion_edges,
    _flip,
    _match_env,
    _or_none,
    random_linear_problem,
    random_system,
    random_term,
)
from qnarrow.quantale import (
    CBE_ID,
    CbePow,
    QuantaleValue,
    cbe_apply,
    cbe_compose,
    cbe_normalize,
)
from qnarrow.term import (
    Term,
    Var,
    is_ground,
    replace_at,
    term_depth,
    term_size,
    vars_of,
)

from conftest import S, X, Z, num

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden_oracle.json"

L = Quantale.LAWVERE


def f3(*ts):
    return App("f", tuple(ts))


def _edges_from(trs: GradedTrs, u: Term,
                instantiation_pool: tuple[Term, ...]) -> tuple[list[ConversionEdge], bool]:
    """The symmetric adjacency of a ground term as edge records, in the
    order the search examines them (see _conversion_edges)."""
    raw, incomplete = _conversion_edges(trs, tuple(instantiation_pool))(u)
    return [ConversionEdge(u, v, p, i, forward, degree)
            for v, p, i, forward, degree, _, _ in raw], incomplete


class TestBestConversionDegree:
    def test_cubic_optimum(self, cubic):
        a, b, c, d = (App(n) for n in "abcd")
        out = best_conversion_degree(cubic, f3(c, c, c), f3(a, b, d))
        assert out.degree == L.degree(3)
        assert out.optimal
        # the witness path multiplies out to the reported degree
        acc = L.unit
        for edge in out.path:
            acc = q_tensor(acc, edge.degree)
        assert acc == L.degree(3)

    def test_same_term_unit(self, cubic):
        t = f3(App("a"), App("b"), App("c"))
        out = best_conversion_degree(cubic, t, t)
        assert out.degree == L.unit and out.path == [] and out.optimal

    def test_unbalanced_identity_conversion(self, unbalanced):
        out = best_conversion_degree(unbalanced, App("f", (App("a"),)),
                                     App("g", (App("b"),)))
        assert out.degree == L.degree(1) and out.optimal

    def test_inconvertible_is_exhausted(self):
        sig = Signature(L, {"a": (), "b": (), "c": ()})
        trs = GradedTrs(sig, (RewriteRule(L.degree(1), App("a"), App("b")),))
        out = best_conversion_degree(trs, App("a"), App("c"))
        assert out.degree is None and out.exhausted

    def test_edge_past_the_degree_bound_is_capped(self):
        """The only step rewrites a under pow(64)^3, whose degree (1/3)^262144
        is past the degree bound: the search leaves that edge out and says
        a cap interfered, rather than raising or claiming no conversion."""
        FP = Quantale.FUZZY_PRODUCT
        sig = Signature(FP, {"a": (), "b": (), "f": (CbePow(64),)})
        trs = GradedTrs(sig, (RewriteRule(FP.degree(Fraction(1, 3)), App("a"), App("b")),))

        def f3(leaf):
            return App("f", (App("f", (App("f", (App(leaf),)),)),))

        out = best_conversion_degree(trs, f3("a"), f3("b"))
        assert out.degree is None and out.capped and not out.exhausted
        verdict = verify_solution(trs, f3("a"), f3("b"), Substitution({}),
                                  FP.degree(Fraction(1, 2)))
        assert verdict.status == INCONCLUSIVE
        # one level less fits the bound
        assert best_conversion_degree(trs, f3("a").args[0], f3("b").args[0]).degree == \
            FP.degree(Fraction(1, 3 ** 4096))

    def test_non_ground_rejected(self, cubic):
        with pytest.raises(OracleError):
            best_conversion_degree(cubic, X, App("a"))

    def test_matches_exhaustive_enumeration(self, cubic, chain, unbalanced):
        # on these systems the conversion component of every sampled pair is
        # finite, so a plain path enumeration of sufficient depth is complete
        # and the oracle must agree with it exactly
        for trs in (cubic, chain, unbalanced):
            consts = [App(c) for c in trs.signature.constants()]
            rng = random.Random(1)
            pairs = [(rng.choice(consts), rng.choice(consts)) for _ in range(6)]
            if trs.signature.has("f") and len(trs.signature.arity("f")) == 3:
                pairs += [(f3(*[rng.choice(consts) for _ in range(3)]),
                           f3(*[rng.choice(consts) for _ in range(3)]))
                          for _ in range(4)]
            for t, s in pairs:
                expected = _exhaustive_best(trs, t, s, 8)
                out = best_conversion_degree(trs, t, s)
                assert out.degree == expected
                if expected is not None:
                    assert out.optimal

    def test_all_quantales_match_exhaustive_on_finite_graphs(self):
        """Constant-only systems have finite conversion graphs; the
        bidirectional stop rule must be exact for every tensor (addition,
        max, min, product, conjunction)."""
        rng = random.Random(53)
        for trial in range(40):
            q = list(Quantale)[trial % 5]
            cfg = SystemConfig(quantale=q, n_constants=3, n_unary=0,
                               n_binary=0, max_rules=3)
            trs = random_system(rng, cfg)
            consts = [App(c) for c in trs.signature.constants()]
            for t in consts:
                for s in consts:
                    expected = _exhaustive_best(trs, t, s, 6)
                    out = best_conversion_degree(trs, t, s)
                    assert out.degree == expected, (trs.rules, t, s)
                    if expected is None:
                        assert out.exhausted
                    else:
                        assert out.optimal

    def test_edges_agree_with_rewriter(self, cubic, unbalanced, peano):
        for trs in (cubic, unbalanced, peano):
            consts = [App(c) for c in trs.signature.constants()]
            if trs is unbalanced:
                sample = [App("f", (App("a"),)), App("g", (App("b"),))]
            elif trs is peano:
                sample = [num(2), App("+", (num(1), num(1)))]
            else:
                sample = [f3(App("a"), App("b"), App("c"))]
            pool = tuple(consts)
            for u in sample:
                edges, _ = _edges_from(trs, u, pool)
                forward_from_u = {(st.position, st.rule_index, st.result, st.degree)
                                  for st in rewrite_steps(trs, u)}
                for edge in edges:
                    if edge.forward:
                        assert (edge.position, edge.rule_index, edge.target,
                                edge.degree) in forward_from_u
                    else:
                        back = {(st.position, st.rule_index, st.result, st.degree)
                                for st in rewrite_steps(trs, edge.target)}
                        assert (edge.position, edge.rule_index, u,
                                edge.degree) in back


def _exhaustive_best(trs, t, s, max_len):
    """Plain breadth-first path enumeration over the symmetric graph."""
    consts = tuple(App(c) for c in trs.signature.constants())
    best = None
    frontier = deque([(t, trs.quantale.unit)])
    seen = {}
    for _ in range(max_len + 1):
        nxt = deque()
        while frontier:
            node, degree = frontier.popleft()
            if node == s and (best is None or q_geq(degree, best)):
                best = degree
            prev = seen.get(node)
            if prev is not None and q_geq(prev, degree):
                continue
            seen[node] = degree
            edges, _ = _edges_from(trs, node, consts)
            for edge in edges:
                nxt.append((edge.target, q_tensor(degree, edge.degree)))
        frontier = nxt
    return best


# -- the search as it was before its per-call tables ---------------------------
# Kept verbatim but for the degree bound's policy, which the library adopted
# later: a step whose degree is past the bound is left out and caps the
# search (`_or_none`), where the former code raised CarrierError.


def reference_apply_env(t: Term, env: dict) -> Term:
    """The former `_apply_env`, its logic kept verbatim."""
    if isinstance(t, Var):
        return env.get(t, t)
    if not t.args:
        return t
    return App(t.symbol, tuple(reference_apply_env(a, env) for a in t.args))


def reference_edges_from(trs: GradedTrs, u: Term,
                         instantiation_pool: tuple[Term, ...]
                         ) -> tuple[list[ConversionEdge], bool]:
    """The former `_edges_from`, its logic kept verbatim."""
    quantale = trs.quantale
    edges: list[ConversionEdge] = []
    incomplete = False
    unit_grade = cbe_normalize(quantale, CBE_ID)
    stack = [((), u, unit_grade)]
    while stack:
        p, sub, grade = stack.pop()
        if not isinstance(sub, App):
            continue
        for i, cbe in enumerate(trs.signature.arity(sub.symbol)):
            stack.append((p + (i + 1,), sub.args[i], cbe_compose(quantale, grade, cbe)))
        for i, rule in enumerate(trs.rules):
            degree = None
            env = _match_env(rule.lhs, sub)
            if env is not None:
                degree = _or_none(cbe_apply, grade, rule.degree)
                if degree is None:
                    incomplete = True
                else:
                    edges.append(ConversionEdge(
                        u, replace_at(u, p, reference_apply_env(rule.rhs, env)), p, i,
                        True, degree))
            env = _match_env(rule.rhs, sub)
            if env is not None:
                if degree is None:
                    degree = _or_none(cbe_apply, grade, rule.degree)
                if degree is None:
                    incomplete = True
                    continue
                unbound = sorted(vars_of(rule.lhs) - env.keys(),
                                 key=lambda v: (v.name, v.index))
                if not unbound:
                    fillings: Iterable[tuple[Term, ...]] = ((),)
                else:
                    incomplete = True
                    fillings = itertools.product(instantiation_pool, repeat=len(unbound))
                for filling in fillings:
                    env2 = dict(env)
                    env2.update(zip(unbound, filling))
                    edges.append(ConversionEdge(
                        u, replace_at(u, p, reference_apply_env(rule.lhs, env2)), p, i, False,
                        degree))
    return edges, incomplete


def reference_best_conversion_degree(trs: GradedTrs, t: Term, s: Term,
                                     bounds: OracleBounds = OracleBounds(),
                                     instantiation_pool: Optional[Iterable[Term]] = None
                                     ) -> ConversionOutcome:
    """The former `best_conversion_degree`, its logic kept verbatim: every
    target re-measured for the caps, every edge weighed from scratch."""
    if not is_ground(t) or not is_ground(s):
        raise OracleError("oracle works on ground terms")
    if instantiation_pool is None:
        pool = tuple(App(c) for c in trs.signature.constants())
    else:
        pool = tuple(instantiation_pool)

    quantale = trs.quantale
    unit = quantale.unit
    size_cap = bounds.size_cap(t, s)
    dist: tuple[dict, dict] = ({t: unit}, {s: unit})
    parent: tuple[dict, dict] = ({}, {})
    settled: tuple[set, set] = (set(), set())
    heaps = ([(quantale.sort_key(unit), 0, t)], [(quantale.sort_key(unit), 0, s)])
    tops = [unit, unit]
    seq = 0
    capped = False
    best_meet: Optional[tuple[QuantaleValue, Term]] = None

    def consider_meet(node: Term) -> None:
        nonlocal best_meet, capped
        if node in dist[0] and node in dist[1]:
            degree = _or_none(q_tensor, dist[0][node], dist[1][node])
            if degree is None:
                capped = True
            elif best_meet is None or (q_geq(degree, best_meet[0])
                                       and degree != best_meet[0]):
                best_meet = (degree, node)

    def stop_rule() -> bool:
        if best_meet is None:
            return False
        bound = _or_none(q_tensor, tops[0], tops[1])
        return bound is not None and q_geq(best_meet[0], bound)

    consider_meet(t)
    while (heaps[0] or heaps[1]) and not stop_rule():
        side = 0 if heaps[0] and (not heaps[1] or len(heaps[0]) <= len(heaps[1])) else 1
        _, _, u = heapq.heappop(heaps[side])
        if u in settled[side]:
            continue
        settled[side].add(u)
        du = dist[side][u]
        tops[side] = du
        if stop_rule():
            break
        edges, incomplete = reference_edges_from(trs, u, pool)
        if incomplete:
            capped = True
        for edge in edges:
            v = edge.target
            if v in settled[side]:
                continue
            if term_depth(v) > bounds.max_term_depth or term_size(v) > size_cap:
                capped = True
                continue
            if v not in dist[side] and len(dist[0]) + len(dist[1]) >= bounds.max_nodes:
                capped = True
                continue
            dv = _or_none(q_tensor, du, edge.degree)
            if dv is None:
                capped = True
                continue
            known = dist[side].get(v)
            if known is None or (q_geq(dv, known) and dv != known):
                dist[side][v] = dv
                parent[side][v] = edge
                consider_meet(v)
                seq += 1
                heapq.heappush(heaps[side], (quantale.sort_key(dv), seq, v))

    if best_meet is None:
        return ConversionOutcome(None, None, optimal=False,
                                 exhausted=not capped, capped=capped)
    degree, meet = best_meet
    forward: list[ConversionEdge] = []
    node = meet
    while node in parent[0]:
        edge = parent[0][node]
        forward.append(edge)
        node = edge.source
    forward.reverse()
    node = meet
    while node in parent[1]:
        edge = parent[1][node]
        forward.append(_flip(edge))
        node = edge.source
    return ConversionOutcome(degree, forward, optimal=not capped,
                             exhausted=False, capped=capped)


def ground_pairs(rng, trs, count):
    """Random ground pairs, half of them a few conversion edges apart so
    that the two searches meet."""
    sig = trs.signature
    pool = tuple(App(c) for c in sig.constants())
    pairs = []
    for _ in range(count):
        t = random_term(rng, sig, [], rng.randint(1, 3))
        if rng.random() < 0.5:
            s = random_term(rng, sig, [], rng.randint(1, 3))
        else:
            s = t
            for _ in range(rng.randint(2, 5)):
                edges, _ = reference_edges_from(trs, s, pool)
                if edges:
                    s = rng.choice(edges).target
        pairs.append((t, s))
    return pairs


# a reaches b at 1 and c at 2 (or at 1 through b); d reaches only e
BUDGET_TEXT = ("quantale lawvere\nfun a/0\nfun b/0\nfun c/0\nfun d/0\nfun e/0\n"
               "rule 1 : a -> b\nrule 2 : a -> c\nrule 0 : b -> c\nrule 1 : d -> e\n")

# name -> bounds; each family makes its own cap bind somewhere below
REFERENCE_BOUNDS = {
    "nodes": OracleBounds(max_nodes=300),
    "depth": OracleBounds(max_term_depth=3, max_nodes=300),
    "size": OracleBounds(max_term_size=5, max_nodes=300),
    "budget": OracleBounds(max_nodes=12),
    # most start terms are deeper than this; their targets are measured
    # directly rather than from the start node's shape
    "deep-start": OracleBounds(max_term_depth=2, max_nodes=300),
}


@pytest.fixture
def walks(monkeypatch):
    """The adjacency walks of best_conversion_degree, in order, as (node,
    restricted): restricted when the walk goes only toward known, unsettled
    nodes."""
    log: list[tuple[Term, bool]] = []

    def recording_edges(trs, pool):
        edges = _conversion_edges(trs, pool)

        def recorded(u, toward=None):
            log.append((u, toward is not None))
            return edges(u, toward)
        return recorded

    monkeypatch.setattr(qnarrow.oracle, "_conversion_edges", recording_edges)
    return log


class TestReferenceSearch:
    """The per-call tables, the cap arithmetic and the walks restricted to
    known, unsettled nodes once the budget is full must leave every outcome
    as the former search computed it: degree, flags and every path edge."""

    def compare(self, trs, pairs, counts, walks, pools=(None,)):
        for t, s in pairs:
            for name, bounds in REFERENCE_BOUNDS.items():
                for pool in pools:
                    walks.clear()
                    new = best_conversion_degree(trs, t, s, bounds, pool)
                    old = reference_best_conversion_degree(trs, t, s, bounds, pool)
                    assert new == old, (trs.rules, t, s, name, pool)
                    counts[name] += new.capped
                    counts["met"] += new.degree is not None
                    counts["restricted"] += sum(restricted for _, restricted in walks)

    def test_edges_in_reference_order(self):
        """Heap tie-breaks and witness paths hang on the edge order, so the
        adjacency itself must match the former one edge for edge."""
        rng = random.Random(60)
        systems = [parse_file(str(path)).trs for path in sorted(DEMOS.glob("*.gtrs"))]
        for trial in range(30):
            cfg = SystemConfig(quantale=list(Quantale)[trial % 5], max_rules=3,
                               n_constants=2, nontrivial_cbes=True,
                               right_ground=trial % 2 == 0)
            systems.append(random_system(rng, cfg))
        filled = 0
        for trs in systems:
            consts = tuple(App(c) for c in trs.signature.constants())
            for pool in (consts, consts[::-1] + (consts[0],)):
                for t, s in ground_pairs(rng, trs, 4):
                    for u in (t, s):
                        edges, incomplete = _edges_from(trs, u, pool)
                        assert (edges, incomplete) == reference_edges_from(trs, u, pool)
                        filled += incomplete
        assert filled

    def test_demo_systems(self, walks):
        rng = random.Random(61)
        counts = dict.fromkeys(list(REFERENCE_BOUNDS) + ["met", "restricted"], 0)
        for path in sorted(DEMOS.glob("*.gtrs")):
            trs = parse_file(str(path)).trs
            self.compare(trs, ground_pairs(rng, trs, 5), counts, walks)
        assert all(counts.values()), counts

    def test_random_systems(self, walks):
        """All five quantales, non-identity sensitivities, and rules that
        drop variables (so reversed steps are filled from the pool, also
        from a pool with a non-constant term)."""
        rng = random.Random(62)
        counts = dict.fromkeys(list(REFERENCE_BOUNDS) + ["met", "restricted"], 0)
        filled = 0
        for trial in range(20):
            q = list(Quantale)[trial % 5]
            cfg = SystemConfig(quantale=q, max_rules=3, n_constants=2, n_unary=1,
                               n_binary=1, nontrivial_cbes=True,
                               right_ground=trial % 4 == 0)
            trs = random_system(rng, cfg)
            consts = tuple(App(c) for c in trs.signature.constants())
            pools = (None, consts[:1] + (App("f0", consts[:1]),))
            filled += any(vars_of(r.lhs) - vars_of(r.rhs) for r in trs.rules)
            self.compare(trs, ground_pairs(rng, trs, 3), counts, walks, pools)
        assert filled and all(counts.values()), (filled, counts)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), quantale=st.sampled_from(list(Quantale)),
           max_nodes=st.integers(0, 20))
    # a step of pow(19683) on 1/2 is past the degree bound
    @example(seed=26801, quantale=Quantale.FUZZY_PRODUCT, max_nodes=15)
    def test_random_budgets(self, seed, quantale, max_nodes):
        """Budgets small enough to fill in a few expansions, often before a
        cap has interfered."""
        rng = random.Random(seed)
        cfg = SystemConfig(quantale=quantale, max_rules=3, n_constants=2, n_unary=1,
                           n_binary=1, nontrivial_cbes=True, right_ground=seed % 4 == 0)
        trs = random_system(rng, cfg)
        bounds = OracleBounds(max_nodes=max_nodes)
        for t, s in ground_pairs(rng, trs, 2):
            assert best_conversion_degree(trs, t, s, bounds) == \
                reference_best_conversion_degree(trs, t, s, bounds), (trs.rules, t, s)

    def test_budget_full_before_the_first_expansion(self, walks):
        """With room for no more than the two start nodes, the first
        expansion still walks every edge, as nothing is capped yet; the
        other start node then has no known, unsettled node to walk toward."""
        trs = parse(BUDGET_TEXT).trs
        for max_nodes in (0, 1, 2):
            walks.clear()
            bounds = OracleBounds(max_nodes=max_nodes)
            out = best_conversion_degree(trs, App("a"), App("d"), bounds)
            assert out == reference_best_conversion_degree(trs, App("a"), App("d"), bounds)
            assert out.capped and out.degree is None and not out.exhausted
            assert walks == [(App("a"), False)]
            assert (out.expanded, out.targets_built) == (2, 2)

    def test_budget_fills_before_a_cap(self, walks):
        """The expansion of a fills the budget of 4 exactly (a, b, c and d)
        with nothing capped, so d still walks every edge and its target e
        is the first one dropped; b then walks only toward c, the one
        known, unsettled node of its side, and lowers c's degree to 1."""
        trs = parse(BUDGET_TEXT).trs
        bounds = OracleBounds(max_nodes=4)
        out = best_conversion_degree(trs, App("a"), App("d"), bounds)
        assert out == reference_best_conversion_degree(trs, App("a"), App("d"), bounds)
        assert out.capped and out.degree is None and not out.exhausted
        assert walks == [(App("a"), False), (App("d"), False), (App("b"), True)]
        # b's reversed step back to a is not built
        assert (out.expanded, out.targets_built) == (4, 4)
        # with room for e, nothing is capped and every walk is whole
        walks.clear()
        out = best_conversion_degree(trs, App("a"), App("d"), OracleBounds(max_nodes=5))
        assert out.exhausted and not any(restricted for _, restricted in walks)

    def test_walk_toward_targets(self):
        """Restricted to a set of targets, the walk keeps exactly the edges
        of the whole walk that reach one of them, in the same order."""
        rng = random.Random(63)
        for trial in range(30):
            cfg = SystemConfig(quantale=list(Quantale)[trial % 5], max_rules=3,
                               n_constants=2, nontrivial_cbes=True,
                               right_ground=trial % 3 == 0)
            trs = random_system(rng, cfg)
            consts = tuple(App(c) for c in trs.signature.constants())
            edges = _conversion_edges(trs, consts)
            for u, _ in ground_pairs(rng, trs, 3):
                whole, _ = edges(u)
                reached = list(dict.fromkeys(edge[0] for edge in whole))
                targets = set(rng.sample(reached, len(reached) // 2))
                targets |= {random_term(rng, trs.signature, [], 2) for _ in range(3)}
                targets.discard(u)
                toward: dict = {}
                for w in targets:
                    for context, sub in _contexts(w):
                        toward.setdefault(context, {})[sub] = w
                kept, _ = edges(u, toward)
                assert kept == [edge for edge in whole if edge[0] in targets]


class TestVerify:
    def test_cubic_confirmed(self, cubic):
        verdict = verify_solution(cubic, f3(X, X, X),
                                  f3(App("a"), App("b"), App("d")),
                                  Substitution({X: App("d")}), L.degree(4))
        assert verdict.status == CONFIRMED

    def test_peano_solution_confirmed(self, peano):
        verdict = verify_solution(
            peano, App("+", (X, S(Z))), App("+", (App("+", (X, X)), X)),
            Substitution({X: Z}), L.degree(1),
            bounds=OracleBounds(max_nodes=4000, max_term_size=10))
        assert verdict.status == CONFIRMED

    def test_better_than_possible_claim_refuted(self, cubic):
        verdict = verify_solution(cubic, f3(X, X, X),
                                  f3(App("a"), App("b"), App("d")),
                                  Substitution({X: App("d")}), L.degree(3))
        assert verdict.status == REFUTED

    def test_worse_claim_still_true(self, cubic):
        # degree statements are downward closed in the quantale order
        verdict = verify_solution(cubic, f3(X, X, X),
                                  f3(App("a"), App("b"), App("d")),
                                  Substitution({X: App("d")}), L.degree(5))
        assert verdict.status == CONFIRMED

    def test_tiny_bounds_inconclusive(self, peano):
        verdict = verify_solution(
            peano, App("+", (X, S(Z))), App("+", (App("+", (X, X)), X)),
            Substitution({X: Z}), L.degree(1),
            bounds=OracleBounds(max_nodes=2, max_term_size=4))
        assert verdict.status == INCONCLUSIVE

    def test_open_solution_grounded_over_pool(self, peano):
        # x stays free after the substitution; groundings come from the pool
        verdict = verify_solution(
            peano, S(X), S(X), Substitution(), L.unit,
            pool=[Z, S(Z)], bounds=OracleBounds(max_nodes=500, max_term_size=6))
        assert verdict.status == CONFIRMED
        assert len(verdict.checks) == 2

    def test_negative_grounding_count_rejected(self, peano):
        with pytest.raises(OracleError, match="max_groundings"):
            verify_solution(peano, S(X), S(X), Substitution(), L.unit,
                            pool=[Z], max_groundings=-1)
        assert verify_solution(peano, S(X), S(X), Substitution(), L.unit,
                               pool=[Z], max_groundings=0).status == INCONCLUSIVE


class TestEnumerate:
    def test_cubic_ranking(self, cubic):
        a, b, c, d = (App(n) for n in "abcd")
        ranked = enumerate_best_unifiers(
            cubic, f3(X, X, X), f3(a, b, d), [a, b, c, d])
        assert ranked[0] == (Substitution({X: c}), L.degree(3))
        assert {(str(s), str(deg)) for s, deg in ranked[1:]} == {
            ("{x -> a}", "4"), ("{x -> b}", "4"), ("{x -> d}", "4")}

    def test_chain_ranking(self, chain):
        a, b, c = App("a"), App("b"), App("c")
        ranked = enumerate_best_unifiers(chain, f3(X, X, X), f3(a, b, c), [a, b, c])
        assert ranked[0] == (Substitution({X: b}), L.degree(2))
        assert (Substitution({X: c}), L.degree(3)) in ranked[1:]

    def test_empty_pool_with_variables(self, cubic):
        assert enumerate_best_unifiers(cubic, f3(X, X, X),
                                       f3(App("a"), App("b"), App("d")), []) == []

    def test_ground_problem_ignores_pool(self, cubic):
        a = App("a")
        ranked = enumerate_best_unifiers(cubic, a, a, [])
        assert ranked == [(Substitution(), L.unit)]


class TestScaledSoundness:
    def test_solver_confirmed_under_nontrivial_sensitivities(self):
        """Non-identity argument CBEs amplify degrees on both sides of the
        check; every solver claim must still hold on ground instances."""
        from qnarrow import solve

        rng = random.Random(777)
        bounds = OracleBounds(max_nodes=1500, max_term_depth=8)
        confirmed = 0
        for trial in range(40):
            q = list(Quantale)[trial % 5]
            cfg = SystemConfig(quantale=q, max_rules=3, n_constants=2,
                               n_unary=2, n_binary=1, nontrivial_cbes=True)
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            result = solve(trs, t, s, max_steps=3, max_solutions=3,
                           max_configs=1500)
            for sol in result.solutions:
                verdict = verify_solution(trs, t, s, sol.subst, sol.degree,
                                          bounds=bounds, max_groundings=3)
                assert verdict.status != REFUTED, (trs.rules, t, s, sol)
                confirmed += verdict.status == CONFIRMED
        assert confirmed > 10


class TestProbe:
    def test_zero_trials(self):
        report = conjecture_probe(SystemConfig(), 0)
        assert report.trials == [] and report.flagged == []

    def test_unbalanced_system_flags_gap(self, unbalanced):
        report = conjecture_probe(
            SystemConfig(), 1, max_steps=3,
            systems=[(unbalanced, App("f", (App("a"),)), App("g", (App("b"),)))])
        assert len(report.trials) == 1
        trial = report.trials[0]
        assert trial.flagged
        identity_gaps = [(s, d) for s, d in trial.gaps if s.is_identity]
        assert identity_gaps and identity_gaps[0][1] == L.degree(1)
        assert (Substitution(), L.degree(3)) in trial.basic

    def test_right_ground_trials_never_flag(self):
        cfg = SystemConfig(right_ground=True)
        report = conjecture_probe(cfg, 10, max_steps=3, seed=5)
        assert report.flagged == []


class TestGenerator:
    def test_gates_respected(self):
        rng = random.Random(41)
        for gate in ("right_ground", "right_linear", "balanced"):
            cfg = SystemConfig(**{gate: True})
            for _ in range(10):
                trs = random_system(rng, cfg)
                report = check_trs(trs)
                assert getattr(report, gate)

    def test_problem_is_linear(self):
        rng = random.Random(43)
        cfg = SystemConfig()
        from qnarrow import is_linear
        for _ in range(20):
            trs = random_system(rng, cfg)
            t, s = random_linear_problem(rng, trs)
            assert is_linear(App("", (t, s)))


# -- command-line output on the demo files ------------------------------------

# keeps the verified Peano search to about a second
GOLDEN_VERIFY_STEPS = 4


def golden_oracle_keys():
    return [f"{path.stem}{flags}" for path in sorted(DEMOS.glob("*.gtrs"))
            for flags in ("", f" --verify --max-steps {GOLDEN_VERIFY_STEPS}")]


def oracle_cli_output(key):
    """Exit code and printed text of `qnarrow oracle FILE [flags]`."""
    stem, *flags = key.split(" ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["oracle", str(DEMOS / f"{stem}.gtrs"), *flags])
    return {"exit": code, "stdout": out.getvalue()}


# a missing file fails test_covers_every_demo_file
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


class TestOracleCliGolden:
    """Oracle output, rankings and verified witness paths alike, recorded
    from the search before its per-call tables.  Regenerate (only for a
    change meant to alter the output) with
    `PYTHONPATH=src python tests/test_oracle.py --write-golden`."""

    def test_covers_every_demo_file(self):
        assert sorted(RECORDED) == sorted(golden_oracle_keys())

    @pytest.mark.parametrize("key", sorted(RECORDED))
    def test_output(self, key):
        assert oracle_cli_output(key) == RECORDED[key]


if __name__ == "__main__" and sys.argv[1:] == ["--write-golden"]:
    GOLDEN.write_text(json.dumps({key: oracle_cli_output(key) for key in golden_oracle_keys()},
                                 indent=1, sort_keys=True) + "\n")
