"""Terms, positions, grades, substitutions, and fresh variants."""

import copy
import pickle
import random
from dataclasses import make_dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qnarrow import (
    App,
    CBE_CONST,
    CBE_ID,
    CbeScale,
    FreshCounter,
    IDENTITY,
    INF,
    Quantale,
    Signature,
    Substitution,
    cbe_apply,
    cbe_equal,
    fresh_variant,
    q_tensor,
    fun_positions,
    grade_of_position,
    grade_of_var,
    is_ground,
    is_linear,
    positions,
    replace_at,
    subterm_at,
    Var,
    var_positions,
    vars_of,
)
from qnarrow.term import (
    EQ_SYMBOL,
    InvalidPositionError,
    SignatureError,
    SubstitutionError,
    graded_subterms,
    instantiate,
    iter_subterms,
    position_from_str,
    position_to_str,
)
from qnarrow.narrow import canonical_subst
from qnarrow.oracle import SystemConfig, random_signature, random_system, random_term
from qnarrow.unify import resolve, resolve_all

from conftest import S, X, Y, Z, plus, random_value

L = Quantale.LAWVERE


def lawvere_sig(**extra):
    symbols = {"a": (), "f": (CBE_ID, CBE_ID)}
    symbols.update(extra)
    return Signature(L, symbols)


class TestPositions:
    def test_example_f_x_a(self):
        sig = lawvere_sig()
        t = App("f", (X, App("a")))
        assert fun_positions(t) == [(), (2,)]
        assert var_positions(t) == [(1,)]
        assert positions(t) == [(), (1,), (2,)]

    def test_constant(self):
        assert positions(App("a")) == [()]

    def test_repeated_variable_positions(self):
        t = plus(plus(X, X), X)
        assert var_positions(t) == [(1, 1), (1, 2), (2,)]

    def test_subterm_and_replace(self):
        t = App("f", (App("a"), App("b")))
        assert subterm_at(t, (2,)) == App("b")
        assert replace_at(t, (), Z) == Z
        three = App("g", (X, X, X))
        assert replace_at(three, (1,), App("d")) == App("g", (App("d"), X, X))
        assert replace_at(t, (2,), subterm_at(t, (2,))) == t
        with pytest.raises(InvalidPositionError):
            subterm_at(t, (3,))
        with pytest.raises(InvalidPositionError):
            replace_at(t, (1, 1), Z)

    def test_rendering(self):
        assert position_to_str(()) == "^"
        assert position_to_str((1, 2)) == "1.2"
        assert position_from_str("^") == ()
        assert position_from_str("2.1") == (2, 1)


class TestGrades:
    def test_root_grade_is_identity(self):
        sig = lawvere_sig()
        t = App("f", (X, App("a")))
        assert cbe_equal(L, grade_of_position(sig, t, ()), CBE_ID)

    def test_scaled_argument(self):
        sig = Signature(L, {"a": (), "f": (CbeScale(3),)})
        t = App("f", (App("a"),))
        assert grade_of_position(sig, t, (1,)) == CbeScale(3)

    def test_identity_arities_stay_identity(self):
        sig = lawvere_sig()
        t = App("f", (App("f", (X, App("a"))), X))
        for p in positions(t):
            assert cbe_equal(L, grade_of_position(sig, t, p), CBE_ID)

    def test_grade_of_var(self):
        sig = Signature(L, {"g": (CBE_ID, CBE_ID, CBE_ID)})
        t = App("g", (X, X, X))
        assert grade_of_var(sig, t, X) == CbeScale(3)
        assert grade_of_var(sig, t, Y) == CBE_CONST
        assert cbe_equal(L, grade_of_var(sig, X, X), CBE_ID)

    def test_grade_of_var_matches_pointwise_sampling(self):
        # tensor over occurrences agrees with summed applications
        sig = Signature(L, {"g": (CBE_ID, CbeScale(2), CBE_ID)})
        t = App("g", (X, X, X))
        g = grade_of_var(sig, t, X)
        rng = random.Random(3)
        for _ in range(20):
            a = random_value(rng, L)
            parts = [cbe_apply(grade_of_position(sig, t, p), a)
                     for p in var_positions(t) if subterm_at(t, p) == X]
            total = parts[0]
            from qnarrow import q_tensor
            for part in parts[1:]:
                total = q_tensor(total, part)
            assert cbe_apply(g, a) == total

    def test_grade_composition_random(self):
        rng = random.Random(5)
        for qk in Quantale:
            cfg = SystemConfig(quantale=qk, nontrivial_cbes=True)
            for _ in range(60):
                sig = random_signature(rng, cfg)
                t = random_term(rng, sig, [X, Y], 3)
                from qnarrow.quantale import cbe_compose
                for p in positions(t):
                    for k in range(len(p) + 1):
                        left, right = p[:k], p[k:]
                        combined = cbe_compose(
                            qk,
                            grade_of_position(sig, t, left),
                            grade_of_position(sig, subterm_at(t, left), right))
                        assert cbe_equal(qk, grade_of_position(sig, t, p), combined)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(Quantale)), st.booleans())
    def test_graded_subterms_match_grade_of_position(self, seed, qk, goal):
        """The walk yields exactly the function positions of iter_subterms,
        in order, each graded as grade_of_position grades it; goals are
        walked under the extended signature."""
        rng = random.Random(seed)
        trs = random_system(rng, SystemConfig(quantale=qk, nontrivial_cbes=True))
        sig = trs.signature
        t = random_term(rng, sig, [X, Y], 4)
        if goal:
            sig = trs.extended.signature
            t = App(EQ_SYMBOL, (t, random_term(rng, trs.signature, [X, Y], 3)))
        walked = list(graded_subterms(sig, t))
        assert [(p, sub) for p, sub, _ in walked] == \
            [(p, sub) for p, sub in iter_subterms(t) if isinstance(sub, App)]
        for p, _, grade in walked:
            assert cbe_equal(qk, grade, grade_of_position(sig, t, p))


class TestSignature:
    def test_reserved_rejected(self):
        with pytest.raises(SignatureError):
            Signature(L, {"true": ()})
        with pytest.raises(SignatureError):
            Signature(L, {"=?": (CBE_ID, CBE_ID)})

    def test_admissibility_checked(self):
        with pytest.raises(SignatureError):
            Signature(Quantale.FUZZY_GODEL, {"f": (CbeScale(3),)})

    def test_extend(self):
        sig = lawvere_sig()
        ext = sig.extend()
        assert ext.is_extended
        assert ext.arity("=?") == (CbeScale(1), CbeScale(1))
        assert ext.arity("true") == ()
        with pytest.raises(SignatureError):
            ext.extend()


class TestSubstitution:
    def test_apply(self):
        sigma = Substitution({X: Z})
        assert sigma.apply(X) == Z
        assert sigma.apply(plus(X, S(X))) == plus(Z, S(Z))
        assert IDENTITY.apply(plus(X, Y)) == plus(X, Y)

    def test_compose(self):
        f_y = App("f", (Y, Y))
        sigma = Substitution({X: f_y})
        rho = Substitution({Y: App("a")})
        composed = sigma.compose(rho)
        assert composed.apply(X) == App("f", (App("a"), App("a")))
        assert composed.apply(Y) == App("a")

    def test_idempotency_enforced(self):
        with pytest.raises(SubstitutionError):
            Substitution({X: S(X)})
        sigma = Substitution({X: S(Y)})
        with pytest.raises(SubstitutionError):
            sigma.compose(Substitution({Y: App("f", (X, X))}))

    def test_apply_twice_is_apply_once(self):
        rng = random.Random(9)
        cfg = SystemConfig()
        for _ in range(100):
            sig = random_signature(rng, cfg)
            value = random_term(rng, sig, [], 2)
            t = random_term(rng, sig, [X, Y], 3)
            sigma = Substitution({X: value})
            assert sigma.apply(sigma.apply(t)) == sigma.apply(t)

    def test_rendering(self):
        assert str(Substitution({X: S(Z)})) == "{x -> S(Z)}"
        assert str(IDENTITY) == "{}"


class TestFreshVariants:
    def test_rule_variant_disjoint(self):
        counter = FreshCounter()
        t = plus(S(X), Y)
        first = fresh_variant(t, counter)
        second = fresh_variant(t, counter)
        assert not (vars_of(first) & vars_of(second))
        assert not (vars_of(first) & vars_of(t))

    def test_ground_unchanged(self):
        counter = FreshCounter()
        assert fresh_variant(S(Z), counter) == S(Z)

    def test_hundred_calls_pairwise_disjoint(self):
        counter = FreshCounter()
        t = plus(X, plus(Y, X))
        seen = []
        for _ in range(100):
            seen.append(frozenset(vars_of(fresh_variant(t, counter))))
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert not (seen[i] & seen[j])

    def test_indices_left_to_right_lhs_then_rhs(self):
        counter = FreshCounter(5)
        lhs, rhs = fresh_variant((plus(Y, S(X)), plus(X, Y)), counter)
        y5, x6 = Var("y", 5), Var("x", 6)
        assert lhs == plus(y5, S(x6))
        assert rhs == plus(x6, y5)
        assert counter.value == 7
        # a variable first met on the right side is numbered after the left's
        lhs, rhs = fresh_variant((S(X), plus(X, Y)), FreshCounter(1))
        assert (lhs, rhs) == (S(Var("x", 1)), plus(Var("x", 1), Var("y", 2)))

    def test_counter_strictly_increases(self):
        counter = FreshCounter()
        values = [counter.next() for _ in range(50)]
        assert values == sorted(set(values))


class TestPredicates:
    def test_linear(self):
        assert is_linear(App("f", (X, Y)))
        assert not is_linear(App("g", (X, X, X)))
        assert is_linear(S(Z))

    def test_ground(self):
        assert is_ground(S(Z))
        assert not is_ground(S(X))


# -- value-type contract ------------------------------------------------------
#
# Search state keys order constraints by `str` of each equation, which is
# the repr of its terms, so the reprs below are part of the search's
# behaviour.  The mirrors are frozen dataclasses with the fields of Var, App
# and QuantaleValue, every method generated.

PlainVar = make_dataclass("Var", [("name", str), ("index", int)], frozen=True)
PlainApp = make_dataclass("App", [("symbol", str), ("args", tuple)], frozen=True)
PlainDegree = make_dataclass("QuantaleValue", [("quantale", Quantale), ("num", object)],
                             frozen=True)


def mirror(t):
    if isinstance(t, Var):
        return PlainVar(t.name, t.index)
    return PlainApp(t.symbol, tuple(mirror(a) for a in t.args))


# a small vocabulary, so that equal terms are drawn often
variables = st.builds(Var, st.sampled_from(("x", "y")), st.integers(0, 2))
terms = st.recursive(
    st.one_of(variables, st.sampled_from(("Z", "a")).map(App)),
    lambda children: st.builds(App, st.sampled_from(("S", "f")),
                               st.lists(children, min_size=1, max_size=2).map(tuple)),
    max_leaves=5)


def reference_str(t):
    """App.__str__ as it was before it stopped recursing, its logic kept
    verbatim."""
    if isinstance(t, Var):
        return str(t)
    if t.symbol == EQ_SYMBOL and len(t.args) == 2:
        return f"{reference_str(t.args[0])} =? {reference_str(t.args[1])}"
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(reference_str(a) for a in t.args)})"


@st.composite
def degrees(draw):
    q = draw(st.sampled_from(list(Quantale)))
    if q.reversed_order and draw(st.booleans()):
        return q.degree(INF)
    num = draw(st.sampled_from(("0", "1/2", "1", "3")))
    return q.parse_degree(num if q.contains(Fraction(num)) else "1")


# equations (also nested and with other argument counts) and up to three
# arguments, so that every rendering branch is drawn
rendered_terms = st.recursive(
    st.one_of(variables, st.sampled_from(("Z", "a", "true", EQ_SYMBOL)).map(App)),
    lambda children: st.builds(App, st.sampled_from(("S", "f", EQ_SYMBOL)),
                               st.lists(children, min_size=1, max_size=3).map(tuple)),
    max_leaves=10)


class TestValueContract:
    @given(terms, terms)
    @example(Var("x", 0), Var("x", 1))
    @example(Var("x", 1), Var("y", 1))
    @example(S(X), S(Var("x", 1)))
    def test_eq_and_hash_consistent(self, a, b):
        assert (a == b) == (mirror(a) == mirror(b))
        if a == b:
            assert hash(a) == hash(b)
        assert a != mirror(a) and a != repr(a)

    @given(terms)
    def test_rebuilt_copy_is_equal(self, t):
        copy = (Var(t.name, t.index) if isinstance(t, Var)
                else App(t.symbol, tuple(t.args)))
        assert copy == t and hash(copy) == hash(t)

    @given(terms, terms)
    def test_repr_and_hash_match_the_dataclass_form(self, a, b):
        assert repr(a) == repr(mirror(a))
        assert str((a, b)) == str((mirror(a), mirror(b)))
        assert hash(a) == hash(mirror(a))

    @given(rendered_terms)
    def test_rendering_matches_the_recursive_form(self, t):
        assert str(t) == reference_str(t)

    @given(degrees(), degrees())
    def test_degrees_match_the_dataclass_form(self, a, b):
        plain_a, plain_b = (PlainDegree(v.quantale, v.num) for v in (a, b))
        assert repr(a) == repr(plain_a)
        assert hash(a) == hash(plain_a)
        assert (a == b) == (plain_a == plain_b)
        assert a != plain_a

    @pytest.mark.parametrize("value", [X, Var("y", 3), plus(S(X), Z), L.degree(2),
                                       q_tensor(L.degree(1), L.degree(2))],
                             ids=repr)
    def test_immutable(self, value):
        for name in (*value.__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize("value", [X, Var("y", 3), plus(S(X), Z), App("Z"),
                                       L.degree(2), L.degree(INF), L.parse_degree("1/3"),
                                       q_tensor(Quantale.FUZZY_PRODUCT.degree(Fraction(1, 2)),
                                                Quantale.FUZZY_PRODUCT.degree(Fraction(1, 3)))],
                             ids=repr)
    def test_copy_and_pickle_round_trip(self, value):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(value)
            assert other == value and hash(other) == hash(value)
            assert repr(other) == repr(value)

    def test_deep_terms_compare_without_recursion(self):
        """Equality walks deep arguments from an explicit stack: equal terms
        built apart are equal, and terms differing only at the leaf are not,
        far past the interpreter's recursion limit."""
        def tower(leaf, depth=5000):
            t = leaf
            for _ in range(depth):
                t = S(t)
            return t

        assert tower(Z) == tower(Z) and not tower(Z) != tower(Z)
        assert tower(Z) != tower(App("a")) and not tower(Z) == tower(X)
        assert plus(tower(Z), X) == plus(tower(Z), X)
        assert plus(tower(Z), X) != plus(tower(Z), Y)

    def test_pinned_reprs(self):
        assert repr(Var("y", 3)) == "Var(name='y', index=3)"
        assert repr(X) == "Var(name='x', index=0)"
        assert repr(S(Var("x", 2))) == "App(symbol='S', args=(Var(name='x', index=2),))"
        assert str((plus(X, Z), Var("y", 1))) == (
            "(App(symbol='+', args=(Var(name='x', index=0), App(symbol='Z', args=()))), "
            "Var(name='y', index=1))")


# -- the variable-replacing walks as they were before term.instantiate ----------


def reference_apply(subst, t):
    """Substitution.apply, its logic kept verbatim."""
    if not subst._map:
        return t
    if isinstance(t, Var):
        return subst._map.get(t, t)
    new_args = tuple(reference_apply(subst, a) for a in t.args)
    if all(n is o for n, o in zip(new_args, t.args)):
        return t
    return App(t.symbol, new_args)


def reference_fresh_variant(terms, counter):
    """fresh_variant, its logic kept verbatim."""
    single = isinstance(terms, (Var, App))
    group = (terms,) if single else tuple(terms)
    renaming = {}

    def rename(t):
        if isinstance(t, Var):
            v = renaming.get(t)
            if v is None:
                v = renaming[t] = Var(t.name, counter.next())
            return v
        if not t.args:
            return t  # constants are shared, not rebuilt
        return App(t.symbol, tuple([rename(a) for a in t.args]))

    renamed = tuple(rename(t) for t in group)
    return renamed[0] if single else renamed


def reference_resolve(t, bindings):
    """unify.resolve, its logic kept verbatim."""
    if isinstance(t, Var):
        bound = bindings.get(t)
        return t if bound is None else reference_resolve(bound, bindings)
    if not bindings or not t.args:
        return t
    new_args = tuple(reference_resolve(a, bindings) for a in t.args)
    if all(n is o for n, o in zip(new_args, t.args)):
        return t
    return App(t.symbol, new_args)


def reference_resolve_all(bindings):
    """unify.resolve_all, its logic kept verbatim."""
    done = {}

    def res(t):
        if isinstance(t, Var):
            out = done.get(t)
            if out is None:
                bound = bindings.get(t)
                out = done[t] = t if bound is None else res(bound)
            return out
        if not t.args:
            return t
        new_args = tuple(res(a) for a in t.args)
        if all(n is o for n, o in zip(new_args, t.args)):
            return t
        return App(t.symbol, new_args)

    return {x: res(x) for x in bindings}


class ReferenceCanon:
    """narrow._Canon, its logic kept verbatim."""

    def __init__(self):
        self.renaming = {}

    def term(self, t):
        if isinstance(t, Var):
            if t.index == 0:
                return t
            if t not in self.renaming:
                self.renaming[t] = Var("?", len(self.renaming) + 1)
            return self.renaming[t]
        return App(t.symbol, tuple(self.term(a) for a in t.args))


def reference_canonical_subst(subst):
    """narrow.canonical_subst, its logic kept verbatim."""
    canon = ReferenceCanon()
    items = sorted(subst.items(), key=lambda kv: (kv[0].name, kv[0].index))
    return Substitution({x: canon.term(t) for x, t in items})


# variables at several indices, so that problem variables (index 0) meet
# counter-issued ones
walk_vars = st.builds(Var, st.sampled_from("xyz"), st.integers(0, 3))


def walk_terms(leaf_vars):
    return st.recursive(
        st.one_of(leaf_vars, st.sampled_from(("Z", "a")).map(App)),
        lambda children: st.builds(App, st.sampled_from(("S", "f")),
                                   st.lists(children, min_size=1, max_size=2).map(tuple)),
        max_leaves=6)


@st.composite
def idempotent_maps(draw):
    """A map whose domain variables occur in none of its range terms."""
    domain = draw(st.sets(walk_vars, max_size=4))
    free = [v for v in (Var(n, i) for n in "xyz" for i in range(4)) if v not in domain]
    return {x: draw(walk_terms(st.sampled_from(free)))
            for x in sorted(domain, key=lambda v: (v.name, v.index))}


@st.composite
def triangular_bindings(draw):
    """Acyclic bindings: each bound variable maps to a term over the
    variables bound after it and unbound ones, and may chain through them."""
    chain = draw(st.permutations([Var(n, i) for n in "xyz" for i in range(4)]))
    bound = draw(st.integers(0, 6))
    bindings = {}
    for k in range(bound - 1, -1, -1):
        bindings[chain[k]] = draw(walk_terms(st.sampled_from(chain[k + 1:])))
    keys = draw(st.permutations(list(bindings)))
    return {x: bindings[x] for x in keys}


class TestInstantiate:
    """Each walk routed through `instantiate` agrees by value with the walk
    it replaced."""

    @given(idempotent_maps(), st.data())
    def test_apply(self, mapping, data):
        # terms over the map's domain and one more variable, so that most
        # variables drawn are replaced
        t = data.draw(walk_terms(st.sampled_from(sorted(mapping, key=str) + [Var("w")])))
        subst = Substitution(mapping)
        assert subst.apply(t) == reference_apply(subst, t)

    @given(st.lists(walk_terms(walk_vars), min_size=1, max_size=3), st.integers(1, 9))
    def test_fresh_variant(self, group, start):
        for terms in (group[0], tuple(group)):
            counter, expected_counter = FreshCounter(start), FreshCounter(start)
            assert fresh_variant(terms, counter) == \
                reference_fresh_variant(terms, expected_counter)
            assert counter.value == expected_counter.value

    @given(walk_terms(walk_vars), triangular_bindings())
    def test_resolve(self, t, bindings):
        assert resolve(t, bindings) == reference_resolve(t, bindings)

    @given(triangular_bindings())
    def test_resolve_all(self, bindings):
        result = resolve_all(bindings)
        expected = reference_resolve_all(bindings)
        assert list(result.items()) == list(expected.items())

    @given(idempotent_maps())
    def test_canonical_subst(self, mapping):
        subst = Substitution(mapping)
        assert list(canonical_subst(subst).items()) == \
            list(reference_canonical_subst(subst).items())

    @given(walk_terms(walk_vars))
    def test_unchanged_subterms_are_shared(self, t):
        assert instantiate(t, lambda x: None) is t
        grown = instantiate(t, lambda x: S(x) if x.index == 0 else None)
        for p, old in iter_subterms(t):
            if all(v.index for v in vars_of(old)):
                assert subterm_at(grown, p) is old, position_to_str(p)
