"""Degree arithmetic and the CBE fragment algebra."""

import fractions
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qnarrow import (
    CBE_CONST,
    CBE_ID,
    CbeCompose,
    CbePow,
    CbeScale,
    CbeTensor,
    INF,
    Quantale,
    cbe_apply,
    cbe_compose,
    cbe_equal,
    cbe_normalize,
    cbe_tensor,
    q_geq,
    q_join,
    q_leq,
    q_meet,
    q_tensor,
)
from qnarrow.quantale import (MAX_DEGREE_BITS, MAX_LITERAL_DIGITS, CarrierError, CbeError,
                              QuantaleMismatchError, cbe_admissible, read_number)

from conftest import random_cbe, random_value

L = Quantale.LAWVERE
LM = Quantale.LAWVERE_MAX
B = Quantale.BOOL
FG = Quantale.FUZZY_GODEL
FP = Quantale.FUZZY_PRODUCT


class TestValues:
    def test_carriers(self):
        with pytest.raises(CarrierError):
            B.degree(Fraction(1, 2))
        with pytest.raises(CarrierError):
            FG.degree(2)
        with pytest.raises(CarrierError):
            L.degree(-1)
        with pytest.raises(CarrierError):
            FP.degree(INF)
        assert L.degree(INF).num is INF

    def test_parse_degree(self):
        assert L.parse_degree("3").num == 3
        assert L.parse_degree("1/2").num == Fraction(1, 2)
        assert L.parse_degree("inf").num is INF
        assert str(FG.parse_degree("7/10")) == "7/10"
        with pytest.raises(CarrierError):
            FG.parse_degree("inf")
        with pytest.raises(CarrierError):
            L.parse_degree("banana")

    def test_number_literals(self):
        """One reader for number text: exact values, leading zeros ignored,
        and short errors for long sides, zero denominators and other text."""
        assert read_number("007", "n") == 7
        assert read_number("6/04", "n") == Fraction(3, 2)
        assert read_number("0" * 5000 + "1/2", "n") == Fraction(1, 2)
        assert read_number("9" * MAX_LITERAL_DIGITS, "n") == 10 ** MAX_LITERAL_DIGITS - 1
        assert len(str(2 ** MAX_DEGREE_BITS - 1)) == MAX_LITERAL_DIGITS
        for text in ("9" * 5000, "1/" + "9" * 5000, "9" * (MAX_LITERAL_DIGITS + 1) + "/1",
                     "1/0", "1/" + "0" * 5000, "", "1/", "/1", "1/2/3", "-1", "1.5", "x",
                     "\u0663", "1/\u0663", "\uff11", "1_000"):
            with pytest.raises(CarrierError) as err:
                read_number(text, "the number")
            message = str(err.value)
            assert message.startswith("the number ") and len(message) < 80, message
        for build in (L.parse_degree, L.degree):
            with pytest.raises(CarrierError) as err:
                build("9" * 5000)
            assert len(str(err.value)) < 200
            assert "set_int_max_str_digits" not in str(err.value)
        assert FG.degree("3/10") == FG.parse_degree("3/10") == FG.degree(Fraction(3, 10))

    def test_units_and_bounds(self):
        assert L.unit.num == 0 and L.top == L.unit and L.bottom.num is INF
        assert B.unit.num == 1 and B.bottom.num == 0
        assert FP.top.num == 1 and FP.bottom.num == 0

    def test_mixed_quantales_rejected(self):
        with pytest.raises(QuantaleMismatchError):
            q_tensor(L.degree(1), LM.degree(1))
        with pytest.raises(QuantaleMismatchError):
            q_leq(B.degree(1), FG.degree(1))


class TestDegreeBound:
    """A degree's numerator and denominator take at most MAX_DEGREE_BITS
    bits, so every degree converts to a string."""

    def test_values_past_the_bound_rejected(self):
        widest = Fraction(1, 2 ** (MAX_DEGREE_BITS - 1))
        assert len(str(FP.degree(widest))) > 4000
        assert L.degree(2 ** MAX_DEGREE_BITS - 1).num.numerator.bit_length() == MAX_DEGREE_BITS
        for q, num in ((FP, widest / 2), (L, Fraction(2 ** MAX_DEGREE_BITS)),
                       (L, Fraction(1, 3 ** 9000))):
            with pytest.raises(CarrierError):
                q.degree(num)
        with pytest.raises(CarrierError):
            q_tensor(FP.degree(widest), FP.degree(Fraction(1, 2)))

    def test_pow_refused_before_exponentiating(self, monkeypatch):
        third = FP.degree(Fraction(1, 3))
        assert str(cbe_apply(CbePow(64 ** 2), third)) == f"1/{3 ** 4096}"
        assert cbe_apply(CbePow(2 ** 60), FP.unit) == FP.unit

        def exponentiated(*args):
            raise AssertionError("pow computed a degree past the bound")

        monkeypatch.setattr(fractions.Fraction, "__pow__", exponentiated)
        for exponent in (64 ** 3, 2 ** 60):
            with pytest.raises(CarrierError):
                cbe_apply(CbePow(exponent), third)


class TestTensorOrder:
    def test_lawvere_tensor_is_addition(self):
        assert q_tensor(L.degree(1), L.degree(2)) == L.degree(3)
        assert q_tensor(L.degree(1), L.degree(INF)).num is INF

    def test_lawvere_max_tensor(self):
        assert q_tensor(LM.degree(1), LM.degree(2)) == LM.degree(2)

    def test_unit_law(self):
        for q in Quantale:
            a = q.degree(1) if not q.reversed_order else q.degree(2)
            assert q_tensor(a, q.unit) == a

    def test_godel_tensor_is_min(self):
        assert q_tensor(FG.degree(Fraction(3, 10)), FG.degree(Fraction(7, 10))) \
            == FG.degree(Fraction(3, 10))

    def test_product_tensor(self):
        assert q_tensor(FP.degree(Fraction(1, 2)), FP.degree(Fraction(1, 2))) \
            == FP.degree(Fraction(1, 4))

    def test_lawvere_order_reversed(self):
        assert q_leq(L.degree(3), L.degree(1))
        assert not q_leq(L.degree(1), L.degree(3))
        assert q_leq(L.degree(INF), L.degree(100))

    def test_bool_order(self):
        assert q_leq(B.degree(0), B.degree(1))
        assert not q_leq(B.degree(1), B.degree(0))

    def test_reflexive(self):
        for q in Quantale:
            a = q.unit
            assert q_leq(a, a) and q_geq(a, a)

    def test_join_meet(self):
        assert q_join(L, [L.degree(3), L.degree(1), L.degree(2)]) == L.degree(1)
        assert q_meet(L, [L.degree(3), L.degree(1)]) == L.degree(3)
        assert q_join(B, [B.degree(0), B.degree(1)]) == B.degree(1)
        assert q_join(L, [L.degree(5)]) == L.degree(5)
        assert q_join(L, []) == L.bottom
        assert q_meet(L, []) == L.top
        assert q_join(FG, [FG.degree(Fraction(1, 4)), FG.degree(Fraction(3, 4))]) \
            == FG.degree(Fraction(3, 4))


class TestCbe:
    def test_apply_examples(self):
        assert cbe_apply(CbeScale(3), L.degree(1)) == L.degree(3)
        assert cbe_apply(CBE_ID, FG.degree(Fraction(1, 2))) == FG.degree(Fraction(1, 2))
        for q in Quantale:
            assert cbe_apply(CBE_CONST, q.bottom) == q.unit

    def test_admissibility(self):
        with pytest.raises(CbeError):
            cbe_apply(CbeScale(3), FG.degree(Fraction(1, 2)))
        with pytest.raises(CbeError):
            cbe_apply(CbePow(2), L.degree(1))
        with pytest.raises(CbeError):
            CbeScale(-1)
        with pytest.raises(CbeError):
            CbePow(0)

        def raises_cbe_error(call):
            try:
                call()
            except CbeError:
                return True
            return False

        # one walk decides admissibility; normalization and evaluation agree
        for q in Quantale:
            fragment = {L: CbeScale, LM: CbeScale, FP: CbePow}.get(q)
            for base in (CBE_ID, CBE_CONST, CbeScale(2), CbePow(2)):
                for f in (base, CbeCompose(base, CBE_ID), CbeCompose(CBE_ID, base),
                          CbeTensor(base, CBE_ID), CbeTensor(CBE_ID, base)):
                    admitted = cbe_admissible(q, f)
                    assert admitted == (base in (CBE_ID, CBE_CONST) or type(base) is fragment)
                    assert admitted == (not raises_cbe_error(lambda: cbe_normalize(q, f))
                                        and not raises_cbe_error(lambda: cbe_apply(f, q.unit)))

    def test_compose_examples(self):
        assert cbe_compose(L, CbeScale(2), CbeScale(3)) == CbeScale(6)
        assert cbe_equal(L, cbe_compose(L, CBE_ID, CbeScale(5)), CbeScale(5))
        assert cbe_tensor(L, CbeScale(1), CbeScale(2)) == CbeScale(3)
        assert cbe_tensor(LM, CbeScale(1), CbeScale(2)) == CbeScale(2)
        assert cbe_compose(FP, CbePow(2), CbePow(3)) == CbePow(6)
        assert cbe_tensor(FP, CbePow(2), CbePow(3)) == CbePow(5)

    def test_normal_forms(self):
        assert cbe_normalize(L, CbeTensor(CBE_ID, CbeTensor(CBE_ID, CBE_ID))) \
            == CbeScale(3)
        assert cbe_normalize(L, CbeCompose(CBE_CONST, CbeScale(7))) == CBE_CONST
        assert cbe_normalize(L, CbeScale(0)) == CBE_CONST
        assert cbe_equal(L, CbeScale(1), CBE_ID)
        assert cbe_normalize(B, CbeTensor(CBE_ID, CBE_ID)) == CBE_ID
        assert cbe_normalize(B, CbeTensor(CBE_ID, CBE_CONST)) == CBE_ID
        assert cbe_normalize(FG, CbeCompose(CBE_ID, CBE_CONST)) == CBE_CONST
        assert cbe_normalize(FP, CBE_ID) == CbePow(1)

    def test_scale_zero_is_const_on_infinity(self):
        assert cbe_apply(CbeScale(0), L.degree(INF)) == L.unit
        assert cbe_apply(CbeScale(2), L.degree(INF)).num is INF

    def test_normalize_preserves_evaluation(self):
        rng = random.Random(7)
        for q in Quantale:
            for _ in range(200):
                f = random_cbe(rng, q)
                a = random_value(rng, q)
                assert cbe_apply(f, a) == cbe_apply(cbe_normalize(q, f), a)

    def test_equal_iff_same_action_on_samples(self):
        rng = random.Random(11)
        for q in Quantale:
            samples = [random_value(rng, q) for _ in range(12)] + [q.top, q.bottom]
            for _ in range(120):
                f, g = random_cbe(rng, q), random_cbe(rng, q)
                same = all(cbe_apply(f, a) == cbe_apply(g, a) for a in samples)
                assert cbe_equal(q, f, g) == same


def degree_strategy(q):
    if q is Quantale.BOOL:
        return st.sampled_from((0, 1)).map(q.degree)
    if q.reversed_order:
        finite = st.fractions(min_value=0, max_value=30).map(q.degree)
        return st.one_of(finite, st.just(q.degree(INF)))
    return st.fractions(min_value=0, max_value=1).map(q.degree)


@pytest.mark.parametrize("q", list(Quantale), ids=lambda q: q.value)
@given(data=st.data())
def test_tensor_monotone(q, data):
    a = data.draw(degree_strategy(q))
    b = data.draw(degree_strategy(q))
    c = data.draw(degree_strategy(q))
    lo, hi = (a, b) if q_leq(a, b) else (b, a)
    assert q_leq(q_tensor(lo, c), q_tensor(hi, c))
    assert q_leq(q_tensor(c, lo), q_tensor(c, hi))


@pytest.mark.parametrize("q", list(Quantale), ids=lambda q: q.value)
@given(data=st.data())
def test_order_is_total_and_antisymmetric(q, data):
    a = data.draw(degree_strategy(q))
    b = data.draw(degree_strategy(q))
    assert q_leq(a, b) or q_leq(b, a)
    if q_leq(a, b) and q_leq(b, a):
        assert a == b


# -- value-type contract ------------------------------------------------------

small_numbers = st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1)))


@st.composite
def degrees(draw):
    q = draw(st.sampled_from(list(Quantale)))
    if q.reversed_order and draw(st.booleans()):
        return q.degree(INF)
    num = draw(small_numbers)
    if not q.contains(num):
        num = Fraction(1)
    return q.degree(num)


class TestValueContract:
    @given(degrees(), degrees())
    @example(L.degree(1), LM.degree(1))
    @example(L.degree(INF), L.degree(0))
    def test_eq_and_hash_consistent(self, a, b):
        assert (a == b) == (a.quantale is b.quantale and a.num == b.num)
        if a == b:
            assert hash(a) == hash(b)
        # the generated dataclass hash, so hashed collections keep their order
        assert hash(a) == hash((a.quantale, a.num))
        copy = a.quantale.degree(a.num)
        assert copy == a and hash(copy) == hash(a)

    def test_equal_numbers_in_different_quantales_unequal(self):
        pairs = [(L.degree(1), LM.degree(1)), (FG.degree(1), FP.degree(1)),
                 (B.degree(0), FG.degree(0)), (L.degree(INF), LM.degree(INF))]
        for a, b in pairs:
            assert a.num == b.num and a != b and b != a
        assert len({L.degree(1), LM.degree(1), FG.degree(1), FP.degree(1), B.degree(1)}) == 5

    def test_infinity_compares(self):
        assert L.degree(INF) == L.bottom == L.parse_degree("inf")
        assert hash(L.degree(INF)) == hash(L.bottom)
        assert L.degree(INF) != L.degree(0) and L.degree(0) != L.degree(INF)
        assert L.degree(INF) != INF
        assert q_leq(L.degree(INF), L.degree(5)) and not q_leq(L.degree(5), L.degree(INF))

    def test_pinned_reprs(self):
        assert repr(L.degree(3)) == \
            "QuantaleValue(quantale=<Quantale.LAWVERE: 'lawvere'>, num=Fraction(3, 1))"
        assert repr(L.degree(INF)) == \
            "QuantaleValue(quantale=<Quantale.LAWVERE: 'lawvere'>, num=inf)"
