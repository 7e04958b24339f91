import random
from fractions import Fraction

import pytest

from liemap.scalar import (FieldSpecError, FpElement, PrimeField, Rationals,
                           invert, make_field)


def test_make_field():
    assert make_field("Q") == Rationals()
    assert make_field("F5") == PrimeField(5)
    assert make_field("Fp:7") == PrimeField(7)
    with pytest.raises(FieldSpecError):
        make_field("F4")
    with pytest.raises(FieldSpecError):
        make_field("F1")
    with pytest.raises(FieldSpecError):
        make_field("gibberish")


def test_invert():
    assert invert(Fraction(2, 3)) == Fraction(3, 2)
    assert invert(FpElement(2, 5)) == FpElement(3, 5)
    with pytest.raises(ZeroDivisionError):
        invert(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        invert(FpElement(0, 5))


def test_canonical_residues():
    x = FpElement(-1, 7)
    assert x.val == 6
    assert x + 1 == 0
    assert str(FpElement(12, 7)) == "5"


def test_canonical_zero_unique():
    for f in (make_field("Q"), make_field("F7")):
        a = f.from_int(3)
        z = a + (-a)
        assert z == f.zero() and not z
        assert hash(z) == hash(f.zero())


@pytest.mark.parametrize("spec", ["Q", "F5", "F7", "F13"])
def test_field_axioms_random_triples(spec):
    f = make_field(spec)
    rng = random.Random(20240517)
    for _ in range(200):
        if f.characteristic:
            a, b, c = (f.from_int(rng.randrange(f.modulus)) for _ in range(3))
        else:
            a, b, c = (Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                       for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + f.zero() == a and a * f.one() == a
        if a != f.zero():
            assert a * invert(a) == f.one()


def test_rational_embedding_mod_p():
    f = make_field("F5")
    assert f.from_rational(Fraction(1, 2)) == f.from_int(3)
    with pytest.raises(ZeroDivisionError):
        f.from_rational(Fraction(1, 5))


def test_text_encoding_round_trip():
    q = make_field("Q")
    for s in ("3", "-4", "3/2", "-7/4"):
        assert q.format_scalar(q.parse_scalar(s)) == s
    f = make_field("F7")
    assert f.format_scalar(f.parse_scalar("12")) == "5"


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        FpElement(1, 5) + FpElement(1, 7)


def test_fraction_with_a_multiple_of_p_below_is_one_error():
    # FpElement arithmetic and the field descriptor reduce a Fraction through
    # the same residue helper, so both refuse 1/3 mod 3 the same way
    for convert in (lambda q: FpElement(1, 3) + q, lambda q: q * FpElement(1, 3),
                    PrimeField(3).residue, make_field("F3").from_rational):
        with pytest.raises(ZeroDivisionError, match=r"^denominator 6 not invertible mod 3$"):
            convert(Fraction(1, 6))
    assert FpElement(1, 5) + Fraction(1, 2) == FpElement(4, 5)
    assert FpElement(1, 5) + Fraction(7) == FpElement(3, 5)


def test_prime_field_residue_of_ints_bools_and_scalars():
    f = PrimeField(7)
    ints = (-8, -1, 0, 6, 7, 50, 2 ** 70, -(2 ** 70))
    assert [f.residue(x) for x in ints] == [x % 7 for x in ints]
    assert all(type(f.residue(x)) is int for x in ints)
    assert (f.residue(True), f.residue(False)) == (1, 0)
    assert f.residue(FpElement(10, 7)) == 3 and f.residue(Fraction(1, 2)) == 4
    with pytest.raises(ValueError, match="mixed moduli"):
        f.residue(FpElement(1, 5))
