import random
from fractions import Fraction

import pytest

from liemap.scalar import FieldSpecError, FpElement, PrimeField, Rationals, make_field


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


def test_canonical_residues():
    x = FpElement(-1, 7)
    assert x.val == 6
    assert x + 1 == 0
    assert str(FpElement(12, 7)) == "5"
    # the inverses that replaced scalar.invert: FpElement's own and field.inv
    assert FpElement(2, 5) ** -1 == FpElement(3, 5)
    assert Rationals().inv(Fraction(2, 3)) == Fraction(3, 2)
    for zero_inverse in (lambda: FpElement(0, 5) ** -1, lambda: PrimeField(5).inv(5),
                         lambda: Rationals().inv(Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            zero_inverse()


def test_canonical_zero_unique():
    for f in (make_field("Q"), make_field("F7")):
        a = f.residue(3)
        z = f.reduce(a + f.reduce(-a))
        assert z == f.residue(0) and not z
        assert hash(z) == hash(f.residue(0))
    a = FpElement(3, 7)
    z = a + (-a)
    assert z == FpElement(0, 7) and not z
    assert hash(z) == hash(FpElement(0, 7))


@pytest.mark.parametrize("spec", ["Q", "F5", "F7", "F13"])
def test_field_axioms_random_triples(spec):
    # FpElement arithmetic over F_p, Fractions over Q; the descriptor's
    # inverse is checked on the same residues
    f = make_field(spec)
    p = f.modulus
    zero, one = (FpElement(0, p), FpElement(1, p)) if p else (Fraction(0), Fraction(1))
    rng = random.Random(20240517)
    for _ in range(200):
        if f.characteristic:
            a, b, c = (FpElement(rng.randrange(p), p) for _ in range(3))
        else:
            a, b, c = (Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                       for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        if a != zero:
            assert a * a ** -1 == one
            r = f.residue(a)
            assert f.reduce(r * f.inv(r)) == f.residue(1)


def test_rational_embedding_mod_p():
    f = make_field("F5")
    assert f.residue(Fraction(1, 2)) == f.residue(3) == 3
    with pytest.raises(ZeroDivisionError):
        f.residue(Fraction(1, 5))


def test_text_encoding_round_trip():
    q = make_field("Q")
    for s in ("3", "-4", "3/2", "-7/4"):
        assert q.format_scalar(q.parse_scalar(s)) == s
    f = make_field("F7")
    assert f.format_scalar(f.parse_scalar("12")) == "5"
    assert f.parse_scalar(" -2 ") == 5 and type(f.parse_scalar("12")) is int


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        FpElement(1, 5) + FpElement(1, 7)


def test_fraction_with_a_multiple_of_p_below_is_one_error():
    # FpElement arithmetic and the field descriptor reduce a Fraction through
    # the same residue helper, so both refuse 1/6 mod 3 the same way
    for convert in (lambda q: FpElement(1, 3) + q, lambda q: q * FpElement(1, 3),
                    PrimeField(3).residue):
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


@pytest.mark.parametrize("field", [Rationals(), PrimeField(7)])
def test_descriptor_has_one_way_in(field):
    # residue is the one conversion; the constructors of public scalars and
    # the conversion back from residues are gone
    for name in ("lift", "from_int", "from_rational", "zero", "one", "elements"):
        assert not hasattr(field, name), name
