"""The immutable record base (fields.Record) that every value type uses."""

from fractions import Fraction

import pytest

from symbalg.eisenstein import (
    ONE,
    CubicSymbol,
    EisensteinInt,
    EisensteinPrime,
    SplittingData,
    eps_image,
    factor_rational_prime,
)
from symbalg.fields import QEPS, QQ, FieldDescriptor, FieldElement, Record
from symbalg.local import ArtinSymbolResult, LocalAlgebraSpec, NormCertificate, Verdict
from symbalg.quaternion import ConicPoint, Quaternion, QuaternionAlgebra, SplitVerdict
from symbalg.symbol import MatrixRep, SymbolAlgebra, SymbolElement, matrix_generators


def _point():
    return ConicPoint(QQ.lift(2), QQ.one(), QQ.lift(3))


def _cubic():
    return SymbolAlgebra(QEPS, 3, QEPS.gen(), QEPS.lift(-1), QEPS.one())


# each factory builds a fresh record, equal to but not identical with the last
FACTORIES = {
    FieldDescriptor: lambda: FieldDescriptor(2, 1, 1),
    FieldElement: lambda: FieldElement(QEPS, Fraction(1, 2), 3),
    EisensteinInt: lambda: EisensteinInt(3, 1),
    EisensteinPrime: lambda: EisensteinPrime(EisensteinInt(3, 1), 7),
    CubicSymbol: lambda: CubicSymbol(1),
    SplittingData: lambda: SplittingData(1, 3, 1),
    QuaternionAlgebra: lambda: QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(7)),
    Quaternion: lambda: QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(7)).element(1, 2, 3, 4),
    ConicPoint: _point,
    SplitVerdict: lambda: SplitVerdict("split", _point()),
    SymbolAlgebra: _cubic,
    SymbolElement: lambda: _cubic().x(),
    MatrixRep: lambda: matrix_generators(_cubic()),
    LocalAlgebraSpec: lambda: LocalAlgebraSpec(
        EisensteinInt(2), EisensteinInt(343), EisensteinInt(1), factor_rational_prime(7)
    ),
    NormCertificate: lambda: NormCertificate(3, 3, True),
    ArtinSymbolResult: lambda: ArtinSymbolResult(3, 0),
    Verdict: lambda: Verdict("split", NormCertificate(3, 3, True)),
}
RECORDS = pytest.mark.parametrize("make", FACTORIES.values(), ids=[c.__name__ for c in FACTORIES])


def _record_types(cls=Record):
    """Every record type, including those derived from another record."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def _slots(record):
    """The slots of the record's type and of the records it derives from."""
    return [name for cls in type(record).__mro__ for name in vars(cls).get("__slots__", ())]


def test_every_record_type_is_covered():
    assert set(FACTORIES) == set(_record_types())
    assert all(type(make()) is cls for cls, make in FACTORIES.items())


def test_a_derived_record_takes_its_bases_fields_first():
    assert QuaternionAlgebra._fields == SymbolAlgebra._fields == ("desc", "n", "zeta", "alpha", "beta")
    assert Quaternion._fields == SymbolElement._fields == ("algebra", "coeffs")
    alg = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(7))
    assert (alg.n, alg.zeta, alg.alpha, alg.beta) == (2, QQ.lift(-1), QQ.lift(-1), QQ.lift(7))
    assert repr(alg.one()).startswith("Quaternion(algebra=QuaternionAlgebra(desc=")


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(make):
    record = make()
    assert set(record._fields) <= set(_slots(record))
    for name in _slots(record):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@RECORDS
def test_equal_records_hash_equally(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@RECORDS
def test_no_record_equals_a_tuple(make):
    record = make()
    values = tuple(getattr(record, name) for name in record._fields)
    assert record != values and values != record
    assert record != values[0]


def test_records_of_different_types_differ():
    assert EisensteinInt(1) != CubicSymbol(1)
    assert CubicSymbol(1) != EisensteinInt(1)
    assert NormCertificate(1, 3, True) != SplittingData(1, 3, True)
    assert EisensteinInt(1) != 1 and QQ.one() != 1


def test_unequal_fields_make_unequal_records():
    assert EisensteinInt(3, 1) != EisensteinInt(3, 2)
    assert QEPS.element(1, 2) != QEPS.element(1, 3)
    assert FieldElement(QQ, 1) != FieldElement(QEPS, 1)


def test_positional_construction():
    assert EisensteinInt(3) == EisensteinInt(3, 0) and FieldDescriptor(1, 0, 0) == QQ
    assert type(FieldDescriptor(2, 0, -3).w) is int
    element = FieldElement(QQ, 2)
    assert element == FieldElement(QQ, 2, 0) and type(element.c1) is Fraction
    assert repr(EisensteinInt(3, 1)) == "EisensteinInt(a=3, b=1)"


@pytest.mark.parametrize(
    "build",
    [
        lambda: SplittingData(1, 3),  # a field is missing
        lambda: CubicSymbol(1, 2),  # one value too many
        lambda: CubicSymbol(j=1),  # no such field
        lambda: SplitVerdict("split", kind="split"),  # a field given twice
        lambda: EisensteinInt(1, a=2),
        lambda: QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(7), None),  # _constants is derived, not given
    ],
)
def test_bad_construction_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_construction_validates():
    with pytest.raises(ValueError):
        SplitVerdict("split", None)
    with pytest.raises(ValueError):
        FieldDescriptor(2, 0, -4)  # t^2 - 4 is reducible
    with pytest.raises(ValueError):
        FieldElement(QQ, 1, 1)
    with pytest.raises(ValueError):
        EisensteinPrime(EisensteinInt(3, 1), 5)


def test_prime_caches_hit_on_equal_records():
    factor_rational_prime.cache_clear()
    eps_image.cache_clear()
    prime = factor_rational_prime(7)
    assert factor_rational_prime(7) is prime
    assert factor_rational_prime.cache_info().hits == 1
    twin = EisensteinPrime(EisensteinInt(prime.pi.a, prime.pi.b), prime.p)
    r = eps_image(prime.pi, prime.p)
    assert eps_image(twin.pi, twin.p) == r and eps_image(prime.pi, prime.p) == r
    assert eps_image.cache_info().hits == 2
    assert LocalAlgebraSpec(EisensteinInt(2), EisensteinInt(7), ONE, twin).prime == prime
