import re

import pytest
from hypothesis import given, strategies as st

from ribbonpoly import Perm
from oracles import identity, orbit_of


def random_perm(draw_size=st.integers(min_value=0, max_value=12)):
    return draw_size.flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(Perm)
    )


perms = random_perm()


def test_from_cycles_and_call():
    p = Perm.from_cycles([[1, 2, 3, 4], [5, 6]], 6)
    assert p(1) == 2 and p(4) == 1 and p(5) == 6 and p(6) == 5


def test_composition_applies_right_factor_first():
    p = Perm.from_cycles([[1, 2]], 3)
    q = Perm.from_cycles([[2, 3]], 3)
    assert (p * q)(3) == p(q(3)) == p(2) == 1


def test_orbits_rotate_to_min_and_sort():
    p = Perm.from_cycles([[4, 2, 6], [3, 1]], 6)
    assert p.orbits() == [(1, 3), (2, 6, 4), (5,)]


def test_orbit_of_single_cycle():
    p = Perm.from_cycles([[2, 5, 3]], 5)
    assert orbit_of(p, 5) == (5, 3, 2)


def test_fixed_point_free_involution_check():
    assert Perm.from_cycles([[1, 2], [3, 4]], 4).is_fixed_point_free_involution()
    assert not Perm.from_cycles([[1, 2]], 4).is_fixed_point_free_involution()
    assert not Perm.from_cycles([[1, 2, 3, 4]], 4).is_fixed_point_free_involution()


def test_bad_images_rejected():
    with pytest.raises(ValueError):
        Perm([1, 1, 3])
    with pytest.raises(ValueError):
        Perm.from_cycles([[1, 2], [2, 3]], 3)
    with pytest.raises(ValueError):
        Perm.from_cycles([[0, 1]], 2)


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda: Perm([2.0, 1]), "2.0"),
        (lambda: Perm([True, 2]), "True"),
        (lambda: Perm.from_cycles([[1.0, 2]], 2), "1.0"),
        (lambda: Perm.from_cycles([[True, 2]], 2), "True"),
    ],
    ids=["images-float", "images-bool", "cycles-float", "cycles-bool"],
)
def test_non_integer_labels_rejected(build, label):
    with pytest.raises(ValueError, match=f"label {re.escape(label)} is not an integer"):
        build()


def test_identity_and_cycle_string():
    assert identity(4).cycle_string() == "()"
    assert Perm.from_cycles([[1, 3, 2]], 3).cycle_string() == "(1,3,2)"


@given(perms)
def test_inverse_composes_to_identity(p):
    assert p * p.inverse() == identity(p.size)
    assert p.inverse() * p == identity(p.size)


@given(perms)
def test_orbits_partition_labels(p):
    seen = [h for orbit in p.orbits() for h in orbit]
    assert sorted(seen) == list(range(1, p.size + 1))


@given(perms, perms)
def test_composition_pointwise(p, q):
    if p.size != q.size:
        return
    r = p * q
    assert all(r(i) == p(q(i)) for i in range(1, p.size + 1))
