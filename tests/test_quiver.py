import itertools
import random

import pytest

from hallq.quiver import (
    DimVector,
    Quiver,
    builtin_names,
    builtin_quiver,
    derivation_split,
    euler_form,
    induction_twist,
    stratum_data,
    symmetric_form,
)


def dv(*e):
    return DimVector(tuple(e))


A2 = builtin_quiver("a2")
KRON = builtin_quiver("kronecker")


def test_rejects_cycles_and_loops():
    with pytest.raises(ValueError):
        Quiver(("1",), ((0, 0),))
    with pytest.raises(ValueError):
        Quiver(("1", "2"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Quiver(("1", "2", "3"), ((0, 1), (1, 2), (2, 0)))


def test_parallel_arrows_and_components_ok():
    Quiver(("a", "b", "c"), ((0, 1), (0, 1)))  # parallel fine, c isolated


def test_text_round_trip():
    text = "# linear A3\nvertices: x y z\narrow: x -> y\narrow: y -> z\n"
    Q = Quiver.from_text(text)
    assert Q.vertices == ("x", "y", "z")
    assert Q.arrows == ((0, 1), (1, 2))
    assert Quiver.from_text(Q.to_text()) == Q


def test_euler_form_examples():
    assert euler_form(A2, dv(1, 0), dv(0, 1)) == -1
    assert euler_form(A2, dv(0, 1), dv(1, 0)) == 0
    assert euler_form(KRON, dv(1, 1), dv(1, 1)) == 0


def test_symmetric_form_examples():
    assert symmetric_form(A2, dv(1, 0), dv(0, 1)) == -1
    for Q in (A2, KRON):
        for i in range(Q.n):
            assert symmetric_form(Q, Q.unit(i), Q.unit(i)) == 2
    assert symmetric_form(KRON, dv(1, 0), dv(0, 1)) == -2


def test_induction_twist_examples():
    assert induction_twist(A2, dv(1, 0), dv(0, 1)) == 1
    assert induction_twist(A2, dv(0, 1), dv(1, 0)) == 0


def test_twist_euler_relation_random():
    rng = random.Random(7)
    for Q in (A2, KRON, builtin_quiver("a3")):
        for _ in range(40):
            a = DimVector(tuple(rng.randrange(5) for _ in range(Q.n)))
            b = DimVector(tuple(rng.randrange(5) for _ in range(Q.n)))
            cross = sum(a[s] * b[t] for s, t in Q.arrows)
            assert induction_twist(Q, a, b) - euler_form(Q, a, b) == 2 * cross


def test_bilinearity_random():
    rng = random.Random(11)
    Q = builtin_quiver("a3")
    forms = (euler_form, symmetric_form, induction_twist)
    for _ in range(30):
        a, b, c = (DimVector(tuple(rng.randrange(4) for _ in range(Q.n))) for _ in range(3))
        for f in forms:
            assert f(Q, a + b, c) == f(Q, a, c) + f(Q, b, c)
            assert f(Q, a, b + c) == f(Q, a, b) + f(Q, a, c)
        assert symmetric_form(Q, a, b) == symmetric_form(Q, b, a)


def test_stratum_data_examples():
    lo, hi, strata = stratum_data(A2, dv(1, 0), dv(0, 1), 0, 1)
    assert (lo, hi) == (1, 1)
    assert strata == [(1, symmetric_form(A2, dv(0, 0), dv(0, 0)), symmetric_form(A2, dv(1, 0), dv(0, 1)))]
    assert strata[0][1] == 0  # P_1 = (alpha - i, 0) = 0

    lo, hi, strata = stratum_data(A2, dv(1, 1), dv(1, 0), 0, 1)
    assert (lo, hi) == (0, 1)
    assert [t for t, _, _ in strata] == [0, 1]

    lo, hi, strata = stratum_data(A2, dv(2, 0), dv(0, 1), 0, 2)
    assert (lo, hi) == (2, 2)
    assert len(strata) == 1


def _stratum_twists_by_vectors(Q, a, b, i, m):
    """(t, P_t, P'_t) for t in lo..hi from the symmetric form of the vectors
    a - t*i, (m-t)*i, t*i and b - (m-t)*i."""
    ui = Q.unit(i)
    return [(t, symmetric_form(Q, a - ui.scale(t), ui.scale(m - t)),
             symmetric_form(Q, ui.scale(t), b - ui.scale(m - t)))
            for t in range(max(0, m - b[i]), min(m, a[i]) + 1)]


@pytest.mark.parametrize("name", builtin_names())
def test_stratum_data_closed_form_matches_the_vector_formula(name):
    Q = builtin_quiver(name)
    dims = [DimVector(e) for e in itertools.product(range(5), repeat=Q.n) if sum(e) <= 4]
    nonempty = cases = 0
    for a, b in itertools.product(dims, repeat=2):
        for i in range(Q.n):
            for m in range(4):
                lo, hi, strata = stratum_data(Q, a, b, i, m)
                assert (lo, hi) == (max(0, m - b[i]), min(m, a[i]))
                assert strata == _stratum_twists_by_vectors(Q, a, b, i, m)
                nonempty += bool(strata)
                cases += 1
    assert nonempty > cases // 2


def test_stratum_data_empty_range():
    # lo = max(0, m - beta_i) = 1 exceeds hi = min(m, alpha_i) = 0: empty list
    lo, hi, strata = stratum_data(A2, dv(1, 0), dv(0, 0), 1, 1)
    assert (lo, hi) == (1, 0)
    assert strata == []


def test_derivation_split_orders_the_rest_by_side():
    a3 = builtin_quiver("a3")
    nu = dv(2, 1, 3)
    assert derivation_split(a3, nu, 0, 1, "sub") == (dv(1, 0, 0), dv(1, 1, 3))
    assert derivation_split(a3, nu, 0, 1, "quot") == (dv(1, 1, 3), dv(1, 0, 0))
    assert derivation_split(a3, nu, 2, 3, "sub") == (dv(0, 0, 3), dv(2, 1, 0))
    assert derivation_split(a3, nu, 2, 3, "quot") == (dv(2, 1, 0), dv(0, 0, 3))
    # m = 0 splits off nothing
    assert derivation_split(a3, nu, 1, 0, "sub") == (dv(0, 0, 0), nu)
    assert derivation_split(a3, nu, 1, 0, "quot") == (nu, dv(0, 0, 0))
    # None when the grading cannot drop by m*e_i
    for side in ("sub", "quot"):
        assert derivation_split(a3, nu, 1, 2, side) is None
        assert derivation_split(A2, dv(0, 0), 0, 1, side) is None
    for bad_side in ("", "left", "SUB", None):
        with pytest.raises(ValueError):
            derivation_split(a3, nu, 0, 1, bad_side)
    for vertex in (3, 7, -1):
        for side in ("sub", "quot"):
            for m in (0, 1):
                with pytest.raises(ValueError):
                    derivation_split(a3, nu, vertex, m, side)
    with pytest.raises(ValueError):
        derivation_split(a3, nu, 0, -1, "sub")


def test_stratum_membership_bounds():
    rng = random.Random(3)
    for _ in range(50):
        Q = random.Random(rng.random()).choice((A2, KRON))
        a = DimVector(tuple(rng.randrange(4) for _ in range(Q.n)))
        b = DimVector(tuple(rng.randrange(4) for _ in range(Q.n)))
        i = rng.randrange(Q.n)
        m = rng.randrange(4)
        lo, hi, strata = stratum_data(Q, a, b, i, m)
        assert len(strata) == max(0, hi - lo + 1)
        for t, _, _ in strata:
            assert Q.unit(i).scale(t) <= a
            assert Q.unit(i).scale(m - t) <= b


def test_dim_vector_ops():
    assert dv(1, 2) + dv(3, 0) == dv(4, 2)
    assert dv(3, 1) - dv(1, 1) == dv(2, 0)
    with pytest.raises(ValueError):
        dv(1, 0) - dv(0, 1)
    assert dv(1, 2).total == 3
    assert DimVector.from_csv("1,2,0", 3) == dv(1, 2, 0)
    with pytest.raises(ValueError):
        DimVector.from_csv("1,2", 3)
    # sums and nonnegative multiples are built unchecked; every way to a
    # negative entry is still refused
    assert dv(1, 2).scale(0) == dv(0, 0) and dv(1, 2).scale(3) == dv(3, 6)
    assert dv(0, 0).scale(-1) == dv(0, 0)
    for make in (lambda: DimVector((-1,)), lambda: DimVector.from_csv("-1,0", 2),
                 lambda: dv(1, 2) - dv(0, 3), lambda: dv(0, 1).scale(-1)):
        with pytest.raises(ValueError):
            make()


def test_unit_is_refused_outside_the_vertices():
    assert [A2.unit(i) for i in range(2)] == [dv(1, 0), dv(0, 1)]
    for i in (2, 5, -1, -2):
        with pytest.raises(ValueError):
            A2.unit(i)
    with pytest.raises(ValueError):
        Quiver((), ()).unit(0)
