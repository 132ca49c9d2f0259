"""Normal density, CDF, quantile, and Mills-ratio tail approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from sparsemix import (
    ParameterError,
    Phi,
    Phi_inv,
    Phi_inv_upper,
    Phi_tail,
    normal_tail_approx,
    phi,
)
from sparsemix import normal


def test_phi_at_zero():
    assert phi(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)


def test_phi_at_one():
    assert phi(1.0) == pytest.approx(0.24197072451914337, rel=1e-15)


def test_phi_symmetry():
    rng = np.random.default_rng(7)
    x = rng.uniform(-30, 30, size=5000)
    np.testing.assert_array_equal(phi(x), phi(-x))


def test_phi_scalar_and_array_shapes():
    assert isinstance(phi(1.0), float)
    out = phi(np.array([0.0, 1.0]))
    assert out.shape == (2,)


def test_Phi_at_zero():
    assert Phi(0.0) == 0.5


def test_Phi_standard_quantile():
    assert Phi(1.959963985) == pytest.approx(0.975, abs=1e-9)


def test_two_sided_tail_at_six():
    """2(1 - Phi(6)) keeps full relative accuracy far in the tail."""
    tail = 2.0 * Phi_tail(6.0)
    assert tail == pytest.approx(1.97318e-9, rel=1e-3)


def test_Phi_tail_is_not_cancelled():
    # 1 - Phi(x) computed naively dies around x ~ 8.3; the direct form
    # keeps relative accuracy far beyond that.
    assert Phi_tail(30.0) > 0.0
    assert Phi_tail(30.0) == pytest.approx(math.exp(-450) / (30 * math.sqrt(2 * math.pi)), rel=2e-3)


def test_Phi_symmetry_identity():
    rng = np.random.default_rng(11)
    x = rng.uniform(-8, 8, size=10000)
    np.testing.assert_allclose(Phi(x) + Phi_tail(x), 1.0, atol=1e-15)


def test_Phi_inv_center():
    assert Phi_inv(0.5) == 0.0


def test_Phi_inv_standard_quantiles():
    assert Phi_inv(0.975) == pytest.approx(1.959963985, abs=1e-8)
    assert Phi_inv(0.99875) == pytest.approx(3.023341, abs=1e-5)


def test_Phi_inv_round_trip():
    """|Phi(Phi_inv(q)) - q| <= 1e-12 across the full open interval."""
    rng = np.random.default_rng(3)
    q = np.concatenate(
        [
            rng.uniform(1e-12, 1 - 1e-12, size=5000),
            10.0 ** rng.uniform(-300, -1, size=5000),  # deep left tail
        ]
    )
    x = Phi_inv(q)
    back = np.where(q <= 0.5, Phi(x), 1.0 - Phi_tail(x))
    # Relative error in the tail, absolute near the center.
    np.testing.assert_allclose(back, q, rtol=1e-12, atol=1e-12)


def test_Phi_inv_rejects_endpoints():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ParameterError):
            Phi_inv(bad)


def test_Phi_inv_of_a_float_matches_the_array_path_bit_for_bit():
    """A Python float takes a scalar path; it must give the array path's
    bits, on both sides of 1/2 and at the ends of (0, 1), for a mixed array
    and for arrays that lie wholly on one side of 1/2."""
    rng = np.random.default_rng(17)
    q = np.concatenate(
        [
            rng.random(20_000),
            10.0 ** rng.uniform(-323.5, 0.0, 20_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000),
            [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 5e-324, np.nextafter(1.0, 0.0)],
        ]
    )
    q = q[(q > 0.0) & (q < 1.0)]
    scalar = [Phi_inv(float(v)) for v in q]
    assert all(type(x) is float for x in scalar)
    np.testing.assert_array_equal(np.array(scalar).view(np.int64), Phi_inv(q).view(np.int64))
    below = q <= 0.5
    for side in (below, ~below):
        np.testing.assert_array_equal(
            np.array(scalar)[side].view(np.int64), Phi_inv(q[side]).view(np.int64)
        )
    upper = np.array([Phi_inv_upper(float(v)) for v in q[:2000]])
    np.testing.assert_array_equal(upper.view(np.int64), Phi_inv_upper(q[:2000]).view(np.int64))


@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "q must be finite"),
        (math.inf, "q must be finite"),
        (-math.inf, "q must be finite"),
        (0.0, r"q must lie strictly inside \(0, 1\)"),
        (1.0, r"q must lie strictly inside \(0, 1\)"),
    ],
)
def test_Phi_inv_errors_are_the_same_for_floats_and_arrays(bad, message):
    for q in (bad, np.float64(bad), np.asarray(bad), np.array([0.5, bad])):
        with pytest.raises(ParameterError, match=message):
            Phi_inv(q)


def test_Phi_inv_keeps_the_array_path_for_numpy_scalars(monkeypatch):
    """Only a Python float takes the scalar path."""
    calls = []
    monkeypatch.setattr(normal, "_phi_inv_float", lambda q: calls.append(q) or 0.0)
    for q in (np.float64(0.3), np.asarray(0.3), np.array([0.3])):
        Phi_inv(q)
    assert calls == []
    assert Phi_inv(0.3) == 0.0 and calls == [0.3]
    assert isinstance(Phi_inv(np.float64(0.3)), float)
    assert Phi_inv(np.asarray(0.3)) == Phi_inv(np.array([0.3]))[0]


def _two_branch_Phi_inv(q):
    """The quantile with its Newton residual formed on both sides of 1/2 for
    every element, then selected: the reference the array path must match."""
    arr = np.asarray(q, dtype=float)
    x = special.ndtri(arr)
    dens = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    resid = np.where(
        arr <= 0.5,
        0.5 * special.erfc(-x / math.sqrt(2.0)) - arr,
        (1.0 - arr) - 0.5 * special.erfc(x / math.sqrt(2.0)),
    )
    return x - np.where(dens > 1e-300, resid / np.where(dens > 0.0, dens, 1.0), 0.0)


_QUANTILES = st.one_of(
    st.floats(5e-324, 0.5),
    st.floats(0.5, 1.0, exclude_max=True),
    st.floats(5e-324, 1e-300),
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
    st.sampled_from([0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]),
)


@settings(max_examples=300, deadline=None)
@given(q=st.lists(_QUANTILES, min_size=1, max_size=40))
def test_Phi_inv_array_path_matches_the_two_branch_reference(q):
    """Forming the residual only on the occupied sides of 1/2, and dividing
    directly where no density underflowed, keeps every bit: below, above and
    straddling 1/2, subnormal and next to 1."""
    arr = np.array(q)
    np.testing.assert_array_equal(Phi_inv(arr).view(np.int64), _two_branch_Phi_inv(arr).view(np.int64))
    low = arr[arr <= 0.5]
    np.testing.assert_array_equal(Phi_inv(low).view(np.int64), _two_branch_Phi_inv(low).view(np.int64))


@pytest.mark.parametrize("bad, message", [
    ([0.3, math.nan], "q must be finite"),
    ([math.inf, 0.3], "q must be finite"),
    ([0.3, -math.inf], "q must be finite"),
    ([2.0, math.nan], "q must be finite"),
    ([0.3, 0.0], r"q must lie strictly inside \(0, 1\)"),
    ([1.0, 0.3], r"q must lie strictly inside \(0, 1\)"),
    ([0.7, -0.0], r"q must lie strictly inside \(0, 1\)"),
])
def test_Phi_inv_array_errors(bad, message):
    with pytest.raises(ParameterError, match=message):
        Phi_inv(np.array(bad))


def test_Phi_inv_of_an_empty_array_is_empty():
    for q in (np.array([]), [], np.empty((0, 3))):
        out = Phi_inv(q)
        assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == np.shape(q)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 38.5, -38.5, 1e308]))
def test_Phi_tail_agrees_for_float_numpy_and_0d_forms(x):
    """A finite Python float takes a scalar path; np.float64 and a 0-d array
    take the array path, and all three give the same float, bit for bit."""
    forms = [Phi_tail(x), Phi_tail(np.float64(x)), Phi_tail(np.asarray(x))]
    assert all(type(value) is float for value in forms)
    assert len({value.hex() for value in forms}) == 1


def test_Phi_inv_upper_matches_complement():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.01, 0.99, size=1000)
    np.testing.assert_allclose(Phi_inv_upper(q), Phi_inv(1.0 - q), atol=1e-12)


def test_Phi_inv_upper_deep_tail():
    # Far below machine epsilon, where 1 - q is unrepresentable.
    x = Phi_inv_upper(1e-100)
    assert Phi_tail(x) == pytest.approx(1e-100, rel=1e-12)


def test_tail_approx_hand_value():
    # 2 phi(5) / 5, with phi(5) = e^{-12.5}/sqrt(2 pi).
    ta = normal_tail_approx(5.0)
    assert ta.approx == pytest.approx(5.946878058937192e-7, rel=1e-12)


def test_tail_approx_overshoots():
    """The Mills-ratio form always exceeds the exact two-sided tail."""
    ta = normal_tail_approx(5.0)
    exact = 2.0 * Phi_tail(5.0)
    assert 0.9 < exact / ta.approx < 1.0


def test_tail_approx_ratio_tends_to_one():
    ratios = [2.0 * Phi_tail(c) / normal_tail_approx(c).approx for c in (5.0, 10.0, 20.0)]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_tail_approx_correction_bound():
    """exact = approx * (1 - z1) with |z1| c^2 <= c^2/(c^2+1) < 1."""
    for c in (1.0, 2.0, 5.0, 10.0, 30.0):
        ta = normal_tail_approx(c)
        z1 = 1.0 - 2.0 * Phi_tail(c) / ta.approx
        assert 0.0 < z1 * c * c <= ta.correction_bound
        assert ta.correction_bound < 1.0


def test_tail_approx_rejects_nonpositive():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            normal_tail_approx(bad)


def test_nonfinite_inputs_rejected():
    with pytest.raises(ParameterError):
        phi(np.array([1.0, np.nan]))
    with pytest.raises(ParameterError):
        Phi(math.inf)
