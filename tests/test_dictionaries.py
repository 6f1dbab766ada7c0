import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geopursuit as gp
from geopursuit.dictionaries import INTERIOR_MARGIN, ParamPoint
from conftest import (TranslationDictionary, fd_partials, fd_second_partials,
                      interior_affine_points)


def test_param_point_validation():
    # a point is its coordinates, finite and read-only; the dictionary that
    # evaluates it checks its scales
    p = gp.ParamPoint((3.0, 2.0))
    assert len(p) == 2
    with pytest.raises(ValueError):
        p.coords[0] = 1.0
    with pytest.raises(ValueError):
        gp.ParamPoint([[3.0, 2.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(gp.DomainError, match="non-finite"):
            gp.ParamPoint((3.0, bad))
    negative = gp.ParamPoint((3.0, -1.0))
    with pytest.raises(gp.DomainError, match="scale -1.0 outside"):
        gp.Affine1DDictionary(64).synthesize(negative)


_WRONG_LENGTH_CALLS = {
    "synthesize": lambda d, u, good, bad: d.synthesize(bad),
    "partials": lambda d, u, good, bad: d.partials(bad),
    "metric": lambda d, u, good, bad: gp.metric(d, bad),
    "gradient": lambda d, u, good, bad: gp.gradient(d, u, bad),
    "path_length-to": lambda d, u, good, bad: gp.path_length(d, good, bad),
    "path_length-both": lambda d, u, good, bad: gp.path_length(d, bad, bad),
}


@pytest.mark.parametrize("call", _WRONG_LENGTH_CALLS.values(), ids=_WRONG_LENGTH_CALLS.keys())
@pytest.mark.parametrize("family", ["affine", "aniso"])
def test_point_of_the_wrong_length_names_both_counts(call, family):
    # the dictionary owns its parameter count: a point of another length is
    # a ValueError naming both counts, not a domain error or an unpacking one
    if family == "affine":
        d = gp.Affine1DDictionary(64)
        good, bad = d.point(30.0, 4.0), gp.ParamPoint((30.0, 30.0, 0.5, 4.0, 4.0))
    else:
        d = gp.Aniso2DDictionary((16, 16))
        good, bad = d.point(8.0, 8.0, 0.5, 2.0, 2.0), gp.ParamPoint((8.0, 2.0))
    u = gp.SignalBuffer(np.ones(d.shape))
    with pytest.raises(ValueError) as info:
        call(d, u, good, bad)
    assert not isinstance(info.value, gp.DomainError)
    message = str(info.value)
    assert f"{len(bad)} coordinates" in message and f"{d.P} parameters" in message


def test_synthesize_unit_norm_interior():
    d = gp.Affine1DDictionary(512)
    g = d.synthesize(d.point(256.0, 16.0))
    assert abs(g.norm() - 1.0) < 1e-12


def test_synthesize_unit_norm_boundary_truncated():
    # half the atom hangs off the left edge; renormalization restores norm 1
    d = gp.Affine1DDictionary(512)
    g = d.synthesize(d.point(0.0, 16.0))
    assert abs(g.norm() - 1.0) < 1e-12


def test_synthesize_peak_value():
    d = gp.Affine1DDictionary(512)
    g = d.synthesize(d.point(256.0, 8.0))
    c = 2.0 / (math.sqrt(3.0) * math.pi ** 0.25)
    assert g.data[256] == pytest.approx(c / math.sqrt(8.0), abs=1e-6)


def test_synthesize_domain_errors():
    d = gp.Affine1DDictionary(512, scale_range=(1.0, 64.0))
    with pytest.raises(gp.DomainError):
        d.synthesize(d.point(10.0, 0.5))
    with pytest.raises(gp.DomainError):
        d.synthesize(d.point(10.0, 100.0))
    with pytest.raises(gp.DomainError):
        d.synthesize(d.point(-1e6, 2.0))  # no support in the buffer


def test_norm_translation_invariance():
    d = gp.Affine1DDictionary(1024)
    vals = [d.synthesize(d.point(b, 8.0)).norm() for b in (300.0, 400.5, 612.25)]
    assert max(vals) - min(vals) < 1e-12


def test_partials_match_finite_differences(rng):
    d = gp.Affine1DDictionary(512)
    for lam in interior_affine_points(d, rng, 10):
        analytic = d.partials(lam)
        fd = fd_partials(d, lam)
        for a, f in zip(analytic, fd):
            rel = np.linalg.norm(a - f) / np.linalg.norm(a)
            assert rel < 1e-4


def test_partials_orthogonal_to_atom(rng):
    d = gp.Affine1DDictionary(512)
    for lam in interior_affine_points(d, rng, 10):
        g = d.synthesize(lam)
        for p in d.partials(lam):
            assert abs(float(p @ g.data)) < 1e-8


def test_partials_boundary_scale_raises():
    d = gp.Affine1DDictionary(512, scale_range=(1.0, 64.0))
    with pytest.raises(gp.DomainError):
        d.partials(d.point(100.0, 1.0))
    with pytest.raises(gp.DomainError):
        d.partials(d.point(100.0, 64.0))


def test_2d_has_five_partials():
    d = gp.Aniso2DDictionary((32, 32))
    parts = d.partials(d.point(16.0, 16.0, 0.3, 2.0, 3.0))
    assert len(parts) == 5
    assert all(p.shape == (32, 32) for p in parts)


def test_second_partials_symmetric(rng):
    d = gp.Affine1DDictionary(512)
    lam = d.point(247.3, 9.1)
    sec = d.second_partials(lam)
    off = np.abs(sec[0, 1] - sec[1, 0]).max()
    assert off / np.abs(sec[0, 1]).max() < 1e-6


def test_second_partials_metric_identity(rng):
    for d, lam in [
        (gp.Affine1DDictionary(512), None),
        (gp.Aniso2DDictionary((48, 48)), None),
    ]:
        if isinstance(d, gp.Affine1DDictionary):
            lam = d.point(251.7, 12.4)
        else:
            lam = d.point(23.4, 24.8, 0.9, 3.3, 5.1)
        g0 = d.synthesize(lam).data.ravel()
        G = gp.metric(d, lam)
        sec = d.second_partials(lam)
        for i in range(d.P):
            for j in range(d.P):
                lhs = float(sec[i, j].ravel() @ g0)
                assert lhs == pytest.approx(-G.matrix[i, j], abs=1e-6)


def test_pure_translation_second_derivative_vs_fd():
    d = gp.Affine1DDictionary(512)
    lam = d.point(260.0, 10.0)
    analytic = d.second_partials(lam)[0, 0]
    fd = fd_second_partials(d, lam)[0, 0]
    rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
    assert rel < 1e-3


@settings(max_examples=40, deadline=None)
# a2 = exp(log(hi * (1 - INTERIOR_MARGIN))) lands a float step above the
# interior bound; the interior check must allow that fuzz
@example(nx=10, ny=10, fx=0.0, fy=0.0, theta=0.0, f1=0.0, f2=1.0)
@given(nx=st.integers(8, 32), ny=st.integers(8, 32),
       fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi, exclude_max=True),
       f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0))
def test_2d_second_partials_match_oracle(nx, ny, fx, fy, theta, f1, f2):
    # anywhere in the buffer (edge-truncated atoms included), any orientation,
    # scales log-uniform over the interior of the scale range
    d = gp.Aniso2DDictionary((nx, ny))
    lo, hi = d.scale_range
    log_lo, log_hi = math.log(lo * (1 + INTERIOR_MARGIN)), math.log(hi * (1 - INTERIOR_MARGIN))
    a1, a2 = (math.exp(log_lo + f * (log_hi - log_lo)) for f in (f1, f2))
    lam = d.point(fx * (nx - 1), fy * (ny - 1), theta, a1, a2)
    sec = d.second_partials(lam)
    fd = fd_second_partials(d, lam)
    g = d.synthesize(lam).data.ravel()
    G = gp.metric(d, lam).matrix
    for i in range(d.P):
        for j in range(d.P):
            a = sec[i, j]
            assert np.array_equal(a, sec[j, i])
            assert np.linalg.norm(a - fd[i, j]) <= 1e-3 * np.linalg.norm(a)
            assert abs(float(a.ravel() @ g) + G[i, j]) <= 1e-10 * np.abs(G).max()


def _contract_case(family, fx, fy, theta, f1, f2):
    """A small dictionary of `family` and an interior point anywhere in its
    buffer (edge-truncated atoms included)."""
    if family == "translation":
        d = TranslationDictionary(40, scale=3.0, mother="mexican_hat")
        return d, d.point(fx * 39)
    d = gp.Affine1DDictionary(40) if family == "affine" else gp.Aniso2DDictionary((12, 15))
    lo, hi = d.scale_range
    log_lo, log_hi = math.log(lo * (1 + INTERIOR_MARGIN)), math.log(hi * (1 - INTERIOR_MARGIN))
    a1, a2 = (math.exp(log_lo + f * (log_hi - log_lo)) for f in (f1, f2))
    if family == "affine":
        return d, d.point(fx * 39, a1)
    return d, d.point(fx * 11, fy * 14, theta, a1, a2)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["affine", "translation", "aniso2d"]),
       fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi, exclude_max=True),
       f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0))
def test_jet_orders_agree_and_stacks_are_read_only(family, fx, fy, theta, f1, f2):
    d, lam = _contract_case(family, fx, fy, theta, f1, f2)
    shape = d.shape
    jets = [d._jet(lam.coords, shape, order) for order in (0, 1, 2)]
    assert [len(j) for j in jets] == [1, 2, 3]
    # the parts the orders share are the same floats
    for j in jets[1:]:
        assert np.array_equal(j[0], jets[0][0])
    assert np.array_equal(jets[2][1], jets[1][1])
    assert jets[1][1].shape == (d.P, *shape)
    assert jets[2][2].shape == (d.P, d.P, *shape)

    # the renormalized jet: each order is a prefix of the next, bit for bit,
    # every part is read-only, and the public views are its parts
    renorm = [d.jet(lam, order=order) for order in (0, 1, 2)]
    assert [len(j) for j in renorm] == [1, 2, 3]
    for j in renorm[1:]:
        assert np.array_equal(j[0], renorm[0][0])
    assert np.array_equal(renorm[2][1], renorm[1][1])
    for part in (p for j in renorm for p in j):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0.0
    assert np.array_equal(d.synthesize(lam).data, renorm[0][0])
    parts = d.partials(lam)
    assert parts.shape == (d.P, *shape)
    assert np.array_equal(parts, renorm[1][1])
    sec = d.second_partials(lam)
    assert sec.shape == (d.P, d.P, *shape)
    assert np.array_equal(sec, renorm[2][2])
    assert np.array_equal(sec, np.swapaxes(sec, 0, 1))

    # a warm dictionary, its memo holding the order-2 jet, serves each lower
    # order as the floats a fresh dictionary computes
    fresh = lambda: _contract_case(family, fx, fy, theta, f1, f2)[0]
    for order in (0, 1, 2):
        served = d.jet(lam, order=order)
        assert all(p is q for p, q in zip(served, renorm[2]))
        want = fresh().jet(lam, order=order)
        assert len(served) == len(want) == order + 1
        assert all(np.array_equal(p, q) for p, q in zip(served, want))

    # both 1-D mothers: the same prefix law, and each derivative is the
    # central difference of the order below it
    s = np.linspace(-8.0, 8.0, 97) + fx
    h = 1e-5
    for mother in (gp.MEXICAN_HAT, gp.GAUSSIAN):
        mjets = [mother.jet(s, order) for order in (0, 1, 2)]
        assert [len(j) for j in mjets] == [1, 2, 3]
        for k, j in enumerate(mjets[1:], 1):
            assert all(np.array_equal(x, y) for x, y in zip(j, mjets[k - 1]))
        for k in (1, 2):
            fd = (mother.jet(s + h, 2)[k - 1] - mother.jet(s - h, 2)[k - 1]) / (2 * h)
            assert np.abs(fd - mjets[2][k]).max() < 1e-8


@pytest.mark.parametrize("family", ["affine", "translation", "aniso2d"])
def test_jet_parts_outlive_later_evaluations(family):
    # a dictionary may evaluate its atoms in scratch arrays of its own, but
    # the parts it returns are fresh: kept parts at a first point, of every
    # order, raw and renormalized, are untouched by evaluations of every
    # order at a second point and equal a fresh dictionary's bit for bit
    point = (0.3, 0.6, 0.4, 0.2, 0.7)
    d, lam1 = _contract_case(family, *point)
    _, lam2 = _contract_case(family, 0.8, 0.1, 2.5, 0.6, 0.3)
    kept = [(d._jet(lam1.coords, d.shape, order), d.jet(lam1, order)) for order in (0, 1, 2)]
    for order in (0, 1, 2):
        d._jet(lam2.coords, d.shape, order)
        d.jet(lam2, order)
    for order, (raw, renorm) in enumerate(kept):
        fresh = _contract_case(family, *point)[0]
        want_raw = fresh._jet(lam1.coords, fresh.shape, order)
        want = fresh.jet(lam1, order)
        assert len(raw) == len(renorm) == order + 1
        assert all(np.array_equal(p, q) for p, q in zip(raw, want_raw))
        assert all(np.array_equal(p, q) for p, q in zip(renorm, want))


def test_jet_memo_never_skips_a_check():
    # the memo serves only what the same coordinates already passed: an
    # atom near the scale bound does not make its derivatives legal, and a
    # point that raised is not stored, so it raises again
    d = gp.Affine1DDictionary(64)
    lo, hi = d.scale_range
    for a in (lo * (1 + INTERIOR_MARGIN / 2), hi * (1 - INTERIOR_MARGIN / 2)):
        near_edge = d.point(30.0, a)
        atom = d.jet(near_edge)[0]
        for _ in range(2):
            with pytest.raises(gp.DomainError, match="for derivatives"):
                d.partials(near_edge)
        assert d.jet(near_edge)[0] is atom  # the failed request replaced nothing
    unsupported = d.point(-1000.0, 2.0)
    for _ in range(2):
        with pytest.raises(gp.DomainError, match="no effective support"):
            d.jet(unsupported)


def test_score_directional_derivative(rng):
    # (S(l+hv) - S(l-hv)) / 2h vs v.partial(S) along random directions
    d = gp.Affine1DDictionary(512)
    u = gp.SignalBuffer(rng.standard_normal(512))
    for lam in interior_affine_points(d, rng, 5, scale_lo=4.0):
        info = gp.gradient(d, u, lam)
        v = rng.standard_normal(2)
        v[1] *= lam.coords[1]  # comparable step in the scale direction
        v /= np.linalg.norm(v)
        h = 1e-3
        sp = gp.score(d, u, ParamPoint(lam.coords + h * v))
        sm = gp.score(d, u, ParamPoint(lam.coords - h * v))
        fd = (sp - sm) / (2 * h)
        exact = float(v @ info.partial)
        assert fd == pytest.approx(exact, rel=1e-4, abs=1e-9)


def test_clamp_pulls_into_domain():
    d = gp.Affine1DDictionary(256, scale_range=(1.0, 32.0))
    clamped = d.clamp_coords(np.array([-40.0, 1000.0]))
    b, a = clamped.coords
    assert 1.0 < a < 32.0
    # b clamps to the grid's mass reach at the clamped scale, not to the buffer
    reach = gp.affine1d.MASS_RADIUS * a
    assert -reach <= b <= 255.0 + reach and b == -40.0
    assert d.clamp_coords(np.array([-1000.0, 1000.0])).coords[0] == -reach
    assert d.clamp_coords(np.array([1000.0, 1000.0])).coords[0] == 255.0 + reach
    neg = d.clamp_coords(np.array([10.0, -5.0]))
    assert neg.coords[1] > 1.0
    # translation i clamps to sample axis i of a non-square image
    d2 = gp.Aniso2DDictionary((10, 20))
    assert list(d2.clamp_coords([-5.0, 50.0, 0.1, 2.0, 2.0]).coords[:2]) == [0.0, 19.0]
    assert list(d2.clamp_coords([30.0, -3.0, 0.1, 2.0, 2.0]).coords[:2]) == [9.0, 0.0]


def test_angle_canonicalization():
    d = gp.Aniso2DDictionary((16, 16))
    p = d.point(8.0, 8.0, math.pi + 0.25, 2.0, 2.0)
    assert p.coords[2] == pytest.approx(0.25, abs=1e-12)
    assert 0.0 <= d.clamp_coords(p.coords).coords[2] < math.pi


class ConstantMother(gp.Dictionary):
    """Degenerate test dictionary: the atom does not depend on b."""

    def __init__(self, n):
        self.n = n
        self.shape = (n,)
        self.kinds = (gp.TRANSLATION,)
        self.scale_range = (1.0, 1.0)

    def require_interior(self, lam):
        return None

    def _jet(self, coords, shape, order):
        return (np.ones(shape[0]), np.zeros((1, shape[0])))[:order + 1]


def test_degenerate_dictionary_rejected():
    d = ConstantMother(32)
    assert abs(d.synthesize(d.point(3.0)).norm() - 1.0) < 1e-12
    with pytest.raises(gp.DegenerateMetricError):
        gp.metric(d, d.point(3.0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_raw_atom_is_a_domain_error(bad):
    d = ConstantMother(8)
    raw = np.ones(8)
    raw[3] = bad
    d._jet = lambda coords, shape, order: (raw.copy(), np.zeros((1, 8)))[:order + 1]
    for order in (0, 1):
        with pytest.raises(gp.DomainError):
            d.jet(d.point(3.0), order=order)
