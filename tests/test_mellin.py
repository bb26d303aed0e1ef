"""Tests for the transform closed forms, the independent quadrature route,
dilate sums, the dual expansion checks, and the antiderivative lemma."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from almostid import (
    ConvergenceError,
    DomainError,
    FUNCTION_GRID,
    MellinCheck,
    PrecisionContext,
    dual_check,
    g_direct,
    g_expansion,
    harmonic_factor_check,
    lemma_check,
    mellin_check,
    mellin_closed,
    mellin_numeric,
    parse_function_id,
    pass_threshold,
)
import almostid.mellin as mellin_mod
import almostid.series as series_mod
from almostid.mellin import _dilate_nodes, _fn, _g1, _g2, _kernel, _refine_trapezoid
from conftest import NOT_INTS


def _closed_reference(function_id, s):
    """The transform of function_id at the mpf s, from Gamma: the beta
    integral gives -2 s Gamma(h + s) Gamma(h - s)/Gamma(n - 1), h = n/2 - 1,
    for fn, and the reflection formula pi/(s cos pi s) for g1 and
    pi/sin(pi s) for g2.  The library never computes fn's this way."""
    if function_id == "g1":
        return mp.pi / (s * mp.cos(mp.pi * s))
    if function_id == "g2":
        return mp.pi / mp.sin(mp.pi * s)
    n = int(function_id[2:])
    half = mpf(n) / 2 - 1
    return -2 * s * mp.gamma(half + s) * mp.gamma(half - s) / mp.gamma(n - 1)


class TestParseFunctionId:
    def test_accepts_known_ids(self):
        assert parse_function_id("g1") == ("g1", None)
        assert parse_function_id("g2") == ("g2", None)
        assert parse_function_id("fn3") == ("fn", 3)
        assert parse_function_id("fn12") == ("fn", 12)

    @pytest.mark.parametrize("bad", ["fn2", "fn1", "fn0", "g3", "f3", "", "fn"])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(DomainError):
            parse_function_id(bad)

    def test_grid_constant(self):
        assert FUNCTION_GRID == ("g1", "g2", "fn3", "fn4", "fn5", "fn6", "fn7")


class TestClosedForms:
    def test_g2_quarter_is_pi_root_two(self, ctx40):
        got = mellin_closed("g2", Fraction(1, 4), ctx40)
        with mp.workdps(ctx40.working_digits):
            ref = mp.pi * mp.sqrt(2)
            assert abs(got.value - ref) < mpf(10) ** (-50) * ref

    def test_g2_half_is_pi(self, ctx40):
        got = mellin_closed("g2", Fraction(1, 2), ctx40)
        with mp.workdps(ctx40.working_digits):
            assert abs(got.value - mp.pi) < mpf(10) ** (-50)

    def test_g1_quarter(self, ctx40):
        # pi / ((1/4) cos(pi/4)) = 4 sqrt(2) pi
        got = mellin_closed("g1", Fraction(1, 4), ctx40)
        with mp.workdps(ctx40.working_digits):
            ref = 4 * mp.sqrt(2) * mp.pi
            assert abs(got.value - ref) < mpf(10) ** (-50) * ref

    def test_fn4_quarter(self, ctx40):
        # n = 4 means l = 2, one product factor (0 - s^2): -pi s^2/sin(pi s).
        got = mellin_closed("fn4", Fraction(1, 4), ctx40)
        with mp.workdps(ctx40.working_digits):
            ref = -mp.pi * mp.sqrt(2) / 16
            assert abs(got.value - ref) < mpf(10) ** (-50) * abs(ref)

    def test_fn3_quarter_empty_product(self, ctx40):
        # l = 1: the product is empty, leaving 2(-pi s/cos(pi s)).
        got = mellin_closed("fn3", Fraction(1, 4), ctx40)
        with mp.workdps(ctx40.working_digits):
            ref = -mp.pi / mp.sqrt(2)
            assert abs(got.value - ref) < mpf(10) ** (-50) * abs(ref)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("s", [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)])
    def test_gamma_form_cross_check(self, n, s, ctx40):
        if Fraction(n - 2, 2) <= s:
            pytest.skip("outside the fn strip")
        got = mellin_closed(f"fn{n}", s, ctx40)
        with mp.workdps(ctx40.working_digits + 10):
            ref = _closed_reference(f"fn{n}", mpf(s.numerator) / s.denominator)
            assert abs(got.value - ref) < mpf(10) ** (-48) * abs(ref)

    def test_pole_rejected(self, ctx30):
        with pytest.raises(DomainError):
            mellin_closed("g1", Fraction(1, 2), ctx30)


class TestStrips:
    def test_g2_wide_strip_allows_half(self, ctx30):
        assert mellin_numeric("g2", Fraction(1, 2), ctx30) is not None

    @pytest.mark.parametrize(
        "fid,s",
        [
            ("g1", Fraction(1, 2)),
            ("g1", Fraction(3, 4)),
            ("g2", 1),
            ("fn3", Fraction(3, 5)),
            ("fn7", Fraction(1, 2)),
            ("g1", 0),
            ("g2", Fraction(-1, 4)),
        ],
    )
    def test_out_of_strip_rejected(self, fid, s, ctx30):
        with pytest.raises(DomainError):
            mellin_numeric(fid, s, ctx30)
        with pytest.raises(DomainError):
            mellin_closed(fid, s, ctx30)

    def test_fn3_barely_inside(self, ctx30):
        # fn3 strip is (0, 1/2); 0.45 must work
        check = mellin_check("fn3", mpf("0.45"), ctx30)
        assert check.passed


def _counted(monkeypatch, name):
    """Replace the kernel function ``name`` of mellin by one that records
    its every argument in the list returned."""
    calls = []
    real = getattr(mellin_mod, name)
    monkeypatch.setattr(mellin_mod, name, lambda x: calls.append(x) or real(x))
    return calls


class TestQuadratureAgainstClosed:
    @pytest.mark.parametrize(
        "fid,s",
        [("g1", Fraction(1, 4)), ("g2", Fraction(1, 2)), ("fn5", Fraction(3, 8))],
    )
    def test_spot_cells(self, fid, s, ctx30):
        check = mellin_check(fid, s, ctx30)
        assert isinstance(check, MellinCheck)
        assert check.passed
        with mp.workdps(60):
            assert abs(check.abs_err.value) < mpf(10) ** (-25)

    @pytest.mark.parametrize("fid,s", [("g2", "0.003"), ("g2", "0.997"),
                                       ("g1", "0.4975"), ("fn3", "0.497")])
    def test_near_strip_edges(self, fid, s, ctx30):
        # Slow decay on one side: the closed-form ends sum it whole, and
        # both quadratures hold 5 digits past the requested ones
        numeric = mellin_numeric(fid, Fraction(s), ctx30)
        closed = mellin_closed(fid, Fraction(s), ctx30)
        harmonic = harmonic_factor_check(fid, Fraction(s), ctx30)
        with mp.workdps(60):
            tol = mpf(10) ** (-(ctx30.digits + 5)) * max(1, abs(closed.value))
            assert abs(numeric.value - closed.value) < tol
            sv = mpf(Fraction(s).numerator) / Fraction(s).denominator
            dilated = abs(closed.value) / (2**sv - 1)
            assert harmonic.abs_err.value < mpf(10) ** (-(ctx30.digits + 5)) * dilated

    def test_node_count(self, ctx30, monkeypatch):
        # folded at x = 1: one read of f(0), then one f call per node pair on
        # 1 < x <= 2^27, the nodes past it closed from the expansion: 109
        # over two levels (225 calls on both sides of x = 1 unfolded)
        calls = _counted(monkeypatch, "_g1")
        mellin_numeric("g1", Fraction(1, 8), ctx30)
        assert len(calls) <= 110
        assert calls.count(0) == 1
        with mp.workdps(60):
            assert all(1 < x <= 2**27 * (1 + mpf(10) ** -40) for x in calls if x != 0)

    def test_threshold_scale(self, ctx30):
        with mp.workdps(45):
            assert pass_threshold(ctx30) == mpf(10) ** (-25)

    def test_quadrature_tracks_requested_precision(self):
        lo = mellin_numeric("g2", Fraction(1, 4), PrecisionContext(digits=20))
        hi = mellin_numeric("g2", Fraction(1, 4), PrecisionContext(digits=35))
        with mp.workdps(60):
            ref = mp.pi * mp.sqrt(2)
            assert abs(lo.value - ref) < mpf(10) ** (-20)
            assert abs(hi.value - ref) < mpf(10) ** (-35)


def _trapezoid_values(f, t_left, order=iter):
    """values for _refine_trapezoid: f at t_left + j h, taken in ``order``."""
    return lambda n, h, indices: (f(t_left + j * h) for j in order(indices))


def _sech_bound(h):
    """The strip bound of sech at step h: |sech(t + iy)| <= sech t/cos y, so
    each line integral, |y| <= a < pi/2, is at most pi/cos a; a = 1.5."""
    a = mpf("1.5")
    return 2 * (mp.pi / mp.cos(a)) / (mp.exp(2 * mp.pi * a / h) - 1)


class TestRefineTrapezoid:
    def test_known_integral(self):
        # integral of sech over [-80, 80] is pi up to ~1e-34 truncation, with
        # each level's nodes taken left to right and right to left; it stops
        # at h = 1/8, where the bound is ~2e-31, and the error is far below it
        with mp.workdps(45):
            for order in (iter, reversed):
                steps = []

                def bound(h):
                    steps.append(h)
                    return _sech_bound(h)

                got = _refine_trapezoid(_trapezoid_values(mp.sech, mpf(-80), order), 320,
                                        mpf(1) / 2, mpf(10) ** (-30), bound)
                assert steps == [mpf(1) / 2, mpf(1) / 4, mpf(1) / 8]
                assert abs(got - mp.pi) < mpf(10) ** (-28)
                assert abs(got - mp.pi) <= _sech_bound(steps[-1])

    def test_level_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mellin_mod, "_MAX_LEVELS", 1)
        with mp.workdps(45):
            with pytest.raises(ConvergenceError):
                _refine_trapezoid(
                    _trapezoid_values(lambda t: 1 / (1 + t**2), mpf(-10)), 40,
                    mpf(1) / 2, mpf(10) ** (-40), lambda h: mpf(1),
                )


class TestNodeCap:
    # A rate-bound span in t over 5e4 is refused before any node is
    # evaluated, in both quadratures.  At s = 1e-9 it would be ~1e11.
    def test_mellin_numeric(self, ctx30):
        with pytest.raises(DomainError, match=r"s = 1\.0e-9 .* strip \(0\.0, 1\.0\) of g2"):
            mellin_numeric("g2", Fraction(1, 10**9), ctx30)

    def test_harmonic_factor_check(self, ctx30):
        with pytest.raises(DomainError, match=r"strip \(0\.0, 0\.5\) of g1"):
            harmonic_factor_check("g1", Fraction(1, 2) - Fraction(1, 10**9), ctx30)


def _plain_dilate(g, x):
    """sum_{k>=1} g(2^k x) at the active precision, summed until a term is
    below 10^-(dps + 5) of the sum: past x = 1 the terms fall at least
    geometrically, at rate 2^-1/2 for g1, so the rest is below 4 terms."""
    total, y = mpf(0), mpf(x)
    while True:
        y *= 2
        t = g(y)
        total += t
        if y > 1 and t < mpf(10) ** -(mp.dps + 5) * total:
            return total


class TestDilateNodes:
    @pytest.mark.parametrize("kind", ["g1", "g2"])
    @pytest.mark.parametrize("steps_per_ln2, stride", [(2, 1), (8, 2)])
    def test_nodes_are_literal_partial_sums(self, kind, steps_per_ln2, stride):
        # Every streamed F(e^{jh}) must be the full sum of g(2^k x) over
        # k >= 1, against a plain sum at +40 digits, both for a first level
        # (every node) and a later one (odd nodes only), on the top ln 2 whose
        # F comes from g's expansion at infinity as on the nodes below it.
        g = _g1 if kind == "g1" else _g2
        kernel, ctx = _kernel(kind), PrecisionContext(digits=30)
        top = mellin_mod._DIRECT_BITS * steps_per_ln2 - (stride - 1)
        bottom = -mellin_mod._DIRECT_BITS * steps_per_ln2 + (stride - 1)
        with mp.workdps(ctx.working_digits):
            h = mp.ln(2) / steps_per_ln2
            head = lambda x: mellin_mod._far_end(kernel, x, mellin_mod._per_dilate, ctx,
                                                 "test").value.value
            nodes = {j: value for j, _, value, _ in
                     _dilate_nodes(g, g(mpf(0)), mpf(1) / 4, h, top, bottom, stride,
                                   steps_per_ln2 // stride, head)}
            assert len(nodes) == (top - bottom) // stride + 1
        head_window = range(top, top - steps_per_ln2, -stride)
        inner = (top - 3 * steps_per_ln2, top - 20 * steps_per_ln2 - stride, -1, bottom)
        for j in (*head_window, *inner):
            with mp.workdps(ctx.working_digits + 40):
                full = _plain_dilate(g, mp.exp(j * mp.ln(2) / steps_per_ln2))
            assert abs(nodes[j] - full) < mpf(10) ** (-40) * max(1, abs(full))


def _record_levels(monkeypatch):
    """Wrap _dilate_nodes so each level's arguments and nodes are kept."""
    levels = []

    def recorded(g, g0, s, h, top, bottom, stride, period, head):
        nodes = list(_dilate_nodes(g, g0, s, h, top, bottom, stride, period, head))
        levels.append(((s, h, stride, period), nodes))
        return iter(nodes)

    monkeypatch.setattr(mellin_mod, "_dilate_nodes", recorded)
    return levels


class TestCarriedExponentials:
    def test_longest_chain_matches_direct_exp(self, monkeypatch):
        # Each node of a level's top ln 2 heads a chain of nodes ln 2 apart
        # across the direct region 2^-27 <= x <= 2^27 (55 on the first level,
        # 54 of odd index on the later ones), whose x is halved
        # and x^s multiplied by 2^-s at every step; neither may drift from
        # mp.exp by more than 10^6 roundings.
        ctx = PrecisionContext(digits=60)
        levels = _record_levels(monkeypatch)
        harmonic_factor_check("g1", Fraction(1, 8), ctx)
        assert len(levels) == 3
        with mp.workdps(ctx.working_digits):
            tol = mpf(10) ** (-(ctx.working_digits - 6))
            for (s, h, stride, period), nodes in levels:
                chain = nodes[::period]
                assert len(chain) == (55 if stride == 1 else 54)
                for j, x, _, weight in chain:
                    assert abs(x / mp.exp(j * h) - 1) < tol
                    assert abs(weight / mp.exp(s * j * h) - 1) < tol

    def test_exp_calls_per_level_not_per_node(self, ctx30, monkeypatch):
        # Only the chain heads, the top ln 2 of a level, call exp (two each,
        # for x and x^s), 2 heads on each of the two levels; the strip bound
        # calls one per level, the right end two plus one per term of its
        # stream, and 1 - 2^-s one.
        exp_calls = []
        real_exp = mp.exp
        monkeypatch.setattr(mp, "exp", lambda z: exp_calls.append(z) or real_exp(z))
        levels = _record_levels(monkeypatch)
        harmonic_factor_check("g2", Fraction(1, 4), ctx30)
        assert len(levels) == 2
        assert [len(level) for _, level in levels] == [109, 108]
        assert len(exp_calls) <= 29


def _in_direct_region(x):
    """1 <= x <= 2^27 up to the rounding of the carried x."""
    with mp.workdps(60):
        return 1 - mpf(10) ** -40 < x < 2**27 * (1 + mpf(10) ** -40)


class TestHarmonicFactor:
    # fn7 at s = 1/8 has most of its dilate sum's transform far left, where
    # F tends to a bounded log-periodic function while fn7 itself decays at
    # rate s + 5/2: the left end must carry F, not fn7.
    @pytest.mark.parametrize("fid, s, digits", [
        *[(fid, s, 30) for fid in ("g1", "g2") for s in ("1/8", "1/4", "3/8")],
        ("g1", "1/8", 60),
        ("fn3", "1/8", 30), ("fn4", "1/4", 30), ("fn7", "3/8", 30), ("fn7", "1/8", 30),
    ])
    def test_matches_closed_form(self, fid, s, digits):
        err = harmonic_factor_check(fid, Fraction(s), PrecisionContext(digits=digits)).abs_err
        with mp.workdps(2 * digits):
            assert err.value < mpf(10) ** (-(digits + 10))

    def test_strip_enforced(self, ctx30):
        with pytest.raises(DomainError):
            harmonic_factor_check("g1", Fraction(1, 2), ctx30)

    def test_g1_stops_on_strip_bound(self, ctx30, monkeypatch):
        # the strip bound accepts the level that the difference of two levels
        # could only confirm with one more halving, and g is called only on
        # the direct region 2^-27 <= x <= 2^27, the ends coming from its
        # expansion, and only at x >= 1 there (a node's mirror gives the
        # rest), plus g(0) once: 110 calls on two levels
        calls = _counted(monkeypatch, "_g1")
        harmonic_factor_check("g1", Fraction(1, 4), ctx30)
        assert len(calls) <= 150
        assert calls.count(0) == 1
        assert all(_in_direct_region(x) for x in calls if x != 0)

    def test_g2_reuses_mirror_nodes(self, ctx30, monkeypatch):
        # the direct region is symmetric about x = 1, so every node left of
        # it takes its g from its mirror: as for g1, 110 calls
        calls = _counted(monkeypatch, "_g2")
        harmonic_factor_check("g2", Fraction(1, 4), ctx30)
        assert len(calls) <= 150
        assert calls.count(0) == 1
        assert all(_in_direct_region(x) for x in calls if x != 0)

    @pytest.mark.parametrize("s, fid", [("1/8", "fn120"), ("1/4", "fn120"), ("1/8", "fn200"),
                                        ("1/4", "fn200"), ("1/8", "fn84"), ("1/4", "fn144")])
    def test_stop_relative_to_value(self, fid, s, ctx30):
        # values of ~1e-28 (fn84) down to ~1e-63 (fn200), near or below an
        # absolute tolerance of 10^-35: the transform and the dilate sum's
        # transform must each still hold 30 digits of their own size,
        # against the Gamma form at +40 digits
        check = harmonic_factor_check(fid, Fraction(s), ctx30)
        transform = mellin_check(fid, Fraction(s), ctx30)
        with mp.workdps(ctx30.working_digits + 40):
            sv = mpf(Fraction(s).numerator) / Fraction(s).denominator
            ref = _closed_reference(fid, sv)
            assert abs(transform.numeric.value - ref) <= mpf(10) ** (-ctx30.digits) * abs(ref)
            err = check.abs_err.value + abs(transform.closed.value - ref) / (2**sv - 1)
            assert err <= mpf(10) ** (-ctx30.digits) * abs(ref / (2**sv - 1))

    @given(fid=st.sampled_from(["g1", "g2", *(f"fn{n}" for n in range(3, 61))]),
           step=st.integers(min_value=2, max_value=98), digits=st.integers(20, 60))
    @settings(max_examples=80, deadline=None)
    def test_any_cell_holds_its_digits(self, fid, step, digits):
        # s = step/100 of each strip (0, 1/2) or (0, 1), kept off the edges
        # that _exp_axis refuses; against the Gamma form at +40 digits, to
        # 10^-digits of the transform and of the dilate sum's transform
        s = Fraction(step, 100) * (1 if fid == "g2" else Fraction(1, 2))
        ctx = PrecisionContext(digits=digits)
        check = harmonic_factor_check(fid, s, ctx)
        transform = mellin_check(fid, s, ctx)
        with mp.workdps(ctx.working_digits + 40):
            sv = mpf(s.numerator) / s.denominator
            ref = _closed_reference(fid, sv)
            assert abs(transform.numeric.value - ref) <= mpf(10) ** (-digits) * abs(ref)
            err = check.abs_err.value + abs(transform.closed.value - ref) / (2**sv - 1)
            assert err <= mpf(10) ** (-digits) * abs(ref / (2**sv - 1))


def _majorant(function_id, x):
    """The f~ of _kernel's majorant at real x > 0."""
    if function_id in ("g1", "g2"):
        return (_g1 if function_id == "g1" else _g2)(x)
    return (mp.sqrt(x) / (1 + x)) ** (int(function_id[2:]) - 2)


def _first_level(monkeypatch, route, fid, s, ctx):
    """The estimate and strip bound of route's first level, step ln2/2: an
    infinite sum, its ends closed in values, so no node is halved."""
    seen = []

    def first_level(values, n, h, tol, bound):
        seen.append((sum(values(n, h, range(n + 1))) * h, bound(h)))
        return seen[-1][0]

    monkeypatch.setattr(mellin_mod, "_refine_trapezoid", first_level)
    route(fid, Fraction(s), ctx)
    (estimate, bound), = seen
    return estimate, bound


class TestStripBound:
    # both quadratures stop on 2M/(e^{2 pi a/h} - 1), with M from the
    # majorant |f(e^{t+iy})| <= f~(e^t)/cos(y/2)^c that _kernel holds as the
    # transform of f~ and the exponent c

    @pytest.mark.parametrize("fid", ["g1", "g2", "fn3", "fn7", "fn20"])
    def test_majorant_bounds_f_in_strip(self, fid):
        kernel = _kernel(fid)
        with mp.workdps(30):
            for t in range(-12, 13, 2):
                for frac in ("0", "0.25", "0.5", "0.75", "0.9", "0.99", "0.999"):
                    for y in (mp.pi * mpf(frac), -mp.pi * mpf(frac)):
                        z = mp.exp(mp.mpc(t, y))
                        # g1 = 2 atan(z^{-1/2}), the branch _g1 takes on the real axis
                        f = 2 * mp.atan(1 / mp.sqrt(z)) if fid == "g1" else kernel.f(z)
                        limit = _majorant(fid, mp.exp(t)) / mp.cos(y / 2) ** kernel.c
                        assert abs(f) <= limit * (1 + mpf(10) ** -25)

    @pytest.mark.parametrize("fid", ["g1", "g2", "fn3", "fn7", "fn20"])
    def test_majorant_transform(self, fid):
        # M~(s) against a quadrature of f~(e^t) e^{st} over the real line
        with mp.workdps(20):
            s = mpf(1) / 4
            got = _kernel(fid).majorant(s)
            ref = mp.quad(lambda t: _majorant(fid, mp.exp(t)) * mp.exp(s * t),
                          [-mp.inf, 0, mp.inf])
            assert abs(got - ref) < mpf(10) ** -12 * ref

    @pytest.mark.parametrize("fid", [*FUNCTION_GRID, "fn20", "fn60"])
    @pytest.mark.parametrize("s", ["1/8", "1/4", "3/8"])
    def test_bound_covers_first_level(self, fid, s, ctx30, monkeypatch):
        # the first level, step ln2/2, against the Gamma form at +40 digits;
        # its error ~1e-23 is far above the rounding and the ends' streams
        estimate, bound = _first_level(monkeypatch, harmonic_factor_check, fid, s, ctx30)
        with mp.workdps(ctx30.working_digits + 40):
            sv = mpf(Fraction(s).numerator) / Fraction(s).denominator
            err = abs(estimate - _closed_reference(fid, sv) / (2**sv - 1))
            assert 0 < err <= bound

    @pytest.mark.parametrize("fid", [*FUNCTION_GRID, "fn20", "fn60"])
    @pytest.mark.parametrize("s", ["1/8", "1/4", "3/8"])
    def test_transform_bound_covers_first_level(self, fid, s, ctx30, monkeypatch):
        # the same for mellin_numeric, whose M lacks the 1/(2^s - 1)
        estimate, bound = _first_level(monkeypatch, mellin_numeric, fid, s, ctx30)
        with mp.workdps(ctx30.working_digits + 40):
            sv = mpf(Fraction(s).numerator) / Fraction(s).denominator
            err = abs(estimate - _closed_reference(fid, sv))
            assert 0 < err <= bound


class TestDualRoutes:
    def test_direct_small_at_large_x(self, ctx30):
        # sum_k 1/(1 + 2^k x) < 1/x at x = 10^6
        v = g_direct(2, 10**6, ctx30)
        assert 0 < v.value.value < mpf(2) / 10**6

    @pytest.mark.parametrize("n,x,digits", [(1, "0.45", 30), (2, "0.3", 30), (1, "1e-30", 30),
                                            (2, "0.4999", 30), (1, "0.45", 200), (2, "0.1", 200)],
                             ids=["1-0.45", "2-0.3", "1-1e-30", "2-0.4999", "1-0.45-200", "2-0.1-200"])
    def test_dual_spot_cells(self, n, x, digits):
        check = dual_check(n, x, PrecisionContext(digits=digits))
        assert check.passed
        with mp.workdps(2 * digits):
            bound = mpf(10) ** (-(digits + 10)) * max(1, abs(check.direct.value))
            assert check.abs_err.value < bound

    @pytest.mark.parametrize("n,x,digits", [(1, "0.1", 200), (1, "1e-30", 30), (1, "1e8", 30),
                                            (2, "0.45", 200), (2, "1e-30", 30), (2, "1e50", 30),
                                            (1, "1e-100", 30), (2, "1e-100", 30)])
    def test_direct_stops_at_first_k_under_tol(self, n, x, digits):
        # against the plain sum of g(2^k x) at +40 digits: the value holds
        # digits + 10 of its own size, and is off by no more than its tail
        # bound plus one rounding per term
        ctx = PrecisionContext(digits=digits)
        got = g_direct(n, x, ctx)
        with mp.workdps(ctx.working_digits + 40):
            full = _plain_dilate(_g1 if n == 1 else _g2, mpf(x))
            err = abs(got.value.value - full)
            assert err <= mpf(10) ** (-(digits + 10)) * full
            rounding = got.terms_used * mpf(10) ** -ctx.working_digits * full
            assert err <= got.tail_bound.value + rounding

    @pytest.mark.parametrize("n,x", [(2, "1e50"), (1, "1e50"), (2, "1e20")])
    def test_direct_relative_at_large_x(self, n, x, ctx30):
        # every term is below 10^-(working digits) at x = 1e50, so a stop
        # rule absolute in it would end after one term, half the sum at
        # (2, 1e50); against a plain sum at +40 digits
        got = g_direct(n, x, ctx30)
        with mp.workdps(ctx30.working_digits + 40):
            total, y = mpf(0), mpf(x)
            while True:
                y *= 2
                t = 2 * mp.atan(1 / mp.sqrt(y)) if n == 1 else 1 / (1 + y)
                total += t
                if t < mpf(10) ** -(ctx30.working_digits + 40) * total:
                    break
            assert abs(got.value.value - total) <= mpf(10) ** (-ctx30.digits) * total

    @pytest.mark.parametrize("n,x", [(1, "1e-30"), (1, "0.45"), (1, "1e50"), (2, "0.1"),
                                     (2, "1e50"), (2, "1e-100")])
    def test_direct_tail_bound_covers_truncation(self, n, x, ctx30, monkeypatch):
        # g_direct sums g(2^k x) on 2^-27 <= 2^k x < 2^27.  The k0 points
        # below come from g's expansion at 0, as
        # k0 g(0) + sum_j a_j z^mu (1 - 2^(-k0 mu))/(1 - 2^-mu), z = 2^k0 x,
        # mu = lam + j, and the rest as F(y), y the last point summed, from
        # -sum_j a_j y^-mu/(2^mu - 1).  For each stream the moduli of the
        # power terms past those it used, rebuilt at +40 digits from the
        # expansions of g1 (atan's) and g2 (the geometric series), sum to at
        # most its tail bound; the reported tail and terms are the streams'
        # plus one term per g called
        runs = []

        def spy(*args):
            runs.append(series_mod._ratio_sum(*args))
            return runs[-1]

        monkeypatch.setattr(mellin_mod, "_ratio_sum", spy)
        got = g_direct(n, x, ctx30)
        with mp.workdps(ctx30.working_digits + 40):
            z, below = mpf(x), 0
            while 2 * z < mpf(2) ** -27:
                z, below = 2 * z, below + 1
            y, direct = z, 0
            while y < 2**26:
                y, direct = 2 * y, direct + 1
            lam = mpf(1) / 2 if n == 1 else mpf(1)

            def coef(j):
                return -2 * (-1) ** j / mpf(2 * j + 1) if n == 1 else (-1) ** (j + 1)

            def near_term(j):
                mu = lam + j
                return coef(j) * z**mu * (1 - mpf(2) ** (-below * mu)) / (1 - mpf(2) ** -mu)

            def far_term(j):
                return coef(j) * y ** -(lam + j) / (2 ** (lam + j) - 1)

            assert len(runs) == (2 if below else 1)
            for run, term in zip(runs[::-1], (far_term, near_term)):
                used = run.terms_used
                dropped = sum(abs(term(j)) for j in range(used, used + 40))
                assert 0 < dropped <= run.tail_bound.value * (1 + mpf(10) ** (-ctx30.digits))
        assert got.terms_used == direct + sum(run.terms_used for run in runs)
        with mp.workdps(ctx30.working_digits):
            assert got.tail_bound.value == sum((run.tail_bound.value for run in runs), mpf(0))

    @pytest.mark.parametrize("n,x", [(1, "0.45"), (1, "1e-30"), (2, "0.3"), (2, "0.1")])
    def test_expansion_tails_cover_truncation(self, n, x, ctx30, monkeypatch):
        # each sub-series of g_expansion, rebuilt term by term at +40 digits
        # from the docstring formulas past where it stopped and up to where a
        # +40-digit run stops: the moduli of the dropped terms sum to at most
        # that series' tail, and the value reports the sums of both
        runs = []

        def spy(*args):
            runs.append(series_mod._ratio_sum(*args))
            return runs[-1]

        monkeypatch.setattr(mellin_mod, "_ratio_sum", spy)
        fine = PrecisionContext(digits=ctx30.digits + 40)
        got = g_expansion(n, x, ctx30)
        g_expansion(n, x, fine)
        (power, osc), fine_runs = runs[:2], runs[2:]
        assert got.terms_used == power.terms_used + osc.terms_used
        with mp.workdps(ctx30.working_digits):
            assert got.tail_bound.value == power.tail_bound.value + osc.tail_bound.value
        with mp.workdps(fine.working_digits):
            xv, ln2 = mpf(x), mp.ln(2)

            def power_term(j):  # a(j) x^lam / (2^-lam - 1), lam = j + 1/2 or j + 1
                if n == 1:
                    lam = j + mpf(1) / 2
                    return -2 * (-1) ** j / mpf(2 * j + 1) * xv**lam / (mpf(2) ** -lam - 1)
                return (-1) ** (j + 1) * xv ** (j + 1) / (mpf(2) ** -(j + 1) - 1)

            def osc_term(k):  # (2/ln 2) M(i w_k) x^(-i w_k)
                s = mp.mpc(0, 2 * mp.pi * k / ln2)
                m = mp.pi / (s * mp.cos(mp.pi * s)) if n == 1 else mp.pi / mp.sin(mp.pi * s)
                return 2 * m * xv ** (-s) / ln2

            # the i-th power term is j = i - 1, the i-th oscillating one k = i
            for run, fine_run, term in ((power, fine_runs[0], lambda i: power_term(i - 1)),
                                        (osc, fine_runs[1], osc_term)):
                ks = range(run.terms_used + 1, fine_run.terms_used + 1)
                dropped = sum(abs(term(i)) for i in ks)
                assert 0 < dropped <= run.tail_bound.value * (1 + mpf(10) ** (-ctx30.digits))

    def test_expansion_stall_guard(self, ctx30, monkeypatch):
        # the power terms at x = 0.3 need ~90 terms
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 20)
        with pytest.raises(ConvergenceError, match="g_expansion stalled"):
            g_expansion(1, "0.3", ctx30)

    @pytest.mark.parametrize("n", [1, 2])
    def test_direct_far_left_from_expansion(self, n, ctx30):
        # ~1.3e5 points 2^k x below 2^-27 are summed from g's expansion at 0,
        # not term by term: the value agrees with the residue expansion to
        # 10^-digits of its size, within a second
        start = time.perf_counter()
        direct = g_direct(n, mpf(10) ** -40000, ctx30)
        elapsed = time.perf_counter() - start
        expansion = g_expansion(n, mpf(10) ** -40000, ctx30)
        with mp.workdps(ctx30.working_digits):
            gap = abs(direct.value.value - expansion.value.value)
            assert gap <= mpf(10) ** (-ctx30.digits) * abs(expansion.value.value)
        assert elapsed < 1

    @pytest.mark.parametrize("route,x", [(g_direct, 1), (g_expansion, "0.3")],
                             ids=["g_direct", "g_expansion"])
    def test_direct_stable_across_precision(self, route, x):
        lo = route(1, x, PrecisionContext(digits=25))
        hi = route(1, x, PrecisionContext(digits=40))
        with mp.workdps(70):
            assert abs(lo.value.value - hi.value.value) < mpf(10) ** (-25) * abs(hi.value.value)

    def test_expansion_domain(self, ctx30):
        with pytest.raises(DomainError):
            g_expansion(2, "0.5", ctx30)
        with pytest.raises(DomainError):
            g_expansion(1, "0.75", ctx30)
        with pytest.raises(DomainError):
            g_expansion(1, 0, ctx30)
        with pytest.raises(DomainError):
            g_expansion(3, "0.1", ctx30)
        for n in (1.0, *NOT_INTS):
            with pytest.raises(DomainError):
                g_expansion(n, "0.3", ctx30)

    def test_direct_domain(self, ctx30):
        with pytest.raises(DomainError):
            g_direct(3, "0.1", ctx30)
        with pytest.raises(DomainError):
            g_direct(1, -2, ctx30)
        for n in (1.0, *NOT_INTS):
            with pytest.raises(DomainError):
                g_direct(n, "0.3", ctx30)
            with pytest.raises(DomainError):
                dual_check(n, "0.3", ctx30)


class TestKernelSymmetry:
    @given(e=st.floats(min_value=-40, max_value=0))
    @settings(max_examples=25, deadline=None)
    def test_reflection_about_one(self, e):
        # f(x) + f(1/x) = f(0), which both quadratures fold on: pi for g1, 1
        # for g2, 0 for fn (odd across x = 1)
        with mp.workdps(40):
            x = mpf(10) ** e
            for fid in ("g1", "g2", "fn3", "fn4", "fn7", "fn20"):
                f = _kernel(fid).f
                f0 = f(mpf(0))
                assert abs(f(x) + f(1 / x) - f0) < mpf(10) ** (-35) * max(1, abs(f0))

    def test_fn_vanishes_at_one(self):
        with mp.workdps(40):
            assert _fn(5, mpf(1)) == 0


class TestKernelExpansion:
    # f(x) = f(0) + sum_j a_j x^(lam + j) for x < 1 and, by the reflection,
    # f(y) = -sum_j a_j y^-(lam + j) for y > 1: each side against f itself

    @pytest.mark.parametrize("fid", ["g1", "g2", "fn3", "fn4", "fn7", "fn20", "fn120"])
    def test_series_at_zero_and_infinity(self, fid):
        # at y = 1/x the terms a_j y^-(lam + j) are the a_j x^(lam + j) at 0
        kernel = _kernel(fid)
        with mp.workdps(60):
            f0 = kernel.f(mpf(0))
            for x in (mpf(2) ** -27, mpf(2) ** -8):
                total, j = mpf(0), 0
                while True:
                    t = kernel.coef(j) * x ** (kernel.lam + j)
                    total += t
                    j += 1
                    if j > 10 and abs(t) < mpf(10) ** -70 * abs(total):
                        break
                for got, direct in ((total, kernel.f(x) - f0), (-total, kernel.f(1 / x))):
                    assert abs(got - direct) <= mpf(10) ** -55 * abs(direct)

    @pytest.mark.parametrize("fid", ["g1", "g2", "fn3", "fn4", "fn7", "fn20", "fn120"])
    def test_growth_bounds_later_coefficient_ratios(self, fid):
        # growth(j) bounds |a_(i+1)/a_i| for every i >= j, over 300 terms
        kernel = _kernel(fid)
        with mp.workdps(60):
            ratios = [abs(mpf(kernel.coef(i + 1)) / kernel.coef(i)) for i in range(300)]
            for j in range(299):
                assert max(ratios[j:]) <= kernel.growth(j)


class TestLemma:
    def test_residual_within_fd_error(self, ctx30):
        h = mpf(10) ** (-10)
        for n, k, u in [(3, 0, 0), (4, 1, "2.5"), (10, 4, 0)]:
            res = lemma_check(n, k, u, ctx30).residual
            with mp.workdps(60):
                assert res.value < 10 * h * h

    def test_h_squared_scaling(self, ctx30):
        # Halving h must shrink the residual by about 4 (within factor 2).
        big = lemma_check(6, 1, "0.7", ctx30, h="1e-8").residual
        small = lemma_check(6, 1, "0.7", ctx30, h="0.5e-8").residual
        with mp.workdps(60):
            ratio = big.value / small.value
            assert 2 < ratio < 8

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            lemma_check(2, 0, 0, ctx30)
        with pytest.raises(DomainError):
            lemma_check(3, 0.5, 0, ctx30)
        with pytest.raises(DomainError):
            lemma_check(3, 0, 0, ctx30, h=0)
        for bad in NOT_INTS:
            with pytest.raises(DomainError):
                lemma_check(bad, 0, 0, ctx30)
            with pytest.raises(DomainError):
                lemma_check(3, bad, 0, ctx30)


@pytest.mark.parametrize("u", ["1e4400", "-1e4400"])
def test_lemma_refuses_huge_u(u, ctx30):
    # the residual's decimal exponent would have more digits than Python prints
    with pytest.raises(DomainError, match=r"n \|k - u\| <= 1e100"):
        lemma_check(3, 0, u, ctx30)
