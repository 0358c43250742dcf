import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrowlab.cosmo import (CosmoParams, ThermoState, blackbody_comoving_entropy,
                            boost_thermo, boost_work, critical_times,
                            entropy_gap, entropy_gap_rate, gap_to_csv,
                            radiation_temperature, roots_to_json)
from arrowlab.friedrichs import FriedrichsModel

P = CosmoParams()  # A = 2*1.5/3 = 1, B = 0.1


@pytest.mark.parametrize("build, name, value", [
    (FriedrichsModel, "omega1", math.nan),
    (FriedrichsModel, "lam", math.nan),
    (FriedrichsModel, "lam", math.inf),
    (CosmoParams, "omega1", math.nan),
    (CosmoParams, "temp0", math.nan),
    (CosmoParams, "gamma", math.inf),
    (ThermoState, "v", math.nan),
    (ThermoState, "t", math.nan),
    (ThermoState, "e", math.inf),
    (ThermoState, "s", math.nan),
])
def test_constructors_reject_non_finite_constants(build, name, value):
    base = dict(v=1.0, p=1.0, e=1.0, q=1.0, s=1.0, t=1.0) if build is ThermoState else {}
    with pytest.raises(ValueError):
        build(**{**base, name: value})


def test_boost_identity_and_invariants():
    s = ThermoState(v=2.0, p=0.5, e=3.0, q=1.0, s=4.0, t=2.5)
    b0 = boost_thermo(s, 0.0)
    for f in "vpeqst":
        assert abs(getattr(b0, f) - getattr(s, f)) < 1e-15
    for u in np.linspace(0, 0.99, 12):
        b = boost_thermo(s, u)
        assert b.p == s.p and b.s == s.s
        root = np.sqrt(1 - u * u)
        assert abs(b.v - s.v * root) < 1e-14
        assert abs(b.t - s.t * root) < 1e-14
        assert abs(b.q - s.q * root) < 1e-14
    with pytest.raises(ValueError):
        boost_thermo(s, 1.0)


def test_boost_energy_overflow_is_named():
    # (1e308 + 0.98) / 0.14 leaves float range; the error names the quantity
    s = ThermoState(v=1.0, p=1.0, e=1e308, q=0.0, s=1.0, t=1.0)
    with pytest.raises(ValueError, match="boosted energy inf at u=0.99 is not finite"):
        boost_thermo(s, 0.99)


def test_boost_point_six():
    s = ThermoState(v=1.0, p=1.0, e=1.0, q=1.0, s=1.0, t=1.0)
    b = boost_thermo(s, 0.6)
    assert abs(b.v - 0.8) < 1e-15 and abs(b.t - 0.8) < 1e-15
    assert b.s == 1.0


def test_first_law_covariance():
    s = ThermoState(v=2.0, p=0.5, e=3.0, q=1.0, s=4.0, t=2.5)
    de0, dq0, dv0 = 0.37, 0.9, 0.11
    dw0 = dq0 - de0
    d_enth0 = de0 + s.p * dv0
    s2 = ThermoState(v=s.v + dv0, p=s.p, e=s.e + de0, q=s.q + dq0, s=s.s, t=s.t)
    for u in (0.0, 0.3, 0.6, 0.9):
        de = boost_thermo(s2, u).e - boost_thermo(s, u).e
        dq = np.sqrt(1 - u * u) * dq0
        dw = boost_work(dw0, d_enth0, u)
        assert abs(de - (dq - dw)) < 1e-12
    with pytest.raises(ValueError, match="speed must satisfy 0 <= u < 1"):
        boost_work(dw0, d_enth0, 1.0)


def test_radiation_temperature():
    assert radiation_temperature(1.0, P) == P.temp0
    assert radiation_temperature(2.0, P) == P.temp0 / 2
    with pytest.raises(ValueError):
        radiation_temperature(0.0, P)


def test_blackbody_comoving_entropy_constant():
    a = np.linspace(1.0, 50.0, 500)
    s = blackbody_comoving_entropy(a, P)
    assert np.ptp(s) < 1e-10


def test_entropy_gap_values_and_limits():
    assert entropy_gap(1.0, P) == pytest.approx(
        np.exp(-P.gamma) * np.exp(P.omega1 / P.temp0))
    big_gamma = CosmoParams(gamma=50.0)
    assert entropy_gap(2.0, big_gamma) < 1e-40
    assert entropy_gap(1e8, P) < 1e-300 or entropy_gap(1e8, P) < entropy_gap(1e4, P)
    with pytest.raises(ValueError):
        entropy_gap(0.0, P)
    with pytest.raises(ValueError, match="t must be positive"):
        entropy_gap_rate(np.array([1.0, 0.0]), P)


def test_entropy_gap_overflow_raises():
    # omega1 a / T0 = 100 t^(2/3) passes ln(float max) ~ 709.8 before t = 20
    hot = CosmoParams(omega1=10.0, temp0=0.1)
    assert math.isfinite(entropy_gap(10.0, hot))
    with pytest.raises(ValueError, match="leaves float range"):
        entropy_gap(1e4, hot)
    with pytest.raises(ValueError, match="leaves float range"):
        entropy_gap(np.array([1.0, 1e4]), hot)


def test_rate_is_log_derivative():
    ts = np.array([0.3, 1.0, 7.0, 300.0, 5000.0])
    h = 1e-6
    num = (np.log(entropy_gap(ts + h, P)) - np.log(entropy_gap(ts - h, P))) / (2 * h)
    rel = np.abs(num - entropy_gap_rate(ts, P)) / np.abs(entropy_gap_rate(ts, P))
    assert rel.max() < 1e-6


def test_critical_times_reference_case():
    r = critical_times(P)
    assert r["A"] == pytest.approx(1.0) and r["B"] == pytest.approx(0.1)
    t1, t2 = r["times"]
    assert t1 == pytest.approx(1.18, abs=0.01)
    assert t2 == pytest.approx(970, abs=5)
    assert max(r["residuals"]) < 1e-10
    assert abs(t1 - r["asymptotic_1"]) / t1 < 0.25
    assert abs(t2 - r["asymptotic_2"]) / t2 < 0.25


@settings(max_examples=300, deadline=None)
@given(omega1=st.floats(0.1, 10.0), gamma=st.floats(1e-3, 1.0), temp0=st.floats(0.1, 10.0))
def test_critical_times_are_roots_of_the_rate(omega1, gamma, temp0):
    p = CosmoParams(omega1=omega1, gamma=gamma, temp0=temp0)
    r = critical_times(p)
    assume(r["discriminant"] > 0)
    t1, t2 = r["times"]
    assert 0 < t1 < t2
    assert max(abs(entropy_gap_rate(t, p)) for t in (t1, t2)) < 1e-12


def test_no_roots_above_discriminant():
    # B > 2 (A/3)^(3/2) leaves the cubic negative-free: monotone decline
    p = CosmoParams(gamma=1.0)  # B = 1 > 2/(3 sqrt 3)
    r = critical_times(p)
    assert r["discriminant"] <= 0
    assert r["times"] == []
    t = np.geomspace(0.01, 1e4, 50)
    assert np.all(entropy_gap_rate(t, p) < 0)


def test_sign_pattern_and_regimes():
    roots = critical_times(P)
    t1, t2 = roots["times"]
    assert entropy_gap_rate(0.5 * t1, P) < 0
    assert entropy_gap_rate(np.sqrt(t1 * t2), P) > 0
    assert entropy_gap_rate(2 * t2, P) < 0
    rows = gap_to_csv(P, [0.1 * t1, 10.0, 5 * t2], roots).splitlines()[1:]
    labels = [row.rsplit(",", 1)[1] for row in rows]
    assert labels == ["thermalizing-early", "complexity-growth",
                      "final-approach"]


def test_gap_csv_and_roots_json():
    roots = critical_times(P)
    text = gap_to_csv(P, np.geomspace(0.1, 1e4, 20), roots)
    assert text.splitlines()[0] == "t,delta_s,rate,regime"
    data = json.loads(roots_to_json(roots))
    assert data["t_cr1"] == pytest.approx(1.1825, abs=1e-3)
    assert data["asymptotic_2"] == pytest.approx(1000.0)
