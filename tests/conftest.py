import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import cbre2
from cbre2.scenario import load_scenario
from cbre2.simulate import scenario_states

RECORD_TIMES = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
SCENARIO_DIR = os.path.join(os.path.dirname(cbre2.__file__), "scenarios")


def bundled_scenario(name, n_paths, step):
    """The bundled scenario `<name>.json`, with its path count and step replaced."""
    sc = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json"))
    return replace(sc, n_paths=n_paths, step=step)


@pytest.fixture(scope="session")
def mixed_big_run():
    """The large mixed-scenario run shared by the acceptance criteria.

    10^5 paths at step 1e-3, states recorded at five grid times.
    """
    sc = bundled_scenario("mixed", 100_000, 1e-3)
    times, states = scenario_states(sc, sc.n_paths, sc.seed, record_times=RECORD_TIMES)
    return sc, times, states[0]


def _rem2(w):
    """e^{-w} - 1 + w, by its Taylor series where the terms cancel."""
    if w < 0.1:
        return w * w * math.fsum((-w) ** k / math.factorial(k + 2) for k in range(12))
    return math.expm1(-w) + w


def tail_phi_quad(tail, lam, compensated):
    """mass * E[e^{-lam Y} - 1 (+ lam Y)] over an AxisTail's magnitude Y, by quad.

    Pareto magnitudes are integrated in s = log(Y / x0), split where
    lam * Y crosses 1; exponential ones in the excess E = theta (Y - x0).
    """
    if lam == 0.0:
        return 0.0
    f = _rem2 if compensated else (lambda w: math.expm1(-w))
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
    a = tail.shape
    if tail.family == "pareto":
        z = lam * tail.x0

        def g(s):  # beyond s = 600 the integrand is below e^{-300}
            return f(z * math.exp(s)) * a * math.exp(-a * s) if s < 600 else 0.0

        cut = max(0.0, -math.log(z))
        total = quad(g, cut, math.inf, **opts)[0]
        if cut > 0:
            total += quad(g, 0.0, cut, **opts)[0]
    else:
        total = quad(lambda e: f(lam * (tail.x0 + e / a)) * math.exp(-e), 0.0, math.inf, **opts)[0]
    return tail.mass * total


def tail_quad(tail, g, lo, hi=math.inf):
    """Integral of g(y) against a tail component's magnitude density over (lo, hi), by quad.

    The density is written out here, apart from cbre2: mass theta e^{-theta (y - x0)}
    (exponential) or mass alpha x0^alpha y^{-alpha-1} (Pareto), on y > x0.
    """
    lo = max(lo, tail.x0)
    if hi <= lo:
        return 0.0
    m, a, x0 = tail.mass, tail.shape, tail.x0
    if tail.family == "pareto":
        def dens(y):
            return m * a * x0**a * y ** (-a - 1.0)
    else:
        def dens(y):
            return m * a * math.exp(-a * (y - x0))
    def f(y):  # where the density underflows, g may overflow
        d = dens(y)
        return g(y) * d if d else 0.0

    return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]


@pytest.fixture(scope="session")
def tail_reference():
    """Quadrature reference for integrals against one tail component, apart from cbre2."""
    return tail_quad


@pytest.fixture(scope="session")
def phi_reference():
    """Quadrature reference for one axis tail's term of phi, apart from cbre2."""
    return tail_phi_quad
