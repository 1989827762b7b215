"""Frozen reference values for the test suite.

Everything here was computed independently of the library before the tests
were written: equilibria and Hopf quantities with 40-digit arithmetic, and
characteristic roots through the Lambert-W representation
lambda = -eta*a + W_k(-eta*b*tau*e^(eta*a*tau))/tau, taking the branch with
the largest real part.  The library must reproduce these, not the other
way around.  `lambertw_roots` evaluates that representation on every branch
at test time, with scipy's Lambert W in place of the library's;
`spectral_roots` finds the roots with neither that representation nor the
library's winding search.
"""
import cmath
import math

import numpy as np
import pytest

# Delayed cubic oscillator, first parameter set: k=9, mu=1, lam=-7, tau=0.187
EX1_XE = 0.8088519405189048
EX1_A = 0.96272438504359371
EX1_EPS = 0.10696937611595486
EX1_ETA_C = 1.0027652909986414
EX1_OMEGA0 = 8.9731056636779672
EX1_PERIOD = 0.70022415233703879
EX1_ALPHA_PRIME = 3.5671811322709946
EX1_MU2_CLOSED = 0.12342712413788066
EX1_MU2_RECIPE = 0.12376843605324734
EX1_BETA2 = -0.88300885971966605
EX1_TAU_STAR = 0.039355745173568181

# Second parameter set: k=4.75, mu=1, lam=-7, tau=1
EX2_XE = 1.2918071166573189
EX2_A = 4.006296879939488
EX2_EPS = 0.84343092209252379
EX2_ETA_C = 1.0088387200632933
EX2_OMEGA0 = 2.5744341225618406
EX2_ALPHA_PRIME = 0.20500331518432149
EX2_MU2_CLOSED = -3.1866296876900972
EX2_MU2_RECIPE = -3.2147954154449697
EX2_BETA2 = 1.3180874356111537

# Shape-function spot values at epsilon = 0
G_TILDE_0 = -1.4918311805232928   # (4*pi - 36) / (5*pi)
H_TILDE_0 = -1.909859317102744    # -6/pi

# tau* oracles: b*tau*e^(a*tau) = 1/e
TAU_STAR_A0_B1 = 0.36787944117144233   # = 1/e

# Rightmost characteristic roots (re, im with im >= 0)
ROOT_WRIGHT = (-0.31813150520476414, 1.3372357014306894)   # a=0 b=1 tau=1 eta=1
ROOT_A0_B1_TAU03 = (-1.6313407572673832, 0.0)              # real regime
ROOT_EX1_ETA1 = (-0.0098780598699990902, 8.9661520884891321)
ROOT_EX2_ETA095 = (-0.012777720827522216, 2.5497725742589228)
ROOT_UNSTABLE = (0.2171666436825234, 1.0787558829427432)   # a=0.5 b=2 tau=2 eta=1

# Wright-equation convergence quantities at tau=1
WRIGHT_SIGMA = 0.31813150520476414
WRIGHT_U2 = 1.3372357014306894

# Exponential birth-rate model mu2 at x0=1 for chosen epsilon, at 40 digits:
# f'' and f''' of p y e^(-y) - x by numerical differentiation at N* = q,
# gamma = x0 = 1, halved and divided by 6 (xi_yy = f''/2, xi_yyy = f'''/6),
# then the general closed form's quadratic and cubic braces.  The same
# computation with the unscaled f'' and f''' gives this table's earlier
# values, 0.54877341435118619, 1.2948874095850418 and 6.3606494059489201
NICHOLSON_MU2 = {
    0.2: 0.31072098155190366,
    0.5: 0.32372185239626045,
    0.8: 1.0934345675982593,
}

# Cubic equilibrium where c1*x nearly cancels lam: the real root of
# x^3 + (k - mu) x + lam at k = 6.342023506695012, mu = -1.789468281761974,
# lam = -0.5051897061202594, to 40 digits (60-digit arithmetic on the exact
# float inputs)
CUBIC_CANCELLING_XE = "0.06209810673104962419148893965987630770606"


# The built-in models' Taylor tables in closed form, the cubic and quadratic
# ones as the models stated them by hand before their coefficients came from
# their expressions: each maps a coefficient to (value, term scale), the
# scale the sum of the magnitudes the value is formed from.  Nicholson's
# takes xi_yy = f''/2 and xi_yyy = f'''/6, and its scales a factor 1 + q
# more: its expansion's exp(-x_e/x0) carries the rounding of x_e = x0 q,
# which the exponential amplifies by q.  Coefficients not listed are zero.
def cubic_taylor(spec, x_e):
    return {"xi_x": (-(3.0 * x_e * x_e - spec.mu), abs(spec.mu) + 3.0 * x_e * x_e),
            "xi_y": (-spec.k, spec.k), "xi_xx": (-3.0 * x_e, 3.0 * abs(x_e)),
            "xi_xxx": (-1.0, 1.0)}


def quadratic_taylor(spec, x_e):
    return {"xi_x": (-(2.0 * x_e - spec.mu), abs(spec.mu) + 2.0 * abs(x_e)),
            "xi_y": (-spec.k, spec.k), "xi_xx": (-1.0, 1.0)}


def nicholson_taylor(spec):
    g, x0, q = spec.gamma, spec.x0_size, math.log(spec.p_rate / spec.gamma)
    return {"xi_x": (-g, g),
            "xi_y": (-g * (q - 1.0), g * (q + 1.0) * (1.0 + q)),
            "xi_yy": (-(g / x0) * (2.0 - q) / 2.0, g * (q + 2.0) / (2.0 * x0) * (1.0 + q)),
            "xi_yyy": (g * (3.0 - q) / (6.0 * x0 * x0),
                       g * (q + 3.0) / (6.0 * x0 * x0) * (1.0 + q))}


def lambertw_roots(coeffs, eta, region):
    """Every root in region with Im >= 0, rightmost first, and the distance
    from the boundary to the nearest root inside or outside it.

    The roots are -A + W_k(z)/tau with z = -B tau e^(A tau), A = eta*a,
    B = eta*b; Im W_k lies in ((2|k| - 2)pi, (2|k| + 1)pi), so branches
    |k| <= K reach past the top of the region.
    """
    special = pytest.importorskip("scipy.special")
    A, B, tau = eta * coeffs.a, eta * coeffs.b, coeffs.tau
    z = -B * tau * math.exp(A * tau)
    K = int(tau * region.im_max / (2.0 * math.pi)) + 2
    inside, clearance = [], math.inf
    for k in range(-K, K + 1):
        lam = -A + complex(special.lambertw(z, k)) / tau
        dx = max(region.re_min - lam.real, lam.real - region.re_max)
        dy = abs(lam.imag) - region.im_max
        d = max(dx, dy)
        clearance = min(clearance, -d if d < 0 else math.hypot(max(dx, 0.0), max(dy, 0.0)))
        if d < 0 and lam.imag >= 0.0:
            inside.append(lam)
    return sorted(inside, key=lambda lam: (-lam.real, lam.imag)), clearance


def cheb(n):
    """Chebyshev differentiation matrix D and nodes x_j = cos(pi j/n),
    j = 0..n, on [-1, 1] (Trefethen, Spectral Methods in MATLAB, 2000,
    program cheb)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    return d - np.diag(d.sum(axis=1)), x


# the largest N spectral_roots collocates on: its dense eigenproblem of
# order N + 1 takes a few milliseconds there, and grows as N^3 beyond
SPECTRAL_MAX_N = 200


def spectral_n(tau, region):
    """The N spectral_roots collocates region on, at delay tau."""
    return int(tau * (region.im_max + max(abs(region.re_min), abs(region.re_max))) / 2.0) + 12


def spectral_roots(coeffs, eta, region):
    """Every root in region with Im >= 0, rightmost first, from the spectrum
    of the generator of u' = -A u - B u(t - tau), A = eta*a, B = eta*b.

    The generator is collocated on the N + 1 Chebyshev nodes
    theta_j = tau (x_j - 1)/2 of [-tau, 0] (Breda, Maset & Vermiglio, SIAM
    J. Sci. Comput. 27, 2005): the rows of theta < 0 differentiate, and the
    row of theta = 0 is the equation, -A u(0) - B u(-tau).  Its eigenvalues
    approach the characteristic roots of modulus up to about N/tau, so N
    grows with the region; each one is polished by Newton on
    G(lambda) = lambda + A + B e^(-lambda tau), kept if Newton converges
    inside the region, and merged with any root already found within 1e-7
    relative.

    A region that needs N above SPECTRAL_MAX_N, as a large b*tau makes the
    default one, raises ValueError instead of building a larger
    eigenproblem.  The tests keep the regions they give this oracle within
    the limit, and check denser regions, such as the README model's at
    tau = 50, against lambertw_roots alone.
    """
    A, B, tau = eta * coeffs.a, eta * coeffs.b, coeffs.tau
    n = spectral_n(tau, region)
    if n > SPECTRAL_MAX_N:
        raise ValueError(f"the region needs N = {n} Chebyshev nodes, above "
                         f"SPECTRAL_MAX_N = {SPECTRAL_MAX_N}")
    m = (2.0 / tau) * cheb(n)[0]
    m[0] = 0.0
    m[0, 0], m[0, n] = -A, -B
    found = []
    for lam in map(complex, np.linalg.eigvals(m)):
        try:
            for _ in range(60):
                e = cmath.exp(-lam * tau)
                step = (lam + A + B * e) / (1.0 - B * tau * e)
                lam -= step
                if abs(step) <= 1e-15 * (1.0 + abs(lam)):
                    break
            else:
                continue
        except (OverflowError, ZeroDivisionError):
            continue
        lam = complex(lam.real, abs(lam.imag))
        if (region.re_min <= lam.real <= region.re_max and lam.imag <= region.im_max
                and all(abs(lam - other) > 1e-7 * (1.0 + abs(lam)) for other in found)):
            found.append(lam)
    return sorted(found, key=lambda lam: (-lam.real, lam.imag))
