"""Frozen reference values for the test suite.

Everything here was computed independently of the library before the tests
were written: equilibria and Hopf quantities with 40-digit arithmetic, and
characteristic roots through the Lambert-W representation
lambda = -eta*a + W_k(-eta*b*tau*e^(eta*a*tau))/tau, taking the branch with
the largest real part.  The library must reproduce these, not the other
way around.  `lambertw_roots` evaluates that representation on every branch
at test time, with scipy's Lambert W in place of the library's.
"""
import math

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

# Exponential birth-rate model mu2 at x0=1 for chosen epsilon
NICHOLSON_MU2 = {
    0.2: 0.54877341435118619,
    0.5: 1.2948874095850418,
    0.8: 6.3606494059489201,
}

# Cubic equilibrium where c1*x nearly cancels lam: the real root of
# x^3 + (k - mu) x + lam at k = 6.342023506695012, mu = -1.789468281761974,
# lam = -0.5051897061202594, to 40 digits (60-digit arithmetic on the exact
# float inputs)
CUBIC_CANCELLING_XE = "0.06209810673104962419148893965987630770606"


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
