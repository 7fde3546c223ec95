"""Independent accuracy references, evaluated with mpmath at raised precision.

Nothing here imports specsing: each formula is re-derived in multiprecision
arithmetic so that a reference never shares the double-precision code path
it checks.  Where the library has a closed form for a constant the reference
takes a different route (e.g. the full-line moments of the beta = 1 weight
come from a Cauchy-beta sum, not from quadrature), and diagonal kernel
values come from an offset point at high precision instead of a derivative
formula.

Conventions follow the library's documented ones (see the module docstrings
of specsing.kernels, specsing.limits and specsing.density):

  phi_k(X) = (-1)^(N-k) sin(u)^(p+k) e^{Q(u - pi/2)} e^{i(-X + k u)} F_k,
  F_k = 2F1(-(N-k), p+k-iQ; 2p+2k; 1 - e^{2iu}),  u = X/N,  p = P - N.
"""
from __future__ import annotations

import mpmath as mp

# working precision of the references (decimal digits); mpmath's series
# summation raises it further on its own when terms cancel
DPS = 30
_DIAG_DELTA = mp.mpf(10) ** -20


# --- primitives ----------------------------------------------------------------

def hyp2f1_poly(n: int, b, c, z):
    """Terminating 2F1(-n, b; c; z).  mpmath sums the polynomial term by term
    and raises its working precision when the terms cancel."""
    if b == 0 and c == 0:
        # joint limit b, c -> 0 with b/c -> 1/2 (weight p -> 0 at q = 0)
        return 1 - n * z / 2
    return mp.hyp2f1(-n, b, c, z)


def phi(N: int, k: int, P, Q, X):
    """omega2(z(X))^{1/2} I_{N-k}(z(X)) in the scaled variable."""
    p = mp.mpf(P) - N
    X = mp.mpf(X)
    u = X / N
    F = hyp2f1_poly(N - k, mp.mpc(p + k, -Q), mp.mpc(2 * p + 2 * k),
                    1 - mp.expj(2 * u))
    amp = (p + k) * mp.log(mp.sin(u)) + Q * (u - mp.pi / 2)
    sign = -1 if (N - k) % 2 else 1
    return sign * mp.exp(amp) * mp.expj(-X + k * u) * F


def h_sub(n: int, P, Q):
    """Squared norm h_n of the monic Routh-Romanovski polynomial."""
    P, Q = mp.mpf(P), mp.mpf(Q)
    lg = (mp.loggamma(n + 1) + mp.loggamma(2 * P - 2 * n) + mp.loggamma(2 * P - 2 * n - 1)
          - mp.loggamma(2 * P - n) - mp.loggamma(mp.mpc(P - n, -Q))
          - mp.loggamma(mp.mpc(P - n, Q)))
    return mp.re(mp.exp((2 * n + 2 - 2 * P) * mp.log(2) + mp.log(mp.pi) + lg))


def _offset(X, Y):
    """Move Y off the diagonal by a step far below double resolution."""
    X, Y = mp.mpf(X), mp.mpf(Y)
    if X == Y:
        Y = Y + _DIAG_DELTA * (1 + abs(X))
    return X, Y


def cd_scaled(N: int, k: int, P, Q, X, Y, arg_scale: int = 1):
    """Christoffel-Darboux kernel of degree N-k in the scaled variable,
    times dz/dX; `arg_scale` = 2 evaluates the M = 2N system at (2X, 2Y)
    with N the ensemble size (beta = 4)."""
    with mp.workdps(DPS + 25):
        X, Y = _offset(X, Y)
        M = arg_scale * N
        h = h_sub(M - k - 1, P, Q)
        ax, ay = arg_scale * X, arg_scale * Y
        num = (phi(M, k, P, Q, ax) * phi(M, k + 1, P, Q, ay)
               - phi(M, k, P, Q, ay) * phi(M, k + 1, P, Q, ax))
        uX, uY = X / N, Y / N
        dx = mp.sin((X - Y) / N) / (mp.sin(uX) * mp.sin(uY))
        dz = 1 / (N * mp.sin(uX) ** 2)
        return num / dx / h * dz


def tail(M: int, shift: int, P, Q, upper_X, N: int, arg_scale: int = 1):
    """int_0^X phi_M,shift(arg_scale s) / (N sin(s/N)) ds by tanh-sinh."""
    upper_X = mp.mpf(upper_X)
    if upper_X <= 0:
        return mp.mpc(0)
    f = lambda s: phi(M, shift, P, Q, arg_scale * s) / (N * mp.sin(s / N))
    with mp.workdps(20):
        return mp.quad(f, [0, upper_X / 2, upper_X])


def full_line(n: int, P, Q):
    """int_{-inf}^{inf} I_n(t) w1(t) dt with w1 = (1+t^2)^{-(P+1)/2} e^{Q arctan t},
    summed term by term over the hypergeometric form of I_n, each term a
    Cauchy-beta integral

        int (1-it)^{-mu} (1+it)^{-lam} dt = 2^{2-lam-mu} pi G(lam+mu-1)/(G(lam) G(mu)).
    """
    with mp.workdps(DPS + n + 20):
        P, Q = mp.mpf(P), mp.mpf(Q)
        c = mp.mpc(-P, Q)
        cc = 2 * c.real
        pref = (-2j) ** n * mp.rf(c + 1, n) / mp.rf(cc + n + 1, n)
        c1 = mp.mpc(-(P + 1) / 2, Q / 2)
        lam = -mp.conj(c1)
        total = mp.mpc(0)
        coeff = mp.mpc(1)
        for a in range(n + 1):
            if a:
                coeff = coeff * (a - 1 - n) * (n + cc + a) / ((c + a) * a)
            mu = -(c1 + a)
            cb = (mp.power(2, 2 - lam - mu) * mp.pi * mp.gamma(lam + mu - 1)
                  * mp.rgamma(lam) * mp.rgamma(mu))
            total += coeff * mp.power(2, -a) * cb
        return pref * total


# --- finite-N kernels -------------------------------------------------------------

def kernel_scaled(beta: int, N: int, p, q, X, Y) -> float:
    """S_{N,beta}(z(X), z(Y)) dz/dX."""
    with mp.workdps(DPS):
        p, q = mp.mpf(p), mp.mpf(q)
        X, Y = mp.mpf(X), mp.mpf(Y)
        uX, uY = X / N, Y / N
        dz = 1 / (N * mp.sin(uX) ** 2)
        if beta == 2:
            return float(mp.re(cd_scaled(N, 0, N + p, q, X, Y)))
        if beta == 4:
            P, Q, M = 2 * N + 2 * p, q, 2 * N
            t1 = mp.sin(uY) / mp.sin(uX) * cd_scaled(N, 0, P, Q, X, Y, arg_scale=2) / 2
            gam = 2 * p / h_sub(M - 1, P, Q)
            w1y = mp.sin(uY) * phi(M, 0, P, Q, 2 * Y)
            tail_up = -tail(M, 1, P, Q, X, N, arg_scale=2)
            return float(mp.re(t1 - gam * w1y * tail_up * dz / 2))
        if beta != 1:
            raise ValueError("beta must be 1, 2 or 4")
        P, Q = N + p, 2 * q
        if N % 2 == 0:
            t1 = mp.sin(uY) / mp.sin(uX) * cd_scaled(N, 1, P, Q, X, Y)
            gam = (p + 1) / h_sub(N - 2, P, Q)
            sgn = 2 * tail(N, 2, P, Q, X, N) - full_line(N - 2, P, Q)
            w1y = mp.sin(uY) * phi(N, 1, P, Q, Y)
            return float(mp.re(t1 + gam * w1y * sgn * dz / 2))
        st = {j: mp.re(full_line(N - j, P, Q)) / 2 for j in (1, 2, 3)}
        t1 = mp.sin(uY) / mp.sin(uX) * cd_scaled(N, 2, P, Q, X, Y)
        gam3 = (P - 1 - (N - 3)) / h_sub(N - 3, P, Q)
        w1y2 = mp.sin(uY) * phi(N, 2, P, Q, Y)
        w1y1 = mp.sin(uY) * phi(N, 1, P, Q, Y)
        part1 = t1 + gam3 * w1y2 * (2 * tail(N, 3, P, Q, X, N) - 2 * st[3]) * dz / 2
        part2 = w1y1 / (2 * st[1]) * dz
        sgn1 = 2 * tail(N, 1, P, Q, X, N) - 2 * st[1]
        sgn2 = 2 * tail(N, 2, P, Q, X, N) - 2 * st[2]
        part3 = -gam3 * st[3] / st[1] * (sgn1 * w1y2 - sgn2 * w1y1) * dz / 2
        return float(mp.re(part1 + part2 + part3))


def rho_finite(theta, beta: int, N: int, p, q) -> float:
    """Finite-N density from the kernel diagonal: rho(theta) = (N/2) S(X, X)
    at X = N (pi - theta/2), the determinantal identity for beta = 2 and its
    skew analogue for beta = 4."""
    with mp.workdps(DPS):
        X = N * (mp.pi - mp.mpf(theta) / 2)
        return N / 2 * kernel_scaled(beta, N, p, q, X, X)


# --- scaled limits -----------------------------------------------------------------

def _A(pk, q, j: int, X):
    """Confluent block A(j; X)."""
    a = mp.mpc(pk, -q)
    if pk == 0 and q == 0 and j >= 1:
        return mp.hyp1f1(j, j, 2j * X) / 2
    return mp.rf(a, j) / mp.rf(2 * pk, j) * mp.hyp1f1(a + j, 2 * pk + j, 2j * X)


def c_tilde(order: int, k: int, p, q, X):
    pk = p + k
    if order == 0:
        return _A(pk, q, 0, X)
    u = 2j * X
    A0, A1, A2 = (_A(pk, q, j, X) for j in (0, 1, 2))
    C1 = u * u * (A1 - A2) / 2 - k * u * A1 + (1j * k + q) * X * A0
    if order == 1:
        return C1
    A3, A4 = _A(pk, q, 3, X), _A(pk, q, 4, X)
    lines = (u ** 4 * (A2 - 2 * A3 + A4) / 8
             + u ** 3 * (A1 - 3 * (k + 1) * A2 + (3 * k + 2) * A3) / 6
             + u ** 2 * (-2 * k * A1 + 2 * k * (k + 1) * A2) / 4)
    w = 1j * k + q
    return lines + w * X * C1 - (w * w / 2 + pk / 6) * X * X * A0


def _h_const(pk, q):
    lg = 2 * mp.re(mp.loggamma(mp.mpc(pk, -q))) - mp.loggamma(2 * pk) - mp.loggamma(2 * pk - 1)
    return mp.exp((2 * pk - 2) * mp.log(2) + lg - mp.log(mp.pi))


def _beta2_terms(p, q, X, Y, k: int, order: int):
    """The beta = 2 limit kernel (order 0) or correction (order 1, 2)."""
    X, Y = _offset(X, Y)
    c = {(o, kk, T): c_tilde(o, kk, p, q, T)
         for o in range(order + 1) for kk in (k, k + 1) for T in (X, Y)}

    def J(n):
        return sum(X * c[(a, k + 1, X)] * c[(n - a, k, Y)]
                   - Y * c[(a, k + 1, Y)] * c[(n - a, k, X)] for a in range(n + 1))

    pref = (_h_const(p + k + 1, q) * mp.exp(mp.mpc(-q * mp.pi, -(X + Y)))
            * (X * Y) ** (p + k + 1) / (X * X * (X - Y)))
    Q1 = p * (2 * p + 2 * k + 1)
    if order == 0:
        return pref * J(0)
    if order == 1:
        return pref * (J(1) + Q1 * J(0))
    Q2 = -X * Y / 3 + (p + k) * (2 * p + 2 * k + 1) * (6 * p * p - p - k - 1) / 6
    return pref * (J(2) + Q1 * J(1) + (Q2 + X * X / 3) * J(0))


def _c_terms(order: int, k: int, pk, q):
    """C_order^{(p,q,k)}(x) as a list of (coef, m, j) meaning coef x^m A(j; x):
    c_tilde written out with u = 2ix and w = ik + q."""
    w = 1j * k + q
    c0 = [(1, 0, 0)]
    if order == 0:
        return c0
    c1 = [(-2, 2, 1), (2, 2, 2), (-2j * k, 1, 1), (w, 1, 0)]
    if order == 1:
        return c1
    return ([(2, 4, 2), (-4, 4, 3), (2, 4, 4),
             (-4j / 3, 3, 1), (4j * (k + 1), 3, 2), (-4j / 3 * (3 * k + 2), 3, 3),
             (2 * k, 2, 1), (-2 * k * (k + 1), 2, 2)]
            + [(w * c, m + 1, j) for c, m, j in c1]
            + [(-(w * w / 2 + pk / 6), 2, 0)])


def _block_integral(order: int, k: int, p, q, nu, scale: int, X, extra=None):
    """int_0^X s^nu e^{-i scale s} C_order^{(p,q,k)}(scale s) [extra s^2] ds.

    Each term x^m A(j; x) times the exponential is a prefactor times
    y(w) = e^{-w/2} 1F1(a; b; w) at w = 2 i scale s, whose Taylor
    coefficients obey w y'' + b y' + (b/2 - a - w/4) y = 0:
        c_{n+1} = ((a - b/2) c_n + c_{n-1}/4) / ((n + 1)(n + b)),
    so the integral is a sum of X^(nu+m+n+1)/(nu+m+n+1) terms.  This replaces
    the adaptive quadrature of the library by a convergent series."""
    pk = p + k
    a0 = mp.mpc(pk, -q)
    kappa = 2j * scale
    terms = _c_terms(order, k, pk, q)
    coef_extra, shift = extra or (1, 0)
    with mp.workdps(DPS + int(abs(kappa) * X) // 2):
        X = mp.mpf(X)
        n_max = int(3 * abs(kappa) * X) + 60
        kx = kappa * X
        total = mp.mpc(0)
        for coef, m, j in terms:
            a, b = a0 + j, 2 * pk + j
            pref = coef * coef_extra * mp.mpf(scale) ** m * mp.rf(a0, j) / mp.rf(2 * pk, j)
            e = nu + m + shift + 1      # exponent of s after integration
            c_prev, c = mp.mpc(0), mp.mpc(1)
            power = X ** e
            acc = mp.mpc(0)
            for n in range(n_max):
                acc += c * power / (e + n)
                c_prev, c = c, ((a - b / 2) * c + c_prev / 4) / ((n + 1) * (n + b))
                power *= kx
            total += pref * acc
        return total


def _eta(p, q):
    g = mp.loggamma(mp.mpc((p + 3) / 2, q))
    eta1 = 2 * mp.sqrt(mp.pi) * mp.exp(mp.loggamma(p + 2) + mp.loggamma(p + 2.5) - 2 * mp.re(g))
    g2 = mp.loggamma(mp.mpc(p + 2, -2 * q))
    eta2 = -(p + 1) * mp.exp(-q * mp.pi + (2 * p + 2) * mp.log(2) + 2 * mp.re(g2)
                             - mp.log(mp.pi) - mp.loggamma(2 * p + 4) - mp.loggamma(2 * p + 3))
    return eta1, eta2


def _js_pref(p, q, Y):
    lg = 2 * mp.re(mp.loggamma(mp.mpc(2 * p + 1, -q))) - mp.loggamma(4 * p + 1) - mp.loggamma(4 * p + 2)
    c = p * mp.exp(8 * p * mp.log(2) + lg - mp.log(mp.pi) - q * mp.pi)
    return c * mp.expj(-2 * Y) * Y ** (2 * p + 1)


def limit_kernel(kind: str, beta: int, p, q, X, Y) -> complex:
    """K_inf (kind 'k'), L1 ('l1') or L2 ('l2') at (X, Y)."""
    order = {"k": 0, "l1": 1, "l2": 2}[kind]
    with mp.workdps(DPS):
        p, q = mp.mpf(p), mp.mpf(q)
        X, Y = _offset(X, Y)
        if beta == 2:
            return complex(_beta2_terms(p, q, X, Y, 0, order))
        if beta == 1:
            if order == 2:
                raise ValueError("l2 is defined for beta in {2, 4}")
            qe = 2 * q
            eta1, eta2 = _eta(p, q)
            damp = mp.exp(-q * mp.pi)

            def jo(o):
                return damp * _block_integral(o, 2, p, qe, p + 1, 1, X)

            pre = eta2 / (X * X) * mp.expj(-Y) * Y ** (p + 2)
            J0 = jo(0)
            if order == 0:
                extra = pre * c_tilde(0, 1, p, qe, Y) * (J0 - eta1 / 2)
            else:
                extra = pre * (c_tilde(1, 1, p, qe, Y) * (J0 - eta1 / 2)
                               + c_tilde(0, 1, p, qe, Y)
                               * (jo(1) + p * (2 * p + 3) * J0 - p * (p + 1) * eta1 / 2))
            return complex(Y / X * _beta2_terms(p, qe, X, Y, 1, order) + extra)
        if beta != 4:
            raise ValueError("beta must be 1, 2 or 4")
        pe = 2 * p
        pref = _js_pref(p, q, Y)

        def I(o, extra=None):
            return _block_integral(o, 1, pe, q, 2 * p, 2, X, extra)

        cY = [c_tilde(o, 0, pe, q, 2 * Y) for o in range(order + 1)]
        I0 = I(0)
        k2 = _beta2_terms(pe, q, 2 * X, 2 * Y, 0, 0)
        if order == 0:
            return complex(Y / X * k2 - 2 / (X * X) * pref * cY[0] * I0)
        I1 = I(1)
        a1 = 2 * p * (4 * p + 1)
        if order == 1:
            Js1 = pref * (cY[1] * I0 + cY[0] * I1 + a1 * cY[0] * I0)
            return complex(Y / (2 * X) * _beta2_terms(pe, q, 2 * X, 2 * Y, 0, 1) - Js1 / (X * X))
        I2 = I(2)
        Ix = I(0, (mp.mpf(2) / 3, 2))
        a2 = p * (4 * p + 1) * (24 * p * p - 2 * p - 1) / 3
        T2 = (a2 * cY[0] * I0 + a1 * (cY[1] * I0 + cY[0] * I1)
              + (cY[2] - 2 * Y * Y / 3 * cY[0]) * I0 + cY[1] * I1
              + cY[0] * (I2 + Ix) + (4 * X * X / 3) * cY[0] * I0)
        part1 = (Y / (4 * X) * _beta2_terms(pe, q, 2 * X, 2 * Y, 0, 2)
                 + (X * X - Y * Y) / 6 * (Y / X) * k2)
        return complex(part1 - pref * T2 / (2 * X * X))


def rho_limit(theta, beta: int, p, q) -> float:
    """rho_inf(theta) = K_inf(theta/2, theta/2)/2 with the opposite sign of q
    (the density and kernel conventions differ by q -> -q)."""
    half = float(theta) / 2
    return limit_kernel("k", beta, p, -q, half, half).real / 2


def rho_limit_l1(theta, beta: int, p, q) -> float:
    """p d/dtheta [theta rho_inf(theta)], from a high-precision stencil."""
    with mp.workdps(DPS):
        t = mp.mpf(theta)
        h = mp.mpf(10) ** -6 * t
        g = [(t + j * h) * rho_limit(t + j * h, beta, p, q) for j in (-1, 1)]
        return float(p * (g[1] - g[0]) / (2 * h))


# --- Morris integral and the beta = 2 weighted integral ------------------------------

def morris(a, b, lam, N: int) -> complex:
    with mp.workdps(DPS):
        a, b, lam = mp.mpc(a), mp.mpc(b), mp.mpf(lam)
        tot = mp.mpc(1)
        for j in range(N):
            tot *= (mp.gamma(lam * j + a + b + 1) * mp.gamma(lam * (j + 1) + 1)
                    / (mp.gamma(lam * j + a + 1) * mp.gamma(lam * j + b + 1) * mp.gamma(1 + lam)))
        return complex(tot)


def weighted_integral(theta, p, q, moment: str) -> complex:
    """The beta = 2 two-dimensional weighted integral over (-pi, pi)^2.

    |e^{i t2} - e^{i t1}|^2 = 2 - e^{i(t2-t1)} - e^{-i(t2-t1)} makes the
    integrand a sum of products of one-dimensional integrals
    F_k = int f(t) e^{ikt} dt and G_k = int f(t) g(t) e^{ikt} dt:

        I = 2 F_0^2 - 2 F_1 F_{-1}                     (no moment)
        I = 2 (2 F_0 G_0 - F_1 G_{-1} - F_{-1} G_1)   (moment g).

    Each F is folded onto s = pi - |t| in (0, pi), where 2 cos(t/2) =
    2 sin(s/2) keeps full relative precision at the singular endpoint, and
    s = pi w^m smooths the endpoint power s^gamma into w^(m(gamma+1)-1) with
    m (gamma + 1) >= 2, so no mass hides below the quadrature's smallest node.
    The moments are powers of e^{it}; 1/(1 + e^{it}) = e^{-it/2} (2 cos(t/2))^{-1}.
    """
    with mp.workdps(20):
        p, q, theta = mp.mpf(p), mp.mpf(q), mp.mpf(theta)
        ab = mp.mpc(p - 1, q)          # a~ + b~ at beta = 2
        d = mp.mpc(3 * p + 1, -q)      # a~ - b~

        def F(k, power=0, shift=0):
            kappa = d / 2 + k + shift
            m = int(mp.ceil(2 / (ab.real + power + 1)))

            def h(w):
                s = mp.pi * w ** m
                base = mp.power(2 * mp.sin(s / 2), ab + power) * mp.pi * m * w ** (m - 1)
                return base * sum(mp.expj(sg * kappa * (mp.pi - s))
                                  * mp.exp(-1j * theta * mp.expj(-sg * s)) for sg in (1, -1))

            return mp.quad(h, [0, 1])

        F0, F1, Fm = F(0), F(1), F(-1)
        if moment == "one":
            return complex(2 * F0 * F0 - 2 * F1 * Fm)
        power, shift = {"exp1": (0, 1), "exp2": (0, 2), "inv1p": (-1, -0.5)}[moment]
        G0, G1, Gm = (F(k, power, shift) for k in (0, 1, -1))
        return complex(2 * (2 * F0 * G0 - F1 * Gm - Fm * G1))
