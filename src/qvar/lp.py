"""The Stage-1 fit's LP solver in NumPy alone, ``linprog``: a primal-dual
interior-point method (Mehrotra's predictor-corrector) over all the rows
of one dense LP, with t >= 0 as one more row.  A rung's minimax LP always
has a solution, since P = 0 with t = max |y_w| meets every row, and a
solve returns only a certified optimum: its primal and dual residuals and
its relative duality gap within LP_TOL, or else NumericalError with the
three.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

LP_TOL = 1e-9  # bound on an LP solve's primal and dual residuals and gap
LP_ITER_CAP = 100  # interior-point iterations per LP solve
LP_PROX = 1e-12  # proximal weight on an interior-point step
STEP_FRACTION = 0.99  # of the step to the boundary of the positive orthant


# an LP with no solution drives its multipliers past the float range; the
# solve checks its residuals and scaling for it instead of warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def linprog(a_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """x = (c, t) minimizing t subject to a_ub @ x <= b_ub and t >= 0, with
    the coefficients c free, by Mehrotra's primal-dual predictor-corrector
    method (SIAM J. Optim. 2(4), 1992).

    Written g x <= h, the rows are a_ub's, then -t <= 0.  The slacks
    s = h - g x and the multipliers z stay positive.  The start is strictly
    feasible: no polynomial, and an error above every bound.  Each Newton
    step comes from one QR factorisation of the scaled rows sqrt(z / s) g,
    stacked on sqrt(LP_PROX) I; the normal matrix g^T D g, which loses
    positive definiteness near the optimum, is never formed.  Q is kept
    explicitly and the multipliers' step is taken through it, so it meets
    the dual equations to rounding even where R is ill-conditioned.  The
    LP_PROX rows are a proximal term on the step: they keep it bounded when
    the rows leave a direction of the coefficients free, and they vanish as
    the steps do.

    Returns x once the primal residual |g x + s - h| / (1 + |h|), the dual
    residual |g^T z + e_t| / 2 and the relative gap s.z / (1 + |t|) are all
    at most LP_TOL (maximum norms); raises NumericalError with the three
    when the iteration cap is reached or a residual or the scaling is no
    longer finite.
    """
    n = a_ub.shape[1]
    g = np.vstack([a_ub, -np.eye(1, n, n - 1)])
    h = np.append(b_ub, 0.0)
    m = h.size

    def max_step(v, dv):
        # the longest step that keeps v + step * dv >= 0
        neg = dv < 0
        return float((-v[neg] / dv[neg]).min()) if neg.any() else np.inf

    x = np.zeros(n)
    x[-1] = 1.0 + np.abs(h).max()
    s = h - g @ x
    s[s <= 0] = 1.0  # only rows with no solution make a slack start at 1
    z = np.ones(m)
    # [sqrt(z / s) g; sqrt(LP_PROX) I], its scaled rows rewritten each step
    stack = np.empty((m + n, n))
    stack[m:] = math.sqrt(LP_PROX) * np.eye(n)
    for _ in range(LP_ITER_CAP):
        r_p = g @ x + s - h
        r_d = g.T @ z
        r_d[-1] += 1.0
        gap = float(s @ z)
        residuals = (float(np.abs(r_p).max()) / (1.0 + np.abs(h).max()),
                     float(np.abs(r_d).max()) / 2.0, gap / (1.0 + abs(x[-1])))
        if max(residuals) <= LP_TOL:
            return x
        if not np.isfinite(residuals).all():
            break
        root = np.sqrt(z / s)
        if not np.isfinite(root).all():
            break
        np.multiply(root[:, None], g, out=stack[:m])
        q = None  # the last step's Q goes before the new one is built
        q, r = np.linalg.qr(stack)
        q = q[:m]  # the proximal rows' part of y is never read
        a = np.linalg.solve(r.T, -r_d)

        def newton(r_c):
            # z ds + s dz = -r_c, g dx + ds = -r_p, g^T dz + LP_PROX dx = -r_d:
            # dz = root * y[:m] for y = [W; prox] dx + [w; 0], which has
            # R^T Q^T y = -r_d, so Q^T y = a and y = Q (a - Q^T w) + w
            w = (z * r_p - r_c) / np.sqrt(z * s)
            b = a - q.T @ w
            dx = np.linalg.solve(r, b)
            return dx, -r_p - g @ dx, root * (q @ b + w)

        dx, ds, dz = newton(s * z)
        ap, ad = min(1.0, max_step(s, ds)), min(1.0, max_step(z, dz))
        sigma = (float((s + ap * ds) @ (z + ad * dz)) / gap) ** 3
        dx, ds, dz = newton(s * z + ds * dz - sigma * gap / m)
        ap = min(1.0, STEP_FRACTION * max_step(s, ds))
        ad = min(1.0, STEP_FRACTION * max_step(z, dz))
        x = x + ap * dx
        s = s + ap * ds
        z = z + ad * dz
    raise NumericalError(
        f"minimax LP on {m} rows not solved in {LP_ITER_CAP} interior-point "
        f"iterations: primal residual {residuals[0]:.2e}, dual residual "
        f"{residuals[1]:.2e}, relative gap {residuals[2]:.2e} "
        f"(tolerance {LP_TOL:.0e})")
