"""Shared-displacement fit for a source pair that one subarray cannot resolve.

When two sources are much closer than a subarray's Rayleigh resolution,
every subarray sees them as one: their subarray steering vectors are
nearly parallel, the separation stage whitens the weak source down to the
noise, and the per-source phase offsets it returns are poor.  What the
two sources still share is the physics: both see the same unknown
subarray displacements.  This module fits that model directly,

    x_k = sum_l b(theta_l) s_l exp(j 2 pi xi_k sin(theta_l) / wavelength),

with xi_1 = 0 and xi_2..xi_K unknown (Pesavento, Gershman & Wong,
"Direction finding in partly calibrated sensor arrays composed of
multiple subarrays", IEEE TSP 2002).  The displacements are fitted, never
read from the geometry; the estimator uses only their span, i.e. the
extent of the site the subarrays are placed in.

The cost has many local minima in the displacements, so the fit starts
from a global search:

1. Each subarray snapshot is projected onto the common subarray steering
   vector, leaving y_k = s_1 exp(j phi_k) + s_2 exp(j (1 + q) phi_k): phi_k
   is the reference source's whole-aperture phase on subarray k and
   q = sin(theta_2) / sin(theta_1) - 1.
2. arg(y_k / y_1) gives phi_k modulo 2 pi (the stronger source dominates
   it) and the placement span bounds it, so only a few 2 pi branches are
   possible.  For each q on a grid, the branch of every subarray is
   picked from the moduli |y_k|^2 = A + Re(c exp(j q phi_k)) by alternating
   the branch choice with a linear least-squares fit of (A, c, q).
3. A constant-modulus separation of the two source rows (ACMA, van der
   Veen & Paulraj, IEEE TSP 1996), exact without noise, gives further
   starts: q is read off the phase vernier of the two rows.
4. Every start is polished briefly on the full model, all starts as one
   stack (``_Fit.polish_starts``); the lowest cost wins.
5. Step 2 is repeated on a grid twice as fine around the winner, started
   from its amplitudes, with each branch phase corrected for the pull of
   the weaker source on arg(y_k); the new starts are polished as in 4,
   and the overall winner is polished to convergence by
   :func:`levenberg_marquardt`.

:func:`pcdoa.estimators.bss_nls` states when this fit applies and how
both of its stages are solved.

The model of L sources takes K + 3L - 1 reals (u, rho_2..rho_L,
psi_2..psi_K, Re s, Im s), decoded by ``_Fit.unpack`` alone: the
reference sine u, the ratios rho_l of the other sines to it and the
reference phases psi_k = kappa xi_k u (kappa = 2 pi / wavelength).  A
common scaling of the displacements and the sines leaves every
whole-aperture phase unchanged, so only u moves along that valley, which
keeps the least-squares problem well conditioned.  Only the search
(steps 1-5) and :func:`unresolved_pair` take two sources, rho = 1 + q.
"""

from __future__ import annotations

import numpy as np

from .array_model import _whole
from .errors import InvalidParameterError

# Sine grid of the second source: this many steps on each side of the
# reference, over a tenth of the subarray's Rayleigh resolution (the same
# span `unresolved_pair` accepts).
_SEARCH_STEPS = 240
_SEARCH_FRACTION = 0.1
# Initial phases of c around the value implied by subarray 1, in degrees.
_PHASE_OFFSETS_DEG = (0.0, -15.0, 15.0)
_ALTERNATIONS = 3
# Local minima over the ratio that start a polish, from the first search
# and from the search repeated around its winner.
_STARTS_FIRST = 16
_STARTS_REFINED = 6
# The repeated search covers this many half grid steps on each side.
_LOCAL_STEPS = 40
_START_ITERATIONS = 3
_VERNIER_STEPS = 300
# Levenberg-Marquardt damping: its value at the start of a run, its floor
# after accepted steps, and the tries, each with ten times the damping,
# to lower the cost in one iteration.
_DAMPING_START = 1e-3
_DAMPING_FLOOR = 1e-12
_DAMPING_TRIES = 30
# A branch may lie this far outside the phase span the placement allows.
_BRANCH_MARGIN = np.pi


def _search_halfwidth(geometry):
    """Sine span searched for the second source on each side of the first."""
    eta = geometry.intra_displacements
    return _SEARCH_FRACTION * geometry.wavelength / float(eta.max() - eta.min())


def unresolved_pair(geometry, theta_rad):
    """True when :func:`pcdoa.estimators.bss_nls` fits the radian
    directions ``theta_rad`` with this module; its docstring states the
    rule, which admits two sources only."""
    # Four subarrays are the fewest that determine the projected model's
    # pair, its amplitudes and one phase per subarray.
    if theta_rad.size != 2 or geometry.subarray_count < 4:
        return False
    u = np.sin(theta_rad)
    return bool(abs(u[1] - u[0]) < _search_halfwidth(geometry) and u.mean() != 0.0)


def shared_displacement_fit(x, geometry, theta_rad, max_iterations):
    """Fit two directions sharing unknown subarray displacements.

    Returns ``(theta_rad, amplitudes, cost_history, iterations,
    stop_reason)``; the directions are ordered to match ``theta_rad`` as
    closely as possible, and ``cost_history`` and ``stop_reason`` belong to
    the final Levenberg-Marquardt run.
    """
    fit = _Fit(x, geometry, theta_rad)
    starts = fit.modulus_starts(fit.initial_moduli(), fit.q_grid, _STARTS_FIRST, pull=False)
    best = fit.best_of(starts + fit.vernier_starts())
    moduli, grid = fit.around(best[0])
    best = fit.best_of(fit.modulus_starts(moduli, grid, _STARTS_REFINED, pull=True), best)
    params, history, iterations, reason = fit.polish(best[0], max_iterations)
    sines, _, _, amplitudes = (part[0] for part in fit.unpack(params[None]))
    theta = np.arcsin(sines)
    if abs(theta[0] - theta_rad[0]) + abs(theta[1] - theta_rad[1]) > abs(
        theta[1] - theta_rad[0]
    ) + abs(theta[0] - theta_rad[1]):
        theta, amplitudes = theta[::-1], amplitudes[::-1]
    return theta, amplitudes, history, int(best[2] + iterations), reason


class _Fit:
    """Two-source search state for one measurement matrix."""

    def __init__(self, x, geometry, theta_rad):
        self.x = x
        self.M, self.K = x.shape
        self.eta = geometry.intra_displacements
        self.kappa = 2.0 * np.pi / geometry.wavelength
        u0 = np.sin(theta_rad)
        self.u_ref = float(u0.mean())
        beam = np.exp(1j * self.kappa * self.eta * self.u_ref)
        self.y = beam.conj() @ x / self.M
        self.power = np.abs(self.y) ** 2
        # Reference phases modulo 2 pi, and the branches the span allows.
        self.phase = np.angle(self.y * np.conj(self.y[0]))
        xi = geometry.inter_displacements
        ends = self.kappa * np.outer([u0.min(), u0.max()], [xi.min(), xi.max()])
        self.span = (ends.min() - _BRANCH_MARGIN, ends.max() + _BRANCH_MARGIN)
        self.branch = np.arange(
            np.floor(self.span[0] / (2 * np.pi)), np.ceil(self.span[1] / (2 * np.pi)) + 1
        )
        self.penalty = self._penalty(self.phase[:, None] + 2 * np.pi * self.branch[None, :])
        self.width = _search_halfwidth(geometry)
        self.q_step = self.width / _SEARCH_STEPS / abs(self.u_ref)
        self.q_grid = np.arange(1, _SEARCH_STEPS + 1) * self.q_step

    def _penalty(self, branches):
        """0 for the K x N branch phases the placement span allows, inf for
        the rest; subarray 1 keeps only the phase nearest 0."""
        allowed = (branches >= self.span[0]) & (branches <= self.span[1])
        allowed[0] = False
        allowed[0, np.argmin(np.abs(branches[0]))] = True
        return np.where(allowed, 0.0, np.inf)

    # --- starting points -------------------------------------------------

    def initial_moduli(self):
        """(A, c) guesses of a pair from the spread of |y_k|^2 and subarray 1."""
        mean = self.power.mean()
        swing = 0.5 * (self.power.max() - self.power.min())
        gamma = np.arccos(np.clip((self.power[0] - mean) / max(swing, 1e-300), -1.0, 1.0))
        offsets = np.radians(_PHASE_OFFSETS_DEG)
        phases = np.concatenate([np.array([gamma, -gamma]) + o for o in offsets])
        return np.full(phases.size, mean), swing * np.exp(1j * phases)

    def around(self, params):
        """Moduli (A, c), with c also mirrored, and the grid of ratios q
        near a fitted two-source vector, all as seen after the projection."""
        u, _, _, s = (part[0] for part in self.unpack(params[None]))
        gains = np.exp(1j * self.kappa * np.outer(self.eta, u - self.u_ref)).sum(axis=0) / self.M
        s = s * gains
        strong = int(np.argmax(np.abs(s)))
        s1, s2 = s[strong], s[1 - strong]
        c = 2.0 * np.conj(s1) * s2
        a = abs(s1) ** 2 + abs(s2) ** 2
        q = u[1 - strong] / u[strong] - 1.0
        grid = q + 0.5 * self.q_step * np.arange(-_LOCAL_STEPS, _LOCAL_STEPS + 1)
        return (np.array([a, a]), np.array([c, np.conj(c)])), grid

    def modulus_starts(self, moduli, grid, count, pull):
        """Two-source starts from the branch search at every ratio of ``grid``
        and every (A, c) init: the ``count`` deepest local minima over q.

        With ``pull`` the branch phases are corrected, between choices,
        for the phase pull of the weaker source that the current (A, c, q)
        imply, and q keeps its sign.  Without it the moduli cannot tell q
        from -q, so each minimum starts in both mirror images, with the
        pull taken out of the branch phases only at the end.
        """
        a0, c0 = moduli
        shape = (grid.size, a0.size)
        a = np.broadcast_to(a0, shape).copy()
        c = np.broadcast_to(c0, shape).copy()
        q = np.broadcast_to(grid[:, None], shape).copy()
        step_limit = 0.5 * (grid[1] - grid[0])
        base = np.broadcast_to(self.phase, shape + (self.K,))
        for step in range(_ALTERNATIONS):
            rot = np.exp(1j * q[..., None] * base) * c[..., None]
            wrap = np.exp(2j * np.pi * q[..., None] * self.branch)
            model = a[..., None, None] + (rot[..., :, None] * wrap[..., None, :]).real
            choice = ((self.power[:, None] - model) ** 2 + self.penalty).argmin(axis=-1)
            phi = base + 2 * np.pi * self.branch[choice]
            e = np.exp(1j * q[..., None] * phi)
            columns = [np.ones_like(phi), e.real, -e.imag]
            if step:
                columns.append(-(c[..., None] * e).imag * phi)
            design = np.stack(columns, axis=-1)
            resid = self.power - a[..., None] - (c[..., None] * e).real
            normal = np.einsum("...ka,...kb->...ab", design, design)
            rhs = np.einsum("...ka,...k->...a", design, resid)
            delta = np.linalg.solve(normal + 1e-9 * np.eye(len(columns)), rhs[..., None])[..., 0]
            a = a + delta[..., 0]
            c = c + delta[..., 1] + 1j * delta[..., 2]
            if step:
                q = q + np.clip(delta[..., 3], -step_limit, step_limit)
            if pull:
                base = self.phase - _pull(a, c, q, phi)
        e = np.exp(1j * q[..., None] * phi)
        cost = ((self.power - a[..., None] - (c[..., None] * e).real) ** 2).sum(axis=-1)
        best_init = cost.argmin(axis=1)
        profile = cost[np.arange(cost.shape[0]), best_init]
        lower_left = np.r_[True, profile[1:] <= profile[:-1]]
        lower_right = np.r_[profile[:-1] <= profile[1:], True]
        minima = np.flatnonzero(lower_left & lower_right)
        minima = minima[np.argsort(profile[minima], kind="stable")][:count]
        starts = []
        for r in minima:
            i = best_init[r]
            if pull:
                starts.append((q[r, i], phi[r, i]))
                continue
            for sign in (1.0, -1.0):
                mirrored = c[r, i] if sign > 0 else np.conj(c[r, i])
                phi_r = phi[r, i] - _pull(a[r, i], mirrored, sign * q[r, i], phi[r, i])
                starts.append((sign * q[r, i], phi_r))
        return starts

    def vernier_starts(self):
        """Two-source starts from the constant-modulus rows and their phase vernier."""
        # Five unknowns define the constant-modulus constraints; their
        # two-dimensional solution space needs at least six subarrays.
        if self.K < 6:
            return []
        rows = _constant_modulus_rows(self.x)
        q = np.arange(-_VERNIER_STEPS, _VERNIER_STEPS + 1) * (
            self.width / _VERNIER_STEPS / abs(self.u_ref)
        )
        starts = []
        for ref, other in ((0, 1), (1, 0)):
            phase = np.angle(rows[ref] * np.conj(rows[ref][0]))
            beat = np.angle(rows[other] * np.conj(rows[other][0])) - phase
            phi = phase[:, None] + 2 * np.pi * self.branch[None, :]
            penalty = self._penalty(phi)
            mismatch = _wrap(q[:, None, None] * phi - beat[:, None]) ** 2 + penalty
            best_q = q[int(mismatch.min(axis=-1).sum(axis=-1).argmin())]
            # Refine q off the grid; the branch choice sharpens with it.
            for _ in range(3):
                wrapped = _wrap(best_q * phi - beat[:, None])
                chosen = np.argmin(wrapped**2 + penalty, axis=-1)
                phi_k = phi[np.arange(self.K), chosen]
                best_q -= np.dot(phi_k, wrapped[np.arange(self.K), chosen]) / np.dot(phi_k, phi_k)
            starts.append((best_q, phi_k))
        return starts

    # --- polishing ---------------------------------------------------------

    def best_of(self, starts, best=None):
        """Polish all (q, phi) starts briefly; keep (params, cost, iterations)
        of the lowest cost, or ``best`` when none is lower."""
        params, costs, iterations = self.polish_starts(starts)
        i = int(np.argmin(costs))
        if best is None or costs[i] < best[1]:
            best = (params[i], costs[i], iterations[i])
        return best

    def unpack(self, params):
        """Sines (S, L), sine ratios (S, L), reference phases (S, K) with
        psi_1 = 0 and amplitudes (S, L) of a stack of S parameter vectors;
        L is read from their length K + 3L - 1."""
        L = (params.shape[1] - self.K + 1) // 3
        ratios, psi = params[:, :L].copy(), params[:, L - 1 : L - 1 + self.K].copy()
        ratios[:, 0], psi[:, 0] = 1.0, 0.0  # rho_1 = 1 and psi_1 = 0
        s = params[:, -2 * L : -L] + 1j * params[:, -L:]
        return params[:, :1] * ratios, ratios, psi, s

    def inside(self, params):
        """Every sine of a stack of parameter vectors strictly inside (-1, 1)."""
        return (np.abs(self.unpack(params)[0]) < 1).all(axis=1)

    def _model(self, params):
        """Basis (S, M, K, L) of a stack of S parameter vectors, and their
        :meth:`unpack`."""
        sines, ratios, psi, s = parts = self.unpack(params)
        sub = np.exp(1j * self.kappa * self.eta[:, None] * sines[:, None, :])
        whole = np.exp(1j * psi[:, :, None] * ratios[:, None, :])
        return sub[:, :, None, :] * whole[:, None, :, :], parts

    def _costs(self, params):
        basis, (_, _, _, s) = self._model(params)
        model = np.einsum("smkl,sl->smk", basis, s)
        return np.sum(np.abs(self.x - model) ** 2, axis=(1, 2))

    def _jacobian(self, params):
        """Residuals (x - model), flattened, and the model Jacobians."""
        K = self.K
        basis, (sines, ratios, psi, s) = self._model(params)
        L = s.shape[1]
        weighted = basis * s[:, None, None, :]
        jac = np.zeros(weighted.shape[:3] + params.shape[1:], dtype=complex)
        wavenumbers = 1j * self.kappa * self.eta[:, None, None] * ratios[:, None, None, :]
        jac[..., 0] = (weighted * wavenumbers).sum(axis=-1)
        jac[..., 1:L] = weighted[..., 1:] * 1j * (
            self.kappa * self.eta[:, None] * sines[:, None, None, 0] + psi[:, None, :]
        )[..., None]
        phase_term = (weighted * (1j * ratios[:, None, None, :])).sum(axis=-1)
        k = np.arange(1, K)
        jac[:, :, k, k + L - 1] = phase_term[:, :, 1:]
        jac[..., -2 * L : -L] = basis
        jac[..., -L:] = 1j * basis
        residual = self.x - weighted.sum(axis=-1)
        count = len(params)
        return residual.reshape(count, -1), jac.reshape(count, self.M * K, -1)

    def polish(self, params, max_iterations):
        """:func:`levenberg_marquardt` on the full model for one parameter
        vector."""
        return levenberg_marquardt(
            params,
            lambda p: tuple(part[0] for part in self._jacobian(p[None])),
            lambda p: self._costs(p[None])[0],
            lambda p: bool(self.inside(p[None])[0]),
            max_iterations,
        )

    def polish_starts(self, starts):
        """The S (q, phi) starts as two-source parameter vectors with
        least-squares amplitudes, each run through ``_START_ITERATIONS``
        Levenberg-Marquardt iterations with its own damping; returns
        (params, costs, iterations), one row per start.

        Per vector the arithmetic is that of :func:`levenberg_marquardt`,
        so every start ends bit for bit as it would polished alone;
        stacking them lets one model and Jacobian evaluation serve all S.
        A start stops early only when no damping lowers its cost.
        """
        params = np.array(
            [np.concatenate(([self.u_ref, 1.0 + q], phi[1:], np.zeros(4))) for q, phi in starts]
        )
        K = self.K
        # The pseudo-inverse also covers starts whose two sines coincide.
        basis = self._model(params)[0].reshape(len(params), self.M * K, 2)
        s = (np.linalg.pinv(basis) @ self.x.reshape(-1, 1))[..., 0]
        params[:, K + 1 : K + 3], params[:, K + 3 : K + 5] = s.real, s.imag
        count, size = params.shape
        costs = self._costs(params)
        damping = np.full(count, _DAMPING_START)
        iterations = np.zeros(count, dtype=int)
        active = np.ones(count, dtype=bool)
        identity = np.eye(size)
        for _ in range(_START_ITERATIONS):
            live = np.flatnonzero(active)
            if live.size == 0:
                break
            iterations[live] += 1
            normal, gradient, scale = _normal_equations(*self._jacobian(params[live]))
            pending = np.arange(live.size)
            for _ in range(_DAMPING_TRIES):
                if pending.size == 0:
                    break
                rows = live[pending]
                system = normal[pending] + damping[rows, None, None] * (
                    scale[pending, :, None] * identity
                )
                try:
                    trial = params[rows] + np.linalg.solve(system, gradient[pending])[..., 0]
                except np.linalg.LinAlgError:
                    damping[rows] *= 10.0
                    continue
                valid = self.inside(trial)
                trial_costs = np.full(rows.size, np.inf)
                if valid.any():
                    trial_costs[valid] = self._costs(trial[valid])
                better = trial_costs < costs[rows]
                won = rows[better]
                params[won], costs[won] = trial[better], trial_costs[better]
                damping[won] = np.maximum(damping[won] / 10.0, _DAMPING_FLOOR)
                damping[rows[~better]] *= 10.0
                pending = pending[~better]
            active[live[pending]] = False
        return params, costs, iterations


def _normal_equations(residual, jac):
    """Re(J^H J), Re(J^H r) as a column and the damping scale, the
    diagonal of Re(J^H J) with zeros set to 1, for one residual r and
    Jacobian J or for a stack of them."""
    adjoint = np.conj(np.swapaxes(jac, -1, -2))
    normal = (adjoint @ jac).real
    gradient = (adjoint @ residual[..., None]).real
    scale = np.diagonal(normal, axis1=-2, axis2=-1).copy()
    scale[scale == 0] = 1.0
    return normal, gradient, scale


def _iteration_cap(value):
    """``value`` as a whole number of iterations, 0 or more;
    InvalidParameterError otherwise."""
    cap = _whole(value, "max_iterations")
    if cap < 0:
        raise InvalidParameterError(f"max_iterations must be nonnegative, got {value!r}")
    return cap


def levenberg_marquardt(params, residual_jacobian, cost, inside, max_iterations, tolerance=1e-10):
    """Levenberg-Marquardt for one real parameter vector.

    ``residual_jacobian(params)`` returns the residual x - model, flattened,
    and the model's Jacobian; ``cost(params)`` returns the squared
    residual; ``inside(params)`` is False where the vector leaves the
    model's domain.  Each iteration solves the normal equations damped on
    their diagonal, retrying up to ``_DAMPING_TRIES`` times with ten times
    the damping until the cost falls strictly; an accepted step divides
    the damping by ten, down to ``_DAMPING_FLOOR``.  Returns (params,
    accepted-cost history, iterations, stop reason): ``"converged"`` when
    the relative cost decrease falls to ``tolerance``, ``"stalled"`` when
    no damping finds a lower cost, and ``"iteration_cap"`` after
    ``max_iterations``, a whole number 0 or more.  An exact fit can end
    ``"stalled"``: at a rounding-level cost no step lowers it further (a
    noiseless close pair ends at 7.3e-28).
    """
    max_iterations = _iteration_cap(max_iterations)
    params = np.array(params, dtype=float)
    cost_now = cost(params)
    history = [cost_now]
    damping = _DAMPING_START
    identity = np.eye(params.size)
    for iteration in range(1, max_iterations + 1):
        normal, gradient, scale = _normal_equations(*residual_jacobian(params))
        for _ in range(_DAMPING_TRIES):
            try:
                step = np.linalg.solve(normal + damping * (scale[:, None] * identity), gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = params + step[:, 0]
            trial_cost = cost(trial) if inside(trial) else np.inf
            if trial_cost < cost_now:
                break
            damping *= 10.0
        else:
            return params, history, iteration, "stalled"
        previous, params, cost_now = cost_now, trial, trial_cost
        history.append(cost_now)
        damping = max(damping / 10.0, _DAMPING_FLOOR)
        if previous - cost_now <= tolerance * previous:
            return params, history, iteration, "converged"
    return params, history, max_iterations, "iteration_cap"


def _pull(a, c, q, phi):
    """Phase that the weaker source adds to y_k on top of the reference
    phase phi_k, relative to subarray 1, for moduli A + Re(c exp(j q phi))."""
    strong_sq = 0.5 * (a + np.sqrt(np.maximum(a * a - np.abs(c) ** 2, 0.0)))
    ratio = c / (2.0 * np.maximum(strong_sq, 1e-300))
    beat = np.exp(1j * np.asarray(q)[..., None] * phi)
    pull = np.angle(1.0 + np.asarray(ratio)[..., None] * beat)
    return pull - pull[..., :1]


def _wrap(angle):
    """Angles wrapped into [-pi, pi)."""
    return np.remainder(angle + np.pi, 2 * np.pi) - np.pi


def _constant_modulus_rows(x):
    """The two constant-modulus rows in the dominant 2-D row space of x.

    Solves |t^H y_k|^2 = const over the subarrays for Hermitian t t^H: the
    constraints are linear in the entries of t t^H, whose solution space
    is spanned by the two sources' rank-1 matrices; the rank-1 members of
    that pencil are the roots of a quadratic.
    """
    left = np.linalg.svd(x, full_matrices=False)[0][:, :2]
    y = left.conj().T @ x
    cross = np.conj(y[0]) * y[1]
    power = np.abs(y) ** 2
    system = np.stack(
        [power[0], power[1], 2 * cross.real, -2 * cross.imag, -np.ones(x.shape[1])], axis=1
    )
    null = np.linalg.svd(system)[2][-2:]
    pencil = [np.array([[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]]) for v in null]

    def det(m):
        return float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)

    d0, d_plus, d_minus = det(pencil[0]), det(pencil[0] + pencil[1]), det(pencil[0] - pencil[1])
    roots = np.roots([0.5 * (d_plus + d_minus) - d0, 0.5 * (d_plus - d_minus), d0])
    rows = []
    for root in roots[:2]:
        values, vectors = np.linalg.eigh(pencil[0] + root.real * pencil[1])
        rows.append(vectors[:, np.argmax(np.abs(values))].conj() @ y)
    while len(rows) < 2:
        rows.append(y[len(rows)])
    return rows
