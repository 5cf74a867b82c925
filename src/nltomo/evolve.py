"""Time evolution in Kerr and cubic media with zero-temperature damping.

The Hamiltonians considered here are diagonal in the Fock basis,
H = chi * f(N) with f(n) = n(n-1) for a Kerr medium and
f(n) = n(n-1)(n-2) for a cubic one.  The zero-temperature master
equation

    drho/dt = -i [H, rho] + gamma (a rho a^dag - {a^dag a, rho} / 2)

therefore never mixes coherence diagonals: writing x_j = rho_{j+d, j}
for fixed d = n - m >= 0 gives an independent upper-bidiagonal system

    dx_j/dt = a_j x_j + b_j x_{j+1},
    a_j = -i chi [f(j+d) - f(j)] - gamma (2j + d) / 2,
    b_j = gamma sqrt((j+d+1)(j+1)).

For the Kerr medium the a_j are equally spaced in j, which collapses
the solution into a closed binomial cascade handled analytically; for
the cubic medium each diagonal block is exponentiated numerically.
Phase damping (dephasing) multiplies each element by
exp(-gamma (n-m)^2 t / 2) and commutes with the unitary part.

A dense superoperator integrator (:func:`integrate_master`) built from
the operator-form generator is kept as an independent cross-check; it
shares no code with the closed-form propagators.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .errors import NumericalInvariantError, ValidationError
from .states import DensityMatrix

__all__ = [
    "MediumKind",
    "MediumSpec",
    "DampingChannel",
    "DampingSpec",
    "TimeGrid",
    "revival_time",
    "propagate_unitary",
    "propagate_phase_damping",
    "propagate_amplitude_damping_closed",
    "coherence_block_solve",
    "amplitude_exact_states",
    "lindblad_rhs",
    "integrate_master",
]


class MediumKind(enum.Enum):
    KERR = "kerr"
    CUBIC = "cubic"


@dataclass(frozen=True)
class MediumSpec:
    """Nonlinear medium: kind plus coupling strength chi (hbar = 1)."""

    kind: MediumKind
    chi: float = 5.0

    def __post_init__(self):
        if not isinstance(self.kind, MediumKind):
            raise ValidationError(f"kind must be a MediumKind, got {self.kind!r}")
        chi = float(self.chi)
        if not (math.isfinite(chi) and chi > 0):
            raise ValidationError(f"chi must be finite and > 0, got {self.chi!r}")
        object.__setattr__(self, "chi", chi)

    def phase_exponents(self, dim: int) -> np.ndarray:
        """f(n) for n = 0..dim-1, so that H = chi * diag(f)."""
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        n = np.arange(dim, dtype=np.float64)
        if self.kind is MediumKind.KERR:
            return n * (n - 1.0)
        return n * (n - 1.0) * (n - 2.0)


class DampingChannel(enum.Enum):
    NONE = "none"
    AMPLITUDE = "amplitude"
    PHASE = "phase"


@dataclass(frozen=True)
class DampingSpec:
    """Damping channel and rate.  gamma == 0 if and only if channel is NONE."""

    channel: DampingChannel
    gamma: float = 0.0

    def __post_init__(self):
        if not isinstance(self.channel, DampingChannel):
            raise ValidationError(
                f"channel must be a DampingChannel, got {self.channel!r}"
            )
        gamma = float(self.gamma)
        if not (math.isfinite(gamma) and gamma >= 0):
            raise ValidationError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if (gamma == 0.0) != (self.channel is DampingChannel.NONE):
            raise ValidationError(
                "gamma == 0 requires channel 'none' and vice versa; "
                f"got channel={self.channel.value}, gamma={gamma}"
            )
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform, inclusive time grid from t_start to t_end."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        t0, t1 = float(self.t_start), float(self.t_end)
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValidationError("time bounds must be finite")
        if t0 < 0 or t1 <= t0:
            raise ValidationError(
                f"need 0 <= t_start < t_end, got t_start={t0}, t_end={t1}"
            )
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 2:
            raise ValidationError(f"steps must be an integer >= 2, got {self.steps!r}")
        object.__setattr__(self, "t_start", t0)
        object.__setattr__(self, "t_end", t1)
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.steps - 1)


def revival_time(medium: MediumSpec) -> float:
    """Full revival period T = pi / chi.

    f(n) = n(n-1) is even, so the Kerr phases chi*f(n)*T are all
    multiples of 2*pi at T = pi/chi.  The cubic f(n) = n(n-1)(n-2) is a
    multiple of 6, so the cubic medium in fact revives already at T/3;
    T is kept as the common reference period for both media.
    """
    return math.pi / medium.chi


def _validate_time(t: float, allow_negative: bool = False) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t!r}")
    if t < 0 and not allow_negative:
        raise ValidationError(f"time must be >= 0, got {t}")
    return t


def _validate_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma!r}")
    return gamma


def propagate_unitary(rho0: DensityMatrix, medium: MediumSpec, t: float) -> DensityMatrix:
    """Closed-system evolution: rho_nm(t) = e^{-i chi [f(n)-f(m)] t} rho_nm(0)."""
    t = _validate_time(t, allow_negative=True)
    phi = medium.phase_exponents(rho0.dim)
    delta = phi[:, None] - phi[None, :]
    return DensityMatrix(rho0.dim, rho0.elements * np.exp(-1j * medium.chi * delta * t))


def propagate_phase_damping(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, t: float
) -> DensityMatrix:
    """Dephasing channel combined with the unitary part.

    Both act elementwise on rho_nm, the dephasing factor being
    exp(-gamma (n-m)^2 t / 2).  The populations are untouched, so the
    photon statistics are frozen while coherences decay.
    """
    t = _validate_time(t)
    gamma = _validate_gamma(gamma)
    phi = medium.phase_exponents(rho0.dim)
    n = np.arange(rho0.dim, dtype=np.float64)
    delta_phi = phi[:, None] - phi[None, :]
    delta_n = n[:, None] - n[None, :]
    factor = np.exp(-1j * medium.chi * delta_phi * t - 0.5 * gamma * delta_n**2 * t)
    return DensityMatrix(rho0.dim, rho0.elements * factor)


# --- amplitude-damping cascade machinery -----------------------------------

_block_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _cascade_block(dim: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-diagonal coupling data, cached.

    Returns (B, K) of shape (J, J) with J = dim - d, where
    B[j, j+k] = sqrt(C(j+d+k, k) C(j+k, k)) is the binomial amplitude
    coupling x_j(t) to x_{j+k}(0) and K[r, c] = c - r is the offset map
    used to look up per-offset weights.  Entries below the diagonal of B
    are zero.
    """
    key = (dim, d)
    cached = _block_cache.get(key)
    if cached is not None:
        return cached
    J = dim - d
    row = np.arange(J, dtype=np.int64)[:, None]
    col = np.arange(J, dtype=np.int64)[None, :]
    K = col - row
    with np.errstate(invalid="ignore"):
        log_b = 0.5 * (
            gammaln(col + d + 1.0)
            - gammaln(row + d + 1.0)
            + gammaln(col + 1.0)
            - gammaln(row + 1.0)
        ) - gammaln(np.maximum(K, 0) + 1.0)
    B = np.where(K >= 0, np.exp(log_b), 0.0)
    B.setflags(write=False)
    K = np.ascontiguousarray(K)
    K.setflags(write=False)
    _block_cache[key] = (B, K)
    return B, K


def _amplitude_cascade(
    rho_mat: np.ndarray,
    phi: np.ndarray,
    chi: float,
    gamma: float,
    t: float,
    weights_for_d,
) -> np.ndarray:
    """Apply the per-diagonal binomial cascade with given offset weights.

    ``weights_for_d(d, J)`` must return the length-J vector pw with
    pw[k] multiplying the coupling from x_{j+k}(0) into x_j(t).
    """
    dim = rho_mat.shape[0]
    out = np.empty_like(rho_mat)
    for d in range(dim):
        J = dim - d
        x0 = np.array(np.diagonal(rho_mat, offset=-d))  # x_j = rho_{j+d, j}
        B, K = _cascade_block(dim, d)
        pw = np.asarray(weights_for_d(d, J))
        M = B * pw[np.clip(K, 0, J - 1)]
        y = M @ x0
        j = np.arange(J)
        dphi = phi[j + d] - phi[j]
        y *= np.exp((-1j * chi * dphi - 0.5 * gamma * (2 * j + d)) * t)
        if d == 0:
            # the populations of a hermitian input are real; discard
            # the accumulated roundoff in the imaginary part
            np.fill_diagonal(out, y.real)
        else:
            out[j + d, j] = y
            out[j, j + d] = np.conj(y)
    return out


def propagate_amplitude_damping_closed(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, t: float
) -> DensityMatrix:
    """Resummed binomial-cascade propagator for amplitude damping.

    rho_nm(t) = e^{-i chi [f(n)-f(m)] t} e^{-gamma (n+m) t / 2}
                * sum_k sqrt(C(n+k,k) C(m+k,k)) w^k rho_{n+k, m+k}(0),
    with w = 1 - e^{-gamma t}.

    The weight w is exact for the populations (d = 0) in any medium and
    for every diagonal when chi = 0; with chi > 0 the off-diagonal
    weights acquire a d-dependent phase that this form ignores, which is
    why :func:`coherence_block_solve` exists.  Trace is preserved by
    construction.
    """
    t = _validate_time(t)
    gamma = _validate_gamma(gamma)
    w = -np.expm1(-gamma * t)
    phi = medium.phase_exponents(rho0.dim)

    def weights(d: int, J: int) -> np.ndarray:
        return w ** np.arange(J)

    mat = _amplitude_cascade(rho0.elements, phi, medium.chi, gamma, t, weights)
    return DensityMatrix(rho0.dim, mat)


def _kerr_offset_weights(chi: float, gamma: float, t: float, d: int, J: int) -> np.ndarray:
    """Exact per-offset weights for the Kerr cascade.

    With equally spaced block eigenvalues (spacing delta_d = -(gamma +
    2i chi d)) the divided differences of e^{a t} telescope into powers
    of a single complex weight w_d = gamma (e^{delta_d t} - 1) / delta_d.
    For d = 0 this reduces to the real 1 - e^{-gamma t}.
    """
    delta = -(gamma + 2j * chi * d)
    z = delta * t
    if abs(z) < 1e-8:
        # cancellation-safe small-step limit of (e^z - 1)/delta
        w = gamma * t * (1.0 + z / 2.0 + z * z / 6.0)
    else:
        w = gamma * (np.exp(z) - 1.0) / delta
    return w ** np.arange(J)


def _cascade_generator(dim: int, d: int, phi: np.ndarray, chi: float, gamma: float) -> np.ndarray:
    """Upper-bidiagonal generator A_d of the coherence block x_j = rho_{j+d, j}."""
    J = dim - d
    j = np.arange(J, dtype=np.float64)
    a = -1j * chi * (phi[np.arange(J) + d] - phi[np.arange(J)]) - 0.5 * gamma * (2 * j + d)
    A = np.diag(a.astype(np.complex128))
    if J > 1:
        b = gamma * np.sqrt((j[:-1] + d + 1.0) * (j[:-1] + 1.0))
        A += np.diag(b.astype(np.complex128), 1)
    return A


def _populations(diag0: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """Closed-form population (d = 0) block at time t, valid in any medium."""
    dim = diag0.size
    n = np.arange(dim)
    w0 = (-np.expm1(-gamma * t)) ** n
    B, K = _cascade_block(dim, 0)
    y0 = (B * w0[np.clip(K, 0, dim - 1)]) @ diag0
    return y0 * np.exp(-gamma * n * t)


def coherence_block_solve(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, t: float
) -> DensityMatrix:
    """Exact amplitude-damping propagation, block by coherence order.

    Kerr blocks are solved in closed form (the block eigenvalues are
    equally spaced, so the propagator is the binomial cascade with a
    complex d-dependent weight); cubic blocks with d >= 1 go through a
    dense matrix exponential of the bidiagonal generator.  The d = 0
    (population) block always uses the closed form, which keeps the
    trace preserved to round-off regardless of the medium.
    """
    t = _validate_time(t)
    gamma = _validate_gamma(gamma)
    if gamma == 0.0 or t == 0.0:
        return propagate_unitary(rho0, medium, t)
    dim = rho0.dim
    phi = medium.phase_exponents(dim)
    chi = medium.chi

    if medium.kind is MediumKind.KERR:
        def weights(d: int, J: int) -> np.ndarray:
            return _kerr_offset_weights(chi, gamma, t, d, J)

        mat = _amplitude_cascade(rho0.elements, phi, chi, gamma, t, weights)
        return DensityMatrix(dim, mat)

    # cubic: per-diagonal matrix exponentials
    out = np.empty_like(rho0.elements)
    np.fill_diagonal(out, _populations(np.real(np.diagonal(rho0.elements)), gamma, t))
    for d in range(1, dim):
        J = dim - d
        x0 = np.array(np.diagonal(rho0.elements, offset=-d))
        A = _cascade_generator(dim, d, phi, chi, gamma)
        y = expm(A * t) @ x0
        j = np.arange(J)
        out[j + d, j] = y
        out[j, j + d] = np.conj(y)
    return DensityMatrix(dim, out)


def amplitude_exact_states(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, times: np.ndarray
) -> Iterator[DensityMatrix]:
    """Exact amplitude-damped states at each requested time, in order.

    ``times`` and ``gamma`` are validated on the call; the states are
    then produced lazily, one per time, and none is kept once yielded.
    For a uniform grid of cubic-medium times the per-diagonal step
    propagators expm(A_d * dt) are formed once and iterated, which is
    both much cheaper and numerically tamer than exponentiating A_d * t
    at large t; the population block is still advanced in closed form at
    every output time.  Kerr and non-uniform cubic requests fall back to
    the per-time exact solver.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty 1-D array")
    if np.any(times < 0) or not np.all(np.isfinite(times)):
        raise ValidationError("times must be finite and >= 0")
    return _exact_states(rho0, medium, _validate_gamma(gamma), times)


def _exact_states(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, times: np.ndarray
) -> Iterator[DensityMatrix]:
    uniform = (
        times.size >= 3
        and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-12, atol=1e-15)
        and times[0] == 0.0
    )
    if medium.kind is not MediumKind.CUBIC or gamma == 0.0 or not uniform:
        for t in times:
            yield coherence_block_solve(rho0, medium, gamma, float(t))
        return

    dim = rho0.dim
    phi = medium.phase_exponents(dim)
    dt = float(times[1] - times[0])
    steppers = [
        expm(_cascade_generator(dim, d, phi, medium.chi, gamma) * dt)
        for d in range(1, dim)
    ]
    xs = [np.array(np.diagonal(rho0.elements, offset=-d)) for d in range(1, dim)]
    diag0 = np.real(np.diagonal(rho0.elements))
    for i, t in enumerate(times):
        if i > 0:
            xs = [P @ x for P, x in zip(steppers, xs)]
        mat = np.empty_like(rho0.elements)
        np.fill_diagonal(mat, _populations(diag0, gamma, t))
        for d in range(1, dim):
            j = np.arange(dim - d)
            mat[j + d, j] = xs[d - 1]
            mat[j, j + d] = np.conj(xs[d - 1])
        yield DensityMatrix(dim, mat)


# --- operator-form generator and reference integrator -----------------------


def _hamiltonian(dim: int, medium: MediumSpec) -> np.ndarray:
    return np.diag(medium.chi * medium.phase_exponents(dim)).astype(np.complex128)


def _jump_operators(dim: int, damping: DampingSpec) -> list[np.ndarray]:
    if damping.channel is DampingChannel.NONE:
        return []
    root = math.sqrt(damping.gamma)
    if damping.channel is DampingChannel.AMPLITUDE:
        a = np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), 1)
        return [root * a.astype(np.complex128)]
    number = np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)
    return [root * number]


def lindblad_rhs(
    rho: DensityMatrix | np.ndarray, medium: MediumSpec, damping: DampingSpec
) -> np.ndarray:
    """Operator-form right-hand side of the master equation.

    Written with explicit matrix products (commutator plus dissipators)
    rather than the diagonal shortcuts, precisely so it can serve as an
    independent check on the fast propagators.
    """
    mat = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho, np.complex128)
    dim = mat.shape[0]
    H = _hamiltonian(dim, medium)
    rhs = -1j * (H @ mat - mat @ H)
    for L in _jump_operators(dim, damping):
        Ld = L.conj().T
        LdL = Ld @ L
        rhs += L @ mat @ Ld - 0.5 * (LdL @ mat + mat @ LdL)
    return rhs


def _liouvillian_matrix(dim: int, medium: MediumSpec, damping: DampingSpec) -> np.ndarray:
    """Dense superoperator in the row-major vec convention.

    vec(A X B) = (A kron B^T) vec(X) for C-ordered flattening.
    """
    H = _hamiltonian(dim, medium)
    eye = np.eye(dim, dtype=np.complex128)
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in _jump_operators(dim, damping):
        LdL = L.conj().T @ L
        S += np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))
    return S


_INTEGRATE_DIM_CAP = 40


def _auto_substeps(dim: int, medium: MediumSpec, damping: DampingSpec, t: float) -> int:
    """Step count from the stiffest generator eigenvalue.

    The local truncation error of a fourth-order step of size h on a
    mode with rate lambda is ~ (h |lambda|)^5 / 120 per step, i.e.
    ~ t |lambda|^5 h^4 / 120 accumulated; h is chosen to push that below
    3e-11 while staying inside the stability region on the imaginary
    axis (|h lambda| <= 1.5).
    """
    phi = medium.phase_exponents(dim)
    rate = medium.chi * float(phi[-1] - phi[0])
    if damping.channel is DampingChannel.AMPLITUDE:
        rate += damping.gamma * dim
    elif damping.channel is DampingChannel.PHASE:
        rate += 0.5 * damping.gamma * (dim - 1) ** 2
    rate = max(rate, 1e-12)
    h_stab = 1.5 / rate
    h_acc = (3e-11 * 120.0 / (max(t, 1e-300) * rate**5)) ** 0.25
    return max(4, int(math.ceil(t / min(h_stab, h_acc))))


def integrate_master(
    rho0: DensityMatrix,
    medium: MediumSpec,
    damping: DampingSpec,
    t: float,
    substeps: int | None = None,
) -> DensityMatrix:
    """Reference fixed-step RK4 integration of the full master equation.

    The generator is assembled as a dense superoperator, so this costs
    O(dim^6) per step batch and is capped at dim <= 40: it exists to
    cross-check the production propagators, not to replace them.  For a
    linear autonomous system the classical RK4 step equals the degree-4
    Taylor polynomial of exp(h L); the fixed-step iteration is applied
    through binary powering of that one-step matrix, which reproduces
    the sequential result to round-off.
    """
    t = _validate_time(t)
    if rho0.dim > _INTEGRATE_DIM_CAP:
        raise ValidationError(
            f"integrate_master is a dense O(dim^6) reference check; "
            f"dim={rho0.dim} exceeds the cap of {_INTEGRATE_DIM_CAP}"
        )
    if t == 0.0:
        return DensityMatrix(rho0.dim, rho0.elements.copy())
    if substeps is None:
        substeps = _auto_substeps(rho0.dim, medium, damping, t)
    if substeps < 1:
        raise ValidationError(f"substeps must be >= 1, got {substeps}")
    dim = rho0.dim
    L = _liouvillian_matrix(dim, medium, damping)
    h = t / substeps
    eye = np.eye(dim * dim, dtype=np.complex128)
    hL = h * L
    step = eye + hL @ (eye + hL @ (eye / 2.0 + hL @ (eye / 6.0 + hL / 24.0)))
    total = np.linalg.matrix_power(step, substeps)
    vec = total @ rho0.elements.reshape(-1)
    mat = vec.reshape(dim, dim)
    mat = 0.5 * (mat + mat.conj().T)
    drift = abs(float(np.trace(mat).real) - 1.0)
    if drift > 1e-10:
        raise NumericalInvariantError(
            f"reference integrator trace drift {drift:.3e} exceeds 1e-10; "
            "increase substeps"
        )
    return DensityMatrix(dim, mat)
