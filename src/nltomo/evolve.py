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

Wherever the a_j are equally spaced in j -- every Kerr block, and the
population block d = 0 in either medium -- the solution collapses into
a closed binomial cascade; the cubic blocks with d >= 1 are expanded in
the eigenvectors of A_d.  The cascade is a power series in one weight
per block, |w| <= 1 - e^{-gamma t}; each batch of times sums it only as
far as the terms left out stay below 2^-60 an entry, by a bound kept per
block from x_d(0), and forms its coefficients for those powers alone.
Either form is closed in t, so any time list is evaluated directly, with
no stepping; a cubic block whose eigenvectors are ill-conditioned takes
the matrix exponential :func:`expm`.
The cubic eigenbases are kept for the two most recent (medium, gamma, dim).
Both forms need e^{t a_j}, and a_j = r_{j+d} + conj(r_j) with
r_n = -i chi f(n) - gamma n / 2, so one table e^{t r_n} per batch of
times, dim exponentials per time, serves every block.
Phase damping (dephasing) multiplies each element by
exp(-gamma (n-m)^2 t / 2) and commutes with the unitary part.

Every channel evolves by one path: :func:`coherence_diagonals` yields
the diagonals x_d(t) for a batch of times at a time.  Sweeps, tomogram
dumps, the convergence sweep and the oracle all read them directly; no
whole state is formed along that path.

The per-time ``propagate_*`` functions and two dense references check
that path: the exponential of each block at one time
(:func:`coherence_block_solve`) and of the full superoperator
(:func:`integrate_master`), which share only the generator and
:func:`expm` with it.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantError, ValidationError
from .states import DensityMatrix, log_factorials

__all__ = [
    "MediumKind",
    "MediumSpec",
    "DampingChannel",
    "DampingSpec",
    "TimeGrid",
    "revival_time",
    "propagate_unitary",
    "propagate_phase_damping",
    "coherence_block_solve",
    "coherence_diagonals",
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

    channel: DampingChannel = DampingChannel.NONE
    gamma: float = 0.0

    def __post_init__(self):
        if not isinstance(self.channel, DampingChannel):
            raise ValidationError(
                f"channel must be a DampingChannel, got {self.channel!r}"
            )
        gamma = _validate_gamma(self.gamma)
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
    """Closed-system evolution: rho_nm(t) = e^{-i chi [f(n)-f(m)] t} rho_nm(0), any finite t."""
    return _propagate_elementwise(rho0, medium, 0.0, _validate_time(t, allow_negative=True))


def propagate_phase_damping(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, t: float
) -> DensityMatrix:
    """Dephasing channel combined with the unitary part.

    Both act elementwise on rho_nm, the dephasing factor being
    exp(-gamma (n-m)^2 t / 2).  The populations are untouched, so the
    photon statistics are frozen while coherences decay.
    """
    t = _validate_time(t)
    return _propagate_elementwise(rho0, medium, _validate_gamma(gamma), t)


def _propagate_elementwise(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, t: float
) -> DensityMatrix:
    """rho_nm(0) exp(-i chi [f(n)-f(m)] t - gamma (n-m)^2 t / 2), one exp per element; at
    gamma = 0 the second term is a signed zero, so unitary factors are those of the first alone."""
    phi = medium.phase_exponents(rho0.dim)
    n = np.arange(rho0.dim, dtype=np.float64)
    delta_phi = phi[:, None] - phi[None, :]
    delta_n = n[:, None] - n[None, :]
    factor = np.exp(-1j * medium.chi * delta_phi * t - 0.5 * gamma * delta_n**2 * t)
    return DensityMatrix(rho0.dim, rho0.elements * factor)


# --- amplitude-damping blocks -----------------------------------------------

_TAYLOR_DEGREE = 18


def expm(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).

    The degree-18 Taylor polynomial of X = M / 2^s, s = ceil(log2 ||M||_1),
    is squared s times.  For upper triangular M the diagonal is reset to
    exp(2^i diag(X)) after squaring i, so no round-off accumulates there
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)).
    """
    norm = float(np.linalg.norm(M, 1))
    s = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    X = M / 2.0**s
    eye = np.eye(M.shape[0], dtype=X.dtype)
    total = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):
        total = eye + (X @ total) / k
    triangular = not np.tril(M, -1).any()
    for i in range(1, s + 1):
        total = total @ total
        if triangular:
            np.fill_diagonal(total, np.exp(2.0**i * np.diagonal(X)))
    return total


@functools.cache
def _cascade_hankel(dim: int, d: int) -> np.ndarray:
    """Binomial amplitudes of block d in Hankel form, cached and read-only.

    Returns H of shape (J, J) with J = dim - d, where
    H[k, j] = sqrt(C(j+d+k, k) C(j+k, k)) couples x_j(t) to x_{j+k}(0).
    Entries with j + k >= J are zero.
    """
    J = dim - d
    k = np.arange(J, dtype=np.int64)[:, None]
    j = np.arange(J, dtype=np.int64)[None, :]
    col = np.minimum(j + k, J - 1)  # clipped where H is zero anyway
    log_fact = log_factorials(dim)
    log_h = 0.5 * (
        log_fact[col + d] - log_fact[j + d] + log_fact[col] - log_fact[j]
    ) - log_fact[k]
    H = np.where(j + k < J, np.exp(log_h), 0.0)
    H.setflags(write=False)
    return H


def _block_generator(
    medium: MediumSpec, phi: np.ndarray, gamma: float, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal a and superdiagonal b of the generator A_d of block d."""
    j = np.arange(phi.size - d)
    a = -1j * medium.chi * (phi[j + d] - phi[j]) - 0.5 * gamma * (2 * j + d)
    b = gamma * np.sqrt((j[:-1] + d + 1.0) * (j[:-1] + 1.0))
    return a, b


def _from_blocks(packed: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix whose lower diagonals d = 0, 1, ... are the
    consecutive segments of packed, of lengths dim, dim - 1, ..."""
    rows, cols = np.tril_indices(dim)
    order = np.argsort(rows - cols, kind="stable")
    rows, cols = rows[order], cols[order]
    out = np.empty((dim, dim), dtype=np.complex128)
    out[cols, rows] = np.conj(packed)
    out[rows, cols] = packed
    # the populations of a hermitian input are real; discard the
    # accumulated roundoff in the imaginary part
    np.fill_diagonal(out, packed[:dim].real)
    return out


def coherence_block_solve(
    rho0: DensityMatrix, medium: MediumSpec, gamma: float, t: float
) -> DensityMatrix:
    """Exact amplitude-damping propagation at one time: the dense reference.

    Each coherence block d is propagated as exp(A_d t) x_d(0) by the
    dense exponential of its bidiagonal generator, in either medium, and
    the blocks are assembled into one state.  It shares no cascade,
    eigenbasis or phase table with :func:`coherence_diagonals`, which it
    cross-checks; it costs about 0.2 s per call at dim 100 in the Kerr
    medium, so for many times use :func:`coherence_diagonals`.
    """
    t = _validate_time(t)
    gamma = _validate_gamma(gamma)
    if gamma == 0.0 or t == 0.0:
        return propagate_unitary(rho0, medium, t)
    phi = medium.phase_exponents(rho0.dim)
    blocks = []
    for d in range(rho0.dim):
        a, b = _block_generator(medium, phi, gamma, d)
        blocks.append(expm((np.diag(a) + np.diag(b, 1)) * t) @ np.diagonal(rho0.elements, -d))
    return DensityMatrix(rho0.dim, _from_blocks(np.concatenate(blocks), rho0.dim))


def coherence_diagonals(
    rho0: DensityMatrix, medium: MediumSpec, damping: DampingSpec, times: np.ndarray
) -> Iterator[tuple[np.ndarray, Iterator[np.ndarray]]]:
    """The coherence diagonals x_d = rho_{j+d, j} of the evolved state, 64 times at a time.

    Yields one (chunk, diagonals) pair per run of up to 64 consecutive
    times; ``diagonals`` yields x_d(chunk) as a (T, dim - d) array for
    d = 0, 1, ..., dim - 1, one at a time, so no batch of whole states is
    held.  Amplitude damping evaluates each block by :func:`_cascade` or
    :func:`_block_series`, with e^{t a} read from the chunk's Fock phase
    table; unitary evolution
    and dephasing multiply x_d(0) elementwise by exp(t a_d),
    a_d = -i chi [f(j+d) - f(j)] - gamma d^2 / 2, the factor of
    :func:`propagate_phase_damping`.  ``times`` is validated and the
    per-block series are built on the call.
    """
    times = _validate_times(times)
    diagonals = _diagonal_series(rho0, medium, damping)
    chunks = np.split(times, range(_CHUNK, times.size, _CHUNK))
    return ((chunk, diagonals(chunk)) for chunk in chunks)


def _validate_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty 1-D array")
    if np.any(times < 0) or not np.all(np.isfinite(times)):
        raise ValidationError("times must be finite and >= 0")
    return times


# times per batch; at dim 100 a chunk's diagonals hold 5.2 MB and its phase table and its
# conjugate 0.2 MB; the series of one call hold 0.24 MB of padded diagonals and term bounds,
# the cached Hankel blocks 2.7 MB; a chunk's cascade coefficients C hold K (dim - d) entries
# per block, at most 0.16 MB; the cached cubic eigenbases hold 1.1 MB per (medium, gamma, dim)
# at dim 60, 1.8 MB at dim 70
_CHUNK = 64
_EIGEN_COND_MAX = 1e4  # cond(V_d) * eps stays below 1e-12
_CASCADE_TAIL = 2.0**-60  # bound on the cascade terms dropped per entry, far below round-off


def _eigenbasis(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, V^{-1}) for diagonal a and superdiagonal b: for k <= i, V[k, i] =
    prod_{m=k}^{i-1} -b_m / (a_m - a_i), the unit-diagonal eigenvectors, and V^{-1}[k, i] =
    prod_{m=k}^{i-1} b_m / (a_k - a_{m+1}), the left ones.  Overflow leaves inf or nan."""
    gap = a[:, None] - a
    np.fill_diagonal(gap, 1.0)
    upper = np.triu(np.ones(gap.shape, dtype=bool), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        V = np.cumprod(np.where(upper, -np.append(b, 0.0)[:, None] / gap, 1.0)[::-1], axis=0)
        V_inv = np.cumprod(np.where(upper, np.append(0.0, b) / gap, 1.0), axis=1)
    return np.triu(V[::-1]), np.triu(V_inv)


@functools.lru_cache(maxsize=2)
def _cubic_eigenbases(medium: MediumSpec, gamma: float, dim: int) -> tuple[np.ndarray | None, ...]:
    """The eigenbases of the cubic blocks d = 1, ..., dim - 1, entry d - 1 for block d, read-only.

    Each is packed in one (J, J) array: V in the upper triangle, V^{-1} transposed strictly
    below (both have unit diagonals).  None where cond_1(V) > _EIGEN_COND_MAX.
    """
    phi = medium.phase_exponents(dim)
    packed = []
    for d in range(1, dim):
        V, V_inv = _eigenbasis(*_block_generator(medium, phi, gamma, d))
        P = np.where(np.tri(dim - d, k=-1, dtype=bool), V_inv.T, V)
        P.setflags(write=False)
        conditioned = np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1) <= _EIGEN_COND_MAX
        packed.append(P if conditioned else None)
    return tuple(packed)


def _hankel_rows(padded: np.ndarray, rows: int) -> np.ndarray:
    """Rows k < rows of the Hankel matrix x0[j + k], j < J, as a strided view of
    ``padded``, x0 followed by J - 1 zeros (so zero past the block's end)."""
    step = padded.strides[0]
    # the ndarray constructor: as_strided costs more than the product it feeds at small K
    return np.ndarray((rows, (padded.size + 1) // 2), padded.dtype, padded, strides=(step, step))


def _cascade_bounds(padded: list[np.ndarray], dim: int) -> np.ndarray:
    """B[d, k] = max_j H[k, j] |x_{j+k}(0)| of each cascade block d, zero for k >= dim - d.

    Term k of entry j of the cascade is w^k H[k, j] x_{j+k}(0) e^{t a_j}, and
    |w| < 1, |e^{t a_j}| <= 1, so sum_{k >= K} max|w|^k B[d, k] bounds every
    dropped entry when the cascade stops after K terms.  ``padded`` as for
    :func:`_hankel_rows`.
    """
    bounds = np.zeros((len(padded), dim))
    for d, x in enumerate(padded):
        J = dim - d
        bounds[d, :J] = (_cascade_hankel(dim, d) * _hankel_rows(np.abs(x), J)).max(axis=1)
    return bounds


def _cascade_lengths(w_max: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The smallest K >= 1 per block with sum_{k >= K} w_max^k B[d, k] <= _CASCADE_TAIL.

    K = dim - d where no shorter sum meets the bound (the padding of B is
    zero); one (blocks, dim) pass for all blocks of a chunk.
    """
    terms = np.power.outer(w_max, np.arange(bounds.shape[1])) * bounds
    tails = np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1]  # tails[:, K - 1] sums k >= K
    tails = np.append(tails, np.zeros((len(w_max), 1)), axis=1)  # K = dim leaves nothing out
    return 1 + np.argmax(tails <= _CASCADE_TAIL, axis=1)


def _cascade(
    padded: np.ndarray, d: int, w: np.ndarray, length: int, exp_ta: np.ndarray
) -> np.ndarray:
    """x_d(t) = exp(A_d t) x_d(0) of a block whose diagonal a is equally spaced, over the
    first ``length`` powers of w, as a (T, J) array.

    With spacing delta, the divided differences of e^{a t} telescope into
    powers of one weight w = gamma (e^{delta t} - 1) / delta, and
    x(t) = e^{t a} o (W @ C) with W[t, k] = w(t)^k and C[k, j] = H[k, j] x_{j+k}(0)
    (H from :func:`_cascade_hankel`).  That holds for every Kerr block
    (delta = -(gamma + 2i chi d)) and for the population block d = 0 in any
    medium (delta = -gamma).  C is formed per chunk, for k < length only;
    the terms left out are bounded by :func:`_cascade_bounds` and
    :func:`_cascade_lengths`.  ``padded`` as for :func:`_hankel_rows`.
    """
    dim = (padded.size + 1) // 2 + d
    x = np.vander(w, length, increasing=True) @ (
        _cascade_hankel(dim, d)[:length] * _hankel_rows(padded, length)
    )
    x *= exp_ta
    return x


def _block_series(
    medium: MediumSpec, phi: np.ndarray, gamma: float, d: int, x0: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(times, e^{t a}) -> x_d(t) = exp(A_d t) x_d(0) as a (T, J) array, for a cubic block
    d >= 1; built once per block.

    The second argument is e^{t a_j} for the diagonal a of A_d, (T, J), read
    from the chunk's phase table (:func:`_diagonal_series`).  The blocks
    whose a is equally spaced, every Kerr block and d = 0 in either medium,
    are cascades instead (:func:`_cascade`).  A cubic block d >= 1 uses the
    eigenvectors V of A_d (its eigenvalues are its diagonal, distinct for
    gamma > 0): x(t) = V (e^{t a} o V^{-1} x(0)), or the dense exponential at
    each time if cond_1(V) > _EIGEN_COND_MAX.  V and V^{-1} depend on
    (medium, gamma, dim) alone and are kept for the two most recent
    (:func:`_cubic_eigenbases`).
    """
    P = _cubic_eigenbases(medium, gamma, phi.size)[d - 1]
    if P is not None:
        c = np.triu(P.T) @ x0
        # V unpacked per call, not held: the series of one call would keep a second copy
        return lambda times, exp_ta: (exp_ta * c) @ np.triu(P).T
    # ill-conditioned, or overflowed to nan: the dense exponential per time
    a, b = _block_generator(medium, phi, gamma, d)
    return lambda times, exp_ta: np.array(
        [expm((np.diag(a) + np.diag(b, 1)) * t) @ x0 for t in times]
    )


def _diagonal_series(
    rho0: DensityMatrix, medium: MediumSpec, damping: DampingSpec
) -> Callable[[np.ndarray], Iterator[np.ndarray]]:
    """times -> the x_d(times) as (T, dim - d) arrays, d = 0, 1, ..., dim - 1, one at a time."""
    dim = rho0.dim
    phi = medium.phase_exponents(dim)
    x0 = [np.diagonal(rho0.elements, -d) for d in range(dim)]
    if damping.channel is DampingChannel.AMPLITUDE:
        gamma = damping.gamma
        # the cascades: every Kerr block, and the population block d = 0 in either medium
        cascades = dim if medium.kind is MediumKind.KERR else 1
        delta = -(gamma + 2j * medium.chi * np.arange(cascades))
        padded = [np.append(x, np.zeros(dim - d - 1, x.dtype)) for d, x in enumerate(x0[:cascades])]
        bounds = _cascade_bounds(padded, dim)
        blocks = [_block_series(medium, phi, gamma, d, x0[d]) for d in range(cascades, dim)]
        # a_j of block d is r_{j+d} + conj(r_j), so with the table U = e^{t r},
        # dim exponentials per time, e^{t a} = U[:, d:] o conj(U[:, :dim-d])
        rate = -1j * medium.chi * phi - 0.5 * gamma * np.arange(dim)

        def amplitude(times: np.ndarray) -> Iterator[np.ndarray]:
            table = np.exp(np.multiply.outer(times, rate))
            table_bar = table.conj()
            # delta != 0 for gamma > 0, and w = 0 at t = 0
            w = gamma * np.expm1(np.multiply.outer(times, delta)) / delta
            lengths = _cascade_lengths(np.abs(w).max(axis=0), bounds)

            def exp_ta(d: int) -> np.ndarray:
                return table[:, d:] * table_bar[:, : dim - d]

            return (
                _cascade(padded[d], d, w[:, d], lengths[d], exp_ta(d))
                if d < cascades
                else blocks[d - cascades](times, exp_ta(d))
                for d in range(dim)
            )

        return amplitude
    # one exp per element, as propagate_phase_damping does: the table's
    # round-off would move the unitary series' twin minima, which print
    # alike and of which the references record one
    rates = [
        -1j * medium.chi * (phi[d:] - phi[: dim - d]) - 0.5 * damping.gamma * d**2
        for d in range(dim)
    ]
    return lambda times: (x * np.exp(np.multiply.outer(times, a)) for x, a in zip(x0, rates))


# --- dense reference integrator ---------------------------------------------


def _liouvillian_matrix(dim: int, medium: MediumSpec, damping: DampingSpec) -> np.ndarray:
    """Dense superoperator in the row-major vec convention.

    vec(A X B) = (A kron B^T) vec(X) for C-ordered flattening.
    """
    H = np.diag(medium.chi * medium.phase_exponents(dim)).astype(np.complex128)
    eye = np.eye(dim, dtype=np.complex128)
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    if damping.channel is DampingChannel.NONE:
        return S
    n = np.arange(dim, dtype=np.float64)
    if damping.channel is DampingChannel.AMPLITUDE:
        jump = np.diag(np.sqrt(n[1:]), 1)  # a
    else:
        jump = np.diag(n)  # a^dag a
    L = math.sqrt(damping.gamma) * jump.astype(np.complex128)
    LdL = L.conj().T @ L
    return S + np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))


_INTEGRATE_DIM_CAP = 40


def integrate_master(
    rho0: DensityMatrix, medium: MediumSpec, damping: DampingSpec, t: float
) -> DensityMatrix:
    """Reference integration of the full master equation, exp(t L) rho0.

    The generator is assembled as a dense superoperator L, so this costs
    O(dim^6) and is capped at dim <= 40: it exists to cross-check the
    production propagators, not to replace them.  exp(t L) is taken by
    :func:`expm`, which resets the diagonal of this upper triangular L.
    """
    t = _validate_time(t)
    if rho0.dim > _INTEGRATE_DIM_CAP:
        raise ValidationError(
            f"integrate_master is a dense O(dim^6) reference check; "
            f"dim={rho0.dim} exceeds the cap of {_INTEGRATE_DIM_CAP}"
        )
    if t == 0.0:
        return DensityMatrix(rho0.dim, rho0.elements.copy())
    dim = rho0.dim
    total = expm(t * _liouvillian_matrix(dim, medium, damping))
    mat = (total @ rho0.elements.reshape(-1)).reshape(dim, dim)
    mat = 0.5 * (mat + mat.conj().T)
    drift = abs(float(np.trace(mat).real) - 1.0)
    if drift > 1e-10:
        raise NumericalInvariantError(f"reference integrator trace drift {drift:.3e} exceeds 1e-10")
    return DensityMatrix(dim, mat)
