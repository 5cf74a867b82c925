"""Optical tomograms of truncated Fock-space states.

The quadrature eigenstate overlap factorizes, <X, theta|n> =
psi_n(X) e^{-i n theta}, with psi_n the harmonic-oscillator
eigenfunction in the convention where the vacuum has variance 1/2
(omega_vac(x) = e^{-x^2}/sqrt(pi)).  The tomogram of a state rho is

    omega(x, theta) = sum_nm psi_n(x) psi_m(x) e^{-i(n-m) theta} rho_nm,

a genuine probability density in x for every theta.  With
u_n = e^{-i n theta}, the rotated matrix R = u_n rho_nm u_m* is
Hermitian because rho is: Re R is symmetric and Im R antisymmetric.
The real quadratic form psi^T R psi sees only the symmetric part, so

    omega(x, theta) = sum_nm psi_n(x) Re(R_nm) psi_m(x)

is real by construction and computed in real arithmetic.

Hermite functions are generated by the normalized three-term
recurrence, which stays bounded where the textbook H_n / sqrt(2^n n!)
route overflows near n ~ 90.

Every tomogram, of a sweep, a dump or one density matrix
(:func:`tomogram_of_density`), is built diagonal by diagonal for a batch
of states by :func:`tomograms_of_diagonals`, and :func:`check_tomograms`
applies the per-state checks to the batch.

Since psi_n(-x) = (-1)^n psi_n(x), the basis product psi_{j+d} psi_j has
the parity of d in x.  On a symmetric window the kernel evaluates the
products on the samples x >= 0 only, sums the even-d and the odd-d
diagonals apart, E and O, and writes omega(x) = E + O and
omega(-x) = E - O: half the products for the same tomogram.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericalInvariantError, ValidationError
from .states import DensityMatrix

__all__ = [
    "QuadratureGrid",
    "Tomogram",
    "uniform_thetas",
    "conjugate_thetas",
    "hermite_basis",
    "symmetric_grid",
    "suggested_grid",
    "tomogram_of_density",
    "tomograms_of_diagonals",
    "check_tomograms",
]

TWO_PI = 2.0 * math.pi

# one-sided tomogram mass allowed off-grid before warning / refusing
_NORM_WARN = 1e-8
_NORM_FAIL = 1e-4
_NEG_TOL = 1e-12
_NON_FINITE = "tomogram contains non-finite values"


def uniform_thetas(count: int) -> tuple[float, ...]:
    """count equally spaced phases in [0, 2*pi): k * 2*pi / count."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValidationError(f"count must be an integer >= 1, got {count!r}")
    return _uniform_thetas(int(count))


@functools.lru_cache(maxsize=8)
def _uniform_thetas(count: int) -> tuple[float, ...]:
    return tuple(float(k) * TWO_PI / count for k in range(count))


@functools.lru_cache(maxsize=32)
def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    x = np.linspace(lo, hi, n)
    x.setflags(write=False)
    return x


def conjugate_thetas(theta: float) -> tuple[float, float]:
    """The pair (theta, theta + pi/2), both reduced into [0, 2*pi)."""
    theta = float(theta) % TWO_PI
    partner = (theta + 0.5 * math.pi) % TWO_PI
    return (theta, partner)


@dataclass(frozen=True)
class QuadratureGrid:
    """Rectangular evaluation grid: x samples times a set of phases.

    thetas must be strictly increasing and contained in [0, 2*pi); use
    :func:`conjugate_thetas` plus a sort when a wrapped pair is needed.
    """

    x_min: float
    x_max: float
    n_x: int
    thetas: tuple[float, ...] = (0.0, 0.5 * math.pi)

    def __post_init__(self):
        lo, hi = float(self.x_min), float(self.x_max)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"need finite x_min < x_max, got [{lo}, {hi}]")
        if not isinstance(self.n_x, (int, np.integer)) or self.n_x < 2:
            raise ValidationError(f"n_x must be an integer >= 2, got {self.n_x!r}")
        thetas = tuple(float(th) for th in self.thetas)
        if len(thetas) == 0:
            raise ValidationError("thetas must be non-empty")
        for th in thetas:
            if not (0.0 <= th < TWO_PI) or not math.isfinite(th):
                raise ValidationError(f"theta {th!r} outside [0, 2*pi)")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValidationError("thetas must be strictly increasing")
        object.__setattr__(self, "x_min", lo)
        object.__setattr__(self, "x_max", hi)
        object.__setattr__(self, "n_x", int(self.n_x))
        object.__setattr__(self, "thetas", thetas)

    @property
    def x(self) -> np.ndarray:
        """The n_x sample points, read-only and shared by equal windows."""
        return _linspace(self.x_min, self.x_max, self.n_x)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)


def symmetric_grid(x_max: float, n_x: int, thetas: tuple[float, ...]) -> QuadratureGrid:
    return QuadratureGrid(-float(x_max), float(x_max), n_x, thetas)


def suggested_grid(mean_photons: float, thetas: tuple[float, ...]) -> QuadratureGrid:
    """Window wide enough for a state with the given mean photon number.

    The quadrature distribution of such a state is centred within
    +-sqrt(2 <N>) and has slice width ~ 1/sqrt(2), so
    x_max = sqrt(2 <N>) + 4.5 keeps the off-grid mass below ~1e-8.
    Small states fall back to the default window [-10, 10] with 200
    points; wider windows keep the same ~0.1 sample spacing.
    """
    if not math.isfinite(mean_photons) or mean_photons < 0:
        raise ValidationError(f"mean_photons must be finite and >= 0, got {mean_photons!r}")
    needed = math.sqrt(2.0 * mean_photons) + 4.5
    if needed <= 10.0:
        return symmetric_grid(10.0, 200, thetas)
    x_max = 0.5 * math.ceil(needed / 0.5)
    n_x = int(round(20 * x_max)) + 1
    return symmetric_grid(x_max, n_x, thetas)


def hermite_basis(dim: int, x: np.ndarray) -> np.ndarray:
    """Matrix Psi[i, n] = psi_n(x_i) of oscillator eigenfunctions.

    Normalized recurrence:
        psi_0 = pi^{-1/4} e^{-x^2/2}
        psi_1 = sqrt(2) x psi_0
        psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2}
    Every term stays O(1) on the classically allowed region, so there is
    no overflow for any n reachable in practice.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("x must be a 1-D array")
    psi = np.empty((x.size, dim), dtype=np.float64)
    psi[:, 0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        psi[:, 1] = math.sqrt(2.0) * x * psi[:, 0]
    for n in range(2, dim):
        psi[:, n] = x * math.sqrt(2.0 / n) * psi[:, n - 1] - math.sqrt(
            (n - 1.0) / n
        ) * psi[:, n - 2]
    return psi


@functools.lru_cache(maxsize=32)
def _cached_basis(dim: int, x_min: float, x_max: float, n_x: int) -> np.ndarray:
    psi = hermite_basis(dim, _linspace(x_min, x_max, n_x))
    psi.setflags(write=False)
    return psi


@functools.lru_cache(maxsize=8)
def _dump_slice_template(x_min: float, x_max: float, n_x: int) -> str:
    """One slice of dump text: "@" stands for theta, "%s" for each value."""
    return "\n".join("@ %.9g %%s" % x for x in _linspace(x_min, x_max, n_x).tolist())


@dataclass(frozen=True)
class Tomogram:
    """Tomogram values on a grid; values[i, j] = omega(x_j, theta_i)."""

    grid: QuadratureGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.n_theta, self.grid.n_x)
        if vals.shape != expected:
            raise ValidationError(f"values shape {vals.shape}, expected {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError(_NON_FINITE)
        low = float(vals.min())
        if low < -_NEG_TOL:
            raise _negativity_error(low)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _of_checked(cls, grid: QuadratureGrid, values: np.ndarray) -> Tomogram:
        """A tomogram of (n_theta, n_x) values that :func:`check_tomograms`
        has passed, held as a read-only view: no second check, no copy."""
        tomo = object.__new__(cls)
        values = values.view()
        values.setflags(write=False)
        object.__setattr__(tomo, "grid", grid)
        object.__setattr__(tomo, "values", values)
        return tomo

    def to_dump_text(self) -> str:
        template = _dump_slice_template(self.grid.x_min, self.grid.x_max, self.grid.n_x)
        values, n = self.values, self.grid.n_theta
        # omega(x, theta + pi) = omega(-x, theta): equal bit for bit, slice i + n/2 reuses i's strings
        h = n // 2
        if n % 2 or values[h:].tobytes() != values[:h, ::-1].tobytes():
            h = n
        # joined slice by slice: one flat list of every line holds ~2 MB of
        # small strings per dump, which are freed and page-faulted back each time
        blocks = [template.replace("@", "%.9g" % theta) for theta in self.grid.thetas]
        value_format = "\n".join(["%.12g"] * self.grid.n_x)
        for i in range(h):
            strings = (value_format % tuple(values[i].tolist())).split("\n")
            blocks[i] %= tuple(strings)
            if h < n:
                blocks[i + h] %= tuple(reversed(strings))
        return "# theta x omega\n" + "\n".join(blocks) + "\n"

    def write_dump(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_dump_text())
        return path


def _negativity_error(low: float) -> NumericalInvariantError:
    return NumericalInvariantError(f"tomogram negativity {low:.3e} below -{_NEG_TOL:.0e}")


def tomogram_of_density(rho: DensityMatrix, grid: QuadratureGrid) -> Tomogram:
    """Tomogram of a density matrix: :func:`tomograms_of_diagonals` of its diagonals rho_{j+d, j}
    with T = 1 (half the phases on a pi-closed grid), passed through :func:`check_tomograms`."""
    values = tomograms_of_diagonals((rho.elements.diagonal(-d)[None] for d in range(rho.dim)), grid)
    check_tomograms(values, grid.x)
    return Tomogram._of_checked(grid, values[:, 0])


def tomograms_of_diagonals(
    diagonals: Iterable[np.ndarray], grid: QuadratureGrid
) -> np.ndarray:
    """Tomograms of a batch of T states given by their coherence diagonals.

    ``diagonals`` yields x_d = rho_{j+d, j} as a (T, dim - d) array, one
    row per state, for d = 0, 1, ..., dim - 1.  Pairing rho_{j+d, j} with
    its conjugate rho_{j, j+d} turns the tomogram into

        omega(x, theta) = sum_d c_d sum_j psi_{j+d}(x) psi_j(x) Re(e^{-i d theta} x_{d,j}),

    c_0 = 1 and c_d = 2 for d >= 1, with basis products G_d = psi_{j+d} psi_j,
    (J, n_x), built for each diagonal alone.  On at most two phases, each
    diagonal's rotated real parts, (n_theta T, J), multiply G_d.  On more, the
    basis is contracted first, H_d = [Re x_d; Im x_d] G_d, (2, T, n_x), and
    [c_d cos d theta, c_d sin d theta] H_d is added; each order is the faster
    one on its side.  G_d(-x) = (-1)^d G_d(x), so on a window with
    x_min = -x_max, G_d is formed on the m = ceil(n_x / 2) samples x >= 0 only
    (x = 0 among them when n_x is odd), the even-d and the odd-d terms are
    summed apart into E and O, and omega = E + O on x >= 0 and
    omega(-x) = E - O; any other window takes the same loop with m = n_x and
    one sum.  Since X_{theta+pi} = -X_theta, omega(x, theta + pi) =
    omega(-x, theta): on a symmetric window whose second half of phases is the
    first shifted by pi, as on an even uniform grid, only the first half is
    computed and the second is its mirror in x.  Returns
    values[i, k, j] = omega_k(x_j, theta_i), unchecked: see :func:`check_tomograms`.
    """
    thetas = np.array(grid.thetas)
    h = grid.n_theta // 2  # the phases computed; the two-phase order below never mirrors
    if (grid.n_theta <= 2 or grid.n_theta % 2 or grid.x_min != -grid.x_max
            or np.any(abs(thetas[h:] - thetas[:h] - math.pi) > 1e-12)):
        h = grid.n_theta
    n_x = grid.n_x
    m = (n_x + 1) // 2 if grid.x_min == -grid.x_max else n_x  # the columns x >= 0 computed
    parts = None
    for d, x_d in enumerate(diagonals):
        if parts is None:
            T, dim = x_d.shape
            psi = _cached_basis(dim, grid.x_min, grid.x_max, n_x)[n_x - m :]
            parts = np.zeros((2 if m < n_x else 1, grid.n_theta, T, m))
        part = parts[d % len(parts)]  # the even-d or odd-d sum
        weight = 1.0 if d == 0 else 2.0
        basis = (psi[:, d:] * psi[:, : dim - d]).T
        if grid.n_theta <= 2:
            # rotate first: the faster order on two phases (contracting the basis first made the
            # benchmark's fig8-like sweeps 3-5% slower, and moved one fig1 twin minimum)
            cos, sin = ([weight * f(d * th) for th in grid.thetas] for f in (math.cos, math.sin))
            rotated = np.multiply.outer(cos, x_d.real) + np.multiply.outer(sin, x_d.imag)
            part += (rotated.reshape(-1, dim - d) @ basis).reshape(part.shape)
        else:
            rotation = weight * np.stack([np.cos(d * thetas[:h]), np.sin(d * thetas[:h])], axis=1)
            contracted = np.stack([x_d.real, x_d.imag]) @ basis
            part[:h] += (rotation @ contracted.reshape(2, -1)).reshape(h, T, m)
    if m < n_x:
        even, odd = parts
        out = np.empty((grid.n_theta, T, n_x))
        out[..., n_x - m :] = even + odd
        out[..., : n_x - m] = (even - odd)[..., ::-1][..., : n_x - m]
    else:
        out = parts[0]
    if h < grid.n_theta:
        out[h:] = out[:h, :, ::-1]
    return out


def check_tomograms(values: np.ndarray, x: np.ndarray) -> None:
    """The checks of every computed tomogram, on a batch, state by state.

    ``values`` has shape (n_theta, T, n_x).  For each state in turn: no
    non-finite value, no value below -1e-12, and every slice's trapezoid
    mass within 1e-4 of 1, else the ``off-grid`` RuntimeWarning above
    1e-8.  The first state that fails raises, after the warnings of the
    states before it.
    """
    low = values.min(axis=(0, 2))
    dev = np.abs(np.trapezoid(values, x, axis=-1) - 1.0).max(axis=0)
    finite = np.isfinite(values).all(axis=(0, 2))
    bad = ~finite | (low < -_NEG_TOL) | (dev > _NORM_FAIL)
    stop = int(np.argmax(bad)) if bad.any() else bad.size
    for k in np.flatnonzero(dev[:stop] > _NORM_WARN):
        warnings.warn(
            f"tomogram slice mass off-grid ~ {dev[k]:.3e}; consider widening the x-window",
            RuntimeWarning,
            stacklevel=2,
        )
    if stop == bad.size:
        return
    if not finite[stop]:
        raise ValidationError(_NON_FINITE)
    if low[stop] < -_NEG_TOL:
        raise _negativity_error(float(low[stop]))
    raise NumericalInvariantError(
        f"tomogram slice normalization off by {dev[stop]:.3e}; "
        "the x-window is too narrow for this state"
    )
