"""Shared fixtures and test-only reference helpers."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from nltomo.errors import ValidationError
from nltomo.evolve import DampingChannel, _from_blocks, coherence_diagonals
from nltomo.presets import preset_names, run_preset
from nltomo.states import DensityMatrix, StateKind, log_factorials
from nltomo.tomography import hermite_basis


@pytest.fixture(scope="session")
def preset_results(tmp_path_factory):
    """Run the full preset catalog once; shared by the acceptance tests."""
    root = tmp_path_factory.mktemp("presets")
    results = {}
    for name in preset_names():
        results[name] = run_preset(name, root / name)
    return results


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)


def amplitude_damping_factorial_variant(rho0, medium, gamma, t):
    """Amplitude-damping cascade with an extra 1/k! inside the sum.

    This variant of the series is easy to write down by analogy with a
    Poisson kernel but does not preserve the trace (for a Fock state
    |q><q| the ground-state population comes out as (1-e^{-gamma t})^q/q!
    instead of (1-e^{-gamma t})^q).  It returns a bare array so tests can
    demonstrate the violation explicitly.
    """
    w = -np.expm1(-gamma * t)
    dim = rho0.dim
    phi = medium.phase_exponents(dim)
    blocks = []
    for d in range(dim):
        j = np.arange(dim - d)
        row, col = j[:, None], j[None, :]
        k = np.maximum(col - row, 0)
        # B[j, j+k] = sqrt(C(j+d+k, k) C(j+k, k)) couples x_j(t) to x_{j+k}(0)
        log_binomial = 0.5 * (
            gammaln(col + d + 1.0) - gammaln(row + d + 1.0) + gammaln(col + 1.0) - gammaln(row + 1.0)
        ) - gammaln(k + 1.0)
        binomial = np.where(col >= row, np.exp(log_binomial), 0.0)
        weights = w**k * np.exp(-gammaln(k + 1.0))
        a = -1j * medium.chi * (phi[j + d] - phi[j]) - 0.5 * gamma * (2 * j + d)
        x0 = np.diagonal(rho0.elements, -d)
        blocks.append(np.exp(a * t) * ((binomial * weights) @ x0))
    return _from_blocks(np.concatenate(blocks), dim)


def evolved_states(rho0, medium, damping, times):
    """The state at each time, lazily: each row of the coherence diagonals assembled whole."""
    return (
        DensityMatrix(rho0.dim, _from_blocks(row, rho0.dim))
        for _, diagonals in coherence_diagonals(rho0, medium, damping, times)
        for row in np.concatenate(list(diagonals), axis=1)
    )


def family_amplitudes(kind, alpha, p, dim):
    """Amplitudes of a state family by its own formula, as each family was once built.

    The coherent, photon-added and even coherent expressions are kept
    separate here, each with its own operation order, so that the one
    formula of ``build_state`` can be pinned to them bit for bit.
    """
    alpha = complex(alpha)
    n = np.arange(dim)
    if alpha == 0:
        amps = np.zeros(dim, dtype=np.complex128)
        amps[p] = 1.0
        return amps
    r = abs(alpha)
    if kind is StateKind.COHERENT:
        phases = np.exp(1j * np.angle(alpha) * n)
        log_mag = n * np.log(r) - 0.5 * log_factorials(dim)
    elif kind is StateKind.PHOTON_ADDED:
        k = n - p
        log_mag = np.full(dim, -np.inf)
        valid = n >= p
        log_fact = log_factorials(dim)
        log_mag[valid] = k[valid] * np.log(r) + 0.5 * log_fact[n[valid]] - log_fact[k[valid]]
        phases = np.where(valid, np.exp(1j * np.angle(alpha) * np.where(valid, k, 0)), 0.0)
    else:
        log_mag = np.where(n % 2 == 0, n * np.log(r) - 0.5 * log_factorials(dim), -np.inf)
        phases = np.where(n % 2 == 0, np.exp(1j * np.angle(alpha) * n), 0.0)
    amps = np.exp(log_mag - np.max(log_mag[np.isfinite(log_mag)])) * phases
    return amps / np.linalg.norm(amps)


def laguerre_value(p, x):
    """Laguerre polynomial L_p(x) by (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}.

    Photon-added states have <N> = (p+1) L_{p+1}(-|alpha|^2) / L_p(-|alpha|^2) - 1.
    """
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise ValidationError(f"p must be an integer >= 0, got {p!r}")
    if p == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - x
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return float(cur)


def quadrature_moments_from_tomogram(tomo, theta_index, order):
    """Trapezoid moment integral x^order against one tomogram slice."""
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    x = tomo.grid.x
    return float(np.trapezoid(x**order * tomo.values[theta_index], x))


def parse_dump(text):
    """Inverse of ``Tomogram.to_dump_text``: (thetas, x, values)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "# theta x omega":
        raise ValidationError("missing '# theta x omega' header")
    cols = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if cols.shape[1] != 3:
        raise ValidationError("dump rows must have three columns")
    thetas = np.unique(cols[:, 0])
    n_theta = thetas.size
    if cols.shape[0] % n_theta:
        raise ValidationError("dump is not a complete rectangular grid")
    n_x = cols.shape[0] // n_theta
    x = cols[:n_x, 1]
    values = cols[:, 2].reshape(n_theta, n_x)
    return thetas, x, values


def lindblad_rhs(rho, medium, damping):
    """Operator-form right-hand side of the master equation.

    Written with explicit matrix products (commutator plus dissipator)
    and its own H and jump operator, so it checks the propagators and
    the superoperator of ``integrate_master`` independently.
    """
    mat, dim = rho.elements, rho.dim
    H = np.diag(medium.chi * medium.phase_exponents(dim))
    rhs = -1j * (H @ mat - mat @ H)
    if damping.channel is DampingChannel.AMPLITUDE:
        L = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    elif damping.channel is DampingChannel.PHASE:
        L = np.diag(np.arange(dim, dtype=np.float64))
    else:
        return rhs
    L = np.sqrt(damping.gamma) * L
    LdL = L.T @ L
    return rhs + L @ mat @ L.T - 0.5 * (LdL @ mat + mat @ LdL)


def dense_tomogram(rho, grid):
    """(n_theta, n_x) tomogram of a density matrix by the dense formula, slice by slice.

    omega(x, theta) = psi^T Re(R) psi with R_nm = e^{-i n theta} rho_nm e^{i m theta}:
    each rotated matrix is formed whole, so this shares only the Hermite
    basis with the diagonal kernel it checks.
    """
    psi = hermite_basis(rho.dim, grid.x)
    n = np.arange(rho.dim)
    values = np.empty((grid.n_theta, grid.n_x))
    for i, theta in enumerate(grid.thetas):
        u = np.exp(-1j * theta * n)
        rotated = (u[:, None] * rho.elements * u.conj()[None, :]).real
        values[i] = np.einsum("xn,xn->x", psi @ rotated, psi)
    return values


def rotate_first_tomograms(diagonals, grid):
    """The diagonal kernel in its plainest order, on the full window: (n_theta, T, n_x).

    Each diagonal's rotated real parts are stacked phase by phase, one
    array per phase, and multiplied by its basis products on every sample
    x, with no parity split and no pi-mirror.
    """
    out = None
    for d, x_d in enumerate(diagonals):
        if out is None:
            T, dim = x_d.shape
            psi = hermite_basis(dim, grid.x)
            out = np.zeros((grid.n_theta * T, grid.n_x))
        weight = 1.0 if d == 0 else 2.0
        rotated = np.concatenate(
            [
                weight * math.cos(d * theta) * x_d.real + weight * math.sin(d * theta) * x_d.imag
                for theta in grid.thetas
            ]
        )
        out += rotated @ (psi[:, d:] * psi[:, : dim - d]).T
    return out.reshape(grid.n_theta, T, grid.n_x)


def f_string_dump_text(tomo):
    """``Tomogram.to_dump_text`` written line by line with an f-string."""
    x_txt = ["%.9g" % x for x in tomo.grid.x.tolist()]
    blocks = ["# theta x omega"]
    for theta, row in zip(tomo.grid.thetas, tomo.values):
        theta_txt = "%.9g" % theta
        blocks.append(
            "\n".join(f"{theta_txt} {xt} {'%.12g' % v}" for xt, v in zip(x_txt, row.tolist()))
        )
    return "\n".join(blocks) + "\n"
