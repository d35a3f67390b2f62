import os
from pathlib import Path

import numpy as np
import pytest

from pubpriv.channels import QuantumChannel
from pubpriv.entropics import InputEnsemble
from pubpriv.qcore import DensityOperator


SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env(extra=None):
    """Environment for a `python -m pubpriv` child process run from any directory.

    The absolute `src` path goes first on PYTHONPATH, so the package is found even
    when an inherited relative entry (`PYTHONPATH=src`) resolves against the child's
    temporary working directory; empty entries, which would mean that directory, are
    dropped. `extra` is applied last.
    """
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + paths)
    env.update(extra or {})
    return env


def over_x(p_x, states) -> InputEnsemble:
    """Ensemble with trivial Y: {p(x), σ_x}."""
    return InputEnsemble(p_x=np.asarray(p_x, float), p_y_given_x=np.ones((len(states), 1)),
                         rho_xy=tuple((s,) for s in states))


def rand_density(rng: np.random.Generator, d: int, pure: bool = False) -> DensityOperator:
    """Random full-support (or pure) density operator."""
    if pure:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return DensityOperator.pure(v)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real)


def rand_channel(rng: np.random.Generator, dim_in: int, dim_out: int, n_kraus: int) -> QuantumChannel:
    """Random channel from a Haar-ish isometry, split into n_kraus blocks."""
    n_kraus = max(n_kraus, -(-dim_in // dim_out))  # isometry needs dim_out*n_kraus >= dim_in
    g = rng.standard_normal((dim_out * n_kraus, dim_in)) + 1j * rng.standard_normal((dim_out * n_kraus, dim_in))
    q, _ = np.linalg.qr(g)
    v = q[:, :dim_in]
    kraus = [v[i * dim_out:(i + 1) * dim_out, :] for i in range(n_kraus)]
    return QuantumChannel(kraus)


def rand_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.random(k) + 1e-3
    return w / w.sum()


def rand_ensemble(rng: np.random.Generator, nx: int, ny: int, d: int, pure: bool = False) -> InputEnsemble:
    p_x = rand_simplex(rng, nx)
    p_y_given_x = np.vstack([rand_simplex(rng, ny) for _ in range(nx)])
    rho = tuple(tuple(rand_density(rng, d, pure=pure) for _ in range(ny)) for _ in range(nx))
    return InputEnsemble(p_x=p_x, p_y_given_x=p_y_given_x, rho_xy=rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
