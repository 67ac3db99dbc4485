"""Shared helpers for the test suite: finite differences, error metrics,
allocation peaks and the environment of a child interpreter."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np

import dirichlet_pruning

# the directory that holds the package under test
PACKAGE_ROOT = str(pathlib.Path(dirichlet_pruning.__file__).resolve().parent.parent)


def central_fd(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def grad_err(approx, exact):
    """Max elementwise |a-e| / max(|e|, 1): relative at scale, absolute below it."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    return float(np.max(np.abs(approx - exact) / np.maximum(np.abs(exact), 1.0)))


def rel_err(approx, exact):
    """Strict relative error for scalars known to be away from zero."""
    return abs(approx - exact) / abs(exact)


def traced_mib(fn):
    """(peak, held): the peak traced allocation of fn() and what is still
    traced when it returns, with its result alive, both above what was
    traced when it began, in MiB. Under an outer trace (``python -X
    tracemalloc``) the peak is reset first and the trace keeps running."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()  # noqa: F841 - alive while the held bytes are read
        held, peak = tracemalloc.get_traced_memory()
        return (peak - base) / 2 ** 20, (held - base) / 2 ** 20
    finally:
        if not outer:
            tracemalloc.stop()


def peak_mib(fn):
    """The peak of ``traced_mib``."""
    return traced_mib(fn)[0]


def child_env():
    """This process's environment with PACKAGE_ROOT first on PYTHONPATH, so a
    child interpreter imports the same package from any working directory."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def in_one_blas_thread(module: str, function: str, *args) -> None:
    """Call ``function(*args)`` of the test module ``module`` in a child
    interpreter whose BLAS runs on one thread, as the benchmark's does, and
    fail with the child's stderr if it raises. How a BLAS splits a product
    among threads sets how it rounds, so a check that two ways of forming
    one product agree bit for bit names the thread count."""
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = (f"import sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r}); "
            f"import {module}; {module}.{function}(*{args!r})")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
