"""The per-element Lanczos loop, kept as the bitwise oracle for
``special.lgamma_batch``.

Each element's sum C_0 + C_1/(x - 1 + 1) + ... + C_8/(x - 1 + 8) adds its
terms one at a time in index order, on numpy float64 scalars. The library's
vectorized sum must return exactly the same bits, so it must add the terms
in the same order.
"""

import numpy as np

from dirichlet_pruning.special import _HALF_LOG_2PI, _LANCZOS_C, _LANCZOS_G


def lgamma_loop(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    for index, v in np.ndenumerate(x):
        small = v < 0.5
        xm1 = (1.0 - v if small else v) - 1.0
        a = np.float64(_LANCZOS_C[0])
        for i in range(1, 9):
            a += _LANCZOS_C[i] / (xm1 + i)
        t = xm1 + _LANCZOS_G + 0.5
        main = _HALF_LOG_2PI + (xm1 + 0.5) * np.log(t) - t + np.log(a)
        out[index] = np.log(np.pi / np.sin(np.pi * v)) - main if small else main
    return out
