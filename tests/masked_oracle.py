"""The mask-versus-remove oracle for ``pruning.apply_plan``.

``masked_logits`` runs the ORIGINAL model with the pruned channels masked
out, instead of removed; ``apply_plan``'s physically pruned model must give
the same logits within 1e-9 (criterion 7 and test_pruning.py). The oracle
builds its switches from the plan and the means alone and imports nothing
from ``pruning``, so it cannot share a scale with the code it checks.
"""

import numpy as np

from dirichlet_pruning.models import forward, prunable_widths


def masked_logits(model, plan, x, switch_means: dict | None = None) -> np.ndarray:
    """Each prunable layer runs with a switch: its given mean, else ones,
    with the entries of channels the plan drops set to zero."""
    switches = {}
    for ordinal, width in enumerate(prunable_widths(model)):
        s = np.array((switch_means or {}).get(ordinal, np.ones(width)), dtype=np.float64)
        if ordinal in plan.keep:
            keep = np.zeros(width, dtype=bool)
            keep[plan.keep[ordinal]] = True
            s[~keep] = 0.0
        switches[ordinal] = s
    return forward(model, x, switches=switches).data
