"""The mask-versus-remove oracle for ``pruning.apply_plan``.

``masked_logits`` runs the ORIGINAL model with the pruned channels masked
out, instead of removed; ``apply_plan``'s physically pruned model must give
the same logits within 1e-9 (criterion 7 and test_pruning.py).
"""

import numpy as np

from dirichlet_pruning.models import Conv2d, copy_model, forward, prunable_indices, prunable_widths
from dirichlet_pruning.pruning import PruningPlan, _resolve_means, _switch_for_prunable


def masked_logits(model, plan: PruningPlan, x, switch_means: dict | None = None) -> np.ndarray:
    """Switch graphs run each switch at its posterior mean with pruned
    entries zeroed; switchless graphs zero the pruned channels' outgoing
    weights and biases."""
    plan.validate_against(model)
    means = _resolve_means(model, switch_means)
    ordinals = prunable_indices(model)
    has_switch = {gi: _switch_for_prunable(model, gi) for gi in ordinals}
    if any(sw is not None for sw in has_switch.values()):
        switches = dict(means)
        for o, gi in enumerate(ordinals):
            sw = has_switch[gi]
            if sw is None or o not in plan.keep:
                continue
            masked = np.zeros_like(means[sw])
            masked[plan.keep[o]] = means[sw][plan.keep[o]]
            switches[sw] = masked
        return forward(model, x, switches=switches).data
    shadow = copy_model(model)
    for o, gi in enumerate(ordinals):
        if o not in plan.keep:
            continue
        drop = np.setdiff1d(np.arange(prunable_widths(model)[o]), plan.keep[o])
        spec = model.layers[gi]
        if isinstance(spec, Conv2d):
            shadow.weights[f"layer{gi}.weight"][drop] = 0.0
        else:
            shadow.weights[f"layer{gi}.weight"][:, drop] = 0.0
        shadow.weights[f"layer{gi}.bias"][drop] = 0.0
    return forward(shadow, x).data
