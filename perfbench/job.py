"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py setup CONFIG
    python3 perfbench/job.py pipeline CONFIG OUT_DIR [TRACE_FILE]

``setup`` does everything a pipeline job does before training (import the
package, parse the config, load the inputs) and prints the monotonic clock
when done, so the parent can time it from its own spawn. ``pipeline`` runs
``run_pipeline`` and prints the process's peak resident set size. With
TRACE_FILE, the package's public functions are wrapped first (see
trace_hooks.py) and the spans and counters are written there on exit.

The parent puts the package's source directory on PYTHONPATH.
"""

import json
import resource
import sys
import time


def _setup(config_path: str) -> None:
    import numpy as np

    from dirichlet_pruning.config import parse_config_text
    from dirichlet_pruning.models import load_model
    from dirichlet_pruning.pipeline import load_dataset

    with open(config_path, encoding="utf-8") as f:
        cfg = parse_config_text(f.read())
    load_dataset(cfg, np.random.default_rng(cfg.seed))
    if cfg.model_in:
        load_model(cfg.model_in)
    print(json.dumps({"setup_done": time.monotonic()}))


def _pipeline(config_path: str, out_dir: str, trace_file: str | None) -> None:
    tracer = None
    if trace_file:
        from trace_hooks import Tracer
        tracer = Tracer()
        tracer.install()

    from dirichlet_pruning.config import parse_config_text
    from dirichlet_pruning.pipeline import run_pipeline

    with open(config_path, encoding="utf-8") as f:
        cfg = parse_config_text(f.read())
    cfg.out_dir = out_dir
    run_pipeline(cfg)
    if tracer is not None:
        tracer.dump(trace_file)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}))


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        _setup(argv[1])
    elif argv[:1] == ["pipeline"] and len(argv) in (3, 4):
        _pipeline(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
