"""Pipeline benchmark for dirichlet-pruning: whole jobs, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   (summary table)

Run from the repository root. Each run generates its inputs from --seed,
then times fresh-process jobs through the public API for --seconds:

* setup: import the package, parse the config, load the inputs
  (``setup_s``, median of several set-ups);
* pipeline: ``run_pipeline`` from config to fine-tuned model and artifacts
  (``pipeline_s``, ``peak_rss_mb``, ``final_error_pct``).

Every job passes a correctness gate or counts as failed. With --trace 1,
traced jobs (package functions wrapped from trace_hooks.py) alternate with
untraced ones, and the per-module metrics named in BENCHMARK.json are
reported instead. The last stdout line is the JSON result; everything
before it is for people. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = WORK / "results"

SETUP_MIN = 10
# One BLAS thread: on a shared 2-vCPU host a two-thread GEMM waits on its
# slower thread, which widened the LeNet pipeline_s spread from 0.07 to 0.11.
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s
DETERMINISTIC_ARTIFACTS = ("switches.json", "ranking.csv", "plan.json",
                           "pruned.dpm1", "finetuned.dpm1", "metrics.csv")
E2E_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "final_error_pct": "%"}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")


class SpecError(Exception):
    pass


# ---------------------------------------------------------------------------
# BENCHMARK.json self-check


def check_spec(spec: dict) -> None:
    """Raise SpecError unless BENCHMARK.json keeps the benchmark's limits and
    names exactly what this benchmark produces."""
    from trace_report import known_metrics
    from workloads import WORKLOADS

    def need(cond, msg):
        if not cond:
            raise SpecError(msg)

    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    need(set(spec) == keys, f"top-level keys must be {sorted(keys)}")
    cmd = spec["command"]
    need(isinstance(cmd, list) and 1 <= len(cmd) <= 32
         and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "bad command")
    paths = spec["paths"]
    need(isinstance(paths, list) and 1 <= len(paths) <= 16
         and all(isinstance(p, str) and PATH_RE.fullmatch(p) and ".." not in p.split("/")
                 and not p.startswith("/") for p in paths), "bad paths")
    need(all(any(c.startswith(p + "/") for p in paths) and ".." not in c.split("/")
             for c in cmd if "/" in c),
         "command may name files under the benchmark's paths only")
    secs = spec["run_seconds"]
    need(isinstance(secs, int) and not isinstance(secs, bool) and 1 <= secs <= 60,
         "run_seconds must be a whole number in [1, 60]")

    names = []
    wl = spec["workloads"]
    need(isinstance(wl, list) and 2 <= len(wl) <= 8, "need 2 to 8 workloads")
    for w in wl:
        need(set(w) == {"name", "why"}, f"workload keys: {w}")
        need(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"],
             f"workload {w['name']}: why must be one line of at most 200 characters")
        names.append(w["name"])
    need([w["name"] for w in wl] == list(WORKLOADS),
         f"workloads must be {list(WORKLOADS)} in that order")

    e2e = spec["end_to_end"]
    need(isinstance(e2e, list) and 1 <= len(e2e) <= 16, "need 1 to 16 end-to-end metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys: {m}")
        need(isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25,
             f"{m['name']}: bound must be in (0, 0.25]")
        need(E2E_UNITS.get(m["name"]) == m["unit"] and m["better"] == "lower",
             f"{m['name']}: not a metric this benchmark produces as {m['unit']}")
        names.append(m["name"])
    need({m["name"] for m in e2e} == set(E2E_UNITS),
         f"end-to-end metrics must be {sorted(E2E_UNITS)}")
    setup = [m for m in e2e if m["name"] == "setup_s"][0]
    need(setup["bound"] == max(m["bound"] for m in e2e), "setup_s must have the largest bound")

    per_layer = spec["per_layer"]
    need(isinstance(per_layer, list) and 1 <= len(per_layer) <= 128,
         "need 1 to 128 per-layer metrics")
    known = known_metrics()
    for m in per_layer:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys: {m}")
        need(known.get(m["name"]) == m["unit"],
             f"{m['name']}: not a per-module metric this benchmark produces as {m['unit']}")
        need(m["better"] in ("lower", "higher"), f"{m['name']}: better must be lower|higher")
        names.append(m["name"])
    for m in (*e2e, *per_layer):
        need(isinstance(m["unit"], str) and UNIT_RE.fullmatch(m["unit"]), f"bad unit {m}")
    for n in names:
        need(isinstance(n, str) and NAME_RE.fullmatch(n) is not None, f"bad name {n!r}")
    need(len(names) == len(set(names)), "a name is used twice")
    need(len(json.dumps(spec).encode()) <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SpecError(f"cannot read {path.name}: {e}") from None
    check_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# machine record


def _cpu_steal_s() -> float | None:
    """Host-wide CPU steal time from /proc/stat, in seconds (read-only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dirichlet_pruning").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# jobs


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(args: list[str], env: dict, deadline: float) -> tuple[dict | None, float, str]:
    """Run job.py, killing it at the monotonic deadline; return (its JSON
    result or None, spawn-to-exit seconds, error)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), *args], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, "killed at the run's time limit"
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, wall, f"exit {proc.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall, ""
    except (IndexError, json.JSONDecodeError):
        return None, wall, "no JSON result on stdout"


def setup_once(config: Path, env: dict, deadline: float) -> tuple[float | None, str]:
    t0 = time.monotonic()
    result, _, err = _run_child(["setup", str(config)], env, deadline)
    if result is None:
        return None, err
    return result["setup_done"] - t0, ""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_job(out_dir: Path, config_text: str, baseline_below: float | None) -> tuple[dict, str]:
    """Correctness gate for one finished pipeline job. Returns (facts, error)."""
    import numpy as np
    from dirichlet_pruning.config import parse_config_text
    from dirichlet_pruning.models import (count_flops, count_params, load_model,
                                          prunable_widths)
    from dirichlet_pruning.pruning import (make_plan, plan_from_json, plan_to_json,
                                           ranking_from_csv, ranking_to_csv)
    from workloads import pruned_widths

    cfg = parse_config_text(config_text)
    missing = [n for n in DETERMINISTIC_ARTIFACTS if not (out_dir / n).is_file()]
    if missing:
        return {}, f"missing artifacts {missing}"
    with open(out_dir / "metrics.csv", encoding="utf-8") as f:
        metrics = dict(line.rstrip("\n").split(",", 1) for line in f.readlines()[1:])
    facts = {"final_error": float(metrics["error_percent"]),
             "baseline_error": float(metrics["baseline_error_percent"]),
             "hashes": {n: _sha256(out_dir / n) for n in DETERMINISTIC_ARTIFACTS}}

    original = list(cfg.widths) if cfg.arch == "lenet5" else [cfg.dims[1]]
    final = load_model(out_dir / "finetuned.dpm1")
    if prunable_widths(final) != pruned_widths(original, cfg.rate):
        return facts, (f"pruned widths {prunable_widths(final)} != "
                       f"{pruned_widths(original, cfg.rate)}")
    if (count_params(final), count_flops(final)) != (int(metrics["params"]),
                                                      int(metrics["flops"])):
        return facts, "finetuned.dpm1 params/flops disagree with metrics.csv"

    plan = plan_from_json(out_dir / "plan.json")
    ranking = ranking_from_csv(out_dir / "ranking.csv")
    plan_to_json(plan, out_dir / "roundtrip.json")
    ranking_to_csv(ranking, out_dir / "roundtrip.csv")
    for name, again in (("plan.json", "roundtrip.json"), ("ranking.csv", "roundtrip.csv")):
        if _sha256(out_dir / name) != _sha256(out_dir / again):
            return facts, f"{name} does not round-trip"
    replanned = make_plan(ranking, rate=cfg.rate)
    if set(replanned.keep) != set(plan.keep) or not all(
            np.array_equal(replanned.keep[k], plan.keep[k]) for k in plan.keep):
        return facts, "plan.json is not the top of ranking.csv at the configured rate"
    if baseline_below is not None and not facts["baseline_error"] < baseline_below:
        return facts, f"baseline error {facts['baseline_error']}% not below chance"
    return facts, ""


# ---------------------------------------------------------------------------
# one run


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    import workloads as W

    env = _child_env()
    machine = machine_info()
    steal_before = _cpu_steal_s()
    deadline = time.monotonic() + RUN_LIMIT_S

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    instance_seeds = W.instance_seeds(workload, seed)[:1 if trace else None]
    configs = []
    for i, inst_seed in enumerate(instance_seeds):
        text = W.make_inputs(workload, inst_seed, str(work / f"inputs{i}"))
        path = work / f"inputs{i}" / "config.txt"
        path.write_text(text, encoding="utf-8")
        configs.append((path, text))
    baseline_below = W.CHANCE_ERROR_PCT if workload == "lenet_analytic" else None

    attempted = failed = 0
    errors: list[str] = []

    # untimed warm-up: byte-compiles the package and fills the page cache
    setup_once(configs[0][0], env, deadline)
    setup_times: list[float] = []

    def timed_setup():
        nonlocal attempted, failed
        attempted += 1
        r = len(setup_times)
        secs, err = setup_once(configs[r % len(configs)][0], env, deadline)
        if secs is None:
            failed += 1
            errors.append(f"setup {r}: {err}")
        else:
            setup_times.append(secs)

    untraced: list[dict] = []
    traced: list[dict] = []
    first_hashes: dict[int, dict] = {}
    min_jobs = 4 if trace else len(configs) + 1  # every instance, one repeat
    job = 0
    loop_start = time.monotonic()
    longest = 0.0
    while job < min_jobs or time.monotonic() - loop_start < seconds:
        if time.monotonic() + 1.5 * longest > deadline:
            errors.append(f"stopped after {job} jobs to end within the run limit")
            break
        inst = job % len(configs)
        is_traced = trace and job % 2 == 1
        if not trace:
            timed_setup()  # spread over the run, so one slow moment weighs little
        config, text = configs[inst]
        out_dir = work / f"job{job}"
        args = ["pipeline", str(config), str(out_dir)]
        if is_traced:
            args.append(str(work / f"trace{job}.npz"))
        attempted += 1
        result, wall, err = _run_child(args, env, deadline)
        longest = max(longest, wall)
        if result is not None:
            try:
                facts, err = check_job(out_dir, text, baseline_below)
            except Exception as e:  # a gate that cannot read an artifact fails the job
                facts, err = {}, f"gate raised {type(e).__name__}: {e}"
            if not err:
                known = first_hashes.setdefault(inst, facts["hashes"])
                if known != facts["hashes"]:
                    changed = sorted(n for n in known if known[n] != facts["hashes"][n])
                    err = f"artifacts differ between repeats of one seed: {changed}"
        if err:
            failed += 1
            errors.append(f"job {job} (instance {inst}): {err}")
        else:
            record = {"instance": inst, "pipeline_s": wall,
                      "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
                      "final_error": facts["final_error"]}
            if is_traced:
                record["trace"] = str(work / f"trace{job}.npz")
            (traced if is_traced else untraced).append(record)
        shutil.rmtree(out_dir, ignore_errors=True)
        job += 1

    for _ in range(0 if trace else SETUP_MIN - len(setup_times)):
        timed_setup()

    steal_after = _cpu_steal_s()
    machine["cpu_steal_s_before"] = steal_before
    machine["cpu_steal_s_after"] = steal_after
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {workload}, seed {seed}, instance seeds {instance_seeds}, "
          f"{'traced' if trace else 'untraced'} run of {seconds}s: "
          f"{len(untraced)} untraced + {len(traced)} traced jobs ok, "
          f"{failed} of {attempted} operations failed")
    if steal_before is not None and steal_after is not None:
        print(f"cpu steal during run: {steal_after - steal_before:.2f}s (host-wide)")
    for e in errors:
        print("error: " + e)

    if trace:
        metrics, ok = _trace_metrics(traced, untraced, spec)
        if not ok:
            failed += 1
            attempted += 1
    else:
        errors_by_instance = {}
        for rec in untraced:
            errors_by_instance.setdefault(rec["instance"], rec["final_error"])
        if len(errors_by_instance) < len(configs):
            failed += 1
            attempted += 1
            print("error: not every instance finished a job")
        values = {
            "pipeline_s": _median([r["pipeline_s"] for r in untraced]),
            "setup_s": _median(setup_times),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "final_error_pct": (statistics.fmean(errors_by_instance.values())
                                if errors_by_instance else 0.0),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, m in metrics.items():
            print(f"{name:<16} {m['value']:>12.4f} {m['unit']}")
        print(f"(pipeline_s and peak_rss_mb: median of {len(untraced)} jobs; setup_s: median of "
              f"{len(setup_times)} set-ups; final_error_pct: mean over {len(errors_by_instance)} "
              f"instance seeds)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{workload}_seed{seed}_trace{int(trace)}.json", "w",
              encoding="utf-8") as f:
        json.dump({"machine": machine, "workload": workload, "seed": seed,
                   "seconds": seconds, "trace": trace, "setup_s": setup_times,
                   "jobs": untraced + traced, "errors": errors, "result": result},
                  f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def _trace_metrics(traced: list[dict], untraced: list[dict], spec: dict):
    """Per-module medians over the traced jobs; counts must repeat exactly."""
    from trace_report import ROADMAP_BASELINE, known_metrics, metrics_from_trace

    per_job = [metrics_from_trace(r["trace"]) for r in traced]
    ok = bool(per_job) and bool(untraced)
    known = known_metrics()
    extra = sorted({name for m in per_job for name in m} - set(known))
    values = {}
    for name in (*known, *extra):
        samples = [m.get(name, 0.0) for m in per_job]
        if known.get(name) in ("count", "MAC") and len(set(samples)) > 1:
            print(f"error: count {name} differs between traced repeats: {samples}")
            ok = False
        values[name] = _median(samples)
    traced_s = _median([r["pipeline_s"] for r in traced])
    untraced_s = _median([r["pipeline_s"] for r in untraced])
    values["trace.pipeline_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s

    print(f"\nper-module metrics, median of {len(per_job)} traced jobs "
          f"(total = span time, self = total minus traced child spans)")
    print(f"{'metric':<48} {'value':>14}  unit")
    for name in (*known, *extra):
        print(f"{name:<48} {values[name]:>14.6g}  {known.get(name, '(not in known_metrics)')}")
    print(f"\ntracing overhead: traced pipeline_s {traced_s:.3f}s - untraced {untraced_s:.3f}s "
          f"= {traced_s - untraced_s:+.3f}s")
    if values["tensor.conv2d.conv1.fwd_ms_b100"] > 0:
        print("\nLeNet rows against ROADMAP item 1's ad-hoc baselines:")
        for name, base in ROADMAP_BASELINE.items():
            print(f"  {name:<42} {values[name]:>9.3f} {known[name]:<9} (ad hoc: {base})")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return metrics, ok


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, str]:
    """One run in a child process; returns (its JSON result or None, its output)."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in turn, then one table of metrics by name and unit."""
    from workloads import WORKLOADS
    rows = []
    for workload in WORKLOADS:
        result, output = invoke(workload, seed, seconds, trace)
        print(output)
        if result is None:
            return 1
        rows.append((workload, result))
    print(f"\n{'workload':<16} {'metric':<42} {'value':>12}  unit")
    for workload, res in rows:
        for name, m in res["metrics"].items():
            print(f"{workload:<16} {name:<42} {m['value']:>12.4f}  {m['unit']}")
        print(f"{workload:<16} {'failed/attempted':<42} {res['failed']:>8}/{res['attempted']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except SpecError as e:
        print(f"BENCHMARK.json self-check failed: {e}", file=sys.stderr)
        return 2
    if not (SRC / "dirichlet_pruning" / "__init__.py").is_file():
        print(f"package source not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
