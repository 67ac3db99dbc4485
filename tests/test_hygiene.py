"""Source hygiene checks over the package, with the stdlib ast module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dirichlet_pruning"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _module_level_names(tree) -> list[tuple[str, int]]:
    """(name, line) of each function, class and plain assignment at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return names


def _references(tree) -> set[str]:
    """Names a module loads, reads as an attribute or imports by name."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (``_x``, not dunders) that no module in
    ``sources`` (file name -> source) loads, reads as an attribute or imports."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, ident, line) for ident, line in _module_level_names(tree)]
        referenced |= _references(tree)
    return sorted(f"{module}: {ident} (line {line})" for module, ident, line in defined
                  if ident.startswith("_") and not ident.endswith("__")
                  and ident not in referenced)


def _dead_public_names(sources: dict[str, str], demos: dict[str, str]) -> list[str]:
    """Module-level public names (no leading ``_``) of the package modules in
    ``sources`` that nothing uses: not their own module, not another package
    module (an ``__init__.py`` re-export does not count), not a demo script
    in ``demos`` (file name -> source)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = {module: _references(tree) for module, tree in trees.items()}
    used_outside = set().union(*(_references(ast.parse(s)) for s in demos.values()))
    dead = []
    for module, tree in trees.items():
        used = used_outside.union(*(r for m, r in refs.items()
                                    if m not in ("__init__.py", module)), refs[module])
        dead += [f"{module}: {ident} (line {line})" for ident, line in _module_level_names(tree)
                 if not ident.startswith("_") and ident not in used]
    return sorted(dead)


def _package_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def _demo_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))}


def test_unused_import_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom .a import b, c\n"
              "np.zeros(1)\nc()\n")
    assert _unused_imports(source) == ["b (line 4)", "os (line 2)"]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    assert _unused_imports(path.read_text()) == []


def test_dead_private_scan_sees_unreferenced_names():
    sources = {
        "a.py": ("__version__ = '1'\n_LIMIT = 3\n_unused_const = 4\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _dead():\n    pass\n"
                 "class _Shape:\n    pass\n"),
        "b.py": "from .a import _helper\nimport a\n_helper()\na._Shape()\n",
    }
    assert _dead_private_names(sources) == ["a.py: _dead (line 6)",
                                            "a.py: _unused_const (line 3)"]
    # a helper whose last caller is gone is caught in the real package too
    sources = _package_sources()
    sources["switch.py"] += "\n\ndef _taped_mean(theta):\n    return theta\n"
    assert [f.split(" (")[0] for f in _dead_private_names(sources)] == [
        "switch.py: _taped_mean"]


def test_no_dead_private_names():
    assert _dead_private_names(_package_sources()) == []


def test_dead_public_scan_sees_unused_names():
    sources = {
        "__init__.py": "from .a import dead, exported\n__version__ = '1'\n",
        "a.py": ("LIMIT = 3\nUNUSED = 4\n"
                 "def helper():\n    return LIMIT\n"
                 "def exported():\n    return helper()\n"
                 "class Shape:\n    pass\n"
                 "def dead():\n    pass\n"),
        "b.py": "from .a import Shape\nShape()\n",
    }
    demos = {"demo.py": "from pkg.a import exported\nexported()\n"}
    assert _dead_public_names(sources, demos) == ["a.py: UNUSED (line 2)",
                                                  "a.py: dead (line 9)"]
    # a function whose last caller is gone is caught in the real package too,
    # even when __init__.py still re-exports it
    sources = _package_sources()
    sources["pruning.py"] += "\n\ndef compose_plans(first, second):\n    return first\n"
    sources["__init__.py"] += "from .pruning import compose_plans\n"
    assert [f.split(" (")[0] for f in _dead_public_names(sources, _demo_sources())] == [
        "pruning.py: compose_plans"]


def test_no_dead_public_names():
    assert _dead_public_names(_package_sources(), _demo_sources()) == []


def _uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the package modules in ``sources``
    that no library module reads, by a name or an attribute. ``__init__.py``
    does not count, and neither does an import: code kept only for tests
    and demos belongs with them, not in the library."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for module, tree in trees.items():
        if module != "__init__.py":
            used.update(node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Name, ast.Attribute)))
    return sorted(f"{module}: {node.name} (line {node.lineno})"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in used)


def test_uncalled_definition_scan_sees_test_only_code():
    sources = {
        "__init__.py": "from .a import exported, oracle\n",
        "a.py": ("def helper():\n    return 1\n"
                 "def exported():\n    return helper()\n"
                 "class Shape:\n    pass\n"
                 "def oracle():\n    pass\n"),
        "b.py": "from .a import Shape, exported\nimport a\na.Shape()\n",
    }
    assert _uncalled_definitions(sources) == ["a.py: exported (line 3)",
                                              "a.py: oracle (line 7)"]
    # a kernel that only tests call is caught in the real package too, even
    # when __init__.py re-exports it
    sources = _package_sources()
    sources["special.py"] += "\n\ndef trigamma_batch(x):\n    return x\n"
    sources["__init__.py"] += "from .special import trigamma_batch\n"
    assert [f.split(" (")[0] for f in _uncalled_definitions(sources)] == [
        "special.py: trigamma_batch"]


def test_every_library_definition_has_a_library_caller():
    assert _uncalled_definitions(_package_sources()) == []


def _print_calls(sources: dict[str, str]) -> list[str]:
    """Calls to ``print`` in the package modules of ``sources`` other than
    cli.py; the library reports progress through the ``dirichlet_pruning``
    logger, and only the command line writes to stdout."""
    found = []
    for module, source in sources.items():
        if module == "cli.py":
            continue
        found += [f"{module}: line {node.lineno}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print"]
    return sorted(found)


def test_print_scan_sees_calls_outside_the_cli():
    sources = {
        "cli.py": "print('summary')\n",
        "a.py": "def f(log):\n    log('x')\n    print('y', file=None)\n",
        "b.py": "pprint = print\nx = 'print(1)'\n",
    }
    assert _print_calls(sources) == ["a.py: line 3"]
    # a print put back into the library is caught in the real package too
    sources = _package_sources()
    sources["pruning.py"] += "\n\ndef _say(msg):\n    print(msg)\n"
    assert [f.split(": ")[0] for f in _print_calls(sources)] == ["pruning.py"]


def test_no_print_outside_the_cli():
    assert _print_calls(_package_sources()) == []


def _imports_module(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` (dotted) or any name from it."""
    package, _, leaf = module.rpartition(".")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == module for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom):
            if node.module == module:
                return True
            if node.module == package and any(a.name == leaf for a in node.names):
                return True
    return False


def test_import_scan_sees_every_form():
    for source in ("from dirichlet_pruning.pruning import apply_plan\n",
                   "import dirichlet_pruning.pruning\n",
                   "from dirichlet_pruning import models, pruning\n"):
        assert _imports_module(source, "dirichlet_pruning.pruning"), source
    assert not _imports_module("from dirichlet_pruning.models import forward\n",
                               "dirichlet_pruning.pruning")


def test_masked_oracle_imports_nothing_from_pruning():
    # the oracle checks apply_plan; sharing its code would share its mistakes
    source = (ROOT / "tests" / "masked_oracle.py").read_text()
    assert not _imports_module(source, "dirichlet_pruning.pruning")


def _artifact_names(source: str) -> list[str]:
    """String constants in ``source``, f-string parts included, that end like
    an artifact file name (.json, .csv, .dpm1)."""
    return sorted(f"{node.value} (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.endswith((".json", ".csv", ".dpm1")))


def test_artifact_name_scan_sees_every_literal():
    source = ('PLAN = "plan.json"\n'
              'def f(out):\n'
              '    return f"{out}/ranking.csv", "m.dpm1", "a.json.gz", "csv"\n')
    assert _artifact_names(source) == ["/ranking.csv (line 3)", "m.dpm1 (line 3)",
                                       "plan.json (line 1)"]
    # a default name put back into the real cli.py is caught too
    source = (PACKAGE / "cli.py").read_text() + '\n\nDEFAULT = "switches.json"\n'
    assert [n.split(" (")[0] for n in _artifact_names(source)] == ["switches.json"]


def test_cli_spells_no_artifact_name():
    # each artifact's config key and default file name live in pipeline.py
    assert _artifact_names((PACKAGE / "cli.py").read_text()) == []


# the layer specs, and the tensor ops that apply a layer or fold a switch
_LAYER_NAMES = {"Conv2d", "FullyConnected", "Relu", "MaxPool2d", "Flatten",
                "matmul", "conv2d", "maxpool2d", "scale_input_channels"}


def test_layer_name_scan_sees_the_fold_in_models():
    # models.forward applies every layer and folds every switch, so a scan
    # that misses any of these names there would miss it in switch.py too
    assert _LAYER_NAMES <= _references(ast.parse((PACKAGE / "models.py").read_text()))


def test_switch_module_leaves_layers_and_the_fold_to_forward():
    # the fold's layout (a conv kernel scaled along c_in, an fc weight in
    # groups of H*W rows, draws stacked on the output axis) lives in
    # tensor.scale_input_channels and models.forward only; switch.py runs
    # its consumer through forward
    source = (PACKAGE / "switch.py").read_text()
    assert sorted(_LAYER_NAMES & _references(ast.parse(source))) == []


def _sites(sources: dict[str, str], hit) -> list[str]:
    """``module: function`` of each node for which ``hit(node)`` holds, by
    the innermost def around it."""
    sites = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            sites.append(f"{module}: {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sites


def _divides_by_255(node) -> bool:
    """A division by 255, the 8-bit pixel scale: ``a / 255`` or ``a /= 255``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        divisor = node.right if isinstance(node, ast.BinOp) else node.value
        return isinstance(divisor, ast.Constant) and divisor.value == 255
    return False


def _pixel_scale_sites(sources: dict[str, str]) -> list[str]:
    """``module: function`` of each function that divides by 255."""
    return _sites(sources, _divides_by_255)


def test_pixel_scale_scan_sees_every_form():
    source = ("def a(x):\n    return x / 255.0\n"
              "def b(x):\n    x /= 255\n    return x * 255.0\n"
              "def c(x):\n    def inner():\n        return x / 255\n    return inner\n"
              "d = 3 / 255\n")
    assert _pixel_scale_sites({"m.py": source}) == [
        "m.py: a", "m.py: b", "m.py: inner", "m.py: <module>"]


def test_pixel_scale_lives_in_forward_only():
    # IDX images stay uint8; models.forward is the one place that turns a
    # batch of them into the graph's float64 [0, 1] input
    assert _pixel_scale_sites(_package_sources()) == ["models.py: forward"]


def _xor_sites(sources: dict[str, str]) -> list[str]:
    """``module: function`` of each function that takes a bitwise XOR, as
    ``a ^ b``, ``a ^= b``, ``np.logical_xor`` or ``np.bitwise_xor``: how a
    first-maximum mask drops the windows an earlier tap already took."""
    return _sites(sources, lambda node: (
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitXor)
        or isinstance(node, ast.Attribute) and node.attr in ("logical_xor", "bitwise_xor")))


def test_xor_scan_sees_every_form():
    source = ("def a(f, h):\n    f ^= h\n"
              "def b(f, h):\n    return f ^ h\n"
              "def c(f, h):\n    return np.logical_xor(f, h)\n"
              "def d(f, h):\n    return np.bitwise_xor(f, h) | (f & h)\n")
    assert _xor_sites({"m.py": source}) == ["m.py: a", "m.py: b", "m.py: c", "m.py: d"]
    # the reference pool, put back into tensor.py, is caught too
    sources = _package_sources()
    sources["tensor.py"] += (ROOT / "tests" / "pool_oracle.py").read_text()
    assert _xor_sites(sources) == ["tensor.py: _pool_tiles", "tensor.py: maxpool2d"]


def test_one_library_function_builds_first_max_masks():
    # maxpool2d and the pool inside conv2d share one pool kernel
    assert _xor_sites(_package_sources()) == ["tensor.py: _pool_tiles"]


def _stride_parameters(source: str) -> list[str]:
    """``function(parameter)`` of each parameter, of any function, whose name
    holds ``stride``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            found += [f"{getattr(node, 'name', 'lambda')}({a.arg})"
                      for a in args.posonlyargs + args.args + args.kwonlyargs
                      if "stride" in a.arg]
    return found


def test_no_tensor_op_takes_a_stride():
    # every conv runs at stride 1 and every pool at its window; the scan sees
    # the signatures the ops once had
    assert _stride_parameters("def conv2d(x, k, stride=1, padding=0): pass\n"
                              "def maxpool2d(x, k, *, stride): pass\n") == [
        "conv2d(stride)", "maxpool2d(stride)"]
    assert _stride_parameters((PACKAGE / "tensor.py").read_text()) == []
