"""The benchmark's hooks into the package still resolve.

perfbench/tracing.py wraps functions at the module attributes listed in
its TARGETS, and the workloads' probes call package functions by name.
Both live outside the package, so a rename inside it would break a traced
run or a probe without failing any other test.  These tests read those
files, change nothing in them, and check every name against the package,
and every import the package keeps only for the tracer against its targets.
"""

import ast
import contextlib
import importlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "betabart"
MODULES = ("cli", "inference", "fit", "cumulants", "simulate", "specfun", "model")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def _modules():
    modules = {name: importlib.import_module(f"betabart.{name}") for name in MODULES}
    modules["package"] = importlib.import_module("betabart")
    return modules


def _probe_names(path):
    """(module, attribute) for every bb.<module>.<attribute> in the file,
    and every <module>.<attribute> on a name that is one of MODULES."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Attribute):
            base = owner.value
            via_bb = (isinstance(base, ast.Name) and base.id == "bb") or (
                isinstance(base, ast.Attribute) and base.attr == "bb"
            )
            if via_bb:
                names.add((owner.attr, node.attr))
        elif isinstance(owner, ast.Name) and owner.id in MODULES:
            names.add((owner.id, node.attr))
    return names


# A name imported only so that the tracer can wrap it carries this comment.
TRACER_ONLY = re.compile(
    r"^\s*(\w+),\s*# noqa: F401\s+kept as a module attribute for span tracers"
)


def test_tracer_only_imports_are_targets(tracing):
    # Each import kept for the tracer must still be one of its targets; once
    # the tracer stops wrapping a name, this test names the import to drop.
    marked = set()
    for name in MODULES:
        source = (SRC / f"{name}.py").read_text().splitlines()
        marked.update((name, m[1]) for m in map(TRACER_ONLY.match, source) if m)
    assert marked >= {
        ("inference", "bartlett_factor"),
        ("inference", "fit_mle"),
        ("inference", "fit_restricted"),
        ("simulate", "run_test"),
        ("simulate", "gen_beta_sample"),
    }
    for module, attr in sorted(marked):
        assert (module, attr) in tracing.TARGETS, f"{module}.{attr}"


def test_tracing_targets_resolve(tracing):
    modules = _modules()
    assert tracing.TARGETS
    for module, attr in tracing.TARGETS:
        assert callable(getattr(modules[module], attr)), f"{module}.{attr}"


@pytest.mark.parametrize("filename", ["workloads.py", "run.py"])
def test_probe_names_resolve(filename):
    modules = _modules()
    names = _probe_names(BENCH / filename)
    assert names
    for module, attr in names:
        assert hasattr(modules[module], attr), f"{filename}: {module}.{attr}"


def test_traced_ops_run(tracing):
    # Every target is wrapped, called or not; a test op and a study op
    # run under the wrappers, and the layer metrics are finite numbers.
    modules = _modules()
    tracer = tracing.Tracer(modules)
    study = {
        "n": 20,
        "p": 4,
        "phi_true": 30.0,
        "beta_true": [1.0, 0.0, 0.5, -0.5],
        "restriction": {"indices": [2]},
        "reps": 4,
        "methods": ["lr", "b3"],
    }
    tracer.install(0)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            test_code = modules["cli"].main(
                ["test", "--null", "persons", "--methods", "lr,b3", "--format", "json"]
            )
        document = json.loads(out.getvalue())
        tracer.op = 1
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "study.json"
            config.write_text(json.dumps(study))
            with contextlib.redirect_stdout(io.StringIO()):
                study_code = modules["cli"].main(
                    ["simulate", str(config), "--out", str(Path(tmp) / "out")]
                )
    finally:
        tracer.restore()
    assert test_code == 0 and study_code == 0
    assert set(document["tests"]) == {"lr", "b3"}
    for module, attr in tracing.TARGETS:
        assert not hasattr(getattr(modules[module], attr), "__wrapped__")
    figures = tracing.layer_metrics(tracer.spans, {0: 1.0, 1: 1.0}, [0, 1])
    assert figures
    for name, value in figures.items():
        assert math.isfinite(value), name
