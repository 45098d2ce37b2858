"""Names that code outside the package looks up: the public API list and the traced layers."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import ecoplatoon
from conftest import make_config
from ecoplatoon import constraints, costs, solver
from ecoplatoon.platoon import ControlTrajectory, rollout

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def tracing_sites():
    """The literal ``SITES`` table of the benchmark's tracer, read without running it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SITES":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SITES table in {TRACING}")


@pytest.mark.parametrize("module_name, attr", [site[:2] for site in tracing_sites()])
def test_traced_site_resolves_to_a_callable(module_name, attr):
    # the benchmark wraps each site by module attribute; a rename breaks it silently
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("name", ecoplatoon.__all__)
def test_public_name_imports(name):
    # ``from ecoplatoon import <name>`` looks the name up on the package
    assert hasattr(ecoplatoon, name)


def test_backward_pass_looks_derivatives_up_by_module_attribute(monkeypatch):
    # the benchmark times these two layers by wrapping the module attributes;
    # a by-name import in the solver would bypass the wrappers
    calls = []
    for module, attr in ((costs, "stage_derivatives_batch"), (constraints, "al_derivative_batch")):

        def counted(*args, _fn=getattr(module, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    cfg = make_config(n=3, horizon_steps=20)
    accels = np.zeros((3, 20))
    t0 = -np.arange(3) * cfg.headway
    states = rollout(t0, np.full(3, 1.0 / cfg.target_speed), accels, cfg.ds)
    al = constraints.ALState.initial(cfg, 20, 10.0)
    targets = costs.schedule_targets(cfg, t0)
    solver.backward_pass(
        states, ControlTrajectory(accels=accels), np.zeros(20), cfg, costs.CostWeights(),
        al, targets, 1e-6,
    )
    assert sorted(calls) == ["al_derivative_batch", "stage_derivatives_batch"]


def test_backward_pass_asks_for_derivatives_one_chunk_at_a_time(monkeypatch):
    # the pass streams its derivative series through its build chunks; a
    # batch over more steps than one chunk brings K-long series back
    k_steps = 2 * solver._BUILD_CHUNK + 100
    sizes = {}
    for module, attr in (
        (costs, "stage_derivatives_batch"),
        (constraints, "al_derivative_batch"),
        (solver, "dynamics_derivatives"),
    ):

        def sized(*args, _fn=getattr(module, attr), _attr=attr, **kwargs):
            terms = _fn(*args, **kwargs)
            series = terms[0] if isinstance(terms, tuple) else terms["pi"]
            sizes.setdefault(_attr, []).append(series.shape[0])
            return terms

        monkeypatch.setattr(module, attr, sized)
    cfg = make_config(n=3, horizon_steps=k_steps)
    accels = np.zeros((3, k_steps))
    t0 = -np.arange(3) * cfg.headway
    states = rollout(t0, np.full(3, 1.0 / cfg.target_speed), accels, cfg.ds)
    al = constraints.ALState.initial(cfg, k_steps, 10.0)
    solver.backward_pass(
        states, ControlTrajectory(accels=accels), np.zeros(k_steps), cfg,
        costs.CostWeights(), al, costs.schedule_targets(cfg, t0), 1e-6,
    )
    assert sorted(sizes) == ["al_derivative_batch", "dynamics_derivatives",
                             "stage_derivatives_batch"]
    for counts in sizes.values():
        assert max(counts) <= solver._BUILD_CHUNK
        assert sum(counts) == k_steps


def test_only_the_constraints_module_builds_al_state():
    # constraints.py alone knows the four-per-vehicle layout: other modules
    # take an ALState from ALState.initial or update_multipliers, and read
    # the bounds from the PlatoonConfig, not from a copy of them
    found = []
    for path in sorted(Path(ecoplatoon.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ALState":
                if path.name != "constraints.py":
                    found.append(f"{path.name}:{node.lineno}: ALState(...)")
            elif isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef, ast.ClassDef, ast.alias)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                if name.split(".")[-1] in ("ConstraintSet", "escalate_penalty"):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_only_the_platoon_module_steps_the_dynamics():
    # platoon.rollout_steps is the one rollout of the space-domain dynamics,
    # so the arc's root of v'^2 written into an output appears in platoon.py
    # only, once in each of its two forms: the block form, which takes the
    # root of the whole (N, K) prefix sum of an open loop, and the row form,
    # the per-step loop a feedback law runs
    found = []
    for path in sorted(Path(ecoplatoon.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        spans = [
            (node.lineno, node.end_lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        ]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("np.sqrt", "numpy.sqrt")
                and (len(node.args) > 1 or any(k.arg == "out" for k in node.keywords))
            ):
                # the innermost function around the call
                inside = [s for s in spans if s[0] <= node.lineno <= s[1]]
                name = max(inside)[2] if inside else "<module>"
                found.append(f"{path.name}:{name}: np.sqrt into an output")
    assert sorted(found) == [
        "platoon.py:_open_loop: np.sqrt into an output",
        "platoon.py:_roll: np.sqrt into an output",
    ]


def test_only_the_errors_module_tests_number_types():
    # errors.finite_float and errors.integer_at_least are the package's one
    # number check; a module that imports ``numbers`` is writing another
    importers = []
    for path in sorted(Path(ecoplatoon.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["errors.py"]


def test_only_the_errors_module_tests_finiteness_by_hand():
    # a value type that calls math.isfinite or compares with inf is writing a
    # third number check beside errors.finite_float and errors.integer_at_least
    def is_inf(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "inf"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy", "math")
        )

    found = []
    for path in sorted(Path(ecoplatoon.__file__).parent.rglob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            isfinite = (
                isinstance(node, ast.Attribute)
                and node.attr == "isfinite"
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
            )
            inf_compare = isinstance(node, ast.Compare) and any(
                is_inf(sub)
                for operand in (node.left, *node.comparators)
                for sub in ast.walk(operand)
            )
            if isfinite or inf_compare:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def replace_calls_setting(field):
    """Each ``replace(...)`` call in the package with a ``field=`` keyword, as
    "<file>: <enclosing top-level name, or its line>"."""
    found = []
    for path in sorted(Path(ecoplatoon.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "replace"
                    and any(kw.arg == field for kw in node.keywords)
                ):
                    found.append(f"{path.name}: {getattr(top, 'name', top.lineno)}")
    return found


def test_only_override_ds_changes_the_resolution():
    # scenario.override_ds is the one place a config gets a new ds: the
    # solver coarsens by step grids over the caller's ds, never by a config
    # of its own
    assert replace_calls_setting("ds") == ["scenario.py: override_ds"]


def test_only_override_ds_and_the_receding_loop_derive_a_horizon():
    # a config gets a new horizon_steps in two places: override_ds with its
    # new ds, and receding_horizon_run for each window's step grid
    assert replace_calls_setting("horizon_steps") == [
        "scenario.py: override_ds",
        "solver.py: receding_horizon_run",
    ]


def file_writes(tree):
    """What in ``tree`` can write a file: temporary files, renames, Path
    writes and any ``open`` whose mode is not a literal read-only one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("os", "tempfile"):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and (
            node.attr in ("mkstemp", "fdopen", "write_text", "write_bytes")
            or node.attr == "replace" and ast.unparse(node.value) == "os"
        ):
            found.append(node.attr)
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "open":
            # open(path, mode) and os.open(path, flags), but Path.open(mode)
            builtin = ast.unparse(node.func) in ("open", "io.open", "os.open")
            modes = [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]
            modes += node.args[int(builtin) : int(builtin) + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)).isdisjoint("wax+")):
                found.append(f"open({ast.unparse(mode)})")
    return found


def test_only_atomic_write_writes_files():
    # cli.atomic_write is the package's one writer: a temporary file beside
    # the target, renamed over it only once every chunk is written
    outside, inside = [], []
    for path in sorted(Path(ecoplatoon.__file__).parent.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            writes = file_writes(node)
            if path.name == "cli.py" and getattr(node, "name", None) == "atomic_write":
                inside += writes
            else:
                outside += [f"{path.name}:{node.lineno}: {what}" for what in writes]
    assert outside == []
    assert sorted(inside) == ["fdopen", "mkstemp", "replace"]
