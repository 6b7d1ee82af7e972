"""mavar registers its submodules lazily: a process runs only the layers it calls.

Each check runs in a fresh interpreter, since this one has run every layer.
A submodule that is registered but has not run is still a LazyLoader module;
its class becomes types.ModuleType when its code runs.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mavar
from mavar import catalog

SUBMODULES = ["catalog", "checks", "errors", "files", "kernel", "montecarlo", "ordering",
              "perturb", "poisson", "variational"]

# prepended to each child's code: ran() lists the submodules, mavar.cli aside,
# whose code has run
RAN = """
import sys, types
def ran():
    return sorted(name.removeprefix("mavar.") for name, module in sys.modules.items()
                  if name.startswith("mavar.") and name != "mavar.cli"
                  and type(module) is types.ModuleType)
"""


def child(code, *args):
    src = str(Path(mavar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", RAN + code, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def last_line(stream):
    return json.loads(stream.splitlines()[-1])


def test_import_mavar_registers_every_submodule_and_runs_none():
    done = child("""
import json, mavar
print(json.dumps({"ran": ran(), "numpy": "numpy" in sys.modules,
                  "bound": sorted(name for name in mavar.__all__
                                  if sys.modules.get("mavar." + name) is getattr(mavar, name))}))
""")
    assert done.returncode == 0, done.stderr
    assert last_line(done.stdout) == {"ran": [], "numpy": False, "bound": SUBMODULES}


def public_functions(module):
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(value)
                  and value.__module__ == module.__name__)


def test_after_import_mavar_cli_vars_of_each_layer_lists_its_functions():
    # a tracer that wraps each layer's functions reads vars(sys.modules["mavar.<layer>"])
    # right after importing mavar.cli, before any command has run
    done = child("""
import inspect, json
import mavar.cli
before = ran()
layers = {}
for name in sys.argv[1:]:
    module = sys.modules["mavar." + name]
    assert getattr(sys.modules["mavar"], name) is module, name
    layers[name] = sorted(attr for attr, value in vars(module).items()
                          if not attr.startswith("_") and inspect.isfunction(value)
                          and value.__module__ == module.__name__)
print(json.dumps({"before": before, "layers": layers, "after": ran()}))
""", *SUBMODULES)
    assert done.returncode == 0, done.stderr
    seen = last_line(done.stdout)
    assert seen["before"] == ["errors", "files", "kernel"]
    assert seen["after"] == SUBMODULES
    assert seen["layers"] == {name: public_functions(getattr(mavar, name))
                              for name in SUBMODULES}
    assert all(seen["layers"][name] for name in SUBMODULES if name != "errors")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    catalog.dump_fixtures(directory)
    return directory


ANALYSIS = ["checks", "errors", "files", "kernel", "poisson", "variational"]

# each command's arguments, with fixture paths relative to the dumped fixtures,
# and the submodules it runs
COMMANDS = {
    "validate": (["validate", "three-state-pair/P1.json"], ["errors", "files", "kernel"]),
    "analyze": (["analyze", "three-state-pair/P1.json", "three-state-pair/g1.json"],
                ANALYSIS),
    "verify": (["verify", "three-state-pair/P1.json", "three-state-pair/g1.json"],
               ANALYSIS),
    "compare": (["compare", "three-state-pair/P1.json", "three-state-pair/P2.json"],
                ["errors", "files", "kernel", "ordering"]),
    "perturb --gamma": (["perturb", "uniform3/K.json", "--gamma", "uniform3/vorticity.json"],
                        ["errors", "files", "kernel", "ordering", "perturb"]),
    "perturb --lambda": (["perturb", "tridiag-drift/K.json", "--lambda",
                          "tridiag-drift/drift.json"],
                         ["errors", "files", "kernel", "ordering", "perturb"]),
    "simulate": (["simulate", "--n", "1000", "three-state-pair/P1.json",
                  "three-state-pair/g1.json"],
                 ["errors", "files", "kernel", "montecarlo", "poisson"]),
    "reproduce-examples": (["reproduce-examples"],
                           ["catalog", "errors", "files", "kernel", "ordering", "perturb",
                            "poisson"]),
}


@pytest.fixture(scope="module", params=list(COMMANDS))
def command_run(request, fixture_dir):
    """One command in a fresh process: its expected footprint, and what the
    process left in sys.modules at exit."""
    args, footprint = COMMANDS[request.param]
    argv = [str(fixture_dir / arg) if arg.endswith(".json") else arg for arg in args]
    done = child("""
import atexit, json
atexit.register(lambda: print(json.dumps({
    "ran": ran(),
    "loaded": [name for name in ("numpy.random", "_hashlib") if name in sys.modules]}),
    file=sys.stderr))
from mavar.cli import main
main(sys.argv[1:])
""", *argv)
    assert done.returncode == 0, done.stderr
    return footprint, last_line(done.stderr)


def test_each_command_runs_only_the_layers_it_calls(command_run):
    # a stray top-level import in mavar.cli or a layer would show as an extra name
    footprint, seen = command_run
    assert seen["ran"] == footprint


def test_no_command_loads_numpy_random(command_run):
    # numpy.random brings in secrets and _hashlib (libcrypto); verify's probes
    # come from the stdlib's random.Random, and simulate draws numpy's PCG64
    # stream itself
    assert command_run[1]["loaded"] == []


def test_no_source_file_names_numpy_random():
    # a lazy import inside a function would pass the test above until a
    # command reached it
    src = Path(mavar.__file__).resolve().parent
    named = [path.name for path in sorted(src.rglob("*.py"))
             if re.search(r"\b(numpy|np)\.random\b", path.read_text(encoding="utf-8"))]
    assert named == []
