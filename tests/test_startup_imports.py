"""Each command imports only what it runs.

Every command is a fresh process, so each module a command imports costs it
start-up time whether it runs the module or not. `synthgen` is imported only
by `synth`, `baselines` only by `synth` and `baseline`, and
`ProcessPoolExecutor` (which loads `multiprocessing`) only by scoring with
more than one worker. The records are NamedTuples, so no command but
`synth` (whose generator keeps its own dataclasses) loads `dataclasses` or
runs the code it generates for each class. Each command here runs in a
child process, which reports the modules it ended with.
"""

import json
import os
import subprocess
import sys

import pytest

import logcurator
from logcurator import cli
from logcurator.baselines import ForecastError  # the moved names are re-exported
from logcurator.synthgen import PLANS, TEMPLATES, ScenarioError

CHILD = (
    "import json, sys\n"
    "from logcurator import cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(rc)\n"
)
NEVER = ("logcurator.synthgen", "multiprocessing", "concurrent.futures", "dataclasses")
SYNTH = ["synth", "--snippets", "3", "--frames", "20", "--seed", "3", "--jitter"]


def run_child(*argv) -> tuple:
    """(exit code, modules loaded) of `cli.main(argv)` in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("CURATOR_JOBS", None)
    src = os.path.dirname(os.path.dirname(logcurator.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, set(json.loads(lines[-1])) if lines else set()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    pool, forecasts = str(root / "pool.jsonl"), str(root / "forecasts.jsonl")
    assert cli.main([*SYNTH, "--out", pool, "--forecasts", forecasts]) == 0
    config = root / "config.json"
    config.write_text(
        json.dumps({"tasks": [{"name": "busy", "weights": {"crowd_dynamic": 1.0}, "budget": 1}]})
    )
    assert cli.main(["score", pool, "--out", str(root / "feats")]) == 0
    return {"root": root, "pool": pool, "forecasts": forecasts, "config": str(config)}


COMMANDS = {
    "schema": lambda ws: ["schema"],
    "score": lambda ws: ["score", ws["pool"], "--out", str(ws["root"] / "feats_child")],
    "curate --features": lambda ws: [
        "curate", ws["pool"], "--config", ws["config"], "--features", str(ws["root"] / "feats"),
        "--out", str(ws["root"] / "result.json"),
    ],
    "baseline --method random": lambda ws: [
        "baseline", ws["pool"], "--method", "random", "-k", "2", "--out", str(ws["root"] / "random.json"),
    ],
    "baseline --method entropy": lambda ws: [
        "baseline", ws["pool"], "--method", "entropy", "-k", "2", "--forecasts", ws["forecasts"],
        "--out", str(ws["root"] / "entropy.json"),
    ],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_module_it_does_not_run(ws, command):
    code, modules = run_child(*COMMANDS[command](ws))
    assert code == 0
    assert "logcurator.features" in modules  # the child did report its modules
    assert not modules & set(NEVER), sorted(modules & set(NEVER))
    assert ("logcurator.baselines" in modules) == command.startswith("baseline")


def test_commands_that_run_the_deferred_modules_still_run(ws):
    root = ws["root"]
    out = ["--out", str(root / "s" / "pool.jsonl"), "--forecasts", str(root / "s" / "forecasts.jsonl")]
    code, modules = run_child(*SYNTH, *out)
    assert code == 0
    assert {"logcurator.synthgen", "logcurator.baselines"} <= modules


def test_the_moved_names_are_the_ones_main_catches():
    assert ScenarioError in cli.DOMAIN_ERRORS and ForecastError in cli.DOMAIN_ERRORS
    params = cli.cli.commands["synth"].params
    choices = {p.name: tuple(p.type.choices) for p in params if p.name in ("template", "plan")}
    assert choices == {"template": TEMPLATES, "plan": PLANS}
