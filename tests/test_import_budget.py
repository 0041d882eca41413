"""A rules-only process loads no ML stack, and a learning one loads no scipy.

numpy belongs to the learning ensemble and the rule miner, and importing
it is about half of a rules-only daemon's start-up and a quarter of its
peak memory. The pipeline builds its ensemble at the first fit and the CLI
imports the miner only where it induces, so importing the service or the
CLI, and serving and resuming a ``training=0`` root, must leave numpy and
scipy out of ``sys.modules``. The ensemble's sparse algebra is
``repro.learning.sparse`` on numpy alone, so a learning daemon loads numpy
and never scipy: serving and resuming a ``training=120`` root must work
with every scipy import made to fail. Each check runs in a fresh
interpreter, because this one has long since imported both.

The same holds for the HTTP console: ``http.server`` pulls in
``http.client``, ``email`` and ``ssl``, and only ``repro serve`` uses
them, so ``repro.service`` resolves the console on first access.
Importing it, and serving and resuming either root, must leave
``http.server``, ``ssl`` and ``email`` out of ``sys.modules`` too. The
last two checks keep the gate honest: the console still resolves, and
induction still runs.

Nor does a served world compile what it never runs. The package
``__init__`` modules re-export through :func:`repro.lazy_exports`, so the
sampling and statistics helpers, the rule DSL, its explainer, persistence
and property checks, the crowd, the feedback loop, drift injection, the
sharded executor, the exporters, the dashboard and the harness stay out
of ``sys.modules`` while a root of either config serves and resumes.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.gates

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

WATCHED = ("email", "http.server", "numpy", "scipy", "ssl")

#: Modules no served world executes, whatever its config.
NEVER_SERVED = (
    "repro.catalog.drift",
    "repro.chimera.analysis",
    "repro.core.explain",
    "repro.core.language",
    "repro.core.persistence",
    "repro.core.properties",
    "repro.crowd",
    "repro.execution.parallel",
    "repro.observability.exporters",
    "repro.service.dashboard",
    "repro.service.harness",
    "repro.utils.sampling",
    "repro.utils.stats",
    "repro.utils.vectors",
)


def _report(watched):
    return (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(set({watched!r}) & set(sys.modules))))\n"
    )

SERVE = """
import sys
from repro.service import ServiceConfig, StreamService

root, training, batches = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
service = StreamService(root, ServiceConfig(seed=7, training=training), fsync=False).start()
for _ in range(batches):
    service.process_batch()
digest = service.digest_chain
service.close()
resumed = StreamService(root, fsync=False).start()
assert resumed.digest_chain == digest
resumed.close()
"""


def _fresh(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(code, cwd, *argv, watched=WATCHED):
    """The ``watched`` modules left in ``sys.modules`` by ``code`` run alone."""
    return json.loads(_fresh(["-c", code + _report(watched), *argv], cwd).splitlines()[-1])


def _serve(tmp_path, training, batches, watched=WATCHED):
    return _loaded(
        SERVE, tmp_path, str(tmp_path / "root"), str(training), str(batches),
        watched=watched,
    )


def test_importing_the_service_and_the_cli_loads_no_ml_stack(tmp_path):
    assert _loaded("import repro.service", tmp_path) == []
    assert _loaded("import repro.cli", tmp_path) == []


def test_a_rules_only_service_serves_and_resumes_without_the_ml_stack(tmp_path):
    assert _serve(tmp_path, training=0, batches=3) == []


def test_a_learning_service_still_loads_the_ml_stack(tmp_path):
    assert _serve(tmp_path, training=120, batches=1) == ["numpy"]


@pytest.mark.parametrize("training", [0, 120])
def test_a_served_world_compiles_no_module_it_never_runs(tmp_path, training):
    assert _serve(tmp_path, training=training, batches=2, watched=NEVER_SERVED) == []


def test_the_lazy_names_still_resolve(tmp_path):
    code = (
        "import repro.catalog, repro.chimera, repro.core, repro.execution\n"
        "import repro.observability, repro.service, repro.utils\n"
        "from repro.core import parse_rules, explain_verdict, save_ruleset\n"
        "from repro.core import check_order_independence\n"
        "from repro.catalog import DriftInjector\n"
        "from repro.chimera import FeedbackLoop\n"
        "from repro.execution import PartitionedExecutor\n"
        "from repro.observability import render_report\n"
        "from repro.service import render_dashboard, run_service\n"
        "from repro.utils import mean, reservoir_sample, SparseVector\n"
        "assert repro.core.language.parse_rules is parse_rules\n"
    )
    loaded = _loaded(code, tmp_path, watched=NEVER_SERVED)
    assert loaded == sorted(NEVER_SERVED)


def test_a_learning_service_serves_and_resumes_with_scipy_unimportable(tmp_path):
    # A None entry in sys.modules makes every ``import scipy...`` raise.
    code = "import sys\nsys.modules['scipy'] = None\n" + SERVE
    _fresh(["-c", code, str(tmp_path / "root"), "120", "3"], tmp_path)


def test_the_console_still_resolves(tmp_path):
    code = "from repro.service import ServiceHttpServer, serve\n"
    assert _loaded(code, tmp_path) == ["email", "http.server", "ssl"]


def test_rulegen_subcommand_still_induces(tmp_path):
    out = tmp_path / "rules.json"
    stdout = _fresh(
        ["-m", "repro.cli", "rulegen", "--training", "200", "--out", str(out)],
        tmp_path,
    )
    assert stdout.startswith("mined ")
    assert json.loads(out.read_text())["rules"]
