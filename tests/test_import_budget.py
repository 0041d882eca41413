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

Both serving checks run as ``python -S -s``, which sees no site-packages:
the rules-only root on ``src`` alone, the learning one on ``src`` plus a
directory holding only numpy, as a virtual environment with nothing (or
only numpy) installed would. Each digest chain is pinned by its prefix,
so every interpreter version that runs the suite must reach the same one.
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
    "repro.learning.logistic",
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
print(digest)
"""

#: The seed-7 digest chains after five batches, ``training`` 0 and 120.
RULES_ONLY_DIGEST = "cc3d6907c8081cda"
LEARNING_DIGEST = "60c6ddfefee6133a"


def _fresh(args, cwd, site=None):
    """``python *args`` run to completion in a fresh interpreter.

    With ``site`` given, the child runs as ``python -S -s`` and imports
    from ``src`` and the directories in ``site`` alone; otherwise it sees
    this interpreter's packages."""
    env = dict(os.environ)
    if site is None:
        flags, path = (), [SRC, env.get("PYTHONPATH")]
    else:
        flags, path = ("-S", "-s"), [SRC, *site]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    done = subprocess.run(
        [sys.executable, *flags, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


def _loaded(code, cwd, *argv, watched=WATCHED):
    """The ``watched`` modules left in ``sys.modules`` by ``code`` run alone."""
    stdout = _fresh(["-c", code + _report(watched), *argv], cwd).stdout
    return json.loads(stdout.splitlines()[-1])


def _serve(tmp_path, training, batches, watched=WATCHED, site=None):
    """(digest chain, ``watched`` modules loaded) after serving, closing
    and resuming a seed-7 root at ``tmp_path / "root"``."""
    code = SERVE + _report(watched)
    argv = [str(tmp_path / "root"), str(training), str(batches)]
    digest, loaded = _fresh(["-c", code, *argv], tmp_path, site).stdout.splitlines()[-2:]
    return digest, json.loads(loaded)


@pytest.fixture
def numpy_only(tmp_path):
    """A directory holding numpy (and its bundled libraries) and nothing else."""
    import numpy

    packages = os.path.dirname(os.path.dirname(numpy.__file__))
    site = tmp_path / "numpy-only"
    site.mkdir()
    for name in ("numpy", "numpy.libs"):
        if os.path.exists(os.path.join(packages, name)):
            os.symlink(os.path.join(packages, name), site / name)
    return str(site)


def test_importing_the_service_and_the_cli_loads_no_ml_stack(tmp_path):
    assert _loaded("import repro.service", tmp_path) == []
    assert _loaded("import repro.cli", tmp_path) == []


def test_a_rules_only_service_serves_and_resumes_without_the_ml_stack(tmp_path):
    """On a bare interpreter; then ``repro serve`` resumes the same root
    and brings its console up."""
    digest, loaded = _serve(tmp_path, training=0, batches=5, site=())
    assert digest.startswith(RULES_ONLY_DIGEST) and loaded == []
    root = str(tmp_path / "root")
    serve = ["-m", "repro.cli", "serve", "--root", root, "--batches", "6", "--quiet"]
    assert f"serving {root} on http://" in _fresh(serve, tmp_path, site=()).stderr


def test_a_learning_service_still_loads_the_ml_stack(tmp_path):
    assert _serve(tmp_path, training=120, batches=1)[1] == ["numpy"]


@pytest.mark.parametrize("training", [0, 120])
def test_a_served_world_compiles_no_module_it_never_runs(tmp_path, training):
    assert _serve(tmp_path, training=training, batches=2, watched=NEVER_SERVED)[1] == []


def test_the_lazy_names_still_resolve(tmp_path):
    code = (
        "import repro.catalog, repro.chimera, repro.core, repro.execution\n"
        "import repro.observability, repro.service, repro.utils\n"
        "from repro.core import parse_rules, explain_verdict, save_ruleset\n"
        "from repro.core import check_order_independence\n"
        "from repro.catalog import DriftInjector\n"
        "from repro.chimera import FeedbackLoop\n"
        "from repro.execution import PartitionedExecutor\n"
        "from repro.learning import LogisticRegressionClassifier\n"
        "from repro.observability import render_report\n"
        "from repro.service import render_dashboard, run_service\n"
        "from repro.utils import mean, reservoir_sample, SparseVector\n"
        "assert repro.core.language.parse_rules is parse_rules\n"
    )
    loaded = _loaded(code, tmp_path, watched=NEVER_SERVED)
    assert loaded == sorted(NEVER_SERVED)


def test_a_learning_service_serves_and_resumes_with_scipy_unimportable(tmp_path, numpy_only):
    digest, loaded = _serve(
        tmp_path, training=120, batches=5, watched=("scipy",), site=(numpy_only,)
    )
    assert digest.startswith(LEARNING_DIGEST) and loaded == []


def test_the_console_still_resolves(tmp_path):
    code = "from repro.service import ServiceHttpServer, serve\n"
    assert _loaded(code, tmp_path) == ["email", "http.server", "ssl"]


def test_rulegen_subcommand_still_induces(tmp_path):
    out = tmp_path / "rules.json"
    stdout = _fresh(
        ["-m", "repro.cli", "rulegen", "--training", "200", "--out", str(out)],
        tmp_path,
    ).stdout
    assert stdout.startswith("mined ")
    assert json.loads(out.read_text())["rules"]
