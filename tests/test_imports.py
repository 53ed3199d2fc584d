"""Import footprint: ``import ridgelab`` loads numpy only, and a run loads
nothing that set-up did not.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy and everything a run needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Set-up as bench/experiment.py does it (parse the config, build the
# target), then the modules that cli.run imports.
RUN_SCRIPT = """
import json, sys, tempfile
from ridgelab import cli
config = cli.parse_config(sys.argv[1])
cli._make_target(config)
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    cli.run(config, out_dir=out)
print(json.dumps(sorted(set(sys.modules) - before)))
"""

SMALL_RUNS = {
    "peano-reconstruct": ("kind = peano-reconstruct\nd = 2\nk = 1\n"
                          "sphere_level = 5\nline_n = 1024\npoints = 20\n"),
    "rate-sweep, schedule none": (
        "kind = rate-sweep\nd = 2\nk = 1\nconstructor = sampling\n"
        "widths = 16, 32, 64\nn_seeds = 2\neval_count = 256\n"),
    "rate-sweep, schedule epsilon": (
        "kind = rate-sweep\nd = 2\nk = 1\ns = 1\nconstructor = quadrature\n"
        "schedule = epsilon\nwidths = 16, 32, 64\neval_count = 256\n"),
}


def _python(*args):
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          check=True)
    return done.stdout.splitlines()[-1]


def test_import_loads_no_scipy():
    out = _python("-c", "import sys, ridgelab, ridgelab.cli; "
                        "print([m for m in sys.modules if m.startswith('scipy')])")
    assert out == "[]"


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_run_imports_nothing_after_setup(name):
    assert json.loads(_python("-c", RUN_SCRIPT, SMALL_RUNS[name])) == []
