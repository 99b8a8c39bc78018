"""Start-up contract: scipy is imported only when the surrogate fits.

Only the surrogate's local fits need LAPACK, so a fresh interpreter that
imports `wellopt`, builds a sphere and a well problem, runs a few
generations of `cma` and `ga` on each and scores a genome with
`wellopt evaluate` loads no scipy module. A short `cma+surrogate` run
whose archive passes `min_archive_size` then loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

import wellopt
from wellopt import harness
from wellopt.cli import main
from wellopt.metamodel import SurrogateSettings

after_import = scipy_modules()
for problem in ({"kind": "sphere", "dimension": 3},
                {"kind": "well_placement"}):
    config = harness.RunConfig(problem, max_generations=3, seeds=(1,))
    built = harness.build_problem(config)
    harness.run_cma(built, config, 1, use_surrogate=False)
    harness.run_ga(built, config, 1)
genome = "1500,4100,60,700,1.5707963,-2.5,700,3200,54,700,1.5707963,0.7"
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["evaluate", "--genome", genome])
without_fits = scipy_modules()

config = harness.RunConfig({"kind": "sphere", "dimension": 2},
                           population_size=8, max_generations=6, seeds=(1,),
                           surrogate=SurrogateSettings(8, 16))
record = harness.run_cma(harness.build_problem(config), config, 1,
                         use_surrogate=True)
print(json.dumps({"after_import": after_import,
                  "without_fits": without_fits, "evaluate": code,
                  "true_evaluations": int(record.final.true_evaluations),
                  "with_fits": "scipy.linalg.lapack" in sys.modules}))
"""


def test_scipy_is_loaded_on_the_first_fit_only(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC)], cwd=tmp_path,
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    got = json.loads(done.stdout)
    assert got["after_import"] == []
    assert got["without_fits"] == []
    assert got["evaluate"] == 0
    # fewer true evaluations than 8 x 6 candidates: the surrogate ranked
    assert got["true_evaluations"] < 48
    assert got["with_fits"]
