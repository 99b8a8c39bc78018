"""The behaviour lock: seeded benchmark runs reproduce perfbench/golden.json.

The benchmark records the SHA-256 of each run's CSV for its four
workloads. This test reruns runs of workload seed 1 through the
benchmark's own functions and compares their digests with the recorded
ones: all 32 of `sphere_constrained`, whose 500-generation constrained
runs exercise the CMA-ES update, penalty and rejection paths longest,
and the first two (optimizer seeds 1000 and 1001) of the others. The
runs happen in a fresh interpreter, so that perfbench/run.py sets one
BLAS thread before numpy is imported, as it does when the benchmark
runs. The digests are
comparable only in the environment they were recorded in; elsewhere the
test skips and names the fingerprint keys that differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
GOLDEN = ROOT / "perfbench" / "golden.json"
WORKLOAD_SEED = 1
RUNS = {"well_cma": 2, "well_surrogate": 2, "sphere_constrained": 32,
        "well_ga": 2}

CHILD = """
import importlib.util, json, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = run   # its dataclasses look the module up
spec.loader.exec_module(run)
harness = run.import_wellopt()
out = Path(sys.argv[2])
seed, runs = int(sys.argv[3]), json.loads(sys.argv[4])
digests = {}
for workload in run.WORKLOADS.values():
    config, problem = run.load_workload(harness, workload, None)
    digests[workload.name] = {
        str(s): run.csv_digest(
            run.run_once(harness, problem, config, workload.optimizer, s),
            out / f"{workload.name}_{s}.csv")
        for s in workload.seeds(seed, runs[workload.name])}
print(json.dumps({"fingerprint": run.fingerprint(), "digests": digests}))
"""


def test_csv_digests_match_the_golden_file(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(RUN_PY), str(tmp_path),
         str(WORKLOAD_SEED), json.dumps(RUNS)],
        cwd=tmp_path, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    got = json.loads(done.stdout)
    golden = json.loads(GOLDEN.read_text())
    recorded_fp = golden["fingerprint"]
    differs = sorted(k for k in set(got["fingerprint"]) | set(recorded_fp)
                     if got["fingerprint"].get(k) != recorded_fp.get(k))
    if differs:
        pytest.skip(f"fingerprint differs from the golden file in {differs}")
    assert set(got["digests"]) == set(RUNS)
    for workload, digests in got["digests"].items():
        assert len(digests) == RUNS[workload]
        recorded = golden["digests"][workload][str(WORKLOAD_SEED)]
        assert digests == {s: recorded[s] for s in digests}, workload
