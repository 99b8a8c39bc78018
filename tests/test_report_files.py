"""The batch and comparison outputs and the CLI's stdout, byte for byte.

`harness.run_single` is replaced by hand-built run records, so this lock
reads no objective, no BLAS and no CPU-dependent bits: it pins what the
batch and comparison writers make of given records. Each `RunRecord` is
built from the fields that the class declares, so a field the records
no longer need can go without an edit here.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import wellopt.cli as cli
import wellopt.harness as harness
from wellopt.harness import RunRecord, RunRow

INF = math.inf


def row(generation, evaluations, best, raw, genome, gammas=(), resampled=0,
        n_ic=0):
    return RunRow(generation=generation, true_evaluations=evaluations,
                  best_objective=best, best_raw_objective=raw,
                  resampled=resampled, n_ic=n_ic, gammas=tuple(gammas),
                  best_genome=np.array(genome, dtype=float))


def record(seed, optimizer, problem, rows, reason="max_generations",
           **counters):
    values = {"seed": seed, "optimizer": optimizer, "problem": problem,
              "dim": len(rows[0].best_genome),
              "n_constraints": len(rows[0].gammas), "rows": rows,
              "termination_reason": reason, "simulation_failures": 0,
              "nonfinite_evaluations": 0, "final_mean": None,
              "archive": None, "covariance_repairs": 0,
              "rejection_exhaustions": 0, **counters}
    return RunRecord(**{f.name: values[f.name]
                        for f in dataclasses.fields(RunRecord)})


def sphere_runs(optimizer):
    """Two runs of unequal length on a 2-d sphere with one constraint;
    seed 2 stops early with every run counter nonzero."""
    return {
        ("sphere", optimizer, 1): record(1, optimizer, "sphere", [
            row(0, 8, 4.25, 4.0, [1.5, -0.5], [0.0], resampled=1),
            row(1, 16, 1 / 3, 0.3, [0.25, 0.1], [0.5]),
            row(2, 24, 0.1 + 0.2, 0.1 + 0.2, [0.1, 0.2], [0.5],
                resampled=2)]),
        ("sphere", optimizer, 2): record(2, optimizer, "sphere", [
            row(0, 8, 2.0, 2.0, [1.0, 1.0], [0.0]),
            row(1, 15, 1e-17, 1e-17, [3e-9, -1e-9], [0.125], n_ic=3)],
            reason="stagnation", covariance_repairs=1,
            simulation_failures=4, rejection_exhaustions=3,
            nonfinite_evaluations=2),
    }


def well_runs(optimizer, shift):
    """Three well-placement runs whose values are negated NPVs plus a
    penalty; `shift` sets one optimizer apart from another."""
    runs = {}
    for seed in (1, 2, 3):
        npv = 2.5e9 + seed * 1.25e8 + shift
        runs["well_placement", optimizer, seed] = record(
            seed, optimizer, "well_placement", [
                row(0, 40, -0.5 * npv + 10.0, -0.5 * npv,
                    [100.0 * seed, 2000.5, 0.75], [0.0, 0.0]),
                row(1, 80, -npv + 2.5, -npv, [110.0 * seed, 1990.25, 0.5],
                    [1e-3, 2e-3])])
    return runs


RECORDS = {
    **sphere_runs("cma"),
    # every value inf: std nan, and no target from the pooled values
    ("sphere", "ga", 3): record(3, "ga", "sphere", [
        row(0, 6, INF, INF, [0.5]), row(1, 12, INF, INF, [0.5])]),
    ("sphere", "ga", 4): record(4, "ga", "sphere", [
        row(0, 6, INF, INF, [-0.5]), row(1, 11, INF, INF, [-0.5])]),
    **well_runs("cma", 0.0),
    **well_runs("ga", -3e8),
}


@pytest.fixture
def hand_built(monkeypatch):
    def run_single(config, seed, out_dir):
        run = RECORDS[config.problem["kind"], config.optimizer, seed]
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            run.write_csv(os.path.join(out_dir, f"run_{seed}.csv"))
        return run

    monkeypatch.setattr(harness, "run_single", run_single)
    monkeypatch.setattr(cli, "run_single", run_single)


def wellopt(tmp_path, capsys, command, config, *args):
    """Run the CLI on `config`; returns (stdout, {relative path: text})
    with the output directory written as `<out>`."""
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     *args]) == 0
    files = {p.relative_to(out).as_posix(): p.read_bytes().decode()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return capsys.readouterr().out.replace(str(out), "<out>"), files


SPHERE = {"problem": {"kind": "sphere", "dimension": 2},
          "constraints": [{"indices": [0, 1], "lower": 0.0, "upper": 1.0}],
          "seeds": [1, 2]}
WELL = {"problem": {"kind": "well_placement"}, "seeds": [1, 2, 3]}

SPHERE_RUN_1 = """\
schema_version,generation,true_evaluations,best_objective,best_raw_objective,resampled,n_ic,gamma_0,genome_0,genome_1
1,0,8,4.25,4.0,1,0,0.0,1.5,-0.5
1,1,16,0.3333333333333333,0.3,0,0,0.5,0.25,0.1
1,2,24,0.30000000000000004,0.30000000000000004,2,0,0.5,0.1,0.2
"""
SPHERE_RUN_2 = """\
schema_version,generation,true_evaluations,best_objective,best_raw_objective,resampled,n_ic,gamma_0,genome_0,genome_1
1,0,8,2.0,2.0,0,0,0.0,1.0,1.0
1,1,15,1e-17,1e-17,0,3,0.125,3e-09,-1e-09
"""
SEED_2_LINE = ("seed 2: best objective 1e-17 after 15 true evaluations "
               "(stagnation), covariance_repairs 1, simulation_failures 4, "
               "rejection_exhaustions 3, nonfinite_evaluations 2\n")
SUMMARY_CSV_HEADER = ("schema_version,generation,mean_true_evaluations,"
                      "mean_best_objective,std_best_objective\n")
TARGETS_CSV_HEADER = ("schema_version,target_objective,runs_reached,"
                      "total_runs,mean_evaluations_to_target\n")


def test_single_run_line_and_csv(hand_built, tmp_path, capsys):
    stdout, files = wellopt(tmp_path, capsys, "optimize",
                            {**SPHERE, "optimizer": "cma"}, "--seed", "2")
    assert stdout == SEED_2_LINE + "outputs written to <out>\n"
    assert files == {"run_2.csv": SPHERE_RUN_2}


SPHERE_SUMMARY_CSV = SUMMARY_CSV_HEADER + """\
1,0,8.0,3.125,1.590990257669732
1,1,15.5,0.16666666666666666,0.23570226039551584
1,2,19.5,0.15000000000000002,0.21213203435596428
"""
SPHERE_SUMMARY_TXT = """\
problem: sphere
optimizer: cma
runs: 2 (seeds [1, 2])
final best objective: median 0.15000000000000002, mean 0.15000000000000002, std 0.21213203435596428
  seed 1: best objective 0.30000000000000004 after 24 true evaluations (max_generations)
  """ + SEED_2_LINE


def test_sphere_batch_with_an_unreached_target(hand_built, tmp_path, capsys):
    stdout, files = wellopt(tmp_path, capsys, "optimize",
                            {**SPHERE, "optimizer": "cma",
                             "targets": [-1.0]})
    assert stdout == SPHERE_SUMMARY_TXT + "outputs written to <out>\n"
    assert files == {
        "run_1.csv": SPHERE_RUN_1,
        "run_2.csv": SPHERE_RUN_2,
        "summary.csv": SPHERE_SUMMARY_CSV,
        "targets.csv": TARGETS_CSV_HEADER + "1,-1.0,0,2,not reached\n",
        "summary.txt": SPHERE_SUMMARY_TXT,
    }


def test_all_inf_batch(hand_built, tmp_path, capsys):
    summary_txt = """\
problem: sphere
optimizer: ga
runs: 2 (seeds [3, 4])
final best objective: median inf, mean inf, std nan
  seed 3: best objective inf after 12 true evaluations (max_generations)
  seed 4: best objective inf after 11 true evaluations (max_generations)
"""
    stdout, files = wellopt(tmp_path, capsys, "optimize", {
        "problem": {"kind": "sphere", "dimension": 1}, "optimizer": "ga",
        "seeds": [3, 4]})
    assert stdout == summary_txt + "outputs written to <out>\n"
    header = ("schema_version,generation,true_evaluations,best_objective,"
              "best_raw_objective,resampled,n_ic,genome_0\n")
    assert files == {
        "run_3.csv": header + "1,0,6,inf,inf,0,0,0.5\n"
                              "1,1,12,inf,inf,0,0,0.5\n",
        "run_4.csv": header + "1,0,6,inf,inf,0,0,-0.5\n"
                              "1,1,11,inf,inf,0,0,-0.5\n",
        "summary.csv": SUMMARY_CSV_HEADER + "1,0,6.0,inf,nan\n"
                                            "1,1,11.5,inf,nan\n",
        "targets.csv": TARGETS_CSV_HEADER,
        "summary.txt": summary_txt,
    }


WELL_RUN_HEADER = ("schema_version,generation,true_evaluations,"
                   "best_objective,best_raw_objective,resampled,n_ic,"
                   "gamma_0,gamma_1,genome_0,genome_1,genome_2\n")


def test_well_batch_reports_npv(hand_built, tmp_path, capsys):
    summary_txt = """\
problem: well_placement
optimizer: cma
runs: 3 (seeds [1, 2, 3])
final best objective: median -2749999997.5, mean -2749999997.5, std 125000000.0
final best NPV: median 2750000000.0, mean 2750000000.0
  seed 1: best objective -2624999997.5 after 80 true evaluations (max_generations)
  seed 2: best objective -2749999997.5 after 80 true evaluations (max_generations)
  seed 3: best objective -2874999997.5 after 80 true evaluations (max_generations)
"""
    stdout, files = wellopt(tmp_path, capsys, "optimize",
                            {**WELL, "optimizer": "cma"})
    assert stdout == summary_txt + "outputs written to <out>\n"
    assert files == {
        "run_1.csv": WELL_RUN_HEADER + """\
1,0,40,-1312499990.0,-1312500000.0,0,0,0.0,0.0,100.0,2000.5,0.75
1,1,80,-2624999997.5,-2625000000.0,0,0,0.001,0.002,110.0,1990.25,0.5
""",
        "run_2.csv": WELL_RUN_HEADER + """\
1,0,40,-1374999990.0,-1375000000.0,0,0,0.0,0.0,200.0,2000.5,0.75
1,1,80,-2749999997.5,-2750000000.0,0,0,0.001,0.002,220.0,1990.25,0.5
""",
        "run_3.csv": WELL_RUN_HEADER + """\
1,0,40,-1437499990.0,-1437500000.0,0,0,0.0,0.0,300.0,2000.5,0.75
1,1,80,-2874999997.5,-2875000000.0,0,0,0.001,0.002,330.0,1990.25,0.5
""",
        "summary.csv": SUMMARY_CSV_HEADER + """\
1,0,40.0,-1374999990.0,62500000.0
1,1,80.0,-2749999997.5,125000000.0
""",
        "targets.csv": TARGETS_CSV_HEADER + """\
1,-1340909080.909091,3,3,53.333333333333336
1,-1369318171.8181818,3,3,53.333333333333336
1,-1397727262.7272727,3,3,66.66666666666667
1,-1426136353.6363637,3,3,66.66666666666667
1,-1761363628.4090912,3,3,80.0
1,-2301136359.0909095,3,3,80.0
1,-2647727270.2272725,2,3,80.0
1,-2704545452.0454545,2,3,80.0
1,-2761363633.8636365,1,3,80.0
1,-2818181815.681818,1,3,80.0
""",
        "summary.txt": summary_txt,
    }


def test_an_optimizer_compared_with_itself(hand_built, tmp_path, capsys):
    """The second batch is labelled `cma#2` and written under `cma_2`;
    both batches take the pooled default targets."""
    report_txt = """\
comparison on sphere (2 matched seeds)
cma: median final objective 0.15000000000000002, median improvement over first generation 96.5%
cma#2: median final objective 0.15000000000000002, median improvement over first generation 96.5%

evaluations to reach target (mean over runs that reached it)
target                  cma               cma#2             
4.25                    8.0 (2)           8.0 (2)           
2.8181818181818192      12.0 (2)          12.0 (2)          
2.0                     12.0 (2)          12.0 (2)          
1.5454545454545459      15.5 (2)          15.5 (2)          
0.3333333333333333      15.5 (2)          15.5 (2)          
0.30909090909090914     19.5 (2)          19.5 (2)          
0.30000000000000004     19.5 (2)          19.5 (2)          
0.19090909090909097     15.0 (1)          15.0 (1)          
1e-17                   15.0 (1)          15.0 (1)          
"""
    stdout, files = wellopt(tmp_path, capsys, "compare",
                            {**SPHERE, "optimizers": ["cma", "cma"]})
    assert stdout == report_txt + "outputs written to <out>\n"
    batch = {
        "run_1.csv": SPHERE_RUN_1,
        "run_2.csv": SPHERE_RUN_2,
        "summary.csv": SPHERE_SUMMARY_CSV,
        "targets.csv": TARGETS_CSV_HEADER + """\
1,4.25,2,2,8.0
1,2.8181818181818192,2,2,12.0
1,2.0,2,2,12.0
1,1.5454545454545459,2,2,15.5
1,0.3333333333333333,2,2,15.5
1,0.30909090909090914,2,2,19.5
1,0.30000000000000004,2,2,19.5
1,0.19090909090909097,1,2,15.0
1,1e-17,1,2,15.0
""",
        "summary.txt": SPHERE_SUMMARY_TXT,
    }
    assert files == {
        **{f"cma/{name}": text for name, text in batch.items()},
        **{f"cma_2/{name}": text for name, text in batch.items()},
        "comparison.csv": """\
schema_version,optimizer,seed,first_generation_best,final_best,improvement_pct,genome_0,genome_1
1,cma,1,4.25,0.30000000000000004,92.94117647058823,0.1,0.2
1,cma,2,2.0,1e-17,100.0,3e-09,-1e-09
1,cma#2,1,4.25,0.30000000000000004,92.94117647058823,0.1,0.2
1,cma#2,2,2.0,1e-17,100.0,3e-09,-1e-09
""",
        "report.txt": report_txt,
    }
    report_targets = [line.split()[0] for line in report_txt.splitlines()[6:]]
    for label in ("cma", "cma_2"):
        column = [line.split(",")[1] for line in
                  files[f"{label}/targets.csv"].splitlines()[1:]]
        assert column == report_targets


def test_report_prints_each_target_exactly(hand_built, tmp_path, capsys):
    """A target prints as `targets.csv` writes it, however small, and a
    24-character one keeps a space before the first cell."""
    _, files = wellopt(tmp_path, capsys, "compare",
                       {**SPHERE, "optimizers": ["cma", "cma"],
                        "targets": [2.0000001, 2.0, 4e-7,
                                    -1.2345678901234567e-100]})
    assert files["report.txt"].splitlines()[6:] == [
        "2.0000001               12.0 (2)          12.0 (2)          ",
        "2.0                     12.0 (2)          12.0 (2)          ",
        "4e-07                   15.0 (1)          15.0 (1)          ",
        "-1.2345678901234567e-100 not reached       not reached       "]
    assert [line.split(",")[1] for line in
            files["cma/targets.csv"].splitlines()[1:]] == [
        "2.0000001", "2.0", "4e-07", "-1.2345678901234567e-100"]


def test_well_comparison_reports_npv(hand_built, tmp_path, capsys):
    report_txt = """\
comparison on well_placement (3 matched seeds)
cma: median final objective -2749999997.5, median improvement over first generation 100.0%
cma: median final NPV 2750000000.0
ga: median final objective -2449999997.5, median improvement over first generation 100.0%
ga: median final NPV 2450000000.0

evaluations to reach target (mean over runs that reached it)
target                  cma               ga                
-1224999990.0           40.0 (3)          53.3 (3)          
-1287499990.0           40.0 (3)          66.7 (3)          
-1312499990.0           40.0 (3)          80.0 (3)          
-1374999990.0           53.3 (3)          80.0 (3)          
-1437499990.0           66.7 (3)          80.0 (3)          
-2324999997.5           80.0 (3)          80.0 (3)          
-2449999997.5           80.0 (3)          80.0 (2)          
-2574999997.5           80.0 (3)          80.0 (1)          
-2624999997.5           80.0 (3)          not reached       
-2749999997.5           80.0 (2)          not reached       
"""
    stdout, files = wellopt(tmp_path, capsys, "compare",
                            {**WELL, "optimizers": ["cma", "ga"]})
    assert stdout == report_txt + "outputs written to <out>\n"
    assert files["comparison.csv"] == """\
schema_version,optimizer,seed,first_generation_best,final_best,improvement_pct,genome_0,genome_1,genome_2
1,cma,1,-1312499990.0,-2624999997.5,100.00000133333333,110.0,1990.25,0.5
1,cma,2,-1374999990.0,-2749999997.5,100.00000127272727,220.0,1990.25,0.5
1,cma,3,-1437499990.0,-2874999997.5,100.00000121739131,330.0,1990.25,0.5
1,ga,1,-1162499990.0,-2324999997.5,100.00000150537636,110.0,1990.25,0.5
1,ga,2,-1224999990.0,-2449999997.5,100.00000142857144,220.0,1990.25,0.5
1,ga,3,-1287499990.0,-2574999997.5,100.00000135922332,330.0,1990.25,0.5
"""
    assert files["report.txt"] == report_txt
    assert sorted(files) == sorted(
        [f"{label}/{name}" for label in ("cma", "ga")
         for name in ("run_1.csv", "run_2.csv", "run_3.csv", "summary.csv",
                      "targets.csv", "summary.txt")]
        + ["comparison.csv", "report.txt"])
    assert files["ga/summary.txt"].startswith(
        "problem: well_placement\noptimizer: ga\n")
