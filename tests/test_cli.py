import json

import numpy as np
import pytest

from wellopt.cli import main
from wellopt.wells.grid import ReservoirGrid


@pytest.fixture
def sphere_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": {"kind": "sphere", "dimension": 3},
        "optimizer": "cma",
        "population_size": 6,
        "max_generations": 15,
        "seeds": [1, 2],
    }))
    return path


class TestOptimize:
    def test_single_seed(self, sphere_config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["optimize", "--config", str(sphere_config_file),
                     "--seed", "1", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "run_1.csv").exists()
        assert "best objective" in capsys.readouterr().out

    def test_batch(self, sphere_config_file, tmp_path, capsys):
        out_dir = tmp_path / "batch"
        code = main(["optimize", "--config", str(sphere_config_file),
                     "--out", str(out_dir)])
        assert code == 0
        for name in ("run_1.csv", "run_2.csv", "summary.csv", "targets.csv",
                     "summary.txt"):
            assert (out_dir / name).exists()
        assert "final best objective" in capsys.readouterr().out

    def test_reports_simulation_failures(self, tmp_path, capsys,
                                         monkeypatch):
        import wellopt.wells.problem as problem_module

        original = problem_module.simulate
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise FloatingPointError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(problem_module, "simulate", fails_once)
        path = tmp_path / "well.json"
        path.write_text(json.dumps({
            "problem": {"kind": "well_placement"},
            "optimizer": "cma",
            "population_size": 8,
            "max_generations": 3,
            "seeds": [1],
        }))
        code = main(["optimize", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert len(calls) > 1
        assert ", simulation_failures 1" in capsys.readouterr().out

    def test_no_note_without_simulation_failures(self, sphere_config_file,
                                                 tmp_path, capsys):
        code = main(["optimize", "--config", str(sphere_config_file),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "simulation_failures" not in capsys.readouterr().out

    def test_reports_nonfinite_evaluations(self, sphere_config_file,
                                           tmp_path, capsys, monkeypatch):
        import wellopt.harness as harness

        original = harness.sphere
        calls = []

        def nan_once(x, center):
            calls.append(None)
            return float("nan") if len(calls) == 2 else original(x, center)

        monkeypatch.setattr(harness, "sphere", nan_once)
        code = main(["optimize", "--config", str(sphere_config_file),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 0
        assert ", nonfinite_evaluations 1" in capsys.readouterr().out

    def test_no_note_without_nonfinite_evaluations(self, sphere_config_file,
                                                   tmp_path, capsys):
        code = main(["optimize", "--config", str(sphere_config_file),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "nonfinite_evaluations" not in capsys.readouterr().out

    def test_reports_rejection_exhaustions(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "problem": {"kind": "sphere", "dimension": 2}, "optimizer": "cma",
            "population_size": 4, "max_generations": 3, "sigma0": 1e-3,
            "constraints": [{"indices": [0], "lower": 100.0,
                             "upper": 101.0}]}))
        code = main(["optimize", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert ", rejection_exhaustions 12" in capsys.readouterr().out

    def test_no_note_without_rejection_exhaustions(self, sphere_config_file,
                                                   tmp_path, capsys):
        code = main(["optimize", "--config", str(sphere_config_file),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "rejection_exhaustions" not in capsys.readouterr().out

    def test_seed_line_matches_the_batch_summary(self, sphere_config_file,
                                                 tmp_path, capsys):
        main(["optimize", "--config", str(sphere_config_file),
              "--seed", "2", "--out", str(tmp_path / "one")])
        seed_line = capsys.readouterr().out.splitlines()[0]
        assert seed_line.startswith("seed 2: best objective ")
        assert seed_line.endswith(" after 90 true evaluations "
                                  "(max_generations)")
        main(["optimize", "--config", str(sphere_config_file),
              "--out", str(tmp_path / "all")])
        summary = (tmp_path / "all" / "summary.txt").read_text()
        assert summary.splitlines()[-1] == "  " + seed_line

    def test_ill_conditioned_start_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "problem": {"kind": "sphere", "dimension": 3,
                        "bounds": [[-1, 1], [-1, 1], [0, 1e-7]]},
            "optimizer": "cma"}))
        code = main(["optimize", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("error: stopped before the first generation: "
                "ill-conditioned" in capsys.readouterr().err)
        assert not (tmp_path / "out" / "run_1.csv").exists()

    def test_bad_config_is_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": {"kind": "sphere",
                                                "dimension": 2},
                                    "unknown_key": True}))
        code = main(["optimize", "--config", str(path), "--seed", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ({"economics": {"oil_prise": 70}}, "oil_prise"),
        ({"proxy": {"drainage_radius_m": -5}}, "drainage_radius_m"),
    ])
    def test_bad_well_section_is_nonzero_exit(self, section, key, tmp_path,
                                              capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "problem": {"kind": "well_placement", **section},
            "optimizer": "cma"}))
        code = main(["optimize", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, key", [
        ({"problem": {"kind": "sphere", "dimension": 2}, "seeds": None},
         "seeds"),
        ({"problem": {"kind": "sphere", "dimension": 2},
          "constraints": [{"indices": [0, 1], "lower": 0.0}]}, "upper"),
        ({"problem": {"kind": "well_placement",
                      "economics": {"periods": "5"}}}, "economics.periods"),
        # values the problem cannot run with, caught at load
        ({"problem": {"kind": "well_placement"},
          "constraints": [{"indices": [12], "lower": 0.0, "upper": 1.0}]},
         "constraint indices"),
        ({"problem": {"kind": "sphere", "dimension": 2},
          "constraints": [{"indices": [5], "lower": 0.0, "upper": 1.0}]},
         "constraint indices"),
        ({"problem": {"kind": "sphere", "dimension": 0}},
         "problem.dimension"),
        ({"problem": {"kind": "sphere", "dimension": 2},
          "surrogate": {"k": 3, "min_archive_size": 10}}, "surrogate.k"),
        ({"problem": {"kind": "sphere", "dimension": 2, "bounds": "abc"}},
         "problem.bounds"),
        ({"problem": {"kind": "sphere", "dimension": 2,
                      "bounds": [[0, 1], [1, 1]]}}, "problem.bounds"),
        ({"problem": {"kind": "well_placement",
                      "economics": {"max_well_length_m": -5}}},
         "max_well_length_m"),
        ({"problem": {"kind": "well_placement", "min_step_m": 1000}},
         "problem.min_step_m"),
        ({"problem": {"kind": "well_placement", "tilt_range": 2.0}},
         "problem.tilt_range"),
        ({"problem": {"kind": "sphere", "dimension": 2}, "seeds": [1, -1]},
         "seeds"),
        ({"problem": {"kind": "sphere", "dimension": 2}, "seeds": [1, 1]},
         "seeds"),
    ])
    def test_config_of_wrong_type_is_an_error_line(self, config, key,
                                                   tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"optimizer": "cma", **config}))
        code = main(["optimize", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and key in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "gen-grid"])
    def test_negative_seed_flag_is_a_usage_error(self, command,
                                                 sphere_config_file,
                                                 tmp_path, capsys):
        config = (["--config", str(sphere_config_file)]
                  if command == "optimize" else [])
        with pytest.raises(SystemExit) as stop:
            main([command, *config, "--seed", "-1",
                  "--out", str(tmp_path / "out")])
        assert stop.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_compare_writes_report(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "problem": {"kind": "sphere", "dimension": 3},
            "optimizers": ["cma", "ga"],
            "population_size": 6,
            "max_generations": 10,
            "seeds": [1, 2],
        }))
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--config", str(path),
                     "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "report.txt").exists()
        assert "median final objective" in capsys.readouterr().out


class TestEvaluate:
    def test_well_genome_scored(self, capsys):
        genome = ",".join(str(v) for v in
                          [1500, 4100, 60, 700, np.pi / 2, -2.5,
                           700, 3200, 54, 700, np.pi / 2, 0.7])
        code = main(["evaluate", "--genome", genome])
        assert code == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["npv"] > 0
        assert len(detail["wells"]) == 2

    def test_wrong_length_rejected(self, capsys):
        code = main(["evaluate", "--genome", "1,2,3"])
        assert code == 2
        assert "12" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value, capsys):
        code = main(["evaluate",
                     f"--genome={value},1,1,100,1.5,0,500,500,50,100,1.5,0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--genome" in captured.err

    def test_non_finite_result_is_an_error_not_invalid_json(self, capsys):
        # finite coordinates whose out-of-grid distance overflows to inf
        code = main(["evaluate", "--genome",
                     "1e308,1,1,1e308,1.5,0,500,500,50,100,1.5,0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")


class TestGenGrid:
    def test_writes_loadable_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = main(["gen-grid", "--seed", "3", "--out", str(out)])
        assert code == 0
        grid = ReservoirGrid.load_json(out)
        assert grid.dims == (19, 28, 5)
