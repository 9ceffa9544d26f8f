"""Command-line front end: parsing, exit codes, emitted files, reports."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import twobeam
from twobeam.cli import _apply_overrides, main, scenario_from_dict
from twobeam.errors import ScenarioError, SolverError
from twobeam.region import build_region, scenario_to_dict
from twobeam.sdp import MAX_DIMENSION

BASE_DOC = {
    "schema_version": 1,
    "k": 2,
    "reciprocal": True,
    "p_s1_watts": 1.0,
    "p_s2_watts": 1.0,
    "sigma_s1_sq_watts": 1.0,
    "sigma_s2_sq_watts": 1.0,
    "sigma_relay_watts": 1.0,
    "budget": {"kind": "sum", "p_r_watts": 10.0},
    "grid": {"step": 0.1},
    "realizations": 2,
    "seed": 7,
}


SHIPPED_SUM = Path(__file__).resolve().parents[1] / "scenarios" / "nonreciprocal-sum.json"


def scenario_file(tmp_path, name="scenario.json", **overrides):
    doc = {**BASE_DOC, **overrides}
    for key, value in list(doc.items()):
        if value is None:
            del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestScenarioParsing:
    def test_scalar_relay_noise_broadcasts(self):
        sc = scenario_from_dict({**BASE_DOC, "k": 3, "sigma_relay_watts": 2.0})
        assert sc.params.sigma_relay.shape == (3,)
        assert np.all(sc.params.sigma_relay == 2.0)

    def test_relay_noise_list_kept(self):
        sc = scenario_from_dict({**BASE_DOC, "sigma_relay_watts": [1.0, 3.0]})
        assert sc.params.sigma_relay.tolist() == [1.0, 3.0]

    def test_grid_defaults_to_five_percent_step(self):
        doc = {k: v for k, v in BASE_DOC.items() if k != "grid"}
        sc = scenario_from_dict(doc)
        assert sc.grid.size == 21
        assert sc.grid[0] == 0.0 and sc.grid[-1] == 1.0

    def test_grid_values_taken_verbatim(self):
        sc = scenario_from_dict({**BASE_DOC, "grid": {"values": [0.0, 0.25, 1.0]}})
        assert sc.grid.tolist() == [0.0, 0.25, 1.0]

    def test_optional_fields_defaulted(self):
        sc = scenario_from_dict(BASE_DOC)
        assert sc.channel_variance == 1.0
        assert sc.epsilon_bits == 1e-4
        assert sc.rand_candidates == 1000

    def test_unknown_optional_fields_ignored(self):
        sc = scenario_from_dict({**BASE_DOC, "comment": "sweep", "extra": {"a": [1]}})
        assert scenario_to_dict(sc) == scenario_to_dict(scenario_from_dict(BASE_DOC))

    def test_individual_budget_parsed(self):
        sc = scenario_from_dict(
            {**BASE_DOC, "budget": {"kind": "individual", "p_watts": [2.0, 1.5]}}
        )
        assert sc.budget.p.tolist() == [2.0, 1.5]

    def test_missing_field_names_it(self):
        doc = {k: v for k, v in BASE_DOC.items() if k != "realizations"}
        with pytest.raises(ScenarioError, match="'realizations'"):
            scenario_from_dict(doc)

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict({**BASE_DOC, "schema_version": 2})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ScenarioError, match="p_s1_watts"):
            scenario_from_dict({**BASE_DOC, "p_s1_watts": True})

    def test_budget_kind_checked(self):
        with pytest.raises(ScenarioError, match="budget.kind"):
            scenario_from_dict({**BASE_DOC, "budget": {"kind": "total"}})

    def test_nested_budget_field_named_with_dotted_path(self):
        with pytest.raises(ScenarioError, match="budget.p_r_watts"):
            scenario_from_dict({**BASE_DOC, "budget": {"kind": "sum"}})

    def test_grid_step_and_values_exclusive(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            scenario_from_dict({**BASE_DOC, "grid": {"step": 0.1, "values": [0.5]}})

    def test_invalid_parameter_surfaces_as_scenario_error(self):
        with pytest.raises(ScenarioError, match="positive"):
            scenario_from_dict({**BASE_DOC, "p_s2_watts": -1.0})

    def test_round_trip_through_serializer(self):
        sc = scenario_from_dict(
            {**BASE_DOC, "budget": {"kind": "individual", "p_watts": [2.5, 3.0]}}
        )
        assert scenario_to_dict(scenario_from_dict(scenario_to_dict(sc))) == scenario_to_dict(sc)

    def test_flag_overrides_apply(self):
        import argparse

        sc = scenario_from_dict(BASE_DOC)
        args = argparse.Namespace(
            seed=99, realizations=5, epsilon=1e-3, rand_candidates=50, grid_step=0.5
        )
        out = _apply_overrides(sc, args)
        assert out.seed == 99
        assert out.realizations == 5
        assert out.epsilon_bits == 1e-3
        assert out.rand_candidates == 50
        assert out.grid.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "flags, changed",
        [
            ({"seed": 99}, {"seed": 99}),
            ({"realizations": 5, "grid_step": 0.5}, {"realizations": 5, "grid": [0, 0.5, 1]}),
            ({"epsilon": 1e-3}, {"epsilon_bits": 1e-3}),
            ({"rand_candidates": 50}, {"rand_candidates": 50}),
            ({"seed": None, "realizations": None}, {}),
        ],
        ids=["seed", "realizations-grid", "epsilon", "rand-candidates", "none"],
    )
    def test_partial_overrides_keep_other_fields(self, flags, changed):
        import argparse

        sc = scenario_from_dict({**BASE_DOC, "epsilon_bits": 2e-4, "rand_candidates": 30})
        out = _apply_overrides(sc, argparse.Namespace(**flags))
        for name in ("seed", "realizations", "epsilon_bits", "rand_candidates", "grid"):
            assert np.array_equal(getattr(out, name), changed.get(name, getattr(sc, name))), name
        assert out.params is sc.params and out.budget is sc.budget

    def test_bad_override_is_a_flags_error(self):
        import argparse

        sc = scenario_from_dict(BASE_DOC)
        args = argparse.Namespace(grid_step=0.3)
        with pytest.raises(ScenarioError, match="flags"):
            _apply_overrides(sc, args)


class TestExitCodes:
    def test_missing_field_exits_two_naming_it(self, tmp_path, capsys):
        path = scenario_file(tmp_path, realizations=None)
        assert main(["region", str(path), "--out", str(tmp_path)]) == 2
        assert "realizations" in capsys.readouterr().err

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        assert main(["region", str(tmp_path / "ghost.json")]) == 2
        assert "file" in capsys.readouterr().err

    def test_unknown_suite_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "bogus"])
        assert exc.value.code == 2

    def test_kappa_on_reciprocal_exits_two(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        assert main(["solve", path, "--kappa", "0.5"]) == 2
        assert "--mu" in capsys.readouterr().err

    def test_mu_on_nonreciprocal_exits_two(self, tmp_path, capsys):
        path = scenario_file(tmp_path, reciprocal=False)
        assert main(["solve", path, "--mu", "0.5"]) == 2
        assert "--kappa" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reciprocal, flags",
        [
            (True, []),
            (True, ["--kappa", "0.5"]),
            (True, ["--mu", "0.5", "--kappa", "0.5"]),
            (False, []),
            (False, ["--mu", "0.5"]),
            (False, ["--mu", "0.5", "--kappa", "0.5"]),
        ],
        ids=["recip-none", "recip-kappa", "recip-both", "nonrecip-none", "nonrecip-mu", "both"],
    )
    def test_wrong_weight_flags_exit_two(self, tmp_path, capsys, reciprocal, flags):
        path = scenario_file(tmp_path, reciprocal=reciprocal)
        assert main(["solve", path, *flags]) == 2
        captured = capsys.readouterr()
        if reciprocal:
            assert captured.err == "error: reciprocal scenarios take --mu, not --kappa\n"
        else:
            assert captured.err == "error: non-reciprocal scenarios take --kappa, not --mu\n"
        assert captured.out == ""

    def test_negative_realization_seed_is_a_flags_error(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        assert main(["solve", path, "--mu", "0.5", "--realization-seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: scenario field 'flags':" in captured.err
        assert captured.out == ""

    def test_negative_validate_seed_is_a_flags_error(self, tmp_path, capsys):
        assert main(["validate", "all", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: scenario field 'flags': seed must be nonnegative\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["region", "validate"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_blocked_by_a_file_is_a_flags_error(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("kept")
        args = [scenario_file(tmp_path)] if command == "region" else ["all"]
        before = sorted(tmp_path.iterdir())
        out = blocker / "sub" if below else blocker
        assert main([command, *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: scenario field 'flags': --out: {blocker} exists and is not a directory\n"
        )
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize(
        "field, value",
        [("channel_variance", "x"), ("epsilon_bits", True), ("rand_candidates", 2.5)],
    )
    def test_malformed_optional_field_exits_two_naming_it(
        self, tmp_path, capsys, field, value
    ):
        path = scenario_file(tmp_path, **{field: value})
        assert main(["region", path, "--out", str(tmp_path / "out")]) == 2
        assert f"error: scenario field '{field}':" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weight_outside_unit_interval_exits_two(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        assert main(["solve", path, "--mu", "1.5"]) == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_nonreciprocal_k_above_solver_limit_exits_two(self, tmp_path, capsys):
        k = MAX_DIMENSION + 1
        path = scenario_file(tmp_path, k=k, reciprocal=False)
        assert main(["region", path, "--out", str(tmp_path)]) == 2
        assert f"k must be at most {MAX_DIMENSION}" in capsys.readouterr().err
        assert main(["solve", path, "--kappa", "0.5"]) == 2
        assert f"k must be at most {MAX_DIMENSION}" in capsys.readouterr().err
        # The reciprocal closed forms have no dimension limit.
        assert scenario_from_dict({**BASE_DOC, "k": k}).k == k

    def test_failure_budget_exits_three(self, tmp_path, capsys, monkeypatch):
        from twobeam.recip import wsismin_sum_power as real_solver

        def failing(ch, sp, p_r, mu):
            if mu == 0.5:
                raise SolverError("injected")
            return real_solver(ch, sp, p_r, mu)

        monkeypatch.setattr("twobeam.region.wsismin_sum_power", failing)
        path = scenario_file(tmp_path, grid={"values": [0.0, 0.5, 1.0]}, realizations=1)
        with pytest.warns(RuntimeWarning, match="dropping"):
            code = main(["region", path, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param(json.dumps({**BASE_DOC, "k": 2.5}), "k", id="k"),
            pytest.param(json.dumps({**BASE_DOC, "reciprocal": 1}), "reciprocal", id="reciprocal"),
            pytest.param(
                json.dumps({**BASE_DOC, "sigma_relay_watts": []}),
                "sigma_relay_watts",
                id="sigma_relay_watts",
            ),
            pytest.param("[]", "document", id="document"),
            pytest.param(json.dumps({**BASE_DOC, "budget": 5}), "budget", id="budget"),
            pytest.param(
                json.dumps({**BASE_DOC, "budget": {"kind": "sum", "p_r_watts": -1}}),
                "budget",
                id="budget-negative",
            ),
            pytest.param(json.dumps({**BASE_DOC, "grid": {"step": 0.3}}), "grid.step", id="grid"),
            pytest.param(json.dumps({**BASE_DOC, "grid": {}}), "grid", id="grid-empty"),
            pytest.param("{", "file", id="file"),
            pytest.param(
                json.dumps({**BASE_DOC, "budget": {"kind": "individual"}}),
                "budget.p_watts",
                id="budget.p_watts",
            ),
        ],
    )
    def test_malformed_scenario_exits_two_naming_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["region", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: scenario field '{field}':" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_solve_failure_exits_three(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise SolverError("injected")

        monkeypatch.setattr("twobeam.cli.algorithm1_sum_power", failing)
        assert main(["solve", str(SHIPPED_SUM), "--kappa", "0.5"]) == 3
        captured = capsys.readouterr()
        assert "error: injected" in captured.err.splitlines()
        assert captured.out == ""

    def test_total_solver_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def always_failing(ch, sp, p_r, mu):
            raise SolverError("injected")

        monkeypatch.setattr("twobeam.region.wsismin_sum_power", always_failing)
        path = scenario_file(tmp_path, realizations=1)
        assert main(["region", path, "--out", str(tmp_path / "out")]) == 3
        assert "error" in capsys.readouterr().err


class TestRegionCommand:
    def test_writes_region_files(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        out = tmp_path / "nested" / "out"
        assert main(["region", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "hull vertices" in stdout
        assert "max sum-rate point" in stdout
        csv_lines = (out / "region.csv").read_text().splitlines()
        assert csv_lines[0] == "grid_value,r1_mean,r2_mean,n_success"
        assert len(csv_lines) == 12
        doc = json.loads((out / "region.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["region"]["solver"] == "recip-closed-form"

    def test_emitted_scenario_reparses_identically(self, tmp_path):
        path = scenario_file(tmp_path, budget={"kind": "individual", "p_watts": [2.0, 1.0]})
        out = tmp_path / "out"
        assert main(["region", path, "--out", str(out)]) == 0
        doc = json.loads((out / "region.json").read_text())
        sc = scenario_from_dict(doc["scenario"])
        assert scenario_to_dict(sc) == doc["scenario"]
        res = build_region(sc)
        assert doc["region"]["hull"] == [[float(a), float(b)] for a, b in res.hull]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        path = scenario_file(tmp_path)
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["region", path, "--out", str(out)]) == 0
            texts.append((out / "region.csv").read_bytes() + (out / "region.json").read_bytes())
        assert texts[0] == texts[1]

    def test_tenth_step_sweep_emits_eleven_points(self, tmp_path, capsys):
        path = scenario_file(
            tmp_path,
            k=5,
            sigma_relay_watts=[1.0, 1.0, 1.0, 1.0, 1.0],
            grid={"step": 0.1},
            realizations=100,
        )
        out = tmp_path / "out"
        assert main(["region", path, "--out", str(out), "--realizations", "2"]) == 0
        assert "11 of 11 grid values" in capsys.readouterr().out
        assert len((out / "region.csv").read_text().splitlines()) == 12

    def test_individual_caps_scenario_accepted(self, tmp_path):
        path = scenario_file(
            tmp_path,
            k=5,
            sigma_relay_watts=1.0,
            budget={"kind": "individual", "p_watts": [2.5, 3.0, 0.5, 1.0, 3.0]},
            realizations=1,
        )
        assert main(["region", path, "--out", str(tmp_path / "out")]) == 0

    def test_nonreciprocal_run_emits_randomized_companion(self, tmp_path):
        path = scenario_file(
            tmp_path,
            k=2,
            reciprocal=False,
            budget={"kind": "individual", "p_watts": [2.0, 1.0]},
            grid={"values": [0.3, 0.7]},
            realizations=1,
            rand_candidates=100,
        )
        out = tmp_path / "out"
        assert main(["region", path, "--out", str(out)]) == 0
        assert (out / "region_randomized.csv").exists()
        doc = json.loads((out / "region.json").read_text())
        assert doc["region"]["solver"] == "nonrecip-sdr-relaxed"
        assert doc["region"]["randomized"]["solver"] == "nonrecip-sdr-randomized"


class TestSolveCommand:
    def test_reciprocal_sum_prints_broadcast_scalars(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        assert main(["solve", path, "--mu", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "broadcast mu: 0.5" in stdout
        assert "broadcast xi over weighted norm:" in stdout
        assert "budget check (sum <= 10.0 W): ok" in stdout
        powers = [
            float(line.rsplit("power", 1)[1].split()[0])
            for line in stdout.splitlines()
            if line.startswith("w[")
        ]
        assert len(powers) == 2
        assert sum(powers) <= 10.0 * (1.0 + 1e-9)

    def test_reciprocal_individual_prints_water_level(self, tmp_path, capsys):
        path = scenario_file(tmp_path, budget={"kind": "individual", "p_watts": [2.0, 1.0]})
        assert main(["solve", path, "--mu", "0.25"]) == 0
        stdout = capsys.readouterr().out
        assert "broadcast water level:" in stdout
        assert "budget check (per-relay caps): ok" in stdout

    def test_nonreciprocal_sum_reports_exact_reduction(self, tmp_path, capsys):
        path = scenario_file(tmp_path, reciprocal=False)
        assert main(["solve", path, "--kappa", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "extraction: exact rank-one reduction" in stdout
        relaxed = float(stdout.split("relaxed sum rate: ")[1].split()[0])
        achieved = float(stdout.split("achieved profile rate: ")[1].split()[0])
        assert achieved >= relaxed - 1e-6

    def test_nonreciprocal_sum_reports_fallback(self, capsys, monkeypatch):
        from twobeam.nonrecip import ExactReduction, rank_one_reduce

        def forced_fallback(*args):
            return replace(rank_one_reduce(*args), source=ExactReduction(fallback=True))

        monkeypatch.setattr("twobeam.cli.rank_one_reduce", forced_fallback)
        assert main(["solve", str(SHIPPED_SUM), "--kappa", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "extraction: exact rank-one reduction (dominant-eigenvector fallback)" in stdout

    def test_nonreciprocal_individual_reports_randomization(self, tmp_path, capsys):
        path = scenario_file(
            tmp_path,
            reciprocal=False,
            budget={"kind": "individual", "p_watts": [2.0, 1.0]},
            rand_candidates=100,
        )
        assert main(["solve", path, "--kappa", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "randomized extraction over 100 candidates" in stdout
        assert "budget check (per-relay caps): ok" in stdout

    def test_high_source_power_caps_beamformer_meets_caps(self, tmp_path, capsys):
        # At P_S = 1e6 W the caps witness sits within the solver's feasibility
        # tolerance above a cap; it must be scaled back before extraction.
        path = scenario_file(
            tmp_path,
            k=3,
            reciprocal=False,
            p_s1_watts=1e6,
            p_s2_watts=1e6,
            budget={"kind": "individual", "p_watts": [2.0, 2.0, 2.0]},
        )
        assert main(["solve", path, "--kappa", "1.0", "--realization-seed", "90"]) == 0
        assert "budget check (per-relay caps): ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "budget", [{"kind": "sum", "p_r_watts": 10.0}, {"kind": "individual", "p_watts": [2.0, 1.0]}]
    )
    def test_budget_violation_exits_one(self, tmp_path, capsys, monkeypatch, budget):
        real = twobeam.cli.relay_powers
        monkeypatch.setattr(
            "twobeam.cli.relay_powers", lambda ch, sp, w: real(ch, sp, w) * (1.0 + 1e-6)
        )
        path = scenario_file(tmp_path, budget=budget)
        assert main(["solve", path, "--mu", "0.5"]) == 1
        assert "): VIOLATED" in capsys.readouterr().out

    def test_realization_seed_changes_the_draw(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        assert main(["solve", path, "--mu", "0.5"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", path, "--mu", "0.5", "--realization-seed", "123"]) == 0
        second = capsys.readouterr().out
        assert "channel realization seed: 7" in first
        assert "channel realization seed: 123" in second
        assert first.splitlines()[1] != second.splitlines()[1]


class TestValidateCommand:
    def test_oracles_load_only_for_validate(self):
        # scipy backs only the validate oracles; region and solve skip it.
        src = Path(twobeam.__file__).resolve().parents[1]
        code = "import sys, twobeam.cli; sys.exit('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_region_suite_passes_and_writes_report(self, tmp_path, capsys):
        assert main(["validate", "region", "--out", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("pass  ") == 3
        report = json.loads((tmp_path / "validation_region.json").read_text())
        assert report["schema_version"] == 1
        assert report["suite"] == "region"
        assert report["passed"] is True
        assert [c["passed"] for c in report["checks"]] == [True, True, True]

    def test_all_suites_pass_and_write_report(self, tmp_path, capsys):
        assert main(["validate", "all", "--seed", "0", "--out", str(tmp_path)]) == 0
        names = [
            "recip-closed-form-beats-grid",
            "recip-sweep-hull-contains-cloud",
            "recip-local-rules-rebuild-beamformers",
            "nonrecip-rank-one-matches-relaxation",
            "nonrecip-caps-never-beat-pooled-budget",
            "nonrecip-one-way-endpoint-matches-closed-form",
            "sdp-certified-optima-match-descent-oracle",
            "sdp-feasibility-agrees-with-descent-oracle",
            "region-hull-matches-bruteforce",
            "region-build-deterministic-and-self-contained",
            "region-heuristic-point-inside-optimal-region",
        ]
        stdout = capsys.readouterr().out
        assert [line.split()[1] for line in stdout.splitlines() if line.startswith("pass  ")] == names
        report = json.loads((tmp_path / "validation_all.json").read_text())
        assert report["suite"] == "all"
        assert report["passed"] is True
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [(n, True) for n in names]
        for check in report["checks"]:
            assert list(check) == ["name", "passed", "details"]
            assert list(check["details"])[-1] == "seed"
            assert check["details"]["seed"] == 0

    def test_seed_is_echoed_into_report(self, tmp_path):
        assert main(["validate", "region", "--seed", "3", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validation_region.json").read_text())
        assert report["seed"] == 3
        assert all(c["details"]["seed"] == 3 for c in report["checks"])

    def test_violation_exits_one_with_counterexample(self, tmp_path, capsys, monkeypatch):
        broken = ("stub-check", lambda seed: (False, {"bad": 1}))
        monkeypatch.setattr("twobeam.cli._SUITES", {"region": [broken]})
        assert main(["validate", "region", "--out", str(tmp_path)]) == 1
        stdout = capsys.readouterr().out
        assert "FAIL  stub-check" in stdout
        assert "counterexample" in stdout
        report = json.loads((tmp_path / "validation_region.json").read_text())
        assert report["passed"] is False
