"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "Credit"])
        assert args.k == 10
        assert args.algorithm == "auto"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "Mystery"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "Adult"])
        assert args.k == "4,8,12"
        assert args.repeat == 3
        assert not args.no_cold

    def test_service_defaults(self):
        args = build_parser().parse_args(["service"])
        assert args.tenants == 3
        assert args.requests == 36
        assert args.budget_mb is None
        assert args.build_workers == 0
        assert not args.no_naive

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario"])
        assert args.action is None
        assert args.targets == []
        assert args.seed == 7
        assert not args.tiny and not args.check and not args.no_verify
        args = build_parser().parse_args(
            ["scenario", "replay", "admissions-smoke", "--tiny"]
        )
        assert args.action == "replay"
        assert args.targets == ["admissions-smoke"]
        assert args.tiny


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out
        assert "MISMATCH" not in out

    def test_table2(self, capsys):
        assert main(["table2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Lawschs" in out and "#skylines" in out

    def test_solve_anticor(self, capsys):
        code = main(
            [
                "solve", "anticor", "--n", "200", "--d", "3",
                "--groups", "2", "-k", "4", "--algorithm", "BiGreedy+",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact MHR" in out
        assert "violations: 0" in out

    def test_serve_anticor(self, capsys):
        code = main(
            [
                "serve", "anticor", "--n", "300", "--d", "3",
                "--groups", "2", "--k", "4,5", "--repeat", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warm: 4 queries" in out
        assert "cold: 4 stateless solves" in out
        assert "results identical to cold solves: yes" in out
        assert "amortized speedup" in out

    def test_serve_rejects_bad_workloads(self, capsys):
        assert main(["serve", "anticor", "--k", "4,x"]) == 2
        assert main(["serve", "anticor", "--k", ""]) == 2
        assert main(["serve", "anticor", "--k", "4", "--repeat", "0"]) == 2
        out = capsys.readouterr().out
        assert out.count("error:") == 3

    def test_serve_no_cold(self, capsys):
        code = main(
            [
                "serve", "anticor", "--n", "200", "--d", "2",
                "--groups", "2", "--k", "3", "--repeat", "1", "--no-cold",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warm: 1 queries" in out
        assert "cold:" not in out

    def test_solve_credit_auto(self, capsys):
        assert main(["solve", "Credit", "-k", "6"]) == 0
        out = capsys.readouterr().out
        assert "BiGreedy+" in out or "IntCov" in out

    def test_solve_lawschs_intcov(self, capsys):
        code = main(
            ["solve", "Lawschs", "--n", "3000", "-k", "4", "--algorithm", "IntCov"]
        )
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_service_tiny_workload(self, capsys):
        code = main(
            [
                "service", "--tenants", "2", "--requests", "10",
                "--n", "180", "--k", "3,4", "--budget-mb", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gateway answers bit-identical to uncoalesced solves: yes" in out
        assert "coalesced" in out
        assert "fence violations" in out

    def test_service_rejects_bad_arguments(self, capsys):
        assert main(["service", "--tenants", "0"]) == 2
        assert main(["service", "--hot-frac", "1.5"]) == 2
        assert main(["service", "--k", "nope"]) == 2
        out = capsys.readouterr().out
        assert "error" in out

    def test_scenario_list_describe_replay(self, capsys, tmp_path):
        import json

        raw = {
            "scenario": {"name": "mini", "archetype": "generic", "seed": 2},
            "tenants": [{"name": "t0", "n": 120, "correlation": -0.5}],
            "phases": [{"ops": 20, "write_frac": 0.4, "churn": 0.5}],
            "workload": {"requests": 6, "ks": [4]},
        }
        (tmp_path / "mini.json").write_text(json.dumps(raw))
        pack = ["--pack", str(tmp_path)]

        assert main(["scenario", "list", *pack]) == 0
        assert "mini" in capsys.readouterr().out

        assert main(["scenario", "describe", "mini", *pack]) == 0
        out = capsys.readouterr().out
        assert "tenant t0" in out and "workload: 6 requests" in out

        assert main(["scenario", "replay", "mini", *pack, "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to cold per-epoch solves: yes" in out

    def test_scenario_materialize_writes_artifacts(self, capsys, tmp_path):
        import json

        raw = {
            "scenario": {"name": "mat", "archetype": "generic", "seed": 4},
            "tenants": [{"name": "t0", "n": 100}],
            "workload": {"requests": 4, "ks": [4]},
        }
        (tmp_path / "mat.json").write_text(json.dumps(raw))
        out_dir = tmp_path / "export"
        code = main(
            [
                "scenario", "materialize", "mat",
                "--pack", str(tmp_path), "--out", str(out_dir),
            ]
        )
        assert code == 0
        assert "materialized mat" in capsys.readouterr().out
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "t0.points.npy").exists()

    def test_scenario_check_flags_bad_specs(self, capsys, tmp_path):
        import json

        good = tmp_path / "good.json"
        good.write_text(
            json.dumps(
                {
                    "scenario": {"name": "g", "seed": 1},
                    "tenants": [{"name": "t0", "n": 100}],
                    "workload": {"requests": 2, "ks": [4]},
                }
            )
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": {"name": "b"}, "oops": 1}))

        assert main(["scenario", "check", str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        # The CI invocation spells it `--check FILES...`.
        assert main(["scenario", "--check", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "1 failure(s)" in out
        assert main(["scenario", "check"]) == 2

    def test_scenario_unknown_target_errors(self, capsys, tmp_path):
        assert main(["scenario", "replay", "ghost", "--pack", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().out

    def test_experiments_forwards_to_run_all(self, capsys, monkeypatch):
        import repro.cli as cli_module

        calls = {}
        failed = []

        def fake_run(*, fast, out):
            calls["fast"] = fast
            calls["out"] = out
            return "REPORT", failed

        import importlib

        run_all_module = importlib.import_module("repro.experiments.run_all")
        monkeypatch.setattr(run_all_module, "_run", fake_run)
        assert cli_module.main(["experiments", "--fast"]) == 0
        assert calls == {"fast": True, "out": None}
        assert "REPORT" in capsys.readouterr().out
        # A failed paper-shape check fails the command too.
        failed.append("breaks")
        assert cli_module.main(["experiments", "--out", "report.md"]) == 1
        assert calls == {"fast": False, "out": "report.md"}
