import csv
import json
import shutil

import pytest

from visiplan.cli import main
from visiplan.sim import bundled_scenario


@pytest.fixture(scope="module")
def mini_path():
    return str(bundled_scenario("mini"))


class TestRunCommand:
    def test_writes_report_with_failure_time(self, mini_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", mini_path, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "failure_time" in report
        assert (out / "trace.csv").exists()
        assert (out / "heatmap.csv").exists()

    def test_baseline_mode_echoes_zero_weights(self, mini_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", mini_path, "--out", str(out),
                     "--mode", "baseline"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        w = report["scenario"]["weights"]
        assert w["w_do"] == w["w_ao"] == w["w_oe"] == w["w_v"] == 0.0

    def test_deterministic_bytes(self, mini_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", mini_path, "--out", str(out1)]) == 0
        assert main(["run", "--scenario", mini_path, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == \
            (out2 / "trace.csv").read_bytes()

    def test_missing_scenario_exits_2(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_scenario_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration": 1.0, "map": {
            "dims": [4, 4, 1], "resolution": 0.5, "origin": [0, 0, 0],
            "occupied": []}}))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "robot_start" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, named", [
        ("limits", "bogus", 1.0, "limits.bogus"),
        ("limits", "v_m", -1, "v_m"),
        (None, "duration", "ten", "duration"),
        ("search", "tau", 0, "tau"),
        ("robot_start", "p", "abc", "robot_start.p"),
        (None, "d_trunc", -1, "d_trunc"),
    ])
    def test_invalid_field_exits_2_naming_it(self, mini_path, tmp_path,
                                             capsys, section, key, value,
                                             named):
        raw = json.loads(open(mini_path).read())
        (raw[section] if section else raw)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        if section:
            assert section in err

    @pytest.mark.parametrize("scenario, path, value, named", [
        ("mini", "target.path", [["a", 1, 0], [8.0, 7.5, 0.0]], "target.path"),
        ("mini", "target.path", [[4.0, 6.0], [8.0, 7.5]], "target.path"),
        ("mini", "target", {"waypoints": [[0.0, 4.0, 6.0, 0.0],
                                          [1.0, "x", 6.0, 0.0]]},
         "target.waypoints"),
        ("forest", "map.generator.area", "big", "map.generator.area"),
        ("mini", "target.speed", 0, "target.speed"),
        ("mini", "replan_period", 0, "replan_period"),
        ("mini", "num_control_points", 3, "num_control_points"),
        ("forest", "map.generator.radius_range", [0.5],
         "map.generator.radius_range"),
        ("mini", "duration", -1, "duration"),
        ("mini", "map.dims", [10, 10], "map.dims"),
        ("mini", "map.dims", ["a", 10, 1], "map.dims"),
        ("mini", "map.resolution", "x", "map.resolution"),
        ("mini", "map.occupied", [["a", 1, 0]], "map.occupied"),
        ("mini", "map.occupied", [[1, 0]], "map.occupied"),
        ("case1", "map.resolution", "x", "map.resolution"),
        ("forest", "map.generator.area", [-20, 20], "map.generator.area"),
        ("mini", "map.origin", [0, 0], "map.origin"),
        ("case1", "map.origin", [0, 0], "map.origin"),
        ("mini", "map.origin", [0, float("nan"), 0], "map.origin"),
        ("case1", "map.origin", [0, float("nan"), 0], "map.origin"),
    ])
    def test_malformed_value_exits_2_naming_it(self, tmp_path, capsys,
                                               scenario, path, value, named):
        raw = json.loads(bundled_scenario(scenario).read_text())
        if "file" in raw["map"]:
            # so that the injected value is the only fault
            shutil.copy(bundled_scenario(scenario).parent / raw["map"]["file"],
                        tmp_path)
        *parents, key = path.split(".")
        section = raw
        for name in parents:
            section = section[name]
        section[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"'{named}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dump_flags(self, mini_path, tmp_path):
        out = tmp_path / "out"
        opt_trace = tmp_path / "opt.csv"
        search_trace = tmp_path / "search.csv"
        code = main(["run", "--scenario", mini_path, "--out", str(out),
                     "--dump-costs", "--opt-trace", str(opt_trace),
                     "--search-trace", str(search_trace)])
        assert code == 0
        costs = json.loads((out / "costs.json").read_text())
        assert costs and {"t", "costs"} <= set(costs[0])
        assert set(costs[0]["costs"]) >= {"J_do", "J_oe", "total"}
        header = opt_trace.read_text().splitlines()[0]
        assert header.startswith("t,iteration,J_do")
        assert search_trace.read_text().splitlines()[0].startswith("t,x,y,z")


class TestBenchCommand:
    def test_one_seed_both_modes(self, mini_path, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--scenario", mini_path, "--out", str(out),
                     "--seeds", "5"])
        assert code == 0
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["mode"] for r in rows} == {"visibility", "baseline"}
        for r in rows:
            float(r["failure_time"])
            int(r["occlusion_events"])
        printed = capsys.readouterr().out
        assert "mean_failure_time" in printed

    def test_empty_seed_list(self, mini_path, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--scenario", mini_path, "--out", str(out),
                     "--seeds", ""])
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("seed,mode,failure_time")

    def test_bad_template_aborts(self, tmp_path):
        code = main(["bench", "--scenario", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "b"), "--seeds", "1,2"])
        assert code == 2
