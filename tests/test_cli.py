import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqi_sim import cli
from cqi_sim.errors import ConfigError, NumericalValidationError
from oracles import CONTINUUM_BORN

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp:")
    )


ZENO_CFG = {
    "kind": "zeno",
    "seed": 0,
    "params": {"omega": 1.0, "epsilon": 0.05, "halvings": 2},
    "output": {"path": "zeno", "format": "csv"},
}


class TestConfigValidation:
    def test_unknown_kind(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {"kind": "nope"})
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_missing_field_names_it(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {"kind": "zeno", "params": {"epsilon": 0.05}})
        with pytest.raises(ConfigError, match="omega"):
            cli.load_config(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(tmp_path / "absent.json")


class TestRunners:
    @pytest.mark.parametrize("omega, epsilon", [(1.0, 0.05), (0.7, 0.2), (2.0, 1e-3)])
    def test_zeno_iterated_rows_are_iterated_zeno(self, tmp_path, omega, epsilon):
        # n = 0 and 1 are read off the ladder's first rung: the bits of their own runs
        params = {"omega": omega, "epsilon": epsilon, "halvings": 3, "n_ancillas": 3}
        path = write_config(tmp_path, "z.json", {"kind": "zeno", "params": params})
        cli.run(path, out_dir=tmp_path)
        rows = json.loads((tmp_path / "zeno.json").read_text())["diagnostics"]["iterated"]
        cfgs = (cli.zeno.ZenoConfig(omega, epsilon, n_ancillas=n) for n in range(4))
        assert [row["p_transition"] for row in rows] == list(map(cli.zeno.iterated_zeno, cfgs))

    def test_zeno_run(self, tmp_path):
        path = write_config(tmp_path, "zeno.json", ZENO_CFG)
        out = cli.run(path, out_dir=tmp_path)
        csv_text = (tmp_path / "zeno.csv").read_text()
        assert "epsilon,p_without,p_with,ratio" in csv_text
        assert ",0.5" in csv_text
        report = json.loads((tmp_path / "zeno.json").read_text())
        # careful: config and output share the stem here; re-read the report
        assert len(out) == 2

    def test_zeno_ratio_row(self, tmp_path):
        cfg = dict(ZENO_CFG, output={"path": "z", "format": "csv"})
        path = write_config(tmp_path, "cfg.json", cfg)
        cli.run(path, out_dir=tmp_path)
        rows = [
            line.split(",")
            for line in (tmp_path / "z.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ][1:]
        eps, p_without, p_with, ratio = map(float, rows[0])
        assert p_without == pytest.approx(np.sin(0.1) ** 2, abs=1e-12)
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_epr_run(self, tmp_path):
        cfg = {
            "kind": "epr",
            "seed": 3,
            "params": {"alpha": 0.6, "beta": 0.8, "n_random_unitaries": 25},
            "output": {"path": "epr_out"},
        }
        path = write_config(tmp_path, "epr.json", cfg)
        cli.run(path, out_dir=tmp_path)
        report = json.loads((tmp_path / "epr_out.json").read_text())
        assert report["results"]["conditional_entropy_bits"] == pytest.approx(0.0, abs=1e-9)
        assert report["results"]["max_no_communication_distance"] < 1e-12

    def test_chain_run(self, tmp_path):
        h = 1 / np.sqrt(2)
        cfg = {
            "kind": "chain",
            "params": {"initial": [0.6, 0.8], "overlaps": [[[h, h], [h, -h]]]},
            "output": {"path": "chain_out"},
        }
        path = write_config(tmp_path, "chain.json", cfg)
        cli.run(path, out_dir=tmp_path)
        report = json.loads((tmp_path / "chain_out.json").read_text())
        assert report["diagnostics"]["entropy_monotone"] is True
        assert report["results"]["entropies_bits"][1] == pytest.approx(1.0, abs=1e-12)

    def test_realism_run(self, tmp_path):
        cfg = {
            "kind": "realism-scenario",
            "params": {"alpha": 0.6, "beta": 0.8},
            "output": {"path": "realism_out"},
        }
        path = write_config(tmp_path, "r.json", cfg)
        cli.run(path, out_dir=tmp_path)
        report = json.loads((tmp_path / "realism_out.json").read_text())
        slices = {s["slice"]: s for s in report["results"]["slices"]}
        h = -0.36 * np.log2(0.36) - 0.64 * np.log2(0.64)
        assert slices["t1"]["entropy_alice_bits"] == pytest.approx(0.0, abs=1e-12)
        assert slices["t1"]["entropy_bob_bits"] == pytest.approx(h, abs=1e-12)
        assert slices["t2"]["entropy_bob_bits"] == pytest.approx(h, abs=1e-12)
        assert slices["t2"]["conditional_entropy_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_time_reversed_zeno_run(self, tmp_path):
        cfg = {
            "kind": "time-reversed-zeno",
            "params": {"omega": 2.0, "thetas": [-0.2, 0.0, 0.3]},
            "output": {"path": "trz_out"},
        }
        path = write_config(tmp_path, "trz.json", cfg)
        cli.run(path, out_dir=tmp_path)
        report = json.loads((tmp_path / "trz_out.json").read_text())
        assert report["results"]["max_shift_error"] < 1e-10

    def test_detector_compare_small(self, tmp_path):
        cfg = {
            "kind": "detector-compare",
            "params": {},
            "output": {"path": "det_out"},
        }
        path = write_config(tmp_path, "det.json", cfg)
        cli.run(path, out_dir=tmp_path)
        report = json.loads((tmp_path / "det_out.json").read_text())
        assert abs(report["results"]["cqi_born_ratio"] - 1) <= 1e-3

    def test_two_point_run(self, tmp_path, monkeypatch):
        calls = []
        real = cli.postulates._born_double_region
        monkeypatch.setattr(
            cli.postulates, "_born_double_region", lambda exp: calls.append(exp) or real(exp)
        )
        cfg = {
            "kind": "two-point",
            "params": {"separation": 2.0},
            "output": {"path": "tp_out"},
        }
        path = write_config(tmp_path, "tp.json", cfg)
        cli.run(path, out_dir=tmp_path)
        report = json.loads((tmp_path / "tp_out.json").read_text())
        assert 1.99 <= report["results"]["ratio_rr_born"] <= 2.01
        assert abs(report["results"]["cqi_born_ratio"] - 1) <= 1e-3
        (level,) = report["diagnostics"]["levels"]
        assert 0 < level["born_xcheck_rel"] <= 1e-3
        assert level["born_double_region"] > 0
        assert len(calls) == 1  # the margin reuses the cross-check's double region

    @pytest.mark.parametrize("kind", ["detector-compare", "two-point"])
    def test_levels_report_readout_edge(self, tmp_path, kind):
        path = write_config(tmp_path, "c.json", {"kind": kind, "output": {"path": "o"}})
        cli.run(path, refine=1, out_dir=tmp_path)
        report = json.loads((tmp_path / "o.json").read_text())
        levels = report["diagnostics"]["levels"]
        assert [lv["refine"] for lv in levels] == [0, 1]
        assert all(0 < lv["readout_edge_rel"] < 1e-3 for lv in levels)
        lines = (tmp_path / "o.csv").read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert "readout_edge_rel" not in header

    @pytest.mark.parametrize(
        "kind, build",
        [
            ("detector-compare", cli.postulates.benchmark_experiment),
            ("two-point", cli.postulates.two_point_experiment),
        ],
    )
    def test_levels_report_readout_points(self, tmp_path, kind, build):
        # the readout grid follows neither nx nor refine: one count on every level
        path = write_config(tmp_path, "c.json", {"kind": kind, "output": {"path": "o"}})
        cli.run(path, refine=2, out_dir=tmp_path)
        levels = json.loads((tmp_path / "o.json").read_text())["diagnostics"]["levels"]
        want = cli.postulates._readout_grid(build()).size
        assert [lv["readout_points"] for lv in levels] == [want] * 3

    @pytest.mark.parametrize(
        "kind, build",
        [
            ("detector-compare", cli.postulates.benchmark_experiment),
            ("two-point", cli.postulates.two_point_experiment),
        ],
    )
    def test_levels_report_cqi_xcheck_and_perturbation_ratio(self, tmp_path, kind, build):
        # p_cqi against dr / (1 + dr), dr the level's double region, and the ratio r
        # that validate_perturbative checks: both reported on every level
        path = write_config(tmp_path, "c.json", {"kind": kind, "output": {"path": "o"}})
        cli.run(path, refine=1, out_dir=tmp_path)
        levels = json.loads((tmp_path / "o.json").read_text())["diagnostics"]["levels"]
        assert len(levels) == 2
        for lv in levels:
            exp = build(refine=lv["refine"])
            dr = lv["born_double_region"]
            want = cli.postulates.cqi_probability(exp) / (dr / (1.0 + dr)) - 1.0
            assert lv["cqi_xcheck_rel"] == want and abs(want) < 1e-5
            assert lv["perturbation_ratio"] == exp.validate_perturbative() > 0
            # at eta = 0 the |1> seed's norm is dr itself, so cqi_xcheck_rel = (1 + dr) /
            # (|psi|^2 + dr) - 1: it reports the |0>-branch's grid-norm deficit at band[0]
            grid, seeds = cli.postulates._band_seeds(exp)
            psi2, phi2 = grid.dx / grid.nx * np.sum(np.abs(seeds) ** 2, axis=1)  # Parseval
            assert phi2 == pytest.approx(dr, rel=1e-14, abs=0)
            assert abs(want - ((1.0 + dr) / (psi2 + dr) - 1.0)) <= 1e-14
            assert 0 < 1.0 - psi2 < 1e-8


class TestDeterminism:
    def test_identical_payloads(self, tmp_path):
        cfg = {
            "kind": "epr",
            "seed": 11,
            "params": {"alpha": 0.6, "beta": 0.8, "n_random_unitaries": 10},
            "output": {"path": "d"},
        }
        path = write_config(tmp_path, "d.json", cfg)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.run(path, out_dir=out_a)
        cli.run(path, out_dir=out_b)
        assert strip_timestamp((out_a / "d.csv").read_text()) == strip_timestamp(
            (out_b / "d.csv").read_text()
        )
        ra = json.loads((out_a / "d.json").read_text())
        rb = json.loads((out_b / "d.json").read_text())
        ra.pop("timestamp")
        rb.pop("timestamp")
        assert ra == rb


class TestMainEntry:
    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind in cli.KINDS:
            assert kind in out

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, "z.json", ZENO_CFG)
        assert cli.main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"kind": "zeno", "params": {}})
        assert cli.main(["run", str(path)]) == 1
        assert "omega" in capsys.readouterr().err

    def test_run_via_subprocess(self, tmp_path):
        path = write_config(tmp_path, "z.json", ZENO_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "cqi_sim.cli", "run", str(path), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "zeno.csv").exists()

    def test_refine_appends_rows(self, tmp_path):
        cfg = {
            "kind": "detector-compare",
            "params": {},
            "output": {"path": "ref_out"},
        }
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["run", str(path), "--refine", "1", "--out", str(tmp_path)]) == 0
        lines = [
            line
            for line in (tmp_path / "ref_out.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0].startswith("experiment,refine,")
        assert len(lines) == 3  # header plus levels 0 and 1

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = {
            "kind": "detector-compare",
            "params": {"coupling_alpha": 2.0},  # far beyond perturbativity
            "output": {"path": "x"},
        }
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "perturbation" in capsys.readouterr().err

    @pytest.mark.parametrize("nx", [64, 128])
    def test_coarse_grid_passes_cross_check(self, tmp_path, nx):
        cfg = {"kind": "detector-compare", "grid": {"nx": nx}, "output": {"path": "coarse"}}
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        (level,) = json.loads((tmp_path / "coarse.json").read_text())["diagnostics"]["levels"]
        assert level["born_xcheck_rel"] <= 1e-3

    @pytest.mark.parametrize("nx", [16, 24, 32])
    def test_coarse_band_grid_runs(self, tmp_path, nx):
        # the band grid is S(k)'s grid (737 to 762 points over the period nx dx here), so
        # a coarse nx sets only the period and p_cqi stays at the continuum
        cfg = {"kind": "detector-compare", "grid": {"nx": nx}, "output": {"path": "coarse"}}
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "coarse.csv").read_text().splitlines()
        (row,) = csv.DictReader([ln for ln in lines if not ln.startswith("#")])
        p = CONTINUUM_BORN["slab"]
        assert float(row["p_cqi"]) == pytest.approx(p / (1.0 + p), rel=2e-6, abs=0)

    @pytest.mark.parametrize(
        "name, grid, refine",
        [
            ("detector-compare", {}, 1),
            ("detector-compare", {"nx": 48}, 0),
            ("detector-compare", {"nx": 64, "x_min": -21.0}, 0),
            ("two-point", {}, 1),
        ],
        ids=["slab", "nx48", "nx64", "two-point"],
    )
    def test_cqi_xcheck_rel_in_every_level(self, tmp_path, name, grid, refine):
        # p_cqi restates dr / (1 + dr) by Parseval at every level, coarse grids too
        cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        cfg.update(grid={**cfg.get("grid", {}), **grid}, output={"path": "xcheck"})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["run", str(path), "--refine", str(refine), "--out", str(tmp_path)]) == 0
        levels = json.loads((tmp_path / "xcheck.json").read_text())["diagnostics"]["levels"]
        assert len(levels) == refine + 1
        assert all(abs(level["cqi_xcheck_rel"]) <= 1e-8 for level in levels)

    @pytest.mark.parametrize("name", ["detector-compare", "two-point"])
    def test_covariant_cross_check_failure_exit_code(self, tmp_path, capsys, monkeypatch, name):
        ps = cli.postulates
        real = ps.cqi_probability_detail
        scale = 1 + 2 * ps.DetectorExperiment.xcheck_tol
        monkeypatch.setattr(
            ps,
            "cqi_probability_detail",
            lambda exp: dataclasses.replace(real(exp), p_cqi=real(exp).p_cqi * scale),
        )
        cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        cfg["output"] = {"path": "off"}
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "covariant cross-check failed at refine level 0" in err
        exp = cli.load_config(path).experiment
        dr = ps._born_double_region(exp)
        assert f"p_cqi {real(exp).p_cqi * scale:.6g} and dr / (1 + dr) {dr / (1 + dr):.6g}" in err
        assert "tolerance 0.001" in err
        assert not list(tmp_path.glob("off.*"))

    def test_cross_check_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        ps = cli.postulates
        p_slice = ps._born_slice_norm(ps.benchmark_experiment())
        monkeypatch.setattr(
            ps,
            "_born_double_region",
            lambda exp: ps._born_slice_norm(exp) * (1 + 2 * exp.xcheck_tol),
        )
        cfg = {"kind": "detector-compare", "output": {"path": "off"}}
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Born cross-check failed at refine level 0" in err
        assert f"{p_slice:.6g}" in err and f"{p_slice * 1.002:.6g}" in err
        assert "tolerance 0.001" in err


class TestStrictParams:
    MISSPELLED = {
        "kind": "detector-compare",
        "params": {"coupling_alpa": 0.02, "regoin": [{"x": [-0.5, 0.5], "t": [3.0, 3.2]}]},
        "output": {"path": "typo"},
    }

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_misspelled_detector_keys_exit_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path, "typo.json", self.MISSPELLED)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "params.coupling_alpa" in err and "params.regoin" in err
        assert not (tmp_path / "typo.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_two_point_rejects_region(self, tmp_path, capsys, command):
        cfg = {
            "kind": "two-point",
            "params": {"separation": 2.0, "region": [{"x": [-0.5, 0.5], "t": [3.0, 3.2]}]},
        }
        path = write_config(tmp_path, "tp.json", cfg)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        assert "params.region" in capsys.readouterr().err

    def test_region_entry_names_its_field(self, tmp_path):
        cfg = {"kind": "detector-compare", "params": {"region": [{"x": [0.0, 1.0], "t": [3.0]}]}}
        path = write_config(tmp_path, "det.json", cfg)
        with pytest.raises(ConfigError, match=r"params\.region\.0\.t"):
            cli.load_config(path)

    def test_detector_keys_accepted(self, tmp_path):
        # every key set; readout_time after the region, as load_config requires
        params = {key: 1.0 for key in _DETECTOR_FLOATS}
        params.update(band=[3.5, 3.9], region=[{"x": [-0.5, 0.5], "t": [3.0, 3.2]}], id="slab")
        params.update(readout_time=4.2)
        path = write_config(tmp_path, "det.json", {"kind": "detector-compare", "params": params})
        assert cli.load_config(path).params == params
        tp = {key: 1.0 for key in _DETECTOR_FLOATS}
        tp.update(band=[3.5, 3.9], separation=2.0, eps_pt=0.1, t1=3.0, readout_time=4.2)
        path = write_config(tmp_path, "tp.json", {"kind": "two-point", "params": tp})
        assert cli.load_config(path).params == tp

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("kind", ["detector-compare", "two-point"])
    @pytest.mark.parametrize(
        "params, field",
        [
            ({"packet_width": 0}, "params.packet_width"),
            ({"packet_width": -1.0}, "params.packet_width"),
            ({"coupling_alpha": -0.02}, "params.coupling_alpha"),
            ({"coupling_alpha": 0}, "params.coupling_alpha: must be nonzero"),
            ({"potential_v": 0.0}, "params.potential_v: must be nonzero"),
        ],
        ids=["width-0", "width-neg", "alpha-neg", "alpha-0", "v-0"],
    )
    def test_out_of_range_detector_params_exit_1(
        self, tmp_path, capsys, command, kind, params, field
    ):
        cfg = {"kind": kind, "params": params, "output": {"path": "bad"}}
        path = write_config(tmp_path, "bad.json", cfg)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()

    def test_unknown_zeno_key(self, tmp_path):
        cfg = dict(ZENO_CFG, params={"omega": 1.0, "epsilon": 0.05, "halving": 2})
        path = write_config(tmp_path, "z.json", cfg)
        with pytest.raises(ConfigError, match=r"params\.halving"):
            cli.load_config(path)


class TestTopLevelAndGrid:
    MISSPELLED = {
        "kind": "zeno",
        "sed": 7,
        "outptu": {"path": "z"},
        "params": {"omega": 1.0, "epsilon": 0.05},
    }

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_top_level_keys_exit_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path, "typo.json", self.MISSPELLED)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        assert "outptu, sed: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "zeno.csv").exists()

    @pytest.mark.parametrize(
        "grid, shown",
        [({"x_min": 5, "x_max": -5}, "-5"), ({"x_min": 30}, "20.0"), ({"x_max": -20.0}, "-20.0")],
    )
    def test_empty_x_range_names_x_max(self, tmp_path, capsys, grid, shown):
        cfg = {"kind": "detector-compare", "grid": grid, "output": {"path": "det"}}
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "grid.x_max" in err and shown in err
        assert not (tmp_path / "det.csv").exists()

    def test_grid_rejected_without_grid_kind(self, tmp_path, capsys):
        cfg = dict(ZENO_CFG, grid={"nx": 64})
        path = write_config(tmp_path, "z.json", cfg)
        assert cli.main(["validate", str(path)]) == 1
        assert "grid: kind 'zeno' has no grid" in capsys.readouterr().err


class TestRegionOnGrid:
    """A region rectangle that leaves the x grid exits 1 naming the field
    that placed it, instead of failing the Born cross-check (exit 2)."""

    @staticmethod
    def config(name, **params):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        cfg["params"].update(params)
        return cfg

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "name, params, field",
        [
            ("detector-compare", {"region": [{"x": [25, 26], "t": [3.0, 3.2]}]}, "region.0.x"),
            ("detector-compare", {"region": [{"x": [19.5, 20.5], "t": [3.0, 3.2]}]}, "region.0.x"),
            (
                "detector-compare",
                {"region": [{"x": [-0.5, 0.5], "t": [3, 3.2]}, {"x": [-21, -19], "t": [3, 3.2]}]},
                "region.1.x",
            ),
            ("two-point", {"separation": 15.5}, "separation"),
            ("two-point", {"separation": -15.5}, "separation"),
            ("two-point", {"packet_center": 18.0}, "separation"),
        ],
        ids=["outside", "over-edge", "second", "two-point", "negative", "center"],
    )
    def test_off_grid_exit_1(self, tmp_path, capsys, command, name, params, field):
        path = write_config(tmp_path, "cfg.json", self.config(name, **params))
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert f"params.{field}: region x" in err and "leaves the x grid" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_default_region_off_a_narrow_grid(self, tmp_path, capsys):
        cfg = {"kind": "detector-compare", "grid": {"x_min": 0.0}, "output": {"path": "det"}}
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["validate", str(path)]) == 1
        assert "params.region: region x [-0.5, 0.5]" in capsys.readouterr().err

    @pytest.mark.parametrize("separation", [-15.5, -14.9, 0.0, 14.9, 15.3, 15.5])
    @pytest.mark.parametrize("grid", [{}, {"nx": 64, "x_min": -21.0}])
    def test_two_point_check_matches_the_experiment(self, tmp_path, separation, grid):
        # the check accepts exactly the configs whose squares the experiment
        # builds (at separation 0 they coincide, which it refuses) and which
        # lie on the grid
        cfg = dict(self.config("two-point", separation=separation), grid=grid)
        try:
            exp = cli.postulates.two_point_experiment(separation=separation, **grid)
        except NumericalValidationError as err:
            assert separation == 0.0 and "overlap" in str(err)
            inside = False
        else:
            inside = all(exp.x_min <= r.x_lo and r.x_hi <= exp.x_max for r in exp.region)
        path = write_config(tmp_path, "tp.json", cfg)
        if inside:  # and the config keeps the experiment that its check built
            kept = cli.load_config(path).experiment
            assert (kept.region, kept.x_min, kept.nx) == (exp.region, exp.x_min, exp.nx)
        else:
            with pytest.raises(ConfigError, match=r"params\.separation"):
                cli.load_config(path)

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "name, params, field",
        [
            ("detector-compare", {"region": [{"x": [-0.5, 0.5], "t": [3, 3.2]}] * 2}, "region.1"),
            (
                "detector-compare",
                {"region": [{"x": [-0.5, 0.5], "t": [3.0, 3.2]}, {"x": [0, 1], "t": [3.1, 3.3]}]},
                "region.1",
            ),
            (
                "detector-compare",
                {
                    "region": [
                        {"x": [3, 4], "t": [3.0, 3.2]},
                        {"x": [0.5, -0.5], "t": [3.2, 3.0]},
                        {"x": [0.4, 0.6], "t": [3.1, 3.15]},
                    ]
                },
                "region.2",
            ),
            ("two-point", {"separation": 0.0}, "separation"),
            ("two-point", {"separation": 0.05}, "separation"),
        ],
        ids=["twice", "partial", "third", "two-point", "two-point-near"],
    )
    def test_overlapping_region_exit_1(self, tmp_path, capsys, command, name, params, field):
        # overlapping rectangles would count their common part twice on every route
        path = write_config(tmp_path, "cfg.json", self.config(name, **params))
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert f"params.{field}: " in err and "overlap" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "region",
        [
            [{"x": [-0.5, 0.5], "t": [3.0, 3.2]}, {"x": [0.5, 1.0], "t": [3.0, 3.2]}],
            [{"x": [-0.5, 0.5], "t": [3.0, 3.2]}, {"x": [-0.5, 0.5], "t": [3.2, 3.3]}],
        ],
        ids=["x-edge", "t-edge"],
    )
    def test_edge_sharing_rectangles_run(self, tmp_path, region):
        cfg = self.config("detector-compare", region=region)
        cfg["output"] = {"path": "edge"}
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "edge.csv").exists()

    def test_edge_touching_region_accepted(self, tmp_path):
        cfg = self.config("detector-compare", region=[{"x": [19.0, 20.0], "t": [3.0, 3.2]}])
        cli.load_config(write_config(tmp_path, "det.json", cfg))


class TestGeometry:
    """A rectangle with an empty side, a region not after t0, or a readout
    slice or band not after the region exits 1 at load, naming the field,
    instead of passing validate and exiting 2 in run."""

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "name, params, field",
        [
            ("detector-compare", {"region": [{"x": [0.5, -0.5], "t": [3.0, 3.2]}]}, "region.0.x"),
            ("detector-compare", {"region": [{"x": [0.5, 0.5], "t": [3.0, 3.2]}]}, "region.0.x"),
            ("detector-compare", {"region": [{"x": [-0.5, 0.5], "t": [3.2, 3.0]}]}, "region.0.t"),
            (
                "detector-compare",
                {"region": [{"x": [-0.5, 0.5], "t": [3, 3.2]}, {"x": [1, 2], "t": [3.1, 3.1]}]},
                "region.1.t",
            ),
            ("detector-compare", {"band": [3.0, 3.4]}, "band"),
            ("detector-compare", {"band": [3.9, 3.5]}, "band"),
            ("detector-compare", {"readout_time": 3.1}, "readout_time"),
            ("detector-compare", {"t0": 3.0}, "t0"),
            ("two-point", {"band": [3.9, 3.5]}, "band"),
            ("two-point", {"readout_time": 3.0}, "readout_time"),
            ("two-point", {"t1": -1.0}, "t1"),
            ("two-point", {"t0": 3.0}, "t1"),
        ],
        ids=[
            "x-reversed", "x-empty", "t-reversed", "second-t-empty", "band-early",
            "band-reversed", "readout-early", "t0-late", "two-band", "two-readout",
            "two-t1-early", "two-t0-late",
        ],
    )
    def test_exit_1_naming_the_field(self, tmp_path, capsys, command, name, params, field):
        cfg = TestRegionOnGrid.config(name, **params)
        path = write_config(tmp_path, "cfg.json", cfg)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        assert f"config error: params.{field}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "params, field",
        [
            ({"t0": 3.0}, "t0"),
            ({"readout_time": 3.2}, "readout_time"),
            ({"band": (3.5, 3.5)}, "band"),
        ],
    )
    def test_config_names_the_experiment_check(self, tmp_path, params, field):
        # the message is the experiment's own, with the field it names
        with pytest.raises(NumericalValidationError) as want:
            cli.postulates.benchmark_experiment(**params)
        assert want.value.field == field
        cfg = TestRegionOnGrid.config("detector-compare", **params)
        path = write_config(tmp_path, "det.json", cfg)
        with pytest.raises(ConfigError) as got:
            cli.load_config(path)
        assert str(got.value) == f"params.{field}: {want.value}"


class TestZenoBounds:
    """A ladder rung whose probability falls below the smallest normal float
    exits 2 naming it; fields above their schema maximum exit 1 naming them."""

    @pytest.mark.parametrize(
        "epsilon, halvings, first_bad",
        [(0.05, 507, None), (0.05, 508, "k = 508 (epsilon = 5.97e-155)"), (1e-160, 0, "k = 0")],
    )
    def test_underflowing_rung_exits_2(self, tmp_path, capsys, epsilon, halvings, first_bad):
        cfg = dict(ZENO_CFG, params={"omega": 1.0, "epsilon": epsilon, "halvings": halvings})
        path = write_config(tmp_path, "z.json", cfg)
        code = cli.main(["run", str(path), "--out", str(tmp_path)])
        if first_bad is None:
            assert code == 0
            rows = (tmp_path / "zeno.csv").read_text().splitlines()[-halvings - 1 :]
            assert all(float(r.split(",")[3]) == pytest.approx(0.5, abs=1e-3) for r in rows)
        else:
            assert code == 2
            assert f"zeno ladder underflows at halving {first_bad}" in capsys.readouterr().err
            assert not (tmp_path / "zeno.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field, bound", [("halvings", 1024), ("n_ancillas", 20)])
    def test_above_maximum_exits_1(self, tmp_path, capsys, command, field, bound):
        cfg = dict(ZENO_CFG, params={"omega": 1.0, "epsilon": 0.05, field: bound + 1})
        path = write_config(tmp_path, "z.json", cfg)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert f"config error: params.{field}: {bound + 1} fails maximum {bound}" in err
        assert not (tmp_path / "zeno.csv").exists()
        cfg["params"][field] = bound
        assert cli.main(["validate", str(write_config(tmp_path, "z.json", cfg))]) == 0


class TestChainOverlapShape:
    """A chain overlap that is ragged or not d x d (d = len(initial)) exits
    1 naming its entry, from validate and from run alike."""

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "overlaps, field",
        [
            ([[[1, 0], [0]]], "params.overlaps.0"),
            ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "params.overlaps.0"),
            ([[[1, 0], [0, 1]], [[1, 0]]], "params.overlaps.1"),
        ],
    )
    def test_wrong_shape_exit_1(self, tmp_path, capsys, command, overlaps, field):
        cfg = {"kind": "chain", "params": {"initial": [0.6, 0.8], "overlaps": overlaps}}
        path = write_config(tmp_path, "chain.json", cfg)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        assert f"config error: {field}: row lengths" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestFiniteKindsCheckedAtLoad:
    """Keys that a run would ignore exit 1 naming them, and amplitudes or overlaps that a
    run refuses exit 2 with its message, from validate and from run alike."""

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"n_thetas": 7}, "params.n_thetas"),
            ({"theta_max": 3}, "params.theta_max"),
            ({"n_thetas": 7, "theta_max": 3}, "params.n_thetas"),
        ],
    )
    def test_theta_grid_beside_thetas_exit_1(self, tmp_path, capsys, command, extra, field):
        cfg = {"kind": "time-reversed-zeno", "params": {"omega": 1.0, "thetas": [0.1], **extra}}
        path = write_config(tmp_path, "trz.json", cfg)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 1
        assert f"config error: {field}: unused" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("chain", {"initial": [0.6, 0.6]}, "initial amplitude vector is not normalized"),
            ("chain", {"initial": [0.6, 0.8], "overlaps": [[[1, 1], [0, 1]]]},
             "overlap matrix 0 is not unitary"),
            ("epr", {"alpha": 0.6, "beta": 0.6}, "|a|^2+|b|^2 = 1"),
            ("realism-scenario", {"alpha": [0.6, 0.1], "beta": 0.8}, "|a|^2+|b|^2 = 1"),
        ],
        ids=["chain-initial", "chain-overlap", "epr", "realism-scenario"],
    )
    def test_model_refused_exit_2(self, tmp_path, capsys, command, kind, params, message):
        path = write_config(tmp_path, "cfg.json", {"kind": kind, "params": params})
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical validation failure: ") and message in err
        assert not list(tmp_path.glob("*.csv"))


class TestRefineRejected:
    CONFIGS = {
        "chain": {"initial": [0.6, 0.8]},
        "zeno": {"omega": 1.0, "epsilon": 0.05},
        "time-reversed-zeno": {"omega": 1.0, "thetas": [0.1]},
        "epr": {"alpha": 0.6, "beta": 0.8, "n_random_unitaries": 1},
        "realism-scenario": {"alpha": 0.6, "beta": 0.8},
    }

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_refine_without_grid_exits_1(self, tmp_path, capsys, kind):
        cfg = {"kind": kind, "params": self.CONFIGS[kind], "output": {"path": "out"}}
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["run", str(path), "--refine", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "--refine" in err and kind in err
        assert not (tmp_path / "out.csv").exists()
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0

    def test_negative_refine_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "det.json", {"kind": "detector-compare"})
        assert cli.main(["run", str(path), "--refine", "-1", "--out", str(tmp_path)]) == 1
        assert "--refine" in capsys.readouterr().err


def test_schemas_match_metaschema():
    import jsonschema  # a test dependency: the oracle of the in-tree validator

    for schema in [cli._SCHEMA, *cli._PARAM_SCHEMAS.values()]:
        jsonschema.Draft202012Validator.check_schema(schema)


def test_epr_without_random_unitaries(tmp_path):
    cfg = {
        "kind": "epr",
        "seed": 3,
        "params": {"alpha": 0.6, "beta": 0.8, "n_random_unitaries": 0},
        "output": {"path": "epr_none"},
    }
    cli.run(write_config(tmp_path, "epr.json", cfg), out_dir=tmp_path)
    report = json.loads((tmp_path / "epr_none.json").read_text())
    assert report["results"]["max_no_communication_distance"] == 0.0
    assert report["diagnostics"]["n_random_unitaries"] == 0


# --------------------------------------------------------------------------
# the params specs: generated schemas, defaults, committed configs

# The schemas as they were written out by hand before the specs generated
# them; the generated ones must stay equal to these.
KIND_NAMES = [
    "chain",
    "detector-compare",
    "epr",
    "realism-scenario",
    "time-reversed-zeno",
    "two-point",
    "zeno",
]

_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
    ]
}

_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": KIND_NAMES},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
        "grid": {
            "type": "object",
            "properties": {
                "x_min": {"type": "number"},
                "x_max": {"type": "number"},
                "nx": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

_DETECTOR_FLOATS = (
    "packet_center",
    "packet_width",
    "packet_momentum",
    "t0",
    "coupling_alpha",
    "potential_v",
    "readout_time",
)
_DETECTOR = {
    **dict.fromkeys(_DETECTOR_FLOATS, {"type": "number"}),
    "packet_width": {"type": "number", "exclusiveMinimum": 0},
    "coupling_alpha": {"type": "number", "minimum": 0},
    "band": _PAIR,
}

_REGION = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "required": ["x", "t"],
        "properties": {"x": _PAIR, "t": _PAIR},
        "additionalProperties": False,
    },
}

_PARAM_SCHEMAS = {
    "chain": {
        "type": "object",
        "required": ["initial"],
        "properties": {
            "initial": {"type": "array", "items": _COMPLEX, "minItems": 2},
            "overlaps": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "array", "items": _COMPLEX}},
            },
            "explore_general_interactions": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "zeno": {
        "type": "object",
        "required": ["omega", "epsilon"],
        "properties": {
            "omega": {"type": "number", "exclusiveMinimum": 0},
            "epsilon": {"type": "number", "exclusiveMinimum": 0},
            "halvings": {"type": "integer", "minimum": 0, "maximum": 1024},
            "n_ancillas": {"type": "integer", "minimum": 0, "maximum": 20},
        },
        "additionalProperties": False,
    },
    "time-reversed-zeno": {
        "type": "object",
        "required": ["omega"],
        "properties": {
            "omega": {"type": "number", "exclusiveMinimum": 0},
            "thetas": {"type": "array", "items": {"type": "number"}},
            "n_thetas": {"type": "integer", "minimum": 1},
            "theta_max": {"type": "number"},
        },
        "additionalProperties": False,
    },
    "epr": {
        "type": "object",
        "required": ["alpha", "beta"],
        "properties": {
            "alpha": _COMPLEX,
            "beta": _COMPLEX,
            "n_random_unitaries": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "realism-scenario": {
        "type": "object",
        "required": ["alpha", "beta"],
        "properties": {"alpha": _COMPLEX, "beta": _COMPLEX},
        "additionalProperties": False,
    },
    "detector-compare": {
        "type": "object",
        "properties": {**_DETECTOR, "region": _REGION, "id": {"type": "string"}},
        "additionalProperties": False,
    },
    "two-point": {
        "type": "object",
        "properties": {
            **_DETECTOR,
            "separation": {"type": "number"},
            "eps_pt": {"type": "number", "exclusiveMinimum": 0},
            "t1": {"type": "number"},
        },
        "additionalProperties": False,
    },
}


def test_generated_schemas_equal_the_written_ones():
    assert cli._SCHEMA == _SCHEMA
    assert cli._PARAM_SCHEMAS == _PARAM_SCHEMAS
    for kind, schema in _PARAM_SCHEMAS.items():
        # same keyword order too, so best_match picks the same error on ties
        assert list(cli._PARAM_SCHEMAS[kind]) == list(schema), kind


def test_spec_defaults():
    # the values the drivers used when a key is absent
    zeno_spec = cli.ZenoParams(omega=1.0, epsilon=0.05)
    assert zeno_spec.halvings == 4 and zeno_spec.n_ancillas is None
    trz = cli.TimeReversedZenoParams(omega=1.0)
    assert trz.n_thetas == 50 and trz.theta_max == np.pi / 4 and trz.thetas is None
    assert cli.EprParams(alpha=0.6, beta=0.8).n_random_unitaries == 500
    chain_spec = cli.ChainParams(initial=[0.6, 0.8])
    assert chain_spec.explore_general_interactions is False
    assert len(chain_spec.overlaps) == 0
    for spec in (cli.DetectorCompareParams(), cli.TwoPointParams()):
        assert all(getattr(spec, f.name) is None for f in dataclasses.fields(spec))
    for kind in ("detector-compare", "two-point"):
        assert cli._detector_overrides(cli.ExperimentConfig.from_dict({"kind": kind})) == {}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_committed_configs_build_specs(path):
    cfg = cli.load_config(path)
    spec = cfg.spec
    assert isinstance(spec, cli.KINDS[cfg.kind].spec)
    for key, value in cfg.params.items():
        assert getattr(spec, key) == value
    # only a grid kind keeps an experiment: the refine-0 one that its check built
    assert (cfg.experiment is not None) == isinstance(spec, cli.DetectorParams)
    assert cfg.experiment is None or cfg.experiment.refine_level == 0


@pytest.mark.parametrize(
    "name, build",
    [("detector-compare", "benchmark_experiment"), ("two-point", "two_point_experiment")],
)
def test_refined_run_builds_its_experiment_once(tmp_path, monkeypatch, name, build):
    # the config check builds the refine-0 experiment; every level refines that one
    calls = []
    real = getattr(cli.postulates, build)
    monkeypatch.setattr(cli.postulates, build, lambda **kw: calls.append(kw) or real(**kw))
    cli.run(CONFIGS / f"{name}.json", refine=2, out_dir=tmp_path)
    assert len(calls) == 1 and "refine" not in calls[0]
    levels = json.loads((tmp_path / f"{name}.json").read_text())["diagnostics"]["levels"]
    assert [lv["refine"] for lv in levels] == [0, 1, 2]


@pytest.mark.parametrize("name", ["detector-compare", "two-point", "zeno"])
def test_config_built_directly_runs_and_refines(name):
    # spec and experiment are worked out from kind, params and grid: a config
    # built without from_dict runs like the loaded one, and replace() moves them
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    loaded = cli.ExperimentConfig.from_dict(data)
    cfg = cli.ExperimentConfig(kind=data["kind"], params=data["params"], grid=data.get("grid", {}))
    refine = 1 if cfg.experiment is not None else 0
    assert cfg.spec == loaded.spec and (cfg.experiment is None) == (name == "zeno")
    assert cli.KINDS[name].driver(cfg, refine)[1] == cli.KINDS[name].driver(loaded, refine)[1]
    if name == "zeno":
        return
    moved = dataclasses.replace(cfg, params={**cfg.params, "t0": -0.5}, grid={"nx": 256})
    assert moved.spec.t0 == -0.5 and (moved.experiment.t0, moved.experiment.nx) == (-0.5, 256)
    assert (cfg.spec.t0, cfg.experiment.nx) != (-0.5, 256)


def test_realism_unnormalized_amplitudes_exit_2(tmp_path, capsys):
    cfg = {
        "kind": "realism-scenario",
        "params": {"alpha": 0.6, "beta": 0.6},
        "output": {"path": "r"},
    }
    path = write_config(tmp_path, "r.json", cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "|a|^2+|b|^2 = 1" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
