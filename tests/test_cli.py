import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqi_sim import cli
from cqi_sim.errors import ConfigError

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

    def test_coarse_grid_cross_check_failure_exit_code(self, tmp_path, capsys):
        cfg = {"kind": "detector-compare", "grid": {"nx": 128}, "output": {"path": "coarse"}}
        path = write_config(tmp_path, "det.json", cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Born cross-check failed at refine level 0" in err
        assert "dxf = 0.0625" in err


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
        params = {key: 1.0 for key in cli._DETECTOR_FLOATS}
        params.update(band=[3.5, 3.9], region=[{"x": [-0.5, 0.5], "t": [3.0, 3.2]}], id="slab")
        path = write_config(tmp_path, "det.json", {"kind": "detector-compare", "params": params})
        assert cli.load_config(path).params == params
        tp = {key: 1.0 for key in cli._DETECTOR_FLOATS}
        tp.update(band=[3.5, 3.9], separation=2.0, eps_pt=0.1, t1=3.0)
        path = write_config(tmp_path, "tp.json", {"kind": "two-point", "params": tp})
        assert cli.load_config(path).params == tp

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
_DETECTOR = {**dict.fromkeys(_DETECTOR_FLOATS, {"type": "number"}), "band": _PAIR}

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
            "halvings": {"type": "integer", "minimum": 0},
            "n_ancillas": {"type": "integer", "minimum": 0},
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
    assert isinstance(spec, cli._RUNNERS[cfg.kind][0])
    for key, value in cfg.params.items():
        assert getattr(spec, key) == value


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
