import json
import math

import numpy as np
import pytest

from aqua_qkd import experiments, transport
from aqua_qkd.characterization import measurement_grid, predict_intensity
from aqua_qkd.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from aqua_qkd.experiments import (
    SWEEP_CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    jerlov_extrapolate,
    load_config,
)
from aqua_qkd.polarization import MuellerMatrix


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


JERLOV_DOC = {
    "scenario": "jerlov-extrapolate",
    "target_attenuation": 0.03,
    "reference_attenuation": 0.68,
    "reference_length": 2.37,
}

SWEEP_DOC = {
    "scenario": "sweep",
    "output_format": "csv",
    "seed": 3,
    "sweep": {"attenuations_per_m": [0.05, 0.11]},
    "session": {"n_pulses": 400_000},
}

MC_DOC = {
    "scenario": "mc-channel",
    "channel": {"absorption": 0.117, "attenuation": 0.683, "length": 2.37},
    "n_photons": 20_000,
}

# The 16 measurements of an identity channel.
MUELLER_DOC = {
    "scenario": "mueller-estimate",
    "measurements": [
        {
            "theta1_rad": t1,
            "theta2_rad": t2,
            "intensity": predict_intensity(MuellerMatrix.identity(), t1, t2),
        }
        for t1, t2 in measurement_grid()
    ],
}


class TestJerlov:
    def test_extrapolation_value(self):
        assert jerlov_extrapolate(0.03, 0.68, 2.37) == pytest.approx(53.72)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            jerlov_extrapolate(0.0, 0.68, 2.37)


class TestLoadConfig:
    def test_reads_document(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "c.json", JERLOV_DOC))
        assert cfg.scenario == "jerlov-extrapolate"
        assert cfg.parameters["target_attenuation"] == 0.03

    def test_overrides_win(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "c.json", JERLOV_DOC), overrides={"seed": 9})
        assert cfg.seed == 9

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "c.json", {"scenario": "teleport"}))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="sweep", output_format="yaml")


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["jerlov-extrapolate", "--config", write_config(tmp_path, "c.json", JERLOV_DOC)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent_length_m"] == pytest.approx(53.72, abs=0.001)

    def test_missing_config_file(self, capsys):
        assert main(["jerlov-extrapolate", "--config", "/no/such/file.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": "jerlov-extrapolate", "target_attenuation": 0.03},
            dict(MC_DOC, channel=dict(MC_DOC["channel"], length=-1)),
            dict(MC_DOC, channel={"attenuation": 0.683, "length": 2.37}),
            dict(JERLOV_DOC, target_attenuation=0),
            dict(MC_DOC, channel=dict(MC_DOC["channel"], aperture_diamter=0.05)),
            dict(MC_DOC, beam={"waist_radus": 0.001}),
            dict(MC_DOC, channel=dict(MC_DOC["channel"], phase_fn={"g": 0.9})),
            {
                "scenario": "mueller-estimate",
                "measurements": [{"theta1_rad": 0.0, "intensity": 0.5}],
            },
            {"scenario": "bb84-run", "session": {"channel_mueller": np.diag([1, 3, 3, 1]).tolist()}},
            {
                "scenario": "bb84-run",
                "session": {"channel_mueller": np.diag([1, -1.5, 0.2, 1]).tolist()},
            },
            {"scenario": "bb84-run", "session": {"channel_mueller": (2 * np.eye(4)).tolist()}},
            {
                "scenario": "bb84-run",
                "session": {"n_pulses": 400_000, "qber_estimation_fraction": 1.0},
            },
            {"scenario": "bb84-run", "session": {"sifting_factor": 0.5}},
            dict(MC_DOC, n_photons=0),
            dict(MC_DOC, n_photons=2.7),
            dict(MC_DOC, n_workers=0),
            dict(MC_DOC, n_workers=-3),
            *(
                {"scenario": scenario, **doc, "session": {"n_pulses": n_pulses}}
                for scenario, doc in (("bb84-run", {}), ("sweep", SWEEP_DOC))
                for n_pulses in (1_000_000.7, 2.7, "100")
            ),
            *(
                dict(doc, seed=seed)
                for doc in ({"scenario": "bb84-run"}, MC_DOC)
                for seed in (-1, 1.5, "7", True, 2**64 + 42)
            ),
            # Keys that no scenario reads, and values that are not numbers.
            dict(MC_DOC, n_photon=1_000),
            dict(SWEEP_DOC, sweep=dict(SWEEP_DOC["sweep"], length=100.0)),
            *(
                dict(SWEEP_DOC, session=dict(SWEEP_DOC["session"], **channel))
                for channel in (
                    {"channel_transmission": 0.5},
                    {"attenuation": 0.68},
                    {"length": 100.0},
                )
            ),
            {"scenario": "bb84-run", "n_pulses": 400_000},
            dict(JERLOV_DOC, length=2.37),
            dict(MUELLER_DOC, noise=0.005),
            dict(SWEEP_DOC, sweep={"attenuations_per_m": ["0.11", "0.68"]}),
            dict(SWEEP_DOC, sweep=dict(SWEEP_DOC["sweep"], absorption_fraction="0.2")),
            dict(SWEEP_DOC, sweep=dict(SWEEP_DOC["sweep"], length_m="2.37")),
            {
                "scenario": "bb84-run",
                "session": {"channel_transmission": 0.5, "attenuation": 0.68},
            },
            {"scenario": "bb84-run", "session": {"length": 100.0}},
            dict(MUELLER_DOC, measurements_csv="measurements.csv"),
            dict(MUELLER_DOC, measurements=[dict(m, phase=0) for m in MUELLER_DOC["measurements"]]),
            {"scenario": "mueller-estimate", "measurements_csv": "/nonexistent/measurements.csv"},
        ],
        ids=[
            "jerlov-missing-reference",
            "mc-negative-length",
            "mc-missing-absorption",
            "jerlov-zero-target",
            "mc-misspelled-channel-key",
            "mc-misspelled-beam-key",
            "mc-misspelled-phase-fn-key",
            "mueller-missing-theta2",
            "bb84-overpolarizing-mueller",
            "bb84-nonphysical-mueller",
            "bb84-amplifying-mueller",
            "bb84-estimation-fraction-of-one",
            "bb84-sifting-factor",
            "mc-zero-photons",
            "mc-fractional-photons",
            "mc-zero-workers",
            "mc-negative-workers",
            "bb84-fractional-pulses",
            "bb84-few-fractional-pulses",
            "bb84-string-pulses",
            "sweep-fractional-pulses",
            "sweep-few-fractional-pulses",
            "sweep-string-pulses",
            "bb84-negative-seed",
            "bb84-fractional-seed",
            "bb84-string-seed",
            "bb84-bool-seed",
            "bb84-seed-past-2**64",
            "mc-negative-seed",
            "mc-fractional-seed",
            "mc-string-seed",
            "mc-bool-seed",
            "mc-seed-past-2**64",
            "mc-misspelled-n-photons",
            "sweep-misspelled-length",
            "sweep-session-channel-transmission",
            "sweep-session-attenuation",
            "sweep-session-length",
            "bb84-extra-top-level-key",
            "jerlov-extra-top-level-key",
            "mueller-extra-top-level-key",
            "sweep-string-attenuations",
            "sweep-string-absorption-fraction",
            "sweep-string-length",
            "bb84-transmission-and-attenuation",
            "bb84-length-without-attenuation",
            "mueller-measurements-and-csv",
            "mueller-extra-measurement-key",
            "mueller-missing-csv",
        ],
    )
    def test_invalid_parameters(self, tmp_path, capsys, doc):
        path = write_config(tmp_path, "c.json", doc)
        assert main([doc["scenario"], "--config", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, doc", [("bb84-run", {}), ("mc-channel", MC_DOC)], ids=["bb84", "mc"]
    )
    def test_negative_seed_option(self, tmp_path, capsys, scenario, doc):
        path = write_config(tmp_path, "c.json", dict(doc, scenario=scenario))
        assert main([scenario, "--config", path, "--seed", "-3"]) == EXIT_CONFIG
        assert "seed must be a whole number" in capsys.readouterr().err

    def test_largest_seed_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", dict(MC_DOC, seed=2**64 - 1))
        assert main(["mc-channel", "--config", path]) == EXIT_OK

    def test_csv_unsupported_for_scalar_scenarios(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", JERLOV_DOC)
        assert main(["jerlov-extrapolate", "--config", path, "--format", "csv"]) == EXIT_CONFIG

    def test_csv_rejected_before_the_scenario_runs(self, tmp_path, capsys, monkeypatch):
        def no_transport(*args, **kwargs):
            raise AssertionError("mc-channel ran before its output format was checked")

        monkeypatch.setattr(experiments, "run_transport", no_transport)
        path = write_config(tmp_path, "c.json", MC_DOC)
        assert main(["mc-channel", "--config", path, "--format", "csv"]) == EXIT_CONFIG
        assert "only supports JSON output" in capsys.readouterr().err

    def test_runtime_error(self, tmp_path, capsys):
        # Far too few pulses to build a minimum-length sifted key.
        doc = {"scenario": "bb84-run", "session": {"n_pulses": 5_000}}
        assert main(["bb84-run", "--config", write_config(tmp_path, "c.json", doc)]) == EXIT_RUNTIME

    def test_no_key_left_after_estimation_exits_runtime(self, tmp_path, capsys):
        doc = {
            "scenario": "bb84-run",
            "session": {"n_pulses": 100_000, "qber_estimation_fraction": 0.9999},
        }
        assert main(["bb84-run", "--config", write_config(tmp_path, "c.json", doc)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "left after the QBER estimate" in err
        assert "division" not in err

    def test_extinguished_state_is_named(self, tmp_path, capsys):
        vertical_polarizer = [[0.5, -0.5, 0, 0], [-0.5, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        doc = {"scenario": "bb84-run", "session": {"channel_mueller": vertical_polarizer}}
        assert main(["bb84-run", "--config", write_config(tmp_path, "c.json", doc)]) == EXIT_CONFIG
        assert "extinguishes the H signal state" in capsys.readouterr().err

    def test_photons_left_at_the_event_cap_exit_runtime(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_EVENTS", 1)
        path = write_config(tmp_path, "c.json", MC_DOC)
        assert main(["mc-channel", "--config", path]) == EXIT_RUNTIME
        assert "photons still in flight" in capsys.readouterr().err


class TestOutputs:
    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            [
                "jerlov-extrapolate",
                "--config",
                write_config(tmp_path, "c.json", JERLOV_DOC),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        raw = out.read_bytes()
        assert b"\r\n" not in raw
        assert json.loads(raw)["reference_length_m"] == 2.37

    def test_sweep_csv_header_and_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        path = write_config(tmp_path, "c.json", SWEEP_DOC)
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.05
        assert float(first[2]) == pytest.approx(math.exp(-0.05 * 2.37), rel=1e-4)

    def test_whole_float_pulse_count_runs_as_its_int(self, tmp_path):
        as_int = write_config(tmp_path, "a.json", SWEEP_DOC)
        as_float = write_config(tmp_path, "b.json", dict(SWEEP_DOC, session={"n_pulses": 400_000.0}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", as_int, "--out", str(out1)]) == EXIT_OK
        assert main(["sweep", "--config", as_float, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, "c.json", SWEEP_DOC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["sweep", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_sweep_output(self, tmp_path):
        path = write_config(tmp_path, "c.json", SWEEP_DOC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["sweep", "--config", path, "--seed", "99", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() != out2.read_bytes()

    def test_mc_channel_scenario(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", MC_DOC)
        assert main(["mc-channel", "--config", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["launched"] == 20_000
        assert payload["received"] == payload["received_unscattered"] + payload["received_scattered"]

    def test_mueller_estimate_scenario(self, tmp_path, capsys):
        from aqua_qkd.characterization import measurement_grid, predict_intensity
        from aqua_qkd.polarization import MuellerMatrix

        ident = MuellerMatrix.identity()
        doc = {
            "scenario": "mueller-estimate",
            "measurements": [
                {"theta1_rad": t1, "theta2_rad": t2, "intensity": predict_intensity(ident, t1, t2)}
                for t1, t2 in measurement_grid()
            ],
        }
        assert main(["mueller-estimate", "--config", write_config(tmp_path, "c.json", doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"][0][0] == pytest.approx(1.0)
        assert payload["matrix"][1][1] == pytest.approx(1.0)

    def test_nonincreasing_sweep_grid_rejected(self, tmp_path, capsys):
        doc = dict(SWEEP_DOC, sweep={"attenuations_per_m": [0.11, 0.05]})
        assert main(["sweep", "--config", write_config(tmp_path, "c.json", doc)]) == EXIT_CONFIG
