import argparse
import base64
import json
from pathlib import Path

import numpy as np
import pytest

from tniso import serialize
from tniso import tolerances as tol
from tniso.analysis import build_correction
from tniso.channels import convex_mix
from tniso.cli import _build_parser, main
from tniso.codes import make_example2_channel, make_repetition_example
from tniso.sampling import random_channel, random_preserved_system

from conftest import nested_form


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Write the repetition and mixture system files once."""
    root = tmp_path_factory.mktemp("files")
    system = make_repetition_example(0.4)
    paths = {
        "channel": root / "channel.json",
        "code": root / "code.json",
        "recovery": root / "recovery.json",
        "mixture": root / "mixture.json",
    }
    serialize.dump_json(serialize.channel_to_dict(system.channel), paths["channel"])
    serialize.dump_json(serialize.encoding_to_dict(system.encoding), paths["code"])
    serialize.dump_json(serialize.channel_to_dict(system.recovery), paths["recovery"])
    serialize.dump_json(
        serialize.channel_to_dict(make_example2_channel(0.4, 0.05)), paths["mixture"]
    )
    return {k: str(v) for k, v in paths.items()}


def read(path):
    with open(path) as fh:
        return json.load(fh)


# each command's flags, in the order ``tniso <command> --help`` lists them
FLAGS = {
    "check-channel": ["--channel", "--out"],
    "classify": ["--channel", "--code", "--strategy", "--tol", "--seed", "--out"],
    "correct": ["--channel", "--code", "--strategy", "--tol", "--seed", "--out"],
    "simulate": ["--channel", "--code", "--recovery", "--state", "--iters", "--csv", "--seed", "--out"],
    "epsilon": ["--channel", "--code", "--recovery", "--seed", "--out"],
    "example": ["name", "--p", "--epsilon", "--iters", "--seed", "--out"],
}
# the arguments each report echoes under "config"; correct writes no report
CONFIG = {
    "check-channel": ("channel",),
    "classify": ("channel", "code", "strategy", "tol"),
    "simulate": ("channel", "code", "recovery", "state", "iters"),
    "epsilon": ("channel", "code", "recovery", "seed"),
    "example": ("name", "p", "epsilon", "iters", "out"),
}


class TestCheckChannel:
    def test_valid_channel(self, generated, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check-channel", "--channel", generated["channel"], "--out", str(out)])
        assert code == 0
        report = read(out)
        assert report["results"]["tp_residual"] <= 1e-12
        assert report["results"]["kraus_count"] == 4

    def test_identity_channel(self, tmp_path):
        path = tmp_path / "id.json"
        serialize.dump_json(
            {"dim_in": 2, "dim_out": 2, "kraus": [serialize.matrix_to_json(np.eye(2))]},
            path,
        )
        assert main(["check-channel", "--channel", str(path)]) == 0

    def test_scaled_kraus_fails(self, generated, tmp_path):
        payload = read(generated["channel"])
        kraus = serialize.matrix_from_json(payload["kraus"], "kraus", ndim=3)
        payload["kraus"] = serialize.matrix_to_packed(1.1 * kraus)
        bad = tmp_path / "bad.json"
        serialize.dump_json(payload, bad)
        assert main(["check-channel", "--channel", str(bad)]) == 1

    def test_defect_outside_the_load_gate_fails_whatever_the_tolerance(
        self, generated, tmp_path, capsys
    ):
        # a 3e-9 TP defect is inside the detection tolerance but outside the
        # TP gate that classify loads the channel through
        payload = read(generated["channel"])
        kraus = serialize.matrix_from_json(payload["kraus"], "kraus", ndim=3)
        payload["kraus"] = serialize.matrix_to_packed(np.sqrt(1.0 + 3e-9) * kraus)
        bad = tmp_path / "bad.json"
        serialize.dump_json(payload, bad)
        out = tmp_path / "report.json"
        assert main(["check-channel", "--channel", str(bad), "--out", str(out)]) == 1
        assert read(out)["results"]["trace_preserving"] is False
        assert 1e-9 < read(out)["results"]["tp_residual"] < 1e-8
        # the verdict reads no tolerance from the command line, so the report records none
        assert "tol" not in read(out)["config"]
        capsys.readouterr()
        argv = ["classify", "--channel", str(bad), "--code", generated["code"]]
        assert main(argv) == 2
        assert "not trace preserving" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["check-channel", "--channel", str(bad)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check-channel", "--channel", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("field", ["dim_in", "dim_out"])
    def test_non_integer_dimension_exits_2(self, generated, tmp_path, capsys, field):
        payload = read(generated["channel"])
        payload[field] = "eight"
        bad = tmp_path / "bad.json"
        serialize.dump_json(payload, bad)
        assert main(["check-channel", "--channel", str(bad)]) == 2
        assert f"'{field}' must be an integer" in capsys.readouterr().err


class TestClassify:
    def test_repetition_verdicts(self, generated, tmp_path):
        out = tmp_path / "classify.json"
        code = main(
            ["classify", "--channel", generated["channel"], "--code", generated["code"], "--out", str(out)]
        )
        assert code == 0
        results = read(out)["results"]
        assert results["fixed"] is False
        assert results["preserved"] is True
        assert results["correctable"] is True
        assert results["completely_correctable"] is True
        assert results["noiseless_certificate"] is True
        assert results["protectable"] is True
        assert results["unitarily_correctable"] is False
        assert results["unitarily_recoverable"] is True

    def test_mixture_not_preserved(self, generated, tmp_path):
        out = tmp_path / "classify2.json"
        code = main(
            [
                "classify",
                "--channel", generated["mixture"],
                "--code", generated["code"],
                "--tol", "1e-6",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read(out)["results"]["preserved"] is False

    def test_projector_path_is_reported_under_meta(self, generated, tmp_path):
        out = tmp_path / "classify.json"
        argv = ["classify", "--channel", generated["channel"], "--code", generated["code"]]
        assert main(argv + ["--out", str(out)]) == 0
        report = read(out)
        assert report["meta"].keys() == {"stage", "detection_tol", "projector", "fell_back", "duration_s"}
        assert report["meta"]["stage"] == "verified"
        assert report["meta"]["detection_tol"] == tol.DETECTION_TOL
        assert report["meta"]["projector"] == "fixed"
        assert report["meta"]["fell_back"] is False
        assert report["meta"]["duration_s"] >= 0
        assert "projector" not in json.dumps(report["results"])

    def test_rejection_stage_is_reported_under_meta(self, generated, tmp_path):
        out = tmp_path / "classify_mixture.json"
        argv = ["classify", "--channel", generated["mixture"], "--code", generated["code"]]
        assert main(argv + ["--tol", "1e-6", "--out", str(out)]) == 0
        report = read(out)
        assert report["results"]["preserved"] is False
        assert report["meta"].keys() == {"stage", "detection_tol", "duration_s"}
        assert report["meta"]["stage"] in ("state_images", "orthogonality", "spectrum", "verification")
        assert report["meta"]["detection_tol"] == 1e-6
        assert "stage" not in json.dumps(report["results"])

    def test_dimension_mismatch_exits_2(self, generated, tmp_path, capsys):
        small = tmp_path / "small.json"
        serialize.dump_json(
            {"dim_in": 2, "dim_out": 2, "kraus": [serialize.matrix_to_json(np.eye(2))]},
            small,
        )
        assert main(["classify", "--channel", str(small), "--code", generated["code"]]) == 2
        capsys.readouterr()
        assert main(["epsilon", "--channel", str(small), "--code", generated["code"]]) == 2
        assert "channel and code dimensions do not match" in capsys.readouterr().err

        # an 8 -> 4 channel and a 4 -> 8 recovery compose to a loop on the
        # code's space, but neither is square on it
        down, up, four = (tmp_path / f"{name}.json" for name in ("down", "up", "four"))
        halves = [np.eye(4, 8), np.eye(4, 8, 4)]
        serialize.dump_json(
            {"dim_in": 8, "dim_out": 4, "kraus": [serialize.matrix_to_json(k) for k in halves]},
            down,
        )
        serialize.dump_json(
            {"dim_in": 4, "dim_out": 8, "kraus": [serialize.matrix_to_json(np.eye(8, 4))]}, up
        )
        serialize.dump_json(
            {"dim_in": 4, "dim_out": 4, "kraus": [serialize.matrix_to_json(np.eye(4))]}, four
        )
        cases = [
            (down, up, "channel and code dimensions do not match"),
            (generated["channel"], four, "recovery and code dimensions do not match"),
        ]
        for channel, recovery, message in cases:
            for command in ("simulate", "epsilon"):
                argv = [command, "--channel", str(channel), "--code", generated["code"]]
                assert main(argv + ["--recovery", str(recovery)]) == 2, (command, message)
                assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            ("code", "d_S", "two"),
            ("code", "d_S", "2"),
            ("code", "d_S", 2.7),
            ("code", "d_S", True),
            ("channel", "dim_in", 2.7),
            ("channel", "dim_in", True),
        ],
    )
    def test_non_integer_code_dimension_exits_2(
        self, generated, tmp_path, capsys, kind, field, value
    ):
        payload = read(generated[kind])
        payload[field] = value
        bad = tmp_path / f"bad_{kind}.json"
        serialize.dump_json(payload, bad)
        files = {"channel": generated["channel"], "code": generated["code"], kind: str(bad)}
        assert main(["classify", "--channel", files["channel"], "--code", files["code"]]) == 2
        err = capsys.readouterr().err
        assert f"'{field}' must be an integer" in err and "Traceback" not in err

    def test_integral_float_dimension_loads(self, generated, tmp_path):
        payload = read(generated["code"])
        payload["d_S"] = 2.0
        code = tmp_path / "float_code.json"
        serialize.dump_json(payload, code)
        assert main(["classify", "--channel", generated["channel"], "--code", str(code)]) == 0


class TestCorrect:
    @pytest.mark.parametrize("strategy,residual_bound", [("replace", 1e-10), ("petz", 1e-9)])
    def test_writes_verified_recovery(self, generated, tmp_path, capsys, strategy, residual_bound):
        out = tmp_path / f"R_{strategy}.json"
        code = main(
            [
                "correct",
                "--channel", generated["channel"],
                "--code", generated["code"],
                "--strategy", strategy,
                "--out", str(out),
            ]
        )
        assert code == 0
        verification = json.loads(capsys.readouterr().out)
        assert verification["fixed_residual"] <= residual_bound
        recovered = serialize.channel_from_dict(read(out))
        assert recovered.dim_in == 8

    def test_not_preserved_exits_1(self, generated, tmp_path):
        assert (
            main(
                [
                    "correct",
                    "--channel", generated["mixture"],
                    "--code", generated["code"],
                    "--tol", "1e-6",
                    "--out", str(tmp_path / "r.json"),
                ]
            )
            == 1
        )


class TestSimulate:
    def test_mixture_preset_reproduces_goldens(self, generated, tmp_path):
        out = tmp_path / "sim.json"
        csv_path = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--channel", generated["mixture"],
                "--code", generated["code"],
                "--recovery", generated["recovery"],
                "--iters", "10",
                "--out", str(out),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        results = read(out)["results"]
        assert results["decoded_errors"][-1] == pytest.approx(0.335, abs=1e-3)
        final = serialize.state_from_json(results["final_decoded_state"])
        assert abs(final[0, 1]) == pytest.approx(0.332, abs=1e-3)
        assert results["linear_bound_ok"] is True
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "n,error,linear_bound,geometric_bound"
        assert len(rows) == 12

    def test_exact_model_single_round(self, generated, tmp_path):
        out = tmp_path / "sim1.json"
        code = main(
            [
                "simulate",
                "--channel", generated["channel"],
                "--code", generated["code"],
                "--recovery", generated["recovery"],
                "--iters", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read(out)["results"]["errors"][-1] <= 1e-12

    def test_logical_state_is_encoded(self, generated, tmp_path):
        state = tmp_path / "state.json"
        serialize.dump_json(serialize.state_to_json(np.diag([1.0, 0.0])), state)
        out = tmp_path / "sim2.json"
        code = main(
            [
                "simulate",
                "--channel", generated["channel"],
                "--code", generated["code"],
                "--recovery", generated["recovery"],
                "--state", str(state),
                "--iters", "2",
                "--out", str(out),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "matrix",
        [np.eye(2), np.array([[0.5, 0.5], [0.0, 0.5]]), np.diag([1.5, -0.5])],
        ids=["trace-2", "non-hermitian", "negative"],
    )
    def test_non_state_exits_2(self, generated, tmp_path, capsys, matrix):
        state = tmp_path / "bad_state.json"
        serialize.dump_json(serialize.state_to_json(matrix), state)
        out = tmp_path / "sim_bad.json"
        argv = [
            "simulate",
            "--channel", generated["channel"],
            "--code", generated["code"],
            "--recovery", generated["recovery"],
            "--state", str(state),
            "--out", str(out),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "state" in err and "Traceback" not in err
        assert not out.exists()

    def test_wrong_state_dimension_exits_2(self, generated, tmp_path):
        state = tmp_path / "state3.json"
        serialize.dump_json(serialize.state_to_json(np.eye(3) / 3), state)
        assert (
            main(
                [
                    "simulate",
                    "--channel", generated["channel"],
                    "--code", generated["code"],
                    "--recovery", generated["recovery"],
                    "--state", str(state),
                ]
            )
            == 2
        )

    def test_state_wrapped_in_an_object_exits_2(self, generated, tmp_path, capsys):
        # a state file holds a bare matrix, nested or packed; a {"matrix": ...}
        # object is neither and is refused
        state = tmp_path / "wrapped_state.json"
        serialize.dump_json({"matrix": serialize.state_to_json(np.diag([1.0, 0.0]))}, state)
        out = tmp_path / "sim_wrapped.json"
        argv = [
            "simulate",
            "--channel", generated["channel"],
            "--code", generated["code"],
            "--recovery", generated["recovery"],
            "--state", str(state),
            "--out", str(out),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "malformed state payload" in err and "Traceback" not in err
        assert not out.exists()


class TestEpsilonCommand:
    def test_bracket_reported(self, generated, tmp_path):
        out = tmp_path / "eps.json"
        code = main(
            [
                "epsilon",
                "--channel", generated["mixture"],
                "--code", generated["code"],
                "--recovery", generated["recovery"],
                "--out", str(out),
            ]
        )
        assert code == 0
        results = read(out)["results"]
        assert abs(results["epsilon_upper"] - 0.04) <= 1e-12
        assert results["epsilon_upper"] - 1e-12 <= results["epsilon_witness"] <= results["epsilon_upper"]

    @pytest.mark.parametrize("flag", ["--samples", "--refine"])
    def test_search_budget_is_not_an_option(self, generated, tmp_path, capsys, flag):
        out = tmp_path / "eps.json"
        argv = ["epsilon", "--channel", generated["mixture"], "--code", generated["code"]]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "5", "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestSimulateReadsTheCertificate:
    """``simulate``'s epsilon is the round's certificate, the upper end of
    ``epsilon``'s bracket, and its bounds are the bound checks' numbers."""

    @pytest.fixture(scope="class")
    def d20(self, tmp_path_factory):
        """A d_P = 20 system under 2% stray noise, with the recovery built
        for the exact channel."""
        root = tmp_path_factory.mktemp("d20")
        rng = np.random.default_rng(0)
        enc, exact = random_preserved_system(4, 4, 4, rng)
        noise = convex_mix([0.98, 0.02], [exact, random_channel(enc.dim_physical, rng)])
        paths = {k: str(root / f"{k}.json") for k in ("channel", "code", "recovery")}
        serialize.dump_json(serialize.channel_to_dict(noise), paths["channel"])
        serialize.dump_json(serialize.encoding_to_dict(enc), paths["code"])
        serialize.dump_json(serialize.channel_to_dict(build_correction(enc, exact)), paths["recovery"])
        return paths

    @pytest.mark.parametrize("system", ["example2", "d20"])
    def test_same_upper_end_and_exact_bounds(self, generated, d20, tmp_path, system):
        files = d20 if system == "d20" else {**generated, "channel": generated["mixture"]}
        argv = ["--channel", files["channel"], "--code", files["code"], "--recovery", files["recovery"]]
        sim, eps = tmp_path / "simulate.json", tmp_path / "epsilon.json"
        assert main(["simulate", *argv, "--iters", "12", "--out", str(sim)]) == 0
        assert main(["epsilon", *argv, "--out", str(eps)]) == 0
        report = read(sim)
        results, upper = report["results"], report["results"]["epsilon_upper"]
        assert upper == read(eps)["results"]["epsilon_upper"] > 0
        assert len(results["linear_bound"]) == 13
        assert all(b == upper * n for n, b in enumerate(results["linear_bound"]))
        assert results["alpha_max"] < 1
        assert results["geometric_bound"] == upper / (1 - results["alpha_max"])
        assert results["linear_bound_ok"] is True and results["geometric_bound_ok"] is True
        assert "epsilon_witness" not in results
        assert "epsilon_search_dim" not in report["meta"]


class TestExampleCommand:
    def test_repetition_golden(self, tmp_path):
        code = main(["example", "repetition", "--p", "0.4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "repetition_channel.json").exists()
        assert (tmp_path / "repetition_code.json").exists()
        assert (tmp_path / "repetition_recovery.json").exists()
        report = read(tmp_path / "repetition_report.json")
        assert report["results"]["golden_ok"] is True

    def test_repetition_p_zero(self, tmp_path):
        assert main(["example", "repetition", "--p", "0.0", "--out", str(tmp_path)]) == 0

    def test_example2_defaults(self, tmp_path):
        code = main(["example", "example2", "--out", str(tmp_path)])
        assert code == 0
        report = read(tmp_path / "example2_report.json")
        assert report["results"]["golden_ok"] is True
        assert report["results"]["errors"][-1] == pytest.approx(0.335, abs=1e-3)

    def test_invalid_p_exits_2(self, tmp_path):
        assert main(["example", "repetition", "--p", "0.7", "--out", str(tmp_path)]) == 2

    def test_example2_report_does_not_depend_on_seed(self, tmp_path):
        # example2 reads only the certified upper end of the bracket, which
        # no sampling moves; the seed is accepted and not recorded
        bodies = []
        for seed in ("0", "5"):
            assert main(["example", "example2", "--seed", seed, "--out", str(tmp_path)]) == 0
            report = read(tmp_path / "example2_report.json")
            assert "seed" not in report["config"]
            report.pop("meta")
            bodies.append(json.dumps(report, sort_keys=True))
        assert bodies[0] == bodies[1]


class TestReportContract:
    def test_determinism_excluding_duration(self, generated, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "simulate",
                        "--channel", generated["mixture"],
                        "--code", generated["code"],
                        "--recovery", generated["recovery"],
                        "--iters", "5",
                        "--seed", "7",
                        "--out", str(out),
                    ]
                )
                == 0
            )
        a, b = read(out1), read(out2)
        a.pop("meta"), b.pop("meta")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_roundtrips_losslessly(self, generated, tmp_path):
        out = tmp_path / "r.json"
        main(["check-channel", "--channel", generated["channel"], "--out", str(out)])
        payload = read(out)
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("command", sorted(CONFIG))
    def test_report_skeleton(self, generated, tmp_path, command):
        out = tmp_path / "repetition_report.json"
        argv = _report_argv(command, generated, tmp_path)
        if command != "example":
            argv += ["--out", str(out)]
        assert main(argv) == 0
        report = read(out)
        assert set(report) == {"command", "config", "results", "versions", "meta"}
        assert report["command"] == command
        assert set(report["config"]) == set(CONFIG[command])
        # only epsilon reads the seed, and only classify the tolerance
        assert report["config"].get("seed") == (0 if command == "epsilon" else None)
        assert ("tol" in report["config"]) == (command == "classify")
        for key, value in report["config"].items():
            if f"--{key}" in argv:
                assert value == type(value)(argv[argv.index(f"--{key}") + 1])

    @pytest.mark.parametrize("command", ["classify", "correct", "simulate"])
    def test_seed_is_accepted_and_ignored(self, generated, tmp_path, command):
        # only epsilon reads --seed; the commands the benchmark passes it to
        # accept it, record none, and write the same body (correct: recovery
        # file) for any value
        argv = _report_argv(command, generated, tmp_path)
        if command == "simulate":
            argv[argv.index("--channel") + 1] = generated["mixture"]
        bodies = []
        for seed in ("0", "5"):
            out = tmp_path / f"seed{seed}.json"
            assert main(argv + ["--seed", seed, "--out", str(out)]) == 0
            doc = read(out)
            if command != "correct":
                assert "seed" not in doc.pop("config")
                doc.pop("meta")
            bodies.append(json.dumps(doc, sort_keys=True))
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("flag, expected", [(None, 1e-8), ("1e-6", 1e-6)])
    def test_config_tol_is_the_resolved_tolerance(self, generated, tmp_path, flag, expected):
        out = tmp_path / "r.json"
        argv = _report_argv("classify", generated, tmp_path)
        if flag is not None:
            argv += ["--tol", flag]
        assert main(argv + ["--out", str(out)]) == 0
        assert read(out)["config"]["tol"] == expected


def _report_argv(command, generated, tmp_path):
    """A passing invocation of a report-writing command on the repetition system."""
    if command == "example":
        return ["example", "repetition", "--out", str(tmp_path)]
    argv = [command, "--channel", generated["channel"]]
    if command != "check-channel":
        argv += ["--code", generated["code"]]
    if command in ("simulate", "epsilon"):
        argv += ["--recovery", generated["recovery"]]
    if command == "simulate":
        argv += ["--iters", "2"]
    return argv


class TestEachCommandParsesOnlyWhatItReads:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_match_the_table(self, command):
        commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(commands.choices) == set(FLAGS)
        actions = commands.choices[command]._actions
        flags = [a.option_strings[0] if a.option_strings else a.dest for a in actions if a.dest != "help"]
        assert flags == FLAGS[command]

    @pytest.mark.parametrize(
        "command, flag, value",
        [(c, "--tol", "1e-6") for c in ("check-channel", "simulate", "epsilon", "example")]
        + [("check-channel", "--seed", "0")],
    )
    def test_flag_the_command_does_not_read_exits_2(
        self, generated, tmp_path, capsys, command, flag, value
    ):
        argv = _report_argv(command, generated, tmp_path)
        if command != "example":
            argv += ["--out", str(tmp_path / "report.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_tniso_tol_is_not_read(self, generated, tmp_path, monkeypatch, command):
        # correct's body is its recovery file
        argv = _report_argv(command, generated, tmp_path)
        out = tmp_path / ("repetition_report.json" if command == "example" else "report.json")
        if command != "example":
            argv += ["--out", str(out)]
        monkeypatch.delenv("TNISO_TOL", raising=False)
        runs = []
        for env in (None, "garbage"):
            if env is not None:
                monkeypatch.setenv("TNISO_TOL", env)
            out.unlink(missing_ok=True)
            code = main(argv)
            doc = read(out)
            if command != "correct":
                doc.pop("meta")
            runs.append((code, doc))
        assert runs[0] == runs[1] and runs[0][0] == 0


class TestBenchmarkCommandLines:
    """The benchmark's ``paper-cli`` workload (``perfbench/workloads.py``)
    passes command lines that the parser must keep accepting."""

    def test_parser_accepts_every_benchmark_argv(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        seen, run = [], workloads._run_cli
        monkeypatch.setattr(workloads, "_run_cli", lambda argv: seen.append(argv) or run(argv))
        bench = workloads.PaperCli(0, str(tmp_path))
        bench.setup()
        argvs = seen + [argv for _, argv, _, _ in bench._commands(str(tmp_path / "pass"))]
        assert [argv[0] for argv in seen] == ["example", "example"] and "--seed" in seen[0]
        assert len(argvs) == 2 + len(workloads.CLI_SYSTEMS) * len(workloads.CLI_COMMANDS)
        refused = []
        for argv in argvs:
            try:
                _build_parser().parse_args(argv)
            except SystemExit:
                refused.append(argv)
        assert refused == []


class TestUnwritableOrUndecodableFiles:
    """File errors exit 2 naming the path, whichever file it is."""

    @pytest.mark.parametrize(
        "command, target",
        [
            *[(c, t) for c in ("check-channel", "classify", "correct", "simulate", "epsilon")
              for t in ("missing dir", "directory")],
            ("example", "directory"),
        ],
    )
    def test_unwritable_out_exits_2(self, generated, tmp_path, capsys, command, target):
        argv = _report_argv(command, generated, tmp_path)
        if target == "missing dir":
            path = tmp_path / "missing" / "x.json"
        else:
            path = tmp_path / "repetition_report.json"
            path.mkdir()
        if command != "example":
            argv += ["--out", str(path)]
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "command, field",
        [("check-channel", "channel"), ("classify", "channel"), ("classify", "code")],
    )
    def test_non_utf8_input_exits_2(self, generated, tmp_path, capsys, command, field):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00\x01\x02")
        argv = _report_argv(command, generated, tmp_path)
        argv[argv.index(f"--{field}") + 1] = str(binary)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(binary) in err and "UTF-8" in err


class TestInputValidation:
    @pytest.mark.parametrize(
        "kind,field", [("channel", "kraus"), ("code", "basis"), ("code", "tau"), ("state", "state")]
    )
    def test_non_numeric_matrix_entry_exits_2(self, generated, tmp_path, capsys, kind, field):
        # every bad entry stands for the number it replaces, so a loader that
        # converts strings and booleans would accept the file; only the
        # nested form has entries of their own JSON type
        files = dict(generated)
        if kind == "state":
            payload = [[[True, 0], [0, 0]], [[0, 0], ["0", 0]]]
        else:
            payload = nested_form(read(generated[kind]))
            rows = payload[field][0] if field == "kraus" else payload[field]
            rows[0][0][0] = str(rows[0][0][0])
        files[kind] = str(tmp_path / f"{kind}.json")
        serialize.dump_json(payload, files[kind])
        argv = ["--channel", files["channel"], "--code", files["code"]]
        if kind == "state":
            argv = ["simulate", *argv, "--recovery", files["recovery"], "--state", files["state"]]
        else:
            argv = ["classify", *argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"malformed {field} payload" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_non_positive_tol_exits_2(self, generated, tmp_path, capsys, value):
        out = tmp_path / "c.json"
        argv = ["classify", "--channel", generated["channel"], "--code", generated["code"]]
        assert main(argv + ["--tol", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tol must be positive" in err and "Traceback" not in err
        assert not out.exists()

    def test_infinite_tol_exits_2(self, generated, tmp_path, capsys):
        # an infinite tolerance would accept the mixture, which the code's
        # channel does not preserve, as preserved and fixed
        out = tmp_path / "c.json"
        argv = ["classify", "--channel", generated["mixture"], "--code", generated["code"]]
        assert main(argv + ["--tol", "inf", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "tol must be positive and finite, got inf" in err and "Traceback" not in err
        assert not out.exists()

    def test_infinite_tol_for_correct_exits_2(self, generated, tmp_path, capsys):
        # an infinite tolerance would write a recovery for a code the
        # mixture does not preserve
        out = tmp_path / "recovery.json"
        argv = ["correct", "--channel", generated["mixture"], "--code", generated["code"]]
        assert main(argv + ["--tol", "inf", "--out", str(out)]) == 2
        assert "tol must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "example"])
    def test_zero_iters_exits_2(self, generated, tmp_path, capsys, command):
        if command == "simulate":
            argv = [
                "simulate",
                "--channel", generated["mixture"],
                "--code", generated["code"],
                "--recovery", generated["recovery"],
                "--out", str(tmp_path / "sim.json"),
            ]
        else:
            argv = ["example", "example2", "--out", str(tmp_path)]
        assert main(argv + ["--iters", "0"]) == 2
        err = capsys.readouterr().err
        assert "iters must be at least 1" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["epsilon", "simulate", "example"])
    def test_negative_seed_exits_2(self, generated, tmp_path, capsys, command):
        if command == "example":
            argv = ["example", "example2", "--out", str(tmp_path)]
        else:
            argv = [
                command,
                "--channel", generated["mixture"],
                "--code", generated["code"],
                "--recovery", generated["recovery"],
                "--out", str(tmp_path / f"{command}.json"),
            ]
        assert main(argv + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be nonnegative, got -1" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite number {token} in a report")

    return json.loads(text, parse_constant=refuse)


class TestStrictJsonReports:
    def test_every_report_body_is_finite(self, generated, tmp_path, capsys):
        # a 1e-10 admixture keeps the (2, 3, 1) code preserved, while its
        # corrected loop's fixed-point projection of the code is no encoding
        rng = np.random.default_rng(0)
        enc, channel = random_preserved_system(2, 3, 1, rng)
        near = convex_mix([1.0 - 1e-10, 1e-10], [channel, random_channel(enc.dim_physical, rng)])
        near_files = {k: str(tmp_path / f"near_{k}.json") for k in ("channel", "code", "recovery")}
        serialize.dump_json(serialize.channel_to_dict(near), near_files["channel"])
        serialize.dump_json(serialize.encoding_to_dict(enc), near_files["code"])

        reports = []
        for name in ("repetition", "example2"):
            assert main(["example", name, "--out", str(tmp_path)]) == 0
            reports.append(tmp_path / f"{name}_report.json")
        for label, files in (
            ("rep", generated),
            ("mix", {**generated, "channel": generated["mixture"]}),
            ("near", near_files),
        ):
            pair = ["--channel", files["channel"], "--code", files["code"]]
            if label == "near":
                capsys.readouterr()
                assert main(["correct", *pair, "--out", files["recovery"]]) == 0
                _strict_json(capsys.readouterr().out)
            looped = [*pair, "--recovery", files["recovery"]]
            runs = {
                "check": ["check-channel", "--channel", files["channel"]],
                "petz": ["classify", *pair, "--strategy", "petz"],
                "replace": ["classify", *pair, "--strategy", "replace"],
                "sim": ["simulate", *looped],
                "eps": ["epsilon", *looped],
            }
            for kind, argv in runs.items():
                out = tmp_path / f"{label}_{kind}.json"
                assert main(argv + ["--out", str(out)]) == 0
                reports.append(out)
        for path in reports:
            _strict_json(path.read_text())


class TestStdoutIsOneJsonDocument:
    """Without ``--out`` a command's report, or ``correct``'s verification, is
    stdout's one JSON document and the human summary goes to stderr; with
    ``--out`` the summary is stdout."""

    @pytest.mark.parametrize("command", ["check-channel", "classify", "simulate", "epsilon", "correct"])
    def test_stdout_parses_as_json(self, generated, tmp_path, capsys, command):
        pair = ["--channel", generated["channel"], "--code", generated["code"]]
        mixed = ["--channel", generated["mixture"], "--code", generated["code"]]
        argv = {
            "check-channel": ["check-channel", "--channel", generated["channel"]],
            "classify": ["classify", *pair],
            "simulate": ["simulate", *mixed, "--recovery", generated["recovery"]],
            "epsilon": ["epsilon", *mixed, "--recovery", generated["recovery"]],
            "correct": ["correct", *pair, "--out", str(tmp_path / "recovery.json")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr()
        doc = json.loads(printed.out)
        if command == "correct":
            assert doc["kraus_count"] == 4 and printed.err == ""
            return
        assert doc["command"] == command and printed.err.strip()
        if command == "epsilon":
            # one round of example2's mixture moves only the code's coherence
            assert doc["meta"]["epsilon_search_dim"] == 2
        if command == "simulate":
            # simulate reads the round's certificate and runs no search
            assert "epsilon_search_dim" not in doc["meta"]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        to_file = capsys.readouterr()
        assert (to_file.out, to_file.err) == (printed.err, "")
        assert read(out)["results"] == doc["results"]


class TestParserReuse:
    """The parser is built once per process, and no call leaves state in it."""

    def test_flags_do_not_carry_over(self, generated, tmp_path):
        pair = ["--channel", generated["channel"], "--code", generated["code"]]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        argv = ["classify", *pair, "--tol", "1e-3", "--strategy", "replace", "--seed", "3"]
        assert main(argv + ["--out", str(first)]) == 0
        assert read(first)["config"]["tol"] == 1e-3
        assert read(first)["config"]["strategy"] == "replace"
        assert main(["classify", *pair, "--out", str(second)]) == 0
        config = read(second)["config"]
        assert config["tol"] == 1e-08 and config["strategy"] == "petz" and "seed" not in config
        looped = ["epsilon", *pair, "--recovery", generated["recovery"]]
        assert main(looped + ["--seed", "3", "--out", str(first)]) == 0
        assert read(first)["config"]["seed"] == 3
        assert main(looped + ["--out", str(second)]) == 0
        assert read(second)["config"]["seed"] == 0

    def test_argparse_error_leaves_the_next_call_working(self, generated, tmp_path, capsys):
        pair = ["--channel", generated["channel"], "--code", generated["code"]]
        with pytest.raises(SystemExit) as exc:
            main(["classify", *pair, "--seed", "x"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        out = tmp_path / "after.json"
        assert main(["classify", *pair, "--out", str(out)]) == 0
        assert "seed" not in read(out)["config"]
        assert read(out)["results"]["preserved"] is True


@pytest.fixture(scope="module")
def structured(tmp_path_factory):
    """A d_P = 10 system under 1e-3 noise, with the recovery built for the
    exact channel written structured and as its expanded twin."""
    root = tmp_path_factory.mktemp("structured")
    rng = np.random.default_rng(0)
    enc, channel = random_preserved_system(2, 4, 2, rng)
    noisy = convex_mix([1.0 - 1e-3, 1e-3], [channel, random_channel(enc.dim_physical, rng)])
    recovery = build_correction(enc, channel)
    paths = {k: str(root / f"{k}.json") for k in ("channel", "code", "recovery", "twin")}
    serialize.dump_json(serialize.channel_to_dict(noisy), paths["channel"])
    serialize.dump_json(serialize.encoding_to_dict(enc), paths["code"])
    serialize.dump_json(serialize.channel_to_dict(recovery), paths["recovery"])
    twin = {"dim_in": 10, "dim_out": 10, "kraus": serialize.matrix_to_json(np.stack(recovery.kraus))}
    serialize.dump_json(twin, paths["twin"])
    return paths


class TestStructuredRecoveryFiles:
    @pytest.mark.parametrize("command", ["simulate", "epsilon"])
    def test_structured_file_and_its_twin_give_the_same_report(
        self, structured, tmp_path, command
    ):
        results = []
        for recovery in ("recovery", "twin"):
            out = tmp_path / f"{command}_{recovery}.json"
            argv = [command, "--channel", structured["channel"], "--code", structured["code"],
                    "--recovery", structured[recovery], "--out", str(out)]
            assert main(argv) == 0
            results.append(read(out)["results"])
        a, b = results
        assert a.keys() == b.keys()
        # residuals agree to rounding; the ratios alpha of successive steps,
        # the geometric bound eps / (1 - alpha_max) (alpha_max is 0.998 here)
        # and the witness state (an eigenvector) amplify it
        loose = {"alpha_estimates", "alpha_max", "geometric_bound", "witness_state"}
        for key in a:
            if isinstance(a[key], (bool, int)) and not isinstance(a[key], float):
                assert a[key] == b[key], key
            else:
                x, y = np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float)
                assert np.abs(x - y).max() <= (1e-10 if key in loose else 1e-14), key
        assert a["epsilon_upper"] > 1e-6  # the noise moves the round

    def _check_bad(self, structured, tmp_path, capsys, edit, message):
        # the nested form, whose rows the edits below can cut and flatten
        payload = nested_form(read(structured["recovery"]))
        edit(payload["reset"])
        bad = tmp_path / "bad_recovery.json"
        serialize.dump_json(payload, bad)
        for argv in (
            ["check-channel", "--channel", str(bad)],
            ["simulate", "--channel", structured["channel"], "--code", structured["code"],
             "--recovery", str(bad), "--out", str(tmp_path / "sim.json")],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "reset" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "sim.json").exists()

    @pytest.mark.parametrize(
        "case, message",
        [
            ("non-psd", "not PSD"),
            ("trace", "expected 1"),
            ("cols-rows", "does not have 10 rows"),
            ("cols-flat", "rows of [re, im] pairs"),
            ("non-finite", "entries must be finite"),
            ("missing", "'state'"),
        ],
    )
    def test_bad_reset_exits_2(self, structured, tmp_path, capsys, case, message):
        def edit(reset):
            state = serialize.state_from_json(reset["state"])
            if case == "non-psd":
                w, v = np.linalg.eigh(state)
                w[-1], w[-2] = w[-1] + 0.1, w[-2] - 0.1 - w[-2] - 0.05  # one eigenvalue -0.05
                reset["state"] = serialize.matrix_to_json((v * w) @ v.conj().T)
            elif case == "trace":
                reset["state"] = serialize.matrix_to_json(1.5 * state)
            elif case == "cols-rows":
                reset["cols"] = reset["cols"][:-1]
            elif case == "cols-flat":
                reset["cols"] = [x for row in reset["cols"] for x in row]
            elif case == "non-finite":
                reset["state"][0][0][0] = float("nan")
            else:
                del reset["state"]

        self._check_bad(structured, tmp_path, capsys, edit, message)

    def test_reset_that_breaks_trace_preservation_fails_the_gate(
        self, structured, tmp_path, capsys
    ):
        payload = read(structured["recovery"])
        cols = serialize.matrix_from_json(payload["reset"]["cols"], "cols")
        payload["reset"]["cols"] = serialize.matrix_to_json(1.01 * cols)
        bad = tmp_path / "scaled_reset.json"
        serialize.dump_json(payload, bad)
        out = tmp_path / "check.json"
        assert main(["check-channel", "--channel", str(bad), "--out", str(out)]) == 1
        results = read(out)["results"]
        assert results["trace_preserving"] is False
        # the reset's adjoint sends I to 1.01^2 P, P the complement projector
        projector = cols @ cols.conj().T
        assert results["tp_residual"] == pytest.approx((1.01**2 - 1) * np.abs(projector).max())
        assert results["kraus_count"] == 10
        argv = ["simulate", "--channel", structured["channel"], "--code", structured["code"]]
        assert main(argv + ["--recovery", str(bad)]) == 2
        assert "not trace preserving" in capsys.readouterr().err


def _corrupt(packed: dict, case: str) -> dict:
    """A copy of a valid packed matrix broken one way."""
    bad, tag = dict(packed), serialize.PACKED_TAG
    shape = bad["shape"] = list(bad["shape"])
    if case == "not-base64":  # characters that a lenient decoder would skip
        bad[tag] = bad[tag][:4] + "\n!" + bad[tag][4:]
    elif case == "truncated-text":  # a length that no padding fits
        bad[tag] = bad[tag][:-1]
    elif case == "byte-count":
        bad[tag] = base64.b64encode(base64.b64decode(bad[tag])[:-8]).decode()
    elif case == "huge-shape":  # allocating 16 * 10^24 bytes or more would fail otherwise
        bad["shape"] = [10**12] * len(shape)
    elif case in ("negative-shape", "float-shape", "bool-shape"):
        shape[0] = {"negative-shape": -1, "float-shape": float(shape[0]), "bool-shape": True}[case]
    elif case == "ndim":
        shape.append(1)
    elif case in ("nan", "inf"):
        m = serialize.matrix_from_json(packed, "packed", len(shape))
        m.flat[-1] = complex(0.0, float(case))
        bad = serialize.matrix_to_packed(m)
    elif case == "missing-shape":
        del bad["shape"]
    elif case == "missing-data":
        del bad[tag]
    elif case == "unknown-tag":
        bad["float32le"] = bad.pop(tag)
    return bad


_PACKED_CASES = {  # case: what the error names
    "not-base64": "not base64",
    "truncated-text": "not base64",
    "byte-count": "needs",
    "huge-shape": "needs 16" + "0" * 24,  # at least 16 * 10^24 bytes
    "negative-shape": "non-negative integers",
    "float-shape": "non-negative integers",
    "bool-shape": "non-negative integers",
    "ndim": "axes, expected",
    "nan": "entries must be finite",
    "inf": "entries must be finite",
    "missing-shape": "missing ['shape']",
    "missing-data": f"missing [{serialize.PACKED_TAG!r}]",
    "unknown-tag": "unknown ['float32le']",
}


class TestPackedPayloads:
    """Every packed field of every input file is checked, and a broken one
    exits 2 naming the field."""

    def _run(self, generated, structured, tmp_path, field, edit):
        """The exit code of the command that reads ``field``, on files in
        which ``edit`` replaced that field's packed matrix."""
        edited = str(tmp_path / "edited.json")
        if field == "state":
            serialize.dump_json(edit(serialize.matrix_to_packed(np.eye(2) / 2)), edited)
            return main(["simulate", "--channel", generated["channel"], "--code", generated["code"],
                         "--recovery", generated["recovery"], "--state", edited, "--iters", "1"])
        if field.startswith("reset"):
            payload = read(structured["recovery"])
            node, key = payload["reset"], field.split()[1]
        else:
            payload = read(generated["channel" if field == "kraus" else "code"])
            node, key = payload, field
        node[key] = edit(node[key])
        serialize.dump_json(payload, edited)
        if field in ("basis", "tau"):
            return main(["classify", "--channel", generated["channel"], "--code", edited])
        return main(["check-channel", "--channel", edited])

    @pytest.mark.parametrize("field", ["kraus", "reset cols", "reset state", "basis", "tau", "state"])
    def test_valid_packed_field_loads(self, generated, structured, tmp_path, field):
        assert self._run(generated, structured, tmp_path, field, lambda packed: packed) == 0

    @pytest.mark.parametrize("case", sorted(_PACKED_CASES))
    @pytest.mark.parametrize("field", ["kraus", "reset cols", "reset state", "basis", "tau", "state"])
    def test_broken_packed_field_exits_2(self, generated, structured, tmp_path, capsys, field, case):
        edit = lambda packed: _corrupt(packed, case)
        capsys.readouterr()
        assert self._run(generated, structured, tmp_path, field, edit) == 2
        err = capsys.readouterr().err
        assert f"malformed {field} payload" in err and _PACKED_CASES[case] in err, err
        assert "Traceback" not in err

    def test_reports_keep_nested_matrices(self, generated, tmp_path):
        argv = ["--channel", generated["channel"], "--code", generated["code"],
                "--recovery", generated["recovery"]]
        sim, eps = tmp_path / "simulate.json", tmp_path / "epsilon.json"
        assert main(["simulate", *argv, "--iters", "1", "--out", str(sim)]) == 0
        assert main(["epsilon", *argv, "--out", str(eps)]) == 0
        for path, key in ((sim, "final_decoded_state"), (eps, "witness_state")):
            matrix = read(path)["results"][key]
            assert isinstance(matrix, list) and np.shape(matrix) == (2, 2, 2)
