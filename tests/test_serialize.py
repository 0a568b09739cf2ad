import json
import struct

import numpy as np
import pytest

from tniso import serialize
from tniso.analysis import build_correction
from tniso.channels import KrausChannel, compose
from tniso.cli import main
from tniso.errors import ContractViolation
from tniso import tolerances as tol
from tniso.sampling import random_preserved_system

from conftest import nested_form

# doubles whose shortest repr a writer could get wrong: signed zero, the
# smallest subnormal, the largest finite values and two inexact fractions
EDGE = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


def bits(values) -> list[int]:
    return [struct.unpack("<q", struct.pack("<d", x))[0] for x in values]


def flat(payload) -> list[float]:
    """Every number of a JSON payload, in document order."""
    if isinstance(payload, dict):
        return [x for key in sorted(payload) for x in flat(payload[key])]
    if isinstance(payload, list):
        return [x for item in payload for x in flat(item)]
    return [payload]


def edge_matrix(d: int, shift: int) -> np.ndarray:
    """A d x d complex matrix cycling through the edge values."""
    values = np.roll(np.array(EDGE * (2 * d * d // len(EDGE) + 1))[: 2 * d * d], shift)
    m = np.empty((d, d), dtype=complex)  # x + 1j * y would turn -0.0 into 0.0
    m.real, m.imag = values[0::2].reshape(d, d), values[1::2].reshape(d, d)
    return m


def legacy_matrix_to_json(m) -> list:
    """The writer's former conversion, entry by entry."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def legacy_dump_json(obj, path) -> None:
    """The former, indented data-file layout."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestWriter:
    @pytest.mark.parametrize("kind", ["channel", "code", "state"])
    def test_edge_values_round_trip_bit_for_bit(self, tmp_path, kind):
        mats = [edge_matrix(3, shift) for shift in range(3)]
        payload = {
            "channel": {
                "dim_in": 3, "dim_out": 3, "kraus": serialize.matrix_to_json(np.stack(mats))
            },
            "code": {
                "d_S": 1, "d_F": 3, "d_R": 0,
                "basis": serialize.matrix_to_json(mats[0]),
                "tau": serialize.matrix_to_json(mats[1]),
            },
            "state": serialize.matrix_to_json(mats[2]),
        }[kind]
        path = tmp_path / f"{kind}.json"
        serialize.dump_json(payload, path)
        loaded = serialize.load_json(path)
        assert bits(flat(loaded)) == bits(flat(payload))
        assert set(EDGE) <= set(flat(loaded))
        assert "-0.0" in map(str, flat(loaded))
        # the file is one line of compact JSON
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1 and ", " not in text

    def test_matrix_conversion_matches_the_entrywise_one(self):
        m = edge_matrix(4, 1)
        assert bits(flat(serialize.matrix_to_json(m))) == bits(flat(legacy_matrix_to_json(m)))
        assert serialize.matrix_to_json(np.eye(2)) == legacy_matrix_to_json(np.eye(2))
        stack = np.stack([m, m.conj().T])
        assert serialize.matrix_to_json(stack) == [legacy_matrix_to_json(x) for x in stack]

    def test_indented_file_loads_to_the_same_channel(self, tmp_path, example2_channel):
        payload = serialize.channel_to_dict(example2_channel)
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        serialize.dump_json(payload, compact)
        legacy_dump_json(payload, indented)
        assert compact.stat().st_size < indented.stat().st_size
        a, b = (serialize.channel_from_dict(serialize.load_json(p)) for p in (compact, indented))
        assert np.array_equal(np.stack(a.kraus), np.stack(b.kraus))
        assert np.array_equal(np.stack(a.kraus), np.stack(example2_channel.kraus))


def _structured_recovery(dims=(2, 4, 2), seed=0):
    enc, channel = random_preserved_system(*dims, np.random.default_rng(seed))
    return build_correction(enc, channel)


class TestRecoveryFiles:
    def test_reset_term_is_written_and_loaded_structured(self, tmp_path):
        recovery = _structured_recovery()
        payload = serialize.channel_to_dict(recovery)
        assert payload.keys() == {"dim_in", "dim_out", "kraus", "reset"}
        assert payload["reset"].keys() == {"cols", "state"}
        path = tmp_path / "recovery.json"
        serialize.dump_json(payload, path)
        loaded = serialize.channel_from_dict(serialize.load_json(path))
        assert loaded._reset is not None and loaded.kraus_count == recovery.kraus_count
        assert np.array_equal(loaded._blocks, recovery._blocks)
        assert np.array_equal(loaded._reset.cols, recovery._reset.cols)
        assert np.array_equal(loaded._reset.state, recovery._reset.state)
        # writing the loaded recovery again gives the same numbers
        assert serialize.channel_to_dict(loaded) == payload

    @pytest.mark.parametrize("dims", [(2, 4, 2), (3, 4, 3), (2, 3, 1)])
    @pytest.mark.parametrize("strategy", ["time_reversal", "replace"])
    def test_structured_file_and_its_expanded_twin_agree(self, dims, strategy):
        enc, channel = random_preserved_system(*dims, np.random.default_rng(1))
        recovery = build_correction(enc, channel, strategy)
        structured = serialize.channel_to_dict(recovery)
        twin = {"dim_in": recovery.dim_in, "dim_out": recovery.dim_out,
                "kraus": serialize.matrix_to_json(np.stack(recovery.kraus))}
        assert "reset" in structured and len(twin["kraus"]) == recovery.kraus_count
        a, b = (serialize.channel_from_dict(p) for p in (structured, twin))
        assert a.kraus_count == b.kraus_count
        # the twin is a recovery file as written before, listing every operator
        assert b._reset is None and np.array_equal(np.stack(b.kraus), np.stack(recovery.kraus))
        matrix = recovery.superoperator().matrix
        for loaded in (a, b):
            assert np.abs(loaded.superoperator().matrix - matrix).max() <= 1e-14
        assert abs(a.tp_defect() - b.tp_defect()) <= 1e-14

    @pytest.mark.parametrize("strategy", ["time_reversal", "replace"])
    def test_a_composed_loop_round_trips_structured(self, tmp_path, strategy):
        # the loop's reset columns are the recovery's pulled back through the
        # channel, which are not orthonormal: the file holds them as they are
        enc, channel = random_preserved_system(2, 4, 2, np.random.default_rng(2))
        loop = compose(build_correction(enc, channel, strategy), channel)
        payload = serialize.channel_to_dict(loop)
        assert "reset" in payload
        loaded = serialize.channel_from_dict(payload)  # through the TP gate
        assert loaded._reset is not None and loaded.kraus_count == loop.kraus_count
        assert loaded.tp_defect() <= tol.TP_TOL
        matrix = loop.superoperator().matrix
        assert np.abs(loaded.superoperator().matrix - matrix).max() <= 1e-14
        path, out = tmp_path / "loop.json", tmp_path / "check.json"
        serialize.dump_json(payload, path)
        assert main(["check-channel", "--channel", str(path), "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["trace_preserving"] is True
        assert results["kraus_count"] == loop.kraus_count

    def test_reset_without_columns_is_omitted(self, repetition):
        # the repetition code's image fills the physical space
        recovery = build_correction(repetition.encoding, repetition.channel)
        assert recovery._reset.cols.shape[1] == 0
        payload = serialize.channel_to_dict(recovery)
        assert "reset" not in payload
        kraus = serialize.matrix_from_json(payload["kraus"], "kraus", ndim=3)
        assert np.array_equal(kraus, np.stack(recovery.kraus))


def _data_file(kind: str) -> tuple[dict, callable]:
    """A data file's payload as the writer emits it, and its loader."""
    if kind == "channel":
        ch = random_preserved_system(2, 3, 1, np.random.default_rng(0))[1]
        return serialize.channel_to_dict(ch), serialize.channel_from_dict
    if kind == "recovery":
        return serialize.channel_to_dict(_structured_recovery()), serialize.channel_from_dict
    enc = random_preserved_system(2, 3, 1, np.random.default_rng(0))[0]
    return serialize.encoding_to_dict(enc), serialize.encoding_from_dict


def _arrays(loaded) -> list[np.ndarray]:
    """The matrices a loaded channel or code was read from."""
    if isinstance(loaded, KrausChannel):
        reset = loaded._reset
        return [loaded._blocks] + ([] if reset is None else [reset.cols, reset.state])
    return [loaded.decomposition.basis, loaded.cofactor]


class TestPackedFiles:
    @pytest.mark.parametrize("kind", ["channel", "recovery", "code"])
    def test_edge_values_round_trip_bit_for_bit(self, tmp_path, kind):
        mats = [edge_matrix(3, shift) for shift in range(3)]
        fields = {  # the path of keys to each matrix of the file
            "channel": {("kraus",): np.stack(mats)},
            "recovery": {
                ("kraus",): np.stack(mats[:2]),
                ("reset", "cols"): mats[2][:, :2],
                ("reset", "state"): mats[0],
            },
            "code": {("basis",): mats[0], ("tau",): mats[1]},
        }[kind]
        payload = {}
        for keys, m in fields.items():
            node = payload
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = serialize.matrix_to_packed(m)
        path = tmp_path / f"{kind}.json"
        serialize.dump_json(payload, path)
        loaded = serialize.load_json(path)
        for keys, m in fields.items():
            node = loaded
            for key in keys:
                node = node[key]
            back = serialize.matrix_from_json(node, "edge", ndim=m.ndim)
            assert back.shape == m.shape and back.flags.writeable
            assert back.tobytes() == np.ascontiguousarray(m).tobytes()

    @pytest.mark.parametrize("kind", ["channel", "recovery", "code"])
    def test_load_then_dump_gives_the_same_bytes(self, tmp_path, kind):
        payload, load = _data_file(kind)
        first, second, third = (tmp_path / f"{kind}{i}.json" for i in range(3))
        serialize.dump_json(payload, first)
        serialize.dump_json(serialize.load_json(first), second)
        loaded = load(serialize.load_json(first))
        write = serialize.channel_to_dict if kind != "code" else serialize.encoding_to_dict
        serialize.dump_json(write(loaded), third)
        assert first.read_bytes() == second.read_bytes() == third.read_bytes()

    @pytest.mark.parametrize("kind", ["channel", "recovery", "code"])
    def test_nested_indented_file_loads_to_the_packed_arrays(self, tmp_path, kind):
        payload, load = _data_file(kind)
        packed, old = tmp_path / "packed.json", tmp_path / "old.json"
        serialize.dump_json(payload, packed)
        legacy_dump_json(nested_form(payload), old)
        assert serialize.PACKED_TAG in packed.read_text()
        assert serialize.PACKED_TAG not in old.read_text() and old.read_text().count("\n") > 10
        a, b = (_arrays(load(serialize.load_json(p))) for p in (packed, old))
        assert len(a) == len(b) == {"channel": 1, "recovery": 3, "code": 2}[kind]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_data_files_are_packed_and_states_stay_nested(self):
        payloads = [_data_file(kind)[0] for kind in ("channel", "recovery", "code")]
        matrices = [payloads[0]["kraus"], payloads[1]["kraus"], *payloads[1]["reset"].values(),
                    payloads[2]["basis"], payloads[2]["tau"]]
        for m in matrices:
            assert m.keys() == {"shape", serialize.PACKED_TAG}
        assert serialize.state_to_json(np.eye(2) / 2) == [[[0.5, 0.0], [0.0, 0.0]],
                                                          [[0.0, 0.0], [0.5, 0.0]]]


class TestLoader:
    @pytest.mark.parametrize("raw", [b"\xff\xfe\x00\x01", b"{not json", b""])
    def test_undecodable_or_non_json_file_names_the_path(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(ContractViolation, match="bad.json is not a UTF-8 JSON file"):
            serialize.load_json(path)
