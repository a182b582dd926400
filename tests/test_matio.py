import json

import numpy as np
import pytest

from chi2lab import MatrixFormatError, load_matrix, matrix_from_obj, matrix_to_obj, save_matrix


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    np.testing.assert_allclose(load_matrix(path), m)
    obj = json.loads(path.read_text())
    assert obj["dim"] == 3
    assert len(obj["entries"]) == 9
    assert all(len(pair) == 2 for pair in obj["entries"])


def test_rejects_wrong_entry_count():
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0]] * 3})


def test_rejects_bad_dim():
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 0, "entries": []})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": "2", "entries": [[1.0, 0.0]] * 4})


def test_rejects_non_finite():
    entries = [[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 2, "entries": entries})


def test_rejects_malformed_pairs():
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 2, "entries": [[1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"dim": 2, "entries": "xx"})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj([1, 2, 3])


def test_rejects_bad_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_to_obj_round_trip_in_memory():
    m = np.array([[1.0 + 2.0j]])
    np.testing.assert_allclose(matrix_from_obj(matrix_to_obj(m)), m)


def test_round_trip_is_byte_for_byte(tmp_path):
    rng = np.random.default_rng(1)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g * 10.0 ** rng.uniform(-300, 300, (4, 4))
    m[0, 0] = complex(-0.0, 1.7e308)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(first, m)
    assert load_matrix(first).tobytes() == m.tobytes()
    save_matrix(second, load_matrix(first))
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("bad, match", [
    (np.ones((2, 3)), "square"), (np.ones(3), "square"), (np.ones((2, 2, 2)), "square"),
    (np.zeros((0, 0)), "square"), (np.ones(()), "square"),
    (np.diag([np.nan, 1.0]), "finite"), (np.diag([1.0, -np.inf]), "finite"),
    (np.diag([1.0, complex(0.0, np.inf)]), "finite"),
])
def test_refuses_to_write_what_it_cannot_read(tmp_path, bad, match):
    with pytest.raises(MatrixFormatError, match=match):
        matrix_to_obj(bad)
    with pytest.raises(MatrixFormatError, match=match):
        save_matrix(tmp_path / "m.json", bad)
    assert not (tmp_path / "m.json").exists()
