import json

import numpy as np
import pytest

from chi2lab.cli import main
from chi2lab.demos import (
    SECOND_VARIABLE_NOTE,
    demo_first_variable_discontinuity,
    demo_second_variable_discontinuity,
)
from chi2lab.distinguishers import (
    distinguish_from_bregman,
    distinguish_from_f_divergence,
    distinguish_from_jensen,
)
from chi2lab.ensembles import haar_unitary
from chi2lab.matio import save_matrix


@pytest.fixture
def mats(tmp_path):
    paths = {}

    def save(name, m):
        p = tmp_path / f"{name}.json"
        save_matrix(p, m)
        paths[name] = str(p)

    save("eye", np.eye(2, dtype=complex))
    save("p", np.diag([1.0, 0.0]).astype(complex))
    save("b1", np.array([[2.0, 3.0], [3.0, 5.0]], dtype=complex))
    save("d73", np.diag([0.7, 0.3]).astype(complex))
    save("notpsd", np.diag([1.0, -1.0]).astype(complex))
    save("u3", haar_unitary(3, np.random.default_rng(6)))
    return paths


def test_divergence_zero(mats, capsys):
    assert main(["divergence", mats["eye"], mats["eye"], "--alpha", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_divergence_closed_form(mats, capsys):
    assert main(["divergence", mats["p"], mats["b1"], "--alpha", "0"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_divergence_infinite(mats, capsys):
    assert main(["divergence", mats["eye"], mats["p"], "--alpha", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_divergence_invariant_violation_exits_one(mats, capsys):
    assert main(["divergence", mats["eye"], mats["notpsd"], "--alpha", "0.5"]) == 1


def test_divergence_parse_error_exits_two(mats, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["divergence", mats["eye"], str(bad), "--alpha", "0.5"]) == 2
    assert main(["divergence", mats["eye"], "/nonexistent.json", "--alpha", "0.5"]) == 2


def test_divergence_other_kinds(mats, capsys):
    assert main(["divergence", mats["eye"], mats["eye"], "--alpha", "0", "--kind", "f"]) == 0
    assert main(["divergence", mats["eye"], mats["eye"], "--alpha", "0", "--kind", "bregman"]) == 0
    assert main(["divergence", mats["eye"], mats["eye"], "--alpha", "0", "--kind", "jensen"]) == 0


def test_usage_error_exits_two():
    assert main(["divergence"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["suite", "--trials", "0"]) == 2
    assert main(["divergence", "a", "b", "--alpha", "2.0"]) == 2


def test_suite_small_run(capsys):
    rc = main(["suite", "--alpha", "0.5", "--dim", "2", "--trials", "3", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total failures: 0" in out


def test_suite_seeded_rerun_identical(capsys):
    main(["suite", "--alpha", "0.5", "--dim", "2", "--trials", "3", "--seed", "5", "--json"])
    first = capsys.readouterr().out
    main(["suite", "--alpha", "0.5", "--dim", "2", "--trials", "3", "--seed", "5", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_suite_json_output_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["suite", "--alpha", "0", "--dim", "2", "--trials", "2",
               "--seed", "0", "--json", "--output", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["failures"] == 0


def test_demo_second_var(capsys):
    rc = main(["demo", "--which", "second-var", "--n-max", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "103.0204" in out
    assert "Proposition 2.12" in out


def test_demo_first_var(capsys):
    rc = main(["demo", "--which", "first-var", "--n-max", "2", "--alpha", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inf" in out


def test_demo_validates_n_max():
    assert main(["demo", "--which", "first-var", "--n-max", "0"]) == 2


def test_distinguish_subcommands(capsys):
    assert main(["distinguish", "--which", "f", "--alpha", "0", "--seed", "2"]) == 0
    assert main(["distinguish", "--which", "f", "--alpha", "0.5", "--seed", "2"]) == 0
    assert main(["distinguish", "--which", "bregman"]) == 0
    assert main(["distinguish", "--which", "jensen"]) == 0


def test_tomography_cli(mats, capsys):
    rc = main(["tomography", "--hidden", mats["d73"], "--alpha", "0.5", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["queries"] == 12
    assert obj["recovery_error"] <= 1e-7


@pytest.mark.parametrize("cmd", ["tomography", "peel"])
@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_noise_must_be_finite_and_nonnegative(cmd, noise, mats, capsys):
    argv = [cmd, "--hidden", mats["d73"], "--alpha", "0.5", "--noise", noise]
    assert main(argv) == 2
    assert "noise_sigma must be finite and nonnegative" in capsys.readouterr().err


def test_peel_cli(mats, capsys):
    rc = main(["peel", "--hidden", mats["d73"], "--alpha", "0.5", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(obj["eigenvalues"], [0.7, 0.3], atol=1e-6)
    # 2d² + d fit probes and d readout probes at d = 2
    assert obj["queries"] == 12
    # the optimizer settings went with the optimizer
    assert main(["peel", "--hidden", mats["d73"], "--alpha", "0.5",
                 "--restarts", "3"]) == 2


def test_decompile_identity(capsys):
    rc = main(["decompile", "--map", "identity", "--dim", "2", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "unitary"
    assert obj["failures"] == []
    assert sum(obj["stage_queries"].values()) == obj["query_count"]
    assert main(["decompile", "--map", "identity", "--dim", "2"]) == 0
    assert f"images {obj['stage_queries']['images']}" in capsys.readouterr().out


def test_decompile_from_matrix(mats, capsys):
    rc = main(["decompile", "--map", f"unitary:{mats['u3']}", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "unitary"
    assert obj["verification_residual"] <= 1e-6


def test_decompile_bad_map_spec():
    assert main(["decompile", "--map", "bogus:path"]) == 2
    assert main(["decompile", "--map", "identity"]) == 2  # missing --dim


def test_tolerance_override(mats, tmp_path, capsys):
    # a mildly negative eigenvalue passes once the PSD floor is loosened
    m = np.diag([1.0, -1e-6]).astype(complex)
    path = tmp_path / "slightly_negative.json"
    save_matrix(path, m)
    assert main(["divergence", str(path), mats["eye"], "--alpha", "0.5"]) == 1
    capsys.readouterr()
    rc = main(["divergence", str(path), mats["eye"], "--alpha", "0.5",
               "--tol", "psd=1e-5"])
    assert rc == 0
    assert main(["divergence", mats["eye"], mats["eye"], "--alpha", "0.5",
                 "--tol", "nonsense=1"]) == 2


def test_env_seed_fallback(mats, capsys, monkeypatch):
    monkeypatch.setenv("CHI2LAB_SEED", "123")
    rc = main(["suite", "--alpha", "0", "--dim", "2", "--trials", "2", "--json"])
    assert rc == 0
    first = capsys.readouterr().out
    rc = main(["suite", "--alpha", "0", "--dim", "2", "--trials", "2",
               "--seed", "123", "--json"])
    assert rc == 0
    assert capsys.readouterr().out == first


def test_malformed_env_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CHI2LAB_SEED", "abc")
    argv = ["suite", "--alpha", "0", "--dim", "2", "--trials", "2"]
    assert main(argv) == 2
    assert "CHI2LAB_SEED" in capsys.readouterr().err
    # an explicit --seed never reads the variable
    assert main(argv + ["--seed", "3"]) == 0


@pytest.mark.parametrize("dim", ["0", "1"])
def test_decompile_dimension_below_two_exits_two(dim, capsys):
    assert main(["decompile", "--map", "identity", "--dim", dim]) == 2
    err = capsys.readouterr().err
    assert err == "error: dimension must be at least 2\n"


def _fields(obj, keys) -> dict:
    """The named attributes, as they read after a JSON round trip."""
    return json.loads(json.dumps({k: getattr(obj, k) for k in keys}))


FIRST_VAR_KEYS = ["n", "support_contained", "extended_value", "probe_value",
                  "limit_point_value"]
SECOND_VAR_KEYS = ["n", "numeric", "closed_form", "relative_error", "distance_to_limit"]


def test_demo_first_var_json_matches_library_rows(capsys):
    assert main(["demo", "--which", "first-var", "--n-max", "4", "--alpha", "0.25",
                 "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    rows = demo_first_variable_discontinuity(0.25, 4)
    assert list(obj) == ["which", "rows"]
    assert obj["which"] == "first-var"
    assert [list(row) for row in obj["rows"]] == [FIRST_VAR_KEYS] * len(rows)
    assert obj["rows"] == [_fields(r, FIRST_VAR_KEYS) for r in rows]


def test_demo_second_var_json_matches_library_rows(capsys):
    assert main(["demo", "--which", "second-var", "--n-max", "5", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    rows = demo_second_variable_discontinuity(5)
    assert list(obj) == ["which", "note", "rows", "all_match"]
    assert obj["which"] == "second-var"
    assert obj["note"] == SECOND_VARIABLE_NOTE
    assert obj["all_match"] is True
    assert [list(row) for row in obj["rows"]] == [SECOND_VAR_KEYS] * len(rows)
    assert obj["rows"] == [_fields(r, SECOND_VAR_KEYS) for r in rows]


F_KEYS = ["alpha", "dim", "equality", "max_residual", "witness", "samples_used"]
BREGMAN_KEYS = ["probe_t", "dim", "s_grid", "values", "fit_residual",
                "control_residual", "non_quadratic"]
JENSEN_KEYS = ["alpha", "dim", "a", "b", "forward", "backward", "gap", "jensen_gap"]


@pytest.mark.parametrize("argv, report, keys", [
    (["--which", "f", "--alpha", "0", "--seed", "2"],
     lambda: distinguish_from_f_divergence(0.0, 2, 1000, 2), F_KEYS),
    (["--which", "f", "--alpha", "0.5", "--seed", "2"],
     lambda: distinguish_from_f_divergence(0.5, 2, 1000, 2), F_KEYS),
    (["--which", "bregman", "--probe-t", "3.0", "--dim", "3"],
     lambda: distinguish_from_bregman(0.5, 3.0, d=3), BREGMAN_KEYS),
    (["--which", "jensen", "--alpha", "0.25", "--dim", "3"],
     lambda: distinguish_from_jensen(0.25, 3), JENSEN_KEYS),
])
def test_distinguish_json_matches_library_report(argv, report, keys, capsys):
    assert main(["distinguish", *argv, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == keys
    assert obj == _fields(report(), keys)


def test_tolerance_flag_only_where_read(mats, capsys):
    # subcommands that never read tolerances do not take the flag
    assert main(["suite", "--trials", "1", "--tol", "psd=1e-5"]) == 2
    assert main(["demo", "--which", "second-var", "--tol", "psd=1e-5"]) == 2
    assert main(["distinguish", "--which", "jensen", "--tol", "psd=1e-5"]) == 2
    assert main(["decompile", "--map", "identity", "--dim", "2",
                 "--tol", "psd=1e-5"]) == 2
    # every subcommand that takes it rejects a bad override
    assert main(["tomography", "--hidden", mats["d73"], "--alpha", "0.5",
                 "--tol", "psd=abc"]) == 2
    assert main(["peel", "--hidden", mats["d73"], "--alpha", "0.5",
                 "--tol", "garbage"]) == 2


@pytest.mark.parametrize("override", [
    # jacobi_sweeps is not a tolerance: rejected as an unknown name
    "jacobi_sweeps=-1", "jacobi_sweeps=2.7", "cluster=nan", "psd=inf", "pd=-1e-3",
])
def test_out_of_range_tolerance_exits_2(mats, capsys, override):
    assert main(["peel", "--hidden", mats["d73"], "--alpha", "0.5",
                 "--tol", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert override.split("=")[0] in captured.err


@pytest.mark.parametrize("override", ["jacobi_sweeps=3", "jacobi_off=1e-12"])
def test_eigensolver_settings_are_not_tolerances(mats, capsys, override):
    # the Jacobi stopping rule and sweep cap are the eigensolver's own
    assert main(["peel", "--hidden", mats["d73"], "--alpha", "0.5",
                 "--tol", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown tolerance" in captured.err
