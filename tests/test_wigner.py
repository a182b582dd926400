import numpy as np
import pytest

from chi2lab import (
    DEFAULT_TOL,
    ConjugationMap,
    InconsistentSymmetry,
    NotASymmetry,
    PdOperator,
    ProjectionMap,
    RankOneProjection,
    Tolerances,
    check_orthogonality_preservation,
    check_transition_probabilities,
    conjugation_projection_map,
    projection_family,
    wigner_synthesize,
)
from chi2lab.ensembles import haar_unitary, random_hermitian
from chi2lab.linalg import op_norm
from chi2lab import wigner
from chi2lab.wigner import _sample_pairs


def test_conjugation_map_validates_unitarity():
    with pytest.raises(ValueError):
        ConjugationMap(np.diag([1.0, 2.0]), "unitary")
    with pytest.raises(ValueError):
        ConjugationMap(np.eye(2), "sideways")


@pytest.mark.parametrize("top", [0.9e-8, 1e-8])
def test_unitarity_is_decided_on_the_operator_norm(top):
    # ||U*U - I||_op = top <= 1e-8 < ||U*U - I||_F = 2 top
    u = np.diag(np.sqrt(1.0 + np.full(4, top)))
    defect = u.conj().T @ u - np.eye(4)
    assert op_norm(defect) <= 1e-8 < np.linalg.norm(defect)
    assert ConjugationMap(u, "unitary").u.tobytes() == u.astype(complex).tobytes()


def test_unitarity_defect_just_above_the_bound_raises():
    u = np.diag(np.sqrt([1.0 + 1.01e-8, 1.0, 1.0]))
    with pytest.raises(ValueError, match=r"U is not unitary: \|\|U\*U - I\|\|_op = 1\.010e-08"):
        ConjugationMap(u, "antiunitary")


def test_a_haar_conjugation_map_runs_no_svd(monkeypatch):
    def no_svd(mat):
        pytest.fail("op_norm was called")

    monkeypatch.setattr(wigner, "op_norm", no_svd)
    rng = np.random.default_rng(12)
    for d in (2, 3, 6, 16):
        conj = ConjugationMap(haar_unitary(d, rng), "unitary")
        conj.normalize_phase()


def test_sample_pairs_are_cached_read_only():
    a, b = _sample_pairs(4, 12, 3)
    again = _sample_pairs(4, 12, 3)
    assert again[0] is a and again[1] is b
    assert not a.flags.writeable and not b.flags.writeable


def test_identity_map_synthesizes_to_identity():
    conj = wigner_synthesize(ProjectionMap(lambda rows: rows), 3)
    assert conj.kind == "unitary"
    # identity up to a global phase
    m = conj.u.conj().T @ np.eye(3)
    c = np.trace(m) / abs(np.trace(m))
    assert op_norm(conj.u - c * np.eye(3)) <= 1e-10


def test_entrywise_conjugation_is_antiunitary():
    xi = ProjectionMap(lambda rows: rows.conj())
    conj = wigner_synthesize(xi, 3)
    assert conj.kind == "antiunitary"
    c = np.trace(conj.u) / abs(np.trace(conj.u))
    assert op_norm(conj.u - c * np.eye(3)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
def test_forward_construction_round_trip(d, kind):
    rng = np.random.default_rng(10 * d + (kind == "antiunitary"))
    truth = ConjugationMap(haar_unitary(d, rng), kind)
    recovered = wigner_synthesize(conjugation_projection_map(truth), d)
    assert recovered.kind == kind
    for _ in range(5):
        a = random_hermitian(d, rng)
        assert op_norm(recovered.apply(a) - truth.apply(a)) <= 1e-7


def test_checks_pass_on_haar_conjugation():
    rng = np.random.default_rng(2)
    truth = ConjugationMap(haar_unitary(3, rng), "unitary")
    xi = conjugation_projection_map(truth)
    ok, worst = check_orthogonality_preservation(xi, 3)
    assert ok and worst <= 1e-10
    ok, worst = check_transition_probabilities(xi, 3)
    assert ok and worst <= 1e-10


def _toy_violator(rows: np.ndarray) -> np.ndarray:
    # fixes e1 but folds e2 onto the diagonal direction
    out = rows.copy()
    out[np.abs(rows[:, 1]) ** 2 > 0.999] = np.array([1.0, 1.0]) / np.sqrt(2)
    return out


def test_checks_fail_on_toy_violator():
    xi = ProjectionMap(_toy_violator)
    ok, worst = check_orthogonality_preservation(xi, 2, samples=1)
    assert not ok
    assert abs(worst - 0.5) <= 1e-12
    ok, worst = check_transition_probabilities(xi, 2, samples=1)
    assert not ok
    assert abs(worst - 0.5) <= 1e-12


def _recording(seen: list) -> ProjectionMap:
    def xi(rows: np.ndarray) -> np.ndarray:
        seen.extend(row.tobytes() for row in rows)
        return rows

    return ProjectionMap(xi)


def test_checks_image_only_basis_and_real_superpositions_at_d6():
    # 15 basis pairs cover 10 samples (the decompiler's count), so no Haar
    # pair is drawn; a + b normalises to the (e_i + e_j) family probe
    seen = []
    assert check_orthogonality_preservation(_recording(seen), 6, samples=10, seed=1)[0]
    assert check_transition_probabilities(_recording(seen), 6, samples=10, seed=1)[0]
    family = projection_family(6)
    real = family[:6] + family[6::2]
    assert len(real) == 21
    assert set(seen) == {p.vector.tobytes() for p in real}


def test_transition_check_shares_the_orthogonality_pairs():
    # d = 2: one basis pair, then nine seeded Haar pairs; with one seed the
    # transition check adds only each pair's sum a + b
    orth, trans = [], []
    check_orthogonality_preservation(_recording(orth), 2, samples=10, seed=3)
    check_transition_probabilities(_recording(trans), 2, samples=10, seed=3)
    assert len(set(orth)) == 20
    assert set(orth) < set(trans)
    assert len(set(trans) - set(orth)) == 10


def test_as_preserver_keeps_argument_tolerances():
    loose = Tolerances(psd=1e-5, cluster=1e-6)
    phi = ConjugationMap(haar_unitary(3, np.random.default_rng(5)), "antiunitary").as_preserver()
    assert phi(PdOperator(np.eye(3), loose)).tol is loose
    assert phi(PdOperator(np.eye(3))).tol is DEFAULT_TOL


def test_synthesize_rejects_violator():
    with pytest.raises(NotASymmetry):
        wigner_synthesize(ProjectionMap(_toy_violator), 2)


def test_identity_map_reproduces_probes():
    conj = wigner_synthesize(ProjectionMap(lambda rows: rows), 2)
    for v in (np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0j])):
        p = RankOneProjection(v)
        assert op_norm(conj.apply(p.matrix) - p.matrix) <= 1e-7


def _first_drifting_pair(probes, images):
    """The all-pairs transition check as a plain loop, in row-major order."""
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            drift = abs(images[i].overlap(images[j]) - probes[i].overlap(probes[j]))
            if drift > 1e-6:
                return i, j
    return None


def _table_map(probes, images):
    table = {p.vector.tobytes(): q.vector for p, q in zip(probes, images)}
    return ProjectionMap(lambda rows: np.array([table[row.tobytes()] for row in rows]))


def test_synthesize_names_the_first_drifting_pair():
    rng = np.random.default_rng(12)
    probes = projection_family(4)
    # drifts of about 1e-6 straddle the threshold, so the first offending
    # pair is not simply (0, 1)
    images = [
        RankOneProjection(p.vector + 6e-7 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        for p in probes
    ]
    first = _first_drifting_pair(probes, images)
    assert first is not None and first != (0, 1)
    with pytest.raises(NotASymmetry, match=rf"probe pair \({first[0]}, {first[1]}\) "):
        wigner_synthesize(_table_map(probes, images), 4)


def test_synthesize_rejects_a_probe_image_rotated_by_1e_6():
    probes = projection_family(3)
    images = list(probes)
    # the last probe takes no part in building U; rotate its image by 1e-6
    # toward an orthogonal direction
    v = probes[-1].vector
    w = np.array([1.0, 0.0, 0.0], dtype=complex)
    images[-1] = RankOneProjection(np.cos(1e-6) * v + np.sin(1e-6) * w)
    with pytest.raises(InconsistentSymmetry, match="misses a probe image by 1.000e-06"):
        wigner_synthesize(_table_map(probes, images), 3)


def _pair_plan_loop(d, samples, seed):
    """Reference: the canonical pairs, then one haar_unitary draw per pair."""
    eye = np.eye(d, dtype=np.complex128)
    pairs = [(eye[:, i], eye[:, j]) for i in range(d) for j in range(i + 1, d)]
    rng = np.random.default_rng(seed)
    while len(pairs) < samples:
        q = haar_unitary(d, rng)
        pairs.append((q[:, 0], q[:, 1]))
    return pairs


@pytest.mark.parametrize("d", range(2, 7))
def test_sample_pairs_match_the_per_pair_haar_plan(d):
    for seed in range(10):
        for samples in range(1, 21):
            a, b = _sample_pairs(d, samples, seed)
            ref = _pair_plan_loop(d, samples, seed)
            assert a.tobytes() == np.array([va for va, _ in ref]).tobytes()
            assert b.tobytes() == np.array([vb for _, vb in ref]).tobytes()


@pytest.mark.parametrize("d", range(2, 7))
def test_checks_match_the_per_pair_overlap_loop(d):
    rng = np.random.default_rng(50 + d)
    s = haar_unitary(d, rng) @ np.diag(np.linspace(0.6, 1.6, d)) @ haar_unitary(d, rng)
    xi = ProjectionMap(lambda rows: rows @ s.T)
    orth, trans = 0.0, 0.0
    for va, vb in _pair_plan_loop(d, 20, seed=d):
        a, b, ab = (RankOneProjection(v) for v in (va, vb, va + vb))
        orth = max(orth, abs(xi(a).overlap(xi(b)) - a.overlap(b)))
        trans = max(trans, orth, abs(xi(a).overlap(xi(ab)) - a.overlap(ab)))
    ok, worst = check_orthogonality_preservation(xi, d, samples=20, seed=d)
    assert not ok and abs(worst - orth) <= 1e-15
    ok, worst = check_transition_probabilities(xi, d, samples=20, seed=d)
    assert not ok and abs(worst - trans) <= 1e-15


@pytest.mark.parametrize(
    "image, match",
    [
        (lambda rows: rows[:, :-1], "shape"),
        (lambda rows: rows[:-1], "shape"),
        (lambda rows: np.where(rows == 0, np.nan, rows), "finite"),
        (lambda rows: rows * np.arange(len(rows))[:, None], "zero"),
    ],
    ids=["short-rows", "missing-row", "not-finite", "zero-row"],
)
def test_projection_map_checks_its_image_rows(image, match):
    xi = ProjectionMap(image)
    with pytest.raises(ValueError, match=match):
        wigner_synthesize(xi, 3)
    with pytest.raises(ValueError, match=match):
        xi(projection_family(3)[1])


def test_a_projection_is_imaged_as_the_stack_of_one():
    # an entrywise map, so each image row has the same bytes in any stack
    w = np.array([1.0, 2.0j, -3.0, 0.5 + 0.5j])
    xi = ProjectionMap(lambda rows: rows.conj() * w)
    family = projection_family(4)
    rows = xi(np.array([p.vector for p in family]))
    for p, row in zip(family, rows):
        assert xi(p).vector.tobytes() == row.tobytes()


@pytest.mark.parametrize("d", [0, 1])
def test_checks_reject_dimensions_below_two(d):
    xi = ProjectionMap(lambda rows: pytest.fail("xi was called"))
    for check in (check_orthogonality_preservation, check_transition_probabilities):
        with pytest.raises(ValueError, match="at least 2"):
            check(xi, d)
