import json
import sys

import numpy as np
import pytest

from chi2lab import (
    ConjugationMap,
    PdOperator,
    RankOneProjection,
    preserver_decompile,
    projection_family,
)
from chi2lab import decompile, linalg
from chi2lab.decompile import _phase_aligned_distance, _top_vector
from chi2lab.ensembles import haar_unitary, pd_stack, random_hermitian
from chi2lab.linalg import hermitian_part, jacobi_eigh, op_norm
from chi2lab.operators import _unchecked


def test_identity_map():
    report = preserver_decompile(lambda a: a, 2, 0.5)
    assert report.ok
    assert report.recovered.kind == "unitary"
    c = np.trace(report.recovered.u) / abs(np.trace(report.recovered.u))
    assert op_norm(report.recovered.u - c * np.eye(2)) <= 1e-7
    assert report.verification_residual <= 1e-7
    assert report.query_count > 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
def test_conjugation_round_trip(d, kind):
    rng = np.random.default_rng(3 * d + (kind == "antiunitary"))
    truth = ConjugationMap(haar_unitary(d, rng), kind)
    report = preserver_decompile(truth.as_preserver(), d, 0.25)
    assert report.ok
    assert report.recovered.kind == kind
    assert report.verification_residual <= 1e-6
    assert report.scale_consistency_residual <= 1e-5
    assert report.orthogonality_pass


def test_trace_violating_map_flagged_at_stage_one():
    report = preserver_decompile(lambda a: PdOperator(2 * a.mat), 2, 0.5)
    assert "trace" in report.failures
    assert not report.ok


_NEAR_FAILURES = ("trace", "transition", "wigner(scale=0.5)", "wigner(scale=1)",
                  "wigner(scale=2)", "synthesis", "verification")


@pytest.mark.parametrize("size", [1e-6, 1e-5, 1e-4])
def test_near_preserver_congruence_is_recorded_not_raised(size):
    # at 1e-6 the basis images pass synthesis's 1e-6 drift check but are
    # not unitary within ConjugationMap's 1e-8: a stage failure, not a crash
    m = np.eye(3) + size * random_hermitian(3, np.random.default_rng(1))
    report = preserver_decompile(lambda a: PdOperator(m @ a.mat @ m.conj().T), 3, 0.5)
    assert report.failures == _NEAR_FAILURES
    assert report.query_count == 115


def test_idempotence_on_recovered_map():
    rng = np.random.default_rng(8)
    truth = ConjugationMap(haar_unitary(2, rng), "unitary")
    first = preserver_decompile(truth.as_preserver(), 2, 0.5)
    second = preserver_decompile(first.recovered.as_preserver(), 2, 0.5)
    assert second.ok
    assert second.recovered.kind == "unitary"
    # same conjugation up to a global phase
    m = second.recovered.u @ first.recovered.u.conj().T
    c = np.trace(m) / abs(np.trace(m))
    assert op_norm(m - c * np.eye(2)) <= 1e-6


def test_report_serializes_to_json():
    report = preserver_decompile(lambda a: a, 2, 0.5, seed=1)
    obj = json.loads(json.dumps(report.to_obj()))
    assert obj["kind"] == "unitary"
    assert obj["u"]["dim"] == 2
    assert len(obj["u"]["entries"]) == 4
    assert obj["failures"] == []
    assert list(obj) == [
        "kind",
        "u",
        "trace_preservation_residual",
        "orthogonality_pass",
        "orthogonality_residual",
        "transition_residual",
        "scale_consistency_residual",
        "verification_residual",
        "query_count",
        "stage_queries",
        "failures",
    ]
    assert obj["stage_queries"] == dict(report.stage_queries)


@pytest.mark.parametrize("d", [0, 1])
def test_dimensions_below_two_raise_before_any_map_call(d):
    def phi(a):
        pytest.fail("phi was called")

    with pytest.raises(ValueError, match="dimension must be at least 2"):
        preserver_decompile(phi, d, 0.5)


def test_seeded_runs_are_deterministic():
    rng = np.random.default_rng(5)
    truth = ConjugationMap(haar_unitary(2, rng), "unitary")
    r1 = preserver_decompile(truth.as_preserver(), 2, 0.5, seed=9)
    r2 = preserver_decompile(truth.as_preserver(), 2, 0.5, seed=9)
    assert json.dumps(r1.to_obj()) == json.dumps(r2.to_obj())


def _near_rank_one_draws(rng):
    """Hermitian near-rank-one matrices: PSD, indefinite and congruence images."""
    for d in range(2, 9):
        for size in (1e-8, 1e-5, 1e-3, 1e-1, 1.0):
            v = haar_unitary(d, rng)[:, 0]
            top = np.outer(v, v.conj())
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            yield top + size * (g @ g.conj().T) / (2 * d)
            yield top + size * random_hermitian(d, rng)
            s = haar_unitary(d, rng) @ np.diag(np.linspace(0.5, 2.0, d)) @ haar_unitary(d, rng)
            mixed = (1.0 - size) * top + (size / d) * np.eye(d)
            yield s @ mixed @ s.conj().T


def test_top_vector_bound_covers_the_true_angle():
    rng = np.random.default_rng(41)
    finite = 0
    by_dim = {}
    for _ in range(4):
        for h in _near_rank_one_draws(rng):
            x, bound = _top_vector(h)
            v = jacobi_eigh(h)[1][:, 0]
            sin_angle = np.linalg.norm(x - v * np.vdot(v, x))
            assert bound >= sin_angle - 1e-14
            finite += np.isfinite(bound)
            by_dim.setdefault(len(h), []).append((h, x, bound))
    assert finite >= 300
    # once more on the whole stack of each dimension: every slice matches
    # its own 2-D call
    for draws in by_dim.values():
        xs, bounds = _top_vector(np.array([h for h, _, _ in draws]))
        for (_, x, bound), xk, bk in zip(draws, xs, bounds):
            assert np.max(np.abs(xk - x)) <= 1e-15
            assert bk == bound or abs(bk - bound) <= 1e-15 * bound


@pytest.mark.parametrize("h", [np.diag([1.0, -1.0]), np.eye(3)])
def test_top_vector_certifies_no_gap(h):
    assert _top_vector(h.astype(complex))[1] == float("inf")


@pytest.mark.parametrize("d", [2, 3])
def test_images_far_from_rank_one_flag_projection_rounding(d):
    # trace preserving and positive, but an image (P + I/d)/2 of a
    # projection is not near rank one, so the top vector is not certified
    def half_depolarizing(a):
        return PdOperator((a.mat + a.trace() * np.eye(d) / d) / 2)

    report = preserver_decompile(half_depolarizing, d, 0.5)
    assert "projection-rounding" in report.failures


def test_each_failed_stage_is_recorded_once():
    # an antiunitary conjugation at scale 2 only: the scale pairs (0.5, 2)
    # and (1, 2) both mismatch in kind
    def conjugates_above_trace(a):
        return PdOperator(a.mat.conj()) if a.trace() > 1.5 else a

    report = preserver_decompile(conjugates_above_trace, 3, 0.5)
    assert report.failures == ("kind-mismatch", "verification")


def test_top_vectors_that_move_with_the_mixing_weight_flag_projection_rounding():
    # conjugation by a rotation whose angle grows with lambda_min: each
    # image is a conjugated mixed state, so every Davis-Kahan bound passes,
    # but the top vector of a real probe turns between the two weights
    outs = []

    def rotating(a):
        t = 1e3 * a.spectrum().lmin
        r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        outs.append(r @ a.mat @ r.T)
        return PdOperator(outs[-1])

    report = preserver_decompile(rotating, 2, 0.5)
    assert report.failures == ("projection-rounding", "scale-consistency", "verification")
    images = np.array(outs[8:-8])
    assert len(images) == report.stage_queries["images"]
    assert _top_vector(images)[1].max() <= 1e-12


def test_samples_carry_their_spectra():
    primed = []

    def phi(a):
        if "_spectrum" in a.__dict__:
            a.spectrum().validate(a.mat, rtol=1e-14)
            primed.append(a.mat)
        return a

    assert preserver_decompile(phi, 3, 0.5).ok
    # the 8 trace and 8 verification samples, each a slice of one stack
    assert len(primed) == 16


def test_each_probe_is_imaged_once_per_scale():
    rng = np.random.default_rng(6)
    truth = ConjugationMap(haar_unitary(6, rng), "unitary")
    report = preserver_decompile(truth.as_preserver(), 6, 0.5)
    assert report.ok
    # 3 scales x (36 projections + a stability sample of 6) between 8 + 8
    # samples
    assert report.stage_queries == {"trace": 8, "images": 126, "verification": 8}
    assert report.query_count == 142


def test_decompile_runs_no_eigensolve(monkeypatch):
    calls = []
    original = linalg.jacobi_eigh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("chi2lab") and getattr(module, "jacobi_eigh", None) is original:
            monkeypatch.setattr(module, "jacobi_eigh", spy)
    rng = np.random.default_rng(4)
    truth = ConjugationMap(haar_unitary(3, rng), "antiunitary")
    assert preserver_decompile(truth.as_preserver(), 3, 0.5).ok
    assert calls == []


@pytest.mark.parametrize("d, images", [(2, 99), (3, 99), (4, 96), (6, 126), (8, 216)])
def test_stage_three_queries_per_dimension(d, images):
    # 3 scales x (the distinct rows of the checks and the d^2 family, plus
    # a stability sample of d rows)
    report = preserver_decompile(lambda a: a, d, 0.5)
    assert report.ok
    assert report.stage_queries == {"trace": 8, "images": images, "verification": 8}


def _reference_phi_inputs(d, seed=0):
    """Reference: every phi input of ``preserver_decompile`` in order, one
    probe projection at a time: 8 trace samples; per scale one request,
    the pairs of the orthogonality check, then the sums of the transition
    check, then the probe family; 8 verification samples.  A request
    images its unseen projections at the mixing weight 1e-4 / 2, then the
    first d of them at 1e-4.  Each sample stage draws 8 scales, then 8
    ``random_pd`` matrices as one stack."""
    rng = np.random.default_rng(seed)
    eye = np.eye(d)

    def samples():
        mats, _ = pd_stack(d, rng, 8, scale=rng.uniform(0.5, 1.5, size=(8, 1)))
        return [m.tobytes() for m in mats]

    out = samples()
    pairs = [(eye[i], eye[j]) for i in range(d) for j in range(i + 1, d)]
    pair_rng = np.random.default_rng(seed + 1)
    while len(pairs) < 10:
        q = haar_unitary(d, pair_rng)
        pairs.append((q[:, 0], q[:, 1]))
    orth = [RankOneProjection(v) for v in [v for v, _ in pairs] + [w for _, w in pairs]]
    trans = orth[:len(pairs)] + orth + [RankOneProjection(v + w) for v, w in pairs]
    seen = {lam: set() for lam in (0.5, 1.0, 2.0)}

    def image(lam, projections):
        sample = max(d - len(seen[lam]), 0)
        new = []
        for p in projections:
            if p.vector.tobytes() not in seen[lam]:
                seen[lam].add(p.vector.tobytes())
                new.append(p.matrix)
        for eps, group in ((1e-4 / 2.0, new), (1e-4, new[:sample])):
            for m in group:
                out.append((lam * ((1.0 - eps) * m + (eps / d) * eye)).tobytes())

    for lam in seen:
        image(lam, orth + trans + list(projection_family(d)))
    return out + samples()


@pytest.mark.parametrize("d", [2, 6])
@pytest.mark.parametrize("kind", ["unitary", "antiunitary", "congruence"])
def test_phi_inputs_match_the_per_probe_loop(d, kind):
    rng = np.random.default_rng(20 + d)
    if kind == "congruence":
        # the bench's non-preserver: congruence by a non-unitary S
        s = haar_unitary(d, rng) @ np.diag(np.linspace(0.6, 1.6, d)) @ haar_unitary(d, rng)

        def target(a):
            return _unchecked(PdOperator, s @ a.mat @ s.conj().T, tol=a.tol)
    else:
        target = ConjugationMap(haar_unitary(d, rng), kind).as_preserver()
    seen = []

    def phi(a):
        seen.append(a.mat.tobytes())
        return target(a)

    report = preserver_decompile(phi, d, 0.5)
    assert report.ok == (kind != "congruence")
    assert seen == _reference_phi_inputs(d)


def test_stacked_top_vector_slices_match_their_own_calls():
    # the stacks a scale rounds: every row at 1e-4 / 2, then d of them at
    # 1e-4, so one stack mixes both weights
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 6):
        s = haar_unitary(d, rng) @ np.diag(np.linspace(0.6, 1.6, d)) @ haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        v = np.concatenate([v, v[:, : d // 2 + 1]], axis=1).T[:, :, None]
        eps = np.repeat([1e-4 / 2.0, 1e-4], [d, d // 2 + 1])[:, None, None]
        mixed = (1.0 - eps) * (v * v.conj().swapaxes(-1, -2)) + (eps / d) * np.eye(d)
        h = hermitian_part(s @ mixed @ s.conj().T)
        xs, bounds = _top_vector(h)
        for k in range(len(h)):
            x, bound = _top_vector(h[k])
            assert xs[k].tobytes() == x.tobytes()
            assert bounds[k].tobytes() == bound.tobytes()


def test_top_vector_runs_once_per_scale(monkeypatch):
    calls = []

    def counted(h):
        calls.append(h.shape)
        return _top_vector(h)

    monkeypatch.setattr(decompile, "_top_vector", counted)
    truth = ConjugationMap(haar_unitary(6, np.random.default_rng(6)), "antiunitary")
    assert preserver_decompile(truth.as_preserver(), 6, 0.5).ok
    # 36 projections plus a stability sample of 6, per scale
    assert calls == [(42, 6, 6)] * 3


def test_probe_plan_is_built_once_and_read_only():
    decompile._probe_plan.cache_clear()
    preserver_decompile(lambda a: a, 3, 0.5, seed=4)
    preserver_decompile(lambda a: a, 3, 0.5, seed=4)
    info = decompile._probe_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    plan = decompile._probe_plan(3, 5)
    assert not plan.flags.writeable
    # each row once: the 9 family probes (the 3 basis pairs and their sums
    # among them), then 7 Haar pairs and their sums, 3 rows a pair
    assert len({row.tobytes() for row in plan}) == len(plan) == 9 + 3 * 7


def test_phase_aligned_distance_is_an_upper_bound():
    # tr(u1 u2*) = 0 falls back to c = 1; c = i reaches the minimum sqrt(2)
    u1, u2 = np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    assert _phase_aligned_distance(u1, u2) == 2.0
    assert op_norm(u1 @ u2.conj().T - 1j * np.eye(2)) == pytest.approx(np.sqrt(2.0))
