import json
import sys

import numpy as np
import pytest

from chi2lab import (
    ConjugationMap,
    PdOperator,
    ProjectionMap,
    RankOneProjection,
    check_orthogonality_preservation,
    check_transition_probabilities,
    preserver_decompile,
    projection_family,
    wigner_synthesize,
)
from chi2lab import decompile, linalg
from chi2lab.decompile import _phase_aligned_distance, _top_vector
from chi2lab.ensembles import haar_unitary, pd_stack, random_hermitian
from chi2lab.errors import Chi2LabError
from chi2lab.linalg import hermitian_part, jacobi_eigh, op_norm
from chi2lab.operators import _unchecked, _unit_rows
from chi2lab.wigner import _family_rows, _sample_pairs


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


def test_top_vector_runs_once_for_all_scales(monkeypatch):
    calls = []

    def counted(h):
        calls.append(h.shape)
        return _top_vector(h)

    monkeypatch.setattr(decompile, "_top_vector", counted)
    truth = ConjugationMap(haar_unitary(6, np.random.default_rng(6)), "antiunitary")
    assert preserver_decompile(truth.as_preserver(), 6, 0.5).ok
    # 3 scales x (36 projections plus a stability sample of 6)
    assert calls == [(3, 42, 6, 6)]


def test_probe_plan_is_built_once_and_read_only():
    decompile._probe_plan.cache_clear()
    preserver_decompile(lambda a: a, 3, 0.5, seed=4)
    preserver_decompile(lambda a: a, 3, 0.5, seed=4)
    info = decompile._probe_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    plan, orth, trans, family = decompile._probe_plan(3, 5)
    assert not any(x.flags.writeable for x in (plan, orth, trans, family))
    # each row once: the 9 family probes (the 3 basis pairs and their sums
    # among them), then 7 Haar pairs and their sums, 3 rows a pair
    assert len({row.tobytes() for row in plan}) == len(plan) == 9 + 3 * 7
    # the indices read the rows each reader sends, byte for byte
    a, b = _sample_pairs(3, 10, 5)
    assert plan[orth].tobytes() == _unit_rows(np.concatenate([a, b])).tobytes()
    assert plan[trans].tobytes() == _unit_rows(np.concatenate([a, a, b, a + b])).tobytes()
    assert plan[family].tobytes() == _family_rows(3)[0].tobytes()


def test_stacked_phase_aligned_distances_match_the_pairwise_formula():
    # one pair at a time in scalar arithmetic: c from abs(tr), which
    # np.abs on a stack may round differently
    def pairwise(u1, u2):
        m = u1 @ u2.conj().T
        tr = np.trace(m)
        c = 1.0 if abs(tr) < 1e-12 else tr / abs(tr)
        return op_norm(m - c * np.eye(len(m)))

    rng = np.random.default_rng(3)
    for d in (2, 3, 6, 9, 16):
        for _ in range(12):
            u = haar_unitary(d, rng)
            h = rng.standard_normal((d, d)) * 10 ** rng.uniform(-15, -1)
            w, v = np.linalg.eigh(h + h.T)
            near = u @ (v * np.exp(1j * w)) @ v.conj().T
            u1 = np.array([u, near, u])
            u2 = np.array([np.exp(1j * rng.uniform(0, 6.3)) * near, u, haar_unitary(d, rng)])
            got = _phase_aligned_distance(u1, u2)
            assert [float(x) for x in got] == [pairwise(*p) for p in zip(u1, u2)]


def test_phase_aligned_distance_is_an_upper_bound():
    # tr(u1 u2*) = 0 falls back to c = 1; c = i reaches the minimum sqrt(2)
    u1, u2 = np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    assert _phase_aligned_distance(u1, u2) == 2.0
    assert op_norm(u1 @ u2.conj().T - 1j * np.eye(2)) == pytest.approx(np.sqrt(2.0))


def _nan_image(a):
    return _unchecked(PdOperator, a.mat * np.nan, tol=a.tol)


def _calls_where(pick, image):
    """The identity map, except that the calls ``pick(k, a)`` selects (k
    counts from 1) return ``image(a)``."""
    calls = [0]

    def phi(a):
        calls[0] += 1
        return image(a) if pick(calls[0], a) else a

    return phi


def test_non_finite_trace_outputs_fail_stage_one():
    # abs(nan - t) compares false against the bound: the residual carries
    # the NaN and the stage fails
    report = preserver_decompile(_calls_where(lambda k, a: k <= 8, _nan_image), 3, 0.5)
    assert report.failures == ("trace",)
    assert np.isnan(report.trace_preservation_residual)


@pytest.mark.parametrize("image", [_nan_image, lambda a: _unchecked(PdOperator, 0 * a.mat),
                                   lambda a: _unchecked(PdOperator, 1e300 * a.mat)],
                         ids=["nan", "zero", "overflowing"])
def test_non_finite_or_zero_images_at_one_scale_fail_that_scale(image):
    # every probe state at scale 2 has trace 2: its images round to NaN top
    # vectors, with no warning, which fail the rounding, both checks and
    # that scale's synthesis; the other two scales synthesize and agree
    def at_scale_two(k, a):
        return abs(a.trace() - 2.0) <= 1e-9

    report = preserver_decompile(_calls_where(at_scale_two, image), 3, 0.5)
    assert report.failures == ("projection-rounding", "orthogonality", "transition",
                               "wigner(scale=2)")
    assert np.isnan(report.orthogonality_residual) and not report.orthogonality_pass
    assert np.isnan(report.transition_residual)
    assert report.scale_consistency_residual <= 1e-12
    assert report.verification_residual <= 1e-12
    assert report.stage_queries == {"trace": 8, "images": 99, "verification": 8}


def test_non_finite_verification_outputs_fail_verification():
    report = preserver_decompile(_calls_where(lambda k, a: k > 8 + 99, _nan_image), 3, 0.5)
    assert report.failures == ("verification",)
    assert np.isnan(report.verification_residual)
    assert report.recovered.kind == "unitary"


def _reference_decompile(phi, d, alpha, seed):
    """Reference: the per-scale formulation of ``preserver_decompile``.  Per
    scale one request and one rounding, a ``ProjectionMap`` over a dict of
    that scale's images, the two public checks and ``wigner_synthesize``;
    each scale pair's phase-aligned distance on its own."""
    calls = [0]

    def counted(a):
        calls[0] += 1
        return phi(a)

    rng = np.random.default_rng(seed)
    failures = []
    trace_residual = 0.0
    for sample in decompile._samples(d, rng, 8):
        diff = abs(counted(sample).trace() - sample.trace())
        trace_residual = max(trace_residual, diff)
        if diff > 1e-8 * max(1.0, sample.trace()) and "trace" not in failures:
            failures.append("trace")
    stage_queries = {"trace": calls[0]}

    a, b = _sample_pairs(d, 10, seed + 1)
    rows = np.concatenate([_unit_rows(np.concatenate([a, b, a + b])), _family_rows(d)[0]])
    plan = np.array(list({row.tobytes(): row for row in rows}.values()))
    n = len(plan)
    v = np.concatenate([plan, plan[:d]])[:, :, None]
    eps = np.repeat([1e-4 / 2.0, 1e-4], [n, d])[:, None, None]
    states = (1.0 - eps) * (v * v.conj().swapaxes(-1, -2)) + (eps / d) * np.eye(d)
    maps = {}
    for lam in (0.5, 1.0, 2.0):
        outs = [counted(_unchecked(PdOperator, m)).mat for m in lam * states]
        tops, bounds = _top_vector(hermitian_part(np.array(outs) / lam))
        stability = 1.0 - np.abs(linalg._dots(tops[:d], tops[n:])) ** 2
        if max(bounds.max(), stability.max()) > 1e-6 and "projection-rounding" not in failures:
            failures.append("projection-rounding")
        images = dict(zip([row.tobytes() for row in plan], tops))
        maps[lam] = ProjectionMap(
            lambda rows, images=images: np.array([images[row.tobytes()] for row in rows]))

    orth_residual = trans_residual = 0.0
    for xi in maps.values():
        orth_residual = max(orth_residual,
                            check_orthogonality_preservation(xi, d, 10, seed + 1)[1])
        trans_residual = max(trans_residual,
                             check_transition_probabilities(xi, d, 10, seed + 1)[1])
    if orth_residual > 1e-8:
        failures.append("orthogonality")
    if trans_residual > 1e-8:
        failures.append("transition")

    synthesized = {}
    for lam, xi in maps.items():
        try:
            synthesized[lam] = wigner_synthesize(xi, d)
        except Chi2LabError:
            failures.append(f"wigner(scale={lam:g})")
    scale_residual = 0.0
    lams = sorted(synthesized)
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            u1, u2 = synthesized[lams[i]], synthesized[lams[j]]
            if u1.kind != u2.kind:
                if "kind-mismatch" not in failures:
                    failures.append("kind-mismatch")
                continue
            m = u1.u @ u2.u.conj().T
            tr = np.trace(m)
            c = 1.0 if abs(tr) < 1e-12 else tr / abs(tr)
            scale_residual = max(scale_residual, op_norm(m - c * np.eye(d)))
    if scale_residual > 1e-5:
        failures.append("scale-consistency")

    stage_queries["images"] = calls[0] - stage_queries["trace"]
    if synthesized:
        recovered = synthesized[1.0 if 1.0 in synthesized else lams[0]].normalize_phase()
    else:
        failures.append("synthesis")
        recovered = ConjugationMap(np.eye(d), "unitary")
    samples = decompile._samples(d, rng, 8)
    drifts = (np.array([counted(sample).mat for sample in samples])
              - np.array([recovered.apply(sample.mat) for sample in samples]))
    verify_residual = float(np.linalg.norm(drifts, 2, axis=(-2, -1)).max())
    if verify_residual > 1e-6:
        failures.append("verification")
    stage_queries["verification"] = calls[0] - sum(stage_queries.values())
    return decompile.DecompileReport(
        recovered, trace_residual, orth_residual <= 1e-8, orth_residual, trans_residual,
        scale_residual, verify_residual, calls[0], stage_queries, tuple(failures)).to_obj()


def _sweep_map(kind, d, rng):
    """A black-box map of each kind the stack must report exactly as the
    per-scale loop does: (anti)unitary preservers, a non-unitary
    congruence, 2A, the transpose, a depolarizing mix, an A^2-like map and
    a kind mismatch across the scales."""
    if kind in ("unitary", "antiunitary"):
        return ConjugationMap(haar_unitary(d, rng), kind).as_preserver()
    if kind == "congruence":
        s = haar_unitary(d, rng) @ np.diag(np.linspace(0.6, 1.6, d)) @ haar_unitary(d, rng)
        return lambda a: _unchecked(PdOperator, s @ a.mat @ s.conj().T, tol=a.tol)
    return {
        "double": lambda a: PdOperator(2 * a.mat),
        "transpose": lambda a: PdOperator(a.mat.T),
        "depolarizing": lambda a: PdOperator((a.mat + a.trace() * np.eye(d) / d) / 2),
        "square": lambda a: _unchecked(PdOperator, a.mat @ a.mat / a.trace(), tol=a.tol),
        "kind-mismatch": lambda a: PdOperator(a.mat.conj()) if a.trace() > 1.5 else a,
        "rotating": lambda a: _rotated(a, d),
    }[kind]


def _rotated(a, d):
    # conjugation by a rotation in the (e_0, e_1) plane whose angle grows
    # with lambda_min, so the synthesized operators differ across scales
    t = 1e3 * a.spectrum().lmin
    r = np.eye(d)
    r[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    return PdOperator(r @ a.mat @ r.T)


_SWEEP_KINDS = ("unitary", "antiunitary", "congruence", "double", "transpose",
                "depolarizing", "square", "kind-mismatch", "rotating")
_SWEEP_FAILURES = {"trace", "projection-rounding", "orthogonality", "transition",
                   "wigner(scale=0.5)", "wigner(scale=1)", "wigner(scale=2)",
                   "kind-mismatch", "scale-consistency", "synthesis", "verification"}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_stacked_scales_report_the_per_scale_loop_bit_for_bit(d):
    # 9 map kinds x 3 seeds at d <= 4, where the checks draw Haar pairs,
    # and x 1 seed above: 108 reports over the sweep
    failures = set()
    for seed in range(3 if d <= 4 else 1):
        for k, kind in enumerate(_SWEEP_KINDS):
            rng = np.random.default_rng(100 * d + 10 * seed + k)
            phi = _sweep_map(kind, d, rng)
            alpha = (0.0, 0.5, 1.0)[(seed + k) % 3]
            got = preserver_decompile(phi, d, alpha, seed=seed).to_obj()
            assert json.dumps(got) == json.dumps(_reference_decompile(phi, d, alpha, seed))
            failures.update(got["failures"])
    # every stage fails somewhere at each d, so each failure path is held to
    # the loop too
    assert failures == _SWEEP_FAILURES
