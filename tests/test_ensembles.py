import numpy as np
import pytest

from chi2lab import (
    ComplexMatrix,
    DensityOperator,
    PdOperator,
    PsdOperator,
    RankOneProjection,
    random_ensemble,
)
from chi2lab.ensembles import (_EIG_HIGH, _EIG_LOW, _ginibre, _haar, haar_stack, haar_unitary,
                               pd_stack)
from chi2lab.linalg import SpectralDecomposition, op_norm


@pytest.mark.parametrize(
    "kind", ["unitary", "density", "pd", "psd_rank_r", "rank_one_projection"]
)
def test_same_seed_same_output(kind):
    first = random_ensemble(kind, 3, seed=11)
    second = random_ensemble(kind, 3, seed=11)
    a = first.mat if hasattr(first, "mat") else first.matrix
    b = second.mat if hasattr(second, "mat") else second.matrix
    np.testing.assert_array_equal(a, b)


def test_unitary_is_unitary():
    u = random_ensemble("unitary", 4, seed=0)
    assert isinstance(u, ComplexMatrix)
    assert op_norm(u.mat.conj().T @ u.mat - np.eye(4)) <= 1e-10


def test_density_defining_properties():
    rho = random_ensemble("density", 3, seed=5)
    assert isinstance(rho, DensityOperator)
    assert abs(rho.trace() - 1.0) <= 1e-12
    assert rho.spectrum().lmin >= 0.0


def test_pd_satisfies_invariant():
    a = random_ensemble("pd", 3, seed=2)
    assert isinstance(a, PdOperator)
    spec = a.spectrum()
    assert spec.lmin > 1e-10 * spec.lmax


def test_psd_rank_control():
    a = random_ensemble("psd_rank_r", 4, seed=3, rank=2)
    assert isinstance(a, PsdOperator)
    spec = a.spectrum()
    rank = sum(m for lam, m in zip(spec.eigenvalues, spec.multiplicities) if lam > 1e-10)
    assert rank == 2


def test_rank_one_projection_kind():
    p = random_ensemble("rank_one_projection", 3, seed=4)
    assert isinstance(p, RankOneProjection)
    assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-12


def test_invalid_kind_and_dim():
    with pytest.raises(ValueError):
        random_ensemble("nonsense", 3, seed=0)
    with pytest.raises(ValueError):
        random_ensemble("pd", 1, seed=0)


def test_rank_is_only_for_the_rank_r_kind():
    with pytest.raises(ValueError, match="rank applies only to psd_rank_r"):
        random_ensemble("pd", 3, seed=0, rank=2)
    with pytest.raises(TypeError):
        random_ensemble("pd", 3, seed=0, bogus=1)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_an_empty_haar_stack_reads_nothing_from_the_generator(d):
    rng = np.random.default_rng(33)
    before = rng.bit_generator.state
    stack = haar_stack(d, rng, 0)
    assert stack.shape == (0, d, d) and stack.dtype == np.complex128
    assert rng.bit_generator.state == before
    assert haar_unitary(d, rng).tobytes() == haar_unitary(d, np.random.default_rng(33)).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_haar_unitary_is_the_first_slice_of_a_stack(d):
    # a stacked QR equals the 2-D QR slice by slice, and a stack of n reads
    # the generator as a single draw does, so the draws agree bit for bit
    single = haar_unitary(d, np.random.default_rng(31))
    stack = haar_stack(d, np.random.default_rng(31), 20)
    assert stack.shape == (20, d, d)
    assert single.tobytes() == stack[0].tobytes()
    gram = stack.conj().swapaxes(1, 2) @ stack
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-13


def test_pd_stack_takes_one_scale_per_draw():
    rng = np.random.default_rng(12)
    scales = rng.uniform(0.5, 1.5, size=(8, 1))
    mats, spec = pd_stack(4, rng, 8, scale=scales)
    assert mats.shape == (8, 4, 4)
    for k, (s,) in enumerate(scales):
        # row k's eigenvalues lie in its own scaled window, and its slice of
        # the primed spectrum reassembles the row
        assert np.all((s * _EIG_LOW <= spec.w[k]) & (spec.w[k] <= s * _EIG_HIGH))
        SpectralDecomposition(spec.w[k], spec.v[k]).validate(mats[k], rtol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 16])
@pytest.mark.parametrize("lead", [(), (1,), (100,)])
def test_haar_matches_the_numpy_qr_reference(d, lead):
    # reference: np.linalg.qr's reduced Q, times the phases of its R's diagonal
    q, r = np.linalg.qr(_ginibre(lead, d, np.random.default_rng(d)))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    ref = q * (diag / np.abs(diag))[..., None, :]
    got = _haar(lead, d, np.random.default_rng(d))
    assert got.shape == ref.shape == (*lead, d, d)
    assert got.tobytes() == ref.tobytes()


def test_a_ginibre_draw_of_two_lead_axes_is_the_flat_draw_reshaped():
    # each (d, d) core is read from the stream in turn, whatever the lead
    got = _ginibre((3, 5), 3, np.random.default_rng(0))
    assert got.shape == (3, 5, 3, 3)
    flat = _ginibre((15,), 3, np.random.default_rng(0))
    assert got.reshape(15, 3, 3).tobytes() == flat.tobytes()
