import itertools
import math

import numpy as np
import pytest

from systemic import (DomainError, MeasureDescriptor, WeightedGraph, evaluate,
                      evaluate_eigenvalues, graph_add, laplacian, properties, replay_trial,
                      run_check, scalar_mul)

ENERGY = MeasureDescriptor("energy1")
ENTROPY = MeasureDescriptor("entropy")
ZETA_HALF = MeasureDescriptor("zeta_measure", p=1.0, k=0.5)


class TestHomogeneity:
    def test_energy1_clean(self):
        report = run_check("homogeneity", ENERGY, trials=200, seed=5, tol=1e-9)
        assert report.ok
        assert report.trials == 200

    def test_entropy_violates(self):
        report = run_check("homogeneity", ENTROPY, trials=200, seed=5)
        assert not report.ok

    def test_entropy_shift_law(self, k3):
        # scaling shifts the entropy by -(n-1) log kappa instead of dividing it
        kappa = 2.5
        shifted = evaluate(scalar_mul(kappa, k3), ENTROPY)
        assert shifted == pytest.approx(
            evaluate(k3, ENTROPY) - 2.0 * math.log(kappa), rel=1e-12)

    def test_convergence_time_exact_example(self, k3):
        scaled = evaluate(scalar_mul(2.0, k3), MeasureDescriptor("convergence_time"))
        assert scaled == pytest.approx(1.0 / 6.0, rel=1e-14)


class TestMonotonicity:
    def test_k3_vs_p3_energy(self, k3, p3):
        assert evaluate(k3, ENERGY) == pytest.approx(1.0 / 3.0)
        assert evaluate(p3, ENERGY) == pytest.approx(2.0 / 3.0)
        assert evaluate(k3, ENERGY) <= evaluate(p3, ENERGY)

    def test_k3_vs_p3_hinf(self, k3, p3):
        hinf = MeasureDescriptor("hinf")
        assert evaluate(k3, hinf) == pytest.approx(1.0 / 3.0)
        assert evaluate(p3, hinf) == pytest.approx(1.0)

    def test_reflexive_equality(self, c4):
        # identical graphs sit at the boundary of the ordering
        for descriptor in (ENERGY, ENTROPY, ZETA_HALF):
            assert evaluate(c4, descriptor) <= evaluate(c4, descriptor) + 1e-8

    @pytest.mark.parametrize("descriptor", [ENERGY, ENTROPY, ZETA_HALF,
                                            MeasureDescriptor("local_error")])
    def test_random_pairs(self, descriptor):
        report = run_check("monotonicity", descriptor, trials=60, seed=3)
        assert report.ok

    def test_trial_pairs_are_loewner_ordered(self):
        # the trial adds positive edges to the sparser graph, so the pair's
        # pseudo-inverses are ordered by construction and the trial does not
        # check it; this redraws the trials' pairs and checks it with numpy
        salt = properties._PROPERTIES["monotonicity"][0]
        for seed, trial in itertools.product(range(2), range(200)):
            sequence = np.random.SeedSequence(entropy=seed, spawn_key=(salt, trial))
            rng = np.random.Generator(np.random.PCG64(sequence))
            sparser = properties._random_connected(rng)
            denser = graph_add(sparser, properties._random_positive(rng, sparser.n))
            sparse_inverse = np.linalg.pinv(laplacian(sparser), hermitian=True)
            dense_inverse = np.linalg.pinv(laplacian(denser), hermitian=True)
            smallest = np.linalg.eigvalsh(sparse_inverse - dense_inverse)[0]
            scale = max(1.0, float(np.abs(sparse_inverse).max()))
            assert smallest >= -1e-10 * scale, (seed, trial, smallest)


class TestConvexity:
    def test_endpoints_are_equalities(self):
        # at alpha 0 and 1 the mix is one of the two graphs: both sides agree exactly
        endpoints = [i for i, alpha in enumerate(properties.DEFAULT_ALPHA_GRID)
                     if alpha in (0.0, 1.0)]
        assert len(endpoints) == 2
        for trial in range(40):
            assertions = replay_trial("convexity", ENERGY, seed=9, trial=trial)
            for i in endpoints:
                lhs, rhs, _, _ = assertions[i]
                assert lhs == rhs

    def test_k3_p3_midpoint_value(self, k3, p3):
        # midpoint Laplacian has nonzero eigenvalues {2, 3}
        mix = graph_add(scalar_mul(0.5, k3), scalar_mul(0.5, p3))
        lhs = evaluate(mix, ZETA_HALF)
        assert lhs == pytest.approx(5.0 / 12.0, rel=1e-12)
        rhs = 0.5 * evaluate(k3, ZETA_HALF) + 0.5 * evaluate(p3, ZETA_HALF)
        assert rhs == pytest.approx(0.5, rel=1e-12)
        assert lhs <= rhs

    @pytest.mark.parametrize("descriptor", [ENERGY, ENTROPY,
                                            MeasureDescriptor("hp_norm", p=3.0)])
    def test_random_mixes(self, descriptor):
        report = run_check("convexity", descriptor, trials=60, seed=21)
        assert report.ok


class TestSubadditivity:
    def test_direct_example(self, k3, p3):
        union = graph_add(k3, p3)
        assert evaluate(union, ENERGY) <= evaluate(k3, ENERGY) + evaluate(p3, ENERGY)

    def test_random(self):
        report = run_check("subadditivity", ENERGY, trials=60, seed=2)
        assert report.ok

    def test_entropy_fails_subadditivity(self, k3):
        # doubling the triangle: -log 36 > -2 log 9; negative values break it
        union = graph_add(k3, k3)
        assert evaluate(union, ENTROPY) > 2.0 * evaluate(k3, ENTROPY)


class TestOrthogonalInvariance:
    def test_identity_rotation_exact(self, c4):
        from systemic import eig_sym, evaluate_eigenvalues, laplacian
        matrix = laplacian(c4)
        value = evaluate_eigenvalues(eig_sym(matrix).eigenvalues[1:], ENTROPY)
        assert value == pytest.approx(evaluate(c4, ENTROPY), rel=1e-14)

    def test_entropy_c4_random_rotation(self):
        report = run_check("orthogonal_invariance", ENTROPY, trials=60, seed=4)
        assert report.ok

    def test_permutation_preserves_local_error(self, p3):
        relabeled = WeightedGraph.from_edges(3, [(2, 1, 1.0), (1, 0, 1.0)])
        descriptor = MeasureDescriptor("local_error")
        assert evaluate(p3, descriptor) == evaluate(relabeled, descriptor)

    def test_local_error_not_spectral(self):
        with pytest.raises(DomainError):
            run_check("orthogonal_invariance", MeasureDescriptor("local_error"), trials=1)


class TestSchurConvexity:
    def test_identity_mixture(self):
        x = np.array([1.0, 3.0, 0.4])
        assert evaluate_eigenvalues(x, ENERGY) == evaluate_eigenvalues(x, ENERGY)

    def test_hand_example(self):
        x = np.array([1.0, 3.0])
        averaged = np.array([2.0, 2.0])  # doubly stochastic blend of x
        assert evaluate_eigenvalues(averaged, ENERGY) == pytest.approx(0.5)
        assert evaluate_eigenvalues(x, ENERGY) == pytest.approx(2.0 / 3.0)
        assert evaluate_eigenvalues(averaged, ENERGY) <= evaluate_eigenvalues(x, ENERGY)

    def test_constant_vector_fixed(self):
        x = np.full(5, 2.0)
        mixed = np.full(5, 2.0)
        assert evaluate_eigenvalues(mixed, ENTROPY) == pytest.approx(
            evaluate_eigenvalues(x, ENTROPY), rel=1e-15)

    def test_local_error_not_spectral(self):
        # refused before any trial, as orthogonal_invariance refuses it
        local_error = MeasureDescriptor("local_error")
        with pytest.raises(DomainError, match="local_error is not eigenvalue-based"):
            run_check("schur_convexity", local_error, trials=1)
        with pytest.raises(DomainError, match="local_error is not eigenvalue-based"):
            replay_trial("schur_convexity", local_error, seed=0, trial=0)

    @pytest.mark.parametrize("descriptor", [ENERGY, ENTROPY, ZETA_HALF,
                                            MeasureDescriptor("hinf")])
    def test_random_doubly_stochastic(self, descriptor):
        report = run_check("schur_convexity", descriptor, trials=120, seed=8)
        assert report.ok


class TestReplay:
    def test_violations_replay_bit_for_bit(self):
        report = run_check("homogeneity", ENTROPY, trials=40, seed=77)
        assert report.violations
        for violation in report.violations[:10]:
            assertions = replay_trial("homogeneity", ENTROPY, seed=77,
                                      trial=violation.trial)
            matching = [a for a in assertions if a[3] == violation.description]
            assert len(matching) == 1
            lhs, rhs, _, _ = matching[0]
            assert lhs == violation.lhs
            assert rhs == violation.rhs

    def test_report_reproducible(self):
        first = run_check("monotonicity", ENERGY, trials=25, seed=13)
        second = run_check("monotonicity", ENERGY, trials=25, seed=13)
        assert first == second

    def test_run_check_dispatch(self):
        report = run_check("schur_convexity", ENERGY, trials=10, seed=1)
        assert report.property_id == "schur_convexity"
        with pytest.raises(DomainError):
            run_check("associativity", ENERGY)


# per property: (measure, tol, negate the measure) that makes its check fail
_VIOLATING = {
    "homogeneity": (ENTROPY, 1e-8, False),
    "monotonicity": (ENERGY, 1e-8, True),
    "convexity": (ENERGY, 1e-8, True),
    "subadditivity": (ENTROPY, 1e-8, False),
    "orthogonal_invariance": (ENERGY, 0.0, False),
    "schur_convexity": (ENERGY, 1e-8, True),
}


def _negate_measures(monkeypatch):
    """Make every measure the trials evaluate anti-monotone, concave and
    Schur-concave, on graphs and on eigenvalue vectors alike."""
    for name in ("evaluate", "evaluate_eigenvalues"):
        original = getattr(properties, name)
        monkeypatch.setattr(properties, name,
                            lambda subject, measure, original=original:
                            -original(subject, measure))


def _assert_replays(report, property_id, subject):
    for violation in report.violations:
        assertions = replay_trial(property_id, subject, seed=report.seed,
                                  trial=violation.trial, tol=report.tol)
        matching = [a for a in assertions if a[3] == violation.description]
        assert len(matching) == 1
        lhs, rhs, allowance, _ = matching[0]
        assert (lhs, rhs, lhs - rhs - allowance) == (
            violation.lhs, violation.rhs, violation.margin)


class TestReplayEveryProperty:
    def test_checks_cover_the_table(self):
        assert set(_VIOLATING) == set(properties._PROPERTIES)

    @pytest.mark.parametrize("property_id", sorted(properties._PROPERTIES))
    def test_every_violation_replays(self, monkeypatch, property_id):
        subject, tol, negate = _VIOLATING[property_id]
        if negate:
            _negate_measures(monkeypatch)
        report = run_check(property_id, subject, trials=12, seed=31, tol=tol)
        assert report.property_id == property_id
        assert report.violations
        _assert_replays(report, property_id, subject)


class TestInvalidInputs:
    # a NaN tol hid every violation and a trial count below 1 passed vacuously
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("property_id", sorted(properties._PROPERTIES))
    def test_tol_rejected(self, property_id, tol):
        with pytest.raises(DomainError, match="tol"):
            run_check(property_id, ENERGY, trials=3, tol=tol)
        with pytest.raises(DomainError, match="tol"):
            replay_trial(property_id, ENERGY, seed=0, trial=0, tol=tol)

    @pytest.mark.parametrize("trials", [0, -5, 2.5, "3", None])
    @pytest.mark.parametrize("property_id", sorted(properties._PROPERTIES))
    def test_trials_rejected(self, property_id, trials):
        with pytest.raises(DomainError, match="trials"):
            run_check(property_id, ENERGY, trials=trials)

    # NumPy's seed sequence raised a bare ValueError for a negative seed
    @pytest.mark.parametrize("seed", [-1, 2.5, "0", None, True])
    @pytest.mark.parametrize("property_id", sorted(properties._PROPERTIES))
    def test_seed_rejected(self, property_id, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            run_check(property_id, ENERGY, trials=3, seed=seed)
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            replay_trial(property_id, ENERGY, seed=seed, trial=0)

    @pytest.mark.parametrize("trial", [-1, 1.0, None, False])
    def test_trial_rejected(self, trial):
        with pytest.raises(DomainError, match="trial must be an integer >= 0"):
            replay_trial("homogeneity", ENERGY, seed=0, trial=trial)

    def test_numpy_seed_and_trial_accepted(self):
        assert (replay_trial("homogeneity", ENERGY, seed=np.int64(3), trial=np.int32(1))
                == replay_trial("homogeneity", ENERGY, seed=3, trial=1))

    def test_zero_tol_and_numpy_trial_count_accepted(self):
        report = run_check("homogeneity", ENERGY, trials=np.int64(2), tol=0.0)
        assert report.trials == 2
