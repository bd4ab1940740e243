from __future__ import annotations

import warnings

import numpy as np
import pytest

from conceptbank.detect import (
    DetectorTrainingProblem,
    _smo,
    KernelSpec,
    VisualnessReport,
    calibrate,
    chi2_distances,
    compute_kernel,
    fit_platt,
    mean_chi2_bandwidth,
    project_simplex,
    train_mklsvm,
    verify_visualness,
)
from conceptbank.errors import PreconditionError

from oracles import kkt_residual, qp_minimum


def toy_problem(gamma, C=10.0):
    # two points x = +1 and x = -1 with matching labels, linear kernel
    gram = [np.array([[1.0, -1.0], [-1.0, 1.0]])]
    return DetectorTrainingProblem(
        gram=gram, labels=np.array([1.0, -1.0]), C=C, gamma=gamma
    )


def test_simplex_projection():
    assert np.allclose(project_simplex(np.array([0.2, 0.8])), [0.2, 0.8])
    assert np.allclose(project_simplex(np.array([0.5, 0.5, 0.5])), [1 / 3] * 3)
    assert np.allclose(project_simplex(np.array([10.0, 0.0])), [1.0, 0.0])
    v = project_simplex(np.array([-3.0, 0.1, 0.4, 2.2]))
    assert v.sum() == pytest.approx(1.0) and np.all(v >= 0)


def test_toy_detector_closed_form():
    model = train_mklsvm(toy_problem(gamma=0.0), tol=1e-8)
    assert np.allclose(np.sort(model.alpha), [0.5, 0.5], atol=1e-4)
    assert model.bias == pytest.approx(0.0, abs=1e-4)
    assert model.objective == pytest.approx(0.5, abs=1e-6)

    model = train_mklsvm(toy_problem(gamma=0.01), tol=1e-8)
    assert np.allclose(model.alpha, [1 / 2.01, 1 / 2.01], atol=1e-4)
    assert model.objective == pytest.approx(1 / 2.01, abs=1e-6)


def test_single_kernel_matches_exhaustive_qp():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        x = rng.normal(size=(n, 2))
        gram = x @ x.T
        y = np.ones(n)
        y[: n // 2] = -1.0
        rng.shuffle(y)
        if np.all(y == y[0]):
            continue
        problem = DetectorTrainingProblem(gram=[gram], labels=y, C=2.0, gamma=0.05)
        model = train_mklsvm(problem, tol=1e-8)
        q = np.outer(y, y) * problem.gram[0] + 0.05 * np.eye(n)
        _, f_min = qp_minimum(q, y, 2.0)
        assert model.objective == pytest.approx(-f_min, abs=1e-6)


def test_identical_kernels_tie_out_to_single_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 3))
    gram = x @ x.T
    y = np.sign(rng.normal(size=12))
    y[y == 0] = 1.0
    if np.all(y == y[0]):
        y[0] = -y[0]
    single = train_mklsvm(
        DetectorTrainingProblem(gram=[gram], labels=y, C=1.0), tol=1e-8
    )
    double = train_mklsvm(
        DetectorTrainingProblem(gram=[gram, gram.copy()], labels=y, C=1.0), tol=1e-8
    )
    # any simplex mix of equal kernels is the same combined kernel
    assert double.objective == pytest.approx(single.objective, abs=1e-6)
    assert double.beta.sum() == pytest.approx(1.0, abs=1e-9)


def test_multi_kernel_history_and_weights():
    rng = np.random.default_rng(8)
    x1 = rng.normal(size=(16, 4))
    x2 = rng.normal(size=(16, 4))
    y = np.concatenate([np.ones(8), -np.ones(8)])
    x1[:8] += 2.0  # channel 1 is informative, channel 2 is noise
    problem = DetectorTrainingProblem(
        gram=[x1 @ x1.T, x2 @ x2.T], labels=y, C=1.0, gamma=0.01
    )
    model = train_mklsvm(problem, tol=1e-6)
    assert np.all(np.diff(model.history) <= 1e-12)
    assert model.beta.shape == (2,)
    assert model.beta.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.beta >= 0)
    assert model.beta[0] > model.beta[1]


def test_trained_model_satisfies_kkt():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(10, 3))
    y = np.concatenate([np.ones(5), -np.ones(5)])
    x[:5] += 1.0
    problem = DetectorTrainingProblem(gram=[x @ x.T], labels=y, C=1.0, gamma=0.01)
    model = train_mklsvm(problem, tol=1e-8)
    # recover the full alpha vector from the support set
    alpha = np.zeros(10)
    sv_rows = {i: k for k, i in enumerate(model.support_ids)}
    for k in range(10):
        key = f"x{k:06d}"
        if key in sv_rows:
            alpha[k] = model.alpha[sv_rows[key]]
    kernel = problem.gram[0] + 0.01 * np.outer(y, y) * np.eye(10)
    assert kkt_residual(kernel, y, alpha, model.bias, 1.0) < 1e-4


def near_duplicate_problem(seed):
    """Ten centres, each repeated with 1e-3 jitter and noisy labels: a
    badly conditioned dual on which maximal-violating-pair SMO needs
    about 10k iterations and sometimes hits its cap."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 81))
    centres = rng.normal(size=(10, 10))
    rows = rng.integers(0, 10, size=n)
    x = centres[rows] + 1e-3 * rng.normal(size=(n, 10))
    y = np.where(centres[rows, 0] + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    return DetectorTrainingProblem(gram=[x @ x.T], labels=y, C=1.0, gamma=0.01)


@pytest.mark.parametrize("seed", range(20))
def test_solver_converges_on_near_duplicate_rows(seed):
    problem = near_duplicate_problem(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = train_mklsvm(problem)
        tight = train_mklsvm(problem, tol=1e-8)
    alpha = np.zeros(problem.n)
    for a, key in zip(model.alpha, model.support_ids):
        alpha[int(key[1:])] = a
    kernel = problem.gram[0] + 0.01 * np.eye(problem.n)
    assert kkt_residual(kernel, problem.labels, alpha, model.bias, 1.0) <= 1e-4
    assert model.objective == pytest.approx(tight.objective, abs=1e-6)


def toy_dual(gamma=0.01):
    """(Q, y) of toy_problem's dual, as train_mklsvm hands them to _smo."""
    problem = toy_problem(gamma=gamma)
    y = problem.labels
    return np.outer(y, y) * problem.gram[0] + gamma * np.eye(2), y


def test_iteration_cap_warning_names_the_concept():
    # one pair update is all the solve may make, so it stops at its cap
    q, y = toy_dual()
    with pytest.warns(RuntimeWarning, match=r"^SMO iteration cap.*con-cap"):
        _smo(q, y, 10.0, 1e-4, concept_id="con-cap", max_iter=1)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_non_positive_tolerance_is_rejected(tol):
    q, y = toy_dual()
    with pytest.raises(PreconditionError, match="tolerance must be > 0"):
        _smo(q, y, 10.0, tol)
    with pytest.raises(PreconditionError, match="tolerance must be > 0"):
        train_mklsvm(toy_problem(gamma=0.01), tol=tol, concept_id="con-tol")


def test_problem_validation():
    gram = [np.eye(2)]
    with pytest.raises(PreconditionError, match="both classes"):
        DetectorTrainingProblem(gram=gram, labels=np.array([1.0, 1.0]))
    with pytest.raises(PreconditionError, match="-1 or \\+1"):
        DetectorTrainingProblem(gram=gram, labels=np.array([1.0, 0.0]))
    with pytest.raises(PreconditionError, match="not symmetric"):
        DetectorTrainingProblem(
            gram=[np.array([[1.0, 0.5], [0.0, 1.0]])], labels=np.array([1.0, -1.0])
        )
    with pytest.raises(PreconditionError, match="positive semidefinite"):
        DetectorTrainingProblem(
            gram=[np.array([[0.0, 1.0], [1.0, 0.0]])], labels=np.array([1.0, -1.0])
        )
    with pytest.raises(PreconditionError, match="C must"):
        DetectorTrainingProblem(gram=gram, labels=np.array([1.0, -1.0]), C=0.0)
    with pytest.raises(PreconditionError, match="gamma"):
        DetectorTrainingProblem(gram=gram, labels=np.array([1.0, -1.0]), gamma=-1.0)
    with pytest.raises(PreconditionError, match="no kernel"):
        DetectorTrainingProblem(gram=[], labels=np.array([1.0, -1.0]))


def test_model_scales_new_points():
    x = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-0.9, -0.1]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    problem = DetectorTrainingProblem(
        gram=[x @ x.T],
        labels=y,
        C=10.0,
        gamma=0.01,
        channels=["f"],
        features={"f": x},
        kernels={"f": KernelSpec("linear")},
        image_ids=["a", "b", "c", "d"],
    )
    model = train_mklsvm(problem, tol=1e-8, concept_id="con-x")
    assert model.concept_id == "con-x"
    raw = model.raw_score_matrix({"f": np.array([[2.0, 0.0], [-2.0, 0.0]])})
    assert raw[0] > 0 and raw[1] < 0
    assert 0.0 < model.calibrated(raw[0]) < 1.0
    with pytest.raises(PreconditionError, match="missing channels"):
        model.raw_score_matrix({"g": x})


def test_platt_orientation_and_monotonicity():
    scores = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    labels = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    a, b = fit_platt(scores, labels)
    assert a < 0  # higher raw score means higher probability
    p = 1.0 / (1.0 + np.exp(a * scores + b))
    assert np.all(np.diff(p) > 0)
    assert p[-1] > 0.5 > p[0]


def test_platt_uninformative_scores_settle_at_prevalence():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=400)
    labels = np.where(rng.random(400) < 0.25, 1.0, -1.0)
    a, b = fit_platt(scores, labels)
    p = 1.0 / (1.0 + np.exp(a * scores + b))
    assert abs(p.mean() - (labels > 0).mean()) < 0.05
    with pytest.raises(PreconditionError, match="both classes"):
        fit_platt(scores, np.ones(400))


def test_calibrate_attaches_parameters():
    model = train_mklsvm(toy_problem(0.0), tol=1e-8)
    out = calibrate(model, np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    assert out is model
    assert model.platt[0] < 0


def blobs(seed, n, separation):
    rng = np.random.default_rng(seed)
    pos = {
        "f": rng.normal(size=(n, 4)) + separation,
        "g": rng.normal(size=(n, 3)),
    }
    neg = {
        "f": rng.normal(size=(3 * n, 4)),
        "g": rng.normal(size=(3 * n, 3)),
    }
    return pos, neg


def test_visualness_separable_concept_passes():
    pos, neg = blobs(0, 120, separation=4.0)
    report = verify_visualness("con-a", pos, neg, seed=0, min_training_images=100)
    assert report.passed
    assert report.cv_ap > 0.8
    assert report.training_image_count == 120
    assert VisualnessReport.from_dict(report.to_dict()) == report


def test_visualness_small_pool_fails_regardless_of_ap():
    pos, neg = blobs(1, 40, separation=4.0)
    report = verify_visualness("con-b", pos, neg, seed=0, min_training_images=100)
    assert report.cv_ap > 0.8
    assert not report.passed


def test_visualness_uninformative_features_fail():
    pos, neg = blobs(2, 120, separation=0.0)
    report = verify_visualness("con-c", pos, neg, seed=0, min_training_images=100)
    assert not report.passed
    assert report.cv_ap < 0.8


def test_visualness_guards():
    pos, neg = blobs(3, 8, separation=1.0)
    with pytest.raises(PreconditionError, match="negatives available"):
        verify_visualness("con-d", neg, pos, seed=0)
    one = {ch: m[:1] for ch, m in pos.items()}
    with pytest.raises(PreconditionError, match="at least 2"):
        verify_visualness("con-e", one, neg, seed=0)


def test_chi2_kernel_pieces():
    x = np.array([[0.5, 0.5], [1.0, 0.0]])
    d = chi2_distances(x, x)
    assert d[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert d[0, 1] == pytest.approx(d[1, 0])
    # (0.5-1)^2/1.5 + (0.5-0)^2/0.5 = 1/6 + 1/2
    assert d[0, 1] == pytest.approx(1 / 6 + 1 / 2, abs=1e-9)
    assert mean_chi2_bandwidth(x) == pytest.approx(d[0, 1])
    assert mean_chi2_bandwidth(x[:1]) == 1.0
    k = compute_kernel(x, x, KernelSpec("chi2", bandwidth=2.0))
    assert k[0, 1] == pytest.approx(np.exp(-d[0, 1] / 2.0))
    with pytest.raises(PreconditionError, match="bandwidth"):
        compute_kernel(x, x, KernelSpec("chi2"))
    with pytest.raises(PreconditionError, match="unknown kernel"):
        compute_kernel(x, x, KernelSpec("rbf"))
