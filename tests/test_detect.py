from __future__ import annotations

import dataclasses
import warnings
import weakref

import numpy as np
import pytest

from conceptbank import detect, pipeline
from conceptbank.detect import (
    DetectorBank,
    DetectorTrainingProblem,
    _smo_lockstep,
    KernelSpec,
    VisualnessReport,
    chi2_distances,
    compute_kernel,
    fit_platt,
    mean_chi2_bandwidth,
    project_simplex,
    train_mklsvm,
    train_mklsvm_lockstep,
    verify_visualness,
)
from conceptbank.errors import PreconditionError

from oracles import kkt_residual, mkl_by_smo, qp_minimum, smo, visualness_cv_ap


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
    """(Q, y) of toy_problem's dual, as train_mklsvm hands them to its SMO solver."""
    problem = toy_problem(gamma=gamma)
    y = problem.labels
    return np.outer(y, y) * problem.gram[0] + gamma * np.eye(2), y


def test_iteration_cap_warning_names_the_concept():
    # one pair update is all the solve may make, so it stops at its cap
    q, y = toy_dual()
    with pytest.warns(RuntimeWarning, match=r"^SMO iteration cap.*con-cap"):
        smo(q, y, 10.0, 1e-4, concept_id="con-cap", max_iter=1)
    # the lockstep solver: one warning per capped problem, each naming its own id
    ids = ["con-cap-a", "con-cap-b", "con-cap-c"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _smo_lockstep(np.stack([q] * 3), np.stack([y] * 3), [10.0] * 3, 1e-4, ids, max_iter=1)
    assert [str(w.message) for w in caught] == [
        f"SMO iteration cap reached before KKT tolerance ({i})" for i in ids
    ]
    assert all(w.category is RuntimeWarning for w in caught)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_non_positive_tolerance_is_rejected(tol):
    q, y = toy_dual()
    with pytest.raises(PreconditionError, match="tolerance must be > 0"):
        smo(q, y, 10.0, tol)
    with pytest.raises(PreconditionError, match="tolerance must be > 0"):
        _smo_lockstep(q[None], y[None], [10.0], tol, ["con-tol"])
    with pytest.raises(PreconditionError, match="tolerance must be > 0"):
        train_mklsvm(toy_problem(gamma=0.01), tol=tol, concept_id="con-tol")


def random_duals(rng, p, n, ties):
    """p chi2 SVM duals (Q, y) of size n, as train_mklsvm forms them; with
    ties, the points are few distinct integer vectors and there is no
    ridge, so Gram rows, and with them the violations -y grad, repeat
    exactly."""
    gamma = 0.0 if ties else 0.01
    qs, ys = np.empty((p, n, n)), np.empty((p, n))
    for k in range(p):
        if ties:
            x = rng.integers(0, 3, size=(n, 4)).astype(np.float64)
            x = x[rng.integers(0, max(2, n // 3), size=n)]
        else:
            x = rng.uniform(0.0, 1.0, size=(n, 6))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        gram = compute_kernel(x, x, KernelSpec("chi2", bandwidth=2.0))
        problem = DetectorTrainingProblem(gram=[gram], labels=y, gamma=gamma)
        qs[k] = np.outer(y, y) * problem.gram[0] + gamma * np.eye(n)
        ys[k] = y
    return qs, ys


@pytest.mark.parametrize(
    "seed, n, cs, ties",
    [
        (0, 30, [0.01, 0.05, 0.1, 0.02], False),  # the upper bound binds
        (1, 40, [0.1, 1.0, 10.0, 100.0, 1.0], False),  # problems leave at different rounds
        (2, 24, [0.05, 1.0, 10.0], True),  # planted ties in the violations
        (3, 2, [0.5, 10.0], False),
    ],
)
def test_lockstep_solver_equals_smo_bit_for_bit(seed, n, cs, ties):
    rng = np.random.default_rng(seed)
    qs, ys = random_duals(rng, len(cs), n, ties)
    ids = [f"p{k}" for k in range(len(cs))]
    got = _smo_lockstep(qs, ys, cs, 1e-4, ids)
    assert len(got) == len(cs)
    for q, y, c, (alpha, bias, objective) in zip(qs, ys, cs, got):
        want_alpha, want_bias, want_objective = smo(q, y, c, 1e-4)
        assert np.array_equal(alpha, want_alpha)
        assert bias == want_bias and objective == want_objective
    if seed == 0:
        assert any(np.any(a[0] == c) for a, c in zip(got, cs))
    if ties:
        # repeated (row, label) pairs keep their -y grad equal at every step
        assert all(len(np.unique(np.column_stack([q, y]), axis=0)) < n for q, y in zip(qs, ys))
    # capped mid-way, each problem still equals smo capped at the same count
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        capped = _smo_lockstep(qs, ys, cs, 1e-4, ids, max_iter=7)
        for q, y, c, (alpha, bias, objective) in zip(qs, ys, cs, capped):
            want = smo(q, y, c, 1e-4, max_iter=7)
            assert np.array_equal(alpha, want[0]) and (bias, objective) == want[1:]


def test_lockstep_solver_of_an_empty_stack_is_empty():
    assert _smo_lockstep(np.empty((0, 3, 3)), np.empty((0, 3)), [], 1e-4, []) == []


def padded(qs) -> np.ndarray:
    """The duals qs in one stack, zero-padded to the largest n."""
    n_max = max(q.shape[0] for q in qs)
    stack = np.zeros((len(qs), n_max, n_max))
    for slot, q in zip(stack, qs):
        slot[: q.shape[0], : q.shape[0]] = q
    return stack


def test_padded_warm_started_lockstep_equals_smo_bit_for_bit():
    rng = np.random.default_rng(11)
    sizes = [5, 30, 2, 17, 30, 9, 24]
    duals = [random_duals(rng, 1, n, ties=k % 3 == 2) for k, n in enumerate(sizes)]
    qs, ys = [q[0] for q, _ in duals], [y[0] for _, y in duals]
    # each dual twice, at two values of C, so problems share stack entries
    which = list(range(len(qs))) * 2
    cs = [float(c) for c in rng.choice([0.05, 1.0, 10.0], size=len(which))]
    ids = [f"p{k}" for k in range(len(which))]
    # half the problems warm-start from the solution of a perturbed dual, as the MKL loop does
    alpha0 = [
        smo(0.7 * qs[d] + 0.1 * np.eye(sizes[d]), ys[d], c, 1e-4)[0] for d, c in zip(which, cs)
    ]
    starts = [
        (a, qs[d] @ a - 1.0) if k % 2 else None for k, (d, a) in enumerate(zip(which, alpha0))
    ]
    got = _smo_lockstep(
        padded(qs), [ys[d] for d in which], cs, 1e-4, ids, duals=which, starts=starts
    )
    for d, c, start, (alpha, bias, objective) in zip(which, cs, starts, got):
        want = smo(qs[d], ys[d], c, 1e-4, None if start is None else start[0])
        assert np.array_equal(alpha, want[0]) and (bias, objective) == want[1:]
    assert len({a.size for a, _, _ in got}) == len(set(sizes))
    # capped at 7 steps, each capped problem warns with its own id, in stack order
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        capped = _smo_lockstep(
            padded(qs), [ys[d] for d in which], cs, 1e-4, ids, 7, duals=which, starts=starts
        )
    warned = []
    for k, (d, c, start, (alpha, bias, objective)) in enumerate(zip(which, cs, starts, capped)):
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            want = smo(qs[d], ys[d], c, 1e-4, None if start is None else start[0], max_iter=7)
        assert np.array_equal(alpha, want[0]) and (bias, objective) == want[1:]
        warned += [ids[k]] * len(alone)
    assert [str(w.message) for w in caught] == [
        f"SMO iteration cap reached before KKT tolerance ({i})" for i in warned
    ]
    assert 0 < len(warned) < len(which)


def test_lockstep_default_cap_follows_each_problems_own_size():
    # scaled by 1e14, the violations cannot fall below tol in float64, so
    # each problem runs to its own cap: 20,050 steps at n = 401, 20,100 at 402
    rng = np.random.default_rng(5)
    qs, ys = [], []
    for n in (401, 402):
        x = rng.uniform(size=(n, 6))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        qs.append(1e14 * np.outer(y, y) * compute_kernel(x, x, KernelSpec("chi2", bandwidth=2.0)))
        ys.append(y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _smo_lockstep(padded(qs), ys, [1.0, 1.0], 1e-4, ["n401", "n402"])
        want = [smo(q, y, 1.0, 1e-4, concept_id=f"n{y.size}") for q, y in zip(qs, ys)]
    assert [str(w.message) for w in caught] == [
        f"SMO iteration cap reached before KKT tolerance (n{n})" for n in (401, 402) * 2
    ]
    for (alpha, bias, objective), (w_alpha, w_bias, w_objective) in zip(got, want):
        assert np.array_equal(alpha, w_alpha) and (bias, objective) == (w_bias, w_objective)


def mkl_problem(rng, n, m):
    """A random m-kernel linear problem of n rows, its channels informative to different degrees."""
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    grams = []
    for _ in range(m):
        x = rng.normal(size=(n, 3)) + rng.uniform(0, 2) * y[:, None]
        grams.append(x @ x.T)
    c = float(rng.choice([0.1, 1.0]))
    return DetectorTrainingProblem(gram=grams, labels=y, C=c, gamma=0.01)


@pytest.mark.parametrize(
    "sizes, kernels",
    [
        ([30, 20, 38, 17, 31, 34, 31, 33], [3, 3, 2, 2, 3, 3, 3, 2]),
        ([33], [2]),  # a stack of one
        ([12, 25, 7], [1, 1, 1]),  # m = 1: one solve each
    ],
)
def test_lockstep_mkl_equals_one_smo_per_solve(monkeypatch, sizes, kernels):
    rng = np.random.default_rng(4)
    problems = [mkl_problem(rng, n, m) for n, m in zip(sizes, kernels)]
    grams = [[g.copy() for g in p.gram] for p in problems]
    ids = [f"con-{k}" for k in range(len(problems))]
    got = train_mklsvm_lockstep(problems, ids)
    single = [train_mklsvm(p, concept_id=cid) for p, cid in zip(problems, ids)]
    # a bound of one value per pass trains each problem in a pass of its own
    monkeypatch.setattr(detect, "_LOCKSTEP_DOUBLES", 1)
    alone = train_mklsvm_lockstep(iter(problems), ids)
    want, solves = zip(*(mkl_by_smo(p, concept_id=cid) for p, cid in zip(problems, ids)))
    assert len(got) == len(alone) == len(problems)
    for a, b in zip(got + alone + single, want * 3):
        assert a.concept_id == b.concept_id and a.support_ids == b.support_ids
        assert np.array_equal(a.beta, b.beta) and np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.support_rows, b.support_rows)
        assert (a.bias, a.objective, a.history) == (b.bias, b.objective, b.history)
        assert a.support_features == {}
    # the caller's problems are left as they were
    for p, g in zip(problems, grams):
        assert all(np.array_equal(x, y) for x, y in zip(p.gram, g))
    if len(problems) > 1 and max(kernels) > 1:
        # runs of different lengths, and line searches that reject steps
        assert len({len(m.history) for m in want}) > 1
        assert any(k > len(m.history) for m, k in zip(want, solves))
    if max(kernels) == 1:
        assert all(k == 1 for k in solves)


def test_lockstep_passes_are_bounded_with_their_padding(monkeypatch):
    rng = np.random.default_rng(6)
    problems = [mkl_problem(rng, n, 1) for n in (40, 10, 10, 10)]
    ids = [f"con-{k}" for k in range(len(problems))]
    drawn, passes = [], []

    def lazy():
        for p in problems:
            drawn.append(p)
            yield p

    def recorded(runs, tol):
        passes.append(([r[1].size for r in runs], len(drawn)))
        return run_pass(runs, tol)

    run_pass = detect._lockstep_pass
    monkeypatch.setattr(detect, "_lockstep_pass", recorded)
    # the Grams alone (1,900 values) fit 7,000, but every slot of a pass's
    # stack is padded to its largest n: 1,800 + 4 * 1,600 = 8,200 values
    # once the third problem is in, so the pass runs then
    monkeypatch.setattr(detect, "_LOCKSTEP_DOUBLES", 7_000)
    got = train_mklsvm_lockstep(lazy(), ids)
    # each pass runs before the next problem is drawn
    assert passes == [([40, 10, 10], 3), ([10], 4)]
    for a, p, cid in zip(got, problems, ids):
        b, _ = mkl_by_smo(p, concept_id=cid)
        assert np.array_equal(a.alpha, b.alpha) and (a.bias, a.objective) == (b.bias, b.objective)


def test_a_lockstep_pass_holds_no_problem(monkeypatch):
    # only the runs' own signed Grams are held: no problem is alive while a
    # pass runs, neither its own nor the next one drawn
    rng = np.random.default_rng(7)
    refs, passes = [], []

    def tracked(problem):
        refs.append(weakref.ref(problem))
        return problem

    def lazy():  # holds no problem between draws, as the pipeline's generators
        for n in (12, 15, 9):
            yield tracked(mkl_problem(rng, n, 2))

    def checked(runs, tol):
        assert refs and all(r() is None for r in refs)
        passes.append(len(refs))
        return run_pass(runs, tol)

    run_pass = detect._lockstep_pass
    monkeypatch.setattr(detect, "_lockstep_pass", checked)
    assert len(train_mklsvm_lockstep(lazy(), ["a", "b", "c"])) == 3
    assert passes == [3]
    # with a pass per problem, each runs before the next problem is drawn
    monkeypatch.setattr(detect, "_LOCKSTEP_DOUBLES", 1)
    refs.clear()
    passes.clear()
    assert len(train_mklsvm_lockstep(lazy(), ["a", "b", "c"])) == 3
    assert passes == [1, 2, 3]


def test_lockstep_mkl_of_no_problems_is_empty():
    assert train_mklsvm_lockstep([], []) == []


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


def test_folded_weights_score_like_the_kernel_expansion():
    rng = np.random.default_rng(3)
    y = np.array([1.0] * 8 + [-1.0] * 8)
    x = {"a": rng.normal(size=(16, 3)) + 1.5 * y[:, None], "b": 0.1 * rng.normal(size=(16, 4))}
    kernels = {c: KernelSpec("linear") for c in x}
    problem = DetectorTrainingProblem(
        gram=[x[c] @ x[c].T for c in x], labels=y, C=1.0, gamma=0.01,
        channels=list(x), features=x, kernels=kernels,
    )
    model = train_mklsvm(problem, concept_id="con-w")
    assert model.beta[1] == 0.0 < model.beta[0]  # channel b drops out
    new = {"a": rng.normal(size=(5, 3)), "b": 50.0 * rng.normal(size=(5, 4))}
    mixed = sum(
        b * compute_kernel(new[c], model.support_features[c], kernels[c])
        for b, c in zip(model.beta, model.channels)
    )
    expansion = mixed @ (model.alpha * model.support_labels) + model.bias
    assert np.allclose(model.raw_score_matrix(new), expansion, rtol=0, atol=1e-12)

    # the bank holds the same weights, rounded to f32, one column per model
    other = dataclasses.replace(model, concept_id="con-v", bias=-1.0, platt=(-2.0, 0.5))
    bank = DetectorBank.concat([DetectorBank.fold(model), DetectorBank.fold(other)])
    assert bank.concept_ids == ["con-w", "con-v"]
    for c, w in model.weights().items():
        assert bank.weights[c].shape == (w.size, 2)
        assert np.array_equal(bank.weights[c][:, 1], w.astype(np.float32))
    raw = bank.raw_scores(new)
    assert np.allclose(raw[:, 0], expansion, rtol=0, atol=1e-5)
    assert np.allclose(raw[:, 0] - model.bias, raw[:, 1] + 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(bank.calibrated(raw)[:, 1], other.calibrated(raw[:, 1]))
    chi2 = dataclasses.replace(model, kernels={"a": KernelSpec("chi2", 1.0), "b": kernels["b"]})
    with pytest.raises(PreconditionError, match="only linear"):
        chi2.weights()


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


@pytest.mark.parametrize("seed, n, separation", [(0, 120, 4.0), (1, 40, 4.0), (2, 120, 0.0), (4, 7, 1.0)])
def test_visualness_equals_one_fold_at_a_time(seed, n, separation):
    pos, neg = blobs(seed, n, separation)
    report = verify_visualness("con-r", pos, neg, seed=seed + 10)
    assert report.cv_ap == visualness_cv_ap(pos, neg, seed=seed + 10)


def test_visualness_guards():
    pos, neg = blobs(3, 8, separation=1.0)
    with pytest.raises(PreconditionError, match="negatives available"):
        verify_visualness("con-d", neg, pos, seed=0)
    one = {ch: m[:1] for ch, m in pos.items()}
    with pytest.raises(PreconditionError, match="at least 2"):
        verify_visualness("con-e", one, neg, seed=0)


def test_verify_stage_equals_one_verify_visualness_per_candidate(full_store, corpus_config):
    # the stage's one batch over all candidates, against verify_visualness on
    # each candidate alone, given every negative image as its pool
    config = corpus_config
    records = pipeline._records(config, pipeline._tree(full_store), pipeline._lexicon(config))
    features = pipeline._features(full_store)
    stored = full_store.read_json("reports/visualness.json")
    candidates = sorted(pipeline._candidates(full_store), key=lambda c: c["concept_id"])
    for idx, cand in enumerate(candidates):
        pos = set(cand["image_ids"])
        neg_ids = [
            r.image_id for r in records
            if cand["name"] not in r.canonical_tags() and r.image_id not in pos
        ]
        report = verify_visualness(
            cand["concept_id"], features(cand["image_ids"]), features(neg_ids),
            seed=config.seed_for("verify") + idx, C=config.C, gamma=config.gamma,
            ap_threshold=config.cv_ap_threshold, min_training_images=config.min_training_images,
        )
        assert stored[cand["concept_id"]] == report.to_dict()
    assert len(stored) == len(candidates) > 1


def test_chi2_kernel_pieces():
    x = np.array([[0.5, 0.5], [1.0, 0.0]])
    d = chi2_distances(x, x)
    assert d[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert d[0, 1] == pytest.approx(d[1, 0])
    # (0.5-1)^2/1.5 + (0.5-0)^2/0.5 = 1/6 + 1/2
    assert d[0, 1] == pytest.approx(1 / 6 + 1 / 2, abs=1e-9)
    assert mean_chi2_bandwidth(d) == pytest.approx(d[0, 1])
    assert mean_chi2_bandwidth(d[:1, :1]) == 1.0
    k = compute_kernel(x, x, KernelSpec("chi2", bandwidth=2.0))
    assert k[0, 1] == pytest.approx(np.exp(-d[0, 1] / 2.0))
    with pytest.raises(PreconditionError, match="bandwidth"):
        compute_kernel(x, x, KernelSpec("chi2"))
    with pytest.raises(PreconditionError, match="unknown kernel"):
        compute_kernel(x, x, KernelSpec("rbf"))


@pytest.mark.parametrize("d", [3, 48, 301])
def test_chi2_distances_of_a_sub_block_equal_the_full_matrix(d):
    # each entry sums its own row of d terms: neither the other rows nor
    # the block budget (~64k doubles of z rows per chunk) may change it
    rng = np.random.default_rng(d)
    x = rng.uniform(0.0, 1.0, size=(200, d))
    full = chi2_distances(x, x)  # 200 * d doubles per z row: chunked
    rows, cols = rng.permutation(200)[:37], np.sort(rng.permutation(200)[:90])
    assert np.array_equal(full[np.ix_(rows, cols)], chi2_distances(x[rows], x[cols]))
    for i in (0, 57, 199):  # one x row: z fits in one chunk
        assert np.array_equal(full[i : i + 1], chi2_distances(x[i : i + 1], x))
    for j in (0, 131):  # one z row per call
        assert np.array_equal(full[:, j : j + 1], chi2_distances(x, x[j : j + 1]))


def test_chi2_distances_past_the_block_budget_take_one_z_row_per_chunk():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(6_000, 50))  # 300k doubles per z row
    z = rng.uniform(0.0, 1.0, size=(3, 50))
    full = chi2_distances(x, z)
    assert np.array_equal(full[:10], chi2_distances(x[:10], z))
    assert np.array_equal(full[-4:], chi2_distances(x[-4:], z))
