"""ADAM driver, shot schedules and stochastic gradient estimation."""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import numpy_epoch
import pytest

from vista.config import (
    GRAD_CENTRAL,
    GRAD_METHODS,
    GRAD_PARAM_SHIFT,
    MODE_PURE,
    NORM_PLAIN,
    PHI_CLAMP,
    GradientBlock,
    OptimizerConfig,
    ShotSchedule,
    from_dict,
)
from vista.dynamics import CHANNEL_NONE, closed_form_overlap, qubit_channel
from vista.errors import DomainError, NumericsError
from vista.measurement import binomial_fraction, loss
from vista import optimize, protocols
from vista.rng import STREAM_GRAD, STREAM_LOSS, stream
from vista.optimize import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_EPOCHS,
    Adam,
    adam_step,
    clip,
    estimate_gradient,
    run_optimization,
)

N_PROBE = 3
THETA_TRUE = 0.15
_PURE = qubit_channel(CHANNEL_NONE, 0.0)
PHI_BOUNDS = [None, (0.0, PHI_CLAMP)]  # the bounds of a (theta, phi) run


def _raw(theta_hat):
    """Overlap of the pure probe at THETA_TRUE with the pure ansatz at theta_hat."""
    return float(closed_form_overlap(N_PROBE, _PURE, _PURE, THETA_TRUE - theta_hat))


def _exact_loss(values, nu, label):
    return loss(_raw(values[0]), None, mode=NORM_PLAIN)


def _sampled_loss(seed, nu):
    def f(values, label):
        return loss(_raw(values[0]), stream(seed, *label), nu, mode=NORM_PLAIN)

    return f


def _labels(epoch, nblocks, crn=False):
    """A test closure's stream label for each block of an epoch: the recorded loss, then each parameter's two shifts,
    which share their label under common random numbers."""
    return [(STREAM_LOSS, epoch)] + [(STREAM_GRAD, epoch, i, side * (not crn))
                                     for i in range((nblocks - 1) // 2) for side in (0, 1)]


def _rowwise(f):
    """A loss closure on stacked blocks from f(values, nu, label), which scores one row under its block's label."""

    def lossfn(columns, nu, epoch, rows):
        labels = _labels(epoch, len(columns[0]) // len(rows))
        return [float(f(row, nu, labels[j // len(rows)])) for j, row in enumerate(zip(*columns))]

    return lossfn


def _central(*hs):
    """The steps (shifts, scales) of central differences with the steps ``hs``."""
    return [float(h) for h in hs], [1.0 / (2 * h) for h in hs]


def _steps(method, h_theta, h_phi, names, freqs):
    """``protocols._gradient_steps`` of the parameters ``names`` under ``gradient.method`` and the two steps."""
    cfg = from_dict({"mode": MODE_PURE, "n": N_PROBE, "theta_true": THETA_TRUE, "seed": 0,
                     "gradient": {"method": method, "h_theta": h_theta, "h_phi": h_phi}})
    return protocols._gradient_steps(cfg, names, freqs)


def _grad(at, f, steps):
    """The gradient at one point, through the epoch evaluator under the default ADAM settings, with no bounds:
    f(values, label) scores one row."""
    adam = Adam(OptimizerConfig(), steps, [None] * len(at), 1)
    lossfn = _rowwise(lambda row, nu, label: f(row, label))
    columns = estimate_gradient([[x] for x in at], lossfn, adam, 0, None, [0])[1]
    return np.array([g for [g] in columns])


def _adam_step(cfg, epoch, values, grad, m, v):
    """``adam_step`` from the moments ``m`` and ``v`` on the gradient columns ``grad``; returns (values, m, v) after it.

    The block's up shifts lose g and its down shifts 0.0 under a unit scale (h = 0.5), so its gradient is ``grad``.
    """
    nparams, nrows = len(values), len(values[0])
    adam = Adam(cfg, _central(*[0.5] * nparams), [None] * nparams, nrows)
    adam.m, adam.v = m, v
    out = [0.0] * nrows
    for column in grad:
        out += column + [0.0] * nrows
    assert adam_step(adam, epoch, values, out) == grad
    return adam.values, adam.m, adam.v


def _run(start, f, bounds=None, **kw):
    """One run through the batched optimizer, with no bounds unless given: f(values, nu, label) scores one row."""
    start = np.atleast_2d(start)
    runs = run_optimization(start, _rowwise(f), bounds=bounds or [None] * start.shape[1], **kw)
    assert len(runs) == 1
    return runs[0]


class TestParams:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            _run(np.array([1.0]), _exact_loss, [None, None], optimizer=OptimizerConfig(max_epochs=1),
                 schedule=ShotSchedule(exact=True), steps=_central(0.1, 0.1))
        # the shape is checked before a column is clamped, so a start without a bounded column is a DomainError too
        for start in (np.array([0.1, 0.2]), np.array([[0.1]])):
            with pytest.raises(DomainError):
                run_optimization(start, None, optimizer=OptimizerConfig(max_epochs=1),
                                 schedule=ShotSchedule(exact=True), steps=_central(0.1, 0.1), bounds=PHI_BOUNDS)

    @pytest.mark.parametrize("bounds", [PHI_BOUNDS, [(-1.0, 0.5), None], [None, None]],
                             ids=["column-1", "column-0", "none"])
    def test_clamp_only_touches_bounded_columns(self, bounds):
        # row 0 is pushed up and row 1 down in both columns, from starts outside every bound, so a bounded
        # column's starts, block shifts and steps would all leave its bounds if nothing clipped them
        starts, h = [[1.0, 2.0], [-1.2, -0.3]], [0.1, 0.05]
        calls = []

        def lossfn(columns, nu, epoch, rows):
            calls.append([list(column) for column in columns])
            return [(x + y) * (-1.0 if j % len(rows) == 0 else 1.0) for j, (x, y) in enumerate(zip(*columns))]

        def held(x, j):
            return clip(x, *bounds[j]) if bounds[j] else x

        optimizer = OptimizerConfig(lr0=0.5, decay=1.0, max_epochs=4, tol_conv=0.0)
        runs = run_optimization(starts, lossfn, optimizer=optimizer, schedule=ShotSchedule(exact=True),
                                steps=_central(*h), bounds=bounds)
        assert [len(run.trace["epoch"]) for run in runs] == [4, 4] == [len(calls)] * 2
        for epoch, columns in enumerate(calls):
            points = [[held(x, j) for j, x in enumerate(start)] if epoch == 0
                      else run.trace["params"][epoch - 1].tolist() for start, run in zip(starts, runs)]
            # the block: the rows, then each column's up and down shift, clipped where the column has bounds
            expected = [[], []]
            for shifted, sign in [(None, 0), (0, 1), (0, -1), (1, 1), (1, -1)]:
                for point in points:
                    for j, x in enumerate(point):
                        expected[j].append(held(x + h[j] if sign > 0 else x - h[j], j) if j == shifted else x)
            assert columns == expected
        for j, bound in enumerate(bounds):
            walked = np.concatenate([run.trace["params"][:, j] for run in runs])
            if bound:  # held at both ends
                assert (walked.min(), walked.max()) == bound
            else:  # walked past both of its starts
                assert walked.min() < -1.2 and walked.max() > 2.0

    def test_clamp_agrees_with_np_clip(self):
        column = [-0.0, 0.0, -0.3, 0.7, 2.0, float("nan"), float("-inf"), float("inf")]
        clipped = np.array(column).clip(0.0, PHI_CLAMP)
        # the bits: -0.0 stays -0.0 and nan stays nan, as np.clip leaves them
        assert np.array([clip(x, 0.0, PHI_CLAMP) for x in column]).tobytes() == clipped.tobytes()


class TestAdamStep:
    def test_zero_gradient_is_stationary(self):
        cfg = OptimizerConfig()
        values = [[0.3], [-0.1]]
        zeros = [[0.0], [0.0]]
        new_values, m, v = _adam_step(cfg, 0, values, zeros, zeros, zeros)
        assert new_values == values
        assert m == v == zeros

    def test_returns_fresh_columns(self):
        cfg = OptimizerConfig()
        values, grad, m, v = [[0.3, 0.1], [-0.1, 0.2]], [[1.0, -2.0], [0.5, 0.0]], [[0.1, 0.2], [0.0, 0.1]], [[0.01] * 2] * 2
        before = [[list(c) for c in cols] for cols in (values, grad, m, v)]
        out = _adam_step(cfg, 3, values, grad, m, v)
        assert [[list(c) for c in cols] for cols in (values, grad, m, v)] == before
        ids = {id(x) for cols in (values, grad, m, v) for x in (cols, *cols)}
        assert all(type(cols) is list and id(cols) not in ids for cols in out)
        assert all(type(c) is list and id(c) not in ids for cols in out for c in cols)
        assert len({id(c) for cols in out for c in cols}) == 6

    def test_moments_start_as_separate_zero_columns(self):
        # m and v are two lists of fresh columns, so an update of one in place leaves the other
        adam = Adam(OptimizerConfig(), _central(0.1, 0.1), [None, None], 3)
        assert adam.m == adam.v == [[0.0] * 3] * 2
        assert len({id(x) for x in (adam.m, adam.v, *adam.m, *adam.v)}) == 6

    def test_first_step_moves_by_learning_rate(self):
        # bias-corrected first step is lr * sign(g) up to eps
        cfg = OptimizerConfig(lr0=0.05)
        [[new_value]], _, _ = _adam_step(cfg, 0, [[0.0]], [[2.7]], [[0.0]], [[0.0]])
        assert new_value == pytest.approx(-0.05, abs=1e-8)

    def test_motion_bounded_by_decayed_rate(self, rng):
        cfg = OptimizerConfig(lr0=0.1, decay=0.97)
        values = m = v = [[0.0]] * 3
        for epoch in range(50):
            lr = cfg.lr_at(epoch)
            grad = [[g] for g in (rng.normal(size=3) * 10).tolist()]
            new_values, m, v = _adam_step(cfg, epoch, values, grad, m, v)
            assert np.all(np.abs(np.subtract(new_values, values)) <= lr + 1e-12)
            values = new_values

    @pytest.mark.parametrize("bad", [{"beta1": 1.0}, {"beta2": 1.0}, {"beta1": -0.1}, {"beta2": float("nan")},
                                     {"eps": 0.0}, {"eps": -1e-8}, {"eps": float("nan")}])
    def test_settings_keep_the_divisors_positive(self, bad):
        # 1 - beta**t and sqrt(v-hat) + eps divide the step; a zero would raise ZeroDivisionError in the epoch
        with pytest.raises(DomainError):
            OptimizerConfig(**bad)

    def test_rate_decay(self):
        cfg = OptimizerConfig(lr0=0.05, decay=0.995)
        assert cfg.lr_at(0) == 0.05
        assert cfg.lr_at(100) == pytest.approx(0.05 * 0.995**100)


class TestShotSchedule:
    def test_constant(self):
        s = ShotSchedule(5000, 5000, "constant")
        assert s.shots_at(0, 400) == 5000
        assert s.shots_at(399, 400) == 5000

    def test_linear_endpoints_and_midpoint(self):
        s = ShotSchedule(10000, 40000, "linear")
        assert s.shots_at(0, 3) == 10000
        assert s.shots_at(1, 3) == 25000
        assert s.shots_at(2, 3) == 40000

    def test_geometric_endpoints_and_midpoint(self):
        s = ShotSchedule(10000, 40000, "geometric")
        assert s.shots_at(0, 3) == 10000
        assert s.shots_at(1, 3) == 20000  # multiplicative midpoint
        assert s.shots_at(2, 3) == 40000

    def test_single_epoch_uses_start(self):
        assert ShotSchedule(100, 900, "geometric").shots_at(0, 1) == 100

    def test_exact_mode_returns_none(self):
        assert ShotSchedule(exact=True).shots_at(5, 400) is None

    def test_validation(self):
        with pytest.raises(DomainError):
            ShotSchedule(profile="logarithmic")
        with pytest.raises(DomainError):
            ShotSchedule(nu_start=0)
        with pytest.raises(DomainError):
            ShotSchedule(nu_start=5000, nu_end=1000)

    def test_exact_mode_skips_count_checks(self):
        assert ShotSchedule(nu_start=5000, nu_end=1000, exact=True).shots_at(0, 10) is None


class TestGradientEstimation:
    """The epoch evaluator's gradient; the step rule's tests take their steps from ``protocols._gradient_steps``."""

    def test_central_difference_exact_for_quadratic(self):
        def f(values, label):
            return (values[0] - 1.0) ** 2

        steps = _steps(GRAD_CENTRAL, 0.2, 0.05, ("theta",), [2.0 * N_PROBE])
        assert steps == ([0.2], [2.5])
        g = _grad(np.array([0.4]), f, steps)
        assert g[0] == pytest.approx(2 * (0.4 - 1.0), abs=1e-12)

    def test_zero_at_minimum(self):
        def f(values, label):
            return 1 - np.cos(2 * N_PROBE * (values[0] - THETA_TRUE))

        steps = _central(np.pi / 24)
        g = _grad(np.array([THETA_TRUE]), f, steps)
        assert g[0] == pytest.approx(0.0, abs=1e-14)

    def test_small_angle_slope_matches_information_rate(self):
        # exact loss curvature near the optimum: dL/dtheta = 2 n^2 * delta,
        # i.e. the Hilbert-Schmidt information rate times the offset
        delta = 0.01
        steps = _central(1e-4)
        g = _grad(np.array([THETA_TRUE + delta]), lambda v, label: _exact_loss(v, None, label), steps)
        assert g[0] == pytest.approx(2 * N_PROBE**2 * delta, rel=2e-3)

    def test_parameter_shift_exact_for_single_harmonic(self):
        # A + B cos(w p + c): the two-point rule recovers the derivative exactly
        w = 2 * N_PROBE

        def f(values, label):
            return 0.5 * (1 - np.cos(w * (values[0] - THETA_TRUE)))

        steps = _steps(GRAD_PARAM_SHIFT, 0.05, 0.05, ("theta",), [float(w)])
        assert steps == ([np.pi / (2 * w)], [w / 2])
        at = THETA_TRUE + 0.23
        g = _grad(np.array([at]), f, steps)
        assert g[0] == pytest.approx(0.5 * w * np.sin(w * 0.23), abs=1e-12)

    def test_parameter_shift_zero_frequency_falls_back(self):
        # second parameter has no harmonic structure; linear loss shows the
        # central-difference fallback is exact there
        def f(values, label):
            return 0.5 * (1 - np.cos(4 * values[0])) + 3.0 * values[1]

        steps = _steps(GRAD_PARAM_SHIFT, 0.1, 0.05, ("theta", "phi"), [4.0, 0.0])
        assert steps == ([np.pi / 8, 0.05], [2.0, 10.0])
        g = _grad(np.array([0.3, 0.7]), f, steps)
        assert g[0] == pytest.approx(2 * np.sin(1.2), abs=1e-12)
        assert g[1] == pytest.approx(3.0, abs=1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            GradientBlock(method="forward")

    def test_non_finite_loss_rejected(self):
        steps = _central(0.1)
        with pytest.raises(NumericsError):
            _grad(np.array([0.0]), lambda v, label: float("nan"), steps)

    def test_sampled_sign_reliability(self):
        # a tenth of a radian off at 1e5 shots: the descent direction is
        # essentially always correct
        steps = _central(np.pi / (8 * N_PROBE))
        at = np.array([THETA_TRUE - 0.1])
        correct = sum(
            _grad(at, _sampled_loss(seed, 100000), steps)[0] < 0 for seed in range(50)
        )
        assert correct >= 48

    def test_gradient_variance_scales_inversely_with_shots(self):
        steps = _central(np.pi / (8 * N_PROBE))
        at = np.array([THETA_TRUE - 0.1])
        variances = []
        for nu in (1000, 10000, 100000):
            gs = [_grad(at, _sampled_loss(seed, nu), steps)[0] for seed in range(300)]
            variances.append(np.var(gs))
        slope = np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)


class TestRunOptimization:
    def test_exact_mode_converges_tightly(self):
        run = _run(
            np.array([0.10]),
            _exact_loss,
            optimizer=OptimizerConfig(decay=0.98, max_epochs=800, tol_conv=0.0),
            schedule=ShotSchedule(exact=True),
            steps=_central(np.pi / (8 * N_PROBE)),
        )
        assert run.status == STATUS_MAX_EPOCHS
        assert abs(run.trace["params"][-1, 0] - THETA_TRUE) < 1e-6
        assert len(run.trace["epoch"]) == 800

    def test_exact_mode_loss_envelope_decreases(self):
        # single-epoch losses oscillate near the floor; the per-window maximum
        # is the meaningful monotone quantity
        run = _run(
            np.array([0.10]),
            _exact_loss,
            optimizer=OptimizerConfig(decay=0.98, max_epochs=800, tol_conv=0.0),
            schedule=ShotSchedule(exact=True),
            steps=_central(np.pi / (8 * N_PROBE)),
        )
        envelopes = [run.trace["loss"][a:b].max() for a, b in ((10, 100), (100, 200), (200, 400), (400, 800))]
        assert all(hi > lo for hi, lo in zip(envelopes, envelopes[1:]))
        assert run.trace["loss"][-1] <= 1e-9

    def test_convergence_status(self):
        run = _run(
            np.array([0.14]),
            _exact_loss,
            optimizer=OptimizerConfig(max_epochs=400, tol_conv=1e-4, window=10),
            schedule=ShotSchedule(exact=True),
            steps=_central(np.pi / 24),
        )
        assert run.status == STATUS_CONVERGED
        assert len(run.trace["epoch"]) < 400

    def test_divergence_detection(self):
        # constant pull with an undecayed, oversized rate walks the angle out
        # of every basin; the run must flag itself rather than raise
        run = _run(
            np.array([0.0]),
            lambda values, nu, label: -values[0],
            optimizer=OptimizerConfig(lr0=0.5, decay=1.0, max_epochs=100, tol_conv=0.0),
            schedule=ShotSchedule(exact=True),
            steps=_central(0.1),
        )
        assert run.status == STATUS_DIVERGED
        assert len(run.trace["epoch"]) == 13
        assert abs(run.trace["params"][-1, 0]) > 2 * np.pi

    def test_zero_budget_still_records_one_epoch(self):
        run = _run(
            np.array([0.1]),
            _exact_loss,
            optimizer=OptimizerConfig(max_epochs=400, tol_conv=0.0, budget_s=0.0),
            schedule=ShotSchedule(exact=True),
            steps=_central(0.1),
        )
        assert len(run.trace["epoch"]) == 1
        assert run.status == STATUS_BUDGET_EXHAUSTED

    def test_trace_shape_and_contiguity(self):
        run = _run(
            np.array([0.1]),
            _exact_loss,
            optimizer=OptimizerConfig(max_epochs=25, tol_conv=0.0),
            schedule=ShotSchedule(exact=True),
            steps=_central(0.1),
        )
        assert run.trace["epoch"].tolist() == list(range(25))
        assert run.trace["params"].shape == (25, 1)
        assert run.trace["shots"].tolist() == [0] * 25  # exact mode records zero shots
        np.testing.assert_allclose(run.trace["lr"], 0.05 * 0.995 ** np.arange(25))

    def test_sampled_mode_is_reproducible(self):
        def make(seed):
            def f(values, nu, label):
                return loss(_raw(values[0]), stream(seed, *label), nu, mode=NORM_PLAIN)

            return f

        kw = dict(
            optimizer=OptimizerConfig(max_epochs=30, tol_conv=0.0),
            schedule=ShotSchedule(2000, 4000, "geometric"),
            steps=_central(np.pi / 24),
        )
        a = _run(np.array([0.1]), make(5), **kw)
        b = _run(np.array([0.1]), make(5), **kw)
        np.testing.assert_array_equal(a.trace["params"], b.trace["params"])
        np.testing.assert_array_equal(a.trace["loss"], b.trace["loss"])
        assert a.trace["shots"][0] == 2000 and a.trace["shots"][-1] == 4000

    def test_non_finite_loss_raises(self):
        with pytest.raises(NumericsError):
            _run(
                np.array([0.1]),
                lambda values, nu, label: float("inf"),
                optimizer=OptimizerConfig(max_epochs=10),
                schedule=ShotSchedule(exact=True),
                steps=_central(0.1),
            )

    def test_phi_stays_clamped(self):
        # push phi hard toward the boundary; the trajectory must never leave
        # the invertible range
        run = _run(
            np.array([0.0, 0.1]),
            lambda values, nu, label: -values[1],
            PHI_BOUNDS,
            optimizer=OptimizerConfig(lr0=0.3, decay=1.0, max_epochs=40, tol_conv=0.0),
            schedule=ShotSchedule(exact=True),
            steps=_central(0.1, 0.05),
        )
        assert np.all(run.trace["params"][:, 1] <= PHI_CLAMP + 1e-15)
        assert np.all(run.trace["params"][:, 1] >= 0.0)

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("h_phi", [0.05, -0.05])
    @pytest.mark.parametrize("phi0", [0.0, PHI_CLAMP])
    def test_loss_closure_sees_phi_only_in_its_bounds(self, phi0, h_phi, sampled):
        # phi starts at an end of its range and the loss pushes it past that end, so one of each
        # gradient shift's sides, and the steps, would leave the range if nothing clipped them
        slope = 1.0 if phi0 == 0.0 else -1.0
        seen = []

        def lossfn(columns, nu, epoch, rows):
            seen.extend(columns[1])
            labels = _labels(epoch, 5)
            return [
                (theta - 0.1) ** 2 + slope * phi + (0.0 if nu is None else stream(3, *labels[j // len(rows)]).normal() / nu)
                for j, (theta, phi) in enumerate(zip(*columns))
            ]

        runs = run_optimization(
            [[0.0, phi0], [0.2, phi0]], lossfn, bounds=PHI_BOUNDS,
            optimizer=OptimizerConfig(lr0=0.1, max_epochs=6, tol_conv=0.0),
            schedule=ShotSchedule(100, 400, "linear") if sampled else ShotSchedule(exact=True),
            steps=_central(0.05, h_phi),
        )
        assert len(seen) == 2 * 5 * 6
        assert all(0.0 <= phi <= PHI_CLAMP for phi in seen)
        assert all(run.trace["params"][-1, 1] == phi0 for run in runs)  # held at its end, not pushed off it


class TestNonFiniteLosses:
    """The epoch's refusals through ``run_optimization`` on 3-row batches, where one row's loss is not finite."""

    @staticmethod
    def _batch(nparams, sampled, bad):
        """Three rows in a bowl at 0.3, with shot noise when ``sampled``; ``bad`` maps (epoch, block, row) to a loss."""

        def lossfn(columns, nu, epoch, rows):
            labels, out = _labels(epoch, 1 + 2 * nparams), []
            for j, row in enumerate(zip(*columns)):
                block, k = divmod(j, len(rows))
                value = sum((x - 0.3) ** 2 for x in row)
                if nu is not None:
                    value += 1e-3 * binomial_fraction(stream(rows[k], *labels[block]), nu, 0.5)
                out.append(bad.get((epoch, block, k), value))
            return out

        return run_optimization(
            np.array([[0.1, 0.2], [0.25, 0.4], [0.5, 0.6]])[:, :nparams],
            lossfn,
            optimizer=OptimizerConfig(max_epochs=10, tol_conv=0.0),
            schedule=ShotSchedule(100, 400, "linear") if sampled else ShotSchedule(exact=True),
            steps=_central(*(0.1, 0.05)[:nparams]),
            bounds=PHI_BOUNDS[:nparams],
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("nparams", [1, 2])
    def test_recorded_loss_is_refused_before_the_gradient(self, nparams, sampled, bad):
        # row 1's recorded loss at epoch 3 is named, though row 2's last shifted loss is not finite either
        with pytest.raises(NumericsError, match=r"^non-finite loss at epoch 3$"):
            self._batch(nparams, sampled, {(3, 0, 1): bad, (3, 2 * nparams, 2): bad})

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("nparams", [1, 2])
    def test_shifted_loss_names_its_parameter(self, nparams, sampled, bad, side):
        # only row 2's up (side 1) or down (side 2) shift of the last parameter, at epoch 3
        last = nparams - 1
        with pytest.raises(NumericsError, match=rf"^non-finite loss in gradient evaluation at parameter {last}$"):
            self._batch(nparams, sampled, {(3, 2 * last + side, 2): bad})

    @pytest.mark.parametrize("sampled", [False, True])
    def test_parameters_are_checked_in_order(self, sampled):
        # row 0's shift of parameter 1 and row 2's of parameter 0: parameter 0 is named
        with pytest.raises(NumericsError, match=r"^non-finite loss in gradient evaluation at parameter 0$"):
            self._batch(2, sampled, {(3, 3, 0): float("nan"), (3, 2, 2): float("inf")})


class TestEpochEvaluator:
    def test_the_optimizer_names_no_stream(self):
        # the loss closure owns its draws: vista.optimize imports nothing from vista.rng, so it builds no label
        tree = ast.parse(inspect.getsource(optimize))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        assert "numpy" in imported and not any(name and name.split(".")[-1] == "rng" for name in imported)

    def test_one_loss_call_per_epoch_on_the_documented_schedule(self):
        # rows leave one by one; each epoch makes one call on the live rows and their shifts, with its epoch
        calls = []

        def lossfn(columns, nu, epoch, rows):
            calls.append(([list(column) for column in columns], nu, epoch, list(rows)))
            return TestLockstep._loss(columns, nu, epoch, rows)

        steps = [0.1, 0.05]
        schedule = ShotSchedule(100, 400, "linear")
        optimizer = OptimizerConfig(lr0=0.5, decay=1.0, max_epochs=100, tol_conv=1e-4, window=5)
        # row 0 starts at theta = -0.0, which its unshifted copies must keep
        starts = np.array([[-0.0, 0.2], [0.25, -0.1], [0.5, 0.3]])
        runs = run_optimization(starts, lossfn, optimizer=optimizer, schedule=schedule, steps=_central(*steps),
                                bounds=[None, None])
        assert len(calls) == max(len(run.trace["epoch"]) for run in runs)
        assert len({len(rows) for *_, rows in calls}) == 3  # every row leaves at its own epoch
        for epoch, (columns, nu, called_at, rows) in enumerate(calls):
            assert called_at == epoch
            assert nu == schedule.shots_at(epoch, optimizer.max_epochs)
            live = [r for r, run in enumerate(runs) if len(run.trace["epoch"]) > epoch]
            assert rows == live
            assert all(type(x) is float for column in columns for x in column)
            # the schedule: each live row at its pre-update point, then shifted up and down in each parameter
            expected = []
            for block, (i, sign) in enumerate([(0, 0), (0, 1), (0, -1), (1, 1), (1, -1)]):
                for r in live:
                    point = [float(x) for x in (starts[r] if epoch == 0 else runs[r].trace["params"][epoch - 1])]
                    point[i] = point[i] + steps[i] if sign > 0 else point[i] - steps[i] if sign < 0 else point[i]
                    expected.append((r, block, [x.hex() for x in point]))  # hex tells -0.0 from 0.0
            # row j of block k is row rows[j]
            received = [(rows[j % len(rows)], j // len(rows), [x.hex() for x in row])
                        for j, row in enumerate(zip(*columns))]
            assert received == expected
        # the unshifted copies of row 0 at epoch 0: its loss row and its two theta2 shifts
        assert [calls[0][0][0][k * 3].hex() for k in (0, 3, 4)] == [(-0.0).hex()] * 3


class TestLockstep:
    _KW = dict(
        optimizer=OptimizerConfig(lr0=0.5, decay=1.0, max_epochs=100, tol_conv=1e-4, window=5),
        schedule=ShotSchedule(exact=True),
        steps=_central(0.1),
        bounds=[None],
    )

    @staticmethod
    def _loss(columns, nu, epoch, rows):
        # row 0 is pulled off every basin, row 1 sits on a plateau, row 2 circles a bowl at 0.3
        x, rows = np.array(columns[0]), np.tile(rows, len(columns[0]) // len(rows))
        return np.select([rows == 0, rows == 1], [-x, np.zeros_like(x)], (x - 0.3) ** 2).tolist()

    def test_rows_stop_one_by_one_as_if_alone(self):
        starts = np.array([[0.0], [0.25], [0.5]])
        batch = run_optimization(starts, self._loss, **self._KW)
        assert [r.status for r in batch] == [STATUS_DIVERGED, STATUS_CONVERGED, STATUS_MAX_EPOCHS]
        assert len({len(r.trace["epoch"]) for r in batch}) == 3
        for r, run in enumerate(batch):
            alone = run_optimization(
                starts[r : r + 1], lambda v, nu, epoch, rows, _r=r: self._loss(v, nu, epoch, [q + _r for q in rows]),
                **self._KW,
            )[0]
            assert run.status == alone.status
            assert list(run.trace) == list(alone.trace)
            for key in run.trace:
                np.testing.assert_array_equal(run.trace[key], alone.trace[key])

    def test_trace_memory_follows_the_epochs_run(self):
        # both rows stop within a few dozen epochs, so max_epochs must not size the trace buffers
        kw = dict(self._KW, optimizer=OptimizerConfig(lr0=0.5, decay=1.0, max_epochs=10**5, tol_conv=1e-3, window=5))
        tracemalloc.start()
        try:
            batch = run_optimization(np.array([[0.0], [0.25]]), self._loss, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.status for r in batch] == [STATUS_DIVERGED, STATUS_CONVERGED]
        assert max(len(r.trace["epoch"]) for r in batch) < 100
        assert peak < 2**20

    def test_grad_norm_is_the_row_norm_to_the_bit(self):
        # with two parameters the norm is the square root of the squares added from left to right,
        # with no BLAS dot, whose kernel may fuse a multiply-add
        def f(values, nu, label):
            return np.sin(3 * values[0]) * np.cos(2 * values[1]) + 0.1 * values[0] * values[1]

        steps = _central(0.07, 0.05)
        starts = np.random.default_rng(3).uniform(-1, 1, size=(7, 2))
        runs = run_optimization(
            starts,
            _rowwise(f),
            bounds=[None, None],
            optimizer=OptimizerConfig(max_epochs=20, tol_conv=0.0),
            schedule=ShotSchedule(exact=True),
            steps=steps,
        )
        for start, run in zip(starts, runs):
            before = np.vstack([start, run.trace["params"][:-1]])
            grads = [_grad(b, lambda v, label: f(v, None, label), steps).tolist() for b in before]
            norms = [math.sqrt(g0 * g0 + g1 * g1) for g0, g1 in grads]
            assert run.trace["grad_norm"].tolist() == norms


class TestNumpyOracle:
    """The Python-float epoch against the numpy epoch of ``numpy_epoch``: the status and every trace column to the bit."""

    _COLUMNS = ("epoch", "loss", "params", "grad_norm", "shots", "lr")

    @staticmethod
    def _loss(seed, crn, first=0):
        # rows are numbered from ``first``, which sets a one-row batch's kind
        def lossfn(columns, nu, epoch, rows):
            labels = _labels(epoch, len(columns[0]) // len(rows), crn)
            block, r = np.array(columns).T, np.tile(rows, len(labels)) + first
            x = block[:, 0]
            # row kind 0 is pulled off every basin, kind 1 climbs to a plateau at its own height, kind 2 circles a bowl
            kind = r % 3
            out = np.select([kind == 0, kind == 1], [-x, -np.minimum(x, 0.2 + 0.05 * r)], (x - 0.3) ** 2)
            if block.shape[1] == 2:
                out = out + np.where(r % 2 == 0, -0.3, 0.3) * block[:, 1]  # phi pushed up on even rows, down on odd
            if nu is not None:  # shots from each row's own stream under the block's label
                gens = [stream(seed + int(q), *labels[j // len(rows)]) for j, q in enumerate(r)]
                out = out + 1e-3 * np.array([binomial_fraction(gen, nu, 0.5) for gen in gens])
            return out.tolist()

        return lossfn

    def _both(self, seed, nparams, method=GRAD_CENTRAL, crn=False, sampled=True, budget_s=600.0, nrows=None, first=0):
        rng = np.random.default_rng([seed, nparams])
        drawn = int(rng.integers(5, 13))  # drawn either way, so the starts keep their draws
        nrows = drawn if nrows is None else nrows
        starts = rng.uniform(0.0, 0.3, size=(nrows, nparams))
        if nparams == 2:
            starts[:, 1] = rng.uniform(0.0, 1.5, size=nrows)
        kw = dict(
            optimizer=OptimizerConfig(lr0=1.0, decay=0.95, max_epochs=85, tol_conv=1e-4, window=8, budget_s=budget_s),
            schedule=ShotSchedule(100, 400, "linear") if sampled else ShotSchedule(exact=True),
            steps=_steps(method, 0.1, 0.05, ("theta", "phi")[:nparams], [6.0, 0.0][:nparams]),
            bounds=PHI_BOUNDS[:nparams],
        )
        runs = run_optimization(starts, self._loss(seed, crn, first), **kw)
        for run, ref in zip(runs, numpy_epoch.run_optimization(starts, self._loss(seed, crn, first), **kw), strict=True):
            assert run.status == ref.status
            assert tuple(run.trace) == tuple(ref.trace) == self._COLUMNS
            for key in self._COLUMNS:
                got, want = run.trace[key], ref.trace[key]
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), key
        return runs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("crn", [False, True])
    @pytest.mark.parametrize("method", GRAD_METHODS)
    @pytest.mark.parametrize("nparams", [1, 2])
    def test_sampled_batches_match_to_the_bit(self, nparams, method, crn, seed):
        runs = self._both(seed, nparams, method, crn)
        # rows diverge, converge and run out of epochs in one batch, so the live set shrinks twice
        stops = {run.status: set() for run in runs}
        for run in runs:
            stops[run.status].add(len(run.trace["epoch"]))
        assert set(stops) == {STATUS_DIVERGED, STATUS_CONVERGED, STATUS_MAX_EPOCHS}
        assert max(stops[STATUS_DIVERGED]) < min(stops[STATUS_CONVERGED]) <= max(stops[STATUS_CONVERGED]) < 85
        if nparams == 2:  # phi held at both ends of its range
            phis = np.concatenate([run.trace["params"][:, 1] for run in runs])
            assert phis.min() == 0.0 and phis.max() == PHI_CLAMP

    @pytest.mark.parametrize("sampled", [True, False])
    @pytest.mark.parametrize("method", GRAD_METHODS)
    @pytest.mark.parametrize("nparams", [1, 2])
    def test_one_row_batches_match_to_the_bit(self, nparams, method, sampled):
        # a single run is a one-row batch; its row's kind decides how it stops
        runs = [run for kind in range(3) for seed in (6, 7)
                for run in self._both(seed, nparams, method, sampled=sampled, nrows=1, first=kind)]
        assert {run.status for run in runs} == {STATUS_DIVERGED, STATUS_CONVERGED, STATUS_MAX_EPOCHS}

    @pytest.mark.parametrize("nparams", [1, 2])
    def test_exact_batches_match_to_the_bit(self, nparams):
        self._both(4, nparams, sampled=False)

    def test_zero_budget_matches_to_the_bit(self):
        runs = self._both(5, 2, budget_s=0.0)
        assert {(run.status, len(run.trace["epoch"])) for run in runs} == {(STATUS_BUDGET_EXHAUSTED, 1)}
