import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinoeqc.labeling import (
    DEFAULT_PERM_ORDER,
    EQUALIZATION_TOL,
    EffectivePureResult,
    GROUND_TIE_RTOL,
    LabelingPlan,
    SINGULARITY_RTOL,
    SingularLabelingSystem,
    UnequalizedLabeling,
    assemble_effective_pure,
    choose_ground,
    _labeled,
    _result,
    enhancement_factor,
    label,
    label_row,
    permute_populations,
    solve_weights,
)
from spinoeqc import labeling
from spinoeqc.spins import PermutationId, cycle_source_indices

THERMAL = np.array([2.5, 1.5, -1.5, -2.5])
ENHANCED = np.array([-13.0, -31.0, 31.0, 13.0])
# enhancements (-11,18), (-8,13), (-6,9) at gamma ratio 4
DECAYING = [
    np.array([-13.0, -31.0, 31.0, 13.0]),
    np.array([-9.5, -22.5, 22.5, 9.5]),
    np.array([-7.5, -16.5, 16.5, 7.5]),
]


def solve_weights_oracle(diags, ground):
    """Independent route: build both equalization rows explicitly and solve
    the 3x3 system by Cramer's rule."""
    ng = [i for i in range(4) if i != ground]
    perm_tables = {
        PermutationId.IDENTITY: list(range(4)),
        PermutationId.CYCLE: None,
        PermutationId.CYCLE2: None,
    }
    cyc = list(range(4))
    cyc[ng[1]], cyc[ng[2]], cyc[ng[0]] = ng[0], ng[1], ng[2]
    cyc2 = list(range(4))
    cyc2[ng[2]], cyc2[ng[0]], cyc2[ng[1]] = ng[0], ng[1], ng[2]
    perm_tables[PermutationId.CYCLE] = cyc
    perm_tables[PermutationId.CYCLE2] = cyc2
    v = [
        np.array([d[t[j]] for j in range(4)])
        for d, t in zip(diags, (perm_tables[p] for p in DEFAULT_PERM_ORDER))
    ]
    a = np.array(
        [
            [v[i][ng[0]] - v[i][ng[1]] for i in range(3)],
            [v[i][ng[1]] - v[i][ng[2]] for i in range(3)],
            [1.0, 0.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])

    def det3(m):
        return (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )

    d = det3(a)
    w = np.empty(3)
    for i in range(3):
        ai = a.copy()
        ai[:, i] = b
        w[i] = det3(ai) / d
    return w


class TestPermutePopulations:
    def test_identity(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        assert_allclose(permute_populations(d, PermutationId.IDENTITY, 0), d)

    def test_cycle_ground_00_worked_case(self):
        d = np.array([-9.5, -22.5, 22.5, 9.5])
        out = permute_populations(d, PermutationId.CYCLE, 0)
        assert_allclose(out, [-9.5, 9.5, -22.5, 22.5])

    def test_cycle_then_inverse_restores(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            d = rng.normal(size=4)
            g = rng.integers(0, 4)
            out = permute_populations(
                permute_populations(d, PermutationId.CYCLE, g), PermutationId.CYCLE2, g
            )
            assert_allclose(out, d)

    def test_multiset_and_ground_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            d = rng.normal(size=4)
            g = int(rng.integers(0, 4))
            p = rng.choice(list(PermutationId))
            out = permute_populations(d, p, g)
            assert out[g] == d[g]
            assert_allclose(np.sort(out), np.sort(d))


class TestSolveWeights:
    def test_identical_thermal_inputs_give_unit_weights(self):
        plan = LabelingPlan(ground=0)
        w, residual = solve_weights([THERMAL] * 3, plan)
        assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-13)
        assert residual < 1e-12

    def test_decaying_triple_matches_cramer_oracle(self):
        plan = LabelingPlan(ground=0)
        w, residual = solve_weights(DECAYING, plan)
        assert_allclose(w, solve_weights_oracle(DECAYING, 0), atol=1e-10)
        assert_allclose(w, [1.0, 550.0 / 391.0, 738.0 / 391.0], atol=1e-12)
        assert residual < 1e-10

    def test_scale_invariance_first_weight_one(self):
        plan = LabelingPlan(ground=0)
        w_ref, _ = solve_weights(DECAYING, plan)
        for lam in (1e-100, 0.37, 3.0, 120.0, 1e12, 1e150):
            w, _ = solve_weights([lam * d for d in DECAYING], plan)
            assert_allclose(w, w_ref, atol=1e-10)

    def test_negative_weights_are_reported_not_rejected(self):
        diags = [
            np.array([-3.0, 1.0, 3.0, -3.0]),
            np.array([-2.0, 4.0, 1.0, 0.0]),
            np.array([2.0, 0.0, 5.0, 3.0]),
        ]
        w, residual = solve_weights(diags, LabelingPlan(ground=0))
        assert_allclose(w, [1.0, -1.0, -1.0], atol=1e-12)
        assert residual < 1e-12
        res = assemble_effective_pure(diags, LabelingPlan(ground=0), w)
        assert_allclose(res.diagonal, [-3.0, -4.0, -4.0, -4.0], atol=1e-12)
        assert res.q2 == pytest.approx(1.0)

    def test_singular_system_raises(self):
        with pytest.raises(SingularLabelingSystem):
            solve_weights([np.zeros(4)] * 3, LabelingPlan(ground=0))

    def test_input_shape_validation(self):
        with pytest.raises(ValueError):
            solve_weights([THERMAL] * 2, LabelingPlan(ground=0))


def label_batch(diags) -> list:
    """`label_row` of each (experiment, state) row of `diags`: what a
    preparation labels, row by row."""
    return [label_row(x) for x in np.asarray(diags, dtype=float).reshape(-1, 12).tolist()]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 3)])
def test_non_finite_diagonals_are_rejected_everywhere(bad, entry):
    # a NaN outside a ground's 2x2 system once passed its singularity bound,
    # so `label` blamed a finite system and `solve_weights` returned NaN
    # weights; every entry point now refuses it, with no warning
    diags = np.array([[1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 2.0, 0.0]])
    diags[entry] = bad
    calls = (
        lambda: label(diags),
        lambda: label_batch([DECAYING, diags]),
        lambda: label_row(diags.ravel().tolist()),
        lambda: solve_weights(diags, LabelingPlan(ground=1)),
        lambda: assemble_effective_pure(diags, LabelingPlan(ground=1), [1.0, 1.0, 1.0]),
        lambda: choose_ground(diags),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="diagonals must be finite"):
                call()


def test_each_row_is_checked_finite_once(monkeypatch):
    # `_finite`, the one rule, runs once per row on every path: `label`
    # checks its row whole before it is labeled, `label_row` the row it is
    # handed
    checked = []

    def counting(x):
        checked.append(len(x))
        return finite(x)

    finite = labeling._finite
    monkeypatch.setattr(labeling, "_finite", counting)
    diags = [THERMAL, THERMAL * 1.5, THERMAL * 2.0]
    row = np.array(diags).ravel().tolist()
    result = label(diags)
    assert checked == [12]
    label_batch([diags, diags, diags])
    assert checked == [12] * 4
    label_row(row)
    assert checked == [12] * 5
    assemble_effective_pure(diags, LabelingPlan(ground=result.ground), result.weights)
    assert checked == [12] * 6


class TestAssemble:
    def test_thermal_triple_closed_form(self):
        plan = LabelingPlan(ground=0)
        res = assemble_effective_pure([THERMAL] * 3, plan, [1.0, 1.0, 1.0])
        assert_allclose(res.diagonal, [7.5, -2.5, -2.5, -2.5], atol=1e-13)
        assert res.q1 == pytest.approx(-2.5)
        assert res.q2 == pytest.approx(10.0)
        assert res.residual < 1e-13

    def test_enhanced_triple_ground_10(self):
        plan = LabelingPlan(ground=2)
        res = assemble_effective_pure([ENHANCED] * 3, plan, [1.0, 1.0, 1.0])
        assert res.diagonal[2] == pytest.approx(93.0)
        assert_allclose(res.diagonal[[0, 1, 3]], [-31.0, -31.0, -31.0])
        assert res.q2 == pytest.approx(124.0)

    def test_diagonal_and_weights_are_views_of_one_read_only_copy(self):
        diagonal, weights = [1.5, -0.5, -0.5, -0.5], np.array([1.0, 2.0, 3.0])
        res = EffectivePureResult(diagonal, weights, 0, -0.5, 2.0, 0.0, True)
        assert res.diagonal.tolist() == diagonal and res.weights.tolist() == [1.0, 2.0, 3.0]
        assert res.diagonal.base is res.weights.base
        assert not np.shares_memory(res.weights, weights)
        for array in (res.diagonal, res.weights):
            assert array.dtype == float
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_all_zero_inputs_give_zero_q2(self):
        res = assemble_effective_pure(
            [np.zeros(4)] * 3, LabelingPlan(ground=0), [1.0, 1.0, 1.0]
        )
        assert res.q2 == 0.0

    def test_unequalized_weights_warn(self):
        with pytest.warns(UserWarning, match="not equalized") as caught:
            assemble_effective_pure(DECAYING, LabelingPlan(ground=0), [1.0, 1.0, 1.0])
        # the warning points at the caller
        assert caught[0].filename == __file__

    def test_label_warnings_point_at_the_caller(self):
        # a near-singular system whose returned ground is not equalized
        diags = [[-1.0 + 2e-9, 1.0, -3.0, 1.0], [1.0, 1.0, -3.0, -1.0], [-3.0, 5.0, -1.0, 5.0]]
        for call in (lambda: label(diags), lambda: label_row(np.ravel(diags).tolist())):
            with pytest.warns(UnequalizedLabeling, match="not equalized") as caught:
                assert call().ground == 2
            assert caught[0].filename == __file__

    def test_identical_inputs_reduce_to_plain_averaging(self):
        rng = np.random.default_rng(4)
        d = rng.normal(size=4)
        d -= d.mean()
        plan = LabelingPlan(ground=1)
        w, _ = solve_weights([d] * 3, plan)
        assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-10)
        res = assemble_effective_pure([d] * 3, plan, w)
        brute = sum(
            permute_populations(d, p, 1) for p in DEFAULT_PERM_ORDER
        )
        assert_allclose(res.diagonal, brute, atol=1e-12)


class TestChooseGround:
    def test_thermal_prefers_upright_ground_00(self):
        assert choose_ground([THERMAL] * 3) == 0

    def test_enhanced_prefers_upright_ground_10(self):
        assert choose_ground([ENHANCED] * 3) == 2

    def test_decaying_single_sample_ground(self):
        assert choose_ground(DECAYING) == 2

    def test_degenerate_inputs_raise(self):
        with pytest.raises(SingularLabelingSystem):
            choose_ground([np.zeros(4)] * 3)


class TestEnhancementFactor:
    def _result(self, diags, ground):
        plan = LabelingPlan(ground=ground)
        w, _ = solve_weights(diags, plan)
        return assemble_effective_pure(diags, plan, w)

    def test_demonstration_ceiling(self):
        enh = self._result([ENHANCED] * 3, 2)
        ref = self._result([THERMAL] * 3, 0)
        assert enhancement_factor(enh, ref) == pytest.approx(12.4, abs=1e-12)

    def test_self_comparison_is_unity(self):
        ref = self._result([THERMAL] * 3, 0)
        assert enhancement_factor(ref, ref) == pytest.approx(1.0, abs=1e-15)

    def test_weight_normalization_matters(self):
        # unequal-weight case must be rescaled to sum 3 before comparison
        enh = self._result(DECAYING, 2)
        ref = self._result([THERMAL] * 3, 0)
        factor = enhancement_factor(enh, ref)
        assert factor == pytest.approx(abs(enh.q2) * 3 / enh.weights.sum() / 10.0)

    def test_zero_reference_rejected(self):
        ref = assemble_effective_pure(
            [np.zeros(4)] * 3, LabelingPlan(ground=0), [1.0, 1.0, 1.0]
        )
        enh = self._result([THERMAL] * 3, 0)
        with pytest.raises(ValueError):
            enhancement_factor(enh, ref)


class TestPlanValidation:
    def test_ground_bounds(self):
        with pytest.raises(ValueError):
            LabelingPlan(ground=4)

    def test_perm_order_is_the_methods(self):
        with pytest.raises(TypeError):
            LabelingPlan(ground=0, perms=(PermutationId.CYCLE, PermutationId.CYCLE))
        assert LabelingPlan(ground=1).perms == DEFAULT_PERM_ORDER


def labeled_results(diags):
    """Per ground the result of `_labeled`, or the SingularLabelingSystem
    that `_result` raises for it."""
    row = np.asarray(diags, dtype=float).ravel().tolist()
    results = []
    for ground in range(4):
        try:
            results.append(_result(_labeled(row, ground), ground))
        except SingularLabelingSystem as exc:
            results.append(exc)
    return results


def label_by_loop(diags):
    """Reference `label`: every ground of `_labeled` scored in turn.
    Returns the chosen result (or the SingularLabelingSystem raised) and the
    number of equalization warnings due: 1 if the chosen sum is not
    equalized, else 0."""
    scores = []
    for result in labeled_results(diags):
        if isinstance(result, SingularLabelingSystem):
            continue
        try:
            scores.append((result, result.normalized_q2()))
        except SingularLabelingSystem:
            continue
    best_abs = max((abs(q2) for _, q2 in scores), default=0.0)
    if best_abs == 0.0:
        return SingularLabelingSystem("every candidate ground yields q2 = 0"), 0
    tied = [(r, q2) for r, q2 in scores if abs(q2) >= best_abs * (1 - GROUND_TIE_RTOL)]
    tied.sort(key=lambda item: (item[1] <= 0, item[0].ground))
    best = tied[0][0]
    tol = EQUALIZATION_TOL * max(np.abs(best.diagonal).max(), 1e-300)
    return best, int(best.residual > tol)


def enhanced_deviation(eps_h, eps_c, gamma_ratio=4.0):
    """Deviation diagonal of an enhanced state: sign-mirror ties between grounds."""
    z_h, z_c = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    return 0.5 * (eps_h * gamma_ratio * z_h + eps_c * z_c)


# small integers give all-zero, rank-deficient and tied inputs often
SMALL_INTEGERS = st.lists(st.integers(-2, 2).map(float), min_size=4, max_size=4)
REALS = st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4)
ENHANCEMENTS = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)).map(
    lambda eps: list(enhanced_deviation(*eps))
)
DIAGONALS = st.one_of(
    st.lists(SMALL_INTEGERS, min_size=3, max_size=3),
    st.lists(REALS, min_size=3, max_size=3),
    st.lists(ENHANCEMENTS, min_size=3, max_size=3),
    ENHANCEMENTS.map(lambda d: [d] * 3),
    st.just([[0.0] * 4] * 3),
)


# the tables of the gather form of `_labeled`'s arithmetic below
GATHER_SOURCES = np.array(
    [[cycle_source_indices(p, g) for p in DEFAULT_PERM_ORDER] for g in range(4)]
)
GATHER_NONGROUND = np.array([[i for i in range(4) if i != g] for g in range(4)])
GATHER_EXPERIMENTS = np.arange(3)
GATHER_TERMS = np.take_along_axis(
    GATHER_SOURCES, GATHER_NONGROUND[:, None, :], axis=2
).swapaxes(1, 2)
GATHER_ROWS = np.arange(4)[:, None]
GATHER_ORDER = np.concatenate((GATHER_ROWS, GATHER_NONGROUND), axis=1)


def labeled_by_gathers(diags, weights=None):
    """Reference `_labeled`, over arrays of (experiment, state) rows and
    all four grounds at once: the same arithmetic, with every permutation a
    two-array gather over (experiment, state) and the cross product's
    cyclic neighbours gathered from the equalization rows."""
    ds = np.asarray(diags, dtype=float)
    e = GATHER_EXPERIMENTS
    permuted = ds[..., e[:, None], GATHER_SOURCES]
    if weights is None:
        a = ds[..., e, GATHER_TERMS[:, :2]] - ds[..., e, GATHER_TERMS[:, 1:]]
        nxt, prv = a[..., [1, 2, 0]], a[..., [2, 0, 1]]
        with np.errstate(all="ignore"):
            c = nxt[..., 0, :] * prv[..., 1, :] - prv[..., 0, :] * nxt[..., 1, :]
            m = a[..., 1:]
            w = c / c[..., :1]
            # a weight that is not finite makes the system singular too
            singular = ~(np.abs(c[..., 0]) > SINGULARITY_RTOL * (m * m).sum(axis=(-2, -1)))
            singular |= ~np.isfinite(w).all(axis=-1)
        w[singular] = 0.0
    else:
        a, singular = None, np.zeros(permuted.shape[:-2], dtype=bool)
        w = np.broadcast_to(np.asarray(weights, dtype=float), singular.shape + (3,))
    diagonal = (w[..., None] * permuted).sum(axis=-2)
    ordered = diagonal[..., GATHER_ROWS, GATHER_ORDER]
    ng = ordered[..., 1:]
    q1 = ng.sum(axis=-1) / 3
    q2 = ordered[..., 0] - q1
    residual = ng.max(axis=-1) - ng.min(axis=-1)
    return diagonal, w, q1, q2, residual, a, singular


def labeled_by_rows(diags, weights=None):
    """`_labeled` of every row of `diags` on every ground, its seven outputs
    stacked as the reference's arrays (None where the weights are given)."""
    ds = np.asarray(diags, dtype=float)
    w = None if weights is None else np.asarray(weights, dtype=float).tolist()
    labeled = [_labeled(row, g, w) for row in ds.reshape(-1, 12).tolist() for g in range(4)]
    stacked = []
    for values in zip(*labeled, strict=True):
        if values[0] is None:
            stacked.append(None)
        else:
            a = np.array(values)
            stacked.append(a.reshape(ds.shape[:-2] + (4,) + a.shape[1:]))
    return tuple(stacked)


def assert_labeled_like_the_gathers(diags, weights=None):
    """All seven outputs of `_labeled` equal the reference's bit for bit (NaN
    equal to NaN whatever its sign, and a zero's sign kept)."""
    with np.errstate(all="ignore"):
        got, want = labeled_by_rows(diags, weights), labeled_by_gathers(diags, weights)
    for name, x, y in zip(LABELED_OUTPUTS, got, want, strict=True):
        if y is None:
            assert x is None, name
        else:
            assert x.shape == y.shape and np.array_equal(x, y, equal_nan=True), name
            numbers = ~np.isnan(y)
            assert np.array_equal(np.signbit(x[numbers]), np.signbit(y[numbers])), name


LABELED_OUTPUTS = ("diagonal", "weights", "q1", "q2", "residual", "rows", "singular")


def generated_rows(n, seed):
    """n (experiment, state) rows: normals at scales from 1e-300 to 1e200,
    small integers (rank-deficient and tied rows) and sign-mirror rows."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-300, 201, n)
    rows = rng.standard_normal((n, 3, 4)) * scales[:, None, None]
    rows[::3] = rng.integers(-2, 3, (len(rows[::3]), 3, 4))
    rows[1::5] = enhanced_deviation(*rng.uniform(-20.0, 20.0, 2))
    return rows


class TestBatchedLabeling:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(diags=DIAGONALS)
    def test_batch_equals_a_loop_over_grounds(self, diags):
        for ground, got in enumerate(labeled_results(diags)):
            if isinstance(got, SingularLabelingSystem):
                assert str(got).startswith(f"weight system is singular for ground {ground}: ")
                with pytest.raises(SingularLabelingSystem, match=re.escape(str(got))):
                    solve_weights(diags, LabelingPlan(ground))
                continue
            assert got.ground == ground
            # solve_weights reads the row of its plan's ground
            w, residual = solve_weights(diags, LabelingPlan(ground))
            assert np.array_equal(got.weights, w) and got.residual == residual
            # the null vector solves the 3x3 system of that ground
            assert_allclose(got.weights, solve_weights_oracle(diags, ground), rtol=1e-6, atol=1e-9)

        want, unequalized = label_by_loop(diags)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if isinstance(want, SingularLabelingSystem):
                with pytest.raises(SingularLabelingSystem, match=str(want)):
                    label(diags)
            else:
                got = label(diags)
                assert got.ground == want.ground and got.q2 == want.q2
                assert np.array_equal(got.weights, want.weights)
        assert sum("not equalized" in str(w.message) for w in caught) == unequalized

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stack=st.lists(DIAGONALS, min_size=1, max_size=6))
    def test_a_batch_labels_each_row_as_label_does_alone(self, stack):
        def outcome(call):
            """What `call` returns or raises, and its equalization warnings."""
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = call()
                except SingularLabelingSystem as exc:
                    out = exc
            return out, sum(issubclass(w.category, UnequalizedLabeling) for w in caught)

        batch, warned = outcome(lambda: label_batch(stack))
        alone = [outcome(lambda diags=diags: label(diags)) for diags in stack]
        assert warned == sum(n for _, n in alone)
        for got, (want, _) in zip(batch, alone, strict=True):
            if isinstance(want, SingularLabelingSystem):
                assert isinstance(got, SingularLabelingSystem) and str(got) == str(want)
                continue
            assert got.ground == want.ground
            assert np.float64(got.q2).tobytes() == np.float64(want.q2).tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.diagonal.tobytes() == want.diagonal.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(diags=DIAGONALS)
    def test_flat_gathers_keep_the_bits(self, diags):
        assert_labeled_like_the_gathers(diags)
        assert_labeled_like_the_gathers(diags, [1.0, 0.5, -0.25])

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_flat_gathers_keep_the_bits_of_a_batch(self, n):
        assert_labeled_like_the_gathers(generated_rows(n, seed=n))

    @pytest.mark.parametrize(
        "diags",
        [
            [[0.0] * 4] * 3,
            [[2.0] * 4] * 3,
            [[1e200, -1e200, 3e199, 0.0], [0.0, 1e200, -2e200, 5e199], [1e200, 0.0, 1e199, -1e200]],
            [[1e308, -1e308, 0.0, 1.0], [-1e308, 1e308, 1.0, 0.0], [1e308, 0.0, -1e308, 2.0]],
            [[np.nan, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 2.0, 0.0]],
            [[np.inf, 1.0, -1.0, 0.0], [1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 2.0, 0.0]],
        ],
        ids=["zero", "constant", "overflowing", "overflowing-rows", "nan", "inf"],
    )
    def test_flat_gathers_keep_the_bits_of_a_degenerate_c0(self, diags):
        # c_0 zero, overflowing or NaN: the bound fails and the weights are 0
        with np.errstate(all="ignore"):
            assert labeled_by_gathers(diags)[-1].any()
        assert_labeled_like_the_gathers(diags)

    def test_weights_past_the_float_range_are_singular(self):
        # experiment 1 lies 1e310 above the others: c_0 (experiments 2 and 3)
        # passes its bound, but c / c_0 overflows on grounds 1-3, which are
        # singular with zero weights; ground 0's weights are finite
        diags = [[3e300, -1e300, -1e300, -1e300], [1e-10, 2e-10, -5e-10, 2e-10],
                 [4e-10, -1e-10, -2e-10, -1e-10]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = labeled_results(diags)
            assert label(diags).ground == 0
        assert [isinstance(r, SingularLabelingSystem) for r in results] == [False, True, True, True]
        assert np.isfinite(results[0].weights).all() and results[0].q2 == 4e300
        assert_labeled_like_the_gathers(diags)

    def test_label_warns_only_about_the_ground_it_returns(self):
        # ground 1's near-singular system leaves its sum unequalized, but
        # label returns ground 2, whose sum is equalized; grounds 0 and 3
        # are singular
        diags = [[1e-9, 2.0, -3.0, -3.0], [0.0, -3.0, 2.0, 0.0], [3.0, -2.0, 0.0, 3.0]]
        results = labeled_results(diags)
        assert isinstance(results[0], SingularLabelingSystem)
        assert isinstance(results[3], SingularLabelingSystem)
        assert results[1].residual > EQUALIZATION_TOL * np.abs(results[1].diagonal).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert label(diags).ground == 2

    def test_label_batch_runs_no_linear_algebra_routine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the weights have a closed form")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        (result,) = label_batch([DECAYING])
        assert_allclose(result.weights, solve_weights_oracle(DECAYING, result.ground), rtol=1e-12)

    def test_label_builds_only_the_result_it_returns(self, monkeypatch):
        init, built = EffectivePureResult.__post_init__, []

        def counting_init(self):
            built.append(self.ground)
            init(self)

        monkeypatch.setattr(EffectivePureResult, "__post_init__", counting_init)
        result = label(DECAYING)
        assert built == [result.ground]

    def test_singular_grounds_carry_their_system(self):
        results = labeled_results([np.zeros(4)] * 3)
        assert all(isinstance(r, SingularLabelingSystem) for r in results)
        assert [str(r).split(":")[0] for r in results] == [
            f"weight system is singular for ground {g}" for g in range(4)
        ]

    def test_sign_mirror_tie_prefers_the_upright_ground(self):
        # ENHANCED ties grounds 1 and 2 in |q2| with opposite signs
        scores = {r.ground: r.normalized_q2() for r in labeled_results([ENHANCED] * 3)}
        assert scores[1] == pytest.approx(-scores[2])
        assert label([ENHANCED] * 3).ground == 2


def row_of(permuted, ground):
    """The row (experiment * 4 + state) whose populations `_labeled` gathers
    on `ground` as `permuted`: per experiment the ground population, then
    those its permutation moves into each non-ground state, in state order."""
    states = (ground, *(s for s in range(4) if s != ground))
    row = [0.0] * 12
    for e, perm in enumerate(DEFAULT_PERM_ORDER):
        source = cycle_source_indices(perm, ground)
        for value, state in zip(permuted[4 * e:4 * e + 4], states):
            row[4 * e + source[state]] = value
    return row


@st.composite
def near_singular_rows(draw):
    """A ground and a row of three diagonals whose weight system on it is
    near-singular: |c₀| is a fraction ρ of ‖M‖²_F, with ρ drawn from
    10^-11.7..1e-6, just above SINGULARITY_RTOL up to about 1e-6.

    Built in `_labeled`'s gathered order: each experiment's non-ground
    populations (b + q + p, b + q, b) have the column (p, q) of the rows
    r0 and r1, and its ground population stands ~4 above b, so that the
    ground scores highest. M's columns are experiments 1 and 2: a unit u
    and u + 2ρ·v for v = ±u turned by 90°, so c₀ = ±2ρ and ‖M‖²_F =
    2 + 4ρ²; the two experiments share b and the ground population, so the
    weighted sum cancels to O(1) under weights of order 1/ρ. The row is
    scaled by 10^-100..10^100."""
    ground = draw(st.integers(0, 3))
    rho = 10.0 ** draw(st.floats(-11.7, -6.0))
    theta = draw(st.floats(0.0, 2 * np.pi))
    turn = draw(st.sampled_from([-1.0, 1.0]))
    u = (np.cos(theta), np.sin(theta))
    v = (-turn * u[1], turn * u[0])
    unit = st.floats(-1.0, 1.0)
    columns = [(draw(unit), draw(unit)), u, (u[0] + 2 * rho * v[0], u[1] + 2 * rho * v[1])]
    bases = [draw(unit), draw(unit)]
    grounds = [b + 4.0 + draw(unit) for b in bases]
    permuted = []
    for (p, q), b, g in zip(columns, [*bases, bases[1]], [*grounds, grounds[1]]):
        permuted += [g, b + q + p, b + q, b]
    scale = 10.0 ** draw(st.integers(-100, 100))
    return ground, row_of([scale * x for x in permuted], ground)


def test_near_singular_labelings_equalize_or_warn():
    # every non-singular `label_row` result of a near-singular system has its
    # non-ground populations equal within EQUALIZATION_TOL of the largest
    # population, or warns `UnequalizedLabeling`, once, and only then; the
    # weights of order 1/ρ leave round-off of ~eps/ρ of the largest
    # population, so most rows warn
    outcomes = []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=near_singular_rows())
    def check(case):
        ground, row = case
        (r00, r01, r02), (r10, r11, r12) = _labeled(row, ground)[5]
        ratio = abs(r01 * r12 - r02 * r11) / (r01**2 + r02**2 + r11**2 + r12**2)
        assert SINGULARITY_RTOL < ratio < 1.01e-6
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = label_row(row)
        if isinstance(result, SingularLabelingSystem):
            return
        warned = [w for w in caught if issubclass(w.category, UnequalizedLabeling)]
        assert len(warned) == len(caught) == (not result.equalized)
        others = np.delete(result.diagonal, result.ground)
        spread = others.max() - others.min()
        assert spread <= EQUALIZATION_TOL * np.abs(result.diagonal).max() or warned
        outcomes.append(bool(warned))

    check()
    assert len(outcomes) >= 90 and sum(outcomes) >= 0.3 * len(outcomes)
