"""Tests for the five Figure 9 distance-kernel packings."""

import numpy as np
import pytest

from repro.core.distance import (
    KERNEL_VARIANTS,
    CollapsedPointMajorKernel,
    DimensionMajorKernel,
    DistanceProblem,
    PointMajorKernel,
    StackedDimensionMajorKernel,
    StackedPointMajorKernel,
)
from repro.core.ir import compile_ir
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters

TOL = 0.05


def _run(ckks, kernel_cls, n_points=4, dims=3, seed=0):
    problem = DistanceProblem(n_points=n_points, dims=dims)
    kernel = kernel_cls(ckks, problem)
    ckks.make_galois_keys(kernel.required_rotation_steps())
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1, 1, (n_points, dims))
    query = rng.uniform(-1, 1, dims)
    got = kernel.distances(kernel.encrypt_points(points), kernel.encrypt_query(query))
    want = kernel.reference(points, query)
    assert np.allclose(got, want, atol=TOL), kernel.name
    return kernel


def test_problem_padding():
    p = DistanceProblem(n_points=5, dims=3)
    assert p.padded_dims == 4
    assert p.padded_points == 8


def test_point_major(ckks):
    _run(ckks, PointMajorKernel, seed=1)


def test_dimension_major(ckks):
    _run(ckks, DimensionMajorKernel, seed=2)


def test_stacked_point_major(ckks):
    _run(ckks, StackedPointMajorKernel, n_points=6, dims=4, seed=3)


def test_stacked_dimension_major(ckks):
    _run(ckks, StackedDimensionMajorKernel, n_points=5, dims=3, seed=4)


def test_collapsed_point_major(ckks):
    _run(ckks, CollapsedPointMajorKernel, n_points=4, dims=4, seed=5)


def test_all_variants_agree(ckks):
    rng = np.random.default_rng(6)
    n_points, dims = 4, 4
    points = rng.uniform(-1, 1, (n_points, dims))
    query = rng.uniform(-1, 1, dims)
    problem = DistanceProblem(n_points=n_points, dims=dims)
    results = {}
    for name, cls in KERNEL_VARIANTS.items():
        kernel = cls(ckks, problem)
        ckks.make_galois_keys(kernel.required_rotation_steps())
        results[name] = kernel.distances(
            kernel.encrypt_points(points), kernel.encrypt_query(query)
        )
    reference = np.sum((points - query) ** 2, axis=1)
    for name, got in results.items():
        assert np.allclose(got, reference, atol=TOL), name


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
@pytest.mark.parametrize("shape", [(1,), (4,), (2, 3)],
                         ids=["one", "dims+1", "two-queries"])
def test_query_of_the_wrong_shape_is_refused(ckks, variant, shape):
    """A length-1 query would broadcast to every dimension, a longer one
    fill padding slots: wrong distances, not an error, unless refused."""
    kernel = KERNEL_VARIANTS[variant](ckks, DistanceProblem(n_points=5, dims=3))
    with pytest.raises(ValueError, match="query shape"):
        kernel.pack_query(np.ones(shape))
    assert len(kernel.pack_query(np.ones(3))) == kernel.input_shape[1]


def test_multi_query_kernel(ckks):
    from repro.core.distance import MultiQueryDimensionMajor

    problem = DistanceProblem(n_points=6, dims=3)
    kernel = MultiQueryDimensionMajor(ckks, problem, max_queries=3)
    assert kernel.required_rotation_steps() == {-16, -8}
    ckks.make_galois_keys(kernel.required_rotation_steps())
    rng = np.random.default_rng(21)
    points = rng.uniform(-1, 1, (6, 3))
    queries = rng.uniform(-1, 1, (3, 3))
    point_cts = kernel.encrypt_points(points)
    query_cts = [ckks.encrypt(v) for v in kernel.pack_queries(queries)]
    out = kernel.compute(point_cts, query_cts)
    assert len(out) == 1                          # ONE result ciphertext
    got = kernel.decode_matrix(
        [np.real(ckks.decrypt(ct)) for ct in out], 3)
    assert np.allclose(got, kernel.reference_matrix(points, queries),
                       atol=TOL)


def test_multi_query_validations(ckks):
    from repro.core.distance import MultiQueryDimensionMajor

    problem = DistanceProblem(n_points=6, dims=3)
    with pytest.raises(ValueError):
        MultiQueryDimensionMajor(ckks, problem, max_queries=0)
    with pytest.raises(ValueError):
        MultiQueryDimensionMajor(ckks, problem, max_queries=1000)
    kernel = MultiQueryDimensionMajor(ckks, problem, max_queries=2)
    with pytest.raises(ValueError):
        kernel.pack_queries(np.zeros((3, 3)))    # too many queries
    with pytest.raises(ValueError):
        kernel.pack_queries(np.zeros((2, 5)))    # wrong dimensionality


def test_ciphertext_count_tradeoffs(ckks):
    """Point-major sends many outputs; collapsed sends exactly one."""
    problem = DistanceProblem(n_points=8, dims=4)
    pm = PointMajorKernel(ckks, problem)
    collapsed = CollapsedPointMajorKernel(ckks, problem)
    dm = DimensionMajorKernel(ckks, problem)
    points = np.ones((8, 4))
    query = np.zeros(4)
    assert len(pm.pack_points(points)) == 8          # one ct per point
    assert len(dm.pack_points(points)) == 4          # one ct per dimension
    assert len(collapsed.pack_points(points)) == 1   # everything stacked
    ckks.make_galois_keys(
        pm.required_rotation_steps() | collapsed.required_rotation_steps()
    )
    pm_out = pm.compute(pm.encrypt_points(points), pm.encrypt_query(query))
    col_out = collapsed.compute(collapsed.encrypt_points(points),
                                collapsed.encrypt_query(query))
    assert len(pm_out) == 8
    assert len(col_out) == 1


def test_collapsed_puts_extra_work_on_server(ckks):
    """The collapse round costs extra server multiplies (the §5.4 tradeoff)."""
    problem = DistanceProblem(n_points=4, dims=4)
    stacked = StackedPointMajorKernel(ckks, problem)
    collapsed = CollapsedPointMajorKernel(ckks, problem)
    ckks.make_galois_keys(
        stacked.required_rotation_steps() | collapsed.required_rotation_steps()
    )
    points = np.random.default_rng(7).uniform(-1, 1, (4, 4))
    query = np.zeros(4)

    base = ckks.counts["multiply_plain"]
    stacked.compute(stacked.encrypt_points(points), stacked.encrypt_query(query))
    stacked_mults = ckks.counts["multiply_plain"] - base

    base = ckks.counts["multiply_plain"]
    collapsed.compute(collapsed.encrypt_points(points), collapsed.encrypt_query(query))
    collapsed_mults = ckks.counts["multiply_plain"] - base
    assert collapsed_mults > stacked_mults


# ---------------------------------------------------------------------------
# The collapse round at the served shape: N=4096, three 30-bit limbs
# ---------------------------------------------------------------------------

SERVED_TOL = 1e-2


@pytest.fixture(scope="module")
def served_ckks():
    ctx = CkksContext(small_test_parameters(SchemeType.CKKS, 4096,
                                            data_bits=(30, 30, 30)),
                      seed=b"collapse")
    ctx.relin_keys()
    return ctx


def _collapsed_case(ctx, n_points, dims):
    """Kernel, input ciphertexts and the numpy answer for one shape.

    Points stay inside the half-unit cube: no squared distance reaches the
    ~32 at which the one-limb result ciphertext wraps."""
    kernel = CollapsedPointMajorKernel(ctx, DistanceProblem(n_points, dims))
    ctx.make_galois_keys(kernel.required_rotation_steps())
    rng = np.random.default_rng([n_points, dims])
    points = rng.uniform(-0.5, 0.5, (n_points, dims))
    query = rng.uniform(-0.5, 0.5, dims)
    return (kernel, kernel.encrypt_points(points),
            kernel.encrypt_query(query), kernel.reference(points, query))


# 130 x 16 fills two point ciphertexts: the multi-group align path.
@pytest.mark.parametrize("n_points,dims", [(1, 16), (2, 16), (5, 16),
                                           (64, 16), (130, 16), (7, 3)])
def test_collapsed_matches_reference_and_numpy(served_ckks, n_points, dims):
    ctx = served_ckks
    kernel, point_cts, query_cts, want = _collapsed_case(ctx, n_points, dims)
    assert len(point_cts) == (2 if n_points > 128 else 1)

    def decode(cts):
        assert len(cts) == 1
        return kernel.decode([np.real(v) for v in ctx.decrypt_many(cts)])

    got = decode(kernel.compute(point_cts, query_cts))
    sched = kernel.scheduled((len(point_cts), len(query_cts)))
    oracle = decode([sched.run_reference(
        ctx, {f"in{i}": ct
              for i, ct in enumerate(point_cts + query_cts)})["out0"]])
    assert np.max(np.abs(got - want)) < SERVED_TOL
    assert np.max(np.abs(oracle - want)) < SERVED_TOL
    assert np.max(np.abs(got - oracle)) < SERVED_TOL


def test_collapsed_served_shape_operation_counts(served_ckks):
    """64 x 16 is B = G = 8: seven baby rotations on ONE hoisted decompose
    (the dimension sum owns the other), seven giant rotations paying their
    own, one rescale per giant step, and no baby ever materialized: each
    giant step is one weighted-sum span over the shared accumulators, so a
    warm call transforms forward only the square's operand — once, 2
    components x 3 limbs, since public-key uploads arrive in coefficient
    form."""
    ctx = served_ckks
    kernel, point_cts, query_cts, _ = _collapsed_case(ctx, 64, 16)
    kernel.compute(point_cts, query_cts)      # compile + fill the caches
    before = ctx.counts.copy()
    kernel.compute(point_cts, query_cts)
    per_call = {name: ctx.counts[name] - before[name]
                for name in ("rotate", "hoisted_decompose", "naive_decompose",
                             "rescale", "multiply_plain", "ntt_forward")}
    assert per_call == {"rotate": 29, "hoisted_decompose": 2,
                        "naive_decompose": 7, "rescale": 9,
                        "multiply_plain": 64, "ntt_forward": 6}


#: Galois keys per shape and packing when the sets were still written by
#: hand: what the derivation must reproduce, and ROADMAP 3a's baseline.
KEY_COUNTS = {
    (64, 16): {"collapsed": 28, "dimension-major": 0, "point-major": 15,
               "stacked-dimension": 5, "stacked-point": 15},
    (130, 16): {"collapsed": 36, "dimension-major": 0, "point-major": 15,
                "stacked-dimension": 3, "stacked-point": 15},
    (7, 3): {"collapsed": 6, "dimension-major": 0, "point-major": 3,
             "stacked-dimension": 8, "stacked-point": 3},
}


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
@pytest.mark.parametrize("n_points,dims", list(KEY_COUNTS))
def test_galois_key_set_is_exactly_what_the_program_rotates_by(
        served_ckks, variant, n_points, dims):
    """No key uploaded that the program never uses, none missing: the set
    is read off the trace, and no pass — planner on or off — adds a step to
    it or removes one."""
    kernel = KERNEL_VARIANTS[variant](served_ckks,
                                      DistanceProblem(n_points, dims))
    steps = kernel.required_rotation_steps()
    assert len(steps) == KEY_COUNTS[n_points, dims][variant]
    program = kernel.program(kernel.input_shape)
    for params in (None, served_ckks.params):
        sched = compile_ir(program, SchemeType.CKKS, params=params)
        assert sched.rotation_steps() == steps
