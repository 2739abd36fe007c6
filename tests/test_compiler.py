"""Tests for the EVA-style CKKS compiler (§3.2)."""

import numpy as np
import pytest

from repro.core.compiler import (
    Constant,
    EvaProgram,
    Input,
    Scalar,
    compile_program,
)
from repro.hecore.params import SchemeType


def _check(ckks, program, inputs, atol=0.05):
    compiled = compile_program(program)
    got = compiled.execute(ckks, inputs)
    want = compiled.reference(inputs)
    for name in program.outputs:
        assert np.allclose(got[name], want[name], atol=atol), name
    return compiled


def test_simple_affine(ckks):
    x = Input("x")
    program = EvaProgram({"y": 2.0 * x + Constant([1, 2, 3, 4])}, slots=4)
    compiled = _check(ckks, program, {"x": [0.5, 1.0, 1.5, 2.0]})
    assert compiled.multiplicative_depth == 1
    assert compiled.plain_mults == 1
    assert compiled.ct_mults == 0


def test_polynomial_depth_two(ckks):
    x = Input("x")
    program = EvaProgram({"y": (x * x) * 0.5 + x}, slots=4)
    compiled = _check(ckks, program, {"x": [0.1, -0.4, 0.9, 0.3]})
    assert compiled.multiplicative_depth == 2
    assert compiled.ct_mults == 1


def test_two_inputs_and_outputs(ckks):
    x, w = Input("x"), Input("w")
    program = EvaProgram(
        {"prod": x * w, "diff": x - w, "neg": -x},
        slots=4,
    )
    _check(ckks, program, {"x": [1, 2, 3, 4], "w": [0.5, 0.5, -0.5, -0.5]})


def test_plain_minus_ciphertext(ckks):
    x = Input("x")
    program = EvaProgram({"y": Scalar(1.0) - x}, slots=4)
    _check(ckks, program, {"x": [0.2, 0.4, 0.6, 0.8]})


def test_rotation(ckks):
    x = Input("x")
    program = EvaProgram({"y": x + x.rotate(1)}, slots=4)
    compiled = _check(ckks, program, {"x": [1.0, 2.0, 3.0, 0.0]})
    assert compiled.rotation_steps == {1}


def test_dot_product_program(ckks):
    """An encrypted dot product: elementwise multiply + log-rotation sum."""
    x, w = Input("x"), Input("w")
    acc = x * w
    acc = acc + acc.rotate(2)
    acc = acc + acc.rotate(1)
    program = EvaProgram({"dot": acc}, slots=4)
    compiled = compile_program(program)
    out = compiled.execute(ckks, {"x": [1, 2, 3, 4], "w": [4, 3, 2, 1]})
    assert out["dot"][0] == pytest.approx(1 * 4 + 2 * 3 + 3 * 2 + 4 * 1, abs=0.1)
    assert compiled.rotation_steps == {1, 2}


def test_level_alignment_between_depths(ckks):
    """Adding a depth-2 value to a depth-0 input forces modulus alignment."""
    x = Input("x")
    program = EvaProgram({"y": (x * x) * 0.25 + x + 1.0}, slots=4)
    _check(ckks, program, {"x": [0.3, 0.6, -0.3, -0.6]})


def test_squared_distance_program(ckks):
    """The distance kernel of §5.1 expressed as an Eva program."""
    x, c = Input("x"), Input("c")
    diff = x - c
    sq = diff * diff
    acc = sq + sq.rotate(2)
    acc = acc + acc.rotate(1)
    program = EvaProgram({"dist": acc}, slots=4)
    compiled = compile_program(program)
    out = compiled.execute(ckks, {"x": [1, 2, 3, 4], "c": [0, 1, 1, 2]})
    assert out["dist"][0] == pytest.approx(1 + 1 + 4 + 4, abs=0.1)


def test_compiler_recommends_minimal_parameters():
    x = Input("x")
    shallow = compile_program(EvaProgram({"y": x * 2.0}, slots=64))
    deep = compile_program(
        EvaProgram({"y": ((x * x) * x) * x}, slots=64))
    assert deep.multiplicative_depth > shallow.multiplicative_depth
    assert (deep.recommended.data_bits > shallow.recommended.data_bits)
    assert shallow.recommended.scheme is SchemeType.CKKS


def test_memoization_shares_subexpressions(ckks):
    x = Input("x")
    shared = x * x                       # appears twice in the DAG
    program = EvaProgram({"y": shared + shared}, slots=4)
    before = ckks.counts["multiply"]
    compile_program(program).execute(ckks, {"x": [0.5, 0.5, 0.5, 0.5]})
    assert ckks.counts["multiply"] - before == 1   # computed once


def test_rejects_bfv_context(bfv):
    program = EvaProgram({"y": Input("x") * 2.0}, slots=4)
    with pytest.raises(ValueError):
        compile_program(program).execute(bfv, {"x": [1.0]})


def test_rejects_missing_input(ckks):
    program = EvaProgram({"y": Input("x") + Input("z")}, slots=4)
    with pytest.raises(ValueError):
        compile_program(program).execute(ckks, {"x": [1.0]})


def test_rejects_constant_only_expression(ckks):
    program = EvaProgram({"y": Input("x") + (Scalar(1.0) * Scalar(2.0))},
                         slots=4)
    with pytest.raises(ValueError):
        compile_program(program).execute(ckks, {"x": [1.0]})


def _example_program():
    """``examples/eva_compiler.py``'s calibration + anomaly-score pipeline."""
    x = Input("x")
    calibrated = (Constant([1.02, 0.98, 1.05, 0.95]) * x
                  + Constant([-0.1, 0.0, 0.1, 0.05]))
    squared = calibrated * calibrated
    acc = squared + squared.rotate(2)
    return {"calibrated": calibrated, "score": acc + acc.rotate(1)}


#: (depth, rotation steps, ct-ct mults, plain mults, adds, inputs) as the
#: expression-DAG walk reported them before ``compile_program`` read them
#: off the lowered IR.
ANALYSED = {
    "affine": (1, set(), 0, 1, 1, {"x"}),
    "poly2": (2, set(), 1, 1, 1, {"x"}),
    "two_io": (1, set(), 1, 0, 1, {"w", "x"}),
    "plain_minus": (0, set(), 0, 0, 1, {"x"}),
    "rotation": (0, {1}, 0, 0, 1, {"x"}),
    "dot": (1, {1, 2}, 1, 0, 2, {"w", "x"}),
    "level_align": (2, set(), 1, 1, 2, {"x"}),
    "sqdist": (1, {1, 2}, 1, 0, 4, {"c", "x"}),
    "memo": (1, set(), 1, 0, 1, {"x"}),
    "example": (2, {1, 2}, 1, 1, 3, {"x"}),
}


@pytest.mark.parametrize("name", sorted(ANALYSED))
def test_analysis_read_off_the_ir_matches_the_dag_walk(name):
    from tests.test_level_corpus import _eva_programs

    outputs = {**_eva_programs(), "example": _example_program()}[name]
    compiled = compile_program(EvaProgram(outputs, slots=4))
    assert (compiled.multiplicative_depth, compiled.rotation_steps,
            compiled.ct_mults, compiled.plain_mults, compiled.adds,
            compiled.input_names) == ANALYSED[name]


from hypothesis import given, settings
from hypothesis import strategies as st


def _random_program(draw, slots=4, max_depth=2):
    """Hypothesis helper: a random expression DAG over two inputs."""
    x, w = Input("x"), Input("w")
    leaves = [x, w, x + w]

    def build(depth):
        if depth == 0:
            return draw(st.sampled_from(leaves))
        kind = draw(st.sampled_from(
            ["add", "sub", "mul_plain", "mul_ct", "neg", "rotate", "leaf"]))
        if kind == "leaf":
            return draw(st.sampled_from(leaves))
        if kind == "neg":
            return -build(depth - 1)
        if kind == "rotate":
            return build(depth - 1).rotate(draw(st.integers(1, slots - 1)))
        if kind == "mul_plain":
            const = draw(st.lists(
                st.floats(-1, 1, allow_nan=False), min_size=slots,
                max_size=slots))
            return build(depth - 1) * Constant(const)
        left = build(depth - 1)
        right = draw(st.sampled_from(leaves)) if kind == "mul_ct" else build(depth - 1)
        if kind == "add":
            return left + right
        if kind == "sub":
            return left - right
        return left * right

    return EvaProgram({"out": build(max_depth)}, slots=slots)


@given(st.data())
@settings(max_examples=15)
def test_random_programs_match_oracle(ckks_session, data):
    """Property: any random expression DAG the compiler accepts executes to
    (approximately) its plaintext-oracle value."""
    program = _random_program(data.draw)
    compiled = compile_program(program)
    if compiled.multiplicative_depth > 3:
        return   # beyond the fixture's level budget
    inputs = {"x": [0.3, -0.2, 0.5, 0.1], "w": [0.4, 0.1, -0.3, 0.2]}
    got = compiled.execute(ckks_session, inputs)
    want = compiled.reference(inputs)
    assert np.allclose(got["out"], want["out"], atol=0.1)


@pytest.fixture(scope="module")
def ckks_session():
    from repro.hecore.ckks import CkksContext
    from repro.hecore.params import SchemeType, small_test_parameters

    params = small_test_parameters(SchemeType.CKKS, poly_degree=512,
                                   data_bits=(30, 24, 24, 24, 24))
    return CkksContext(params, seed=88)


def test_program_validation():
    with pytest.raises(ValueError):
        EvaProgram({}, slots=4)
    with pytest.raises(ValueError):
        EvaProgram({"y": Input("x")}, slots=0)
    with pytest.raises(TypeError):
        Input("x") + "nonsense"
