"""Equilibrium forward/backward: closed forms, oracle agreement, and the
implicit-function-theorem gradients."""

import copy
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from ifr import gradcheck, implicit
from ifr.blocks import block_apply_factory, unrolled_shared_vjp
from ifr.gradcheck import (
    check_block_gradients,
    contractive_block,
    guarded_max_rel_error,
    run_grad_check,
)
from ifr.implicit import ifr_backward, ifr_forward, stack_records
from ifr.ops import NonFiniteError
from ifr.rng import CounterRng
from ifr.solver import SolverConfig, broyden_solve, fixed_point_iterate

from conftest import rand
from test_blocks import linear_proxy_block, zero_block


TIGHT = SolverConfig(max_iters=40, rel_tol=1e-12)


def test_zero_parameter_block_has_no_root_for_nonzero_input():
    # phi(h) = (h + x) - h = x: constant, rootless unless x = 0
    p = zero_block()
    x = rand(1, (4, 5, 5))
    rec = ifr_forward(p, x, SolverConfig(max_iters=10))
    assert not rec.forward_result.converged

    rec0 = ifr_forward(p, np.zeros_like(x), SolverConfig(max_iters=10))
    assert rec0.forward_result.converged
    assert np.abs(rec0.equilibrium).max() == 0.0


def test_linear_proxy_equilibrium_closed_form():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))  # F(h) = 0.5 h + 1, fixed point 2
    rec = ifr_forward(p, x, TIGHT)
    assert rec.forward_result.converged
    assert abs(rec.equilibrium[0, 0, 0] - 2.0) < 1e-10


def test_linear_proxy_backward_closed_forms():
    # F(h; x) = s*(h+x) + c with s = 0.5: dF/dh = dF/dx = 0.5,
    # adjoint a = u / (1 - 0.5) = 2u, dX = a * 0.5 = u,
    # d c (the gn2 shift) = a = 2u, and for the shortcut kernel value s:
    # dF/ds = R* = h* + x = 3, so dL/ds = a * 3 = 6u.
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))
    rec = ifr_forward(p, x, TIGHT)
    u = 0.7
    back = ifr_backward(rec, np.full((1, 1, 1), u), TIGHT)
    assert abs(back.d_x[0, 0, 0] - u) < 1e-9
    grads = dict(back.d_params.leaf_items())
    assert abs(grads["gn2.shift"][0] - 2.0 * u) < 1e-9
    assert abs(grads["shortcut.direction"][0, 0, 0, 0] - 6.0 * u) < 1e-8


def test_zero_upstream_gives_zero_gradients(corpus_block):
    x = rand(3, (8, 6, 6))
    rec = ifr_forward(corpus_block, x, TIGHT)
    back = ifr_backward(rec, np.zeros_like(x), TIGHT)
    assert not back.d_x.any()
    assert all(not arr.any() for _, arr in back.d_params.leaf_items())


def test_upstream_shape_mismatch_rejected(corpus_block):
    x = rand(4, (8, 6, 6))
    rec = ifr_forward(corpus_block, x, TIGHT)
    with pytest.raises(ValueError):
        ifr_backward(rec, np.zeros((8, 5, 5)), TIGHT)


def test_backward_touches_only_record_upstream_config():
    # the one-block memory property, asserted at the interface
    names = list(inspect.signature(ifr_backward).parameters)
    assert names == ["rec", "upstream", "cfg"]


def test_fixed_point_certificate_on_convergence(corpus_block):
    from ifr.blocks import double_residual_forward

    x = rand(5, (8, 6, 6))
    cfg = SolverConfig(max_iters=30, rel_tol=1e-9)
    rec = ifr_forward(corpus_block, x, cfg)
    assert rec.forward_result.converged
    h = rec.equilibrium
    drift = np.linalg.norm(double_residual_forward(corpus_block, h, x) - h)
    assert drift / (np.linalg.norm(h) + 1e-9) <= cfg.rel_tol


def test_equilibrium_matches_long_unroll(corpus_block):
    x = rand(6, (8, 6, 6))
    rec = ifr_forward(corpus_block, x, SolverConfig(max_iters=15, rel_tol=1e-12))
    unrolled, _ = fixed_point_iterate(
        block_apply_factory(corpus_block, x), np.zeros_like(x), 1000)
    assert np.abs(rec.equilibrium - unrolled).max() < 1e-6


def test_gradients_match_both_oracles():
    p = contractive_block(seed=12345)
    rng = CounterRng(777)
    x = rng.normal((8, 6, 6))
    u = rng.normal((8, 6, 6))
    result = check_block_gradients(p, x, u, SolverConfig(max_iters=15, rel_tol=1e-10))
    assert result.fd_rel_error <= 1e-4
    assert result.unroll_rel_error <= 1e-3


def test_implicit_gradients_against_200_step_unroll_full_leaves():
    p = contractive_block(seed=999)
    rng = CounterRng(888)
    x = rng.normal((8, 6, 6))
    u = rng.normal((8, 6, 6))
    rec = ifr_forward(p, x, SolverConfig(max_iters=15, rel_tol=1e-10))
    back = ifr_backward(rec, u, SolverConfig(max_iters=15, rel_tol=1e-10))
    dx_u, grads_u = unrolled_shared_vjp(p, x, 200, u)
    approx = dict(back.d_params.leaf_items())
    approx["input"] = back.d_x
    reference = dict(grads_u.leaf_items())
    reference["input"] = dx_u
    assert guarded_max_rel_error(approx, reference) <= 1e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_guarded_error_is_infinite_on_a_non_finite_entry(bad):
    finite = {"a": np.array([1.0, 1.0])}
    broken = {"a": np.array([bad, 1.0])}
    assert guarded_max_rel_error(broken, finite) == np.inf
    assert guarded_max_rel_error(finite, broken) == np.inf
    assert guarded_max_rel_error(finite, finite) == 0.0


def test_finite_difference_check_raises_on_a_non_finite_loss_and_restores_leaves(monkeypatch):
    p = contractive_block(seed=12345)
    rng = CounterRng(777)
    x = rng.normal((8, 6, 6))
    u = rng.normal((8, 6, 6))
    before = [(name, arr.copy()) for name, arr in p.leaf_items()] + [("input", x.copy())]
    cfg = SolverConfig(max_iters=15, rel_tol=1e-10)

    def nan_on_tight_solves(block, feature, solver_cfg):
        rec = ifr_forward(block, feature, solver_cfg)
        if solver_cfg != cfg:
            rec = dataclasses.replace(rec, equilibrium=np.full_like(rec.equilibrium, np.nan))
        return rec

    monkeypatch.setattr(gradcheck, "ifr_forward", nan_on_tight_solves)
    with pytest.raises(NonFiniteError):
        check_block_gradients(p, x, u, cfg)
    after = list(p.leaf_items()) + [("input", x)]
    assert [name for name, _ in after] == [name for name, _ in before]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(after, before))


def test_linear_case_adjoint_exactness_vs_elimination_oracle():
    # F(h; x) = A h + x with spectral radius < 1: the implicit gradient
    # w.r.t. x is upstream^T (I - A)^(-1); the adjoint fixed point is solved
    # with the same Broyden machinery ifr_backward uses
    rng = CounterRng(1001)
    a = rng.normal((16, 16))
    a *= 0.7 / max(np.abs(np.linalg.eigvals(a)))
    u = rng.normal((16,))

    adjoint = broyden_solve(
        lambda v: u + v @ a - v, np.zeros((1, 16)), SolverConfig(max_iters=40, rel_tol=1e-13)
    )
    oracle = np.linalg.solve(np.eye(16) - a.T, u)
    assert np.abs(adjoint.root[0] - oracle).max() < 1e-8


def test_run_grad_check_negative_control():
    broken = run_grad_check(trials=1, break_vjp=True)
    assert broken.fd_rel_error > 1e-4
    assert broken.unroll_rel_error > 1e-3


def test_batched_backward_matches_single_sample_backwards():
    p = contractive_block(seed=4321)
    rng = CounterRng(4322)
    xs = [rng.split(i).normal((8, 6, 6)) for i in range(4)]
    us = [rng.split(10 + i).normal((8, 6, 6)) for i in range(4)]
    cfg = SolverConfig(max_iters=40, rel_tol=1e-12)
    recs = [ifr_forward(p, x, cfg) for x in xs]
    singles = [ifr_backward(rec, u, cfg) for rec, u in zip(recs, us)]
    batch = ifr_backward(stack_records(recs), np.stack(us), cfg)

    assert [s.converged for s in batch.adjoint_result.problems] == [
        s.adjoint_result.converged for s in singles
    ]
    assert np.abs(batch.d_x - np.stack([s.d_x for s in singles])).max() <= 1e-10
    summed = {name: sum(dict(s.d_params.leaf_items())[name] for s in singles)
              for name, _ in singles[0].d_params.leaf_items()}
    batched = dict(batch.d_params.leaf_items())
    # the four adjoints converge after 18-20 steps each, so the batch runs on
    # with frozen problems; the worst coordinates are the structurally zero
    # gain and bias gradients, at 1e-15 against the guard's floor
    assert guarded_max_rel_error(batched, summed) <= 1e-10


def test_stacked_record_keeps_each_forward_solve():
    p = contractive_block(seed=4323)
    xs = [rand(40 + i, (8, 6, 6)) for i in range(3)]
    recs = [ifr_forward(p, x, TIGHT) for x in xs]
    rec = stack_records(recs)
    assert rec.equilibrium.shape == rec.input.shape == (3, 8, 6, 6)
    assert [s is r.forward_result.problems[0]
            for s, r in zip(rec.forward_result.problems, recs)] == [True] * 3
    assert np.array_equal(rec.equilibrium[1], recs[1].equilibrium)


def test_batched_adjoint_keeps_a_sample_converged_at_its_start():
    # a zero cotangent's adjoint is a = 0, converged at its first evaluation;
    # the other sample's adjoint runs out of its budget of 3 beside it
    p = contractive_block(seed=4324)
    recs = [ifr_forward(p, rand(50 + i, (8, 6, 6)), TIGHT) for i in range(2)]
    u = np.stack([np.zeros((8, 6, 6)), rand(52, (8, 6, 6))])
    cfg = SolverConfig(max_iters=3, rel_tol=1e-12)
    batch = ifr_backward(stack_records(recs), u, cfg).adjoint_result
    alone = [ifr_backward(rec, ui, cfg).adjoint_result for rec, ui in zip(recs, u)]
    assert [s.converged for s in batch.problems] == [a.converged for a in alone] == [True, False]
    assert [s.iterations_used for s in batch.problems] == [1, 4]
    assert not batch.root[0].any()
    assert np.abs(batch.root[1] - alone[1].root[0]).max() <= 1e-12


def test_backward_of_a_sample_is_its_batch_of_one_bit_for_bit():
    p = contractive_block(seed=4325)
    x, u = rand(60, (8, 6, 6)), rand(61, (8, 6, 6))
    rec = ifr_forward(p, x, SolverConfig(max_iters=15, rel_tol=1e-10))
    cfg = SolverConfig(max_iters=6, rel_tol=1e-10)
    single = ifr_backward(rec, u, cfg)
    batch = ifr_backward(stack_records([rec]), u[None], cfg)
    assert single.d_x.shape == x.shape and batch.d_x.shape == (1,) + x.shape
    assert np.array_equal(single.d_x, batch.d_x[0])
    assert [name for name, _ in single.d_params.leaf_items()] == [
        name for name, _ in batch.d_params.leaf_items()]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(
        single.d_params.leaf_items(), batch.d_params.leaf_items()))
    assert single.adjoint_result.problems == batch.adjoint_result.problems
    assert np.array_equal(single.adjoint_result.root, batch.adjoint_result.root)


@pytest.mark.parametrize("budget", [1, 4])
def test_an_adjoint_stack_makes_one_input_vjp_per_step(monkeypatch, budget):
    # with a tolerance no live problem meets, each of the budget's steps makes
    # one batched input-only VJP, and the all-zero start makes none; the zero
    # cotangent's adjoint a = 0 converges at its start beside the live ones
    p = contractive_block(seed=4326)
    recs = [ifr_forward(p, rand(70 + i, (8, 6, 6)), TIGHT) for i in range(3)]
    u = np.stack([rand(73, (8, 6, 6)), np.zeros((8, 6, 6)), rand(74, (8, 6, 6))])
    calls = []
    real = implicit.block_vjp_from_tape

    def counting(block, tape, cotangent, want_params=True):
        calls.append(want_params)
        return real(block, tape, cotangent, want_params=want_params)

    monkeypatch.setattr(implicit, "block_vjp_from_tape", counting)
    cfg = SolverConfig(max_iters=budget, rel_tol=1e-300)
    adjoint = ifr_backward(stack_records(recs), u, cfg).adjoint_result
    assert calls == [False] * budget + [True]
    assert [s.iterations_used for s in adjoint.problems] == [budget + 1, 1, budget + 1]
    assert [s.converged for s in adjoint.problems] == [False, True, False]
    assert not adjoint.root[1].any()


def _load_reference():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_record_keeps_the_block_its_solve_ran_on():
    # the record holds a snapshot: updating the live block in place between
    # ifr_forward and ifr_backward changes neither the gradients nor the map
    # the record gives the benchmark's reference
    p = contractive_block(seed=4327)
    x, u = rand(80, (8, 6, 6)), rand(81, (8, 6, 6))
    cfg = SolverConfig(max_iters=15, rel_tol=1e-10)
    untouched = ifr_backward(ifr_forward(p, x, cfg), u, cfg)
    before = copy.deepcopy(p)
    rec = ifr_forward(p, x, cfg)
    for _, leaf in p.leaf_items():
        leaf *= 1.5
    back = ifr_backward(rec, u, cfg)
    assert np.array_equal(back.d_x, untouched.d_x)
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(
        back.d_params.leaf_items(), untouched.d_params.leaf_items()))
    reference = _load_reference()
    h = rec.equilibrium
    solved = reference.block_map(rec.params, x)(h)
    assert np.abs(solved - reference.block_map(before, x)(h)).max() <= 1e-12
    assert np.linalg.norm(solved - h) <= cfg.rel_tol * np.linalg.norm(h)
    assert np.abs(solved - reference.block_map(p, x)(h)).max() > 1e-3
