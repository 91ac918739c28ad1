"""Calibration: do stability caps hold contraction while the task trains?"""
import time
import numpy as np
from ifr import blocks, data, diagnostics, implicit, solver, training
from ifr.blocks import HeadConfig

def measure(params, holdout, budget=15):
    p = params.stages[0]
    tight = solver.SolverConfig(max_iters=budget, rel_tol=1e-12)
    rhos, gaps = [], []
    iters_to_tol = []
    for s in holdout[:6]:
        rec = implicit.ifr_forward(p, s.feature, tight)
        rhos.append(diagnostics.spectral_radius(p, s.feature, rec.equilibrium, probes=2, power_iters=50, seed=5))
        unrolled = solver.fixed_point_iterate(blocks.block_apply_factory(p, s.feature), np.zeros_like(s.feature), 3000)[0]
        gaps.append(diagnostics.implicit_gap(p, s.feature, tight, unrolled))
        k = next((i for i, r in enumerate(rec.forward_result.residual_trace) if r < 1e-6), None)
        iters_to_tol.append(k)
    return max(rhos), max(gaps), iters_to_tol

def run(tag, gn2i, gn2c, sci, scc, iters, decays):
    head = HeadConfig(strategy='implicit-broyden', depth_or_budget=15, channels=8,
                      predictor_classes=1, shortcut_mode='conv1x1', weight_norm=True,
                      gn2_scale_init=gn2i, shortcut_gain_init=sci,
                      gn2_scale_cap=gn2c, shortcut_gain_cap=scc)
    ds = data.generate(data.DatasetSpec(seed=1, count=320, channels=8))
    hold = ds[256:]
    tcfg = training.TrainConfig(total_iters=iters, decay_points=decays, warmup_iters=50, batch_size=8, seed=0)
    t0 = time.time()
    state, metrics = training.train(head, tcfg, ds, solver_cfg=solver.SolverConfig(rel_tol=1e-6), log_every=200)
    rho, gap, it2t = measure(state.params, hold)
    ious = [m['held_out_iou'] for m in metrics]
    convs = [m['solver_converged_frac'] for m in metrics]
    print(f'[{tag}] {time.time()-t0:.0f}s iou {ious[-1]:.3f} (traj {[round(v,3) for v in ious]})', flush=True)
    print(f'[{tag}] conv_frac traj {[round(v,2) for v in convs]}', flush=True)
    print(f'[{tag}] rho {rho:.3f} gap {gap:.2e} iters-to-1e-6 {it2t}', flush=True)

if __name__ == "__main__":
    run('cap tight 0.10/0.25', 0.10, 0.10, 0.20, 0.25, 600, (400, 520))
    run('cap mid   0.15/0.30', 0.10, 0.15, 0.20, 0.30, 600, (400, 520))
