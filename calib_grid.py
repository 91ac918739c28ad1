"""Full strategy/budget grid at the candidate desk preset."""
import time
import numpy as np
from ifr import blocks, data, diagnostics, implicit, solver, training
from ifr.blocks import EXPLICIT, IMPLICIT, UNROLLED, HeadConfig

GN2_INIT, GN2_CAP = 0.08, 0.08
SC_INIT, SC_CAP = 0.18, 0.22

def head(strategy, depth, double_residual=True):
    return HeadConfig(strategy=strategy, depth_or_budget=depth, channels=8,
                      predictor_classes=1, shortcut_mode='conv1x1', weight_norm=True,
                      double_residual=double_residual,
                      gn2_scale_init=GN2_INIT, shortcut_gain_init=SC_INIT,
                      gn2_scale_cap=GN2_CAP, shortcut_gain_cap=SC_CAP)

def main():
    ds = data.generate(data.DatasetSpec(seed=1, count=320, channels=8))
    hold = ds[256:]
    tcfg = training.TrainConfig(total_iters=600, decay_points=(400, 520), warmup_iters=50, batch_size=8, seed=0)
    scfg = solver.SolverConfig(rel_tol=1e-6)

    cells = [
        ('explicit M=0', EXPLICIT, 0, True),
        ('explicit M=2', EXPLICIT, 2, True),
        ('explicit M=4', EXPLICIT, 4, True),
        ('unrolled N=4', UNROLLED, 4, True),
        ('implicit b=3', IMPLICIT, 3, True),
        ('implicit b=5', IMPLICIT, 5, True),
        ('implicit b=10', IMPLICIT, 10, True),
        ('implicit b=15', IMPLICIT, 15, True),
        ('implicit b=20', IMPLICIT, 20, True),
        ('implicit b=15 nores', IMPLICIT, 15, False),
    ]
    results = {}
    for name, s, d, dr in cells:
        t0 = time.time()
        state, metrics = training.train(head(s, d, dr), tcfg, ds, solver_cfg=scfg)
        iou = metrics[-1]['held_out_iou']
        conv = metrics[-1]['solver_converged_frac']
        results[name] = (iou, state)
        print(f'{name:22s} iou {iou:.4f} conv_frac {conv:.2f}  ({time.time()-t0:.0f}s)', flush=True)

    # diagnostics on the trained implicit b=15 block
    state = results['implicit b=15'][1]
    p = state.params.stages[0]
    tight = solver.SolverConfig(max_iters=15, rel_tol=1e-12)
    rhos, gaps, it2t = [], [], []
    for s in hold[:10]:
        rec = implicit.ifr_forward(p, s.feature, tight)
        rhos.append(diagnostics.spectral_radius(p, s.feature, rec.equilibrium, probes=3, power_iters=60, seed=5))
        unrolled = solver.fixed_point_iterate(blocks.block_apply_factory(p, s.feature), np.zeros_like(s.feature), 10000)[0]
        gaps.append(diagnostics.implicit_gap(p, s.feature, tight, unrolled))
        k = next((i for i, r in enumerate(rec.forward_result.residual_trace) if r < 1e-6), None)
        it2t.append(k)
    print('rho max', max(rhos), 'gap max', max(gaps), 'iters-to-1e-6', it2t, flush=True)


if __name__ == "__main__":
    main()
