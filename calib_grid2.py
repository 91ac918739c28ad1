"""Grid calibration on the harder task at two cap levels."""
import sys, time
import numpy as np
from ifr import blocks, data, diagnostics, implicit, solver, training
from ifr.blocks import EXPLICIT, IMPLICIT, UNROLLED, HeadConfig

def head(strategy, depth, gn2_cap, sc_cap, double_residual=True):
    return HeadConfig(strategy=strategy, depth_or_budget=depth, channels=8,
                      predictor_classes=1, shortcut_mode='conv1x1', weight_norm=True,
                      double_residual=double_residual,
                      gn2_scale_init=gn2_cap, shortcut_gain_init=sc_cap*0.8,
                      gn2_scale_cap=gn2_cap, shortcut_gain_cap=sc_cap)

def main():
    GN2_CAP = float(sys.argv[1]); SC_CAP = float(sys.argv[2])
    ds = data.generate(data.DatasetSpec(seed=1, count=320, channels=8, noise_sigma=0.15, blur_passes=3))
    hold = ds[256:]
    tcfg = training.TrainConfig(total_iters=1200, decay_points=(800, 1000), warmup_iters=50, batch_size=8, seed=0)
    scfg = solver.SolverConfig(rel_tol=1e-6)

    cells = [('explicit M=0', EXPLICIT, 0, True), ('explicit M=2', EXPLICIT, 2, True),
             ('explicit M=4', EXPLICIT, 4, True), ('unrolled N=4', UNROLLED, 4, True),
             ('implicit b=3', IMPLICIT, 3, True), ('implicit b=5', IMPLICIT, 5, True),
             ('implicit b=10', IMPLICIT, 10, True), ('implicit b=15', IMPLICIT, 15, True),
             ('implicit b=20', IMPLICIT, 20, True), ('implicit nores', IMPLICIT, 15, False)]
    keep = {}
    for name, s, d, dr in cells:
        t0 = time.time()
        state, metrics = training.train(head(s, d, GN2_CAP, SC_CAP, dr), tcfg, ds, solver_cfg=scfg)
        keep[name] = state
        print(f'{name:16s} iou {metrics[-1]["held_out_iou"]:.4f} conv {metrics[-1]["solver_converged_frac"]:.2f} ({time.time()-t0:.0f}s)', flush=True)

    p = keep['implicit b=15'].params.stages[0]
    tight = solver.SolverConfig(max_iters=15, rel_tol=1e-12)
    rhos, gaps, it2t = [], [], []
    for s in hold[:10]:
        rec = implicit.ifr_forward(p, s.feature, tight)
        rhos.append(diagnostics.spectral_radius(p, s.feature, rec.equilibrium, probes=3, power_iters=60, seed=5))
        unrolled = solver.fixed_point_iterate(blocks.block_apply_factory(p, s.feature), np.zeros_like(s.feature), 10000)[0]
        gaps.append(diagnostics.implicit_gap(p, s.feature, tight, unrolled))
        it2t.append(next((i for i, r in enumerate(rec.forward_result.residual_trace) if r < 1e-6), None))
    print('rho max', round(max(rhos),3), 'gap max %.2e' % max(gaps), 'it2t', it2t, flush=True)


if __name__ == "__main__":
    main()
