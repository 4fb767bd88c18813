#!/usr/bin/env python3
"""Record reference.npz, the outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from the root of a source checkout, at the commit whose outputs define
the reference.  For each workload and each of its input sets it stores, per
online pass, the final mean as a tangent offset from the simulated final
truth plus the final covariance (from one filter_run call), and per
Monte-Carlo call the RMSE curves, mean NEES and divergence counts of
benchmark() at workers=1.  It refuses to record a diverged run.
"""

import sys

import run  # pins the BLAS thread counts before numpy loads


def main():
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import manifold_ukf as mu
    import workloads as wl

    out = {}
    for workload in wl.WORKLOADS.values():
        for slot in range(wl.SLOTS):
            models = wl.build_models(workload, slot, mu)
            passes, calls = wl.build_inputs(workload, slot, models, mu)
            prefix = f"{workload.name}/{slot}/"
            for p in passes:
                model = models[p.model_key]
                belief = mu.filter_run(model, p.inputs, p.measurements,
                                       retraction=p.retraction)[-1]
                for k, v in wl.drive_outputs(model, p, belief).items():
                    out[f"{prefix}{p.key}/{k}"] = v
            for c in calls:
                report = mu.benchmark(models[c.model_key], list(c.retractions),
                                      runs=workload.mc_runs, seed=c.seed,
                                      steps=workload.mc_steps, workers=1)
                diverged = {f.name: f.diverged for f in report.filters}
                if any(diverged.values()):
                    sys.exit(f"{prefix}{c.key}: diverged runs {diverged}")
                for k, v in wl.mc_outputs(report).items():
                    out[f"{prefix}{c.key}/{k}"] = v
            print(f"recorded {prefix}", flush=True)
    np.savez_compressed(run.REFERENCE, **out)


if __name__ == "__main__":
    main()
