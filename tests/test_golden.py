"""Golden benchmark outputs for every example x retraction variant.

benchmark(runs=2, steps=50, seed=0) must reproduce the recorded per-block
RMSE and mean NEES curves within 1e-12 relative, and the divergence counts
exactly.  A refactor that is meant to leave the numbers alone keeps this
test green; a change that is meant to move them regenerates the file with

    python tests/test_golden.py --record

and says why in its change notes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden_benchmark.npz")
RUNS, STEPS, SEED = 2, 50, 0

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from manifold_ukf.models import example_names, make  # noqa: E402
from manifold_ukf.montecarlo import benchmark  # noqa: E402


def variants():
    return [(name, rname) for name in example_names()
            for rname in make(name).retractions]


def outputs(example, retraction):
    """The golden quantities of one variant, keyed example/retraction/..."""
    report = benchmark(make(example), [retraction], runs=RUNS, seed=SEED,
                       steps=STEPS)
    (flt,) = report.filters
    prefix = f"{example}/{retraction}"
    out = {f"{prefix}/rmse/{block}": np.asarray(flt.rmse[block], dtype=float)
           for block, _ in report.blocks}
    out[f"{prefix}/nees"] = np.asarray(flt.mean_nees, dtype=float)
    out[f"{prefix}/diverged"] = np.array(flt.diverged)
    return out


@pytest.mark.parametrize("example, retraction", variants())
def test_benchmark_matches_golden(example, retraction):
    with np.load(GOLDEN) as golden:
        expected = {k: golden[k] for k in golden.files
                    if k.startswith(f"{example}/{retraction}/")}
    got = outputs(example, retraction)
    assert sorted(got) == sorted(expected)
    for key, want in expected.items():
        if key.endswith("/diverged"):
            assert int(got[key]) == int(want), key
        else:
            np.testing.assert_allclose(got[key], want, rtol=1e-12, atol=0.0,
                                       err_msg=key)


def record():
    out = {}
    for example, retraction in variants():
        out.update(outputs(example, retraction))
    np.savez_compressed(GOLDEN, **out)
    print(f"wrote {len(out)} arrays to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
