"""perfbench/tracing.py patches layer functions by name.  Every name it looks
up must exist, so deleting or renaming a traced function fails here, not
only under `python3 perfbench/run.py --trace 1`.  The file is loaded by its
path and left as it is."""

import importlib.util
from pathlib import Path

import manifold_ukf as mu

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    """patched() reads each traced name with getattr on its module, so a
    missing one raises AttributeError on entry; inside, every name is
    swapped, and on exit every module is as before."""
    tracing = _load_tracing()
    modules = (mu, mu.lie_groups, mu.sigma_core, mu.montecarlo)
    before = [dict(vars(m)) for m in modules]
    with tracing.Tracer().patched(mu):
        swapped = {k for m, old in zip(modules, before)
                   for k, v in vars(m).items() if v is not old[k]}
    assert swapped == set(tracing.LIE) | set(tracing.SIGMA) | set(tracing.MONTECARLO)
    for m, old in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in old.items()), m.__name__
