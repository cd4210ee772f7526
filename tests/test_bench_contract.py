"""The program attributes that bench/instrument.py wraps exist and are used.

The benchmark times the program by replacing module and class attributes
for one round.  A renamed or removed attribute, or a call that no longer
goes through the wrapped name, would only show when the benchmark runs;
this test installs the benchmark's own probes, runs a small sweep through
them and restores them.
"""

import json
import pathlib
import types

import numpy as np
import pytest

from tangent_plane_llg import cli, fem, gmres, precond, scheme

from conftest import UNIT_BOUNDS

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# every preconditioner kind, so that each one's build and apply go through
# the wrapped names
KINDS = ["theoretical", "stationary", "practical", "jacobi", "none"]
# every span of Tracer(layers=True) that a tps2 sweep over KINDS must pass
# through
SPANS = ["mesh.build", "mesh.quality", "scheme.setup", "scheme.step", "scheme.run",
         "scheme.lambda", "scheme.project", "scheme.energy", "tangent.select",
         "tangent.frame", "tangent.q", "fem.static", "fem.system", "fem.cross",
         "fem.weighted_mass", "fem.rhs", "precond.build", "precond.factor",
         "precond.apply", "gmres.solve", "gmres.matvec"]


@pytest.fixture
def instrument(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import instrument
    return instrument


def attribute_ids(owners):
    return [{name: id(value) for name, value in vars(owner).items()} for owner in owners]


def run_probed_sweep(instrument, tmp_path):
    """The tracer of a sweep over KINDS run through the installed probes,
    which are restored afterwards."""
    pkg = types.SimpleNamespace(cli=cli, scheme=scheme, fem=fem, precond=precond,
                                gmres=gmres)
    owners = [cli, scheme, fem, precond, gmres, scheme.SimulationConfig,
              precond.Preconditioner, gmres.ReducedOperator]
    before = attribute_ids(owners)
    doc = {
        "scheme": "tps2", "alpha": 0.5, "ell_ex2": 10.0, "T": 0.02, "k": 0.01,
        "mesh": {"kind": "cube", "bounds": UNIT_BOUNDS, "n": [2, 2, 2]},
        "field": {"m0": {"kind": "spiral", "turns": 1.0}},
        "sweep": {"precond": KINDS},
    }
    tmp_path.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"

    tracer = instrument.Tracer(pkg, layers=True)
    recorder = instrument.Recorder(pkg, str(out), None, np.random.default_rng(0), tracer)
    patches = instrument.Patches()
    try:
        tracer.install(patches)
        recorder.install(patches)
        assert attribute_ids(owners) != before
        code = cli.run_experiment(str(config), out_dir=str(out))
    finally:
        patches.restore()
    assert attribute_ids(owners) == before

    assert code == 0
    assert [p.kind for p in recorder.points] == KINDS
    assert [p.failures for p in recorder.points] == [[]] * len(KINDS)
    assert tracer.reconcile() == []
    return tracer


def test_benchmark_probes_install_run_and_restore(instrument, tmp_path, monkeypatch):
    # every factorization of this mesh fits in band storage and calls no
    # splu, the function that the precond.factor span wraps
    tracer = run_probed_sweep(instrument, tmp_path / "band")
    assert [name for name in SPANS if tracer.calls[name] == 0] == ["precond.factor"]
    # with no band fitting, theoretical factors through splu
    monkeypatch.setattr(precond, "BAND_BYTES", 0)
    tracer = run_probed_sweep(instrument, tmp_path / "superlu")
    assert [name for name in SPANS if tracer.calls[name] == 0] == []
