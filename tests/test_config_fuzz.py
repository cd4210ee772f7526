"""Random config documents against the exit-code contract of `run`.

The documents are built from config_schema(): every key may be left out,
keep its default or take an odd value (another JSON type, a non-finite,
extreme or huge-integer number, a list of the wrong length), every enum and
kind may be any of its values or an odd one, and each kind's keys follow
the kind drawn.  T = k, so a run is one step.  A cube that runs has n <= 3:
the only integers of ODD above 3 are at least 1e30 (or the reals 1e300 and
1e308, which resolve to integers), and a cube with such an n is degenerate.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from tangent_plane_llg import generate_structured_cube, save_mesh
from tangent_plane_llg.cli import main
from tangent_plane_llg.scheme import config_schema

from conftest import UNIT_BOUNDS

SCHEMA = config_schema()

# "mesh.json" names a valid one-cube mesh file in the run's directory
ODD = [None, True, False, "x", "mesh.json", {}, [], math.nan, math.inf, -math.inf,
       0, -1, 0.0, -0.0, 0.5, 1, 2, 3, 1e-320, 1e-300, 1e300, 1e308, -1e308,
       10**30, -10**30, 2**63]
odd = st.sampled_from(ODD)


def mostly(usual, unusual):
    """usual seven times in eight, else unusual; shrinks toward usual."""
    return st.integers(0, 7).flatmap(lambda i: unusual if i == 7 else usual)


def value(default):
    """Mostly the default, else an odd value or, for a list, its entries
    each drawn this way or a list of odd values of the wrong length."""
    unusual = [odd]
    if isinstance(default, list):
        unusual.append(st.tuples(*map(value, default)).map(list))
        unusual.append(st.lists(odd, max_size=4).filter(lambda v: len(v) != len(default)))
    return mostly(st.just(default), st.one_of(unusual))


# a key its kind requires (null in the schema) is a number, a 3-vector or a path
required = st.sampled_from([0.5, [0.0, 0.6, 0.8], "mesh.json"]).flatmap(value)


def section(path, defaults):
    """Mostly a valid document for the config section at path, else an odd
    value; the same for each of its keys."""
    if path in SCHEMA["kinds"]:
        variants = SCHEMA["kinds"][path]
        doc = mostly(st.sampled_from(list(variants)).flatmap(
            lambda kind: keys(path, variants[kind], {"kind": kind})),
            odd.map(lambda kind: {"kind": kind}))
    elif isinstance(defaults, dict):
        doc = keys(path, defaults, {})
    elif path in SCHEMA["enums"]:
        return mostly(st.sampled_from(SCHEMA["enums"][path]), odd)
    else:
        return value(defaults) if defaults is not None else required
    return mostly(doc, odd) if path else doc


def keys(path, defaults, fixed):
    """fixed with any of the keys of defaults, each drawn by section."""
    optional = {key: section(f"{path}.{key}" if path else key, val)
                for key, val in defaults.items() if key != "kind"}
    return st.fixed_dictionaries({}, optional=optional).map(lambda doc: {**fixed, **doc})


documents = section("", SCHEMA["defaults"])


# a budget of 8 s: about 3 s on a 2-core host
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=documents)
def test_random_configs_keep_the_exit_code_contract(tmp_path, monkeypatch, doc):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mesh.json").write_bytes(save_mesh(generate_structured_cube(UNIT_BOUNDS,
                                                                            (1, 1, 1))))
    doc["T"] = doc.get("k", SCHEMA["defaults"]["k"])
    (tmp_path / "config.json").write_text(json.dumps(doc))
    out = pathlib.Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "config.json", "--out", str(out)])  # nothing may escape
    err = stderr.getvalue()
    assert code in (0, 2, 3), (code, err)
    assert err.count("\n") == (1 if code else 0), err
    if code == 2:
        assert err.startswith("config error: ") and not out.exists(), err
