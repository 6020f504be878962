"""Property tests of the declared input domain (oscillator.DOMAIN).

Any config inside the domain runs generate, sweep and phasespace with finite
output and no floating-point warning; any key moved just outside its bound is
named by the error.  Examples are drawn deterministically, with no example
database, so the suite stays reproducible.
"""

from __future__ import annotations

import atexit
import io
import json
import math
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from wignernet.cli import default_config, main  # noqa: E402
from wignernet.oscillator import DOMAIN  # noqa: E402

# Every bounded config key and the DOMAIN quantity that bounds it.
BOUNDED = {
    "oscillator.m": "m",
    "oscillator.omega": "omega",
    "oscillator.t": "t",
    **{f"sampling.{k}": k for k in ("x0", "p0", "sigma_x0", "hbar_log10")},
    **{f"{s}.{k}": k for s in ("sweep", "phasespace") for k in ("x0", "p0", "sigma_x0")},
    "sweep.hbar_log10_min": "hbar_log10",
    "sweep.hbar_log10_max": "hbar_log10",
    "phasespace.hbar_values": "hbar",
    "phasespace.grid_min": "grid",
    "phasespace.grid_max": "grid",
}

# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch, and
# that import warns; as an error it would abort the run instead of reporting it.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
FEW = settings(max_examples=40, derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants of the source it finds while tests are
# collected; a directory removed at exit keeps that cache out of the checkout.
HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(HYPOTHESIS_HOME)


@st.composite
def configs(draw):
    """A config with every bounded key drawn inside the domain, and small sizes."""
    cfg = {}
    for key, quantity in BOUNDED.items():
        section, name = key.split(".")
        value = st.floats(*DOMAIN[quantity])
        if section == "sampling":
            value = st.lists(value, min_size=2, max_size=2).map(sorted)
        elif name == "hbar_values":  # each names its file by its %g text
            value = st.lists(value, min_size=1, max_size=3, unique_by="{:g}".format)
        cfg.setdefault(section, {})[name] = draw(value)
    sweep, grid = cfg["sweep"], cfg["phasespace"]
    lo, hi = sorted((sweep["hbar_log10_min"], sweep["hbar_log10_max"]))
    sweep |= {"hbar_log10_min": lo, "hbar_log10_max": hi, "n_points": 3 if hi - lo >= 0.1 else 1}
    grid["grid_min"], grid["grid_max"] = sorted((grid["grid_min"], grid["grid_max"]))
    assume(grid["grid_min"] < grid["grid_max"])
    grid["grid_points"] = 4
    return cfg


def run_quietly(out, cfg, *commands):
    """Exit codes of the commands on cfg, written to out, with the warnings
    they raised and their stderr."""
    path = out / "config.json"
    path.write_text(json.dumps(cfg | {"out_dir": str(out)}))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        with redirect_stdout(io.StringIO()):
            codes = [main([*command, "--config", str(path)]) for command in commands]
    return codes, caught, err.getvalue()


@FEW
@given(cfg=configs())
def test_in_domain_configs_run_with_finite_output_and_no_warning(tmp_path_factory, cfg):
    out = tmp_path_factory.mktemp("domain")
    commands = (["generate", "--n", "20"], ["sweep", "--oracle"], ["phasespace", "--oracle"])
    codes, caught, err = run_quietly(out, cfg, *commands)
    assert codes == [0, 0, 0], err
    assert caught == []
    written = sorted(p.name for p in out.glob("*.csv"))
    assert len(written) == 3 + len(cfg["phasespace"]["hbar_values"])  # dataset, splits, sweep
    for path in out.glob("*.csv"):
        text = path.read_text()
        assert "nan" not in text and "inf" not in text, path.name


@FEW
@given(cfg=configs(), key=st.sampled_from(sorted(BOUNDED)), top=st.booleans())
def test_a_key_just_outside_its_bound_is_named(tmp_path_factory, cfg, key, top):
    section, name = key.split(".")
    lo, hi = DOMAIN[BOUNDED[key]]
    outside = math.nextafter(hi, math.inf) if top else math.nextafter(lo, -math.inf)
    value = cfg[section][name]
    if isinstance(value, list):  # a range's max or min end, or one hbar value
        value[-1 if top else 0] = outside
    else:
        cfg[section][name] = outside
    out = tmp_path_factory.mktemp("outside")
    codes, caught, err = run_quietly(out, cfg, ["generate", "--n", "20"])
    assert codes == [1]
    assert caught == []
    assert err.startswith(f"error: {key} ")
    assert err.endswith(f" is outside [{lo:g}, {hi:g}]\n")


def test_every_float_key_but_the_learning_rate_is_bounded():
    floats = {
        f"{section}.{key}"
        for section, values in default_config().items()
        if isinstance(values, dict)
        for key, value in values.items()
        if type(value[0] if isinstance(value, list) else value) is float
    }
    assert floats == set(BOUNDED) | {"training.learning_rate"}


def test_defaults_sit_a_factor_100_inside_the_domain():
    defaults = default_config()
    for key, quantity in BOUNDED.items():
        section, name = key.split(".")
        values = np.atleast_1d(defaults[section][name]).astype(np.float64)
        lo, hi = DOMAIN[quantity]
        if quantity == "hbar_log10":  # a factor 100 in hbar is two decades
            values, lo, hi = 10.0**values, 10.0**lo, 10.0**hi
        inner_lo = lo * 100 if lo > 0 else lo / 100
        assert np.all((inner_lo <= values) & (values <= hi / 100)), key
