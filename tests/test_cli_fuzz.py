"""In-process fuzz of the exit-code contract of the computing commands.

Every argument list ends in one of two ways: exit 0 with finite output,
or exit 2 (usage) or 3 (numerical failure) with one line on stderr.  No
traceback and no warning from the program may reach the user.
"""

import contextlib
import io
import math
import re
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from donor_halo import cli, list_materials
from donor_halo.materials import _FLOAT_FIELDS

FLOAT_OPTIONS = {
    "profile": ("f0", "r-min", "r-max"),
    "radius": ("f0-min", "f0-max"),
    "power": ("p-min", "p-max"),
    "validity": ("field", "r", "occupancy", "margin"),
}
EXTREMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1.0,
            1e-300, 1e300]
NUMBERS = st.one_of(st.sampled_from(EXTREMES), st.floats(),
                    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
NON_FINITE_TOKEN = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@st.composite
def argument_lists(draw):
    command = draw(st.sampled_from(sorted(FLOAT_OPTIONS)))
    argv = [command, "--material", draw(st.sampled_from(list_materials()))]
    for key in draw(st.lists(st.sampled_from(FLOAT_OPTIONS[command]), unique=True)):
        argv.append(f"--{key}={draw(NUMBERS)!r}")
    for key in draw(st.lists(st.sampled_from(sorted(_FLOAT_FIELDS)), max_size=3)):
        argv += ["--set", f"{key}={draw(NUMBERS)!r}"]
    if command != "validity":
        if draw(st.booleans()):
            argv.append(f"--points={draw(st.integers(-2, 200))}")
        argv.append(f"--format={draw(st.sampled_from(['csv', 'svg']))}")
    if command == "power" and draw(st.booleans()):
        argv.append("--no-quadrupolar")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argument_lists())
@example(["profile", "--f0", "1e308"])
@example(["profile", "--r-min", "1e-300"])
@example(["validity", "--field", "1e308"])
@example(["validity", "--set", "velocity=1e-300"])
@example(["profile", "--set", "bohr_radius=1e-200"])
@example(["power", "--set", "gamma=5e-324"])
@example(["profile", "--set", "spin=1e308"])
def test_cli_exit_code_contract(argv):
    code, out, err, caught = run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC), (argv, code, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == cli.EXIT_OK:
        assert err == "" and out, argv
        assert not NON_FINITE_TOKEN.search(out), argv
    else:
        assert out == "" and err.startswith("donor-halo: "), (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)


LARGEST = 1.7976931348623157e308
POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-300, 1e308, LARGEST]),
                     st.floats(min_value=5e-324, max_value=LARGEST),
                     st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e))


@st.composite
def float_ranges(draw):
    lo, hi = sorted((draw(POSITIVE), draw(POSITIVE)))
    assume(lo < hi)
    return lo, hi


@settings(max_examples=150, deadline=None, derandomize=True)
@given(float_ranges(), float_ranges(), POSITIVE, st.integers(1, 40))
@example((5e-324, LARGEST), (5e-324, LARGEST), 5e-324, 40)
@example((5e-324, LARGEST), (5e-324, LARGEST), LARGEST, 40)
def test_profile_and_radius_answer_every_float_range(r_range, f0_range, f0, points):
    # phi is evaluated in log form, so the default record has a finite
    # answer for every strictly increasing grid of positive floats
    with np.errstate(over="ignore"):     # as in the CLI, which builds the same grid
        grid = np.linspace(*r_range, points)
    assume(points == 1 or np.all(np.diff(grid) > 0.0))
    for argv in (["profile", f"--r-min={r_range[0]!r}", f"--r-max={r_range[1]!r}",
                  f"--f0={f0!r}", f"--points={points}"],
                 ["radius", f"--f0-min={f0_range[0]!r}", f"--f0-max={f0_range[1]!r}",
                  f"--points={points}"]):
        code, out, err, caught = run(argv)
        assert code == cli.EXIT_OK and err == "", (argv, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert not NON_FINITE_TOKEN.search(out), argv
