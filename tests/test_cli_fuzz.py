"""Fuzz ``cli.main`` over generated region JSON, policy CSV and experiment
config files: every call ends with a documented exit code (0 ok, 2 bad input,
3 infeasible target, 4 invalid policy), prints no traceback and returns within
a time bound."""

import contextlib
import io
import json
import math
import os
import tempfile
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from plpareto.cli import main
from plpareto.region import MAX_SEGMENTS

EXIT_CODES = {0, 2, 3, 4}
# seconds one call may take; the largest generated inputs (a 64-gon ellipse,
# three Monte-Carlo trials) run well under a second
CALL_SECONDS = 10.0

SPECIAL = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 1e6, 10**400]
coord = st.one_of(
    st.floats(-2.0, 40.0, allow_nan=False),
    st.integers(-2, 40),
    st.sampled_from(SPECIAL),
    st.text(max_size=2),
    st.none(),
)
good_point = st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)).map(list)
# valid points three times out of four, so that many files reach the solver
point = st.one_of(good_point, good_point, good_point, st.lists(coord, max_size=3))
psd_shape = st.tuples(st.floats(0.0, 8.0), st.floats(-1.0, 1.0), st.floats(0.0, 8.0)).map(
    lambda t: [[t[0], t[1]], [t[1], t[2]]])
shape = st.one_of(psd_shape, psd_shape, st.lists(st.lists(coord, max_size=3), max_size=3))
# counts over the cap stay small enough that, were the cap gone, a call
# would only break the time bound, not exhaust memory
segments = st.one_of(
    st.integers(3, 64),
    st.sampled_from([0, 2, MAX_SEGMENTS + 1, 16 * MAX_SEGMENTS, 100 * MAX_SEGMENTS, -1, 64.0,
                     2.5, "64", "many", None, True, math.inf]),
)
region_doc = st.one_of(
    st.fixed_dictionaries({"type": st.just("polygon"),
                           "vertices": st.lists(point, min_size=1, max_size=9)}),
    st.fixed_dictionaries({"type": st.just("ellipse"), "center": point, "shape": shape},
                          optional={"segments": segments}),
    st.fixed_dictionaries({"type": st.just("point"), "at": point}),
    st.fixed_dictionaries({"type": st.text(max_size=8)}),
    st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=2)),
)
number_arg = st.sampled_from(["20", "20", "30", "1", "0.5", "0", "-1", "nan", "inf", "1e-9"])
target_arg = st.one_of(st.floats(-0.5, 1.5, allow_nan=False).map(repr),
                       st.sampled_from(["nan", "inf", "1", "0"]))

csv_value = st.one_of(st.floats(-5.0, 40.0, allow_nan=False).map(repr),
                      st.sampled_from(["nan", "inf", "-inf", "", "x", "1e400"]))
csv_header = st.lists(
    st.tuples(st.sampled_from(["m", "r_low", "r_high", "x_bar", "other"]), csv_value).map(
        lambda kv: f"{kv[0]}={kv[1]}"),
    max_size=5,
).map(lambda toks: "# " + " ".join(toks))
# a policy-shaped file: sorted abscissae, levels in [0, 25]
pl_rows = st.lists(st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 25.0)), min_size=1,
                   max_size=8).map(lambda bps: [f"{x!r},{p!r}" for x, p in sorted(bps)])
junk_rows = st.lists(st.one_of(
    csv_header,
    st.tuples(csv_value, csv_value).map(lambda r: f"{r[0]},{r[1]}"),
    st.sampled_from(["x,p", "1,2,3", ",", "#", "junk"]),
), max_size=4)
pl_csv = st.tuples(
    st.sampled_from([[], ["# m=20 r_low=0.3333333333333333 r_high=1.0 x_bar=16.0"],
                     ["# m=20 r_low=0.3333333333333333 r_high=1.0"]]),
    st.one_of(pl_rows, pl_rows, junk_rows, st.tuples(pl_rows, junk_rows).map(lambda t: t[0] + t[1])),
).map(lambda parts: "\n".join(parts[0] + ["x,p"] + parts[1]) + "\n")

config_value = {
    "advice_kind": st.sampled_from(["box", "ellipse", "point", "none", "grid", "magic", 3]),
    "z": st.sampled_from([1.0, 0.9, 0.5, 0.0, 1.5, math.nan, "z"]),
    "n_samples": st.sampled_from([1, 3, 8, 0, -2, 2.5, "8"]),
    "c_rule": st.sampled_from([1.0, 0.9, 0.0, 1.2, math.nan]),
    "order": st.sampled_from(["adversarial", "stochastic", "random", None]),
    "seed": st.sampled_from([0, 7, 2**40, -1, 1.5, "s"]),
    "n_perms": st.sampled_from([1, 3, 5, 0, -3]),
    "segments": segments,
    "epsilon": st.sampled_from([1e-6, 1e-3, 0.0, -1.0, math.inf]),
    "bogus": st.integers(),
}
model_value = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["uniform-mixture", "normal-mixture", "exotic"]),
    "weight": st.sampled_from([0.9, 0.0, 1.0, 1.5, math.nan]),
    "main_low": st.sampled_from([10.0, 0.0, -5.0, math.inf]),
    "main_high": st.sampled_from([20.0, 5.0, math.nan]),
    "mean": st.sampled_from([15.0, -3.0, math.inf]),
    "sd": st.sampled_from([3.0, 0.0, -1.0, math.nan]),
    "cont_low": st.sampled_from([0.0, 30.0, 10**400]),
    "cont_high": st.sampled_from([30.0, 0.0, -math.inf]),
})
config_doc = st.one_of(
    st.fixed_dictionaries(
        # K and n_test are always small: the default K = 1000 trials is a
        # long run by request, not a hang
        {"r_low": st.sampled_from([1 / 3, 1 / 3, 0.5, 0.0, 2.0, math.nan, 10**400]),
         "r_high": st.sampled_from([1.0, 1.0, 0.2, math.inf]),
         "m": st.sampled_from([20.0, 20.0, 5.0, 0.0, -1.0]),
         "K": st.sampled_from([1, 2, 3, 0, -1, 2.0, None]),
         "n_test": st.sampled_from([1, 5, 12, 0, 1.5])},
        optional={"model": st.one_of(model_value, model_value, st.integers()), **config_value},
    ),
    st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=2)),
)


FILE = "<file>"  # replaced by the written file's path


def _region_argv(draw):
    # flag=value, so that argparse reads a value like -1e-05 as a value
    cmd = draw(st.sampled_from(["cstar", "pareto", "curve"]))
    argv = [cmd, "--region", FILE]
    for flag in draw(st.lists(st.sampled_from(["--m", "--rl", "--rh"]), max_size=2, unique=True)):
        argv.append(f"{flag}={draw(number_arg)}")
    if cmd == "pareto":
        argv.append("--consistency=" + draw(target_arg))
    elif cmd == "curve":
        argv += ["--c-min=" + draw(target_arg), "--c-max=" + draw(target_arg),
                 f"--steps={draw(st.integers(-2, 6))}"]
    return argv


@st.composite
def invocations(draw):
    """(file name, file text, argv) for one CLI call; FILE in argv stands
    for the file's path."""
    kind = draw(st.sampled_from(["region", "pl", "config"]))
    if kind == "region":
        return "region.json", json.dumps(draw(region_doc)), _region_argv(draw)
    if kind == "pl":
        return "pl.csv", draw(pl_csv), ["validate", FILE]
    seed = draw(st.one_of(st.none(), st.integers(-3, 50)))
    extra = [] if seed is None else [f"--seed={seed}"]
    return "config.json", json.dumps(draw(config_doc)), ["simulate", "--config", FILE, *extra]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=invocations())
def test_cli_main_exit_codes_on_generated_files(call):
    name, text, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        argv = [path if a == FILE else a for a in argv]
        if argv[0] == "pareto":
            argv += ["--out", os.path.join(tmp, "out.csv")]
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        elapsed = time.perf_counter() - t0
    assert code in EXIT_CODES, (argv, text, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < CALL_SECONDS, (argv, text, elapsed)
