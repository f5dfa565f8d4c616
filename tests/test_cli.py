"""CLI surface: subcommands, alpha-cut CSV format, exit codes, parser fuzzing."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fuzzcalc
from fuzzcalc.cli import run, write_alpha_csv
from fuzzcalc.core import (
    AlphaGrid,
    FuzzyNumber,
    make_triangular,
    mul,
    singleton,
)

GRID = AlphaGrid.uniform()

WORKED_PROBLEM = """\
# fully fuzzy quadratic growth, one Taylor step of order 2
command = solve-ivp
rhs = x^2 + y^2
x0 = T(0.7, 1, 1.2)
y0 = T(2.1, 2.3, 2.5)
h = T(0.07, 0.1, 0.12)
order = 2
steps = 1
"""


def data_rows(path):
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]


def read_table(path) -> FuzzyNumber:
    """The value an alpha-cut table holds, read back with numpy."""
    alpha, lower, upper = np.loadtxt(data_rows(path)[1:], delimiter=",", unpack=True)
    return FuzzyNumber(AlphaGrid(alpha), lower, upper)


def module_env(**changes) -> dict:
    """The environment of a ``python -m fuzzcalc`` child that imports the
    package this test imported."""
    src = os.path.dirname(os.path.dirname(fuzzcalc.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                **changes)


def error_line(capsys) -> str:
    """The report of a command that failed inside its handler: nothing on
    stdout and one ``Name: message`` line on stderr."""
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"[A-Za-z]\w*: .*\n", err), err
    return err


# -- alpha tables -------------------------------------------------------------------


def test_write_singleton_three_levels(tmp_path):
    out = tmp_path / "zero.csv"
    write_alpha_csv(singleton(0.0, AlphaGrid.uniform(3)), out)
    rows = data_rows(out)
    assert rows[0] == "alpha,lower,upper"
    parsed = [tuple(float(x) for x in r.split(",")) for r in rows[1:]]
    assert parsed == [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.0, 0.0)]


def test_write_triangular_midrow_formatting(tmp_path):
    out = tmp_path / "t.csv"
    write_alpha_csv(make_triangular((2.1, 2.3, 2.5), GRID), out)
    rows = data_rows(out)
    # row at alpha = 0.5: 2.1 + 0.2*0.5 and 2.5 - 0.2*0.5
    assert rows[1 + 50] == "0.5,2.2,2.4"


def test_csv_round_trip_is_exact(tmp_path):
    a = mul(make_triangular((0.7, 1.0, 1.2), GRID), make_triangular((2.1, 2.3, 2.5), GRID))
    out = tmp_path / "prod.csv"
    write_alpha_csv(a, out, metadata={"command": "test", "generated": "whenever"})
    assert read_table(out) == a


def test_csv_deterministic_outside_metadata(tmp_path):
    a = make_triangular((1, 2, 3), GRID)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_alpha_csv(a, p1, metadata={"generated": "run-1"})
    write_alpha_csv(a, p2, metadata={"generated": "run-2"})
    assert data_rows(p1) == data_rows(p2)


def test_csv_ends_with_lf_newline(tmp_path):
    out = tmp_path / "t.csv"
    write_alpha_csv(singleton(1.0, AlphaGrid.uniform(3)), out)
    raw = out.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_a_shorter_table_rewrites_a_longer_one_to_exactly_its_rows(tmp_path):
    out = tmp_path / "t.csv"
    write_alpha_csv(make_triangular((1, 2, 3), AlphaGrid.uniform(50)), out, metadata={"command": "long"})
    short = make_triangular((4, 5, 6), AlphaGrid.uniform(3))
    write_alpha_csv(short, out)
    assert out.read_text() == "alpha,lower,upper\n0.0,4.0,6.0\n0.5,4.5,5.5\n1.0,5.0,5.0\n"
    assert read_table(out) == short


def test_a_rewritten_table_keeps_its_inode(tmp_path):
    target, link, hard = tmp_path / "t.csv", tmp_path / "link.csv", tmp_path / "hard.csv"
    write_alpha_csv(make_triangular((1, 2, 3), GRID), target)
    link.symlink_to(target)
    os.link(target, hard)
    inode = target.stat().st_ino
    value = make_triangular((4, 5, 6), AlphaGrid.uniform(3))
    write_alpha_csv(value, link)
    assert link.is_symlink() and target.stat().st_ino == inode
    assert read_table(target) == read_table(hard) == value
    write_alpha_csv(singleton(1.0, AlphaGrid.uniform(3)), hard)
    assert hard.stat().st_ino == inode and read_table(target) == singleton(1.0, AlphaGrid.uniform(3))


def test_a_table_is_opened_without_truncation(tmp_path, monkeypatch):
    # a truncating open of a file whose rows are not yet on disk can wait
    # for them to be written out first
    flags, real_open = [], os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    out = tmp_path / "t.csv"
    for grid in (GRID, AlphaGrid.uniform(3)):
        write_alpha_csv(make_triangular((1, 2, 3), grid), out)
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)
    assert len(data_rows(out)) == 4


def test_a_table_to_dev_stdout_is_written_as_a_stream():
    # stdout is a pipe, which cannot be cut to length
    env = module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzcalc", "eval", "--expr", "x^2", "--bind", "x=T(1,2,3)", "--alphas", "3",
         "--out", "/dev/stdout"], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "alpha,lower,upper\n0.0,1.0,9.0\n0.5,2.25,6.25\n1.0,4.0,4.0\n" in proc.stdout
    assert proc.stdout.endswith("alpha table written to /dev/stdout\n")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_report_to_a_closed_pipe_ends_in_one_line(buffered):
    # as in `fuzzcalc eval ... | true`: the reader is gone before the report
    # is written; a buffered report not flushed would fail at interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzcalc", "eval", "--expr", "x + 1", "--bind", "x=T(1,2,3)"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=module_env(PYTHONUNBUFFERED="" if buffered else "1"),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "BrokenPipeError: [Errno 32] Broken pipe\n")


# every boundary of str.splitlines (which perfbench's table reader uses),
# and the text a report prints for them
_BREAKS = "\n\r\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAKS_ESCAPED = repr(_BREAKS)[1:-1]


def test_table_metadata_keeps_each_line_break_on_its_comment_line(tmp_path, capsys):
    text = "x +" + _BREAKS + "1"
    out = tmp_path / "v.csv"
    assert run(["eval", "--expr", text, "--bind", "x=T(1,2,3)", "--alphas", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        lines = fh.read().splitlines()
    assert lines[:3] == ["# command: eval", "# expression: " + repr(text)[1:-1], "alpha,lower,upper"]
    assert not any(ln.startswith("#") for ln in lines[3:]) and len(lines) == 5


@pytest.mark.parametrize("argv, echoed", [
    (["eval", "--expr", "x +{}1", "--bind", "x=1"], "expression: x +{}1"),
    (["solve-ivp", "--rhs", "x +{}y", "--x0", "0", "--y0", "1", "--h", "0.1"], "rhs: x +{}y"),
    (["series", "--coeff-rule", "1/{}n!"], "coefficient rule: 1/{}n!"),
    (["series", "--taylor-of", "exp({}x)", "--var", "x", "--center", "T(-1,0,1)", "--order", "10"],
     "taylor expansion of: exp({}x)  (order 10)"),
])
def test_a_report_prints_a_line_break_in_argv_text_escaped(argv, echoed, capsys):
    assert run([arg.format(" ") for arg in argv]) == 0
    spaced = capsys.readouterr().out
    assert run([arg.format(_BREAKS) for arg in argv]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1] == echoed.format(_BREAKS_ESCAPED)
    # one line per report field, as with a space in its place
    assert out.splitlines() == [line.replace(echoed.format(" "), echoed.format(_BREAKS_ESCAPED))
                                for line in spaced.splitlines()]


def test_an_error_prints_a_line_break_in_argv_text_escaped(capsys):
    assert run(["derive", "--expr", "x", "--var", "x" + _BREAKS + "y", "--bind", "x=1"]) == 2
    assert error_line(capsys) == f"ProblemFileError: --var x{_BREAKS_ESCAPED}y: no binding given for it\n"


# -- eval / derive -------------------------------------------------------------------


def test_eval_addition(capsys):
    assert run(["eval", "--expr", "T(1,2,3) + T(1,2,3)"]) == 0
    out = capsys.readouterr().out
    assert "value triplet (2dp): (2.00, 4.00, 6.00)" in out


def test_eval_prints_a_value_too_large_to_scale_to_2dp(capsys):
    # 1e307 * 100 overflows, but a double that large is already an integer
    assert run(["eval", "--expr", "x", "--bind", "x=1e307"]) == 0
    out = capsys.readouterr().out
    assert f"value triplet (2dp): ({1e307:.2f}, {1e307:.2f}, {1e307:.2f})" in out


def test_eval_reads_numbers_with_an_exponent(capsys):
    assert run(["eval", "--expr", "2.5e-3*x", "--bind", "x=T(1e-5,2e-5,3e-5)"]) == 0
    core = float("2.5e-3") * float("2e-5")
    assert f"value core: [{core!r}, {core!r}]" in capsys.readouterr().out


def test_eval_writes_table(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = run(["eval", "--expr", "x^2", "--bind", "x=T(1,2,3)",
                "--alphas", "11", "--out", str(out)])
    assert code == 0
    value = read_table(out)
    assert len(value.grid) == 11
    assert value.support.lo == pytest.approx(1.0)
    assert value.support.hi == pytest.approx(9.0)


def test_table_metadata_names_the_command_and_inputs_only(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run(["eval", "--expr", "x^2", "--bind", "x=T(1,2,3)", "--out", str(out)]) == 0
    with open(out) as fh:
        meta = [ln.rstrip("\n") for ln in fh if ln.startswith("#")]
    assert meta == ["# command: eval", "# expression: x^2"]
    assert capsys.readouterr().out.endswith(f"alpha table written to {out}\n")


def test_derive_square(capsys):
    assert run(["derive", "--expr", "x^2", "--var", "x", "--bind", "x=T(1,2,3)"]) == 0
    out = capsys.readouterr().out
    assert "derivative triplet (2dp): (2.00, 4.00, 6.00)" in out


# -- series ---------------------------------------------------------------------------


def test_series_symbolic_rule(capsys):
    code = run(["series", "--coeff-rule", "n / T(4,5,6)^(n-1)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "radius mode: symbolic-ratio" in out
    assert "radius triplet (2dp): (4.00, 5.00, 6.00)" in out


def test_series_four_quotient_constant(capsys):
    code = run(["series", "--coeff-rule", "T(1,2,3)", "--radius-mode", "four-quotient"])
    assert code == 0
    out = capsys.readouterr().out
    assert "radius mode: four-quotient" in out
    # support [1/3, 3]
    assert "radius triplet (2dp): (0.33, 1.00, 3.00)" in out


def test_series_taylor_exp_is_everywhere_convergent(capsys):
    code = run(["series", "--taylor-of", "exp(x)", "--var", "x",
                "--center", "T(-1,0,1)", "--order", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "radius: infinite" in out
    assert "ratio test converges: True" in out


def test_series_triplets_stay_finite_near_the_float_limit(capsys):
    # the core of a_0 and a_1 is exp(709.5), whose lo + hi overflows
    code = run(["series", "--taylor-of", "exp(x)", "--var", "x",
                "--center", "T(709,709.5,709.7)", "--order", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "a_0 triplet: (8.218407461554972e+307, 1.3549863193146328e+308, 1.6549840276802644e+308)" in out
    triplets = [line for line in out.splitlines() if "triplet" in line]
    assert len(triplets) == 6 and not any("inf" in line for line in triplets)


# -- solve-ivp ---------------------------------------------------------------------------


def test_solve_ivp_problem_file(tmp_path, capsys):
    pf = tmp_path / "problem.txt"
    pf.write_text(WORKED_PROBLEM)
    table = tmp_path / "y.csv"
    assert run(["solve-ivp", "--file", str(pf), "--out", str(table)]) == 0
    out = capsys.readouterr().out
    assert "y triplet (2dp): (2.49, 3.08, 3.71)" in out
    rows = data_rows(table)
    assert len(rows) == 1 + 101
    # final row is the core: both envelopes at the crisp 3.08367
    alpha, lo, hi = (float(x) for x in rows[-1].split(","))
    assert alpha == 1.0
    assert lo == pytest.approx(3.08367, abs=1e-12)
    assert hi == pytest.approx(3.08367, abs=1e-12)


def test_solve_ivp_inline_flags(capsys):
    code = run(["solve-ivp", "--rhs", "x^2 + y^2", "--x0", "T(0.7,1,1.2)",
                "--y0", "T(2.1,2.3,2.5)", "--h", "T(0.07,0.1,0.12)",
                "--order", "2", "--steps", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "y triplet (2dp): (2.49, 3.08, 3.71)" in out
    # 1.2 + 0.12 must display as 1.32 despite float dust below the 2dp cut
    assert "x triplet (2dp): (0.77, 1.10, 1.32)" in out


def test_solve_ivp_flags_override_file(tmp_path, capsys):
    pf = tmp_path / "problem.txt"
    pf.write_text(WORKED_PROBLEM)
    assert run(["solve-ivp", "--file", str(pf), "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "step 2 truncation magnitude" in out


# -- values that begin with '-' --------------------------------------------------------------

# a value that begins with '-' as each argv's first option value, as the
# decay ODE y' = -y
LEADING_MINUS = [
    (["solve-ivp", "--rhs", "-y", "--x0", "0", "--y0", "1", "--h", "0.1"], 0, "y triplet: (0.905, 0.905, 0.905)"),
    (["eval", "--expr", "-x", "--bind", "x=T(1,2,3)"], 0, "value triplet: (-3.0, -2.0, -1.0)"),
    (["derive", "--expr", "-x", "--var", "x", "--bind", "x=T(1,2,3)"], 0,
     "derivative triplet (2dp): (-1.00, -1.00, -1.00)"),
    (["series", "--taylor-of", "-exp(x)", "--var", "x", "--center", "T(-1,0,1)", "--order", "10"], 0,
     "  a_2 triplet: (-1.3591409142295225, -0.5, -0.18393972058572117)"),
    # read, and then refused by the radius probe: a_2 of -x is 0
    (["series", "--taylor-of", "-x", "--var", "x", "--center", "T(-1,0,1)", "--order", "3"], 1,
     "NoLimit: coefficient 2 has a zero support endpoint"),
]


@pytest.mark.parametrize("argv, code, line", LEADING_MINUS, ids=[" ".join(argv) for argv, *_ in LEADING_MINUS])
def test_a_value_may_begin_with_a_minus(argv, code, line, capsys):
    assert run(argv) == code
    report = capsys.readouterr()
    assert line in (report.out if code == 0 else report.err).splitlines()
    # the same report as the option=value spelling, which argparse always read
    assert run([argv[0], f"{argv[1]}={argv[2]}", *argv[3:]]) == code
    assert capsys.readouterr() == report


@pytest.mark.parametrize("value", ["--alphas", "-h", "--alp"])
def test_an_option_string_is_not_read_as_a_value(value, capsys):
    # nor is a prefix argparse reads as one: each is an option lacking its value
    assert run(["eval", "--expr", value, "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fuzzcalc eval") and err.endswith("argument --expr: expected one argument\n")


# -- exit codes ------------------------------------------------------------------------------


def test_exit_2_on_bad_expression(capsys):
    assert run(["eval", "--expr", "x + * y"]) == 2
    assert "ExprSyntaxError" in error_line(capsys)


def test_exit_2_on_unknown_function(capsys):
    assert run(["eval", "--expr", "tan(x)", "--bind", "x=1"]) == 2
    assert "UnknownFunction" in error_line(capsys)


def test_exit_1_on_domain_error(capsys):
    cases = (
        (["eval", "--expr", "T(1,2,3) / T(-1,0,1)"], "DivisorStraddlesZero"),
        # a gH-difference whose cuts do not nest: printed, its core [0.5, 0.5]
        # would lie outside its support [-1, 0]
        (["eval", "--expr", "x - y", "--bind", "x=T(0,1,2)", "--bind", "y=T(0,0.5,3)"],
         "ImproperOperand"),
    )
    # numpy's overflow warnings must not reach stderr ahead of the error
    cases += ((["eval", "--expr", "exp(x) - exp(x)", "--bind", "x=T(700,800,900)"], "ImproperOperand"),)
    # arithmetic overflow; the package does not name these errors yet
    cases += tuple((argv, "") for argv in (
        ["solve-ivp", "--rhs", "x^2 + y^2", "--x0", "T(0.7,1,1.2)", "--y0", "T(2.1,2.3,2.5)",
         "--h", "T(0.07,0.1,0.12)", "--order", "4", "--steps", "40"],
        ["eval", "--expr", "exp(x)", "--bind", "x=T(700,800,900)"],
        ["series", "--taylor-of", "exp(x)/" + "9" * 201, "--var", "x", "--center", "T(-1,0,1)",
         "--order", "4"],
    ))
    for argv, error in cases:
        assert run(argv) == 1
        err = error_line(capsys)
        assert error in err and "Traceback" not in err


def test_exit_1_on_unbound_variable(capsys):
    assert run(["eval", "--expr", "x + 1"]) == 1
    assert "UnboundVariable" in error_line(capsys)


def test_exit_2_on_usage_errors(tmp_path, capsys):
    assert run(["eval"]) == 2  # missing --expr
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["solve-ivp", "--rhs", "y"]) == 2  # missing fields
    assert "ProblemFileError" in error_line(capsys)
    bad = tmp_path / "bad.txt"
    bad.write_text("rhs = y\nwhat = ever\n")
    assert run(["solve-ivp", "--file", str(bad)]) == 2
    assert "ProblemFileError" in error_line(capsys)
    # an argument out of its bound is named by the library check that owns it
    order_error = "InvalidArgument: truncation order must be an integer from 1 to 4, got 7\n"
    fields = ["--rhs", "y", "--x0", "0", "--y0", "1", "--h", "0.1"]
    assert run(["solve-ivp", *fields, "--order", "7"]) == 2
    assert error_line(capsys) == order_error
    for line, error in (("order = 7", order_error),
                        ("steps = 0", "InvalidArgument: number of steps must be an integer from 1 to 10000, got 0\n")):
        bad.write_text(f"rhs = y\nx0 = 0\ny0 = 1\nh = 0.1\n{line}\n")
        assert run(["solve-ivp", "--file", str(bad)]) == 2
        assert error_line(capsys) == error
    # a non-finite crisp value is a usage error wherever it is given
    for argv in (
        ["eval", "--expr", "x^2", "--bind", "x=inf"],
        ["eval", "--expr", "x^2", "--bind", "x=1e400"],
        ["eval", "--expr", "x^2", "--bind", "x=nan"],
        ["series", "--taylor-of", "exp(x)", "--var", "x", "--center", "nan", "--order", "4"],
        ["solve-ivp", "--rhs", "x+y", "--x0", "0", "--y0", "inf", "--h", "0.1"],
    ):
        assert run(argv) == 2
        err = error_line(capsys)
        assert "ProblemFileError" in err and "Traceback" not in err
    # a series order too small to probe is named by the series' own probe,
    # before any coefficient is printed
    assert run(["series", "--taylor-of", "exp(x)", "--var", "x", "--center", "T(-1,0,1)", "--order", "2"]) == 2
    assert error_line(capsys) == "InvalidArgument: too short to probe: the series has 3 explicit coefficients\n"
    for tol in ("-1", "nan", "inf"):
        argv = ["derive", "--expr", "x^2", "--var", "x", "--bind", "x=T(1,2,3)", "--tol", tol]
        assert run(argv) == 2
        assert error_line(capsys) == f"InvalidArgument: tol must be positive and finite, got {float(tol)!r}\n"
    # nesting past the parser's bound is a usage error, not a RecursionError
    for text in ("(" * 250 + "x" + ")" * 250, "sin(" * 300 + "x" + ")" * 300, "-" * 1500 + "x"):
        assert run(["eval", f"--expr={text}", "--bind", "x=T(1,2,3)"]) == 2
        err = error_line(capsys)
        assert "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["series", "--taylor-of", "exp(x)", "--var", "x", "--center", "T(-1,0,1)", "--order", "-1"],
     "order must be an integer from 0 to 170, got -1"),
    (["series", "--taylor-of", "x", "--var", "x", "--center", "T(-1,0,1)", "--order", "171"],
     "order must be an integer from 0 to 170, got 171"),
    (["eval", "--expr", "x", "--bind", "x=1", "--alphas", "1"], "grid resolution must be an integer from 2 to 1000001, got 1"),
    (["eval", "--expr", "x^1025", "--bind", "x=T(1,1,1)"],
     "exponent must be an integer from 0 to 1024, got 1025"),
    # the probe at n = 8 takes the base to the power 8 + 1017
    (["series", "--coeff-rule", "T(1,2,3)^(n+1017)", "--radius-mode", "symbolic"],
     "exponent must be an integer from 0 to 1024, got 1025"),
    (["eval", "--expr", "x", "--bind", "x=T(1,2,3)", "--alphas", "1000000000000"],
     "grid resolution must be an integer from 2 to 1000001, got 1000000000000"),
    (["solve-ivp", "--rhs", "x + y", "--x0", "T(0,0.1,0.2)", "--y0", "T(1,1.1,1.2)", "--h",
      "T(0.001,0.002,0.003)", "--order", "2", "--steps", "10001"],
     "number of steps must be an integer from 1 to 10000, got 10001"),
], ids=["series order", "series order past the float factorials", "alphas", "expression power",
        "rule power shift", "alphas past the resolution bound", "steps past the step bound"])
def test_exit_2_on_an_argument_out_of_its_bound(argv, message, capsys):
    # the library check that owns the bound names it, before any
    # multiplication, so a power of any size fails at once
    assert run(argv) == 2
    assert error_line(capsys) == f"InvalidArgument: {message}\n"


# (argv, a problem file's text or None, the error line); "{file}" is that file
USAGE_ERRORS = [
    (["eval", "--expr", "x", "--bind", "x=T(1,2,3)*2"], None,
     "ProblemFileError: expected a triplet literal, got 'T(1,2,3)*2'"),
    (["eval", "--expr", "x", "--bind", "x=abc"], None, "ProblemFileError: expected T(d,e,f) or a number, got 'abc'"),
    (["solve-ivp", "--file", "{file}"], None, "ProblemFileError: cannot read problem file: "),
    (["derive", "--expr", "x^2", "--var", "x", "--bind", "y=1"], None,
     "ProblemFileError: --var x: no binding given for it"),
    (["series"], None, "ProblemFileError: give exactly one of --taylor-of or --coeff-rule"),
    (["series", "--taylor-of", "x", "--coeff-rule", "n"], None,
     "ProblemFileError: give exactly one of --taylor-of or --coeff-rule"),
    (["series", "--taylor-of", "exp(x)", "--center", "0", "--order", "4"], None,
     "ProblemFileError: --taylor-of needs --var, --center, and --order"),
    (["solve-ivp", "--file", "{file}"], "command = eval\nrhs = y\n",
     "ProblemFileError: problem file is for 'eval', not solve-ivp"),
    (["solve-ivp", "--file", "{file}"], "rhs = y\nx0 = 0\ny0 = 1\nh = 0.1\norder = two\n",
     "ProblemFileError: bad integer field: invalid literal for int() with base 10: 'two'"),
]


@pytest.mark.parametrize("argv, problem, error", USAGE_ERRORS, ids=[
    "binding not a triplet", "binding not a number", "missing file", "var unbound", "no series source",
    "two series sources", "taylor without var", "problem for another command", "order not an integer"])
def test_exit_2_names_each_usage_error(argv, problem, error, tmp_path, capsys):
    path = tmp_path / "problem.txt"
    if problem is not None:
        path.write_text(problem)
    assert run([a.format(file=path) for a in argv]) == 2
    assert error_line(capsys).startswith(error)


def test_a_rule_past_the_float_range_ends_in_a_value_or_a_named_error(capsys):
    # n^400 passes the float range at the probes: its coefficients fold to inf
    assert run(["series", "--coeff-rule", "n^400", "--radius-mode", "symbolic"]) == 0
    assert "ratio test: no limit declared at the probe indices" in capsys.readouterr().out
    assert run(["series", "--coeff-rule", "n^400", "--radius-mode", "four-quotient"]) == 1
    assert error_line(capsys) == "NoLimit: quotient probes are not finite\n"
    # the degree in n is a power's exponent, bounded before any coefficient is built
    assert run(["series", "--coeff-rule", "n^1025", "--radius-mode", "symbolic"]) == 2
    assert error_line(capsys) == "InvalidArgument: exponent must be an integer from 0 to 1024, got 1025\n"


NINES = "9" * 400


@pytest.mark.parametrize("argv, position", [
    (["eval", "--expr", NINES + " + x", "--bind", "x=1"], 0),
    (["eval", "--expr", "T(1,2," + NINES + ")"], 6),
    (["series", "--coeff-rule", NINES + " * n", "--radius-mode", "symbolic"], 0),
    (["series", "--coeff-rule", "99999^999 * n", "--radius-mode", "symbolic"], 0),
], ids=["crisp literal", "triangle component", "rule literal", "rule power"])
def test_exit_2_on_a_number_that_is_not_finite(argv, position, capsys):
    # every number in expression and rule text is read by one reader, which
    # names a value that is not finite at its position
    assert run(argv) == 2
    assert error_line(capsys) == (
        f"ExprSyntaxError: number literal too large for a finite float (at position {position})\n")


def test_exit_2_on_a_zero_below_the_line_of_a_rule(capsys):
    assert run(["series", "--coeff-rule", "n/0", "--radius-mode", "symbolic"]) == 2
    assert error_line(capsys) == "ExprSyntaxError: zero below the line in rule (at position 2)\n"


def test_exit_2_on_bad_binding(capsys):
    assert run(["eval", "--expr", "x", "--bind", "x:T(1,2,3)"]) == 2
    assert "ProblemFileError" in error_line(capsys)
    assert run(["eval", "--expr", "x", "--bind", "x=T(3,2,1)"]) == 1  # malformed triplet
    assert "MalformedTriplet" in error_line(capsys)


def test_parser_fuzz_never_crashes(capsys):
    rng = np.random.default_rng(20240817)
    for _ in range(150):
        length = int(rng.integers(1, 40))
        garbage = bytes(rng.integers(32, 127, size=length)).decode("ascii")
        code = run(["eval", "--expr", garbage])
        assert code in (0, 1, 2)
        capsys.readouterr()
    # plainly malformed inputs report usage errors specifically
    for text in ("((((", "1 +", "T(", ")(", "^^", "@#$%"):
        assert run(["eval", "--expr", text]) == 2
        capsys.readouterr()


def test_module_entry_point_help():
    env = module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzcalc", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "solve-ivp" in proc.stdout
