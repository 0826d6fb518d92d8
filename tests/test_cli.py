import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from oligocat import cli

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run_cli(*args):
    out = subprocess.run([sys.executable, "-m", "oligocat.cli", *args],
                         capture_output=True, text=True)
    return out.returncode, out.stdout, out.stderr


def test_measure_example():
    code, out, _ = run_cli("measure", "--ctx", "sym", "--set", "Sub(3)")
    assert code == 0
    assert out == "(t^3 - 3t^2 + 2t)/6\n"


def test_charseries_example():
    code, out, _ = run_cli("charseries", "--ctx", "sym",
                           "--matrix", "allones:Omega", "--order", "4")
    assert code == 0
    assert out == "1 + t*u + O(u^4)\n"


def test_measure_order_context():
    code, out, _ = run_cli("measure", "--ctx", "order:-1,-1",
                           "--set", "Power(2)")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli("measure", "--ctx", "order:0,0", "--set", "Omega")
    assert code == 0 and out.strip() == "1"


def test_measure_at_point():
    code, out, _ = run_cli("measure", "--ctx", "sym", "--set", "Inj(2)",
                           "--at", "5")
    assert code == 0 and out.strip() == "20"
    code, out, _ = run_cli("measure", "--ctx", "sym", "--set", "Sub(2)",
                           "--at", "p:2:0")
    assert code == 0 and out.strip() == "0"


def test_orbits_json_round_trip():
    code, out, _ = run_cli("--format", "json", "orbits", "--ctx", "sym",
                           "--set", "Power(2)", "--level", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["level"] == 1
    # determinism: identical invocation gives byte-identical output
    code2, out2, _ = run_cli("--format", "json", "orbits", "--ctx", "sym",
                             "--set", "Power(2)", "--level", "1")
    assert out == out2


def test_hom_counts():
    code, out, _ = run_cli("hom", "--ctx", "order:-1,-1",
                           "--x", "Omega", "--y", "Omega")
    assert code == 0 and out.strip().endswith("dim Hom = 3")


def test_compose_and_trace():
    code, out, _ = run_cli("compose", "--ctx", "sym",
                           "--matrix", "allones:Omega",
                           "--matrix", "allones:Omega")
    assert code == 0 and "t" in out
    code, out, _ = run_cli("trace", "--ctx", "sym",
                           "--matrix", "identity:Omega", "--at", "7")
    assert code == 0 and out.strip() == "7"


def test_decompose():
    code, out, _ = run_cli("decompose", "--ctx", "order:-1,-1",
                           "--x", "Omega", "--at", "3")
    assert code == 0
    dims = sorted(line.split(":")[0] for line in out.splitlines())
    assert dims == ["dim -1", "dim -1", "dim 1"]


def test_verify_suite_exit_codes():
    code, out, _ = run_cli("verify", "--suite", "order-counts")
    assert code == 0
    assert all(": pass" in line for line in out.strip().splitlines())


def test_verify_json():
    code, out, _ = run_cli("--format", "json", "verify", "--suite",
                           "glq-identities")
    assert code == 0
    blob = json.loads(out)
    assert all(c["ok"] for c in blob["checks"])


def test_usage_errors():
    code, _, err = run_cli("measure", "--ctx", "nope", "--set", "Omega")
    assert code == 2 and "error" in err
    code, _, err = run_cli("measure", "--ctx", "sym", "--set", "Junk(3)")
    assert code == 2


def test_out_of_memory_exits_2(monkeypatch, capsys):
    """A command that runs out of memory ends in MemoryError; the CLI
    reports it and exits 2.  The parser is made to raise, so nothing large
    is allocated."""
    from oligocat.setexpr import SetExpr

    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(SetExpr, "from_text", exhausted)
    assert cli.main(["measure", "--ctx", "sym", "--set",
                     "Power(99999999999)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: out of memory\n"


@pytest.mark.parametrize("ctx", ["sym", "order:-1,-1"])
def test_one_orbit_near_the_slot_bound_is_listed(ctx, capsys):
    """Sub(999) has one orbit; enumeration places one slot per level, with
    no recursion per slot, so it is listed."""
    assert cli.main(["orbits", "--ctx", ctx, "--set", "Sub(999)"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "# 1 orbits"


@pytest.mark.parametrize("at", [
    "1e5000", "1e100000000", "1E-4000", "-2.5e+3001", "7" * 3001,
    "1/" + "3" * 3000, "1e" + "9" * 5000, "1e+0000" + "9" * 12],
    ids=["1e5000", "1e100000000", "1E-4000", "-2.5e+3001", "3001 digits",
         "denominator", "exponent of 5000 digits", "exponent of 12 digits"])
def test_long_evaluation_point_exits_2_before_fraction(at, monkeypatch,
                                                       capsys):
    """An evaluation point whose digits with its exponent pass the bound
    of polynomial text is refused with exit 2 before Fraction reads it."""
    def refuse(*args):
        raise AssertionError("Fraction called")

    monkeypatch.setattr(cli, "Fraction", refuse)
    assert cli.main(["measure", "--ctx", "sym", "--set", "Sub(2)",
                     "--at=" + at]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: evaluation point of up to ")
    assert captured.err.endswith(f" digits, past {cli._MAX_AT_DIGITS}\n")


def test_evaluation_point_within_the_bound(capsys):
    """Points up to the bound are read exactly: the measure of Omega is t,
    so it prints the point."""
    assert cli._MAX_AT_DIGITS == 3000
    for at, value in [("1e3", "1000"), ("2.50e2", "250"), ("-3/4", "-3/4"),
                      ("1" * 3000, "1" * 3000), ("1e2999", "1" + "0" * 2999),
                      ("0" * 2999 + "5", "5"), ("5e-2998", "1/2" + "0" * 2997)]:
        assert cli.main(["measure", "--ctx", "sym", "--set", "Omega",
                         "--at=" + at]) == 0
        assert capsys.readouterr().out == value + "\n"


def test_too_deep_recursion_exits_2(monkeypatch, capsys):
    """A command that ends in RecursionError is reported without a
    traceback and exits 2.  The parser is made to raise, so nothing
    recurses."""
    from oligocat.setexpr import SetExpr

    def too_deep(text):
        raise RecursionError

    monkeypatch.setattr(SetExpr, "from_text", too_deep)
    assert cli.main(["orbits", "--ctx", "sym", "--set", "Sub(3)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: too many slots to enumerate\n"


@pytest.mark.parametrize("ctx", ["sym", "order:-1,-1"])
def test_product_past_the_slot_bound_exits_2(ctx, monkeypatch, capsys):
    """Sub(600) passes the parser, but Hom(X, Y) enumerates the orbits of
    Y x X, a component of 1,200 slots: refused with exit 2 before
    anything is enumerated."""
    from oligocat import ordercontext, symcontext

    def refuse(*args):
        raise AssertionError("orbits enumerated")

    monkeypatch.setattr(symcontext, "_partitions", refuse)
    monkeypatch.setattr(symcontext, "_sorted_patterns", refuse)
    monkeypatch.setattr(ordercontext, "_weak_orders", refuse)
    monkeypatch.setattr(ordercontext, "_sorted_weak_orders", refuse)
    assert cli.main(["hom", "--ctx", ctx, "--x", "Sub(600)",
                     "--y", "Sub(600)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 1200 slots and 0 constants are too many "
                            "to enumerate (at most 1000)\n")


def test_closed_stdout_exits_1_quietly():
    """A reader that stops after one line gets exit 1 and an empty stderr,
    not a BrokenPipeError traceback; the table is larger than a pipe
    buffer, so the CLI is still writing when the pipe closes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "oligocat.cli", "orbits", "--ctx",
         "order:-1,-1", "--set", "Power(6)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_fraisse_commands():
    code, out, _ = run_cli("fraisse", "--class", "orders",
                           "--check", "amalgams")
    assert code == 0 and "# 3 amalgamations" in out
    code, out, _ = run_cli("fraisse", "--class", "boron", "--check", "theta")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli("fraisse", "--class", "sets", "--check", "measure",
                           "--max-size", "4")
    assert code == 0 and "pass" in out


NU_T_TABLE = {"set:0": 1, "set:1": "t", "set:2": "t^2 - t",
              "set:3": "t^3 - 3t^2 + 2t"}
NU_T_PASS = ("pass ({'structures': 4, 'multiplicativity': 20, "
             "'amalgamation-instances': 20})")


@pytest.mark.parametrize("table,code,verdict", [
    (NU_T_TABLE, 0, NU_T_PASS),
    ({**NU_T_TABLE, "set:2": "t^2"}, 1, "FAIL [('amalgamation', ")],
    ids=["nu_t", "perturbed"])
def test_fraisse_polynomial_table(table, code, verdict, tmp_path, capsys):
    """A table of polynomial values is checked with the identities
    multiplied through by the source values: the values of the built-in
    sets-nu_t pass with its counts, a perturbed value fails with a
    witness."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    argv = ["fraisse", "--class", "sets", "--check", "measure",
            "--max-size", "3"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"sets-nu_t up to size 3: {NU_T_PASS}\n"
    assert cli.main(argv + ["--table", str(path)]) == code
    assert capsys.readouterr().out.startswith(
        f"set-table up to size 3: {verdict}")


RADO_TABLE = {"graph:0:": 1, "graph:1:": 2, "graph:2:": 1, "graph:2:0-1": 1}


@pytest.mark.parametrize("table,code,out", [
    (RADO_TABLE, 0, "graph invariant table: pass [] ({'checked': 1})\n"),
    (dict.fromkeys(RADO_TABLE, 1), 1,
     "graph invariant table: FAIL [('Graph(2, [(0, 1)])', (0, 1), '1', '3')]"
     " ({'checked': 1})\n")],
    ids=["single-edge", "all-ones"])
def test_fraisse_rado_table(table, code, out, tmp_path, capsys):
    """A graph invariant table is checked by the edge-contraction identity:
    the rado-demo single-edge values pass, all ones fail with a witness."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert cli.main(["fraisse", "--class", "graphs", "--check", "rado",
                     "--max-size", "2", "--table", str(path)]) == code
    assert capsys.readouterr().out == out


def test_glq_commands():
    code, out, _ = run_cli("glq", "--q", "2", "--what", "pascal")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli("glq", "--q", "3", "--what", "grassmann",
                           "--bound", "3")
    assert code == 0


@pytest.mark.parametrize("ctx", ["sym", "order:-1,0"])
@pytest.mark.parametrize("text,factor", [
    ("Power(1001)", "Power(1001)"), ("Inj(1001)", "Inj(1001)"),
    ("Sub(1001)", "Sub(1001)"), ("Sub(600)*Omega*Inj(400)", "Inj(400)")])
def test_oversized_set_is_refused_at_parse_time(ctx, text, factor,
                                                monkeypatch, capsys):
    """A component of more than MAX_SLOTS slots exits 2 naming the factor
    that passes the bound, before any backend sees the set."""
    from oligocat.ordercontext import OrderContext
    from oligocat.symcontext import SymContext

    def refuse(*args):
        raise AssertionError("the set reached the backend")

    for cls in (SymContext, OrderContext):
        monkeypatch.setattr(cls, "set_measure", refuse)
    assert cli.main(["measure", "--ctx", ctx, "--set", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: factor {factor!r} takes its component "
                            f"past 1000 slots\n")


def test_set_at_the_slot_bound_is_measured(capsys):
    assert cli.main(["measure", "--ctx", "order:-1,-1", "--set",
                     "Sub(1000) + Sub(999)*Omega"]) == 0
    assert capsys.readouterr().out == "2\n"


SETS_TABLE = ["fraisse", "--class", "sets", "--check", "measure",
              "--max-size", "2", "--table"]


@pytest.mark.parametrize("argv", [
    ["measure", "--ctx", "glq:2", "--set", "Sub(3)"],
    ["fraisse", "--class", "sets", "--check", "measure",
     "--table", "/nonexistent/table.json"],
    ["orbits", "--ctx", "sym", "--set", "Omega", "--level", "-1"],
    ["fraisse", "--class", "sets", "--check", "measure", "--max-size", "-1"],
    ["glq", "--q", "2", "--what", "omega", "--bound", "-1"],
    ["verify", "--suite", "rado-demo", "--threads", "2"],
    ["verify", "--suite", "rado-demo", "--ctx", "sym"],
    ["trace", "--ctx", "sym", "--matrix", "orbit:Power(1):[{1,2}]@N=0#c4"],
    ["trace", "--ctx", "sym", "--matrix", "orbit:Power(1):[{1,5}]@N=0"],
    ["trace", "--ctx", "sym", "--matrix", "orbit:Power(1):[{1}]@N=0"],
    ["trace", "--ctx", "sym", "--matrix",
     "orbit:Power(1):[{1}|pin=3,{2}]@N=0"],
    ["trace", "--ctx", "order:-1,-1", "--matrix", "orbit:Power(1):z1<r1"],
    ["trace", "--ctx", "order:-1,-1", "--matrix", "orbit:Power(1):r1@r=0"],
    ["trace", "--ctx", "order:-1,-1", "--matrix",
     "orbit:Power(1):r1<b1<r1@r=0"],
    ["trace", "--ctx", "order:-1,-1", "--matrix",
     "orbit:Power(1):#0<b1@r=0"],
    ["fraisse", "--class", "boron", "--check", "measure", "--measure", "zz"],
    SETS_TABLE + [{"set:0": 1, "set:1": [1], "set:2": 1}],
    SETS_TABLE + [{"set:0": 1, "set:1": None, "set:2": 1}],
    SETS_TABLE + [[1, 2]],
    SETS_TABLE + [{"set:0": 1}],
    SETS_TABLE + [{"set:0": 1, "set:1": 0.1, "set:2": 1}],
    SETS_TABLE + [{"set:0": True, "set:1": 1, "set:2": 1}],
    ["fraisse", "--class", "graphs", "--check", "rado", "--max-size", "2",
     "--table", {"graph:0:": 1, "graph:1:": "t", "graph:2:": 1,
                 "graph:2:0-1": 1}],
    ["trace", "--ctx", "sym", "--matrix", "graph:sym:0"],
    ["trace", "--ctx", "order", "--matrix", "graph:sym:0"],
    SETS_TABLE + [{"set:0": 1, "set:1": "t^1001", "set:2": 1}],
    ["fraisse", "--class", "sets", "--check", "theta"],
    ["fraisse", "--class", "sets", "--check", "rado"],
    ["fraisse", "--class", "orders", "--check", "measure", "--measure", "nu"],
    SETS_TABLE + [{"set:0": 1, "set:1": "t", "set:2": "t^2 - t"},
                  "--measure", "nu"],
    ["fraisse", "--class", "orders", "--check", "amalgams",
     "--table", "/nonexistent.json"],
    ["fraisse", "--class", "boron", "--check", "theta",
     "--table", "/nonexistent.json"],
    ["fraisse", "--class", "boron", "--check", "theta", "--max-size", "0"],
    ["fraisse", "--class", "orders", "--check", "amalgams",
     "--max-size", "0"],
], ids=["glq-context", "missing-table", "negative-level",
        "negative-max-size", "negative-bound", "threads", "verify-ctx",
        "sym-orbit-component", "sym-orbit-slot", "sym-orbit-missing-slot",
        "sym-orbit-junk", "order-orbit-token", "order-orbit-missing-slot",
        "order-orbit-repeated-slot", "order-orbit-constant-0",
        "boron-measure", "table-list-value", "table-null-value",
        "table-array", "table-missing-key", "table-float", "table-bool",
        "rado-polynomial", "sym-graph-sym-0", "order-graph-sym-0",
        "table-degree-1001", "theta-class", "rado-class", "measure-orders",
        "measure-table", "amalgams-table", "theta-table", "theta-max-size",
        "amalgams-max-size"])
def test_refused_input_exits_2(argv, tmp_path):
    """Refused input exits 2 with no traceback; a non-string argument is a
    JSON table, passed as the path of a file holding it."""
    table = tmp_path / "table.json"
    for a in argv:
        if not isinstance(a, str):
            table.write_text(json.dumps(a))
    code, out, err = run_cli(*(a if isinstance(a, str) else str(table)
                               for a in argv))
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("klass, check", [
    ("sets", "measure"), ("orders", "measure"), ("boron", "measure"),
    ("graphs", "measure"), ("graphs", "rado")])
def test_max_size_above_the_ceiling_is_refused_first(klass, check, tmp_path,
                                                    monkeypatch, capsys):
    """A --max-size above the class's max_size exits 2 before anything is
    enumerated; at the ceiling the check starts enumerating."""
    from oligocat import fraisse

    def enumerating(kind, size):
        raise AssertionError(f"enumerated {kind} structures of size {size}")

    monkeypatch.setattr(fraisse, "all_structures", enumerating)
    table = tmp_path / "table.json"
    table.write_text("{}")
    ceiling = fraisse.KINDS[klass.removesuffix("s")].max_size
    argv = ["fraisse", "--class", klass, "--check", check]
    if klass == "graphs":
        argv += ["--table", str(table)]
    assert cli.main(argv + ["--max-size", str(ceiling + 1)]) == 2
    assert "--max-size" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="enumerated"):
        cli.main(argv + ["--max-size", str(ceiling)])


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_stdout(case, capsys):
    """stdout is byte-identical to the recorded corpus."""
    assert cli.main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]



def test_orbit_text_is_checked_without_enumerating(monkeypatch, capsys):
    """An orbit text at a high level is checked on its blocks: the orbits
    of X x X at that level are never enumerated."""
    from oligocat.setexpr import SetExpr, product
    from oligocat.symcontext import SymContext

    xx = product(SetExpr.from_text("Power(1)"), SetExpr.from_text("Power(1)"))
    calls = []
    orbits = SymContext.orbits

    def recording(self, expr, level):
        calls.append((expr, level))
        return orbits(self, expr, level)

    monkeypatch.setattr(SymContext, "orbits", recording)
    assert cli.main(["trace", "--ctx", "sym", "--matrix",
                     "orbit:Power(1):[{1},{2}]@N=300"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert (xx, 300) not in calls


def _orbit_text_cases(st):
    """Hypothesis strategy of (ctx, set, orbit text) for trace --matrix:
    texts of real orbits, block and token strings that may or may not name
    one, and junk."""
    from oligocat import OrderContext, SymContext
    from oligocat.setexpr import SetExpr, product

    sets = ["Power(1)*Power(1)", "Inj(2)", "Sub(2)"]
    ctxs = {"sym": SymContext(), "order:-1,-1": OrderContext(-1, -1)}

    def real_orbit(name, x, level, i):
        xx = product(SetExpr.from_text(x), SetExpr.from_text(x))
        pats = ctxs[name].orbits(xx, level)
        return name, x, ctxs[name].orbit_text(xx, pats[i % len(pats)])

    num = st.integers(0, 6).map(str)
    comp = st.sampled_from(["", "#c0", "#c1", "#c4"])
    sym_block = st.builds(
        lambda slots, pin: "{%s%s}" % (",".join(slots),
                                        "" if pin is None else f"|pin={pin}"),
        st.lists(num, max_size=3), st.one_of(st.none(), num))
    sym_text = st.builds(
        lambda blocks, level, c: "[%s]@N=%d%s" % (",".join(blocks), level, c),
        st.lists(sym_block, max_size=4), st.integers(0, 2), comp)
    token = st.builds(str.__add__, st.sampled_from(["r", "b", "z", "#"]),
                      st.sampled_from(["", "0", "1", "2", "3"]))
    order_text = st.builds(
        lambda classes, level, c: "<".join("=".join(cls) for cls in classes)
        + f"@r={level}{c}",
        st.lists(st.lists(token, min_size=1, max_size=3), max_size=4),
        st.integers(0, 2), comp)
    junk = st.text(alphabet="[]{},|=<@#:Nrbcpin0123", max_size=16)
    return st.one_of(
        st.builds(real_orbit, st.sampled_from(sorted(ctxs)),
                  st.sampled_from(sets), st.integers(0, 2),
                  st.integers(0, 10 ** 6)),
        st.tuples(st.sampled_from(sorted(ctxs)), st.sampled_from(sets),
                  st.one_of(sym_text, order_text, junk)))


def test_orbit_strings_never_raise():
    """Generated orbit texts, valid or not, give exit 0 or 2 and no
    exception, in both backends."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_orbit_text_cases(hypothesis.strategies))
    def run(case):
        ctx, x, text = case
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["trace", "--ctx", ctx, "--matrix",
                             f"orbit:{x}:{text}"])
        assert code in (0, 2)

    run()


def _table_cases(st):
    """Hypothesis strategy of (class, JSON table) for fraisse --table:
    objects over table_skeleton keys up to size 2, complete (mostly with
    integer values) or not, arrays and scalars, with int, float, string,
    bool, null and list values."""
    from oligocat.fraisse import table_skeleton

    kinds = {"sets": "set", "orders": "order", "graphs": "graph",
             "boron": "boron"}
    skeleton = {c: sorted(table_skeleton(k, 2)) for c, k in kinds.items()}
    keys = sorted({k for ks in skeleton.values() for k in ks})
    scalar = st.one_of(
        st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
        st.sampled_from(["t", "-3/4", "1/0", "3/", "t^2 - t", "(1", ""]),
        st.text(max_size=4))
    value = st.one_of(scalar, st.lists(scalar, max_size=2))
    mostly_int = st.one_of(st.integers(-3, 3), st.integers(0, 2),
                           st.sampled_from(["t", "t^2 - t", "1/2"]), value)

    def complete(klass):
        return st.fixed_dictionaries({k: mostly_int for k in skeleton[klass]})

    def tables(klass):
        return st.one_of(complete(klass), complete(klass), complete("graphs"),
                         st.dictionaries(st.sampled_from(keys), value),
                         st.lists(value, max_size=3), scalar)

    return st.sampled_from(sorted(kinds)).flatmap(
        lambda klass: st.tuples(st.just(klass), tables(klass)))


def test_fraisse_tables_never_raise(tmp_path):
    """Generated --table files, valid or not, give exit 0, 1 or 2 and no
    exception, for --check measure and --check rado."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "table.json"

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_table_cases(hypothesis.strategies))
    def run(case):
        klass, table = case
        path.write_text(json.dumps(table))
        for check in ("measure", "rado"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["fraisse", "--class", klass, "--check",
                                 check, "--max-size", "2", "--table",
                                 str(path)])
            assert code in (0, 1, 2)

    run()


def _command_cases(st):
    """Hypothesis strategy of whole argv lists for the set, matrix and
    algebra commands: small sets (at most two slots per component, unions,
    1 and 0) or junk, every context and malformed ones, levels from -1 to 2,
    --at points with the p: forms, 1/0 and junk, and named matrices."""
    factor = st.sampled_from(["Omega", "Power(1)", "Inj(1)", "Sub(1)",
                              "Power(2)", "Inj(2)", "Sub(2)", "Power(0)"])

    def fits(factors):
        return sum(int(f[-2]) if f[-1] == ")" else 1 for f in factors) <= 2

    comp = st.one_of(st.just("1"), st.lists(factor, min_size=1, max_size=2)
                     .filter(fits).map("*".join))
    good_set = st.one_of(st.just("0"),
                         st.lists(comp, min_size=1, max_size=2).map("+".join))
    set_text = st.one_of(good_set, good_set, st.sampled_from(
        ["", "Power(", "Sub(-1)", "Inj(2)*", "Foo", "1+", "R"]))
    good_ctx = st.sampled_from(["sym", "order", "order:-1,-1", "order:0,-1",
                                "order:-1,0", "order:0,0"])
    ctx = st.one_of(good_ctx, good_ctx, st.sampled_from(
        ["order:1,1", "order:x", "order:0", "glq:2", "sym:1", ""]))
    level = st.integers(-1, 2).map(str)
    good_at = st.sampled_from(["0", "1", "2", "5", "-3", "1/2", "p:5:2"])
    at = st.one_of(good_at, good_at, st.sampled_from(
        ["1/0", "p:4:1", "p:0:1", "p:5", "p:x:1", "t", "", "junk"]))
    sym_block = st.builds(
        lambda slots, pin: "{%s%s}" % (",".join(slots),
                                        "" if pin is None else f"|pin={pin}"),
        st.lists(st.integers(0, 5).map(str), max_size=3),
        st.one_of(st.none(), st.integers(0, 3).map(str)))
    orbit_text = st.one_of(
        st.sampled_from(["[{1},{2}]@N=0", "[{1,2}]@N=0", "[{1|pin=1},{2}]@N=1",
                         "[{1,3},{2,4}]@N=0", "r1<b1@r=0", "r1=b1@r=0",
                         "#1<r1<b1@r=1", "r1<r2<b1<b2@r=0"]),
        st.builds(lambda blocks, lvl: "[%s]@N=%d" % (",".join(blocks), lvl),
                  st.lists(sym_block, max_size=4), st.integers(0, 2)),
        st.builds(lambda toks, lvl: "<".join(toks) + f"@r={lvl}",
                  st.lists(st.sampled_from(["r1", "r2", "b1", "b2", "r1=b1",
                                            "#1", "z1"]), max_size=4),
                  st.integers(0, 2)),
        st.text(alphabet="[]{},|=<@#:Nrb0123", max_size=12))
    slots = st.lists(st.integers(-1, 3).map(str), max_size=3).map(",".join)
    matrix = st.one_of(
        st.builds("identity:{}".format, set_text),
        st.builds("allones:{}".format, set_text),
        st.builds("orbit:{}:{}".format, set_text, orbit_text),
        st.builds("graph:proj:{}:{}".format, set_text, slots),
        st.builds("graph:diag:{}".format, set_text),
        st.builds("graph:sym:{}".format,
                  st.sampled_from(["0", "1", "2", "3", "-1", "x", ""])),
        st.sampled_from(["graph:cyc:1", "junk", ""]))
    maybe_at = st.one_of(st.none(), at)

    def command(name, *options):
        """argv of one command from (flag, strategy) pairs; a drawn None
        leaves its flag out."""
        return st.tuples(*(value for _, value in options)).map(
            lambda values: [name] + [
                a for (flag, _), v in zip(options, values) if v is not None
                for a in (flag, v)])

    return st.one_of(
        command("measure", ("--ctx", ctx), ("--set", set_text),
                ("--at", maybe_at)),
        command("orbits", ("--ctx", ctx), ("--set", set_text),
                ("--level", level), ("--at", maybe_at)),
        command("hom", ("--ctx", ctx), ("--x", set_text), ("--y", set_text)),
        st.builds(lambda c, ms: ["compose", "--ctx", c]
                  + [a for m in ms for a in ("--matrix", m)],
                  ctx, st.lists(matrix, min_size=1, max_size=3)),
        command("trace", ("--ctx", ctx), ("--matrix", matrix),
                ("--at", maybe_at)),
        command("charseries", ("--ctx", ctx), ("--matrix", matrix),
                ("--order", st.integers(-1, 4).map(str))),
        command("decompose", ("--ctx", ctx), ("--x", set_text), ("--at", at)),
        command("frobenius", ("--ctx", ctx), ("--x", set_text)))


def test_commands_never_raise():
    """Generated whole commands, valid or not, give exit 0, 1 or 2 and no
    exception; argparse refuses an option value by exiting 2."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.example(["trace", "--ctx", "sym", "--matrix", "graph:sym:0"])
    @hypothesis.given(_command_cases(hypothesis.strategies))
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)

    run()
