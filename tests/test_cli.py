import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coverideals import cli, resolution
from coverideals.cli import main
from coverideals.resolution import BOX_CAP


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# gens

def test_gens_counterexample_t1(capsys):
    code, out, _ = run(capsys, "gens", "--counterexample", "--t", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data["generators"]) == {"x2*x3", "x1*x2*x4", "x1*x3*x4"}


def test_gens_counterexample_t2(capsys):
    code, out, _ = run(capsys, "gens", "--counterexample", "--t", "2", "--format", "json")
    assert code == 0
    generators = set(json.loads(out)["generators"])
    assert generators == {
        "x2^2*x3^2", "x1*x2*x3*x4", "x1^2*x2^2*x4^2", "x1^2*x3^2*x4^2"
    }


def test_gens_complete_counts(capsys):
    code, out, _ = run(capsys, "gens", "--complete", "12", "--t", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 36
    code, out, _ = run(capsys, "gens", "--complete", "5", "--t", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 16


def test_gens_table_output(capsys):
    code, out, _ = run(capsys, "gens", "--complete", "3", "--t", "1")
    assert code == 0
    assert "x1*x2" in out and "3 minimal generators" in out


def test_gens_requires_t(capsys):
    code, _, err = run(capsys, "gens", "--complete", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# check-cwl

def test_check_cwl_complete_passes(capsys):
    code, out, _ = run(capsys, "check-cwl", "--complete", "4", "--t", "3")
    assert code == 0
    assert "componentwise linear" in out


def test_check_cwl_counterexample_t2_fails_with_degree4(capsys):
    code, out, _ = run(
        capsys, "check-cwl", "--counterexample", "--t", "2", "--format", "json"
    )
    assert code == 1
    data = json.loads(out)
    assert data["overall"] is False
    failing = [e for e in data["per_degree"] if e["verdict"] == "not linear"]
    assert failing[0]["degree"] == 4
    code, out, _ = run(capsys, "check-cwl", "--counterexample", "--t", "2")
    assert code == 1
    assert "degree 4: not linear (offending beta at i=1, j=6)\n" in out


def test_check_cwl_counterexample_t1_passes(capsys):
    code, out, _ = run(capsys, "check-cwl", "--counterexample", "--t", "1")
    assert code == 0


def test_check_cwl_ideal_file(tmp_path, capsys):
    f = tmp_path / "xy.ideal"
    f.write_text("vars 2\nx1\nx2\n")
    code, out, _ = run(capsys, "check-cwl", "--ideal", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["overall"] is True


# ---------------------------------------------------------------------------
# betti

def test_betti_counterexample_component4(capsys):
    code, out, _ = run(
        capsys, "betti", "--counterexample", "--t", "2", "--component", "4",
        "--format", "json", "--multigraded",
    )
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Q"
    assert data["coarse"] == [[0, 4, 2], [1, 6, 1]]
    assert [1, [1, 2, 2, 1], 1] in data["multigraded"]


def test_betti_ideal_file(tmp_path, capsys):
    f = tmp_path / "xy.ideal"
    f.write_text("vars 2\nx1\nx2\n")
    code, out, _ = run(capsys, "betti", "--ideal", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["coarse"] == [[0, 1, 2], [1, 2, 1]]


def test_betti_engines_agree_via_cli(capsys):
    _, out1, _ = run(
        capsys, "betti", "--complete", "4", "--t", "2", "--engine", "taylor",
        "--format", "json", "--multigraded",
    )
    _, out2, _ = run(
        capsys, "betti", "--complete", "4", "--t", "2", "--engine", "koszul",
        "--format", "json", "--multigraded",
    )
    assert json.loads(out1) == json.loads(out2)


def test_betti_coarse_json_expands_no_orbit(capsys, monkeypatch):
    # without --multigraded the Koszul table's orbits are never expanded,
    # and the JSON holds the field and the coarse table, as the full one does
    argv = ["betti", "--complete", "5", "--t", "3", "--component", "12", "--format", "json"]
    _, full, _ = run(capsys, *argv, "--multigraded")

    def refuse(*args):
        raise AssertionError("an orbit was expanded")

    monkeypatch.setattr(resolution, "_twin_orbit", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    expected = json.loads(full)
    del expected["multigraded"]
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_field_bound_refuses_huge_primes_at_once(capsys):
    # 10^20 + 39 is prime; trial division up to its square root would take
    # minutes, so the size bound must refuse it first
    code, _, err = run(
        capsys, "check-cwl", "--complete", "3", "--t", "1", "--field", "100000000000000000039"
    )
    assert code == 2
    assert "2^31" in err
    code, out, _ = run(
        capsys, "check-cwl", "--complete", "3", "--t", "2", "--field", "1000000007",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["field"] == "F1000000007"


def test_betti_field_flag(capsys):
    code, out, _ = run(
        capsys, "betti", "--complete", "3", "--t", "2", "--field", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["field"] == "F2"


def test_betti_taylor_capacity_exit_code(capsys):
    code, _, err = run(
        capsys, "betti", "--complete", "5", "--t", "6", "--engine", "taylor"
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        # every degree-30 monomial in 10 variables: past the enumeration cap
        ("betti", "--ideal", "{x1}", "--component", "30"),
        # 22 generators against the default backtracking cap of 20
        ("quotients", "--complete", "7", "--t", "6", "--order", "backtracking"),
    ],
    ids=["component-enumeration", "backtracking"],
)
def test_default_cap_exit_codes(tmp_path, capsys, argv):
    f = tmp_path / "x1.ideal"
    f.write_text("vars 10\nx1\n")
    code, _, err = run(capsys, *(a.format(x1=f) for a in argv))
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "text, degree, stderr",
    [
        ("vars 2\nx1\n", 70, "error: exponent 69 exceeds the cap 64\n"),  # x1*x2^69
        ("vars 2\nx1^60\n", 66, "error: exponent 65 exceeds the cap 64\n"),  # x1^65*x2
        ("vars 3\nx1*x2^3\nx2^2*x3^5\nx3^60\n", 66,
         "error: exponent 66 exceeds the cap 64\n"),
    ],
)
def test_betti_component_past_the_exponent_cap(tmp_path, capsys, text, degree, stderr):
    # the exponent named is the largest of the deglex-first degree-D monomial
    # past the cap, as when every multiple is checked on entry in deglex order
    f = tmp_path / "near-cap.ideal"
    f.write_text(text)
    assert run(capsys, "betti", "--ideal", str(f), "--component", str(degree)) == (
        3, "", stderr)


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ("check-cwl --ideal {x1} --t 2", 2, "", "error: --t only applies to graph sources\n"),
        ("check-cwl --complete 4", 2, "", "error: graph sources need --t\n"),
        ("quotients --complete 4 --order theorem", 2, "", "error: --order theorem needs --t\n"),
        ("polymatroidal --ideal {zero}", 2, "",
         "error: zero ideal has no degree components to check\n"),
        # a degree below every generator's is a zero component, which holds
        ("polymatroidal --complete 4 --t 2 --component 1 --format json", 0,
         '{"components": [{"degree": 1, "ok": true, "witness": null, "zero": true}], '
         '"overall": true}\n', ""),
        ("polymatroidal --complete 4 --t 2 --component 1", 0, "degree 1: exchange holds\n", ""),
        # input errors name the text they reject
        ("check-cwl --complete 3 --t 1 --field x", 2, "",
         "error: bad field 'x': expected Q, a prime p or Fp\n"),
        ("betti --complete 3 --t 1 --field F", 2, "",
         "error: bad field 'F': expected Q, a prime p or Fp\n"),
        ("search --n 3 --t 1,x", 2, "",
         "error: bad --t list '1,x': expected comma-separated integers\n"),
        ("search --n 3 --t ,", 2, "", "error: no t values given\n"),
        ("gens --graph {edge} --t 1", 2, "", "error: bad edge line '1 x'\n"),
        ("check-cwl --ideal {header}", 2, "", "error: bad vars line 'vars 2 junk'\n"),
    ],
)
def test_source_checks_and_zero_components(tmp_path, capsys, argv, code, out, err):
    paths = {name: tmp_path / f"{name}.ideal" for name in ("x1", "zero", "header")}
    paths["edge"] = tmp_path / "edge.graph"
    paths["x1"].write_text("vars 2\nx1\n")
    paths["zero"].write_text("vars 2\n")
    paths["header"].write_text("vars 2 junk\nx1\n")
    paths["edge"].write_text("graph 3\n1 x\n")
    assert run(capsys, *(a.format(**paths) for a in argv.split())) == (code, out, err)


def test_betti_koszul_box_capacity_exit_code(tmp_path, capsys):
    n = BOX_CAP.bit_length()  # x1..xn span a box of 2^n > BOX_CAP cells
    f = tmp_path / "vars.ideal"
    f.write_text(f"vars {n}\n" + "".join(f"x{i}\n" for i in range(1, n + 1)))
    code, _, err = run(capsys, "betti", "--engine", "koszul", "--ideal", str(f))
    assert code == 3
    assert "cap" in err


def test_betti_table_output(capsys):
    code, out, _ = run(capsys, "betti", "--complete", "3", "--t", "1")
    assert code == 0
    assert "beta[0,2] = 3" in out
    code, out, _ = run(capsys, "betti", "--complete", "3", "--t", "1", "--multigraded")
    assert code == 0
    assert out.endswith(
        "multigraded:\n  beta[0,(0, 1, 1)] = 1\n  beta[0,(1, 0, 1)] = 1\n"
        "  beta[0,(1, 1, 0)] = 1\n  beta[1,(1, 1, 1)] = 2\n"
    )


# ---------------------------------------------------------------------------
# quotients

def test_quotients_theorem_order_k32(capsys):
    code, out, _ = run(
        capsys, "quotients", "--complete", "3", "--t", "2", "--order", "theorem",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["steps"] == [["x1"], ["x2"], ["x3"]]


def test_quotients_deglex_k45(capsys):
    code, out, _ = run(
        capsys, "quotients", "--complete", "4", "--t", "5", "--order", "deglex"
    )
    assert code == 0
    assert "linear quotients hold" in out


def test_quotients_backtracking_counterexample_fails(capsys):
    code, out, _ = run(
        capsys, "quotients", "--counterexample", "--t", "2", "--order", "backtracking",
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize(
    "source, code",
    [(("--complete", "4", "--t", "5"), 0), (("--counterexample", "--t", "2"), 1)],
    ids=["passing", "failing"],
)
def test_quotients_checks_the_deglex_listing_once(capsys, monkeypatch, source, code):
    # the check is counted under both names it is reachable by
    calls = []
    check = resolution.linear_quotients_check

    def counting(order):
        calls.append(order)
        return check(order)

    monkeypatch.setattr(cli, "linear_quotients_check", counting)
    monkeypatch.setattr(resolution, "linear_quotients_check", counting)
    assert run(capsys, "quotients", *source, "--order", "deglex")[0] == code
    assert len(calls) == 1


def test_quotients_theorem_needs_complete(capsys):
    code, _, err = run(
        capsys, "quotients", "--counterexample", "--t", "2", "--order", "theorem"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# polymatroidal

def test_polymatroidal_component_flag(capsys):
    code, out, _ = run(
        capsys, "polymatroidal", "--complete", "4", "--t", "3", "--component", "9",
        "--format", "json",
    )
    # the top component of K_4^(3) genuinely fails the exchange condition
    assert code == 1
    data = json.loads(out)
    assert data["components"][0]["degree"] == 9
    assert data["components"][0]["ok"] is False
    assert data["components"][0]["witness"] is not None
    code, out, _ = run(capsys, "polymatroidal", "--complete", "4", "--t", "3")
    assert code == 1
    assert out == (
        "degree 7: exchange holds\ndegree 8: exchange holds\n"
        "degree 9: FAILS (witness u=x1*x2^2*x3^2*x4^4, v=x2^3*x3^3*x4^3, i=1)\n"
    )


def test_polymatroidal_k3_all_components_pass(capsys):
    code, out, _ = run(
        capsys, "polymatroidal", "--complete", "3", "--t", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_polymatroidal_rejects_two_squares(tmp_path, capsys):
    f = tmp_path / "squares.ideal"
    f.write_text("vars 2\nx1^2\nx2^2\n")
    code, out, _ = run(capsys, "polymatroidal", "--ideal", str(f), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["overall"] is False
    assert data["components"][0]["witness"]["i"] in (1, 2)


# ---------------------------------------------------------------------------
# search

def test_search_small_chordal_t1(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "3", "--t", "1", "--chordal-only", "--no-timing"
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["per_t"]["1"]["cwl_fail"] == 0


def test_search_n4_t2_chordal_finds_failures(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "4", "--t", "2", "--chordal-only", "--no-timing"
    )
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["per_t"]["2"]["cwl_fail"] > 0


def test_search_csv_format(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "2", "--t", "1", "--format", "csv", "--no-timing"
    )
    assert code == 0
    assert out.splitlines()[0] == "n,t,edges,chordal,cwl,failing_degree,gens,ms"


def test_search_csv_is_pinned(capsys):
    # sha256 of the output of the CSV writer that lived in the search module
    code, out, _ = run(
        capsys, *"search --n-min 3 --n-max 5 --t 1,2,3 --complete-only --format csv "
        "--no-timing".split()
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d07a0edba126005c85e9d5311affa1dbb38d7a01dc47c745ecbdaf5c1b3f5ad6"
    )


def test_search_deterministic_output(capsys):
    _, out1, _ = run(capsys, "search", "--n", "3", "--t", "1,2", "--no-timing")
    _, out2, _ = run(capsys, "search", "--n", "3", "--t", "1,2", "--no-timing")
    assert out1 == out2


def test_search_budget_is_a_generator_count(capsys):
    argv = ("search", "--n", "4", "--t", "2", "--no-timing", "--budget")
    # 40 skips the star K_{1,3} (81 component generators, 4 labellings) and
    # the paw (46, 12 labellings); 0 means no budget
    for budget, skipped in (("40", 16), ("0", 0)):
        _, out, _ = run(capsys, *argv, budget)
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["per_t"]["2"]["skipped"] == skipped
    code, _, err = run(capsys, *argv, "-1")
    assert code == 2
    assert "budget" in err


# ---------------------------------------------------------------------------
# plumbing

def test_graph_file_source(tmp_path, capsys):
    f = tmp_path / "tri.graph"
    f.write_text("graph 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "gens", "--graph", str(f), "--t", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "gens", "--graph", "/nonexistent", "--t", "1")
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "gens")  # no graph source
    assert code == 2
    # only the commands that compute ranks take --field
    for command in ("gens", "quotients", "polymatroidal"):
        code, _, _ = run(capsys, command, "--complete", "3", "--t", "1", "--field", "4")
        assert code == 2, command


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([name, "--help"] for name, _, _ in cli._COMMANDS),
        [],
        ["bogus"],
        ["gens"],
        ["betti", "--complete", "3", "--bogus"],
        ["-h", "search"],
        # a usage error of every command: one its own parser reports, and an
        # unknown argument, which the parser of every command reports
        *([name, "--format", "bogus"] for name, _, _ in cli._COMMANDS),
        ["search", "--format", "json"],  # search writes jsonl or csv only
        *([name, "--bogus"] for name, _, _ in cli._COMMANDS),
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_parser_of_one_command_writes_what_the_full_parser_writes(capsys, argv):
    # main parses a command named first with a parser of that command alone;
    # help and usage errors must come out byte for byte as from the parser of
    # every command
    code = main(argv)
    partial = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert code == exc.value.code == (0 if "--help" in argv or "-h" in argv else 2)
    assert partial.out.encode() == full.out.encode()
    assert partial.err.encode() == full.err.encode()
    assert partial.out or partial.err


GENS_K12 = ["gens", "--complete", "12", "--t", "5"]


@pytest.mark.parametrize(
    "unbuffered, argv",
    [
        pytest.param(False, GENS_K12, id="False"),
        pytest.param(True, GENS_K12, id="True"),
        pytest.param(False, ["--help"], id="False-help"),
        pytest.param(True, ["--help"], id="True-help"),
        pytest.param(False, ["search", "--help"], id="False-search-help"),
        pytest.param(True, ["search", "--help"], id="True-search-help"),
    ],
)
def test_closed_stdout_exits_141_in_silence(unbuffered, argv):
    # The read end is closed before the child starts, so its first write to
    # stdout (or, when buffered, the flush) fails with EPIPE.  The exit status
    # is the one a shell reports for SIGPIPE, and nothing reaches stderr:
    # neither an input-error line nor Python's "Exception ignored" at exit.
    # Help text too: argparse's own printing would swallow the error and
    # exit 0 when stdout is unbuffered.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        child = subprocess.run(
            [sys.executable, "-m", "coverideals", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_broken_pipe_in_process_leaks_no_descriptor(monkeypatch):
    # main is called in process, as a benchmark or a test does; on a broken
    # pipe it points stdout's descriptor at the null device, and must close
    # the descriptor it opened to do so.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        assert main(GENS_K12) == 141
        assert len(os.listdir("/proc/self/fd")) == before


def test_mutually_exclusive_sources(capsys):
    code, _, _ = run(capsys, "gens", "--complete", "3", "--counterexample", "--t", "1")
    assert code == 2


def test_json_outputs_are_stable(capsys):
    _, out1, _ = run(capsys, "check-cwl", "--counterexample", "--t", "2", "--format", "json")
    _, out2, _ = run(capsys, "check-cwl", "--counterexample", "--t", "2", "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("argv, digest", [
    ("check-cwl --complete 5 --t 2", "8796bce4d10d49b4aae0445a0043bcd8e31475198188c61aec0815565a8354a6"),
    ("check-cwl --complete 5 --t 3", "dd8db4e7ae5359e3d32aa1f56e20bee9d58e199f16fadc5bb0a0c53974da4b00"),
    ("check-cwl --complete 6 --t 2", "a3c24461b701f4efe8b49d148f1606d4dada944076723fd741789a205a048b34"),
    ("check-cwl --complete 6 --t 3", "20ee90c55f7d095e04b2b900c40c447cf3d12762a05e4fcf930468bb7e9c8b77"),
    # every orbit of the degree-12 component of J_{K5}(3) expanded
    ("betti --complete 5 --t 3 --component 12 --multigraded",
     "40b00e4376b3614417f1251a40c4ab5e287f5e8b1159c2b1e204c5d035e49d00"),
    # a six-twin class over F2, several patterns of equal values per orbit
    ("betti --complete 6 --t 3 --component 15 --field 2 --multigraded",
     "726c4b3e8396109714774c725ddbdf0b89b124c2ebffb2a9e80119149329ccea"),
])
def test_json_outputs_are_pinned(capsys, argv, digest):
    # sha256 of the output of the filter that tested every lattice point for
    # being its orbit's representative
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, text", [
    ("check-cwl --complete 4 --t 3", 0,
     "degree 7: linear\n"
     "degree 8: linear\n"
     "degree 9: linear\n"
     "componentwise linear\n"
     "linear-quotients certificate:\n"
     "  x1*x2^2*x3^2*x4^2, x1^2*x2*x3^2*x4^2, x1^2*x2^2*x3*x4^2, x1^2*x2^2*x3^2*x4,\n"
     "  x2^3*x3^3*x4^3, x1^3*x3^3*x4^3, x1^3*x2^3*x4^3, x1^3*x2^3*x3^3\n"),
    ("check-cwl --counterexample --t 2", 1,
     "degree 4: not linear (offending beta at i=1, j=6)\n"
     "degree 5: linear\n"
     "degree 6: linear\n"
     "NOT componentwise linear (first failure at degree 4)\n"),
])
def test_check_cwl_text_is_pinned(capsys, argv, code, text):
    # a pass prints its linear-quotients certificate, a failure none
    assert run(capsys, *argv.split()) == (code, text, "")


def test_check_cwl_zero_ideal_passes_with_no_certificate(tmp_path, capsys):
    # the zero ideal has no generator listing to certify
    f = tmp_path / "zero.ideal"
    f.write_text("vars 2\n")
    assert run(capsys, "check-cwl", "--ideal", str(f)) == (0, "componentwise linear\n", "")
    assert run(capsys, "check-cwl", "--ideal", str(f), "--format", "json") == (
        0,
        '{"certificate": null, "field": "Q", "overall": true, "per_degree": [], '
        '"vacuous": true}\n',
        "",
    )


@pytest.mark.parametrize("source, taylor_error", [
    ("--counterexample --t 1", None),
    ("--counterexample --t 2", "21 generators"),
    ("--counterexample --t 3", "50 generators"),
    ("--complete 4 --t 2", None),
    ("--complete 5 --t 3", "120 generators"),
])
def test_check_cwl_engines_agree_or_taylor_stops_at_its_cap(capsys, source, taylor_error):
    # perfbench/make_expected.py cross-checks every sweep row with both
    # engines: each writes the default JSON, or Taylor exits 3 past its cap
    default = run(capsys, "check-cwl", *source.split(), "--format", "json")
    assert default[0] in (0, 1) and default[2] == ""
    for engine in ("koszul", "taylor"):
        got = run(capsys, "check-cwl", *source.split(), "--engine", engine, "--format", "json")
        if engine == "taylor" and taylor_error:
            assert got == (3, "", f"error: {taylor_error} exceeds the subset-complex cap 14; "
                                  "use koszul_betti\n")
        else:
            assert got == default
