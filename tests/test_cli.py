"""Tests for the command line front end: output formats, round-trips, exit codes."""

import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, strategies as st

from thetasing import boundary, characteristics, cli, datafile, exactla, pipeline

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def record_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_compactified_genus4_records_roundtrip(capsys):
    code, out = run(
        capsys, "--command", "compactified-class", "--genus", "4",
        "--format", "records",
    )
    assert code == 0
    lines = record_lines(out)
    assert len(lines) == 17
    for line in lines:
        rec = cli.parse_record_line(line)
        assert rec["prov"] == "paper"
        rebuilt = cli._record(rec["lambda"], rec["word"], rec["value"], rec["prov"])
        assert rebuilt == line


# every class command at each genus the benchmark runs it
CLASS_RUNS = [(command, g) for command in ("open-class", "compactified-class", "taut-projection")
              for g in range(1, 6)]
CLASS_RUNS += [("product-taut", g) for g in (3, 4, 5)] + [("ij-taut", 5)]


@pytest.mark.parametrize("command, g", CLASS_RUNS)
def test_every_class_records_line_parses_and_rebuilds(capsys, command, g):
    code, out = run(capsys, "--command", command, "--genus", str(g), "--format", "records")
    assert code == 0
    lines = record_lines(out)
    assert lines
    for line in lines:
        rec = cli.parse_record_line(line)
        assert cli._record(rec["lambda"], rec["word"], rec["value"], rec["prov"]) == line
    # genus 1 and 2 write the zero class, which reads as no term
    if command in ("open-class", "taut-projection") and g <= 2:
        assert lines == ["0 prov=paper" if g == 2 else "0 prov=derived"]
        assert rec["lambda"] is None and rec["value"] == 0


@pytest.mark.parametrize("line, message", [
    ("lambda=1,0 word=1 num=3 prov=paper", "not a records line: {!r}"),
    ("lambda=1,0 word=1 num=3 den=1", "not a records line: {!r}"),
    ("0", "not a records line: {!r}"),
    ("lambda=1,0 word=sigma1** num=3 den=1 prov=paper", "not a records line: {!r}"),
    ("lambda=1,0 word=1 num=3 den=0 prov=paper", "den=0 in {!r}"),
    ("lambda=1,0 word=1 num=-3 den=\u0661 prov=paper", "bad numeral '\u0661' in {!r}"),
    ("lambda=1,0 word=1 num=\u0661 den=1 prov=paper", "bad numeral '\u0661' in {!r}"),
    ("lambda=1,0 word=1 num=3 den=-1 prov=paper", "bad numeral '-1' in {!r}"),
    ("lambda=1,,0 word=1 num=3 den=1 prov=paper", "bad numeral '' in {!r}"),
    ("lambda=1,0 word=1 num=03 den=1 prov=paper", "bad numeral '03' in {!r}"),
    ("lambda=1,0 word=1 num=2 den=4 prov=paper", "num/den not in lowest terms in {!r}"),
    ("lambda=1,0 word=1 num=-2 den=4 prov=paper", "num/den not in lowest terms in {!r}"),
    ("lambda=1,0 word=1 num=0 den=4 prov=paper-only", "num/den not in lowest terms in {!r}"),
    ("lambda=1,0 word=1 num=3 den=1 prov=nonsense", "unknown prov 'nonsense' in {!r}"),
    ("0 prov=nonsense", "unknown prov 'nonsense' in {!r}"),
])
def test_bad_records_line_is_refused_naming_it(line, message):
    with pytest.raises(ValueError) as exc:
        cli.parse_record_line(line)
    assert str(exc.value) == message.format(line)


@pytest.mark.parametrize("line, value", [
    ("lambda=1,0 word=1 num=3 den=1 prov=paper", Fraction(3)),
    ("lambda=1,0 word=sigma1 num=-1 den=2 prov=derived", Fraction(-1, 2)),
    ("lambda=1,0 word=1 num=3 den=4 prov=conflict", Fraction(3, 4)),
    ("lambda=1,0 word=1 num=0 den=1 prov=paper-only", Fraction(0)),
])
def test_records_line_reads_each_prov_the_writer_emits(line, value):
    rec = cli.parse_record_line(line)
    assert rec["value"] == value
    assert cli._record(rec["lambda"], rec["word"], rec["value"], rec["prov"]) == line


# the tags the writer emits: ComparisonRow.status, and paper or derived on a zero class
WRITER_PROVS = ("paper", "derived", "conflict", "paper-only")
RECORD_TERMS = st.tuples(st.lists(st.integers(0, 60), min_size=1, max_size=5).map(tuple),
                         st.lists(st.sampled_from(boundary.NAMED_CLASSES), max_size=5).map(tuple),
                         st.fractions())


@given(st.none() | RECORD_TERMS, st.sampled_from(WRITER_PROVS))
@example(None, "paper")
@example(((2, 0, 0, 0, 0), ("beta3",), Fraction(-15, 4)), "derived")
def test_records_lines_round_trip_through_the_writer_and_reader(term, prov):
    mono, word, value = term or (None, None, Fraction(0))
    line = datafile.record_line(mono, word, value, prov)
    rec = datafile.parse_record_line(line)
    assert rec == {"lambda": mono, "word": word, "value": value, "prov": prov}
    assert datafile.record_line(rec["lambda"], rec["word"], rec["value"], rec["prov"]) == line


def test_compactified_genus5_has_one_derived_row(capsys):
    code, out = run(
        capsys, "--command", "compactified-class", "--genus", "5",
        "--format", "records",
    )
    assert code == 0
    lines = record_lines(out)
    assert len(lines) == 35
    derived = [l for l in lines if cli.parse_record_line(l)["prov"] == "derived"]
    assert len(derived) == 1
    rec = cli.parse_record_line(derived[0])
    assert rec["lambda"] == (2, 0, 0, 0, 0)
    assert rec["word"] == ("beta3",)
    assert rec["value"] == Fraction(-15, 4)


def test_compactified_genus2_reports_vanishing(capsys):
    code, out = run(capsys, "--command", "compactified-class", "--genus", "2")
    assert code == 0
    assert out.splitlines()[-1] == "# after the genus-2 word relations the class is 0"


def test_compactified_genus2_assembles_the_class_once(capsys, monkeypatch):
    # the published comparison and the word-relation check share one raw sum
    calls = []
    strata = pipeline.strata

    def counted(g):
        calls.append(g)
        return strata(g)

    monkeypatch.setattr(pipeline, "strata", counted)
    code, out = run(capsys, "--command", "compactified-class", "--genus", "2")
    assert code == 0
    assert out.endswith("# after the genus-2 word relations the class is 0\n")
    assert calls == [2]


def test_open_class_zero_is_pinned(capsys):
    code, out = run(
        capsys, "--command", "open-class", "--genus", "2", "--format", "records"
    )
    assert code == 0
    assert out == "0 prov=paper\n"


def test_taut_projection_text(capsys):
    code, out = run(capsys, "--command", "taut-projection", "--genus", "4")
    assert code == 0
    assert out == "45 * lam1^4  [paper]\n"


def test_taut_projection_unpinned_genus(capsys):
    code, out = run(
        capsys, "--command", "taut-projection", "--genus", "3",
        "--format", "records",
    )
    assert code == 0
    lines = record_lines(out)
    assert len(lines) == 2
    assert all(cli.parse_record_line(l)["prov"] == "derived" for l in lines)


def test_ij_taut_records(capsys):
    code, out = run(capsys, "--command", "ij-taut", "--format", "records")
    assert code == 0
    recs = [cli.parse_record_line(l) for l in record_lines(out)]
    values = {r["lambda"]: r["value"] for r in recs}
    assert values == {
        (5, 0, 0, 0, 0): Fraction(140),
        (2, 0, 1, 0, 0): Fraction(-376),
        (0, 0, 0, 0, 1): Fraction(848),
    }
    assert all(r["prov"] == "paper" for r in recs)


def test_verify_identities_custom_file(capsys):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("quartic-sum-split: sigma4 - beta4 = "
                     "cfg(1,1,1,1; 1 2 3 4) + cfg(1,1,1,1; 1 2 3)\n")
            fh.write("y-sigma1: Y*sigma1 = A3 + A5 + B2\n")
        code, out = run(
            capsys, "--command", "verify-identities", "--genus", "2",
            "--data", f"identities={path}",
        )
    finally:
        os.unlink(path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ok quartic-sum-split")
    assert lines[1].startswith("ok y-sigma1")
    assert lines[-1] == "# checked 2 identities at genus 2"


def test_verify_identities_failure_exit_code(capsys):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("bogus-double: sigma2 = 2*sigma2\n")
        code, out = run(
            capsys, "--command", "verify-identities", "--genus", "2",
            "--data", f"identities={path}",
        )
    finally:
        os.unlink(path)
    assert code == 2
    assert out.splitlines()[0].startswith("FAIL bogus-double")


def test_verify_identities_any_literals(capsys, tmp_path):
    # any(...) used to count one type several times, failing these true lines
    path = _write(tmp_path, "s4: sigma4 = any(1,1,1,1)\nb: B = any(2,1,1,1)\n"
                            "s5: sigma5 = any(1,1,1,1,1)\n")
    code, out = run(capsys, "--command", "verify-identities", "--genus", "3",
                    "--data", f"identities={path}")
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()[:3]] == [
        ["ok", "s4"], ["ok", "b"], ["ok", "s5"]]


def test_verify_identities_zero_difference_holds(capsys, tmp_path):
    path = _write(tmp_path, "x: sigma1 - sigma1 = 0\n")
    code, out = run(capsys, "--command", "verify-identities", "--genus", "2",
                    "--data", f"identities={path}")
    assert code == 0
    assert out.splitlines()[0] == "ok x concrete=True symbolic=True"


def test_verify_identities_prints_symbolic_residual(capsys, tmp_path):
    path = _write(tmp_path, "w: sigma1^2 = 2*sigma2\n")
    code, out = run(capsys, "--command", "verify-identities", "--genus", "3",
                    "--data", f"identities={path}")
    assert code == 2
    assert out.splitlines()[:3] == [
        "FAIL w concrete=False symbolic=False",
        "#   first difference: (((1, 2),), Fraction(1, 1), Fraction(0, 1))",
        "#   symbolic residual: BoundaryPoly(2, 1*cfg(2))",
    ]


def test_verify_identities_genus_restriction(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--command", "verify-identities", "--genus", "4"])
    capsys.readouterr()


def test_verify_counts_exhaustive(capsys):
    code, out = run(capsys, "--command", "verify-counts", "--genus", "2")
    assert code == 0
    assert out == "ok genus=2 mode=exhaustive tuples=76 mismatches=0\n"


def test_verify_counts_without_genus_checks_every_genus(capsys):
    code, out = run(capsys, "--command", "verify-counts", "--samples", "20", "--seed", "7")
    assert code == 0
    assert out.splitlines() == [
        "ok genus=1 mode=exhaustive tuples=4 mismatches=0",
        "ok genus=2 mode=exhaustive tuples=76 mismatches=0",
        "ok genus=3 mode=exhaustive tuples=12664 mismatches=0",
        "ok genus=4 mode=sampled(20) tuples=21 mismatches=0",
        "ok genus=5 mode=sampled(20) tuples=21 mismatches=0",
    ]


def test_verify_identities_without_genus_checks_genus_3(capsys, tmp_path):
    path = _write(tmp_path, "x: sigma1 - sigma1 = 0\n")
    code, out = run(capsys, "--command", "verify-identities", "--data", f"identities={path}")
    assert code == 0
    assert out.splitlines()[-1] == "# checked 1 identities at genus 3"


def test_verify_counts_sampled(capsys):
    code, out = run(
        capsys, "--command", "verify-counts", "--genus", "4",
        "--samples", "200", "--seed", "11",
    )
    assert code == 0
    assert out == "ok genus=4 mode=sampled(200) tuples=201 mismatches=0\n"


def test_verify_counts_reports_mismatches(capsys, monkeypatch):
    count = characteristics.count_vanishing
    monkeypatch.setattr(characteristics, "count_vanishing",
                        lambda g, labels: count(g, labels) + (1 if labels else 0))
    code, out = run(capsys, "--command", "verify-counts", "--genus", "2")
    assert code == 2
    # at most three mismatches are printed, each with the labels' reprs
    lines = out.splitlines()
    ns = [f"BoundaryLabel(genus=2, alpha=0, beta={b})" for b in (1, 2, 3)]
    assert lines[:-1] == [
        f"# MISMATCH g=2 labels=({ns[0]},) 5 != 4",
        f"# MISMATCH g=2 labels=({ns[0]}, {ns[1]}) 3 != 2",
        f"# MISMATCH g=2 labels=({ns[0]}, {ns[1]}, {ns[2]}) 1 != 0",
    ]
    assert lines[-1] == "FAIL genus=2 mode=exhaustive tuples=76 mismatches=75"


def test_cli_import_skips_dataclasses_and_inspect():
    # only the modules new to the child count, so a site .pth that preloads
    # either module does not fail the test
    code = ("import sys; before = set(sys.modules); import thetasing.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_counts_rejects_nonpositive_samples(capsys, samples):
    code = cli.main(["--command", "verify-counts", "--genus", "4", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"thetasing: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("command, genus, supported", [
    ("verify-counts", "0", "1..5"),
    ("verify-counts", "6", "1..5"),
    ("compactified-class", "6", "1..5"),
    ("product-taut", "2", "3..5"),
    ("open-class", "0", "1..5"),
    ("ring-info", "6", "1..5"),
    ("ring-info", "7", "1..5"),
])
def test_unsupported_genus_fails_fast(capsys, command, genus, supported):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", command, "--genus", genus])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == f"thetasing: {command} supports --genus {supported}, got {genus}\n"


def test_unsupported_genus_exit_status():
    # ring-info --genus 7 used to run without bound; the process exits at once
    proc = subprocess.run(
        [sys.executable, "-m", "thetasing", "--command", "ring-info", "--genus", "7"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "thetasing: ring-info supports --genus 1..5, got 7\n"


def test_relation_that_keeps_the_degree_exits_at_once(tmp_path):
    # substitution by sigma2 = sigma2 used to loop forever
    path = _write(tmp_path, "genus=2: sigma2 = sigma2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "thetasing", "--command", "compactified-class", "--genus", "2",
         "--data", f"boundary-relations={path}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.endswith("right side word sigma2 is not of degree below 2\n")


class _ClosedPipe:
    # stdout as a reader that has gone away: every write fails
    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


def test_closed_stdout_exits_1_without_traceback(capsys, monkeypatch, tmp_path):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert cli.main(["--command", "ring-info", "--genus", "2"]) == 1
        os.write(fd, b"left over")  # the descriptor now points at devnull
    finally:
        os.close(fd)
    assert path.read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_reader_closing_the_pipe_early_gets_no_traceback(tmp_path):
    # `verify-identities --genus 2 | head -1`: 600 identities with long names
    # print more than a pipe holds, so the child is still writing when the
    # reader leaves, whatever the scheduling
    name = "x" * 2000
    path = _write(tmp_path, "".join(f"{name}{i}: sigma1 = sigma1\n" for i in range(600)))
    with subprocess.Popen(
        [sys.executable, "-m", "thetasing", "--command", "verify-identities", "--genus", "2",
         "--data", f"identities={path}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)},
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a no-op once the child has exited
    assert first == f"ok {name}0 concrete=True symbolic=True\n"
    assert err == ""
    assert proc.returncode == 1


def test_byte_stability(capsys):
    args = ("--command", "compactified-class", "--genus", "3", "--format", "records")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_ring_info(capsys):
    code, out = run(capsys, "--command", "ring-info", "--genus", "3")
    assert code == 0
    assert "total=8" in out
    assert "normalization=1/181440" in out
    code, out = run(capsys, "--command", "ring-info", "--genus", "3", "--open")
    assert code == 0
    assert "total=4" in out


def test_ring_info_needs_genus(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", "ring-info"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "thetasing: ring-info needs --genus\n"


def test_bad_data_override(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", "ring-info", "--genus", "2", "--data", "bogus=x"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == (
        "thetasing: bad --data 'bogus=x'; expected KIND=PATH with KIND in "
        "identities|normalizations|boundary-relations\n"
    )


def test_repeated_data_kind_is_refused(capsys, monkeypatch):
    # the second override used to replace the first without a word; the
    # refusal comes before any file is read
    opened = []
    monkeypatch.setitem(cli.DATA_LOADERS, "normalizations", opened.append)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", "ring-info", "--genus", "2",
                  "--data", "normalizations=A", "--data", "normalizations=B"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and opened == []
    assert captured.err == ("thetasing: --data normalizations given twice (A, B); "
                            "give each kind at most once\n")


def test_relation_rule_that_projects_differently_is_refused(capsys, tmp_path):
    path = tmp_path / "relations.txt"
    path.write_text("genus=2: sigma1^2 = 22*lam1*sigma1 - 119*lam1^2\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--command", "compactified-class", "--genus", "2",
                  "--data", f"boundary-relations={path}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == (
        f"thetasing: bad --data boundary-relations file {path}: line 1 "
        "'genus=2: sigma1^2 = 22*lam1*sigma1 - 119*lam1^2': the sides project "
        "differently at genus 2: -120*lam1^2 against -119*lam1^2\n")


def _write(tmp_path, text):
    path = tmp_path / "data.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("kind, argv, text, reason", [
    # missing files
    ("boundary-relations", ["--command", "compactified-class", "--genus", "2"], None,
     "No such file or directory"),
    ("identities", ["--command", "verify-identities", "--genus", "2"], None,
     "No such file or directory"),
    ("normalizations", ["--command", "ring-info", "--genus", "2"], None,
     "No such file or directory"),
    # malformed lines, read even by commands that would not use the file
    ("identities", ["--command", "verify-identities", "--genus", "2"],
     "# ledger\nbad line here\n", "line 2 'bad line here'"),
    ("identities", ["--command", "open-class", "--genus", "3"],
     "ok: sigma1 = sigma1\nx: sigma1 + = sigma1\n", "line 2 'x: sigma1 + = sigma1'"),
    ("normalizations", ["--command", "ring-info", "--genus", "2"],
     "genus=2 value=1/0 source=t\n", "line 1 'genus=2 value=1/0 source=t'"),
    ("boundary-relations", ["--command", "compactified-class", "--genus", "2"],
     "genus=2: sigma2 = 6*lam3*sigma1\n", "lam3 out of range at genus 2"),
    # a ledger with no identity would check nothing and pass
    ("identities", ["--command", "verify-identities", "--genus", "2"],
     "# only comments\n\n", "no identity in the file"),
    # sides of different degree, a slot named twice, an empty exponent field
    ("identities", ["--command", "verify-identities", "--genus", "3"],
     "y: sigma1 = sigma2\n", "line 1 'y: sigma1 = sigma2'"),
    ("identities", ["--command", "verify-identities", "--genus", "3"],
     "t: cfg(1,1,1,1; 1 1 2 3 4) = beta4\n", "repeated slot index"),
    ("identities", ["--command", "verify-identities", "--genus", "3"],
     "t: cfg(1,1,1; 1 1 2) = sigma3\n", "repeated slot index"),
    ("identities", ["--command", "verify-identities", "--genus", "3"],
     "t: any(1,,1) = sigma2\n", "empty exponent field"),
    ("identities", ["--command", "verify-identities", "--genus", "3"],
     "t: cfg(,2) = cfg(2)\n", "empty exponent field"),
    # lam0 names no class and lam01 would be a second spelling of lam1
    ("boundary-relations", ["--command", "compactified-class", "--genus", "2"],
     "genus=2: sigma2 = 6*lam0*sigma1\n", "not ('name', 'lam0')"),
    ("boundary-relations", ["--command", "compactified-class", "--genus", "2"],
     "genus=2: sigma2 = 6*lam01*sigma1\n", "not ('name', 'lam01')"),
    # a number has one spelling, in every data file
    ("identities", ["--command", "verify-identities", "--genus", "2"],
     "x: cfg(01) = sigma1\n", "bad numeral '01' in 'cfg(01)'"),
    ("identities", ["--command", "verify-identities", "--genus", "2"],
     "a: cfg(\u0661) = sigma1\n", "bad numeral '\u0661' in 'cfg(\u0661)'"),
    ("boundary-relations", ["--command", "compactified-class", "--genus", "2"],
     "genus=02: sigma2 = 6*lam1*sigma1\n", "bad numeral '02' in 'genus=02'"),
    ("normalizations", ["--command", "ring-info", "--genus", "2"],
     "genus=2 value=1/02880 source=t\n", "bad numeral '02880'"),
    # a genus no ring has, in either file, a zero normalization, and a
    # second normalization for one genus
    ("boundary-relations", ["--command", "compactified-class", "--genus", "2"],
     "genus=2: sigma2 = 6*lam1*sigma1\ngenus=9: sigma2 = 6*lam1*sigma1\n",
     "line 2 'genus=9: sigma2 = 6*lam1*sigma1': genus 9 outside 1..5"),
    # relations for a genus whose class is never rewritten would be dropped
    ("boundary-relations", ["--command", "compactified-class", "--genus", "4"],
     "genus=4: sigma4 = 0*lam1*sigma1\n",
     "line 1 'genus=4: sigma4 = 0*lam1*sigma1': word relations apply at genus 2 only, not 4"),
    ("normalizations", ["--command", "ring-info", "--genus", "1"],
     "genus=0 value=1/24 source=t\ngenus=1 value=1/24 source=t\n",
     "line 1 'genus=0 value=1/24 source=t': genus 0 outside 1..5"),
    ("normalizations", ["--command", "ring-info", "--genus", "1"],
     "genus=1 value=1/24 source=t\ngenus=2 value=-0/1 source=t\n",
     "line 2 'genus=2 value=-0/1 source=t': a normalization must be nonzero"),
    ("normalizations", ["--command", "ring-info", "--genus", "2"],
     "genus=2 value=0/1 source=t\n", "a normalization must be nonzero"),
    ("normalizations", ["--command", "ring-info", "--genus", "2"],
     "genus=2 value=1/2880 source=t\ngenus=2 value=1/5760 source=u\n",
     "a second normalization line for genus 2"),
])
def test_bad_data_file_fails_before_output(capsys, tmp_path, kind, argv, text, reason):
    path = str(tmp_path / "missing.txt") if text is None else _write(tmp_path, text)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--data", f"{kind}={path}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"thetasing: bad --data {kind} file {path}: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_ring_info_prints_normalization_override(capsys, tmp_path):
    path = _write(tmp_path, "genus=2 value=1/5760 source=test fixture\n")
    code, out = run(capsys, "--command", "ring-info", "--genus", "2",
                    "--data", f"normalizations={path}")
    assert code == 0
    assert "normalization=1/5760\n" in out
    assert out.endswith("# normalization source: test fixture\n")
    # a genus the override does not cover is refused before any output
    code = cli.main(["--command", "ring-info", "--genus", "3",
                     "--data", f"normalizations={path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "thetasing: no normalization on file for genus 3\n"
    code, out = run(capsys, "--command", "ring-info", "--genus", "2")
    assert "normalization=1/2880\n" in out


def test_normalization_override_is_noted_on_stderr(capsys, tmp_path):
    bundled = cli.main(["--command", "ring-info", "--genus", "2"])
    reference = capsys.readouterr()
    assert bundled == 0 and reference.err == ""
    # entries equal to the derivation pass silently
    path = _write(tmp_path, "genus=1 value=1/24 source=t\n"
                            "genus=2 value=1/2880 source=test fixture\n")
    code = cli.main(["--command", "ring-info", "--genus", "2",
                     "--data", f"normalizations={path}"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == reference.out.replace(
        "# normalization source: external: Hirzebruch-Mumford proportionality for genus 2",
        "# normalization source: test fixture")
    # one line per differing genus; stdout keeps the given values
    path = _write(tmp_path, "genus=1 value=1/12 source=t\n"
                            "genus=2 value=1/5760 source=test fixture\n"
                            "genus=3 value=1/181440 source=t\n")
    code = cli.main(["--command", "ring-info", "--genus", "2",
                     "--data", f"normalizations={path}"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "genus=2 open=False top=3 dims=1,1,1,1 total=4\n"
        "top_basis=lam1^3 normalization=1/5760\n"
        "# normalization source: test fixture\n"
    )
    assert captured.err == (
        "# normalization override differs from the derivation at genus 1: 1/12 != 1/24\n"
        "# normalization override differs from the derivation at genus 2: 1/5760 != 1/2880\n"
    )


def test_normalization_override_changes_provenance(capsys):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("genus=1 value=1/24 source=t\n")
            fh.write("genus=3 value=1/181440 source=t\n")
            fh.write("genus=4 value=1/3628800 source=t\n")
        code, out = run(
            capsys, "--command", "product-taut", "--genus", "4",
            "--format", "records", "--data", f"normalizations={path}",
        )
        # halving the top normalization doubles the solved class, so the
        # output no longer matches the pinned value
        assert code == 0
        recs = [cli.parse_record_line(l) for l in record_lines(out)]
        assert recs[0]["value"] == Fraction(40)
        assert recs[0]["prov"] == "derived"
    finally:
        os.unlink(path)


@pytest.mark.parametrize("mono, fmt, line, published", [
    ((5, 0, 0, 0, 0), "text", "140 * lam1^5  [conflict]  (published: 141)", None),
    ((5, 0, 0, 0, 0), "records", "lambda=5,0,0,0,0 word=1 num=140 den=1 prov=conflict",
     "# published value: 141/1"),
    ((0, 1, 0, 0, 1), "text", "0 * lam2*lam5  [paper-only]  (published: 141)", None),
], ids=["text", "records", "paper-only"])
def test_unreproduced_taut_pin_fails(capsys, monkeypatch, mono, fmt, line, published):
    # a pinned coefficient the engine does not reproduce is reported with the
    # published value and fails the command, as in compactified-class
    pins = dict(pipeline.PUBLISHED_TAUT[("ij-taut", 5)])
    paper_rows = 3 - (mono in pins)
    pins[mono] = Fraction(141)
    monkeypatch.setitem(pipeline.PUBLISHED_TAUT, ("ij-taut", 5), pins)
    code, out = run(capsys, "--command", "ij-taut", "--format", fmt)
    assert code == 2
    lines = out.splitlines()
    assert line in lines
    if published is not None:
        assert lines[lines.index(line) + 1] == published
    assert sum("published" in l for l in lines) == 1
    assert sum(l.endswith(("prov=paper", "[paper]")) for l in lines) == paper_rows


def test_unreproduced_compactified_pin_fails(capsys, monkeypatch):
    pins = dict(pipeline.PUBLISHED_COMPACTIFIED[4])
    pins[((0, 1, 0, 1), ("sigma4",))] = Fraction(7)
    monkeypatch.setitem(pipeline.PUBLISHED_COMPACTIFIED, 4, pins)
    code, out = run(capsys, "--command", "compactified-class", "--genus", "4")
    assert code == 2
    assert "0 * lam2*lam4*sigma4  [paper-only]  (published: 7)" in out.splitlines()


@pytest.mark.parametrize("argv, text, genus", [
    (["--command", "product-taut", "--genus", "4"], "genus=2 value=1/2880 source=t\n", 1),
    (["--command", "ij-taut"],
     "genus=1 value=1/24 source=t\ngenus=5 value=13/16329600 source=t\n", 4),
])
def test_missing_normalization_fails_with_one_line(capsys, tmp_path, argv, text, genus):
    path = _write(tmp_path, text)
    code = cli.main(argv + ["--data", f"normalizations={path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"thetasing: no normalization on file for genus {genus}\n"


def test_overrides_last_one_run(capsys, tmp_path):
    # an override applies to its own run only; the next run in the same
    # process reads the bundled tables again
    norms = _write(tmp_path, "genus=2 value=1/5760 source=test fixture\n")
    code, out = run(capsys, "--command", "ring-info", "--genus", "2",
                    "--data", f"normalizations={norms}")
    assert code == 0
    assert "normalization=1/5760\n" in out
    code, out = run(capsys, "--command", "ring-info", "--genus", "2")
    assert code == 0
    assert "normalization=1/2880\n" in out
    assert "test fixture" not in out

    relations = tmp_path / "relations.txt"
    relations.write_text("# no rules\n")
    code, out = run(capsys, "--command", "compactified-class", "--genus", "2",
                    "--data", f"boundary-relations={relations}")
    assert code == 2
    assert out.endswith("# after the genus-2 word relations the class is NOT zero\n")
    code, out = run(capsys, "--command", "compactified-class", "--genus", "2")
    assert code == 0
    assert out.endswith("# after the genus-2 word relations the class is 0\n")


def test_rewritten_override_is_read_again(capsys, tmp_path):
    # one process, one override path, its file rewritten between two runs
    norms = tmp_path / "norms.txt"
    norms.write_text("genus=2 value=1/5760 source=first\n")
    argv = ["--command", "ring-info", "--genus", "2", "--data", f"normalizations={norms}"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert "normalization=1/5760\n" in out and out.endswith("source: first\n")
    norms.write_text("genus=2 value=1/7 source=second\n")
    code, out = run(capsys, *argv)
    assert code == 0
    assert "normalization=1/7\n" in out and out.endswith("source: second\n")

    relations = tmp_path / "relations.txt"
    relations.write_text("# no rules\n")
    argv = ["--command", "compactified-class", "--genus", "2",
            "--data", f"boundary-relations={relations}"]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out.endswith("the class is NOT zero\n")
    relations.write_text(
        resources.files("thetasing.data").joinpath("boundary_relations.txt").read_text())
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.endswith("the class is 0\n")


@pytest.mark.parametrize("module, name, replacement, argv, expected", [
    # taut_projection: the term-by-term route no longer meets the closed form
    (pipeline, "closed_form_projection", lambda g: {},
     ["--command", "taut-projection", "--genus", "3"],
     ["thetasing: genus-3 projection differs between routes", "  first: {(", "  second: {}"]),
    # product_locus_taut: the pairing system has no solution
    (pipeline, "pivot_solution",
     lambda matrix, rhs: (exactla.pivot_solution(matrix, rhs)[0], False),
     ["--command", "product-taut", "--genus", "4"],
     ["thetasing: genus-4 product locus pairing system is inconsistent",
      "  first: [[Fraction(", "  second: [Fraction("]),
    # change_basis: no target word to express the boundary powers in
    (boundary, "DEFAULT_TARGETS", {j: () for j in range(1, 6)},
     ["--command", "compactified-class", "--genus", "3"],
     ["thetasing: not in target span", "  residual: BoundaryPoly(1, "]),
], ids=["taut-projection", "product-locus", "change-basis"])
def test_route_errors_exit_with_residual(capsys, monkeypatch, module, name, replacement,
                                         argv, expected):
    # a stratum memoized by an earlier test would hide a patch below the assembly
    pipeline.stratum.cache_clear()
    monkeypatch.setattr(module, name, replacement)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == len(expected) and captured.err.endswith("\n")
    for line, start in zip(lines, expected):
        assert line.startswith(start)


# --- bad input as a seeded property ----------------------------------------------

# each --data kind with a command that reads its table
FUZZ_RUNS = {
    "identities": ["--command", "verify-identities", "--genus", "2"],
    "normalizations": ["--command", "product-taut", "--genus", "3"],
    "boundary-relations": ["--command", "compactified-class", "--genus", "2"],
}
FUZZ_SEED, FUZZ_FILES = 20261020, 100
FUZZ_ALPHABET = "0123456789=:*^+-/()#;|,. \n\tabelmgnostuvAY١é"
BUNDLED_FILES = {"identities": "identities.txt", "normalizations": "normalizations.txt",
                 "boundary-relations": "boundary_relations.txt"}


def _mutate(text, rng):
    """text with 1-3 random one-character replacements, insertions or deletions."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i, c = rng.randrange(len(chars) + 1), rng.choice(FUZZ_ALPHABET)
        op = rng.randrange(3)
        if op == 1 or i == len(chars):
            chars.insert(i, c)
        elif op == 0:
            chars[i] = c
        else:
            del chars[i]
    return "".join(chars)


def _outcome(capsys, argv):
    """Run cli.main in process; the exit code, or the problem with the run."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback, had the run been a process
        return f"{argv}: {type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    refusals = [l for l in err.splitlines() if l.startswith("thetasing:")]
    # a verification verdict exits 2 on stdout; every other exit 2 is one refusal
    verdict = code == 2 and not refusals and ("FAIL " in out or "NOT zero" in out)
    if code not in (0, 2) or "Traceback" in err or \
            len(refusals) != (code == 2 and not verdict):
        return f"{argv}: exit {code}, stderr {err!r}"
    return code


def test_mutated_data_files_exit_0_or_2_with_one_message(capsys, tmp_path):
    rng = random.Random(FUZZ_SEED)
    problems, runs = [], 0
    for kind, argv in FUZZ_RUNS.items():
        bundled = resources.files("thetasing.data").joinpath(BUNDLED_FILES[kind]).read_text()
        lines = "".join(l + "\n" for l in bundled.splitlines() if l and not l.startswith("#"))
        for n in range(FUZZ_FILES):
            path = tmp_path / f"{kind}-{n}.txt"
            path.write_text(_mutate(lines, rng), encoding="utf-8")
            outcome = _outcome(capsys, argv + ["--data", f"{kind}={path}"])
            runs += 1
            if isinstance(outcome, str):
                problems.append(f"{outcome} on {path.read_text(encoding='utf-8')!r}")
    assert runs == 300 and problems == []


def test_unreadable_inputs_and_unsupported_values_are_refused(capsys, tmp_path):
    (tmp_path / "latin1.txt").write_bytes(b"genus=2 value=1/2880 source=\xe9t\xe9\n")
    (tmp_path / "empty.txt").write_text("")
    refused = [argv + ["--data", f"{kind}={path}"] for kind, argv in FUZZ_RUNS.items()
               for path in (tmp_path / "latin1.txt", tmp_path, tmp_path / "missing.txt", "")]
    refused += [["--command", command, f"--genus={g}"] for command in cli.GENERA
                for g in (-1, 0, 6, 99999999999)]
    refused.append(["--command", "verify-counts", "--genus", "2", "--samples", "0"])
    assert [_outcome(capsys, argv) for argv in refused] == [2] * len(refused)
    # an empty ledger is refused, an empty normalization table lacks the
    # genus, and with no word relations the genus-2 class is not zero (a verdict)
    empty = [_outcome(capsys, argv + ["--data", f"{kind}={tmp_path / 'empty.txt'}"])
             for kind, argv in FUZZ_RUNS.items()]
    assert empty == [2, 2, 2]
