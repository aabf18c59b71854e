import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeinkit import cli, jones, satellite, suites
from skeinkit.cli import main
from skeinkit.diagram import LinkDiagram
from skeinkit.skein import SkeinEngine

SRC = str(Path(__file__).resolve().parents[1] / "src")

# sha256 of every ``verify --suite all`` report with ``ms`` removed.  A change
# to any report's content changes it; such a change is documented in
# CHANGES.md together with the new digest.
ALL_REPORTS_SHA256 = "3c44b9a91586db7b8741c3d2c72f996226fea3bb8da14ca6e569507f73218d9b"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homfly_both_engines(capsys):
    code, out, _ = run(capsys, "homfly", "--braid", "2: 1 1 1", "--engine", "both")
    assert code == 0
    assert "2*v^2*z^0" in out
    assert "engines agree" in out


def test_homfly_hecke_only(capsys):
    code, out, _ = run(capsys, "homfly", "--braid", "3: 2 -1 2 -1 2 -1", "--engine", "hecke")
    assert code == 0
    assert "P =" in out


def test_hecke_rejects_doubled_input(capsys):
    code, _, err = run(
        capsys, "homfly", "--braid", "2: 1 1 1", "--double", "--engine", "hecke"
    )
    assert code == 2
    assert "braid-closure" in err


def test_stats_doubled_quasitoric(capsys):
    code, out, _ = run(capsys, "stats", "--braid", "3: 2 -1 2 -1 2 -1", "--double")
    assert code == 0
    assert "c=24" in out and "s=14" in out and "bound=11" in out


def test_stats_whitehead(capsys):
    code, out, _ = run(capsys, "stats", "--braid", "2: 1 1 1", "--whitehead", "+", "--twists-to", "0")
    assert code == 0
    assert "c=20" in out and "mu=1" in out and "genus=3" in out


def test_stats_json_and_csv(capsys):
    keys = ["input", "crossings", "seifert_circles", "writhe", "components", "morton_bound",
            "canonical_genus"]
    code, out, _ = run(capsys, "stats", "--braid", "2: 1 1 1", "--out", "json")
    assert code == 0
    row = json.loads(out)
    assert list(row) == keys
    assert [row[k] for k in keys[1:]] == [3, 2, 3, 1, 2, "1"]
    code, out, _ = run(capsys, "stats", "--braid", "2: 1 1 1", "--out", "csv")
    assert code == 0
    assert out.splitlines() == [",".join(keys), "braid(2: 1 1 1),3,2,3,1,2,1"]


def test_stats_genus_of_split_diagrams(capsys):
    # One Seifert surface per connected part: a trefoil beside a free
    # circle has genus 1, and two kinked circles side by side genus 0.
    for braid, genus in (("3: 1 1 1", 1), ("4: 1 3", 0)):
        code, out, _ = run(capsys, "stats", "--braid", braid)
        assert code == 0
        assert "mu=2" in out and f"genus={genus}" in out


def test_homfly_csv_row_without_checks(capsys):
    code, out, _ = run(capsys, "homfly", "--braid", "2: 1 1 1", "--out", "csv")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[:4] == ["braid(2: 1 1 1)", "skein", "2", "2"]
    assert row[4:9] == [""] * 5


def test_usage_errors(capsys):
    assert run(capsys, "homfly")[0] == 2
    assert run(capsys, "homfly", "--braid", "nonsense")[0] == 2
    assert run(capsys, "homfly", "--braid", "2: 1", "--twists-to", "3")[0] == 2
    assert run(capsys, "homfly", "--braid", "2: 1", "--double", "--whitehead", "+")[0] == 2
    for argv in (["--suite", "bogus"], ["--suite", "main", "--r-max", "0"], ["--r-max", "-1"]):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", *argv)
        assert exc.value.code == 2
    budgets = [["--nodes", v] for v in ("0", "-5")]
    budgets += [["--timeout", v] for v in ("0", "-1", "nan", "inf")]
    for argv in budgets:
        for command in (["verify", "--suite", "main"], ["homfly", "--braid", "2: 1 1 1"]):
            with pytest.raises(SystemExit) as exc:
                run(capsys, *command, *argv)
            assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["--whitehead", "+"], "canonical_whitehead needs a knot diagram"),
        (["--double", "--twists-to", "1"], "canonical_double needs a knot diagram"),
    ],
)
def test_constructor_refusal_is_a_usage_error(capsys, argv, refusal):
    code, out, err = run(capsys, "homfly", "--braid", "2: 1 -1", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {refusal}")


@pytest.mark.parametrize(
    "argv, size",
    [
        (["stats", "--braid", "2: 1 1 1", "--whitehead", "+", "--twists-to", "99999999999"], 200000000006),
        (["homfly", "--braid", "2: 1 1 1", "--double", "--twists-to", "20000"], 40006),
    ],
    ids=["stats-whitehead", "homfly-double"],
)
def test_a_band_too_large_to_encode_is_a_usage_error(capsys, argv, size):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"would build {size} crossings; canonical codes stop at 16000" in err


def test_homfly_framed_double_with_jones_check(capsys):
    code, out, _ = run(
        capsys, "homfly", "--braid", "2: 1 1 1", "--double", "--twists-to", "1", "--check", "jones"
    )
    assert code == 0
    assert "input: double(m=1, braid(2: 1 1 1))" in out
    assert "[ok  ] jones-specialization-equals-bracket" in out


def test_bracket_self_check_failure_is_an_error_exit(monkeypatch, capsys):
    writhe = LinkDiagram.writhe
    monkeypatch.setattr(LinkDiagram, "writhe", lambda self: writhe(self) + 1)
    code, out, err = run(capsys, "homfly", "--braid", "2: 1 1 1", "--check", "jones")
    assert code == 1
    assert err == "error: writhe-corrected bracket has an odd exponent\n"


def test_whitehead_self_check_failure_is_an_error_exit(monkeypatch, capsys):
    monkeypatch.setattr(satellite, "_clasp", satellite._full_twist)
    code, out, err = run(capsys, "homfly", "--braid", "2: 1 1 1", "--whitehead", "+")
    assert code == 1
    assert err == "error: the Whitehead double is not a knot\n"


def test_pd_input_round_trip(tmp_path, capsys):
    from skeinkit.diagram import from_braid_closure
    from skeinkit.braid import BraidWord

    d = from_braid_closure(BraidWord(2, (1, 1)))
    path = tmp_path / "hopf.pd"
    path.write_text(d.to_pd_text() + "\n")
    code, out, _ = run(capsys, "homfly", "--pd", str(path))
    assert code == 0
    assert "max_z = 1" in out


def test_non_planar_pd_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.pd"
    path.write_text("PD[X(1,3,2,4;+1), X(3,1,4,2;+1)]\n")
    code, out, err = run(capsys, "homfly", "--pd", str(path))
    assert code == 2
    assert out == ""
    assert "not planar" in err


def test_empty_pd_input_exits_2(capsys, monkeypatch):
    for text in ("PD[]\n", "PD[L(0)]\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "stats", "--pd", "-")
        assert code == 2
        assert out == ""
        assert "no crossings and no loops" in err


def test_pd_sign_without_digit_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.pd"
    path.write_text("PD[X(0,3,1,2;), X(2,5,3,4;+), X(4,1,5,0;1)]\n")
    code, out, err = run(capsys, "homfly", "--pd", str(path))
    assert code == 2
    assert out == ""
    assert "unrecognized tokens" in err


def test_hecke_refuses_non_braid_before_skein_work(tmp_path, capsys):
    cache = tmp_path / "c.cache"
    code, out, err = run(
        capsys, "homfly", "--braid", "2: 1 1 1", "--double", "--engine", "both",
        "--nodes", "1", "--cache", str(cache),
    )
    assert code == 2
    assert out == ""
    assert "braid-closure" in err
    assert not cache.exists()


def test_homfly_budget_skip_saves_cache(tmp_path, capsys, monkeypatch):
    # Memo entries are finished values, so a SKIP keeps them for the next run.
    cache = tmp_path / "c.cache"
    argv = ["homfly", "--braid", "3: 1 1 1 2 -1 2", "--whitehead", "+", "--cache", str(cache)]
    code, out, _ = run(capsys, *argv, "--nodes", "50")
    assert code == 1
    assert "[skip] computation  (budget exhausted: skein node budget exhausted)" in out
    assert "P =" not in out
    saved = len(cache.read_text().splitlines())
    assert saved > 0

    engines = []

    class RecordingEngine(SkeinEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(cli, "SkeinEngine", RecordingEngine)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "P =" in out
    assert engines[0].counters()["preloaded"] == saved
    assert len(cache.read_text().splitlines()) > saved


@pytest.mark.parametrize("engine", ["hecke", "both"])
def test_hecke_strand_ceiling_is_a_skip(capsys, engine):
    # The Hecke ceiling ends the report as a SKIP, and no engines agree.
    code, out, err = run(capsys, "homfly", "--engine", engine, "--braid", "11: 1 2 3 4 5 6 7 8 9 10")
    assert (code, err) == (1, "")
    assert out == (
        f"input: braid(11: 1 2 3 4 5 6 7 8 9 10)  [engine: {engine}]\n"
        "  [skip] computation  (budget exhausted: 11 strands would need a 11!-element basis"
        " (ceiling is 10))\n"
    )


def test_warm_runs_leave_the_cache_file_alone(tmp_path, capsys):
    # A run that expands no skein node adds no entry, so it does not save.
    cache = tmp_path / "c.cache"
    for argv in (["verify", "--suite", "borromean"], ["homfly", "--braid", "2: 1 1 1"]):
        assert run(capsys, *argv, "--cache", str(cache))[0] == 0
        before = cache.stat()
        assert run(capsys, *argv, "--cache", str(cache))[0] == 0
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_hecke_engine_leaves_the_cache_alone(tmp_path, capsys):
    # Only the skein engine reads or writes the cache.
    cache = tmp_path / "c.cache"
    argv = ["homfly", "--braid", "2: 1 1 1", "--engine", "hecke", "--cache", str(cache)]
    assert run(capsys, *argv)[0] == 0
    assert not cache.exists()
    cache.write_bytes(b"zz not a cache line\n")
    assert run(capsys, *argv)[0] == 0
    assert cache.read_bytes() == b"zz not a cache line\n"


def test_wrong_cache_value_exits_1_without_traceback(tmp_path, capsys):
    # A line that parses but holds a wrong value for the trefoil (zero, above
    # the Morton bound, or with an odd exponent) fails the engine's
    # self-check, which is a package error, not an assertion.
    from skeinkit.diagram import from_braid_closure
    from skeinkit.braid import BraidWord

    code = from_braid_closure(BraidWord(2, (1, 1, 1))).canonical_code()
    cache = tmp_path / "c.cache"
    for value, error in [
        ("0", "engine produced the zero polynomial"),
        ("1*v^0*z^4", "Morton bound violated: max_z 4 > 2"),
        ("1*v^1*z^0", "exponent parity violated at v^1 z^0 with 1 components"),
    ]:
        cache.write_text(f"{code.hex()}\t{value}\n")
        status, out, err = run(capsys, "homfly", "--braid", "2: 1 1 1", "--cache", str(cache))
        assert status == 1
        assert out == ""
        assert err == f"error: {error}\n"


def test_wrong_cache_value_within_the_self_check_fails_the_jones_check(tmp_path, capsys):
    # The unknot's value for the trefoil is nonzero, within the Morton bound
    # and of the right parity: the self-check passes it, the bracket does not.
    from skeinkit.diagram import from_braid_closure
    from skeinkit.braid import BraidWord

    code = from_braid_closure(BraidWord(2, (1, 1, 1))).canonical_code()
    cache = tmp_path / "c.cache"
    cache.write_text(f"{code.hex()}\t1*v^0*z^0\n")
    status, out, err = run(capsys, "homfly", "--braid", "2: 1 1 1", "--cache", str(cache), "--check", "jones")
    assert status == 1
    assert "  P = 1*v^0*z^0\n" in out
    assert "[FAIL] jones-specialization-equals-bracket" in out
    assert err == ""


@pytest.mark.parametrize("line", ["zz\t1*v^0*z^0", "abcd\tnot a poly"])
def test_corrupt_cache_line_exits_1(tmp_path, capsys, line):
    cache = tmp_path / "c.cache"
    cache.write_text(f"ab\t1*v^0*z^0\n{line}\n")
    for argv in (["homfly", "--braid", "2: 1 1 1"], ["verify", "--suite", "props"], ["cache", "inspect"]):
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "line 2: " in err


def test_k_a_input(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,1,1\n-1,-1,-1\n")
    code, out, _ = run(capsys, "stats", "--k-a", str(path))
    assert code == 0
    assert "c=6" in out and "mu=3" in out


def test_verify_borromean_json(tmp_path, capsys):
    cache = tmp_path / "poly.cache"
    code, out, _ = run(
        capsys, "verify", "--suite", "borromean", "--cache", str(cache), "--out", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    rep = reports[0]
    assert set(rep) == {"input", "engine", "polynomial", "max_z", "morton", "checks", "ms"}
    assert rep["max_z"] == 11
    notes = [c.get("note", "") for c in rep["checks"]]
    assert any("antisymmetry predicts -12" in n for n in notes)
    assert cache.exists()


def test_verify_exits_1_on_a_failed_check(capsys, monkeypatch):
    monkeypatch.setitem(suites.BORROMEAN_DOUBLE_TABLE[11], 1, 3)
    code, out, _ = run(capsys, "verify", "--suite", "borromean")
    assert code == 1
    assert "1 failed" in out


def test_verify_props_csv(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "props", "--out", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("input,engine,max_z,morton,check_id")
    assert ",FAIL," not in out


def test_verify_all_reports_are_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--out", "json")
    assert code == 0
    reports = json.loads(out)
    for rep in reports:
        del rep["ms"]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == ALL_REPORTS_SHA256


def test_r_max_alone_decides_r(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "main", "--r-max", "3", "--nodes", "1", "--out", "json"
    )
    assert code == 0
    r3 = [rep for rep in json.loads(out) if "r=3" in rep["input"]]
    assert [rep["input"] for rep in r3] == [
        "doubled-closure(quasitoric r=3, top_sign=+1)",
        "doubled-closure(quasitoric r=3, top_sign=-1)",
    ]
    for rep in r3:
        assert rep["checks"] == [
            {
                "id": "computation",
                "expected": "",
                "got": "",
                "status": "SKIP",
                "note": "budget exhausted: skein node budget exhausted",
            }
        ]


def test_module_runs_from_a_checkout():
    # The README's checkout command: ``python -m skeinkit`` runs __main__.py.
    proc = subprocess.run(
        [sys.executable, "-m", "skeinkit", "stats", "--braid", "2: 1 1 1"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"braid(2: 1 1 1): c=3 s=2 w=3 mu=1 bound=2 genus=1\n"


@pytest.mark.parametrize("out", ["text", "json"])
def test_closed_stdout_is_clean_exit(out):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skeinkit.cli", "verify", "--suite", "props", "--out", out],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""


def test_verify_budget_skip_and_strict(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "borromean", "--nodes", "1")
    assert code == 0
    assert "skip" in out
    code, _, _ = run(capsys, "verify", "--suite", "borromean", "--nodes", "1", "--strict")
    assert code == 1


def test_bracket_state_budget_is_a_skip(capsys, monkeypatch):
    # The bracket's ceiling ends the report after the checks before it.
    monkeypatch.setattr(jones, "STATE_BUDGET", 5)
    code, out, err = run(capsys, "verify", "--suite", "borromean")
    assert (code, err) == (0, "")
    rows = [line.split("  (")[0] for line in out.splitlines()[3:]]
    assert rows == [f"  [ok  ] coefficients[z^{ez}]" for ez in (-5, -1, 1, 3, 5, 7, 9, 11)] + [
        "  [ok  ] max-z-degree[r=2]",
        "  [skip] computation",
        "checks: 9 passed, 0 failed, 1 skipped",
    ]
    assert "  [skip] computation  (budget exhausted: bracket state budget exhausted)\n" in out
    assert run(capsys, "verify", "--suite", "borromean", "--strict")[0] == 1


def test_verify_structural_budget_skips(capsys):
    # The budget bounds each homfly() call.  Three nodes are too few for the
    # first call of the mirror report, which ends in a SKIP under its
    # check's name; each braid of the two later reports needs at most one
    # new node once the memo holds the earlier ones, so both pass.
    code, out, _ = run(
        capsys, "verify", "--suite", "structural", "--nodes", "3", "--out", "json"
    )
    assert code == 0
    first, *rest = json.loads(out)
    assert first["checks"] == [
        {
            "id": "mirror-identity-failures",
            "expected": "",
            "got": "",
            "status": "SKIP",
            "note": "budget exhausted: skein node budget exhausted",
        }
    ]
    assert [[c["status"] for c in rep["checks"]] for rep in rest] == [["PASS"], ["PASS"]]


@pytest.mark.parametrize("suite, count", [("main", 4), ("borromean", 1), ("family", 30)])
def test_budget_skip_ends_each_computing_report(capsys, suite, count):
    # With no mirror pair computed, main has no mirror-transform report.
    code, out, _ = run(capsys, "verify", "--suite", suite, "--nodes", "1", "--out", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == count
    for rep in reports:
        assert rep["polynomial"] is None
        assert rep["checks"] == [
            {
                "id": "computation",
                "expected": "",
                "got": "",
                "status": "SKIP",
                "note": "budget exhausted: skein node budget exhausted",
            }
        ]


def test_props_budget_bounds_each_evaluation(capsys):
    # The degree-shift report makes 18 homfly() calls on one engine.  The
    # first expands 18 nodes and each later one at most 1, 32 in all.  So
    # 17 nodes SKIP the report at its first call, and 18 pass all of it.
    code, out, _ = run(capsys, "verify", "--suite", "props", "--nodes", "17", "--out", "json")
    assert code == 0
    rep, *rest = json.loads(out)
    assert rep["input"] == "degree-shift-identities(trefoil, m=0..5)"
    assert [(c["id"], c["status"]) for c in rep["checks"]] == [("computation", "SKIP")]
    assert rest and all(c["status"] == "PASS" for r in rest for c in r["checks"])
    code, out, _ = run(capsys, "verify", "--suite", "props", "--nodes", "18", "--out", "json")
    assert code == 0
    rep = json.loads(out)[0]
    assert len(rep["checks"]) == 18
    assert all(c["status"] == "PASS" for c in rep["checks"])


def test_aborted_computation_reports_no_polynomial(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "borromean", "--nodes", "1", "--out", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["polynomial"] is None for r in reports)


def test_cache_inspect_and_compact(tmp_path, capsys):
    cache = tmp_path / "c.cache"
    assert run(capsys, "verify", "--suite", "borromean", "--cache", str(cache))[0] == 0
    code, out, _ = run(capsys, "cache", "inspect", "--cache", str(cache))
    assert code == 0
    assert "entries" in out
    code, out, _ = run(capsys, "cache", "compact", "--cache", str(cache))
    assert code == 0
    assert "rewrote" in out


def test_cache_compact_writes_canonical_text(tmp_path, capsys):
    # A file of lines in the saved grammar, but not as saved: compact writes
    # each entry once, in canonical text, sorted by line.
    cache = tmp_path / "c.cache"
    lines = (
        "0b\t1*v^2*z^2 + 2*v^2*z^0 + -1*v^4*z^0\n"  # terms out of order
        "0a\t2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2\n"
        "0c\t1*v^0*z^0 + 1*v^1*z^1 + -1*v^1*z^1\n"  # cancelling terms
        "\n"
        "0a\t1*v^2*z^2 + -1*v^4*z^0 + 2*v^2*z^0\n"  # a duplicate key
        "0d\t1*v^999999999*z^0\n"  # a 9-digit exponent
        "0e\t-1*v^-1*z^1\n"
    )
    cache.write_text(lines)
    code, out, _ = run(capsys, "cache", "compact", "--cache", str(cache))
    assert code == 0
    assert out == f"cache {cache}: 5 entries, {len(lines)} bytes\nrewrote 5 entries\n"
    assert cache.read_text() == (
        "0a\t2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2\n"
        "0b\t2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2\n"
        "0c\t1*v^0*z^0\n"
        "0d\t1*v^999999999*z^0\n"
        "0e\t-1*v^-1*z^1\n"
    )
    # a line outside the grammar is refused, naming its line, and the file stays
    padded = lines.replace("0e\t-1*v^-1*z^1\n", "0e\t-1*v^-1*z^1  +  1*v^1*z^1\n")
    cache.write_text(padded)
    code, out, err = run(capsys, "cache", "compact", "--cache", str(cache))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "bad cache line 7: " in err
    assert cache.read_text() == padded


def test_cache_commands_refuse_a_missing_file(tmp_path, capsys):
    # verify and homfly start a missing cache; inspect and compact need one
    cache = tmp_path / "missing.cache"
    for action in ("inspect", "compact"):
        code, out, err = run(capsys, "cache", action, "--cache", str(cache))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "missing.cache" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["option", "environment"])
def test_cache_path_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch, source):
    cache = tmp_path / "dir"
    cache.mkdir()
    option = ["--cache", str(cache)] if source == "option" else []
    if source == "environment":
        monkeypatch.setenv("SKEINKIT_CACHE", str(cache))
    for argv in (["cache", "inspect"], ["homfly", "--braid", "2: 1 1 1"], ["verify", "--suite", "props"]):
        code, out, err = run(capsys, *argv, *option)
        assert (code, out) == (2, "")
        assert err == f"error: cache path {cache} is a directory\n"
    assert list(tmp_path.iterdir()) == [cache]
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_cache_path_outside_a_directory_exits_2(tmp_path, capsys, monkeypatch, parent):
    # A cache that could not be saved is refused before any skein work.
    if parent == "file":
        (tmp_path / parent).write_text("")
    cache = tmp_path / parent / "poly.cache"
    calls = []
    monkeypatch.setattr(SkeinEngine, "homfly", lambda self, d: calls.append(d))
    for argv in (["cache", "inspect"], ["homfly", "--braid", "2: 1 1 1"], ["verify", "--suite", "borromean"]):
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (2, "")
        assert err == f"error: cache path {cache} is not in an existing directory\n"
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ([parent] if parent == "file" else [])


def test_cache_requires_path(capsys, monkeypatch):
    monkeypatch.delenv("SKEINKIT_CACHE", raising=False)
    assert run(capsys, "cache", "inspect")[0] == 2
