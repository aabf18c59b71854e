import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeinkit import cli
from skeinkit.cli import main
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


def test_homfly_framed_double_with_jones_check(capsys):
    code, out, _ = run(
        capsys, "homfly", "--braid", "2: 1 1 1", "--double", "--twists-to", "1", "--check", "jones"
    )
    assert code == 0
    assert "input: double(m=1, braid(2: 1 1 1))" in out
    assert "[ok  ] jones-specialization-equals-bracket" in out


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


def test_verify_structural_budget_skips(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "structural", "--nodes", "5", "--out", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3
    for rep in reports:
        assert [c["status"] for c in rep["checks"]] == ["SKIP"]
        assert rep["checks"][0]["note"] == "budget exhausted: skein node budget exhausted"


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


def test_cache_commands_refuse_a_missing_file(tmp_path, capsys):
    # verify and homfly start a missing cache; inspect and compact need one
    cache = tmp_path / "missing.cache"
    for action in ("inspect", "compact"):
        code, out, err = run(capsys, "cache", action, "--cache", str(cache))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "missing.cache" in err
    assert list(tmp_path.iterdir()) == []


def test_cache_requires_path(capsys, monkeypatch):
    monkeypatch.delenv("SKEINKIT_CACHE", raising=False)
    assert run(capsys, "cache", "inspect")[0] == 2
