import json
import subprocess
import sys
from pathlib import Path

import pytest

import holim_engine.cli as cli_mod
from holim_engine.cli import run_command
from holim_engine.dsl import parse
from holim_engine.printer import pretty_print
from holim_engine.errors import TypeMismatch

CORPUS = Path(cli_mod.__file__).parent / "corpus"


@pytest.fixture(scope="module")
def cospan_ws():
    return parse((CORPUS / "cospan.hle").read_text())


@pytest.fixture(scope="module")
def arrow_ws():
    return parse((CORPUS / "arrow.hle").read_text())


@pytest.fixture(scope="module")
def hom_ws():
    return parse((CORPUS / "hom_end.hle").read_text())


def test_holim_loop_betti(cospan_ws):
    rep = run_command(cospan_ws, "holim Loop")
    assert rep.payload["betti"] == {"-1": 1}
    assert rep.exit_code == 0


def test_hopullback_reports_oracle(cospan_ws):
    rep = run_command(cospan_ws, "hopullback Glue")
    assert rep.verdict == "pass"
    assert rep.payload["betti"] == rep.payload["oracle_betti"]


def test_end_of_hom_bifunctor(hom_ws):
    rep = run_command(hom_ws, "end H")
    assert rep.payload["size"] == 2
    assert "2 elements" in rep.human


def test_coend_and_lim_colim(hom_ws, arrow_ws):
    rep = run_command(arrow_ws, "lim S")
    assert rep.payload["size"] == 1
    rep2 = run_command(arrow_ws, "colim S")
    assert rep2.payload["size"] == 2
    rep3 = run_command(hom_ws, "coend H")
    assert rep3.payload["size"] >= 1


def test_lan_ran_commands(arrow_ws):
    # P is the 3-element set over the point; ia hits the initial object a
    rep = run_command(arrow_ws, "lan ia P")
    assert rep.payload["sizes"] == {"a": 3, "b": 3}
    rep2 = run_command(arrow_ws, "ran ia P")
    assert rep2.payload["sizes"] == {"a": 3, "b": 1}


def test_nerve_and_homology(arrow_ws):
    rep = run_command(arrow_ws, "nerve C")
    assert rep.payload["cells"] == {"0": 2, "1": 1}
    rep2 = run_command(arrow_ws, "homology Cone")
    assert rep2.payload["betti"] == {}


def test_hoinitial_verdicts(arrow_ws):
    assert run_command(arrow_ws, "hoinitial ia").verdict == "pass"
    rep = run_command(arrow_ws, "hoinitial ib")
    assert rep.verdict == "fail"
    assert rep.exit_code == 2


def test_compare_holim(arrow_ws):
    rep = run_command(arrow_ws, "compare-holim ia D")
    assert rep.verdict == "pass"
    rep2 = run_command(arrow_ws, "compare-holim ib Dzero")
    assert rep2.verdict == "fail"
    assert rep2.payload["betti_target"] == {"0": 1}
    assert rep2.payload["betti_restricted"] == {"0": 1}


def test_fattot_command(cospan_ws):
    rep = run_command(cospan_ws, "fattot Loop", depth=3)
    assert rep.payload["betti"] == {"-1": 1}
    assert rep.payload["stable_from"] <= -1


def test_verify_all(arrow_ws):
    rep = run_command(arrow_ws, "verify all", seed=11)
    assert rep.verdict == "pass", rep.human


def test_verify_unknown_suite(arrow_ws):
    with pytest.raises(TypeMismatch):
        run_command(arrow_ws, "verify nonsense")


def test_verify_rejects_extra_arguments(arrow_ws):
    with pytest.raises(TypeMismatch, match="at most one suite"):
        run_command(arrow_ws, "verify all extra")
    assert run_command(arrow_ws, "verify", seed=11).payload["suite"] == "all"


def test_unknown_command(arrow_ws):
    with pytest.raises(TypeMismatch):
        run_command(arrow_ws, "summon D")


def _run_cli(args, env=None):
    import os
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, "-m", "holim_engine.cli", *args],
        capture_output=True, env=e)


def test_cli_json_deterministic_across_runs():
    cmds = [(CORPUS / "cospan.hle", "holim Loop"),
            (CORPUS / "cospan.hle", "hopullback Glue"),
            (CORPUS / "arrow.hle", "verify all"),
            (CORPUS / "hom_end.hle", "end H")]
    for path, cmd in cmds:
        runs = [_run_cli([str(path), "--cmd", cmd, "--json", "--seed", "3"])
                for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.endswith(b"\n")
        json.loads(runs[0].stdout)          # valid JSON


def test_cli_exit_codes():
    ok = _run_cli([str(CORPUS / "arrow.hle"), "--cmd", "hoinitial ia"])
    assert ok.returncode == 0
    fail = _run_cli([str(CORPUS / "arrow.hle"), "--cmd", "hoinitial ib"])
    assert fail.returncode == 2
    err = _run_cli([str(CORPUS / "arrow.hle"), "--cmd", "holim NoSuch"])
    assert err.returncode == 1
    assert b"error" in err.stderr


def test_cli_zero_denominator_exits_1(tmp_path):
    src = tmp_path / "bad.hle"
    src.write_text("complex K {\n  degrees: 0..1\n  dim 0: 1\n"
                   "  dim 1: 1\n  d 1: [[1/0]]\n}\n")
    err = _run_cli([str(src), "--cmd", "homology K"])
    assert err.returncode == 1
    assert b"line 5, column 10" in err.stderr
    assert b"Traceback" not in err.stderr


def test_huge_declared_degree_range(tmp_path):
    # only the declared dims are stored, so a wide range costs nothing;
    # the address-space cap turns a regression into a failure, not a
    # machine out of memory
    import resource
    cap = 1536 * 2 ** 20
    src = tmp_path / "big.hle"
    src.write_text("complex Big { degrees: 0..99999999  dim 0: 1 }\n")
    run = subprocess.run(
        [sys.executable, "-m", "holim_engine.cli", str(src), "--cmd",
         "homology Big", "--json"], capture_output=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (cap, cap)))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["betti"] == {"0": 1}
    ws = parse(src.read_text())
    printed = pretty_print(ws)
    assert "degrees: 0..99999999" in printed
    assert parse(printed).get("Big", "complex").value == \
        ws.get("Big", "complex").value
    assert pretty_print(parse(printed)) == printed


def test_huge_dim_beside_another_costs_no_dense_zero(tmp_path):
    # a zero differential stores no rows and its rank visits none, so a
    # huge dim next to a nonzero one runs under the same address cap
    import resource
    cap = 1536 * 2 ** 20
    src = tmp_path / "big.hle"
    src.write_text("complex Big { degrees: 0..1  dim 0: 99999999  "
                   "dim 1: 1 }\n")
    run = subprocess.run(
        [sys.executable, "-m", "holim_engine.cli", str(src), "--cmd",
         "homology Big", "--json"], capture_output=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (cap, cap)))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["betti"] == {"0": 99999999, "1": 1}


def test_dims_spanning_too_many_degrees_rejected(tmp_path):
    # a complex is stored degree by degree between its nonzero dims, so
    # dims this far apart are refused before anything is built
    import resource
    cap = 1536 * 2 ** 20
    src = tmp_path / "big.hle"
    src.write_text("complex Big { degrees: 0..99999999  dim 0: 1  "
                   "dim 99999999: 1 }\n")
    run = subprocess.run(
        [sys.executable, "-m", "holim_engine.cli", str(src), "--cmd",
         "homology Big"], capture_output=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (cap, cap)))
    assert run.returncode == 1
    assert run.stderr.startswith(b"error: ")
    assert b"'Big'" in run.stderr and b"line 1" in run.stderr
    assert b"Traceback" not in run.stderr


def test_chain_action_of_wrong_shape_exits_1(tmp_path):
    src = tmp_path / "shape.hle"
    src.write_text("category C {\n  objects: a, b\n  arrows: f: a -> b\n}\n"
                   "complex Q0 { degrees: 0..0; dim 0: 1 }\n"
                   "diagram D over C into Ch {\n  at a: Q0\n  at b: Q0\n"
                   "  on f: deg 0: [[1, 1]]\n}\n")
    err = _run_cli([str(src), "--cmd", "holim D"])
    assert err.returncode == 1
    assert err.stderr.startswith(b"error: ")
    assert b"'f' at degree 0 should be 1x1" in err.stderr
    assert b"'D' (declared at line 6)" in err.stderr
    assert b"Traceback" not in err.stderr


def test_negative_depth_rejected(cospan_ws):
    with pytest.raises(TypeMismatch):
        run_command(cospan_ws, "fattot Loop", depth=-1)
    err = _run_cli([str(CORPUS / "cospan.hle"), "--cmd", "fattot Loop",
                    "--depth", "-1"])
    assert err.returncode == 1
    assert b"--depth" in err.stderr


def test_unbalanced_quote_is_a_type_mismatch(cospan_ws):
    with pytest.raises(TypeMismatch, match="No closing quotation"):
        run_command(cospan_ws, 'holim "Glue')
    err = _run_cli([str(CORPUS / "cospan.hle"), "--cmd", 'holim "Glue'])
    assert err.returncode == 1
    assert err.stderr.startswith(b"error: ")
    assert b"Traceback" not in err.stderr


def test_workspace_that_is_not_utf8_is_located(tmp_path, capsys):
    src = tmp_path / "latin1.hle"
    src.write_bytes(b"# one\r\n# two\r# caf\xe9\n")
    assert cli_mod.main([str(src), "--cmd", "holim Loop"]) == 1
    assert capsys.readouterr().err == \
        "error: byte 0xe9 is not UTF-8 at line 3, column 6\n"
    err = _run_cli([str(src), "--cmd", "holim Loop"])
    assert err.returncode == 1
    assert err.stderr.startswith(b"error: ")
    assert b"Traceback" not in err.stderr


def test_crlf_workspace_reads_as_lf(tmp_path, capsys):
    text = (CORPUS / "cospan.hle").read_bytes()
    src = tmp_path / "crlf.hle"
    src.write_bytes(text.replace(b"\n", b"\r\n"))
    outs = []
    for path in (CORPUS / "cospan.hle", src):
        assert cli_mod.main([str(path), "--cmd", "holim Loop", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    text = (CORPUS / "cospan.hle").read_bytes()
    src = tmp_path / "bom.hle"
    src.write_bytes(b"\xef\xbb\xbf" + text)
    outs = []
    for path in (CORPUS / "cospan.hle", src):
        assert cli_mod.main([str(path), "--cmd", "holim Glue", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # error positions are counted after the mark, as without it
    src.write_bytes(b"\xef\xbb\xbf# one\r\n# caf\xe9\n")
    assert cli_mod.main([str(src), "--cmd", "holim Loop"]) == 1
    assert capsys.readouterr().err == \
        "error: byte 0xe9 is not UTF-8 at line 2, column 6\n"


EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected"

# (payload in bench/expected, workspace, command, extra flags)
GOLDEN = [
    ("cospan_holim_Loop", "cospan.hle", "holim Loop", ()),
    ("cospan_holim_Glue", "cospan.hle", "holim Glue", ()),
    ("cospan_hopullback_Loop", "cospan.hle", "hopullback Loop", ()),
    ("cospan_hopullback_Glue", "cospan.hle", "hopullback Glue", ()),
    ("cospan_homology_Interval", "cospan.hle", "homology Interval", ()),
    ("cospan_nerve_W", "cospan.hle", "nerve W", ()),
    ("cospan_fattot_Loop_depth_3", "cospan.hle", "fattot Loop",
     ("--depth", "3")),
    ("cospan_fattot_Loop_depth_4", "cospan.hle", "fattot Loop",
     ("--depth", "4")),
    ("cospan_fattot_Glue_depth_4", "cospan.hle", "fattot Glue",
     ("--depth", "4")),
    ("arrow_holim_D", "arrow.hle", "holim D", ()),
    ("arrow_lim_S", "arrow.hle", "lim S", ()),
    ("arrow_colim_S", "arrow.hle", "colim S", ()),
    ("arrow_lan_ia_P", "arrow.hle", "lan ia P", ()),
    ("arrow_ran_ia_P", "arrow.hle", "ran ia P", ()),
    ("arrow_nerve_C", "arrow.hle", "nerve C", ()),
    ("arrow_homology_Cone", "arrow.hle", "homology Cone", ()),
    ("arrow_hoinitial_ia", "arrow.hle", "hoinitial ia", ()),
    ("arrow_compare-holim_ia_D", "arrow.hle", "compare-holim ia D", ()),
    ("hom_end_end_H", "hom_end.hle", "end H", ()),
    ("hom_end_coend_H", "hom_end.hle", "coend H", ()),
]


@pytest.mark.parametrize("slug,fname,cmd,flags", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_cli_json_matches_golden_payload(capsys, slug, fname, cmd, flags):
    code = cli_mod.main([str(CORPUS / fname), "--cmd", cmd, "--json",
                         *flags])
    assert code == 0
    want = (EXPECTED / f"{slug}.json").read_bytes()
    assert capsys.readouterr().out.encode() == want


def test_cli_threads_env_does_not_change_output():
    path = str(CORPUS / "arrow.hle")
    a = _run_cli([path, "--cmd", "verify all", "--json"],
                 env={"HOLIM_ENGINE_THREADS": "1"})
    b = _run_cli([path, "--cmd", "verify all", "--json"],
                 env={"HOLIM_ENGINE_THREADS": "4"})
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


CHAIN_END_SRC = """
category C { objects: a, b; arrows: f: a -> b }
complex Q0 { degrees: 0..0; dim 0: 1 }
diagram H over op(C) * C into Ch {
  at (a,a): Q0
  at (a,b): Q0
  at (b,a): Q0
  at (b,b): Q0
  on (id_a,f): deg 0: [[1]]
  on (id_b,f): deg 0: [[1]]
  on (f,id_a): deg 0: [[1]]
  on (f,id_b): deg 0: [[1]]
}
"""


def test_end_of_chain_bifunctor():
    from holim_engine.dsl import parse
    ws = parse(CHAIN_END_SRC)
    rep = run_command(ws, "end H")
    # identity structure maps: the end is the diagonal copy of Q[0]
    assert rep.payload["betti"] == {"0": 1}
