"""Command-line behavior: exit codes, report files, config defaults,
and parity between the two join engines as invoked through the CLI."""

import json
import os
import subprocess
import sys

import pytest

import graphjoin
from graphjoin.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def file_pairs(tmp_path):
    """Two small generated operands with disjoint attribute suffixes,
    joinable on dob1=dob2,company1=company2."""
    left_dir = tmp_path / "left"
    right_dir = tmp_path / "right"
    for out, seed, suffix in ((left_dir, 1, "1"), (right_dir, 2, "2")):
        code = run_cli(
            "generate",
            "--scale", "4",
            "--seed", str(seed),
            "--dob-values", "3",
            "--company-values", "2",
            "--attr-suffix", suffix,
            "--out", str(out),
        )
        assert code == 0
    return (
        str(left_dir / "graph.vertices.csv"),
        str(left_dir / "graph.edges.tsv"),
        str(right_dir / "graph.vertices.csv"),
        str(right_dir / "graph.edges.tsv"),
    )


def join_args(file_pairs, out_dir, *extra):
    lv, le, rv, re_ = file_pairs
    return (
        "join",
        "--left-vertices", lv,
        "--left-edges", le,
        "--right-vertices", rv,
        "--right-edges", re_,
        "--on", "dob1=dob2,company1=company2",
        "--out", str(out_dir),
        *extra,
    )


# ---------------------------------------------------------------------------
# what a join loads

# modules a file-to-file join never runs: OpenSSL's hashlib backend, the
# bench command's statistics, the verify command, and the generator's
# dependencies
UNUSED_BY_JOIN = (
    "_hashlib",
    "statistics",
    "graphjoin.verify",
    "datetime",
    "numpy",
    "dataclasses",
    "inspect",
)

FOOTPRINT_PROBE = """
import json, sys
unused = json.loads(sys.argv[1])
import graphjoin
loaded = [[m for m in unused if m in sys.modules]]
from graphjoin.cli import main
code = main(json.loads(sys.argv[2]))
loaded.append([m for m in unused if m in sys.modules])
print(json.dumps([code, loaded]))
"""


def test_a_join_loads_only_what_it_runs(tmp_path, file_pairs):
    # a fresh interpreter: this one has loaded everything the suite uses
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(graphjoin.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = join_args(file_pairs, tmp_path / "out", "--semantics", "disjunctive")
    probe = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(UNUSED_BY_JOIN), json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, loaded = json.loads(probe.stdout.splitlines()[-1])
    assert code == 0
    assert (tmp_path / "out" / "edges.tsv").exists()
    assert loaded == [[], []]


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_the_pair_and_echoes_paths(tmp_path, capsys):
    assert run_cli("generate", "--scale", "3", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        str(tmp_path / "graph.vertices.csv"),
        str(tmp_path / "graph.edges.tsv"),
    ]
    lines = (tmp_path / "graph.vertices.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 8


def test_generate_without_scale_is_a_usage_error(tmp_path, capsys):
    assert run_cli("generate", "--out", str(tmp_path)) == 2
    assert "--scale" in capsys.readouterr().err


def test_generate_rejects_bad_scale(tmp_path, capsys):
    assert run_cli("generate", "--scale", "-1", "--out", str(tmp_path)) == 1
    assert "scale" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# join


def test_join_reports_and_engines_agree(tmp_path, file_pairs, capsys):
    opt_dir = tmp_path / "opt"
    ora_dir = tmp_path / "ora"
    assert run_cli(*join_args(file_pairs, opt_dir, "--semantics", "disjunctive")) == 0
    assert run_cli(
        *join_args(file_pairs, ora_dir, "--semantics", "disj", "--engine", "oracle")
    ) == 0

    with open(opt_dir / "join_report.json", encoding="utf-8") as fh:
        opt_report = json.load(fh)
    with open(ora_dir / "join_report.json", encoding="utf-8") as fh:
        ora_report = json.load(fh)

    assert opt_report["engine"] == "optimized"
    assert opt_report["semantics"] == "disjunctive"
    assert opt_report["on"] == ["dob1=dob2", "company1=company2"]
    assert opt_report["counters"]["vertex_comparisons"] > 0
    assert set(opt_report["timings_s"]) == {"prepare_files", "join"}
    assert ora_report["counters"] is None
    assert ora_report["result"]["vertices"] == opt_report["result"]["vertices"] > 0
    # the engine reports its edge count before materializing any edge
    assert ora_report["result"]["edges"] == opt_report["result"]["edges"] > 0
    assert "threads" not in opt_report

    # same elements, same canonical order, byte-identical files
    for name in ("vertices.csv", "edges.tsv"):
        assert (opt_dir / name).read_bytes() == (ora_dir / name).read_bytes()


def test_join_explain_prints_the_cost_table(tmp_path, file_pairs, capsys):
    assert run_cli(*join_args(file_pairs, tmp_path / "out", "--explain")) == 0
    out = capsys.readouterr().out
    assert "bound" in out
    assert "vertex_comparisons" in out


def test_join_without_on_is_a_usage_error(tmp_path, file_pairs, capsys):
    lv, le, rv, re_ = file_pairs
    code = run_cli(
        "join",
        "--left-vertices", lv,
        "--left-edges", le,
        "--right-vertices", rv,
        "--right-edges", re_,
        "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "--on" in capsys.readouterr().err


def test_join_with_malformed_on_fails(tmp_path, file_pairs, capsys):
    lv, le, rv, re_ = file_pairs
    code = run_cli(
        "join",
        "--left-vertices", lv,
        "--left-edges", le,
        "--right-vertices", rv,
        "--right-edges", re_,
        "--on", "dob1",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert "attr=attr" in capsys.readouterr().err


def test_join_with_missing_input_file_is_an_io_error(tmp_path, file_pairs, capsys):
    lv, le, rv, re_ = file_pairs
    code = run_cli(
        "join",
        "--left-vertices", str(tmp_path / "nope.csv"),
        "--left-edges", le,
        "--right-vertices", rv,
        "--right-edges", re_,
        "--on", "dob1=dob2",
        "--out", str(tmp_path / "out"),
    )
    assert code == 3


# one bad file per input slot; each fault sits on line 2
BAD_INPUTS = {
    "left-vertices": "id,k\n0,a,b\n",
    "left-edges": "0\t1\n0\t99\n",
    "right-vertices": "id,k\nseven,a\n",
    "right-edges": "0\t1\nx\t1\n",
}


@pytest.mark.parametrize("engine", ["optimized", "oracle"])
@pytest.mark.parametrize("slot", sorted(BAD_INPUTS))
def test_join_with_malformed_input_is_a_data_error(tmp_path, file_pairs, capsys, slot, engine):
    inputs = dict(zip(("left-vertices", "left-edges", "right-vertices", "right-edges"), file_pairs))
    bad = tmp_path / "bad"
    bad.write_text(BAD_INPUTS[slot], encoding="utf-8")
    inputs[slot] = str(bad)
    argv = ["join", "--on", "dob1=dob2", "--engine", engine, "--out", str(tmp_path / "out")]
    for name, path in inputs.items():
        argv += [f"--{name}", path]
    assert run_cli(*argv) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["optimized", "oracle"])
def test_join_reports_the_first_bad_file_in_read_order(tmp_path, file_pairs, capsys, engine):
    # left edges are read before right vertices, so their fault wins
    lv, le, rv, re_ = file_pairs
    bad_edges = tmp_path / "bad.tsv"
    bad_edges.write_text("0\t1\n1\t2\n0\n", encoding="utf-8")
    bad_vertices = tmp_path / "bad.csv"
    bad_vertices.write_text("id,k\n-1,a\n", encoding="utf-8")
    code = run_cli(
        "join",
        "--left-vertices", lv,
        "--left-edges", str(bad_edges),
        "--right-vertices", str(bad_vertices),
        "--right-edges", re_,
        "--on", "dob1=dob2",
        "--engine", engine,
        "--out", str(tmp_path / "out"),
    )
    assert code == 3
    assert "line 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_prints_one_line_per_suite(capsys):
    assert run_cli("verify", "--trials", "5", "--max-vertices", "5") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 8
    assert all(line.startswith("PASS ") for line in out)


def test_verify_with_zero_trials_warns(capsys):
    assert run_cli("verify", "--trials", "0") == 0
    captured = capsys.readouterr()
    assert "nothing was checked" in captured.err
    assert "vacuous" in captured.out


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_the_report(tmp_path, capsys):
    code = run_cli(
        "bench",
        "--scales", "4,5",
        "--semantics", "both",
        "--dob-values", "3",
        "--company-values", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "bench_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert {(c["scale"], c["semantics"]) for c in report["cells"]} == {
        (4, "conjunctive"), (4, "disjunctive"),
        (5, "conjunctive"), (5, "disjunctive"),
    }
    for cell in report["cells"]:
        assert cell["join_s"] >= 0
        assert cell["counters"]["vertex_comparisons"] > 0
        assert not cell["timed_out"]
    out = capsys.readouterr().out
    assert "2^4 conjunctive" in out
    assert "report:" in out


def test_bench_rejects_malformed_scales(tmp_path, capsys):
    assert run_cli("bench", "--scales", "a,b", "--out", str(tmp_path)) == 1
    assert "scales" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files and argument plumbing


def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "graphjoin.cfg"
    cfg.write_text(f"scale=3\nout={tmp_path / 'a'}\n", encoding="utf-8")

    assert run_cli("--config", str(cfg), "generate") == 0
    lines = (tmp_path / "a" / "graph.vertices.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 8

    assert run_cli("--config", str(cfg), "generate", "--scale", "2",
                   "--out", str(tmp_path / "b")) == 0
    lines = (tmp_path / "b" / "graph.vertices.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 4


def test_config_errors(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli("--config", str(missing), "generate", "--scale", "2") == 3

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("no_such_option=1\n", encoding="utf-8")
    assert run_cli("--config", str(bad_key), "generate", "--scale", "2") == 2

    bad_int = tmp_path / "bad_int.cfg"
    bad_int.write_text("scale=three\n", encoding="utf-8")
    assert run_cli("--config", str(bad_int), "generate", "--scale", "2") == 2

    bad_float = tmp_path / "bad_float.cfg"
    bad_float.write_text("timeout=soon\n", encoding="utf-8")
    assert run_cli("--config", str(bad_float), "generate", "--scale", "2") == 2

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just words\n", encoding="utf-8")
    assert run_cli("--config", str(malformed), "generate", "--scale", "2") == 3

    # a config value outside the choices of the chosen subcommand
    join_args = ["--left-vertices", "lv", "--left-edges", "le", "--right-vertices", "rv"]
    join_args += ["--right-edges", "re", "--on", "k=k", "--out", str(tmp_path / "out")]
    for text, command in (
        ("semantics=both", ["join", *join_args]),
        ("engine=fast", ["join", *join_args]),
        ("semantics=sideways", ["bench", "--scales", "2", "--out", str(tmp_path / "bench")]),
    ):
        bad_choice = tmp_path / "bad_choice.cfg"
        bad_choice.write_text(text + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("--config", str(bad_choice), *command) == 2
        key = text.partition("=")[0]
        assert f"error: config key {key!r} expects one of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "bench").exists()


def test_config_takes_every_option_that_takes_a_value(tmp_path, file_pairs):
    cfg = tmp_path / "generate.cfg"
    cfg.write_text(f"attr-suffix=x\nout={tmp_path / 'gen'}\n", encoding="utf-8")
    assert run_cli("--config", str(cfg), "generate", "--scale", "2") == 0
    header = (tmp_path / "gen" / "graph.vertices.csv").read_text(encoding="utf-8").splitlines()[0]
    assert "dobx" in header and "companyx" in header

    # join's four paths and its key pairs from the file, as from flags
    lv, le, rv, re_ = file_pairs
    cfg = tmp_path / "join.cfg"
    cfg.write_text(
        f"left-vertices={lv}\nleft_edges={le}\nright-vertices={rv}\nright_edges={re_}\n"
        "on=dob1=dob2,company1=company2\n",
        encoding="utf-8",
    )
    assert run_cli("--config", str(cfg), "join", "--out", str(tmp_path / "from-config")) == 0
    assert run_cli(*join_args(file_pairs, tmp_path / "from-flags")) == 0
    for name in ("vertices.csv", "edges.tsv"):
        from_config = (tmp_path / "from-config" / name).read_bytes()
        assert from_config == (tmp_path / "from-flags" / name).read_bytes()


def test_help_and_unknown_commands(capsys):
    assert run_cli("--help") == 0
    assert run_cli("frobnicate") == 2
    assert run_cli() == 2
