"""File formats: vertex CSV / edge TSV loading with line-numbered
errors, graph and join-result writing, the synthetic generator, and
key=value config parsing."""

import csv

import pytest

from graphjoin.engine import prepare_files
from graphjoin.graphio import (
    DanglingEndpointError,
    DuplicateIdError,
    GeneratorParams,
    MalformedRowError,
    build_graph,
    generate,
    generate_rows,
    load_graph_pair,
    provenance_token,
    read_config,
    write_graph,
    write_join_result,
)
from graphjoin.logical import CONJUNCTIVE, DISJUNCTIVE, JoinSpec, graph_join
from graphjoin.model import (
    EMPTY_RECORD,
    DataFormatError,
    PropertyGraph,
    Record,
    ValidationError,
    component_from_payloads,
)
from graphjoin.relational import ThetaPredicate

K_EQ = ThetaPredicate.equalities([("k", "k")])


def write_files(tmp_path, vertex_text, edge_text):
    vp = tmp_path / "v.csv"
    ep = tmp_path / "e.tsv"
    vp.write_text(vertex_text, encoding="utf-8")
    ep.write_text(edge_text, encoding="utf-8")
    return vp, ep


def payloads(elements):
    return sorted((el.record.items, el.replica) for el in elements)


# ---------------------------------------------------------------------------
# loading


def test_load_graph_pair_basic(tmp_path):
    vp, ep = write_files(
        tmp_path,
        "id,k,color\n0,a,red\n1,b,\n2,a,red\n",
        "0\t1\n2\t0\n",
    )
    db = PropertyGraph()
    g = load_graph_pair(db, vp, ep, vertex_labels=["V"], edge_labels=["E"])

    # the empty color cell means the attribute is absent, and the two
    # identical (a, red) rows become replicas 1 and 2
    assert payloads(g.vertices) == [
        ((("k", "a"), ("color", "red"))[::-1], 1),
        ((("color", "red"), ("k", "a")), 2),
        ((("k", "b"),), 1),
    ]
    assert all(db.vertex_labels_of(v) == frozenset({"V"}) for v in g.vertices)
    assert len(g.edges) == 2
    assert all(e.record == EMPTY_RECORD for e in g.edges)
    assert all(db.edge_labels_of(e) == frozenset({"E"}) for e in g.edges)
    ends = sorted(
        (db.endpoints_of(e)[0].record.get("color", ""), db.endpoints_of(e)[1].record.get("k"))
        for e in g.edges
    )
    assert ends == [("red", "a"), ("red", "b")]
    db.validate()


def test_keep_id_turns_the_id_column_into_an_attribute(tmp_path):
    vp, ep = write_files(tmp_path, "id,k\n7,a\n", "")
    db = PropertyGraph()
    g = load_graph_pair(db, vp, ep, keep_id=True)
    (v,) = g.vertices
    assert v.record == Record({"id": "7", "k": "a"})


def test_replica_numbering_continues_across_loads(tmp_path):
    vp, ep = write_files(tmp_path, "id,k\n0,a\n", "0\t0\n")
    db = PropertyGraph()
    g1 = load_graph_pair(db, vp, ep)
    g2 = load_graph_pair(db, vp, ep)
    assert payloads(g1.vertices) == [((("k", "a"),), 1)]
    assert payloads(g2.vertices) == [((("k", "a"),), 2)]
    assert payloads(g2.edges) == [((), 2)]
    db.validate()


VERTEX_FILE_ERRORS = [
    ("", 1, MalformedRowError),
    ("id,,k\n", 1, MalformedRowError),
    ("id,k\n0,a,extra\n", 2, MalformedRowError),
    ("id,k\nseven,a\n", 2, MalformedRowError),
    ("id,k\n-1,a\n", 2, MalformedRowError),
    ("id,k\n0,a\n0,b\n", 3, DuplicateIdError),
]
EDGE_FILE_ERRORS = [
    ("0\t1\t2\n", 1, MalformedRowError),
    ("0\t1\n0\t9\n", 2, DanglingEndpointError),
    ("x\t1\n", 1, MalformedRowError),
]
GOOD_VERTICES = "id,k\n0,a\n1,b\n"


@pytest.mark.parametrize("vertex_text,line,excT", VERTEX_FILE_ERRORS)
def test_vertex_file_errors_carry_line_numbers(tmp_path, vertex_text, line, excT):
    vp, ep = write_files(tmp_path, vertex_text, "")
    with pytest.raises(excT) as ei:
        load_graph_pair(PropertyGraph(), vp, ep)
    assert ei.value.line == line
    assert f"line {line}:" in str(ei.value)


@pytest.mark.parametrize("edge_text,line,excT", EDGE_FILE_ERRORS)
def test_edge_file_errors_carry_line_numbers(tmp_path, edge_text, line, excT):
    vp, ep = write_files(tmp_path, GOOD_VERTICES, edge_text)
    with pytest.raises(excT) as ei:
        load_graph_pair(PropertyGraph(), vp, ep)
    assert ei.value.line == line


@pytest.mark.parametrize("bad_side", ["left", "right"])
@pytest.mark.parametrize(
    "vertex_text,edge_text,line,excT",
    [(text, "", line, excT) for text, line, excT in VERTEX_FILE_ERRORS]
    + [(GOOD_VERTICES, text, line, excT) for text, line, excT in EDGE_FILE_ERRORS],
)
def test_prepare_files_raises_what_load_graph_pair_raises(
    tmp_path, bad_side, vertex_text, edge_text, line, excT
):
    (tmp_path / "bad").mkdir()
    (tmp_path / "good").mkdir()
    bad = write_files(tmp_path / "bad", vertex_text, edge_text)
    good = write_files(tmp_path / "good", GOOD_VERTICES, "0\t1\n1\t1\n")
    with pytest.raises(excT) as loaded:
        load_graph_pair(PropertyGraph(), *bad)
    pairs = (bad, good) if bad_side == "left" else (good, bad)
    with pytest.raises(excT) as prepared:
        prepare_files(*pairs, ["k"], ["k"])
    assert type(prepared.value) is type(loaded.value)
    assert prepared.value.line == loaded.value.line == line


# ---------------------------------------------------------------------------
# writing


def test_write_graph_round_trips(tmp_path):
    db = PropertyGraph()
    g = component_from_payloads(
        db,
        [Record({"k": "a", "c": "1"}), Record({"k": "a", "c": "1"}), Record({"k": "b"})],
        [(0, 1, EMPTY_RECORD), (2, 0, EMPTY_RECORD)],
    )
    vp = tmp_path / "out.csv"
    ep = tmp_path / "out.tsv"
    write_graph(g, vp, ep)

    back = load_graph_pair(PropertyGraph(), vp, ep)
    assert payloads(back.vertices) == payloads(g.vertices)
    assert payloads(back.edges) == payloads(g.edges)
    orig_ends = sorted(
        (s.record.items, s.replica, d.record.items, d.replica)
        for s, d in (db.endpoints_of(e) for e in g.edges)
    )
    back_ends = sorted(
        (s.record.items, s.replica, d.record.items, d.replica)
        for s, d in (back.db.endpoints_of(e) for e in back.edges)
    )
    assert back_ends == orig_ends


def test_write_graph_rejects_id_attribute(tmp_path):
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"id": "1"})], [])
    with pytest.raises(DataFormatError, match="collides"):
        write_graph(g, tmp_path / "v.csv", tmp_path / "e.tsv")


def test_write_join_result_adds_provenance(tmp_path, citation_instance):
    db, researcher, citation = citation_instance
    theta = ThetaPredicate.equalities([("Name", "1Author")])
    res = graph_join(researcher, citation, JoinSpec(theta, CONJUNCTIVE))
    vp, ep = write_join_result(res, tmp_path / "out")

    with open(vp, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "1Author", "Name", "Title", "_provenance"]
    assert len(rows) == 3
    for row in rows[1:]:
        # merged from two real operand leaves: token+token, no
        # placeholder marker
        left, sep, right = row[-1].partition("+")
        assert sep == "+"
        assert "~" not in row[-1]
        assert left.endswith(":1") and right.endswith(":1")
    with open(ep, newline="", encoding="utf-8") as fh:
        erows = list(csv.reader(fh, delimiter="\t"))
    assert len(erows) == 1
    assert {erows[0][0], erows[0][1]} == {rows[1][0], rows[2][0]}

    # the pair is loadable; provenance comes back as a plain attribute
    back = load_graph_pair(PropertyGraph(), vp, ep)
    assert len(back.vertices) == 2 and len(back.edges) == 1


def test_provenance_marks_placeholders(tmp_path):
    db = PropertyGraph()
    left = component_from_payloads(
        db, [Record({"k": "a"}), Record({"k": "b"})], [(0, 1, EMPTY_RECORD)]
    )
    right = component_from_payloads(
        db, [Record({"k": "a"}), Record({"k": "b"})], []
    )
    res = graph_join(left, right, JoinSpec(K_EQ, DISJUNCTIVE))
    (fill,) = res.edges
    token = provenance_token(fill)
    real, sep, synthetic = token.partition("+")
    assert sep == "+"
    assert not real.startswith("~")
    assert synthetic.startswith("~")

    leaf = next(iter(left.vertices))
    assert "+" not in provenance_token(leaf)


def test_write_join_result_reserves_the_provenance_column(tmp_path):
    db = PropertyGraph()
    g = component_from_payloads(db, [Record({"_provenance": "x"})], [])
    with pytest.raises(DataFormatError, match="reserved"):
        write_join_result(g, tmp_path / "out")


def test_write_join_result_on_an_empty_result(tmp_path):
    db = PropertyGraph()
    left = component_from_payloads(db, [Record({"k": "a"})], [])
    right = component_from_payloads(db, [Record({"k": "zzz"})], [])
    res = graph_join(left, right, JoinSpec(K_EQ, CONJUNCTIVE))
    vp, ep = write_join_result(res, tmp_path / "out")
    assert (tmp_path / "out" / "vertices.csv").read_text(encoding="utf-8") == "id,_provenance\n"
    assert (tmp_path / "out" / "edges.tsv").read_text(encoding="utf-8") == ""
    back = load_graph_pair(PropertyGraph(), vp, ep)
    assert len(back.vertices) == 0 and len(back.edges) == 0


# ---------------------------------------------------------------------------
# the generator


def test_generate_rows_shape_and_determinism():
    params = GeneratorParams(scale=6, seed=9, edge_factor=3)
    header, vrows, erows = generate_rows(params)
    assert header == ("id", "sex", "name", "surname", "dob", "email", "company", "residence")
    assert len(vrows) == 64
    assert len(erows) == 64 * 3
    assert [r[0] for r in vrows] == [str(i) for i in range(64)]
    assert all(0 <= s < 64 and 0 <= d < 64 for s, d in erows)
    # emails are the unique column; dobs land in the configured domain
    assert len({r[5] for r in vrows}) == 64
    assert len({r[4] for r in vrows}) <= params.dob_values

    again = generate_rows(GeneratorParams(scale=6, seed=9, edge_factor=3))
    assert again == (header, vrows, erows)
    other = generate_rows(GeneratorParams(scale=6, seed=10, edge_factor=3))
    assert other[2] != erows


def test_attr_suffix_renames_everything_but_id():
    header, vrows, _ = generate_rows(GeneratorParams(scale=2, attr_suffix="1"))
    assert header == ("id", "sex1", "name1", "surname1", "dob1", "email1", "company1", "residence1")
    assert len(vrows) == 4


def test_generator_params_validation():
    with pytest.raises(ValidationError):
        GeneratorParams(scale=-1)
    with pytest.raises(ValidationError):
        GeneratorParams(scale=23)
    with pytest.raises(ValidationError):
        GeneratorParams(scale=2, edge_factor=-1)
    with pytest.raises(ValidationError):
        GeneratorParams(scale=2, dob_values=0)
    with pytest.raises(ValidationError):
        GeneratorParams(scale=2, attr_suffix="no-dashes")


def test_build_graph_equals_generate_then_load(tmp_path):
    params = GeneratorParams(scale=4, seed=3)
    direct_db = PropertyGraph()
    direct = build_graph(direct_db, params, vertex_labels=["Person"])

    vp, ep = generate(params, tmp_path)
    loaded_db = PropertyGraph()
    loaded = load_graph_pair(loaded_db, vp, ep, vertex_labels=["Person"])

    assert payloads(direct.vertices) == payloads(loaded.vertices)
    assert payloads(direct.edges) == payloads(loaded.edges)
    d_ends = sorted(
        (s.record.items, s.replica, d.record.items, d.replica)
        for s, d in (direct_db.endpoints_of(e) for e in direct.edges)
    )
    l_ends = sorted(
        (s.record.items, s.replica, d.record.items, d.replica)
        for s, d in (loaded_db.endpoints_of(e) for e in loaded.edges)
    )
    assert d_ends == l_ends
    assert all(direct_db.vertex_labels_of(v) == frozenset({"Person"}) for v in direct.vertices)


# ---------------------------------------------------------------------------
# config files


def test_read_config_parses_and_strips(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(
        "# comment\n\n left = graphs/a.csv \nsemantics=disjunctive\nextra=a=b\n",
        encoding="utf-8",
    )
    assert read_config(p) == {
        "left": "graphs/a.csv",
        "semantics": "disjunctive",
        "extra": "a=b",
    }


def test_read_config_errors(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("ok=1\nnot a pair\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as ei:
        read_config(p)
    assert ei.value.line == 2
    p.write_text("=value\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as ei:
        read_config(p)
    assert ei.value.line == 1
