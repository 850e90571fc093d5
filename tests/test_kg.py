import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgreason import kg
from kgreason.config import load_config
from kgreason.evaluate import load_dataset
from kgreason.kg import (
    FORMAT_ERROR,
    MISSING_TRIPLE,
    KnowledgeGraph,
    PathParseError,
    ReasoningPath,
    ReasoningStep,
    TripleParseError,
    contains_triple,
    load_triples,
    neighbors,
    split_lines,
    validate_path,
)
from kgreason.llm import load_mock_script
from kgreason.prompts import BUILTIN_DEMONSTRATIONS, load_demonstrations
from kgreason.search import SearchTrace


def load_fixture(name):
    with open(f"fixtures/{name}") as fh:
        return load_triples(fh)


def triples_of(g):
    """The graph's edges as a set of (head, relation, tail) tuples, the
    oracle the parsing and CSR tests compare with."""
    return frozenset(g.edges())


# --- parsing -----------------------------------------------------------------


def test_single_line_parses_to_one_triple():
    g = load_triples(io.StringIO("A\tr1\tB\n"))
    assert len(g.entities) == 2
    assert len(g.relations) == 1
    assert len(triples_of(g)) == 1
    assert ("A", "r1", "B") in triples_of(g)


def test_duplicate_lines_dedupe():
    g = load_triples(io.StringIO("A\tr1\tB\nA\tr1\tB\n"))
    assert len(triples_of(g)) == 1
    assert g == load_triples(io.StringIO("A\tr1\tB\n"))


def test_comments_and_blank_lines_skipped():
    g = load_triples(io.StringIO("# header\n\nA\tr1\tB\n"))
    assert len(triples_of(g)) == 1


def test_bytes_and_iterable_sources():
    from_bytes = load_triples(io.BytesIO(b"A\tr1\tB\n"))
    from_list = load_triples(["A\tr1\tB"])
    assert from_bytes == from_list


def test_malformed_line_reports_line_number():
    with pytest.raises(TripleParseError) as exc:
        load_triples(io.StringIO("A\tr1\tB\nbroken line\n"))
    assert exc.value.line_number == 2


def test_empty_field_rejected():
    with pytest.raises(TripleParseError) as exc:
        load_triples(io.StringIO("A\t\tB\n"))
    assert exc.value.line_number == 1


@pytest.mark.parametrize("fields", [("A->", "r", "B"), ("A", "r -> s", "B"), ("A", "r", "->")])
def test_arrow_in_identifier_rejected_with_line_number(fields):
    with pytest.raises(TripleParseError) as exc:
        load_triples(io.StringIO("A\tr1\tB\n" + "\t".join(fields) + "\n"))
    assert exc.value.line_number == 2
    assert "->" in str(exc.value)


def parent_load_triples(lines):
    """The triple-file loop that strips each line's trailing newline before
    its checks, kept as an oracle for ``load_triples``."""
    edges = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "->" in line:
            raise TripleParseError("identifier contains '->'", line_number)
        fields = line.split("\t")
        if len(fields) != 3:
            raise TripleParseError(f"expected 3 tab-separated fields, got {len(fields)}", line_number)
        head, relation, tail = fields[0].strip(), fields[1].strip(), fields[2].strip()
        if not head or not relation or not tail:
            raise TripleParseError("empty field after normalization", line_number)
        edges.append((head, relation, tail))
    return KnowledgeGraph(edges)


# whitespace that str.strip removes (\x0b, \x1c) or keeps apart (\r before \n),
# the comment mark and the two halves of the arrow
PARSE_ALPHABET = "\t #\r\x0b\x1c->ab"
# whitespace that str.strip removes: Unicode spaces, \x0b, \x1c and a lone \r
PADS = ["", " ", "\u00a0", "\u2003", "\u3000", "\x0b", "\x1c", "\r"]
# words with non-ASCII letters, a '#' inside, the arrow or half of it, nothing
WORDS = ["A", "b c", "\u00dcn\u00ef", "\u65e5\u672c", "#", "a#b", "->", "x->y", "-", ">", ""]
PADDED = st.tuples(st.sampled_from(PADS), st.sampled_from(WORDS), st.sampled_from(PADS)).map("".join)
FIELDS = st.lists(PADDED, min_size=2, max_size=4).map("\t".join)  # 2 to 4 fields
COMMENT = st.tuples(st.sampled_from(PADS), st.lists(PADDED, max_size=3).map("\t".join)).map("#".join)
LINE = st.tuples(
    st.one_of(st.text(PARSE_ALPHABET, max_size=12), FIELDS, COMMENT, st.sampled_from(PADS)),
    st.sampled_from(["\n", "\r\n", "\r\r\n", ""]),
).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.lists(LINE, max_size=8), st.booleans())
def test_load_triples_matches_the_line_stripping_loop(lines, as_bytes):
    source = [line.encode("utf-8") for line in lines] if as_bytes else lines
    try:
        expected = parent_load_triples(lines)
    except TripleParseError as error:
        with pytest.raises(TripleParseError) as exc:
            load_triples(source)
        assert (str(exc.value), exc.value.line_number) == (str(error), error.line_number)
    else:
        assert load_triples(source) == expected


@pytest.mark.parametrize(
    "source",
    [lambda: io.BytesIO(b"\xef\xbb\xbfA\tr\tB\n"), lambda: io.StringIO("\ufeffA\tr\tB\n"),
     lambda: [b"\xef\xbb\xbfA\tr\tB"]],
    ids=["bytes", "str", "list"],
)
def test_a_byte_order_mark_before_the_first_line_is_dropped(source):
    assert load_triples(source()).entity_names == ("A", "B")


def test_a_byte_order_mark_before_a_comment_in_a_utf8_file_is_dropped(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_bytes(b"\xef\xbb\xbf# header\nA\tr\tB\n")
    with open(path, encoding="utf-8") as fh:
        assert load_triples(fh).entity_names == ("A", "B")


def test_a_byte_order_mark_after_the_start_of_the_file_is_kept():
    g = load_triples(["A\tr\tB\n", "\ufeffC\tr\tD\n", "E\tr\t\ufeffF\n"])
    assert g.entity_names == ("A", "B", "D", "E", "\ufeffC", "\ufeffF")


def test_empty_stream_gives_empty_graph():
    g = load_triples(io.StringIO(""))
    assert len(triples_of(g)) == 0
    assert len(g.entities) == 0


# --- interning in chunks ---------------------------------------------------------

CHUNK = kg.INTERN_CHUNK


def chunked_lines(n):
    """``n`` triple lines whose later chunks first name entities and relations
    that sort before every name of the chunks before them."""
    lines = []
    for i in range(n):
        prefix = "zyx"[min(i // CHUNK, 2)]  # "z" names, then "y", then "x"
        tail = prefix if i % 2 else "z"  # half the tails name a "z" entity
        lines.append(f"{prefix}{i % 997}\t{prefix}rel{i % 13}\t{tail}{i * 7 % 991}\n")
    return lines


def test_a_file_of_several_chunks_gives_the_graph_of_its_edges():
    lines = chunked_lines(2 * CHUNK + 100)
    edges = [tuple(line.rstrip("\n").split("\t")) for line in lines]
    expected = KnowledgeGraph(iter(edges))
    assert expected.entity_names == tuple(sorted({edge[i] for edge in edges for i in (0, 2)}))
    assert expected.relation_names[:2] == ("xrel0", "xrel1") and len(expected) == len(set(edges))
    for source in (lines, [line.encode("utf-8") for line in lines]):
        g = load_triples(source)
        assert g == expected and g.entity_names == expected.entity_names
        assert g.relation_names == expected.relation_names and g.entity_ids == expected.entity_ids
        for name in ("offsets", "edge_relations", "edge_tails"):
            assert getattr(g, name).tolist() == getattr(expected, name).tolist()


BOUNDARY_LINES = {
    "malformed": "only\ttwo fields\n",
    "arrow": "a->b\tr\tc\n",
    "comment": "# a\tcomment\n",
    "blank": "  \n",
}


@pytest.mark.parametrize("line_number", [CHUNK, CHUNK + 1, CHUNK + 2], ids=["last", "next-first", "next-second"])
@pytest.mark.parametrize("kind", sorted(BOUNDARY_LINES))
def test_a_line_at_a_chunk_boundary_loads_as_the_line_stripping_loop(kind, line_number):
    lines = chunked_lines(2 * CHUNK + 10)
    lines[line_number - 1] = BOUNDARY_LINES[kind]
    try:
        expected = parent_load_triples(lines)
    except TripleParseError as error:
        assert error.line_number == line_number
        with pytest.raises(TripleParseError) as exc:
            load_triples(lines)
        assert (str(exc.value), exc.value.line_number) == (str(error), error.line_number)
    else:
        assert kind in ("comment", "blank")
        assert load_triples(lines) == expected


@pytest.mark.parametrize(
    "edges,entities,name",
    [([("a -> b", "r", "c")], (), "a -> b"), ([("a", "r->s", "c")], (), "r->s"),
     ([("a", "r", "->c")], (), "->c"), ([("a", "r", "c")], ["x->"], "x->")],
    ids=["head", "relation", "tail", "entities"],
)
def test_a_graph_built_in_code_refuses_an_identifier_with_an_arrow(edges, entities, name):
    with pytest.raises(ValueError) as exc:
        KnowledgeGraph(edges, entities)
    assert str(exc.value) == f"identifier {name!r} contains '->', the separator of arrow paths"


@pytest.mark.parametrize("bad", ["", "  ", " a", "a\t", "a\u2003"])
@pytest.mark.parametrize(
    "edges,entities,kind",
    [([("{}", "r", "c")], (), "entity"), ([("a", "{}", "c")], (), "relation"),
     ([("a", "r", "{}")], (), "entity"), ([("a", "r", "c")], ["{}"], "entity")],
    ids=["head", "relation", "tail", "entities"],
)
def test_a_graph_built_in_code_refuses_an_empty_or_unstripped_name(edges, entities, kind, bad):
    """load_triples strips every field and refuses an empty one, and
    ReasoningPath.from_arrow strips every segment, so such a name could
    never round-trip as a path."""
    edges = [tuple(bad if field == "{}" else field for field in edge) for edge in edges]
    entities = [bad if name == "{}" else name for name in entities]
    with pytest.raises(ValueError) as exc:
        KnowledgeGraph(edges, entities)
    assert str(exc.value) == f"{kind} name {bad!r} is empty or has surrounding whitespace"


def test_a_graph_built_in_code_refuses_empty_and_blank_names():
    with pytest.raises(ValueError, match="empty or has surrounding whitespace"):
        KnowledgeGraph([("", "r", "t"), ("a", "r", "  ")])


def test_loading_keeps_no_string_per_field():
    """60,000 lines over 2,000 names: a loader that held one string per field
    until the graph was built peaked at 13.8 MB traced, one that interns each
    chunk as it is read at 4.6 MB."""
    text = "".join(f"e{i * 7 % 2000:04d}\trelation{i % 50}\te{i * 13 % 2000:04d}\n" for i in range(60_000))
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        g = load_triples(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.entity_names) == 2000 and len(g.relation_names) == 50
    assert peak < 8 * 2**20, f"load_triples peaked at {peak / 2**20:.1f} MB traced"


def test_iran_fixture_adjacency():
    g = load_fixture("iran.tsv")
    assert len(triples_of(g)) == 5
    assert len(g.entities) == 6
    assert len(g.relations) == 2
    assert len(neighbors(g, "Iran")) == 3


# --- neighbors ---------------------------------------------------------------


def test_neighbors_unknown_entity_is_empty():
    g = load_fixture("bieber.tsv")
    assert neighbors(g, "NONEXISTENT") == set()


def test_neighbors_iran_three_government_forms():
    g = load_fixture("iran.tsv")
    got = neighbors(g, "Iran")
    assert got == {
        ("location.country.form_of_government", "Islamic_republic"),
        ("location.country.form_of_government", "Theocracy"),
        ("location.country.form_of_government", "Unitary_state"),
    }


# --- membership --------------------------------------------------------------


def test_contains_triple_direction_matters():
    g = load_fixture("bieber.tsv")
    assert contains_triple(g, "Justin_Bieber", "people.person.father", "Jeremy_Bieber")
    assert not contains_triple(g, "Jeremy_Bieber", "people.person.father", "Justin_Bieber")


def test_contains_triple_absent():
    g = load_fixture("bieber.tsv")
    assert not contains_triple(g, "Justin_Bieber", "made.up.relation", "Nobody")


def test_csr_arrays_stay_read_only_and_membership_is_a_bool():
    g = load_fixture("bieber.tsv")
    for array in (g.offsets, g.edge_relations, g.edge_tails):
        with pytest.raises(ValueError):
            array[0] = 0
    assert contains_triple(g, "Justin_Bieber", "people.person.father", "Jeremy_Bieber") is True
    assert contains_triple(g, "Justin_Bieber", "people.person.father", "Justin_Bieber") is False


# --- path validation ---------------------------------------------------------


def test_validate_empty_path_is_vacuously_valid():
    g = load_fixture("bieber.tsv")
    report = validate_path(g, ReasoningPath("Justin_Bieber"))
    assert report.valid_step_count == 0
    assert report.total_step_count == 0
    assert report.first_invalid_index is None
    assert report.all_valid


def test_validate_fabricated_second_hop():
    g = load_fixture("bieber.tsv")
    path = ReasoningPath(
        "Justin_Bieber",
        (
            ReasoningStep("people.person.father", "Jeremy_Bieber"),
            ReasoningStep("people.fabricated.link", "Erin_Wagner"),
        ),
    )
    report = validate_path(g, path)
    assert report.valid_step_count == 1
    assert report.total_step_count == 2
    assert report.first_invalid_index == 1
    assert report.errors == ((1, MISSING_TRIPLE),)
    assert not report.all_valid


def test_validate_classifies_steps_after_first_failure():
    g = load_fixture("bieber.tsv")
    path = ReasoningPath(
        "Justin_Bieber",
        (
            ReasoningStep("wrong.hop", "Nowhere"),
            ReasoningStep("also.wrong", "Elsewhere"),
        ),
    )
    report = validate_path(g, path)
    assert report.total_step_count == 2
    assert report.valid_step_count == 0
    assert [idx for idx, _ in report.errors] == [0, 1]


def test_error_kind_constants():
    assert MISSING_TRIPLE == "missing-triple"
    assert FORMAT_ERROR == "format-error"


# --- arrow format ------------------------------------------------------------


def test_arrow_round_trip_two_hops():
    path = ReasoningPath(
        "Justin_Bieber",
        (
            ReasoningStep("people.person.father", "Jeremy_Bieber"),
            ReasoningStep("people.married_to.person", "Erin_Wagner"),
        ),
    )
    text = path.to_arrow()
    assert text == (
        "Justin_Bieber -> people.person.father -> Jeremy_Bieber"
        " -> people.married_to.person -> Erin_Wagner"
    )
    assert ReasoningPath.from_arrow(text) == path


def test_arrow_rejects_empty_segment():
    with pytest.raises(PathParseError):
        ReasoningPath.from_arrow("A -> -> B")


def test_arrow_rejects_even_segment_count():
    with pytest.raises(PathParseError):
        ReasoningPath.from_arrow("A -> r1")


def test_path_properties():
    path = ReasoningPath("A", (ReasoningStep("r", "B"),))
    assert path.depth == 1
    assert path.terminal_entity == "B"
    assert ReasoningPath("A").terminal_entity == "A"
    assert path.extend(ReasoningStep("s", "C")).entities() == ("A", "B", "C")


# --- properties --------------------------------------------------------------

name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=8,
)
triples = st.lists(st.tuples(name, name, name), min_size=0, max_size=20)


def serialize(g):
    """The graph's edges as sorted TSV lines: what :func:`load_triples`
    reads back as the same graph, the round-trip tests' oracle."""
    lines = sorted(f"{head}\t{relation}\t{tail}" for head, relation, tail in g.edges())
    return "".join(line + "\n" for line in lines)


@given(triples)
def test_serialize_round_trip(raw):
    g = KnowledgeGraph((h, r, t) for h, r, t in raw)
    assert load_triples(io.StringIO(serialize(g))) == g


@given(st.lists(st.tuples(name, name), min_size=0, max_size=6), name)
def test_arrow_round_trip_property(raw_steps, start):
    path = ReasoningPath(start, tuple(ReasoningStep(r, e) for r, e in raw_steps))
    assert ReasoningPath.from_arrow(path.to_arrow()) == path


def all_paths(g, max_depth):
    paths = [ReasoningPath(e) for e in sorted(g.entities)]
    frontier = paths
    for _ in range(max_depth):
        frontier = [p.extend(ReasoningStep(r, e)) for p in frontier
                    for r, e in sorted(neighbors(g, p.terminal_entity))]
        paths += frontier
    return paths


# Labels from a small alphabet heavy in arrow characters and spaces, so
# identifiers such as "a->b" or "_ -" come up often.
label = st.text(alphabet="ab_-> .,\u00e9\u00a0", min_size=1, max_size=5)


@given(st.lists(st.tuples(label, label, label), min_size=1, max_size=8))
def test_paths_over_any_loadable_graph_survive_arrow_round_trip(raw):
    try:
        g = load_triples(["\t".join(fields) for fields in raw])
    except TripleParseError:
        return
    for path in all_paths(g, max_depth=3):
        assert ReasoningPath.from_arrow(path.to_arrow()) == path


@given(triples)
def test_engine_emitted_steps_always_validate(raw):
    """Any path assembled purely from adjacency entries validates fully."""
    g = KnowledgeGraph((h, r, t) for h, r, t in raw)
    for entity in g.entities:
        for relation, tail in neighbors(g, entity):
            path = ReasoningPath(entity, (ReasoningStep(relation, tail),))
            assert validate_path(g, path).all_valid


# Labels with commas, spaces and non-ASCII; never "#", a tab or "->", and
# never blank, so that every drawn line is one triple. Fields are trimmed on
# load, so the model trims them too.
csr_label = st.text(alphabet="ab ,.\u00e9\u00fc\u65e5", min_size=1, max_size=4).filter(str.strip)


@st.composite
def triple_files(draw):
    """Triple-file lines with duplicates, comments and blank lines, one hub
    head with 300 or more edges, and the set of triples they hold."""
    raw = draw(st.lists(st.tuples(csr_label, csr_label, csr_label), max_size=25))
    hub_relations = draw(st.lists(csr_label, min_size=1, max_size=3))
    hub_size = draw(st.integers(min_value=300, max_value=320))
    raw += [("hub", hub_relations[i % len(hub_relations)], f"t{i}") for i in range(hub_size)]
    raw += draw(st.lists(st.sampled_from(raw), max_size=10))  # duplicates
    lines = ["\t".join(fields) for fields in draw(st.permutations(raw))]
    for at in draw(st.lists(st.integers(min_value=0, max_value=len(lines)), max_size=4)):
        lines.insert(at, draw(st.sampled_from(["", "   ", "# a comment", "  # another, \u00e9"])))
    return lines, {tuple(field.strip() for field in fields) for fields in raw}


@settings(max_examples=40, deadline=None)
@given(triple_files(), st.randoms(use_true_random=False))
def test_csr_graph_agrees_with_a_set_of_triples(drawn, rng):
    lines, model = drawn
    g = load_triples(line + "\n" for line in lines)
    assert triples_of(g) == model
    assert len(g) == len(model)
    entities = {h for h, _, _ in model} | {t for _, _, t in model}
    assert set(g.entities) == entities and set(g.relations) == {r for _, r, _ in model}
    steps = {entity: set() for entity in entities | {"no such entity"}}
    for head, relation, tail in model:
        steps[head].add((relation, tail))
    for entity, expected in steps.items():
        assert neighbors(g, entity) == expected
    names = sorted(entities | {r for _, r, _ in model})
    for _ in range(50):
        head, relation, tail = (rng.choice(names) for _ in range(3))
        assert contains_triple(g, head, relation, tail) == ((head, relation, tail) in model)
    triples = sorted(model)
    for head, relation, tail in triples:
        assert contains_triple(g, head, relation, tail)
        walk = rng.choice(triples)
        path = ReasoningPath(head, (ReasoningStep(relation, tail), ReasoningStep(walk[1], walk[2])))
        valid = [(head, relation, tail) in model, (tail, walk[1], walk[2]) in model]
        report = validate_path(g, path)
        assert report.valid_step_count == sum(valid)
        assert report.first_invalid_index == (None if all(valid) else valid.index(False))
    text = serialize(g)
    assert text == "".join(line + "\n" for line in sorted("\t".join(t) for t in model))
    assert load_triples(io.StringIO(text)) == g


# --- text loaders --------------------------------------------------------------

# Each loader reads its input through kg.read_text; the demonstrations input
# (None) is the built-in set written out as JSON.
LOADER_INPUTS = {
    "dataset": (load_dataset, "fixtures/dataset.jsonl"),
    "trace": (SearchTrace.from_jsonl, "tests/golden/bieber-1.path-rag.trace.jsonl"),
    "mock-script": (load_mock_script, "fixtures/mock_script.json"),
    "config": (load_config, "fixtures/run.cfg"),
    "demonstrations": (load_demonstrations, None),
}


def loader_input(name):
    """The loader named ``name`` and the text of its input."""
    load, fixture = LOADER_INPUTS[name]
    if fixture is None:
        return load, json.dumps({key: list(demos) for key, demos in BUILTIN_DEMONSTRATIONS.items()})
    return load, Path(fixture).read_text(encoding="utf-8")


def loaded(value):
    """What a loader returned, as a value that compares by content."""
    return value.events if isinstance(value, SearchTrace) else value


@pytest.mark.parametrize("name", LOADER_INPUTS)
def test_loaders_read_a_path_and_an_open_stream_alike(name, tmp_path):
    load, text = loader_input(name)
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    from_path = loaded(load(str(path)))
    assert from_path == loaded(load(io.StringIO(text)))
    assert from_path  # the fixture is not read as empty


@pytest.mark.parametrize("name", LOADER_INPUTS)
def test_loaders_drop_a_byte_order_mark(name, tmp_path):
    load, text = loader_input(name)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = loaded(load(str(plain)))
    assert loaded(load(str(marked))) == expected
    assert loaded(load(io.StringIO("\ufeff" + text))) == expected


@pytest.mark.parametrize("name", ["dataset", "trace", "config"])
def test_line_loaders_read_crlf_and_cr_line_ends(name, tmp_path):
    load, text = loader_input(name)
    expected = loaded(load(io.StringIO(text)))
    for end in ("\r\n", "\r"):
        crlf = text.replace("\n", end)
        assert loaded(load(io.StringIO(crlf))) == expected
        path = tmp_path / "input"
        path.write_bytes(crlf.encode("utf-8"))
        assert loaded(load(str(path))) == expected


# characters that str.splitlines breaks a line at, and a JSON string may hold raw
LINE_SEPARATORS = ["\u2028", "\u2029", "\x85"]


@pytest.mark.parametrize("separator", LINE_SEPARATORS, ids=["u2028", "u2029", "u0085"])
def test_a_dataset_record_may_hold_a_raw_line_separator(separator, tmp_path):
    question = f"Who{separator}governs Iran?"
    record = {"id": "q1", "question": question, "answers": ["Theocracy"], "topic_entities": ["Iran"]}
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    (parsed,) = load_dataset(str(path))
    assert parsed.question == question


@pytest.mark.parametrize("separator", LINE_SEPARATORS, ids=["u2028", "u2029", "u0085"])
def test_a_trace_line_may_hold_a_raw_line_separator(separator, tmp_path):
    _, text = loader_input("trace")
    events = [json.loads(line) for line in text.split("\n") if line]
    events[0]["question"] += separator
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(e, ensure_ascii=False) + "\n" for e in events), encoding="utf-8")
    trace = SearchTrace.from_jsonl(str(path))
    assert trace.events == events and trace.question.endswith(separator)


@given(st.text(st.sampled_from("ab\r\n\u2028\u2029\x85\x0b\x1c\x1e\ufeff"), max_size=12))
def test_split_lines_splits_as_text_mode_reading_does(text):
    reader = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline=None)
    assert split_lines(text) == [line.removesuffix("\n") for line in reader]
