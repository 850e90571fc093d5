"""Custom few-shot demonstrations reach every prompt of a run.

The client renders every prompt with its run's demonstrations. With a mapping
that gives each template one demonstration naming its key, every user text a
backend sees starts with that marker, through ``run_dvbs``, ``run_experiment``
and ``kgreason ask --demonstrations``; with ``{}`` no prompt has a few-shot
block. The filled template each user text must end with is built here with
``str.format_map``, not with ``prompts.render``.
"""

import json

import pytest

from kgreason import cli
from kgreason.embedding import HashingEmbedder, build_index
from kgreason.evaluate import load_dataset, run_experiment
from kgreason.kg import load_triples
from kgreason.llm import LlmClient, MockBackend, load_mock_script
from kgreason.pathrag import RetrievalConfig, ScoreContext
from kgreason.prompts import BEAM_SELECT, TEMPLATES
from kgreason.search import SearchConfig, run_dvbs

IRAN_Q = "What form of government is in the country that uses the Iranian rial?"
MARKED = {key: (f"DEMO {key}",) for key in TEMPLATES}
DEMONSTRATIONS = pytest.mark.parametrize("demonstrations", [MARKED, {}], ids=["marked", "empty"])
# Width 1 leaves more candidates than the beam holds, so the model selects.
NARROW = SearchConfig(beam_width=1)


class Capturing:
    """Wraps a backend, keeping every rendered prompt it serves."""

    def __init__(self, inner):
        self.inner = inner
        self.concurrency_limit = inner.concurrency_limit
        self.seen = []

    def complete(self, rendered, params):
        self.seen.append(rendered)
        return self.inner.complete(rendered, params)


def fixture_world():
    with open("fixtures/combined.tsv") as fh:
        g = load_triples(fh)
    emb = HashingEmbedder()
    answer_key, plan_script = load_mock_script("fixtures/mock_script.json")
    return g, build_index(g, emb), emb, MockBackend(g, answer_key, plan_script)


def assert_blocks(prompts, demonstrations) -> set[str]:
    """Each prompt's user text is its key's marker block (none for ``{}``)
    and then its filled template; returns the keys seen."""
    assert prompts
    for rendered in prompts:
        filled = TEMPLATES[rendered.key].user_text.format_map(rendered.bindings)
        block = f"DEMO {rendered.key}\n\n" if demonstrations else ""
        assert rendered.user == block + filled
    return {rendered.key for rendered in prompts}


@DEMONSTRATIONS
def test_run_dvbs_renders_every_template_with_the_client_demonstrations(demonstrations):
    g, idx, emb, mock = fixture_world()
    keys = set()
    for config in (NARROW, SearchConfig(beam_width=1, adequacy_mode=True)):
        backend = Capturing(mock)
        client = LlmClient(backend, demonstrations=demonstrations)
        answers, _ = run_dvbs(IRAN_Q, ["Iranian_rial"], ScoreContext(g, idx, emb), client, config)
        assert answers.answers
        keys |= assert_blocks(backend.seen, demonstrations)
    assert keys == set(TEMPLATES)


@DEMONSTRATIONS
def test_run_experiment_passes_its_demonstrations_to_every_call(demonstrations):
    g, idx, emb, mock = fixture_world()
    backend = Capturing(mock)
    dataset = load_dataset("fixtures/dataset.jsonl")
    report = run_experiment(
        dataset, g, idx, emb, backend, NARROW, RetrievalConfig(), demonstrations=demonstrations
    )
    assert report.aggregates["failures"] == 0
    assert BEAM_SELECT in assert_blocks(backend.seen, demonstrations)


@DEMONSTRATIONS
def test_ask_reads_its_demonstrations_file_into_every_call(demonstrations, tmp_path, monkeypatch):
    index = tmp_path / "combined.idx"
    assert cli.main(["index", "--kg", "fixtures/combined.tsv", "--out", str(index)]) == cli.EXIT_OK
    demos_file = tmp_path / "demos.json"
    demos_file.write_text(json.dumps({key: list(demos) for key, demos in demonstrations.items()}))
    backends = []
    build = cli._build_backend

    def capturing(rc, g):
        backends.append(Capturing(build(rc, g)))
        return backends[-1]

    monkeypatch.setattr(cli, "_build_backend", capturing)
    code = cli.main(
        [
            "ask",
            "--kg", "fixtures/combined.tsv",
            "--index", str(index),
            "--script", "fixtures/mock_script.json",
            "--question", IRAN_Q,
            "--topic-entity", "Iranian_rial",
            "--width", "1",
            "--demonstrations", str(demos_file),
        ]
    )
    assert code == cli.EXIT_OK
    (backend,) = backends
    assert BEAM_SELECT in assert_blocks(backend.seen, demonstrations)
