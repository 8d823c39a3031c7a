"""scripts/gen_corpus.py regenerates corpus/ byte for byte, so the
generator, `derivation_to_json` and the fixtures that the tests and the
benchmark read cannot drift apart."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "gen_corpus.py"


def test_the_generator_writes_the_committed_corpus(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ first
    spec = importlib.util.spec_from_file_location("gen_corpus", SCRIPT)
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    monkeypatch.setattr(gen_corpus, "CORPUS", tmp_path / "corpus")
    gen_corpus.main()
    written = {p.name: p.read_bytes() for p in (tmp_path / "corpus").iterdir()}
    committed = {p.name: p.read_bytes() for p in (ROOT / "corpus").iterdir()}
    assert sorted(written) == sorted(committed)
    assert [name for name in sorted(committed) if written[name] != committed[name]] == []
    assert capsys.readouterr().out.count(": ok\n") == len(committed) // 2 - 1  # one is rejected
