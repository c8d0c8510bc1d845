"""Model files read by libyaml give the documents and messages of PyYAML's pure parser.

``parse_model`` reads a text with ``yaml.CSafeLoader`` where PyYAML was
built with libyaml, and with ``yaml.SafeLoader`` otherwise or when libyaml
refuses the text.  The model texts of this repository must load alike under
both, and an invalid text must be reported in the pure parser's words.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

import rip.cli
from rip import InvalidModelError, parse_model
from rip.modelfile import _TOP_KEYS

ROOT = Path(__file__).resolve().parent.parent
BOOK = ROOT / "perfbench" / "models" / "book.yaml"
MODEL_KEY = re.compile(r"^(%s):" % "|".join(sorted(_TOP_KEYS)), re.M)

needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml"
)


def _literal_model_texts(path: Path):
    """``(line, text)`` of each string literal in ``path`` with a model file's top-level key.

    The pieces of an f-string are left out: they are not whole texts.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    pieces = {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) for v in n.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in pieces:
            text = textwrap.dedent(node.value)
            if MODEL_KEY.search(text):
                yield node.lineno, text


def _model_texts():
    """``(id, text)`` of every YAML model text in the repository."""
    for path in sorted((ROOT / "perfbench" / "models").glob("*.yaml")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"^```yaml\n(.*?)^```$", readme, re.M | re.S)):
        yield f"README.md-{i}", block
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        for line, text in _literal_model_texts(path):
            yield f"{path.parent.name}/{path.name}:{line}", text


MODEL_TEXTS = list(_model_texts())


def _outcome(text, loader):
    """The document ``loader`` reads from ``text``, or ``None`` when it refuses it."""
    try:
        return ("document", yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return None


def test_the_model_texts_are_found():
    names = {name.split(":")[0] for name, _ in MODEL_TEXTS}
    assert {"book.yaml", "README.md-0", "tests/test_modelfile.py", "demos/model_file_tour.py"} <= names


@needs_libyaml
@pytest.mark.parametrize("text", [t for _, t in MODEL_TEXTS], ids=[n for n, _ in MODEL_TEXTS])
def test_both_loaders_read_a_model_text_alike(text):
    assert _outcome(text, yaml.CSafeLoader) == _outcome(text, yaml.SafeLoader)


@needs_libyaml
@pytest.mark.parametrize(
    "text, loaders",
    [("claim: S[1,1]\n", ["CSafeLoader"]), ("{not: [yaml", ["CSafeLoader", "SafeLoader"])],
    ids=["valid", "invalid"],
)
def test_libyaml_reads_a_text_first(text, loaders, monkeypatch):
    used = []
    load = yaml.load

    def spy(stream, Loader):
        used.append(Loader.__name__)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    with pytest.raises(InvalidModelError):
        parse_model(text)  # neither text is a whole model
    assert used == loaders


def _duality_report(capsys):
    code = rip.cli.main(["duality", "--model", str(BOOK)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_pure_loader_reads_the_model_without_libyaml(monkeypatch, capsys):
    expected = _duality_report(capsys)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    config = parse_model(BOOK.read_text(encoding="utf-8"))
    assert config.space.n_paths > 0 and config.claim is not None
    assert _duality_report(capsys) == expected
    assert expected[0] == 0 and expected[1]


@pytest.mark.parametrize("without_libyaml", [False, True], ids=["libyaml", "pure"])
@pytest.mark.parametrize(
    "text",
    [
        "{this is: [not\nyaml",  # tests/test_modelfile.py::test_not_yaml
        "grid: {steps: 2\nlattice: {ratios: [1, 2]}\nclaim: S[1,1]\n",  # a flow mapping left open
    ],
    ids=["not-yaml", "open-flow-mapping"],
)
def test_an_invalid_text_is_reported_in_the_pure_parsers_words(text, without_libyaml, monkeypatch):
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.safe_load(text)
    if without_libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(InvalidModelError) as caught:
        parse_model(text)
    assert caught.value.errors == [f"model: not valid YAML ({pure.value})"]
    assert "^" in caught.value.errors[0]  # the faulty line is quoted, a caret under it


def test_importing_rip_loads_no_yaml():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rip, rip.cli; print('yaml' in sys.modules)"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
