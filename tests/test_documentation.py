"""Documentation validity: the README's code examples must actually run,
and the repository's documents must reference real artifacts."""

import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


def test_readme_quickstart_executes():
    readme = (REPO / "README.md").read_text()
    blocks = python_blocks(readme)
    assert blocks, "README must contain python examples"
    # The first block is the quickstart; later blocks may depend on it.
    namespace: dict = {}
    for block in blocks[:2]:
        exec(compile(block, "<README>", "exec"), namespace)


def test_readme_mentions_all_deliverables():
    readme = (REPO / "README.md").read_text()
    for needle in ("DESIGN.md", "EXPERIMENTS.md", "examples/", "benchmarks/"):
        assert needle in readme


def test_design_md_bench_targets_exist():
    design = (REPO / "DESIGN.md").read_text()
    for target in re.findall(r"`(benchmarks/test_[a-z0-9_]+\.py)`", design):
        assert (REPO / target).exists(), f"DESIGN.md references missing {target}"


def test_design_md_test_targets_exist():
    design = (REPO / "DESIGN.md").read_text()
    for target in re.findall(r"`(tests/[a-z0-9_/]+\.py)`", design):
        assert (REPO / target).exists(), f"DESIGN.md references missing {target}"


def test_experiments_md_covers_every_figure_and_table():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for fig in (1, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18, 20, 21):
        assert f"Fig. {fig}" in experiments, f"Figure {fig} missing"
    assert "Table 1" in experiments
    assert "Table 2" in experiments


def test_docs_reference_real_modules():
    for doc in ("docs/protocol.md", "docs/simulator.md"):
        text = (REPO / doc).read_text()
        for module_path in re.findall(r"`(core/[a-z_]+\.py|netsim/[a-z_]+\.py)`", text):
            assert (REPO / "src" / "repro" / module_path).exists(), (
                f"{doc} references missing {module_path}"
            )


def test_cited_benchmark_artifacts_are_tracked():
    """Every ``benchmarks/results/<file>`` a document cites is in git.

    ``benchmarks/results/`` is gitignored, so a regenerated artifact is
    easy to cite and forget to force-add."""
    try:
        listed = subprocess.run(
            ["git", "-C", str(REPO), "ls-files", "--", "benchmarks/results"],
            capture_output=True,
            text=True,
        )
    except OSError:
        pytest.skip("git is not installed")
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    tracked = set(listed.stdout.split())
    missing = sorted({
        f"{doc}: {cited}"
        for doc in _documents()
        for cited in re.findall(
            r"benchmarks/results/[\w.-]+\.\w+", (REPO / doc).read_text()
        )
        if cited not in tracked
    })
    assert not missing, f"cited but not tracked by git: {missing}"


def _documents():
    """README/DESIGN/EXPERIMENTS and every ``docs/*.md``."""
    return ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + [
        str(path.relative_to(REPO)) for path in sorted((REPO / "docs").glob("*.md"))
    ]


def bench_invocations(markdown: str):
    """The argument text of every ``python -m repro.bench`` call in
    ``markdown``: fenced blocks line by line (joining ``\\``
    continuations) and inline code spans, which may wrap."""
    fenced = re.findall(r"```[^\n]*\n(.*?)```", markdown, flags=re.DOTALL)
    prose = re.sub(r"```.*?```", "", markdown, flags=re.DOTALL)
    snippets = [block.replace("\\\n", " ") for block in fenced] + [
        span.replace("\n", " ") for span in re.findall(r"`([^`]+)`", prose)
    ]
    return [
        args.split(" #")[0]
        for snippet in snippets
        for args in re.findall(
            r"python3?\s+-m\s+repro\.bench(?![\w.])([^\n]*)", snippet
        )
    ]


def test_bench_invocations_parse_wrapped_and_continued_commands():
    text = (
        "Run `python -m repro.bench\nfig --old-flag x`.\n"
        "```bash\nPYTHONPATH=src python3 -m repro.bench a \\\n  --other  # --not\n```\n"
    )
    assert [re.findall(r"--[a-z-]+", a) for a in bench_invocations(text)] == [
        ["--other"], ["--old-flag"],
    ]


def test_documented_bench_flags_exist():
    """Every ``--flag`` the documents pass to ``python -m repro.bench``
    is one its parser accepts."""
    from repro.bench.__main__ import build_parser

    accepted = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
    }
    cited = {
        (doc, flag)
        for doc in _documents()
        for args in bench_invocations((REPO / doc).read_text())
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", args)
    }
    assert {flag for _, flag in cited} >= {"--experiment", "--profile"}
    unknown = sorted(f"{doc}: {flag}" for doc, flag in cited if flag not in accepted)
    assert not unknown, f"documents cite unknown bench flags: {unknown}"


def test_examples_are_importable():
    """Every example compiles (full runs are exercised separately)."""
    for example in sorted((REPO / "examples").glob("*.py")):
        source = example.read_text()
        compile(source, str(example), "exec")
        assert '"""' in source[:200], f"{example.name} lacks a docstring"
        assert "def main()" in source


@pytest.mark.parametrize("example", ["quickstart.py"])
def test_quickstart_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / example)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "speedup" in result.stdout
