"""The CI workflow names only files that exist."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_path_the_workflow_names_exists():
    """A deleted script cannot leave a CI step pointing at nothing."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    paths = set(re.findall(
        r"(?<![\w./-])(?:benchmarks|perfbench|tests)/[\w./-]*\w", workflow
    ))
    assert paths
    missing = sorted(path for path in paths if not (ROOT / path).exists())
    assert not missing, f"ci.yml names paths that do not exist: {missing}"
