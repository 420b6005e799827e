import json
import os
from pathlib import Path

import pytest

import vty

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(vty.__file__).parent / "data"

# pyproject's pythonpath puts src/ on this process's path only; tests that
# run `python -m vty.cli` in a subprocess need it in the environment too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def golden():
    """Compare a payload against tests/golden/<name>.json.

    Set REGEN_GOLDEN=1 to rewrite the files instead of asserting.
    """

    def check(name: str, payload) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if os.environ.get("REGEN_GOLDEN"):
            path.parent.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            return
        assert path.exists(), f"missing golden file {path.name}; run REGEN_GOLDEN=1 pytest"
        stored = path.read_text(encoding="utf-8")
        assert stored == text, (
            f"golden file {path.name} does not match; "
            "rerun with REGEN_GOLDEN=1 if the change is intended"
        )

    return check


def pytest_collection_modifyitems(config, items):
    """Remember which collected tests are acceptance criteria."""
    titles = {}
    for item in items:
        name = item.name.split("[")[0]
        module = getattr(item, "module", None)
        if getattr(module, "__name__", "") != "test_acceptance":
            continue
        if not name.startswith("test_criterion_"):
            continue
        number = int(name.split("_")[2])
        doc = (item.function.__doc__ or "").strip().splitlines()
        titles[item.nodeid] = (number, doc[0] if doc else name)
    config._acceptance_titles = titles


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one verdict line per acceptance criterion after the run."""
    titles = getattr(config, "_acceptance_titles", {})
    if not titles:
        return
    outcomes = {}
    for key, verdict in (
        ("failed", "FAIL"),
        ("error", "FAIL"),
        ("skipped", "SKIP"),
        ("passed", "PASS"),
    ):
        for report in terminalreporter.stats.get(key, []):
            nodeid = getattr(report, "nodeid", None)
            if nodeid in titles and nodeid not in outcomes:
                outcomes[nodeid] = verdict
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, (number, title) in sorted(titles.items(), key=lambda kv: kv[1][0]):
        verdict = outcomes.get(nodeid, "NOT RUN")
        terminalreporter.write_line(f"criterion {number}: {verdict} - {title}")
