"""One in-process vty session: a fresh import, stdout capture and clean GC state.

The benchmark drives vty through ``vty.cli.main(argv)`` in its own
process, so every answer it checks is the JSON report a CLI user would
read. A session is built by importing vty from the checkout's ``src``
after dropping any earlier copy from ``sys.modules``; repeating that is
how set-up time is measured more than once in one process.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
PACKAGE = SRC / "vty"
ADDER_PATH = PACKAGE / "data" / "adder.rm"

# Library modules whose bindings the tracer patches; importing vty.cli
# pulls in all of them.
LIBRARY_MODULES = (
    "vty", "vty.formulas", "vty.calculus", "vty.semantics", "vty.varieties",
    "vty.projection", "vty.machines", "vty.manifest", "vty.cli",
)


class CheckoutError(RuntimeError):
    """The program under test is missing from the checkout."""


def check_checkout() -> None:
    """Refuse to run anywhere but a checkout that holds vty and its oracles."""
    for needed in (PACKAGE / "__init__.py", PACKAGE / "cli.py",
                   TESTS / "oracle_tools.py", ADDER_PATH):
        if not needed.is_file():
            raise CheckoutError(f"{needed.relative_to(ROOT)} is missing; "
                                "run the benchmark from a vty checkout")
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def purge() -> None:
    """Forget every imported copy of vty and of the oracle module."""
    gc.unfreeze()
    for name in list(sys.modules):
        if name == "vty" or name.startswith("vty.") or name == "oracle_tools":
            del sys.modules[name]
    gc.collect()


def settle() -> None:
    """Collect garbage and freeze survivors, so each request starts from the same GC state."""
    gc.collect()
    gc.freeze()


class Session:
    """The live vty modules of one import, and how to call them."""

    def __init__(self) -> None:
        purge()
        start = time.perf_counter()
        importlib.import_module("vty")
        importlib.import_module("vty.cli")
        self.import_s = time.perf_counter() - start
        self.modules = {name: sys.modules[name] for name in LIBRARY_MODULES}
        origin = Path(self.modules["vty"].__file__).resolve()
        if PACKAGE not in origin.parents:
            raise CheckoutError(f"imported vty from {origin}, not from {PACKAGE}")
        self.cli = self.modules["vty.cli"]
        self.machines = self.modules["vty.machines"]
        self.adder_code: int | None = None
        self.caches = {id(value): value for module in self.modules.values()
                       for value in vars(module).values() if hasattr(value, "cache_clear")}

    def cold(self) -> None:
        """Empty vty's memo caches, as a fresh CLI process finds them."""
        for cache in self.caches.values():
            cache.cache_clear()

    def load_packaged(self, names: tuple[str, ...]) -> None:
        """Parse the packaged inputs a workload reads, as its set-up does."""
        for name in names:
            if name == "seed_registry":
                self.cli._seed_manifest()
            elif name == "adder":
                text = ADDER_PATH.read_text(encoding="utf-8")
                self.adder_code = self.machines.encode_machine(
                    self.machines.parse_machine(text))
            else:
                raise ValueError(f"unknown packaged input {name!r}")

    def run_step(self, step) -> tuple:
        """Execute one step of a request and return its raw answer."""
        if step.argv is not None:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                try:
                    code = self.cli.main(list(step.argv))
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code if isinstance(exc.code, int) else 2
            return (code, buffer.getvalue())
        input_value, fuel = step.call
        trace = self.machines.universal_run(self.adder_code, input_value, fuel)
        return (0, (trace.outcome, trace.output, trace.steps))

    def run(self, request, parts: list | None = None) -> tuple:
        """The request's answer; ``parts`` gets (work, wall seconds) of each step."""
        answer = []
        for step in request.steps:
            start = time.perf_counter()
            answer.append(self.run_step(step))
            if parts is not None:
                parts.append((step.work, time.perf_counter() - start))
        return tuple(answer)
