"""Truth-table checks for small formula sets.

Everything here enumerates assignments exhaustively, so the atom count
is capped (default 20). Exceeding the cap raises instead of silently
sampling: the caller must partition the formula set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import AtomCapExceededError
from .formulas import Bottom, Formula, Not, atoms, evaluate, formula_key

DEFAULT_ATOM_CAP = 20


def collect_atoms(formulas: Iterable[Formula]) -> tuple[str, ...]:
    names: set[str] = set()
    for formula in formulas:
        names.update(atoms(formula))
    return tuple(sorted(names))


def iter_assignments(names: tuple[str, ...]) -> Iterator[dict[str, bool]]:
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def satisfying_assignment(
    formulas: Iterable[Formula], atom_cap: int = DEFAULT_ATOM_CAP
) -> dict[str, bool] | None:
    """First assignment (in canonical order) making every formula true.

    The one truth-table loop: ``entails`` and ``check_consistency`` call it.
    """
    fs = list(formulas)
    names = collect_atoms(fs)
    if len(names) > atom_cap:
        raise AtomCapExceededError(len(names), atom_cap)
    for assignment in iter_assignments(names):
        if all(evaluate(f, assignment) for f in fs):
            return assignment
    return None


def entails(
    premises: Iterable[Formula], conclusion: Formula, atom_cap: int = DEFAULT_ATOM_CAP
) -> bool:
    """True when every assignment satisfying the premises satisfies the conclusion."""
    return satisfying_assignment([*premises, Not(conclusion)], atom_cap) is None


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    atom_count: int
    # For an inconsistent set: how the inconsistency was witnessed.
    # "bottom_member" and "complementary_pair" name a member formula,
    # "truth_table" marks plain exhaustive unsatisfiability.
    witness_kind: str | None = None
    witness: Formula | None = None
    # For a consistent set: one satisfying assignment, sorted by atom name.
    model: tuple[tuple[str, bool], ...] | None = None

    @property
    def verdict(self) -> str:
        return "CONSISTENT" if self.consistent else "INCONSISTENT"


def check_consistency(
    formulas: Iterable[Formula], atom_cap: int = DEFAULT_ATOM_CAP
) -> ConsistencyVerdict:
    """Exact satisfiability of the conjunction, by truth table."""
    fs = sorted(set(formulas), key=formula_key)
    model = satisfying_assignment(fs, atom_cap)
    if model is not None:  # a model assigns every atom
        return ConsistencyVerdict(True, len(model), model=tuple(sorted(model.items())))
    atom_count = len(collect_atoms(fs))
    members = set(fs)
    for formula in fs:
        if isinstance(formula, Bottom):
            return ConsistencyVerdict(False, atom_count, "bottom_member", formula)
    for formula in fs:
        if Not(formula) in members:
            return ConsistencyVerdict(False, atom_count, "complementary_pair", formula)
    return ConsistencyVerdict(False, atom_count, "truth_table", None)
