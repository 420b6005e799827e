"""Truth-table checks for small formula sets.

Everything here decides by the whole truth table, so the atom count is
capped (default 20). Exceeding the cap raises instead of silently
sampling: the caller must partition the formula set.

A table over n atoms is one 2^n-bit int, a mask (Knuth, TAOCP 4A,
7.1.3). Bit i is row i of the canonical order: the rows of
``itertools.product((False, True), repeat=n)`` over the sorted atom
names, so the first atom is the most significant bit of i. An atom's
mask sets the bits of the rows where it is true; ``evaluate`` combines
masks with ``&``, ``|`` and ``^`` against the all-true mask, so each
formula is evaluated once for all rows, and the lowest set bit of a
conjunction's mask is its first model in canonical order. At the cap a
mask is 128 KiB.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import CapExceededError
from .formulas import Bottom, Formula, Not, atoms, evaluate, formula_key

DEFAULT_ATOM_CAP = 20


def collect_atoms(formulas: Iterable[Formula]) -> tuple[str, ...]:
    names: set[str] = set()
    for formula in formulas:
        names.update(atoms(formula))
    return tuple(sorted(names))


def atom_masks(names: tuple[str, ...]) -> tuple[dict[str, int], int]:
    """Each atom's mask over the rows of ``names``, and the all-true mask."""
    rows = 1 << len(names)
    masks = {}
    for position, name in enumerate(names):
        # the atom is bit n-1-position of the row index: false for `width`
        # rows, then true for `width` rows, a period doubled until it fills
        width = rows >> (position + 1)
        mask, period = ((1 << width) - 1) << width, width << 1
        while period < rows:
            mask |= mask << period
            period <<= 1
        masks[name] = mask
    return masks, (1 << rows) - 1


def satisfying_assignment(
    formulas: Iterable[Formula], atom_cap: int = DEFAULT_ATOM_CAP
) -> dict[str, bool] | None:
    """First assignment (in canonical order) making every formula true.

    The one truth-table loop: ``entails`` and ``check_consistency`` call it.
    It ANDs the formulas' masks in the given order and stops at the first
    empty conjunction.
    """
    fs = list(formulas)
    names = collect_atoms(fs)
    if len(names) > atom_cap:
        raise CapExceededError("atoms", len(names), atom_cap)
    masks, true = atom_masks(names)
    models = true
    for formula in fs:
        models &= evaluate(formula, masks, true=true)
        if not models:
            return None
    row = (models & -models).bit_length() - 1
    last = len(names) - 1
    return {name: bool(row >> (last - position) & 1) for position, name in enumerate(names)}


def entails(
    premises: Iterable[Formula], conclusion: Formula, atom_cap: int = DEFAULT_ATOM_CAP
) -> bool:
    """True when every assignment satisfying the premises satisfies the conclusion."""
    return satisfying_assignment([*premises, Not(conclusion)], atom_cap) is None


class ConsistencyVerdict(NamedTuple):
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
