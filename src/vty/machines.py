"""Register machines: interpreter, integer codes, and Fixed Output search.

Machine model. A program is a list of instructions addressed 0 to
len-1; the address equal to the program length is the halt address.

    INC r k        add one to register r, jump to k
    DECJZ r kz kp  if register r is zero jump to kz, else subtract one
                   and jump to kp
    HALT           stop

Input goes into register 0, every other register starts at zero, and
the output is register 0 at the halt. Running costs one fuel unit per
executed instruction; reaching the halt address or a HALT instruction
costs nothing. ``run_machine`` runs a machine and ``universal_run_stats``
a program code through one step loop, which also sums the fetch charge
of the universal machine's unchanged micro-cost model. A machine
compiles its program as it validates it, into one integer row per
address with each register it names at a dense cell, so a run holds one
value per named register; the loop dispatches on each row's opcode.

Text format, bit for bit, one instruction per line with single spaces
and 0-based decimal addresses::

    INC 0 1
    DECJZ 1 4 2
    HALT

Integer codes. The pairing function is the Cantor pairing
pair(x, y) = (x + y) (x + y + 1) / 2 + y, with unpair its inverse.
Instructions code as pair(opcode, payload) with opcodes INC=0,
DECJZ=1, HALT=2 and payloads that fold pair over the operands from the right:

    INC r k        pair(r, k)
    DECJZ r kz kp  pair(r, pair(kz, kp))
    HALT           0

A program codes as a pairing-built list: the empty program is 0 and
prepending an instruction with code h to a program with code t gives
pair(h, t) + 1. Decoding rejects HALT payloads other than zero and any
program whose jump targets fall outside 0..len; the register count of
a decoded machine is one more than the largest register index used, or
one for the empty program.

An instruction is a ``NamedTuple`` of its operands, the register first,
and no two kinds have the same number of operands, so instructions of
two kinds never compare equal. ``INSTRUCTIONS`` is the one place that
defines the instruction set: an opcode is an index into it. Text, codes,
enumeration, counts, random draws, validation and the compiled rows read
it; the step loop reads only rows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from .errors import CapExceededError, DecodeError
from .lex import _ascii_digits

DEFAULT_ENUMERATION_CAP = 1_000_000
# the most steps one Fixed Output search may run, counted before any run
DEFAULT_STEP_CAP = 10_000_000

HALTED = "HALT"
OUT_OF_FUEL = "OUT_OF_FUEL"


class Inc(NamedTuple):
    word = "INC"
    register: int
    target: int


class DecJz(NamedTuple):
    word = "DECJZ"
    register: int
    target_if_zero: int
    target_if_positive: int


class Halt(NamedTuple):
    word = "HALT"


Instruction = Inc | DecJz | Halt

INSTRUCTIONS = (Inc, DecJz, Halt)
_OPCODES = {kind: opcode for opcode, kind in enumerate(INSTRUCTIONS)}
_INC, _HALT = _OPCODES[Inc], _OPCODES[Halt]
_BY_WORD = {kind.word: kind for kind in INSTRUCTIONS}


def _operand_sizes(kind: type, registers: int, length: int) -> list[int]:
    """How many values each operand of `kind` takes: a register, then 0..length."""
    targets = len(kind._fields) - 1
    return [registers] + [length + 1] * targets if targets >= 0 else []


# the compiled row of HALT, also the row at the halt address
_HALT_ROW = (_HALT, 0, 0, 0)


@dataclass(frozen=True, repr=False)
class RegisterMachine:
    """A program over registers 0 to `registers` - 1, compiled to its rows
    as it is validated."""

    registers: int
    program: tuple[Instruction, ...]
    # one (opcode, cell, target, target) row per address up to the halt
    # address: INC repeats its target, DECJZ has its zero target first; a
    # cell is a register's place in a run's list, 0 for register 0
    _rows: tuple[tuple[int, int, int, int], ...] = field(init=False, compare=False)
    _cells: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.registers < 1:
            raise ValueError("a machine needs at least register 0")
        halt_address = len(self.program)
        rows = []
        cells = {0: 0}
        for address, instr in enumerate(self.program):
            opcode = _OPCODES.get(type(instr))
            if opcode is None:
                raise ValueError(f"instruction {address} is not an instruction")
            if opcode == _HALT:
                rows.append(_HALT_ROW)
                continue
            register, first, last = instr[0], instr[1], instr[-1]
            if not 0 <= register < self.registers:
                raise ValueError(f"instruction {address} uses register {register}")
            for target in first, last:
                if not 0 <= target <= halt_address:
                    raise ValueError(f"instruction {address} jumps to {target}")
            rows.append((opcode, cells.setdefault(register, len(cells)), first, last))
        rows.append(_HALT_ROW)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_cells", len(cells))


class Trace(NamedTuple):
    outcome: str  # HALT or OUT_OF_FUEL
    output: int | None
    steps: int


def run_machine(machine: RegisterMachine, input_value: int, fuel: int) -> Trace:
    """Small-step run. Deterministic: equal arguments give equal traces."""
    _check_run(input_value, fuel)
    trace, _ = _step_loop(machine, input_value, fuel)
    return trace


def _check_run(input_value: int, fuel: int) -> None:
    if input_value < 0:
        raise ValueError("input must be a nonnegative integer")
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")


def _step_loop(machine: RegisterMachine, input_value: int, fuel: int) -> tuple[Trace, int]:
    """The one step loop, for both interpreters: the trace, and the fetch
    charge of ``universal_run_stats``, pc + 3 for every instruction fetched
    (the fetch that finds HALT or runs out of fuel included).

    The loop looks for a repeated state, (pc, registers), with Brent's
    cycle finding: after each step it compares the state with one saved
    at the last power-of-two distance. A repeat means the run
    loops until its fuel runs out, so the loop adds the steps and the
    address sums of the whole periods left at once; the trace and the
    charge are those of running every step.
    """
    registers = [0] * machine._cells
    registers[0] = input_value
    rows = machine._rows
    pc = steps = pcs = 0  # pcs sums the addresses of the executed instructions
    # the saved state, its step count and address sum, and the distance at
    # which it is saved next; a saved pc of -1 never matches
    saved_pc, saved_registers, saved_steps, saved_pcs = pc, registers[:], 0, 0
    distance = 1
    opcode, register, target, if_positive = rows[0]
    while opcode != _HALT and steps < fuel:
        pcs += pc
        steps += 1
        if opcode == _INC:
            registers[register] += 1
            pc = target
        elif registers[register]:
            registers[register] -= 1
            pc = if_positive
        else:
            pc = target
        if pc == saved_pc and registers == saved_registers:
            period = steps - saved_steps
            periods = (fuel - steps) // period
            steps, pcs = steps + periods * period, pcs + periods * (pcs - saved_pcs)
            saved_pc = distance = -1
        elif steps - saved_steps == distance:
            saved_pc, saved_registers, saved_steps, saved_pcs = pc, registers[:], steps, pcs
            distance *= 2
        opcode, register, target, if_positive = rows[pc]
    charge = pcs + 3 * steps + (0 if pc == len(machine.program) else pc + 3)
    if opcode == _HALT:
        return Trace(HALTED, registers[0], steps), charge
    return Trace(OUT_OF_FUEL, None, steps), charge


# --- text format ------------------------------------------------------------


def format_machine(machine: RegisterMachine) -> str:
    return "\n".join(" ".join([instr.word, *("%d" % operand for operand in instr)])
                     for instr in machine.program)


def parse_machine(text: str) -> RegisterMachine:
    """Parse the text format. Blank lines and # comments are skipped."""
    program: list[Instruction] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *operands = line.split()
        kind = _BY_WORD.get(word)
        try:
            # ASCII digits, a minus kept for the validation message; int() reads more
            if (kind is None or len(operands) != len(kind._fields)
                    or not all(_ascii_digits(op.removeprefix("-")) for op in operands)):
                raise ValueError
            program.append(kind(*map(int, operands)))
        except ValueError:
            raise ValueError(f"line {number}: bad instruction {line!r}") from None
    return machine_from_program(tuple(program))


def machine_from_program(program: Sequence[Instruction]) -> RegisterMachine:
    # the register is each kind's first operand; RegisterMachine refuses
    # an entry that is not an instruction
    used = [instr[0] for instr in program if type(instr) in _OPCODES and instr]
    return RegisterMachine(max([0, *used]) + 1, tuple(program))


# --- integer codes ----------------------------------------------------------


def pair(x: int, y: int) -> int:
    if x < 0 or y < 0:
        raise ValueError("pairing is defined on nonnegative integers")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    if z < 0:
        raise ValueError("pairing is defined on nonnegative integers")
    s = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def encode_instruction(instr: Instruction) -> int:
    *operands, payload = instr or (0,)
    for operand in reversed(operands):
        payload = pair(operand, payload)
    return pair(_OPCODES[type(instr)], payload)


def decode_instruction(code: int) -> Instruction:
    opcode, payload = unpair(code)
    if opcode >= len(INSTRUCTIONS):
        raise DecodeError(f"opcode {opcode} is outside the instruction set")
    kind = INSTRUCTIONS[opcode]
    if not kind._fields and payload != 0:
        raise DecodeError(f"{kind.word} carries payload {payload}, expected 0")
    operands = []
    for _ in kind._fields[1:]:
        operand, payload = unpair(payload)
        operands.append(operand)
    return kind(*operands, payload) if kind._fields else kind()


def encode_program(program: Sequence[Instruction]) -> int:
    code = 0
    for instr in reversed(program):
        code = pair(encode_instruction(instr), code) + 1
    return code


def decode_program(code: int) -> tuple[Instruction, ...]:
    if code < 0:
        raise DecodeError("program codes are nonnegative")
    program: list[Instruction] = []
    while code:
        head, code = unpair(code - 1)
        program.append(decode_instruction(head))
    return tuple(program)


def encode_machine(machine: RegisterMachine) -> int:
    """Program code alone; the register count is recovered on decode."""
    return encode_program(machine.program)


def decode_machine(code: int) -> RegisterMachine:
    program = decode_program(code)
    try:
        return machine_from_program(program)
    except ValueError as exc:
        raise DecodeError(str(exc)) from None


# --- universal interpretation ----------------------------------------------


def universal_run(program_code: int, input_value: int, fuel: int) -> Trace:
    trace, _ = universal_run_stats(program_code, input_value, fuel)
    return trace


def universal_run_stats(program_code: int, input_value: int, fuel: int) -> tuple[Trace, int]:
    """Interpret a program code, with the micro cost of fetching from the code.

    The program is decoded once, at load, and run by the same step loop
    as ``run_machine``, so the trace matches ``run_machine`` on the
    decoded machine at the same fuel. The second result, ``micro``, is
    the cost of the list-walking model of a universal machine, not the
    Python work done: loading charges 3 per instruction (one list-cell
    unpairing and two decode unpairings), and fetching instruction pc
    charges pc + 1 cell unpairings to walk the encoded list from its
    head plus 2 to decode the head, including the fetch that finds a
    HALT instruction or runs out of fuel.
    """
    _check_run(input_value, fuel)
    loaded = decode_machine(program_code)
    trace, charge = _step_loop(loaded, input_value, fuel)
    return trace, 3 * len(loaded.program) + charge


def random_machine(
    rng: random.Random, max_instructions: int = 6, max_registers: int = 3
) -> RegisterMachine:
    length = rng.randint(0, max_instructions)
    program: list[Instruction] = []
    for _ in range(length):
        kind = INSTRUCTIONS[rng.randrange(len(INSTRUCTIONS))]
        program.append(kind(*map(rng.randrange, _operand_sizes(kind, max_registers, length))))
    return RegisterMachine(max_registers, tuple(program))


# the machines, inputs and fuel of the differential suite
_EVIDENCE_INSTRUCTIONS, _EVIDENCE_REGISTERS, _EVIDENCE_MAX_INPUT, _EVIDENCE_FUEL = 6, 3, 20, 200


def universality_evidence(samples: int = 100, seed: int = 20260817) -> dict:
    """Differential suite: the code interpreter against the direct one.

    Agreement is exact on outcome, output, and step count; both run one
    step loop, so it checks what the code path adds, encoding and
    decoding. The mean
    overhead factor (micro operations per simulated step) is measured,
    not assumed.
    """
    rng = random.Random(seed)
    agreements = 0
    micro_total = 0
    steps_total = 0
    for _ in range(samples):
        machine = random_machine(rng, _EVIDENCE_INSTRUCTIONS, _EVIDENCE_REGISTERS)
        code = encode_machine(machine)
        input_value = rng.randint(0, _EVIDENCE_MAX_INPUT)
        direct = run_machine(machine, input_value, _EVIDENCE_FUEL)
        simulated, micro = universal_run_stats(code, input_value, _EVIDENCE_FUEL)
        if direct == simulated:
            agreements += 1
        micro_total += micro
        steps_total += simulated.steps
    factor = round(micro_total / steps_total, 3) if steps_total else None
    return {
        "samples": samples,
        "seed": seed,
        "agreements": agreements,
        "all_agree": agreements == samples,
        "fuel": _EVIDENCE_FUEL,
        "mean_overhead_factor": factor,
    }


# --- Fixed Output search -----------------------------------------------------


@dataclass(frozen=True, repr=False)
class WorldBounds:
    """A finite world of machines and inputs for exhaustive search."""

    max_instructions: int
    max_registers: int
    inputs: tuple[int, ...]
    fuel: int

    def __post_init__(self) -> None:
        if self.max_instructions < 0 or self.max_registers < 1 or self.fuel < 1:
            raise ValueError("bounds must be positive")
        if not self.inputs:
            raise ValueError("the world needs at least one input")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("the world's inputs must be distinct")


def _instruction_options(registers: int, length: int) -> list[Instruction]:
    """Every instruction of one slot: by kind in INSTRUCTIONS order, then by operands."""
    return [kind(*operands) for kind in INSTRUCTIONS for operands in
            itertools.product(*map(range, _operand_sizes(kind, registers, length)))]


def _machine_counts(max_instructions: int, max_registers: int) -> Iterator[int]:
    """The number of machines of each length 0..max_instructions, in order."""
    for length in range(max_instructions + 1):
        per_slot = sum(math.prod(_operand_sizes(kind, max_registers, length))
                       for kind in INSTRUCTIONS)
        yield per_slot**length


def count_machines(max_instructions: int, max_registers: int) -> int:
    return sum(_machine_counts(max_instructions, max_registers))


def enumerate_machines(max_instructions: int, max_registers: int) -> Iterator[RegisterMachine]:
    """Canonical order: by length, then lexicographic in the option list."""
    for length in range(max_instructions + 1):
        options = _instruction_options(max_registers, length)
        for combo in itertools.product(options, repeat=length):
            yield RegisterMachine(max_registers, combo)


def _slot_classes(jumps: Sequence[frozenset[int]], length: int) -> Iterator[list[Sequence[int]]]:
    """The machines of one length, in classes that run alike on every input.

    A run from slot 0 reads only the slots that the jumps of the slots it
    reads lead to, so the slots reachable from slot 0 decide every run.
    `jumps[i]` holds the slots below `length` that option i jumps to. Each
    class is given as the option indices that each slot may hold: one for
    a reachable slot, every option for the others. The lowest reachable
    slot not yet filled is filled next, so each class is made once.
    """
    every = range(len(jumps))
    filled: dict[int, int] = {}

    def fill(pending: frozenset[int]) -> Iterator[list[Sequence[int]]]:
        if not pending:
            yield [(filled[slot],) if slot in filled else every for slot in range(length)]
            return
        slot = min(pending)
        for index, targets in enumerate(jumps):
            filled[slot] = index
            yield from fill(pending.union(targets).difference(filled))
        del filled[slot]

    return fill(frozenset({0} if length else ()))


def _check_steps(steps: int) -> None:
    if steps > DEFAULT_STEP_CAP:
        raise CapExceededError("steps", steps, DEFAULT_STEP_CAP)


class OutputHit(NamedTuple):
    machine: RegisterMachine
    input_value: int
    steps: int


class BruteResult(NamedTuple):
    bounds: WorldBounds
    target: int
    runs: int
    hits: tuple[OutputHit, ...]


def fixed_output_brute(
    bounds: WorldBounds, target: int, *, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> BruteResult:
    """Every (machine, input) in the world that halts with the target output.

    The run count is computed up front, length by length; a world larger
    than the cap is refused rather than sampled, as soon as the lengths
    counted so far pass the cap. A world within it whose runs times fuel
    pass ``DEFAULT_STEP_CAP`` is refused too. ``runs`` counts the world's
    (machine, input) pairs; the search runs one machine of each class of
    ``_slot_classes`` per input, and a class that halts on the target
    stands for every machine in it.
    """
    runs = 0
    for length, count in enumerate(
        _machine_counts(bounds.max_instructions, bounds.max_registers)
    ):
        runs += count * len(bounds.inputs)
        if runs > enumeration_cap:
            raise CapExceededError("enum", runs, enumeration_cap,
                                   at_least=length < bounds.max_instructions)
    _check_steps(runs * bounds.fuel)
    inputs = sorted(bounds.inputs)
    registers = bounds.max_registers
    hits: list[OutputHit] = []
    for length in range(bounds.max_instructions + 1):
        # the empty program has no slot to fill
        options = _instruction_options(registers, length) if length else []
        # the operands after the register are the targets
        jumps = [frozenset(option[1:]) - {length} for option in options]
        # option indices of each machine that hits -> its (input, steps), by input
        found: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for choices in _slot_classes(jumps, length):
            machine = RegisterMachine(registers, tuple(options[c[0]] for c in choices))
            for input_value in inputs:
                trace = run_machine(machine, input_value, bounds.fuel)
                if trace.outcome == HALTED and trace.output == target:
                    for key in itertools.product(*choices):
                        found.setdefault(key, []).append((input_value, trace.steps))
        # sorted keys are the order of enumerate_machines
        for key in sorted(found):
            machine = RegisterMachine(registers, tuple(options[i] for i in key))
            hits.extend(OutputHit(machine, value, steps) for value, steps in found[key])
    return BruteResult(bounds, target, runs, tuple(hits))


class Recognition(NamedTuple):
    target: int
    found: bool
    input_value: int | None = None
    fuel: int | None = None
    stages: int = 0
    probes: int = 0

    @property
    def verdict(self) -> str:
        return "YES" if self.found else "UNKNOWN"


def fixed_output_recognize(
    machine: RegisterMachine,
    target: int,
    fuel_schedule: Sequence[int],
    *,
    max_input: int | None = None,
) -> Recognition:
    """Dovetail inputs against the fuel schedule; YES answers replay.

    Stage s runs inputs 0..s (clipped to max_input) at fuel schedule[s].
    The first hit in that fixed diagonal order is returned, so the
    certificate is reproducible; exhausting the schedule means unknown,
    never no. A schedule whose probes, run to the end of their fuel, would
    pass ``DEFAULT_STEP_CAP`` steps is refused before any run.
    """
    if not fuel_schedule:
        raise ValueError("the fuel schedule must not be empty")
    if any(f < 1 for f in fuel_schedule):
        raise ValueError("fuel values must be positive")
    if any(b >= a for a, b in zip(fuel_schedule[1:], fuel_schedule)):
        raise ValueError("the fuel schedule must be strictly increasing")
    tops = [stage if max_input is None else min(stage, max_input)
            for stage in range(len(fuel_schedule))]
    _check_steps(sum((top + 1) * fuel for top, fuel in zip(tops, fuel_schedule)))
    probes = 0
    for stage, (top, fuel) in enumerate(zip(tops, fuel_schedule)):
        for input_value in range(top + 1):
            probes += 1
            trace = run_machine(machine, input_value, fuel)
            if trace.outcome == HALTED and trace.output == target:
                return Recognition(target, True, input_value, fuel, stage + 1, probes)
    return Recognition(target, False, None, None, len(fuel_schedule), probes)
