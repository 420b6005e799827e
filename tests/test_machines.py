import inspect
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import vty.machines
from vty.errors import CapExceededError, DecodeError
from vty.machines import (
    INSTRUCTIONS,
    BruteResult,
    DecJz,
    Halt,
    Inc,
    RegisterMachine,
    Trace,
    WorldBounds,
    count_machines,
    decode_instruction,
    decode_machine,
    decode_program,
    encode_instruction,
    encode_machine,
    encode_program,
    enumerate_machines,
    fixed_output_brute,
    fixed_output_recognize,
    format_machine,
    machine_from_program,
    pair,
    parse_machine,
    random_machine,
    run_machine,
    universal_run,
    universal_run_stats,
    universality_evidence,
    unpair,
)

from vty.machines import _instruction_options

from oracle_tools import mini_run, oracle_fixed_output_brute, oracle_walk_universal_run


def machine(*program):
    return machine_from_program(program)


class TestRunner:
    def test_empty_program_halts_at_once(self):
        trace = run_machine(machine(), 7, 10)
        assert (trace.outcome, trace.output, trace.steps) == ("HALT", 7, 0)

    def test_single_increment(self):
        trace = run_machine(machine(Inc(0, 1)), 0, 10)
        assert (trace.outcome, trace.output, trace.steps) == ("HALT", 1, 1)

    def test_halting_consumes_no_fuel(self):
        trace = run_machine(machine(Inc(0, 1)), 5, 1)
        assert trace.outcome == "HALT"
        assert trace.steps == 1
        assert trace.output == 6

    def test_zero_fuel_still_recognizes_a_halted_machine(self):
        assert run_machine(machine(), 3, 0).outcome == "HALT"
        trace = run_machine(machine(Inc(0, 0)), 3, 0)
        assert (trace.outcome, trace.output, trace.steps) == ("OUT_OF_FUEL", None, 0)

    def test_self_loop_runs_out_of_fuel(self):
        trace = run_machine(machine(DecJz(0, 0, 0)), 0, 25)
        assert (trace.outcome, trace.steps) == ("OUT_OF_FUEL", 25)

    def test_decjz_branches_both_ways(self):
        move = machine(DecJz(0, 2, 1), Inc(1, 0))
        trace = run_machine(move, 4, 100)
        assert trace.outcome == "HALT"
        assert trace.output == 0
        assert trace.steps == 9

    def test_negative_arguments_are_rejected(self):
        with pytest.raises(ValueError):
            run_machine(machine(), -1, 5)
        with pytest.raises(ValueError):
            run_machine(machine(), 1, -5)

    def test_determinism(self):
        rng = random.Random(99)
        for _ in range(20):
            m = random_machine(rng)
            value = rng.randint(0, 30)
            assert run_machine(m, value, 60) == run_machine(m, value, 60)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_more_fuel_never_changes_a_halting_run(self, seed):
        rng = random.Random(seed)
        m = random_machine(rng)
        value = rng.randint(0, 20)
        fuel = rng.randint(0, 40)
        first = run_machine(m, value, fuel)
        second = run_machine(m, value, fuel + rng.randint(1, 40))
        if first.outcome == "HALT":
            assert (second.outcome, second.output, second.steps) == (
                "HALT", first.output, first.steps
            )
        else:
            assert second.steps >= first.steps

    @given(
        seed=st.integers(0, 2**32),
        size=st.sampled_from((0, 1, 3, 6, 10)),
        registers=st.integers(1, 3),
        input_value=st.integers(0, 25),
        fuel=st.integers(0, 120),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_interpreter_on_random_machines(
        self, seed, size, registers, input_value, fuel
    ):
        m = random_machine(random.Random(seed), size, registers)
        trace = run_machine(m, input_value, fuel)
        assert mini_run(format_machine(m), input_value, fuel) == (
            trace.outcome, trace.output, trace.steps)


# programs that enter a loop: (text, input)
CYCLING = [
    ("DECJZ 0 0 0", 0),
    ("INC 0 1\nDECJZ 0 0 0", 3),
    # counts register 0 down, then loops through slots 1, 2 and 3
    ("DECJZ 0 1 0\nINC 1 2\nDECJZ 1 3 3\nDECJZ 0 1 1", 5),
]


class TestCycleSkip:
    """A run that repeats a state skips its remaining whole periods."""

    @pytest.mark.parametrize("text, input_value", [("DECJZ 0 0 0", 0),
                                                   ("INC 0 1\nDECJZ 0 0 0", 3)])
    def test_a_billion_steps_of_a_loop_take_under_a_second(self, text, input_value):
        start = time.monotonic()
        trace = run_machine(parse_machine(text), input_value, 10**9)
        assert time.monotonic() - start < 1.0
        assert (trace.outcome, trace.output, trace.steps) == ("OUT_OF_FUEL", None, 10**9)

    @pytest.mark.parametrize("text, input_value", CYCLING)
    @pytest.mark.parametrize("fuel", [1, 2, 7, 64, 1000, 1001, 4999])
    def test_charges_equal_the_list_walker(self, text, input_value, fuel):
        code = encode_machine(parse_machine(text))
        assert universal_run_stats(code, input_value, fuel) == oracle_walk_universal_run(
            code, input_value, fuel)
        assert mini_run(text, input_value, fuel) == ("OUT_OF_FUEL", None, fuel)

    @given(seed=st.integers(0, 2**32), input_value=st.integers(0, 5),
           fuel=st.integers(200, 3000))
    @settings(max_examples=100, deadline=None)
    def test_long_runs_of_random_machines_equal_the_list_walker(self, seed, input_value, fuel):
        code = encode_machine(random_machine(random.Random(seed), 4, 2))
        assert universal_run_stats(code, input_value, fuel) == oracle_walk_universal_run(
            code, input_value, fuel)


class TestMachineValidation:
    def test_register_bound(self):
        with pytest.raises(ValueError):
            RegisterMachine(1, (Inc(1, 0),))

    def test_jump_bound(self):
        with pytest.raises(ValueError):
            RegisterMachine(1, (Inc(0, 2),))
        RegisterMachine(1, (Inc(0, 1),))  # one past the end is the halt address

    @pytest.mark.parametrize("entry", ["junk", None, 3, (0, 1)])
    def test_entry_that_is_not_an_instruction(self, entry):
        with pytest.raises(ValueError, match="^instruction 1 is not an instruction$"):
            RegisterMachine(1, (Inc(0, 1), entry))
        # the register count is read from the instructions alone
        with pytest.raises(ValueError, match="^instruction 1 is not an instruction$"):
            machine_from_program((Inc(0, 1), entry))

    def test_at_least_one_register(self):
        with pytest.raises(ValueError):
            RegisterMachine(0, ())

    def test_register_count_is_inferred(self):
        assert machine(Inc(2, 0)).registers == 3
        assert machine().registers == 1


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(20260817)
        for _ in range(40):
            m = random_machine(rng)
            text = format_machine(m)
            parsed = parse_machine(text)
            assert parsed.program == m.program

    def test_a_bool_operand_prints_as_its_number(self):
        # a bool is an int, and the text format prints each operand as one
        m = RegisterMachine(2, (Inc(True, 0), DecJz(1, False, 1)))
        assert format_machine(m) == "INC 1 0\nDECJZ 1 0 1"

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# header\n\nINC 0 1   # bump\n\nHALT\n"
        assert parse_machine(text).program == (Inc(0, 1), Halt())

    def test_bad_line_is_located(self):
        with pytest.raises(ValueError) as err:
            parse_machine("INC 0 1\nWAT 3\n")
        assert "line 2" in str(err.value)
        with pytest.raises(ValueError) as err:
            parse_machine("INC 0\n")
        assert str(err.value) == "line 1: bad instruction 'INC 0'"
        with pytest.raises(ValueError):
            parse_machine("HALT 0\n")

    @pytest.mark.parametrize("text", [
        "INC +0 1", "INC 0 \u0661", "INC 0 1_0", "INC 0 --1", "INC 0 1.0", "DECJZ 0 \uff11 0",
    ])
    def test_an_operand_is_ascii_digits(self, text):
        # int() reads a plus sign, another script's digits and underscores,
        # so 'INC 0 1_0' would jump to 10; a minus is read once, before digits
        with pytest.raises(ValueError) as err:
            parse_machine(text)
        assert str(err.value) == f"line 1: bad instruction {text!r}"

    @pytest.mark.parametrize("text, message", [
        ("INC 0 9\n", "instruction 0 jumps to 9"),
        ("INC -1 0\n", "instruction 0 uses register -1"),
        # the register is checked before the targets, and the targets in order
        ("DECJZ -1 9 0\n", "instruction 0 uses register -1"),
        ("DECJZ 0 9 7\n", "instruction 0 jumps to 9"),
        ("HALT\nDECJZ 0 1 5\n", "instruction 1 jumps to 5"),
    ])
    def test_parsed_machines_are_validated(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_machine(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("seed, arguments, text", [
        (0, (), "DECJZ 1 0 2\nHALT\nDECJZ 1 6 6\nDECJZ 1 2 4\nINC 2 1\nDECJZ 0 6 0"),
        (1, (), "HALT"),
        (2, (), "INC 0 0\nDECJZ 0 5 6\nHALT\nDECJZ 1 4 1\nHALT\nINC 2 5"),
        (4, (), "DECJZ 0 1 1"),
        (5, (10, 2), "DECJZ 1 8 0\nDECJZ 0 0 2\nINC 1 7\nINC 1 8\nINC 0 0\nHALT\n"
                     "INC 1 4\nINC 1 2\nINC 0 9"),
        (11, (8, 4), "HALT\nDECJZ 3 3 2\nHALT\nDECJZ 1 1 7\nDECJZ 1 1 0\nHALT\n"
                     "DECJZ 3 2 0"),
    ])
    def test_random_draws_are_pinned(self, seed, arguments, text):
        # the draw order of random_machine fixes every seeded sample in the suite
        assert format_machine(random_machine(random.Random(seed), *arguments)) == text


class TestAdder:
    def test_adds_the_two_halves_of_a_paired_input(self, data_dir):
        text = (data_dir / "adder.rm").read_text()
        adder = parse_machine(text)
        assert adder.registers == 4
        for x in range(5):
            for y in range(5):
                trace = run_machine(adder, pair(x, y), 10_000)
                assert trace.outcome == "HALT"
                assert trace.output == x + y

    def test_agrees_with_the_reference_interpreter(self, data_dir):
        text = (data_dir / "adder.rm").read_text()
        adder = parse_machine(text)
        rng = random.Random(5)
        for _ in range(25):
            value = rng.randint(0, 120)
            fuel = rng.choice((10, 100, 10_000))
            trace = run_machine(adder, value, fuel)
            assert mini_run(text, value, fuel) == (trace.outcome, trace.output, trace.steps)


class TestPairing:
    def test_diagonal_order(self):
        table = [((0, 0), 0), ((1, 0), 1), ((0, 1), 2), ((2, 0), 3), ((1, 1), 4), ((0, 2), 5)]
        for (x, y), code in table:
            assert pair(x, y) == code
            assert unpair(code) == (x, y)

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @settings(max_examples=80)
    def test_round_trip(self, x, y):
        assert unpair(pair(x, y)) == (x, y)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=80)
    def test_every_code_is_some_pair(self, z):
        x, y = unpair(z)
        assert x >= 0 and y >= 0
        assert pair(x, y) == z

    def test_bijective_on_a_box(self):
        codes = {pair(x, y) for x in range(50) for y in range(50)}
        assert len(codes) == 2500

    def test_negative_arguments_are_rejected(self):
        with pytest.raises(ValueError):
            pair(-1, 0)
        with pytest.raises(ValueError):
            unpair(-1)


class TestEncoding:
    def instructions(self):
        return [
            Inc(0, 0), Inc(3, 7), DecJz(0, 0, 0), DecJz(2, 5, 1), Halt(),
        ]

    def test_instruction_round_trip(self):
        for instr in self.instructions():
            decoded = decode_instruction(encode_instruction(instr))
            assert (type(decoded), decoded) == (type(instr), instr)

    def test_no_two_kinds_share_an_arity(self):
        # so instructions of two kinds never compare equal
        arities = [len(inspect.signature(kind).parameters) for kind in INSTRUCTIONS]
        assert len(set(arities)) == len(INSTRUCTIONS)

    @pytest.mark.parametrize("instr, code", [
        (Inc(0, 0), 0), (Inc(1, 0), 2), (Inc(3, 7), 2015),
        (DecJz(0, 0, 0), 1), (DecJz(1, 0, 3), 2209), (DecJz(2, 5, 1), 52648),
        (Halt(), 3),
    ])
    def test_instruction_codes_are_pinned(self, instr, code):
        assert encode_instruction(instr) == code

    def test_program_round_trip(self):
        rng = random.Random(20260817)
        for _ in range(40):
            program = random_machine(rng).program
            decoded = decode_program(encode_program(program))
            assert decoded == program
            assert list(map(type, decoded)) == list(map(type, program))

    def test_empty_program_is_code_zero(self):
        assert encode_program(()) == 0
        assert decode_program(0) == ()

    def test_machine_round_trip_infers_registers(self):
        wide = RegisterMachine(3, (Inc(0, 1),))
        decoded = decode_machine(encode_machine(wide))
        assert decoded.registers == 1
        assert decoded.program == wide.program
        narrow = machine(DecJz(2, 0, 1))
        assert decode_machine(encode_machine(narrow)) == narrow

    def test_halt_payload_must_be_zero(self):
        with pytest.raises(DecodeError) as err:
            decode_instruction(pair(2, 1))
        assert str(err.value) == "HALT carries payload 1, expected 0"

    def test_unknown_opcode(self):
        with pytest.raises(DecodeError) as err:
            decode_instruction(pair(3, 0))
        assert str(err.value) == "opcode 3 is outside the instruction set"

    def test_negative_program_code(self):
        with pytest.raises(DecodeError):
            decode_program(-1)

    def test_invalid_jump_surfaces_as_decode_error(self):
        code = pair(encode_instruction(Inc(0, 5)), 0) + 1
        with pytest.raises(DecodeError):
            decode_machine(code)


class TestUniversalInterpreter:
    def test_agrees_with_the_direct_runner(self):
        rng = random.Random(20260817)
        for _ in range(60):
            m = random_machine(rng)
            code = encode_machine(m)
            value = rng.randint(0, 25)
            fuel = rng.randint(0, 80)
            direct = run_machine(m, value, fuel)
            simulated = universal_run(code, value, fuel)
            assert (direct.outcome, direct.output, direct.steps) == (
                simulated.outcome, simulated.output, simulated.steps
            )

    def test_micro_operations_are_counted(self):
        code = encode_machine(machine(Inc(0, 1)))
        trace, micro = universal_run_stats(code, 0, 10)
        assert trace.outcome == "HALT"
        assert micro > 0

    @given(
        seed=st.integers(0, 2**32),
        size=st.sampled_from((0, 1, 3, 6, 10)),
        registers=st.integers(1, 3),
        input_value=st.integers(0, 25),
        fuel=st.integers(0, 120),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_list_walker_on_random_machines(
        self, seed, size, registers, input_value, fuel
    ):
        code = encode_machine(random_machine(random.Random(seed), size, registers))
        assert universal_run_stats(code, input_value, fuel) == oracle_walk_universal_run(
            code, input_value, fuel
        )

    @pytest.mark.parametrize("program, input_value, fuel, outcome", [
        ((), 4, 10, "HALT"),
        ((Inc(0, 1), DecJz(0, 2, 2)), 3, 0, "OUT_OF_FUEL"),
        ((), 0, 0, "HALT"),
        ((Inc(0, 1), Inc(0, 0)), 0, 9, "OUT_OF_FUEL"),
        ((Inc(1, 1), DecJz(1, 2, 3), Inc(0, 3), Halt(), Inc(0, 0)), 2, 50, "HALT"),
    ], ids=["empty", "fuel_zero", "empty_fuel_zero", "exhaustion", "halt_instruction"])
    def test_matches_the_list_walker_on_edge_cases(self, program, input_value, fuel, outcome):
        code = encode_machine(machine(*program))
        trace, micro = universal_run_stats(code, input_value, fuel)
        assert trace.outcome == outcome
        assert (trace, micro) == oracle_walk_universal_run(code, input_value, fuel)

    def test_halt_instruction_fetch_is_charged(self):
        # load 3 x 3, fetch 0 (3), fetch 1 (4), fetch HALT at 2 (5)
        code = encode_machine(machine(Inc(0, 1), Inc(0, 2), Halt()))
        assert universal_run_stats(code, 0, 10) == (Trace("HALT", 2, 2), 9 + 3 + 4 + 5)

    @pytest.mark.parametrize("x, y", [(0, 0), (0, 1), (1, 0), (2, 1), (3, 4)])
    def test_matches_the_list_walker_on_the_adder(self, data_dir, x, y):
        code = encode_machine(parse_machine((data_dir / "adder.rm").read_text()))
        trace, micro = universal_run_stats(code, pair(x, y), 10_000)
        assert (trace.outcome, trace.output) == ("HALT", x + y)
        assert (trace, micro) == oracle_walk_universal_run(code, pair(x, y), 10_000)

    def test_bad_codes_are_rejected(self):
        bad = pair(encode_instruction(Inc(0, 5)), 0) + 1
        with pytest.raises(DecodeError):
            universal_run(bad, 0, 10)
        with pytest.raises(DecodeError):
            universal_run(-3, 0, 10)

    def test_bad_input_is_reported_before_a_bad_code(self):
        with pytest.raises(ValueError, match="input must be a nonnegative integer") as err:
            universal_run(-3, -1, 5)
        assert not isinstance(err.value, DecodeError)
        with pytest.raises(ValueError, match="fuel must be nonnegative") as err:
            universal_run(-3, 1, -5)
        assert not isinstance(err.value, DecodeError)

    @pytest.mark.parametrize("code, message", [
        (-3, "program codes are nonnegative"),
        (pair(pair(3, 0), 0) + 1, "opcode 3 is outside the instruction set"),
        (pair(pair(2, 1), 0) + 1, "HALT carries payload 1, expected 0"),
        (pair(encode_instruction(Inc(0, 5)), 0) + 1, "instruction 0 jumps to 5"),
    ], ids=["negative", "opcode", "halt_payload", "jump"])
    def test_load_errors_match_decode_machine(self, code, message):
        with pytest.raises(DecodeError) as decoded:
            decode_machine(code)
        with pytest.raises(DecodeError) as interpreted:
            universal_run(code, 0, 10)
        assert str(interpreted.value) == str(decoded.value) == message

    def test_evidence_summary_is_reproducible(self):
        evidence = universality_evidence()
        assert evidence == {
            "samples": 100,
            "seed": 20260817,
            "agreements": 100,
            "all_agree": True,
            "fuel": 200,
            "mean_overhead_factor": 3.739,
        }


class TestWorldEnumeration:
    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            WorldBounds(-1, 1, (0,), 5)
        with pytest.raises(ValueError):
            WorldBounds(1, 0, (0,), 5)
        with pytest.raises(ValueError):
            WorldBounds(1, 1, (), 5)
        with pytest.raises(ValueError):
            WorldBounds(1, 1, (0,), 0)
        with pytest.raises(ValueError, match="distinct"):
            WorldBounds(1, 1, (0, 2, 0), 5)

    # the cap arithmetic counts what the enumerator yields: every world of
    # at most 10 000 machines in the table below is enumerated in full
    KNOWN_COUNTS = {
        0: (1, 1, 1),
        1: (8, 14, 20),
        2: (177, 639, 1389),
        3: (9438, 69560, 228370),
        4: (932959, 13915401, 68803331),
    }

    @pytest.mark.parametrize("instructions,registers", [
        (instructions, registers)
        for instructions, counts in KNOWN_COUNTS.items()
        for registers, count in enumerate(counts, start=1) if count <= 10_000])
    def test_count_matches_enumeration(self, instructions, registers):
        machines = list(enumerate_machines(instructions, registers))
        assert len(machines) == count_machines(instructions, registers)
        assert len(set(machines)) == len(machines)

    def test_known_counts(self):
        for instructions, counts in self.KNOWN_COUNTS.items():
            for registers, count in enumerate(counts, start=1):
                assert count_machines(instructions, registers) == count

    @pytest.mark.parametrize("registers, length, codes", [
        (1, 0, [0, 1, 3]),
        (1, 1, [0, 5, 1, 26, 8, 134, 3]),
        (1, 2, [0, 5, 20, 1, 26, 251, 8, 134, 1079, 64, 701, 4276, 3]),
        (2, 0, [0, 2, 1, 4, 3]),
        (2, 1, [0, 5, 2, 14, 1, 26, 8, 134, 4, 53, 19, 229, 3]),
        (2, 2, [0, 5, 20, 2, 14, 44, 1, 26, 251, 8, 134, 1079, 64, 701, 4276,
                4, 53, 404, 19, 229, 1538, 118, 1033, 5563, 3]),
    ])
    def test_option_order_is_pinned(self, registers, length, codes):
        # the canonical enumeration order, and so the order of brute hits
        options = _instruction_options(registers, length)
        assert [encode_instruction(option) for option in options] == codes


class TestFixedOutputBrute:
    def tiny_world(self):
        return WorldBounds(1, 1, (0,), 4)

    def test_tiny_world_has_one_way_to_make_one(self):
        result = fixed_output_brute(self.tiny_world(), 1)
        assert result.runs == 8
        assert len(result.hits) == 1
        hit = result.hits[0]
        assert hit.machine.program == (Inc(0, 1),)
        assert hit.input_value == 0
        assert hit.steps == 1

    def test_target_zero_includes_the_empty_machine(self):
        result = fixed_output_brute(self.tiny_world(), 0)
        assert machine() in {hit.machine for hit in result.hits}

    def test_enumeration_cap(self):
        # lengths 0..2 already need 2 + 26 + 1250 runs; length 3 is never counted
        with pytest.raises(CapExceededError) as stopped:
            fixed_output_brute(WorldBounds(3, 2, (0, 1), 5), 1, enumeration_cap=100)
        assert str(stopped.value) == "enumeration needs at least 1278 runs, above the cap of 100"

    def test_cap_passed_at_the_last_length_counts_exactly(self):
        with pytest.raises(CapExceededError) as counted:
            fixed_output_brute(WorldBounds(3, 1, (0, 1), 5), 1, enumeration_cap=18_875)
        assert str(counted.value) == "enumeration needs 18876 runs, above the cap of 18875"

    def test_step_cap_is_runs_times_fuel(self, monkeypatch):
        # the tiny world is 8 runs of fuel 4
        monkeypatch.setattr(vty.machines, "DEFAULT_STEP_CAP", 32)
        assert fixed_output_brute(self.tiny_world(), 1).runs == 8
        monkeypatch.setattr(vty.machines, "DEFAULT_STEP_CAP", 31)
        with pytest.raises(CapExceededError) as capped:
            fixed_output_brute(self.tiny_world(), 1)
        assert str(capped.value) == "search needs up to 32 steps, above the cap of 31"

    def test_enumeration_cap_is_checked_before_the_step_cap(self, monkeypatch):
        monkeypatch.setattr(vty.machines, "DEFAULT_STEP_CAP", 1)
        with pytest.raises(CapExceededError) as capped:
            fixed_output_brute(self.tiny_world(), 1, enumeration_cap=7)
        assert capped.value.bound == "enum"

    @given(
        instructions=st.integers(0, 3),
        registers=st.integers(1, 2),
        fuel=st.integers(1, 64),
        inputs=st.lists(st.integers(1, 6), unique=True, max_size=2).flatmap(
            lambda others: st.permutations([0, *others])),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_plain_search(self, instructions, registers, fuel, inputs):
        # every target that occurs, and one that does not, in worlds within the cap
        cap = 20_000
        bounds = WorldBounds(instructions, registers, tuple(inputs), fuel)
        if count_machines(instructions, registers) * len(inputs) > cap:
            with pytest.raises(CapExceededError) as capped:
                fixed_output_brute(bounds, 0, enumeration_cap=cap)
            assert capped.value.bound == "enum"
            return
        outputs = {run_machine(m, value, fuel).output
                   for m in enumerate_machines(instructions, registers) for value in inputs}
        outputs.discard(None)
        for target in sorted(outputs) + [max(outputs) + 1]:
            result = fixed_output_brute(bounds, target, enumeration_cap=cap)
            assert result == oracle_fixed_output_brute(bounds, target)

    @pytest.mark.parametrize("instructions,registers", [(0, 1), (1, 2), (3, 1)])
    def test_runs_under_the_cap_are_the_world_size(self, instructions, registers):
        world = WorldBounds(instructions, registers, (0, 2, 1), 3)
        runs = 3 * count_machines(instructions, registers)
        assert fixed_output_brute(world, 1, enumeration_cap=runs).runs == runs


class TestFixedOutputRecognize:
    def test_yes_certificate_replays(self):
        m = machine(Inc(0, 1))
        recognition = fixed_output_recognize(m, 1, [2, 4, 8])
        assert recognition.verdict == "YES"
        assert recognition.found
        trace = run_machine(m, recognition.input_value, recognition.fuel)
        assert trace.outcome == "HALT"
        assert trace.output == 1

    def test_divergent_machine_stays_unknown(self):
        recognition = fixed_output_recognize(machine(DecJz(0, 0, 0)), 1, [1, 2, 4, 8])
        assert recognition.verdict == "UNKNOWN"
        assert not recognition.found
        assert recognition.input_value is None
        assert recognition.stages == 4
        assert recognition.probes == 1 + 2 + 3 + 4

    def test_slow_halting_needs_a_later_stage(self):
        # Count down from 6, then halt with 0: needs fuel 7 and input 6.
        m = machine(DecJz(0, 1, 0))
        recognition = fixed_output_recognize(m, 0, [1, 2, 30])
        assert recognition.verdict == "YES"
        assert recognition.input_value == 0
        assert recognition.fuel == 1
        found_late = fixed_output_recognize(machine(DecJz(0, 1, 0), Inc(1, 0)), 0, [1, 2, 3])
        assert found_late.stages <= 3

    def test_max_input_clips_the_diagonal(self):
        recognition = fixed_output_recognize(
            machine(DecJz(0, 0, 0)), 1, [1, 2, 3, 4], max_input=1
        )
        assert recognition.probes == 1 + 2 + 2 + 2

    def test_step_cap_sums_probes_times_fuel(self, monkeypatch):
        # stages probe 1, 2, 2 and 2 inputs: 1*1 + 2*2 + 2*3 + 2*4 = 19 steps
        m = machine(DecJz(0, 0, 0))
        monkeypatch.setattr(vty.machines, "DEFAULT_STEP_CAP", 19)
        assert fixed_output_recognize(m, 1, [1, 2, 3, 4], max_input=1).probes == 7
        monkeypatch.setattr(vty.machines, "DEFAULT_STEP_CAP", 18)
        with pytest.raises(CapExceededError) as capped:
            fixed_output_recognize(m, 1, [1, 2, 3, 4], max_input=1)
        assert str(capped.value) == "search needs up to 19 steps, above the cap of 18"

    def test_schedule_validation(self):
        m = machine()
        with pytest.raises(ValueError):
            fixed_output_recognize(m, 0, [])
        with pytest.raises(ValueError):
            fixed_output_recognize(m, 0, [0, 1])
        with pytest.raises(ValueError):
            fixed_output_recognize(m, 0, [3, 3])
        with pytest.raises(ValueError):
            fixed_output_recognize(m, 0, [4, 2])

    def test_unknown_is_never_claimed_as_no(self):
        # Halts with the target only beyond every scheduled fuel value.
        m = machine(DecJz(0, 1, 0))
        short = fixed_output_recognize(m, 0, [1], max_input=0)
        assert short.verdict == "YES"  # input 0 halts in one step
        counting = machine(Inc(1, 1), DecJz(1, 2, 1))
        verdicts = {
            fixed_output_recognize(counting, 9, [s + 1 for s in range(n)]).verdict
            for n in (1, 3, 6)
        }
        assert verdicts <= {"YES", "UNKNOWN"}

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=40, deadline=None)
    def test_extending_the_schedule_preserves_yes(self, seed):
        rng = random.Random(seed)
        m = random_machine(rng, max_instructions=3, max_registers=1)
        target = rng.randint(0, 3)
        schedule = [2, 5, 9]
        first = fixed_output_recognize(m, target, schedule, max_input=2)
        extended = fixed_output_recognize(m, target, schedule + [20, 50], max_input=2)
        if first.found:
            assert extended.found
            assert extended.input_value == first.input_value
            assert extended.fuel == first.fuel
