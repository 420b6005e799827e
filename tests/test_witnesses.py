import pytest

from vty.projection import validate_registry
from vty.seed import seed_axiom_declarations, seed_registry
from vty.witnesses import WITNESSES, WitnessOutcome, run_witness


class TestWitnessSuite:
    def test_the_registry_names_three_witnesses(self):
        assert sorted(WITNESSES) == [
            "dfa_totality_exhaustive",
            "rm_self_loop_diverges",
            "rm_universal_differential",
        ]

    @pytest.mark.parametrize("witness_id", sorted(WITNESSES))
    def test_every_witness_passes(self, witness_id):
        outcome = run_witness(witness_id)
        assert outcome.witness_id == witness_id
        assert outcome.passed
        assert outcome.details

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_witness("rm_takes_a_nap")

    def test_self_loop_details_show_the_machine(self):
        outcome = run_witness("rm_self_loop_diverges")
        assert outcome.details["machine"] == "INC 0 0"
        assert set(outcome.details["outcomes"].values()) == {"OUT_OF_FUEL"}

    def test_differential_details_carry_the_sample_count(self):
        outcome = run_witness("rm_universal_differential")
        assert outcome.details["samples"] == 100
        assert outcome.details["agreements"] == 100

    def test_seed_registry_evidence_runs_clean(self):
        validate_registry(seed_registry(), seed_axiom_declarations(), run_exec=True)

    def test_a_failing_witness_fails_validation(self, monkeypatch):
        monkeypatch.setitem(WITNESSES, "rm_self_loop_diverges",
                            lambda: WitnessOutcome("rm_self_loop_diverges", False, {}))
        with pytest.raises(AssertionError, match="^witness 'rm_self_loop_diverges' failed"):
            validate_registry(seed_registry(), seed_axiom_declarations(), run_exec=True)
