import pytest

from vty.projection import EXEC_EXHAUSTIVE, EXEC_POSITIVE
from vty.seed import seed_registry
from vty.witnesses import WITNESSES

# each status of the packaged registry that an executable witness backs
EXECUTABLE = [(f"{profile.class_id} {axiom}", status.evidence)
              for profile in seed_registry() for axiom, status in profile.statuses.items()
              if status.evidence is not None
              and status.evidence.kind in (EXEC_POSITIVE, EXEC_EXHAUSTIVE)]

# how many cases an exec-positive witness ran, read from its details
SUITE_SIZES = {
    "rm_universal_differential": lambda details: details["samples"],
    "rm_self_loop_diverges": lambda details: len(details["outcomes"]),
}


class TestWitnessSuite:
    def test_the_registry_names_three_witnesses(self):
        assert sorted(WITNESSES) == [
            "dfa_totality_exhaustive",
            "rm_self_loop_diverges",
            "rm_universal_differential",
        ]

    @pytest.mark.parametrize("witness_id", sorted(WITNESSES))
    def test_every_witness_passes(self, witness_id):
        outcome = WITNESSES[witness_id]()
        assert outcome.witness_id == witness_id
        assert outcome.passed
        assert outcome.details

    def test_self_loop_details_show_the_machine(self):
        outcome = WITNESSES["rm_self_loop_diverges"]()
        assert outcome.details["machine"] == "INC 0 0"
        assert set(outcome.details["outcomes"].values()) == {"OUT_OF_FUEL"}

    def test_differential_details_carry_the_sample_count(self):
        outcome = WITNESSES["rm_universal_differential"]()
        assert outcome.details["samples"] == 100
        assert outcome.details["agreements"] == 100


class TestRegistryEvidence:
    """The registry's curated numbers and domains are what its witnesses run."""

    def test_every_kind_of_executable_evidence_is_listed(self):
        assert {evidence.kind for _, evidence in EXECUTABLE} == {EXEC_POSITIVE, EXEC_EXHAUSTIVE}

    @pytest.mark.parametrize("evidence", [evidence for _, evidence in EXECUTABLE],
                             ids=[name for name, _ in EXECUTABLE])
    def test_the_witness_runs_what_the_status_claims(self, evidence):
        outcome = WITNESSES[evidence.witness_id]()
        assert outcome.passed
        details = outcome.details
        if evidence.kind == EXEC_POSITIVE:
            assert evidence.suite_size == SUITE_SIZES[evidence.witness_id](details)
        else:
            alphabet = "{" + ", ".join(details["alphabet"]) + "}"
            for phrase in (f"at most {details['max_states']} states", f"over {alphabet}",
                           f"length at most {details['max_word_length']}"):
                assert phrase in evidence.domain
