"""Shared pytest hooks: per-criterion summary lines for the acceptance suite;
and `constant`, a stream helper the test modules import."""

from celab.streams import ApproxStream, Direction


def constant(value, direction=Direction.INCREASING):
    """A stream pinned at `value` at every stage (not unit-interval flagged)."""
    return ApproxStream(direction, lambda s, _p: value, unit_interval=False)


ACCEPTANCE_LABELS = {
    "test_criterion_1_expansion_invariants":
        "paced-growth engine invariants V1-V4 exact over 20 configs, 2000 stages",
    "test_criterion_2_expansion_stabilization":
        "paced-growth parameter stabilization for separated constant-target adversaries",
    "test_criterion_3_injury_invariants":
        "finite-injury engine invariants W1-W5 exact over 20 configs, 1000 stages",
    "test_criterion_4_speedup_oracle":
        "speed-up stream pacing bound and exact catch-up on 200 dominated pairs",
    "test_criterion_5_witness_closure":
        "domination clause upward-closure and prefix-monotonicity on 100 witnesses",
    "test_criterion_6_dce_homomorphism":
        "difference-arithmetic per-stage identities on 100 pairs, stages <= 100",
    "test_criterion_7_omega_machine":
        "Kraft bound exact for bundled machines; dispatch exhaustive to length 8",
    "test_criterion_8_determinism_replay":
        "bit-exact determinism, trace replay, and hand-audited golden traces",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            if name in ACCEPTANCE_LABELS:
                ok = status == "passed" and outcomes.get(name, True)
                outcomes[name] = ok
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        if name not in outcomes:
            continue
        verdict = "PASS" if outcomes[name] else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {label}")
