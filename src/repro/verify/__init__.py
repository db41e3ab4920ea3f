"""Differential verification: oracle, fuzzing, shrinking, fault injection.

The paper's claim is architectural *equivalence*: the predicating VLIW
machine, whatever mixture of speculation, squashing and recovery it goes
through, must end in exactly the state sequential execution reaches.
This package enforces that claim systematically:

* :mod:`repro.verify.oracle` -- lockstep differential checker against the
  scalar interpreter golden model, and :func:`prepare`, the front end
  (model resolution, memory defaults, CFG, training run, compile) it
  shares with the lockstep diff and the security twin
  (:func:`repro.taint.oracle.run_security`);
* :mod:`repro.verify.case` -- :class:`ReproCase`, the one replayable case
  format: an equivalence case (``repro-verify-case/v1``) or a security
  case (``repro-security-case/v1``), replayed through the check it names;
* :mod:`repro.verify.fuzz` -- seed-deterministic random-program campaigns
  through the oracle;
* :mod:`repro.verify.shrink` -- delta-debugging minimizer for either
  kind of case;
* :mod:`repro.verify.faults` -- fault-injection campaigns corrupting
  buffered speculative state mid-run;
* :mod:`repro.verify.tracediff` -- lockstep forensics: both models run
  instrumented with flight recorders and committed-effect streams, and
  the first divergent architectural effect is pinpointed with +-K-event
  context windows (``repro diff-trace``).
"""

from repro.verify.case import CASE_SCHEMA, SECURITY_CASE_SCHEMA, ReproCase
from repro.verify.faults import FaultCampaignReport, run_fault_campaign
from repro.verify.fuzz import FuzzReport, run_fuzz
from repro.verify.oracle import (
    VERIFY_MODELS,
    DivergenceReport,
    DivergenceSite,
    OracleResult,
    resolve_model,
    run_oracle,
)
from repro.verify.shrink import ShrinkResult, ddmin_lines, shrink_case
from repro.verify.tracediff import (
    TRACEDIFF_SCHEMA,
    TraceDiffResult,
    merged_trace,
    run_diff_trace,
    validate_tracediff,
)

__all__ = [
    "CASE_SCHEMA",
    "DivergenceReport",
    "DivergenceSite",
    "FaultCampaignReport",
    "FuzzReport",
    "OracleResult",
    "ReproCase",
    "SECURITY_CASE_SCHEMA",
    "ShrinkResult",
    "TRACEDIFF_SCHEMA",
    "TraceDiffResult",
    "VERIFY_MODELS",
    "merged_trace",
    "resolve_model",
    "run_diff_trace",
    "run_fault_campaign",
    "run_fuzz",
    "run_oracle",
    "ddmin_lines",
    "shrink_case",
    "validate_tracediff",
]
