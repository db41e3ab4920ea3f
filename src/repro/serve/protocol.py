"""The ``repro serve`` JSON-lines protocol.

One request per line, one response per line, in request order::

    {"id": "j1", "kind": "simulate", "workload": "compress",
     "model": "region_pred", "seed": 7}
    {"id": "j2", "kind": "simulate", "program": "start:\\n  out r0\\n  halt",
     "model": "scalar"}

Responses carry ``schema: repro-serve/v1``, echo the request ``id``, and
have one of four statuses:

* ``ok``         -- the deterministic simulation result;
* ``error``      -- the job failed for good (bad program, worker crash
  after retries); structured ``{type, message, attempts}``;
* ``overloaded`` -- shed at admission: the bounded queue is full.  The
  client should back off and resubmit;
* ``rejected``   -- refused at admission for a per-client reason
  (quota exceeded, malformed request).

Job identity is *content*, not the request id: :func:`resolve_request`
reduces a request to a :class:`ResolvedJob` whose ``key`` hashes the
program text, model, machine config, seeds and memory image -- the same
keying discipline :func:`repro.eval.runner.cell_cache_key` uses for
experiment cells.  Identical work submitted twice (same batch, later
batch, or after a server restart) executes once and replays.
``group`` hashes everything *except* the per-job seed, so the service
can batch jobs that share a compiled program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.compiler.models import MODEL_ALIASES, MODEL_NAMES
from repro.eval.runner import _canonical as canonical
from repro.machine.config import MachineConfig

#: Envelope identifier on every response line; bump on layout changes.
SERVE_SCHEMA = "repro-serve/v1"

#: Protocol version folded into job keys (evaluator semantics changes
#: must not replay stale journaled results).
JOB_KEY_VERSION = 1

#: Job kinds.  ``chaos`` mirrors the experiment runner's chaos cells:
#: deliberate misbehaviour (raise/hang/kill/wait_for) for exercising the
#: service's failure paths in tests and CI.  ``security`` is a twin-run
#: taint check (:func:`repro.taint.oracle.run_security`) of the same
#: compiled program a simulate job would run.
JOB_KINDS = ("simulate", "chaos", "security")

#: Taint policies a security job may name.
JOB_POLICIES = ("committed", "strict")


class ProtocolError(ValueError):
    """A request that cannot be accepted; carries the client-facing reason."""


@dataclass(frozen=True)
class JobSpec:
    """One parsed (but not yet resolved) request line."""

    id: str
    client: str
    kind: str
    workload: str | None
    program_text: str | None
    model: str
    seed: int | None
    config_overrides: tuple[tuple[str, object], ...]
    memory_words: tuple[tuple[int, int], ...]
    chaos: tuple[tuple[str, object], ...]
    policy: str = "committed"  # taint policy (security jobs only)


@dataclass(frozen=True)
class ResolvedJob:
    """A fully resolved, picklable unit of work.

    Everything a pool worker needs travels in here; ``key`` and
    ``group`` are content hashes (see module docstring).
    """

    id: str
    client: str
    kind: str
    name: str
    workload: str | None
    program_text: str | None
    model: str | None
    seed: int | None
    config: MachineConfig | None
    memory_words: tuple[tuple[int, int], ...]
    chaos: tuple[tuple[str, object], ...]
    policy: str = "committed"  # taint policy (security jobs only)
    key: str = field(default="", compare=False)
    group: str = field(default="", compare=False)

    def chaos_extra(self, name: str, default=None):
        return dict(self.chaos).get(name, default)


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise ProtocolError(reason)


def parse_request(line: str | dict) -> JobSpec:
    """Parse one request line into a :class:`JobSpec`.

    Every failure mode raises :class:`ProtocolError` with the reason the
    response should carry -- a malformed line costs one rejection, never
    the connection.
    """
    if isinstance(line, str):
        try:
            document = json.loads(line)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"not JSON ({error})") from error
    else:
        document = line
    _require(isinstance(document, dict), "request must be a JSON object")
    job_id = document.get("id")
    _require(
        isinstance(job_id, str) and 0 < len(job_id) <= 128,
        "request needs a string 'id' (<= 128 chars)",
    )
    client = document.get("client", "anonymous")
    _require(isinstance(client, str) and client != "", "'client' must be a non-empty string")
    kind = document.get("kind", "simulate")
    _require(kind in JOB_KINDS, f"unknown kind {kind!r} (expected one of {JOB_KINDS})")

    workload = document.get("workload")
    program_text = document.get("program")
    if kind in ("simulate", "security"):
        _require(
            (workload is None) != (program_text is None),
            f"a {kind} job needs exactly one of 'workload' or 'program'",
        )
        if workload is not None:
            _require(isinstance(workload, str), "'workload' must be a string")
        if program_text is not None:
            _require(isinstance(program_text, str), "'program' must be a string")
    model = document.get("model", "region_pred")
    _require(
        model == "scalar" or model in MODEL_NAMES,
        f"unknown model {model!r} (expected 'scalar' or one of {MODEL_NAMES})",
    )
    if kind == "security":
        _require(
            model != "scalar",
            "a security job taint-checks the VLIW machine; "
            "pick a compiled model, not 'scalar'",
        )
    policy = document.get("policy", "committed")
    _require(
        policy in JOB_POLICIES,
        f"unknown taint policy {policy!r} (expected one of {JOB_POLICIES})",
    )
    seed = document.get("seed")
    _require(
        seed is None or isinstance(seed, int),
        "'seed' must be an integer",
    )

    overrides = document.get("config", {})
    _require(isinstance(overrides, dict), "'config' must be an object")
    valid_fields = {f.name for f in dataclasses.fields(MachineConfig)}
    for name in overrides:
        _require(
            name in valid_fields,
            f"unknown machine config field {name!r}",
        )

    memory = document.get("memory", {})
    _require(isinstance(memory, dict), "'memory' must be an object")
    try:
        memory_words = tuple(
            sorted((int(a), int(v)) for a, v in memory.items())
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"'memory' must map addresses to integers ({error})"
        ) from error

    chaos = document.get("chaos", {})
    _require(isinstance(chaos, dict), "'chaos' must be an object")
    if kind == "chaos":
        mode = chaos.get("mode", "ok")
        _require(
            mode in ("ok", "raise", "hang", "kill", "wait_for"),
            f"unknown chaos mode {mode!r}",
        )

    return JobSpec(
        id=job_id,
        client=client,
        kind=kind,
        workload=workload,
        program_text=program_text,
        model=model,
        seed=seed,
        config_overrides=tuple(sorted(overrides.items())),
        memory_words=memory_words,
        chaos=tuple(sorted(chaos.items())),
        policy=policy,
    )


def _job_digest(payload: dict) -> str:
    blob = json.dumps(
        canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_request(spec: JobSpec) -> ResolvedJob:
    """Resolve names to content and compute the job's identity keys.

    A workload name is resolved to its *program text* and seeds here, in
    the parent, so the key honours the cache discipline: renaming a
    workload does not fake a hit, and editing its program is a miss.
    """
    if spec.kind == "chaos":
        group_payload = {
            "version": JOB_KEY_VERSION,
            "kind": "chaos",
            "chaos": dict(spec.chaos),
        }
        group = _job_digest(group_payload)
        return ResolvedJob(
            id=spec.id,
            client=spec.client,
            kind="chaos",
            name=f"chaos-{dict(spec.chaos).get('mode', 'ok')}",
            workload=None,
            program_text=None,
            model=None,
            seed=None,
            config=None,
            memory_words=(),
            chaos=spec.chaos,
            key=group,
            group=group,
        )

    model = MODEL_ALIASES.get(spec.model, spec.model)
    try:
        config = MachineConfig(**dict(spec.config_overrides))
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad machine config: {error}") from error

    if spec.workload is not None:
        from repro.isa.printer import format_program
        from repro.workloads import get_workload

        try:
            workload = get_workload(spec.workload)
        except KeyError as error:
            raise ProtocolError(
                f"unknown workload {spec.workload!r}"
            ) from error
        program_text = format_program(workload.program)
        name = workload.name
        seed = spec.seed if spec.seed is not None else workload.eval_seed
        train = {"workload": workload.name, "train_seed": workload.train_seed}
    else:
        from repro.isa.parser import ParseError, parse_program
        from repro.isa.printer import format_program

        try:
            program = parse_program(spec.program_text, name=f"inline-{spec.id}")
        except ParseError as error:
            raise ProtocolError(f"bad program: {error}") from error
        program_text = format_program(program)
        name = "inline"
        seed = spec.seed
        train = {"memory": dict(spec.memory_words)}

    group_payload = {
        "version": JOB_KEY_VERSION,
        "kind": spec.kind,
        "program": program_text,
        "model": model,
        "config": canonical(config),
        "train": train,
    }
    group = _job_digest(group_payload)
    key_payload = {
        "group": group,
        "seed": seed,
        "memory": dict(spec.memory_words),
    }
    if spec.kind == "security":
        # The taint policy changes the result (strict adds predicate
        # leaks), so it is part of the job's identity.
        key_payload["policy"] = spec.policy
    key = _job_digest(key_payload)
    return ResolvedJob(
        id=spec.id,
        client=spec.client,
        kind=spec.kind,
        name=name,
        workload=spec.workload,
        program_text=None if spec.workload is not None else program_text,
        model=model,
        seed=seed,
        config=config,
        memory_words=spec.memory_words,
        chaos=(),
        policy=spec.policy,
        key=key,
        group=group,
    )


# ----------------------------------------------------------------------
# Journal payload round-trip (the write-ahead "accepted" record must
# reconstruct the job after a server restart).
# ----------------------------------------------------------------------
def job_to_payload(job: ResolvedJob) -> dict:
    """JSON-native form of a resolved job for the accept record."""
    return {
        "id": job.id,
        "client": job.client,
        "kind": job.kind,
        "name": job.name,
        "workload": job.workload,
        "program": job.program_text,
        "model": job.model,
        "seed": job.seed,
        "config": None if job.config is None else canonical(job.config),
        "memory": {str(a): v for a, v in job.memory_words},
        "chaos": dict(job.chaos),
        "policy": job.policy,
        "key": job.key,
        "group": job.group,
    }


def job_from_payload(payload: dict) -> ResolvedJob:
    """Rebuild a resolved job from its journaled accept record."""
    config = payload.get("config")
    return ResolvedJob(
        id=payload["id"],
        client=payload["client"],
        kind=payload["kind"],
        name=payload["name"],
        workload=payload.get("workload"),
        program_text=payload.get("program"),
        model=payload.get("model"),
        seed=payload.get("seed"),
        config=None if config is None else MachineConfig(**config),
        memory_words=tuple(
            sorted((int(a), v) for a, v in payload.get("memory", {}).items())
        ),
        chaos=tuple(sorted(payload.get("chaos", {}).items())),
        policy=payload.get("policy", "committed"),
        key=payload["key"],
        group=payload["group"],
    )


# ----------------------------------------------------------------------
# Responses.
# ----------------------------------------------------------------------
def response_ok(job_id: str, key: str, result: dict) -> dict:
    return {
        "schema": SERVE_SCHEMA,
        "id": job_id,
        "status": "ok",
        "key": key,
        "result": result,
    }


def response_error(
    job_id: str, key: str | None, error_type: str, message: str, attempts: int
) -> dict:
    return {
        "schema": SERVE_SCHEMA,
        "id": job_id,
        "status": "error",
        "key": key,
        "error": {
            "type": error_type,
            "message": message,
            "attempts": attempts,
        },
    }


def response_overloaded(job_id: str, *, pending: int, limit: int) -> dict:
    """Deterministic load shedding: the queue is full, come back later."""
    return {
        "schema": SERVE_SCHEMA,
        "id": job_id,
        "status": "overloaded",
        "reason": f"queue full ({pending}/{limit} jobs pending)",
        "retry": True,
    }


def response_rejected(job_id: str | None, reason: str) -> dict:
    return {
        "schema": SERVE_SCHEMA,
        "id": job_id,
        "status": "rejected",
        "reason": reason,
    }


def dumps_response(response: dict) -> str:
    """Canonical one-line serialization (deterministic bytes)."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))
