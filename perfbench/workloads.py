"""Workload inputs and checks, owned by the benchmark.

The hot-path policy set and request stream are copied from
``benchmarks/bench_hotpath_regression.py`` so that a later edit to that
script cannot change the ``strict-hotpath`` and ``wire-v2-audited``
workloads.  Rate ladders and latency limits are read from the ``why``
line of each workload in ``BENCHMARK.json``, so the file that defines
the benchmark also fixes its load; nothing here derives a rate from a
measurement.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Iterator

from repro.core import (
    MMEP,
    MMER,
    ContextName,
    DecisionRequest,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    Step,
)

# ---------------------------------------------------------------------------
# Load constants from BENCHMARK.json
# ---------------------------------------------------------------------------
_LADDER = re.compile(r"ladder ([0-9/]+) rps")
_REFERENCE = re.compile(r"ref (\d+) rps")
_LIMIT = re.compile(r"p99<=(\d+(?:\.\d+)?)ms")


@dataclass(frozen=True)
class LoadSpec:
    """One workload's fixed offered load: rate ladder, reference rate
    (where an open-loop workload reports p50/p99; the top of the ladder
    when unstated) and the p99 latency limit."""

    ladder: tuple[int, ...]
    reference: int
    limit_ms: float


def load_spec(benchmark_path: str, workload: str) -> LoadSpec:
    with open(benchmark_path, encoding="utf-8") as handle:
        definition = json.load(handle)
    for entry in definition["workloads"]:
        if entry["name"] == workload:
            why = entry["why"]
            break
    else:
        raise KeyError(f"workload {workload!r} is not in {benchmark_path}")
    ladder = _LADDER.search(why)
    reference = _REFERENCE.search(why)
    limit = _LIMIT.search(why)
    if not (ladder and limit):
        raise ValueError(
            f"{workload}: 'why' must state 'ladder A/B/C rps' and "
            f"'p99<=Lms' (and optionally 'ref R rps'): {why!r}"
        )
    rates = tuple(int(rate) for rate in ladder.group(1).split("/"))
    spec = LoadSpec(
        rates,
        int(reference.group(1)) if reference else rates[-1],
        float(limit.group(1)),
    )
    if list(rates) != sorted(rates):
        raise ValueError(f"{workload}: the ladder must ascend")
    return spec


# ---------------------------------------------------------------------------
# Hot-path workload: 50 policies (MMER + MMEP + first/last step), 200 users
# ---------------------------------------------------------------------------
N_DEPTS = 10
HOTPATH_USERS = 200


def _dept_roles(dept: int) -> list[Role]:
    return [Role("employee", f"D{dept}-R{index}") for index in range(4)]


def _dept_privileges(dept: int) -> list[Privilege]:
    return [Privilege(f"op{index}", f"res://d{dept}/t{index}") for index in range(4)]


def hotpath_policy_set() -> MSoDPolicySet:
    """50 policies: per business process, five mixed MMER/MMEP shapes."""
    policies = []
    for dept in range(N_DEPTS):
        roles = _dept_roles(dept)
        privileges = _dept_privileges(dept)
        lead = f"Dept{dept}"
        policies.append(MSoDPolicy(
            ContextName.parse(f"{lead}=*, Case=!"),
            mmers=[MMER(roles[:3], 2)],
            policy_id=f"d{dept}-mmer-case",
        ))
        policies.append(MSoDPolicy(
            ContextName.parse(f"{lead}=!"),
            mmeps=[MMEP(privileges[:3], 2)],
            policy_id=f"d{dept}-mmep-unit",
        ))
        policies.append(MSoDPolicy(
            ContextName.parse(f"{lead}=*"),
            mmers=[MMER(roles[1:], 2)],
            mmeps=[MMEP(privileges[1:], 3)],
            policy_id=f"d{dept}-mixed",
        ))
        policies.append(MSoDPolicy(
            ContextName.parse(f"{lead}=*, Case=*"),
            mmeps=[MMEP([privileges[0], privileges[0]], 2)],
            policy_id=f"d{dept}-mmep-cap",
        ))
        policies.append(MSoDPolicy(
            ContextName.parse(f"{lead}=!, Case=!"),
            mmers=[MMER(roles, 3)],
            first_step=Step("open", f"res://d{dept}/case"),
            last_step=Step("close", f"res://d{dept}/case"),
            policy_id=f"d{dept}-bracketed",
        ))
    return MSoDPolicySet(policies)


def hotpath_stream(n_requests: int, seed: int, n_users: int = HOTPATH_USERS) -> Iterator[DecisionRequest]:
    """Seeded mixed traffic: MMER conflicts, MMEP repeats, open/close.

    Request ids are the stream index, so two replays of one seed carry
    identical requests (and identical retained records).
    """
    rng = random.Random(seed)
    home_role: dict[tuple[str, int], int] = {}
    for index in range(n_requests):
        user = f"u{rng.randrange(n_users):04d}"
        dept = rng.randrange(N_DEPTS)
        unit = rng.randrange(4)
        case = rng.randrange(8)
        context = ContextName.parse(f"Dept{dept}=unit{unit}, Case=c{case}")
        roles = _dept_roles(dept)
        privileges = _dept_privileges(dept)
        home = home_role.setdefault((user, dept), rng.randrange(len(roles)))
        role_index = home if rng.random() < 0.8 else rng.randrange(len(roles))
        draw = rng.random()
        if draw < 0.04:
            operation, target = "open", f"res://d{dept}/case"
        elif draw < 0.06:
            operation, target = "close", f"res://d{dept}/case"
        elif draw < 0.66:
            privilege = privileges[rng.randrange(len(privileges))]
            operation, target = privilege.operation, privilege.target
        else:
            operation, target = "browse", f"res://d{dept}/public"
        yield DecisionRequest(
            user_id=user,
            roles=(roles[role_index],),
            operation=operation,
            target=target,
            context_instance=context,
            timestamp=float(index),
            request_id=f"r{seed}-{index}",
        )


# ---------------------------------------------------------------------------
# Bank-scale workload: 50k users, 200k preloaded records, Zipf traffic
# ---------------------------------------------------------------------------
BANK_USERS = 50_000
BANK_HISTORY_PER_USER = 4
BANK_HOT_USERS = 500
BANK_PRELOAD_CHUNK = 4096


def bank_config(seed: int):
    from repro.workload import BankScaleConfig

    # 5% active of 50k users = 2,500 Zipf-active users (plus 2% churn
    # over the whole population): five times the 500-user hot budget.
    return BankScaleConfig(n_users=BANK_USERS, active_fraction=0.05, seed=seed)


def bank_extended_policy_set(config) -> MSoDPolicySet:
    """The base set plus duty pairs for divisions the traffic never
    touches: swapping to it and back advances the policy epoch and
    drops every store memo without changing a decision."""
    from repro.workload import bank_scale_policy_set, duty_roles

    extra = [
        MSoDPolicy(
            ContextName.parse(f"Region=*, Division=D{division:02d}, Branch=*, Period=!"),
            mmers=[MMER(list(duty_roles(division, 0)), 2)],
            policy_id=f"bank-extra-D{division}",
        )
        for division in (900, 901)
    ]
    return MSoDPolicySet(list(bank_scale_policy_set(config).policies) + extra)


def preload(store, config, after_chunk=None) -> int:
    """Write the whole population's retained history, one transaction
    per chunk, exactly as an operator's bulk import would.
    ``after_chunk(chunks_done)`` runs after each chunk."""
    from repro.workload import bank_scale_history

    history = bank_scale_history(config, BANK_HISTORY_PER_USER)
    total = chunks = 0
    while True:
        chunk = [record for _, record in zip(range(BANK_PRELOAD_CHUNK), history)]
        if not chunk:
            return total
        with store.batch():
            for record in chunk:
                store.add(record)
        total += len(chunk)
        chunks += 1
        if after_chunk is not None:
            after_chunk(chunks)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def effect_line(decision) -> bytes:
    return f"{decision.effect}|{decision.records_added}|{decision.records_purged}\n".encode()


def store_fingerprint(store) -> str:
    """Order-independent sha256 of a store's records, ignoring the
    backend-assigned record ids."""
    lines = sorted(
        f"{record.user_id}|{','.join(sorted(str(role) for role in record.roles))}|"
        f"{record.operation}|{record.target}|{record.context_instance}|"
        f"{record.request_id}|{record.granted_at!r}"
        for record in store.records()
    )
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def mmer_violations(policy_set: MSoDPolicySet, records) -> list[str]:
    """Users holding a forbidden number of one MMER's roles in one
    effective context of the retained ADI (must be none)."""
    held: dict[tuple[str, str, ContextName, int], set] = {}
    policies = [policy for policy in policy_set.policies if policy.mmers]
    for record in records:
        for policy in policies:
            if not record.context_instance.is_equal_or_subordinate_to(policy.business_context):
                continue
            effective = policy.business_context.instantiate(record.context_instance)
            for index, mmer in enumerate(policy.mmers):
                roles = set(record.roles) & set(mmer.roles)
                if roles:
                    held.setdefault((record.user_id, policy.policy_id, effective, index), set()).update(roles)
    by_policy = {policy.policy_id: policy for policy in policies}
    return [
        f"{user} holds {sorted(map(str, roles))} in {context} ({policy_id})"
        for (user, policy_id, context, index), roles in held.items()
        if len(roles) >= by_policy[policy_id].mmers[index].forbidden_cardinality
    ]
