"""Human-readable reports, which a command writes in place of its JSON
document when it is given ``--pretty``.

Each renderer reads the report document that the command has built,
the one it writes as JSON without ``--pretty``. A command imports this
module only for ``--pretty``, so no other run compiles it.
"""
from __future__ import annotations

from .metric import FORWARD


def render(doc: dict) -> str:
    """The human-readable form of a ``verify``, ``approx``, ``witness`` or
    ``classify`` report document."""
    lines = _RENDERERS[doc["command"]](doc)
    return "\n".join(lines) + "\n"


def _verify(doc: dict) -> list[str]:
    lines = []
    for section in ("cone_axioms", "metric_axioms"):
        parts = []
        for check in doc[section]["checks"]:
            mark = "ok" if check["passed"] else "FAIL"
            parts.append(f"{check['axiom']} {mark} ({check['checks']} checks)")
        lines.append(f"{section.replace('_', ' ')}: " + "; ".join(parts))
        for check in doc[section]["checks"]:
            if not check["passed"]:
                lines.append(f"  counterexample for {check['axiom']}: {check['counterexample']}")
    lines.append("all axioms hold" if doc["passed"] else "AXIOM FAILURE")
    return lines


def _approx(doc: dict) -> list[str]:
    lines = []
    for r in doc["results"]:
        tag = "P_{H_f}" if r["direction"] == FORWARD else "P_{H_b}"
        best = "{" + ", ".join(r["best"]) + "}" if r["best"] else "∅"
        lines.append(f"{tag}(q={r['q']}) = {best}")
        if r["common_distance"] is not None:
            lines.append(f"  common distance ({', '.join(r['common_distance'])})")
        front = "{" + ", ".join(r["minimal_front"]) + "}"
        stats = r["stats"]
        lines.append(
            f"  minimal front {front}; comparable pairs "
            f"{stats['comparable']}/{stats['pairs']}"
        )
    return lines


def _witness(doc: dict) -> list[str]:
    lines = [f"witness for q={doc['witness']['q']} ({doc['witness']['direction']})"]
    if "verdict" in doc:
        v = doc["verdict"]
        if v["holds"]:
            lines.append("verdict: holds")
        elif "reason" in v:
            lines.append(f"verdict: fails: {v['reason']}")
        else:
            ce = v["counterexample"]
            lines.append(
                f"verdict: fails {v['failed_condition']} at {ce['point']} "
                f"with value ({', '.join(ce['value'])})"
            )
    if "certified" in doc:
        certified = "{" + ", ".join(doc["certified"]) + "}" if doc["certified"] else "∅"
        lines.append(f"certified members: {certified}")
    return lines


def _classify(doc: dict) -> list[str]:
    lines = [f"direction: {doc['direction']}"]
    ch = doc["chebyshev"]
    if ch["holds"]:
        lines.append("Chebyshev: holds (every best set a singleton)")
    else:
        lines.append("Chebyshev: FAILS")
        for ce in ch["counterexamples"]:
            lines.append(f"  q={ce['q']}: distinct members {ce['h1']}, {ce['h2']}")
    qu = doc["quasi"]
    lines.append("quasi-Chebyshev: holds (every best set nonempty)" if qu["holds"]
                 else "quasi-Chebyshev: FAILS")
    for ce in qu["counterexamples"]:
        lines.append(f"  q={ce['q']}: {ce['reason']}")
    ps = doc["pseudo"]
    if ps["evaluated"]:
        lines.append("pseudo-Chebyshev: holds (finite scale); span ranks in census")
    lines.append("census (q: cardinality" + (", rank)" if ps["evaluated"] else ")"))
    for entry in doc["census"]:
        rank = f", {entry['rank']}" if entry["rank"] is not None else ""
        lines.append(f"  {entry['q']}: {entry['cardinality']}{rank}")
    return lines


_RENDERERS = {"verify": _verify, "approx": _approx, "witness": _witness, "classify": _classify}
