"""Test helper: parse the LP text that `tripkit.exact.write_lp` emits back into
an `IlpModel`, and compare two models, for the round-trip tests."""

from __future__ import annotations

import io

from tripkit.exact import Constraint, IlpModel


def read_lp(source: io.TextIOBase) -> IlpModel:
    """Parse the LP subset emitted by write_lp."""
    text = source.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    section = None
    objective: dict[str, float] = {}
    constraints: list[Constraint] = []
    binaries: list[str] = []
    generals: list[str] = []
    bounds: dict[str, tuple[float, float]] = {}

    def parse_terms(tokens: list[str]) -> dict[str, float]:
        coeffs: dict[str, float] = {}
        sign = 1.0
        pending: float | None = None
        for tok in tokens:
            if tok == "+":
                sign = 1.0
            elif tok == "-":
                sign = -1.0
            else:
                try:
                    pending = sign * float(tok)
                except ValueError:
                    coeffs[tok] = coeffs.get(tok, 0.0) + (pending if pending is not None else sign)
                    sign, pending = 1.0, None
        return coeffs

    for line in lines:
        low = line.lower()
        if low in ("maximize", "minimize", "subject to", "bounds", "binary", "general", "end"):
            section = low
            continue
        if section == "maximize":
            body = line.split(":", 1)[1] if ":" in line else line
            objective.update(parse_terms(body.split()))
        elif section == "subject to":
            cid, body = line.split(":", 1)
            tokens = body.split()
            for op in ("<=", ">=", "="):
                if op in tokens:
                    k = tokens.index(op)
                    constraints.append(Constraint(cid.strip(), parse_terms(tokens[:k]),
                                                  op, float(tokens[k + 1])))
                    break
        elif section == "bounds":
            lo, _, var, _, hi = line.split()
            bounds[var] = (float(lo), float(hi))
        elif section == "binary":
            binaries.append(line)
        elif section == "general":
            generals.append(line)
    n = max(int(v.split("_")[1]) for v in binaries if v.startswith("x_"))
    return IlpModel(n, objective, constraints, binaries, generals, bounds)


def models_equal(a: IlpModel, b: IlpModel, tol: float = 1e-12) -> bool:
    def normd(d):
        return {k: v for k, v in d.items() if v != 0.0}

    if a.n != b.n or set(a.binaries) != set(b.binaries) or set(a.generals) != set(b.generals):
        return False
    if normd(a.objective).keys() != normd(b.objective).keys():
        return False
    if any(abs(a.objective[k] - b.objective[k]) > tol for k in normd(a.objective)):
        return False
    if a.bounds != b.bounds:
        return False
    if len(a.constraints) != len(b.constraints):
        return False
    for ca, cb in zip(a.constraints, b.constraints):
        if ca.cid != cb.cid or ca.sense != cb.sense or abs(ca.rhs - cb.rhs) > tol:
            return False
        if normd(ca.coeffs).keys() != normd(cb.coeffs).keys():
            return False
        if any(abs(ca.coeffs[k] - cb.coeffs[k]) > tol for k in normd(ca.coeffs)):
            return False
    return True
