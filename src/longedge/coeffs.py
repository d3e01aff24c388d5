"""Universal coefficients extracted from template sums.

Everything in this module is an exact rational derived from the templates of
a fixed cogenus: the log-side width-sequence sums, their linearization, the
five linear-form coefficients, the end-of-range correction DiffQ, and the
singular corrections COR and COR''.  The fitted templates behind them are
also kept on disk, one hash-stamped JSON file per cogenus, so a process fits
only what no earlier process has.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .graphs import Template, check_cogenus, conjugate, enumerate_templates
from .orderings import LinearForm, _scaled_phis, check_linear_form, fit_linear_phi
from .series import RatSeries, sigma


@dataclass(frozen=True)
class CoeffTable:
    delta: int
    A: Fraction
    L: Fraction
    H: Fraction
    D: Fraction
    C: Fraction
    Ctilde: Fraction
    b: tuple[Fraction, ...]  # b[i-1] is the weight of v'_i, 1 <= i <= delta

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "A": str(self.A),
            "L": str(self.L),
            "H": str(self.H),
            "D": str(self.D),
            "C": str(self.C),
            "Ctilde": str(self.Ctilde),
            "b": [str(v) for v in self.b],
        }


CACHE_VERSION = 2
_disk_cache = True

TemplateData = tuple[tuple[Template, LinearForm], ...]


def use_disk_cache(enabled: bool) -> None:
    """Turn reads and writes of the on-disk template cache on or off."""
    global _disk_cache
    _disk_cache = enabled


def _cache_path(delta: int) -> Path:
    directory = os.environ.get("LONGEDGE_CACHE_DIR")
    if not directory:
        xdg = os.environ.get("XDG_CACHE_HOME")
        directory = (Path(xdg) if xdg else Path.home() / ".cache") / "longedge"
    return Path(directory) / f"templates-v{CACHE_VERSION}-delta{delta}.json"


def _canonical_json(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    # hashlib loads OpenSSL (about 4 MB resident): only a process that uses
    # the cache pays for it, not one that runs only the direct route.
    import hashlib

    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def _edge_rows(t: Template) -> list[list[int]]:
    return [[e.lo, e.hi, e.weight] for e in t.edges]


def _load_templates(delta: int) -> TemplateData | None:
    """The cached templates of one cogenus; None for a missing, stale,
    tampered or malformed file, or one whose templates are not this
    cogenus's templates in canonical order."""
    try:
        raw = json.loads(_cache_path(delta).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(raw, dict):
        return None
    digest = raw.pop("hash", None)
    if raw.get("version") != CACHE_VERSION or raw.get("delta") != delta:
        return None
    if digest != _digest(raw):
        return None
    templates = enumerate_templates(delta)
    data = []
    try:
        rows = raw["templates"]
        if [row["edges"] for row in rows] != [_edge_rows(t) for t in templates]:
            return None
        for t, row in zip(templates, rows):
            eta = tuple(Fraction(c) for c in row["eta"])
            if len(eta) != t.length + 1:
                return None
            data.append((t, LinearForm(eta, minv=t.minv)))
    except (KeyError, TypeError, ValueError):
        return None
    return tuple(data)


def _store_templates(delta: int, data: TemplateData) -> None:
    """Write one cogenus atomically; an unusable directory skips the write."""
    rows = [
        {
            "edges": _edge_rows(t),
            "eta": [str(c) for c in form.eta],
        }
        for t, form in data
    ]
    payload = {"version": CACHE_VERSION, "delta": delta, "templates": rows}
    path = _cache_path(delta)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=path.name, suffix=".tmp", delete=False
        )
    except OSError:
        return
    try:
        with tmp:
            tmp.write(_canonical_json({**payload, "hash": _digest(payload)}))
        os.replace(tmp.name, path)
        # files of other cache versions are never read again
        for stale in path.parent.glob(f"templates-v*-delta{delta}.json"):
            if stale != path:
                stale.unlink()
    except OSError:
        Path(tmp.name).unlink(missing_ok=True)


@lru_cache(maxsize=None)
def template_data(delta: int) -> TemplateData:
    """Templates of one cogenus with their fitted linear forms.

    Kept in memory and in the on-disk cache; fitted only on a miss.
    """
    data = _load_templates(delta) if _disk_cache else None
    if data is None:
        data = _fit_templates(delta)
        if _disk_cache:
            _store_templates(delta, data)
    return data


def _fit_templates(delta: int) -> TemplateData:
    """Fit the first template of each conjugate pair met in canonical order;
    the other takes the reflected form, checked at the fit's probe widths."""
    forms: dict[Template, LinearForm] = {}
    for t in enumerate_templates(delta):
        mirror = forms.get(conjugate(t))
        if mirror is None:
            forms[t] = fit_linear_phi(t)
        else:
            eta = mirror.eta
            forms[t] = LinearForm((eta[0], *reversed(eta[1:])))
            check_linear_form(t, forms[t])
    return tuple(forms.items())


def q_beta_delta(beta: Sequence[int], delta: int) -> Fraction:
    """Log-transformed ordering sum over shifted templates, evaluated exactly."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    beta = tuple(beta)
    m = len(beta) - 1
    total = Fraction(0)
    for t, _ in template_data(delta):
        # t shifted by k >= 0 against beta is t against beta[k:]: the
        # non-strict count reads only the widths under the graph
        scale, terms = _scaled_phis(t, [beta[k:] for k in t.shifts(m)])
        total += Fraction(t.multiplicity * sum(terms), scale)
    return total


def q_delta_linearized(beta: Sequence[int], delta: int) -> Fraction:
    """Same template sum with every term replaced by its fitted linear form."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    beta = tuple(beta)
    m = len(beta) - 1
    total = Fraction(0)
    for t, form in template_data(delta):
        ell = t.length
        acc = Fraction(0)
        for k in t.shifts(m):
            acc += form.evaluate(beta[k : k + ell])
        total += t.multiplicity * acc
    return total


@lru_cache(maxsize=None)
def _template_sums(delta: int) -> tuple[Fraction, ...]:
    """(A, L, H, D, C) for one cogenus, before the b column exists."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    # a, l and l_alt are summed without their factor 1/2, applied at the end
    a = l = h = d = c = l_alt = Fraction(0)
    for t, form in template_data(delta):
        mu = t.multiplicity
        ends = t.length - t.epsilon0 - t.epsilon1
        eta0, zeta0 = mu * form.eta[0], mu * form.zeta0
        spread = zeta0 * ends
        a += zeta0
        l -= spread
        h += eta0 + spread
        d -= mu * (form.zeta2 + form.zeta1 * (1 - t.epsilon0))
        c -= eta0 * ends
        l_alt += eta0
    a, l, l_alt = a / 2, l / 2, l_alt / 2
    if l != l_alt:
        raise ArithmeticError(
            f"the two formulas for L disagree at delta={delta}: {l} vs {l_alt}"
        )
    return a, l, h, d, c


@lru_cache(maxsize=None)
def template_coefficients(delta: int) -> CoeffTable:
    """The five universal sums over templates of one cogenus, plus the b column."""
    a, l, h, d, c = _template_sums(delta)
    b = tuple(b_coeffs(delta, i) for i in range(1, delta + 1))
    return CoeffTable(
        delta=delta, A=a, L=l, H=h, D=d, C=c, Ctilde=c - 4 * d - 4 * b[0], b=b
    )


def a_series(order: int) -> RatSeries:
    """exp(-2 sum A(d) t^d), the exponential of the leading coefficients."""
    if order < 1:
        raise ValueError("order must be >= 1")
    check_cogenus(order)
    body = RatSeries(
        [Fraction(0)] + [-2 * _template_sums(d)[0] for d in range(1, order + 1)]
    )
    return body.exp()


@lru_cache(maxsize=None)
def b_coeffs(delta: int, i: int) -> Fraction:
    """Weight of the count of internal vertices of determinant i at cogenus delta."""
    if not 1 <= i:
        raise ValueError("i must be >= 1")
    if i > delta:
        return Fraction(0)
    g = a_series(delta).shift(1)  # t * A(t)
    g_i = RatSeries.one(delta)
    for _ in range(i):
        g_i = g_i * g
    total = Fraction(0)
    power = RatSeries.one(delta)
    for n in range(1, delta // i + 1):
        power = power * g_i  # g^(i*n)
        total += Fraction(sigma(n), n) * power[delta]
    return total


@lru_cache(maxsize=None)
def diffq(p: int, delta: int) -> Fraction:
    """Deviation of the true sum from its linearization at widths p*(0,1,...,delta)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return Fraction(0)
    beta = tuple(p * j for j in range(delta + 1))
    return q_beta_delta(beta, delta) - q_delta_linearized(beta, delta)


def cor(p: int, delta: int) -> Fraction:
    """Correction attached to a top or bottom vertex of determinant p."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return Fraction(0)
    tab = template_coefficients(delta)
    b1 = tab.b[0]
    bp = tab.b[p - 1] if p <= delta else Fraction(0)
    return (
        (2 - p) * tab.D
        + diffq(p, delta)
        + 2 * b1
        - bp
        - Fraction(tab.Ctilde, 6) * Fraction((p - 1) * (p - 2), p)
    )


def cor_doubleprime(p: int) -> Fraction:
    """Euler-characteristic defect of a cyclic quotient point of index p."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return Fraction(0)
    return Fraction(2 * (p - 1) * (p - 2), p)
