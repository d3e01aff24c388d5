"""Universal coefficients extracted from template sums.

Everything in this module is an exact rational at a fixed cogenus.  The
five linear-form coefficients A, L, H, D and C are sums over the
templates, each reading a template's fitted form only through its four
moments eta0, zeta0, zeta1 and zeta2; _template_sums is the one place
that sums them.  The closed count is the linear form A*area + L*ll +
H*height + D*idet + C in the width statistics (_linear_part), plus the
end-of-range correction DiffQ at each end vertex and the b terms.  DiffQ
is the log-side width-sequence sum at p*(0..delta) less that same linear
form there; the log-side sum reads no template: it is the log of the
direct transfer's counts (orderings._chains).  The fitted templates are
also kept on disk, one hash-stamped JSON file per cogenus holding each
template's edges and moments, so a process fits only what no earlier
process has.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path
from typing import NamedTuple, Sequence

from .graphs import Template, check_cogenus, conjugate, enumerate_templates
from .orderings import BetaSeq, LinearForm, _chains, _check, _divided, _fit, _FitTable
from .polygon import BetaStats, PolygonStats, beta_stats
from .series import RatSeries, sigma


class CoeffTable(NamedTuple):
    delta: int
    A: Fraction
    L: Fraction
    H: Fraction
    D: Fraction
    C: Fraction
    Ctilde: Fraction
    b: tuple[Fraction, ...]  # b[i-1] is the weight of v'_i, 1 <= i <= delta

    def as_dict(self) -> dict:
        row = {name: str(value) for name, value in self._asdict().items()}
        return {**row, "delta": self.delta, "b": [str(v) for v in self.b]}


CACHE_VERSION = 3
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
            moments = row["moments"]
            # four strings: a JSON number would put a float into the sums
            if not isinstance(moments, list) or list(map(type, moments)) != [str] * 4:
                return None
            data.append((t, LinearForm(*map(Fraction, moments))))
    except (KeyError, TypeError, ValueError):
        return None
    return tuple(data)


def _store_templates(delta: int, data: TemplateData) -> None:
    """Write one cogenus atomically; an unusable directory skips the write."""
    rows = [
        {"edges": _edge_rows(t), "moments": [str(m) for m in form]}
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
    the other takes the reflected moments, checked at the fit's probe widths.
    All of them read P from one column table, the only place P is kept,
    which goes when the fit returns; the moments stay integers, times their
    plan's scale, until the end: a template and its conjugate have as many
    edges, so one scale."""
    templates = enumerate_templates(delta)
    table = _FitTable(delta, max(t.length for t in templates))
    scaled: dict[Template, tuple[int, LinearForm]] = {}
    for t in templates:
        mirror = scaled.get(conjugate(t))
        if mirror is None:
            scaled[t] = _fit(t, table)
        else:
            scale, moments = mirror
            scaled[t] = scale, moments.reflected(t.length)
            _check(t, scaled[t][1], table)
    return tuple((t, _divided(*form)) for t, form in scaled.items())


def q_beta_delta(beta: Sequence[int], delta: int) -> Fraction:
    """The log-side sum: mu * phi_beta of every template at every shift the
    end rule admits.  phi is the log coefficient of the ordering generating
    function and vanishes off shifted templates, so the sum is [t^delta] of
    log(sum_r N_r t^r), N_r the direct count of cogenus r at the widths beta
    (Block, "Computing node polynomials for plane curves", 2011): one
    transfer (_chains), with no template, fit or log plan read."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    check_cogenus(delta)
    try:
        beta = BetaSeq(beta)
    except TypeError:
        raise ValueError(f"widths must be integers, got {beta!r}") from None
    return RatSeries(_chains(beta, delta)).log()[delta]


@lru_cache(maxsize=None)
def _template_sums(delta: int) -> tuple[Fraction, ...]:
    """(A, L, H, D, C) for one cogenus, before the b column exists.

    Summed in integers: every moment over den, the lcm of the cogenus's
    moment denominators, with one division per sum at the end.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    data = template_data(delta)
    den = lcm(*(m.denominator for _, form in data for m in form))
    # a, l and l_alt are summed without their factor 1/2, applied at the end
    a = l = h = d = c = l_alt = 0
    for t, form in data:
        mu = t.multiplicity
        eta0, zeta0, zeta1, zeta2 = (
            mu * m.numerator * (den // m.denominator) for m in form
        )
        ends = t.length - t.epsilon0 - t.epsilon1
        spread = zeta0 * ends
        a += zeta0
        l -= spread
        h += eta0 + spread
        d -= zeta2 + zeta1 * (1 - t.epsilon0)
        c -= eta0 * ends
        l_alt += eta0
    if l != l_alt:
        raise ArithmeticError(
            f"the two formulas for L disagree at delta={delta}: "
            f"{Fraction(l, 2 * den)} vs {Fraction(l_alt, 2 * den)}"
        )
    return (
        Fraction(a, 2 * den),
        Fraction(l, 2 * den),
        Fraction(h, den),
        Fraction(d, den),
        Fraction(c, den),
    )


def _linear_part(delta: int, stats: BetaStats | PolygonStats) -> Fraction:
    """A*area + L*ll + H*height + D*idet + C at one cogenus: the closed
    count's linear form in the width statistics."""
    a, l, h, d, c = _template_sums(delta)
    return a * stats.area + l * stats.ll + h * stats.height + d * stats.idet + c


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
    """Deviation of the true sum from its linearization at widths p*(0,1,...,delta).

    The true sum is q_beta_delta, from the direct transfer; the
    linearization is the closed count's linear form at those widths' stats.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return Fraction(0)
    beta = tuple(p * j for j in range(delta + 1))
    return q_beta_delta(beta, delta) - _linear_part(delta, beta_stats(beta))


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
