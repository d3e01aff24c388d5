"""Universal coefficients extracted from template sums.

Everything in this module is an exact rational at a fixed cogenus.  The
five linear-form coefficients A, L, H, D and C are sums over the
templates, each reading a template's fitted form only through its four
moments eta0, zeta0, zeta1 and zeta2; _sum_templates is the one place
that sums them.  The closed count is the linear form A*area + L*ll +
H*height + D*idet + C in the width statistics (_linear_part), plus the
end-of-range correction DiffQ at each end vertex and the b terms.  DiffQ
is the log-side width-sequence sum at p*(0..delta) less that same linear
form there; the log-side sum reads no template: it is the log of the
direct transfer's counts (orderings._chains).  template_data asks
orderings.fit_templates for a cogenus's forms, the one fit step, and keeps
them in memory and on disk, one hash-stamped JSON file per cogenus holding
each template's edges and moments, so a process fits only what no earlier
process has.  _template_sums keeps its five sums the same way, in a second
small file per cogenus, so a process that reads them builds no template.
template_rows is the template table built from template_data, one row at a
time: what `longedge templates` prints and the table1 suite checks.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .graphs import Template, check_cogenus, enumerate_templates
from .orderings import BetaSeq, LinearForm, _chains, fit_templates
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


CACHE_VERSION = 3
_disk_cache = True

TemplateData = tuple[tuple[Template, LinearForm], ...]
_T = TypeVar("_T")
_I = TypeVar("_I")


def use_disk_cache(enabled: bool) -> None:
    """Turn reads and writes of the on-disk template cache on or off."""
    global _disk_cache
    _disk_cache = enabled


def _cache_path(kind: str, delta: int) -> Path:
    directory = os.environ.get("LONGEDGE_CACHE_DIR")
    if not directory:
        xdg = os.environ.get("XDG_CACHE_HOME")
        directory = (Path(xdg) if xdg else Path.home() / ".cache") / "longedge"
    return Path(directory) / f"{kind}-v{CACHE_VERSION}-delta{delta}.json"


# One encoder for every cache row: json.dumps with these arguments would
# build a new one per call, and _store encodes each row twice.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _frame(
    kind: str, delta: int, body: Iterable, digest: str | None = None
) -> Iterator[str]:
    """A cache file's canonical JSON text, one piece per body item:
    {"delta":..,"hash":..,"<kind>":[..],"version":..}, its members in key
    order ("sums" and "templates" both sort between "hash" and "version").
    Without a digest it is the text that the hash is taken of."""
    yield f'{{"delta":{delta},'
    if digest is not None:
        yield f'"hash":"{digest}",'
    yield f'"{kind}":['
    for at, item in enumerate(body):
        yield f",{_canonical_json(item)}" if at else _canonical_json(item)
    yield f'],"version":{CACHE_VERSION}}}'


def _digest(pieces: Iterable[str]) -> str:
    # SHA-256 from CPython's own module, as random.py takes SHA-512: hashlib
    # maps OpenSSL's libcrypto, about 3.5 MB resident, to hash a few kB.
    # hashlib is the fallback for an interpreter built without that module.
    # Imported here, so a process that never touches the cache loads neither.
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    digest = sha256()
    for piece in pieces:
        digest.update(piece.encode())
    return digest.hexdigest()


def _edge_rows(t: Template) -> list[list[int]]:
    return [[e.lo, e.hi, e.weight] for e in t.edges]


def _cache_row(entry: tuple[Template, LinearForm]) -> dict:
    """A template file's row: the template's edges and its moments as
    rational strings; _read_templates reads it back."""
    t, form = entry
    return {"edges": _edge_rows(t), "moments": [str(m) for m in form]}


def _rationals(values: object, n: int) -> tuple[Fraction, ...]:
    """n rational strings; a JSON number would put a float into the sums."""
    if not isinstance(values, list) or list(map(type, values)) != [str] * n:
        raise ValueError(f"not {n} rational strings")
    return tuple(map(Fraction, values))


def _read_templates(rows: list, delta: int) -> TemplateData | None:
    """The template file's body; None unless its templates are this
    cogenus's templates in canonical order."""
    templates = enumerate_templates(delta)
    if [row["edges"] for row in rows] != [_edge_rows(t) for t in templates]:
        return None
    return tuple(
        (t, LinearForm(*_rationals(row["moments"], 4)))
        for t, row in zip(templates, rows)
    )


def _read_sums(values: list, delta: int) -> tuple[Fraction, ...] | None:
    """The sums file's body, (A, L, H, D, C); None unless H = 0."""
    sums = _rationals(values, 5)
    return sums if sums[2] == 0 else None


def _load(kind: str, delta: int, read: Callable[[list, int], _T | None]) -> _T | None:
    """One cogenus's cached payload of this kind, its body checked by read;
    None for a missing, stale, tampered or malformed file, or one nested
    too deeply to parse."""
    try:
        raw = json.loads(_cache_path(kind, delta).read_text())
        fresh = (
            isinstance(raw, dict)
            and raw.keys() == {"delta", "hash", kind, "version"}
            and raw["version"] == CACHE_VERSION
            and raw["delta"] == delta
            and isinstance(raw[kind], list)
            and raw["hash"] == _digest(_frame(kind, delta, raw[kind]))
        )
        return read(raw[kind], delta) if fresh else None
    except (OSError, KeyError, TypeError, ValueError, RecursionError):
        return None


def _store(
    kind: str, delta: int, items: Sequence[_I], encode: Callable[[_I], object]
) -> None:
    """Write one cogenus's payload of this kind atomically, its body the
    items encoded one at a time: once to hash the body and once to write
    it, so no more than one item's text is held at once.  An unusable
    directory skips the write."""
    digest = _digest(_frame(kind, delta, map(encode, items)))
    path = _cache_path(kind, delta)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=path.name, suffix=".tmp", delete=False
        )
    except OSError:
        return
    try:
        with tmp:
            tmp.writelines(_frame(kind, delta, map(encode, items), digest))
        os.replace(tmp.name, path)
        # files of other cache versions are never read again
        for stale in path.parent.glob(f"{kind}-v*-delta{delta}.json"):
            if stale != path:
                stale.unlink()
    except OSError:
        Path(tmp.name).unlink(missing_ok=True)


@lru_cache(maxsize=None)
def template_data(delta: int) -> TemplateData:
    """Templates of one cogenus with their fitted linear forms; none below
    cogenus 1.

    Kept in memory and in the on-disk cache; fitted only on a miss.
    """
    if delta < 1:
        return ()
    data = _load("templates", delta, _read_templates) if _disk_cache else None
    if data is None:
        templates = enumerate_templates(delta)
        data = tuple(zip(templates, fit_templates(templates)))
        if _disk_cache:
            _store("templates", delta, data, _cache_row)
    return data


# the template table's columns, in the order `longedge templates` prints them
TEMPLATE_COLUMNS = (
    "edges", "delta", "ell", "mu", "eps0", "eps1", "lam", "olam",
    "zeta0", "zeta1", "zeta2", "eta0",
)


def template_rows(delta: int) -> Iterator[dict]:
    """The template table of one cogenus, one row per template: its edges
    as [lo, hi, weight] lists, its invariants, the crossing weights lam and
    olam at gaps 1..ell, and its fitted form's moments as exact Fractions.

    The templates are fitted or loaded at the call; each row is built when
    it is read, so a caller that prints the rows holds one at a time."""
    return map(_template_row, template_data(delta))


def _template_row(entry: tuple[Template, LinearForm]) -> dict:
    t, (eta0, zeta0, zeta1, zeta2) = entry
    gaps = range(1, t.length + 1)
    values = (
        _edge_rows(t), t.cogenus, t.length, t.multiplicity, t.epsilon0, t.epsilon1,
        [t.lambda_(j) for j in gaps], [t.olambda(j) for j in gaps],
        zeta0, zeta1, zeta2, eta0,
    )
    return dict(zip(TEMPLATE_COLUMNS, values))


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

    Kept in memory and on disk, five rational strings per cogenus, so a
    process that has them builds no template; summed from template_data
    only on a miss.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    sums = _load("sums", delta, _read_sums) if _disk_cache else None
    if sums is None:
        sums = _sum_templates(delta, template_data(delta))
        if _disk_cache:
            _store("sums", delta, sums, str)
    return sums


def _sum_templates(delta: int, data: TemplateData) -> tuple[Fraction, ...]:
    """(A, L, H, D, C) summed over the templates of one cogenus.

    Summed in integers: every moment over den, the lcm of the cogenus's
    moment denominators, with one division per sum at the end.
    """
    den = lcm(*(m.denominator for _, form in data for m in form))
    # a and l are summed without their factor 1/2, applied at the end
    a = l = h = d = c = 0
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
    # the other formula for L is half the sum of the mu * eta0 terms; that
    # sum less 2L is exactly H, so the two formulas agree if and only if H = 0
    if h:
        raise ArithmeticError(
            f"H = {Fraction(h, den)} at delta={delta}, not 0: "
            "the two formulas for L disagree"
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
    bp = b_coeffs(delta, p)
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
