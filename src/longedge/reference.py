"""Hand-entered reference rows backing the verification suites.

TABLE1 lists every template of cogenus 1 and 2 with its fitted linear form.
Columns per row: edges, delta, ell, mu, eps0, eps1, lam (crossing weights at
gaps 1..ell), olam (same minus the count of exact gap edges), eta (constant
term plus one coefficient per width position), zeta0, zeta1, zeta2.  The
library keeps only eta0 and the zetas; the table1 suite rebuilds eta_1..eta_ell
from them, which is exact because no template here is longer than 3.

COEFF_ROWS freezes the universal coefficient table for cogenus 1 to 7, in the
same string form the library serializes.  Rows 4 to 6 were generated by
summing phi over set partitions of each template's edges, and row 7 by the
log recurrence over composition-walk P counts; A(7) equals the value the
series gives.  They guard every later change to how P and phi are computed.
"""

from fractions import Fraction as F

TABLE1 = [
    # delta = 1
    dict(edges=[(0, 1, 2)], delta=1, ell=1, mu=4, eps0=0, eps1=0,
         lam=(2,), olam=(1,), eta=(F(-1), F(1)),
         zeta0=F(1), zeta1=F(0), zeta2=F(0)),
    dict(edges=[(0, 2, 1)], delta=1, ell=2, mu=1, eps0=1, eps1=1,
         lam=(1, 1), olam=(1, 1), eta=(F(0), F(1), F(1)),
         zeta0=F(2), zeta1=F(1), zeta2=F(0)),
    # delta = 2
    dict(edges=[(0, 1, 3)], delta=2, ell=1, mu=9, eps0=0, eps1=0,
         lam=(3,), olam=(2,), eta=(F(-2), F(1)),
         zeta0=F(1), zeta1=F(0), zeta2=F(0)),
    dict(edges=[(0, 1, 2), (0, 1, 2)], delta=2, ell=1, mu=16, eps0=0, eps1=0,
         lam=(4,), olam=(2,), eta=(F(5, 2), F(-3, 2)),
         zeta0=F(-3, 2), zeta1=F(0), zeta2=F(0)),
    dict(edges=[(0, 2, 1), (0, 2, 1)], delta=2, ell=2, mu=1, eps0=1, eps1=1,
         lam=(2, 2), olam=(2, 2), eta=(F(1), F(-3, 2), F(-3, 2)),
         zeta0=F(-3), zeta1=F(-3, 2), zeta2=F(0)),
    dict(edges=[(0, 1, 2), (0, 2, 1)], delta=2, ell=2, mu=4, eps0=0, eps1=1,
         lam=(3, 1), olam=(2, 1), eta=(F(2), F(-2), F(-1)),
         zeta0=F(-3), zeta1=F(-1), zeta2=F(0)),
    dict(edges=[(0, 2, 1), (1, 2, 2)], delta=2, ell=2, mu=4, eps0=1, eps1=0,
         lam=(1, 3), olam=(1, 2), eta=(F(2), F(-1), F(-2)),
         zeta0=F(-3), zeta1=F(-2), zeta2=F(0)),
    dict(edges=[(0, 3, 1)], delta=2, ell=3, mu=1, eps0=1, eps1=1,
         lam=(1, 1, 1), olam=(1, 1, 1), eta=(F(0), F(1), F(1), F(1)),
         zeta0=F(3), zeta1=F(3), zeta2=F(1)),
    dict(edges=[(0, 2, 1), (1, 3, 1)], delta=2, ell=3, mu=1, eps0=1, eps1=1,
         lam=(1, 2, 1), olam=(1, 2, 1), eta=(F(0), F(-1), F(-1), F(-1)),
         zeta0=F(-3), zeta1=F(-3), zeta2=F(-1)),
]

COEFF_ROWS = {
    1: {"delta": 1, "A": "3", "L": "-2", "H": "0", "D": "0", "C": "4",
        "Ctilde": "0", "b": ["1"]},
    2: {"delta": 2, "A": "-21", "L": "39/2", "H": "0", "D": "4", "C": "-38",
        "Ctilde": "-36", "b": ["-9/2", "1"]},
    3: {"delta": 3, "A": "230", "L": "-788/3", "H": "0", "D": "-83",
        "C": "1780/3", "Ctilde": "752", "b": ["130/3", "-12", "1"]},
    4: {"delta": 4, "A": "-3015", "L": "15945/4", "H": "0", "D": "1576",
        "C": "-10262", "Ctilde": "-14421",
        "b": ["-2145/4", "315/2", "-18", "1"]},
    5: {"delta": 5, "A": "217728/5", "L": "-321882/5", "H": "0",
        "D": "-29493", "C": "921864/5", "Ctilde": "272340",
        "b": ["37506/5", "-2252", "288", "-24", "1"]},
    6: {"delta": 6, "A": "-668388", "L": "1080646", "H": "0",
        "D": "3310265/6", "C": "-10137308/3", "Ctilde": "-5134642",
        "b": ["-112826", "102676/3", "-9237/2", "456", "-30", "1"]},
    7: {"delta": 7, "A": "74884932/7", "L": "-130410072/7", "H": "0",
        "D": "-10354734", "C": "439054200/7", "Ctilde": "97018128",
        "b": ["12464964/7", "-543336", "75600", "-8176", "660", "-36", "1"]},
}
