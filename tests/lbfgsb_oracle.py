"""Reference L-BFGS-B stage, used to check that ``angres.optimize.minimize``
returns the same point, value, counts and message bit for bit.

This is the straightforward form: scipy's ``minimize`` with the settings
every restart stage uses, whose wrapper copies the iterate and memoizes
the last value and gradient on every evaluation.
"""

from __future__ import annotations

import scipy.optimize

from angres.optimize import TOL


def minimize(fun, x0, args, maxiter):
    return scipy.optimize.minimize(
        fun,
        x0,
        args=args,
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": maxiter, "ftol": TOL, "gtol": 1e-14},
    )
