"""Reference algorithms the tests compare gdpakit against."""

from gdpakit.coeff_rings import (
    ExactMatrix,
    IntegersModRing,
    _diag,
    _lift_zmod,
    smith_normal_form,
)


def solve(m: ExactMatrix, b):
    """Solve m x = b exactly (b a list) through the Smith form U m V = D;
    returns x or None if unsolvable.  Over Z/n it solves [m | nI] over Z."""
    R = m.ring
    if isinstance(R, IntegersModRing) and not R.is_field:
        lifted = _lift_zmod(m)
        x = solve(lifted, [int(v) for v in b])
        if x is None:
            return None
        return [R.canon(v) for v in x[: m.cols]]
    U, D, V = smith_normal_form(m)
    c = U.apply_vector([R.canon(x) for x in b])
    diag = _diag(D)
    y = [R.zero()] * m.cols
    for i in range(m.rows):
        ci = c[i]
        di = diag[i] if i < len(diag) else R.zero()
        if R.is_zero(di):
            if not R.is_zero(ci):
                return None
        else:
            if i < m.cols:
                if not R.divides(di, ci):
                    return None
                y[i] = R.exact_div(ci, di)
            elif not R.is_zero(ci):
                return None
    return V.apply_vector(y)
