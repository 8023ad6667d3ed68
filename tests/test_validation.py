import math
import re

import numpy as np
import pytest

from microloc.validation import as_box, as_float_array, as_point, as_points, check_exponent


@pytest.mark.parametrize("call,says", [
    (lambda: as_float_array([1.0, math.nan], "v"), "v must be finite, got [1.0, nan]"),
    (lambda: as_float_array(np.array([1.0, True], dtype=object), "v"),
     "v must hold numbers only, got True"),
    (lambda: as_point(np.zeros((2, 2)), name="x0"), "x0 must be a flat vector, got shape (2, 2)"),
    (lambda: as_points(np.zeros((2, 2, 2))), "points must be an (n, d) array, got shape (2, 2, 2)"),
    (lambda: as_points(np.zeros((2, 3)), 2), "points must have dimension 2, got 3"),
    (lambda: check_exponent("two", "q"), "q must be a number, got 'two'"),
    (lambda: as_box(([1.0], [0.0])), "box has hi < lo: [1.] .. [0.]"),
], ids=["non-finite", "object-bool", "point-not-flat", "points-rank", "points-dimension",
        "exponent-text", "box-reversed"])
def test_input_checks_refuse_by_name(call, says):
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        call()
