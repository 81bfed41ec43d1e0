"""Input guards that no other test reaches: each bad input raises ValueError."""

import pytest

from mondrian.numtheory import census_excess_tau, mertens_product, rough_count
from mondrian.tiling import check_perfect, rects_with_area, solve_m


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: rough_count(0, 5), id="rough_count-x"),
        pytest.param(lambda: rough_count(10, -1), id="rough_count-z"),
        pytest.param(lambda: mertens_product(-1), id="mertens_product-z"),
        pytest.param(lambda: census_excess_tau(2), id="census_excess_tau-x"),
        pytest.param(lambda: rects_with_area(0, 3), id="rects_with_area-d"),
        pytest.param(lambda: solve_m(6, node_budget=0), id="solve_m-budget"),
        pytest.param(lambda: check_perfect(2), id="check_perfect-n"),
        pytest.param(lambda: check_perfect(6, node_budget=0), id="check_perfect-budget"),
    ],
)
def test_bad_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
