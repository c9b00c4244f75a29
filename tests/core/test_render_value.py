"""Text rendering of data-level results in the query processor.

The expected strings are byte-for-byte what the renderer has always
produced; answers shown to users and pinned benchmark digests depend
on them.
"""

import datetime

import pytest

from repro.core.query_processor import _render_value
from repro.sql.result import ResultSet

CASES = [
    (ResultSet(["ClaimId", "Amount", "Status", "Lodged"],
               [(1, 120.5, "paid", datetime.date(1998, 1, 10)),
                (22, None, "pending-review", None),
                (333, 0.1 + 0.2, "", datetime.date(1999, 12, 31))]),
     "ClaimId  Amount               Status          Lodged    \n"
     "-------  -------------------  --------------  ----------\n"
     "1        120.5                paid            1998-01-10\n"
     "22       None                 pending-review  None      \n"
     "333      0.30000000000000004                  1999-12-31"),
    (ResultSet(["Name", "x"], []),
     "Name  x\n"
     "----  -"),
    (ResultSet.empty(3), "(3 row(s) affected)"),
    (ResultSet(["a_very_long_column_name", "b"],
               [(True, -1.0), (False, 1e20)]),
     "a_very_long_column_name  b    \n"
     "-----------------------  -----\n"
     "True                     -1.0 \n"
     "False                    1e+20"),
    ([{"a": 1}, {"b": None}], "{'a': 1}\n{'b': None}"),
    (3.5, "3.5"),
    ([], "[]"),
]


@pytest.mark.parametrize("value, expected", CASES)
def test_render_value_is_unchanged(value, expected):
    assert _render_value(value) == expected
