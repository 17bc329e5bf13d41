"""The liveness report names exactly the lines that never ran.

These tests hand ``liveness.report`` the set of lines that ran; none of them
installs a tracer, which would replace the one the liveness script runs
this suite under.
"""

from liveness import report

PLANTED = (
    "def sign(x):\n"  # 1
    "    if x < 0:\n"  # 2
    "        return -1\n"  # 3: the untaken branch
    "    return 1\n"  # 4
    "\n"
    "def unused(x):\n"  # 6
    "    return x + 1\n"  # 7: the uncalled function's body
    "\n"
    "def checked(x):\n"  # 9
    "    if x is None:\n"  # 10
    "        raise ValueError(x)  # never run: callers pass a number\n"  # 11
    "    return sign(x)\n"  # 12
    "\n"
    "checked(2)\n"  # 14
)
RAN = {1, 2, 4, 6, 9, 10, 12, 14}


def test_names_the_untaken_branch_and_the_uncalled_function_but_not_the_tagged_line():
    assert report(PLANTED, "planted.py", RAN) == [
        "planted.py:3: return -1",
        "planted.py:7: return x + 1",
    ]
    untagged = PLANTED.replace("  # never run: callers pass a number", "")
    assert report(untagged, "planted.py", RAN)[2] == "planted.py:11: raise ValueError(x)"


def test_names_a_module_that_left_no_trace():
    assert report(PLANTED, "planted.py", set()) == ["planted.py: left no trace"]
