"""Every check that `cohft check` runs is also called by name from a test."""
import re
from pathlib import Path

from cohft.checks import ALL_CHECKS


def test_every_check_is_called_by_a_test():
    # a lambda entry names its check among the globals its code reads
    names = {name for _, fn in ALL_CHECKS for name in (fn.__name__, *fn.__code__.co_names)
             if name.startswith("check_")}
    assert len(names) == len(ALL_CHECKS), sorted(names)
    source = "\n".join(path.read_text() for path in Path(__file__).parent.glob("*.py"))
    uncalled = sorted(name for name in names if not re.search(rf"\b{name}\(", source))
    assert not uncalled, f"no test calls {', '.join(uncalled)}"
