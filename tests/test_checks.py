"""Every check that `cohft check` runs is called by name from a test, and every tape
primitive's backward runs inside a finite-difference check."""
import re
from pathlib import Path

from cohft import tensor as T
from cohft.checks import ALL_CHECKS


def test_every_check_is_called_by_a_test():
    # a lambda entry names its check among the globals its code reads
    names = {name for _, fn in ALL_CHECKS for name in (fn.__name__, *fn.__code__.co_names)
             if name.startswith("check_")}
    assert len(names) == len(ALL_CHECKS), sorted(names)
    source = "\n".join(path.read_text() for path in Path(__file__).parent.glob("*.py"))
    uncalled = sorted(name for name in names if not re.search(rf"\b{name}\(", source))
    assert not uncalled, f"no test calls {', '.join(uncalled)}"


# the primitives whose node.op is not their name; einsum's op is "einsum:" and its subscripts
OP_PRIMITIVE = {"sum": "tsum", "mean": "tmean"}


def test_every_tape_primitive_is_gradient_checked(check_run):
    # the functions of cohft.tensor that record a node themselves
    primitives = {name for name, fn in vars(T).items()
                  if not name.startswith("_") and getattr(fn, "__module__", None) == T.__name__
                  and "_record" in getattr(getattr(fn, "__code__", None), "co_names", ())}
    rc, out, checked = check_run
    assert rc == 0, out
    unchecked = primitives - {OP_PRIMITIVE.get(op, op) for op in checked}
    assert not unchecked, f"no finite-difference check runs the backward of {sorted(unchecked)}"
