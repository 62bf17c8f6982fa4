import contextlib
import io

import pytest
from hypothesis import settings

from cohft import checks, cli
from cohft import tensor as T

# Tier-1 must be deterministic: the same examples on every run, no wall-clock
# deadline on a slow host, and no example database left behind.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def check_run(tmp_path_factory):
    """The one run of the passing suite in the tests: `cohft check`, through the command
    line. Returns its exit code, its output and the ops of every tape node whose backward
    ran inside `checks.finite_diff_check`."""
    checked, depth = set(), [0]
    finite_diff_check, backward = checks.finite_diff_check, T.backward

    def inside_finite_diff_check(*args, **kwargs):
        depth[0] += 1
        try:
            return finite_diff_check(*args, **kwargs)
        finally:
            depth[0] -= 1

    def noting_backward(loss, tape):
        grads = backward(loss, tape)
        if depth[0]:  # a node whose closure ran has it cleared
            checked.update(node.op.split(":")[0] for node in tape.nodes if node.backward_fn is None)
        return grads

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(checks, "finite_diff_check", inside_finite_diff_check)
        mp.setattr(T, "backward", noting_backward)
        rc = cli.main(["--out", str(tmp_path_factory.mktemp("check") / "out"), "check"])
    return rc, out.getvalue(), checked
