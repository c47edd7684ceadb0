"""One SHA-1 over the reduction graphs of the scaled families, the respelled
terms and the fixtures, pinned: any change to a state, its spelling, an
edge, a barb or the divergent set changes it.  Run as a script, the file
prints the digest; the test runs it in fresh interpreters under two hash
seeds, so that no answer depends on the order of a set or a dict."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_pi_canon import RESPELLED, boudol, fixture_terms, pair_family, product, replicated

from transcheck.encodings import boudol_translate
from transcheck.pi import explore, parse_pi, print_state

HERE = Path(__file__).resolve().parent

# the digest of the graphs below, with output and with input barbs
DIGEST = "49d8b1117ef2ab5af9e9be8408b62551187bba71"

BUDGET = 1000


def family_terms():
    """The terms whose graphs the digest covers, in a fixed order."""
    def chains(a, d):
        return parse_pi(" | ".join(["x!a." * d + "x!a"] * a + ["!x(y).0"]))

    terms = [pair_family(k) for k in range(1, 9)] + [boudol(n) for n in range(1, 7)]
    terms += [product(k) for k in range(1, 4)]
    terms += [replicated(4), replicated(8)]
    sequences = parse_pi(" | ".join(["x!a.x!b.x!c"] * 4 + ["!x(y).y!c"]))
    terms += [sequences, boudol_translate(sequences)]
    terms += [chains(2, 4), boudol_translate(chains(2, 4))]
    terms += [parse_pi(s) for s in RESPELLED]
    for t in fixture_terms():
        terms += [t, boudol_translate(t)]
    return terms


def digest() -> str:
    h = hashlib.sha1()
    for t in family_terms():
        for input_barbs in (False, True):
            g = explore(t, BUDGET, input_barbs)
            keys = g.order()
            h.update(repr((
                keys, [print_state(s) for s in g.states.values()], list(g.edges.items()),
                [sorted(map(str, g.barbs[k])) for k in keys],
                [k for k in keys if k in g.divergent], g.complete)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 7])
def test_the_graphs_digest_to_the_pinned_value(seed):
    src = str(HERE.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(Path(__file__))], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == f"{DIGEST}\n"


if __name__ == "__main__":
    print(digest())
