"""Settings every test module shares."""

import sys

# the recursive oracles (``parser_oracle``, ``semantics_oracle``) take a
# few frames per nesting level of their inputs, which go some hundreds deep
sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
