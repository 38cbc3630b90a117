"""Make the benchmark's modules and the program importable.

Run explicitly: ``python -m pytest benchmarks/e2e/tests -q`` (these
tests are not part of the tier-1 ``testpaths``).
"""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(E2E)), "src")
for path in (REPO_SRC, E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
