"""Run one benchmark workload; see ``perfbench/driver.py``.

    python3 perfbench/run.py --workload closed-warm --seed 1 --seconds 15 --trace 0
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.driver import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
