import sys
from pathlib import Path

# The harness modules are plain scripts in the benchmark directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
