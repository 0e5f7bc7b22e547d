import sys
from pathlib import Path

# The benchmark modules are scripts next to run.py, imported by file name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
