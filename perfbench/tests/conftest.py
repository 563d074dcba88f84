import sys
from pathlib import Path

# The benchmark's modules sit beside run.py, which runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
