import sys
from pathlib import Path

# The oracles, and the repository root for the benchmark's input generators.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))
