import sys
from pathlib import Path

# The benchmark measures the library in this checkout's src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
