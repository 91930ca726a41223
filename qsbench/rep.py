"""One repetition of a workload in a fresh interpreter.

run.py starts it as `python3 qsbench/rep.py '<spec JSON>'`, with the keyword
arguments of workloads.run_rep() as the spec, and reads the one JSON line it
prints.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

print(json.dumps(workloads.run_rep(**json.loads(sys.argv[1]))))
