"""Count the minor page faults of one benchmark run, from outside its process.

    python3 tools/bench_faults.py TREE [WORKLOAD] [SECONDS]

Runs ``python3 perfbench/run.py --workload WORKLOAD --seconds SECONDS``
(by default drop-grid for 6 seconds) as a child process in the checkout
TREE, and prints the JSON object of the child's last line with one more
key, ``minor_faults``: ``resource.getrusage(RUSAGE_CHILDREN).ru_minflt``
once the child has exited.  The count includes the interpreters that the
child starts and waits for to time its set-up.  Exits with the child's
exit code.

The count is for comparing two trees: run it on each, alternating, and
compare the totals.  It is taken outside the benchmark's process because
a probe inside it changes what that process compiles and allocates before
its timed passes, and with that the page faults being counted.
"""

import json
import resource
import subprocess
import sys


def main(argv) -> int:
    if not 1 <= len(argv) <= 3:
        print("usage: tools/bench_faults.py TREE [WORKLOAD] [SECONDS]", file=sys.stderr)
        return 2
    tree = argv[0]
    workload = argv[1] if len(argv) > 1 else "drop-grid"
    seconds = argv[2] if len(argv) > 2 else "6"
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seconds", seconds]
    child = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    if child.returncode not in (0, 1) or not lines:
        sys.stderr.write(child.stderr)
        return child.returncode or 2
    result = json.loads(lines[-1])
    result["minor_faults"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
