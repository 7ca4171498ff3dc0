"""``python bench/traced_cli.py SPANS ARGS...``: the romanoff-lab CLI under the tracer.

Installs the span wrappers on every imported romanoff_lab module, runs the
CLI with ARGS, writes the spans to SPANS once the call has finished, and
exits with the CLI's own exit code.  romanoff_lab is found through
PYTHONPATH, as for the untraced ``python -m romanoff_lab``.
"""

import sys

from spans import Tracer

import romanoff_lab.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = romanoff_lab.cli.run(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.span_set().save(sys.argv[1])
    sys.exit(code)
