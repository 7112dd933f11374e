"""Run one `lexseg` CLI command under the span recorder.

Usage: python perfbench/cli_child.py <lexseg arguments...>

The command's output goes to stdout unchanged.  The last line of stderr is
`tracer.MARK` followed by the recorder's aggregates as JSON, which the
benchmark merges across the processes of a traced cli pass.
"""

import json
import sys

import lexseg.cli

import tracer

if __name__ == "__main__":
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = lexseg.cli.main(sys.argv[1:])
    finally:
        recorder.uninstall()
    sys.stdout.flush()
    print(tracer.MARK + json.dumps(recorder.snapshot()), file=sys.stderr)
    sys.exit(code)
