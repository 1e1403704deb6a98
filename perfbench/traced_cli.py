"""Run the thinimage CLI with span tracing and write the spans as JSON.

Usage: python3 perfbench/traced_cli.py SPANS.json run --config ... (the
arguments after SPANS.json go to ``thinimage.cli.main`` unchanged).
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from thinimage import cli

    tracer.op = 0
    try:
        return cli.main(argv)
    finally:
        tracer.op = None
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "distinct": {name: len(keys) for name, keys in tracer.keys.items()},
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
