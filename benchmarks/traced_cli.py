"""Run the biphoton CLI with spans recorded around each layer.

    python3 benchmarks/traced_cli.py SPANS.json <biphoton arguments...>

Behaves as ``python -m biphoton.cli <arguments>`` and also writes the
import time of ``biphoton.cli`` and the recorded spans to SPANS.json.
"""

import json
import sys
import time


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import biphoton.cli

    import_s = time.perf_counter() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = biphoton.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.span_records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
