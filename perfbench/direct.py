"""One severi-direct operation, in a fresh interpreter.

    python3 perfbench/direct.py CORPUS --setup-only
    python3 perfbench/direct.py CORPUS INDEX OUT [--trace SUMMARY SPANS]

Set-up imports longedge and builds the corpus polygons.  The operation is
polygon INDEX of the corpus: the direct counts N^0..N^delta by
`n_bruteforce`, timed alone, written to OUT as JSON.  The checks run
elsewhere, after this process has ended, so nothing they compute is cached
here.
"""

import json
import sys
import time


def main() -> int:
    corpus_path, *rest = sys.argv[1:]
    import longedge

    with open(corpus_path) as fh:
        corpus = json.load(fh)
    polygons = [longedge.polygon_from_dict(item["polygon"]) for item in corpus["items"]]
    if rest == ["--setup-only"]:
        return 0
    index, out_path, *trace = rest
    if trace:
        from tracer import Tracer, install, write_outputs

        tracer = Tracer()
        install(tracer)
    p = polygons[int(index)]
    t0 = time.perf_counter()
    counts = [longedge.n_bruteforce(p, d) for d in range(corpus["delta"] + 1)]
    seconds = time.perf_counter() - t0
    if trace:
        write_outputs(tracer, trace[1], trace[2], {})
    with open(out_path, "w") as fh:
        json.dump({"seconds": seconds, "n": counts}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
