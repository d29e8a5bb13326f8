#!/usr/bin/env python3
"""bench_trend — schema + trend gate for the BENCH_*.json result files.

Every bench binary writes a BENCH_<name>.json document (to
MOCOS_BENCH_CSV_DIR when set). This tool keeps those artifacts honest:

  1. each file validates against its entry in tools/bench/bench_schema.json
     (a versioned shape contract — a bench that adds/renames fields must
     bump the schema in the same change), and
  2. tracked metrics stay inside the trend bands of bench/baselines.json
     (scale-independent ratios: speedups, parity gaps, overhead
     percentages), so a perf or correctness regression fails CI even when
     absolute times are machine-dependent.

Band paths are dotted keys with three array selectors:
  points[*].pi_gap           every element
  points[2].speedup          one element by index
  scenarios[name=warm_lanes].shed_rate   element whose "name" matches

Usage:
  bench_trend.py [--check] [--bench-dir DIR] [--slack F] [--require-all]

Report mode (default) prints every tracked metric with its band; --check
exits 1 on any violation. --bench-dir defaults to the repository root
(checked-in results); point it at a fresh MOCOS_BENCH_CSV_DIR to gate a
new run, with --slack to widen bands against scheduler noise (max*F,
min/F). --require-all additionally fails when a baselined file is absent.
Dependency-free (Python 3 stdlib only).
Exit status: 0 ok, 1 violation or malformed input, 2 usage error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCHEMA_PATH = os.path.join(REPO_ROOT, "tools", "bench", "bench_schema.json")
BASELINES_PATH = os.path.join(REPO_ROOT, "bench", "baselines.json")

# The schema and baselines documents are versioned independently: a bench
# shape change bumps only the schema.
SUPPORTED_VERSIONS = {"schema": 2, "baselines": 1}


def validate(instance, schema, path="$"):
    """Validates against the JSON Schema subset used by bench_schema.json
    (type, required, properties, additionalProperties, items, minimum).
    Returns a list of error strings."""
    errors = []
    expected = schema.get("type")
    if expected == "object":
        if not isinstance(instance, dict):
            return ["%s: expected object, got %s"
                    % (path, type(instance).__name__)]
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append("%s: missing required key %r" % (path, key))
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            sub = path + "." + key
            if key in props:
                errors += validate(value, props[key], sub)
            elif isinstance(extra, dict):
                errors += validate(value, extra, sub)
            elif extra is False:
                errors.append("%s: unexpected key %r" % (path, key))
    elif expected == "array":
        if not isinstance(instance, list):
            return ["%s: expected array, got %s"
                    % (path, type(instance).__name__)]
        items = schema.get("items")
        if items:
            for i, value in enumerate(instance):
                errors += validate(value, items, "%s[%d]" % (path, i))
    elif expected == "integer":
        if not isinstance(instance, int) or isinstance(instance, bool):
            errors.append("%s: expected integer, got %r" % (path, instance))
        elif "minimum" in schema and instance < schema["minimum"]:
            errors.append("%s: %s below minimum %s"
                          % (path, instance, schema["minimum"]))
    elif expected == "number":
        if not isinstance(instance, (int, float)) or \
                isinstance(instance, bool):
            errors.append("%s: expected number, got %r" % (path, instance))
        elif "minimum" in schema and instance < schema["minimum"]:
            errors.append("%s: %s below minimum %s"
                          % (path, instance, schema["minimum"]))
    elif expected == "boolean":
        if not isinstance(instance, bool):
            errors.append("%s: expected boolean, got %r" % (path, instance))
    elif expected == "string":
        if not isinstance(instance, str):
            errors.append("%s: expected string, got %r" % (path, instance))
    return errors


_SEGMENT = re.compile(
    r"^(?P<key>[A-Za-z0-9_.-]+?)"
    r"(?:\[(?P<sel>\*|\d+|[A-Za-z0-9_]+=[^\]]+)\])?$")


def resolve(doc, path):
    """Returns [(concrete_path, value), ...] for a band path, or raises
    ValueError when the path does not resolve."""
    nodes = [("$", doc)]
    for raw in path.split("."):
        match = _SEGMENT.match(raw)
        if not match:
            raise ValueError("malformed path segment %r" % raw)
        key, sel = match.group("key"), match.group("sel")
        next_nodes = []
        for where, node in nodes:
            if not isinstance(node, dict) or key not in node:
                raise ValueError("%s has no key %r" % (where, key))
            where, node = where + "." + key, node[key]
            if sel is None:
                next_nodes.append((where, node))
                continue
            if not isinstance(node, list):
                raise ValueError("%s is not an array" % where)
            if sel == "*":
                next_nodes += [("%s[%d]" % (where, i), v)
                               for i, v in enumerate(node)]
            elif sel.isdigit():
                i = int(sel)
                if i >= len(node):
                    raise ValueError("%s[%d] out of range" % (where, i))
                next_nodes.append(("%s[%d]" % (where, i), node[i]))
            else:
                field, want = sel.split("=", 1)
                hits = [(i, v) for i, v in enumerate(node)
                        if isinstance(v, dict) and str(v.get(field)) == want]
                if not hits:
                    raise ValueError("%s has no element with %s=%s"
                                     % (where, field, want))
                next_nodes += [("%s[%s=%s]" % (where, field, want), v)
                               for _, v in hits]
        nodes = next_nodes
    return nodes


def check_bands(doc, bands, slack):
    """Returns (rows, errors): rows describe every evaluated metric,
    errors the band violations / resolution failures."""
    rows, errors = [], []
    for band in bands:
        path = band["path"]
        lo = band.get("min")
        hi = band.get("max")
        if lo is not None:
            lo = lo / slack if lo > 0 else lo
        if hi is not None:
            hi = hi * slack if hi > 0 else hi
        try:
            resolved = resolve(doc, path)
        except ValueError as err:
            errors.append("%s: %s" % (path, err))
            continue
        for where, value in resolved:
            if not isinstance(value, (int, float)) or \
                    isinstance(value, bool):
                errors.append("%s: not a number: %r" % (where, value))
                continue
            ok = (lo is None or value >= lo) and (hi is None or value <= hi)
            rows.append((where, value, lo, hi, ok))
            if not ok:
                errors.append(
                    "%s = %g outside [%s, %s] (%s)"
                    % (where, value,
                       "-inf" if lo is None else "%g" % lo,
                       "+inf" if hi is None else "%g" % hi,
                       band.get("why", "no rationale recorded")))
    return rows, errors


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError("%s %s: %s" % (what, path, err))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_trend", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any schema or band violation")
    parser.add_argument("--bench-dir", default=REPO_ROOT,
                        help="directory holding BENCH_*.json "
                             "(default: repository root)")
    parser.add_argument("--slack", type=float, default=1.0,
                        help="band relaxation factor for fresh noisy runs "
                             "(max*F, min/F; default 1.0)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a baselined BENCH file is absent")
    parser.add_argument("--schema", default=SCHEMA_PATH,
                        help=argparse.SUPPRESS)
    parser.add_argument("--baselines", default=BASELINES_PATH,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.slack < 1.0:
        print("bench_trend: --slack must be >= 1.0", file=sys.stderr)
        return 2

    try:
        schema_doc = load_json(args.schema, "schema")
        baselines_doc = load_json(args.baselines, "baselines")
    except ValueError as err:
        print("bench_trend: %s" % err, file=sys.stderr)
        return 2
    for doc, name in ((schema_doc, "schema"), (baselines_doc, "baselines")):
        if doc.get("version") != SUPPORTED_VERSIONS[name]:
            print("bench_trend: %s version %r unsupported (want %d)"
                  % (name, doc.get("version"), SUPPORTED_VERSIONS[name]),
                  file=sys.stderr)
            return 2

    schemas = schema_doc.get("files", {})
    bands = baselines_doc.get("files", {})
    try:
        present = sorted(f for f in os.listdir(args.bench_dir)
                         if f.startswith("BENCH_") and f.endswith(".json"))
    except OSError as err:
        print("bench_trend: %s" % err, file=sys.stderr)
        return 2

    failures = []
    if not present:
        failures.append("no BENCH_*.json files in %s" % args.bench_dir)
    if args.require_all:
        for name in sorted(set(schemas) | set(bands)):
            if name not in present:
                failures.append("%s: required file missing" % name)

    for name in present:
        doc_path = os.path.join(args.bench_dir, name)
        try:
            doc = load_json(doc_path, "bench file")
        except ValueError as err:
            failures.append(str(err))
            continue
        if name not in schemas:
            failures.append("%s: no schema entry in %s (new bench files "
                            "must be added to the schema)"
                            % (name, args.schema))
            continue
        schema_errors = validate(doc, schemas[name])
        if schema_errors:
            failures += ["%s: %s" % (name, e) for e in schema_errors]
            continue  # bands over an invalid document would mislead
        rows, band_errors = check_bands(doc, bands.get(name, []), args.slack)
        failures += ["%s: %s" % (name, e) for e in band_errors]
        print("%s: schema ok, %d tracked metric(s)" % (name, len(rows)))
        for where, value, lo, hi, ok in rows:
            print("  %-58s %12g  [%s, %s]  %s"
                  % (where, value,
                     "-inf" if lo is None else "%g" % lo,
                     "+inf" if hi is None else "%g" % hi,
                     "ok" if ok else "FAIL"))

    if failures:
        for failure in failures:
            print("bench_trend: %s" % failure, file=sys.stderr)
        print("bench_trend: %d failure(s)" % len(failures), file=sys.stderr)
        return 1 if args.check else 0
    print("bench_trend: all %d file(s) pass" % len(present))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
