#!/usr/bin/env python3
"""End-to-end observability tests for the mocos CLI (stdlib only).

Drives the built mocos_cli binary and asserts the DESIGN.md §10 contract:

  - the --metrics JSON validates against tools/trace/metrics_schema.json
    (via a built-in validator for the schema subset it uses, so the test
    needs no third-party jsonschema package),
  - metric values are bit-identical for --jobs 1 and --jobs 8 (the
    jobs-invariance acceptance gate for the metrics layer),
  - the --trace NDJSON converts cleanly through tools/trace/trace2chrome.py
    and the result is loadable Chrome-tracing JSON,
  - MOCOS_TRACE=file enables tracing without the flag,
  - the chain_cache.* counters of a sparse city run add up to the descent's
    probes, starts and iterations,
  - the --profile phases of a sparse city run split the chain solve
    (resolvent/derive, factor/columns) with the same names and counts at
    --jobs 1 and --jobs 4.

Registered as the `ObsCli.*` ctests; runnable directly:
    python3 tests/test_obs_cli.py --cli build/tools/mocos_cli
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = os.path.join(REPO_ROOT, "tools", "trace", "metrics_schema.json")
PROFILE_SCHEMA = os.path.join(REPO_ROOT, "tools", "trace",
                              "profile_schema.json")
TRACE2CHROME = os.path.join(REPO_ROOT, "tools", "trace", "trace2chrome.py")
TRACE2FLAME = os.path.join(REPO_ROOT, "tools", "trace", "trace2flame.py")
BATCH_DIR = os.path.join(REPO_ROOT, "tests", "golden", "batch")
SINGLE_CONF = os.path.join(REPO_ROOT, "tests", "golden", "single.conf")

CLI = None  # resolved in main()

# The golden batch directory contains b_bad_algorithm.conf, which fails by
# design, so every batch run exits with the partial-failure code.
EXIT_BATCH_PARTIAL = 4


def validate(instance, schema, path="$"):
    """Validates `instance` against the JSON Schema subset used by
    metrics_schema.json (type, required, properties, additionalProperties,
    items, minimum). Returns a list of error strings."""
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
            errors.append("%s: %d below minimum %d"
                          % (path, instance, schema["minimum"]))
    elif expected == "number":
        if not isinstance(instance, (int, float)) or \
                isinstance(instance, bool):
            errors.append("%s: expected number, got %r" % (path, instance))
    return errors


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("MOCOS_TRACE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([CLI] + args, capture_output=True, text=True,
                          env=env)


class SchemaValidator(unittest.TestCase):
    """The mini-validator itself rejects shape violations (so a vacuous
    pass cannot hide a schema drift)."""

    def setUp(self):
        with open(SCHEMA) as f:
            self.schema = json.load(f)

    def test_accepts_minimal_document(self):
        doc = {"counters": {}, "gauges": {}, "histograms": {}}
        self.assertEqual(validate(doc, self.schema), [])

    def test_rejects_missing_section_and_bad_types(self):
        self.assertTrue(validate({"counters": {}}, self.schema))
        self.assertTrue(validate(
            {"counters": {"x": -1}, "gauges": {}, "histograms": {}},
            self.schema))
        self.assertTrue(validate(
            {"counters": {}, "gauges": {"g": "oops"}, "histograms": {}},
            self.schema))
        self.assertTrue(validate(
            {"counters": {}, "gauges": {}, "histograms": {},
             "timing": {}}, self.schema))
        self.assertTrue(validate(
            {"counters": {}, "gauges": {},
             "histograms": {"h": {"bounds": [], "counts": []}}},
            self.schema))


class MetricsOutput(unittest.TestCase):
    def test_single_run_metrics_validate_against_schema(self):
        with open(SCHEMA) as f:
            schema = json.load(f)
        with tempfile.TemporaryDirectory() as tmp:
            metrics = os.path.join(tmp, "m.json")
            proc = run_cli([SINGLE_CONF, "--metrics", metrics])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(metrics) as f:
                doc = json.load(f)
        self.assertEqual(validate(doc, schema), [])
        self.assertGreater(doc["counters"].get("descent.iterations", 0), 0)
        self.assertIn("descent.final_cost", doc["gauges"])
        self.assertIn("descent.gradient_norm", doc["histograms"])

    def test_batch_metrics_are_jobs_invariant(self):
        """The acceptance gate: --jobs 1 and --jobs 8 batch runs write
        byte-identical metric files."""
        docs = {}
        for jobs in ("1", "8"):
            with tempfile.TemporaryDirectory() as tmp:
                metrics = os.path.join(tmp, "m.json")
                proc = run_cli(["--batch", BATCH_DIR, "--jobs", jobs,
                                "--metrics", metrics])
                self.assertEqual(proc.returncode, EXIT_BATCH_PARTIAL,
                                 proc.stderr)
                with open(metrics) as f:
                    docs[jobs] = f.read()
        self.assertEqual(docs["1"], docs["8"])
        doc = json.loads(docs["1"])
        self.assertEqual(doc["counters"].get("batch.scenarios"), 3)
        self.assertEqual(doc["counters"].get("batch.failures"), 1)

    def test_metrics_to_unwritable_path_is_a_config_error(self):
        proc = run_cli([SINGLE_CONF, "--metrics", "/nonexistent/dir/m.json"])
        self.assertEqual(proc.returncode, 2)

    def test_chain_cache_counters_match_descent_work(self):
        """The chain_cache.* counters of a sparse city run say what the
        solver did: every probe, start and gradient analysis is one full
        solve or one exact hit, the banded backend served every solve, and
        no row update happened."""
        with tempfile.TemporaryDirectory() as tmp:
            conf = os.path.join(tmp, "city.conf")
            with open(conf, "w") as f:
                f.write("topology = city:192:5\nradius = 0.1\n"
                        "support_radius = 2.0\nalgorithm = adaptive\n"
                        "iterations = 3\n")
            metrics = os.path.join(tmp, "m.json")
            proc = run_cli([conf, "--metrics", metrics])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(metrics) as f:
                counters = json.load(f)["counters"]
        cache = {k[len("chain_cache."):]: v for k, v in counters.items()
                 if k.startswith("chain_cache.")}
        self.assertEqual(set(cache), {"full_solves", "sparse_full_solves",
                                      "exact_hits", "row_updates"})
        self.assertEqual(cache["row_updates"], 0)
        self.assertGreater(cache["full_solves"], 0)
        self.assertEqual(cache["sparse_full_solves"], cache["full_solves"])
        self.assertEqual(cache["full_solves"] + cache["exact_hits"],
                         counters["descent.line_search.probes"]
                         + counters["descent.runs"]
                         + counters["descent.iterations"])


class TraceOutput(unittest.TestCase):
    def test_trace_converts_to_chrome_format(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = os.path.join(tmp, "t.ndjson")
            chrome = os.path.join(tmp, "t.json")
            proc = run_cli([SINGLE_CONF, "--trace", trace])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            conv = subprocess.run(
                [sys.executable, TRACE2CHROME, trace, "-o", chrome],
                capture_output=True, text=True)
            self.assertEqual(conv.returncode, 0, conv.stderr)
            with open(chrome) as f:
                doc = json.load(f)
        events = doc["traceEvents"]
        self.assertTrue(events)
        names = {e["name"] for e in events}
        self.assertIn("cli.run", names)
        self.assertIn("descent.iteration", names)
        phases = {e["ph"] for e in events}
        self.assertLessEqual(phases, {"B", "E", "i", "C"})
        for e in events:
            self.assertIn("pid", e)
        # Metric instants with numeric args become counter events so the
        # numbers render as time series instead of being dropped.
        counters = [e for e in events if e["ph"] == "C"]
        self.assertTrue(counters)
        self.assertIn("descent.iteration", {e["name"] for e in counters})
        for e in counters:
            self.assertTrue(e["args"])
            for value in e["args"].values():
                self.assertIsInstance(value, (int, float))

    def test_env_var_enables_tracing(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = os.path.join(tmp, "env.ndjson")
            proc = run_cli([SINGLE_CONF],
                           env_extra={"MOCOS_TRACE": trace})
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(trace) as f:
                first = json.loads(f.readline())
        self.assertEqual(first["ph"], "B")
        self.assertEqual(first["name"], "cli.run")

    def test_profile_validates_and_renders_flamegraph(self):
        """--profile output validates against profile_schema.json and flows
        through trace2flame into collapsed stacks and a standalone SVG (the
        flamegraph pipeline the CI artifact uses)."""
        with open(PROFILE_SCHEMA) as f:
            schema = json.load(f)
        with tempfile.TemporaryDirectory() as tmp:
            profile = os.path.join(tmp, "p.json")
            collapsed = os.path.join(tmp, "p.collapsed")
            svg = os.path.join(tmp, "p.svg")
            proc = run_cli([SINGLE_CONF, "--profile", profile])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(profile) as f:
                doc = json.load(f)
            self.assertEqual(validate(doc, schema), [])
            self.assertEqual(doc["version"], 1)
            phases = doc["phases"]
            self.assertTrue(any(k == "descent.run" or
                                k.startswith("descent.run;")
                                for k in phases), sorted(phases))
            # Nested stacks exist: the profiler sees the whole descent
            # ladder, not just the root phase.
            self.assertTrue(any(";" in k for k in phases), sorted(phases))
            conv = subprocess.run(
                [sys.executable, TRACE2FLAME, profile, "-o", collapsed,
                 "--svg", svg],
                capture_output=True, text=True)
            self.assertEqual(conv.returncode, 0, conv.stderr)
            with open(collapsed) as f:
                lines = f.read().splitlines()
            with open(svg) as f:
                svg_text = f.read()
        # One "stack <exclusive_us>" line per phase path, sorted.
        self.assertEqual(len(lines), len(phases))
        stacks = []
        for line in lines:
            stack, _, count = line.rpartition(" ")
            self.assertTrue(stack, line)
            self.assertGreaterEqual(int(count), 0)
            stacks.append(stack)
        self.assertEqual(stacks, sorted(phases))
        self.assertIn("<svg", svg_text)
        self.assertIn("</svg>", svg_text)

    def test_profile_splits_the_chain_solve_identically_across_jobs(self):
        """A sparse city run's profile splits every chain.full_solve into
        chain.resolvent and chain.derive, and the banded resolvent into
        sparse.factor and sparse.columns. Phase names and counts are the
        same at --jobs 1 and --jobs 4."""
        shapes = {}
        with tempfile.TemporaryDirectory() as tmp:
            conf = os.path.join(tmp, "city.conf")
            with open(conf, "w") as f:
                f.write("topology = city:192:5\nradius = 0.1\n"
                        "support_radius = 2.0\nalgorithm = adaptive\n"
                        "iterations = 2\n")
            for jobs in ("1", "4"):
                profile = os.path.join(tmp, "p%s.json" % jobs)
                proc = run_cli([conf, "--jobs", jobs, "--profile", profile])
                self.assertEqual(proc.returncode, 0, proc.stderr)
                with open(profile) as f:
                    phases = json.load(f)["phases"]
                shapes[jobs] = {k: v["count"] for k, v in phases.items()}
        self.assertEqual(shapes["1"], shapes["4"])
        counts = shapes["1"]
        solves = [k for k in counts if k.endswith("chain.full_solve")]
        self.assertTrue(solves, sorted(counts))
        for solve in solves:
            for child in ("chain.resolvent", "chain.derive"):
                self.assertEqual(counts.get(solve + ";" + child),
                                 counts[solve], child)
            resolvent = solve + ";chain.resolvent"
            for child in ("sparse.factor", "sparse.columns"):
                self.assertEqual(counts.get(resolvent + ";" + child),
                                 counts[solve], child)

    def test_trace2flame_rejects_wrong_version(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "bad.json")
            with open(bad, "w") as f:
                json.dump({"version": 2, "phases": {}}, f)
            conv = subprocess.run([sys.executable, TRACE2FLAME, bad],
                                  capture_output=True, text=True)
        self.assertEqual(conv.returncode, 1)
        self.assertIn("version", conv.stderr)

    def test_trace2chrome_rejects_malformed_input(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "bad.ndjson")
            with open(bad, "w") as f:
                f.write('{"ph":"B","name":"x"}\n')  # missing cat/ts/tid
            conv = subprocess.run([sys.executable, TRACE2CHROME, bad],
                                  capture_output=True, text=True)
        self.assertEqual(conv.returncode, 1)
        self.assertIn("missing key", conv.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True,
                        help="path to the built mocos_cli binary")
    args, rest = parser.parse_known_args()
    global CLI
    CLI = os.path.abspath(args.cli)
    if not os.path.exists(CLI):
        print("test_obs_cli: no such binary: %s" % CLI, file=sys.stderr)
        return 2
    unittest.main(argv=[sys.argv[0]] + rest, verbosity=2)


if __name__ == "__main__":
    sys.exit(main())
