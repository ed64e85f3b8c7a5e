#!/usr/bin/env python3
"""Source-level invariant lints the compiler cannot check.

1. Raw synchronization primitives. std::mutex / std::lock_guard hide
   from both Clang's -Wthread-safety analysis and the runtime
   lock-order tracker (src/analysis/lockorder.h), and raw
   std::this_thread::sleep_for breaks ManualClock determinism. All
   three are banned outside an explicit allowlist: code uses the
   annotated Mutex/MutexLock/CondVar (common/thread_annotations.h) and
   Clock::sleepFor (common/clock.h) instead. Tests may sleep (they
   wait on real background threads) but may not use raw mutexes.

2. Metric names written outside the catalog. Every metric src/ and
   bench/ publish is declared once in src/obs/metric_catalog.h and
   looked up by its Metric id, so a string literal as the first
   argument of counter( / gauge( / histogram( there is a name the
   catalog (and so check_metrics.py) does not know about.

Usage: lint_invariants.py              # lint the tree, exit 1 on a hit
       lint_invariants.py --self-test  # prove each check still fires
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# The only files allowed to touch the raw primitives: the annotated
# wrappers themselves, the Clock that owns real sleeping, and the
# lock-order tracker (whose internal lock must be untracked).
RAW_PRIMITIVE_ALLOWLIST = {
    "src/common/thread_annotations.h",
    "src/common/clock.h",
    "src/analysis/lockorder.cc",
}

RAW_PRIMITIVE_PATTERNS = [
    (r"std::mutex\b", "std::mutex (use pimdl::Mutex)"),
    (r"std::lock_guard\b", "std::lock_guard (use pimdl::MutexLock)"),
    (
        r"std::this_thread::sleep_for\b",
        "std::this_thread::sleep_for (use Clock::sleepFor)",
    ),
]

METRIC_LITERAL_RE = re.compile(r"\b(?:counter|gauge|histogram)\(\s*\"")


def read_tree(dirs):
    """{relpath: text} of every .cc/.h file under @p dirs."""
    contents = {}
    for top in dirs:
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix in (".cc", ".h"):
                contents[str(path.relative_to(REPO_ROOT))] = (
                    path.read_text()
                )
    return contents


def strip_comments(text):
    """Drops // and /* */ comments so prose mentioning a banned token
    is not flagged. String literals containing comment markers do not
    occur in this tree's sync/metric code."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def check_raw_primitives(contents):
    """src/ and bench/ are held to all three bans; tests/ only to the
    mutex bans (tests legitimately sleep while herding real
    threads)."""
    violations = []
    for rel in sorted(contents):
        if rel in RAW_PRIMITIVE_ALLOWLIST:
            continue
        bans = RAW_PRIMITIVE_PATTERNS
        if rel.startswith("tests/"):
            bans = RAW_PRIMITIVE_PATTERNS[:2]
        text = strip_comments(contents[rel])
        for lineno, line in enumerate(text.splitlines(), start=1):
            for pattern, what in bans:
                if re.search(pattern, line):
                    violations.append(
                        f"{rel}:{lineno}: banned raw primitive "
                        f"{what}; allowlist lives in "
                        "scripts/lint_invariants.py"
                    )
    return violations


def check_metric_literals(contents):
    """A literal metric name in src/ or bench/ bypasses the catalog.
    The match may span lines (`histogram(\\n "name")`)."""
    violations = []
    for rel in sorted(contents):
        if not rel.startswith(("src/", "bench/")):
            continue
        text = strip_comments(contents[rel])
        for match in METRIC_LITERAL_RE.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            violations.append(
                f"{rel}:{lineno}: metric published by string literal; "
                "declare it in src/obs/metric_catalog.h and pass its "
                "obs::Metric id"
            )
    return violations


def self_test():
    """Negative tests: each checker must fire on a seeded violation
    and stay quiet on the clean fixture."""
    failures = []

    seeded = {
        "src/runtime/bad.cc": "std::lock_guard<std::mutex> lock(mu);",
        "tests/test_ok.cc": "std::this_thread::sleep_for(ms);",
        "src/common/thread_annotations.h": "std::mutex mu_;",
    }
    raw = check_raw_primitives(seeded)
    if not any("src/runtime/bad.cc" in v for v in raw):
        failures.append("raw-primitive ban not detected")
    if any("test_ok.cc" in v or "thread_annotations" in v for v in raw):
        failures.append("raw-primitive ban fired on allowed use")

    seeded = {
        "src/a/literal.cc": 'reg.counter("lint.selftest").add();',
        "bench/wrapped.cc": 'reg.histogram(\n    "lint.selftest");',
        "src/b/catalog.cc": "reg.gauge(obs::Metric::KernelsImpl);\n"
        '// reg.gauge("lint.selftest") in prose',
        "tests/test_adhoc.cc": 'reg.counter("test.adhoc").add();',
    }
    hits = check_metric_literals(seeded)
    for rel in ("src/a/literal.cc:1", "bench/wrapped.cc:1"):
        if not any(v.startswith(rel) for v in hits):
            failures.append(f"metric literal not detected in {rel}")
    if any("catalog.cc" in v or "test_adhoc" in v for v in hits):
        failures.append("metric-literal ban fired on allowed use")

    if failures:
        for failure in failures:
            print(f"lint_invariants: SELF-TEST FAIL: {failure}",
                  file=sys.stderr)
        return 1
    print("lint_invariants: self-test OK (all checks fire)")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    if sys.argv[1:]:
        print(f"usage: {sys.argv[0]} [--self-test]", file=sys.stderr)
        sys.exit(2)

    contents = read_tree(("src", "bench", "tests"))
    violations = check_raw_primitives(contents)
    violations += check_metric_literals(contents)
    if violations:
        for violation in violations:
            print(f"lint_invariants: FAIL: {violation}",
                  file=sys.stderr)
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        sys.exit(1)
    print(
        "lint_invariants: OK (raw-primitive ban and metric-literal ban "
        f"clean over {len(contents)} files)"
    )


if __name__ == "__main__":
    main()
