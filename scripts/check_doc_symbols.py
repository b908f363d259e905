#!/usr/bin/env python3
"""Checks that the code names the docs mention still exist.

Scans README.md, docs/**/*.md and src/*/README.md for two kinds of
reference to code:

  1. every CamelCase identifier inside an inline code span outside
     fenced blocks, e.g. each part of `GraphSession::Run`;
  2. every method call written `->Name(` or `.Name(` inside a fenced
     block, e.g. `(*session)->Run(request)`.

Each name must occur as a whole word in some file under src/, tools/,
bench/, perfbench/, examples/ or scripts/. A name that occurs nowhere
there is documentation of deleted (or never written) code.

Hermetic (no compiler, no network), so it runs in the link-check CI job.
Usage: scripts/check_doc_symbols.py [file-or-dir ...]
Exit status: 0 when every name resolves, 1 otherwise; each stale name is
reported as file:line: message.
"""

import glob
import os
import re
import sys

CODE_DIRS = ("src", "tools", "bench", "perfbench", "examples", "scripts")
WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Upper-case first letter, then lower case, then at least one more upper:
# GraphSession, ResultToJson -- not Rng, PDF or BM_EmdRun.
CAMEL_RE = re.compile(r"[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*")
SPAN_RE = re.compile(r"`([^`]+)`")
CALL_RE = re.compile(r"(?:->|\.)([A-Za-z_][A-Za-z0-9_]*)\(")


def default_targets(root):
    files = []
    readme = os.path.join(root, "README.md")
    if os.path.isfile(readme):
        files.append(readme)
    files.extend(sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"),
                                  recursive=True)))
    files.extend(sorted(glob.glob(os.path.join(root, "src", "*",
                                               "README.md"))))
    return files


def expand(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "**", "*.md"),
                                          recursive=True)))
        else:
            files.append(path)
    return files


def code_words(root):
    """Every identifier-shaped word in the files under CODE_DIRS."""
    words = set()
    this_script = os.path.abspath(__file__)
    for directory in CODE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, directory)):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                # Markdown here is documentation, not code; this script's
                # own examples name nothing.
                if (filename.endswith(".md") or
                        os.path.abspath(path) == this_script):
                    continue
                with open(path, encoding="utf-8", errors="ignore") as f:
                    words.update(WORD_RE.findall(f.read()))
    return words


def doc_references(md_path):
    """Yields (line, name, kind) for each code name md_path mentions."""
    in_fence = False
    with open(md_path, encoding="utf-8") as f:
        for line_number, line in enumerate(f, start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                for name in CALL_RE.findall(line):
                    yield line_number, name, "fenced call"
                continue
            for span in SPAN_RE.findall(line):
                for word in WORD_RE.findall(span):
                    if CAMEL_RE.fullmatch(word):
                        yield line_number, word, "inline name"


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = expand(argv[1:]) if len(argv) > 1 else default_targets(root)
    if not files:
        print("check_doc_symbols: no markdown files found", file=sys.stderr)
        return 1
    words = code_words(root)
    errors = []
    counts = {"inline name": 0, "fenced call": 0}
    for md_path in files:
        for line_number, name, kind in doc_references(md_path):
            counts[kind] += 1
            if name not in words:
                errors.append("%s:%d: %s '%s' occurs nowhere under %s" %
                              (md_path, line_number, kind, name,
                               ", ".join(d + "/" for d in CODE_DIRS)))
    for error in errors:
        print(error, file=sys.stderr)
    print("check_doc_symbols: %d files, %d inline names and %d fenced calls "
          "checked, %d stale" % (len(files), counts["inline name"],
                                 counts["fenced call"], len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
