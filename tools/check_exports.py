#!/usr/bin/env python3
"""Keep the library interface narrow.

Lists every `val` in lib/**/*.mli that nothing outside its own module
references. A use counts when it is qualified (`Trace.pack`, also through
`Alcop_gpusim.Trace.pack` or a `module T = ...Trace` alias) or bare in a
file that opens the module (`open Trace`, `let open Trace in`,
`Trace.( ... )`). Comments are ignored.

Exits 1 if some export is unreferenced, or is referenced only from test/
and its doc comment does not start with `Test-only:`.

Usage: python3 tools/check_exports.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_DIRS = ["lib", "bin", "bench", "examples", "perfbench", "test"]
VAL = re.compile(r"^val\s+(\(\s*[^)]+?\s*\)|[a-z_][\w']*)", re.M)
ITEM = re.compile(r"^(val|type|exception|module|open|include|external)\b", re.M)
CHAR_LIT = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|\d{3}|x[0-9a-fA-F]{2})|[^\\'])'")


def strip_comments(src):
    """Blank out OCaml comments (nested), keeping strings and char literals."""
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            if not depth:
                out.append(src[i:j + 1])
            i = j + 1
        elif src[i] == "'" and CHAR_LIT.match(src, i):
            m = CHAR_LIT.match(src, i)
            if not depth:
                out.append(m.group())
            i = m.end()
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def exports():
    """(mli, module, name, doc) for every top-level val: its doc comment is
    the first one after it, else the one right before it."""
    for mli in sorted((ROOT / "lib").rglob("*.mli")):
        text = mli.read_text()
        module = mli.stem.capitalize()
        items = [m.start() for m in ITEM.finditer(text)] + [len(text)]
        for m in VAL.finditer(text):
            name = re.sub(r"\s+", " ", m.group(1))
            end = next(p for p in items if p > m.start())
            doc = text[m.start():end]
            doc = doc[doc.find("(**"):] if "(**" in doc else ""
            before = text[:m.start()].rstrip()
            if not doc and before.endswith("*)"):
                doc = before[before.rfind("(**"):]
            yield mli, module, name, doc


def main():
    sources = {}
    for d in SOURCE_DIRS:
        for f in sorted((ROOT / d).rglob("*.ml*")):
            if "_build" not in f.parts and f.suffix in (".ml", ".mli"):
                sources[f] = strip_comments(f.read_text())
    pattern_cache = {}

    def users(mli, module, name):
        if module not in pattern_cache:
            path = r"(?:Alcop_\w+\.)?" + module + r"\b"
            pattern_cache[module] = (
                re.compile(r"\bmodule\s+([A-Z]\w*)\s*=\s*" + path),
                re.compile(r"\bopen!?\s+" + path + r"|\b" + module + r"\.\("),
            )
        alias, opened = pattern_cache[module]
        if name.startswith("("):
            tail = bare = re.escape(name[1:-1].strip())
        else:
            tail, bare = name + r"\b", r"\b" + name + r"\b"
        found = []
        for f, src in sources.items():
            if f.with_suffix("") == mli.with_suffix(""):
                continue
            names = {module} | set(alias.findall(src))
            qualified = r"\b(?:%s)\.%s" % ("|".join(names), tail)
            if re.search(qualified, src) or (
                opened.search(src) and re.search(bare, src)
            ):
                found.append(f)
        return found

    unreferenced, untagged = [], []
    for mli, module, name, doc in exports():
        found = users(mli, module, name)
        where = "%s:%s" % (mli.relative_to(ROOT), module + "." + name)
        if not found:
            unreferenced.append(where)
        elif all(f.relative_to(ROOT).parts[0] == "test" for f in found):
            if not re.match(r"\(\*\*\s*Test-only:", doc):
                untagged.append(where)
    for w in unreferenced:
        print("unreferenced: " + w)
    for w in untagged:
        print("test-only without a `Test-only:` doc comment: " + w)
    if unreferenced or untagged:
        print("%d unreferenced, %d untagged test-only exports"
              % (len(unreferenced), len(untagged)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
