#!/usr/bin/env python3
"""Layer-dependency lint: the #include graph must match the CMake graph.

The repo is built as one static library per src/ subdirectory ("layer"),
with the link edges declared by the lalb_add_layer(...) calls in the
top-level CMakeLists.txt. This script recomputes the *actual* dependency
graph from the #include lines of every file under src/ and fails when
the two disagree:

  * an #include of another layer that is not a declared DIRECT
    dependency of the including layer (transitive reachability is not
    enough: the build may still link thanks to PUBLIC propagation, but
    the CMake graph no longer documents the architecture); or
  * a cycle in the declared dependency graph (layers must form a DAG
    rooted at `common`); or
  * a serving layer (cluster, gateway, shard, autoscale, chaos) that
    reaches `tensor` through declared edges, directly or not: the
    scheduler reads profiled Table I numbers, so serving never links the
    CPU CNN runtime.

Declared edges with no supporting #include are reported as information
only — an edge may exist for a deliberate reason (umbrella layers) and
pruning is a human decision, not a gate.

Exit status: 0 clean, 1 violations, 2 usage/parse errors.

Run from anywhere:   python3 tools/check_layers.py [--root REPO]
Self-test fixture:   python3 tools/check_layers.py --self-test
"""

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile

CMAKE_LAYER_RE = re.compile(r"^\s*lalb_add_layer\(\s*([a-z_0-9]+)([^)]*)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
SOURCE_EXTS = (".h", ".cc", ".cpp", ".hpp")
SERVING_LAYERS = ("cluster", "gateway", "shard", "autoscale", "chaos")
CNN_RUNTIME_LAYER = "tensor"


def parse_declared_graph(cmake_path):
    """Returns {layer: [direct deps]} from the lalb_add_layer calls."""
    graph = {}
    with open(cmake_path, encoding="utf-8") as f:
        for line in f:
            m = CMAKE_LAYER_RE.match(line)
            if not m:
                continue
            name = m.group(1)
            deps = m.group(2).split()
            graph[name] = deps
    return graph


def parse_include_graph(src_root):
    """Returns ({layer: {dep: [(file, line_no, header)...]}}, layers)."""
    layers = sorted(
        d for d in os.listdir(src_root)
        if os.path.isdir(os.path.join(src_root, d))
    )
    layer_set = set(layers)
    used = {layer: {} for layer in layers}
    for layer in layers:
        layer_dir = os.path.join(src_root, layer)
        for dirpath, _, filenames in os.walk(layer_dir):
            for filename in sorted(filenames):
                if not filename.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, src_root)
                with open(path, encoding="utf-8") as f:
                    for line_no, line in enumerate(f, 1):
                        m = INCLUDE_RE.match(line)
                        if not m:
                            continue
                        header = m.group(1)
                        target = header.split("/", 1)[0]
                        if target not in layer_set or target == layer:
                            continue
                        used[layer].setdefault(target, []).append(
                            (rel, line_no, header))
    return used, layers


def find_cycle(graph):
    """Returns one cycle as [a, b, ..., a], or None when the graph is a DAG."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack = []

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for dep in graph.get(node, []):
            if dep not in color:
                continue  # undeclared dep: reported separately
            if color[dep] == GRAY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def find_path(graph, start, goal):
    """Returns one declared path [start, ..., goal], or None."""
    parent = {start: None}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            path = []
            while node is not None:
                path.append(node)
                node = parent[node]
            return path[::-1]
        for dep in graph.get(node, []):
            if dep not in parent:
                parent[dep] = node
                frontier.append(dep)
    return None


def check(root):
    cmake_path = os.path.join(root, "CMakeLists.txt")
    src_root = os.path.join(root, "src")
    if not os.path.isfile(cmake_path) or not os.path.isdir(src_root):
        print(f"error: {root} does not look like the repo root "
              "(need CMakeLists.txt and src/)", file=sys.stderr)
        return 2

    declared = parse_declared_graph(cmake_path)
    used, layers = parse_include_graph(src_root)

    violations = []

    undeclared_layers = [l for l in layers if l not in declared]
    for layer in undeclared_layers:
        violations.append(
            f"layer '{layer}' exists under src/ but has no "
            "lalb_add_layer() declaration in CMakeLists.txt")

    dangling = [
        (layer, dep) for layer, deps in sorted(declared.items())
        for dep in deps if dep not in declared
    ]
    for layer, dep in dangling:
        violations.append(
            f"layer '{layer}' declares dependency on '{dep}', "
            "which is not a declared layer")

    cycle = find_cycle(declared)
    if cycle:
        violations.append(
            "declared dependency graph has a cycle: " + " -> ".join(cycle))

    for layer in SERVING_LAYERS:
        path = find_path(declared, layer, CNN_RUNTIME_LAYER)
        if path:
            violations.append(
                f"serving layer '{layer}' reaches '{CNN_RUNTIME_LAYER}' "
                "through declared edges: " + " -> ".join(path))

    for layer in layers:
        declared_deps = set(declared.get(layer, ()))
        for target, sites in sorted(used[layer].items()):
            if target in declared_deps:
                continue
            rel, line_no, header = sites[0]
            extra = f" (+{len(sites) - 1} more)" if len(sites) > 1 else ""
            violations.append(
                f"undeclared dependency: layer '{layer}' includes "
                f"\"{header}\" at {rel}:{line_no}{extra} but CMakeLists.txt "
                f"does not declare '{target}' as a direct dependency — "
                f"add '{target}' to lalb_add_layer({layer} ...) or drop "
                "the include")

    unused = [
        (layer, dep) for layer, deps in sorted(declared.items())
        for dep in deps
        if dep in declared and layer in used and dep not in used[layer]
    ]

    if violations:
        print(f"check_layers: {len(violations)} violation(s)")
        for v in violations:
            print(f"  FAIL {v}")
    else:
        print(f"check_layers: OK — {len(layers)} layers, "
              f"{sum(len(d) for d in declared.values())} declared edges, "
              "include graph matches")
    for layer, dep in unused:
        print(f"  info: declared edge {layer} -> {dep} has no supporting "
              "#include (kept: pruning is a human decision)")
    return 1 if violations else 0


def write_tree(root, files):
    """Writes {relative path: text} under root, creating directories."""
    for rel, text in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def self_test():
    """Builds synthetic repos that break each rule and checks that the lint
    (a) fails on them and (b) passes once they are fixed."""
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(tmp, {
            "src/base/base.h": "#pragma once\n",
            # Violation 1: net includes app/ but does not declare it.
            "src/net/net.h":
                '#pragma once\n#include "base/base.h"\n#include "app/app.h"\n',
            "src/app/app.h": '#pragma once\n#include "net/net.h"\n',
            "src/ui/ui.h": '#pragma once\n#include "app/app.h"\n',
            # Violation 2: declared graph has a cycle app -> ui -> app.
            "CMakeLists.txt":
                "lalb_add_layer(base)\n"
                "lalb_add_layer(net base)\n"
                "lalb_add_layer(app base net ui)\n"
                "lalb_add_layer(ui base app)\n",
        })
        rc_bad = check(tmp)
        if rc_bad != 1:
            print(f"self-test FAILED: violating fixture returned {rc_bad}, "
                  "expected 1", file=sys.stderr)
            return 1

        # Fix the fixture: break the cycle and drop the stray include.
        write_tree(tmp, {
            "src/net/net.h": '#pragma once\n#include "base/base.h"\n',
            "CMakeLists.txt":
                "lalb_add_layer(base)\n"
                "lalb_add_layer(net base)\n"
                "lalb_add_layer(app base net)\n"
                "lalb_add_layer(ui base app)\n",
        })
        rc_good = check(tmp)
        if rc_good != 0:
            print(f"self-test FAILED: clean fixture returned {rc_good}, "
                  "expected 0", file=sys.stderr)
            return 1

    # The serving-layer rule on its own: this fixture's include graph
    # matches its declared edges and has no cycle, so only the rule can
    # fail it.
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(tmp, {
            "src/common/common.h": "#pragma once\n",
            "src/cluster/cluster.h": '#pragma once\n#include "models/models.h"\n',
            "src/gateway/gateway.h": '#pragma once\n#include "cluster/cluster.h"\n',
            # Violation: models links the CNN runtime, so gateway ->
            # cluster -> models -> tensor.
            "src/models/models.h": '#pragma once\n#include "tensor/tensor.h"\n',
            "src/tensor/tensor.h": '#pragma once\n#include "common/common.h"\n',
            "CMakeLists.txt":
                "lalb_add_layer(common)\n"
                "lalb_add_layer(tensor common)\n"
                "lalb_add_layer(models tensor)\n"
                "lalb_add_layer(cluster models)\n"
                "lalb_add_layer(gateway cluster)\n",
        })
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_bad = check(tmp)
        print(out.getvalue(), end="")
        if rc_bad != 1 or "serving layer 'gateway' reaches 'tensor'" not in \
                out.getvalue():
            print(f"self-test FAILED: serving fixture returned {rc_bad} "
                  "without the serving-layer violation", file=sys.stderr)
            return 1

        # Fix: the runtime sits above models, where no serving layer
        # reaches it.
        write_tree(tmp, {
            "src/models/models.h": '#pragma once\n#include "common/common.h"\n',
            "src/tensor/tensor.h": '#pragma once\n#include "models/models.h"\n',
            "CMakeLists.txt":
                "lalb_add_layer(common)\n"
                "lalb_add_layer(models common)\n"
                "lalb_add_layer(tensor models)\n"
                "lalb_add_layer(cluster models)\n"
                "lalb_add_layer(gateway cluster)\n",
        })
        rc_good = check(tmp)
        if rc_good != 0:
            print(f"self-test FAILED: clean serving fixture returned {rc_good}, "
                  "expected 0", file=sys.stderr)
            return 1

    print("self-test OK: violations detected, clean fixtures pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: parent of this script's directory)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the built-in violating fixture instead of the tree")
    args = parser.parse_args()
    sys.exit(self_test() if args.self_test else check(args.root))


if __name__ == "__main__":
    main()
