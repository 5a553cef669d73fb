"""Fuzz the exit-code contract of every subcommand.

Each example starts from a valid input file (a structure, a pointed or an
additive functor, a par base category, an idempotent list), changes one JSON
leaf or key, and runs every command that reads that file.  Whatever the
change, `main` must return 0, 2 or 3 without raising, and a failure prints
exactly one line: its error as one JSON object.  A success, run again, must
print the same stdout and write the same bytes.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dkequiv.builders import build_delta_bt, build_fi_input, build_fi_sharp
from dkequiv.cli import main
from dkequiv.equivalence import build_kernel_module, hat
from dkequiv.functors import random_pointed_functor


def _documents():
    s = build_delta_bt(3)
    km = build_kernel_module(s, validate=False)
    pointed = random_pointed_functor(km.d, (1, 2, 1), seed=5)
    return {
        "structure": s.to_jsonable(),
        "fi_structure": build_fi_sharp(2).to_jsonable(),
        "pointed": pointed.to_jsonable(category="structure.json"),
        "additive": hat(km, pointed).to_jsonable(category="structure.json"),
        "par_base": build_fi_input(1).to_jsonable(),
        "idempotents": {"matrices": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
            [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        ]},
    }


DOCS = _documents()

# the commands that read each document, {f} standing for the mutated file
COMMANDS = {
    "structure": [
        ["check", "{f}"],
        ["certify", "--category", "{f}", "--seeds", "1", "--dims-max", "1",
         "--out", "{out}/cert.json"],
        ["transport", "hat", "--category", "{f}", "--functor", "{dir}/pointed.json",
         "--out", "{out}/hat.json"],
        ["theta", "--category", "{f}", "--functor", "{dir}/additive.json",
         "--out", "{out}/theta.json"],
    ],
    "fi_structure": [
        ["check", "{f}"],
        ["certify", "--category", "{f}", "--seeds", "1", "--dims-max", "1",
         "--out", "{out}/cert.json"],
    ],
    "pointed": [
        ["transport", "hat", "--category", "{dir}/structure.json", "--functor", "{f}",
         "--out", "{out}/hat.json"],
    ],
    "additive": [
        ["transport", "tilde", "--category", "{dir}/structure.json", "--functor", "{f}",
         "--out", "{out}/tilde.json"],
        ["theta", "--category", "{dir}/structure.json", "--functor", "{f}",
         "--out", "{out}/theta.json"],
    ],
    "par_base": [["example", "par", "--base", "{f}", "--out", "{out}"]],
    "idempotents": [["idem", "--input", "{f}", "--out", "{out}/idem.json"]],
}


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


PATHS = {name: sorted(_paths(doc), key=repr) for name, doc in DOCS.items()}

MUTATIONS = (
    "delete", "rename_key", "null", "wrap_in_list", "wrap_in_object", "float",
    "bool", "to_string", "1/0", "minus_one", "negative", "out_of_range",
    "truncate",
)


def _mutate(doc, path, how):
    """doc with the value at path changed by `how`; the input is not touched."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return {"delete": None, "wrap_in_list": [doc], "to_string": "x"}.get(how, 7)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if how == "delete":
        del parent[key]
    elif how == "rename_key" and isinstance(parent, dict):
        parent[key + "_"] = parent.pop(key)
    elif how == "truncate" and isinstance(value, list):
        parent[key] = value[:-1]
    else:
        parent[key] = {
            "null": None,
            "wrap_in_list": [value],
            "wrap_in_object": {"value": value},
            "float": 1.5,
            "bool": True,
            "to_string": value if isinstance(value, str) else json.dumps(value),
            "1/0": "1/0",
            "minus_one": -1,
            "negative": -7,
            "out_of_range": 999,
        }.get(how, [])
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, doc in DOCS.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    (d / "out").mkdir()
    return d


@pytest.mark.parametrize("name", sorted(DOCS))
@settings(
    max_examples=80, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_mutation_exits_0_2_or_3(workdir, name, data):
    path = data.draw(st.sampled_from(PATHS[name]), label="path")
    how = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    mutated = workdir / f"mutated_{name}.json"
    mutated.write_text(json.dumps(_mutate(DOCS[name], path, how)))
    for template in COMMANDS[name]:
        argv = [a.format(f=mutated, dir=workdir, out=workdir / "out")
                for a in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3), argv
        assert err.getvalue() == ""
        if rc:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1, argv
            assert set(json.loads(lines[0])) == {"error", "witness"}, argv


def _run_capturing(argv, out_dir):
    """main(argv) on an empty out_dir: exit code, stdout and written bytes."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    written = {str(p.relative_to(out_dir)): p.read_bytes()
               for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return rc, out.getvalue(), written


@pytest.mark.parametrize("name", sorted(DOCS))
@settings(
    max_examples=80, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_success_is_deterministic(workdir, name, data):
    """Run twice, an exit-0 command prints the same stdout and writes the
    same bytes."""
    path = data.draw(st.sampled_from(PATHS[name]), label="path")
    how = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    mutated = workdir / f"repeated_{name}.json"
    mutated.write_text(json.dumps(_mutate(DOCS[name], path, how)))
    out_dir = workdir / "repeated_out"
    for template in COMMANDS[name]:
        argv = [a.format(f=mutated, dir=workdir, out=out_dir) for a in template]
        first = _run_capturing(argv, out_dir)
        if first[0] == 0:
            assert _run_capturing(argv, out_dir) == first, argv
