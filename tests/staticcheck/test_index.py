"""Unit tests for the project index and call graph."""

import textwrap

from repro.staticcheck.callgraph import CallGraph, node_key
from repro.staticcheck.engine import parse_module
from repro.staticcheck.index import ProjectIndex, build_summary


def summarize(relpath, source):
    module = parse_module(textwrap.dedent(source), relpath, relpath)
    assert module is not None
    return build_summary(module)


def project(*files):
    return ProjectIndex([summarize(rp, src) for rp, src in files])


class TestImportGraph:
    def _project(self):
        return project(
            ("pkg/a.py", "import pkg.b\n"),
            ("pkg/b.py", "from . import c\n"),
            ("pkg/c.py", "x = 1\n"),
        )

    def test_module_names(self):
        idx = self._project()
        assert idx.files["pkg/a.py"].module == "pkg.a"
        assert idx.resolve_module("pkg.b") == "pkg/b.py"

    def test_relative_import_resolved(self):
        idx = self._project()
        assert "pkg.c" in idx.files["pkg/b.py"].imports


THREADS_SRC = """
    import threading


    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self.ready = threading.Event()
            self.ticks = 0

        def start(self):
            t = threading.Thread(target=self.loop)
            t.start()

        def loop(self):
            self.ticks += 1

        def helper(self):
            return self.ticks


    class Puller(threading.Thread):
        def run(self):
            self.items = []
"""


class TestThreadSeeding:
    def _graph(self):
        idx = project(("w.py", THREADS_SRC))
        return idx, CallGraph(idx)

    def test_thread_target_and_run_are_seeds(self):
        _idx, graph = self._graph()
        seeds = graph.thread_seeds()
        assert node_key("w.py", "Worker", "loop") in seeds
        assert node_key("w.py", "Puller", "run") in seeds
        assert node_key("w.py", "Worker", "helper") not in seeds
        assert node_key("w.py", "Worker", "start") not in seeds

    def test_lock_and_event_inventories(self):
        idx, _graph = self._graph()
        worker = idx.files["w.py"].classes["Worker"]
        assert "_lock" in worker.locks
        assert "ready" in worker.events
        assert "ticks" not in worker.locks

    def test_handler_methods_reach_helpers(self):
        idx = project(
            (
                "h.py",
                """
                from http.server import BaseHTTPRequestHandler


                class Api(BaseHTTPRequestHandler):
                    def do_GET(self):
                        self.respond()

                    def respond(self):
                        pass


                def unrelated():
                    pass
                """,
            )
        )
        graph = CallGraph(idx)
        reach = graph.handler_reachable()
        assert node_key("h.py", "Api", "do_GET") in reach
        assert node_key("h.py", "Api", "respond") in reach
        assert node_key("h.py", None, "unrelated") not in reach


class TestCallResolution:
    def _graph(self):
        idx = project(
            (
                "c.py",
                """
                class Engine:
                    def step(self):
                        return helper()


                def helper():
                    return 1


                def drive(engine: Engine):
                    engine.step()
                """,
            )
        )
        return CallGraph(idx)

    def test_bare_name_resolves_to_module_function(self):
        graph = self._graph()
        key = graph.resolve_call(["dotted", "helper"], "c.py", "Engine")
        assert key == node_key("c.py", None, "helper")

    def test_annotated_receiver_resolves_method(self):
        graph = self._graph()
        key = graph.resolve_call(
            ["method", ["name", "Engine"], "step"], "c.py", None
        )
        assert key == node_key("c.py", "Engine", "step")

    def test_external_call_unresolved(self):
        graph = self._graph()
        assert graph.resolve_call(["dotted", "os.getcwd"], "c.py", None) is None

    def test_edges_connect_drive_to_step(self):
        graph = self._graph()
        targets = [
            target
            for _site, target in graph.edges()[node_key("c.py", None, "drive")]
        ]
        assert node_key("c.py", "Engine", "step") in targets

    def test_lock_id_normalizes_attr_chain(self):
        idx = project(("w.py", THREADS_SRC))
        graph = CallGraph(idx)
        assert graph.lock_id("self._lock", "w.py", "Worker", "loop") == (
            "w.py::Worker._lock"
        )
