"""The product / laboratory boundary, held from outside.

``import repro.broker`` must load what a message touches — not the
model, the discrete-event substrate, the analysis, the testbed, the bench
suites, numpy or scipy.  The table lives in ``tools/check_static.py``
(``IMPORT_CLOSURE`` / ``LABORATORY``, beside ``IMPORT_SMOKE``); this file
holds every product package to its row, imports each subpackage alone,
checks that a bare ``import repro`` loads nothing, and runs the product
with scipy blocked — the configuration ``pyproject.toml`` promises — and
with numpy blocked too.  Every check needs a fresh interpreter:
in-process, the rest of tier-1 has long since imported everything.
"""

import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SUBPACKAGES = sorted(
    f"repro.{path.parent.name}" for path in (REPO_ROOT / "src" / "repro").glob("*/__init__.py")
)

sys.path.insert(0, str(REPO_ROOT / "tools"))
try:
    import check_static
finally:
    sys.path.pop(0)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def test_the_table_names_the_product_and_the_laboratory():
    """Loosening a ceiling or dropping a prefix is a visible diff here."""
    assert check_static.IMPORT_CLOSURE == {
        "repro.broker": (28, 119),
        "repro.durability": (35, 133),
        "repro.replication": (41, 143),
        "repro.mesh": (52, 155),
        "repro.overload": (34, 122),
    }
    assert set(check_static.IMPORT_CLOSURE) <= set(SUBPACKAGES)
    assert set(check_static.LABORATORY) == {
        "numpy",
        "scipy",
        "repro.core",
        "repro.simulation",
        "repro.analysis",
        "repro.architectures",
        "repro.testbed",
        "repro.bench",
        "repro.statics",
        "repro.faults",
        "repro.resilience",
        "repro.chaos",
    }


def test_the_gate_sees_a_laboratory_module_and_a_broken_ceiling():
    clean = ["repro", "repro.broker", "repro.rng", "json"]
    assert check_static.closure_findings("repro.broker", clean) == []
    leaky = clean + [
        "repro.core",
        "numpy",
        "scipy",
        "scipy.special",
        "repro.analysis.fig10",
        "repro.simulation.engine",
        "repro.benchmark",
    ]
    assert check_static.closure_findings("repro.broker", leaky) == [
        "repro.broker loads repro.core",
        "repro.broker loads numpy",
        "repro.broker loads scipy",
        "repro.broker loads scipy.special",
        "repro.broker loads repro.analysis.fig10",
        "repro.broker loads repro.simulation.engine",
    ]
    crowded = clean + [f"repro.broker.m{n}" for n in range(40)] + [f"m{n}" for n in range(200)]
    assert check_static.closure_findings("repro.broker", crowded) == [
        "repro.broker loads 43 repro modules > 28",
        "repro.broker loads 244 modules > 119",
    ]


@pytest.fixture(scope="module")
def alone():
    """``sys.modules`` (or the ``ImportError``) of every subpackage imported
    alone — one interpreter each, two at a time: the box has two cores and
    the laboratory packages take 0.8 s to import."""

    def attempt(package):
        try:
            return check_static.loaded_modules(package)
        except ImportError as error:
            return error

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(SUBPACKAGES, pool.map(attempt, SUBPACKAGES)))


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_imports_alone_and_inside_its_closure(alone, package):
    """With no eager top-level import, order matters, and ``IMPORT_SMOKE``'s
    single interpreter cannot see a cycle that a sibling's earlier import
    hides."""
    modules = alone[package]
    assert not isinstance(modules, ImportError), modules
    assert package in modules
    if package in check_static.IMPORT_CLOSURE:
        assert check_static.closure_findings(package, modules) == []


def test_the_model_loads_no_broker(alone):
    """``repro.core`` keys its cost rows by ``FilterType``, which lives in
    the leaf ``repro.filter_type``: the model imports without running the
    broker's package root."""
    assert [m for m in alone["repro.core"] if m.startswith("repro.broker")] == []
    assert "repro.filter_type" in alone["repro.core"]


def test_the_static_analyzer_loads_no_broker(alone):
    """``repro check`` renders its findings like ``repro lint`` through the
    leaf ``repro.diagnostics``: linting source text runs no broker code."""
    assert [m for m in alone["repro.statics"] if m.startswith("repro.broker")] == []
    assert "repro.diagnostics" in alone["repro.statics"]


def test_a_start_up_hook_does_not_count_against_the_package(tmp_path, monkeypatch):
    """What a ``sitecustomize`` (or a ``.pth`` file) imports belongs to the
    machine: counted, it would push every package over its ceiling."""
    (tmp_path / "sitecustomize.py").write_text("import xml.dom.minidom\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    modules = check_static.loaded_modules("repro.broker")
    assert "repro.broker" in modules
    assert "sitecustomize" not in modules
    assert "xml.dom.minidom" not in modules


# ----------------------------------------------------------------------
# a bare ``import repro`` loads nothing
# ----------------------------------------------------------------------
def test_a_bare_import_loads_nothing(run_fresh):
    run_fresh(
        """
import sys
import repro
assert [m for m in sys.modules if m.startswith("repro.")] == []
assert "numpy" not in sys.modules
"""
    )


# ----------------------------------------------------------------------
# one lifecycle of each benchmark stack: numpy- and scipy-free, and no deferred
# import fires inside what the benchmark times
# ----------------------------------------------------------------------
BUILD_STACKS = """
import sys
from repro.broker import Broker, Message, PropertyFilter, QueueConsumer
from repro.durability import Journal, SimulatedDisk, SyncPolicy
from repro.mesh import ShardedBroker
from repro.replication import ReplicatedPair, ReplicationConfig

fanout = Broker(topics=["ticks"])
for n in range(200):
    subscriber = fanout.add_subscriber(f"s{n}")
    fanout.subscribe(subscriber, "ticks", PropertyFilter(f"tier = 'gold' AND score > {n}"))
fanout.install_dispatch_memo(1024)

durable = Broker(journal=Journal(SimulatedDisk(), sync=SyncPolicy.always(), segment_bytes=4096))
orders = durable.queues.create("orders")
worker = QueueConsumer("worker")
orders.attach(worker)

pair = ReplicatedPair(
    ReplicationConfig(mode="sync", ship_interval=1e-3, link_delay=5e-4, segment_bytes=4096), seed=1
)
replicated = pair.primary.queues.create("orders")
replica_worker = QueueConsumer("worker")
replicated.attach(replica_worker)

mesh = ShardedBroker(
    ("s0", "s1", "s2", "s3"), sync=SyncPolicy.group_commit(), segment_bytes=4096, hop_latency=1e-4
)
mesh_workers = {}
for n in range(8):
    mesh.create_queue(f"q{n}")
    mesh_workers[f"q{n}"] = QueueConsumer(f"worker-q{n}")
    mesh.attach_consumer(f"q{n}", mesh_workers[f"q{n}"])
mesh.subscribe("reader", "news", PropertyFilter("tier = 'gold'"))
"""

DRIVE_LIFECYCLES = """
result = fanout.publish(Message(topic="ticks", properties={"tier": "gold", "score": 120}, body=b"x"))
assert result.copies_delivered == 120, result.copies_delivered

orders.send(Message(topic="orders", properties={"n": 1}, body=b"y" * 1024))
worker.ack(worker.receive())
durable.journal.checkpoint([])

now, lsn = 0.0, pair.journal.records_appended
replicated.send(Message(topic="orders", properties={"n": 2}, body=b"z" * 64), now)
while pair.acked_records(now) <= lsn:  # RPO = 0: the standby has the PUBLISH
    now += 1e-3
    pair.tick(now)
replica_worker.ack(replica_worker.receive())
pair.tick(now + 1e-3)

for n in range(8):
    batch = [Message(topic=f"q{n}", properties={"k": k}, body=b"b") for k in range(4)]
    assert mesh.send_batch(f"q{n}", batch, 1.0) == 4
    for _ in batch:
        mesh_workers[f"q{n}"].ack(mesh_workers[f"q{n}"].receive())
mesh.publish_batch([Message(topic="news", properties={"tier": "gold"}, body=b"n")], 2.0)
assert mesh.mesh_ledger().conserved
"""


def test_no_import_fires_inside_a_lifecycle(run_fresh):
    """``sys.modules`` after one lifecycle of each of the four stacks is
    what it was after building them: nothing deferred lands in timed code."""
    run_fresh(
        BUILD_STACKS
        + "before = set(sys.modules)\n"
        + DRIVE_LIFECYCLES
        + "assert set(sys.modules) == before, sorted(set(sys.modules) - before)\n"
        + "assert 'scipy' not in sys.modules\n"
    )


def test_the_product_runs_with_scipy_blocked(run_fresh):
    """Blocking the name is the whole fixture: ``sys.modules["scipy"] =
    None`` makes every ``import scipy`` raise, as on a box without it."""
    run_fresh(
        'import sys\nsys.modules["scipy"] = None\n'
        "import repro, repro.broker, repro.durability, repro.replication, repro.mesh\n"
        "import repro.overload, repro.simulation, repro.statics, repro.cli\n"
        + BUILD_STACKS
        + DRIVE_LIFECYCLES
        + """
import contextlib, io
from repro.cli import main
from repro.core import FittedGamma

with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["check", "--require"]) == 0, out.getvalue()
    assert main(["lint", "--example"]) in (0, 1), out.getvalue()  # 1: the demo has warnings
fit = FittedGamma.from_mean_cvar(1.0, 0.5)
assert abs(fit.mean - 1.0) < 1e-12  # fitting needs no scipy
try:
    fit.ppf(0.99)
except ImportError as error:
    assert "repro[fast]" in str(error), error
else:
    raise AssertionError("ppf answered without scipy")
"""
    )


def test_the_product_runs_with_numpy_blocked(run_fresh):
    """No fault is armed, so no seeded stream is asked for and numpy is
    never imported: the four stacks build and run a lifecycle each on an
    install without numpy or scipy."""
    run_fresh(
        'import sys\nsys.modules["numpy"] = None\nsys.modules["scipy"] = None\n'
        + BUILD_STACKS
        + DRIVE_LIFECYCLES
    )
