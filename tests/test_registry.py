"""The scheduler registry: registration, lookup, and metadata completeness."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.exceptions import RegistrationError, UnknownSchedulerError
from repro.registry import (
    REGISTRY,
    SchedulerInfo,
    SchedulerRegistry,
    create_scheduler,
    register_scheduler,
    registry_rows,
    resolve_scheduler_name,
    scheduler_info,
    scheduler_names,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CANONICAL = [
    "drf",
    "efficiency-max",
    "gandiva-fair",
    "gavel",
    "max-min",
    "nash-welfare",
    "oef-coop",
    "oef-noncoop",
]


class TestDefaultRegistry:
    def test_every_builtin_is_registered(self):
        assert set(CANONICAL) <= set(scheduler_names())
        assert len(REGISTRY) >= 8

    def test_names_are_sorted(self):
        names = scheduler_names()
        assert names == sorted(names)

    def test_alias_lookup(self):
        assert resolve_scheduler_name("cooperative") == "oef-coop"
        assert resolve_scheduler_name("noncooperative") == "oef-noncoop"
        assert resolve_scheduler_name("gandiva") == "gandiva-fair"
        assert resolve_scheduler_name("maxmin") == "max-min"

    def test_canonical_name_resolves_to_itself(self):
        for name in CANONICAL:
            assert resolve_scheduler_name(name) == name

    def test_contains_accepts_aliases(self):
        assert "coop" in REGISTRY
        assert "oef-coop" in REGISTRY
        assert "fifo" not in REGISTRY

    def test_create_returns_fresh_instances(self):
        first = create_scheduler("max-min")
        second = create_scheduler("max-min")
        assert isinstance(first, Allocator)
        assert first is not second

    def test_create_forwards_constructor_options(self):
        gavel = create_scheduler("gavel", slack=0.5)
        assert gavel.slack == 0.5
        gandiva = create_scheduler("gandiva", trade_lot=0.25)
        assert gandiva.trade_lot == 0.25

    def test_unknown_name_error_message(self):
        with pytest.raises(UnknownSchedulerError) as excinfo:
            create_scheduler("fifo")
        message = str(excinfo.value)
        assert "unknown scheduler 'fifo'" in message
        assert "choose from" in message
        assert "oef-coop" in message

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(UnknownSchedulerError, match="did you mean 'oef-coop'"):
            resolve_scheduler_name("oef-cop")

    def test_unknown_name_is_a_key_error(self):
        # call sites that treat the registry as a mapping keep working
        with pytest.raises(KeyError):
            scheduler_info("fifo")

    def test_metadata_completeness(self):
        for name in CANONICAL:
            info = scheduler_info(name)
            assert info.name == name
            assert info.description, name
            assert info.family in {"oef", "baseline", "bound"}, name
            assert info.pe_within in {None, "envy_free", "equal_throughput"}
            assert info.efficiency_constraint in {
                "none",
                "envy_free",
                "equal_throughput",
                "sharing_incentive",
            }
            assert isinstance(info.supports_weights, bool)
            assert isinstance(info.supports_job_level, bool)
            # the class-side hook points back at the registry record
            assert info.factory.metadata is info
            assert info.factory.describe() is info

    def test_audit_policy_defaults(self):
        coop = scheduler_info("oef-coop")
        assert coop.pe_within == "envy_free"
        assert coop.efficiency_constraint == "envy_free"
        noncoop = scheduler_info("oef-noncoop")
        assert noncoop.pe_within == "equal_throughput"
        assert noncoop.efficiency_constraint == "equal_throughput"
        maxmin = scheduler_info("max-min")
        assert maxmin.pe_within is None
        assert maxmin.efficiency_constraint == "envy_free"

    def test_oef_capability_flags(self):
        for name in ("oef-coop", "oef-noncoop"):
            info = scheduler_info(name)
            assert info.supports_weights and info.supports_job_level
        for name in ("max-min", "gavel", "gandiva-fair", "drf"):
            info = scheduler_info(name)
            assert not info.supports_weights and not info.supports_job_level

    def test_rows_render_one_per_scheduler(self):
        rows = registry_rows()
        assert len(rows) == len(REGISTRY)
        names = [row["name"] for row in rows]
        assert set(CANONICAL) <= set(names)
        for row in rows:
            assert {"name", "family", "aliases", "pe domain", "efficiency vs"} <= set(row)

    def test_unregistered_allocator_describe_raises(self):
        class Anonymous(Allocator):
            name = "anonymous"

            def allocate(self, instance) -> Allocation:  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(LookupError, match="not registered"):
            Anonymous.describe()

    def test_unregistered_subclass_does_not_inherit_metadata(self):
        from repro.baselines import GandivaFair

        class Derived(GandivaFair):
            name = "derived-gandiva"

        # the inherited metadata describes the parent, not the subclass
        with pytest.raises(LookupError, match="not registered"):
            Derived.describe()
        assert GandivaFair.describe().name == "gandiva-fair"

    def test_first_lookups_from_many_threads_all_see_every_builtin(self):
        # the lazy builtin load must finish before any thread's lookup
        # answers; it used to answer "unknown scheduler" mid-load
        code = (
            "import threading\n"
            "from repro.registry import REGISTRY\n"
            "barrier = threading.Barrier(4)\n"
            "errors = []\n"
            "def probe():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        REGISTRY.resolve('gavel')\n"
            "    except Exception as exc:\n"
            "        errors.append(exc)\n"
            "threads = [threading.Thread(target=probe) for _ in range(4)]\n"
            "for thread in threads: thread.start()\n"
            "for thread in threads: thread.join()\n"
            "print(errors)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        ))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestPrivateRegistry:
    def _dummy(self, registry, name="dummy", aliases=()):
        @register_scheduler(
            name=name, aliases=aliases, registry=registry, description="a dummy"
        )
        class Dummy(Allocator):
            def allocate(self, instance) -> Allocation:  # pragma: no cover
                raise NotImplementedError

        return Dummy

    def test_register_and_create(self):
        registry = SchedulerRegistry()
        cls = self._dummy(registry, aliases=("dm",))
        assert registry.resolve("dm") == "dummy"
        assert isinstance(registry.create("dummy"), cls)
        assert registry.names() == ["dummy"]

    def test_duplicate_name_rejected(self):
        registry = SchedulerRegistry()
        self._dummy(registry)
        with pytest.raises(RegistrationError, match="already registered"):
            self._dummy(registry)

    def test_alias_clash_rejected(self):
        registry = SchedulerRegistry()
        self._dummy(registry, name="one", aliases=("shared",))
        with pytest.raises(RegistrationError, match="already\\s+taken|already "):
            self._dummy(registry, name="two", aliases=("shared",))

    def test_default_name_requires_distinctive_attribute(self):
        registry = SchedulerRegistry()
        with pytest.raises(RegistrationError, match="name"):

            @register_scheduler(registry=registry)
            class Nameless(Allocator):
                def allocate(self, instance) -> Allocation:  # pragma: no cover
                    raise NotImplementedError

    def test_unregister(self):
        registry = SchedulerRegistry()
        self._dummy(registry, aliases=("dm",))
        registry.unregister("dm")
        assert "dummy" not in registry
        assert len(registry) == 0

    def test_failed_builtin_load_is_retried_not_masked(self, monkeypatch):
        import repro.registry as registry_module

        registry = SchedulerRegistry(load_builtins=True)
        monkeypatch.setattr(
            registry_module, "_BUILTIN_MODULES", ("definitely_missing_module_xyz",)
        )
        with pytest.raises(ImportError):
            registry.names()
        # the second call must re-raise the real error, not report an
        # empty registry where every scheduler is "unknown"
        with pytest.raises(ImportError):
            registry.names()
        monkeypatch.setattr(registry_module, "_BUILTIN_MODULES", ())
        assert registry.names() == []

    def test_info_is_frozen(self):
        registry = SchedulerRegistry()
        self._dummy(registry)
        info = registry.info("dummy")
        assert isinstance(info, SchedulerInfo)
        with pytest.raises(AttributeError):
            info.name = "other"
