"""Self-time arithmetic over nested and threaded spans, and binding patches."""

import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from rsbench.trace import Tracer, layer_metrics, per_call  # noqa: E402


class FakeClock:
    """A clock that moves only when the traced code says so."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _by_name(tracer):
    return {sp.name: sp for sp in tracer.spans}


def test_nested_spans_subtract_children_on_the_same_thread():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap("inner", lambda: clock.advance(2.0))

    def body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(0.5)

    tracer.wrap("outer", body)()
    spans = _by_name(tracer)
    assert spans["outer"].end - spans["outer"].start == pytest.approx(5.5)
    assert spans["outer"].self_s == pytest.approx(1.5)
    assert spans["inner"].self_s == pytest.approx(2.0)
    assert spans["inner"].parent == spans["outer"].span_id
    assert spans["outer"].parent is None


def test_pool_thread_spans_do_not_reduce_the_waiting_parent():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(0.25))

    def work():
        clock.advance(2.0)
        leaf()

    child = tracer.wrap("child", work)

    def body():
        clock.advance(1.0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(child).result(timeout=10)
        clock.advance(0.5)

    tracer.wrap("parent", body)()
    spans = _by_name(tracer)
    # the parent waited for the pool: that time stays in its self time
    assert spans["parent"].self_s == pytest.approx(3.75)
    assert spans["child"].self_s == pytest.approx(2.0)
    assert spans["leaf"].self_s == pytest.approx(0.25)
    assert spans["child"].thread != spans["parent"].thread
    assert spans["child"].parent is None
    assert spans["leaf"].parent == spans["child"].span_id


def test_failed_call_is_still_a_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom, counter=lambda a, k, r: {"n": 1})()
    (span,) = tracer.spans
    assert span.self_s == pytest.approx(1.0) and span.counts == {}


def test_per_call_groups_by_call_and_sums_counts():
    tracer = Tracer(FakeClock())
    f = tracer.wrap("f", lambda n: n, counter=lambda a, k, r: {"items": r})
    tracer.call_id = 1
    f(3)
    f(4)
    tracer.call_id = 2
    f(5)
    calls = per_call(tracer.spans)
    assert calls[1]["f"]["calls"] == 2 and calls[1]["f"]["items"] == 7
    assert calls[2]["f"] == {"calls": 1, "self_s": 0.0, "items": 5}


@pytest.fixture
def fake_package():
    """``fakepkg``: cli binds spectra's function by name, and the package
    re-exports ``simulate`` over its own submodule, as rotor_spectra does."""
    names = ["fakepkg", "fakepkg.spectra", "fakepkg.simulate", "fakepkg.cli"]
    pkg, spectra, simulate, cli = (types.ModuleType(n) for n in names)

    def spectrum(k):
        return k * 2

    def _private(k):
        return k

    def run(k):
        return k + 1

    def main(k):
        return cli.spectrum(k) + cli.run(k)

    for mod, fns in ((spectra, [spectrum, _private]), (simulate, [run]), (cli, [main])):
        for fn in fns:
            fn.__module__ = mod.__name__
            setattr(mod, fn.__name__, fn)
    cli.spectrum, cli.run = spectrum, run
    pkg.spectrum, pkg.simulate = spectrum, run
    sys.modules.update(zip(names, (pkg, spectra, simulate, cli)))
    yield pkg, spectra, simulate, cli
    for n in names:
        del sys.modules[n]


def test_install_patches_every_binding_and_uninstall_restores(fake_package):
    pkg, spectra, simulate, cli = fake_package
    originals = (spectra.spectrum, simulate.run, cli.main)
    tracer = Tracer()
    tracer.install("fakepkg")
    assert cli.main(3) == 10
    assert pkg.spectrum(1) == 2 and pkg.simulate(1) == 2
    names = [sp.name for sp in tracer.spans]
    assert sorted(names) == sorted(["spectra.spectrum", "simulate.run", "cli.main",
                                    "spectra.spectrum", "simulate.run"])
    assert spectra._private(1) == 1 and len(tracer.spans) == 5
    assert tracer.probes == {"spectra.spectrum": (), "simulate.run": (), "cli.main": ()}
    tracer.uninstall()
    assert (spectra.spectrum, simulate.run, cli.main) == originals
    assert cli.spectrum is originals[0] and pkg.simulate is originals[1]


def test_layer_metrics_counts_first_call_and_median_self_times():
    calls = [
        {"writers.write_a": {"calls": 1, "self_s": 1.0, "bytes": 10, "files": 1},
         "spectra.f": {"calls": 3, "self_s": 0.5, "n3_sum": 27}},
        {"writers.write_a": {"calls": 1, "self_s": 3.0, "bytes": 12, "files": 1},
         "writers.write_b": {"calls": 1, "self_s": 1.0, "bytes": 5, "files": 1}},
        {"writers.write_a": {"calls": 1, "self_s": 2.0, "bytes": 11, "files": 1},
         "spectra.f": {"calls": 3, "self_s": 0.7, "n3_sum": 27}},
    ]
    probes = {"writers.write_a": ("bytes", "files"), "writers.write_b": ("bytes", "files"),
              "spectra.f": ("n3_sum",), "spectra.never": ("n3_sum",)}
    out = layer_metrics(calls, probes)
    assert out["spectra.f.calls"] == 3 and out["spectra.f.n3_sum"] == 27
    assert out["spectra.f.self_s"] == 0.5                # median of 0.5, 0.0, 0.7
    assert out["writers.write_a.self_s"] == 2.0
    assert out["writers.write_b.calls"] == 0             # not called in the first call
    assert out["writers.write_b.self_s"] == 0.0
    assert out["writers.self_s"] == 2.0                  # median of 1.0, 4.0, 2.0
    assert (out["writers.bytes"], out["writers.files"]) == (10, 1)
    with pytest.raises(ValueError):
        layer_metrics([], probes)


def test_layer_metrics_zero_only_for_wrapped_functions():
    out = layer_metrics([{"spectra.f": {"calls": 1, "self_s": 0.5}}], {"spectra.never": ("n3_sum",)})
    assert (out["spectra.never.calls"], out["spectra.never.self_s"],
            out["spectra.never.n3_sum"]) == (0, 0.0, 0)
    assert not any(k.startswith("spectra.renamed") for k in out)


def test_every_per_layer_metric_has_a_probe_in_the_package():
    import json

    import rotor_spectra.cli  # noqa: F401

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    out = layer_metrics([{}], tracer.probes)
    # set by the run itself, not by a wrapped function
    run_level = {"cli.import_s", "host.ref_kernel_s", "trace.overhead_frac",
                 "simulate.arg_err_ratio_256_128"}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in out | dict.fromkeys(run_level)]
    assert missing == []
