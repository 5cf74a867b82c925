"""Self-tests of the layer tracer and its self-time arithmetic.

    python3 perfbench/selftest.py

`run.py --trace 1` runs them first and gives no result if one fails.
"""

from __future__ import annotations

import sys
import threading
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from layertrace import Span, Tracer, self_times  # noqa: E402

MAIN, A, B = 1, 2, 3


def spans(*items):
    return [Span(layer, thread, start, end) for layer, thread, start, end in items]


class SelfTimeArithmetic(unittest.TestCase):
    def assertTimes(self, got, want):
        for layer in set(got) | set(want):
            self.assertAlmostEqual(got.get(layer, 0.0), want.get(layer, 0.0), places=12, msg=layer)

    def test_nested_spans_on_one_thread(self):
        got = self_times(spans(
            ("runner", MAIN, 0, 10),
            ("evolve", MAIN, 1, 4),
            ("states", MAIN, 2, 3),
            ("quantifiers", MAIN, 5, 9),
            ("tomography", MAIN, 6, 8),
        ), MAIN)
        self.assertTimes(got, {"runner": 3, "evolve": 2, "states": 1, "quantifiers": 2, "tomography": 2})

    def test_siblings_that_touch_leave_no_gap(self):
        got = self_times(spans(
            ("runner", MAIN, 0, 4), ("evolve", MAIN, 0, 2), ("quantifiers", MAIN, 2, 4),
        ), MAIN)
        self.assertTimes(got, {"runner": 0, "evolve": 2, "quantifiers": 2})

    def test_caller_waits_while_workers_have_open_spans(self):
        # two pool workers overlap each other; the caller only counts the gaps
        got = self_times(spans(
            ("runner", MAIN, 0, 10),
            ("evolve", A, 1, 5),
            ("evolve", B, 2, 7),
            ("states", B, 3, 4),
            ("quantifiers", B, 7.5, 9),
        ), MAIN)
        self.assertTimes(got, {"runner": 2.5, "evolve": 8, "states": 1, "quantifiers": 1.5})

    def test_worker_spans_are_not_reduced_by_other_workers(self):
        got = self_times(spans(("evolve", A, 0, 4), ("tomography", B, 1, 3)), MAIN)
        self.assertTimes(got, {"evolve": 4, "tomography": 2})

    def test_caller_child_spans_overlapping_workers(self):
        # a write on the caller thread while a worker is busy is waiting time too
        got = self_times(spans(
            ("runner", MAIN, 0, 10),
            ("write", MAIN, 2, 6),
            ("evolve", A, 4, 8),
        ), MAIN)
        self.assertTimes(got, {"runner": 4, "write": 2, "evolve": 4})

    def test_thread_ids_reused_in_sequence(self):
        got = self_times(spans(
            ("runner", MAIN, 0, 10), ("evolve", A, 1, 2), ("evolve", A, 3, 5),
        ), MAIN)
        self.assertTimes(got, {"runner": 7, "evolve": 3})


class TracerOnTheProgram(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        import nltomo

        cls.nl = nltomo

    def test_install_reaches_every_namespace_and_uninstall_restores(self):
        nl = self.nl
        original = nl.evolve.propagate_unitary
        post_init = nl.states.DensityMatrix.__dict__["__post_init__"]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(nl.evolve.propagate_unitary, original)
            self.assertIs(nl.runner.propagate_unitary, nl.evolve.propagate_unitary)
            self.assertIs(nl.propagate_unitary, nl.evolve.propagate_unitary)
            self.assertIsNot(nl.states.DensityMatrix.__dict__["__post_init__"], post_init)
        finally:
            tracer.uninstall()
        self.assertIs(nl.evolve.propagate_unitary, original)
        self.assertIs(nl.runner.propagate_unitary, original)
        self.assertIs(nl.propagate_unitary, original)
        self.assertIs(nl.states.DensityMatrix.__dict__["__post_init__"], post_init)

    def test_spans_and_counts_at_layer_boundaries(self):
        nl = self.nl
        rho = nl.density_from_pure(nl.build_state(nl.InitialStateSpec(nl.StateKind.COHERENT, 1.0), 8))
        grid = nl.QuadratureGrid(-6.0, 6.0, 50, (0.0, 1.0, 2.0))
        tracer = Tracer()
        tracer.install()
        try:
            nl.tomogram_of_density(rho, grid)
        finally:
            tracer.uninstall()
        counts = tracer.counts()
        self.assertEqual(counts["tomography.calls"], 1)
        self.assertEqual(counts["tomography.slices"], 3)
        self.assertEqual(counts["tomography.computed_flop"], 3 * 8 * 50 * 8 * 8)
        self.assertEqual([s.layer for s in tracer.spans()], ["tomography"])
        self.assertEqual(tracer.spans()[0].thread, threading.get_ident())

    def test_named_counters(self):
        nl = self.nl
        tracer = Tracer()
        tracer.install()
        try:
            nl.tomography.hermite_basis(4, np.zeros(3))
            nl.evolve.expm(np.zeros((2, 2)))
            nl.evolve.expm(np.zeros((2, 2)))
        finally:
            tracer.uninstall()
        counts = tracer.counts()
        self.assertEqual(counts["tomography.basis_builds"], 1)
        self.assertEqual(counts["evolve.expm_calls"], 2)


def run() -> bool:
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
