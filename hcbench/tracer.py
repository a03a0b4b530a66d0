"""Spans around calls into the hypercircle modules' public functions.

The tracer patches module attributes from outside the program: every
`hypercircle.*` module that holds the function, whether it defined it or
bound it by `from ... import`, gets the wrapper.  Per function it keeps
`calls`, inclusive time `s` (outermost activation only, so recursion is
not counted twice) and `self_s` (span time minus the time of its child
spans).  Each op runs inside a root span named `cli`, so the self times
of one op sum to its wall time.
"""

import sys
import time
from fractions import Fraction

# Module -> public functions wrapped in spans.  Functions called once per
# term or coefficient (kernel, mpoly, render) are left to the cProfile
# shares, where a span would cost more than the work it measures.
SPANS = {
    "exprparse": ("build_problem", "parse_curve_file", "parse_polynomial",
                  "parse_component"),
    "descent": ("witness_ideal", "weil_substitute", "alpha_decompose"),
    "groebner": ("buchberger", "saturate", "eliminate", "dimension",
                 "linear_part", "triangular_solve", "rational_solutions",
                 "normal_form", "ideal_equal"),
    "upoly": ("bareiss_det", "rational_roots", "resultant"),
    "fields": ("make_extension", "is_irreducible", "roots_in_field",
               "primitive_element", "relative_min_poly", "min_poly_over_q"),
    "hypercircles": ("points_at_infinity", "hypercircle_degree_field",
                     "unit_to_hypercircle", "primitive_infinity_point"),
    "reparam": ("optimal_affine_reparametrize", "parametrize_line",
                "verify_reparametrization", "coefficient_field_degree"),
    "numtheory": ("factorize", "is_prime", "squarefree_part",
                  "next_prime_in_class", "crt_class", "crt_solve"),
    "quadfields": ("prime_set", "crt_set", "parametrization_fields",
                   "verify_pairwise_distinct"),
}
ROOT = "cli"
# Time the tracer spends on its own Groebner counters, kept out of the
# spans so that it does not inflate `buchberger` or its caller.
HOOK = "tracer"


def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max((_coeff_bits(x) for x in c.coeffs), default=0)


class Tracer:
    """Span and counter state of one worker process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}      # label -> [calls, s, self_s]
        self._frames = []    # child time accumulated per open span
        self._depth = {}
        self._seen_gb = set()
        self.gb_repeats = 0
        self.gb_basis_max = 0
        self.gb_bits_max = 0

    def _enter(self, label):
        self._frames.append(0.0)
        self._depth[label] = self._depth.get(label, 0) + 1

    def _leave(self, label, dt):
        child = self._frames.pop()
        if self._frames:
            self._frames[-1] += dt
        st = self.stats.setdefault(label, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dt - child
        depth = self._depth[label] - 1
        self._depth[label] = depth
        if depth == 0:
            st[1] += dt

    def _charge_hook(self, dt):
        """Book counter upkeep as its own span under the current one."""
        st = self.stats.setdefault(HOOK, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt
        if self._frames:
            self._frames[-1] += dt

    def run_op(self, fn, *args):
        """fn(*args) inside the root span; Groebner repeats are per op."""
        self._seen_gb = set()
        self._enter(ROOT)
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            self._leave(ROOT, self.clock() - t0)

    def wrap(self, label, fn):
        clock = self.clock
        enter, leave = self._enter, self._leave

        def span(*args, **kwargs):
            enter(label)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(label, clock() - t0)

        span.__wrapped__ = fn
        return span

    def wrap_buchberger(self, fn):
        """Span plus the repeat, basis-size and coefficient-height
        counters, read from the arguments and the returned basis."""
        inner = self.wrap("buchberger", fn)
        clock = self.clock

        def buchberger(gens, *args, **kwargs):
            h0 = clock()
            order = args[0] if args else kwargs.get("order")
            key = (repr(order), frozenset(
                frozenset(g.terms.items()) for g in gens if not g.is_zero()))
            if key in self._seen_gb:
                self.gb_repeats += 1
            self._seen_gb.add(key)
            h1 = clock()
            basis = inner(gens, *args, **kwargs)
            h2 = clock()
            self.gb_basis_max = max(self.gb_basis_max, len(basis))
            for g in basis:
                for c in g.terms.values():
                    self.gb_bits_max = max(self.gb_bits_max, _coeff_bits(c))
            self._charge_hook((h1 - h0) + (clock() - h2))
            return basis

        buchberger.__wrapped__ = fn
        return buchberger

    def install(self):
        """Patch every binding of every traced function; returns the
        number of bindings replaced."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "hypercircle" or name.startswith("hypercircle.")}
        patched = 0
        for modname, names in SPANS.items():
            owner = mods[f"hypercircle.{modname}"]
            for name in names:
                fn = getattr(owner, name)
                if name == "buchberger":
                    wrapper = self.wrap_buchberger(fn)
                else:
                    wrapper = self.wrap(name, fn)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched += 1
        return patched
