"""Outside-in layer tracing: timing wrappers around the public functions
of every `x0dn` module, installed in a worker before its first call.

Modules import functions by name (`pipeline.genus`, `atkinlehner.genus`
and `cli.genus` are three bindings of one function), so every binding
whose object is an original function is rebound to its wrapper.  Calls
inside a module go through module globals and are caught the same way.

Statistics are aggregated per function, never stored per call; a stack
of child-time accumulators gives self time (inclusive time minus the
time spent in traced callees).
"""

import importlib
import inspect
import pkgutil
from time import perf_counter

ENUMERATORS = ("bielliptic_candidates", "trigonal_candidates",
               "low_genus_pairs")


class Record:
    __slots__ = ("calls", "s", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.raised = 0


def x0dn_modules() -> dict:
    """Short name -> module, for every module of the package."""
    import x0dn
    return {info.name: importlib.import_module(f"x0dn.{info.name}")
            for info in pkgutil.iter_modules(x0dn.__path__)}


class Tracer:
    def __init__(self):
        self.modules = x0dn_modules()
        self.records: dict[tuple[str, str], Record] = {}
        self.originals: dict[tuple[str, str], object] = {}
        self.extra = {"pipeline.enumeration.returned": 0,
                      "pipeline.enumeration.genus_calls": 0,
                      "atkinlehner.all_subgroups.returned": 0,
                      "quadorders.class_number.real.self_s": 0.0,
                      "quadorders.class_number.imag.self_s": 0.0,
                      "quadorders.class_number.max_abs_disc": 0}
        self._stack = [0.0]

    def install(self) -> None:
        """Wrap every public function of every x0dn module and rebind
        each binding of it, in every module, to the wrapper."""
        wrappers = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                self.originals[(short, name)] = obj
                wrappers[id(obj)] = self._wrap(short, name, obj)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])

    def _hooks(self, short: str, name: str):
        """(before, after) for the functions with extra counters: before
        takes the call's arguments and returns a token; after takes the
        token, the arguments, the result and the call's self time."""
        extra = self.extra
        if short == "pipeline" and name in ENUMERATORS:
            genus_rec = self.records.setdefault(("genus", "genus"), Record())

            def after(calls_before, args, result, self_dt):
                extra["pipeline.enumeration.returned"] += len(result)
                extra["pipeline.enumeration.genus_calls"] += (
                    genus_rec.calls - calls_before)
            return (lambda args: genus_rec.calls), after
        if (short, name) == ("atkinlehner", "all_subgroups"):
            def after(token, args, result, self_dt):
                extra["atkinlehner.all_subgroups.returned"] += len(result)
            return None, after
        if (short, name) == ("quadorders", "class_number"):
            def after(token, args, result, self_dt):
                disc = args[0]
                key = "real" if disc > 0 else "imag"
                extra[f"quadorders.class_number.{key}.self_s"] += self_dt
                extra["quadorders.class_number.max_abs_disc"] = max(
                    extra["quadorders.class_number.max_abs_disc"], abs(disc))
            return None, after
        return None, None

    def _wrap(self, short: str, name: str, fn):
        rec = self.records.setdefault((short, name), Record())
        stack = self._stack
        before, after = self._hooks(short, name)

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                rec.calls += 1
                rec.s += dt
                rec.self_s += dt - child
            if after is not None:
                after(token, args, result, dt - child)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        """Flat counters: <module>.<function>.{calls,s,self_s[,misses]},
        <module>.raised, cache.entries and the extras above."""
        out = dict(self.extra)
        entries = 0
        for (short, name), rec in self.records.items():
            base = f"{short}.{name}"
            out[f"{base}.calls"] = rec.calls
            out[f"{base}.s"] = rec.s
            out[f"{base}.self_s"] = rec.self_s
            out[f"{short}.raised"] = out.get(f"{short}.raised", 0) + rec.raised
            info = getattr(self.originals.get((short, name)), "cache_info", None)
            if info is not None:
                stats = info()
                out[f"{base}.misses"] = stats.misses
                entries += stats.currsize
        out["cache.entries"] = entries
        return out
