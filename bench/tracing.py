"""In-memory span tracer that wraps the public functions of the vpu modules.

The program is not edited: `Tracer.install` replaces every public function
and public method of the traced modules with a timing wrapper, including the
copies other vpu modules imported by name and those held in module-level
dicts and tuples (dispatch tables such as ``cli.HANDLERS``), and
`Tracer.uninstall` puts the originals back.

A span records its name, start, end and parent; the workload and run ID are
the tracer's and go on every span written out.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its children: calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import mmap
import os
import struct
import time

MODULES = ("autodiff", "model", "losses", "sampling", "trainer", "data",
           "oracle", "metrics", "cli")

# Called once per random draw, per tensor argument or per test row: a span
# there would cost more than the work it times.  Their time stays in the
# caller's self time, and random draws are counted through `Rng.counter`.
UNTRACED = frozenset({
    "sampling.Rng.next_u64", "sampling.Rng.uniform", "sampling.Rng.uniform_open",
    "sampling.Rng.randbelow", "sampling.Rng.normal",
    "autodiff.as_tensor", "model.predict_label",
})


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _file_bytes(path) -> int:
    return os.path.getsize(path)


# Work counted per span: name -> f(args, kwargs, result).
MEASURES = {
    "model.ClassifierModel.logits": lambda a, k, r: _rows(k.get("x", a[2] if len(a) > 2 else None)),
    "model.ClassifierModel.raw_values": lambda a, k, r: _rows(k.get("x", a[1] if len(a) > 1 else None)),
    "data.write_csv": lambda a, k, r: _file_bytes(k.get("path", a[1] if len(a) > 1 else None)),
    "data.load_csv": lambda a, k, r: _file_bytes(k.get("path", a[0] if a else None)),
}


def _suite_failures(args, kwargs, result) -> int:
    return result.failures


def _targets(modules):
    """(owner, attribute, original, span name) for every traced callable."""
    out = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, value in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                out.append((mod, attr, value, f"{short}.{attr}"))
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((value, meth, fn, f"{short}.{attr}.{meth}"))
    return [t for t in out if t[3] not in UNTRACED]


class Tracer:
    """Collects spans while installed; one instance per traced run.

    Spans go into fixed columns in anonymous memory maps, allocated once,
    so tracing never grows, moves or frees a heap block while the program
    runs: a tracer that did would change how glibc malloc serves the
    program's own arrays (its mmap and trim thresholds adapt to the sizes
    freed), and with it the cost of the page faults the program pays.
    """

    def __init__(self, workload: str, run_id: str, capacity: int):
        self.workload = workload
        self.run_id = run_id
        self.capacity = capacity
        self.span_names: list[str] = []  # name id -> span name
        self._ids: dict[str, int] = {}
        self.names = self._column("i", capacity)  # name id of each span
        self.parents = self._column("q", capacity)
        self.starts = self._column("d", capacity)
        self.ends = self._column("d", capacity)
        self.tensors = self._column("q", capacity)  # Tensor objects created inside the span
        self.units = self._column("d", capacity)  # work counted by MEASURES, else 0
        self.count = 0
        self.rngs: list[tuple[int, object]] = []  # (root span, Rng)
        self.tensor_count = 0
        self._stack = [-1]
        self._root = -1
        self._undo: list = []

    @staticmethod
    def _column(code: str, capacity: int) -> memoryview:
        size = struct.calcsize(code)
        return memoryview(mmap.mmap(-1, size * capacity)).cast(code)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = self.count
        if sid == self.capacity:
            raise RuntimeError(f"trace full: more than {self.capacity} spans")
        self.count = sid + 1
        self.names[sid] = nid
        self.parents[sid] = self._stack[-1]
        self.tensors[sid] = self.tensor_count
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, end: float) -> None:
        self.ends[sid] = end
        self.tensors[sid] = self.tensor_count - self.tensors[sid]
        self._stack.pop()

    def root(self, name: str, body):
        """Return `body()`, run inside a top-level span."""
        sid = self._root = self._open(self.name_id(name))
        self.starts[sid] = time.perf_counter()
        try:
            return body()
        finally:
            self._close(sid, time.perf_counter())
            self._root = -1

    def _wrap(self, name, fn):
        tracer = self
        nid = self.name_id(name)
        measure = MEASURES.get(name)
        if name.startswith("oracle.suite_"):
            measure = _suite_failures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            tracer.starts[sid] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, time.perf_counter())
            if measure is not None:
                tracer.units[sid] = measure(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"vpu.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        wrapped = {}
        for owner, attr, fn, name in _targets(modules):
            wrapper = wrapped[id(fn)] = (fn, self._wrap(name, fn))
            self._set(owner, attr, wrapper[1])

        def swap(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, tuple):
                    new = tuple(swap(v) for v in value)
                    if any(a is not b for a, b in zip(new, value)):
                        self._set(mod, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if swap(item) is not item:
                            self._undo.append((value.__setitem__, key, item))
                            value[key] = swap(item)
                elif swap(value) is not value:
                    self._set(mod, attr, swap(value))

        tracer = self
        tensor_cls = by_name["autodiff"].Tensor
        tensor_init = tensor_cls.__init__

        def counting_init(obj, *args, **kwargs):
            tracer.tensor_count += 1
            tensor_init(obj, *args, **kwargs)

        rng_cls = by_name["sampling"].Rng
        rng_init = rng_cls.__init__

        def registering_init(obj, *args, **kwargs):
            rng_init(obj, *args, **kwargs)
            tracer.rngs.append((tracer._root, obj))

        self._set(tensor_cls, "__init__", counting_init)
        self._set(rng_cls, "__init__", registering_init)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzip JSON lines, one per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        head = f'{{"run_id":"{self.run_id}","workload":"{self.workload}"'
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(self.count):
                fh.write(f'{head},"id":{i},"parent":{self.parents[i]},'
                         f'"name":"{self.span_names[self.names[i]]}",'
                         f'"start":{self.starts[i]!r},"end":{self.ends[i]!r}}}\n')


# Direct children of trainer.train that belong to the optimisation step or
# to set-up; every other child is per-epoch, forward-only evaluation.
_STEP_CHILDREN = frozenset({
    "sampling.sample_minibatch", "sampling.sample_beta",
    "autodiff.value_and_gradient", "autodiff.ParameterVector.replaced",
    "trainer.adam_step", "model.init",
})
STEP = "autodiff.value_and_gradient"


def _add(acc: dict, key, value: float) -> None:
    acc[key] = acc.get(key, 0) + value


class Summary:
    """Per-layer figures from a finished trace.

    Each root span is a set-up or a timed iteration; every figure is the
    cost of one set-up plus one timed iteration: the sum over the roots of
    each kind, divided by how many there were.  Counts summed as integers
    stay exact when every root of a kind did the same work.  The tables are
    plain dicts keyed by span or module name, holding only names that were
    seen, so a caller can tell work that was never traced from work that
    took no time.
    """

    def __init__(self, tracer: Tracer):
        n = tracer.count
        names = [tracer.span_names[tracer.names[i]] for i in range(n)]
        parents, units = tracer.parents, tracer.units
        dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]

        roots: dict[str, int] = {}
        inclusive, self_time, work, modules, train = {}, {}, {}, {}, {}
        self.steps = self.step_tensors = self.step_logits = 0
        kind = [""] * n
        in_step = [False] * n
        in_train = [False] * n
        for i in range(n):
            p = parents[i]
            name = names[i]
            if p < 0:
                kind[i] = name
                _add(roots, name, 1)
                continue
            k = kind[i] = kind[p]
            own = dur[i] - child[i]
            _add(inclusive, (k, name), dur[i])
            _add(self_time, (k, name), own)
            _add(modules, (k, name.split(".", 1)[0]), own)
            if name in MEASURES or name.startswith("oracle.suite_"):
                _add(work, (k, name), _exact(units[i]))
            in_step[i] = in_step[p] or names[p] == STEP
            if name == STEP and not in_step[i]:
                self.steps += 1
                self.step_tensors += tracer.tensors[i]
            elif name == "model.ClassifierModel.logits" and in_step[i]:
                self.step_logits += 1
            if in_train[p] or names[p] == "trainer.train":
                in_train[i] = True
                _add(train, (k, "descendants_self_s"), own)
                if names[p] == "trainer.train" and name not in _STEP_CHILDREN:
                    _add(train, (k, "eval_s"), dur[i])
            if name == "trainer.train":
                _add(train, (k, "train_s"), dur[i])
                _add(train, (k, "self_s"), own)
                _add(train, (k, "eval_s"), 0.0)
                _add(train, (k, "descendants_self_s"), 0.0)
        draws = {}
        for r, rng in tracer.rngs:
            if r >= 0:
                _add(draws, (kind[r], "draws"), rng.counter)

        def per_root(acc) -> dict[str, float]:
            out: dict[str, float] = {}
            for (k, key), total in acc.items():
                _add(out, key, total / roots[k])
            return out

        self.roots_per_kind = roots
        self.inclusive = per_root(inclusive)
        self.self_time = per_root(self_time)
        self.work = per_root(work)
        self.modules = per_root(modules)
        self.draws = per_root(draws).get("draws")
        # trainer.train split: its own self time, the forward-only eval
        # children, and `accounted` = (train self + every descendant's self
        # time) / train duration, which is 1 up to rounding.  Empty when no
        # trainer.train span was seen.
        split = per_root(train)
        self.train = {}
        if split:
            self.train = {"train_s": split["train_s"], "self_s": split["self_s"],
                          "eval_s": split["eval_s"],
                          "accounted": (split["self_s"] + split["descendants_self_s"])
                          / split["train_s"]}


def _exact(value: float):
    """Counts are whole; keep them as integers so their sums stay exact."""
    return int(value) if float(value).is_integer() else value
