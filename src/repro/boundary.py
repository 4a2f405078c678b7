"""One declaration per kernel entry point: the instrumentation boundary.

Every Maxoid mediation point (syscall, Aufs, Binder, AM delegation, the
COW proxy, the egress services) emits into the same planes: an obs span
plus metrics and a fault-plane consult, both on the device the object
acts for (``self.obs``, ``self.obs.faults``), and a scheduler yield. A
method declares that wiring once and its body is written once::

    @boundary("bt.send", attrs=..., count="bt.sends", fault=..., sched=...)
    def send(self, process, device, payload): ...

``attrs`` (span attributes), ``fault`` (the consult context at point
``name``; the plane adds its ``device_id``) and ``sched`` (the yield
context at point ``name``) take the method's own parameters; ``count``
names a counter bumped on entry; ``done(self, span, result)`` records
result-derived attributes and metrics (span is None when ``span=False``).
``lock`` also takes the method's parameters and returns the context
manager (an ``RWLock`` mode, say) that the yield and the body run in
while the scheduler is enabled. Declaring ``fault`` registers ``name``
in ``FAULT_POINTS``.

Disarmed, a call costs the wrapper (generated with the method's own
signature, so nothing is packed), one ``enabled`` check per declared
plane (``self.obs``, plus ``self.obs.faults``/``SCHED`` only when
``fault``/``sched``/``lock`` are declared), then the bare body; no hook
runs and no lock is built. Armed, the order is span and count -> fault
-> lock -> yield -> body -> ``done`` (obs only), so a fired fault closes
an errored span before any lock is taken. A multi-step mutation is
split at its consult points into private step methods declared with
``span=False`` (``AufsMount._publish``, ``VolatileFiles._apply``, ...).
"""

from __future__ import annotations

import functools
import inspect
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro.faults.plane import register_point
from repro.sched import SCHED as _SCHED

__all__ = ["boundary", "tag"]

Hook = Callable[..., Dict[str, Any]]
Done = Callable[[Any, Any, Any], None]
Lock = Callable[..., ContextManager[Any]]


def boundary(
    name: str,
    *,
    span: bool = True,
    attrs: Optional[Hook] = None,
    count: Optional[str] = None,
    fault: Optional[Hook] = None,
    sched: Optional[Hook] = None,
    lock: Optional[Lock] = None,
    done: Optional[Done] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare a method as the kernel boundary ``name`` (see module doc)."""

    def decorate(body: Callable[..., Any]) -> Callable[..., Any]:
        def armed(self, args, kwargs):
            obs = self.obs
            if not obs.enabled:
                return consult(self, args, kwargs)
            if span:
                opened = obs.tracer.span(
                    name, **(attrs(self, *args, **kwargs) if attrs else {})
                )
            else:
                opened = nullcontext()
            with opened as current:
                if count is not None:
                    obs.metrics.count(count)
                result = consult(self, args, kwargs)
                if done is not None:
                    done(self, current, result)
                return result

        def consult(self, args, kwargs):
            if fault is not None and self.obs.faults.enabled:
                self.obs.faults.hit(name, **fault(self, *args, **kwargs))
            if lock is not None and _SCHED.enabled:
                with lock(self, *args, **kwargs):
                    if sched is not None:
                        _SCHED.yield_point(name, **sched(self, *args, **kwargs))
                    return body(self, *args, **kwargs)
            if sched is not None and _SCHED.enabled:
                _SCHED.yield_point(name, **sched(self, *args, **kwargs))
            return body(self, *args, **kwargs)

        if fault is not None:
            register_point(name, body.__qualname__)
        gates = (("{self}.obs.faults", fault), ("_b_SCHED", sched or lock))
        planes = [plane for plane, hook in gates if hook]
        return functools.update_wrapper(_forwarder(body, planes, armed), body)

    return decorate


def _forwarder(body: Callable[..., Any], planes: List[str], armed: Callable[..., Any]):
    """``def <name>(<body's parameters>)`` calling ``armed(self, args,
    kwargs)`` when obs or one of ``planes`` is enabled, else ``body``.
    ``{self}`` in a plane stands for the body's first parameter.

    Built from the body's own signature because packing and unpacking
    ``*args``/``**kwargs`` cost whole delegate invocations 2-3%.
    Generated names start with ``_b_``, which no parameter may use."""
    scope = {"_b_armed": armed, "_b_body": body, "_b_SCHED": _SCHED}
    params: List[str] = []
    positional: List[str] = []
    keyword: List[str] = []
    for param in inspect.signature(body).parameters.values():
        if param.kind not in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
            raise TypeError(f"@boundary needs named parameters: {body.__qualname__}")
        if param.kind is param.KEYWORD_ONLY and not keyword:
            params.append("*")
        (keyword if param.kind is param.KEYWORD_ONLY else positional).append(param.name)
        params.append(param.name)
        if param.default is not param.empty:
            scope[f"_b_default_{param.name}"] = param.default
            params[-1] += f"=_b_default_{param.name}"
    self_name, *args = positional
    test = " or ".join(
        f"{plane.format(self=self_name)}.enabled" for plane in ["{self}.obs", *planes]
    )
    packed = "".join(f"{arg}, " for arg in args)
    named = ", ".join(f"{kw!r}: {kw}" for kw in keyword)
    call = ", ".join(positional + [f"{kw}={kw}" for kw in keyword])
    source = (
        f"def {body.__name__}({', '.join(params)}):\n"
        f"    if {test}:\n"
        f"        return _b_armed({self_name}, ({packed}), {{{named}}})\n"
        f"    return _b_body({call})\n"
    )
    exec(compile(source, f"<boundary {body.__qualname__}>", "exec"), scope)
    return scope[body.__name__]


def tag(obs: Any, name: str, **attrs: Any) -> None:
    """Set ``attrs`` on the open boundary span ``name`` from inside its body.

    For attributes known only mid-body that streaming consumers must see
    before the span closes. Does nothing when the innermost open span is
    another one. Callers gate on ``obs.enabled`` first, so the disarmed
    path builds no kwargs."""
    current = obs.tracer.current
    if current is not None and current.name == name:
        current.set(**attrs)
