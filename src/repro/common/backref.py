"""Weak back-references that pickle as strong ones.

The engine is an ownership tree: a simulation owns its kernel, memory
system and monitor, the kernel owns its subsystems, and a
:class:`~repro.sanitizers.registry.CheckRegistry` owns its checkers. A
few objects also point back up that tree: each kernel subsystem at its
kernel, the monitor at the bus whose listener list holds it, each
checker at its registry and at the parts it inspects. Held strongly,
each such pointer closes a reference cycle, and a finished engine then
lives on until the collector's next full collection finds it. Declared
as a :class:`BackRef`, the pointer is weak, so the engine dies by
refcount when its last owner drops it.

A holder subclasses :class:`HoldsBackRefs`, which pickles each
back-reference as the strong reference it stands for, in the same
``__dict__`` slot. The pickled bytes are those of a plain attribute, so
stored runs and checkpoints keep their bytes.
"""

from __future__ import annotations

import weakref


class BackRef:
    """A data descriptor keeping a weak reference under its own name.

    ``self.k = kernel`` stores ``weakref.ref(kernel)`` in the instance
    ``__dict__`` at key ``"k"``, where a plain attribute would sit.
    ``None`` passes through. Reading the attribute once its target is
    gone raises :class:`ReferenceError` naming the class and attribute.
    """

    __slots__ = ("name",)

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        owner._back_refs = getattr(owner, "_back_refs", ()) + (name,)

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        ref = obj.__dict__[self.name]
        if ref is None:
            return None
        target = ref()
        if target is None:
            raise ReferenceError(
                f"{type(obj).__name__}.{self.name}: the object it referred "
                "to no longer exists"
            )
        return target

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = None if value is None else weakref.ref(value)


class HoldsBackRefs:
    """Pickles each :class:`BackRef` attribute as a strong reference.

    The state is the instance ``__dict__`` with every back-reference
    dereferenced in place, so the bytes equal those of a class that held
    the reference strongly. Loading wraps each one weakly again.
    """

    _back_refs: tuple = ()

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in self._back_refs:
            state[name] = getattr(self, name)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        for name in self._back_refs:
            setattr(self, name, state[name])
