"""Per-user tuple views of flat arrays, built on first read.

The stages hand each other flat arrays: the serving links of
ServingStructure, the per-group values of SETerms in SIC order, and the
group count of each user. Readers outside the stages may still take the
per-user tuples (ServingStructure.clusters and .groups, SETerms.D and
.group_order). Each such tuple is a dataclass field whose default is a
TupleView: read, it is built from the instance's flat arrays once and
cached in the instance.

The fields stay init fields, so that the classes still construct from the
tuples and dataclasses.replace still copies them. A value given to
__init__ takes precedence, and the class's __post_init__ then derives its
flat arrays from its views (views_given, set_flat). dataclasses.replace
passes every field that it does not change, views included, so a copy's
flat arrays are always derived from its views.
"""

from __future__ import annotations


class TupleView:
    """A dataclass field default: the view build(instance) of the flat
    arrays, built on first read unless a value was given."""

    def __init__(self, build):
        self._build = build

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self         # the field's default: no value given
        cache = instance.__dict__
        if self._name not in cache:
            cache[self._name] = self._build(instance)
        return cache[self._name]

    def __set__(self, instance, value):
        if value is not self:
            instance.__dict__[self._name] = value


def views_given(instance) -> bool:
    """Whether __init__ was given a value for a view of instance; call it
    from __post_init__, before any view is read."""
    return any(isinstance(attr, TupleView) and name in instance.__dict__
               for name, attr in vars(type(instance)).items())


def set_flat(instance, **values) -> None:
    """Set the flat fields of a frozen instance, from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(instance, name, value)
