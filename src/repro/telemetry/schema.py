"""A minimal JSON-Schema (draft-7 subset) validator for export formats.

CI validates every exported audit document and Chrome trace against the
schemas checked in under ``docs/schemas/`` — but the CI matrix installs
only pytest, so we cannot rely on the ``jsonschema`` package being
present. This module implements the small subset those schemas use:

``type``, ``const``, ``enum``, ``required``, ``properties``,
``additionalProperties``, ``items``, ``pattern``, ``minimum``,
``maximum``, ``minItems``, ``anyOf``.

:func:`validate` returns a list of error strings (empty = valid) with
JSON-pointer-ish paths, and — when the real ``jsonschema`` package *is*
importable — :func:`validate_strict` cross-checks with it too, so local
runs get the full validator for free.
"""

from __future__ import annotations

import re
from typing import List, Mapping, Sequence, Union

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _check_type(instance: object, expected: Union[str, Sequence[str]]) -> bool:
    names = [expected] if isinstance(expected, str) else list(expected)
    for name in names:
        py = _TYPES.get(name)
        if py is None:
            continue
        # bool is an int subclass in Python; JSON Schema keeps them apart.
        if name in ("integer", "number") and isinstance(instance, bool):
            continue
        if isinstance(instance, py):  # type: ignore[arg-type]
            return True
    return False


def _validate(
    instance: object, schema: Mapping[str, object], path: str, errors: List[str]
) -> None:
    if "anyOf" in schema:
        branches: List[List[str]] = []
        for sub in schema["anyOf"]:  # type: ignore[union-attr]
            sub_errors: List[str] = []
            _validate(instance, sub, path, sub_errors)
            if not sub_errors:
                break
            branches.append(sub_errors)
        else:
            errors.append(f"{path}: matches no anyOf branch")
            return

    expected_type = schema.get("type")
    if expected_type is not None and not _check_type(instance, expected_type):
        errors.append(
            f"{path}: expected type {expected_type}, "
            f"got {type(instance).__name__}"
        )
        return

    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}")
    if "enum" in schema and instance not in schema["enum"]:  # type: ignore[operator]
        errors.append(f"{path}: {instance!r} not in enum")

    if isinstance(instance, str):
        pattern = schema.get("pattern")
        if pattern is not None and re.search(str(pattern), instance) is None:
            errors.append(f"{path}: {instance!r} does not match {pattern!r}")

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        minimum = schema.get("minimum")
        if minimum is not None and instance < minimum:  # type: ignore[operator]
            errors.append(f"{path}: {instance} below minimum {minimum}")
        maximum = schema.get("maximum")
        if maximum is not None and instance > maximum:  # type: ignore[operator]
            errors.append(f"{path}: {instance} above maximum {maximum}")

    if isinstance(instance, dict):
        for name in schema.get("required", ()):  # type: ignore[union-attr]
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        for name, sub in properties.items():  # type: ignore[union-attr]
            if name in instance:
                _validate(instance[name], sub, f"{path}/{name}", errors)
        additional = schema.get("additionalProperties", True)
        if additional is False:
            for name in instance:
                if name not in properties:  # type: ignore[operator]
                    errors.append(f"{path}: unexpected property {name!r}")
        elif isinstance(additional, Mapping):
            for name, value in instance.items():
                if name not in properties:  # type: ignore[operator]
                    _validate(value, additional, f"{path}/{name}", errors)

    if isinstance(instance, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(instance) < min_items:  # type: ignore[operator]
            errors.append(f"{path}: fewer than {min_items} items")
        items = schema.get("items")
        if isinstance(items, Mapping):
            for index, value in enumerate(instance):
                _validate(value, items, f"{path}/{index}", errors)


def validate(instance: object, schema: Mapping[str, object]) -> List[str]:
    """Validate; returns error strings (empty list means valid)."""
    errors: List[str] = []
    _validate(instance, schema, "$", errors)
    return errors


def validate_strict(instance: object, schema: Mapping[str, object]) -> List[str]:
    """:func:`validate`, cross-checked with ``jsonschema`` if available.

    The built-in subset validator always runs; when the real package is
    importable its findings are appended, so a schema feature our
    subset silently ignores still fails loudly somewhere.
    """
    errors = validate(instance, schema)
    try:
        import jsonschema  # type: ignore
    except ImportError:
        return errors
    validator_cls = jsonschema.validators.validator_for(schema)
    validator = validator_cls(schema)
    for error in validator.iter_errors(instance):
        pointer = "/".join(str(part) for part in error.absolute_path)
        errors.append(f"$/{pointer}: {error.message}")
    return errors


__all__ = [
    "validate",
    "validate_strict",
]
