"""The editor view: a local working copy of a subset of sections."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.apps.docshare.document import DocumentError, sections_property
from repro.core.cache_manager import CacheManager
from repro.core.image import ObjectImage
from repro.core.property_set import PropertySet
from repro.core.system import FleccSystem


class EditorView:
    """One collaborator's working copy.

    Trigger expressions may reference ``unsaved_edits`` via reflection
    (e.g. ``push="unsaved_edits >= 5"`` — autosave after five edits).
    """

    def __init__(self, editor_id: str, sections: Iterable[str]) -> None:
        self.editor_id = editor_id
        self.my_sections: List[str] = sorted(sections)
        self.local: Dict[str, str] = {}
        self.unsaved_edits = 0

    # -- editing -----------------------------------------------------------
    def append_line(self, section: str, line: str) -> None:
        if section not in self.local:
            raise DocumentError(
                f"editor {self.editor_id} has no local copy of {section!r}"
            )
        text = self.local[section]
        self.local[section] = f"{text}\n{line}" if text else line
        self.unsaved_edits += 1

    def read(self, section: str) -> str:
        if section not in self.local:
            raise DocumentError(
                f"editor {self.editor_id} has no local copy of {section!r}"
            )
        return self.local[section]

    def lines(self, section: str) -> List[str]:
        return [l for l in self.read(section).splitlines() if l.strip()]

    # -- Flecc view interface ------------------------------------------------
    def properties(self) -> PropertySet:
        return sections_property(self.my_sections)

    def mark_saved(self) -> None:
        self.unsaved_edits = 0


def extract_from_editor(editor: EditorView, props: PropertySet) -> ObjectImage:
    img = ObjectImage()
    img.cells.update(editor.local)
    return img


def merge_into_editor(
    editor: EditorView, image: ObjectImage, props: PropertySet
) -> None:
    for name in image.keys():
        editor.local[name] = image.get(name)


def attach_editor(
    system: FleccSystem,
    editor: EditorView,
    trigger_poll_period: float = 50.0,
    **view_options: Any,
) -> CacheManager:
    """Wire an editor into a Flecc system (one call, like Fig 3).

    Editors poll their triggers twice as often as the cache manager's
    default; every other keyword goes to :class:`CacheManager` unchanged.
    """
    return system.add_view(
        editor.editor_id,
        editor,
        editor.properties(),
        extract_from_editor,
        merge_into_editor,
        trigger_poll_period=trigger_poll_period,
        **view_options,
    )
